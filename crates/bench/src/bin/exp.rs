//! Print one experiment's table(s): `exp <name>`, or `exp all` for the
//! measured content of EXPERIMENTS.md. The experiments that take flags
//! (`exp_scale`, `exp_replan`, `exp_state`, `exp_concurrency`) keep their
//! own binaries.
use cloudless_bench::experiments as e;

/// What an experiment prints.
type Run = fn() -> String;

/// `(name, what it prints)`, in EXPERIMENTS.md order.
const EXPERIMENTS: &[(&str, Run)] = &[
    ("all", e::all),
    ("deploy", e::e1_deploy::run),
    ("incremental", e::e2_incremental::run),
    ("locks", e::e3_locks::run),
    ("rollback", e::e4_rollback::run),
    ("drift", e::e5_drift::run),
    ("validate", e::e6_validate::run),
    ("port", e::e7_port::run),
    ("policy", e::e8_policy::run),
    ("debug", e::e9_debug::run),
    ("synth", e::e10_synth::run),
    ("resilience", e::e11_resilience::run),
    ("obs", || {
        format!("{}\n{}", e::e12_obs::run(), e::e12_obs::overhead())
    }),
    ("analyze", e::e13_analyze::run),
    ("reconcile", e::e15_reconcile::run),
];

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    match EXPERIMENTS.iter().find(|(known, _)| *known == name) {
        Some((_, run)) => println!("{}", run()),
        None => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
            eprintln!("usage: exp <{}>", names.join("|"));
            std::process::exit(2);
        }
    }
}
