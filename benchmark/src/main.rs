//! The repo benchmark: session-level apply, replan and reconcile on four
//! workloads, with a staged per-layer trace. See `README.md`.

mod calibrate;
mod compare;
mod fidelity;
mod gen;
mod metrics;
mod report;
mod session;
mod span;
mod staged;
mod stats;
mod workloads;

use std::path::PathBuf;

use workloads::{Params, Workload};

const USAGE: &str = "usage:
  run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
         [--resources N] [--out FILE]
  run.sh compare A.jsonl B.jsonl
  run.sh fidelity

Without --workload every workload runs in turn (and, with --trace, once more
through the staged replica); --out appends each pass's result as a JSON line.
Workloads: greenfield, edit-reapply, watch-edits, drift-reconcile.";

/// The scale the driver's time cap leaves room for (see README, Budget).
const DEFAULT_RESOURCES: usize = 10_000;
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_RESOURCES: usize = 2_000;

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    resources: usize,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        resources: DEFAULT_RESOURCES,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?,
                );
            }
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?
            }
            "--resources" => {
                cli.resources = value("a number")?
                    .parse()
                    .map_err(|e| format!("bad --resources: {e}"))?
            }
            "--out" => cli.out = Some(PathBuf::from(value("a file")?)),
            // one round of a small estate: the quick tier
            "--smoke" => {
                cli.resources = SMOKE_RESOURCES;
                cli.seconds = 0.0;
            }
            // `--trace 0|1` for the driver, bare `--trace` by hand
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    cli.trace = false;
                }
                Some("1") => {
                    it.next();
                    cli.trace = true;
                }
                _ => cli.trace = true,
            },
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if cli.resources < 200 {
        return Err("--resources must be at least 200".into());
    }
    Ok(cli)
}

/// This package's directory (`run.sh` exports it): scratch space and traces
/// live in its `out/`, inside the checkout whatever the working directory.
fn home() -> PathBuf {
    std::env::var_os("CLOUDLESS_BENCH_HOME")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

fn run(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("--child") => return session::child_main(&args[1..]).map(|()| true),
        Some("compare") => return compare::main(&args[1..]),
        Some("fidelity") => return fidelity::main(&home()),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return Ok(true);
        }
        _ => {}
    }
    let cli = parse(args)?;
    let Some(workload) = cli.workload else {
        return run_all(&cli);
    };
    let p = Params {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        resources: cli.resources,
        out_dir: home().join("out"),
    };
    let outcome = workloads::run(&p)?;
    let result = report::Pass::new(&p, &outcome)?;
    result.print_table();
    if p.trace {
        report::write_trace(&p, &outcome)?;
    }
    if let Some(path) = &cli.out {
        report::append(path, &result)?;
    }
    println!("{}", result.contract_line());
    Ok(result.correct)
}

/// Every workload untraced and, with `--trace`, once more through the
/// staged replica: each pass in a process of its own, exactly as the driver
/// runs it, so one workload's heap never shows in another's `peak_rss_mb`.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            if trace && !cli.trace {
                continue;
            }
            let mut pass = std::process::Command::new(&exe);
            pass.args(["--workload", workload.name()])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--resources", &cli.resources.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if let Some(path) = &cli.out {
                pass.arg("--out").arg(path);
            }
            let status = pass
                .status()
                .map_err(|e| format!("cannot spawn a pass: {e}"))?;
            ok &= status.success();
        }
    }
    println!(
        "{}",
        if ok {
            "all checks passed"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    Ok(ok)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
