//! One module per experiment; each returns its rendered table(s) as a
//! string. `all()` concatenates everything (the content of EXPERIMENTS.md's
//! measured columns).

pub mod e10_synth;
pub mod e11_resilience;
pub mod e12_obs;
pub mod e13_analyze;
pub mod e14_scale;
pub mod e15_reconcile;
pub mod e16_replan;
pub mod e17_state;
pub mod e18_concurrency;
pub mod e1_deploy;
pub mod e2_incremental;
pub mod e3_locks;
pub mod e4_rollback;
pub mod e5_drift;
pub mod e6_validate;
pub mod e7_port;
pub mod e8_policy;
pub mod e9_debug;

use std::collections::BTreeMap;

use cloudless::cloud::{Catalog, Cloud, CloudConfig};
use cloudless::deploy::resolver::DataResolver;
use cloudless::deploy::{diff, ApplyReport, Executor, Plan, Strategy};
use cloudless::hcl::program::{expand, Manifest, ModuleLibrary, Program};
use cloudless::state::Snapshot;

/// Parse + expand a generated program (panics on generator bugs — the
/// generators are tested).
pub fn manifest_of(src: &str) -> Manifest {
    let program = Program::from_file(cloudless::hcl::parse(src, "workload.tf").expect("parse"))
        .expect("analyze");
    expand(
        &program,
        &BTreeMap::new(),
        &ModuleLibrary::new(),
        &DataResolver::new(),
    )
    .expect("expand")
}

/// A cloud with effectively unlimited quotas (workload generators may
/// exceed per-type defaults on purpose) and exact latencies.
pub fn experiment_cloud(config: CloudConfig, seed: u64) -> Cloud {
    let mut config = config;
    for schema in Catalog::standard().iter() {
        config
            .quota_overrides
            .insert(schema.rtype.clone(), 1_000_000);
    }
    Cloud::new(config, seed)
}

/// The standard catalog with quotas raised out of the way, mirroring
/// [`experiment_cloud`]: scale workloads exceed per-type default quotas on
/// purpose, and VAL307 would otherwise reject them outright.
pub fn quota_raised_catalog() -> Catalog {
    let mut catalog = Catalog::standard();
    let raised: Vec<_> = catalog.iter().cloned().collect();
    for mut schema in raised {
        schema.default_quota = 1_000_000;
        catalog.add(schema);
    }
    catalog
}

/// Deploy a source program from scratch with a strategy; returns the report
/// plus the cloud and final state for follow-up phases.
pub fn deploy(
    src: &str,
    strategy: Strategy,
    cloud_config: CloudConfig,
    seed: u64,
) -> (ApplyReport, Cloud, Snapshot) {
    let m = manifest_of(src);
    let mut cloud = experiment_cloud(cloud_config, seed);
    let catalog = cloud.catalog().clone();
    let data = DataResolver::new();
    let mut state = Snapshot::new();
    let plan = Plan::build(diff(&m, &state, &catalog, &data), &state, &catalog);
    let exec = Executor::new(strategy, &data);
    let report = exec.apply(&plan, &mut cloud, &mut state);
    assert!(
        report.all_ok(),
        "workload must deploy cleanly: {:?}",
        report.errors()
    );
    (report, cloud, state)
}

/// Run every experiment; the output is EXPERIMENTS.md's measured section.
pub fn all() -> String {
    let mut out = String::new();
    out.push_str(&e1_deploy::run());
    out.push('\n');
    out.push_str(&e2_incremental::run());
    out.push('\n');
    out.push_str(&e3_locks::run());
    out.push('\n');
    out.push_str(&e4_rollback::run());
    out.push('\n');
    out.push_str(&e5_drift::run());
    out.push('\n');
    out.push_str(&e6_validate::run());
    out.push('\n');
    out.push_str(&e7_port::run());
    out.push('\n');
    out.push_str(&e8_policy::run());
    out.push('\n');
    out.push_str(&e9_debug::run());
    out.push('\n');
    out.push_str(&e10_synth::run());
    out.push('\n');
    out.push_str(&e11_resilience::run());
    out.push('\n');
    out.push_str(&e12_obs::run());
    out.push('\n');
    out.push_str(&e13_analyze::run());
    // E14 (scale) is intentionally absent: it times host wall-clock and
    // would make the snapshot machine-dependent. See the `exp_scale` binary
    // and `scripts/check_bench.sh`.
    out.push('\n');
    out.push_str(&e15_reconcile::run());
    // E16/E17 (replan, state) are wall-clock sections of BENCH_*.json; the
    // corpus half of E18 is seeded + deterministic, so it snapshots fine.
    out.push('\n');
    out.push_str(&e18_concurrency::run());
    out
}
