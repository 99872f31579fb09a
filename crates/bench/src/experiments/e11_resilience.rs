//! E11 — resilient apply under fault injection (§3.3/§3.4).
//!
//! Claim operationalized: §3.3 names "retries in case of resource hanging
//! or failure" a first-class scheduling constraint. This experiment drives
//! the same random-200 DAG through increasingly hostile fault plans and
//! compares the legacy executor policy (immediate retry ×3, no deadlines,
//! no breaker) against the resilient one (exponential backoff with seeded
//! jitter, per-op deadlines that cancel hung ops, a per-provider circuit
//! breaker, and a bigger attempt budget). The legacy policy is [`legacy`],
//! kept here because no product path runs it.
//!
//! A second table shows checkpoint/resume: a partially-failed apply's
//! completed addresses are fed back via [`Executor::resume_from`], and only the
//! unfinished frontier re-executes.

use cloudless::cloud::{Cloud, CloudConfig, FaultPlan};
use cloudless::deploy::resolver::DataResolver;
use cloudless::deploy::{
    diff, ApplyReport, DeadlinePolicy, Executor, Plan, ResiliencePolicy, RetryPolicy, Strategy,
};
use cloudless::state::Snapshot;

use crate::table::Table;
use crate::workloads;
use crate::SEED;

const STRATEGY: Strategy = Strategy::CriticalPath { max_in_flight: 64 };

/// The seed executor's behavior: immediate retries, no deadlines, no
/// breaker.
pub fn legacy() -> ResiliencePolicy {
    ResiliencePolicy {
        retry: RetryPolicy::immediate(),
        deadline: DeadlinePolicy::None,
        breaker: None,
        seed: 7,
    }
}

/// Like [`super::deploy`] but with faults on and no `all_ok` assertion —
/// partial failure is the point here.
fn faulty_apply(
    src: &str,
    policy: ResiliencePolicy,
    faults: FaultPlan,
    seed: u64,
) -> (ApplyReport, Cloud, Snapshot, Plan) {
    let m = super::manifest_of(src);
    let mut config = CloudConfig::exact();
    config.faults = faults;
    let mut cloud = super::experiment_cloud(config, seed);
    let catalog = cloud.catalog().clone();
    let data = DataResolver::new();
    let mut state = Snapshot::new();
    let plan = Plan::build(diff(&m, &state, &catalog, &data), &state, &catalog);
    let exec = Executor::new(STRATEGY, &data).with_resilience(policy);
    let report = exec.apply(&plan, &mut cloud, &mut state);
    (report, cloud, state, plan)
}

fn policy_row(
    t: &mut Table,
    plan_name: &str,
    policy_name: &str,
    report: &ApplyReport,
    total: usize,
) {
    let ok = total - report.failures() - report.skips();
    t.row(vec![
        plan_name.to_string(),
        policy_name.to_string(),
        format!("{ok}/{total}"),
        report.makespan().to_string(),
        report.total_attempts().to_string(),
        report.retries.to_string(),
        report.timeouts.to_string(),
        report.breaker_trips.to_string(),
    ]);
}

pub fn run() -> String {
    let src = workloads::random_dag(200, SEED);
    let total = 200;

    let mut t = Table::new(
        "E11 — resilient apply on random-200 under fault injection",
        &[
            "fault plan",
            "policy",
            "nodes ok",
            "makespan",
            "attempts",
            "retries",
            "timeouts",
            "breaker trips",
        ],
    );
    let plans = [
        ("noise (1%/2%x8)", FaultPlan::default()),
        ("chaotic (15%/10%x10)", FaultPlan::chaotic()),
        ("storm (30%/10%x12)", FaultPlan::storm()),
    ];
    for (plan_name, faults) in plans {
        for (policy_name, policy) in [
            ("legacy", legacy()),
            ("resilient", ResiliencePolicy::standard()),
        ] {
            let (report, _, _, _) = faulty_apply(&src, policy, faults, SEED);
            policy_row(&mut t, plan_name, policy_name, &report, total);
        }
    }
    let mut out = t.render();

    // checkpoint/resume: fail under the legacy policy mid-storm, then feed
    // the partial report back and finish with the resilient policy.
    let (first, mut cloud, mut state, plan) =
        faulty_apply(&src, legacy(), FaultPlan::storm(), SEED);
    let completed_before = first.completed_addrs().len();
    let data = DataResolver::new();
    let resumed = Executor::new(STRATEGY, &data)
        .with_resilience(ResiliencePolicy::standard())
        .resume_from(&plan, &mut cloud, &mut state, &first.completed_addrs());
    let mut t2 = Table::new(
        "E11b — checkpoint/resume after a partially-failed apply (storm)",
        &["phase", "nodes ok", "new attempts", "makespan"],
    );
    t2.row(vec![
        "legacy apply (fails)".to_string(),
        format!("{completed_before}/{total}"),
        first.total_attempts().to_string(),
        first.makespan().to_string(),
    ]);
    t2.row(vec![
        "resume (resilient)".to_string(),
        format!("{}/{total}", resumed.completed_addrs().len()),
        resumed.total_attempts().to_string(),
        resumed.makespan().to_string(),
    ]);
    out.push('\n');
    out.push_str(&t2.render());
    out.push_str(
        "(resume re-executes only the unfinished frontier: nodes completed by\n\
         the failed apply contribute zero new attempts.)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_policy_reproduces_immediate_retry() {
        // 40% transient faults, no hangs: the legacy policy retries at once,
        // never cancels and never trips a breaker
        let faults = FaultPlan {
            transient_failure_rate: 0.4,
            hang_rate: 0.0,
            hang_factor: 1.0,
            ..FaultPlan::none()
        };
        let src = r#"
resource "aws_s3_bucket" "b" {
  count  = 10
  bucket = "bucket-${count.index}"
}
"#;
        let (report, _, state, _) = faulty_apply(src, legacy(), faults, 1234);
        assert!(report.all_ok(), "{:?}", report.errors());
        assert!(report.retries > 0);
        assert_eq!((report.timeouts, report.breaker_trips), (0, 0));
        assert_eq!(state.len(), 10);
    }

    #[test]
    fn resilient_policy_beats_legacy_under_storm() {
        // everything is seeded, so scan for a storm that visibly hurts the
        // legacy policy (a 30% transient rate breaks ~1 in 60 nodes per
        // attempt budget; cascaded skips amplify it on some seeds)
        let src = workloads::random_dag(60, SEED);
        for seed in 0..50 {
            let (baseline, _, _, _) = faulty_apply(&src, legacy(), FaultPlan::storm(), seed);
            let legacy_bad = baseline.failures() + baseline.skips();
            if legacy_bad < 3 {
                continue;
            }
            let (resilient, _, _, _) =
                faulty_apply(&src, ResiliencePolicy::standard(), FaultPlan::storm(), seed);
            let resilient_bad = resilient.failures() + resilient.skips();
            assert!(
                resilient_bad < legacy_bad,
                "seed {seed}: resilient ({resilient_bad} bad) should complete more \
                 nodes than legacy ({legacy_bad} bad)"
            );
            return;
        }
        panic!("no seed in 0..50 broke the legacy policy under storm");
    }

    #[test]
    fn resume_finishes_what_legacy_started() {
        let src = workloads::random_dag(40, SEED);
        // generous budget so the *resumed* half converges even mid-storm
        let mut tough = ResiliencePolicy::standard();
        tough.retry.max_attempts_per_node = 12;
        for seed in 0..50 {
            let (first, mut cloud, mut state, plan) =
                faulty_apply(&src, legacy(), FaultPlan::storm(), seed);
            if first.all_ok() {
                continue;
            }
            let data = DataResolver::new();
            let resumed = Executor::new(STRATEGY, &data)
                .with_resilience(tough)
                .resume_from(&plan, &mut cloud, &mut state, &first.completed_addrs());
            assert!(
                resumed.all_ok(),
                "seed {seed}: resume should converge: {:?}",
                resumed.errors()
            );
            // completed nodes are not re-executed
            for addr in first.completed_addrs() {
                let stats = resumed.node_stats.get(&addr).copied().unwrap_or_default();
                assert_eq!(stats.attempts, 0, "{addr} was re-executed on resume");
            }
            return;
        }
        panic!("no seed in 0..50 broke the legacy policy under storm");
    }

    #[test]
    fn table_renders() {
        let s = run();
        assert!(s.contains("E11"));
        assert!(s.contains("resilient"));
    }
}
