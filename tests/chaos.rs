//! Chaos integration: the full engine under injected transient failures and
//! hangs (§3.3's "retries in case of resource hanging or failure").

use cloudless::cloud::{CloudConfig, FaultPlan};
use cloudless::deploy::{DeadlinePolicy, ResiliencePolicy, Strategy};
use cloudless::types::SimDuration;
use cloudless::{Cloudless, Config};
use cloudless_bench::experiments::e11_resilience::legacy;

const FLEET: &str = r#"
resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "app" {
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}
resource "aws_virtual_machine" "web" {
  count     = 6
  name      = "web-${count.index}"
  subnet_id = aws_subnet.app.id
}
resource "aws_s3_bucket" "assets" {
  count  = 4
  bucket = "chaos-assets-${count.index}"
}
"#;

fn chaotic_engine(seed: u64, transient: f64, hang: f64) -> Cloudless {
    let mut cloud = CloudConfig::exact();
    cloud.faults = FaultPlan {
        transient_failure_rate: transient,
        hang_rate: hang,
        hang_factor: 8.0,
        ..FaultPlan::none()
    };
    Cloudless::new(Config {
        cloud,
        seed,
        strategy: Strategy::CriticalPath { max_in_flight: 64 },
        ..Config::default()
    })
}

#[test]
fn retries_mask_heavy_transient_faults() {
    // 30% of mutations fail transiently; retries (3 per op) should still
    // converge the whole fleet for most seeds
    let mut converged = 0;
    let mut total_retries = 0;
    const SEEDS: u64 = 10;
    for seed in 0..SEEDS {
        let mut e = chaotic_engine(seed, 0.3, 0.0);
        let out = e.converge(FLEET).expect("pipeline runs");
        if out.apply.all_ok() {
            converged += 1;
            assert_eq!(e.state().len(), 12);
            assert_eq!(e.cloud().records().len(), 12);
        }
        total_retries += out.apply.retries;
    }
    // per-op residual failure after 3 retries is 0.3^4 ≈ 0.8%; with 12 ops
    // a run still fails ~9% of the time, so expect most-but-not-all
    assert!(
        converged >= 7,
        "retries should mask 30% faults in ≥7/{SEEDS} runs, got {converged}"
    );
    assert!(total_retries > 0, "faults actually occurred");
}

#[test]
fn hangs_delay_but_do_not_break_convergence() {
    let mut e = chaotic_engine(7, 0.0, 0.5);
    let out = e.converge(FLEET).expect("pipeline runs");
    assert!(out.apply.all_ok(), "{:?}", out.apply.errors());
    // compare against a calm run: the hung deployment takes longer
    let mut calm = chaotic_engine(7, 0.0, 0.0);
    let calm_out = calm.converge(FLEET).expect("calm run");
    assert!(out.apply.makespan() > calm_out.apply.makespan());
    // but the end states agree structurally
    assert_eq!(e.state().len(), calm.state().len());
}

#[test]
fn state_is_exact_after_partial_failure_and_recovers_on_retry() {
    // exhaust retries with a 90% failure rate → partial apply; the state
    // must record exactly the survivors, and a follow-up converge under
    // calm conditions completes the fleet without touching survivors twice
    let mut e = chaotic_engine(3, 0.9, 0.0);
    let out = e.converge(FLEET).expect("pipeline runs");
    assert!(
        !out.apply.all_ok(),
        "90% faults must defeat 3 retries somewhere"
    );
    let live: usize = e.cloud().records().len();
    assert_eq!(e.state().len(), live, "state mirrors the cloud exactly");

    // calm retry: converge the same program with fresh (calm) fault plan —
    // simulate the operator retrying later; reuse the same engine but
    // convert its cloud to calm via a fresh engine sharing the session
    let state = e.state().clone();
    let records = e.cloud().export_records().clone();
    let mut calm = Cloudless::with_session(
        Config {
            cloud: CloudConfig::exact(),
            ..Config::default()
        },
        state,
        records,
    );
    let out2 = calm.converge(FLEET).expect("retry converges");
    assert!(out2.apply.all_ok(), "{:?}", out2.apply.errors());
    assert_eq!(calm.state().len(), 12);
    // only the missing resources were created
    assert_eq!(out2.apply.ops_submitted as usize, 12 - live);
}

#[test]
fn deadlines_cancel_hangs_and_still_converge() {
    // heavy hangs at 20x latency: a tight deadline (2x estimate) cancels the
    // hung op and the retry usually lands, so the fleet converges faster
    // than the legacy policy that waits every hang out
    let tight_policy = {
        let mut p = ResiliencePolicy::standard();
        p.deadline = DeadlinePolicy::EstimateFactor {
            factor: 2.0,
            floor: SimDuration::ZERO,
        };
        p
    };
    let build = |resilience: ResiliencePolicy| {
        let mut cloud = CloudConfig::exact();
        cloud.faults = FaultPlan {
            transient_failure_rate: 0.0,
            hang_rate: 0.4,
            hang_factor: 20.0,
            ..FaultPlan::none()
        };
        Cloudless::new(Config {
            cloud,
            seed: 7,
            strategy: Strategy::CriticalPath { max_in_flight: 64 },
            resilience,
            ..Config::default()
        })
    };

    let mut tight = build(tight_policy);
    let out = tight.converge(FLEET).expect("pipeline runs");
    assert!(out.apply.all_ok(), "{:?}", out.apply.errors());
    assert!(out.apply.timeouts > 0, "hangs were actually cancelled");
    assert_eq!(tight.state().len(), 12);
    assert_eq!(tight.cloud().records().len(), 12, "no orphans from cancels");

    let legacy_out = build(legacy()).converge(FLEET).expect("legacy runs");
    assert!(legacy_out.apply.all_ok());
    assert_eq!(legacy_out.apply.timeouts, 0, "legacy never cancels");
    assert!(
        out.apply.makespan() < legacy_out.apply.makespan(),
        "cancel-and-retry ({}) should beat waiting out hangs ({})",
        out.apply.makespan(),
        legacy_out.apply.makespan()
    );
}

#[test]
fn retry_and_backoff_schedule_is_deterministic() {
    // same seed → byte-identical report (results, per-node attempt counts,
    // virtual timestamps — i.e. the whole retry/backoff schedule)
    let run = |seed: u64| {
        let mut e = chaotic_engine(seed, 0.3, 0.2);
        let out = e.converge(FLEET).expect("pipeline runs");
        format!("{:?}", out.apply)
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a, b, "identical seeds must replay identically");
    assert!(a.contains("node_stats"), "report carries per-node stats");
}
