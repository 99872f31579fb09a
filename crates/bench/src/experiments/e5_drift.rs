//! E5 — drift detection: full API scan vs. activity-log watcher (§3.5).
//!
//! Claim: "Industry tools like driftctl … directly use cloud-level API to
//! scan the deployment state, which incurs significant time overhead due to
//! cloud API rate limiting. Frequent scanning is also expensive if API
//! calls have quotas or paywalls. Cloudless computing should support drift
//! detection natively … by an observability component that relies on cloud
//! activity logs."
//!
//! Setup: a fleet of N managed resources; over one virtual day, drift
//! events (out-of-band updates by a "legacy" principal) occur at seeded
//! times. Detectors:
//!
//! * **scanner** — full List+Read pass every 6 virtual hours;
//! * **log watcher** — polls the activity log every 5 virtual minutes
//!   (log reads are not resource-API calls).
//!
//! Metrics: events detected, mean detection lag, resource API calls burnt.
//!
//! The scanner is [`Scanner`], kept here because no product path scans:
//! `cloudless drift` reads live resources through refresh.

use std::collections::BTreeSet;

use cloudless::cloud::{ApiOp, ApiRequest, Cloud, CloudConfig, OpOutcome, RateLimit};
use cloudless::deploy::Strategy;
use cloudless::diagnose::{DriftEvent, DriftKind, DriftReport, LogWatcher};
use cloudless::state::Snapshot;
use cloudless::types::{Provider, ResourceId, SimDuration, SimTime, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::{f, Table};
use crate::workloads;
use crate::SEED;

const DAY: u64 = 24 * 3_600_000;

/// The driftctl-style baseline: every pass Lists each provider and Reads
/// every managed resource — O(n) rate-limited API calls per pass.
pub struct Scanner;

impl Scanner {
    const PRINCIPAL: &'static str = "drift-scanner";

    /// One full scan pass.
    pub fn scan(&self, cloud: &mut Cloud, state: &Snapshot) -> DriftReport {
        let started = cloud.now();
        let calls_before = cloud.total_api_calls();
        let mut report = DriftReport::default();

        // 1. List every provider.
        let mut live_ids: BTreeSet<ResourceId> = BTreeSet::new();
        for provider in Provider::ALL {
            let list = ApiRequest::new(ApiOp::List { provider }, Self::PRINCIPAL);
            if let Ok(done) = cloud.submit_and_settle(list) {
                if let OpOutcome::Listed { ids } = done.outcome {
                    live_ids.extend(ids);
                }
            }
        }

        // 2. Read every managed resource and compare attributes.
        let listed: Vec<_> = state
            .resources()
            .values()
            .filter(|rec| live_ids.contains(&rec.id)) // the rest are Deleted below
            .collect();
        let reads = listed
            .iter()
            .map(|rec| ApiRequest::new(ApiOp::Read { id: rec.id.clone() }, Self::PRINCIPAL))
            .collect();
        let settled = cloud.settle_batch(reads);
        let finished = cloud.now();
        let event = |kind, addr, id: &ResourceId| DriftEvent {
            kind,
            addr,
            id: id.clone(),
            principal: None, // the scanner cannot attribute drift
            occurred_at: finished,
            detected_at: finished,
        };
        for (rec, done) in listed.into_iter().zip(settled) {
            if let Ok(OpOutcome::ReadOk { attrs, .. }) = done.map(|c| c.outcome) {
                if attrs != rec.attrs {
                    let modified = event(DriftKind::Modified, Some(rec.addr.clone()), &rec.id);
                    report.events.push(modified);
                }
            }
        }

        // 3. Managed-but-gone and live-but-unmanaged.
        for rec in state.resources().values() {
            if !live_ids.contains(&rec.id) {
                let deleted = event(DriftKind::Deleted, Some(rec.addr.clone()), &rec.id);
                report.events.push(deleted);
            }
        }
        for id in &live_ids {
            if state.by_id(id.as_str()).is_none() {
                report.events.push(event(DriftKind::Unmanaged, None, id));
            }
        }

        report.api_calls = cloud.total_api_calls() - calls_before;
        report.duration = finished.since(started);
        report
    }
}

struct Detection {
    detected: usize,
    mean_lag: SimDuration,
    api_calls: u64,
    attributed: usize,
}

fn fleet(n: usize) -> String {
    workloads::wide(n)
}

/// Seeded drift schedule: `events` out-of-band updates spread over the day.
fn drift_times(events: usize, seed: u64) -> Vec<SimTime> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut times: Vec<u64> = (0..events).map(|_| rng.gen_range(0..DAY)).collect();
    times.sort_unstable();
    times.into_iter().map(SimTime).collect()
}

fn run_detector(n: usize, events: usize, use_scanner: bool) -> Detection {
    let mut config = CloudConfig::exact();
    config.rate_limit = Some(RateLimit::standard());
    let (_, mut cloud, state) = super::deploy(
        &fleet(n),
        Strategy::TerraformWalk { parallelism: 10 },
        config,
        SEED,
    );
    let t0 = cloud.now();
    let schedule = drift_times(events, SEED);
    // distinct victims, seeded shuffle (sampling with replacement would
    // conflate "two events on one resource" with a missed detection)
    let mut ids: Vec<_> = state.resources().values().map(|r| r.id.clone()).collect();
    let mut rng = StdRng::seed_from_u64(SEED + 1);
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }

    let mut watcher = LogWatcher::new(["cloudless-engine".to_owned()]).from_now(&cloud);

    let mut next_event = 0usize;
    // ground-truth occurrence time per victim id (the harness knows; the
    // scanner does not — its lag is measured against this truth)
    let mut truth: std::collections::BTreeMap<cloudless::types::ResourceId, SimTime> =
        std::collections::BTreeMap::new();
    let mut detected = Vec::new();
    let mut api_calls = 0u64;
    let mut attributed = 0usize;

    // detector cadence
    let period = if use_scanner {
        SimDuration::from_mins(6 * 60)
    } else {
        SimDuration::from_mins(5)
    };
    let mut tick = t0 + period;
    let end = t0 + SimDuration::from_millis(DAY);
    while tick <= end {
        // inject all drift events that occur before this tick
        while next_event < schedule.len()
            && t0 + SimDuration::from_millis(schedule[next_event].0) <= tick
        {
            let at = t0 + SimDuration::from_millis(schedule[next_event].0);
            cloud.advance_to(at);
            let victim = &ids[next_event % ids.len()];
            let _ = cloud.out_of_band_update(
                "legacy-script",
                victim,
                [(
                    "tags".to_owned(),
                    Value::from(vec![format!("drift-{next_event}")]),
                )]
                .into(),
            );
            truth.entry(victim.clone()).or_insert(at);
            next_event += 1;
        }
        cloud.advance_to(tick);
        let report = if use_scanner {
            // the scanner needs an up-to-date snapshot of what we *believe*;
            // we use the original state (drift means cloud != state)
            Scanner.scan(&mut cloud, &state)
        } else {
            watcher.poll(&cloud, &state)
        };
        api_calls += report.api_calls;
        for ev in report.events {
            if !detected.iter().any(|(id, _)| id == &ev.id) {
                if ev.principal.is_some() {
                    attributed += 1;
                }
                // lag against ground truth, not the detector's own claim
                let lag = truth
                    .get(&ev.id)
                    .map(|t| ev.detected_at.since(*t))
                    .unwrap_or(SimDuration::ZERO);
                detected.push((ev.id.clone(), lag));
            }
        }
        tick = cloud.now().max(tick) + period;
    }

    let mean_lag = if detected.is_empty() {
        SimDuration::ZERO
    } else {
        SimDuration::from_millis(
            detected.iter().map(|(_, lag)| lag.millis()).sum::<u64>() / detected.len() as u64,
        )
    };
    Detection {
        detected: detected.len(),
        mean_lag,
        api_calls,
        attributed,
    }
}

pub fn run() -> String {
    let mut t = Table::new(
        "E5 — drift detection over one virtual day (8 drift events)",
        &[
            "fleet",
            "detector",
            "cadence",
            "detected",
            "mean lag",
            "resource API calls",
            "attributed",
        ],
    );
    for &n in &[50usize, 200] {
        for (name, cadence, scanner) in [
            ("scan (driftctl-style)", "6h", true),
            ("activity log (cloudless)", "5min", false),
        ] {
            let d = run_detector(n, 8, scanner);
            t.row(vec![
                n.to_string(),
                name.to_string(),
                cadence.to_string(),
                format!("{}/8", d.detected),
                d.mean_lag.to_string(),
                f(d.api_calls as f64),
                format!("{}/{}", d.attributed, d.detected),
            ]);
        }
    }
    let mut out = t.render();
    out.push_str(
        "\n(the log watcher attributes every event to its principal; the scanner\n\
         cannot attribute at all, and its API cost scales with fleet size ×\n\
         scan frequency rather than with the number of changes.)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless::types::value::attrs;

    fn deployed() -> (Cloud, Snapshot) {
        let src = r#"
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_s3_bucket" "b" {
  count  = 4
  bucket = "bucket-${count.index}"
}
"#;
        let walk = Strategy::TerraformWalk { parallelism: 10 };
        let (_, cloud, state) = super::super::deploy(src, walk, CloudConfig::exact(), 7);
        (cloud, state)
    }

    #[test]
    fn watcher_detects_all_with_low_lag_and_zero_cost() {
        let d = run_detector(50, 8, false);
        assert_eq!(d.detected, 8);
        assert_eq!(d.api_calls, 0);
        assert!(d.mean_lag <= SimDuration::from_mins(5));
        assert_eq!(d.attributed, 8);
    }

    #[test]
    fn scanner_burns_calls_proportional_to_fleet() {
        let small = run_detector(50, 8, true);
        let large = run_detector(200, 8, true);
        assert!(large.api_calls > 3 * small.api_calls);
        assert_eq!(small.attributed, 0);
        // 6h cadence → worst-case lag 6h, mean around 3h
        assert!(small.mean_lag >= SimDuration::from_mins(30));
    }

    #[test]
    fn scanner_finds_same_drift_at_api_cost() {
        let (mut cloud, state) = deployed();
        let vpc_id = state.get(&"aws_vpc.v".parse().unwrap()).unwrap().id.clone();
        cloud
            .out_of_band_update(
                "legacy-script",
                &vpc_id,
                attrs([("name", Value::from("x"))]),
            )
            .unwrap();
        let r = Scanner.scan(&mut cloud, &state);
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.events[0].kind, DriftKind::Modified);
        // cost: 3 lists + 5 reads
        assert_eq!(r.api_calls, 3 + 5);
        assert!(r.duration.millis() > 0);
        // the scanner cannot attribute drift
        assert!(r.events[0].principal.is_none());
    }

    #[test]
    fn scanner_detects_deletion_and_unmanaged() {
        let (mut cloud, state) = deployed();
        let bucket = state
            .get(&"aws_s3_bucket.b[0]".parse().unwrap())
            .unwrap()
            .id
            .clone();
        cloud.out_of_band_delete("intern", &bucket).unwrap();
        cloud
            .out_of_band_create(
                "intern",
                "aws_s3_bucket",
                "us-east-1",
                attrs([("bucket", Value::from("rogue"))]),
            )
            .unwrap();
        let r = Scanner.scan(&mut cloud, &state);
        assert!(r.events.iter().any(|e| e.kind == DriftKind::Deleted));
        assert!(r.events.iter().any(|e| e.kind == DriftKind::Unmanaged));
    }

    #[test]
    fn watcher_lag_is_poll_interval_scanner_cost_is_linear() {
        // The crux of experiment E5 in miniature.
        let (mut cloud, state) = deployed();
        let mut w = LogWatcher::new(["cloudless-engine".to_owned()]).from_now(&cloud);
        let vpc_id = state.get(&"aws_vpc.v".parse().unwrap()).unwrap().id.clone();
        let t_drift = cloud.now();
        cloud
            .out_of_band_update("legacy", &vpc_id, attrs([("name", Value::from("x"))]))
            .unwrap();
        // poll 30 virtual seconds later
        cloud.advance_to(t_drift + SimDuration::from_secs(30));
        let r = w.poll(&cloud, &state);
        assert_eq!(r.events[0].lag().millis(), 30_000);
        assert_eq!(r.api_calls, 0);
        // the scanner burns API calls proportional to fleet size
        let scan = Scanner.scan(&mut cloud, &state);
        assert!(scan.api_calls >= state.len() as u64);
    }
}
