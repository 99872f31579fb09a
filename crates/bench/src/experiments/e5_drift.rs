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

use cloudless::cloud::{CloudConfig, RateLimit};
use cloudless::deploy::Strategy;
use cloudless::diagnose::{LogWatcher, Scanner};
use cloudless::types::{SimDuration, SimTime, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::{f, Table};
use crate::workloads;
use crate::SEED;

const DAY: u64 = 24 * 3_600_000;

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
    let scanner = Scanner::new();

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
            scanner.scan(&mut cloud, &state)
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
}
