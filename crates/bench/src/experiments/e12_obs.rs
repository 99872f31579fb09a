//! E12 — flight-recorder overhead on the random-200 apply.
//!
//! Claim operationalized: observability must be cheap enough to leave on.
//! The recorder must not perturb the simulation — the virtual makespan of
//! an apply has to be byte-identical with the recorder off (the default
//! [`NullRecorder`]) and on (a [`FlightRecorder`] capturing every span,
//! instant, and metric). This table shows both runs side by side plus the
//! volume the recorder absorbed; the virtual delta is the determinism
//! guarantee, and it is exactly 0.
//!
//! Wall-clock cost (events/sec, ns/event, real-time makespan delta) is
//! inherently machine-dependent, so it lives in `exp obs` via
//! [`overhead`] and is quoted indicatively in EXPERIMENTS.md rather than
//! snapshot-checked.

use std::sync::Arc;

use cloudless::cloud::CloudConfig;
use cloudless::deploy::resolver::DataResolver;
use cloudless::deploy::{diff, ApplyReport, Executor, Plan, Strategy};
use cloudless::obs::{FlightRecorder, NullRecorder, Recorder};
use cloudless::state::Snapshot;

use crate::table::Table;
use crate::workloads;
use crate::SEED;

const STRATEGY: Strategy = Strategy::CriticalPath { max_in_flight: 64 };

/// Deploy `src` from scratch with the given recorder wired into both the
/// cloud and the executor.
fn recorded_apply(src: &str, recorder: Arc<dyn Recorder>) -> ApplyReport {
    let m = super::manifest_of(src);
    let mut cloud = super::experiment_cloud(CloudConfig::exact(), SEED);
    cloud.set_recorder(Arc::clone(&recorder));
    let catalog = cloud.catalog().clone();
    let data = DataResolver::new();
    let mut state = Snapshot::new();
    let plan = Plan::build(diff(&m, &state, &catalog, &data), &state, &catalog);
    let exec = Executor::new(STRATEGY, &data).with_recorder(recorder);
    let report = exec.apply(&plan, &mut cloud, &mut state);
    assert!(report.all_ok(), "workload must deploy cleanly");
    report
}

pub fn run() -> String {
    let src = workloads::random_dag(200, SEED);

    let off = recorded_apply(&src, Arc::new(NullRecorder));
    let rec = FlightRecorder::shared(cloudless::obs::recorder::DEFAULT_CAPACITY);
    let on = recorded_apply(&src, rec.clone());

    let mut t = Table::new(
        "E12 — flight recorder on the random-200 apply (virtual clock)",
        &[
            "recorder",
            "makespan",
            "ops",
            "events",
            "dropped",
            "events/op",
        ],
    );
    t.row(vec![
        "off (NullRecorder)".to_string(),
        off.makespan().to_string(),
        off.ops_submitted.to_string(),
        "0".to_string(),
        "0".to_string(),
        "-".to_string(),
    ]);
    let events = rec.total_recorded();
    t.row(vec![
        "on (FlightRecorder)".to_string(),
        on.makespan().to_string(),
        on.ops_submitted.to_string(),
        events.to_string(),
        rec.dropped().to_string(),
        format!("{:.1}", events as f64 / on.ops_submitted.max(1) as f64),
    ]);
    let mut out = t.render();
    out.push_str(&format!(
        "virtual makespan delta: {} (recorder emission never touches the sim clock)\n",
        if on.makespan() == off.makespan() {
            "+0.0%"
        } else {
            "NONZERO — determinism violated"
        }
    ));

    // a deterministic slice of the metrics registry the run populated
    let m = rec.metrics().expect("flight recorder keeps metrics");
    let mut t2 = Table::new(
        "E12b — metrics registry after the instrumented apply",
        &["counter", "value"],
    );
    for name in [
        "cloud.ops_submitted",
        "cloud.ops_ok",
        "cloud.ops_failed",
        "deploy.nodes_ok",
        "deploy.retries",
    ] {
        t2.row(vec![name.to_string(), m.counter(name).to_string()]);
    }
    out.push('\n');
    out.push_str(&t2.render());
    out.push_str(
        "(wall-clock cost — events/sec, ns/event — is machine-dependent;\n\
         run `cargo run --release -p cloudless-bench --bin exp obs`.)\n",
    );
    out
}

/// Wall-clock overhead measurement for `exp obs`. Not part of
/// the snapshot-checked output.
pub fn overhead() -> String {
    let src = workloads::random_dag(200, SEED);
    const ROUNDS: u32 = 5;

    let time = |recorder: &dyn Fn() -> Arc<dyn Recorder>| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..ROUNDS {
            let t0 = std::time::Instant::now();
            recorded_apply(&src, recorder());
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    let off_s = time(&|| Arc::new(NullRecorder));
    let on_s = time(&|| FlightRecorder::shared(cloudless::obs::recorder::DEFAULT_CAPACITY));

    let rec = FlightRecorder::shared(cloudless::obs::recorder::DEFAULT_CAPACITY);
    recorded_apply(&src, rec.clone());
    let events = rec.total_recorded();

    let overhead_pct = (on_s - off_s) / off_s * 100.0;
    let ns_per_event = (on_s - off_s).max(0.0) * 1e9 / events as f64;
    let mut t = Table::new(
        "E12w — recorder wall-clock overhead (best of 5, this machine)",
        &["metric", "value"],
    );
    t.row(vec![
        "apply wall time, recorder off".into(),
        format!("{:.1} ms", off_s * 1e3),
    ]);
    t.row(vec![
        "apply wall time, recorder on".into(),
        format!("{:.1} ms", on_s * 1e3),
    ]);
    t.row(vec!["events recorded".into(), events.to_string()]);
    t.row(vec![
        "events/sec (on-run)".into(),
        format!("{:.0}", events as f64 / on_s),
    ]);
    t.row(vec![
        "marginal cost".into(),
        format!("{ns_per_event:.0} ns/event"),
    ]);
    t.row(vec![
        "makespan overhead".into(),
        format!("{overhead_pct:+.1}%"),
    ]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_does_not_perturb_virtual_time() {
        let src = workloads::random_dag(60, SEED);
        let off = recorded_apply(&src, Arc::new(NullRecorder));
        let rec = FlightRecorder::shared(1 << 16);
        let on = recorded_apply(&src, rec.clone());
        assert_eq!(off.makespan(), on.makespan());
        assert_eq!(off.ops_submitted, on.ops_submitted);
        assert!(rec.total_recorded() > 0);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn table_renders_and_reports_zero_delta() {
        let s = run();
        assert!(s.contains("E12"));
        assert!(s.contains("+0.0%"));
        assert!(!s.contains("NONZERO"));
    }
}
