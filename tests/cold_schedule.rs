//! Every all-blocks walk of the front end runs two joins when the host
//! gives the process a second core — lint beside expand, validate and
//! analyze beside the plan (`cloudless_types::join`) — and one thread
//! otherwise, whether or not it holds the memo of an earlier save. Either
//! way a caller sees the same run: the same output, and the same calls to
//! its recorder in the same order, all made on the caller's thread.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use cloudless::obs::{Event, FlightRecorder, MetricsSnapshot, Recorder, SpanId};
use cloudless::pipeline::{FrontendOutput, IncrementalPipeline, PipelineCtx};
use cloudless::LintGate;
use cloudless_bench::experiments::quota_raised_catalog;
use cloudless_bench::workloads::random_layered;
use cloudless_deploy::resolver::DataResolver;
use cloudless_hcl::program::ModuleLibrary;
use cloudless_state::Snapshot;
use cloudless_types::join::helpers_spawned;
use cloudless_validate::ValidationLevel;

/// A flight recorder that also keeps every call made to it, in order, with
/// the one value a clock decides (`analyze.wall_us`) masked.
#[derive(Default)]
struct Calls {
    flight: FlightRecorder,
    calls: Mutex<Vec<String>>,
}

impl Calls {
    fn note(&self, call: String) {
        self.calls.lock().expect("no call panics").push(call);
    }

    /// The calls, the events without their stamps, and the counters but the
    /// clock's.
    fn heard(&self) -> (Vec<String>, Vec<Event>, MetricsSnapshot) {
        let calls = self.calls.lock().expect("no call panics").clone();
        let unstamped = |event: Event| Event {
            seq: 0,
            wall_ns: 0,
            ..event
        };
        let events = self.flight.events().into_iter().map(unstamped).collect();
        let mut metrics = self.flight.metrics().unwrap_or_default();
        metrics
            .counters
            .retain(|(name, _)| name != "analyze.wall_us");
        (calls, events, metrics)
    }
}

impl Recorder for Calls {
    fn enabled(&self) -> bool {
        true
    }

    fn next_span(&self) -> SpanId {
        self.note("span".to_owned());
        self.flight.next_span()
    }

    fn record(&self, event: Event) {
        self.note(format!("event {} {}", event.component, event.name));
        self.flight.record(event);
    }

    fn counter(&self, name: &'static str, delta: u64) {
        let delta = if name == "analyze.wall_us" { 0 } else { delta };
        self.note(format!("counter {name} {delta}"));
        self.flight.counter(name, delta);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.note(format!("gauge {name} {value}"));
        self.flight.gauge(name, value);
    }

    fn observe(&self, name: &'static str, value: f64) {
        self.note(format!("observe {name} {value}"));
        self.flight.observe(name, value);
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        self.flight.metrics()
    }
}

/// Everything a caller can read off a run but the fallback reason, which
/// names the schedule's cause.
fn observed(out: &FrontendOutput) -> String {
    let mut seen = format!("{}\n{:?}\n", out.plan_text, out.trace.stages);
    for inst in &out.manifest.instances {
        seen.push_str(&format!(
            "{} {:?} {:?}\n",
            inst.addr, inst.attrs, inst.depends_on
        ));
    }
    seen.push_str(&format!(
        "{:?}\n{}",
        out.changes.len(),
        out.validation.diagnostics
    ));
    seen
}

/// The helpers `join` spawned while `f` ran, checked against the cores the
/// host gives the process: two joins on two cores, no thread on one.
fn joined<T>(walk: &str, f: impl FnOnce() -> T) -> T {
    let spawned = helpers_spawned();
    let out = f();
    let helpers = helpers_spawned() - spawned;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("{cores} core(s): the {walk} spawned {helpers} helper(s)");
    if cores > 1 {
        assert!(helpers >= 2, "{walk}: two joins, {helpers} helper(s)");
    } else {
        assert_eq!(helpers, 0, "{walk}: one core spawns no thread");
    }
    out
}

#[test]
fn a_walk_that_holds_a_memo_is_a_joined_cold_start() {
    let source = random_layered(10_000, 42);
    // quotas out of the way: VAL307 would refuse the program
    let catalog = quota_raised_catalog();
    let (inputs, modules, data) = (BTreeMap::new(), ModuleLibrary::new(), DataResolver::new());
    let state = Snapshot::new();
    let run = |pipe: &mut IncrementalPipeline, source: &str, recorder: &Arc<dyn Recorder>| {
        let ctx = PipelineCtx {
            inputs: &inputs,
            modules: &modules,
            lint: LintGate::default(),
            level: ValidationLevel::CloudRules,
            data: &data,
            catalog: &catalog,
            state: &state,
            miner: None,
            recorder,
        };
        pipe.run(source, &ctx)
            .unwrap_or_else(|_| panic!("the program is clean"))
    };
    let output =
        |value: &str| format!("{source}output \"schedule\" {{\n  value = \"{value}\"\n}}\n");
    let measured = output("measured");

    // an all-blocks walk that holds the memo of an earlier save
    let mut held = IncrementalPipeline::default();
    let quiet = Arc::new(Calls::default()) as Arc<dyn Recorder>;
    run(&mut held, &output("primed"), &quiet);
    let told_held = Arc::new(Calls::default());
    let recorder = Arc::clone(&told_held) as Arc<dyn Recorder>;
    let walked = joined("walk that holds a memo", || {
        run(&mut held, &measured, &recorder)
    });
    let reason = walked.trace.fallback_reason.as_deref().unwrap_or("");
    assert!(reason.contains("non-resource"), "{reason}");

    // a cold start
    let told_cold = Arc::new(Calls::default());
    let recorder = Arc::clone(&told_cold) as Arc<dyn Recorder>;
    let mut fresh = IncrementalPipeline::default();
    let cold = joined("cold start", || run(&mut fresh, &measured, &recorder));
    let reason = cold.trace.fallback_reason.as_deref().unwrap_or("");
    assert!(reason.contains("no memo"), "{reason}");

    assert_eq!(observed(&cold), observed(&walked));
    assert!(held.is_warm() && fresh.is_warm());
    let (cold, held) = (told_cold.heard(), told_held.heard());
    assert!(!cold.0.is_empty(), "the run counts what it did");
    assert_eq!(cold, held);
}
