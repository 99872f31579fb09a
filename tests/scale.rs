//! Scale regression guard: the random-10k workload must run through the
//! whole pipeline (generate, parse+expand, diff, plan, schedule, apply)
//! within a generous wall-clock budget.
//!
//! The budget is deliberately loose — tier-1 tests may run unoptimized and
//! on shared hardware — but it is tight enough to catch a reintroduced
//! quadratic hot path: before the O(V+E) plan/schedule/apply rework, the
//! 10k pipeline was over an order of magnitude slower than it is now, and
//! any O(n^2) stage blows well past this limit at n = 10_000.
//!
//! Precise trajectory tracking lives in `BENCH_*.json` (E14, release-only,
//! checked by `scripts/check_bench.sh`); this test is only a coarse
//! backstop that runs with the regular suite.
//!
//! The drift classifier gets a host-independent guard instead of a budget:
//! its time at 4× the blocks over its time at 1×, which is 4 for one
//! grouping pass and 16 for a scan of the manifest per block. So does the
//! structural splice: a block inserted into or deleted from a warm memo
//! over its program's cold run, which is a few percent when the splice
//! renumbers integers and at least 1 when it re-derives the world.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cloudless::obs::{NullRecorder, Recorder};
use cloudless::pipeline::{IncrementalPipeline, PipelineCtx};
use cloudless::{Cloudless, Config, LintGate};
use cloudless_bench::experiments::{e14_scale, quota_raised_catalog};
use cloudless_bench::workloads::random_layered;
use cloudless_cloud::{Catalog, CloudConfig};
use cloudless_deploy::full_refresh;
use cloudless_deploy::resolver::DataResolver;
use cloudless_diagnose::reconcile::classify;
use cloudless_diagnose::LogWatcher;
use cloudless_hcl::program::{expand, ModuleLibrary, Program};
use cloudless_state::{DeployedResource, Snapshot};
use cloudless_types::{Region, ResourceId, SimTime, Value};
use cloudless_validate::ValidationLevel;

#[test]
fn random_10k_pipeline_within_wall_budget() {
    // Debug builds are roughly 10-20x slower than release; the release
    // pipeline finishes in ~0.2s, so 120s leaves two orders of magnitude
    // of headroom while still failing fast on quadratic behavior.
    let budget = Duration::from_secs(120);
    let start = Instant::now();
    let point = e14_scale::measure("random-10k", 10_000, 1);
    let elapsed = start.elapsed();

    assert_eq!(point.nodes, 10_000, "workload should expand to 10k nodes");
    assert!(point.edges > 0, "workload should have dependency edges");
    assert!(point.waves > 0, "schedule should produce waves");
    assert!(
        elapsed < budget,
        "random-10k pipeline took {elapsed:?}, over the {budget:?} budget; \
         stage millis: {:?}",
        point.millis
    );
}

/// Median wall time of three `classify` runs over a drifted estate of
/// `blocks` layered singletons plus a `count` fleet and a `for_each` set of
/// `blocks / 8` instances each.
fn classify_millis(blocks: usize) -> f64 {
    let fleet = blocks / 8;
    let keys: Vec<String> = (0..fleet).map(|k| format!("\"k{k}\"")).collect();
    let source = format!(
        "{}resource \"aws_s3_bucket\" \"fleet\" {{\n  count = {fleet}\n  bucket = \"fleet-${{count.index}}\"\n}}\n\
         resource \"aws_s3_bucket\" \"set\" {{\n  for_each = [{}]\n  bucket = \"set-${{each.key}}\"\n}}\n",
        random_layered(blocks, 7),
        keys.join(", ")
    );
    let program = Program::from_file(cloudless_hcl::parse(&source, "main.tf").unwrap()).unwrap();
    let data = DataResolver::new();
    let manifest = expand(&program, &BTreeMap::new(), &ModuleLibrary::new(), &data).unwrap();
    assert_eq!(manifest.instances.len(), blocks + 2 * fleet);

    // the state a converge would have left, then drift: every 7th instance
    // deleted out of band, every 11th with an attribute changed
    let mut state = Snapshot::new();
    for (i, inst) in manifest.instances.iter().enumerate() {
        if i % 7 == 3 {
            continue;
        }
        let mut attrs = inst.attrs.clone();
        if i % 11 == 5 {
            if let Some(value) = attrs.values_mut().next() {
                *value = Value::from("drifted");
            }
        }
        state.put(DeployedResource {
            addr: inst.addr.clone(),
            id: ResourceId::new(format!("id-{i}")),
            rtype: inst.addr.rtype.clone(),
            region: Region::new("us-east-1"),
            attrs,
            depends_on: Vec::new(),
            created_at: SimTime::default(),
        });
    }

    let (records, catalog) = (BTreeMap::new(), Catalog::standard());
    let mut millis: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let plan = classify(&program, &manifest, &state, &records, &catalog);
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            assert!(plan.ops.len() > blocks / 10, "the drift must classify");
            assert!(!plan.moves.is_empty() && !plan.overwrites.is_empty());
            elapsed
        })
        .collect();
    millis.sort_by(f64::total_cmp);
    millis[1]
}

#[test]
fn classify_grows_linearly_in_blocks() {
    let n = 2_000;
    let (small, large) = (classify_millis(n), classify_millis(4 * n));
    let ratio = large / small;
    assert!(
        ratio < 8.0,
        "classify took {small:.2} ms at {n} blocks and {large:.2} ms at {} ({ratio:.1}x): \
         linear is 4x, a per-block scan of the manifest 16x",
        4 * n
    );
}

#[test]
fn a_structural_save_replans_in_a_fraction_of_a_cold_run() {
    let blocks = 8_000;
    let base = random_layered(blocks, 7);
    // quotas out of the way: VAL307 would refuse the program
    let catalog = quota_raised_catalog();
    let (inputs, modules, data) = (BTreeMap::new(), ModuleLibrary::new(), DataResolver::new());
    let (state, recorder) = (Snapshot::new(), Arc::new(NullRecorder) as Arc<dyn Recorder>);
    let ctx = PipelineCtx {
        inputs: &inputs,
        modules: &modules,
        lint: LintGate::default(),
        level: ValidationLevel::CloudRules,
        data: &data,
        catalog: &catalog,
        state: &state,
        miner: None,
        recorder: &recorder,
    };
    let median = |mut millis: Vec<f64>| {
        millis.sort_by(f64::total_cmp);
        millis[millis.len() / 2]
    };
    let timed = |pipe: &mut IncrementalPipeline, source: &str, fast: bool| {
        let start = Instant::now();
        let out = pipe.run(source, &ctx).unwrap_or_else(|_| panic!("clean"));
        assert_eq!(out.trace.fast_path, fast, "{}", out.trace);
        start.elapsed().as_secs_f64() * 1e3
    };
    let colds = (0..3).map(|_| timed(&mut IncrementalPipeline::default(), &base, false));
    let cold = median(colds.collect());

    // one warm memo; each insert is followed by the delete that undoes it
    let extra = "resource \"aws_s3_bucket\" \"extra\" {\n  bucket = \"extra\"\n}\n";
    let label = format!("\"r{}\" {{", blocks / 2);
    let middle = base.find(&label).expect("the middle block is there");
    let middle = base[..middle]
        .rfind("resource ")
        .expect("and so is its head");
    let appended = format!("{base}{extra}");
    let inserted = format!("{}{extra}{}", &base[..middle], &base[middle..]);
    let mut warm = IncrementalPipeline::default();
    timed(&mut warm, &base, false);
    for (shape, grown) in [
        ("a tail append", &appended),
        ("a mid-file insert", &inserted),
    ] {
        let mut saves = (Vec::new(), Vec::new());
        for _ in 0..3 {
            saves.0.push(timed(&mut warm, grown, true));
            saves.1.push(timed(&mut warm, &base, true));
        }
        for (what, millis) in [
            (shape, median(saves.0)),
            ("the matching delete", median(saves.1)),
        ] {
            assert!(
                millis * 4.0 <= cold,
                "{what} took {millis:.2} ms on a warm memo against {cold:.2} ms for a cold run \
                 of the same {blocks} blocks: a splice is O(edit) plus one integer renumbering"
            );
        }
    }
}

/// Exact latencies, no faults, quotas out of the way: the scale estates
/// exceed the per-type defaults on purpose.
fn exact_unmetered() -> Config {
    Config {
        cloud: CloudConfig {
            catalog: quota_raised_catalog(),
            ..CloudConfig::exact()
        },
        ..Config::default()
    }
}

/// A converged layered estate of `instances` resources, as a timer: each
/// call is the median wall time of three `full_refresh` passes over it.
fn full_refresh_timer(instances: usize) -> impl FnMut() -> f64 {
    let mut engine = Cloudless::new(exact_unmetered());
    let applied = engine.converge(&random_layered(instances, 7));
    assert!(applied.expect("the estate converges").apply.all_ok());
    let state = engine.state().clone();
    move || {
        let mut millis: Vec<f64> = (0..3)
            .map(|_| {
                let mut state = state.clone();
                let start = Instant::now();
                let report = full_refresh(engine.cloud_mut(), &mut state, "refresher");
                let elapsed = start.elapsed().as_secs_f64() * 1e3;
                assert_eq!(report.reads, instances as u64);
                assert!(report.updated.is_empty() && report.missing.is_empty());
                elapsed
            })
            .collect();
        millis.sort_by(f64::total_cmp);
        millis[1]
    }
}

/// One read per resource, each completion looked up once: 4x the estate is
/// 4x the reads and about 5x the time (ordered maps, a heap, a larger working
/// set). Looking every completion up by a scan of them all, as the refresh
/// and the drift scan did, is 16x. A busy host inflates one reading, not
/// three in a row, so the guard takes the best of three.
#[test]
fn full_refresh_grows_linearly_in_instances() {
    let n = 2_000;
    let (mut small, mut large) = (full_refresh_timer(n), full_refresh_timer(4 * n));
    let ratios: Vec<f64> = (0..3).map(|_| large() / small()).collect();
    assert!(
        ratios.iter().any(|ratio| *ratio < 6.0),
        "full_refresh at {} instances over {n} took {ratios:.1?} times as long",
        4 * n
    );
}

/// A converged layered estate of `instances` resources, `events` of them
/// updated out of band, as a timer: each call is the fastest of five polls
/// of the whole activity log by a fresh watcher.
fn watch_drift_timer(instances: usize, events: usize) -> impl FnMut() -> f64 {
    let mut engine = Cloudless::new(exact_unmetered());
    let applied = engine.converge(&random_layered(instances, 7));
    assert!(applied.expect("the estate converges").apply.all_ok());
    let state = engine.state().clone();
    let drifted = state.resources.values().step_by(instances / events);
    for r in drifted.take(events) {
        let tags = [("tags".to_owned(), Value::from("drifted"))].into();
        let updated = engine.cloud_mut().out_of_band_update("intern", &r.id, tags);
        updated.expect("the resource is live");
    }
    move || {
        let polls = (0..5).map(|_| {
            let mut watcher = LogWatcher::new([Config::default().principal]);
            let start = Instant::now();
            let report = watcher.poll(engine.cloud(), &state);
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(report.events.len(), events);
            elapsed
        });
        polls.fold(f64::INFINITY, f64::min)
    }
}

/// A poll classifies each event against one id index of the world: 10x the
/// estate and 10x the events is 10x the work and a little more (measured
/// 10.5–11.7x, debug and release). Finding each event's resource by a scan
/// of the world is 100x and more (240–300x from 1 000 to 10 000). The small
/// estate is already several megabytes: from one that fits a core's cache
/// to one that does not, the one walk of the world alone costs 30x. Best
/// of three, as above.
#[test]
fn watch_drift_grows_linearly_in_events_and_instances() {
    let (n, e) = (3_000, 300);
    let (mut small, mut large) = (watch_drift_timer(n, e), watch_drift_timer(10 * n, 10 * e));
    let ratios: Vec<f64> = (0..3).map(|_| large() / small()).collect();
    assert!(
        ratios.iter().any(|ratio| *ratio <= 15.0),
        "a poll of {} events over {} instances took {ratios:.1?} times one of {e} over {n}",
        10 * e,
        10 * n
    );
}

/// `converge(layered(blocks))`, then `converge("")` — destroy is the apply
/// of the empty program — in the engine that built the estate and in a second
/// one over its state and cloud records, as a fresh CLI process would hold
/// them: nothing fails, nothing is retried, nothing is left in state or cloud.
fn destroy_leaves_nothing(blocks: usize) {
    let config = exact_unmetered;
    let mut built = Cloudless::new(config());
    let applied = built.converge(&random_layered(blocks, 42));
    assert!(applied.expect("the estate converges").apply.all_ok());
    assert_eq!(built.state().len(), blocks);
    let (state, records) = (built.state().clone(), built.cloud().records().clone());
    let reloaded = Cloudless::with_session(config(), state, records);
    for (mut engine, how) in [
        (built, "in the engine that built it"),
        (reloaded, "across a session reload"),
    ] {
        let destroyed = engine.converge("").expect("destroy is admitted").apply;
        assert_eq!(
            (
                destroyed.ops_submitted,
                destroyed.failures(),
                destroyed.skips(),
                destroyed.retries
            ),
            (blocks as u64, 0, 0, 0),
            "destroying {blocks} blocks {how}"
        );
        assert_eq!(
            (engine.state().len(), engine.cloud().records().len()),
            (0, 0),
            "destroying {blocks} blocks {how}"
        );
    }
}

/// PR 11 saw `destroy` of the 10 000-block layered estate leave 5 302
/// resources behind (5 000 and 20 000 were clean). It no longer does; this
/// is the default-run size, the next test the one that failed.
#[test]
fn destroy_of_a_layered_estate_leaves_nothing_behind() {
    destroy_leaves_nothing(2_000);
}

/// Release only: `cargo test --release --test scale -- --ignored`.
#[test]
#[ignore]
fn destroy_of_the_10k_layered_estate_leaves_nothing_behind() {
    destroy_leaves_nothing(10_000);
}
