//! Scale regression guards that count work instead of timing it, so they
//! fail the same way on every host.
//!
//! The random-10k workload runs through the whole pipeline (generate,
//! parse+expand, diff, plan, schedule, apply) and keeps its shape; its
//! allocations per decade are `alloc_budget.rs`'s gate, and its times are
//! `BENCH_*.json`'s (E14, release-only, checked by `scripts/check_bench.sh`).
//!
//! The drift classifier and the full refresh are held to allocations linear
//! in the estate: 4x the blocks is about 4x the allocations, and a pass that
//! builds something per block over all of them is 16x. A quadratic walk
//! that allocates nothing is invisible to a count; their wall-time ratios
//! are the `#[ignore]`d `*_time_*` tests, run in release by CI. A
//! structural save — a block inserted into or deleted from a warm memo —
//! asks the heap for a small fraction of what the program's cold run does,
//! and its trace puts one block in scope.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use cloudless::obs::{NullRecorder, Recorder};
use cloudless::pipeline::{IncrementalPipeline, PipelineCtx};
use cloudless::{Cloudless, Config, LintGate};
use cloudless_bench::experiments::{e14_scale, quota_raised_catalog};
use cloudless_bench::workloads::random_layered;
use cloudless_cloud::{Catalog, CloudConfig};
use cloudless_deploy::full_refresh;
use cloudless_deploy::resolver::DataResolver;
use cloudless_diagnose::reconcile::{classify, ReconcilePlan};
use cloudless_hcl::program::{expand, Manifest, ModuleLibrary, Program};
use cloudless_state::{DeployedResource, Snapshot};
use cloudless_types::{Region, ResourceId, SimTime, Value};
use cloudless_validate::ValidationLevel;

mod counting;
use counting::counted;

/// The 10k pipeline end to end, held to its shape; its allocations and its
/// times are gated elsewhere (see the module docs).
#[test]
fn random_10k_pipeline_within_wall_budget() {
    let _serial = counting::serial();
    let point = e14_scale::measure("random-10k", 10_000, 1);
    assert_eq!(point.nodes, 10_000, "workload should expand to 10k nodes");
    assert!(point.edges > 0, "workload should have dependency edges");
    assert!(point.waves > 0, "schedule should produce waves");
}

/// A drifted estate of `blocks` layered singletons plus a `count` fleet and
/// a `for_each` set of `blocks / 8` instances each, as `classify` takes it.
struct Drifted {
    program: Program,
    manifest: Manifest,
    state: Snapshot,
}

impl Drifted {
    fn new(blocks: usize) -> Drifted {
        let fleet = blocks / 8;
        let keys: Vec<String> = (0..fleet).map(|k| format!("\"k{k}\"")).collect();
        let source = format!(
            "{}resource \"aws_s3_bucket\" \"fleet\" {{\n  count = {fleet}\n  bucket = \"fleet-${{count.index}}\"\n}}\n\
             resource \"aws_s3_bucket\" \"set\" {{\n  for_each = [{}]\n  bucket = \"set-${{each.key}}\"\n}}\n",
            random_layered(blocks, 7),
            keys.join(", ")
        );
        let program =
            Program::from_file(cloudless_hcl::parse(&source, "main.tf").unwrap()).unwrap();
        let data = DataResolver::new();
        let manifest = expand(&program, &BTreeMap::new(), &ModuleLibrary::new(), &data).unwrap();
        assert_eq!(manifest.instances.len(), blocks + 2 * fleet);

        // the state a converge would have left, then drift: every 7th
        // instance deleted out of band, every 11th with an attribute changed
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
        Drifted {
            program,
            manifest,
            state,
        }
    }

    fn classify(&self) -> ReconcilePlan {
        let (records, catalog) = (BTreeMap::new(), Catalog::standard());
        let plan = classify(
            &self.program,
            &self.manifest,
            &self.state,
            &records,
            &catalog,
        );
        let blocks = self.program.resources.len() - 2;
        assert!(plan.ops.len() > blocks / 10, "the drift must classify");
        assert!(!plan.moves.is_empty() && !plan.overwrites.is_empty());
        plan
    }
}

/// Allocations of one `classify`: 4x the blocks is 4x and a little more
/// (maps and vectors double as they grow); a pass that builds something
/// per block over the manifest is 16x.
#[test]
fn classify_grows_linearly_in_blocks() {
    let _serial = counting::serial();
    let n = 2_000;
    let tally = |blocks| {
        let drifted = Drifted::new(blocks);
        counted(|| drifted.classify()).1
    };
    let (small, large) = (tally(n), tally(4 * n));
    let ratio = large.allocs as f64 / small.allocs as f64;
    println!("classify at {n} / {} blocks: {small:?} / {large:?}", 4 * n);
    assert!(
        ratio < 4.5,
        "classify made {ratio:.2}x the allocations at 4x the blocks: {small:?} → {large:?}"
    );
}

/// Median wall time of three `classify` runs over [`Drifted`].
fn classify_millis(blocks: usize) -> f64 {
    let drifted = Drifted::new(blocks);
    let mut millis: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            drifted.classify();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    millis.sort_by(f64::total_cmp);
    millis[1]
}

/// The wall-time backstop of `classify_grows_linearly_in_blocks`: its time
/// at 4x the blocks over its time at 1x, which is 4 for one grouping pass
/// and 16 for a scan of the manifest per block. It depends on the host's
/// caches and load, so it is `#[ignore]`d and run in release by CI:
/// `cargo test --release --test scale -- --ignored`.
#[test]
#[ignore = "wall-time ratio: run in release"]
fn classify_time_grows_linearly_in_blocks() {
    let _serial = counting::serial();
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

/// `k`, `n` and what the shape adds of a warm run's `k of n block(s) in
/// scope[, +a inserted, −r removed]`.
fn in_scope(detail: &str) -> (usize, usize, String) {
    let (counts, shape) = detail
        .split_once(" block(s) in scope")
        .unwrap_or_else(|| panic!("a warm run says what it had in scope: {detail:?}"));
    let (k, n) = counts.split_once(" of ").expect("k of n");
    let count = |text: &str| text.parse().expect("a count");
    (count(k), count(n), shape.to_owned())
}

/// A block inserted into, or deleted from, a warm memo of 8 000 blocks: the
/// trace puts the one block in scope, and the save asks the heap for at
/// most a quarter of what the program's cold run does. Measured when the
/// gate was set: 44 241–44 280 allocations a save against 475 252 for the
/// cold run, 9.3 %, so the bound has a 2.7x margin; a splice that
/// re-derives the world is the whole cold run.
#[test]
fn a_structural_save_replans_in_a_fraction_of_a_cold_run() {
    let _serial = counting::serial();
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
    // the run's allocations and, warm, the parse stage's scope
    let run = |pipe: &mut IncrementalPipeline, source: &str, fast: bool| {
        let (out, tally) = counted(|| pipe.run(source, &ctx));
        let out = out.unwrap_or_else(|_| panic!("clean"));
        assert_eq!(out.trace.fast_path, fast, "{}", out.trace);
        let parse = out.trace.stages.iter().find(|s| s.stage == "parse");
        (tally, parse.map(|s| s.detail.clone()).unwrap_or_default())
    };
    let (cold, _) = run(&mut IncrementalPipeline::default(), &base, false);

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
    run(&mut warm, &base, false);
    for (shape, grown) in [
        ("a tail append", &appended),
        ("a mid-file insert", &inserted),
    ] {
        for (what, source, scope) in [
            (shape, grown, (1, blocks + 1, ", +1 inserted, −0 removed")),
            (
                "the matching delete",
                &base,
                (1, blocks, ", +0 inserted, −1 removed"),
            ),
        ] {
            let (save, detail) = run(&mut warm, source, true);
            println!("{what}: {save:?} against a cold run's {cold:?}: {detail}");
            let (k, n, resized) = in_scope(&detail);
            assert_eq!((k, n, resized.as_str()), scope, "{what}: {detail}");
            assert!(
                save.allocs * 4 <= cold.allocs,
                "{what} made {} allocations on a warm memo against {} for a cold run of the \
                 same {blocks} blocks: a splice is O(edit) plus one integer renumbering",
                save.allocs,
                cold.allocs
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

/// A converged layered estate of `instances` resources, and a refresh of
/// it: each call is one `full_refresh` pass over a copy of its state, run
/// inside `measure` (a count or a clock), and what `measure` returned.
fn full_refresh_pass<T>(
    instances: usize,
    measure: impl Fn(&mut dyn FnMut()) -> T,
) -> impl FnMut() -> T {
    let mut engine = Cloudless::new(exact_unmetered());
    let applied = engine.converge(&random_layered(instances, 7));
    assert!(applied.expect("the estate converges").apply.all_ok());
    let state = engine.state().clone();
    move || {
        let (mut state, mut report) = (state.clone(), None);
        let measured = measure(&mut || {
            report = Some(full_refresh(engine.cloud_mut(), &mut state, "refresher"));
        });
        let report = report.expect("the pass ran");
        assert_eq!(report.reads, instances as u64);
        assert!(report.updated.is_empty() && report.missing.is_empty());
        measured
    }
}

/// One read per resource, each completion looked up once: 4x the estate is
/// 4x the reads and about 4x the allocations. Looking every completion up
/// by a scan that collects them, or building a per-resource index of the
/// world per read, is 16x.
#[test]
fn full_refresh_grows_linearly_in_instances() {
    let _serial = counting::serial();
    let n = 2_000;
    let tally = |instances| full_refresh_pass(instances, |pass| counted(pass).1)();
    let (small, large) = (tally(n), tally(4 * n));
    let ratio = large.allocs as f64 / small.allocs as f64;
    println!(
        "full_refresh at {n} / {} instances: {small:?} / {large:?}",
        4 * n
    );
    assert!(
        ratio < 4.5,
        "full_refresh made {ratio:.2}x the allocations at 4x the instances: {small:?} → {large:?}"
    );
}

/// The wall-time backstop of `full_refresh_grows_linearly_in_instances`:
/// about 5x the time at 4x the estate (ordered maps, a heap, a larger
/// working set), where a scan of every completion per completion, as the
/// refresh and the drift scan once did, is 16x. A busy host inflates one
/// reading, not three in a row, so it takes the best of three ratios of
/// medians of three. It depends on the host's caches and load, so it is
/// `#[ignore]`d and run in release by CI: `cargo test --release --test
/// scale -- --ignored`.
#[test]
#[ignore = "wall-time ratio: run in release"]
fn full_refresh_time_grows_linearly_in_instances() {
    let _serial = counting::serial();
    let n = 2_000;
    let timed = |pass: &mut dyn FnMut()| {
        let start = Instant::now();
        pass();
        start.elapsed().as_secs_f64() * 1e3
    };
    let median = |pass: &mut dyn FnMut() -> f64| {
        let mut millis: Vec<f64> = (0..3).map(|_| pass()).collect();
        millis.sort_by(f64::total_cmp);
        millis[1]
    };
    let (mut small, mut large) = (full_refresh_pass(n, timed), full_refresh_pass(4 * n, timed));
    let ratios: Vec<f64> = (0..3)
        .map(|_| median(&mut large) / median(&mut small))
        .collect();
    assert!(
        ratios.iter().any(|ratio| *ratio < 6.0),
        "full_refresh at {} instances over {n} took {ratios:.1?} times as long",
        4 * n
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
    let _serial = counting::serial();
    destroy_leaves_nothing(2_000);
}

/// Release only: `cargo test --release --test scale -- --ignored`.
#[test]
#[ignore]
fn destroy_of_the_10k_layered_estate_leaves_nothing_behind() {
    let _serial = counting::serial();
    destroy_leaves_nothing(10_000);
}
