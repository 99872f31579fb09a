//! Allocation budget of the cold front end: what a fresh `cloudless apply`
//! asks of the heap to turn source text into a plan, per block.
//!
//! A fresh process runs `IncrementalPipeline::run` over every block of the
//! program, and about half of that time is the allocator. The front end's
//! rule is that a name is allocated once, syntax moves from stage to stage
//! and a lookup borrows its key (DESIGN.md "The front end allocates once
//! per name"); this test holds the rule by counting. Counts repeat exactly
//! on any host and, as measured, in debug and release alike, so the gates
//! are equalities in disguise: a regression shows as a higher count, and the
//! per-stage table printed with it names the stage that grew.
//!
//! The back half of an apply has its own gate here
//! (`the_back_half_of_a_one_block_apply_touches_one_block`): what cloning
//! the world, committing a one-resource change with a one-block program
//! edit, and the convention miner ask of the heap and of the log.
//!
//! So has a warm replan
//! (`a_warm_replan_of_a_first_layer_block_costs_the_edit_not_the_cone`):
//! one attribute of a first-layer block of the deployed estate, edited — the
//! plan stage visits the block and at most its direct dependents, and the
//! run asks the heap as often, and for as many bytes, at 10 000 blocks as
//! at 1 000. And so has the run of unchanged source that follows it
//! (`a_warm_run_of_unchanged_source_costs_nothing_the_size_of_the_estate`),
//! the cache hit a reconcile's proof takes: a run's output shares the memo's
//! instance list, so neither copies it.
//!
//! So has a drift poll (`a_poll_costs_its_events_not_the_estate`): the
//! same events over a fourfold estate, the same allocations and no more
//! bytes — the state answers "who holds this id" from its own index.
//!
//! And a reconcile that finds nothing
//! (`a_clean_reconcile_costs_its_drift_not_the_estate`): the same
//! allocations over a fourfold estate, and bytes a constant per block.
//!
//! The counting `#[global_allocator]` is `counting/mod.rs`.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use cloudless::obs::{NullRecorder, Recorder};
use cloudless::pipeline::{FrontendOutput, IncrementalPipeline, PipelineCtx};
use cloudless::LintGate;
use cloudless_analyze::incremental::LintEnv;
use cloudless_analyze::{analyze_manifest, lint_program_in};
use cloudless_bench::experiments::quota_raised_catalog;
use cloudless_bench::workloads::random_layered;
use cloudless_deploy::diff::{diff, render};
use cloudless_deploy::resolver::DataResolver;
use cloudless_hcl::fingerprint::ChunkMap;
use cloudless_hcl::program::{expand_root, ModuleLibrary, Program};
use cloudless_state::Snapshot;
use cloudless_validate::incremental::ManifestIndex;
use cloudless_validate::{validate_indexed, ValidationLevel};

mod counting;
use counting::{counted, Tally};

/// One cold run over `random_layered(blocks, 42)` against an empty
/// snapshot: the run's tally, and the same work stage by stage through the
/// passes the pipeline's all-blocks walk calls.
struct ColdRun {
    blocks: usize,
    total: Tally,
    stages: Vec<(&'static str, Tally)>,
}

impl ColdRun {
    fn measure(blocks: usize) -> ColdRun {
        let source = random_layered(blocks, 42);
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
        let mut pipeline = IncrementalPipeline::default();
        let (out, total) = counted(|| pipeline.run(&source, &ctx));
        let out = out.unwrap_or_else(|_| panic!("the generated program is clean"));
        assert!(!out.trace.fast_path, "{}", out.trace);
        assert_eq!(out.manifest.instances.len(), blocks);
        assert_eq!(out.changes.len(), blocks, "everything is to be created");
        assert!(pipeline.is_warm(), "a clean run keeps its memo");
        drop((out, pipeline));

        let mut stages = Vec::new();
        let mut stage = |name, tally| stages.push((name, tally));
        let (file, t) = counted(|| cloudless_hcl::parse(&source, "main.tf"));
        stage("parse", t);
        let file = file.expect("parses");
        let (program, t) = counted(|| Program::from_file(file));
        stage("from_file", t);
        let program = program.expect("classifies");
        let (_, t) = counted(|| ChunkMap::build(&source));
        stage("index (chunks)", t);
        let cfg = LintGate::default()
            .config()
            .expect("the default gate lints");
        let (report, t) = counted(|| {
            let env = LintEnv::build(&program);
            lint_program_in(&program, &modules, &cfg, &env)
        });
        stage("lint", t);
        assert!(report.is_clean());
        let (expanded, t) = counted(|| expand_root(&program, &inputs, &modules, &data));
        stage("expand", t);
        let (manifest, _) = expanded.expect("expands");
        let (report, t) = counted(|| {
            let index = ManifestIndex::build(&manifest);
            validate_indexed(&manifest, &index, &catalog, ctx.level, None)
        });
        stage("validate", t);
        assert!(report.diagnostics.is_empty());
        let (outcome, t) = counted(|| analyze_manifest(&manifest, &cfg, None));
        stage("analyze", t);
        assert!(outcome.report.is_clean());
        let (text, t) = counted(|| render(&diff(&manifest, &state, &catalog, &data)));
        stage("plan", t);
        assert!(!text.is_empty());

        // what the run does beyond the passes: the block DAG and the reader
        // counts of the parse stage's fill, the claims, the memo's copies
        let staged = stages.iter().fold(Tally::default(), |sum, (_, t)| Tally {
            allocs: sum.allocs + t.allocs,
            bytes: sum.bytes + t.bytes,
        });
        let memo = Tally {
            allocs: total.allocs.saturating_sub(staged.allocs),
            bytes: total.bytes.saturating_sub(staged.bytes),
        };
        stages.push(("memo (the rest)", memo));
        ColdRun {
            blocks,
            total,
            stages,
        }
    }

    fn allocs_per_block(&self) -> f64 {
        self.total.allocs as f64 / self.blocks as f64
    }

    fn bytes_per_block(&self) -> f64 {
        self.total.bytes as f64 / self.blocks as f64
    }
}

impl std::fmt::Display for ColdRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.blocks as f64;
        writeln!(
            f,
            "cold run at {} blocks: {} allocations ({:.1}/block), {} bytes ({:.0}/block)",
            self.blocks,
            self.total.allocs,
            self.allocs_per_block(),
            self.total.bytes,
            self.bytes_per_block()
        )?;
        for (name, t) in &self.stages {
            let (allocs, bytes) = (t.allocs as f64 / n, t.bytes as f64 / n);
            writeln!(
                f,
                "  {name:<16} {:>10} allocations ({allocs:>6.1}/block) {:>12} bytes ({bytes:>7.0}/block)",
                t.allocs, t.bytes
            )?;
        }
        Ok(())
    }
}

/// Most allocations a cold run may make per block at 10 000 blocks.
const ALLOCS_PER_BLOCK: f64 = 100.0;
/// Most bytes it may ask for per block.
const BYTES_PER_BLOCK: f64 = 14.0 * 1024.0;
/// Most a tenfold estate may multiply the allocations by.
const GROWTH_PER_DECADE: f64 = 10.5;

fn hold_budget(small: &ColdRun, large: &ColdRun) {
    println!("{small}{large}");
    assert!(
        large.allocs_per_block() <= ALLOCS_PER_BLOCK,
        "{:.1} allocations per block, over the budget of {ALLOCS_PER_BLOCK}\n{large}",
        large.allocs_per_block()
    );
    assert!(
        large.bytes_per_block() <= BYTES_PER_BLOCK,
        "{:.0} bytes allocated per block, over the budget of {BYTES_PER_BLOCK}\n{large}",
        large.bytes_per_block()
    );
    let growth = large.total.allocs as f64 / small.total.allocs as f64;
    assert!(
        growth <= GROWTH_PER_DECADE,
        "{}x the blocks took {growth:.2}x the allocations, over {GROWTH_PER_DECADE}x\n{small}{large}",
        large.blocks / small.blocks
    );
}

#[test]
fn a_cold_run_allocates_within_budget_per_block() {
    let _serial = counting::serial();
    hold_budget(&ColdRun::measure(1_000), &ColdRun::measure(10_000));
}

#[test]
fn counts_repeat_exactly() {
    let _serial = counting::serial();
    let (a, b) = (ColdRun::measure(500), ColdRun::measure(500));
    assert_eq!(a.total, b.total, "{a}{b}");
    assert_eq!(a.stages, b.stages);
}

/// The 100 000-block tier (release: `cargo test --release --test
/// alloc_budget -- --ignored`).
#[test]
#[ignore = "100 000 blocks: run in release"]
fn a_cold_run_allocates_within_budget_at_100k() {
    let _serial = counting::serial();
    hold_budget(&ColdRun::measure(10_000), &ColdRun::measure(100_000));
}

/// The back half of a one-block `apply` on the converged 10 000-block
/// world: after the plan, nothing the plan did not touch is copied,
/// compared by value, hashed or appended (DESIGN.md "The world is shared").
/// Counts and bytes, exact on any host.
#[test]
fn the_back_half_of_a_one_block_apply_touches_one_block() {
    let _serial = counting::serial();
    use cloudless::{Cloudless, Config};
    use cloudless_cloud::CloudConfig;
    use cloudless_state::{CommitMeta, LogStore};
    use cloudless_types::Value;
    use cloudless_validate::SpecMiner;

    const BLOCKS: usize = 10_000;
    let source = random_layered(BLOCKS, 42);
    let mut engine = Cloudless::new(Config {
        cloud: CloudConfig {
            catalog: quota_raised_catalog(),
            ..CloudConfig::exact()
        },
        ..Config::default()
    });
    let converged = engine.converge(&source).expect("the estate converges");
    assert!(converged.apply.all_ok());
    let meta = |source: &str| CommitMeta {
        config_source: Some(source.to_owned()),
        ..CommitMeta::bare("apply")
    };
    let mut store = LogStore::in_memory();
    let first = store
        .commit_snapshot(engine.state(), meta(&source))
        .expect("the world commits");
    assert_eq!(store.current().len(), BLOCKS);
    drop(engine);

    // (a) the hypothetical world `execute`, `refresh` and `reconcile` start from
    let (mut state, clone) = counted(|| store.current().clone());
    println!("snapshot clone at {BLOCKS} blocks: {clone:?}");

    // one resource replaced, one block of the program edited
    let before = store.current().clone();
    let addr = before.addrs()[BLOCKS / 2].clone();
    let mut edited = before.get(&addr).expect("is deployed").clone();
    edited.attrs.insert("tags".into(), Value::from("edited"));
    state.put(edited);
    let marker = format!("\"r-{}\"", BLOCKS / 2);
    let edited_source = source.replacen(&marker, &format!("{marker}\n  tags = \"edited\""), 1);
    assert_ne!(edited_source, source);
    let next = meta(&edited_source);

    // (b) the commit of that world
    let log_before = store.log_bytes();
    let (second, commit) = counted(|| store.commit_snapshot(&state, next));
    let second = second.expect("the edit commits");
    let appended = store.log_bytes() - log_before;
    println!("one-block commit: {commit:?}, {appended} bytes appended");
    assert_eq!(
        store.config_source(second).as_deref(),
        Some(edited_source.as_str())
    );
    assert_eq!(store.config_source(first).as_deref(), Some(source.as_str()));

    // (c) every resource but the replaced one is the same allocation in
    // the old head, the new head and the time machine's view of the old one
    let rewound = store.snapshot_at(first).expect("addressable");
    assert_eq!(rewound, before);
    let shared = |a: &Snapshot, b: &Snapshot| {
        a.resources()
            .iter()
            .filter(|(key, r)| b.resources().get(*key).is_some_and(|o| Arc::ptr_eq(r, o)))
            .count()
    };
    assert_eq!(shared(&before, store.current()), BLOCKS - 1);
    assert_eq!(shared(&before, &rewound), BLOCKS - 1);
    assert_eq!(shared(store.current(), &rewound), BLOCKS - 1);

    // (d) the miner counting a manifest of names it has not seen
    let (_, mine) = counted(|| SpecMiner::new().observe(&converged.manifest));
    println!("SpecMiner::observe at {BLOCKS} instances: {mine:?}");

    assert!(clone.allocs <= 12_000, "{clone:?}");
    assert!(commit.allocs <= 300, "{commit:?}");
    assert!(appended < 64 * 1024, "{appended} bytes appended");
    assert!(mine.allocs <= 1_000, "{mine:?}");
}

/// Two consecutive warm replans of `random_layered(blocks, 42)`, deployed:
/// one attribute, edited in place, of a block of the *first* layer that two
/// blocks read — its static cone is most of the program — and edited again;
/// then a run of the same source once more.
struct WarmReplan {
    blocks: usize,
    /// The second edit's run: the first grows the memo's source buffer
    /// once, which is bytes the size of the estate no later edit pays.
    tally: Tally,
    /// `k` and `n` of its trace's `re-planned k/n instance(s)`.
    replanned: (usize, usize),
    dependents: usize,
    /// The run of unchanged source.
    unchanged: Tally,
}

impl WarmReplan {
    fn measure(blocks: usize) -> WarmReplan {
        use cloudless::{Cloudless, Config};
        use cloudless_cloud::CloudConfig;

        let source = random_layered(blocks, 42);
        let catalog = quota_raised_catalog();
        let mut engine = Cloudless::new(Config {
            cloud: CloudConfig {
                catalog: catalog.clone(),
                ..CloudConfig::exact()
            },
            ..Config::default()
        });
        let converged = engine.converge(&source).expect("the estate converges");
        assert!(converged.apply.all_ok());

        // a security group's `name` updates in place, so the edit flips
        // nothing a dependent reads
        let width = (blocks / 64).max(8);
        let readers = |i: usize| {
            let reads = |close: char| source.matches(&format!(".r{i}{close}")).count();
            reads(',') + reads(']')
        };
        let in_place = |i: &usize| {
            let head = format!("resource \"aws_security_group\" \"r{i}\" ");
            source.contains(&head) && readers(*i) == 2
        };
        let block = (0..width).find(in_place).expect("a group two blocks read");
        let name = format!("\"r-{block}\"");
        // two edits of the same length
        let edited = |to: &str| source.replacen(&name, &format!("\"r-{block}-{to}\""), 1);
        let (first, second) = (edited("edited"), edited("update"));
        assert_ne!(first, source);

        let (inputs, modules, data) = (BTreeMap::new(), ModuleLibrary::new(), DataResolver::new());
        let recorder = Arc::new(NullRecorder) as Arc<dyn Recorder>;
        let ctx = PipelineCtx {
            inputs: &inputs,
            modules: &modules,
            lint: LintGate::default(),
            level: ValidationLevel::CloudRules,
            data: &data,
            catalog: &catalog,
            state: engine.state(),
            miner: None,
            recorder: &recorder,
        };
        let mut pipeline = IncrementalPipeline::default();
        let cold = pipeline.run(&source, &ctx);
        assert!(cold.is_ok_and(|out| out.changes.is_empty()), "deployed");
        let warm = pipeline.run(&first, &ctx);
        assert!(
            warm.is_ok_and(|out| out.trace.fast_path),
            "the first edit splices"
        );
        let (out, tally) = counted(|| pipeline.run(&second, &ctx));
        let out = out.unwrap_or_else(|_| panic!("the edited program is clean"));
        assert!(out.trace.fast_path, "{}", out.trace);
        assert_eq!(out.changes.len(), 1, "one update");
        let plan = out.trace.stages.iter().find(|s| s.stage == "plan");
        let detail = plan.map_or("", |s| s.detail.as_str());
        let counts = detail
            .strip_prefix("re-planned ")
            .and_then(|rest| rest.strip_suffix(" instance(s)"))
            .and_then(|counts| counts.split_once('/'))
            .unwrap_or_else(|| panic!("a warm plan stage says what it visited: {detail:?}"));
        let count = |text: &str| text.parse().expect("a count");
        let replanned = (count(counts.0), count(counts.1));
        drop(out);
        let (again, unchanged) = counted(|| pipeline.run(&second, &ctx));
        let cached = |out: &FrontendOutput| out.trace.fast_path && out.changes.len() == 1;
        assert!(
            again.is_ok_and(|out| cached(&out)),
            "unchanged source is a cache hit"
        );
        WarmReplan {
            blocks,
            tally,
            replanned,
            dependents: readers(block),
            unchanged,
        }
    }
}

/// Most a tenfold estate may multiply a warm run's allocations or bytes by.
const WARM_GROWTH_PER_DECADE: f64 = 1.25;

/// Hold `what` of the larger estate's runs to the smaller one's: as many
/// allocations and bytes, give or take [`WARM_GROWTH_PER_DECADE`].
fn hold_warm(what: &str, small: &WarmReplan, large: &WarmReplan, tally: fn(&WarmReplan) -> Tally) {
    let (a, b) = (tally(small), tally(large));
    println!(
        "{what} at {} / {} blocks: {a:?} / {b:?}",
        small.blocks, large.blocks
    );
    for (unit, a, b) in [
        ("allocations", a.allocs, b.allocs),
        ("bytes", a.bytes, b.bytes),
    ] {
        let growth = b as f64 / a as f64;
        assert!(
            growth <= WARM_GROWTH_PER_DECADE,
            "{}x the blocks took {growth:.2}x the {unit} of {what}: {a} → {b}",
            large.blocks / small.blocks
        );
    }
}

/// The first-layer edit's gate: what it re-plans, and what it asks of the heap.
fn hold_warm_replan(small: &WarmReplan, large: &WarmReplan) {
    for run in [small, large] {
        let (k, n) = run.replanned;
        println!(
            "warm first-layer replan at {} blocks: re-planned {k}/{n}",
            run.blocks
        );
        assert_eq!(n, run.blocks);
        assert!(
            k <= 1 + run.dependents,
            "re-planned {k} instances for one block and its {} direct dependents",
            run.dependents
        );
    }
    hold_warm("a warm first-layer replan", small, large, |run| run.tally);
}

/// The measurements at 1 000 and 10 000 blocks, made once for the gates
/// that read them.
fn warm_runs() -> &'static (WarmReplan, WarmReplan) {
    static RUNS: OnceLock<(WarmReplan, WarmReplan)> = OnceLock::new();
    RUNS.get_or_init(|| (WarmReplan::measure(1_000), WarmReplan::measure(10_000)))
}

/// A warm replan costs what the edit changes, wherever in the dependency
/// order the edit sits: the plan stage visits the edited block and at most
/// its direct dependents — not the cone behind them, and not a flag per
/// instance — and the run asks the heap for no more at 10 000 blocks than at
/// 1 000 (the chunk table and the source are spliced in place, and the
/// memo's instance list is written in place and shared with the output: a
/// copy of either is bytes a block).
#[test]
fn a_warm_replan_of_a_first_layer_block_costs_the_edit_not_the_cone() {
    let _serial = counting::serial();
    let (small, large) = warm_runs();
    hold_warm_replan(small, large);
}

/// A run of the source the memo holds reads its plan off the cache and
/// hands out the memo's instance list: as many allocations and bytes at
/// 10 000 blocks as at 1 000.
#[test]
fn a_warm_run_of_unchanged_source_costs_nothing_the_size_of_the_estate() {
    let _serial = counting::serial();
    let (small, large) = warm_runs();
    hold_warm("a run of unchanged source", small, large, |run| {
        run.unchanged
    });
}

/// Both warm gates at 10 000 and 100 000 blocks (release: `cargo test
/// --release --test alloc_budget -- --ignored`).
#[test]
#[ignore = "100 000 blocks: run in release"]
fn a_warm_replan_costs_the_edit_at_100k() {
    let _serial = counting::serial();
    let (small, large) = (WarmReplan::measure(10_000), WarmReplan::measure(100_000));
    hold_warm_replan(&small, &large);
    hold_warm("a run of unchanged source", &small, &large, |run| {
        run.unchanged
    });
}

/// Out-of-band updates in each drifted estate below.
const POLL_EVENTS: usize = 300;

/// `random_layered(blocks, 7)`, converged, with [`POLL_EVENTS`] of its
/// resources updated out of band: the tally of one poll of the whole
/// activity log by a fresh watcher.
fn poll_of_drift(blocks: usize) -> Tally {
    use cloudless::{Cloudless, Config};
    use cloudless_cloud::CloudConfig;
    use cloudless_diagnose::LogWatcher;
    use cloudless_types::Value;

    let mut engine = Cloudless::new(Config {
        cloud: CloudConfig {
            catalog: quota_raised_catalog(),
            ..CloudConfig::exact()
        },
        ..Config::default()
    });
    let converged = engine.converge(&random_layered(blocks, 7));
    assert!(converged.expect("the estate converges").apply.all_ok());
    let state = engine.state().clone();
    let drifted = state.resources().values().step_by(blocks / POLL_EVENTS);
    for r in drifted.take(POLL_EVENTS) {
        let tags = [("tags".to_owned(), Value::from("drifted"))].into();
        let updated = engine.cloud_mut().out_of_band_update("intern", &r.id, tags);
        updated.expect("the resource is live");
    }
    let mut watcher = LogWatcher::new([Config::default().principal]);
    let (report, tally) = counted(|| watcher.poll(engine.cloud(), &state));
    assert_eq!(report.events.len(), POLL_EVENTS);
    tally
}

/// Most bytes a clean reconcile may ask for per block: the copies of the
/// program text the plan and the report hand out (the instance list is
/// the memo's, shared, and the plan stage marks nothing per instance).
const CLEAN_RECONCILE_BYTES_PER_BLOCK: u64 = 160;

/// `random_layered(blocks, 7)`, converged and reconciled once — which
/// leaves a sync point and the memo holding the program — then the tally of
/// the clean follow-up, a dry run.
fn clean_reconcile(blocks: usize) -> Tally {
    use cloudless::{Cloudless, Config};
    use cloudless_cloud::CloudConfig;

    let mut engine = Cloudless::new(Config {
        cloud: CloudConfig {
            catalog: quota_raised_catalog(),
            ..CloudConfig::exact()
        },
        ..Config::default()
    });
    let converged = engine.converge(&random_layered(blocks, 7));
    assert!(converged.expect("the estate converges").apply.all_ok());
    let first = engine.reconcile(&random_layered(blocks, 7), false);
    let patched = first.expect("a clean estate reconciles").patched_source;
    let (report, tally) = counted(|| engine.reconcile(&patched, true));
    let report = report.unwrap_or_else(|e| panic!("the follow-up reconciles: {e}"));
    assert!(
        report.converged && report.plan.is_empty(),
        "{:?}",
        report.plan
    );
    assert_eq!(report.refresh.reads, 0);
    tally
}

/// A reconcile that finds nothing reads what the activity log names since
/// the sync point (nothing), classifies the blocks the refresh and the plan
/// cache name (none) and plans through the cache: it copies no state,
/// parses and renders no program, walks no record, and asks the heap as
/// often at 8 000 blocks as at 2 000, for bytes a constant per block.
#[test]
fn a_clean_reconcile_costs_its_drift_not_the_estate() {
    let _serial = counting::serial();
    let (small, large) = (clean_reconcile(2_000), clean_reconcile(8_000));
    println!("a clean reconcile at 2 000 / 8 000 blocks: {small:?} / {large:?}");
    assert_eq!(large.allocs, small.allocs, "{small:?} → {large:?}");
    for (tally, blocks) in [(small, 2_000), (large, 8_000)] {
        assert!(
            tally.bytes <= CLEAN_RECONCILE_BYTES_PER_BLOCK * blocks,
            "{} bytes at {blocks} blocks, over {CLEAN_RECONCILE_BYTES_PER_BLOCK} a block",
            tally.bytes
        );
    }
}

/// A poll classifies each event by one probe of the state's id index, so
/// it asks the heap for its report and nothing per resource: the same
/// number of events over 2 000 and over 8 000 blocks makes the same
/// allocations, and the bytes differ only by the longer address names of
/// the larger estate. An index of the world built per poll is bytes per
/// resource.
#[test]
fn a_poll_costs_its_events_not_the_estate() {
    let _serial = counting::serial();
    let (small, large) = (poll_of_drift(2_000), poll_of_drift(8_000));
    println!("a poll of {POLL_EVENTS} drift events at 2 000 / 8 000 blocks: {small:?} / {large:?}");
    assert_eq!(large.allocs, small.allocs, "{small:?} → {large:?}");
    // a name or an id a few characters longer, per event
    let slack = 8 * POLL_EVENTS as u64;
    assert!(
        large.bytes <= small.bytes + slack,
        "4x the estate took {} more bytes for the same events: {small:?} → {large:?}",
        large.bytes - small.bytes
    );
}
