//! What an operation costs, counted by the stage that pays it, on layered
//! estates of 1 000 and 8 000 blocks: an operation whose work is its change
//! counts the same at both sizes, one whose work is the estate counts all
//! of it. Counts, not times, so it fails the same way on every host.
//!
//! A structural save — a block inserted into or removed from a warm memo —
//! reshapes the memo's positional tables (`pipeline.blocks_renumbered`: the
//! blocks the reshape moved to another position, inserted or removed). A
//! block appended at the end of the program, and its removal, move no other
//! block; one inserted at the head moves every block. Every plan a warm
//! pipeline makes here is the plan of a cold one on the same source.
//!
//! A save the lexer refuses — a closing quote dropped — is refused from the
//! chunk it edits (`pipeline.bytes_parsed`: the bytes the parse stage read),
//! with what a cold run refuses it with, and counts as a splice. Its wall
//! time at 10 000 blocks is `#[ignore]`d: `cargo test --release --offline
//! --test cost_model -- --ignored --nocapture`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use cloudless::obs::{FlightRecorder, Recorder};
use cloudless::pipeline::{FrontendOutput, IncrementalPipeline, PipelineCtx, PipelineError};
use cloudless::LintGate;
use cloudless_bench::experiments::quota_raised_catalog;
use cloudless_bench::workloads::random_layered;
use cloudless_deploy::resolver::DataResolver;
use cloudless_hcl::program::ModuleLibrary;
use cloudless_state::Snapshot;
use cloudless_validate::ValidationLevel;

const EXTRA: &str = "resource \"aws_s3_bucket\" \"extra\" {\n  bucket = \"extra\"\n}\n";

/// `f` over a pipeline context for layered estates — quotas out of the
/// way: VAL307 would refuse the program — whose recorder counts, and a
/// reader of its counters.
fn counted<T>(f: impl FnOnce(&PipelineCtx<'_>, &dyn Fn(&'static str) -> u64) -> T) -> T {
    let catalog = quota_raised_catalog();
    let (inputs, modules, data) = (BTreeMap::new(), ModuleLibrary::new(), DataResolver::new());
    let state = Snapshot::new();
    let flight = FlightRecorder::shared(16);
    let recorder: Arc<dyn Recorder> = flight.clone();
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
    let counter = |name| {
        let metrics = flight.metrics().expect("a flight recorder keeps metrics");
        metrics.counter(name)
    };
    f(&ctx, &counter)
}

/// The blocks each structural save of a layered estate of `blocks` blocks
/// renumbers, in order: an append at the end, its removal, an insertion at
/// the head and its removal.
fn renumbered_by_structural_saves(blocks: usize) -> [u64; 4] {
    counted(|ctx, counter| {
        let base = random_layered(blocks, 42);
        let run = |pipeline: &mut IncrementalPipeline, source: &str| -> FrontendOutput {
            let out = pipeline.run(source, ctx);
            out.unwrap_or_else(|_| panic!("{blocks} blocks: the program is clean"))
        };
        let mut warm = IncrementalPipeline::default();
        run(&mut warm, &base);
        let saves = [
            ("an append at the end", format!("{base}{EXTRA}")),
            ("its removal", base.clone()),
            ("an insertion at the head", format!("{EXTRA}{base}")),
            ("its removal", base.clone()),
        ];
        saves.map(|(what, source)| {
            let before = counter("pipeline.blocks_renumbered");
            let out = run(&mut warm, &source);
            let renumbered = counter("pipeline.blocks_renumbered") - before;
            assert!(
                out.trace.fast_path,
                "{blocks} blocks, {what}: {}",
                out.trace
            );
            let cold = run(&mut IncrementalPipeline::default(), &source);
            assert_eq!(
                out.plan_text, cold.plan_text,
                "{blocks} blocks, {what}: the warm plan is the cold one"
            );
            assert_eq!(
                out.changes.len(),
                cold.changes.len(),
                "{blocks} blocks, {what}"
            );
            renumbered
        })
    })
}

#[test]
fn a_structural_save_at_the_end_renumbers_the_same_at_any_size() {
    let small = renumbered_by_structural_saves(1_000);
    let large = renumbered_by_structural_saves(8_000);
    println!("blocks renumbered at 1 000 blocks: {small:?}; at 8 000: {large:?}");
    // an append and its removal move nothing else: the block itself
    assert_eq!(small[..2], large[..2], "an end-of-file save costs its edit");
    assert_eq!(small[..2], [1, 1]);
    // an insertion at the head moves every block: every block counts
    assert_eq!(small[2..], [1_001, 1_001]);
    assert_eq!(large[2..], [8_001, 8_001]);
}

/// The bytes a save the lexer refuses has the parse stage read, and the runs
/// it counts (incremental, full): `EXTRA` appended to a layered estate of
/// `blocks` blocks, then saved with its closing quote dropped. The refusal
/// is a cold run's, and the fix that follows replans from the memo.
fn parsed_by_a_typo_save(blocks: usize) -> [u64; 3] {
    counted(|ctx, counter| {
        let base = format!("{}{EXTRA}", random_layered(blocks, 42));
        let typo = base.replacen("= \"extra\"\n", "= \"extra\n", 1);
        let mut warm = IncrementalPipeline::default();
        warm.run(&base, ctx).expect("the estate is clean");
        let counters = [
            "pipeline.bytes_parsed",
            "pipeline.runs_incremental",
            "pipeline.runs_full",
        ];
        let before = counters.map(counter);
        let refused = warm.run(&typo, ctx).err().expect("the typo is refused");
        let after = counters.map(counter);
        let cold = IncrementalPipeline::default().run(&typo, ctx).err();
        let shown = |err: &PipelineError| format!("{err:?}");
        assert_eq!(
            Some(shown(&refused)),
            cold.as_ref().map(shown),
            "{blocks} blocks"
        );
        let fixed = warm.run(&base, ctx).expect("the fix is clean");
        assert!(fixed.trace.fast_path, "{blocks} blocks: {}", fixed.trace);
        [0, 1, 2].map(|i| after[i] - before[i])
    })
}

#[test]
fn a_typo_save_parses_its_window_at_any_size() {
    let small = parsed_by_a_typo_save(1_000);
    let large = parsed_by_a_typo_save(8_000);
    println!("a typo save at 1 000 blocks: {small:?}; at 8 000: {large:?} (bytes, runs)");
    assert_eq!(small, large, "a typo save costs its edit");
    // the window is the one chunk, read by the lexer; the splice refuses it
    assert_eq!(small, [EXTRA.len() as u64 - 1, 1, 0]);
}

/// Wall time of a typo save at 10 000 blocks, the median of nine (each
/// followed by its fix), each in a different block.
#[test]
#[ignore = "wall time: run in release"]
fn a_typo_save_at_10k_takes_under_a_millisecond() {
    counted(|ctx, _| {
        let base = random_layered(10_000, 42);
        let mut warm = IncrementalPipeline::default();
        warm.run(&base, ctx).expect("the estate is clean");
        let mut times: Vec<f64> = (1..10)
            .map(|k| {
                let value = format!("\"r-{}\"", k * 1_000 - 1);
                let typo = base.replacen(&value, value.trim_end_matches('"'), 1);
                let t = Instant::now();
                let refused = warm.run(&typo, ctx);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                assert!(matches!(refused, Err(PipelineError::Frontend(_))));
                warm.run(&base, ctx).expect("the fix is clean");
                ms
            })
            .collect();
        times.sort_by(f64::total_cmp);
        println!("a typo save at 10 000 blocks: {times:.3?} ms");
        assert!(times[4] < 1.0, "median {:.3} ms", times[4]);
    });
}
