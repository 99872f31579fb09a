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

use std::collections::BTreeMap;
use std::sync::Arc;

use cloudless::obs::{FlightRecorder, Recorder};
use cloudless::pipeline::{FrontendOutput, IncrementalPipeline, PipelineCtx};
use cloudless::LintGate;
use cloudless_bench::experiments::quota_raised_catalog;
use cloudless_bench::workloads::random_layered;
use cloudless_deploy::resolver::DataResolver;
use cloudless_hcl::program::ModuleLibrary;
use cloudless_state::Snapshot;
use cloudless_validate::ValidationLevel;

const EXTRA: &str = "resource \"aws_s3_bucket\" \"extra\" {\n  bucket = \"extra\"\n}\n";

/// The blocks each structural save of a layered estate of `blocks` blocks
/// renumbers, in order: an append at the end, its removal, an insertion at
/// the head and its removal.
fn renumbered_by_structural_saves(blocks: usize) -> [u64; 4] {
    let base = random_layered(blocks, 42);
    // quotas out of the way: VAL307 would refuse the program
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
    let run = |pipeline: &mut IncrementalPipeline, source: &str| -> FrontendOutput {
        let out = pipeline.run(source, &ctx);
        out.unwrap_or_else(|_| panic!("{blocks} blocks: the program is clean"))
    };
    let renumbered = || {
        let metrics = flight.metrics().expect("a flight recorder keeps metrics");
        metrics.counter("pipeline.blocks_renumbered")
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
        let before = renumbered();
        let out = run(&mut warm, &source);
        let counted = renumbered() - before;
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
        counted
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
