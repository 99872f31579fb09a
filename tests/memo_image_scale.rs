//! A fresh engine reads its memo image by the block: the first plan of a
//! one-block edit decodes the records of the blocks the edit reaches, not
//! the estate's, and the first plan of the program just applied plans and
//! decodes nothing, as the apply settled its plan before writing the image.
//! Counted (`pipeline.image_bytes_decoded`, `pipeline.instances_planned`),
//! so it fails the same way on every host; the wall-time probe at 10 000
//! blocks is `#[ignore]`d and run in release:
//! `cargo test --release --offline --test memo_image_scale -- --ignored --nocapture`.

use std::collections::BTreeMap;
use std::time::Instant;

use cloudless::cloud::{CloudConfig, ResourceRecord};
use cloudless::obs::FlightRecorder;
use cloudless::state::{LogStore, MemDevice};
use cloudless::types::ResourceId;
use cloudless::{Cloudless, Config};
use cloudless_bench::experiments::quota_raised_catalog;
use cloudless_bench::workloads::random_layered;

type Records = BTreeMap<ResourceId, ResourceRecord>;

/// The exact cloud, its quotas raised past the estate's.
fn config() -> Config {
    Config {
        cloud: CloudConfig {
            catalog: quota_raised_catalog(),
            ..CloudConfig::exact()
        },
        recorder: FlightRecorder::shared(16),
        ..Config::default()
    }
}

/// `source` with block `r{k}`'s name value changed.
fn edit(source: &str, k: usize, to: &str) -> String {
    let from = format!("\"r-{k}\"");
    assert!(source.contains(&from), "block r{k} names itself {from}");
    source.replacen(&from, &format!("\"r-{k}-{to}\""), 1)
}

/// An engine over `log`, with `image` beside it, applying to `records`.
fn open(log: Vec<u8>, image: Option<Vec<u8>>, records: Records) -> Cloudless {
    let device = MemDevice::from_bytes(log).imaged(image);
    let (store, _) = LogStore::open_device(Box::new(device)).expect("the log opens");
    Cloudless::with_store(config(), store, records)
}

/// The log and the image an engine leaves.
fn close(engine: Cloudless) -> (Vec<u8>, Option<Vec<u8>>) {
    let mut device = engine.into_store().into_device();
    let log = device.read_all().expect("the log");
    (log, device.read_image().expect("the image"))
}

/// `source` applied: the log, the image and the cloud.
fn settled(source: &str) -> (Vec<u8>, Option<Vec<u8>>, Records) {
    let mut first = open(Vec::new(), None, Records::new());
    assert!(first.converge(source).expect("converges").apply.all_ok());
    let records = first.cloud().export_records().clone();
    let (log, image) = close(first);
    assert!(image.is_some(), "an apply leaves an image");
    (log, image, records)
}

/// The image bytes a fresh engine decodes to plan an edit of the middle
/// block of a settled layered estate of `blocks` blocks.
fn decoded_for_one_edit(blocks: usize) -> u64 {
    let source = random_layered(blocks, 42);
    let (log, image, records) = settled(&source);
    let mut fresh = open(log, image, records);
    let edited = edit(&source, blocks / 2, "v2");
    let (_, trace) = fresh.plan_incremental(&edited).expect("the edit plans");
    let trace = trace.to_string();
    assert!(trace.contains("image: loaded"), "{trace}");
    assert!(trace.contains("pipeline: incremental"), "{trace}");
    let metrics = fresh.metrics().expect("a flight recorder keeps metrics");
    metrics.counter("pipeline.image_bytes_decoded")
}

/// At 8 000 blocks the edit decodes at most 1.2× what it decodes at 1 000,
/// plus the records of a few blocks: the edited block and its dependents,
/// whose number does not grow with the estate.
#[test]
fn a_one_block_edit_decodes_the_blocks_it_reaches_not_the_estate() {
    let small = decoded_for_one_edit(1_000);
    let large = decoded_for_one_edit(8_000);
    println!("image bytes decoded for one edit: {small} at 1k blocks, {large} at 8k");
    assert!(small > 0, "the edited block is decoded");
    assert!(
        large as f64 <= 1.2 * small as f64 + 2_048.0,
        "{large} bytes decoded at 8k blocks against {small} at 1k"
    );
}

/// An apply settles the plan it leaves: a fresh engine's first plan of the
/// program just applied plans no instance and decodes no block's record, at
/// 1 000 blocks as at 8 000.
#[test]
fn a_fresh_plan_of_the_program_just_applied_plans_and_decodes_nothing() {
    for blocks in [1_000, 8_000] {
        let source = random_layered(blocks, 42);
        let (log, image, records) = settled(&source);
        let mut fresh = open(log, image, records);
        let (plan, trace) = fresh.plan_incremental(&source).expect("the program plans");
        let trace = trace.to_string();
        assert!(trace.contains("image: loaded"), "{trace}");
        assert!(trace.contains("plan: cached"), "{trace}");
        assert!(!plan.contains(" + "), "{blocks} blocks: {plan}");
        let metrics = fresh.metrics().expect("a flight recorder keeps metrics");
        let counted = ["pipeline.instances_planned", "pipeline.image_bytes_decoded"];
        assert_eq!(
            counted.map(|c| metrics.counter(c)),
            [0, 0],
            "{blocks} blocks"
        );
    }
}

/// The wall-time probe: a settled layered estate of 10 000 blocks; a fresh
/// engine's first
/// plan of a one-block edit (the image opened and spliced) is timed
/// against the warm replan of another one-block edit that follows.
#[test]
#[ignore]
fn probe_a_fresh_engines_first_plan_at_10k() {
    let source = random_layered(10_000, 42);
    let (log, image, records) = settled(&source);
    println!("memo.bin: {} bytes", image.as_ref().map_or(0, Vec::len));
    for round in 0..4 {
        let mut fresh = open(log.clone(), image.clone(), records.clone());
        let edited = edit(&source, 5_000 + round, "v2");
        let at = Instant::now();
        let (_, trace) = fresh.plan_incremental(&edited).expect("the edit plans");
        let cold_start = at.elapsed();
        assert!(trace.to_string().contains("image: loaded"), "{trace}");
        let again = edit(&edited, 5_100 + round, "v2");
        let at = Instant::now();
        let (_, trace) = fresh.plan_incremental(&again).expect("the edit plans");
        let warm = at.elapsed();
        assert!(trace.fast_path, "{trace}");
        let at = Instant::now();
        drop(fresh);
        let dropped = at.elapsed();
        println!(
            "round {round}: first plan {:.2} ms, warm replan {:.2} ms ({:.1}x), engine drop {:.2} ms",
            cold_start.as_secs_f64() * 1e3,
            warm.as_secs_f64() * 1e3,
            cold_start.as_secs_f64() / warm.as_secs_f64(),
            dropped.as_secs_f64() * 1e3,
        );
    }
}
