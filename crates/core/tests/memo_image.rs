//! The memo image beside the state log is a cache: nothing in it may change
//! what the engine decides. A fresh engine whose first run finds the image
//! damaged, of another format, or under another key says why (`MEM0xx`) in
//! that run's trace, and plans exactly what an engine without the image
//! plans.
//!
//! The image starts valid — written by the commit of an engine that
//! converged a program with a variable, a local, an output, `count`,
//! `for_each` and deferred attributes — and is damaged by a flipped bit in
//! every byte and by every cut; then each part of the key changes
//! under it: the inputs, the lint gate, the validation level and a quota of
//! the catalog. Last, an image a loaded memo writes — copying the frames no
//! save changed — is held to the edit and to the plan cache's dirtiness it
//! carries, hop after hop of fresh engines. A commit settles the plan cache
//! before the image is written: after an apply that fails part-way and
//! after a refresh that folds drift in, the next plan is a cold engine's,
//! in the same engine and in a fresh one warm from the image.

use std::collections::BTreeMap;

use cloudless::cloud::{CloudConfig, FaultPlan, ResourceRecord};
use cloudless::obs::FlightRecorder;
use cloudless::state::{LogStore, MemDevice};
use cloudless::types::{Attrs, ResourceId, Value};
use cloudless::validate::ValidationLevel;
use cloudless::{Cloudless, Config, LintGate};

type Records = BTreeMap<ResourceId, ResourceRecord>;

const SRC: &str = r#"variable "region" {
  default = "us-east-1"
}
locals {
  prefix = "app"
}
resource "aws_vpc" "main" {
  cidr_block = "10.0.0.0/16"
}
resource "aws_subnet" "app" {
  count      = 2
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.${count.index}.0/24"
}
resource "aws_s3_bucket" "logs" {
  for_each = ["a", "b"]
  bucket   = "${local.prefix}-${each.value}-${var.region}"
  acl      = "private"
}
output "vpc" {
  value = aws_vpc.main.id
}
"#;

/// The save a fresh engine plans first: one block's attribute, which
/// updates in place.
fn edited() -> String {
    SRC.replace("\"private\"", "\"public-read\"")
}

fn standard() -> Config {
    Config {
        cloud: CloudConfig::exact(),
        ..Config::default()
    }
}

/// The log, the image and the cloud an engine under `config` leaves once
/// it has converged `source`.
fn converged(config: Config, source: &str) -> (Vec<u8>, Vec<u8>, Records) {
    let device = MemDevice::new().imaged(None);
    let (store, _) = LogStore::open_device(Box::new(device)).expect("opens");
    let mut engine = Cloudless::with_store(config, store, Records::new());
    let outcome = engine.converge(source).expect("the program converges");
    assert!(outcome.apply.all_ok());
    let records = engine.cloud().export_records().clone();
    let mut device = engine.into_store().into_device();
    let log = device.read_all().expect("the log");
    let image = device
        .read_image()
        .expect("the image")
        .expect("a commit writes one");
    (log, image, records)
}

/// The first run of a fresh engine under `config` over `log`, with `image`
/// beside it (or no image slot at all): its plan or refusal, and its trace.
fn first_run(
    config: Config,
    log: &[u8],
    image: Option<Vec<u8>>,
    records: &Records,
) -> (String, String) {
    let device = MemDevice::from_bytes(log.to_vec());
    let device = match image {
        Some(image) => device.imaged(Some(image)),
        None => device,
    };
    let (store, _) = LogStore::open_device(Box::new(device)).expect("the log opens");
    let mut engine = Cloudless::with_store(config, store, records.clone());
    match engine.plan_incremental(&edited()) {
        Ok((text, trace)) => (text, trace.to_string()),
        Err(e) => (format!("refused: {e}"), String::new()),
    }
}

/// The reason a refused image gave, from a run's trace.
fn refusal(trace: &str) -> Option<&str> {
    let at = trace.find("image: refused (")?;
    Some(&trace[at + "image: refused (".len()..])
}

#[test]
fn a_valid_image_warms_the_first_run_and_plans_as_cold() {
    let (log, image, records) = converged(standard(), SRC);
    let (warm, trace) = first_run(standard(), &log, Some(image), &records);
    assert!(trace.contains("pipeline: incremental"), "{trace}");
    assert!(
        trace.contains("image: loaded (3 block(s) of serial 1; plans the edit)"),
        "{trace}"
    );
    let (cold, cold_trace) = first_run(standard(), &log, None, &records);
    assert!(
        !cold_trace.contains("image:"),
        "no slot, no image: {cold_trace}"
    );
    assert_eq!(warm, cold);
    assert!(warm.contains("aws_s3_bucket.logs"), "{warm}");
}

#[test]
fn every_flipped_or_cut_byte_is_refused_and_plans_as_cold() {
    let (log, image, records) = converged(standard(), SRC);
    let (cold, _) = first_run(standard(), &log, None, &records);
    let check = |damaged: Vec<u8>, what: &str| {
        let (plan, trace) = first_run(standard(), &log, Some(damaged), &records);
        let why = refusal(&trace).unwrap_or_else(|| panic!("{what} was not refused:\n{trace}"));
        assert!(why.starts_with("MEM00"), "{what}: {why}");
        assert!(
            trace.contains("pipeline: full (no memo (first run))"),
            "{what}: {trace}"
        );
        assert_eq!(plan, cold, "{what}");
    };
    for at in 0..image.len() {
        let mut flipped = image.clone();
        flipped[at] ^= 1;
        check(flipped, &format!("byte {at} flipped"));
    }
    for cut in 0..image.len() {
        check(image[..cut].to_vec(), &format!("the cut at {cut}"));
    }
}

#[test]
fn each_part_of_the_key_refuses_the_image_and_plans_as_cold() {
    let (log, image, records) = converged(standard(), SRC);
    let inputs = || {
        let mut config = standard();
        config
            .inputs
            .insert("region".into(), Value::from("eu-west-1"));
        config
    };
    let gate = || Config {
        lint: LintGate::Off,
        ..standard()
    };
    let level = || Config {
        validation_level: ValidationLevel::Semantic,
        ..standard()
    };
    let quota = || {
        let mut config = standard();
        let mut schema = config
            .cloud
            .catalog
            .get_str("aws_s3_bucket")
            .expect("a bucket")
            .clone();
        schema.default_quota += 1;
        config.cloud.catalog.add(schema);
        config
    };
    /// A configuration, made anew for each engine.
    type Make = fn() -> Config;
    let changed: [(&str, Make); 4] = [
        ("inputs", inputs),
        ("lint gate", gate),
        ("validation level", level),
        ("catalog", quota),
    ];
    for (what, config) in changed {
        let (plan, trace) = first_run(config(), &log, Some(image.clone()), &records);
        let why = refusal(&trace).unwrap_or_else(|| panic!("{what}: not refused:\n{trace}"));
        assert!(why.starts_with("MEM003"), "{what}: {why}");
        assert_eq!(plan, first_run(config(), &log, None, &records).0, "{what}");
    }
}

#[test]
fn an_image_of_an_older_format_is_refused_and_plans_as_cold() {
    let (log, image, records) = converged(standard(), SRC);
    let header = b"cloudless-memo v3\n";
    assert!(image.starts_with(header), "the image opens with its format");
    let mut older = b"cloudless-memo v2\n".to_vec();
    older.extend_from_slice(&image[header.len()..]);
    let (plan, trace) = first_run(standard(), &log, Some(older), &records);
    let why = refusal(&trace).expect("refused");
    assert!(why.starts_with("MEM002"), "{why}");
    assert_eq!(plan, first_run(standard(), &log, None, &records).0);
}

/// An engine over `log` with `image` beside it, applying to a cloud of
/// `records`.
fn open(log: Vec<u8>, image: Option<Vec<u8>>, records: Records) -> Cloudless {
    let device = MemDevice::from_bytes(log).imaged(image);
    let (store, _) = LogStore::open_device(Box::new(device)).expect("the log opens");
    Cloudless::with_store(standard(), store, records)
}

/// The log, the image and the cloud `engine` leaves.
fn close(engine: Cloudless) -> (Vec<u8>, Option<Vec<u8>>, Records) {
    let records = engine.cloud().export_records().clone();
    let mut device = engine.into_store().into_device();
    (
        device.read_all().expect("log"),
        device.read_image().expect("image"),
        records,
    )
}

/// A memo loaded from an image writes the next image copying every frame
/// no save reached: after an apply that changes nothing (the plan cache of
/// the deployed state) and one in-place edit, a fourth engine holds the
/// edit — its first run over the edited source splices nothing — and plans
/// what a cold engine plans.
#[test]
fn an_image_written_by_a_loaded_memo_holds_its_edit() {
    let (log, image, records) = converged(standard(), SRC);
    let mut settled = open(log, Some(image), records);
    assert!(settled
        .converge(SRC)
        .expect("the program stands")
        .apply
        .all_ok());
    let (log, image, records) = close(settled);
    let mut edit = open(log, image, records);
    assert!(edit
        .converge(&edited())
        .expect("the edit applies")
        .apply
        .all_ok());
    let (log, image, records) = close(edit);
    let mut fourth = open(log.clone(), image, records.clone());
    let (plan, trace) = fourth.plan_incremental(&edited()).expect("the edit plans");
    let trace = trace.to_string();
    assert!(trace.contains("image: loaded"), "{trace}");
    assert!(
        trace.contains("parse: cached (no block in scope)"),
        "{trace}"
    );
    let (store, _) = LogStore::open_device(Box::new(MemDevice::from_bytes(log))).expect("opens");
    let mut cold = Cloudless::with_store(standard(), store, records);
    assert_eq!(
        plan,
        cold.plan_incremental(&edited()).expect("the edit plans").0
    );
}

/// A chain whose blocks read each other's computed `id`: a VM reads an
/// interface, which reads a subnet, which reads a VPC.
const CHAIN: &str = r#"resource "aws_vpc" "main" {
  name       = "main"
  cidr_block = "10.0.0.0/15"
}
resource "aws_subnet" "app" {
  name       = "app"
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}
resource "aws_network_interface" "nic" {
  name      = "nic"
  subnet_id = aws_subnet.app.id
}
resource "aws_virtual_machine" "vm" {
  name    = "vm"
  nic_ids = [aws_network_interface.nic.id]
}
"#;

/// The plan cache's dirtiness is in the frames of blocks: an apply that
/// changes nothing turns every block created before from dirty to clean
/// without editing one, and the image it writes says so. A later edit of
/// the VM alone plans its interface's `id` as known, as a cold engine does.
#[test]
fn a_dirtiness_the_plan_cache_changed_is_written_again() {
    let (log, image, records) = converged(standard(), CHAIN);
    let mut settled = open(log, Some(image), records);
    assert!(settled
        .converge(CHAIN)
        .expect("the chain stands")
        .apply
        .all_ok());
    let (log, image, records) = close(settled);
    let renamed = CHAIN.replace("name    = \"vm\"", "name    = \"vm-2\"");
    let mut warm = open(log.clone(), image, records.clone());
    let (plan, trace) = warm.plan_incremental(&renamed).expect("the rename plans");
    assert!(trace.to_string().contains("image: loaded"), "{trace}");
    let mut cold = open(log, None, records);
    assert_eq!(
        plan,
        cold.plan_incremental(&renamed).expect("the rename plans").0
    );
    assert!(!plan.contains("known after apply"), "{plan}");
}

/// A byte flipped inside the record of a block the edit leaves alone — the
/// VPC's, whose record the first run would never decode — is refused before
/// the run starts, and the run plans as cold.
#[test]
fn a_flipped_byte_in_a_block_the_edit_leaves_is_refused_before_the_run() {
    let (log, image, records) = converged(standard(), SRC);
    let (cold, _) = first_run(standard(), &log, None, &records);
    // the source holds the VPC's block too: the last copy is its record's
    let needle = b"10.0.0.0/16";
    let at = (image.windows(needle.len()))
        .rposition(|window| window == needle)
        .expect("the VPC's record holds its cidr_block");
    let source = (image.windows(needle.len())).position(|window| window == needle);
    assert!(
        source.is_some_and(|first| first < at),
        "the record follows the source"
    );
    let mut flipped = image.clone();
    flipped[at + 3] ^= 1;
    let (plan, trace) = first_run(standard(), &log, Some(flipped), &records);
    let why = refusal(&trace).unwrap_or_else(|| panic!("not refused:\n{trace}"));
    assert!(why.starts_with("MEM004"), "{why}");
    assert!(
        trace.contains("pipeline: full (no memo (first run))"),
        "{trace}"
    );
    assert_eq!(plan, cold);
}

/// A `plan` whose memo no image holds yet — here, the image the apply wrote
/// is gone — leaves one, and a fresh engine's apply of the same program
/// starts from it.
#[test]
fn a_plan_leaves_the_image_a_fresh_apply_starts_from() {
    let (log, _, records) = converged(standard(), SRC);
    let mut planner = open(log, None, records);
    planner.plan(&edited(), &[]).expect("the edit plans");
    let (log, image, records) = close(planner);
    assert!(image.is_some(), "the plan wrote the image");

    let (plan, trace) = first_run(standard(), &log, image.clone(), &records);
    assert!(trace.contains("image: loaded"), "{trace}");
    assert_eq!(plan, first_run(standard(), &log, None, &records).0);

    let recorder = FlightRecorder::shared(16);
    let config = Config {
        recorder: recorder.clone(),
        ..standard()
    };
    let device = MemDevice::from_bytes(log).imaged(image);
    let (store, _) = LogStore::open_device(Box::new(device)).expect("the log opens");
    let mut apply = Cloudless::with_store(config, store, records);
    assert!(apply.converge(&edited()).expect("applies").apply.all_ok());
    let metrics = apply.metrics().expect("a flight recorder keeps metrics");
    assert_eq!(metrics.counter("pipeline.memo_image_loads"), 1);
    assert_eq!(metrics.counter("pipeline.runs_incremental"), 1);
}

/// A block inserted into a memo loaded from an image reads a block the
/// image holds: the edge between them is the memo's, so when the block it
/// reads turns into a replacement, the inserted one is planned again — a
/// replacement too — as a cold engine plans it.
#[test]
fn a_block_inserted_after_a_load_follows_the_block_it_reads() {
    let vpc = "resource \"aws_vpc\" \"main\" {\n  cidr_block = \"10.0.0.0/16\"\n}\n";
    let both = format!(
        "{vpc}resource \"aws_subnet\" \"app\" {{\n  vpc_id     = aws_vpc.main.id\n  cidr_block = \"10.0.1.0/24\"\n}}\n"
    );
    let (log, image, records) = converged(standard(), &both);
    let replaced = both.replace("10.0.0.0/16", "10.0.0.0/15");
    let mut warm = open(log.clone(), Some(image), records.clone());
    let (_, trace) = warm.plan_incremental(vpc).expect("the removal plans");
    assert!(trace.to_string().contains("image: loaded"), "{trace}");
    let (_, trace) = warm.plan_incremental(&both).expect("the insert plans");
    assert!(trace.to_string().contains("+1 inserted"), "{trace}");
    let (plan, trace) = warm.plan_incremental(&replaced).expect("the edit plans");
    assert!(trace.fast_path, "{trace}");
    let mut cold = open(log, None, records);
    let (cold_plan, _) = cold.plan_incremental(&replaced).expect("the edit plans");
    assert_eq!(plan, cold_plan);
    assert!(plan.contains("-/+ aws_subnet.app"), "{plan}");
}

/// `engine`, which has just committed, plans each of `sources` as a cold
/// engine over the log it leaves does: itself first, from its settled
/// cache (`plan: cached`), then a fresh engine warm from its image.
fn plans_as_cold(mut engine: Cloudless, sources: &[&str]) {
    let (held, trace) = engine
        .plan_incremental(sources[0])
        .expect("the program plans");
    let trace = trace.to_string();
    assert!(trace.contains("plan: cached"), "{trace}");
    let (log, image, records) = close(engine);
    assert!(image.is_some(), "the commit wrote an image");
    let cold = |source: &str| {
        let mut cold = open(log.clone(), None, records.clone());
        cold.plan_incremental(source).expect("the program plans").0
    };
    assert_eq!(held, cold(sources[0]));
    let mut fresh = open(log.clone(), image, records.clone());
    for (k, source) in sources.iter().enumerate() {
        let (plan, trace) = fresh.plan_incremental(source).expect("the program plans");
        if k == 0 {
            let trace = trace.to_string();
            assert!(trace.contains("image: loaded"), "{trace}");
        }
        assert_eq!(plan, cold(source), "save {k}");
    }
}

/// An apply that fails part-way commits what it did and settles the plan
/// cache against it: the failed changes and what reads them plan again, as
/// a cold engine plans them. The failing apply is the first, from a cold
/// memo, or the edit after it, from a warm one.
#[test]
fn an_apply_that_fails_part_way_settles_as_cold() {
    let edited = edited();
    let sources = [SRC, &edited];
    let mut partial = [0; 2];
    for seed in 0..24 {
        for step in 0..sources.len() {
            let mut config = standard();
            config.seed = seed;
            config.cloud.faults = FaultPlan {
                transient_failure_rate: 0.7,
                ..FaultPlan::none()
            };
            let device = MemDevice::new().imaged(None);
            let (store, _) = LogStore::open_device(Box::new(device)).expect("opens");
            let mut engine = Cloudless::with_store(config, store, Records::new());
            let mut landed = true;
            for source in &sources[..=step] {
                let outcome = engine.converge(source).expect("the program converges");
                landed = outcome.apply.all_ok();
            }
            if landed || engine.state().is_empty() {
                continue;
            }
            partial[step] += 1;
            // the program it applied last first
            let mut next = sources;
            next.swap(0, step);
            plans_as_cold(engine, &next);
        }
    }
    assert!(
        partial.iter().all(|&n| n > 0),
        "failed part-way: {partial:?}"
    );
}

/// A refresh folds out-of-band drift into the state — an attribute changed,
/// a resource deleted — and settles the plan cache against it: the repairs
/// plan as a cold engine plans them.
#[test]
fn a_refresh_of_drift_settles_as_cold() {
    let mut engine = open(Vec::new(), None, Records::new());
    assert!(engine.converge(SRC).expect("converges").apply.all_ok());
    let ids: Vec<ResourceId> = engine
        .state()
        .resources()
        .values()
        .map(|r| r.id.clone())
        .collect();
    let cloud = engine.cloud_mut();
    let drift = Attrs::from_iter([("acl".to_owned(), Value::from("public-read"))]);
    cloud
        .out_of_band_update("intern", &ids[0], drift)
        .expect("drifts");
    cloud
        .out_of_band_delete("intern", &ids[1])
        .expect("deletes");
    let report = engine.refresh().expect("the refresh commits");
    assert_eq!((report.updated.len(), report.missing.len()), (1, 1));
    plans_as_cold(engine, &[SRC, &edited()]);
}

/// A counted VPC whose first instance a bucket's name reads.
const COUNTED: &str = r#"resource "aws_vpc" "v" {
  count      = 2
  cidr_block = "10.${count.index}.0.0/16"
}
resource "aws_s3_bucket" "g" {
  bucket = "logs-${aws_vpc.v[0].id}"
}
"#;

/// A refresh that folds in the deletion of a block's second instance
/// leaves its first instance clean, and dirtiness is asked per instance:
/// the settled cache plans the VPC's re-creation alone, as a cold engine
/// does, and not a replacement of the bucket that reads `v[0]`.
#[test]
fn a_deleted_instance_past_the_first_leaves_its_block_clean() {
    let mut engine = open(Vec::new(), None, Records::new());
    assert!(engine.converge(COUNTED).expect("converges").apply.all_ok());
    let id = engine.state().resources()["aws_vpc.v[1]"].id.clone();
    let cloud = engine.cloud_mut();
    cloud.out_of_band_delete("intern", &id).expect("deletes");
    let report = engine.refresh().expect("the refresh commits");
    assert_eq!(report.missing.len(), 1);
    plans_as_cold(engine, &[COUNTED]);
}

/// A counted VPC whose CIDRs a `locals` list holds, a subnet in its second
/// instance and a bucket named after its first.
const READERS: &str = r#"locals {
  cidrs = ["10.0.0.0/16", "10.1.0.0/16"]
}
resource "aws_vpc" "v" {
  count      = 2
  cidr_block = local.cidrs[count.index]
}
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v[1].id
  cidr_block = "10.1.1.0/24"
}
resource "aws_s3_bucket" "g" {
  bucket = "logs-${aws_vpc.v[0].id}"
}
"#;

/// An edit that replaces `v[1]` replaces what reads `v[1]` and nothing that
/// reads `v[0]`: the subnet plans a replace and the bucket nothing, in an
/// engine warm from the image and in a cold one. After the apply no live
/// record names an id the cloud no longer holds.
#[test]
fn replacing_one_instance_replaces_its_readers_alone() {
    let (log, image, records) = converged(standard(), READERS);
    let edited = READERS.replace("\"10.1.0.0/16\"", "\"10.1.0.0/17\"");
    let mut warm = open(log.clone(), Some(image), records.clone());
    let (plan, trace) = warm.plan_incremental(&edited).expect("the edit plans");
    assert!(trace.to_string().contains("image: loaded"), "{trace}");
    let mut cold = open(log, None, records);
    assert_eq!(plan, cold.plan_incremental(&edited).expect("plans").0);
    for replaced in ["-/+ aws_vpc.v[1]", "-/+ aws_subnet.s"] {
        assert!(plan.contains(replaced), "{plan}");
    }
    assert!(!plan.contains("aws_vpc.v[0]"), "{plan}");
    assert!(!plan.contains("aws_s3_bucket.g"), "{plan}");

    let held: Vec<ResourceId> = warm.cloud().export_records().keys().cloned().collect();
    assert!(warm.converge(&edited).expect("converges").apply.all_ok());
    let live = warm.cloud().export_records();
    let deleted: Vec<&ResourceId> = held.iter().filter(|id| !live.contains_key(*id)).collect();
    assert_eq!(deleted.len(), 2, "v[1] and the subnet were replaced");
    for record in live.values() {
        for (name, value) in &record.attrs {
            let names = |id: &&ResourceId| value.as_str() == Some(id.as_str());
            assert!(
                !deleted.iter().any(names),
                "{}: {name} = {value:?}",
                record.id
            );
        }
    }
}

/// A rollback of the state document settles the plan cache like any other
/// commit: after an apply of the edit and a rollback to the base, the next
/// plan of each program visits the rolled-back instances and their readers
/// at most — here the two buckets, which nothing reads — never every
/// instance, and plans what a cold engine plans.
#[test]
fn a_state_rollback_settles_as_cold() {
    let config = Config {
        recorder: FlightRecorder::shared(16),
        ..standard()
    };
    let (store, _) = LogStore::open_device(Box::new(MemDevice::new().imaged(None))).expect("opens");
    let mut engine = Cloudless::with_store(config, store, Records::new());
    let edited = edited();
    for source in [SRC, &edited] {
        assert!(engine.converge(source).expect("converges").apply.all_ok());
    }
    let rolled = engine.rollback_state(1).expect("serial 1 is committed");
    assert_eq!(rolled, Some(3));
    let version = engine.history().latest().expect("the rollback's version");
    assert_eq!(version.delta_len(), 2, "the buckets' acl");
    let planned = |e: &Cloudless| {
        let metrics = e.metrics().expect("a flight recorder keeps metrics");
        metrics.counter("pipeline.instances_planned")
    };
    let mut plans = Vec::new();
    for source in [SRC, &edited] {
        let before = planned(&engine);
        let (plan, trace) = engine.plan_incremental(source).expect("the program plans");
        assert!(!trace.to_string().contains("re-diffed"), "{trace}");
        assert!(planned(&engine) - before <= 2, "{trace}");
        plans.push(plan);
    }
    let (log, _, records) = close(engine);
    for (source, plan) in [SRC, &edited].into_iter().zip(plans) {
        let mut cold = open(log.clone(), None, records.clone());
        assert_eq!(plan, cold.plan_incremental(source).expect("plans").0);
    }
}

/// An image of another serial warms the front end of the next process, not
/// its plan, so that process writes the image again: after a fresh engine
/// commits a refresh of drift before any run — no memo follows that commit
/// — a `plan` leaves an image of the head's serial, and the next engine's
/// first run plans the edit alone, as cold.
#[test]
fn a_plan_after_a_commit_no_memo_followed_writes_the_image_again() {
    let (log, image, records) = converged(standard(), SRC);
    let mut refresher = open(log, Some(image), records);
    let id = (refresher.state().resources().values().next())
        .expect("the program deployed")
        .id
        .clone();
    let drift = Attrs::from_iter([("acl".to_owned(), Value::from("public-read"))]);
    (refresher.cloud_mut())
        .out_of_band_update("intern", &id, drift)
        .expect("drifts");
    let report = refresher.refresh().expect("the refresh commits");
    assert_eq!(report.updated.len(), 1);
    let (log, image, records) = close(refresher);

    let mut planner = open(log, image, records);
    let head = planner.state().serial;
    let stale = planner.check_memo_image();
    assert!(
        matches!(stale, Ok(Some(serial)) if serial < head),
        "{stale:?}"
    );
    planner.plan(&edited(), &[]).expect("the edit plans");
    let written = planner.check_memo_image();
    assert!(
        matches!(written, Ok(Some(serial)) if serial == head),
        "{written:?}"
    );
    let (log, image, records) = close(planner);
    let (plan, trace) = first_run(standard(), &log, image, &records);
    assert!(trace.contains("plans the edit"), "{trace}");
    assert_eq!(plan, first_run(standard(), &log, None, &records).0);
}

/// A `for_each` key with a quote or a backslash is written to the log
/// escaped, and the commit reads it back exactly: after an apply that
/// creates such instances, and one that updates them, the next plan of the
/// program applied is a no-op from the plan cache, in the same engine and
/// in a fresh one warm from the image, as a cold engine plans it.
#[test]
fn a_key_with_a_quote_or_a_backslash_settles_as_cold() {
    const KEYED: &str = r#"resource "aws_s3_bucket" "logs" {
  for_each = { "a\"b" = "one", "x\\y" = "two", "[0]" = "three" }
  bucket   = "logs-${each.value}"
  acl      = "private"
}
"#;
    let edited = KEYED.replace("\"private\"", "\"public-read\"");
    let (store, _) = LogStore::open_device(Box::new(MemDevice::new().imaged(None))).expect("opens");
    let mut engine = Cloudless::with_store(standard(), store, Records::new());
    for source in [KEYED, &edited] {
        assert!(engine.converge(source).expect("converges").apply.all_ok());
        let (plan, trace) = engine.plan_incremental(source).expect("the program plans");
        assert!(trace.to_string().contains("plan: cached"), "{trace}");
        assert!(
            plan.contains("Plan: 0 to add, 0 to change, 0 to destroy."),
            "{plan}"
        );
    }
    assert_eq!(engine.state().resources().len(), 3);
    plans_as_cold(engine, &[&edited, KEYED]);
}
