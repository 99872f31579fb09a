//! The headline round-trip invariant, end to end through the engine:
//! for arbitrary generated out-of-band mutation sequences,
//! `reconcile(mutate(apply(p)))` patches `p` into a program that re-plans
//! to an **empty diff** — and a second reconcile of the patched program is
//! a fixpoint. Plus: scenario families from the adversarial generator hold
//! the invariant for arbitrary seeds, with oracle-exact patches. And a
//! refresh from the engine's sync point finds what a full refresh finds,
//! over arbitrary sequences of drift, applies, refreshes, reconciles,
//! rollbacks, record imports and failing reads; and a reconcile that reads
//! the blocks the memo names and plans the delta decides what a cold one
//! over every block decides.

use cloudless::cloud::{CloudConfig, FaultPlan};
use cloudless::deploy::full_refresh;
use cloudless::obs::FlightRecorder;
use cloudless::state::Snapshot;
use cloudless::types::value::attrs;
use cloudless::types::{ResourceAddr, Value};
use cloudless::{Cloudless, Config};
use cloudless_bench::scenarios::{generate, Family};
use proptest::prelude::*;

const SRC: &str = r#"
resource "aws_vpc" "net" { cidr_block = "10.0.0.0/16" }
resource "aws_s3_bucket" "fleet" {
  count  = 3
  bucket = "fleet-${count.index}"
}
resource "aws_s3_bucket" "solo" { bucket = "solo-data" }
resource "aws_s3_bucket" "spare" { bucket = "spare-data" }
"#;

fn deployed() -> Cloudless {
    let mut e = Cloudless::new(Config {
        cloud: CloudConfig::exact(),
        seed: 1234,
        ..Config::default()
    });
    e.converge(SRC).expect("base deploy");
    e
}

/// (kind, target index, payload): 0 = delete managed, 1 = edit a managed
/// attr, 2 = rogue create.
type Mutation = (usize, usize, String);

fn mutate(e: &mut Cloudless, muts: &[Mutation]) -> usize {
    let mut applied = 0;
    for (kind, target, payload) in muts {
        let addrs: Vec<_> = e.state().resources().keys().cloned().collect();
        match kind % 3 {
            0 => {
                let addr = addrs[target % addrs.len()].parse().unwrap();
                if let Some(r) = e.state().get(&addr) {
                    let id = r.id.clone();
                    if e.cloud_mut().out_of_band_delete("chaos", &id).is_ok() {
                        applied += 1;
                    }
                }
            }
            1 => {
                let addr = addrs[target % addrs.len()].parse().unwrap();
                if let Some(r) = e.state().get(&addr) {
                    let id = r.id.clone();
                    let attr = if r.rtype.as_str() == "aws_vpc" {
                        "name"
                    } else {
                        "bucket"
                    };
                    if e.cloud_mut()
                        .out_of_band_update(
                            "chaos",
                            &id,
                            attrs([(attr, Value::from(format!("drift-{payload}")))]),
                        )
                        .is_ok()
                    {
                        applied += 1;
                    }
                }
            }
            _ => {
                if e.cloud_mut()
                    .out_of_band_create(
                        "chaos",
                        "aws_s3_bucket",
                        "us-east-1",
                        attrs([("bucket", Value::from(format!("rogue-{payload}")))]),
                    )
                    .is_ok()
                {
                    applied += 1;
                }
            }
        }
    }
    applied
}

fn gen_mutations() -> impl Strategy<Value = Vec<Mutation>> {
    proptest::collection::vec((0usize..3, 0usize..16, "[a-z]{1,6}"), 0..6)
}

/// One step of a refresh sequence: (what, which resource or version,
/// payload).
type Step = (usize, usize, usize);

fn gen_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0usize..10, 0usize..16, 0usize..8), 1..24)
}

/// The programs a sequence converges: `SRC`, a grown and a shrunk fleet, a
/// renamed bucket, a block gone.
fn programs() -> [String; 5] {
    [
        SRC.to_owned(),
        SRC.replace("count  = 3", "count  = 4"),
        SRC.replace("count  = 3", "count  = 2"),
        SRC.replace("solo-data", "solo-v2"),
        SRC.replace(
            "resource \"aws_s3_bucket\" \"spare\" { bucket = \"spare-data\" }\n",
            "",
        ),
    ]
}

fn faults(reads_fail: bool) -> FaultPlan {
    FaultPlan {
        read_failure_rate: if reads_fail { 0.5 } else { 0.0 },
        ..FaultPlan::none()
    }
}

/// What a full refresh finds over a clone of `state` (updated, missing),
/// with no read failing.
fn full_scan(e: &mut Cloudless, state: &Snapshot, reads_fail: bool) -> [Vec<ResourceAddr>; 2] {
    e.cloud_mut().set_fault_plan(FaultPlan::none());
    let report = full_refresh(e.cloud_mut(), &mut state.clone(), "checker");
    e.cloud_mut().set_fault_plan(faults(reads_fail));
    [report.updated, report.missing]
}

/// The committed state matches the cloud: a full refresh over it finds
/// nothing.
fn assert_in_sync(e: &mut Cloudless, reads_fail: bool, after: &str) {
    let committed = e.state().clone();
    let found = full_scan(e, &committed, reads_fail);
    assert_eq!(found, [vec![], vec![]], "after {after}: (updated, missing)");
}

/// Run one sequence, checking as it goes.
fn run_steps(steps: &[Step]) {
    let mut e = deployed();
    let programs = programs();
    let (mut program, mut reads_fail) = (SRC.to_owned(), false);
    for (i, &(what, which, payload)) in steps.iter().enumerate() {
        let addrs: Vec<ResourceAddr> = e.state().addrs();
        let managed = addrs
            .get(which % addrs.len().max(1))
            .and_then(|a| e.state().get(a));
        let id = managed.map(|r| r.id.clone());
        let after = format!("step {i} of {steps:?}");
        match what {
            0 | 1 => {
                if let (Some(id), Some(r)) = (&id, managed) {
                    let attr = match (r.rtype.as_str(), payload % 2) {
                        ("aws_vpc", _) => "name",
                        (_, 0) => "bucket",
                        _ => "tags",
                    };
                    let drift = attrs([(attr, Value::from(format!("drift-{payload}")))]);
                    let _ = e.cloud_mut().out_of_band_update("chaos", id, drift);
                }
            }
            2 => {
                if let Some(id) = &id {
                    let _ = e.cloud_mut().out_of_band_delete("chaos", id);
                }
            }
            3 => {
                let bucket = attrs([("bucket", Value::from(format!("rogue-{payload}")))]);
                let cloud = e.cloud_mut();
                let _ = cloud.out_of_band_create("chaos", "aws_s3_bucket", "us-east-1", bucket);
            }
            4 => {
                program = programs[payload % programs.len()].clone();
                let _ = e.converge(&program);
            }
            5 => {
                let report = e.refresh().expect("an in-memory log commits");
                if report.unsettled.is_empty() {
                    assert_in_sync(&mut e, reads_fail, &after);
                }
            }
            6 => {
                let before = e.state().clone();
                let expected = full_scan(&mut e, &before, reads_fail);
                if let Ok(r) = e.reconcile(&program, true) {
                    if r.refresh.unsettled.is_empty() {
                        let found = [r.refresh.updated, r.refresh.missing];
                        assert_eq!(found, expected, "dry run, {after}: (updated, missing)");
                    }
                }
            }
            7 => {
                if let Ok(r) = e.reconcile(&program, false) {
                    program = r.patched_source;
                    if r.refresh.unsettled.is_empty() {
                        assert_in_sync(&mut e, reads_fail, &after);
                    }
                }
            }
            8 => {
                let serials: Vec<u64> = e.history().iter().map(|v| v.serial).collect();
                let _ = e.rollback_state(serials[which % serials.len()]);
            }
            9 if payload < 4 => {
                // records replaced wholesale: one changed or one gone
                let mut records = e.cloud().records().clone();
                if let Some(id) = &id {
                    match payload % 2 {
                        0 => drop(records.remove(id)),
                        _ => {
                            if let Some(rec) = records.get_mut(id) {
                                let tags = Value::from(format!("imported-{payload}"));
                                rec.attrs.insert("tags".to_owned(), tags);
                            }
                        }
                    }
                }
                e.cloud_mut().import_records(records);
            }
            _ => {
                reads_fail = !reads_fail;
                e.cloud_mut().set_fault_plan(faults(reads_fail));
            }
        }
    }
}

/// What a dry run of `program` decides, as text: the classification (ops,
/// moves, imports, overwrites and skipped, in order), the patch and the
/// residual plan.
fn decided(e: &mut Cloudless, program: &str) -> Option<[String; 3]> {
    let r = e.reconcile(program, true).ok()?;
    Some([format!("{:?}", r.plan), r.patched_source, r.plan_text])
}

/// Blocks classified so far.
fn classified(e: &Cloudless) -> u64 {
    let metrics = e.metrics().expect("a flight recorder keeps metrics");
    metrics.counter("reconcile.blocks_classified")
}

/// Blocks that read others' records: a drifted `solo.bucket` (which forces
/// a replacement) or `origin.acl` (which does not), or a replaced `net`,
/// changes what they plan to.
const READERS: &str = r#"
resource "aws_s3_bucket" "origin" {
  bucket = "origin-data"
  acl    = "private"
}
resource "aws_s3_bucket" "mirror" {
  bucket = "${aws_s3_bucket.solo.bucket}-mirror"
  acl    = aws_s3_bucket.origin.acl
}
resource "aws_subnet" "app" {
  vpc_id     = aws_vpc.net.id
  cidr_block = "10.0.1.0/24"
}
"#;

/// Run one sequence of drift, converges, edits not applied yet and
/// reconciles, holding at every step that a dry run from the memo — the
/// blocks the refresh and the plan cache name, planned as the committed
/// state plus the adoption — decides what one from a cold memo decides over
/// every block.
fn run_scoped(steps: &[Step]) {
    let mut e = Cloudless::new(Config {
        cloud: CloudConfig::exact(),
        seed: 1234,
        recorder: FlightRecorder::shared(16),
        ..Config::default()
    });
    let programs = programs().map(|program| program + READERS);
    let mut program = programs[0].clone();
    e.converge(&program).expect("base deploy");
    for (i, &(what, which, payload)) in steps.iter().enumerate() {
        let addrs: Vec<ResourceAddr> = e.state().addrs();
        let managed = addrs.get(which % addrs.len().max(1));
        let id = managed.and_then(|a| e.state().get(a)).map(|r| r.id.clone());
        let rtype = managed.map(|a| a.rtype.as_str().to_owned());
        match (what % 6, id) {
            (0, Some(id)) => {
                let attr = match (rtype.as_deref(), payload % 3) {
                    (Some("aws_vpc"), _) => "name",
                    (Some("aws_subnet"), _) => "cidr_block",
                    (_, 0) => "bucket",
                    (_, 1) => "acl",
                    _ => "tags",
                };
                let value = match attr {
                    "cidr_block" => format!("10.0.{}.0/24", 2 + payload),
                    _ => format!("drift-{payload}"),
                };
                let drift = attrs([(attr, Value::from(value))]);
                let _ = e.cloud_mut().out_of_band_update("chaos", &id, drift);
            }
            (1, Some(id)) => drop(e.cloud_mut().out_of_band_delete("chaos", &id)),
            (2, _) => {
                let bucket = attrs([("bucket", Value::from(format!("rogue-{payload}")))]);
                let cloud = e.cloud_mut();
                let _ = cloud.out_of_band_create("chaos", "aws_s3_bucket", "us-east-1", bucket);
            }
            (3, _) => {
                program = programs[payload % programs.len()].clone();
                let _ = e.converge(&program);
            }
            // an edit the state does not hold yet: the plan cache has changes
            (4, _) => program = programs[payload % programs.len()].clone(),
            _ => {
                if let Ok(r) = e.reconcile(&program, false) {
                    program = r.patched_source;
                }
            }
        }
        let plan_text = |e: &mut Cloudless| e.plan(&program, &[]).map(|p| p.plan_text).ok();
        let before = classified(&e);
        let warm = decided(&mut e, &program);
        let scoped = classified(&e) - before;
        // what the dry run planned over its adopted state is not the
        // committed state's plan
        let warm_plan = plan_text(&mut e);
        e.clear_pipeline_cache();
        let before = classified(&e);
        let cold = decided(&mut e, &program);
        let every = classified(&e) - before;
        assert_eq!(
            warm, cold,
            "step {i} of {steps:?}: from the memo (left), cold (right)"
        );
        assert!(
            scoped <= every,
            "step {i}: {scoped} block(s) from the memo, {every} cold"
        );
        // the cold run left the memo cold: this plan warms it again over
        // the committed state, as the engine's own runs would have
        let cold_plan = plan_text(&mut e);
        assert_eq!(
            warm_plan, cold_plan,
            "step {i} of {steps:?}: the plan after a dry run"
        );
    }
}

/// A refresh reads what the log names since the one before: everything the
/// engine created, then nothing, then the one resource drifted; after a
/// rollback of the state document, everything again.
#[test]
fn a_refresh_from_the_sync_point_reads_what_the_log_names() {
    let mut e = deployed();
    let everything = e.state().len() as u64;
    // the engine created every resource it holds: all of them are named
    assert_eq!(e.refresh().expect("commits").reads, everything);
    assert_eq!(e.refresh().expect("commits").reads, 0, "a quiet log");
    let solo = e
        .state()
        .get_str("aws_s3_bucket.solo")
        .expect("deployed")
        .id
        .clone();
    let renamed = attrs([("bucket", Value::from("solo-renamed"))]);
    e.cloud_mut()
        .out_of_band_update("chaos", &solo, renamed)
        .unwrap();
    let report = e.refresh().expect("commits");
    assert_eq!((report.reads, report.updated.len()), (1, 1));
    // a rollback of the state document leaves the sync point behind
    let first = e.history().iter().next().expect("the deploy").serial;
    e.rollback_state(first).expect("rolls back");
    let report = e.refresh().expect("commits");
    assert_eq!((report.reads, report.updated.len()), (everything, 1));
}

proptest! {
    /// Every refresh and every real reconcile whose reads all settled
    /// leaves a committed state a full refresh finds nothing in; every dry
    /// run's refresh finds what a full refresh of the state it started from
    /// does.
    #[test]
    fn a_refresh_from_the_sync_point_finds_what_a_full_refresh_finds(steps in gen_steps()) {
        run_steps(&steps);
    }

    /// Whatever drift, converges and reconciles came before, a reconcile
    /// that classifies the blocks the memo names and plans the adopted
    /// state as a delta on the plan cache decides exactly what one over
    /// every block, planned cold, decides.
    #[test]
    fn a_scoped_reconcile_decides_what_a_cold_one_decides(steps in gen_steps()) {
        run_scoped(&steps);
    }

    /// The round-trip invariant: whatever the mutation sequence did, the
    /// reconciler's patched program re-plans to an empty diff, and
    /// reconciling the patched program again changes nothing.
    #[test]
    fn reconcile_roundtrip_replans_to_empty_diff(muts in gen_mutations()) {
        let mut e = deployed();
        mutate(&mut e, &muts);
        let report = e.reconcile(SRC, false).expect("reconcile succeeds");
        prop_assert!(
            report.converged,
            "not zero-diff after reconcile\nops: {:?}\ndropped: {:?}\nplan:\n{}",
            report.plan.ops,
            report.dropped,
            report.plan_text
        );
        // fixpoint: the patched program is already converged
        let again = e
            .reconcile(&report.patched_source, false)
            .expect("fixpoint reconcile");
        prop_assert!(again.plan.is_empty(), "{:?}", again.plan);
        prop_assert!(again.converged);
        prop_assert_eq!(
            again.apply.as_ref().map(|a| a.ops_submitted),
            Some(0),
            "fixpoint must not touch the cloud"
        );
    }

    /// Dry runs are pure observers: the same mutation sequence reconciled
    /// for real afterwards produces the same patch the dry run predicted.
    #[test]
    fn dry_run_predicts_the_real_patch(muts in gen_mutations()) {
        let mut e = deployed();
        mutate(&mut e, &muts);
        let preview = e.reconcile(SRC, true).expect("dry run");
        prop_assert!(preview.apply.is_none());
        let real = e.reconcile(SRC, false).expect("real run");
        prop_assert_eq!(&preview.patched_source, &real.patched_source);
        prop_assert_eq!(
            format!("{:?}", preview.plan.ops),
            format!("{:?}", real.plan.ops)
        );
        prop_assert!(real.converged);
        // the residual plan the dry run showed is the one the real run ran
        prop_assert_eq!(&preview.plan_text, &real.plan_text);
        prop_assert_eq!(preview.converged, real.apply.unwrap().ops_submitted == 0);
    }

    /// Every adversarial scenario family holds the invariant for arbitrary
    /// seeds — and the emitted patch is oracle-minimal.
    #[test]
    fn scenario_families_reconcile_for_arbitrary_seeds(
        seed in 0u64..500,
        fam in 0usize..Family::ALL.len(),
    ) {
        let sc = generate(Family::ALL[fam], seed);
        let out = sc.run();
        prop_assert!(
            out.converged,
            "{} (seed {seed}) did not converge",
            sc.family.name()
        );
        prop_assert_eq!(
            out.ops,
            out.oracle_ops,
            "{}: non-minimal patch",
            sc.family.name()
        );
    }
}
