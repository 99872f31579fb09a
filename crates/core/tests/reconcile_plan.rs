//! `reconcile` decides with the call every other verb decides with: its dry
//! run is refused by whatever refuses its real run, before either writes
//! anything, and a plan over a state nobody committed neither reads nor
//! leaves plan-stage artifacts in the pipeline memo. What a reconcile takes
//! from the memo — the expansion of its input, the plan of an adoption that
//! changed nothing — it takes with a cold run's result, round after round of
//! drift. And what it reads of the cloud is what the activity log names, and
//! what it goes through of the program is what drifted: counted, so exact
//! on any host.

mod common;

use cloudless::cloud::{Catalog, CloudConfig};
use cloudless::obs::FlightRecorder;
use cloudless::types::value::attrs;
use cloudless::types::{ResourceId, Value};
use cloudless::{Cloudless, Config, ConvergeError};

const WEB: &str = r#"
resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "app" {
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}
resource "aws_virtual_machine" "web" {
  count     = 2
  name      = "web-${count.index}"
  subnet_id = aws_subnet.app.id
}
"#;

fn deployed() -> Cloudless {
    let mut e = Cloudless::new(common::config());
    assert!(e.converge(WEB).expect("deploys").apply.all_ok());
    e
}

#[test]
fn dry_run_and_real_run_are_refused_by_the_same_gate_before_any_write() {
    let mut e = deployed();
    // 2 VMs = $140/month: the estate is over a budget set after the deploy
    let policy = cloudless::policy::BudgetPolicy {
        monthly_budget: 50.0,
    };
    e.controller_mut().register(Box::new(policy));
    e.cloud_mut()
        .out_of_band_create(
            "clickops",
            "aws_s3_bucket",
            "us-east-1",
            attrs([("bucket", Value::from("shadow-data"))]),
        )
        .unwrap();
    let (versions, state) = (e.history().len(), e.state().to_json());
    let writes = e.cloud().activity().len();
    for dry_run in [true, false] {
        let err = e.reconcile(WEB, dry_run).unwrap_err();
        assert!(
            matches!(err, ConvergeError::PolicyDenied(_)),
            "dry_run={dry_run}: {err:?}"
        );
        assert_eq!(e.history().len(), versions, "dry_run={dry_run}");
        assert_eq!(e.state().to_json(), state, "dry_run={dry_run}");
        assert_eq!(e.cloud().activity().len(), writes, "dry_run={dry_run}");
    }
}

/// The three-block program with `web[0]` renamed out of band: drift on one
/// instance of a counted block has no literal edit, so the residual plan
/// overwrites it.
fn renamed() -> Cloudless {
    let mut e = deployed();
    let web0 = "aws_virtual_machine.web[0]".parse().unwrap();
    let id = e.state().get(&web0).unwrap().id.clone();
    e.cloud_mut()
        .out_of_band_update(
            "cowboy",
            &id,
            attrs([("name", Value::from("hand-renamed"))]),
        )
        .unwrap();
    e
}

fn assert_previews_the_overwrite(e: &mut Cloudless) -> String {
    let preview = e.reconcile(WEB, true).expect("dry run");
    assert!(!preview.converged, "{}", preview.plan_text);
    assert!(
        preview.plan_text.contains("~ aws_virtual_machine.web[0]"),
        "{}",
        preview.plan_text
    );
    preview.patched_source
}

fn assert_plans_as_cold(e: &mut Cloudless, source: &str) {
    let warm = e.plan(source, &[]).expect("plans").plan_text;
    e.clear_pipeline_cache();
    let cold = e.plan(source, &[]).expect("plans").plan_text;
    assert_eq!(warm, cold);
}

/// What the plan stage of a plan of `source` says it visited.
fn replanned(e: &mut Cloudless, source: &str) -> String {
    let (_, trace) = e.plan_incremental(source).expect("plans");
    let plan = trace.stages.iter().find(|s| s.stage == "plan");
    plan.map(|s| s.detail.clone()).unwrap_or_default()
}

#[test]
fn a_dry_run_leaves_no_plan_artifacts_for_the_next_plan() {
    let mut e = renamed();
    let patched = assert_previews_the_overwrite(&mut e);
    assert_plans_as_cold(&mut e, &patched);
}

#[test]
fn a_dry_run_reads_no_plan_artifacts_of_the_plan_before_it() {
    let mut e = renamed();
    // against the committed state, which the drift never reached, the
    // program is a fixpoint: that is the cached answer the dry run must
    // not be served
    assert!(e.plan(WEB, &[]).expect("plans").plan.is_empty());
    let patched = assert_previews_the_overwrite(&mut e);
    // and the cache owes the committed state a plan of what the dry run
    // planned over its adopted state: the drifted instance, alone
    let visited = replanned(&mut e, &patched);
    assert!(visited.starts_with("re-planned 1/4"), "{visited}");
    assert_plans_as_cold(&mut e, &patched);
}

/// `WEB` with a line added to its first block: the memo the edit leaves
/// holds the later blocks' spans from before it, one line off.
fn edited() -> String {
    WEB.replace(
        "resource \"aws_vpc\" \"main\" { cidr_block = \"10.0.0.0/16\" }",
        "resource \"aws_vpc\" \"main\" {\n  cidr_block = \"10.0.0.0/16\"\n  name = \"main\"\n}",
    )
}

/// What one reconcile said and left, as text.
fn reconciled(e: &mut Cloudless, source: &str, dry_run: bool) -> [String; 4] {
    let r = e.reconcile(source, dry_run).expect("reconciles");
    let ops = format!("{:?} {:?} {:?}", r.plan.ops, r.plan.moves, r.plan.imports);
    [r.patched_source, ops, r.plan_text, e.state().to_json()]
}

/// Round `round` of out-of-band drift on the reconciled estate: every class
/// the classifier adopts or overwrites, across the rounds.
fn drift(e: &mut Cloudless, round: usize) {
    let id = |e: &Cloudless, addr: &str| e.state().get_str(addr).unwrap().id.clone();
    let update = |e: &mut Cloudless, addr: &str, attr: &str, value: &str| {
        let id = id(e, addr);
        let drifted = attrs([(attr, Value::from(value))]);
        e.cloud_mut()
            .out_of_band_update("cowboy", &id, drifted)
            .unwrap();
    };
    let rogue = |e: &mut Cloudless, bucket: &str| {
        let bucket = attrs([("bucket", Value::from(bucket))]);
        let cloud = e.cloud_mut();
        cloud
            .out_of_band_create("clickops", "aws_s3_bucket", "us-east-1", bucket)
            .unwrap();
    };
    match round {
        0 => {
            update(e, "aws_subnet.app", "cidr_block", "10.0.5.0/24");
            update(e, "aws_virtual_machine.web[0]", "name", "hand-renamed");
            rogue(e, "shadow-data");
        }
        1 => {
            let web1 = id(e, "aws_virtual_machine.web[1]");
            e.cloud_mut().out_of_band_delete("intern", &web1).unwrap();
            update(e, "aws_vpc.main", "name", "hand-named");
            update(e, "aws_vpc.main", "tags", "undeclared");
            rogue(e, "second-shadow");
        }
        _ => {
            let shadow = id(e, "aws_s3_bucket.shadow_data");
            e.cloud_mut().out_of_band_delete("intern", &shadow).unwrap();
            update(e, "aws_s3_bucket.second_shadow", "bucket", "renamed-shadow");
            update(e, "aws_virtual_machine.web[0]", "name", "renamed-again");
        }
    }
}

#[test]
fn a_reconcile_from_the_memo_is_the_cold_reconcile() {
    let source = edited();
    // no drift (the adoption changes nothing); drift of every class the
    // classifier adopts or overwrites, round after round in one engine
    for drifted in [false, true] {
        let mut runs = Vec::new();
        for warm in [true, false] {
            let mut e = deployed();
            assert!(e
                .converge(&source)
                .expect("the edit applies")
                .apply
                .all_ok());
            let held = e
                .pipeline()
                .manifest_of(&source, &Default::default())
                .is_some();
            assert!(held, "the converge leaves the memo holding the program");
            let mut program = source.clone();
            let mut rounds = Vec::new();
            for round in 0..3 {
                if drifted {
                    drift(&mut e, round);
                }
                if !warm {
                    e.clear_pipeline_cache();
                }
                let dry = reconciled(&mut e, &program, true);
                let real = reconciled(&mut e, &program, false);
                program = real[0].clone();
                rounds.push((dry, real));
            }
            runs.push(rounds);
        }
        assert_eq!(
            runs[0], runs[1],
            "warm (left) and cold (right), drifted: {drifted}"
        );
    }
}

/// Exact latencies and the bucket quota out of the way.
fn unmetered() -> Config {
    let mut catalog = Catalog::standard();
    let mut bucket = catalog
        .get_str("aws_s3_bucket")
        .expect("a known type")
        .clone();
    bucket.default_quota = u32::MAX;
    catalog.add(bucket);
    let cloud = CloudConfig {
        catalog,
        ..CloudConfig::exact()
    };
    Config {
        cloud,
        recorder: FlightRecorder::shared(16),
        ..common::config()
    }
}

/// The counters of `e` that say how much of the program a reconcile went
/// through: blocks classified, instances planned, parses of the program.
fn work(e: &Cloudless) -> [u64; 3] {
    let m = e.metrics().expect("a flight recorder keeps metrics");
    [
        "reconcile.blocks_classified",
        "pipeline.instances_planned",
        "reconcile.parses",
    ]
    .map(|name| m.counter(name))
}

/// How much more work `e` has counted than `before`.
fn since(e: &Cloudless, before: [u64; 3]) -> [u64; 3] {
    let now = work(e);
    [0, 1, 2].map(|i| now[i] - before[i])
}

/// `blocks` buckets and a fleet of `blocks / 8` more, converged in one
/// engine.
fn estate(blocks: usize) -> (Cloudless, String) {
    let mut source: String = (0..blocks)
        .map(|i| format!("resource \"aws_s3_bucket\" \"b{i}\" {{ bucket = \"b-{i}\" }}\n"))
        .collect();
    source += &format!(
        "resource \"aws_s3_bucket\" \"fleet\" {{\n  count  = {}\n  bucket = \"fleet-${{count.index}}\"\n}}\n",
        blocks / 8
    );
    let mut e = Cloudless::new(unmetered());
    assert!(e.converge(&source).expect("deploys").apply.all_ok());
    (e, source)
}

/// In one engine, the follow-up of a real reconcile reads nothing and a
/// reconcile after `k` out-of-band updates reads at most `k`, whatever the
/// size of the estate; an engine rebuilt over the same state and records —
/// a CLI process — reads every managed resource on its first reconcile.
/// What the reconcile goes through of the program is counted too: the
/// follow-up classifies no block and parses nothing, and after `k` updates
/// it classifies at most `k` blocks and plans at most their instances (the
/// buckets have no dependents).
#[test]
fn a_reconcile_reads_what_the_activity_log_names() {
    for blocks in [2_000, 8_000] {
        let (mut e, source) = estate(blocks);
        let reconciled = |e: &mut Cloudless, source: &str, dry_run: bool| {
            let r = e.reconcile(source, dry_run).expect("reconciles");
            assert!(r.converged, "{}", r.plan_text);
            (r.refresh.reads, r.patched_source)
        };
        let (_, patched) = reconciled(&mut e, &source, false);
        let before = work(&e);
        let (reads, _) = reconciled(&mut e, &patched, true);
        assert_eq!(reads, 0, "the clean follow-up at {blocks} blocks");
        let [classified, _, parses] = since(&e, before);
        assert_eq!(
            (classified, parses),
            (0, 0),
            "the clean follow-up at {blocks} blocks"
        );

        let k = 5;
        let every = e.state().len() / k;
        let drifted = e.state().resources().values().step_by(every);
        let drifted: Vec<ResourceId> = drifted.map(|r| r.id.clone()).collect();
        for id in &drifted {
            let tags = attrs([("tags", Value::from("drifted"))]);
            e.cloud_mut()
                .out_of_band_update("intern", id, tags)
                .unwrap();
        }
        let before = work(&e);
        let (reads, _) = reconciled(&mut e, &patched, false);
        assert!(
            reads as usize <= drifted.len(),
            "{reads} reads after {drifted:?}"
        );
        let [classified, planned, parses] = since(&e, before);
        let k = drifted.len() as u64;
        assert!(
            classified <= k && planned <= k && parses == 0,
            "after {k} updates at {blocks} blocks: {classified} block(s) classified, \
             {planned} instance(s) planned, {parses} parse(s)"
        );

        let (state, records) = (e.state().clone(), e.cloud().records().clone());
        let mut reloaded = Cloudless::with_session(unmetered(), state, records);
        let (reads, _) = reconciled(&mut reloaded, &patched, true);
        assert_eq!(
            reads as usize,
            reloaded.state().len(),
            "a session engine's first"
        );
    }
}
