//! Infrastructure rollback runs through the executor every apply uses, so
//! an estate with edges rolls back in dependency order with live ids, a
//! failed node costs its dependents nothing, and the commit path is the
//! converge one.

mod common;

use std::sync::atomic::Ordering;

use cloudless::cloud::FaultPlan;
use cloudless::deploy::{ApplyReport, NodeResult};
use cloudless::types::{ResourceAddr, Value};
use cloudless::{Cloudless, Config};
use common::{config, flaky_engine};

/// vpc → subnet → `vms` machines, on the given /16.
fn chain(net: u8, vms: usize) -> String {
    format!(
        r#"
resource "aws_vpc" "v" {{ cidr_block = "10.{net}.0.0/16" }}
resource "aws_subnet" "s" {{
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.{net}.1.0/24"
}}
resource "aws_virtual_machine" "vm" {{
  count     = {vms}
  name      = "vm-${{count.index}}"
  subnet_id = aws_subnet.s.id
}}
"#
    )
}

fn addr(s: &str) -> ResourceAddr {
    s.parse().expect("address")
}

fn attr(engine: &Cloudless, a: &str, name: &str) -> Value {
    let deployed = engine.state().get(&addr(a));
    let value = deployed.and_then(|r| r.attr(name));
    value.unwrap_or_else(|| panic!("{a}.{name}")).clone()
}

fn id(engine: &Cloudless, a: &str) -> Value {
    Value::from(engine.state().get(&addr(a)).expect(a).id.as_str())
}

/// Deploy `v1`, remember its serial, then converge `v2`.
fn deployed(engine: &mut Cloudless, v1: &str, v2: &str) -> u64 {
    assert!(engine.converge(v1).expect("v1").apply.all_ok());
    let checkpoint = engine.history().latest().expect("v1 committed").serial;
    assert!(engine.converge(v2).expect("v2").apply.all_ok());
    checkpoint
}

fn roll_back(engine: &mut Cloudless, checkpoint: u64) -> ApplyReport {
    let plan = engine.plan_rollback_to(checkpoint).expect("plans");
    engine.execute_rollback(&plan).expect("commits")
}

/// Every managed resource is in the cloud exactly as state records it, and
/// the cloud holds `unmanaged` records besides.
fn assert_state_is_the_cloud(engine: &Cloudless, unmanaged: usize) {
    let records = engine.cloud().records();
    for r in engine.state().resources().values() {
        let live = records.get(&r.id);
        let live = live.unwrap_or_else(|| panic!("{} is in state only", r.addr));
        assert_eq!(live.attrs, r.attrs, "{}", r.addr);
    }
    assert_eq!(records.len(), engine.state().len() + unmanaged);
}

/// `v1` is the fixpoint again: it re-plans empty, and so does the rollback.
fn assert_restored(engine: &mut Cloudless, v1: &str, checkpoint: u64) {
    let replan = engine.plan(v1, &[]).expect("v1 is admitted");
    assert!(replan.plan.is_empty(), "{}", replan.plan_text);
    let again = engine.plan_rollback_to(checkpoint).expect("plans");
    assert!(again.plan.is_empty(), "managed attributes still diverge");
}

#[test]
fn a_replaced_chain_rolls_back_in_dependency_order_with_live_ids() {
    let mut engine = Cloudless::new(config());
    let (v1, v2) = (chain(0, 1), chain(9, 1));
    let checkpoint = deployed(&mut engine, &v1, &v2);
    let dead_vpc = engine.state_at(checkpoint).expect("v1").resources()["aws_vpc.v"]
        .id
        .clone();

    let plan = engine.plan_rollback_to(checkpoint).expect("plans");
    // vpc and subnet must be rebuilt; the machine follows its subnet in place
    assert_eq!((plan.redeployments(), plan.reverts()), (2, 1));
    let report = engine.execute_rollback(&plan).expect("commits");
    assert!(report.all_ok(), "{:?}", report.errors());
    assert_eq!(report.ops_submitted, 5);

    assert_eq!(
        attr(&engine, "aws_vpc.v", "cidr_block"),
        Value::from("10.0.0.0/16")
    );
    assert_eq!(
        attr(&engine, "aws_subnet.s", "cidr_block"),
        Value::from("10.0.1.0/24")
    );
    // the checkpoint's VPC id died with the first replace: the subnet is
    // built against the VPC that exists now
    let vpc_id = attr(&engine, "aws_subnet.s", "vpc_id");
    assert_eq!(vpc_id, id(&engine, "aws_vpc.v"));
    assert_ne!(vpc_id, Value::from(dead_vpc.as_str()));
    assert_eq!(
        attr(&engine, "aws_virtual_machine.vm[0]", "subnet_id"),
        id(&engine, "aws_subnet.s")
    );
    assert_state_is_the_cloud(&engine, 0);
    assert_restored(&mut engine, &v1, checkpoint);
    let log: Vec<_> = engine.history().iter().map(|v| &v.message).collect();
    assert_eq!(
        log.last().expect("committed").as_str(),
        "rollback via critical-path"
    );
}

#[test]
fn a_destroyed_estate_is_rebuilt_from_the_checkpoint() {
    let mut engine = Cloudless::new(config());
    let v1 = format!(
        "{}output \"subnet\" {{ value = aws_subnet.s.cidr_block }}\n",
        chain(0, 2)
    );
    let checkpoint = deployed(&mut engine, &v1, "");
    assert!(engine.state().is_empty() && engine.outputs().is_empty());

    let report = roll_back(&mut engine, checkpoint);
    assert!(report.all_ok(), "{:?}", report.errors());
    assert_eq!(report.ops_submitted, 4);
    assert_eq!(engine.state().len(), 4);
    // creates wait for what they refer to
    let created = |a: &str| engine.state().get(&addr(a)).expect(a).created_at;
    assert!(created("aws_vpc.v") < created("aws_subnet.s"));
    assert!(created("aws_subnet.s") < created("aws_virtual_machine.vm[1]"));
    assert_eq!(
        engine.outputs().get("subnet"),
        Some(&Value::from("10.0.1.0/24")),
        "the checkpoint's outputs come back with it"
    );
    assert_state_is_the_cloud(&engine, 0);
    assert_restored(&mut engine, &v1, checkpoint);
}

#[test]
fn a_shrunk_fleet_grows_back() {
    let mut engine = Cloudless::new(config());
    let (v1, v2) = (chain(0, 3), chain(0, 1));
    let checkpoint = deployed(&mut engine, &v1, &v2);
    assert_eq!(engine.state().len(), 3);

    let plan = engine.plan_rollback_to(checkpoint).expect("plans");
    assert_eq!((plan.redeployments(), plan.reverts()), (2, 0));
    let report = engine.execute_rollback(&plan).expect("commits");
    assert!(report.all_ok(), "{:?}", report.errors());
    assert_eq!(report.ops_submitted, 2, "the survivors are left alone");
    assert_eq!(
        attr(&engine, "aws_virtual_machine.vm[2]", "subnet_id"),
        id(&engine, "aws_subnet.s")
    );
    assert_state_is_the_cloud(&engine, 0);
    assert_restored(&mut engine, &v1, checkpoint);
}

#[test]
fn a_failed_node_skips_its_dependents_and_a_second_rollback_finishes() {
    // one subnet per region: a rogue one makes the subnet's re-create fail
    let mut limited = config();
    limited.cloud.quota_overrides.insert("aws_subnet".into(), 1);
    let mut engine = Cloudless::new(limited);
    let (v1, v2) = (chain(0, 1), chain(9, 1));
    let checkpoint = deployed(&mut engine, &v1, &v2);
    let live_vpc = id(&engine, "aws_vpc.v");
    let rogue = [
        ("vpc_id".to_owned(), live_vpc),
        ("cidr_block".to_owned(), Value::from("10.9.7.0/24")),
    ];
    let cloud = engine.cloud_mut();
    let rogue = cloud.out_of_band_create("intern", "aws_subnet", "us-east-1", rogue.into());
    let rogue = rogue.expect("the rogue subnet fits its VPC");
    let vm_before = engine
        .state()
        .get(&addr("aws_virtual_machine.vm[0]"))
        .cloned();

    let report = roll_back(&mut engine, checkpoint);
    assert_eq!((report.failures(), report.skips()), (1, 1));
    assert!(report.results["aws_vpc.v"].is_ok());
    let NodeResult::Failed { error, .. } = &report.results["aws_subnet.s"] else {
        panic!("{:?}", report.results);
    };
    assert_eq!(error.code, "QuotaExceeded");
    // the subnet went only because its re-create was on its way, in plan
    // order (VPC first) …
    assert_eq!(report.node_stats["aws_subnet.s"].attempts, 2);
    assert!(engine.state().get(&addr("aws_subnet.s")).is_none());
    // … and the machine behind it was never touched
    assert_eq!(
        report.results["aws_virtual_machine.vm[0]"],
        NodeResult::Skipped {
            blocked_on: addr("aws_subnet.s")
        }
    );
    assert_eq!(report.node_stats["aws_virtual_machine.vm[0]"].attempts, 0);
    assert_eq!(
        engine
            .state()
            .get(&addr("aws_virtual_machine.vm[0]"))
            .cloned(),
        vm_before
    );
    // what ran is committed: state says exactly what the cloud holds
    assert_state_is_the_cloud(&engine, 1);

    engine
        .cloud_mut()
        .out_of_band_delete("intern", &rogue)
        .expect("deletes");
    let report = roll_back(&mut engine, checkpoint);
    assert!(report.all_ok(), "{:?}", report.errors());
    assert_eq!(
        report.ops_submitted, 2,
        "the subnet, then the machine onto it"
    );
    assert_state_is_the_cloud(&engine, 0);
    assert_restored(&mut engine, &v1, checkpoint);
}

#[test]
fn an_attribute_no_schema_declares_is_not_the_rollbacks_to_unset() {
    let mut engine = Cloudless::new(config());
    let v1 = chain(0, 1);
    assert!(engine.converge(&v1).expect("v1").apply.all_ok());
    let checkpoint = engine.history().latest().expect("v1 committed").serial;
    // out of band: a name the program could set, and a setting no schema
    // declares, which only the out-of-band path accepts
    let vpc = engine
        .state()
        .get(&addr("aws_vpc.v"))
        .expect("vpc")
        .id
        .clone();
    let drift = [("name", "renamed"), ("bogus_attribute", "x")];
    let drift = drift.map(|(k, v)| (k.to_owned(), Value::from(v)));
    let cloud = engine.cloud_mut();
    cloud
        .out_of_band_update("legacy", &vpc, drift.into())
        .expect("applies");

    let plan = engine.plan_rollback_to(checkpoint).expect("plans");
    assert_eq!((plan.redeployments(), plan.reverts()), (0, 1));
    let report = engine.execute_rollback(&plan).expect("commits");
    assert!(report.all_ok(), "{:?}", report.errors());
    let live = &engine.cloud().records()[&vpc].attrs;
    assert_eq!(
        (live.get("name"), live.get("bogus_attribute")),
        (None, Some(&Value::from("x")))
    );
    assert_state_is_the_cloud(&engine, 0);
    assert_restored(&mut engine, &v1, checkpoint);
}

#[test]
fn rollback_retries_transient_faults() {
    let mut engine = Cloudless::new(Config {
        seed: 1234,
        ..config()
    });
    let checkpoint = deployed(&mut engine, &chain(0, 4), &chain(9, 4));
    let faults = FaultPlan {
        transient_failure_rate: 0.4,
        ..FaultPlan::none()
    };
    engine.cloud_mut().set_fault_plan(faults);
    let report = roll_back(&mut engine, checkpoint);
    assert!(report.retries > 0, "the seed injects at least one fault");
    assert!(report.all_ok(), "{:?}", report.errors());
    assert_state_is_the_cloud(&engine, 0);
}

#[test]
fn a_refused_commit_is_kept_and_the_retry_submits_nothing() {
    let (mut engine, healthy, _) = flaky_engine();
    let (v1, v2) = (chain(0, 1), chain(9, 1));
    let checkpoint = deployed(&mut engine, &v1, &v2);
    let plan = engine.plan_rollback_to(checkpoint).expect("plans");
    let versions = engine.history().len();

    healthy.store(false, Ordering::SeqCst);
    let err = engine
        .execute_rollback(&plan)
        .expect_err("the commit cannot land");
    assert!(err.to_string().contains("no space left"), "{err}");
    assert_eq!(engine.history().len(), versions);
    // while the log is down nothing else runs
    let calls = engine.cloud().total_api_calls();
    assert!(engine.plan_rollback_to(checkpoint).is_err());
    assert!(engine.execute_rollback(&plan).is_err());
    assert_eq!(engine.cloud().total_api_calls(), calls);

    healthy.store(true, Ordering::SeqCst);
    let report = roll_back(&mut engine, checkpoint);
    assert_eq!(report.ops_submitted, 0, "the kept snapshot went in first");
    assert_eq!(
        engine.history().len(),
        versions + 2,
        "the refused version, then the retry's"
    );
    assert_state_is_the_cloud(&engine, 0);
    assert_restored(&mut engine, &v1, checkpoint);
}
