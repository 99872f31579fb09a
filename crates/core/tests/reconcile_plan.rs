//! `reconcile` decides with the call every other verb decides with: its dry
//! run is refused by whatever refuses its real run, before either writes
//! anything, and a plan over a state nobody committed neither reads nor
//! leaves plan-stage artifacts in the pipeline memo.

mod common;

use cloudless::types::value::attrs;
use cloudless::types::Value;
use cloudless::{Cloudless, ConvergeError};

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
    assert_plans_as_cold(&mut e, &patched);
}
