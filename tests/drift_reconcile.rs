//! Integration: the §3.5 → §3.6 drift pipeline across crates.

use cloudless::cloud::CloudConfig;
use cloudless::diagnose::DriftKind;
use cloudless::policy::builtin::DriftResponsePolicy;
use cloudless::policy::Action;
use cloudless::types::Value;
use cloudless::{Cloudless, Config};

const SRC: &str = r#"
resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
resource "aws_virtual_machine" "app" {
  count = 3
  name  = "app-${count.index}"
}
resource "aws_s3_bucket" "data" { bucket = "drift-data" }
"#;

fn engine() -> Cloudless {
    let mut e = Cloudless::new(Config {
        cloud: CloudConfig::exact(),
        ..Config::default()
    });
    e.controller_mut().register(Box::new(DriftResponsePolicy));
    e.converge(SRC).expect("deploy");
    e
}

#[test]
fn modification_drift_is_detected_and_stomped() {
    let mut e = engine();
    let vm = e
        .state()
        .get(&"aws_virtual_machine.app[1]".parse().unwrap())
        .unwrap()
        .id
        .clone();
    e.cloud_mut()
        .out_of_band_update(
            "cowboy",
            &vm,
            [("instance_type".to_owned(), Value::from("m5.24xlarge"))].into(),
        )
        .unwrap();

    // watch: exactly one Modified event, attributed, overwrite action
    let (report, actions) = e.watch_drift();
    assert_eq!(report.events.len(), 1);
    assert_eq!(report.events[0].kind, DriftKind::Modified);
    assert_eq!(report.events[0].principal.as_deref(), Some("cowboy"));
    assert!(matches!(actions[0], Action::OverwriteDrift { .. }));

    // reconcile: refresh + re-converge restores the desired config
    e.refresh().expect("refresh commits");
    let out = e.converge(SRC).expect("reconcile");
    assert!(out.apply.all_ok());
    let live = e.cloud().records();
    let rec = live.values().find(|r| r.id == vm).unwrap();
    // instance_type is not in the config, so reconcile *adopts nothing*: the
    // attr is not reverted by a plain re-apply (it was never managed) —
    // but state now reflects reality
    assert_eq!(
        e.state()
            .get(&"aws_virtual_machine.app[1]".parse().unwrap())
            .unwrap()
            .attrs
            .get("instance_type"),
        rec.attrs.get("instance_type"),
    );
}

#[test]
fn deletion_drift_triggers_notify_and_recreate_on_reconverge() {
    let mut e = engine();
    let bucket = e
        .state()
        .get(&"aws_s3_bucket.data".parse().unwrap())
        .unwrap()
        .id
        .clone();
    e.cloud_mut().out_of_band_delete("cowboy", &bucket).unwrap();

    let (report, actions) = e.watch_drift();
    assert_eq!(report.events.len(), 1);
    assert_eq!(report.events[0].kind, DriftKind::Deleted);
    assert!(matches!(actions[0], Action::Notify { .. }));

    // reconcile path: refresh prunes the dead record, converge recreates
    let refresh = e.refresh().expect("refresh commits");
    assert_eq!(refresh.missing.len(), 1);
    let out = e.converge(SRC).expect("reconcile");
    assert!(out.apply.all_ok());
    assert_eq!(out.apply.ops_submitted, 1, "one create");
    assert!(e
        .state()
        .get(&"aws_s3_bucket.data".parse().unwrap())
        .is_some());
}

#[test]
fn unmanaged_resources_are_flagged_but_untouched() {
    let mut e = engine();
    let rogue = e
        .cloud_mut()
        .out_of_band_create(
            "cowboy",
            "aws_s3_bucket",
            "us-east-1",
            [("bucket".to_owned(), Value::from("rogue-bucket"))].into(),
        )
        .unwrap();

    let (report, actions) = e.watch_drift();
    assert_eq!(report.events.len(), 1);
    assert_eq!(report.events[0].kind, DriftKind::Unmanaged);
    assert!(matches!(actions[0], Action::Notify { .. }));

    // converge must NOT destroy what it does not manage
    let out = e.converge(SRC).expect("no-op");
    assert_eq!(out.apply.ops_submitted, 0);
    assert!(e.cloud().records().contains_key(&rogue));
}

#[test]
fn watcher_cursor_survives_across_polls() {
    let mut e = engine();
    let vm = e
        .state()
        .get(&"aws_virtual_machine.app[0]".parse().unwrap())
        .unwrap()
        .id
        .clone();
    // three successive drifts, polled one at a time
    for i in 0..3 {
        e.cloud_mut()
            .out_of_band_update(
                "cowboy",
                &vm,
                [("user_data".to_owned(), Value::from(format!("v{i}")))].into(),
            )
            .unwrap();
        let (report, _) = e.watch_drift();
        assert_eq!(
            report.events.len(),
            1,
            "poll {i} sees exactly one new event"
        );
    }
    let (report, _) = e.watch_drift();
    assert!(report.events.is_empty(), "nothing new");
}

// ---------------------------------------------------------------------------
// The closed loop: `reconcile` folds drift back into the program instead of
// stomping it — classify → synthesize a lint-clean patch → converge →
// zero-diff plan.
// ---------------------------------------------------------------------------

#[test]
fn reconcile_closes_the_loop_on_mixed_drift() {
    let mut e = engine();
    // one attr edit, one fleet deletion, one rogue create — all out of band
    let bucket = e
        .state()
        .get(&"aws_s3_bucket.data".parse().unwrap())
        .unwrap()
        .id
        .clone();
    e.cloud_mut()
        .out_of_band_update(
            "cowboy",
            &bucket,
            [("bucket".to_owned(), Value::from("drift-data-renamed"))].into(),
        )
        .unwrap();
    let vm = e
        .state()
        .get(&"aws_virtual_machine.app[2]".parse().unwrap())
        .unwrap()
        .id
        .clone();
    e.cloud_mut().out_of_band_delete("cowboy", &vm).unwrap();
    e.cloud_mut()
        .out_of_band_create(
            "cowboy",
            "aws_s3_bucket",
            "us-east-1",
            [("bucket".to_owned(), Value::from("rogue-import-me"))].into(),
        )
        .unwrap();

    let report = e.reconcile(SRC, false).expect("reconcile succeeds");
    assert!(report.converged, "patched program re-plans to zero diff");
    assert!(report.dropped.is_empty(), "{:?}", report.dropped);
    // SetAttr + SetCount + AddBlock
    assert_eq!(report.plan.ops.len(), 3, "{:?}", report.plan.ops);
    assert_eq!(report.plan.imports.len(), 1);
    // the patch is committed source: it must itself reconverge to a no-op
    let again = e
        .reconcile(&report.patched_source, false)
        .expect("fixpoint");
    assert!(again.plan.is_empty(), "{:?}", again.plan);
    // and the rogue is now under management
    assert!(e
        .state()
        .resources()
        .keys()
        .any(|a| a.starts_with("aws_s3_bucket.rogue_import_me")));
}

#[test]
fn reconcile_dry_run_previews_without_mutating() {
    let mut e = engine();
    let bucket = e
        .state()
        .get(&"aws_s3_bucket.data".parse().unwrap())
        .unwrap()
        .id
        .clone();
    e.cloud_mut()
        .out_of_band_update(
            "cowboy",
            &bucket,
            [("bucket".to_owned(), Value::from("dry-run-rename"))].into(),
        )
        .unwrap();
    let state_before = e.state().to_json();

    let report = e.reconcile(SRC, true).expect("dry run succeeds");
    assert!(report.dry_run);
    assert!(report.apply.is_none(), "dry run never applies");
    assert!(report.converged, "hypothetical plan is zero-diff");
    assert!(report.patched_source.contains("dry-run-rename"));
    assert_eq!(e.state().to_json(), state_before, "state untouched");

    // the real run afterwards adopts with zero cloud writes
    let report = e.reconcile(SRC, false).expect("real run");
    assert_eq!(report.apply.as_ref().unwrap().ops_submitted, 0);
    assert!(report.converged);
}

#[test]
fn reconcile_refuses_rather_than_emit_a_gated_patch() {
    // deploy under the default gate, then tighten it so the (warning-laden)
    // program can no longer pass: reconcile must refuse, not emit a patch
    let warned = r#"
variable "unused" { default = "x" }
resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
resource "aws_s3_bucket" "data" { bucket = "gated-data" }
"#;
    let mut e = Cloudless::new(Config {
        cloud: CloudConfig::exact(),
        ..Config::default()
    });
    e.converge(warned).expect("deploys under DenyErrors");
    let bucket = e
        .state()
        .get(&"aws_s3_bucket.data".parse().unwrap())
        .unwrap()
        .id
        .clone();
    e.cloud_mut()
        .out_of_band_update(
            "cowboy",
            &bucket,
            [("bucket".to_owned(), Value::from("gated-data-edited"))].into(),
        )
        .unwrap();
    e.set_lint_gate(cloudless::LintGate::DenyWarnings);
    let err = e.reconcile(warned, false).expect_err("must refuse");
    match err {
        cloudless::ConvergeError::Lint(r) => {
            assert!(
                r.findings.iter().any(|f| f.diagnostic.code == "ANA101"),
                "{r:?}"
            );
        }
        other => panic!("expected a lint refusal, got {other:?}"),
    }
    // refusal is side-effect free: the drifted value is still live
    let live = e.cloud().records();
    assert!(live
        .values()
        .any(|r| r.attrs.get("bucket") == Some(&Value::from("gated-data-edited"))));
}

#[test]
fn reconcile_reverts_to_overwrite_for_inexpressible_drift() {
    let mut e = engine();
    // drift on a *counted* instance's attr is not expressible as a literal
    // block edit (all siblings share the block), so the classifier marks it
    // an overwrite and reconcile's converge stomps it
    let vm = e
        .state()
        .get(&"aws_virtual_machine.app[1]".parse().unwrap())
        .unwrap()
        .id
        .clone();
    e.cloud_mut()
        .out_of_band_update(
            "cowboy",
            &vm,
            [("name".to_owned(), Value::from("hand-renamed"))].into(),
        )
        .unwrap();
    let report = e.reconcile(SRC, false).expect("reconcile succeeds");
    assert!(report.plan.ops.is_empty(), "{:?}", report.plan.ops);
    assert_eq!(report.plan.overwrites.len(), 1);
    assert!(report.converged);
    let rec = e.cloud().records().values().find(|r| r.id == vm).cloned();
    assert_eq!(
        rec.unwrap().attrs.get("name"),
        Some(&Value::from("app-1")),
        "overwrite restored the declared value"
    );
}
