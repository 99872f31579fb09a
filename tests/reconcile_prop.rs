//! The headline round-trip invariant, end to end through the engine:
//! for arbitrary generated out-of-band mutation sequences,
//! `reconcile(mutate(apply(p)))` patches `p` into a program that re-plans
//! to an **empty diff** — and a second reconcile of the patched program is
//! a fixpoint. Plus: scenario families from the adversarial generator hold
//! the invariant for arbitrary seeds, with oracle-exact patches.

use cloudless::cloud::CloudConfig;
use cloudless::types::value::attrs;
use cloudless::types::Value;
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
        let addrs: Vec<_> = e.state().resources.keys().cloned().collect();
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

proptest! {
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
