//! E4 — rollback: naive re-apply vs. reversibility-aware planning (§3.4).
//!
//! Claim: "Simply applying a previous configuration doesn't always roll back
//! the infrastructure to its intended previous state. For instance, consider
//! the case where a virtual machine instance has been modified with custom
//! network settings that are not captured in the configuration files …
//! they are often ignored by IaC workflow. … We want to minimize the amount
//! of resource redeployment in the rollback process."
//!
//! Scenario per trial: deploy v1 → checkpoint → apply v2 (mutable changes +
//! some `force_new` changes) → a legacy script also mutates attributes *not
//! present in either config* → roll back to the checkpoint two ways:
//!
//! * **naive** — re-apply the v1 source (after a refresh, to be generous);
//! * **cloudless** — `plan_rollback` against the checkpointed state.
//!
//! Metrics: resources redeployed (destroy+create) and *residual divergence*
//! — managed attributes of the live cloud that still differ from the
//! checkpoint after rollback.

use cloudless::cloud::CloudConfig;
use cloudless::types::Value;
use cloudless::validate::ValidationLevel;
use cloudless::{Cloudless, Config};

use crate::table::Table;

fn v_src(instance_type: &str, vpc_cidr: &str) -> String {
    format!(
        r#"
resource "aws_vpc" "net" {{ cidr_block = "{vpc_cidr}" }}
resource "aws_virtual_machine" "app" {{
  count         = 4
  name          = "app-${{count.index}}"
  instance_type = "{instance_type}"
}}
resource "aws_s3_bucket" "data" {{ bucket = "rollback-data" }}
"#
    )
}

struct Outcome {
    redeployments: usize,
    ops: u64,
    divergence: usize,
}

/// Managed-attribute divergence between the live cloud and the checkpoint.
fn divergence(engine: &Cloudless, checkpoint: &cloudless::state::Snapshot) -> usize {
    let catalog = engine.cloud().catalog();
    let mut diverged = 0;
    for rec in checkpoint.resources().values() {
        let Some(live) = engine.cloud().records().values().find(|r| {
            r.rtype == rec.rtype && r.attrs.get("name") == rec.attrs.get("name") || r.id == rec.id
        }) else {
            diverged += rec.attrs.len();
            continue;
        };
        let schema = catalog.get(&rec.rtype);
        let managed = |k: &String| schema.is_some_and(|s| s.settable(k).is_some());
        for (k, v) in rec.attrs.iter().filter(|(k, _)| managed(k)) {
            if live.attrs.get(k) != Some(v) {
                diverged += 1;
            }
        }
        // attrs present live but absent at checkpoint count too
        let set_since = |k: &&String| managed(k) && !rec.attrs.contains_key(*k);
        diverged += live.attrs.keys().filter(set_since).count();
    }
    diverged
}

fn scenario(mode: &str, force_new_change: bool) -> Outcome {
    let mut engine = Cloudless::new(Config {
        cloud: CloudConfig::exact(),
        validation_level: ValidationLevel::Schema,
        ..Config::default()
    });
    let v1 = v_src("t3.micro", "10.0.0.0/16");
    engine.converge(&v1).expect("v1");
    let checkpoint_serial = engine.history().latest().unwrap().serial;
    let checkpoint = engine
        .state_at(checkpoint_serial)
        .expect("checkpoint addressable");

    // v2: resize the fleet; optionally also a force_new VPC change
    let v2 = if force_new_change {
        v_src("m5.large", "10.99.0.0/16")
    } else {
        v_src("m5.large", "10.0.0.0/16")
    };
    engine.converge(&v2).expect("v2");

    // out-of-band mutation not captured in any config (the paper's example)
    let vm_id = engine
        .state()
        .get(&"aws_virtual_machine.app[0]".parse().unwrap())
        .unwrap()
        .id
        .clone();
    engine
        .cloud_mut()
        .out_of_band_update(
            "legacy-script",
            &vm_id,
            [(
                "user_data".to_owned(),
                Value::from("#!/bin/sh custom-firewall"),
            )]
            .into(),
        )
        .unwrap();

    let ops_before = {
        let c = engine.cloud();
        c.api_calls(cloudless::types::Provider::Aws).mutations
    };

    let redeployments = match mode {
        "naive" => {
            // re-apply the old configuration (with a refresh, to be fair)
            engine.refresh().expect("refresh commits");
            let out = engine.converge(&v1).expect("naive rollback applies");
            // count replaces+creates+deletes as redeployments
            let mut n = 0;
            for line in out.plan_text.lines() {
                let l = line.trim_start();
                if l.starts_with("-/+") || l.starts_with("+ ") || l.starts_with("- ") {
                    n += 1;
                }
            }
            n
        }
        "cloudless" => {
            let plan = engine
                .plan_rollback_to(checkpoint_serial)
                .expect("checkpoint exists");
            let n = plan.redeployments();
            engine.execute_rollback(&plan).expect("rollback executes");
            n
        }
        other => panic!("unknown mode {other}"),
    };

    let ops_after = engine
        .cloud()
        .api_calls(cloudless::types::Provider::Aws)
        .mutations;
    Outcome {
        redeployments,
        ops: ops_after - ops_before,
        divergence: divergence(&engine, &checkpoint),
    }
}

pub fn run() -> String {
    let mut t = Table::new(
        "E4 — rollback to checkpoint: naive re-apply vs. reversibility-aware planner",
        &[
            "update kind",
            "method",
            "redeployed",
            "mutation ops",
            "residual divergence (attrs)",
        ],
    );
    for (kind, force_new) in [("mutable-only", false), ("incl. force_new", true)] {
        for mode in ["naive", "cloudless"] {
            let o = scenario(mode, force_new);
            t.row(vec![
                kind.to_string(),
                mode.to_string(),
                o.redeployments.to_string(),
                o.ops.to_string(),
                o.divergence.to_string(),
            ]);
        }
    }
    let mut out = t.render();
    out.push_str(
        "\n(residual divergence > 0 means the rollback silently left the cloud\n\
         different from the checkpoint — the naive path never reverses the\n\
         legacy script's out-of-band `user_data` change.)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cloudless_rollback_restores_checkpoint_exactly() {
        let o = scenario("cloudless", false);
        assert_eq!(o.divergence, 0, "cloudless rollback leaves no residue");
    }

    #[test]
    fn naive_rollback_misses_out_of_band_changes() {
        let o = scenario("naive", false);
        assert!(
            o.divergence > 0,
            "the drifted user_data survives naive rollback"
        );
    }

    #[test]
    fn mutable_changes_need_no_redeployment() {
        let o = scenario("cloudless", false);
        assert_eq!(o.redeployments, 0);
        let o2 = scenario("cloudless", true);
        assert!(o2.redeployments >= 1, "force_new change requires recreate");
    }
}
