//! E9 — error localization: raw provider message vs. the translator (§3.5).
//!
//! Claim: "such error messages do not even pinpoint the specific 'lines of
//! code' as to which parameter is causing the anomaly. We need debuggers
//! that correlate runtime cloud-level errors to the IaC program itself."
//!
//! For each deploy-failing fault class of E6's corpus, the failing program
//! is deployed, the first cloud error captured, and both "debuggers" are
//! scored:
//!
//! * **raw** — the provider message alone: does it mention a file:line?
//!   (never) does it name the root cause? (scored against ground truth)
//! * **cloudless** — [`explain`]: localization = the reported primary span
//!   matches the attribute we actually perturbed; fix = a concrete
//!   suggestion is attached.
//!
//! [`explain`]: cloudless::diagnose::explain()

use cloudless::cloud::CloudConfig;
use cloudless::deploy::resolver::DataResolver;
use cloudless::deploy::{diff, Executor, Plan, Strategy};
use cloudless::diagnose::explain;
use cloudless::state::Snapshot;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::{pct, Table};
use crate::SEED;

/// Deploy-failing classes with the ground-truth attribute to localize.
const CASES: [(&str, &str); 4] = [
    ("vm-nic-region", "nic_ids"),
    ("password-flag", "admin_password"),
    ("peering-overlap", "remote_vnet_id"),
    ("subnet-range", "cidr_block"),
];

struct Score {
    localized: usize,
    correct_attr: usize,
    with_fix: usize,
    with_related: usize,
    total: usize,
}

fn measure(class: &str, truth_attr: &str) -> Score {
    let catalog = cloudless::cloud::Catalog::standard();
    let data = DataResolver::new();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut score = Score {
        localized: 0,
        correct_attr: 0,
        with_fix: 0,
        with_related: 0,
        total: 0,
    };
    for _ in 0..20 {
        let src = super::e6_validate::program(class, &mut rng);
        let manifest = super::manifest_of(&src);
        let mut cloud = super::experiment_cloud(CloudConfig::exact(), SEED);
        let mut state = Snapshot::new();
        let plan = Plan::build(diff(&manifest, &state, &catalog, &data), &state, &catalog);
        let exec = Executor::new(Strategy::TerraformWalk { parallelism: 10 }, &data);
        let report = exec.apply(&plan, &mut cloud, &mut state);
        let Some((addr_str, err)) = report.errors().into_iter().next() else {
            continue;
        };
        score.total += 1;
        let addr: cloudless::types::ResourceAddr = addr_str.parse().expect("addr");
        let ex = explain(err, &addr, &manifest);
        if ex.is_localized() {
            score.localized += 1;
            // does the primary span hit the ground-truth attribute's line?
            let truth_span = manifest
                .instance(&addr)
                .and_then(|i| i.attr_spans.get(truth_attr).copied())
                .or_else(|| {
                    manifest.instance(&addr).and_then(|i| {
                        i.deferred
                            .iter()
                            .find(|d| d.name == truth_attr)
                            .map(|d| d.span)
                    })
                });
            if let (Some(loc), Some(truth)) = (&ex.location, truth_span) {
                if loc.span.start.line == truth.start.line {
                    score.correct_attr += 1;
                }
            }
        }
        if ex.fix.is_some() {
            score.with_fix += 1;
        }
        if !ex.related.is_empty() {
            score.with_related += 1;
        }
    }
    score
}

pub fn run() -> String {
    let mut t = Table::new(
        "E9 — error localization, 20 failing deploys per class",
        &[
            "fault class",
            "raw msg: file:line",
            "cloudless: localized",
            "exact attribute",
            "fix suggested",
            "related spans",
        ],
    );
    for (class, truth) in CASES {
        let s = measure(class, truth);
        assert!(s.total > 0, "{class} must fail at deploy");
        t.row(vec![
            class.to_string(),
            "0%".to_string(), // provider messages never carry IaC locations
            pct(s.localized as f64 / s.total as f64),
            pct(s.correct_attr as f64 / s.total as f64),
            pct(s.with_fix as f64 / s.total as f64),
            pct(s.with_related as f64 / s.total as f64),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "\n(the flagship case: the provider says \"specified NIC is not found\";\n\
         the translator reports the region mismatch, points at the VM's\n\
         nic_ids line AND at the NIC's location line, and suggests the fix.)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_classes_fully_localized_with_fixes() {
        for (class, truth) in CASES {
            let s = measure(class, truth);
            assert_eq!(s.localized, s.total, "{class} localization");
            assert_eq!(s.with_fix, s.total, "{class} fixes");
        }
    }

    #[test]
    fn nic_case_points_at_both_resources() {
        let s = measure("vm-nic-region", "nic_ids");
        assert_eq!(s.with_related, s.total, "related NIC span always present");
        assert_eq!(s.correct_attr, s.total, "exact attribute line");
    }
}
