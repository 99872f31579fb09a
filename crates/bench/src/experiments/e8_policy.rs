//! E8 — the policy controller at work (§3.6).
//!
//! Three sub-experiments:
//!
//! * **autoscaling** — the paper's "scale out the number of VPN gateways …
//!   if traffic throughput is close to their capacity" policy vs. a static
//!   fleet, over two virtual days of diurnal + burst traffic. Metric:
//!   overload time (demand above deployed capacity) and gateway-hours paid.
//! * **plan admission** — budget and region policies gating a sequence of
//!   proposed plans.
//! * **outlier detection** — template extraction over a conforming corpus,
//!   then precision/recall on a labeled test set.

use cloudless::policy::engine::{Controller, LifecyclePhase};
use cloudless::policy::observe::{Observation, PlanSummary};
use cloudless::policy::{
    Action, BudgetPolicy, RegionPinPolicy, TemplateExtractor, ThresholdScalePolicy,
};
use cloudless::types::{SimDuration, SimTime};

use crate::table::{f, pct, Table};
use crate::telemetry::TraceGen;
use crate::SEED;

const CAPACITY: f64 = 1000.0;
const HOURS: u64 = 48;

struct ScalingOutcome {
    overload_halfhours: usize,
    gateway_halfhours: usize,
    scale_events: usize,
    max_fleet: usize,
}

/// Simulate the gateway fleet under the trace; `policy` = None is the
/// static baseline.
fn scaling(initial: usize, with_policy: bool) -> ScalingOutcome {
    let trace = TraceGen::new(1_200.0, SEED).with_burst(
        SimTime(11 * 3_600_000),
        SimDuration::from_mins(150),
        3.0,
    );
    let mut controller = Controller::new();
    if with_policy {
        let mut p =
            ThresholdScalePolicy::new("aws_vpn_gateway.gw", "throughput_mbps", CAPACITY, initial);
        p.max_instances = 8;
        controller.register(Box::new(p));
    }
    let mut fleet = initial;
    let mut overload = 0;
    let mut gateway_halfhours = 0;
    let mut scale_events = 0;
    let mut max_fleet = initial;
    for half_hour in 0..HOURS * 2 {
        let t = SimTime(half_hour * 1_800_000);
        let demand = trace.demand(t);
        if demand > fleet as f64 * CAPACITY {
            overload += 1;
        }
        gateway_halfhours += fleet;
        let obs = Observation::Metric {
            addr: "aws_vpn_gateway.gw[0]".parse().unwrap(),
            metric: "throughput_mbps".into(),
            value: demand,
            at: t,
        };
        for action in controller.feed(LifecyclePhase::Operate, &obs) {
            if let Action::ScaleBlock { to, .. } = action {
                fleet = to;
                max_fleet = max_fleet.max(to);
                scale_events += 1;
            }
        }
    }
    ScalingOutcome {
        overload_halfhours: overload,
        gateway_halfhours,
        scale_events,
        max_fleet,
    }
}

fn scaling_table() -> String {
    let mut t = Table::new(
        "E8a — VPN-gateway autoscaling vs. static fleets (48 virtual hours)",
        &[
            "fleet policy",
            "overload time",
            "gateway-hours paid",
            "scale events",
            "peak fleet",
        ],
    );
    for (name, initial, with_policy) in [
        ("static ×2", 2, false),
        ("static ×4 (peak-provisioned)", 4, false),
        ("cloudless autoscaler (start 2)", 2, true),
    ] {
        let o = scaling(initial, with_policy);
        t.row(vec![
            name.to_string(),
            format!("{:.1}h", o.overload_halfhours as f64 / 2.0),
            format!("{:.0}", o.gateway_halfhours as f64 / 2.0),
            o.scale_events.to_string(),
            o.max_fleet.to_string(),
        ]);
    }
    t.render()
}

fn admission_table() -> String {
    let mut controller = Controller::new();
    controller.register(Box::new(BudgetPolicy {
        monthly_budget: 1_000.0,
    }));
    controller.register(Box::new(RegionPinPolicy {
        allowed_regions: vec!["eu-west-1".into(), "westeurope".into()],
    }));
    let plans: Vec<(&str, PlanSummary)> = vec![
        (
            "small EU web fleet",
            PlanSummary {
                creates: 4,
                updates: 0,
                deletes: 0,
                replaces: 0,
                resulting_fleet: vec![("aws_virtual_machine".into(), "eu-west-1".into(), 4)],
                monthly_cost: 280.0,
            },
        ),
        (
            "EU fleet + big DB tier",
            PlanSummary {
                creates: 8,
                updates: 0,
                deletes: 0,
                replaces: 0,
                resulting_fleet: vec![
                    ("aws_virtual_machine".into(), "eu-west-1".into(), 4),
                    ("aws_db_instance".into(), "eu-west-1".into(), 6),
                ],
                monthly_cost: 1_360.0,
            },
        ),
        (
            "US expansion",
            PlanSummary {
                creates: 2,
                updates: 0,
                deletes: 0,
                replaces: 0,
                resulting_fleet: vec![("aws_virtual_machine".into(), "us-east-1".into(), 2)],
                monthly_cost: 140.0,
            },
        ),
        (
            "EU scale-down",
            PlanSummary {
                creates: 0,
                updates: 0,
                deletes: 2,
                replaces: 0,
                resulting_fleet: vec![("aws_virtual_machine".into(), "eu-west-1".into(), 2)],
                monthly_cost: 140.0,
            },
        ),
    ];
    let mut t = Table::new(
        "E8b — plan admission under budget ($1000/mo) + region (EU-only) policies",
        &["proposed plan", "verdict", "denying policy"],
    );
    for (name, summary) in plans {
        match controller.admits_plan(summary) {
            Ok(()) => {
                t.row(vec![name.to_string(), "admitted".into(), "—".into()]);
            }
            Err(denials) => {
                let reasons: Vec<String> = denials
                    .iter()
                    .map(|d| match d {
                        Action::DenyPlan { reason } => reason.clone(),
                        other => format!("{other:?}"),
                    })
                    .collect();
                t.row(vec![name.to_string(), "DENIED".into(), reasons.join(" / ")]);
            }
        }
    }
    t.render()
}

/// Outlier detection precision/recall on a labeled test set.
pub fn outlier_scores() -> (f64, f64) {
    let mut extractor = TemplateExtractor::new();
    for i in 0..8 {
        extractor.observe(&super::manifest_of(&format!(
            r#"
resource "aws_vpc" "v" {{ cidr_block = "10.{i}.0.0/16" }}
resource "aws_subnet" "s" {{
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.{i}.1.0/24"
}}
resource "aws_virtual_machine" "w" {{
  name          = "w{i}"
  subnet_id     = aws_subnet.s.id
  instance_type = "t3.micro"
}}
"#
        )));
    }
    // labeled test set: (source, is_deviant)
    let tests: Vec<(String, bool)> = vec![
        // conforming
        (
            r#"
resource "aws_vpc" "v" { cidr_block = "10.50.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.50.1.0/24"
}
resource "aws_virtual_machine" "w" {
  name          = "w50"
  subnet_id     = aws_subnet.s.id
  instance_type = "t3.micro"
}
"#
            .to_owned(),
            false,
        ),
        // floating VM (missing the habitual subnet edge)
        (
            r#"resource "aws_virtual_machine" "w" { name = "rogue" instance_type = "t3.micro" }"#
                .to_owned(),
            true,
        ),
        // unconventional instance type
        (
            r#"
resource "aws_vpc" "v" { cidr_block = "10.60.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.60.1.0/24"
}
resource "aws_virtual_machine" "w" {
  name          = "w60"
  subnet_id     = aws_subnet.s.id
  instance_type = "x2iedn.32xlarge"
}
"#
            .to_owned(),
            true,
        ),
        // subnet without a VPC edge
        (
            r#"
resource "aws_subnet" "s" {
  vpc_id     = "vpc-hardcoded"
  cidr_block = "10.70.1.0/24"
}
"#
            .to_owned(),
            true,
        ),
        // another conforming one
        (
            r#"
resource "aws_vpc" "v" { cidr_block = "10.80.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.80.1.0/24"
}
resource "aws_virtual_machine" "w" {
  name          = "w80"
  subnet_id     = aws_subnet.s.id
  instance_type = "t3.micro"
}
"#
            .to_owned(),
            false,
        ),
    ];
    let mut tp = 0.0;
    let mut fp = 0.0;
    let mut fn_ = 0.0;
    for (src, deviant) in &tests {
        let flagged = !extractor.check(&super::manifest_of(src)).is_empty();
        match (flagged, deviant) {
            (true, true) => tp += 1.0,
            (true, false) => fp += 1.0,
            (false, true) => fn_ += 1.0,
            (false, false) => {}
        }
    }
    let precision = if tp + fp == 0.0 { 1.0 } else { tp / (tp + fp) };
    let recall = if tp + fn_ == 0.0 {
        1.0
    } else {
        tp / (tp + fn_)
    };
    (precision, recall)
}

pub fn run() -> String {
    let mut out = scaling_table();
    out.push('\n');
    out.push_str(&admission_table());
    out.push('\n');
    let (precision, recall) = outlier_scores();
    let mut t = Table::new(
        "E8c — outlier detection vs. mined templates (8-program corpus, 5 labeled tests)",
        &["metric", "value"],
    );
    t.row(vec!["precision".into(), pct(precision)]);
    t.row(vec!["recall".into(), pct(recall)]);
    t.row(vec![
        "templates mined".into(),
        f(TemplateExtractorStats::count() as f64),
    ]);
    out.push_str(&t.render());
    out
}

/// Tiny helper so the table can show how many templates the corpus yields.
struct TemplateExtractorStats;

impl TemplateExtractorStats {
    fn count() -> usize {
        let mut extractor = TemplateExtractor::new();
        for i in 0..8 {
            extractor.observe(&super::manifest_of(&format!(
                r#"
resource "aws_vpc" "v" {{ cidr_block = "10.{i}.0.0/16" }}
resource "aws_subnet" "s" {{
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.{i}.1.0/24"
}}
resource "aws_virtual_machine" "w" {{
  name          = "w{i}"
  subnet_id     = aws_subnet.s.id
  instance_type = "t3.micro"
}}
"#
            )));
        }
        extractor.edge_templates().len() + extractor.miner.specs().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autoscaler_reduces_overload_vs_same_cost_static() {
        let static2 = scaling(2, false);
        let auto = scaling(2, true);
        assert!(
            auto.overload_halfhours < static2.overload_halfhours,
            "autoscaler {} vs static {}",
            auto.overload_halfhours,
            static2.overload_halfhours
        );
        assert!(auto.scale_events > 0);
    }

    #[test]
    fn autoscaler_cheaper_than_peak_provisioning() {
        let static4 = scaling(4, false);
        let auto = scaling(2, true);
        assert!(
            auto.gateway_halfhours < static4.gateway_halfhours,
            "autoscaler pays {} gateway-halfhours vs {} for static ×4",
            auto.gateway_halfhours,
            static4.gateway_halfhours
        );
    }

    #[test]
    fn outlier_detection_is_useful() {
        let (precision, recall) = outlier_scores();
        assert!(precision >= 0.99, "precision {precision}");
        assert!(recall >= 0.66, "recall {recall}");
    }
}
