//! E18 — static concurrency analysis vs the schedule-fuzzing oracle.
//!
//! The whole-program analyzer (ANA501–ANA505) claims its findings are
//! *reachable*: some legal schedule exhibits each flagged race, deadlock or
//! self-race. This experiment pins that claim from both sides over the
//! seeded defect corpus (`examples/hcl/defects/concurrency/`):
//!
//! * **recall** — every seeded defect class is statically caught, by
//!   exactly the expected rules;
//! * **precision** — every statically flagged defect is dynamically
//!   confirmed by the [`crate::oracle`] schedule fuzzer (no
//!   plausible-but-unreachable findings);
//! * **zero false positives** — the clean guards analyze clean *and* fuzz
//!   clean, so the analyzer and the oracle also agree on the negatives.
//!
//! The corpus half is virtual-clock deterministic (the oracle is seeded)
//! and lives in the `exp all` snapshot. The scale half — analyzer wall
//! time against the plan stage at 1k/10k/100k instances — is
//! host-dependent and is committed to `BENCH_*.json` (`analyze` section)
//! instead, gated by `exp_concurrency --check`: whole-program analysis
//! must finish within 2× of plan construction at every size.

use std::time::Instant;

use cloudless::analyze::{analyze_manifest, LintConfig};
use cloudless::cloud::Catalog;
use cloudless::deploy::resolver::DataResolver;
use cloudless::deploy::{diff, Plan};
use cloudless::state::Snapshot;
use serde::{Deserialize, Serialize};

use crate::oracle::Oracle;
use crate::table::Table;
use crate::workloads;
use crate::SEED;

/// The seeded corpus: (class, source, expected static findings in report
/// order). Empty expectation = false-positive guard.
pub const CORPUS: &[(&str, &str, &[&str])] = &[
    (
        "missing-edge",
        include_str!("../../../../examples/hcl/defects/concurrency/missing_edge.tf"),
        &["ANA501"],
    ),
    (
        "missing-edge-counted",
        include_str!("../../../../examples/hcl/defects/concurrency/missing_edge_counted.tf"),
        &["ANA501", "ANA501"],
    ),
    (
        "alias-folded",
        include_str!("../../../../examples/hcl/defects/concurrency/alias_folded.tf"),
        &["ANA502"],
    ),
    (
        "alias-foreach",
        include_str!("../../../../examples/hcl/defects/concurrency/alias_foreach.tf"),
        &["ANA502"],
    ),
    (
        "alias-counted",
        include_str!("../../../../examples/hcl/defects/concurrency/alias_counted.tf"),
        &["ANA502"],
    ),
    (
        "lock-cycle",
        include_str!("../../../../examples/hcl/defects/concurrency/lock_cycle.tf"),
        &["ANA502", "ANA502", "ANA503"],
    ),
    (
        "self-race-replace",
        include_str!("../../../../examples/hcl/defects/concurrency/self_race_replace.tf"),
        &["ANA504"],
    ),
    (
        "compound",
        include_str!("../../../../examples/hcl/defects/concurrency/compound.tf"),
        &["ANA501", "ANA502"],
    ),
    (
        "clean-fanout",
        include_str!("../../../../examples/hcl/defects/concurrency/clean_fanout.tf"),
        &[],
    ),
    (
        "clean-shared-prefix",
        include_str!("../../../../examples/hcl/defects/concurrency/clean_shared_prefix.tf"),
        &[],
    ),
    (
        "clean-cbd-rotating",
        include_str!("../../../../examples/hcl/defects/concurrency/clean_cbd_rotating.tf"),
        &[],
    ),
];

/// One corpus class, measured.
pub struct ClassOutcome {
    pub class: &'static str,
    /// Static rule codes, report order.
    pub static_codes: Vec<String>,
    /// Distinct flagged codes the oracle confirmed dynamically.
    pub confirmed: Vec<&'static str>,
    /// Distinct flagged codes the oracle could NOT reach (must be empty).
    pub unconfirmed: Vec<String>,
    /// Schedules + lock interleavings the oracle replayed.
    pub interleavings: u32,
}

/// Analyze + fuzz one corpus class.
pub fn measure_class(class: &'static str, src: &str) -> ClassOutcome {
    let m = super::manifest_of(src);
    let out = analyze_manifest(&m, &LintConfig::default(), None);
    let static_codes: Vec<String> = out
        .report
        .findings
        .iter()
        .map(|f| f.diagnostic.code.clone())
        .collect();
    let verdict = Oracle::default().fuzz(&m);
    let mut confirmed = Vec::new();
    let mut unconfirmed = Vec::new();
    for code in ["ANA501", "ANA502", "ANA503", "ANA504"] {
        if !static_codes.iter().any(|c| c == code) {
            continue;
        }
        if verdict.confirms(code) {
            confirmed.push(code);
        } else {
            unconfirmed.push(code.to_owned());
        }
    }
    // A clean guard must also fuzz clean: the oracle finding a defect the
    // analyzer missed would be a false *negative*.
    if static_codes.is_empty() {
        for (code, n) in &verdict.anomalies {
            unconfirmed.push(format!("oracle-only {code}×{n}"));
        }
    }
    ClassOutcome {
        class,
        static_codes,
        confirmed,
        unconfirmed,
        interleavings: verdict.interleavings,
    }
}

/// The deterministic corpus table (part of the `exp all` snapshot).
pub fn run() -> String {
    let mut t = Table::new(
        "E18 — static concurrency analysis vs the schedule-fuzzing oracle (seeded corpus)",
        &[
            "defect class",
            "static findings",
            "oracle-confirmed",
            "interleavings",
        ],
    );
    let mut classes = 0usize;
    let mut caught = 0usize;
    let mut clean_ok = 0usize;
    let mut clean_total = 0usize;
    for (class, src, expected) in CORPUS {
        let r = measure_class(class, src);
        assert!(
            r.unconfirmed.is_empty(),
            "{class}: oracle disagrees with the analyzer: {:?}",
            r.unconfirmed
        );
        if expected.is_empty() {
            clean_total += 1;
            if r.static_codes.is_empty() {
                clean_ok += 1;
            }
        } else {
            classes += 1;
            if !r.static_codes.is_empty() {
                caught += 1;
            }
        }
        let statics = if r.static_codes.is_empty() {
            "clean".to_owned()
        } else {
            r.static_codes.join("+")
        };
        let dynamics = if expected.is_empty() {
            "clean".to_owned()
        } else {
            r.confirmed.join("+")
        };
        t.row(vec![
            r.class.to_owned(),
            statics,
            dynamics,
            r.interleavings.to_string(),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "\n({caught}/{classes} defect classes statically caught; every flagged\n\
         race/deadlock dynamically reachable under a seeded legal schedule;\n\
         {clean_ok}/{clean_total} false-positive guards clean on both sides.)\n"
    ));
    out
}

// ------------------------------------------------------ scale half (E14)

/// Analyzer wall time against the plan stage at one workload size, for
/// the committed `BENCH_*.json` (`analyze` section).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyzePoint {
    /// Named workload (see [`workloads::named`]).
    pub workload: String,
    pub instances: usize,
    /// Declared dependency edges the analyzer walked.
    pub edges: usize,
    /// Whole-program analysis (happens-before + alias + lock-order), best
    /// of N, milliseconds.
    pub analyze_ms: f64,
    /// Plan construction over the same manifest, best of N, milliseconds —
    /// the yardstick: analysis must stay within [`MAX_RATIO`]× of it.
    pub plan_ms: f64,
    /// Findings on the (clean) scale workload — must be 0.
    pub findings: usize,
}

impl AnalyzePoint {
    pub fn ratio(&self) -> f64 {
        if self.plan_ms > 0.0 {
            self.analyze_ms / self.plan_ms
        } else {
            f64::INFINITY
        }
    }
}

/// Acceptance bound: whole-program analysis within 2× of plan wall time.
pub const MAX_RATIO: f64 = 2.0;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Measure one workload size, best-of-`iters`.
pub fn measure_scale(name: &str, n: usize, iters: u32) -> AnalyzePoint {
    let catalog = Catalog::standard();
    let data = DataResolver::new();
    let empty = Snapshot::new();
    let src = workloads::random_layered(n, SEED);
    let m = super::manifest_of(&src);
    let mut best_analyze = f64::INFINITY;
    let mut best_plan = f64::INFINITY;
    let mut edges = 0;
    let mut findings = 0;
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        let out = analyze_manifest(&m, &LintConfig::default(), None);
        best_analyze = best_analyze.min(ms(t));
        edges = out.stats.edges;
        findings = out.report.findings.len();

        let t = Instant::now();
        let plan = Plan::build(diff(&m, &empty, &catalog, &data), &empty, &catalog);
        best_plan = best_plan.min(ms(t));
        assert_eq!(plan.graph.len(), m.instances.len());
    }
    AnalyzePoint {
        workload: name.to_owned(),
        instances: m.instances.len(),
        edges,
        analyze_ms: best_analyze,
        plan_ms: best_plan,
        findings,
    }
}

/// Scale points per tier (same sizes as E14).
pub fn run_scale(tier: &str) -> Vec<AnalyzePoint> {
    let sizes: Vec<(&str, usize, u32)> = match tier {
        "full" => vec![
            ("random-1k", 1_000, 3),
            ("random-10k", 10_000, 3),
            ("random-100k", 100_000, 2),
        ],
        _ => vec![("random-1k", 1_000, 3), ("random-10k", 10_000, 3)],
    };
    sizes
        .into_iter()
        .map(|(name, n, iters)| measure_scale(name, n, iters))
        .collect()
}

/// Human-readable scale table (machine-dependent; not in the snapshot).
pub fn render_scale(points: &[AnalyzePoint]) -> String {
    let mut t = Table::new(
        "E18 — whole-program analysis vs plan stage wall time (best-of-N, host-dependent)",
        &[
            "workload",
            "instances",
            "edges",
            "analyze",
            "plan",
            "ratio",
            "findings",
        ],
    );
    for p in points {
        t.row(vec![
            p.workload.clone(),
            p.instances.to_string(),
            p.edges.to_string(),
            format!("{:.1}ms", p.analyze_ms),
            format!("{:.1}ms", p.plan_ms),
            format!("{:.2}x", p.ratio()),
            p.findings.to_string(),
        ]);
    }
    t.render()
}

/// Gate: every point within `MAX_RATIO`, clean workloads finding-free.
pub fn check_scale(points: &[AnalyzePoint]) -> Vec<String> {
    let mut out = Vec::new();
    if points.is_empty() {
        out.push("no analyze points to check".to_owned());
    }
    for p in points {
        if p.ratio() > MAX_RATIO {
            out.push(format!(
                "{}: analyze {:.1}ms is {:.2}x plan {:.1}ms (bound {MAX_RATIO}x)",
                p.workload,
                p.analyze_ms,
                p.ratio(),
                p.plan_ms,
            ));
        }
        if p.findings != 0 {
            out.push(format!(
                "{}: {} findings on a clean scale workload",
                p.workload, p.findings
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recall: every seeded defect class is caught by exactly the expected
    /// rules; precision: the oracle reaches every flagged defect.
    #[test]
    fn every_defect_class_is_caught_and_oracle_confirmed() {
        for (class, src, expected) in CORPUS {
            if expected.is_empty() {
                continue;
            }
            let r = measure_class(class, src);
            assert_eq!(
                &r.static_codes, expected,
                "{class}: static findings mismatch"
            );
            assert!(
                r.unconfirmed.is_empty(),
                "{class}: statically flagged but dynamically unreachable: {:?}",
                r.unconfirmed
            );
            assert!(!r.confirmed.is_empty(), "{class}: nothing confirmed");
        }
    }

    /// Zero false positives: the guards are clean statically AND under the
    /// fuzzer (so the analyzer is not missing anything there either).
    #[test]
    fn clean_guards_are_clean_on_both_sides() {
        for (class, src, expected) in CORPUS {
            if !expected.is_empty() {
                continue;
            }
            let r = measure_class(class, src);
            assert!(
                r.static_codes.is_empty(),
                "{class}: false positive {:?}",
                r.static_codes
            );
            assert!(r.unconfirmed.is_empty(), "{class}: {:?}", r.unconfirmed);
        }
    }

    /// The scale gate passes at a small size and the point serializes into
    /// the BENCH report shape.
    #[test]
    fn small_scale_point_round_trips_and_passes_the_gate() {
        let p = measure_scale("random-tiny", 150, 1);
        assert_eq!(p.instances, 150);
        assert!(p.edges > 0);
        assert_eq!(p.findings, 0, "scale workloads are concurrency-clean");
        let json = serde_json::to_string_pretty(&vec![p.clone()]).unwrap();
        let back: Vec<AnalyzePoint> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, vec![p]);

        let bad = AnalyzePoint {
            workload: "slow".into(),
            instances: 1,
            edges: 0,
            analyze_ms: 10.0,
            plan_ms: 1.0,
            findings: 1,
        };
        let fails = check_scale(&[bad]);
        assert_eq!(fails.len(), 2, "{fails:?}");
        assert!(check_scale(&[]).len() == 1);
    }
}
