//! The whole-program concurrency gate: regression and determinism tests.
//!
//! Regression (the incremental hazard-skip bug): before the gate learned
//! about *expanded* instances, a warm replan could smuggle in an identity
//! collision the block-level claims map folds as `Unknown` — e.g. editing
//! `name = "a-${count.index}"` to `"b-${count.index}"` so that an
//! expanded instance collides with another block's constant name. The
//! fast path now maintains the analyzer's instance-claims map and falls
//! back cold, where the full analysis reports ANA502.
//!
//! Determinism: analyzer findings — order, spans, rendered SARIF bytes —
//! are identical across repeated runs and between the warm-incremental
//! and cold-full pipelines, for arbitrary generated programs and edits.

use std::collections::BTreeMap;
use std::sync::Arc;

use cloudless::analyze::{analyze_manifest, BlastRequest, LintConfig};
use cloudless::cloud::Catalog;
use cloudless::deploy::resolver::DataResolver;
use cloudless::hcl::program::ModuleLibrary;
use cloudless::obs::{NullRecorder, Recorder};
use cloudless::pipeline::{IncrementalPipeline, PipelineCtx, PipelineError};
use cloudless::state::Snapshot;
use cloudless::types::Value;
use cloudless::validate::ValidationLevel;
use cloudless::LintGate;
use proptest::prelude::*;

struct Env {
    catalog: Catalog,
    data: DataResolver,
    inputs: BTreeMap<String, Value>,
    modules: ModuleLibrary,
    recorder: Arc<dyn Recorder>,
}

impl Env {
    fn new() -> Env {
        Env {
            catalog: Catalog::standard(),
            data: DataResolver::new(),
            inputs: BTreeMap::new(),
            modules: ModuleLibrary::new(),
            recorder: Arc::new(NullRecorder),
        }
    }

    fn ctx<'a>(&'a self, state: &'a Snapshot) -> PipelineCtx<'a> {
        PipelineCtx {
            inputs: &self.inputs,
            modules: &self.modules,
            lint: LintGate::default(),
            level: ValidationLevel::CloudRules,
            data: &self.data,
            catalog: &self.catalog,
            state,
            miner: None,
            recorder: &self.recorder,
        }
    }
}

fn expand(src: &str) -> cloudless::hcl::program::Manifest {
    let p = cloudless::hcl::load(src, "main.tf").expect("parses");
    cloudless::hcl::program::expand(
        &p,
        &BTreeMap::new(),
        &ModuleLibrary::new(),
        &cloudless::hcl::eval::DeferAll,
    )
    .expect("expands")
}

/// Regression: a warm replan must not skip the expanded-graph hazard
/// check. The edit folds to a collision only under a concrete
/// `count.index` binding, which the block-level claims map cannot see
/// (and VAL306 does not cover `aws_virtual_machine`).
#[test]
fn warm_replan_cannot_skip_expanded_alias_check() {
    let base = r#"resource "aws_virtual_machine" "fleet" {
  count = 2
  name  = "a-${count.index}"
}
resource "aws_virtual_machine" "solo" {
  name = "b-1"
}
"#;
    let edited = base.replace("a-${count.index}", "b-${count.index}");

    let env = Env::new();
    let state = Snapshot::new();
    let ctx = env.ctx(&state);

    let mut warm = IncrementalPipeline::default();
    warm.run(base, &ctx).expect("base program is clean");
    assert!(warm.is_warm(), "clean base must be memo-eligible");

    let Err(err) = warm.run(&edited, &ctx) else {
        panic!("expanded collision must be rejected");
    };
    let PipelineError::Lint(report) = &err else {
        panic!("expected a lint gate rejection, got a different stage");
    };
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.diagnostic.code == "ANA502"),
        "expected ANA502, got {:?}",
        report
            .findings
            .iter()
            .map(|f| f.diagnostic.code.as_str())
            .collect::<Vec<_>>()
    );

    // The cold pipeline agrees byte-for-byte (same findings, same spans).
    let Err(cold_err) = IncrementalPipeline::default().run(&edited, &ctx) else {
        panic!("cold run rejects the collision too");
    };
    let PipelineError::Lint(cold_report) = &cold_err else {
        panic!("cold rejection at a different stage");
    };
    assert_eq!(
        report.to_json(),
        cold_report.to_json(),
        "warm and cold gate findings must be byte-identical"
    );
    assert_eq!(report.to_sarif(), cold_report.to_sarif());
}

/// Regression: adding `create_before_destroy` to a block with a constant
/// identity must knock the replan off the fast path so the analyzer
/// re-evaluates the replace-self-race rule on the expanded manifest.
#[test]
fn warm_replan_reanalyzes_create_before_destroy() {
    let base = r#"resource "aws_virtual_machine" "pin" {
  name = "pin-0"
}
"#;
    let edited = r#"resource "aws_virtual_machine" "pin" {
  name = "pin-0"
  lifecycle { create_before_destroy = true }
}
"#;
    let env = Env::new();
    let state = Snapshot::new();
    let ctx = env.ctx(&state);

    let mut warm = IncrementalPipeline::default();
    warm.run(base, &ctx).expect("base program is clean");
    assert!(warm.is_warm());

    // ANA504 is a warning: the gate still plans, but the run must be the
    // cold path (the finding exists, so the memo may not claim "clean").
    let out = warm.run(edited, &ctx).expect("warning does not gate");
    assert!(
        !out.trace.fast_path,
        "cbd + constant identity must fall back for re-analysis:\n{}",
        out.trace
    );
    assert!(
        !warm.is_warm(),
        "a run with analyzer findings is not memo-eligible"
    );
}

/// Byte-determinism of the analyzer itself: same manifest, same bytes —
/// findings, order, spans, SARIF — across repeated runs, including the
/// opt-in blast pass.
#[test]
fn analysis_output_is_deterministic() {
    let src = r#"
resource "aws_virtual_machine" "a0" { name = "lock-one" }
resource "aws_virtual_machine" "a1" {
  name       = "lock-two"
  network_id = aws_virtual_machine.a0.id
}
resource "aws_virtual_machine" "b0" { name = "lock-two" }
resource "aws_virtual_machine" "b1" {
  name       = "lock-one"
  network_id = aws_virtual_machine.b0.id
}
"#;
    let m = expand(src);
    let cfg = LintConfig::default();
    let blast = BlastRequest::WhatIf { top: 8 };
    let first = analyze_manifest(&m, &cfg, Some(&blast));
    for _ in 0..3 {
        let again = analyze_manifest(&m, &cfg, Some(&blast));
        assert_eq!(first.report.to_json(), again.report.to_json());
        assert_eq!(first.report.to_sarif(), again.report.to_sarif());
    }
    // The compound defect is present and ordered deterministically.
    let codes: Vec<&str> = first
        .report
        .findings
        .iter()
        .map(|f| f.diagnostic.code.as_str())
        .collect();
    assert!(codes.contains(&"ANA502"), "{codes:?}");
    assert!(codes.contains(&"ANA503"), "{codes:?}");
}

// ----------------------------------------------------------- proptest

/// Small generated programs in which collisions, cycles and cbd defects
/// are all reachable. Identity values are drawn from a tiny pool so that
/// duplicates actually occur.
fn gen_source(spec: &[(usize, usize, bool)]) -> String {
    let mut out = String::new();
    for (i, (val, dep, cbd)) in spec.iter().enumerate() {
        out.push_str(&format!(
            "resource \"aws_virtual_machine\" \"b{i}\" {{\n  name = \"id-{}\"\n",
            val % 4
        ));
        if i > 0 && *dep > 0 {
            out.push_str(&format!(
                "  network_id = aws_virtual_machine.b{}.id\n",
                dep % i
            ));
        }
        if *cbd {
            out.push_str("  lifecycle { create_before_destroy = true }\n");
        }
        out.push_str("}\n");
    }
    out
}

proptest! {
    /// For arbitrary generated programs: repeated analyzer runs are
    /// byte-identical, and the pipeline's gate decision (error stage +
    /// finding bytes) is identical between a fresh pipeline and one that
    /// saw a clean base first (warm) — the warm/cold determinism the
    /// SARIF consumers depend on.
    #[test]
    fn analyzer_is_deterministic_for_arbitrary_programs(
        spec in proptest::collection::vec((0..8usize, 0..8usize, any::<bool>()), 1..8),
    ) {
        let src = gen_source(&spec);
        let m = expand(&src);
        let cfg = LintConfig::default();
        let a = analyze_manifest(&m, &cfg, None);
        let b = analyze_manifest(&m, &cfg, None);
        prop_assert_eq!(a.report.to_json(), b.report.to_json());
        prop_assert_eq!(a.report.to_sarif(), b.report.to_sarif());

        // Pipeline-level: warm (seeded with a clean base, then edited to
        // this program — a structural edit, so it falls back) must agree
        // with cold byte-for-byte on the gate outcome.
        let env = Env::new();
        let state = Snapshot::new();
        let ctx = env.ctx(&state);
        let clean_base = "resource \"aws_s3_bucket\" \"seed\" { bucket = \"seed\" }\n";
        let mut warm = IncrementalPipeline::default();
        warm.run(clean_base, &ctx).expect("seed is clean");
        let warm_out = warm.run(&src, &ctx);
        let cold_out = IncrementalPipeline::default().run(&src, &ctx);
        match (warm_out, cold_out) {
            (Ok(w), Ok(c)) => prop_assert_eq!(w.plan_text, c.plan_text),
            (Err(PipelineError::Lint(w)), Err(PipelineError::Lint(c))) => {
                prop_assert_eq!(w.to_json(), c.to_json());
                prop_assert_eq!(w.to_sarif(), c.to_sarif());
            }
            (Err(w), Err(c)) => {
                // same non-lint stage; compare debug shapes
                prop_assert_eq!(format!("{w:?}"), format!("{c:?}"));
            }
            (w, c) => prop_assert!(
                false,
                "warm and cold disagree on success: warm={:?} cold={:?}",
                w.is_ok(),
                c.is_ok()
            ),
        }
    }
}
