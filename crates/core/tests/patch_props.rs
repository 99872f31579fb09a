//! The reconcile repair loop against the gate production runs: every
//! candidate goes through the engine's converge pipeline
//! ([`IncrementalPipeline::run`]) and a refusal comes back as its
//! [`PipelineError::patch_messages`]. The loop always terminates with an
//! admitted program, never drops a valid op whose block is untainted, and
//! applying a patch is idempotent. `apply_ops` itself is checked against a
//! scan per op beside it, in `cloudless-synth`.

use std::collections::BTreeMap;
use std::sync::Arc;

use cloudless::cloud::Catalog;
use cloudless::deploy::resolver::DataResolver;
use cloudless::diagnose::reconcile::{EditOp, ReconcilePlan};
use cloudless::hcl::ast::{Expr, File};
use cloudless::hcl::program::ModuleLibrary;
use cloudless::obs::{NullRecorder, Recorder};
use cloudless::pipeline::{IncrementalPipeline, PipelineCtx};
use cloudless::state::Snapshot;
use cloudless::synth::{synthesize_patch_with, PatchConfig, PatchOutcome};
use cloudless::types::value::attrs;
use cloudless::types::{Region, ResourceId, ResourceTypeName, Value};
use cloudless::validate::ValidationLevel;
use cloudless::LintGate;
use proptest::prelude::*;

/// Synthesize the patch of `plan` against `base`, admitting a candidate
/// exactly when a converge of it under `lint` would plan.
fn synth_gated(base: &File, plan: &ReconcilePlan, lint: LintGate) -> PatchOutcome {
    let (catalog, data, state) = (Catalog::standard(), DataResolver::new(), Snapshot::new());
    let (inputs, modules) = (BTreeMap::new(), ModuleLibrary::new());
    let recorder: Arc<dyn Recorder> = Arc::new(NullRecorder);
    let ctx = PipelineCtx {
        inputs: &inputs,
        modules: &modules,
        lint,
        level: ValidationLevel::CloudRules,
        data: &data,
        catalog: &catalog,
        state: &state,
        miner: None,
        recorder: &recorder,
    };
    let config = PatchConfig {
        lint: lint.config().unwrap_or_default(),
        ..PatchConfig::default()
    };
    let mut pipeline = IncrementalPipeline::default();
    let mut checker = |candidate: &str| match pipeline.run(candidate, &ctx) {
        Ok(_) => Vec::new(),
        Err(err) => err.patch_messages(config.lint.fail_on),
    };
    synthesize_patch_with(base, plan, &config, &mut checker)
}

fn synth(base: &File, plan: &ReconcilePlan) -> PatchOutcome {
    synth_gated(base, plan, LintGate::default())
}

fn parse(source: &str) -> File {
    cloudless::hcl::parse(source, "main.tf").expect("parses")
}

const BASE: &str = r#"
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_s3_bucket" "b" {
  count  = 4
  bucket = "bucket-${count.index}"
}
resource "aws_subnet" "s" {
  for_each   = ["alpha", "beta"]
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.0/24"
}
"#;

fn rogue_bucket(label: &str, attrs: cloudless::types::Attrs, id: &str) -> EditOp {
    EditOp::AddBlock {
        rtype: ResourceTypeName::new("aws_s3_bucket"),
        label: label.into(),
        region: Region::new("us-east-1"),
        attrs,
        id: ResourceId::new(id),
    }
}

fn set_attr(rtype: &str, name: &str, attr: &str, value: Value) -> EditOp {
    EditOp::SetAttr {
        rtype: rtype.into(),
        name: name.into(),
        attr: attr.into(),
        value,
    }
}

fn ops(ops: Vec<EditOp>) -> ReconcilePlan {
    ReconcilePlan {
        ops,
        ..Default::default()
    }
}

#[test]
fn set_attr_rewrites_in_place() {
    let plan = ops(vec![set_attr(
        "aws_vpc",
        "v",
        "name",
        Value::from("renamed-by-clickops"),
    )]);
    let out = synth(&parse(BASE), &plan);
    assert!(out.ok, "{:?}", out.errors);
    assert_eq!(out.iterations, 1);
    assert!(out.source.contains("renamed-by-clickops"), "{}", out.source);
    assert!(out.dropped.is_empty());
}

#[test]
fn set_count_and_remove_keys() {
    let plan = ops(vec![
        EditOp::SetCount {
            rtype: "aws_s3_bucket".into(),
            name: "b".into(),
            count: 2,
        },
        EditOp::RemoveForEachKeys {
            rtype: "aws_subnet".into(),
            name: "s".into(),
            keys: ["beta".to_owned()].into(),
        },
    ]);
    let out = synth(&parse(BASE), &plan);
    assert!(out.ok, "{:?}", out.errors);
    let patched = parse(&out.source);
    let bucket = patched
        .blocks
        .iter()
        .find(|b| b.label(0) == Some("aws_s3_bucket"))
        .unwrap();
    assert!(
        matches!(bucket.body.attr("count").unwrap().value, Expr::Num(n, _) if n == 2.0),
        "{}",
        out.source
    );
    assert!(!out.source.contains("beta"), "{}", out.source);
    assert!(out.source.contains("alpha"));
}

#[test]
fn add_block_renders_literal_attrs() {
    let plan = ReconcilePlan {
        imports: vec![(
            "aws_s3_bucket.rogue".parse().unwrap(),
            ResourceId::new("x-1"),
        )],
        ..ops(vec![rogue_bucket(
            "rogue",
            attrs([("bucket", Value::from("rogue-data"))]),
            "x-1",
        )])
    };
    let out = synth(&parse(BASE), &plan);
    assert!(out.ok, "{:?}", out.errors);
    assert!(
        out.source.contains(r#"resource "aws_s3_bucket" "rogue""#),
        "{}",
        out.source
    );
    assert_eq!(out.plan.imports.len(), 1, "import survives with its op");
}

#[test]
fn invalid_op_is_dropped_and_its_import_filtered() {
    // rogue block with an attribute the schema rejects → the repair loop
    // drops the AddBlock (and with it the import) but keeps the valid SetAttr
    let bad = attrs([
        ("bucket", Value::from("rogue-data")),
        ("no_such_attribute", Value::from("boom")),
    ]);
    let plan = ReconcilePlan {
        imports: vec![(
            "aws_s3_bucket.rogue".parse().unwrap(),
            ResourceId::new("x-1"),
        )],
        ..ops(vec![
            rogue_bucket("rogue", bad, "x-1"),
            set_attr("aws_vpc", "v", "name", Value::from("renamed")),
        ])
    };
    let out = synth(&parse(BASE), &plan);
    assert!(out.ok, "{:?}", out.errors);
    assert_eq!(out.iterations, 2);
    assert_eq!(out.dropped.len(), 1);
    assert!(matches!(out.dropped[0].0, EditOp::AddBlock { .. }));
    assert!(out.plan.imports.is_empty(), "dropped op takes its import");
    assert!(out.source.contains("renamed"), "valid op survives");
    assert!(!out.source.contains("rogue"));
}

#[test]
fn a_surviving_set_count_keeps_its_moves_and_only_it() {
    let moves = vec![(
        "aws_s3_bucket.b[2]".parse().unwrap(),
        "aws_s3_bucket.b[1]".parse().unwrap(),
    )];
    let without = ReconcilePlan {
        moves: moves.clone(),
        ..ops(vec![])
    };
    assert!(synth(&parse(BASE), &without).plan.moves.is_empty());
    let shrink = EditOp::SetCount {
        rtype: "aws_s3_bucket".into(),
        name: "b".into(),
        count: 3,
    };
    let with = ReconcilePlan {
        moves,
        ..ops(vec![shrink])
    };
    let out = synth(&parse(BASE), &with);
    assert!(out.ok, "{:?}", out.errors);
    assert_eq!(out.plan.moves.len(), 1);
}

#[test]
fn unsatisfiable_gate_refuses() {
    // base program with a warning-level finding + DenyWarnings gate: no
    // subset of ops can fix the *base*, so reconcile refuses
    let src = r#"
variable "unused" { default = 1 }
resource "aws_s3_bucket" "b" { bucket = "x" }
"#;
    let plan = ops(vec![set_attr(
        "aws_s3_bucket",
        "b",
        "bucket",
        Value::from("y"),
    )]);
    let out = synth_gated(&parse(src), &plan, LintGate::DenyWarnings);
    assert!(!out.ok);
    assert!(
        out.errors.iter().any(|e| e.contains("ANA101")),
        "{:?}",
        out.errors
    );
}

#[test]
fn repair_terminates_on_all_bad_ops() {
    let plan = ops(vec![
        set_attr("aws_vpc", "v", "cidr_block", Value::from("not-a-cidr")),
        rogue_bucket("bad", attrs([("nonsense", Value::from(1.0))]), "x-9"),
    ]);
    let out = synth(&parse(BASE), &plan);
    assert!(
        out.ok,
        "repair must converge to the clean base: {:?}",
        out.errors
    );
    assert_eq!(out.dropped.len(), 2);
    assert!(out.plan.ops.is_empty());
}

/// Distinct labels with no prefix relationship (textual error→op
/// attribution must not cross-implicate `b1` on a `b10` error).
const LABELS: [&str; 8] = ["ba", "bc", "bd", "be", "bf", "bg", "bh", "bi"];

fn base_source() -> String {
    let mut src = String::from("resource \"aws_vpc\" \"net\" { cidr_block = \"10.0.0.0/16\" }\n");
    for l in LABELS {
        src.push_str(&format!(
            "resource \"aws_s3_bucket\" \"{l}\" {{ bucket = \"{l}-data\" }}\n"
        ));
    }
    src
}

/// One generated op aimed at its own block, tagged with ground truth.
#[derive(Debug, Clone)]
struct GenOp {
    op: EditOp,
    valid: bool,
}

fn make_op(slot: usize, kind: usize, payload: &str) -> GenOp {
    let label = LABELS[slot % LABELS.len()];
    let added = format!("{label}_new");
    let id = format!("rogue-{label}");
    // a bucket name of the slot's own: two ops naming one bucket would
    // implicate each other (VAL306), and ground truth is per op
    let payload = format!("{payload}{slot}");
    let (op, valid) = match kind % 5 {
        0 => (
            set_attr(
                "aws_s3_bucket",
                label,
                "bucket",
                Value::from(payload.as_str()),
            ),
            true,
        ),
        1 => (
            set_attr(
                "aws_s3_bucket",
                label,
                "not_a_real_attribute",
                Value::from("x"),
            ),
            false,
        ),
        2 => (
            EditOp::RemoveBlock {
                rtype: "aws_s3_bucket".into(),
                name: label.into(),
            },
            true,
        ),
        3 => (
            rogue_bucket(
                &added,
                attrs([("bucket", Value::from(payload.as_str()))]),
                &id,
            ),
            true,
        ),
        _ => (
            rogue_bucket(&added, attrs([("bogus_attribute", Value::from(true))]), &id),
            false,
        ),
    };
    GenOp { op, valid }
}

fn gen_ops() -> impl Strategy<Value = Vec<GenOp>> {
    // one op per block slot (slot = position), so ground truth stays per-op
    // and textual attribution cannot cross-implicate blocks
    proptest::collection::vec((0usize..5, "[a-z]{1,8}"), 1..=LABELS.len()).prop_map(|specs| {
        specs
            .iter()
            .enumerate()
            .map(|(slot, (kind, payload))| make_op(slot, *kind, payload))
            .collect()
    })
}

proptest! {
    /// The repair loop always converges to a clean program (the base is
    /// clean, so dropping everything is a valid fixpoint), every op is
    /// accounted for exactly once, and invalid ops never survive.
    #[test]
    fn repair_loop_converges_and_drops_exactly_the_invalid(ops in gen_ops()) {
        let file = parse(&base_source());
        let plan = ReconcilePlan {
            ops: ops.iter().map(|g| g.op.clone()).collect(),
            ..Default::default()
        };
        let out = synth(&file, &plan);
        prop_assert!(out.ok, "must converge: {:?}", out.errors);
        prop_assert_eq!(
            out.plan.ops.len() + out.dropped.len(),
            ops.len(),
            "every op accounted for"
        );
        // soundness: nothing invalid survives
        for g in ops.iter().filter(|g| !g.valid) {
            prop_assert!(
                !out.plan.ops.contains(&g.op),
                "invalid op survived: {:?}",
                g.op
            );
        }
        // minimality: ops target distinct blocks, so attribution is exact
        // and every valid op survives
        for g in ops.iter().filter(|g| g.valid) {
            prop_assert!(
                out.plan.ops.contains(&g.op),
                "valid op over-dropped: {:?}\ndropped: {:?}",
                g.op,
                out.dropped
            );
        }
        // the emitted patch itself passes the front end again
        let reparse = cloudless::hcl::parse(&out.source, "main.tf");
        prop_assert!(reparse.is_ok());
    }

    /// Patch minimality is monotone: synthesizing from a subset of the ops
    /// never yields more surviving ops than the full plan.
    #[test]
    fn surviving_ops_are_monotone_in_the_plan(ops in gen_ops(), cut in 0usize..8) {
        let file = parse(&base_source());
        let full = ReconcilePlan {
            ops: ops.iter().map(|g| g.op.clone()).collect(),
            ..Default::default()
        };
        let keep = cut.min(ops.len());
        let subset = ReconcilePlan {
            ops: full.ops[..keep].to_vec(),
            ..Default::default()
        };
        let out_full = synth(&file, &full);
        let out_sub = synth(&file, &subset);
        prop_assert!(out_sub.plan.ops.len() <= out_full.plan.ops.len());
        // and the subset's survivors are exactly the full run's survivors
        // restricted to the subset (per-block attribution is independent)
        for op in &out_sub.plan.ops {
            prop_assert!(out_full.plan.ops.contains(op));
        }
    }

    /// Applying a patch twice changes nothing: re-running synthesis on the
    /// patched file with the surviving in-place ops is a fixpoint.
    #[test]
    fn patching_is_idempotent(ops in gen_ops()) {
        let file = parse(&base_source());
        let plan = ReconcilePlan {
            ops: ops.iter().map(|g| g.op.clone()).collect(),
            ..Default::default()
        };
        let first = synth(&file, &plan);
        prop_assert!(first.ok);
        // AddBlock is create-once by design (its block now exists); the
        // in-place ops must all be idempotent
        let replay = ReconcilePlan {
            ops: first
                .plan
                .ops
                .iter()
                .filter(|op| !matches!(op, EditOp::AddBlock { .. }))
                .cloned()
                .collect(),
            ..Default::default()
        };
        let second = synth(&first.file, &replay);
        prop_assert!(second.ok, "{:?}", second.errors);
        prop_assert_eq!(second.iterations, 1);
        prop_assert_eq!(&second.source, &first.source);
    }
}
