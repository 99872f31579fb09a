//! Patch synthesis: the back half of `cloudless reconcile`.
//!
//! [`apply_ops`] performs the AST surgery for a list of
//! [`EditOp`]s produced by `cloudless_diagnose::reconcile::classify`;
//! [`synthesize_patch`] wraps it in the validate-and-repair loop — the
//! "fail, learn, refine" cycle of deployability-centric synthesis, with
//! the lint gate and the validator standing in for the LLM critic:
//!
//! 1. **fail** — render the candidate patch and run it through the full
//!    front end (parse → classify → lint gate → expand → validate);
//! 2. **learn** — attribute each error message back to the edit op whose
//!    `type.name` target it mentions;
//! 3. **refine** — drop the implicated ops and try again. A dropped op's
//!    drift reverts to overwrite semantics: the next converge stomps the
//!    cloud back to the program instead of the program adopting the cloud.
//!
//! The loop terminates: every failed iteration removes at least one op,
//! and an op-free patch is the unmodified program — if *that* still fails
//! the gate, reconciliation is refused ([`PatchOutcome::ok`] = false),
//! which is exactly the deny-lint path the CLI surfaces.

use std::collections::{BTreeMap, HashMap};

use cloudless_analyze::{lint_program, LintConfig};
use cloudless_cloud::Catalog;
use cloudless_diagnose::reconcile::{EditOp, ReconcilePlan};
use cloudless_hcl::ast::{Attribute, Block, BlockBody, Expr, File, MapKey};
use cloudless_hcl::program::{expand, ModuleLibrary, Program};
use cloudless_hcl::render_file;
use cloudless_port::naive::value_to_expr;
use cloudless_types::{Attrs, Span, Value};
use cloudless_validate::{validate, ValidationLevel};

/// Result of a [`synthesize_patch`] run.
#[derive(Debug, Clone)]
pub struct PatchOutcome {
    /// The patched AST (the base file when every op was dropped).
    pub file: File,
    /// Rendered source of `file`.
    pub source: String,
    /// The surviving plan: ops that made it through the repair loop, with
    /// `moves`/`imports` filtered down to the survivors.
    pub plan: ReconcilePlan,
    /// Ops the repair loop dropped, with the error that implicated each.
    pub dropped: Vec<(EditOp, String)>,
    /// Check iterations used (≥ 1).
    pub iterations: usize,
    /// Whether the final candidate passes parse + lint + expand + validate.
    /// `false` means even the op-free program fails the gate.
    pub ok: bool,
    /// Error messages of the final attempt when `ok` is false.
    pub errors: Vec<String>,
}

/// Apply edit ops to a program AST. Pure function; unknown targets are
/// ignored (the repair loop treats a no-op edit as harmless). An op edits
/// the first block its `type.name` names when it runs — one an earlier op
/// added included, one an earlier op removed not — and `RemoveBlock`
/// removes every such block. One index of the blocks the ops name, built in
/// one pass, finds them: O(ops + blocks), where a scan per op was their
/// product.
pub fn apply_ops(base: &File, ops: &[EditOp]) -> File {
    let mut file = base.clone();
    // (type, name) → the live blocks it names, in file order: only the
    // names an op edits or removes
    let mut named: HashMap<(&str, &str), Vec<usize>> = (ops.iter().filter_map(target_block))
        .map(|key| (key, Vec::new()))
        .collect();
    for (at, block) in base.blocks.iter().enumerate() {
        if let Some(blocks) = resource_key(block).and_then(|key| named.get_mut(&key)) {
            blocks.push(at);
        }
    }
    let mut removed = vec![false; base.blocks.len()];
    for op in ops {
        match op {
            EditOp::RemoveBlock { rtype, name } => {
                let blocks = named.get_mut(&(rtype.as_str(), name.as_str()));
                for at in blocks.map(std::mem::take).unwrap_or_default() {
                    removed[at] = true;
                }
            }
            EditOp::AddBlock {
                rtype,
                label,
                attrs,
                ..
            } => {
                if let Some(blocks) = named.get_mut(&(rtype.as_str(), label.as_str())) {
                    blocks.push(file.blocks.len());
                }
                file.blocks.push(added_block(rtype.as_str(), label, attrs));
                removed.push(false);
            }
            _ => {
                let first = target_block(op).and_then(|key| named.get(&key)?.first());
                if let Some(&at) = first {
                    edit_block(&mut file.blocks[at], op);
                }
            }
        }
    }
    let mut gone = removed.into_iter();
    file.blocks.retain(|_| !gone.next().unwrap_or(false));
    file
}

/// The `(type, name)` of the resource block an op edits or removes.
fn target_block(op: &EditOp) -> Option<(&str, &str)> {
    match op {
        EditOp::SetAttr { rtype, name, .. }
        | EditOp::SetCount { rtype, name, .. }
        | EditOp::RemoveForEachKeys { rtype, name, .. }
        | EditOp::RemoveBlock { rtype, name } => Some((rtype, name)),
        EditOp::AddBlock { .. } => None,
    }
}

/// The `(type, name)` a resource block declares.
fn resource_key(block: &Block) -> Option<(&str, &str)> {
    let labels = (block.label(0), block.label(1));
    match (block.kind == "resource", labels) {
        (true, (Some(rtype), Some(name))) => Some((rtype, name)),
        _ => None,
    }
}

/// Apply an op that edits a block in place (`SetAttr`, `SetCount`,
/// `RemoveForEachKeys`) to its target.
fn edit_block(block: &mut Block, op: &EditOp) {
    match op {
        EditOp::SetAttr { attr, value, .. } => set_attr(block, attr, value_to_expr(value)),
        EditOp::SetCount { count, .. } => {
            set_attr(block, "count", Expr::Num(*count as f64, Span::synthetic()))
        }
        EditOp::RemoveForEachKeys { keys, .. } => {
            if let Some(fe) = block.body.attrs.iter_mut().find(|a| a.name == "for_each") {
                fe.value = remove_keys(&fe.value, keys);
            }
        }
        EditOp::RemoveBlock { .. } | EditOp::AddBlock { .. } => {}
    }
}

/// The block an `AddBlock` of `rtype.label` appends.
fn added_block(rtype: &str, label: &str, attrs: &Attrs) -> Block {
    let sp = Span::synthetic();
    let attrs = attrs.iter().map(|(name, value)| Attribute {
        name: name.clone(),
        value: value_to_expr(value),
        span: sp,
    });
    Block {
        kind: "resource".to_owned(),
        labels: vec![rtype.to_owned(), label.to_owned()],
        body: BlockBody {
            attrs: attrs.collect(),
            blocks: vec![],
        },
        span: sp,
    }
}

fn set_attr(block: &mut Block, name: &str, value: Expr) {
    match block.body.attrs.iter_mut().find(|a| a.name == name) {
        Some(a) => a.value = value,
        None => block.body.attrs.push(Attribute {
            name: name.to_owned(),
            value,
            span: Span::synthetic(),
        }),
    }
}

fn remove_keys(expr: &Expr, keys: &std::collections::BTreeSet<String>) -> Expr {
    match expr {
        Expr::List(items, sp) => Expr::List(
            items
                .iter()
                .filter(|e| e.as_plain_str().map(|s| !keys.contains(s)).unwrap_or(true))
                .cloned()
                .collect(),
            *sp,
        ),
        Expr::Map(pairs, sp) => Expr::Map(
            pairs
                .iter()
                .filter(|(k, _)| {
                    let key = match k {
                        MapKey::Ident(s) | MapKey::Str(s) => s.as_str(),
                    };
                    !keys.contains(key)
                })
                .cloned()
                .collect(),
            *sp,
        ),
        other => other.clone(),
    }
}

/// Knobs for the repair loop.
#[derive(Debug, Clone)]
pub struct PatchConfig {
    /// Maximum check iterations before giving up.
    pub max_attempts: usize,
    /// Lint gate configuration the patch must satisfy.
    pub lint: LintConfig,
}

impl Default for PatchConfig {
    fn default() -> Self {
        PatchConfig {
            max_attempts: 8,
            lint: LintConfig::default(),
        }
    }
}

/// Synthesize a minimal patch for `plan` against `base`, repairing by
/// dropping ops the front end rejects.
///
/// Error→op attribution is textual: an op is implicated when any error
/// message contains its `type.name` target (validator and lint messages
/// both lead with resource addresses). When an iteration fails but no op
/// is implicated, the most recently added op is dropped — blind refinement
/// still guarantees termination.
pub fn synthesize_patch(
    base: &File,
    plan: &ReconcilePlan,
    catalog: &Catalog,
    modules: &ModuleLibrary,
    inputs: &BTreeMap<String, Value>,
    config: &PatchConfig,
) -> PatchOutcome {
    let mut checker = |source: &str| check_patch(source, catalog, modules, inputs, &config.lint);
    synthesize_patch_with(base, plan, config, &mut checker)
}

/// [`synthesize_patch`] with a caller-supplied candidate checker: given a
/// candidate source, return the failing messages (empty = admitted). The
/// engine routes this through its memoized converge pipeline so repeated
/// repair iterations — and the converge that follows a successful patch —
/// do not each pay a full parse/lint/expand/validate.
pub fn synthesize_patch_with(
    base: &File,
    plan: &ReconcilePlan,
    config: &PatchConfig,
    checker: &mut dyn FnMut(&str) -> Vec<String>,
) -> PatchOutcome {
    let mut active: Vec<EditOp> = plan.ops.clone();
    let mut dropped: Vec<(EditOp, String)> = Vec::new();
    let mut iterations = 0;
    loop {
        iterations += 1;
        let file = apply_ops(base, &active);
        let source = render_file(&file);
        let errors = checker(&source);
        if errors.is_empty() {
            return PatchOutcome {
                file,
                source,
                plan: surviving_plan(plan, &active),
                dropped,
                iterations,
                ok: true,
                errors: Vec::new(),
            };
        }
        if active.is_empty() || iterations >= config.max_attempts {
            // Even the unpatched program fails the gate (or the budget is
            // spent): refuse rather than emit a bad patch.
            return PatchOutcome {
                file,
                source,
                plan: surviving_plan(plan, &active),
                dropped,
                iterations,
                ok: false,
                errors,
            };
        }
        // learn: drop every op an error message points at
        let implicated: Vec<usize> = active
            .iter()
            .enumerate()
            .filter(|(_, op)| {
                let target = op.target();
                errors.iter().any(|e| e.contains(&target))
            })
            .map(|(i, _)| i)
            .collect();
        let victims = if implicated.is_empty() {
            vec![active.len() - 1]
        } else {
            implicated
        };
        for i in victims.into_iter().rev() {
            let op = active.remove(i);
            let target = op.target();
            let reason = errors
                .iter()
                .find(|e| e.contains(&target))
                .cloned()
                .unwrap_or_else(|| errors[0].clone());
            dropped.push((op, reason));
        }
    }
}

/// Restrict a plan to the ops that survived, carrying only the moves and
/// imports their ops justify. A dropped `SetCount` must not renumber state;
/// a dropped `AddBlock` must not import its resource.
fn surviving_plan(original: &ReconcilePlan, active: &[EditOp]) -> ReconcilePlan {
    let fleet_ok = |rtype: &str, name: &str| {
        active
            .iter()
            .any(|op| matches!(op, EditOp::SetCount { rtype: r, name: n, .. } if r == rtype && n == name))
    };
    let import_ok = |rt: &str, label: &str| {
        active.iter().any(
            |op| matches!(op, EditOp::AddBlock { rtype, label: l, .. } if rtype.as_str() == rt && l == label),
        )
    };
    ReconcilePlan {
        ops: active.to_vec(),
        moves: original
            .moves
            .iter()
            .filter(|(from, _)| fleet_ok(from.rtype.as_str(), &from.name))
            .cloned()
            .collect(),
        imports: original
            .imports
            .iter()
            .filter(|(addr, _)| import_ok(addr.rtype.as_str(), &addr.name))
            .cloned()
            .collect(),
        overwrites: original.overwrites.clone(),
        skipped: original.skipped.clone(),
    }
}

/// The full front end as a pass/fail check returning the failing messages,
/// each prefixed with its diagnostic code.
pub fn check_patch(
    source: &str,
    catalog: &Catalog,
    modules: &ModuleLibrary,
    inputs: &BTreeMap<String, Value>,
    lint: &LintConfig,
) -> Vec<String> {
    let file = match cloudless_hcl::parse(source, "reconcile.tf") {
        Ok(f) => f,
        Err(diags) => return messages(&diags),
    };
    let program = match Program::from_file(file) {
        Ok(p) => p,
        Err(diags) => return messages(&diags),
    };
    let report = lint_program(&program, modules, lint);
    if report.fails(lint) {
        return report
            .findings
            .iter()
            .filter(|f| f.diagnostic.severity >= lint.fail_on)
            .map(|f| format!("{}: {}", f.diagnostic.code, f.diagnostic.message))
            .collect();
    }
    let manifest = match expand(&program, inputs, modules, &cloudless_hcl::eval::DeferAll) {
        Ok(m) => m,
        Err(diags) => return messages(&diags),
    };
    let v = validate(&manifest, catalog, ValidationLevel::CloudRules, None);
    v.diagnostics
        .iter()
        .filter(|d| d.severity == cloudless_hcl::Severity::Error)
        .map(|d| format!("{}: {}", d.code, d.message))
        .collect()
}

fn messages(diags: &cloudless_hcl::Diagnostics) -> Vec<String> {
    diags
        .iter()
        .map(|d| format!("{}: {}", d.code, d.message))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_types::value::attrs;
    use cloudless_types::{Region, ResourceId, ResourceTypeName};

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

    fn base() -> File {
        cloudless_hcl::parse(BASE, "main.tf").unwrap()
    }

    fn synth(plan: &ReconcilePlan) -> PatchOutcome {
        synthesize_patch(
            &base(),
            plan,
            &Catalog::standard(),
            &ModuleLibrary::new(),
            &BTreeMap::new(),
            &PatchConfig::default(),
        )
    }

    #[test]
    fn set_attr_rewrites_in_place() {
        let plan = ReconcilePlan {
            ops: vec![EditOp::SetAttr {
                rtype: "aws_vpc".into(),
                name: "v".into(),
                attr: "name".into(),
                value: Value::from("renamed-by-clickops"),
            }],
            ..Default::default()
        };
        let out = synth(&plan);
        assert!(out.ok, "{:?}", out.errors);
        assert_eq!(out.iterations, 1);
        assert!(out.source.contains("renamed-by-clickops"), "{}", out.source);
        assert!(out.dropped.is_empty());
    }

    #[test]
    fn set_count_and_remove_keys() {
        let plan = ReconcilePlan {
            ops: vec![
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
            ],
            ..Default::default()
        };
        let out = synth(&plan);
        assert!(out.ok, "{:?}", out.errors);
        let patched = cloudless_hcl::parse(&out.source, "t").unwrap();
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
            ops: vec![EditOp::AddBlock {
                rtype: ResourceTypeName::new("aws_s3_bucket"),
                label: "rogue".into(),
                region: Region::new("us-east-1"),
                attrs: attrs([("bucket", Value::from("rogue-data"))]),
                id: ResourceId::new("x-1"),
            }],
            imports: vec![(
                "aws_s3_bucket.rogue".parse().unwrap(),
                ResourceId::new("x-1"),
            )],
            ..Default::default()
        };
        let out = synth(&plan);
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
        // rogue block with an attribute the schema rejects → the repair
        // loop drops the AddBlock (and with it the import) but keeps the
        // valid SetAttr
        let plan = ReconcilePlan {
            ops: vec![
                EditOp::AddBlock {
                    rtype: ResourceTypeName::new("aws_s3_bucket"),
                    label: "rogue".into(),
                    region: Region::new("us-east-1"),
                    attrs: attrs([
                        ("bucket", Value::from("rogue-data")),
                        ("no_such_attribute", Value::from("boom")),
                    ]),
                    id: ResourceId::new("x-1"),
                },
                EditOp::SetAttr {
                    rtype: "aws_vpc".into(),
                    name: "v".into(),
                    attr: "name".into(),
                    value: Value::from("renamed"),
                },
            ],
            imports: vec![(
                "aws_s3_bucket.rogue".parse().unwrap(),
                ResourceId::new("x-1"),
            )],
            ..Default::default()
        };
        let out = synth(&plan);
        assert!(out.ok, "{:?}", out.errors);
        assert_eq!(out.iterations, 2);
        assert_eq!(out.dropped.len(), 1);
        assert!(matches!(out.dropped[0].0, EditOp::AddBlock { .. }));
        assert!(out.plan.imports.is_empty(), "dropped op takes its import");
        assert!(out.source.contains("renamed"), "valid op survives");
        assert!(!out.source.contains("rogue"));
    }

    #[test]
    fn dropped_set_count_takes_its_moves() {
        // a count edit that breaks validation (impossible here directly, so
        // simulate by pairing SetCount with a bad SetAttr on the same block
        // is not enough — instead target a block that does not exist; the
        // no-op edit leaves the program valid, so instead check the filter
        // directly)
        let plan = ReconcilePlan {
            ops: vec![],
            moves: vec![(
                "aws_s3_bucket.b[2]".parse().unwrap(),
                "aws_s3_bucket.b[1]".parse().unwrap(),
            )],
            ..Default::default()
        };
        let filtered = surviving_plan(&plan, &[]);
        assert!(filtered.moves.is_empty());
        let keep = surviving_plan(
            &plan,
            &[EditOp::SetCount {
                rtype: "aws_s3_bucket".into(),
                name: "b".into(),
                count: 3,
            }],
        );
        assert_eq!(keep.moves.len(), 1);
    }

    #[test]
    fn unsatisfiable_gate_refuses() {
        // base program with a warning-level finding + DenyWarnings gate:
        // no subset of ops can fix the *base*, so reconcile refuses
        let src = r#"
variable "unused" { default = 1 }
resource "aws_s3_bucket" "b" { bucket = "x" }
"#;
        let file = cloudless_hcl::parse(src, "main.tf").unwrap();
        let plan = ReconcilePlan {
            ops: vec![EditOp::SetAttr {
                rtype: "aws_s3_bucket".into(),
                name: "b".into(),
                attr: "bucket".into(),
                value: Value::from("y"),
            }],
            ..Default::default()
        };
        let config = PatchConfig {
            lint: LintConfig {
                fail_on: cloudless_hcl::Severity::Warning,
                ..LintConfig::default()
            },
            ..PatchConfig::default()
        };
        let out = synthesize_patch(
            &file,
            &plan,
            &Catalog::standard(),
            &ModuleLibrary::new(),
            &BTreeMap::new(),
            &config,
        );
        assert!(!out.ok);
        assert!(!out.errors.is_empty());
        assert!(
            out.errors.iter().any(|e| e.contains("ANA101")),
            "{:?}",
            out.errors
        );
    }

    /// `apply_ops` as a scan: each op walks the blocks for its target, and
    /// each `RemoveBlock` filters the file.
    fn apply_ops_by_scan(base: &File, ops: &[EditOp]) -> File {
        let mut file = base.clone();
        for op in ops {
            match op {
                EditOp::RemoveBlock { rtype, name } => {
                    let key = Some((rtype.as_str(), name.as_str()));
                    file.blocks.retain(|b| resource_key(b) != key);
                }
                EditOp::AddBlock {
                    rtype,
                    label,
                    attrs,
                    ..
                } => file.blocks.push(added_block(rtype.as_str(), label, attrs)),
                _ => {
                    let mut blocks = file.blocks.iter_mut();
                    if let Some(b) = blocks.find(|b| resource_key(b) == target_block(op)) {
                        edit_block(b, op);
                    }
                }
            }
        }
        file
    }

    /// Two blocks named `b.a` (and a `variable "a"` beside them), a
    /// `for_each` block and one no op names: duplicates are where "the
    /// first live block" and "every block" part ways.
    const DUPLICATES: &str = r#"
variable "a" { default = "x" }
resource "b" "a" { bucket = "one" }
resource "b" "c" {
  for_each = ["k0", "k1", "k2"]
  bucket   = each.key
}
resource "b" "a" { bucket = "two" }
resource "b" "untouched" { bucket = "u" }
"#;

    /// An op on one of four names of type `b`, `a` and `c` among them.
    fn gen_op((kind, name, payload): (usize, usize, usize)) -> EditOp {
        let (rtype, name) = ("b".to_owned(), ["a", "c", "d", "e"][name % 4].to_owned());
        match kind % 5 {
            0 => EditOp::SetAttr {
                rtype,
                name,
                attr: ["bucket", "tags"][payload % 2].into(),
                value: Value::from(format!("v{payload}")),
            },
            1 => EditOp::SetCount {
                rtype,
                name,
                count: payload,
            },
            2 => EditOp::RemoveForEachKeys {
                rtype,
                name,
                keys: [format!("k{}", payload % 3)].into(),
            },
            3 => EditOp::RemoveBlock { rtype, name },
            _ => EditOp::AddBlock {
                rtype: ResourceTypeName::new(rtype),
                label: name,
                region: Region::new("us-east-1"),
                attrs: attrs([("bucket", Value::from(format!("added-{payload}")))]),
                id: ResourceId::new(format!("x-{payload}")),
            },
        }
    }

    proptest::proptest! {
        /// The index finds what the scan found: the same file for every op
        /// list, repeated ops, a set after a remove and a set after an add
        /// of the same name included.
        #[test]
        fn apply_ops_is_the_scan(
            ops in proptest::collection::vec((0usize..5, 0usize..4, 0usize..6), 0..24),
        ) {
            let base = cloudless_hcl::parse(DUPLICATES, "main.tf").unwrap();
            let ops: Vec<EditOp> = ops.into_iter().map(gen_op).collect();
            proptest::prop_assert_eq!(apply_ops(&base, &ops), apply_ops_by_scan(&base, &ops));
        }
    }

    #[test]
    fn repair_terminates_on_all_bad_ops() {
        let plan = ReconcilePlan {
            ops: vec![
                EditOp::SetAttr {
                    rtype: "aws_vpc".into(),
                    name: "v".into(),
                    attr: "cidr_block".into(),
                    value: Value::from("not-a-cidr"),
                },
                EditOp::AddBlock {
                    rtype: ResourceTypeName::new("aws_s3_bucket"),
                    label: "bad".into(),
                    region: Region::new("us-east-1"),
                    attrs: attrs([("nonsense", Value::from(1.0))]),
                    id: ResourceId::new("x-9"),
                },
            ],
            ..Default::default()
        };
        let out = synth(&plan);
        assert!(
            out.ok,
            "repair must converge to the clean base: {:?}",
            out.errors
        );
        assert_eq!(out.dropped.len(), 2);
        assert!(out.plan.ops.is_empty());
    }
}
