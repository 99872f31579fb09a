//! Patch synthesis: the back half of `cloudless reconcile`.
//!
//! [`apply_ops`] performs the AST surgery for a list of
//! [`EditOp`]s produced by `cloudless_diagnose::reconcile::classify`;
//! [`synthesize_patch_with`] wraps it in the validate-and-repair loop — the
//! "fail, learn, refine" cycle of deployability-centric synthesis, with the
//! deployment's own gate as the critic:
//!
//! 1. **fail** — render the candidate patch and hand it to the caller's
//!    checker, which the engine makes its converge pipeline (parse → lint →
//!    expand → validate → analyze → plan), so a candidate is admitted
//!    exactly when an apply of it would be;
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

use std::collections::HashMap;

use cloudless_analyze::LintConfig;
use cloudless_diagnose::reconcile::{EditOp, ReconcilePlan};
use cloudless_hcl::ast::{Attribute, Block, BlockBody, Expr, File};
use cloudless_hcl::{render_file, value_to_expr};
use cloudless_types::{Attrs, Span};

/// Result of a [`synthesize_patch_with`] run.
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
    /// Whether the checker admitted the final candidate. `false` means even
    /// the op-free program fails the gate.
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
                .filter(|(k, _)| !keys.contains(k.as_str()))
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
/// dropping the ops `checker` rejects. Given a candidate source, the
/// checker returns the failing messages, empty when it admits it; the
/// engine routes it through its memoized converge pipeline, so repeated
/// repair iterations — and the converge that follows a successful patch —
/// do not each pay a full parse/lint/expand/validate.
///
/// Error→op attribution is textual: an op is implicated when any error
/// message contains its `type.name` target (validator and lint messages
/// both lead with resource addresses). When an iteration fails but no op
/// is implicated, the most recently added op is dropped — blind refinement
/// still guarantees termination.
pub fn synthesize_patch_with(
    base: &File,
    plan: &ReconcilePlan,
    config: &PatchConfig,
    checker: &mut dyn FnMut(&str) -> Vec<String>,
) -> PatchOutcome {
    repair(base, None, plan, config, checker)
}

/// [`synthesize_patch_with`] of the program whose text is `text` and whose
/// syntax tree is `base`: a candidate with no op left is `text` itself, byte
/// for byte, not `base` rendered again.
pub fn synthesize_patch(
    text: &str,
    base: &File,
    plan: &ReconcilePlan,
    config: &PatchConfig,
    checker: &mut dyn FnMut(&str) -> Vec<String>,
) -> PatchOutcome {
    repair(base, Some(text), plan, config, checker)
}

fn repair(
    base: &File,
    text: Option<&str>,
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
        let source = match text {
            Some(text) if active.is_empty() => text.to_owned(),
            _ => render_file(&file),
        };
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

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_types::value::attrs;
    use cloudless_types::{Region, ResourceId, ResourceTypeName, Value};

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

    fn op_lists() -> impl proptest::strategy::Strategy<Value = Vec<EditOp>> {
        use proptest::strategy::Strategy;
        proptest::collection::vec((0usize..5, 0usize..4, 0usize..6), 0..24)
            .prop_map(|ops| ops.into_iter().map(gen_op).collect())
    }

    proptest::proptest! {
        /// The index finds what the scan found: the same file for every op
        /// list, repeated ops, a set after a remove and a set after an add
        /// of the same name included.
        #[test]
        fn apply_ops_is_the_scan(ops in op_lists()) {
            let base = cloudless_hcl::parse(DUPLICATES, "main.tf").unwrap();
            proptest::prop_assert_eq!(apply_ops(&base, &ops), apply_ops_by_scan(&base, &ops));
        }

        /// A batch of ops edits what applying them one at a time does.
        #[test]
        fn apply_ops_is_one_op_at_a_time(ops in op_lists()) {
            let base = cloudless_hcl::parse(DUPLICATES, "main.tf").unwrap();
            let one_at_a_time = ops
                .iter()
                .fold(base.clone(), |file, op| apply_ops(&file, std::slice::from_ref(op)));
            proptest::prop_assert_eq!(apply_ops(&base, &ops), one_at_a_time);
        }
    }
}
