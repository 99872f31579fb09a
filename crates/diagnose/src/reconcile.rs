//! Drift → edit-op classification: the front half of `cloudless reconcile`.
//!
//! §3.5 asks the stack to "either regenerate the IaC-level program to
//! reflect the latest deployment, or notify corresponding parties". The
//! [`crate::drift`] module detects drift; this module decides what the
//! *program-level* fix is. Each out-of-band mutation is classified into a
//! patchable [`EditOp`] when the adoption is expressible as a literal AST
//! edit, or recorded as an overwrite (the next converge stomps the cloud
//! back into shape) when it is not.
//!
//! The taxonomy (see DESIGN.md):
//!
//! * [`EditOp::SetAttr`] — attribute drift on a singleton block is adopted
//!   by rewriting the attribute to the live value as a literal;
//! * [`EditOp::SetCount`] — an out-of-band deletion inside a counted fleet
//!   shrinks `count`, with surviving instances renumbered via state moves;
//! * [`EditOp::RemoveForEachKeys`] — the `for_each` analogue, when the
//!   collection is a literal list/map;
//! * [`EditOp::RemoveBlock`] — a deleted singleton is forgotten entirely;
//! * [`EditOp::AddBlock`] — an unmanaged (ClickOps-created) resource is
//!   imported as a new block plus a state entry binding it to its live id.
//!
//! Classification is pure: it reads the refreshed state and live records
//! and produces a [`ReconcilePlan`]; applying the ops to the AST and the
//! validate-and-repair loop live in `cloudless-synth`, and the state
//! surgery (imports, moves) in the `cloudless` facade.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use cloudless_cloud::{Catalog, ResourceRecord};
use cloudless_hcl::ast::Expr;
use cloudless_hcl::program::{Manifest, Program, ResourceBlock, ResourceInstance};
use cloudless_state::Snapshot;
use cloudless_types::value::attr_differs;
use cloudless_types::{
    Attrs, Region, ResourceAddr, ResourceId, ResourceKey, ResourceTypeName, Value,
};
use serde::{Deserialize, Serialize};

/// One minimal program edit that folds a piece of drift back into IaC.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EditOp {
    /// Rewrite `attr` of the singleton block `rtype.name` to the live value
    /// (adopting attribute drift).
    SetAttr {
        rtype: String,
        name: String,
        attr: String,
        value: cloudless_types::Value,
    },
    /// Shrink (or grow) the `count` of `rtype.name` to match the surviving
    /// fleet after out-of-band deletions.
    SetCount {
        rtype: String,
        name: String,
        count: usize,
    },
    /// Drop keys from a literal `for_each` collection whose instances were
    /// deleted out of band.
    RemoveForEachKeys {
        rtype: String,
        name: String,
        keys: BTreeSet<String>,
    },
    /// Forget a deleted singleton block entirely.
    RemoveBlock { rtype: String, name: String },
    /// Import an unmanaged resource as a new block bound to its live id.
    AddBlock {
        rtype: ResourceTypeName,
        label: String,
        region: Region,
        /// Settable (non-computed, schema-known) attributes only.
        attrs: Attrs,
        id: ResourceId,
    },
}

impl EditOp {
    /// The `type.name` the op targets — the key used to attribute
    /// validator/lint errors back to the op that caused them.
    pub fn target(&self) -> String {
        match self {
            EditOp::SetAttr { rtype, name, .. }
            | EditOp::SetCount { rtype, name, .. }
            | EditOp::RemoveForEachKeys { rtype, name, .. }
            | EditOp::RemoveBlock { rtype, name } => format!("{rtype}.{name}"),
            EditOp::AddBlock { rtype, label, .. } => format!("{rtype}.{label}"),
        }
    }

    /// One-line human description (CLI and experiment output).
    pub fn describe(&self) -> String {
        match self {
            EditOp::SetAttr {
                rtype,
                name,
                attr,
                value,
            } => format!("set {rtype}.{name}.{attr} = {value} (adopt live value)"),
            EditOp::SetCount { rtype, name, count } => {
                format!("set {rtype}.{name}.count = {count} (fleet shrank out of band)")
            }
            EditOp::RemoveForEachKeys { rtype, name, keys } => {
                let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
                format!("remove for_each keys {:?} from {rtype}.{name}", keys)
            }
            EditOp::RemoveBlock { rtype, name } => {
                format!("remove block {rtype}.{name} (deleted out of band)")
            }
            EditOp::AddBlock {
                rtype, label, id, ..
            } => format!("import {id} as {rtype}.{label}"),
        }
    }
}

/// The classifier's verdict: program edits plus the state surgery they
/// require, and the drift left for plain re-convergence.
#[derive(Debug, Clone, Default)]
pub struct ReconcilePlan {
    /// Program edits, in deterministic (declaration, then id) order.
    pub ops: Vec<EditOp>,
    /// State address renames (old → new) required by `SetCount`
    /// renumbering. Applied to the snapshot before re-planning.
    pub moves: Vec<(ResourceAddr, ResourceAddr)>,
    /// State entries to create for `AddBlock` imports: the new address and
    /// the live id it binds to.
    pub imports: Vec<(ResourceAddr, ResourceId)>,
    /// Drift that is *not* expressible as a literal program edit (attribute
    /// drift inside counted fleets, deletions under non-literal `for_each`,
    /// module-internal drift). The next converge overwrites it.
    pub overwrites: Vec<ResourceAddr>,
    /// Unmanaged resources that could not be imported (unknown schema),
    /// with the reason — a human must decide.
    pub skipped: Vec<(ResourceId, String)>,
}

impl ReconcilePlan {
    /// Nothing to patch, move, or import.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty() && self.moves.is_empty() && self.imports.is_empty()
    }
}

/// What of a program a classification visits: resource blocks in
/// declaration order, each with its expanded instances, and whether the
/// cloud's records are walked for unmanaged ones.
///
/// [`Scope::every_block`] is the whole program. A caller that knows which
/// blocks can hold drift — the engine, from what its refresh changed and
/// what its plan cache says is not a no-op — hands [`Scope::blocks`] those
/// alone: a block outside them classifies to nothing, so the plan is the
/// one the whole program gives.
pub struct Scope<'a> {
    blocks: Vec<(Cow<'a, ResourceBlock>, Vec<&'a ResourceInstance>)>,
    /// Instances expanded inside modules: drift there is never patchable
    /// at the root program level, and a deleted one is left to the
    /// converge.
    nested: Vec<&'a ResourceInstance>,
    /// Every block name the program declares — the labels an import may not
    /// take — or `None`: no record can be unmanaged, and none is walked.
    declared: Option<BTreeSet<String>>,
}

impl<'a> Scope<'a> {
    /// Every block of `program`, with the instances of its expansion
    /// `manifest`: one pass over the manifest hands each root instance to
    /// its block, so the per-block work is O(block), not a scan of the
    /// world.
    pub fn every_block(program: &'a Program, manifest: &'a Manifest) -> Scope<'a> {
        let mut by_block: HashMap<(&str, &str), Vec<&ResourceInstance>> = HashMap::new();
        let mut nested = Vec::new();
        for inst in manifest.instances.iter().map(Arc::as_ref) {
            if inst.addr.module_path.is_empty() {
                let block = (inst.addr.rtype.as_str(), inst.addr.name.as_str());
                by_block.entry(block).or_default().push(inst);
            } else {
                nested.push(inst);
            }
        }
        // a program declares each block once
        let blocks = (program.resources.iter()).map(|rb| {
            let insts = by_block.remove(&(rb.rtype.as_str(), rb.name.as_str()));
            (Cow::Borrowed(rb), insts.unwrap_or_default())
        });
        let declared = program.resources.iter().map(|rb| rb.name.clone());
        Scope {
            blocks: blocks.collect(),
            nested,
            declared: Some(declared.collect()),
        }
    }

    /// Some root-module blocks of a program without modules, in declaration
    /// order, each with its instances; `declared` as in the struct.
    pub fn blocks(
        blocks: impl IntoIterator<Item = (ResourceBlock, &'a [Arc<ResourceInstance>])>,
        declared: Option<BTreeSet<String>>,
    ) -> Scope<'a> {
        let blocks = blocks.into_iter().map(|(rb, insts)| {
            let insts = insts.iter().map(Arc::as_ref).collect();
            (Cow::Owned(rb), insts)
        });
        Scope {
            blocks: blocks.collect(),
            nested: Vec::new(),
            declared,
        }
    }

    /// How many blocks it visits.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// Classify the difference between a program's expansion and the refreshed
/// state + live records into a [`ReconcilePlan`]: [`classify_scope`] of
/// every block.
pub fn classify(
    program: &Program,
    manifest: &Manifest,
    state: &Snapshot,
    records: &BTreeMap<ResourceId, ResourceRecord>,
    catalog: &Catalog,
) -> ReconcilePlan {
    classify_scope(
        Scope::every_block(program, manifest),
        state,
        records,
        catalog,
    )
}

/// Classify the blocks of `scope` against the refreshed state, and the
/// records no state entry holds when it walks them.
///
/// `state` must already be refreshed (deleted resources pruned, drifted
/// attributes folded in) — the classifier compares the program's *declared*
/// attributes against it, so drift on attributes the program never sets
/// needs no edit at all.
pub fn classify_scope(
    scope: Scope<'_>,
    state: &Snapshot,
    records: &BTreeMap<ResourceId, ResourceRecord>,
    catalog: &Catalog,
) -> ReconcilePlan {
    let mut plan = ReconcilePlan::default();
    for (rb, insts) in &scope.blocks {
        classify_block(rb, insts, state, &mut plan);
    }
    let nested = scope.nested.iter();
    let missing = nested.filter(|inst| state.get(&inst.addr).is_none());
    plan.overwrites
        .extend(missing.map(|inst| inst.addr.clone()));
    if let Some(declared) = scope.declared {
        classify_unmanaged(declared, state, records, catalog, &mut plan);
    }
    plan
}

fn classify_block(
    rb: &ResourceBlock,
    insts: &[&ResourceInstance],
    state: &Snapshot,
    plan: &mut ReconcilePlan,
) {
    let (mut live, mut missing) = (Vec::new(), Vec::new());
    for &inst in insts {
        match state.get(&inst.addr) {
            Some(rec) => live.push((inst, rec)),
            None => missing.push(inst),
        }
    }

    if !missing.is_empty() {
        if rb.count.is_some() {
            plan.ops.push(EditOp::SetCount {
                rtype: rb.rtype.clone(),
                name: rb.name.clone(),
                count: live.len(),
            });
            // Renumber survivors to a dense 0..n prefix, preserving order.
            for (new_idx, (inst, _)) in live.iter().enumerate() {
                if inst.addr.key != ResourceKey::Index(new_idx as u32) {
                    let mut to = inst.addr.clone();
                    to.key = ResourceKey::Index(new_idx as u32);
                    plan.moves.push((inst.addr.clone(), to));
                }
            }
        } else if rb.for_each.is_some() {
            let dead: BTreeSet<String> = missing
                .iter()
                .filter_map(|i| match &i.addr.key {
                    ResourceKey::Key(k) => Some(k.clone()),
                    _ => None,
                })
                .collect();
            if for_each_is_literal(rb) && !dead.is_empty() {
                plan.ops.push(EditOp::RemoveForEachKeys {
                    rtype: rb.rtype.clone(),
                    name: rb.name.clone(),
                    keys: dead,
                });
            } else {
                plan.overwrites
                    .extend(missing.iter().map(|i| i.addr.clone()));
            }
        } else {
            plan.ops.push(EditOp::RemoveBlock {
                rtype: rb.rtype.clone(),
                name: rb.name.clone(),
            });
        }
    }

    // Attribute drift on surviving instances, by the planner's rule (a
    // declared `null` matches an absent attribute). Only plan-time-known
    // attrs are comparable; deferred (reference-valued) attrs are
    // re-resolved by the differ and stomped by the converge if drifted.
    let singleton = rb.count.is_none() && rb.for_each.is_none();
    for (inst, rec) in &live {
        let mut drifted: Vec<(&String, &Value)> = inst
            .attrs
            .iter()
            .filter(|(name, desired)| attr_differs(rec.attrs.get(name.as_str()), desired))
            .map(|(name, _)| (name, rec.attrs.get(name.as_str()).unwrap_or(&Value::Null)))
            .collect();
        drifted.sort_by(|a, b| a.0.cmp(b.0));
        if drifted.is_empty() {
            continue;
        }
        if singleton {
            for (name, live_v) in drifted {
                plan.ops.push(EditOp::SetAttr {
                    rtype: rb.rtype.clone(),
                    name: rb.name.clone(),
                    attr: name.clone(),
                    value: live_v.clone(),
                });
            }
        } else {
            // A per-instance literal cannot be expressed on a shared block
            // (the attr may be a `count.index`/`each` template): overwrite.
            plan.overwrites.push(inst.addr.clone());
        }
    }
}

fn for_each_is_literal(rb: &ResourceBlock) -> bool {
    match &rb.for_each {
        Some(Expr::List(items, _)) => items.iter().all(|e| e.as_plain_str().is_some()),
        Some(Expr::Map(_, _)) => true,
        _ => false,
    }
}

/// `taken` starts as every block name the program declares, so imported
/// labels never collide with declared ones.
fn classify_unmanaged(
    mut taken: BTreeSet<String>,
    state: &Snapshot,
    records: &BTreeMap<ResourceId, ResourceRecord>,
    catalog: &Catalog,
    plan: &mut ReconcilePlan,
) {
    for (id, rec) in records {
        if state.by_id(id.as_str()).is_some() {
            continue;
        }
        let Some(schema) = catalog.get(&rec.rtype) else {
            plan.skipped
                .push((id.clone(), format!("no schema for {}", rec.rtype)));
            continue;
        };
        // Import only what a program may set. The full live attribute set
        // still lands in state via the import, so the plan stays empty.
        let attrs: Attrs = rec
            .attrs
            .iter()
            .filter(|(name, _)| schema.settable(name).is_some())
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let label = cloudless_port::label_for(rec, &mut taken);
        let addr = ResourceAddr::root(rec.rtype.clone(), &label);
        plan.imports.push((addr, id.clone()));
        plan.ops.push(EditOp::AddBlock {
            rtype: rec.rtype.clone(),
            label,
            region: rec.region.clone(),
            attrs,
            id: id.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_cloud::{Cloud, CloudConfig};
    use cloudless_deploy::resolver::DataResolver;
    use cloudless_deploy::{diff, full_refresh, Executor, Plan, Strategy};
    use cloudless_hcl::program::{expand, ModuleLibrary};
    use cloudless_types::value::attrs;
    use cloudless_types::Value;
    use std::collections::BTreeMap;

    const SRC: &str = r#"
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_s3_bucket" "b" {
  count  = 4
  bucket = "bucket-${count.index}"
}
resource "aws_subnet" "s" {
  for_each = ["alpha", "beta"]
  vpc_id   = aws_vpc.v.id
  cidr_block = each.key == "alpha" ? "10.0.1.0/24" : "10.0.2.0/24"
}
"#;

    fn world(src: &str) -> (Program, Cloud, Snapshot) {
        let catalog = cloudless_cloud::Catalog::standard();
        let data = DataResolver::new();
        let mut cloud = Cloud::new(CloudConfig::exact(), 7);
        let mut state = Snapshot::new();
        let p = Program::from_file(cloudless_hcl::parse(src, "main.tf").unwrap()).unwrap();
        let m = expand(&p, &BTreeMap::new(), &ModuleLibrary::new(), &data).unwrap();
        let plan = Plan::build(diff(&m, &state, &catalog, &data), &state, &catalog);
        let exec = Executor::new(Strategy::TerraformWalk { parallelism: 10 }, &data);
        assert!(exec.apply(&plan, &mut cloud, &mut state).all_ok());
        (p, cloud, state)
    }

    fn classify_world(p: &Program, cloud: &mut Cloud, state: &mut Snapshot) -> ReconcilePlan {
        full_refresh(cloud, state, "reconciler");
        let data = DataResolver::new();
        let m = expand(p, &BTreeMap::new(), &ModuleLibrary::new(), &data).unwrap();
        classify(p, &m, state, cloud.records(), cloud.catalog())
    }

    #[test]
    fn clean_world_classifies_to_empty_plan() {
        let (p, mut cloud, mut state) = world(SRC);
        let plan = classify_world(&p, &mut cloud, &mut state);
        assert!(plan.is_empty(), "{plan:?}");
        assert!(plan.overwrites.is_empty());
    }

    #[test]
    fn singleton_attr_drift_becomes_set_attr() {
        let (p, mut cloud, mut state) = world(SRC);
        let id = state.get(&"aws_vpc.v".parse().unwrap()).unwrap().id.clone();
        cloud
            .out_of_band_update(
                "clickops",
                &id,
                attrs([("cidr_block", Value::from("10.9.0.0/16"))]),
            )
            .unwrap();
        let plan = classify_world(&p, &mut cloud, &mut state);
        assert_eq!(plan.ops.len(), 1);
        match &plan.ops[0] {
            EditOp::SetAttr {
                rtype, attr, value, ..
            } => {
                assert_eq!(rtype, "aws_vpc");
                assert_eq!(attr, "cidr_block");
                assert_eq!(value, &Value::from("10.9.0.0/16"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn drift_on_undeclared_attr_needs_no_edit() {
        // refresh alone restores zero-diff: the program never sets `name`
        let (p, mut cloud, mut state) = world(SRC);
        let id = state.get(&"aws_vpc.v".parse().unwrap()).unwrap().id.clone();
        cloud
            .out_of_band_update("clickops", &id, attrs([("name", Value::from("pet"))]))
            .unwrap();
        let plan = classify_world(&p, &mut cloud, &mut state);
        assert!(plan.is_empty(), "{plan:?}");
    }

    #[test]
    fn counted_deletion_becomes_set_count_with_moves() {
        let (p, mut cloud, mut state) = world(SRC);
        let id = state
            .get(&"aws_s3_bucket.b[1]".parse().unwrap())
            .unwrap()
            .id
            .clone();
        cloud.out_of_band_delete("intern", &id).unwrap();
        let plan = classify_world(&p, &mut cloud, &mut state);
        assert!(plan
            .ops
            .iter()
            .any(|op| matches!(op, EditOp::SetCount { count: 3, .. })));
        // survivors [0,2,3] renumber to [0,1,2]: two moves
        assert_eq!(plan.moves.len(), 2);
        assert_eq!(plan.moves[0].0.to_string(), "aws_s3_bucket.b[2]");
        assert_eq!(plan.moves[0].1.to_string(), "aws_s3_bucket.b[1]");
    }

    #[test]
    fn for_each_deletion_removes_literal_keys() {
        let (p, mut cloud, mut state) = world(SRC);
        let id = state
            .get(&"aws_subnet.s[\"beta\"]".parse().unwrap())
            .unwrap()
            .id
            .clone();
        cloud.out_of_band_delete("intern", &id).unwrap();
        let plan = classify_world(&p, &mut cloud, &mut state);
        assert!(plan.ops.iter().any(|op| matches!(
            op,
            EditOp::RemoveForEachKeys { keys, .. } if keys.contains("beta")
        )));
    }

    #[test]
    fn deleted_singleton_becomes_remove_block() {
        let src = r#"resource "aws_vpc" "solo" { cidr_block = "10.5.0.0/16" }"#;
        let (p, mut cloud, mut state) = world(src);
        let id = state
            .get(&"aws_vpc.solo".parse().unwrap())
            .unwrap()
            .id
            .clone();
        cloud.out_of_band_delete("intern", &id).unwrap();
        let plan = classify_world(&p, &mut cloud, &mut state);
        assert_eq!(plan.ops.len(), 1);
        assert!(matches!(&plan.ops[0], EditOp::RemoveBlock { rtype, .. } if rtype == "aws_vpc"));
    }

    #[test]
    fn unmanaged_resource_becomes_add_block_with_import() {
        let (p, mut cloud, mut state) = world(SRC);
        let rogue = cloud
            .out_of_band_create(
                "clickops",
                "aws_s3_bucket",
                "us-east-1",
                attrs([("bucket", Value::from("rogue-data"))]),
            )
            .unwrap();
        let plan = classify_world(&p, &mut cloud, &mut state);
        assert_eq!(plan.imports.len(), 1);
        assert_eq!(plan.imports[0].1, rogue);
        match &plan.ops[0] {
            EditOp::AddBlock { attrs, label, .. } => {
                assert_eq!(attrs.get("bucket"), Some(&Value::from("rogue-data")));
                assert!(!attrs.contains_key("id"), "computed attrs pruned");
                assert!(!attrs.contains_key("arn"), "computed attrs pruned");
                assert_eq!(label, "rogue_data");
            }
            other => panic!("{other:?}"),
        }
    }

    /// A declared `null` is an attribute the executor never submits: the
    /// record lacks it, and the planner reads that as no change. So does the
    /// classifier, for a literal and for a null-defaulted variable, on a
    /// singleton and on a counted block.
    #[test]
    fn a_declared_null_the_record_lacks_is_not_drift() {
        let src = r#"
variable "tags" { default = null }
resource "aws_vpc" "v" {
  cidr_block = "10.0.0.0/16"
  name       = null
}
resource "aws_s3_bucket" "b" {
  count  = 2
  bucket = "bucket-${count.index}"
  tags   = var.tags
}
"#;
        let (p, mut cloud, mut state) = world(src);
        let vpc = state.get(&"aws_vpc.v".parse().unwrap()).unwrap();
        assert_eq!(vpc.attrs.get("name"), None, "the null was never submitted");
        let plan = classify_world(&p, &mut cloud, &mut state);
        assert!(plan.is_empty(), "{plan:?}");
        assert!(plan.overwrites.is_empty(), "{:?}", plan.overwrites);
    }

    #[test]
    fn counted_attr_drift_falls_back_to_overwrite() {
        let (p, mut cloud, mut state) = world(SRC);
        let id = state
            .get(&"aws_s3_bucket.b[2]".parse().unwrap())
            .unwrap()
            .id
            .clone();
        cloud
            .out_of_band_update("intern", &id, attrs([("bucket", Value::from("renamed"))]))
            .unwrap();
        let plan = classify_world(&p, &mut cloud, &mut state);
        assert!(plan.ops.is_empty(), "{:?}", plan.ops);
        assert_eq!(plan.overwrites.len(), 1);
        assert_eq!(plan.overwrites[0].to_string(), "aws_s3_bucket.b[2]");
    }
}
