//! Property tests for the drift classifier: determinism, the patch
//! minimality bound (never more edit ops than mutations), soundness of
//! op targets under random out-of-band mutation sequences, and agreement of
//! the indexed classifier with a per-block scan of the manifest.

use std::collections::{BTreeMap, BTreeSet};

use cloudless_cloud::{Cloud, CloudConfig};
use cloudless_deploy::resolver::DataResolver;
use cloudless_deploy::{diff, full_refresh, Executor, Plan, Strategy as ExecStrategy};
use cloudless_diagnose::reconcile::{classify, EditOp, ReconcilePlan};
use cloudless_hcl::ast::Expr;
use cloudless_hcl::program::{expand, Manifest, ModuleLibrary, Program, ResourceInstance};
use cloudless_state::Snapshot;
use cloudless_types::value::attrs;
use cloudless_types::{ResourceKey, Value};
use proptest::prelude::*;

const SRC: &str = r#"
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_s3_bucket" "b" {
  count  = 3
  bucket = "fleet-${count.index}"
}
resource "aws_s3_bucket" "c" { bucket = "solo" }
"#;

fn deployed() -> (Program, Manifest, Cloud, Snapshot) {
    deploy(SRC, &ModuleLibrary::new())
}

fn deploy(src: &str, modules: &ModuleLibrary) -> (Program, Manifest, Cloud, Snapshot) {
    let catalog = cloudless_cloud::Catalog::standard();
    let data = DataResolver::new();
    let mut cloud = Cloud::new(CloudConfig::exact(), 99);
    let mut state = Snapshot::new();
    let p = Program::from_file(cloudless_hcl::parse(src, "main.tf").unwrap()).unwrap();
    let m = expand(&p, &BTreeMap::new(), modules, &data).unwrap();
    let plan = Plan::build(diff(&m, &state, &catalog, &data), &state, &catalog);
    let exec = Executor::new(ExecStrategy::TerraformWalk { parallelism: 10 }, &data);
    assert!(exec.apply(&plan, &mut cloud, &mut state).all_ok());
    (p, m, cloud, state)
}

/// (kind, target index, payload): 0 = delete a managed resource,
/// 1 = single-attr update on a managed resource, 2 = rogue create.
type Mutation = (usize, usize, String);

fn mutate(cloud: &mut Cloud, state: &Snapshot, muts: &[Mutation]) -> usize {
    let addrs = state.addrs();
    let mut applied = 0;
    for (kind, target, payload) in muts {
        match kind % 3 {
            0 => {
                let addr = &addrs[target % addrs.len()];
                if let Some(r) = state.get(addr) {
                    if cloud.out_of_band_delete("intern", &r.id).is_ok() {
                        applied += 1;
                    }
                }
            }
            1 => {
                let addr = &addrs[target % addrs.len()];
                if let Some(r) = state.get(addr) {
                    // one attribute per mutation keeps the op bound exact;
                    // a `c…` payload drifts an attribute VPC blocks declare
                    let attr = match r.rtype.as_str() {
                        "aws_vpc" if payload.starts_with('c') => "cidr_block",
                        "aws_vpc" => "name",
                        _ => "bucket",
                    };
                    if cloud
                        .out_of_band_update(
                            "intern",
                            &r.id,
                            attrs([(attr, Value::from(format!("drift-{payload}")))]),
                        )
                        .is_ok()
                    {
                        applied += 1;
                    }
                }
            }
            _ => {
                if cloud
                    .out_of_band_create(
                        "clickops",
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

fn classify_world(
    p: &Program,
    m: &Manifest,
    cloud: &mut Cloud,
    state: &mut Snapshot,
) -> ReconcilePlan {
    full_refresh(cloud, state, "reconciler");
    classify(p, m, state, cloud.records(), cloud.catalog())
}

fn gen_mutations() -> impl Strategy<Value = Vec<Mutation>> {
    proptest::collection::vec((0usize..3, 0usize..8, "[a-z]{1,6}"), 0..6)
}

proptest! {
    /// No mutations → nothing to reconcile.
    #[test]
    fn clean_world_is_a_fixpoint(_seed in 0u64..5) {
        let (p, m, mut cloud, mut state) = deployed();
        let plan = classify_world(&p, &m, &mut cloud, &mut state);
        prop_assert!(plan.is_empty(), "{plan:?}");
        prop_assert!(plan.overwrites.is_empty());
    }

    /// Minimality bound: a patch never contains more edit ops than the
    /// mutation sequence that caused it (each single-attr mutation yields
    /// at most one op; fleet deletions collapse into one `SetCount`).
    #[test]
    fn op_count_bounded_by_mutations(muts in gen_mutations()) {
        let (p, m, mut cloud, mut state) = deployed();
        let applied = mutate(&mut cloud, &state, &muts);
        let plan = classify_world(&p, &m, &mut cloud, &mut state);
        prop_assert!(
            plan.ops.len() <= applied,
            "{} ops from {} mutations: {:?}",
            plan.ops.len(),
            applied,
            plan.ops
        );
    }

    /// Classification is a pure function of the world: classifying twice
    /// yields the same plan, and every op targets a block that exists in
    /// the (possibly extended) program.
    #[test]
    fn classification_is_deterministic_and_sound(muts in gen_mutations()) {
        let (p, m, mut cloud, mut state) = deployed();
        mutate(&mut cloud, &state, &muts);
        let plan_a = classify_world(&p, &m, &mut cloud, &mut state);
        let plan_b = classify_world(&p, &m, &mut cloud, &mut state);
        prop_assert_eq!(format!("{plan_a:?}"), format!("{plan_b:?}"));
        for op in &plan_a.ops {
            match op {
                EditOp::AddBlock { label, .. } => {
                    // imported labels never collide with declared blocks
                    prop_assert!(p.resource("aws_s3_bucket", label).is_none());
                }
                EditOp::SetAttr { rtype, name, .. }
                | EditOp::SetCount { rtype, name, .. }
                | EditOp::RemoveForEachKeys { rtype, name, .. }
                | EditOp::RemoveBlock { rtype, name } => {
                    prop_assert!(
                        p.resource(rtype, name).is_some(),
                        "op targets undeclared block {rtype}.{name}"
                    );
                }
            }
        }
        // every import pairs with exactly one AddBlock op
        let adds = plan_a
            .ops
            .iter()
            .filter(|op| matches!(op, EditOp::AddBlock { .. }))
            .count();
        prop_assert_eq!(plan_a.imports.len(), adds);
    }

    /// Deleting k instances of one counted fleet yields exactly one
    /// `SetCount` op and dense renumbering moves.
    #[test]
    fn fleet_deletions_collapse_to_one_op(victims in proptest::collection::vec(0usize..3, 1..3)) {
        let (p, m, mut cloud, mut state) = deployed();
        let mut deleted = std::collections::BTreeSet::new();
        for v in &victims {
            let addr: cloudless_types::ResourceAddr =
                format!("aws_s3_bucket.b[{v}]").parse().unwrap();
            if deleted.insert(*v % 3) {
                let id = state.get(&addr).unwrap().id.clone();
                cloud.out_of_band_delete("intern", &id).unwrap();
            }
        }
        let plan = classify_world(&p, &m, &mut cloud, &mut state);
        let counts: Vec<&EditOp> = plan
            .ops
            .iter()
            .filter(|op| matches!(op, EditOp::SetCount { .. }))
            .collect();
        prop_assert_eq!(counts.len(), 1);
        match counts[0] {
            EditOp::SetCount { count, .. } => {
                prop_assert_eq!(*count, 3 - deleted.len());
            }
            _ => unreachable!(),
        }
        // moves renumber the survivors into a dense prefix
        for (i, (_, to)) in plan.moves.iter().enumerate() {
            prop_assert!(matches!(
                to.key,
                cloudless_types::ResourceKey::Index(n) if (n as usize) < 3 - deleted.len() && i <= n as usize
            ));
        }
    }
}

// ---- indexed classify ≡ a per-block scan ----

/// An estate with every shape the classifier tells apart: singletons (two
/// of them sharing a label across types), `count` fleets, `for_each` over a
/// literal list, a literal map and a variable, and a module call.
fn estate(singles: usize, fleets: &[usize]) -> (String, ModuleLibrary) {
    let mut src =
        String::from("variable \"zones\" { default = [\"east\", \"west\", \"north\"] }\n");
    for i in 0..singles {
        src += &format!("resource \"aws_vpc\" \"s{i}\" {{ cidr_block = \"10.{i}.0.0/16\" }}\n");
        src += &format!("resource \"aws_s3_bucket\" \"s{i}\" {{ bucket = \"solo-{i}\" }}\n");
    }
    for (i, n) in fleets.iter().enumerate() {
        src += &format!(
            "resource \"aws_s3_bucket\" \"fleet{i}\" {{\n  count = {n}\n  bucket = \"fleet{i}-${{count.index}}\"\n}}\n"
        );
    }
    src += r#"
resource "aws_s3_bucket" "list" {
  for_each = ["alpha", "beta", "gamma"]
  bucket   = "list-${each.key}"
}
resource "aws_s3_bucket" "map" {
  for_each = { a = "one", b = "two" }
  bucket   = "map-${each.value}"
}
resource "aws_s3_bucket" "zoned" {
  for_each = var.zones
  bucket   = "zoned-${each.key}"
}
module "lake" {
  source = "modules/bucket-set"
  prefix = "acme"
}
"#;
    let mut modules = ModuleLibrary::new();
    modules.insert(
        "modules/bucket-set",
        r#"
variable "prefix" {}
resource "aws_s3_bucket" "b" {
  for_each = ["raw", "curated"]
  bucket   = "${var.prefix}-${each.key}"
}
"#,
    );
    (src, modules)
}

/// The reference the indexed classifier is held against: each block finds
/// its instances by scanning the whole manifest, O(blocks × instances).
/// The unmanaged-resource tail reads no instance, so it is the classifier's
/// own, taken over an empty manifest.
fn classify_by_scan(p: &Program, m: &Manifest, state: &Snapshot, cloud: &Cloud) -> ReconcilePlan {
    let mut plan = ReconcilePlan::default();
    for rb in &p.resources {
        let (live, missing): (Vec<&ResourceInstance>, Vec<&ResourceInstance>) = m
            .instances
            .iter()
            .map(|i| i.as_ref())
            .filter(|i| i.addr.rtype.as_str() == rb.rtype && i.addr.name == rb.name)
            .filter(|i| i.addr.module_path.is_empty())
            .partition(|i| state.get(&i.addr).is_some());
        let (rtype, name) = (rb.rtype.clone(), rb.name.clone());
        if !missing.is_empty() {
            if rb.count.is_some() {
                let count = live.len();
                plan.ops.push(EditOp::SetCount { rtype, name, count });
                for (at, inst) in live.iter().enumerate() {
                    let key = ResourceKey::Index(at as u32);
                    if inst.addr.key != key {
                        let mut to = inst.addr.clone();
                        to.key = key;
                        plan.moves.push((inst.addr.clone(), to));
                    }
                }
            } else if let Some(for_each) = &rb.for_each {
                let literal = match for_each {
                    Expr::List(items, _) => items.iter().all(|e| e.as_plain_str().is_some()),
                    Expr::Map(..) => true,
                    _ => false,
                };
                let keys: BTreeSet<String> = missing
                    .iter()
                    .filter_map(|i| match &i.addr.key {
                        ResourceKey::Key(k) => Some(k.clone()),
                        _ => None,
                    })
                    .collect();
                if literal && !keys.is_empty() {
                    plan.ops
                        .push(EditOp::RemoveForEachKeys { rtype, name, keys });
                } else {
                    plan.overwrites
                        .extend(missing.iter().map(|i| i.addr.clone()));
                }
            } else {
                plan.ops.push(EditOp::RemoveBlock { rtype, name });
            }
        }
        let singleton = rb.count.is_none() && rb.for_each.is_none();
        for inst in live {
            let rec = state.get(&inst.addr).unwrap();
            // `Attrs` iterates in name order
            let drifted: Vec<(&String, Value)> = inst
                .attrs
                .iter()
                .filter(|(attr, want)| rec.attrs.get(attr.as_str()) != Some(want))
                .map(|(attr, _)| {
                    (
                        attr,
                        rec.attrs.get(attr.as_str()).cloned().unwrap_or(Value::Null),
                    )
                })
                .collect();
            if !singleton && !drifted.is_empty() {
                plan.overwrites.push(inst.addr.clone());
                continue;
            }
            for (attr, value) in drifted {
                plan.ops.push(EditOp::SetAttr {
                    rtype: rb.rtype.clone(),
                    name: rb.name.clone(),
                    attr: attr.clone(),
                    value,
                });
            }
        }
    }
    for inst in &m.instances {
        if !inst.addr.module_path.is_empty() && state.get(&inst.addr).is_none() {
            plan.overwrites.push(inst.addr.clone());
        }
    }
    let tail = classify(
        p,
        &Manifest::default(),
        state,
        cloud.records(),
        cloud.catalog(),
    );
    plan.ops.extend(tail.ops);
    plan.imports = tail.imports;
    plan.skipped = tail.skipped;
    plan
}

proptest! {
    /// The grouping pass hands every block exactly the instances the scan
    /// finds for it: ops, moves, imports, overwrites and skipped agree, in
    /// order, under deletes, attribute drift and rogue creates anywhere in
    /// the estate.
    #[test]
    fn indexed_classify_matches_per_block_scan(
        singles in 1usize..4,
        fleets in proptest::collection::vec(1usize..5, 1..4),
        muts in proptest::collection::vec((0usize..3, 0usize..64, "[a-z]{1,6}"), 0..12),
    ) {
        let (src, modules) = estate(singles, &fleets);
        let (p, m, mut cloud, mut state) = deploy(&src, &modules);
        mutate(&mut cloud, &state, &muts);
        full_refresh(&mut cloud, &mut state, "reconciler");
        let indexed = classify(&p, &m, &state, cloud.records(), cloud.catalog());
        let scanned = classify_by_scan(&p, &m, &state, &cloud);
        prop_assert_eq!(&indexed.ops, &scanned.ops);
        prop_assert_eq!(&indexed.moves, &scanned.moves);
        prop_assert_eq!(&indexed.imports, &scanned.imports);
        prop_assert_eq!(&indexed.overwrites, &scanned.overwrites);
        prop_assert_eq!(&indexed.skipped, &scanned.skipped);
    }
}
