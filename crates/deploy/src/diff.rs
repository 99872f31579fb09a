//! The differ: desired manifest vs. current state → per-resource actions.
//!
//! §2.1: "the user-provided IaC program (i.e., the user's desired cloud
//! state) will be automatically compared with the user's current cloud
//! state, resulting in a resource dependency graph where some nodes are
//! marked as to be added or deleted." This module is that comparison, plus
//! the `force_new` analysis that decides between in-place update and
//! destroy-and-recreate.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use cloudless_cloud::Catalog;
use cloudless_hcl::eval::Resolver;
use cloudless_hcl::program::{Manifest, ResourceInstance};
use cloudless_state::{DeployedResource, Snapshot};
use cloudless_types::value::attr_differs;
use cloudless_types::{Attrs, ResourceAddr};

use crate::resolver::StateResolver;

/// What must happen to one resource.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Create a new resource.
    Create,
    /// Update these attributes in place.
    Update { changed: Vec<String> },
    /// Destroy and recreate (a `force_new` attribute changed).
    Replace { changed: Vec<String> },
    /// Destroy (no longer in the configuration).
    Delete,
    /// Nothing to do.
    NoOp,
}

impl Action {
    /// Terraform-style symbol for plan rendering.
    pub fn symbol(&self) -> &'static str {
        match self {
            Action::Create => "+",
            Action::Update { .. } => "~",
            Action::Replace { .. } => "-/+",
            Action::Delete => "-",
            Action::NoOp => " ",
        }
    }

    pub fn is_noop(&self) -> bool {
        matches!(self, Action::NoOp)
    }
}

/// One planned change.
#[derive(Debug, Clone)]
pub struct PlannedChange {
    pub addr: ResourceAddr,
    pub action: Action,
    /// The desired instance (absent for deletes). Shared with the manifest:
    /// cloning a change bumps a refcount instead of deep-copying the
    /// instance's attribute and expression trees.
    pub desired: Option<Arc<ResourceInstance>>,
    /// Attributes resolvable at plan time (desired view).
    pub planned_attrs: Attrs,
    /// Names of desired attributes whose value is unknown until apply.
    pub unknown_attrs: Vec<String>,
}

impl PlannedChange {
    /// Whether this change creates or replaces its resource: computed
    /// attributes become unknown, so dependents cannot finalize references
    /// to it at plan time.
    pub fn makes_dirty(&self) -> bool {
        matches!(self.action, Action::Create | Action::Replace { .. })
    }
}

/// Compare `manifest` against `state`.
///
/// `catalog` supplies the `force_new` flags; `data` answers data-source
/// references during plan-time finalization of deferred attributes.
pub fn diff(
    manifest: &Manifest,
    state: &Snapshot,
    catalog: &Catalog,
    data: &dyn Resolver,
) -> Vec<PlannedChange> {
    // Changes are produced in dependency order but reported in declaration
    // order; writing each into its declaration slot restores the order in
    // O(n) with no sort.
    let mut slots: Vec<Option<PlannedChange>> = Vec::new();
    slots.resize_with(manifest.instances.len(), || None);
    // Instances whose own action is Create/Replace: their computed attrs are
    // unknown, so dependents referencing them cannot finalize at plan time.
    // Keyed by block (`rtype`, `name`) borrowed from the manifest so neither
    // insert nor lookup allocates.
    let mut dirty: HashMap<(&str, &str), bool> = HashMap::with_capacity(manifest.instances.len());

    // Visit instances in dependency order (Kahn over `depends_on`) so a
    // dependency's dirtiness is decided before its dependents are diffed.
    // Anything left over (a cycle — impossible from well-formed expansion,
    // but cheap to tolerate) is visited in declaration order and its
    // dependencies conservatively treated as dirty (`unwrap_or(true)`).
    let order = dependency_order(manifest);
    for &idx in &order {
        let inst = &manifest.instances[idx];
        let change = plan_one(inst, state, catalog, data, &mut |t, n| {
            dirty.get(&(t, n)).copied().unwrap_or(true)
        });
        dirty.insert(
            (inst.addr.rtype.as_str(), inst.addr.name.as_str()),
            change.makes_dirty(),
        );
        slots[idx] = Some(change);
    }
    let mut changes: Vec<PlannedChange> = slots.into_iter().flatten().collect();
    changes.extend(delete_changes(manifest, state));
    changes
}

/// Diff a single instance against prior state. `dep_dirty` answers whether
/// a referenced block `(type, name)` is being created or replaced — in the
/// full diff it closes over the dirtiness accumulated in dependency order;
/// the incremental planner feeds it from a cached map. The caller is
/// responsible for recording this change's own dirtiness afterwards.
pub fn plan_one(
    inst: &Arc<ResourceInstance>,
    state: &Snapshot,
    catalog: &Catalog,
    data: &dyn Resolver,
    dep_dirty: &mut dyn FnMut(&str, &str) -> bool,
) -> PlannedChange {
    let prior = state.get(&inst.addr);
    let resolver = StateResolver::new(state)
        .in_module(&inst.addr.module_path)
        .with_data(data);
    // Try to finalize deferred attributes against *prior* state; if the
    // referenced block is dirty or unknown, the attr stays unknown.
    let mut planned = inst.attrs.clone();
    let mut unknown = Vec::new();
    for d in &inst.deferred {
        let scope = inst.env.scope(&resolver);
        let waiting_dirty = d
            .waiting_on
            .iter()
            .any(|r| r.parts.len() >= 2 && dep_dirty(r.parts[0].as_str(), r.parts[1].as_str()));
        if waiting_dirty {
            unknown.push(d.name.clone());
            continue;
        }
        match cloudless_hcl::eval::eval(&d.expr, &scope) {
            Ok(v) => {
                planned.insert(d.name.clone(), v);
            }
            Err(_) => unknown.push(d.name.clone()),
        }
    }

    let action = match prior {
        None => Action::Create,
        Some(prior) => {
            let mut changed: Vec<String> = Vec::new();
            let mut force_new = false;
            let schema = catalog.get(&inst.addr.rtype);
            for (name, desired_v) in &planned {
                if attr_differs(prior.attrs.get(name), desired_v) {
                    changed.push(name.clone());
                    if let Some(s) = schema {
                        if s.attr(name).map(|a| a.force_new).unwrap_or(false) {
                            force_new = true;
                        }
                    }
                }
            }
            // Unknown attrs on an existing resource: conservatively
            // treat as changed (their dependency is being replaced).
            for name in &unknown {
                changed.push(name.clone());
                if let Some(s) = schema {
                    if s.attr(name).map(|a| a.force_new).unwrap_or(false) {
                        force_new = true;
                    }
                }
            }
            changed.sort();
            changed.dedup();
            if changed.is_empty() {
                Action::NoOp
            } else if force_new {
                Action::Replace { changed }
            } else {
                Action::Update { changed }
            }
        }
    };
    PlannedChange {
        addr: inst.addr.clone(),
        action,
        desired: Some(Arc::clone(inst)),
        planned_attrs: planned,
        unknown_attrs: unknown,
    }
}

/// Deletions: resources in state but not in the desired manifest, in state
/// (address) order. Stable for a given (manifest address set, state
/// serial), which is what lets the incremental planner cache it — and edit
/// it with [`delete_change`] when a block leaves or joins the manifest.
pub fn delete_changes(manifest: &Manifest, state: &Snapshot) -> Vec<PlannedChange> {
    let desired_addrs: HashSet<&ResourceAddr> =
        manifest.instances.iter().map(|i| &i.addr).collect();
    let undesired = |r: &&DeployedResource| !desired_addrs.contains(&r.addr);
    let deployed = state.resources().values().map(|r| &**r);
    deployed.filter(undesired).map(delete_change).collect()
}

/// The deletion of one deployed resource the manifest no longer declares.
pub fn delete_change(r: &DeployedResource) -> PlannedChange {
    PlannedChange {
        addr: r.addr.clone(),
        action: Action::Delete,
        desired: None,
        planned_attrs: r.attrs.clone(),
        unknown_attrs: vec![],
    }
}

/// Kahn's algorithm over instance `depends_on`, returning indices into
/// `manifest.instances`; unresolved leftovers (cycles) appended last.
pub fn dependency_order(manifest: &Manifest) -> Vec<usize> {
    let n = manifest.instances.len();
    let index_of: HashMap<&ResourceAddr, usize> = manifest
        .instances
        .iter()
        .enumerate()
        .map(|(i, inst)| (&inst.addr, i))
        .collect();
    let mut in_deg = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, inst) in manifest.instances.iter().enumerate() {
        for dep in &inst.depends_on {
            if let Some(&d) = index_of.get(dep) {
                in_deg[i] += 1;
                dependents[d].push(i);
            }
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| in_deg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = ready.pop() {
        order.push(i);
        for &s in &dependents[i] {
            in_deg[s] -= 1;
            if in_deg[s] == 0 {
                ready.push(s);
            }
        }
    }
    for (i, deg) in in_deg.iter().enumerate() {
        if *deg > 0 {
            order.push(i);
        }
    }
    order
}

/// Render a human-readable plan summary (the `terraform plan` output
/// analogue).
pub fn render(changes: &[PlannedChange]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut add = 0;
    let mut change = 0;
    let mut destroy = 0;
    for c in changes {
        match &c.action {
            Action::NoOp => continue,
            Action::Create => add += 1,
            Action::Update { .. } => change += 1,
            Action::Replace { .. } => {
                add += 1;
                destroy += 1;
            }
            Action::Delete => destroy += 1,
        }
        let _ = writeln!(out, "{:>3} {}", c.action.symbol(), c.addr);
        if let Action::Update { changed } | Action::Replace { changed } = &c.action {
            for name in changed {
                let v = c
                    .planned_attrs
                    .get(name)
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "(known after apply)".to_owned());
                let _ = writeln!(out, "      {name} = {v}");
            }
        }
    }
    let _ = writeln!(
        out,
        "Plan: {add} to add, {change} to change, {destroy} to destroy."
    );
    out
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::resolver::DataResolver;
    use cloudless_hcl::program::{expand, ModuleLibrary, Program};
    use cloudless_types::value::attrs;
    use cloudless_types::{Region, ResourceId, SimTime, Value};

    fn manifest(src: &str) -> Manifest {
        let p = Program::from_file(cloudless_hcl::parse(src, "main.tf").unwrap()).unwrap();
        expand(
            &p,
            &BTreeMap::new(),
            &ModuleLibrary::new(),
            &DataResolver::new(),
        )
        .unwrap()
    }

    fn deployed(addr: &str, id: &str, a: Attrs) -> DeployedResource {
        let addr: ResourceAddr = addr.parse().unwrap();
        let mut full = a;
        full.insert("id".into(), Value::from(id));
        DeployedResource {
            rtype: addr.rtype.clone(),
            id: ResourceId::new(id),
            region: Region::new("us-east-1"),
            attrs: full,
            depends_on: vec![],
            created_at: SimTime::ZERO,
            addr,
        }
    }

    fn run(src: &str, state: &Snapshot) -> Vec<PlannedChange> {
        diff(
            &manifest(src),
            state,
            &Catalog::standard(),
            &DataResolver::new(),
        )
    }

    #[test]
    fn empty_state_creates_everything() {
        let changes = run(
            r#"
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.0/24"
}
"#,
            &Snapshot::new(),
        );
        assert_eq!(changes.len(), 2);
        assert!(changes.iter().all(|c| c.action == Action::Create));
        // the subnet's vpc_id is unknown (vpc not created yet)
        let subnet = changes.iter().find(|c| c.addr.name == "s").unwrap();
        assert_eq!(subnet.unknown_attrs, vec!["vpc_id"]);
    }

    #[test]
    fn unchanged_state_is_noop_and_finalizes_refs() {
        let mut state = Snapshot::new();
        state.put(deployed(
            "aws_vpc.v",
            "vpc-1",
            attrs([("cidr_block", Value::from("10.0.0.0/16"))]),
        ));
        state.put(deployed(
            "aws_subnet.s",
            "sn-1",
            attrs([
                ("vpc_id", Value::from("vpc-1")),
                ("cidr_block", Value::from("10.0.1.0/24")),
            ]),
        ));
        let changes = run(
            r#"
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.0/24"
}
"#,
            &state,
        );
        assert!(
            changes.iter().all(|c| c.action == Action::NoOp),
            "{changes:#?}"
        );
        // the deferred vpc_id resolved against prior state
        let subnet = changes.iter().find(|c| c.addr.name == "s").unwrap();
        assert_eq!(
            subnet.planned_attrs.get("vpc_id"),
            Some(&Value::from("vpc-1"))
        );
        assert!(subnet.unknown_attrs.is_empty());
    }

    #[test]
    fn attr_change_is_update() {
        let mut state = Snapshot::new();
        state.put(deployed(
            "aws_virtual_machine.web",
            "vm-1",
            attrs([
                ("name", Value::from("web")),
                ("instance_type", Value::from("t3.micro")),
            ]),
        ));
        let changes = run(
            r#"
resource "aws_virtual_machine" "web" {
  name          = "web"
  instance_type = "t3.large"
}
"#,
            &state,
        );
        assert_eq!(
            changes[0].action,
            Action::Update {
                changed: vec!["instance_type".to_owned()]
            }
        );
    }

    #[test]
    fn force_new_change_is_replace() {
        let mut state = Snapshot::new();
        state.put(deployed(
            "aws_vpc.v",
            "vpc-1",
            attrs([("cidr_block", Value::from("10.0.0.0/16"))]),
        ));
        let changes = run(
            r#"resource "aws_vpc" "v" { cidr_block = "10.99.0.0/16" }"#,
            &state,
        );
        assert!(matches!(changes[0].action, Action::Replace { .. }));
    }

    #[test]
    fn removed_resource_is_delete() {
        let mut state = Snapshot::new();
        state.put(deployed(
            "aws_vpc.v",
            "vpc-1",
            attrs([("cidr_block", Value::from("10.0.0.0/16"))]),
        ));
        state.put(deployed(
            "aws_s3_bucket.b",
            "b-1",
            attrs([("bucket", Value::from("x"))]),
        ));
        let changes = run(
            r#"resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }"#,
            &state,
        );
        let delete = changes.iter().find(|c| c.addr.name == "b").unwrap();
        assert_eq!(delete.action, Action::Delete);
        let keep = changes.iter().find(|c| c.addr.name == "v").unwrap();
        assert_eq!(keep.action, Action::NoOp);
    }

    #[test]
    fn replacing_dependency_dirties_dependent() {
        // VPC is replaced → subnet's vpc_id becomes unknown → subnet is
        // replaced too (vpc_id is force_new on subnets).
        let mut state = Snapshot::new();
        state.put(deployed(
            "aws_vpc.v",
            "vpc-1",
            attrs([("cidr_block", Value::from("10.0.0.0/16"))]),
        ));
        state.put(deployed(
            "aws_subnet.s",
            "sn-1",
            attrs([
                ("vpc_id", Value::from("vpc-1")),
                ("cidr_block", Value::from("10.0.1.0/24")),
            ]),
        ));
        let changes = run(
            r#"
resource "aws_vpc" "v" { cidr_block = "10.99.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.99.1.0/24"
}
"#,
            &state,
        );
        let vpc = changes.iter().find(|c| c.addr.name == "v").unwrap();
        let subnet = changes.iter().find(|c| c.addr.name == "s").unwrap();
        assert!(matches!(vpc.action, Action::Replace { .. }));
        assert!(
            matches!(subnet.action, Action::Replace { .. }),
            "{subnet:#?}"
        );
        assert!(subnet.unknown_attrs.contains(&"vpc_id".to_owned()));
    }

    #[test]
    fn render_summarizes() {
        let mut state = Snapshot::new();
        state.put(deployed(
            "aws_s3_bucket.old",
            "b-1",
            attrs([("bucket", Value::from("x"))]),
        ));
        let changes = run(
            r#"resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }"#,
            &state,
        );
        let text = render(&changes);
        assert!(text.contains("+ aws_vpc.v"));
        assert!(text.contains("- aws_s3_bucket.old"));
        assert!(text.contains("Plan: 1 to add, 0 to change, 1 to destroy."));
    }
}
