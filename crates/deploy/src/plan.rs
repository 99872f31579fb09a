//! The executable plan: a DAG of changes with duration estimates.
//!
//! §2.1: "an execution plan is created, which specifies what resources need
//! to be updated in what dependency order." The plan is a [`Dag`] whose
//! edges encode ordering constraints:
//!
//! * creates/updates/replaces run after the changes of resources they
//!   depend on;
//! * deletes run after the deletes of resources that depend on *them*
//!   (reverse dependency order), derived from the `depends_on` recorded in
//!   state at create time.
//!
//! Each node carries the catalog's duration estimate, which the
//! critical-path executor uses as CPM weights (§3.3).

use cloudless_cloud::Catalog;
use cloudless_graph::{Dag, DagBuilder, NodeId};
use cloudless_state::Snapshot;
use cloudless_types::{AddrTable, ResourceAddr, SimDuration};

use crate::diff::{Action, PlannedChange};

/// One node of the executable plan.
#[derive(Debug, Clone)]
pub struct PlanNode {
    pub change: PlannedChange,
    /// Estimated execution time (from the catalog).
    pub estimate: SimDuration,
}

/// The executable plan.
#[derive(Debug, Clone)]
pub struct Plan {
    pub graph: Dag<PlanNode>,
    /// Interned address table. Addresses are interned in plan-node order,
    /// so `AddrId(i)` and `NodeId(i)` coincide: address lookups are one
    /// hash probe, id-to-address is an array index.
    pub addrs: AddrTable,
    /// Rendered address strings, indexed by `NodeId::index()` — formatted
    /// once at build time so report keys and log lines never re-render.
    addr_strs: Vec<String>,
    /// Ordering edges `(dependency, dependent)` dropped at seal time
    /// because they would close a cycle. A non-empty list means the plan is
    /// *under-constrained*: some dependency will not be awaited and the
    /// apply can fail or run out of order. `cloudless-analyze` reports the
    /// cycle itself (ANA401) before planning; this field is the runtime
    /// witness.
    pub dropped_edges: Vec<(ResourceAddr, ResourceAddr)>,
}

impl Plan {
    /// Assemble a plan from diff output.
    ///
    /// `state` supplies recorded dependencies for delete ordering.
    ///
    /// O(V + E): nodes and edges are appended without per-edge cycle
    /// checks; acyclicity is validated once when the graph is sealed, and
    /// any cycle-closing edges are dropped and recorded.
    pub fn build(changes: Vec<PlannedChange>, state: &Snapshot, catalog: &Catalog) -> Plan {
        let actionable: Vec<PlannedChange> = changes
            .into_iter()
            .filter(|c| !c.action.is_noop())
            .collect();
        let n = actionable.len();
        let mut addrs = AddrTable::with_capacity(n);
        for c in &actionable {
            addrs.intern(c.addr.clone());
        }
        let is_delete: Vec<bool> = actionable
            .iter()
            .map(|c| matches!(c.action, Action::Delete))
            .collect();

        // Collect edges first (integer endpoints via the table), then seal.
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut self_deps: Vec<ResourceAddr> = Vec::new();
        for (i, c) in actionable.iter().enumerate() {
            let id = NodeId(i as u32);
            // Forward edges from desired-instance dependencies; delete
            // nodes never gate creates this way.
            if let Some(desired) = &c.desired {
                for dep in &desired.depends_on {
                    if let Some(dep_id) = addrs.get(dep) {
                        if dep_id.index() == i {
                            self_deps.push(c.addr.clone());
                        } else if !is_delete[dep_id.index()] {
                            edges.push((NodeId(dep_id.0), id));
                        }
                    }
                }
            }
            // Reverse edges for deletes: to delete X, first delete every
            // planned deletion that depends on X (per state-recorded
            // dependencies).
            if is_delete[i] {
                if let Some(rec) = state.get(&c.addr) {
                    for dep in &rec.depends_on {
                        if let Some(dep_id) = addrs.get(dep) {
                            if dep_id.index() != i && is_delete[dep_id.index()] {
                                // this (dependent) delete must precede the
                                // dependency's delete
                                edges.push((id, NodeId(dep_id.0)));
                            }
                        }
                    }
                }
            }
        }

        let mut builder: DagBuilder<PlanNode> = DagBuilder::with_capacity(n);
        for change in actionable {
            let estimate = estimate(&change, catalog);
            builder.add_node(PlanNode { change, estimate });
        }
        let (graph, mut dropped_edges) = seal(builder, edges);
        // a resource "depending on itself" is a degenerate cycle, too
        dropped_edges.extend(self_deps.into_iter().map(|a| (a.clone(), a)));

        let addr_strs = addrs.iter().map(|(_, a)| a.to_string()).collect();
        Plan {
            graph,
            addrs,
            addr_strs,
            dropped_edges,
        }
    }

    /// Number of actionable nodes.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Node for an address, if planned. One hash probe, no rendering.
    pub fn node_for(&self, addr: &ResourceAddr) -> Option<NodeId> {
        self.addrs.get(addr).map(|s| NodeId(s.0))
    }

    /// The rendered address of a plan node (formatted once at build time).
    pub fn addr_str(&self, id: NodeId) -> &str {
        &self.addr_strs[id.index()]
    }

    /// Lock scope covering every resource this plan touches (§3.4).
    pub fn lock_scope(&self) -> Vec<ResourceAddr> {
        self.addrs.iter().map(|(_, a)| a.clone()).collect()
    }

    /// Restrict the plan to the given targets plus everything they depend
    /// on (`terraform apply -target` semantics). Nodes outside the closure
    /// are dropped; returns the restricted plan and the number of nodes
    /// removed.
    pub fn restrict_to(&self, targets: &[ResourceAddr]) -> (Plan, usize) {
        let mut keep = vec![false; self.len()];
        let mut stack: Vec<NodeId> = Vec::new();
        for t in targets {
            if t.key == cloudless_types::ResourceKey::None {
                // a block-level target (no instance key) selects every
                // instance of the block (including the keyless exact match)
                for (id, node) in self.graph.iter() {
                    let a = &node.change.addr;
                    if a.rtype == t.rtype && a.name == t.name && a.module_path == t.module_path {
                        stack.push(id);
                    }
                }
            } else if let Some(id) = self.node_for(t) {
                stack.push(id);
            }
        }
        while let Some(n) = stack.pop() {
            if !keep[n.index()] {
                keep[n.index()] = true;
                stack.extend(self.graph.predecessors(n).iter().copied());
            }
        }
        // node-id order preserves the original declaration order
        let kept = || self.graph.iter().filter(|(id, _)| keep[id.index()]);
        let n = kept().count();
        let mut addrs = AddrTable::with_capacity(n);
        let mut remap: Vec<Option<NodeId>> = vec![None; self.len()];
        let mut builder: DagBuilder<PlanNode> = DagBuilder::with_capacity(n);
        for (old, node) in kept() {
            addrs.intern(node.change.addr.clone());
            remap[old.index()] = Some(builder.add_node(node.clone()));
        }
        // the edges that survive the restriction
        let edges = self.graph.edges();
        let edges = edges.filter_map(|(from, to)| remap[from.index()].zip(remap[to.index()]));
        let (graph, dropped_edges) = seal(builder, edges);
        let addr_strs = addrs.iter().map(|(_, a)| a.to_string()).collect();
        let restricted = Plan {
            graph,
            addrs,
            addr_strs,
            dropped_edges: [self.dropped_edges.clone(), dropped_edges].concat(),
        };
        (restricted, self.len() - n)
    }
}

/// Seal `builder` over `edges`. An edge the builder refuses (a self-edge)
/// or the seal drops (it closes a cycle) comes back, by address, as an
/// ordering the plan does not enforce — [`Plan::dropped_edges`].
fn seal(
    mut builder: DagBuilder<PlanNode>,
    edges: impl IntoIterator<Item = (NodeId, NodeId)>,
) -> (Dag<PlanNode>, Vec<(ResourceAddr, ResourceAddr)>) {
    let refused = |&(from, to): &(NodeId, NodeId)| builder.add_edge(from, to).is_err();
    let refused: Vec<_> = edges.into_iter().filter(refused).collect();
    let (graph, dropped) = builder.seal_breaking_cycles();
    let addr = |id: NodeId| graph.node(id).change.addr.clone();
    let unenforced = dropped.into_iter().chain(refused);
    let unenforced = unenforced
        .map(|(from, to)| (addr(from), addr(to)))
        .collect();
    (graph, unenforced)
}

fn estimate(change: &PlannedChange, catalog: &Catalog) -> SimDuration {
    let schema = catalog.get(&change.addr.rtype);
    match (&change.action, schema) {
        (Action::Create, Some(s)) => s.create_latency,
        (Action::Update { .. }, Some(s)) => s.update_latency,
        (Action::Replace { .. }, Some(s)) => {
            SimDuration::from_millis(s.delete_latency.millis() + s.create_latency.millis())
        }
        (Action::Delete, Some(s)) => s.delete_latency,
        (_, None) => SimDuration::from_secs(10),
        (Action::NoOp, _) => SimDuration::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::diff::diff;
    use crate::resolver::DataResolver;
    use cloudless_hcl::program::{expand, Manifest, ModuleLibrary, Program};
    use cloudless_state::DeployedResource;
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

    fn plan_for(src: &str, state: &Snapshot) -> Plan {
        let catalog = Catalog::standard();
        let changes = diff(&manifest(src), state, &catalog, &DataResolver::new());
        Plan::build(changes, state, &catalog)
    }

    #[test]
    fn creates_ordered_by_dependencies() {
        let plan = plan_for(
            r#"
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.0/24"
}
resource "aws_virtual_machine" "vm" {
  name      = "web"
  subnet_id = aws_subnet.s.id
}
"#,
            &Snapshot::new(),
        );
        assert_eq!(plan.len(), 3);
        let vpc = plan.node_for(&"aws_vpc.v".parse().unwrap()).unwrap();
        let subnet = plan.node_for(&"aws_subnet.s".parse().unwrap()).unwrap();
        let vm = plan
            .node_for(&"aws_virtual_machine.vm".parse().unwrap())
            .unwrap();
        assert!(plan.graph.reaches(vpc, subnet));
        assert!(plan.graph.reaches(subnet, vm));
        assert!(!plan.graph.reaches(vm, vpc));
    }

    #[test]
    fn noops_are_excluded() {
        let mut state = Snapshot::new();
        state.put(DeployedResource {
            addr: "aws_vpc.v".parse().unwrap(),
            rtype: "aws_vpc".into(),
            id: ResourceId::new("vpc-1"),
            region: Region::new("us-east-1"),
            attrs: attrs([
                ("cidr_block", Value::from("10.0.0.0/16")),
                ("id", Value::from("vpc-1")),
            ]),
            depends_on: vec![],
            created_at: SimTime::ZERO,
        });
        let plan = plan_for(
            r#"resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }"#,
            &state,
        );
        assert!(plan.is_empty());
    }

    #[test]
    fn deletes_run_in_reverse_dependency_order() {
        // state has vpc <- subnet, config is now empty: subnet's delete must
        // precede vpc's delete.
        let mut state = Snapshot::new();
        state.put(DeployedResource {
            addr: "aws_vpc.v".parse().unwrap(),
            rtype: "aws_vpc".into(),
            id: ResourceId::new("vpc-1"),
            region: Region::new("us-east-1"),
            attrs: attrs([("cidr_block", Value::from("10.0.0.0/16"))]),
            depends_on: vec![],
            created_at: SimTime::ZERO,
        });
        state.put(DeployedResource {
            addr: "aws_subnet.s".parse().unwrap(),
            rtype: "aws_subnet".into(),
            id: ResourceId::new("sn-1"),
            region: Region::new("us-east-1"),
            attrs: attrs([("cidr_block", Value::from("10.0.1.0/24"))]),
            depends_on: vec!["aws_vpc.v".parse().unwrap()],
            created_at: SimTime::ZERO,
        });
        let plan = plan_for("", &state);
        assert_eq!(plan.len(), 2);
        let vpc = plan.node_for(&"aws_vpc.v".parse().unwrap()).unwrap();
        let subnet = plan.node_for(&"aws_subnet.s".parse().unwrap()).unwrap();
        assert!(plan.graph.reaches(subnet, vpc), "subnet delete first");
    }

    #[test]
    fn estimates_come_from_catalog() {
        let plan = plan_for(
            r#"resource "azure_vpn_gateway" "g" {
  name    = "g"
  vnet_id = azure_virtual_network.n.id
}
resource "azure_virtual_network" "n" {
  name           = "n"
  resource_group = azure_resource_group.rg.id
  address_space  = "10.0.0.0/16"
}
resource "azure_resource_group" "rg" {
  name     = "rg"
  location = "eastus"
}
"#,
            &Snapshot::new(),
        );
        let g = plan
            .node_for(&"azure_vpn_gateway.g".parse().unwrap())
            .unwrap();
        assert_eq!(plan.graph.node(g).estimate, SimDuration::from_mins(42));
    }

    #[test]
    fn restrict_to_keeps_target_and_dependencies() {
        let plan = plan_for(
            r#"
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.0/24"
}
resource "aws_virtual_machine" "vm" {
  name      = "web"
  subnet_id = aws_subnet.s.id
}
resource "aws_s3_bucket" "unrelated" { bucket = "x" }
"#,
            &Snapshot::new(),
        );
        assert_eq!(plan.len(), 4);
        // target the subnet: vpc comes along, vm and bucket are dropped
        let (restricted, dropped) = plan.restrict_to(&["aws_subnet.s".parse().unwrap()]);
        assert_eq!(dropped, 2);
        assert_eq!(restricted.len(), 2);
        assert!(restricted.node_for(&"aws_vpc.v".parse().unwrap()).is_some());
        assert!(restricted
            .node_for(&"aws_subnet.s".parse().unwrap())
            .is_some());
        assert!(restricted
            .node_for(&"aws_virtual_machine.vm".parse().unwrap())
            .is_none());
        // edges survive: vpc still precedes subnet
        let vpc = restricted.node_for(&"aws_vpc.v".parse().unwrap()).unwrap();
        let s = restricted
            .node_for(&"aws_subnet.s".parse().unwrap())
            .unwrap();
        assert!(restricted.graph.reaches(vpc, s));
    }

    #[test]
    fn restrict_to_block_target_selects_all_instances() {
        let plan = plan_for(
            r#"
resource "aws_s3_bucket" "b" {
  count  = 3
  bucket = "b-${count.index}"
}
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
"#,
            &Snapshot::new(),
        );
        let (restricted, dropped) = plan.restrict_to(&["aws_s3_bucket.b".parse().unwrap()]);
        assert_eq!(restricted.len(), 3);
        assert_eq!(dropped, 1);
    }

    #[test]
    fn restrict_to_unknown_target_is_empty() {
        let plan = plan_for(
            r#"resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }"#,
            &Snapshot::new(),
        );
        let (restricted, dropped) = plan.restrict_to(&["aws_vpc.ghost".parse().unwrap()]);
        assert!(restricted.is_empty());
        assert_eq!(dropped, 1);
    }

    #[test]
    fn cyclic_dependencies_are_recorded_not_silently_dropped() {
        let plan = plan_for(
            r#"
resource "aws_virtual_machine" "a" { name = aws_virtual_machine.b.name }
resource "aws_virtual_machine" "b" { name = aws_virtual_machine.a.name }
"#,
            &Snapshot::new(),
        );
        assert_eq!(plan.len(), 2);
        assert_eq!(
            plan.dropped_edges.len(),
            1,
            "one edge of the 2-cycle refused"
        );
        let (dep, dependent) = &plan.dropped_edges[0];
        assert_ne!(dep, dependent);
    }

    #[test]
    fn lock_scope_covers_plan() {
        let plan = plan_for(
            r#"
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_s3_bucket" "b" { bucket = "x" }
"#,
            &Snapshot::new(),
        );
        let scope = plan.lock_scope();
        assert_eq!(scope.len(), 2);
    }
}
