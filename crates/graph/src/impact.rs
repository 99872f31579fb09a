//! Impact-scope analysis for incremental updates.
//!
//! Paper §3.3: "modifications to individual resources have a limited impact,
//! affecting only a small subset of successor and predecessor nodes in the
//! resource dependency graph. By identifying the 'impact scope' of a
//! deployment change, we can confine the changes to a significantly smaller
//! resource subgraph … This will reduce the overhead on resource state
//! queries and redeployment."
//!
//! The impact scope of a change set is defined here as:
//!
//! * the changed nodes themselves,
//! * all *descendants* (resources whose inputs may change — they must be
//!   re-planned and possibly re-deployed), and
//! * the *direct predecessors* of all of the above (their attributes must be
//!   re-read to evaluate references, but they themselves need no changes).
//!
//! Everything outside the scope keeps its cached state: no refresh API call,
//! no plan node, no lock.
//!
//! Traversals mark visited nodes in flat `Vec<bool>` tables over the sealed
//! CSR (O(V+E), no per-node set operations); the public sets are built once
//! at the end, in id order.

use std::collections::BTreeSet;

use crate::dag::{Dag, NodeId};

/// The computed impact scope of a change set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImpactScope {
    /// Nodes that must be re-planned (changed nodes + descendants).
    pub replan: BTreeSet<NodeId>,
    /// Nodes whose live state must be re-read but that need no re-plan
    /// (direct dependencies of `replan` nodes outside it).
    pub reread: BTreeSet<NodeId>,
}

impl ImpactScope {
    /// Compute the scope of `changed` within `dag`. O(V+E).
    pub fn compute<N>(dag: &Dag<N>, changed: impl IntoIterator<Item = NodeId>) -> Self {
        let n = dag.len();
        let mut in_replan = vec![false; n];
        let mut stack: Vec<NodeId> = changed.into_iter().collect();
        while let Some(x) = stack.pop() {
            if !in_replan[x.index()] {
                in_replan[x.index()] = true;
                stack.extend(dag.successors(x).iter().copied());
            }
        }
        let mut in_reread = vec![false; n];
        for i in 0..n {
            if !in_replan[i] {
                continue;
            }
            for &p in dag.predecessors(NodeId(i as u32)) {
                if !in_replan[p.index()] {
                    in_reread[p.index()] = true;
                }
            }
        }
        ImpactScope {
            replan: collect_marked(&in_replan),
            reread: collect_marked(&in_reread),
        }
    }

    /// Total nodes touched in any way (replan + reread).
    pub fn touched(&self) -> usize {
        self.replan.len() + self.reread.len()
    }
}

fn collect_marked(marks: &[bool]) -> BTreeSet<NodeId> {
    marks
        .iter()
        .enumerate()
        .filter(|(_, &m)| m)
        .map(|(i, _)| NodeId(i as u32))
        .collect()
}

/// All transitive descendants of `start` (excluding `start` itself).
pub fn descendants<N>(dag: &Dag<N>, start: NodeId) -> BTreeSet<NodeId> {
    closure(dag.len(), dag.successors(start), |n| dag.successors(n))
}

/// All transitive ancestors of `start` (excluding `start` itself).
pub fn ancestors<N>(dag: &Dag<N>, start: NodeId) -> BTreeSet<NodeId> {
    closure(dag.len(), dag.predecessors(start), |n| dag.predecessors(n))
}

fn closure<'a>(
    n: usize,
    frontier: &[NodeId],
    step: impl Fn(NodeId) -> &'a [NodeId],
) -> BTreeSet<NodeId> {
    let mut seen = vec![false; n];
    let mut stack: Vec<NodeId> = frontier.to_vec();
    while let Some(x) = stack.pop() {
        if !seen[x.index()] {
            seen[x.index()] = true;
            stack.extend(step(x).iter().copied());
        }
    }
    collect_marked(&seen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DagBuilder;

    /// vpc -> subnet -> nic -> vm
    ///        subnet -> db
    /// bucket (isolated)
    fn infra() -> (Dag<&'static str>, [NodeId; 6]) {
        let mut b = DagBuilder::new();
        let vpc = b.add_node("vpc");
        let subnet = b.add_node("subnet");
        let nic = b.add_node("nic");
        let vm = b.add_node("vm");
        let db = b.add_node("db");
        let bucket = b.add_node("bucket");
        b.add_edge(vpc, subnet).unwrap();
        b.add_edge(subnet, nic).unwrap();
        b.add_edge(nic, vm).unwrap();
        b.add_edge(subnet, db).unwrap();
        (b.seal().unwrap(), [vpc, subnet, nic, vm, db, bucket])
    }

    #[test]
    fn change_leaf_touches_only_leaf_and_parent() {
        let (g, [_, _, nic, vm, ..]) = infra();
        let scope = ImpactScope::compute(&g, [vm]);
        assert_eq!(scope.replan, BTreeSet::from([vm]));
        assert_eq!(scope.reread, BTreeSet::from([nic]));
        assert_eq!(scope.touched(), 2);
    }

    #[test]
    fn change_mid_node_cascades_to_descendants() {
        let (g, [vpc, subnet, nic, vm, db, _]) = infra();
        let scope = ImpactScope::compute(&g, [subnet]);
        assert_eq!(scope.replan, BTreeSet::from([subnet, nic, vm, db]));
        assert_eq!(scope.reread, BTreeSet::from([vpc]));
    }

    #[test]
    fn isolated_change_is_isolated() {
        let (g, [.., bucket]) = infra();
        let scope = ImpactScope::compute(&g, [bucket]);
        assert_eq!(scope.replan, BTreeSet::from([bucket]));
        assert!(scope.reread.is_empty());
    }

    #[test]
    fn multiple_changes_union() {
        let (g, [_, subnet, _, _, db, bucket]) = infra();
        let scope = ImpactScope::compute(&g, [db, bucket]);
        assert_eq!(scope.replan, BTreeSet::from([db, bucket]));
        assert_eq!(scope.reread, BTreeSet::from([subnet]));
    }

    #[test]
    fn descendants_and_ancestors() {
        let (g, [vpc, subnet, nic, vm, db, _]) = infra();
        assert_eq!(descendants(&g, subnet), BTreeSet::from([nic, vm, db]));
        assert_eq!(ancestors(&g, vm), BTreeSet::from([vpc, subnet, nic]));
        assert!(descendants(&g, vm).is_empty());
        assert!(ancestors(&g, vpc).is_empty());
    }

    #[test]
    fn empty_change_set() {
        let (g, _) = infra();
        let scope = ImpactScope::compute(&g, []);
        assert!(scope.replan.is_empty());
        assert!(scope.reread.is_empty());
        assert_eq!(scope.touched(), 0);
    }
}
