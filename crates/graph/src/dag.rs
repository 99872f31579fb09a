//! The core DAG container.
//!
//! A plan graph is built once and consumed; "removal" for incremental
//! planning is expressed by *subgraph views* computed in [`crate::impact`].
//! A long-lived graph (the pipeline memo's block DAG) inserts and removes
//! nodes by [`Dag::splice`] ([`crate::splice`]), which costs what moves
//! rather than a seal. Construction is two-phase: a
//! [`DagBuilder`] accepts nodes and edges in O(1) each, and `seal()` runs a
//! single O(V+E) acyclicity validation before handing out an immutable
//! [`Dag`] — so building a plan graph is linear in its size instead of the
//! old per-edge reachability DFS (O(E·(V+E))). A sealed [`Dag`] keeps its
//! topology in flat CSR form behind an `Arc`, so views ([`Dag::map`]) share
//! it instead of cloning per-node adjacency vectors; every downstream
//! algorithm can rely on acyclicity instead of re-checking it.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::csr::Csr;

/// Index of a node inside a [`Dag`]. Stable for the lifetime of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Error returned when an edge insertion or seal is rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeError {
    /// The edge set contains a cycle. `path` is the witness: `[a, b, c]`
    /// means `a → b → c → a`, closed by the offending edge `from → to`.
    WouldCycle {
        from: NodeId,
        to: NodeId,
        path: Vec<NodeId>,
    },
    /// One of the endpoints does not exist.
    UnknownNode(NodeId),
}

impl fmt::Display for EdgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeError::WouldCycle { from, to, path } => {
                write!(f, "edge {from} -> {to} would create a dependency cycle")?;
                if !path.is_empty() {
                    write!(f, " (")?;
                    for n in path {
                        write!(f, "{n} -> ")?;
                    }
                    write!(f, "{})", path[0])?;
                }
                Ok(())
            }
            EdgeError::UnknownNode(n) => write!(f, "unknown node {n}"),
        }
    }
}

impl std::error::Error for EdgeError {}

/// Sealed topology: forward and reverse CSR over the same edge set. Shared
/// behind an `Arc` by every view derived from the same build.
#[derive(Debug, Clone)]
pub(crate) struct Topology {
    pub(crate) succ: Csr,
    pub(crate) pred: Csr,
}

/// Incremental construction of a [`Dag`]: `add_node` / `add_edge` are O(1)
/// appends (no cycle check), and [`DagBuilder::seal`] validates acyclicity
/// once in O(V+E).
#[derive(Debug, Clone, Default)]
pub struct DagBuilder<N> {
    nodes: Vec<N>,
    edges: Vec<(NodeId, NodeId)>,
}

impl<N> DagBuilder<N> {
    pub fn new() -> Self {
        DagBuilder {
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    pub fn with_capacity(n: usize) -> Self {
        DagBuilder {
            nodes: Vec::with_capacity(n),
            edges: Vec::new(),
        }
    }

    /// Append a node and return its id.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(payload);
        id
    }

    /// Record a dependency edge `from -> to` ("`to` depends on `from`").
    ///
    /// O(1): duplicates are tolerated (deduplicated at seal time) and cycle
    /// detection is deferred to [`DagBuilder::seal`]. Only unknown endpoints
    /// and self-loops are rejected immediately.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), EdgeError> {
        if from.index() >= self.nodes.len() {
            return Err(EdgeError::UnknownNode(from));
        }
        if to.index() >= self.nodes.len() {
            return Err(EdgeError::UnknownNode(to));
        }
        if from == to {
            return Err(EdgeError::WouldCycle {
                from,
                to,
                path: vec![from],
            });
        }
        self.edges.push((from, to));
        Ok(())
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Payload of a node added earlier.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Validate acyclicity once and seal into an immutable CSR-backed
    /// [`Dag`]. O(V+E). On failure the error carries the witness cycle.
    pub fn seal(self) -> Result<Dag<N>, EdgeError> {
        let edges = dedup_edges(self.nodes.len(), self.edges);
        let succ = Csr::from_edges(self.nodes.len(), &edges);
        if let Some(path) = succ.find_cycle() {
            let from = *path.last().expect("cycle is non-empty");
            let to = path[0];
            return Err(EdgeError::WouldCycle { from, to, path });
        }
        let pred = Csr::reverse_from_edges(self.nodes.len(), &edges);
        Ok(Dag {
            nodes: self.nodes,
            topo: Arc::new(Topology { succ, pred }),
        })
    }

    /// Seal, dropping the minimal deterministic set of cycle-closing edges
    /// (the DFS back edges) instead of failing. Returns the sealed [`Dag`]
    /// plus the dropped `(from, to)` edges in traversal order — callers
    /// surface these as under-constrained-plan diagnostics.
    pub fn seal_breaking_cycles(self) -> (Dag<N>, Vec<(NodeId, NodeId)>) {
        let edges = dedup_edges(self.nodes.len(), self.edges);
        let succ = Csr::from_edges(self.nodes.len(), &edges);
        let back = succ.back_edges();
        if back.is_empty() {
            let pred = Csr::reverse_from_edges(self.nodes.len(), &edges);
            return (
                Dag {
                    nodes: self.nodes,
                    topo: Arc::new(Topology { succ, pred }),
                },
                Vec::new(),
            );
        }
        let dropped: Vec<(NodeId, NodeId)> = back.iter().map(|b| (b.from, b.to)).collect();
        let kept: Vec<(NodeId, NodeId)> = {
            // `dropped` is tiny in practice; for robustness mark pairs in a
            // hash set so filtering stays O(E).
            let drop_set: std::collections::HashSet<(NodeId, NodeId)> =
                dropped.iter().copied().collect();
            edges
                .into_iter()
                .filter(|e| !drop_set.contains(e))
                .collect()
        };
        let succ = Csr::from_edges(self.nodes.len(), &kept);
        debug_assert!(
            succ.find_cycle().is_none(),
            "back-edge removal breaks all cycles"
        );
        let pred = Csr::reverse_from_edges(self.nodes.len(), &kept);
        (
            Dag {
                nodes: self.nodes,
                topo: Arc::new(Topology { succ, pred }),
            },
            dropped,
        )
    }
}

/// Stable O(E) dedup of the edge list (first occurrence wins), so duplicate
/// `add_edge` calls stay idempotent like the old guarded insertion.
fn dedup_edges(n: usize, mut edges: Vec<(NodeId, NodeId)>) -> Vec<(NodeId, NodeId)> {
    if edges.len() <= 1 {
        return edges;
    }
    let n = n as u64;
    let mut seen = std::collections::HashSet::with_capacity(edges.len());
    edges.retain(|&(from, to)| seen.insert(from.0 as u64 * n + to.0 as u64));
    edges
}

/// A directed acyclic graph with payloads of type `N`, sealed from a
/// [`DagBuilder`].
///
/// Edge direction follows *dependency order*: an edge `a -> b` means "b
/// depends on a", i.e. `a` must be processed before `b`. This matches the
/// deployment direction (the NIC is created before the VM that references
/// it). Topology is immutable flat CSR shared behind an `Arc`; payloads stay
/// editable via [`Dag::node_mut`].
#[derive(Debug, Clone)]
pub struct Dag<N> {
    pub(crate) nodes: Vec<N>,
    pub(crate) topo: Arc<Topology>,
}

impl<N> Default for Dag<N> {
    fn default() -> Self {
        DagBuilder::new().seal().expect("empty graph is acyclic")
    }
}

impl<N> Dag<N> {
    /// An empty graph.
    pub fn empty() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn edge_count(&self) -> usize {
        self.topo.succ.edge_count()
    }

    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id.index()]
    }

    /// Direct dependents of `id` (nodes that must run after it).
    pub fn successors(&self, id: NodeId) -> &[NodeId] {
        self.topo.succ.neighbors(id.index())
    }

    /// Direct dependencies of `id` (nodes that must run before it).
    pub fn predecessors(&self, id: NodeId) -> &[NodeId] {
        self.topo.pred.neighbors(id.index())
    }

    /// In-degree of `id`.
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.topo.pred.degree(id.index())
    }

    /// Out-degree of `id`.
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.topo.succ.degree(id.index())
    }

    /// Whether `target` is reachable from `start` following edges forward.
    pub fn reaches(&self, start: NodeId, target: NodeId) -> bool {
        if start == target {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            for &s in self.successors(n) {
                if s == target {
                    return true;
                }
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// All node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All `(id, payload)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &N)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Nodes with no dependencies — the deployment frontier at time zero.
    pub fn roots(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.in_degree(n) == 0)
            .collect()
    }

    /// Nodes with no dependents — the "leaves" of the deployment.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.out_degree(n) == 0)
            .collect()
    }

    /// All edges as `(from, to)` pairs, in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.node_ids()
            .flat_map(move |from| self.successors(from).iter().map(move |&to| (from, to)))
    }

    /// Map payloads into a new DAG with identical topology. The sealed CSR
    /// is shared (`Arc`), not cloned.
    pub fn map<M>(&self, mut f: impl FnMut(NodeId, &N) -> M) -> Dag<M> {
        Dag {
            nodes: self.iter().map(|(id, n)| f(id, n)).collect(),
            topo: Arc::clone(&self.topo),
        }
    }

    /// Find the first node whose payload satisfies `pred`.
    pub fn find(&self, mut pred: impl FnMut(&N) -> bool) -> Option<NodeId> {
        self.iter().find(|(_, n)| pred(n)).map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Dag<&'static str>, [NodeId; 4]) {
        // a -> b -> d
        // a -> c -> d
        let (b, ids) = diamond_builder();
        (b.seal().unwrap(), ids)
    }

    fn diamond_builder() -> (DagBuilder<&'static str>, [NodeId; 4]) {
        let mut b = DagBuilder::new();
        let a = b.add_node("a");
        let bb = b.add_node("b");
        let c = b.add_node("c");
        let d = b.add_node("d");
        b.add_edge(a, bb).unwrap();
        b.add_edge(a, c).unwrap();
        b.add_edge(bb, d).unwrap();
        b.add_edge(c, d).unwrap();
        (b, [a, bb, c, d])
    }

    #[test]
    fn build_and_query() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.roots(), vec![a]);
        assert_eq!(g.leaves(), vec![d]);
        assert_eq!(g.successors(a), &[b, c]);
        assert_eq!(g.predecessors(d), &[b, c]);
        assert_eq!(*g.node(b), "b");
    }

    #[test]
    fn cycle_rejected_at_seal() {
        let (mut b, [a, _, _, d]) = diamond_builder();
        b.add_edge(d, a).unwrap(); // accepted now …
        let err = b.seal().unwrap_err(); // … rejected at seal, with a witness
        match err {
            EdgeError::WouldCycle { from, to, path } => {
                assert!(!path.is_empty());
                // the witness closes on itself: from → to is an edge, and
                // `to … from` is a path
                assert_eq!(path[0], to);
                assert_eq!(*path.last().unwrap(), from);
            }
            other => panic!("expected WouldCycle, got {other:?}"),
        }
    }

    #[test]
    fn self_loop_rejected_immediately() {
        let (mut b, [a, ..]) = diamond_builder();
        assert!(matches!(
            b.add_edge(a, a),
            Err(EdgeError::WouldCycle { .. })
        ));
        assert!(b.seal().is_ok());
    }

    #[test]
    fn seal_breaking_cycles_drops_back_edges() {
        let (mut b, [a, _, _, d]) = diamond_builder();
        b.add_edge(d, a).unwrap();
        let (g, dropped) = b.seal_breaking_cycles();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(dropped, vec![(d, a)]);
        assert!(!g.reaches(d, a));
    }

    #[test]
    fn unknown_node_rejected() {
        let (mut b, [a, ..]) = diamond_builder();
        let ghost = NodeId(99);
        assert_eq!(b.add_edge(a, ghost), Err(EdgeError::UnknownNode(ghost)));
        assert_eq!(b.add_edge(ghost, a), Err(EdgeError::UnknownNode(ghost)));
    }

    #[test]
    fn duplicate_edge_is_idempotent() {
        let (mut b, [a, bb, ..]) = diamond_builder();
        b.add_edge(a, bb).unwrap();
        let g = b.seal().unwrap();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.successors(a), &[bb, NodeId(2)]);
    }

    #[test]
    fn reachability() {
        let (g, [a, b, c, d]) = diamond();
        assert!(g.reaches(a, d));
        assert!(g.reaches(b, d));
        assert!(!g.reaches(b, c));
        assert!(!g.reaches(d, a));
        assert!(g.reaches(a, a));
    }

    #[test]
    fn map_preserves_and_shares_topology() {
        let (g, [_, _, _, d]) = diamond();
        let upper = g.map(|_, s| s.to_uppercase());
        assert_eq!(upper.len(), 4);
        assert_eq!(*upper.node(d), "D");
        assert_eq!(upper.predecessors(d).len(), 2);
        // the sealed CSR is shared, not cloned
        assert!(Arc::ptr_eq(&g.topo, &upper.topo));
    }

    #[test]
    fn edges_iteration_deterministic() {
        let (g, [a, b, c, d]) = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(a, b), (a, c), (b, d), (c, d)]);
    }

    #[test]
    fn empty_graph_seals() {
        let g: Dag<()> = Dag::empty();
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
    }
}
