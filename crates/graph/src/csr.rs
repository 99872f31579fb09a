//! Flat compressed-sparse-row adjacency, shared by the sealed [`crate::Dag`],
//! the topological passes and cycle detection.
//!
//! A [`Csr`] stores all adjacency rows in two flat vectors (`offsets` +
//! `targets`), built in O(V+E) by counting sort. Row order preserves edge
//! insertion order, so every algorithm that walks neighbors sees the same
//! deterministic order the old per-node `Vec<Vec<NodeId>>` representation
//! produced — but without one heap allocation per node, and with views that
//! can share the whole topology behind an `Arc` instead of cloning it.

use crate::dag::NodeId;

/// Flat adjacency: `neighbors(i)` is `targets[offsets[i]..offsets[i+1]]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Csr {
    /// `n + 1` row offsets into `targets`.
    offsets: Vec<u32>,
    /// Concatenated adjacency rows, in edge insertion order per row.
    targets: Vec<NodeId>,
}

impl Csr {
    /// Build the forward adjacency (`from → to`) of `edges` over `n` nodes
    /// by counting sort: O(V + E), stable within each row.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Csr {
        Self::build(n, edges, |&(from, to)| (from, to))
    }

    /// Build the reverse adjacency (`to → from`) of the same edge set.
    pub fn reverse_from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Csr {
        Self::build(n, edges, |&(from, to)| (to, from))
    }

    fn build(
        n: usize,
        edges: &[(NodeId, NodeId)],
        key: impl Fn(&(NodeId, NodeId)) -> (NodeId, NodeId),
    ) -> Csr {
        let mut counts = vec![0u32; n + 1];
        for e in edges {
            let (row, _) = key(e);
            counts[row.index() + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![NodeId(0); edges.len()];
        for e in edges {
            let (row, col) = key(e);
            targets[cursor[row.index()] as usize] = col;
            cursor[row.index()] += 1;
        }
        Csr { offsets, targets }
    }

    /// Number of nodes (rows).
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Adjacency row of node `i`, in edge insertion order.
    pub fn neighbors(&self, i: usize) -> &[NodeId] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Row length of node `i`.
    pub fn degree(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Cut the rows from `row` on off into a table of their own (its row 0
    /// is this one's `row`): O(the rows and entries cut).
    pub(crate) fn split_off(&mut self, row: usize) -> Csr {
        let base = self.offsets[row];
        let targets = self.targets.split_off(base as usize);
        let offsets = self.offsets[row..].iter().map(|&at| at - base).collect();
        self.offsets.truncate(row + 1);
        Csr { offsets, targets }
    }

    /// Append a row.
    pub(crate) fn push_row(&mut self, row: impl IntoIterator<Item = NodeId>) {
        self.targets.extend(row);
        self.offsets.push(self.targets.len() as u32);
    }

    /// Find one cycle, if any, as the list of nodes along it (`[a, b, c]`
    /// means `a → b → c → a`; a self-loop yields `[a]`). Iterative
    /// three-color DFS, deterministic: lowest-numbered roots first, edges in
    /// row (insertion) order.
    pub fn find_cycle(&self) -> Option<Vec<NodeId>> {
        let mut out = None;
        self.dfs_back_edges(|cycle, _| {
            out = Some(cycle.to_vec());
            true
        });
        out
    }

    /// All back edges of a deterministic DFS over the whole graph, with the
    /// cycle each one closes. Removing exactly these edges leaves an acyclic
    /// graph (tree, forward and cross edges cannot form a cycle).
    pub fn back_edges(&self) -> Vec<BackEdge> {
        let mut out = Vec::new();
        self.dfs_back_edges(|cycle, edge| {
            out.push(BackEdge {
                from: edge.0,
                to: edge.1,
                cycle: cycle.to_vec(),
            });
            false
        });
        out
    }

    /// Shared three-color DFS. `on_back_edge(cycle, (from, to))` is invoked
    /// for every back edge found; returning `true` aborts the traversal.
    fn dfs_back_edges(&self, mut on_back_edge: impl FnMut(&[NodeId], (NodeId, NodeId)) -> bool) {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let n = self.len();
        let mut color = vec![Color::White; n];
        let mut parent: Vec<u32> = vec![u32::MAX; n];
        let mut cycle_buf: Vec<NodeId> = Vec::new();
        for root in 0..n {
            if color[root] != Color::White {
                continue;
            }
            // stack of (node, next-edge-offset)
            let mut stack: Vec<(u32, u32)> = vec![(root as u32, self.offsets[root])];
            color[root] = Color::Gray;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                let node = node as usize;
                if *next < self.offsets[node + 1] {
                    let to = self.targets[*next as usize];
                    *next += 1;
                    match color[to.index()] {
                        Color::Gray => {
                            // back edge: walk parents from `node` up to `to`
                            cycle_buf.clear();
                            cycle_buf.push(NodeId(node as u32));
                            let mut cur = node;
                            while cur != to.index() {
                                cur = parent[cur] as usize;
                                cycle_buf.push(NodeId(cur as u32));
                            }
                            cycle_buf.reverse();
                            if on_back_edge(&cycle_buf, (NodeId(node as u32), to)) {
                                return;
                            }
                        }
                        Color::White => {
                            color[to.index()] = Color::Gray;
                            parent[to.index()] = node as u32;
                            stack.push((to.0, self.offsets[to.index()]));
                        }
                        Color::Black => {}
                    }
                } else {
                    color[node] = Color::Black;
                    stack.pop();
                }
            }
        }
    }
}

/// One DFS back edge and the cycle it closes (`cycle` runs `to → … → from`,
/// closed by `from → to`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackEdge {
    pub from: NodeId,
    pub to: NodeId,
    pub cycle: Vec<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(pairs: &[(u32, u32)]) -> Vec<(NodeId, NodeId)> {
        pairs.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect()
    }

    #[test]
    fn rows_preserve_insertion_order() {
        let g = Csr::from_edges(4, &edges(&[(0, 2), (0, 1), (3, 0), (0, 3)]));
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.neighbors(0), &[NodeId(2), NodeId(1), NodeId(3)]);
        assert_eq!(g.neighbors(3), &[NodeId(0)]);
        assert_eq!(g.degree(1), 0);
    }

    #[test]
    fn reverse_rows() {
        let g = Csr::reverse_from_edges(3, &edges(&[(0, 2), (1, 2)]));
        assert_eq!(g.neighbors(2), &[NodeId(0), NodeId(1)]);
        assert_eq!(g.degree(0), 0);
    }

    #[test]
    fn acyclic_has_no_cycle_or_back_edges() {
        let g = Csr::from_edges(4, &edges(&[(0, 1), (1, 2), (0, 3), (3, 2)]));
        assert_eq!(g.find_cycle(), None);
        assert!(g.back_edges().is_empty());
    }

    #[test]
    fn two_cycle_and_self_loop() {
        let g = Csr::from_edges(3, &edges(&[(0, 1), (1, 0)]));
        let c = g.find_cycle().expect("cycle");
        assert_eq!(c, vec![NodeId(0), NodeId(1)]);

        let s = Csr::from_edges(2, &edges(&[(1, 1)]));
        assert_eq!(s.find_cycle(), Some(vec![NodeId(1)]));
    }

    #[test]
    fn back_edges_break_all_cycles() {
        // two disjoint cycles plus acyclic edges
        let all = edges(&[(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (0, 2)]);
        let g = Csr::from_edges(5, &all);
        let back = g.back_edges();
        assert_eq!(back.len(), 2);
        let kept: Vec<(NodeId, NodeId)> = all
            .iter()
            .copied()
            .filter(|&(f, t)| !back.iter().any(|b| (b.from, b.to) == (f, t)))
            .collect();
        assert_eq!(Csr::from_edges(5, &kept).find_cycle(), None);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        assert!(g.is_empty());
        assert_eq!(g.find_cycle(), None);
    }
}
