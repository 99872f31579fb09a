//! Property-based tests for the DAG algorithms.
//!
//! Random DAGs are generated by only ever adding edges from a lower node id
//! to a higher node id — that construction is acyclic by definition, so the
//! guarded `add_edge` must always accept, and every algorithmic invariant can
//! be checked against it.

use std::collections::BTreeSet;

use cloudless_graph::critical::CriticalPathAnalysis;
use cloudless_graph::dag::{Dag, DagBuilder, EdgeError, NodeId};
use cloudless_graph::impact::{ancestors, descendants, ImpactScope};
use cloudless_graph::splice::{Origin, Renumbering};
use cloudless_graph::topo::{levels, topo_sort};
use proptest::prelude::*;

/// A random DAG description: `n` nodes, edges as (from < to) pairs, and
/// per-node weights.
#[derive(Debug, Clone)]
struct RandomDag {
    n: usize,
    edges: Vec<(usize, usize)>,
    weights: Vec<u64>,
}

fn random_dag(max_nodes: usize) -> impl Strategy<Value = RandomDag> {
    (2..max_nodes).prop_flat_map(|n| {
        let edge = (0..n - 1).prop_flat_map(move |a| ((a + 1)..n).prop_map(move |b| (a, b)));
        (
            proptest::collection::vec(edge, 0..n * 2),
            proptest::collection::vec(1u64..500, n),
        )
            .prop_map(move |(edges, weights)| RandomDag { n, edges, weights })
    })
}

fn build(r: &RandomDag) -> Dag<u64> {
    let mut g = DagBuilder::new();
    let ids: Vec<NodeId> = (0..r.n).map(|i| g.add_node(r.weights[i])).collect();
    for &(a, b) in &r.edges {
        g.add_edge(ids[a], ids[b]).expect("endpoints exist");
    }
    g.seal().expect("forward edges can never form a cycle")
}

/// The same graph with its nodes relabelled by a permutation drawn from
/// `seed`, sealed from its edges in `from` order, so that every node lists
/// its predecessors in ascending order (what a splice keeps).
fn shuffled(r: &RandomDag, seed: u64) -> Dag<u64> {
    let mut rng = SplitMix(seed);
    let mut label: Vec<usize> = (0..r.n).collect();
    for i in (1..r.n).rev() {
        label.swap(i, rng.below(i + 1));
    }
    let mut edges: Vec<(usize, usize)> =
        r.edges.iter().map(|&(a, b)| (label[a], label[b])).collect();
    edges.sort_by_key(|&(from, _)| from);
    let mut g = DagBuilder::new();
    for i in 0..r.n {
        g.add_node(r.weights[i]);
    }
    for (a, b) in edges {
        g.add_edge(NodeId(a as u32), NodeId(b as u32))
            .expect("endpoints exist");
    }
    g.seal().expect("a relabelled DAG is a DAG")
}

/// A small deterministic generator for the shape of an edit.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One splice of `g`: some of the nodes nothing reads removed, up to four
/// nodes inserted at random ids, each reading standing nodes and nodes
/// inserted before it, with repeats.
struct Edit {
    removed: Vec<NodeId>,
    inserted: Vec<NodeId>,
    deps: Vec<Vec<Origin>>,
}

fn draw_edit(g: &Dag<u64>, seed: u64) -> Edit {
    let mut rng = SplitMix(seed ^ 0x5EED);
    // half the edits work at the end of the graph, where no standing node
    // changes id
    let at_the_end = rng.below(2) == 0;
    let unread = |n: &NodeId| g.out_degree(*n) == 0;
    let removed: Vec<NodeId> = if at_the_end {
        let ids = (0..g.len() as u32).rev().map(NodeId);
        let last = ids.take_while(unread).take(rng.below(3));
        let mut last: Vec<NodeId> = last.collect();
        last.reverse();
        last
    } else {
        g.node_ids()
            .filter(unread)
            .filter(|_| rng.below(3) == 0)
            .collect()
    };
    let standing: Vec<NodeId> = g.node_ids().filter(|n| !removed.contains(n)).collect();
    let k = rng.below(5);
    let len = standing.len() + k;
    let mut inserted: Vec<NodeId> = Vec::new();
    while inserted.len() < k {
        let at = match at_the_end {
            true => standing.len() + inserted.len(),
            false => rng.below(len),
        };
        let at = NodeId(at as u32);
        if !inserted.contains(&at) {
            inserted.push(at);
        }
    }
    inserted.sort();
    let deps = (0..k)
        .map(|j| {
            let reads = rng.below(5);
            // few enough standing nodes to read that reads repeat
            let pool = standing.len().min(3);
            (0..reads)
                .filter_map(|_| match rng.below(3) {
                    0 if j > 0 => Some(Origin::Inserted(rng.below(j))),
                    _ if pool > 0 => Some(Origin::Standing(standing[rng.below(pool)])),
                    _ => None,
                })
                .collect()
        })
        .collect();
    Edit {
        removed,
        inserted,
        deps,
    }
}

/// What `DagBuilder::seal` makes of the same edit: the old graph's edges in
/// `Dag::edges` order, renumbered, then each inserted node's in-edges.
fn sealed(g: &Dag<u64>, to: &Renumbering, edit: &Edit) -> Dag<u64> {
    let mut b = DagBuilder::new();
    for k in 0..to.len() {
        let payload = match k.checked_sub(to.first()).map(|k| to.places()[k]) {
            None => *g.node(NodeId(k as u32)),
            Some(Origin::Standing(old)) => *g.node(old),
            Some(Origin::Inserted(j)) => 1_000 + j as u64,
        };
        b.add_node(payload);
    }
    for (from, at) in g.edges() {
        if let (Some(from), Some(at)) = (to.get(from), to.get(at)) {
            b.add_edge(from, at).expect("a renumbered edge");
        }
    }
    for (&at, deps) in edit.inserted.iter().zip(&edit.deps) {
        for dep in deps {
            let from = match *dep {
                Origin::Standing(old) => to.get(old).expect("a standing node"),
                Origin::Inserted(j) => edit.inserted[j],
            };
            b.add_edge(from, at).expect("an inserted node's in-edge");
        }
    }
    b.seal().expect("a splice's edges are acyclic")
}

/// The pre-CSR scheduler, kept verbatim as an oracle: Kahn's algorithm with
/// a sorted `VecDeque` frontier (O(V) insertions), and the level schedule
/// derived from it. The new heap-based wave scheduler must emit *identical*
/// output on every seeded graph, not merely a valid one.
mod oracle {
    use super::NodeId;
    use cloudless_graph::Dag;
    use std::collections::VecDeque;

    pub fn topo_sort<N>(dag: &Dag<N>) -> Vec<NodeId> {
        let mut in_deg: Vec<usize> = dag.node_ids().map(|n| dag.in_degree(n)).collect();
        let mut ready: VecDeque<NodeId> =
            dag.node_ids().filter(|n| in_deg[n.index()] == 0).collect();
        let mut order = Vec::with_capacity(dag.len());
        while let Some(n) = ready.pop_front() {
            order.push(n);
            for &s in dag.successors(n) {
                in_deg[s.index()] -= 1;
                if in_deg[s.index()] == 0 {
                    let pos = ready.iter().position(|&r| r > s).unwrap_or(ready.len());
                    ready.insert(pos, s);
                }
            }
        }
        assert_eq!(order.len(), dag.len(), "oracle input must be acyclic");
        order
    }

    pub fn levels<N>(dag: &Dag<N>) -> Vec<Vec<NodeId>> {
        let order = topo_sort(dag);
        let mut depth = vec![0usize; dag.len()];
        let mut max_depth = 0;
        for &n in &order {
            for &p in dag.predecessors(n) {
                depth[n.index()] = depth[n.index()].max(depth[p.index()] + 1);
            }
            max_depth = max_depth.max(depth[n.index()]);
        }
        let mut out = vec![Vec::new(); max_depth + 1];
        for &n in &order {
            out[depth[n.index()]].push(n);
        }
        if dag.is_empty() {
            out.clear();
        }
        out
    }
}

proptest! {
    #[test]
    fn topo_order_respects_every_edge(r in random_dag(40)) {
        let g = build(&r);
        let order = topo_sort(&g).expect("acyclic");
        prop_assert_eq!(order.len(), g.len());
        let pos: Vec<usize> = {
            let mut p = vec![0; g.len()];
            for (i, n) in order.iter().enumerate() { p[n.index()] = i; }
            p
        };
        for (from, to) in g.edges() {
            prop_assert!(pos[from.index()] < pos[to.index()],
                "edge {from} -> {to} violated by topo order");
        }
    }

    #[test]
    fn levels_partition_nodes_and_respect_edges(r in random_dag(40)) {
        let g = build(&r);
        let lv = levels(&g).expect("acyclic");
        let total: usize = lv.iter().map(Vec::len).sum();
        prop_assert_eq!(total, g.len());
        let mut level_of = vec![0usize; g.len()];
        for (k, wave) in lv.iter().enumerate() {
            for n in wave { level_of[n.index()] = k; }
        }
        for (from, to) in g.edges() {
            prop_assert!(level_of[from.index()] < level_of[to.index()]);
        }
    }

    #[test]
    fn wave_scheduler_matches_old_scheduler_exactly(r in random_dag(40)) {
        let g = build(&r);
        prop_assert_eq!(topo_sort(&g).expect("acyclic"), oracle::topo_sort(&g));
        prop_assert_eq!(levels(&g).expect("acyclic"), oracle::levels(&g));
    }

    #[test]
    fn makespan_dominates_every_path(r in random_dag(30)) {
        let g = build(&r);
        let cpa = CriticalPathAnalysis::compute(&g, |_, &w| w).expect("acyclic");
        // Every node must finish within the makespan.
        for n in g.node_ids() {
            prop_assert!(cpa.schedule[n.index()].earliest_finish <= cpa.makespan);
            prop_assert!(cpa.schedule[n.index()].latest_finish <= cpa.makespan);
            // earliest <= latest always
            prop_assert!(cpa.schedule[n.index()].earliest_start
                <= cpa.schedule[n.index()].latest_start);
        }
        // The traced critical path's weights sum exactly to the makespan.
        let path_sum: u64 = cpa.critical_path.iter().map(|n| *g.node(*n)).sum();
        prop_assert_eq!(path_sum, cpa.makespan);
        // Consecutive path nodes are actually connected.
        for w in cpa.critical_path.windows(2) {
            prop_assert!(g.successors(w[0]).contains(&w[1]));
        }
    }

    #[test]
    fn impact_scope_is_closed_under_successors(r in random_dag(30), seed_ix in 0usize..29) {
        let g = build(&r);
        let seed = NodeId((seed_ix % g.len()) as u32);
        let scope = ImpactScope::compute(&g, [seed]);
        // replan set closed under successors
        for &n in &scope.replan {
            for &s in g.successors(n) {
                prop_assert!(scope.replan.contains(&s));
            }
        }
        // reread nodes are direct predecessors of replan nodes, never inside replan
        for &n in &scope.reread {
            prop_assert!(!scope.replan.contains(&n));
            prop_assert!(g.successors(n).iter().any(|s| scope.replan.contains(s)));
        }
        // scope.replan == {seed} ∪ descendants(seed)
        let mut expect: BTreeSet<NodeId> = descendants(&g, seed);
        expect.insert(seed);
        prop_assert_eq!(&scope.replan, &expect);
    }

    #[test]
    fn ancestors_and_descendants_are_duals(r in random_dag(25)) {
        let g = build(&r);
        for a in g.node_ids() {
            for &d in &descendants(&g, a) {
                prop_assert!(ancestors(&g, d).contains(&a),
                    "{a} is an ancestor of its descendant {d}");
            }
        }
    }

    #[test]
    fn reachability_matches_descendants(r in random_dag(20)) {
        let g = build(&r);
        for a in g.node_ids() {
            let desc = descendants(&g, a);
            for b in g.node_ids() {
                if a == b { continue; }
                prop_assert_eq!(g.reaches(a, b), desc.contains(&b));
            }
        }
    }

    #[test]
    fn a_splice_is_the_seal_of_its_edges(r in random_dag(30), seed in any::<u64>()) {
        let g = shuffled(&r, seed);
        let edit = draw_edit(&g, seed);
        let to = Renumbering::new(g.len(), &edit.removed, &edit.inserted).expect("a renumbering");
        let expected = sealed(&g, &to, &edit);
        let payloads = (0..edit.inserted.len()).map(|j| 1_000 + j as u64);
        let spliced = g.clone().splice(&to, payloads.zip(edit.deps.iter().map(Vec::as_slice)));
        let spliced = spliced.expect("an in-order splice is accepted");
        prop_assert_eq!(spliced.len(), expected.len());
        prop_assert_eq!(spliced.edge_count(), expected.edge_count());
        for n in expected.node_ids() {
            prop_assert_eq!(spliced.node(n), expected.node(n), "payload of {}", n);
            prop_assert_eq!(spliced.successors(n), expected.successors(n), "successors of {}", n);
            prop_assert_eq!(spliced.predecessors(n), expected.predecessors(n), "predecessors of {}", n);
        }
        // what moved: every standing node whose id changed, and what came and went
        let moved = g.node_ids().filter(|&n| to.get(n).is_some_and(|m| m != n)).count();
        prop_assert_eq!(to.renumbered(), moved + edit.removed.len() + edit.inserted.len());
        let kept_below = g.node_ids().take(to.first()).all(|n| to.get(n) == Some(n));
        prop_assert!(kept_below);
    }

    #[test]
    fn a_splice_refuses_a_self_edge_a_forward_edge_and_a_removed_source(
        r in random_dag(30),
        seed in any::<u64>(),
        how in 0usize..3,
    ) {
        let g = shuffled(&r, seed);
        let mut edit = draw_edit(&g, seed);
        if edit.inserted.len() < 2 {
            let len = g.len() - edit.removed.len() + 2;
            edit.inserted = vec![NodeId(0), NodeId(len as u32 - 1)];
            edit.deps = vec![Vec::new(), Vec::new()];
        }
        let j = (seed as usize) % (edit.inserted.len() - 1);
        let gone = edit.removed.first().copied();
        let (bad, refused): (Origin, fn(&EdgeError) -> bool) = match (how, gone) {
            (0, _) => (Origin::Inserted(j), |e| matches!(e, EdgeError::WouldCycle { .. })),
            (1, _) | (_, None) => (Origin::Inserted(j + 1), |e| matches!(e, EdgeError::UnknownNode(_))),
            (_, Some(old)) => (Origin::Standing(old), |e| matches!(e, EdgeError::UnknownNode(_))),
        };
        edit.deps[j].push(bad);
        let to = Renumbering::new(g.len(), &edit.removed, &edit.inserted).expect("a renumbering");
        let payloads = (0..edit.inserted.len()).map(|j| 1_000 + j as u64);
        let spliced = g.splice(&to, payloads.zip(edit.deps.iter().map(Vec::as_slice)));
        let err = spliced.err();
        prop_assert!(err.as_ref().is_some_and(refused), "{bad:?} of inserted node #{j}: {err:?}");
    }
}
