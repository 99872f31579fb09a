//! The schedule-fuzzing oracle: a seeded, deterministic dynamic checker
//! that replays what the static concurrency analyzer (`cloudless-analyze`,
//! ANA501–ANA504) only *predicts*.
//!
//! The analyzer claims a defect is reachable under some legal schedule; the
//! oracle tries to reach it. It enumerates seeded random executions that
//! the wave scheduler could legally produce — topological orders of the
//! *sealed* instance DAG (exactly the graph `Plan::build` hands the
//! executor, cycle-closing edges dropped) — and drives a model cloud
//! through each:
//!
//! * **unordered read** (confirms ANA501): an instance executes while a
//!   producer of one of its deferred attributes has not completed — the
//!   read observes an unset value.
//! * **double provision** (confirms ANA502): an instance claims a
//!   cloud-side identity another live instance already holds — write-write
//!   on one object.
//! * **replace self-race** (confirms ANA504): a `create_before_destroy`
//!   replace creates the successor under an identity the doomed
//!   predecessor still holds.
//! * **deadlock** (confirms ANA503): two independent estates (weakly
//!   connected components, the units a multi-tenant daemon converges
//!   concurrently) acquire their shared per-object locks in wave order,
//!   holding until the converge ends; the oracle interleaves the two lock
//!   sequences randomly and reports reaching the state where each estate
//!   blocks on a lock the other holds.
//!
//! The oracle is intentionally *independent* of the analyzer's pass
//! structure: it recomputes estates, waves and identity claims from the
//! manifest, so agreement between the two is evidence, not tautology.
//! Everything is seeded — the verdict for a given (manifest, seed,
//! schedules) triple is byte-stable.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use cloudless::analyze::alias::instance_claims;
use cloudless::analyze::InstGraph;
use cloudless::graph::levels;
use cloudless::hcl::program::Manifest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An identity claim `(rtype, attr, value)` — the cloud-side object a
/// provisioning write locks.
type LockKey<'m> = cloudless::analyze::alias::ClaimKey<'m>;

/// What the fuzzer observed across all replayed schedules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OracleVerdict {
    /// Execution schedules replayed (plus lock interleavings for ANA503).
    pub interleavings: u32,
    /// Rule code → number of schedules that dynamically exhibited the
    /// defect the rule predicts. Absent code = never observed.
    pub anomalies: BTreeMap<&'static str, u32>,
}

impl OracleVerdict {
    /// Did any schedule exhibit the defect class `code` predicts?
    pub fn confirms(&self, code: &str) -> bool {
        self.anomalies.get(code).copied().unwrap_or(0) > 0
    }

    /// No schedule exhibited any defect.
    pub fn clean(&self) -> bool {
        self.anomalies.is_empty()
    }
}

/// Seeded deterministic schedule fuzzer.
pub struct Oracle {
    pub seed: u64,
    /// Random legal schedules to replay (and lock interleavings per
    /// estate pair).
    pub schedules: u32,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle {
            seed: crate::SEED,
            schedules: 64,
        }
    }
}

impl Oracle {
    /// Replay `schedules` seeded random legal executions of the manifest.
    pub fn fuzz(&self, manifest: &Manifest) -> OracleVerdict {
        let g = InstGraph::build(manifest);
        let n = manifest.instances.len();
        let claims: Vec<Vec<LockKey<'_>>> = manifest
            .instances
            .iter()
            .map(|inst| instance_claims(inst).collect())
            .collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut verdict = OracleVerdict::default();

        for _ in 0..self.schedules {
            let order = random_topo_order(&g, n, &mut rng);
            verdict.interleavings += 1;
            self.replay_execution(manifest, &g, &claims, &order, &mut verdict);
        }
        self.fuzz_locks(&g, n, &claims, &mut verdict);
        verdict
    }

    /// One serial execution in `order`: a legal wave-scheduler history.
    fn replay_execution(
        &self,
        manifest: &Manifest,
        g: &InstGraph<'_>,
        claims: &[Vec<LockKey<'_>>],
        order: &[usize],
        verdict: &mut OracleVerdict,
    ) {
        let n = manifest.instances.len();
        let mut done = vec![false; n];
        // identity -> live holder
        let mut live: HashMap<&LockKey<'_>, usize> = HashMap::new();
        let mut unordered_read = false;
        let mut double_provision = false;
        let mut self_race = false;
        for &i in order {
            let inst = &manifest.instances[i];
            // Reads: every deferred attribute waiting on a producer that
            // exists in the manifest must observe a completed write.
            for d in &inst.deferred {
                for t in &d.waiting_on {
                    let producer = g.index.iter().find(|(addr, &p)| {
                        p != i && t.reads(addr) && addr.module_path == inst.addr.module_path
                    });
                    if let Some((_, &p)) = producer {
                        if !done[p] {
                            unordered_read = true;
                        }
                    }
                }
            }
            // Writes: claim every plan-time identity.
            for key in &claims[i] {
                if inst.lifecycle.create_before_destroy {
                    // A replace creates the successor while the predecessor
                    // still holds the identity: the instance races itself.
                    self_race = true;
                }
                if let Some(&holder) = live.get(key) {
                    if holder != i {
                        double_provision = true;
                    }
                }
                live.insert(key, i);
            }
            done[i] = true;
        }
        if unordered_read {
            *verdict.anomalies.entry("ANA501").or_insert(0) += 1;
        }
        if double_provision {
            *verdict.anomalies.entry("ANA502").or_insert(0) += 1;
        }
        if self_race {
            *verdict.anomalies.entry("ANA504").or_insert(0) += 1;
        }
    }

    /// Two-estate concurrent-converge lock simulation. Each estate's lock
    /// acquisition sequence is its colliding identities in wave order,
    /// held until the converge completes (hold-and-wait); random
    /// interleavings search for the mutual-block state.
    fn fuzz_locks(
        &self,
        g: &InstGraph<'_>,
        n: usize,
        claims: &[Vec<LockKey<'_>>],
        verdict: &mut OracleVerdict,
    ) {
        if n == 0 {
            return;
        }
        // Estates: union-find over sealed + dropped edges.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let union = |parent: &mut Vec<usize>, a: usize, b: usize| {
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra != rb {
                let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                parent[hi] = lo;
            }
        };
        for id in g.dag.node_ids() {
            for &s in g.dag.successors(id) {
                union(&mut parent, id.index(), s.index());
            }
        }
        for &(a, b) in &g.dropped {
            union(&mut parent, a, b);
        }
        // Identities claimed by more than one instance are the contended
        // locks; order each estate's acquisitions by the wave clock.
        let mut holders: BTreeMap<&LockKey<'_>, Vec<usize>> = BTreeMap::new();
        for (i, ks) in claims.iter().enumerate() {
            for k in ks {
                holders.entry(k).or_default().push(i);
            }
        }
        let waves = levels(&g.dag).expect("sealed dag is acyclic");
        let mut wave_of = vec![0usize; n];
        for (w, nodes) in waves.iter().enumerate() {
            for id in nodes {
                wave_of[id.index()] = w;
            }
        }
        // estate -> [(clock, lock)] over contended locks only; the clock
        // is (wave, instance) so the set orders acquisitions determinately
        type Acquisitions<'a> = BTreeSet<((usize, usize), &'a LockKey<'a>)>;
        let mut seq: BTreeMap<usize, Acquisitions> = BTreeMap::new();
        for (k, hs) in &holders {
            if hs.len() < 2 {
                continue;
            }
            for &h in hs {
                let estate = find(&mut parent, h);
                seq.entry(estate).or_default().insert(((wave_of[h], h), k));
            }
        }
        let estates: Vec<(usize, Vec<&LockKey<'_>>)> = seq
            .iter()
            .map(|(e, s)| {
                // first acquisition only; re-acquiring a held lock is free
                let mut locks = Vec::new();
                for (_, k) in s {
                    if !locks.contains(k) {
                        locks.push(*k);
                    }
                }
                (*e, locks)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x10c4_08de);
        for x in 0..estates.len() {
            for y in x + 1..estates.len() {
                let (_, ref la) = estates[x];
                let (_, ref lb) = estates[y];
                let shared: HashSet<_> = la.iter().filter(|k| lb.contains(k)).collect();
                if shared.len() < 2 {
                    continue;
                }
                for _ in 0..self.schedules {
                    verdict.interleavings += 1;
                    if interleave_deadlocks(la, lb, &mut rng) {
                        *verdict.anomalies.entry("ANA503").or_insert(0) += 1;
                    }
                }
            }
        }
    }
}

/// A uniform-ish random topological order of the sealed DAG: at each step
/// pick a random ready node. Every draw is a schedule the wave scheduler
/// (or any work-conserving executor honoring the edges) could produce.
fn random_topo_order(g: &InstGraph<'_>, n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut indeg: Vec<usize> = (0..n)
        .map(|i| g.dag.in_degree(cloudless::graph::NodeId(i as u32)))
        .collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        let pick = rng.gen_range(0..ready.len());
        let i = ready.swap_remove(pick);
        order.push(i);
        for &s in g.dag.successors(cloudless::graph::NodeId(i as u32)) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                ready.push(s.index());
            }
        }
    }
    debug_assert_eq!(order.len(), n, "sealed dag is acyclic");
    order
}

/// Interleave two hold-and-wait lock sequences; `true` when the run
/// reaches the state where each side blocks on a lock the other holds.
fn interleave_deadlocks<K: Eq>(a: &[K], b: &[K], rng: &mut StdRng) -> bool {
    let (mut ia, mut ib) = (0usize, 0usize);
    loop {
        let a_blocked = ia < a.len() && b[..ib].contains(&a[ia]);
        let b_blocked = ib < b.len() && a[..ia].contains(&b[ib]);
        if a_blocked && b_blocked {
            return true; // mutual hold-and-wait
        }
        let a_can = ia < a.len() && !a_blocked;
        let b_can = ib < b.len() && !b_blocked;
        match (a_can, b_can) {
            (false, false) => return false, // one side finished or both done
            (true, false) => ia += 1,
            (false, true) => ib += 1,
            (true, true) => {
                if rng.gen_bool(0.5) {
                    ia += 1;
                } else {
                    ib += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless::hcl::program::ModuleLibrary;

    fn manifest(src: &str) -> Manifest {
        let p = cloudless::hcl::load(src, "main.tf").expect("parses");
        cloudless::hcl::program::expand(
            &p,
            &std::collections::BTreeMap::new(),
            &ModuleLibrary::new(),
            &cloudless::hcl::eval::DeferAll,
        )
        .expect("expands")
    }

    #[test]
    fn clean_chain_fuzzes_clean() {
        let m = manifest(
            r#"
            resource "aws_network" "net" { name = "net" cidr_block = "10.0.0.0/16" }
            resource "aws_virtual_machine" "vm" {
              name       = "vm"
              network_id = aws_network.net.id
            }
            "#,
        );
        let v = Oracle::default().fuzz(&m);
        assert!(v.clean(), "{v:?}");
        assert!(v.interleavings >= 64);
    }

    #[test]
    fn dropped_edge_read_race_is_reachable() {
        let m = manifest(
            r#"
            resource "aws_virtual_machine" "a" { name = "a" network_id = aws_virtual_machine.b.id }
            resource "aws_virtual_machine" "b" { name = "b" network_id = aws_virtual_machine.a.id }
            "#,
        );
        let v = Oracle::default().fuzz(&m);
        assert!(v.confirms("ANA501"), "{v:?}");
    }

    #[test]
    fn alias_double_provision_is_reachable() {
        let m = manifest(
            r#"
            resource "aws_virtual_machine" "blue"  { name = "svc" }
            resource "aws_virtual_machine" "green" { name = "svc" }
            "#,
        );
        let v = Oracle::default().fuzz(&m);
        assert!(v.confirms("ANA502"), "{v:?}");
        assert!(!v.confirms("ANA503"), "one lock cannot deadlock: {v:?}");
    }

    #[test]
    fn inverted_lock_orders_deadlock_and_aligned_do_not() {
        let inverted = manifest(
            r#"
            resource "aws_virtual_machine" "a0" { name = "lock-one" }
            resource "aws_virtual_machine" "a1" {
              name       = "lock-two"
              network_id = aws_virtual_machine.a0.id
            }
            resource "aws_virtual_machine" "b0" { name = "lock-two" }
            resource "aws_virtual_machine" "b1" {
              name       = "lock-one"
              network_id = aws_virtual_machine.b0.id
            }
            "#,
        );
        let v = Oracle::default().fuzz(&inverted);
        assert!(v.confirms("ANA503"), "{v:?}");

        let aligned = manifest(
            r#"
            resource "aws_virtual_machine" "a0" { name = "lock-one" }
            resource "aws_virtual_machine" "a1" {
              name       = "lock-two"
              network_id = aws_virtual_machine.a0.id
            }
            resource "aws_virtual_machine" "b0" { name = "lock-one" }
            resource "aws_virtual_machine" "b1" {
              name       = "lock-two"
              network_id = aws_virtual_machine.b0.id
            }
            "#,
        );
        let v = Oracle::default().fuzz(&aligned);
        assert!(
            !v.confirms("ANA503"),
            "aligned orders must never deadlock: {v:?}"
        );
    }

    #[test]
    fn cbd_replace_self_race_is_reachable() {
        let m = manifest(
            r#"
            resource "aws_virtual_machine" "pin" {
              name = "singleton"
              lifecycle { create_before_destroy = true }
            }
            "#,
        );
        let v = Oracle::default().fuzz(&m);
        assert!(v.confirms("ANA504"), "{v:?}");
    }

    #[test]
    fn verdict_is_seed_deterministic() {
        let m = manifest(
            r#"
            resource "aws_virtual_machine" "a" { name = "x" network_id = aws_virtual_machine.b.id }
            resource "aws_virtual_machine" "b" { name = "x" network_id = aws_virtual_machine.a.id }
            "#,
        );
        let o = Oracle::default();
        assert_eq!(o.fuzz(&m), o.fuzz(&m));
        // a different seed may differ in counts but not in reachability
        let other = Oracle {
            seed: 7,
            schedules: 64,
        };
        let v = other.fuzz(&m);
        assert!(v.confirms("ANA501") && v.confirms("ANA502"), "{v:?}");
    }
}
