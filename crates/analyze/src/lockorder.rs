//! Lock-order analysis: deadlock detection across hypothetical concurrent
//! converges.
//!
//! The executor (E3) takes a per-resource lock before mutating a cloud
//! object, and the wave schedule fixes the order those locks are acquired
//! within one converge: wave 0's locks strictly before wave 1's, and
//! within a wave, manifest order. Two *independent* estates — weakly
//! connected components of the instance graph, the units a multi-tenant
//! daemon may converge concurrently — only contend when they lock the
//! same cloud object, i.e. when an alias collision ([`crate::alias`])
//! spans both. If estate A acquires shared locks `k1` then `k2` while
//! estate B acquires `k2` then `k1`, the classic hold-and-wait cycle is
//! reachable; ANA503 reports the pair with both witness orders.
//!
//! A deadlock here is a compound defect: it needs at least two aliased
//! identities crossing the same two estates with inverted wave orders.
//! The pass is O(V + E + A log A) where A is the (tiny) alias set.

use std::collections::BTreeMap;

use cloudless_graph::levels;
use cloudless_hcl::program::Manifest;

use crate::alias::AliasIndex;
use crate::concurrency::{addr_str, InstGraph};
use crate::report::Sink;

/// Disjoint-set over instance positions; components are the estates.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins, so a component is named by
            // its lowest instance position.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// ANA503 — lock-order inversion between two estates.
pub(crate) fn pass_lockorder(
    manifest: &Manifest,
    g: &InstGraph<'_>,
    aliases: &AliasIndex<'_>,
    sink: &mut Sink<'_>,
) {
    // Deadlock needs two locks shared across estates; with fewer than two
    // collisions there is nothing to invert.
    if aliases.collisions.len() < 2 || manifest.instances.len() < 2 {
        return;
    }

    // Estates: weakly-connected components over sealed + dropped edges
    // (a dropped edge still ties the pair into one converge).
    let n = manifest.instances.len();
    let mut uf = UnionFind::new(n);
    for id in g.dag.node_ids() {
        for &s in g.dag.successors(id) {
            uf.union(id.index(), s.index());
        }
    }
    for &(a, b) in &g.dropped {
        uf.union(a, b);
    }

    // Wave schedule: the lock-acquisition clock. The sealed DAG is
    // acyclic by construction, so `levels` cannot fail.
    let waves = levels(&g.dag).expect("sealed dag is acyclic");
    let mut wave_of = vec![0usize; n];
    for (w, nodes) in waves.iter().enumerate() {
        for id in nodes {
            wave_of[id.index()] = w;
        }
    }
    // For every shared lock key, when does each estate first acquire it?
    // key -> estate -> (wave, instance pos) of the earliest claimer.
    let mut acq: BTreeMap<&crate::alias::ClaimKey, BTreeMap<usize, (usize, usize)>> =
        BTreeMap::new();
    for (key, holders) in &aliases.collisions {
        let per_estate = acq.entry(key).or_default();
        for &h in holders {
            let estate = uf.find(h);
            let at = (wave_of[h], h);
            per_estate
                .entry(estate)
                .and_modify(|cur| {
                    if at < *cur {
                        *cur = at;
                    }
                })
                .or_insert(at);
        }
    }

    // Pair up estates that share a key; collect each pair's shared keys.
    let mut shared: BTreeMap<(usize, usize), Vec<&crate::alias::ClaimKey>> = BTreeMap::new();
    for (key, per_estate) in &acq {
        if per_estate.len() < 2 {
            continue;
        }
        let estates: Vec<usize> = per_estate.keys().copied().collect();
        for i in 0..estates.len() {
            for j in i + 1..estates.len() {
                shared
                    .entry((estates[i], estates[j]))
                    .or_default()
                    .push(key);
            }
        }
    }

    for ((ea, eb), keys) in &shared {
        if keys.len() < 2 {
            continue;
        }
        // Order the shared keys by estate A's acquisition clock, then look
        // for an adjacent inversion in estate B's clock.
        // (key, estate-A clock, estate-B clock); a clock is (wave, pos).
        type Acq<'k> = (
            &'k crate::alias::ClaimKey<'k>,
            (usize, usize),
            (usize, usize),
        );
        let mut ordered: Vec<Acq<'_>> = keys.iter().map(|k| (*k, acq[k][ea], acq[k][eb])).collect();
        ordered.sort_by(|x, y| (x.1, x.0).cmp(&(y.1, y.0)));
        let inverted = ordered
            .windows(2)
            .find(|w| w[0].1 < w[1].1 && w[0].2 > w[1].2);
        let Some(w) = inverted else { continue };
        let (k1, a1, b1) = &w[0];
        let (k2, a2, b2) = &w[1];
        let fmt_key = |k: &crate::alias::ClaimKey<'_>| format!("{}[{}={:?}]", k.0, k.1, k.2);
        // Localize on estate A's earliest claimer of the first inverted key.
        let witness = &manifest.instances[a1.1];
        sink.emit(
            "ANA503",
            &witness.file,
            witness.span,
            format!(
                "concurrent converges can deadlock: estate of {} acquires {} (wave {}) then {} (wave {}), while estate of {} acquires {} (wave {}) then {} (wave {})",
                addr_str(witness),
                fmt_key(k1),
                a1.0,
                fmt_key(k2),
                a2.0,
                addr_str(&manifest.instances[b2.1]),
                fmt_key(k2),
                b2.0,
                fmt_key(k1),
                b1.0,
            ),
            Some("make both estates claim shared identities in the same order, or merge them into one estate"),
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::concurrency::analyze_manifest;
    use crate::rules::LintConfig;
    use cloudless_hcl::program::{Manifest, ModuleLibrary};

    fn manifest(src: &str) -> Manifest {
        let p = cloudless_hcl::load(src, "main.tf").expect("parses");
        cloudless_hcl::program::expand(
            &p,
            &std::collections::BTreeMap::new(),
            &ModuleLibrary::new(),
            &cloudless_hcl::eval::DeferAll,
        )
        .expect("expands")
    }

    fn codes(m: &Manifest) -> Vec<String> {
        analyze_manifest(m, &LintConfig::default(), None)
            .report
            .findings
            .iter()
            .map(|f| f.diagnostic.code.clone())
            .collect()
    }

    /// Estate A: first -> second (locks L1 at wave 0, L2 at wave 1).
    /// Estate B: other_first -> other_second (locks L2 at wave 0, L1 at
    /// wave 1). Opposite orders on two shared locks: deadlock.
    #[test]
    fn inverted_orders_across_estates_deadlock() {
        let m = manifest(
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
        let c = codes(&m);
        assert_eq!(c.iter().filter(|x| *x == "ANA503").count(), 1, "{c:?}");
        // The aliases themselves are still write-write findings.
        assert_eq!(c.iter().filter(|x| *x == "ANA502").count(), 2, "{c:?}");
    }

    /// Same shared locks but acquired in the SAME order by both estates:
    /// aliasing findings, no deadlock.
    #[test]
    fn aligned_orders_do_not_deadlock() {
        let m = manifest(
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
        let c = codes(&m);
        assert_eq!(c.iter().filter(|x| *x == "ANA503").count(), 0, "{c:?}");
        assert_eq!(c.iter().filter(|x| *x == "ANA502").count(), 2, "{c:?}");
    }

    /// One shared lock cannot deadlock (no hold-and-wait on a single key).
    #[test]
    fn single_shared_lock_is_not_a_deadlock() {
        let m = manifest(
            r#"
            resource "aws_virtual_machine" "a0" { name = "only-lock" }
            resource "aws_virtual_machine" "b0" { name = "only-lock" }
            "#,
        );
        let c = codes(&m);
        assert_eq!(c.iter().filter(|x| *x == "ANA503").count(), 0, "{c:?}");
        assert_eq!(c.iter().filter(|x| *x == "ANA502").count(), 1, "{c:?}");
    }
}
