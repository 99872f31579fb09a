//! Whole-program concurrency analysis over the *expanded* manifest.
//!
//! The block-level hazard pass ([`crate::hazards`]) sees the program before
//! expansion: it reasons about resource *blocks* and folded constants. This
//! module reasons about the world the executor actually schedules — the
//! expanded instances and the sealed CSR plan DAG — and asks the questions
//! the multi-tenant converge daemon needs answered before it may run
//! applies concurrently:
//!
//! * **happens-before** (`pass_happens_before`, ANA501): every read of a
//!   computed attribute must be ordered after its producing write by a
//!   declared edge that *survives sealing*. The planner silently drops
//!   cycle-closing edges ([`DagBuilder::seal_breaking_cycles`]); a dropped
//!   edge is precisely a read the wave scheduler may execute concurrently
//!   with (or before) its writer.
//! * **aliasing / write-write** ([`crate::alias`], ANA502/ANA504): two
//!   instances whose identity attributes resolve to the same cloud-side
//!   object are a write-write race under any parallel strategy.
//! * **lock order** ([`crate::lockorder`], ANA503): per-resource lock
//!   acquisition order is the wave schedule; two independent estates that
//!   acquire shared (aliased) locks in opposite orders deadlock when
//!   converged concurrently.
//! * **blast radius** ([`crate::blast`], ANA505): `graph::impact` over the
//!   instance DAG, ranked by impacted-descendant count.
//!
//! All passes are O(V + E) up to hashing; [`analyze_manifest`] is the
//! single entry point the converge gate, the `cloudless analyze` CLI and
//! the E18 harness share.

use std::collections::HashMap;
use std::time::Duration;

use cloudless_graph::{Dag, DagBuilder, NodeId};
use cloudless_hcl::program::{is_resource_ref, Manifest, ResourceInstance};
use cloudless_types::ResourceAddr;

use crate::report::{LintReport, Sink};
use crate::rules::LintConfig;

/// The instance-level dependency graph, sealed exactly the way
/// `Plan::build` seals it: cycle-closing edges are dropped and remembered.
pub struct InstGraph<'m> {
    /// Instance position ↔ [`NodeId`] is the identity mapping.
    pub dag: Dag<usize>,
    /// Edges the sealing dropped to stay acyclic, as `(producer, reader)`
    /// instance positions — the happens-before violations.
    pub dropped: Vec<(usize, usize)>,
    /// Address → instance position, the addresses being the manifest's.
    pub index: HashMap<&'m ResourceAddr, usize>,
    /// Raw declared-edge count before dedup/sealing.
    pub declared_edges: usize,
}

impl<'m> InstGraph<'m> {
    /// Build from the manifest's declared `depends_on` sets. O(V + E).
    pub fn build(manifest: &'m Manifest) -> InstGraph<'m> {
        let n = manifest.instances.len();
        let mut index: HashMap<&ResourceAddr, usize> = HashMap::with_capacity(n);
        for (i, inst) in manifest.instances.iter().enumerate() {
            index.insert(&inst.addr, i);
        }
        let mut builder: DagBuilder<usize> = DagBuilder::new();
        let nodes: Vec<NodeId> = (0..n).map(|i| builder.add_node(i)).collect();
        let mut declared_edges = 0usize;
        for (i, inst) in manifest.instances.iter().enumerate() {
            for dep in &inst.depends_on {
                if let Some(&j) = index.get(dep) {
                    if j != i {
                        builder.add_edge(nodes[j], nodes[i]).ok();
                        declared_edges += 1;
                    }
                }
            }
        }
        let (dag, dropped) = builder.seal_breaking_cycles();
        InstGraph {
            dag,
            dropped: dropped
                .into_iter()
                .map(|(f, t)| (f.index(), t.index()))
                .collect(),
            index,
            declared_edges,
        }
    }
}

/// Short display form of an instance address.
pub(crate) fn addr_str(inst: &ResourceInstance) -> String {
    inst.addr.to_string()
}

/// ANA501 — happens-before: reads of computed attributes must be ordered
/// after their producing writes by an edge that survives sealing.
///
/// Two detectors share the graph:
/// 1. every sealed-away edge `(producer, reader)` is reported (the read
///    *declared* the ordering but the planner cannot honor it);
/// 2. every deferred-attribute reference whose producer is resolvable but
///    missing from the reader's declared `depends_on` is reported (the
///    read never declared the ordering at all).
///
/// Findings are deduplicated per `(producer block, reader block)` pair so
/// a counted block contributes one diagnostic, not one per instance.
pub(crate) fn pass_happens_before(manifest: &Manifest, g: &InstGraph<'_>, sink: &mut Sink<'_>) {
    // (producer block key, reader block key) already reported
    let mut seen: std::collections::BTreeSet<(String, String)> = std::collections::BTreeSet::new();
    let block_key = |inst: &ResourceInstance| {
        format!(
            "{}.{}.{}",
            inst.addr.module_path.join("."),
            inst.addr.rtype.as_str(),
            inst.addr.name
        )
    };

    // Detector 1: dropped edges.
    for &(w, r) in &g.dropped {
        let writer = &manifest.instances[w];
        let reader = &manifest.instances[r];
        if !seen.insert((block_key(writer), block_key(reader))) {
            continue;
        }
        // Localize on the reader's deferred attribute that waits on the
        // writer, falling back to the reader's block span.
        let span = reader
            .deferred
            .iter()
            .find(|d| {
                d.waiting_on.iter().any(|dep| {
                    is_resource_ref(dep)
                        && dep.parts.len() >= 2
                        && dep.parts[0] == writer.addr.rtype.as_str()
                        && dep.parts[1] == writer.addr.name
                })
            })
            .map(|d| d.span)
            .unwrap_or(reader.span);
        sink.emit(
            "ANA501",
            &reader.file,
            span,
            format!(
                "{} reads computed attributes of {} but the ordering edge was dropped to break a dependency cycle; the wave scheduler may run both concurrently or in either order",
                addr_str(reader),
                addr_str(writer),
            ),
            Some("break the cycle so every read is ordered after its producing write"),
        );
    }

    // Detector 2: provenance reads with no declared edge at all. The
    // expander derives `depends_on` from the same references, so this only
    // fires when the two disagree (e.g. an indexed reference targeting an
    // instance outside the declared set) — cheap insurance, O(reads).
    for (i, reader) in manifest.instances.iter().enumerate() {
        for d in &reader.deferred {
            for dep in &d.waiting_on {
                if !is_resource_ref(dep) || dep.parts.len() < 2 {
                    continue;
                }
                let ordered = reader.depends_on.iter().any(|a| {
                    a.rtype.as_str() == dep.parts[0]
                        && a.name == dep.parts[1]
                        && a.module_path == reader.addr.module_path
                });
                // Is there any producer instance to order after?
                let producer = manifest.instances.iter().position(|p| {
                    p.addr.rtype.as_str() == dep.parts[0]
                        && p.addr.name == dep.parts[1]
                        && p.addr.module_path == reader.addr.module_path
                });
                let Some(p) = producer else { continue };
                if ordered || p == i {
                    continue;
                }
                let writer = &manifest.instances[p];
                if !seen.insert((block_key(writer), block_key(reader))) {
                    continue;
                }
                sink.emit(
                    "ANA501",
                    &reader.file,
                    d.span,
                    format!(
                        "{} reads {} of {} with no declared dependency edge; nothing orders the read after the producing write",
                        addr_str(reader),
                        d.name,
                        addr_str(writer),
                    ),
                    Some("add the missing depends_on (or reference) so the planner can order the pair"),
                );
            }
        }
    }
}

/// What one [`analyze_manifest`] run did, for `analyze.*` metrics and the
/// E18 harness.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisStats {
    /// Passes executed (happens-before, alias, lock-order, blast when
    /// requested).
    pub passes: u32,
    pub instances: usize,
    /// Declared dependency edges walked.
    pub edges: usize,
    /// Edges the sealing dropped (each is an ANA501).
    pub dropped_edges: usize,
    /// Wall time of the whole run.
    pub wall: Duration,
}

/// Result of a whole-program concurrency analysis.
pub struct AnalysisOutcome {
    pub report: LintReport,
    pub stats: AnalysisStats,
}

/// Blast-radius request: what counts as the edit set.
pub enum BlastRequest {
    /// Rank the impact of exactly these changed addresses (the plan's
    /// non-noop set, or a hypothetical edit).
    EditSet(Vec<ResourceAddr>),
    /// No edit in hand: report the `top` highest-impact instances as a
    /// what-if ranking.
    WhatIf { top: usize },
}

/// Run every concurrency pass over an expanded manifest.
///
/// `blast` is opt-in because its findings are informational notes: the
/// converge gate runs with `None` (a clean program stays finding-free and
/// memoizable), while `cloudless analyze` and the E18 harness request it.
pub fn analyze_manifest(
    manifest: &Manifest,
    config: &LintConfig,
    blast: Option<&BlastRequest>,
) -> AnalysisOutcome {
    let t0 = std::time::Instant::now();
    let mut sink = Sink::new(config);
    let g = InstGraph::build(manifest);

    pass_happens_before(manifest, &g, &mut sink);
    let aliases = crate::alias::pass_alias(manifest, &mut sink);
    crate::alias::pass_replace_self_race(manifest, &mut sink);
    crate::lockorder::pass_lockorder(manifest, &g, &aliases, &mut sink);
    let mut passes = 3;
    if let Some(req) = blast {
        crate::blast::pass_blast(manifest, &g, req, &mut sink);
        passes += 1;
    }

    AnalysisOutcome {
        report: sink.report,
        stats: AnalysisStats {
            passes,
            instances: manifest.instances.len(),
            edges: g.declared_edges,
            dropped_edges: g.dropped.len(),
            wall: t0.elapsed(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_hcl::program::ModuleLibrary;

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
        let out = analyze_manifest(m, &LintConfig::default(), None);
        out.report
            .findings
            .iter()
            .map(|f| f.diagnostic.code.clone())
            .collect()
    }

    #[test]
    fn clean_chain_has_no_findings() {
        let m = manifest(
            r#"
            resource "aws_network" "net" { name = "net" cidr_block = "10.0.0.0/16" }
            resource "aws_virtual_machine" "vm" {
              name       = "vm"
              network_id = aws_network.net.id
            }
            "#,
        );
        assert!(codes(&m).is_empty(), "{:?}", codes(&m));
    }

    #[test]
    fn dropped_cycle_edge_is_a_happens_before_race() {
        let m = manifest(
            r#"
            resource "aws_virtual_machine" "a" { name = "a" network_id = aws_virtual_machine.b.id }
            resource "aws_virtual_machine" "b" { name = "b" network_id = aws_virtual_machine.a.id }
            "#,
        );
        let g = InstGraph::build(&m);
        assert_eq!(g.dropped.len(), 1, "one edge must be sealed away");
        assert!(codes(&m).contains(&"ANA501".to_owned()), "{:?}", codes(&m));
    }

    #[test]
    fn counted_cycle_reports_once_per_block_pair() {
        let m = manifest(
            r#"
            resource "aws_virtual_machine" "a" {
              count      = 3
              name       = "a-${count.index}"
              network_id = aws_virtual_machine.b[0].id
            }
            resource "aws_virtual_machine" "b" {
              count      = 3
              name       = "b-${count.index}"
              network_id = aws_virtual_machine.a[0].id
            }
            "#,
        );
        let c = codes(&m);
        let races = c.iter().filter(|x| *x == "ANA501").count();
        assert!(races >= 1, "{c:?}");
        assert!(races <= 2, "dedup per block pair: {c:?}");
    }

    #[test]
    fn stats_count_graph_shape() {
        let m = manifest(
            r#"
            resource "aws_network" "net" { name = "net" cidr_block = "10.0.0.0/16" }
            resource "aws_virtual_machine" "vm" {
              name       = "vm"
              network_id = aws_network.net.id
            }
            "#,
        );
        let out = analyze_manifest(&m, &LintConfig::default(), None);
        assert_eq!(out.stats.instances, 2);
        assert_eq!(out.stats.edges, 1);
        assert_eq!(out.stats.dropped_edges, 0);
        assert_eq!(out.stats.passes, 3);
    }
}
