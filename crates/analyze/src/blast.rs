//! Blast-radius reporting: how far would an edit propagate?
//!
//! Reuses [`cloudless_graph::impact`] over the instance DAG. For a known
//! edit set, one aggregate note plus a ranked note per changed root; with
//! no edit in hand, a what-if ranking of the highest-fanout instances.
//! Findings are [`cloudless_hcl::Severity::Note`]s (ANA505) — informational, never a
//! gate failure — which is why the converge gate runs with blast off and
//! `cloudless analyze --blast` / the E18 harness opt in.
//!
//! Cost: `EditSet` is one O(V+E) impact computation; `WhatIf { top }` is
//! `top` bounded BFS walks, still O(top · (V+E)) worst case with `top`
//! a small constant.

use cloudless_graph::{impact, ImpactScope, NodeId};
use cloudless_hcl::program::Manifest;

use crate::concurrency::{addr_str, BlastRequest, InstGraph};
use crate::report::Sink;

pub(crate) fn pass_blast(
    manifest: &Manifest,
    g: &InstGraph<'_>,
    req: &BlastRequest,
    sink: &mut Sink<'_>,
) {
    let total = manifest.instances.len().max(1);
    let pct = |n: usize| (n * 100) / total;
    match req {
        BlastRequest::EditSet(addrs) => {
            let roots: Vec<NodeId> = addrs
                .iter()
                .filter_map(|a| g.index.get(a))
                .map(|&i| NodeId(i as u32))
                .collect();
            if roots.is_empty() {
                return;
            }
            let scope = ImpactScope::compute(&g.dag, roots.iter().copied());
            // Aggregate first, anchored on the first changed root.
            let first = &manifest.instances[roots[0].index()];
            sink.emit(
                "ANA505",
                &first.file,
                first.span,
                format!(
                    "edit set of {} instance(s) forces {} through replan ({}% of the estate) and {} through a state re-read",
                    roots.len(),
                    scope.replan.len(),
                    pct(scope.replan.len()),
                    scope.reread.len(),
                ),
                None,
            );
            // Then one ranked note per changed root, largest radius first.
            let mut ranked: Vec<(usize, NodeId)> = roots
                .iter()
                .map(|&r| (impact::descendants(&g.dag, r).len(), r))
                .collect();
            ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.index().cmp(&b.1.index())));
            for (downs, root) in ranked {
                let inst = &manifest.instances[root.index()];
                sink.emit(
                    "ANA505",
                    &inst.file,
                    inst.span,
                    format!(
                        "changing {} impacts {} downstream instance(s) ({}% of the estate)",
                        addr_str(inst),
                        downs,
                        pct(downs),
                    ),
                    None,
                );
            }
        }
        BlastRequest::WhatIf { top } => {
            // Candidates by out-degree (cheap), then exact descendant
            // counts for the short list only.
            let mut cand: Vec<NodeId> = g.dag.node_ids().collect();
            cand.sort_by(|&a, &b| {
                g.dag
                    .out_degree(b)
                    .cmp(&g.dag.out_degree(a))
                    .then(a.index().cmp(&b.index()))
            });
            cand.truncate((top + 3).min(cand.len()));
            let mut ranked: Vec<(usize, NodeId)> = cand
                .into_iter()
                .map(|r| (impact::descendants(&g.dag, r).len(), r))
                .collect();
            ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.index().cmp(&b.1.index())));
            ranked.truncate(*top);
            for (downs, root) in ranked {
                if downs == 0 {
                    continue;
                }
                let inst = &manifest.instances[root.index()];
                sink.emit(
                    "ANA505",
                    &inst.file,
                    inst.span,
                    format!(
                        "what-if: changing {} would impact {} downstream instance(s) ({}% of the estate)",
                        addr_str(inst),
                        downs,
                        pct(downs),
                    ),
                    None,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrency::analyze_manifest;
    use crate::rules::LintConfig;
    use cloudless_hcl::program::{Manifest, ModuleLibrary};
    use cloudless_types::ResourceAddr;

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

    const CHAIN: &str = r#"
        resource "aws_network" "net" { name = "net" cidr_block = "10.0.0.0/16" }
        resource "aws_virtual_machine" "mid" {
          name       = "mid"
          network_id = aws_network.net.id
        }
        resource "aws_virtual_machine" "leaf" {
          name       = "leaf"
          network_id = aws_virtual_machine.mid.id
        }
        resource "aws_virtual_machine" "island" { name = "island" }
    "#;

    #[test]
    fn edit_set_reports_aggregate_and_per_root() {
        let m = manifest(CHAIN);
        let root: ResourceAddr = m
            .instances
            .iter()
            .find(|i| i.addr.name == "net")
            .unwrap()
            .addr
            .clone();
        let req = BlastRequest::EditSet(vec![root]);
        let out = analyze_manifest(&m, &LintConfig::default(), Some(&req));
        let blast: Vec<_> = out
            .report
            .findings
            .iter()
            .filter(|f| f.diagnostic.code == "ANA505")
            .collect();
        assert_eq!(blast.len(), 2, "aggregate + one root");
        assert!(blast[0].diagnostic.message.contains("3 through replan"));
        assert!(blast[1].diagnostic.message.contains("2 downstream"));
    }

    #[test]
    fn what_if_ranks_by_radius_and_skips_leaves() {
        let m = manifest(CHAIN);
        let req = BlastRequest::WhatIf { top: 8 };
        let out = analyze_manifest(&m, &LintConfig::default(), Some(&req));
        let msgs: Vec<&str> = out
            .report
            .findings
            .iter()
            .filter(|f| f.diagnostic.code == "ANA505")
            .map(|f| f.diagnostic.message.as_str())
            .collect();
        // net impacts 2, mid impacts 1; leaf and island impact 0 → absent.
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs[0].contains("net") && msgs[0].contains("2 downstream"));
        assert!(msgs[1].contains("mid") && msgs[1].contains("1 downstream"));
    }

    #[test]
    fn blast_is_opt_in() {
        let m = manifest(CHAIN);
        let out = analyze_manifest(&m, &LintConfig::default(), None);
        assert!(out.report.findings.is_empty());
        assert_eq!(out.stats.passes, 3);
    }
}
