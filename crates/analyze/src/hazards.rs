//! Plan-graph hazard analysis.
//!
//! The planner builds a [`cloudless_graph::Dag`], which is acyclic *by
//! construction*: `Plan::build` silently drops any edge that would close a
//! cycle, so a program whose blocks reference each other circularly plans
//! "successfully" and then fails (or mis-orders) at apply time. The same
//! goes for write-write conflicts — two blocks managing the same cloud-side
//! entity race each other under a parallel strategy — and for dangling
//! dependencies on blocks that expand to zero instances. This pass builds
//! the *block-level* dependency digraph (before expansion) with
//! [`cloudless_graph::cycles::Digraph`], which, unlike `Dag`, can represent
//! and report cycles.

use std::collections::{BTreeMap, HashMap};

use cloudless_graph::cycles::Digraph;
use cloudless_hcl::ast::RefKind;
use cloudless_hcl::program::{Program, ResourceBlock};
use cloudless_hcl::Folded;
use cloudless_types::{Span, Value};

use crate::alias::ClaimKey;
use crate::dataflow::{block_exprs, FoldEnv};
use crate::report::Sink;

/// Attributes that name the cloud-side entity a resource manages. Two
/// blocks of the same type agreeing on one of these manage the same thing.
pub const IDENTITY_ATTRS: &[&str] = &["name", "bucket"];

/// Whether the block's `count` folds to exactly 0: it expands to nothing,
/// so it claims no identity (ANA402) and every edge into it dangles
/// (ANA403).
pub(crate) fn count_folds_zero(r: &ResourceBlock, env: &FoldEnv) -> bool {
    r.count
        .as_ref()
        .is_some_and(|c| matches!(env.fold(c), Folded::Known(Value::Num(x)) if x == 0.0))
}

/// The identities a block claims before expansion (the ANA402 domain): one
/// key per identity attribute that folds to a constant string. Under
/// `count`/`for_each` the fold has no iteration binding, so a `Known`
/// result means the name does *not* vary per instance — exactly the
/// conflicting case. A count-disabled block claims nothing.
pub(crate) fn block_claims<'a>(
    r: &'a ResourceBlock,
    env: &'a FoldEnv,
) -> impl Iterator<Item = ClaimKey<'a>> {
    let claiming = r.attrs.iter().filter(|_| !count_folds_zero(r, env));
    claiming.filter_map(|a| {
        let attr = IDENTITY_ATTRS.iter().find(|id| **id == a.name)?;
        match env.fold(&a.value) {
            Folded::Known(Value::Str(s)) => Some((r.rtype.as_str(), *attr, s.into())),
            _ => None,
        }
    })
}

pub(crate) fn pass_hazards(p: &Program, env: &FoldEnv, sink: &mut Sink<'_>) {
    let file = &p.filename;
    let n = p.resources.len();

    // (type, name) -> first declaring block, matching the linear-scan
    // semantics this index replaces (duplicates keep the earliest index).
    let mut block_index: HashMap<(&str, &str), usize> = HashMap::with_capacity(n);
    for (i, b) in p.resources.iter().enumerate() {
        block_index
            .entry((b.rtype.as_str(), b.name.as_str()))
            .or_insert(i);
    }

    // --- block-level dependency digraph: edge dependency -> dependent,
    // self-loops left out (ANA404 reports them, ANA401 ignores them)
    let mut g = Digraph::new(n);
    // (from, to) -> first span that creates the edge, for reporting;
    // self-loops included
    let mut edge_spans: BTreeMap<(usize, usize), Span> = BTreeMap::new();
    for (i, r) in p.resources.iter().enumerate() {
        let mut note = |rtype: &str, name: &str, span: Span| {
            if let Some(&j) = block_index.get(&(rtype, name)) {
                if j != i {
                    g.add_edge(j, i);
                }
                edge_spans.entry((j, i)).or_insert(span);
            }
        };
        for expr in block_exprs(r) {
            expr.walk_refs(&mut |read| {
                if let RefKind::Resource { rtype, name } = read.reference.kind() {
                    note(rtype, name, read.span);
                }
            });
        }
        for dep in &r.depends_on {
            if let [rtype, name, ..] = dep.parts.as_slice() {
                note(rtype, name, r.span);
            }
        }
    }

    // --- ANA404 self-reference (report before the generic cycle finding)
    for (i, r) in p.resources.iter().enumerate() {
        if let Some(&span) = edge_spans.get(&(i, i)) {
            sink.emit(
                "ANA404",
                file,
                span,
                format!(
                    "{}.{} references its own attributes; the value can never resolve",
                    r.rtype, r.name
                ),
                Some("break the self-dependency (use a variable or a second resource)"),
            );
        }
    }

    // --- ANA401 reference cycle (pure self-loops are reported already)
    if let Some(cycle) = g.find_cycle() {
        let names: Vec<String> = cycle
            .iter()
            .map(|&i| format!("{}.{}", p.resources[i].rtype, p.resources[i].name))
            .collect();
        let first = cycle[0];
        let span = edge_spans
            .get(&(*cycle.last().expect("cycle nonempty"), first))
            .copied()
            .unwrap_or(p.resources[first].span);
        sink.emit(
            "ANA401",
            file,
            span,
            format!(
                "dependency cycle: {} -> {}; the planner silently drops one edge and the apply fails or runs out of order",
                names.join(" -> "),
                names[0]
            ),
            Some("break the cycle with a third resource or restructure the references"),
        );
    }

    // --- ANA403 dangling dependency: edges into blocks whose count folds
    // to 0. The map is in (from, to) order, so a block's out-edges are one
    // range of it.
    for (i, r) in p.resources.iter().enumerate() {
        if !count_folds_zero(r, env) {
            continue;
        }
        for ((_, to), span) in edge_spans.range((i, 0)..(i + 1, 0)) {
            #[cfg(test)]
            tests::EDGES_READ.with(|read| read.set(read.get() + 1));
            if *to == i {
                continue;
            }
            let d = &p.resources[*to];
            sink.emit(
                "ANA403",
                file,
                *span,
                format!(
                    "{}.{} depends on {}.{}, whose count folds to 0 — no instance will ever exist to resolve it",
                    d.rtype, d.name, r.rtype, r.name
                ),
                Some("guard the dependent with the same count, or make the count non-zero"),
            );
        }
    }

    // --- ANA402 write-write conflict: same (type, identity attr value)
    let mut claims: Vec<(ClaimKey<'_>, usize)> = Vec::new();
    for (i, r) in p.resources.iter().enumerate() {
        claims.extend(block_claims(r, env).map(|key| (key, i)));
    }
    // stable: the holders of a key stay in declaration order
    claims.sort_by(|(a, _), (b, _)| a.cmp(b));
    for holders in claims.chunk_by(|(a, _), (b, _)| a == b) {
        let [((rtype, attr, value), _), (_, second), ..] = holders else {
            continue;
        };
        let names: Vec<String> = holders
            .iter()
            .map(|&(_, i)| format!("{}.{}", p.resources[i].rtype, p.resources[i].name))
            .collect();
        let second = &p.resources[*second];
        sink.emit(
            "ANA402",
            file,
            second.span,
            format!(
                "{} manage the same cloud-side entity ({rtype} with {attr} = {value:?}); a parallel apply races them",
                names.join(" and ")
            ),
            Some("merge the blocks or give each a distinct identity"),
        );
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::fmt::Write;

    use cloudless_hcl::program::ModuleLibrary;

    use crate::{lint_source, LintConfig};

    thread_local! {
        /// The edges the ANA403 walk has read on this thread.
        pub(super) static EDGES_READ: Cell<usize> = const { Cell::new(0) };
    }

    /// The dangling-dependency walk reads each disabled block's own
    /// out-edges, not every edge of the program once per disabled block.
    #[test]
    fn dangling_dependencies_read_each_edge_once() {
        const BLOCKS: usize = 1_000;
        let mut src = String::new();
        for i in 0..BLOCKS {
            let _ = writeln!(
                src,
                "resource \"aws_network\" \"n{i}\" {{\n  count = 0\n  name  = \"n{i}\"\n}}"
            );
            let _ = writeln!(
                src,
                "resource \"aws_virtual_machine\" \"v{i}\" {{\n  name       = \"v{i}\"\n  \
                 network_id = aws_network.n{i}.id\n}}"
            );
        }
        EDGES_READ.with(|read| read.set(0));
        let report = lint_source(
            &src,
            "main.tf",
            &ModuleLibrary::new(),
            &LintConfig::default(),
        );
        let findings = report.expect("parses").findings;
        let dangling = findings.iter().filter(|f| f.diagnostic.code == "ANA403");
        assert_eq!(dangling.count(), BLOCKS);
        assert_eq!(EDGES_READ.with(Cell::get), BLOCKS);
    }
}
