//! Block-granular lint support for the incremental converge pipeline.
//!
//! The full lint ([`crate::lint_program`]) is whole-program: def-use needs
//! every declaration, hazards need the complete block digraph. But when a
//! *clean* program (no findings, nothing suppressed) receives an edit
//! confined to resource blocks — bodies edited, blocks added or removed —
//! the pipeline does not need the whole run again: it needs to know whether
//! the edit could have *introduced* a finding anywhere. This module answers
//! that question conservatively, and only by calling the rule fragments the
//! whole-program passes are themselves folds of — no rule is written twice:
//!
//! * [`LintEnv`] is the program-wide context the passes share (fold
//!   environment, taint sets, declared names), cached across edits; a
//!   [`DeclEdit`] stages the blocks an edit declares and retracts on top of
//!   it, and lands with [`LintEnv::apply`].
//! * [`block_is_clean`] re-runs every check that reads the block's own
//!   text — undeclared references (ANA103), count/port/CIDR folding
//!   (ANA201/202/203), taint sinks (ANA302), self-reference (ANA404) —
//!   and reports whether *zero* findings (and zero suppressions) result.
//! * [`block_refs`] extracts what a block references, for the verdicts no
//!   single block decides. Its dependency edges
//!   ([`BlockRefs::block_targets`]) are the block digraph: an edited block
//!   must keep them ([`BlockRefs::stable_under`]), an added one may only
//!   point at blocks declared before it, a removed one must have no
//!   dependent left — then the digraph gains no cycle and no dangling edge
//!   (ANA401/403). Its variable and local uses are holders the caller
//!   counts, [`outer_refs`] being the readers outside the blocks: a
//!   declaration whose last holder goes became unused (ANA101/102).
//! * [`LintEnv::block_claims`] is the write-write-conflict (ANA402) claim
//!   extractor, so the caller can maintain an identity-claims multiset
//!   across edits instead of rescanning every block.
//!
//! Soundness contract: if the cached full-program report was clean, the
//! edit touched only resource-block chunks, every edited or added block
//! passes [`block_is_clean`] under the staged declarations, the digraph
//! rules above hold, no edited block's count-folds-to-zero status changed
//! and no added block points at a count-disabled one, every use count stays
//! positive, and the claims multiset stays collision-free, then a cold full
//! lint of the edited program is also clean. Any doubt must fall back to
//! the full run.

use std::collections::BTreeSet;

use cloudless_hcl::program::{is_resource_ref, Program, ResourceBlock};

use crate::alias::ClaimKey;
use cloudless_hcl::ast::{Expr, Reference};

use crate::dataflow::{block_exprs, check_block_consts, outer_sites, walk_refs_scoped};
pub use crate::dataflow::{DeclEdit, LintEnv};
use crate::hazards;
use crate::report::Sink;
use crate::rules::LintConfig;

impl LintEnv {
    /// Whether the block's `count` folds to exactly 0 under the cached
    /// environment — the condition under which hazards skips its claims
    /// and flags inbound edges (ANA403).
    pub fn count_folds_zero(&self, rb: &ResourceBlock) -> bool {
        hazards::count_folds_zero(rb, &self.fold)
    }

    /// The identity claims this block makes before expansion: the ANA402
    /// extractor (see [`hazards`]).
    pub fn block_claims<'a>(&'a self, rb: &'a ResourceBlock) -> impl Iterator<Item = ClaimKey<'a>> {
        hazards::block_claims(rb, &self.fold)
    }
}

/// A `(type, name)` a reference names, borrowed from the reference.
pub type BlockName<'a> = (&'a str, &'a str);

/// What one block (or, from [`outer_refs`], everything outside the blocks)
/// references: the sets the caller's cross-block guards read (see the
/// module docs for the exact rules). The names are borrowed from the syntax
/// they were read off.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockRefs<'a> {
    /// Binding-blind resource references in attributes plus `depends_on`
    /// — exactly the dependency set the expander extracts, so equality
    /// means spliced instances keep identical `depends_on`.
    pub expand_deps: BTreeSet<BlockName<'a>>,
    /// Binding-aware two-part resource references in `count`/`for_each`/
    /// attributes plus `depends_on` — a superset of the hazard pass's edge
    /// sources, so equality means the block digraph is unchanged.
    pub hazard_refs: BTreeSet<BlockName<'a>>,
    /// Variables this block references (binding-aware).
    pub var_uses: BTreeSet<&'a str>,
    /// Locals this block references (binding-aware).
    pub local_uses: BTreeSet<&'a str>,
}

/// The `(type, name)` a reference of two parts or more starts with.
fn block_name(r: &Reference) -> Option<BlockName<'_>> {
    match r.parts.as_slice() {
        [rtype, name, ..] => Some((rtype, name)),
        _ => None,
    }
}

impl<'a> BlockRefs<'a> {
    /// Whether an edit that turns these references into `new` keeps the
    /// same dependency edges: block digraph and expansion dependency set
    /// unchanged.
    pub fn stable_under(&self, new: &BlockRefs<'_>) -> bool {
        self.expand_deps == new.expand_deps && self.hazard_refs == new.hazard_refs
    }

    /// Every `(type, name)` this block may have a dependency edge to: the
    /// expander's and the hazard pass's edge sources together (the ones
    /// that name no declared block are nobody's edge).
    pub fn block_targets(&self) -> impl Iterator<Item = BlockName<'a>> + '_ {
        self.expand_deps.union(&self.hazard_refs).copied()
    }

    /// The binding-aware walk the lint passes use, over one expression.
    fn note_scoped(&mut self, expr: &'a Expr) {
        let mut bound = Vec::new();
        walk_refs_scoped(expr, &mut bound, &mut |r: &'a Reference, _| {
            match (r.root(), r.parts.get(1)) {
                ("var", Some(n)) => {
                    self.var_uses.insert(n);
                }
                ("local", Some(n)) => {
                    self.local_uses.insert(n);
                }
                _ => {}
            }
            if is_resource_ref(r) {
                self.hazard_refs.extend(block_name(r));
            }
        });
    }
}

/// Extract [`BlockRefs`] from one resource block.
pub fn block_refs(rb: &ResourceBlock) -> BlockRefs<'_> {
    let mut out = BlockRefs::default();
    // Expansion deps: same walker the expander uses (binding-blind).
    for a in &rb.attrs {
        a.value.walk_refs(&mut |r, _| {
            if is_resource_ref(r) {
                out.expand_deps.extend(block_name(r));
            }
        });
    }
    for d in &rb.depends_on {
        out.expand_deps.extend(block_name(d));
        out.hazard_refs.extend(block_name(d));
    }
    // Hazard edges and var/local uses: the binding-aware walker the lint
    // passes use, over the same sites.
    for expr in block_exprs(rb) {
        out.note_scoped(expr);
    }
    out
}

/// What the expression sites *outside* the resource blocks reference
/// (variable defaults, locals, providers, data sources, module inputs,
/// outputs): the uses and the resource references no block edit can touch.
/// They expand to nothing, so `expand_deps` stays empty.
pub fn outer_refs(p: &Program) -> BlockRefs<'_> {
    let mut out = BlockRefs::default();
    for (expr, _) in outer_sites(p) {
        out.note_scoped(expr);
    }
    out
}

/// Re-run every block-local lint check against `rb` (whose references are
/// `refs`), with the blocks `edit` stages declared and retracted, and
/// report whether the block is finding-free — and suppression-free: an
/// allow-listed finding still forces the caller onto the full path, because
/// the full run would change the report's `suppressed` count.
pub fn block_is_clean(
    p: &Program,
    rb: &ResourceBlock,
    refs: &BlockRefs<'_>,
    env: &LintEnv,
    edit: &DeclEdit,
    config: &LintConfig,
) -> bool {
    // ANA404: a reference to the block's own (type, name) can never
    // resolve. (ANA401/403 are covered by the caller's edge-stability
    // guard; the self-loop is the one hazard an edit can introduce while
    // keeping the *other* blocks' edges intact, so check it here.)
    if refs.hazard_refs.contains(&(&*rb.rtype, &*rb.name)) {
        return false;
    }

    // ANA103: undeclared references (only the verdict matters).
    let mut declared = rb.depends_on.iter().all(|d| env.decls.has_block(d, edit));
    for expr in block_exprs(rb) {
        let mut bound = Vec::new();
        walk_refs_scoped(expr, &mut bound, &mut |r, _| {
            declared &= env.decls.undeclared(r, edit).is_none();
        });
    }
    if !declared {
        return false;
    }

    // ANA201/202/203: fold and interval checks for this block.
    let mut sink = Sink::new(config);
    check_block_consts(rb, p, &env.fold, &p.filename, &mut sink);

    // ANA302: sensitive values flowing into logged plaintext attributes.
    sink.report.findings.is_empty()
        && sink.report.suppressed == 0
        && env.taint.leaks(rb).next().is_none()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(src: &str) -> Program {
        cloudless_hcl::load(src, "main.tf").expect("parses")
    }

    fn clean(p: &Program, rb: &ResourceBlock, env: &LintEnv) -> bool {
        let as_declared = DeclEdit::default();
        block_is_clean(
            p,
            rb,
            &block_refs(rb),
            env,
            &as_declared,
            &LintConfig::default(),
        )
    }

    const CLEAN: &str = r#"
        variable "region" { default = "us-east-1" }
        locals { prefix = "app" }
        resource "aws_s3_bucket" "b" {
          bucket = "${local.prefix}-logs"
          region = var.region
        }
        resource "aws_virtual_machine" "vm" {
          name       = "web"
          network_id = aws_s3_bucket.b.id
        }
        output "bucket" { value = aws_s3_bucket.b.bucket }
    "#;

    #[test]
    fn clean_blocks_are_clean() {
        let p = program(CLEAN);
        let env = LintEnv::build(&p);
        for rb in &p.resources {
            assert!(clean(&p, rb, &env), "{}.{}", rb.rtype, rb.name);
        }
    }

    #[test]
    fn undeclared_reference_is_dirty() {
        let p = program(CLEAN);
        let env = LintEnv::build(&p);
        let edited = program(&CLEAN.replace("var.region", "var.typo"));
        assert!(!clean(&p, &edited.resources[0], &env));
    }

    #[test]
    fn out_of_range_port_is_dirty() {
        let p = program(CLEAN);
        let env = LintEnv::build(&p);
        let edited = program(
            r#"resource "aws_security_group" "sg" { name = "sg" ingress { port = 70000 } }"#,
        );
        assert!(!clean(&p, &edited.resources[0], &env));
    }

    #[test]
    fn self_reference_is_dirty() {
        let p = program(CLEAN);
        let env = LintEnv::build(&p);
        let edited = program(r#"resource "aws_s3_bucket" "b" { bucket = aws_s3_bucket.b.bucket }"#);
        assert!(!clean(&p, &edited.resources[0], &env));
    }

    #[test]
    fn tainted_sink_is_dirty() {
        let src = r#"
            variable "pw" { default = "x" sensitive = true }
            resource "aws_virtual_machine" "vm" { name = "vm" }
            resource "aws_db_instance" "db" { name = "db" password = var.pw }
        "#;
        let p = program(src);
        let env = LintEnv::build(&p);
        assert!(clean(&p, &p.resources[1], &env));
        let edited = program(&src.replace("name = \"vm\"", "name = var.pw"));
        assert!(!clean(&p, &edited.resources[0], &env));
    }

    #[test]
    fn refs_capture_deps_and_uses() {
        let p = program(CLEAN);
        let r = block_refs(&p.resources[1]);
        assert!(r.expand_deps.contains(&("aws_s3_bucket", "b")));
        assert!(r.hazard_refs.contains(&("aws_s3_bucket", "b")));
        let r0 = block_refs(&p.resources[0]);
        assert!(r0.var_uses.contains("region"));
        assert!(r0.local_uses.contains("prefix"));
    }

    #[test]
    fn staged_declarations_decide_what_is_declared() {
        let p = program(CLEAN);
        let mut env = LintEnv::build(&p);
        let vm = &p.resources[1]; // reads aws_s3_bucket.b
        let check = |env: &LintEnv, edit: &DeclEdit| {
            block_is_clean(&p, vm, &block_refs(vm), env, edit, &LintConfig::default())
        };
        let bucket = ("aws_s3_bucket".to_owned(), "b".to_owned());
        let retract = DeclEdit {
            removed: vec![bucket.clone()],
            ..DeclEdit::default()
        };
        assert!(check(&env, &DeclEdit::default()));
        assert!(!check(&env, &retract), "reads a retracted block");
        assert!(!env.declares(&retract, "aws_s3_bucket", "b"));
        env.apply(retract);
        assert!(!check(&env, &DeclEdit::default()));
        let declare = DeclEdit {
            added: vec![bucket],
            ..DeclEdit::default()
        };
        assert!(check(&env, &declare));
        env.apply(declare);
        assert!(env.declares(&DeclEdit::default(), "aws_s3_bucket", "b"));
    }

    #[test]
    fn outer_refs_are_the_readers_outside_the_blocks() {
        let p = program(
            r#"
            variable "region" { default = "us-east-1" }
            variable "zone" { default = "a" }
            locals { az = "${var.region}-${var.zone}" }
            resource "aws_s3_bucket" "b" { bucket = local.az }
            output "bucket" { value = aws_s3_bucket.b.bucket }
        "#,
        );
        let outer = outer_refs(&p);
        assert_eq!(outer.var_uses.len(), 2, "{outer:?}");
        assert!(outer.local_uses.is_empty(), "the block's use is not outer");
        assert!(outer.hazard_refs.contains(&("aws_s3_bucket", "b")));
        assert!(outer.expand_deps.is_empty());
    }

    #[test]
    fn claims_match_identity_attrs() {
        let p = program(CLEAN);
        let env = LintEnv::build(&p);
        let c: Vec<_> = env.block_claims(&p.resources[1]).collect();
        assert_eq!(c, vec![("aws_virtual_machine", "name", "web".into())]);
        // count = 0 claims nothing
        let z = program(r#"resource "aws_virtual_machine" "z" { count = 0 name = "web" }"#);
        let zenv = LintEnv::build(&z);
        assert!(zenv.count_folds_zero(&z.resources[0]));
        assert_eq!(zenv.block_claims(&z.resources[0]).count(), 0);
    }
}
