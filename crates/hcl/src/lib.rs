//! An HCL-subset Infrastructure-as-Code language.
//!
//! Paper §2.1: "In Terraform/OpenTofu, IaC programs are written in a
//! declarative style using the HCL language, which is an expressive language
//! with many constructs for modularity." This crate implements the subset of
//! HCL needed to express every program in the paper (Figure 2 parses
//! verbatim — see `tests/figure2.rs`) plus the modularity constructs the
//! porting optimizer targets (§3.1): `count`, `for_each`, `module` blocks,
//! `locals`, `variable`/`output` blocks and data sources.
//!
//! Pipeline:
//!
//! ```text
//! source ──lex──▶ tokens ──parse──▶ ast::File ──analyze──▶ Program
//!                                        │
//!                                        └──render──▶ canonical HCL text
//! Program ──expand(inputs)──▶ Manifest (resource instances + dependency edges)
//! ```
//!
//! The [`Manifest`] is what the rest of the stack consumes: a set of
//! [`ResourceInstance`]s whose attributes are evaluated as far as possible at
//! plan time, with *deferred expressions* recorded for attributes that
//! reference other resources' computed values (`aws_network_interface.n1.id`)
//! — those are finalized at apply time by `cloudless-deploy` once the
//! dependencies exist.
//!
//! Every AST node and every produced instance carries a [`Span`] back into
//! the source, so downstream diagnostics can point at exact lines (§3.5).
//!
//! [`Span`]: cloudless_types::Span
//! [`Manifest`]: crate::program::Manifest
//! [`ResourceInstance`]: crate::program::ResourceInstance

#![forbid(unsafe_code)]

pub mod ast;
pub mod diag;
pub mod eval;
pub mod fingerprint;
pub mod fold;
pub mod funcs;
pub mod lexer;
pub mod parser;
pub mod program;
pub mod render;
pub mod token;

pub use ast::{Attribute, Block, BlockBody, Expr, File};
pub use diag::{Diagnostic, Diagnostics, Severity, SourceMap};
pub use eval::{EvalError, Resolver, Scope};
pub use fold::{fold, Folded};
pub use parser::parse;
pub use program::{
    expand, DeferredAttr, Instances, Manifest, ModuleLibrary, Program, ResourceInstance,
};
pub use render::{render_file, sanitize_ident, value_to_expr};

/// Parse a source file and analyze it into a [`Program`] in one call.
///
/// `filename` is used in diagnostics only.
pub fn load(source: &str, filename: &str) -> Result<Program, Diagnostics> {
    let file = parse(source, filename)?;
    Program::from_file(file)
}
