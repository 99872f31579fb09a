//! Compile-time validation of IaC programs.
//!
//! §3.2: "a seemingly correct IaC program (i.e., one that compiles
//! successfully) may still cause deployment errors. … Instead of leaving
//! this burden to users at deployment time, we believe that these surprises
//! should be eliminated at compile time via stronger, cloud-level
//! validation. Our insight is that IaC-style management offers an
//! opportunity to transform cloud-level constraints into IaC-level program
//! checks."
//!
//! The validator runs in layers, each catching a class of failures that the
//! baseline (syntax-only validation, Figure 1(a)) lets through to deploy
//! time:
//!
//! | layer | catches | paper hook |
//! |---|---|---|
//! | [`schema`] | unknown types/attributes, kind mismatches, missing required attrs | §2.1 "basic validation" done right |
//! | [`semantic`] | references of the wrong resource type, bad regions/CIDRs/ports | §3.2 "semantic validation with stronger IaC types" |
//! | [`rules`] | cross-resource, cloud-specific constraints (VM/NIC region, password flags, peering CIDR overlap, subnet containment) | §3.2 "deeper, cloud-specific validation" |
//! | [`mining`] | deviations from conventions mined from a deployment corpus | §3.2 "specification mining" |
//!
//! Every diagnostic carries the source span of the offending attribute, so
//! the error points at the user's line — not at a cloud API payload.

#![forbid(unsafe_code)]

pub mod incremental;
pub mod mining;
pub mod pipeline;
pub mod rules;
pub mod schema;
pub mod semantic;

pub use mining::{MinedSpec, SpecMiner};
pub use pipeline::{validate, validate_indexed, ValidationLevel, ValidationReport};
