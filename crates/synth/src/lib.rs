//! IaC program synthesis.
//!
//! §3.1: "existing LLM-based tools frequently generate invalid IaC code,
//! even for small-scale templates involving widely used resources. … one
//! research direction is to tailor ML-assisted synthesis techniques
//! specifically for IaC program generation … A potential solution is to
//! decompose the infrastructure into its component elements to simplify
//! synthesis, while jointly applying formal and textual specifications
//! (e.g., type-guided and ML-based search) for multi-modal synthesis …
//! Yet another approach could consider injecting relevant portions of the
//! user's existing infrastructure as additional context in a retrieval
//! augmented generation fashion."
//!
//! **Substitution note (DESIGN.md):** we have no LLM. The *unguided
//! baseline* models characteristic LLM failure modes with seeded error
//! injection (misspelled attributes, invalid regions, missing required
//! attributes and dependencies) at rates taken from the paper's complaint
//! that such tools "frequently generate invalid IaC code". The *cloudless
//! synthesizer* is the part the paper actually proposes and is implemented
//! for real: type-guided dependency closure over the catalog's semantic
//! types, retrieval of attribute conventions from the user's corpus, and a
//! validate-and-repair loop.
//!
//! * [`intent`] — what the user asks for.
//! * [`synth`] — the guided synthesizer + the unguided baseline.
//! * [`patch`] — reconcile patch synthesis: AST surgery for drift edit
//!   ops, wrapped in a repair loop whose critic is the caller's deployment
//!   gate.

#![forbid(unsafe_code)]

pub mod intent;
pub mod patch;
pub mod synth;

pub use intent::{Intent, WantedResource};
pub use patch::{apply_ops, synthesize_patch, synthesize_patch_with, PatchConfig, PatchOutcome};
pub use synth::{synthesize, unguided_baseline, SynthConfig, SynthReport};
