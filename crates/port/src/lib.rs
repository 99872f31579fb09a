//! Porting non-IaC cloud deployments to IaC programs.
//!
//! §3.1: "Porting these deployments to IaC requires high-fidelity
//! translation of low-level cloud infrastructure state to an equivalent IaC
//! program … tools like Aztfy and Terraformer resort to porting with static,
//! pre-defined templates. The resulting IaC programs usually lack clear
//! structures and require the DevOps engineers to manually analyze and
//! refactor them. We believe that porting from existing cloud
//! infrastructures to IaC must be assisted with a program optimizer that
//! provides structural guidance. … if the cloud-level state contains many
//! resources of the same type, the corresponding IaC program should use
//! compact structures such as count and for_each … many of its cloud-level
//! attributes could be removed when porting to the IaC level."
//!
//! * [`optimize`] — the cloudless porter: reference recovery, attribute
//!   pruning to what a program may set, and `count` compaction of
//!   homogeneous groups.
//! * [`modules`] — module extraction of repeated heterogeneous stacks.
//! * [`metrics`] — the paper's open question "how should we formally define
//!   and quantify these code metrics?": size, redundancy and abstraction
//!   measures combined into a quality score.
//!
//! The Terraformer-style baseline E7 compares against lives with the
//! experiment harness. Fidelity is checked by round-trip: the generated
//! program must expand and diff to all-no-ops against the imported state
//! (see `tests` in `optimize`).

#![forbid(unsafe_code)]

use std::collections::BTreeSet;

use cloudless_cloud::ResourceRecord;
use cloudless_hcl::sanitize_ident;
use cloudless_types::Value;

pub mod metrics;
pub mod modules;
pub mod optimize;

pub use metrics::{quality_score, CodeMetrics};
pub use modules::{extract_modules, ModulePort};
pub use optimize::{optimized_port, PortResult};

/// A deterministic, readable block label for `record`, unique among
/// `taken`: its `name` (or `bucket`) as an identifier, else its type's
/// short name, suffixed `_2`, `_3`, … on a collision.
pub fn label_for(record: &ResourceRecord, taken: &mut BTreeSet<String>) -> String {
    let base = record
        .attrs
        .get("name")
        .or_else(|| record.attrs.get("bucket"))
        .and_then(Value::as_str)
        .filter(|s| !s.is_empty())
        .unwrap_or(record.rtype.short_name());
    unique(sanitize_ident(base), taken)
}

/// `base`, or the first of `base_2`, `base_3`, … not in `taken`, which now
/// holds it.
pub(crate) fn unique(base: String, taken: &mut BTreeSet<String>) -> String {
    let mut label = base.clone();
    let mut n = 2;
    while !taken.insert(label.clone()) {
        label = format!("{base}_{n}");
        n += 1;
    }
    label
}
