//! Observability and repair: the "Telemetry / Repair" column of Fig. 1(b).
//!
//! §3.5: "An IaC debugger for cloud infrastructures is essential for
//! cloudless computing, as failures happen frequently and are opaque to
//! cloud users. The debugger should consist of an observability component
//! that monitors runtime failures, as well as a repair component that
//! reflect the cloud-level errors to the IaC-level program and suggest
//! possible fixes."
//!
//! * [`drift`] — the observability component: an activity-log watcher
//!   (cloudless-native, §3.5's proposal) and the reconciliation policy.
//!   Live resources are read by refresh (`cloudless-deploy`).
//! * [`explain`](mod@explain) — the repair component: translates opaque provider errors
//!   ("Linux virtual machine creation failed because specified NIC is not
//!   found") into root causes anchored at exact source lines, with fix
//!   suggestions.
//! * [`reconcile`](mod@reconcile) — the regeneration component: classifies
//!   detected drift into minimal program-level [`EditOp`]s that fold
//!   out-of-band mutations back into the IaC program.

#![forbid(unsafe_code)]

pub mod drift;
pub mod explain;
pub mod reconcile;

pub use drift::{DriftEvent, DriftKind, DriftReport, LogWatcher, Reconciliation};
pub use explain::{explain, Explanation};
pub use reconcile::{classify, EditOp, ReconcilePlan};
