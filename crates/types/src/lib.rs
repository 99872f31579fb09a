//! Shared foundation types for the Cloudless Computing workspace.
//!
//! Every crate in the workspace speaks in terms of the types defined here:
//!
//! * [`Value`] — the dynamically-typed attribute value exchanged between the
//!   IaC language (`cloudless-hcl`), the simulated cloud substrate
//!   (`cloudless-cloud`) and the state database (`cloudless-state`).
//! * [`ResourceAddr`] / [`ResourceTypeName`] — how a resource is named at the
//!   IaC level (`aws_virtual_machine.vm1[2]`).
//! * [`Span`] / [`SourcePos`] — source locations, threaded all the way from
//!   the parser to the cloud-error translator so diagnostics can point at the
//!   exact line of the user's program (paper §3.5).
//! * [`SimTime`] / [`SimDuration`] — the virtual clock used by the
//!   discrete-event cloud simulator.

#![forbid(unsafe_code)]

pub mod addr;
pub mod cidr;
pub mod intern;
pub mod join;
pub mod pairmap;
pub mod provider;
pub mod span;
pub mod time;
pub mod value;

pub use addr::{ResourceAddr, ResourceId, ResourceKey, ResourceTypeName};
pub use intern::{AddrId, AddrTable, Interner, Symbol};
pub use join::join;
pub use pairmap::PairMap;
pub use provider::{Provider, Region};
pub use span::{SourcePos, Span};
pub use time::{SimDuration, SimTime};
pub use value::{Attrs, Value, ValueKind};
