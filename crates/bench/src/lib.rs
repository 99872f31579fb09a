//! The experiment harness.
//!
//! Every table in `EXPERIMENTS.md` is regenerated by a function in
//! [`experiments`]; `exp <name>` prints one, `exp all` prints everything
//! (the wall-clock experiments that take flags have `exp_*` binaries of
//! their own). All workloads are seeded and deterministic — the tables are
//! reproducible byte-for-byte.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod locks;
pub mod oracle;
pub mod scenarios;
pub mod table;
pub mod telemetry;
pub mod txn;
pub mod workloads;

/// Standard seed used across experiments (any change is a different, but
/// still deterministic, universe).
pub const SEED: u64 = 42;
