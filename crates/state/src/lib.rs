//! The golden-state database for cloud infrastructure.
//!
//! Paper §3.4: "we need a lock manager backed by an IaC database that
//! reflects the 'golden state' of the cloud infrastructure, as well as
//! transaction mechanisms for atomic updates while guaranteeing isolation.
//! Updates are scheduled based on the logical state and locks in the
//! database, and only later applied to the physical infrastructure." And for
//! rollbacks: "better version control systems that track the mapping between
//! past configurations and their corresponding states — i.e., a 'time
//! machine' — would be a significant help."
//!
//! This crate provides the pieces:
//!
//! * [`snapshot`] — the state document: the IaC-address → cloud-resource
//!   mapping Terraform keeps in `terraform.tfstate`, serializable as JSON.
//!   Its records are shared (`Arc`) and indexed by cloud id, so a clone
//!   costs its keys and one table; a record read from the log is decoded
//!   when first read.
//! * [`store`] — the **log-structured store** ([`LogStore`]): an
//!   append-only delta log where every commit records only changed
//!   resources as content-addressed records, so commits, rollbacks, and
//!   drift diffs read O(delta) instead of O(world).
//! * [`cas`] — content addressing: each resource body stored once,
//!   hash-shared across all versions that reference it.
//! * [`log`] — the on-disk record format (a version holds its program as
//!   a blob's hash or, inline, as a patch on the previous program),
//!   checksummed line framing, and torn-tail crash recovery.
//! * [`history`] — the time machine view: version metadata queries
//!   (`latest`, `by_serial`, `at_time`) over the delta log, with
//!   materialization ([`LogStore::snapshot_at`]) a separate explicit step.
//! * [`compact`] — folds cold log prefixes into checkpoint records while
//!   keeping *every* version point-in-time addressable.
//! * [`fsck`] — offline integrity verification (checksums, content
//!   addresses, undo-chain consistency, checkpoint reachability).
//! * [`migrate`] — one-shot migration from the legacy full-JSON layout.
//! * [`lock`] — the cloudless **per-resource lock manager** (the global
//!   lock experiment E3 compares it against — "existing tools simply lock
//!   the entire cloud infrastructure for modifications at any scale" —
//!   lives with the experiment).
//!
//! ## Observability
//!
//! With a recorder installed ([`LogStore::set_recorder`]) the store emits:
//! `state.commits` / `state.compactions` / `state.torn_recoveries`
//! (counters), and `state.log_bytes` / `state.records_deduped` /
//! `state.records_decoded` / `state.checkpoint_lag` (gauges).

#![forbid(unsafe_code)]

pub mod cas;
pub mod compact;
pub mod fsck;
pub mod history;
pub mod lock;
pub mod log;
pub mod migrate;
pub mod snapshot;
pub mod store;

pub use cas::ContentHash;
pub use compact::CompactReport;
pub use fsck::{fsck_bytes, fsck_file, FsckReport};
pub use history::HistoryView;
pub use lock::{LockGuard, LockManager, LockScope, ObservedLockManager, ResourceLockManager};
pub use log::{
    rename_synced, sync_parent, ImageWrite, LogDevice, MemDevice, StoreError, VersionRecord,
};
pub use migrate::{migrate_dir, LegacyHistoryEntry, MigrateReport};
pub use snapshot::{DeployedResource, Record, Snapshot};
pub use store::{CommitMeta, DiffEntry, LogStore, RecoveryReport, StateDelta, VersionDiff};
