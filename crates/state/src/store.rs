//! The log-structured state store.
//!
//! [`LogStore`] replaces the old full-snapshot-per-version store: every
//! commit appends one [`VersionRecord`] holding only the *changed*
//! resources, each stored once in the content-addressed blob index
//! ([`crate::cas::Cas`]) and referenced by hash thereafter. The live
//! world is kept materialized (`current`), while every historical
//! version stays addressable by walking delta records — so rollback and
//! version-to-version diffs cost O(delta), not O(world).
//!
//! After the plan, a commit touches what the plan touched. The world is
//! shared ([`Snapshot`] holds `Arc`s): the copy an apply works on, the
//! snapshot it hands back and the head it becomes are the same resources
//! but for the ones that changed, so the diff that finds those is a walk of
//! pointers, and [`LogStore::snapshot_at`] decodes only what differs from
//! the head. The program is recorded the same way — as its edit
//! ([`ProgramPatch`], see [`crate::log`]), found by one comparison against
//! the head's text.
//!
//! The store is the single source of truth for both "current state" and
//! "time machine": [`LogStore::history`] serves the version metadata the
//! old `History` held, [`LogStore::snapshot_at`] materializes any past
//! serial, and [`LogStore::rollback_to`] commits the inverse delta.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::Arc;

use cloudless_obs::{NullRecorder, Recorder};
use cloudless_types::{join, SimTime, Value};

use crate::cas::{decode_resource, encode_resource, Cas, ContentHash};
use crate::history::HistoryView;
use crate::log::{
    frame_into, scan, BlobRecord, CheckpointRecord, DelEntry, FileDevice, Framed, LogDevice,
    LogRecord, MemDevice, ProgramPatch, PutEntry, StoreError, VersionRecord, LOG_MAGIC,
    MAX_PATCH_CHAIN,
};
use crate::snapshot::{DeployedResource, Snapshot};

/// Who/when/why metadata attached to a commit.
#[derive(Debug, Clone)]
pub struct CommitMeta {
    pub at: SimTime,
    pub author: String,
    pub message: String,
    /// The IaC source that produced this version, if any. Stored as its
    /// edit of the previous version's, or as a CAS blob when there is none
    /// to edit or the edits have outgrown the text.
    pub config_source: Option<String>,
}

impl CommitMeta {
    /// Minimal metadata for internal/synthetic commits.
    pub fn bare(message: impl Into<String>) -> CommitMeta {
        CommitMeta {
            at: SimTime::ZERO,
            author: "system".to_owned(),
            message: message.into(),
            config_source: None,
        }
    }
}

/// A delta to commit: full new values for changed/created resources,
/// addresses to delete, and (optionally) replacement outputs.
#[derive(Debug, Clone, Default)]
pub struct StateDelta {
    pub puts: Vec<DeployedResource>,
    pub dels: Vec<String>,
    /// `None` = keep current outputs.
    pub outputs: Option<BTreeMap<String, Value>>,
}

impl StateDelta {
    pub fn is_empty(&self) -> bool {
        self.puts.is_empty() && self.dels.is_empty() && self.outputs.is_none()
    }
}

/// A [`StateDelta`] on its way into the log: its puts are the snapshot's
/// own `Arc`s, so folding them into the head copies nothing.
#[derive(Default)]
struct SharedDelta {
    puts: Vec<Arc<DeployedResource>>,
    dels: Vec<String>,
    outputs: Option<BTreeMap<String, Value>>,
}

impl SharedDelta {
    fn is_empty(&self) -> bool {
        self.puts.is_empty() && self.dels.is_empty() && self.outputs.is_none()
    }
}

impl From<StateDelta> for SharedDelta {
    fn from(delta: StateDelta) -> SharedDelta {
        SharedDelta {
            puts: delta.puts.into_iter().map(Arc::new).collect(),
            dels: delta.dels,
            outputs: delta.outputs,
        }
    }
}

/// What `open` had to do to recover the log.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Torn-tail bytes truncated away (0 = the log was clean).
    pub torn_bytes_dropped: u64,
    /// Versions replayed from the log.
    pub versions: usize,
}

/// One changed address between two versions.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    pub addr: String,
    /// Content at the `from` version (`None` = absent).
    pub before: Option<ContentHash>,
    /// Content at the `to` version (`None` = absent).
    pub after: Option<ContentHash>,
}

/// The O(delta) drift diff between two committed versions.
#[derive(Debug, Clone)]
pub struct VersionDiff {
    pub from: u64,
    pub to: u64,
    pub changed: Vec<DiffEntry>,
}

/// The log-structured store: append-only device + blob index +
/// materialized current world.
pub struct LogStore {
    pub(crate) device: Box<dyn LogDevice>,
    pub(crate) cas: Cas,
    pub(crate) versions: Vec<VersionRecord>,
    pub(crate) current: Snapshot,
    /// Current world as address → content hash (the fold of all deltas).
    pub(crate) current_hashes: BTreeMap<String, ContentHash>,
    /// Delta entries appended since the last checkpoint record.
    pub(crate) entries_since_checkpoint: usize,
    /// Versions appended since the last checkpoint record (the lag gauge).
    pub(crate) versions_since_checkpoint: usize,
    /// Index in `versions` of the newest version that records a program:
    /// the base of the next patch.
    program_head: Option<usize>,
    /// That version's program, once a commit has needed it.
    program_text: Option<Arc<str>>,
    pub(crate) recorder: Arc<dyn Recorder>,
    pub(crate) log_bytes: u64,
    /// A failed append may have left bytes past `log_bytes` that the device
    /// would not cut back yet: the next append cuts them first.
    torn_tail: bool,
    pub(crate) torn_recoveries: u64,
}

impl std::fmt::Debug for LogStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogStore")
            .field("serial", &self.current.serial)
            .field("resources", &self.current.len())
            .field("versions", &self.versions.len())
            .field("blobs", &self.cas.len())
            .field("log_bytes", &self.log_bytes)
            .finish()
    }
}

impl Default for LogStore {
    fn default() -> Self {
        LogStore::in_memory()
    }
}

impl LogStore {
    // ------------------------------------------------------------ open

    /// Fresh, empty, memory-backed store: what opening an empty device
    /// leaves, a log of the header alone.
    pub fn in_memory() -> LogStore {
        let header = format!("{LOG_MAGIC}\n").into_bytes();
        let log_bytes = header.len() as u64;
        LogStore::empty(Box::new(MemDevice::from_bytes(header)), log_bytes)
    }

    /// A store that has replayed nothing, over a log of `log_bytes` bytes.
    fn empty(device: Box<dyn LogDevice>, log_bytes: u64) -> LogStore {
        LogStore {
            device,
            cas: Cas::new(),
            versions: Vec::new(),
            current: Snapshot::new(),
            current_hashes: BTreeMap::new(),
            entries_since_checkpoint: 0,
            versions_since_checkpoint: 0,
            program_head: None,
            program_text: None,
            recorder: NullRecorder::shared(),
            log_bytes,
            torn_tail: false,
            torn_recoveries: 0,
        }
    }

    /// Memory-backed store seeded with an existing snapshot but no
    /// version history — how imported/legacy states enter the engine.
    /// The seed world is loaded into the CAS (so the first commit's
    /// delta is computed against it) without writing a version record.
    pub fn in_memory_seeded(snapshot: Snapshot) -> LogStore {
        let mut store = LogStore::in_memory();
        store.seed(snapshot);
        store
    }

    /// Replace the materialized world without committing a version
    /// (legacy-state adoption; serial is taken from the snapshot).
    fn seed(&mut self, snapshot: Snapshot) {
        self.current_hashes.clear();
        for (addr, r) in snapshot.resources() {
            let (hash, _) = self.cas.insert(encode_resource(r).into());
            self.current_hashes.insert(addr.clone(), hash);
        }
        self.current = snapshot;
    }

    /// Open (creating if absent) a file-backed log, replaying it and
    /// recovering a torn final record if the last run crashed mid-append.
    pub fn open_file(path: &Path) -> Result<(LogStore, RecoveryReport), StoreError> {
        LogStore::open_device(Box::new(FileDevice::open(path)?))
    }

    /// Open any device: scan, replaying each record into the in-memory
    /// indexes as it is decoded, recover the tail if torn (persisted via
    /// `truncate`), then decode the live world.
    ///
    /// Each byte of the log is visited once and each live resource decoded
    /// once: a blob line's body is unescaped straight into the blob index
    /// (never parsed as JSON there), no list of records is built, the raw
    /// bytes are dropped before the world is materialized, and only the
    /// blobs the head still references are decoded.
    pub fn open_device(
        mut device: Box<dyn LogDevice>,
    ) -> Result<(LogStore, RecoveryReport), StoreError> {
        let bytes = device.read_all()?;
        let mut store = LogStore::empty(device, 0);
        let outcome = scan(&bytes, |record| store.replay(record))?;
        drop(bytes);
        store.log_bytes = outcome.keep_len;
        if outcome.torn_bytes > 0 {
            store.device.truncate(outcome.keep_len)?;
            store.torn_recoveries = 1;
        }
        if outcome.keep_len == 0 {
            // brand-new log (or one whose first-ever append tore inside
            // the header): stamp the header
            store.append(format!("{LOG_MAGIC}\n").as_bytes())?;
        }
        store.materialize_current()?;
        let report = RecoveryReport {
            torn_bytes_dropped: outcome.torn_bytes,
            versions: store.versions.len(),
        };
        Ok((store, report))
    }

    fn replay(&mut self, record: LogRecord) -> Result<(), StoreError> {
        match record {
            LogRecord::Blob(b) => {
                self.cas.insert_at(b.hash, b.body);
            }
            LogRecord::Version(v) => {
                if let (None, Some(patch)) = (v.config, &v.patch) {
                    // a patch edits the newest program before it; any
                    // other base is not something this store wrote
                    let head = self.program_head.and_then(|i| self.versions.get(i));
                    let head = head.map(|v| v.serial);
                    if head != Some(patch.base) {
                        return Err(StoreError::Corrupt(format!(
                            "version {} patches the program of serial {}, not of the \
                             newest version that has one ({head:?})",
                            v.serial, patch.base
                        )));
                    }
                }
                if v.has_program() {
                    self.program_head = Some(self.versions.len());
                }
                for p in &v.puts {
                    self.current_hashes.insert(p.addr.clone(), p.hash);
                }
                for d in &v.dels {
                    self.current_hashes.remove(&d.addr);
                }
                self.current.serial = v.serial;
                self.entries_since_checkpoint += v.delta_len();
                self.versions_since_checkpoint += 1;
                self.versions.push(v);
            }
            LogRecord::Checkpoint(c) => {
                // a checkpoint is a fold of everything before it — the
                // replayed map must agree, otherwise the log is damaged
                if !c.folds_to(&self.current_hashes) {
                    return Err(StoreError::Corrupt(format!(
                        "checkpoint at serial {} disagrees with replayed state",
                        c.serial
                    )));
                }
                self.entries_since_checkpoint = 0;
                self.versions_since_checkpoint = 0;
            }
        }
        Ok(())
    }

    /// Decode the current world from `current_hashes` and take the last
    /// version's outputs (open-time only: after that, `current` is
    /// maintained incrementally).
    fn materialize_current(&mut self) -> Result<(), StoreError> {
        let (cas, hashes) = (&self.cas, &self.current_hashes);
        let decode = |(addr, hash): (&String, &ContentHash)| {
            let body = cas.get(hash).ok_or_else(|| {
                StoreError::Corrupt(format!("resource {addr} references missing blob {hash}"))
            })?;
            let r = decode_resource(addr, &body).map_err(StoreError::Corrupt)?;
            Ok::<_, StoreError>((addr.clone(), Arc::new(r)))
        };
        let decode_from = |skip: usize, take: usize| {
            let part = hashes.iter().skip(skip).take(take);
            part.map(decode).collect::<Result<Vec<_>, _>>()
        };
        // in two halves, the second on a helper; the first damaged blob by
        // address is the one reported
        let half = hashes.len() / 2;
        let (second, first) = join(|| decode_from(half, usize::MAX), || decode_from(0, half));
        // the hashes are in address order, so the map is built from one
        // sorted run rather than by an insert per resource
        let resources = first?.into_iter().chain(second?).collect();
        let outputs = self.versions.last().map(|v| v.outputs.clone());
        let (serial, outputs) = (self.current.serial, outputs.unwrap_or_default());
        self.current =
            Snapshot::from_records(serial, resources, outputs).map_err(StoreError::Corrupt)?;
        Ok(())
    }

    /// Install an observability recorder (metrics listed in the crate
    /// docs: `state.log_bytes`, `state.records_deduped`,
    /// `state.compactions`, `state.checkpoint_lag`, ...).
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = recorder;
    }

    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> LogStore {
        self.set_recorder(recorder);
        self
    }

    // ------------------------------------------------------- accessors

    /// Read-only view of the current state.
    pub fn current(&self) -> &Snapshot {
        &self.current
    }

    /// Current serial.
    pub fn serial(&self) -> u64 {
        self.current.serial
    }

    /// Bytes in the on-disk (or in-memory) log.
    pub fn log_bytes(&self) -> u64 {
        self.log_bytes
    }

    /// Content-addressed inserts that found their blob already present.
    pub fn records_deduped(&self) -> u64 {
        self.cas.dedup_hits()
    }

    /// Versions appended since the last checkpoint record.
    pub fn checkpoint_lag(&self) -> usize {
        self.versions_since_checkpoint
    }

    /// Torn-tail recoveries performed at open (0 or 1 per open).
    pub fn torn_recoveries(&self) -> u64 {
        self.torn_recoveries
    }

    /// Unique blobs held in the content-addressed index.
    pub fn blob_count(&self) -> usize {
        self.cas.len()
    }

    /// The time machine: version metadata, queryable by serial/time.
    pub fn history(&self) -> HistoryView<'_> {
        HistoryView::new(&self.versions)
    }

    /// The IaC source recorded for `serial`, if that version stored one
    /// (`None` too when the records that hold it are damaged; `fsck` says
    /// which).
    pub fn config_source(&self, serial: u64) -> Option<Arc<str>> {
        self.program_at(self.versions.iter().position(|v| v.serial == serial)?)
    }

    /// The patches between version `at` and the full copy of the program
    /// its chain ends in, newest first, and that copy's address. `None`
    /// when the version records no program or the chain is broken.
    fn program_chain(&self, mut at: usize) -> Option<(Vec<&ProgramPatch>, ContentHash)> {
        let mut patches = Vec::new();
        loop {
            let v = self.versions.get(at)?;
            match (v.config, &v.patch) {
                (Some(full), _) => return Some((patches, full)),
                (None, Some(patch)) => {
                    // strictly earlier, so the walk ends
                    let earlier = &self.versions[..at];
                    at = earlier
                        .binary_search_by_key(&patch.base, |v| v.serial)
                        .ok()?;
                    patches.push(patch);
                }
                (None, None) => return None,
            }
        }
    }

    /// The program of version `at`: the full copy under its chain with the
    /// chain's patches spliced in, oldest first.
    fn program_at(&self, at: usize) -> Option<Arc<str>> {
        if let (true, Some(text)) = (self.program_head == Some(at), &self.program_text) {
            return Some(Arc::clone(text));
        }
        let (patches, full) = self.program_chain(at)?;
        let full = self.cas.get(&full)?;
        if patches.is_empty() {
            return Some(full);
        }
        let mut text = String::from(&*full);
        for patch in patches.iter().rev() {
            patch.apply(&mut text).ok()?;
        }
        Some(text.into())
    }

    /// `source` as an edit of the head program, when there is one to edit
    /// and its chain has room for another patch; `None` asks for a full
    /// copy. Room is [`MAX_PATCH_CHAIN`] patches whose middles add up to no
    /// more than the text, which keeps the program of any version within
    /// two copies' worth of reading.
    fn patch_for(&mut self, source: &str) -> Option<ProgramPatch> {
        let head = self.program_head?;
        let base = self.versions.get(head)?.serial;
        let (chain, _) = self.program_chain(head)?;
        if chain.len() >= MAX_PATCH_CHAIN {
            return None;
        }
        let patched: usize = chain.iter().map(|patch| patch.middle.len()).sum();
        let text = self.program_at(head)?;
        let patch = ProgramPatch::between(base, &text, source);
        self.program_text = Some(text);
        (patched + patch.middle.len() <= source.len()).then_some(patch)
    }

    // --------------------------------------------------------- commits

    /// Append a version for `delta`, even if it is empty (converge always
    /// records that it ran). Returns the new serial.
    pub fn commit(&mut self, delta: StateDelta, meta: CommitMeta) -> Result<u64, StoreError> {
        self.commit_next(delta.into(), meta)
    }

    fn commit_next(&mut self, delta: SharedDelta, meta: CommitMeta) -> Result<u64, StoreError> {
        let serial = self.current.serial + 1;
        self.commit_at(serial, delta, meta)?;
        Ok(serial)
    }

    /// Append a version only if `delta` actually changes the world.
    /// Returns `Some(serial)` if committed.
    pub fn commit_if_changed(
        &mut self,
        delta: StateDelta,
        meta: CommitMeta,
    ) -> Result<Option<u64>, StoreError> {
        if self.delta_is_noop(&delta) {
            return Ok(None);
        }
        self.commit(delta, meta).map(Some)
    }

    fn delta_is_noop(&self, delta: &StateDelta) -> bool {
        let puts_noop = delta
            .puts
            .iter()
            .all(|r| self.current.get(&r.addr) == Some(r));
        let dels_noop = delta
            .dels
            .iter()
            .all(|addr| !self.current_hashes.contains_key(addr));
        let outputs_noop = delta
            .outputs
            .as_ref()
            .is_none_or(|o| *o == self.current.outputs);
        puts_noop && dels_noop && outputs_noop
    }

    /// Commit a full target snapshot by diffing it against the current
    /// world: only changed resources are encoded and logged. The
    /// snapshot's own `serial` field is ignored (the log assigns serials).
    pub fn commit_snapshot(
        &mut self,
        target: &Snapshot,
        meta: CommitMeta,
    ) -> Result<u64, StoreError> {
        let delta = self.delta_from_snapshot(target);
        self.commit_next(delta, meta)
    }

    /// Like [`LogStore::commit_snapshot`] but skips no-op commits.
    pub fn commit_snapshot_if_changed(
        &mut self,
        target: &Snapshot,
        meta: CommitMeta,
    ) -> Result<Option<u64>, StoreError> {
        let delta = self.delta_from_snapshot(target);
        if delta.is_empty() {
            return Ok(None);
        }
        self.commit_next(delta, meta).map(Some)
    }

    /// Commit a full snapshot *preserving its serial* (migration replay,
    /// where historical serials must survive). The serial must exceed the
    /// current one.
    pub fn commit_snapshot_as(
        &mut self,
        target: &Snapshot,
        meta: CommitMeta,
    ) -> Result<u64, StoreError> {
        // serial 0 is reserved for the empty pre-history world
        if target.serial <= self.current.serial || target.serial == 0 {
            return Err(StoreError::Corrupt(format!(
                "migration serial {} is not past current serial {}",
                target.serial, self.current.serial
            )));
        }
        let delta = self.delta_from_snapshot(target);
        self.commit_at(target.serial, delta, meta)?;
        Ok(target.serial)
    }

    /// Diff `target` against the current world: one walk of the two in
    /// address order. A resource the target still shares with the head is
    /// skipped on its pointer; only one that was put since is compared by
    /// value, and only one that differs is encoded.
    fn delta_from_snapshot(&self, target: &Snapshot) -> SharedDelta {
        let mut delta = SharedDelta::default();
        let mut head = self.current.resources().iter().peekable();
        for (addr, r) in target.resources() {
            // what the head holds before `addr` the target no longer does
            while let Some((gone, _)) = head.next_if(|(held, _)| *held < addr) {
                delta.dels.push(gone.clone());
            }
            match head.next_if(|(held, _)| *held == addr) {
                Some((_, held)) if Arc::ptr_eq(held, r) || held == r => {}
                _ => delta.puts.push(Arc::clone(r)),
            }
        }
        delta.dels.extend(head.map(|(gone, _)| gone.clone()));
        if target.outputs != self.current.outputs {
            delta.outputs = Some(target.outputs.clone());
        }
        delta
    }

    /// The single append path: write new blobs + the version record, then
    /// maybe fold a checkpoint.
    fn commit_at(
        &mut self,
        serial: u64,
        delta: SharedDelta,
        meta: CommitMeta,
    ) -> Result<(), StoreError> {
        let mut lines = String::new();
        // blobs this commit adds to the CAS, to take back if the append fails
        let mut new_blobs: Vec<ContentHash> = Vec::new();
        // a body goes to the blob index and, when new, into the append
        // buffer as a framed blob line: shared, never copied in between
        let mut intern = |cas: &mut Cas, body: Arc<str>| {
            let (hash, added) = cas.insert(body.clone());
            if added {
                new_blobs.push(hash);
                frame_into(&mut lines, Framed::Blob(&BlobRecord { hash, body }));
            }
            hash
        };
        let mut resources = Vec::with_capacity(delta.puts.len());
        let mut puts = Vec::with_capacity(delta.puts.len());
        // entries apply in order (all puts, then all dels), so each
        // entry's `prev` is the value immediately before it — chained
        // *through* the delta when it touches an address twice, which is
        // what fsck's replay and the undo walk both expect
        let mut staged: BTreeMap<String, Option<ContentHash>> = BTreeMap::new();
        for r in delta.puts {
            let addr = r.addr.to_string();
            let hash = intern(&mut self.cas, encode_resource(&r).into());
            let prev = match staged.get(&addr) {
                Some(s) => *s,
                None => self.current_hashes.get(&addr).copied(),
            };
            staged.insert(addr.clone(), Some(hash));
            puts.push(PutEntry { addr, hash, prev });
            resources.push(r);
        }
        let mut dels = Vec::new();
        for addr in delta.dels {
            let prev = match staged.get(&addr) {
                Some(s) => *s,
                None => self.current_hashes.get(&addr).copied(),
            };
            // deleting an absent address is a no-op, not an undo entry
            if let Some(prev) = prev {
                staged.insert(addr.clone(), None);
                dels.push(DelEntry { addr, prev });
            }
        }
        // the program: its edit of the head's when that is the smaller
        // record, which also spares hashing the text; else a blob
        let mut program_text = None;
        let mut config = None;
        let mut patch = None;
        if let Some(source) = meta.config_source {
            patch = self.patch_for(&source);
            let text: Arc<str> = source.into();
            if patch.is_none() {
                config = Some(intern(&mut self.cas, Arc::clone(&text)));
            }
            program_text = Some(text);
        }
        let outputs = delta
            .outputs
            .unwrap_or_else(|| self.current.outputs.clone());
        let version = VersionRecord {
            serial,
            at: meta.at,
            author: meta.author,
            message: meta.message,
            config,
            puts,
            dels,
            outputs,
            patch,
        };
        frame_into(&mut lines, Framed::Version(&version));
        if let Err(e) = self.append(lines.as_bytes()) {
            // nothing was logged, so nothing may be remembered: a retry
            // has to frame these blobs again
            for hash in &new_blobs {
                self.cas.evict(hash);
            }
            return Err(e);
        }

        // fold into the in-memory state
        for (r, p) in resources.into_iter().zip(&version.puts) {
            self.current_hashes.insert(p.addr.clone(), p.hash);
            self.current.insert(p.addr.clone(), r);
        }
        for d in &version.dels {
            self.current_hashes.remove(&d.addr);
            self.current.take(&d.addr);
        }
        self.current.serial = serial;
        self.current.outputs = version.outputs.clone();
        self.entries_since_checkpoint += version.delta_len();
        if program_text.is_some() {
            self.program_head = Some(self.versions.len());
            self.program_text = program_text;
        }
        self.versions.push(version);
        self.versions_since_checkpoint += 1;
        self.maybe_checkpoint();

        self.recorder.counter("state.commits", 1);
        self.recorder
            .gauge("state.log_bytes", self.log_bytes as f64);
        self.recorder.gauge(
            "state.checkpoint_lag",
            self.versions_since_checkpoint as f64,
        );
        self.recorder
            .gauge("state.records_deduped", self.cas.dedup_hits() as f64);
        Ok(())
    }

    /// Checkpoint when the delta entries since the last fold reach
    /// `max(64, world/4)` — frequent enough that recovery and fsck never
    /// replay long cold prefixes, rare enough that checkpoints stay a
    /// small fraction of log bytes at scale.
    fn checkpoint_due(&self) -> bool {
        CheckpointRecord::due(self.entries_since_checkpoint, self.current_hashes.len())
    }

    /// Fold a checkpoint if one is due. The version before it is already
    /// on the device, so a fold that cannot be appended fails nothing: it
    /// stays due, and the next commit tries again.
    fn maybe_checkpoint(&mut self) {
        if self.checkpoint_due() && self.append_checkpoint().is_err() {
            self.recorder.counter("state.checkpoints_deferred", 1);
        }
    }

    /// Fold the current world into a checkpoint record at the log head.
    pub fn append_checkpoint(&mut self) -> Result<(), StoreError> {
        let fold = CheckpointRecord {
            serial: self.current.serial,
            entries: self
                .current_hashes
                .iter()
                .map(|(a, h)| (a.clone(), *h))
                .collect(),
            outputs: self.current.outputs.clone(),
        };
        let mut line = String::new();
        frame_into(&mut line, Framed::Checkpoint(&fold));
        self.append(line.as_bytes())?;
        self.entries_since_checkpoint = 0;
        self.versions_since_checkpoint = 0;
        Ok(())
    }

    /// Append whole records at `log_bytes`. An append that fails may have
    /// written part of them (`write_all` stops where the disk filled): the
    /// device is cut back to `log_bytes` now, or — when that fails too —
    /// before the next append, so the log only ever grows by whole records.
    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        if self.torn_tail {
            self.device.truncate(self.log_bytes)?;
            self.torn_tail = false;
        }
        if let Err(e) = self.device.append(bytes) {
            self.torn_tail = self.device.truncate(self.log_bytes).is_err();
            return Err(e);
        }
        self.log_bytes += bytes.len() as u64;
        Ok(())
    }

    // ----------------------------------------------------- time travel

    /// Is `serial` a version of this log? The head is, and so is 0, the
    /// empty pre-history world.
    fn addressable(&self, serial: u64) -> bool {
        serial == self.current.serial
            || (serial < self.current.serial
                && (serial == 0 || self.versions.iter().any(|v| v.serial == serial)))
    }

    /// Outputs as of `target` serial.
    fn outputs_at(&self, target: u64) -> BTreeMap<String, Value> {
        self.versions
            .iter()
            .rev()
            .find(|v| v.serial <= target)
            .map(|v| v.outputs.clone())
            .unwrap_or_default()
    }

    /// Materialize the full snapshot at a historical serial: the head's
    /// world, shared, with every address touched since put back to what it
    /// held then. The backward walk and the decoding are O(delta); only the
    /// keys are O(world at target). `None` if the serial is not an
    /// addressable version, or a record it needs is damaged or stored under
    /// another address (`fsck` says which).
    pub fn snapshot_at(&self, serial: u64) -> Option<Snapshot> {
        if !self.addressable(serial) {
            return None;
        }
        let mut snap = self.current.clone();
        if serial == self.current.serial {
            return Some(snap);
        }
        snap.serial = serial;
        snap.outputs = self.outputs_at(serial);
        for (addr, want) in self.touched_since(serial) {
            match want {
                // touched and since put back: the head's copy is the one
                Some(hash) if self.current_hashes.get(&addr) == Some(&hash) => {}
                Some(hash) => {
                    let r = decode_resource(&addr, &self.cas.get(&hash)?).ok()?;
                    snap.insert(addr, Arc::new(r));
                }
                None => {
                    snap.take(&addr);
                }
            }
        }
        Some(snap)
    }

    /// Hash-at-`target` for every address *touched* after `target`, by
    /// undoing the version records newest-first — strictly O(delta after
    /// target), never O(world). `None` means the hash there was `None`
    /// too: the address did not exist at `target`.
    fn touched_since(&self, target: u64) -> BTreeMap<String, Option<ContentHash>> {
        let mut touched: BTreeMap<String, Option<ContentHash>> = BTreeMap::new();
        // newest-first, and entries within a version in reverse
        // application order (dels before puts, each list reversed): the
        // *earliest applied* entry past the target is processed last, so
        // its `prev` — the value at the target — wins the overwrite
        for v in self.versions.iter().rev() {
            if v.serial <= target {
                break;
            }
            for d in v.dels.iter().rev() {
                touched.insert(d.addr.clone(), Some(d.prev));
            }
            for p in v.puts.iter().rev() {
                touched.insert(p.addr.clone(), p.prev);
            }
        }
        touched
    }

    /// Commit the inverse delta that returns the world to `target`
    /// serial. O(delta between target and head): only addresses touched
    /// since the target are examined, decoded, and re-logged. Returns
    /// `Ok(None)` when already at the target state (rollback fixpoint).
    pub fn rollback_to(
        &mut self,
        target: u64,
        meta: CommitMeta,
    ) -> Result<Option<u64>, StoreError> {
        if !self.addressable(target) {
            return Err(StoreError::Corrupt(format!(
                "serial {target} is not an addressable version"
            )));
        }
        let mut delta = SharedDelta::default();
        for (addr, want) in self.touched_since(target) {
            match want {
                Some(hash) => {
                    if self.current_hashes.get(&addr) != Some(&hash) {
                        let body = self.cas.get(&hash).ok_or_else(|| {
                            StoreError::Corrupt(format!(
                                "rollback target references missing blob {hash}"
                            ))
                        })?;
                        let r = decode_resource(&addr, &body).map_err(StoreError::Corrupt)?;
                        delta.puts.push(Arc::new(r));
                    }
                }
                None => {
                    if self.current_hashes.contains_key(&addr) {
                        delta.dels.push(addr);
                    }
                }
            }
        }
        let outputs = self.outputs_at(target);
        if outputs != self.current.outputs {
            delta.outputs = Some(outputs);
        }
        if delta.is_empty() {
            return Ok(None);
        }
        self.commit_next(delta, meta).map(Some)
    }

    /// The changed addresses between two versions, walking only the
    /// version records in `(from, to]` — O(delta), no materialization.
    pub fn diff_versions(&self, from: u64, to: u64) -> Result<VersionDiff, StoreError> {
        let (a, b, flipped) = if from <= to {
            (from, to, false)
        } else {
            (to, from, true)
        };
        for s in [a, b] {
            if !self.addressable(s) {
                return Err(StoreError::Corrupt(format!(
                    "serial {s} is not an addressable version"
                )));
            }
        }
        // forward walk over (a, b]: first touch fixes `before`, every
        // touch updates `after`
        let mut changed: BTreeMap<String, DiffEntry> = BTreeMap::new();
        for v in &self.versions {
            if v.serial <= a {
                continue;
            }
            if v.serial > b {
                break;
            }
            for p in &v.puts {
                changed
                    .entry(p.addr.clone())
                    .or_insert_with(|| DiffEntry {
                        addr: p.addr.clone(),
                        before: p.prev,
                        after: None,
                    })
                    .after = Some(p.hash);
            }
            for d in &v.dels {
                changed
                    .entry(d.addr.clone())
                    .or_insert_with(|| DiffEntry {
                        addr: d.addr.clone(),
                        before: Some(d.prev),
                        after: None,
                    })
                    .after = None;
            }
        }
        let mut entries: Vec<DiffEntry> = changed
            .into_values()
            .filter(|e| e.before != e.after)
            .collect();
        if flipped {
            for e in &mut entries {
                std::mem::swap(&mut e.before, &mut e.after);
            }
        }
        Ok(VersionDiff {
            from,
            to,
            changed: entries,
        })
    }

    /// Every content hash reachable from any addressable version:
    /// the current world, plus every `prev`/`hash`/`config` in version
    /// records. Compaction keeps exactly this set, and every version
    /// record, so the full copy a chain of program patches ends in is
    /// kept with the version that wrote it.
    pub(crate) fn reachable_hashes(&self) -> HashSet<ContentHash> {
        let mut keep: HashSet<ContentHash> = self.current_hashes.values().copied().collect();
        for v in &self.versions {
            for p in &v.puts {
                keep.insert(p.hash);
                if let Some(prev) = p.prev {
                    keep.insert(prev);
                }
            }
            for d in &v.dels {
                keep.insert(d.prev);
            }
            if let Some(c) = v.config {
                keep.insert(c);
            }
        }
        keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_types::{Region, ResourceAddr, ResourceId};

    pub(crate) fn res(addr: &str, name: &str) -> DeployedResource {
        let addr: ResourceAddr = addr.parse().unwrap();
        DeployedResource {
            rtype: addr.rtype.clone(),
            id: ResourceId::new("id-1"),
            region: Region::new("us-east-1"),
            attrs: [("name".to_owned(), Value::from(name))].into(),
            depends_on: vec![],
            created_at: SimTime::ZERO,
            addr,
        }
    }

    fn put(store: &mut LogStore, addr: &str, name: &str) -> u64 {
        store
            .commit(
                StateDelta {
                    puts: vec![res(addr, name)],
                    ..Default::default()
                },
                CommitMeta::bare(format!("put {addr}={name}")),
            )
            .unwrap()
    }

    #[test]
    fn commit_folds_delta_and_bumps_serial() {
        let mut store = LogStore::in_memory();
        assert_eq!(store.serial(), 0);
        assert_eq!(put(&mut store, "aws_vpc.v", "a"), 1);
        assert_eq!(put(&mut store, "aws_subnet.s", "b"), 2);
        assert_eq!(store.current().len(), 2);
        let s3 = store
            .commit(
                StateDelta {
                    dels: vec!["aws_subnet.s".into()],
                    ..Default::default()
                },
                CommitMeta::bare("drop subnet"),
            )
            .unwrap();
        assert_eq!(s3, 3);
        assert_eq!(store.current().len(), 1);
        assert_eq!(store.history().len(), 3);
    }

    #[test]
    fn unchanged_resources_are_deduped() {
        let mut store = LogStore::in_memory();
        put(&mut store, "aws_vpc.v", "same");
        let before = store.log_bytes();
        // re-put the identical resource: blob already in CAS, only the
        // (small) version record lands in the log
        put(&mut store, "aws_vpc.v", "same");
        let grew = store.log_bytes() - before;
        assert!(grew < before, "version-only append should be small");
        assert!(store.records_deduped() >= 1);
    }

    #[test]
    fn commit_if_changed_skips_noops() {
        let mut store = LogStore::in_memory();
        put(&mut store, "aws_vpc.v", "a");
        let noop = store
            .commit_if_changed(
                StateDelta {
                    puts: vec![res("aws_vpc.v", "a")],
                    ..Default::default()
                },
                CommitMeta::bare("same again"),
            )
            .unwrap();
        assert_eq!(noop, None);
        assert_eq!(store.serial(), 1);
        let real = store
            .commit_if_changed(
                StateDelta {
                    puts: vec![res("aws_vpc.v", "b")],
                    ..Default::default()
                },
                CommitMeta::bare("change"),
            )
            .unwrap();
        assert_eq!(real, Some(2));
    }

    #[test]
    fn snapshot_at_addresses_every_version() {
        let mut store = LogStore::in_memory();
        put(&mut store, "aws_vpc.v", "a");
        put(&mut store, "aws_vpc.v", "b");
        put(&mut store, "aws_subnet.s", "c");
        let v0 = store.snapshot_at(0).unwrap();
        assert!(v0.is_empty());
        let v1 = store.snapshot_at(1).unwrap();
        assert_eq!(
            v1.resources()["aws_vpc.v"].attr("name"),
            Some(&Value::from("a"))
        );
        assert_eq!(v1.len(), 1);
        let v2 = store.snapshot_at(2).unwrap();
        assert_eq!(
            v2.resources()["aws_vpc.v"].attr("name"),
            Some(&Value::from("b"))
        );
        let v3 = store.snapshot_at(3).unwrap();
        assert_eq!(v3.len(), 2);
        assert_eq!(v3, store.current().clone());
        assert!(store.snapshot_at(9).is_none());
    }

    #[test]
    fn rollback_is_o_delta_and_fixpointed() {
        let mut store = LogStore::in_memory();
        put(&mut store, "aws_vpc.v", "a");
        put(&mut store, "aws_subnet.s", "x");
        put(&mut store, "aws_vpc.v", "c");
        let rolled = store
            .rollback_to(1, CommitMeta::bare("rollback to 1"))
            .unwrap();
        assert_eq!(rolled, Some(4));
        assert_eq!(store.current().len(), 1);
        assert_eq!(
            store.current().resources()["aws_vpc.v"].attr("name"),
            Some(&Value::from("a"))
        );
        // rolling back again is a fixpoint: no new version
        let again = store
            .rollback_to(1, CommitMeta::bare("rollback to 1"))
            .unwrap();
        assert_eq!(again, None);
        assert_eq!(store.serial(), 4);
    }

    #[test]
    fn diff_versions_reads_only_deltas() {
        let mut store = LogStore::in_memory();
        put(&mut store, "aws_vpc.v", "a"); // 1
        put(&mut store, "aws_subnet.s", "x"); // 2
        put(&mut store, "aws_vpc.v", "b"); // 3
        store
            .commit(
                StateDelta {
                    dels: vec!["aws_subnet.s".into()],
                    ..Default::default()
                },
                CommitMeta::bare("del"),
            )
            .unwrap(); // 4
        let diff = store.diff_versions(1, 4).unwrap();
        assert_eq!(diff.changed.len(), 1, "{:?}", diff.changed);
        assert_eq!(diff.changed[0].addr, "aws_vpc.v");
        // subnet was created *and* deleted inside the window: no net change
        let diff = store.diff_versions(2, 4).unwrap();
        let subnet = diff
            .changed
            .iter()
            .find(|e| e.addr == "aws_subnet.s")
            .unwrap();
        assert!(subnet.before.is_some() && subnet.after.is_none());
        // reversed direction flips before/after
        let rev = store.diff_versions(4, 2).unwrap();
        let subnet = rev
            .changed
            .iter()
            .find(|e| e.addr == "aws_subnet.s")
            .unwrap();
        assert!(subnet.before.is_none() && subnet.after.is_some());
        assert!(store.diff_versions(1, 7).is_err());
    }

    #[test]
    fn reopen_replays_to_identical_state() {
        let mut store = LogStore::in_memory();
        put(&mut store, "aws_vpc.v", "a");
        put(&mut store, "aws_subnet.s", "x");
        put(&mut store, "aws_vpc.v", "b");
        let bytes = store.device.read_all().unwrap();
        let (reopened, report) =
            LogStore::open_device(Box::new(MemDevice::from_bytes(bytes))).unwrap();
        assert_eq!(report.torn_bytes_dropped, 0);
        assert_eq!(report.versions, 3);
        assert_eq!(reopened.current(), store.current());
        assert_eq!(reopened.snapshot_at(1), store.snapshot_at(1));
    }

    #[test]
    fn reopen_recovers_torn_tail() {
        let mut store = LogStore::in_memory();
        put(&mut store, "aws_vpc.v", "a");
        let good = store.device.read_all().unwrap();
        put(&mut store, "aws_vpc.v", "b");
        let mut torn = store.device.read_all().unwrap();
        torn.truncate(torn.len() - 3); // crash mid-final-record
        let (reopened, report) =
            LogStore::open_device(Box::new(MemDevice::from_bytes(torn))).unwrap();
        assert!(report.torn_bytes_dropped > 0);
        assert_eq!(reopened.torn_recoveries(), 1);
        // the damaged suffix may include whole records (the blob for "b"
        // survives, the version doesn't) — state must be *a* valid prefix
        assert!(reopened.serial() <= 2);
        // recovered length = everything before the torn record (the whole
        // first commit, plus possibly the second commit's blob line)
        assert!(reopened.log_bytes() >= good.len() as u64);
        assert!(reopened.log_bytes() < store.log_bytes());
        // and the recovery is persisted: reopening again is clean
        let bytes = {
            let mut d = reopened.device;
            d.read_all().unwrap()
        };
        let (_, report2) = LogStore::open_device(Box::new(MemDevice::from_bytes(bytes))).unwrap();
        assert_eq!(report2.torn_bytes_dropped, 0);
    }

    /// A log putting `aws_vpc.a` = "a" and `aws_vpc.b` = "b" at version 1
    /// and `aws_vpc.a` = "a2" at version 2, with one hash in version
    /// `serial`'s line swapped for another under a valid checksum: damage
    /// that only a reader checking what a put's blob holds can see.
    fn misfiled(serial: u64, from: (&str, &str), to: (&str, &str)) -> Vec<u8> {
        let mut store = LogStore::in_memory();
        let (a, b) = (res("aws_vpc.a", "a"), res("aws_vpc.b", "b"));
        let both = StateDelta {
            puts: vec![a, b],
            ..Default::default()
        };
        store.commit(both, CommitMeta::bare("both")).unwrap();
        put(&mut store, "aws_vpc.a", "a2");
        let hash = |(addr, name)| ContentHash::of(&encode_resource(&res(addr, name))).to_string();
        let text = String::from_utf8(store.device.read_all().unwrap()).unwrap();
        let mut out = String::new();
        for line in text.lines() {
            let payload = line.split_once(' ').map_or("", |(_, payload)| payload);
            if payload.starts_with("{\"Version\"")
                && payload.contains(&format!("\"serial\":{serial},"))
            {
                let payload = payload.replacen(&hash(from), &hash(to), 1);
                assert_ne!(line.split_once(' ').map(|(_, p)| p), Some(payload.as_str()));
                out.push_str(&format!(
                    "{:016x} {payload}\n",
                    crate::cas::fnv64(payload.as_bytes())
                ));
            } else {
                out.push_str(&format!("{line}\n"));
            }
        }
        out.into_bytes()
    }

    #[test]
    fn open_refuses_a_head_record_stored_under_another_address() {
        let bytes = misfiled(2, ("aws_vpc.a", "a2"), ("aws_vpc.b", "b"));
        let opened = LogStore::open_device(Box::new(MemDevice::from_bytes(bytes)));
        let err = opened.expect_err("refused").to_string();
        assert!(err.contains("aws_vpc.a is that of aws_vpc.b"), "{err}");
    }

    #[test]
    fn the_time_machine_refuses_a_record_stored_under_another_address() {
        // version 2's undo entry for a names b's record as a's at version 1
        let bytes = misfiled(2, ("aws_vpc.a", "a"), ("aws_vpc.b", "b"));
        let (mut store, _) = LogStore::open_device(Box::new(MemDevice::from_bytes(bytes))).unwrap();
        assert!(store.snapshot_at(2).is_some(), "the head is sound");
        assert_eq!(store.snapshot_at(1), None);
        let rollback = store.rollback_to(1, CommitMeta::bare("rollback"));
        assert!(rollback.is_err(), "{rollback:?}");
        assert_eq!(store.serial(), 2);
    }

    #[test]
    fn fsck_names_a_record_stored_under_another_address() {
        let bytes = misfiled(2, ("aws_vpc.a", "a2"), ("aws_vpc.b", "b"));
        let report = crate::fsck_bytes(&bytes);
        let named = |e: &String| {
            e.contains("put aws_vpc.a: the record stored under aws_vpc.a is that of aws_vpc.b")
        };
        assert!(report.errors.iter().any(named), "{}", report.render());
    }

    #[test]
    fn checkpoints_fold_in_under_policy() {
        let mut store = LogStore::in_memory();
        // 70 single-put commits with a small world trip the 64-entry floor
        for i in 0..70 {
            put(&mut store, "aws_vpc.v", &format!("n{i}"));
        }
        assert!(store.checkpoint_lag() < 70, "checkpoint should have folded");
        // replay still lands on the same state (checkpoint verified)
        let bytes = store.device.read_all().unwrap();
        let (reopened, _) = LogStore::open_device(Box::new(MemDevice::from_bytes(bytes))).unwrap();
        assert_eq!(reopened.current(), store.current());
    }

    #[test]
    fn seeded_store_diffs_against_seed() {
        let mut seed = Snapshot::new();
        seed.serial = 7;
        seed.put(res("aws_vpc.v", "a"));
        let mut store = LogStore::in_memory_seeded(seed);
        assert_eq!(store.serial(), 7);
        assert_eq!(store.current().len(), 1);
        // committing the same world is a no-op
        let target = store.current().clone();
        assert_eq!(
            store
                .commit_snapshot_if_changed(&target, CommitMeta::bare("noop"))
                .unwrap(),
            None
        );
        // a one-resource change commits a one-entry delta
        let mut target = store.current().clone();
        target.put(res("aws_vpc.v", "b"));
        let serial = store
            .commit_snapshot(&target, CommitMeta::bare("edit"))
            .unwrap();
        assert_eq!(serial, 8);
        assert_eq!(store.history().len(), 1);
        assert_eq!(store.history().latest().unwrap().delta_len(), 1);
    }

    #[test]
    fn a_program_is_recorded_as_its_edit_of_the_one_before() {
        let mut store = LogStore::in_memory();
        let commit = |store: &mut LogStore, source: &str| {
            let meta = CommitMeta {
                config_source: Some(source.to_owned()),
                ..CommitMeta::bare("apply")
            };
            store.commit(StateDelta::default(), meta).unwrap()
        };
        let block = |name: &str| format!("resource \"aws_vpc\" \"{name}\" {{}}\n");
        // é and è share their first byte, which no window may split
        let one = [block("a"), block("é"), block("c")].concat();
        let two = [block("a"), block("è"), block("c")].concat();
        commit(&mut store, &one);
        let after_first = store.log_bytes();
        commit(&mut store, &two);
        commit(&mut store, &two);
        commit(&mut store, "");

        let versions: Vec<_> = store.history().iter().collect();
        // the first program has nothing to edit: a blob, as ever
        assert!(versions[0].config.is_some() && versions[0].patch.is_none());
        // the second is the one block that changed, on a char boundary
        let patch = versions[1].patch.as_ref().expect("an edit");
        assert_eq!((versions[1].config, patch.base), (None, 1));
        assert_eq!(patch.middle, "è");
        assert_eq!(patch.prefix + "é".len() + patch.suffix, one.len());
        // unchanged: an empty window; emptied: no text for the chain's
        // two bytes to stay within, so a copy (of nothing)
        assert_eq!(versions[2].patch.as_ref().map(|p| p.middle.len()), Some(0));
        assert!(versions[3].config.is_some() && versions[3].patch.is_none());
        assert_eq!(store.blob_count(), 2);
        assert!(store.log_bytes() - after_first < 3 * 200 + one.len() as u64);

        let sources = [&one, &two, &two, ""];
        let check = |store: &LogStore| {
            for (serial, source) in (1..).zip(sources) {
                assert_eq!(store.config_source(serial).as_deref(), Some(source));
            }
            assert_eq!(store.config_source(5), None);
        };
        check(&store);
        let bytes = store.device.read_all().unwrap();
        assert!(crate::fsck_bytes(&bytes).clean());
        let (mut reopened, _) =
            LogStore::open_device(Box::new(MemDevice::from_bytes(bytes))).unwrap();
        check(&reopened);
        reopened.compact().unwrap();
        check(&reopened);
    }

    #[test]
    fn a_patch_outweighing_the_text_is_a_full_copy_again() {
        let mut store = LogStore::in_memory();
        for source in ["aaaa-1-zzzz", "aaaa-22-zzzz", "a completely different text"] {
            let meta = CommitMeta {
                config_source: Some(source.to_owned()),
                ..CommitMeta::bare("apply")
            };
            store.commit(StateDelta::default(), meta).unwrap();
        }
        let full: Vec<bool> = store.history().iter().map(|v| v.config.is_some()).collect();
        // a rewrite on top of an edit reads more than two copies: full copy
        assert_eq!(full, [true, false, true]);
        assert_eq!(
            store.config_source(3).as_deref(),
            Some("a completely different text")
        );
    }
}
