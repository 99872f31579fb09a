//! Log compaction: rewrite the device dropping dead weight while keeping
//! every version point-in-time addressable.
//!
//! What compaction removes:
//! * **orphaned blobs** — content no version references anymore (possible
//!   after crash recovery leaves a blob whose version record was torn);
//! * **redundant checkpoints** — the old log may carry many interim
//!   checkpoints; the rewrite re-folds them at policy boundaries only;
//! * **append-order scatter** — blobs are re-laid out immediately before
//!   the first version that references them, so replaying a prefix never
//!   reads ahead.
//!
//! What compaction must NOT remove: any version record, or any blob a
//! version's `puts`/`prev`/`dels`/`config` references — that is exactly
//! the `LogStore::reachable_hashes` set, and it is what keeps
//! `snapshot_at` working for *all* serials after compaction. A program
//! patch lives inside its version record and names its base by serial, so
//! re-emitting every record keeps every chain, and the full copy a chain
//! ends in is that version's `config`. The rewrite goes through
//! [`crate::log::LogDevice::replace`] (temp file + rename on the file
//! device), so a crash mid-compaction leaves either the old or the new
//! log, never a blend.

use std::collections::HashSet;

use crate::cas::ContentHash;
use crate::log::{frame_into, BlobRecord, CheckpointRecord, Framed, StoreError, LOG_MAGIC};
use crate::store::LogStore;

/// What a compaction pass did.
#[derive(Debug, Clone, Default)]
pub struct CompactReport {
    pub bytes_before: u64,
    pub bytes_after: u64,
    /// Blobs unreachable from any version, dropped from log and index.
    pub blobs_dropped: usize,
    /// Checkpoint records in the rewritten log.
    pub checkpoints: usize,
}

impl LogStore {
    /// Rewrite the log in place (atomically) per the module rules.
    pub fn compact(&mut self) -> Result<CompactReport, StoreError> {
        let bytes_before = self.log_bytes;
        let keep = self.reachable_hashes();

        let mut out = format!("{LOG_MAGIC}\n");
        let mut written: HashSet<ContentHash> = HashSet::new();
        let mut entries_since_checkpoint = 0usize;
        // replay our own versions, emitting each blob right before its
        // first referencing version, and folding checkpoints as we go
        let mut world: std::collections::BTreeMap<String, ContentHash> =
            std::collections::BTreeMap::new();
        let mut checkpoints = 0usize;
        let emit_blob = |out: &mut String,
                         written: &mut HashSet<ContentHash>,
                         cas: &crate::cas::Cas,
                         hash: ContentHash|
         -> Result<(), StoreError> {
            if written.contains(&hash) {
                return Ok(());
            }
            let body = cas
                .get(&hash)
                .ok_or_else(|| StoreError::Corrupt(format!("missing blob {hash} in compaction")))?
                .to_shared()
                .map_err(StoreError::Corrupt)?;
            frame_into(out, Framed::Blob(&BlobRecord { hash, body }));
            written.insert(hash);
            Ok(())
        };
        for v in &self.versions {
            for p in &v.puts {
                emit_blob(&mut out, &mut written, &self.cas, p.hash)?;
                if let Some(prev) = p.prev {
                    emit_blob(&mut out, &mut written, &self.cas, prev)?;
                }
            }
            for d in &v.dels {
                emit_blob(&mut out, &mut written, &self.cas, d.prev)?;
            }
            if let Some(c) = v.config {
                emit_blob(&mut out, &mut written, &self.cas, c)?;
            }
            frame_into(&mut out, Framed::Version(v));
            for p in &v.puts {
                world.insert(p.addr.clone(), p.hash);
            }
            for d in &v.dels {
                world.remove(&d.addr);
            }
            entries_since_checkpoint += v.delta_len();
            if CheckpointRecord::due(entries_since_checkpoint, world.len()) {
                let fold = CheckpointRecord {
                    serial: v.serial,
                    entries: world.iter().map(|(a, h)| (a.clone(), *h)).collect(),
                    outputs: v.outputs.clone(),
                };
                frame_into(&mut out, Framed::Checkpoint(&fold));
                entries_since_checkpoint = 0;
                checkpoints += 1;
            }
        }
        // seeded stores carry world content with no version records; their
        // blobs still need to survive the rewrite
        for (_, hash) in self.current.hashes() {
            emit_blob(&mut out, &mut written, &self.cas, hash)?;
        }
        // close with a head checkpoint (unless the policy fold already
        // landed exactly at the head) so reopen/fsck never replay a tail
        let at_head = world.iter().map(|(a, h)| (a, *h)).eq(self.current.hashes());
        if entries_since_checkpoint > 0 || checkpoints == 0 || !at_head {
            let head = CheckpointRecord {
                serial: self.current.serial,
                entries: (self.current.hashes())
                    .map(|(a, h)| (a.clone(), h))
                    .collect(),
                outputs: self.current.outputs.clone(),
            };
            frame_into(&mut out, Framed::Checkpoint(&head));
            checkpoints += 1;
        }

        self.device.replace(out.as_bytes())?;
        self.log_bytes = out.len() as u64;
        let blobs_dropped = self.cas.retain(&keep);
        self.entries_since_checkpoint = 0;
        self.versions_since_checkpoint = 0;

        self.recorder.counter("state.compactions", 1);
        self.recorder
            .gauge("state.log_bytes", self.log_bytes as f64);
        self.recorder.gauge("state.checkpoint_lag", 0.0);
        Ok(CompactReport {
            bytes_before,
            bytes_after: self.log_bytes,
            blobs_dropped,
            checkpoints,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::MemDevice;
    use crate::store::{CommitMeta, StateDelta};
    use crate::Snapshot;
    use cloudless_types::{Region, ResourceAddr, ResourceId, SimTime, Value};

    fn res(addr: &str, name: &str) -> crate::DeployedResource {
        let addr: ResourceAddr = addr.parse().unwrap();
        crate::DeployedResource {
            rtype: addr.rtype.clone(),
            id: ResourceId::new("id-1"),
            region: Region::new("us-east-1"),
            attrs: [("name".to_owned(), Value::from(name))].into(),
            depends_on: vec![],
            created_at: SimTime::ZERO,
            addr,
        }
    }

    fn put(store: &mut LogStore, addr: &str, name: &str) {
        store
            .commit(
                StateDelta {
                    puts: vec![res(addr, name)],
                    ..Default::default()
                },
                CommitMeta::bare(format!("put {addr}")),
            )
            .unwrap();
    }

    #[test]
    fn compaction_preserves_all_versions_and_reopens() {
        let mut store = LogStore::in_memory();
        for i in 0..40 {
            put(&mut store, "aws_vpc.v", &format!("n{i}"));
            put(
                &mut store,
                &format!("aws_subnet.s{}", i % 5),
                &format!("m{i}"),
            );
        }
        let wanted: Vec<Snapshot> = (0..=store.serial())
            .map(|s| store.snapshot_at(s).unwrap())
            .collect();
        let report = store.compact().unwrap();
        assert!(report.checkpoints >= 1);
        // nothing here is droppable, so the rewrite may grow by at most
        // the head checkpoint it adds — never more
        assert!(report.bytes_after <= report.bytes_before + 2_000);
        // every historical serial still materializes identically
        for (s, want) in wanted.iter().enumerate() {
            assert_eq!(
                store.snapshot_at(s as u64).as_ref(),
                Some(want),
                "serial {s}"
            );
        }
        // and survives a reopen of the rewritten bytes
        let bytes = store.device.read_all().unwrap();
        let (reopened, report) =
            LogStore::open_device(Box::new(MemDevice::from_bytes(bytes))).unwrap();
        assert_eq!(report.torn_bytes_dropped, 0);
        assert_eq!(reopened.current(), store.current());
        for (s, want) in wanted.iter().enumerate() {
            assert_eq!(reopened.snapshot_at(s as u64).as_ref(), Some(want));
        }
        assert_eq!(reopened.checkpoint_lag(), 0);
    }

    /// On disk, compaction renames a synced temp file over the log: none is
    /// left behind, the log it leaves is clean, and it reopens to the same
    /// world.
    #[test]
    fn a_file_compaction_leaves_a_clean_log_and_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("cloudless-compact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.log");
        std::fs::remove_file(&path).ok();
        let (mut store, _) = LogStore::open_file(&path).unwrap();
        for i in 0..40 {
            put(
                &mut store,
                &format!("aws_subnet.s{}", i % 5),
                &format!("m{i}"),
            );
        }
        store.compact().unwrap();
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["state.log"], "a temp file is left: {names:?}");
        let fsck = crate::fsck_file(&path).unwrap();
        assert!(fsck.clean(), "{}", fsck.render());
        let (reopened, recovery) = LogStore::open_file(&path).unwrap();
        assert_eq!(recovery.torn_bytes_dropped, 0);
        assert_eq!(reopened.current(), store.current());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_drops_orphaned_blobs() {
        let mut store = LogStore::in_memory();
        put(&mut store, "aws_vpc.v", "kept");
        // orphan: a blob in the CAS that no record references (as crash
        // recovery can leave behind when the version append was torn)
        store
            .cas
            .insert("orphaned body that nothing references".into());
        let blobs_before = store.blob_count();
        let report = store.compact().unwrap();
        assert_eq!(report.blobs_dropped, 1);
        assert_eq!(store.blob_count(), blobs_before - 1);
        assert_eq!(
            store.current().resources()["aws_vpc.v"].attr("name"),
            Some(&Value::from("kept"))
        );
    }

    #[test]
    fn compacting_empty_store_yields_reopenable_log() {
        let mut store = LogStore::in_memory();
        let report = store.compact().unwrap();
        assert_eq!(report.checkpoints, 1);
        let bytes = store.device.read_all().unwrap();
        let (reopened, _) = LogStore::open_device(Box::new(MemDevice::from_bytes(bytes))).unwrap();
        assert!(reopened.current().is_empty());
    }
}
