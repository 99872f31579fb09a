//! One-shot migration from the legacy full-JSON layout to the log store.
//!
//! Legacy session directories hold `state.json` (the current snapshot)
//! and, when the time machine was exported, `history.json` (an array of
//! `{serial, at, author, message, config_source, snapshot}` checkpoints,
//! each with a *full* world snapshot). `migrate_dir` replays those
//! checkpoints oldest-first into a fresh `state.log`, preserving exact
//! serials, so every historical version materializes byte-identically
//! (`Snapshot::to_json`) out of the log afterwards — but stored as
//! deltas, not worlds. The legacy files are left untouched; the presence
//! of `state.log` is what flips readers over.

use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::snapshot::Snapshot;
use crate::store::{CommitMeta, LogStore};

/// A legacy time-machine checkpoint, as `history.json` stored it: one
/// full snapshot per version.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LegacyHistoryEntry {
    pub serial: u64,
    pub at: cloudless_types::SimTime,
    pub author: String,
    pub message: String,
    pub config_source: String,
    pub snapshot: Snapshot,
}

/// What the migration produced.
#[derive(Debug, Clone, Default)]
pub struct MigrateReport {
    /// Versions committed into the log.
    pub versions: usize,
    /// Resources in the final (current) state.
    pub resources: usize,
    /// Size of the new `state.log`.
    pub log_bytes: u64,
}

/// Migrate a legacy session directory to the log store. Refuses to run
/// twice (a `state.log` already present means the directory is migrated).
pub fn migrate_dir(dir: &Path) -> Result<MigrateReport, String> {
    let state_path = dir.join("state.json");
    let log_path = dir.join("state.log");
    if log_path.exists() {
        return Err(format!(
            "{} already migrated (state.log exists)",
            dir.display()
        ));
    }
    let state_text = std::fs::read_to_string(&state_path)
        .map_err(|e| format!("cannot read {}: {e}", state_path.display()))?;
    let state = Snapshot::from_json(&state_text).map_err(|e| format!("state.json corrupt: {e}"))?;

    let mut entries: Vec<LegacyHistoryEntry> = Vec::new();
    let history_path = dir.join("history.json");
    if history_path.exists() {
        let text = std::fs::read_to_string(&history_path)
            .map_err(|e| format!("cannot read {}: {e}", history_path.display()))?;
        entries = serde_json::from_str(&text).map_err(|e| format!("history.json corrupt: {e}"))?;
        entries.sort_by_key(|e| e.serial);
    }

    let result = migrate_into(&log_path, &entries, &state);
    if result.is_err() {
        // don't leave a half-written log claiming the directory migrated
        let _ = std::fs::remove_file(&log_path);
    }
    result
}

fn migrate_into(
    log_path: &Path,
    entries: &[LegacyHistoryEntry],
    state: &Snapshot,
) -> Result<MigrateReport, String> {
    let (mut store, _) = LogStore::open_file(log_path).map_err(|e| e.to_string())?;
    for e in entries {
        if !store.history().is_empty() && e.serial <= store.serial() {
            return Err(format!(
                "history.json serials are not strictly increasing at serial {}",
                e.serial
            ));
        }
        store
            .commit_snapshot_as(
                &e.snapshot,
                CommitMeta {
                    at: e.at,
                    author: e.author.clone(),
                    message: e.message.clone(),
                    config_source: Some(e.config_source.clone()),
                },
            )
            .map_err(|err| format!("replaying serial {}: {err}", e.serial))?;
    }
    // fold in the current state if it moved past the last checkpoint
    if state.serial > store.serial() {
        store
            .commit_snapshot_as(state, CommitMeta::bare("migrate: current state"))
            .map_err(|e| format!("replaying current state: {e}"))?;
    } else if state != store.current() {
        store
            .commit_snapshot(state, CommitMeta::bare("migrate: current state"))
            .map_err(|e| format!("replaying current state: {e}"))?;
    }
    Ok(MigrateReport {
        versions: store.history().len(),
        resources: store.current().len(),
        log_bytes: store.log_bytes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cloudless-migrate-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn legacy_session(dir: &Path) -> Vec<LegacyHistoryEntry> {
        let mut snap = Snapshot::new();
        let mut entries = Vec::new();
        for (i, (addr, name)) in [
            ("aws_vpc.main", "v1"),
            ("aws_subnet.a", "s1"),
            ("aws_vpc.main", "v2"),
        ]
        .iter()
        .enumerate()
        {
            snap.put(res(addr, name));
            snap.serial = i as u64 + 1;
            if *addr == "aws_vpc.main" && i == 2 {
                snap.outputs.insert("vpc".into(), Value::from(*name));
            }
            entries.push(LegacyHistoryEntry {
                serial: snap.serial,
                at: SimTime((i as u64 + 1) * 100),
                author: "alice".into(),
                message: format!("apply {i}"),
                config_source: format!("config rev {i}"),
                snapshot: snap.clone(),
            });
        }
        std::fs::write(dir.join("state.json"), snap.to_json()).unwrap();
        std::fs::write(
            dir.join("history.json"),
            serde_json::to_string_pretty(&entries).unwrap(),
        )
        .unwrap();
        entries
    }

    #[test]
    fn migration_round_trips_every_version_byte_identically() {
        let dir = tmpdir("roundtrip");
        let entries = legacy_session(&dir);
        let report = migrate_dir(&dir).expect("migrate");
        assert_eq!(report.versions, 3);
        assert_eq!(report.resources, 2);
        let (store, rec) = LogStore::open_file(&dir.join("state.log")).unwrap();
        assert_eq!(rec.torn_bytes_dropped, 0);
        for e in &entries {
            let got = store.snapshot_at(e.serial).expect("addressable");
            assert_eq!(
                got.to_json(),
                e.snapshot.to_json(),
                "serial {} must be byte-identical",
                e.serial
            );
        }
        // and the current state matches state.json
        let state_text = std::fs::read_to_string(dir.join("state.json")).unwrap();
        assert_eq!(store.current().to_json(), state_text);
        // metadata survived too
        assert_eq!(store.history().by_serial(2).unwrap().author, "alice");
        assert_eq!(store.config_source(2).as_deref(), Some("config rev 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn migration_refuses_to_run_twice() {
        let dir = tmpdir("twice");
        legacy_session(&dir);
        migrate_dir(&dir).expect("first migrate");
        let err = migrate_dir(&dir).unwrap_err();
        assert!(err.contains("already migrated"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn migration_without_history_takes_current_state() {
        let dir = tmpdir("nohistory");
        let mut snap = Snapshot::new();
        snap.put(res("aws_vpc.main", "only"));
        snap.serial = 4;
        std::fs::write(dir.join("state.json"), snap.to_json()).unwrap();
        let report = migrate_dir(&dir).expect("migrate");
        assert_eq!(report.versions, 1);
        let (store, _) = LogStore::open_file(&dir.join("state.log")).unwrap();
        assert_eq!(store.current().to_json(), snap.to_json());
        assert_eq!(store.serial(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_history_record_under_another_address_is_refused() {
        let dir = tmpdir("misfiled");
        legacy_session(&dir);
        let path = dir.join("history.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let misfiled = text.replacen("\"aws_subnet.a\"", "\"aws_subnet.b\"", 1);
        assert_ne!(misfiled, text);
        std::fs::write(&path, misfiled).unwrap();
        let err = migrate_dir(&dir).unwrap_err();
        assert!(err.starts_with("history.json corrupt"), "{err}");
        assert!(err.contains("is that of aws_subnet.a"), "{err}");
        assert!(!dir.join("state.log").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn migration_errors_leave_no_log_behind() {
        let dir = tmpdir("cleanup");
        std::fs::write(dir.join("state.json"), "{not json").unwrap();
        assert!(migrate_dir(&dir).is_err());
        assert!(!dir.join("state.log").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
