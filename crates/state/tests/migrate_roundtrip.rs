//! Migration round-trip: a legacy session directory (full-JSON
//! `state.json` + `history.json`) replayed into the delta log must
//! materialize every historical version byte-identically.

use std::path::PathBuf;

use cloudless_state::{
    fsck_file, migrate_dir, DeployedResource, LegacyHistoryEntry, LogStore, Snapshot,
};
use cloudless_types::{ResourceId, SimTime, Value};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cloudless-migrate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn res(name: &str, rev: u32) -> DeployedResource {
    DeployedResource {
        addr: format!("aws_s3_bucket.{name}").parse().expect("addr"),
        id: ResourceId(format!("id-{name}")),
        rtype: "aws_s3_bucket".into(),
        region: "eu-west-1".into(),
        attrs: [
            ("bucket".to_owned(), Value::from(name.to_owned())),
            ("acl".to_owned(), Value::from(format!("rev-{rev}"))),
        ]
        .into(),
        depends_on: Vec::new(),
        created_at: SimTime(u64::from(rev)),
    }
}

/// A three-version legacy history: create two buckets, mutate one, drop
/// one — exercising puts, updates, and deletes across the replay.
fn legacy_history() -> Vec<LegacyHistoryEntry> {
    let mut v1 = Snapshot::new();
    v1.serial = 1;
    v1.put(res("alpha", 1));
    v1.put(res("beta", 1));
    let mut v2 = v1.clone();
    v2.serial = 2;
    v2.put(res("beta", 2));
    v2.outputs
        .insert("endpoint".to_owned(), Value::from("beta.v2"));
    let mut v3 = v2.clone();
    v3.serial = 3;
    v3.remove(&"aws_s3_bucket.alpha".parse().unwrap());
    [(1, v1), (2, v2), (3, v3)]
        .into_iter()
        .map(|(serial, snapshot)| LegacyHistoryEntry {
            serial,
            at: SimTime(serial * 100),
            author: format!("author-{serial}"),
            message: format!("apply #{serial}"),
            config_source: format!("# config v{serial}\n"),
            snapshot,
        })
        .collect()
}

#[test]
fn every_version_materializes_byte_identically() {
    let dir = scratch_dir("roundtrip");
    let entries = legacy_history();
    let current = entries.last().unwrap().snapshot.clone();
    std::fs::write(dir.join("state.json"), current.to_json()).unwrap();
    std::fs::write(
        dir.join("history.json"),
        serde_json::to_string_pretty(&entries).unwrap(),
    )
    .unwrap();

    let report = migrate_dir(&dir).expect("migration succeeds");
    assert_eq!(report.versions, 3);
    assert_eq!(report.resources, 1, "v3 kept only beta");

    let (store, recovery) = LogStore::open_file(&dir.join("state.log")).expect("open migrated");
    assert_eq!(recovery.torn_bytes_dropped, 0);
    assert_eq!(store.serial(), 3);
    for e in &entries {
        let snap = store.snapshot_at(e.serial).expect("serial addressable");
        assert_eq!(
            snap.to_json(),
            e.snapshot.to_json(),
            "serial {} must round-trip byte-identically",
            e.serial
        );
        let v = store.history().by_serial(e.serial).expect("metadata kept");
        assert_eq!(v.author, e.author);
        assert_eq!(v.message, e.message);
        assert_eq!(v.at, e.at);
        assert_eq!(
            store.config_source(e.serial).as_deref(),
            Some(e.config_source.as_str()),
            "config source survives as a CAS blob"
        );
    }

    let fsck = fsck_file(&dir.join("state.log")).expect("fsck reads");
    assert!(fsck.clean(), "{}", fsck.render());
}

#[test]
fn migration_refuses_to_run_twice() {
    let dir = scratch_dir("twice");
    std::fs::write(dir.join("state.json"), Snapshot::new().to_json()).unwrap();
    migrate_dir(&dir).expect("first migration");
    let err = migrate_dir(&dir).expect_err("second migration must refuse");
    assert!(err.contains("already migrated"), "{err}");
}

#[test]
fn history_less_sessions_migrate_to_a_single_version() {
    let dir = scratch_dir("bare");
    let mut state = Snapshot::new();
    state.serial = 7;
    state.put(res("solo", 1));
    std::fs::write(dir.join("state.json"), state.to_json()).unwrap();

    let report = migrate_dir(&dir).expect("migration succeeds");
    assert_eq!(report.versions, 1);
    let (store, _) = LogStore::open_file(&dir.join("state.log")).expect("open");
    assert_eq!(store.serial(), 7, "the legacy serial is preserved");
    assert_eq!(store.current().len(), 1);
    assert_eq!(
        store.snapshot_at(7).expect("addressable").to_json(),
        store.current().to_json()
    );
}

#[test]
fn failed_migration_leaves_no_state_log_behind() {
    let dir = scratch_dir("fail");
    let mut bad = legacy_history();
    bad[2].serial = 2; // duplicate serial: not strictly increasing
    let current = bad.last().unwrap().snapshot.clone();
    std::fs::write(dir.join("state.json"), current.to_json()).unwrap();
    std::fs::write(
        dir.join("history.json"),
        serde_json::to_string_pretty(&bad).unwrap(),
    )
    .unwrap();
    migrate_dir(&dir).expect_err("duplicate serials are rejected");
    assert!(
        !dir.join("state.log").exists(),
        "a failed migration must not leave the directory claiming it migrated"
    );
}
