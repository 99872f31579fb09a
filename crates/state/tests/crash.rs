//! Crash-recovery integration: torn final appends are truncated and
//! survive on disk; damage anywhere else is refused loudly.

use std::path::PathBuf;

use cloudless_state::{fsck_file, CommitMeta, DeployedResource, LogStore, StateDelta, StoreError};
use cloudless_types::{ResourceId, SimTime, Value};

fn scratch_log(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cloudless-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join("state.log")
}

fn res(i: u32) -> DeployedResource {
    DeployedResource {
        addr: format!("aws_vpc.net[{i}]").parse().expect("addr"),
        id: ResourceId(format!("vpc-{i:05}")),
        rtype: "aws_vpc".into(),
        region: "us-east-1".into(),
        attrs: [(
            "cidr_block".to_owned(),
            Value::from(format!("10.{i}.0.0/16")),
        )]
        .into(),
        depends_on: Vec::new(),
        created_at: SimTime::ZERO,
    }
}

fn commit(store: &mut LogStore, i: u32) -> u64 {
    let delta = StateDelta {
        puts: vec![res(i)],
        ..StateDelta::default()
    };
    store
        .commit(delta, CommitMeta::bare(format!("put {i}")))
        .expect("commit")
}

/// Crash mid-append: the partial final record is dropped on open, the
/// truncation is persisted (a second open sees a clean log), and the
/// surviving state is exactly the previous commit.
#[test]
fn torn_final_append_recovers_and_persists() {
    let path = scratch_log("torn");
    let (mut store, _) = LogStore::open_file(&path).expect("open");
    commit(&mut store, 1);
    let serial_before_crash = commit(&mut store, 2);
    let clean_len = store.log_bytes();
    commit(&mut store, 3);
    drop(store);

    // the crash: the last commit's final bytes never reached the disk
    let full = std::fs::read(&path).expect("read");
    let chopped = full.len() - 9;
    std::fs::write(&path, &full[..chopped]).expect("chop");

    // fsck (read-only) flags the torn tail…
    let before = fsck_file(&path).expect("fsck reads");
    assert!(!before.clean());
    assert!(before.torn_tail_bytes > 0, "{}", before.render());
    assert!(before.errors.is_empty(), "torn tail is not corruption");

    // …open recovers: back to the last whole commit, truncation persisted
    let (recovered, report) = LogStore::open_file(&path).expect("recovery");
    assert!(report.torn_bytes_dropped > 0);
    assert_eq!(recovered.serial(), serial_before_crash);
    assert_eq!(recovered.torn_recoveries(), 1);
    assert_eq!(recovered.current().len(), 2);
    // the torn version line is gone; its already-flushed blob line may
    // survive as an orphan (compaction sweeps those), so the recovered
    // length sits between the last whole commit and the chop point
    assert!(recovered.log_bytes() >= clean_len);
    assert!(recovered.log_bytes() < chopped as u64);
    drop(recovered);

    let after = fsck_file(&path).expect("fsck reads");
    assert!(after.clean(), "{}", after.render());
    let (again, report) = LogStore::open_file(&path).expect("second open");
    assert_eq!(report.torn_bytes_dropped, 0, "recovery already persisted");
    assert_eq!(again.serial(), serial_before_crash);
}

/// A crash during the very first append can tear the header itself; the
/// store recovers to an empty log and re-stamps it.
#[test]
fn torn_header_recovers_to_an_empty_log() {
    let path = scratch_log("header");
    std::fs::write(&path, b"cloudless-st").expect("partial header");
    let (store, report) = LogStore::open_file(&path).expect("recovery");
    assert!(report.torn_bytes_dropped > 0);
    assert_eq!(store.serial(), 0);
    assert!(store.current().is_empty());
    drop(store);
    let fsck = fsck_file(&path).expect("fsck reads");
    assert!(fsck.clean(), "{}", fsck.render());
}

/// Damage that is *not* a torn tail — a flipped byte with valid records
/// after it — must refuse to open, not silently drop history.
#[test]
fn mid_log_damage_is_corruption_not_recovery() {
    let path = scratch_log("midlog");
    let (mut store, _) = LogStore::open_file(&path).expect("open");
    commit(&mut store, 1);
    commit(&mut store, 2);
    commit(&mut store, 3);
    drop(store);

    let mut bytes = std::fs::read(&path).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] = bytes[mid].wrapping_add(1);
    std::fs::write(&path, &bytes).expect("damage");

    let err = LogStore::open_file(&path).expect_err("must refuse");
    assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
    let fsck = fsck_file(&path).expect("fsck reads");
    assert!(!fsck.clean());
    assert!(!fsck.errors.is_empty(), "{}", fsck.render());
}
