//! Old-log compatibility and byte stability, pinned on a checked-in log.
//!
//! `fixtures/v1/` was written by the tree codec this crate used before the
//! streaming one: three versions (create three resources, edit one, delete
//! one), a checkpoint, a `config_source`, a `for_each` key, floats in
//! every rendering (`0.25`, `512.0`, `1.5e-7`, `1e21`, `-3.0`), nested and
//! empty maps and lists, and `\n` `"` `\t` `\\` `\u0001` and non-ASCII
//! text inside strings. `state.v1.json` / `state.v2.json` / `state.json`
//! are `Snapshot::to_json` of serials 1, 2 and 3 as that codec wrote them.
//!
//! Whatever writes `state.log` today must still read that log, and must
//! write the same bytes for the same values — the log's content addresses
//! and line checksums are hashes of this text.

use cloudless_state::log::{frame_into, scan, LogRecord, LOG_MAGIC};
use cloudless_state::{fsck_bytes, LogStore, MemDevice, Snapshot};

const LOG: &[u8] = include_bytes!("fixtures/v1/state.log");
const SNAPSHOTS: [(u64, &str); 3] = [
    (1, include_str!("fixtures/v1/state.v1.json")),
    (2, include_str!("fixtures/v1/state.v2.json")),
    (3, include_str!("fixtures/v1/state.json")),
];

#[test]
fn the_old_log_opens_clean_and_every_serial_materializes() {
    let report = fsck_bytes(LOG);
    assert!(report.clean(), "{}", report.render());
    assert_eq!(
        (report.blobs, report.versions, report.checkpoints),
        (5, 3, 1)
    );

    let (store, recovery) =
        LogStore::open_device(Box::new(MemDevice::from_bytes(LOG.to_vec()))).expect("opens");
    assert_eq!(recovery.torn_bytes_dropped, 0);
    assert_eq!(recovery.versions, 3);
    assert_eq!(store.log_bytes(), LOG.len() as u64);
    assert_eq!(store.checkpoint_lag(), 0);
    for (serial, recorded) in SNAPSHOTS {
        let snap = store.snapshot_at(serial).expect("addressable");
        assert_eq!(snap.to_json(), recorded, "serial {serial}");
        assert_eq!(snap, Snapshot::from_json(recorded).expect("parses"));
    }
    assert_eq!(store.current().to_json(), SNAPSHOTS[2].1);
    assert!(store
        .config_source(1)
        .expect("recorded")
        .starts_with("# ünïcode \"quoted\"\nresource"));
    assert_eq!(store.config_source(3), None);
}

#[test]
fn re_framing_each_record_reproduces_its_line() {
    let mut records: Vec<LogRecord> = Vec::new();
    let outcome = scan(LOG, |r| {
        records.push(r);
        Ok(())
    })
    .expect("clean scan");
    assert_eq!((outcome.records, outcome.torn_bytes), (9, 0), "{outcome:?}");
    let mut rewritten = format!("{LOG_MAGIC}\n");
    for record in &records {
        frame_into(&mut rewritten, record.into());
    }
    assert_eq!(
        rewritten,
        std::str::from_utf8(LOG).expect("the log is utf-8")
    );
}
