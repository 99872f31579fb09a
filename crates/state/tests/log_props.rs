//! Property tests on the log-structured store: arbitrary commit
//! sequences replayed against an in-memory model, compaction and
//! crash-truncation preserving every addressable version, the rollback
//! fixpoint, and the program of every version surviving every path a
//! version can take.
//!
//! Each case drives a *file-backed* store in a scratch directory so the
//! reopen/recovery paths under test are the exact ones production
//! sessions use.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cloudless_state::log::MAX_PATCH_CHAIN;
use cloudless_state::{fsck_bytes, CommitMeta, DeployedResource, LogStore, Snapshot, StateDelta};
use cloudless_types::{ResourceId, SimTime, Value};
use proptest::prelude::*;

/// One generated commit: resource puts (index, revision), deletes
/// (index), and optionally replacement outputs.
type Op = (Vec<(u8, u8)>, Vec<u8>, Option<u8>);

fn addr(i: u8) -> String {
    format!("aws_s3_bucket.b[{i}]")
}

fn res(i: u8, rev: u8) -> DeployedResource {
    DeployedResource {
        addr: addr(i).parse().expect("addr"),
        id: ResourceId(format!("b-{i:04}")),
        rtype: "aws_s3_bucket".into(),
        region: "us-east-1".into(),
        attrs: [
            ("bucket".to_owned(), Value::from(format!("b-{i}"))),
            ("acl".to_owned(), Value::from(format!("rev-{rev}"))),
        ]
        .into(),
        depends_on: Vec::new(),
        created_at: SimTime::ZERO,
    }
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0u8..12, 0u8..4), 0..4),
            proptest::collection::vec(0u8..12, 0..3),
            (0u8..6).prop_map(|o| if o < 3 { Some(o) } else { None }),
        ),
        1..12,
    )
}

/// A scratch log path unique to this process + case.
fn scratch_log() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cloudless-log-props-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join("state.log")
}

/// The reference model: what the world should look like after each
/// committed version.
#[derive(Clone, Debug, PartialEq)]
struct Model {
    resources: BTreeMap<String, Arc<DeployedResource>>,
    outputs: BTreeMap<String, Value>,
}

/// Apply every op to a fresh file-backed store and the model in
/// lockstep; returns the store plus the model as of each committed
/// serial.
fn drive(path: &Path, ops: &[Op]) -> (LogStore, Vec<(u64, Model)>) {
    let (mut store, recovery) = LogStore::open_file(path).expect("open");
    assert_eq!(recovery.torn_bytes_dropped, 0);
    let mut model = Model {
        resources: BTreeMap::new(),
        outputs: BTreeMap::new(),
    };
    let mut committed = Vec::new();
    for (puts, dels, outputs) in ops {
        let mut delta = StateDelta::default();
        for (i, rev) in puts {
            delta.puts.push(res(*i, *rev));
        }
        for i in dels {
            delta.dels.push(addr(*i));
        }
        if let Some(o) = outputs {
            delta.outputs = Some([("gen".to_owned(), Value::from(format!("o-{o}")))].into());
        }
        // model mirrors the store's delta semantics: all puts apply in
        // order, then all deletes
        for r in &delta.puts {
            model
                .resources
                .insert(r.addr.to_string(), Arc::new(r.clone()));
        }
        for a in &delta.dels {
            model.resources.remove(a);
        }
        if let Some(o) = &delta.outputs {
            model.outputs = o.clone();
        }
        if let Some(serial) = store
            .commit_if_changed(delta, CommitMeta::bare("prop"))
            .expect("commit")
        {
            committed.push((serial, model.clone()));
        }
    }
    (store, committed)
}

fn assert_matches_model(snap: &Snapshot, model: &Model) {
    assert_eq!(snap.resources(), &model.resources);
    assert_eq!(snap.outputs, model.outputs);
}

proptest! {
    /// Replay equivalence: the live fold, the model, and a from-scratch
    /// reopen all agree — on the head world and on every historical
    /// version.
    #[test]
    fn random_commit_sequences_replay_to_the_model(ops in ops()) {
        let path = scratch_log();
        let (store, committed) = drive(&path, &ops);
        if let Some((serial, model)) = committed.last() {
            prop_assert_eq!(store.serial(), *serial);
            assert_matches_model(store.current(), model);
        }
        let (reopened, recovery) = LogStore::open_file(&path).expect("reopen");
        prop_assert_eq!(recovery.torn_bytes_dropped, 0);
        prop_assert_eq!(reopened.serial(), store.serial());
        assert_matches_model(reopened.current(), &Model {
            resources: store.current().resources().clone(),
            outputs: store.current().outputs.clone(),
        });
        for (serial, model) in &committed {
            let snap = reopened.snapshot_at(*serial).expect("addressable");
            assert_matches_model(&snap, model);
        }
    }

    /// Compaction preserves every addressable version, survives a
    /// reopen, and leaves a log fsck calls clean.
    #[test]
    fn compaction_preserves_every_addressable_version(ops in ops()) {
        let path = scratch_log();
        let (mut store, committed) = drive(&path, &ops);
        store.compact().expect("compact");
        for (serial, model) in &committed {
            let snap = store.snapshot_at(*serial).expect("addressable after compact");
            assert_matches_model(&snap, model);
        }
        let (reopened, _) = LogStore::open_file(&path).expect("reopen after compact");
        prop_assert_eq!(reopened.serial(), store.serial());
        for (serial, model) in &committed {
            let snap = reopened.snapshot_at(*serial).expect("addressable after reopen");
            assert_matches_model(&snap, model);
        }
        let report = fsck_bytes(&std::fs::read(&path).expect("read log"));
        prop_assert!(report.clean(), "{}", report.render());
    }

    /// Rollback restores the target world exactly, and rolling back (or
    /// re-committing the target snapshot) again is a no-op fixpoint.
    #[test]
    fn rollback_then_recommit_is_a_fixpoint(ops in ops(), pick in 0usize..64) {
        let path = scratch_log();
        let (mut store, committed) = drive(&path, &ops);
        // target any committed serial, or 0 = the empty pre-history world
        let (target, model) = match committed.get(pick % (committed.len() + 1)) {
            Some((serial, model)) => (*serial, model.clone()),
            None => (0, Model { resources: BTreeMap::new(), outputs: BTreeMap::new() }),
        };
        store
            .rollback_to(target, CommitMeta::bare("prop rollback"))
            .expect("target is addressable");
        assert_matches_model(store.current(), &model);
        // fixpoint: the world already matches the target
        prop_assert_eq!(
            store
                .rollback_to(target, CommitMeta::bare("again"))
                .expect("still addressable"),
            None
        );
        let target_snap = store.snapshot_at(target).expect("still addressable");
        prop_assert_eq!(
            store
                .commit_snapshot_if_changed(&target_snap, CommitMeta::bare("recommit"))
                .expect("commit"),
            None
        );
    }

    /// Crash-truncating the log at *any* byte recovers to a valid prefix
    /// of history: open succeeds, the head matches the model at whatever
    /// serial survived, and the recovered file fscks clean.
    #[test]
    fn truncation_at_any_byte_recovers_a_prefix(ops in ops(), cut in 1u64..5_000) {
        let path = scratch_log();
        let (store, committed) = drive(&path, &ops);
        let full = std::fs::read(&path).expect("read log");
        prop_assert_eq!(full.len() as u64, store.log_bytes());
        drop(store);
        let keep = (full.len() as u64).saturating_sub(cut).max(1);
        std::fs::write(&path, &full[..keep as usize]).expect("truncate");

        let (reopened, _) = LogStore::open_file(&path).expect("recovery");
        let serial = reopened.serial();
        match committed.iter().find(|(s, _)| *s == serial) {
            Some((_, model)) => assert_matches_model(reopened.current(), model),
            None => {
                // only the empty pre-history world has no committed model
                prop_assert_eq!(serial, 0);
                prop_assert!(reopened.current().is_empty());
            }
        }
        drop(reopened);
        let report = fsck_bytes(&std::fs::read(&path).expect("read recovered"));
        prop_assert!(report.clean(), "{}", report.render());
    }
}

// ------------------------------------------------------------ the program

/// What block values are drawn from: characters that share a leading byte
/// (`é` `è`, C3 ..) or a trailing one (`é` `ĩ`, .. A9), so the longest
/// common head or tail of two programs often ends inside a character.
const GLYPHS: [&str; 7] = ["a", "b", "é", "è", "ĩ", "日", "😀"];

fn glyphs(a: u8, b: u8) -> String {
    let pick = |n: u8| GLYPHS[usize::from(n) % GLYPHS.len()];
    match b % 3 {
        0 => pick(a).to_owned(),
        1 => format!("{}{}", pick(a), pick(b)),
        _ => format!("{}x{}", pick(b), pick(a)),
    }
}

/// The program whose block `i` says `values[i]`.
fn program(values: &[String]) -> String {
    let blocks = values.iter().enumerate();
    let blocks = blocks.map(|(i, v)| format!("resource \"t\" \"r{i}\" {{\n  name = \"{v}\"\n}}\n"));
    format!("# ünïcode\n{}", blocks.collect::<String>())
}

/// One step: what to do, two free parameters, and the delta a commit
/// carries.
type Step = (u8, (u8, u8), Op);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let op = (
        proptest::collection::vec((0u8..12, 0u8..4), 0..3),
        proptest::collection::vec(0u8..12, 0..2),
        (0u8..6).prop_map(|o| if o < 3 { Some(o) } else { None }),
    );
    proptest::collection::vec((0u8..16, (any::<u8>(), any::<u8>()), op), 1..24)
}

fn delta_of((puts, dels, outputs): &Op) -> StateDelta {
    StateDelta {
        puts: puts.iter().map(|(i, rev)| res(*i, *rev)).collect(),
        dels: dels.iter().map(|i| addr(*i)).collect(),
        outputs: outputs.map(|o| [("gen".to_owned(), Value::from(format!("o-{o}")))].into()),
    }
}

fn with_program(source: Option<String>) -> CommitMeta {
    CommitMeta {
        config_source: source,
        ..CommitMeta::bare("prop")
    }
}

/// Every committed serial still says the program it was committed with,
/// the log is clean, and no version's chain of patches is longer or
/// heavier than the store promises.
fn assert_programs(store: &LogStore, path: &Path, committed: &[(u64, Option<String>)]) {
    for (serial, source) in committed {
        assert_eq!(
            store.config_source(*serial).as_deref(),
            source.as_deref(),
            "serial {serial}"
        );
        assert!(store.snapshot_at(*serial).is_some(), "serial {serial}");
    }
    assert_eq!(store.history().len(), committed.len());
    let report = fsck_bytes(&std::fs::read(path).expect("read log"));
    assert!(report.clean(), "{}", report.render());
    for v in store.history() {
        let (mut links, mut weight, mut at) = (0, 0, v);
        while let Some(patch) = &at.patch {
            links += 1;
            weight += patch.middle.len();
            at = store
                .history()
                .by_serial(patch.base)
                .expect("the base is kept");
            assert!(at.serial < v.serial && (at.config.is_some() || at.patch.is_some()));
        }
        let text = store.config_source(v.serial).map_or(0, |t| t.len());
        assert!(
            links <= MAX_PATCH_CHAIN,
            "serial {}: {links} patches",
            v.serial
        );
        assert!(weight <= text, "serial {}: {weight} > {text}", v.serial);
    }
}

proptest! {
    /// Random program texts — a one-block edit, edits at both ends, the
    /// same text, the empty text, none at all, a full rewrite, multi-byte
    /// characters on the window's edges — committed with random deltas
    /// and interleaved with reopen, compaction, rollback, a migration
    /// commit and a torn tail. After every step each serial's program is
    /// the one committed, and the log is clean.
    #[test]
    fn the_program_survives_every_path_a_version_does(steps in steps()) {
        let path = scratch_log();
        let (mut store, _) = LogStore::open_file(&path).expect("open");
        let mut values: Vec<String> = (0..5u8).map(|i| glyphs(i, i)).collect();
        let mut committed: Vec<(u64, Option<String>)> = Vec::new();
        for (kind, (a, b), op) in &steps {
            let block = usize::from(*a) % values.len();
            match kind {
                // a commit, most of them a one-block edit
                0..=9 => {
                    let source = match kind {
                        0..=3 => {
                            values[block] = glyphs(*a, *b);
                            Some(program(&values))
                        }
                        4 => {
                            let last = values.len() - 1;
                            values[0] = glyphs(*a, *b);
                            values[last] = glyphs(*b, *a);
                            Some(program(&values))
                        }
                        5 => Some(program(&values)),
                        6 => Some(String::new()),
                        7 => None,
                        8 => Some(format!("# rewritten {a}\nlocals {{ {} = {b} }}\n", glyphs(*b, *a))),
                        _ => {
                            // the window's edges inside shared bytes: é→è
                            // shares its first byte, é→ĩ its last
                            values[block] = ["é", "è", "ĩ"][usize::from(*b) % 3].repeat(1 + block % 2);
                            Some(program(&values))
                        }
                    };
                    let serial = store.commit(delta_of(op), with_program(source.clone())).expect("commit");
                    committed.push((serial, source));
                }
                10 | 11 => {
                    drop(store);
                    let (reopened, recovery) = LogStore::open_file(&path).expect("reopen");
                    prop_assert_eq!(recovery.torn_bytes_dropped, 0);
                    store = reopened;
                }
                12 => {
                    store.compact().expect("compact");
                }
                13 => {
                    let target = match committed.get(usize::from(*a) % (committed.len() + 1)) {
                        Some((serial, _)) => *serial,
                        None => 0,
                    };
                    let rolled = store.rollback_to(target, with_program(None)).expect("addressable");
                    committed.extend(rolled.map(|serial| (serial, None)));
                }
                14 => {
                    // a migration replay: a snapshot under its own serial
                    let mut target = store.current().clone();
                    target.serial = store.serial() + 1 + u64::from(*b % 3);
                    target.put(res(*a % 12, *b % 4));
                    values[block] = glyphs(*b, *a);
                    let source = Some(program(&values));
                    let serial = store
                        .commit_snapshot_as(&target, with_program(source.clone()))
                        .expect("a later serial");
                    committed.push((serial, source));
                }
                _ => {
                    // a crash inside the append of one more commit
                    let before = std::fs::metadata(&path).expect("log").len();
                    values[block] = glyphs(*a, *b);
                    let source = Some(program(&values));
                    let serial = store.commit(delta_of(op), with_program(source.clone())).expect("commit");
                    drop(store);
                    let whole = std::fs::read(&path).expect("read log");
                    let appended = whole.len() as u64 - before;
                    // at least one byte short, at least one byte in
                    let keep = whole.len() as u64 - 1 - u64::from(*b) % (appended - 1);
                    std::fs::write(&path, &whole[..keep as usize]).expect("tear");
                    let (reopened, recovery) = LogStore::open_file(&path).expect("recovery");
                    prop_assert!(recovery.torn_bytes_dropped > 0);
                    store = reopened;
                    // the version survives when only the checkpoint
                    // folded in behind it was torn
                    if store.serial() == serial {
                        committed.push((serial, source));
                    }
                }
            }
            assert_programs(&store, &path, &committed);
        }
    }
}

/// The chain is bounded by count as well as by weight: re-applying an
/// unchanged program is an empty patch each time, and a full copy (one
/// hash, the blob is already there) every `MAX_PATCH_CHAIN` of them.
#[test]
fn an_unchanged_program_chains_empty_patches_up_to_the_bound() {
    let path = scratch_log();
    let (mut store, _) = LogStore::open_file(&path).expect("open");
    let source = program(&[glyphs(2, 1), glyphs(5, 2)]);
    let mut committed = Vec::new();
    for i in 0..3 * MAX_PATCH_CHAIN {
        if i % 50 == 49 {
            drop(store);
            store = LogStore::open_file(&path).expect("reopen").0;
        }
        let meta = with_program(Some(source.clone()));
        let serial = store.commit(StateDelta::default(), meta).expect("commit");
        committed.push((serial, Some(source.clone())));
    }
    assert_programs(&store, &path, &committed);
    let full = store
        .history()
        .iter()
        .filter(|v| v.config.is_some())
        .count();
    assert_eq!(full, 3, "one full copy per {MAX_PATCH_CHAIN} patches");
    let programs = store.history().iter().filter(|v| v.patch.is_some()).count();
    assert_eq!(full + programs, committed.len());
    assert_eq!(store.blob_count(), 1, "the copies are one blob");
}
