//! Never-panic mutation suite: every reader of untrusted bytes — the JSON
//! reader untyped (`from_str::<Json>`) and typed (`Snapshot::from_json`),
//! and the log scanner — answers a damaged document with `Ok` or `Err`,
//! never a panic or an abort, and the scanner keeps telling a torn tail
//! from mid-log corruption. So does the reader of a program patch, whose
//! offsets index another record's text.
//!
//! Documents start valid (a small snapshot, a small log) and are damaged
//! by bit flips, truncations and splices (a range deleted, duplicated, or
//! overwritten with bytes that matter to the grammar).

use cloudless_state::log::{frame_into, scan, LogRecord, ProgramPatch, ScanOutcome};
use cloudless_state::{
    fsck_bytes, CommitMeta, DeployedResource, LogStore, Snapshot, StateDelta, StoreError,
};
use cloudless_types::{ResourceId, SimTime, Value};
use proptest::prelude::*;
use serde::Json;

mod damage;
use damage::Damage;

fn res(i: u8, rev: u8) -> DeployedResource {
    DeployedResource {
        addr: format!("aws_s3_bucket.b[\"k{i}\"]").parse().expect("addr"),
        id: ResourceId(format!("b-{i:04}")),
        rtype: "aws_s3_bucket".into(),
        region: "us-east-1".into(),
        attrs: [
            ("bucket".to_owned(), Value::from(format!("b-{i}\n\"é\""))),
            ("size".to_owned(), Value::Num(f64::from(rev) + 0.5)),
            (
                "tags".to_owned(),
                Value::Map(
                    [
                        ("env".to_owned(), Value::Null),
                        ("ports".to_owned(), Value::List(vec![Value::Bool(true)])),
                    ]
                    .into(),
                ),
            ),
        ]
        .into(),
        depends_on: vec!["aws_vpc.main".parse().expect("addr")],
        created_at: SimTime(u64::from(rev)),
    }
}

/// A log of three commits (puts with a config source, an edit, a delete
/// with outputs) closed by a checkpoint, and the snapshot it folds to.
fn pristine() -> (Vec<u8>, Snapshot) {
    let dir = std::env::temp_dir().join(format!("cloudless-mutation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(format!("{:?}.log", std::thread::current().id()));
    let _ = std::fs::remove_file(&path);
    let (mut store, _) = LogStore::open_file(&path).expect("open");
    let mut commit = |delta: StateDelta, source: Option<&str>| {
        let meta = CommitMeta {
            config_source: source.map(str::to_owned),
            ..CommitMeta::bare("mutation fixture")
        };
        store.commit(delta, meta).expect("commit");
    };
    let puts = |rs: Vec<DeployedResource>| StateDelta {
        puts: rs,
        ..StateDelta::default()
    };
    commit(
        puts(vec![res(0, 0), res(1, 0)]),
        Some("resource \"x\" {}\n"),
    );
    commit(puts(vec![res(1, 1), res(2, 0)]), None);
    commit(
        StateDelta {
            dels: vec![res(0, 0).addr.to_string()],
            outputs: Some([("n".to_owned(), Value::Num(2.0))].into()),
            ..StateDelta::default()
        },
        None,
    );
    store.append_checkpoint().expect("checkpoint");
    let snapshot = store.current().clone();
    drop(store);
    let log = std::fs::read(&path).expect("read log");
    let _ = std::fs::remove_file(&path);
    (log, snapshot)
}

fn damage() -> impl Strategy<Value = Damage> {
    // bytes the grammars care about, and a few that they do not
    let grammar = proptest::collection::vec(
        prop_oneof![
            Just(b'"'),
            Just(b'\\'),
            Just(b'{'),
            Just(b'}'),
            Just(b'['),
            Just(b']'),
            Just(b','),
            Just(b':'),
            Just(b'\n'),
            Just(b' '),
            Just(b'-'),
            Just(b'e'),
            Just(b'u'),
            Just(b'0'),
            Just(0xffu8),
            Just(0xc3u8),
            any::<u8>(),
        ],
        1..6,
    );
    damage::damage(grammar)
}

fn records_of(log: &[u8]) -> Result<(Vec<LogRecord>, ScanOutcome), StoreError> {
    let mut records = Vec::new();
    let outcome = scan(log, |r| {
        records.push(r);
        Ok(())
    })?;
    Ok((records, outcome))
}

proptest! {
    /// Damaged JSON text is accepted or refused, by the untyped and the
    /// typed reader alike; what is accepted can be written and read again.
    #[test]
    fn damaged_json_is_an_answer_never_a_panic(hits in proptest::collection::vec(damage(), 1..4)) {
        let (_, snapshot) = pristine();
        for text in [snapshot.to_json(), serde_json::to_string(&snapshot).expect("serializes")] {
            let mut doc = text.into_bytes();
            for hit in &hits {
                if !doc.is_empty() {
                    doc = hit.apply(&doc);
                }
            }
            let doc = String::from_utf8_lossy(&doc);
            if let Ok(tree) = serde_json::from_str::<Json>(&doc) {
                let again = serde_json::to_string(&tree).expect("serializes");
                prop_assert_eq!(serde_json::from_str::<Json>(&again).expect("own output"), tree);
            }
            if let Ok(snap) = Snapshot::from_json(&doc) {
                prop_assert_eq!(Snapshot::from_json(&snap.to_json()).expect("own output"), snap);
            }
        }
    }

    /// A damaged log scans to `Ok` or `Corrupt`, and opening it never
    /// panics either. One flipped bit is classified exactly: in the final
    /// record (its newline included) the log is torn there and every
    /// earlier record survives; anywhere before it the log is corrupt —
    /// unless the flip is one the framing cannot see (the case of a hex
    /// digit of the checksum) and the log reads as it did.
    #[test]
    fn damaged_logs_are_torn_or_corrupt_never_a_panic(
        hits in proptest::collection::vec(damage(), 1..3),
        at in 0usize..1 << 20,
        bit in 0u8..8,
    ) {
        let (log, _) = pristine();
        let (whole, clean) = records_of(&log).expect("pristine log scans");
        prop_assert_eq!(clean.torn_bytes, 0);

        let mut doc = log.clone();
        for hit in &hits {
            if !doc.is_empty() {
                doc = hit.apply(&doc);
            }
        }
        if let Err(e) = records_of(&doc) {
            prop_assert!(matches!(e, StoreError::Corrupt(_)), "{e}");
        }
        let _ = LogStore::open_device(Box::new(cloudless_state::MemDevice::from_bytes(doc)));

        // one bit, classified
        let at = at % log.len();
        let mut flipped = log.clone();
        flipped[at] ^= 1 << bit;
        let last_start = log[..log.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .expect("a header line")
            + 1;
        let makes_or_breaks_a_line = log[at] == b'\n' || flipped[at] == b'\n';
        match records_of(&flipped) {
            Ok((records, outcome)) if records == whole => {
                prop_assert_eq!(outcome.torn_bytes, 0, "unseen damage leaves a whole log");
            }
            Ok((records, outcome)) => {
                prop_assert!(at >= last_start || makes_or_breaks_a_line, "byte {at}: torn");
                if !makes_or_breaks_a_line {
                    prop_assert_eq!(outcome.keep_len, last_start as u64);
                    prop_assert_eq!(&records[..], &whole[..whole.len() - 1]);
                }
                prop_assert!(outcome.torn_bytes > 0);
            }
            Err(e) => {
                prop_assert!(matches!(e, StoreError::Corrupt(_)), "{e}");
                prop_assert!(at < last_start || makes_or_breaks_a_line, "byte {at}: {e}");
            }
        }
    }
}

// ------------------------------------------------------------ the program

/// Three programs, the second and third recorded as patches whose window
/// has a two-byte character on either edge, and their texts.
fn patched_log() -> (Vec<u8>, [String; 3]) {
    let text = |n: u8| format!("# ünï\nresource \"x\" \"a\" {{ name = \"é{n}é\" }}\nlocals {{}}\n");
    let sources = [text(1), text(2), text(3)];
    let dir = std::env::temp_dir().join(format!("cloudless-mutation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(format!("{:?}.patched.log", std::thread::current().id()));
    let _ = std::fs::remove_file(&path);
    let (mut store, _) = LogStore::open_file(&path).expect("open");
    for source in &sources {
        let meta = CommitMeta {
            config_source: Some(source.clone()),
            ..CommitMeta::bare("mutation fixture")
        };
        store.commit(StateDelta::default(), meta).expect("commit");
    }
    let patched = store.history().iter().filter_map(|v| v.patch.as_ref());
    let edges: Vec<_> = patched
        .map(|p| (p.middle.len(), sources[0].len() - p.prefix - p.suffix))
        .collect();
    assert_eq!(edges, [(1, 1), (1, 1)], "two patches of the digit alone");
    drop(store);
    let log = std::fs::read(&path).expect("read log");
    let _ = std::fs::remove_file(&path);
    (log, sources)
}

/// `log` with the patch of version `serial` rewritten by `damage` and its
/// line framed (checksummed) again.
fn with_patch(log: &[u8], serial: u64, damage: impl Fn(&mut ProgramPatch)) -> Vec<u8> {
    let (records, _) = records_of(log).expect("the fixture scans");
    let mut out = format!("{}\n", cloudless_state::log::LOG_MAGIC);
    for mut record in records {
        if let LogRecord::Version(v) = &mut record {
            if v.serial == serial {
                damage(v.patch.as_mut().expect("a patched version"));
            }
        }
        frame_into(&mut out, (&record).into());
    }
    out.into_bytes()
}

/// What a reader makes of the log: `fsck`'s verdict, and the programs of
/// the three versions if it opens at all.
fn read_programs(log: &[u8]) -> (bool, Option<[Option<String>; 3]>) {
    let clean = fsck_bytes(log).clean();
    let opened = LogStore::open_device(Box::new(cloudless_state::MemDevice::from_bytes(
        log.to_vec(),
    )));
    let programs = opened.ok().map(|(store, _)| {
        [1, 2, 3].map(|serial| store.config_source(serial).map(|text| text.to_string()))
    });
    (clean, programs)
}

/// A patch whose base serial, prefix or suffix no longer fits — the line
/// checksummed again, so only the chain can tell — is reported by `fsck`,
/// and is an error from `open` or an absent program from `config_source`,
/// for its version and the ones patched on top of it. Never a panic, never
/// a wrong text.
#[test]
fn a_damaged_program_patch_is_reported_and_never_read() {
    let (log, sources) = patched_log();
    let whole = sources.clone().map(Some);
    assert_eq!(read_programs(&log), (true, Some(whole)));

    type Damaged = (&'static str, u64, fn(&mut ProgramPatch));
    let damages: [Damaged; 7] = [
        ("base names a later version", 2, |p| p.base = 3),
        ("base names no version", 2, |p| p.base = 0),
        ("base skips the newest program", 3, |p| p.base = 1),
        ("prefix past the base", 2, |p| p.prefix = usize::MAX),
        ("suffix overlapping the prefix", 2, |p| p.suffix += 40),
        // the window sits between two `é`: a byte either way is inside one
        ("prefix inside a character", 3, |p| p.prefix -= 1),
        ("suffix inside a character", 2, |p| p.suffix -= 1),
    ];
    for (what, serial, damage) in damages {
        let damaged = with_patch(&log, serial, damage);
        assert_ne!(damaged, log, "{what}");
        let (clean, programs) = read_programs(&damaged);
        assert!(!clean, "{what}: fsck must report it");
        let Some(programs) = programs else {
            continue; // refused at open
        };
        for (i, program) in programs.iter().enumerate() {
            let intact = (i as u64) + 1 < serial;
            assert_eq!(
                program.as_deref(),
                intact.then_some(sources[i].as_str()),
                "{what}: serial {}",
                i + 1
            );
        }
    }
}

proptest! {
    /// Any base, prefix and suffix at all in a patch: `fsck`, `open` and
    /// `config_source` answer, and a log `fsck` calls clean opens.
    #[test]
    fn an_arbitrary_program_patch_is_an_answer_never_a_panic(
        serial in 2u64..4,
        base in prop_oneof![0u64..5, any::<u64>()],
        prefix in prop_oneof![0usize..80, any::<usize>()],
        suffix in prop_oneof![0usize..80, any::<usize>()],
    ) {
        let (log, _) = patched_log();
        let damaged = with_patch(&log, serial, |p| {
            (p.base, p.prefix, p.suffix) = (base, prefix, suffix);
        });
        let (clean, programs) = read_programs(&damaged);
        if clean {
            let programs = programs.expect("a clean log opens");
            prop_assert!(programs.iter().all(Option::is_some));
        }
    }
}

// ------------------------------------------------- one reader of the frames

/// What a reader makes of a log: whole, whole up to a torn tail of so many
/// bytes, or damaged beyond what a truncation repairs.
#[derive(Debug, PartialEq)]
enum Verdict {
    Clean,
    Torn(u64),
    Corrupt,
}

fn opened(log: &[u8]) -> Verdict {
    let device = cloudless_state::MemDevice::from_bytes(log.to_vec());
    match LogStore::open_device(Box::new(device)) {
        Ok((_, recovery)) if recovery.torn_bytes_dropped == 0 => Verdict::Clean,
        Ok((_, recovery)) => Verdict::Torn(recovery.torn_bytes_dropped),
        Err(_) => Verdict::Corrupt,
    }
}

fn checked(log: &[u8]) -> Verdict {
    let report = fsck_bytes(log);
    if !report.errors.is_empty() {
        Verdict::Corrupt
    } else if report.torn_tail_bytes > 0 {
        Verdict::Torn(report.torn_tail_bytes)
    } else {
        Verdict::Clean
    }
}

/// `open` and `fsck` read a log's frames through one walker, so they tell
/// clean from torn from corrupt alike — to the byte of the tail — for the
/// log cut anywhere and for any one bit of it flipped.
#[test]
fn open_and_fsck_agree_on_every_cut_and_every_flipped_bit() {
    let (log, _) = pristine();
    assert_eq!(
        (opened(&log), checked(&log)),
        (Verdict::Clean, Verdict::Clean)
    );
    for cut in 0..log.len() {
        assert_eq!(opened(&log[..cut]), checked(&log[..cut]), "cut at {cut}");
    }
    let mut flipped = log.clone();
    for at in 0..log.len() {
        for bit in 0..8 {
            flipped[at] ^= 1 << bit;
            assert_eq!(opened(&flipped), checked(&flipped), "byte {at} bit {bit}");
            flipped[at] ^= 1 << bit;
        }
    }
}

proptest! {
    /// And for a log damaged one to three times over.
    #[test]
    fn open_and_fsck_agree_on_damaged_logs(hits in proptest::collection::vec(damage(), 1..4)) {
        let (mut doc, _) = pristine();
        for hit in &hits {
            if !doc.is_empty() {
                doc = hit.apply(&doc);
            }
        }
        prop_assert_eq!(opened(&doc), checked(&doc));
    }
}
