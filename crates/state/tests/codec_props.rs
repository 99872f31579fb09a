//! Round-trip properties of the streaming JSON codec, on the types the
//! session files and the state log are made of.
//!
//! Three laws, for `Value`, `DeployedResource`, `LogRecord` and the
//! cloud's `ResourceRecord`, and one of the state document: a snapshot
//! reopened from the log renders its unread records as decoded ones. And
//! one of the log's reader: the one pass that reads a blob line the store
//! wrote reads every line, whole, cut or flipped, as the codec does.
//!
//! The three:
//!
//! 1. typed round trip — `from_str(to_string(x)) == x`;
//! 2. text round trip — reading the compact text as untyped [`Json`] and
//!    writing that back reproduces the text byte for byte (the typed and
//!    the untyped writer agree on floats, escapes and key order);
//! 3. pretty ≡ compact — both texts parse to equal values, typed and
//!    untyped.
//!
//! Strings are drawn to hit every escape class: `"` `\` `/`, the named
//! control escapes, a `\u00xx` control, DEL, two- to four-byte UTF-8.

use std::collections::BTreeMap;

use cloudless_cloud::ResourceRecord;
use cloudless_state::cas::fnv64;
use cloudless_state::log::{
    indexed_both_ways, BlobRecord, CheckpointRecord, DelEntry, LogRecord, ProgramPatch, PutEntry,
    VersionRecord, LOG_MAGIC,
};
use cloudless_state::{CommitMeta, ContentHash, DeployedResource, LogStore, MemDevice, StateDelta};
use cloudless_types::{Attrs, ResourceAddr, ResourceId, ResourceKey, SimTime, Value};
use proptest::prelude::*;
use serde::{Deserialize, Json, Serialize};

fn text() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        any::<char>(),
        any::<char>(),
        Just('"'),
        Just('\\'),
        Just('/'),
        Just('\n'),
        Just('\r'),
        Just('\t'),
        Just('\u{8}'),
        Just('\u{c}'),
        Just('\u{1}'),
        Just('\u{1f}'),
        Just('\u{7f}'),
        Just('é'),
        Just('✓'),
        Just('😀'),
    ];
    proptest::collection::vec(ch, 0..12).prop_map(|cs| cs.into_iter().collect())
}

fn value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        // every finite float, and the integral ones that print as `n.0`
        any::<f64>().prop_map(Value::Num),
        (-1_000_000i64..1_000_000).prop_map(|n| Value::Num(n as f64)),
        text().prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            proptest::collection::btree_map(text(), inner, 0..4).prop_map(Value::Map),
        ]
    })
}

fn attrs() -> impl Strategy<Value = Attrs> {
    proptest::collection::btree_map(text(), value(), 0..4).prop_map(Attrs::from_iter)
}

fn addr() -> impl Strategy<Value = ResourceAddr> {
    let key = prop_oneof![
        Just(ResourceKey::None),
        any::<u32>().prop_map(ResourceKey::Index),
        text().prop_map(ResourceKey::Key),
    ];
    (
        proptest::collection::vec("[a-z]{1,6}", 0..3),
        "[a-z_]{1,10}",
        "[a-z0-9]{1,8}",
        key,
    )
        .prop_map(|(module_path, rtype, name, key)| ResourceAddr {
            module_path,
            rtype: rtype.as_str().into(),
            name,
            key,
        })
}

fn deployed() -> impl Strategy<Value = DeployedResource> {
    (
        (addr(), text(), "[a-z0-9-]{1,12}"),
        attrs(),
        proptest::collection::vec(addr(), 0..3),
        any::<u64>(),
    )
        .prop_map(
            |((addr, id, region), attrs, depends_on, at)| DeployedResource {
                rtype: addr.rtype.clone(),
                addr,
                id: ResourceId(id),
                region: region.as_str().into(),
                attrs,
                depends_on,
                created_at: SimTime(at),
            },
        )
}

fn cloud_record() -> impl Strategy<Value = ResourceRecord> {
    (
        (text(), "[a-z_]{1,10}", "[a-z0-9-]{1,12}"),
        attrs(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |((id, rtype, region), attrs, created, updated)| ResourceRecord {
                id: ResourceId(id),
                rtype: rtype.as_str().into(),
                region: region.as_str().into(),
                attrs,
                created_at: SimTime(created),
                updated_at: SimTime(updated),
            },
        )
}

fn hash() -> impl Strategy<Value = ContentHash> {
    (any::<u64>(), any::<u64>())
        .prop_map(|(hi, lo)| ContentHash(u128::from(hi) << 64 | u128::from(lo)))
}

fn outputs() -> impl Strategy<Value = BTreeMap<String, Value>> {
    proptest::collection::btree_map(text(), value(), 0..3)
}

fn log_record() -> impl Strategy<Value = LogRecord> {
    let blob = (hash(), text()).prop_map(|(hash, body)| {
        LogRecord::Blob(BlobRecord {
            hash,
            body: body.into(),
        })
    });
    let option_hash = || prop_oneof![Just(None), hash().prop_map(Some)];
    let put = (text(), hash(), option_hash()).prop_map(|(addr, hash, prev)| PutEntry {
        addr,
        hash,
        prev,
    });
    let del = (text(), hash()).prop_map(|(addr, prev)| DelEntry { addr, prev });
    let patch = (any::<u64>(), 0usize..1 << 40, 0usize..1 << 40, text()).prop_map(
        |(base, prefix, suffix, middle)| ProgramPatch {
            base,
            prefix,
            suffix,
            middle,
        },
    );
    let version = (
        (any::<u64>(), any::<u64>(), text(), text()),
        option_hash(),
        proptest::collection::vec(put, 0..4),
        proptest::collection::vec(del, 0..3),
        (outputs(), prop_oneof![Just(None), patch.prop_map(Some)]),
    )
        .prop_map(
            |((serial, at, author, message), config, puts, dels, (outputs, patch))| {
                LogRecord::Version(VersionRecord {
                    serial,
                    at: SimTime(at),
                    author,
                    message,
                    config,
                    puts,
                    dels,
                    outputs,
                    patch,
                })
            },
        );
    let checkpoint = (
        any::<u64>(),
        proptest::collection::vec((text(), hash()), 0..4),
        outputs(),
    )
        .prop_map(|(serial, entries, outputs)| {
            LogRecord::Checkpoint(CheckpointRecord {
                serial,
                entries,
                outputs,
            })
        });
    prop_oneof![blob, version, checkpoint]
}

/// A piece of a blob body as the store's frames spell one: plain and
/// non-ASCII text, DEL, and every escape `Writer::str` writes.
fn written_piece() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        prop_oneof![
            Just("abc"),
            Just("{k:v}"),
            Just(" , "),
            Just("é✓😀"),
            Just("\u{7f}")
        ],
        prop_oneof![
            Just(r#"\""#),
            Just(r"\\"),
            Just(r"\n"),
            Just(r"\r"),
            Just(r"\t")
        ],
        prop_oneof![Just(r"\b"), Just(r"\f"), Just(r"\u0001"), Just(r"\u001f")],
    ]
}

/// What no body the store frames holds: `\/`, other `\u` escapes (a
/// letter, a surrogate pair, lone surrogates, one cut short), escapes JSON
/// does not have, raw control bytes, a raw newline, a bare quote, and a
/// backslash before the closing quote.
const ODD: [&str; 14] = [
    r"\/",
    r"\u00e9",
    r"\ud83d\ude00",
    r"\ud800",
    r"\udc00x",
    r"\u12",
    r"\x",
    r"\U0041",
    r"\ ",
    "\u{1}",
    "\t",
    "\n",
    "\"",
    "\\",
];

/// A blob line's payload: in the layout the store writes (`0`), or with
/// its keys reordered, whitespace between its tokens, a second `hash`, an
/// escape in its hash or in a key, an uppercase hash, a key more, or text
/// after it.
fn blob_payload(layout: u8, hash: ContentHash, b: &str) -> String {
    let h = hash.to_string();
    match layout {
        0 => format!(r#"{{"Blob":{{"hash":"{h}","body":"{b}"}}}}"#),
        1 => format!(r#"{{"Blob":{{"body":"{b}","hash":"{h}"}}}}"#),
        2 => format!(r#"{{ "Blob" : {{ "hash" : "{h}" , "body" : "{b}" }} }}"#),
        3 => format!(r#"{{"Blob":{{"hash":"{h}","hash":"{h}","body":"{b}"}}}}"#),
        4 => format!(
            r#"{{"Blob":{{"hash":"\u00{:x}{}","body":"{b}"}}}}"#,
            h.as_bytes()[0],
            &h[1..]
        ),
        5 => format!(r#"{{"Blob":{{"ha\u0073h":"{h}","body":"{b}"}}}}"#),
        6 => format!(
            r#"{{"Blob":{{"hash":"{}","body":"{b}"}}}}"#,
            h.to_uppercase()
        ),
        7 => format!(r#"{{"Blob":{{"hash":"{h}","body":"{b}","later":1}}}}"#),
        _ => format!(r#"{{"Blob":{{"hash":"{h}","body":"{b}"}}}} "#),
    }
}

/// A log of the framed `payloads`, each under its checksum.
fn log_of(payloads: &[&str]) -> Vec<u8> {
    let mut log = format!("{LOG_MAGIC}\n");
    for payload in payloads {
        log.push_str(&format!("{:016x} {payload}\n", fnv64(payload.as_bytes())));
    }
    log.into_bytes()
}

/// The same walk of `log` on the blob line's own path as by the codec
/// alone: each line's `(at, last, record or refusal)`.
fn walks_agree(log: &[u8]) {
    let [fast, by_codec] = indexed_both_ways(log);
    let text = String::from_utf8_lossy(log);
    assert_eq!(fast, by_codec, "{text}");
}

/// The three laws, for one value.
fn assert_round_trips<T>(x: &T)
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    let compact = serde_json::to_string(x).expect("serializes");
    let pretty = serde_json::to_string_pretty(x).expect("serializes");
    assert!(!compact.contains('\n'), "compact text is line-framable");

    let back: T = serde_json::from_str(&compact).expect("compact text parses");
    assert_eq!(&back, x, "typed round trip of {compact}");
    let from_pretty: T = serde_json::from_str(&pretty).expect("pretty text parses");
    assert_eq!(&from_pretty, x, "typed round trip of {pretty}");

    let tree: Json = serde_json::from_str(&compact).expect("compact text is JSON");
    assert_eq!(serde_json::to_string(&tree).expect("serializes"), compact);
    assert_eq!(
        serde_json::to_string_pretty(&tree).expect("serializes"),
        pretty
    );
    let pretty_tree: Json = serde_json::from_str(&pretty).expect("pretty text is JSON");
    assert_eq!(pretty_tree, tree);
}

proptest! {
    #[test]
    fn values_round_trip(v in value()) {
        assert_round_trips(&v);
    }

    #[test]
    fn deployed_resources_round_trip(r in deployed()) {
        assert_round_trips(&r);
        // and through the store's canonical encoding
        let body = cloudless_state::cas::encode_resource(&r);
        prop_assert_eq!(cloudless_state::cas::decode_resource(&r.addr.to_string(), &body).expect("decodes"), r);
    }

    #[test]
    fn log_records_round_trip(r in log_record()) {
        assert_round_trips(&r);
    }

    /// A snapshot reopened from the log renders its records unread, by
    /// re-indenting their bodies: byte for byte what it renders once every
    /// record is decoded, and what the snapshot committed rendered.
    #[test]
    fn an_unread_snapshot_renders_as_a_decoded_one(
        records in proptest::collection::vec(deployed(), 0..6),
        outputs in outputs(),
    ) {
        let mut store = LogStore::in_memory();
        let delta = StateDelta {
            puts: records,
            outputs: Some(outputs),
            ..StateDelta::default()
        };
        store.commit(delta, CommitMeta::bare("render")).expect("commits");
        let committed = store.current().to_json();
        let bytes = store.into_device().read_all().expect("reads");
        let (reopened, _) = LogStore::open_device(Box::new(MemDevice::from_bytes(bytes)))
            .expect("reopens");
        let unread = reopened.current().to_json();
        prop_assert_eq!(reopened.records_decoded(), 0);
        for r in reopened.current().resources().values() {
            r.resource();
        }
        let held = reopened.current().len() as u64;
        prop_assert_eq!(reopened.records_decoded(), held);
        prop_assert_eq!(&unread, &reopened.current().to_json());
        prop_assert_eq!(&unread, &committed);
        prop_assert!(reopened.current().check().is_ok());
    }

    #[test]
    fn cloud_records_round_trip(
        records in proptest::collection::btree_map(text().prop_map(ResourceId), cloud_record(), 0..4)
    ) {
        // the shape of `cloud.json`: a map keyed by a string newtype
        assert_round_trips(&records);
    }

    /// A blob line is read on its own path only when the codec reads it to
    /// the same record. A body as the store writes one, in the store's
    /// layout or another, alone or before a second line: whole, cut at
    /// every byte and with any one bit flipped. The same body with each odd
    /// spelling put into it, in the store's layout: whole and cut at every
    /// byte. Each line reads the same way on both paths, refusals in the
    /// codec's words.
    #[test]
    fn a_blob_line_reads_on_its_own_path_as_the_codec_reads_it(
        first_hash in hash(),
        pieces in proptest::collection::vec(written_piece(), 0..8),
        at in any::<usize>(),
        layout in prop_oneof![Just(0u8), Just(0u8), 0u8..9],
        then in prop_oneof![Just(None), (0u8..9, hash()).prop_map(Some)],
    ) {
        let body = pieces.concat();
        let header = LOG_MAGIC.len() + 1;
        let first = blob_payload(layout, first_hash, &body);
        let then = then.map(|(layout, hash)| blob_payload(layout, hash, "x"));
        let log = log_of(&[Some(&*first), then.as_deref()].into_iter().flatten().collect::<Vec<_>>());
        walks_agree(&log);
        for cut in header..log.len() {
            walks_agree(&log[..cut]);
        }
        for at in header..log.len() {
            for bit in 0..8 {
                let mut flipped = log.clone();
                flipped[at] ^= 1 << bit;
                walks_agree(&flipped);
            }
        }
        for odd in ODD {
            let mut pieces = pieces.clone();
            pieces.insert(at % (pieces.len() + 1), odd);
            let log = log_of(&[&*blob_payload(0, first_hash, &pieces.concat())]);
            walks_agree(&log);
            for cut in header..log.len() {
                walks_agree(&log[..cut]);
            }
        }
    }
}
