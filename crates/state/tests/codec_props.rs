//! Round-trip properties of the streaming JSON codec, on the types the
//! session files and the state log are made of.
//!
//! Three laws, for `Value`, `DeployedResource`, `LogRecord` and the
//! cloud's `ResourceRecord`:
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
use cloudless_state::log::{
    BlobRecord, CheckpointRecord, DelEntry, LogRecord, ProgramPatch, PutEntry, VersionRecord,
};
use cloudless_state::{ContentHash, DeployedResource};
use cloudless_types::{ResourceAddr, ResourceId, ResourceKey, SimTime, Value};
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

fn attrs() -> impl Strategy<Value = BTreeMap<String, Value>> {
    proptest::collection::btree_map(text(), value(), 0..4)
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

    #[test]
    fn cloud_records_round_trip(
        records in proptest::collection::btree_map(text().prop_map(ResourceId), cloud_record(), 0..4)
    ) {
        // the shape of `cloud.json`: a map keyed by a string newtype
        assert_round_trips(&records);
    }
}
