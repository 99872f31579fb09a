//! The bytes and the accepted inputs of every shape `serde_derive` emits,
//! pinned as literals. This file uses only `to_string`, `to_string_pretty`
//! and `from_str`, so it compiled — and passed — against the tree codec
//! that preceded the streaming one: the expectations are that codec's
//! behaviour, not this one's.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
struct Named {
    id: u32,
    label: Option<String>,
    #[serde(default)]
    tags: Vec<String>,
    ratio: f64,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
struct Newtype(String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(i64, bool);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Empty {}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Generic<N> {
    nodes: Vec<N>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Tagged {
    Plain,
    One(Newtype),
    Two(u8, String),
    Fields { at: u64, why: Option<String> },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
enum Level {
    Low,
    VeryHigh,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
enum Loose {
    Nothing,
    Flag(bool),
    Count(u32),
    Text(String),
    Pair(u8, u8),
    Shape { w: u32, h: u32 },
    Many(Vec<Loose>),
}

fn compact<T: Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

fn pretty<T: Serialize>(v: &T) -> String {
    serde_json::to_string_pretty(v).expect("serializes")
}

fn read<T: Deserialize>(s: &str) -> Result<T, serde_json::Error> {
    serde_json::from_str(s)
}

#[test]
fn structs_write_declaration_order_and_read_any_order() {
    let n = Named {
        id: 7,
        label: None,
        tags: vec!["a".into()],
        ratio: 2.0,
    };
    assert_eq!(
        compact(&n),
        r#"{"id":7,"label":null,"tags":["a"],"ratio":2.0}"#
    );
    assert_eq!(
        pretty(&n),
        "{\n  \"id\": 7,\n  \"label\": null,\n  \"tags\": [\n    \"a\"\n  ],\n  \"ratio\": 2.0\n}"
    );
    assert_eq!(read::<Named>(&compact(&n)).unwrap(), n);
    assert_eq!(read::<Named>(&pretty(&n)).unwrap(), n);

    // any key order, unknown keys of any shape skipped, integers for floats
    let shuffled = r#" { "ratio" : 2 , "later" : [ { "x" : [ 1 , "s" , null ] } ] , "tags" : [ "a" ] , "id" : 7.0 } "#;
    assert_eq!(read::<Named>(shuffled).unwrap(), n);
    // a missing key reads as null (→ None) or, under `default`, as default
    let sparse: Named = read(r#"{"id":1,"ratio":0.5}"#).unwrap();
    assert_eq!((sparse.label, sparse.tags), (None, vec![]));
    // … and is an error for a type null does not fit
    assert!(read::<Named>(r#"{"id":1}"#).is_err());
    // an explicit null does not fall back to `default`
    assert!(read::<Named>(r#"{"id":1,"ratio":0.5,"tags":null}"#).is_err());
    // the first of a duplicated key wins; the loser is not even typed
    let dup: Named = read(r#"{"id":1,"id":"x","ratio":1,"ratio":[]}"#).unwrap();
    assert_eq!((dup.id, dup.ratio), (1, 1.0));
    // not an object
    assert!(read::<Named>("[]").is_err());
    assert!(read::<Named>("null").is_err());
}

#[test]
fn tuple_unit_empty_and_generic_structs() {
    assert_eq!(compact(&Newtype("x".into())), r#""x""#);
    assert_eq!(read::<Newtype>(r#""x""#).unwrap(), Newtype("x".into()));

    assert_eq!(compact(&Pair(-3, true)), "[-3,true]");
    assert_eq!(pretty(&Pair(-3, true)), "[\n  -3,\n  true\n]");
    assert_eq!(read::<Pair>(" [ -3 , true ] ").unwrap(), Pair(-3, true));
    assert!(read::<Pair>("[-3]").is_err());
    assert!(read::<Pair>("[-3,true,1]").is_err());
    assert!(read::<Pair>("{}").is_err());

    assert_eq!(compact(&Unit), "null");
    assert_eq!(read::<Unit>("null").unwrap(), Unit);
    assert_eq!(read::<Unit>(r#"{"anything":[1]}"#).unwrap(), Unit);

    assert_eq!(compact(&Empty {}), "{}");
    assert_eq!(pretty(&Empty {}), "{}");
    assert_eq!(read::<Empty>(r#"{"x":1}"#).unwrap(), Empty {});

    let g = Generic {
        nodes: vec![Pair(1, false)],
    };
    assert_eq!(compact(&g), r#"{"nodes":[[1,false]]}"#);
    assert_eq!(read::<Generic<Pair>>(&compact(&g)).unwrap(), g);
}

#[test]
fn tagged_enums_are_a_string_or_a_one_key_object() {
    let cases = [
        (Tagged::Plain, r#""Plain""#),
        (Tagged::One(Newtype("n".into())), r#"{"One":"n"}"#),
        (Tagged::Two(2, "b".into()), r#"{"Two":[2,"b"]}"#),
        (
            Tagged::Fields { at: 9, why: None },
            r#"{"Fields":{"at":9,"why":null}}"#,
        ),
    ];
    for (value, text) in &cases {
        assert_eq!(&compact(value), text);
        assert_eq!(&read::<Tagged>(text).unwrap(), value);
        assert_eq!(&read::<Tagged>(&pretty(value)).unwrap(), value);
    }
    assert_eq!(
        pretty(&cases[3].0),
        "{\n  \"Fields\": {\n    \"at\": 9,\n    \"why\": null\n  }\n}"
    );
    assert_eq!(
        read::<Tagged>(r#"{"Fields":{"why":"w","extra":0,"at":1}}"#).unwrap(),
        Tagged::Fields {
            at: 1,
            why: Some("w".into())
        }
    );
    for bad in [
        r#""One""#,                     // a payload variant as a bare string
        r#"{"Plain":null}"#,            // a unit variant as an object
        r#""Missing""#,                 // unknown
        r#"{"Missing":1}"#,             // unknown
        r#"{}"#,                        // no key
        r#"{"One":"n","Two":[1,"b"]}"#, // two keys
        r#"{"Two":[2]}"#,               // short tuple
        r#"{"Two":[2,"b",3]}"#,         // long tuple
        "7",
    ] {
        assert!(read::<Tagged>(bad).is_err(), "{bad}");
    }

    assert_eq!(compact(&Level::VeryHigh), r#""veryhigh""#);
    assert_eq!(read::<Level>(r#""low""#).unwrap(), Level::Low);
    assert!(read::<Level>(r#""Low""#).is_err());
    // unit variants are map keys and set members
    let by_level: BTreeMap<Level, u8> = [(Level::Low, 1), (Level::VeryHigh, 2)].into();
    assert_eq!(compact(&by_level), r#"{"low":1,"veryhigh":2}"#);
    assert_eq!(
        read::<BTreeMap<Level, u8>>(&compact(&by_level)).unwrap(),
        by_level
    );
    let set: BTreeSet<Newtype> = [Newtype("b".into()), Newtype("a".into())].into();
    assert_eq!(compact(&set), r#"["a","b"]"#);
    assert_eq!(read::<BTreeSet<Newtype>>(r#"["b","a","b"]"#).unwrap(), set);
}

#[test]
fn untagged_enums_take_the_first_variant_that_reads() {
    let cases = [
        (Loose::Nothing, "null"),
        (Loose::Flag(true), "true"),
        (Loose::Count(3), "3"),
        (Loose::Text("t".into()), r#""t""#),
        (Loose::Pair(1, 2), "[1,2]"),
        (Loose::Shape { w: 1, h: 2 }, r#"{"w":1,"h":2}"#),
        (
            Loose::Many(vec![Loose::Nothing, Loose::Many(vec![])]),
            "[null,[]]",
        ),
    ];
    for (value, text) in &cases {
        assert_eq!(&compact(value), text);
        assert_eq!(&read::<Loose>(text).unwrap(), value);
    }
    // order decides: two small integers are the pair, not a list of counts
    assert_eq!(read::<Loose>("[1,2]").unwrap(), Loose::Pair(1, 2));
    assert_eq!(
        read::<Loose>("[1,2,3]").unwrap(),
        Loose::Many(vec![Loose::Count(1), Loose::Count(2), Loose::Count(3)])
    );
    // an integral float is a count; a fractional one fits no variant
    assert_eq!(read::<Loose>("3.0").unwrap(), Loose::Count(3));
    assert!(read::<Loose>("3.5").is_err());
    // a failed attempt leaves nothing behind for the next one
    assert_eq!(
        read::<Loose>(r#"[300,{"h":2,"w":1}]"#).unwrap(),
        Loose::Many(vec![Loose::Count(300), Loose::Shape { w: 1, h: 2 }])
    );
    assert!(read::<Loose>(r#"{"w":1}"#).is_err());
}
