//! Property tests on the foundation types: CIDR algebra, value
//! serialization, address round-trips, virtual-time arithmetic.

use cloudless_types::cidr::Cidr;
use cloudless_types::{ResourceAddr, SimDuration, SimTime, Value};
use proptest::prelude::*;

fn arb_cidr() -> impl Strategy<Value = Cidr> {
    (any::<u32>(), 0u32..=32).prop_map(|(addr, len)| Cidr::new(addr, len).expect("len ≤ 32"))
}

proptest! {
    // ---------- CIDR ----------

    #[test]
    fn cidr_display_parse_round_trip(c in arb_cidr()) {
        let parsed: Cidr = c.to_string().parse().expect("own display must parse");
        prop_assert_eq!(parsed, c);
    }

    #[test]
    fn cidr_overlap_is_symmetric_and_reflexive(a in arb_cidr(), b in arb_cidr()) {
        prop_assert!(a.overlaps(&a));
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
    }

    #[test]
    fn cidr_containment_implies_overlap(a in arb_cidr(), b in arb_cidr()) {
        if a.contains(&b) {
            prop_assert!(a.overlaps(&b));
            prop_assert!(a.size() >= b.size());
        }
    }

    #[test]
    fn cidr_subnets_are_contained_and_disjoint(
        base in (any::<u32>(), 0u32..=24).prop_map(|(a, l)| Cidr::new(a, l).unwrap()),
        bits in 1u32..=6,
        n1 in 0u32..64,
        n2 in 0u32..64,
    ) {
        let k = 1u32 << bits;
        let (n1, n2) = (n1 % k, n2 % k);
        let s1 = base.subnet(bits, n1).expect("fits");
        let s2 = base.subnet(bits, n2).expect("fits");
        prop_assert!(base.contains(&s1));
        prop_assert!(base.contains(&s2));
        if n1 != n2 {
            prop_assert!(!s1.overlaps(&s2), "{s1} vs {s2}");
        } else {
            prop_assert_eq!(s1, s2);
        }
    }

    #[test]
    fn cidr_hosts_are_inside(c in arb_cidr(), host in any::<u32>()) {
        let host_bits = 32 - c.len;
        let hostnum = if host_bits >= 32 { host } else { host % (1u32 << host_bits) };
        let addr = c.host(hostnum).expect("fits");
        prop_assert!(c.contains_addr(addr));
    }

    // ---------- Value ----------

    #[test]
    fn value_json_round_trip(
        entries in proptest::collection::btree_map(
            "[a-z_]{1,8}",
            prop_oneof![
                Just(Value::Null),
                any::<bool>().prop_map(Value::Bool),
                (-1000i64..1000).prop_map(Value::from),
                "[a-zA-Z0-9 _./-]{0,20}".prop_map(Value::from),
                proptest::collection::vec("[a-z]{0,6}".prop_map(Value::from), 0..4)
                    .prop_map(Value::List),
            ],
            0..6
        )
    ) {
        let v = Value::Map(entries);
        let json = serde_json::to_string(&v).expect("serialize");
        let back: Value = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(back, v);
    }

    // ---------- addresses ----------

    #[test]
    fn addr_display_parse_round_trip(
        modules in proptest::collection::vec("[a-z][a-z0-9_]{0,6}", 0..3),
        rtype in "[a-z]{2,5}_[a-z_]{1,12}",
        name in "[a-z][a-z0-9_]{0,10}",
        key in prop_oneof![
            Just(None),
            (0u32..100).prop_map(Some),
        ],
    ) {
        let mut addr = ResourceAddr::root(
            cloudless_types::ResourceTypeName::new(rtype),
            name,
        );
        for m in modules.iter().rev() {
            addr = addr.in_module(m.clone());
        }
        if let Some(i) = key {
            addr = addr.indexed(i);
        }
        let parsed: ResourceAddr = addr.to_string().parse().expect("round trip");
        prop_assert_eq!(parsed, addr);
    }

    // ---------- virtual time ----------

    #[test]
    fn simtime_algebra(a in 0u64..1_000_000, b in 0u64..1_000_000, d in 0u64..1_000_000) {
        let ta = SimTime(a);
        let dur = SimDuration::from_millis(d);
        // add-then-subtract returns the duration
        prop_assert_eq!((ta + dur) - ta, dur);
        // since() saturates instead of wrapping
        let tb = SimTime(b);
        if a >= b {
            prop_assert_eq!(ta.since(tb).millis(), a - b);
        } else {
            prop_assert_eq!(ta.since(tb).millis(), 0);
        }
    }

    #[test]
    fn duration_display_never_panics(ms in any::<u32>()) {
        let _ = SimDuration::from_millis(ms as u64).to_string();
    }
}

// ---------- the sorted-vector map and set against the B-tree ones ----------

mod flat {
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{BTreeMap, BTreeSet};
    use std::fmt::Debug;
    use std::hash::{Hash, Hasher};

    use cloudless_types::{Attrs, Value, VecMap, VecSet};
    use proptest::prelude::*;
    use serde::Serialize;

    /// One step of a random session with a map (the set reads the key).
    #[derive(Debug, Clone)]
    enum Op {
        Insert(String, u32),
        Remove(String),
        /// Keep the entries whose value is not `n` mod 3.
        Retain(u32),
        Extend(Vec<(String, u32)>),
    }

    /// Few keys, so inserts replace and removes hit.
    fn key() -> impl Strategy<Value = String> {
        (0u8..12).prop_map(|k| format!("k{k}"))
    }

    fn pairs() -> impl Strategy<Value = Vec<(String, u32)>> {
        proptest::collection::vec((key(), 0u32..100), 0..24)
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (key(), 0u32..100).prop_map(|(k, v)| Op::Insert(k, v)),
            (key(), 0u32..100).prop_map(|(k, v)| Op::Insert(k, v)),
            key().prop_map(Op::Remove),
            (0u32..3).prop_map(Op::Retain),
            proptest::collection::vec((key(), 0u32..100), 0..6).prop_map(Op::Extend),
        ]
    }

    fn hash_of(x: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    fn json(x: &impl Serialize) -> (String, String) {
        let compact = serde_json::to_string(x).expect("serializes");
        (
            compact,
            serde_json::to_string_pretty(x).expect("serializes"),
        )
    }

    /// Everything the two can be told apart by: order, `Debug`, `Hash` and
    /// both JSON texts.
    fn same<F: Debug + Hash + Serialize, T: Debug + Hash + Serialize>(flat: &F, tree: &T) {
        assert_eq!(format!("{flat:?}"), format!("{tree:?}"));
        assert_eq!(format!("{flat:#?}"), format!("{tree:#?}"));
        assert_eq!(hash_of(flat), hash_of(tree));
        assert_eq!(json(flat), json(tree));
    }

    fn same_map(flat: &VecMap<String, u32>, tree: &BTreeMap<String, u32>) {
        assert_eq!(flat.len(), tree.len());
        assert!(flat.iter().eq(tree.iter()));
        assert!(flat.iter().rev().eq(tree.iter().rev()));
        assert!(flat.keys().eq(tree.keys()) && flat.values().eq(tree.values()));
        same(flat, tree);
    }

    fn same_set(flat: &VecSet<String>, tree: &BTreeSet<String>) {
        assert_eq!(flat.len(), tree.len());
        assert!(flat.iter().eq(tree.iter()));
        same(flat, tree);
    }

    /// An object with the keys as given, repeats and disorder included.
    fn object(pairs: &[(String, u32)]) -> String {
        let entries: Vec<_> = pairs.iter().map(|(k, v)| format!("{k:?}:{v}")).collect();
        format!("{{{}}}", entries.join(","))
    }

    proptest! {
        #[test]
        fn a_flat_map_behaves_as_a_btree_map(
            ops in proptest::collection::vec(op(), 0..40),
            probes in proptest::collection::vec(key(), 0..8),
        ) {
            let (mut flat, mut tree) = (VecMap::new(), BTreeMap::new());
            for op in ops {
                match op {
                    Op::Insert(k, v) => prop_assert_eq!(flat.insert(k.clone(), v), tree.insert(k, v)),
                    Op::Remove(k) => prop_assert_eq!(flat.remove(k.as_str()), tree.remove(k.as_str())),
                    Op::Retain(n) => {
                        flat.retain(|_, v| *v % 3 != n);
                        tree.retain(|_, v| *v % 3 != n);
                    }
                    Op::Extend(pairs) => {
                        flat.extend(pairs.clone());
                        tree.extend(pairs);
                    }
                }
                same_map(&flat, &tree);
            }
            for k in &probes {
                prop_assert_eq!(flat.get(k.as_str()), tree.get(k.as_str()));
                prop_assert_eq!(flat.contains_key(k.as_str()), tree.contains_key(k.as_str()));
                if let (Some(a), Some(b)) = (flat.get_mut(k.as_str()), tree.get_mut(k.as_str())) {
                    *a += 1;
                    *b += 1;
                }
            }
            same_map(&flat, &tree);
        }

        #[test]
        fn a_flat_set_behaves_as_a_btree_set(
            ops in proptest::collection::vec(op(), 0..40),
            probes in proptest::collection::vec(key(), 0..8),
        ) {
            let (mut flat, mut tree) = (VecSet::new(), BTreeSet::new());
            for op in ops {
                match op {
                    Op::Insert(k, _) => prop_assert_eq!(flat.insert(k.clone()), tree.insert(k)),
                    Op::Remove(k) => prop_assert_eq!(flat.remove(k.as_str()), tree.remove(k.as_str())),
                    Op::Retain(n) => {
                        let keep = |k: &String| k.len() % 3 != n as usize;
                        flat.retain(keep);
                        tree.retain(keep);
                    }
                    Op::Extend(pairs) => {
                        flat.extend(pairs.iter().map(|(k, _)| k.clone()));
                        tree.extend(pairs.into_iter().map(|(k, _)| k));
                    }
                }
                same_set(&flat, &tree);
            }
            for k in &probes {
                prop_assert_eq!(flat.contains(k.as_str()), tree.contains(k.as_str()));
            }
        }

        #[test]
        fn collecting_and_reading_keep_what_a_btree_keeps(a in pairs(), b in pairs()) {
            // collect with repeated keys: the last value of each
            let (flat, tree): (VecMap<_, _>, BTreeMap<_, _>) =
                (a.iter().cloned().collect(), a.iter().cloned().collect());
            same_map(&flat, &tree);
            fn keys(pairs: &[(String, u32)]) -> impl Iterator<Item = String> + '_ {
                pairs.iter().map(|(k, _)| k.clone())
            }
            let (set, tree_set): (VecSet<_>, BTreeSet<_>) = (keys(&a).collect(), keys(&a).collect());
            same_set(&set, &tree_set);

            // an object with repeated keys, in any order, reads as the B-tree reads it
            let text = object(&a);
            let read: VecMap<String, u32> = serde_json::from_str(&text).expect("an object");
            let tree_read: BTreeMap<String, u32> = serde_json::from_str(&text).expect("an object");
            same_map(&read, &tree_read);
            let text = serde_json::to_string(&keys(&a).collect::<Vec<_>>()).expect("serializes");
            let read: VecSet<String> = serde_json::from_str(&text).expect("an array");
            same_set(&read, &serde_json::from_str(&text).expect("an array"));

            // two maps and two sets compare as the B-trees do
            let (other, other_tree): (VecMap<_, _>, BTreeMap<_, _>) =
                (b.iter().cloned().collect(), b.iter().cloned().collect());
            prop_assert_eq!(flat == other, tree == other_tree);
            prop_assert_eq!(flat.cmp(&other), tree.cmp(&other_tree));
            prop_assert_eq!(flat.partial_cmp(&other), tree.partial_cmp(&other_tree));
            let (other_set, other_tree_set): (VecSet<_>, BTreeSet<_>) =
                (keys(&b).collect(), keys(&b).collect());
            prop_assert_eq!(set == other_set, tree_set == other_tree_set);
            prop_assert_eq!(set.cmp(&other_set), tree_set.cmp(&other_tree_set));
        }

        #[test]
        fn attributes_write_and_read_as_a_btree_map_does(
            entries in proptest::collection::vec(
                (
                    "[a-z_]{1,4}",
                    prop_oneof![
                        Just(Value::Null),
                        any::<bool>().prop_map(Value::Bool),
                        any::<f64>().prop_map(Value::Num),
                        "[a-zA-Z0-9 _\"\\\\./-]{0,12}".prop_map(Value::from),
                        proptest::collection::vec("[a-z]{0,6}".prop_map(Value::from), 0..4)
                            .prop_map(Value::List),
                    ],
                ),
                0..8,
            )
        ) {
            let flat: Attrs = entries.iter().cloned().collect();
            let tree: BTreeMap<String, Value> = entries.iter().cloned().collect();
            prop_assert_eq!(format!("{flat:?}"), format!("{tree:?}"));
            prop_assert_eq!(json(&flat), json(&tree));
            let (compact, pretty) = json(&tree);
            for text in [compact, pretty] {
                let read: Attrs = serde_json::from_str(&text).expect("reads");
                let tree_read: BTreeMap<String, Value> = serde_json::from_str(&text).expect("reads");
                prop_assert_eq!(json(&read), json(&tree_read));
            }
        }
    }
}
