//! Properties of the snapshot's lookups that are not a walk of its map:
//!
//! - [`Snapshot::block`] — one probe plus one key range — finds exactly the
//!   instances a filter over the whole map finds, in the same
//!   (rendered-address) order, whatever else the snapshot holds;
//! - [`Snapshot::by_id`] — one probe of the index `put` and `remove` keep —
//!   finds what a scan of the map finds for every id, through puts,
//!   replacements, removals, moves and clones mutated on either side.

use cloudless_state::{DeployedResource, Snapshot};
use cloudless_types::{ResourceAddr, ResourceId, ResourceKey, SimTime, Value};
use proptest::prelude::*;

/// Module paths, types and names that extend one another, so that a
/// lookup by string prefix alone would over-match.
const MODULES: [&[&str]; 5] = [&[], &["net"], &["net", "inner"], &["net2"], &["inner"]];
const RTYPES: [&str; 2] = ["aws_vm", "aws_vm_pool"];
const NAMES: [&str; 5] = ["web", "web2", "web_a", "web-a", "w"];
/// `for_each` keys are free text: brackets, quotes, escapes, dots.
const KEY_CHARS: [char; 7] = ['[', ']', '"', '\\', '.', 'a', '0'];

fn key() -> impl Strategy<Value = ResourceKey> {
    let text = proptest::collection::vec(0usize..KEY_CHARS.len(), 0..4)
        .prop_map(|cs| cs.into_iter().map(|c| KEY_CHARS[c]).collect::<String>());
    prop_oneof![
        (0u8..1).prop_map(|_| ResourceKey::None),
        (0u32..12).prop_map(ResourceKey::Index),
        text.prop_map(ResourceKey::Key),
    ]
}

fn addrs() -> impl Strategy<Value = Vec<ResourceAddr>> {
    let addr =
        (0..MODULES.len(), 0..RTYPES.len(), 0..NAMES.len(), key()).prop_map(|(m, t, n, key)| {
            ResourceAddr {
                module_path: MODULES[m].iter().map(|s| (*s).to_owned()).collect(),
                rtype: RTYPES[t].into(),
                name: NAMES[n].to_owned(),
                key,
            }
        });
    proptest::collection::vec(addr, 0..40)
}

proptest! {
    #[test]
    fn block_equals_the_whole_map_scan(addrs in addrs()) {
        let mut snap = Snapshot::new();
        for addr in addrs {
            snap.put(DeployedResource {
                id: ResourceId::new(addr.to_string()),
                rtype: addr.rtype.clone(),
                region: "us-east-1".into(),
                attrs: Default::default(),
                depends_on: Vec::new(),
                created_at: SimTime::ZERO,
                addr,
            });
        }
        let mut found = 0;
        for module in MODULES {
            let module: Vec<String> = module.iter().map(|s| (*s).to_owned()).collect();
            for rtype in RTYPES {
                for name in NAMES {
                    let scanned: Vec<&ResourceAddr> = snap
                        .resources()
                        .values()
                        .map(|r| &r.addr)
                        .filter(|a| {
                            a.module_path == module && a.rtype.as_str() == rtype && a.name == name
                        })
                        .collect();
                    let ranged: Vec<&ResourceAddr> =
                        snap.block(&module, rtype, name).map(|r| &r.addr).collect();
                    prop_assert_eq!(&ranged, &scanned, "{:?} {}.{}", module, rtype, name);
                    found += ranged.len();
                }
            }
        }
        // the blocks partition the snapshot
        prop_assert_eq!(found, snap.len());
    }
}

/// Addresses the id-index property writes to: few, so that puts land on
/// occupied addresses and moves on occupied targets.
const SLOTS: usize = 6;

fn slot(i: usize) -> ResourceAddr {
    let addr = ResourceAddr::root("aws_vm", "web");
    match i % 3 {
        0 => addr.indexed(i as u32),
        1 => addr.keyed(format!("k{i}")),
        _ => ResourceAddr::root("aws_vm", format!("w{i}")),
    }
}

/// One write to one of two snapshots (`side` 0 or 1).
#[derive(Debug, Clone)]
enum Write {
    /// A new resource, with an id never used before, at `at`: a create, or
    /// the replacement of whatever `at` held.
    Put {
        side: usize,
        at: usize,
    },
    /// What `at` holds, its attributes edited, put back: the same id.
    Edit {
        side: usize,
        at: usize,
    },
    Remove {
        side: usize,
        at: usize,
    },
    /// What `from` holds, removed and put under `to` with its id, as
    /// reconcile moves a resource: `to`'s record, if any, is replaced.
    Move {
        side: usize,
        from: usize,
        to: usize,
    },
    /// Snapshot 1 becomes a clone of snapshot 0.
    Fork,
}

fn writes() -> impl Strategy<Value = Vec<Write>> {
    let write =
        (0u8..5, 0usize..2, 0..SLOTS, 0..SLOTS).prop_map(|(kind, side, at, to)| match kind {
            0 => Write::Put { side, at },
            1 => Write::Edit { side, at },
            2 => Write::Remove { side, at },
            3 => Write::Move { side, from: at, to },
            _ => Write::Fork,
        });
    proptest::collection::vec(write, 0..60)
}

fn resource(addr: ResourceAddr, id: String) -> DeployedResource {
    DeployedResource {
        id: ResourceId::new(id),
        rtype: addr.rtype.clone(),
        region: "us-east-1".into(),
        attrs: Default::default(),
        depends_on: Vec::new(),
        created_at: SimTime::ZERO,
        addr,
    }
}

/// `by_id` against a scan of the map, for every id ever issued: the same
/// record, and so `None` for an id no record holds any longer.
fn assert_indexed_as_scanned(snap: &Snapshot, issued: usize) {
    for n in 0..issued {
        let id = format!("id-{n}");
        let scanned = snap.resources().values().find(|r| r.id.as_str() == id);
        prop_assert_eq!(snap.by_id(&id), scanned.map(|r| &**r), "{}", id);
    }
}

proptest! {
    #[test]
    fn by_id_equals_the_whole_map_scan(writes in writes()) {
        let mut snaps = [Snapshot::new(), Snapshot::new()];
        let mut issued = 0;
        for write in writes {
            match write {
                Write::Fork => snaps[1] = snaps[0].clone(),
                Write::Put { side, at } => {
                    snaps[side].put(resource(slot(at), format!("id-{issued}")));
                    issued += 1;
                }
                Write::Edit { side, at } => {
                    if let Some(held) = snaps[side].get(&slot(at)) {
                        let mut edited = held.clone();
                        edited.attrs.insert("tags".into(), Value::from(format!("e{issued}")));
                        snaps[side].put(edited);
                    }
                }
                Write::Remove { side, at } => {
                    snaps[side].remove(&slot(at));
                }
                Write::Move { side, from, to } => {
                    if let Some(mut moved) = snaps[side].remove(&slot(from)) {
                        moved.addr = slot(to);
                        snaps[side].put(moved);
                    }
                }
            }
            for snap in &snaps {
                assert_indexed_as_scanned(snap, issued);
            }
        }
    }
}
