//! Property: [`Snapshot::block`] — one probe plus one key range — finds
//! exactly the instances a filter over the whole map finds, in the same
//! (rendered-address) order, whatever else the snapshot holds.

use cloudless_state::{DeployedResource, Snapshot};
use cloudless_types::{ResourceAddr, ResourceId, ResourceKey, SimTime};
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
                        .resources
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
