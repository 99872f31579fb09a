//! Reference resolvers bridging HCL evaluation to cloud and state.
//!
//! * [`StateResolver`] answers resource references
//!   (`aws_network_interface.n1.id`) from a state snapshot — used both at
//!   plan time (against prior state) and at apply time (against the
//!   snapshot being built up as dependencies complete).
//! * [`DataResolver`] answers `data.*` references from the simulated cloud
//!   (e.g. `data.aws_region.current.name` returns the provider's configured
//!   region), falling back to a static map for custom data sources.

use std::collections::BTreeMap;

use cloudless_hcl::ast::{RefKind, Reference};
use cloudless_hcl::eval::Resolver;
use cloudless_types::{Provider, ResourceKey, ResourceTypeName, Value};

use cloudless_state::Snapshot;

/// The most missing indexes a counted block's list is padded over: each is
/// a null the list holds, and a state log is untrusted input.
const MAX_GAPS: usize = 1024;

/// Resolver over a state snapshot, with an optional fallback for `data.*`
/// references.
pub struct StateResolver<'a> {
    snapshot: &'a Snapshot,
    /// Module path context of the referring instance (references are
    /// resolved within the same module).
    module_path: Vec<String>,
    /// Chained resolver for `data.*` (and anything not found here).
    data: Option<&'a dyn Resolver>,
}

impl<'a> StateResolver<'a> {
    pub fn new(snapshot: &'a Snapshot) -> Self {
        StateResolver {
            snapshot,
            module_path: Vec::new(),
            data: None,
        }
    }

    /// Resolve references as seen from inside the given module.
    pub fn in_module(mut self, path: &[String]) -> Self {
        self.module_path = path.to_vec();
        self
    }

    /// Chain a data-source resolver.
    pub fn with_data(mut self, data: &'a dyn Resolver) -> Self {
        self.data = Some(data);
        self
    }

    /// Build the attribute view of all instances of a `type.name` block:
    /// a single instance resolves to its attribute map; `count` instances
    /// resolve to a list with each record at its index; `for_each`
    /// instances to a map.
    ///
    /// An index the state holds no record of (not created yet, or deleted
    /// out of band) is not yet known: a gap in the list is null, which no
    /// attribute read gets past, and one past the last record is out of
    /// bounds. A block with more than [`MAX_GAPS`] gaps (an index the
    /// state's other records do not count to) is not known at all.
    fn block_value(&self, rtype: &str, name: &str) -> Option<Value> {
        let mut indexed: Vec<(&ResourceKey, Value)> = self
            .snapshot
            .block(&self.module_path, rtype, name)
            .map(|r| {
                let attrs = r.attrs.iter().map(|(k, v)| (k.clone(), v.clone()));
                (&r.addr.key, attrs.collect())
            })
            .collect();
        if indexed.is_empty() {
            return None;
        }
        match indexed[0].0 {
            ResourceKey::None => Some(indexed.swap_remove(0).1),
            ResourceKey::Index(_) => {
                let at = |k: &ResourceKey| match k {
                    ResourceKey::Index(i) => Some(*i as usize),
                    _ => None,
                };
                let len = indexed.iter().filter_map(|(k, _)| at(k)).max()? + 1;
                if len.saturating_sub(indexed.len()) > MAX_GAPS {
                    return None;
                }
                let mut list = vec![Value::Null; len];
                for (k, v) in indexed {
                    if let Some(i) = at(k) {
                        list[i] = v;
                    }
                }
                Some(Value::List(list))
            }
            ResourceKey::Key(_) => {
                let map: BTreeMap<String, Value> = indexed
                    .into_iter()
                    .filter_map(|(k, v)| match k {
                        ResourceKey::Key(s) => Some((s.clone(), v)),
                        _ => None,
                    })
                    .collect();
                Some(Value::Map(map))
            }
        }
    }
}

impl Resolver for StateResolver<'_> {
    fn resolve(&self, reference: &Reference) -> Result<Option<Value>, String> {
        let parts = &reference.parts;
        if matches!(reference.kind(), RefKind::Data | RefKind::Module) {
            return match self.data {
                Some(d) => d.resolve(reference),
                None => Ok(None),
            };
        }
        if parts.len() < 2 {
            return Err(format!("incomplete reference {}", reference.dotted()));
        }
        let Some(base) = self.block_value(&parts[0], &parts[1]) else {
            // Unknown here: defer (plan time) — the caller decides whether
            // deferral is acceptable.
            return Ok(None);
        };
        let mut cur = base;
        for p in &parts[2..] {
            match cur.get(p) {
                Some(v) => cur = v.clone(),
                None => return Err(format!("{} has no attribute {p:?}", reference.dotted())),
            }
        }
        Ok(Some(cur))
    }
}

/// Data-source resolver over the simulated cloud's static facts.
///
/// Supported shapes:
/// * `data.<provider>_region.current.name` — the provider's default region
///   (or the one pinned in `provider` config).
/// * anything registered via [`DataResolver::insert`].
#[derive(Debug)]
pub struct DataResolver {
    /// Provider → effective region.
    regions: BTreeMap<Provider, String>,
    /// Extra entries, keyed by dotted prefix (e.g. `data.aws_ami.ubuntu`).
    extra: BTreeMap<String, Value>,
}

impl Default for DataResolver {
    fn default() -> Self {
        let regions = Provider::ALL
            .iter()
            .map(|&p| (p, p.default_region().as_str().to_owned()))
            .collect();
        DataResolver {
            regions,
            extra: BTreeMap::new(),
        }
    }
}

impl DataResolver {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a custom data-source value under a dotted prefix.
    pub fn insert(&mut self, dotted_prefix: impl Into<String>, v: Value) -> &mut Self {
        self.extra.insert(dotted_prefix.into(), v);
        self
    }
}

impl Resolver for DataResolver {
    fn resolve(&self, reference: &Reference) -> Result<Option<Value>, String> {
        let parts = &reference.parts;
        if reference.kind() != RefKind::Data {
            return Ok(None);
        }
        // data.<type>.<name>[.attr…]
        if parts.len() >= 3 {
            // region data sources: data.aws_region.current.name
            let rtype = ResourceTypeName::new(parts[1].clone());
            if rtype.short_name() == "region" {
                if let Some(p) = Provider::from_type_prefix(rtype.provider_prefix()) {
                    let region = self.regions.get(&p).cloned().unwrap_or_default();
                    let mut v = Value::Map([("name".to_owned(), Value::from(region))].into());
                    for part in &parts[3..] {
                        match v.get(part) {
                            Some(inner) => v = inner.clone(),
                            None => {
                                return Err(format!(
                                    "data source {} has no attribute {part:?}",
                                    reference.dotted()
                                ))
                            }
                        }
                    }
                    return Ok(Some(v));
                }
            }
            // registered custom data sources (longest prefix match)
            for take in (2..=parts.len()).rev() {
                let key = parts[..take].join(".");
                if let Some(v) = self.extra.get(&key) {
                    let mut cur = v.clone();
                    for part in &parts[take..] {
                        match cur.get(part) {
                            Some(inner) => cur = inner.clone(),
                            None => {
                                return Err(format!(
                                    "data source {} has no attribute {part:?}",
                                    reference.dotted()
                                ))
                            }
                        }
                    }
                    return Ok(Some(cur));
                }
            }
        }
        Err(format!("unknown data source {}", reference.dotted()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_state::DeployedResource;
    use cloudless_types::value::attrs;
    use cloudless_types::{Region, ResourceAddr, ResourceId, SimTime};

    fn deployed(addr: &str, id: &str, extra: Vec<(&str, Value)>) -> DeployedResource {
        let addr: ResourceAddr = addr.parse().unwrap();
        let mut a = attrs([("id", Value::from(id))]);
        for (k, v) in extra {
            a.insert(k.to_owned(), v);
        }
        DeployedResource {
            rtype: addr.rtype.clone(),
            id: ResourceId::new(id),
            region: Region::new("us-east-1"),
            attrs: a,
            depends_on: vec![],
            created_at: SimTime::ZERO,
            addr,
        }
    }

    fn r(parts: &[&str]) -> Reference {
        Reference::new(parts.iter().copied())
    }

    #[test]
    fn singleton_resolution() {
        let mut snap = Snapshot::new();
        snap.put(deployed("aws_network_interface.n1", "nic-7", vec![]));
        let res = StateResolver::new(&snap);
        assert_eq!(
            res.resolve(&r(&["aws_network_interface", "n1", "id"]))
                .unwrap(),
            Some(Value::from("nic-7"))
        );
        // unknown block defers
        assert_eq!(res.resolve(&r(&["aws_vpc", "ghost", "id"])).unwrap(), None);
        // unknown attribute errors
        assert!(res
            .resolve(&r(&["aws_network_interface", "n1", "nope"]))
            .is_err());
    }

    #[test]
    fn counted_block_resolves_to_list() {
        let mut snap = Snapshot::new();
        snap.put(deployed("aws_subnet.s[1]", "sn-1", vec![]));
        snap.put(deployed("aws_subnet.s[0]", "sn-0", vec![]));
        let res = StateResolver::new(&snap);
        let v = res.resolve(&r(&["aws_subnet", "s"])).unwrap().unwrap();
        let list = v.as_list().expect("list");
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].get("id"), Some(&Value::from("sn-0")));
        assert_eq!(list[1].get("id"), Some(&Value::from("sn-1")));
    }

    /// A counted block missing an index keeps every record at its own:
    /// the missing one reads as not yet known, never as the next record.
    #[test]
    fn a_missing_index_is_not_the_next_record() {
        let mut snap = Snapshot::new();
        snap.put(deployed("aws_vpc.v[0]", "vpc-0", vec![]));
        snap.put(deployed("aws_vpc.v[2]", "vpc-2", vec![]));
        let res = StateResolver::new(&snap);
        let list = res.resolve(&r(&["aws_vpc", "v"])).unwrap().unwrap();
        let list = list.as_list().expect("list");
        assert_eq!(list.len(), 3);
        assert_eq!(list[0].get("id"), Some(&Value::from("vpc-0")));
        assert_eq!(list[1], Value::Null);
        assert_eq!(list[2].get("id"), Some(&Value::from("vpc-2")));
        // an index far past what the records count to is not known at all
        let mut sparse = Snapshot::new();
        sparse.put(deployed("aws_vpc.v[4000000000]", "vpc-far", vec![]));
        let res = StateResolver::new(&sparse);
        assert_eq!(res.resolve(&r(&["aws_vpc", "v", "id"])).unwrap(), None);
    }

    #[test]
    fn for_each_block_resolves_to_map() {
        let mut snap = Snapshot::new();
        snap.put(deployed("aws_vm.web[\"eu\"]", "vm-eu", vec![]));
        snap.put(deployed("aws_vm.web[\"us\"]", "vm-us", vec![]));
        let res = StateResolver::new(&snap);
        let v = res.resolve(&r(&["aws_vm", "web"])).unwrap().unwrap();
        let m = v.as_map().expect("map");
        assert_eq!(m["eu"].get("id"), Some(&Value::from("vm-eu")));
    }

    #[test]
    fn module_scoping() {
        let mut snap = Snapshot::new();
        snap.put(deployed("module.net.aws_vpc.main", "vpc-mod", vec![]));
        snap.put(deployed("aws_vpc.main", "vpc-root", vec![]));
        let root = StateResolver::new(&snap);
        assert_eq!(
            root.resolve(&r(&["aws_vpc", "main", "id"])).unwrap(),
            Some(Value::from("vpc-root"))
        );
        let inside = StateResolver::new(&snap).in_module(&["net".to_owned()]);
        assert_eq!(
            inside.resolve(&r(&["aws_vpc", "main", "id"])).unwrap(),
            Some(Value::from("vpc-mod"))
        );
    }

    /// Every `id` leaf of a resolved block value, sorted.
    fn ids(v: &Value) -> Vec<String> {
        let mut out: Vec<String> = match v {
            Value::List(items) => items.iter().flat_map(ids).collect(),
            Value::Map(m) => match m.get("id") {
                Some(Value::Str(id)) => vec![id.clone()],
                _ => m.values().flat_map(ids).collect(),
            },
            _ => Vec::new(),
        };
        out.sort();
        out
    }

    #[test]
    fn block_resolution_matches_a_whole_snapshot_scan() {
        // sibling names extending one another, every key shape, and the
        // same block in the root and in nested modules: each must resolve
        // to exactly the members a filter over the whole map finds
        let mut snap = Snapshot::new();
        for (i, addr) in [
            "aws_vm.web",
            "aws_vm.web2[0]",
            "aws_vm.web2[1]",
            "aws_vm.web2[10]",
            "aws_vm.web_a[\"eu\"]",
            "aws_vm.web_a[\"us\"]",
            "aws_vm.web-a",
            "aws_vm_pool.web[0]",
            "module.net.aws_vm.web[0]",
            "module.net.aws_vm.web[1]",
            "module.net.module.inner.aws_vm.web",
            "module.net2.aws_vm.web",
        ]
        .into_iter()
        .enumerate()
        {
            snap.put(deployed(addr, &format!("id-{i}"), vec![]));
        }
        let net = vec!["net".to_owned()];
        let inner = vec!["net".to_owned(), "inner".to_owned()];
        let mut resolved_members = 0;
        for module in [vec![], net, inner, vec!["net2".to_owned()]] {
            for rtype in ["aws_vm", "aws_vm_pool"] {
                for name in ["web", "web2", "web_a", "web-a", "ghost"] {
                    let mut scanned: Vec<String> = snap
                        .resources()
                        .values()
                        .filter(|d| {
                            d.addr.module_path == module
                                && d.addr.rtype.as_str() == rtype
                                && d.addr.name == name
                        })
                        .map(|d| d.id.as_str().to_owned())
                        .collect();
                    scanned.sort();
                    let resolver = StateResolver::new(&snap).in_module(&module);
                    let resolved = resolver.resolve(&r(&[rtype, name])).unwrap();
                    assert_eq!(resolved.is_some(), !scanned.is_empty());
                    let resolved = resolved.as_ref().map(ids).unwrap_or_default();
                    assert_eq!(resolved, scanned, "{module:?} {rtype}.{name}");
                    resolved_members += resolved.len();
                }
            }
        }
        assert_eq!(resolved_members, snap.len(), "every member is somebody's");
        // count instances come back at their index, not in key order
        let v = StateResolver::new(&snap).resolve(&r(&["aws_vm", "web2"]));
        let ordered: Vec<_> = (v.unwrap().unwrap().as_list().unwrap().iter())
            .map(|m| m.get("id").cloned().unwrap_or(Value::Null))
            .collect();
        let mut expected = vec![Value::Null; 11];
        for (i, id) in [(0, "id-1"), (1, "id-2"), (10, "id-3")] {
            expected[i] = Value::from(id);
        }
        assert_eq!(ordered, expected);
    }

    #[test]
    fn data_resolver_regions() {
        let mut d = DataResolver::new();
        assert_eq!(
            d.resolve(&r(&["data", "aws_region", "current", "name"]))
                .unwrap(),
            Some(Value::from("us-east-1"))
        );
        assert!(d.resolve(&r(&["data", "aws_ami", "ubuntu", "id"])).is_err());
        d.insert(
            "data.aws_ami.ubuntu",
            Value::Map([("id".to_owned(), Value::from("ami-42"))].into()),
        );
        assert_eq!(
            d.resolve(&r(&["data", "aws_ami", "ubuntu", "id"])).unwrap(),
            Some(Value::from("ami-42"))
        );
        // non-data refs pass through as deferred
        assert_eq!(d.resolve(&r(&["aws_vpc", "v", "id"])).unwrap(), None);
    }

    #[test]
    fn chained_state_and_data() {
        let mut snap = Snapshot::new();
        snap.put(deployed("aws_vpc.v", "vpc-1", vec![]));
        let data = DataResolver::new();
        let res = StateResolver::new(&snap).with_data(&data);
        assert_eq!(
            res.resolve(&r(&["data", "aws_region", "current", "name"]))
                .unwrap(),
            Some(Value::from("us-east-1"))
        );
        assert_eq!(
            res.resolve(&r(&["aws_vpc", "v", "id"])).unwrap(),
            Some(Value::from("vpc-1"))
        );
    }
}
