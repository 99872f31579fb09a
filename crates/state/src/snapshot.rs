//! The state document: the mapping from IaC addresses to cloud resources.
//!
//! This is the artifact the paper calls the bridge between "what cloud users
//! perceive (the IaC-level configuration) and what they actually receive
//! (the cloud-level infrastructure)". Each [`DeployedResource`] records the
//! address the user wrote, the id the cloud assigned, and the full attribute
//! set observed at apply time.
//!
//! A [`Snapshot`] shares its resources: cloning one copies the keys and
//! bumps a reference count per resource, so the hypothetical world an apply,
//! a refresh or a reconcile works on costs nothing for what it leaves alone,
//! and "did this resource change?" is first a pointer comparison.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use cloudless_types::{Attrs, Region, ResourceAddr, ResourceId, ResourceTypeName, SimTime, Value};
use serde::{Deserialize, Serialize};

/// One resource the IaC engine manages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeployedResource {
    pub addr: ResourceAddr,
    pub id: ResourceId,
    pub rtype: ResourceTypeName,
    pub region: Region,
    /// Attributes as last observed (including computed ones).
    pub attrs: Attrs,
    /// Addresses this resource depends on (kept for destroy ordering).
    pub depends_on: Vec<ResourceAddr>,
    pub created_at: SimTime,
}

impl DeployedResource {
    /// Convenience accessor into attributes.
    pub fn attr(&self, name: &str) -> Option<&Value> {
        self.attrs.get(name)
    }
}

/// Where a probe renders the key of an address: on the stack when it fits,
/// which all but very long names and `for_each` keys do — the planner
/// probes once per instance, and a probe should not go to the heap.
struct KeyBuf {
    bytes: [u8; 128],
    len: usize,
}

impl KeyBuf {
    fn new() -> Self {
        KeyBuf {
            bytes: [0; 128],
            len: 0,
        }
    }

    /// The key `addr` is stored under.
    fn render(&mut self, addr: &ResourceAddr) -> Cow<'_, str> {
        use std::fmt::Write as _;
        let fits = write!(self, "{addr}").is_ok();
        match std::str::from_utf8(&self.bytes[..self.len]) {
            Ok(key) if fits => Cow::Borrowed(key),
            _ => Cow::Owned(addr.to_string()),
        }
    }
}

impl std::fmt::Write for KeyBuf {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let end = self.len + s.len();
        let room = self.bytes.get_mut(self.len..end).ok_or(std::fmt::Error)?;
        room.copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// A point-in-time state document.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// Monotonic serial, incremented on every apply.
    pub serial: u64,
    /// Resources keyed by their rendered address (stable, sortable), each
    /// shared with every snapshot it was cloned into or from.
    pub resources: BTreeMap<String, Arc<DeployedResource>>,
    /// Root-module output values.
    pub outputs: BTreeMap<String, Value>,
}

impl Snapshot {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace a resource.
    pub fn put(&mut self, r: DeployedResource) {
        self.resources.insert(r.addr.to_string(), Arc::new(r));
    }

    /// Remove a resource by address; returns it if present (copied only
    /// when another snapshot still holds it).
    pub fn remove(&mut self, addr: &ResourceAddr) -> Option<DeployedResource> {
        self.resources
            .remove(KeyBuf::new().render(addr).as_ref())
            .map(Arc::unwrap_or_clone)
    }

    /// Look up by address.
    pub fn get(&self, addr: &ResourceAddr) -> Option<&DeployedResource> {
        self.get_str(KeyBuf::new().render(addr).as_ref())
    }

    /// Look up by a pre-rendered address string (avoids re-rendering the
    /// address on hot paths that already hold the string key).
    pub fn get_str(&self, key: &str) -> Option<&DeployedResource> {
        self.resources.get(key).map(Arc::as_ref)
    }

    /// Every instance of the `rtype.name` block declared under
    /// `module_path`, in rendered-address order: the bare address, then its
    /// `count` / `for_each` instances. Keys sort by rendered address, so the
    /// block is one probe plus the contiguous `…[` key range.
    pub fn block(
        &self,
        module_path: &[String],
        rtype: &str,
        name: &str,
    ) -> impl Iterator<Item = &DeployedResource> {
        let modules: String = module_path.iter().map(|m| format!("module.{m}.")).collect();
        let bare = format!("{modules}{rtype}.{name}");
        // '\\' is the successor of '[': the range is every key extending `bare[`
        let keyed = format!("{bare}[")..format!("{bare}\\");
        let keyed = self.resources.range(keyed).map(|(_, r)| r.as_ref());
        self.get_str(&bare).into_iter().chain(keyed)
    }

    /// Look up by cloud id: a scan of the world. A caller with many ids
    /// to look up builds its own index over `resources` once.
    pub fn by_id(&self, id: &ResourceId) -> Option<&DeployedResource> {
        self.resources
            .values()
            .find(|r| &r.id == id)
            .map(Arc::as_ref)
    }

    /// All addresses, sorted.
    pub fn addrs(&self) -> Vec<ResourceAddr> {
        self.resources.values().map(|r| r.addr.clone()).collect()
    }

    /// Number of managed resources.
    pub fn len(&self) -> usize {
        self.resources.len()
    }

    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }

    /// Serialize as pretty JSON (the `terraform.tfstate` analogue).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot is serializable")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Snapshot, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_types::value::attrs;

    pub(crate) fn res(addr: &str, id: &str) -> DeployedResource {
        let addr: ResourceAddr = addr.parse().expect("addr");
        DeployedResource {
            rtype: addr.rtype.clone(),
            id: ResourceId::new(id),
            region: Region::new("us-east-1"),
            attrs: attrs([("name", Value::from(id))]),
            depends_on: vec![],
            created_at: SimTime::ZERO,
            addr,
        }
    }

    #[test]
    fn put_get_remove() {
        let mut s = Snapshot::new();
        s.put(res("aws_vpc.main", "vpc-1"));
        assert_eq!(s.len(), 1);
        let addr: ResourceAddr = "aws_vpc.main".parse().unwrap();
        assert_eq!(s.get(&addr).unwrap().id.as_str(), "vpc-1");
        assert_eq!(s.by_id(&ResourceId::new("vpc-1")).unwrap().addr, addr);
        let removed = s.remove(&addr).unwrap();
        assert_eq!(removed.id.as_str(), "vpc-1");
        assert!(s.is_empty());
        assert!(s.remove(&addr).is_none());
    }

    #[test]
    fn a_clone_shares_its_resources_until_one_side_changes_them() {
        let mut s = Snapshot::new();
        s.put(res("aws_vpc.main", "vpc-1"));
        s.put(res("aws_subnet.a", "sn-1"));
        let mut t = s.clone();
        let shared = |a: &Snapshot, b: &Snapshot, key: &str| {
            Arc::ptr_eq(&a.resources[key], &b.resources[key])
        };
        assert!(shared(&s, &t, "aws_vpc.main") && shared(&s, &t, "aws_subnet.a"));
        // a put replaces one side's resource, a remove hands out a copy
        t.put(res("aws_vpc.main", "vpc-2"));
        let subnet: ResourceAddr = "aws_subnet.a".parse().unwrap();
        assert_eq!(t.remove(&subnet).unwrap().id.as_str(), "sn-1");
        assert_eq!(s.get_str("aws_vpc.main").unwrap().id.as_str(), "vpc-1");
        assert_eq!(s.get(&subnet).unwrap().id.as_str(), "sn-1");
        assert_eq!((s.len(), t.len()), (2, 1));
    }

    #[test]
    fn a_key_too_long_for_the_stack_is_still_found() {
        let mut s = Snapshot::new();
        // a key exactly filling the probe's buffer, and ones around it
        for pad in [100, 106, 107, 108, 300] {
            let addr = format!("aws_s3_bucket.b[\"{}é\"]", "k".repeat(pad));
            s.put(res(&addr, "b-1"));
            let addr: ResourceAddr = addr.parse().unwrap();
            assert_eq!(s.get(&addr).map(|r| &r.addr), Some(&addr), "{pad}");
            assert!(s.remove(&addr).is_some(), "{pad}");
        }
        assert!(s.is_empty());
    }

    #[test]
    fn json_round_trip() {
        let mut s = Snapshot::new();
        s.serial = 42;
        s.put(res("aws_vpc.main", "vpc-1"));
        s.put(res("aws_subnet.a[0]", "sn-1"));
        s.outputs.insert("vpc_id".into(), Value::from("vpc-1"));
        let json = s.to_json();
        let back = Snapshot::from_json(&json).expect("parse");
        assert_eq!(back, s);
    }

    /// Nesting that used to overflow the stack is an error wherever it
    /// sits: as the document, inside an attribute value, under a key the
    /// snapshot does not define (the skip path).
    #[test]
    fn hostile_nesting_is_an_error() {
        let deep = "[".repeat(200_000);
        let mut s = Snapshot::new();
        s.put(res("aws_vpc.main", "vpc-1"));
        let json = s.to_json();
        let in_attr = json.replace("\"vpc-1\"\n", &format!("{deep}\n"));
        assert_ne!(in_attr, json);
        let unknown_key = json.replacen('{', &format!("{{\"later\": {deep},"), 1);
        assert!(Snapshot::from_json(&deep).is_err());
        assert!(Snapshot::from_json(&in_attr).is_err());
        let err = Snapshot::from_json(&unknown_key).expect_err("too deep");
        assert!(err.to_string().contains("nesting deeper"), "{err}");
        // the same shapes, shallow, are accepted
        let shallow = json.replacen('{', "{\"later\": [[{\"x\": [null]}]],", 1);
        assert_eq!(
            Snapshot::from_json(&shallow).expect("unknown key skipped"),
            s
        );
    }
}
