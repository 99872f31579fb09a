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
//! and "did this resource change?" is first a pointer comparison. It also
//! answers "which managed resource has this cloud id" — what a drift poll,
//! a log-scoped refresh and the reconciler ask of every event — from an
//! index its writes keep, in one probe.

use std::borrow::{Borrow, Cow};
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use cloudless_types::{Attrs, Region, ResourceAddr, ResourceId, ResourceTypeName, SimTime, Value};
use serde::{DeError, Deserialize, Reader, Serialize, Writer};

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

/// An entry of the id index: the snapshot's own `Arc` of a record, hashed
/// and compared by its cloud id, so that a probe takes the id's `&str` and
/// an entry costs a pointer.
#[derive(Clone)]
struct ById(Arc<DeployedResource>);

impl Hash for ById {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.id.as_str().hash(state);
    }
}

impl PartialEq for ById {
    fn eq(&self, other: &ById) -> bool {
        self.0.id == other.0.id
    }
}

impl Eq for ById {}

impl Borrow<str> for ById {
    fn borrow(&self) -> &str {
        self.0.id.as_str()
    }
}

/// Refuse a record stored under a key that is not its rendered address: a
/// `get` of its address would miss it and the next `put` would make a
/// second copy. Every reader of stored records checks this.
pub(crate) fn check_key(key: &str, r: &DeployedResource) -> Result<(), String> {
    if KeyBuf::new().render(&r.addr) == key {
        Ok(())
    } else {
        Err(format!(
            "the record stored under {key} is that of {}",
            r.addr
        ))
    }
}

/// A point-in-time state document.
///
/// Its records are keyed by rendered address and indexed by cloud id.
/// Every write goes through [`Snapshot::put`] and [`Snapshot::remove`],
/// which keep both, so [`Snapshot::by_id`] is one probe. A clone shares
/// the records and copies the keys and the index's pointers.
#[derive(Clone, Default)]
pub struct Snapshot {
    /// Monotonic serial, incremented on every apply.
    pub serial: u64,
    /// Resources keyed by their rendered address (stable, sortable), each
    /// shared with every snapshot it was cloned into or from.
    resources: BTreeMap<String, Arc<DeployedResource>>,
    /// The same records by cloud id.
    by_id: HashSet<ById>,
    /// Root-module output values.
    pub outputs: BTreeMap<String, Value>,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("serial", &self.serial)
            .field("resources", &self.resources)
            .field("outputs", &self.outputs)
            .finish()
    }
}

impl PartialEq for Snapshot {
    fn eq(&self, other: &Snapshot) -> bool {
        // the index is a function of the records
        (self.serial, &self.resources, &self.outputs)
            == (other.serial, &other.resources, &other.outputs)
    }
}

impl Serialize for Snapshot {
    fn ser(&self, w: &mut Writer<'_>) {
        w.begin_obj();
        w.field(true, "serial");
        self.serial.ser(w);
        w.field(false, "resources");
        self.resources.ser(w);
        w.field(false, "outputs");
        self.outputs.ser(w);
        w.end_obj(false);
    }
}

/// A snapshot as stored, before [`Snapshot::from_records`] checks and
/// indexes it.
#[derive(Deserialize)]
struct Stored {
    serial: u64,
    resources: BTreeMap<String, Arc<DeployedResource>>,
    outputs: BTreeMap<String, Value>,
}

impl Deserialize for Snapshot {
    fn deser(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let Stored {
            serial,
            resources,
            outputs,
        } = Stored::deser(r)?;
        Snapshot::from_records(serial, resources, outputs).map_err(DeError::from)
    }
}

impl Snapshot {
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of records read from storage, refused when a key is not
    /// its record's address.
    pub(crate) fn from_records(
        serial: u64,
        resources: BTreeMap<String, Arc<DeployedResource>>,
        outputs: BTreeMap<String, Value>,
    ) -> Result<Snapshot, String> {
        let mut by_id = HashSet::with_capacity(resources.len());
        for (key, r) in &resources {
            check_key(key, r)?;
            by_id.replace(ById(Arc::clone(r)));
        }
        Ok(Snapshot {
            serial,
            resources,
            by_id,
            outputs,
        })
    }

    /// Insert or replace a resource.
    ///
    /// The id index names the record put last: when another address
    /// already holds `r`'s id, that record stays under its address but
    /// [`Snapshot::by_id`] no longer finds it, and once `r` goes, the id is
    /// not indexed at all. The engine never writes such a world (the cloud
    /// assigns each resource its own id); a hand-made one can be.
    pub fn put(&mut self, r: DeployedResource) {
        self.insert(r.addr.to_string(), Arc::new(r));
    }

    /// [`Snapshot::put`] of a shared record under its rendered address.
    pub(crate) fn insert(&mut self, key: String, r: Arc<DeployedResource>) {
        match self.resources.insert(key, Arc::clone(&r)) {
            // an edit in place: the replace below takes the entry over
            Some(old) if old.id == r.id => {}
            Some(old) => self.unindex(&old),
            None => {}
        }
        self.by_id.replace(ById(r));
    }

    /// Remove a resource by address; returns it if present (copied only
    /// when another snapshot still holds it).
    pub fn remove(&mut self, addr: &ResourceAddr) -> Option<DeployedResource> {
        self.take(KeyBuf::new().render(addr).as_ref())
            .map(Arc::unwrap_or_clone)
    }

    /// Remove the record under a rendered address, with its index entry.
    pub(crate) fn take(&mut self, key: &str) -> Option<Arc<DeployedResource>> {
        let r = self.resources.remove(key)?;
        self.unindex(&r);
        Some(r)
    }

    /// Drop `r`'s index entry, if the entry for its id is `r`'s.
    fn unindex(&mut self, r: &Arc<DeployedResource>) {
        let id = r.id.as_str();
        if self
            .by_id
            .get(id)
            .is_some_and(|held| Arc::ptr_eq(&held.0, r))
        {
            self.by_id.remove(id);
        }
    }

    /// Every resource by rendered address, in address order. Read-only:
    /// writes go through `put` and `remove`, which keep the id index.
    pub fn resources(&self) -> &BTreeMap<String, Arc<DeployedResource>> {
        &self.resources
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

    /// Look up by cloud id: one probe of the index.
    pub fn by_id(&self, id: &str) -> Option<&DeployedResource> {
        self.by_id.get(id).map(|held| held.0.as_ref())
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
        assert_eq!(s.by_id("vpc-1").unwrap().addr, addr);
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
            Arc::ptr_eq(&a.resources()[key], &b.resources()[key])
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
        let subnet = back.by_id("sn-1").map(|r| r.addr.to_string());
        assert_eq!(subnet.as_deref(), Some("aws_subnet.a[0]"));
    }

    /// A record under a key that is not its address is one `get` misses
    /// and the next `put` copies: reading one is an error.
    #[test]
    fn a_record_under_another_address_is_refused() {
        let mut s = Snapshot::new();
        s.put(res("aws_vpc.main", "vpc-1"));
        let json = s.to_json();
        let moved = json.replacen("\"aws_vpc.main\"", "\"aws_vpc.other\"", 1);
        assert_ne!(moved, json);
        let err = Snapshot::from_json(&moved).expect_err("refused");
        assert!(err.to_string().contains("aws_vpc.other"), "{err}");
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
