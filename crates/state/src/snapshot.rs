//! The state document: the mapping from IaC addresses to cloud resources.
//!
//! This is the artifact the paper calls the bridge between "what cloud users
//! perceive (the IaC-level configuration) and what they actually receive
//! (the cloud-level infrastructure)". Each [`DeployedResource`] records the
//! address the user wrote, the id the cloud assigned, and the full attribute
//! set observed at apply time.
//!
//! A [`Snapshot`] shares its records: cloning one copies the keys and bumps
//! a reference count per record, so the hypothetical world an apply, a
//! refresh or a reconcile works on costs nothing for what it leaves alone,
//! and "did this resource change?" is first a pointer comparison. It also
//! answers "which managed resource has this cloud id" — what a drift poll,
//! a log-scoped refresh and the reconciler ask of every event — from an
//! index its writes keep, in one probe.
//!
//! A [`Record`] read from the log is its head — the address and cloud id
//! that open its canonical body, read when the log is opened — and that
//! body, where it sits in the log's text. The body is decoded when the
//! record is first read, once for every snapshot that shares it, and
//! [`Snapshot::to_json`] renders a record nobody has read by re-indenting
//! its body, which is the same text compact. A body whose head reads but
//! whose rest does not decode is read as its head alone and reported to the
//! log it came from: [`Snapshot::check`] refuses from then on, and so does
//! every commit to that log.

use std::borrow::{Borrow, Cow};
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use cloudless_types::{Attrs, Region, ResourceAddr, ResourceId, ResourceTypeName, SimTime, Value};
use serde::{DeError, Deserialize, Reader, Serialize, Writer};

use crate::cas::{encode_resource, ContentHash, LogImage, Text};
use crate::log::StoreError;

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

    /// What has been written, when all of it fitted.
    fn as_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.bytes[..self.len]).ok()
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

/// Refuse a record stored under a key that is not its rendered address: a
/// `get` of its address would miss it and the next `put` would make a
/// second copy. Every reader of stored records checks this.
pub(crate) fn check_key(key: &str, r: &DeployedResource) -> Result<(), String> {
    check_addr(key, &r.addr)
}

fn check_addr(key: &str, addr: &ResourceAddr) -> Result<(), String> {
    if KeyBuf::new().render(addr) == key {
        Ok(())
    } else {
        Err(format!("the record stored under {key} is that of {addr}"))
    }
}

/// A record's canonical body ([`encode_resource`]) and the content hash the
/// log stores it under.
#[derive(Debug, Clone)]
pub(crate) struct Body {
    pub(crate) hash: ContentHash,
    pub(crate) text: Text,
}

/// One record of a snapshot, shared by every snapshot that holds it. It
/// reads as the [`DeployedResource`] it holds (`Deref`), decoded from its
/// body when first read; it compares by content hash.
pub struct Record {
    /// The cloud id the head of a record read from a log names; `None`
    /// for one put decoded.
    logged_id: Option<ResourceId>,
    /// Set when read from a log, or when first encoded (by the commit that
    /// writes it, or a comparison).
    body: OnceLock<Body>,
    /// Set when put, or when first read.
    value: OnceLock<DeployedResource>,
}

impl Record {
    pub(crate) fn put(r: DeployedResource) -> Record {
        Record {
            logged_id: None,
            body: OnceLock::new(),
            value: OnceLock::from(r),
        }
    }

    /// The record stored under `key` as the blob `hash`, read as far as
    /// its head: refused when the head does not read or names another
    /// address. A head not read in place is read off the whole body,
    /// unescaped into `scratch`.
    pub(crate) fn logged(
        key: &str,
        hash: ContentHash,
        text: Text,
        scratch: &mut String,
    ) -> Result<Record, String> {
        let id = match text.escaped().and_then(|raw| head_in_place(raw, key)) {
            Some(id) => ResourceId::new(id),
            None => {
                scratch.clear();
                text.read_into(scratch)?;
                let head = read_head(scratch);
                let (addr, id) = head.map_err(|e| format!("corrupt resource record: {e}"))?;
                check_addr(key, &addr)?;
                id
            }
        };
        Ok(Record {
            logged_id: Some(id),
            body: OnceLock::from(Body { hash, text }),
            value: OnceLock::new(),
        })
    }

    /// The record stored under `key` as the blob `hash`, decoded now:
    /// refused when it does not decode or is another address's.
    pub(crate) fn decoded(key: &str, hash: ContentHash, text: Text) -> Result<Record, String> {
        let r = decode(&text, &mut String::new())?;
        check_key(key, &r)?;
        Ok(Record {
            logged_id: None,
            body: OnceLock::from(Body { hash, text }),
            value: OnceLock::from(r),
        })
    }

    /// The resource, decoded when first read.
    pub fn resource(&self) -> &DeployedResource {
        self.value.get_or_init(|| self.decode())
    }

    /// Decode the body of a record read from a log. One that does not
    /// decode reads as its head alone — no attributes, no dependencies —
    /// and is reported to its log.
    fn decode(&self) -> DeployedResource {
        let mut text = String::new();
        // a record is put with its value or read with its body
        let Some(body) = self.body.get() else {
            return self.damaged(None, &text, "the record holds no body");
        };
        decode(&body.text, &mut text)
            .unwrap_or_else(|why| self.damaged(body.text.image(), &text, &why))
    }

    /// The head of a record whose body does not decode, with `why` told to
    /// the log it was read from.
    fn damaged(&self, image: Option<&LogImage>, text: &str, why: &str) -> DeployedResource {
        // the head read when the record was, so it reads again
        let (addr, id) = read_head(text).unwrap_or_else(|_| {
            let id = self
                .logged_id
                .clone()
                .unwrap_or_else(|| ResourceId::new(""));
            (ResourceAddr::root("", ""), id)
        });
        if let Some(image) = image {
            image.report(format!("the record of {addr} does not decode: {why}"));
        }
        DeployedResource {
            rtype: addr.rtype.clone(),
            id,
            region: Region::new(""),
            attrs: Attrs::default(),
            depends_on: Vec::new(),
            created_at: SimTime::ZERO,
            addr,
        }
    }

    /// The cloud id, read without decoding the body.
    fn cloud_id(&self) -> &str {
        match &self.logged_id {
            Some(id) => id.as_str(),
            None => self.resource().id.as_str(),
        }
    }

    /// The canonical body and its hash, encoded once if the record was put.
    pub(crate) fn body(&self) -> &Body {
        self.body.get_or_init(|| {
            let text = encode_resource(self.resource());
            let hash = ContentHash::of(&text);
            let text = Text::Owned(text.into());
            Body { hash, text }
        })
    }

    /// The content hash the log stores the record under.
    pub fn hash(&self) -> ContentHash {
        self.body().hash
    }

    /// Write the record as [`DeployedResource`] writes itself. Unread, it
    /// is its body laid out in `scratch` as the writer lays it out, and so
    /// it stays; a body not in the store's one spelling of a record is
    /// decoded, which reports one that does not decode.
    fn render(&self, w: &mut Writer<'_>, scratch: &mut String) {
        if let (None, Some(body)) = (self.value.get(), self.body.get()) {
            scratch.clear();
            if body.text.lay_out(w.is_pretty(), w.level(), scratch) {
                return w.raw(scratch);
            }
        }
        self.resource().ser(w);
    }
}

impl Deref for Record {
    type Target = DeployedResource;

    fn deref(&self) -> &DeployedResource {
        self.resource()
    }
}

impl PartialEq for Record {
    fn eq(&self, other: &Record) -> bool {
        self.hash() == other.hash()
    }
}

impl std::fmt::Debug for Record {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.resource().fmt(f)
    }
}

/// The record a body holds, unescaped into `text` and decoded; a decode
/// is counted to the log the body sits in.
fn decode(body: &Text, text: &mut String) -> Result<DeployedResource, String> {
    body.read_into(text)?;
    let r = serde_json::from_str(text).map_err(|e| format!("corrupt resource record: {e}"))?;
    if let Some(image) = body.image() {
        image.count_decode();
    }
    Ok(r)
}

/// The `addr` and `id` that open a canonical body, read with the codec:
/// two fields, whatever follows them.
fn read_head(body: &str) -> Result<(ResourceAddr, ResourceId), DeError> {
    let mut r = Reader::new(body);
    r.begin_obj()?;
    let (mut addr, mut id) = (None, None);
    while addr.is_none() || id.is_none() {
        if !r.next_entry()? {
            break;
        }
        match &*r.key()? {
            "addr" if addr.is_none() => addr = Some(r.field("addr")?),
            "id" if id.is_none() => id = Some(r.field("id")?),
            _ => r.skip_value()?,
        }
    }
    match (addr, id) {
        (Some(addr), Some(id)) => Ok((addr, id)),
        (None, _) => Err(DeError::new("missing field `addr`")),
        (_, None) => Err(DeError::new("missing field `id`")),
    }
}

/// The cloud id that opens `raw` — a canonical body as its frame escapes it
/// — when the address before it is `key`'s, read in place: the address's
/// parts are rendered from the text into a stack buffer as
/// `ResourceAddr`'s `Display` renders them and compared with `key`, and no
/// address is built. `None` for a head in any other layout (an escape in
/// one of its strings, a key `{:?}` escapes, keys in another order), for one
/// that does not fit the buffer, and for one of another address: the codec
/// reads those ([`read_head`]) and refuses in its own words.
fn head_in_place<'a>(raw: &'a str, key: &str) -> Option<&'a str> {
    use std::fmt::Write as _;
    // a string with no escape in it, and what follows it
    fn plain(rest: &str) -> Option<(&str, &str)> {
        let text = rest.strip_prefix(r#"\""#)?;
        let end = text.find('\\')?;
        Some((&text[..end], text[end..].strip_prefix(r#"\""#)?))
    }
    let mut buf = KeyBuf::new();
    let mut rest = raw.strip_prefix(r#"{\"addr\":{\"module_path\":["#)?;
    if let Some((module, after)) = plain(rest) {
        write!(buf, "module.{module}.").ok()?;
        rest = after;
        while let Some(after) = rest.strip_prefix(',') {
            let (module, after) = plain(after)?;
            write!(buf, "module.{module}.").ok()?;
            rest = after;
        }
    }
    let (rtype, rest) = plain(rest.strip_prefix(r#"],\"rtype\":"#)?)?;
    let (name, rest) = plain(rest.strip_prefix(r#",\"name\":"#)?)?;
    write!(buf, "{rtype}.{name}").ok()?;
    let rest = rest.strip_prefix(r#",\"key\":"#)?;
    let rest = if let Some(rest) = rest.strip_prefix(r#"\"None\""#) {
        rest
    } else if let Some(rest) = rest.strip_prefix(r#"{\"Index\":"#) {
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        let index: u32 = rest[..digits].parse().ok()?;
        write!(buf, "[{index}]").ok()?;
        rest[digits..].strip_prefix('}')?
    } else {
        let (k, rest) = plain(rest.strip_prefix(r#"{\"Key\":"#)?)?;
        // `{:?}` writes printable ASCII but a quote and a backslash as it is
        if !k.bytes().all(|b| (b' '..=b'~').contains(&b)) {
            return None;
        }
        write!(buf, "[\"{k}\"]").ok()?;
        rest.strip_prefix('}')?
    };
    let (id, _) = plain(rest.strip_prefix(r#"},\"id\":"#)?)?;
    (buf.as_str()? == key).then_some(id)
}

/// An entry of the id index: the snapshot's own `Arc` of a record, hashed
/// and compared by its cloud id, so that a probe takes the id's `&str` and
/// an entry costs a pointer.
#[derive(Clone)]
struct ById(Arc<Record>);

impl Hash for ById {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.cloud_id().hash(state);
    }
}

impl PartialEq for ById {
    fn eq(&self, other: &ById) -> bool {
        self.0.cloud_id() == other.0.cloud_id()
    }
}

impl Eq for ById {}

impl Borrow<str> for ById {
    fn borrow(&self) -> &str {
        self.0.cloud_id()
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
    /// Records keyed by their rendered address (stable, sortable), each
    /// shared with every snapshot it was cloned into or from.
    resources: BTreeMap<String, Arc<Record>>,
    /// The same records by cloud id.
    by_id: HashSet<ById>,
    /// Root-module output values.
    pub outputs: BTreeMap<String, Value>,
    /// The log the records were read from, which hears of one that does
    /// not decode.
    log: Option<Arc<LogImage>>,
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
        w.begin_obj();
        let mut scratch = String::new();
        for (i, (key, r)) in self.resources.iter().enumerate() {
            w.key(i == 0, key);
            r.render(w, &mut scratch);
        }
        w.end_obj(self.resources.is_empty());
        w.field(false, "outputs");
        self.outputs.ser(w);
        w.end_obj(false);
    }
}

/// A snapshot as stored, before [`Snapshot::deser`] checks and indexes it.
#[derive(Deserialize)]
struct Stored {
    serial: u64,
    resources: BTreeMap<String, DeployedResource>,
    outputs: BTreeMap<String, Value>,
}

impl Deserialize for Snapshot {
    fn deser(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let Stored {
            serial,
            resources,
            outputs,
        } = Stored::deser(r)?;
        // refused when a key is not its record's address
        let records = resources.into_iter().map(|(key, r)| {
            check_key(&key, &r)?;
            Ok::<_, String>((key, Arc::new(Record::put(r))))
        });
        let resources = records.collect::<Result<_, _>>()?;
        Ok(Snapshot::indexed(serial, resources, outputs, None))
    }
}

impl Snapshot {
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of `resources`, indexed by cloud id; `log` is where they
    /// were read from, if anywhere.
    // a record's cloud id is fixed when it is made: its `OnceLock`s do not
    // move what the index hashes
    #[allow(clippy::mutable_key_type)]
    pub(crate) fn indexed(
        serial: u64,
        resources: BTreeMap<String, Arc<Record>>,
        outputs: BTreeMap<String, Value>,
        log: Option<Arc<LogImage>>,
    ) -> Snapshot {
        let mut by_id = HashSet::with_capacity(resources.len());
        for r in resources.values() {
            by_id.replace(ById(Arc::clone(r)));
        }
        Snapshot {
            serial,
            resources,
            by_id,
            outputs,
            log,
        }
    }

    /// Insert or replace a resource.
    ///
    /// The id index names the record put last: when another address
    /// already holds `r`'s id, that record stays under its address but
    /// [`Snapshot::by_id`] no longer finds it, and once `r` goes, the id is
    /// not indexed at all. The engine never writes such a world (the cloud
    /// assigns each resource its own id); a hand-made one can be.
    pub fn put(&mut self, r: DeployedResource) {
        self.insert(r.addr.to_string(), Arc::new(Record::put(r)));
    }

    /// [`Snapshot::put`] of a shared record under its rendered address.
    pub(crate) fn insert(&mut self, key: String, r: Arc<Record>) {
        match self.resources.insert(key, Arc::clone(&r)) {
            // an edit in place: the replace below takes the entry over
            Some(old) if old.cloud_id() == r.cloud_id() => {}
            Some(old) => self.unindex(&old),
            None => {}
        }
        self.by_id.replace(ById(r));
    }

    /// Remove a resource by address; returns it if present (copied only
    /// when another snapshot still holds it).
    pub fn remove(&mut self, addr: &ResourceAddr) -> Option<DeployedResource> {
        let r = self.take(KeyBuf::new().render(addr).as_ref())?;
        // decoded, so that the value is there to hand out
        r.resource();
        match Arc::try_unwrap(r) {
            Ok(r) => r.value.into_inner(),
            Err(r) => Some(r.resource().clone()),
        }
    }

    /// Remove the record under a rendered address, with its index entry.
    pub(crate) fn take(&mut self, key: &str) -> Option<Arc<Record>> {
        let r = self.resources.remove(key)?;
        self.unindex(&r);
        Some(r)
    }

    /// Drop `r`'s index entry, if the entry for its id is `r`'s.
    fn unindex(&mut self, r: &Arc<Record>) {
        let id = r.cloud_id();
        if self
            .by_id
            .get(id)
            .is_some_and(|held| Arc::ptr_eq(&held.0, r))
        {
            self.by_id.remove(id);
        }
    }

    /// Every record by rendered address, in address order. Read-only:
    /// writes go through `put` and `remove`, which keep the id index.
    pub fn resources(&self) -> &BTreeMap<String, Arc<Record>> {
        &self.resources
    }

    /// Every address with the content hash of its record, in address order.
    pub(crate) fn hashes(&self) -> impl Iterator<Item = (&String, ContentHash)> {
        self.resources.iter().map(|(key, r)| (key, r.hash()))
    }

    /// The content hash of the record under a rendered address.
    pub(crate) fn hash_of(&self, key: &str) -> Option<ContentHash> {
        self.resources.get(key).map(|r| r.hash())
    }

    /// Look up by address.
    pub fn get(&self, addr: &ResourceAddr) -> Option<&DeployedResource> {
        self.get_str(KeyBuf::new().render(addr).as_ref())
    }

    /// Look up by a pre-rendered address string (avoids re-rendering the
    /// address on hot paths that already hold the string key).
    pub fn get_str(&self, key: &str) -> Option<&DeployedResource> {
        self.resources.get(key).map(|r| r.resource())
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
        let keyed = self.resources.range(keyed).map(|(_, r)| r.resource());
        self.get_str(&bare).into_iter().chain(keyed)
    }

    /// Look up by cloud id: one probe of the index.
    pub fn by_id(&self, id: &str) -> Option<&DeployedResource> {
        self.by_id.get(id).map(|held| held.0.resource())
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

    /// Refuse the snapshot once a record read from its log has not
    /// decoded: what was read of it is its head alone. The error names the
    /// record's address.
    pub fn check(&self) -> Result<(), StoreError> {
        match self.log.as_deref().and_then(LogImage::damage) {
            Some(why) => Err(StoreError::Corrupt(why.to_owned())),
            None => Ok(()),
        }
    }

    /// Serialize as pretty JSON (the `terraform.tfstate` analogue). A
    /// record nobody has read is its body re-indented, not decoded; one
    /// that does not decode is written as its head, and
    /// [`Snapshot::check`] refuses after.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.ser(&mut Writer::pretty(&mut out));
        out
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

    /// A head as the store writes it is read in place, whatever the shape
    /// of its address: the id when it names the key's address, `None` when
    /// another's, or when one of its strings holds an escape or a key
    /// `{:?}` might escape (the codec reads those).
    #[test]
    fn a_head_the_store_writes_is_read_in_place() {
        let escaped = |addr: &str| {
            let mut framed = String::new();
            Writer::compact(&mut framed).str(&encode_resource(&res(addr, "vpc-1")));
            framed[1..framed.len() - 1].to_owned()
        };
        let plain = [
            "aws_vpc.main",
            "aws_subnet.s[3]",
            r#"module.net.module.az.aws_subnet.s["us-east-1a"]"#,
            r#"aws_vpc.k["a b"]"#,
        ];
        for addr in plain {
            let raw = escaped(addr);
            assert_eq!(head_in_place(&raw, addr), Some("vpc-1"), "{addr}");
            assert_eq!(head_in_place(&raw, "aws_vpc.other"), None, "{addr}");
        }
        for addr in [
            r#"aws_vpc.k["a\"b"]"#,
            r#"aws_vpc.k["é"]"#,
            r#"aws_vpc.k["t\tb"]"#,
        ] {
            assert_eq!(head_in_place(&escaped(addr), addr), None, "{addr}");
        }
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
