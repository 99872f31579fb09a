//! Content-addressed storage for resource records.
//!
//! Every resource instance a version touches is stored once, keyed by the
//! hash of its canonical JSON encoding. Versions then reference resources
//! by hash, so an unchanged resource costs ~0 bytes per version no matter
//! how many versions the log holds — the delta log's sharing substrate.
//!
//! The hash is FNV-1a over 128 bits. FNV is not cryptographic, but the
//! store is not defending against adversarial collisions — it needs a
//! stable, dependency-free, fast content address with a collision
//! probability far below the record counts this store will ever see
//! (2^64 birthday bound at 128 bits). The same function at 64 bits doubles
//! as the per-record line checksum in the log framing.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{DeError, Deserialize, Reader, Serialize, Writer};

use crate::snapshot::{check_key, DeployedResource};

const FNV64_OFFSET: u64 = 0xcbf29ce484222325;
const FNV64_PRIME: u64 = 0x00000100000001B3;
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013B;

/// FNV-1a 64-bit — the log's per-line checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV64_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// FNV-1a 64-bit of the bytes before the first `\n` (of all of them when
/// there is none), and that newline's index. One walk: the hash is bound
/// by its multiply chain, so looking for the line end on the way is free,
/// where a search of its own is another pass over the log.
pub fn fnv64_line(bytes: &[u8]) -> (u64, Option<usize>) {
    let mut h = FNV64_OFFSET;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            return (h, Some(i));
        }
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV64_PRIME);
    }
    (h, None)
}

fn fnv128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// A 128-bit content address: FNV-1a over a record's canonical encoding.
/// Renders as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub u128);

impl ContentHash {
    /// Hash a canonical record body.
    pub fn of(body: &str) -> ContentHash {
        ContentHash(fnv128(body.as_bytes()))
    }

    /// Parse the 32-hex-digit rendering.
    pub fn parse(s: &str) -> Result<ContentHash, String> {
        if s.len() != 32 {
            return Err(format!("content hash must be 32 hex digits, got {s:?}"));
        }
        u128::from_str_radix(s, 16)
            .map(ContentHash)
            .map_err(|e| format!("bad content hash {s:?}: {e}"))
    }
}

impl std::fmt::Display for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl Serialize for ContentHash {
    fn ser(&self, w: &mut Writer<'_>) {
        w.str(&self.to_string());
    }
}

impl Deserialize for ContentHash {
    fn deser(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let s = r
            .string()
            .map_err(|_| DeError::new("expected content hash string"))?;
        ContentHash::parse(&s).map_err(DeError::from)
    }
}

/// Canonical encoding of a resource record: compact JSON with `BTreeMap`
/// attribute ordering. Two `DeployedResource` values are content-equal
/// exactly when their encodings (and hence hashes) are equal.
pub fn encode_resource(r: &DeployedResource) -> String {
    let mut body = String::new();
    r.ser(&mut Writer::compact(&mut body));
    body
}

/// Decode the record body a log entry stores under the rendered address
/// `key`, refused when it is not that address's record.
pub fn decode_resource(key: &str, body: &str) -> Result<DeployedResource, String> {
    let r = serde_json::from_str(body).map_err(|e| format!("corrupt resource record: {e}"))?;
    check_key(key, &r)?;
    Ok(r)
}

/// The in-memory blob index: content hash → canonical body. Bodies are
/// `Arc<str>` so materializing snapshots shares rather than copies.
#[derive(Debug, Default)]
pub struct Cas {
    blobs: HashMap<ContentHash, Arc<str>>,
    /// Inserts that found the blob already present (records deduped).
    dedup_hits: u64,
    /// Total bytes of unique blob bodies held.
    bytes: u64,
}

impl Cas {
    pub fn new() -> Cas {
        Cas::default()
    }

    /// Insert a body under its content hash. Returns `(hash, newly_added)`;
    /// a repeat insert is the dedup hit the log exists to exploit.
    pub fn insert(&mut self, body: Arc<str>) -> (ContentHash, bool) {
        let hash = ContentHash::of(&body);
        let added = self.insert_at(hash, body);
        (hash, added)
    }

    /// Insert a body under a caller-supplied hash (log replay, where the
    /// hash was framed with the blob). Returns whether it was newly added.
    pub fn insert_at(&mut self, hash: ContentHash, body: Arc<str>) -> bool {
        if self.blobs.contains_key(&hash) {
            self.dedup_hits += 1;
            return false;
        }
        self.bytes += body.len() as u64;
        self.blobs.insert(hash, body);
        true
    }

    /// Forget a blob whose log record was never written (a failed append):
    /// the next commit of the same content must frame it again.
    pub fn evict(&mut self, hash: &ContentHash) {
        if let Some(body) = self.blobs.remove(hash) {
            self.bytes -= body.len() as u64;
        }
    }

    pub fn get(&self, hash: &ContentHash) -> Option<Arc<str>> {
        self.blobs.get(hash).cloned()
    }

    pub fn contains(&self, hash: &ContentHash) -> bool {
        self.blobs.contains_key(hash)
    }

    /// Unique blobs held.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Inserts that were already present.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// Total unique body bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Drop every blob not in `keep` (compaction sweep). Returns how many
    /// were dropped.
    pub fn retain(&mut self, keep: &std::collections::HashSet<ContentHash>) -> usize {
        let before = self.blobs.len();
        self.blobs.retain(|h, body| {
            let kept = keep.contains(h);
            if !kept {
                self.bytes -= body.len() as u64;
            }
            kept
        });
        before - self.blobs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_types::{Region, ResourceAddr, ResourceId, SimTime, Value};

    fn res(addr: &str, name: &str) -> DeployedResource {
        let addr: ResourceAddr = addr.parse().unwrap();
        DeployedResource {
            rtype: addr.rtype.clone(),
            id: ResourceId::new("id-1"),
            region: Region::new("us-east-1"),
            attrs: [("name".to_owned(), Value::from(name))].into(),
            depends_on: vec![],
            created_at: SimTime::ZERO,
            addr,
        }
    }

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        let a = encode_resource(&res("aws_vpc.a", "x"));
        let b = encode_resource(&res("aws_vpc.a", "x"));
        let c = encode_resource(&res("aws_vpc.a", "y"));
        assert_eq!(ContentHash::of(&a), ContentHash::of(&b));
        assert_ne!(ContentHash::of(&a), ContentHash::of(&c));
    }

    #[test]
    fn hash_round_trips_through_hex() {
        let h = ContentHash::of("hello");
        let rendered = h.to_string();
        assert_eq!(rendered.len(), 32);
        assert_eq!(ContentHash::parse(&rendered).unwrap(), h);
        assert!(ContentHash::parse("xyz").is_err());
        assert!(ContentHash::parse(&"f".repeat(31)).is_err());
    }

    #[test]
    fn encode_decode_round_trip() {
        let r = res("aws_subnet.s[0]", "sn");
        let body = encode_resource(&r);
        assert!(!body.contains('\n'), "bodies must be line-framable");
        assert_eq!(decode_resource("aws_subnet.s[0]", &body).unwrap(), r);
        assert!(decode_resource("aws_subnet.s[1]", &body).is_err());
        assert!(decode_resource("aws_subnet.s[0]", "{broken").is_err());
    }

    #[test]
    fn cas_dedups_and_counts_bytes() {
        let mut cas = Cas::new();
        let (h1, added) = cas.insert("body-one".into());
        assert!(added);
        let (h2, added) = cas.insert("body-one".into());
        assert!(!added);
        assert_eq!(h1, h2);
        assert_eq!(cas.dedup_hits(), 1);
        assert_eq!(cas.len(), 1);
        assert_eq!(cas.bytes(), 8);
        cas.insert("body-two".into());
        assert_eq!(cas.len(), 2);
        let keep: std::collections::HashSet<_> = [h1].into();
        assert_eq!(cas.retain(&keep), 1);
        assert_eq!(cas.len(), 1);
        assert_eq!(cas.bytes(), 8);
        assert!(cas.get(&h1).is_some());
    }

    #[test]
    fn fnv64_matches_known_vector() {
        // FNV-1a 64 test vectors ("" and "a") from the FNV reference page
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64_line(b"a\nrest"), (fnv64(b"a"), Some(1)));
        assert_eq!(fnv64_line(b"\n"), (fnv64(b""), Some(0)));
        assert_eq!(fnv64_line(b"no end"), (fnv64(b"no end"), None));
    }
}
