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
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use serde::{DeError, Deserialize, Reader, Serialize, Writer};

use crate::snapshot::{check_key, DeployedResource};

const FNV64_OFFSET: u64 = 0xcbf29ce484222325;
const FNV64_PRIME: u64 = 0x00000100000001B3;
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013B;

/// FNV-1a 64-bit — the log's per-line checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV64_OFFSET, |h, &b| fnv64_byte(h, b))
}

/// One byte more of an FNV-1a 64-bit hash `h`: for a walk that hashes a
/// line while it reads it.
#[inline]
pub(crate) fn fnv64_byte(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(FNV64_PRIME)
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
        h = fnv64_byte(h, b);
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

/// The text of a log as the open read it, kept whole: each blob read then
/// is a range of it, and each record read then keeps it and is decoded
/// from it when first read. It counts those decodes and keeps the first
/// that failed, for the operation that read it to refuse.
#[derive(Debug, Default)]
pub struct LogImage {
    text: String,
    decoded: AtomicU64,
    damage: OnceLock<String>,
}

impl LogImage {
    pub(crate) fn new(text: String) -> LogImage {
        LogImage {
            text,
            ..LogImage::default()
        }
    }

    /// Records decoded from this text so far.
    pub fn decoded(&self) -> u64 {
        self.decoded.load(Ordering::Relaxed)
    }

    /// Why the first record read from this text that did not decode is
    /// damaged, if one has been read.
    pub fn damage(&self) -> Option<&str> {
        self.damage.get().map(String::as_str)
    }

    pub(crate) fn count_decode(&self) {
        self.decoded.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn report(&self, why: String) {
        let _ = self.damage.set(why);
    }
}

/// A blob's body: the text itself, or where it sits in a log read at open
/// — a JSON string's text between the quotes of its frame, escaped as
/// written.
#[derive(Debug, Clone)]
pub enum Text {
    Owned(Arc<str>),
    Logged(Arc<LogImage>, Range<usize>),
}

impl Text {
    /// The body as one shared string: the one it is, or one unescaped.
    pub fn to_shared(&self) -> Result<Arc<str>, String> {
        match self {
            Text::Owned(text) => Ok(Arc::clone(text)),
            Text::Logged(_, at) => {
                let mut out = String::with_capacity(at.len());
                self.read_into(&mut out)?;
                Ok(out.into())
            }
        }
    }

    /// Append the body to `out`, unescaping it out of its frame: run by
    /// run, while the escapes are the one-character ones every record and
    /// program is written with; else by the codec.
    pub fn read_into(&self, out: &mut String) -> Result<(), String> {
        let (image, at) = match self {
            Text::Owned(text) => {
                out.push_str(text);
                return Ok(());
            }
            Text::Logged(image, at) => (image, at),
        };
        // the text with the frame's quotes around it
        let quoted = (at.start.checked_sub(1))
            .and_then(|start| image.text.get(start..at.end + 1))
            .ok_or_else(|| format!("a blob body at bytes {at:?} is outside the log"))?;
        let start = out.len();
        if unescape(&quoted[1..quoted.len() - 1], out) {
            return Ok(());
        }
        out.truncate(start);
        let text = Reader::new(quoted).string();
        out.push_str(&text.map_err(|e| format!("corrupt blob body: {e}"))?);
        Ok(())
    }

    /// Lay the body out into `out` as a `serde::Writer` — pretty at
    /// `level`, or compact — writes the record it holds, without decoding
    /// it; see [`lay_out`]. `false` for a body not in the store's one
    /// spelling of a record, which the caller decodes instead.
    pub(crate) fn lay_out(&self, pretty: bool, level: usize, out: &mut String) -> bool {
        match self {
            Text::Logged(image, at) => image
                .text
                .get(at.clone())
                .is_some_and(|raw| lay_out(raw, pretty, level, out)),
            Text::Owned(_) => false,
        }
    }

    /// The body's text as its frame escapes it, when it sits in a log read
    /// at open.
    pub(crate) fn escaped(&self) -> Option<&str> {
        match self {
            Text::Owned(_) => None,
            Text::Logged(image, at) => image.text.get(at.clone()),
        }
    }

    /// The log read at open that holds the body, if one does.
    pub(crate) fn image(&self) -> Option<&LogImage> {
        match self {
            Text::Owned(_) => None,
            Text::Logged(image, _) => Some(image),
        }
    }

    /// Bytes of the body as it is held.
    fn len(&self) -> usize {
        match self {
            Text::Owned(text) => text.len(),
            Text::Logged(_, at) => at.len(),
        }
    }
}

/// Unescape `raw`, a body's text as its frame escapes it, into `out`, while
/// every escape on the way stands for one character; `false` at a `\u`
/// escape, or one that is not JSON's.
fn unescape(raw: &str, out: &mut String) -> bool {
    let bytes = raw.as_bytes();
    let mut at = 0;
    loop {
        let Some(escape) = bytes[at..].iter().position(|&b| b == b'\\') else {
            out.push_str(&raw[at..]);
            return true;
        };
        let escape = at + escape;
        out.push_str(&raw[at..escape]);
        out.push(match bytes.get(escape + 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0c}',
            _ => return false,
        });
        at = escape + 2;
    }
}

/// Lay out `raw` — a body's text as its frame escapes it — into `out` as
/// `serde::Writer` lays out the record it holds, pretty at `level` or
/// compact, in one pass over the frame's text. The store writes a record
/// one way only: compact, with strings escaped as `Writer::str` escapes
/// them and numbers as it writes them, so its layout is that text with
/// newlines and indents between the tokens. `false` as soon as the text
/// is not in that form — not JSON, whitespace, an escape `Writer::str`
/// does not write, nesting past `serde::MAX_DEPTH` — with a part of the
/// layout in `out`.
fn lay_out(raw: &str, pretty: bool, level: usize, out: &mut String) -> bool {
    /// What the next token must be.
    enum Next {
        Value,
        Key,
        Colon,
        /// A `,` or the close of the innermost container, or the end.
        Sep,
    }
    let bytes = raw.as_bytes();
    let newline = |out: &mut String, depth: usize| {
        if pretty {
            out.push('\n');
            (0..depth).for_each(|_| out.push_str("  "));
        }
    };
    // the open containers, innermost last: `true` for an object
    let mut open: Vec<bool> = Vec::new();
    let (mut at, mut next) = (0, Next::Value);
    loop {
        match next {
            Next::Value | Next::Key if bytes[at..].starts_with(b"\\\"") => {
                match copy_string(raw, at + 2, out) {
                    Some(end) => at = end,
                    None => return false,
                }
                next = match next {
                    Next::Key => Next::Colon,
                    _ => Next::Sep,
                };
            }
            Next::Key => return false,
            Next::Value => match bytes.get(at) {
                Some(&b @ (b'{' | b'[')) => {
                    let close = if b == b'{' { b'}' } else { b']' };
                    if bytes.get(at + 1) == Some(&close) {
                        out.push_str(&raw[at..at + 2]);
                        at += 2;
                        next = Next::Sep;
                        continue;
                    }
                    if open.len() == serde::MAX_DEPTH {
                        return false;
                    }
                    out.push(b as char);
                    open.push(b == b'{');
                    newline(out, level + open.len());
                    at += 1;
                    next = if b == b'{' { Next::Key } else { Next::Value };
                }
                Some(_) => {
                    let token = bytes[at..].iter().position(
                        |&b| !matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'-' | b'+' | b'.' | b'E'),
                    );
                    let end = token.map_or(bytes.len(), |len| at + len);
                    if !is_literal(&raw[at..end]) {
                        return false;
                    }
                    out.push_str(&raw[at..end]);
                    at = end;
                    next = Next::Sep;
                }
                None => return false,
            },
            Next::Colon if bytes.get(at) == Some(&b':') => {
                out.push_str(if pretty { ": " } else { ":" });
                at += 1;
                next = Next::Value;
            }
            Next::Colon => return false,
            Next::Sep => {
                let Some(&object) = open.last() else {
                    return at == bytes.len();
                };
                match bytes.get(at) {
                    Some(b',') => {
                        out.push(',');
                        newline(out, level + open.len());
                        next = if object { Next::Key } else { Next::Value };
                    }
                    Some(b'}') if object => {
                        open.pop();
                        newline(out, level + open.len());
                        out.push('}');
                    }
                    Some(b']') if !object => {
                        open.pop();
                        newline(out, level + open.len());
                        out.push(']');
                    }
                    _ => return false,
                }
                at += 1;
            }
        }
    }
}

/// Copy the string whose text starts at `at` of `raw` (past the frame's
/// escape of its opening quote), quotes and escapes and all, to `out`; the
/// byte past the frame's escape of its closing quote, or `None` when it is
/// not a string `Writer::str` writes.
fn copy_string(raw: &str, mut at: usize, out: &mut String) -> Option<usize> {
    let bytes = raw.as_bytes();
    out.push('"');
    loop {
        let escape = at + bytes[at..].iter().position(|&b| b == b'\\')?;
        out.push_str(&raw[at..escape]);
        // the frame escapes a quote and a backslash of the body; any other
        // escape there is a control character, which no string holds raw
        match bytes.get(escape + 1)? {
            b'"' => {
                out.push('"');
                return Some(escape + 2);
            }
            b'\\' => {}
            _ => return None,
        }
        // the body's own escape, as the frame escapes it
        out.push('\\');
        at = escape + 2;
        match bytes.get(at)? {
            b'\\' => {
                let escaped = *bytes.get(at + 1)?;
                if escaped != b'"' && escaped != b'\\' {
                    return None;
                }
                out.push(escaped as char);
                at += 2;
            }
            b @ (b'n' | b'r' | b't' | b'b' | b'f') => {
                out.push(*b as char);
                at += 1;
            }
            b'u' => {
                // `\u00xx`, lowercase, for a control character without a
                // short escape
                let hex = raw.get(at + 1..at + 5)?;
                let lower = hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
                let code = u8::from_str_radix(hex, 16).ok().filter(|_| lower)?;
                if code >= 0x20 || matches!(code, 0x08 | 0x09 | 0x0a | 0x0c | 0x0d) {
                    return None;
                }
                out.push('u');
                out.push_str(hex);
                at += 5;
            }
            _ => return None,
        }
    }
}

/// Whether `token` is a literal as `serde::Writer` writes one: `true`,
/// `false`, `null` or a JSON number.
fn is_literal(token: &str) -> bool {
    if matches!(token, "true" | "false" | "null") {
        return true;
    }
    let digits = |s: &str| s.len() - s.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    let rest = token.strip_prefix('-').unwrap_or(token);
    let int = digits(rest);
    if int == 0 || (int > 1 && rest.starts_with('0')) {
        return false;
    }
    let mut rest = &rest[int..];
    if let Some(fraction) = rest.strip_prefix('.') {
        let n = digits(fraction);
        if n == 0 {
            return false;
        }
        rest = &fraction[n..];
    }
    if let Some(exponent) = rest.strip_prefix(['e', 'E']) {
        let exponent = exponent.strip_prefix(['+', '-']).unwrap_or(exponent);
        let n = digits(exponent);
        if n == 0 {
            return false;
        }
        rest = &exponent[n..];
    }
    rest.is_empty()
}

/// The in-memory blob index: content hash → body. A body the open read
/// stays where it sits in the log's text; one committed since is shared
/// with the record that wrote it.
#[derive(Debug, Default)]
pub struct Cas {
    blobs: HashMap<ContentHash, Text>,
    /// Inserts that found the blob already present (records deduped).
    dedup_hits: u64,
    /// Total bytes of unique blob bodies held, as held.
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
        let added = self.insert_at(hash, Text::Owned(body));
        (hash, added)
    }

    /// Insert a body under a caller-supplied hash (log replay, where the
    /// hash was framed with the blob). Returns whether it was newly added.
    pub fn insert_at(&mut self, hash: ContentHash, body: Text) -> bool {
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

    pub fn get(&self, hash: &ContentHash) -> Option<&Text> {
        self.blobs.get(hash)
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

    /// Total unique body bytes, as held.
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

    /// A body read where its frame holds it is the text framed, whatever
    /// the frame escaped: run by run, or by the codec past a `\u` escape.
    #[test]
    fn a_logged_body_reads_back_as_framed() {
        for body in ["plain", "q\" b\\ n\n t\t / é😀", "ctl \u{1} after", ""] {
            let mut framed = String::new();
            Writer::compact(&mut framed).str(body);
            let at = 1..framed.len() - 1;
            let text = Text::Logged(Arc::new(LogImage::new(framed)), at);
            let mut out = String::from(">");
            text.read_into(&mut out).unwrap();
            assert_eq!(out, format!(">{body}"));
            assert_eq!(&*text.to_shared().unwrap(), body);
        }
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
