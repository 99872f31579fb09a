//! The append-only state log: devices, record framing, and crash-safe
//! scanning.
//!
//! On-disk format (`state.log`), one record per line:
//!
//! ```text
//! cloudless-statelog v1
//! <16-hex fnv64 of payload> <payload JSON>
//! <16-hex fnv64 of payload> <payload JSON>
//! ...
//! ```
//!
//! Payloads are single-line JSON (the vendored `serde_json` escapes
//! newlines inside strings, so line framing is unambiguous). Three record
//! kinds exist: **blobs** (content-addressed resource/config bodies),
//! **versions** (one per commit: the delta of puts/dels by hash, each put
//! carrying the *previous* hash so backward time travel is O(delta)), and
//! **checkpoints** (the full address→hash map at a serial, folded in
//! periodically so recovery and integrity checks need not replay a cold
//! prefix record-by-record).
//!
//! A version records the program that produced it in one of two ways. A
//! **full copy** is a blob, named by `config` — the only form older logs
//! hold. A **patch** ([`ProgramPatch`]) is written inline, as the last key
//! of the version's own line, so it is torn or whole with its version: the
//! serial of the most recent earlier version that has a program, how many
//! bytes of that program's head and tail this one shares with it, and the
//! text between them. A one-block edit of a megabyte program is then a few
//! hundred bytes, found with one comparison of the two texts and no hash
//! of either. Patches chain; a full copy is written again once the patches
//! since the last one outweigh the text or number [`MAX_PATCH_CHAIN`], so
//! reading any version's program reads at most twice its length. The
//! `patch` key is left out when there is none: a record without one has
//! the bytes it always had, and a log written before patches existed
//! re-frames byte for byte. A reader that predates the key skips it, as
//! it skips every key it does not know, and takes the version to record no
//! program; state, history and rollback are unaffected.
//!
//! Crash consistency: appends are buffered into whole lines and a torn
//! final record — truncated line, bad checksum, or unparsable tail — is
//! *recovered* by truncating back to the last whole record on open.
//! Corruption anywhere before the final record is not survivable by
//! truncation and is reported as an error instead.

use std::collections::BTreeMap;
use std::io::{BufWriter, Read, Seek, Write};
use std::marker::PhantomData;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cloudless_types::{join, SimTime, Value};
use serde::{Deserialize, Serialize};

use crate::cas::{fnv64, fnv64_byte, fnv64_line, ContentHash};

/// The first line of every state log.
pub const LOG_MAGIC: &str = "cloudless-statelog v1";

/// Errors from the log store.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    /// Unrecoverable log damage (anything a tail truncation cannot fix).
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "state log i/o error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "state log corrupt: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

// ------------------------------------------------------------------ records

/// One `puts` entry of a version record: `addr` now has content `hash`;
/// `prev` is what it had before (`None` = newly created). The `prev`
/// chain is what makes rollback and backward diffs O(delta): undoing a
/// version never needs the rest of the world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PutEntry {
    pub addr: String,
    pub hash: ContentHash,
    pub prev: Option<ContentHash>,
}

/// One `dels` entry: `addr` was removed; it previously had `prev`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelEntry {
    pub addr: String,
    pub prev: ContentHash,
}

/// A content-addressed body (canonical resource JSON or a config source).
/// The body is shared, not copied, between the record and the blob index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlobRecord {
    pub hash: ContentHash,
    pub body: Arc<str>,
}

/// Most patches between a version and the full copy of the program its
/// chain ends in: what bounds the splices a read makes, where the byte rule
/// alone would let a thousand unchanged re-applies chain a thousand empty
/// patches.
pub const MAX_PATCH_CHAIN: usize = 64;

/// A version's program as one window of change over an earlier version's:
/// `base`'s first `prefix` bytes, then `middle`, then `base`'s last
/// `suffix` bytes. Both cuts fall on `char` boundaries of the base.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramPatch {
    /// Serial of the version whose program this one edits: the most
    /// recent earlier version that recorded one.
    pub base: u64,
    pub prefix: usize,
    pub suffix: usize,
    pub middle: String,
}

impl ProgramPatch {
    /// The patch that turns `old` (the program of version `base`) into
    /// `new`: the longest head and tail the two share, backed off to `char`
    /// boundaries, and what `new` holds between them. One pass over the
    /// shared bytes, no other.
    pub(crate) fn between(base: u64, old: &str, new: &str) -> ProgramPatch {
        let (o, n) = (old.as_bytes(), new.as_bytes());
        let mut prefix = o.iter().zip(n).take_while(|(a, b)| a == b).count();
        while !new.is_char_boundary(prefix) {
            prefix -= 1;
        }
        let room = o.len().min(n.len()) - prefix;
        let tails = o.iter().rev().zip(n.iter().rev());
        let mut suffix = tails.take(room).take_while(|(a, b)| a == b).count();
        while !new.is_char_boundary(n.len() - suffix) {
            suffix -= 1;
        }
        ProgramPatch {
            base,
            prefix,
            suffix,
            middle: new[prefix..n.len() - suffix].to_owned(),
        }
    }

    /// Turn `text`, the base's program, into this version's in place; or
    /// say why the window does not fit it (a damaged record).
    pub(crate) fn apply(&self, text: &mut String) -> Result<(), String> {
        let end = text
            .len()
            .checked_sub(self.suffix)
            .filter(|end| self.prefix <= *end)
            .ok_or_else(|| {
                format!(
                    "program patch keeps {}+{} bytes of a {}-byte base",
                    self.prefix,
                    self.suffix,
                    text.len()
                )
            })?;
        if !text.is_char_boundary(self.prefix) || !text.is_char_boundary(end) {
            return Err(format!(
                "program patch cuts its base inside a character ({}..{end})",
                self.prefix
            ));
        }
        text.replace_range(self.prefix..end, &self.middle);
        Ok(())
    }
}

/// One committed version: only what changed, by content hash.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct VersionRecord {
    pub serial: u64,
    pub at: SimTime,
    pub author: String,
    pub message: String,
    /// Content hash of the IaC source that produced this version (the
    /// config↔state mapping of the time machine) when the log holds a full
    /// copy of it; config bodies are CAS-shared too, so an unchanged
    /// program costs one hash per version.
    pub config: Option<ContentHash>,
    pub puts: Vec<PutEntry>,
    pub dels: Vec<DelEntry>,
    /// Root-module outputs as of this version (small, stored inline).
    pub outputs: BTreeMap<String, Value>,
    /// The source as an edit of an earlier version's, when that is how the
    /// log holds it (`config` is then `None`). Absent from the record's
    /// text when `None`.
    pub patch: Option<ProgramPatch>,
}

impl VersionRecord {
    /// Number of delta entries (puts + dels).
    pub fn delta_len(&self) -> usize {
        self.puts.len() + self.dels.len()
    }

    /// Does this version record a program, in either form?
    pub(crate) fn has_program(&self) -> bool {
        self.config.is_some() || self.patch.is_some()
    }
}

/// The derive's text — keys in declaration order — minus a `patch` that is
/// not there, which is what keeps every older record's bytes.
impl Serialize for VersionRecord {
    fn ser(&self, w: &mut serde::Writer<'_>) {
        w.begin_obj();
        w.field(true, "serial");
        self.serial.ser(w);
        w.field(false, "at");
        self.at.ser(w);
        w.field(false, "author");
        self.author.ser(w);
        w.field(false, "message");
        self.message.ser(w);
        w.field(false, "config");
        self.config.ser(w);
        w.field(false, "puts");
        self.puts.ser(w);
        w.field(false, "dels");
        self.dels.ser(w);
        w.field(false, "outputs");
        self.outputs.ser(w);
        if let Some(patch) = &self.patch {
            w.field(false, "patch");
            patch.ser(w);
        }
        w.end_obj(false);
    }
}

/// The full address→hash map at `serial`, plus outputs: a fold of every
/// record before it. Recovery, fsck, and compaction use checkpoints to
/// avoid replaying cold prefixes entry-by-entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointRecord {
    pub serial: u64,
    pub entries: Vec<(String, ContentHash)>,
    pub outputs: BTreeMap<String, Value>,
}

impl CheckpointRecord {
    /// The checkpoint cadence: is a log that appended `entries` puts and
    /// dels since its last checkpoint, over a world of `world` addresses,
    /// due another? Often enough that a replay from the last one reads at
    /// most a quarter of the world again, never more often than every 64
    /// entries.
    pub(crate) fn due(entries: usize, world: usize) -> bool {
        entries >= 64.max(world / 4)
    }

    /// Is this the fold `world`? Entries are written in address order, so
    /// the comparison is one walk over both, with no second map.
    pub fn folds_to(&self, world: &BTreeMap<String, ContentHash>) -> bool {
        self.entries.len() == world.len()
            && self
                .entries
                .iter()
                .zip(world)
                .all(|((addr, hash), (a, h))| addr == a && hash == h)
    }
}

/// Any log record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogRecord {
    Blob(BlobRecord),
    Version(VersionRecord),
    Checkpoint(CheckpointRecord),
}

/// A record on its way into the log, by reference: the variants (and so
/// the bytes) of [`LogRecord`], without taking the record from its owner.
#[derive(Debug, Clone, Copy, Serialize)]
pub enum Framed<'a> {
    Blob(&'a BlobRecord),
    Version(&'a VersionRecord),
    Checkpoint(&'a CheckpointRecord),
}

impl<'a> From<&'a LogRecord> for Framed<'a> {
    fn from(record: &'a LogRecord) -> Framed<'a> {
        match record {
            LogRecord::Blob(b) => Framed::Blob(b),
            LogRecord::Version(v) => Framed::Version(v),
            LogRecord::Checkpoint(c) => Framed::Checkpoint(c),
        }
    }
}

/// A record as the open reads it: a blob as its hash and where its body
/// sits in the payload — the text of the JSON string, escapes and all,
/// checked but not unescaped — and any other record whole. Blob and record
/// are the same text [`LogRecord`] reads, accepted and refused alike.
///
/// A blob line in the one layout the store writes is read by
/// `blob_line`, one pass that checksums it and checks its body; every
/// other line by the codec, as [`LogRecord`] is.
#[derive(Debug)]
pub(crate) enum Indexed {
    Blob(ContentHash, Range<usize>),
    Version(VersionRecord),
    Checkpoint(CheckpointRecord),
}

impl Deserialize for Indexed {
    fn deser(r: &mut serde::Reader<'_>) -> Result<Self, serde::DeError> {
        let not_a_variant = || serde::DeError::new("expected variant of LogRecord");
        if r.peek_value() != Some(b'{') {
            return Err(not_a_variant());
        }
        r.begin_obj()?;
        if !r.next_entry()? {
            return Err(not_a_variant());
        }
        let record = match &*r.key()? {
            "Blob" => {
                let (mut hash, mut body) = (None, None);
                r.begin_obj()
                    .map_err(|_| serde::DeError::new("expected object for BlobRecord"))?;
                while r.next_entry()? {
                    match &*r.key()? {
                        "hash" if hash.is_none() => hash = Some(r.field("hash")?),
                        "body" if body.is_none() => {
                            let at = r.raw_string();
                            body = Some(at.map_err(|e| format!("field `body`: {e}"))?);
                        }
                        _ => r.skip_value()?,
                    }
                }
                let hash = hash.map_or_else(|| serde::missing("hash"), Ok)?;
                let body = body.ok_or_else(|| serde::DeError::new("missing field `body`"))?;
                Indexed::Blob(hash, body)
            }
            "Version" => Indexed::Version(VersionRecord::deser(r)?),
            "Checkpoint" => Indexed::Checkpoint(CheckpointRecord::deser(r)?),
            other => return Err(format!("unknown LogRecord variant {other}").into()),
        };
        if r.next_entry()? {
            return Err(not_a_variant());
        }
        Ok(record)
    }
}

impl FrameRecord for Indexed {
    fn fast_line(bytes: &[u8]) -> Option<(usize, Indexed)> {
        let (len, hash, body) = blob_line(bytes)?;
        Some((len, Indexed::Blob(hash, body)))
    }
}

impl FrameRecord for LogRecord {}

/// A record type a [`Frames`] walk reads lines as. Every line is read by
/// the codec — the checksum field, then the payload parsed — unless the
/// type reads it on a path of its own.
pub trait FrameRecord: Deserialize {
    /// The line at the head of `bytes`, read on the type's own path: its
    /// length without the newline and its record. `None` hands the line to
    /// the codec, which must read any line this accepts to the same record.
    fn fast_line(_bytes: &[u8]) -> Option<(usize, Self)> {
        None
    }
}

/// An [`Indexed`] read by the codec alone: what `blob_line` must agree
/// with, line for line.
struct ByCodec(Indexed);

impl Deserialize for ByCodec {
    fn deser(r: &mut serde::Reader<'_>) -> Result<Self, serde::DeError> {
        Indexed::deser(r).map(ByCodec)
    }
}

impl FrameRecord for ByCodec {}

/// One line of a walk as [`indexed_both_ways`] reports it: where it
/// starts, whether it ends the log, and the record it read (`{:?}`) or
/// the refusal.
#[doc(hidden)]
pub type WalkedLine = (usize, bool, Result<String, String>);

/// The walk of `log` past its header as the open reads it, blob lines on
/// `blob_line`'s path, and the same walk with every line read by the
/// codec. The two are equal for every log; empty when the log has no
/// header line, or is not a state log.
#[doc(hidden)]
pub fn indexed_both_ways(log: &[u8]) -> [Vec<WalkedLine>; 2] {
    fn walk<T: FrameRecord>(log: &[u8], indexed: fn(T) -> Indexed) -> Vec<WalkedLine> {
        let line =
            |(at, last, read): Frame<T>| (at, last, read.map(|r| format!("{:?}", indexed(r))));
        let frames = Frames::after_header(log).into_iter().flatten();
        frames.map(line).collect()
    }
    let by_codec = walk(log, |ByCodec(record)| record);
    [walk(log, |record| record), by_codec]
}

/// What a blob line opens with, up to its hash, and what comes between the
/// hash and the body: the store writes no other layout.
const BLOB_OPEN: &[u8] = br#"{"Blob":{"hash":""#;
const BLOB_BODY: &[u8] = br#"","body":""#;

/// What each byte of a blob body is, as its frame escapes it, to the pass
/// that reads it ([`body_pass`]): flags of the kinds below.
const BODY_BYTES: [u32; 256] = {
    let mut class = [0; 256];
    let mut b = 0;
    while b < 256 {
        class[b] = match b as u8 {
            b'"' => QUOTE,
            b'\\' => BACKSLASH,
            b'/' | b'n' | b'r' | b't' | b'b' | b'f' => 0,
            b'\n' => NEWLINE | LONE,
            0x80.. => HIGH | LONE,
            _ => LONE,
        };
        b += 1;
    }
    class
};
const BACKSLASH: u32 = 1;
/// A byte a backslash may not escape: JSON's short escapes are the others
/// (`\u` is not one).
const LONE: u32 = 2;
const QUOTE: u32 = 4;
const NEWLINE: u32 = 8;
/// A byte that is not ASCII.
const HIGH: u32 = 16;

/// The checksum `h` carried through a blob body as its frame escapes it, up
/// to the quote that ends it or a newline: the checksum with that byte, its
/// index, and the flags of every byte on the way — [`LONE`] only where it
/// follows a backslash, a bad escape. `None` when the bytes end first.
/// `escaped` is 1 on a byte after a backslash that is not itself escaped;
/// one branch a byte ends the loop, and nothing else branches.
fn body_pass(mut h: u64, body: &[u8]) -> Option<(u64, usize, u32)> {
    let (mut escaped, mut flags) = (0, 0);
    for (i, &b) in body.iter().enumerate() {
        h = fnv64_byte(h, b);
        let class = BODY_BYTES[usize::from(b)];
        flags |= class & (escaped << 1 | !LONE);
        if class & ((QUOTE | NEWLINE) ^ escaped << 2) != 0 {
            return Some((h, i, flags));
        }
        escaped = class & (escaped ^ BACKSLASH);
    }
    None
}

/// The blob line at the head of `bytes` in the layout the store writes —
/// `<16 hex> {"Blob":{"hash":"<32 hex>","body":"…"}}` — read in one pass
/// that checksums it, checks its body's escapes as `serde::Reader` checks a
/// string's and finds its end: the line's length without the newline, the
/// hash, and where the body sits in the payload. `None` for any other line
/// and for one that fails a check (a `\u` escape included), which the codec
/// then reads, and refuses in its own words.
fn blob_line(bytes: &[u8]) -> Option<(usize, ContentHash, Range<usize>)> {
    let lower_hex = |b: &u8| b.is_ascii_digit() || (b'a'..=b'f').contains(b);
    let sum = bytes.get(..16).filter(|sum| sum.iter().all(lower_hex))?;
    let payload = bytes.get(17..).filter(|_| bytes[16] == b' ')?;
    let hash = payload.strip_prefix(BLOB_OPEN)?.get(..32)?;
    let start = BLOB_OPEN.len() + 32 + BLOB_BODY.len();
    if !hash.iter().all(lower_hex) || payload.get(start - BLOB_BODY.len()..start)? != BLOB_BODY {
        return None;
    }
    let (h, len, flags) = body_pass(fnv64(&payload[..start]), &payload[start..])?;
    let at = start + len;
    if flags & LONE != 0 || payload[at] != b'"' {
        return None;
    }
    let body = start..at;
    if payload.get(at + 1..at + 4)? != b"}}\n" {
        return None;
    }
    let h = fnv64_byte(fnv64_byte(h, b'}'), b'}');
    let want = u64::from_str_radix(std::str::from_utf8(sum).ok()?, 16).ok()?;
    if h != want || (flags & HIGH != 0 && std::str::from_utf8(&payload[body.clone()]).is_err()) {
        return None;
    }
    let hash = u128::from_str_radix(std::str::from_utf8(hash).ok()?, 16).ok()?;
    Some((payload_at(0) + at + 3, ContentHash(hash), body))
}

/// Where the payload of the frame starting at byte `at` starts: past its
/// sixteen-digit checksum and the space after it (a frame whose checksum
/// is spelt any other way is not read).
pub(crate) fn payload_at(at: usize) -> usize {
    at + 17
}

/// Append `record` to `out` as one checksummed log line (with trailing
/// newline). The payload is written in place and the checksum field in
/// front of it filled in afterwards.
pub fn frame_into(out: &mut String, record: Framed<'_>) {
    let sum_at = out.len();
    out.push_str("0000000000000000 ");
    let payload_at = out.len();
    record.ser(&mut serde::Writer::compact(out));
    let payload = &out.as_bytes()[payload_at..];
    debug_assert!(!payload.contains(&b'\n'));
    let sum = format!("{:016x}", fnv64(payload));
    out.replace_range(sum_at..sum_at + 16, &sum);
    out.push('\n');
}

/// The checksum field of the framed line at the head of `bytes` (0 when it
/// has none).
pub fn frame_sum(bytes: &[u8]) -> u64 {
    let field = bytes
        .get(..16)
        .and_then(|hex| std::str::from_utf8(hex).ok());
    field
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .unwrap_or(0)
}

/// Decode the framed line at the head of `bytes`: the checksum field up
/// to the first space, then the payload up to the newline, hashed on the
/// way there. `None` when no newline ends it (a torn tail by definition),
/// else the line's length without the newline and what it held.
fn parse_line<T: Deserialize>(bytes: &[u8]) -> Option<(usize, Result<T, String>)> {
    let field = bytes.iter().position(|&b| b == b' ' || b == b'\n')?;
    if bytes[field] == b'\n' {
        return Some((field, Err("missing checksum field".to_owned())));
    }
    let (got, payload_len) = fnv64_line(&bytes[field + 1..]);
    let len = field + 1 + payload_len?;
    let record = std::str::from_utf8(&bytes[..len])
        .map_err(|e| format!("invalid utf-8: {e}"))
        .and_then(|line| {
            let (sum_hex, payload) = line.split_at(field);
            // sixteen lowercase hex digits, as written: no other spelling
            // of the same number is a frame's
            let lower_hex = |b: u8| b.is_ascii_digit() || (b'a'..=b'f').contains(&b);
            let written = sum_hex.len() == 16 && sum_hex.bytes().all(lower_hex);
            let want = (written
                .then(|| u64::from_str_radix(sum_hex, 16).ok())
                .flatten())
            .ok_or_else(|| format!("bad checksum {sum_hex:?}"))?;
            if want != got {
                return Err(format!(
                    "checksum mismatch: framed {want:016x}, computed {got:016x}"
                ));
            }
            serde_json::from_str(&payload[1..]).map_err(|e| format!("unparsable record: {e}"))
        });
    Some((len, record))
}

// --------------------------------------------------------------------- scan

/// The framed lines of a log after its header, in order: the one walk
/// every reader of a log's bytes makes (open through [`scan`], and
/// `fsck`), each line read as a `T`. Each is the byte it starts at,
/// whether nothing follows its newline in the whole log (only such a line
/// can be a torn append) and what it held, or why it cannot be read. The walk ends at `end` (the end of the bytes, or a line
/// boundary [`Frames::split`] cut at) or at a tail no newline closes; `pos`
/// is where the next line starts, or that tail.
pub struct Frames<'a, T = LogRecord> {
    bytes: &'a [u8],
    pub(crate) pos: usize,
    end: usize,
    records: PhantomData<fn() -> T>,
}

impl<'a, T> Frames<'a, T> {
    /// Cut the walk in two where the halves cost about the same: this walk
    /// stops at the line boundary nearest the cut, and the one returned
    /// goes on from it. A version or checkpoint line costs the walk more a
    /// byte than a blob line (`RECORD_WEIGHT`), so what is left is weighed
    /// by samples (`middle_by_work`), not cut at its middle byte.
    pub fn split(&mut self) -> Frames<'a, T> {
        let (from, end) = (self.pos, self.end);
        let mid = from + middle_by_work(&self.bytes[from..end]);
        // the nearest newline, looked for on both sides at once: a line can
        // be a megabyte long (a program, a version of the whole world)
        let newline = |at: usize| self.bytes[at] == b'\n';
        let near = (0..end - from).find_map(|d| {
            let ahead = (mid + d < end && newline(mid + d)).then_some(mid + d + 1);
            ahead.or_else(|| (d < mid - from && newline(mid - 1 - d)).then(|| mid - d))
        });
        let cut = near.unwrap_or(end);
        let rest = Frames { pos: cut, ..*self };
        self.end = cut;
        rest
    }

    /// The byte the next line starts at.
    pub fn next_at(&self) -> usize {
        self.pos
    }

    /// Whether the walk has read every line up to its end: it stops short
    /// at a tail no newline closes.
    pub fn finished(&self) -> bool {
        self.pos >= self.end
    }

    /// The header rule: a log is empty, or starts with [`LOG_MAGIC`] on a
    /// line of its own, or is a prefix of that line — the very first append
    /// torn mid-write, which holds no frame and recovers to the empty log.
    /// Anything else is not a state log, and `Err` says so.
    pub(crate) fn after_header(bytes: &'a [u8]) -> Result<Frames<'a, T>, String> {
        let header = format!("{LOG_MAGIC}\n");
        let (bytes, pos) = if bytes.starts_with(header.as_bytes()) {
            (bytes, header.len())
        } else if header.as_bytes().starts_with(bytes) {
            (&[][..], 0)
        } else {
            return Err(format!("missing magic header {LOG_MAGIC:?}"));
        };
        let (end, records) = (bytes.len(), PhantomData);
        Ok(Frames {
            bytes,
            pos,
            end,
            records,
        })
    }
}

/// How many times a byte of a version or checkpoint line costs a half of
/// the walk what a byte of a blob line does: the codec parses and builds
/// the one, [`blob_line`] checksums and steps over the other, and the
/// caller's half also visits what it reads. At 2 the halves of the
/// 10 000-resource estate's log end within a millisecond of each other
/// (at 3, 2 ms apart; cut at the middle byte, 4).
const RECORD_WEIGHT: usize = 2;

/// Stretches [`middle_by_work`] weighs a log in, and the bytes it samples
/// at the start of each.
const SPLIT_STRETCHES: usize = 64;
const SAMPLE_BYTES: usize = 256;

/// Where the bytes of a log past its header cost a walk as much before as
/// after: each of [`SPLIT_STRETCHES`] equal stretches weighs its length,
/// times [`RECORD_WEIGHT`] when the sample at its start reads as version or
/// checkpoint text. Both halves are read whole wherever the cut falls; the
/// weights only decide how long each takes.
fn middle_by_work(bytes: &[u8]) -> usize {
    let stretch = bytes.len().div_ceil(SPLIT_STRETCHES).max(1);
    let weight = |chunk: &[u8]| {
        let sample = &chunk[..chunk.len().min(SAMPLE_BYTES)];
        if reads_as_records(sample) {
            RECORD_WEIGHT
        } else {
            1
        }
    };
    let total: usize = bytes.chunks(stretch).map(|c| c.len() * weight(c)).sum();
    let mut before = 0;
    for (i, chunk) in bytes.chunks(stretch).enumerate() {
        let w = weight(chunk);
        let cost = chunk.len() * w;
        if 2 * (before + cost) >= total {
            return i * stretch + (total / 2).saturating_sub(before) / w;
        }
        before += cost;
    }
    bytes.len()
}

/// Whether a sample of a log reads as version or checkpoint text, whose
/// quotes are bare, rather than as a blob's body, whose quotes its frame
/// escapes: more quotes after no backslash than after one.
fn reads_as_records(sample: &[u8]) -> bool {
    let (mut bare, mut escaped) = (0, 0);
    for (i, _) in sample.iter().enumerate().filter(|(_, &b)| b == b'"') {
        match i.checked_sub(1).map(|before| sample[before]) {
            Some(b'\\') => escaped += 1,
            _ => bare += 1,
        }
    }
    bare > escaped
}

/// One framed line: where it starts, whether it ends the log, what it held.
type Frame<T = LogRecord> = (usize, bool, Result<T, String>);

impl<T: FrameRecord> Iterator for Frames<'_, T> {
    type Item = Frame<T>;

    fn next(&mut self) -> Option<Frame<T>> {
        let bytes = &self.bytes[self.pos..self.end];
        let (len, record) = match T::fast_line(bytes) {
            Some((len, record)) => (len, Ok(record)),
            None => parse_line(bytes)?,
        };
        let at = self.pos;
        self.pos += len + 1;
        Some((at, self.pos >= self.bytes.len(), record))
    }
}

/// Result of scanning raw log bytes.
#[derive(Debug)]
pub struct ScanOutcome {
    /// Whole records handed to the visitor.
    pub records: usize,
    /// Byte length of the valid prefix (header + whole records). Anything
    /// past this is the torn tail.
    pub keep_len: u64,
    /// Bytes of torn final record dropped by recovery (0 = clean log).
    pub torn_bytes: u64,
}

/// Scan raw log bytes, handing each whole record to `each` as it is
/// decoded and in log order (none is kept here but the second half's, see
/// below), and detecting a torn final record.
///
/// A defect on the *final* record (no newline, bad checksum, unparsable
/// payload) is the signature of a crash mid-append and comes back as
/// `torn_bytes > 0` with the valid prefix intact. A defect followed by
/// further records cannot be a torn append and is [`StoreError::Corrupt`],
/// as is whatever `each` refuses; the first by position decides.
///
/// The log is read in two halves that cost about the same
/// ([`Frames::split`]): a helper reads the second half's lines while the
/// caller reads and visits the first's, then the caller visits the
/// second's (see [`cloudless_types::join()`]).
pub fn scan(
    bytes: &[u8],
    mut each: impl FnMut(LogRecord) -> Result<(), StoreError>,
) -> Result<ScanOutcome, StoreError> {
    scan_at(bytes, |record, _| each(record))
}

/// [`scan`] reading the records as `T`s (the open reads them as
/// `Indexed`: a blob as where its body sits, read on `blob_line`'s
/// one pass when the store wrote it), handing `each` the byte each
/// record's frame starts at too.
pub fn scan_at<T: FrameRecord + Send>(
    bytes: &[u8],
    mut each: impl FnMut(T, usize) -> Result<(), StoreError>,
) -> Result<ScanOutcome, StoreError> {
    let mut head = Frames::<T>::after_header(bytes).map_err(StoreError::Corrupt)?;
    let mut tail = head.split();
    let mut visit = Visit {
        records: 0,
        keep: head.pos,
    };
    let (tail, torn) = join(
        move || {
            let lines: Vec<Frame<T>> = tail.by_ref().collect();
            (lines, tail.pos)
        },
        || visit.frames(&mut head, &mut each),
    );
    if !torn? {
        visit.keep = head.pos;
        // a head that stopped short of its cut stopped at a tail no newline
        // closes: the log's, and the second half is empty
        let (lines, end) = tail;
        if head.pos == head.end && !visit.frames(lines, &mut each)? {
            visit.keep = end;
        }
    }
    Ok(ScanOutcome {
        records: visit.records,
        keep_len: visit.keep as u64,
        torn_bytes: (bytes.len() - visit.keep) as u64,
    })
}

/// How far a [`scan`] has come: the whole records visited, and where the
/// last of them ends.
struct Visit {
    records: usize,
    keep: usize,
}

impl Visit {
    /// Visit `frames` in order: `Ok(true)` when a torn final line ends
    /// them (`keep` is then where it starts), `Ok(false)` when they run out
    /// (the caller knows where).
    fn frames<T>(
        &mut self,
        frames: impl IntoIterator<Item = Frame<T>>,
        each: &mut impl FnMut(T, usize) -> Result<(), StoreError>,
    ) -> Result<bool, StoreError> {
        for (at, last, record) in frames {
            self.keep = at;
            match record {
                Ok(record) => each(record, at)?,
                // only the last record can be torn
                Err(why) if !last => {
                    return Err(StoreError::Corrupt(format!(
                        "record {} at byte {at} is damaged mid-log ({why})",
                        self.records + 1
                    )));
                }
                Err(_) => return Ok(true),
            }
            self.records += 1;
        }
        Ok(false)
    }
}

// ------------------------------------------------------------------ devices

/// Where log bytes live. The store drives devices with whole framed
/// records only, so any append that completes fully preserves the
/// recovery invariant.
pub trait LogDevice: Send {
    /// The entire current contents.
    fn read_all(&mut self) -> Result<Vec<u8>, StoreError>;
    /// Append bytes at the end.
    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError>;
    /// Truncate to `len` bytes (torn-tail recovery).
    fn truncate(&mut self, len: u64) -> Result<(), StoreError>;
    /// Atomically replace the whole contents (compaction rewrite).
    fn replace(&mut self, bytes: &[u8]) -> Result<(), StoreError>;

    /// Whether the device has a slot for a memo image beside the log: a
    /// cache of the engine's front end, which nothing but the engine reads
    /// and which may be lost at any time.
    fn keeps_image(&self) -> bool {
        false
    }

    /// The memo image, if there is one.
    fn read_image(&self) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(None)
    }

    /// Replace the memo image with what `write` writes, whole or not at
    /// all (a device without a slot ignores it).
    fn write_image(&mut self, _write: &mut ImageWrite<'_>) -> Result<(), StoreError> {
        Ok(())
    }
}

/// What writes a memo image: frame by frame into the sink it is given.
pub type ImageWrite<'a> = dyn FnMut(&mut dyn Write) -> std::io::Result<()> + 'a;

/// In-memory device: property tests, seeded engine stores, experiments.
/// It has a memo image slot only when asked for one ([`MemDevice::imaged`]).
#[derive(Debug, Default)]
pub struct MemDevice {
    bytes: Vec<u8>,
    /// `None`: no slot; `Some(None)`: an empty one.
    image: Option<Option<Vec<u8>>>,
}

impl MemDevice {
    pub fn new() -> MemDevice {
        MemDevice::default()
    }

    /// Start from existing bytes (replay a captured log).
    pub fn from_bytes(bytes: Vec<u8>) -> MemDevice {
        MemDevice { bytes, image: None }
    }

    /// The same device with a memo image slot holding `image`.
    pub fn imaged(self, image: Option<Vec<u8>>) -> MemDevice {
        let image = Some(image);
        MemDevice { image, ..self }
    }

    /// The raw log bytes (tests snapshot these to simulate crashes).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl LogDevice for MemDevice {
    fn read_all(&mut self) -> Result<Vec<u8>, StoreError> {
        Ok(self.bytes.clone())
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
        self.bytes.truncate(len as usize);
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.bytes = bytes.to_vec();
        Ok(())
    }

    fn keeps_image(&self) -> bool {
        self.image.is_some()
    }

    fn read_image(&self) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.image.clone().flatten())
    }

    fn write_image(&mut self, write: &mut ImageWrite<'_>) -> Result<(), StoreError> {
        let Some(slot) = &mut self.image else {
            return Ok(());
        };
        let mut image = Vec::new();
        write(&mut image)?;
        *slot = Some(image);
        Ok(())
    }
}

/// File-backed device. Appends go through one long-lived handle;
/// `replace` writes a temp file and renames over the log so compaction
/// is atomic on POSIX filesystems.
pub struct FileDevice {
    path: PathBuf,
    file: std::fs::File,
}

impl FileDevice {
    /// Open (creating if absent) the log file at `path`.
    pub fn open(path: &Path) -> Result<FileDevice, StoreError> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(path)?;
        Ok(FileDevice {
            path: path.to_path_buf(),
            file,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Where the memo image lives: `memo.bin` beside the log.
    pub fn image_path(&self) -> PathBuf {
        self.path.with_file_name("memo.bin")
    }

    /// [`LogDevice::replace`] with the directory sync `sync` (a seam for
    /// tests). The handle is reopened before `sync` runs: the old one
    /// points at the unlinked inode, and appends after a failed sync must
    /// still land in the live log.
    fn replace_then_sync(
        &mut self,
        bytes: &[u8],
        sync: impl FnOnce(&Path) -> std::io::Result<()>,
    ) -> Result<(), StoreError> {
        rename_synced(&self.path, &self.path.with_extension("log.tmp"), bytes)?;
        self.file = FileDevice::open(&self.path)?.file;
        sync(&self.path)?;
        Ok(())
    }
}

impl LogDevice for FileDevice {
    fn read_all(&mut self) -> Result<Vec<u8>, StoreError> {
        // `File::read_to_end` reserves the file's remaining length itself
        let mut bytes = Vec::new();
        self.file.seek(std::io::SeekFrom::Start(0))?;
        self.file.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.file.write_all(bytes)?;
        self.file.flush()?;
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
        self.file.set_len(len)?;
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.replace_then_sync(bytes, sync_parent)
    }

    fn keeps_image(&self) -> bool {
        true
    }

    fn read_image(&self) -> Result<Option<Vec<u8>>, StoreError> {
        match std::fs::read(self.image_path()) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Through a small buffer into a temp file renamed over the image. No
    /// sync: a cache lost in a crash costs one cold start, and a torn one
    /// is refused by its checksums.
    fn write_image(&mut self, write: &mut ImageWrite<'_>) -> Result<(), StoreError> {
        let (path, tmp) = (self.image_path(), self.path.with_file_name("memo.bin.tmp"));
        let mut file = BufWriter::with_capacity(64 * 1024, std::fs::File::create(&tmp)?);
        write(&mut file)?;
        file.flush()?;
        drop(file);
        std::fs::rename(tmp, path)?;
        Ok(())
    }
}

/// Replace the file at `path` whole: write `tmp`, sync its bytes, rename it
/// over `path`. A crash at any point leaves `path` the old file or the new
/// one; [`sync_parent`] after it makes the rename itself durable. Without
/// the first sync, a filesystem that allocates blocks late can put the
/// rename on disk before the bytes it names, and a crash then leaves
/// `path` empty.
pub fn rename_synced(path: &Path, tmp: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(tmp, path)
}

/// Make the renames in the directory that holds `path` durable.
#[cfg(unix)]
pub fn sync_parent(path: &Path) -> std::io::Result<()> {
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
    std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

/// Elsewhere a directory cannot be opened to sync: the rename is what the
/// platform makes of it.
#[cfg(not(unix))]
pub fn sync_parent(_: &Path) -> std::io::Result<()> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn version(serial: u64) -> LogRecord {
        LogRecord::Version(VersionRecord {
            serial,
            at: SimTime(serial * 10),
            author: "t".into(),
            message: format!("v{serial}"),
            config: None,
            puts: vec![PutEntry {
                addr: format!("aws_vpc.v{serial}"),
                hash: ContentHash::of(&format!("body-{serial}")),
                prev: None,
            }],
            dels: vec![],
            outputs: BTreeMap::new(),
            patch: None,
        })
    }

    fn log_of(records: &[LogRecord]) -> Vec<u8> {
        let mut log = format!("{LOG_MAGIC}\n");
        for r in records {
            frame_into(&mut log, r.into());
        }
        log.into_bytes()
    }

    #[test]
    fn frame_and_scan_round_trip() {
        let records = vec![
            LogRecord::Blob(BlobRecord {
                hash: ContentHash::of("x"),
                body: "x".into(),
            }),
            version(1),
            LogRecord::Checkpoint(CheckpointRecord {
                serial: 1,
                entries: vec![("aws_vpc.v1".into(), ContentHash::of("body-1"))],
                outputs: BTreeMap::new(),
            }),
        ];
        let bytes = log_of(&records);
        let mut seen = Vec::new();
        let out = scan(&bytes, |r| {
            seen.push(r);
            Ok(())
        })
        .expect("clean scan");
        assert_eq!(seen, records);
        assert_eq!(out.records, records.len());
        assert_eq!(out.torn_bytes, 0);
        assert_eq!(out.keep_len, bytes.len() as u64);
    }

    #[test]
    fn scan_detects_and_isolates_torn_tail() {
        let whole = log_of(&[version(1), version(2)]);
        // cut mid-way through the final record: every prefix length from
        // "one byte into record 2" to "all but its newline" must recover
        let v1_only = log_of(&[version(1)]);
        for cut in (v1_only.len() + 1)..whole.len() {
            let out = scan(&whole[..cut], |_| Ok(())).expect("torn tail is recoverable");
            assert_eq!(out.records, 1, "cut at {cut}");
            assert_eq!(out.keep_len, v1_only.len() as u64);
            assert_eq!(out.torn_bytes, (cut - v1_only.len()) as u64);
        }
    }

    /// A log read in two halves (on two cores, side by side): the records
    /// come in log order, and the first damaged line by position decides
    /// torn against corrupt, whichever half holds it.
    #[test]
    fn a_log_read_in_halves_is_the_log_read_in_order() {
        let records: Vec<LogRecord> = (1..=2_000).map(version).collect();
        let whole = log_of(&records);
        let mut seen = Vec::new();
        let out = scan(&whole, |r| {
            seen.push(r);
            Ok(())
        })
        .expect("clean scan");
        assert_eq!(seen, records);
        assert_eq!((out.records, out.torn_bytes), (records.len(), 0));
        assert_eq!(out.keep_len, whole.len() as u64);

        // where each record's line starts (after the header's newline and
        // each record's), and a byte inside record `n` (1-based)
        let newlines = whole.iter().enumerate().filter(|(_, &b)| b == b'\n');
        let starts: Vec<usize> = newlines.map(|(at, _)| at + 1).take(records.len()).collect();
        let damaged = |ns: &[usize]| {
            let mut bytes = whole.clone();
            for &n in ns {
                bytes[starts[n - 1] + 30] ^= 0x01;
            }
            scan(&bytes, |_| Ok(()))
        };
        let corrupt_at = |ns: &[usize]| match damaged(ns) {
            Err(StoreError::Corrupt(why)) => why,
            other => panic!("{other:?}"),
        };
        let (early, late) = (100, records.len() - 100);
        let first = format!("record {early} at byte {} ", starts[early - 1]);
        assert!(corrupt_at(&[early, late]).starts_with(&first));
        let second = format!("record {late} at byte {} ", starts[late - 1]);
        assert!(corrupt_at(&[late]).starts_with(&second));
        // the first half's last line, where the split cuts this log
        let halves = Frames::<LogRecord>::after_header(&whole).map(|mut head| head.split());
        let second = halves.expect("a log").next_at();
        assert!(
            starts[0] < second && second < whole.len(),
            "cut at {second}"
        );
        let cut = starts.iter().filter(|&&at| at < second).count();
        let at_cut = format!("record {cut} at byte {} ", starts[cut - 1]);
        assert!(corrupt_at(&[cut]).starts_with(&at_cut));
        // the last line damaged is a torn append; one before it is not
        let torn = damaged(&[records.len()]).expect("a torn tail recovers");
        assert_eq!(torn.records, records.len() - 1);
        assert_eq!(torn.keep_len, starts[records.len() - 1] as u64);
        assert!(corrupt_at(&[early, records.len()]).starts_with(&first));
        // a tail no newline closes, past the halves' cut
        let cut = &whole[..whole.len() - 1];
        let torn = scan(cut, |_| Ok(())).expect("a torn tail recovers");
        assert_eq!(torn.keep_len, starts[records.len() - 1] as u64);
    }

    /// A version line costs a walk more a byte than a blob line: a log of
    /// blobs and then as many bytes of versions is cut inside its versions,
    /// at a line boundary nearer their start than the log's middle byte.
    #[test]
    fn a_log_is_cut_where_its_halves_cost_the_same() {
        let mut log = format!("{LOG_MAGIC}\n");
        for n in 0..2_000 {
            let body =
                format!(r#"{{"addr":"aws_vpc.v{n}","id":"vpc-{n}","attrs":{{"a":"1","b":"2"}}}}"#);
            let hash = ContentHash::of(&body);
            let body = body.into();
            frame_into(&mut log, Framed::Blob(&BlobRecord { hash, body }));
        }
        let blobs_end = log.len();
        let mut serial = 0;
        while log.len() < 2 * blobs_end {
            serial += 1;
            frame_into(&mut log, (&version(serial)).into());
        }
        let bytes = log.into_bytes();
        let mut head = Frames::<LogRecord>::after_header(&bytes).expect("a log");
        let cut = head.split().next_at();
        let middle = blobs_end + (bytes.len() - blobs_end) / 2;
        assert!(
            blobs_end < cut && cut < middle,
            "{blobs_end} < {cut} < {middle}"
        );
        assert_eq!(bytes[cut - 1], b'\n');
        // a log of blobs alone is cut at about its middle byte
        let mut head = Frames::<LogRecord>::after_header(&bytes[..blobs_end]).expect("a log");
        let cut = head.split().next_at() as f64;
        assert!(
            (cut / blobs_end as f64 - 0.5).abs() < 0.02,
            "{cut} of {blobs_end}"
        );
    }

    #[test]
    fn scan_rejects_mid_log_damage() {
        let mut bytes = log_of(&[version(1), version(2)]);
        // flip one byte inside the first record's payload
        let idx = LOG_MAGIC.len() + 30;
        bytes[idx] ^= 0x01;
        let err = scan(&bytes, |_| Ok(())).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
    }

    /// A checksummed line whose payload nests deep enough to have
    /// overflowed the old parser's stack is a bad payload like any other:
    /// a torn tail when it is last, corruption when a record follows.
    #[test]
    fn scan_classifies_a_hostile_payload_like_any_bad_payload() {
        let payload = format!("{{\"Blob\":{{\"later\":{}", "[".repeat(200_000));
        let hostile = format!("{:016x} {payload}\n", fnv64(payload.as_bytes()));
        let good = String::from_utf8(log_of(&[version(1)])).expect("utf-8");

        let mut log = format!("{good}{hostile}");
        let out = scan(log.as_bytes(), |_| Ok(())).expect("torn tail is recoverable");
        assert_eq!(out.records, 1);
        assert_eq!(out.keep_len, good.len() as u64);
        assert_eq!(out.torn_bytes, hostile.len() as u64);

        frame_into(&mut log, (&version(2)).into());
        let err = scan(log.as_bytes(), |_| Ok(())).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt(why) if why.contains("nesting deeper")),
            "{err}"
        );
    }

    #[test]
    fn scan_rejects_wrong_magic_and_accepts_empty() {
        assert!(matches!(
            scan(b"not a statelog\n", |_| Ok(())),
            Err(StoreError::Corrupt(_))
        ));
        let out = scan(b"", |_| Ok(())).expect("empty is a fresh log");
        assert_eq!(out.records, 0);
        assert_eq!(out.keep_len, 0);
    }

    #[test]
    fn mem_device_round_trips() {
        let mut d = MemDevice::new();
        d.append(b"abc").unwrap();
        d.append(b"def").unwrap();
        assert_eq!(d.read_all().unwrap(), b"abcdef");
        d.truncate(4).unwrap();
        assert_eq!(d.read_all().unwrap(), b"abcd");
        d.replace(b"xyz").unwrap();
        assert_eq!(d.read_all().unwrap(), b"xyz");
    }

    #[test]
    fn file_device_round_trips() {
        let dir = std::env::temp_dir().join("cloudless-logdev-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.log");
        std::fs::remove_file(&path).ok();
        {
            let mut d = FileDevice::open(&path).unwrap();
            d.append(b"hello ").unwrap();
            d.append(b"world").unwrap();
            assert_eq!(d.read_all().unwrap(), b"hello world");
            d.truncate(5).unwrap();
            assert_eq!(d.read_all().unwrap(), b"hello");
            d.replace(b"rewritten").unwrap();
            d.append(b"!").unwrap();
        }
        let mut d = FileDevice::open(&path).unwrap();
        assert_eq!(d.read_all().unwrap(), b"rewritten!");
        std::fs::remove_file(&path).ok();
    }

    /// A replace whose directory sync fails has still renamed the new log
    /// into place: the device appends to it, not to the unlinked old one.
    #[test]
    fn a_failed_directory_sync_leaves_appends_in_the_live_log() {
        let dir =
            std::env::temp_dir().join(format!("cloudless-logdev-sync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.log");
        std::fs::remove_file(&path).ok();
        let mut d = FileDevice::open(&path).unwrap();
        d.append(b"old").unwrap();
        let failed = d.replace_then_sync(b"new", |_| Err(std::io::Error::other("no dir sync")));
        assert!(matches!(failed, Err(StoreError::Io(_))), "{failed:?}");
        d.append(b" and after").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new and after");
        assert_eq!(d.read_all().unwrap(), b"new and after");
        assert!(!path.with_extension("log.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
