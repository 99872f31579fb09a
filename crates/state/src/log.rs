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
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cloudless_types::{join, SimTime, Value};
use serde::{Deserialize, Serialize};

use crate::cas::{fnv64, fnv64_line, ContentHash};

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

/// Decode the framed line at the head of `bytes`: the checksum field up
/// to the first space, then the payload up to the newline, hashed on the
/// way there. `None` when no newline ends it (a torn tail by definition),
/// else the line's length without the newline and what it held.
fn parse_line(bytes: &[u8]) -> Option<(usize, Result<LogRecord, String>)> {
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
            let want = u64::from_str_radix(sum_hex, 16)
                .map_err(|_| format!("bad checksum {sum_hex:?}"))?;
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
/// every reader of a log's bytes makes (open through [`scan`], `fsck`).
/// Each is the byte it starts at, whether nothing follows its newline in
/// the whole log (only such a line can be a torn append) and what it held,
/// or why it cannot be read. The walk ends at `end` (the end of the bytes,
/// or a line boundary [`Frames::split`] cut at) or at a tail no newline
/// closes; `pos` is where the next line starts, or that tail.
pub(crate) struct Frames<'a> {
    bytes: &'a [u8],
    pub(crate) pos: usize,
    end: usize,
}

impl<'a> Frames<'a> {
    /// The header rule: a log is empty, or starts with [`LOG_MAGIC`] on a
    /// line of its own, or is a prefix of that line — the very first append
    /// torn mid-write, which holds no frame and recovers to the empty log.
    /// Anything else is not a state log, and `Err` says so.
    pub(crate) fn after_header(bytes: &'a [u8]) -> Result<Frames<'a>, String> {
        let header = format!("{LOG_MAGIC}\n");
        if bytes.starts_with(header.as_bytes()) {
            let (pos, end) = (header.len(), bytes.len());
            Ok(Frames { bytes, pos, end })
        } else if header.as_bytes().starts_with(bytes) {
            Ok(Frames {
                bytes: &[],
                pos: 0,
                end: 0,
            })
        } else {
            Err(format!("missing magic header {LOG_MAGIC:?}"))
        }
    }

    /// Cut the walk in two at the first newline past the middle of what is
    /// left: this walk stops there, and the one returned goes on from it.
    pub(crate) fn split(&mut self) -> Frames<'a> {
        let mid = self.pos + (self.end - self.pos) / 2;
        let newline = self.bytes[mid..self.end].iter().position(|&b| b == b'\n');
        let cut = newline.map_or(self.end, |at| mid + at + 1);
        let rest = Frames {
            bytes: self.bytes,
            pos: cut,
            end: self.end,
        };
        self.end = cut;
        rest
    }
}

/// One framed line: where it starts, whether it ends the log, what it held.
type Frame = (usize, bool, Result<LogRecord, String>);

impl Iterator for Frames<'_> {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        let (len, record) = parse_line(&self.bytes[self.pos..self.end])?;
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
/// The log is read in two halves cut at a newline past its middle: a
/// helper decodes the second half's lines while the caller decodes and
/// visits the first's, then the caller visits the second's (see
/// [`cloudless_types::join()`]).
pub fn scan(
    bytes: &[u8],
    mut each: impl FnMut(LogRecord) -> Result<(), StoreError>,
) -> Result<ScanOutcome, StoreError> {
    let mut head = Frames::after_header(bytes).map_err(StoreError::Corrupt)?;
    let mut tail = head.split();
    let mut visit = Visit {
        records: 0,
        keep: head.pos,
    };
    let (tail, torn) = join(
        move || {
            let lines: Vec<Frame> = tail.by_ref().collect();
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
    fn frames(
        &mut self,
        frames: impl IntoIterator<Item = Frame>,
        each: &mut impl FnMut(LogRecord) -> Result<(), StoreError>,
    ) -> Result<bool, StoreError> {
        for (at, last, record) in frames {
            self.keep = at;
            match record {
                Ok(record) => each(record)?,
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
}

/// In-memory device: property tests, seeded engine stores, experiments.
#[derive(Debug, Default)]
pub struct MemDevice {
    bytes: Vec<u8>,
}

impl MemDevice {
    pub fn new() -> MemDevice {
        MemDevice::default()
    }

    /// Start from existing bytes (replay a captured log).
    pub fn from_bytes(bytes: Vec<u8>) -> MemDevice {
        MemDevice { bytes }
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
        // the first half's last line: the cut is the first newline past the
        // middle, so it is the line that holds the middle byte
        let middle = starts[0] + (whole.len() - starts[0]) / 2;
        let cut = starts.iter().filter(|&&at| at <= middle).count();
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
