//! Block-granular source fingerprinting for the incremental pipeline.
//!
//! The converge pipeline wants to know, after an edit, *which top-level
//! blocks actually changed* — without re-lexing the whole file. This module
//! splits source text into **chunks** (one per top-level block, leading
//! trivia attached to the block that follows it), hashes each chunk, and
//! diffs an edited source against a cached [`ChunkMap`]: a common-prefix/
//! common-suffix compare (`memcmp` over blocks, the one O(source) step)
//! narrows the edit to a window, only that window is re-scanned, and the
//! diff hands back the window alone — the caller splices it into the table
//! it holds ([`ChunkMap::splice`]), which shifts the offsets of the chunks
//! after it and copies none.
//!
//! The scanner is deliberately *not* the lexer: it only needs to find
//! top-level `}` closers, so it counts braces and newlines and nothing
//! else. Where a string (with `${ … }` interpolations, which themselves
//! nest strings) or a comment ends, and which block a chunk's head names,
//! it asks [`crate::lexer`] — the parser's reader — so a chunk boundary is
//! a block boundary by construction.
//!
//! A diff never interprets the edit: it reports the window it re-scanned
//! ([`ChunkWindow`], old chunk range → new chunks), the table with the
//! window spliced in equals a fresh scan's, and the caller reads bodies
//! edited and blocks added, removed or renamed off the window. A source the
//! scanner cannot chunk at all is one opaque chunk, and a source it cannot
//! window is a window over the whole table.

use std::fmt;
use std::ops::Range;

use crate::lexer::{comment_end, resource_head, string_end};

/// FNV-1a 64-bit over a byte slice — stable, dependency-free, fast enough
/// to hash only the chunks inside an edit window.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// What kind of top-level block a chunk holds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ChunkKind {
    /// `resource "<rtype>" "<name>" { … }`
    Resource { rtype: String, name: String },
    /// Any other top-level block (`variable`, `locals`, `output`, …) or
    /// trailing trivia.
    Other,
}

/// One top-level chunk of source text.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// Byte offset of the chunk start (inclusive).
    pub start: usize,
    /// Byte offset of the chunk end (exclusive).
    pub end: usize,
    /// 1-based line number of the chunk start.
    pub line: u32,
    /// FNV-1a hash of the chunk bytes.
    pub hash: u64,
    pub kind: ChunkKind,
}

/// The chunk table for one version of a source file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChunkMap {
    pub chunks: Vec<Chunk>,
    pub src_len: usize,
}

/// The part of a cached [`ChunkMap`] an edit reaches, re-scanned: chunks
/// `old` of the cached table became `chunks`, and every chunk after them is
/// the cached one moved by `shift` bytes and `lines` lines. Either side may
/// be empty (a pure insertion, a pure deletion), and the window may hold
/// chunks the edit left alone: what changed inside it — bodies edited,
/// blocks added, removed or renamed — is for the caller to read off the two
/// sides' kinds and hashes. The cached table with the window spliced in
/// ([`ChunkMap::splice`]) is the one a fresh [`ChunkMap::build`] of the new
/// source yields.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkWindow {
    pub old: Range<usize>,
    /// In the new source's coordinates: `chunks[i]` is chunk
    /// `old.start + i` of the new table.
    pub chunks: Vec<Chunk>,
    pub shift: isize,
    pub lines: i32,
}

/// Result of diffing an edited source against a cached [`ChunkMap`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkDelta {
    /// Byte-identical source.
    Unchanged,
    /// The edit is confined to a window.
    Window(ChunkWindow),
}

impl fmt::Display for ChunkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkKind::Resource { rtype, name } => write!(f, "resource {rtype}.{name}"),
            ChunkKind::Other => write!(f, "(other)"),
        }
    }
}

/// Why a scan could not chunk its bytes.
enum ScanError {
    /// The source ends inside a block: nothing aligns.
    Unbalanced,
    /// Nothing but trivia between a `start` past 0 and the end of the
    /// source: it belongs to the chunk before `start`.
    TriviaOnly,
}

/// Scan `src` from `start` — a chunk boundary on line `start_line` — into
/// chunks, until `synced` accepts the end offset of one or the source runs
/// out. Returns the chunks and the line the scan stopped on.
///
/// A chunk boundary is a scanner state (depth 0, outside strings and
/// comments, no block seen yet), so the chunks after one depend on nothing
/// before it: a scan may start at any boundary and agrees with a scan from
/// 0 on every chunk it yields.
fn scan_from(
    src: &str,
    start: usize,
    start_line: u32,
    mut synced: impl FnMut(usize) -> bool,
) -> Result<(Vec<Chunk>, u32), ScanError> {
    let b = src.as_bytes();
    let mut chunks = Vec::new();
    let mut i = start;
    let mut line = start_line;
    let mut chunk_start = start;
    let mut chunk_line = start_line;
    let mut depth = 0usize;
    let mut saw_block = false;
    while i < b.len() {
        match b[i] {
            b'\n' => {
                line += 1;
                i += 1;
                // a chunk ends at the end of the line on which its last
                // top-level brace closed
                if depth == 0 && saw_block {
                    chunks.push(make_chunk(src, chunk_start, i, chunk_line));
                    if synced(i) {
                        return Ok((chunks, line));
                    }
                    chunk_start = i;
                    chunk_line = line;
                    saw_block = false;
                }
            }
            b'#' | b'/' | b'"' => {
                let end = match b[i] {
                    b'"' => string_end(b, i),
                    _ => comment_end(b, i).map_or(i + 1, |(end, _)| end),
                };
                line += count_lines(&b[i..end]);
                i = end;
            }
            b'{' => {
                depth += 1;
                i += 1;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    saw_block = true;
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    if depth != 0 {
        return Err(ScanError::Unbalanced);
    }
    // What is left is a block closed on an unterminated line, or trivia,
    // which joins the block before it so edits there invalidate that block
    // rather than vanish.
    if chunk_start < b.len() {
        if saw_block || (chunks.is_empty() && start == 0) {
            chunks.push(make_chunk(src, chunk_start, b.len(), chunk_line));
        } else if let Some(last) = chunks.last_mut() {
            last.end = b.len();
            last.hash = fnv1a(&b[last.start..]);
        } else {
            return Err(ScanError::TriviaOnly);
        }
    }
    Ok((chunks, line))
}

fn make_chunk(src: &str, start: usize, end: usize, line: u32) -> Chunk {
    let bytes = &src.as_bytes()[start..end];
    Chunk {
        start,
        end,
        line,
        hash: fnv1a(bytes),
        kind: match resource_head(&src[start..end]) {
            Some((rtype, name)) => ChunkKind::Resource { rtype, name },
            None => ChunkKind::Other,
        },
    }
}

impl ChunkMap {
    /// Scan a whole source file into its chunk table.
    pub fn build(src: &str) -> ChunkMap {
        let chunks = match scan_from(src, 0, 1, |_| false) {
            Ok((chunks, _)) => chunks,
            // unbalanced braces: a single opaque chunk (always "dirty")
            Err(_) => vec![make_chunk(src, 0, src.len(), 1)],
        };
        ChunkMap {
            chunks,
            src_len: src.len(),
        }
    }

    /// Indices of chunks holding resource blocks.
    pub fn resource_chunks(&self) -> impl Iterator<Item = usize> + '_ {
        self.chunks
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c.kind, ChunkKind::Resource { .. }))
            .map(|(i, _)| i)
    }

    /// The bytes of the source that chunks `range` tile (an empty range:
    /// the place between two chunks, or the end of the source). Chunk
    /// boundaries, so `char` boundaries.
    pub fn byte_range(&self, range: Range<usize>) -> Range<usize> {
        let start_of = |i: usize| self.chunks.get(i).map_or(self.src_len, |c| c.start);
        start_of(range.start)..start_of(range.end)
    }

    /// Land a window [`diff_chunks`] read off this table: its chunks take
    /// the place of the ones it re-scanned, in place, and the chunks after
    /// it move — integer adds, no chunk is copied or re-hashed.
    pub fn splice(&mut self, window: ChunkWindow) {
        let (shift, lines) = (window.shift, window.lines);
        let tail = window.old.start + window.chunks.len();
        self.chunks.splice(window.old, window.chunks);
        for c in &mut self.chunks[tail..] {
            c.start = c.start.wrapping_add_signed(shift);
            c.end = c.end.wrapping_add_signed(shift);
            c.line = c.line.wrapping_add_signed(lines);
        }
        self.src_len = self.src_len.wrapping_add_signed(shift);
    }

    /// Approximate retained size in bytes (table only, not the source).
    pub fn approx_bytes(&self) -> usize {
        self.chunks.len() * std::mem::size_of::<Chunk>()
    }
}

/// What [`common_prefix`] and [`common_suffix`] compare at a time.
const BLOCK: usize = 4096;

/// How many leading bytes `a` and `b` share. Whole blocks are compared as
/// slices (`memcmp`); only the block that differs is read byte by byte.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let blocks = a.chunks(BLOCK).zip(b.chunks(BLOCK));
    let same = blocks.take_while(|(x, y)| x == y).count() * BLOCK;
    let at = same.min(a.len()).min(b.len());
    let rest = a[at..].iter().zip(&b[at..]);
    at + rest.take_while(|(x, y)| x == y).count()
}

/// The same, of trailing bytes.
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let blocks = a.rchunks(BLOCK).zip(b.rchunks(BLOCK));
    let same = blocks.take_while(|(x, y)| x == y).count() * BLOCK;
    let at = same.min(a.len()).min(b.len());
    let rest = a[..a.len() - at].iter().rev();
    let rest = rest.zip(b[..b.len() - at].iter().rev());
    at + rest.take_while(|(x, y)| x == y).count()
}

/// Diff an edited `new_src` against the cached map of `old_src`.
///
/// A prefix/suffix compare locates the changed bytes (they may begin and
/// end inside a multi-byte character: the offsets are only ever held
/// against chunk boundaries, never sliced at), the re-scan starts at the
/// last cached chunk boundary before them and stops at the first chunk end
/// past them that is a cached boundary too, and nothing outside that window
/// is read: O(source) `memcmp` plus O(edit) scanning and hashing, no
/// allocation but the window's chunks. Starting and stopping on boundaries
/// both scans share is what makes the spliced table the one a fresh scan
/// builds: trivia around an inserted or deleted block re-attaches to
/// whichever block the scanner gives it to.
pub fn diff_chunks(old: &ChunkMap, old_src: &str, new_src: &str) -> ChunkDelta {
    let (ob, nb) = (old_src.as_bytes(), new_src.as_bytes());
    debug_assert_eq!(old.src_len, ob.len(), "old map must match old source");

    let p = common_prefix(ob, nb);
    if p == ob.len() && p == nb.len() {
        return ChunkDelta::Unchanged;
    }
    // the two may not overlap (`aaaa` → `aaa` shares three bytes, once)
    let max_s = ob.len().min(nb.len()) - p;
    let s = common_suffix(&ob[ob.len() - max_s..], &nb[nb.len() - max_s..]);

    let shift = nb.len() as isize - ob.len() as isize;
    let rebuilt = || {
        ChunkDelta::Window(ChunkWindow {
            old: 0..old.chunks.len(),
            chunks: ChunkMap::build(new_src).chunks,
            shift,
            lines: 0,
        })
    };
    if old.chunks.is_empty() {
        return rebuilt();
    }
    // An offset of the new source's unchanged tail is a place to stop when
    // the cached scan had a boundary there: which old chunk ends at it.
    let old_end_at = |e: usize| {
        let o = e.checked_add_signed(-shift)?;
        let ends_there = old.chunks.binary_search_by_key(&o, |c| c.end);
        ends_there.ok().filter(|_| e >= nb.len() - s)
    };
    // The first cached chunk the edit reaches (an edit past the last one
    // re-opens it); trivia left over at the end of the source re-opens the
    // chunk before that.
    let mut a = old.chunks.partition_point(|c| c.end <= p);
    a = a.min(old.chunks.len() - 1);
    let (chunks, line) = loop {
        let first = &old.chunks[a];
        match scan_from(new_src, first.start, first.line, |e| {
            old_end_at(e).is_some()
        }) {
            Ok(scan) => break scan,
            Err(ScanError::TriviaOnly) if a > 0 => a -= 1,
            Err(_) => return rebuilt(),
        }
    };
    // one past the last cached chunk of the window
    let end = chunks.last().map_or(nb.len(), |c| c.end);
    let b = old_end_at(end).map_or(old.chunks.len(), |b| b + 1).max(a);
    let lines = old.chunks.get(b).map_or(0, |c| line as i32 - c.line as i32);
    ChunkDelta::Window(ChunkWindow {
        old: a..b,
        chunks,
        shift,
        lines,
    })
}

fn count_lines(bytes: &[u8]) -> u32 {
    bytes.iter().filter(|&&b| b == b'\n').count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"variable "region" { default = "us-east-1" }
# fleet
resource "aws_virtual_machine" "web" {
  name   = "web"
  region = var.region
}
resource "aws_s3_bucket" "logs" {
  bucket = "logs"
}
output "b" { value = aws_s3_bucket.logs.bucket }
"#;

    #[test]
    fn chunks_cover_source_and_classify() {
        let map = ChunkMap::build(SRC);
        assert_eq!(map.chunks.len(), 4, "{:#?}", map.chunks);
        assert_eq!(map.chunks[0].start, 0);
        assert_eq!(map.chunks.last().unwrap().end, SRC.len());
        for w in map.chunks.windows(2) {
            assert_eq!(w[0].end, w[1].start, "chunks must tile the source");
        }
        assert_eq!(map.chunks[0].kind, ChunkKind::Other);
        assert_eq!(
            map.chunks[1].kind,
            ChunkKind::Resource {
                rtype: "aws_virtual_machine".into(),
                name: "web".into()
            }
        );
        assert_eq!(map.chunks[1].line, 2, "leading comment joins the block");
        assert_eq!(map.resource_chunks().collect::<Vec<_>>(), vec![1, 2]);
    }

    /// The diff of `old` → `new`, spliced into the old table and held
    /// against a fresh scan: the window's (old, new) chunk ranges and the
    /// new-window chunks whose content no old-window chunk of the same kind
    /// has.
    fn window(old: &str, new: &str) -> (Range<usize>, Range<usize>, Vec<usize>) {
        let mut map = ChunkMap::build(old);
        match diff_chunks(&map, old, new) {
            ChunkDelta::Window(window) => {
                let was = window.old.clone();
                let now = was.start..was.start + window.chunks.len();
                let known = |c: &Chunk| {
                    let same = |o: &Chunk| o.kind == c.kind && o.hash == c.hash;
                    map.chunks[was.clone()].iter().any(same)
                };
                let changed = now.clone().zip(&window.chunks);
                let changed = changed.filter(|(_, c)| !known(c)).map(|(i, _)| i);
                let changed = changed.collect();
                let bytes = map.byte_range(was.clone());
                map.splice(window);
                assert_eq!(map, ChunkMap::build(new), "spliced == full rescan");
                // the bytes outside the window are the ones both sources share
                let grown = bytes.start..bytes.end + new.len() - old.len();
                assert_eq!(map.byte_range(now.clone()), grown);
                assert_eq!(old[..bytes.start], new[..grown.start]);
                assert_eq!(old[bytes.end..], new[grown.end..]);
                (was, now, changed)
            }
            other => panic!("expected a window, got {other:?}"),
        }
    }

    #[test]
    fn identical_source_is_unchanged() {
        let map = ChunkMap::build(SRC);
        assert_eq!(diff_chunks(&map, SRC, SRC), ChunkDelta::Unchanged);
    }

    #[test]
    fn attribute_edit_dirties_one_chunk() {
        let edited = SRC.replace("= \"web\"", "= \"web-2\"");
        assert_eq!(window(SRC, &edited), (1..2, 1..2, vec![1]));
    }

    #[test]
    fn multiline_growth_shifts_suffix_chunks() {
        let edited = SRC.replace(
            "  name   = \"web\"\n",
            "  name   = \"web\"\n  zone   = \"a\"\n  extra  = 1\n",
        );
        assert_eq!(window(SRC, &edited), (1..2, 1..2, vec![1]));
    }

    #[test]
    fn block_addition_widens_the_window() {
        // the tail chunk is re-opened (it owned the end of the source) and
        // comes back unchanged, followed by the new block
        let edited = format!("{SRC}resource \"aws_vpc\" \"v\" {{ cidr_block = \"10.0.0.0/8\" }}\n");
        assert_eq!(window(SRC, &edited), (3..4, 3..5, vec![4]));
        // mid-file, the window is the inserted block and the one it shares
        // its first bytes with
        let at = SRC.find("resource \"aws_s3_bucket\"").unwrap();
        let block = "resource \"aws_vpc\" \"v\" {\n  cidr_block = \"10.0.0.0/8\"\n}\n";
        let edited = format!("{}{block}{}", &SRC[..at], &SRC[at..]);
        assert_eq!(window(SRC, &edited), (2..3, 2..4, vec![2]));
    }

    #[test]
    fn block_removal_narrows_the_window() {
        let at = SRC.find("resource \"aws_s3_bucket\"").unwrap();
        let end = SRC.find("output").unwrap();
        let edited = format!("{}{}", &SRC[..at], &SRC[end..]);
        assert_eq!(window(SRC, &edited), (2..4, 2..3, vec![]));
    }

    #[test]
    fn block_rename_is_a_one_chunk_window() {
        let edited = SRC.replace("\"logs\" {", "\"archive\" {");
        assert_eq!(window(SRC, &edited), (2..3, 2..3, vec![2]));
    }

    #[test]
    fn trivia_reattaches_around_a_deleted_block() {
        // the blank line the deleted block led with now leads the next one
        let src =
            "resource \"a\" \"x\" {\n}\n\nresource \"a\" \"y\" {\n}\n\nresource \"a\" \"z\" {\n}\n";
        let edited = src.replace("resource \"a\" \"y\" {\n}\n\n", "");
        assert_eq!(window(src, &edited), (1..3, 1..2, vec![]));
        // and trivia left at the end of the source joins the block before it
        let edited = src.replace("resource \"a\" \"z\" {\n}\n", "# gone\n");
        assert_eq!(window(src, &edited), (1..3, 1..2, vec![1]));
    }

    #[test]
    fn edit_across_two_blocks_dirties_both() {
        let edited = SRC
            .replace("region = var.region", "region = \"eu-west-1\"")
            .replace("bucket = \"logs\"", "bucket = \"archive\"");
        assert_eq!(window(SRC, &edited), (1..3, 1..3, vec![1, 2]));
    }

    #[test]
    fn strings_with_braces_and_interpolation_do_not_confuse_depth() {
        let src = "resource \"aws_s3_bucket\" \"b\" {\n  bucket = \"a${var.x}-{literal}\"\n}\nresource \"aws_vpc\" \"v\" {\n  cidr_block = \"10.0.0.0/8\"\n}\n";
        let map = ChunkMap::build(src);
        assert_eq!(map.chunks.len(), 2, "{:#?}", map.chunks);
        let edited = src.replace("10.0.0.0/8", "10.1.0.0/8");
        assert_eq!(window(src, &edited), (1..2, 1..2, vec![1]));
    }

    #[test]
    fn whole_block_rewrite_same_key_is_one_dirty_chunk() {
        let edited = SRC.replace(
            "resource \"aws_s3_bucket\" \"logs\" {\n  bucket = \"logs\"\n}",
            "resource \"aws_s3_bucket\" \"logs\" {\n  bucket = \"logs-v2\"\n  acl    = \"private\"\n}",
        );
        assert_eq!(window(SRC, &edited), (2..3, 2..3, vec![2]));
    }

    #[test]
    fn an_unbalanced_source_is_one_opaque_chunk() {
        let broken = SRC.replacen("}\n", "\n", 1);
        assert_eq!(window(SRC, &broken), (0..4, 0..1, vec![0]));
        assert_eq!(window(&broken, SRC).0, 0..1);
    }

    #[test]
    fn prefix_and_suffix_share_no_byte_and_may_split_a_character() {
        // `aaaa` → `aaa`: three bytes in common, not three and three
        assert_eq!(
            (common_prefix(b"aaaa", b"aaa"), common_suffix(b"a", b"")),
            (3, 0)
        );
        assert_eq!(window("aaaa", "aaa"), (0..1, 0..1, vec![0]));
        assert_eq!(window("aaa", "aaaa"), (0..1, 0..1, vec![0]));
        let long = "a".repeat(3 * 4096 + 5);
        assert_eq!(window(&long, &long[1..]), (0..1, 0..1, vec![0]));
        // `é` → `è` differ in their second byte: the edit begins and ends
        // inside a character, mid-block and across a compare block
        for pad in [0, 4095] {
            let lead = format!("# {}\n", "x".repeat(pad));
            let src = format!(
                "{lead}resource \"a\" \"x\" {{\n  v = \"é\"\n}}\nresource \"a\" \"y\" {{\n}}\n"
            );
            assert_eq!(window(&src, &src.replace('é', "è")), (0..1, 0..1, vec![0]));
            assert_eq!(window(&src, &src.replace('é', "éé")), (0..1, 0..1, vec![0]));
            assert_eq!(window(&src, &src.replace('é', "")), (0..1, 0..1, vec![0]));
        }
    }

    #[test]
    fn large_file_edit_is_windowed() {
        // synthetic large file; an edit near the end re-scans one chunk
        let mut src = String::new();
        for i in 0..500 {
            src.push_str(&format!(
                "resource \"aws_s3_bucket\" \"b{i}\" {{\n  bucket = \"b-{i}\"\n}}\n"
            ));
        }
        assert_eq!(ChunkMap::build(&src).chunks.len(), 500);
        let edited = src.replace("\"b-499\"", "\"b-499-edited\"");
        assert_eq!(window(&src, &edited), (499..500, 499..500, vec![499]));
    }
}
