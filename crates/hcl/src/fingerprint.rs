//! Block-granular source fingerprinting for the incremental pipeline.
//!
//! The converge pipeline wants to know, after an edit, *which top-level
//! blocks actually changed* — without re-lexing the whole file. This module
//! splits source text into **chunks** (one per top-level block, leading
//! trivia attached to the block that follows it), hashes each chunk, and
//! diffs an edited source against a cached [`ChunkMap`] in O(edit): a
//! common-prefix/common-suffix byte scan narrows the edit to a window,
//! only that window is re-scanned, and every chunk outside it is reused
//! with its offsets shifted.
//!
//! The scanner is deliberately *not* the lexer: it only needs to find
//! top-level `}` closers, so it counts braces and newlines and nothing
//! else. Where a string (with `${ … }` interpolations, which themselves
//! nest strings) or a comment ends, and which block a chunk's head names,
//! it asks [`crate::lexer`] — the parser's reader — so a chunk boundary is
//! a block boundary by construction.
//!
//! A diff never interprets the edit: it reports the window it re-scanned
//! ([`ChunkDelta::Window`], old chunk range → new chunk range) over a table
//! equal to a fresh scan's, and the caller reads bodies edited and blocks
//! added, removed or renamed off the window. A source the scanner cannot
//! chunk at all is one opaque chunk.

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

/// Result of diffing an edited source against a cached [`ChunkMap`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkDelta {
    /// Byte-identical source.
    Unchanged,
    /// The edit is confined to a window: chunks `old` of the cached map
    /// were re-scanned into chunks `new` of `map`, and every chunk outside
    /// the window is the cached one with its offsets shifted. Either range
    /// may be empty (a pure insertion, a pure deletion), and the window may
    /// hold chunks the edit left alone: what changed inside it — bodies
    /// edited, blocks added, removed or renamed — is for the caller to read
    /// off the two ranges' kinds and hashes. `map` is the table a fresh
    /// [`ChunkMap::build`] of the new source yields.
    Window {
        old: Range<usize>,
        new: Range<usize>,
        map: ChunkMap,
    },
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

    /// Approximate retained size in bytes (table only, not the source).
    pub fn approx_bytes(&self) -> usize {
        self.chunks.len() * std::mem::size_of::<Chunk>()
    }
}

/// Diff an edited `new_src` against the cached map of `old_src`.
///
/// Cost is O(edit): a prefix/suffix byte scan locates the changed bytes,
/// the re-scan starts at the last cached chunk boundary before them and
/// stops at the first chunk end past them that is a cached boundary too,
/// and the chunk table outside that window is reused with shifted offsets
/// (O(#chunks) pointer arithmetic, no re-hashing). Starting and stopping on
/// boundaries both scans share is what makes the spliced table the one a
/// fresh scan builds: trivia around an inserted or deleted block re-attaches
/// to whichever block the scanner gives it to.
pub fn diff_chunks(old: &ChunkMap, old_src: &str, new_src: &str) -> ChunkDelta {
    let (ob, nb) = (old_src.as_bytes(), new_src.as_bytes());
    debug_assert_eq!(old.src_len, ob.len(), "old map must match old source");

    let common = |(a, b): &(&u8, &u8)| a == b;
    let p = ob.iter().zip(nb).take_while(common).count();
    if p == ob.len() && p == nb.len() {
        return ChunkDelta::Unchanged;
    }
    let max_s = ob.len().min(nb.len()) - p;
    let tails = ob.iter().rev().zip(nb.iter().rev()).take(max_s);
    let s = tails.take_while(common).count();

    let rebuilt = || {
        let map = ChunkMap::build(new_src);
        ChunkDelta::Window {
            old: 0..old.chunks.len(),
            new: 0..map.chunks.len(),
            map,
        }
    };
    if old.chunks.is_empty() {
        return rebuilt();
    }
    // An offset of the new source's unchanged tail is a place to stop when
    // the cached scan had a boundary there: which old chunk ends at it.
    let delta = nb.len() as i64 - ob.len() as i64;
    let old_end_at = |e: usize| {
        let o = usize::try_from(e as i64 - delta).ok()?;
        let ends_there = old.chunks.binary_search_by_key(&o, |c| c.end);
        ends_there.ok().filter(|_| e >= nb.len() - s)
    };
    // The first cached chunk the edit reaches (an edit past the last one
    // re-opens it); trivia left over at the end of the source re-opens the
    // chunk before that.
    let mut a = old.chunks.partition_point(|c| c.end <= p);
    a = a.min(old.chunks.len() - 1);
    let (window, line) = loop {
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
    let end = window.last().map_or(nb.len(), |c| c.end);
    let b = old_end_at(end).map_or(old.chunks.len(), |b| b + 1).max(a);

    let mut chunks = Vec::with_capacity(a + window.len() + old.chunks.len() - b);
    chunks.extend_from_slice(&old.chunks[..a]);
    let new = a..a + window.len();
    chunks.extend(window);
    let dline = old.chunks.get(b).map_or(0, |c| line as i64 - c.line as i64);
    chunks.extend(old.chunks[b..].iter().map(|c| Chunk {
        start: (c.start as i64 + delta) as usize,
        end: (c.end as i64 + delta) as usize,
        line: (c.line as i64 + dline) as u32,
        ..c.clone()
    }));
    ChunkDelta::Window {
        old: a..b,
        new,
        map: ChunkMap {
            chunks,
            src_len: nb.len(),
        },
    }
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

    /// The diff of `old` → `new`, held against a fresh scan: the window's
    /// (old, new) chunk ranges and the new-window chunks whose content no
    /// old-window chunk of the same kind has.
    fn window(old: &str, new: &str) -> (Range<usize>, Range<usize>, Vec<usize>) {
        let map = ChunkMap::build(old);
        match diff_chunks(&map, old, new) {
            ChunkDelta::Window {
                old: was,
                new: now,
                map: spliced,
            } => {
                assert_eq!(spliced, ChunkMap::build(new), "spliced == full rescan");
                let known = |c: &Chunk| {
                    let same = |o: &Chunk| o.kind == c.kind && o.hash == c.hash;
                    map.chunks[was.clone()].iter().any(same)
                };
                let changed = now.clone().filter(|&i| !known(&spliced.chunks[i]));
                let changed = changed.collect();
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
