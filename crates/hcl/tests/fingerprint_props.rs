//! Differential properties of the chunk diff: the table `diff_chunks`
//! splices together is the table a fresh scan of the edited source builds.
//!
//! The incremental pipeline keeps the spliced table and indexes its blocks
//! through it, so "close enough" is not enough: a phantom trivia chunk or a
//! boundary off by one newline would misplace every block after the edit.
//! Seeded and exhaustive rather than shrinking: 24 000 syntax-valid edits
//! (insert, delete, rename, swap, replace, trivia) of 1–8-block files, then
//! 24 000 arbitrary byte splices the scanner has no reason to survive
//! (unclosed quotes, stray braces, `${`, `/*`).

use cloudless_hcl::fingerprint::{diff_chunks, ChunkDelta, ChunkMap};

/// SplitMix64: the suite must replay bit for bit.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, of: &[&'a str]) -> &'a str {
        of[self.below(of.len())]
    }
}

/// What may sit between two blocks.
const TRIVIA: [&str; 6] = [
    "",
    "\n",
    "\n\n",
    "# note\n",
    "\n// aside\n\n",
    "/* a { b } */\n",
];

/// One top-level block with its leading trivia; `terminated` is whether
/// its closing line ends in a newline (only the last block may skip it).
fn block(rng: &mut Rng, name: usize, terminated: bool) -> String {
    let lead = rng.pick(&TRIVIA);
    let head = match rng.below(5) {
        0 => format!("variable \"v{name}\""),
        1 => "locals".to_owned(),
        _ => format!("resource \"aws_s3_bucket\" \"b{name}\""),
    };
    let body = match rng.below(4) {
        0 => " {}".to_owned(),
        1 => format!(" {{ bucket = \"b-{name}\" }}"),
        2 => format!(" {{\n  bucket = \"b-${{var.x}}-{{{name}}}\"\n}}"),
        _ => format!(" {{\n  tags = {{ n = \"{name}\" }} # }}\n  /* }} */\n}}"),
    };
    let end = if terminated { "\n" } else { "" };
    format!("{lead}{head}{body}{end}")
}

/// A file as its blocks (the text is their concatenation) plus whatever
/// trails the last one.
fn file(rng: &mut Rng) -> (Vec<String>, String) {
    let n = 1 + rng.below(8);
    let closed = rng.below(4) > 0;
    let blocks = (0..n).map(|i| block(rng, i, closed || i + 1 < n)).collect();
    let tail = if closed { rng.pick(&TRIVIA) } else { "" };
    (blocks, tail.to_owned())
}

fn render(blocks: &[String], tail: &str) -> String {
    format!("{}{tail}", blocks.concat())
}

/// One syntax-valid edit of a file whose every block is newline-terminated.
fn valid_edit(rng: &mut Rng, blocks: &[String], tail: &str) -> String {
    let mut blocks = blocks.to_vec();
    let mut tail = tail.to_owned();
    let at = rng.below(blocks.len());
    match rng.below(6) {
        0 => blocks.insert(at, block(rng, 100 + at, true)),
        1 => {
            blocks.remove(at);
        }
        2 => blocks[at] = blocks[at].replacen("\"b", "\"renamed", 1),
        3 => {
            let with = rng.below(blocks.len());
            blocks.swap(at, with);
        }
        4 => blocks[at] = block(rng, 200 + at, true),
        _ => tail = format!("{}{}", rng.pick(&TRIVIA), rng.pick(&TRIVIA)),
    }
    render(&blocks, &tail)
}

/// Bytes the scanner switches state on, spliced in anywhere.
const HOSTILE: [&str; 10] = ["\"", "}", "{", "${", "/*", "*/", "#", "\\", "\n", "\"${\"}"];

fn hostile_edit(rng: &mut Rng, src: &str) -> String {
    let from = rng.below(src.len() + 1);
    let to = from + rng.below((src.len() - from).min(12) + 1);
    let mut insert = String::new();
    for _ in 0..rng.below(4) {
        insert.push_str(rng.pick(&HOSTILE));
    }
    format!("{}{insert}{}", &src[..from], &src[to..])
}

/// The table `diff_chunks` leaves behind, and whether the window it
/// reports is in bounds of both tables.
fn spliced(old: &str, new: &str) -> ChunkMap {
    let map = ChunkMap::build(old);
    match diff_chunks(&map, old, new) {
        ChunkDelta::Unchanged => {
            assert_eq!(old, new, "only an identical source is unchanged");
            map
        }
        ChunkDelta::Window {
            old: was,
            new: now,
            map: after,
        } => {
            assert!(was.start <= was.end && was.end <= map.chunks.len());
            assert!(now.start <= now.end && now.end <= after.chunks.len());
            assert_eq!(was.start, now.start, "the window opens where it opens");
            let kept = map.chunks.len() - was.len();
            assert_eq!(after.chunks.len(), kept + now.len());
            after
        }
    }
}

fn assert_tiles(map: &ChunkMap, src: &str) {
    assert_eq!(map.src_len, src.len());
    let mut at = 0;
    for chunk in &map.chunks {
        assert_eq!(chunk.start, at, "chunks must tile {src:?}");
        assert!(chunk.end > chunk.start, "no empty chunk in {src:?}");
        at = chunk.end;
    }
    assert_eq!(at, src.len(), "chunks must cover {src:?}");
}

#[test]
fn spliced_table_equals_a_fresh_scan_on_valid_edits() {
    let mut rng = Rng(0x5EED_F1A6);
    let mut structural = 0;
    for _ in 0..24_000 {
        let (blocks, tail) = loop {
            let (blocks, tail) = file(&mut rng);
            if blocks.iter().all(|b| b.ends_with('\n')) {
                break (blocks, tail);
            }
        };
        let old = render(&blocks, &tail);
        let new = valid_edit(&mut rng, &blocks, &tail);
        let fresh = ChunkMap::build(&new);
        structural += usize::from(fresh.chunks.len() != ChunkMap::build(&old).chunks.len());
        assert_eq!(spliced(&old, &new), fresh, "\nold: {old:?}\nnew: {new:?}");
    }
    assert!(structural > 6_000, "only {structural} edits moved a chunk");
}

#[test]
fn hostile_splices_never_panic_and_still_tile() {
    let mut rng = Rng(0xBAD_5EED);
    for _ in 0..24_000 {
        let (blocks, tail) = file(&mut rng);
        let old = render(&blocks, &tail);
        let new = hostile_edit(&mut rng, &old);
        let map = spliced(&old, &new);
        assert_tiles(&map, &new);
        // a boundary both scans share is a scanner state, whatever the
        // bytes: the tables agree here too
        assert_eq!(map, ChunkMap::build(&new), "\nold: {old:?}\nnew: {new:?}");
        // and back again, from a table that may be one opaque chunk
        assert_tiles(&spliced(&new, &old), &old);
    }
}
