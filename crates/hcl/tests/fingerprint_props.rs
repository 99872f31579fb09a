//! Differential properties of the chunk diff: the table `diff_chunks`
//! splices together is the table a fresh scan of the edited source builds.
//!
//! The incremental pipeline keeps the spliced table and indexes its blocks
//! through it, so "close enough" is not enough: a phantom trivia chunk or a
//! boundary off by one newline would misplace every block after the edit.
//! Seeded and exhaustive rather than shrinking: 24 000 syntax-valid edits
//! (insert, delete, rename, swap, replace, trivia) of 1–8-block files, then
//! 24 000 arbitrary byte splices the scanner has no reason to survive
//! (unclosed quotes, stray braces, `${`, `/*`, multi-byte characters cut
//! anywhere a common prefix or suffix can end).

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
const HOSTILE: [&str; 12] = [
    "\"", "}", "{", "${", "/*", "*/", "#", "\\", "\n", "\"${\"}", "é", "è",
];

fn hostile_edit(rng: &mut Rng, src: &str) -> String {
    let from = rng.below(src.len() + 1);
    let to = from + rng.below((src.len() - from).min(12) + 1);
    let mut insert = String::new();
    for _ in 0..rng.below(4) {
        insert.push_str(rng.pick(&HOSTILE));
    }
    format!("{}{insert}{}", &src[..from], &src[to..])
}

/// The old source's table with the window `diff_chunks` reports spliced
/// in, the window held in bounds of it.
fn spliced(old: &str, new: &str) -> ChunkMap {
    let mut map = ChunkMap::build(old);
    match diff_chunks(&map, old, new) {
        ChunkDelta::Unchanged => assert_eq!(old, new, "only an identical source is unchanged"),
        ChunkDelta::Window(window) => {
            let was = &window.old;
            assert!(was.start <= was.end && was.end <= map.chunks.len());
            let kept = map.chunks.len() - was.len();
            let bytes = map.byte_range(was.clone());
            assert_eq!(window.shift, new.len() as isize - old.len() as isize);
            // what the window does not cover is what the sources share
            assert_eq!(old.as_bytes()[..bytes.start], new.as_bytes()[..bytes.start]);
            let tail = bytes.end.wrapping_add_signed(window.shift);
            assert_eq!(old.as_bytes()[bytes.end..], new.as_bytes()[tail..]);
            assert!(new.is_char_boundary(bytes.start) && new.is_char_boundary(tail));
            let now = window.chunks.len();
            map.splice(window);
            assert_eq!(map.chunks.len(), kept + now);
        }
    }
    map
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
    let mut split = 0;
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
        // `é` and `è` differ in their second byte: with one for the other
        // the common prefix and suffix both end inside a character
        let swap = |c| match c {
            'é' => 'è',
            'è' => 'é',
            c => c,
        };
        let swapped: String = new.chars().map(swap).collect();
        split += usize::from(swapped != new);
        assert_eq!(
            spliced(&new, &swapped),
            ChunkMap::build(&swapped),
            "{new:?}"
        );
    }
    assert!(split > 2_000, "only {split} edits split a character");
}

/// What a compare a word or a block at a time can get wrong: a prefix and a
/// suffix that would share bytes, and differences at either end of a block.
#[test]
fn prefix_and_suffix_never_overlap_whatever_the_length() {
    for (old, new) in [("aaaa", "aaa"), ("aaa", "aaaa"), ("a", ""), ("", "a")] {
        assert_eq!(spliced(old, new), ChunkMap::build(new), "{old:?} → {new:?}");
    }
    // a run of one byte, cut and grown by 1, 7, 8, 9 … bytes around the
    // block sizes a fast compare reads in
    let block = "resource \"a\" \"x\" {\n}\n";
    for len in [7, 8, 9, 63, 64, 65, 4095, 4096, 4097, 8192] {
        let old = format!("# {}\n{block}", "a".repeat(len));
        for cut in [1, 7, 8, 9, len - 1, len]
            .into_iter()
            .filter(|&cut| cut <= len)
        {
            let new = format!("# {}\n{block}", "a".repeat(len - cut));
            assert_eq!(spliced(&old, &new), ChunkMap::build(&new), "{len} − {cut}");
            assert_eq!(spliced(&new, &old), ChunkMap::build(&old), "{len} + {cut}");
        }
    }
}

// ------------------------------------------- chunk boundaries ≡ block boundaries

use cloudless_hcl::fingerprint::ChunkKind;
use cloudless_hcl::lexer::lex_errors;
use cloudless_hcl::Block;
use cloudless_types::SourcePos;

/// The scanner and the parser read one lexical syntax, so they cut `src` in
/// the same places: no top-level block straddles a chunk, and the resource
/// chunks are the resource blocks — as many, in order, with the parser's
/// labels, each block inside its chunk.
fn assert_chunks_are_blocks(src: &str) {
    let map = ChunkMap::build(src);
    assert_tiles(&map, src);
    let file = cloudless_hcl::parse(src, "t.tf").unwrap_or_else(|e| panic!("{e}\nin {src:?}"));
    let range = |b: &Block| b.span.start.offset as usize..b.span.end.offset as usize;
    for block in &file.blocks {
        let at = range(block);
        let chunk = map.chunks.iter().find(|c| c.end > at.start).expect("tiled");
        assert!(chunk.start <= at.start && at.end <= chunk.end, "{src:?}");
        assert_eq!(&src[at.start..at.start + block.kind.len()], block.kind);
    }
    let resources: Vec<&Block> = file
        .blocks
        .iter()
        .filter(|b| b.kind == "resource")
        .collect();
    let chunks: Vec<usize> = map.resource_chunks().collect();
    assert_eq!(chunks.len(), resources.len(), "{src:?}");
    for (ci, block) in chunks.into_iter().zip(resources) {
        let chunk = &map.chunks[ci];
        let ChunkKind::Resource { rtype, name } = &chunk.kind else {
            unreachable!("a resource chunk");
        };
        assert_eq!(
            [rtype, name],
            [&block.labels[0], &block.labels[1]],
            "{src:?}"
        );
        assert!(chunk.start <= range(block).start && range(block).end <= chunk.end);
    }
}

#[test]
fn resource_chunks_of_every_shipped_program_are_its_resource_blocks() {
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/hcl");
    let mut dirs = vec![std::path::PathBuf::from(examples)];
    let mut programs = 0;
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).expect("a directory of programs") {
            let path = entry.expect("a directory entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "tf") {
                let src = std::fs::read_to_string(&path).expect("a readable program");
                // the defect corpus holds programs no reader accepts
                if cloudless_hcl::parse(&src, "t.tf").is_ok() {
                    assert_chunks_are_blocks(&src);
                    programs += 1;
                }
            }
        }
    }
    assert!(programs > 10, "found {programs} program(s)");
}

/// A template string that nests `depth` more levels of interpolation,
/// littered with what a reader of string ends must not trip on: braces,
/// escaped quotes, `$${`, comment openers, comments holding quotes, and
/// newlines inside an interpolation, which a string may hold.
fn template(rng: &mut Rng, depth: usize) -> String {
    let mut out = String::from("\"");
    for _ in 0..rng.below(4) {
        out.push_str(rng.pick(&["a", "}", "{", "\\\"", "$${", "$${}", "#", "//", "/*", " "]));
        if depth > 0 && rng.below(2) == 0 {
            let inner = template(rng, depth - 1);
            out.push_str(&match rng.below(5) {
                0 => format!("${{{inner}}}"),
                1 => format!("${{ join(\"}}\", [{inner}, var.x]) }}"),
                2 => format!("${{ {{ k = {inner} }}[\"k\"] /* \" }} */ }}"),
                3 => format!("${{\n  cond # }}\n  ? {inner}\n  : \"{{\"\n}}"),
                _ => format!("${{ cond ? {inner} : \"{{\" }}"),
            });
        }
    }
    out.push('"');
    out
}

#[test]
fn nested_templates_end_where_the_parser_ends_them() {
    // the shape the toggle-and-recursion readers disagreed on
    let nested = r#""${ "a${"}"}" }""#;
    let e = cloudless_hcl::parser::parse_expr(nested, "t").expect("a valid template");
    let (vars, locals) = Default::default();
    let scope = cloudless_hcl::Scope {
        vars: &vars,
        locals: &locals,
        count_index: None,
        each: None,
        resolver: &cloudless_hcl::eval::DeferAll,
        bindings: Vec::new(),
    };
    let value = cloudless_hcl::eval::eval(&e, &scope).expect("evaluates");
    assert_eq!(value, cloudless_types::Value::from("a}"));

    let mut rng = Rng(0x7E3A_91A7E);
    let mut deepest = 0;
    for _ in 0..4_000 {
        let mut src = String::new();
        for name in 0..1 + rng.below(3) {
            let depth = rng.below(4);
            deepest = deepest.max(depth);
            src.push_str(rng.pick(&TRIVIA));
            src.push_str(&format!(
                "resource \"aws_s3_bucket\" \"b{name}\" {{\n  bucket = {}\n}}\n",
                template(&mut rng, depth)
            ));
        }
        assert_chunks_are_blocks(&src);
        // and the table is the one a diff from the empty file arrives at
        assert_eq!(spliced("", &src), ChunkMap::build(&src));
    }
    assert_eq!(deepest, 3);
}

/// A one-line string that loses its closing quote ends at its line: the
/// chunk table is the clean source's but for the byte dropped, a diff from
/// the clean source re-scans that one chunk, and the lexer diagnostics of
/// the chunks, each lexed where it sits, are what a parse of the whole file
/// is refused with.
#[test]
fn an_unterminated_string_is_refused_by_its_chunk_alone() {
    let mut rng = Rng(0x0DD_9007E);
    let mut multiline = 0;
    for _ in 0..4_000 {
        let mut src = String::new();
        let blocks = 1 + rng.below(4);
        for name in 0..blocks {
            let depth = rng.below(3);
            let bucket = template(&mut rng, depth);
            multiline += usize::from(bucket.contains('\n'));
            src.push_str(rng.pick(&TRIVIA));
            src.push_str(&format!(
                "resource \"aws_s3_bucket\" \"b{name}\" {{\n  bucket = {bucket}\n  tags = \"t{name}\"\n}}\n"
            ));
        }
        assert_chunks_are_blocks(&src);
        let clean = ChunkMap::build(&src);
        // drop the closing quote of one block's one-line `tags`
        let victim = rng.below(blocks);
        let at =
            src.find(&format!("\"t{victim}\"\n")).expect("a tag") + format!("\"t{victim}").len();
        let broken = format!("{}{}", &src[..at], &src[at + 1..]);

        let map = ChunkMap::build(&broken);
        assert_eq!(spliced(&src, &broken), map, "{broken:?}");
        assert_eq!(map.chunks.len(), clean.chunks.len(), "{broken:?}");
        let moved = |offset: usize| offset - usize::from(offset > at);
        for (now, was) in map.chunks.iter().zip(&clean.chunks) {
            assert_eq!(
                (now.start, now.end),
                (moved(was.start), moved(was.end)),
                "{broken:?}"
            );
            assert_eq!((now.line, &now.kind), (was.line, &was.kind));
        }
        let ChunkDelta::Window(window) = diff_chunks(&clean, &src, &broken) else {
            unreachable!("the source changed");
        };
        assert_eq!(
            (window.old.len(), window.chunks.len()),
            (1, 1),
            "{broken:?}"
        );

        let refused = cloudless_hcl::parse(&broken, "t.tf").expect_err("an unterminated string");
        let mut by_chunk = cloudless_hcl::Diagnostics::new();
        for c in &map.chunks {
            let origin = SourcePos::new(c.line, 1, c.start as u32);
            by_chunk.extend(lex_errors(&broken[c.start..c.end], "t.tf", origin));
        }
        assert_eq!(
            format!("{by_chunk:?}"),
            format!("{refused:?}"),
            "{broken:?}"
        );
        let line = broken[..at].matches('\n').count() as u32 + 1;
        assert_eq!(
            refused
                .iter()
                .map(|d| d.span.start.line)
                .collect::<Vec<_>>(),
            [line]
        );
    }
    assert!(
        multiline > 400,
        "only {multiline} template(s) spanned lines"
    );
}
