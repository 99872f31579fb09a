//! Never-panic mutation suite for the one reader of untrusted text the
//! user writes by hand: `parse` and `Program::from_file` answer a damaged
//! program with a file or with diagnostics, never a panic or an abort.
//!
//! Documents start as the programs the repository ships (`examples/hcl/**`,
//! the defect corpus included, and the paper's Figure 2) and are damaged by
//! bit flips, truncations and splices (a range deleted, duplicated, or
//! overwritten with bytes that matter to the grammar) — the three mutators
//! of `crates/state/tests/mutation.rs`, shared with it. Nesting is the other way to abort a
//! recursive-descent reader, so it gets a case of its own.

use std::path::{Path, PathBuf};

use cloudless_hcl::program::Program;
use proptest::prelude::*;

#[path = "../../state/tests/damage/mod.rs"]
mod damage;
use damage::Damage;

/// Every `.tf` under `dir`, recursively.
fn programs_under(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("a directory of programs") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            programs_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "tf") {
            out.push(path);
        }
    }
}

/// The shipped programs, as bytes.
fn corpus() -> Vec<Vec<u8>> {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = vec![here.join("tests/figure2/figure2.tf")];
    programs_under(&here.join("../../examples/hcl"), &mut paths);
    assert!(paths.len() > 10, "found {} program(s)", paths.len());
    paths.sort();
    let read = |path: &PathBuf| std::fs::read(path).expect("a readable program");
    paths.iter().map(read).collect()
}

/// `parse`, then `Program::from_file` on what parsed: both must return.
fn read(doc: &[u8]) {
    let text = String::from_utf8_lossy(doc);
    if let Ok(file) = cloudless_hcl::parse(&text, "fuzz.tf") {
        let _ = Program::from_file(file);
    }
}

fn damage() -> impl Strategy<Value = Damage> {
    // bytes the grammar cares about, and a few that it does not
    let grammar = proptest::collection::vec(
        prop_oneof![
            Just(b'"'),
            Just(b'\\'),
            Just(b'{'),
            Just(b'}'),
            Just(b'['),
            Just(b']'),
            Just(b'('),
            Just(b')'),
            Just(b'$'),
            Just(b'%'),
            Just(b'='),
            Just(b'.'),
            Just(b','),
            Just(b':'),
            Just(b'?'),
            Just(b'#'),
            Just(b'/'),
            Just(b'*'),
            Just(b'<'),
            Just(b'-'),
            Just(b'\n'),
            Just(b' '),
            Just(b'0'),
            Just(b'e'),
            Just(0xffu8),
            Just(0xc3u8),
            any::<u8>(),
        ],
        1..6,
    );
    damage::damage(grammar)
}

proptest! {
    /// Every shipped program, damaged one to three times over.
    #[test]
    fn a_damaged_program_is_an_answer_never_a_panic(
        hits in proptest::collection::vec(damage(), 1..4),
    ) {
        for pristine in corpus() {
            let mut doc = pristine;
            for hit in &hits {
                if !doc.is_empty() {
                    doc = hit.apply(&doc);
                }
            }
            read(&doc);
        }
    }
}

/// Every shipped program cut at every byte: each prefix is a program a
/// half-finished save could have left for `cloudless watch` to read.
#[test]
fn every_prefix_of_every_program_is_an_answer() {
    for pristine in corpus() {
        for cut in 0..pristine.len() {
            read(&pristine[..cut]);
        }
    }
}

/// 200 kB of an opening bracket, bare and in each position a value can
/// take, is a diagnostic; a recursive-descent reader without a depth cap
/// overflows its stack and aborts the process instead.
#[test]
fn nesting_deeper_than_any_program_is_a_diagnostic_not_an_abort() {
    for open in [
        "[",
        "(",
        "{",
        "!",
        "-",
        "a(",
        "a[",
        "\"${",
        "x ? ",
        "[for x in ",
    ] {
        let deep = open.repeat(200_000 / open.len());
        for doc in [
            deep.clone(),
            format!("locals {{\n  x = {deep}\n}}\n"),
            format!("resource \"aws_vpc\" \"v\" {{\n  cidr_block = {deep}"),
            format!("resource \"a\" \"b\" {}", "{ c ".repeat(50_000)),
        ] {
            let refused = cloudless_hcl::parse(&doc, "deep.tf");
            assert!(refused.is_err(), "{open:?} nested this deep is no program");
        }
    }
    // the cap is far above what programs nest, and says what it is
    let lists = |n: usize| format!("locals {{\n  x = {}1{}\n}}\n", "[".repeat(n), "]".repeat(n));
    assert!(cloudless_hcl::parse(&lists(40), "deep.tf").is_ok());
    let refused = cloudless_hcl::parse(&lists(400), "deep.tf").expect_err("too deep");
    let messages: Vec<_> = refused.iter().map(|d| d.message.as_str()).collect();
    assert_eq!(messages, ["nesting deeper than 64 levels"]);
}

/// The chunk scanner reads every save before the parser does, in the
/// long-lived process of `cloudless watch`: the floods that nest a reader
/// to death — 900 kB of `"${`, of `/*`, of `{` — bare, inside a block and
/// saved over a valid program, come back from `ChunkMap::build`, from
/// `diff_chunks` in both directions — as windows that splice into the table
/// a fresh scan builds — and from `parse` on a 2 MB stack.
#[test]
fn floods_through_the_chunk_scanner_return_on_a_small_stack() {
    use cloudless_hcl::fingerprint::{diff_chunks, ChunkDelta, ChunkMap};
    let spliced = |map: &ChunkMap, old: &str, new: &str| {
        let mut map = map.clone();
        if let ChunkDelta::Window(window) = diff_chunks(&map, old, new) {
            map.splice(window);
        }
        map
    };
    let valid = "resource \"aws_vpc\" \"v\" {\n  cidr_block = \"10.0.0.0/16\"\n}\n";
    let reader = std::thread::Builder::new().stack_size(2 << 20);
    let read = move || {
        let valid_map = ChunkMap::build(valid);
        for open in ["\"${", "/*", "{"] {
            let flood = open.repeat(300_000);
            for doc in [
                flood.clone(),
                format!("resource \"aws_vpc\" \"v\" {{\n  cidr_block = {flood}\n}}\n"),
                format!("{valid}{flood}"),
            ] {
                let map = ChunkMap::build(&doc);
                assert_eq!(map.chunks.last().map(|c| c.end), Some(doc.len()));
                assert_eq!(spliced(&valid_map, valid, &doc), map);
                assert_eq!(spliced(&map, &doc, valid), valid_map);
                let refused = cloudless_hcl::parse(&doc, "flood.tf");
                assert!(refused.is_err(), "a flood of {open:?} is no program");
            }
        }
    };
    let done = reader.spawn(read).expect("a thread").join();
    assert!(done.is_ok(), "a reader panicked");
}
