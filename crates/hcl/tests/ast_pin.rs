//! What the reader produces, pinned: the lexer and parser may change how
//! they get there (tokens moved, names allocated once), never what comes
//! out.
//!
//! For every program the repository ships (`examples/hcl/**`, the defect
//! corpus included, and the paper's Figure 2) and for a generated
//! 2 000-block estate, four FNV-64 fingerprints, recorded at the commit
//! before the move-based parser:
//!
//! * `ast` — `{:#?}` of `parse(src)`: every node with every span;
//! * `program` — `{:?}` of `Program::from_file(..)`;
//! * `findings` — the diagnostics the analyzers hang on those spans (lint
//!   over the program, the concurrency gate over its expansion), as `{:?}`
//!   and through the span pretty-printer;
//! * `recovery` — the diagnostics of three damaged copies (cut in half,
//!   every fifth quote dropped, every third `=` turned into `:`), which
//!   walk the error arms a clean program never reaches.
//!
//! A mismatch prints the table as this build computes it. Re-record it only
//! for a change that means to alter the reader's output. The `recovery`
//! column was re-recorded when a quoted string came to end at its line: the
//! copies with every fifth quote dropped now refuse each string on its own
//! line. The `ast`, `program` and `findings` columns did not move, so no
//! shipped program holds a string that runs across lines.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use cloudless_analyze::{analyze_manifest, lint_program, LintConfig};
use cloudless_bench::workloads::random_layered;
use cloudless_hcl::eval::DeferAll;
use cloudless_hcl::fingerprint::fnv1a;
use cloudless_hcl::program::{expand, ModuleLibrary, Program};
use cloudless_hcl::{parse, Diagnostics, SourceMap};

const PINNED: &str = "\
crates/hcl/tests/figure2/figure2.tf 7a949fc3dfdb6728 5b266a3f4e32e8d5 32ba23165fbc63d5 4f44e4c64aaac489\n\
examples/hcl/defects/concurrency/alias_counted.tf 36bf328b1df7e70a 6881b6aed4a2813a c5d74b536295b81f 1ddf9174b0f50e26\n\
examples/hcl/defects/concurrency/alias_folded.tf 89030b50c18dd603 2b9e6017dde11105 d09d381ceef6c23a c655128ad328c366\n\
examples/hcl/defects/concurrency/alias_foreach.tf 49920bd13a72e094 54673c4646000ca9 985b095c72bc11c5 f6b950319771bd1e\n\
examples/hcl/defects/concurrency/clean_cbd_rotating.tf 2b98fd59e29772bf e57cf536f94bba88 32ba23165fbc63d5 e63419d34f985054\n\
examples/hcl/defects/concurrency/clean_fanout.tf d666c886e01043e0 b775cb46481ff9cc 32ba23165fbc63d5 0438ec3ef8b739e5\n\
examples/hcl/defects/concurrency/clean_shared_prefix.tf e2e3e5ee64e4c9be eab90ee56d9587d7 32ba23165fbc63d5 6fae6252e1ef010e\n\
examples/hcl/defects/concurrency/compound.tf 10b9b37869f52b20 4ddcfa2a4c13919b 1e925d61115ac4b7 2d0e3c360e2ceac8\n\
examples/hcl/defects/concurrency/lock_cycle.tf b8466bb88a8899fc c9dd7e3c99162045 ea2672f5a0c9e133 0e24044b7b5aaa20\n\
examples/hcl/defects/concurrency/missing_edge.tf 46be439f8f18cd99 6ddeabfbb5f77dce 6f0c5806c8201156 6d9acb884ebf0261\n\
examples/hcl/defects/concurrency/missing_edge_counted.tf a29ef46b2e435d59 352aab1ddfe4bff7 a248fa869e380768 730db28497bb5270\n\
examples/hcl/defects/concurrency/self_race_replace.tf ccecebd24691fb04 4d246d2ac1e29f71 8c5466c613a0b5a0 1da728df7549bbfb\n\
examples/hcl/fleet.tf 55bf3287297a3e6b b87da71210e0469a 32ba23165fbc63d5 c21dcad48857fbd2\n\
examples/hcl/fleet_ids.tf b864711c21954cb5 4d2a909bf1d943cb 32ba23165fbc63d5 fb9048965af9eade\n\
examples/hcl/multicloud.tf bf34298fd0b45fe4 d8ae4a6582a27f36 0adb28b584eb39b0 a30f825971640073\n\
examples/hcl/network_module.tf a2c528e98751b96d eaeafb0318fef8df 6972e38072bb0bc4 0fc36a25bd6018c5\n\
examples/hcl/quickstart.tf a93de949fc656f3b 81a9ecdb1d0ac064 32ba23165fbc63d5 b25faedfaaf18f6b\n\
examples/hcl/web_stack.tf 11895789afd1750a 8e9c25e8cda51b7e 32ba23165fbc63d5 1ad9591c1c757652\n\
random_layered(2000,42) f5d1aa4e289390c8 93c31f876c5c8b92 32ba23165fbc63d5 cc63b380e7b25866\n\
";

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

/// The shipped programs by the name diagnostics carry, then the generated
/// estate.
fn corpus() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().expect("the repository root");
    let mut paths = vec![root.join("crates/hcl/tests/figure2/figure2.tf")];
    programs_under(&root.join("examples/hcl"), &mut paths);
    assert!(paths.len() > 10, "found {} program(s)", paths.len());
    paths.sort();
    let mut corpus: Vec<(String, String)> = (paths.iter())
        .map(|path| {
            let name = path.strip_prefix(&root).expect("a path under the root");
            let name = name.to_string_lossy().replace('\\', "/");
            let text = std::fs::read_to_string(path).expect("a readable program");
            (name, text)
        })
        .collect();
    let generated = random_layered(2_000, 42);
    corpus.push(("random_layered(2000,42)".to_owned(), generated));
    corpus
}

/// Diagnostics with every span field, and as a user sees them.
fn rendered(diags: &Diagnostics, name: &str, text: &str) -> String {
    let sources = SourceMap::single(name, text);
    format!("{diags:?}\n{}", diags.render_pretty(&sources))
}

/// What the analyzers say about a program that reads: lint over the
/// program, the concurrency gate over its expansion (or why it has none).
fn findings(program: &Program, name: &str, text: &str) -> String {
    let (modules, config) = (ModuleLibrary::new(), LintConfig::default());
    let lint = lint_program(program, &modules, &config).diagnostics();
    let gate = match expand(program, &BTreeMap::new(), &modules, &DeferAll) {
        Ok(manifest) => analyze_manifest(&manifest, &config, None)
            .report
            .diagnostics(),
        Err(refused) => refused,
    };
    format!(
        "{}\n{}",
        rendered(&lint, name, text),
        rendered(&gate, name, text)
    )
}

/// `text` with every `nth` occurrence of `from` replaced by `to`.
fn every_nth(text: &str, nth: usize, from: char, to: &str) -> String {
    let mut seen = 0;
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        if ch == from {
            seen += 1;
            if seen % nth == 0 {
                out.push_str(to);
                continue;
            }
        }
        out.push(ch);
    }
    out
}

/// What the reader says about three damaged copies of `text`.
fn recovery(name: &str, text: &str) -> String {
    let mut half = text.len() / 2;
    while !text.is_char_boundary(half) {
        half += 1;
    }
    let damaged = [
        text[..half].to_owned(),
        every_nth(text, 5, '"', ""),
        every_nth(text, 3, '=', ":"),
    ];
    let read = |doc: &String| match parse(doc, name).and_then(Program::from_file) {
        Ok(program) => format!("reads: {} resource(s)", program.resources.len()),
        Err(diags) => rendered(&diags, name, doc),
    };
    damaged.iter().map(read).collect::<Vec<_>>().join("\n--\n")
}

fn fingerprint(text: &str) -> String {
    format!("{:016x}", fnv1a(text.as_bytes()))
}

/// One line per program: name, then the four fingerprints.
fn table() -> String {
    let mut out = String::new();
    for (name, text) in corpus() {
        let (ast, program, found) = match parse(&text, &name) {
            Ok(file) => {
                let ast = format!("{file:#?}");
                match Program::from_file(file) {
                    Ok(program) => {
                        let found = findings(&program, &name, &text);
                        (ast, format!("{program:?}"), found)
                    }
                    Err(diags) => (ast, rendered(&diags, &name, &text), String::new()),
                }
            }
            Err(diags) => (rendered(&diags, &name, &text), String::new(), String::new()),
        };
        let prints = [ast, program, found, recovery(&name, &text)].map(|s| fingerprint(&s));
        out.push_str(&format!("{name} {}\n", prints.join(" ")));
    }
    out
}

#[test]
fn the_reader_produces_what_it_did() {
    let table = table();
    assert!(
        table == PINNED,
        "the reader's output moved; this build computes:\n{table}"
    );
}
