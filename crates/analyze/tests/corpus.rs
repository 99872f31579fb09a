//! The shipped HCL corpus must lint clean — the same guarantee CI enforces
//! through the `cloudless lint` CLI (`scripts/check_lint_clean.sh`).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use cloudless_analyze::incremental::block_refs;
use cloudless_analyze::{lint_program, lint_source, LintConfig};
use cloudless_hcl::eval::DeferAll;
use cloudless_hcl::program::{expand, expand_resource_block, ModuleLibrary};
use cloudless_hcl::{load, Diagnostics};

const CORPUS: &[(&str, &str)] = &[
    (
        "examples/hcl/quickstart.tf",
        include_str!("../../../examples/hcl/quickstart.tf"),
    ),
    (
        "examples/hcl/web_stack.tf",
        include_str!("../../../examples/hcl/web_stack.tf"),
    ),
    (
        "examples/hcl/multicloud.tf",
        include_str!("../../../examples/hcl/multicloud.tf"),
    ),
    (
        "examples/hcl/network_module.tf",
        include_str!("../../../examples/hcl/network_module.tf"),
    ),
    (
        "crates/hcl/tests/figure2/figure2.tf",
        include_str!("../../hcl/tests/figure2/figure2.tf"),
    ),
];

#[test]
fn shipped_corpus_lints_clean() {
    let mut modules = ModuleLibrary::new();
    modules.insert(
        "modules/network",
        include_str!("../../../examples/hcl/network_module.tf"),
    );
    for (name, src) in CORPUS {
        let report =
            lint_source(src, name, &modules, &LintConfig::default()).expect("corpus parses");
        assert!(
            report.is_clean(),
            "{name} must lint clean, found: {}",
            report
                .findings
                .iter()
                .map(|f| format!("{} {}", f.rule, f.diagnostic.message))
                .collect::<Vec<_>>()
                .join("; ")
        );
    }
}

/// Every `.tf` under `dir`, recursively, with its text.
fn programs_under(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("a directory of programs") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            programs_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "tf") {
            let text = std::fs::read_to_string(&path).expect("a readable program");
            out.push((path.display().to_string(), text));
        }
    }
}

/// Programs whose blocks read others through `for` loop variables.
const FOR_PROBES: &[&str] = &[
    r#"
resource "aws_vpc" "v" {
  count      = 2
  cidr_block = "10.${count.index}.0.0/16"
}
resource "aws_s3_bucket" "b" {
  bucket = join("-", [for x in aws_vpc.v : x.id])
}
"#,
    r#"
resource "aws_vpc" "v" {
  for_each   = { a = "10.0.0.0/16", b = "10.1.0.0/16" }
  cidr_block = each.value
}
resource "aws_s3_bucket" "b" {
  bucket = join("-", [for k, v in aws_vpc.v : v.id])
  tags   = { for k, v in aws_vpc.v : k => "${v.id}-${var.suffix}" }
}
variable "suffix" { default = "x" }
"#,
    r#"
resource "aws_s3_bucket" "b" {
  bucket = join("-", [for x in aws_vpc.gone : x.id])
}
"#,
];

/// The lint and the expander read a block's references alike: the blocks
/// `BlockRefs::expand_deps` names are the ones `expand_resource_block`
/// returns, and a resource the expander refuses as undeclared (HCL037) is
/// one the lint reports as undeclared (ANA103) from the same block.
#[test]
fn lint_and_expansion_agree_on_what_a_block_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut programs = Vec::new();
    programs_under(&root.join("examples/hcl"), &mut programs);
    assert!(programs.len() > 10, "found {} program(s)", programs.len());
    programs.extend(
        FOR_PROBES
            .iter()
            .map(|p| ("probe".to_owned(), p.to_string())),
    );
    let mut modules = ModuleLibrary::new();
    modules.insert(
        "modules/network",
        include_str!("../../../examples/hcl/network_module.tf"),
    );
    let empty = Arc::new(BTreeMap::new());
    for (name, text) in &programs {
        let program = load(text, "main.tf").expect(name);
        for rb in &program.resources {
            let mut diags = Diagnostics::new();
            let declared = |_: &str, _: &str| true;
            let file: Arc<str> = Arc::from("main.tf");
            let expanded = expand_resource_block(
                rb,
                &empty,
                &empty,
                &declared,
                &DeferAll,
                &file,
                &[],
                &mut diags,
                &mut Vec::new(),
            );
            let read = block_refs(rb).expand_deps;
            assert_eq!(read, expanded, "{name}: {}.{}", rb.rtype, rb.name);
        }
        let lint = lint_program(&program, &modules, &LintConfig::default());
        let undeclared: Vec<&str> = (lint.findings.iter())
            .filter(|f| f.diagnostic.code == "ANA103")
            .map(|f| f.diagnostic.message.as_str())
            .collect();
        let Err(refused) = expand(&program, &BTreeMap::new(), &modules, &DeferAll) else {
            continue;
        };
        for d in refused.iter().filter(|d| d.code == "HCL037") {
            let (block, target) = d
                .message
                .split_once(" references undeclared ")
                .expect("HCL037");
            let reported =
                |m: &&str| m.starts_with(block) && m.contains(&format!("undeclared {target}"));
            assert!(
                undeclared.iter().any(reported),
                "{name}: {}\nlint: {undeclared:?}",
                d.message
            );
        }
    }
}
