//! Code-quality metrics for generated IaC.
//!
//! §3.1 poses it as a research question: "the main objective is code
//! 'quality' in terms of ease of understanding and maintenance rather than
//! just correctness or performance goals … how should we formally define
//! and quantify these code metrics?"
//!
//! Our operationalization (used by experiment E7):
//!
//! * **size** — lines and blocks: less text to read and review;
//! * **redundancy** — fraction of duplicated literal tokens: copy-pasted
//!   values are where divergence bugs breed;
//! * **abstraction** — fraction of resource instances expressed through
//!   compact constructs (`count`, `for_each`, references instead of
//!   hardcoded ids);
//! * **quality score** — a single [0, 100] composite for ranking ports.

use std::collections::BTreeMap;

use cloudless_hcl::ast::{Block, Expr, File, RefKind, TemplatePart};
use serde::Serialize;

/// Measured properties of one IaC file.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CodeMetrics {
    /// Rendered source lines (non-empty).
    pub lines: usize,
    /// Top-level blocks.
    pub blocks: usize,
    /// Resource *instances* described (counting `count`/`for_each`
    /// expansion).
    pub instances: usize,
    /// Literal scalar tokens in the file.
    pub literal_tokens: usize,
    /// Literal tokens that are duplicates of an earlier literal.
    pub duplicated_tokens: usize,
    /// Resource references (`type.name.attr` expressions).
    pub references: usize,
    /// Instances covered by `count`/`for_each` blocks.
    pub compacted_instances: usize,
}

impl CodeMetrics {
    /// Duplicated fraction of literals (0 = no redundancy).
    pub fn redundancy(&self) -> f64 {
        if self.literal_tokens == 0 {
            0.0
        } else {
            self.duplicated_tokens as f64 / self.literal_tokens as f64
        }
    }

    /// Fraction of instances expressed via compact constructs.
    pub fn abstraction(&self) -> f64 {
        if self.instances == 0 {
            0.0
        } else {
            self.compacted_instances as f64 / self.instances as f64
        }
    }

    /// Lines per instance — the headline "how much do I read per resource".
    pub fn lines_per_instance(&self) -> f64 {
        if self.instances == 0 {
            0.0
        } else {
            self.lines as f64 / self.instances as f64
        }
    }
}

/// Measure a file.
pub fn measure(file: &File) -> CodeMetrics {
    let rendered = cloudless_hcl::render_file(file);
    let lines = rendered.lines().filter(|l| !l.trim().is_empty()).count();

    let mut m = CodeMetrics {
        lines,
        blocks: file.blocks.len(),
        instances: 0,
        literal_tokens: 0,
        duplicated_tokens: 0,
        references: 0,
        compacted_instances: 0,
    };
    let mut seen_literals: BTreeMap<String, usize> = BTreeMap::new();
    for b in &file.blocks {
        let expansion = block_expansion(b);
        m.instances += expansion;
        if b.body.attr("count").is_some() || b.body.attr("for_each").is_some() {
            m.compacted_instances += expansion;
        }
        for a in &b.body.attrs {
            walk(&a.value, &mut m, &mut seen_literals);
        }
        for nb in &b.body.blocks {
            for a in &nb.body.attrs {
                walk(&a.value, &mut m, &mut seen_literals);
            }
        }
    }
    m
}

/// How many instances a block describes.
fn block_expansion(b: &Block) -> usize {
    if let Some(count) = b.body.attr("count") {
        if let Expr::Num(n, _) = count.value {
            return n as usize;
        }
    }
    if let Some(fe) = b.body.attr("for_each") {
        match &fe.value {
            Expr::List(items, _) => return items.len(),
            Expr::Map(entries, _) => return entries.len(),
            _ => {}
        }
    }
    1
}

fn literal(text: String, m: &mut CodeMetrics, seen: &mut BTreeMap<String, usize>) {
    m.literal_tokens += 1;
    let n = seen.entry(text).or_insert(0);
    if *n > 0 {
        m.duplicated_tokens += 1;
    }
    *n += 1;
}

fn walk(e: &Expr, m: &mut CodeMetrics, seen: &mut BTreeMap<String, usize>) {
    match e {
        Expr::Bool(b, _) => literal(format!("b:{b}"), m, seen),
        Expr::Num(n, _) => literal(format!("n:{n}"), m, seen),
        Expr::Str(parts, _) => {
            for p in parts {
                match p {
                    TemplatePart::Lit(s) if !s.is_empty() => literal(format!("s:{s}"), m, seen),
                    _ => {}
                }
            }
        }
        // count.index / each.key are abstraction devices, not references
        Expr::Ref(r, _) => {
            let scope = matches!(
                r.kind(),
                RefKind::Count | RefKind::Each | RefKind::Var | RefKind::Local
            );
            m.references += usize::from(!scope);
        }
        _ => {}
    }
    e.for_each_child(&mut |e| walk(e, m, seen));
}

/// Composite quality in [0, 100]: rewards small, low-redundancy,
/// high-abstraction programs.
pub fn quality_score(m: &CodeMetrics) -> f64 {
    if m.instances == 0 {
        return 100.0;
    }
    // size term: 1.0 at ≤2 lines/instance, decaying toward 0 at 20+
    let lpi = m.lines_per_instance();
    let size = ((20.0 - lpi) / 18.0).clamp(0.0, 1.0);
    let redundancy = 1.0 - m.redundancy();
    let abstraction = m.abstraction();
    // references are good (dependency tracking) — saturating bonus
    let refs = (m.references as f64 / m.instances as f64).min(1.0);
    100.0 * (0.35 * size + 0.30 * redundancy + 0.25 * abstraction + 0.10 * refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_hcl::parse;

    fn metrics_of(src: &str) -> CodeMetrics {
        measure(&parse(src, "t").unwrap())
    }

    #[test]
    fn counts_basic_shapes() {
        let m = metrics_of(
            r#"
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.0/24"
}
"#,
        );
        assert_eq!(m.blocks, 2);
        assert_eq!(m.instances, 2);
        assert_eq!(m.references, 1);
        assert_eq!(m.compacted_instances, 0);
    }

    #[test]
    fn count_blocks_expand_instances() {
        let m = metrics_of(
            r#"
resource "aws_virtual_machine" "web" {
  count = 8
  name  = "web-${count.index}"
}
"#,
        );
        assert_eq!(m.instances, 8);
        assert_eq!(m.compacted_instances, 8);
        assert!(m.abstraction() > 0.99);
        // count.index is not a "reference"
        assert_eq!(m.references, 0);
    }

    #[test]
    fn redundancy_detects_copy_paste() {
        let repeated = metrics_of(
            r#"
resource "aws_virtual_machine" "a" { name = "web" instance_type = "t3.micro" }
resource "aws_virtual_machine" "b" { name = "web2" instance_type = "t3.micro" }
resource "aws_virtual_machine" "c" { name = "web3" instance_type = "t3.micro" }
"#,
        );
        assert!(repeated.redundancy() > 0.3, "{}", repeated.redundancy());
        let clean = metrics_of(r#"resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }"#);
        assert_eq!(clean.redundancy(), 0.0);
    }

    #[test]
    fn quality_prefers_compact_programs() {
        // 6 VMs as one counted block…
        let compact = metrics_of(
            r#"
resource "aws_virtual_machine" "web" {
  count         = 6
  name          = "web-${count.index}"
  instance_type = "t3.micro"
}
"#,
        );
        // …vs. the same fleet enumerated
        let verbose = metrics_of(
            &(0..6)
                .map(|i| {
                    format!(
                        "resource \"aws_virtual_machine\" \"web{i}\" {{\n  name = \"web-{i}\"\n  instance_type = \"t3.micro\"\n}}\n"
                    )
                })
                .collect::<String>(),
        );
        assert_eq!(compact.instances, verbose.instances);
        assert!(compact.lines < verbose.lines);
        assert!(
            quality_score(&compact) > quality_score(&verbose) + 10.0,
            "compact {} vs verbose {}",
            quality_score(&compact),
            quality_score(&verbose)
        );
    }

    #[test]
    fn empty_file_is_trivially_perfect() {
        let m = metrics_of("");
        assert_eq!(m.instances, 0);
        assert_eq!(quality_score(&m), 100.0);
    }
}
