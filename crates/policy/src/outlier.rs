//! Template extraction and outlier detection over program corpora.
//!
//! §3.6: "by adapting template extraction techniques, instead of writing
//! exact policies, we can turn the problem into 'outlier detection,' which
//! compares new IaC programs with templates extracted from existing
//! repositories to detect deviations from common practices."
//!
//! [`TemplateExtractor`] mines two template classes from a corpus:
//!
//! * **structural** — how often instances of type `T` reference instances
//!   of type `P` ("VMs are attached to subnets in 96% of programs"); a new
//!   program whose `T` lacks the usual `P` edge is flagged;
//! * **attribute** — delegated to `cloudless-validate`'s [`SpecMiner`]
//!   (value domains and usually-present attributes).
//!
//! [`SpecMiner`]: cloudless_validate::SpecMiner

use std::collections::{BTreeMap, BTreeSet};

use cloudless_hcl::program::{Manifest, ResourceInstance};
use cloudless_hcl::{Diagnostic, Diagnostics};
use cloudless_validate::SpecMiner;

/// A mined structural template: `child` usually references some `parent`.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeTemplate {
    pub child_rtype: String,
    pub parent_rtype: String,
    /// Fraction of observed child instances with the edge.
    pub confidence: f64,
    pub support: usize,
}

/// Corpus-driven template extraction.
pub struct TemplateExtractor {
    /// Minimum child instances observed before an edge template is mined.
    pub min_support: usize,
    /// Confidence threshold for flagging.
    pub confidence: f64,
    /// (child type, parent type) → count with edge
    edges: BTreeMap<(String, String), usize>,
    /// child type → instances observed
    children: BTreeMap<String, usize>,
    /// attribute-level mining shared with the validator
    pub miner: SpecMiner,
}

impl Default for TemplateExtractor {
    fn default() -> Self {
        TemplateExtractor {
            min_support: 5,
            confidence: 0.9,
            edges: BTreeMap::new(),
            children: BTreeMap::new(),
            miner: SpecMiner::new(),
        }
    }
}

impl TemplateExtractor {
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe one program.
    pub fn observe(&mut self, manifest: &Manifest) {
        self.miner.observe(manifest);
        for inst in &manifest.instances {
            let child = inst.addr.rtype.as_str().to_owned();
            *self.children.entry(child.clone()).or_insert(0) += 1;
            for p in parents(inst) {
                *self.edges.entry((child.clone(), p)).or_insert(0) += 1;
            }
        }
    }

    /// Mined edge templates above the thresholds.
    pub fn edge_templates(&self) -> Vec<EdgeTemplate> {
        let mut out = Vec::new();
        for ((child, parent), &with_edge) in &self.edges {
            let total = self.children.get(child).copied().unwrap_or(0);
            if total >= self.min_support {
                let confidence = with_edge as f64 / total as f64;
                if confidence >= self.confidence {
                    out.push(EdgeTemplate {
                        child_rtype: child.clone(),
                        parent_rtype: parent.clone(),
                        confidence,
                        support: total,
                    });
                }
            }
        }
        out
    }

    /// Flag deviations of a new program from the mined templates.
    pub fn check(&self, manifest: &Manifest) -> Diagnostics {
        let mut diags = self.miner.check(manifest);
        let templates = self.edge_templates();
        for inst in &manifest.instances {
            let (child, parents) = (inst.addr.rtype.as_str(), parents(inst));
            for t in &templates {
                if t.child_rtype == child && !parents.contains(&t.parent_rtype) {
                    diags.push(Diagnostic::warning(
                        "POL401",
                        &inst.file,
                        inst.span,
                        format!(
                            "{}: {child} instances reference a {} in {:.0}% of prior programs, but this one does not",
                            inst.addr,
                            t.parent_rtype,
                            t.confidence * 100.0
                        ),
                    ));
                }
            }
        }
        diags
    }
}

/// The types an instance depends on or reads.
fn parents(inst: &ResourceInstance) -> BTreeSet<String> {
    let deps = inst.depends_on.iter().map(|dep| &dep.rtype);
    let reads = inst.deferred.iter().flat_map(|d| &d.waiting_on);
    let types = deps.chain(reads.map(|t| &t.rtype));
    types.map(|t| t.as_str().to_owned()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_hcl::eval::MapResolver;
    use cloudless_hcl::program::{expand, ModuleLibrary, Program};
    use std::collections::BTreeMap;

    fn manifest(src: &str) -> Manifest {
        let p = Program::from_file(cloudless_hcl::parse(src, "t").unwrap()).unwrap();
        expand(
            &p,
            &BTreeMap::new(),
            &ModuleLibrary::new(),
            &MapResolver::new(),
        )
        .unwrap()
    }

    fn corpus() -> TemplateExtractor {
        let mut ex = TemplateExtractor::new();
        // 6 programs where every VM sits on a subnet
        for i in 0..6 {
            ex.observe(&manifest(&format!(
                r#"
resource "aws_vpc" "v" {{ cidr_block = "10.{i}.0.0/16" }}
resource "aws_subnet" "s" {{
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.{i}.1.0/24"
}}
resource "aws_virtual_machine" "w" {{
  name      = "w{i}"
  subnet_id = aws_subnet.s.id
}}
"#
            )));
        }
        ex
    }

    #[test]
    fn edge_templates_mined() {
        let ex = corpus();
        let templates = ex.edge_templates();
        assert!(templates
            .iter()
            .any(|t| t.child_rtype == "aws_virtual_machine"
                && t.parent_rtype == "aws_subnet"
                && t.confidence == 1.0));
        assert!(templates
            .iter()
            .any(|t| t.child_rtype == "aws_subnet" && t.parent_rtype == "aws_vpc"));
    }

    #[test]
    fn detached_vm_is_an_outlier() {
        let ex = corpus();
        let d = ex.check(&manifest(
            r#"resource "aws_virtual_machine" "floating" { name = "f" }"#,
        ));
        assert!(d
            .items
            .iter()
            .any(|x| x.code == "POL401" && x.message.contains("aws_subnet")));
    }

    #[test]
    fn conforming_program_passes() {
        let ex = corpus();
        let d = ex.check(&manifest(
            r#"
resource "aws_vpc" "v" { cidr_block = "10.9.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.9.1.0/24"
}
resource "aws_virtual_machine" "w" {
  name      = "w"
  subnet_id = aws_subnet.s.id
}
"#,
        ));
        assert!(!d.items.iter().any(|x| x.code == "POL401"), "{d}");
    }

    #[test]
    fn small_corpus_is_silent() {
        let mut ex = TemplateExtractor::new();
        ex.observe(&manifest(
            r#"
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.0/24"
}
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
"#,
        ));
        assert!(ex.edge_templates().is_empty());
        let d = ex.check(&manifest(
            r#"resource "aws_virtual_machine" "w" { name = "w" }"#,
        ));
        assert!(!d.items.iter().any(|x| x.code == "POL401"));
    }
}
