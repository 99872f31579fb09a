//! The validation pipeline: run layers in order, collect everything.

use cloudless_cloud::Catalog;
use cloudless_hcl::program::Manifest;
use cloudless_hcl::{Diagnostics, Severity};

use crate::mining::SpecMiner;
use crate::rules::ManifestIndex;
use crate::{rules, schema, semantic};

/// How deep to validate, each level adding checks to the one before.
/// Experiment E6 sweeps the levels against §2.1's "basic validation … for
/// format and grammatical correctness", which is parsing and expanding and
/// nothing after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ValidationLevel {
    /// Catalog schema checks.
    Schema,
    /// + semantic types (§3.2).
    Semantic,
    /// + cloud-specific cross-resource rules (§3.2).
    #[default]
    CloudRules,
}

impl ValidationLevel {
    pub const ALL: [ValidationLevel; 3] = [
        ValidationLevel::Schema,
        ValidationLevel::Semantic,
        ValidationLevel::CloudRules,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            ValidationLevel::Schema => "schema",
            ValidationLevel::Semantic => "semantic-types",
            ValidationLevel::CloudRules => "cloud-rules",
        }
    }
}

/// The pipeline's combined result.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    pub level: ValidationLevel,
    pub diagnostics: Diagnostics,
}

impl ValidationReport {
    pub fn ok(&self) -> bool {
        !self.diagnostics.has_errors()
    }

    pub fn error_count(&self) -> usize {
        self.diagnostics.count(Severity::Error)
    }
}

/// Validate an expanded manifest at the given level. Pass a [`SpecMiner`]
/// to additionally run mined-convention checks (advisory only).
pub fn validate(
    manifest: &Manifest,
    catalog: &Catalog,
    level: ValidationLevel,
    miner: Option<&SpecMiner>,
) -> ValidationReport {
    validate_indexed(
        manifest,
        &ManifestIndex::build(manifest),
        catalog,
        level,
        miner,
    )
}

/// [`validate`] over an index the caller already holds (the incremental
/// pipeline keeps it for later scoped re-checks).
pub fn validate_indexed(
    manifest: &Manifest,
    index: &ManifestIndex,
    catalog: &Catalog,
    level: ValidationLevel,
    miner: Option<&SpecMiner>,
) -> ValidationReport {
    let mut diagnostics = schema::check(manifest, catalog);
    if level >= ValidationLevel::Semantic {
        diagnostics.extend(semantic::check(manifest, index, catalog));
    }
    if level >= ValidationLevel::CloudRules {
        diagnostics.extend(rules::check(manifest, index, catalog));
    }
    if let Some(m) = miner {
        diagnostics.extend(m.check(manifest));
    }
    ValidationReport { level, diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_hcl::eval::MapResolver;
    use cloudless_hcl::program::{expand, ModuleLibrary, Program};
    use std::collections::BTreeMap;

    fn manifest(src: &str) -> Manifest {
        let p = Program::from_file(cloudless_hcl::parse(src, "main.tf").unwrap()).unwrap();
        expand(
            &p,
            &BTreeMap::new(),
            &ModuleLibrary::new(),
            &MapResolver::new(),
        )
        .unwrap()
    }

    /// Region mismatch: schema fine, semantically fine, only the
    /// cloud-rules layer catches it — the paper's exact scenario.
    const NIC_MISMATCH: &str = r#"
resource "azure_network_interface" "n1" {
  name     = "n1"
  location = "westeurope"
}
resource "azure_virtual_machine" "vm1" {
  name     = "vm1"
  location = "eastus"
  nic_ids  = [azure_network_interface.n1.id]
}
"#;

    #[test]
    fn levels_catch_progressively_more() {
        let m = manifest(NIC_MISMATCH);
        let catalog = Catalog::standard();
        let schema = validate(&m, &catalog, ValidationLevel::Schema, None);
        let semantic = validate(&m, &catalog, ValidationLevel::Semantic, None);
        let rules = validate(&m, &catalog, ValidationLevel::CloudRules, None);
        assert!(schema.ok());
        assert!(semantic.ok());
        assert!(!rules.ok(), "only cloud-rules catches the region mismatch");
        assert!(rules.diagnostics.items.iter().any(|d| d.code == "VAL301"));
    }

    #[test]
    fn clean_program_passes_all_levels() {
        let m = manifest(
            r#"
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.0/24"
}
"#,
        );
        let catalog = Catalog::standard();
        for level in ValidationLevel::ALL {
            let r = validate(&m, &catalog, level, None);
            assert!(r.ok(), "{}: {}", level.name(), r.diagnostics);
        }
    }

    #[test]
    fn levels_are_ordered() {
        assert!(ValidationLevel::Schema < ValidationLevel::Semantic);
        assert!(ValidationLevel::Semantic < ValidationLevel::CloudRules);
    }

    #[test]
    fn miner_layers_on_top() {
        let mut miner = SpecMiner::with_min_support(3);
        for i in 0..4 {
            miner.observe(&manifest(&format!(
                r#"resource "aws_virtual_machine" "w" {{ name = "w{i}" instance_type = "t3.micro" }}"#
            )));
        }
        let m = manifest(
            r#"resource "aws_virtual_machine" "w" { name = "w" instance_type = "weird.type" }"#,
        );
        let catalog = Catalog::standard();
        let without = validate(&m, &catalog, ValidationLevel::CloudRules, None);
        let with = validate(&m, &catalog, ValidationLevel::CloudRules, Some(&miner));
        let warnings = |r: &ValidationReport| r.diagnostics.count(Severity::Warning);
        assert!(warnings(&with) > warnings(&without));
        // advisory: still ok()
        assert!(with.ok());
    }
}
