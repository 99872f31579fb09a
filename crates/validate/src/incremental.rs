//! Instance-granular validation support for the incremental converge
//! pipeline.
//!
//! The full pipeline ([`crate::validate`]) checks every expanded instance.
//! After a resource-block edit whose cached validation report was *clean*,
//! only two kinds of diagnostics can newly appear:
//!
//! 1. per-instance findings on the edited block's instances, or on
//!    instances that *reference* the edited block (the cross-resource
//!    rules read the referenced instance's attributes — a VM's region
//!    check reads its NIC's `location`);
//! 2. aggregate findings: globally-unique-name collisions (VAL306) and
//!    per-region quota overruns (VAL307), both of which are functions of
//!    simple per-instance claims the caller can maintain as a map.
//!
//! [`check_scope`] re-runs the per-instance layers (schema, semantic,
//! cross-resource rules, mined conventions) over a set of instance
//! positions, following references through whatever says where a block's
//! instances sit ([`Positions`]: the full run's [`ManifestIndex`], or the
//! pipeline's memo). [`name_claim`] and
//! [`quota_key`] are the extractors the whole-program VAL306/VAL307 rules
//! fold over, for maintaining the same aggregates as multisets.

use cloudless_cloud::Catalog;
use cloudless_hcl::program::Manifest;
use cloudless_hcl::Diagnostics;

pub use crate::rules::{name_claim, quota_key, ManifestIndex, Positions};
use crate::{rules, schema, semantic, SpecMiner};

/// Re-run the per-instance validation layers (schema, semantic,
/// cross-resource rules, and `miner`'s conventions when one is passed) for
/// the instances at `positions`. The returned diagnostics are exactly those
/// the full run would produce *for these instances* — a clean result plus
/// unchanged aggregates means the edit introduced no validation findings.
pub fn check_scope(
    manifest: &Manifest,
    index: &dyn Positions,
    positions: &[usize],
    catalog: &Catalog,
    miner: Option<&SpecMiner>,
) -> Diagnostics {
    let mut diags = Diagnostics::new();
    for &i in positions {
        let inst = manifest.instances.at(i);
        schema::check_instance(inst, catalog, &mut diags);
        semantic::check_instance(inst, catalog, index, &mut diags);
        rules::check_instance(inst, manifest, index, &mut diags);
        if let Some(miner) = miner {
            miner.check_instance(inst, &mut diags);
        }
    }
    diags
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

    #[test]
    fn scoped_check_matches_full_run() {
        let src = r#"
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
        let m = manifest(src);
        let catalog = Catalog::standard();
        let full = crate::rules::check(&m, &ManifestIndex::build(&m), &catalog);
        let index = ManifestIndex::build(&m);
        let all: Vec<usize> = (0..m.instances.len()).collect();
        let scoped = check_scope(&m, &index, &all, &catalog, None);
        let full_codes: Vec<&str> = full.items.iter().map(|d| d.code.as_str()).collect();
        let scoped_codes: Vec<&str> = scoped.items.iter().map(|d| d.code.as_str()).collect();
        assert!(full_codes.contains(&"VAL301"));
        assert_eq!(full_codes, scoped_codes);
    }

    #[test]
    fn clean_scope_is_clean() {
        let m = manifest(
            r#"
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.0/24"
}
"#,
        );
        let index = ManifestIndex::build(&m);
        let all: Vec<usize> = (0..m.instances.len()).collect();
        let d = check_scope(&m, &index, &all, &Catalog::standard(), None);
        assert!(d.is_empty(), "{d}");
    }

    #[test]
    fn name_claims_and_quota_keys() {
        let m = manifest(
            r#"
resource "aws_s3_bucket" "a" { bucket = "logs" }
resource "aws_virtual_machine" "vm" { name = "vm" }
"#,
        );
        assert_eq!(name_claim(&m.instances[0]), Some(("aws_s3_bucket", "logs")));
        assert_eq!(name_claim(&m.instances[1]), None);
        let (t, r) = quota_key(&m.instances[1]);
        assert_eq!(t, "aws_virtual_machine");
        assert!(!r.is_empty(), "provider default region expected");
    }
}
