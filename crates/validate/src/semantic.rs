//! Layer 2: semantic typing of attribute values and references.
//!
//! §3.2: "in Terraform, resource attributes are treated as generic 'strings'
//! although they carry much richer semantic information — e.g., one 'string'
//! may specifically represent a virtual machine and another specifically a
//! subnet. With today's types, composing resources into dependency graphs is
//! error-prone. … Azure requires that a virtual machine resource must
//! reference its network interface by the resource ID; however, at the IaC
//! level, this reference could be easily misused (e.g., by referencing the
//! ID of a different resource type)."
//!
//! The catalog's [`SemanticType`] annotations make those checks mechanical:
//! a `RefTo(aws_subnet)` attribute whose deferred expression references
//! `aws_s3_bucket.b.id` is a compile-time error here — and a deploy-time
//! mystery in the baseline.

use cloudless_cloud::{Catalog, SemanticType};
use cloudless_hcl::program::{Manifest, ResourceInstance};
use cloudless_hcl::{Diagnostic, Diagnostics};
use cloudless_types::cidr::Cidr;
use cloudless_types::{Provider, Region};

use crate::rules::{span_of, ManifestIndex, Positions};

/// Check semantic types across a manifest and its index.
pub fn check(manifest: &Manifest, index: &ManifestIndex, catalog: &Catalog) -> Diagnostics {
    let mut diags = Diagnostics::new();
    for inst in &manifest.instances {
        check_instance(inst, catalog, index, &mut diags);
    }
    diags
}

pub(crate) fn check_instance(
    inst: &ResourceInstance,
    catalog: &Catalog,
    index: &dyn Positions,
    diags: &mut Diagnostics,
) {
    let Some(schema) = catalog.get(&inst.addr.rtype) else {
        return; // layer 1 reports unknown types
    };

    // Value-level semantics on known attributes.
    for (name, value) in &inst.attrs {
        let Some(attr) = schema.attr(name) else {
            continue;
        };
        if value.is_null() {
            continue;
        }
        match &attr.semantic {
            SemanticType::Region => {
                if let Some(region) = value.as_str() {
                    let region = Region::new(region);
                    if !schema.provider.has_region(&region) {
                        let valid = schema.provider.regions().join(", ");
                        diags.push(
                            Diagnostic::error(
                                "VAL201",
                                &inst.file,
                                span_of(inst, name),
                                format!(
                                    "{}: {region:?} is not a region of provider {} ",
                                    inst.addr, schema.provider
                                ),
                            )
                            .with_suggestion(format!("valid regions: {valid}")),
                        );
                    }
                }
            }
            SemanticType::Cidr => {
                if let Some(s) = value.as_str() {
                    if let Err(e) = s.parse::<Cidr>() {
                        diags.push(Diagnostic::error(
                            "VAL202",
                            &inst.file,
                            span_of(inst, name),
                            format!("{}: attribute {name:?}: {e}", inst.addr),
                        ));
                    }
                }
            }
            SemanticType::Port => {
                if let Some(n) = value.as_num() {
                    if !(0.0..=65535.0).contains(&n) || n.fract() != 0.0 {
                        diags.push(Diagnostic::error(
                            "VAL203",
                            &inst.file,
                            span_of(inst, name),
                            format!("{}: {n} is not a valid port", inst.addr),
                        ));
                    }
                }
            }
            SemanticType::RefTo(_) | SemanticType::ListOfRefs(_) => {
                // A *known* (non-deferred) value for a reference attribute is
                // a hardcoded id — it escapes dependency tracking entirely.
                diags.push(
                    Diagnostic::warning(
                        "VAL204",
                        &inst.file,
                        span_of(inst, name),
                        format!(
                            "{}: attribute {name:?} holds a hardcoded id instead of a resource reference",
                            inst.addr
                        ),
                    )
                    .with_suggestion(
                        "reference the resource (e.g. `aws_subnet.name.id`) so dependencies are tracked",
                    ),
                );
            }
            _ => {}
        }
    }

    // Reference-level semantics on deferred attributes.
    for d in &inst.deferred {
        let Some(attr) = schema.attr(&d.name) else {
            continue;
        };
        let expected = match &attr.semantic {
            SemanticType::RefTo(t) | SemanticType::ListOfRefs(t) => Some(t.as_str()),
            _ => None,
        };
        for t in &d.waiting_on {
            let actual = t.rtype.as_str();
            let block = index.positions(&inst.addr.module_path, actual, &t.name);
            if block.is_empty() {
                continue; // undeclared refs are reported during expansion
            }
            if let Some(expected) = expected {
                if actual != expected {
                    diags.push(
                        Diagnostic::error(
                            "VAL205",
                            &inst.file,
                            d.span,
                            format!(
                                "{}: attribute {:?} must reference a {expected}, but {t} is a {actual}",
                                inst.addr, d.name
                            ),
                        )
                        .with_suggestion(format!(
                            "reference a resource of type {expected} instead"
                        )),
                    );
                }
                // referencing the whole resource instead of its id
                if t.attr.is_none() {
                    diags.push(
                        Diagnostic::warning(
                            "VAL206",
                            &inst.file,
                            d.span,
                            format!(
                                "{}: attribute {:?} references {t} without selecting an attribute",
                                inst.addr, d.name
                            ),
                        )
                        .with_suggestion(format!("use {t}.id")),
                    );
                }
            }
        }
    }
    // Per-provider region coherence of the instance itself is a rules-layer
    // concern (it needs cross-resource context).
    let _ = Provider::ALL;
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_hcl::eval::MapResolver;
    use cloudless_hcl::program::{expand, ModuleLibrary, Program};
    use std::collections::BTreeMap;

    fn diags(src: &str) -> Diagnostics {
        let p = Program::from_file(cloudless_hcl::parse(src, "main.tf").unwrap()).unwrap();
        let m = expand(
            &p,
            &BTreeMap::new(),
            &ModuleLibrary::new(),
            &MapResolver::new(),
        )
        .unwrap();
        check(&m, &ManifestIndex::build(&m), &Catalog::standard())
    }

    #[test]
    fn wrong_type_reference_is_error() {
        // the paper's example: a VM referencing something that is not a NIC
        let d = diags(
            r#"
resource "aws_s3_bucket" "b" { bucket = "x" }
resource "aws_virtual_machine" "vm" {
  name    = "vm"
  nic_ids = [aws_s3_bucket.b.id]
}
"#,
        );
        let err = d.items.iter().find(|x| x.code == "VAL205").expect("VAL205");
        assert!(err
            .message
            .contains("must reference a aws_network_interface"));
        assert!(err.message.contains("aws_s3_bucket"));
    }

    #[test]
    fn right_type_reference_passes() {
        let d = diags(
            r#"
resource "aws_network_interface" "n" { name = "n" }
resource "aws_virtual_machine" "vm" {
  name    = "vm"
  nic_ids = [aws_network_interface.n.id]
}
"#,
        );
        assert!(!d.items.iter().any(|x| x.code == "VAL205"), "{d}");
    }

    #[test]
    fn invalid_region_flagged_with_valid_list() {
        let d = diags(
            r#"
resource "azure_network_interface" "n" {
  name     = "n"
  location = "us-east-1"
}
"#,
        );
        let err = d.items.iter().find(|x| x.code == "VAL201").expect("VAL201");
        assert!(err.suggestion.as_ref().unwrap().contains("eastus"));
    }

    #[test]
    fn invalid_cidr_flagged() {
        let d = diags(r#"resource "aws_vpc" "v" { cidr_block = "10.0.0.0" }"#);
        assert!(d.items.iter().any(|x| x.code == "VAL202"));
        let ok = diags(r#"resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }"#);
        assert!(!ok.items.iter().any(|x| x.code == "VAL202"));
    }

    #[test]
    fn hardcoded_id_warned() {
        let d = diags(
            r#"
resource "aws_virtual_machine" "vm" {
  name      = "vm"
  subnet_id = "subnet-12345"
}
"#,
        );
        let w = d.items.iter().find(|x| x.code == "VAL204").expect("VAL204");
        assert_eq!(w.severity, cloudless_hcl::Severity::Warning);
    }

    #[test]
    fn whole_resource_reference_warned() {
        let d = diags(
            r#"
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.0/24"
}
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_virtual_machine" "vm" {
  name      = "vm"
  subnet_id = aws_subnet.s
}
"#,
        );
        assert!(d.items.iter().any(|x| x.code == "VAL206"));
    }

    #[test]
    fn spans_point_at_the_attribute() {
        let src = "resource \"aws_vpc\" \"v\" {\n  cidr_block = \"banana\"\n}";
        let d = diags(src);
        let err = d.items.iter().find(|x| x.code == "VAL202").unwrap();
        assert_eq!(err.span.start.line, 2);
    }
}
