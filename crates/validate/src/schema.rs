//! Layer 1: schema validation of expanded instances against the catalog.

use cloudless_cloud::Catalog;
use cloudless_hcl::program::{Manifest, ResourceInstance};
use cloudless_hcl::{Diagnostic, Diagnostics};

use crate::rules::span_of;

/// Check every instance's attributes against the catalog schema.
pub fn check(manifest: &Manifest, catalog: &Catalog) -> Diagnostics {
    let mut diags = Diagnostics::new();
    for inst in &manifest.instances {
        check_instance(inst, catalog, &mut diags);
    }
    diags
}

pub(crate) fn check_instance(inst: &ResourceInstance, catalog: &Catalog, diags: &mut Diagnostics) {
    let Some(schema) = catalog.get(&inst.addr.rtype) else {
        diags.push(
            Diagnostic::error(
                "VAL101",
                &inst.file,
                inst.span,
                format!("unknown resource type {:?}", inst.addr.rtype.as_str()),
            )
            .with_suggestion(nearest_type_hint(inst, catalog)),
        );
        return;
    };

    // Unknown / computed / wrong-kind attributes.
    for (name, value) in &inst.attrs {
        match schema.attr(name) {
            None => diags.push(
                Diagnostic::error(
                    "VAL102",
                    &inst.file,
                    span_of(inst, name),
                    format!(
                        "{}: attribute {name:?} is not defined for {}",
                        inst.addr, inst.addr.rtype
                    ),
                )
                .with_suggestion(nearest_attr_hint(name, schema)),
            ),
            Some(a) if a.computed => diags.push(Diagnostic::error(
                "VAL103",
                &inst.file,
                span_of(inst, name),
                format!(
                    "{}: attribute {name:?} is computed by the cloud and cannot be set",
                    inst.addr
                ),
            )),
            Some(a) if !value.is_null() && !a.kind.admits(value) => diags.push(Diagnostic::error(
                "VAL104",
                &inst.file,
                span_of(inst, name),
                format!(
                    "{}: attribute {name:?} expects {} but the value is {}",
                    inst.addr,
                    a.kind,
                    value.kind()
                ),
            )),
            Some(_) => {}
        }
    }
    // Deferred attributes: the name must at least exist on the schema.
    for d in &inst.deferred {
        if schema.attr(&d.name).is_none() {
            diags.push(
                Diagnostic::error(
                    "VAL102",
                    &inst.file,
                    d.span,
                    format!(
                        "{}: attribute {:?} is not defined for {}",
                        inst.addr, d.name, inst.addr.rtype
                    ),
                )
                .with_suggestion(nearest_attr_hint(&d.name, schema)),
            );
        }
    }
    // Required attributes must be present (known or deferred).
    for req in schema.required_attrs() {
        let known = inst
            .attrs
            .get(&req.name)
            .map(|v| !v.is_null())
            .unwrap_or(false);
        let deferred = inst.deferred.iter().any(|d| d.name == req.name);
        if !known && !deferred {
            diags.push(Diagnostic::error(
                "VAL105",
                &inst.file,
                inst.span,
                format!(
                    "{}: required attribute {:?} is missing",
                    inst.addr, req.name
                ),
            ));
        }
    }
}

/// Edit-distance-based "did you mean" for attribute names.
fn nearest_attr_hint(name: &str, schema: &cloudless_cloud::ResourceSchema) -> String {
    let mut best: Option<(usize, &str)> = None;
    for candidate in schema.attrs.keys() {
        let d = edit_distance(name, candidate);
        if best.map(|(bd, _)| d < bd).unwrap_or(true) {
            best = Some((d, candidate));
        }
    }
    match best {
        Some((d, c)) if d <= 3 => format!("did you mean {c:?}?"),
        _ => "see the type's schema for valid attributes".to_owned(),
    }
}

fn nearest_type_hint(inst: &ResourceInstance, catalog: &Catalog) -> String {
    let name = inst.addr.rtype.as_str();
    let mut best: Option<(usize, String)> = None;
    for schema in catalog.iter() {
        let d = edit_distance(name, schema.rtype.as_str());
        if best.as_ref().map(|(bd, _)| d < *bd).unwrap_or(true) {
            best = Some((d, schema.rtype.as_str().to_owned()));
        }
    }
    match best {
        Some((d, c)) if d <= 4 => format!("did you mean {c:?}?"),
        _ => "see the provider catalog for supported types".to_owned(),
    }
}

/// Classic Levenshtein distance (small inputs; O(nm) is fine).
pub(crate) fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for i in 1..=a.len() {
        cur[0] = i;
        for j in 1..=b.len() {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            cur[j] = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
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

    fn diags(src: &str) -> Diagnostics {
        check(&manifest(src), &Catalog::standard())
    }

    #[test]
    fn valid_program_passes() {
        let d = diags(
            r#"
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.0/24"
}
"#,
        );
        assert!(d.is_empty(), "{d}");
    }

    #[test]
    fn unknown_type_with_suggestion() {
        let d = diags(r#"resource "aws_vritual_machine" "v" { name = "x" }"#);
        assert_eq!(d.items[0].code, "VAL101");
        assert!(d.items[0]
            .suggestion
            .as_ref()
            .unwrap()
            .contains("aws_virtual_machine"));
    }

    #[test]
    fn unknown_attr_with_suggestion() {
        let d = diags(r#"resource "aws_vpc" "v" { cidr_blok = "10.0.0.0/16" }"#);
        assert!(d
            .items
            .iter()
            .any(|x| x.code == "VAL102" && x.suggestion.as_ref().unwrap().contains("cidr_block")));
    }

    #[test]
    fn computed_attr_rejected() {
        let d = diags(r#"resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" id = "vpc-x" }"#);
        assert!(d.items.iter().any(|x| x.code == "VAL103"));
    }

    #[test]
    fn kind_mismatch_detected() {
        let d = diags(r#"resource "aws_vpc" "v" { cidr_block = 42 }"#);
        assert!(d.items.iter().any(|x| x.code == "VAL104"));
    }

    #[test]
    fn missing_required_detected() {
        let d = diags(r#"resource "aws_vpc" "v" { name = "x" }"#);
        assert!(d
            .items
            .iter()
            .any(|x| x.code == "VAL105" && x.message.contains("cidr_block")));
    }

    #[test]
    fn deferred_required_attr_is_accepted() {
        let d = diags(
            r#"
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.0/24"
}
"#,
        );
        // subnet.vpc_id is deferred but required — must not be flagged
        assert!(!d.items.iter().any(|x| x.code == "VAL105"));
    }

    #[test]
    fn diagnostics_point_at_attribute_lines() {
        let src = "resource \"aws_vpc\" \"v\" {\n  cidr_block = \"10.0.0.0/16\"\n  bogus = 1\n}";
        let d = diags(src);
        let bad = d.items.iter().find(|x| x.code == "VAL102").unwrap();
        assert_eq!(bad.span.start.line, 3);
    }

    #[test]
    fn edit_distance_sanity() {
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }
}
