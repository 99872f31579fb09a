//! Module extraction: the third structural refactoring of §3.1.
//!
//! > "nested modules in Terraform are another way to wrap sets of resources
//! > with the same structure."
//!
//! Enterprises that ClickOps-build one stack per team/environment end up
//! with `app1-vpc`, `app1-web`, `app1-db`, `app2-vpc`, `app2-web`, … —
//! repeated *heterogeneous* subgraphs that `count` cannot compact (the
//! members differ in type). [`extract_modules`] detects such repeated
//! stacks:
//!
//! 1. partition records by the name prefix before the first `-`;
//! 2. compute each partition's *shape*: the sorted set of
//!    `(suffix, type, canonical attrs)` with internal references rewritten
//!    to suffixes — a partition with references leaving the partition does
//!    not modularize;
//! 3. partitions (≥2 of them) with identical shapes become one module
//!    definition (parameterized by `prefix`) plus one `module` call per
//!    partition.
//!
//! The output is a [`ModulePort`]: the root file, the generated module
//! library, and the id → `module.<prefix>.<type>.<suffix>` address mapping
//! — everything needed for a fidelity round-trip.

use std::collections::{BTreeMap, BTreeSet};

use cloudless_cloud::{Catalog, ResourceRecord, SemanticType};
use cloudless_hcl::ast::{Attribute, Block, BlockBody, Expr, File, Reference, TemplatePart};
use cloudless_hcl::program::ModuleLibrary;
use cloudless_hcl::value_to_expr;
use cloudless_types::{ResourceAddr, ResourceId, Span, Value};

use crate::optimize::{optimized_port, PortResult};

/// Result of a module-aware port.
#[derive(Debug, Clone)]
pub struct ModulePort {
    /// The root program (module calls + any non-modularized resources).
    pub file: File,
    /// Generated module sources, keyed by the `source` strings used in the
    /// root file.
    pub modules: ModuleLibrary,
    /// Cloud id → IaC address (module-qualified where applicable).
    pub address_of: BTreeMap<ResourceId, ResourceAddr>,
    /// Number of module *definitions* extracted.
    pub module_defs: usize,
    /// Number of module *calls* emitted.
    pub module_calls: usize,
}

/// The name attribute of a type, if any ("name" or "bucket").
fn name_attr_of(record: &ResourceRecord) -> Option<(&'static str, &str)> {
    for key in ["name", "bucket"] {
        if let Some(Value::Str(s)) = record.attrs.get(key) {
            return Some((if key == "name" { "name" } else { "bucket" }, s));
        }
    }
    None
}

/// Split "app1-web" into ("app1", "web").
fn split_prefix(name: &str) -> Option<(&str, &str)> {
    let (prefix, suffix) = name.split_once('-')?;
    if prefix.is_empty() || suffix.is_empty() {
        return None;
    }
    Some((prefix, suffix))
}

/// One record's role inside a candidate partition.
struct Member<'a> {
    record: &'a ResourceRecord,
    suffix: String,
    name_key: &'static str,
}

/// Canonical shape of one partition: deterministic string the grouping
/// hashes on.
fn shape_of(
    members: &[Member<'_>],
    ids_in_partition: &BTreeMap<&str, &str>, // id -> suffix
    catalog: &Catalog,
) -> Option<String> {
    let mut parts = Vec::new();
    for m in members {
        let schema = catalog.get(&m.record.rtype)?;
        let mut attr_parts = Vec::new();
        for (k, v) in &m.record.attrs {
            let Some(a) = schema.settable(k).filter(|_| k != m.name_key) else {
                continue;
            };
            let rendered = match &a.semantic {
                SemanticType::RefTo(_) | SemanticType::ListOfRefs(_) => {
                    // internal refs become suffixes; external refs disqualify
                    let ids: Vec<&str> = match v {
                        Value::Str(s) => vec![s.as_str()],
                        Value::List(items) => items.iter().filter_map(Value::as_str).collect(),
                        _ => vec![],
                    };
                    let mut sufs = Vec::new();
                    for id in ids {
                        match ids_in_partition.get(id) {
                            Some(suffix) => sufs.push(format!("@{suffix}")),
                            None => return None, // external reference
                        }
                    }
                    format!("[{}]", sufs.join(","))
                }
                _ => v.to_string(),
            };
            attr_parts.push(format!("{k}={rendered}"));
        }
        parts.push(format!(
            "{}:{}:{}:{{{}}}",
            m.suffix,
            m.record.rtype,
            m.record.region,
            attr_parts.join(";")
        ));
    }
    parts.sort();
    Some(parts.join("|"))
}

/// Port with module extraction; non-modularized records fall through to the
/// count/for_each optimizer.
pub fn extract_modules(records: &[ResourceRecord], catalog: &Catalog) -> ModulePort {
    let sp = Span::synthetic();
    // ---- partition by name prefix ----
    let mut partitions: BTreeMap<String, Vec<Member<'_>>> = BTreeMap::new();
    let mut leftovers: Vec<ResourceRecord> = Vec::new();
    for r in records {
        match name_attr_of(r).and_then(|(key, name)| {
            split_prefix(name).map(|(p, s)| (key, p.to_owned(), s.to_owned()))
        }) {
            Some((name_key, prefix, suffix)) => {
                partitions.entry(prefix).or_default().push(Member {
                    record: r,
                    suffix,
                    name_key,
                });
            }
            None => leftovers.push(r.clone()),
        }
    }

    // ---- shape partitions ----
    let mut by_shape: BTreeMap<String, Vec<(String, Vec<Member<'_>>)>> = BTreeMap::new();
    for (prefix, mut members) in partitions {
        members.sort_by(|a, b| a.suffix.cmp(&b.suffix));
        // duplicate suffixes inside one partition disqualify it
        let unique: BTreeSet<&str> = members.iter().map(|m| m.suffix.as_str()).collect();
        if unique.len() != members.len() {
            leftovers.extend(members.into_iter().map(|m| m.record.clone()));
            continue;
        }
        let ids: BTreeMap<&str, &str> = members
            .iter()
            .map(|m| (m.record.id.as_str(), m.suffix.as_str()))
            .collect();
        match shape_of(&members, &ids, catalog) {
            Some(shape) => by_shape.entry(shape).or_default().push((prefix, members)),
            None => leftovers.extend(members.into_iter().map(|m| m.record.clone())),
        }
    }

    // ---- emit modules for shapes with ≥ 2 partitions ----
    let mut modules = ModuleLibrary::new();
    let mut root_blocks: Vec<Block> = Vec::new();
    let mut address_of: BTreeMap<ResourceId, ResourceAddr> = BTreeMap::new();
    let mut module_defs = 0usize;
    let mut module_calls = 0usize;

    for (_, mut groups) in by_shape {
        if groups.len() < 2 {
            for (_, members) in groups {
                leftovers.extend(members.into_iter().map(|m| m.record.clone()));
            }
            continue;
        }
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        module_defs += 1;
        // the representative partition defines the module body
        let representative = &groups[0].1;
        let source_key = format!("modules/stack_{module_defs}");
        let module_src = render_module(representative, catalog);
        modules.insert(&source_key, module_src);

        for (prefix, members) in &groups {
            module_calls += 1;
            root_blocks.push(Block {
                kind: "module".to_owned(),
                labels: vec![prefix.clone()],
                body: BlockBody {
                    attrs: vec![
                        Attribute {
                            name: "source".to_owned(),
                            value: Expr::Str(vec![TemplatePart::Lit(source_key.clone())], sp),
                            span: sp,
                        },
                        Attribute {
                            name: "prefix".to_owned(),
                            value: Expr::Str(vec![TemplatePart::Lit(prefix.clone())], sp),
                            span: sp,
                        },
                    ],
                    blocks: vec![],
                },
                span: sp,
            });
            for m in members {
                let addr = ResourceAddr::root(m.record.rtype.clone(), m.suffix.clone())
                    .in_module(prefix.clone());
                address_of.insert(m.record.id.clone(), addr);
            }
        }
    }

    // ---- leftovers via the standard optimizer ----
    let PortResult {
        file: leftover_file,
        address_of: leftover_addrs,
    } = optimized_port(&leftovers, catalog);
    root_blocks.extend(leftover_file.blocks);
    address_of.extend(leftover_addrs);

    ModulePort {
        file: File {
            filename: "imported.tf".to_owned(),
            blocks: root_blocks,
        },
        modules,
        address_of,
        module_defs,
        module_calls,
    }
}

/// Render the module source from a representative partition.
fn render_module(members: &[Member<'_>], catalog: &Catalog) -> String {
    let sp = Span::synthetic();
    let suffix_of_id: BTreeMap<&str, &str> = members
        .iter()
        .map(|m| (m.record.id.as_str(), m.suffix.as_str()))
        .collect();
    let rtype_of_suffix: BTreeMap<&str, &str> = members
        .iter()
        .map(|m| (m.suffix.as_str(), m.record.rtype.as_str()))
        .collect();

    let ref_expr = |id: &str| -> Option<Expr> {
        let suffix = suffix_of_id.get(id)?;
        let rtype = rtype_of_suffix.get(suffix)?;
        Some(Expr::GetAttr(
            Box::new(Expr::Ref(Reference::new([*rtype, *suffix]), sp)),
            "id".to_owned(),
            sp,
        ))
    };

    let mut blocks = vec![Block {
        kind: "variable".to_owned(),
        labels: vec!["prefix".to_owned()],
        body: BlockBody::default(),
        span: sp,
    }];
    for m in members {
        let schema = catalog.get(&m.record.rtype);
        let mut attrs = Vec::new();
        for (k, v) in &m.record.attrs {
            let Some(a) = schema.and_then(|s| s.settable(k)).filter(|_| !v.is_null()) else {
                continue;
            };
            let value = if k == m.name_key {
                // name = "${var.prefix}-suffix"
                Expr::Str(
                    vec![
                        TemplatePart::Interp(Expr::Ref(Reference::new(["var", "prefix"]), sp)),
                        TemplatePart::Lit(format!("-{}", m.suffix)),
                    ],
                    sp,
                )
            } else {
                match &a.semantic {
                    SemanticType::RefTo(_) => match v.as_str().and_then(&ref_expr) {
                        Some(e) => e,
                        None => value_to_expr(v),
                    },
                    SemanticType::ListOfRefs(_) => match v {
                        Value::List(items) => Expr::List(
                            items
                                .iter()
                                .map(|item| {
                                    item.as_str()
                                        .and_then(&ref_expr)
                                        .unwrap_or_else(|| value_to_expr(item))
                                })
                                .collect(),
                            sp,
                        ),
                        other => value_to_expr(other),
                    },
                    _ => value_to_expr(v),
                }
            };
            attrs.push(Attribute {
                name: k.clone(),
                value,
                span: sp,
            });
        }
        blocks.push(Block {
            kind: "resource".to_owned(),
            labels: vec![m.record.rtype.as_str().to_owned(), m.suffix.clone()],
            body: BlockBody {
                attrs,
                blocks: vec![],
            },
            span: sp,
        });
    }
    cloudless_hcl::render_file(&File {
        filename: "module.tf".to_owned(),
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_deploy::diff::{diff, Action};
    use cloudless_deploy::resolver::DataResolver;
    use cloudless_hcl::program::{expand, Program};
    use cloudless_state::{DeployedResource, Snapshot};
    use cloudless_types::value::attrs;
    use cloudless_types::{Region, ResourceTypeName, SimTime};

    fn record(id: &str, rtype: &str, a: cloudless_types::Attrs) -> ResourceRecord {
        let mut full = a;
        full.insert("id".into(), Value::from(id));
        ResourceRecord {
            id: ResourceId::new(id),
            rtype: ResourceTypeName::new(rtype),
            region: Region::new("us-east-1"),
            attrs: full,
            created_at: SimTime::ZERO,
            updated_at: SimTime::ZERO,
        }
    }

    /// Three identical app stacks, each: vpc + subnet + vm.
    fn stacks(n: usize) -> Vec<ResourceRecord> {
        let mut out = Vec::new();
        for i in 0..n {
            let app = format!("app{i}");
            let vpc_id = format!("vpc-{i}");
            let sn_id = format!("sn-{i}");
            out.push(record(
                &vpc_id,
                "aws_vpc",
                attrs([
                    ("name", Value::from(format!("{app}-net"))),
                    ("cidr_block", Value::from("10.0.0.0/16")),
                ]),
            ));
            out.push(record(
                &sn_id,
                "aws_subnet",
                attrs([
                    ("name", Value::from(format!("{app}-web"))),
                    ("vpc_id", Value::from(vpc_id.as_str())),
                    ("cidr_block", Value::from("10.0.1.0/24")),
                ]),
            ));
            out.push(record(
                &format!("vm-{i}"),
                "aws_virtual_machine",
                attrs([
                    ("name", Value::from(format!("{app}-srv"))),
                    ("subnet_id", Value::from(sn_id.as_str())),
                    ("instance_type", Value::from("t3.micro")),
                ]),
            ));
        }
        out
    }

    #[test]
    fn repeated_stacks_become_one_module() {
        let records = stacks(3);
        let catalog = Catalog::standard();
        let port = extract_modules(&records, &catalog);
        assert_eq!(port.module_defs, 1);
        assert_eq!(port.module_calls, 3);
        // the root file: 3 module calls, no resource blocks
        assert_eq!(port.file.blocks.len(), 3);
        assert!(port.file.blocks.iter().all(|b| b.kind == "module"));
        // module-qualified addresses
        assert_eq!(
            port.address_of[&ResourceId::new("vm-1")].to_string(),
            "module.app1.aws_virtual_machine.srv"
        );
    }

    #[test]
    fn module_port_round_trips() {
        let records = stacks(3);
        let catalog = Catalog::standard();
        let port = extract_modules(&records, &catalog);
        let text = cloudless_hcl::render_file(&port.file);
        let program = Program::from_file(cloudless_hcl::parse(&text, "imported.tf").unwrap())
            .unwrap_or_else(|d| panic!("{d}\n{text}"));
        let manifest = expand(
            &program,
            &BTreeMap::new(),
            &port.modules,
            &DataResolver::new(),
        )
        .unwrap_or_else(|d| panic!("{d}\n{text}"));
        assert_eq!(manifest.instances.len(), records.len());
        // seed state via the mapping and check all-no-ops
        let mut state = Snapshot::new();
        for r in &records {
            state.put(DeployedResource {
                addr: port.address_of[&r.id].clone(),
                rtype: r.rtype.clone(),
                id: r.id.clone(),
                region: r.region.clone(),
                attrs: r.attrs.clone(),
                depends_on: vec![],
                created_at: SimTime::ZERO,
            });
        }
        let changes = diff(&manifest, &state, &catalog, &DataResolver::new());
        for c in &changes {
            assert_eq!(c.action, Action::NoOp, "{}: {:?}", c.addr, c.action);
        }
    }

    #[test]
    fn divergent_stacks_do_not_modularize() {
        let mut records = stacks(2);
        // make app1's VM a different instance type — shapes now differ
        for r in &mut records {
            if r.id.as_str() == "vm-1" {
                r.attrs
                    .insert("instance_type".into(), Value::from("m5.large"));
            }
        }
        let catalog = Catalog::standard();
        let port = extract_modules(&records, &catalog);
        assert_eq!(port.module_defs, 0);
        assert!(
            port.file.blocks.iter().all(|b| b.kind == "resource"),
            "falls back to plain resources"
        );
    }

    #[test]
    fn external_references_disqualify_partition() {
        let mut records = stacks(2);
        // a shared bucket outside both stacks, referenced by app0's VM
        records.push(record(
            "shared-sn",
            "aws_subnet",
            attrs([
                ("name", Value::from("sharednet")), // no '-': not partitioned
                ("cidr_block", Value::from("10.9.0.0/24")),
            ]),
        ));
        for r in &mut records {
            if r.id.as_str() == "vm-0" {
                r.attrs.insert("subnet_id".into(), Value::from("shared-sn"));
            }
        }
        let catalog = Catalog::standard();
        let port = extract_modules(&records, &catalog);
        // app0 has an external ref → disqualified; app1 alone is < 2 → no
        // modules at all
        assert_eq!(port.module_defs, 0);
    }

    #[test]
    fn mixed_fleet_modules_plus_count_compaction() {
        let mut records = stacks(2);
        // plus a flat bucket fleet that the count optimizer should compact
        for i in 0..4 {
            records.push(record(
                &format!("b-{i}"),
                "aws_s3_bucket",
                attrs([("bucket", Value::from(format!("logs{i}")))]),
            ));
        }
        let catalog = Catalog::standard();
        let port = extract_modules(&records, &catalog);
        assert_eq!(port.module_defs, 1);
        assert_eq!(port.module_calls, 2);
        // bucket fleet compacted into one block among the root blocks
        let bucket_blocks: Vec<&Block> = port
            .file
            .blocks
            .iter()
            .filter(|b| b.kind == "resource" && b.labels[0] == "aws_s3_bucket")
            .collect();
        assert_eq!(bucket_blocks.len(), 1);
        assert!(
            bucket_blocks[0].body.attr("count").is_some()
                || bucket_blocks[0].body.attr("for_each").is_some()
        );
    }
}
