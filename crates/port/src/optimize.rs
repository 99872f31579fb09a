//! The cloudless porting optimizer.
//!
//! Three refactorings over the naive dump, in order:
//!
//! 1. **Reference recovery** — attribute values that equal another imported
//!    resource's id become real references (`aws_vpc.main.id`), restoring
//!    the dependency graph the cloud state only holds implicitly.
//! 2. **Attribute pruning** — only what a program may set is kept
//!    ([`ResourceSchema::settable`]), and no nulls ("many of its cloud-level
//!    attributes could be removed when porting to the IaC level", §3.1).
//! 3. **Group compaction** — homogeneous fleets become a single block with
//!    `count` (values differing only in one embedded integer index become
//!    `"web-${count.index}"` templates), or `for_each` when exactly one
//!    attribute varies freely.
//!
//! Fidelity is non-negotiable: `optimized_port` also returns the mapping
//! from cloud ids to the generated IaC addresses, and the round-trip test
//! expands the generated program and diffs it against the imported state —
//! all no-ops required.
//!
//! [`ResourceSchema::settable`]: cloudless_cloud::ResourceSchema::settable

use std::collections::{BTreeMap, BTreeSet};

use cloudless_cloud::{Catalog, ResourceRecord, SemanticType};
use cloudless_hcl::ast::{Attribute, Block, BlockBody, Expr, File, Reference, TemplatePart};
use cloudless_hcl::{sanitize_ident, value_to_expr};
use cloudless_types::{ResourceAddr, ResourceId, Span, Value};

/// Result of a port: the program plus the id → address mapping needed to
/// seed the IaC state ("import").
#[derive(Debug, Clone)]
pub struct PortResult {
    pub file: File,
    pub address_of: BTreeMap<ResourceId, ResourceAddr>,
}

/// How one member of a compacted group varies.
#[derive(Debug, Clone, PartialEq)]
enum GroupKind {
    /// `count = k`; member i has index i.
    Count,
    /// `for_each` over the varying attribute's values.
    ForEach { varying_attr: String },
}

/// A planned resource group (possibly a singleton).
#[derive(Debug)]
struct PlannedGroup<'a> {
    rtype: String,
    label: String,
    /// Members in index order.
    members: Vec<&'a ResourceRecord>,
    kind: Option<GroupKind>,
}

/// Port `records` with structural optimization.
pub fn optimized_port(records: &[ResourceRecord], catalog: &Catalog) -> PortResult {
    let sp = Span::synthetic();
    let mut sorted: Vec<&ResourceRecord> = records.iter().collect();
    sorted.sort_by(|a, b| a.id.cmp(&b.id));

    // -------- pass 1: plan groups --------
    let groups = plan_groups(&sorted, catalog);

    // -------- pass 2: id → (group, index) for reference rewriting --------
    let mut member_of: BTreeMap<&ResourceId, (usize, usize)> = BTreeMap::new();
    for (gi, g) in groups.iter().enumerate() {
        for (mi, m) in g.members.iter().enumerate() {
            member_of.insert(&m.id, (gi, mi));
        }
    }

    // Reference expression for a member id, as seen from any block.
    let ref_expr = |id: &str| -> Option<Expr> {
        let (gi, mi) = member_of.get(&ResourceId::new(id)).copied()?;
        let g = &groups[gi];
        let base = Expr::Ref(Reference::new([g.rtype.as_str(), g.label.as_str()]), sp);
        let indexed = match &g.kind {
            None => base,
            Some(GroupKind::Count) => {
                Expr::Index(Box::new(base), Box::new(Expr::Num(mi as f64, sp)), sp)
            }
            Some(GroupKind::ForEach { varying_attr }) => {
                let key = g.members[mi]
                    .attrs
                    .get(varying_attr)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_owned();
                Expr::Index(
                    Box::new(base),
                    Box::new(Expr::Str(vec![TemplatePart::Lit(key)], sp)),
                    sp,
                )
            }
        };
        Some(Expr::GetAttr(Box::new(indexed), "id".to_owned(), sp))
    };

    // -------- pass 3: emit blocks --------
    let mut blocks = Vec::new();
    let mut address_of = BTreeMap::new();
    for g in &groups {
        let schema = catalog.get(&g.members[0].rtype);
        let mut attrs: Vec<Attribute> = Vec::new();

        // meta-arg first
        match &g.kind {
            Some(GroupKind::Count) => attrs.push(Attribute {
                name: "count".to_owned(),
                value: Expr::Num(g.members.len() as f64, sp),
                span: sp,
            }),
            Some(GroupKind::ForEach { varying_attr }) => {
                let keys: Vec<Expr> = g
                    .members
                    .iter()
                    .map(|m| {
                        Expr::Str(
                            vec![TemplatePart::Lit(
                                m.attrs
                                    .get(varying_attr)
                                    .and_then(Value::as_str)
                                    .unwrap_or_default()
                                    .to_owned(),
                            )],
                            sp,
                        )
                    })
                    .collect();
                attrs.push(Attribute {
                    name: "for_each".to_owned(),
                    value: Expr::List(keys, sp),
                    span: sp,
                });
            }
            None => {}
        }

        let rep = g.members[0];
        for (name, value) in &rep.attrs {
            // prune what a program may not set, and nulls
            let Some(a) = schema.and_then(|s| s.settable(name)) else {
                continue;
            };
            if value.is_null() {
                continue;
            }
            let is_ref_attr = matches!(
                a.semantic,
                SemanticType::RefTo(_) | SemanticType::ListOfRefs(_)
            );

            let expr = if is_ref_attr {
                match value {
                    Value::Str(id) => ref_expr(id).unwrap_or_else(|| value_to_expr(value)),
                    Value::List(items) => Expr::List(
                        items
                            .iter()
                            .map(|item| match item {
                                Value::Str(id) => {
                                    ref_expr(id).unwrap_or_else(|| value_to_expr(item))
                                }
                                other => value_to_expr(other),
                            })
                            .collect(),
                        sp,
                    ),
                    other => value_to_expr(other),
                }
            } else {
                match &g.kind {
                    None => value_to_expr(value),
                    Some(GroupKind::Count) => {
                        templated_expr(name, g, sp).unwrap_or_else(|| value_to_expr(value))
                    }
                    Some(GroupKind::ForEach { varying_attr }) => {
                        if name == varying_attr {
                            Expr::Ref(Reference::new(["each", "key"]), sp)
                        } else {
                            value_to_expr(value)
                        }
                    }
                }
            };
            attrs.push(Attribute {
                name: name.clone(),
                value: expr,
                span: sp,
            });
        }

        blocks.push(Block {
            kind: "resource".to_owned(),
            labels: vec![g.rtype.clone(), g.label.clone()],
            body: BlockBody {
                attrs,
                blocks: vec![],
            },
            span: sp,
        });

        // address mapping
        for (mi, m) in g.members.iter().enumerate() {
            let mut addr = ResourceAddr::root(m.rtype.clone(), g.label.clone());
            match &g.kind {
                None => {}
                Some(GroupKind::Count) => addr = addr.indexed(mi as u32),
                Some(GroupKind::ForEach { varying_attr }) => {
                    let key = m
                        .attrs
                        .get(varying_attr)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_owned();
                    addr = addr.keyed(key);
                }
            }
            address_of.insert(m.id.clone(), addr);
        }
    }

    PortResult {
        file: File {
            filename: "imported.tf".to_owned(),
            blocks,
        },
        address_of,
    }
}

/// For a count group: build the template expression of `attr` for member 0,
/// with the varying digit run replaced by `${count.index}`. Returns `None`
/// when the attr is constant across the group (emit the constant).
fn templated_expr(attr: &str, g: &PlannedGroup<'_>, sp: Span) -> Option<Expr> {
    let values: Vec<&Value> = g.members.iter().map(|m| &m.attrs[attr]).collect();
    if values.windows(2).all(|w| w[0] == w[1]) {
        return None; // constant
    }
    // varying: must be strings matching prefix + index + suffix
    let strs: Vec<&str> = values.iter().filter_map(|v| v.as_str()).collect();
    if strs.len() != values.len() {
        return None;
    }
    let (prefix, suffix) = split_at_index(strs[0], 0)?;
    Some(Expr::Str(
        vec![
            TemplatePart::Lit(prefix.to_owned()),
            TemplatePart::Interp(Expr::Ref(Reference::new(["count", "index"]), sp)),
            TemplatePart::Lit(suffix.to_owned()),
        ],
        sp,
    ))
}

/// Split `s` around the digit run that encodes `index`; returns
/// (prefix, suffix). The run chosen is the *last* digit run whose numeric
/// value equals `index`.
fn split_at_index(s: &str, index: usize) -> Option<(&str, &str)> {
    for (start, end) in digit_runs(s).into_iter().rev() {
        if s[start..end].parse::<usize>().ok() == Some(index) {
            return Some((&s[..start], &s[end..]));
        }
    }
    None
}

/// Byte ranges of the maximal ASCII-digit runs in `s`.
fn digit_runs(s: &str) -> Vec<(usize, usize)> {
    let bytes = s.as_bytes();
    let mut runs = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    runs
}

/// Partition records into groups, planning compaction.
fn plan_groups<'a>(sorted: &[&'a ResourceRecord], catalog: &Catalog) -> Vec<PlannedGroup<'a>> {
    // Signature: type + attr keys + each attr value with digit runs masked.
    let signature = |r: &ResourceRecord| -> String {
        let mut parts = vec![r.rtype.as_str().to_owned(), r.region.to_string()];
        let schema = catalog.get(&r.rtype);
        for (k, v) in &r.attrs {
            if schema.and_then(|s| s.settable(k)).is_none() {
                continue;
            }
            let rendered = match v {
                Value::Str(s) => mask_digits(s),
                other => other.to_string(),
            };
            parts.push(format!("{k}={rendered}"));
        }
        parts.join("|")
    };

    let mut by_sig: BTreeMap<String, Vec<&'a ResourceRecord>> = BTreeMap::new();
    for &r in sorted {
        by_sig.entry(signature(r)).or_default().push(r);
    }

    let mut taken = BTreeSet::new();
    let mut groups = Vec::new();
    let mut leftovers: Vec<&'a ResourceRecord> = Vec::new();
    for (_, mut members) in by_sig {
        if members.len() >= 2 {
            if let Some(kind) = verify_group(&mut members, catalog) {
                let label = group_label(&members, &mut taken);
                groups.push(PlannedGroup {
                    rtype: members[0].rtype.as_str().to_owned(),
                    label,
                    members,
                    kind: Some(kind),
                });
                continue;
            }
        }
        leftovers.extend(members);
    }

    // Stage 2: among leftovers of the same type/shape, compact groups where
    // exactly one *Name-semantic* attribute varies freely (`for_each`).
    let mut by_shape: BTreeMap<String, Vec<&'a ResourceRecord>> = BTreeMap::new();
    for r in leftovers {
        let keys: Vec<&str> = r.attrs.keys().map(String::as_str).collect();
        let shape = format!("{}|{}|{}", r.rtype, r.region, keys.join(","));
        by_shape.entry(shape).or_default().push(r);
    }
    for (_, mut members) in by_shape {
        if members.len() >= 2 {
            if let Some(kind) = try_for_each_named(&mut members, catalog) {
                let label = group_label(&members, &mut taken);
                groups.push(PlannedGroup {
                    rtype: members[0].rtype.as_str().to_owned(),
                    label,
                    members,
                    kind: Some(kind),
                });
                continue;
            }
        }
        // true singletons (or unverifiable groups) fall back to one block
        // each
        for m in members {
            let label = crate::label_for(m, &mut taken);
            groups.push(PlannedGroup {
                rtype: m.rtype.as_str().to_owned(),
                label,
                members: vec![m],
                kind: None,
            });
        }
    }
    // deterministic output order: by first member id
    groups.sort_by(|a, b| a.members[0].id.cmp(&b.members[0].id));
    groups
}

fn mask_digits(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut in_run = false;
    for c in s.chars() {
        if c.is_ascii_digit() {
            if !in_run {
                out.push('#');
                in_run = true;
            }
        } else {
            in_run = false;
            out.push(c);
        }
    }
    out
}

/// Verify that a signature group really compacts. On success the members
/// are reordered into index order and the kind is returned.
fn verify_group(members: &mut Vec<&ResourceRecord>, catalog: &Catalog) -> Option<GroupKind> {
    let varying = varying(members, catalog);
    if varying.is_empty() {
        // identical resources (e.g. unnamed gateways): plain count, no
        // templated attrs
        return Some(GroupKind::Count);
    }
    // ---- try count: every varying attr embeds the same 0..k index ----
    'count: {
        let mut order: Option<BTreeMap<usize, usize>> = None; // index → member pos
        for attr in &varying {
            let mut mapping = BTreeMap::new();
            for (pos, m) in members.iter().enumerate() {
                let Some(s) = m.attrs[*attr].as_str() else {
                    break 'count;
                };
                // find a digit run that yields a consistent contiguous index
                let mut found = None;
                for (start, end) in digit_runs(s).into_iter().rev() {
                    if let Ok(n) = s[start..end].parse::<usize>() {
                        if n < members.len() {
                            found = Some(n);
                            break;
                        }
                    }
                }
                let Some(n) = found else { break 'count };
                if mapping.insert(n, pos).is_some() {
                    break 'count; // duplicate index
                }
            }
            if mapping.len() != members.len() {
                break 'count;
            }
            match &order {
                None => order = Some(mapping),
                Some(prev) if *prev != mapping => break 'count,
                Some(_) => {}
            }
        }
        let order = order?;
        // check indices are exactly 0..k
        if order.keys().copied().eq(0..members.len()) {
            let reordered: Vec<&ResourceRecord> =
                (0..members.len()).map(|i| members[order[&i]]).collect();
            // final consistency: each varying attr of member i must equal
            // prefix + i + suffix derived from member 0
            for attr in &varying {
                let s0 = reordered[0].attrs[*attr].as_str()?;
                let (prefix, suffix) = split_at_index(s0, 0)?;
                for (i, m) in reordered.iter().enumerate() {
                    let want = format!("{prefix}{i}{suffix}");
                    if m.attrs[*attr].as_str() != Some(want.as_str()) {
                        return try_for_each(members, &varying);
                    }
                }
            }
            *members = reordered;
            return Some(GroupKind::Count);
        }
    }
    try_for_each(members, &varying)
}

/// Stage-2 entry: recompute the varying attrs of a shape group, then try
/// `for_each` compaction — but only when the varying attribute carries
/// `Name` semantics (grouping by CIDR or password values would produce
/// nonsense keys).
fn try_for_each_named(members: &mut Vec<&ResourceRecord>, catalog: &Catalog) -> Option<GroupKind> {
    let varying = varying(members, catalog);
    if varying.len() != 1 {
        return None;
    }
    let is_name = catalog
        .get(&members[0].rtype)
        .and_then(|s| s.attr(varying[0]))
        .map(|a| matches!(a.semantic, SemanticType::Name))
        .unwrap_or(false);
    if !is_name {
        return None;
    }
    try_for_each(members, &varying)
}

/// The attributes a program may set whose values differ across `members`.
fn varying<'a>(members: &[&'a ResourceRecord], catalog: &Catalog) -> Vec<&'a String> {
    let schema = catalog.get(&members[0].rtype);
    let settable = |k: &&String| schema.is_some_and(|s| s.settable(k).is_some());
    let differs = |k: &&String| members.windows(2).any(|w| w[0].attrs[*k] != w[1].attrs[*k]);
    members[0]
        .attrs
        .keys()
        .filter(settable)
        .filter(differs)
        .collect()
}

/// Fallback compaction: exactly one attr varies with distinct string values.
fn try_for_each(members: &mut [&ResourceRecord], varying: &[&String]) -> Option<GroupKind> {
    if varying.len() != 1 {
        return None;
    }
    let attr = varying[0].clone();
    let mut seen = BTreeSet::new();
    for m in members.iter() {
        let v = m.attrs[&attr].as_str()?;
        if !seen.insert(v.to_owned()) {
            return None; // duplicate keys
        }
    }
    // order members by key for determinism
    members.sort_by_key(|m| m.attrs[&attr].as_str().unwrap_or_default().to_owned());
    Some(GroupKind::ForEach { varying_attr: attr })
}

/// Label for a compacted group: the longest common prefix of member names,
/// cleaned up.
fn group_label(members: &[&ResourceRecord], taken: &mut BTreeSet<String>) -> String {
    let names: Vec<&str> = members
        .iter()
        .filter_map(|m| {
            m.attrs
                .get("name")
                .or_else(|| m.attrs.get("bucket"))
                .and_then(Value::as_str)
        })
        .collect();
    let base = if names.len() == members.len() && !names.is_empty() {
        let mut prefix = names[0].to_owned();
        for n in &names[1..] {
            while !n.starts_with(&prefix) && !prefix.is_empty() {
                prefix.pop();
            }
        }
        let trimmed: String = prefix
            .trim_end_matches(|c: char| c == '-' || c == '_' || c.is_ascii_digit())
            .to_owned();
        if trimmed.is_empty() {
            members[0].rtype.short_name().to_owned()
        } else {
            trimmed
        }
    } else {
        members[0].rtype.short_name().to_owned()
    };
    crate::unique(sanitize_ident(&base), taken)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_deploy::diff::{diff, Action};
    use cloudless_deploy::resolver::DataResolver;
    use cloudless_hcl::program::{expand, ModuleLibrary, Program};
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

    fn fleet(n: usize) -> Vec<ResourceRecord> {
        let mut out = vec![record(
            "vpc-0001",
            "aws_vpc",
            attrs([("cidr_block", Value::from("10.0.0.0/16"))]),
        )];
        for i in 0..n {
            out.push(record(
                &format!("vm-{i:04}"),
                "aws_virtual_machine",
                attrs([
                    ("name", Value::from(format!("web-{i}"))),
                    ("instance_type", Value::from("t3.micro")),
                ]),
            ));
        }
        out
    }

    #[test]
    fn fleet_compacts_to_count_block() {
        let records = fleet(8);
        let result = optimized_port(&records, &Catalog::standard());
        // 1 vpc block + 1 counted vm block
        assert_eq!(result.file.blocks.len(), 2);
        let vm = result
            .file
            .blocks
            .iter()
            .find(|b| b.labels[0] == "aws_virtual_machine")
            .unwrap();
        let count = vm.body.attr("count").expect("count meta-arg");
        assert!(matches!(count.value, Expr::Num(n, _) if n == 8.0));
        // name templated with count.index
        let name = vm.body.attr("name").unwrap();
        let rendered = cloudless_hcl::render::render_expr(&name.value);
        assert_eq!(rendered, r#""web-${count.index}""#);
        // addresses assigned per index
        assert_eq!(
            result.address_of[&ResourceId::new("vm-0003")].to_string(),
            "aws_virtual_machine.web[3]"
        );
    }

    #[test]
    fn references_recovered_as_expressions() {
        let records = vec![
            record(
                "vpc-1",
                "aws_vpc",
                attrs([("cidr_block", Value::from("10.0.0.0/16"))]),
            ),
            record(
                "sn-1",
                "aws_subnet",
                attrs([
                    ("vpc_id", Value::from("vpc-1")),
                    ("cidr_block", Value::from("10.0.1.0/24")),
                ]),
            ),
        ];
        let result = optimized_port(&records, &Catalog::standard());
        let subnet = result
            .file
            .blocks
            .iter()
            .find(|b| b.labels[0] == "aws_subnet")
            .unwrap();
        let vpc_id = subnet.body.attr("vpc_id").unwrap();
        let rendered = cloudless_hcl::render::render_expr(&vpc_id.value);
        assert!(rendered.ends_with(".id"), "{rendered}");
        assert!(rendered.starts_with("aws_vpc."), "{rendered}");
    }

    #[test]
    fn references_into_counted_groups_are_indexed() {
        let mut records = fleet(2);
        records.push(record(
            "lb-1",
            "aws_load_balancer",
            attrs([
                ("name", Value::from("lb")),
                ("target_ids", Value::from(vec!["vm-0000", "vm-0001"])),
            ]),
        ));
        let result = optimized_port(&records, &Catalog::standard());
        let lb = result
            .file
            .blocks
            .iter()
            .find(|b| b.labels[0] == "aws_load_balancer")
            .unwrap();
        let targets = lb.body.attr("target_ids").unwrap();
        let rendered = cloudless_hcl::render::render_expr(&targets.value);
        assert!(rendered.contains("[0].id"), "{rendered}");
        assert!(rendered.contains("[1].id"), "{rendered}");
    }

    #[test]
    fn heterogeneous_records_stay_separate() {
        let records = vec![
            record(
                "vm-1",
                "aws_virtual_machine",
                attrs([
                    ("name", Value::from("web")),
                    ("instance_type", Value::from("t3.micro")),
                ]),
            ),
            record(
                "vm-2",
                "aws_virtual_machine",
                attrs([
                    ("name", Value::from("db")),
                    ("instance_type", Value::from("m5.large")),
                ]),
            ),
        ];
        let result = optimized_port(&records, &Catalog::standard());
        assert_eq!(result.file.blocks.len(), 2);
        assert!(result
            .file
            .blocks
            .iter()
            .all(|b| b.body.attr("count").is_none()));
    }

    #[test]
    fn for_each_compaction_on_free_variation() {
        // names vary without a numeric index pattern
        let records = vec![
            record(
                "b-1",
                "aws_s3_bucket",
                attrs([("bucket", Value::from("logs"))]),
            ),
            record(
                "b-2",
                "aws_s3_bucket",
                attrs([("bucket", Value::from("media"))]),
            ),
            record(
                "b-3",
                "aws_s3_bucket",
                attrs([("bucket", Value::from("backups"))]),
            ),
        ];
        let result = optimized_port(&records, &Catalog::standard());
        assert_eq!(result.file.blocks.len(), 1);
        let b = &result.file.blocks[0];
        assert!(b.body.attr("for_each").is_some());
        let bucket = b.body.attr("bucket").unwrap();
        assert_eq!(
            cloudless_hcl::render::render_expr(&bucket.value),
            "each.key"
        );
        assert_eq!(
            result.address_of[&ResourceId::new("b-2")].to_string(),
            "aws_s3_bucket.r[\"media\"]".replace("r", &b.labels[1])
        );
    }

    /// The defining test: the optimized program must round-trip.
    #[test]
    fn round_trip_fidelity() {
        let mut records = fleet(5);
        records.push(record(
            "sn-1",
            "aws_subnet",
            attrs([
                ("vpc_id", Value::from("vpc-0001")),
                ("cidr_block", Value::from("10.0.1.0/24")),
            ]),
        ));
        let catalog = Catalog::standard();
        let result = optimized_port(&records, &catalog);
        let text = cloudless_hcl::render_file(&result.file);
        // 1. generated text parses and expands
        let program = Program::from_file(cloudless_hcl::parse(&text, "imported.tf").unwrap())
            .unwrap_or_else(|e| panic!("analyze: {e}\n{text}"));
        let manifest = expand(
            &program,
            &BTreeMap::new(),
            &ModuleLibrary::new(),
            &DataResolver::new(),
        )
        .unwrap_or_else(|e| panic!("expand: {e}\n{text}"));
        assert_eq!(manifest.instances.len(), records.len());
        // 2. seed a state snapshot via the returned address mapping
        let mut state = Snapshot::new();
        for r in &records {
            let addr = result.address_of[&r.id].clone();
            state.put(DeployedResource {
                rtype: r.rtype.clone(),
                id: r.id.clone(),
                region: r.region.clone(),
                attrs: r.attrs.clone(),
                depends_on: vec![],
                created_at: SimTime::ZERO,
                addr,
            });
        }
        // 3. diff must be all no-ops — the program faithfully describes the
        //    imported infrastructure
        let changes = diff(&manifest, &state, &catalog, &DataResolver::new());
        for c in &changes {
            assert_eq!(c.action, Action::NoOp, "{}: {:?}", c.addr, c.action);
        }
    }

    #[test]
    fn group_label_from_common_prefix() {
        let records = fleet(3);
        let result = optimized_port(&records, &Catalog::standard());
        let vm = result
            .file
            .blocks
            .iter()
            .find(|b| b.labels[0] == "aws_virtual_machine")
            .unwrap();
        assert_eq!(vm.labels[1], "web");
    }
}
