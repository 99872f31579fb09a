//! The synthesizer and its unguided baseline.
//!
//! The guided pipeline decomposes the intent into component elements
//! (§3.1's proposal): a *dependency closure* over the catalog's semantic
//! types pulls in every substrate resource a wanted type needs (a VM needs
//! a NIC, the NIC a subnet, the subnet a network …); attribute values come
//! from type-directed generators (CIDR allocator, region pinning, name
//! templates) and — when a corpus is supplied — from *retrieval* of the
//! organization's conventions (mined value domains). The result is
//! validated with `cloudless-validate`; with the feedback loop enabled, a
//! failed attempt is regenerated (fresh seed) until valid or the attempt
//! budget runs out.
//!
//! The unguided baseline models LLM-ish generation: no dependency closure,
//! plus seeded error injection (misspelled attributes, invalid regions,
//! dropped required attributes).

use std::collections::BTreeMap;

use cloudless_cloud::{AttrKind, Catalog, SemanticType};
use cloudless_hcl::ast::{Attribute, Block, BlockBody, Expr, File, Reference, TemplatePart};
use cloudless_hcl::program::{expand, ModuleLibrary, Program};
use cloudless_hcl::{render_file, sanitize_ident, value_to_expr};
use cloudless_types::{Provider, Span};
use cloudless_validate::{validate, SpecMiner, ValidationLevel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::intent::Intent;

/// Synthesis configuration (the ablation knobs of experiment E10).
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Pull in missing dependencies via semantic types.
    pub dependency_closure: bool,
    /// Validate and regenerate on failure.
    pub feedback_loop: bool,
    /// Max attempts when the feedback loop is on.
    pub max_attempts: usize,
    /// Error-injection rate (0 for the real synthesizer; >0 models
    /// hallucination in the baseline).
    pub noise: f64,
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            dependency_closure: true,
            feedback_loop: true,
            max_attempts: 5,
            noise: 0.0,
            seed: 7,
        }
    }
}

/// Outcome of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthReport {
    /// Rendered HCL source of the final attempt.
    pub source: String,
    /// Attempts used.
    pub attempts: usize,
    /// Whether the final attempt validates (CloudRules level).
    pub valid: bool,
    /// Error count of the final attempt.
    pub errors: usize,
}

/// Synthesize with the cloudless pipeline.
pub fn synthesize(
    intent: &Intent,
    catalog: &Catalog,
    corpus: Option<&SpecMiner>,
    config: &SynthConfig,
) -> SynthReport {
    let mut attempts = 0;
    let mut last = None;
    let max = if config.feedback_loop {
        config.max_attempts
    } else {
        1
    };
    while attempts < max {
        attempts += 1;
        let seed = config.seed.wrapping_add(attempts as u64 * 7919);
        let file = generate(intent, catalog, corpus, config, seed);
        let source = render_file(&file);
        let (valid, errors) = check(&source, catalog);
        let report = SynthReport {
            source,
            attempts,
            valid,
            errors,
        };
        if valid {
            return report;
        }
        last = Some(report);
    }
    last.expect("at least one attempt")
}

/// The unguided baseline: no closure, no loop, hallucination noise.
pub fn unguided_baseline(intent: &Intent, catalog: &Catalog, noise: f64, seed: u64) -> SynthReport {
    let config = SynthConfig {
        dependency_closure: false,
        feedback_loop: false,
        max_attempts: 1,
        noise,
        seed,
    };
    synthesize(intent, catalog, None, &config)
}

fn check(source: &str, catalog: &Catalog) -> (bool, usize) {
    let Ok(file) = cloudless_hcl::parse(source, "synth.tf") else {
        return (false, 1);
    };
    let Ok(program) = Program::from_file(file) else {
        return (false, 1);
    };
    let Ok(manifest) = expand(
        &program,
        &BTreeMap::new(),
        &ModuleLibrary::new(),
        &cloudless_hcl::eval::DeferAll,
    ) else {
        return (false, 1);
    };
    let report = validate(&manifest, catalog, ValidationLevel::CloudRules, None);
    (report.ok(), report.error_count())
}

/// One planned block before rendering.
struct PlannedBlock {
    rtype: String,
    label: String,
    count: usize,
    /// Explicit attr expressions set so far.
    attrs: BTreeMap<String, Expr>,
}

fn generate(
    intent: &Intent,
    catalog: &Catalog,
    corpus: Option<&SpecMiner>,
    config: &SynthConfig,
    seed: u64,
) -> File {
    let sp = Span::synthetic();
    let mut rng = StdRng::seed_from_u64(seed);
    // label → planned block; BTreeMap for deterministic output
    let mut planned: Vec<PlannedBlock> = Vec::new();
    let mut label_of_type: BTreeMap<String, String> = BTreeMap::new();
    let mut cidr_counter = 0u32;

    // retrieval: (rtype, attr) → conventional value
    let conventions: BTreeMap<(String, String), String> = corpus
        .map(|m| {
            m.specs()
                .iter()
                .filter_map(|s| match s {
                    cloudless_validate::MinedSpec::ValueDomain {
                        rtype,
                        attr,
                        domain,
                        ..
                    } => {
                        let key = (rtype.clone(), attr.clone());
                        domain.first().map(|v| (key, v.clone()))
                    }
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default();

    // worklist: (rtype, count, hint, overrides). A type is planned at most
    // once; its label is fixed the first time anyone *requests* it, so every
    // later reference resolves to the same block (two resources sharing a
    // dependency type must not mint two labels — that dangles).
    let mut worklist: Vec<(String, usize, String, cloudless_types::Attrs)> = Vec::new();
    for w in intent.resources.iter().rev() {
        if !label_of_type.contains_key(&w.rtype) {
            label_of_type.insert(w.rtype.clone(), sanitize_ident(&w.name_hint));
            worklist.push((
                w.rtype.clone(),
                w.count,
                w.name_hint.clone(),
                w.overrides.clone(),
            ));
        }
    }

    // request a dependency: returns the label to reference, enqueueing the
    // type if it is not planned yet
    fn request_dep(
        label_of_type: &mut BTreeMap<String, String>,
        worklist: &mut Vec<(String, usize, String, cloudless_types::Attrs)>,
        rtype: &str,
        count: usize,
        hint: &str,
    ) -> String {
        if let Some(label) = label_of_type.get(rtype) {
            return label.clone();
        }
        let label = sanitize_ident(hint);
        label_of_type.insert(rtype.to_owned(), label.clone());
        worklist.push((rtype.to_owned(), count, hint.to_owned(), Default::default()));
        label
    }

    while let Some((rtype, count, hint, overrides)) = worklist.pop() {
        let label = label_of_type
            .get(&rtype)
            .cloned()
            .unwrap_or_else(|| sanitize_ident(&hint));
        let Some(schema) = catalog.get_str(&rtype) else {
            // unknown type requested: emit as-is; validation will flag it
            planned.push(PlannedBlock {
                rtype,
                label,
                count,
                attrs: overrides
                    .iter()
                    .map(|(k, v)| (k.clone(), value_to_expr(v)))
                    .collect(),
            });
            continue;
        };
        let mut attrs: BTreeMap<String, Expr> = overrides
            .iter()
            .map(|(k, v)| (k.clone(), value_to_expr(v)))
            .collect();
        let provider = schema.provider;
        let region = intent.region_for(provider);

        for a in schema.required_attrs() {
            if attrs.contains_key(&a.name) {
                continue;
            }
            // hallucination: drop a required attribute
            if config.noise > 0.0 && rng.gen_bool(config.noise) {
                continue;
            }
            let expr = match &a.semantic {
                SemanticType::Name => name_expr(&hint, count, sp),
                SemanticType::Region => {
                    let r = if config.noise > 0.0 && rng.gen_bool(config.noise) {
                        // hallucination: a region from the wrong provider
                        wrong_region(provider)
                    } else {
                        region.as_str().to_owned()
                    };
                    str_expr(&r, sp)
                }
                SemanticType::Cidr => {
                    cidr_counter += 1;
                    str_expr(&format!("10.{cidr_counter}.0.0/16"), sp)
                }
                SemanticType::RefTo(target) => {
                    if config.dependency_closure {
                        let dep_label = request_dep(
                            &mut label_of_type,
                            &mut worklist,
                            target.as_str(),
                            1,
                            &format!("{hint}_{}", target.short_name()),
                        );
                        ref_expr(target.as_str(), &dep_label, None, sp)
                    } else {
                        // baseline: hardcoded guess
                        str_expr(&format!("{}-0001", target.short_name()), sp)
                    }
                }
                SemanticType::ListOfRefs(target) => {
                    if config.dependency_closure {
                        let dep_label = request_dep(
                            &mut label_of_type,
                            &mut worklist,
                            target.as_str(),
                            count,
                            &format!("{hint}_{}", target.short_name()),
                        );
                        let indexed = if count > 1 {
                            Some(Expr::Ref(Reference::new(["count", "index"]), sp))
                        } else {
                            None
                        };
                        Expr::List(vec![ref_expr(target.as_str(), &dep_label, indexed, sp)], sp)
                    } else {
                        Expr::List(
                            vec![str_expr(&format!("{}-0001", target.short_name()), sp)],
                            sp,
                        )
                    }
                }
                _ => default_for_kind(a.kind, sp),
            };
            let mut attr_name = a.name.clone();
            // hallucination: misspell the attribute name
            if config.noise > 0.0 && rng.gen_bool(config.noise) {
                attr_name = misspell(&attr_name);
            }
            attrs.insert(attr_name, expr);
        }

        // retrieval: conventions for optional attributes
        for ((rt, attr_name), v) in &conventions {
            let settable = schema.settable(attr_name);
            if rt == &rtype
                && !attrs.contains_key(attr_name)
                && settable.is_some_and(|a| a.kind == AttrKind::Str)
            {
                attrs.insert(attr_name.clone(), str_expr(v, sp));
            }
        }

        // cloud-specific hygiene the guided path knows about (§3.2 rules):
        // setting a password requires the explicit opt-out flag
        if attrs.contains_key("admin_password")
            && schema.attr("disable_password_authentication").is_some()
            && config.noise == 0.0
        {
            attrs.insert(
                "disable_password_authentication".to_owned(),
                Expr::Bool(false, sp),
            );
        }

        planned.push(PlannedBlock {
            rtype,
            label,
            count,
            attrs,
        });
    }

    // containment hygiene: child CIDRs inside their parent (guided only)
    if config.noise == 0.0 {
        fix_cidr_containment(&mut planned, catalog);
    }

    // dependencies before dependents (reverse of discovery order is close
    // enough: worklist pushed deps later, so reverse puts them first)
    planned.reverse();

    let blocks = planned
        .into_iter()
        .map(|p| {
            let mut body_attrs = Vec::new();
            if p.count > 1 {
                body_attrs.push(Attribute {
                    name: "count".to_owned(),
                    value: Expr::Num(p.count as f64, sp),
                    span: sp,
                });
            }
            for (name, value) in p.attrs {
                body_attrs.push(Attribute {
                    name,
                    value,
                    span: sp,
                });
            }
            Block {
                kind: "resource".to_owned(),
                labels: vec![p.rtype, p.label],
                body: BlockBody {
                    attrs: body_attrs,
                    blocks: vec![],
                },
                span: sp,
            }
        })
        .collect();

    File {
        filename: "synth.tf".to_owned(),
        blocks,
    }
}

/// Subnet-ish types must nest their CIDR inside the parent's: rewrite the
/// child attr as a literal sub-range of the parent's literal.
fn fix_cidr_containment(planned: &mut [PlannedBlock], catalog: &Catalog) {
    // parent label → cidr literal
    let mut parent_cidr: BTreeMap<String, String> = BTreeMap::new();
    for p in planned.iter() {
        for attr in ["cidr_block", "address_space"] {
            if let Some(Expr::Str(parts, _)) = p.attrs.get(attr) {
                if let [TemplatePart::Lit(s)] = parts.as_slice() {
                    parent_cidr.insert(format!("{}.{}", p.rtype, p.label), s.clone());
                }
            }
        }
    }
    for p in planned.iter_mut() {
        let (parent_attr, own_attr) = match p.rtype.as_str() {
            "aws_subnet" => ("vpc_id", "cidr_block"),
            "azure_subnet" => ("vnet_id", "address_prefix"),
            "gcp_subnetwork" => ("network_id", "ip_cidr_range"),
            _ => continue,
        };
        let Some(parent_ref) = p.attrs.get(parent_attr) else {
            continue;
        };
        // extract `type.label` from the reference expression
        let parent_key = match parent_ref {
            Expr::GetAttr(base, _, _) => match base.as_ref() {
                Expr::Ref(r, _) if r.parts.len() >= 2 => {
                    Some(format!("{}.{}", r.parts[0], r.parts[1]))
                }
                _ => None,
            },
            _ => None,
        };
        let Some(parent_key) = parent_key else {
            continue;
        };
        if let Some(cidr) = parent_cidr.get(&parent_key) {
            if let Ok(parent) = cidr.parse::<cloudless_types::cidr::Cidr>() {
                if let Ok(sub) = parent.subnet(8, 1) {
                    p.attrs.insert(
                        own_attr.to_owned(),
                        str_expr(&sub.to_string(), Span::synthetic()),
                    );
                }
            }
        }
    }
    let _ = catalog;
}

fn str_expr(s: &str, sp: Span) -> Expr {
    Expr::Str(vec![TemplatePart::Lit(s.to_owned())], sp)
}

fn name_expr(hint: &str, count: usize, sp: Span) -> Expr {
    if count > 1 {
        Expr::Str(
            vec![
                TemplatePart::Lit(format!("{hint}-")),
                TemplatePart::Interp(Expr::Ref(Reference::new(["count", "index"]), sp)),
            ],
            sp,
        )
    } else {
        str_expr(hint, sp)
    }
}

fn ref_expr(rtype: &str, label: &str, index: Option<Expr>, sp: Span) -> Expr {
    let base = Expr::Ref(Reference::new([rtype, label]), sp);
    let indexed = match index {
        Some(i) => Expr::Index(Box::new(base), Box::new(i), sp),
        None => base,
    };
    Expr::GetAttr(Box::new(indexed), "id".to_owned(), sp)
}

fn default_for_kind(kind: AttrKind, sp: Span) -> Expr {
    match kind {
        AttrKind::Str => str_expr("default", sp),
        AttrKind::Num => Expr::Num(1.0, sp),
        AttrKind::Bool => Expr::Bool(false, sp),
        AttrKind::List => Expr::List(vec![], sp),
        AttrKind::Map => Expr::Map(vec![], sp),
    }
}

fn wrong_region(p: Provider) -> String {
    // a real region — of a different provider
    let other = match p {
        Provider::Aws => Provider::Azure,
        Provider::Azure => Provider::Gcp,
        Provider::Gcp => Provider::Aws,
    };
    other.default_region().as_str().to_owned()
}

fn misspell(name: &str) -> String {
    // swap two adjacent characters (classic typo)
    let mut chars: Vec<char> = name.chars().collect();
    if chars.len() >= 2 {
        let mid = chars.len() / 2;
        chars.swap(mid - 1, mid);
    }
    chars.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intent::WantedResource;
    use cloudless_types::Value;

    fn catalog() -> Catalog {
        Catalog::standard()
    }

    #[test]
    fn guided_vm_intent_is_valid_first_try() {
        let intent = Intent::new(vec![WantedResource::new("azure_virtual_machine", 2, "web")])
            .in_region("westeurope");
        let r = synthesize(&intent, &catalog(), None, &SynthConfig::default());
        assert!(r.valid, "errors in:\n{}", r.source);
        assert_eq!(r.attempts, 1);
        // dependency closure pulled in NICs
        assert!(r.source.contains("azure_network_interface"), "{}", r.source);
        // counted fleet uses count + count.index
        assert!(r.source.contains("count"), "{}", r.source);
    }

    #[test]
    fn guided_subnet_closure_and_containment() {
        let intent = Intent::new(vec![WantedResource::new("aws_subnet", 1, "app")]);
        let r = synthesize(&intent, &catalog(), None, &SynthConfig::default());
        assert!(r.valid, "errors in:\n{}", r.source);
        // pulled in the VPC and nested the subnet CIDR inside it
        assert!(r.source.contains("aws_vpc"), "{}", r.source);
    }

    #[test]
    fn unguided_baseline_fails_often() {
        let intent = Intent::new(vec![WantedResource::new("azure_virtual_machine", 1, "web")]);
        let mut invalid = 0;
        const RUNS: usize = 20;
        for seed in 0..RUNS as u64 {
            let r = unguided_baseline(&intent, &catalog(), 0.3, seed);
            if !r.valid {
                invalid += 1;
            }
        }
        // with 30% hallucination + no closure, most runs are invalid
        assert!(invalid >= RUNS / 2, "only {invalid}/{RUNS} invalid");
    }

    #[test]
    fn feedback_loop_rescues_noisy_generation() {
        let intent = Intent::new(vec![WantedResource::new("aws_vpc", 1, "main")]);
        let config = SynthConfig {
            noise: 0.5,
            feedback_loop: true,
            max_attempts: 30,
            ..SynthConfig::default()
        };
        let r = synthesize(&intent, &catalog(), None, &config);
        assert!(r.valid, "loop should eventually produce a valid program");
        assert!(r.attempts >= 1);
    }

    #[test]
    fn retrieval_applies_conventions() {
        use cloudless_hcl::program::{expand, ModuleLibrary, Program};
        // corpus where every VM is a t3.micro
        let mut miner = SpecMiner::with_min_support(3);
        for i in 0..4 {
            let src = format!(
                r#"resource "aws_virtual_machine" "w" {{ name = "w{i}" instance_type = "t3.micro" }}"#
            );
            let p = Program::from_file(cloudless_hcl::parse(&src, "t").unwrap()).unwrap();
            let m = expand(
                &p,
                &BTreeMap::new(),
                &ModuleLibrary::new(),
                &cloudless_hcl::eval::DeferAll,
            )
            .unwrap();
            miner.observe(&m);
        }
        let intent = Intent::new(vec![WantedResource::new("aws_virtual_machine", 1, "api")]);
        let with = synthesize(&intent, &catalog(), Some(&miner), &SynthConfig::default());
        assert!(with.source.contains("t3.micro"), "{}", with.source);
        let without = synthesize(&intent, &catalog(), None, &SynthConfig::default());
        assert!(!without.source.contains("t3.micro"));
    }

    #[test]
    fn overrides_survive() {
        let intent = Intent::new(vec![WantedResource::new("aws_s3_bucket", 1, "logs")
            .with_attr("versioning", Value::Bool(true))]);
        let r = synthesize(&intent, &catalog(), None, &SynthConfig::default());
        assert!(r.valid);
        assert!(r.source.contains("versioning = true"), "{}", r.source);
    }

    #[test]
    fn a_hint_with_a_leading_digit_makes_labels_that_lex() {
        let intent = Intent::new(vec![WantedResource::new("aws_subnet", 1, "3tier")]);
        let r = synthesize(&intent, &catalog(), None, &SynthConfig::default());
        assert!(r.valid, "errors in:\n{}", r.source);
        assert!(r.source.contains("aws_vpc.r3tier_vpc.id"), "{}", r.source);
    }

    #[test]
    fn a_map_key_that_is_no_identifier_is_quoted() {
        let tags = Value::Map([("kubernetes.io/role".to_owned(), Value::from("node"))].into());
        let intent = Intent::new(vec![
            WantedResource::new("aws_s3_bucket", 1, "logs").with_attr("tags", tags)
        ]);
        let r = synthesize(&intent, &catalog(), None, &SynthConfig::default());
        assert!(r.valid, "errors in:\n{}", r.source);
        assert!(
            r.source.contains(r#""kubernetes.io/role" = "node""#),
            "{}",
            r.source
        );
    }

    #[test]
    fn shared_dependency_gets_one_block() {
        // regression: SQL database and storage account both require an
        // azure_resource_group — the closure must mint exactly one and both
        // must reference it (two labels would leave one dangling)
        let intent = Intent::new(vec![
            WantedResource::new("azure_sql_database", 1, "appdb"),
            WantedResource::new("azure_storage_account", 1, "assets"),
        ])
        .in_region("westeurope");
        let r = synthesize(&intent, &catalog(), None, &SynthConfig::default());
        assert!(r.valid, "errors in:\n{}", r.source);
        assert_eq!(r.attempts, 1);
        let rg_blocks = r
            .source
            .matches("resource \"azure_resource_group\"")
            .count();
        assert_eq!(rg_blocks, 1, "exactly one resource group:\n{}", r.source);
    }

    #[test]
    fn determinism() {
        let intent = Intent::new(vec![WantedResource::new(
            "gcp_compute_instance",
            3,
            "worker",
        )]);
        let a = synthesize(&intent, &catalog(), None, &SynthConfig::default());
        let b = synthesize(&intent, &catalog(), None, &SynthConfig::default());
        assert_eq!(a.source, b.source);
    }
}
