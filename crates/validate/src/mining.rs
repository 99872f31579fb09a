//! Layer 4: specification mining from a deployment corpus.
//!
//! §3.2 points at "domain-specific customization to existing techniques such
//! as specification mining" (citing Encore/association-rule learning) as the
//! way to keep validation current as clouds evolve. [`SpecMiner`] learns two
//! classes of specs from a corpus of *successfully deployed* manifests:
//!
//! * **value specs** — for a `(type, attribute)` pair whose observed values
//!   concentrate in a small set (`support ≥ min_support`, distinct values ≤
//!   `max_domain`), a new program using a never-seen value gets a warning;
//! * **presence specs** — attributes set in ≥ `presence_threshold` of
//!   observed instances of a type are expected; omitting one gets a note.
//!
//! These are advisory (warnings/notes, never errors): mined conventions are
//! heuristics, not ground truth — which is also why the policy engine's
//! outlier detection (§3.6) reuses this module's machinery.

use std::borrow::Cow;
use std::collections::BTreeMap;

use cloudless_hcl::program::{Manifest, ResourceInstance};
use cloudless_hcl::{Diagnostic, Diagnostics};
use cloudless_types::{PairMap, Value};
use serde::{Deserialize, Serialize};

/// One mined specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MinedSpec {
    /// `(rtype, attr)` values concentrate in `domain`.
    ValueDomain {
        rtype: String,
        attr: String,
        domain: Vec<String>,
        support: usize,
    },
    /// `(rtype, attr)` is present in `fraction` of observed instances.
    UsuallyPresent {
        rtype: String,
        attr: String,
        fraction: f64,
        support: usize,
    },
}

impl MinedSpec {
    /// What of the spec decides *whether* an instance draws a finding: the
    /// `(type, attribute)` pair and, for a value spec, the domain. Support
    /// and fraction only word the message, and they move with every
    /// observation, where the rule rarely does.
    pub fn rule(&self) -> (&str, &str, Option<&[String]>) {
        match self {
            MinedSpec::ValueDomain {
                rtype,
                attr,
                domain,
                ..
            } => (rtype, attr, Some(domain)),
            MinedSpec::UsuallyPresent { rtype, attr, .. } => (rtype, attr, None),
        }
    }
}

/// What the corpus says about one `(type, attribute)` pair.
#[derive(Debug, Clone, Default)]
struct AttrStats {
    /// Instances setting the attribute.
    set: usize,
    /// Scalar value → count. The domain stops taking new values one past
    /// `max_domain`, where it can no longer become a spec.
    values: BTreeMap<String, usize>,
}

impl AttrStats {
    fn count(&mut self, value: &Value, max_domain: usize) {
        self.set += 1;
        // only scalar values participate in value-domain mining
        let seen = match value {
            Value::Str(s) => s.as_str(),
            Value::Bool(true) => "true",
            Value::Bool(false) => "false",
            _ => return,
        };
        let open = self.values.len() <= max_domain;
        match self.values.get_mut(seen) {
            Some(n) => *n += 1,
            None if open => drop(self.values.insert(seen.to_owned(), 1)),
            None => {}
        }
    }
}

/// Association miner over manifests.
#[derive(Debug, Clone)]
pub struct SpecMiner {
    /// Minimum observations of a `(type, attr)` before mining a spec.
    min_support: usize,
    /// Maximum distinct values for a value-domain spec.
    max_domain: usize,
    /// Presence fraction above which an attribute is "expected".
    presence_threshold: f64,
    /// (rtype, attr) → what was observed of it
    attrs: PairMap<AttrStats>,
    /// rtype → instances observed
    instances: BTreeMap<String, usize>,
    /// The specs the corpus supports, mined once per [`SpecMiner::observe`].
    specs: Vec<MinedSpec>,
}

impl Default for SpecMiner {
    fn default() -> Self {
        SpecMiner {
            min_support: 5,
            max_domain: 4,
            presence_threshold: 0.9,
            attrs: PairMap::new(),
            instances: BTreeMap::new(),
            specs: Vec::new(),
        }
    }
}

impl SpecMiner {
    pub fn new() -> Self {
        Self::default()
    }

    /// A miner with a custom minimum support (other thresholds default).
    pub fn with_min_support(min_support: usize) -> Self {
        SpecMiner {
            min_support,
            ..Self::default()
        }
    }

    /// Feed one successfully-deployed manifest into the corpus. Every
    /// counter is looked up by borrowed names; a name is copied the first
    /// time it is seen.
    pub fn observe(&mut self, manifest: &Manifest) {
        for inst in &manifest.instances {
            let rtype = inst.addr.rtype.as_str();
            match self.instances.get_mut(rtype) {
                Some(n) => *n += 1,
                None => drop(self.instances.insert(rtype.to_owned(), 1)),
            }
            for (attr, value) in &inst.attrs {
                if value.is_null() {
                    continue;
                }
                match self.attrs.get_mut(rtype, attr) {
                    Some(stats) => stats.count(value, self.max_domain),
                    None => {
                        let mut stats = AttrStats::default();
                        stats.count(value, self.max_domain);
                        self.attrs.insert(rtype, attr, stats);
                    }
                }
            }
        }
        self.specs = self.mine();
    }

    /// The mined specs: value specs, then presence specs, each in
    /// `(type, attribute)` order.
    pub fn specs(&self) -> &[MinedSpec] {
        &self.specs
    }

    fn mine(&self) -> Vec<MinedSpec> {
        let mut out = Vec::new();
        for (rtype, attr, stats) in self.attrs.iter() {
            let counts = &stats.values;
            let support: usize = counts.values().sum();
            let scalar = !counts.is_empty();
            if scalar && support >= self.min_support && counts.len() <= self.max_domain {
                out.push(MinedSpec::ValueDomain {
                    rtype: rtype.to_owned(),
                    attr: attr.to_owned(),
                    domain: counts.keys().cloned().collect(),
                    support,
                });
            }
        }
        for (rtype, attr, stats) in self.attrs.iter() {
            let set_count = stats.set;
            let total = self.instances.get(rtype).copied().unwrap_or(0);
            if total >= self.min_support {
                let fraction = set_count as f64 / total as f64;
                if fraction >= self.presence_threshold && set_count < total {
                    // only interesting if not literally always present
                    out.push(MinedSpec::UsuallyPresent {
                        rtype: rtype.to_owned(),
                        attr: attr.to_owned(),
                        fraction,
                        support: total,
                    });
                } else if (fraction - 1.0).abs() < f64::EPSILON {
                    out.push(MinedSpec::UsuallyPresent {
                        rtype: rtype.to_owned(),
                        attr: attr.to_owned(),
                        fraction,
                        support: total,
                    });
                }
            }
        }
        out
    }

    /// Check a new manifest against the mined specs.
    pub fn check(&self, manifest: &Manifest) -> Diagnostics {
        let mut diags = Diagnostics::new();
        for inst in &manifest.instances {
            self.check_instance(inst, &mut diags);
        }
        diags
    }

    /// Check one instance against the mined specs. Every mined finding is a
    /// function of the instance it is reported on, so [`SpecMiner::check`]
    /// is the fold of this over the manifest.
    pub fn check_instance(&self, inst: &ResourceInstance, diags: &mut Diagnostics) {
        let rtype = inst.addr.rtype.as_str();
        for spec in &self.specs {
            match spec {
                MinedSpec::ValueDomain {
                    rtype: rt,
                    attr,
                    domain,
                    support,
                } if rt == rtype => {
                    let observed = match inst.attrs.get(attr) {
                        Some(Value::Str(s)) => Some(Cow::Borrowed(s.as_str())),
                        Some(Value::Bool(b)) => Some(Cow::Owned(b.to_string())),
                        _ => None,
                    };
                    if let Some(v) = observed {
                        if !domain.iter().any(|seen| *seen == v) {
                            let span = inst.attr_spans.get(attr).copied().unwrap_or(inst.span);
                            diags.push(
                                Diagnostic::warning(
                                    "VAL401",
                                    &inst.file,
                                    span,
                                    format!(
                                        "{}: value {v:?} for {attr:?} deviates from the {support} prior deployments (seen: {})",
                                        inst.addr,
                                        domain.join(", ")
                                    ),
                                )
                                .with_suggestion("double-check against your organization's conventions"),
                            );
                        }
                    }
                }
                MinedSpec::UsuallyPresent {
                    rtype: rt,
                    attr,
                    fraction,
                    ..
                } if rt == rtype => {
                    let present = inst.attrs.contains_key(attr)
                        || inst.deferred.iter().any(|d| &d.name == attr);
                    if !present {
                        diags.push(Diagnostic::note(
                            "VAL402",
                            &inst.file,
                            inst.span,
                            format!(
                                "{}: attribute {attr:?} is set in {:.0}% of prior {rtype} deployments but missing here",
                                inst.addr,
                                fraction * 100.0
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_hcl::eval::MapResolver;
    use cloudless_hcl::program::{expand, ModuleLibrary, Program};
    use std::collections::BTreeMap as Map;

    fn manifest(src: &str) -> Manifest {
        let p = Program::from_file(cloudless_hcl::parse(src, "main.tf").unwrap()).unwrap();
        expand(&p, &Map::new(), &ModuleLibrary::new(), &MapResolver::new()).unwrap()
    }

    fn corpus_miner() -> SpecMiner {
        let mut miner = SpecMiner::with_min_support(5);
        // 6 prior deployments, all with t3-family instances and tags set
        for i in 0..6 {
            let ty = if i % 2 == 0 { "t3.micro" } else { "t3.large" };
            miner.observe(&manifest(&format!(
                r#"
resource "aws_virtual_machine" "w" {{
  name          = "w{i}"
  instance_type = "{ty}"
  tags          = {{ env = "prod" }}
}}
"#
            )));
        }
        miner
    }

    #[test]
    fn value_domain_is_mined() {
        let miner = corpus_miner();
        let specs = miner.specs();
        assert!(specs.iter().any(|s| matches!(
            s,
            MinedSpec::ValueDomain { rtype, attr, domain, .. }
                if rtype == "aws_virtual_machine"
                    && attr == "instance_type"
                    && domain.len() == 2
        )));
    }

    #[test]
    fn deviating_value_warned() {
        let miner = corpus_miner();
        let d = miner.check(&manifest(
            r#"
resource "aws_virtual_machine" "w" {
  name          = "w"
  instance_type = "m5.24xlarge"
  tags          = { env = "prod" }
}
"#,
        ));
        assert!(d.items.iter().any(|x| x.code == "VAL401"));
        // conforming value passes
        let ok = miner.check(&manifest(
            r#"
resource "aws_virtual_machine" "w" {
  name          = "w"
  instance_type = "t3.micro"
  tags          = { env = "prod" }
}
"#,
        ));
        assert!(!ok.items.iter().any(|x| x.code == "VAL401"));
    }

    #[test]
    fn missing_usually_present_attr_noted() {
        let miner = corpus_miner();
        let d = miner.check(&manifest(
            r#"
resource "aws_virtual_machine" "w" {
  name          = "w"
  instance_type = "t3.micro"
}
"#,
        ));
        assert!(d
            .items
            .iter()
            .any(|x| x.code == "VAL402" && x.message.contains("tags")));
    }

    #[test]
    fn mined_diagnostics_are_never_errors() {
        let miner = corpus_miner();
        let d = miner.check(&manifest(
            r#"
resource "aws_virtual_machine" "w" {
  name          = "w"
  instance_type = "exotic.type"
}
"#,
        ));
        assert!(!d.has_errors());
        assert!(!d.is_empty());
    }

    #[test]
    fn small_corpus_mines_nothing() {
        let mut miner = SpecMiner::new();
        miner.observe(&manifest(
            r#"resource "aws_virtual_machine" "w" { name = "w" instance_type = "t3.micro" }"#,
        ));
        assert!(miner.specs().is_empty());
    }

    #[test]
    fn high_cardinality_attrs_are_not_domained() {
        let mut miner = SpecMiner::with_min_support(5);
        miner.max_domain = 3;
        for i in 0..8 {
            miner.observe(&manifest(&format!(
                r#"resource "aws_s3_bucket" "b" {{ bucket = "unique-{i}" }}"#
            )));
        }
        // `bucket` has 8 distinct values → no value-domain spec
        assert!(!miner
            .specs()
            .iter()
            .any(|s| matches!(s, MinedSpec::ValueDomain { attr, .. } if attr == "bucket")));
    }
}
