//! Aliasing analysis: identity-claim resolution over expanded instances.
//!
//! The block-level write-write pass (ANA402) can only see identities that
//! fold to constants *before* expansion — `name = "x-${count.index}"` is
//! `Unknown` there, so collisions introduced by `count`/`for_each` key
//! spaces or module instantiation are invisible to it. Expansion is the
//! constant-folding this pass inherits: every instance's identity
//! attribute is evaluated under its concrete `count.index`/`each` binding,
//! so claims here are exact strings and collision detection is a hash
//! join, O(V) over instances.
//!
//! Identities that stay deferred (they read another resource's computed
//! attribute) are unknowable until apply — a documented false-negative
//! class; see DESIGN.md. Everything known at plan time is covered.

use std::borrow::Cow;
use std::collections::BTreeMap;

use cloudless_hcl::program::{Manifest, ResourceInstance};
use cloudless_types::Value;

use crate::concurrency::addr_str;
use crate::hazards::IDENTITY_ATTRS;
use crate::report::Sink;

/// One cloud-side object identity: `(resource type, identity attribute,
/// claimed value)`, borrowed from the instance or block that claims it (a
/// block's value is the fold of an expression, which it owns).
pub type ClaimKey<'a> = (&'a str, &'static str, Cow<'a, str>);

/// The alias index the lock-order pass consumes: every claim key held by
/// more than one instance, with its holders in manifest order.
#[derive(Debug, Default)]
pub struct AliasIndex<'m> {
    /// Colliding keys only — clean programs produce an empty map.
    pub collisions: BTreeMap<ClaimKey<'m>, Vec<usize>>,
}

/// The identity claims of one expanded instance. Plan-time-known values
/// only; deferred identities claim nothing (documented false negative).
pub fn instance_claims(inst: &ResourceInstance) -> impl Iterator<Item = ClaimKey<'_>> {
    let rtype = inst.addr.rtype.as_str();
    IDENTITY_ATTRS
        .iter()
        .filter_map(move |attr| match inst.attrs.get(*attr) {
            Some(Value::Str(s)) => Some((rtype, *attr, Cow::Borrowed(s.as_str()))),
            _ => None,
        })
}

/// The ANA504 shape: a `create_before_destroy` instance whose identity is
/// known at plan time. Returns the pinned claim; `None` for instances
/// without the flag or with a deferred (per-generation) identity.
pub fn replace_self_race(inst: &ResourceInstance) -> Option<ClaimKey<'_>> {
    if !inst.lifecycle.create_before_destroy {
        return None;
    }
    instance_claims(inst).next()
}

/// ANA502 — two instances resolving to the same cloud object. One finding
/// per colliding key, localized on the second claimant.
pub(crate) fn pass_alias<'m>(manifest: &'m Manifest, sink: &mut Sink<'_>) -> AliasIndex<'m> {
    let mut claims: Vec<(ClaimKey<'m>, usize)> = Vec::new();
    for (i, inst) in manifest.instances.iter().enumerate() {
        claims.extend(instance_claims(inst).map(|key| (key, i)));
    }
    // stable: the holders of a key stay in manifest order
    claims.sort_by(|(a, _), (b, _)| a.cmp(b));
    let mut index = AliasIndex::default();
    for colliding in claims.chunk_by(|(a, _), (b, _)| a == b) {
        let [(key, _), _, ..] = colliding else {
            continue;
        };
        let holders: Vec<usize> = colliding.iter().map(|&(_, i)| i).collect();
        let (rtype, attr, value) = key;
        let names: Vec<String> = holders
            .iter()
            .take(3)
            .map(|&i| addr_str(&manifest.instances[i]))
            .collect();
        let more = holders.len().saturating_sub(3);
        let listed = if more > 0 {
            format!("{} and {more} more", names.join(", "))
        } else {
            names.join(", ")
        };
        let second = &manifest.instances[holders[1]];
        let span = second.attr_spans.get(*attr).copied().unwrap_or(second.span);
        sink.emit(
            "ANA502",
            &second.file,
            span,
            format!(
                "{listed} all resolve to the same cloud object ({rtype} with {attr} = {value:?}); a parallel apply is a write-write race on one object",
            ),
            Some("give each instance a distinct identity (interpolate the count/for_each key)"),
        );
        index.collisions.insert(key.clone(), holders);
    }
    index
}

/// ANA504 — replace self-race: a `create_before_destroy` instance whose
/// identity is known at plan time will, on every replace, create the new
/// object under the *same* identity its doomed predecessor still holds —
/// the create and the delete race on one cloud object.
///
/// The safe `create_before_destroy` pattern computes a fresh identity per
/// generation (the attribute stays deferred); those instances are skipped.
/// Reported once per block.
pub(crate) fn pass_replace_self_race(manifest: &Manifest, sink: &mut Sink<'_>) {
    let mut seen: std::collections::BTreeSet<(&str, &str)> = std::collections::BTreeSet::new();
    for inst in &manifest.instances {
        let Some((rtype, attr, value)) = replace_self_race(inst) else {
            continue;
        };
        if !seen.insert((rtype, &inst.addr.name)) {
            continue;
        }
        let span = inst.attr_spans.get(attr).copied().unwrap_or(inst.span);
        sink.emit(
            "ANA504",
            &inst.file,
            span,
            format!(
                "{} uses create_before_destroy with a plan-time-constant identity ({attr} = {value:?}); every replace races its own predecessor on the same cloud object",
                addr_str(inst),
            ),
            Some("derive the identity from something that changes per generation, or drop create_before_destroy"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrency::analyze_manifest;
    use crate::rules::LintConfig;
    use cloudless_hcl::program::ModuleLibrary;

    fn manifest(src: &str) -> Manifest {
        let p = cloudless_hcl::load(src, "main.tf").expect("parses");
        cloudless_hcl::program::expand(
            &p,
            &std::collections::BTreeMap::new(),
            &ModuleLibrary::new(),
            &cloudless_hcl::eval::DeferAll,
        )
        .expect("expands")
    }

    fn codes(m: &Manifest) -> Vec<String> {
        analyze_manifest(m, &LintConfig::default(), None)
            .report
            .findings
            .iter()
            .map(|f| f.diagnostic.code.clone())
            .collect()
    }

    #[test]
    fn count_expansion_collision_is_caught() {
        // Block-level ANA402 cannot see this: "web-${count.index}" does
        // not fold without a binding. Expansion makes it exact.
        let m = manifest(
            r#"
            resource "aws_virtual_machine" "fleet" {
              count = 3
              name  = "web-${count.index}"
            }
            resource "aws_virtual_machine" "solo" { name = "web-1" }
            "#,
        );
        let c = codes(&m);
        assert_eq!(c.iter().filter(|x| *x == "ANA502").count(), 1, "{c:?}");
    }

    #[test]
    fn for_each_key_collision_is_caught() {
        let m = manifest(
            r#"
            resource "aws_virtual_machine" "a" {
              for_each = ["x", "y"]
              name     = "svc-${each.key}"
            }
            resource "aws_virtual_machine" "b" {
              for_each = ["y", "z"]
              name     = "svc-${each.key}"
            }
            "#,
        );
        let c = codes(&m);
        assert_eq!(c.iter().filter(|x| *x == "ANA502").count(), 1, "{c:?}");
    }

    #[test]
    fn distinct_identities_are_clean() {
        let m = manifest(
            r#"
            resource "aws_virtual_machine" "fleet" {
              count = 4
              name  = "web-${count.index}"
            }
            resource "aws_virtual_machine" "solo" { name = "web-main" }
            "#,
        );
        assert!(codes(&m).is_empty(), "{:?}", codes(&m));
    }

    #[test]
    fn cbd_constant_identity_warns_once_per_block() {
        let m = manifest(
            r#"
            resource "aws_virtual_machine" "pinned" {
              count = 2
              name  = "pin-${count.index}"
              lifecycle { create_before_destroy = true }
            }
            "#,
        );
        let c = codes(&m);
        assert_eq!(c.iter().filter(|x| *x == "ANA504").count(), 1, "{c:?}");
    }

    #[test]
    fn cbd_with_deferred_identity_is_clean() {
        let m = manifest(
            r#"
            resource "aws_network" "net" { name = "net" cidr_block = "10.0.0.0/16" }
            resource "aws_virtual_machine" "rotating" {
              name = "web-${aws_network.net.id}"
              lifecycle { create_before_destroy = true }
            }
            "#,
        );
        assert!(codes(&m).is_empty(), "{:?}", codes(&m));
    }
}
