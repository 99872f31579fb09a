//! Reversibility-aware rollback planning.
//!
//! §3.4: "resource modifications may not be reversible in the same manner in
//! which they are performed. Simply applying a previous configuration
//! doesn't always roll back the infrastructure to its intended previous
//! state. … one viable solution is to identify resource modifications that
//! are not easily reversible, and then destroy them with a new deployment
//! from scratch. We want to minimize the amount of resource redeployment in
//! the rollback process, and also guarantee a reliable identification of
//! rollback plans before any updates are performed."
//!
//! [`plan_rollback`] does not re-apply the checkpoint's *source*: the
//! program never mentioned what a legacy script set out of band, so a
//! re-apply leaves it in place (experiment E4 measures that gap). It lifts
//! the checkpointed *state* into a desired manifest instead and hands it to
//! the planner every apply uses — [`diff`] against the live (refresh
//! first!) state, then [`Plan::build`]. The managed attributes are those a
//! program may set ([`ResourceSchema::settable`]): one the schema does not
//! declare is not the lift's to restore, and the cloud would refuse to name
//! it.
//!
//! * a managed attribute differs, none of them `force_new` → in-place
//!   update back to the checkpoint value;
//! * a managed attribute is set now and was not then → the lift carries an
//!   explicit null, which the update unsets at the cloud level;
//! * a `force_new` attribute differs, or a resource it refers to is being
//!   recreated → destroy and recreate;
//! * deleted since the checkpoint → create; created since → destroy.
//!
//! Provider ids do not survive a recreate, so an attribute that held another
//! checkpoint resource's id is lifted as a reference to that resource, not
//! as the dead id: it resolves against whatever the dependency's id is when
//! the dependent is (re)built.
//!
//! [`ResourceSchema::settable`]: cloudless_cloud::ResourceSchema::settable

use std::collections::BTreeMap;
use std::sync::Arc;

use cloudless_cloud::Catalog;
use cloudless_hcl::ast::{Expr, Reference, TemplatePart};
use cloudless_hcl::eval::Resolver;
use cloudless_hcl::program::{DeferredAttr, Manifest, OutputValue, ResourceInstance, Target};
use cloudless_state::Snapshot;
use cloudless_types::{ResourceAddr, ResourceKey, Span, Value, VecMap};

use crate::diff::{diff, Action};
use crate::plan::Plan;

/// A rollback plan: an ordinary executable [`Plan`] whose desired side is a
/// checkpoint, plus the program outputs recorded at that checkpoint.
#[derive(Debug, Clone)]
pub struct RollbackPlan {
    pub plan: Plan,
    pub outputs: BTreeMap<String, OutputValue>,
}

impl RollbackPlan {
    /// Number of cheap in-place reverts.
    pub fn reverts(&self) -> usize {
        let nodes = self.plan.graph.iter();
        nodes
            .filter(|(_, n)| matches!(n.change.action, Action::Update { .. }))
            .count()
    }

    /// Number of resources redeployed (destroyed and/or created) rather
    /// than reverted in place — the cost metric the paper wants minimized.
    pub fn redeployments(&self) -> usize {
        self.plan.len() - self.reverts()
    }
}

/// `addr.id` as an expression.
fn id_of(addr: &ResourceAddr) -> Expr {
    let sp = Span::synthetic();
    let block = Reference::new([addr.rtype.as_str(), addr.name.as_str()]);
    let block = Expr::Ref(block, sp);
    let index = match &addr.key {
        ResourceKey::None => None,
        ResourceKey::Index(i) => Some(Expr::Num(f64::from(*i), sp)),
        ResourceKey::Key(k) => Some(Expr::Str(vec![TemplatePart::Lit(k.clone())], sp)),
    };
    let instance = match index {
        Some(i) => Expr::Index(Box::new(block), Box::new(i), sp),
        None => block,
    };
    Expr::GetAttr(Box::new(instance), "id".to_owned(), sp)
}

/// A checkpoint attribute value with every id of a `checkpoint` resource
/// (those in `module` are referable) replaced by a reference to that
/// resource: a string or a list of strings, the two shapes a cloud
/// reference takes. `None` when the value names no such resource.
fn as_reference(
    v: &Value,
    checkpoint: &Snapshot,
    module: &[String],
) -> Option<(Expr, Vec<ResourceAddr>)> {
    let sp = Span::synthetic();
    let mut targets = Vec::new();
    let owner = |s: &str| checkpoint.by_id(s).map(|r| &r.addr);
    let mut lifted = |s: &str| match owner(s).filter(|a| a.module_path == module) {
        Some(addr) => {
            targets.push(addr.clone());
            id_of(addr)
        }
        None => Expr::Str(vec![TemplatePart::Lit(s.to_owned())], sp),
    };
    let expr = match v {
        Value::Str(s) => lifted(s),
        Value::List(items) => {
            let items = items.iter().map(|i| i.as_str().map(&mut lifted));
            Expr::List(items.collect::<Option<_>>()?, sp)
        }
        _ => return None,
    };
    (!targets.is_empty()).then_some((expr, targets))
}

/// Lift a checkpointed snapshot into the desired manifest that restores it
/// over `live`: per resource its managed (settable) attributes, an
/// explicit null for every managed attribute `live` carries and the
/// checkpoint does not, the recorded dependencies, and a deferred reference
/// wherever an attribute held another checkpoint resource's id.
fn lift(checkpoint: &Snapshot, live: &Snapshot, catalog: &Catalog) -> Manifest {
    // a lifted instance was declared nowhere: one empty file name and span
    // table for all of them
    let (no_file, no_spans): (Arc<str>, Arc<VecMap<String, Span>>) = Default::default();
    let instances = checkpoint.resources().values().map(|then| {
        let schema = catalog.get(&then.addr.rtype);
        let managed = |k: &String| schema.is_some_and(|s| s.settable(k).is_some());
        // attributes and dependencies gathered, then each sorted once
        let mut attrs = Vec::new();
        let mut deferred = Vec::new();
        let mut depends_on = then.depends_on.clone();
        if let Some(now) = live.get(&then.addr) {
            let set_since = |k: &&String| managed(k) && !then.attrs.contains_key(*k);
            let unset = now.attrs.keys().filter(set_since);
            attrs.extend(unset.map(|k| (k.clone(), Value::Null)));
        }
        for (name, v) in then.attrs.iter().filter(|(k, _)| managed(k)) {
            match as_reference(v, checkpoint, &then.addr.module_path) {
                Some((expr, targets)) => {
                    let waiting_on = (targets.iter())
                        .map(|addr| Target {
                            rtype: addr.rtype.clone(),
                            name: addr.name.clone(),
                            key: Some(addr.key.clone()),
                            attr: Some("id".to_owned()),
                        })
                        .collect();
                    depends_on.extend(targets);
                    deferred.push(DeferredAttr {
                        name: name.clone(),
                        expr,
                        span: Span::synthetic(),
                        waiting_on,
                    });
                }
                None => attrs.push((name.clone(), v.clone())),
            }
        }
        Arc::new(ResourceInstance {
            addr: then.addr.clone(),
            attrs: attrs.into_iter().collect(),
            deferred,
            depends_on: depends_on.into_iter().collect(),
            span: Span::synthetic(),
            attr_spans: Arc::clone(&no_spans),
            lifecycle: Default::default(),
            env: Default::default(),
            file: Arc::clone(&no_file),
            provider_region: Some(Arc::from(then.region.as_str())),
        })
    });
    let known = |(name, v): (&String, &Value)| (name.clone(), OutputValue::Known(v.clone()));
    Manifest {
        instances: instances.collect(),
        outputs: checkpoint.outputs.iter().map(known).collect(),
        ..Manifest::default()
    }
}

/// Compute the minimal rollback plan from `current` (live, refreshed state)
/// back to `checkpoint`. `data` answers data-source references, as in
/// [`diff`].
pub fn plan_rollback(
    current: &Snapshot,
    checkpoint: &Snapshot,
    catalog: &Catalog,
    data: &dyn Resolver,
) -> RollbackPlan {
    let manifest = lift(checkpoint, current, catalog);
    let changes = diff(&manifest, current, catalog, data);
    RollbackPlan {
        plan: Plan::build(changes, current, catalog),
        outputs: manifest.outputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::DataResolver;
    use cloudless_state::DeployedResource;
    use cloudless_types::value::attrs;
    use cloudless_types::{Attrs, Region, ResourceId, SimTime};

    fn deployed(addr: &str, id: &str, a: Attrs) -> DeployedResource {
        let addr: ResourceAddr = addr.parse().unwrap();
        let mut full = a;
        full.insert("id".into(), Value::from(id));
        DeployedResource {
            rtype: addr.rtype.clone(),
            id: ResourceId::new(id),
            region: Region::new("us-east-1"),
            attrs: full,
            depends_on: vec![],
            created_at: SimTime::ZERO,
            addr,
        }
    }

    fn snapshot(resources: impl IntoIterator<Item = DeployedResource>) -> Snapshot {
        let mut snap = Snapshot::new();
        resources.into_iter().for_each(|r| snap.put(r));
        snap
    }

    fn plan(current: &Snapshot, checkpoint: &Snapshot) -> RollbackPlan {
        plan_rollback(
            current,
            checkpoint,
            &Catalog::standard(),
            &DataResolver::new(),
        )
    }

    /// The one planned change, with its action.
    fn only(plan: &RollbackPlan) -> &crate::diff::PlannedChange {
        assert_eq!(plan.plan.len(), 1);
        &plan.plan.graph.iter().next().unwrap().1.change
    }

    fn vm(size: &str) -> DeployedResource {
        deployed(
            "aws_virtual_machine.w",
            "vm-1",
            attrs([
                ("name", Value::from("w")),
                ("instance_type", Value::from(size)),
            ]),
        )
    }

    fn vpc(cidr: &str) -> DeployedResource {
        vpc_with_id("vpc-1", cidr)
    }

    fn vpc_with_id(id: &str, cidr: &str) -> DeployedResource {
        deployed("aws_vpc.v", id, attrs([("cidr_block", Value::from(cidr))]))
    }

    fn bucket(name: &str, id: &str) -> DeployedResource {
        deployed(
            &format!("aws_s3_bucket.{name}"),
            id,
            attrs([("bucket", Value::from(name))]),
        )
    }

    #[test]
    fn identical_states_need_no_rollback() {
        let snap = snapshot([vm("t3.micro")]);
        assert!(plan(&snap, &snap).plan.is_empty());
    }

    #[test]
    fn mutable_drift_reverts_in_place() {
        let plan = plan(&snapshot([vm("m5.4xlarge")]), &snapshot([vm("t3.micro")]));
        assert_eq!((plan.reverts(), plan.redeployments()), (1, 0));
        let change = only(&plan);
        // unchanged attrs are not in the update
        let changed = vec!["instance_type".to_owned()];
        assert_eq!(change.action, Action::Update { changed });
        assert_eq!(
            change.planned_attrs.get("instance_type"),
            Some(&Value::from("t3.micro"))
        );
    }

    #[test]
    fn force_new_drift_requires_recreate() {
        let plan = plan(
            &snapshot([vpc("10.99.0.0/16")]),
            &snapshot([vpc("10.0.0.0/16")]),
        );
        assert_eq!((plan.reverts(), plan.redeployments()), (0, 1));
        assert!(matches!(only(&plan).action, Action::Replace { .. }));
    }

    #[test]
    fn deleted_resource_is_restored() {
        let plan = plan(&Snapshot::new(), &snapshot([bucket("logs", "b-1")]));
        let change = only(&plan);
        assert_eq!(change.action, Action::Create);
        assert_eq!(
            change.planned_attrs.get("bucket"),
            Some(&Value::from("logs"))
        );
        // computed attrs are not replayed
        assert!(!change.planned_attrs.contains_key("id"));
    }

    #[test]
    fn created_resource_is_destroyed() {
        let plan = plan(&snapshot([bucket("new", "b-9")]), &Snapshot::new());
        assert_eq!(only(&plan).action, Action::Delete);
        assert_eq!(plan.redeployments(), 1);
    }

    #[test]
    fn out_of_band_attr_not_in_checkpoint_is_unset() {
        // The paper's example: custom settings added out of band are "often
        // ignored by IaC workflow" — the cloudless planner nulls them out.
        let mut drifted = vm("t3.micro");
        let script = Value::from("#!/bin/sh echo pwned");
        drifted.attrs.insert("user_data".into(), script);
        let plan = plan(&snapshot([drifted]), &snapshot([vm("t3.micro")]));
        assert_eq!(plan.reverts(), 1);
        let change = only(&plan);
        let changed = vec!["user_data".to_owned()];
        assert_eq!(change.action, Action::Update { changed });
        assert_eq!(change.planned_attrs.get("user_data"), Some(&Value::Null));
    }

    #[test]
    fn mixed_plan_minimizes_redeployments() {
        let checkpoint = snapshot([vm("t3.micro"), vpc("10.0.0.0/16"), bucket("gone", "b-1")]);
        // vm: mutable drift; vpc: force_new drift; one bucket deleted, one
        // created
        let current = snapshot([vm("m5.large"), vpc("10.5.0.0/16"), bucket("extra", "b-2")]);
        let plan = plan(&current, &checkpoint);
        assert_eq!(plan.plan.len(), 4);
        // only the vpc + restore + destroy are redeployments; vm is a revert
        assert_eq!((plan.reverts(), plan.redeployments()), (1, 3));
    }

    #[test]
    fn an_id_held_at_the_checkpoint_is_lifted_as_a_reference() {
        let subnet = |id: &str, vpc_id: &str| {
            let mut s = deployed(
                "aws_subnet.s",
                id,
                attrs([
                    ("vpc_id", Value::from(vpc_id)),
                    ("cidr_block", Value::from("10.0.1.0/24")),
                ]),
            );
            s.depends_on = vec!["aws_vpc.v".parse().unwrap()];
            s
        };
        let then = snapshot([vpc("10.0.0.0/16"), subnet("sn-1", "vpc-1")]);
        // same attributes, new ids: the subnet follows the live VPC, so
        // nothing is planned (a literal `vpc_id = "vpc-1"` would replace it)
        let now = snapshot([vpc_with_id("vpc-2", "10.0.0.0/16"), subnet("sn-2", "vpc-2")]);
        assert!(plan(&now, &then).plan.is_empty());
        // the VPC must be recreated: the subnet's vpc_id is unknown until
        // then, it is replaced too, and after the VPC
        let plan = plan(
            &snapshot([vpc("10.9.0.0/16"), subnet("sn-1", "vpc-1")]),
            &then,
        );
        assert_eq!(plan.redeployments(), 2);
        let node = |a: &str| plan.plan.node_for(&a.parse().unwrap()).unwrap();
        assert!(plan
            .plan
            .graph
            .reaches(node("aws_vpc.v"), node("aws_subnet.s")));
        let subnet = &plan.plan.graph.node(node("aws_subnet.s")).change;
        assert_eq!(subnet.unknown_attrs, vec!["vpc_id"]);
    }
}
