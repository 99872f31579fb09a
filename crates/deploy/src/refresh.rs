//! State refresh: re-reading live cloud state into the snapshot.
//!
//! §3.3: "even a single resource update will trigger expensive queries on
//! all cloud-level resource state and recomputation of the deployment plan
//! from the ground up." [`full_refresh`] is that baseline — one `Read` per
//! managed resource, every time. [`scoped_refresh`] reads only a subset;
//! [`refresh_since`] picks the subset off the activity log (§3.5): the
//! resources whose ids it names past a position.
//!
//! The engine's `refresh` and `reconcile` call [`refresh_since`] from their
//! *sync point* — the log position as of which the committed state matched
//! the cloud — and [`refresh_all`] only when they hold none: an engine
//! rebuilt from session files (every CLI process), or one whose state or
//! cloud records changed in a way no log entry names. Both take the
//! committed snapshot by reference (a [`Cow`]) and copy it only when a read
//! finds a record changed: a refresh that finds nothing costs no copy of
//! the world. E2's refresh-cost comparison and the reconciler's unit suites
//! call [`full_refresh`] and [`scoped_refresh`] directly.

use std::borrow::Cow;
use std::collections::BTreeSet;

use cloudless_cloud::{ApiOp, ApiRequest, Cloud, OpOutcome};
use cloudless_state::Snapshot;
use cloudless_types::{ResourceAddr, ResourceId, SimDuration, SimTime};

/// Outcome of a refresh pass.
#[derive(Debug, Clone, Default)]
pub struct RefreshReport {
    /// Read API calls issued.
    pub reads: u64,
    /// Resources whose recorded attributes changed (live drift folded in).
    pub updated: Vec<ResourceAddr>,
    /// Resources that no longer exist in the cloud (deleted out of band).
    pub missing: Vec<ResourceAddr>,
    /// Resources whose read did not settle (it failed and may be retried):
    /// their records in the snapshot are as they were.
    pub unsettled: Vec<ResourceAddr>,
    /// Virtual time the refresh took.
    pub duration: SimDuration,
}

/// Refresh every resource in the snapshot (the Terraform-default baseline).
pub fn full_refresh(cloud: &mut Cloud, state: &mut Snapshot, principal: &str) -> RefreshReport {
    let mut owned = Cow::Owned(std::mem::take(state));
    let report = refresh_all(cloud, &mut owned, principal);
    *state = owned.into_owned();
    report
}

/// [`full_refresh`] of a snapshot the caller may hold by reference: it is
/// copied only when a read finds a record changed.
pub fn refresh_all(
    cloud: &mut Cloud,
    state: &mut Cow<'_, Snapshot>,
    principal: &str,
) -> RefreshReport {
    let addrs: Vec<ResourceAddr> = state.addrs();
    scoped_refresh(cloud, state, principal, addrs.into_iter().collect())
}

/// Refresh the resources whose ids the activity log names from position
/// `since` on. When `state` matched the cloud at every address as of
/// `since`, these are the only ones that can differ, and this finds what
/// [`full_refresh`] would; a quiet log costs no read. Each event finds its
/// resource by one probe of the state's id index, so the scope costs the
/// events, not the world.
pub fn refresh_since(
    cloud: &mut Cloud,
    state: &mut Cow<'_, Snapshot>,
    principal: &str,
    since: u64,
) -> RefreshReport {
    let (events, _) = cloud.activity().events_since(since);
    let named = events
        .iter()
        .filter_map(|ev| state.by_id(ev.id.as_ref()?.as_str()));
    let scope = named.map(|r| r.addr.clone()).collect();
    scoped_refresh(cloud, state, principal, scope)
}

/// Refresh only the given addresses (incremental path). The snapshot is
/// copied, if the caller holds it by reference, only when a read finds a
/// record changed or gone.
pub fn scoped_refresh(
    cloud: &mut Cloud,
    state: &mut Cow<'_, Snapshot>,
    principal: &str,
    addrs: BTreeSet<ResourceAddr>,
) -> RefreshReport {
    let started: SimTime = cloud.now();
    let mut report = RefreshReport::default();
    let scope: Vec<(ResourceAddr, ResourceId)> = addrs
        .into_iter()
        .filter_map(|addr| {
            let id = state.get(&addr)?.id.clone();
            Some((addr, id))
        })
        .collect();
    let reads = scope
        .iter()
        .map(|(_, id)| ApiRequest::new(ApiOp::Read { id: id.clone() }, principal))
        .collect();
    for ((addr, _), settled) in scope.into_iter().zip(cloud.settle_batch(reads)) {
        // an id rejected at the front door is as gone as one not found
        let live = match settled {
            Err(_) => None,
            Ok(done) => {
                report.reads += 1;
                match done.outcome {
                    OpOutcome::ReadOk { attrs, .. } => Some(attrs),
                    OpOutcome::Failed(e) if e.code == "ResourceNotFound" => None,
                    _ => {
                        report.unsettled.push(addr);
                        continue;
                    }
                }
            }
        };
        match (live, state.get(&addr)) {
            (None, _) => {
                state.to_mut().remove(&addr);
                report.missing.push(addr);
            }
            (Some(attrs), Some(rec)) if rec.attrs != attrs => {
                let mut rec = rec.clone();
                rec.attrs = attrs;
                state.to_mut().put(rec);
                report.updated.push(addr);
            }
            _ => {}
        }
    }
    report.duration = cloud.now().since(started);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::diff;
    use crate::exec::{Executor, Strategy};
    use crate::plan::Plan;
    use crate::resolver::DataResolver;
    use cloudless_cloud::{Catalog, CloudConfig};
    use cloudless_hcl::program::{expand, ModuleLibrary, Program};
    use cloudless_types::value::attrs;
    use cloudless_types::Value;
    use std::collections::BTreeMap;

    fn build(src: &str) -> (Cloud, Snapshot) {
        let catalog = Catalog::standard();
        let data = DataResolver::new();
        let mut cloud = Cloud::new(CloudConfig::exact(), 7);
        let mut state = Snapshot::new();
        let p = Program::from_file(cloudless_hcl::parse(src, "main.tf").unwrap()).unwrap();
        let m = expand(&p, &BTreeMap::new(), &ModuleLibrary::new(), &data).unwrap();
        let plan = Plan::build(diff(&m, &state, &catalog, &data), &state, &catalog);
        let exec = Executor::new(Strategy::TerraformWalk { parallelism: 10 }, &data);
        assert!(exec.apply(&plan, &mut cloud, &mut state).all_ok());
        (cloud, state)
    }

    const SRC: &str = r#"
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_s3_bucket" "b" {
  count  = 3
  bucket = "bucket-${count.index}"
}
"#;

    #[test]
    fn clean_state_refresh_reports_nothing() {
        let (mut cloud, mut state) = build(SRC);
        let report = full_refresh(&mut cloud, &mut state, "refresher");
        assert_eq!(report.reads, 4);
        assert!(report.updated.is_empty());
        assert!(report.missing.is_empty());
        assert!(report.duration.millis() > 0);
    }

    #[test]
    fn drifted_attrs_are_folded_in() {
        let (mut cloud, mut state) = build(SRC);
        let vpc = state.get(&"aws_vpc.v".parse().unwrap()).unwrap().id.clone();
        cloud
            .out_of_band_update("legacy", &vpc, attrs([("name", Value::from("renamed"))]))
            .unwrap();
        let report = full_refresh(&mut cloud, &mut state, "refresher");
        assert_eq!(report.updated.len(), 1);
        assert_eq!(report.updated[0].to_string(), "aws_vpc.v");
        assert_eq!(
            state
                .get(&"aws_vpc.v".parse().unwrap())
                .unwrap()
                .attrs
                .get("name"),
            Some(&Value::from("renamed"))
        );
    }

    #[test]
    fn out_of_band_deletion_detected() {
        let (mut cloud, mut state) = build(SRC);
        let bucket = state
            .get(&"aws_s3_bucket.b[1]".parse().unwrap())
            .unwrap()
            .id
            .clone();
        cloud.out_of_band_delete("legacy", &bucket).unwrap();
        let report = full_refresh(&mut cloud, &mut state, "refresher");
        assert_eq!(report.missing.len(), 1);
        assert!(state.get(&"aws_s3_bucket.b[1]".parse().unwrap()).is_none());
        assert_eq!(state.len(), 3);
    }

    #[test]
    fn scoped_refresh_reads_only_scope() {
        let (mut cloud, state) = build(SRC);
        let before = cloud.total_api_calls();
        let scope: BTreeSet<ResourceAddr> = ["aws_vpc.v".parse().unwrap()].into();
        let report = scoped_refresh(&mut cloud, &mut Cow::Borrowed(&state), "refresher", scope);
        assert_eq!(report.reads, 1);
        assert_eq!(cloud.total_api_calls() - before, 1);
    }

    #[test]
    fn refresh_since_reads_what_the_log_names_after_the_position() {
        let (mut cloud, state) = build(SRC);
        let since = cloud.activity().len() as u64;
        let mut state = Cow::Borrowed(&state);
        let quiet = refresh_since(&mut cloud, &mut state, "refresher", since);
        assert_eq!(quiet.reads, 0);
        assert!(
            matches!(state, Cow::Borrowed(_)),
            "a quiet log copies nothing"
        );
        let bucket = |i: usize| format!("aws_s3_bucket.b[{i}]").parse().unwrap();
        let id = |state: &Snapshot, i| state.get(&bucket(i)).unwrap().id.clone();
        let (renamed, deleted) = (id(&state, 0), id(&state, 2));
        let tags = attrs([("tags", Value::from("drifted"))]);
        cloud.out_of_band_update("legacy", &renamed, tags).unwrap();
        cloud.out_of_band_delete("legacy", &deleted).unwrap();
        let report = refresh_since(&mut cloud, &mut state, "refresher", since);
        // the front door refuses the deleted id's read: one completes
        assert_eq!(report.reads, 1);
        assert_eq!(report.updated, vec![bucket(0)]);
        assert_eq!(report.missing, vec![bucket(2)]);
        // from the start of the log, every resource the apply created
        assert_eq!(refresh_since(&mut cloud, &mut state, "r", 0).reads, 3);
    }

    #[test]
    fn a_read_that_fails_leaves_its_record_and_says_so() {
        let (mut cloud, mut state) = build(SRC);
        let vpc: ResourceAddr = "aws_vpc.v".parse().unwrap();
        let id = state.get(&vpc).unwrap().id.clone();
        let renamed = attrs([("name", Value::from("renamed"))]);
        cloud.out_of_band_update("legacy", &id, renamed).unwrap();
        cloud.set_fault_plan(cloudless_cloud::FaultPlan {
            read_failure_rate: 1.0,
            ..cloudless_cloud::FaultPlan::none()
        });
        let before = state.clone();
        let report = full_refresh(&mut cloud, &mut state, "refresher");
        assert_eq!(report.unsettled, state.addrs());
        assert!(report.updated.is_empty() && report.missing.is_empty());
        assert_eq!(state, before);
    }
}
