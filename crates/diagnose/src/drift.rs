//! Drift detection from the cloud's activity log.
//!
//! §3.5: "Industry tools like driftctl attempt to bypass the IaC frameworks
//! and directly use cloud-level API to scan the deployment state, which
//! incurs significant time overhead due to cloud API rate limiting.
//! Frequent scanning is also expensive if API calls have quotas or paywalls.
//! Cloudless computing should support drift detection natively within its
//! own stack, by an observability component that relies on cloud activity
//! logs to detect 'drift events'."
//!
//! [`LogWatcher`] is that component: it keeps a cursor into the activity
//! log and classifies only *new* events — O(changes), and the occurrence
//! time is in the event itself, so detection lag is just the polling
//! interval. E5's driftctl-style scanner lives with the harness.

use std::collections::BTreeSet;
use std::sync::Arc;

use cloudless_cloud::{ActivityKind, Cloud};
use cloudless_obs::{Event, NullRecorder, Recorder};
use cloudless_state::Snapshot;
use cloudless_types::{ResourceAddr, ResourceId, SimTime};
use serde::{Deserialize, Serialize};

/// What kind of drift was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DriftKind {
    /// A managed resource's attributes were changed outside IaC.
    Modified,
    /// A managed resource was deleted outside IaC.
    Deleted,
    /// An unmanaged resource appeared in a scope IaC believes it owns.
    Unmanaged,
}

/// One detected drift event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftEvent {
    pub kind: DriftKind,
    /// IaC address, when the resource is managed.
    pub addr: Option<ResourceAddr>,
    pub id: ResourceId,
    /// Who caused it (known only to the log watcher).
    pub principal: Option<String>,
    /// When the change actually happened (log watcher: exact; scanner: the
    /// scan completion time — it cannot know better).
    pub occurred_at: SimTime,
    /// When the detector noticed.
    pub detected_at: SimTime,
}

impl DriftEvent {
    /// Detection lag.
    pub fn lag(&self) -> cloudless_types::SimDuration {
        self.detected_at.since(self.occurred_at)
    }
}

/// Result of one detection pass.
#[derive(Debug, Clone, Default)]
pub struct DriftReport {
    pub events: Vec<DriftEvent>,
    /// Cloud API calls consumed by this pass.
    pub api_calls: u64,
    /// Virtual time the pass took.
    pub duration: cloudless_types::SimDuration,
}

// ---------------------------------------------------------------------------
// Cloudless: activity-log watcher
// ---------------------------------------------------------------------------

/// Incremental drift detection from the activity log.
pub struct LogWatcher {
    /// Principals whose mutations are *not* drift (the IaC engine itself).
    pub trusted_principals: BTreeSet<String>,
    cursor: u64,
    obs: Arc<dyn Recorder>,
}

impl LogWatcher {
    pub fn new(trusted: impl IntoIterator<Item = String>) -> Self {
        LogWatcher {
            trusted_principals: trusted.into_iter().collect(),
            cursor: 0,
            obs: Arc::new(NullRecorder),
        }
    }

    /// Attach a recorder: each poll emits an instant with the number of log
    /// events examined and drift events found — the log-native cost signal
    /// that E5 contrasts with a full scan's API spend.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.obs = recorder;
        self
    }

    /// Start watching from the current end of the log (ignore history).
    pub fn from_now(mut self, cloud: &Cloud) -> Self {
        self.cursor = cloud.activity().len() as u64;
        self
    }

    /// One poll: classify new events, each by one probe of the state's id
    /// index, so a poll costs its events, not the world. Costs zero resource
    /// API calls — the activity log is an independent, cheap endpoint (Azure
    /// Activity Log / GCP Audit Log are not subject to resource-API rate
    /// limits).
    pub fn poll(&mut self, cloud: &Cloud, state: &Snapshot) -> DriftReport {
        let now = cloud.now();
        let (events, next) = cloud.activity().events_since(self.cursor);
        let examined = events.len();
        let mut report = DriftReport::default();
        for ev in events {
            if self.trusted_principals.contains(ev.principal.as_str()) {
                continue;
            }
            if ev.kind == ActivityKind::Failed {
                continue;
            }
            let Some(id) = &ev.id else { continue };
            let managed = state.by_id(id.as_str());
            let kind = match (ev.kind, managed.is_some()) {
                (ActivityKind::Created, false) => DriftKind::Unmanaged,
                (ActivityKind::Updated, true) => DriftKind::Modified,
                (ActivityKind::Deleted, true) => DriftKind::Deleted,
                // churn on resources we never managed (update/delete of
                // unmanaged, create that later became managed): not drift
                _ => continue,
            };
            report.events.push(DriftEvent {
                kind,
                addr: managed.map(|r| r.addr.clone()),
                id: id.clone(),
                principal: Some(ev.principal.as_str().to_owned()),
                occurred_at: ev.at,
                detected_at: now,
            });
        }
        self.cursor = next;
        self.obs.counter("diagnose.watch_polls", 1);
        self.obs
            .counter("diagnose.watch_events_examined", examined as u64);
        self.obs
            .counter("diagnose.drift_detected", report.events.len() as u64);
        if self.obs.enabled() {
            self.obs.record(
                Event::instant("diagnose", "poll", now)
                    .field("examined", examined as u64)
                    .field("drift_events", report.events.len() as u64),
            );
        }
        report
    }
}

// ---------------------------------------------------------------------------
// Reconciliation
// ---------------------------------------------------------------------------

/// What to do about a drift event (§3.5: "either regenerate the IaC-level
/// program to reflect the latest deployment, or notify corresponding
/// parties").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Reconciliation {
    /// Re-apply the IaC configuration: the drifted attributes will be
    /// overwritten on the next apply (state must be refreshed first).
    Overwrite { addr: ResourceAddr },
    /// Adopt the cloud's version: fold live attributes into state so the
    /// desired state matches reality.
    Adopt { addr: ResourceAddr },
    /// A human must decide (unmanaged resources, deletions).
    Notify { id: ResourceId, reason: String },
}

/// Default reconciliation policy: modifications are overwritten (IaC is the
/// source of truth), deletions and unmanaged resources page a human.
pub fn reconcile(event: &DriftEvent) -> Reconciliation {
    match (&event.kind, &event.addr) {
        (DriftKind::Modified, Some(addr)) => Reconciliation::Overwrite { addr: addr.clone() },
        (DriftKind::Deleted, Some(_)) => Reconciliation::Notify {
            id: event.id.clone(),
            reason: "managed resource was deleted outside IaC".to_owned(),
        },
        _ => Reconciliation::Notify {
            id: event.id.clone(),
            reason: "resource is not under IaC management".to_owned(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_cloud::CloudConfig;
    use cloudless_deploy::resolver::DataResolver;
    use cloudless_deploy::{diff, Executor, Plan, Strategy};
    use cloudless_hcl::program::{expand, ModuleLibrary, Program};
    use cloudless_types::value::attrs;
    use cloudless_types::Value;
    use std::collections::BTreeMap;

    const ENGINE: &str = "cloudless-engine";

    fn deployed() -> (Cloud, Snapshot) {
        let catalog = cloudless_cloud::Catalog::standard();
        let data = DataResolver::new();
        let mut cloud = Cloud::new(CloudConfig::exact(), 7);
        let mut state = Snapshot::new();
        let src = r#"
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_s3_bucket" "b" {
  count  = 4
  bucket = "bucket-${count.index}"
}
"#;
        let p = Program::from_file(cloudless_hcl::parse(src, "main.tf").unwrap()).unwrap();
        let m = expand(&p, &BTreeMap::new(), &ModuleLibrary::new(), &data).unwrap();
        let plan = Plan::build(diff(&m, &state, &catalog, &data), &state, &catalog);
        let exec = Executor::new(Strategy::TerraformWalk { parallelism: 10 }, &data);
        assert!(exec.apply(&plan, &mut cloud, &mut state).all_ok());
        (cloud, state)
    }

    #[test]
    fn log_watcher_ignores_trusted_and_history() {
        let (cloud, state) = deployed();
        // watcher starting AFTER the deploy sees nothing
        let mut w = LogWatcher::new([ENGINE.to_owned()]).from_now(&cloud);
        let r = w.poll(&cloud, &state);
        assert!(r.events.is_empty());
        // watcher replaying history ignores engine events because they are
        // trusted
        let mut w2 = LogWatcher::new([ENGINE.to_owned()]);
        let r2 = w2.poll(&cloud, &state);
        assert!(r2.events.is_empty());
        assert_eq!(r2.api_calls, 0);
    }

    #[test]
    fn log_watcher_detects_modification_with_attribution() {
        let (mut cloud, state) = deployed();
        let mut w = LogWatcher::new([ENGINE.to_owned()]).from_now(&cloud);
        let vpc_id = state.get(&"aws_vpc.v".parse().unwrap()).unwrap().id.clone();
        cloud
            .out_of_band_update(
                "legacy-script",
                &vpc_id,
                attrs([("name", Value::from("x"))]),
            )
            .unwrap();
        let r = w.poll(&cloud, &state);
        assert_eq!(r.events.len(), 1);
        let ev = &r.events[0];
        assert_eq!(ev.kind, DriftKind::Modified);
        assert_eq!(ev.addr.as_ref().unwrap().to_string(), "aws_vpc.v");
        assert_eq!(ev.principal.as_deref(), Some("legacy-script"));
        assert_eq!(r.api_calls, 0, "log polls cost no resource API calls");
        // second poll is empty (cursor advanced)
        assert!(w.poll(&cloud, &state).events.is_empty());
    }

    #[test]
    fn log_watcher_detects_delete_and_unmanaged_create() {
        let (mut cloud, state) = deployed();
        let mut w = LogWatcher::new([ENGINE.to_owned()]).from_now(&cloud);
        let bucket = state
            .get(&"aws_s3_bucket.b[0]".parse().unwrap())
            .unwrap()
            .id
            .clone();
        cloud.out_of_band_delete("intern", &bucket).unwrap();
        cloud
            .out_of_band_create(
                "intern",
                "aws_s3_bucket",
                "us-east-1",
                attrs([("bucket", Value::from("rogue"))]),
            )
            .unwrap();
        let r = w.poll(&cloud, &state);
        assert_eq!(r.events.len(), 2);
        assert!(r.events.iter().any(|e| e.kind == DriftKind::Deleted));
        assert!(r.events.iter().any(|e| e.kind == DriftKind::Unmanaged));
    }

    #[test]
    fn reconciliation_policy() {
        let ev = DriftEvent {
            kind: DriftKind::Modified,
            addr: Some("aws_vpc.v".parse().unwrap()),
            id: ResourceId::new("vpc-1"),
            principal: Some("legacy".into()),
            occurred_at: SimTime::ZERO,
            detected_at: SimTime::ZERO,
        };
        assert!(matches!(reconcile(&ev), Reconciliation::Overwrite { .. }));
        let del = DriftEvent {
            kind: DriftKind::Deleted,
            ..ev.clone()
        };
        assert!(matches!(reconcile(&del), Reconciliation::Notify { .. }));
        let rogue = DriftEvent {
            kind: DriftKind::Unmanaged,
            addr: None,
            ..ev
        };
        assert!(matches!(reconcile(&rogue), Reconciliation::Notify { .. }));
    }
}
