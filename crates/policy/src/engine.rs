//! The [`Policy`] trait and the [`Controller`].
//!
//! §3.6: "policies take effect at different phases of the infrastructure
//! lifecycle. At each stage, different 'observations' and 'actions' would
//! apply." Each policy declares its [`LifecyclePhase`]s; the controller
//! routes every observation only to the policies bound to the current
//! phase, and records every (observation, action) pair for audit.

use serde::Serialize;

use crate::action::Action;
use crate::observe::Observation;

/// The lifecycle phases of Figure 1(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum LifecyclePhase {
    /// Authoring / synthesizing programs.
    Develop,
    /// Compile-time validation.
    Validate,
    /// Plan admission and apply.
    Deploy,
    /// Live operation (telemetry, drift).
    Operate,
}

impl LifecyclePhase {
    pub const ALL: [LifecyclePhase; 4] = [
        LifecyclePhase::Develop,
        LifecyclePhase::Validate,
        LifecyclePhase::Deploy,
        LifecyclePhase::Operate,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            LifecyclePhase::Develop => "develop",
            LifecyclePhase::Validate => "validate",
            LifecyclePhase::Deploy => "deploy",
            LifecyclePhase::Operate => "operate",
        }
    }
}

/// A policy: stateful observer that may emit actions.
pub trait Policy: Send {
    /// Display name.
    fn name(&self) -> &str;

    /// Phases this policy participates in.
    fn phases(&self) -> &[LifecyclePhase];

    /// React to one observation.
    fn evaluate(&mut self, observation: &Observation) -> Vec<Action>;
}

/// One audit-log entry.
#[derive(Debug, Clone, Serialize)]
pub struct AuditEntry {
    pub phase: LifecyclePhase,
    pub policy: String,
    pub observation_kind: String,
    pub action: Action,
}

/// The infrastructure controller: policy registry + observation router.
#[derive(Default)]
pub struct Controller {
    policies: Vec<Box<dyn Policy>>,
    audit: Vec<AuditEntry>,
}

impl Controller {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a policy.
    pub fn register(&mut self, policy: Box<dyn Policy>) -> &mut Self {
        self.policies.push(policy);
        self
    }

    /// Number of registered policies.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// Whether any registered policy is bound to `phase`: a caller whose
    /// observation costs something to build asks before building it.
    pub fn watches(&self, phase: LifecyclePhase) -> bool {
        self.policies.iter().any(|p| p.phases().contains(&phase))
    }

    /// Route one observation to every policy bound to `phase`; returns the
    /// collected actions (in registration order).
    pub fn feed(&mut self, phase: LifecyclePhase, observation: &Observation) -> Vec<Action> {
        let mut out = Vec::new();
        for p in &mut self.policies {
            if !p.phases().contains(&phase) {
                continue;
            }
            for action in p.evaluate(observation) {
                self.audit.push(AuditEntry {
                    phase,
                    policy: p.name().to_owned(),
                    observation_kind: observation.kind().to_owned(),
                    action: action.clone(),
                });
                out.push(action);
            }
        }
        out
    }

    /// Convenience: does any policy deny this plan observation?
    pub fn admits_plan(&mut self, summary: crate::observe::PlanSummary) -> Result<(), Vec<Action>> {
        let actions = self.feed(LifecyclePhase::Deploy, &Observation::PlanProposed(summary));
        let denials: Vec<Action> = actions.into_iter().filter(Action::is_blocking).collect();
        if denials.is_empty() {
            Ok(())
        } else {
            Err(denials)
        }
    }

    /// The audit log.
    pub fn audit(&self) -> &[AuditEntry] {
        &self.audit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_types::SimTime;

    /// Test policy: notifies on every metric above a threshold.
    struct Alarm {
        threshold: f64,
        fired: usize,
    }

    impl Policy for Alarm {
        fn name(&self) -> &str {
            "alarm"
        }

        fn phases(&self) -> &[LifecyclePhase] {
            &[LifecyclePhase::Operate]
        }

        fn evaluate(&mut self, observation: &Observation) -> Vec<Action> {
            if let Observation::Metric { value, .. } = observation {
                if *value > self.threshold {
                    self.fired += 1;
                    return vec![Action::Notify {
                        message: format!("metric over {}", self.threshold),
                    }];
                }
            }
            vec![]
        }
    }

    fn metric(v: f64) -> Observation {
        Observation::Metric {
            addr: "aws_vpc.v".parse().unwrap(),
            metric: "cpu".into(),
            value: v,
            at: SimTime::ZERO,
        }
    }

    #[test]
    fn routes_by_phase() {
        let mut c = Controller::new();
        c.register(Box::new(Alarm {
            threshold: 50.0,
            fired: 0,
        }));
        // the policy is bound to Operate, not Deploy
        assert!(c.feed(LifecyclePhase::Deploy, &metric(99.0)).is_empty());
        let actions = c.feed(LifecyclePhase::Operate, &metric(99.0));
        assert_eq!(actions.len(), 1);
        assert!(c.feed(LifecyclePhase::Operate, &metric(10.0)).is_empty());
        // audit recorded exactly the one action
        assert_eq!(c.audit().len(), 1);
        assert_eq!(c.audit()[0].policy, "alarm");
        assert_eq!(c.audit()[0].observation_kind, "metric");
    }

    #[test]
    fn plan_admission() {
        struct DenyAll;
        impl Policy for DenyAll {
            fn name(&self) -> &str {
                "deny-all"
            }
            fn phases(&self) -> &[LifecyclePhase] {
                &[LifecyclePhase::Deploy]
            }
            fn evaluate(&mut self, o: &Observation) -> Vec<Action> {
                if matches!(o, Observation::PlanProposed(_)) {
                    vec![Action::DenyPlan {
                        reason: "frozen".into(),
                    }]
                } else {
                    vec![]
                }
            }
        }
        let mut c = Controller::new();
        let summary = crate::observe::PlanSummary {
            creates: 1,
            updates: 0,
            deletes: 0,
            replaces: 0,
            resulting_fleet: vec![],
            monthly_cost: 0.0,
        };
        assert!(
            c.admits_plan(summary.clone()).is_ok(),
            "no policies → admitted"
        );
        c.register(Box::new(DenyAll));
        let denials = c.admits_plan(summary).unwrap_err();
        assert_eq!(denials.len(), 1);
    }
}
