//! The infrastructure controller: policies as observations and actions.
//!
//! §3.6: "Analogous to an SDN controller, IaC policing tools could be viewed
//! as the controller for the cloud infrastructure lifecycle … a better
//! abstraction would clearly separate two aspects of the policy: the
//! observations, and the actions. … users cannot easily define policies that
//! are not explicitly supported by cloud providers, such as 'scale out the
//! number of VPN gateways and attached tunnels if traffic throughput is
//! close to their capacity' … policies take effect at different phases of
//! the infrastructure lifecycle."
//!
//! Modules:
//!
//! * [`observe`] — the observation vocabulary: metric samples, drift events,
//!   proposed plans, apply results, resource inventory.
//! * [`action`] — the action vocabulary: scale a block, deny a plan, patch
//!   an attribute, notify a human.
//! * [`engine`] — the [`Policy`] trait, lifecycle phases and the
//!   [`Controller`] that routes observations to policies and collects their
//!   actions.
//! * [`builtin`] — concrete policies, including the paper's VPN-gateway
//!   autoscaler, budget caps, region pinning and required-attribute rules.
//! * [`cost`] — a monthly cost model used by budget policies and reporting.
//! * [`outlier`] — template extraction over a program corpus and deviation
//!   detection for new programs (§3.6's "turn the problem into outlier
//!   detection").
//!
//! [`Policy`]: engine::Policy
//! [`Controller`]: engine::Controller

#![forbid(unsafe_code)]

pub mod action;
pub mod builtin;
pub mod cost;
pub mod engine;
pub mod observe;
pub mod outlier;

pub use action::Action;
pub use builtin::{BudgetPolicy, RegionPinPolicy, RequiredAttrPolicy, ThresholdScalePolicy};
pub use cost::CostModel;
pub use engine::{Controller, LifecyclePhase, Policy};
pub use observe::Observation;
pub use outlier::TemplateExtractor;
