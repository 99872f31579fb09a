//! # Cloudless: principled cloud infrastructure management
//!
//! A full implementation of the *Cloudless Computing* vision (Qiu et al.,
//! HotNets '23): Infrastructure-as-Code management supported "as-a-service",
//! with every lifecycle stage of the paper's Figure 1(b) made principled:
//!
//! | stage | paper § | subsystem |
//! |---|---|---|
//! | Developing IaC | §3.1 | [`synth`] (type-guided synthesis), [`port`] (import + optimizer) |
//! | Validating IaC | §3.2 | [`validate`] (schema, semantic types, cloud rules, spec mining), [`analyze`] (dataflow lint: def-use, folding + intervals, taint, plan-graph hazards) |
//! | Deploying IaC | §3.3 | [`deploy`] (critical-path scheduling, incremental updates) |
//! | Updating IaC | §3.4 | [`state`] (golden state, per-resource locks, transactions, time machine), [`deploy::rollback`] |
//! | Diagnosing IaC | §3.5 | [`diagnose`] (log-native drift detection, error translation) |
//! | Policing IaC | §3.6 | [`policy`] (observations/actions controller) |
//! | Observing the stack | §3.5–3.6 | [`obs`] (flight recorder, metrics registry, trace export) |
//!
//! The substrate is a deterministic discrete-event multi-cloud simulator
//! ([`cloud`]) with realistic provisioning latencies, API rate limits,
//! cloud-side constraints and an activity log — see `DESIGN.md` for the
//! substitution rationale.
//!
//! ## Quickstart
//!
//! ```
//! use cloudless::{Cloudless, Config};
//!
//! let mut engine = Cloudless::new(Config::default());
//! let outcome = engine
//!     .converge(r#"
//!         resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
//!         resource "aws_subnet" "app" {
//!           vpc_id     = aws_vpc.main.id
//!           cidr_block = "10.0.1.0/24"
//!         }
//!     "#)
//!     .expect("deploys cleanly");
//! assert!(outcome.apply.all_ok());
//! assert_eq!(engine.state().len(), 2);
//! ```

#![forbid(unsafe_code)]

pub use cloudless_analyze as analyze;
pub use cloudless_cloud as cloud;
pub use cloudless_deploy as deploy;
pub use cloudless_diagnose as diagnose;
pub use cloudless_graph as graph;
pub use cloudless_hcl as hcl;
pub use cloudless_obs as obs;
pub use cloudless_policy as policy;
pub use cloudless_port as port;
pub use cloudless_state as state;
pub use cloudless_synth as synth;
pub use cloudless_types as types;
pub use cloudless_validate as validate;

mod engine;
pub mod pipeline;

pub use cloudless_analyze::{LintConfig, LintGate, LintReport};
pub use engine::{Cloudless, Config, ConvergeError, ConvergeOutcome, Planned, ReconcileReport};
pub use pipeline::{ChangeTrace, IncrementalPipeline, PipelineConfig, PipelineError};
