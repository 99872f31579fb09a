//! Planning and executing IaC deployments against the simulated cloud.
//!
//! This crate is the "Scheduler / Apply / Refresh" column of the paper's
//! Figure 1(b), together with the baselines of Figure 1(a):
//!
//! * [`diff`](mod@diff) — compares the desired [`Manifest`] against the current
//!   [`Snapshot`] and produces per-resource actions (create / update /
//!   replace / delete / no-op), honoring `force_new` schema attributes.
//! * [`plan`] — assembles the actions into an executable DAG with duration
//!   estimates from the catalog.
//! * [`exec`] — three executors over the same plan:
//!   [`exec::Strategy::Sequential`] (one op at a time),
//!   [`exec::Strategy::TerraformWalk`] (bounded FIFO parallelism — today's
//!   behavior), and [`exec::Strategy::CriticalPath`] (§3.3: slack-priority
//!   scheduling aware of rate limits and per-type duration estimates).
//! * [`refresh`] — full state refresh (the baseline that "triggers
//!   expensive queries on all cloud-level resource state") and scoped
//!   refresh of an impact scope (§3.3; the scope itself comes from the
//!   front-end pipeline's warm replan).
//! * [`rollback`] — reversibility-aware rollback planning (§3.4): in-place
//!   reverts where possible, destroy-and-recreate only where required,
//!   drift-aware.
//! * [`resolver`] — bridges HCL references to live state and cloud data
//!   sources at apply time.
//!
//! [`Manifest`]: cloudless_hcl::Manifest
//! [`Snapshot`]: cloudless_state::Snapshot

#![forbid(unsafe_code)]

pub mod diff;
pub mod exec;
pub mod plan;
pub mod refresh;
pub mod resilience;
pub mod resolver;
pub mod rollback;

pub use diff::{diff, Action, PlannedChange};
pub use exec::{ApplyReport, Executor, NodeResult, NodeStats, Strategy};
pub use plan::{Plan, PlanNode};
pub use refresh::{full_refresh, refresh_all, refresh_since, scoped_refresh, RefreshReport};
pub use resilience::{
    BreakerConfig, BreakerState, CircuitBreaker, DeadlinePolicy, ResiliencePolicy, RetryPolicy,
};
pub use resolver::{DataResolver, StateResolver};
pub use rollback::{plan_rollback, RollbackPlan};
