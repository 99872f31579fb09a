//! Dependency-graph algorithms for IaC deployment planning.
//!
//! Paper §3.3: "The resource dependency graph is a DAG, with multiple
//! 'parallel' subgraphs that can be deployed concurrently. Further, resources
//! on 'non-critical paths' could make way for 'critical paths' to expedite
//! the completion of the deployment." And for updates: "modifications to
//! individual resources have a limited impact, affecting only a small subset
//! of successor and predecessor nodes … By identifying the 'impact scope' of
//! a deployment change, we can confine the changes to a significantly smaller
//! resource subgraph."
//!
//! This crate provides the graph machinery both of those observations need:
//!
//! * [`Dag`] — an immutable directed acyclic graph in flat CSR form, built
//!   through [`DagBuilder`] with O(1) edge appends and one O(V+E)
//!   acyclicity validation at seal time; deterministic iteration order.
//! * [`splice`] — nodes inserted into and removed from a sealed [`Dag`]
//!   through a [`Renumbering`], at the cost of what moves: no seal, and the
//!   order "standing nodes, then inserted ones in turn" in place of the
//!   cycle check.
//! * [`csr`] — the shared compressed-sparse-row adjacency and cycle
//!   detection used by the sealed graph and the raw [`cycles::Digraph`].
//! * [`topo`] — topological orders and level (wave) schedules.
//! * [`critical`] — weighted longest-path analysis: earliest/latest start
//!   times, slack, critical-path membership and priorities.
//! * [`impact`] — ancestor/descendant closures and the *impact scope* of a
//!   change set.
//!
//! The graph is generic over its node payload so the same algorithms serve
//! resource plans, module graphs and policy dependency tracking.

#![forbid(unsafe_code)]

pub mod critical;
pub mod csr;
pub mod cycles;
pub mod dag;
pub mod impact;
pub mod splice;
pub mod topo;

pub use critical::{CriticalPathAnalysis, NodeSchedule};
pub use csr::Csr;
pub use dag::{Dag, DagBuilder, EdgeError, NodeId};
pub use impact::ImpactScope;
pub use splice::{Origin, Renumbering};
pub use topo::{levels, topo_sort, Cycle};
