//! Unified observability for the cloudless stack (§3.5–§3.6).
//!
//! The paper's Figure 1(b) loop ends in a "Telemetry/Repair" stage, yet
//! IaC tooling typically has no shared telemetry spine: the cloud keeps an
//! activity log, the executor keeps private counters, the lock manager and
//! drift watcher report nothing. This crate is the one queryable,
//! low-overhead record of what the system did and where time went:
//!
//! * [`Recorder`] — the emission interface every layer writes to. The
//!   default [`NullRecorder`] drops everything at near-zero cost, so the
//!   byte-for-byte determinism of the experiment tables is untouched
//!   unless observability is explicitly switched on.
//! * [`FlightRecorder`] — a bounded, drop-counting ring buffer of
//!   structured [`Event`]s plus a [`MetricsRegistry`]. Sequence numbers
//!   and the drop counter are atomics; the ring itself sits behind a
//!   `std::sync` mutex (lock-free-*ish*: the hot path is one short
//!   critical section, never blocking on I/O).
//! * [`Event::enter`]/[`Event::exit`] — span pairs stamped with both the
//!   cloud's virtual clock and a monotonic wall clock, tied by a [`SpanId`]
//!   from [`Recorder::next_span`].
//! * [`export`] — JSONL event dumps and Chrome trace-event JSON
//!   (loadable in `chrome://tracing` / Perfetto).
//!
//! Emission sites live in `cloud::engine` (submit/admit/complete/cancel),
//! `deploy::exec` (node lifecycle, backoff, deadline cancels, breaker
//! transitions), `state::lock` (acquire wait/hold), `diagnose::drift`
//! (scan vs. log-native cost) and the `Cloudless` facade. Experiment E12
//! quantifies the recorder's overhead.

#![forbid(unsafe_code)]

pub mod event;
pub mod export;
pub mod metrics;
pub mod recorder;

pub use event::{Event, EventKind, FieldValue, SpanId};
pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use recorder::{FlightRecorder, NullRecorder, Recorder};
