//! Counters, gauges, and fixed-bucket histograms with a `snapshot()` API.
//!
//! The registry is deliberately simple: names are `&'static str` (every
//! metric in the stack is known at compile time), storage is a single
//! short-critical-section mutex, and histograms use one fixed bucket
//! layout tuned for the stack's value ranges (virtual milliseconds and
//! wall microseconds both fit comfortably).

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};

/// Upper bounds of the fixed histogram buckets. Values above the last
/// bound land in the overflow count. Roughly log-spaced 1..5e6 so it
/// covers sub-millisecond lock holds and multi-hour virtual makespans.
pub const BUCKET_BOUNDS: [f64; 20] = [
    1.0,
    2.0,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
    250_000.0,
    500_000.0,
    1_000_000.0,
    5_000_000.0,
];

#[derive(Debug, Clone)]
struct Histogram {
    buckets: [u64; BUCKET_BOUNDS.len()],
    overflow: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: [0; BUCKET_BOUNDS.len()],
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        match BUCKET_BOUNDS.iter().position(|&b| value <= b) {
            Some(i) => self.buckets[i] += 1,
            None => self.overflow += 1,
        }
    }
}

/// Point-in-time copy of one histogram. Buckets are `(upper_bound,
/// count)` pairs, non-cumulative; `overflow` counts values above the
/// last bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub buckets: Vec<(f64, u64)>,
    pub overflow: u64,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimate a quantile from the bucket counts (upper bound of the
    /// bucket containing the q-th observation). Good enough for p50/p99
    /// summaries; exact tails are in the flight-recorder events.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(bound, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return bound;
            }
        }
        self.max
    }
}

/// Point-in-time copy of the whole registry. Serializable so the CLI can
/// persist it alongside the session and render it later.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Human-readable rendering for `cloudless metrics`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<40} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<40} {v:.3}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:                                count      mean       p50       p99       max\n");
            for h in &self.histograms {
                out.push_str(&format!(
                    "  {:<40} {:>5} {:>9.1} {:>9.1} {:>9.1} {:>9.1}\n",
                    h.name,
                    h.count,
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.99),
                    if h.count == 0 { 0.0 } else { h.max },
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// Thread-safe registry of counters, gauges, and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The registry's tables; a panicking holder does not wedge the rest.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn counter(&self, name: &'static str, delta: u64) {
        *self.lock().counters.entry(name).or_insert(0) += delta;
    }

    pub fn gauge(&self, name: &'static str, value: f64) {
        self.lock().gauges.insert(name, value);
    }

    pub fn observe(&self, name: &'static str, value: f64) {
        self.lock()
            .histograms
            .entry(name)
            .or_insert_with(Histogram::new)
            .observe(value);
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(&n, &v)| (n.to_string(), v))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(&n, &v)| (n.to_string(), v))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(&n, h)| HistogramSnapshot {
                    name: n.to_string(),
                    count: h.count,
                    sum: h.sum,
                    min: if h.count == 0 { 0.0 } else { h.min },
                    max: if h.count == 0 { 0.0 } else { h.max },
                    buckets: BUCKET_BOUNDS
                        .iter()
                        .zip(h.buckets.iter())
                        .map(|(&b, &c)| (b, c))
                        .collect(),
                    overflow: h.overflow,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let reg = MetricsRegistry::new();
        reg.counter("ops.submitted", 1);
        reg.counter("ops.submitted", 2);
        reg.counter("ops.failed", 1);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("ops.submitted"), 3);
        assert_eq!(snap.counter("ops.failed"), 1);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let reg = MetricsRegistry::new();
        reg.gauge("queue.depth", 4.0);
        reg.gauge("queue.depth", 2.0);
        assert_eq!(reg.snapshot().gauge("queue.depth"), Some(2.0));
        assert_eq!(reg.snapshot().gauge("missing"), None);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let reg = MetricsRegistry::new();
        for v in [1.0, 2.0, 3.0, 10.0, 400.0, 9_999_999.0] {
            reg.observe("lat", v);
        }
        let snap = reg.snapshot();
        let h = snap.histogram("lat").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.overflow, 1, "9999999 exceeds the last bound");
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 9_999_999.0);
        // p50 of [1,2,3,10,400,overflow] -> third observation -> bucket <=5
        assert_eq!(h.quantile(0.5), 5.0);
        // q beyond the finite buckets falls back to max
        assert_eq!(h.quantile(1.0), 9_999_999.0);
        assert!((h.mean() - (10_000_415.0 / 6.0)).abs() < 1e-6);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = HistogramSnapshot {
            name: "x".into(),
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: vec![],
            overflow: 0,
        };
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = MetricsRegistry::new();
        reg.counter("a", 7);
        reg.gauge("g", 1.5);
        reg.observe("h", 12.0);
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn render_mentions_every_section() {
        let reg = MetricsRegistry::new();
        reg.counter("c", 1);
        reg.gauge("g", 2.0);
        reg.observe("h", 3.0);
        let text = reg.snapshot().render();
        assert!(text.contains("counters:"));
        assert!(text.contains("gauges:"));
        assert!(text.contains("histograms:"));
        assert_eq!(
            MetricsSnapshot::default().render(),
            "(no metrics recorded)\n"
        );
    }
}
