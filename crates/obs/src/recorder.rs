//! The `Recorder` trait, the no-op default, and the flight recorder.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::event::{Event, SpanId};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};

/// The emission interface every layer writes to.
///
/// Implementations must be cheap when disabled: call sites gate event
/// *construction* on [`Recorder::enabled`], so a disabled recorder costs
/// one virtual call and a branch per site.
pub trait Recorder: Send + Sync {
    /// Whether events are being kept. Sites should skip building
    /// [`Event`]s (and their field vectors) when this is false.
    fn enabled(&self) -> bool;

    /// Allocate a fresh span id. The null recorder returns
    /// [`SpanId::NONE`].
    fn next_span(&self) -> SpanId;

    /// Append an event. `seq`/`wall_ns` are stamped by the recorder.
    fn record(&self, event: Event);

    /// Increment a named counter.
    fn counter(&self, name: &'static str, delta: u64);

    /// Set a named gauge.
    fn gauge(&self, name: &'static str, value: f64);

    /// Record one observation into a named histogram.
    fn observe(&self, name: &'static str, value: f64);

    /// Snapshot the metrics registry, if this recorder keeps one.
    fn metrics(&self) -> Option<MetricsSnapshot> {
        None
    }
}

/// Drops everything. This is the default wired into the stack, so the
/// byte-for-byte determinism of experiment tables is unaffected unless a
/// real recorder is installed.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl NullRecorder {
    /// Convenience: a shareable trait object, which is how the stack
    /// passes recorders around.
    pub fn shared() -> Arc<dyn Recorder> {
        Arc::new(NullRecorder)
    }
}

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn next_span(&self) -> SpanId {
        SpanId::NONE
    }
    fn record(&self, _event: Event) {}
    fn counter(&self, _name: &'static str, _delta: u64) {}
    fn gauge(&self, _name: &'static str, _value: f64) {}
    fn observe(&self, _name: &'static str, _value: f64) {}
}

/// Bounded, drop-counting ring buffer of [`Event`]s plus a
/// [`MetricsRegistry`].
///
/// Sequence numbers, span ids, and the drop counter are atomics; the
/// ring itself sits behind a short-critical-section mutex (push one
/// event, maybe pop one) — never blocking on I/O. When the ring is full
/// the *oldest* event is evicted, so after an incident the buffer holds
/// the most recent history, like an aircraft flight recorder.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<Event>>,
    seq: AtomicU64,
    spans: AtomicU64,
    dropped: AtomicU64,
    birth: Instant,
    metrics: MetricsRegistry,
}

/// Default ring capacity: enough for every event of a random-200 apply
/// with ample headroom.
pub const DEFAULT_CAPACITY: usize = 65_536;

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 4096))),
            seq: AtomicU64::new(0),
            spans: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            birth: Instant::now(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Convenience: a shareable trait object.
    pub fn shared(capacity: usize) -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder::new(capacity))
    }

    /// Events currently buffered, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    /// Total events ever recorded (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Direct access to the registry (experiments use this; call sites
    /// go through the trait).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

impl Recorder for FlightRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn next_span(&self) -> SpanId {
        // Span ids start at 1; 0 is SpanId::NONE.
        SpanId(self.spans.fetch_add(1, Ordering::Relaxed) + 1)
    }

    fn record(&self, mut event: Event) {
        event.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        event.wall_ns = self.birth.elapsed().as_nanos() as u64;
        let mut ring = self.ring.lock();
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.metrics.counter(name, delta);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.metrics.gauge(name, value);
    }

    fn observe(&self, name: &'static str, value: f64) {
        self.metrics.observe(name, value);
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        Some(self.metrics.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_types::time::SimTime;

    #[test]
    fn null_recorder_is_inert() {
        let rec = NullRecorder::shared();
        assert!(!rec.enabled());
        assert_eq!(rec.next_span(), SpanId::NONE);
        rec.record(Event::instant("x", "y", SimTime::ZERO));
        rec.counter("c", 1);
        assert!(rec.metrics().is_none());
    }

    #[test]
    fn flight_recorder_stamps_seq_and_wall() {
        let rec = FlightRecorder::new(16);
        rec.record(Event::instant("cloud", "a", SimTime(5)));
        rec.record(Event::instant("cloud", "b", SimTime(9)));
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert!(
            events[1].wall_ns >= events[0].wall_ns,
            "wall clock monotonic"
        );
        assert_eq!(events[0].virtual_ts, SimTime(5));
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let rec = FlightRecorder::new(3);
        for i in 0..5u64 {
            rec.record(Event::instant("x", "e", SimTime(i)));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
        assert_eq!(rec.total_recorded(), 5);
        let events = rec.events();
        // Oldest two were evicted; sequence numbers survive eviction.
        assert_eq!(events[0].seq, 2);
        assert_eq!(events[2].seq, 4);
    }

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let rec = FlightRecorder::new(4);
        let a = rec.next_span();
        let b = rec.next_span();
        assert!(!a.is_none());
        assert_ne!(a, b);
    }

    #[test]
    fn metrics_flow_through_trait() {
        let rec: Arc<dyn Recorder> = FlightRecorder::shared(8);
        rec.counter("ops", 2);
        rec.gauge("depth", 1.0);
        rec.observe("lat", 42.0);
        let snap = rec.metrics().unwrap();
        assert_eq!(snap.counter("ops"), 2);
        assert_eq!(snap.gauge("depth"), Some(1.0));
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing_under_capacity() {
        let rec = FlightRecorder::shared(10_000);
        std::thread::scope(|s| {
            for t in 0..4 {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    for i in 0..500u64 {
                        rec.record(
                            Event::instant("thread", "tick", SimTime(i)).field("thread", t as u64),
                        );
                        rec.counter("ticks", 1);
                    }
                });
            }
        });
        assert_eq!(rec.len(), 2_000);
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.metrics().unwrap().counter("ticks"), 2_000);
        // seq numbers are unique
        let mut seqs: Vec<u64> = rec.events().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 2_000);
    }
}
