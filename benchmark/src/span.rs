//! Harness-side spans: one around every call into a product layer.
//!
//! Spans stay in memory and are written out when the run ends. A span's
//! self time is its duration minus its direct children's (everything runs
//! on one thread, so children never overlap). With the tracer off, `span`
//! only calls the closure.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`; the metric `<name>_ms` reports its self time.
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one timed operation share an id.
    pub op_id: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op_id: u32,
}

impl Tracer {
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    /// Start the next timed operation; later spans carry the new id.
    pub fn next_op(&mut self) -> u32 {
        self.op_id += 1;
        self.op_id
    }

    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in ns, index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self time in ms per span name, one sample per operation that ran the
/// span (a name hit several times in one operation is summed).
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&str, Vec<f64>> {
    let own = self_times(spans);
    let mut per_op: BTreeMap<(&str, u32), u64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *per_op.entry((&s.name, s.op_id)).or_insert(0) += ns;
    }
    let mut out: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in per_op {
        out.entry(name).or_default().push(ns as f64 / 1e6);
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, the layer as its category.
pub fn chrome_trace(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            let layer = s.name.split('.').next().unwrap_or("");
            Json::Obj(vec![
                ("name".into(), Json::Str(s.name.clone())),
                ("cat".into(), Json::Str(layer.into())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), Json::F64(s.start_ns as f64 / 1e3)),
                ("dur".into(), Json::F64(s.dur_ns() as f64 / 1e3)),
                ("pid".into(), Json::U64(1)),
                ("tid".into(), Json::U64(1)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("op_id".into(), Json::U64(u64::from(s.op_id))),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]);
    serde_json::to_string(&doc).expect("json renders")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u32) -> Span {
        Span {
            name: name.to_owned(),
            start_ns: start,
            end_ns: end,
            parent,
            op_id: op,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("core.converge", 0, 100, None, 1),
            span("hcl.parse", 10, 30, Some(0), 1),
            span("deploy.apply", 40, 90, Some(0), 1),
            span("cloud.submit", 50, 70, Some(2), 1),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
        // self times partition the root: nothing is counted twice
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn samples_are_per_operation_and_repeats_are_summed() {
        let spans = vec![
            span("hcl.parse", 0, 2_000_000, None, 1),
            span("hcl.parse", 3_000_000, 4_000_000, None, 1),
            span("hcl.parse", 5_000_000, 9_000_000, None, 2),
        ];
        assert_eq!(self_ms_by_name(&spans)["hcl.parse"], vec![3.0, 4.0]);
    }

    #[test]
    fn tracer_nests_and_off_records_nothing() {
        let mut t = Tracer::on();
        t.next_op();
        let v = t.span("core.converge", |t| t.span("hcl.parse", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op_id, 1);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let mut off = Tracer::off();
        assert_eq!(off.span("core.converge", |_| 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_json_with_one_event_per_span() {
        let spans = vec![span("hcl.parse", 1_000, 3_000, None, 1)];
        let doc: Json = serde_json::from_str(&chrome_trace(&spans)).unwrap();
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("cat"), Some(&Json::Str("hcl".into())));
        assert_eq!(events[0].get("dur"), Some(&Json::F64(2.0)));
    }
}
