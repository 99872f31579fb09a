//! Host-speed calibration: a fixed reference kernel, interleaved with the
//! timed operations.
//!
//! The sandboxes this benchmark runs in drift in speed by tens of percent
//! over minutes, which a median over one run's samples cannot remove. Every
//! time is therefore reported in *reference milliseconds*: the measured
//! wall time divided by the run's speed factor, the median time of this
//! kernel (run as a child process, spawn→exit) during the run over
//! [`NOMINAL_MS`]. The kernel is shaped like the
//! product — many small heap strings in ordered maps, rendered to text and
//! looked up again — and does the same work every time.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::gen::{fnv64, SplitMix64};

/// The kernel's time on the reference host as a child process, spawn→exit;
/// it makes reference milliseconds read like milliseconds there.
pub const NOMINAL_MS: f64 = 125.0;

const ENTRIES: usize = 40_000;

/// Returns a checksum so the work cannot be optimized away.
pub fn kernel() -> u64 {
    let mut rng = SplitMix64::new(0xCA11_B8A7);
    let mut map: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    for i in 0..ENTRIES {
        let attrs = (0..6)
            .map(|a| {
                (
                    format!("attr{a}"),
                    format!("value-{i}-{}", rng.next_u64() % 1000),
                )
            })
            .collect();
        map.insert(format!("aws_type_{}.r{i}", rng.range(0, 5)), attrs);
    }
    let mut text = String::new();
    for (key, attrs) in &map {
        let _ = write!(text, "{key:?}: {{");
        for (name, value) in attrs {
            let _ = write!(text, "{name:?}: {value:?}, ");
        }
        text.push_str("}\n");
    }
    let mut sum = fnv64(text.as_bytes());
    for line in text.lines() {
        let key = line.split('"').nth(1).unwrap_or("");
        sum ^= map.get(key).map_or(0, |attrs| attrs.len() as u64);
    }
    std::hint::black_box(sum)
}
