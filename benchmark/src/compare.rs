//! `compare A.jsonl B.jsonl`: per end-to-end metric and workload, both
//! sides' medians and quartiles, the ratio with its base, and a verdict by
//! the rules of the `choosing-metrics` guide (§6–§8).
//!
//! Each file holds one JSON line per pass (`--out` appends), so ten
//! invocations a side give the ten samples the quartiles are taken over.
//! `A` is the parent, `B` the change.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Json;

use crate::metrics::{Def, END_TO_END};
use crate::session::as_f64;
use crate::stats::{median, quartiles};
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Regressed,
    /// The parent's own run-to-run spread is wider than the bound, so a
    /// change of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn iqr(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(v);
    q3 - q1
}

/// `a` are the parent's runs, `b` the change's, in the order they ran (run
/// `i` of one side is paired with run `i` of the other).
pub fn classify(a: &[f64], b: &[f64], def: &Def) -> Verdict {
    let lower = def.better == "lower";
    let beats = |x: f64, y: f64| if lower { x < y } else { x > y };
    let (ma, mb) = (median(a), median(b));
    // how much worse the change's median is, as a share of the parent's
    let worse = if lower { mb - ma } else { ma - mb } / ma.abs();
    let every = |f: &dyn Fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| f(y, x)));
    if iqr(a) / ma.abs() > def.bound {
        return if every(&|y, x| beats(y, x)) {
            Verdict::Better
        } else if worse > def.bound && every(&|y, x| beats(x, y)) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse > def.bound {
        return Verdict::Regressed;
    }
    // a gain: the change wins nine tenths of all pairs (ties count for
    // neither side) and the medians differ by more than the parent's spread
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| beats(y, x)).count();
    if wins * 10 >= pairs * 9 && (ma - mb).abs() > iqr(a) && beats(mb, ma) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// One side: samples by `(workload, metric)`, failures by workload, facts
/// by `(workload, seed)`.
#[derive(Default)]
struct Side {
    samples: BTreeMap<(String, String), Vec<f64>>,
    failed: BTreeMap<String, (u64, u64)>,
    facts: BTreeMap<(String, u64), BTreeMap<String, String>>,
}

fn num(j: Option<&Json>) -> Option<f64> {
    j.and_then(as_f64)
}

fn load(path: &str) -> Result<Side, String> {
    let text =
        std::fs::read_to_string(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut side = Side::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
        let run: Json = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
        let (Some(Json::Str(workload)), Some(Json::Bool(trace))) =
            (run.get("workload"), run.get("trace"))
        else {
            return Err(bad("no `workload` or `trace`"));
        };
        if *trace {
            continue;
        }
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err(bad("no `metrics`"));
        };
        for (name, m) in metrics {
            let value = num(m.get("value")).ok_or_else(|| bad("metric lacks `value`"))?;
            side.samples
                .entry((workload.clone(), name.clone()))
                .or_default()
                .push(value);
        }
        let counts = side.failed.entry(workload.clone()).or_default();
        counts.0 += num(run.get("failed")).unwrap_or(0.0) as u64;
        counts.1 += num(run.get("attempted")).unwrap_or(0.0) as u64;
        if let (Some(seed), Some(Json::Obj(facts))) = (num(run.get("seed")), run.get("facts")) {
            let facts = facts.iter().filter_map(|(k, v)| match v {
                Json::Str(s) => Some((k.clone(), s.clone())),
                _ => None,
            });
            side.facts
                .entry((workload.clone(), seed as u64))
                .or_default()
                .extend(facts);
        }
    }
    Ok(side)
}

fn describe(v: &[f64]) -> String {
    if v.len() < 2 {
        return format!("{:.4} (n={})", median(v), v.len());
    }
    let (q1, q3) = quartiles(v);
    format!("{:.4} [{:.4}, {:.4}] (n={})", median(v), q1, q3, v.len())
}

/// Returns whether nothing regressed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("compare needs two result files: A.jsonl B.jsonl".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    println!("A = {a_path} (parent), B = {b_path} (change); median [q1, q3]");
    for workload in Workload::ALL {
        for def in &END_TO_END {
            let key = (workload.name().to_owned(), def.name.to_owned());
            let (Some(va), Some(vb)) = (a.samples.get(&key), b.samples.get(&key)) else {
                continue;
            };
            let verdict = classify(va, vb, def);
            ok &= verdict != Verdict::Regressed;
            println!(
                "{} {} {}: A {} | B {} | B/A {:.3} of {:.4} | bound {} {} | {}",
                workload.name(),
                def.name,
                def.unit,
                describe(va),
                describe(vb),
                median(vb) / median(va),
                median(va),
                def.bound,
                def.better,
                verdict.name()
            );
        }
        let share = |s: &Side| {
            let (failed, attempted) = s.failed.get(workload.name()).copied().unwrap_or((0, 0));
            failed as f64 / attempted.max(1) as f64
        };
        let (fa, fb) = (share(&a), share(&b));
        if fb > fa {
            ok = false;
        }
        println!(
            "{} ops_failed_share ratio: A {fa} | B {fb} | {}",
            workload.name(),
            if fb > fa { "ROSE" } else { "did not rise" }
        );
    }
    // counts and checksums of one (workload, seed) must agree exactly
    for (key, fa) in &a.facts {
        let Some(fb) = b.facts.get(key) else {
            continue;
        };
        for (name, va) in fa {
            match fb.get(name) {
                Some(vb) if vb != va => {
                    println!("{} seed {}: {name} differs: A {va} | B {vb}", key.0, key.1)
                }
                _ => {}
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Def = Def {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    };
    const HIGHER: Def = Def {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
    };

    fn around(center: f64, spread: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + spread * (f64::from(i) - 4.5) / 4.5))
            .collect()
    }

    #[test]
    fn same_code_is_within_bound() {
        assert_eq!(
            classify(&around(100.0, 0.02), &around(100.5, 0.02), &LOWER),
            Verdict::WithinBound
        );
    }

    #[test]
    fn a_median_worse_by_more_than_the_bound_regresses() {
        assert_eq!(
            classify(&around(100.0, 0.02), &around(115.0, 0.02), &LOWER),
            Verdict::Regressed
        );
        assert_eq!(
            classify(&around(100.0, 0.02), &around(85.0, 0.02), &HIGHER),
            Verdict::Regressed
        );
        // worse, but inside the bound
        assert_eq!(
            classify(&around(100.0, 0.02), &around(108.0, 0.02), &LOWER),
            Verdict::WithinBound
        );
    }

    #[test]
    fn a_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_spread() {
        assert_eq!(
            classify(&around(100.0, 0.02), &around(80.0, 0.02), &LOWER),
            Verdict::Better
        );
        assert_eq!(
            classify(&around(100.0, 0.02), &around(120.0, 0.02), &HIGHER),
            Verdict::Better
        );
        // medians differ by less than the parent's own spread
        assert_eq!(
            classify(&around(100.0, 0.04), &around(99.0, 0.04), &LOWER),
            Verdict::WithinBound
        );
        // a better median, but the change loses three pairs in ten
        let a = around(100.0, 0.0);
        let mut b = vec![90.0; 10];
        b[0] = 101.0;
        b[1] = 101.0;
        b[2] = 101.0;
        assert_eq!(classify(&a, &b, &LOWER), Verdict::WithinBound);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_agrees() {
        let noisy = around(100.0, 0.3);
        assert_eq!(
            classify(&noisy, &around(105.0, 0.3), &LOWER),
            Verdict::Unresolved
        );
        assert_eq!(
            classify(&noisy, &around(95.0, 0.3), &LOWER),
            Verdict::Unresolved
        );
        // every run of the change beats every run of the parent
        assert_eq!(
            classify(&noisy, &around(40.0, 0.1), &LOWER),
            Verdict::Better
        );
        assert_eq!(
            classify(&noisy, &around(300.0, 0.1), &LOWER),
            Verdict::Regressed
        );
    }

    #[test]
    fn single_runs_are_judged_on_the_bound_alone() {
        assert_eq!(classify(&[100.0], &[105.0], &LOWER), Verdict::WithinBound);
        assert_eq!(classify(&[100.0], &[120.0], &LOWER), Verdict::Regressed);
    }
}
