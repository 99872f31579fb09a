//! What a run prints and writes: the metric table, the contract's result
//! line, the JSON-lines record `compare` reads, and the Chrome trace.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use serde::Json;

use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::span::chrome_trace;
use crate::workloads::{Outcome, Params};

#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub def: Def,
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

/// One pass of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    pub workload: &'static str,
    pub seed: u64,
    pub resources: usize,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub values: Vec<Value>,
    pub facts: BTreeMap<String, String>,
    pub notes: BTreeMap<String, String>,
}

impl Pass {
    /// Every metric of the pass, in registry order. An end-to-end metric
    /// must have been measured; a per-layer metric the workload never
    /// exercises reads 0.
    pub fn new(p: &Params, outcome: &Outcome) -> Result<Pass, String> {
        let defs: &[Def] = if p.trace { &PER_LAYER } else { &END_TO_END };
        let mut values = Vec::with_capacity(defs.len());
        for def in defs {
            let (value, n) = match outcome.samples.value(def.name) {
                Some(v) => v,
                None if p.trace => (0.0, 0),
                None => return Err(format!("{} was not measured", def.name)),
            };
            values.push(Value {
                def: *def,
                value,
                n,
            });
        }
        Ok(Pass {
            workload: p.workload.name(),
            seed: p.seed,
            resources: p.resources,
            trace: p.trace,
            correct: outcome.check.failed == 0,
            attempted: outcome.check.attempted.max(1),
            failed: outcome.check.failed,
            failures: outcome.check.failures.clone(),
            values,
            facts: outcome.facts.clone(),
            notes: outcome.notes.clone(),
        })
    }

    /// `name unit value (n=…)`, one metric a line.
    pub fn print_table(&self) {
        println!(
            "== {} ({}, seed {}, {} resources)",
            self.workload,
            if self.trace { "traced" } else { "untraced" },
            self.seed,
            self.resources
        );
        for v in &self.values {
            println!("{} {} {} (n={})", v.def.name, v.def.unit, v.value, v.n);
        }
        for (k, v) in self.facts.iter().chain(&self.notes) {
            println!("# {k} = {v}");
        }
        for f in self.failures.iter().take(20) {
            println!("FAILED: {f}");
        }
        println!(
            "ops_failed_share ratio {} ({} of {})",
            self.failed as f64 / self.attempted as f64,
            self.failed,
            self.attempted
        );
    }

    fn metrics_json(&self, with_n: bool) -> Json {
        Json::Obj(
            self.values
                .iter()
                .map(|v| {
                    let mut fields = vec![
                        ("value".to_owned(), Json::F64(v.value)),
                        ("unit".to_owned(), Json::Str(v.def.unit.to_owned())),
                    ];
                    if with_n {
                        fields.push(("n".to_owned(), Json::U64(v.n as u64)));
                    }
                    (v.def.name.to_owned(), Json::Obj(fields))
                })
                .collect(),
        )
    }

    /// The driver's contract: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, on one line.
    pub fn contract_line(&self) -> String {
        let doc = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::U64(self.attempted)),
            ("failed".into(), Json::U64(self.failed)),
            ("metrics".into(), self.metrics_json(false)),
        ]);
        serde_json::to_string(&doc).expect("json renders")
    }

    fn record(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.into())),
            ("trace".into(), Json::Bool(self.trace)),
            ("seed".into(), Json::U64(self.seed)),
            ("resources".into(), Json::U64(self.resources as u64)),
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::U64(self.attempted)),
            ("failed".into(), Json::U64(self.failed)),
            ("metrics".into(), self.metrics_json(true)),
            ("facts".into(), strings(&self.facts)),
            ("notes".into(), strings(&self.notes)),
        ])
    }
}

fn strings(map: &BTreeMap<String, String>) -> Json {
    Json::Obj(
        map.iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect(),
    )
}

/// Append one pass's result to `path` as a single JSON line, so repeated
/// runs accumulate the samples `compare` takes quartiles over.
pub fn append(path: &Path, pass: &Pass) -> Result<(), String> {
    let line = serde_json::to_string(&pass.record()).expect("json renders");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `out/trace-<workload>.json`, for `chrome://tracing` or Perfetto.
pub fn write_trace(p: &Params, outcome: &Outcome) -> Result<(), String> {
    std::fs::create_dir_all(&p.out_dir).map_err(|e| e.to_string())?;
    let path = p.out_dir.join(format!("trace-{}.json", p.workload.name()));
    std::fs::write(&path, chrome_trace(&outcome.spans))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "# trace: {} span(s) in {}",
        outcome.spans.len(),
        path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn params(trace: bool) -> Params {
        Params {
            workload: Workload::Greenfield,
            seed: 42,
            seconds: 0.0,
            trace,
            resources: 2000,
            out_dir: "out".into(),
        }
    }

    #[test]
    fn contract_line_has_exactly_the_prescribed_keys() {
        let mut outcome = Outcome::default();
        for def in END_TO_END {
            outcome.samples.extend(def.name, &[1.5, 2.5, 3.5]);
        }
        outcome.check.expect(true, String::new);
        let result = Pass::new(&params(false), &outcome).unwrap();
        let line = result.contract_line();
        assert!(!line.contains('\n'));
        let doc: Json = serde_json::from_str(&line).unwrap();
        let Json::Obj(fields) = &doc else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted"), Some(&Json::U64(1)));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("no metrics");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, expected);
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value"), Some(&Json::F64(2.5)));
        assert_eq!(setup.get("unit"), Some(&Json::Str("s".into())));
    }

    #[test]
    fn an_unmeasured_end_to_end_metric_is_an_error_but_a_layer_reads_zero() {
        let outcome = Outcome::default();
        assert!(Pass::new(&params(false), &outcome).is_err());
        let traced = Pass::new(&params(true), &outcome).unwrap();
        assert_eq!(traced.values.len(), PER_LAYER.len());
        assert!(traced.values.iter().all(|v| v.value == 0.0 && v.n == 0));
        // no operation ran, yet `attempted` is at least 1
        assert_eq!(traced.attempted, 1);
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut outcome = Outcome::default();
        outcome.check.expect(false, || "broken".to_owned());
        let traced = Pass::new(&params(true), &outcome).unwrap();
        assert!(!traced.correct);
        assert_eq!((traced.attempted, traced.failed), (1, 1));
        assert_eq!(traced.failures, ["broken"]);
    }
}
