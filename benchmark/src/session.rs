//! The session glue of `crates/cli` (`session.rs` + `cmd_apply` and
//! `cmd_state_rollback`), mirrored call for call through the public facade,
//! and the child process that runs one such command.
//!
//! `Session` is private to the CLI binary and VAL307 rejects the scale
//! programs on default quotas, so the shipped binary cannot run these
//! workloads. The one difference here is the catalog: every schema's
//! `default_quota` is raised to 1 000 000. `fidelity.rs` holds this mirror
//! to the shipped binary, byte for byte, on a program that fits the quotas.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use cloudless::cloud::{Catalog, CloudConfig, ResourceRecord};
use cloudless::deploy::{ApplyReport, ResiliencePolicy};
use cloudless::obs::{FlightRecorder, NullRecorder, Recorder};
use cloudless::state::{LogStore, Snapshot};
use cloudless::types::ResourceId;
use cloudless::{Cloudless, Config};
use serde::Json;

use crate::span::{Span, Tracer};
use crate::staged::{Counts, Staged};

/// The standard catalog with quotas raised out of the way (as E16's
/// `quota_raised_catalog`).
pub fn catalog() -> Catalog {
    let mut catalog = Catalog::standard();
    let raised: Vec<_> = catalog.iter().cloned().collect();
    for mut schema in raised {
        schema.default_quota = 1_000_000;
        catalog.add(schema);
    }
    catalog
}

/// The engine configuration `Session::engine_with_obs` builds.
pub fn config(recorder: Arc<dyn Recorder>) -> Config {
    Config {
        cloud: CloudConfig {
            catalog: catalog(),
            ..CloudConfig::exact()
        },
        resilience: ResiliencePolicy::standard(),
        recorder,
        ..Config::default()
    }
}

pub type Records = BTreeMap<ResourceId, ResourceRecord>;

/// A session directory: `state.log` + `state.json` + `cloud.json`.
pub struct Session {
    pub dir: PathBuf,
}

impl Session {
    /// `Session::init` without the starter program.
    pub fn init(dir: &Path) -> Result<Session, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let s = Session {
            dir: dir.to_owned(),
        };
        std::fs::write(s.state_path(), Snapshot::new().to_json()).map_err(|e| e.to_string())?;
        LogStore::open_file(&s.log_path()).map_err(|e| e.to_string())?;
        std::fs::write(s.cloud_path(), "{}").map_err(|e| e.to_string())?;
        Ok(s)
    }

    pub fn at(dir: &Path) -> Session {
        Session {
            dir: dir.to_owned(),
        }
    }

    pub fn state_path(&self) -> PathBuf {
        self.dir.join("state.json")
    }

    pub fn log_path(&self) -> PathBuf {
        self.dir.join("state.log")
    }

    pub fn cloud_path(&self) -> PathBuf {
        self.dir.join("cloud.json")
    }

    pub fn metrics_path(&self) -> PathBuf {
        self.dir.join("metrics.json")
    }

    /// `Session::engine_with_obs` for a log-native session, split at its
    /// layer boundaries so the traced pass can put a span on each.
    pub fn load_records(&self, t: &mut Tracer) -> Result<Records, String> {
        t.span("cli.cloud_json_load", |_| {
            let text = std::fs::read_to_string(self.cloud_path()).map_err(|e| e.to_string())?;
            serde_json::from_str(&text).map_err(|e| format!("cloud.json corrupt: {e}"))
        })
    }

    pub fn open_log(&self, t: &mut Tracer) -> Result<LogStore, String> {
        t.span("state.log_open", |_| {
            LogStore::open_file(&self.log_path())
                .map(|(store, _recovery)| store)
                .map_err(|e| e.to_string())
        })
    }

    pub fn engine(&self, recorder: Arc<dyn Recorder>, t: &mut Tracer) -> Result<Cloudless, String> {
        let records = self.load_records(t)?;
        let store = self.open_log(t)?;
        Ok(t.span("cloud.import_records", |_| {
            Cloudless::with_store(config(recorder), store, records)
        }))
    }

    /// `Session::save`: the `state.json` mirror, then the cloud's records.
    pub fn save(&self, state: &Snapshot, records: &Records, t: &mut Tracer) -> Result<(), String> {
        t.span("cli.state_json_save", |_| {
            std::fs::write(self.state_path(), state.to_json()).map_err(|e| e.to_string())
        })?;
        t.span("cli.cloud_json_save", |_| {
            let json = serde_json::to_string_pretty(records).map_err(|e| e.to_string())?;
            std::fs::write(self.cloud_path(), json).map_err(|e| e.to_string())
        })
    }
}

pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// What one child process did. Every field is a number so one table
/// drives both directions of the wire format.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChildReport {
    pub open_ms: f64,
    /// `converge` for apply, `rollback_state` for rollback,
    /// `IncrementalPipeline::run` for frontend-cold.
    pub work_ms: f64,
    pub save_ms: f64,
    pub peak_rss_kb: f64,
    pub resources: f64,
    pub serial: f64,
    pub ops_submitted: f64,
    pub attempts: f64,
    pub retries: f64,
    pub nodes_failed: f64,
    pub makespan_ms: f64,
    pub log_bytes: f64,
    pub events_recorded: f64,
    pub events_dropped: f64,
    pub cloud_ops: f64,
    pub cloud_throttled: f64,
    pub runs_incremental: f64,
    pub runs_full: f64,
    pub evictions: f64,
    pub memo_bytes: f64,
}

impl ChildReport {
    /// What every session-touching child reports last.
    fn finish(&mut self, state: &Snapshot, log_bytes: u64) {
        self.resources = state.len() as f64;
        self.serial = state.serial as f64;
        self.log_bytes = log_bytes as f64;
        self.peak_rss_kb = peak_rss_kb();
    }
}

type Field = (&'static str, fn(&mut ChildReport) -> &mut f64);

const FIELDS: [Field; 20] = [
    ("open_ms", |r| &mut r.open_ms),
    ("work_ms", |r| &mut r.work_ms),
    ("save_ms", |r| &mut r.save_ms),
    ("peak_rss_kb", |r| &mut r.peak_rss_kb),
    ("resources", |r| &mut r.resources),
    ("serial", |r| &mut r.serial),
    ("ops_submitted", |r| &mut r.ops_submitted),
    ("attempts", |r| &mut r.attempts),
    ("retries", |r| &mut r.retries),
    ("nodes_failed", |r| &mut r.nodes_failed),
    ("makespan_ms", |r| &mut r.makespan_ms),
    ("log_bytes", |r| &mut r.log_bytes),
    ("events_recorded", |r| &mut r.events_recorded),
    ("events_dropped", |r| &mut r.events_dropped),
    ("cloud_ops", |r| &mut r.cloud_ops),
    ("cloud_throttled", |r| &mut r.cloud_throttled),
    ("runs_incremental", |r| &mut r.runs_incremental),
    ("runs_full", |r| &mut r.runs_full),
    ("evictions", |r| &mut r.evictions),
    ("memo_bytes", |r| &mut r.memo_bytes),
];

/// The last stdout line of a child: its report, and from a staged child
/// the spans and boundary counts as well.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChildOutput {
    pub report: ChildReport,
    pub spans: Vec<Span>,
    pub counts: Counts,
}

/// Any JSON number, as a float.
pub fn as_f64(j: &Json) -> Option<f64> {
    match j {
        Json::F64(f) => Some(*f),
        Json::U64(n) => Some(*n as f64),
        Json::I64(n) => Some(*n as f64),
        _ => None,
    }
}

impl ChildOutput {
    pub fn to_line(&self) -> String {
        let mut report = self.report.clone();
        let fields = FIELDS
            .iter()
            .map(|(k, get)| ((*k).to_owned(), Json::F64(*get(&mut report))))
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Str(s.name.clone()),
                    Json::U64(s.start_ns),
                    Json::U64(s.end_ns),
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    Json::U64(u64::from(s.op_id)),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    Json::Arr(v.iter().map(|x| Json::F64(*x)).collect()),
                )
            })
            .collect();
        let doc = Json::Obj(vec![
            ("report".into(), Json::Obj(fields)),
            ("spans".into(), Json::Arr(spans)),
            ("counts".into(), Json::Obj(counts)),
        ]);
        serde_json::to_string(&doc).expect("json renders")
    }

    pub fn from_line(line: &str) -> Result<ChildOutput, String> {
        let bad = |what: &str| format!("child output: bad {what}");
        let doc: Json = serde_json::from_str(line).map_err(|e| format!("child output: {e}"))?;
        let mut out = ChildOutput::default();
        for (k, get) in FIELDS {
            let v = doc.get("report").and_then(|r| r.get(k)).and_then(as_f64);
            *get(&mut out.report) = v.ok_or_else(|| bad(k))?;
        }
        let Some(Json::Arr(spans)) = doc.get("spans") else {
            return Err(bad("spans"));
        };
        for s in spans {
            let Json::Arr(f) = s else {
                return Err(bad("span"));
            };
            let (Some(Json::Str(name)), Some(start), Some(end), Some(parent), Some(op)) = (
                f.first(),
                f.get(1).and_then(as_f64),
                f.get(2).and_then(as_f64),
                f.get(3),
                f.get(4).and_then(as_f64),
            ) else {
                return Err(bad("span"));
            };
            out.spans.push(Span {
                name: name.clone(),
                start_ns: start as u64,
                end_ns: end as u64,
                parent: as_f64(parent).map(|p| p as usize),
                op_id: op as u32,
            });
        }
        let Some(Json::Obj(counts)) = doc.get("counts") else {
            return Err(bad("counts"));
        };
        for (k, v) in counts {
            let Json::Arr(v) = v else {
                return Err(bad("count"));
            };
            let samples = v.iter().map(as_f64).collect::<Option<Vec<f64>>>();
            out.counts
                .insert(k.clone(), samples.ok_or_else(|| bad("count"))?);
        }
        Ok(out)
    }
}

/// Peak resident set of this process so far (`VmHWM`), in kB.
pub fn peak_rss_kb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn apply_counts(report: &mut ChildReport, apply: &ApplyReport, recorder: &FlightRecorder) {
    report.ops_submitted = apply.ops_submitted as f64;
    report.attempts = apply.total_attempts() as f64;
    report.retries = apply.retries as f64;
    report.nodes_failed = (apply.failures() + apply.skips()) as f64;
    report.makespan_ms = apply.makespan().millis() as f64;
    report.events_recorded = recorder.total_recorded() as f64;
    report.events_dropped = recorder.dropped() as f64;
}

/// Persist the flight recorder's metrics as `cmd_apply` does, and read the
/// counters the report carries.
fn save_metrics(
    session: &Session,
    recorder: &FlightRecorder,
    report: &mut ChildReport,
) -> Result<(), String> {
    let _captured = recorder.events();
    if let Some(metrics) = Recorder::metrics(recorder) {
        let json = serde_json::to_string_pretty(&metrics).map_err(|e| e.to_string())?;
        std::fs::write(session.metrics_path(), json).map_err(|e| e.to_string())?;
        report.cloud_ops = metrics.counter("cloud.ops_submitted") as f64;
        report.cloud_throttled = metrics.counter("cloud.ops_throttled") as f64;
        report.runs_incremental = metrics.counter("pipeline.runs_incremental") as f64;
        report.runs_full = metrics.counter("pipeline.runs_full") as f64;
        report.evictions = metrics.counter("pipeline.evictions") as f64;
    }
    Ok(())
}

fn print_apply(plan_text: &str, apply: &ApplyReport) {
    print!("{plan_text}");
    println!(
        "apply ({}): {} op(s), {} attempt(s), {} retry(ies), virtual makespan {}",
        apply.strategy,
        apply.ops_submitted,
        apply.total_attempts(),
        apply.retries,
        apply.makespan()
    );
}

/// One CLI command in a process of its own. `apply <dir> <file.tf>` is
/// `cmd_apply` and `rollback <dir> <serial>` is `cmd_state_rollback`;
/// `staged-apply` is `cmd_apply` over the staged replica with spans on, and
/// `frontend-cold` runs only the real front end, memo build included, and
/// leaves the session untouched. Each prints what the CLI prints, then the
/// output line, and returns normally so the engine is dropped as in the CLI.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let verb = args
        .first()
        .map(String::as_str)
        .ok_or("--child needs a verb")?;
    if verb == "calibrate" {
        crate::calibrate::kernel();
        return Ok(());
    }
    let dir = args.get(1).ok_or("--child needs a session directory")?;
    let session = Session::at(Path::new(dir));
    if !session.state_path().exists() {
        return Err(format!("{dir} is not a session"));
    }
    let read_program = || -> Result<String, String> {
        let file = args.get(2).ok_or("missing program file")?;
        std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))
    };
    let mut out = ChildOutput::default();
    let report = &mut out.report;
    match verb {
        "apply" => {
            let source = read_program()?;
            // every apply runs under a flight recorder, as in the CLI
            let recorder = Arc::new(FlightRecorder::default());
            let t = Instant::now();
            let mut engine = session.engine(recorder.clone(), &mut Tracer::off())?;
            report.open_ms = ms(t);
            let t = Instant::now();
            let converged = engine.converge_targeted(&source, &[]);
            report.work_ms = ms(t);
            save_metrics(&session, &recorder, report)?;
            let outcome = converged.map_err(|e| format!("apply refused: {e}"))?;
            print_apply(&outcome.plan_text, &outcome.apply);
            let t = Instant::now();
            session.save(
                engine.state(),
                engine.cloud().export_records(),
                &mut Tracer::off(),
            )?;
            report.save_ms = ms(t);
            let _ = std::fs::remove_file(session.dir.join("checkpoint.json"));
            apply_counts(report, &outcome.apply, &recorder);
            report.finish(engine.state(), engine.store().log_bytes());
        }
        "staged-apply" => {
            let source = read_program()?;
            let recorder = Arc::new(FlightRecorder::default());
            let mut tracer = Tracer::on();
            tracer.next_op();
            let t = Instant::now();
            let records = session.load_records(&mut tracer)?;
            let store = session.open_log(&mut tracer)?;
            let mut staged = Staged::new(config(recorder.clone()), store, records, &mut tracer);
            report.open_ms = ms(t);
            let t = Instant::now();
            let converged = staged.converge(&source, false, &mut tracer, &mut out.counts);
            report.work_ms = ms(t);
            save_metrics(&session, &recorder, report)?;
            let (apply, plan_text, _manifest) = converged?;
            print_apply(&plan_text, &apply);
            let t = Instant::now();
            session.save(staged.state(), staged.cloud.export_records(), &mut tracer)?;
            report.save_ms = ms(t);
            let _ = std::fs::remove_file(session.dir.join("checkpoint.json"));
            apply_counts(report, &apply, &recorder);
            report.finish(staged.state(), staged.store.log_bytes());
            out.spans = tracer.spans().to_vec();
        }
        "frontend-cold" => {
            let source = read_program()?;
            let mut tracer = Tracer::off();
            let records = session.load_records(&mut tracer)?;
            let store = session.open_log(&mut tracer)?;
            let mut staged =
                Staged::new(config(Arc::new(NullRecorder)), store, records, &mut tracer);
            let (ms, bytes) = staged.frontend_cold(&source)?;
            report.work_ms = ms;
            report.memo_bytes = bytes as f64;
            report.peak_rss_kb = peak_rss_kb();
        }
        "rollback" => {
            let serial: u64 = args
                .get(2)
                .ok_or("rollback needs a target serial")?
                .parse()
                .map_err(|e| format!("bad serial: {e}"))?;
            let t = Instant::now();
            let mut engine = session.engine(Arc::new(NullRecorder), &mut Tracer::off())?;
            report.open_ms = ms(t);
            let t = Instant::now();
            let committed = engine.rollback_state(serial)?;
            report.work_ms = ms(t);
            match committed {
                Some(new) => {
                    println!("state rolled back to serial {serial} (committed as serial {new})")
                }
                None => println!("state already matches serial {serial}; nothing to do"),
            }
            let t = Instant::now();
            session.save(
                engine.state(),
                engine.cloud().export_records(),
                &mut Tracer::off(),
            )?;
            report.save_ms = ms(t);
            report.finish(engine.state(), engine.store().log_bytes());
        }
        other => return Err(format!("unknown child verb {other:?}")),
    }
    println!("{}", out.to_line());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_round_trips_through_its_line() {
        let mut out = ChildOutput::default();
        out.report.work_ms = 12.5;
        out.report.memo_bytes = 4096.0;
        out.spans.push(Span {
            name: "hcl.parse".into(),
            start_ns: 10,
            end_ns: 30,
            parent: None,
            op_id: 1,
        });
        out.spans.push(Span {
            name: "hcl.classify".into(),
            start_ns: 12,
            end_ns: 20,
            parent: Some(0),
            op_id: 1,
        });
        out.counts.insert("hcl.blocks".into(), vec![3.0, 4.0]);
        let line = out.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(ChildOutput::from_line(&line), Ok(out));
        assert!(ChildOutput::from_line("{}").is_err());
    }
}
