//! The four workloads.
//!
//! Every workload reports the same end-to-end metrics; what its two timed
//! operations are is the workload's own:
//!
//! | workload | `op` (`op_p50_ms`, `op_p90_ms`) | `alt` (`alt_p50_ms`) |
//! |---|---|---|
//! | `greenfield` | apply child into an empty session | re-apply child, nothing changed |
//! | `edit-reapply` | apply child after a one-block edit | rollback child |
//! | `watch-edits` | `plan_incremental` after a one-block save | after a structural save or a typo's fix |
//! | `drift-reconcile` | `watch_drift` + `reconcile` of a drifted estate | dry-run `reconcile` of a clean one |
//!
//! All loops are closed: one harness thread, one child at a time, the next
//! operation starts when the previous one returns. A workload runs whole
//! rounds until `--seconds` have passed (at least one), so counts per round
//! repeat exactly while the number of rounds follows the host's speed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use cloudless::hcl::fingerprint::ChunkMap;
use cloudless::obs::{FlightRecorder, NullRecorder, Recorder};
use cloudless::state::{fsck_file, LogStore, Snapshot};
use cloudless::types::value::attrs;
use cloudless::types::Value;
use cloudless::{Cloudless, ConvergeError};

use crate::calibrate;
use crate::gen::{
    drift_script, fleet_blocks, fnv64, reapply_edits, watch_round, DriftShape, Estate, Mutation,
    SaveClass, StreamShape,
};
use crate::metrics::Samples;
use crate::session::{config, file_len, peak_rss_kb, ChildOutput, Records, Session};
use crate::span::{self_ms_by_name, Span, Tracer};
use crate::staged::{Counts, PathCounts, Staged, FRONTEND_SPANS, SCHEDULE_SPAN};
use crate::stats::percentile;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Greenfield,
    EditReapply,
    WatchEdits,
    DriftReconcile,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Greenfield,
        Workload::EditReapply,
        Workload::WatchEdits,
        Workload::DriftReconcile,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Greenfield => "greenfield",
            Workload::EditReapply => "edit-reapply",
            Workload::WatchEdits => "watch-edits",
            Workload::DriftReconcile => "drift-reconcile",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    /// Whole rounds run until this much time has passed; 0 = one round.
    pub seconds: f64,
    pub trace: bool,
    /// Blocks of the layered program (the one recorded scale parameter).
    pub resources: usize,
    /// Scratch space and trace output, inside the checkout.
    pub out_dir: PathBuf,
}

/// How often a workload builds its starting estate; `setup_s` is the
/// median.
const SETUP_REPS: usize = 3;
/// Single-block edits per `edit-reapply` round; the rollbacks then restore
/// the state after edit 3, 2 and 1.
const EDITS_PER_ROUND: usize = 4;
/// The watch stream runs the reference kernel once every this many saves.
const SAVES_PER_CALIBRATION: usize = 16;
/// A round's hard cap, should a host be fast enough to never hit the clock.
const MAX_ROUNDS: usize = 10_000;

const STREAM: StreamShape = StreamShape {
    block: 100,
    cross: 5,
    structural: 3,
    typo: 2,
};
const STREAM_TRACED: StreamShape = StreamShape {
    block: 12,
    cross: 2,
    structural: 2,
    typo: 1,
};

/// The reconcile estate for `resources` blocks: half of them layered, a
/// VM fleet of a tenth, a keyed bucket set of a fortieth; a tenth of the
/// fleet and of the keys is deleted out of band, 100 blocks are edited and
/// 10 rogue buckets appear (112 edit ops whatever the scale).
fn drift_shape(resources: usize) -> DriftShape {
    let fleet = (resources / 10).max(20);
    let keys = (resources / 40).max(10);
    DriftShape {
        fleet,
        keys,
        attr_updates: 100.min(resources / 4),
        fleet_deleted: fleet / 10,
        keys_deleted: keys / 10,
        rogues: 10,
    }
}

/// Failed ÷ attempted, where attempted counts timed harness operations,
/// cloud operations the applies submitted, and correctness checks.
#[derive(Debug, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Check {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    fn cloud_ops(&mut self, submitted: f64, failed: f64) {
        self.attempted += submitted as u64;
        self.failed += failed as u64;
        if failed > 0.0 {
            self.failures
                .push(format!("{failed} plan node(s) failed to apply"));
        }
    }
}

/// What a run leaves behind.
#[derive(Debug, Default)]
pub struct Outcome {
    pub samples: Samples,
    pub check: Check,
    /// Counts and checksums that must repeat exactly for one seed.
    pub facts: BTreeMap<String, String>,
    /// What depends on the host or the clock: rounds run, speed factor.
    pub notes: BTreeMap<String, String>,
    /// Spans of the traced pass, for the Chrome trace.
    pub spans: Vec<Span>,
}

impl Outcome {
    fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.insert(name.to_owned(), value.to_string());
    }

    /// Keep a staged child's spans and counts: one `<span>_ms` sample per
    /// span name, one sample per count.
    fn absorb(&mut self, spans: &[Span], counts: &Counts) {
        for (name, ms) in self_ms_by_name(spans) {
            self.samples.extend(&format!("{name}_ms"), &ms);
        }
        for (name, values) in counts {
            self.samples.extend(name, values);
        }
        self.keep(spans);
    }

    /// Add spans to the merged trace only.
    fn keep(&mut self, spans: &[Span]) {
        // every child and tracer has its own clock and op ids: lay them
        // end to end
        let base = self.spans.len();
        let op = self.spans.iter().map(|s| s.op_id).max().unwrap_or(0);
        let after = self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        self.spans.extend(spans.iter().map(|s| Span {
            name: s.name.clone(),
            start_ns: s.start_ns + after,
            end_ns: s.end_ns + after,
            parent: s.parent.map(|p| p + base),
            op_id: s.op_id + op,
        }));
    }
}

struct ChildRun {
    wall_ms: f64,
    out: ChildOutput,
}

/// Paths and the child runner of one run.
struct Env {
    exe: PathBuf,
    work: PathBuf,
    program: PathBuf,
}

impl Env {
    fn new(p: &Params) -> Result<Env, String> {
        let work = p.out_dir.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work)
            .map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        Ok(Env {
            exe: std::env::current_exe().map_err(|e| e.to_string())?,
            program: work.join("main.tf"),
            work,
        })
    }

    fn write_program(&self, source: &str) -> Result<(), String> {
        std::fs::write(&self.program, source).map_err(|e| e.to_string())
    }

    fn fresh_session(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        Session::init(&dir)?;
        Ok(dir)
    }

    fn copy_session(&self, from: &Path, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
            let entry = entry.map_err(|e| e.to_string())?;
            std::fs::copy(entry.path(), dir.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
        Ok(dir)
    }

    /// Run one child to completion; spawn→exit is the wall time a user of
    /// the CLI waits.
    fn child(&self, verb: &str, dir: &Path, arg: &str) -> Result<ChildRun, String> {
        let t = Instant::now();
        let output = std::process::Command::new(&self.exe)
            .args(["--child", verb])
            .arg(dir)
            .arg(arg)
            .output()
            .map_err(|e| format!("cannot spawn child: {e}"))?;
        let wall_ms = ms(t);
        if !output.status.success() {
            return Err(format!(
                "child {verb} exited with {}: {}",
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("");
        Ok(ChildRun {
            wall_ms,
            out: ChildOutput::from_line(line)?,
        })
    }

    fn apply(&self, verb: &str, dir: &Path) -> Result<ChildRun, String> {
        self.child(verb, dir, &self.program.to_string_lossy())
    }

    /// One run of the reference kernel, always in a process of its own and
    /// timed spawn→exit: a kernel run inside the harness would slow down
    /// with the engine's heap beside it (2× next to a 100k-resource memo),
    /// and the reference must not depend on the product.
    fn calibrate(&self, out: &mut Outcome) -> Result<(), String> {
        let t = Instant::now();
        let status = std::process::Command::new(&self.exe)
            .args(["--child", "calibrate"])
            .status()
            .map_err(|e| format!("cannot spawn child: {e}"))?;
        if !status.success() {
            return Err(format!("child calibrate exited with {status}"));
        }
        out.samples
            .push("speed_factor", ms(t) / calibrate::NOMINAL_MS);
        Ok(())
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn fnv_file(path: &Path) -> Result<u64, String> {
    std::fs::read(path)
        .map(|b| fnv64(&b))
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Checksum of `state.json` without its `serial` line: a rollback restores
/// the resources of an earlier version under a new serial.
fn fnv_state_sans_serial(path: &Path) -> Result<u64, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"serial\":"))
        .collect();
    Ok(fnv64(kept.join("\n").as_bytes()))
}

/// Bytes one apply wrote: `state.log` growth plus the rewritten
/// `state.json` and `cloud.json`. The 2 kB `metrics.json` is left out: it
/// holds wall-clock histograms, so its size does not repeat.
fn bytes_written(dir: &Path, log_before: u64) -> f64 {
    let s = Session::at(dir);
    let log = file_len(&s.log_path()).saturating_sub(log_before);
    (log + file_len(&s.state_path()) + file_len(&s.cloud_path())) as f64
}

/// Whole rounds until the clock runs out; always at least one.
fn rounds(
    seconds: f64,
    mut round: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut done = 0;
    while done == 0 || (start.elapsed().as_secs_f64() < seconds && done < MAX_ROUNDS) {
        round(done)?;
        done += 1;
    }
    Ok(done)
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let env = Env::new(p)?;
    let mut out = Outcome::default();
    out.fact("seed", p.seed);
    out.fact("resources", p.resources);
    match p.workload {
        Workload::Greenfield => greenfield(p, &env, &mut out)?,
        Workload::EditReapply => edit_reapply(p, &env, &mut out)?,
        Workload::WatchEdits => watch_edits(p, &env, &mut out)?,
        Workload::DriftReconcile => drift_reconcile(p, &env, &mut out)?,
    }
    finish(&mut out, p);
    Ok(out)
}

/// The derived values. The traced pass reports times as measured and the
/// host's speed factor beside them; the untraced pass divides every time by
/// the factor, so end-to-end values read in reference milliseconds (see
/// `calibrate.rs`).
fn finish(out: &mut Outcome, p: &Params) {
    let s = &mut out.samples;
    let factor = s.median("speed_factor").unwrap_or(1.0);
    s.set("host.speed_factor", factor, s.get("speed_factor").len());
    out.notes
        .insert("speed_factor".to_owned(), format!("{factor:.4}"));
    let n = |s: &Samples, name: &str| s.get(name).len();
    if p.trace {
        if let Some(m) = s.median("op_ms") {
            s.set("core.op_p50_ms", m, n(s, "op_ms"));
            s.set(
                "core.op_p90_ms",
                percentile(s.get("op_ms"), 90.0),
                n(s, "op_ms"),
            );
        }
        return;
    }
    for (metric, samples) in [
        ("setup_s", "setup_s"),
        ("op_p50_ms", "op_ms"),
        ("alt_p50_ms", "alt_ms"),
    ] {
        if let Some(m) = s.median(samples) {
            s.set(metric, m / factor, n(s, samples));
        }
    }
    let total_s = s.get("timed_ms").iter().sum::<f64>() / 1e3 / factor;
    if total_s > 0.0 {
        s.set(
            "ops_per_s",
            n(s, "timed_ms") as f64 / total_s,
            n(s, "timed_ms"),
        );
    }
    match s.median("child_rss_kb") {
        Some(kb) => s.set("peak_rss_mb", kb / 1024.0, n(s, "child_rss_kb")),
        None => s.set("peak_rss_mb", peak_rss_kb() / 1024.0, 1),
    }
}

/// A timed apply child and the checks every apply must pass.
fn checked_apply(
    env: &Env,
    out: &mut Outcome,
    verb: &str,
    dir: &Path,
    resources: usize,
    ops: std::ops::RangeInclusive<usize>,
) -> Result<ChildRun, String> {
    let run = env.apply(verb, dir);
    out.check.expect(run.is_ok(), || {
        format!("{verb}: {}", run.as_ref().err().unwrap())
    });
    let run = run?;
    let r = &run.out.report;
    out.check.cloud_ops(r.ops_submitted, r.nodes_failed);
    out.check.expect(r.resources == resources as f64, || {
        format!(
            "{verb} left {} resources, expected {resources}",
            r.resources
        )
    });
    out.check
        .expect(ops.contains(&(r.ops_submitted as usize)), || {
            format!("{verb} submitted {} ops, expected {ops:?}", r.ops_submitted)
        });
    Ok(run)
}

/// The traced pass of one apply: the cold front end on its own, then the
/// same apply twice from the same starting session — the real child on
/// `real`, the staged child on a copy — and the derived rows. Returns the
/// real run.
fn traced_apply(
    env: &Env,
    out: &mut Outcome,
    real: &Path,
    resources: usize,
    ops: std::ops::RangeInclusive<usize>,
) -> Result<ChildRun, String> {
    let log_before = file_len(&Session::at(real).log_path());
    let staged = env.copy_session(real, "s-staged")?;
    let cold = env.apply("frontend-cold", real)?;
    let a = checked_apply(env, out, "apply", real, resources, ops.clone())?;
    let b = checked_apply(env, out, "staged-apply", &staged, resources, ops)?;
    for file in ["state.json", "cloud.json"] {
        let (x, y) = (fnv_file(&real.join(file))?, fnv_file(&staged.join(file))?);
        out.check.expect(x == y, || {
            format!("staged replica wrote a different {file} ({y:016x} vs {x:016x})")
        });
    }
    out.absorb(&b.out.spans, &b.out.counts);

    let ra = &a.out.report;
    let own = self_ms_by_name(&b.out.spans);
    let self_ms = |name: &str| own.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    // the staged converge, minus the schedule probe riding inside it
    let dur_ms = |name: &str| {
        let spans = b.out.spans.iter().filter(|s| s.name == name);
        spans.map(|s| s.dur_ns() as f64 / 1e6).sum::<f64>()
    };
    let staged_total = dur_ms("core.converge_staged") - dur_ms(SCHEDULE_SPAN);
    let frontend: f64 = FRONTEND_SPANS.iter().map(|n| self_ms(n)).sum();
    let s = &mut out.samples;
    s.push("core.converge_ms", ra.work_ms);
    s.push("core.converge_unattributed_ms", ra.work_ms - staged_total);
    s.push(
        "core.process_unattributed_ms",
        a.wall_ms - ra.open_ms - ra.work_ms - ra.save_ms,
    );
    s.push("core.frontend_cold_ms", cold.out.report.work_ms);
    s.push("core.memo_build_ms", cold.out.report.work_ms - frontend);
    s.push("core.memo_bytes", cold.out.report.memo_bytes);
    s.push("core.runs_incremental", ra.runs_incremental);
    s.push("core.runs_full", ra.runs_full);
    s.push("core.evictions", ra.evictions);
    s.push("cloud.records", ra.resources);
    s.push("cloud.ops_submitted", ra.cloud_ops);
    s.push("cloud.ops_throttled", ra.cloud_throttled);
    s.push("obs.events_recorded", ra.events_recorded);
    s.push("obs.events_dropped", ra.events_dropped);
    let session = Session::at(real);
    s.push(
        "cli.cloud_json_bytes",
        file_len(&session.cloud_path()) as f64,
    );
    s.push(
        "cli.state_json_bytes",
        file_len(&session.state_path()) as f64,
    );
    s.push(
        "cli.bytes_written_mb",
        bytes_written(real, log_before) / 1e6,
    );
    s.push("state.log_bytes", ra.log_bytes);
    Ok(a)
}

/// The state layer's read side, timed in process on a session's log:
/// point-in-time read, version diff, fsck, compaction. The log is
/// compacted in place, so the session is spent afterwards.
fn state_probes(out: &mut Outcome, dir: &Path) -> Result<(), String> {
    let log = Session::at(dir).log_path();
    let mut t = Tracer::on();
    t.next_op();
    let (mut store, _) = LogStore::open_file(&log).map_err(|e| e.to_string())?;
    let head = store.serial();
    let prev = head.saturating_sub(1);
    let at = t.span("state.snapshot_at", |_| store.snapshot_at(prev));
    out.check.expect(at.is_some(), || {
        format!("snapshot_at({prev}) found nothing")
    });
    let diff = t.span("state.diff_versions", |_| store.diff_versions(prev, head));
    out.check.expect(diff.is_ok(), || {
        format!("diff_versions({prev}, {head}) failed")
    });
    let fsck = t
        .span("state.fsck", |_| fsck_file(&log))
        .map_err(|e| e.to_string())?;
    out.check
        .expect(fsck.clean(), || format!("fsck: {}", fsck.render()));
    let compacted = t.span("state.compact", |_| store.compact());
    out.check
        .expect(compacted.is_ok(), || "compaction failed".to_owned());
    out.absorb(t.spans(), &Counts::new());
    Ok(())
}

// ------------------------------------------------------------ greenfield

/// A fresh estate: the layered program applied into an empty session, then
/// applied again unchanged. Every layer does O(world) work and the commit
/// and save carry a full-world delta.
fn greenfield(p: &Params, env: &Env, out: &mut Outcome) -> Result<(), String> {
    let n = p.resources;
    let mut checksums: Option<(u64, u64)> = None;
    // set-up: generate the program and run one discarded round, so the
    // binary and the scratch directory are warm before the first timed op
    for _ in 0..SETUP_REPS {
        env.calibrate(out)?;
        let t = Instant::now();
        let source = Estate::layered(n, p.seed).render();
        env.write_program(&source)?;
        out.fact("program_fnv", format!("{:016x}", fnv64(source.as_bytes())));
        let dir = env.fresh_session("warm")?;
        env.apply("apply", &dir)?;
        env.apply("apply", &dir)?;
        out.samples.push("setup_s", t.elapsed().as_secs_f64());
    }
    let done = rounds(p.seconds, |_| {
        let dir = env.fresh_session("s")?;
        env.calibrate(out)?;
        let first = if p.trace {
            traced_apply(env, out, &dir, n, n..=n)?
        } else {
            checked_apply(env, out, "apply", &dir, n, n..=n)?
        };
        let r = &first.out.report;
        out.samples.push("op_ms", first.wall_ms);
        out.samples.push("timed_ms", first.wall_ms);
        out.samples.push("child_rss_kb", r.peak_rss_kb);
        out.fact("apply_bytes_written", bytes_written(&dir, 0));
        out.fact("apply_virtual_makespan_ms", r.makespan_ms);
        out.fact("apply_ops", r.ops_submitted);
        let sums = (
            fnv_file(&dir.join("state.json"))?,
            fnv_file(&dir.join("cloud.json"))?,
        );
        let expected = *checksums.get_or_insert(sums);
        out.check.expect(sums == expected, || {
            format!("session files differ between rounds: {sums:x?} vs {expected:x?}")
        });
        out.fact("state_fnv", format!("{:016x}", sums.0));
        out.fact("cloud_fnv", format!("{:016x}", sums.1));

        env.calibrate(out)?;
        let again = checked_apply(env, out, "apply", &dir, n, 0..=0)?;
        out.samples.push("alt_ms", again.wall_ms);
        out.samples.push("timed_ms", again.wall_ms);
        if p.trace {
            state_probes(out, &dir)?;
        }
        Ok(())
    })?;
    out.notes.insert("rounds".to_owned(), done.to_string());
    Ok(())
}

// ---------------------------------------------------------- edit-reapply

/// Build the converged session every other workload starts from: the
/// program applied once by an untimed child.
fn converged_session(
    env: &Env,
    out: &mut Outcome,
    source: &str,
    n: usize,
) -> Result<PathBuf, String> {
    env.write_program(source)?;
    let dir = env.fresh_session("base")?;
    let run = checked_apply(env, out, "apply", &dir, n, n..=n)?;
    out.fact(
        "base_state_fnv",
        format!("{:016x}", fnv_file(&dir.join("state.json"))?),
    );
    out.fact("base_makespan_ms", run.out.report.makespan_ms);
    out.fact("base_serial", run.out.report.serial);
    Ok(dir)
}

/// The CLI regime: a fresh process and a cold memo for an O(edit) plan.
/// The front end, the log replay, the snapshot diff and the JSON rewrites
/// do nearly all the work; the executor and the cloud nearly none.
fn edit_reapply(p: &Params, env: &Env, out: &mut Outcome) -> Result<(), String> {
    let n = p.resources;
    let mut base = PathBuf::new();
    let mut pristine = Estate::layered(n, p.seed);
    for _ in 0..SETUP_REPS {
        env.calibrate(out)?;
        let t = Instant::now();
        pristine = Estate::layered(n, p.seed);
        base = converged_session(env, out, &pristine.render(), n)?;
        out.samples.push("setup_s", t.elapsed().as_secs_f64());
    }
    let base_sum = fnv_state_sans_serial(&base.join("state.json"))?;
    let base_serial: f64 = out.facts["base_serial"]
        .parse()
        .map_err(|_| "bad base serial")?;
    let done = rounds(p.seconds, |round| {
        let dir = env.copy_session(&base, "s")?;
        let mut estate = pristine.clone();
        let edits = reapply_edits(n, if p.trace { 1 } else { EDITS_PER_ROUND }, p.seed, round);
        // (serial, state checksum) after each edit
        let mut versions: Vec<(f64, u64)> = Vec::new();
        for block in edits {
            estate.tweak(block);
            env.write_program(&estate.render())?;
            env.calibrate(out)?;
            let log_before = file_len(&Session::at(&dir).log_path());
            let run = if p.trace {
                traced_apply(env, out, &dir, n, 1..=3)?
            } else {
                checked_apply(env, out, "apply", &dir, n, 1..=3)?
            };
            let r = &run.out.report;
            out.samples.push("op_ms", run.wall_ms);
            out.samples.push("timed_ms", run.wall_ms);
            out.samples.push("child_rss_kb", r.peak_rss_kb);
            versions.push((r.serial, fnv_state_sans_serial(&dir.join("state.json"))?));
            if round == 0 {
                let k = versions.len();
                out.fact(&format!("edit{k}_ops"), r.ops_submitted);
                out.fact(&format!("edit{k}_makespan_ms"), r.makespan_ms);
                out.fact(
                    &format!("edit{k}_bytes_written"),
                    bytes_written(&dir, log_before),
                );
            }
        }
        // rollbacks restore, in turn, the state after edit 3, 2 and 1; the
        // traced pass makes one edit and so goes back to the base
        let mut targets: Vec<(f64, u64)> = versions.iter().rev().skip(1).copied().collect();
        if targets.is_empty() {
            targets.push((base_serial, base_sum));
        }
        for (serial, expected) in targets {
            env.calibrate(out)?;
            let run = env.child("rollback", &dir, &format!("{serial}"));
            out.check.expect(run.is_ok(), || {
                format!("rollback: {}", run.as_ref().err().unwrap())
            });
            let run = run?;
            out.samples.push("alt_ms", run.wall_ms);
            out.samples.push("timed_ms", run.wall_ms);
            out.samples
                .push("state.rollback_ms", run.out.report.work_ms);
            let got = fnv_state_sans_serial(&dir.join("state.json"))?;
            out.check.expect(got == expected, || {
                format!("rollback to serial {serial} restored {got:016x}, expected {expected:016x}")
            });
        }
        let fsck = fsck_file(&Session::at(&dir).log_path()).map_err(|e| e.to_string())?;
        out.check.expect(fsck.clean(), || {
            format!("fsck after rollbacks: {}", fsck.render())
        });
        if round == 0 {
            out.fact(
                "final_state_fnv",
                format!("{:016x}", fnv_file(&dir.join("state.json"))?),
            );
            out.fact("final_log_bytes", file_len(&Session::at(&dir).log_path()));
        }
        if p.trace {
            state_probes(out, &dir)?;
        }
        Ok(())
    })?;
    out.notes.insert("rounds".to_owned(), done.to_string());
    Ok(())
}

// ----------------------------------------------------------- watch-edits

/// A long-lived engine over the converged estate, as `cmd_watch` builds
/// it, replanning a stream of saves and never applying. The pipeline memo
/// does all the work; state, cloud and the executor do none.
fn watch_edits(p: &Params, env: &Env, out: &mut Outcome) -> Result<(), String> {
    let n = p.resources;
    let mut estate = Estate::layered(n, p.seed);
    let mut engine: Option<Cloudless> = None;
    let mut base = PathBuf::new();
    let mut tracer = if p.trace { Tracer::on() } else { Tracer::off() };
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        env.calibrate(out)?;
        let t = Instant::now();
        estate = Estate::layered(n, p.seed);
        let source = estate.render();
        base = converged_session(env, out, &source, n)?;
        // the traced pass reads the pipeline's counters off a recorder;
        // `cmd_watch` itself runs without one
        let recorder: Arc<dyn Recorder> = if p.trace {
            Arc::new(FlightRecorder::default())
        } else {
            Arc::new(NullRecorder)
        };
        tracer.next_op();
        let mut e = Session::at(&base).engine(recorder, &mut tracer)?;
        // the cold plan fills the memo; every later save is timed
        let cold = e.plan_incremental(&source);
        out.check
            .expect(cold.is_ok(), || "cold plan refused the program".to_owned());
        engine = Some(e);
        out.samples.push("setup_s", t.elapsed().as_secs_f64());
    }
    let mut engine = engine.expect("set up at least once");
    // the traced pass decomposes fallbacks on a staged twin over the same
    // state, and checks three warm plans against its cold ones
    let mut twin = if p.trace {
        let session = Session::at(&base);
        let off = &mut Tracer::off();
        Some(Staged::new(
            config(Arc::new(NullRecorder)),
            session.open_log(off)?,
            session.load_records(off)?,
            off,
        ))
    } else {
        None
    };
    let mut counts = Counts::new();
    let mut paths = PathCounts::default();
    // fast-path runs and saves, over block+cross and over structural+fix
    let (mut fast, mut saves) = ([0usize; 2], [0usize; 2]);
    let mut checked_cold: Vec<SaveClass> = Vec::new();
    let shape = if p.trace { STREAM_TRACED } else { STREAM };

    let done = rounds(p.seconds, |round| {
        for (i, save) in watch_round(n, shape, p.seed, round).into_iter().enumerate() {
            if i % SAVES_PER_CALIBRATION == 0 {
                env.calibrate(out)?;
            }
            let class = save.class();
            let text = save.apply(&mut estate);
            tracer.next_op();
            let t = Instant::now();
            let planned = tracer.span("core.plan_incremental", |_| engine.plan_incremental(&text));
            let dt = ms(t);
            out.samples.push("timed_ms", dt);
            match class {
                SaveClass::Block => out.samples.push("op_ms", dt),
                SaveClass::Structural | SaveClass::Fix => out.samples.push("alt_ms", dt),
                SaveClass::Cross => out.samples.push("core.replan_cross_ms", dt),
                SaveClass::Typo => out.samples.push("core.replan_typo_ms", dt),
            }
            let trace = match (&planned, class) {
                (Err(ConvergeError::Frontend(_)), SaveClass::Typo) => None,
                (Ok((_, trace)), c) if c != SaveClass::Typo => Some(trace),
                (result, c) => {
                    let got = result.as_ref().map(|_| "a plan").map_err(|e| e.to_string());
                    out.check
                        .expect(false, || format!("{} save returned {got:?}", c.name()));
                    continue;
                }
            };
            out.check.expect(true, String::new);
            paths.record(trace);
            let Some(trace) = trace else {
                continue;
            };
            let group = usize::from(matches!(class, SaveClass::Structural | SaveClass::Fix));
            saves[group] += 1;
            fast[group] += usize::from(trace.fast_path);
            let fell_back = !trace.fast_path;
            let Some(twin) = twin.as_mut() else {
                continue;
            };
            tracer.span("hcl.fingerprint", |_| ChunkMap::build(&text));
            let first_of_class = !checked_cold.contains(&class) && class != SaveClass::Fix;
            if fell_back || first_of_class {
                // the cold front end on the same text and state: its stages
                // decompose a fallback, its plan text is the reference
                let (_, _, cold_text) = twin.frontend_stages(&text, &mut tracer, &mut counts)?;
                if first_of_class {
                    checked_cold.push(class);
                    let warm_text = planned
                        .as_ref()
                        .map(|(text, _)| text.as_str())
                        .unwrap_or("");
                    out.check.expect(warm_text == cold_text, || {
                        format!(
                            "{} save: warm plan text differs from a cold run's",
                            class.name()
                        )
                    });
                }
            }
            if fell_back {
                let (cold_ms, bytes) = twin.frontend_cold(&text)?;
                out.samples.push("core.frontend_cold_ms", cold_ms);
                out.samples.push("core.memo_bytes", bytes as f64);
            }
        }
        Ok(())
    })?;

    let ratio = |g: usize| fast[g] as f64 / saves[g].max(1) as f64;
    let s = &mut out.samples;
    s.set("core.fast_path_ratio", ratio(0), saves[0]);
    s.set("core.fast_path_ratio_structural", ratio(1), saves[1]);
    for (row, per_round) in paths.rows(done) {
        s.set(row, per_round, done);
    }
    if let Some(m) = engine.metrics() {
        let evictions = m.counter("pipeline.evictions") as f64 / done as f64;
        s.set("core.evictions", evictions, done);
    }
    if p.trace {
        out.absorb(tracer.spans(), &counts);
        // memo build = the real cold front end minus its replayed stages
        let stages: f64 = FRONTEND_SPANS
            .iter()
            .filter_map(|n| out.samples.median(&format!("{n}_ms")))
            .sum();
        if let Some(cold) = out.samples.median("core.frontend_cold_ms") {
            out.samples.set("core.memo_build_ms", cold - stages, 1);
        }
        out.samples
            .push("cloud.records", engine.cloud().records().len() as f64);
        out.samples
            .push("state.log_bytes", engine.store().log_bytes() as f64);
        drop(engine);
        state_probes(out, &base)?;
    }
    out.notes.insert("rounds".to_owned(), done.to_string());
    // every round has the same shape, so per-round counts are exact
    out.fact(
        "fast_path_block_cross",
        format!("{}/{}", fast[0] / done, saves[0] / done),
    );
    out.fact(
        "fast_path_structural_fix",
        format!("{}/{}", fast[1] / done, saves[1] / done),
    );
    out.fact("runs_full", paths.full / done);
    Ok(())
}

// ------------------------------------------------------- drift-reconcile

/// Replay a drift script out of band against a cloud, resolving addresses
/// to ids through `state`.
fn apply_drift(
    cloud: &mut cloudless::cloud::Cloud,
    state: &Snapshot,
    script: &[Mutation],
) -> Result<(), String> {
    let id_of = |addr: &str| {
        state
            .get_str(addr)
            .map(|r| r.id.clone())
            .ok_or_else(|| format!("{addr} is not deployed"))
    };
    for m in script {
        match m {
            Mutation::Update { addr, attr, value } => cloud
                .out_of_band_update(
                    "clickops",
                    &id_of(addr)?,
                    attrs([(*attr, Value::from(value.clone()))]),
                )
                .map(|_| ()),
            Mutation::Delete { addr } => cloud
                .out_of_band_delete("clickops", &id_of(addr)?)
                .map(|_| ()),
            Mutation::Rogue { bucket } => cloud
                .out_of_band_create(
                    "clickops",
                    "aws_s3_bucket",
                    "us-east-1",
                    attrs([("bucket", Value::from(bucket.clone()))]),
                )
                .map(|_| ()),
        }
        .map_err(|e| format!("scripted drift failed: {e}"))?;
    }
    Ok(())
}

/// The shared layers used the other way round: cloud reads, whole-snapshot
/// commits, the memo under the repair loop, plus diagnose and synth, which
/// nothing else touches; and the only program with `count`, `for_each` and
/// interpolation.
fn drift_reconcile(p: &Params, env: &Env, out: &mut Outcome) -> Result<(), String> {
    let shape = drift_shape(p.resources);
    let layered = p.resources / 2;
    let instances = layered + shape.fleet + shape.keys;
    let mut estate = Estate::layered(layered, p.seed);
    let mut world: Option<(Snapshot, Records)> = None;
    let mut source = String::new();
    let mut base = PathBuf::new();
    let mut setup_tracer = if p.trace { Tracer::on() } else { Tracer::off() };
    for _ in 0..SETUP_REPS {
        drop(world.take());
        env.calibrate(out)?;
        let t = Instant::now();
        estate = Estate::layered(layered, p.seed);
        estate.tail.push(fleet_blocks(shape.fleet, shape.keys));
        source = estate.render();
        base = converged_session(env, out, &source, instances)?;
        let session = Session::at(&base);
        setup_tracer.next_op();
        let snapshot = session.open_log(&mut setup_tracer)?.current().clone();
        world = Some((snapshot, session.load_records(&mut setup_tracer)?));
        out.samples.push("setup_s", t.elapsed().as_secs_f64());
    }
    let (snapshot, records) = world.expect("set up at least once");
    if p.trace {
        out.absorb(setup_tracer.spans(), &Counts::new());
        state_probes(out, &base)?;
    }
    out.fact("instances", instances);
    out.fact("drift_events", shape.events());
    out.fact("oracle_ops", shape.oracle_ops());

    let done = rounds(p.seconds, |round| {
        let script = drift_script(&estate, shape, p.seed, round);
        let mut engine = Cloudless::with_session(
            config(Arc::new(NullRecorder)),
            snapshot.clone(),
            records.clone(),
        );
        apply_drift(engine.cloud_mut(), &snapshot, &script)?;

        env.calibrate(out)?;
        let t = Instant::now();
        let (drift, _actions) = engine.watch_drift();
        let report = engine.reconcile(&source, false);
        let drifted_ms = ms(t);
        out.samples.push("op_ms", drifted_ms);
        out.samples.push("timed_ms", drifted_ms);
        out.samples.push("core.reconcile_ms", drifted_ms);
        out.check.expect(report.is_ok(), || {
            format!("reconcile refused: {}", report.as_ref().err().unwrap())
        });
        let report = report.map_err(|e| e.to_string())?;
        let apply_ops = report.apply.as_ref().map_or(0, |a| a.ops_submitted);
        let facts = (
            drift.events.len(),
            report.converged,
            report.plan.ops.len(),
            report.dropped.len(),
            apply_ops,
        );
        let expected = (shape.events(), true, shape.oracle_ops(), 0, 0);
        out.check.expect(facts == expected, || {
            format!("drifted reconcile (events, converged, ops, dropped, apply ops) = {facts:?}, expected {expected:?}")
        });
        out.samples
            .push("diagnose.drift_events", drift.events.len() as f64);

        env.calibrate(out)?;
        let t = Instant::now();
        let clean = engine.reconcile(&report.patched_source, true);
        let dt = ms(t);
        out.samples.push("alt_ms", dt);
        out.samples.push("timed_ms", dt);
        let clean_ok = matches!(&clean, Ok(r) if r.converged && r.plan.ops.is_empty());
        out.check.expect(clean_ok, || {
            "clean follow-up reconcile still found drift".to_owned()
        });
        if round == 0 {
            out.fact(
                "patched_fnv",
                format!("{:016x}", fnv64(report.patched_source.as_bytes())),
            );
            out.fact(
                "reconciled_state_fnv",
                format!("{:016x}", fnv64(engine.state().to_json().as_bytes())),
            );
        }
        if !p.trace {
            return Ok(());
        }

        // the same drift against the staged replica, spans on
        let mut tracer = Tracer::on();
        let mut counts = Counts::new();
        let off = &mut Tracer::off();
        let store = LogStore::in_memory_seeded(snapshot.clone());
        let mut staged = Staged::new(config(Arc::new(NullRecorder)), store, records.clone(), off);
        apply_drift(&mut staged.cloud, &snapshot, &script)?;
        tracer.next_op();
        let events = staged.watch_drift(&mut tracer).events.len();
        let r = staged.reconcile(&source, false, &mut tracer, &mut counts)?;
        let got = (events, r.converged, r.ops, r.dropped, r.apply_ops);
        out.check
            .expect(got == expected && r.iterations == report.iterations, || {
                format!(
                    "staged reconcile = {got:?} in {} iterations, expected {expected:?} in {}",
                    r.iterations, report.iterations
                )
            });
        out.check
            .expect(r.patched_source == report.patched_source, || {
                "staged reconcile wrote a different patch".to_owned()
            });
        out.check
            .expect(staged.state().to_json() == engine.state().to_json(), || {
                "staged reconcile left a different state".to_owned()
            });
        out.samples
            .push("cloud.records", staged.cloud.records().len() as f64);
        out.absorb(tracer.spans(), &counts);
        // the clean follow-up goes into the trace file but not into the
        // rows, which decompose the drifted reconcile
        let mut tracer = Tracer::on();
        tracer.next_op();
        let clean = staged.reconcile(&r.patched_source, true, &mut tracer, &mut Counts::new())?;
        out.check.expect(clean.converged && clean.ops == 0, || {
            "staged clean reconcile still found drift".to_owned()
        });
        out.keep(tracer.spans());
        // pipeline paths of the whole round, the follow-up included: its
        // runs come after the converge let the spec miner observe an apply
        for (row, per_round) in staged.paths.rows(1) {
            out.samples.push(row, per_round);
        }
        Ok(())
    })?;
    out.notes.insert("rounds".to_owned(), done.to_string());
    Ok(())
}
