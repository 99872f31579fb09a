//! E14 — scale trajectory: real wall-clock cost of every pipeline stage as
//! the plan graph grows (1k → 10k → 100k resources).
//!
//! Unlike E1–E13, which run entirely on the simulator's *virtual* clock and
//! are byte-for-byte reproducible, E14 times the engine's own hot paths on
//! the host clock: workload generation, parse + module expansion, diff,
//! plan construction (address interning + CSR build + single-pass cycle
//! validation), scheduling (CPM priorities + wave levels), and the
//! simulated apply loop. Its point is the *shape* of the trajectory — each
//! stage must stay near-linear in the number of resources — so the report
//! is emitted as JSON (`BENCH_*.json`, committed per PR) and
//! `scripts/check_bench.sh` fails CI when a stage regresses by more than
//! the tolerance against the committed baseline.
//!
//! E14 is deliberately *excluded* from `exp all` and the experiment
//! snapshot: wall-clock numbers are machine-dependent.

use std::time::Instant;

use cloudless::cloud::CloudConfig;
use cloudless::deploy::resolver::DataResolver;
use cloudless::deploy::{diff, Executor, Plan, Strategy};
use cloudless::graph::{levels, CriticalPathAnalysis};
use cloudless::state::Snapshot;
use cloudless_cloud::Catalog;
use serde::{Deserialize, Serialize};

use crate::workloads;
use crate::SEED;

/// Best-of-N wall-clock milliseconds per pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageMillis {
    /// Workload source generation (`random_layered`).
    pub gen: f64,
    /// Lex + parse + module expansion into a manifest.
    pub parse_expand: f64,
    /// Diff against an empty state (all-creates).
    pub diff: f64,
    /// Plan construction: interning, edge collection, CSR seal.
    pub plan: f64,
    /// CPM priorities + wave levels over the sealed graph.
    pub schedule: f64,
    /// Full simulated apply (critical-path strategy, 64 slots).
    pub apply: f64,
    /// Warm-pipeline replan of a single-block edit (E16; `0.0` in reports
    /// that predate the incremental pipeline — below the noise floor, so
    /// the regression check skips it there).
    #[serde(default)]
    pub incremental: f64,
}

impl StageMillis {
    fn min_merge(&mut self, other: StageMillis) {
        self.gen = self.gen.min(other.gen);
        self.parse_expand = self.parse_expand.min(other.parse_expand);
        self.diff = self.diff.min(other.diff);
        self.plan = self.plan.min(other.plan);
        self.schedule = self.schedule.min(other.schedule);
        self.apply = self.apply.min(other.apply);
        self.incremental = self.incremental.min(other.incremental);
    }

    /// `(stage name, millis)` pairs, in pipeline order.
    pub fn stages(&self) -> [(&'static str, f64); 7] {
        [
            ("gen", self.gen),
            ("parse_expand", self.parse_expand),
            ("diff", self.diff),
            ("plan", self.plan),
            ("schedule", self.schedule),
            ("apply", self.apply),
            ("incremental", self.incremental),
        ]
    }
}

/// One measured workload size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SizePoint {
    /// Named workload (see [`workloads::named`]).
    pub workload: String,
    /// Plan-graph nodes (== resources, all creates).
    pub nodes: usize,
    /// Plan-graph edges after dedup.
    pub edges: usize,
    /// Dependency waves in the sealed graph.
    pub waves: usize,
    /// Timings are the minimum over this many runs.
    pub best_of: u32,
    pub millis: StageMillis,
}

/// The committed `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleReport {
    /// `"smoke"` (1k + 10k) or `"full"` (adds 100k).
    pub tier: String,
    pub points: Vec<SizePoint>,
    /// E16 incremental-replan measurements (empty in reports that predate
    /// the incremental pipeline).
    #[serde(default)]
    pub replan: Vec<super::e16_replan::ReplanPoint>,
    /// E17 state-store measurements (empty in reports that predate the
    /// log-structured store; `exp_state --attach` fills them in).
    #[serde(default)]
    pub state: Vec<super::e17_state::StatePoint>,
    /// E18 analyzer-vs-plan wall-time measurements (empty in reports that
    /// predate the concurrency analyzer; `exp_concurrency --attach` fills
    /// them in).
    #[serde(default)]
    pub analyze: Vec<super::e18_concurrency::AnalyzePoint>,
}

/// Sizes per tier: `(workload name, resource count, best-of runs)`.
fn tier_sizes(tier: &str) -> Vec<(&'static str, usize, u32)> {
    match tier {
        "full" => vec![
            ("random-1k", 1_000, 3),
            ("random-10k", 10_000, 3),
            // Best-of-2: the first 100k round pays the process heap-growth
            // cost (fresh pages faulted in); the second round measures the
            // warm steady state that actually scales with the algorithm.
            ("random-100k", 100_000, 2),
        ],
        _ => vec![("random-1k", 1_000, 3), ("random-10k", 10_000, 3)],
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Measure one workload size through the whole pipeline, `iters` times,
/// keeping the minimum per stage.
pub fn measure(name: &str, n: usize, iters: u32) -> SizePoint {
    let catalog = Catalog::standard();
    let data = DataResolver::new();
    let empty = Snapshot::new();
    let mut best: Option<StageMillis> = None;
    let mut nodes = 0;
    let mut edges = 0;
    let mut waves = 0;
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        let src = workloads::random_layered(n, SEED);
        let gen = ms(t);

        let t = Instant::now();
        let m = super::manifest_of(&src);
        let parse_expand = ms(t);

        let t = Instant::now();
        let changes = diff(&m, &empty, &catalog, &data);
        let diff_ms = ms(t);

        let t = Instant::now();
        let plan = Plan::build(changes, &empty, &catalog);
        let plan_ms = ms(t);

        let t = Instant::now();
        let _cpa = CriticalPathAnalysis::compute(&plan.graph, |_, node| node.estimate.millis())
            .expect("scale workloads are acyclic");
        let lv = levels(&plan.graph).expect("scale workloads are acyclic");
        let schedule_ms = ms(t);

        let mut cloud = super::experiment_cloud(CloudConfig::exact(), SEED);
        let mut state = Snapshot::new();
        let exec = Executor::new(Strategy::CriticalPath { max_in_flight: 64 }, &data);
        let t = Instant::now();
        let report = exec.apply(&plan, &mut cloud, &mut state);
        let apply = ms(t);
        assert!(
            report.all_ok(),
            "scale workload must apply cleanly: {:?}",
            report.errors()
        );

        nodes = plan.graph.len();
        edges = plan.graph.edge_count();
        waves = lv.len();
        let sample = StageMillis {
            gen,
            parse_expand,
            diff: diff_ms,
            plan: plan_ms,
            schedule: schedule_ms,
            apply,
            // filled in from the E16 replan measurement by `exp_scale`
            incremental: 0.0,
        };
        match &mut best {
            None => best = Some(sample),
            Some(b) => b.min_merge(sample),
        }
    }
    SizePoint {
        workload: name.to_owned(),
        nodes,
        edges,
        waves,
        best_of: iters.max(1),
        millis: best.expect("at least one iteration"),
    }
}

/// Run the scale trajectory for a tier. The `replan` section (E16) is
/// measured separately — `exp_scale` attaches it.
pub fn run(tier: &str) -> ScaleReport {
    ScaleReport {
        tier: tier.to_owned(),
        points: tier_sizes(tier)
            .into_iter()
            .map(|(name, n, iters)| measure(name, n, iters))
            .collect(),
        replan: Vec::new(),
        state: Vec::new(),
        analyze: Vec::new(),
    }
}

/// Render a human-readable table of a report (not part of the experiment
/// snapshot — the numbers are machine-dependent).
pub fn render(report: &ScaleReport) -> String {
    use crate::table::Table;
    let mut t = Table::new(
        "E14 — pipeline wall-clock by scale (best-of-N, host-dependent)",
        &[
            "workload",
            "nodes",
            "edges",
            "waves",
            "gen",
            "parse+expand",
            "diff",
            "plan",
            "schedule",
            "apply",
            "incremental",
        ],
    );
    for p in &report.points {
        t.row(vec![
            p.workload.clone(),
            p.nodes.to_string(),
            p.edges.to_string(),
            p.waves.to_string(),
            format!("{:.1}ms", p.millis.gen),
            format!("{:.1}ms", p.millis.parse_expand),
            format!("{:.1}ms", p.millis.diff),
            format!("{:.1}ms", p.millis.plan),
            format!("{:.1}ms", p.millis.schedule),
            format!("{:.1}ms", p.millis.apply),
            format!("{:.2}ms", p.millis.incremental),
        ]);
    }
    t.render()
}

/// Compare a PR report against a baseline: any stage that is more than
/// `tolerance` (fractional, e.g. 0.2 = 20%) slower on a workload present
/// in both reports is a regression. Stages under `floor_ms` in the
/// baseline are skipped — timer noise dominates there.
pub fn regressions(
    baseline: &ScaleReport,
    pr: &ScaleReport,
    tolerance: f64,
    floor_ms: f64,
) -> Vec<String> {
    let mut out = Vec::new();
    for b in &baseline.points {
        let Some(p) = pr.points.iter().find(|p| p.workload == b.workload) else {
            out.push(format!("{}: missing from PR report", b.workload));
            continue;
        };
        for ((stage, base), (_, new)) in b.millis.stages().iter().zip(p.millis.stages().iter()) {
            if *base < floor_ms {
                continue;
            }
            if *new > base * (1.0 + tolerance) {
                out.push(format!(
                    "{} / {stage}: {new:.1}ms vs baseline {base:.1}ms (+{:.0}%, tolerance {:.0}%)",
                    b.workload,
                    (new / base - 1.0) * 100.0,
                    tolerance * 100.0,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_measurement_round_trips_through_json() {
        // tiny n: exercises the full pipeline + serde round-trip quickly
        let point = measure("random-tiny", 120, 1);
        assert_eq!(point.nodes, 120);
        assert!(point.edges > 0);
        assert!(point.waves > 1);
        let report = ScaleReport {
            tier: "test".into(),
            points: vec![point],
            replan: Vec::new(),
            state: Vec::new(),
            analyze: Vec::new(),
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ScaleReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(render(&back).contains("random-tiny"));
    }

    #[test]
    fn regression_check_flags_slowdowns_and_respects_floor() {
        let mk = |plan_ms: f64| ScaleReport {
            tier: "test".into(),
            points: vec![SizePoint {
                workload: "random-1k".into(),
                nodes: 1000,
                edges: 2000,
                waves: 10,
                best_of: 1,
                millis: StageMillis {
                    gen: 1.0,
                    parse_expand: 50.0,
                    diff: 50.0,
                    plan: plan_ms,
                    schedule: 50.0,
                    apply: 50.0,
                    incremental: 50.0,
                },
            }],
            replan: Vec::new(),
            state: Vec::new(),
            analyze: Vec::new(),
        };
        let base = mk(100.0);
        assert!(regressions(&base, &mk(110.0), 0.2, 5.0).is_empty());
        let flagged = regressions(&base, &mk(130.0), 0.2, 5.0);
        assert_eq!(flagged.len(), 1);
        assert!(flagged[0].contains("plan"), "{flagged:?}");
        // gen is below the 5ms floor: a huge relative jump there is noise
        let mut noisy = mk(100.0);
        noisy.points[0].millis.gen = 4.0;
        assert!(regressions(&base, &noisy, 0.2, 5.0).is_empty());
        // a workload missing from the PR report is itself a failure
        let empty = ScaleReport {
            tier: "test".into(),
            points: vec![],
            replan: Vec::new(),
            state: Vec::new(),
            analyze: Vec::new(),
        };
        assert_eq!(regressions(&base, &empty, 0.2, 5.0).len(), 1);
    }
}
