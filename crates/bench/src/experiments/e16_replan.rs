//! E16 — incremental replan: warm-pipeline edit latency vs a cold full
//! front end (1k → 10k → 100k resources).
//!
//! The incremental converge pipeline ([`cloudless::pipeline`]) claims that
//! after one cold run, an edit re-runs only the stages and the resource
//! subgraph it impacts. This experiment measures that claim on the host
//! clock against a *converged* state (so the plan is near-zero-diff, the
//! realistic `cloudless watch` regime) under four edit shapes:
//!
//! * **attr** — one attribute value changes in one resource block of the
//!   *last* layer: nothing depends on it, so its static cone is the block.
//! * **block** — one whole block body of the last layer is rewritten
//!   (value + new comment lines). Still one dirty chunk; exercises the
//!   re-parse/re-expand path harder than a value tweak.
//! * **deep** — the `attr` edit on a block of the *first* layer, where a
//!   user is as likely to make it: its static cone (every block downstream)
//!   is most of the program, the chunk table and the source after it move,
//!   and none of that may cost: the plan stage re-plans a dependent only
//!   when the edit flips whether its dependency is created or replaced.
//! * **cross** — ~1% of blocks change at once, spread across every
//!   dependency layer: a hundred windows' worth of blocks in one splice,
//!   so this deliberately degrades toward the full path — the interesting
//!   number is *how* gracefully.
//!
//! The comparator (`full`) is the identical front end (parse → lint →
//! expand → validate → diff → render) run cold on the same edited source.
//! Every warm run asserts `trace.fast_path`: if a guard silently stopped
//! holding for the workload, the experiment fails rather than quietly
//! measuring the cold path. Results are embedded in the committed
//! `BENCH_*.json` and gated by `scripts/check_bench.sh`
//! ([`speedup_gates`]): a single-block replan must be ≥150× faster than
//! full at 10k and ≥300× at 100k, and a `deep` replan may cost at most 2×
//! an `attr` one at either size — a same-host ratio that holds on any host.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use cloudless::cloud::CloudConfig;
use cloudless::deploy::resolver::DataResolver;
use cloudless::deploy::Strategy;
use cloudless::hcl::program::ModuleLibrary;
use cloudless::obs::{NullRecorder, Recorder};
use cloudless::pipeline::{IncrementalPipeline, PipelineCtx};
use cloudless::validate::ValidationLevel;
use cloudless::LintGate;
use serde::{Deserialize, Serialize};

use crate::workloads;
use crate::SEED;

/// Best-of-N wall-clock milliseconds for one workload size: a cold full
/// front end vs warm replans under the four edit shapes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplanPoint {
    /// Named workload (matches the E14 [`super::e14_scale::SizePoint`]).
    pub workload: String,
    /// Resource instances in the program.
    pub nodes: usize,
    /// Blocks edited by the cross-cutting shape (~1%).
    pub cross_edits: usize,
    /// Timings are the minimum over this many runs.
    pub best_of: u32,
    /// Cold full front end on the edited source.
    pub full_ms: f64,
    /// Warm replan, single-attribute edit.
    pub attr_ms: f64,
    /// Warm replan, single-block body rewrite.
    pub block_ms: f64,
    /// Warm replan, single-attribute edit of a first-layer block (`0.0` in
    /// reports that predate it).
    #[serde(default)]
    pub deep_ms: f64,
    /// Warm replan, ~1% cross-cutting edit.
    pub cross_ms: f64,
}

impl ReplanPoint {
    /// Full-vs-incremental speedup on the single-block edit (the gated
    /// number).
    pub fn block_speedup(&self) -> f64 {
        if self.block_ms > 0.0 {
            self.full_ms / self.block_ms
        } else {
            f64::INFINITY
        }
    }
}

/// Change one attribute value in block `i` (names are `"r-{i}"`, unique).
fn edit_attr(src: &str, i: usize, rev: u32) -> String {
    src.replacen(&format!("\"r-{i}\""), &format!("\"r-{i}-a{rev}\""), 1)
}

/// Rewrite the body of block `i`: new value plus new lines inside the
/// block — a bigger textual delta, still one dirty chunk.
fn edit_block(src: &str, i: usize, rev: u32) -> String {
    src.replacen(
        &format!("\"r-{i}\""),
        &format!("\"r-{i}-b{rev}\"\n  # block rewritten, revision {rev}\n  # second comment line"),
        1,
    )
}

/// Edit every 100th block (~1% of the program) in one keystroke. The name
/// values appear in declaration order, so a single forward scan suffices.
fn edit_cross(src: &str, n: usize, rev: u32) -> (String, usize) {
    let mut out = String::with_capacity(src.len() + n / 10);
    let mut pos = 0;
    let mut edits = 0;
    for i in (0..n).step_by(100) {
        let token = format!("\"r-{i}\"");
        let Some(off) = src[pos..].find(&token) else {
            continue;
        };
        let at = pos + off;
        out.push_str(&src[pos..at]);
        out.push_str(&format!("\"r-{i}-x{rev}\""));
        pos = at + token.len();
        edits += 1;
    }
    out.push_str(&src[pos..]);
    (out, edits)
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Measure one workload size: converge it once through the simulator, then
/// time cold full runs and warm replans against the converged state.
pub fn measure(name: &str, n: usize, iters: u32) -> ReplanPoint {
    let src = workloads::random_layered(n, SEED);
    // the realistic regime: the program is already deployed, so a replan
    // against state is near-zero-diff and the edit dominates
    let (_report, _cloud, state) = super::deploy(
        &src,
        Strategy::CriticalPath { max_in_flight: 64 },
        CloudConfig::exact(),
        SEED,
    );
    let catalog = super::quota_raised_catalog();
    let data = DataResolver::new();
    let inputs = BTreeMap::new();
    let modules = ModuleLibrary::new();
    let recorder: Arc<dyn Recorder> = Arc::new(NullRecorder);
    let ctx = PipelineCtx {
        inputs: &inputs,
        modules: &modules,
        lint: LintGate::default(),
        level: ValidationLevel::CloudRules,
        data: &data,
        catalog: &catalog,
        state: &state,
        miner: None,
        recorder: &recorder,
    };

    // `attr` and `block` edit the last layer, where nothing is downstream
    // of the edit; `deep` edits the first, where nearly everything is
    let width = (n / 64).max(8);
    let i_attr = n - width / 2 - 1;
    let i_block = n - width / 4 - 1;
    let i_deep = width / 2;

    let iters = iters.max(1);
    let mut full_ms = f64::INFINITY;
    for rev in 0..iters {
        let edited = edit_block(&src, i_block, rev);
        let mut cold = IncrementalPipeline::default();
        let t = Instant::now();
        let out = cold
            .run(&edited, &ctx)
            .expect("workload front end is clean");
        full_ms = full_ms.min(ms(t));
        assert!(!out.trace.fast_path);
    }

    let mut warm = IncrementalPipeline::default();
    warm.run(&src, &ctx).expect("workload front end is clean");
    assert!(warm.is_warm(), "scale workload must be memo-eligible");

    let mut run_warm = |edited: &str| -> f64 {
        let t = Instant::now();
        let out = warm.run(edited, &ctx).expect("edited program stays clean");
        let elapsed = ms(t);
        assert!(
            out.trace.fast_path,
            "warm replan fell back to the cold path: {}",
            out.trace
        );
        elapsed
    };

    let mut attr_ms = f64::INFINITY;
    for rev in 0..iters {
        attr_ms = attr_ms.min(run_warm(&edit_attr(&src, i_attr, rev)));
    }

    // reset the memo to the base program between shapes so each shape's
    // first iteration measures exactly its own delta
    run_warm(&src);
    let mut block_ms = f64::INFINITY;
    for rev in 0..iters {
        block_ms = block_ms.min(run_warm(&edit_block(&src, i_block, rev)));
    }

    run_warm(&src);
    let mut deep_ms = f64::INFINITY;
    for rev in 0..iters {
        deep_ms = deep_ms.min(run_warm(&edit_attr(&src, i_deep, rev)));
    }

    run_warm(&src);
    let mut cross_ms = f64::INFINITY;
    let mut cross_edits = 0;
    for rev in 0..iters {
        let (edited, edits) = edit_cross(&src, n, rev);
        cross_edits = edits;
        cross_ms = cross_ms.min(run_warm(&edited));
    }

    ReplanPoint {
        workload: name.to_owned(),
        nodes: n,
        cross_edits,
        best_of: iters,
        full_ms,
        attr_ms,
        block_ms,
        deep_ms,
        cross_ms,
    }
}

/// Run the replan trajectory for a tier (same sizes as E14).
pub fn run(tier: &str) -> Vec<ReplanPoint> {
    let sizes: Vec<(&str, usize, u32)> = match tier {
        "full" => vec![
            ("random-1k", 1_000, 3),
            ("random-10k", 10_000, 3),
            ("random-100k", 100_000, 2),
        ],
        _ => vec![("random-1k", 1_000, 3), ("random-10k", 10_000, 3)],
    };
    sizes
        .into_iter()
        .map(|(name, n, iters)| measure(name, n, iters))
        .collect()
}

/// Render a human-readable table (not part of the experiment snapshot —
/// the numbers are machine-dependent).
pub fn render(points: &[ReplanPoint]) -> String {
    use crate::table::Table;
    let mut t = Table::new(
        "E16 — incremental replan vs cold full front end (best-of-N, host-dependent)",
        &[
            "workload",
            "nodes",
            "full",
            "attr-edit",
            "block-edit",
            "deep-edit",
            "cross-edit",
            "speedup(block)",
        ],
    );
    for p in points {
        t.row(vec![
            p.workload.clone(),
            p.nodes.to_string(),
            format!("{:.1}ms", p.full_ms),
            format!("{:.2}ms", p.attr_ms),
            format!("{:.2}ms", p.block_ms),
            format!("{:.2}ms", p.deep_ms),
            format!("{:.1}ms ({} blocks)", p.cross_ms, p.cross_edits),
            format!("{:.0}x", p.block_speedup()),
        ]);
    }
    t.render()
}

/// What `scripts/check_bench.sh` enforces on the candidate report. Absolute
/// floors: a single-block replan must beat the full front end by at least
/// this factor at each size (relative regression vs the baseline is covered
/// by the generic stage check — `incremental` is a stage). And one ratio
/// that holds on any host: where in the dependency order the edit sits may
/// not matter — a first-layer (`deep`) replan costs at most
/// `DEEP_OVER_ATTR` (2) × a last-layer (`attr`) one.
pub fn speedup_gates(points: &[ReplanPoint]) -> Vec<String> {
    // (measured 370–510x and 750–820x; the parent's 49–57x and 61–95x fail)
    let floors = [("random-10k", 150.0), ("random-100k", 300.0)];
    let mut out = Vec::new();
    for (workload, floor) in floors {
        let Some(p) = points.iter().find(|p| p.workload == workload) else {
            continue; // smoke tier has no 100k point
        };
        let speedup = p.block_speedup();
        if speedup < floor {
            out.push(format!(
                "{workload}: incremental block-edit replan only {speedup:.1}x faster than full \
                 ({:.2}ms vs {:.1}ms), floor is {floor:.0}x",
                p.block_ms, p.full_ms,
            ));
        }
        if p.deep_ms > DEEP_OVER_ATTR * p.attr_ms {
            out.push(format!(
                "{workload}: a first-layer edit replans in {:.2}ms, over {DEEP_OVER_ATTR}x the \
                 {:.2}ms of a last-layer one: the replan follows the static cone, not the edit",
                p.deep_ms, p.attr_ms,
            ));
        }
    }
    out
}

/// Most a `deep` replan may cost over an `attr` one.
const DEEP_OVER_ATTR: f64 = 2.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_measurement_is_incremental_and_round_trips() {
        let point = measure("random-tiny", 160, 1);
        assert_eq!(point.nodes, 160);
        assert!(point.cross_edits >= 1);
        assert!(point.full_ms > 0.0 && point.attr_ms > 0.0 && point.deep_ms > 0.0);
        let json = serde_json::to_string(&vec![point.clone()]).unwrap();
        let back: Vec<ReplanPoint> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, vec![point]);
    }

    #[test]
    fn gates_flag_slow_replans_and_pass_fast_ones() {
        let mk = |block_ms: f64, deep_ms: f64| ReplanPoint {
            workload: "random-10k".into(),
            nodes: 10_000,
            cross_edits: 100,
            best_of: 1,
            full_ms: 100.0,
            attr_ms: 1.0,
            block_ms,
            deep_ms,
            cross_ms: 20.0,
        };
        assert!(
            speedup_gates(&[mk(0.5, 1.5)]).is_empty(),
            "200x passes the 150x floor, 1.5x the 2x ratio"
        );
        let flagged = speedup_gates(&[mk(5.0, 1.0)]);
        assert_eq!(flagged.len(), 1, "20x fails the 150x floor");
        assert!(flagged[0].contains("random-10k"), "{flagged:?}");
        // the parent's shape: the whole cone replayed for a first-layer edit
        let flagged = speedup_gates(&[mk(0.5, 7.5)]);
        assert_eq!(flagged.len(), 1, "7.5x fails the 2x ratio");
        assert!(flagged[0].contains("static cone"), "{flagged:?}");
        // a report without the gated workloads (e.g. tiny test tiers) passes
        assert!(speedup_gates(&[]).is_empty());
    }

    #[test]
    fn edit_helpers_touch_exactly_the_right_tokens() {
        let src = workloads::random_layered(300, SEED);
        let attr = edit_attr(&src, 150, 7);
        assert!(attr.contains("\"r-150-a7\""));
        assert_eq!(attr.matches("-a7\"").count(), 1);
        let (cross, edits) = edit_cross(&src, 300, 1);
        assert_eq!(edits, 3, "blocks 0, 100, 200");
        assert!(cross.contains("\"r-0-x1\"") && cross.contains("\"r-200-x1\""));
    }
}
