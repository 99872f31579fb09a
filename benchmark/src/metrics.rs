//! The metric registry: every name the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` lists the same names in the same order
//! (`tests::registry_matches_benchmark_json`), and every run reports every
//! name of its pass, so a metric a workload never exercises reads 0 rather
//! than going missing.

use std::collections::BTreeMap;

use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; unused for per-layer metrics.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    e2e(name, unit, better, 0.0)
}

/// What a user of the system waits for or pays. Every workload reports
/// every one of them; what `op` and `alt` are is a property of the
/// workload (see `workloads.rs` and the README's mapping table).
pub const END_TO_END: [Def; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("op_p50_ms", "ms", "lower", 0.25),
    e2e("alt_p50_ms", "ms", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

/// One row per layer boundary: `*_ms` is the self time of the span of that
/// name, everything else a count read at the same boundary.
pub const PER_LAYER: [Def; 85] = [
    layer("cli.cloud_json_load_ms", "ms", "lower"),
    layer("cli.cloud_json_bytes", "bytes", "lower"),
    layer("cli.state_json_save_ms", "ms", "lower"),
    layer("cli.state_json_bytes", "bytes", "lower"),
    layer("cli.cloud_json_save_ms", "ms", "lower"),
    layer("cli.bytes_written_mb", "MB", "lower"),
    layer("state.log_open_ms", "ms", "lower"),
    layer("state.log_bytes", "bytes", "lower"),
    layer("state.lock_acquire_ms", "ms", "lower"),
    layer("state.snapshot_clone_ms", "ms", "lower"),
    layer("state.commit_ms", "ms", "lower"),
    layer("state.commit_log_bytes", "bytes", "lower"),
    layer("state.records_deduped", "count", "higher"),
    layer("state.checkpoint_lag", "count", "lower"),
    layer("state.rollback_ms", "ms", "lower"),
    layer("state.snapshot_at_ms", "ms", "lower"),
    layer("state.diff_versions_ms", "ms", "lower"),
    layer("state.fsck_ms", "ms", "lower"),
    layer("state.compact_ms", "ms", "lower"),
    layer("hcl.parse_ms", "ms", "lower"),
    layer("hcl.classify_ms", "ms", "lower"),
    layer("hcl.expand_ms", "ms", "lower"),
    layer("hcl.fingerprint_ms", "ms", "lower"),
    layer("hcl.source_bytes", "bytes", "lower"),
    layer("hcl.blocks", "count", "lower"),
    layer("hcl.instances", "count", "lower"),
    layer("analyze.lint_ms", "ms", "lower"),
    layer("analyze.concurrency_ms", "ms", "lower"),
    layer("analyze.findings", "count", "lower"),
    layer("validate.check_ms", "ms", "lower"),
    layer("validate.diagnostics", "count", "lower"),
    layer("validate.mine_ms", "ms", "lower"),
    layer("deploy.diff_ms", "ms", "lower"),
    layer("deploy.changes", "count", "lower"),
    layer("deploy.render_ms", "ms", "lower"),
    layer("deploy.plan_build_ms", "ms", "lower"),
    layer("deploy.plan_nodes", "count", "lower"),
    layer("deploy.plan_edges", "count", "lower"),
    layer("deploy.apply_ms", "ms", "lower"),
    layer("deploy.ops_submitted", "count", "lower"),
    layer("deploy.attempts", "count", "lower"),
    layer("deploy.retries", "count", "lower"),
    layer("deploy.nodes_failed", "count", "lower"),
    layer("deploy.refresh_ms", "ms", "lower"),
    layer("deploy.refresh_reads", "count", "lower"),
    layer("deploy.virtual_makespan_s", "s", "lower"),
    layer("graph.schedule_ms", "ms", "lower"),
    layer("graph.waves", "count", "lower"),
    layer("cloud.import_records_ms", "ms", "lower"),
    layer("cloud.records", "count", "lower"),
    layer("cloud.ops_submitted", "count", "lower"),
    layer("cloud.ops_throttled", "count", "lower"),
    layer("core.converge_ms", "ms", "lower"),
    layer("core.frontend_cold_ms", "ms", "lower"),
    layer("core.memo_build_ms", "ms", "lower"),
    layer("core.memo_bytes", "bytes", "lower"),
    layer("core.converge_unattributed_ms", "ms", "lower"),
    layer("core.process_unattributed_ms", "ms", "lower"),
    layer("core.pipeline_run_ms", "ms", "lower"),
    layer("core.plan_incremental_ms", "ms", "lower"),
    layer("core.op_p50_ms", "ms", "lower"),
    layer("core.op_p90_ms", "ms", "lower"),
    layer("core.replan_cross_ms", "ms", "lower"),
    layer("core.replan_typo_ms", "ms", "lower"),
    layer("core.runs_incremental", "count", "higher"),
    layer("core.runs_full", "count", "lower"),
    layer("core.evictions", "count", "lower"),
    layer("core.fast_path_ratio", "ratio", "higher"),
    layer("core.fast_path_ratio_structural", "ratio", "higher"),
    layer("core.fallback_structural", "count", "lower"),
    layer("core.fallback_no_memo", "count", "lower"),
    layer("core.fallback_miner_active", "count", "lower"),
    layer("core.fallback_other", "count", "lower"),
    layer("core.reconcile_ms", "ms", "lower"),
    layer("diagnose.watch_drift_ms", "ms", "lower"),
    layer("diagnose.drift_events", "count", "lower"),
    layer("diagnose.classify_ms", "ms", "lower"),
    layer("diagnose.edit_ops", "count", "lower"),
    layer("synth.patch_ms", "ms", "lower"),
    layer("synth.candidates_checked", "count", "lower"),
    layer("synth.repair_iterations", "count", "lower"),
    layer("synth.ops_dropped", "count", "lower"),
    layer("obs.events_recorded", "count", "lower"),
    layer("obs.events_dropped", "count", "lower"),
    layer("host.speed_factor", "ratio", "lower"),
];

/// Raw samples by metric name, and the values reported from them.
#[derive(Debug, Default)]
pub struct Samples {
    samples: BTreeMap<String, Vec<f64>>,
    /// Values that are not the median of their samples: `(value, n)`.
    derived: BTreeMap<String, (f64, usize)>,
}

impl Samples {
    pub fn push(&mut self, name: &str, value: f64) {
        self.samples.entry(name.to_owned()).or_default().push(value);
    }

    pub fn extend(&mut self, name: &str, values: &[f64]) {
        self.samples
            .entry(name.to_owned())
            .or_default()
            .extend_from_slice(values);
    }

    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        self.derived.insert(name.to_owned(), (value, n));
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            [] => None,
            v => Some(median(v)),
        }
    }

    /// The value and sample count reported under `name`: the derived value
    /// if one was set, else the median of the samples, else nothing.
    pub fn value(&self, name: &str) -> Option<(f64, usize)> {
        self.derived
            .get(name)
            .copied()
            .or_else(|| self.median(name).map(|m| (m, self.get(name).len())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(matches!(d.better, "lower" | "higher"));
            assert!((0.0..=0.25).contains(&d.bound));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn derived_values_win_over_medians() {
        let mut s = Samples::default();
        assert_eq!(s.value("x"), None);
        s.extend("x", &[3.0, 1.0, 2.0]);
        assert_eq!(s.value("x"), Some((2.0, 3)));
        s.set("x", 9.0, 1);
        assert_eq!(s.value("x"), Some((9.0, 1)));
    }

    fn field<'a>(j: &'a Json, k: &str) -> &'a Json {
        j.get(k)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{k}`"))
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Json = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |section: &str| -> Vec<(String, String, String, Option<f64>)> {
            let Json::Arr(items) = field(&doc, section) else {
                panic!("{section} is not a list");
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| match field(m, k) {
                        Json::Str(s) => s.clone(),
                        other => panic!("{k}: {other:?}"),
                    };
                    let bound = match m.get("bound") {
                        Some(Json::F64(f)) => Some(*f),
                        Some(Json::U64(n)) => Some(*n as f64),
                        _ => None,
                    };
                    (s("name"), s("unit"), s("better"), bound)
                })
                .collect()
        };
        let ours = |defs: &[Def], bounded: bool| -> Vec<(String, String, String, Option<f64>)> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_owned(),
                        d.unit.to_owned(),
                        d.better.to_owned(),
                        bounded.then_some(d.bound),
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END, true));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER, false));
        let Json::Arr(workloads) = field(&doc, "workloads") else {
            panic!("workloads is not a list");
        };
        let names: Vec<&Json> = workloads.iter().map(|w| field(w, "name")).collect();
        let expected: Vec<Json> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| Json::Str(w.name().to_owned()))
            .collect();
        assert_eq!(names, expected.iter().collect::<Vec<_>>());
    }
}
