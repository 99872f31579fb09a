//! A staged replica of `Cloudless::converge` and `Cloudless::reconcile`:
//! the same public layer calls in the same order, each wrapped in a span.
//!
//! The replica exists only to be timed from outside. What licenses reading
//! its spans as a decomposition of the real calls is that both leave
//! byte-identical `state.json` and `cloud.json` behind, which the workloads
//! check on every traced run. Steps of the real path that have no public
//! entry point (memo build, policy admission, `summarize`) cannot be
//! replayed and so land in `core.converge_unattributed_ms`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use cloudless::analyze::{analyze_manifest, lint_program};
use cloudless::cloud::Cloud;
use cloudless::deploy::diff::{diff, render, PlannedChange};
use cloudless::deploy::resolver::{DataResolver, StateResolver};
use cloudless::deploy::{full_refresh, ApplyReport, Executor, Plan};
use cloudless::diagnose::{DriftReport, LogWatcher};
use cloudless::graph::critical::CriticalPathAnalysis;
use cloudless::graph::topo::levels;
use cloudless::hcl::program::{expand, Manifest, OutputValue, Program};
use cloudless::pipeline::{ChangeTrace, IncrementalPipeline, PipelineCtx};
use cloudless::state::{
    CommitMeta, DeployedResource, LockManager, LockScope, LogStore, ObservedLockManager,
    ResourceLockManager, Snapshot,
};
use cloudless::validate::{validate, SpecMiner};
use cloudless::Config;

use crate::session::Records;
use crate::span::Tracer;

/// What the front end hands the plan builder: manifest, changes, plan text.
type Frontend = (Manifest, Vec<PlannedChange>, String);

/// Counts read at the layer boundaries, keyed by metric name, one sample
/// per operation.
pub type Counts = BTreeMap<String, Vec<f64>>;

pub fn count(counts: &mut Counts, name: &str, value: impl Into<f64>) {
    counts
        .entry(name.to_owned())
        .or_default()
        .push(value.into());
}

/// Which way pipeline runs went, read off each run's `ChangeTrace`.
#[derive(Debug, Default, Clone, Copy)]
pub struct PathCounts {
    pub incremental: usize,
    pub full: usize,
    pub structural: usize,
    pub no_memo: usize,
    pub miner_active: usize,
    pub other: usize,
}

impl PathCounts {
    /// `None` stands for a run the front end refused: it went cold and left
    /// no trace to read a reason from.
    pub fn record(&mut self, trace: Option<&ChangeTrace>) {
        if trace.is_some_and(|t| t.fast_path) {
            self.incremental += 1;
            return;
        }
        self.full += 1;
        let reason = trace
            .and_then(|t| t.fallback_reason.as_deref())
            .unwrap_or("");
        if reason.contains("structural") {
            self.structural += 1;
        } else if reason.contains("no memo") {
            self.no_memo += 1;
        } else if reason.contains("spec miner") {
            self.miner_active += 1;
        } else {
            self.other += 1;
        }
    }

    /// The `core.runs_*` and `core.fallback_*` rows, per `per` operations.
    pub fn rows(&self, per: usize) -> [(&'static str, f64); 6] {
        let share = |v: usize| v as f64 / per.max(1) as f64;
        [
            ("core.runs_incremental", share(self.incremental)),
            ("core.runs_full", share(self.full)),
            ("core.fallback_structural", share(self.structural)),
            ("core.fallback_no_memo", share(self.no_memo)),
            ("core.fallback_miner_active", share(self.miner_active)),
            ("core.fallback_other", share(self.other)),
        ]
    }
}

/// The parts `Cloudless` is made of, held side by side.
pub struct Staged {
    pub cloud: Cloud,
    pub store: LogStore,
    /// Paths the memoized pipeline took since construction.
    pub paths: PathCounts,
    data: DataResolver,
    miner: SpecMiner,
    locks: ObservedLockManager<Arc<ResourceLockManager>>,
    watcher: LogWatcher,
    pipeline: IncrementalPipeline,
    config: Config,
}

/// What a staged reconcile decided; compared field by field with the real
/// `ReconcileReport`.
pub struct StagedReconcile {
    pub ops: usize,
    pub dropped: usize,
    pub iterations: usize,
    pub patched_source: String,
    pub converged: bool,
    pub apply_ops: u64,
}

/// The schedule the executor derives for itself, recomputed on the sealed
/// plan. Informational: it runs inside the converge span only because the
/// plan dies there, and every sum subtracts it again.
fn schedule(plan: &Plan, t: &mut Tracer, c: &mut Counts) {
    let waves = t.span(SCHEDULE_SPAN, |_| {
        let _cpa = CriticalPathAnalysis::compute(&plan.graph, |_, node| node.estimate.millis());
        levels(&plan.graph).map(|l| l.len()).unwrap_or(0)
    });
    count(c, "graph.waves", waves as f64);
}

pub const SCHEDULE_SPAN: &str = "graph.schedule";

/// The spans of [`Staged::frontend_stages`]: what a cold pipeline run does
/// before it builds its memo.
pub const FRONTEND_SPANS: [&str; 8] = [
    "hcl.parse",
    "hcl.classify",
    "analyze.lint",
    "hcl.expand",
    "validate.check",
    "analyze.concurrency",
    "deploy.diff",
    "deploy.render",
];

fn rejected(diagnostics: cloudless::hcl::Diagnostics) -> String {
    format!("program rejected:\n{diagnostics}")
}

impl Staged {
    /// `Cloudless::new` followed by `with_store` / `with_session`.
    pub fn new(config: Config, store: LogStore, records: Records, t: &mut Tracer) -> Staged {
        let mut cloud = Cloud::new(config.cloud.clone(), config.seed);
        cloud.set_recorder(Arc::clone(&config.recorder));
        let watcher =
            LogWatcher::new([config.principal.clone()]).with_recorder(Arc::clone(&config.recorder));
        let locks =
            ObservedLockManager::new(ResourceLockManager::new(), Arc::clone(&config.recorder));
        t.span("cloud.import_records", |_| cloud.import_records(records));
        let store = store.with_recorder(Arc::clone(&config.recorder));
        Staged {
            cloud,
            store,
            data: DataResolver::new(),
            miner: SpecMiner::new(),
            locks,
            watcher,
            pipeline: IncrementalPipeline::default(),
            config,
            paths: PathCounts::default(),
        }
    }

    pub fn state(&self) -> &Snapshot {
        self.store.current()
    }

    /// The cold front end, stage by stage: what `IncrementalPipeline`'s
    /// `run_cold` does before it builds the memo.
    pub fn frontend_stages(
        &self,
        source: &str,
        t: &mut Tracer,
        c: &mut Counts,
    ) -> Result<Frontend, String> {
        let lint_cfg = self.config.lint.config();
        let file = t
            .span("hcl.parse", |_| cloudless::hcl::parse(source, "main.tf"))
            .map_err(rejected)?;
        let program = t
            .span("hcl.classify", |_| Program::from_file(file))
            .map_err(rejected)?;
        count(c, "hcl.source_bytes", source.len() as f64);
        count(c, "hcl.blocks", program.resources.len() as f64);
        let mut findings = 0;
        if let Some(cfg) = &lint_cfg {
            let report = t.span("analyze.lint", |_| {
                lint_program(&program, &self.config.modules, cfg)
            });
            if report.fails(cfg) {
                return Err(format!(
                    "lint failed ({} finding(s))",
                    report.findings.len()
                ));
            }
            findings += report.findings.len();
        }
        let manifest = t
            .span("hcl.expand", |_| {
                expand(
                    &program,
                    &self.config.inputs,
                    &self.config.modules,
                    &self.data,
                )
            })
            .map_err(rejected)?;
        count(c, "hcl.instances", manifest.instances.len() as f64);
        let validation = t.span("validate.check", |_| {
            validate(
                &manifest,
                self.cloud.catalog(),
                self.config.validation_level,
                Some(&self.miner),
            )
        });
        count(
            c,
            "validate.diagnostics",
            validation.diagnostics.len() as f64,
        );
        if !validation.ok() {
            return Err(format!("validation failed:\n{}", validation.diagnostics));
        }
        if let Some(cfg) = &lint_cfg {
            let outcome = t.span("analyze.concurrency", |_| {
                analyze_manifest(&manifest, cfg, None)
            });
            if outcome.report.fails(cfg) {
                return Err("concurrency analysis failed".into());
            }
            findings += outcome.report.findings.len();
        }
        count(c, "analyze.findings", findings as f64);
        let changes = t.span("deploy.diff", |_| {
            diff(
                &manifest,
                self.store.current(),
                self.cloud.catalog(),
                &self.data,
            )
        });
        let plan_text = t.span("deploy.render", |_| render(&changes));
        Ok((manifest, changes, plan_text))
    }

    /// The memoized front end through its one public entry point, as the
    /// engine's private `run_pipeline` calls it.
    fn frontend_pipeline(
        &mut self,
        source: &str,
        t: &mut Tracer,
    ) -> Result<cloudless::pipeline::FrontendOutput, cloudless::pipeline::PipelineError> {
        let Staged {
            pipeline,
            data,
            cloud,
            store,
            miner,
            config,
            paths,
            ..
        } = self;
        let ctx = PipelineCtx {
            inputs: &config.inputs,
            modules: &config.modules,
            lint: config.lint,
            level: config.validation_level,
            data: &*data,
            catalog: cloud.catalog(),
            state: store.current(),
            miner: Some(&*miner),
            recorder: &config.recorder,
        };
        let out = t.span("core.pipeline_run", |_| pipeline.run(source, &ctx));
        paths.record(out.as_ref().ok().map(|o| &o.trace));
        out
    }

    /// One cold `IncrementalPipeline::run` against current state: the real
    /// front end including its memo build. Returns the run's wall time in
    /// ms and the memo's size; output and memo are dropped off the clock,
    /// as `converge` hands both on rather than dropping them.
    pub fn frontend_cold(&mut self, source: &str) -> Result<(f64, usize), String> {
        self.pipeline.clear();
        let t = Instant::now();
        let out = self.frontend_pipeline(source, &mut Tracer::off());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let bytes = self.pipeline.approx_bytes();
        self.pipeline.clear();
        out.map(|_| (ms, bytes))
            .map_err(|_| "cold front end refused the program".to_owned())
    }

    /// `Cloudless::converge_inner` with no targets and nothing to resume.
    /// `memoized` picks how the front end runs: stage by stage (the cold
    /// decomposition) or through the pipeline (what a warm engine does).
    /// Like the real call it hands the manifest back to its caller and
    /// drops the plan and the state clone before it returns, so the drops
    /// fall on the same side of the timer in both.
    pub fn converge(
        &mut self,
        source: &str,
        memoized: bool,
        t: &mut Tracer,
        c: &mut Counts,
    ) -> Result<(ApplyReport, String, Manifest), String> {
        t.span("core.converge_staged", |t| {
            let (manifest, changes, plan_text) = if memoized {
                let out = self
                    .frontend_pipeline(source, t)
                    .map_err(|_| "front end refused the program".to_owned())?;
                (out.manifest, out.changes, out.plan_text)
            } else {
                self.frontend_stages(source, t, c)?
            };
            let actionable = changes.iter().filter(|ch| !ch.action.is_noop()).count();
            count(c, "deploy.changes", actionable as f64);
            let plan = t.span("deploy.plan_build", |_| {
                Plan::build(changes, self.store.current(), self.cloud.catalog())
            });
            count(c, "deploy.plan_nodes", plan.graph.len() as f64);
            count(c, "deploy.plan_edges", plan.graph.edge_count() as f64);

            let scope = LockScope::of(plan.lock_scope());
            let _guard = t.span("state.lock_acquire", |_| self.locks.acquire(scope));
            let mut state = t.span("state.snapshot_clone", |_| self.store.current().clone());
            let apply = t.span("deploy.apply", |_| {
                Executor::new(self.config.strategy, &self.data)
                    .with_resilience(self.config.resilience.clone())
                    .with_recorder(Arc::clone(&self.config.recorder))
                    .resume_from(&plan, &mut self.cloud, &mut state, &BTreeSet::new())
            });
            count(c, "deploy.ops_submitted", apply.ops_submitted as f64);
            count(c, "deploy.attempts", apply.total_attempts() as f64);
            count(c, "deploy.retries", apply.retries as f64);
            count(
                c,
                "deploy.nodes_failed",
                (apply.failures() + apply.skips()) as f64,
            );
            count(
                c,
                "deploy.virtual_makespan_s",
                apply.makespan().millis() as f64 / 1e3,
            );

            state.outputs.clear();
            for (name, out) in &manifest.outputs {
                match out {
                    OutputValue::Known(v) => {
                        state.outputs.insert(name.clone(), v.clone());
                    }
                    OutputValue::Deferred { expr, env, .. } => {
                        let resolver = StateResolver::new(&state).with_data(&self.data);
                        let scope = env.scope(&resolver);
                        if let Ok(v) = cloudless::hcl::eval::eval(expr, &scope) {
                            state.outputs.insert(name.clone(), v);
                        }
                    }
                }
            }

            let log_before = self.store.log_bytes();
            t.span("state.commit", |_| {
                self.store.commit_snapshot(
                    &state,
                    CommitMeta {
                        at: self.cloud.now(),
                        author: self.config.principal.clone(),
                        message: format!("apply via {}", apply.strategy),
                        config_source: Some(source.to_owned()),
                    },
                )
            })
            .map_err(|e| format!("state log append: {e}"))?;
            count(
                c,
                "state.commit_log_bytes",
                (self.store.log_bytes() - log_before) as f64,
            );
            count(
                c,
                "state.records_deduped",
                self.store.records_deduped() as f64,
            );
            count(
                c,
                "state.checkpoint_lag",
                self.store.checkpoint_lag() as f64,
            );

            if apply.all_ok() {
                t.span("validate.mine", |_| self.miner.observe(&manifest));
            }
            schedule(&plan, t, c);
            Ok((apply, plan_text, manifest))
        })
    }

    /// `Cloudless::watch_drift`, minus the policy feed (no policy is
    /// registered on any benchmark path).
    pub fn watch_drift(&mut self, t: &mut Tracer) -> DriftReport {
        t.span("diagnose.watch_drift", |_| {
            self.watcher.poll(&self.cloud, self.store.current())
        })
    }

    /// `Cloudless::reconcile`.
    pub fn reconcile(
        &mut self,
        source: &str,
        dry_run: bool,
        t: &mut Tracer,
        c: &mut Counts,
    ) -> Result<StagedReconcile, String> {
        t.span("core.reconcile_staged", |t| {
            let file = t
                .span("hcl.parse", |_| cloudless::hcl::parse(source, "main.tf"))
                .map_err(rejected)?;
            let program = t
                .span("hcl.classify", |_| Program::from_file(file.clone()))
                .map_err(rejected)?;
            let manifest = t
                .span("hcl.expand", |_| {
                    expand(
                        &program,
                        &self.config.inputs,
                        &self.config.modules,
                        &self.data,
                    )
                })
                .map_err(rejected)?;
            count(c, "hcl.source_bytes", source.len() as f64);
            count(c, "hcl.blocks", program.resources.len() as f64);
            count(c, "hcl.instances", manifest.instances.len() as f64);

            let mut state = t.span("state.snapshot_clone", |_| self.store.current().clone());
            let refresh = t.span("deploy.refresh", |_| {
                full_refresh(&mut self.cloud, &mut state, &self.config.principal)
            });
            count(c, "deploy.refresh_reads", refresh.reads as f64);

            let drift = t.span("diagnose.classify", |_| {
                cloudless::diagnose::reconcile::classify(
                    &program,
                    &manifest,
                    &state,
                    self.cloud.records(),
                    self.cloud.catalog(),
                )
            });
            count(c, "diagnose.edit_ops", drift.ops.len() as f64);

            let patch_config = cloudless::synth::PatchConfig {
                lint: self.config.lint.config().unwrap_or_default(),
                ..cloudless::synth::PatchConfig::default()
            };
            let fail_on = patch_config.lint.fail_on;
            let mut candidates = 0u32;
            let outcome = t.span("synth.patch", |t| {
                let mut checker = |candidate: &str| {
                    candidates += 1;
                    match self.frontend_pipeline(candidate, t) {
                        Ok(_) => Vec::new(),
                        Err(err) => err.patch_messages(fail_on),
                    }
                };
                cloudless::synth::synthesize_patch_with(&file, &drift, &patch_config, &mut checker)
            });
            count(c, "synth.candidates_checked", candidates);
            count(c, "synth.repair_iterations", outcome.iterations as f64);
            count(c, "synth.ops_dropped", outcome.dropped.len() as f64);
            if !outcome.ok {
                return Err("no patch satisfies the lint gate".into());
            }

            for (addr, id) in &outcome.plan.imports {
                if let Some(rec) = self.cloud.records().get(id) {
                    state.put(DeployedResource {
                        addr: addr.clone(),
                        id: id.clone(),
                        rtype: rec.rtype.clone(),
                        region: rec.region.clone(),
                        attrs: rec.attrs.clone(),
                        depends_on: Vec::new(),
                        created_at: rec.created_at,
                    });
                }
            }
            let moved: Vec<_> = outcome
                .plan
                .moves
                .iter()
                .filter_map(|(from, to)| state.remove(from).map(|r| (to.clone(), r)))
                .collect();
            for (to, mut r) in moved {
                r.addr = to;
                state.put(r);
            }

            let patched_program = t
                .span("hcl.classify", |_| Program::from_file(outcome.file.clone()))
                .map_err(rejected)?;
            let patched_manifest = t
                .span("hcl.expand", |_| {
                    expand(
                        &patched_program,
                        &self.config.inputs,
                        &self.config.modules,
                        &self.data,
                    )
                })
                .map_err(rejected)?;

            let mut result = StagedReconcile {
                ops: outcome.plan.ops.len(),
                dropped: outcome.dropped.len(),
                iterations: outcome.iterations,
                patched_source: outcome.source,
                converged: false,
                apply_ops: 0,
            };
            if dry_run {
                let changes = t.span("deploy.diff", |_| {
                    diff(&patched_manifest, &state, self.cloud.catalog(), &self.data)
                });
                result.converged = changes.iter().all(|ch| ch.action.is_noop());
                let _plan_text = t.span("deploy.render", |_| render(&changes));
                return Ok(result);
            }

            t.span("state.commit", |_| {
                self.store.commit_snapshot_if_changed(
                    &state,
                    CommitMeta {
                        at: self.cloud.now(),
                        author: self.config.principal.clone(),
                        message: "reconcile: adopt drift".to_owned(),
                        config_source: None,
                    },
                )
            })
            .map_err(|e| format!("state log append: {e}"))?;
            let patched = result.patched_source.clone();
            let (apply, _plan_text, _manifest) = self.converge(&patched, true, t, c)?;
            result.apply_ops = apply.ops_submitted;
            let changes = t.span("deploy.diff", |_| {
                diff(
                    &patched_manifest,
                    self.store.current(),
                    self.cloud.catalog(),
                    &self.data,
                )
            });
            result.converged = changes.iter().all(|ch| ch.action.is_noop());
            Ok(result)
        })
    }
}
