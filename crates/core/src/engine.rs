//! The [`Cloudless`] engine: the Figure 1(b) lifecycle in one object.
//!
//! `converge(source)` is two calls in a row: [`Cloudless::plan`] (parse →
//! lint → expand → validate → analyze → diff → `prevent_destroy` guard →
//! policy admission) decides what would change or refuses the program, and
//! `execute` (lock → apply → outputs → commit) makes it so. `cloudless
//! plan` prints the first half, infrastructure rollback runs a plan lifted
//! from a checkpoint through the second, and `reconcile` runs both around
//! the state it adopted from the cloud: its dry run is the first half over
//! that state. The surrounding methods cover the rest of the operate phase:
//! refresh, drift watching, failure explanation.
//!
//! A refresh reads what the cloud's activity log names since the engine's
//! *sync point* — the log position as of which the committed state matched
//! the cloud at every address it holds — and every managed resource only
//! when the engine holds none (see [`Cloudless::refresh`]).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::pipeline::{
    ChangeTrace, FrontendOutput, ImageRefusal, IncrementalPipeline, PipelineCtx, PipelineError,
    PROGRAM_FILE,
};
use cloudless_analyze::{LintGate, LintReport};
use cloudless_cloud::{Catalog, Cloud, CloudConfig};
use cloudless_deploy::diff::{render, Action as DiffAction};
use cloudless_deploy::resolver::{DataResolver, StateResolver};
use cloudless_deploy::{
    plan_rollback, refresh_all, refresh_since, ApplyReport, Executor, Plan, RefreshReport,
    ResiliencePolicy, RollbackPlan, Strategy,
};
use cloudless_diagnose::reconcile::{classify_scope, Scope};
use cloudless_diagnose::{explain, DriftReport, Explanation, LogWatcher};
use cloudless_hcl::ast::File;
use cloudless_hcl::program::{expand, Manifest, ModuleLibrary, OutputValue, Program};
use cloudless_hcl::Diagnostics;
use cloudless_obs::{MetricsSnapshot, NullRecorder, Recorder};
use cloudless_policy::observe::PlanSummary;
use cloudless_policy::{Action, Controller, CostModel, LifecyclePhase, Observation};
use cloudless_state::{
    CommitMeta, HistoryView, LockManager, LockScope, LogStore, ObservedLockManager,
    ResourceLockManager, Snapshot, StoreError,
};
use cloudless_types::{ResourceAddr, Value};
use cloudless_validate::rules::quota_key;
use cloudless_validate::{SpecMiner, ValidationLevel, ValidationReport};

/// Engine configuration.
pub struct Config {
    pub cloud: CloudConfig,
    pub seed: u64,
    pub strategy: Strategy,
    pub principal: String,
    pub validation_level: ValidationLevel,
    /// Static-analysis gate run on the *un-expanded* program before
    /// planning: [`LintGate::DenyErrors`] (the default) refuses to plan on
    /// error-level lint findings, [`LintGate::DenyWarnings`] on warnings
    /// too, [`LintGate::Off`] skips the analyzer.
    pub lint: LintGate,
    /// Retry / deadline / circuit-breaker behavior of applies
    /// ([`ResiliencePolicy::standard`] unless configured otherwise).
    pub resilience: ResiliencePolicy,
    /// Variable inputs passed to programs.
    pub inputs: BTreeMap<String, Value>,
    /// Module sources for `module` blocks.
    pub modules: ModuleLibrary,
    /// Observability sink shared by every layer (cloud ops, executor spans,
    /// lock manager, drift watcher). The default [`NullRecorder`] makes every
    /// emission a no-op; install a `cloudless_obs::FlightRecorder` to capture
    /// spans, metrics, and exportable traces.
    pub recorder: Arc<dyn Recorder>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cloud: CloudConfig::default(),
            seed: 7,
            strategy: Strategy::CriticalPath { max_in_flight: 64 },
            principal: "cloudless-engine".to_owned(),
            validation_level: ValidationLevel::CloudRules,
            lint: LintGate::default(),
            resilience: ResiliencePolicy::standard(),
            inputs: BTreeMap::new(),
            modules: ModuleLibrary::new(),
            recorder: Arc::new(NullRecorder),
        }
    }
}

/// Why `converge` refused or failed.
#[derive(Debug)]
pub enum ConvergeError {
    /// The program does not parse/expand.
    Frontend(Diagnostics),
    /// The static-analysis gate found deny-level defects (§3.2: reject the
    /// program before any cloud API is considered).
    Lint(LintReport),
    /// Compile-time validation rejected the program.
    Validation(ValidationReport),
    /// A policy denied the plan.
    PolicyDenied(Vec<Action>),
    /// The state log refused a commit. Whatever the run did to the cloud
    /// stands and the committed state is the one from before the run; the
    /// engine keeps the refused snapshot and commits it ahead of its next
    /// operation, so a retry does not apply the same work twice.
    State(StoreError),
    /// A record of the committed state that the plan read does not decode:
    /// the log is damaged there, and what was read of the record is its
    /// head alone. Nothing was applied or committed.
    Unreadable(StoreError),
}

impl fmt::Display for ConvergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvergeError::Frontend(d) => write!(f, "program rejected:\n{d}"),
            ConvergeError::Lint(r) => {
                write!(
                    f,
                    "lint failed ({} finding(s)):\n{}",
                    r.findings.len(),
                    r.diagnostics()
                )
            }
            ConvergeError::Validation(r) => {
                write!(
                    f,
                    "validation failed ({} errors):\n{}",
                    r.error_count(),
                    r.diagnostics
                )
            }
            ConvergeError::PolicyDenied(actions) => {
                write!(f, "plan denied by policy: {} denial(s)", actions.len())
            }
            ConvergeError::State(e) => write!(f, "state commit failed: {e}"),
            ConvergeError::Unreadable(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ConvergeError {}

impl From<StoreError> for ConvergeError {
    fn from(e: StoreError) -> ConvergeError {
        ConvergeError::State(e)
    }
}

impl From<PipelineError> for ConvergeError {
    fn from(e: PipelineError) -> ConvergeError {
        match e {
            PipelineError::Frontend(d) => ConvergeError::Frontend(d),
            PipelineError::Lint(r) => ConvergeError::Lint(r),
            PipelineError::Validation(r) => ConvergeError::Validation(r),
        }
    }
}

/// What [`Cloudless::plan`] admitted: the plan a reviewer reads is the one
/// `converge` executes.
#[derive(Debug)]
pub struct Planned {
    pub manifest: Manifest,
    pub validation: ValidationReport,
    pub plan: Plan,
    /// Rendered plan text (what a user reviews).
    pub plan_text: String,
}

/// The result of a successful (possibly partially failed) converge.
#[derive(Debug)]
pub struct ConvergeOutcome {
    pub manifest: Manifest,
    pub validation: ValidationReport,
    /// Rendered plan text (what a user reviews).
    pub plan_text: String,
    pub apply: ApplyReport,
    /// Error translations for any failures (§3.5).
    pub explanations: Vec<Explanation>,
}

/// The result of a [`Cloudless::reconcile`] run.
#[derive(Debug)]
pub struct ReconcileReport {
    /// The surviving reconcile plan: edit ops applied to the program, plus
    /// the imports/moves they justified.
    pub plan: cloudless_diagnose::ReconcilePlan,
    /// Ops the validate-and-repair loop dropped, with the error that
    /// implicated each (their drift is overwritten instead of adopted).
    pub dropped: Vec<(cloudless_diagnose::EditOp, String)>,
    /// The patched program source (what the user should commit).
    pub patched_source: String,
    /// Repair-loop iterations used.
    pub iterations: usize,
    /// The refresh that preceded classification.
    pub refresh: RefreshReport,
    /// Rendered residual plan: what a real run executes, and a dry run
    /// would have.
    pub plan_text: String,
    /// The residual plan's apply report; `None` on dry runs.
    pub apply: Option<ApplyReport>,
    /// Whether the patched program now plans to an empty diff.
    pub converged: bool,
    pub dry_run: bool,
}

/// Where the committed state is known to match the cloud's records: at
/// every address it holds whose id the activity log does not name from
/// position `log` on.
#[derive(Debug, Clone, Copy)]
struct SyncPoint {
    /// The log's length when the refresh that took it began.
    log: u64,
    /// The committed serial it holds for: a commit that does not carry it
    /// forward (a rollback of the state document, a commit made late)
    /// leaves it behind.
    serial: u64,
    /// The cloud's [`Cloud::imports`]: records replaced wholesale are named
    /// by no log entry.
    imports: u64,
}

/// The state a plan decides against when it is not the committed one: a
/// snapshot nobody committed, and the addresses where it differs from the
/// committed state.
type Over<'a> = Option<(&'a Snapshot, &'a [ResourceAddr])>;

/// What a pipeline run under `config` reads of the engine, against `state`.
fn pipeline_ctx<'a>(
    config: &'a Config,
    data: &'a DataResolver,
    catalog: &'a Catalog,
    state: &'a Snapshot,
    miner: &'a SpecMiner,
) -> PipelineCtx<'a> {
    PipelineCtx {
        inputs: &config.inputs,
        modules: &config.modules,
        lint: config.lint,
        level: config.validation_level,
        data,
        catalog,
        state,
        miner: Some(miner),
        recorder: &config.recorder,
    }
}

/// The fingerprint of what a pipeline run reads of an engine whose catalog,
/// modules and data are these, that its memo image is keyed by and the
/// pipeline cannot take whole from a [`PipelineCtx`] (its data resolver is a
/// `dyn Resolver`).
fn memo_env(catalog: &Catalog, modules: &ModuleLibrary, data: &DataResolver) -> u64 {
    let text = format!("{catalog:?}\n{modules:?}\n{data:?}");
    cloudless_state::cas::fnv64(text.as_bytes())
}

/// The cloudless engine.
pub struct Cloudless {
    cloud: Cloud,
    store: LogStore,
    data: DataResolver,
    controller: Controller,
    miner: SpecMiner,
    locks: ObservedLockManager<std::sync::Arc<ResourceLockManager>>,
    watcher: LogWatcher,
    cost: CostModel,
    config: Config,
    pipeline: IncrementalPipeline,
    /// A snapshot the state log refused, with its commit message and
    /// program source: work the cloud already holds that no version
    /// records yet. See [`Cloudless::commit`].
    uncommitted: Option<(Snapshot, String, Option<String>)>,
    /// See [`SyncPoint`]; it holds only while its serial and import count
    /// are current ([`Cloudless::synced`]).
    sync: Option<SyncPoint>,
}

impl Cloudless {
    pub fn new(config: Config) -> Self {
        let mut cloud = Cloud::new(config.cloud.clone(), config.seed);
        cloud.set_recorder(Arc::clone(&config.recorder));
        let watcher =
            LogWatcher::new([config.principal.clone()]).with_recorder(Arc::clone(&config.recorder));
        let locks =
            ObservedLockManager::new(ResourceLockManager::new(), Arc::clone(&config.recorder));
        let store = LogStore::in_memory().with_recorder(Arc::clone(&config.recorder));
        Cloudless {
            cloud,
            store,
            data: DataResolver::new(),
            controller: Controller::new(),
            miner: SpecMiner::new(),
            locks,
            watcher,
            cost: CostModel::new(),
            config,
            pipeline: IncrementalPipeline::default(),
            uncommitted: None,
            // an empty state matches an empty cloud
            sync: Some(SyncPoint {
                log: 0,
                serial: 0,
                imports: 0,
            }),
        }
    }

    /// [`Cloudless::with_store`] over an in-memory log seeded with `state`.
    pub fn with_session(
        config: Config,
        state: Snapshot,
        records: BTreeMap<cloudless_types::ResourceId, cloudless_cloud::ResourceRecord>,
    ) -> Self {
        Self::with_store(config, LogStore::in_memory_seeded(state), records)
    }

    /// Rebuild an engine around an already-open (typically file-backed)
    /// log store and the cloud's live records: every commit the engine
    /// makes lands in the store's device, and the full version history is
    /// immediately queryable. The import leaves the engine without a sync
    /// point: its first refresh reads every managed resource.
    pub fn with_store(
        config: Config,
        store: LogStore,
        records: BTreeMap<cloudless_types::ResourceId, cloudless_cloud::ResourceRecord>,
    ) -> Self {
        let mut engine = Cloudless::new(config);
        engine.cloud.import_records(records);
        let recorder = Arc::clone(&engine.config.recorder);
        engine.store = store.with_recorder(recorder);
        engine
    }

    // ---------- accessors ----------

    /// The simulated cloud (for experiment harnesses and tests).
    pub fn cloud(&self) -> &Cloud {
        &self.cloud
    }

    pub fn cloud_mut(&mut self) -> &mut Cloud {
        &mut self.cloud
    }

    /// Current golden state.
    pub fn state(&self) -> &Snapshot {
        self.store.current()
    }

    /// The apply history (time machine): version metadata straight off the
    /// delta log, no state materialization.
    pub fn history(&self) -> HistoryView<'_> {
        self.store.history()
    }

    /// The log-structured state store (metrics, fsck, compaction hooks).
    pub fn store(&self) -> &LogStore {
        &self.store
    }

    /// The log store, device and memo image included, for a fresh engine
    /// to reopen (a new process, in a test).
    pub fn into_store(self) -> LogStore {
        self.store
    }

    /// Materialize the full state at a historical serial — O(delta) walk
    /// back from the head, `None` if the serial was never committed.
    pub fn state_at(&self, serial: u64) -> Option<Snapshot> {
        self.store.snapshot_at(serial)
    }

    /// Who commits a version, when, and from which program source.
    fn meta(&self, message: &str, source: Option<&str>) -> CommitMeta {
        CommitMeta {
            at: self.cloud.now(),
            author: self.config.principal.clone(),
            message: message.to_owned(),
            config_source: source.map(str::to_owned),
        }
    }

    /// Commit `state` as the next version; `always` records one even when
    /// nothing changed. A snapshot the log refuses is kept, and every
    /// operation that touches the cloud or the log commits it first
    /// ([`Cloudless::commit_uncommitted`]): until that lands the engine does
    /// nothing else, so work the cloud already holds is never redone. This
    /// is the one door every commit goes through: what lands settles the
    /// plan cache ([`Cloudless::landed`]), and no caller says what it wrote.
    fn commit(
        &mut self,
        state: Snapshot,
        message: &str,
        source: Option<&str>,
        always: bool,
    ) -> Result<(), StoreError> {
        let (from, meta) = (self.store.serial(), self.meta(message, source));
        let done = if always {
            self.store.commit_snapshot(&state, meta).map(drop)
        } else {
            self.store
                .commit_snapshot_if_changed(&state, meta)
                .map(drop)
        };
        if done.is_err() {
            self.uncommitted = Some((state, message.to_owned(), source.map(str::to_owned)));
        }
        self.landed(from);
        done
    }

    /// The tail of every commit, [`Cloudless::rollback_state`]'s included:
    /// if a version landed on serial `from`, the plan cache follows what it
    /// changed, read off the log ([`IncrementalPipeline`]'s `committed`:
    /// only a cache of `from` reads it, so an engine without one parses
    /// nothing), and the memo of a cache that followed is checkpointed
    /// owing no plan.
    fn landed(&mut self, from: u64) {
        let latest = self.store.history().latest();
        let Some(version) = latest.filter(|_| self.store.serial() != from) else {
            return;
        };
        let puts = version.puts.iter().map(|put| &put.addr);
        let delta = puts.chain(version.dels.iter().map(|del| &del.addr));
        let (catalog, state) = (self.cloud.catalog(), self.store.current());
        let ctx = pipeline_ctx(&self.config, &self.data, catalog, state, &self.miner);
        if (self.pipeline).committed(from, delta.map(|addr| addr.parse()), &ctx) {
            self.checkpoint();
        }
    }

    /// The log position a refresh may start from: the sync point's, while
    /// neither the committed serial nor the cloud's records have moved
    /// past it unseen.
    fn synced(&self) -> Option<u64> {
        let holds =
            |sp: &SyncPoint| sp.serial == self.store.serial() && sp.imports == self.cloud.imports();
        self.sync.filter(holds).map(|sp| sp.log)
    }

    /// A sync point at log position `log` for the state now committed.
    fn sync_point(&self, log: u64) -> SyncPoint {
        SyncPoint {
            log,
            serial: self.store.serial(),
            imports: self.cloud.imports(),
        }
    }

    /// The committed state refreshed from the cloud — from the sync point
    /// when one holds, else at every address; a copy only when a read found
    /// a record changed or gone — and the log position the refresh began at:
    /// where a sync point for it, once committed, would sit.
    fn refreshed(
        cloud: &mut Cloud,
        committed: &Snapshot,
        principal: &str,
        since: Option<u64>,
    ) -> (Option<Snapshot>, RefreshReport, u64) {
        let at = cloud.activity().len() as u64;
        let mut state = Cow::Borrowed(committed);
        let report = match since {
            Some(since) => refresh_since(cloud, &mut state, principal, since),
            None => refresh_all(cloud, &mut state, principal),
        };
        let folded = match state {
            Cow::Owned(state) => Some(state),
            Cow::Borrowed(_) => None,
        };
        (folded, report, at)
    }

    /// The refreshed state of a refresh that began at log position `at` is
    /// committed: take a sync point there, unless a read did not settle.
    /// The sync point before it, if it still holds, names that resource.
    fn settle(&mut self, at: u64, refresh: &RefreshReport) {
        if refresh.unsettled.is_empty() {
            self.sync = Some(self.sync_point(at));
        }
    }

    /// Commit the snapshot an earlier operation could not, if there is one.
    fn commit_uncommitted(&mut self) -> Result<(), StoreError> {
        match self.uncommitted.take() {
            Some((state, message, source)) => self.commit(state, &message, source.as_deref(), true),
            None => Ok(()),
        }
    }

    /// Time-travel the *state document* to a historical serial by
    /// committing the inverse delta (the cloud is untouched — pair with
    /// [`Cloudless::plan_rollback_to`]/[`Cloudless::execute_rollback`] to
    /// move the infrastructure too). Returns the new serial, or `None`
    /// when the state already matches the target.
    pub fn rollback_state(&mut self, serial: u64) -> Result<Option<u64>, String> {
        self.commit_uncommitted().map_err(|e| e.to_string())?;
        let meta = self.meta(&format!("rollback state to serial {serial}"), None);
        let from = self.store.serial();
        let rolled = (self.store.rollback_to(serial, meta)).map_err(|e| e.to_string())?;
        self.landed(from);
        Ok(rolled)
    }

    /// The policy controller (register policies here).
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.controller
    }

    /// Change the lint gate after construction (the CLI's `--deny` flags
    /// adjust a loaded session this way).
    pub fn set_lint_gate(&mut self, gate: LintGate) {
        self.config.lint = gate;
    }

    /// The convention miner (observes every successful apply).
    pub fn miner(&self) -> &SpecMiner {
        &self.miner
    }

    /// The observability recorder every layer emits into.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.config.recorder
    }

    /// Snapshot of the engine-wide metrics registry, or `None` when the
    /// configured recorder keeps no metrics (the default [`NullRecorder`]).
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.config.recorder.metrics()
    }

    /// Program outputs as of the last apply (deferred outputs are resolved
    /// against the post-apply state).
    pub fn outputs(&self) -> &BTreeMap<String, Value> {
        &self.store.current().outputs
    }

    // ---------- plan / apply ----------

    /// Run the memoized front end (parse → lint → expand → validate →
    /// diff) over `source` against the committed state, or against `over`:
    /// a snapshot nobody committed and the addresses where it differs from
    /// the committed state. The plan of such a snapshot is the plan cache's
    /// with those addresses planned again, and the cache owes them until the
    /// next run or commit ([`Cloudless::landed`]).
    fn run_pipeline(
        &mut self,
        source: &str,
        over: Over<'_>,
    ) -> Result<FrontendOutput, PipelineError> {
        let Cloudless {
            pipeline,
            data,
            cloud,
            store,
            miner,
            config,
            ..
        } = self;
        let state = over.map_or(store.current(), |(state, _)| state);
        let ctx = pipeline_ctx(config, data, cloud.catalog(), state, miner);
        let env = || memo_env(cloud.catalog(), &config.modules, data);
        pipeline.open(store, env, &ctx);
        pipeline.run_over(source, &ctx, over.map(|(_, delta)| delta))
    }

    /// Checkpoint the memo beside the state log for a fresh process to
    /// start from warm (the pipeline writes it unless an image of the
    /// committed state is there already).
    fn checkpoint(&mut self) {
        let Cloudless {
            pipeline,
            data,
            cloud,
            store,
            config,
            ..
        } = self;
        let env = || memo_env(cloud.catalog(), &config.modules, data);
        pipeline.checkpoint(store, env, &*config.recorder);
    }

    /// Whether the memo image beside the state log would warm this
    /// engine's first run: the serial it was written at, `None` when there
    /// is none, or why it would be refused (`MEM0xx`). Loads nothing.
    pub fn check_memo_image(&self) -> Result<Option<u64>, ImageRefusal> {
        let (catalog, state) = (self.cloud.catalog(), self.store.current());
        let ctx = pipeline_ctx(&self.config, &self.data, catalog, state, &self.miner);
        let env = memo_env(catalog, &self.config.modules, &self.data);
        IncrementalPipeline::check_image(&self.store, env, &ctx)
    }

    /// Plan-only converge front end through the memoized pipeline: parse,
    /// lint, expand, validate and diff `source` against current state,
    /// re-running only the stages (and the resource subgraph) the edit
    /// impacts when the memo is warm. Returns the rendered plan and the
    /// [`ChangeTrace`] of what actually ran. Never locks, applies, or
    /// mutates state — `cloudless watch` and the replan experiments sit on
    /// this.
    pub fn plan_incremental(
        &mut self,
        source: &str,
    ) -> Result<(String, ChangeTrace), ConvergeError> {
        let out = self.run_pipeline(source, None)?;
        Ok((out.plan_text, out.trace))
    }

    /// Drop the incremental pipeline's memo; the next converge/plan is a
    /// cold full run.
    pub fn clear_pipeline_cache(&mut self) {
        self.pipeline.clear();
    }

    /// The incremental pipeline (memo introspection for tests/tools).
    pub fn pipeline(&self) -> &IncrementalPipeline {
        &self.pipeline
    }

    /// Summarize a plan for policy admission: every instance and its cost,
    /// so only when a policy is bound to the deploy phase to read it.
    fn summarize(&self, manifest: &Manifest, plan: &Plan) -> PlanSummary {
        let mut creates = 0;
        let mut updates = 0;
        let mut deletes = 0;
        let mut replaces = 0;
        for (_, node) in plan.graph.iter() {
            match node.change.action {
                DiffAction::Create => creates += 1,
                DiffAction::Update { .. } => updates += 1,
                DiffAction::Delete => deletes += 1,
                DiffAction::Replace { .. } => replaces += 1,
                DiffAction::NoOp => {}
            }
        }
        let mut fleet: BTreeMap<(&str, &str), usize> = BTreeMap::new();
        for inst in &manifest.instances {
            *fleet.entry(quota_key(inst)).or_insert(0) += 1;
        }
        let fleet = fleet.into_iter();
        PlanSummary {
            creates,
            updates,
            deletes,
            replaces,
            resulting_fleet: (fleet.map(|((t, r), n)| (t.to_owned(), r.to_owned(), n))).collect(),
            monthly_cost: self.cost.manifest_monthly(manifest),
        }
    }

    /// §3.4 guardrail: a resource marked `prevent_destroy` may not be
    /// destroyed or replaced by a plan — surface it like a validation
    /// failure, before anything runs, at the block `source` declares it in.
    fn guard_prevent_destroy(&self, plan: &Plan, source: &str) -> Result<(), ConvergeError> {
        let guarded: Vec<_> = (plan.graph.iter())
            .filter_map(|(_, node)| {
                let fate = match node.change.action {
                    DiffAction::Delete => "destroyed",
                    DiffAction::Replace { .. } => "replaced",
                    _ => return None,
                };
                let desired = node.change.desired.as_deref()?;
                let guarded = desired.lifecycle.prevent_destroy;
                guarded.then_some((&node.change.addr, desired, fate))
            })
            .collect();
        if guarded.is_empty() {
            return Ok(());
        }
        let (_, _, cold) = self.cold(source)?;
        let mut diagnostics = Diagnostics::new();
        for (addr, desired, fate) in guarded {
            let at = cold.instance(addr).unwrap_or(desired);
            let message = format!("{addr} would be {fate} but has prevent_destroy set");
            diagnostics.push(
                cloudless_hcl::Diagnostic::error("LIF001", &at.file, at.span, message)
                    .with_suggestion(
                        "remove prevent_destroy or avoid changing immutable attributes",
                    ),
            );
        }
        Err(ConvergeError::Validation(ValidationReport {
            level: self.config.validation_level,
            diagnostics,
        }))
    }

    /// The deciding half of [`Cloudless::converge`]: run `source` through
    /// the memoized front end (a warm memo turns a block-local edit into an
    /// O(edit) replan), build the plan against current state, restrict it
    /// to `targets` (plus their dependencies, `terraform apply -target`
    /// semantics; empty = the whole plan), and hold it against the
    /// `prevent_destroy` guard and the registered policies. Refuses exactly
    /// what `converge` refuses and touches neither the cloud nor the state.
    /// A memo no image holds yet is checkpointed for the next process.
    pub fn plan(
        &mut self,
        source: &str,
        targets: &[ResourceAddr],
    ) -> Result<Planned, ConvergeError> {
        let planned = self.decide(source, targets)?;
        self.checkpoint();
        Ok(planned)
    }

    /// [`Cloudless::plan`] against the committed state, for an apply that
    /// checkpoints what it commits.
    fn decide(&mut self, source: &str, targets: &[ResourceAddr]) -> Result<Planned, ConvergeError> {
        self.commit_uncommitted()?;
        self.plan_over(source, targets, None)
    }

    /// [`Cloudless::plan`] against the state it is handed: `over`, a
    /// snapshot nobody committed (the reconciler's adopted state) with the
    /// addresses where it differs, or the committed one. Every decision the
    /// engine makes is this call.
    fn plan_over(
        &mut self,
        source: &str,
        targets: &[ResourceAddr],
        over: Over<'_>,
    ) -> Result<Planned, ConvergeError> {
        let FrontendOutput {
            manifest,
            validation,
            changes,
            mut plan_text,
            ..
        } = self.run_pipeline(source, over)?;
        let state = over.map_or(self.store.current(), |(state, _)| state);
        let mut plan = Plan::build(changes, state, self.cloud.catalog());
        // a record the plan read that did not decode was read as its head
        state.check().map_err(ConvergeError::Unreadable)?;
        if !targets.is_empty() {
            let (restricted, dropped) = plan.restrict_to(targets);
            let kept = restricted.graph.iter().map(|(_, node)| node.change.clone());
            plan_text = render(&kept.collect::<Vec<_>>());
            plan_text.push_str(&format!(
                "({dropped} change(s) outside the target closure suppressed)\n"
            ));
            plan = restricted;
        }
        self.guard_prevent_destroy(&plan, source)?;
        if self.controller.watches(LifecyclePhase::Deploy) {
            self.controller
                .admits_plan(self.summarize(&manifest, &plan))
                .map_err(ConvergeError::PolicyDenied)?;
        }
        Ok(Planned {
            manifest,
            validation,
            plan,
            plan_text,
        })
    }

    /// The acting half of [`Cloudless::converge`], and all of an
    /// infrastructure rollback: every cloud mutation the engine makes goes
    /// through here. Locks exactly the resources the plan touches (§3.4),
    /// runs it under the configured strategy and resilience policy,
    /// resolves `outputs` against the post-apply state, and commits that
    /// state as "`verb` via <strategy>" — always, so a partial failure is
    /// recorded as far as it got and the next plan holds only what is left.
    fn execute(
        &mut self,
        plan: &Plan,
        outputs: &BTreeMap<String, OutputValue>,
        verb: &str,
        source: Option<&str>,
    ) -> Result<ApplyReport, StoreError> {
        let _guard = self.locks.acquire(LockScope::of(plan.lock_scope()));

        let synced = self.synced();
        let mut state = self.store.current().clone();
        let mut executor = Executor::new(self.config.strategy, &self.data)
            .with_resilience(self.config.resilience.clone())
            .with_recorder(Arc::clone(&self.config.recorder));
        // the watcher trusts `Config.principal`: act as it, or the engine's
        // own updates come back as drift
        executor.principal = self.config.principal.clone();
        let apply = executor.apply(plan, &mut self.cloud, &mut state);

        // §2.1's user-visible results; deferred outputs resolve now that
        // their resources exist, and one whose resource failed to apply is
        // simply absent
        state.outputs.clear();
        for (name, out) in outputs {
            let value = match out {
                OutputValue::Known(v) => Some(v.clone()),
                OutputValue::Deferred {
                    expr,
                    env,
                    module_path,
                    ..
                } => {
                    let resolver = StateResolver::new(&state)
                        .in_module(module_path)
                        .with_data(&self.data);
                    cloudless_hcl::eval::eval(expr, &env.scope(&resolver)).ok()
                }
            };
            if let Some(v) = value {
                state.outputs.insert(name.clone(), v);
            }
        }

        // the delta log records only the changed resources, plus the
        // source that produced them (time machine, §3.4)
        let message = format!("{verb} via {}", apply.strategy);
        self.commit(state, &message, source, true)?;
        // the log names every op the executor submitted, so what the apply
        // changed is read again from the sync point: it carries forward
        self.sync = synced.map(|log| self.sync_point(log));
        Ok(apply)
    }

    /// The full pipeline: [`Cloudless::plan`], then lock → apply →
    /// checkpoint → learn conventions.
    pub fn converge(&mut self, source: &str) -> Result<ConvergeOutcome, ConvergeError> {
        self.converge_targeted(source, &[])
    }

    /// [`Cloudless::converge`] restricted to `targets` (plus their
    /// dependencies) — `terraform apply -target` semantics. An empty target
    /// list applies the whole plan.
    pub fn converge_targeted(
        &mut self,
        source: &str,
        targets: &[ResourceAddr],
    ) -> Result<ConvergeOutcome, ConvergeError> {
        let planned = self.decide(source, targets)?;
        self.apply_planned(planned, source)
    }

    /// Make an admitted plan so: execute it, learn conventions from a
    /// clean apply, translate what failed.
    fn apply_planned(
        &mut self,
        planned: Planned,
        source: &str,
    ) -> Result<ConvergeOutcome, ConvergeError> {
        let Planned {
            manifest,
            validation,
            plan,
            plan_text,
        } = planned;
        let apply = self.execute(&plan, &manifest.outputs, "apply", Some(source))?;

        // observe conventions from successful applies (§3.2 mining)
        if apply.all_ok() {
            self.miner.observe(&manifest);
        }

        // translate failures (§3.5) at the blocks `source` declares them in
        let errors = apply.errors();
        let cold = (!errors.is_empty())
            .then(|| self.cold(source).ok())
            .flatten();
        let declared = cold.as_ref().map_or(&manifest, |(_, _, cold)| cold);
        let explanations = (errors.iter())
            .filter_map(|(addr, err)| {
                addr.parse()
                    .ok()
                    .map(|a: ResourceAddr| explain(err, &a, declared))
            })
            .collect();

        Ok(ConvergeOutcome {
            manifest,
            validation,
            plan_text,
            apply,
            explanations,
        })
    }

    // ---------- operate ----------

    /// Refresh the committed state through the cloud API and commit it.
    /// From the sync point it reads the resources the activity log names
    /// since; without one — an engine rebuilt from session files, or after
    /// [`Cloudless::rollback_state`], a wholesale `Cloud::import_records`, a
    /// commit the log refused or a read that did not settle — it reads every
    /// managed resource, and either way it finds what a full refresh would.
    /// A refresh whose every read settled leaves the engine synced.
    pub fn refresh(&mut self) -> Result<RefreshReport, StoreError> {
        self.commit_uncommitted()?;
        let since = self.synced();
        let principal = &self.config.principal;
        let (folded, report, at) =
            Self::refreshed(&mut self.cloud, self.store.current(), principal, since);
        if let Some(state) = folded {
            self.commit(state, "refresh", None, false)?;
        }
        self.settle(at, &report);
        Ok(report)
    }

    /// Poll the activity log for drift (§3.5) and feed events to the
    /// controller (§3.6). Returns the raw report and any policy actions.
    pub fn watch_drift(&mut self) -> (DriftReport, Vec<Action>) {
        let report = self.watcher.poll(&self.cloud, self.store.current());
        let mut actions = Vec::new();
        for ev in &report.events {
            actions.extend(
                self.controller
                    .feed(LifecyclePhase::Operate, &Observation::Drift(ev.clone())),
            );
        }
        (report, actions)
    }

    /// Close the drift loop (§3.5's "regenerate the IaC-level program"):
    /// refresh live state into the committed state's copy (as
    /// [`Cloudless::refresh`] reads it), classify every out-of-band mutation
    /// into minimal program edit ops, synthesize a lint-clean patch through
    /// the validate-and-repair loop, fold imports/moves into the copy, and
    /// plan the patched program over that adopted state — the one residual
    /// plan, held against every gate of [`Cloudless::plan`]. A dry run
    /// returns it and leaves the engine untouched, its sync point included.
    /// A real run commits the adopted state and executes that same plan, so
    /// residual drift (ops the repair loop dropped) is overwritten, then
    /// proves that the patched program re-plans to an empty diff.
    ///
    /// Each step reads what the engine already holds and costs what
    /// drifted. The refresh reads what the log names since the sync point
    /// and copies the committed state only to fold a change in. When the
    /// memo holds `source` and its plan cache is of the committed serial,
    /// classification visits only the blocks that can hold drift
    /// ([`IncrementalPipeline`]'s `drift_scope`), parsed off the memo's
    /// chunks, and walks the cloud's records only when there are more of
    /// them than the state holds; otherwise it visits every block of a cold
    /// parse. A patch with no op is `source` byte for byte, so a reconcile
    /// that classifies nothing parses and renders nothing. The adopted
    /// state is planned as the committed one plus the addresses where it
    /// differs, and committing it settles those alone, so the proof after
    /// an apply of nothing is a cache hit.
    ///
    /// A refusal — the input program does not parse/expand, no patch (not
    /// even the op-free program) passes the front-end gates, or the
    /// residual plan trips `prevent_destroy` or a policy — is the error the
    /// refusing gate raised, and comes before any write, dry run or not.
    pub fn reconcile(
        &mut self,
        source: &str,
        dry_run: bool,
    ) -> Result<ReconcileReport, ConvergeError> {
        // a program the memo holds parsed and expanded clean; any other is
        // parsed and expanded here, and refused before anything is read or
        // written
        let inputs = &self.config.inputs;
        let mut cold = match self.pipeline.manifest_of(source, inputs) {
            Some(_) => None,
            None => {
                self.config.recorder.counter("reconcile.parses", 1);
                Some(self.cold(source)?)
            }
        };
        // a snapshot an earlier run could not commit goes in first even on
        // a dry run, or what it created would read as rogue
        self.commit_uncommitted()?;

        // observe: fold live truth into a copy of the committed state (one
        // only if a read changed something; committed only on a real run)
        let since = self.synced();
        let principal = &self.config.principal;
        let (mut adopted, refresh, at) =
            Self::refreshed(&mut self.cloud, self.store.current(), principal, since);
        let state = adopted.as_ref().unwrap_or(self.store.current());

        // classify drift into edit ops. Read from a sync point with every
        // read settled, each state entry is a live record: none is
        // unmanaged unless there are more records than entries
        let records = self.cloud.records();
        let all_held =
            since.is_some() && refresh.unsettled.is_empty() && records.len() == state.len();
        let (inputs, serial) = (&self.config.inputs, self.store.serial());
        let touched = refresh.updated.iter().chain(&refresh.missing);
        let scoped = (self.pipeline).drift_scope(source, inputs, serial, touched, !all_held);
        let scope = match scoped {
            Some((blocks, names)) => Scope::blocks(blocks, names),
            None => {
                let whole = match cold.take() {
                    Some(whole) => whole,
                    None => {
                        self.config.recorder.counter("reconcile.parses", 1);
                        self.cold(source)?
                    }
                };
                let (_, program, manifest) = &*cold.insert(whole);
                Scope::every_block(program, manifest)
            }
        };
        let recorder = &self.config.recorder;
        recorder.counter("reconcile.blocks_classified", scope.len() as u64);
        let drift = classify_scope(scope, state, records, self.cloud.catalog());

        // synthesize the patch under the engine's lint gate, routing every
        // candidate through the memoized pipeline: a repaired candidate that
        // differs from the previous one in a single op replays only the
        // impacted subgraph, and the final accepted candidate leaves the
        // memo warm so the converge below re-parses nothing. No op: the
        // patch is the program as written, which the plan below gates
        let (plan, dropped, patched, iterations) = if drift.ops.is_empty() {
            (drift, Vec::new(), source.to_owned(), 1)
        } else {
            let parsed;
            let file = match &cold {
                Some((file, _, _)) => file,
                None => {
                    self.config.recorder.counter("reconcile.parses", 1);
                    parsed = self.parse(source)?;
                    &parsed
                }
            };
            let patch_config = cloudless_synth::PatchConfig {
                lint: self.config.lint.config().unwrap_or_default(),
                ..cloudless_synth::PatchConfig::default()
            };
            let fail_on = patch_config.lint.fail_on;
            let mut refused: Option<PipelineError> = None;
            let mut checker = |candidate: &str| match self.run_pipeline(candidate, None) {
                Ok(_) => Vec::new(),
                Err(err) => {
                    let messages = err.patch_messages(fail_on);
                    refused = Some(err);
                    messages
                }
            };
            let outcome = cloudless_synth::synthesize_patch(
                source,
                file,
                &drift,
                &patch_config,
                &mut checker,
            );
            if let (false, Some(err)) = (outcome.ok, refused) {
                // even the unpatched program is refused: pass the refusal on
                // rather than emit a patch that cannot be admitted
                return Err(err.into());
            }
            (
                outcome.plan,
                outcome.dropped,
                outcome.source,
                outcome.iterations,
            )
        };
        // the cold parse and expansion served the classifier and the
        // synthesizer; freed now, not after the plan and the apply
        drop(cold);

        // state surgery the surviving ops justify: bind imports to their
        // live ids, renumber counted survivors (two phases so overlapping
        // moves cannot clobber each other)
        if !plan.imports.is_empty() || !plan.moves.is_empty() {
            let state = adopted.get_or_insert_with(|| self.store.current().clone());
            for (addr, id) in &plan.imports {
                if let Some(rec) = self.cloud.records().get(id) {
                    state.put(cloudless_state::DeployedResource {
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
            let moved: Vec<_> = (plan.moves.iter())
                .filter_map(|(from, to)| state.remove(from).map(|r| (to.clone(), r)))
                .collect();
            for (to, mut r) in moved {
                r.addr = to;
                state.put(r);
            }
        }

        // decide: the residual plan of the patched program over the
        // adopted state — the committed one where it adopted nothing.
        // Adopted drift is already a no-op in it, dropped ops' drift is
        // overwritten back to the program
        let delta: Vec<ResourceAddr> = (refresh.updated.iter())
            .chain(&refresh.missing)
            .chain(plan.imports.iter().map(|(addr, _)| addr))
            .chain(plan.moves.iter().flat_map(|(from, to)| [from, to]))
            .cloned()
            .collect();
        let over = adopted.as_ref().map(|state| (state, &delta[..]));
        let planned = self.plan_over(&patched, &[], over)?;
        let mut converged = planned.plan.is_empty();
        let (plan_text, apply) = if dry_run {
            self.checkpoint();
            (planned.plan_text, None)
        } else {
            // act: adopt, run the plan a dry run shows, prove the fixpoint
            // (a proof the gates refuse proves nothing)
            if let Some(state) = adopted {
                self.commit(state, "reconcile: adopt drift", None, false)?;
            }
            self.settle(at, &refresh);
            let applied = self.apply_planned(planned, &patched)?;
            let proof = self.plan(&patched, &[]);
            converged = proof.is_ok_and(|p| p.plan.is_empty());
            (applied.plan_text, Some(applied.apply))
        };
        Ok(ReconcileReport {
            plan,
            dropped,
            patched_source: patched,
            iterations,
            refresh,
            plan_text,
            apply,
            converged,
            dry_run,
        })
    }

    /// Parse `source` as the file [`PROGRAM_FILE`].
    fn parse(&self, source: &str) -> Result<File, ConvergeError> {
        cloudless_hcl::parse(source, PROGRAM_FILE).map_err(ConvergeError::Frontend)
    }

    /// [`Cloudless::parse`], the program the file declares, and its cold
    /// expansion under the engine's inputs and modules. Every position in it
    /// is the file's, where a warm run's manifest holds the positions its
    /// unedited blocks were parsed at: a report of positions reads them
    /// here, and expands only when there is something to report.
    fn cold(&self, source: &str) -> Result<(File, Program, Manifest), ConvergeError> {
        let file = self.parse(source)?;
        let program = Program::from_file(file.clone()).map_err(ConvergeError::Frontend)?;
        let (inputs, modules) = (&self.config.inputs, &self.config.modules);
        let manifest =
            expand(&program, inputs, modules, &self.data).map_err(ConvergeError::Frontend)?;
        Ok((file, program, manifest))
    }

    /// Feed a metric observation to operate-phase policies.
    pub fn observe_metric(&mut self, addr: &str, metric: &str, value: f64) -> Vec<Action> {
        let Ok(addr) = addr.parse() else {
            return vec![];
        };
        let obs = Observation::Metric {
            addr,
            metric: metric.to_owned(),
            value,
            at: self.cloud.now(),
        };
        self.controller.feed(LifecyclePhase::Operate, &obs)
    }

    // ---------- rollback (§3.4) ----------

    /// Plan a rollback to a checkpoint serial. Refreshes first so that the
    /// plan also reverses out-of-band modifications.
    pub fn plan_rollback_to(&mut self, serial: u64) -> Result<RollbackPlan, String> {
        let target = self
            .state_at(serial)
            .ok_or_else(|| format!("serial {serial} was never committed"))?;
        self.refresh().map_err(|e| e.to_string())?;
        Ok(plan_rollback(
            self.store.current(),
            &target,
            self.cloud.catalog(),
            &self.data,
        ))
    }

    /// Execute a rollback plan the way `converge` executes any plan: in
    /// dependency order, under resource locks, with retries and deadlines.
    /// What ran is committed even when a node fails, so state never trails
    /// what was done to the cloud; the report says which nodes did not land.
    pub fn execute_rollback(&mut self, plan: &RollbackPlan) -> Result<ApplyReport, StoreError> {
        self.commit_uncommitted()?;
        self.execute(&plan.plan, &plan.outputs, "rollback", None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_types::value::attrs;

    fn engine() -> Cloudless {
        Cloudless::new(Config {
            cloud: CloudConfig::exact(),
            ..Config::default()
        })
    }

    const WEB: &str = r#"
resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "app" {
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}
resource "aws_virtual_machine" "web" {
  count     = 2
  name      = "web-${count.index}"
  subnet_id = aws_subnet.app.id
}
"#;

    #[test]
    fn converge_full_lifecycle() {
        let mut e = engine();
        let out = e.converge(WEB).expect("converges");
        assert!(out.apply.all_ok());
        assert!(out.plan_text.contains("3 to add") || out.plan_text.contains("4 to add"));
        assert_eq!(e.state().len(), 4);
        assert_eq!(e.history().len(), 1);
        // re-converge: empty plan, nothing applied
        let again = e.converge(WEB).expect("idempotent");
        assert_eq!(again.apply.ops_submitted, 0);
    }

    #[test]
    fn converge_rejects_invalid_program_before_any_cloud_op() {
        let mut e = engine();
        let err = e
            .converge(
                r#"
resource "azure_network_interface" "n" {
  name     = "n"
  location = "westeurope"
}
resource "azure_virtual_machine" "vm" {
  name     = "vm"
  location = "eastus"
  nic_ids  = [azure_network_interface.n.id]
}
"#,
            )
            .unwrap_err();
        assert!(matches!(err, ConvergeError::Validation(_)));
        assert_eq!(e.cloud().total_api_calls(), 0, "caught at compile time");
    }

    #[test]
    fn policy_denies_over_budget_plan() {
        let mut e = engine();
        e.controller_mut()
            .register(Box::new(cloudless_policy::BudgetPolicy {
                monthly_budget: 50.0,
            }));
        // 2 VMs = $140/month > $50
        let err = e.converge(WEB).unwrap_err();
        assert!(matches!(err, ConvergeError::PolicyDenied(_)));
        assert_eq!(e.state().len(), 0);
    }

    #[test]
    fn reconcile_clean_world_is_a_noop() {
        let mut e = engine();
        e.converge(WEB).expect("deploy");
        let r = e.reconcile(WEB, false).expect("reconciles");
        assert!(r.converged);
        assert!(r.plan.is_empty(), "{:?}", r.plan);
        assert!(r.dropped.is_empty());
        assert_eq!(r.apply.unwrap().ops_submitted, 0);
    }

    #[test]
    fn reconcile_adopts_attr_drift_with_zero_cloud_writes() {
        let mut e = engine();
        e.converge(WEB).expect("deploy");
        let subnet_id = e
            .state()
            .get(&"aws_subnet.app".parse().unwrap())
            .unwrap()
            .id
            .clone();
        e.cloud_mut()
            .out_of_band_update(
                "clickops",
                &subnet_id,
                attrs([("cidr_block", Value::from("10.0.5.0/24"))]),
            )
            .unwrap();
        let r = e.reconcile(WEB, false).expect("reconciles");
        assert!(r.converged);
        assert_eq!(r.plan.ops.len(), 1, "{:?}", r.plan.ops);
        assert!(r.patched_source.contains("10.0.5.0/24"));
        // adoption means the cloud is already right: nothing applied
        assert_eq!(r.apply.unwrap().ops_submitted, 0);
        // and the patched program is now the fixpoint
        let again = e.reconcile(&r.patched_source, false).expect("idempotent");
        assert!(again.plan.is_empty());
    }

    #[test]
    fn reconcile_imports_rogue_resource() {
        let mut e = engine();
        e.converge(WEB).expect("deploy");
        let rogue = e
            .cloud_mut()
            .out_of_band_create(
                "clickops",
                "aws_s3_bucket",
                "us-east-1",
                attrs([("bucket", Value::from("shadow-data"))]),
            )
            .unwrap();
        let r = e.reconcile(WEB, false).expect("reconciles");
        assert!(r.converged);
        assert_eq!(r.plan.imports.len(), 1);
        assert!(r.patched_source.contains("shadow-data"));
        // imported, not recreated
        assert_eq!(r.apply.unwrap().ops_submitted, 0);
        let imported = e
            .state()
            .get(&"aws_s3_bucket.shadow_data".parse().unwrap())
            .expect("bound into state");
        assert_eq!(imported.id, rogue);
    }

    #[test]
    fn reconcile_shrinks_fleet_and_renumbers() {
        let mut e = engine();
        e.converge(WEB).expect("deploy");
        let vm0 = e
            .state()
            .get(&"aws_virtual_machine.web[0]".parse().unwrap())
            .unwrap()
            .id
            .clone();
        e.cloud_mut().out_of_band_delete("intern", &vm0).unwrap();
        let r = e.reconcile(WEB, false).expect("reconciles");
        assert!(r.converged, "residual plan:\n{}", r.plan_text);
        assert!(r
            .plan
            .ops
            .iter()
            .any(|op| matches!(op, cloudless_diagnose::EditOp::SetCount { count: 1, .. })));
        // the survivor moved into slot 0; its templated name re-applies
        assert!(e
            .state()
            .get(&"aws_virtual_machine.web[0]".parse().unwrap())
            .is_some());
        assert!(e
            .state()
            .get(&"aws_virtual_machine.web[1]".parse().unwrap())
            .is_none());
    }

    #[test]
    fn reconcile_dry_run_leaves_engine_untouched() {
        let mut e = engine();
        e.converge(WEB).expect("deploy");
        e.cloud_mut()
            .out_of_band_create(
                "clickops",
                "aws_s3_bucket",
                "us-east-1",
                attrs([("bucket", Value::from("shadow-data"))]),
            )
            .unwrap();
        let before = e.state().clone();
        let r = e.reconcile(WEB, true).expect("dry run");
        assert!(r.dry_run);
        assert!(r.converged, "hypothetical plan is empty:\n{}", r.plan_text);
        assert!(r.apply.is_none());
        assert_eq!(r.plan.imports.len(), 1);
        assert_eq!(
            e.state().to_json(),
            before.to_json(),
            "dry run must not mutate state"
        );
        assert_eq!(e.history().len(), 1, "no new checkpoint");
    }

    #[test]
    fn reconcile_routes_candidates_through_memoized_pipeline() {
        let rec = cloudless_obs::FlightRecorder::shared(4096);
        let mut e = Cloudless::new(Config {
            cloud: CloudConfig::exact(),
            recorder: rec.clone(),
            ..Config::default()
        });
        e.converge(WEB).expect("deploy");
        let subnet_id = e
            .state()
            .get(&"aws_subnet.app".parse().unwrap())
            .unwrap()
            .id
            .clone();
        e.cloud_mut()
            .out_of_band_update(
                "clickops",
                &subnet_id,
                attrs([("cidr_block", Value::from("10.0.5.0/24"))]),
            )
            .unwrap();
        let r = e.reconcile(WEB, false).expect("reconciles");
        assert!(r.converged);
        let m = e.metrics().expect("flight recorder keeps metrics");
        // one cold run: the initial converge. The patch candidate (a single
        // attribute edit) and the post-patch converge both replay the memo —
        // before the pipeline wiring each of those was its own full parse.
        assert_eq!(
            m.counter("pipeline.runs_full"),
            1,
            "only the seed converge runs cold"
        );
        assert!(
            m.counter("pipeline.runs_incremental") >= 2,
            "candidate check + final converge reuse the memo (got {})",
            m.counter("pipeline.runs_incremental")
        );
    }

    #[test]
    fn reconcile_refuses_when_lint_gate_unsatisfiable() {
        let mut e = engine();
        // warning-level finding passes the default DenyErrors gate…
        let src = r#"
variable "unused" { default = 1 }
resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
"#;
        e.converge(src).expect("deploys under DenyErrors");
        // …but once the operator tightens the gate, no patch can fix the
        // base program, so reconcile refuses instead of emitting one
        e.set_lint_gate(LintGate::DenyWarnings);
        let err = e.reconcile(src, false).unwrap_err();
        match err {
            ConvergeError::Lint(r) => {
                assert!(r.findings.iter().any(|f| f.diagnostic.code == "ANA101"));
            }
            other => panic!("expected lint refusal, got {other:?}"),
        }
    }

    #[test]
    fn drift_watch_and_policy_reaction() {
        let mut e = engine();
        e.controller_mut()
            .register(Box::new(cloudless_policy::builtin::DriftResponsePolicy));
        e.converge(WEB).expect("deploy");
        let vpc_id = e
            .state()
            .get(&"aws_vpc.main".parse().unwrap())
            .unwrap()
            .id
            .clone();
        e.cloud_mut()
            .out_of_band_update("legacy", &vpc_id, attrs([("name", Value::from("x"))]))
            .unwrap();
        let (report, actions) = e.watch_drift();
        assert_eq!(report.events.len(), 1);
        assert!(matches!(actions[0], Action::OverwriteDrift { .. }));
    }

    /// A metric observation reaches the operate-phase policies; one naming
    /// an address that does not parse reaches none and yields no action.
    #[test]
    fn a_metric_reaches_the_operate_phase_policies() {
        /// Answers every metric it is fed with a note of it.
        struct Echo;
        impl cloudless_policy::Policy for Echo {
            fn name(&self) -> &str {
                "echo"
            }
            fn phases(&self) -> &[LifecyclePhase] {
                &[LifecyclePhase::Operate]
            }
            fn evaluate(&mut self, observation: &Observation) -> Vec<Action> {
                let Observation::Metric {
                    addr,
                    metric,
                    value,
                    ..
                } = observation
                else {
                    return vec![];
                };
                let message = format!("{addr} {metric} {value}");
                vec![Action::Notify { message }]
            }
        }
        let mut e = engine();
        e.controller_mut().register(Box::new(Echo));
        let actions = e.observe_metric("aws_vm.web[0]", "cpu", 0.5);
        assert!(
            matches!(&actions[..], [Action::Notify { message }] if message == "aws_vm.web[0] cpu 0.5"),
            "{actions:?}"
        );
        assert!(e.observe_metric("aws_vm.", "cpu", 0.5).is_empty());
    }

    /// The executor acts as `Config.principal`, the one the watcher trusts:
    /// under any name, the engine's own in-place update is not drift.
    #[test]
    fn the_engines_own_update_is_not_drift_under_any_principal() {
        for principal in ["cloudless-engine", "team-a"] {
            let mut e = Cloudless::new(Config {
                cloud: CloudConfig::exact(),
                principal: principal.to_owned(),
                ..Config::default()
            });
            e.converge(WEB).expect("deploy");
            let edited = WEB.replace("web-${count.index}", "www-${count.index}");
            let out = e.converge(&edited).expect("update in place");
            assert!(out.apply.all_ok() && out.apply.ops_submitted > 0);
            let (report, _) = e.watch_drift();
            assert_eq!(report.events, vec![], "acting as {principal:?}");
        }
    }

    #[test]
    fn rollback_round_trip() {
        let mut e = engine();
        e.converge(
            r#"resource "aws_virtual_machine" "w" { name = "w" instance_type = "t3.micro" }"#,
        )
        .expect("v1");
        let checkpoint = e.history().latest().unwrap().serial;
        e.converge(
            r#"resource "aws_virtual_machine" "w" { name = "w" instance_type = "m5.gigantic" }"#,
        )
        .expect("v2");
        assert_eq!(
            e.state()
                .get(&"aws_virtual_machine.w".parse().unwrap())
                .unwrap()
                .attr("instance_type"),
            Some(&Value::from("m5.gigantic"))
        );
        let plan = e.plan_rollback_to(checkpoint).expect("checkpoint exists");
        assert_eq!(plan.reverts(), 1);
        assert_eq!(plan.redeployments(), 0, "mutable change reverts in place");
        e.execute_rollback(&plan).expect("rollback");
        assert_eq!(
            e.state()
                .get(&"aws_virtual_machine.w".parse().unwrap())
                .unwrap()
                .attr("instance_type"),
            Some(&Value::from("t3.micro"))
        );
    }

    #[test]
    fn failed_apply_produces_explanations() {
        // pass validation by only breaking at the *cloud* level: use a
        // quota breach, which compile-time validation cannot see because
        // the quota is already consumed by live resources.
        let mut config = Config {
            cloud: CloudConfig::exact(),
            validation_level: ValidationLevel::Schema,
            ..Config::default()
        };
        config.cloud.quota_overrides.insert("aws_vpc".into(), 1);
        let mut e = Cloudless::new(config);
        e.converge(r#"resource "aws_vpc" "a" { cidr_block = "10.0.0.0/16" }"#)
            .expect("first vpc fits quota");
        let out = e
            .converge(
                r#"
resource "aws_vpc" "a" { cidr_block = "10.0.0.0/16" }
resource "aws_vpc" "b" { cidr_block = "10.1.0.0/16" }
"#,
            )
            .expect("apply runs");
        assert!(!out.apply.all_ok());
        assert_eq!(out.explanations.len(), 1);
        assert!(out.explanations[0].root_cause.contains("quota"));
    }

    #[test]
    fn refresh_folds_drift_into_state() {
        let mut e = engine();
        e.converge(WEB).expect("deploy");
        let vpc_id = e
            .state()
            .get(&"aws_vpc.main".parse().unwrap())
            .unwrap()
            .id
            .clone();
        e.cloud_mut()
            .out_of_band_update("legacy", &vpc_id, attrs([("name", Value::from("renamed"))]))
            .unwrap();
        let report = e.refresh().expect("refresh commits");
        assert_eq!(report.updated.len(), 1);
        assert_eq!(
            e.state()
                .get(&"aws_vpc.main".parse().unwrap())
                .unwrap()
                .attr("name"),
            Some(&Value::from("renamed"))
        );
    }

    #[test]
    fn flight_recorder_captures_whole_pipeline() {
        let rec = cloudless_obs::FlightRecorder::shared(4096);
        let mut e = Cloudless::new(Config {
            cloud: CloudConfig::exact(),
            recorder: rec.clone(),
            ..Config::default()
        });
        assert!(e.converge(WEB).expect("converges").apply.all_ok());
        let events = rec.events();
        assert!(!events.is_empty());
        // spans from the deploy layer and ops from the cloud layer
        assert!(events
            .iter()
            .any(|ev| ev.component == "deploy" && ev.name == "apply"));
        assert!(events
            .iter()
            .any(|ev| ev.component == "cloud" && ev.name == "op"));
        // the lock manager measured the converge's acquisition
        let m = e.metrics().expect("flight recorder keeps metrics");
        assert_eq!(m.counter("lock.acquisitions"), 1);
        assert!(m.counter("cloud.ops_submitted") >= 4);
        // exporters accept the stream
        assert!(cloudless_obs::export::to_chrome_trace(&events).contains("traceEvents"));
        // and a default-config engine records nothing
        let mut silent = Cloudless::new(Config {
            cloud: CloudConfig::exact(),
            ..Config::default()
        });
        silent.converge(WEB).expect("converges");
        assert!(silent.metrics().is_none());
    }

    #[test]
    fn lint_gate_refuses_to_plan_on_deny_findings() {
        let mut e = engine();
        // reference cycle: validate can't see it (both instances expand,
        // deferring on each other), the planner would silently drop an edge
        let err = e
            .converge(
                r#"
resource "aws_virtual_machine" "a" { name = aws_virtual_machine.b.name }
resource "aws_virtual_machine" "b" { name = aws_virtual_machine.a.name }
"#,
            )
            .unwrap_err();
        match err {
            ConvergeError::Lint(r) => {
                assert!(r.findings.iter().any(|f| f.diagnostic.code == "ANA401"));
            }
            other => panic!("expected lint refusal, got {other:?}"),
        }
        assert_eq!(e.cloud().total_api_calls(), 0, "caught before planning");
    }

    #[test]
    fn lint_gate_off_lets_the_cycle_through_to_the_planner() {
        let mut e = Cloudless::new(Config {
            cloud: CloudConfig::exact(),
            lint: LintGate::Off,
            ..Config::default()
        });
        // with the gate off the old behavior returns: the plan silently
        // drops one edge and the apply fails at deploy time instead of
        // being rejected up front
        let out = e
            .converge(
                r#"
resource "aws_virtual_machine" "a" { name = aws_virtual_machine.b.name }
resource "aws_virtual_machine" "b" { name = aws_virtual_machine.a.name }
"#,
            )
            .expect("gate off: plan proceeds");
        assert!(
            !out.apply.all_ok(),
            "cycle surfaces as a deploy-time failure"
        );
    }

    #[test]
    fn doc_example_compiles() {
        // mirror of the lib.rs doc example
        let mut engine = Cloudless::new(Config::default());
        let outcome = engine
            .converge(
                r#"
resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "app" {
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}
"#,
            )
            .expect("deploys cleanly");
        assert!(outcome.apply.all_ok());
        assert_eq!(engine.state().len(), 2);
    }
}

#[cfg(test)]
mod lifecycle_tests {
    use super::*;

    #[test]
    fn outputs_resolve_after_apply() {
        let mut e = Cloudless::new(Config {
            cloud: CloudConfig::exact(),
            ..Config::default()
        });
        let out = e
            .converge(
                r#"
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
output "vpc_id" { value = aws_vpc.v.id }
output "static" { value = "hello" }
"#,
            )
            .expect("converge");
        assert!(out.apply.all_ok());
        assert_eq!(e.outputs().get("static"), Some(&Value::from("hello")));
        let vpc_id = e.outputs().get("vpc_id").expect("deferred output resolved");
        assert_eq!(
            vpc_id,
            &Value::from(
                e.state()
                    .get(&"aws_vpc.v".parse().unwrap())
                    .unwrap()
                    .id
                    .as_str()
            )
        );
        // destroy clears outputs
        e.converge("").expect("destroy");
        assert!(e.outputs().is_empty());
    }

    #[test]
    fn outputs_over_counted_and_module_blocks_resolve_in_their_own_scope() {
        let mut config = Config {
            cloud: CloudConfig::exact(),
            ..Config::default()
        };
        // the module declares the same blocks as the root: each output
        // must read its own module's instances, not a namesake's
        let blocks = |net: u8| {
            format!(
                r#"
resource "aws_vpc" "main" {{ cidr_block = "10.{net}.0.0/16" }}
resource "aws_subnet" "s" {{
  count      = {}
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.{net}.${{count.index}}.0/24"
}}
output "vpc_id" {{ value = aws_vpc.main.id }}
output "subnet_ids" {{ value = aws_subnet.s[*].id }}
"#,
                net + 2
            )
        };
        config.modules.insert("modules/net", blocks(1));
        let mut e = Cloudless::new(config);
        let root = format!(
            "{}module \"net\" {{ source = \"modules/net\" }}\n",
            blocks(0)
        );
        assert!(e.converge(&root).expect("converge").apply.all_ok());

        let id = |addr: &str| {
            let deployed = e.state().get(&addr.parse().unwrap()).expect(addr);
            Value::from(deployed.id.as_str())
        };
        let ids = |addrs: &[&str]| Value::List(addrs.iter().map(|a| id(a)).collect());
        let outputs = e.outputs();
        assert_eq!(outputs.get("vpc_id"), Some(&id("aws_vpc.main")));
        assert_eq!(
            outputs.get("subnet_ids"),
            Some(&ids(&["aws_subnet.s[0]", "aws_subnet.s[1]"]))
        );
        assert_eq!(
            outputs.get("net.vpc_id"),
            Some(&id("module.net.aws_vpc.main"))
        );
        let in_module = ["0", "1", "2"].map(|i| format!("module.net.aws_subnet.s[{i}]"));
        let in_module: Vec<&str> = in_module.iter().map(String::as_str).collect();
        assert_eq!(outputs.get("net.subnet_ids"), Some(&ids(&in_module)));
    }

    #[test]
    fn prevent_destroy_blocks_replace_and_destroy() {
        let mut e = Cloudless::new(Config {
            cloud: CloudConfig::exact(),
            ..Config::default()
        });
        let guarded = |cidr: &str| {
            format!(
                "resource \"aws_vpc\" \"v\" {{\n  cidr_block = \"{cidr}\"\n  lifecycle {{\n    prevent_destroy = true\n  }}\n}}"
            )
        };
        e.converge(&guarded("10.0.0.0/16")).expect("initial deploy");
        // replacing (force_new cidr change) is blocked
        let err = e.converge(&guarded("10.9.0.0/16")).unwrap_err();
        match err {
            ConvergeError::Validation(r) => {
                assert!(r.diagnostics.items.iter().any(|d| d.code == "LIF001"));
            }
            other => panic!("{other:?}"),
        }
        // nothing happened to the cloud
        assert_eq!(e.cloud().records().len(), 1);
        // in-place updates on the same resource are fine
        let updated = "resource \"aws_vpc\" \"v\" {\n  cidr_block = \"10.0.0.0/16\"\n  name = \"renamed\"\n  lifecycle {\n    prevent_destroy = true\n  }\n}".to_string();
        assert!(e.converge(&updated).expect("update ok").apply.all_ok());
    }
}
