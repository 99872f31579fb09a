//! The incremental converge pipeline: one staged front-end driver and
//! O(edit) replans.
//!
//! Paper §3.3: "modifications to individual resources have a limited
//! impact … by identifying the 'impact scope' of a deployment change, we
//! can confine the changes to a significantly smaller resource subgraph."
//! Re-deriving the whole world on every call costs seconds per keystroke
//! at 100k resources, so the front end keeps a memo of its artifacts and
//! recomputes only what an edit can reach.
//!
//! # One driver, two scopes
//!
//! [`IncrementalPipeline::run`] aligns the edit to top-level chunks
//! ([`cloudless_hcl::fingerprint`]), picks a `Scope`, and walks
//! parse → lint → expand → validate → analyze → plan **once**:
//!
//! * `Scope::All` — every block is in scope and nothing is reused: there
//!   is no memo, the edit is structural or touches a non-resource chunk,
//!   the engine configuration changed, the memoized program deviates from
//!   conventions the spec miner has learned since, or a guard tripped. The
//!   verdict stages call the reference whole-program passes
//!   ([`lint_program_in`], [`validate_indexed`], [`analyze_manifest`]), so
//!   every diagnostic is exact, and each stage fills its share of a fresh
//!   memo.
//! * `Scope::Blocks` — only the dirty resource blocks are in scope;
//!   everything outside them is read from the memo. Each stage re-derives
//!   the dirty blocks' artifacts with the same per-block functions the
//!   whole-program passes fold over, holds them against *guards*, and
//!   stages the result in a `Splice` — O(scope), never a copy of the memo.
//!
//! A cold run is therefore the same walk over an empty memo, and a guard
//! trip restarts the same walk with every block in scope. A splice lands
//! in the memo only when its walk succeeds, and an all-blocks walk holds on
//! to the memo it would replace until its lint stage has passed: a program
//! refused for a syntax error or a lint finding (a typo mid-edit) leaves
//! the memo exactly as it was, so the fix replans incrementally. Past lint
//! the old memo is released before the O(world) stages allocate, so peak
//! memory is one memo, not two.
//!
//! # Why the splice is exact
//!
//! The contract is that the output (manifest, validation report, plan
//! text) is **byte-identical** to a cold run on the same source. Rather
//! than re-derive diagnostics incrementally, a memo is kept only for
//! *clean* programs: no lint or analyzer findings (and no suppressions),
//! no validation diagnostics, no expansion warnings, no modules. An edit
//! to a clean program can only *introduce* problems, and each stage's
//! guards detect any introduction with O(edit) work, so the splice never
//! has to reproduce a diagnostic — only prove there are none. Dirty chunks
//! are parsed standalone, so spans in unedited blocks go stale; that is
//! harmless, because a clean run emits no diagnostics and plan text holds
//! no spans.
//!
//! One verdict can change under an unedited program: the spec miner learns
//! from every apply. Mined findings are functions of one instance, so the
//! memo records the rules ([`MinedSpec::rule`]) it is clean under; a run
//! whose miner holds other rules re-checks the memo's manifest against them
//! before anything is reused, and the validate guard holds the dirty
//! instances against the miner like any other per-instance layer.
//!
//! Every decision is recorded in a [`ChangeTrace`] and mirrored into the
//! engine's metrics registry (`pipeline.runs_incremental`,
//! `pipeline.runs_full`), so `cloudless watch` and the experiment
//! harnesses can prove which stages actually ran.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use cloudless_analyze::alias::{instance_claims, replace_self_race, ClaimKey};
use cloudless_analyze::incremental::{block_is_clean, block_refs, LintEnv};
use cloudless_analyze::{
    analyze_manifest, lint_program_in, AnalysisOutcome, LintConfig, LintGate, LintReport,
};
use cloudless_cloud::Catalog;
use cloudless_deploy::diff::{delete_changes, dependency_order, plan_one, render, PlannedChange};
use cloudless_graph::{Dag, DagBuilder, ImpactScope, NodeId};
use cloudless_hcl::eval::Resolver;
use cloudless_hcl::fingerprint::{diff_chunks, ChunkDelta, ChunkKind, ChunkMap};
use cloudless_hcl::program::{
    expand_resource_block, expand_root, Manifest, ModuleLibrary, Program, ResourceBlock,
    ResourceInstance, RootExpansion,
};
use cloudless_hcl::Diagnostics;
use cloudless_obs::Recorder;
use cloudless_state::Snapshot;
use cloudless_types::Value;
use cloudless_validate::incremental::{check_scope, name_claim, quota_key, ManifestIndex};
use cloudless_validate::{
    validate_indexed, MinedSpec, SpecMiner, ValidationLevel, ValidationReport,
};

/// Why a pipeline run refused to produce a plan — the front-end subset of
/// the engine's converge errors.
#[derive(Debug)]
pub enum PipelineError {
    /// The program does not parse/expand.
    Frontend(Diagnostics),
    /// The static-analysis gate found deny-level defects.
    Lint(LintReport),
    /// Compile-time validation rejected the program.
    Validation(ValidationReport),
}

impl PipelineError {
    /// The failing diagnostics as `CODE: message` lines — the format the
    /// patch repair loop ([`cloudless_synth::synthesize_patch_with`])
    /// matches against edit-op targets. Lint findings below `fail_on` are
    /// elided, mirroring [`cloudless_synth::check_patch`].
    pub fn patch_messages(&self, fail_on: cloudless_hcl::Severity) -> Vec<String> {
        match self {
            PipelineError::Frontend(diags) => diags
                .iter()
                .map(|d| format!("{}: {}", d.code, d.message))
                .collect(),
            PipelineError::Lint(report) => report
                .findings
                .iter()
                .filter(|f| f.diagnostic.severity >= fail_on)
                .map(|f| format!("{}: {}", f.diagnostic.code, f.diagnostic.message))
                .collect(),
            PipelineError::Validation(v) => v
                .diagnostics
                .iter()
                .filter(|d| d.severity == cloudless_hcl::Severity::Error)
                .map(|d| format!("{}: {}", d.code, d.message))
                .collect(),
        }
    }
}

/// Pipeline tuning knobs.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Byte budget for the memo cache (approximate, see
    /// [`IncrementalPipeline::approx_bytes`]). When a run's retained
    /// artifacts would exceed it, the memo is dropped and every subsequent
    /// run is cold until the program shrinks. `0` disables memoization.
    pub max_cache_bytes: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            // generous: a 100k-resource program retains roughly 200 MB
            max_cache_bytes: 1 << 30,
        }
    }
}

/// The front-end result converge consumes: the expanded manifest, its
/// validation report, the computed changes, and the rendered plan text —
/// plus the trace of how much work producing them took.
pub struct FrontendOutput {
    pub manifest: Manifest,
    pub validation: ValidationReport,
    /// Planned changes in declaration order, then the deletions (NoOps
    /// elided; [`cloudless_deploy::Plan::build`] drops them anyway).
    pub changes: Vec<PlannedChange>,
    pub plan_text: String,
    pub trace: ChangeTrace,
}

/// What each stage of one run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTrace {
    /// `parse` | `lint` | `expand` | `validate` | `plan`.
    pub stage: &'static str,
    /// `full` | `incremental` | `cached`.
    pub action: &'static str,
    /// Human-readable amplification: what subset ran.
    pub detail: String,
}

/// A record of which stages ran, hit cache, or re-ran a subset — and why.
#[derive(Debug, Clone, Default)]
pub struct ChangeTrace {
    pub stages: Vec<StageTrace>,
    /// Whether the run stayed on the incremental fast path end to end.
    pub fast_path: bool,
    /// Why the fast path was refused (cold runs only).
    pub fallback_reason: Option<String>,
}

impl ChangeTrace {
    fn stage(&mut self, stage: &'static str, action: &'static str, detail: impl Into<String>) {
        self.stages.push(StageTrace {
            stage,
            action,
            detail: detail.into(),
        });
    }
}

impl fmt::Display for ChangeTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.fast_path {
            writeln!(f, "pipeline: incremental")?;
        } else {
            writeln!(
                f,
                "pipeline: full ({})",
                self.fallback_reason.as_deref().unwrap_or("cold")
            )?;
        }
        for s in &self.stages {
            writeln!(f, "  {}: {} ({})", s.stage, s.action, s.detail)?;
        }
        Ok(())
    }
}

/// Everything a run needs from the engine, borrowed for the call.
pub struct PipelineCtx<'a> {
    pub inputs: &'a BTreeMap<String, Value>,
    pub modules: &'a ModuleLibrary,
    pub lint: LintGate,
    pub level: ValidationLevel,
    pub data: &'a dyn Resolver,
    pub catalog: &'a Catalog,
    pub state: &'a Snapshot,
    /// Mined-convention checker. The rules of its specs are part of the
    /// memo's key: a memo outlives an `observe` that leaves them standing,
    /// and one that changes them costs a mined re-check of the memo's
    /// manifest, not a cold run.
    pub miner: Option<&'a SpecMiner>,
    pub recorder: &'a Arc<dyn Recorder>,
}

impl<'a> PipelineCtx<'a> {
    /// The miner, at the levels where validation consults it.
    fn miner(&self) -> Option<&'a SpecMiner> {
        self.miner
            .filter(|_| self.level > ValidationLevel::SyntaxOnly)
    }

    fn mined_specs(&self) -> &'a [MinedSpec] {
        self.miner().map_or(&[], SpecMiner::specs)
    }
}

/// Whether two spec lists draw the same findings from every manifest.
fn same_rules(a: &[MinedSpec], b: &[MinedSpec]) -> bool {
    a.iter()
        .map(MinedSpec::rule)
        .eq(b.iter().map(MinedSpec::rule))
}

/// One identity a program claims, in the domain of the aggregate rule that
/// polices it. Each of those rules is "no claim has more holders than its
/// limit", so one counted multiset serves all four.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Claim {
    /// ANA402: an identity that folds to a constant before expansion.
    Block(ClaimKey),
    /// ANA502: the identity of one expanded instance — finer than `Block`,
    /// which cannot see values that fold only under `count.index`/`each`.
    Instance(ClaimKey),
    /// VAL306: a globally unique `(type, name)`.
    Name((String, String)),
    /// VAL307: one instance in a `(type, region)` quota bucket.
    Quota((String, String)),
}

/// The claims a block makes before expansion — the one extractor behind
/// the lint stage's all-blocks fill and its dirty-block splice.
fn block_claims(rb: &ResourceBlock, env: &LintEnv) -> impl Iterator<Item = Claim> {
    env.block_claims(rb).into_iter().map(Claim::Block)
}

/// The claims a block's instances make — the same, for the analyze stage.
fn instance_level_claims(instances: &[Arc<ResourceInstance>]) -> impl Iterator<Item = Claim> + '_ {
    instances.iter().flat_map(|inst| {
        (instance_claims(inst).into_iter().map(Claim::Instance))
            .chain(name_claim(inst).map(Claim::Name))
            .chain([Claim::Quota(quota_key(inst))])
    })
}

/// A counted multiset of [`Claim`]s: how many holders each has.
type Claims = HashMap<Claim, usize>;

/// A staged edit of [`Claims`]: per claim, holders gained minus holders
/// lost between the dirty blocks' old artifacts and their new ones.
type ClaimsEdit = BTreeMap<Claim, isize>;

/// Stage `by` more holders for each of `claims`.
fn stage(edit: &mut ClaimsEdit, claims: impl Iterator<Item = Claim>, by: isize) {
    for claim in claims {
        *edit.entry(claim).or_insert(0) += by;
    }
}

/// Give `claim` `by` more holders (fewer, when negative).
fn hold(claims: &mut Claims, claim: Claim, by: isize) {
    let held = claims.remove(&claim).unwrap_or(0);
    if let Some(held) = held.checked_add_signed(by).filter(|&n| n > 0) {
        claims.insert(claim, held);
    }
}

/// The first claim that would, once `edit` lands, have gained holders and
/// have more than `limit(claim)` of them.
fn overfull<'e>(
    claims: &Claims,
    edit: &'e ClaimsEdit,
    limit: impl Fn(&Claim) -> usize,
) -> Option<&'e Claim> {
    let after = |claim, by| claims.get(claim).copied().unwrap_or(0) as isize + by;
    let mut gained = edit.iter().filter(|(_, &by)| by > 0);
    let over = gained.find(|(claim, &by)| after(*claim, by) > limit(claim) as isize);
    over.map(|(claim, _)| claim)
}

/// Plan-stage artifacts, valid for one state serial.
#[derive(Default)]
struct PlanCache {
    /// The state serial the rest was planned against (`None`: nothing yet).
    serial: Option<u64>,
    /// Dependency (Kahn) order over the manifest's instances.
    order: Vec<usize>,
    /// `(rtype, name)` → whether the block's last-visited instance is
    /// created or replaced.
    dirty: HashMap<(String, String), bool>,
    /// Non-NoOp changes by declaration position.
    changes: BTreeMap<usize, PlannedChange>,
    /// Deletions (stable per address set + serial).
    deletes: Vec<PlannedChange>,
}

fn block_key(inst: &ResourceInstance) -> (String, String) {
    (inst.addr.rtype.as_str().to_owned(), inst.addr.name.clone())
}

/// The memoized artifacts of one clean run, grouped by the stage that
/// fills them (under [`Scope::All`]) and splices them (under
/// [`Scope::Blocks`]).
#[derive(Default)]
struct Memo {
    /// The engine configuration the artifacts were derived under.
    config: (LintGate, ValidationLevel, BTreeMap<String, Value>),
    /// The mined specs the manifest is known to be clean under (compared by
    /// [`MinedSpec::rule`]).
    specs: Vec<MinedSpec>,
    // parse
    source: String,
    chunks: ChunkMap,
    /// Resource-block index → chunk index (ascending: both are in source
    /// order).
    block_chunk: Vec<usize>,
    /// The program's non-resource half (variables, locals, outputs, …).
    /// A resource block's syntax is one standalone parse of its chunk of
    /// `source` away, which is all a splice needs of the block it replaces.
    program: Program,
    /// Block-level dependency DAG (edges: dependency → dependent).
    dag: Dag<usize>,
    // lint
    lint_env: LintEnv,
    // expand
    root: RootExpansion,
    manifest: Manifest,
    // validate
    mindex: ManifestIndex,
    // analyze
    claims: Claims,
    // plan
    plan: PlanCache,
}

/// What a [`Scope::Blocks`] walk produced, staged O(scope) and applied to
/// the memo only when the walk succeeds.
#[derive(Default)]
struct Splice {
    /// The re-aligned chunk table (`None`: source unchanged).
    chunks: Option<ChunkMap>,
    /// The dirty blocks: index, the block as the memo's source has it, the
    /// block as the new source has it.
    blocks: Vec<(usize, ResourceBlock, ResourceBlock)>,
    claims: ClaimsEdit,
}

/// Which blocks one walk recomputes, and where it stages what it derives.
/// The scope owns the memo for the length of a run; [`IncrementalPipeline::run`]
/// puts back what the run's outcome leaves of it.
enum Scope {
    /// Every block: nothing is reused, the verdict stages run the reference
    /// whole-program passes, and the artifacts fill `fresh`.
    All {
        /// Why no narrower scope would do (the trace's fallback reason).
        reason: String,
        fresh: Box<Memo>,
        /// Whether `fresh` may still be kept: memoization is on and the run
        /// has been clean so far. Stages skip their fill once it is not.
        keep: bool,
        /// The memo this run replaces if it succeeds: restored when the
        /// parse or lint stage refuses the program, released after them.
        old: Option<Box<Memo>>,
    },
    /// The dirty resource blocks of `memo` (possibly none); everything
    /// outside them is reused.
    Blocks {
        memo: Box<Memo>,
        dirty: Vec<usize>,
        edit: Box<Splice>,
    },
}

/// Why a walk stopped early.
enum Stop {
    /// The program is refused; what the scope still holds of the old memo
    /// goes back.
    Refused(PipelineError),
    /// A splice guard tripped: the same walk restarts with every block in
    /// scope.
    Guard(String),
}

impl From<PipelineError> for Stop {
    fn from(err: PipelineError) -> Stop {
        Stop::Refused(err)
    }
}

/// A splice guard: trip unless `holds`.
fn ensure(holds: bool, reason: &str) -> Result<(), Stop> {
    holds
        .then_some(())
        .ok_or_else(|| Stop::Guard(reason.to_owned()))
}

impl Scope {
    fn all(reason: impl Into<String>, keep: bool, old: Option<Box<Memo>>) -> Scope {
        Scope::All {
            reason: reason.into(),
            fresh: Box::default(),
            keep,
            old,
        }
    }

    /// Align the edit to chunks and pick the narrowest sound scope.
    fn pick(memo: Option<Box<Memo>>, source: &str, ctx: &PipelineCtx<'_>, keep: bool) -> Scope {
        let Some(mut memo) = memo else {
            return Scope::all("no memo (first run)", keep, None);
        };
        let (gate, level, inputs) = &memo.config;
        if (*gate, *level, inputs) != (ctx.lint, ctx.level, ctx.inputs) {
            return Scope::all("engine configuration changed", keep, Some(memo));
        }
        if !same_rules(&memo.specs, ctx.mined_specs()) {
            // Mined findings are per instance and the memo is of a clean
            // program, so it stands under the new conventions unless one of
            // its own instances deviates from them.
            let deviates = |miner: &SpecMiner| !miner.check(&memo.manifest).is_empty();
            if ctx.miner().is_some_and(deviates) {
                let reason = "memoized program deviates from the spec miner's new conventions";
                return Scope::all(reason, keep, Some(memo));
            }
            memo.specs = ctx.mined_specs().to_vec();
        }
        let (dirty, chunks) = match diff_chunks(&memo.chunks, &memo.source, source) {
            ChunkDelta::Unchanged => (Vec::new(), None),
            ChunkDelta::BodyEdit { dirty, map } => (dirty, Some(map)),
            ChunkDelta::Structural { .. } => {
                let reason = "structural edit (blocks added/removed/renamed)";
                return Scope::all(reason, keep, Some(memo));
            }
        };
        let block_of = |ci| memo.block_chunk.binary_search(ci).ok();
        match dirty.iter().map(block_of).collect() {
            Some(dirty) => Scope::Blocks {
                memo,
                dirty,
                edit: Box::new(Splice {
                    chunks,
                    ..Splice::default()
                }),
            },
            None => Scope::all("edit touches a non-resource block", keep, Some(memo)),
        }
    }

    /// The memo as it stood before the run.
    fn into_memo(self) -> Option<Box<Memo>> {
        match self {
            Scope::All { old, .. } => old,
            Scope::Blocks { memo, .. } => Some(memo),
        }
    }
}

/// The memoizing pipeline. One per engine; owns the memo across calls.
#[derive(Default)]
pub struct IncrementalPipeline {
    memo: Option<Box<Memo>>,
    config: PipelineConfig,
}

impl IncrementalPipeline {
    pub fn new(config: PipelineConfig) -> Self {
        IncrementalPipeline { memo: None, config }
    }

    /// Drop the memo; the next run is cold.
    pub fn clear(&mut self) {
        self.memo = None;
    }

    /// Drop what the plan stage cached and keep the front end's artifacts:
    /// the next run re-diffs every instance. The plan cache is keyed by
    /// state serial, so a run over a snapshot nobody committed — it shares
    /// its serial with the one it was cloned from — is bracketed by this.
    pub(crate) fn forget_plan(&mut self) {
        if let Some(memo) = &mut self.memo {
            memo.plan.serial = None;
        }
    }

    /// Whether a memo is currently held.
    pub fn is_warm(&self) -> bool {
        self.memo.is_some()
    }

    /// Approximate heap bytes retained by the memo.
    pub fn approx_bytes(&self) -> usize {
        self.memo.as_ref().map_or(0, |m| m.approx_bytes())
    }

    /// Run the front end: parse → lint → expand → validate → analyze →
    /// plan.
    ///
    /// Output is byte-identical to a cold full run on `source`; the memo
    /// only changes *how much work* produces it. A run refused by its parse
    /// or lint stage leaves the memo as it was.
    pub fn run(
        &mut self,
        source: &str,
        ctx: &PipelineCtx<'_>,
    ) -> Result<FrontendOutput, PipelineError> {
        let keep = self.config.max_cache_bytes > 0;
        let mut scope = Scope::pick(self.memo.take(), source, ctx, keep);
        let mut walk = loop {
            let mut walk = Walk::new(source, ctx);
            match walk.verdicts(&mut scope) {
                Ok(()) => break walk,
                Err(Stop::Guard(reason)) => scope = Scope::all(reason, keep, scope.into_memo()),
                Err(Stop::Refused(err)) => {
                    ctx.recorder.counter("pipeline.runs_full", 1);
                    self.memo = scope.into_memo();
                    return Err(err);
                }
            }
        };
        // Nothing refuses a program past the verdict stages, so the plan
        // stage works on the memo this run leaves behind: the fresh one, or
        // the old one with the splice in.
        let (mut memo, dirty, reason, keep) = match scope {
            Scope::All {
                reason,
                fresh,
                keep,
                ..
            } => (fresh, None, Some(reason), keep),
            Scope::Blocks {
                mut memo,
                dirty,
                edit,
            } => {
                memo.absorb(*edit, source, &walk.out.manifest);
                (memo, Some(dirty), None, true)
            }
        };
        walk.plan(&mut memo, dirty.as_deref());
        let trace = &mut walk.out.trace;
        trace.fast_path = reason.is_none();
        trace.fallback_reason = reason;
        let bytes = memo.approx_bytes();
        self.memo = if trace.fast_path {
            ctx.recorder.counter("pipeline.runs_incremental", 1);
            Some(memo)
        } else {
            ctx.recorder.counter("pipeline.runs_full", 1);
            if !keep {
                trace.stage("memo", "skipped", "run not clean or not eligible");
                None
            } else if bytes > self.config.max_cache_bytes {
                ctx.recorder.counter("pipeline.evictions", 1);
                let budget = self.config.max_cache_bytes;
                let detail = format!("{bytes} bytes exceeds the {budget}-byte budget");
                trace.stage("memo", "evicted", detail);
                None
            } else {
                trace.stage("memo", "stored", format!("~{bytes} bytes retained"));
                Some(memo)
            }
        };
        Ok(walk.out)
    }
}

/// One walk of the stages: the context and the output each stage adds to.
struct Walk<'a> {
    source: &'a str,
    ctx: &'a PipelineCtx<'a>,
    lint_cfg: Option<LintConfig>,
    out: FrontendOutput,
}

impl<'a> Walk<'a> {
    fn new(source: &'a str, ctx: &'a PipelineCtx<'a>) -> Self {
        Walk {
            source,
            ctx,
            lint_cfg: ctx.lint.config(),
            out: FrontendOutput {
                manifest: Manifest::default(),
                // what a clean program validates to; the validate stage
                // overwrites it when it runs the full pass
                validation: ValidationReport {
                    level: ctx.level,
                    diagnostics: Diagnostics::new(),
                },
                changes: Vec::new(),
                plan_text: String::new(),
                trace: ChangeTrace::default(),
            },
        }
    }

    /// The driver's walk up to the last stage that can refuse a program
    /// or trip a guard; [`Walk::plan`] completes it. (With no block in scope
    /// the stages loop over nothing.)
    fn verdicts(&mut self, scope: &mut Scope) -> Result<(), Stop> {
        self.parse(scope)?;
        self.lint(scope)?;
        // The stages from here on allocate O(world) under `All`, so the
        // memo this run would replace goes first: peak memory stays one
        // memo, and a program refused by a later stage costs the next save
        // a cold run (a syntax error or a lint finding does not).
        if let Scope::All { old, .. } = scope {
            *old = None;
        }
        self.expand(scope)?;
        self.validate(scope)?;
        self.analyze(scope)?;
        let (action, detail) = match scope {
            Scope::All { .. } => ("full", "every block in scope".to_owned()),
            Scope::Blocks { dirty, .. } if dirty.is_empty() => {
                ("cached", "no block in scope".to_owned())
            }
            Scope::Blocks { dirty, memo, .. } => {
                let (k, n) = (dirty.len(), memo.block_chunk.len());
                ("incremental", format!("{k} of {n} block(s) in scope"))
            }
        };
        for stage in ["parse", "lint", "expand", "validate", "analyze"] {
            self.out.trace.stage(stage, action, detail.clone());
        }
        Ok(())
    }

    /// **parse** — source → program, chunk ↔ block tables, block DAG.
    fn parse(&mut self, scope: &mut Scope) -> Result<(), Stop> {
        match scope {
            Scope::All { fresh, keep, .. } => {
                let file = cloudless_hcl::parse(self.source, "main.tf")
                    .map_err(PipelineError::Frontend)?;
                fresh.program = Program::from_file(file).map_err(PipelineError::Frontend)?;
                *keep = *keep && fresh.index_source(self.source, self.ctx);
            }
            Scope::Blocks { memo, dirty, edit } => {
                // the caller's copy (`Arc` bumps); the expand stage replaces
                // the dirty ranges in it, and in the memo only on success
                self.out.manifest = memo.manifest.clone();
                let Some(chunks) = &edit.chunks else {
                    return Ok(()); // source unchanged
                };
                let parse = |source: &str, chunks: &ChunkMap, bi: usize| {
                    let chunk = &chunks.chunks[memo.block_chunk[bi]];
                    parse_block(&source[chunk.start..chunk.end], &memo.program.filename)
                };
                for &bi in dirty.iter() {
                    let old = parse(&memo.source, &memo.chunks, bi)?;
                    let new = parse(self.source, chunks, bi)?;
                    let same = new.rtype == old.rtype && new.name == old.name;
                    ensure(same, "dirty block changed identity")?;
                    edit.blocks.push((bi, old, new));
                }
            }
        }
        Ok(())
    }

    /// **lint** — the static-analysis gate over the un-expanded program.
    /// Keeps the fold/taint/declaration environment.
    fn lint(&mut self, scope: &mut Scope) -> Result<(), Stop> {
        match scope {
            Scope::All { fresh, keep, .. } => {
                let env = LintEnv::build(&fresh.program);
                if let Some(cfg) = &self.lint_cfg {
                    let report = lint_program_in(&fresh.program, self.ctx.modules, cfg, &env);
                    if report.fails(cfg) {
                        return Err(PipelineError::Lint(report).into());
                    }
                    *keep &= report.findings.is_empty() && report.suppressed == 0;
                }
                if *keep {
                    fresh.lint_env = env;
                    for rb in &fresh.program.resources {
                        for claim in block_claims(rb, &fresh.lint_env) {
                            hold(&mut fresh.claims, claim, 1);
                        }
                    }
                }
            }
            Scope::Blocks { memo, edit, .. } => {
                let env = &memo.lint_env;
                for (_, old_rb, rb) in &edit.blocks {
                    // Reference stability stands in for the whole-program
                    // graph passes, and no block may flip to or from count = 0.
                    let (old, new) = (block_refs(old_rb), block_refs(rb));
                    ensure(old.stable_under(&new), "dependency edges or uses changed")?;
                    let flipped = env.count_folds_zero(rb) != env.count_folds_zero(old_rb);
                    ensure(!flipped, "count-disabled status changed")?;
                    let clean = |cfg| block_is_clean(&memo.program, rb, &new, env, cfg);
                    let clean = self.lint_cfg.as_ref().is_none_or(clean);
                    ensure(clean, "edited block has lint findings")?;
                    stage(&mut edit.claims, block_claims(old_rb, env), -1);
                    stage(&mut edit.claims, block_claims(rb, env), 1);
                }
            }
        }
        Ok(())
    }

    /// **expand** — program → manifest. Keeps the root bindings and block
    /// ranges a later splice re-expands under.
    fn expand(&mut self, scope: &mut Scope) -> Result<(), Stop> {
        let ctx = self.ctx;
        match scope {
            Scope::All { fresh, keep, .. } => {
                let (manifest, root) =
                    expand_root(&fresh.program, ctx.inputs, ctx.modules, ctx.data)
                        .map_err(PipelineError::Frontend)?;
                *keep &= manifest.warnings.is_empty();
                if *keep {
                    fresh.root = root;
                    fresh.manifest = manifest.clone();
                }
                self.out.manifest = manifest;
                // the last reader of block syntax: the memo keeps none
                fresh.program.resources = Vec::new();
            }
            Scope::Blocks { memo, edit, .. } => {
                for (bi, _, rb) in &edit.blocks {
                    let mut diags = Diagnostics::new();
                    let mut fresh: Vec<ResourceInstance> = Vec::new();
                    expand_resource_block(
                        rb,
                        &memo.root.vars,
                        &memo.root.locals,
                        &memo.root.block_names,
                        ctx.data,
                        &memo.program.filename,
                        &[],
                        &mut diags,
                        &mut fresh,
                    );
                    ensure(diags.is_empty(), "re-expansion produced diagnostics")?;
                    let span = memo.root.block_ranges[*bi].clone();
                    let old = &memo.manifest.instances[span.clone()];
                    let addrs = fresh.iter().map(|inst| &inst.addr);
                    ensure(
                        addrs.eq(old.iter().map(|inst| &inst.addr)),
                        "instance addresses changed",
                    )?;
                    // Instance-level `depends_on` copies over from the
                    // cached instances (exact: `expand_deps` is unchanged).
                    for (at, mut new) in span.zip(fresh) {
                        new.depends_on = memo.manifest.instances[at].depends_on.clone();
                        self.out.manifest.instances[at] = Arc::new(new);
                    }
                }
            }
        }
        Ok(())
    }

    /// **validate** — compile-time validation of the manifest. Keeps the
    /// positional index the scoped re-check resolves references through.
    fn validate(&mut self, scope: &mut Scope) -> Result<(), Stop> {
        let (ctx, out) = (self.ctx, &mut self.out);
        match scope {
            Scope::All { fresh, keep, .. } => {
                let mindex = ManifestIndex::build(&out.manifest);
                let report =
                    validate_indexed(&out.manifest, &mindex, ctx.catalog, ctx.level, ctx.miner);
                if !report.ok() {
                    return Err(PipelineError::Validation(report).into());
                }
                *keep &= report.diagnostics.is_empty();
                out.validation = report;
                if *keep {
                    fresh.mindex = mindex;
                }
            }
            Scope::Blocks { memo, dirty, .. } => {
                // re-check the edited blocks and their direct dependents
                let mut in_scope: BTreeSet<usize> = dirty.iter().copied().collect();
                for &bi in dirty.iter() {
                    let dependents = memo.dag.successors(NodeId(bi as u32));
                    in_scope.extend(dependents.iter().map(|node| node.index()));
                }
                let instances_of = |&bi: &usize| memo.root.block_ranges[bi].clone();
                let positions: Vec<usize> = in_scope.iter().flat_map(instances_of).collect();
                let (manifest, mindex) = (&out.manifest, &memo.mindex);
                let found = check_scope(manifest, mindex, &positions, ctx.catalog, ctx.miner());
                ensure(found.is_empty(), "edited scope has validation findings")?;
            }
        }
        Ok(())
    }

    /// **analyze** — the whole-program concurrency gate over the expanded
    /// manifest (happens-before, aliasing, lock order). Keeps the claims
    /// multiset, through which the splice also holds the aggregate rules of
    /// the two stages before it (ANA402, VAL306, VAL307).
    fn analyze(&mut self, scope: &mut Scope) -> Result<(), Stop> {
        let (ctx, out) = (self.ctx, &mut self.out);
        match scope {
            Scope::All { fresh, keep, .. } => {
                if let Some(cfg) = &self.lint_cfg {
                    let outcome = analyze_manifest(&out.manifest, cfg, None);
                    record_analysis(ctx.recorder.as_ref(), &outcome);
                    if outcome.report.fails(cfg) {
                        return Err(PipelineError::Lint(outcome.report).into());
                    }
                    *keep &= outcome.report.findings.is_empty() && outcome.report.suppressed == 0;
                }
                if *keep {
                    for claim in instance_level_claims(&out.manifest.instances) {
                        hold(&mut fresh.claims, claim, 1);
                    }
                }
            }
            Scope::Blocks { memo, edit, .. } => {
                let gated = self.lint_cfg.is_some();
                for (bi, ..) in &edit.blocks {
                    let span = memo.root.block_ranges[*bi].clone();
                    let new = &out.manifest.instances[span.clone()];
                    let old = instance_level_claims(&memo.manifest.instances[span]);
                    stage(&mut edit.claims, old, -1);
                    stage(&mut edit.claims, instance_level_claims(new), 1);
                    // ANA504 is a finding: only the full analysis reports it
                    ensure(
                        !gated || new.iter().all(|i| replace_self_race(i).is_none()),
                        "create_before_destroy with plan-time identity (replace self-race)",
                    )?;
                }
                const UNLIMITED: usize = isize::MAX as usize;
                let limit = |claim: &Claim| match claim {
                    Claim::Block(_) | Claim::Instance(_) if !gated => UNLIMITED,
                    Claim::Quota((rtype, _)) => (ctx.catalog.get_str(rtype))
                        .map_or(UNLIMITED, |schema| schema.default_quota as usize),
                    _ => 1,
                };
                if let Some(claim) = overfull(&memo.claims, &edit.claims, limit) {
                    return Err(Stop::Guard(format!("{claim:?} would be over its limit")));
                }
            }
        }
        Ok(())
    }

    /// **plan** — manifest × state → changes and plan text, through the
    /// plan cache of the memo the run leaves behind. Its own scope is the
    /// impact scope of the `dirty` blocks while the state serial stands,
    /// and every instance when nothing is cached (`dirty` is `None`) or the
    /// state moved (an apply happened): the front-end artifacts stay, the
    /// diff rebuilds.
    fn plan(&mut self, memo: &mut Memo, dirty: Option<&[usize]>) {
        let (ctx, out) = (self.ctx, &mut self.out);
        let instances = &out.manifest.instances;
        let cache = &mut memo.plan;
        if dirty.is_none() {
            cache.order = dependency_order(&out.manifest);
        }
        // `None`: every instance
        let in_scope: Option<HashSet<usize>> = match dirty {
            Some(dirty) if cache.serial == Some(ctx.state.serial) => {
                let seeds = dirty.iter().map(|&bi| NodeId(bi as u32));
                let impact = ImpactScope::compute(&memo.dag, seeds).replan;
                let ranges = &memo.root.block_ranges;
                Some((impact.iter().flat_map(|node| ranges[node.index()].clone())).collect())
            }
            _ => {
                cache.serial = Some(ctx.state.serial);
                cache.deletes = delete_changes(&out.manifest, ctx.state);
                // an unvisited dependency (a cycle) reads as dirty, as in `diff`
                cache.dirty.clear();
                None
            }
        };
        // replay the instances in scope along the dependency order, each
        // reading its dependencies' dirtiness as the visit before left it
        let replanned = |i: &usize| in_scope.as_ref().is_none_or(|scope| scope.contains(i));
        cache.changes.retain(|i, _| !replanned(i));
        for &idx in cache.order.iter().filter(|i| replanned(i)) {
            let inst = &instances[idx];
            let mut dep_dirty = |rtype: &str, name: &str| {
                let known = cache.dirty.get(&(rtype.to_owned(), name.to_owned()));
                known.copied().unwrap_or(true)
            };
            let change = plan_one(inst, ctx.state, ctx.catalog, ctx.data, &mut dep_dirty);
            cache.dirty.insert(block_key(inst), change.makes_dirty());
            if !change.action.is_noop() {
                cache.changes.insert(idx, change);
            }
        }
        out.changes = (cache.changes.values().chain(&cache.deletes))
            .cloned()
            .collect();
        out.plan_text = render(&out.changes);
        let n = instances.len();
        let (action, detail) = match (&in_scope, dirty) {
            (None, None) => ("full", format!("diffed {n} instance(s)")),
            (None, Some(_)) => {
                let detail = format!("state serial changed, re-diffed {n} instance(s)");
                ("full", detail)
            }
            (Some(scope), _) => {
                let action = match scope.len() {
                    0 => "cached",
                    _ => "incremental",
                };
                let detail = format!("re-planned {}/{n} instance(s)", scope.len());
                (action, detail)
            }
        };
        out.trace.stage("plan", action, detail);
    }
}

/// Parse one dirty chunk standalone; it must still hold exactly one
/// resource block (stale spans are harmless, see the module docs).
fn parse_block(chunk_src: &str, filename: &str) -> Result<ResourceBlock, Stop> {
    let parsed = cloudless_hcl::parse(chunk_src, filename).and_then(Program::from_file);
    ensure(parsed.is_ok(), "a dirty block no longer parses")?;
    let mut rest = parsed.unwrap_or_default();
    let block = rest.resources.pop();
    rest.filename.clear();
    ensure(
        rest == Program::default(),
        "a dirty chunk holds more than a resource block",
    )?;
    block.ok_or_else(|| Stop::Guard("a dirty chunk holds no resource block".to_owned()))
}

/// Mirror one analysis run into `analyze.*` metrics: runs, passes,
/// findings per rule, wall time. Counter names are static because the
/// [`Recorder`] interns nothing.
fn record_analysis(recorder: &dyn Recorder, outcome: &AnalysisOutcome) {
    recorder.counter("analyze.runs", 1);
    recorder.counter("analyze.passes", outcome.stats.passes as u64);
    recorder.counter("analyze.wall_us", outcome.stats.wall.as_micros() as u64);
    for f in &outcome.report.findings {
        let name: &'static str = match f.diagnostic.code.as_str() {
            "ANA501" => "analyze.findings.ANA501",
            "ANA502" => "analyze.findings.ANA502",
            "ANA503" => "analyze.findings.ANA503",
            "ANA504" => "analyze.findings.ANA504",
            "ANA505" => "analyze.findings.ANA505",
            _ => "analyze.findings.other",
        };
        recorder.counter(name, 1);
    }
}

impl Memo {
    /// The parse stage's fill: the configuration key, the block → chunk
    /// table and the block DAG. `false` when the program's shape defeats
    /// a per-block splice (modules, duplicate block keys, chunks the
    /// scanner could not separate, a dependency cycle).
    fn index_source(&mut self, source: &str, ctx: &PipelineCtx<'_>) -> bool {
        let blocks = &self.program.resources;
        let chunks = ChunkMap::build(source);
        // blocks and chunks are both in source order, so the i-th resource
        // chunk has to be the i-th resource block's
        self.block_chunk = chunks.resource_chunks().collect();
        let holds = |(&ci, rb): (&usize, &ResourceBlock)| {
            matches!(&chunks.chunks[ci].kind, ChunkKind::Resource { rtype, name }
                if *rtype == rb.rtype && *name == rb.name)
        };
        let one_to_one = self.block_chunk.len() == blocks.len()
            && self.block_chunk.iter().zip(blocks).all(holds);
        if !one_to_one || !self.program.modules.is_empty() {
            return false;
        }
        let mut block_of: HashMap<(&str, &str), usize> = HashMap::with_capacity(blocks.len());
        for (bi, rb) in blocks.iter().enumerate() {
            if block_of.insert((&rb.rtype, &rb.name), bi).is_some() {
                return false;
            }
        }

        let mut builder: DagBuilder<usize> = DagBuilder::new();
        let nodes: Vec<NodeId> = (0..blocks.len()).map(|bi| builder.add_node(bi)).collect();
        for (bi, rb) in blocks.iter().enumerate() {
            for (rtype, name) in &block_refs(rb).expand_deps {
                let dep = block_of.get(&(rtype.as_str(), name.as_str()));
                let dep = dep.filter(|&&dep| dep != bi);
                if dep.is_some_and(|&dep| builder.add_edge(nodes[dep], nodes[bi]).is_err()) {
                    return false;
                }
            }
        }
        let Ok(dag) = builder.seal() else {
            return false;
        };
        self.dag = dag;
        self.config = (ctx.lint, ctx.level, ctx.inputs.clone());
        self.specs = ctx.mined_specs().to_vec();
        self.source = source.to_owned();
        self.chunks = chunks;
        true
    }

    /// Apply the staged splice of a walk whose verdict stages all passed.
    fn absorb(&mut self, edit: Splice, source: &str, manifest: &Manifest) {
        if let Some(chunks) = edit.chunks {
            self.chunks = chunks;
            self.source = source.to_owned();
        }
        for (bi, ..) in edit.blocks {
            let span = self.root.block_ranges[bi].clone();
            self.manifest.instances[span.clone()].clone_from_slice(&manifest.instances[span]);
        }
        for (claim, by) in edit.claims {
            hold(&mut self.claims, claim, by);
        }
    }

    /// Approximate retained heap bytes — intentionally coarse; the budget
    /// is a guard rail, not an allocator.
    fn approx_bytes(&self) -> usize {
        let mut total = self.source.len() * 2; // source + program text-ish
        total += self.chunks.approx_bytes();
        total += self.block_chunk.len() * 768;
        for inst in &self.manifest.instances {
            total += 384 + inst.attrs.len() * 96 + inst.deferred.len() * 160;
        }
        total += self.mindex.approx_bytes();
        total += self.claims.len() * 128;
        total += self.plan.order.len() * 8 + self.plan.dirty.len() * 96;
        total += (self.plan.changes.len() + self.plan.deletes.len()) * 512;
        total
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cloudless, Config};

    const SRC: &str = r#"
variable "region" { default = "us-east-1" }
resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "app" {
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}
resource "aws_s3_bucket" "logs" {
  bucket = "logs-${var.region}"
}
"#;

    fn engine() -> Cloudless {
        Cloudless::new(Config::default())
    }

    #[test]
    fn warm_attribute_edit_is_fast_and_exact() {
        let edited = SRC.replace("10.0.1.0/24", "10.0.2.0/24");
        let mut warm = engine();
        let (_, t0) = warm.plan_incremental(SRC).unwrap();
        assert!(!t0.fast_path, "first run must be cold:\n{t0}");
        assert!(warm.pipeline().is_warm());
        let (warm_text, t1) = warm.plan_incremental(&edited).unwrap();
        assert!(t1.fast_path, "edit should stay on the fast path:\n{t1}");
        let (cold_text, _) = engine().plan_incremental(&edited).unwrap();
        assert_eq!(warm_text, cold_text, "fast path must be byte-identical");
    }

    #[test]
    fn unchanged_source_replans_from_cache() {
        let mut e = engine();
        let (a, _) = e.plan_incremental(SRC).unwrap();
        let (b, t) = e.plan_incremental(SRC).unwrap();
        assert!(t.fast_path, "{t}");
        assert!(t.stages.iter().all(|s| s.action == "cached"), "{t}");
        assert_eq!(a, b);
    }

    #[test]
    fn structural_edit_falls_back_cold() {
        let mut e = engine();
        e.plan_incremental(SRC).unwrap();
        let grown = format!("{SRC}resource \"aws_s3_bucket\" \"extra\" {{ bucket = \"extra\" }}\n");
        let (text, t) = e.plan_incremental(&grown).unwrap();
        assert!(!t.fast_path, "{t}");
        let (cold, _) = engine().plan_incremental(&grown).unwrap();
        assert_eq!(text, cold);
    }

    #[test]
    fn converge_then_edit_replans_incrementally() {
        let mut e = engine();
        let out = e.converge(SRC).expect("deploys");
        assert!(out.apply.all_ok());
        // state serial moved during apply: next plan re-diffs but keeps
        // the front-end memo warm
        let (_, t) = e.plan_incremental(SRC).unwrap();
        assert!(t.fast_path, "{t}");
        let edited = SRC.replace("logs-${var.region}", "logs-v2-${var.region}");
        let (text, t2) = e.plan_incremental(&edited).unwrap();
        assert!(t2.fast_path, "{t2}");
        assert!(text.contains("logs"), "{text}");
        let mut cold = engine();
        cold.converge(SRC).expect("deploys");
        cold.clear_pipeline_cache();
        let (cold_text, ct) = cold.plan_incremental(&edited).unwrap();
        assert!(!ct.fast_path);
        assert_eq!(text, cold_text);
    }

    #[test]
    fn eviction_respects_byte_budget() {
        let mut e = engine();
        e.set_pipeline_config(crate::PipelineConfig {
            max_cache_bytes: 64,
        });
        let (_, t) = e.plan_incremental(SRC).unwrap();
        assert!(!t.fast_path);
        assert!(!e.pipeline().is_warm(), "memo must be evicted");
        assert!(e.pipeline().approx_bytes() <= 64);
        let (_, t2) = e.plan_incremental(SRC).unwrap();
        assert!(!t2.fast_path, "evicted memo keeps runs cold");
    }
}
