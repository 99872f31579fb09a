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
//!   is no memo, the edit touches a non-resource chunk or reorders blocks,
//!   the engine configuration changed, the memoized program deviates from
//!   conventions the spec miner has learned since, or a guard tripped. The
//!   verdict stages call the reference whole-program passes
//!   ([`lint_program_in`], [`validate_indexed`], [`analyze_manifest`]), so
//!   every diagnostic is exact, and each stage fills its share of a fresh
//!   memo.
//! * `Scope::Blocks` — only the resource blocks the edit touches are in
//!   scope: the ones whose body changed, the ones only the new source has
//!   (inserted) and the ones only the memo has (removed); a rename is one
//!   of each. Everything outside them is read from the memo. Each stage
//!   re-derives the in-scope blocks' artifacts with the same per-block
//!   functions the whole-program passes fold over, holds them against
//!   *guards*, and stages the result in a `Splice` — O(scope), never a copy
//!   of the memo. The one table it writes early is the memo's instance
//!   list: the expand stage puts the edited blocks' new instances there in
//!   place, and a walk that stops after it puts the old ones back. The
//!   run's output shares that list ([`cloudless_hcl::Instances`]), so a
//!   warm run copies nothing the size of the program.
//!
//! Every all-blocks walk, a guard trip's restart included, runs in two joins
//! ([`cloudless_types::join()`]): lint beside expand, then validate and
//! analyze beside the plan. Refusals are taken in stage order, on the
//! caller, which alone tells the memo and the recorder. The walk fills its
//! fresh memo whatever the program, and decides once, at its end, whether
//! the program is clean; the run keeps the memo exactly then, and writes
//! every row of its trace in one place. A splice lands in
//! the memo only when its walk succeeds; an all-blocks walk gives back the
//! memo it replaces when parse or lint refuses (a typo mid-edit), so the
//! fix replans incrementally. That memo is dropped once lint passes, and
//! until then it is held beside the new expansion.
//!
//! # Inserting and removing blocks
//!
//! The memo's tables are positional — block *i*'s chunk, its node in the
//! block DAG, its place in the name order, its range of the manifest's
//! instances, their places in the plan's visiting order. A body edit moves
//! none of them. A splice that inserts or removes blocks *reshapes* them,
//! once, between its expand and validate stages (`Memo::reshape`), its
//! source window landed first so that every block's name is the new
//! source's. Everything before the first inserted or removed block keeps
//! its row; from there on what stays is renumbered and room is made for
//! what comes (the instance list keeps the blocks a memo loaded from an
//! image has not decoded undecoded), and the block DAG is spliced
//! ([`cloudless_graph::Dag::splice`]), not sealed again. So a block
//! appended at the end of the file, or removed from there, costs its edit,
//! and one inserted at the head renumbers every block
//! (`pipeline.blocks_renumbered` counts them); no per-block artifact
//! outside the scope is derived again. The lint stage has passed by then, which is
//! the last stage after which a refused program gets its memo back; a guard
//! that trips on a reshaped memo drops it, as the all-blocks walk it
//! restarts would have.
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
//! has to reproduce a diagnostic — only prove there are none. An inserted
//! block is held to everything an edited one is, may depend only on blocks
//! declared before it (nothing can depend on it yet, so the block DAG
//! gains no cycle), and must not be declared already. A removed block must
//! leave no reader behind — no dependent in the block DAG, no output or
//! local naming it, no variable or local it was the last reader of —
//! retracts its claims, and turns into deletions of whichever of its
//! addresses the state holds.
//!
//! # Where positions may be read
//!
//! An in-scope chunk is parsed at its place in the file (`parse_block`), so
//! the spans of a block a splice re-derives are exactly a cold run's. A
//! block the edit did not touch keeps the spans it was parsed with, and an
//! edit above it has since moved it: those are never shown. A warm run emits
//! no diagnostics and plan text holds no spans. A caller that *reports* a
//! position (the engine's `prevent_destroy` refusal, the explanations of a
//! failed apply) reads it off one cold parse and expansion of the source,
//! made only when there is something to report; the memo stays as it was.
//!
//! One verdict can change under an unedited program: the spec miner learns
//! from every apply. Mined findings are functions of one instance, so the
//! memo records the rules ([`MinedSpec::rule`]) it is clean under; a run
//! whose miner holds other rules re-checks the memo's manifest against them
//! before anything is reused, and the validate guard holds the in-scope
//! instances against the miner like any other per-instance layer.
//!
//! # The plan cache follows the state
//!
//! The plan stage's cache is the plan against the state committed at one
//! serial, owing a plan of the addresses where that state differs from the
//! one it was planned against. Every commit settles at once
//! (`IncrementalPipeline::committed`, handed the delta the state log wrote
//! for the version): a cache of the serial the commit left moves to the new
//! one and plans what it owes, the addresses the version changed and the
//! blocks that read them there and then, so it owes nothing. A run against
//! a snapshot nobody committed (`IncrementalPipeline::run_over`) owes the
//! addresses where the snapshot differs, and the commit of that snapshot
//! settles them like any other. The next run plans what is owed and the
//! blocks that read it, never the world.
//!
//! The cache keeps no table of dirtiness: whether what an instance reads is
//! created or replaced (all `plan_one` reads of a dependency) is read off
//! the changes of the instances it reads where a visit asks, by the rule
//! `diff` applies ([`cloudless_deploy::diff::target_dirty`]). An address
//! resolves to its block once, by name, and from there to the block's
//! range of instances and its readers in the block DAG — a block with no
//! instance included. Every program the memo indexes is planned through
//! these tables, one with findings or warnings included (its memo is then
//! not kept); a program it cannot index (modules, chunks the scanner
//! cannot separate, a block cycle) has none: its walk plans it with the
//! whole-graph diff ([`cloudless_deploy::diff::diff`]), which plans what
//! the cache would.
//!
//! Every decision is recorded in a [`ChangeTrace`] and mirrored into the
//! engine's metrics registry (`pipeline.runs_incremental`,
//! `pipeline.runs_full`, `pipeline.instances_planned`, a reshape's
//! `pipeline.blocks_renumbered`, and the settling passes'
//! `pipeline.instances_settled`), so `cloudless watch` and the
//! experiment harnesses can prove which stages actually ran.

use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cloudless_analyze::alias::{instance_claims, replace_self_race, ClaimKey};
use cloudless_analyze::incremental::{
    block_is_clean, block_refs, outer_refs, BlockRefs, DeclEdit, LintEnv,
};
use cloudless_analyze::{
    analyze_manifest, lint_program_in, AnalysisOutcome, LintConfig, LintGate, LintReport,
};
use cloudless_cloud::Catalog;
use cloudless_deploy::diff::{
    delete_change, delete_changes, dependency_order, diff, plan_one, render, target_dirty,
    PlannedChange,
};
use cloudless_graph::{Dag, DagBuilder, NodeId, Origin, Renumbering};
use cloudless_hcl::eval::Resolver;
use cloudless_hcl::fingerprint::{
    diff_chunks, Chunk, ChunkDelta, ChunkKind, ChunkMap, ChunkWindow,
};
use cloudless_hcl::parser::parse_at;
use cloudless_hcl::program::{
    expand_resource_block, expand_root, provider_region, Manifest, ModuleLibrary, Piece, Program,
    ResourceBlock, ResourceInstance, RootExpansion, Target,
};
use cloudless_hcl::Diagnostics;
use cloudless_obs::Recorder;
use cloudless_state::Snapshot;
use cloudless_types::{join, PairMap, ResourceAddr, SourcePos, Value};
use cloudless_validate::incremental::{
    check_scope, name_claim, quota_key, ManifestIndex, Positions,
};
use cloudless_validate::{
    validate_indexed, MinedSpec, SpecMiner, ValidationLevel, ValidationReport,
};

mod image;

use image::ClaimTable;
pub use image::Refusal as ImageRefusal;

/// The file name every program the engine parses is given, whatever path
/// it was read from: its diagnostics and positions name it, and a caller
/// that read the program from elsewhere names that path in their place.
pub const PROGRAM_FILE: &str = "main.tf";

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
    /// The failing diagnostics as `CODE: message` lines — what the patch
    /// repair loop ([`cloudless_synth::synthesize_patch_with`]) matches
    /// against edit-op targets when this pipeline is its critic. Lint
    /// findings below `fail_on` and validation warnings are elided.
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
    /// `parse` | `lint` | `expand` | `validate` | `analyze` | `plan` |
    /// `image` | `memo`.
    pub stage: &'static str,
    /// `full` | `incremental` | `cached` for the stages; `loaded` |
    /// `refused` for the memo image; `stored` | `skipped` for the memo.
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
    fn mined_specs(&self) -> &'a [MinedSpec] {
        self.miner.map_or(&[], SpecMiner::specs)
    }
}

/// Whether two spec lists draw the same findings from every manifest.
fn same_rules(a: &[MinedSpec], b: &[MinedSpec]) -> bool {
    a.iter()
        .map(MinedSpec::rule)
        .eq(b.iter().map(MinedSpec::rule))
}

/// The aggregate rule that polices a claim. Each bounds the holders of a
/// claim — at most a limit for the identities, at least one for the
/// readers — so one counted multiset serves all six.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Rule {
    /// ANA402: an identity (by this attribute) that folds to a constant
    /// before expansion.
    Block(&'static str),
    /// ANA502: the identity of one expanded instance — finer than `Block`,
    /// which cannot see values that fold only under `count.index`/`each`.
    Instance(&'static str),
    /// VAL306: a globally unique `(type, name)`.
    Name,
    /// VAL307: one instance in a `(type, region)` quota bucket.
    Quota,
    /// ANA101: a reader of a variable; every one a clean program declares
    /// has a reader.
    Var,
    /// ANA102: the same, of a local.
    Local,
}

/// One thing a program holds, in the domain of the rule that polices it:
/// `what` of resource type `of` (no type for the readers). Borrowed from the
/// block or instance that holds it.
#[derive(Clone, PartialEq, Eq)]
struct Claim<'a> {
    rule: Rule,
    of: &'a str,
    what: Cow<'a, str>,
}

impl<'a> Claim<'a> {
    fn identity(rule: fn(&'static str) -> Rule, (of, attr, what): ClaimKey<'a>) -> Self {
        let rule = rule(attr);
        Claim { rule, of, what }
    }

    fn of(rule: Rule, (of, what): (&'a str, &'a str)) -> Self {
        let what = Cow::Borrowed(what);
        Claim { rule, of, what }
    }

    fn reader(rule: Rule, name: &'a str) -> Self {
        Claim::of(rule, ("", name))
    }
}

impl fmt::Debug for Claim<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Claim { rule, of, what } = self;
        match rule {
            Rule::Block(attr) => write!(f, "Block(({of:?}, {attr:?}, {what:?}))"),
            Rule::Instance(attr) => write!(f, "Instance(({of:?}, {attr:?}, {what:?}))"),
            Rule::Name | Rule::Quota => write!(f, "{rule:?}(({of:?}, {what:?}))"),
            Rule::Var | Rule::Local => write!(f, "{rule:?}({what:?})"),
        }
    }
}

/// The identities a block claims before expansion — the one extractor
/// behind the lint stage's all-blocks fill and its splice.
fn identity_claims<'a>(
    rb: &'a ResourceBlock,
    env: &'a LintEnv,
) -> impl Iterator<Item = Claim<'a>> + 'a {
    let claims = env.block_claims(rb);
    claims.map(|key| Claim::identity(Rule::Block, key))
}

/// The reader claims of a block (or of everything outside the blocks) —
/// the same, for the parse stage's fill and the lint stage's splice.
fn reader_claims<'a>(refs: &'a BlockRefs<'_>) -> impl Iterator<Item = Claim<'a>> + 'a {
    let vars = refs.var_uses.iter();
    let vars = vars.map(|name| Claim::reader(Rule::Var, name));
    let locals = refs.local_uses.iter();
    vars.chain(locals.map(|name| Claim::reader(Rule::Local, name)))
}

/// Both, of a block whose references are `refs`.
fn lint_claims<'a>(
    rb: &'a ResourceBlock,
    refs: &'a BlockRefs<'_>,
    env: &'a LintEnv,
) -> impl Iterator<Item = Claim<'a>> + 'a {
    identity_claims(rb, env).chain(reader_claims(refs))
}

/// The claims a block's instances make — the same, for the analyze stage.
fn instance_level_claims(
    instances: &[Arc<ResourceInstance>],
) -> impl Iterator<Item = Claim<'_>> + '_ {
    instances.iter().flat_map(|inst| {
        let identities = instance_claims(inst);
        (identities.map(|key| Claim::identity(Rule::Instance, key)))
            .chain(name_claim(inst).map(|name| Claim::of(Rule::Name, name)))
            .chain([Claim::of(Rule::Quota, quota_key(inst))])
    })
}

/// A counted multiset of [`Claim`]s — how many holders each has — and,
/// signed, a staged edit of one: per claim, holders gained minus holders
/// lost between the in-scope blocks' old artifacts and their new ones.
/// A memo loaded from an image counts the image's table ([`ClaimTable`],
/// searched where it sits) and what has been held since; any other counts
/// all of it in `delta`. Nested rule → `of` → `what`, so counting a claim
/// borrows it: the memo copies a value out of the program once, when its
/// first holder comes.
#[derive(Default)]
struct Claims {
    base: ClaimTable,
    delta: BTreeMap<Rule, PairMap<isize>>,
}

impl Claims {
    /// How many holders `claim` has.
    fn held(&self, claim: &Claim<'_>) -> isize {
        self.base.held(claim.rule, claim.of, &claim.what) + self.since(claim)
    }

    /// How many holders `claim` gained since the image (all of them,
    /// without one).
    fn since(&self, claim: &Claim<'_>) -> isize {
        let of_rule = self.delta.get(&claim.rule);
        let held = of_rule.and_then(|claims| claims.get(claim.of, &claim.what));
        held.copied().unwrap_or(0)
    }

    /// Give `claim` `by` more holders (fewer, when negative).
    fn hold(&mut self, claim: &Claim<'_>, by: isize) {
        let held = self.since(claim) + by;
        let of_rule = self.delta.entry(claim.rule).or_default();
        match held {
            0 => drop(of_rule.remove(claim.of, &claim.what)),
            _ => drop(of_rule.insert(claim.of, &claim.what, held)),
        }
    }

    /// Every claim held since the image, in order, with its count.
    fn iter(&self) -> impl Iterator<Item = (Claim<'_>, isize)> {
        self.delta.iter().flat_map(|(&rule, claims)| {
            claims
                .iter()
                .map(move |(of, what, &n)| (Claim::of(rule, (of, what)), n))
        })
    }

    fn len(&self) -> usize {
        self.base.len() + self.delta.values().map(PairMap::len).sum::<usize>()
    }

    /// Count `other`'s holders in too. The stages claim under rules of
    /// their own, so a fill moves whole rules over; a rule both count is
    /// held claim by claim.
    fn merge(&mut self, other: Claims) {
        for (rule, claims) in other.delta {
            if let Entry::Vacant(slot) = self.delta.entry(rule) {
                slot.insert(claims);
                continue;
            }
            for (of, what, &by) in claims.iter() {
                self.hold(&Claim::of(rule, (of, what)), by);
            }
        }
    }
}

/// Stage `by` more holders for each of `claims`.
fn stage<'a>(edit: &mut Claims, claims: impl Iterator<Item = Claim<'a>>, by: isize) {
    for claim in claims {
        edit.hold(&claim, by);
    }
}

/// The first claim that would, once `edit` lands, have gained holders past
/// the most `bounds(claim)` allows or lost them below the least.
fn out_of_bounds<'e>(
    claims: &Claims,
    edit: &'e Claims,
    bounds: impl Fn(&Claim<'_>) -> (usize, usize),
) -> Option<Claim<'e>> {
    let broken = |(claim, by): &(Claim<'_>, isize)| {
        let after = claims.held(claim) + by;
        let (least, most) = bounds(claim);
        (*by > 0 && after > most as isize) || (*by < 0 && after < least as isize)
    };
    edit.iter().find(broken).map(|(claim, _)| claim)
}

/// Plan-stage artifacts: the plan of the memo's manifest against the state
/// committed at `serial`, except at the addresses `away`. Every memo that
/// indexes its program has one: a program it cannot index is planned by
/// `diff` ([`Walk::diffed`]).
#[derive(Default)]
struct PlanCache {
    /// The committed serial the rest was planned against (`None`: nothing
    /// yet).
    serial: Option<u64>,
    /// Where the state committed at `serial` differs from the one the rest
    /// was planned against: where the snapshot nobody committed that the
    /// last run planned differs (a commit plans what it changed at once,
    /// [`IncrementalPipeline::committed`]). The next run, or the next
    /// commit's settle, plans them again.
    away: Vec<ResourceAddr>,
    /// Dependency (Kahn) order over the manifest's instances.
    order: Vec<usize>,
    /// Each instance's place in `order`: a pass visits what it marks by
    /// this key, smallest first.
    rank: Vec<usize>,
    /// Non-NoOp changes by declaration position.
    changes: BTreeMap<usize, PlannedChange>,
    /// Deletions by rendered address — the state's own key, so its order.
    deletes: BTreeMap<String, PlannedChange>,
}

impl PlanCache {
    /// Visit the instances in `order` from now on.
    fn set_order(&mut self, order: Vec<usize>) {
        self.rank.clear();
        self.rank.resize(order.len(), 0);
        for (r, &at) in order.iter().enumerate() {
            self.rank[at] = r;
        }
        self.order = order;
    }
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
    /// A resource block's syntax is one parse (`parse_block`) of its chunk of
    /// `source` away, which is all a splice needs of a block it replaces
    /// or removes.
    program: Program,
    /// The `(type, name)`s that half references: blocks that cannot go.
    outer: PairMap<()>,
    /// Block-level dependency DAG (edges: dependency → dependent).
    dag: Dag<()>,
    /// The blocks in `(type, name)` order: what a block's name is looked up
    /// in, once, for everything kept by block (its declaration, its range of
    /// instances).
    by_name: Vec<u32>,
    // lint (the resource blocks it declares are `by_name`'s)
    lint_env: LintEnv,
    // expand
    root: RootExpansion,
    manifest: Manifest,
    // parse (readers), lint (block identities), analyze (the rest)
    claims: Claims,
    // plan
    plan: PlanCache,
    /// The image the memo was loaded from: the records of the blocks it
    /// still holds as the image has them are copied from it.
    image: Option<Arc<image::Image>>,
}

/// Where a block sits in one version of the source: its position among the
/// resource blocks and the chunk that holds it.
type Seat = (usize, usize);

/// One block of a splice, old and new: an edited block has both sides, an
/// inserted one only the new, a removed one only the old. Each stage fills
/// in what it derives of either side.
#[derive(Default)]
struct BlockEdit {
    /// Its seat in the memo's source and in the new one. Positions count
    /// the blocks of their own source; once the memo is reshaped
    /// ([`Memo::reshape`]) the new ones are the memo's.
    was: Option<Seat>,
    now: Option<Seat>,
    /// Its position: among the new source's blocks if it is there, else
    /// among the memo's.
    at: usize,
    /// parse: the block as each source has it.
    old: Option<ResourceBlock>,
    new: Option<ResourceBlock>,
    /// lint: what an inserted block depends on — a block of the memo, by
    /// its position there, or one the splice inserts before it.
    deps: Vec<Origin>,
    /// expand: its instances in the memo's manifest and in the new one.
    before: Vec<Arc<ResourceInstance>>,
    after: Vec<Arc<ResourceInstance>>,
}

impl BlockEdit {
    fn inserted(&self) -> bool {
        self.was.is_none()
    }

    fn removed(&self) -> bool {
        self.now.is_none()
    }
}

/// What a [`Scope::Blocks`] walk produced, staged O(scope) and applied to
/// the memo only when the walk succeeds.
#[derive(Default)]
struct Splice {
    /// The window of the memo's chunk table the edit reaches, re-scanned
    /// (`None`: source unchanged).
    window: Option<ChunkWindow>,
    /// The blocks in scope, in source order.
    blocks: Vec<BlockEdit>,
    /// The block declarations the inserted and removed ones amount to.
    decls: DeclEdit,
    claims: Claims,
    /// Whether the edited blocks' new instances are in the memo's list,
    /// where the expand stage writes them: their old ones go back if a
    /// later stage stops the walk.
    written: bool,
    /// Whether blocks were inserted or removed, and the memo's positional
    /// tables have been reshaped for it: nothing is left to put back.
    reshaped: bool,
}

impl Splice {
    /// How many blocks the splice inserts and removes.
    fn resized(&self) -> (usize, usize) {
        let inserted = self.blocks.iter().filter(|b| b.inserted()).count();
        let removed = self.blocks.iter().filter(|b| b.removed()).count();
        (inserted, removed)
    }
}

/// Which blocks one walk recomputes, and where it stages what it derives.
/// The scope owns the memo for the length of a run; [`IncrementalPipeline::run`]
/// puts back what the run's outcome leaves of it.
enum Scope {
    /// Every block, in [`Walk::cold`]: nothing is reused, and the artifacts
    /// fill `fresh`.
    All {
        /// Why no narrower scope would do (the trace's fallback reason).
        reason: String,
        fresh: Box<Memo>,
        /// The memo this run replaces: given back if parse or lint refuses.
        old: Option<Box<Memo>>,
    },
    /// The blocks of `memo` and of the new source that `edit` names
    /// (possibly none); everything outside them is reused.
    Blocks { memo: Box<Memo>, edit: Box<Splice> },
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
    fn all(reason: impl Into<String>, old: Option<Box<Memo>>) -> Scope {
        Scope::All {
            reason: reason.into(),
            fresh: Box::default(),
            old,
        }
    }

    /// Align the edit to chunks and pick the narrowest sound scope.
    fn pick(memo: Option<Box<Memo>>, source: &str, ctx: &PipelineCtx<'_>) -> Scope {
        let Some(mut memo) = memo else {
            return Scope::all("no memo (first run)", None);
        };
        let (gate, level, inputs) = &memo.config;
        if (*gate, *level, inputs) != (ctx.lint, ctx.level, ctx.inputs) {
            return Scope::all("engine configuration changed", Some(memo));
        }
        if !same_rules(&memo.specs, ctx.mined_specs()) {
            // Mined findings are per instance and the memo is of a clean
            // program, so it stands under the new conventions unless one of
            // its own instances deviates from them.
            let deviates = |miner: &SpecMiner| !miner.check(&memo.manifest).is_empty();
            if ctx.miner.is_some_and(deviates) {
                let reason = "memoized program deviates from the spec miner's new conventions";
                return Scope::all(reason, Some(memo));
            }
            memo.specs = ctx.mined_specs().to_vec();
        }
        let edit = match diff_chunks(&memo.chunks, &memo.source, source) {
            ChunkDelta::Unchanged => Splice::default(),
            ChunkDelta::Window(window) => match memo.align(&window) {
                Ok(blocks) => Splice {
                    window: Some(window),
                    blocks,
                    ..Splice::default()
                },
                Err(reason) => return Scope::all(reason, Some(memo)),
            },
        };
        Scope::Blocks {
            memo,
            edit: Box::new(edit),
        }
    }

    /// The memo as it stood before the run, if it can: the edited blocks'
    /// old instances put back, unless the splice reshaped it.
    fn into_memo(self) -> Option<Box<Memo>> {
        match self {
            Scope::All { old, .. } => old,
            Scope::Blocks { mut memo, edit } => (!edit.reshaped).then(|| {
                if edit.written {
                    memo.write_edited(&edit.blocks, |b| &b.before);
                }
                memo
            }),
        }
    }
}

/// The memoizing pipeline. One per engine; owns the memo across calls, and
/// its image beside the state log (see `image`).
pub struct IncrementalPipeline {
    memo: Option<Box<Memo>>,
    /// Whether the image beside the log may still warm the first run: it
    /// has not been opened and the memo has not been cleared.
    image_pending: bool,
    /// What the image did for the first run, for that run's trace.
    image_note: Option<(&'static str, String)>,
    /// Where the store stood when an image anchored there was last loaded
    /// or written: the checkpoint writes nothing until the store moves on.
    imaged: Option<image::Anchor>,
}

impl Default for IncrementalPipeline {
    fn default() -> Self {
        IncrementalPipeline {
            memo: None,
            image_pending: true,
            image_note: None,
            imaged: None,
        }
    }
}

impl IncrementalPipeline {
    /// Drop the memo; the next run is cold.
    pub fn clear(&mut self) {
        self.memo = None;
        self.image_pending = false;
    }

    /// A commit moved the state from serial `from` to `ctx.state`'s and
    /// changed it at the addresses `delta` alone, as the state log wrote
    /// them. A cache of `from` follows it and settles at once: the pass the
    /// next run would make of what it owes, those addresses and the blocks
    /// that read them, against the state just committed, is made now, while
    /// the instances it reads are at hand. The cache then owes nothing, and
    /// nor does an image written of it. A cache of another serial reads
    /// nothing of `delta` and is left as it was, and so is one when an
    /// address does not parse (the log wrote none such): the next run plans
    /// every instance. Returns whether the cache followed. Either way the
    /// image beside the log now trails the log: the engine checkpoints
    /// after a cache that followed, after the next run's decision otherwise.
    /// The pass is not a run: its visits count as
    /// `pipeline.instances_settled`.
    pub(crate) fn committed<E>(
        &mut self,
        from: u64,
        delta: impl IntoIterator<Item = Result<ResourceAddr, E>>,
        ctx: &PipelineCtx<'_>,
    ) -> bool {
        let followed = |memo: &&mut Memo| memo.plan.serial == Some(from);
        let Some(memo) = self.memo.as_deref_mut().filter(followed) else {
            return false;
        };
        let delta = delta.into_iter().collect::<Result<Vec<_>, E>>();
        debug_assert!(delta.is_ok(), "a logged address does not parse");
        let Ok(delta) = delta else {
            return false;
        };
        let mut plan = std::mem::take(&mut memo.plan);
        plan.serial = Some(ctx.state.serial);
        plan.away.extend(delta);
        let (visited, _) = Walk::pass(ctx, None, &memo.manifest, memo, &mut plan, Some(&[]));
        memo.plan = plan;
        ctx.recorder
            .counter("pipeline.instances_settled", visited as u64);
        true
    }

    /// The blocks of `source` a reconcile must classify against the state
    /// committed at `serial` refreshed at the addresses `refreshed`, when the
    /// memo can say: it holds `source` expanded under `inputs`, and its plan
    /// cache is of that serial. A block the cache plans to a no-op at every
    /// instance holds, at each, every attribute it declares (the planner's
    /// rule is the classifier's, [`cloudless_types::value::attr_differs`]),
    /// so drift can only be in a block with a refreshed address, an address
    /// the cache owes a plan of, or a change in the cache. Each is parsed
    /// off its chunk, in declaration order, with its instances. With
    /// `names`, every block name the program declares comes too.
    #[allow(clippy::type_complexity)]
    pub(crate) fn drift_scope<'m, 'r>(
        &'m self,
        source: &str,
        inputs: &BTreeMap<String, Value>,
        serial: u64,
        refreshed: impl Iterator<Item = &'r ResourceAddr>,
        names: bool,
    ) -> Option<(
        Vec<(ResourceBlock, &'m [Arc<ResourceInstance>])>,
        Option<BTreeSet<String>>,
    )> {
        self.manifest_of(source, inputs)?;
        let memo = self.memo.as_deref()?;
        let plan = &memo.plan;
        if plan.serial != Some(serial) {
            return None;
        }
        let ranges = &memo.root.block_ranges;
        let block_of = |at: usize| ranges.partition_point(|span| span.end <= at);
        let mut scope: BTreeSet<usize> = plan.changes.keys().map(|&at| block_of(at)).collect();
        scope.extend(refreshed.filter_map(|addr| memo.block_holding(addr)));
        scope.extend(plan.away.iter().filter_map(|addr| memo.block_holding(addr)));
        let mut blocks = Vec::with_capacity(scope.len());
        for b in scope {
            let chunk = &memo.chunks.chunks[memo.block_chunk[b]];
            let rb = parse_block(&memo.source, chunk, &memo.program.filename).ok()?;
            blocks.push((rb, memo.manifest.instances.slice(ranges[b].clone())));
        }
        let names = names.then(|| {
            let kinds = memo.chunks.chunks.iter().map(|chunk| &chunk.kind);
            let named = kinds.filter_map(|kind| match kind {
                ChunkKind::Resource { name, .. } => Some(name.clone()),
                ChunkKind::Other => None,
            });
            named.collect()
        });
        Some((blocks, names))
    }

    /// Whether a memo is currently held.
    pub fn is_warm(&self) -> bool {
        self.memo.is_some()
    }

    /// The memo's manifest, when the memo holds exactly `source` expanded
    /// under `inputs`. It is a cold expansion's but for the spans of the
    /// blocks no edit reached (see "Where positions may be read"): a caller
    /// that reads no span may take it in place of expanding `source` again.
    pub fn manifest_of(&self, source: &str, inputs: &BTreeMap<String, Value>) -> Option<&Manifest> {
        let memo = self.memo.as_deref()?;
        (memo.source == source && memo.config.2 == *inputs).then_some(&memo.manifest)
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
        self.run_over(source, ctx, None)
    }

    /// [`IncrementalPipeline::run`] against `ctx.state`, which with `delta`
    /// is a snapshot nobody committed that differs from the state committed
    /// at its serial at those addresses alone (the reconciler's adopted
    /// state). Its plan is the cache's with those addresses planned again,
    /// and the cache owes them a plan against the committed state, which
    /// the next run or commit ([`IncrementalPipeline::committed`]) makes.
    pub(crate) fn run_over(
        &mut self,
        source: &str,
        ctx: &PipelineCtx<'_>,
        delta: Option<&[ResourceAddr]>,
    ) -> Result<FrontendOutput, PipelineError> {
        let image = self.image_note.take();
        let mut scope = Scope::pick(self.memo.take(), source, ctx);
        let (mut walk, (pass, clean, (action, detail))) = loop {
            let mut walk = Walk::new(source, ctx, delta);
            match walk.verdicts(&mut scope) {
                Ok(walked) => break (walk, walked),
                Err(Stop::Guard(reason)) => scope = Scope::all(reason, scope.into_memo()),
                Err(Stop::Refused(err)) => {
                    ctx.recorder.counter("pipeline.runs_full", 1);
                    self.memo = scope.into_memo();
                    return Err(err);
                }
            }
        };
        let (memo, reason) = match scope {
            Scope::All { reason, fresh, .. } => (fresh, Some(reason)),
            Scope::Blocks { memo, .. } => (memo, None),
        };
        let fast_path = reason.is_none();
        let visited = pass.visited as u64;
        ctx.recorder.counter("pipeline.instances_planned", visited);
        let runs = match fast_path {
            true => "pipeline.runs_incremental",
            false => "pipeline.runs_full",
        };
        ctx.recorder.counter(runs, 1);
        let verdict_rows = ["parse", "lint", "expand", "validate", "analyze"];
        let verdict_rows = verdict_rows.map(|stage| (stage, action, detail.clone()));
        let plan_row = ("plan", pass.trace.0, pass.trace.1);
        let image_row = image.map(|(action, detail)| ("image", action, detail));
        // a splice's memo is kept; a cold start's when the run is clean
        let memo_row = (!fast_path).then(|| match clean {
            true => ("memo", "stored", "run clean".to_owned()),
            false => ("memo", "skipped", "run not clean".to_owned()),
        });
        let rows = (verdict_rows.into_iter().chain([plan_row]))
            .chain(image_row)
            .chain(memo_row);
        let stages = rows.map(|(stage, action, detail)| StageTrace {
            stage,
            action,
            detail,
        });
        walk.out.trace = ChangeTrace {
            stages: stages.collect(),
            fast_path,
            fallback_reason: reason,
        };
        walk.out.changes = pass.changes;
        walk.out.plan_text = pass.text;
        self.memo = clean.then_some(memo);
        Ok(walk.out)
    }
}

/// One walk of the stages: the context and the output each stage adds to.
struct Walk<'a> {
    source: &'a str,
    ctx: &'a PipelineCtx<'a>,
    /// Where `ctx.state` differs from the committed state at its serial,
    /// when it is a snapshot nobody committed.
    delta: Option<&'a [ResourceAddr]>,
    lint_cfg: Option<LintConfig>,
    out: FrontendOutput,
}

impl<'a> Walk<'a> {
    fn new(source: &'a str, ctx: &'a PipelineCtx<'a>, delta: Option<&'a [ResourceAddr]>) -> Self {
        Walk {
            source,
            ctx,
            delta,
            lint_cfg: ctx.lint.config(),
            out: FrontendOutput {
                manifest: Manifest::default(),
                // what a clean program validates to; an all-blocks walk
                // overwrites it with the full pass's report
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

    /// The driver's walk: its plan pass, whether the program is clean (the
    /// memo it leaves may be kept), and what the stages up to analyze did
    /// (the trace's action and detail). An all-blocks walk ([`Walk::cold`])
    /// plans beside its verdicts; a splice lands in the memo once its last
    /// verdict passes, and [`Walk::plan`] plans the memo with it in. (With
    /// no block in scope the stages loop over nothing.)
    fn verdicts(
        &mut self,
        scope: &mut Scope,
    ) -> Result<(PlanPass, bool, (&'static str, String)), Stop> {
        let (memo, edit) = match scope {
            Scope::All { fresh, old, .. } => {
                let (pass, clean) = self.cold(fresh, old)?;
                return Ok((pass, clean, ("full", "every block in scope".to_owned())));
            }
            Scope::Blocks { memo, edit } => (memo, edit),
        };
        self.parse(memo, edit)?;
        self.lint(memo, edit)?;
        self.expand(memo, edit)?;
        self.validate(memo, edit)?;
        self.analyze(memo, edit)?;
        let row = if edit.blocks.is_empty() {
            ("cached", "no block in scope".to_owned())
        } else {
            let (k, n) = (edit.blocks.len(), memo.root.block_ranges.len());
            let shape = match edit.resized() {
                (0, 0) => String::new(),
                (a, r) => format!(", +{a} inserted, −{r} removed"),
            };
            let detail = format!("{k} of {n} block(s) in scope{shape}");
            ("incremental", detail)
        };
        // nothing refuses a program past the verdict stages
        memo.absorb(edit, self.source);
        // the memo's list, edit and all: no copy of the world
        self.out.manifest = memo.manifest.clone();
        let (ctx, delta, blocks) = (self.ctx, self.delta, Some(&edit.blocks[..]));
        let pass = Walk::plan(ctx, delta, &self.out.manifest, memo, blocks);
        Ok((pass, true, row))
    }

    /// Every block in scope, in two joins: lint beside expand and the source
    /// index, then validate and analyze beside the plan, each helper on what
    /// the stages before its join left. Refusals are taken once both sides
    /// are back, in stage order (lint's before expand's, validate's before
    /// analyze's), and a refused run's plan goes with it; the memo and the
    /// recorder hear of the helper's work only then, on this thread. The
    /// `old` memo goes back if parse or lint refuses, and the lint helper
    /// drops it once lint passes. Inline (one core) lint runs first, and a
    /// program it refuses is not expanded. Every stage fills `fresh`; a
    /// program it cannot index ([`Memo::index_source`]) is planned by
    /// [`Walk::diffed`]. Returns the plan pass and whether the program is
    /// clean: indexed, with no finding, suppression or warning.
    fn cold(
        &mut self,
        fresh: &mut Memo,
        old: &mut Option<Box<Memo>>,
    ) -> Result<(PlanPass, bool), Stop> {
        let (ctx, source, cfg) = (self.ctx, self.source, self.lint_cfg.as_ref());
        let mut program = parse_program(source)?;
        let (modules, held) = (ctx.modules, old.take());
        let refused = AtomicBool::new(false);
        let (linted, expanded) = join(
            || match lint_all(&program, modules, cfg) {
                Ok(linted) => {
                    drop(held);
                    Ok(linted)
                }
                Err(err) => {
                    refused.store(true, Ordering::Relaxed);
                    Err((err, held))
                }
            },
            || {
                if refused.load(Ordering::Relaxed) {
                    return Err(Diagnostics::new());
                }
                let expanded = expand_root(&program, ctx.inputs, modules, ctx.data);
                expanded.map(|expanded| (expanded, fresh.index_source(&program, source, ctx)))
            },
        );
        let linted = linted.map_err(|(err, held)| {
            *old = held;
            err
        })?;
        let ((manifest, root), indexed) = expanded.map_err(PipelineError::Frontend)?;
        let mut clean = indexed && linted.clean && manifest.warnings.is_empty();
        fresh.lint_env = linted.env;
        fresh.claims.merge(linted.claims);
        fresh.root = root;
        fresh.manifest = manifest.clone();
        self.out.manifest = manifest;
        // the last reader of block syntax is done: the memo keeps none, and
        // the helper drops it
        let resources = std::mem::take(&mut program.resources);
        fresh.program = program;
        let (catalog, level, miner) = (ctx.catalog, ctx.level, ctx.miner);
        let (manifest, delta) = (&self.out.manifest, self.delta);
        let (checked, planned) = join(
            move || -> Result<_, PipelineError> {
                drop(resources);
                let validated = validate_all(manifest, catalog, level, miner)?;
                let analyzed = cfg.map(|cfg| analyze_manifest(manifest, cfg, None));
                Ok((validated, analyzed))
            },
            || {
                if !indexed {
                    return Walk::diffed(ctx, manifest);
                }
                let claims = instance_level_claims(&manifest.instances);
                stage(&mut fresh.claims, claims, 1);
                Walk::plan(ctx, delta, manifest, fresh, None)
            },
        );
        let (report, analyzed) = checked?;
        clean &= report.diagnostics.is_empty();
        self.out.validation = report;
        // `analyzed` is `None` when there is no lint gate
        if let (Some(cfg), Some(outcome)) = (cfg, analyzed) {
            record_analysis(ctx.recorder.as_ref(), &outcome);
            if outcome.report.fails(cfg) {
                return Err(PipelineError::Lint(outcome.report).into());
            }
            clean &= outcome.report.findings.is_empty() && outcome.report.suppressed == 0;
        }
        Ok((planned, clean))
    }

    /// **parse** — the in-scope blocks, as each source has them.
    fn parse(&self, memo: &Memo, edit: &mut Splice) -> Result<(), Stop> {
        let Some(window) = &edit.window else {
            return Ok(()); // source unchanged
        };
        let filename = &memo.program.filename;
        let parse = |source: &str, chunk: Option<&Chunk>| {
            chunk.map(|c| parse_block(source, c, filename)).transpose()
        };
        for b in edit.blocks.iter_mut() {
            let was = b.was.map(|(_, ci)| &memo.chunks.chunks[ci]);
            let now = b.now.map(|(_, ci)| &window.chunks[ci - window.old.start]);
            b.old = parse(&memo.source, was)?;
            b.new = parse(self.source, now)?;
        }
        Ok(())
    }

    /// **lint** — hold the in-scope blocks to the memo's lint environment:
    /// clean, the same dependency edges, and what they declare, retract and
    /// depend on accounted for.
    fn lint(&self, memo: &Memo, edit: &mut Splice) -> Result<(), Stop> {
        let Splice {
            blocks,
            decls,
            claims,
            ..
        } = edit;
        let env = &memo.lint_env;
        let declares = |decls: &DeclEdit, t: &str, n: &str| memo.declares(decls, t, n);
        let key = |rb: &ResourceBlock| (rb.rtype.clone(), rb.name.clone());
        // what the splice declares and retracts, and the seats it vacates
        let leaving = blocks.iter().filter(|b| b.removed());
        decls.removed = leaving.filter_map(|b| b.old.as_ref()).map(key).collect();
        let coming = blocks.iter().filter(|b| b.inserted());
        for rb in coming.filter_map(|b| b.new.as_ref()) {
            let twice = declares(decls, &rb.rtype, &rb.name);
            ensure(!twice, "structural edit (a block is declared twice)")?;
            decls.added.push(key(rb));
        }
        let gone: HashSet<usize> = (blocks.iter().filter(|b| b.removed()))
            .filter_map(|b| b.was.map(|(at, _)| at))
            .collect();
        for at in 0..blocks.len() {
            let (earlier, rest) = blocks.split_at_mut(at);
            let b = &mut rest[0];
            let old = b.old.as_ref().map(|rb| (rb, block_refs(rb)));
            let new = b.new.as_ref().map(|rb| (rb, block_refs(rb)));
            if let (Some((old_rb, old)), Some((rb, new))) = (&old, &new) {
                // Reference stability stands in for the whole-program
                // graph passes, and no block may flip to or from count = 0.
                ensure(old.stable_under(new), "dependency edges changed")?;
                let flipped = env.count_folds_zero(rb) != env.count_folds_zero(old_rb);
                ensure(!flipped, "count-disabled status changed")?;
            }
            if let Some((rb, refs)) = &new {
                let declared = |t: &str, n: &str| declares(decls, t, n);
                let clean = |cfg| block_is_clean(&memo.program, rb, refs, env, &declared, cfg);
                let clean = self.lint_cfg.as_ref().is_none_or(clean);
                ensure(clean, "edited block has lint findings")?;
                stage(claims, lint_claims(rb, refs, env), 1);
            }
            if let (None, Some((_, refs))) = (&old, &new) {
                b.deps = memo.dependencies(refs, decls, earlier)?;
            }
            if let Some((rb, refs)) = &old {
                stage(claims, lint_claims(rb, refs, env), -1);
            }
            if let (Some((rb, _)), None) = (&old, &new) {
                // the cold walk reports the dangling reference exactly
                let dependents = memo.dag.successors(NodeId(b.at as u32));
                let read = memo.outer.contains(&rb.rtype, &rb.name)
                    || dependents.iter().any(|d| !gone.contains(&d.index()));
                ensure(!read, "structural edit (a removed block is still read)")?;
            }
        }
        // ANA101/102 and ANA402 are the lint gate's to refuse
        self.hold_bounds(memo, claims)
    }

    /// **expand** — the in-scope blocks' instances, under the memo's root
    /// bindings, written into the memo's list in place. A splice that
    /// inserts or removes blocks reshapes the memo's positional tables here,
    /// once every block's new instances are known.
    fn expand(&self, memo: &mut Memo, edit: &mut Splice) -> Result<(), Stop> {
        let ctx = self.ctx;
        let Splice { blocks, decls, .. } = &mut *edit;
        let declared = |t: &str, n: &str| memo.declares(decls, t, n);
        for at in 0..blocks.len() {
            let (earlier, rest) = blocks.split_at_mut(at);
            let b = &mut rest[0];
            if let Some((was, _)) = b.was {
                let span = memo.root.block_ranges[was].clone();
                b.before = memo.manifest.instances.slice(span).to_vec();
            }
            let Some(rb) = &b.new else {
                continue;
            };
            let mut diags = Diagnostics::new();
            let mut fresh: Vec<ResourceInstance> = Vec::new();
            let deps = expand_resource_block(
                rb,
                &memo.root.vars,
                &memo.root.locals,
                &declared,
                ctx.data,
                &memo.root.file,
                &[],
                &mut diags,
                &mut fresh,
            );
            ensure(diags.is_empty(), "expansion produced diagnostics")?;
            for inst in &mut fresh {
                let config = &memo.manifest.provider_config;
                inst.provider_region = provider_region(config, &inst.addr.rtype);
            }
            if b.inserted() {
                // Block-level dependencies become instance-level, as
                // `expand_root` makes them once every block is expanded.
                for inst in &mut fresh {
                    let addrs = (deps.iter())
                        .flat_map(|(rtype, name)| memo.addresses_of(rtype, name, earlier));
                    inst.depends_on = addrs.filter(|addr| *addr != inst.addr).collect();
                }
            } else {
                let addrs = fresh.iter().map(|inst| &inst.addr);
                ensure(
                    addrs.eq(b.before.iter().map(|inst| &inst.addr)),
                    "instance addresses changed",
                )?;
                // Instance-level `depends_on` copies over from the cached
                // instances (exact: `expand_deps` is unchanged).
                for (new, old) in fresh.iter_mut().zip(&b.before) {
                    new.depends_on = old.depends_on.clone();
                }
            }
            b.after = fresh.into_iter().map(Arc::new).collect();
        }
        if edit.resized() != (0, 0) {
            // nothing is left of the memo as it stood: a guard that trips
            // from here on drops it
            edit.reshaped = true;
            let window = edit.window.take();
            let renumbered = memo.reshape(&edit.blocks, window, self.source)?;
            (ctx.recorder).counter("pipeline.blocks_renumbered", renumbered as u64);
        }
        // in place, O(edit): a stopped walk puts `before` back
        memo.write_edited(&edit.blocks, |b| &b.after);
        edit.written = true;
        Ok(())
    }

    /// **validate** — re-check the edited and inserted blocks and their
    /// direct dependents through the memo's positional index.
    fn validate(&self, memo: &Memo, edit: &Splice) -> Result<(), Stop> {
        let mut in_scope: BTreeSet<usize> = BTreeSet::new();
        for (at, _) in edit.blocks.iter().filter_map(|b| b.now) {
            let dependents = memo.dag.successors(NodeId(at as u32));
            in_scope.extend(dependents.iter().map(|node| node.index()));
            in_scope.insert(at);
        }
        let instances_of = |&bi: &usize| memo.root.block_ranges[bi].clone();
        let positions: Vec<usize> = in_scope.iter().flat_map(instances_of).collect();
        let (ctx, manifest) = (self.ctx, &memo.manifest);
        let found = check_scope(manifest, memo, &positions, ctx.catalog, ctx.miner);
        ensure(found.is_empty(), "edited scope has validation findings")
    }

    /// **analyze** — hold the in-scope instances' claims to the aggregate
    /// rules of every stage (ANA101/102, ANA402, VAL306, VAL307) through the
    /// memo's claims multiset.
    fn analyze(&self, memo: &Memo, edit: &mut Splice) -> Result<(), Stop> {
        let gated = self.lint_cfg.is_some();
        let Splice { blocks, claims, .. } = edit;
        for b in blocks.iter() {
            stage(claims, instance_level_claims(&b.before), -1);
            stage(claims, instance_level_claims(&b.after), 1);
            // ANA504 is a finding: only the full analysis reports it
            ensure(
                !gated || b.after.iter().all(|i| replace_self_race(i).is_none()),
                "create_before_destroy with plan-time identity (replace self-race)",
            )?;
        }
        self.hold_bounds(memo, claims)
    }

    /// The aggregate rules over the claims staged so far: trip if landing
    /// `edit` would put one out of bounds.
    fn hold_bounds(&self, memo: &Memo, edit: &Claims) -> Result<(), Stop> {
        const UNLIMITED: usize = isize::MAX as usize;
        let gated = self.lint_cfg.is_some();
        let bounds = |claim: &Claim<'_>| match claim.rule {
            Rule::Quota => (self.ctx.catalog.get_str(claim.of))
                .map_or((0, UNLIMITED), |schema| (0, schema.default_quota as usize)),
            Rule::Name => (0, 1),
            _ if !gated => (0, UNLIMITED),
            Rule::Var | Rule::Local => (1, UNLIMITED),
            Rule::Block(_) | Rule::Instance(_) => (0, 1),
        };
        match out_of_bounds(&memo.claims, edit, bounds) {
            Some(claim) => Err(Stop::Guard(format!("{claim:?} would be out of bounds"))),
            None => Ok(()),
        }
    }

    /// **plan** — manifest × state → changes and plan text, through the
    /// plan cache of the memo the run leaves behind: one pass along the
    /// dependency order that visits the *marked* instances. While the
    /// state serial stands, the spliced `blocks`' instances start marked,
    /// and so does what the state changed under the cache — the addresses
    /// it owes (`away`) and those where a snapshot nobody committed differs
    /// (`delta`) — with every block that reads theirs
    /// (a reader resolves the block's records off the state). Every instance
    /// is marked when nothing is cached (`blocks` is `None`) or the serial
    /// moved by a commit the cache did not follow (it was of another serial,
    /// or held by no engine that committed): the front-end artifacts stay,
    /// the diff rebuilds.
    /// [`plan_one`] reads nothing of a dependency but its records and
    /// whether the instances it reads are created or replaced
    /// ([`target_dirty`]). So a visit marks its block's direct dependents
    /// (they come later in the order) only when it flips that answer for
    /// the instance it visits. The static cone of the edit
    /// (`cloudless_graph::ImpactScope`, ANA505) bounds what the pass can
    /// reach; it visits the part of the cone whose inputs changed.
    ///
    /// A pass over a snapshot nobody committed leaves a cache that owes
    /// `delta`. Every commit makes the same pass with no edit over what
    /// the log wrote ([`IncrementalPipeline::committed`]) and leaves a cache
    /// that owes nothing.
    fn plan(
        ctx: &PipelineCtx<'_>,
        delta: Option<&[ResourceAddr]>,
        manifest: &Manifest,
        memo: &mut Memo,
        blocks: Option<&[BlockEdit]>,
    ) -> PlanPass {
        let mut plan = std::mem::take(&mut memo.plan);
        let (visited, every) = Walk::pass(ctx, delta, manifest, memo, &mut plan, blocks);
        let planned: Vec<PlannedChange> = (plan.changes.values().chain(plan.deletes.values()))
            .cloned()
            .collect();
        memo.plan = plan;
        let n = manifest.instances.len();
        let trace = match (every, blocks) {
            (true, None) => ("full", format!("diffed {n} instance(s)")),
            (true, Some(_)) => {
                let detail = format!("state serial changed, re-diffed {n} instance(s)");
                ("full", detail)
            }
            (false, _) => {
                let action = match visited {
                    0 => "cached",
                    _ => "incremental",
                };
                (action, format!("re-planned {visited}/{n} instance(s)"))
            }
        };
        PlanPass {
            text: render(&planned),
            changes: planned,
            visited,
            trace,
        }
    }

    /// **plan**, of a program the memo cannot index (modules, chunks the
    /// scanner cannot separate, a block cycle): the whole-graph diff, with
    /// no cache to fill.
    fn diffed(ctx: &PipelineCtx<'_>, manifest: &Manifest) -> PlanPass {
        let all = diff(manifest, ctx.state, ctx.catalog, ctx.data).into_iter();
        let changes: Vec<PlannedChange> = all.filter(|c| !c.action.is_noop()).collect();
        let n = manifest.instances.len();
        PlanPass {
            text: render(&changes),
            changes,
            visited: n,
            trace: ("full", format!("diffed {n} instance(s)")),
        }
    }

    /// [`Walk::plan`]'s pass, with the plan cache out of the memo it reads:
    /// how many instances it visited, and whether it visited every one.
    fn pass(
        ctx: &PipelineCtx<'_>,
        delta: Option<&[ResourceAddr]>,
        manifest: &Manifest,
        memo: &Memo,
        plan: &mut PlanCache,
        blocks: Option<&[BlockEdit]>,
    ) -> (usize, bool) {
        let instances = &manifest.instances;
        if blocks.is_none() {
            plan.set_order(dependency_order(manifest));
        }
        let (dag, ranges) = (&memo.dag, &memo.root.block_ranges);
        let block_of = |at: usize| ranges.partition_point(|span| span.end <= at);
        let PlanCache {
            serial,
            away,
            order,
            rank,
            changes,
            deletes,
        } = plan;
        // a mark is an instance's rank: the pass pops the smallest
        let mark = |marked: &mut BTreeSet<usize>, span: Range<usize>| {
            marked.extend(span.map(|at| rank[at]));
        };
        let mark_readers = |marked: &mut BTreeSet<usize>, block: usize| {
            for dependent in dag.successors(NodeId(block as u32)) {
                mark(marked, ranges[dependent.index()].clone());
            }
        };
        let reused = blocks.filter(|_| *serial == Some(ctx.state.serial));
        // `None`: every instance
        let mut marked: Option<BTreeSet<usize>> = reused.map(|blocks| {
            // the addresses a removed block leaves in the state are
            // deleted, the ones an inserted block declares no longer are
            for b in blocks.iter().filter(|b| b.removed()) {
                let left = b.before.iter().filter_map(|inst| ctx.state.get(&inst.addr));
                deletes.extend(left.map(|r| (r.addr.to_string(), delete_change(r))));
            }
            for inst in blocks
                .iter()
                .filter(|b| b.inserted())
                .flat_map(|b| &b.after)
            {
                deletes.remove(&inst.addr.to_string());
            }
            let mut marked = BTreeSet::new();
            for (at, _) in blocks.iter().filter_map(|b| b.now) {
                mark(&mut marked, ranges[at].clone());
            }
            for addr in away.iter().chain(delta.into_iter().flatten()) {
                let block = memo.block_holding(addr);
                if let Some(b) = block {
                    mark_readers(&mut marked, b);
                }
                match block.and_then(|b| instances.keyed(ranges[b].clone(), &addr.key)) {
                    Some(idx) => mark(&mut marked, idx..idx + 1),
                    // an address no instance has is a deletion exactly
                    // when the state holds it
                    None => match ctx.state.get(addr) {
                        Some(r) => drop(deletes.insert(addr.to_string(), delete_change(r))),
                        None => drop(deletes.remove(&addr.to_string())),
                    },
                }
            }
            marked
        });
        if marked.is_none() {
            // every instance is planned again
            *serial = Some(ctx.state.serial);
            away.clear();
            let all = delete_changes(manifest, ctx.state).into_iter();
            *deletes = all.map(|c| (c.addr.to_string(), c)).collect();
            changes.clear();
        }
        // An instance is dirty when its change creates or replaces it. Each
        // visit reads that off the changes as the visit before left them:
        // this pass's, or the run's that last planned them.
        let dirty_at = |changes: &BTreeMap<usize, PlannedChange>, at: usize| {
            changes.get(&at).is_some_and(PlannedChange::makes_dirty)
        };
        let (mut visited, mut next) = (0, 0);
        loop {
            let r = match &mut marked {
                None => next,
                Some(marked) => match marked.pop_first() {
                    // a mark behind the pass is one it has passed
                    Some(r) if r < next => continue,
                    Some(r) => r,
                    None => break,
                },
            };
            let Some(&idx) = order.get(r) else {
                break;
            };
            next = r + 1;
            visited += 1;
            let inst = instances.at(idx);
            let path = &inst.addr.module_path;
            let mut dep_dirty =
                |t: &Target| target_dirty(t, path, memo, instances, |at| dirty_at(changes, at));
            let change = plan_one(inst, ctx.state, ctx.catalog, ctx.data, &mut dep_dirty);
            let flips = dirty_at(changes, idx) != change.makes_dirty();
            if let (Some(marked), true) = (&mut marked, flips) {
                mark_readers(marked, block_of(idx));
            }
            match change.action.is_noop() {
                true => drop(changes.remove(&idx)),
                false => drop(changes.insert(idx, change)),
            }
        }
        // the addresses it owed are planned; a snapshot's own are owed
        *away = delta.map_or_else(Vec::new, <[_]>::to_vec);
        (visited, marked.is_none())
    }
}

/// What one plan pass hands the walk: the output's changes and text, how
/// many instances it visited, and its trace line.
struct PlanPass {
    changes: Vec<PlannedChange>,
    text: String,
    visited: usize,
    trace: (&'static str, String),
}

/// What the lint stage derives of the whole program: its environment,
/// whether no finding (or suppression) stands, and the blocks' identity
/// claims.
struct Linted {
    env: LintEnv,
    clean: bool,
    claims: Claims,
}

/// Source → program, or the refusal of a syntax error.
fn parse_program(source: &str) -> Result<Program, Stop> {
    let file = cloudless_hcl::parse(source, PROGRAM_FILE).map_err(PipelineError::Frontend)?;
    Ok(Program::from_file(file).map_err(PipelineError::Frontend)?)
}

/// The lint stage over every block (`cfg`: the gate, `None` when off):
/// refuse a program that fails the gate; collect the blocks' identity
/// claims.
fn lint_all(
    program: &Program,
    modules: &ModuleLibrary,
    cfg: Option<&LintConfig>,
) -> Result<Linted, PipelineError> {
    let env = LintEnv::build(program);
    let mut clean = true;
    if let Some(cfg) = cfg {
        let report = lint_program_in(program, modules, cfg, &env);
        if report.fails(cfg) {
            return Err(PipelineError::Lint(report));
        }
        clean = report.findings.is_empty() && report.suppressed == 0;
    }
    let mut claims = Claims::default();
    for rb in &program.resources {
        stage(&mut claims, identity_claims(rb, &env), 1);
    }
    Ok(Linted { env, clean, claims })
}

/// The validate stage over every instance: the report of a program it
/// passes.
fn validate_all(
    manifest: &Manifest,
    catalog: &Catalog,
    level: ValidationLevel,
    miner: Option<&SpecMiner>,
) -> Result<ValidationReport, PipelineError> {
    let mindex = ManifestIndex::build(manifest);
    let report = validate_indexed(manifest, &mindex, catalog, level, miner);
    if !report.ok() {
        return Err(PipelineError::Validation(report));
    }
    Ok(report)
}

/// Which of the blocks a splice inserted `earlier` is `rtype.name` (its
/// place among them), and the block.
fn staged<'a>(
    earlier: &'a [BlockEdit],
    rtype: &str,
    name: &str,
) -> Option<(usize, &'a BlockEdit, &'a ResourceBlock)> {
    let inserted = earlier.iter().filter(|b| b.inserted()).enumerate();
    let mut blocks = inserted.filter_map(|(k, b)| Some((k, b, b.new.as_ref()?)));
    blocks.find(|(.., rb)| rb.rtype == rtype && rb.name == name)
}

/// Parse one in-scope chunk where it sits in the file, so the block's spans
/// are the ones a parse of the whole source gives it; it must hold exactly
/// the resource block the chunk scanner read off its head.
fn parse_block(source: &str, chunk: &Chunk, filename: &str) -> Result<ResourceBlock, Stop> {
    let text = &source[chunk.start..chunk.end];
    let origin = SourcePos::new(chunk.line, 1, chunk.start as u32);
    let parsed = parse_at(text, filename, origin).and_then(Program::from_file);
    ensure(parsed.is_ok(), "a block in scope does not parse")?;
    let mut rest = parsed.unwrap_or_default();
    let block = rest.resources.pop();
    rest.filename.clear();
    ensure(
        rest == Program::default(),
        "a chunk in scope holds more than a resource block",
    )?;
    let block = block.filter(|rb| {
        matches!(&chunk.kind, ChunkKind::Resource { rtype, name }
            if *rtype == rb.rtype && *name == rb.name)
    });
    block.ok_or_else(|| Stop::Guard("a chunk in scope is not the block it is keyed as".to_owned()))
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
    /// table, the block DAG and the reader counts. `false` when the
    /// program's shape defeats a per-block splice (modules, chunks the
    /// scanner could not separate, a dependency cycle).
    fn index_source(&mut self, program: &Program, source: &str, ctx: &PipelineCtx<'_>) -> bool {
        let blocks = &program.resources;
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
        if !one_to_one || !program.modules.is_empty() {
            return false;
        }
        let names = blocks.iter().enumerate();
        let block_of: HashMap<(&str, &str), usize> = names
            .map(|(bi, rb)| ((rb.rtype.as_str(), rb.name.as_str()), bi))
            .collect();
        // `Program::from_file` refuses a block declared twice (HCL017)
        debug_assert_eq!(block_of.len(), blocks.len(), "a block is declared twice");

        let mut builder: DagBuilder<()> = DagBuilder::with_capacity(blocks.len());
        let nodes: Vec<NodeId> = blocks.iter().map(|_| builder.add_node(())).collect();
        for (bi, rb) in blocks.iter().enumerate() {
            let refs = block_refs(rb);
            for (rtype, name) in refs.block_targets() {
                let dep = block_of.get(&(rtype, name));
                let dep = dep.filter(|&&dep| dep != bi);
                if dep.is_some_and(|&dep| builder.add_edge(nodes[dep], nodes[bi]).is_err()) {
                    return false;
                }
            }
            stage(&mut self.claims, reader_claims(&refs), 1);
        }
        let Ok(dag) = builder.seal() else {
            return false;
        };
        let outer = outer_refs(program);
        stage(&mut self.claims, reader_claims(&outer), 1);
        for (rtype, name) in &outer.hazard_refs {
            self.outer.insert(rtype, name, ());
        }
        self.dag = dag;
        self.config = (ctx.lint, ctx.level, ctx.inputs.clone());
        self.specs = ctx.mined_specs().to_vec();
        self.source = source.to_owned();
        self.chunks = chunks;
        let names = blocks.iter().enumerate();
        let mut names: Vec<_> = names
            .map(|(b, rb)| (rb.rtype.as_str(), &rb.name, b))
            .collect();
        names.sort_unstable();
        self.by_name = names.into_iter().map(|(.., b)| b as u32).collect();
        true
    }

    /// Block `b`'s `(type, name)`.
    fn name_of(&self, b: usize) -> (&str, &str) {
        match &self.chunks.chunks[self.block_chunk[b]].kind {
            ChunkKind::Resource { rtype, name } => (rtype, name),
            ChunkKind::Other => ("", ""),
        }
    }

    /// The block declared as `rtype.name`, if one is.
    fn block_named(&self, rtype: &str, name: &str) -> Option<usize> {
        let at = (self.by_name).binary_search_by(|&b| self.name_of(b as usize).cmp(&(rtype, name)));
        at.ok().map(|at| self.by_name[at] as usize)
    }

    /// The block that declares `addr`, if one does: a memo holds the root
    /// module alone.
    fn block_holding(&self, addr: &ResourceAddr) -> Option<usize> {
        let root = addr.module_path.is_empty();
        (self.block_named(addr.rtype.as_str(), &addr.name)).filter(|_| root)
    }

    /// Whether `rtype.name` is a declared resource block once `decls` lands.
    fn declares(&self, decls: &DeclEdit, rtype: &str, name: &str) -> bool {
        decls.declares(|t, n| self.block_named(t, n).is_some(), rtype, name)
    }

    /// Read the blocks in scope off an edit window: chunks `old` of the
    /// memo's table were re-scanned into the window's. Walking the new
    /// window, each chunk either continues a chunk of the old one — the
    /// same `(type, name)`, further down than the last — or is an inserted
    /// block; the old chunks nothing continues are removed blocks. `Err`
    /// (why) when that is not the whole of the edit: a non-resource chunk
    /// changed, came or went, or blocks changed places.
    fn align(&self, window: &ChunkWindow) -> Result<Vec<BlockEdit>, &'static str> {
        const NON_RESOURCE: &str = "edit touches a non-resource block";
        const REORDERED: &str = "structural edit (blocks reordered or declared twice)";
        let resource = |chunk: &Chunk| chunk.kind != ChunkKind::Other;
        let old = &window.old;
        let was = &self.chunks.chunks[old.clone()];
        // where each block of the old window sits in it, built when the
        // first new chunk is not simply the next old one
        let mut seat_of: Option<HashMap<&ChunkKind, usize>> = None;
        let seats = || {
            let blocks = was.iter().enumerate().filter(|(_, chunk)| resource(chunk));
            blocks.map(|(i, chunk)| (&chunk.kind, i)).collect()
        };
        // as many blocks sit before the window in either source
        let first = self.block_chunk.partition_point(|&ci| ci < old.start);
        let (mut was_at, mut now_at) = (first, first);
        let mut blocks = Vec::new();
        // old chunks `was[..i]` are accounted for; the ones a new chunk
        // skips over are gone
        let mut i = 0;
        let skip_to = |k: usize, i: &mut usize, was_at: &mut usize, blocks: &mut Vec<_>| {
            for (ci, chunk) in was.iter().enumerate().take(k).skip(*i) {
                if !resource(chunk) {
                    return Err(NON_RESOURCE);
                }
                blocks.push(BlockEdit {
                    was: Some((*was_at, old.start + ci)),
                    at: *was_at,
                    ..BlockEdit::default()
                });
                *was_at += 1;
            }
            *i = k;
            Ok(())
        };
        for (ci, chunk) in window.chunks.iter().enumerate() {
            let now = Some((now_at, old.start + ci));
            let continues = if was.get(i).is_some_and(|next| next.kind == chunk.kind) {
                Some(i)
            } else if resource(chunk) {
                seat_of.get_or_insert_with(seats).get(&chunk.kind).copied()
            } else {
                (i..was.len()).find(|&k| !resource(&was[k]))
            };
            let Some(k) = continues else {
                if !resource(chunk) {
                    return Err(NON_RESOURCE);
                }
                blocks.push(BlockEdit {
                    now,
                    at: now_at,
                    ..BlockEdit::default()
                });
                now_at += 1;
                continue;
            };
            if k < i {
                return Err(REORDERED);
            }
            skip_to(k, &mut i, &mut was_at, &mut blocks)?;
            i += 1;
            let edited = was[k].hash != chunk.hash;
            if !resource(chunk) {
                if edited {
                    return Err(NON_RESOURCE);
                }
                continue;
            }
            if edited {
                blocks.push(BlockEdit {
                    was: Some((was_at, old.start + k)),
                    now,
                    at: now_at,
                    ..BlockEdit::default()
                });
            }
            was_at += 1;
            now_at += 1;
        }
        skip_to(was.len(), &mut i, &mut was_at, &mut blocks)?;
        Ok(blocks)
    }

    /// The addresses of block `rtype.name`'s instances, the block being one
    /// the splice inserted `earlier` or one of the memo's.
    fn addresses_of(&self, rtype: &str, name: &str, earlier: &[BlockEdit]) -> Vec<ResourceAddr> {
        match staged(earlier, rtype, name) {
            Some((_, b, _)) => (b.after.iter()).map(|inst| inst.addr.clone()).collect(),
            None => (self.positions(&[], rtype, name))
                .map(|at| self.manifest.instances.at(at).addr.clone())
                .collect(),
        }
    }

    /// What an inserted block whose references are `refs` depends on: blocks
    /// of the memo, or ones the splice inserted `earlier` — not itself and
    /// nothing inserted after it, so that nothing depends on a block before
    /// it is there and the block DAG gains no cycle (ANA401) — and none of
    /// them count-disabled (ANA403). `decls` is the whole of what the splice
    /// declares and retracts.
    fn dependencies(
        &self,
        refs: &BlockRefs,
        decls: &DeclEdit,
        earlier: &[BlockEdit],
    ) -> Result<Vec<Origin>, Stop> {
        let env = &self.lint_env;
        let mut deps = Vec::new();
        // (what names no block is nobody's edge)
        let names_block = |(t, n): &(&str, &str)| self.declares(decls, t, n);
        for (rtype, name) in refs.block_targets().filter(names_block) {
            let added = |(t, n): &(String, String)| t == rtype && n == name;
            let inserted = decls.added.iter().any(added);
            let (dep, disabled) = match self.block_named(rtype, name) {
                Some(at) if !inserted => {
                    let chunk = &self.chunks.chunks[self.block_chunk[at]];
                    let rb = parse_block(&self.source, chunk, &self.program.filename)?;
                    let at = NodeId(at as u32);
                    (Origin::Standing(at), env.count_folds_zero(&rb))
                }
                // (declared, and not the memo's: inserted)
                _ => {
                    let Some((k, _, rb)) = staged(earlier, rtype, name) else {
                        let reason = "structural edit (an inserted block depends on a later one)";
                        return Err(Stop::Guard(reason.to_owned()));
                    };
                    (Origin::Inserted(k), env.count_folds_zero(rb))
                }
            };
            ensure(!disabled, "structural edit (a count-disabled dependency)")?;
            deps.push(dep);
        }
        Ok(deps)
    }

    /// Make the positional tables those of the new source's blocks, before
    /// any of an inserted block's artifacts but its instances is there, and
    /// land the source `window`: the removed blocks' rows go, rows for the
    /// inserted ones come, and every block from the first of them on that
    /// changes position is renumbered. Integers and moves, and only of what
    /// moves: the blocks before the first inserted or removed one, and their
    /// instances, keep their rows, and the block DAG is spliced
    /// ([`Dag::splice`]), not sealed again. So an append or removal at the
    /// end of the program costs the edit (and a copy of the DAG's rows from
    /// the first block it reads), an insertion at the head every block. The
    /// edited blocks keep their rows (and their old instances, until the
    /// expand stage writes their new ones). Returns how many blocks it
    /// moved, inserted or removed.
    fn reshape(
        &mut self,
        blocks: &[BlockEdit],
        window: Option<ChunkWindow>,
        source: &str,
    ) -> Result<usize, Stop> {
        const GONE: usize = usize::MAX;
        let id = |b: &BlockEdit| NodeId(b.at as u32);
        let removed: Vec<NodeId> = blocks.iter().filter(|b| b.removed()).map(id).collect();
        let came: Vec<&BlockEdit> = blocks.iter().filter(|b| b.inserted()).collect();
        let inserted: Vec<NodeId> = came.iter().map(|b| id(b)).collect();
        let to = Renumbering::new(self.root.block_ranges.len(), &removed, &inserted);
        let to = to.map_err(|err| Stop::Guard(format!("structural edit ({err})")))?;
        let first = to.first();

        // the names that go leave the name order while they are the memo's
        for gone in &removed {
            let name = self.name_of(gone.index());
            let at = (self.by_name).binary_search_by(|&b| self.name_of(b as usize).cmp(&name));
            let at = at.map_err(|_| Stop::Guard("a removed block has no name".into()))?;
            self.by_name.remove(at);
        }
        // then the new source lands, and with it each block's chunk from
        // the window on
        if let Some(window) = window {
            let start = window.old.start;
            self.land(window, source);
            let kept = self.block_chunk.partition_point(|&ci| ci < start);
            self.block_chunk.truncate(kept);
            let chunks = self.chunks.chunks[start..].iter().enumerate();
            let resource = chunks.filter(|(_, chunk)| chunk.kind != ChunkKind::Other);
            self.block_chunk.extend(resource.map(|(ci, _)| start + ci));
        }

        // The blocks from `first` on, and their instances, as the new ones
        // line up.
        let ranges = self.root.block_ranges.split_off(first);
        let from = self.root.block_ranges.last().map_or(0, |span| span.end);
        let mut instance_to = vec![GONE; ranges.last().map_or(from, |span| span.end) - from];
        let (mut pieces, mut len) = (Vec::with_capacity(to.places().len()), from);
        for place in to.places() {
            let start = len;
            match *place {
                Origin::Standing(old) => {
                    let k = old.index() - first;
                    let span = ranges[k].clone();
                    for (i, at) in span.clone().enumerate() {
                        instance_to[at - from] = start + i;
                    }
                    len += span.len();
                    pieces.push(Piece::Kept(old.index(), span));
                }
                Origin::Inserted(k) => {
                    len += came[k].after.len();
                    pieces.push(Piece::New(&came[k].after));
                }
            }
            self.root.block_ranges.push(start..len);
        }
        (self.manifest.instances).regroup(first, from, pieces.into_iter());

        // the block DAG: each inserted block reads blocks of the memo and
        // ones inserted before it, so the splice's order check holds
        let reads = came.iter().map(|b| ((), &b.deps[..]));
        let dag = std::mem::take(&mut self.dag).splice(&to, reads);
        self.dag = dag.map_err(|err| Stop::Guard(format!("structural edit ({err})")))?;

        // The name order: what stays keeps its place (renumbered when it
        // moved), and what comes is put in its place by name.
        if to.moved() > 0 {
            for b in &mut self.by_name {
                *b = to.get(NodeId(*b)).map_or(*b, |moved| moved.0);
            }
        }
        for b in &came {
            let name = self.name_of(b.at);
            let at = (self.by_name).partition_point(|&k| self.name_of(k as usize) < name);
            self.by_name.insert(at, b.at as u32);
        }

        // The visiting order: what stays keeps its place in it, what went
        // leaves it, and what comes goes last — nothing depends on it. Only
        // the instances from `from` on have moved or gone.
        let PlanCache {
            order,
            rank,
            changes,
            ..
        } = &mut self.plan;
        debug_assert_eq!(order.len(), rank.len(), "the order covers the instances");
        let ranks = rank.split_off(from);
        let mut left = order.len();
        for (&r, &now) in ranks.iter().zip(&instance_to) {
            order[r] = now;
            if now == GONE {
                left = left.min(r);
            }
        }
        rank.resize(len, 0);
        for (&r, &now) in ranks.iter().zip(&instance_to) {
            if now != GONE {
                rank[now] = r;
            }
        }
        if left < order.len() {
            // close the gaps from the first: the ranks behind it move up
            let mut kept = left;
            for r in left..order.len() {
                let at = order[r];
                if at != GONE {
                    order[kept] = at;
                    rank[at] = kept;
                    kept += 1;
                }
            }
            order.truncate(kept);
        }
        for b in &came {
            for at in self.root.block_ranges[b.at].clone() {
                rank[at] = order.len();
                order.push(at);
            }
        }
        let moved = changes.split_off(&from).into_iter();
        let moved = moved.map(|(at, change)| (instance_to[at - from], change));
        changes.extend(moved.filter(|(at, _)| *at != GONE));
        Ok(to.renumbered())
    }

    /// Write one side of each edited block's instances — `after` for the
    /// expand stage's splice, `before` when a stopped walk puts them back —
    /// over the block's range of the memo's list, in place. A list a run's
    /// output still shares is copied once first
    /// ([`cloudless_hcl::Instances::make_mut`]).
    fn write_edited(
        &mut self,
        blocks: &[BlockEdit],
        side: fn(&BlockEdit) -> &[Arc<ResourceInstance>],
    ) {
        for b in blocks.iter().filter(|b| !b.inserted()) {
            if let Some((at, _)) = b.now {
                let span = self.root.block_ranges[at].clone();
                self.manifest.instances.write(span, side(b));
            }
        }
    }

    /// Land a splice's source window: the window's bytes, written in the
    /// buffer the memo owns (every byte outside it is the same in both
    /// sources), and its chunks. A reshape lands it itself, so that the
    /// blocks' names are the new source's.
    fn land(&mut self, window: ChunkWindow, source: &str) {
        let was = self.chunks.byte_range(window.old.clone());
        let now = was.start..was.end.wrapping_add_signed(window.shift);
        self.source.replace_range(was, &source[now]);
        self.chunks.splice(window);
    }

    /// Land the staged splice of a walk whose verdict stages all passed
    /// (its blocks stay behind for the plan stage).
    fn absorb(&mut self, edit: &mut Splice, source: &str) {
        if let Some(window) = edit.window.take() {
            self.land(window, source);
        }
        for (claim, by) in std::mem::take(&mut edit.claims).iter() {
            self.claims.hold(&claim, by);
        }
    }

    /// Approximate retained heap bytes — intentionally coarse, and read
    /// off the tables' lengths: no block is decoded to size it.
    fn approx_bytes(&self) -> usize {
        let mut total = self.source.len() * 2; // source + program text-ish
        total += self.chunks.approx_bytes();
        total += self.block_chunk.len() * 768;
        total += self.manifest.instances.len() * 480;
        total += self.claims.len() * 128;
        total += self.plan.order.len() * 16;
        total += (self.plan.changes.len() + self.plan.deletes.len()) * 512;
        total + self.image.as_ref().map_or(0, |image| image.len())
    }
}

impl Positions for Memo {
    /// The block's range of the instance list. (A memo holds the root module
    /// alone.)
    fn positions(&self, module_path: &[String], rtype: &str, name: &str) -> Range<usize> {
        let block = self
            .block_named(rtype, name)
            .filter(|_| module_path.is_empty());
        block.map_or(0..0, |b| self.root.block_ranges[b].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cloudless, Config};
    use cloudless_deploy::resolver::DataResolver;
    use cloudless_hcl::Instances;
    use cloudless_obs::NullRecorder;

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
        // the memo is sized while held, and nothing once dropped
        assert!(e.pipeline().approx_bytes() > 0);
        e.clear_pipeline_cache();
        assert_eq!(e.pipeline().approx_bytes(), 0);
    }

    #[test]
    fn structural_edit_splices_blocks_in_and_out() {
        let mut e = engine();
        e.plan_incremental(SRC).unwrap();
        let grown = format!("{SRC}resource \"aws_s3_bucket\" \"extra\" {{ bucket = \"extra\" }}\n");
        let (text, t) = e.plan_incremental(&grown).unwrap();
        assert!(t.fast_path, "an appended block must splice in:\n{t}");
        assert!(t.to_string().contains("+1 inserted, −0 removed"), "{t}");
        let (cold, _) = engine().plan_incremental(&grown).unwrap();
        assert_eq!(text, cold, "fast path must be byte-identical");

        // a block in the middle, reading one that stands: a rename is the
        // removal and the insertion at once
        let renamed = grown.replace("\"aws_subnet\" \"app\"", "\"aws_subnet\" \"web\"");
        let (text, t) = e.plan_incremental(&renamed).unwrap();
        assert!(t.fast_path, "a rename must splice:\n{t}");
        assert!(t.to_string().contains("+1 inserted, −1 removed"), "{t}");
        let (cold, _) = engine().plan_incremental(&renamed).unwrap();
        assert_eq!(text, cold);

        // and out again: back to the text the first memo was built from
        let (text, t) = e
            .plan_incremental(&renamed.replace("\"web\"", "\"app\""))
            .unwrap();
        assert!(t.fast_path, "{t}");
        assert_eq!(text, cold.replace("aws_subnet.web", "aws_subnet.app"));
        let (text, t) = e.plan_incremental(SRC).unwrap();
        assert!(t.fast_path, "a removed block must splice out:\n{t}");
        let (cold, _) = engine().plan_incremental(SRC).unwrap();
        assert_eq!(text, cold);
    }

    #[test]
    fn removing_a_block_something_reads_falls_back_cold() {
        let mut e = engine();
        e.plan_incremental(SRC).unwrap();
        // the subnet still reads the VPC: the cold walk says so exactly
        let at = SRC.find("resource \"aws_subnet\"").unwrap();
        let headless = format!(
            "{}{}",
            &SRC[..SRC.find("resource \"aws_vpc\"").unwrap()],
            &SRC[at..]
        );
        let warm = e.plan_incremental(&headless).err().map(|e| e.to_string());
        let cold = engine()
            .plan_incremental(&headless)
            .err()
            .map(|e| e.to_string());
        assert!(
            warm.as_deref().is_some_and(|e| e.contains("ANA103")),
            "{warm:?}"
        );
        assert_eq!(warm, cold);
        // refused by lint: the memo stands, and the fix splices
        let (_, t) = e.plan_incremental(SRC).unwrap();
        assert!(t.fast_path, "{t}");
        // the bucket is the only reader of `var.region`
        let unread = &SRC[..SRC.find("resource \"aws_s3_bucket\"").unwrap()];
        let (text, t) = e.plan_incremental(unread).unwrap();
        let reason = t.fallback_reason.clone().unwrap_or_default();
        assert!(reason.contains("Var(\"region\")"), "{t}");
        let (cold, _) = engine().plan_incremental(unread).unwrap();
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

    /// Run `f` with a context over the standard catalog and an empty state.
    fn with_ctx(f: impl FnOnce(&PipelineCtx<'_>)) {
        with_state(&Snapshot::new(), f);
    }

    fn with_state(state: &Snapshot, f: impl FnOnce(&PipelineCtx<'_>)) {
        let (inputs, modules) = (BTreeMap::new(), ModuleLibrary::new());
        let (data, catalog) = (DataResolver::new(), Catalog::standard());
        let recorder = Arc::new(NullRecorder) as Arc<dyn Recorder>;
        f(&PipelineCtx {
            inputs: &inputs,
            modules: &modules,
            lint: LintGate::default(),
            level: ValidationLevel::CloudRules,
            data: &data,
            catalog: &catalog,
            state,
            miner: None,
            recorder: &recorder,
        });
    }

    /// What the plan stage of `out` says it visited.
    fn replanned(out: &FrontendOutput) -> &str {
        replanned_in(&out.trace)
    }

    fn replanned_in(trace: &ChangeTrace) -> &str {
        let plan = trace.stages.iter().find(|s| s.stage == "plan");
        plan.map_or("", |s| s.detail.as_str())
    }

    /// A run with an edit over a snapshot nobody committed splices: it
    /// plans the edit's cone and the snapshot's delta, and owes the delta
    /// to the next run against the committed state, which plans as cold.
    #[test]
    fn a_run_over_a_snapshot_splices_the_edit_and_owes_the_delta() {
        let src = format!(
            "{SRC}resource \"aws_s3_bucket\" \"media\" {{ bucket = \"media\" }}\n\
             resource \"aws_s3_bucket\" \"docs\" {{ bucket = \"docs\" }}\n"
        );
        let mut e = engine();
        e.converge(&src).unwrap();
        let committed = e.state().clone();
        let mut drifted = committed.clone();
        let mut media = drifted.get_str("aws_s3_bucket.media").unwrap().clone();
        media.attrs.insert("bucket".into(), Value::from("moved"));
        let delta = [media.addr.clone()];
        drifted.put(media);
        let edited = src.replace("logs-${var.region}", "logs-v2-${var.region}");
        let mut pipeline = IncrementalPipeline::default();
        with_state(&committed, |ctx| drop(pipeline.run(&src, ctx).unwrap()));
        with_state(&drifted, |ctx| {
            let over = pipeline.run_over(&edited, ctx, Some(&delta)).unwrap();
            assert!(over.trace.fast_path, "{}", over.trace);
            assert_eq!(replanned(&over), "re-planned 2/5 instance(s)");
            let cold = IncrementalPipeline::default().run(&edited, ctx).unwrap();
            assert_eq!(over.plan_text, cold.plan_text);
        });
        with_state(&committed, |ctx| {
            let warm = pipeline.run(&edited, ctx).unwrap();
            assert_eq!(replanned(&warm), "re-planned 1/5 instance(s)");
            let cold = IncrementalPipeline::default().run(&edited, ctx).unwrap();
            assert_eq!(warm.plan_text, cold.plan_text);
        });
    }

    /// A commit moves the store past the image beside the log. A cache of
    /// the serial the commit started from follows it, so the engine
    /// checkpoints at once; one of another serial does not. A checkpoint
    /// writes once for each place the store stands: a plan after the apply
    /// that wrote the image writes nothing.
    #[test]
    fn a_checkpoint_writes_once_where_the_store_stands() {
        with_ctx(|ctx| {
            let mut pipeline = IncrementalPipeline::default();
            drop(pipeline.run(SRC, ctx).unwrap());
            let serial = ctx.state.serial;
            let none = std::iter::empty::<Result<ResourceAddr, String>>();
            assert!(!pipeline.committed(serial + 1, none.clone(), ctx));
            assert!(pipeline.committed(serial, none, ctx));
        });
        let device = cloudless_state::MemDevice::new().imaged(None);
        let (store, _) = cloudless_state::LogStore::open_device(Box::new(device)).unwrap();
        let config = Config {
            recorder: cloudless_obs::FlightRecorder::shared(16),
            ..Config::default()
        };
        let mut e = Cloudless::with_store(config, store, BTreeMap::new());
        let writes = |e: &Cloudless| e.metrics().unwrap().counter("pipeline.memo_image_writes");
        let edited = SRC.replace("10.0.1.0/24", "10.0.2.0/24");
        e.plan(SRC, &[]).unwrap();
        assert_eq!(writes(&e), 1, "no image stood beside the log");
        assert!(e.converge(SRC).unwrap().apply.all_ok());
        assert_eq!(writes(&e), 2, "the commit moved the store");
        e.plan(SRC, &[]).unwrap();
        e.plan(&edited, &[]).unwrap();
        assert_eq!(writes(&e), 2, "the image stands where the store does");
        assert!(e.converge(&edited).unwrap().apply.all_ok());
        assert_eq!(writes(&e), 3);
    }

    /// A block with no instance is found by its name like any other: a
    /// block inserted after it may read it, and a commit that deletes the
    /// last address it held settles its readers, not every instance. Each
    /// plan is a cold one's.
    #[test]
    fn a_block_with_no_instance_is_read_through_its_block() {
        let spare = |keys: &str| {
            format!(
                "{SRC}resource \"aws_s3_bucket\" \"spare\" {{\n  for_each = [{keys}]\n  \
                 bucket   = \"spare-${{each.key}}\"\n}}\n"
            )
        };
        let reader = "resource \"aws_s3_bucket\" \"late\" {\n  bucket     = \"late\"\n  \
                      depends_on = [aws_s3_bucket.spare]\n}\n";
        let (empty, read) = (spare(""), format!("{}{reader}", spare("")));
        let mut e = engine();
        e.plan_incremental(&empty).unwrap();
        let (text, t) = e.plan_incremental(&read).unwrap();
        assert!(t.fast_path, "the reader must splice in:\n{t}");
        assert!(t.to_string().contains("+1 inserted, −0 removed"), "{t}");
        assert_eq!(text, engine().plan_incremental(&read).unwrap().0);

        let mut e = Cloudless::new(Config {
            recorder: cloudless_obs::FlightRecorder::shared(16),
            ..Config::default()
        });
        let settled = |e: &Cloudless| {
            let metrics = e.metrics().expect("a flight recorder keeps metrics");
            metrics.counter("pipeline.instances_settled")
        };
        let held = format!("{}{reader}", spare("\"a\""));
        assert!(e.converge(&held).unwrap().apply.all_ok());
        let before = settled(&e);
        assert!(e.converge(&read).unwrap().apply.all_ok());
        let settled = settled(&e) - before;
        assert_eq!(settled, 1, "the deletion settles its reader alone");
        let (text, t) = e.plan_incremental(&read).unwrap();
        assert!(t.fast_path, "{t}");
        assert_eq!(replanned_in(&t), "re-planned 0/4 instance(s)");
        with_state(e.state(), |ctx| {
            let cold = IncrementalPipeline::default().run(&read, ctx).unwrap();
            assert_eq!(text, cold.plan_text);
        });
    }

    /// The memo's instance list.
    fn memo_list(pipeline: &IncrementalPipeline) -> &Instances {
        &pipeline.memo.as_deref().expect("a memo").manifest.instances
    }

    #[test]
    fn a_warm_output_shares_the_memo_list_and_a_held_one_keeps_its_own() {
        let cidr = |out: &FrontendOutput| {
            let mut instances = out.manifest.instances.iter();
            let subnet = instances.find(|inst| inst.addr.rtype.as_str() == "aws_subnet");
            subnet.and_then(|inst| inst.attrs.get("cidr_block").cloned())
        };
        with_ctx(|ctx| {
            let mut pipeline = IncrementalPipeline::default();
            let cold = pipeline.run(SRC, ctx).unwrap();
            assert!(Instances::ptr_eq(
                &cold.manifest.instances,
                memo_list(&pipeline)
            ));
            drop(cold);
            let first = SRC.replace("10.0.1.0/24", "10.0.2.0/24");
            let held = pipeline.run(&first, ctx).unwrap();
            assert!(held.trace.fast_path, "{}", held.trace);
            assert!(Instances::ptr_eq(
                &held.manifest.instances,
                memo_list(&pipeline)
            ));

            // the next splice writes a list of its own, once, and the held
            // output still reads the instances it was handed
            let second = SRC.replace("10.0.1.0/24", "10.0.3.0/24");
            let next = pipeline.run(&second, ctx).unwrap();
            assert!(next.trace.fast_path, "{}", next.trace);
            assert!(!Instances::ptr_eq(
                &held.manifest.instances,
                memo_list(&pipeline)
            ));
            assert!(Instances::ptr_eq(
                &next.manifest.instances,
                memo_list(&pipeline)
            ));
            assert_eq!(cidr(&held), Some(Value::from("10.0.2.0/24")));
            assert_eq!(cidr(&next), Some(Value::from("10.0.3.0/24")));
            let cold = IncrementalPipeline::default().run(&first, ctx).unwrap();
            assert_eq!(
                format!("{:?}", held.manifest),
                format!("{:?}", cold.manifest)
            );
        });
    }

    #[test]
    fn a_splice_stopped_past_expand_puts_the_memo_instances_back() {
        let media = "resource \"aws_s3_bucket\" \"media\" {\n  count  = 2\n  bucket = \"media-${count.index}-${var.region}\"\n}\n";
        let base = format!("{SRC}{media}");
        let stops = [
            // VAL304: the subnet leaves its network
            (
                base.replace("10.0.1.0/24", "10.1.1.0/24"),
                "validation findings",
            ),
            // ANA502: two buckets of one name, one of them known only once
            // `count.index` is
            (base.replace("logs-", "media-1-"), "Instance("),
        ];
        for (stopped, at) in stops {
            with_ctx(|ctx| {
                let mut pipeline = IncrementalPipeline::default();
                drop(pipeline.run(&base, ctx).unwrap());
                let before = memo_list(&pipeline).to_vec();
                let mut scope = Scope::pick(pipeline.memo.take(), &stopped, ctx);
                let verdicts = Walk::new(&stopped, ctx, None).verdicts(&mut scope);
                let Err(Stop::Guard(reason)) = verdicts else {
                    panic!("the splice must stop at a guard");
                };
                assert!(reason.contains(at), "{reason}");
                pipeline.memo = scope.into_memo();
                let list = memo_list(&pipeline);
                assert_eq!(list.len(), before.len());
                assert!(list.iter().zip(&before).all(|(a, b)| Arc::ptr_eq(a, b)));

                let next = base.replace("logs-${var.region}", "logs-v2-${var.region}");
                let warm = pipeline.run(&next, ctx).unwrap();
                assert!(warm.trace.fast_path, "{}", warm.trace);
                let cold = IncrementalPipeline::default().run(&next, ctx).unwrap();
                assert_eq!(warm.plan_text, cold.plan_text);
            });
        }
    }
}
