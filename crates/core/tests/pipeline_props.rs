//! Cache-correctness properties for the incremental converge pipeline.
//!
//! The memoized pipeline promises that a warm replan after an arbitrary
//! single edit is *observably identical* to running the whole front end
//! cold on the edited source: byte-identical plan text, the same expanded
//! instances, the same non-NoOp changes, and — when the edit introduces an
//! error — the same diagnostic codes at the same stage. These properties
//! drive random programs through random edits (including edits that break
//! parsing, validation, or lint) against both an empty and a converged
//! state and compare the warm pipeline against a cold one on every step.
//! Structural edits are edits like any other: blocks inserted (alone, on
//! top of an existing block, two at once with one reading the other),
//! deleted (a leaf, a block others read, the only reader of a variable),
//! renamed, swapped, and deleted and then re-added against the state that
//! still holds them. A chain family runs against the *deployed* state of
//! programs whose blocks read each other's computed attributes through four
//! levels, `count` and `for_each` among them: there whether a block is
//! replaced is an input of every plan downstream, a force-new edit cascades
//! and its undo cascades back, and the warm plan stage — which visits a
//! dependent only when that flag flips — must neither miss one nor leave
//! the static cone of the edit. A miner-active family does the same under a
//! [`SpecMiner`] that has observed a deployment, with edits that break its
//! conventions and further observations that change them. An engine family
//! reopens a converged store in a fresh engine that starts from the memo
//! image its predecessor checkpointed, and holds every plan, refusal, state
//! and cloud it leaves to a fresh engine's without the image; and holds the
//! plan cache a commit settles — after an apply that fails part-way under
//! injected faults, and after a refresh of out-of-band drift — to a cold
//! engine's, in the engine that committed and from the image it wrote.
//!
//! On a host with two cores every all-blocks run joins (lint beside
//! expand, validate and analyze beside the plan; `cloudless_types::join`),
//! while a splice runs on one thread: the two are held to each other. The
//! cold reference is a fresh pipeline per run.

use std::collections::BTreeMap;
use std::sync::Arc;

use cloudless::cloud::{Catalog, Cloud, CloudConfig, FaultPlan, ResourceRecord};
use cloudless::deploy::diff::render;
use cloudless::deploy::resolver::DataResolver;
use cloudless::deploy::{diff, Executor, Plan, PlannedChange, Strategy};
use cloudless::hcl::program::{expand, ModuleLibrary, Program};
use cloudless::obs::{NullRecorder, Recorder};
use cloudless::pipeline::{FrontendOutput, IncrementalPipeline, PipelineCtx, PipelineError};
use cloudless::state::{LogStore, MemDevice, Snapshot};
use cloudless::types::{Attrs, ResourceId, Value};
use cloudless::validate::{SpecMiner, ValidationLevel};
use cloudless::{Cloudless, Config, LintGate};
use proptest::prelude::*;

/// Everything a `PipelineCtx` borrows, owned in one place so tests can
/// build contexts against different states without lifetime gymnastics.
struct Env {
    catalog: Catalog,
    data: DataResolver,
    inputs: BTreeMap<String, Value>,
    modules: ModuleLibrary,
    recorder: Arc<dyn Recorder>,
}

impl Env {
    fn new() -> Env {
        Env {
            catalog: Catalog::standard(),
            data: DataResolver::new(),
            inputs: BTreeMap::new(),
            modules: ModuleLibrary::new(),
            recorder: Arc::new(NullRecorder),
        }
    }

    /// Standard catalog with quotas raised out of the way (scale programs
    /// exceed per-type defaults on purpose; VAL307 would reject them).
    fn with_raised_quotas() -> Env {
        let mut env = Env::new();
        let raised: Vec<_> = env.catalog.iter().cloned().collect();
        for mut schema in raised {
            schema.default_quota = 1_000_000;
            env.catalog.add(schema);
        }
        env
    }

    fn ctx<'a>(&'a self, state: &'a Snapshot) -> PipelineCtx<'a> {
        PipelineCtx {
            inputs: &self.inputs,
            modules: &self.modules,
            lint: LintGate::default(),
            level: ValidationLevel::CloudRules,
            data: &self.data,
            catalog: &self.catalog,
            state,
            miner: None,
            recorder: &self.recorder,
        }
    }

    fn ctx_mined<'a>(&'a self, state: &'a Snapshot, miner: &'a SpecMiner) -> PipelineCtx<'a> {
        PipelineCtx {
            miner: Some(miner),
            ..self.ctx(state)
        }
    }
}

// ---------------------------------------------------------------- programs

/// Catalog-legal block shapes: (rtype, required attr). Values are unique
/// per block so the base program is always clean.
const TYPES: [(&str, &str); 4] = [
    ("aws_s3_bucket", "bucket"),
    ("aws_security_group", "name"),
    ("aws_virtual_machine", "name"),
    ("aws_network_interface", "name"),
];

/// One generated block: a type index and whether it depends on an earlier
/// block (target derived deterministically from the index).
type Spec = Vec<(usize, bool)>;

/// The generated blocks `b0..`, then a variable and the one block that
/// reads it.
fn base_source(spec: &Spec) -> String {
    let mut out = String::new();
    for (i, (t, dep)) in spec.iter().enumerate() {
        let (rtype, attr) = TYPES[t % TYPES.len()];
        out.push_str(&format!(
            "resource \"{rtype}\" \"b{i}\" {{\n  {attr} = \"v-{i}\"\n"
        ));
        if *dep && i > 0 {
            let target = (t + i) % i;
            out.push_str(&format!("  depends_on = [{}]\n", addr(spec, target)));
        }
        out.push_str("}\n");
    }
    out.push_str("variable \"suffix\" {\n  default = \"s\"\n}\n");
    out.push_str(&leaf("reader", "v-${var.suffix}", ""));
    out
}

/// `type.name` of generated block `i`.
fn addr(spec: &Spec, i: usize) -> String {
    format!("{}.b{i}", TYPES[spec[i].0 % TYPES.len()].0)
}

/// A bucket block the generator never emits, reading `dep` if not empty.
fn leaf(name: &str, value: &str, dep: &str) -> String {
    let dep = match dep {
        "" => String::new(),
        dep => format!("  depends_on = [{dep}]\n"),
    };
    format!("resource \"aws_s3_bucket\" \"{name}\" {{\n  bucket = \"{value}\"\n{dep}}}\n")
}

/// The value token of block `i` — includes both quotes, so `v-1` never
/// matches inside `v-10`.
fn token(i: usize) -> String {
    format!("\"v-{i}\"")
}

/// Where block `name` sits in `src`, closing line included.
fn span_of(src: &str, name: &str) -> Option<std::ops::Range<usize>> {
    let label = src.find(&format!("\"{name}\" {{"))?;
    let start = src[..label].rfind("resource ")?;
    let end = start + src[start..].find("}\n")? + 2;
    Some(start..end)
}

/// `src` with `text` in place of block `name` (as it is when there is no
/// such block).
fn replace_block(src: &str, name: &str, text: &str) -> String {
    match span_of(src, name) {
        Some(span) => format!("{}{text}{}", &src[..span.start], &src[span.end..]),
        None => src.to_string(),
    }
}

/// The number of edit shapes [`apply_edit`] knows.
const KINDS: usize = 20;

/// A single edit, chosen by `kind`; `a`/`b` are free block selectors
/// (reduced mod the program length). Every shape is exercised: in-place
/// value edits, structural edits (blocks spliced in and out, and the shapes
/// that still fall back), and edits that introduce parse / lint /
/// validation / duplicate-value errors.
fn apply_edit(src: &str, spec: &Spec, kind: usize, a: usize, b: usize) -> String {
    let n = spec.len();
    let i = a % n;
    let block = |name: &str| span_of(src, name).map(|span| &src[span]);
    let own = block(&format!("b{i}")).unwrap_or("");
    match kind % KINDS {
        // touch one attribute value: the canonical O(edit) replan
        0 => src.replacen(&token(i), &format!("\"v-{i}-t\""), 1),
        // rewrite a block body: value change plus new comment lines
        1 => src.replacen(
            &token(i),
            &format!("\"v-{i}-r\"\n  # rewritten\n  # twice"),
            1,
        ),
        // append a block
        2 => format!("{src}{}", leaf("extra", "v-extra", "")),
        // drop the last generated block: nothing reads it
        3 if n > 1 => replace_block(src, &format!("b{}", n - 1), ""),
        // give block i a dependency on block 0 (skip if it has one, or is
        // block 0 itself — degrade to a value touch)
        4 => {
            if i == 0 || spec[i].1 {
                src.replacen(&token(i), &format!("\"v-{i}-t\""), 1)
            } else {
                src.replacen(
                    &token(i),
                    &format!("\"v-{i}\"\n  depends_on = [{}]", addr(spec, 0)),
                    1,
                )
            }
        }
        // introduce an attribute the schema does not know: validation error
        5 => src.replacen(&token(i), &format!("\"v-{i}\"\n  not_a_real_attr = 1"), 1),
        // break the parse: drop the final closing brace
        6 => match src.rfind('}') {
            Some(at) => format!("{}{}", &src[..at], &src[at + 1..]),
            None => src.to_string(),
        },
        // clone another block's value: duplicate-identity diagnostics
        7 => src.replacen(&token(i), &token(b % n), 1),
        // insert a block mid-file
        9 => replace_block(
            src,
            &format!("b{i}"),
            &format!("{}{own}", leaf("mid", "v-mid", "")),
        ),
        // insert a block that reads an existing one, right after it
        10 => {
            let reader = leaf("over", "v-over", &addr(spec, i));
            replace_block(src, &format!("b{i}"), &format!("{own}{reader}"))
        }
        // insert two blocks, the second reading the first …
        11 => {
            let pair = [
                leaf("one", "v-one", ""),
                leaf("two", "v-two", "aws_s3_bucket.one"),
            ];
            replace_block(src, &format!("b{i}"), &format!("{}{own}", pair.concat()))
        }
        // … and the first reading the second
        12 => {
            let pair = [
                leaf("one", "v-one", "aws_s3_bucket.two"),
                leaf("two", "v-two", ""),
            ];
            replace_block(src, &format!("b{i}"), &format!("{}{own}", pair.concat()))
        }
        // delete block i, a leaf or not (13); its re-add is the follow-up of
        // 14 (as it was) and 15 (touched)
        13..=15 => replace_block(src, &format!("b{i}"), ""),
        // rename block i, read or not
        16 => src.replacen(&format!("\"b{i}\" {{"), &format!("\"b{i}x\" {{"), 1),
        // swap block i with the one after it
        17 => match block(&format!("b{}", i + 1)) {
            Some(next) => {
                let gap = replace_block(src, &format!("b{}", i + 1), "");
                replace_block(&gap, &format!("b{i}"), &format!("{next}{own}"))
            }
            None => src.to_string(),
        },
        // remove the only reader of the variable
        18 => replace_block(src, "reader", ""),
        // an inserted block that is declared already
        19 => format!("{src}{own}"),
        // no-op edit: identical source must replan to the identical plan
        _ => src.to_string(),
    }
}

/// The save after `edited`: the deleted block back as it was or touched
/// (against a converged state it is still there: no change, an update),
/// else a plain value touch on a different block.
fn follow_up(base: &str, edited: &str, spec: &Spec, kind: usize, a: usize, b: usize) -> String {
    match kind % KINDS {
        14 => base.to_string(),
        15 => apply_edit(base, spec, 0, a, b),
        _ => apply_edit(edited, spec, 0, a + 1, b),
    }
}

// ------------------------------------------------------------- comparison

/// Project a pipeline result onto everything externally observable. Spans
/// are not part of it: the fast path parses an in-scope chunk at its place
/// in the file, so the blocks a splice re-derives carry a cold run's spans
/// by construction, and a block the edit left alone keeps the ones it was
/// parsed with — which nothing shows: every position a user sees comes from
/// a cold run (`pipeline_driver.rs` holds the engine to that).
fn observe(result: Result<FrontendOutput, PipelineError>) -> Result<(String, String), String> {
    result.as_ref().map(shape).map_err(error_key)
}

/// A cold run: a fresh pipeline per run, so nothing is spliced.
fn cold_run(source: &str, ctx: &PipelineCtx<'_>) -> Result<FrontendOutput, PipelineError> {
    IncrementalPipeline::default().run(source, ctx)
}

/// What [`observe`] sees of an output that came back.
fn shape(out: &FrontendOutput) -> (String, String) {
    let mut shape = String::new();
    for inst in &out.manifest.instances {
        shape.push_str(&format!(
            "{} attrs={:?} deps={:?} deferred={}\n",
            inst.addr,
            inst.attrs,
            inst.depends_on,
            inst.deferred.len()
        ));
    }
    for c in &out.changes {
        if !c.action.is_noop() {
            shape.push_str(&format!("{} {:?}\n", c.addr, c.action));
        }
    }
    // a run that reports anything went cold, so spans are exact
    shape.push_str(&out.validation.diagnostics.to_string());
    (out.plan_text.clone(), shape)
}

/// The stage an error surfaced at plus its diagnostic codes, in order.
fn error_key(err: &PipelineError) -> String {
    match err {
        PipelineError::Frontend(diags) => {
            let codes: Vec<_> = diags.iter().map(|d| d.code.clone()).collect();
            format!("frontend:{codes:?}")
        }
        PipelineError::Lint(report) => {
            let codes: Vec<_> = report
                .findings
                .iter()
                .map(|f| f.diagnostic.code.clone())
                .collect();
            format!("lint:{codes:?}")
        }
        PipelineError::Validation(validation) => {
            let codes: Vec<_> = validation
                .diagnostics
                .iter()
                .map(|d| d.code.clone())
                .collect();
            format!("validation:{codes:?}")
        }
    }
}

/// Deploy the base program through the simulator and return the converged
/// state (the realistic `cloudless watch` regime: replans are near-zero
/// diff).
fn converged_state(src: &str, env: &Env) -> Snapshot {
    let empty = Snapshot::new();
    let out = IncrementalPipeline::default()
        .run(src, &env.ctx(&empty))
        .expect("generated base program is clean");
    let mut state = Snapshot::new();
    let mut cloud = Cloud::new(CloudConfig::exact(), 7);
    let plan = Plan::build(
        diff(&out.manifest, &state, &env.catalog, &env.data),
        &state,
        &env.catalog,
    );
    let exec = Executor::new(Strategy::Sequential, &env.data);
    let report = exec.apply(&plan, &mut cloud, &mut state);
    assert!(report.all_ok(), "base deploy failed: {:?}", report.errors());
    state
}

/// A cold run of `source` against `state`, whose plan — when it plans — is
/// the one `deploy::diff` renders for its manifest, no-ops dropped.
fn cold_as_diffed(env: &Env, state: &Snapshot, source: &str) -> Result<(String, String), String> {
    let cold = cold_run(source, &env.ctx(state));
    if let Ok(out) = &cold {
        let all = diff(&out.manifest, state, &env.catalog, &env.data);
        let changes: Vec<PlannedChange> = all.into_iter().filter(|c| !c.action.is_noop()).collect();
        assert_eq!(
            out.plan_text,
            render(&changes),
            "the cold plan is not diff's"
        );
    }
    observe(cold)
}

/// The core differential check: against `state`, a warm pipeline that saw
/// `base` must produce the same observation for `edited` (and then for a
/// follow-up edit) as a cold pipeline seeing each source fresh, which plans
/// what `deploy::diff` plans.
fn check_against_state(env: &Env, state: &Snapshot, base: &str, edited: &str, followup: &str) {
    let ctx = env.ctx(state);
    let mut warm = IncrementalPipeline::default();
    warm.run(base, &ctx).expect("base program is clean");
    assert!(warm.is_warm(), "clean base must be memo-eligible");

    let warm_obs = observe(warm.run(edited, &ctx));
    let cold_obs = cold_as_diffed(env, state, edited);
    assert_eq!(warm_obs, cold_obs, "warm replan diverged on the edit");

    // a second edit on top exercises the spliced memo (after an error the
    // memo is dropped and this replays cold — still must agree)
    let warm_obs = observe(warm.run(followup, &ctx));
    let cold_obs = cold_as_diffed(env, state, followup);
    assert_eq!(warm_obs, cold_obs, "warm replan diverged on the follow-up");
}

proptest! {
    /// Random program, random single edit (possibly error-introducing,
    /// possibly structural, possibly a no-op): the warm incremental result
    /// equals the cold result against both an empty and a converged state.
    #[test]
    fn incremental_replan_matches_cold_pipeline(
        spec in proptest::collection::vec((0..TYPES.len(), any::<bool>()), 2..10),
        kind in 0..KINDS,
        a in 0..32usize,
        b in 0..32usize,
    ) {
        let env = Env::new();
        let base = base_source(&spec);
        let edited = apply_edit(&base, &spec, kind, a, b);
        let followup = follow_up(&base, &edited, &spec, kind, a, b);

        let empty = Snapshot::new();
        check_against_state(&env, &empty, &base, &edited, &followup);

        let converged = converged_state(&base, &env);
        check_against_state(&env, &converged, &base, &edited, &followup);
    }
}

// ------------------------------------------------------- corrupted saves

/// Block `name` of `src` corrupted by one byte, the way a save mid-typing
/// is: with `newline`, a raw newline put inside one of its quoted strings,
/// else one of its quotes, braces or brackets dropped. `at` picks which.
fn corrupt(src: &str, name: &str, newline: bool, at: usize) -> String {
    let span = span_of(src, name).expect("a generated block");
    let bytes = &src.as_bytes()[span.clone()];
    let quotes = bytes.iter().enumerate().filter(|(_, &c)| c == b'"');
    let quotes: Vec<usize> = quotes.map(|(i, _)| span.start + i).collect();
    let spots: Vec<usize> = if newline {
        // the bytes inside a string, its closing quote included
        let strings = quotes
            .chunks(2)
            .filter_map(|pair| pair.get(1).map(|&end| pair[0] + 1..=end));
        strings.flatten().collect()
    } else {
        let dropped = bytes
            .iter()
            .enumerate()
            .filter(|(_, c)| b"\"{}[]".contains(c));
        dropped.map(|(i, _)| span.start + i).collect()
    };
    let i = spots[at % spots.len()];
    match newline {
        true => format!("{}\n{}", &src[..i], &src[i..]),
        false => format!("{}{}", &src[..i], &src[i + 1..]),
    }
}

/// A refusal as a user sees it, spans and all: the diagnostics rendered and
/// debugged, a later stage's report debugged.
fn refusal_bytes(err: &PipelineError) -> String {
    match err {
        PipelineError::Frontend(diags) => format!("{diags}\n{diags:?}"),
        other => format!("{other:?}"),
    }
}

proptest! {
    /// A clean warm run, then one block corrupted by a byte: the save is
    /// refused with what a cold run refuses it with, byte for byte (or, where
    /// the corruption still reads, planned as a cold run plans it), and the
    /// clean source again replans from the memo the refusal left, as a cold
    /// run does.
    #[test]
    fn a_corrupted_save_is_refused_as_a_cold_run_refuses_it(
        spec in proptest::collection::vec((0..TYPES.len(), any::<bool>()), 2..10),
        block in 0..12usize,
        newline in any::<bool>(),
        at in 0..64usize,
        deployed in any::<bool>(),
    ) {
        let env = Env::new();
        let base = base_source(&spec);
        let name = match block % (spec.len() + 1) {
            i if i < spec.len() => format!("b{i}"),
            _ => "reader".to_owned(),
        };
        let saved = corrupt(&base, &name, newline, at);
        let state = if deployed { converged_state(&base, &env) } else { Snapshot::new() };
        let ctx = env.ctx(&state);
        let mut warm = IncrementalPipeline::default();
        warm.run(&base, &ctx).expect("the base is clean");

        let (got, cold) = (warm.run(&saved, &ctx), cold_run(&saved, &ctx));
        let unread = matches!(got, Err(PipelineError::Frontend(_)));
        match (&got, &cold) {
            (Err(got), Err(cold)) => prop_assert_eq!(refusal_bytes(got), refusal_bytes(cold)),
            _ => prop_assert_eq!(observe(got), observe(cold), "{:?}", saved),
        }
        let fixed = warm.run(&base, &ctx);
        if unread {
            // the memo waited for the fix
            let trace = fixed.as_ref().map(|out| out.trace.to_string());
            prop_assert!(fixed.as_ref().is_ok_and(|out| out.trace.fast_path), "{:?}", trace);
        }
        prop_assert_eq!(observe(fixed), observe(cold_run(&base, &ctx)));
    }
}

/// Guards that the differential property is not vacuous: on the generated
/// program shape, a value touch and every structural shape the splice
/// carries take the fast path (so the proptest above really compares
/// incremental against cold) with byte-identical text, against an empty and
/// a converged state, while the shapes it does not carry still fall back —
/// saying why — or return the cold run's error.
#[test]
fn generated_edits_exercise_both_paths() {
    let env = Env::new();
    // b1 and b2 read b0; b3 is a leaf
    let spec: Spec = vec![(0, false), (1, true), (2, true), (3, false)];
    let base = base_source(&spec);
    let touched = apply_edit(&base, &spec, 0, 2, 0);
    let cold = |source: &str, state: &Snapshot| observe(cold_run(source, &env.ctx(state)));

    // (kind, block, on the fast path, what the fallback reason names)
    let shapes = [
        (2, 0, true, ""),
        (3, 0, true, ""),
        (9, 1, true, ""),
        (10, 1, true, ""),
        (11, 2, true, ""),
        (12, 2, false, "structural"),
        (13, 3, true, ""),
        (14, 3, true, ""),
        (15, 3, true, ""),
        (16, 3, true, ""),
        (17, 1, false, "structural"),
        (18, 0, false, "Var(\"suffix\")"),
    ];
    for state in [Snapshot::new(), converged_state(&base, &env)] {
        let ctx = env.ctx(&state);
        for (kind, a, fast, why) in shapes {
            let mut warm = IncrementalPipeline::default();
            warm.run(&base, &ctx).expect("base is clean");
            let out = warm.run(&touched, &ctx).expect("touch stays clean");
            assert!(out.trace.fast_path, "value touch must replan incrementally");

            let edited = apply_edit(&touched, &spec, kind, a, 0);
            let out = warm.run(&edited, &ctx).expect("edit stays clean");
            let trace = out.trace.clone();
            assert_eq!(trace.fast_path, fast, "kind {kind}:\n{trace}");
            let reason = trace.fallback_reason.unwrap_or_default();
            assert!(reason.contains(why), "kind {kind}: {reason}");
            assert_eq!(observe(Ok(out)), cold(&edited, &state), "kind {kind}");

            // the memo the edit left behind carries the next one
            let next = follow_up(&touched, &edited, &spec, kind, a, 0);
            let out = warm.run(&next, &ctx).expect("follow-up stays clean");
            assert!(out.trace.fast_path || !fast, "kind {kind}:\n{}", out.trace);
            let text = out.plan_text.clone();
            assert_eq!(
                observe(Ok(out)),
                cold(&next, &state),
                "kind {kind} follow-up"
            );
            if (kind, state.is_empty()) == (14, false) {
                assert!(text.contains("0 to add"), "re-added, not created: {text}");
            }
        }

        // a block others read cannot go or change its name, and a block
        // cannot be declared twice: the cold run's error, from the cold run
        for (kind, a, stage) in [(13, 0, "lint"), (16, 0, "lint"), (19, 3, "frontend")] {
            let mut warm = IncrementalPipeline::default();
            warm.run(&base, &ctx).expect("base is clean");
            let edited = apply_edit(&base, &spec, kind, a, 0);
            let refused = observe(warm.run(&edited, &ctx));
            let key = refused.clone().expect_err("refused");
            assert!(key.starts_with(stage), "kind {kind}: {key}");
            assert_eq!(refused, cold(&edited, &state), "kind {kind}");
            // refused by parse or lint: the memo stands, the fix splices
            let out = warm.run(&base, &ctx).expect("base is clean");
            assert!(out.trace.fast_path, "kind {kind}:\n{}", out.trace);
        }
    }
}

// ------------------------------------------------------- streams of saves

/// One block of a program that changes shape save after save: its label
/// stays with it wherever it moves.
#[derive(Clone)]
struct Node {
    label: String,
    /// 0: a network interface; 1: a VM whose `nic_ids` read one (a deferred
    /// attribute); 2: a bucket that `depends_on` one.
    kind: usize,
    rev: usize,
    /// Instances; above 1 the block has a `count`.
    count: usize,
    /// The interface it reads, by label.
    reads: Option<String>,
    /// 1: tags read `var.suffix`; 2: tags read `local.tag`.
    tags: usize,
}

fn render_nodes(nodes: &[Node]) -> String {
    let mut out =
        String::from("variable \"suffix\" {\n  default = \"s\"\n}\nlocals {\n  tag = \"t\"\n}\n");
    for node in nodes {
        let Node { label, rev, .. } = node;
        let (rtype, attr) = [
            ("aws_network_interface", "name"),
            ("aws_virtual_machine", "name"),
            ("aws_s3_bucket", "bucket"),
        ][node.kind];
        out.push_str(&format!("resource \"{rtype}\" \"{label}\" {{\n"));
        let each = match node.count {
            0 | 1 => "",
            count => {
                out.push_str(&format!("  count = {count}\n"));
                "-${count.index}"
            }
        };
        out.push_str(&format!("  {attr} = \"x-{label}-{rev}{each}\"\n"));
        match (node.kind, &node.reads) {
            (1, Some(nic)) => {
                out.push_str(&format!("  nic_ids = [aws_network_interface.{nic}.id]\n"))
            }
            (_, Some(nic)) => {
                out.push_str(&format!("  depends_on = [aws_network_interface.{nic}]\n"))
            }
            (_, None) => {}
        }
        match node.tags {
            1 => out.push_str("  tags = { t = var.suffix }\n"),
            2 => out.push_str("  tags = { t = local.tag }\n"),
            _ => {}
        }
        out.push_str("}\n");
    }
    // both declarations keep a reader whatever happens to the blocks
    out.push_str("output \"o\" {\n  value = \"${var.suffix}-${local.tag}\"\n}\n");
    out
}

/// One save: `nodes` edited in place. `serial` names what it inserts.
fn edit_nodes(nodes: &mut Vec<Node>, serial: usize, kind: usize, a: usize, b: usize) {
    let at = a % (nodes.len() + 1);
    let i = a % nodes.len().max(1);
    // the first of two neighbours
    let pair = i.min(nodes.len().saturating_sub(2));
    let nics: Vec<String> = (nodes.iter().filter(|n| n.kind == 0))
        .map(|n| n.label.clone())
        .collect();
    let a_nic = (!nics.is_empty()).then(|| nics[b % nics.len().max(1)].clone());
    let node = |label: String, kind: usize, reads: Option<String>| Node {
        label,
        kind,
        rev: 0,
        // (a counted interface has no one `id` to read)
        count: if kind == 0 { 1 } else { [1, 1, 2, 3][b % 4] },
        reads,
        tags: (a + b) % 3,
    };
    match kind % 12 {
        // a body edit
        0 if !nodes.is_empty() => nodes[i].rev += 1,
        // blocks in: an interface, a VM over an interface that stands, a
        // bucket after one
        1 => nodes.insert(at, node(format!("n{serial}"), 0, None)),
        2 => nodes.insert(at, node(format!("v{serial}"), 1, a_nic)),
        3 => nodes.insert(at, node(format!("k{serial}"), 2, a_nic)),
        // an interface and the VM over it at once, in either order
        4 | 5 => {
            let nic = node(format!("n{serial}"), 0, None);
            let vm = node(format!("v{serial}"), 1, Some(nic.label.clone()));
            let both = if kind % 12 == 4 { [nic, vm] } else { [vm, nic] };
            nodes.splice(at..at, both);
        }
        // blocks out: one, or two neighbours
        6 if !nodes.is_empty() => drop(nodes.remove(i)),
        7 if nodes.len() > 1 => drop(nodes.drain(pair..pair + 2)),
        // a rename (its readers keep the old name)
        8 if !nodes.is_empty() => nodes[i].label.push('r'),
        // a different instance count, another reader of the variable, the
        // next block first
        9 if nodes.get(i).is_some_and(|n| n.kind != 0) => {
            nodes[i].count = 1 + (nodes[i].count + b) % 3;
        }
        10 if !nodes.is_empty() => nodes[i].tags = b % 3,
        11 if nodes.len() > 1 => nodes.swap(pair, pair + 1),
        _ => {}
    }
}

proptest! {
    /// One warm pipeline follows a stream of saves — bodies edited, blocks
    /// inserted, deleted, renamed, resized and swapped, some of them refused
    /// and then undone — and agrees with a cold pipeline on every one of
    /// them, against an empty state and against the converged state of where
    /// the stream started (so blocks go, come back, and are still there) —
    /// with the lint gate on, and with it off, when expansion and validation
    /// are all that refuses a dangling reference. The output of the last
    /// save that planned is held across each next one, which writes the
    /// instance list it shares with the memo: it reads what it read.
    #[test]
    fn a_stream_of_saves_matches_cold_pipelines(
        start in proptest::collection::vec((0..12usize, 0..32usize, 0..32usize), 0..6),
        saves in proptest::collection::vec((0..12usize, 0..32usize, 0..32usize), 1..10),
        gated in any::<bool>(),
    ) {
        let env = Env::new();
        let lint = if gated { LintGate::default() } else { LintGate::Off };
        fn gate<'a>(lint: LintGate, ctx: PipelineCtx<'a>) -> PipelineCtx<'a> {
            PipelineCtx { lint, ..ctx }
        }
        let mut nodes = vec![Node {
            label: "n".to_owned(),
            kind: 0,
            rev: 0,
            count: 1,
            reads: None,
            tags: 1,
        }];
        let empty = Snapshot::new();
        // a clean program to start from: grown by the same edits, the ones
        // a cold run refuses or finds fault with undone
        for (serial, (kind, a, b)) in start.into_iter().enumerate() {
            let before = nodes.clone();
            edit_nodes(&mut nodes, serial, kind, a, b);
            let mut probe = IncrementalPipeline::default();
            if probe.run(&render_nodes(&nodes), &gate(lint, env.ctx(&empty))).is_err() || !probe.is_warm() {
                nodes = before;
            }
        }
        let base = render_nodes(&nodes);
        for state in [Snapshot::new(), converged_state(&base, &env)] {
            let ctx = gate(lint, env.ctx(&state));
            let mut nodes = nodes.clone();
            let mut warm = IncrementalPipeline::default();
            let start = warm.run(&base, &ctx).expect("the start is clean");
            prop_assert!(warm.is_warm());
            let mut held = (shape(&start), start);
            for (serial, &(kind, a, b)) in saves.iter().enumerate() {
                let before = nodes.clone();
                edit_nodes(&mut nodes, 100 + serial, kind, a, b);
                let source = render_nodes(&nodes);
                let out = warm.run(&source, &ctx);
                let warm_obs = out.as_ref().map(shape).map_err(error_key);
                prop_assert_eq!(&warm_obs, &observe(cold_run(&source, &ctx)), "save {}", serial);
                prop_assert_eq!(&shape(&held.1), &held.0, "held across save {}", serial);
                match out {
                    Ok(out) => held = (warm_obs.unwrap_or_default(), out),
                    Err(_) => nodes = before, // the user takes it back with the next save
                }
            }
        }
    }
}

// ------------------------------------------ chains of computed attributes

/// The resource type of each level of a chain, and the attribute through
/// which a block reads the `id` of one a level up: a VPC, subnets in it,
/// interfaces in those, VMs on those. `vpc_id` and `subnet_id` force a new
/// resource, `nic_ids` updates in place.
const LEVELS: [(&str, &str); 4] = [
    ("aws_vpc", ""),
    ("aws_subnet", "vpc_id"),
    ("aws_network_interface", "subnet_id"),
    ("aws_virtual_machine", "nic_ids"),
];

/// One block of a program whose blocks read each other's computed
/// attributes level by level, so that whether a block is replaced is an
/// input of the plan of every block downstream of it.
#[derive(Clone, PartialEq)]
struct Link {
    /// Names the block (`l<id>`) and numbers a subnet's address range.
    id: usize,
    /// Index into [`LEVELS`].
    level: usize,
    /// The block one level up it reads, by id — one without a `count`: a
    /// counted block has no one `id` to read (VAL206).
    reads: Option<usize>,
    /// Instances: above 1 the block has a `count`, or, with `each`, a
    /// `for_each` over as many keys.
    count: usize,
    each: bool,
    /// Revision of its own force-new attribute (a VPC's and a subnet's
    /// `cidr_block`); 0 is what is deployed.
    forced: usize,
    /// Revision of its `name`, which updates in place.
    touched: usize,
}

fn render_links(links: &[Link]) -> String {
    let mut out = String::new();
    for link in links {
        let Link { id, touched, .. } = link;
        let (rtype, reads_through) = LEVELS[link.level];
        out.push_str(&format!("resource \"{rtype}\" \"l{id}\" {{\n"));
        let (index, dash) = match (link.count, link.each) {
            (0 | 1, _) => ("", ""),
            (count, false) => {
                out.push_str(&format!("  count = {count}\n"));
                ("${count.index}", "-")
            }
            (count, true) => {
                let keys: Vec<String> = (0..count).map(|k| format!("\"{k}\"")).collect();
                out.push_str(&format!("  for_each = [{}]\n", keys.join(", ")));
                ("${each.key}", "-")
            }
        };
        out.push_str(&format!("  name = \"x-l{id}-{touched}{dash}{index}\"\n"));
        if let Some(up) = link.reads {
            let (up_type, _) = LEVELS[link.level - 1];
            let id = format!("{up_type}.l{up}.id");
            let value = if link.level == 3 {
                format!("[{id}]")
            } else {
                id
            };
            out.push_str(&format!("  {reads_through} = {value}\n"));
        }
        match link.level {
            // every range holds every subnet below, whichever revision
            0 => out.push_str(&format!(
                "  cidr_block = \"10.0.0.0/{}\"\n",
                15 - link.forced
            )),
            1 => {
                let index = if index.is_empty() { "0" } else { index };
                let (second, third) = (link.forced, format!("{id}{index}"));
                out.push_str(&format!("  cidr_block = \"10.{second}.{third}.0/24\"\n"));
            }
            _ => {}
        }
        out.push_str("}\n");
    }
    out
}

/// One save: `links` edited in place; `serial` numbers what it inserts.
fn edit_links(links: &mut Vec<Link>, serial: usize, kind: usize, a: usize, b: usize) {
    let i = a % links.len().max(1);
    let link = |level: usize, reads: Option<usize>| Link {
        id: serial,
        level,
        reads,
        // a VPC is one; a counted subnet has digits for three
        count: if level == 0 { 1 } else { [1, 1, 2, 3][b % 4] },
        each: level == 3 && b % 8 >= 4,
        forced: 0,
        touched: 0,
    };
    match kind % 8 {
        // the force-new attribute of a VPC or a subnet: its next revision,
        // and, two or three of these later, the deployed one again
        0 | 1 if links.get(i).is_some_and(|l| l.level < 2) => {
            links[i].forced = (links[i].forced + 1) % (3 - links[i].level);
        }
        // … and straight back
        2 if !links.is_empty() => links[i].forced = 0,
        // an attribute that updates in place
        0..=3 if !links.is_empty() => links[i].touched += 1,
        // a block in, anywhere in the file, reading one a level up
        4 | 5 => {
            let level = b % LEVELS.len();
            let ups = (links.iter()).filter(|l| l.level + 1 == level && l.count == 1);
            let ups: Vec<usize> = ups.map(|l| l.id).collect();
            match (level, ups.is_empty()) {
                (0, _) => links.insert(a % (links.len() + 1), link(0, None)),
                (_, false) => {
                    let reads = Some(ups[a % ups.len()]);
                    links.insert(a % (links.len() + 1), link(level, reads));
                }
                (_, true) => {}
            }
        }
        // a block out, read or not
        6 if !links.is_empty() => drop(links.remove(i)),
        _ => {}
    }
}

/// `k` and `n` of a run's `plan: … (re-planned k/n instance(s))`; `None`
/// when the plan stage visited every instance.
fn replanned(out: &FrontendOutput) -> Option<(usize, usize)> {
    let plan = out.trace.stages.iter().find(|s| s.stage == "plan")?;
    let counts = plan.detail.strip_prefix("re-planned ")?;
    let (k, n) = counts.strip_suffix(" instance(s)")?.split_once('/')?;
    Some((k.parse().ok()?, n.parse().ok()?))
}

/// How many instances the static cone of `edited` holds — the blocks with
/// those ids and everything downstream of them (`ImpactScope`, what ANA505
/// reports): the most a warm plan stage may visit.
fn cone_instances(links: &[Link], edited: &[usize]) -> usize {
    use cloudless::graph::{DagBuilder, ImpactScope};
    let mut builder: DagBuilder<usize> = DagBuilder::with_capacity(links.len());
    let nodes: Vec<_> = links
        .iter()
        .map(|l| builder.add_node(l.count.max(1)))
        .collect();
    let node_of = |id: usize| links.iter().position(|l| l.id == id).map(|at| nodes[at]);
    for (link, &node) in links.iter().zip(&nodes) {
        if let Some(up) = link.reads.and_then(node_of) {
            builder
                .add_edge(up, node)
                .expect("levels only read upwards");
        }
    }
    let dag = builder.seal().expect("levels only read upwards");
    let cone = ImpactScope::compute(&dag, edited.iter().filter_map(|&id| node_of(id)));
    cone.replan.iter().map(|&node| *dag.node(node)).sum()
}

/// The ids of the blocks of `after` that `before` does not hold as they are.
fn edited_links(before: &[Link], after: &[Link]) -> Vec<usize> {
    let edited = after.iter().filter(|l| !before.contains(l));
    edited.map(|l| l.id).collect()
}

/// A chain of four levels, counted and keyed blocks among them, deployed:
/// `l0` ← `l1` ← `l2` ← `l3` (×3, `for_each`), with a counted subnet `l4`
/// (×2) off the VPC and a counted interface `l5` (×2) off the subnet.
fn deployed_chain() -> Vec<Link> {
    let link = |id, level, reads, count, each| Link {
        id,
        level,
        reads,
        count,
        each,
        forced: 0,
        touched: 0,
    };
    vec![
        link(0, 0, None, 1, false),
        link(1, 1, Some(0), 1, false),
        link(2, 2, Some(1), 1, false),
        link(3, 3, Some(2), 3, true),
        link(4, 1, Some(0), 2, false),
        link(5, 2, Some(1), 2, false),
    ]
}

/// The cutoff, both sides of it, on a chain deployed as written: a force-new
/// edit at the top replaces or updates every block below it (each sees its
/// dependency's attributes turn unknown) and taking it back restores them
/// all; an in-place edit at the top re-plans the top and nothing else. Warm
/// equals cold on each, and the plan stage never leaves the static cone.
#[test]
fn a_force_new_edit_cascades_down_a_chain_and_back() {
    let env = Env::new();
    let base = deployed_chain();
    let state = converged_state(&render_links(&base), &env);
    let ctx = env.ctx(&state);
    let mut warm = IncrementalPipeline::default();
    warm.run(&render_links(&base), &ctx)
        .expect("the chain is clean");
    assert!(warm.is_warm());

    let mut links = base.clone();
    let mut save = |links: &[Link], edited: &[usize]| {
        let source = render_links(links);
        let out = warm.run(&source, &ctx).expect("the save is clean");
        assert!(out.trace.fast_path, "{}", out.trace);
        let (k, n) = replanned(&out).expect("a warm plan stage");
        assert_eq!(n, links.iter().map(|l| l.count).sum::<usize>());
        assert!(k <= cone_instances(links, edited), "{}", out.trace);
        let text = out.plan_text.clone();
        assert_eq!(observe(Ok(out)), observe(cold_run(&source, &ctx)));
        (k, text)
    };

    // the VPC's range: everything downstream is replaced or updated
    links[0].forced = 1;
    let (k, text) = save(&links, &[0]);
    assert_eq!(k, 10, "the whole chain is visited:\n{text}");
    for replaced in ["aws_vpc.l0", "aws_subnet.l1", "aws_subnet.l4[1]"] {
        assert!(text.contains(&format!("-/+ {replaced}\n")), "{text}");
    }
    let unknown = "(known after apply)";
    for reader in [
        format!("-/+ aws_network_interface.l5[1]\n      subnet_id = {unknown}"),
        format!("  ~ aws_virtual_machine.l3[\"2\"]\n      nic_ids = {unknown}"),
    ] {
        assert!(text.contains(&reader), "{text}");
    }
    let all = "Plan: 7 to add, 3 to change, 7 to destroy.";
    assert!(text.contains(all), "{text}");

    // an in-place edit on top of it flips nothing: one visit
    links[0].touched = 1;
    let (k, text) = save(&links, &[0]);
    assert_eq!(k, 1, "{text}");
    assert!(text.contains(all), "{text}");

    // a block in and a block out, downstream of a replaced one
    links.push(Link {
        id: 6,
        level: 3,
        reads: Some(2),
        count: 2,
        each: false,
        forced: 0,
        touched: 0,
    });
    let (k, text) = save(&links, &[6]);
    assert_eq!(k, 2, "{text}");
    assert!(text.contains("Plan: 9 to add, 3 to change, 7 to destroy."));
    links.pop();
    let (k, _) = save(&links, &[]);
    assert_eq!(k, 0);

    // the range back as deployed: the cascade runs the other way
    links[0].forced = 0;
    let (k, text) = save(&links, &[0]);
    assert_eq!(k, 10, "{text}");
    assert!(text.contains("Plan: 0 to add, 1 to change, 0 to destroy."));
    links[0].touched = 0;
    let (k, text) = save(&links, &[0]);
    assert_eq!(k, 1, "{text}");
    assert!(text.contains("Plan: 0 to add, 0 to change, 0 to destroy."));

    // mid-chain: a subnet's range replaces it and what reads it, not the VPC
    links[1].forced = 1;
    let (k, text) = save(&links, &[1]);
    assert_eq!(k, 7, "{text}");
    assert!(text.contains("Plan: 4 to add, 3 to change, 4 to destroy."));
}

proptest! {
    /// One warm pipeline follows a stream of saves over a deployed program
    /// whose blocks read each other's computed attributes through four
    /// levels — force-new edits that cascade, the same taken back, in-place
    /// edits that stop where they are made, blocks inserted and removed
    /// (some saves refused, and undone) — and agrees with a cold pipeline on
    /// every one while its plan stage stays inside the static cone of what
    /// the save edited.
    #[test]
    fn a_stream_of_saves_over_a_chain_matches_cold_pipelines(
        start in proptest::collection::vec((4..6usize, 0..32usize, 0..32usize), 0..6),
        saves in proptest::collection::vec((0..8usize, 0..32usize, 0..32usize), 1..12),
    ) {
        let env = Env::new();
        let empty = Snapshot::new();
        // the chain, grown by insertions the front end accepts
        let mut links = deployed_chain();
        for (serial, (kind, a, b)) in start.into_iter().enumerate() {
            let before = links.clone();
            edit_links(&mut links, 10 + serial, kind, a, b);
            let mut probe = IncrementalPipeline::default();
            if probe.run(&render_links(&links), &env.ctx(&empty)).is_err() || !probe.is_warm() {
                links = before;
            }
        }
        let base = render_links(&links);
        let state = converged_state(&base, &env);
        let ctx = env.ctx(&state);
        let mut warm = IncrementalPipeline::default();
        warm.run(&base, &ctx).expect("the start is clean");
        prop_assert!(warm.is_warm());
        for (serial, &(kind, a, b)) in saves.iter().enumerate() {
            let before = links.clone();
            edit_links(&mut links, 16 + serial, kind, a, b);
            let source = render_links(&links);
            let out = warm.run(&source, &ctx);
            if let Some((k, _)) = out.as_ref().ok().and_then(replanned) {
                let cone = cone_instances(&links, &edited_links(&before, &links));
                prop_assert!(k <= cone, "save {}: re-planned {} of a cone of {}", serial, k, cone);
            }
            let warm_obs = observe(out);
            prop_assert_eq!(&warm_obs, &observe(cold_run(&source, &ctx)), "save {}", serial);
            if warm_obs.is_err() {
                links = before; // the user takes it back with the next save
            }
        }
    }
}

// ------------------------------------------------ a fresh engine, warm

/// The cloud's records, as a session keeps them.
type Records = BTreeMap<ResourceId, ResourceRecord>;

/// A fresh engine over the log, the image and the cloud `engine` leaves:
/// the next process.
fn reopened(engine: Cloudless) -> Cloudless {
    let records = engine.cloud().export_records().clone();
    let mut device = engine.into_store().into_device();
    let (log, image) = (
        device.read_all().expect("log"),
        device.read_image().expect("image"),
    );
    engine_over(MemDevice::from_bytes(log).imaged(image), &records)
}

/// An engine over the log in `device`, applying to a cloud of `records`:
/// what a fresh process opens.
fn engine_over(device: MemDevice, records: &Records) -> Cloudless {
    let (store, _) = LogStore::open_device(Box::new(device)).expect("the log opens");
    let config = Config {
        cloud: CloudConfig::exact(),
        ..Config::default()
    };
    Cloudless::with_store(config, store, records.clone())
}

/// What a user sees of one apply: its plan, the state and the cloud it
/// leaves — or its refusal.
fn applied(engine: &mut Cloudless, source: &str) -> Result<(String, String, String), String> {
    let out = engine.converge(source).map_err(|e| e.to_string())?;
    let records = serde_json::to_string(engine.cloud().export_records());
    let records = records.expect("records render");
    Ok((out.plan_text, engine.state().to_json(), records))
}

/// The base of an image case, its edit and the save after it: a generated
/// program and one of [`apply_edit`]'s edits (values, blocks in and out,
/// refusals), or a chain of computed attributes — `count`, `for_each` and
/// deferred attributes among them — and one of [`edit_links`]'.
fn image_case(chain: bool, spec: &Spec, kind: usize, a: usize, b: usize) -> [String; 3] {
    if chain {
        let mut links = deployed_chain();
        let base = render_links(&links);
        edit_links(&mut links, 10, kind, a, b);
        let edited = render_links(&links);
        edit_links(&mut links, 11, kind + 1, a + 1, b);
        [base, edited, render_links(&links)]
    } else {
        let base = base_source(spec);
        let edited = apply_edit(&base, spec, kind, a, b);
        let next = follow_up(&base, &edited, spec, kind, a, b);
        [base, edited, next]
    }
}

proptest! {
    /// An engine converges a program and checkpoints its memo beside the
    /// log. A fresh engine opens that log and image and makes an edit —
    /// an attribute, blocks in and out, a refused save — and the save after
    /// it: it plans, applies, refuses and leaves the state and the cloud
    /// byte for byte as a fresh engine without the image does. Its first run
    /// takes the image and plans the edit alone, after a rollback of the
    /// state too: the rollback settles the plan cache before the image is
    /// written. When a fresh engine that has made no run rolls the state
    /// back, no memo follows the commit and the image is of another serial:
    /// the first run plans every instance. The image it writes in turn,
    /// which copies the frames its saves did not reach, warms a third engine
    /// that plans as cold.
    #[test]
    fn a_fresh_engine_warm_from_its_image_matches_a_cold_one(
        spec in proptest::collection::vec((0..TYPES.len(), any::<bool>()), 2..8),
        chain in any::<bool>(),
        kind in 0..KINDS,
        a in 0..32usize,
        b in 0..32usize,
        rolled in 0..3usize,
    ) {
        let [base, edited, next] = image_case(chain, &spec, kind, a, b);
        let mut first = engine_over(MemDevice::new().imaged(None), &Records::new());
        first.converge(&base).expect("the base is clean");
        let mut stale = false;
        if rolled > 0 {
            let [_, touched, _] = image_case(chain, &spec, 0, a + 2, b);
            let _ = first.converge(&touched);
            if rolled == 2 {
                first = reopened(first);
            }
            let rolled_back = first.rollback_state(1).expect("serial 1 is committed").is_some();
            stale = rolled == 2 && rolled_back;
        }
        let records = first.cloud().export_records().clone();
        let mut device = first.into_store().into_device();
        let (log, image) = (device.read_all().expect("log"), device.read_image().expect("image"));
        prop_assert!(image.is_some(), "a commit checkpoints the memo");
        let mut warm = engine_over(MemDevice::from_bytes(log.clone()).imaged(image), &records);
        let mut cold = engine_over(MemDevice::from_bytes(log), &records);

        let planned = warm.plan_incremental(&edited).map_err(|e| e.to_string());
        let cold_plan = cold.plan_incremental(&edited).map_err(|e| e.to_string());
        prop_assert_eq!(
            planned.as_ref().map(|(text, _)| text),
            cold_plan.as_ref().map(|(text, _)| text)
        );
        if let Ok((_, trace)) = &planned {
            let trace = trace.to_string();
            prop_assert!(trace.contains("image: loaded"), "{}", trace);
            let plans = if stale { "plans every instance" } else { "plans the edit" };
            prop_assert!(trace.contains(plans), "{}", trace);
        }
        prop_assert_eq!(applied(&mut warm, &edited), applied(&mut cold, &edited));
        prop_assert_eq!(applied(&mut warm, &next), applied(&mut cold, &next));

        // the image the warm engine wrote — the frames of blocks no save
        // reached copied from the one it loaded — warms a third engine
        let records = warm.cloud().export_records().clone();
        let mut device = warm.into_store().into_device();
        let (log, image) = (device.read_all().expect("log"), device.read_image().expect("image"));
        let mut third = engine_over(MemDevice::from_bytes(log.clone()).imaged(image), &records);
        let mut cold = engine_over(MemDevice::from_bytes(log), &records);
        for source in [&base, &edited] {
            let planned = third.plan_incremental(source).map_err(|e| e.to_string());
            let cold_plan = cold.plan_incremental(source).map_err(|e| e.to_string());
            prop_assert_eq!(
                planned.as_ref().map(|(text, _)| text),
                cold_plan.as_ref().map(|(text, _)| text)
            );
        }
    }
}

/// `engine`, which has just committed, plans `base` from the cache the
/// commit settled — visiting no instance — as a cold engine over the log it
/// leaves plans it; a fresh engine warm from the image it wrote plans
/// `base` and then `edited` as cold. The log, the image and the cloud.
fn settled_as_cold(
    mut engine: Cloudless,
    base: &str,
    edited: &str,
) -> (Vec<u8>, Option<Vec<u8>>, Records) {
    let held = engine.plan_incremental(base).map_err(|e| e.to_string());
    let records = engine.cloud().export_records().clone();
    let mut device = engine.into_store().into_device();
    let (log, image) = (
        device.read_all().expect("log"),
        device.read_image().expect("image"),
    );
    assert!(image.is_some(), "a commit checkpoints the memo");
    let cold = |source: &str| {
        let mut cold = engine_over(MemDevice::from_bytes(log.clone()), &records);
        cold.plan_incremental(source)
            .map(|(text, _)| text)
            .map_err(|e| e.to_string())
    };
    if let Ok((_, trace)) = &held {
        assert!(trace.to_string().contains("plan: cached"), "{}", trace);
    }
    assert_eq!(held.map(|(text, _)| text), cold(base));
    let mut fresh = engine_over(
        MemDevice::from_bytes(log.clone()).imaged(image.clone()),
        &records,
    );
    for source in [base, edited] {
        let planned = fresh.plan_incremental(source).map(|(text, _)| text);
        assert_eq!(planned.map_err(|e| e.to_string()), cold(source));
    }
    (log, image, records)
}

proptest! {
    /// Every commit settles the plan cache before the image is written. An
    /// apply under injected faults that may fail part-way, then — in a
    /// fresh engine warm from its image — a refresh that folds an
    /// out-of-band update and deletion in, and a rollback of the state to
    /// the base after an apply of the edit: after each, the next plans are
    /// a cold engine's, in the engine that committed and in a fresh one warm
    /// from the image it wrote.
    #[test]
    fn a_settled_commit_plans_as_cold(
        spec in proptest::collection::vec((0..TYPES.len(), any::<bool>()), 2..8),
        chain in any::<bool>(),
        kind in 0..KINDS,
        a in 0..32usize,
        b in 0..32usize,
        seed in 0..64u64,
    ) {
        let [base, edited, _] = image_case(chain, &spec, kind, a, b);
        let (store, _) = LogStore::open_device(Box::new(MemDevice::new().imaged(None)))
            .expect("the log opens");
        let faults = FaultPlan {
            transient_failure_rate: 0.8,
            ..FaultPlan::none()
        };
        let config = Config {
            cloud: CloudConfig { faults, ..CloudConfig::exact() },
            seed,
            ..Config::default()
        };
        let mut faulty = Cloudless::with_store(config, store, Records::new());
        faulty.converge(&base).expect("the base is clean");
        let (log, image, records) = settled_as_cold(faulty, &base, &edited);

        let mut engine = engine_over(MemDevice::from_bytes(log).imaged(image), &records);
        let _ = engine.plan_incremental(&base);
        let ids: Vec<ResourceId> = engine.state().resources().values().map(|r| r.id.clone()).collect();
        if !ids.is_empty() {
            let cloud = engine.cloud_mut();
            let tags = Attrs::from_iter([("tags".to_owned(), Value::from("drifted"))]);
            cloud.out_of_band_update("intern", &ids[a % ids.len()], tags).expect("drifts");
            if ids.len() > 1 {
                let gone = &ids[(a + 1 + b % (ids.len() - 1)) % ids.len()];
                cloud.out_of_band_delete("intern", gone).expect("deletes");
            }
            let refresh = engine.refresh().expect("the refresh commits");
            let folded = (refresh.updated.len(), refresh.missing.len());
            prop_assert_eq!(folded, (1, usize::from(ids.len() > 1)));
            settled_as_cold(engine, &base, &edited);
        }

        let mut engine = engine_over(MemDevice::new().imaged(None), &Records::new());
        engine.converge(&base).expect("the base is clean");
        // (an edit a finding stands against leaves no memo to settle)
        if engine.converge(&edited).is_ok() && engine.pipeline().is_warm() {
            let rolled = engine.rollback_state(1).expect("serial 1 is committed");
            if rolled.is_some() {
                settled_as_cold(engine, &edited, &base);
            }
        }
    }
}

// --------------------------------------------- counted blocks, one deleted

/// Counted VPCs `v0..`, `counts[j]` instances each, their CIDRs read off a
/// `locals` list, and a bucket `gN` for each `(j, k)` of `reads`, whose
/// name reads `aws_vpc.vJ[k].id` (`j` and `k` taken modulo what there is).
/// `moved` is the place in the list whose CIDR is another: an edit of one
/// instance, which replaces it.
fn counted_source(counts: &[usize], reads: &[(usize, usize)], moved: Option<usize>) -> String {
    let total: usize = counts.iter().sum();
    let cidr = |n: usize| match moved == Some(n) {
        true => format!("\"10.{}.0.0/16\"", 100 + n),
        false => format!("\"10.{n}.0.0/16\""),
    };
    let cidrs: Vec<String> = (0..total).map(cidr).collect();
    let mut out = format!("locals {{\n  cidrs = [{}]\n}}\n", cidrs.join(", "));
    let mut first = 0;
    for (j, &count) in counts.iter().enumerate() {
        out.push_str(&format!(
            "resource \"aws_vpc\" \"v{j}\" {{\n  count      = {count}\n  cidr_block = local.cidrs[{first} + count.index]\n}}\n"
        ));
        first += count;
    }
    for (n, &(j, k)) in reads.iter().enumerate() {
        let j = j % counts.len();
        let k = k % counts[j];
        out.push_str(&format!(
            "resource \"aws_s3_bucket\" \"g{n}\" {{\n  bucket = \"g{n}-${{aws_vpc.v{j}[{k}].id}}\"\n}}\n"
        ));
    }
    out
}

proptest! {
    /// Counted VPCs, buckets that read one instance of them each, and an
    /// out-of-band deletion of one instance that a refresh folds in: a
    /// bucket is replaced when the instance it reads is re-created, and
    /// the settled cache plans the program and an edit of one instance's
    /// CIDR as a cold engine does, in the engine that committed and in a
    /// fresh one warm from its image — and a warm pipeline against the
    /// refreshed state plans them as a cold one, which plans what
    /// `deploy::diff` plans.
    #[test]
    fn a_settled_deletion_of_one_instance_plans_as_cold(
        counts in proptest::collection::vec(1..4usize, 1..4),
        reads in proptest::collection::vec((0..4usize, 0..4usize), 1..5),
        moved in 0..12usize,
        gone in 0..12usize,
    ) {
        let base = counted_source(&counts, &reads, None);
        let total: usize = counts.iter().sum();
        let edited = counted_source(&counts, &reads, Some(moved % total));
        let mut engine = engine_over(MemDevice::new().imaged(None), &Records::new());
        let outcome = engine.converge(&base).expect("the base is clean");
        prop_assert!(outcome.apply.all_ok());
        prop_assert!(engine.pipeline().is_warm(), "the memo indexes the program");
        let vpcs: Vec<ResourceId> = (engine.state().resources().values())
            .filter(|r| r.rtype.as_str() == "aws_vpc")
            .map(|r| r.id.clone())
            .collect();
        prop_assert_eq!(vpcs.len(), total);
        let cloud = engine.cloud_mut();
        cloud.out_of_band_delete("intern", &vpcs[gone % total]).expect("deletes");
        let refresh = engine.refresh().expect("the refresh commits");
        prop_assert_eq!(refresh.missing.len(), 1);
        let state = engine.state().clone();
        settled_as_cold(engine, &base, &edited);
        check_against_state(&Env::new(), &state, &base, &edited, &base);
    }
}

// ------------------------------------------------ fleets read by instance

/// A fleet of VPCs and what reads them: `count` or `for_each` fleets, each
/// instance's CIDR its own, written in its block (`moved` ones narrowed,
/// which replaces them: an edit of one block), and readers that name an
/// instance by a literal index or key, by their own `count.index` or
/// `each.key`, or all of a fleet by a splat or a `for`.
struct Fleets {
    /// Per fleet: keyed (`for_each`), and how many instances.
    fleets: Vec<(bool, usize)>,
    /// Per reader: how it reads (0 literal, 1 its own key, 2 splat, 3–7
    /// [`through_for`]), the fleet and the instance (taken modulo what
    /// there is).
    readers: Vec<(usize, usize, usize)>,
}

/// Every instance of fleet `j` read through a `for` (`how` 3–7): list and
/// map forms, each without and with an index variable; a map keyed by a
/// `count` index converts it to a string by `tostring` or a template.
fn through_for(how: usize, j: usize) -> String {
    match how {
        3 => format!("join(\"-\", [for x in aws_vpc.v{j} : x.id])"),
        4 => format!("join(\"-\", [for i, x in aws_vpc.v{j} : \"${{i}}-${{x.id}}\"])"),
        5 => format!("join(\"-\", keys({{ for x in aws_vpc.v{j} : x.id => 1 }}))"),
        6 => format!("join(\"-\", values({{ for k, x in aws_vpc.v{j} : tostring(k) => x.id }}))"),
        _ => format!("join(\"-\", values({{ for k, x in aws_vpc.v{j} : \"${{k}}\" => x.id }}))"),
    }
}

impl Fleets {
    /// The first instance of fleet `j`, counting every fleet's instances.
    fn first(&self, j: usize) -> usize {
        self.fleets[..j].iter().map(|&(_, n)| n).sum()
    }

    fn total(&self) -> usize {
        self.first(self.fleets.len())
    }

    /// Instance `i` of fleet `j`, as an index or a key reads it.
    fn key(&self, j: usize, i: usize) -> String {
        match self.fleets[j].0 {
            true => format!("[\"k{i}\"]"),
            false => format!("[{i}]"),
        }
    }

    /// Fleet `j`'s instances as a `for_each` map `{ k0 = "…", … }` or a
    /// list, each `value(g)` of its place `g` among all instances.
    fn values(&self, j: usize, value: impl Fn(usize) -> String) -> String {
        let (first, (keyed, n)) = (self.first(j), self.fleets[j]);
        let values = (0..n).map(|i| match keyed {
            true => format!("k{i} = {}", value(first + i)),
            false => value(first + i),
        });
        let values = values.collect::<Vec<_>>().join(", ");
        match keyed {
            true => format!("{{ {values} }}"),
            false => format!("[{values}]"),
        }
    }

    fn source(&self, moved: &[bool]) -> String {
        let cidr = |g: usize| match moved[g] {
            true => format!("\"10.{g}.0.0/17\""),
            false => format!("\"10.{g}.0.0/16\""),
        };
        let subnet = |g: usize| format!("\"10.{g}.1.0/24\"");
        let mut out = String::new();
        for (j, &(keyed, n)) in self.fleets.iter().enumerate() {
            let cidrs = self.values(j, cidr);
            out.push_str(&match keyed {
                true => format!("resource \"aws_vpc\" \"v{j}\" {{\n  for_each   = {cidrs}\n  cidr_block = each.value\n}}\n"),
                false => format!("resource \"aws_vpc\" \"v{j}\" {{\n  count      = {n}\n  cidr_block = {cidrs}[count.index]\n}}\n"),
            });
        }
        for (r, &(how, j, i)) in self.readers.iter().enumerate() {
            let j = j % self.fleets.len();
            let (keyed, n) = self.fleets[j];
            let (key, subnets) = (self.key(j, i % n), self.values(j, subnet));
            out.push_str(&match (how, keyed) {
                (0, _) => format!("resource \"aws_s3_bucket\" \"r{r}\" {{\n  bucket = \"r{r}-${{aws_vpc.v{j}{key}.id}}\"\n}}\n"),
                (1, false) => format!("resource \"aws_subnet\" \"r{r}\" {{\n  count      = {n}\n  vpc_id     = aws_vpc.v{j}[count.index].id\n  cidr_block = {subnets}[count.index]\n}}\n"),
                (1, true) => format!("resource \"aws_subnet\" \"r{r}\" {{\n  for_each   = {subnets}\n  vpc_id     = aws_vpc.v{j}[each.key].id\n  cidr_block = each.value\n}}\n"),
                (2, false) => format!("resource \"aws_s3_bucket\" \"r{r}\" {{\n  bucket = \"r{r}-${{join(\"-\", aws_vpc.v{j}[*].id)}}\"\n}}\n"),
                (2, true) => format!("resource \"aws_s3_bucket\" \"r{r}\" {{\n  bucket = \"r{r}-${{join(\"-\", values(aws_vpc.v{j})[*].id)}}\"\n}}\n"),
                (how, _) => format!("resource \"aws_s3_bucket\" \"r{r}\" {{\n  bucket = \"r{r}-${{{}}}\"\n}}\n", through_for(how, j)),
            });
        }
        out
    }

    /// Every reader instance, and the instances (by place among all) it
    /// reads.
    fn reads(&self) -> Vec<(String, Vec<usize>)> {
        let mut out = Vec::new();
        for (r, &(how, j, i)) in self.readers.iter().enumerate() {
            let j = j % self.fleets.len();
            let (first, n) = (self.first(j), self.fleets[j].1);
            match how {
                0 => out.push((format!("aws_s3_bucket.r{r}"), vec![first + i % n])),
                1 => out.extend((0..n).map(|i| {
                    (
                        format!("aws_subnet.r{r}{}", self.key(j, i)),
                        vec![first + i],
                    )
                })),
                _ => out.push((format!("aws_s3_bucket.r{r}"), (first..first + n).collect())),
            }
        }
        out
    }
}

/// Fleets read by instance, and a stream of edits that each replace one
/// instance, each planned and applied. Every plan is a cold pipeline's,
/// which plans what `deploy::diff` plans, for a warm pipeline and for the
/// engine's own settled cache; it changes exactly the readers of the
/// replaced instance, so a reader of a sibling plans nothing; the replan
/// after every apply plans nothing; and after every apply no live record
/// names an id the cloud no longer holds.
fn fleet_replans_its_readers(fleets: Fleets, edits: &[usize]) {
    let env = Env::new();
    let mut moved = vec![false; fleets.total()];
    let mut source = fleets.source(&moved);
    let mut engine = engine_over(MemDevice::new().imaged(None), &Records::new());
    let mut seen = BTreeMap::new();
    for step in 0..=edits.len() {
        if step > 0 {
            let g = edits[step - 1] % moved.len();
            moved[g] = !moved[g];
            let edited = fleets.source(&moved);
            let state = engine.state().clone();
            check_against_state(&env, &state, &source, &edited, &source);
            let cold = cold_run(&edited, &env.ctx(&state)).expect("the fleet is clean");
            let changed: Vec<String> = (cold.changes.iter())
                .filter(|c| !c.action.is_noop())
                .map(|c| c.addr.to_string())
                .collect();
            for (reader, reads) in fleets.reads() {
                prop_assert_eq!(changed.contains(&reader), reads.contains(&g), "{}", reader);
            }
            let (plan, _) = engine.plan_incremental(&edited).expect("the edit plans");
            prop_assert_eq!(plan, cold.plan_text);
            source = edited;
        }
        prop_assert!(engine.converge(&source).expect("converges").apply.all_ok());
        let (replan, _) = engine.plan_incremental(&source).expect("the fleet replans");
        let cold = cold_run(&source, &env.ctx(engine.state())).expect("the fleet is clean");
        prop_assert!(
            cold.changes.iter().all(|c| c.action.is_noop()),
            "{}",
            cold.plan_text
        );
        prop_assert_eq!(replan, cold.plan_text);
        let live = engine.cloud().export_records();
        seen.extend(live.iter().map(|(id, r)| (id.clone(), r.rtype.clone())));
        for record in live.values() {
            for (name, value) in &record.attrs {
                let named = value.as_str().map(ResourceId::new);
                let gone = named.filter(|id| seen.contains_key(id) && !live.contains_key(id));
                prop_assert!(gone.is_none(), "{} {} = {:?}", record.id, name, value);
            }
        }
    }
}

proptest! {
    /// Fleets read by instance: by a literal index or key, by the reader's
    /// own `count.index` or `each.key`, or by a splat (see
    /// [`fleet_replans_its_readers`]).
    #[test]
    fn a_fleet_replans_the_readers_of_the_instance_it_replaces(
        fleets in proptest::collection::vec((any::<bool>(), 1..4usize), 1..3),
        readers in proptest::collection::vec((0..3usize, 0..3usize, 0..4usize), 1..5),
        edits in proptest::collection::vec(0..12usize, 1..4),
    ) {
        fleet_replans_its_readers(Fleets { fleets, readers }, &edits);
    }

    /// Fleets read through `for`, in list and map forms, with and without
    /// an index variable: each reads every instance of its fleet, as a
    /// splat does (see [`fleet_replans_its_readers`]).
    #[test]
    fn a_fleet_read_through_for_replans_its_readers(
        fleets in proptest::collection::vec((any::<bool>(), 1..4usize), 1..3),
        readers in proptest::collection::vec((3..8usize, 0..3usize, 0..4usize), 1..5),
        edits in proptest::collection::vec(0..12usize, 1..4),
    ) {
        fleet_replans_its_readers(Fleets { fleets, readers }, &edits);
    }
}

// ----------------------------------------------------------- miner active

/// One VM of a fleet that follows conventions a miner can learn: one of
/// two instance types, tags everywhere.
#[derive(Clone)]
struct Vm {
    /// The block's name, which stays with the VM wherever it moves.
    label: String,
    name: String,
    instance_type: &'static str,
    tags: bool,
    user_data: bool,
}

const CONVENTIONAL: [&str; 2] = ["t3.micro", "t3.large"];

fn fleet(large: &[bool]) -> Vec<Vm> {
    let vm = |(i, &large): (usize, &bool)| Vm {
        label: format!("w{i}"),
        name: format!("w-{i}"),
        instance_type: CONVENTIONAL[large as usize],
        tags: true,
        user_data: false,
    };
    large.iter().enumerate().map(vm).collect()
}

fn fleet_source(vms: &[Vm]) -> String {
    let mut out = String::new();
    for vm in vms {
        let (label, name, instance_type) = (&vm.label, &vm.name, vm.instance_type);
        out.push_str(&format!(
            "resource \"aws_virtual_machine\" \"{label}\" {{\n  name = \"{name}\"\n  instance_type = \"{instance_type}\"\n"
        ));
        if vm.tags {
            out.push_str("  tags = { env = \"prod\" }\n");
        }
        if vm.user_data {
            out.push_str("  user_data = \"boot\"\n");
        }
        out.push_str("}\n");
    }
    out
}

/// The number of edit shapes [`edit_fleet`] knows.
const FLEET_KINDS: usize = 9;

/// A single edit of the fleet: clean ones (the fast path), ones that break
/// a mined convention (VAL401, VAL402: the validate guard), structural ones
/// (a VM appended, inserted — conventional or not — and deleted), and a
/// no-op.
fn edit_fleet(vms: &[Vm], kind: usize, a: usize) -> Vec<Vm> {
    let mut vms = vms.to_vec();
    let i = a % vms.len();
    match kind % FLEET_KINDS {
        0 => vms[i].name.push_str("-t"),
        1 => vms[i].instance_type = "m5.24xlarge",
        2 => vms[i].tags = false,
        3 => {
            let other = (vms[i].instance_type == CONVENTIONAL[0]) as usize;
            vms[i].instance_type = CONVENTIONAL[other];
        }
        4 => vms.push(Vm {
            label: "extra".to_owned(),
            name: "w-extra".to_owned(),
            ..vms[i].clone()
        }),
        6 | 7 => {
            let extra = Vm {
                label: "extra".to_owned(),
                name: "w-extra".to_owned(),
                tags: kind % FLEET_KINDS == 6,
                ..vms[i].clone()
            };
            vms.insert(i, extra);
        }
        8 => drop(vms.remove(i)),
        _ => {}
    }
    vms
}

/// A further deployment for the miner to observe, by what it does to the
/// rules: 0 leaves them standing (only supports move), 1 widens a value
/// domain (the fleet above stays conventional), 2 makes `user_data`
/// expected (the fleet above now deviates).
fn later_deployment(base: &[Vm], kind: usize) -> Vec<Vm> {
    let copies = |vm: Vm, n: usize| {
        let relabel = |i| Vm {
            label: format!("w{i}"),
            ..vm.clone()
        };
        (0..n).map(relabel).collect()
    };
    match kind % 3 {
        0 => base.to_vec(),
        1 => copies(
            Vm {
                instance_type: "m5.large",
                ..base[0].clone()
            },
            5,
        ),
        _ => copies(
            Vm {
                user_data: true,
                ..base[0].clone()
            },
            100,
        ),
    }
}

fn observe_deployment(miner: &mut SpecMiner, env: &Env, vms: &[Vm]) {
    let file = cloudless::hcl::parse(&fleet_source(vms), "main.tf").expect("fleet parses");
    let program = Program::from_file(file).expect("fleet classifies");
    let manifest = expand(&program, &env.inputs, &env.modules, &env.data);
    miner.observe(&manifest.expect("fleet expands"));
}

proptest! {
    /// With a miner that has observed the fleet, a warm replan equals the
    /// cold one on manifest, changes, validation report and plan text:
    /// after an edit (which may break a mined convention), and again after
    /// the miner observes a further deployment (which may change the rules
    /// the memo is keyed on) and another save, edited or not, arrives.
    #[test]
    fn mined_replan_matches_cold_pipeline(
        large in proptest::collection::vec(any::<bool>(), 5..9),
        kind in 0..FLEET_KINDS,
        a in 0..32usize,
        later in 0..3usize,
        resave in any::<bool>(),
    ) {
        let env = Env::with_raised_quotas();
        let base = fleet(&large);
        let edited = edit_fleet(&base, kind, a);
        // an unchanged save has no dirty block for the validate guard to look
        // at: only the memo's key stands between it and a stale report
        let followup = edit_fleet(&edited, if resave { 5 } else { 0 }, a + 1);
        let mut miner = SpecMiner::new();
        observe_deployment(&mut miner, &env, &base);
        prop_assert!(!miner.specs().is_empty());

        for state in [Snapshot::new(), converged_state(&fleet_source(&base), &env)] {
            let mut miner = miner.clone();
            let mut warm = IncrementalPipeline::default();
            let ctx = env.ctx_mined(&state, &miner);
            warm.run(&fleet_source(&base), &ctx).expect("the observed fleet is clean");
            prop_assert!(warm.is_warm(), "a clean run under a miner must be memo-eligible");
            let source = fleet_source(&edited);
            prop_assert_eq!(observe(warm.run(&source, &ctx)), observe(cold_run(&source, &ctx)));

            observe_deployment(&mut miner, &env, &later_deployment(&base, later));
            let ctx = env.ctx_mined(&state, &miner);
            let source = fleet_source(&followup);
            prop_assert_eq!(observe(warm.run(&source, &ctx)), observe(cold_run(&source, &ctx)));
        }
    }
}

/// Guards that the miner-active property is not vacuous: under a miner a
/// clean edit takes the fast path — a VM inserted or deleted included — an
/// edit or an insertion that breaks a convention trips
/// the validate guard and reports what the cold run reports, a changed rule
/// set the memoized program still meets keeps the memo, and one it deviates
/// from costs a cold run that says so.
#[test]
fn mined_edits_exercise_the_key_and_the_guard() {
    let env = Env::with_raised_quotas();
    let base = fleet(&[false, true, false, true, false, true]);
    let state = Snapshot::new();
    let mut miner = SpecMiner::new();
    observe_deployment(&mut miner, &env, &base);
    let mut warm = IncrementalPipeline::default();
    let codes = |out: &FrontendOutput| -> Vec<String> {
        let diags = out.validation.diagnostics.iter();
        diags.map(|d| d.code.clone()).collect()
    };

    let ctx = env.ctx_mined(&state, &miner);
    warm.run(&fleet_source(&base), &ctx).expect("base is clean");
    let touched = edit_fleet(&base, 0, 2);
    let out = warm.run(&fleet_source(&touched), &ctx).expect("clean");
    assert!(out.trace.fast_path, "{}", out.trace);
    // a conventional VM spliced in mid-fleet, and one spliced out
    for kind in [6, 8] {
        let resized = fleet_source(&edit_fleet(&touched, kind, 3));
        let out = warm.run(&resized, &ctx).expect("clean");
        assert!(out.trace.fast_path, "{}", out.trace);
    }

    for (kind, code) in [(1, "VAL401"), (2, "VAL402"), (7, "VAL402")] {
        let mut warm = IncrementalPipeline::default();
        warm.run(&fleet_source(&base), &ctx).expect("base is clean");
        let broken = fleet_source(&edit_fleet(&base, kind, 3));
        let out = warm
            .run(&broken, &ctx)
            .expect("mined findings are advisory");
        assert!(!out.trace.fast_path, "{}", out.trace);
        assert_eq!(codes(&out), [code]);
    }

    observe_deployment(&mut miner, &env, &later_deployment(&base, 1));
    let ctx = env.ctx_mined(&state, &miner);
    let out = warm.run(&fleet_source(&base), &ctx).expect("clean");
    assert!(
        out.trace.fast_path,
        "a wider domain keeps the memo: {}",
        out.trace
    );

    observe_deployment(&mut miner, &env, &later_deployment(&base, 2));
    let ctx = env.ctx_mined(&state, &miner);
    let out = warm.run(&fleet_source(&touched), &ctx).expect("advisory");
    let reason = out.trace.fallback_reason.clone().unwrap_or_default();
    assert!(reason.contains("spec miner"), "{}", out.trace);
    assert_eq!(codes(&out), vec!["VAL402"; base.len()]);
}
