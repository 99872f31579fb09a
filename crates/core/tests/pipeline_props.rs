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
//! conventions and further observations that change them.
//!
//! On a host with two cores every all-blocks run joins (lint beside
//! expand, validate and analyze beside the plan; `cloudless_types::join`),
//! while a splice runs on one thread: the two are held to each other.
//!
//! A second group pins the memory contract: a bounded memo cache never
//! retains a snapshot that exceeds its byte budget, and dropping the memo
//! never changes results. The scale variant (100k resources) is `#[ignore]`
//! so the default test tier stays fast; CI runs it in release.

use std::collections::BTreeMap;
use std::sync::Arc;

use cloudless::cloud::{Catalog, Cloud, CloudConfig};
use cloudless::deploy::resolver::DataResolver;
use cloudless::deploy::{diff, Executor, Plan, Strategy};
use cloudless::hcl::program::{expand, ModuleLibrary, Program};
use cloudless::obs::{NullRecorder, Recorder};
use cloudless::pipeline::{
    FrontendOutput, IncrementalPipeline, PipelineConfig, PipelineCtx, PipelineError,
};
use cloudless::state::Snapshot;
use cloudless::types::Value;
use cloudless::validate::{SpecMiner, ValidationLevel};
use cloudless::LintGate;
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
    let mut cold = IncrementalPipeline::new(PipelineConfig { max_cache_bytes: 0 });
    let empty = Snapshot::new();
    let out = cold
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

/// The core differential check: against `state`, a warm pipeline that saw
/// `base` must produce the same observation for `edited` (and then for a
/// follow-up edit) as a cold pipeline seeing each source fresh.
fn check_against_state(env: &Env, state: &Snapshot, base: &str, edited: &str, followup: &str) {
    let ctx = env.ctx(state);
    let mut warm = IncrementalPipeline::default();
    warm.run(base, &ctx).expect("base program is clean");
    assert!(warm.is_warm(), "clean base must be memo-eligible");

    let warm_obs = observe(warm.run(edited, &ctx));
    let mut cold = IncrementalPipeline::new(PipelineConfig { max_cache_bytes: 0 });
    let cold_obs = observe(cold.run(edited, &ctx));
    assert_eq!(warm_obs, cold_obs, "warm replan diverged on the edit");

    // a second edit on top exercises the spliced memo (after an error the
    // memo is dropped and this replays cold — still must agree)
    let warm_obs = observe(warm.run(followup, &ctx));
    let cold_obs = observe(cold.run(followup, &ctx));
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
    let cold = |source: &str, state: &Snapshot| {
        let mut cold = IncrementalPipeline::new(PipelineConfig { max_cache_bytes: 0 });
        observe(cold.run(source, &env.ctx(state)))
    };

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
        let mut cold = IncrementalPipeline::new(PipelineConfig { max_cache_bytes: 0 });
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
                prop_assert_eq!(&warm_obs, &observe(cold.run(&source, &ctx)), "save {}", serial);
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
    let mut cold = IncrementalPipeline::new(PipelineConfig { max_cache_bytes: 0 });
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
        assert_eq!(observe(Ok(out)), observe(cold.run(&source, &ctx)));
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
        let mut cold = IncrementalPipeline::new(PipelineConfig { max_cache_bytes: 0 });
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
            prop_assert_eq!(&warm_obs, &observe(cold.run(&source, &ctx)), "save {}", serial);
            if warm_obs.is_err() {
                links = before; // the user takes it back with the next save
            }
        }
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
            let mut cold = IncrementalPipeline::new(PipelineConfig { max_cache_bytes: 0 });
            let ctx = env.ctx_mined(&state, &miner);
            warm.run(&fleet_source(&base), &ctx).expect("the observed fleet is clean");
            prop_assert!(warm.is_warm(), "a clean run under a miner must be memo-eligible");
            let source = fleet_source(&edited);
            prop_assert_eq!(observe(warm.run(&source, &ctx)), observe(cold.run(&source, &ctx)));

            observe_deployment(&mut miner, &env, &later_deployment(&base, later));
            let ctx = env.ctx_mined(&state, &miner);
            let source = fleet_source(&followup);
            prop_assert_eq!(observe(warm.run(&source, &ctx)), observe(cold.run(&source, &ctx)));
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

// -------------------------------------------------------------- eviction

/// Deterministic layered program in the same shape as the bench workloads
/// (bench itself is not importable from core — dependency cycle).
fn layered_source(n: usize) -> String {
    let width = (n / 16).max(4);
    let mut out = String::with_capacity(n * 80);
    for i in 0..n {
        let (rtype, attr) = TYPES[i % TYPES.len()];
        out.push_str(&format!(
            "resource \"{rtype}\" \"b{i}\" {{\n  {attr} = \"v-{i}\"\n"
        ));
        if i >= width {
            let target = i - width + (i % 3);
            let target = target.min(i - 1);
            let (dt, _) = TYPES[target % TYPES.len()];
            out.push_str(&format!("  depends_on = [{dt}.b{target}]\n"));
        }
        out.push_str("}\n");
    }
    out
}

/// A memo larger than the configured byte budget is evicted rather than
/// retained, and the bounded pipeline keeps producing plans identical to
/// an unbounded one.
fn check_budget(n: usize) {
    let env = Env::with_raised_quotas();
    let src = layered_source(n);
    let empty = Snapshot::new();

    // generous budget: the memo is retained and its accounting is sane
    let generous = 1usize << 30;
    let mut pipe = IncrementalPipeline::new(PipelineConfig {
        max_cache_bytes: generous,
    });
    let reference = pipe
        .run(&src, &env.ctx(&empty))
        .expect("layered program is clean");
    assert!(pipe.is_warm());
    let footprint = pipe.approx_bytes();
    assert!(footprint > 0, "warm memo must account for its bytes");
    assert!(
        footprint <= generous,
        "memo footprint {footprint} exceeds the budget it was admitted under"
    );

    // a budget below the known footprint: the memo must be evicted, the
    // cache stays bounded, and results are unchanged
    let tight = footprint / 4;
    let mut bounded = IncrementalPipeline::new(PipelineConfig {
        max_cache_bytes: tight,
    });
    for round in 0..2 {
        let out = bounded
            .run(&src, &env.ctx(&empty))
            .expect("layered program is clean");
        assert!(!out.trace.fast_path, "round {round} cannot be a cache hit");
        assert!(
            !bounded.is_warm(),
            "memo of ~{footprint} bytes retained under a {tight}-byte budget"
        );
        assert_eq!(bounded.approx_bytes(), 0, "evicted memo still accounted");
        assert_eq!(
            out.plan_text, reference.plan_text,
            "eviction changed the plan"
        );
    }
}

#[test]
fn bounded_memo_respects_byte_budget() {
    check_budget(2_000);
}

/// The ISSUE-mandated scale point. Heavy (100k resources through a debug
/// front end), so ignored by default; CI runs it in release via
/// `cargo test --release -p cloudless --test pipeline_props -- --ignored`.
#[test]
#[ignore = "heavy: 100k-resource eviction check; run in release with -- --ignored"]
fn bounded_memo_respects_byte_budget_at_100k() {
    check_budget(100_000);
}
