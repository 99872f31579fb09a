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
//! A miner-active family does the same under a [`SpecMiner`] that has
//! observed a deployment, with edits that break its conventions and further
//! observations that change them.
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

fn base_source(spec: &Spec) -> String {
    let mut out = String::new();
    for (i, (t, dep)) in spec.iter().enumerate() {
        let (rtype, attr) = TYPES[t % TYPES.len()];
        out.push_str(&format!(
            "resource \"{rtype}\" \"b{i}\" {{\n  {attr} = \"v-{i}\"\n"
        ));
        if *dep && i > 0 {
            let target = (t + i) % i;
            let (dt, _) = TYPES[spec[target].0 % TYPES.len()];
            out.push_str(&format!("  depends_on = [{dt}.b{target}]\n"));
        }
        out.push_str("}\n");
    }
    out
}

/// The value token of block `i` — includes both quotes, so `v-1` never
/// matches inside `v-10`.
fn token(i: usize) -> String {
    format!("\"v-{i}\"")
}

/// A single edit, chosen by `kind`; `a`/`b` are free block selectors
/// (reduced mod the program length). Every shape is exercised: in-place
/// value edits (the fast path), structural edits (guard fallbacks), and
/// edits that introduce parse / validation / duplicate-value errors.
fn apply_edit(src: &str, spec: &Spec, kind: usize, a: usize, b: usize) -> String {
    let n = spec.len();
    let i = a % n;
    match kind % 9 {
        // touch one attribute value: the canonical O(edit) replan
        0 => src.replacen(&token(i), &format!("\"v-{i}-t\""), 1),
        // rewrite a block body: value change plus new comment lines
        1 => src.replacen(
            &token(i),
            &format!("\"v-{i}-r\"\n  # rewritten\n  # twice"),
            1,
        ),
        // append a block: structural, falls back to the cold path
        2 => format!("{src}resource \"aws_s3_bucket\" \"extra\" {{\n  bucket = \"v-extra\"\n}}\n"),
        // drop the last block: structural
        3 => match src.rfind("resource ") {
            Some(at) if n > 1 => src[..at].to_string(),
            _ => src.to_string(),
        },
        // give block i a dependency on block 0 (skip if it has one, or is
        // block 0 itself — degrade to a value touch)
        4 => {
            if i == 0 || spec[i].1 {
                src.replacen(&token(i), &format!("\"v-{i}-t\""), 1)
            } else {
                let (dt, _) = TYPES[spec[0].0 % TYPES.len()];
                src.replacen(
                    &token(i),
                    &format!("\"v-{i}\"\n  depends_on = [{dt}.b0]"),
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
        // no-op edit: identical source must replan to the identical plan
        _ => src.to_string(),
    }
}

// ------------------------------------------------------------- comparison

/// Project a pipeline result onto everything externally observable. Spans
/// are deliberately excluded: the fast path re-parses dirty chunks
/// standalone, so line offsets inside unedited blocks may be stale — the
/// documented (and harmless, since the clean path emits no diagnostics)
/// exception to byte-identity.
fn observe(result: Result<FrontendOutput, PipelineError>) -> Result<(String, String), String> {
    match result {
        Ok(out) => {
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
            Ok((out.plan_text, shape))
        }
        Err(err) => Err(error_key(&err)),
    }
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
        kind in 0..9usize,
        a in 0..32usize,
        b in 0..32usize,
    ) {
        let env = Env::new();
        let base = base_source(&spec);
        let edited = apply_edit(&base, &spec, kind, a, b);
        // follow-up: a plain value touch on a different block
        let followup = apply_edit(&edited, &spec, 0, a + 1, b);

        let empty = Snapshot::new();
        check_against_state(&env, &empty, &base, &edited, &followup);

        let converged = converged_state(&base, &env);
        check_against_state(&env, &converged, &base, &edited, &followup);
    }
}

/// Guards that the differential property is not vacuous: on the generated
/// program shape, a value touch takes the fast path (so the proptest above
/// really compares incremental against cold) while a structural append
/// falls back.
#[test]
fn generated_edits_exercise_both_paths() {
    let env = Env::new();
    let spec: Spec = vec![(0, false), (1, true), (2, true), (3, false)];
    let base = base_source(&spec);
    let empty = Snapshot::new();
    let ctx = env.ctx(&empty);

    let mut warm = IncrementalPipeline::default();
    warm.run(&base, &ctx).expect("base is clean");

    let touched = apply_edit(&base, &spec, 0, 2, 0);
    let out = warm.run(&touched, &ctx).expect("touch stays clean");
    assert!(out.trace.fast_path, "value touch must replan incrementally");

    let appended = apply_edit(&touched, &spec, 2, 0, 0);
    let out = warm.run(&appended, &ctx).expect("append stays clean");
    assert!(
        !out.trace.fast_path,
        "structural edit must run the full path"
    );
}

// ----------------------------------------------------------- miner active

/// One VM of a fleet that follows conventions a miner can learn: one of
/// two instance types, tags everywhere.
#[derive(Clone)]
struct Vm {
    name: String,
    instance_type: &'static str,
    tags: bool,
    user_data: bool,
}

const CONVENTIONAL: [&str; 2] = ["t3.micro", "t3.large"];

fn fleet(large: &[bool]) -> Vec<Vm> {
    let vm = |(i, &large): (usize, &bool)| Vm {
        name: format!("w-{i}"),
        instance_type: CONVENTIONAL[large as usize],
        tags: true,
        user_data: false,
    };
    large.iter().enumerate().map(vm).collect()
}

fn fleet_source(vms: &[Vm]) -> String {
    let mut out = String::new();
    for (i, vm) in vms.iter().enumerate() {
        let (name, instance_type) = (&vm.name, vm.instance_type);
        out.push_str(&format!(
            "resource \"aws_virtual_machine\" \"w{i}\" {{\n  name = \"{name}\"\n  instance_type = \"{instance_type}\"\n"
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

/// A single edit of the fleet: clean ones (the fast path), ones that break
/// a mined convention (VAL401, VAL402: the validate guard), a structural
/// one, and a no-op.
fn edit_fleet(vms: &[Vm], kind: usize, a: usize) -> Vec<Vm> {
    let mut vms = vms.to_vec();
    let i = a % vms.len();
    match kind % 6 {
        0 => vms[i].name.push_str("-t"),
        1 => vms[i].instance_type = "m5.24xlarge",
        2 => vms[i].tags = false,
        3 => {
            let other = (vms[i].instance_type == CONVENTIONAL[0]) as usize;
            vms[i].instance_type = CONVENTIONAL[other];
        }
        4 => vms.push(Vm {
            name: "w-extra".to_owned(),
            ..vms[i].clone()
        }),
        _ => {}
    }
    vms
}

/// A further deployment for the miner to observe, by what it does to the
/// rules: 0 leaves them standing (only supports move), 1 widens a value
/// domain (the fleet above stays conventional), 2 makes `user_data`
/// expected (the fleet above now deviates).
fn later_deployment(base: &[Vm], kind: usize) -> Vec<Vm> {
    match kind % 3 {
        0 => base.to_vec(),
        1 => vec![
            Vm {
                instance_type: "m5.large",
                ..base[0].clone()
            };
            5
        ],
        _ => vec![
            Vm {
                user_data: true,
                ..base[0].clone()
            };
            100
        ],
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
        kind in 0..6usize,
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
/// clean edit takes the fast path, an edit that breaks a convention trips
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

    for (kind, code) in [(1, "VAL401"), (2, "VAL402")] {
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
