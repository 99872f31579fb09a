//! What the one-driver pipeline leans on.
//!
//! * A refused run leaves the memo alone, so the fix of a typo replans on
//!   the fast path.
//! * The memo a guard trip leaves behind serves the next block edit on the
//!   fast path, byte-identical to a cold run.
//! * The whole-program aggregate rules (ANA402, VAL306, VAL307) are folds
//!   over the same per-block / per-instance extractors the splice path
//!   maintains its claims multiset with.
//! * A program the memo cannot keep plans what the whole-graph diff plans.
//! * The trace of each kind of run reads the same, row by row.

use std::collections::BTreeMap;
use std::sync::Arc;

use cloudless::analyze::incremental::LintEnv;
use cloudless::analyze::{lint_program, LintConfig};
use cloudless::cloud::{Catalog, Cloud, CloudConfig};
use cloudless::deploy::diff::render;
use cloudless::deploy::resolver::DataResolver;
use cloudless::deploy::{diff, Executor, Plan, Strategy};
use cloudless::hcl::program::{expand, ModuleLibrary};
use cloudless::obs::{FlightRecorder, NullRecorder, Recorder};
use cloudless::pipeline::{FrontendOutput, IncrementalPipeline, PipelineCtx, PipelineError};
use cloudless::state::Snapshot;
use cloudless::types::Value;
use cloudless::validate::incremental::{name_claim, quota_key};
use cloudless::validate::{validate, ValidationLevel};
use cloudless::{Cloudless, Config, ConvergeError, LintGate};

struct Env {
    catalog: Catalog,
    data: DataResolver,
    inputs: BTreeMap<String, Value>,
    modules: ModuleLibrary,
    recorder: Arc<dyn Recorder>,
    state: Snapshot,
}

impl Env {
    fn new() -> Env {
        Env {
            catalog: Catalog::standard(),
            data: DataResolver::new(),
            inputs: BTreeMap::new(),
            modules: ModuleLibrary::new(),
            recorder: Arc::new(NullRecorder),
            state: Snapshot::new(),
        }
    }

    fn ctx(&self) -> PipelineCtx<'_> {
        PipelineCtx {
            inputs: &self.inputs,
            modules: &self.modules,
            lint: LintGate::default(),
            level: ValidationLevel::CloudRules,
            data: &self.data,
            catalog: &self.catalog,
            state: &self.state,
            miner: None,
            recorder: &self.recorder,
        }
    }

    /// A cold run of `source`: a fresh pipeline.
    fn cold(&self, source: &str) -> Result<FrontendOutput, PipelineError> {
        IncrementalPipeline::default().run(source, &self.ctx())
    }
}

const SRC: &str = r#"resource "aws_vpc" "main" {
  cidr_block = "10.0.0.0/16"
}
resource "aws_subnet" "app" {
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}
resource "aws_s3_bucket" "logs" {
  bucket = "logs-main"
}
"#;

/// Everything a caller can observe of a successful run.
fn observe(out: &FrontendOutput) -> String {
    let mut shape = out.plan_text.clone();
    for inst in &out.manifest.instances {
        shape.push_str(&format!(
            "{} {:?} {:?}\n",
            inst.addr, inst.attrs, inst.depends_on
        ));
    }
    for change in &out.changes {
        if !change.action.is_noop() {
            shape.push_str(&format!("{} {:?}\n", change.addr, change.action));
        }
    }
    shape
}

#[test]
fn a_refused_run_leaves_the_memo_for_the_fix() {
    let env = Env::new();
    let mut pipe = IncrementalPipeline::default();
    let first = pipe.run(SRC, &env.ctx()).expect("base is clean");
    assert!(!first.trace.fast_path);

    // the save mid-edit: a syntax error
    let typo = SRC.replacen("}\n", "\n", 1);
    let err = pipe.run(&typo, &env.ctx()).err().expect("typo is refused");
    assert!(matches!(err, PipelineError::Frontend(_)));
    assert!(pipe.is_warm(), "a refused run must not drop the memo");

    // the fix is the very text the memo was built from
    let fixed = pipe.run(SRC, &env.ctx()).expect("fix is clean");
    assert!(
        fixed.trace.fast_path,
        "the fix must replan incrementally:\n{}",
        fixed.trace
    );
    let cold = env.cold(SRC).expect("cold run");
    assert_eq!(observe(&fixed), observe(&cold));

    // and an edit on top of the fix still splices
    let edited = SRC.replace("logs-main", "logs-next");
    let warm = pipe.run(&edited, &env.ctx()).expect("edit is clean");
    assert!(warm.trace.fast_path, "{}", warm.trace);
    assert_eq!(
        observe(&warm),
        observe(&env.cold(&edited).expect("cold run"))
    );
}

#[test]
fn a_lint_refusal_leaves_the_memo_too() {
    let env = Env::new();
    let mut pipe = IncrementalPipeline::default();
    pipe.run(SRC, &env.ctx()).expect("base is clean");
    // a self-reference: the splice guard trips, the full lint refuses
    let broken = SRC.replace("\"logs-main\"", "aws_s3_bucket.logs.bucket");
    let err = pipe.run(&broken, &env.ctx()).err().expect("refused");
    assert!(matches!(err, PipelineError::Lint(_)));
    let again = pipe.run(SRC, &env.ctx()).expect("base is clean");
    assert!(again.trace.fast_path, "{}", again.trace);
}

#[test]
fn the_memo_after_a_guard_trip_serves_the_next_edit() {
    let env = Env::new();
    let mut pipe = IncrementalPipeline::default();
    pipe.run(SRC, &env.ctx()).expect("base is clean");

    // a new dependency edge: a body edit the splice cannot take
    let rewired = SRC.replace(
        "bucket = \"logs-main\"",
        "bucket = \"logs-main\"\n  depends_on = [aws_vpc.main]",
    );
    let tripped = pipe.run(&rewired, &env.ctx()).expect("still clean");
    assert!(!tripped.trace.fast_path, "{}", tripped.trace);
    let reason = tripped.trace.fallback_reason.as_deref().unwrap_or("");
    assert!(reason.contains("dependency edges"), "{reason}");
    assert_eq!(
        observe(&tripped),
        observe(&env.cold(&rewired).expect("cold run"))
    );
    assert!(pipe.is_warm(), "the restarted walk refills the memo");

    // the memo the restarted walk left behind is a full one
    let edited = rewired.replace("10.0.1.0/24", "10.0.2.0/24");
    let warm = pipe.run(&edited, &env.ctx()).expect("edit is clean");
    assert!(warm.trace.fast_path, "{}", warm.trace);
    assert_eq!(
        observe(&warm),
        observe(&env.cold(&edited).expect("cold run"))
    );
}

/// A block that sets one argument twice is refused at the second setting,
/// warm as cold: the splice parses the edited block as the cold walk does,
/// and keeps its memo for the fix.
#[test]
fn a_repeated_argument_is_refused_warm_and_cold() {
    let env = Env::new();
    let mut pipe = IncrementalPipeline::default();
    pipe.run(SRC, &env.ctx()).expect("base is clean");
    let twice = SRC.replace(
        "bucket = \"logs-main\"",
        "bucket = \"logs-main\"\n  bucket = \"logs-next\"",
    );
    let shown = |err: PipelineError| match err {
        PipelineError::Frontend(diags) => diags.to_string(),
        other => panic!("refused past the front end: {other:?}"),
    };
    let warm = shown(pipe.run(&twice, &env.ctx()).err().expect("refused warm"));
    let cold = shown(env.cold(&twice).err().expect("refused cold"));
    assert_eq!(warm, cold);
    assert!(
        cold.contains("HCL045") && cold.contains("main.tf:9:3"),
        "{cold}"
    );
    let fixed = pipe.run(SRC, &env.ctx()).expect("the fix is clean");
    assert!(fixed.trace.fast_path, "{}", fixed.trace);
}

/// An object literal that sets one key twice (`a` and `"a"` alike) is
/// refused at the second key, warm as cold, and the memo waits for the fix.
#[test]
fn a_repeated_map_key_is_refused_warm_and_cold() {
    let env = Env::new();
    let mut pipe = IncrementalPipeline::default();
    pipe.run(SRC, &env.ctx()).expect("base is clean");
    let twice = SRC.replace(
        "bucket = \"logs-main\"",
        "bucket = \"logs-main\"\n  tags   = { a = \"1\", \"a\" = \"2\" }",
    );
    let shown = |err: PipelineError| match err {
        PipelineError::Frontend(diags) => diags.to_string(),
        other => panic!("refused past the front end: {other:?}"),
    };
    let warm = shown(pipe.run(&twice, &env.ctx()).err().expect("refused warm"));
    let cold = shown(env.cold(&twice).err().expect("refused cold"));
    assert_eq!(warm, cold);
    assert!(
        cold.contains("[HCL046] main.tf:10:23") && cold.contains("first set at main.tf:10:14"),
        "{cold}"
    );
    let fixed = pipe.run(SRC, &env.ctx()).expect("the fix is clean");
    assert!(fixed.trace.fast_path, "{}", fixed.trace);
}

/// A save the lexer cannot read — a closing quote dropped — is refused
/// from the window it edits, with the bytes a cold parse refuses it with,
/// and counts as the splice it is; the memo waits for the fix. A cold
/// start refused the same way counts as a cold run.
#[test]
fn a_typo_save_is_refused_from_its_window_and_counted_as_a_splice() {
    let env = Env {
        recorder: FlightRecorder::shared(64),
        ..Env::new()
    };
    let runs = || {
        let metrics = env
            .recorder
            .metrics()
            .expect("a flight recorder keeps metrics");
        let counted = ["pipeline.runs_incremental", "pipeline.runs_full"];
        counted.map(|name| metrics.counter(name))
    };
    let counted = |before: [u64; 2]| {
        let after = runs();
        [after[0] - before[0], after[1] - before[1]]
    };
    let shown = |err: PipelineError| match err {
        PipelineError::Frontend(diags) => format!("{diags}\n{diags:?}"),
        other => panic!("refused past the front end: {other:?}"),
    };
    let mut pipe = IncrementalPipeline::default();
    pipe.run(SRC, &env.ctx()).expect("base is clean");
    let typo = SRC.replacen("10.0.0.0/16\"", "10.0.0.0/16", 1);

    let before = runs();
    let warm = shown(pipe.run(&typo, &env.ctx()).err().expect("refused warm"));
    assert_eq!(counted(before), [1, 0], "the typo is refused by a splice");
    assert!(pipe.is_warm(), "a refused run must not drop the memo");
    let before = runs();
    let cold = shown(env.cold(&typo).err().expect("refused cold"));
    assert_eq!(counted(before), [0, 1], "a cold start is refused cold");
    assert_eq!(warm, cold);
    // reported on the first block's line, where the quote went missing
    assert!(
        cold.starts_with("error[HCL001] main.tf:2:16: unterminated string literal"),
        "{cold}"
    );

    let fixed = pipe.run(SRC, &env.ctx()).expect("the fix is clean");
    assert!(fixed.trace.fast_path, "{}", fixed.trace);
    assert_eq!(observe(&fixed), observe(&env.cold(SRC).expect("cold run")));
}

// ------------------------------------------- a cold start's two joins

/// The codes of a refusal, after the stage that made it.
fn refusal(err: &PipelineError) -> (&'static str, Vec<String>) {
    match err {
        PipelineError::Frontend(diags) => {
            ("frontend", diags.iter().map(|d| d.code.clone()).collect())
        }
        PipelineError::Lint(report) => {
            let findings = report.findings.iter();
            (
                "lint",
                findings.map(|f| f.diagnostic.code.clone()).collect(),
            )
        }
        PipelineError::Validation(report) => {
            let diags = report.diagnostics.iter();
            ("validation", diags.map(|d| d.code.clone()).collect())
        }
    }
}

/// A self-reference (ANA404, the lint gate's) in a program the expander
/// refuses too (HCL031: a variable nobody set).
const LINT_AND_EXPAND: &str = r#"variable "region" {}
resource "aws_s3_bucket" "logs" {
  bucket = "logs-main"
  region = var.region
  tags   = aws_s3_bucket.logs.bucket
}
"#;

/// Two instances that claim one identity (ANA502, the analyzer's) in a
/// program the validator refuses too (VAL: an attribute the schema does not
/// know).
const VALIDATE_AND_ANALYZE: &str = r#"resource "aws_virtual_machine" "fleet" {
  count = 2
  name  = "b-${count.index}"
}
resource "aws_virtual_machine" "solo" {
  name = "b-1"
}
resource "aws_s3_bucket" "logs" {
  bucket          = "logs-main"
  not_a_real_attr = 1
}
"#;

/// A program both lint and expand refuse is refused for lint's finding, the
/// earlier stage's; each refusal stands on its own.
#[test]
fn a_cold_start_refused_by_lint_and_by_expand_reports_lint() {
    let env = Env::new();
    let src = LINT_AND_EXPAND;
    let err = env.cold(src).err().expect("refused");
    let (stage, codes) = refusal(&err);
    assert_eq!(stage, "lint", "{codes:?}");
    assert!(codes.iter().any(|c| c == "ANA404"), "{codes:?}");
    // with the gate off, the expander's refusal is what is left
    let ungated = PipelineCtx {
        lint: LintGate::Off,
        ..env.ctx()
    };
    let err = IncrementalPipeline::default()
        .run(src, &ungated)
        .err()
        .expect("refused");
    let (stage, codes) = refusal(&err);
    assert_eq!(stage, "frontend", "{codes:?}");
    assert!(codes.iter().any(|c| c == "HCL031"), "{codes:?}");
}

/// A program both validate and analyze refuse is refused for validation's
/// error; without it the analyzer's finding refuses the program.
#[test]
fn a_cold_start_refused_by_validate_and_by_analyze_reports_validation() {
    let env = Env::new();
    let err = env.cold(VALIDATE_AND_ANALYZE).err().expect("refused");
    let (stage, codes) = refusal(&err);
    assert_eq!(stage, "validation", "{codes:?}");
    let valid = VALIDATE_AND_ANALYZE.replace("  not_a_real_attr = 1\n", "");
    let err = env.cold(&valid).err().expect("refused");
    let (stage, codes) = refusal(&err);
    assert_eq!(stage, "lint", "{codes:?}");
    assert!(codes.iter().any(|c| c == "ANA502"), "{codes:?}");
}

/// A cold start that is refused — by whichever stage — keeps no memo: the
/// next run is cold again, and the first clean one keeps its memo. The
/// same saves to a warm pipeline are refused as a cold run refuses them,
/// and only a parse or lint refusal gives the memo back.
#[test]
fn a_refused_cold_start_keeps_no_memo() {
    let env = Env::new();
    let refused = [
        SRC.replacen("}\n", "\n", 1),
        LINT_AND_EXPAND.to_owned(),
        VALIDATE_AND_ANALYZE.to_owned(),
        VALIDATE_AND_ANALYZE.replace("  not_a_real_attr = 1\n", ""),
        LINT_AND_EXPAND.replace("  tags   = aws_s3_bucket.logs.bucket\n", ""),
    ];
    for src in &refused {
        let mut pipe = IncrementalPipeline::default();
        assert!(pipe.run(src, &env.ctx()).is_err());
        assert!(!pipe.is_warm(), "a refused cold start kept a memo");
    }
    // primed under another validation level, so that every save is an
    // all-blocks walk that holds the memo: a splice that inserts blocks
    // would drop it before a validate or analyze refusal
    let primed = PipelineCtx {
        level: ValidationLevel::Semantic,
        ..env.ctx()
    };
    let mut kept = Vec::new();
    for src in &refused {
        let mut pipe = IncrementalPipeline::default();
        pipe.run(SRC, &primed).expect("base is clean");
        let err = pipe.run(src, &env.ctx()).err().expect("refused");
        let cold = env.cold(src).err().expect("refused");
        assert_eq!(refusal(&err), refusal(&cold));
        kept.push(pipe.is_warm());
    }
    // syntax error, lint, validate, analyze, expand
    assert_eq!(kept, [true, true, false, false, false]);
    let mut pipe = IncrementalPipeline::default();
    let out = pipe.run(SRC, &env.ctx()).expect("clean");
    assert!(!out.trace.fast_path && pipe.is_warm());
    assert_eq!(observe(&out), observe(&env.cold(SRC).expect("clean")));
}

// ------------------------------------------------ extractor ≡ whole program

const NETWORK_MODULE: &str = include_str!("../../../examples/hcl/network_module.tf");

/// Every shipped program, plus two that actually trip VAL306 and VAL307
/// (the shipped corpus trips only ANA402, in `alias_folded.tf`).
fn corpus() -> Vec<(&'static str, String)> {
    macro_rules! shipped {
        ($($path:literal),* $(,)?) => {
            vec![$(($path, include_str!(concat!("../../../examples/hcl/", $path)).to_owned())),*]
        };
    }
    let mut corpus = shipped![
        "quickstart.tf",
        "web_stack.tf",
        "multicloud.tf",
        "network_module.tf",
        "defects/concurrency/alias_counted.tf",
        "defects/concurrency/alias_folded.tf",
        "defects/concurrency/alias_foreach.tf",
        "defects/concurrency/clean_cbd_rotating.tf",
        "defects/concurrency/clean_fanout.tf",
        "defects/concurrency/clean_shared_prefix.tf",
        "defects/concurrency/compound.tf",
        "defects/concurrency/lock_cycle.tf",
        "defects/concurrency/missing_edge.tf",
        "defects/concurrency/missing_edge_counted.tf",
        "defects/concurrency/self_race_replace.tf",
    ];
    corpus.push((
        "inline: three buckets, one name",
        r#"resource "aws_s3_bucket" "a" { bucket = "shared" }
resource "aws_s3_bucket" "b" {
  count  = 2
  bucket = "shared"
}
"#
        .to_owned(),
    ));
    corpus.push((
        "inline: nine gateways, quota eight",
        r#"resource "azure_resource_group" "rg" {
  name     = "rg"
  location = "eastus"
}
resource "azure_virtual_network" "n" {
  name           = "n"
  resource_group = azure_resource_group.rg.id
  address_space  = "10.0.0.0/16"
}
resource "azure_vpn_gateway" "g" {
  count   = 9
  name    = "g-${count.index}"
  vnet_id = azure_virtual_network.n.id
}
"#
        .to_owned(),
    ));
    corpus
}

fn count_code<'a>(codes: impl Iterator<Item = &'a str>, code: &str) -> usize {
    codes.filter(|c| *c == code).count()
}

#[test]
fn aggregate_findings_equal_a_fold_over_the_extractors() {
    let catalog = Catalog::standard();
    let mut modules = ModuleLibrary::new();
    modules.insert("modules/network", NETWORK_MODULE);
    let inputs: BTreeMap<String, Value> = [("cidr".to_owned(), Value::from("10.0.0.0/16"))].into();
    let mut tripped = [0usize; 3];

    for (name, source) in corpus() {
        let program = cloudless::hcl::load(&source, name).expect("corpus parses");

        // ANA402: one finding per block-level claim with two or more holders
        let report = lint_program(&program, &modules, &LintConfig::default());
        let env = LintEnv::build(&program);
        let mut holders: BTreeMap<_, usize> = BTreeMap::new();
        for claim in program.resources.iter().flat_map(|rb| env.block_claims(rb)) {
            *holders.entry(claim).or_default() += 1;
        }
        let expect = holders.values().filter(|&&n| n > 1).count();
        let codes = report.findings.iter().map(|f| f.diagnostic.code.as_str());
        assert_eq!(count_code(codes, "ANA402"), expect, "{name}: ANA402");
        tripped[0] += expect;

        let inputs = if program.variables.iter().any(|v| v.name == "cidr") {
            inputs.clone()
        } else {
            BTreeMap::new()
        };
        let manifest =
            expand(&program, &inputs, &modules, &DataResolver::new()).expect("corpus expands");
        let validation = validate(&manifest, &catalog, ValidationLevel::CloudRules, None);
        let codes = || validation.diagnostics.iter().map(|d| d.code.as_str());

        // VAL306: every holder of a name after the first collides
        let mut names: BTreeMap<_, usize> = BTreeMap::new();
        for claim in manifest.instances.iter().filter_map(|i| name_claim(i)) {
            *names.entry(claim).or_default() += 1;
        }
        let expect: usize = names.values().map(|n| n - 1).sum();
        assert_eq!(count_code(codes(), "VAL306"), expect, "{name}: VAL306");
        tripped[1] += expect;

        // VAL307: one finding per (type, region) bucket over its quota
        let mut buckets: BTreeMap<_, u32> = BTreeMap::new();
        for key in manifest.instances.iter().map(|i| quota_key(i)) {
            *buckets.entry(key).or_default() += 1;
        }
        let over = |((rtype, _), n): (&(&str, &str), &u32)| {
            catalog.get_str(rtype).is_some_and(|s| *n > s.default_quota)
        };
        let expect = buckets.iter().filter(|&b| over(b)).count();
        assert_eq!(count_code(codes(), "VAL307"), expect, "{name}: VAL307");
        tripped[2] += expect;
    }
    assert!(
        tripped.iter().all(|&n| n > 0),
        "each rule must be exercised: {tripped:?}"
    );
}

// ------------------------------------------ programs the memo cannot keep

/// The state `source` deploys to from nothing, in `env`.
fn deployed(env: &Env, source: &str) -> Snapshot {
    let program = cloudless::hcl::load(source, "main.tf").expect("the program parses");
    let manifest = expand(&program, &env.inputs, &env.modules, &env.data).expect("expands");
    let mut state = Snapshot::new();
    let changes = diff(&manifest, &state, &env.catalog, &env.data);
    let plan = Plan::build(changes, &state, &env.catalog);
    let mut cloud = Cloud::new(CloudConfig::exact(), 7);
    let report =
        Executor::new(Strategy::Sequential, &env.data).apply(&plan, &mut cloud, &mut state);
    assert!(report.all_ok(), "{:?}", report.errors());
    state
}

/// A program the memo cannot keep — a module whose block reads another
/// block's computed attribute, a program with a lint warning the default
/// gate lets through, one with an expansion warning (HCL032: an input no
/// variable declares), one with a validation warning (VAL204: a hardcoded
/// id where a reference belongs) — plans as the whole-graph diff: against
/// a converged state and a partly drifted one, a run's plan text is the
/// rendering of `diff` with the no-ops dropped, byte for byte; it counts
/// every instance as planned and keeps no memo.
#[test]
fn a_program_the_memo_cannot_keep_is_planned_by_diff() {
    let mut env = Env::new();
    env.modules.insert("./modules/network", NETWORK_MODULE);
    let module = format!(
        "module \"net\" {{\n  source = \"./modules/network\"\n  cidr   = \"10.1.0.0/16\"\n}}\n{SRC}"
    );
    let warned = format!("variable \"unused\" {{ default = \"x\" }}\n{SRC}");
    let stray = BTreeMap::from([("stray".to_owned(), Value::from("x"))]);
    // the subnet names the VPC it was deployed into by its id
    let vpc = deployed(&env, SRC);
    let vpc = vpc
        .get_str("aws_vpc.main")
        .expect("deployed")
        .id
        .to_string();
    let hardcoded = SRC.replace("aws_vpc.main.id", &format!("{vpc:?}"));
    let programs = [
        (module, BTreeMap::new(), None),
        (warned, BTreeMap::new(), None),
        (SRC.to_owned(), stray, None),
        (hardcoded, BTreeMap::new(), Some(SRC)),
    ];
    for (source, inputs, deploys) in programs {
        env.inputs = inputs;
        let converged = deployed(&env, deploys.unwrap_or(&source));
        let mut drifted = converged.clone();
        let mut subnet = converged
            .get_str("aws_subnet.app")
            .expect("deployed")
            .clone();
        subnet
            .attrs
            .insert("cidr_block".into(), Value::from("10.0.9.0/24"));
        drifted.put(subnet);
        drifted.remove(&"aws_s3_bucket.logs".parse().expect("an address"));
        for (state, changed) in [(converged, 0), (drifted, 2)] {
            env.state = state;
            let recorder: Arc<dyn Recorder> = FlightRecorder::shared(16);
            let ctx = PipelineCtx {
                recorder: &recorder,
                ..env.ctx()
            };
            let mut pipe = IncrementalPipeline::default();
            let out = pipe.run(&source, &ctx).expect("the program plans");
            let program = cloudless::hcl::load(&source, "main.tf").expect("parses");
            let manifest = expand(&program, &env.inputs, &env.modules, &env.data).expect("expands");
            let all = diff(&manifest, &env.state, &env.catalog, &env.data).into_iter();
            let changes: Vec<_> = all.filter(|c| !c.action.is_noop()).collect();
            assert_eq!(changes.len(), changed, "{source}");
            assert_eq!(out.plan_text, render(&changes), "{source}");
            let n = manifest.instances.len();
            let trace = out.trace.to_string();
            assert!(
                trace.contains(&format!("plan: full (diffed {n} instance(s))")),
                "{trace}"
            );
            let metrics = recorder.metrics().expect("a flight recorder keeps metrics");
            assert_eq!(metrics.counter("pipeline.instances_planned"), n as u64);
            assert!(!pipe.is_warm(), "{source}");
        }
    }
}

// ------------------------------------------------ positions: warm ≡ cold

/// What the engine shows a user for the last of `saves`, each converged in
/// turn on one engine: the refusal or the explanations of what failed, as
/// the CLI renders them. The `cold` twin drops its memo before the last
/// save; the warm one must have replanned every save after the first
/// incrementally.
fn shown(config: fn() -> Config, saves: &[&str], cold: bool) -> String {
    let mut engine = Cloudless::new(Config {
        recorder: cloudless::obs::FlightRecorder::shared(64),
        ..config()
    });
    let (last, earlier) = saves.split_last().expect("a save");
    for save in earlier {
        let _ = engine.converge(save);
    }
    if cold {
        engine.clear_pipeline_cache();
    }
    let shown = match engine.converge(last) {
        Ok(out) => out.explanations.iter().map(|e| e.render()).collect(),
        Err(ConvergeError::Validation(report)) => {
            let sources = cloudless::hcl::SourceMap::single("main.tf", *last);
            report.diagnostics.render_pretty(&sources)
        }
        Err(other) => panic!("{other}"),
    };
    let metrics = engine.metrics().expect("flight recorder keeps metrics");
    let warm_runs = metrics.counter("pipeline.runs_incremental") as usize;
    assert!(
        cold || warm_runs >= earlier.len(),
        "{warm_runs} warm run(s)"
    );
    shown
}

/// A position the engine reports is the file's, whatever the memo held:
/// the `prevent_destroy` refusal and the explanation of a failed apply
/// read the same after a warm replan as after a cold run — when the block
/// they point at is the one the save edited, and when the save only moved
/// it (an edit above it, the block itself parsed saves ago).
#[test]
fn reported_positions_are_the_same_warm_and_cold() {
    let exact = || Config {
        cloud: CloudConfig::exact(),
        ..Config::default()
    };
    let guarded = "resource \"aws_s3_bucket\" \"logs\" {\n  bucket = \"logs-main\"\n}\n\
        resource \"aws_vpc\" \"v\" {\n  cidr_block = \"10.0.0.0/16\"\n  \
        lifecycle {\n    prevent_destroy = true\n  }\n}\n";
    let replaced = guarded.replace("10.0.0.0/16", "10.9.0.0/16");
    let shifted = replaced.replace("  bucket =", "  # rotated\n  bucket =");

    // a quota the live resources use up: only the cloud can refuse `b`
    let tight = || {
        let mut cloud = CloudConfig::exact();
        cloud.quota_overrides.insert("aws_vpc".into(), 1);
        Config {
            cloud,
            validation_level: ValidationLevel::Schema,
            ..Config::default()
        }
    };
    let one = "resource \"aws_vpc\" \"a\" {\n  cidr_block = \"10.0.0.0/16\"\n}\n";
    let two = format!("{one}resource \"aws_vpc\" \"b\" {{\n  cidr_block = \"10.1.0.0/16\"\n}}\n");
    let moved = two.replacen("  cidr_block", "  # the first\n  cidr_block", 1);

    type Case<'a> = (fn() -> Config, Vec<&'a str>, &'a str);
    let cases: [Case<'_>; 4] = [
        (exact, vec![guarded, &replaced], "main.tf:4:1"),
        (exact, vec![guarded, &replaced, &shifted], "main.tf:5:1"),
        (tight, vec![one, &two], "main.tf:4:1"),
        (tight, vec![one, &two, &moved], "main.tf:5:1"),
    ];
    for (config, saves, at) in cases {
        let cold = shown(config, &saves, true);
        assert!(cold.contains(at), "expected {at} in:\n{cold}");
        assert_eq!(shown(config, &saves, false), cold);
    }
}

/// A report reads its positions off a cold expansion of the source, not
/// off a cold walk: a warm `prevent_destroy` refusal and a warm failed
/// apply each run nothing cold and leave the memo warm, and the next
/// one-block save splices.
#[test]
fn a_warm_report_keeps_the_memo_warm() {
    let guarded = "resource \"aws_s3_bucket\" \"logs\" {\n  bucket = \"logs-main\"\n}\n\
        resource \"aws_vpc\" \"v\" {\n  cidr_block = \"10.0.0.0/16\"\n  \
        lifecycle {\n    prevent_destroy = true\n  }\n}\n";
    let replaced = guarded.replace("10.0.0.0/16", "10.9.0.0/16");
    let one = "resource \"aws_vpc\" \"a\" {\n  cidr_block = \"10.0.0.0/16\"\n}\n";
    let two = format!("{one}resource \"aws_vpc\" \"b\" {{\n  cidr_block = \"10.1.0.0/16\"\n}}\n");
    let refused = |engine: &mut Cloudless| match engine.converge(&replaced) {
        Err(ConvergeError::Validation(report)) => {
            assert!(report.diagnostics.iter().any(|d| d.code == "LIF001"));
        }
        other => panic!("expected LIF001, got {:?}", other.map(|o| o.plan_text)),
    };
    // a quota the live resources use up: only the cloud can refuse `b`
    let failed = |engine: &mut Cloudless| {
        let outcome = engine.converge(&two).expect("the plan is admitted");
        assert!(!outcome.apply.all_ok() && !outcome.explanations.is_empty());
    };
    let exact = || Config {
        cloud: CloudConfig::exact(),
        ..Config::default()
    };
    let tight = || {
        let mut cloud = CloudConfig::exact();
        cloud.quota_overrides.insert("aws_vpc".into(), 1);
        Config {
            cloud,
            validation_level: ValidationLevel::Schema,
            ..Config::default()
        }
    };
    type Case<'a> = (fn() -> Config, &'a str, &'a dyn Fn(&mut Cloudless), String);
    let cases: [Case<'_>; 2] = [
        (exact, guarded, &refused, guarded.to_owned()),
        (
            tight,
            one,
            &failed,
            two.replace("10.1.0.0/16", "10.2.0.0/16"),
        ),
    ];
    for (config, first, report, next) in cases {
        let mut engine = Cloudless::new(Config {
            recorder: FlightRecorder::shared(64),
            ..config()
        });
        assert!(engine.converge(first).expect("converges").apply.all_ok());
        let cold_runs = |engine: &Cloudless| {
            let metrics = engine.metrics().expect("a flight recorder keeps metrics");
            metrics.counter("pipeline.runs_full")
        };
        let before = cold_runs(&engine);
        report(&mut engine);
        assert_eq!(cold_runs(&engine), before, "a report walked cold");
        assert!(engine.pipeline().is_warm());
        let (_, trace) = engine.plan_incremental(&next).expect("the save plans");
        assert!(
            trace.to_string().starts_with("pipeline: incremental\n"),
            "{trace}"
        );
    }
}

// ------------------------------------------------------ the trace, pinned

/// A fresh engine over the log and image an engine leaves once it has
/// converged `SRC`, the image's header replaced by `header`: the trace of
/// its first plan of a one-block edit.
fn first_trace(header: Option<&[u8]>) -> String {
    use cloudless::state::{LogStore, MemDevice};
    let exact = || Config {
        cloud: CloudConfig::exact(),
        ..Config::default()
    };
    let device = MemDevice::new().imaged(None);
    let (store, _) = LogStore::open_device(Box::new(device)).expect("opens");
    let mut engine = Cloudless::with_store(exact(), store, BTreeMap::new());
    assert!(engine.converge(SRC).expect("converges").apply.all_ok());
    let records = engine.cloud().export_records().clone();
    let mut device = engine.into_store().into_device();
    let log = device.read_all().expect("the log");
    let mut image = device.read_image().expect("the image").expect("written");
    if let Some(header) = header {
        let end = image.iter().position(|&b| b == b'\n').expect("a header") + 1;
        image.splice(..end, header.iter().copied());
    }
    let device = MemDevice::from_bytes(log).imaged(Some(image));
    let (store, _) = LogStore::open_device(Box::new(device)).expect("the log opens");
    let mut engine = Cloudless::with_store(exact(), store, records);
    let edited = SRC.replace("logs-main", "logs-next");
    let (_, trace) = engine.plan_incremental(&edited).expect("plans");
    trace.to_string()
}

/// `lines`, each ended by a newline: a trace as it prints.
fn rows(lines: &[&str]) -> String {
    lines.iter().map(|line| format!("{line}\n")).collect()
}

/// What each kind of run writes in its trace, row by row: a cold run, an
/// unchanged source, a one-block edit, an inserted block, a guard trip, a
/// run that keeps no memo, and an engine's first run warm from its image
/// and one whose image is refused.
#[test]
fn the_trace_reads_row_by_row() {
    let env = Env::new();
    let mut pipe = IncrementalPipeline::default();
    let mut trace = |source: &str| {
        let out = pipe.run(source, &env.ctx()).expect("the program plans");
        out.trace.to_string()
    };
    let edited = SRC.replace("logs-main", "logs-next");
    let inserted =
        format!("{edited}resource \"aws_s3_bucket\" \"more\" {{\n  bucket = \"more\"\n}}\n");
    // the VPC renamed: the old name is removed while the subnet reads it
    let renamed = inserted
        .replace("aws_vpc.main", "aws_vpc.core")
        .replace("\"main\"", "\"core\"");
    // a lint warning (ANA101): the memo is not kept
    let warned = format!("variable \"unused\" {{ default = \"x\" }}\n{renamed}");
    let cases = [
        (
            SRC,
            rows(&[
                "pipeline: full (no memo (first run))",
                "  parse: full (every block in scope)",
                "  lint: full (every block in scope)",
                "  expand: full (every block in scope)",
                "  validate: full (every block in scope)",
                "  analyze: full (every block in scope)",
                "  plan: full (diffed 3 instance(s))",
                "  memo: stored (run clean)",
            ]),
        ),
        (
            SRC,
            rows(&[
                "pipeline: incremental",
                "  parse: cached (no block in scope)",
                "  lint: cached (no block in scope)",
                "  expand: cached (no block in scope)",
                "  validate: cached (no block in scope)",
                "  analyze: cached (no block in scope)",
                "  plan: cached (re-planned 0/3 instance(s))",
            ]),
        ),
        (
            edited.as_str(),
            rows(&[
                "pipeline: incremental",
                "  parse: incremental (1 of 3 block(s) in scope)",
                "  lint: incremental (1 of 3 block(s) in scope)",
                "  expand: incremental (1 of 3 block(s) in scope)",
                "  validate: incremental (1 of 3 block(s) in scope)",
                "  analyze: incremental (1 of 3 block(s) in scope)",
                "  plan: incremental (re-planned 1/3 instance(s))",
            ]),
        ),
        (
            inserted.as_str(),
            rows(&[
                "pipeline: incremental",
                "  parse: incremental (1 of 4 block(s) in scope, +1 inserted, −0 removed)",
                "  lint: incremental (1 of 4 block(s) in scope, +1 inserted, −0 removed)",
                "  expand: incremental (1 of 4 block(s) in scope, +1 inserted, −0 removed)",
                "  validate: incremental (1 of 4 block(s) in scope, +1 inserted, −0 removed)",
                "  analyze: incremental (1 of 4 block(s) in scope, +1 inserted, −0 removed)",
                "  plan: incremental (re-planned 1/4 instance(s))",
            ]),
        ),
        (
            renamed.as_str(),
            rows(&[
                "pipeline: full (structural edit (a removed block is still read))",
                "  parse: full (every block in scope)",
                "  lint: full (every block in scope)",
                "  expand: full (every block in scope)",
                "  validate: full (every block in scope)",
                "  analyze: full (every block in scope)",
                "  plan: full (diffed 4 instance(s))",
                "  memo: stored (run clean)",
            ]),
        ),
        (
            warned.as_str(),
            rows(&[
                "pipeline: full (edit touches a non-resource block)",
                "  parse: full (every block in scope)",
                "  lint: full (every block in scope)",
                "  expand: full (every block in scope)",
                "  validate: full (every block in scope)",
                "  analyze: full (every block in scope)",
                "  plan: full (diffed 4 instance(s))",
                "  memo: skipped (run not clean)",
            ]),
        ),
    ];
    for (source, expected) in cases {
        assert_eq!(trace(source), expected, "{source}");
    }
    let warm = rows(&[
        "pipeline: incremental",
        "  parse: incremental (1 of 3 block(s) in scope)",
        "  lint: incremental (1 of 3 block(s) in scope)",
        "  expand: incremental (1 of 3 block(s) in scope)",
        "  validate: incremental (1 of 3 block(s) in scope)",
        "  analyze: incremental (1 of 3 block(s) in scope)",
        "  plan: incremental (re-planned 1/3 instance(s))",
        "  image: loaded (3 block(s) of serial 1; plans the edit)",
    ]);
    assert_eq!(first_trace(None), warm);
    let refused = rows(&[
        "pipeline: full (no memo (first run))",
        "  parse: full (every block in scope)",
        "  lint: full (every block in scope)",
        "  expand: full (every block in scope)",
        "  validate: full (every block in scope)",
        "  analyze: full (every block in scope)",
        "  plan: full (diffed 3 instance(s))",
        "  image: refused (MEM002: image of format v1, not \"cloudless-memo v3\")",
        "  memo: stored (run clean)",
    ]);
    assert_eq!(first_trace(Some(b"cloudless-memo v1\n")), refused);
}
