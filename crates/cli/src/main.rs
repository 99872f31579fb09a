//! `cloudless` — the CLI over the cloudless engine and its simulated
//! multi-cloud.
//!
//! A *session directory* holds the persistent world: the state log
//! (`state.log`) and the simulated cloud's live resources (`cloud.json`).
//! Commands mirror the Figure 1(b) lifecycle:
//!
//! ```text
//! cloudless init      <dir>                 # create a session
//! cloudless validate  <file.tf>             # plan's gates, on an empty session
//! cloudless lint      <file.tf>             # dataflow lint (analyze) only
//! cloudless plan      <dir> <file.tf>       # show what would change
//! cloudless watch     <dir> <file.tf>       # replan on every edit, O(edit)
//! cloudless apply     <dir> <file.tf>       # converge (validate→plan→apply)
//! cloudless destroy   <dir>                 # apply of the empty program
//! cloudless state     <dir>                 # list managed resources
//! cloudless drift     <dir>                 # refresh, report drift
//! cloudless reconcile <dir> <file.tf>       # fold drift back into the program
//! cloudless import    <dir> [--modules]     # port live cloud → IaC program
//! cloudless rogue     <dir> <addr> <k> <v>  # simulate an out-of-band edit
//! ```
//!
//! Everything is deterministic and offline: the "cloud" is the discrete-
//! event simulator, so `apply` reports *virtual* provisioning times.

mod session;

use std::process::ExitCode;
use std::sync::Arc;

use cloudless::deploy::{ApplyReport, DeadlinePolicy, ResiliencePolicy};
use cloudless::obs::{FlightRecorder, Recorder};
use cloudless::types::{ResourceAddr, SimDuration};
use cloudless::{Cloudless, Config, ConvergeError};

use session::Session;

fn main() -> ExitCode {
    let words: Vec<String> = std::env::args().skip(1).collect();
    let words: Vec<&str> = words.iter().map(String::as_str).collect();
    let result = match words.first().copied() {
        None => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(())
        }
        Some(first) => {
            let two = words[..words.len().min(2)].join(" ");
            match VERBS.iter().find(|verb| verb.0 == two || verb.0 == first) {
                Some(verb) => run(verb, &words[verb.0.split(' ').count()..]),
                None => Err(format!("unknown command {first:?}\n{USAGE}")),
            }
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: cloudless <command> [args]

commands:
  init      <dir>                      create a session directory
  validate  <file.tf>                  run plan's gates against an empty session
  lint      <file.tf>                  run the dataflow lint engine only
            [--deny warn]              fail on warnings, not just errors
            [--deny <rule>]            escalate a rule (id or name) to error
            [--allow <rule>]           suppress a rule entirely
            [--format text|json|sarif] output format (default text)
  analyze   <file.tf>                  whole-program concurrency analysis
                                       (happens-before, aliasing, lock-order)
                                       over the expanded manifest, plus lints
            [--state <dir>]            rank blast radius of the pending edit
                                       set against this session's state
            [--blast]                  what-if blast-radius ranking (no state)
            [--deny warn|<rule>]       as in lint
            [--allow <rule>]           as in lint
            [--format text|json|sarif] output format (default text)
  plan      <dir> <file.tf> [--target <addr>]   show the execution plan
  watch     <dir> <file.tf>            poll the file and replan on each edit
                                       through the memoized pipeline (O(edit)
                                       for single-block edits); never applies
            [--poll-ms <n>]            poll interval in ms (default 250)
            [--max-events <n>]         exit after n replans (default: forever)
  apply     <dir> <file.tf> [--target <addr>]   validate, plan and apply
            [--retries <n>]            per-node attempt budget (default 6)
            [--deadline-factor <f>]    cancel ops after f x estimate (default 4)
            [--trace <out.json>]       write a chrome://tracing trace of the apply
            [--events <out.jsonl>]     dump raw flight-recorder events as JSONL
  destroy   <dir>                      destroy all managed resources: apply of
                                       nothing
            [--retries <n>]            as in apply
            [--deadline-factor <f>]    as in apply
            [--trace <out.json>]       as in apply
            [--events <out.jsonl>]     as in apply
  state     <dir>                      list managed resources
  state     history  <dir>             list committed versions (time machine)
  state     rollback <dir> <serial>    time-travel state to a past serial
  state     fsck     <dir>             verify the delta log's integrity
  state     migrate  <dir>             upgrade a legacy session to the log store
  drift     <dir>                      refresh, report drift
  reconcile <dir> <file.tf>            fold drift back into the program:
                                       classify, synthesize a minimal patch,
                                       converge to a zero-diff plan
            [--dry-run]                show the patch, change nothing
            [--patch <out.tf>]         write the patched program to a file
            [--deny warn]              refuse patches with warning findings
  metrics   <dir>                      show metrics from the last apply
  import    <dir> [--modules]          port live cloud resources to IaC
  rogue     <dir> <addr> <key> <val>   simulate an out-of-band change";

/// A flag a verb defines: its name and, when it takes a value, what the
/// value is (`<flag> needs <what>`).
type Flag = (&'static str, Option<&'static str>);

/// A verb: its name, what each positional argument is, the flags it
/// defines, and what it does with them.
type Verb = (&'static str, &'static [&'static str], &'static [Flag], Body);

enum Body {
    /// Runs on its arguments alone.
    Bare(fn(&Args) -> Result<(), String>),
    /// Runs on the engine of the session its first argument names.
    InSession(fn(&Args, &mut Cloudless) -> Result<Ran, String>),
    /// The same under a flight recorder, which every layer of the engine
    /// emits into: its metrics are persisted for `cloudless metrics`.
    Recorded(fn(&Args, &Arc<FlightRecorder>, &mut Cloudless) -> Result<Ran, String>),
}
use Body::{Bare, InSession, Recorded};

const DIR: &str = "session directory";
const FILE: &str = "program file";
const ROGUE_ARGS: [&str; 4] = [DIR, "resource address", "attribute name", "attribute value"];

/// The flags of `analyze`; `lint` takes what follows `--blast`.
const ANALYZE_FLAGS: [Flag; 5] = [
    ("--state", Some("a session directory")),
    ("--blast", None),
    ("--deny", Some("`warn` or a rule")),
    ("--allow", Some("a rule id or name")),
    ("--format", Some("text, json or sarif")),
];
/// The flags of `apply`: `plan` takes `--target`, `destroy` what follows it.
const APPLY_FLAGS: [Flag; 5] = [
    ("--target", Some("a resource address")),
    ("--retries", Some("a count")),
    ("--deadline-factor", Some("a number")),
    ("--trace", Some("an output path")),
    ("--events", Some("an output path")),
];
const WATCH_FLAGS: [Flag; 2] = [
    ("--poll-ms", Some("a number")),
    ("--max-events", Some("a count")),
];
const RECONCILE_FLAGS: [Flag; 3] = [
    ("--dry-run", None),
    ("--patch", Some("an output path")),
    ("--deny", Some("`warn`")),
];

/// Every verb, the two-word ones ahead of the word they start with.
const VERBS: [Verb; 18] = [
    ("init", &[DIR], &[], Bare(init)),
    ("validate", &[FILE], &[], Bare(validate)),
    ("lint", &[FILE], ANALYZE_FLAGS.split_at(2).1, Bare(analyze)),
    ("analyze", &[FILE], &ANALYZE_FLAGS, Bare(analyze)),
    ("plan", &[DIR, FILE], &[APPLY_FLAGS[0]], InSession(plan)),
    ("watch", &[DIR, FILE], &WATCH_FLAGS, InSession(watch)),
    ("apply", &[DIR, FILE], &APPLY_FLAGS, Recorded(apply)),
    (
        "destroy",
        &[DIR],
        APPLY_FLAGS.split_at(1).1,
        Recorded(apply),
    ),
    ("state fsck", &[DIR], &[], Bare(state_fsck)),
    ("state migrate", &[DIR], &[], Bare(state_migrate)),
    ("state history", &[DIR], &[], InSession(state_history)),
    (
        "state rollback",
        &[DIR, "target serial"],
        &[],
        InSession(state_rollback),
    ),
    ("state", &[DIR], &[], InSession(state)),
    ("drift", &[DIR], &[], Recorded(drift)),
    (
        "reconcile",
        &[DIR, FILE],
        &RECONCILE_FLAGS,
        InSession(reconcile),
    ),
    ("metrics", &[DIR], &[], Bare(metrics)),
    ("import", &[DIR], &[("--modules", None)], InSession(import)),
    ("rogue", &ROGUE_ARGS, &[], InSession(rogue)),
];

/// A verb's arguments, scanned against what it defines.
struct Args<'a> {
    verb: &'static str,
    positional: Vec<&'a str>,
    /// Each flag given, in order, with its value (empty for a switch).
    given: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    /// `rest` is one argument per name in the verb's positional list, then
    /// any of its flags; anything else is refused.
    fn scan(&(verb, positional, flags, _): &Verb, rest: &[&'a str]) -> Result<Args<'a>, String> {
        let mut it = rest.iter().copied();
        let mut args = Args {
            verb,
            positional: Vec::new(),
            given: Vec::new(),
        };
        for what in positional {
            let arg = it
                .next()
                .ok_or_else(|| format!("missing {what}\n{USAGE}"))?;
            args.positional.push(arg);
        }
        while let Some(arg) = it.next() {
            let value = match flags.iter().find(|(name, _)| *name == arg) {
                None => return Err(format!("unknown {verb} option {arg:?}\n{USAGE}")),
                Some((_, None)) => "",
                Some((_, Some(what))) => it.next().ok_or_else(|| format!("{arg} needs {what}"))?,
            };
            args.given.push((arg, value));
        }
        Ok(args)
    }

    /// Every value `flag` was given, in order.
    fn values<'s>(&'s self, flag: &'s str) -> impl Iterator<Item = &'a str> + 's {
        let given = self.given.iter().filter(move |(name, _)| *name == flag);
        given.map(|(_, value)| *value)
    }

    /// The value `flag` was given last, if it was given at all.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values(flag).last()
    }
}

/// What a verb's run did to the world its session holds.
enum Ran {
    /// Neither state nor the cloud's records can have changed: no session
    /// file is rewritten.
    ReadOnly,
    /// They may have: the session is saved, then the verb ends with this.
    Changed(Result<(), String>),
}

/// Every verb is this: scan the arguments and, for one that works on a
/// session's engine, open → run → report → close.
fn run(verb: &Verb, rest: &[&str]) -> Result<(), String> {
    let args = Args::scan(verb, rest)?;
    match verb.3 {
        Bare(body) => body(&args),
        InSession(body) => in_session(args.positional[0], None, |engine| body(&args, engine)),
        Recorded(body) => {
            let recorder = Arc::new(FlightRecorder::default());
            let instrumented = (resilience(&args)?, recorder.clone() as Arc<dyn Recorder>);
            in_session(args.positional[0], Some(instrumented), |engine| {
                body(&args, &recorder, engine)
            })
        }
    }
}

/// Open the session in `dir`, run `body` on its engine, close it. An `Err`
/// from `body` is a refusal, before any change.
fn in_session(
    dir: &str,
    instrumented: Option<(ResiliencePolicy, Arc<dyn Recorder>)>,
    body: impl FnOnce(&mut Cloudless) -> Result<Ran, String>,
) -> Result<(), String> {
    let session = Session::load(dir)?;
    let engine = session.engine(instrumented)?;
    run_and_close(&session, engine, body)
}

/// The closing half of [`in_session`]: metrics persist whenever the engine
/// recorded any (`cloudless metrics` renders them), the session only when
/// the verb says it may have changed. A verb that read a record of the log
/// that did not decode fails naming it, and writes no session file.
fn run_and_close(
    session: &Session,
    mut engine: Cloudless,
    body: impl FnOnce(&mut Cloudless) -> Result<Ran, String>,
) -> Result<(), String> {
    let ran = body(&mut engine);
    if let Some(metrics) = engine.metrics() {
        session.save_metrics(&metrics)?;
    }
    match ran? {
        // what a verb read of a record that did not decode was its head
        Ran::ReadOnly => engine.state().check().map_err(|e| e.to_string()),
        Ran::Changed(end) => {
            session.save(&engine)?;
            end
        }
    }
}

fn parsed<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| format!("bad {what}: {e}"))
}

fn read_program(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn init(args: &Args) -> Result<(), String> {
    let dir = args.positional[0];
    Session::init(dir)?;
    println!("session initialized in {dir}");
    println!("next: edit a .tf file and run `cloudless apply {dir} main.tf`");
    Ok(())
}

/// `cloudless validate`: what `plan` would decide about the program on a
/// fresh, empty session — the same gates, the same refusals.
fn validate(args: &Args) -> Result<(), String> {
    let file = args.positional[0];
    let source = read_program(file)?;
    let mut planned = Cloudless::new(Config::default())
        .plan(&source, &[])
        .map_err(|e| refusal(e, &source, file))?;
    let diagnostics = &mut planned.validation.diagnostics;
    if diagnostics.is_empty() {
        println!(
            "ok: {} resource instance(s), no findings",
            planned.manifest.instances.len()
        );
    } else {
        let sources = cloudless::hcl::SourceMap::single(file, &source);
        diagnostics.items.iter_mut().for_each(|d| named(d, file));
        println!("{}", diagnostics.render_pretty(&sources));
    }
    Ok(())
}

/// `d` as naming `file`: the engine names every program it parses
/// [`cloudless::PROGRAM_FILE`], whatever path the user gave.
fn named(d: &mut cloudless::hcl::Diagnostic, file: &str) {
    if d.file == cloudless::PROGRAM_FILE {
        d.file = file.to_owned();
    }
}

/// Print a lint report in `format`; deny-level findings are the error.
fn finish_lint(
    report: &cloudless::LintReport,
    config: &cloudless::LintConfig,
    format: &str,
    sources: &cloudless::hcl::SourceMap,
) -> Result<(), String> {
    match format {
        "json" => println!("{}", report.to_json()),
        "sarif" => println!("{}", report.to_sarif()),
        _ => print!("{}", report.render_text(sources)),
    }
    if report.fails(config) {
        Err(format!(
            "{} deny-level finding(s)",
            report.deny_level(config)
        ))
    } else {
        Ok(())
    }
}

/// `cloudless analyze`, and `cloudless lint`: the same up to the
/// program-level lints, where `lint` stops.
fn analyze(args: &Args) -> Result<(), String> {
    let file = args.positional[0];
    let mut config = cloudless::LintConfig::default();
    for what in args.values("--deny") {
        if what == "warn" {
            config.fail_on = cloudless::hcl::Severity::Warning;
        } else if cloudless::analyze::rule(what).is_some() {
            config.deny.push(what.to_owned());
        } else {
            return Err(format!("--deny: unknown rule {what:?}"));
        }
    }
    for what in args.values("--allow") {
        if cloudless::analyze::rule(what).is_none() {
            return Err(format!("--allow: unknown rule {what:?}"));
        }
        config.allow.push(what.to_owned());
    }
    let format = args.value("--format").unwrap_or("text");
    if !matches!(format, "text" | "json" | "sarif") {
        return Err(format!("--format: unknown format {format:?}"));
    }
    let source = read_program(file)?;
    let sources = cloudless::hcl::SourceMap::single(file, &source);
    let rejected = |d: cloudless::hcl::Diagnostics| {
        format!("program rejected:\n{}", d.render_pretty(&sources))
    };
    let modules = cloudless::hcl::ModuleLibrary::new();
    // Program-level lints first; parse failures surface here.
    let program = cloudless::hcl::load(&source, file).map_err(rejected)?;
    let mut report = cloudless::analyze::lint_program(&program, &modules, &config);
    if args.verb == "lint" {
        return finish_lint(&report, &config, format, &sources);
    }
    // Expand to the instance level (plan-time unknowns deferred) and run
    // the whole-program concurrency passes over the sealed DAG.
    let manifest = cloudless::hcl::program::expand(
        &program,
        &std::collections::BTreeMap::new(),
        &modules,
        &cloudless::hcl::eval::DeferAll,
    )
    .map_err(rejected)?;
    // Blast radius is opt-in: --state derives the edit set from the
    // session's pending diff; bare --blast ranks hypothetical edits.
    let blast = if let Some(dir) = args.value("--state") {
        // a program `plan` refuses has no pending edit set
        let mut edits = Vec::new();
        in_session(dir, None, |engine| {
            let planned = engine
                .plan(&source, &[])
                .map_err(|e| refusal(e, &source, file))?;
            let nodes = planned.plan.graph.iter();
            edits = nodes.map(|(_, node)| node.change.addr.clone()).collect();
            Ok(Ran::ReadOnly)
        })?;
        Some(cloudless::analyze::BlastRequest::EditSet(edits))
    } else if args.value("--blast").is_some() {
        Some(cloudless::analyze::BlastRequest::WhatIf { top: 8 })
    } else {
        None
    };
    let outcome = cloudless::analyze::analyze_manifest(&manifest, &config, blast.as_ref());
    report.findings.extend(outcome.report.findings);
    report.suppressed += outcome.report.suppressed;
    let finished = finish_lint(&report, &config, format, &sources);
    if format == "text" {
        eprintln!(
            "analyzed {} instance(s), {} edge(s), {} pass(es) in {:?}",
            outcome.stats.instances, outcome.stats.edges, outcome.stats.passes, outcome.stats.wall
        );
    }
    finished
}

/// Why `plan`, `apply` or `reconcile` refused a program, rendered against
/// its source, which the user named `file`.
fn refusal(err: ConvergeError, source: &str, file: &str) -> String {
    let sources = cloudless::hcl::SourceMap::single(file, source);
    let render = |mut d: cloudless::hcl::Diagnostics| {
        d.items.iter_mut().for_each(|d| named(d, file));
        d.render_pretty(&sources)
    };
    match err {
        ConvergeError::Frontend(d) => format!("program rejected:\n{}", render(d)),
        ConvergeError::Lint(mut r) => {
            r.findings
                .iter_mut()
                .for_each(|f| named(&mut f.diagnostic, file));
            format!(
                "lint failed ({} finding(s)); fix them or rerun with a relaxed gate:\n{}",
                r.findings.len(),
                r.render_text(&sources)
            )
        }
        ConvergeError::Validation(r) => format!("validation failed:\n{}", render(r.diagnostics)),
        ConvergeError::PolicyDenied(actions) => {
            let mut msg = String::from("plan denied by policy:");
            for a in actions {
                msg.push_str(&format!("\n  {a:?}"));
            }
            msg
        }
        err @ (ConvergeError::State(_) | ConvergeError::Unreadable(_)) => err.to_string(),
    }
}

/// How a verb that acts on the cloud ends on `err`. A refusal comes before
/// any change. A refused commit comes after the run: what it did to the
/// cloud is real and is saved, even though the state that would describe
/// it is not committed (the snapshot the engine holds back dies with this
/// process), and `reconcile` is what picks it up.
fn stopped(err: ConvergeError, source: &str, args: &Args) -> Result<Ran, String> {
    if !matches!(err, ConvergeError::State(_)) {
        let file = args.positional.get(1).copied().unwrap_or("main.tf");
        return Err(refusal(err, source, file));
    }
    let dir = args.positional[0];
    let recover = match args.positional.get(1) {
        Some(file) => format!(
            "`cloudless reconcile {dir} {file}` adopts what this run created; \
             a plain apply would create it a second time"
        ),
        None => format!(
            "`cloudless reconcile {dir} <file.tf>` over an empty program drops \
             what this run destroyed; a plain destroy would fail on it"
        ),
    };
    Ok(Ran::Changed(Err(format!(
        "{err}; the cloud was changed but the state was not. \
         Once the log is writable, {recover}"
    ))))
}

fn targets(args: &Args) -> Result<Vec<ResourceAddr>, String> {
    let addrs = args.values("--target");
    addrs.map(|addr| parsed(addr, "--target address")).collect()
}

/// `cloudless plan`: the deciding half of `apply` and nothing else — the
/// same gates, the same refusals and exit code, the same plan text.
fn plan(args: &Args, engine: &mut Cloudless) -> Result<Ran, String> {
    let file = args.positional[1];
    let source = read_program(file)?;
    let planned = engine
        .plan(&source, &targets(args)?)
        .map_err(|e| refusal(e, &source, file))?;
    print!("{}", planned.plan_text);
    Ok(Ran::ReadOnly)
}

/// `cloudless watch`: poll a program file and replan it through the
/// engine's memoized pipeline on every content change. One engine lives for
/// the whole watch, so after the first (cold) plan each edit re-runs only
/// the stages and the resource subgraph it impacts — the
/// [`cloudless::ChangeTrace`] printed under each plan shows exactly which.
/// Plan-only: never locks, applies, or saves the session.
fn watch(args: &Args, engine: &mut Cloudless) -> Result<Ran, String> {
    use std::io::Write;

    let file = args.positional[1];
    let number = |flag, default| args.value(flag).map_or(Ok(default), |n| parsed(n, flag));
    let poll_ms: u64 = number("--poll-ms", 250)?.max(1);
    let max_events: u64 = number("--max-events", 0)?; // 0 = watch forever
    println!("watching {file} (poll every {poll_ms}ms; ctrl-c to stop)");
    let mut last: Option<String> = None;
    let mut events: u64 = 0;
    loop {
        match std::fs::read_to_string(file) {
            Ok(source) => {
                if last.as_deref() != Some(source.as_str()) {
                    events += 1;
                    println!("--- event {events}: {file} changed ---");
                    match engine.plan_incremental(&source) {
                        Ok((plan_text, trace)) => {
                            print!("{plan_text}");
                            print!("{trace}");
                        }
                        Err(e) => println!("plan failed: {e}"),
                    }
                    let _ = std::io::stdout().flush();
                    last = Some(source);
                    if max_events > 0 && events >= max_events {
                        println!("({events} event(s) seen; exiting)");
                        return Ok(Ran::ReadOnly);
                    }
                }
            }
            // mid-save or briefly missing: keep polling rather than die
            Err(e) => eprintln!("cannot read {file}: {e} (still watching)"),
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
    }
}

/// The resilience policy `--retries` and `--deadline-factor` ask for.
fn resilience(args: &Args) -> Result<ResiliencePolicy, String> {
    let mut resilience = ResiliencePolicy::standard();
    if let Some(n) = args.value("--retries") {
        let n: u32 = parsed(n, "--retries count")?;
        resilience.retry.max_attempts_per_node = n.max(1);
    }
    if let Some(f) = args.value("--deadline-factor") {
        let factor: f64 = parsed(f, "--deadline-factor")?;
        let floor = SimDuration::from_secs(30);
        resilience.deadline = if factor <= 0.0 {
            DeadlinePolicy::None
        } else {
            DeadlinePolicy::EstimateFactor { factor, floor }
        };
    }
    Ok(resilience)
}

/// Write the recorder's events where `--trace` and `--events` ask.
fn export(args: &Args, recorder: &FlightRecorder) -> Result<(), String> {
    use cloudless::obs::export::{to_chrome_trace, to_jsonl};
    let exporters: [(_, fn(&_) -> _, _); 2] = [
        ("trace", to_chrome_trace, " (open in chrome://tracing)"),
        ("events", to_jsonl, ""),
    ];
    for (name, render, note) in exporters {
        if let Some(path) = args.value(&format!("--{name}")) {
            let captured = recorder.events();
            std::fs::write(path, render(&captured))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            let n = captured.len();
            println!("{name}: {n} event(s) written to {path}{note}");
        }
    }
    Ok(())
}

/// `cloudless apply <dir> <file.tf>`, and `cloudless destroy <dir>`: the
/// apply of the empty program.
fn apply(
    args: &Args,
    recorder: &Arc<FlightRecorder>,
    engine: &mut Cloudless,
) -> Result<Ran, String> {
    let source = &match args.positional.get(1) {
        Some(file) => read_program(file)?,
        None => String::new(),
    };
    let converged = engine.converge_targeted(source, &targets(args)?);
    let exported = export(args, recorder);
    let outcome = match converged {
        Ok(outcome) => outcome,
        Err(err) => return stopped(err, source, args),
    };
    print!("{}", outcome.plan_text);
    print_apply(&outcome.apply);
    for ex in &outcome.explanations {
        print!("{}", ex.render());
    }
    let end = if outcome.apply.all_ok() {
        let managed = engine.state().len();
        println!("state: {managed} resource(s) under management");
        Ok(())
    } else {
        Err(format!(
            "{} resource(s) failed; what landed is in state — fix the cause and \
             run `{}` again to finish",
            outcome.apply.failures(),
            args.verb
        ))
    };
    Ok(Ran::Changed(exported.and(end)))
}

/// What an apply did, in one line; `reconcile` prints it for its residual
/// plan.
fn print_apply(apply: &ApplyReport) {
    println!(
        "apply ({}): {} op(s), {} attempt(s), {} retry(ies), virtual makespan {}",
        apply.strategy,
        apply.ops_submitted,
        apply.total_attempts(),
        apply.retries,
        apply.makespan()
    );
}

fn state(_: &Args, engine: &mut Cloudless) -> Result<Ran, String> {
    let state = engine.state();
    let mut listed = String::new();
    for (addr, rec) in state.resources() {
        let line = format!("{addr:<50} {:<16} {}\n", rec.id.to_string(), rec.region);
        listed.push_str(&line);
    }
    // nothing is listed when a record listed does not decode
    state.check().map_err(|e| e.to_string())?;
    if state.is_empty() {
        println!("(no resources under management)");
    }
    print!("{listed}");
    Ok(Ran::ReadOnly)
}

/// `cloudless state fsck <dir>`: verify the delta log offline — record
/// checksums, content-address integrity, undo-chain consistency, and
/// checkpoint reachability. Exits non-zero unless the log is clean. The memo
/// image beside it is reported too — valid for a serial (and, when that is
/// not the head's, that the next run re-plans every instance), stale with
/// the reason a fresh engine would refuse it, or absent — and never decides
/// the exit status: it is a cache.
fn state_fsck(args: &Args) -> Result<(), String> {
    let session = Session::load(args.positional[0])?;
    let log = session.log_path();
    let report = cloudless::state::fsck_file(&log)
        .map_err(|e| format!("cannot read {}: {e}", log.display()))?;
    print!("{}", report.render());
    // an engine opens a torn log by cutting it: only a clean one is opened
    let image = match report.clean() {
        true => session
            .engine(None)
            .map(|engine| (engine.check_memo_image(), engine.state().serial)),
        false => Err("the log is not clean".to_owned()),
    };
    match image {
        Ok((Ok(Some(serial)), head)) if serial != head => println!(
            "memo.bin: valid for serial {serial} (head is {head}: the next run re-plans every instance)"
        ),
        Ok((Ok(Some(serial)), _)) => println!("memo.bin: valid for serial {serial}"),
        Ok((Ok(None), _)) => println!("memo.bin: absent"),
        Ok((Err(refusal), _)) => println!("memo.bin: stale ({refusal})"),
        Err(why) => println!("memo.bin: not checked ({why})"),
    }
    if report.clean() {
        Ok(())
    } else {
        Err(format!("{} is not clean", log.display()))
    }
}

/// `cloudless state migrate <dir>`: one-shot upgrade of a legacy
/// full-JSON session to the log store, preserving every historical
/// version found in `history.json` (if present) byte-identically.
fn state_migrate(args: &Args) -> Result<(), String> {
    let dir = args.positional[0];
    let report = cloudless::state::migrate_dir(std::path::Path::new(dir))?;
    println!(
        "migrated: {} version(s), {} resource(s), state.log is {} byte(s)",
        report.versions, report.resources, report.log_bytes
    );
    println!("verify with `cloudless state fsck {dir}`");
    Ok(())
}

/// `cloudless state history <dir>`: the time machine — every committed
/// version with its delta size, straight off the log (no state reads).
fn state_history(_: &Args, engine: &mut Cloudless) -> Result<Ran, String> {
    if engine.history().is_empty() {
        println!("(no versions committed yet)");
    }
    for v in engine.history().iter() {
        println!(
            "{:>6}  {}  {:<12} +{:<4} -{:<4} {}",
            v.serial,
            v.at,
            v.author,
            v.puts.len(),
            v.dels.len(),
            v.message
        );
    }
    Ok(Ran::ReadOnly)
}

/// `cloudless state rollback <dir> <serial>`: time-travel the *state
/// document* to a historical serial (O(delta) against the log). The
/// simulated cloud is untouched; a following `apply`/`drift` reconciles
/// infrastructure against the restored state.
fn state_rollback(args: &Args, engine: &mut Cloudless) -> Result<Ran, String> {
    let serial: u64 = parsed(args.positional[1], "serial")?;
    match engine.rollback_state(serial)? {
        Some(new_serial) => {
            println!("state rolled back to serial {serial} (committed as serial {new_serial})")
        }
        None => println!("state already matches serial {serial}; nothing to do"),
    }
    Ok(Ran::Changed(Ok(())))
}

/// `cloudless drift <dir>`: the refresh an engine without a sync point
/// makes, read into a copy of state that is dropped, plus every cloud
/// record no state entry holds.
fn drift(_: &Args, _: &Arc<FlightRecorder>, engine: &mut Cloudless) -> Result<Ran, String> {
    let state = engine.state().clone();
    let mut copy = std::borrow::Cow::Borrowed(&state);
    let refresh = cloudless::deploy::refresh_all(engine.cloud_mut(), &mut copy, "cloudless-drift");
    let records = engine.cloud().export_records().keys();
    let unmanaged = records.filter(|id| state.by_id(id.as_str()).is_none());
    let modified = refresh.updated.iter().map(|a| format!("Modified: {a}"));
    let events: Vec<String> = modified
        .chain(refresh.missing.iter().map(|a| format!("Deleted: {a}")))
        .chain(unmanaged.map(|id| format!("Unmanaged: {id}")))
        .collect();
    if events.is_empty() {
        println!("no drift detected ({} API calls)", refresh.reads);
    } else {
        for event in &events {
            println!("{event}");
        }
        println!(
            "{} drift event(s); `cloudless apply` overwrites them, `cloudless reconcile` folds them into the program ({} API calls)",
            events.len(),
            refresh.reads
        );
    }
    // a refresh only reads: the metrics are all it leaves behind
    Ok(Ran::ReadOnly)
}

fn reconcile(args: &Args, engine: &mut Cloudless) -> Result<Ran, String> {
    let patch_out = args.value("--patch");
    for what in args.values("--deny") {
        if what != "warn" {
            return Err(format!("--deny: only `warn` is supported, got {what:?}"));
        }
        engine.set_lint_gate(cloudless::LintGate::DenyWarnings);
    }
    // a dry run changes nothing; a real one may have absorbed undeclared-attr
    // drift into state even when no patch came of it, and persisting that
    // is what stops `drift` flagging it
    let dry_run = args.value("--dry-run").is_some();
    let ran = |end| {
        if dry_run {
            Ran::ReadOnly
        } else {
            Ran::Changed(end)
        }
    };
    let source = read_program(args.positional[1])?;
    let report = match engine.reconcile(&source, dry_run) {
        Ok(report) => report,
        Err(err) => {
            let stopped = stopped(err, &source, args);
            return stopped.map_err(|refused| format!("reconcile refused: {refused}"));
        }
    };
    println!(
        "refresh: {} read(s), {} updated, {} missing",
        report.refresh.reads,
        report.refresh.updated.len(),
        report.refresh.missing.len()
    );
    if report.plan.is_empty() && report.dropped.is_empty() {
        println!("no drift to fold back — the program already matches the cloud");
        return Ok(ran(Ok(())));
    }
    for op in &report.plan.ops {
        println!("  + {}", op.describe());
    }
    for (op, why) in &report.dropped {
        println!("  - dropped {} ({why})", op.describe());
    }
    for addr in &report.plan.overwrites {
        println!("  ~ {addr}: drift not expressible as an edit; next apply overwrites it");
    }
    for (id, why) in &report.plan.skipped {
        println!("  ? {id}: skipped ({why})");
    }
    println!(
        "patch: {} edit op(s), {} import(s), {} move(s), {} repair iteration(s)",
        report.plan.ops.len(),
        report.plan.imports.len(),
        report.plan.moves.len(),
        report.iterations
    );
    if let Some(path) = patch_out {
        if let Err(e) = std::fs::write(path, &report.patched_source) {
            return Ok(ran(Err(format!("cannot write {path}: {e}"))));
        }
        println!("patched program written to {path}");
    }
    let Some(apply) = &report.apply else {
        print!("{}", report.plan_text);
        let replans = if report.converged {
            "re-plans"
        } else {
            "does NOT re-plan"
        };
        println!("dry run: nothing changed; patched program {replans} to a zero-diff plan");
        return Ok(ran(Ok(())));
    };
    print_apply(apply);
    if !report.converged {
        let end = "reconcile applied but the patched program still plans changes";
        return Ok(ran(Err(end.into())));
    }
    if patch_out.is_none() {
        println!("# patched program (commit this):");
        print!("{}", report.patched_source);
    }
    let managed = engine.state().len();
    println!("reconciled: {managed} resource(s) under management, plan is zero-diff");
    Ok(ran(Ok(())))
}

fn metrics(args: &Args) -> Result<(), String> {
    let dir = args.positional[0];
    match Session::load(dir)?.load_metrics()? {
        Some(snapshot) => print!("{}", snapshot.render()),
        None => println!("(no metrics recorded yet — run `cloudless apply {dir} <file.tf>` first)"),
    }
    Ok(())
}

fn import(args: &Args, engine: &mut Cloudless) -> Result<Ran, String> {
    let records: Vec<_> = engine.cloud().export_records().values().cloned().collect();
    let catalog = engine.cloud().catalog();
    if records.is_empty() {
        println!("(the cloud is empty — nothing to import)");
    } else if args.value("--modules").is_some() {
        let port = cloudless::port::extract_modules(&records, catalog);
        println!("# root module ({} module call(s))", port.module_calls);
        print!("{}", cloudless::hcl::render_file(&port.file));
        for i in 1..=port.module_defs {
            let key = format!("modules/stack_{i}");
            if let Some(src) = port.modules.get(&key) {
                println!("\n# --- {key}/main.tf ---");
                print!("{src}");
            }
        }
    } else {
        let port = cloudless::port::optimized_port(&records, catalog);
        print!("{}", cloudless::hcl::render_file(&port.file));
    }
    Ok(Ran::ReadOnly)
}

fn rogue(args: &Args, engine: &mut Cloudless) -> Result<Ran, String> {
    let (dir, key, value) = (args.positional[0], args.positional[2], args.positional[3]);
    let addr: ResourceAddr = parsed(args.positional[1], "address")?;
    let id = engine
        .state()
        .get(&addr)
        .ok_or_else(|| format!("{addr} is not under management"))?
        .id
        .clone();
    engine
        .cloud_mut()
        .out_of_band_update(
            "rogue-cli",
            &id,
            [(key.to_owned(), cloudless::types::Value::from(value))].into(),
        )
        .map_err(|e| e.to_string())?;
    println!("mutated {addr} ({id}) out of band: {key} = {value:?}");
    println!("run `cloudless drift {dir}` to see it detected");
    Ok(Ran::Changed(Ok(())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::Ordering;

    /// `USAGE` and `VERBS` name the same verbs, and under each verb the
    /// same flags: a usage line two spaces in starts a verb (its words up to
    /// the first `<…>`), and every `[--flag …]` down to the next one is its.
    #[test]
    fn usage_and_the_verb_table_agree() {
        let mut usage: Vec<(String, BTreeSet<&str>)> = Vec::new();
        for line in USAGE
            .lines()
            .skip_while(|line| *line != "commands:")
            .skip(1)
        {
            if line.starts_with("  ") && !line.starts_with("   ") {
                let words = line.split_whitespace();
                let name: Vec<&str> = words.take_while(|w| !w.starts_with('<')).collect();
                usage.push((name.join(" "), BTreeSet::new()));
            }
            let flags = line.split("[--").skip(1);
            let names = flags.map(|f| f.split([' ', ']']).next().expect("a flag name"));
            let verb = usage.last_mut().expect("a verb line comes first");
            verb.1.extend(names);
        }
        let mut table: Vec<(String, BTreeSet<&str>)> = VERBS
            .iter()
            .map(|(name, _, flags, _)| {
                let flags = flags.iter().map(|(flag, _)| flag.trim_start_matches("--"));
                (name.to_string(), flags.collect())
            })
            .collect();
        usage.sort();
        table.sort();
        assert_eq!(usage, table);
    }

    /// `apply` (or `destroy`, after an apply) in a session whose state log
    /// refuses the commit: what the verb ended with, and the `cloud.json`
    /// it left.
    fn refused_commit(verb: &str) -> (Result<(), String>, String) {
        let dir =
            std::env::temp_dir().join(format!("cloudless-cli-unit-{verb}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_text = dir.to_str().expect("utf8 tmp path");
        let session = Session::init(dir_text).expect("init");
        let program = dir.join("main.tf");
        std::fs::write(&program, common::SRC).expect("write program");

        let (mut engine, healthy, _) = common::flaky_engine();
        let mut rest = vec![dir_text];
        if verb == "destroy" {
            assert!(engine
                .converge(common::SRC)
                .expect("applied")
                .apply
                .all_ok());
        } else {
            rest.push(program.to_str().expect("utf8 tmp path"));
        }
        let verb = VERBS.iter().find(|v| v.0 == verb).expect("a verb");
        let args = Args::scan(verb, &rest).expect("scans");
        let recorder = Arc::new(FlightRecorder::default());

        healthy.store(false, Ordering::SeqCst);
        let end = run_and_close(&session, engine, |engine| apply(&args, &recorder, engine));
        let cloud = std::fs::read_to_string(dir.join("cloud.json")).expect("cloud.json");
        let _ = std::fs::remove_dir_all(&dir);
        (end, cloud)
    }

    #[test]
    fn an_apply_whose_commit_is_refused_still_saves_what_it_did_to_the_cloud() {
        let (end, cloud) = refused_commit("apply");
        let message = end.expect_err("the commit was refused");
        assert!(message.contains("state commit failed"), "{message}");
        assert!(
            message.contains("the cloud was changed but the state was not"),
            "{message}"
        );
        assert!(
            message.contains("adopts what this run created"),
            "{message}"
        );
        assert!(
            cloud.contains("aws_vpc") && cloud.contains("10.0.0.0/16"),
            "{cloud}"
        );
    }

    #[test]
    fn a_destroy_whose_commit_is_refused_still_saves_what_it_did_to_the_cloud() {
        let (end, cloud) = refused_commit("destroy");
        let message = end.expect_err("the commit was refused");
        assert!(
            message.contains("the cloud was changed but the state was not"),
            "{message}"
        );
        assert!(
            message.contains("drops what this run destroyed"),
            "{message}"
        );
        assert_eq!(cloud, "{}", "the vpc is gone from the saved cloud");
    }
}

/// The engine over a state log that can be made to refuse appends.
#[cfg(test)]
#[path = "../../core/tests/common/mod.rs"]
mod common;
