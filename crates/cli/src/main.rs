//! `cloudless` — the CLI over the cloudless engine and its simulated
//! multi-cloud.
//!
//! A *session directory* holds the persistent world: the golden state
//! (`state.json`) and the simulated cloud's live resources
//! (`cloud.json`). Commands mirror the Figure 1(b) lifecycle:
//!
//! ```text
//! cloudless init      <dir>                 # create a session
//! cloudless validate  <file.tf>             # plan's gates, on an empty session
//! cloudless lint      <file.tf>             # dataflow lint (analyze) only
//! cloudless plan      <dir> <file.tf>       # show what would change
//! cloudless watch     <dir> <file.tf>       # replan on every edit, O(edit)
//! cloudless apply     <dir> <file.tf>       # converge (validate→plan→apply)
//! cloudless destroy   <dir>                 # tear everything down
//! cloudless state     <dir>                 # list managed resources
//! cloudless drift     <dir>                 # scan for out-of-band changes
//! cloudless reconcile <dir> <file.tf>       # fold drift back into the program
//! cloudless import    <dir> [--modules]     # port live cloud → IaC program
//! cloudless rogue     <dir> <addr> <k> <v>  # simulate an out-of-band edit
//! ```
//!
//! Everything is deterministic and offline: the "cloud" is the discrete-
//! event simulator, so `apply` reports *virtual* provisioning times.

mod session;

use std::process::ExitCode;

use cloudless::deploy::{DeadlinePolicy, ResiliencePolicy};
use cloudless::obs::{FlightRecorder, Recorder};
use cloudless::types::SimDuration;
use cloudless::{Cloudless, Config, ConvergeError};

use session::Session;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut args = args.iter().map(String::as_str);
    let Some(command) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest: Vec<&str> = args.collect();
    let result = match command {
        "init" => cmd_init(&rest),
        "validate" => cmd_validate(&rest),
        "lint" => cmd_lint(&rest),
        "analyze" => cmd_analyze(&rest),
        "plan" => cmd_plan(&rest),
        "watch" => cmd_watch(&rest),
        "apply" => cmd_apply(&rest),
        "destroy" => cmd_destroy(&rest),
        "state" => cmd_state(&rest),
        "drift" => cmd_drift(&rest),
        "reconcile" => cmd_reconcile(&rest),
        "metrics" => cmd_metrics(&rest),
        "import" => cmd_import(&rest),
        "rogue" => cmd_rogue(&rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
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
  destroy   <dir>                      destroy all managed resources
  state     <dir>                      list managed resources
  state     history  <dir>             list committed versions (time machine)
  state     rollback <dir> <serial>    time-travel state to a past serial
  state     fsck     <dir>             verify the delta log's integrity
  state     migrate  <dir>             upgrade a legacy session to the log store
  drift     <dir>                      scan the cloud for drift
  reconcile <dir> <file.tf>            fold drift back into the program:
                                       classify, synthesize a minimal patch,
                                       converge to a zero-diff plan
            [--dry-run]                show the patch, change nothing
            [--patch <out.tf>]         write the patched program to a file
            [--deny warn]              refuse patches with warning findings
  metrics   <dir>                      show metrics from the last apply
  import    <dir> [--modules]          port live cloud resources to IaC
  rogue     <dir> <addr> <key> <val>   simulate an out-of-band change";

fn want<'a>(rest: &'a [&str], i: usize, what: &str) -> Result<&'a str, String> {
    rest.get(i)
        .copied()
        .ok_or_else(|| format!("missing {what}\n{USAGE}"))
}

/// Refuse whatever follows a verb's `n` positional arguments.
fn no_more(rest: &[&str], n: usize, verb: &str) -> Result<(), String> {
    match rest.get(n) {
        None => Ok(()),
        Some(other) => Err(format!("unknown {verb} option {other:?}\n{USAGE}")),
    }
}

fn read_program(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn cmd_init(rest: &[&str]) -> Result<(), String> {
    let dir = want(rest, 0, "session directory")?;
    no_more(rest, 1, "init")?;
    Session::init(dir)?;
    println!("session initialized in {dir}");
    println!("next: edit a .tf file and run `cloudless apply {dir} main.tf`");
    Ok(())
}

/// `cloudless validate`: what `plan` would decide about the program on a
/// fresh, empty session — the same gates, the same refusals.
fn cmd_validate(rest: &[&str]) -> Result<(), String> {
    let file = want(rest, 0, "program file")?;
    no_more(rest, 1, "validate")?;
    let source = read_program(file)?;
    let planned = Cloudless::new(Config::default())
        .plan(&source, &[])
        .map_err(|e| refusal(e, &source))?;
    let diagnostics = &planned.validation.diagnostics;
    if diagnostics.is_empty() {
        println!(
            "ok: {} resource instance(s), no findings",
            planned.manifest.instances.len()
        );
    } else {
        // the engine names every parsed file "main.tf"; key the map to match
        let sources = cloudless::hcl::SourceMap::single("main.tf", &source);
        println!("{}", diagnostics.render_pretty(&sources));
    }
    Ok(())
}

/// The options `lint` and `analyze` share — `--deny warn|<rule>`,
/// `--allow <rule>`, `--format text|json|sarif` — and, in order, the
/// arguments that are none of them.
fn parse_lint_opts<'a>(
    rest: &[&'a str],
) -> Result<(cloudless::LintConfig, &'a str, Vec<&'a str>), String> {
    let mut config = cloudless::LintConfig::default();
    let mut format = "text";
    let mut others = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match *arg {
            "--deny" => {
                let what = it.next().ok_or("--deny needs `warn` or a rule")?;
                if *what == "warn" {
                    config.fail_on = cloudless::hcl::Severity::Warning;
                } else if cloudless::analyze::rule(what).is_some() {
                    config.deny.push((*what).to_owned());
                } else {
                    return Err(format!("--deny: unknown rule {what:?}"));
                }
            }
            "--allow" => {
                let what = it.next().ok_or("--allow needs a rule id or name")?;
                if cloudless::analyze::rule(what).is_none() {
                    return Err(format!("--allow: unknown rule {what:?}"));
                }
                config.allow.push((*what).to_owned());
            }
            "--format" => {
                format = it.next().ok_or("--format needs text, json or sarif")?;
                if !matches!(format, "text" | "json" | "sarif") {
                    return Err(format!("--format: unknown format {format:?}"));
                }
            }
            other => others.push(other),
        }
    }
    Ok((config, format, others))
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

fn cmd_lint(rest: &[&str]) -> Result<(), String> {
    let file = want(rest, 0, "program file")?;
    let (config, format, others) = parse_lint_opts(&rest[1..])?;
    if let Some(other) = others.first() {
        return Err(format!("unknown lint option {other:?}\n{USAGE}"));
    }
    let source = read_program(file)?;
    let sources = cloudless::hcl::SourceMap::single(file, &source);
    let report = cloudless::analyze::lint_source(
        &source,
        file,
        &cloudless::hcl::ModuleLibrary::new(),
        &config,
    )
    .map_err(|d| format!("program rejected:\n{}", d.render_pretty(&sources)))?;
    finish_lint(&report, &config, format, &sources)
}

fn cmd_analyze(rest: &[&str]) -> Result<(), String> {
    let file = want(rest, 0, "program file")?;
    let mut state_dir: Option<&str> = None;
    let mut what_if = false;
    let (config, format, others) = parse_lint_opts(&rest[1..])?;
    let mut it = others.into_iter();
    while let Some(arg) = it.next() {
        match arg {
            "--state" => {
                state_dir = Some(it.next().ok_or("--state needs a session directory")?);
            }
            "--blast" => what_if = true,
            other => return Err(format!("unknown analyze option {other:?}\n{USAGE}")),
        }
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
    let blast = if let Some(dir) = state_dir {
        // a program `plan` refuses has no pending edit set
        let planned = Session::load(dir)?
            .engine(None)?
            .plan(&source, &[])
            .map_err(|e| refusal(e, &source))?;
        let edits = planned.plan.graph.iter();
        Some(cloudless::analyze::BlastRequest::EditSet(
            edits.map(|(_, node)| node.change.addr.clone()).collect(),
        ))
    } else if what_if {
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

/// The address after a `--target`.
fn target_addr<'a>(
    it: &mut impl Iterator<Item = &'a &'a str>,
) -> Result<cloudless::types::ResourceAddr, String> {
    it.next()
        .ok_or("--target needs a resource address")?
        .parse()
        .map_err(|e| format!("bad --target address: {e}"))
}

/// Why `plan`, `apply` or `reconcile` refused a program, rendered against
/// its source.
fn refusal(err: ConvergeError, source: &str) -> String {
    let sources = cloudless::hcl::SourceMap::single("main.tf", source);
    match err {
        ConvergeError::Frontend(d) => {
            format!("program rejected:\n{}", d.render_pretty(&sources))
        }
        ConvergeError::Lint(r) => format!(
            "lint failed ({} finding(s)); fix them or rerun with a relaxed gate:\n{}",
            r.findings.len(),
            r.render_text(&sources)
        ),
        ConvergeError::Validation(r) => format!(
            "validation failed:\n{}",
            r.diagnostics.render_pretty(&sources)
        ),
        ConvergeError::PolicyDenied(actions) => {
            let mut msg = String::from("plan denied by policy:");
            for a in actions {
                msg.push_str(&format!("\n  {a:?}"));
            }
            msg
        }
        err @ ConvergeError::State(_) => err.to_string(),
    }
}

/// `cloudless plan`: the deciding half of `apply` and nothing else — the
/// same gates, the same refusals and exit code, the same plan text.
fn cmd_plan(rest: &[&str]) -> Result<(), String> {
    let dir = want(rest, 0, "session directory")?;
    let file = want(rest, 1, "program file")?;
    let mut targets = Vec::new();
    let mut it = rest.iter().skip(2);
    while let Some(arg) = it.next() {
        match *arg {
            "--target" => targets.push(target_addr(&mut it)?),
            other => return Err(format!("unknown plan option {other:?}\n{USAGE}")),
        }
    }
    let source = read_program(file)?;
    let mut engine = Session::load(dir)?.engine(None)?;
    let planned = engine
        .plan(&source, &targets)
        .map_err(|e| refusal(e, &source))?;
    print!("{}", planned.plan_text);
    Ok(())
}

/// `cloudless watch`: poll a program file and replan it through the
/// engine's memoized pipeline on every content change. One engine lives for
/// the whole watch, so after the first (cold) plan each edit re-runs only
/// the stages and the resource subgraph it impacts — the
/// [`cloudless::ChangeTrace`] printed under each plan shows exactly which.
/// Plan-only: never locks,
/// applies, or saves the session.
fn cmd_watch(rest: &[&str]) -> Result<(), String> {
    use std::io::Write;

    let dir = want(rest, 0, "session directory")?;
    let file = want(rest, 1, "program file")?;
    let mut poll_ms: u64 = 250;
    let mut max_events: u64 = 0; // 0 = watch forever
    let mut it = rest.iter().skip(2);
    while let Some(arg) = it.next() {
        match *arg {
            "--poll-ms" => {
                poll_ms = it
                    .next()
                    .ok_or("--poll-ms needs a number")?
                    .parse()
                    .map_err(|e| format!("bad --poll-ms: {e}"))?;
                poll_ms = poll_ms.max(1);
            }
            "--max-events" => {
                max_events = it
                    .next()
                    .ok_or("--max-events needs a count")?
                    .parse()
                    .map_err(|e| format!("bad --max-events: {e}"))?;
            }
            other => return Err(format!("unknown watch option {other:?}\n{USAGE}")),
        }
    }
    let session = Session::load(dir)?;
    let mut engine = session.engine(None)?;
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
                        return Ok(());
                    }
                }
            }
            // mid-save or briefly missing: keep polling rather than die
            Err(e) => eprintln!("cannot read {file}: {e} (still watching)"),
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
    }
}

/// What follows `apply <dir> <file.tf>`.
struct ApplyOpts {
    targets: Vec<cloudless::types::ResourceAddr>,
    resilience: ResiliencePolicy,
    /// `--trace <file>` / `--events <file>`: output paths for the flight
    /// recorder's exporters.
    trace_out: Option<String>,
    events_out: Option<String>,
}

fn parse_apply_opts(opts: &[&str]) -> Result<ApplyOpts, String> {
    let mut targets = Vec::new();
    let mut resilience = ResiliencePolicy::standard();
    let (mut trace_out, mut events_out) = (None, None);
    let mut it = opts.iter();
    while let Some(arg) = it.next() {
        match *arg {
            "--target" => targets.push(target_addr(&mut it)?),
            "--retries" => {
                let n: u32 = it
                    .next()
                    .ok_or("--retries needs a count")?
                    .parse()
                    .map_err(|e| format!("bad --retries count: {e}"))?;
                resilience.retry.max_attempts_per_node = n.max(1);
            }
            "--deadline-factor" => {
                let f: f64 = it
                    .next()
                    .ok_or("--deadline-factor needs a number")?
                    .parse()
                    .map_err(|e| format!("bad --deadline-factor: {e}"))?;
                resilience.deadline = if f <= 0.0 {
                    DeadlinePolicy::None
                } else {
                    DeadlinePolicy::EstimateFactor {
                        factor: f,
                        floor: SimDuration::from_secs(30),
                    }
                };
            }
            "--trace" => {
                trace_out = Some((*it.next().ok_or("--trace needs an output path")?).to_owned());
            }
            "--events" => {
                events_out = Some((*it.next().ok_or("--events needs an output path")?).to_owned());
            }
            "--resume" => {
                return Err(
                    "--resume is gone: state records what a failed apply landed, \
                            so a plain `apply` plans and runs only what is left"
                        .into(),
                )
            }
            other => return Err(format!("unknown apply option {other:?}\n{USAGE}")),
        }
    }
    Ok(ApplyOpts {
        targets,
        resilience,
        trace_out,
        events_out,
    })
}

fn cmd_apply(rest: &[&str]) -> Result<(), String> {
    let dir = want(rest, 0, "session directory")?;
    let file = want(rest, 1, "program file")?;
    let opts = parse_apply_opts(&rest[2..])?;
    let source = read_program(file)?;
    let session = Session::load(dir)?;
    // every apply runs under a flight recorder: metrics are persisted for
    // `cloudless metrics`, and --trace/--events export the event stream
    let recorder = std::sync::Arc::new(FlightRecorder::default());
    let mut engine = session.engine(Some((opts.resilience, recorder.clone())))?;
    let converged = engine.converge_targeted(&source, &opts.targets);
    let captured = recorder.events();
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, cloudless::obs::export::to_chrome_trace(&captured))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "trace: {} event(s) written to {path} (open in chrome://tracing)",
            captured.len()
        );
    }
    if let Some(path) = &opts.events_out {
        std::fs::write(path, cloudless::obs::export::to_jsonl(&captured))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("events: {} event(s) written to {path}", captured.len());
    }
    if let Some(metrics) = recorder.metrics() {
        session.save_metrics(&metrics)?;
    }
    match converged {
        Ok(outcome) => {
            print!("{}", outcome.plan_text);
            println!(
                "apply ({}): {} op(s), {} attempt(s), {} retry(ies), virtual makespan {}",
                outcome.apply.strategy,
                outcome.apply.ops_submitted,
                outcome.apply.total_attempts(),
                outcome.apply.retries,
                outcome.apply.makespan()
            );
            for ex in &outcome.explanations {
                print!("{}", ex.render());
            }
            session.save(&engine)?;
            if outcome.apply.all_ok() {
                println!(
                    "state: {} resource(s) under management",
                    engine.state().len()
                );
                Ok(())
            } else {
                Err(format!(
                    "{} resource(s) failed; what landed is in state — fix the cause and \
                     run `apply` again to finish",
                    outcome.apply.failures()
                ))
            }
        }
        Err(err @ ConvergeError::State(_)) => {
            // the apply ran: what it did to the cloud is real and persists,
            // even though the state that would describe it is not committed
            // (the snapshot the engine holds back dies with this process)
            session.save(&engine)?;
            Err(format!(
                "{err}; the cloud was changed but the state was not. Once the log is writable, \
                 `cloudless reconcile {dir} {file}` adopts what this run created; \
                 a plain apply would create it a second time"
            ))
        }
        Err(refused) => Err(refusal(refused, &source)),
    }
}

fn cmd_destroy(rest: &[&str]) -> Result<(), String> {
    let dir = want(rest, 0, "session directory")?;
    no_more(rest, 1, "destroy")?;
    let session = Session::load(dir)?;
    let mut engine = session.engine(None)?;
    let before = engine.state().len();
    let outcome = engine
        .converge("")
        .map_err(|e| format!("destroy failed: {e}"))?;
    session.save(&engine)?;
    if outcome.apply.all_ok() {
        println!(
            "destroyed {before} resource(s) in {} (virtual)",
            outcome.apply.makespan()
        );
        Ok(())
    } else {
        Err(format!(
            "{} resource(s) failed to destroy",
            outcome.apply.failures()
        ))
    }
}

fn cmd_state(rest: &[&str]) -> Result<(), String> {
    match rest.first().copied() {
        Some("fsck") => return cmd_state_fsck(&rest[1..]),
        Some("migrate") => return cmd_state_migrate(&rest[1..]),
        Some("history") => return cmd_state_history(&rest[1..]),
        Some("rollback") => return cmd_state_rollback(&rest[1..]),
        _ => {}
    }
    let dir = want(rest, 0, "session directory")?;
    no_more(rest, 1, "state")?;
    let session = Session::load(dir)?;
    let engine = session.engine(None)?;
    if engine.state().is_empty() {
        println!("(no resources under management)");
        return Ok(());
    }
    for (addr, rec) in &engine.state().resources {
        println!("{addr:<50} {:<16} {}", rec.id.to_string(), rec.region);
    }
    Ok(())
}

/// `cloudless state fsck <dir>`: verify the delta log offline — record
/// checksums, content-address integrity, undo-chain consistency, and
/// checkpoint reachability. Exits non-zero unless the log is clean.
fn cmd_state_fsck(rest: &[&str]) -> Result<(), String> {
    let dir = want(rest, 0, "session directory")?;
    no_more(rest, 1, "state fsck")?;
    let session = Session::load(dir)?;
    let log = session.log_path();
    if !log.exists() {
        return Err(format!(
            "{dir} has no state.log (legacy session — run `cloudless state migrate {dir}` first)"
        ));
    }
    let report = cloudless::state::fsck_file(&log)
        .map_err(|e| format!("cannot read {}: {e}", log.display()))?;
    print!("{}", report.render());
    if report.clean() {
        Ok(())
    } else {
        Err(format!("{} is not clean", log.display()))
    }
}

/// `cloudless state migrate <dir>`: one-shot upgrade of a legacy
/// full-JSON session to the log store, preserving every historical
/// version found in `history.json` (if present) byte-identically.
fn cmd_state_migrate(rest: &[&str]) -> Result<(), String> {
    let dir = want(rest, 0, "session directory")?;
    no_more(rest, 1, "state migrate")?;
    Session::load(dir)?; // validates the directory is a session
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
fn cmd_state_history(rest: &[&str]) -> Result<(), String> {
    let dir = want(rest, 0, "session directory")?;
    no_more(rest, 1, "state history")?;
    let session = Session::load(dir)?;
    let engine = session.engine(None)?;
    if engine.history().is_empty() {
        println!("(no versions committed yet)");
        return Ok(());
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
    Ok(())
}

/// `cloudless state rollback <dir> <serial>`: time-travel the *state
/// document* to a historical serial (O(delta) against the log). The
/// simulated cloud is untouched; a following `apply`/`drift` reconciles
/// infrastructure against the restored state.
fn cmd_state_rollback(rest: &[&str]) -> Result<(), String> {
    let dir = want(rest, 0, "session directory")?;
    let serial: u64 = want(rest, 1, "target serial")?
        .parse()
        .map_err(|e| format!("bad serial: {e}"))?;
    no_more(rest, 2, "state rollback")?;
    let session = Session::load(dir)?;
    let mut engine = session.engine(None)?;
    match engine.rollback_state(serial)? {
        Some(new_serial) => {
            println!("state rolled back to serial {serial} (committed as serial {new_serial})")
        }
        None => println!("state already matches serial {serial}; nothing to do"),
    }
    session.save(&engine)?;
    Ok(())
}

fn cmd_drift(rest: &[&str]) -> Result<(), String> {
    let dir = want(rest, 0, "session directory")?;
    no_more(rest, 1, "drift")?;
    let session = Session::load(dir)?;
    let recorder = std::sync::Arc::new(FlightRecorder::default());
    let mut engine = session.engine(Some((ResiliencePolicy::standard(), recorder.clone())))?;
    let scanner = cloudless::diagnose::Scanner::new().with_recorder(recorder.clone());
    let state = engine.state().clone();
    let report = scanner.scan(engine.cloud_mut(), &state);
    if report.events.is_empty() {
        println!("no drift detected ({} API calls)", report.api_calls);
    } else {
        for ev in &report.events {
            let target = ev
                .addr
                .as_ref()
                .map(|a| a.to_string())
                .unwrap_or_else(|| ev.id.to_string());
            println!("{:?}: {target}", ev.kind);
        }
        println!(
            "{} drift event(s); `cloudless apply` overwrites them, `cloudless reconcile` folds them into the program ({} API calls)",
            report.events.len(),
            report.api_calls
        );
    }
    if let Some(metrics) = recorder.metrics() {
        session.save_metrics(&metrics)?;
    }
    session.save(&engine)?;
    Ok(())
}

fn cmd_reconcile(rest: &[&str]) -> Result<(), String> {
    let dir = want(rest, 0, "session directory")?;
    let file = want(rest, 1, "program file")?;
    let dry_run = rest.contains(&"--dry-run");
    let mut patch_out = None;
    let mut deny_warn = false;
    let mut it = rest.iter().skip(2);
    while let Some(arg) = it.next() {
        match *arg {
            "--dry-run" => {}
            "--patch" => {
                patch_out = Some((*it.next().ok_or("--patch needs an output path")?).to_owned());
            }
            "--deny" => {
                let what = it.next().ok_or("--deny needs `warn`")?;
                if *what != "warn" {
                    return Err(format!("--deny: only `warn` is supported, got {what:?}"));
                }
                deny_warn = true;
            }
            other => return Err(format!("unknown reconcile option {other:?}\n{USAGE}")),
        }
    }
    let source = read_program(file)?;
    let session = Session::load(dir)?;
    let mut engine = session.engine(None)?;
    if deny_warn {
        engine.set_lint_gate(cloudless::LintGate::DenyWarnings);
    }
    let report = engine
        .reconcile(&source, dry_run)
        .map_err(|e| format!("reconcile refused: {}", refusal(e, &source)))?;
    println!(
        "refresh: {} read(s), {} updated, {} missing",
        report.refresh.reads,
        report.refresh.updated.len(),
        report.refresh.missing.len()
    );
    if report.plan.is_empty() && report.dropped.is_empty() {
        println!("no drift to fold back — the program already matches the cloud");
        if !dry_run {
            // the refresh may still have absorbed undeclared-attr drift
            // into state; persist it so `drift` stops flagging it
            session.save(&engine)?;
        }
        return Ok(());
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
    if let Some(path) = &patch_out {
        std::fs::write(path, &report.patched_source)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("patched program written to {path}");
    }
    if dry_run {
        print!("{}", report.plan_text);
        println!(
            "dry run: nothing changed; patched program {} to a zero-diff plan",
            if report.converged {
                "re-plans"
            } else {
                "does NOT re-plan"
            }
        );
        return Ok(());
    }
    if let Some(apply) = &report.apply {
        println!(
            "apply: {} op(s), {} retry(ies), virtual makespan {}",
            apply.ops_submitted,
            apply.retries,
            apply.makespan()
        );
    }
    session.save(&engine)?;
    if report.converged {
        if patch_out.is_none() {
            println!("# patched program (commit this):");
            print!("{}", report.patched_source);
        }
        println!(
            "reconciled: {} resource(s) under management, plan is zero-diff",
            engine.state().len()
        );
        Ok(())
    } else {
        Err("reconcile applied but the patched program still plans changes".into())
    }
}

fn cmd_metrics(rest: &[&str]) -> Result<(), String> {
    let dir = want(rest, 0, "session directory")?;
    no_more(rest, 1, "metrics")?;
    let session = Session::load(dir)?;
    match session.load_metrics()? {
        Some(snapshot) => print!("{}", snapshot.render()),
        None => println!("(no metrics recorded yet — run `cloudless apply {dir} <file.tf>` first)"),
    }
    Ok(())
}

fn cmd_import(rest: &[&str]) -> Result<(), String> {
    let dir = want(rest, 0, "session directory")?;
    let with_modules = rest.get(1) == Some(&"--modules");
    no_more(rest, 1 + usize::from(with_modules), "import")?;
    let session = Session::load(dir)?;
    let engine = session.engine(None)?;
    let records: Vec<_> = engine.cloud().export_records().values().cloned().collect();
    if records.is_empty() {
        println!("(the cloud is empty — nothing to import)");
        return Ok(());
    }
    let catalog = engine.cloud().catalog().clone();
    if with_modules {
        let port = cloudless::port::extract_modules(&records, &catalog);
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
        let port = cloudless::port::optimized_port(&records, &catalog);
        print!("{}", cloudless::hcl::render_file(&port.file));
    }
    Ok(())
}

fn cmd_rogue(rest: &[&str]) -> Result<(), String> {
    let dir = want(rest, 0, "session directory")?;
    let addr: cloudless::types::ResourceAddr = want(rest, 1, "resource address")?
        .parse()
        .map_err(|e| format!("bad address: {e}"))?;
    let key = want(rest, 2, "attribute name")?;
    let value = want(rest, 3, "attribute value")?;
    no_more(rest, 4, "rogue")?;
    let session = Session::load(dir)?;
    let mut engine = session.engine(None)?;
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
    session.save(&engine)?;
    println!("mutated {addr} ({id}) out of band: {key} = {value:?}");
    println!("run `cloudless drift {dir}` to see it detected");
    Ok(())
}
