//! End-to-end tests of the `cloudless` binary: every command, against a
//! temp session directory.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_cloudless")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

struct TempSession {
    dir: PathBuf,
}

impl TempSession {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("cloudless-cli-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempSession { dir }
    }

    fn path(&self) -> &str {
        self.dir.to_str().expect("utf8 tmp path")
    }

    fn write(&self, name: &str, contents: &str) -> String {
        let p = self.dir.join(name);
        std::fs::write(&p, contents).expect("write program");
        p.to_str().unwrap().to_owned()
    }
}

impl Drop for TempSession {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

const PROGRAM: &str = r#"
resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "app" {
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}
"#;

#[test]
fn full_session_lifecycle() {
    let t = TempSession::new("lifecycle");
    // init
    let out = run(&["init", t.path()]);
    assert!(out.status.success(), "{}", stderr(&out));

    // plan before apply shows creates
    let tf = t.write("infra.tf", PROGRAM);
    let out = run(&["plan", t.path(), &tf]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("2 to add"));

    // apply
    let out = run(&["apply", t.path(), &tf]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("2 resource(s) under management"));

    // state lists both
    let out = run(&["state", t.path()]);
    assert!(stdout(&out).contains("aws_vpc.main"));
    assert!(stdout(&out).contains("aws_subnet.app"));

    // re-apply is a no-op
    let out = run(&["apply", t.path(), &tf]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("0 to add, 0 to change, 0 to destroy"));

    // drift: clean
    let out = run(&["drift", t.path()]);
    assert!(stdout(&out).contains("no drift detected"));

    // rogue mutation → drift detected
    let out = run(&["rogue", t.path(), "aws_vpc.main", "name", "oops"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = run(&["drift", t.path()]);
    assert!(
        stdout(&out).contains("Modified: aws_vpc.main"),
        "{}",
        stdout(&out)
    );

    // import produces a program that mentions both resources
    let out = run(&["import", t.path()]);
    let imported = stdout(&out);
    assert!(imported.contains("aws_vpc"));
    assert!(imported.contains("aws_subnet"));
    assert!(imported.contains(".id"), "references recovered: {imported}");

    // destroy
    let out = run(&["destroy", t.path()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = run(&["state", t.path()]);
    assert!(stdout(&out).contains("no resources under management"));
}

#[test]
fn an_import_after_an_undeclared_rogue_attribute_validates() {
    let t = TempSession::new("import-undeclared");
    assert!(run(&["init", t.path()]).status.success());
    let tf = t.write("infra.tf", PROGRAM);
    let out = run(&["apply", t.path(), &tf]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = run(&["rogue", t.path(), "aws_vpc.main", "bogus_attribute", "x"]);
    assert!(out.status.success(), "{}", stderr(&out));

    let imported = stdout(&run(&["import", t.path()]));
    assert!(!imported.contains("bogus_attribute"), "{imported}");
    let out = run(&["validate", &t.write("imported.tf", &imported)]);
    assert!(out.status.success(), "{}\n{imported}", stderr(&out));
}

#[test]
fn validate_catches_cloud_rules_without_a_session() {
    let t = TempSession::new("validate");
    std::fs::create_dir_all(&t.dir).unwrap();
    let tf = t.write(
        "bad.tf",
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
    );
    let out = run(&["validate", &tf]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("VAL301"), "{}", stderr(&out));

    let good = t.write("good.tf", PROGRAM);
    let out = run(&["validate", &good]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("no findings"));
}

#[test]
fn apply_refuses_invalid_program_and_session_survives() {
    let t = TempSession::new("invalid");
    run(&["init", t.path()]);
    // a literal bad CIDR is now caught by the lint gate, even earlier than
    // validation
    let bad = t.write(
        "bad.tf",
        r#"resource "aws_vpc" "v" { cidr_block = "nope" }"#,
    );
    let out = run(&["apply", t.path(), &bad]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("lint failed"), "{}", stderr(&out));
    // a cross-resource defect lint cannot see still fails at validation
    let bad2 = t.write(
        "bad2.tf",
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
    );
    let out = run(&["apply", t.path(), &bad2]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("validation failed"),
        "{}",
        stderr(&out)
    );
    // the session is still usable
    let good = t.write("good.tf", PROGRAM);
    let out = run(&["apply", t.path(), &good]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn lint_clean_program_exits_zero() {
    let t = TempSession::new("lint-clean");
    std::fs::create_dir_all(&t.dir).unwrap();
    let tf = t.write("good.tf", PROGRAM);
    let out = run(&["lint", &tf]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("no findings"), "{}", stdout(&out));
}

#[test]
fn lint_deny_findings_exit_nonzero_with_spans() {
    let t = TempSession::new("lint-bad");
    std::fs::create_dir_all(&t.dir).unwrap();
    let tf = t.write(
        "bad.tf",
        r#"resource "aws_vpc" "v" {
  cidr_block = "10.0.0.0/16"
  name       = var.missing
}
"#,
    );
    let out = run(&["lint", &tf]);
    assert!(!out.status.success(), "undefined reference is deny-level");
    let text = stdout(&out);
    assert!(text.contains("ANA103"), "{text}");
    // the unified pretty-printer shows the offending source line + carets
    assert!(text.contains("var.missing"), "{text}");
    assert!(text.contains("^"), "caret underline rendered: {text}");
    assert!(
        stderr(&out).contains("deny-level finding"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn lint_warnings_gate_allow_and_formats() {
    let t = TempSession::new("lint-flags");
    std::fs::create_dir_all(&t.dir).unwrap();
    let tf = t.write(
        "warn.tf",
        r#"variable "unused" { default = 1 }
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
"#,
    );
    // warnings pass by default…
    let out = run(&["lint", &tf]);
    assert!(out.status.success(), "{}", stderr(&out));
    // …fail under --deny warn…
    let out = run(&["lint", &tf, "--deny", "warn"]);
    assert!(!out.status.success());
    // …and --allow suppresses the rule entirely
    let out = run(&["lint", &tf, "--deny", "warn", "--allow", "unused-variable"]);
    assert!(out.status.success(), "{}", stderr(&out));

    // machine formats
    let out = run(&["lint", &tf, "--format", "json"]);
    let text = stdout(&out);
    assert!(text.contains("\"findings\""), "{text}");
    assert!(text.contains("ANA101"), "{text}");
    let out = run(&["lint", &tf, "--format", "sarif"]);
    let text = stdout(&out);
    assert!(text.contains("\"runs\""), "{text}");
    assert!(text.contains("cloudless-analyze"), "{text}");

    // unknown rules and formats are rejected
    let out = run(&["lint", &tf, "--deny", "nope"]);
    assert!(!out.status.success());
    let out = run(&["lint", &tf, "--format", "yaml"]);
    assert!(!out.status.success());
}

const DEADLOCK_PROGRAM: &str = r#"
resource "aws_virtual_machine" "a0" { name = "lock-one" }
resource "aws_virtual_machine" "a1" {
  name       = "lock-two"
  network_id = aws_virtual_machine.a0.id
}
resource "aws_virtual_machine" "b0" { name = "lock-two" }
resource "aws_virtual_machine" "b1" {
  name       = "lock-one"
  network_id = aws_virtual_machine.b0.id
}
"#;

#[test]
fn analyze_detects_races_and_deadlocks() {
    let t = TempSession::new("analyze-bad");
    std::fs::create_dir_all(&t.dir).unwrap();
    let tf = t.write("deadlock.tf", DEADLOCK_PROGRAM);
    let out = run(&["analyze", &tf]);
    assert!(!out.status.success(), "alias + deadlock are deny-level");
    let text = stdout(&out);
    assert!(text.contains("ANA502"), "{text}");
    assert!(text.contains("ANA503"), "{text}");
    assert!(
        stderr(&out).contains("analyzed 4 instance(s)"),
        "{}",
        stderr(&out)
    );

    // SARIF carries the concurrency rules and results.
    let out = run(&["analyze", &tf, "--format", "sarif"]);
    let text = stdout(&out);
    assert!(text.contains("\"$schema\""), "{text}");
    assert!(text.contains("ANA503"), "{text}");

    // --allow suppresses by name; the deadlock alone still gates.
    let out = run(&["analyze", &tf, "--allow", "alias-write-write"]);
    let text = stdout(&out);
    assert!(!text.contains("ANA502"), "{text}");
    assert!(text.contains("ANA503"), "{text}");
}

#[test]
fn analyze_clean_program_is_quiet_and_blast_is_opt_in() {
    let t = TempSession::new("analyze-clean");
    std::fs::create_dir_all(&t.dir).unwrap();
    let tf = t.write("good.tf", PROGRAM);
    let out = run(&["analyze", &tf]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(!stdout(&out).contains("ANA505"), "{}", stdout(&out));

    // --blast turns on the what-if ranking (informational notes only).
    let out = run(&["analyze", &tf, "--blast", "--format", "json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("ANA505"), "{text}");
    assert!(text.contains("what-if"), "{text}");
}

#[test]
fn analyze_state_ranks_pending_edit_set() {
    let t = TempSession::new("analyze-state");
    run(&["init", t.path()]);
    let tf = t.write("main.tf", PROGRAM);
    // Nothing applied yet: the whole program is the pending edit set.
    let out = run(&["analyze", &tf, "--state", t.path(), "--format", "json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("ANA505"), "{text}");
    assert!(text.contains("replan"), "{text}");

    // a program `plan` refuses has no pending edit set: the refusal is
    // plan's, word for word
    let tf = t.write(
        "cycle.tf",
        r#"
resource "aws_virtual_machine" "a" { name = aws_virtual_machine.b.name }
resource "aws_virtual_machine" "b" { name = aws_virtual_machine.a.name }
"#,
    );
    let out = run(&["analyze", &tf, "--state", t.path()]);
    assert!(!out.status.success());
    assert_eq!(stderr(&out), stderr(&run(&["plan", t.path(), &tf])));
    assert!(stderr(&out).contains("ANA401"), "{}", stderr(&out));
}

#[test]
fn apply_refuses_lint_errors_before_planning() {
    let t = TempSession::new("lint-gate");
    run(&["init", t.path()]);
    let tf = t.write(
        "cycle.tf",
        r#"
resource "aws_virtual_machine" "a" { name = aws_virtual_machine.b.name }
resource "aws_virtual_machine" "b" { name = aws_virtual_machine.a.name }
"#,
    );
    let out = run(&["apply", t.path(), &tf]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("lint failed"), "{}", stderr(&out));
    assert!(stderr(&out).contains("ANA401"), "{}", stderr(&out));
    // `plan` is the same gate: it refuses what `apply` refuses, the same way
    let planned = run(&["plan", t.path(), &tf]);
    assert!(!planned.status.success(), "{}", stdout(&planned));
    assert_eq!(stderr(&planned), stderr(&out));
    // nothing reached the cloud; the session stays usable
    let out = run(&["state", t.path()]);
    assert!(stdout(&out).contains("no resources under management"));
}

#[test]
fn unknown_command_and_missing_args_fail_gracefully() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));

    let out = run(&["apply"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("missing"));

    let out = run(&["state", "/nonexistent/definitely-not-a-session"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("not a session"));
}

#[test]
fn state_persists_across_invocations() {
    let t = TempSession::new("persist");
    run(&["init", t.path()]);
    let tf = t.write("infra.tf", PROGRAM);
    run(&["apply", t.path(), &tf]);
    // a fresh process sees the same world (ids survive the restart)
    let out1 = stdout(&run(&["state", t.path()]));
    let out2 = stdout(&run(&["state", t.path()]));
    assert_eq!(out1, out2);
    assert!(out1.contains("aws-"), "cloud ids persisted: {out1}");
}

#[test]
fn a_failed_apply_is_finished_by_applying_again() {
    let t = TempSession::new("reapply");
    run(&["init", t.path()]);

    // v1: a bucket whose *live* name we will steal out of band
    let v1 = t.write(
        "v1.tf",
        r#"resource "aws_s3_bucket" "keeper" { bucket = "keep-name" }"#,
    );
    let out = run(&["apply", t.path(), &v1]);
    assert!(out.status.success(), "{}", stderr(&out));

    // out-of-band rename: the live record now holds "grabbed" while state
    // still says "keep-name" — invisible to compile-time validation
    let out = run(&[
        "rogue",
        t.path(),
        "aws_s3_bucket.keeper",
        "bucket",
        "grabbed",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // v2 adds resources that succeed plus a bucket whose name collides
    // with the stolen live name: a cloud-level-only failure
    let v2 = t.write(
        "v2.tf",
        r#"
resource "aws_s3_bucket" "keeper" { bucket = "keep-name" }
resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "app" {
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}
resource "aws_s3_bucket" "clash" { bucket = "grabbed" }
"#,
    );
    let out = run(&["apply", t.path(), &v2]);
    assert!(!out.status.success(), "collision must fail the apply");
    assert!(
        stderr(&out).contains("run `apply` again"),
        "{}",
        stderr(&out)
    );
    // what landed is in state, and state is the only record of it
    let listed = stdout(&run(&["state", t.path()]));
    assert!(listed.contains("aws_vpc.main"), "{listed}");
    assert!(!listed.contains("aws_s3_bucket.clash"), "{listed}");
    let checkpoint = t.dir.join("checkpoint.json");
    assert!(!checkpoint.exists());

    // apply again without fixing the cause: only the frontier runs, and fails
    let out = run(&["apply", t.path(), &v2]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("1 op(s)"), "{}", stdout(&out));
    assert!(!checkpoint.exists());

    // release the stolen name, then apply again: only the frontier executes
    let out = run(&[
        "rogue",
        t.path(),
        "aws_s3_bucket.keeper",
        "bucket",
        "keep-name",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = run(&["apply", t.path(), &v2]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("1 op(s)"), "{text}");
    assert!(text.contains("4 resource(s) under management"), "{text}");
    assert!(!checkpoint.exists());

    // a re-apply converges to a no-op
    let out = run(&["apply", t.path(), &v2]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("0 to add, 0 to change, 0 to destroy"));
}

#[test]
fn a_misspelt_apply_option_stops_before_any_cloud_operation() {
    let t = TempSession::new("misspelt");
    run(&["init", t.path()]);
    let tf = t.write("infra.tf", PROGRAM);
    let world = |name: &str| std::fs::read_to_string(t.dir.join(name)).unwrap();
    let before = (world("state.json"), world("cloud.json"));

    let out = run(&["apply", t.path(), &tf, "--tagret", "aws_vpc.main"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown apply option \"--tagret\""),
        "{}",
        stderr(&out)
    );
    assert_eq!((world("state.json"), world("cloud.json")), before);

    // a flag that is gone is an unknown option like any other
    for gone in ["--resume", "--legacy-retry"] {
        let out = run(&["apply", t.path(), &tf, gone]);
        assert!(!out.status.success());
        let err = stderr(&out);
        assert!(
            err.contains(&format!("unknown apply option {gone:?}")),
            "{err}"
        );
        assert_eq!((world("state.json"), world("cloud.json")), before);
    }
}

/// 200 kB of `[` used to overflow the parser's stack and abort the process;
/// a session file is untrusted bytes and gets a diagnostic instead.
#[test]
fn a_hostile_session_file_is_a_diagnostic_not_an_abort() {
    let t = TempSession::new("hostile");
    run(&["init", t.path()]);
    let tf = t.write("infra.tf", PROGRAM);
    let hostile = "[".repeat(200_000);

    // as the whole file (refused at the first bracket) and under a key no
    // record defines (skipped unbuilt, down to the nesting cap)
    for (doc, why) in [
        (hostile.clone(), "cloud.json corrupt: expected object"),
        (
            format!("{{\"vpc-1\": {{\"later\": {hostile}"),
            "cloud.json corrupt: nesting deeper than 128 levels",
        ),
    ] {
        t.write("cloud.json", &doc);
        let out = run(&["apply", t.path(), &tf]);
        assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
        assert!(stderr(&out).contains(why), "{}", stderr(&out));
    }

    // `state migrate`, the one reader of the legacy layout, reads
    // `state.json` the same way and leaves no log behind
    std::fs::remove_file(t.dir.join("state.log")).unwrap();
    t.write("state.json", &hostile);
    let out = run(&["state", "migrate", t.path()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("state.json corrupt: "),
        "{}",
        stderr(&out)
    );
    assert!(!t.dir.join("state.log").exists());
}

#[test]
fn every_verb_refuses_an_argument_it_does_not_define() {
    let t = TempSession::new("strict");
    run(&["init", t.path()]);
    let tf = t.write("infra.tf", PROGRAM);
    assert!(run(&["apply", t.path(), &tf]).status.success());
    let fresh = t.dir.join("fresh");
    let fresh = fresh.to_str().unwrap();
    let verbs: [(&str, Vec<&str>); 13] = [
        ("init", vec!["init", fresh]),
        ("validate", vec!["validate", &tf]),
        ("plan", vec!["plan", t.path(), &tf]),
        ("destroy", vec!["destroy", t.path()]),
        ("state", vec!["state", t.path()]),
        ("state history", vec!["state", "history", t.path()]),
        ("state rollback", vec!["state", "rollback", t.path(), "1"]),
        ("state fsck", vec!["state", "fsck", t.path()]),
        ("state migrate", vec!["state", "migrate", t.path()]),
        ("drift", vec!["drift", t.path()]),
        ("metrics", vec!["metrics", t.path()]),
        ("import", vec!["import", t.path(), "--modules"]),
        (
            "rogue",
            vec![
                "rogue",
                t.path(),
                "aws_vpc.main",
                "cidr_block",
                "10.9.0.0/16",
            ],
        ),
    ];
    for (verb, mut args) in verbs {
        args.push("--nonsense");
        let out = run(&args);
        assert!(!out.status.success(), "{verb} accepted --nonsense");
        let expected = format!("unknown {verb} option \"--nonsense\"");
        assert!(stderr(&out).contains(&expected), "{}", stderr(&out));
    }
    // none of them acted: still the applied world, and no second session
    assert!(!std::path::Path::new(fresh).exists());
    let listed = stdout(&run(&["state", t.path()]));
    assert!(listed.contains("aws_vpc.main") && listed.contains("aws_subnet.app"));
    let out = run(&["plan", t.path(), &tf]);
    assert!(stdout(&out).contains("0 to add, 0 to change, 0 to destroy"));
}

/// Every `.tf` under `dir`, recursively.
fn shipped_programs(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("examples/hcl exists") {
        let path = entry.unwrap().path();
        if path.is_dir() {
            shipped_programs(&path, out);
        } else if path.extension().is_some_and(|e| e == "tf") {
            out.push(path);
        }
    }
}

#[test]
fn validate_and_plan_agree_on_every_shipped_program() {
    let t = TempSession::new("agree");
    run(&["init", t.path()]);
    let examples = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/hcl");
    let mut programs = Vec::new();
    shipped_programs(&examples, &mut programs);
    assert!(programs.len() > 10, "found {} program(s)", programs.len());
    let mut refused = 0;
    for tf in &programs {
        let tf = tf.to_str().unwrap();
        // `plan` never writes, so the session stays freshly initialised
        let (validate, plan) = (run(&["validate", tf]), run(&["plan", t.path(), tf]));
        assert_eq!(
            validate.status.success(),
            plan.status.success(),
            "{tf}:\nvalidate: {}\nplan: {}",
            stderr(&validate),
            stderr(&plan)
        );
        refused += usize::from(!plan.status.success());
    }
    assert!(refused > 0, "the defect corpus is refused by both");
}

#[test]
fn trace_export_and_metrics_command() {
    let t = TempSession::new("obs");
    run(&["init", t.path()]);
    let tf = t.write("infra.tf", PROGRAM);
    let trace = t.dir.join("trace.json");
    let events = t.dir.join("events.jsonl");
    let out = run(&[
        "apply",
        t.path(),
        &tf,
        "--trace",
        trace.to_str().unwrap(),
        "--events",
        events.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("chrome://tracing"),
        "{}",
        stdout(&out)
    );

    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_text.contains("\"traceEvents\""));
    assert!(trace_text.contains("\"ph\":\"B\""), "span enters exported");
    let events_text = std::fs::read_to_string(&events).unwrap();
    assert!(events_text.lines().count() > 4);
    assert!(events_text.contains("\"component\":\"cloud\""));

    // the apply persisted metrics; the metrics command renders them
    let out = run(&["metrics", t.path()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("cloud.ops_submitted"), "{text}");
    assert!(text.contains("deploy.nodes_ok"), "{text}");
}

#[test]
fn targeted_apply_touches_only_the_closure() {
    let t = TempSession::new("target");
    run(&["init", t.path()]);
    let tf = t.write(
        "infra.tf",
        r#"
resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "app" {
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}
resource "aws_s3_bucket" "extra" { bucket = "extra" }
"#,
    );
    // plan --target shows the closure only
    let out = run(&["plan", t.path(), &tf, "--target", "aws_subnet.app"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("aws_vpc.main"), "{text}");
    assert!(text.contains("aws_subnet.app"));
    assert!(!text.contains("aws_s3_bucket.extra"));
    assert!(text.contains("1 change(s) outside the target closure suppressed"));
    assert!(
        text.contains("Plan: 2 to add, 0 to change, 0 to destroy."),
        "{text}"
    );

    // targeted apply creates 2 of 3 resources
    let out = run(&["apply", t.path(), &tf, "--target", "aws_subnet.app"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("2 resource(s) under management"));
    // a follow-up full apply completes the rest
    let out = run(&["apply", t.path(), &tf]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("3 resource(s) under management"));

    // a targeted plan of an edit reads like the untargeted one: changed
    // attributes under the address, the summary line under the changes
    let edited = std::fs::read_to_string(&tf).unwrap();
    let edited = edited.replace("10.0.1.0/24", "10.0.2.0/24");
    let tf = t.write("infra.tf", &edited.replace("\"extra\" }", "\"more\" }"));
    let out = run(&["plan", t.path(), &tf, "--target", "aws_subnet.app"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("-/+ aws_subnet.app\n"), "{text}");
    assert!(text.contains("cidr_block = \"10.0.2.0/24\"\n"), "{text}");
    assert!(!text.contains("aws_s3_bucket.extra"), "{text}");
    let tail = "Plan: 1 to add, 0 to change, 1 to destroy.\n\
                (1 change(s) outside the target closure suppressed)\n";
    assert!(text.ends_with(tail), "{text}");
}

#[test]
fn reconcile_dry_run_then_real_run() {
    let session = TempSession::new("reconcile");
    run(&["init", session.path()]);
    let program = session.write("main.tf", PROGRAM);
    assert!(run(&["apply", session.path(), &program]).status.success());

    // hand-edit a managed attribute out of band
    let out = run(&[
        "rogue",
        session.path(),
        "aws_subnet.app",
        "cidr_block",
        "10.0.9.0/24",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // dry run: previews the patch, changes nothing
    let out = run(&["reconcile", session.path(), &program, "--dry-run"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("set aws_subnet.app.cidr_block"), "{text}");
    assert!(text.contains("dry run: nothing changed"), "{text}");
    assert!(text.contains("re-plans to a zero-diff plan"), "{text}");

    // the drift is still there — the dry run saved nothing
    let out = run(&["drift", session.path()]);
    assert!(stdout(&out).contains("drift event(s)"), "{}", stdout(&out));

    // real run: adopts the edit and persists the session
    let patch = session.dir.join("patched.tf");
    let out = run(&[
        "reconcile",
        session.path(),
        &program,
        "--patch",
        patch.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("plan is zero-diff"),
        "{}",
        stdout(&out)
    );
    let patched = std::fs::read_to_string(&patch).expect("patch written");
    assert!(patched.contains("10.0.9.0/24"), "{patched}");

    // the loop is closed: no drift, and the patched program plans a no-op
    let out = run(&["drift", session.path()]);
    assert!(
        stdout(&out).contains("no drift detected"),
        "{}",
        stdout(&out)
    );
    let out = run(&["plan", session.path(), patch.to_str().unwrap()]);
    assert!(
        stdout(&out).contains("0 to add, 0 to change, 0 to destroy"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn reconcile_deny_warn_refuses_gated_patch() {
    let session = TempSession::new("reconcile-deny");
    run(&["init", session.path()]);
    // warning-laden but error-free: deploys under the default gate
    let program = session.write(
        "main.tf",
        r#"
variable "unused" { default = "x" }
resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
resource "aws_s3_bucket" "data" { bucket = "cli-gated" }
"#,
    );
    assert!(run(&["apply", session.path(), &program]).status.success());
    let out = run(&[
        "rogue",
        session.path(),
        "aws_s3_bucket.data",
        "bucket",
        "cli-gated-edited",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // under --deny warn no patch can satisfy the gate: refuse loudly
    let out = run(&["reconcile", session.path(), &program, "--deny", "warn"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("reconcile refused"), "{err}");
    assert!(err.contains("ANA101"), "{err}");

    // without the tightened gate the same reconcile goes through
    let out = run(&["reconcile", session.path(), &program]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("plan is zero-diff"),
        "{}",
        stdout(&out)
    );
}

const PROGRAM_V2: &str = r#"
resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "app" {
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.2.0/24"
}
"#;

#[test]
fn state_history_and_rollback_time_travel() {
    let t = TempSession::new("statelog");
    assert!(run(&["init", t.path()]).status.success());
    let v1 = t.write("v1.tf", PROGRAM);
    let v2 = t.write("v2.tf", PROGRAM_V2);
    assert!(run(&["apply", t.path(), &v1]).status.success());
    assert!(run(&["apply", t.path(), &v2]).status.success());

    // history lists both applies with delta sizes
    let out = run(&["state", "history", t.path()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let hist = stdout(&out);
    assert!(hist.contains("apply via"), "{hist}");
    assert!(hist.lines().count() >= 2, "{hist}");

    // roll the state document back to serial 1 (the v1 world)
    let out = run(&["state", "rollback", t.path(), "1"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("rolled back to serial 1"),
        "{}",
        stdout(&out)
    );

    // the state.json mirror now shows the v1 subnet CIDR
    let state = std::fs::read_to_string(t.dir.join("state.json")).unwrap();
    assert!(state.contains("10.0.1.0/24"), "{state}");

    // rollback to the same serial again is a fixpoint
    let out = run(&["state", "rollback", t.path(), "1"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("nothing to do"), "{}", stdout(&out));

    // the rollback itself is a new version; fsck is clean throughout
    let out = run(&["state", "fsck", t.path()]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("clean"), "{}", stdout(&out));
}

#[test]
fn state_fsck_flags_torn_log_and_open_recovers_it() {
    let t = TempSession::new("fsck-torn");
    assert!(run(&["init", t.path()]).status.success());
    let tf = t.write("infra.tf", PROGRAM);
    assert!(run(&["apply", t.path(), &tf]).status.success());

    // simulate a crash mid-commit: chop bytes off the final record
    let log = t.dir.join("state.log");
    let bytes = std::fs::read(&log).unwrap();
    std::fs::write(&log, &bytes[..bytes.len() - 7]).unwrap();

    // fsck sees the torn tail and exits non-zero
    let out = run(&["state", "fsck", t.path()]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("torn tail"), "{}", stdout(&out));

    // any session load recovers (truncate-and-persist)…
    let out = run(&["state", t.path()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("recovered torn final record"),
        "{}",
        stderr(&out)
    );

    // …after which fsck is clean
    let out = run(&["state", "fsck", t.path()]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("clean"), "{}", stdout(&out));
}

/// A record of the log whose head reads but whose rest does not decode —
/// a checksum-valid blob line no reader can take whole — opens, and stops
/// the first verb that reads it: exit 1 naming its address, nothing
/// printed as state, nothing applied or committed. `fsck` names it too.
#[test]
fn a_record_that_does_not_decode_stops_the_verb_that_reads_it() {
    use cloudless::state::cas::fnv64;

    let t = TempSession::new("undecodable");
    assert!(run(&["init", t.path()]).status.success());
    let tf = t.write("infra.tf", PROGRAM);
    assert!(run(&["apply", t.path(), &tf]).status.success());
    let log = t.dir.join("state.log");
    let text = std::fs::read_to_string(&log).unwrap();
    let mut forged = String::new();
    for line in text.lines() {
        match line.split_once(' ') {
            Some((_, payload)) if payload.contains(r#"\"rtype\":\"aws_subnet\""#) => {
                let payload = payload.replacen(r#"\"region\":\""#, r#"\"region\":@\""#, 1);
                assert!(payload.contains('@'), "{payload}");
                forged.push_str(&format!("{:016x} {payload}\n", fnv64(payload.as_bytes())));
            }
            _ => forged.push_str(&format!("{line}\n")),
        }
    }
    std::fs::write(&log, &forged).unwrap();
    let edited = t.write("edited.tf", &PROGRAM.replace("10.0.1.0/24", "10.0.2.0/24"));
    let named = |out: &Output| {
        assert!(!out.status.success(), "{}", stdout(out));
        let err = stderr(out);
        assert!(
            err.contains("the record of aws_subnet.app does not decode"),
            "{err}"
        );
    };

    // the state and the cloud (an instrumented verb keeps its metrics)
    let session = |t: &TempSession| {
        let mut files = session_files(t);
        files.remove("metrics.json");
        files
    };
    let before = session(&t);
    let listed = run(&["state", t.path()]);
    named(&listed);
    assert_eq!(stdout(&listed), "");
    named(&run(&["plan", t.path(), &edited]));
    named(&run(&["apply", t.path(), &edited]));
    assert!(session(&t) == before, "a refused verb wrote to the session");
    let fsck = run(&["state", "fsck", t.path()]);
    assert!(!fsck.status.success());
    let report = stdout(&fsck);
    assert!(
        report.contains("put aws_subnet.app: corrupt resource record"),
        "{report}"
    );
}

/// A session is its log: a legacy directory (`state.json`, no `state.log`)
/// is refused, untouched, by every verb that opens an engine, since nothing
/// committed there would be kept. `state migrate` gives it a log.
#[test]
fn a_legacy_session_is_refused_until_it_migrates_to_the_log_store() {
    let t = TempSession::new("migrate");
    assert!(run(&["init", t.path()]).status.success());
    let tf = t.write("infra.tf", PROGRAM);
    assert!(run(&["apply", t.path(), &tf]).status.success());

    // turn the session legacy: drop the log, keep the state.json mirror
    std::fs::remove_file(t.dir.join("state.log")).unwrap();
    let before = session_files(&t);
    let dir = t.path();
    let refusal = format!(
        "{dir} has no state.log (legacy session — run `cloudless state migrate {dir}` first)"
    );
    let openers: [&[&str]; 8] = [
        &["state", dir],
        &["state", "history", dir],
        &["state", "fsck", dir],
        &["plan", dir, &tf],
        &["apply", dir, &tf],
        &["drift", dir],
        &["reconcile", dir, &tf],
        &["analyze", &tf, "--state", dir],
    ];
    for args in openers {
        let (out, refused) = (run(args), refusal.as_str());
        assert!(!out.status.success(), "{args:?} opened a legacy session");
        assert!(stderr(&out).contains(refused), "{args:?}: {}", stderr(&out));
        assert!(session_files(&t) == before, "{args:?} wrote to the session");
    }

    // migrate, then everything is log-native again
    let out = run(&["state", "migrate", t.path()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("migrated: 1 version(s)"),
        "{}",
        stdout(&out)
    );
    let out = run(&["state", "fsck", t.path()]);
    assert!(out.status.success(), "{}", stdout(&out));
    let out = run(&["state", "history", t.path()]);
    assert!(stdout(&out).contains("migrate"), "{}", stdout(&out));

    // migrating twice refuses
    let out = run(&["state", "migrate", t.path()]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("already migrated"),
        "{}",
        stderr(&out)
    );

    // and applies keep working on the migrated log
    let v2 = t.write("v2.tf", PROGRAM_V2);
    let out = run(&["apply", t.path(), &v2]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = run(&["state", "history", t.path()]);
    assert!(stdout(&out).contains("apply via"), "{}", stdout(&out));
}

#[test]
fn destroy_is_apply_of_nothing_and_takes_its_flags() {
    let t = TempSession::new("destroy");
    run(&["init", t.path()]);
    let tf = t.write("infra.tf", PROGRAM);
    assert!(run(&["apply", t.path(), &tf]).status.success());
    std::fs::remove_file(t.dir.join("metrics.json")).unwrap();

    // `--target` is apply's alone: destroying part of an estate is an apply
    let out = run(&["destroy", t.path(), "--target", "aws_vpc.main"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown destroy option \"--target\""), "{err}");

    let trace = t.dir.join("trace.json");
    let out = run(&[
        "destroy",
        t.path(),
        "--retries",
        "3",
        "--deadline-factor",
        "0",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    // apply's plan and apply's report
    let text = stdout(&out);
    assert!(
        text.contains("Plan: 0 to add, 0 to change, 2 to destroy."),
        "{text}"
    );
    assert!(
        text.contains("): 2 op(s), 2 attempt(s), 0 retry(ies)"),
        "{text}"
    );
    assert!(
        text.contains("state: 0 resource(s) under management"),
        "{text}"
    );
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_text.contains("\"traceEvents\""));

    // it ran under the flight recorder, like any apply
    let out = run(&["metrics", t.path()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("cloud.ops_submitted"),
        "{}",
        stdout(&out)
    );
    let out = run(&["state", t.path()]);
    assert!(stdout(&out).contains("no resources under management"));
}

/// Every file of the session, by name: its bytes and when it was written.
fn session_files(
    t: &TempSession,
) -> std::collections::BTreeMap<String, (Vec<u8>, std::time::SystemTime)> {
    let files = std::fs::read_dir(&t.dir).unwrap().map(|entry| {
        let path = entry.unwrap().path();
        let written = path.metadata().unwrap().modified().unwrap();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        (name, (std::fs::read(&path).unwrap(), written))
    });
    files.collect()
}

#[test]
fn a_verb_that_only_reads_rewrites_no_session_file() {
    let t = TempSession::new("readonly");
    run(&["init", t.path()]);
    let tf = t.write("infra.tf", PROGRAM);
    assert!(run(&["apply", t.path(), &tf]).status.success());
    let out = run(&["rogue", t.path(), "aws_vpc.main", "name", "oops"]);
    assert!(out.status.success(), "{}", stderr(&out));

    let mut before = session_files(&t);
    let dir = t.path();
    let readers: [&[&str]; 7] = [
        &["plan", dir, &tf],
        &["state", dir],
        &["state", "history", dir],
        &["import", dir],
        &["import", dir, "--modules"],
        &["analyze", &tf, "--state", dir],
        &["reconcile", dir, &tf, "--dry-run"],
    ];
    for args in readers {
        let out = run(args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        assert!(session_files(&t) == before, "{args:?} wrote to the session");
    }

    // a drift scan runs under the recorder and reads: its metrics are all
    // it leaves behind
    let out = run(&["drift", t.path()]);
    assert!(stdout(&out).contains("Modified: aws_vpc.main"));
    let mut after = session_files(&t);
    assert!(after.remove("metrics.json") != before.remove("metrics.json"));
    assert!(after == before, "drift wrote more than its metrics");
}

/// One drift of each kind, edited into `cloud.json`: a managed record
/// changed, a managed record gone, and a record no state entry holds.
#[test]
fn drift_reports_every_kind() {
    use cloudless::cloud::ResourceRecord;
    use cloudless::types::{ResourceId, Value};
    use std::collections::BTreeMap;

    let t = TempSession::new("drift-kinds");
    run(&["init", t.path()]);
    let tf = t.write("infra.tf", PROGRAM);
    assert!(run(&["apply", t.path(), &tf]).status.success());
    let text = std::fs::read_to_string(t.dir.join("cloud.json")).unwrap();
    let mut records: BTreeMap<ResourceId, ResourceRecord> = serde_json::from_str(&text).unwrap();
    let id_of = |rtype: &str| {
        let found = records.values().find(|r| r.rtype.as_str() == rtype);
        found.expect("applied").id.clone()
    };
    let (vpc, subnet) = (id_of("aws_vpc"), id_of("aws_subnet"));

    records.remove(&subnet);
    let changed = records.get_mut(&vpc).unwrap();
    let cidr = Value::from("10.9.0.0/16");
    changed.attrs.insert("cidr_block".into(), cidr);
    let mut stray = changed.clone();
    stray.id = ResourceId::new("aws-v-0099");
    stray.attrs.insert("id".into(), Value::from("aws-v-0099"));
    stray.attrs.insert("name".into(), Value::from("stray"));
    records.insert(stray.id.clone(), stray);
    let edited = serde_json::to_string_pretty(&records).unwrap();
    t.write("cloud.json", &edited);

    let out = run(&["drift", t.path()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines[..3],
        [
            "Modified: aws_vpc.main",
            "Deleted: aws_subnet.app",
            "Unmanaged: aws-v-0099"
        ],
        "{text}"
    );
    assert!(lines[3].starts_with("3 drift event(s); "), "{text}");
    assert_eq!(lines.len(), 4, "{text}");
}

/// A session is its log: with the `state.json` mirror gone, every verb
/// still opens it.
#[test]
fn a_session_without_its_mirror_still_loads() {
    let t = TempSession::new("no-mirror");
    run(&["init", t.path()]);
    let tf = t.write("infra.tf", PROGRAM);
    assert!(run(&["apply", t.path(), &tf]).status.success());
    std::fs::remove_file(t.dir.join("state.json")).unwrap();

    let out = run(&["state", t.path()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("aws_vpc.main"), "{}", stdout(&out));
    let out = run(&["apply", t.path(), &tf]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("0 to add, 0 to change, 0 to destroy"));
    assert!(t.dir.join("state.json").exists(), "apply wrote the mirror");
}

/// `init` over a session's log would reopen it and empty the cloud it
/// describes: it refuses, and leaves every file as it was.
#[test]
fn init_refuses_a_directory_that_holds_a_log() {
    let t = TempSession::new("reinit");
    run(&["init", t.path()]);
    let tf = t.write("infra.tf", PROGRAM);
    assert!(run(&["apply", t.path(), &tf]).status.success());
    std::fs::remove_file(t.dir.join("state.json")).unwrap();

    let before = session_files(&t);
    let out = run(&["init", t.path()]);
    assert!(!out.status.success(), "{}", stdout(&out));
    assert!(
        stderr(&out).contains("already holds a session"),
        "{}",
        stderr(&out)
    );
    assert!(session_files(&t) == before, "init rewrote the session");
}

/// `cloudless destroy` of a layered estate of `blocks` resources. The estate
/// exceeds the default quotas, which `apply` has no flag to raise, so the
/// engine builds it over the session's own log and the test saves it as
/// `Session::save` does; destroying plans the empty program, which no quota
/// refuses.
fn destroy_clears_a_layered_estate(blocks: usize) {
    use cloudless::cloud::CloudConfig;
    use cloudless::state::LogStore;
    use cloudless_bench::experiments::quota_raised_catalog;
    use cloudless_bench::workloads::random_layered;

    let t = TempSession::new(&format!("destroy-{blocks}"));
    assert!(run(&["init", t.path()]).status.success());
    let config = cloudless::Config {
        cloud: CloudConfig {
            catalog: quota_raised_catalog(),
            ..CloudConfig::exact()
        },
        ..cloudless::Config::default()
    };
    let (store, _) = LogStore::open_file(&t.dir.join("state.log")).expect("the session's log");
    let mut engine = cloudless::Cloudless::with_store(config, store, Default::default());
    let built = engine.converge(&random_layered(blocks, 42));
    assert!(built.expect("the estate converges").apply.all_ok());
    let records = serde_json::to_string_pretty(engine.cloud().export_records()).unwrap();
    t.write("state.json", &engine.state().to_json());
    t.write("cloud.json", &records);
    drop(engine);

    let out = run(&["destroy", t.path()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let plan = format!("Plan: 0 to add, 0 to change, {blocks} to destroy.");
    let report = format!("): {blocks} op(s), {blocks} attempt(s), 0 retry(ies)");
    assert!(text.contains(&plan) && text.contains(&report), "{text}");
    assert!(
        text.contains("state: 0 resource(s) under management"),
        "{text}"
    );
    let cloud = std::fs::read_to_string(t.dir.join("cloud.json")).unwrap();
    assert_eq!(cloud, "{}", "nothing is left in the cloud");
    let out = run(&["state", t.path()]);
    assert!(stdout(&out).contains("no resources under management"));
}

/// PR 11 saw destroy of the 10 000-block layered estate leave 5 302
/// resources behind; this is the default-run size, the next test that one.
#[test]
fn destroy_clears_a_layered_estate_of_2k_blocks() {
    destroy_clears_a_layered_estate(2_000);
}

/// Release only: `cargo test --release -p cloudless-cli --test cli destroy -- --ignored`.
#[test]
#[ignore]
fn destroy_clears_the_layered_estate_of_10k_blocks() {
    destroy_clears_a_layered_estate(10_000);
}

/// `memo.bin` is a cache: `state fsck` reports it — valid for the serial
/// the last apply committed, stale with the reason a fresh engine refuses
/// it, absent — and exits on the log alone, and an apply over a damaged
/// image plans cold and succeeds.
#[test]
fn a_damaged_memo_image_is_reported_by_fsck_and_survived_by_apply() {
    let t = TempSession::new("memo-image");
    assert!(run(&["init", t.path()]).status.success());
    let out = run(&["state", "fsck", t.path()]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(
        stdout(&out).contains("memo.bin: absent"),
        "{}",
        stdout(&out)
    );
    let tf = t.write("infra.tf", PROGRAM);
    assert!(run(&["apply", t.path(), &tf]).status.success());
    let out = run(&["state", "fsck", t.path()]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(
        stdout(&out).contains("memo.bin: valid for serial 1"),
        "{}",
        stdout(&out)
    );

    // a byte of the image flipped: fsck stays clean and names the damage
    let image = t.dir.join("memo.bin");
    let mut bytes = std::fs::read(&image).expect("apply wrote the image");
    let at = bytes.len() / 2;
    bytes[at] ^= 1;
    std::fs::write(&image, &bytes).unwrap();
    let out = run(&["state", "fsck", t.path()]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("clean"), "{}", stdout(&out));
    assert!(
        stdout(&out).contains("memo.bin: stale (MEM004"),
        "{}",
        stdout(&out)
    );

    // the next apply plans cold, applies, and writes a valid image again
    let edited = t.write("infra.tf", &PROGRAM.replace("10.0.1.0/24", "10.0.2.0/24"));
    let out = run(&["apply", t.path(), &edited]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("aws_subnet.app"), "{}", stdout(&out));
    let out = run(&["state", "fsck", t.path()]);
    assert!(
        stdout(&out).contains("memo.bin: valid for serial 2"),
        "{}",
        stdout(&out)
    );
}

/// `state fsck` says when `memo.bin` trails the log: `state rollback`
/// loads no memo, so the version it commits leaves the last apply's image
/// behind, and the next run re-plans every instance. The `plan` that does
/// so writes the image again, at the head.
#[test]
fn fsck_says_when_the_memo_image_trails_the_log() {
    let t = TempSession::new("memo-trails");
    assert!(run(&["init", t.path()]).status.success());
    let v1 = t.write("v1.tf", PROGRAM);
    let v2 = t.write("v2.tf", PROGRAM_V2);
    for tf in [&v1, &v2] {
        let out = run(&["apply", t.path(), tf]);
        assert!(out.status.success(), "{}", stderr(&out));
    }
    let out = run(&["state", "rollback", t.path(), "1"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = run(&["state", "fsck", t.path()]);
    assert!(out.status.success(), "{}", stdout(&out));
    let trails = "memo.bin: valid for serial 2 (head is 3: the next run re-plans every instance)";
    assert!(stdout(&out).contains(trails), "{}", stdout(&out));

    let out = run(&["plan", t.path(), &v1]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = run(&["state", "fsck", t.path()]);
    let head = "memo.bin: valid for serial 3";
    assert!(stdout(&out).lines().any(|l| l == head), "{}", stdout(&out));
}

/// A `provider` block's `region` is where its provider's resources land
/// unless they pin their own: the validator, the planner and the executor
/// read the one rule, and `state` shows the region the bucket went to.
#[test]
fn a_provider_blocks_region_is_where_its_resources_land() {
    let t = TempSession::new("provider-region");
    run(&["init", t.path()]);
    let tf = t.write(
        "infra.tf",
        r#"provider "aws" {
  region = "eu-west-1"
}
resource "aws_s3_bucket" "logs" {
  bucket = "logs-eu"
}
"#,
    );
    let out = run(&["apply", t.path(), &tf]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = run(&["state", t.path()]);
    let state = stdout(&out);
    let region = |addr: &str| {
        let line = state.lines().find(|line| line.starts_with(addr));
        line.and_then(|line| line.split_whitespace().last())
            .map(str::to_owned)
    };
    assert_eq!(
        region("aws_s3_bucket.logs "),
        Some("eu-west-1".into()),
        "{state}"
    );
}
