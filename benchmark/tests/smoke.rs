//! The smoke tier end to end, through the built binary: every workload,
//! both passes, every correctness check — twice, because counts, checksums,
//! bytes written and virtual makespans must repeat exactly for one seed.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use serde::Json;

const BIN: &str = env!("CARGO_BIN_EXE_cloudless-benchmark");

fn run(home: &Path, args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .env("CLOUDLESS_BENCH_HOME", home)
        .output()
        .expect("harness runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// `(workload, traced) → the facts of each pass`, from an `--out` file.
fn facts(text: &str) -> BTreeMap<(String, bool), Vec<Json>> {
    let mut out: BTreeMap<(String, bool), Vec<Json>> = BTreeMap::new();
    for line in text.lines() {
        let run: Json = serde_json::from_str(line).expect("result line parses");
        let (Some(Json::Str(w)), Some(Json::Bool(t))) = (run.get("workload"), run.get("trace"))
        else {
            panic!("no workload/trace in {line}");
        };
        assert_eq!(
            run.get("correct"),
            Some(&Json::Bool(true)),
            "{w} traced={t}"
        );
        assert_eq!(run.get("failed"), Some(&Json::U64(0)), "{w} traced={t}");
        out.entry((w.clone(), *t))
            .or_default()
            .push(run.get("facts").expect("facts").clone());
    }
    out
}

#[test]
fn smoke_runs_repeat_exactly() {
    let home = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&home);
    std::fs::create_dir_all(&home).unwrap();
    let results = home.join("results.jsonl");
    let args = [
        "--smoke",
        "--trace",
        "--seed",
        "42",
        "--out",
        results.to_str().unwrap(),
    ];
    let table = run(&home, &args);
    run(&home, &args);

    // every end-to-end metric of every workload is printed by name
    for name in [
        "setup_s",
        "op_p50_ms",
        "alt_p50_ms",
        "ops_per_s",
        "peak_rss_mb",
    ] {
        assert_eq!(
            table.matches(&format!("\n{name} ")).count(),
            4,
            "{name} in\n{table}"
        );
    }
    for row in [
        "core.converge_unattributed_ms ms",
        "core.process_unattributed_ms ms",
    ] {
        assert_eq!(table.matches(row).count(), 4, "{row}");
    }
    let passes = facts(&std::fs::read_to_string(&results).unwrap());
    assert_eq!(passes.len(), 8, "four workloads, two passes");
    for (pass, runs) in &passes {
        assert_eq!(runs.len(), 2, "{pass:?} ran in both invocations");
        assert_eq!(
            runs[0], runs[1],
            "{pass:?}: counts and checksums must repeat for one seed"
        );
    }
    // the traces are written and are JSON
    for w in [
        "greenfield",
        "edit-reapply",
        "watch-edits",
        "drift-reconcile",
    ] {
        let trace = std::fs::read_to_string(home.join(format!("out/trace-{w}.json"))).unwrap();
        let doc: Json = serde_json::from_str(&trace).expect("trace parses");
        assert!(matches!(doc.get("traceEvents"), Some(Json::Arr(e)) if !e.is_empty()));
    }
}

#[test]
fn the_contract_line_is_last_and_complete() {
    let home = Path::new(env!("CARGO_TARGET_TMPDIR")).join("contract");
    let _ = std::fs::remove_dir_all(&home);
    std::fs::create_dir_all(&home).unwrap();
    for (trace, expect) in [("0", "op_p50_ms"), ("1", "core.converge_ms")] {
        let stdout = run(
            &home,
            &[
                "--workload",
                "edit-reapply",
                "--seed",
                "7",
                "--seconds",
                "0",
                "--resources",
                "400",
                "--trace",
                trace,
            ],
        );
        let last = stdout.lines().last().expect("output");
        let doc: Json = serde_json::from_str(last).expect("last line is JSON");
        let Json::Obj(fields) = &doc else {
            panic!("not an object: {last}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert!(
            doc.get("metrics").unwrap().get(expect).is_some(),
            "{expect} in {last}"
        );
    }
}

#[test]
fn a_bad_invocation_prints_no_result() {
    let out = Command::new(BIN)
        .args(["--workload", "nonesuch"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
