//! E18 — the concurrency-analysis benchmark runner.
//!
//! Prints the deterministic corpus table (static findings vs the
//! schedule-fuzzing oracle), then measures analyzer wall time against the
//! plan stage at scale. With `--attach FILE` the scale points are folded
//! into an existing `BENCH_*.json` report (the `analyze` section); with
//! `--check` the run fails unless every point keeps whole-program
//! analysis within 2× of plan construction and finding-free on the clean
//! scale workloads. `--check-report FILE` applies the same gate to the
//! points already committed in a report instead of re-measuring.
//!
//! ```text
//! exp_concurrency [--tier smoke|full] [--attach FILE] [--check] [--check-report FILE]
//! ```

use std::process::ExitCode;

use cloudless_bench::experiments::e14_scale::ScaleReport;
use cloudless_bench::experiments::e18_concurrency;

fn usage() -> ! {
    eprintln!("usage: exp_concurrency [--tier smoke|full] [--attach FILE] [--check] [--check-report FILE]");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tier = "smoke".to_owned();
    let mut attach: Option<String> = None;
    let mut check = false;
    let mut check_report: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tier" => {
                i += 1;
                tier = args.get(i).cloned().unwrap_or_else(|| usage());
                if tier != "smoke" && tier != "full" {
                    usage();
                }
            }
            "--attach" => {
                i += 1;
                attach = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--check" => check = true,
            "--check-report" => {
                i += 1;
                check_report = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }

    // Gate a committed report without re-measuring.
    if let Some(path) = check_report {
        let raw = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read bench report {path}: {e}"));
        let report: ScaleReport = serde_json::from_str(&raw)
            .unwrap_or_else(|e| panic!("cannot parse bench report {path}: {e}"));
        let fails = e18_concurrency::check_scale(&report.analyze);
        if fails.is_empty() {
            println!(
                "analyze gate ok: {} point(s) within {}x of plan",
                report.analyze.len(),
                e18_concurrency::MAX_RATIO
            );
            return ExitCode::SUCCESS;
        }
        for f in &fails {
            eprintln!("analyze gate: {f}");
        }
        return ExitCode::FAILURE;
    }

    // Corpus half: deterministic, also part of the `exp all` snapshot.
    println!("{}", e18_concurrency::run());

    // Scale half: host wall-clock.
    let points = e18_concurrency::run_scale(&tier);
    println!("{}", e18_concurrency::render_scale(&points));

    if let Some(path) = attach {
        let raw = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read bench report {path}: {e}"));
        let mut report: ScaleReport = serde_json::from_str(&raw)
            .unwrap_or_else(|e| panic!("cannot parse bench report {path}: {e}"));
        report.analyze = points.clone();
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(&path, json + "\n")
            .unwrap_or_else(|e| panic!("cannot write bench report {path}: {e}"));
        println!("attached analyze section to {path}");
    }

    if check {
        let fails = e18_concurrency::check_scale(&points);
        if !fails.is_empty() {
            for f in &fails {
                eprintln!("analyze gate: {f}");
            }
            return ExitCode::FAILURE;
        }
        println!(
            "analyze gate ok: {} point(s) within {}x of plan",
            points.len(),
            e18_concurrency::MAX_RATIO
        );
    }
    ExitCode::SUCCESS
}
