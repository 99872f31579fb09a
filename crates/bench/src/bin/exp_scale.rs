//! E14 — the scale trajectory runner and BENCH regression gate.
//!
//! Two modes:
//!
//! * **Measure** (default): run the pipeline at each tier size, print the
//!   table, and optionally write the JSON report.
//!
//!   ```text
//!   exp_scale [--tier smoke|full] [--out BENCH_pr.json]
//!   ```
//!
//! * **Compare**: diff two committed `BENCH_*.json` reports without running
//!   anything; exit non-zero when any stage regressed past the tolerance.
//!
//!   ```text
//!   exp_scale --compare BENCH_baseline.json BENCH_pr.json [--tolerance 0.2]
//!   ```

use std::process::ExitCode;

use cloudless_bench::experiments::e14_scale::{self, ScaleReport};
use cloudless_bench::experiments::{e16_replan, e17_state};

fn usage() -> ! {
    eprintln!(
        "usage: exp_scale [--tier smoke|full] [--out FILE]\n       \
         exp_scale --compare BASELINE PR [--tolerance FRACTION]"
    );
    std::process::exit(2)
}

fn read_report(path: &str) -> ScaleReport {
    let raw = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read bench report {path}: {e}"));
    serde_json::from_str(&raw).unwrap_or_else(|e| panic!("cannot parse bench report {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tier = "smoke".to_owned();
    let mut out: Option<String> = None;
    let mut compare: Option<(String, String)> = None;
    let mut tolerance = 0.2f64;

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
            "--out" => {
                i += 1;
                out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--compare" => {
                let base = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                let pr = args.get(i + 2).cloned().unwrap_or_else(|| usage());
                compare = Some((base, pr));
                i += 2;
            }
            "--tolerance" => {
                i += 1;
                tolerance = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }

    if let Some((base_path, pr_path)) = compare {
        let base = read_report(&base_path);
        let pr = read_report(&pr_path);
        // stages faster than 5ms in the baseline are timer noise, not signal
        let mut regressions = e14_scale::regressions(&base, &pr, tolerance, 5.0);
        // E17's session I/O (log open, snapshot export), same tolerance
        regressions.extend(e17_state::regressions(
            &base.state,
            &pr.state,
            tolerance,
            5.0,
        ));
        // absolute floor: incremental replans must beat the full front end
        // by 10x at 10k and 25x at 100k, independent of the baseline
        regressions.extend(e16_replan::speedup_gates(&pr.replan));
        // absolute floor: the log-structured state store must beat the
        // legacy full-snapshot comparators by 10x on every operation
        regressions.extend(e17_state::state_gates(&pr.state));
        if regressions.is_empty() {
            println!(
                "bench check ok: {pr_path} within {:.0}% of {base_path}",
                tolerance * 100.0
            );
            return ExitCode::SUCCESS;
        }
        eprintln!("bench check FAILED ({pr_path} vs {base_path}):");
        for r in &regressions {
            eprintln!("  {r}");
        }
        return ExitCode::FAILURE;
    }

    let mut report = e14_scale::run(&tier);
    report.replan = e16_replan::run(&tier);
    for p in &mut report.points {
        if let Some(r) = report.replan.iter().find(|r| r.workload == p.workload) {
            p.millis.incremental = r.block_ms;
        }
    }
    println!("{}", e14_scale::render(&report));
    println!("{}", e16_replan::render(&report.replan));
    if let Some(path) = out {
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(&path, json + "\n")
            .unwrap_or_else(|e| panic!("cannot write bench report {path}: {e}"));
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
