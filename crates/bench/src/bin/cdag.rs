//! The CI perf-cdag binary: measures the CDAG engine on the
//! full XMark matrix, writes `BENCH_cdag.json`, and (with `--check`)
//! enforces the perf gates against a committed reference.
//!
//! ```text
//! cdag [--out FILE] [--check COMMITTED.json] [--reps N]
//! ```
//!
//! * `--out FILE`   — where to write the JSON report (default `BENCH_cdag.json`)
//! * `--check FILE` — read a committed reference and fail (exit 1) on gate violations
//! * `--reps N`     — repetitions per timing, minimum kept (default 3)
//!
//! Gate thresholds come from `QUI_CDAG_MIN_AUTOMATON_SAVING` and
//! `QUI_CDAG_TOLERANCE` (see `qui_bench::cdag`).

use qui_bench::baseline::json_number_field;
use qui_bench::cdag::{check_cdag_gates, run_cdag, CdagGateConfig};
use qui_bench::take_value;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("cdag: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut out = "BENCH_cdag.json".to_string();
    let mut check: Option<String> = None;
    let mut reps = 3usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out = take_value(args, &mut i, "--out")?;
            }
            "--check" => {
                check = Some(take_value(args, &mut i, "--check")?);
            }
            "--reps" => {
                reps = take_value(args, &mut i, "--reps")?
                    .parse()
                    .map_err(|_| "--reps expects an integer".to_string())?;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }

    let report = run_cdag(reps);
    print!("{}", report.render());
    std::fs::write(&out, report.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");

    let Some(committed_path) = check else {
        return Ok(ExitCode::SUCCESS);
    };
    let committed = std::fs::read_to_string(&committed_path)
        .map_err(|e| format!("cannot read {committed_path}: {e}"))?;
    let committed_norm = json_number_field(&committed, "norm_cost")
        .ok_or_else(|| format!("{committed_path}: no norm_cost field"))?;
    let committed_cells = json_number_field(&committed, "cells")
        .ok_or_else(|| format!("{committed_path}: no cells field"))?
        as usize;
    let cfg = CdagGateConfig::from_env();
    let failures = check_cdag_gates(&report, Some((committed_norm, committed_cells)), &cfg);
    if failures.is_empty() {
        println!(
            "perf gates PASS (auto {:.1} ms, projection saves {:.1}%, norm cost {:.3} vs committed {:.3})",
            report.auto_ms,
            report.automaton_saving_pct,
            report.norm_cost,
            committed_norm
        );
        Ok(ExitCode::SUCCESS)
    } else {
        for f in &failures {
            eprintln!("perf gate FAIL: {f}");
        }
        Ok(ExitCode::FAILURE)
    }
}
