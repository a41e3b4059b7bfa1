//! The Fig. 3.c harness binary: paper-scale XMark ingest + view-maintenance
//! measurements, `BENCH_fig3c.json` emission, and (with `--check`) the CI
//! perf gates. Also prints the classic Fig. 3.c savings table.
//!
//! ```text
//! fig3c [--out FILE] [--check COMMITTED.json] [--jobs N] [--reps N]
//!       [--scales S,M,L,XL] [--quick]
//! ```
//!
//! * `--out FILE`     — where to write the JSON report (default `BENCH_fig3c.json`)
//! * `--check FILE`   — read a committed baseline and fail (exit 1) on gate violations
//! * `--jobs N`       — worker count for the parallel measurements (default: all cores)
//! * `--reps N`       — repetitions per measurement, minimum kept (default 2)
//! * `--scales LIST`  — comma-separated ladder subset (default `S,M,L`)
//! * `--quick`        — single repetition, S and M scales only (what PR CI runs)
//!
//! Gate thresholds come from `QUI_FIG3C_MIN_PRUNING_SAVING`,
//! `QUI_FIG3C_MIN_PARALLEL_SPEEDUP`, `QUI_FIG3C_MAX_PEAK_BUFFER_FRACTION`,
//! `QUI_FIG3C_MAX_BYTES_PER_NODE` and `QUI_FIG3C_TOLERANCE` (see
//! `qui_bench::fig3c`). The closing PASS/FAIL line reads `parallel
//! UNMEASURED` when fewer than 4 workers ran the parallel measurement.

use qui_bench::fig3c::{
    check_fig3c_gates, gate_summary, json_number_field, run_fig3c, Fig3cGateConfig, Fig3cScaleSpec,
    DEFAULT_SCALES, QUICK_SCALES,
};
use qui_core::parallel::machine_parallelism;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("fig3c: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Consumes the value of a `--flag value` pair.
fn take_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    let v = args
        .get(*i + 1)
        .ok_or_else(|| format!("{flag} expects a value"))?
        .clone();
    *i += 2;
    Ok(v)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut out = "BENCH_fig3c.json".to_string();
    let mut check: Option<String> = None;
    let mut jobs = machine_parallelism();
    let mut reps = 2usize;
    let mut quick = false;
    let mut scales: Option<Vec<Fig3cScaleSpec>> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out = take_value(args, &mut i, "--out")?;
            }
            "--check" => {
                check = Some(take_value(args, &mut i, "--check")?);
            }
            "--jobs" => {
                jobs = take_value(args, &mut i, "--jobs")?
                    .parse()
                    .map_err(|_| "--jobs expects an integer".to_string())?;
            }
            "--reps" => {
                reps = take_value(args, &mut i, "--reps")?
                    .parse()
                    .map_err(|_| "--reps expects an integer".to_string())?;
            }
            "--scales" => {
                scales = Some(Fig3cScaleSpec::parse_list(&take_value(
                    args, &mut i, "--scales",
                )?)?);
            }
            "--quick" => {
                quick = true;
                i += 1;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }

    let scales = match scales {
        Some(s) => s,
        None if quick => QUICK_SCALES.map(Fig3cScaleSpec::for_scale).to_vec(),
        None => DEFAULT_SCALES.map(Fig3cScaleSpec::for_scale).to_vec(),
    };
    if quick {
        reps = 1;
    }
    let report = run_fig3c(&scales, jobs.max(1), reps).map_err(|e| e.to_string())?;
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
    let committed_nodes = json_number_field(&committed, "largest_doc_nodes")
        .ok_or_else(|| format!("{committed_path}: no largest_doc_nodes field"))?
        as usize;
    let cfg = Fig3cGateConfig::from_env();
    let failures = check_fig3c_gates(&report, Some((committed_norm, committed_nodes)), &cfg);
    let summary = gate_summary(&report, committed_norm);
    if failures.is_empty() {
        println!("perf gates PASS ({summary})");
        Ok(ExitCode::SUCCESS)
    } else {
        for f in &failures {
            eprintln!("perf gate FAIL: {f}");
        }
        eprintln!("perf gates FAIL ({summary})");
        Ok(ExitCode::FAILURE)
    }
}
