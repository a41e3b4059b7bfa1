//! The continuous-maintenance harness binary: sustained updates against live
//! registered views (naive vs independence-pruned),
//! `BENCH_maintain.json` emission, and (with `--check`) the CI perf gates.
//!
//! ```text
//! maintain [--out FILE] [--check COMMITTED.json] [--jobs N] [--reps N]
//!          [--scales S,M,L,XL] [--quick]
//! ```
//!
//! * `--out FILE`     — where to write the JSON report (default `BENCH_maintain.json`)
//! * `--check FILE`   — read a committed baseline and fail (exit 1) on gate violations
//! * `--jobs N`       — worker count for the sharded re-evaluations (default: all cores)
//! * `--reps N`       — repetitions per strategy stream, minimum kept (default 2)
//! * `--scales LIST`  — comma-separated ladder subset (default `S,M`)
//! * `--quick`        — the S,M PR-CI ladder (gates apply at M, the largest)
//!
//! Gate thresholds come from `QUI_MAINTAIN_MIN_PRUNED_SPEEDUP` and
//! `QUI_MAINTAIN_TOLERANCE` (see `qui_bench::maintain`).

use qui_bench::baseline::json_number_field;
use qui_bench::maintain::{
    check_maintain_gates, run_maintain, MaintainGateConfig, MaintainSpec, DEFAULT_SCALES,
    QUICK_SCALES,
};
use qui_bench::take_value;
use qui_core::parallel::machine_parallelism;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("maintain: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut out = "BENCH_maintain.json".to_string();
    let mut check: Option<String> = None;
    let mut jobs = machine_parallelism();
    let mut reps = 2usize;
    let mut quick = false;
    let mut scales: Option<Vec<MaintainSpec>> = None;
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
                scales = Some(MaintainSpec::parse_list(&take_value(
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
        None if quick => QUICK_SCALES.map(MaintainSpec::for_scale).to_vec(),
        None => DEFAULT_SCALES.map(MaintainSpec::for_scale).to_vec(),
    };
    let report = run_maintain(&scales, jobs.max(1), reps);
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
    let cfg = MaintainGateConfig::from_env();
    let failures = check_maintain_gates(&report, Some((committed_norm, committed_nodes)), &cfg);
    if failures.is_empty() {
        println!(
            "perf gates PASS (pruned {:.2}x vs naive, norm cost {:.3} vs committed {:.3})",
            report.largest().pruned_speedup,
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
