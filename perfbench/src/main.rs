//! The repository benchmark: one binary, three workloads.
//!
//! ```text
//! qui-perfbench --workload <xmark-maintain|xmark-serve|corpus-analyze>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed` before timing starts. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of the traced run. A
//! human-readable report (environment, set-up repetitions, the workload's
//! own headline numbers) goes to stderr. `perfbench/README.md` documents
//! what each metric means on each workload.

mod analyze;
mod maintain;
mod report;
mod serve;

use report::{result_line, Outcome, END_TO_END, PER_LAYER};

/// Run parameters shared by every workload.
pub struct Config {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the timed window, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["xmark-maintain", "xmark-serve", "corpus-analyze"];

fn usage() -> ! {
    eprintln!(
        "usage: qui-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value == "1",
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    if !seconds.is_finite() || seconds <= 0.0 {
        usage();
    }
    let cfg = Config {
        seed,
        seconds,
        trace,
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "env: workload={workload} seed={seed} seconds={seconds} trace={} available_parallelism={parallelism} commit={}",
        u8::from(trace),
        std::env::var("QUI_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
    );
    let outcome = match workload.as_str() {
        "xmark-maintain" => maintain::run(&cfg),
        "xmark-serve" => serve::run(&cfg),
        "corpus-analyze" => analyze::run(&cfg),
        _ => usage(),
    };
    print_report(&outcome);

    let correct = outcome.failed == 0;
    let metrics: Vec<(&str, f64, &str)> = if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, outcome.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = outcome
                    .end_to_end
                    .get(name)
                    .copied()
                    .unwrap_or_else(|| panic!("workload did not report {name}"));
                (name, value, unit)
            })
            .collect()
    };
    println!(
        "{}",
        result_line(correct, outcome.attempted.max(1), outcome.failed, &metrics)
    );
}

/// The human-readable report on stderr: the workload's own headline
/// numbers, then every end-to-end metric (and in the traced run every
/// per-layer metric) by name and unit.
fn print_report(outcome: &Outcome) {
    let samples: Vec<String> = outcome
        .setup_samples
        .iter()
        .map(|s| format!("{s:.4}"))
        .collect();
    eprintln!("  setup samples (s): {}", samples.join(" "));
    for (name, value, unit) in &outcome.named {
        eprintln!("  {name:<32} {value:>14.4} {unit}");
    }
    eprintln!(
        "  {:<32} {:>14.6} fraction ({} of {})",
        "failed_frac",
        report::frac(outcome.failed as f64, outcome.attempted.max(1) as f64),
        outcome.failed,
        outcome.attempted
    );
    for (name, unit) in END_TO_END {
        if let Some(v) = outcome.end_to_end.get(name) {
            eprintln!("  {name:<32} {v:>14.4} {unit}");
        }
    }
    for (name, unit) in PER_LAYER {
        if let Some(v) = outcome.layers.get(name) {
            eprintln!("  {name:<32} {v:>14.4} {unit}");
        }
    }
    for name in outcome.layers.keys() {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "per-layer metric {name} missing from the catalogue"
        );
    }
}
