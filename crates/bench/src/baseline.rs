//! The CI perf baseline: machine-readable matrix wall-time measurements.
//!
//! `cargo run -p qui-bench --bin baseline --release` measures the views ×
//! updates matrix at several |V|×|U| scales, each through four code paths —
//! the legacy per-pair loop (no sharing), the batched engine sequentially
//! (`jobs = 1`), the batched engine in parallel, and the batched engine with
//! the explicit/CDAG engines forced — and emits a `BENCH_baseline.json`
//! artifact. CI runs it on every PR and fails when:
//!
//! * the batched+parallel matrix is not ≥ the required speedup over the
//!   per-pair loop at the largest scale (the headline claim, which holds even
//!   on one core because the batching is algorithmic), or
//! * on a multi-core runner, parallel (`jobs = N`) is not faster than
//!   sequential (`jobs = 1`) by the required factor, or
//! * normalized matrix cost (sequential wall time divided by a fixed
//!   CPU-calibration workload measured in the same run, making the gate
//!   roughly machine-independent) regresses more than the tolerance against
//!   the committed baseline in `ci/BENCH_baseline.json`.
//!
//! Thresholds are env-tunable: `QUI_BASELINE_MIN_SPEEDUP` (batching,
//! default 2.0), `QUI_BASELINE_MIN_PARALLEL_SPEEDUP` (default 1.5, enforced
//! only with ≥ 4 workers), `QUI_BASELINE_TOLERANCE` (default 0.25).
//! Regenerate the committed file with `--out ci/BENCH_baseline.json` when the
//! analysis legitimately changes cost.

use crate::{matrix_time, pairwise_matrix_time};
use qui_core::{EngineKind, Jobs};
use qui_workloads::{all_updates, all_views, NamedUpdate, NamedView};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured |V|×|U| scale.
#[derive(Clone, Copy, Debug)]
pub struct ScaleSpec {
    /// Display name ("S", "M", "L").
    pub name: &'static str,
    /// Number of views (prefix of the 36-view workload).
    pub views: usize,
    /// Number of updates (prefix of the 31-update workload).
    pub updates: usize,
}

/// The default scale ladder, ending at the full Fig. 3.a matrix.
pub const DEFAULT_SCALES: [ScaleSpec; 3] = [
    ScaleSpec {
        name: "S",
        views: 9,
        updates: 8,
    },
    ScaleSpec {
        name: "M",
        views: 18,
        updates: 16,
    },
    ScaleSpec {
        name: "L",
        views: 36,
        updates: 31,
    },
];

/// Measurements for one scale (all times in milliseconds; each is the
/// minimum over the harness's repetitions).
#[derive(Clone, Debug)]
pub struct ScaleResult {
    /// Scale name.
    pub scale: String,
    /// Number of views.
    pub views: usize,
    /// Number of updates.
    pub updates: usize,
    /// Number of matrix cells.
    pub cells: usize,
    /// Legacy per-pair loop (no inference sharing, sequential).
    pub pairwise_ms: f64,
    /// Batched engine, `jobs = 1`.
    pub seq_ms: f64,
    /// Batched engine, `jobs =` the harness's worker count.
    pub par_ms: f64,
    /// Batched engine with the explicit engine forced, `jobs = 1`.
    pub explicit_seq_ms: f64,
    /// Batched engine with the CDAG engine forced, `jobs = 1`.
    pub cdag_seq_ms: f64,
    /// `seq_ms / par_ms` — the thread-pool speedup.
    pub speedup_parallel: f64,
    /// `pairwise_ms / par_ms` — the end-to-end matrix speedup of the new
    /// subsystem over the legacy loop (batching × parallelism).
    pub speedup_vs_pairwise: f64,
    /// Number of independent cells (a determinism check across runs and
    /// machines: this count must never vary).
    pub independent_cells: usize,
}

/// The full baseline report.
#[derive(Clone, Debug)]
pub struct BaselineReport {
    /// Worker count used for the parallel measurements.
    pub workers: usize,
    /// Wall time of the fixed CPU-calibration workload on this machine.
    pub calibration_ms: f64,
    /// Per-scale measurements, smallest to largest.
    pub scales: Vec<ScaleResult>,
    /// `seq_ms` of the largest scale divided by `calibration_ms` — the
    /// machine-normalized matrix cost the regression gate tracks.
    pub norm_cost: f64,
}

impl BaselineReport {
    /// The largest (last) scale.
    pub fn largest(&self) -> &ScaleResult {
        self.scales.last().expect("at least one scale")
    }

    /// Serializes the report as pretty-printed JSON (hand-rolled: the
    /// workspace is dependency-free by construction).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema_version\": 1,");
        let _ = writeln!(s, "  \"workers\": {},", self.workers);
        let _ = writeln!(s, "  \"calibration_ms\": {:.3},", self.calibration_ms);
        let _ = writeln!(s, "  \"norm_cost\": {:.4},", self.norm_cost);
        let _ = writeln!(s, "  \"largest_cells\": {},", self.largest().cells);
        let _ = writeln!(s, "  \"scales\": [");
        for (i, r) in self.scales.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"scale\": \"{}\", \"views\": {}, \"updates\": {}, \"cells\": {}, \
                 \"pairwise_ms\": {:.3}, \"seq_ms\": {:.3}, \"par_ms\": {:.3}, \
                 \"explicit_seq_ms\": {:.3}, \"cdag_seq_ms\": {:.3}, \
                 \"speedup_parallel\": {:.3}, \"speedup_vs_pairwise\": {:.3}, \
                 \"independent_cells\": {}}}",
                r.scale,
                r.views,
                r.updates,
                r.cells,
                r.pairwise_ms,
                r.seq_ms,
                r.par_ms,
                r.explicit_seq_ms,
                r.cdag_seq_ms,
                r.speedup_parallel,
                r.speedup_vs_pairwise,
                r.independent_cells
            );
            let _ = writeln!(s, "{}", if i + 1 < self.scales.len() { "," } else { "" });
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }

    /// Renders a human-readable table of the measurements.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "matrix baseline — {} workers, calibration {:.1} ms, norm cost {:.3}",
            self.workers, self.calibration_ms, self.norm_cost
        );
        let _ = writeln!(
            s,
            "{:<6} {:>9} {:>12} {:>11} {:>11} {:>12} {:>10} {:>10} {:>9}",
            "scale",
            "cells",
            "pairwise ms",
            "seq ms",
            "par ms",
            "explicit ms",
            "cdag ms",
            "par x",
            "total x"
        );
        for r in &self.scales {
            let _ = writeln!(
                s,
                "{:<6} {:>9} {:>12.2} {:>11.2} {:>11.2} {:>12.2} {:>10.2} {:>10.2} {:>9.2}",
                r.scale,
                r.cells,
                r.pairwise_ms,
                r.seq_ms,
                r.par_ms,
                r.explicit_seq_ms,
                r.cdag_seq_ms,
                r.speedup_parallel,
                r.speedup_vs_pairwise
            );
        }
        s
    }
}

fn ms_f64(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The fixed CPU-calibration workload: a pure arithmetic spin whose wall time
/// tracks single-core speed. Dividing matrix wall time by it makes the
/// regression gate comparable across runner generations.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e3779b97f4a7c15;
    for _ in 0..20_000_000u64 {
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
    }
    black_box(x);
    ms_f64(start.elapsed())
}

/// Runs one scale: every code path `reps` times, keeping the minimum.
fn run_scale(
    spec: &ScaleSpec,
    views: &[NamedView],
    updates: &[NamedUpdate],
    workers: usize,
    reps: usize,
) -> ScaleResult {
    let vs = &views[..spec.views.min(views.len())];
    let us = &updates[..spec.updates.min(updates.len())];
    let mut pairwise = f64::MAX;
    let mut seq = f64::MAX;
    let mut par = f64::MAX;
    let mut explicit_seq = f64::MAX;
    let mut cdag_seq = f64::MAX;
    let mut independent_cells = 0;
    for _ in 0..reps.max(1) {
        pairwise = pairwise.min(ms_f64(pairwise_matrix_time(vs, us, EngineKind::Auto)));
        let t = matrix_time(vs, us, EngineKind::Auto, Jobs::Fixed(1));
        independent_cells = t.independent_count();
        seq = seq.min(ms_f64(t.wall));
        par = par.min(ms_f64(
            matrix_time(vs, us, EngineKind::Auto, Jobs::Fixed(workers)).wall,
        ));
        explicit_seq = explicit_seq.min(ms_f64(
            matrix_time(vs, us, EngineKind::Explicit, Jobs::Fixed(1)).wall,
        ));
        cdag_seq = cdag_seq.min(ms_f64(
            matrix_time(vs, us, EngineKind::Cdag, Jobs::Fixed(1)).wall,
        ));
    }
    ScaleResult {
        scale: spec.name.to_string(),
        views: vs.len(),
        updates: us.len(),
        cells: vs.len() * us.len(),
        pairwise_ms: pairwise,
        seq_ms: seq,
        par_ms: par,
        explicit_seq_ms: explicit_seq,
        cdag_seq_ms: cdag_seq,
        speedup_parallel: seq / par.max(f64::EPSILON),
        speedup_vs_pairwise: pairwise / par.max(f64::EPSILON),
        independent_cells,
    }
}

/// Runs the full baseline: calibration plus every scale in `scales`.
pub fn run_baseline(scales: &[ScaleSpec], workers: usize, reps: usize) -> BaselineReport {
    let views = all_views();
    let updates = all_updates();
    let calibration_ms = calibrate();
    let results: Vec<ScaleResult> = scales
        .iter()
        .map(|s| run_scale(s, &views, &updates, workers, reps))
        .collect();
    let norm_cost = results
        .last()
        .map(|r| r.seq_ms / calibration_ms.max(f64::EPSILON))
        .unwrap_or(0.0);
    BaselineReport {
        workers,
        calibration_ms,
        scales: results,
        norm_cost,
    }
}

/// Extracts a numeric field (`"key": 123.4`) from a flat JSON document —
/// enough to read back the committed baseline without a JSON dependency.
pub fn json_number_field(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let idx = json.find(&needle)?;
    let rest = json[idx + needle.len()..].trim_start().strip_prefix(':')?;
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Gate thresholds (see the module docs for the environment overrides).
#[derive(Clone, Copy, Debug)]
pub struct GateConfig {
    /// Required `speedup_vs_pairwise` at the largest scale.
    pub min_speedup: f64,
    /// Required `speedup_parallel` at the largest scale (only enforced when
    /// the harness ran with at least 4 workers — the batching gate already
    /// covers single-core environments).
    pub min_parallel_speedup: f64,
    /// Allowed relative regression of `norm_cost` against the committed
    /// baseline (0.25 = 25%).
    pub tolerance: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            min_speedup: 2.0,
            min_parallel_speedup: 1.5,
            tolerance: 0.25,
        }
    }
}

/// The environment variables [`GateConfig::from_env`] reads, colocated with
/// the reader so the `check-refs` binary can cross-check the workflow YAML
/// against the real gate wiring.
pub const GATE_ENV_VARS: &[&str] = &[
    "QUI_BASELINE_MIN_SPEEDUP",
    "QUI_BASELINE_MIN_PARALLEL_SPEEDUP",
    "QUI_BASELINE_TOLERANCE",
];

impl GateConfig {
    /// Reads the environment overrides on top of the defaults.
    pub fn from_env() -> Self {
        let mut cfg = GateConfig::default();
        if let Some(v) = env_f64("QUI_BASELINE_MIN_SPEEDUP") {
            cfg.min_speedup = v;
        }
        if let Some(v) = env_f64("QUI_BASELINE_MIN_PARALLEL_SPEEDUP") {
            cfg.min_parallel_speedup = v;
        }
        if let Some(v) = env_f64("QUI_BASELINE_TOLERANCE") {
            cfg.tolerance = v;
        }
        cfg
    }
}

fn env_f64(key: &str) -> Option<f64> {
    std::env::var(key).ok()?.trim().parse().ok()
}

/// Applies the perf gates; returns the list of failures (empty = pass).
///
/// `committed_norm_cost` is the committed baseline's `(norm_cost,
/// largest_cells)` pair: the regression gate only applies when the largest
/// measured scale matches the committed one.
pub fn check_gates(
    report: &BaselineReport,
    committed_norm_cost: Option<(f64, usize)>,
    cfg: &GateConfig,
) -> Vec<String> {
    let mut failures = Vec::new();
    let largest = report.largest();
    if largest.speedup_vs_pairwise < cfg.min_speedup {
        failures.push(format!(
            "matrix speedup over the per-pair loop at scale {} is {:.2}x, required >= {:.2}x",
            largest.scale, largest.speedup_vs_pairwise, cfg.min_speedup
        ));
    }
    if report.workers >= 4 && largest.speedup_parallel < cfg.min_parallel_speedup {
        failures.push(format!(
            "parallel speedup (jobs={} vs jobs=1) at scale {} is {:.2}x, required >= {:.2}x",
            report.workers, largest.scale, largest.speedup_parallel, cfg.min_parallel_speedup
        ));
    }
    if let Some((committed, committed_cells)) = committed_norm_cost {
        if committed_cells != largest.cells {
            // A --quick run (or a changed scale ladder) measured a different
            // largest scale than the committed baseline; the normalized costs
            // are not comparable, so the regression gate does not apply.
            eprintln!(
                "note: regression gate skipped — largest scale has {} cells, committed baseline has {}",
                largest.cells, committed_cells
            );
            return failures;
        }
        let limit = committed * (1.0 + cfg.tolerance);
        if report.norm_cost > limit {
            failures.push(format!(
                "normalized matrix cost regressed: {:.3} vs committed {:.3} (limit {:.3}, tolerance {:.0}%)",
                report.norm_cost,
                committed,
                limit,
                cfg.tolerance * 100.0
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> BaselineReport {
        BaselineReport {
            workers: 4,
            calibration_ms: 10.0,
            norm_cost: 3.0,
            scales: vec![ScaleResult {
                scale: "T".to_string(),
                views: 2,
                updates: 2,
                cells: 4,
                pairwise_ms: 40.0,
                seq_ms: 30.0,
                par_ms: 10.0,
                explicit_seq_ms: 30.0,
                cdag_seq_ms: 20.0,
                speedup_parallel: 3.0,
                speedup_vs_pairwise: 4.0,
                independent_cells: 1,
            }],
        }
    }

    #[test]
    fn json_round_trips_the_gate_fields() {
        let report = tiny_report();
        let json = report.to_json();
        assert_eq!(json_number_field(&json, "norm_cost"), Some(3.0));
        assert_eq!(json_number_field(&json, "workers"), Some(4.0));
        assert_eq!(json_number_field(&json, "largest_cells"), Some(4.0));
        assert_eq!(json_number_field(&json, "speedup_vs_pairwise"), Some(4.0));
        assert_eq!(json_number_field(&json, "missing"), None);
    }

    #[test]
    fn gates_pass_and_fail_as_configured() {
        let report = tiny_report();
        let cfg = GateConfig::default();
        assert!(check_gates(&report, Some((3.0, 4)), &cfg).is_empty());
        // Regression beyond tolerance fails.
        let failures = check_gates(&report, Some((2.0, 4)), &cfg);
        assert_eq!(failures.len(), 1, "{failures:?}");
        // A committed baseline at a different scale skips the regression gate.
        assert!(check_gates(&report, Some((2.0, 999)), &cfg).is_empty());
        // Insufficient batching speedup fails.
        let mut slow = report.clone();
        slow.scales[0].speedup_vs_pairwise = 1.1;
        assert!(!check_gates(&slow, None, &cfg).is_empty());
        // Parallel gate only applies with >= 4 workers.
        let mut single = report.clone();
        single.workers = 1;
        single.scales[0].speedup_parallel = 1.0;
        assert!(check_gates(&single, None, &cfg).is_empty());
    }

    #[test]
    fn tiny_baseline_run_is_consistent() {
        // One minuscule scale keeps the test fast while exercising the whole
        // measurement pipeline.
        let scales = [ScaleSpec {
            name: "tiny",
            views: 3,
            updates: 2,
        }];
        let report = run_baseline(&scales, 2, 1);
        assert_eq!(report.scales.len(), 1);
        let r = &report.scales[0];
        assert_eq!(r.cells, 6);
        assert!(r.seq_ms > 0.0 && r.par_ms > 0.0 && r.pairwise_ms > 0.0);
        assert!(report.calibration_ms > 0.0);
        let json = report.to_json();
        assert_eq!(json_number_field(&json, "cells"), Some(6.0));
    }
}
