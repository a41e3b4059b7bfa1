//! The continuous-maintenance perf harness: sustained updates against live
//! registered views, naive vs independence-pruned.
//!
//! `cargo run -p qui-bench --bin maintain --release` extends the Fig. 3.c
//! simulation into an end-to-end maintenance benchmark: a
//! [`MaintenanceEngine`] keeps the workload views materialized while the
//! update workload streams over the document in batches, and the harness
//! measures each strategy's throughput (updates/second) and phase wall
//! times. It emits `BENCH_maintain.json` (committed reference in
//! `ci/BENCH_maintain.json`).
//!
//! Two strategies run over the identical update stream:
//!
//! * **naive** — every view re-evaluates after every batch that changed
//!   the document;
//! * **pruned** — after such a batch, only the views not statically
//!   independent of the batch re-evaluate (the Fig. 3.c discipline, applied
//!   live).
//!
//! Under both, a batch that left the document as it was refreshes nothing
//! (`unchanged` in the report counts those batches).
//!
//! The headline gate compares the *maintenance phase* (the work the
//! strategies differ on; update application and analysis cost are common):
//! `QUI_MAINTAIN_MIN_PRUNED_SPEEDUP` (pruned vs naive wall, default 1.15),
//! and `QUI_MAINTAIN_TOLERANCE` (allowed regression of the
//! machine-normalized pruned cost vs the committed baseline, default 0.30).
//! The harness also hard-fails if the serialized views ever disagree across
//! strategies — pruning may only skip work, never change an answer. All
//! gates apply at the largest measured scale — M on the default `--quick`
//! PR-CI ladder, so the margin is proven where the effects are real, not
//! just on the S smoke scale.
//! Regenerate the committed file with `--quick --out ci/BENCH_maintain.json`
//! when the maintenance pipeline legitimately changes cost.

use crate::baseline::calibrate;
use qui_core::Jobs;
use qui_workloads::{
    all_updates, all_views, xmark_document, xmark_dtd, BatchStats, MaintainStrategy,
    MaintenanceEngine, XmarkScale,
};
use qui_xquery::Update;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The seed every maintenance measurement uses.
pub const MAINTAIN_SEED: u64 = 13;

/// The two strategies, in report order.
pub const STRATEGIES: [MaintainStrategy; 2] = [MaintainStrategy::Naive, MaintainStrategy::Pruned];

fn strategy_name(s: MaintainStrategy) -> &'static str {
    match s {
        MaintainStrategy::Naive => "naive",
        MaintainStrategy::Pruned => "pruned",
    }
}

/// One measured document scale.
#[derive(Clone, Copy, Debug)]
pub struct MaintainSpec {
    /// Ladder name ("S", "M", "L", "XL").
    pub name: &'static str,
    /// Target document size in nodes.
    pub nodes: usize,
    /// Number of registered views (prefix of the 36-view workload).
    pub views: usize,
    /// Number of distinct updates cycled (prefix of the 31-update workload).
    pub updates: usize,
    /// Updates per batch (one analysis pass and one maintenance pass each).
    pub batch: usize,
    /// How many times the update workload cycles over the document.
    pub rounds: usize,
}

impl MaintainSpec {
    /// The spec for one ladder scale: the full 36 × 31 workload in batches
    /// of two, with the stream shortened as the document grows.
    pub fn for_scale(scale: XmarkScale) -> MaintainSpec {
        let rounds = match scale {
            XmarkScale::Small => 2,
            _ => 1,
        };
        MaintainSpec {
            name: scale.short_name(),
            nodes: scale.target_nodes(),
            views: 36,
            updates: 31,
            batch: 2,
            rounds,
        }
    }

    /// Parses a comma-separated ladder list (`"S,M"`).
    pub fn parse_list(s: &str) -> Result<Vec<MaintainSpec>, String> {
        s.split(',')
            .map(|part| {
                XmarkScale::parse(part)
                    .map(MaintainSpec::for_scale)
                    .ok_or_else(|| format!("unknown scale '{part}' (expected S, M, L or XL)"))
            })
            .collect()
    }
}

/// The default PR-CI ladder (also what `--quick` runs). The gates apply at
/// the largest scale, so `--quick` proves the pruning margin at M — not
/// just the S smoke scale.
pub const QUICK_SCALES: [XmarkScale; 2] = [XmarkScale::Small, XmarkScale::Medium];

/// The default full ladder of the report binary.
pub const DEFAULT_SCALES: [XmarkScale; 2] = [XmarkScale::Small, XmarkScale::Medium];

/// One strategy's measurements over the whole update stream (times in
/// milliseconds, minima over reps; counters are deterministic).
#[derive(Clone, Debug)]
pub struct StrategyRow {
    /// Strategy name ("naive", "pruned").
    pub strategy: String,
    /// Updates applied across the stream.
    pub updates_applied: usize,
    /// Batches the stream was split into.
    pub batches: usize,
    /// Batches that left the document as it was, so no view refreshed.
    pub unchanged: usize,
    /// View refreshes skipped: as independent, or after an unchanged batch.
    pub skipped: usize,
    /// Views re-evaluated from scratch.
    pub reevaluated: usize,
    /// Wall time of the static analysis passes.
    pub analysis_ms: f64,
    /// Wall time of update evaluation + application.
    pub apply_ms: f64,
    /// Wall time of view maintenance (re-evaluations).
    pub maintain_ms: f64,
    /// End-to-end wall time of the stream.
    pub total_ms: f64,
    /// Updates applied per second of steady-state stream work (update
    /// application + view maintenance) — the headline sustained-throughput
    /// figure. The static analysis is document-independent and cached per
    /// distinct update, so over a long stream it amortizes to zero; it is
    /// reported separately in `analysis_ms` and excluded here.
    pub updates_per_sec: f64,
}

/// Measurements for one scale.
#[derive(Clone, Debug)]
pub struct MaintainScaleResult {
    /// Ladder name.
    pub scale: String,
    /// Actual number of nodes in the generated document.
    pub doc_nodes: usize,
    /// Registered views.
    pub views: usize,
    /// Updates per batch.
    pub batch: usize,
    /// Whether both strategies produced identical serialized views at
    /// the end of the stream (hard correctness gate).
    pub strategies_agree: bool,
    /// Per-strategy rows, in [`STRATEGIES`] order.
    pub rows: Vec<StrategyRow>,
    /// Naive / pruned maintenance-phase wall ratio.
    pub pruned_speedup: f64,
}

impl MaintainScaleResult {
    fn row(&self, strategy: MaintainStrategy) -> &StrategyRow {
        &self.rows[STRATEGIES
            .iter()
            .position(|&s| s == strategy)
            .expect("known strategy")]
    }
}

/// The full continuous-maintenance report.
#[derive(Clone, Debug)]
pub struct MaintainReport {
    /// Worker count used for the sharded re-evaluations.
    pub workers: usize,
    /// Wall time of the fixed CPU-calibration workload on this machine.
    pub calibration_ms: f64,
    /// Per-scale measurements, smallest to largest.
    pub scales: Vec<MaintainScaleResult>,
    /// Pruned-strategy maintenance wall of the largest scale divided by
    /// `calibration_ms` — the machine-normalized cost the regression gate
    /// tracks.
    pub norm_cost: f64,
}

impl MaintainReport {
    /// The largest (last) scale.
    pub fn largest(&self) -> &MaintainScaleResult {
        self.scales.last().expect("at least one scale")
    }

    /// Serializes the report as pretty-printed JSON (hand-rolled: the
    /// workspace is dependency-free by construction).
    pub fn to_json(&self) -> String {
        let largest = self.largest();
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema_version\": 1,");
        let _ = writeln!(s, "  \"workers\": {},", self.workers);
        let _ = writeln!(s, "  \"calibration_ms\": {:.3},", self.calibration_ms);
        let _ = writeln!(s, "  \"norm_cost\": {:.4},", self.norm_cost);
        let _ = writeln!(s, "  \"largest_doc_nodes\": {},", largest.doc_nodes);
        let _ = writeln!(s, "  \"pruned_speedup\": {:.3},", largest.pruned_speedup);
        let _ = writeln!(
            s,
            "  \"strategies_agree\": {},",
            self.scales.iter().all(|r| r.strategies_agree)
        );
        let _ = writeln!(s, "  \"scales\": [");
        for (i, r) in self.scales.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"scale\": \"{}\", \"doc_nodes\": {}, \"views\": {}, \"batch\": {}, \
                 \"strategies_agree\": {}, \"pruned_speedup\": {:.3}, \"rows\": [",
                r.scale, r.doc_nodes, r.views, r.batch, r.strategies_agree, r.pruned_speedup
            );
            for (j, row) in r.rows.iter().enumerate() {
                let _ = write!(
                    s,
                    "      {{\"strategy\": \"{}\", \"updates_applied\": {}, \"batches\": {}, \
                     \"unchanged\": {}, \"skipped\": {}, \"reevaluated\": {}, \
                     \"analysis_ms\": {:.3}, \"apply_ms\": {:.3}, \"maintain_ms\": {:.3}, \
                     \"total_ms\": {:.3}, \"updates_per_sec\": {:.1}}}",
                    row.strategy,
                    row.updates_applied,
                    row.batches,
                    row.unchanged,
                    row.skipped,
                    row.reevaluated,
                    row.analysis_ms,
                    row.apply_ms,
                    row.maintain_ms,
                    row.total_ms,
                    row.updates_per_sec
                );
                let _ = writeln!(s, "{}", if j + 1 < r.rows.len() { "," } else { "" });
            }
            let _ = writeln!(
                s,
                "    ]}}{}",
                if i + 1 < self.scales.len() { "," } else { "" }
            );
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
            "maintain — {} workers, calibration {:.1} ms, norm cost {:.3}",
            self.workers, self.calibration_ms, self.norm_cost
        );
        let _ = writeln!(
            s,
            "{:<5} {:<8} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10} {:>9}",
            "scale",
            "strategy",
            "reeval",
            "skipped",
            "batches",
            "maint ms",
            "total ms",
            "upd/s",
            "agree"
        );
        for r in &self.scales {
            for row in &r.rows {
                let _ = writeln!(
                    s,
                    "{:<5} {:<8} {:>8} {:>8} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>9}",
                    r.scale,
                    row.strategy,
                    row.reevaluated,
                    row.skipped,
                    row.batches,
                    row.maintain_ms,
                    row.total_ms,
                    row.updates_per_sec,
                    r.strategies_agree
                );
            }
            let _ = writeln!(s, "{:<5} pruned {:.2}x vs naive", r.scale, r.pruned_speedup);
        }
        s
    }
}

fn ms_f64(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the full update stream once under one strategy; returns the
/// accumulated stats, the end-to-end wall time, and the final serialized
/// views (the cross-strategy agreement observable).
fn run_stream(
    spec: &MaintainSpec,
    strategy: MaintainStrategy,
    updates: &[Update],
    jobs: Jobs,
) -> (BatchStats, Duration, Vec<String>) {
    let dtd = xmark_dtd();
    let views = all_views();
    let doc = xmark_document(spec.nodes, MAINTAIN_SEED);
    let mut engine = MaintenanceEngine::new(&dtd, doc, strategy, jobs);
    for v in views.iter().take(spec.views) {
        engine
            .register_view(v.name, &v.query)
            .expect("workload views evaluate");
    }
    let start = Instant::now();
    for _ in 0..spec.rounds.max(1) {
        for batch in updates.chunks(spec.batch.max(1)) {
            engine
                .apply_batch(batch)
                .expect("workload updates evaluate");
        }
    }
    let wall = start.elapsed();
    (engine.totals().clone(), wall, engine.serialized_views())
}

/// Runs one scale: every strategy over the identical stream, `reps` times,
/// keeping wall-time minima (counters are identical across reps).
fn run_scale(spec: &MaintainSpec, workers: usize, reps: usize) -> MaintainScaleResult {
    let updates: Vec<Update> = all_updates()
        .into_iter()
        .take(spec.updates)
        .map(|u| u.update)
        .collect();
    let doc_nodes = {
        let doc = xmark_document(spec.nodes, MAINTAIN_SEED);
        doc.size()
    };
    // Repetitions interleave the strategies ((naive, pruned) per round) so
    // slow machine drift biases the speedup ratio as little as possible;
    // minima are kept per strategy.
    let jobs = Jobs::Fixed(workers);
    let mut best: Vec<Option<(BatchStats, Duration)>> = vec![None; STRATEGIES.len()];
    let mut finals: Vec<Vec<String>> = vec![Vec::new(); STRATEGIES.len()];
    for _ in 0..reps.max(1) {
        for (si, &strategy) in STRATEGIES.iter().enumerate() {
            let (stats, wall, views) = run_stream(spec, strategy, &updates, jobs);
            if let Some((prev, _)) = &best[si] {
                debug_assert_eq!(
                    prev.deterministic_fields(),
                    stats.deterministic_fields(),
                    "maintenance counters must not depend on the repetition"
                );
            }
            let better = best[si]
                .as_ref()
                .map(|(_, prev_wall)| wall < *prev_wall)
                .unwrap_or(true);
            if better {
                best[si] = Some((stats, wall));
            }
            finals[si] = views;
        }
    }
    let mut rows: Vec<StrategyRow> = Vec::new();
    for (si, &strategy) in STRATEGIES.iter().enumerate() {
        let (stats, wall) = best[si].take().expect("at least one rep");
        let total_ms = ms_f64(wall);
        rows.push(StrategyRow {
            strategy: strategy_name(strategy).to_string(),
            updates_applied: stats.updates,
            batches: spec.rounds.max(1) * spec.updates.div_ceil(spec.batch.max(1)),
            unchanged: stats.unchanged,
            skipped: stats.skipped,
            reevaluated: stats.reevaluated,
            analysis_ms: ms_f64(stats.analysis),
            apply_ms: ms_f64(stats.apply),
            maintain_ms: ms_f64(stats.maintain),
            total_ms,
            updates_per_sec: stats.updates as f64
                / (ms_f64(stats.apply + stats.maintain) / 1e3).max(f64::EPSILON),
        });
    }
    let strategies_agree = finals.windows(2).all(|w| w[0] == w[1]);
    MaintainScaleResult {
        scale: spec.name.to_string(),
        doc_nodes,
        views: spec.views,
        batch: spec.batch,
        strategies_agree,
        pruned_speedup: rows[0].maintain_ms / rows[1].maintain_ms.max(f64::EPSILON),
        rows,
    }
}

/// Runs the full harness: calibration plus every scale in `scales`.
pub fn run_maintain(scales: &[MaintainSpec], workers: usize, reps: usize) -> MaintainReport {
    let calibration_ms = calibrate();
    let results: Vec<MaintainScaleResult> = scales
        .iter()
        .map(|spec| run_scale(spec, workers, reps))
        .collect();
    let norm_cost = results
        .last()
        .map(|r| r.row(MaintainStrategy::Pruned).maintain_ms / calibration_ms.max(f64::EPSILON))
        .unwrap_or(0.0);
    MaintainReport {
        workers,
        calibration_ms,
        scales: results,
        norm_cost,
    }
}

/// Gate thresholds (see the module docs for the environment overrides).
#[derive(Clone, Copy, Debug)]
pub struct MaintainGateConfig {
    /// Required naive / pruned maintenance-wall ratio at the largest scale.
    pub min_pruned_speedup: f64,
    /// Allowed relative regression of `norm_cost` against the committed
    /// baseline (0.30 = 30%).
    pub tolerance: f64,
}

impl Default for MaintainGateConfig {
    fn default() -> Self {
        MaintainGateConfig {
            min_pruned_speedup: 1.15,
            tolerance: 0.30,
        }
    }
}

/// The environment variables [`MaintainGateConfig::from_env`] reads,
/// colocated with the reader so the `check-refs` binary can cross-check the
/// workflow YAML against the real gate wiring.
pub const GATE_ENV_VARS: &[&str] = &["QUI_MAINTAIN_MIN_PRUNED_SPEEDUP", "QUI_MAINTAIN_TOLERANCE"];

impl MaintainGateConfig {
    /// Reads the environment overrides on top of the defaults.
    pub fn from_env() -> Self {
        let mut cfg = MaintainGateConfig::default();
        if let Some(v) = env_f64("QUI_MAINTAIN_MIN_PRUNED_SPEEDUP") {
            cfg.min_pruned_speedup = v;
        }
        if let Some(v) = env_f64("QUI_MAINTAIN_TOLERANCE") {
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
/// `committed` is the committed baseline's `(norm_cost, largest_doc_nodes)`
/// pair: the regression gate only applies when the largest measured scale
/// matches the committed one.
pub fn check_maintain_gates(
    report: &MaintainReport,
    committed: Option<(f64, usize)>,
    cfg: &MaintainGateConfig,
) -> Vec<String> {
    let mut failures = Vec::new();
    for r in &report.scales {
        if !r.strategies_agree {
            failures.push(format!(
                "strategies disagree on the final view contents at scale {} (pruning changed an answer)",
                r.scale
            ));
        }
    }
    let largest = report.largest();
    if largest.pruned_speedup < cfg.min_pruned_speedup {
        failures.push(format!(
            "pruned maintenance at scale {} is {:.2}x faster than naive, required >= {:.2}x",
            largest.scale, largest.pruned_speedup, cfg.min_pruned_speedup
        ));
    }
    if let Some((committed_norm, committed_nodes)) = committed {
        if committed_nodes != largest.doc_nodes {
            eprintln!(
                "note: regression gate skipped — largest scale has {} nodes, committed baseline has {}",
                largest.doc_nodes, committed_nodes
            );
            return failures;
        }
        let limit = committed_norm * (1.0 + cfg.tolerance);
        if report.norm_cost > limit {
            failures.push(format!(
                "normalized pruned maintenance cost regressed: {:.3} vs committed {:.3} (limit {:.3}, tolerance {:.0}%)",
                report.norm_cost,
                committed_norm,
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
    use crate::baseline::json_number_field;

    fn row(strategy: &str, reeval: usize, maintain_ms: f64) -> StrategyRow {
        StrategyRow {
            strategy: strategy.to_string(),
            updates_applied: 62,
            batches: 32,
            unchanged: 0,
            skipped: 900,
            reevaluated: reeval,
            analysis_ms: 5.0,
            apply_ms: 20.0,
            maintain_ms,
            total_ms: maintain_ms + 25.0,
            updates_per_sec: 1000.0,
        }
    }

    fn tiny_report() -> MaintainReport {
        MaintainReport {
            workers: 4,
            calibration_ms: 10.0,
            norm_cost: 8.0,
            scales: vec![MaintainScaleResult {
                scale: "T".to_string(),
                doc_nodes: 5000,
                views: 36,
                batch: 2,
                strategies_agree: true,
                rows: vec![row("naive", 1152, 300.0), row("pruned", 184, 120.0)],
                pruned_speedup: 2.5,
            }],
        }
    }

    #[test]
    fn json_round_trips_the_gate_fields() {
        let json = tiny_report().to_json();
        assert_eq!(json_number_field(&json, "norm_cost"), Some(8.0));
        assert_eq!(json_number_field(&json, "largest_doc_nodes"), Some(5000.0));
        assert_eq!(json_number_field(&json, "pruned_speedup"), Some(2.5));
        assert!(json.contains("\"strategies_agree\": true"));
        assert!(json.contains("\"strategy\": \"pruned\""));
    }

    #[test]
    fn gates_pass_and_fail_as_configured() {
        let report = tiny_report();
        let cfg = MaintainGateConfig::default();
        assert!(check_maintain_gates(&report, Some((8.0, 5000)), &cfg).is_empty());
        // Regression beyond tolerance fails.
        assert_eq!(
            check_maintain_gates(&report, Some((4.0, 5000)), &cfg).len(),
            1
        );
        // A committed baseline at a different scale skips the regression gate.
        assert!(check_maintain_gates(&report, Some((4.0, 4999)), &cfg).is_empty());
        // Pruning falling below the naive-speedup floor fails.
        let mut slow = report.clone();
        slow.scales[0].pruned_speedup = 1.0;
        assert_eq!(check_maintain_gates(&slow, None, &cfg).len(), 1);
        // A correctness divergence is always fatal.
        let mut wrong = report.clone();
        wrong.scales[0].strategies_agree = false;
        assert!(!check_maintain_gates(&wrong, None, &cfg).is_empty());
    }

    #[test]
    fn scale_lists_parse() {
        let scales = MaintainSpec::parse_list("S,M").unwrap();
        assert_eq!(scales.len(), 2);
        assert_eq!(scales[0].name, "S");
        assert_eq!(scales[1].nodes, XmarkScale::Medium.target_nodes());
        assert!(MaintainSpec::parse_list("S,nope").is_err());
    }

    #[test]
    fn tiny_maintain_run_is_consistent() {
        // A miniature stream exercises the whole pipeline end to end: both
        // strategies, batching and the agreement check.
        let spec = MaintainSpec {
            name: "tiny",
            nodes: 2_000,
            views: 8,
            updates: 6,
            batch: 2,
            rounds: 1,
        };
        let report = run_maintain(&[spec], 2, 1);
        assert_eq!(report.scales.len(), 1);
        let r = &report.scales[0];
        assert!(r.strategies_agree, "strategies must agree");
        assert_eq!(r.rows.len(), 2);
        let naive = &r.rows[0];
        let pruned = &r.rows[1];
        assert_eq!(naive.updates_applied, 6);
        assert_eq!(naive.batches, 3);
        // Naive refreshes every view after each batch that changed the
        // document and none after one that did not.
        assert_eq!(pruned.unchanged, naive.unchanged);
        assert_eq!(naive.reevaluated, 8 * (3 - naive.unchanged));
        assert_eq!(naive.skipped, 8 * naive.unchanged);
        assert!(pruned.reevaluated <= naive.reevaluated);
        assert!(pruned.total_ms > 0.0);
        let json = report.to_json();
        assert_eq!(json_number_field(&json, "workers"), Some(2.0));
        assert!(json_number_field(&json, "pruned_speedup").is_some());
        assert!(!report.render().is_empty());
    }
}
