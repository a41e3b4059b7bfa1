//! # qui-bench — benchmark harness regenerating Figure 3 of the paper
//!
//! Every panel of the paper's results figure has a report binary (under
//! `src/bin/`) printing the same rows/series the paper plots; the two
//! measurements no binary prints have a Criterion bench (under `benches/`):
//!
//! | Paper panel | Bench | Binary |
//! |---|---|---|
//! | Fig. 3.a — chain-analysis runtime per update vs the 36 views | — | `fig3a` |
//! | Fig. 3.b — % of independent pairs detected, chains vs types  | — | `fig3b` |
//! | Fig. 3.c — view re-materialization time savings              | — | `fig3c` |
//! | Fig. 3.d — chain-inference time on the R-benchmark           | — | `fig3d` |
//! | §6.1 complexity discussion (CDAG vs explicit chain sets)     | `cdag_micro` | — |
//! | Ablations (element chains, attributes, commutativity)        | `ablation` | — |
//! | CI fig3c gate (paper-scale ingest + maintenance)             | — | `fig3c` |
//!
//! The timing of the analysis, serving and live-maintenance paths is the
//! repository benchmark's job (`perfbench/`, workloads `corpus-analyze`,
//! `xmark-serve` and `xmark-maintain`), not this crate's; the deterministic
//! properties those paths promise are pinned by the test suite.
//!
//! Run a binary with `cargo run --release -p qui-bench --bin fig3a`.
//!
//! All matrix timings build an [`AnalysisSession`](qui_core::AnalysisSession)
//! and register the workload with
//! [`add_workload`](qui_core::AnalysisSession::add_workload) — the same
//! path behind `qui matrix` — so the harnesses measure exactly the
//! production code path. [`matrix_time`] measures whole-matrix wall time at a
//! chosen worker count; [`update_row_time`] measures the classic Fig. 3.a row
//! (one update against the whole view set).

pub mod fig3c;
pub mod refs;

use qui_core::{AnalyzerConfig, EngineKind, Jobs, SessionBuilder};
use qui_workloads::{all_views, xmark_dtd, NamedUpdate, NamedView};
use std::time::{Duration, Instant};

pub use fig3c::{run_fig3c, Fig3cReport, Fig3cScaleResult, Fig3cScaleSpec};

/// One whole-matrix analysis: wall time plus the verdicts it produced.
#[derive(Clone, Debug)]
pub struct MatrixTiming {
    /// Wall-clock time of the batch analysis.
    pub wall: Duration,
    /// Per-cell independence, indexed `[update][view]`.
    pub independent: Vec<Vec<bool>>,
}

impl MatrixTiming {
    /// Number of cells in the matrix.
    pub fn cell_count(&self) -> usize {
        self.independent.iter().map(Vec::len).sum()
    }

    /// Number of cells proved independent.
    pub fn independent_count(&self) -> usize {
        self.independent.iter().flatten().filter(|&&i| i).count()
    }
}

/// An analyzer configuration with the given engine policy and the default
/// budget/ablation settings.
pub fn engine_config(engine: EngineKind) -> AnalyzerConfig {
    AnalyzerConfig {
        engine,
        ..Default::default()
    }
}

/// Runs the batched matrix analysis over the full views × updates matrix and
/// measures its wall time.
pub fn matrix_time(
    views: &[NamedView],
    updates: &[NamedUpdate],
    engine: EngineKind,
    jobs: Jobs,
) -> MatrixTiming {
    let dtd = xmark_dtd();
    let config = engine_config(engine);
    let start = Instant::now();
    let mut session = SessionBuilder::new(&dtd).config(config).jobs(jobs).build();
    session.add_workload(
        views.iter().map(|v| (v.name.to_string(), v.query.clone())),
        updates
            .iter()
            .map(|u| (u.name.to_string(), u.update.clone())),
    );
    let wall = start.elapsed();
    MatrixTiming {
        wall,
        independent: (0..session.n_updates())
            .map(|ui| session.independent_flags(ui))
            .collect(),
    }
}

/// Measures, for one update, the time the batched analysis takes to check
/// independence against every view (one bar of Fig. 3.a).
pub fn update_row_time(
    views: &[NamedView],
    update: &NamedUpdate,
    engine: EngineKind,
    jobs: Jobs,
) -> Duration {
    matrix_time(views, std::slice::from_ref(update), engine, jobs).wall
}

/// All views, re-exported for the report binaries.
pub fn benchmark_views() -> Vec<NamedView> {
    all_views()
}

/// Formats a duration in milliseconds with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qui_workloads::all_updates;

    #[test]
    fn matrix_time_produces_full_verdicts() {
        let views: Vec<NamedView> = benchmark_views().into_iter().take(5).collect();
        let updates: Vec<NamedUpdate> = all_updates()
            .into_iter()
            .filter(|u| ["UA1", "UA5", "UB2"].contains(&u.name))
            .collect();
        let timing = matrix_time(&views, &updates, EngineKind::Auto, Jobs::Fixed(2));
        assert_eq!(timing.cell_count(), 15);
        assert!(timing.wall > Duration::ZERO);
        // Parallel verdicts agree with the sequential per-pair loop.
        let dtd = xmark_dtd();
        let defaults = AnalyzerConfig::default();
        for (ui, u) in updates.iter().enumerate() {
            for (vi, v) in views.iter().enumerate() {
                let fresh = SessionBuilder::new(&dtd).config(defaults.clone()).build();
                assert_eq!(
                    timing.independent[ui][vi],
                    fresh.check(&v.query, &u.update).is_independent(),
                    "cell ({}, {})",
                    u.name,
                    v.name
                );
            }
        }
    }
}
