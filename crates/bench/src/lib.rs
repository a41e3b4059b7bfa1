//! # qui-bench — benchmark harness regenerating Figure 3 of the paper
//!
//! Every panel of the paper's results figure has a Criterion bench (under
//! `benches/`) measuring the relevant times and a report binary (under
//! `src/bin/`) printing the same rows/series the paper plots:
//!
//! | Paper panel | Bench | Binary |
//! |---|---|---|
//! | Fig. 3.a — chain-analysis runtime per update vs the 36 views | `fig3a_runtime` | `fig3a` |
//! | Fig. 3.b — % of independent pairs detected, chains vs types  | `fig3b_precision` | `fig3b` |
//! | Fig. 3.c — view re-materialization time savings              | `fig3c_maintenance` | `fig3c` |
//! | Fig. 3.d — chain-inference time on the R-benchmark           | `fig3d_rbench` | `fig3d` |
//! | §6.1 complexity discussion (CDAG vs explicit chain sets)     | `cdag_micro` | — |
//! | CI perf baseline (matrix wall-time, seq vs parallel)         | — | `baseline` |
//! | CI fig3c gate (paper-scale ingest + maintenance)             | — | `fig3c` |
//! | CI cdag gate (CDAG-first auto matrix, path automaton)        | — | `cdag` |
//! | CI session gate (warm vs cold matrix, per-edit incremental)  | — | `session` |
//! | CI serve gate (concurrent `&self` checks, HTTP round trips)  | — | `serve` |
//! | CI maintain gate (live views: naive vs pruned)               | — | `maintain` |
//! | CI traffic gate (multi-tenant corpus sim, tiered answering)  | — | `traffic` |
//!
//! Run a binary with `cargo run --release -p qui-bench --bin fig3a`.
//!
//! All matrix timings go through the shared batch-analysis API of
//! [`qui_core::parallel`] — the same engine behind `qui matrix` and
//! `IndependenceAnalyzer::check_views` — so the benches measure exactly the
//! production code path. [`matrix_time`] measures whole-matrix wall time at a
//! chosen worker count; [`update_row_time`] measures the classic Fig. 3.a row
//! (one update against the whole view set).

pub mod baseline;
pub mod cdag;
pub mod fig3c;
pub mod maintain;
pub mod refs;
pub mod serve;
pub mod session;
pub mod traffic;

use qui_core::parallel::MatrixVerdicts;
use qui_core::{analyze_matrix, AnalyzerConfig, EngineKind, Jobs};
use qui_workloads::{all_updates, all_views, xmark_dtd, NamedUpdate, NamedView};
use qui_xquery::{Query, Update};
use std::time::{Duration, Instant};

pub use baseline::{run_baseline, BaselineReport, ScaleResult, ScaleSpec};
pub use cdag::{run_cdag, CdagGateConfig, CdagReport};
pub use fig3c::{run_fig3c, Fig3cReport, Fig3cScaleResult, Fig3cScaleSpec};
pub use maintain::{run_maintain, MaintainGateConfig, MaintainReport, MaintainSpec};
pub use serve::{run_serve, ServeGateConfig, ServeReport};
pub use session::{run_session, SessionGateConfig, SessionReport};
pub use traffic::{run_traffic, TrafficBenchReport, TrafficBenchSpec, TrafficGateConfig};

/// One whole-matrix analysis: wall time plus the verdicts it produced.
#[derive(Clone, Debug)]
pub struct MatrixTiming {
    /// Wall-clock time of the batch analysis.
    pub wall: Duration,
    /// The verdict matrix (indexed `[update][view]`).
    pub verdicts: MatrixVerdicts,
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
    let view_queries: Vec<Query> = views.iter().map(|v| v.query.clone()).collect();
    let update_exprs: Vec<Update> = updates.iter().map(|u| u.update.clone()).collect();
    let config = engine_config(engine);
    let start = Instant::now();
    let verdicts = analyze_matrix(&dtd, &view_queries, &update_exprs, &config, jobs);
    MatrixTiming {
        wall: start.elapsed(),
        verdicts,
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

/// The classic sequential Fig. 3.a row with the auto engine (kept for
/// backwards compatibility; delegates to [`update_row_time`]).
pub fn chain_analysis_time(views: &[NamedView], update: &NamedUpdate) -> Duration {
    update_row_time(views, update, EngineKind::Auto, Jobs::Fixed(1))
}

/// Same measurement with the CDAG engine forced — used to compare the two
/// engines' cost profiles.
pub fn chain_analysis_time_cdag(views: &[NamedView], update: &NamedUpdate) -> Duration {
    update_row_time(views, update, EngineKind::Cdag, Jobs::Fixed(1))
}

/// The legacy per-pair matrix loop (no inference sharing, no parallelism):
/// what `check` in a double loop costs. The baseline harness measures this to
/// quantify the batching speedup, which holds even on a single core.
pub fn pairwise_matrix_time(
    views: &[NamedView],
    updates: &[NamedUpdate],
    engine: EngineKind,
) -> Duration {
    let dtd = xmark_dtd();
    let analyzer = qui_core::IndependenceAnalyzer::with_config(&dtd, engine_config(engine));
    let start = Instant::now();
    for u in updates {
        for v in views {
            let _ = analyzer.check(&v.query, &u.update);
        }
    }
    start.elapsed()
}

/// A small representative subset of updates used by the Criterion benches to
/// keep wall-clock time reasonable (the report binaries cover all 31).
pub fn representative_updates() -> Vec<NamedUpdate> {
    let wanted = ["UA1", "UA5", "UB2", "UB6", "UI3", "UN2", "UP4"];
    all_updates()
        .into_iter()
        .filter(|u| wanted.contains(&u.name))
        .collect()
}

/// All views, re-exported for the benches.
pub fn benchmark_views() -> Vec<NamedView> {
    all_views()
}

/// Formats a duration in milliseconds with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Consumes the value of a `--flag value` pair while hand-parsing harness
/// CLI arguments (shared by the `baseline` and `fig3c` binaries).
pub fn take_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    let v = args
        .get(*i + 1)
        .ok_or_else(|| format!("{flag} expects a value"))?
        .clone();
    *i += 2;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representative_updates_exist() {
        assert_eq!(representative_updates().len(), 7);
        assert_eq!(benchmark_views().len(), 36);
    }

    #[test]
    fn chain_analysis_time_is_measurable() {
        let views = benchmark_views();
        let upd = representative_updates().remove(0);
        let t = chain_analysis_time(&views[..4], &upd);
        assert!(t > Duration::ZERO);
    }

    #[test]
    fn matrix_time_produces_full_verdicts() {
        let views: Vec<NamedView> = benchmark_views().into_iter().take(5).collect();
        let updates: Vec<NamedUpdate> = representative_updates().into_iter().take(3).collect();
        let timing = matrix_time(&views, &updates, EngineKind::Auto, Jobs::Fixed(2));
        assert_eq!(timing.verdicts.cell_count(), 15);
        assert!(timing.wall > Duration::ZERO);
        // Parallel verdicts agree with the sequential per-pair loop.
        let dtd = xmark_dtd();
        let analyzer = qui_core::IndependenceAnalyzer::new(&dtd);
        for (ui, u) in updates.iter().enumerate() {
            for (vi, v) in views.iter().enumerate() {
                assert_eq!(
                    timing.verdicts.verdict(ui, vi).is_independent(),
                    analyzer.check(&v.query, &u.update).is_independent(),
                    "cell ({}, {})",
                    u.name,
                    v.name
                );
            }
        }
    }
}
