//! The CDAG perf harness: CI-gated evidence that the CDAG engine carries
//! its weight.
//!
//! `cargo run -p qui-bench --bin cdag --release` measures, on the full
//! 36 × 31 XMark views × updates matrix:
//!
//! * **whole matrix** — wall time of the default `EngineKind::Auto`
//!   analysis (CDAG first, explicit confirmation of the dependent cells) at
//!   `jobs = 1`, with its independent-cell count as a determinism check;
//! * **CDAG-backed projection** — a descendant-axis view over the XMark
//!   `parlist`/`listitem` recursive clique whose explicit chain sets
//!   overflow the explicit engine's budget ([`EXPLICIT_BUDGET`]): the
//!   compiled `PathAutomaton` must still prune a non-trivial share of a
//!   streamed XMark document.
//!
//! The JSON artifact (`BENCH_cdag.json`, committed reference in
//! `ci/BENCH_cdag.json`) feeds the `perf-cdag` CI job. Thresholds are
//! env-tunable: `QUI_CDAG_MIN_AUTOMATON_SAVING` (percent, default 5; measured ~87%),
//! `QUI_CDAG_TOLERANCE` (default 0.25, normalized-cost regression vs the
//! committed reference). Regenerate the committed file with
//! `--out ci/BENCH_cdag.json` when the engine legitimately changes cost.

use crate::baseline::calibrate;
use qui_core::engine::explicit::ExplicitEngine;
use qui_core::parallel::machine_parallelism;
use qui_core::{k_of_query, AnalysisSession, ChainProjector, Jobs, SessionBuilder, Universe};
use qui_schema::Dtd;
use qui_workloads::{all_updates, all_views, xmark_document, xmark_dtd, XmarkScale};
use qui_xmlstore::{parse_xml_stream, StreamConfig};
use qui_xquery::{parse_query, Query, Update};
use std::fmt::Write as _;
use std::time::Instant;

/// The descendant-axis view over the recursive clique used by the projection
/// measurement (its explicit chain sets overflow [`EXPLICIT_BUDGET`]).
pub const AUTOMATON_VIEW: &str = "//parlist//keyword";

/// The seed of the streamed XMark document the projection measurement uses.
pub const CDAG_SEED: u64 = 7;

/// Chain budget of the explicit engine in the vacuity check: the
/// automaton view must overflow it for the projection measurement to show
/// anything the explicit chain sets could not.
pub const EXPLICIT_BUDGET: usize = 20_000;

/// The full harness report (all times in milliseconds; minima over reps).
#[derive(Clone, Debug)]
pub struct CdagReport {
    /// Hardware workers of the measuring machine (every timing below runs
    /// at `jobs = 1`; recorded so references from different hosts are
    /// told apart).
    pub workers: usize,
    /// Wall time of the fixed CPU-calibration workload on this machine.
    pub calibration_ms: f64,
    /// Number of views in the measured matrix.
    pub views: usize,
    /// Number of updates in the measured matrix.
    pub updates: usize,
    /// Number of matrix cells.
    pub cells: usize,
    /// Whole matrix, `Auto`, `jobs = 1`.
    pub auto_ms: f64,
    /// Independent cells of the matrix (determinism check).
    pub independent_cells: usize,
    /// The view the projection measurement used.
    pub automaton_view: String,
    /// Whether its explicit chain sets overflow [`EXPLICIT_BUDGET`] (they
    /// must, or the measurement shows nothing the explicit chains could
    /// not).
    pub explicit_spec_overflows: bool,
    /// States of the compiled path automaton.
    pub automaton_states: usize,
    /// Nodes kept by the automaton-projected streamed parse.
    pub automaton_kept_nodes: usize,
    /// Nodes pruned (never allocated) by the automaton-projected parse.
    pub automaton_pruned_nodes: usize,
    /// Percentage of parsed nodes pruned (deterministic given the seed).
    pub automaton_saving_pct: f64,
    /// `auto_ms / calibration_ms` — the machine-normalized cost
    /// the regression gate tracks.
    pub norm_cost: f64,
}

impl CdagReport {
    /// Serializes the report as pretty-printed JSON (hand-rolled: the
    /// workspace is dependency-free by construction).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema_version\": 1,");
        let _ = writeln!(s, "  \"workers\": {},", self.workers);
        let _ = writeln!(s, "  \"calibration_ms\": {:.3},", self.calibration_ms);
        let _ = writeln!(s, "  \"views\": {},", self.views);
        let _ = writeln!(s, "  \"updates\": {},", self.updates);
        let _ = writeln!(s, "  \"cells\": {},", self.cells);
        let _ = writeln!(s, "  \"auto_ms\": {:.3},", self.auto_ms);
        let _ = writeln!(s, "  \"independent_cells\": {},", self.independent_cells);
        let _ = writeln!(s, "  \"automaton_view\": \"{}\",", self.automaton_view);
        let _ = writeln!(
            s,
            "  \"explicit_spec_overflows\": {},",
            self.explicit_spec_overflows
        );
        let _ = writeln!(s, "  \"automaton_states\": {},", self.automaton_states);
        let _ = writeln!(
            s,
            "  \"automaton_kept_nodes\": {},",
            self.automaton_kept_nodes
        );
        let _ = writeln!(
            s,
            "  \"automaton_pruned_nodes\": {},",
            self.automaton_pruned_nodes
        );
        let _ = writeln!(
            s,
            "  \"automaton_saving_pct\": {:.3},",
            self.automaton_saving_pct
        );
        let _ = writeln!(s, "  \"norm_cost\": {:.4}", self.norm_cost);
        let _ = writeln!(s, "}}");
        s
    }

    /// Renders a human-readable summary of the measurements.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "cdag harness — {}x{} matrix ({} cells), {} workers, calibration {:.1} ms, norm cost {:.3}",
            self.views, self.updates, self.cells, self.workers, self.calibration_ms, self.norm_cost
        );
        let _ = writeln!(
            s,
            "auto       : {:.2} ms ({} independent)",
            self.auto_ms, self.independent_cells
        );
        let _ = writeln!(
            s,
            "projection : {} — {} states, kept {} / pruned {} ({:.1}% saved), explicit overflow: {}",
            self.automaton_view,
            self.automaton_states,
            self.automaton_kept_nodes,
            self.automaton_pruned_nodes,
            self.automaton_saving_pct,
            self.explicit_spec_overflows
        );
        s
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// One whole-matrix `Auto` measurement at `jobs = 1`: a fresh session and
/// one `add_workload`.
fn auto_matrix<'a>(
    dtd: &'a Dtd,
    views: &[Query],
    updates: &[Update],
) -> (f64, AnalysisSession<'a, Dtd>) {
    let start = Instant::now();
    let mut session = SessionBuilder::new(dtd).jobs(Jobs::Fixed(1)).build();
    session.add_workload(
        views
            .iter()
            .enumerate()
            .map(|(i, q)| (format!("v{}", i + 1), q.clone())),
        updates
            .iter()
            .enumerate()
            .map(|(i, u)| (format!("u{}", i + 1), u.clone())),
    );
    (ms(start), session)
}

/// The automaton-projection measurement over a streamed S-scale XMark
/// document.
struct AutomatonMeasurement {
    explicit_overflows: bool,
    states: usize,
    kept: usize,
    pruned: usize,
}

fn measure_automaton_projection() -> AutomatonMeasurement {
    let dtd = xmark_dtd();
    let projector = ChainProjector::new(&dtd);
    let view = parse_query(AUTOMATON_VIEW).expect("the automaton view parses");
    let universe = Universe::with_k(&dtd, k_of_query(&view).max(1) + 1);
    let explicit = ExplicitEngine::new(&universe, EXPLICIT_BUDGET);
    let explicit_overflows = explicit
        .infer_query(&explicit.root_gamma(view.free_vars()), &view)
        .is_err();
    let projection = projector.automaton_for_query(&view);
    let states = projection.len();
    let doc = xmark_document(XmarkScale::Small.target_nodes(), CDAG_SEED);
    let xml = doc.to_xml();
    let outcome = parse_xml_stream(
        std::io::Cursor::new(xml.into_bytes()),
        &StreamConfig::with_projection(projection),
    )
    .expect("the streamed projection parses");
    AutomatonMeasurement {
        explicit_overflows,
        states,
        kept: outcome.stats.nodes_kept,
        pruned: outcome.stats.nodes_pruned,
    }
}

/// Runs the full harness (`reps` repetitions per timing, minima kept).
pub fn run_cdag(reps: usize) -> CdagReport {
    let views: Vec<Query> = all_views().into_iter().map(|v| v.query).collect();
    let updates: Vec<Update> = all_updates().into_iter().map(|u| u.update).collect();
    let calibration_ms = calibrate();

    let dtd = xmark_dtd();
    let mut auto_ms = f64::MAX;
    let mut independent_cells = 0;
    for _ in 0..reps.max(1) {
        let (t_auto, session) = auto_matrix(&dtd, &views, &updates);
        auto_ms = auto_ms.min(t_auto);
        independent_cells = session.independent_count();
    }
    let auto = measure_automaton_projection();
    let parsed = auto.kept + auto.pruned;
    CdagReport {
        workers: machine_parallelism(),
        calibration_ms,
        views: views.len(),
        updates: updates.len(),
        cells: views.len() * updates.len(),
        auto_ms,
        independent_cells,
        automaton_view: AUTOMATON_VIEW.to_string(),
        explicit_spec_overflows: auto.explicit_overflows,
        automaton_states: auto.states,
        automaton_kept_nodes: auto.kept,
        automaton_pruned_nodes: auto.pruned,
        automaton_saving_pct: if parsed == 0 {
            0.0
        } else {
            100.0 * auto.pruned as f64 / parsed as f64
        },
        norm_cost: auto_ms / calibration_ms.max(f64::EPSILON),
    }
}

/// Gate thresholds (see the module docs for the environment overrides).
#[derive(Clone, Copy, Debug)]
pub struct CdagGateConfig {
    /// Required `automaton_saving_pct` (deterministic given the seed).
    pub min_automaton_saving: f64,
    /// Allowed relative regression of `norm_cost` against the committed
    /// reference (0.25 = 25%).
    pub tolerance: f64,
}

impl Default for CdagGateConfig {
    fn default() -> Self {
        CdagGateConfig {
            min_automaton_saving: 5.0,
            tolerance: 0.25,
        }
    }
}

/// The environment variables [`CdagGateConfig::from_env`] reads, colocated
/// with the reader so the `check-refs` binary can cross-check the workflow
/// YAML against the real gate wiring.
pub const GATE_ENV_VARS: &[&str] = &["QUI_CDAG_MIN_AUTOMATON_SAVING", "QUI_CDAG_TOLERANCE"];

impl CdagGateConfig {
    /// Reads the environment overrides on top of the defaults.
    pub fn from_env() -> Self {
        let mut cfg = CdagGateConfig::default();
        if let Some(v) = env_f64("QUI_CDAG_MIN_AUTOMATON_SAVING") {
            cfg.min_automaton_saving = v;
        }
        if let Some(v) = env_f64("QUI_CDAG_TOLERANCE") {
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
/// `committed` is the committed reference's `(norm_cost, cells)` pair; the
/// regression gate only applies when the measured matrix matches it.
pub fn check_cdag_gates(
    report: &CdagReport,
    committed: Option<(f64, usize)>,
    cfg: &CdagGateConfig,
) -> Vec<String> {
    let mut failures = Vec::new();
    if !report.explicit_spec_overflows {
        failures.push(format!(
            "the explicit chain spec for {} no longer overflows — the automaton measurement is vacuous",
            report.automaton_view
        ));
    }
    if report.automaton_saving_pct < cfg.min_automaton_saving {
        failures.push(format!(
            "the CDAG-backed projection prunes {:.1}% of the document, required >= {:.1}% \
             (keep-everything would be 0%)",
            report.automaton_saving_pct, cfg.min_automaton_saving
        ));
    }
    if let Some((committed_norm, committed_cells)) = committed {
        if committed_cells != report.cells {
            eprintln!(
                "note: regression gate skipped — measured {} cells, committed reference has {}",
                report.cells, committed_cells
            );
            return failures;
        }
        let limit = committed_norm * (1.0 + cfg.tolerance);
        if report.norm_cost > limit {
            failures.push(format!(
                "normalized auto matrix cost regressed: {:.3} vs committed {:.3} (limit {:.3}, tolerance {:.0}%)",
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

    fn tiny_report() -> CdagReport {
        CdagReport {
            workers: 2,
            calibration_ms: 10.0,
            views: 2,
            updates: 2,
            cells: 4,
            auto_ms: 20.0,
            independent_cells: 3,
            automaton_view: AUTOMATON_VIEW.to_string(),
            explicit_spec_overflows: true,
            automaton_states: 40,
            automaton_kept_nodes: 500,
            automaton_pruned_nodes: 500,
            automaton_saving_pct: 50.0,
            norm_cost: 2.0,
        }
    }

    #[test]
    fn json_round_trips_the_gate_fields() {
        let json = tiny_report().to_json();
        assert_eq!(json_number_field(&json, "norm_cost"), Some(2.0));
        assert_eq!(json_number_field(&json, "cells"), Some(4.0));
        assert_eq!(json_number_field(&json, "auto_ms"), Some(20.0));
        assert_eq!(json_number_field(&json, "workers"), Some(2.0));
        assert_eq!(json_number_field(&json, "independent_cells"), Some(3.0));
        assert_eq!(json_number_field(&json, "automaton_saving_pct"), Some(50.0));
    }

    #[test]
    fn gates_pass_and_fail_as_configured() {
        let report = tiny_report();
        let cfg = CdagGateConfig::default();
        assert!(check_cdag_gates(&report, Some((2.0, 4)), &cfg).is_empty());
        // Normalized-cost regression fails.
        assert_eq!(check_cdag_gates(&report, Some((1.0, 4)), &cfg).len(), 1);
        // A committed reference at a different matrix size skips regression.
        assert!(check_cdag_gates(&report, Some((1.0, 999)), &cfg).is_empty());
        // A vacuous or keep-everything projection fails.
        let mut vac = report.clone();
        vac.explicit_spec_overflows = false;
        vac.automaton_saving_pct = 0.0;
        assert_eq!(check_cdag_gates(&vac, None, &cfg).len(), 2);
    }

    #[test]
    fn tiny_cdag_run_is_consistent() {
        // A reduced matrix keeps the test fast while exercising the whole
        // measurement pipeline (the auto matrix and the automaton
        // projection).
        let views: Vec<Query> = all_views().into_iter().take(4).map(|v| v.query).collect();
        let updates: Vec<Update> = all_updates()
            .into_iter()
            .take(3)
            .map(|u| u.update)
            .collect();
        let dtd = xmark_dtd();
        let (t_auto, session) = auto_matrix(&dtd, &views, &updates);
        assert!(t_auto > 0.0);
        assert_eq!(session.n_views() * session.n_updates(), 12);
        let auto = measure_automaton_projection();
        assert!(auto.explicit_overflows, "{AUTOMATON_VIEW} must overflow");
        assert!(auto.states > 0);
        assert!(auto.pruned > 0, "the automaton must prune something");
    }
}
