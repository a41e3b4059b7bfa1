//! The session perf harness: CI-gated evidence that keeping an
//! `AnalysisSession` warm carries its weight over rebuilding one.
//!
//! `cargo run -p qui-bench --bin session --release` measures, on the full
//! 36 × 31 XMark views × updates matrix at `jobs = 1`:
//!
//! * **warm vs cold** — wall time of a cold session (fresh caches,
//!   `add_workload` of the whole matrix) vs a warm full recompute on the
//!   same session (`recompute()`: every chain set served from the caches,
//!   only the per-cell conflict checks run);
//! * **incremental edit cost** — the per-edit wall time of removing and
//!   re-adding a view (one column) or an update (one row) on a warm
//!   session, vs rebuilding the whole matrix from scratch — the operation a
//!   long-lived service performs on every workload registration;
//! * **verdict stability** — after the warm recompute and the edit cycle
//!   the per-`(update, view)` verdicts must be bit-equal to the cold run
//!   (mismatches must be 0; the `tests/session_incremental.rs` proptests
//!   pin the same property down exhaustively).
//!
//! The JSON artifact (`BENCH_session.json`, committed reference in
//! `ci/BENCH_session.json`) feeds the `perf-session` CI job. Thresholds are
//! env-tunable: `QUI_SESSION_MIN_WARM_SPEEDUP` (default 1.2 — the warm
//! recompute skips all inference, so it must beat cold),
//! `QUI_SESSION_MIN_INCREMENTAL_SPEEDUP` (default 3.0 — one row/column
//! recompute vs the full cold matrix; measured far higher),
//! `QUI_SESSION_TOLERANCE` (default 0.25, normalized-cost regression vs the
//! committed reference). Regenerate the committed file with
//! `--out ci/BENCH_session.json` when the engine legitimately changes cost.

use crate::baseline::calibrate;
use qui_core::{AnalysisSession, Jobs, SessionBuilder};
use qui_workloads::{all_updates, all_views, xmark_dtd, NamedUpdate, NamedView};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The workload positions exercised by the edit cycle (one early and one
/// late view column, one early and one late update row).
const EDIT_VIEWS: [usize; 2] = [0, 17];
const EDIT_UPDATES: [usize; 2] = [0, 15];

/// The full harness report (all times in milliseconds; minima over reps).
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// Wall time of the fixed CPU-calibration workload on this machine.
    pub calibration_ms: f64,
    /// Number of views in the measured matrix.
    pub views: usize,
    /// Number of updates in the measured matrix.
    pub updates: usize,
    /// Number of matrix cells.
    pub cells: usize,
    /// Cold session: fresh caches, whole workload registered in one
    /// `add_workload`, `jobs = 1`.
    pub cold_ms: f64,
    /// Warm full recompute on the same session (`recompute()`).
    pub warm_ms: f64,
    /// `cold_ms / warm_ms`.
    pub warm_speedup: f64,
    /// Mean per-edit wall time of a remove + re-add cycle (views and
    /// updates) on a warm session.
    pub edit_ms: f64,
    /// Number of edits averaged into `edit_ms` per rep.
    pub edits_measured: usize,
    /// `cold_ms / edit_ms` — how much cheaper an incremental registration
    /// is than a from-scratch matrix.
    pub incremental_speedup: f64,
    /// Cells whose independence verdict changed across the warm recompute
    /// or the edit cycle (must be 0).
    pub verdict_mismatches: usize,
    /// Independent cells in the cold matrix (determinism check).
    pub independent_cells: usize,
    /// `cold_ms / calibration_ms` — the machine-normalized cost the
    /// regression gate tracks.
    pub norm_cost: f64,
}

impl SessionReport {
    /// Serializes the report as pretty-printed JSON (hand-rolled: the
    /// workspace is dependency-free by construction).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema_version\": 1,");
        let _ = writeln!(s, "  \"calibration_ms\": {:.3},", self.calibration_ms);
        let _ = writeln!(s, "  \"views\": {},", self.views);
        let _ = writeln!(s, "  \"updates\": {},", self.updates);
        let _ = writeln!(s, "  \"cells\": {},", self.cells);
        let _ = writeln!(s, "  \"cold_ms\": {:.3},", self.cold_ms);
        let _ = writeln!(s, "  \"warm_ms\": {:.3},", self.warm_ms);
        let _ = writeln!(s, "  \"warm_speedup\": {:.3},", self.warm_speedup);
        let _ = writeln!(s, "  \"edit_ms\": {:.3},", self.edit_ms);
        let _ = writeln!(s, "  \"edits_measured\": {},", self.edits_measured);
        let _ = writeln!(
            s,
            "  \"incremental_speedup\": {:.3},",
            self.incremental_speedup
        );
        let _ = writeln!(s, "  \"verdict_mismatches\": {},", self.verdict_mismatches);
        let _ = writeln!(s, "  \"independent_cells\": {},", self.independent_cells);
        let _ = writeln!(s, "  \"norm_cost\": {:.4}", self.norm_cost);
        let _ = writeln!(s, "}}");
        s
    }

    /// Renders a human-readable summary of the measurements.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "session harness — {}x{} matrix ({} cells), calibration {:.1} ms, norm cost {:.3}",
            self.views, self.updates, self.cells, self.calibration_ms, self.norm_cost
        );
        let _ = writeln!(
            s,
            "warm vs cold : cold {:.2} ms vs warm recompute {:.2} ms ({:.2}x, {} mismatches, {} independent)",
            self.cold_ms,
            self.warm_ms,
            self.warm_speedup,
            self.verdict_mismatches,
            self.independent_cells
        );
        let _ = writeln!(
            s,
            "incremental  : {:.3} ms per edit ({} edits: row/column recompute) vs {:.2} ms full cold — {:.1}x",
            self.edit_ms, self.edits_measured, self.cold_ms, self.incremental_speedup
        );
        s
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// The per-`(update name, view name)` independence flags of a session's
/// materialized matrix — name-keyed so edit cycles that reorder columns
/// still compare cell-for-cell.
fn flag_map(session: &AnalysisSession<'_, qui_schema::Dtd>) -> HashMap<(String, String), bool> {
    let views: Vec<String> = session.views().map(|(n, _)| n.to_string()).collect();
    let mut out = HashMap::new();
    for (ui, (uname, _)) in session.updates().enumerate().collect::<Vec<_>>() {
        for (vi, vname) in views.iter().enumerate() {
            out.insert(
                (uname.to_string(), vname.clone()),
                session.verdict(ui, vi).is_independent(),
            );
        }
    }
    out
}

fn count_mismatches(
    a: &HashMap<(String, String), bool>,
    b: &HashMap<(String, String), bool>,
) -> usize {
    a.iter()
        .filter(|(key, flag)| b.get(*key) != Some(flag))
        .count()
        + b.keys().filter(|key| !a.contains_key(*key)).count()
}

/// Runs the full harness (`reps` repetitions per timing, minima kept).
pub fn run_session(reps: usize) -> SessionReport {
    let dtd = xmark_dtd();
    let views: Vec<NamedView> = all_views();
    let updates: Vec<NamedUpdate> = all_updates();
    let calibration_ms = calibrate();

    let mut cold_ms = f64::MAX;
    let mut warm_ms = f64::MAX;
    let mut edit_ms = f64::MAX;
    let mut mismatches = 0usize;
    let mut independent_cells = 0usize;
    let edits_measured = EDIT_VIEWS.len() + EDIT_UPDATES.len();
    for _ in 0..reps.max(1) {
        // ---- cold: fresh session, whole workload in one batched pass.
        let start = Instant::now();
        let mut session = SessionBuilder::new(&dtd).jobs(Jobs::Fixed(1)).build();
        session.add_workload(
            views.iter().map(|v| (v.name.to_string(), v.query.clone())),
            updates
                .iter()
                .map(|u| (u.name.to_string(), u.update.clone())),
        );
        cold_ms = cold_ms.min(ms(start));
        let cold_flags = flag_map(&session);
        independent_cells = session.independent_count();

        // ---- warm: full recompute on the hot caches.
        let start = Instant::now();
        session.recompute();
        warm_ms = warm_ms.min(ms(start));
        let warm_flags = flag_map(&session);

        // ---- incremental: remove + re-add a few rows/columns.
        let start = Instant::now();
        for &vi in &EDIT_VIEWS {
            let v = &views[vi];
            session.remove_view(v.name).expect("registered view");
            session.add_view(v.name, v.query.clone());
        }
        for &ui in &EDIT_UPDATES {
            let u = &updates[ui];
            session.remove_update(u.name).expect("registered update");
            session.add_update(u.name, u.update.clone());
        }
        edit_ms = edit_ms.min(ms(start) / edits_measured as f64);
        let edited_flags = flag_map(&session);

        mismatches = count_mismatches(&cold_flags, &warm_flags)
            + count_mismatches(&cold_flags, &edited_flags);
    }

    SessionReport {
        calibration_ms,
        views: views.len(),
        updates: updates.len(),
        cells: views.len() * updates.len(),
        cold_ms,
        warm_ms,
        warm_speedup: cold_ms / warm_ms.max(f64::EPSILON),
        edit_ms,
        edits_measured,
        incremental_speedup: cold_ms / edit_ms.max(f64::EPSILON),
        verdict_mismatches: mismatches,
        independent_cells,
        norm_cost: cold_ms / calibration_ms.max(f64::EPSILON),
    }
}

/// Gate thresholds (see the module docs for the environment overrides).
#[derive(Clone, Copy, Debug)]
pub struct SessionGateConfig {
    /// Required `warm_speedup` (warm full recompute over cold).
    pub min_warm_speedup: f64,
    /// Required `incremental_speedup` (per-edit over full cold matrix).
    pub min_incremental_speedup: f64,
    /// Allowed relative regression of `norm_cost` against the committed
    /// reference (0.25 = 25%).
    pub tolerance: f64,
}

impl Default for SessionGateConfig {
    fn default() -> Self {
        SessionGateConfig {
            min_warm_speedup: 1.2,
            min_incremental_speedup: 3.0,
            tolerance: 0.25,
        }
    }
}

/// The environment variables [`SessionGateConfig::from_env`] reads, colocated
/// with the reader so the `check-refs` binary can cross-check the workflow
/// YAML against the real gate wiring.
pub const GATE_ENV_VARS: &[&str] = &[
    "QUI_SESSION_MIN_WARM_SPEEDUP",
    "QUI_SESSION_MIN_INCREMENTAL_SPEEDUP",
    "QUI_SESSION_TOLERANCE",
];

impl SessionGateConfig {
    /// Reads the environment overrides on top of the defaults.
    pub fn from_env() -> Self {
        let mut cfg = SessionGateConfig::default();
        if let Some(v) = env_f64("QUI_SESSION_MIN_WARM_SPEEDUP") {
            cfg.min_warm_speedup = v;
        }
        if let Some(v) = env_f64("QUI_SESSION_MIN_INCREMENTAL_SPEEDUP") {
            cfg.min_incremental_speedup = v;
        }
        if let Some(v) = env_f64("QUI_SESSION_TOLERANCE") {
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
pub fn check_session_gates(
    report: &SessionReport,
    committed: Option<(f64, usize)>,
    cfg: &SessionGateConfig,
) -> Vec<String> {
    let mut failures = Vec::new();
    if report.verdict_mismatches != 0 {
        failures.push(format!(
            "{} cells change verdicts across the warm recompute / edit cycle (must be 0)",
            report.verdict_mismatches
        ));
    }
    if report.warm_speedup < cfg.min_warm_speedup {
        failures.push(format!(
            "warm session matrix is only {:.2}x faster than cold, required >= {:.2}x",
            report.warm_speedup, cfg.min_warm_speedup
        ));
    }
    if report.incremental_speedup < cfg.min_incremental_speedup {
        failures.push(format!(
            "incremental edit is only {:.1}x cheaper than a full recompute, required >= {:.1}x",
            report.incremental_speedup, cfg.min_incremental_speedup
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
                "normalized cold session cost regressed: {:.3} vs committed {:.3} (limit {:.3}, tolerance {:.0}%)",
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

    fn tiny_report() -> SessionReport {
        SessionReport {
            calibration_ms: 10.0,
            views: 2,
            updates: 2,
            cells: 4,
            cold_ms: 40.0,
            warm_ms: 10.0,
            warm_speedup: 4.0,
            edit_ms: 2.0,
            edits_measured: 4,
            incremental_speedup: 20.0,
            verdict_mismatches: 0,
            independent_cells: 3,
            norm_cost: 4.0,
        }
    }

    #[test]
    fn json_round_trips_the_gate_fields() {
        let json = tiny_report().to_json();
        assert_eq!(json_number_field(&json, "norm_cost"), Some(4.0));
        assert_eq!(json_number_field(&json, "cells"), Some(4.0));
        assert_eq!(json_number_field(&json, "warm_speedup"), Some(4.0));
        assert_eq!(json_number_field(&json, "incremental_speedup"), Some(20.0));
        assert_eq!(json_number_field(&json, "verdict_mismatches"), Some(0.0));
    }

    #[test]
    fn gates_pass_and_fail_as_configured() {
        let report = tiny_report();
        let cfg = SessionGateConfig::default();
        assert!(check_session_gates(&report, Some((4.0, 4)), &cfg).is_empty());
        // Normalized-cost regression fails.
        assert_eq!(check_session_gates(&report, Some((2.0, 4)), &cfg).len(), 1);
        // A committed reference at a different matrix size skips regression.
        assert!(check_session_gates(&report, Some((2.0, 999)), &cfg).is_empty());
        // Verdict mismatches always fail.
        let mut bad = report.clone();
        bad.verdict_mismatches = 3;
        assert!(!check_session_gates(&bad, None, &cfg).is_empty());
        // Losing the warm or incremental speedup fails.
        let mut slow = report.clone();
        slow.warm_speedup = 1.0;
        slow.incremental_speedup = 1.5;
        assert_eq!(check_session_gates(&slow, None, &cfg).len(), 2);
    }

    #[test]
    fn tiny_session_run_is_consistent() {
        // A reduced matrix keeps the test fast while exercising the whole
        // measurement pipeline (cold, warm recompute, edit cycle, flag
        // comparison).
        let dtd = qui_workloads::xmark_dtd();
        let views: Vec<NamedView> = all_views().into_iter().take(4).collect();
        let updates: Vec<NamedUpdate> = all_updates().into_iter().take(3).collect();
        let mut session = SessionBuilder::new(&dtd).jobs(Jobs::Fixed(1)).build();
        session.add_workload(
            views.iter().map(|v| (v.name.to_string(), v.query.clone())),
            updates
                .iter()
                .map(|u| (u.name.to_string(), u.update.clone())),
        );
        let cold = flag_map(&session);
        assert_eq!(cold.len(), 12);
        session.recompute();
        assert_eq!(count_mismatches(&cold, &flag_map(&session)), 0);
        // An edit cycle restores the same verdicts under name keys.
        let v = &views[1];
        session.remove_view(v.name).unwrap();
        session.add_view(v.name, v.query.clone());
        assert_eq!(count_mismatches(&cold, &flag_map(&session)), 0);
    }
}
