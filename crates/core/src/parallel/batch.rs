//! Batched analysis of the views × updates independence matrix.
//!
//! The naive matrix (what [`IndependenceAnalyzer::check`] in a double loop
//! gives you) re-runs chain inference for every cell: `|V| · |U|` query
//! inferences and as many update inferences. But inference is *per
//! expression*: the chains of a query depend only on the query and the
//! multiplicity bound `k`, never on which update it is paired with — and
//! symmetrically for updates. Since `k = k_q + k_u`, a view only ever needs
//! its chains at the handful of distinct `k_u` values present in the update
//! set (and vice versa), so the whole matrix needs `O(|V| + |U|)` inferences
//! (times the small number of distinct `k` values), after which every cell is
//! a cheap conflict check over two precomputed chain sets.
//!
//! Since the session API landed, the implementation of all of this lives in
//! [`crate::session`]: [`analyze_matrix`] constructs a one-shot
//! [`AnalysisSession`](crate::session::AnalysisSession), registers the
//! workload in bulk (one batched prepass: per-expression ascending bounds
//! for the CDAG side, per-`(expression, k)` explicit inference for the cells
//! the CDAG could not prove, all sharded over the [`pool`](super::pool)
//! work-stealing thread pool), and returns the materialized matrix. With
//! `jobs = 1` nothing is spawned and the evaluation order matches a
//! sequential double loop, so verdicts — including witnesses — are
//! bit-identical whatever the worker count: per-cell work never mutates
//! shared state, and each cell's verdict is a pure function of the
//! precomputed sets. Long-lived callers should hold a session directly and
//! reuse it; these free functions are retained as thin stateless wrappers.

use super::pool::Jobs;
use crate::analyzer::{AnalyzerConfig, IndependenceAnalyzer, Verdict};
use crate::session::SessionBuilder;
use qui_schema::SchemaLike;
use qui_xquery::{Query, Update};

/// The verdicts of a full views × updates matrix, indexed `[update][view]`.
#[derive(Clone, Debug)]
pub struct MatrixVerdicts {
    n_views: usize,
    rows: Vec<Vec<Verdict>>,
}

impl MatrixVerdicts {
    /// Assembles a matrix from its rows (the session's materialized state).
    pub(crate) fn from_rows(n_views: usize, rows: Vec<Vec<Verdict>>) -> Self {
        MatrixVerdicts { n_views, rows }
    }

    /// Number of views (columns).
    pub fn n_views(&self) -> usize {
        self.n_views
    }

    /// Number of updates (rows).
    pub fn n_updates(&self) -> usize {
        self.rows.len()
    }

    /// The verdict for one cell.
    pub fn verdict(&self, update: usize, view: usize) -> &Verdict {
        &self.rows[update][view]
    }

    /// All verdicts for one update, in view order.
    pub fn row(&self, update: usize) -> &[Verdict] {
        &self.rows[update]
    }

    /// Per-view independence flags for one update (the historical
    /// `check_views` result shape).
    pub fn independent_flags(&self, update: usize) -> Vec<bool> {
        self.rows[update]
            .iter()
            .map(Verdict::is_independent)
            .collect()
    }

    /// Total number of independent cells in the matrix.
    pub fn independent_count(&self) -> usize {
        self.rows
            .iter()
            .flatten()
            .filter(|v| v.is_independent())
            .count()
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.n_views * self.rows.len()
    }
}

/// Analyzes every (view, update) cell of the matrix, sharing chain inference
/// across cells and sharding the work over `jobs` workers.
///
/// This is a stateless wrapper over [`crate::session::AnalysisSession`]: a
/// fresh session is built, the whole workload registered in one batched
/// pass, and the materialized matrix returned. Callers that analyze more
/// than one workload against the same schema should hold a session instead
/// and keep its caches warm.
pub fn analyze_matrix<S: SchemaLike + Sync>(
    schema: &S,
    views: &[Query],
    updates: &[Update],
    config: &AnalyzerConfig,
    jobs: Jobs,
) -> MatrixVerdicts {
    let mut session = SessionBuilder::new(schema)
        .config(config.clone())
        .jobs(jobs)
        .build();
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
    session.into_verdicts()
}

/// Asserts that the batch verdict for every cell equals the verdict of a
/// sequential per-pair [`IndependenceAnalyzer::check`]. Test-support helper
/// used by the equivalence suites; panics with the offending cell on any
/// mismatch.
pub fn assert_matches_sequential<S: SchemaLike + Sync>(
    schema: &S,
    views: &[Query],
    updates: &[Update],
    config: &AnalyzerConfig,
    matrix: &MatrixVerdicts,
) {
    let analyzer = IndependenceAnalyzer::with_config(schema, config.clone());
    for (ui, u) in updates.iter().enumerate() {
        for (vi, v) in views.iter().enumerate() {
            let seq = analyzer.check(v, u);
            let par = matrix.verdict(ui, vi);
            assert!(
                seq.is_independent() == par.is_independent()
                    && seq.k == par.k
                    && seq.k_query == par.k_query
                    && seq.k_update == par.k_update
                    && seq.engine_used == par.engine_used
                    && seq.witness == par.witness
                    && seq.query_chain_count == par.query_chain_count
                    && seq.update_chain_count == par.update_chain_count,
                "cell (view {vi}, update {ui}) diverged: sequential {seq:?} vs batch {par:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::EngineKind;
    use qui_schema::Dtd;
    use qui_xquery::{parse_query, parse_update};

    fn figure1() -> Dtd {
        Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap()
    }

    fn small_matrix() -> (Vec<Query>, Vec<Update>) {
        let views = ["//a//c", "//c", "//b", "//a", "//node()"]
            .iter()
            .map(|s| parse_query(s).unwrap())
            .collect();
        let updates = [
            "delete //b//c",
            "delete //c",
            "for $x in /a return insert <c/> into $x",
            "for $x in /a return rename $x as b",
        ]
        .iter()
        .map(|s| parse_update(s).unwrap())
        .collect();
        (views, updates)
    }

    #[test]
    fn batch_matches_sequential_for_every_engine_and_job_count() {
        let d = figure1();
        let (views, updates) = small_matrix();
        for engine in [EngineKind::Auto, EngineKind::Explicit, EngineKind::Cdag] {
            let config = AnalyzerConfig {
                engine,
                ..Default::default()
            };
            for jobs in [1, 2, 8] {
                let m = analyze_matrix(&d, &views, &updates, &config, Jobs::Fixed(jobs));
                assert_matches_sequential(&d, &views, &updates, &config, &m);
            }
        }
    }

    #[test]
    fn budget_overflow_falls_back_to_cdag_like_the_analyzer() {
        let d = Dtd::parse_compact("a -> (b|c)* ; b -> (b|c)* ; c -> (b|c)*", "a").unwrap();
        let views = vec![
            parse_query("//b//c//b").unwrap(),
            parse_query("//b").unwrap(),
        ];
        let updates = vec![parse_update("delete //c//b//c").unwrap()];
        let config = AnalyzerConfig {
            explicit_budget: 100,
            ..Default::default()
        };
        let m = analyze_matrix(&d, &views, &updates, &config, Jobs::Fixed(2));
        assert_eq!(m.verdict(0, 0).engine_used, EngineKind::Cdag);
        assert_matches_sequential(&d, &views, &updates, &config, &m);
    }

    #[test]
    fn matrix_shape_and_counts() {
        let d = figure1();
        let (views, updates) = small_matrix();
        let m = analyze_matrix(
            &d,
            &views,
            &updates,
            &AnalyzerConfig::default(),
            Jobs::Fixed(1),
        );
        assert_eq!(m.n_views(), 5);
        assert_eq!(m.n_updates(), 4);
        assert_eq!(m.cell_count(), 20);
        assert_eq!(m.row(0).len(), 5);
        assert_eq!(
            m.independent_flags(0),
            views
                .iter()
                .map(|v| IndependenceAnalyzer::new(&d)
                    .check(v, &updates[0])
                    .is_independent())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_inputs_yield_empty_matrices() {
        let d = figure1();
        let (views, updates) = small_matrix();
        let m = analyze_matrix(&d, &[], &updates, &AnalyzerConfig::default(), Jobs::Auto);
        assert_eq!(m.cell_count(), 0);
        assert_eq!(m.n_updates(), 4);
        let m = analyze_matrix(&d, &views, &[], &AnalyzerConfig::default(), Jobs::Auto);
        assert_eq!(m.cell_count(), 0);
        assert_eq!(m.n_updates(), 0);
    }

    #[test]
    fn k_override_is_respected() {
        let d = figure1();
        let (views, updates) = small_matrix();
        let config = AnalyzerConfig {
            k_override: Some(7),
            ..Default::default()
        };
        let m = analyze_matrix(&d, &views, &updates, &config, Jobs::Fixed(2));
        assert!(m.rows.iter().flatten().all(|v| v.k == 7));
        assert_matches_sequential(&d, &views, &updates, &config, &m);
    }
}
