//! Property tests for the parallel batch analysis (`qui_core::parallel` under
//! `AnalysisSession::add_workload`): for any schema, view set, update set
//! and engine policy, the batched matrix must produce verdicts — including
//! witnesses and chain counts — identical to per-pair checks on fresh
//! sessions, for any worker count, and repeated parallel runs must be
//! deterministic.

use proptest::prelude::*;
use xml_qui::core::parallel::Jobs;
use xml_qui::core::{AnalysisSession, AnalyzerConfig, EngineKind, SessionBuilder, Verdict};
use xml_qui::schema::Dtd;
use xml_qui::workloads::{all_updates, all_views};
use xml_qui::xquery::{parse_query, parse_update, Query, Update};

/// Schemas exercising recursion, optional content, siblings and mixed
/// content — the shapes that drive the analysis down different engine paths.
fn schemas() -> Vec<Dtd> {
    vec![
        Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap(),
        Dtd::parse_compact(
            "bib -> book* ; book -> (title, author*, price?) ; title -> #PCDATA ; \
             author -> (first?, last) ; first -> #PCDATA ; last -> #PCDATA ; price -> #PCDATA",
            "bib",
        )
        .unwrap(),
        Dtd::parse_compact("r -> a ; a -> (b, c)* ; b -> a? ; c -> #PCDATA", "r").unwrap(),
        // Heavily recursive: small explicit budgets overflow here, forcing
        // the CDAG fallback inside the batch.
        Dtd::parse_compact("a -> (b|c)* ; b -> (b|c)* ; c -> (b|c)*", "a").unwrap(),
    ]
}

const QUERY_POOL: &[&str] = &[
    "//a",
    "//c",
    "//b//c",
    "//a//c",
    "//title",
    "//author//last",
    "//b//c//b",
    "for $x in //b return $x/c",
    "for $x in //book return <entry>{$x/title}</entry>",
    "//c/parent::node()",
    "if (//b) then //c else ()",
];

const UPDATE_POOL: &[&str] = &[
    "delete //b//c",
    "delete //c",
    "delete //price",
    "delete //c//b//c",
    "for $x in //b return insert <d/> into $x",
    "for $x in //book return insert <author><last>X</last></author> into $x",
    "for $x in //a return rename $x as b",
    "for $x in //title return replace $x with <title>new</title>",
];

fn pick_queries(mask: u16) -> Vec<Query> {
    QUERY_POOL
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, s)| parse_query(s).unwrap())
        .collect()
}

fn pick_updates(mask: u16) -> Vec<Update> {
    UPDATE_POOL
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, s)| parse_update(s).unwrap())
        .collect()
}

/// A fresh session holding the whole workload, registered in one batch.
fn fresh_matrix<'a>(
    dtd: &'a Dtd,
    views: &[Query],
    updates: &[Update],
    config: &AnalyzerConfig,
    jobs: Jobs,
) -> AnalysisSession<'a, Dtd> {
    let mut session = SessionBuilder::new(dtd)
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
    session
}

/// The verdict of a fresh one-shot session: the per-pair reference.
fn fresh_check(dtd: &Dtd, config: &AnalyzerConfig, q: &Query, u: &Update) -> Verdict {
    SessionBuilder::new(dtd)
        .config(config.clone())
        .build()
        .check(q, u)
}

fn flags(m: &AnalysisSession<'_, Dtd>) -> Vec<Vec<bool>> {
    (0..m.n_updates())
        .map(|ui| m.independent_flags(ui))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole property: batched parallel ≡ sequential per-pair, for
    /// every engine policy and for jobs ∈ {1, 2, 8}, on random view/update
    /// subsets over random schemas (including budget-overflow fallbacks).
    #[test]
    fn parallel_matrix_equals_sequential_checks(
        schema_idx in 0usize..4,
        view_mask in 1u16..(1 << 11),
        update_mask in 1u16..(1 << 8),
        engine_idx in 0usize..3,
        budget in prop_oneof![Just(60usize), Just(20_000usize)],
    ) {
        let dtd = &schemas()[schema_idx];
        let views = pick_queries(view_mask);
        let updates = pick_updates(update_mask);
        let engine = [EngineKind::Auto, EngineKind::Explicit, EngineKind::Cdag][engine_idx];
        let config = AnalyzerConfig { engine, explicit_budget: budget, ..Default::default() };
        for jobs in [1, 2, 8] {
            let matrix = fresh_matrix(dtd, &views, &updates, &config, Jobs::Fixed(jobs));
            for (ui, u) in updates.iter().enumerate() {
                for (vi, v) in views.iter().enumerate() {
                    let seq = fresh_check(dtd, &config, v, u);
                    let par = matrix.verdict(ui, vi);
                    prop_assert!(
                        &seq == par,
                        "cell (view {}, update {}) diverged: sequential {:?} vs batch {:?}",
                        vi, ui, seq, par
                    );
                }
            }
        }
    }

    /// A session's independence flags for one update agree with per-pair
    /// `check` for any worker count, built in bulk or one view at a time.
    #[test]
    fn session_flags_equal_per_pair_check(
        schema_idx in 0usize..4,
        view_mask in 1u16..(1 << 11),
        u_idx in 0usize..UPDATE_POOL.len(),
    ) {
        let dtd = &schemas()[schema_idx];
        let views = pick_queries(view_mask);
        let u = parse_update(UPDATE_POOL[u_idx]).unwrap();
        let defaults = AnalyzerConfig::default();
        let expected: Vec<bool> = views
            .iter()
            .map(|q| fresh_check(dtd, &defaults, q, &u).is_independent())
            .collect();
        let bulk = fresh_matrix(dtd, &views, std::slice::from_ref(&u), &defaults, Jobs::Auto);
        prop_assert_eq!(&bulk.independent_flags(0), &expected);
        for jobs in [1, 2, 8] {
            let mut session = SessionBuilder::new(dtd).jobs(Jobs::Fixed(jobs)).build();
            for (i, q) in views.iter().enumerate() {
                session.add_view(format!("v{i}"), q.clone());
            }
            session.add_update("u", u.clone());
            prop_assert_eq!(&session.independent_flags(0), &expected, "jobs = {}", jobs);
        }
    }

    /// Parallel runs are deterministic: repeated analyses with the same
    /// inputs and any worker count give identical matrices.
    #[test]
    fn parallel_runs_are_deterministic(
        schema_idx in 0usize..4,
        view_mask in 1u16..(1 << 11),
        update_mask in 1u16..(1 << 8),
    ) {
        let dtd = &schemas()[schema_idx];
        let views = pick_queries(view_mask);
        let updates = pick_updates(update_mask);
        let config = AnalyzerConfig::default();
        let reference = flags(&fresh_matrix(dtd, &views, &updates, &config, Jobs::Fixed(1)));
        for run in 0..3 {
            let again = flags(&fresh_matrix(dtd, &views, &updates, &config, Jobs::Fixed(8)));
            prop_assert_eq!(&again, &reference, "run {}", run);
        }
    }
}

/// The benchmark workload's session reports with different worker counts
/// render identically — the acceptance check of
/// `qui matrix --jobs N ≡ --jobs 1` at workload scale.
#[test]
fn workload_reports_identical_across_jobs() {
    let dtd = xml_qui::workloads::xmark_dtd();
    let views: Vec<(String, Query)> = all_views()
        .into_iter()
        .take(12)
        .map(|v| (v.name.to_string(), v.query))
        .collect();
    let updates: Vec<(String, Update)> = all_updates()
        .into_iter()
        .take(6)
        .map(|u| (u.name.to_string(), u.update))
        .collect();
    let reports = |jobs| {
        let mut session = SessionBuilder::new(&dtd).jobs(jobs).build();
        session.add_workload(views.iter().cloned(), updates.iter().cloned());
        session.reports()
    };
    let sequential = reports(Jobs::Fixed(1));
    let parallel = reports(Jobs::Fixed(8));
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.render(), p.render(), "update {}", s.update_name);
    }
}

/// `QUI_JOBS` only selects the worker count, never the verdicts: Auto (which
/// reads the environment) agrees with explicit worker counts.
#[test]
fn auto_jobs_policy_matches_fixed() {
    let dtd = schemas().remove(0);
    let views = pick_queries(0b111);
    let updates = pick_updates(0b11);
    let config = AnalyzerConfig::default();
    let auto = flags(&fresh_matrix(&dtd, &views, &updates, &config, Jobs::Auto));
    let fixed = flags(&fresh_matrix(
        &dtd,
        &views,
        &updates,
        &config,
        Jobs::Fixed(1),
    ));
    assert_eq!(auto, fixed);
}
