//! Property tests for the parallel batch-analysis subsystem
//! (`qui_core::parallel`): for any schema, view set, update set and engine
//! policy, the batched matrix must produce verdicts — including witnesses and
//! chain counts — identical to the sequential per-pair analyzer, for any
//! worker count, and repeated parallel runs must be deterministic.

use proptest::prelude::*;
use xml_qui::core::matrix_reports;
use xml_qui::core::parallel::{analyze_matrix, assert_matches_sequential, Jobs};
use xml_qui::core::session::SessionBuilder;
use xml_qui::core::{AnalyzerConfig, EngineKind, IndependenceAnalyzer, MatrixVerdicts};
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

fn flags(m: &MatrixVerdicts) -> Vec<Vec<bool>> {
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
            let matrix = analyze_matrix(dtd, &views, &updates, &config, Jobs::Fixed(jobs));
            assert_matches_sequential(dtd, &views, &updates, &config, &matrix);
        }
    }

    /// A session's independence flags for one update (the `check_views`
    /// path) agree with per-pair `check` for any worker count.
    #[test]
    fn session_flags_equal_per_pair_check(
        schema_idx in 0usize..4,
        view_mask in 1u16..(1 << 11),
        u_idx in 0usize..UPDATE_POOL.len(),
    ) {
        let dtd = &schemas()[schema_idx];
        let views = pick_queries(view_mask);
        let u = parse_update(UPDATE_POOL[u_idx]).unwrap();
        let analyzer = IndependenceAnalyzer::new(dtd);
        let expected: Vec<bool> = views
            .iter()
            .map(|q| analyzer.check(q, &u).is_independent())
            .collect();
        prop_assert_eq!(&analyzer.check_views(&views, &u), &expected);
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
        let reference = flags(&analyze_matrix(dtd, &views, &updates, &config, Jobs::Fixed(1)));
        for run in 0..3 {
            let again = flags(&analyze_matrix(dtd, &views, &updates, &config, Jobs::Fixed(8)));
            prop_assert_eq!(&again, &reference, "run {}", run);
        }
    }
}

/// The full benchmark workload (36 views × 31 updates) through
/// `matrix_reports` with different worker counts renders identically — the
/// acceptance check of `qui matrix --jobs N ≡ --jobs 1` at workload scale.
#[test]
fn workload_matrix_reports_identical_across_jobs() {
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
    let sequential = matrix_reports(&dtd, &views, &updates, Jobs::Fixed(1));
    let parallel = matrix_reports(&dtd, &views, &updates, Jobs::Fixed(8));
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
    let auto = flags(&analyze_matrix(&dtd, &views, &updates, &config, Jobs::Auto));
    let fixed = flags(&analyze_matrix(
        &dtd,
        &views,
        &updates,
        &config,
        Jobs::Fixed(1),
    ));
    assert_eq!(auto, fixed);
}
