//! Property tests for the stateful session API (`qui_core::session`):
//!
//! * **edit-sequence bit-identity** — any random interleaving of
//!   `add_view` / `remove_view` / `add_update` / `remove_update` edits, at
//!   any worker count, leaves the session's materialized verdict matrix
//!   bit-identical (every `Verdict` field, witnesses included) to a
//!   from-scratch `add_workload` of the surviving workload on a fresh
//!   session;
//! * **warm-check bit-identity** — a session's `check` equals the check of
//!   a fresh one-shot session across all engine policies, on the first
//!   (cold) and every repeated (warm) call;
//! * the bulk `add_workload` path equals the one-at-a-time incremental
//!   path, and cache warmth is observable through `SessionStats`.
//!
//! The nightly CI run multiplies the deterministic case count via
//! `QUI_PROPTEST_CASES`.

use proptest::prelude::*;
use xml_qui::core::parallel::Jobs;
use xml_qui::core::{AnalysisSession, AnalyzerConfig, EngineKind, SessionBuilder};
use xml_qui::schema::Dtd;
use xml_qui::workloads::{all_updates, all_views};
use xml_qui::xquery::{parse_query, parse_update};

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
        // the CDAG fallback inside the session.
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
    "//node()",
];

const UPDATE_POOL: &[&str] = &[
    "delete //b//c",
    "delete //c",
    "delete //price",
    "delete //c//b//c",
    "for $x in //b return insert <d/> into $x",
    "for $x in //a return rename $x as b",
];

/// Deterministic case count, raised by the nightly run via
/// `QUI_PROPTEST_CASES`.
fn cases(default: u32) -> u32 {
    std::env::var("QUI_PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Asserts the session's materialized matrix is bit-identical to a fresh
/// session's `add_workload` of the surviving workload.
fn assert_session_matches_fresh(
    dtd: &Dtd,
    session: &AnalysisSession<'_, Dtd>,
    config: &AnalyzerConfig,
) {
    let mut fresh = SessionBuilder::new(dtd)
        .config(config.clone())
        .jobs(Jobs::Fixed(1))
        .build();
    fresh.add_workload(
        session.views().map(|(n, q)| (n.to_string(), q.clone())),
        session.updates().map(|(n, u)| (n.to_string(), u.clone())),
    );
    assert_eq!(session.n_views(), fresh.n_views());
    assert_eq!(session.n_updates(), fresh.n_updates());
    for ui in 0..fresh.n_updates() {
        for vi in 0..fresh.n_views() {
            assert!(
                session.verdict(ui, vi) == fresh.verdict(ui, vi),
                "cell (view {vi}, update {ui}) diverged after edits:\n  session: {:?}\n  fresh:   {:?}",
                session.verdict(ui, vi),
                fresh.verdict(ui, vi)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(10)))]

    /// The tentpole property: any random edit sequence, at jobs ∈ {1, 2, 8},
    /// yields a matrix bit-identical to a from-scratch analysis of whatever
    /// workload survived — including explicit-budget overflow fallbacks.
    #[test]
    fn edit_sequences_are_bit_identical_to_fresh_analysis(
        schema_idx in 0usize..4,
        ops in prop::collection::vec((0usize..4, 0usize..16), 1..12),
        engine_idx in 0usize..3,
        budget in prop_oneof![Just(60usize), Just(20_000usize)],
        jobs_idx in 0usize..3,
    ) {
        let dtd = &schemas()[schema_idx];
        let engine = [EngineKind::Auto, EngineKind::Explicit, EngineKind::Cdag][engine_idx];
        let jobs = [1usize, 2, 8][jobs_idx];
        let config = AnalyzerConfig { engine, explicit_budget: budget, ..Default::default() };
        let mut session = SessionBuilder::new(dtd)
            .config(config.clone())
            .jobs(Jobs::Fixed(jobs))
            .build();
        let mut next_name = 0usize;
        for &(op, payload) in &ops {
            match op {
                0 => {
                    let q = parse_query(QUERY_POOL[payload % QUERY_POOL.len()]).unwrap();
                    next_name += 1;
                    session.add_view(format!("v{next_name}"), q);
                }
                1 => {
                    let u = parse_update(UPDATE_POOL[payload % UPDATE_POOL.len()]).unwrap();
                    next_name += 1;
                    session.add_update(format!("u{next_name}"), u);
                }
                2 => {
                    if session.n_views() > 0 {
                        session.remove_view_at(payload % session.n_views());
                    }
                }
                _ => {
                    if session.n_updates() > 0 {
                        session.remove_update_at(payload % session.n_updates());
                    }
                }
            }
        }
        assert_session_matches_fresh(dtd, &session, &config);
    }

    /// A session's `check` is bit-identical to a fresh session's verdict
    /// across engines — cold on the first call, warm on the repeat, and
    /// still warm after unrelated checks have filled the caches.
    #[test]
    fn warm_check_equals_fresh_analyzer_across_engines(
        schema_idx in 0usize..4,
        q_idx in 0usize..QUERY_POOL.len(),
        u_idx in 0usize..UPDATE_POOL.len(),
        engine_idx in 0usize..3,
    ) {
        let dtd = &schemas()[schema_idx];
        let engine = [EngineKind::Auto, EngineKind::Explicit, EngineKind::Cdag][engine_idx];
        let config = AnalyzerConfig { engine, ..Default::default() };
        let session = SessionBuilder::new(dtd).config(config.clone()).build();
        // Unrelated checks first, so the target pair hits a part-warm cache.
        for warmup in QUERY_POOL.iter().take(3) {
            let q = parse_query(warmup).unwrap();
            let u = parse_update(UPDATE_POOL[(u_idx + 1) % UPDATE_POOL.len()]).unwrap();
            session.check(&q, &u);
        }
        let q = parse_query(QUERY_POOL[q_idx]).unwrap();
        let u = parse_update(UPDATE_POOL[u_idx]).unwrap();
        let fresh = SessionBuilder::new(dtd).config(config).build().check(&q, &u);
        prop_assert!(session.check(&q, &u) == fresh, "cold session check diverged");
        prop_assert!(session.check(&q, &u) == fresh, "warm session check diverged");
    }
}

/// The bulk `add_workload` registration and the one-at-a-time incremental
/// path materialize identical matrices on the real XMark workload, and the
/// session matches a fresh one after a remove + re-add cycle.
#[test]
fn xmark_workload_session_is_consistent() {
    let dtd = xml_qui::workloads::xmark_dtd();
    let views: Vec<_> = all_views().into_iter().take(8).collect();
    let updates: Vec<_> = all_updates().into_iter().take(5).collect();
    let config = AnalyzerConfig::default();

    let mut bulk = SessionBuilder::new(&dtd).jobs(Jobs::Fixed(2)).build();
    bulk.add_workload(
        views.iter().map(|v| (v.name.to_string(), v.query.clone())),
        updates
            .iter()
            .map(|u| (u.name.to_string(), u.update.clone())),
    );
    let mut incremental = SessionBuilder::new(&dtd).jobs(Jobs::Fixed(2)).build();
    for v in &views {
        incremental.add_view(v.name, v.query.clone());
    }
    for u in &updates {
        incremental.add_update(u.name, u.update.clone());
    }
    for (ui, u) in updates.iter().enumerate() {
        assert_eq!(
            bulk.independent_flags(ui),
            incremental.independent_flags(ui),
            "update {}",
            u.name
        );
    }

    // Remove a view and an update, re-add the view, and compare against a
    // fresh analysis of the surviving workload.
    bulk.remove_view(views[2].name);
    bulk.remove_update(updates[1].name);
    bulk.add_view(views[2].name, views[2].query.clone());
    assert_session_matches_fresh(&dtd, &bulk, &config);

    // The re-add was served from the caches: no new CDAG inference ran
    // beyond what the initial registration already paid.
    let stats = bulk.stats();
    assert!(
        stats.cdag_cache_hits > 0,
        "the re-added view must hit the warm caches: {stats:?}"
    );
}

/// Removals never recompute anything: dropping rows/columns leaves the
/// remaining verdicts untouched (same `Verdict` objects, bit for bit).
#[test]
fn removals_do_not_disturb_surviving_cells() {
    let dtd = schemas().remove(0);
    let mut session = AnalysisSession::new(&dtd);
    for (i, q) in QUERY_POOL.iter().take(5).enumerate() {
        session.add_view(format!("v{i}"), parse_query(q).unwrap());
    }
    for (i, u) in UPDATE_POOL.iter().take(4).enumerate() {
        session.add_update(format!("u{i}"), parse_update(u).unwrap());
    }
    let before_cells = session.stats().cells_computed;
    let keep_flags: Vec<bool> = session.independent_flags(2);
    session.remove_view_at(1);
    session.remove_update_at(0);
    session.remove_update_at(0);
    assert_eq!(
        session.stats().cells_computed,
        before_cells,
        "removals must not recompute cells"
    );
    // Row u2 survived as row 0; its verdicts (minus the dropped column)
    // are the same objects.
    let mut expected = keep_flags;
    expected.remove(1);
    assert_eq!(session.independent_flags(0), expected);
}
