//! Properties of the finite analysis (§5): behaviour of the multiplicity
//! bound `k`, agreement between the two engines, and the relationship with
//! the unrestricted analysis on non-recursive schemas.

use proptest::prelude::*;
use xml_qui::core::{
    k_for_pair, k_of_query, k_of_update, AnalysisSession, EngineKind, SessionBuilder,
};
use xml_qui::schema::Dtd;
use xml_qui::xquery::{parse_query, parse_update, Query, Update};

/// The recursive schema `d1` of §5.
fn d1() -> Dtd {
    Dtd::builder()
        .rule("r", "a")
        .rule("a", "(b, c, e)*")
        .rule("b", "f")
        .rule("c", "f")
        .rule("e", "f")
        .rule("f", "(a, g)")
        .rule("g", "EMPTY")
        .build("r")
        .unwrap()
}

fn fig1() -> Dtd {
    Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap()
}

fn check_with_k(dtd: &Dtd, q: &Query, u: &Update, k: usize, engine: EngineKind) -> bool {
    let session = SessionBuilder::new(dtd)
        .engine(engine)
        .k_override(Some(k))
        .build();
    session.check(q, u).is_independent()
}

const RECURSIVE_QUERIES: &[&str] = &[
    "/r/a/b",
    "$root/descendant::b",
    "$root/descendant::b/descendant::c",
    "//f/a/c",
    "//b/ancestor::a",
    "//g/parent::f",
];

const RECURSIVE_UPDATES: &[&str] = &[
    "delete $root/descendant::c",
    "delete //f/g",
    "for $x in //a return insert <g/> into $x",
    "for $x in //b/f return rename $x as f",
    "delete //e",
];

/// Table 3 sanity checks on the `k` computation.
#[test]
fn k_values_match_the_papers_worked_examples() {
    // Maximal tag frequency for a child-only path.
    assert_eq!(k_of_query(&parse_query("/r/a/b/f/a").unwrap()), 2);
    // A single recursive step contributes 1, plus the frequency of the
    // child-step part.
    assert_eq!(
        k_of_query(&parse_query("$root/descendant::b/a/b").unwrap()),
        2
    );
    // Three recursive steps: F = 0, R = 3.
    assert_eq!(
        k_of_query(&parse_query("$root/descendant::b/descendant::c/descendant::e").unwrap()),
        3
    );
    // The §5 element-construction update: k_u = 3 (nested <b><b><c/></b></b>
    // gives tag frequency 2 for b, plus one recursive step).
    let u = parse_update("for $x in /a/b return insert <b><b><c/></b></b> into $x").unwrap();
    assert_eq!(k_of_update(&u), 3);
    // k for a pair is the sum.
    let q = parse_query("$root/descendant::b").unwrap();
    let d = parse_update("delete $root/descendant::c").unwrap();
    assert_eq!(k_for_pair(&q, &d), k_of_query(&q) + k_of_update(&d));
}

#[test]
fn section5_dependence_needs_the_summed_bound() {
    let dtd = d1();
    let q = parse_query("$root/descendant::b").unwrap();
    let u = parse_update("delete $root/descendant::c").unwrap();
    let k_max = k_of_query(&q).max(k_of_update(&u));
    let k_sum = k_of_query(&q) + k_of_update(&u);
    // With k = max the conflict is invisible; with k = k_q + k_u it is found.
    assert!(check_with_k(&dtd, &q, &u, k_max, EngineKind::Explicit));
    assert!(!check_with_k(&dtd, &q, &u, k_sum, EngineKind::Explicit));
    assert!(!check_with_k(&dtd, &q, &u, k_sum, EngineKind::Cdag));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Dependence is monotone in `k`: once a conflict is visible with `k`
    /// chains it stays visible with more (C_d^k ⊆ C_d^{k+1}).
    #[test]
    fn dependence_is_monotone_in_k(
        qi in 0usize..RECURSIVE_QUERIES.len(),
        ui in 0usize..RECURSIVE_UPDATES.len(),
        extra in 1usize..3,
    ) {
        let dtd = d1();
        let q = parse_query(RECURSIVE_QUERIES[qi]).unwrap();
        let u = parse_update(RECURSIVE_UPDATES[ui]).unwrap();
        let k = k_for_pair(&q, &u);
        let at_k = check_with_k(&dtd, &q, &u, k, EngineKind::Cdag);
        let at_more = check_with_k(&dtd, &q, &u, k + extra, EngineKind::Cdag);
        if !at_k {
            prop_assert!(!at_more, "dependence at k = {k} vanished at k = {}", k + extra);
        }
    }

    /// On a non-recursive schema the bound is irrelevant: every k gives the
    /// same verdict as the unrestricted analysis.
    #[test]
    fn k_is_irrelevant_on_non_recursive_schemas(
        qi in 0usize..4usize,
        ui in 0usize..3usize,
        k in 1usize..6,
    ) {
        let dtd = fig1();
        let queries = ["//a//c", "//c", "//b", "/a/c"];
        let updates = ["delete //b//c", "delete //c", "for $x in /b return insert <c/> into $x"];
        let q = parse_query(queries[qi]).unwrap();
        let u = parse_update(updates[ui]).unwrap();
        let fixed = check_with_k(&dtd, &q, &u, k, EngineKind::Explicit);
        let natural = AnalysisSession::new(&dtd).check(&q, &u).is_independent();
        prop_assert_eq!(fixed, natural);
    }

    /// The CDAG engine never claims independence the explicit engine refutes
    /// (it may only be *less* precise), and on this workload the two agree.
    #[test]
    fn engines_agree_on_the_recursive_workload(
        qi in 0usize..RECURSIVE_QUERIES.len(),
        ui in 0usize..RECURSIVE_UPDATES.len(),
    ) {
        let dtd = d1();
        let q = parse_query(RECURSIVE_QUERIES[qi]).unwrap();
        let u = parse_update(RECURSIVE_UPDATES[ui]).unwrap();
        let k = k_for_pair(&q, &u);
        let explicit = check_with_k(&dtd, &q, &u, k, EngineKind::Explicit);
        let cdag = check_with_k(&dtd, &q, &u, k, EngineKind::Cdag);
        prop_assert_eq!(explicit, cdag, "engines disagree on ({}, {})", RECURSIVE_QUERIES[qi], RECURSIVE_UPDATES[ui]);
    }
}

#[test]
fn k_grows_with_nested_iteration_but_not_with_sequencing() {
    // For/let nesting sums the per-branch frequencies (Table 3), sequencing
    // takes the maximum.
    let nested = parse_query("for $x in /a/a return for $y in /a/b return $x").unwrap();
    let sequenced = parse_query("(/a/a, /a/b)").unwrap();
    assert!(k_of_query(&nested) > k_of_query(&sequenced));
    assert_eq!(k_of_query(&sequenced), 2);
}

#[test]
fn rename_and_element_tags_count_towards_k() {
    let plain = parse_update("delete //b").unwrap();
    let renaming = parse_update("for $x in //b return rename $x as b").unwrap();
    assert!(k_of_update(&renaming) >= k_of_update(&plain));
    let constructing = parse_update("for $x in //b return insert <b/> into $x").unwrap();
    assert!(k_of_update(&constructing) >= k_of_update(&plain));
}

#[test]
fn xmark_pairs_use_bounded_k() {
    // The paper reports k between 2 and 6 on the XMark workload; our
    // transcription should stay in single digits too (a runaway k would make
    // the finite analysis useless).
    let views = xml_qui::workloads::all_views();
    let updates = xml_qui::workloads::all_updates();
    let mut max_k = 0;
    for u in updates.iter().take(10) {
        for v in views.iter().take(12) {
            max_k = max_k.max(k_for_pair(&v.query, &u.update));
        }
    }
    assert!(max_k >= 2, "k suspiciously small: {max_k}");
    assert!(max_k <= 12, "k blew up: {max_k}");
}
