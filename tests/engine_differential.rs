//! The differential harness for the two inference engines (and the pieces
//! the CDAG-first promotion rests on):
//!
//! * **verdict equivalence** — across randomized schemas, queries, updates
//!   and multiplicity bounds `k ∈ {1..4}`, the CDAG engine's independence
//!   verdict equals the explicit (reference) engine's wherever the latter
//!   is feasible, and the explicit witness chains are *denoted* by the CDAG
//!   sets (checked through `CdagEngine::enumerate`);
//! * **the CDAG cache rule** — an inference at `k0` that never hit the
//!   depth cap equals a fresh inference at every larger bound;
//! * **CDAG-backed projection** — on recursive schemas where the explicit
//!   projection spec overflows its budget, the compiled `PathAutomaton`
//!   still preserves query results (and actually prunes);
//! * **auto fallback boundary** — a workload straddling `explicit_budget`
//!   produces bit-identical mixed-engine verdicts for jobs ∈ {1, 2, 8};
//! * **witness totality** — every dependent verdict carries a valid
//!   conflict witness, including cells whose explicit confirmation
//!   overflowed (their witness is synthesized from the CDAG sub-DAGs);
//! * **CDAG exactness** — on the seeded corpus, a CDAG-only matrix never
//!   proves a cell Auto refutes, and agrees with Auto on ≥ 90% of cells.
//!
//! The nightly workflow re-runs this suite with a larger deterministic case
//! count via `QUI_PROPTEST_CASES`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use xml_qui::core::engine::cdag::{CdagEngine, ChainDag, NodeIdx};
use xml_qui::core::engine::explicit::ExplicitEngine;
use xml_qui::core::{
    k_for_pair, AnalysisSession, AnalyzerConfig, ChainProjector, EngineKind, Jobs, SessionBuilder,
    Universe, Verdict,
};
use xml_qui::schema::{random_query, random_update, Corpus};
use xml_qui::schema::{Chain, Dtd, SchemaLike, Sym, TEXT_SYM};
use xml_qui::xmlstore::parse_xml;
use xml_qui::xquery::dynamic::snapshot_query;
use xml_qui::xquery::{parse_query, parse_update, Axis, NodeTest, Query, Update};

/// The verdict of a fresh one-shot session: the per-pair reference.
fn fresh_check<S: SchemaLike>(
    schema: &S,
    config: &AnalyzerConfig,
    q: &Query,
    u: &Update,
) -> Verdict {
    SessionBuilder::new(schema)
        .config(config.clone())
        .build()
        .check(q, u)
}

/// A fresh session holding the whole workload, registered in one batch.
fn fresh_matrix<'a, S: SchemaLike + Sync>(
    schema: &'a S,
    views: &[Query],
    updates: &[Update],
    config: &AnalyzerConfig,
    jobs: Jobs,
) -> AnalysisSession<'a, S> {
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
    session
}

/// Deterministic case count, raised by the nightly run via
/// `QUI_PROPTEST_CASES`.
fn cases(default: u32) -> u32 {
    std::env::var("QUI_PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

// ---------------------------------------------------------------------------
// The randomized workload: schema pool × per-schema expression pools
// ---------------------------------------------------------------------------

/// Schema pool: non-recursive, mildly recursive (§5's d1), and the heavily
/// recursive cliques that force the CDAG representation.
fn schema_pool() -> Vec<Dtd> {
    vec![
        Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap(),
        Dtd::parse_compact(
            "bib -> book* ; book -> (title, author*, price?) ; title -> #PCDATA ; \
             author -> (first?, last) ; first -> #PCDATA ; last -> #PCDATA ; price -> #PCDATA",
            "bib",
        )
        .unwrap(),
        Dtd::builder()
            .rule("r", "a")
            .rule("a", "(b, c, e)*")
            .rule("b", "f")
            .rule("c", "f")
            .rule("e", "f")
            .rule("f", "(a, g)")
            .rule("g", "EMPTY")
            .build("r")
            .unwrap(),
        Dtd::parse_compact(
            "r -> (a|x)* ; a -> (b|c)* ; b -> (b|c)* ; c -> (b|c)* ; x -> y ; y -> EMPTY",
            "r",
        )
        .unwrap(),
        Dtd::parse_compact(
            "a -> (b|d)* ; b -> c ; d -> c ; c -> (e?, f?) ; e -> EMPTY ; f -> EMPTY",
            "a",
        )
        .unwrap(),
    ]
}

/// The schema corpus as plain DTDs: the five hand-written fixtures plus two
/// seeded generated shapes, so the differential properties run over more
/// shapes than the hand pool above covers (deep chains, wide fan-out,
/// recursion cliques).
fn corpus_pool() -> Vec<Dtd> {
    Corpus::seeded(0xC0FFEE, 2)
        .iter()
        .map(|s| s.dtd())
        .collect()
}

/// Assembles a navigation query from drawn (axis, label-index) pairs over
/// the schema alphabet, so every schema gets structurally varied queries
/// without hand-curating per-schema pools.
fn build_query(schema: &Dtd, shape: usize, l1: usize, l2: usize) -> Query {
    let labels = schema.labels();
    let a = &labels[l1 % labels.len()];
    let b = &labels[l2 % labels.len()];
    let src = match shape % 8 {
        0 => format!("//{a}"),
        1 => format!("/{a}/{b}"),
        2 => format!("//{a}//{b}"),
        3 => format!("//{a}/{b}"),
        4 => format!("//{a}/parent::node()"),
        5 => format!("//{a}/ancestor::{b}"),
        6 => format!("for $x in //{a} return $x/{b}"),
        7 => format!("//{a}/following-sibling::{b}"),
        _ => unreachable!(),
    };
    parse_query(&src).expect("generated query parses")
}

/// Assembles an update the same way.
fn build_update(schema: &Dtd, shape: usize, l1: usize, l2: usize) -> Update {
    let labels = schema.labels();
    let a = &labels[l1 % labels.len()];
    let b = &labels[l2 % labels.len()];
    let src = match shape % 6 {
        0 => format!("delete //{a}"),
        1 => format!("delete //{a}//{b}"),
        2 => format!("delete /{a}/{b}"),
        3 => format!("for $x in //{a} return insert <{b}/> into $x"),
        4 => format!("for $x in //{a} return rename $x as {b}"),
        5 => format!("for $x in //{a} return replace $x with <{b}/>"),
        _ => unreachable!(),
    };
    parse_update(&src).expect("generated update parses")
}

/// Explicit-engine verdict at bound `k`, or `None` on budget overflow.
fn explicit_verdict(schema: &Dtd, q: &Query, u: &Update, k: usize) -> Option<bool> {
    let universe = Universe::with_k(schema, k);
    let eng = ExplicitEngine::new(&universe, 100_000);
    let qc = eng.infer_query(&eng.root_gamma(q.free_vars()), q).ok()?;
    let uc = eng.infer_update(&eng.root_gamma(u.free_vars()), u).ok()?;
    Some(xml_qui::core::conflict::find_conflict(&qc, &uc).is_none())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    /// The headline differential property, in three parts:
    ///
    /// 1. **Soundness** (universal): the CDAG never claims independence the
    ///    explicit engine refutes — its chain sets over-approximate.
    /// 2. **Attributability**: when the CDAG flags dependence the explicit
    ///    engine at the same `k` disproves, the disagreement must be one of
    ///    the CDAG's *documented* over-approximations — either the
    ///    depth-for-multiplicity relaxation (`k`-chains vs `k·|d|`-deep
    ///    chains; then the explicit engine at the depth-equivalent bound
    ///    also flags dependence) or grid-horizon saturation (the inference
    ///    hit the depth cap and truncated suffixes into extensible ends,
    ///    reported by `take_saturated`). Anything else is an engine bug and
    ///    fails the suite.
    /// 3. **Production equality** (zero mismatches): the CDAG-first `Auto`
    ///    verdict equals the pure explicit verdict wherever the explicit
    ///    engine is feasible.
    ///
    /// When both engines flag dependence, the explicit witness chains must
    /// additionally be *denoted* by the CDAG sets (via `enumerate`).
    #[test]
    fn cdag_verdicts_match_explicit_verdicts(
        si in 0usize..5,
        q_shape in 0usize..8,
        ql1 in 0usize..16,
        ql2 in 0usize..16,
        u_shape in 0usize..6,
        ul1 in 0usize..16,
        ul2 in 0usize..16,
        k in 1usize..5,
    ) {
        let schemas = schema_pool();
        let schema = &schemas[si];
        let q = build_query(schema, q_shape, ql1, ql2);
        let u = build_update(schema, u_shape, ul1, ul2);

        let Some(explicit) = explicit_verdict(schema, &q, &u, k) else {
            // Explicit overflow: nothing to differentiate against (the CDAG
            // verdict is the production answer by construction).
            return Ok(());
        };
        let eng = CdagEngine::new(schema, k);
        let qc = eng.infer_query(&eng.root_gamma(q.free_vars()), &q);
        let uc = eng.infer_update(&eng.root_gamma(u.free_vars()), &u);
        let saturated = eng.take_saturated();
        let cdag = eng.independent(&qc, &uc);

        // (1) Soundness: a CDAG independence proof is always right.
        if cdag {
            prop_assert!(
                explicit,
                "UNSOUND: CDAG claims ({}, {}) independent at k = {} over schema #{}, explicit refutes",
                q, u, k, si
            );
        }
        // (2) Attributability: a CDAG dependence the explicit engine
        // disproves must come from a documented over-approximation.
        if !cdag && explicit && !saturated {
            let k_relaxed = k * schema.schema_size() + 2;
            if let Some(relaxed) = explicit_verdict(schema, &q, &u, k_relaxed) {
                prop_assert!(
                    !relaxed,
                    "CDAG dependence on ({}, {}) at k = {} is NOT a documented relaxation: \
                     the inference never saturated and the explicit engine stays \
                     independent at k = {}",
                    q, u, k, k_relaxed
                );
            }
        }
        // (3) Production equality: the CDAG-first auto pipeline answers
        // with full explicit precision.
        let auto = fresh_check(
            schema,
            &AnalyzerConfig {
                k_override: Some(k),
                explicit_budget: 100_000,
                ..Default::default()
            },
            &q,
            &u,
        );
        prop_assert_eq!(
            auto.is_independent(), explicit,
            "the CDAG-first auto verdict mismatches the explicit engine on ({}, {}) at k = {}",
            q, u, k
        );

        // Witness containment: the explicit witness chains must be denoted
        // by the (over-approximating) CDAG sets.
        if !explicit && !cdag {
            let universe = Universe::with_k(schema, k);
            let ex = ExplicitEngine::new(&universe, 100_000);
            let eqc = ex.infer_query(&ex.root_gamma(q.free_vars()), &q).unwrap();
            let euc = ex.infer_update(&ex.root_gamma(u.free_vars()), &u).unwrap();
            let witness = xml_qui::core::conflict::find_conflict(&eqc, &euc)
                .expect("dependence implies a witness");
            let denoted = |dag: &xml_qui::core::engine::cdag::ChainDag, chain: &Chain| {
                match eng.enumerate(dag, 100_000) {
                    // The witness may also be an *extension* of a denoted
                    // extensible chain; prefix containment covers both.
                    Some(chains) => chains.iter().any(|c| c.is_prefix_of(chain) || c == chain),
                    None => true, // too many chains to enumerate — skip
                }
            };
            let q_dag = qc.returns.clone().union(&qc.used);
            prop_assert!(
                denoted(&q_dag, &witness.query_chain.chain)
                    // Element chains are not rooted; they are checked by the
                    // explicit/CDAG set equality tests instead.
                    || !witness.query_chain.chain.symbols().first().map(|&s| s == schema.start_type()).unwrap_or(true),
                "CDAG query sets do not denote the witness chain of ({q}, {u})"
            );
            prop_assert!(
                denoted(&uc, &witness.update_chain.chain)
                    || !witness.update_chain.chain.symbols().first().map(|&s| s == schema.start_type()).unwrap_or(true),
                "CDAG update set does not denote the witness chain of ({q}, {u})"
            );
        }
    }

    /// The corpus-wide differential: on every schema of the shared corpus
    /// (hand-written fixtures and seeded generated shapes alike) the CDAG
    /// engine stays sound against the explicit engine, and the CDAG-first
    /// `Auto` pipeline keeps full explicit precision. This is the lighter
    /// sibling of the headline property above — the attributability and
    /// witness-containment clauses stay on the curated pool, where the
    /// relaxed-`k` re-check is affordable; soundness and production
    /// equality run corpus-wide.
    #[test]
    fn corpus_schemas_keep_engine_agreement(
        si in 0usize..7,
        q_shape in 0usize..8,
        ql1 in 0usize..24,
        ql2 in 0usize..24,
        u_shape in 0usize..6,
        ul1 in 0usize..24,
        ul2 in 0usize..24,
        k in 1usize..4,
    ) {
        let pool = corpus_pool();
        let schema = &pool[si % pool.len()];
        let q = build_query(schema, q_shape, ql1, ql2);
        let u = build_update(schema, u_shape, ul1, ul2);
        let Some(explicit) = explicit_verdict(schema, &q, &u, k) else {
            return Ok(());
        };
        let eng = CdagEngine::new(schema, k);
        let qc = eng.infer_query(&eng.root_gamma(q.free_vars()), &q);
        let uc = eng.infer_update(&eng.root_gamma(u.free_vars()), &u);
        prop_assert!(
            !eng.independent(&qc, &uc) || explicit,
            "UNSOUND: CDAG claims ({}, {}) independent at k = {} on corpus schema #{}, explicit refutes",
            q, u, k, si % pool.len()
        );
        let auto = fresh_check(
            schema,
            &AnalyzerConfig {
                k_override: Some(k),
                explicit_budget: 100_000,
                ..Default::default()
            },
            &q,
            &u,
        );
        prop_assert_eq!(
            auto.is_independent(), explicit,
            "the CDAG-first auto verdict mismatches the explicit engine on ({}, {}) at k = {} on corpus schema #{}",
            q, u, k, si % pool.len()
        );
    }

    /// The rule the session's CDAG cache rests on: an inference at `k0`
    /// that never saturated equals a fresh inference at every larger bound,
    /// for queries and updates alike.
    #[test]
    fn unsaturated_result_serves_every_larger_bound(
        si in 0usize..5,
        q_shape in 0usize..8,
        u_shape in 0usize..6,
        l1 in 0usize..16,
        l2 in 0usize..16,
        k0 in 1usize..3,
    ) {
        let schemas = schema_pool();
        let schema = &schemas[si];
        let q = build_query(schema, q_shape, l1, l2);
        let u = build_update(schema, u_shape, l2, l1);
        let eng = CdagEngine::new(schema, k0);
        let q0 = eng.infer_query(&eng.root_gamma(q.free_vars()), &q);
        let q_complete = !eng.take_saturated();
        let u0 = eng.infer_update(&eng.root_gamma(u.free_vars()), &u);
        let u_complete = !eng.take_saturated();
        for k in k0 + 1..=k0 + 3 {
            let eng = CdagEngine::new(schema, k);
            if q_complete {
                let fresh = eng.infer_query(&eng.root_gamma(q.free_vars()), &q);
                prop_assert_eq!(&q0, &fresh, "query result at k0 = {} diverged at k = {} for {}", k0, k, q);
            }
            if u_complete {
                let fresh = eng.infer_update(&eng.root_gamma(u.free_vars()), &u);
                prop_assert_eq!(&u0, &fresh, "update result at k0 = {} diverged at k = {} for {}", k0, k, u);
            }
        }
    }

    /// On the recursive cliques (schema #3 of the pool) the explicit chain
    /// sets overflow, and the compiled automaton must still preserve query
    /// results on concrete documents.
    #[test]
    fn automaton_projection_preserves_results_on_recursive_schemas(
        q_shape in 0usize..4,
        l1 in 0usize..4,
        l2 in 0usize..4,
        doc_i in 0usize..4,
    ) {
        let schema = Dtd::parse_compact(
            "r -> (a|x)* ; a -> (b|c)* ; b -> (b|c)* ; c -> (b|c)* ; x -> y ; y -> EMPTY",
            "r",
        )
        .unwrap();
        // Descendant-heavy shapes over the clique labels.
        let clique = ["a", "b", "c", "y"];
        let (a, b) = (clique[l1 % 4], clique[l2 % 4]);
        let src = match q_shape {
            0 => format!("//{a}"),
            1 => format!("//{a}//{b}"),
            2 => format!("//{a}/{b}"),
            3 => format!("//{a}//{b}//{a}"),
            _ => unreachable!(),
        };
        let q = parse_query(&src).unwrap();
        let docs = [
            "<r><a><b><c><b/></c></b></a><x><y/></x></r>",
            "<r><a><c><b><b><c/></b></b></c><b/></a><a/><x><y/></x><x><y/></x></r>",
            "<r><x><y/></x></r>",
            "<r><a><b><b><b><c/></b></b></b><c><c/></c></a></r>",
        ];
        let doc = parse_xml(docs[doc_i]).unwrap();
        let projected = ChainProjector::new(&schema).project_for_query(&doc, &q);
        prop_assert_eq!(
            snapshot_query(&doc, &q).unwrap(),
            snapshot_query(&projected, &q).unwrap(),
            "projection changed the result of {} on document #{}",
            src, doc_i
        );
    }

    /// What the session's engine pool relies on: the conflict tests read no
    /// multiplicity bound, so an engine built at `k = 1` decides and
    /// explains chain sets inferred at the pair's bound exactly as an engine
    /// built at that bound does.
    #[test]
    fn conflict_tests_ignore_the_engine_bound(
        si in 0usize..7,
        q_shape in 0usize..8,
        ql1 in 0usize..24,
        ql2 in 0usize..24,
        u_shape in 0usize..6,
        ul1 in 0usize..24,
        ul2 in 0usize..24,
    ) {
        let pool = corpus_pool();
        let schema = &pool[si % pool.len()];
        let q = build_query(schema, q_shape, ql1, ql2);
        let u = build_update(schema, u_shape, ul1, ul2);
        let k = k_for_pair(&q, &u);
        let eng = CdagEngine::new(schema, k);
        let qc = eng.infer_query(&eng.root_gamma(q.free_vars()), &q);
        let uc = eng.infer_update(&eng.root_gamma(u.free_vars()), &u);
        let pooled = CdagEngine::new(schema, 1);
        prop_assert_eq!(
            pooled.independent(&qc, &uc),
            eng.independent(&qc, &uc),
            "independent differs for ({}, {}) at k = {}", q, u, k
        );
        prop_assert_eq!(
            pooled.find_dag_conflict(&qc, &uc),
            eng.find_dag_conflict(&qc, &uc),
            "find_dag_conflict differs for ({}, {}) at k = {}", q, u, k
        );
    }

    /// The level-synchronous word-bitset descendant closure is bit-identical
    /// to the naive depth-first reference (`step_descendant_reference`, the
    /// pre-bitset implementation) — result ends, used ends, edges and the
    /// saturation flag — on random contexts.
    #[test]
    fn descendant_step_bitset_matches_dfs_reference(
        schema_idx in 0usize..5,
        k in 1usize..4,
        prefix in prop::collection::vec((0usize..3, 0usize..8), 0..3),
        or_self_pick in 0usize..2,
        test_pick in 0usize..12,
    ) {
        let or_self = or_self_pick == 1;
        let schemas = schema_pool();
        let schema = &schemas[schema_idx % schemas.len()];
        let labels = schema.labels();
        let pick_test = |i: usize| -> NodeTest {
            match i % (labels.len() + 3) {
                0 => NodeTest::AnyNode,
                1 => NodeTest::AnyElement,
                2 => NodeTest::Text,
                j => NodeTest::Tag(labels[j - 3].clone()),
            }
        };
        let eng = CdagEngine::new(schema, k);
        // Build a context by stepping from the root along a random prefix.
        let mut ctx = eng.root_dag();
        for &(axis_i, label_i) in &prefix {
            let axis = [Axis::Child, Axis::Descendant, Axis::DescendantOrSelf][axis_i];
            let (next, _) = eng.step(&ctx, axis, &pick_test(label_i));
            if next.is_empty() {
                break;
            }
            ctx = next;
        }
        let test = pick_test(test_pick);
        eng.take_saturated(); // reset whatever the prefix steps recorded
        let (res_a, used_a) = eng.step_descendant(&ctx, or_self, &test);
        let sat_a = eng.take_saturated();
        let (res_b, used_b) = eng.step_descendant_reference(&ctx, or_self, &test);
        let sat_b = eng.take_saturated();
        prop_assert_eq!(res_a, res_b, "result ends/edges differ");
        prop_assert_eq!(used_a, used_b, "used ends differ");
        prop_assert_eq!(sat_a, sat_b, "saturation flag differs");
    }

    /// The shared ancestor sweep of `CdagEngine::step` is bit-identical to
    /// the per-end walk it replaced (`step_ancestor_reference`) — result
    /// ends, used ends, edges and the saturation flag — on random contexts
    /// over the recursive hand pool and the corpus pool.
    #[test]
    fn ancestor_step_sweep_matches_per_end_walk(
        schema_idx in 0usize..12,
        k in 1usize..4,
        prefix in prop::collection::vec((0usize..3, 0usize..24), 0..4),
        or_self_pick in 0usize..2,
        test_pick in 0usize..24,
    ) {
        let axis = [Axis::Ancestor, Axis::AncestorOrSelf][or_self_pick];
        let schemas: Vec<Dtd> = schema_pool().into_iter().chain(corpus_pool()).collect();
        let schema = &schemas[schema_idx % schemas.len()];
        let labels = schema.labels();
        let pick_test = |i: usize| -> NodeTest {
            match i % (labels.len() + 3) {
                0 => NodeTest::AnyNode,
                1 => NodeTest::AnyElement,
                2 => NodeTest::Text,
                j => NodeTest::Tag(labels[j - 3].clone()),
            }
        };
        let eng = CdagEngine::new(schema, k);
        let mut ctx = eng.root_dag();
        for &(axis_i, label_i) in &prefix {
            let step_axis = [Axis::Child, Axis::Descendant, Axis::DescendantOrSelf][axis_i];
            let (next, _) = eng.step(&ctx, step_axis, &pick_test(label_i));
            if next.is_empty() {
                break;
            }
            ctx = next;
        }
        let test = pick_test(test_pick);
        eng.take_saturated(); // reset whatever the prefix steps recorded
        let (res_a, used_a) = eng.step(&ctx, axis, &test);
        let sat_a = eng.take_saturated();
        let (res_b, used_b) = step_ancestor_reference(&eng, &ctx, axis, &test);
        let sat_b = eng.take_saturated();
        prop_assert_eq!(res_a, res_b, "result ends/edges differ");
        prop_assert_eq!(used_a, used_b, "used ends differ");
        prop_assert_eq!(sat_a, sat_b, "saturation flag differs");
    }
}

/// The per-end ancestor walk `CdagEngine::step` ran before the shared
/// sweep, kept verbatim from public API as the reference of
/// `ancestor_step_sweep_matches_per_end_walk`: one depth-first walk up the
/// context DAG per typed end, then the step's provenance trimming.
fn step_ancestor_reference(
    eng: &CdagEngine<'_, Dtd>,
    ctx: &ChainDag,
    axis: Axis,
    test: &NodeTest,
) -> (ChainDag, ChainDag) {
    let schema = eng.schema();
    let sym_passes = |s: Sym| match test {
        NodeTest::AnyNode => true,
        NodeTest::Text => s == TEXT_SYM,
        NodeTest::AnyElement => s != TEXT_SYM,
        NodeTest::Tag(t) => s != TEXT_SYM && schema.type_label(s) == t,
    };
    let mut result = ChainDag::empty();
    let mut used = ChainDag::empty();
    let mut preds: HashMap<NodeIdx, Vec<NodeIdx>> = HashMap::new();
    for &(f, t) in &ctx.edges {
        preds.entry(t).or_default().push(f);
    }
    for &end in ctx.ends.keys() {
        let Some(end_sym) = eng.sym_of(end) else {
            continue;
        };
        let mut produced = false;
        if axis == Axis::AncestorOrSelf && sym_passes(end_sym) {
            result.ends.insert(end, false);
            produced = true;
        }
        let mut frontier = vec![end];
        let mut visited: HashSet<NodeIdx> = HashSet::new();
        while let Some(n) = frontier.pop() {
            for &p in preds.get(&n).map(|v| v.as_slice()).unwrap_or(&[]) {
                if let Some(ps) = eng.sym_of(p) {
                    if sym_passes(ps) {
                        result.ends.insert(p, false);
                        produced = true;
                    }
                }
                if visited.insert(p) {
                    frontier.push(p);
                }
            }
        }
        if produced {
            used.ends.insert(end, false);
        }
    }
    // The step's tail: keep the context edges on paths to the producing
    // ends, then trim those to the paths reaching the result ends.
    used.edges = eng
        .trim(&ChainDag {
            edges: ctx.edges.clone(),
            ends: used.ends.clone(),
        })
        .edges;
    result.edges = eng
        .trim(&ChainDag {
            edges: used.edges.clone(),
            ends: result.ends.clone(),
        })
        .edges;
    (result, used)
}

// ---------------------------------------------------------------------------
// The auto-engine fallback boundary (satellite: budget straddling)
// ---------------------------------------------------------------------------

/// A workload whose recursive half overflows a reduced explicit budget while
/// the flat half stays comfortably inside it.
fn straddling_workload() -> (Dtd, Vec<Query>, Vec<Update>) {
    let schema = Dtd::parse_compact(
        "r -> (a|x)* ; a -> (b|c)* ; b -> (b|c)* ; c -> (b|c)* ; x -> y ; y -> EMPTY",
        "r",
    )
    .unwrap();
    let views = ["//b//c", "//b", "/x/y", "//x", "//y/parent::x", "//c//b//c"]
        .iter()
        .map(|s| parse_query(s).unwrap())
        .collect();
    let updates = [
        "delete //c//b",
        "delete /x/y",
        "for $x in //x return insert <y/> into $x",
        "delete //b",
    ]
    .iter()
    .map(|s| parse_update(s).unwrap())
    .collect();
    (schema, views, updates)
}

#[test]
fn budget_straddling_matrix_mixes_engines_and_stays_bit_identical() {
    let (schema, views, updates) = straddling_workload();
    let config = AnalyzerConfig {
        explicit_budget: 60,
        ..Default::default()
    };
    let reference = fresh_matrix(&schema, &views, &updates, &config, Jobs::Fixed(1));
    // The workload genuinely straddles the budget: both engines appear.
    let engines: Vec<EngineKind> = (0..updates.len())
        .flat_map(|ui| (0..views.len()).map(move |vi| (ui, vi)))
        .map(|(ui, vi)| reference.verdict(ui, vi).engine_used)
        .collect();
    assert!(
        engines.contains(&EngineKind::Explicit),
        "no cell used the explicit engine — the budget no longer straddles: {engines:?}"
    );
    assert!(
        engines.contains(&EngineKind::Cdag),
        "no cell used the CDAG engine — the budget no longer straddles: {engines:?}"
    );
    // Cell-for-cell mirroring of per-pair fresh checks, for every worker
    // count, including witnesses.
    for jobs in [1usize, 2, 8] {
        let m = fresh_matrix(&schema, &views, &updates, &config, Jobs::Fixed(jobs));
        for (ui, u) in updates.iter().enumerate() {
            for (vi, v) in views.iter().enumerate() {
                let seq = fresh_check(&schema, &config, v, u);
                assert_eq!(
                    &seq,
                    m.verdict(ui, vi),
                    "cell (view {vi}, update {ui}) diverged from the per-pair check"
                );
                assert_eq!(
                    reference.verdict(ui, vi),
                    m.verdict(ui, vi),
                    "jobs = {jobs} diverged at cell ({ui}, {vi})"
                );
            }
        }
    }
}

#[test]
fn straddling_auto_matrix_runs_the_explicit_inferences_of_its_checks() {
    // A matrix is the same pipeline as a check, short-circuit included: its
    // cells equal per-pair checks, and it runs exactly the explicit
    // inferences those checks run on one session. Before the matrix shared
    // the short-circuit it ran 22 here, inferring update sides that only
    // paired with overflowing queries.
    let (schema, views, updates) = straddling_workload();
    let config = AnalyzerConfig {
        explicit_budget: 60,
        ..Default::default()
    };
    let m = fresh_matrix(&schema, &views, &updates, &config, Jobs::Fixed(2));
    let checks = SessionBuilder::new(&schema).config(config).build();
    for (ui, u) in updates.iter().enumerate() {
        for (vi, v) in views.iter().enumerate() {
            assert_eq!(
                &checks.check(v, u),
                m.verdict(ui, vi),
                "cell (view {vi}, update {ui}) diverged from the per-pair check"
            );
        }
    }
    let explicit = m.stats().explicit_inferences;
    assert_eq!(explicit, checks.stats().explicit_inferences);
    assert!(explicit <= 22, "{explicit} explicit inferences");
}

#[test]
fn dependent_verdicts_carry_valid_witnesses_whichever_engine_answers() {
    // Satellite pin: a dependent verdict always explains itself. Explicit
    // confirmations have carried a witness from day one; this pins the CDAG
    // side — cells whose explicit confirmation overflows the budget (and
    // forced-CDAG runs) now synthesize one from the conflicting sub-DAG.
    // The witness must actually be a witness: the stored chains must stand
    // in the prefix relation `find_conflict` reports for that kind.
    use xml_qui::core::conflict::{item_conflicts, ConflictKind};
    let (schema, views, updates) = straddling_workload();
    let config = AnalyzerConfig {
        explicit_budget: 60,
        ..Default::default()
    };
    let reference = fresh_matrix(&schema, &views, &updates, &config, Jobs::Fixed(1));
    let mut cdag_dependent = 0usize;
    for ui in 0..updates.len() {
        for vi in 0..views.len() {
            let v = reference.verdict(ui, vi);
            if v.is_independent() {
                assert!(
                    v.witness.is_none(),
                    "independent cell ({ui}, {vi}) has a witness"
                );
                continue;
            }
            let w = v
                .witness
                .as_ref()
                .unwrap_or_else(|| panic!("dependent cell ({ui}, {vi}) carries no witness"));
            let valid = match w.kind {
                // confl(r, U): the query chain prefixes the update chain.
                ConflictKind::ReturnBelowUpdate => item_conflicts(&w.query_chain, &w.update_chain),
                // confl(U, r) / confl(U, v): the update chain prefixes the
                // query chain.
                ConflictKind::UpdateAboveReturn | ConflictKind::UpdateAboveUsed => {
                    item_conflicts(&w.update_chain, &w.query_chain)
                }
            };
            assert!(
                valid,
                "cell ({ui}, {vi}): witness chains are not in the {:?} prefix relation: {w:?}",
                w.kind
            );
            if v.engine_used == EngineKind::Cdag {
                cdag_dependent += 1;
            }
        }
    }
    // The workload must actually exercise the new path (dependent cells the
    // explicit engine could not confirm) — otherwise this test pins nothing.
    assert!(
        cdag_dependent > 0,
        "no dependent cell fell back to the CDAG engine; the budget no longer straddles"
    );
    // Forced-CDAG dependent verdicts carry one too, and deterministically so
    // (checked across worker counts by the bit-identity test above via the
    // overflowed cells; here for the forced engine).
    let forced = AnalyzerConfig {
        engine: EngineKind::Cdag,
        ..Default::default()
    };
    let q = parse_query("//b").unwrap();
    let u = parse_update("delete //b//c").unwrap();
    let v = fresh_check(&schema, &forced, &q, &u);
    assert!(!v.is_independent());
    let w1 = v
        .witness
        .expect("forced-CDAG dependent verdict carries a witness");
    let w2 = fresh_check(&schema, &forced, &q, &u)
        .witness
        .expect("witness on the second check too");
    assert_eq!(w1, w2, "CDAG witness synthesis must be deterministic");
}

#[test]
fn forced_engines_agree_with_auto_on_the_straddling_flat_half() {
    // On the flat (non-overflowing) half, all three engine policies give
    // the same verdicts.
    let (schema, views, updates) = straddling_workload();
    let flat_views: Vec<Query> = views.into_iter().skip(2).take(3).collect();
    let flat_updates: Vec<Update> = updates.into_iter().skip(1).take(2).collect();
    let verdicts: Vec<Vec<bool>> = [EngineKind::Auto, EngineKind::Explicit, EngineKind::Cdag]
        .into_iter()
        .map(|engine| {
            let config = AnalyzerConfig {
                engine,
                ..Default::default()
            };
            let session = SessionBuilder::new(&schema).config(config).build();
            flat_updates
                .iter()
                .flat_map(|u| {
                    flat_views
                        .iter()
                        .map(|v| session.check(v, u).is_independent())
                })
                .collect()
        })
        .collect();
    assert_eq!(verdicts[0], verdicts[1]);
    assert_eq!(verdicts[0], verdicts[2]);
}

#[test]
fn cdag_answers_stay_sound_and_mostly_exact_against_auto_on_the_corpus() {
    // The exactness of a CDAG-only answer: on every corpus schema, the same
    // seeded workload registered in a CDAG session and in an Auto session
    // (whose explicit pass confirms or refines each CDAG "dependent") must
    // never disagree on an independence the CDAG proved, and must agree on
    // at least 90% of cells.
    let mut cells = 0usize;
    let mut agree = 0usize;
    for (si, schema) in Corpus::seeded(1, 8).iter().enumerate() {
        let dtd = schema.dtd();
        let labels = schema.labels();
        let mut rng = StdRng::seed_from_u64(0xE8AC ^ si as u64);
        let views: Vec<Query> = (0..12)
            .map(|_| parse_query(&random_query(&labels, &mut rng)).expect("corpus query parses"))
            .collect();
        let updates: Vec<Update> = (0..12)
            .map(|_| {
                parse_update(&random_update(&schema.start, &labels, &mut rng))
                    .expect("corpus update parses")
            })
            .collect();
        let session = |engine| {
            let config = AnalyzerConfig {
                engine,
                ..Default::default()
            };
            fresh_matrix(&dtd, &views, &updates, &config, Jobs::Fixed(1))
        };
        let (cdag, auto) = (session(EngineKind::Cdag), session(EngineKind::Auto));
        for (ui, u) in updates.iter().enumerate() {
            for (vi, q) in views.iter().enumerate() {
                let fast = cdag.verdict(ui, vi).is_independent();
                let exact = auto.verdict(ui, vi).is_independent();
                assert!(
                    !fast || exact,
                    "UNSOUND: CDAG proves ({q}, {u}) independent on corpus schema {}, Auto refutes",
                    schema.name
                );
                cells += 1;
                agree += usize::from(fast == exact);
            }
        }
    }
    assert_eq!(cells, 13 * 12 * 12);
    let exactness = agree as f64 / cells as f64;
    assert!(
        exactness >= 0.90,
        "CDAG answers agree with Auto on only {agree}/{cells} cells ({exactness:.3})"
    );
}
