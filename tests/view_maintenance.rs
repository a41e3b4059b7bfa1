//! Differential property suite for view maintenance
//! (`qui_workloads::maintain`):
//!
//! * **`pruned_matches_naive`** — under random update streams over
//!   schema-valid documents, the independence-pruned engine's serialized
//!   view contents are bit-identical to naive full re-evaluation, for every
//!   registered view after every batch, at jobs ∈ {1, 2, 8}. The view pools
//!   include constructed results, updates that change result membership,
//!   and insertions that materialize new result nodes.
//! * **worker-count bit-identity** — the deterministic per-batch counters
//!   (skipped / re-evaluated) and the view contents of the pruned strategy
//!   are identical across worker counts, pinning that sharded
//!   re-evaluation is invisible to the observable outcome.
//! * **the change flag** — whenever `apply_pending_list` reports that an
//!   update changed nothing, the serialized document is byte-identical, so
//!   skipping every refresh after such a batch is sound.
//! * **strategy monotonicity** — naive re-evaluates every view after a
//!   batch that changed the document and none after one that did not;
//!   pruning re-evaluates no more than naive.
//! * **served from the snapshot** — a view serves its results straight
//!   from the snapshot it was evaluated on, byte-identical to the results
//!   deep-copied under one `<view>` element and serialized, across a
//!   stream that rebuilds the document.
//!
//! The nightly CI run multiplies the deterministic case count via
//! `QUI_PROPTEST_CASES`.

use proptest::prelude::*;
use xml_qui::core::Jobs;
use xml_qui::schema::Dtd;
use xml_qui::workloads::{
    all_updates, all_views, xmark_document, xmark_dtd, BatchStats, MaintainStrategy,
    MaintenanceEngine,
};
use xml_qui::xmlstore::{parse_xml, serialize_node, Store, Tree};
use xml_qui::xquery::{
    apply_pending_list, evaluate_query, evaluate_update, parse_query, parse_update, Query, Update,
};

/// One schema + document + expression-pool scenario. Every update in the
/// pool preserves schema validity (the static analysis reasons over
/// schema-valid documents, so a validity-breaking stream would void its
/// guarantees and the strategies could legitimately disagree).
struct Fixture {
    dtd: Dtd,
    doc: fn() -> Tree,
    queries: &'static [&'static str],
    updates: &'static [&'static str],
}

fn fixtures() -> Vec<Fixture> {
    vec![
        // Fig. 1 shape with fully starred content models: deletes, inner
        // inserts and the a<->b rename all keep the document valid. The
        // pool mixes conflicts strictly below a return chain (`//a` vs
        // `delete //a/c/d`), above it (`//c` vs `delete //a`), insertions
        // that create new results (`insert <c/> into //a` vs `//a/c`), and
        // a constructor view.
        Fixture {
            dtd: Dtd::parse_compact("doc -> (a|b)* ; a -> c* ; b -> c* ; c -> d*", "doc").unwrap(),
            doc: || {
                parse_xml(
                    "<doc><a><c><d/><d/></c><c/></a><b><c><d/></c></b><a/>\
                     <b><c/></b><a><c><d/></c><c><d/><d/></c></a></doc>",
                )
                .unwrap()
            },
            queries: &[
                "//a",
                "//a/c",
                "//b",
                "//c/d",
                "for $x in /doc/a[c] return $x",
                "for $x in //b return <wrap/>",
            ],
            updates: &[
                "delete //a/c/d",
                "delete //a/c",
                "delete //a",
                "delete //b/c",
                "for $x in //a/c return insert <d/> into $x",
                "for $x in //a return insert <c/> into $x",
                "for $x in //b return rename $x as a",
            ],
        },
        // Mutually recursive core (the b/c clique) plus a flat wing: the
        // recursion keeps the CDAG chain sets saturated and coarse, so most
        // pairs there re-evaluate; the x/y wing gives the pruner genuinely
        // independent pairs to skip.
        Fixture {
            dtd: Dtd::parse_compact(
                "r -> (a|x)* ; a -> (b|c)* ; b -> (b|c)* ; c -> (b|c)* ; x -> y* ; y -> #PCDATA",
                "r",
            )
            .unwrap(),
            doc: || {
                parse_xml(
                    "<r><a><b><c/><b><b/></b></b><c><b/></c></a><x><y>t</y><y>u</y></x>\
                     <a><c/><c><c/></c></a><x/></r>",
                )
                .unwrap()
            },
            queries: &[
                "//a",
                "//b//c",
                "//x/y",
                "//a/b",
                "for $v in //a[b] return $v",
                "//c//b",
            ],
            updates: &[
                "delete //b//c",
                "delete //a/c",
                "delete //x/y",
                "for $v in //c return insert <b/> into $v",
                "for $v in //b return rename $v as c",
                "delete //a/b",
            ],
        },
        // The bibliography use case: optional and starred children only, so
        // deletes stay valid; `price?` makes `[price]` predicates genuinely
        // selective and `delete //price` a used-chain conflict for them.
        Fixture {
            dtd: xml_qui::workloads::bib_dtd(),
            doc: || xml_qui::workloads::bib_document(400, 17),
            queries: &[
                "//book",
                "//book/title",
                "//author",
                "//author/last",
                "for $b in //book[price] return $b",
            ],
            updates: &[
                "delete //author/first",
                "delete //price",
                "delete //book/author",
                "delete //book",
            ],
        },
    ]
}

/// Deterministic case count, raised by the nightly run via
/// `QUI_PROPTEST_CASES`.
fn cases(default: u32) -> u32 {
    std::env::var("QUI_PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

const STRATEGIES: [MaintainStrategy; 2] = [MaintainStrategy::Naive, MaintainStrategy::Pruned];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(8)))]

    /// Pruned view contents are bit-identical to naive full re-evaluation
    /// after every batch of a random update stream, at any worker count.
    #[test]
    fn pruned_matches_naive(
        fixture_idx in 0usize..3,
        batches in prop::collection::vec(prop::collection::vec(0usize..16, 1..4), 1..4),
        jobs_idx in 0usize..3,
    ) {
        let fx = &fixtures()[fixture_idx];
        let jobs = [1usize, 2, 8][jobs_idx];

        // Both strategies at the sampled worker count, plus a
        // single-threaded pruned reference for worker-count bit-identity.
        let mut engines: Vec<MaintenanceEngine<Dtd>> = STRATEGIES
            .iter()
            .map(|&s| MaintenanceEngine::new(&fx.dtd, (fx.doc)(), s, Jobs::Fixed(jobs)))
            .collect();
        engines.push(MaintenanceEngine::new(
            &fx.dtd,
            (fx.doc)(),
            MaintainStrategy::Pruned,
            Jobs::Fixed(1),
        ));
        for eng in &mut engines {
            for (i, q) in fx.queries.iter().enumerate() {
                eng.register_view(&format!("v{i}"), &parse_query(q).unwrap()).unwrap();
            }
        }

        for batch_plan in &batches {
            let batch: Vec<Update> = batch_plan
                .iter()
                .map(|&i| parse_update(fx.updates[i % fx.updates.len()]).unwrap())
                .collect();
            let doc_before = engines[0].doc().to_xml();
            let stats: Vec<BatchStats> = engines
                .iter_mut()
                .map(|e| e.apply_batch(&batch).unwrap())
                .collect();

            // Bit-identical contents across strategies and worker counts.
            let reference = engines[0].serialized_views();
            for (eng, label) in engines[1..].iter().zip(["pruned", "pruned@jobs=1"]) {
                prop_assert_eq!(
                    &eng.serialized_views(),
                    &reference,
                    "{} diverged from naive on fixture {} after batch {:?}",
                    label,
                    fixture_idx,
                    batch_plan
                );
            }
            // Deterministic counters are worker-count independent.
            prop_assert_eq!(
                stats[1].deterministic_fields(),
                stats[2].deterministic_fields(),
                "pruned counters depend on the worker count"
            );
            // Naive refreshes every view after a batch that changed the
            // document and none after one that left it byte-identical;
            // pruning never refreshes more.
            prop_assert!(stats.iter().all(|s| s.unchanged == stats[0].unchanged));
            if stats[0].unchanged == 1 {
                prop_assert_eq!(stats[0].reevaluated, 0);
                prop_assert_eq!(&engines[0].doc().to_xml(), &doc_before);
            } else {
                prop_assert_eq!(stats[0].reevaluated, fx.queries.len());
            }
            prop_assert!(stats[1].reevaluated <= stats[0].reevaluated);
        }
    }
}

/// A view whose results are constructed nodes is re-evaluated like any
/// other dependent view, while an independent sibling is skipped, and both
/// end bit-identical to naive.
#[test]
fn constructed_results_fall_back_to_reevaluation() {
    let dtd = Dtd::parse_compact("doc -> (a|b)* ; a -> c* ; b -> c* ; c -> d*", "doc").unwrap();
    let doc = || parse_xml("<doc><a><c><d/></c></a><b><c/></b><a><c/></a></doc>").unwrap();
    let q_independent = parse_query("//b").unwrap();
    // Copies the `c` subtrees into fresh `<wrap>` elements: the results are
    // constructed nodes, yet their content changes under the update below.
    let q_constructed = parse_query("for $x in //a return <wrap>{$x/c}</wrap>").unwrap();
    let u = parse_update("delete //a/c/d").unwrap();

    let mut engines: Vec<MaintenanceEngine<Dtd>> = STRATEGIES
        .iter()
        .map(|&s| MaintenanceEngine::new(&dtd, doc(), s, Jobs::Fixed(2)))
        .collect();
    for eng in &mut engines {
        eng.register_view("independent", &q_independent).unwrap();
        eng.register_view("constructed", &q_constructed).unwrap();
    }
    let stats: Vec<BatchStats> = engines
        .iter_mut()
        .map(|e| e.apply_batch(std::slice::from_ref(&u)).unwrap())
        .collect();
    assert_eq!(stats[1].skipped, 1, "the //b view is independent");
    assert_eq!(
        stats[1].reevaluated, 1,
        "the constructed-result view must be re-evaluated"
    );
    assert_eq!(engines[1].serialized_views(), engines[0].serialized_views());
    assert_eq!(
        engines[1].serialized_views()[1],
        "<view><wrap><c/></wrap><wrap><c/></wrap></view>"
    );
}

/// A view registered after an update was first seen is analyzed against
/// that update when it registers, so the next batch carrying the update
/// decides it correctly: the dependent late view is refreshed, the
/// independent one skipped, and both match naive.
#[test]
fn late_registered_view_is_decided_against_seen_updates() {
    let dtd = Dtd::parse_compact("doc -> (a|b)* ; a -> c* ; b -> c*", "doc").unwrap();
    let doc = || parse_xml("<doc><a><c/></a><b><c/></b></doc>").unwrap();
    let grow_b = parse_update("for $x in //b return insert <c/> into $x").unwrap();

    let mut engines: Vec<MaintenanceEngine<Dtd>> = STRATEGIES
        .iter()
        .map(|&s| MaintenanceEngine::new(&dtd, doc(), s, Jobs::Fixed(1)))
        .collect();
    for eng in &mut engines {
        eng.register_view("as", &parse_query("//a/c").unwrap())
            .unwrap();
        eng.apply_batch(std::slice::from_ref(&grow_b)).unwrap();
        // Registered after `grow_b` was first seen.
        eng.register_view("bs", &parse_query("//b/c").unwrap())
            .unwrap();
        eng.register_view("as-again", &parse_query("//a").unwrap())
            .unwrap();
    }
    let stats: Vec<BatchStats> = engines
        .iter_mut()
        .map(|e| e.apply_batch(std::slice::from_ref(&grow_b)).unwrap())
        .collect();
    assert_eq!(stats[1].reevaluated, 1, "only the late //b/c view depends");
    assert_eq!(stats[1].skipped, 2);
    assert_eq!(engines[1].serialized_views(), engines[0].serialized_views());
    assert_eq!(
        engines[1].serialized_views()[1],
        "<view><c/><c/><c/></view>",
        "the late view must see the second insertion"
    );
}

/// The corpus sweep: on every schema of the shared corpus (hand fixtures
/// plus seeded generated shapes), a *validity-preserving* random update
/// stream keeps both strategies bit-identical at two worker counts.
///
/// The corpus generators draw arbitrary updates, and an off-schema document
/// voids the static analysis the pruned strategy rests on — so each
/// candidate update is first applied to a probe clone and validated; only
/// validity-preserving candidates enter the stream. The sweep scales with
/// `QUI_PROPTEST_CASES` like the proptest suites.
#[test]
fn corpus_streams_stay_bit_identical_across_strategies() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xml_qui::schema::validate::validate;
    use xml_qui::schema::{generate_valid, random_query, random_update, Corpus, GenValidConfig};
    use xml_qui::xquery::run_update;

    let target_applied: usize = cases(8) as usize / 2;
    let mut applied_total = 0usize;
    for (si, schema) in Corpus::seeded(0xD17A, 2).iter().enumerate() {
        let dtd = schema.dtd();
        let labels = schema.labels();
        let doc = generate_valid(&dtd, &GenValidConfig::with_target(300), 0xD0C0 + si as u64);
        let mut rng = StdRng::seed_from_u64(0x3117 ^ si as u64);

        let mut engines: Vec<MaintenanceEngine<Dtd>> = STRATEGIES
            .iter()
            .map(|&s| MaintenanceEngine::new(&dtd, doc.clone(), s, Jobs::Fixed(2)))
            .collect();
        engines.push(MaintenanceEngine::new(
            &dtd,
            doc.clone(),
            MaintainStrategy::Pruned,
            Jobs::Fixed(1),
        ));
        for eng in &mut engines {
            for i in 0..4 {
                let mut q_rng = StdRng::seed_from_u64(0x9E1D ^ ((si as u64) << 8) ^ i);
                let q = random_query(&labels, &mut q_rng);
                eng.register_view(&format!("v{i}"), &parse_query(&q).unwrap())
                    .unwrap();
            }
        }

        // Draw candidates until enough validity-preserving updates applied
        // (or the candidate budget runs out — recursion-free schemas with
        // mandatory content can reject most random deletes).
        let mut probe = doc.clone();
        let mut applied = 0usize;
        for _ in 0..target_applied.max(4) * 8 {
            if applied >= target_applied.max(4) {
                break;
            }
            let u_src = random_update(&schema.start, &labels, &mut rng);
            let u = parse_update(&u_src).unwrap();
            let mut trial = probe.clone();
            if run_update(&mut trial, &u).is_err() || validate(&dtd, &trial).is_err() {
                continue;
            }
            probe = trial;
            applied += 1;
            let batch = std::slice::from_ref(&u);
            let stats: Vec<BatchStats> = engines
                .iter_mut()
                .map(|e| e.apply_batch(batch).unwrap())
                .collect();
            let reference = engines[0].serialized_views();
            for (eng, label) in engines[1..].iter().zip(["pruned", "pruned@jobs=1"]) {
                assert_eq!(
                    eng.serialized_views(),
                    reference,
                    "{label} diverged from naive on corpus schema {} ({}) after `{u_src}`",
                    schema.name,
                    schema.shape
                );
            }
            assert!(stats[1].reevaluated <= stats[0].reevaluated);
            assert_eq!(
                stats[1].deterministic_fields(),
                stats[2].deterministic_fields()
            );
        }
        applied_total += applied;
    }
    assert!(
        applied_total > 0,
        "no validity-preserving update found on any corpus schema — the sweep pinned nothing"
    );
}

/// The real workload: an XMark update stream over views that are skipped
/// by some updates and refreshed by others, bit-identical across
/// strategies and jobs ∈ {1, 2, 8}.
#[test]
fn xmark_stream_is_bit_identical_across_strategies_and_jobs() {
    let dtd = xmark_dtd();
    // q7/q8/q9/q13 × {UA1, UB2, UN1, UI3} contain conflicts strictly below
    // a return chain; A1 gives the pruner genuinely independent cells;
    // UP5's replace changes result membership.
    let views: Vec<_> = all_views()
        .into_iter()
        .filter(|v| ["q7", "q8", "q9", "q13", "A1"].contains(&v.name))
        .collect();
    let updates: Vec<Update> = all_updates()
        .into_iter()
        .filter(|u| ["UA1", "UB2", "UN1", "UI3", "UP5"].contains(&u.name))
        .map(|u| u.update)
        .collect();

    let mut engines: Vec<MaintenanceEngine<Dtd>> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for &strategy in &STRATEGIES {
        for jobs in [1usize, 2, 8] {
            let mut eng =
                MaintenanceEngine::new(&dtd, xmark_document(2_000, 7), strategy, Jobs::Fixed(jobs));
            for v in &views {
                eng.register_view(v.name, &v.query).unwrap();
            }
            engines.push(eng);
            labels.push(format!("{strategy:?}@jobs={jobs}"));
        }
    }
    for batch in updates.chunks(2) {
        for eng in &mut engines {
            eng.apply_batch(batch).unwrap();
        }
        let reference = engines[0].serialized_views();
        for (eng, label) in engines.iter().zip(&labels) {
            assert_eq!(
                eng.serialized_views(),
                reference,
                "{label} diverged from {}",
                labels[0]
            );
        }
    }
    let pruned_totals = engines[3].totals();
    for eng in &engines[4..] {
        assert_eq!(
            eng.totals().deterministic_fields(),
            pruned_totals.deterministic_fields()
        );
    }
    assert!(
        pruned_totals.skipped > 0,
        "the XMark stream must exercise independence pruning"
    );
    assert!(
        pruned_totals.reevaluated > 0,
        "the XMark stream must exercise re-evaluation"
    );
}

/// Applies `u` to `doc` in place and returns the change flag of
/// `apply_pending_list`, after checking the flag's promise: when it says
/// "no change", the serialized document is byte-identical. `None` when the
/// update fails to evaluate (the document is then left as it was).
fn apply_checked(doc: &mut Tree, u: &Update) -> Option<bool> {
    let before = doc.to_xml();
    let root = doc.root;
    let upl = evaluate_update(&mut doc.store, root, u).ok()?;
    let changed = apply_pending_list(&mut doc.store, &upl);
    if !changed {
        assert_eq!(
            doc.to_xml(),
            before,
            "a no-change flag altered the document"
        );
    }
    Some(changed)
}

/// The change flag never hides a change: rounds of the 31 XMark updates
/// (after their first round most of them do nothing) on several documents,
/// and random corpus updates on generated valid instances.
#[test]
fn no_change_flag_leaves_the_document_byte_identical() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xml_qui::schema::{generate_valid, random_update, Corpus, GenValidConfig};

    let updates = all_updates();
    let mut flags = [0usize; 2];
    for seed in [1u64, 7, 4242] {
        let mut doc = xmark_document(3_000, seed);
        for _ in 0..3 {
            for u in &updates {
                let changed = apply_checked(&mut doc, &u.update).expect("XMark updates evaluate");
                flags[usize::from(changed)] += 1;
            }
        }
    }
    assert!(
        flags[0] > 0 && flags[1] > 0,
        "the XMark rounds must report both outcomes: {flags:?}"
    );

    let mut corpus_flags = [0usize; 2];
    for (si, schema) in Corpus::seeded(0xF1A6, 8).iter().enumerate() {
        let dtd = schema.dtd();
        let labels = schema.labels();
        let mut rng = StdRng::seed_from_u64(0xC4A6 ^ si as u64);
        let mut doc = generate_valid(&dtd, &GenValidConfig::with_target(200), si as u64);
        for _ in 0..cases(8) as usize * 5 {
            let u = parse_update(&random_update(&schema.start, &labels, &mut rng)).unwrap();
            if let Some(changed) = apply_checked(&mut doc, &u) {
                corpus_flags[usize::from(changed)] += 1;
            }
        }
    }
    assert!(
        corpus_flags[0] > 0 && corpus_flags[1] > 0,
        "the corpus updates must report both outcomes: {corpus_flags:?}"
    );
}

/// What a view of `q` over `doc` serves when its results are deep-copied
/// under one `<view>` element and serialized: the oracle for
/// `MaintainedView::serialized`, which writes from the snapshot instead.
fn copied_view(doc: &Tree, q: &Query) -> String {
    let mut work = doc.snapshot();
    let root = work.root;
    let results = evaluate_query(&mut work.store, root, q).unwrap();
    let mut store = Store::new();
    let entries = results
        .iter()
        .map(|&n| store.deep_copy_from(&work.store, n))
        .collect();
    let view = store.new_element("view", entries);
    serialize_node(&store, view)
}

/// All 36 XMark views plus views of text nodes, constructed elements, the
/// empty sequence and the root serve their copied form, before and after
/// every batch of a stream that rebuilds the document.
#[test]
fn views_serve_the_bytes_of_their_copied_results() {
    let dtd = xmark_dtd();
    let mut eng = MaintenanceEngine::new(
        &dtd,
        xmark_document(800, 3),
        MaintainStrategy::Pruned,
        Jobs::Fixed(2),
    );
    for v in all_views() {
        eng.register_view(v.name, &v.query).unwrap();
    }
    let extra = [
        ("text", "//person/name/text()"),
        (
            "constructed",
            "for $p in /people/person return <entry>{$p/name}</entry>",
        ),
        ("empty", "/people/closed_auction"),
        ("root", "/self::node()"),
    ];
    for (name, q) in extra {
        eng.register_view(name, &parse_query(q).unwrap()).unwrap();
    }
    let assert_copied_form = |eng: &MaintenanceEngine<Dtd>, when: &str| {
        for v in eng.views() {
            let served = v.serialized();
            assert_eq!(
                served,
                copied_view(eng.doc(), &v.query),
                "{} {when}",
                v.name
            );
        }
    };
    assert_copied_form(&eng, "at registration");
    let served = eng.serialized_views();
    assert!(served[36].len() > "<view></view>".len() && !served[36][6..].starts_with('<'));
    assert!(served[37].contains("<entry><name>"));
    assert_eq!(served[38], "<view/>");
    assert_eq!(served[39], format!("<view>{}</view>", eng.doc().to_xml()));

    let updates = all_updates();
    let mut rebuilt = false;
    for round in 0..8 {
        for u in &updates {
            let len = eng.doc().store.len();
            eng.apply_batch(std::slice::from_ref(&u.update)).unwrap();
            rebuilt |= eng.doc().store.len() < len;
            assert_copied_form(&eng, &format!("after {} in round {round}", u.name));
        }
        if rebuilt {
            return;
        }
    }
    panic!("the stream never rebuilt the document");
}
