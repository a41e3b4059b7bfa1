//! Workload-level integration tests: on the XMark benchmark, the chain
//! analysis must be sound w.r.t. the dynamic ground truth and at least as
//! precise as the type-set baseline; on the schema corpus (hand fixtures
//! plus seeded generated shapes), the chain analysis must stay sound
//! against dynamically checked generated instances of every schema.
//!
//! The corpus sweep scales with `QUI_PROPTEST_CASES` (the nightly workflow
//! raises it) and is deterministic per (schema, case) pair.

use rand::rngs::StdRng;
use rand::SeedableRng;
use xml_qui::baseline::TypeSetAnalyzer;
use xml_qui::core::AnalysisSession;
use xml_qui::schema::{generate_valid, random_query, random_update, Corpus, GenValidConfig};
use xml_qui::workloads::{all_updates, all_views, ground_truth_matrix, xmark_dtd};
use xml_qui::xquery::dynamic::dynamic_independent;
use xml_qui::xquery::{parse_query, parse_update};

#[test]
fn xmark_chain_analysis_is_sound_and_dominates_the_baseline() {
    // A subset keeps the test under a few seconds; the benches sweep the
    // full 31×36 matrix.
    let views: Vec<_> = all_views()
        .into_iter()
        .filter(|v| ["q1", "q5", "q13", "q18", "A1", "A3", "A7", "B3", "B7"].contains(&v.name))
        .collect();
    let updates: Vec<_> = all_updates()
        .into_iter()
        .filter(|u| ["UA2", "UA7", "UB3", "UI2", "UN1", "UP1", "UP5"].contains(&u.name))
        .collect();
    let truth = ground_truth_matrix(&views, &updates, 3_000, &[1, 2]);

    let dtd = xmark_dtd();
    let chains = AnalysisSession::new(&dtd);
    let baseline = TypeSetAnalyzer::new(&dtd);

    let mut chains_detected = 0usize;
    let mut types_detected = 0usize;
    for u in &updates {
        for v in &views {
            let chain_verdict = chains.check(&v.query, &u.update).is_independent();
            let type_verdict = baseline.independent(&v.query, &u.update);
            let empirically_independent = truth[&(u.name.to_string(), v.name.to_string())];
            // Soundness of both static analyses.
            assert!(
                !chain_verdict || empirically_independent,
                "chain analysis unsound on ({}, {})",
                u.name,
                v.name
            );
            assert!(
                !type_verdict || empirically_independent,
                "type-set baseline unsound on ({}, {})",
                u.name,
                v.name
            );
            if chain_verdict {
                chains_detected += 1;
            }
            if type_verdict {
                types_detected += 1;
            }
        }
    }
    // The headline shape of Fig. 3.b: chains detect at least as many
    // independences as types, and strictly more on this subset.
    assert!(
        chains_detected > types_detected,
        "chains {chains_detected} vs types {types_detected}"
    );
}

#[test]
fn corpus_chain_analysis_is_sound_on_generated_instances() {
    // For every corpus schema, draw seeded query/update pairs from the
    // corpus generators, then refute each *static* independence claim
    // against the dynamic check (Definition 2.4) on several generated valid
    // instances.
    // A static "independent" with a dynamic "changed" on any instance is a
    // soundness bug, whatever the schema shape.
    let pairs_per_schema: usize = std::env::var("QUI_PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .map(|c: usize| (c / 8).max(6))
        .unwrap_or(6);
    let mut independents = 0usize;
    let mut dependents = 0usize;
    for (si, schema) in Corpus::seeded(0xBEEF, 2).iter().enumerate() {
        let dtd = schema.dtd();
        let labels = schema.labels();
        let analyzer = AnalysisSession::new(&dtd);
        // Instance pool: three seeded valid documents of ~400 nodes each.
        let docs: Vec<_> = (0..3)
            .map(|d| generate_valid(&dtd, &GenValidConfig::with_target(400), 0x0D0C + d))
            .collect();
        let mut rng = StdRng::seed_from_u64(0x50FA ^ si as u64);
        for _ in 0..pairs_per_schema {
            let q_src = random_query(&labels, &mut rng);
            let u_src = random_update(&schema.start, &labels, &mut rng);
            let q = parse_query(&q_src).expect("corpus query parses");
            let u = parse_update(&u_src).expect("corpus update parses");
            let verdict = analyzer.check(&q, &u).is_independent();
            if verdict {
                independents += 1;
            } else {
                dependents += 1;
            }
            if !verdict {
                continue; // only independence claims are refutable
            }
            for (di, doc) in docs.iter().enumerate() {
                let outcome = dynamic_independent(doc, &q, &u)
                    .unwrap_or_else(|e| panic!("eval of ({q_src}, {u_src}): {e:?}"));
                assert!(
                    !outcome.is_changed(),
                    "chain analysis unsound on corpus schema {} ({}): ({q_src}, {u_src}) \
                     declared independent but instance #{di} changed",
                    schema.name,
                    schema.shape
                );
            }
        }
    }
    // The sweep must exercise both verdicts, or it pins nothing.
    assert!(
        independents > 0 && dependents > 0,
        "degenerate corpus sweep: {independents} independent / {dependents} dependent"
    );
}

#[test]
fn inserted_constructor_roots_are_visible_to_predicates() {
    // Regression: UI1 inserts `<bidder>…</bidder>` elements and B8 filters
    // open auctions on a `[bidder]` predicate, so the pair is dependent (an
    // auction without bidders gains one and enters the view). The element
    // construction rule used to record only the constructor's *content*
    // chains — never the constructed root's own chain — which made the
    // inserted `bidder` node invisible to the predicate's used chain and the
    // pair was wrongly declared independent.
    let dtd = xmark_dtd();
    let chains = AnalysisSession::new(&dtd);
    let ui1 = all_updates().into_iter().find(|u| u.name == "UI1").unwrap();
    let b8 = all_views().into_iter().find(|v| v.name == "B8").unwrap();
    assert!(
        !chains.check(&b8.query, &ui1.update).is_independent(),
        "insert-before of a constructed <bidder> must conflict with B8's [bidder] predicate"
    );
}
