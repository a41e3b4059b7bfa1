//! The label-reach summary prunes descendant walks without changing what
//! they select.
//!
//! A frozen store carries a summary (row `a`: every label found strictly
//! below some node labelled `a`) that inserts and renames keep a superset
//! of and deletes leave stale. A descendant walk skips a subtree whose
//! root's row lacks the label it looks for. The oracle is the same query on
//! an unfrozen `deep_copy_from` copy of the document, which has no summary
//! and so walks everything: the two must serialize equal after every step
//! of an update stream. Each stream also checks the summary's invariant on
//! its own: no reachable node is denied a label that occurs below it.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xml_qui::core::Jobs;
use xml_qui::schema::{generate_valid, random_query, random_update, Corpus, GenValidConfig};
use xml_qui::workloads::{
    all_updates, all_views, xmark_document, xmark_dtd, MaintainStrategy, MaintenanceEngine,
};
use xml_qui::xmlstore::{parse_xml, serialize_node, Store, Tree};
use xml_qui::xquery::{evaluate_query, parse_query, parse_update, run_update, Query};

/// `q`'s result sequence over `doc`, serialized. Constructed nodes are
/// allocated in `doc`'s store, outside its tree.
fn serialized(doc: &mut Tree, q: &Query) -> Vec<String> {
    let root = doc.root;
    evaluate_query(&mut doc.store, root, q)
        .unwrap()
        .into_iter()
        .map(|n| serialize_node(&doc.store, n))
        .collect()
}

/// The document's reachable tree copied into a fresh, unfrozen store: no
/// summary, so every walk is a full one.
fn unsummarized(doc: &Tree) -> Tree {
    let mut store = Store::new();
    let root = store.deep_copy_from(&doc.store, doc.root);
    Tree::new(store, root)
}

/// Asserts that `doc` has a summary and that it denies no reachable node a
/// label that occurs strictly below it.
fn assert_summary_sound(doc: &Tree) {
    let store = &doc.store;
    assert!(
        store.column_bytes().reach > 0,
        "a frozen store has a summary"
    );
    for n in store.subtree_iter(doc.root) {
        let label = store.sym(n).unwrap_or(xml_qui::xmlstore::TEXT_SYM);
        let mut up = store.parent(n);
        while let Some(a) = up {
            assert!(
                store.may_have_below(a, label),
                "{a:?} is denied {label:?}, found below it at {n:?}"
            );
            up = store.parent(a);
        }
    }
}

/// Six rounds of the 31 XMark updates, each round a seeded permutation,
/// through a `MaintenanceEngine` over `xmark_document(6_000, seed)`. Its
/// document stays frozen (and summarized) between batches and is rebuilt
/// into a fresh store whenever it doubles: after every batch, all 36 views
/// select on it what they select on an unsummarized copy.
fn xmark_update_stream_selects_what_an_unsummarized_copy_selects(seed: u64) {
    let dtd = xmark_dtd();
    let views = all_views();
    let updates = all_updates();
    let rounds = 6;
    let mut comparisons = 0usize;
    let mut eng = MaintenanceEngine::new(
        &dtd,
        xmark_document(6_000, seed),
        MaintainStrategy::Pruned,
        Jobs::Fixed(1),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..rounds {
        let mut order: Vec<usize> = (0..updates.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        for ui in order {
            eng.apply_batch(std::slice::from_ref(&updates[ui].update))
                .unwrap();
            let doc = eng.doc();
            assert_summary_sound(doc);
            let mut copy = unsummarized(doc);
            for v in &views {
                assert_eq!(
                    serialized(&mut doc.snapshot(), &v.query),
                    serialized(&mut copy, &v.query),
                    "{} after {} (seed {seed})",
                    v.name,
                    updates[ui].name
                );
                comparisons += 1;
            }
        }
    }
    assert_eq!(comparisons, rounds * updates.len() * views.len());
}

#[test]
fn xmark_update_stream_at_seed_1_selects_what_an_unsummarized_copy_selects() {
    xmark_update_stream_selects_what_an_unsummarized_copy_selects(1);
}

#[test]
fn xmark_update_stream_at_seed_3_selects_what_an_unsummarized_copy_selects() {
    xmark_update_stream_selects_what_an_unsummarized_copy_selects(3);
}

#[test]
fn xmark_update_stream_at_seed_7_selects_what_an_unsummarized_copy_selects() {
    xmark_update_stream_selects_what_an_unsummarized_copy_selects(7);
}

/// Seeded random updates (deletes, inserts, renames, replaces) applied in
/// place on frozen `generate_valid` instances of the corpus schemas, each
/// followed by a freeze: seeded random queries, plus named descendant
/// steps, `text()` tests and a several-node `let` context, select on the
/// summarized document what they select on an unsummarized copy.
#[test]
fn corpus_random_updates_select_what_an_unsummarized_copy_selects() {
    let mut comparisons = 0usize;
    let mut kept = 0usize;
    for (si, schema) in Corpus::seeded(1, 8).iter().enumerate() {
        let dtd = schema.dtd();
        let labels = schema.labels();
        let mut doc = generate_valid(&dtd, &GenValidConfig::with_target(300), 0x5EED + si as u64);
        doc.freeze();
        let mut rng = StdRng::seed_from_u64(0x7EAC ^ si as u64);
        let mut queries: Vec<Query> = (0..12)
            .map(|_| parse_query(&random_query(&labels, &mut rng)).unwrap())
            .collect();
        for _ in 0..4 {
            let a = &labels[rng.random_range(0..labels.len())];
            let b = &labels[rng.random_range(0..labels.len())];
            for src in [
                format!("for $x in //{a} return $x/descendant::{b}"),
                format!("//{a}/descendant-or-self::{b}"),
                format!("//{a}//text()"),
                format!("let $x := //{a} return $x//{b}"),
            ] {
                queries.push(parse_query(&src).unwrap());
            }
        }
        for _ in 0..16 {
            let u = parse_update(&random_update(&schema.start, &labels, &mut rng)).unwrap();
            let before = doc.store.column_bytes().reach;
            if run_update(&mut doc, &u).is_err() {
                continue;
            }
            kept += usize::from(before > 0 && doc.store.column_bytes().reach > 0);
            doc.freeze();
            assert_summary_sound(&doc);
            let mut copy = unsummarized(&doc);
            for q in &queries {
                assert_eq!(
                    serialized(&mut doc.snapshot(), q),
                    serialized(&mut copy, q),
                    "`{q}` after `{u}` on {}",
                    schema.name
                );
                comparisons += 1;
            }
        }
    }
    assert!(comparisons > 1_000, "{comparisons} comparisons");
    assert!(
        kept > 20,
        "only {kept} updates kept the summary: upkeep untested"
    );
}

/// A document with more distinct labels than the summary's cap gets no
/// summary; its queries answer as on the unfrozen document.
#[test]
fn a_document_past_the_label_cap_answers_unpruned() {
    let mut xml = String::from("<doc>");
    for i in 0..1_100 {
        xml.push_str(&format!("<t{i}><t{}>x</t{}></t{i}>", i + 1, i + 1));
    }
    xml.push_str("</doc>");
    let mut plain = parse_xml(&xml).unwrap();
    let mut frozen = plain.clone();
    frozen.freeze();
    assert_eq!(frozen.store.column_bytes().reach, 0);
    for src in ["//t5", "//t1099//text()", "//t7/descendant::t8", "//zzz"] {
        let q = parse_query(src).unwrap();
        assert_eq!(
            serialized(&mut frozen, &q),
            serialized(&mut plain, &q),
            "{src}"
        );
    }
}
