//! End-to-end tests of the two "schema periphery" extensions: the attribute
//! encoding (§7) and DTD inference from document corpora, including their
//! interplay with the independence analysis.

use proptest::prelude::*;
use xml_qui::baseline::TypeSetAnalyzer;
use xml_qui::core::AnalysisSession;
use xml_qui::schema::infer::infer_dtd;
use xml_qui::schema::{generate_valid, with_attributes, AttrDecl, Dtd, GenValidConfig};
use xml_qui::xmlstore::{parse_xml_keep_attributes, serialize_tree_with_attributes, Tree};
use xml_qui::xquery::{dynamic_independent, parse_query, parse_update, DynamicOutcome};

fn catalog_dtd() -> Dtd {
    let base = Dtd::parse_compact(
        "catalog -> item* ; item -> (name, price?) ; name -> #PCDATA ; price -> #PCDATA",
        "catalog",
    )
    .unwrap();
    with_attributes(
        &base,
        &[
            AttrDecl::new("item", "id", true),
            AttrDecl::new("item", "lang", false),
            AttrDecl::new("name", "style", false),
        ],
    )
    .unwrap()
}

fn catalog_doc() -> Tree {
    parse_xml_keep_attributes(
        r#"<catalog>
             <item id="i1" lang="en"><name style="plain">chair</name><price>10</price></item>
             <item id="i2"><name>table</name></item>
           </catalog>"#,
    )
    .unwrap()
}

#[test]
fn attribute_documents_validate() {
    let dtd = catalog_dtd();
    let doc = catalog_doc();
    assert!(dtd.validate(&doc).is_ok());
}

#[test]
fn attribute_queries_evaluate_against_the_encoding() {
    let doc = catalog_doc();
    let q = parse_query("//item/@id").unwrap();
    let ids = xml_qui::xquery::dynamic::snapshot_query(&doc, &q).unwrap();
    assert_eq!(ids.len(), 2);
    assert!(ids[0].contains("i1") && ids[1].contains("i2"), "{ids:?}");
}

#[test]
fn attribute_independence_is_detected_by_chains() {
    let dtd = catalog_dtd();
    let analyzer = AnalysisSession::new(&dtd);
    let q = parse_query("//item/@id").unwrap();

    // Touching a *different* attribute of the same element is independent —
    // precisely the kind of pair the type-set baseline cannot separate once
    // both land on the shared `item` type.
    let u_lang = parse_update("delete //item/@lang").unwrap();
    assert!(analyzer.check(&q, &u_lang).is_independent());

    // Touching the queried attribute, or the whole element, is dependent.
    let u_id = parse_update("delete //item/@id").unwrap();
    assert!(!analyzer.check(&q, &u_id).is_independent());
    let u_item = parse_update("delete //item").unwrap();
    assert!(!analyzer.check(&q, &u_item).is_independent());

    // And the verdicts are dynamically consistent on the sample document.
    let doc = catalog_doc();
    assert_eq!(
        dynamic_independent(&doc, &q, &u_lang).unwrap(),
        DynamicOutcome::UnchangedOnThisTree
    );
    assert_eq!(
        dynamic_independent(&doc, &q, &u_item).unwrap(),
        DynamicOutcome::Changed
    );
}

#[test]
fn chains_beat_types_on_attributes_of_sibling_elements() {
    // name/@style and item/@id live under different elements; deleting one
    // is independent of querying the other. The chain analysis sees it.
    let dtd = catalog_dtd();
    let q = parse_query("//name/@style").unwrap();
    let u = parse_update("delete //item/@lang").unwrap();
    assert!(AnalysisSession::new(&dtd).check(&q, &u).is_independent());
    // (The type-set baseline may or may not: @lang and @style are distinct
    // types, but the traversed set of //name/@style includes item. We only
    // assert the chain analysis, plus baseline soundness.)
    if TypeSetAnalyzer::new(&dtd).independent(&q, &u) {
        // If the baseline also claims independence, that must at least be
        // dynamically consistent.
        let doc = catalog_doc();
        assert_eq!(
            dynamic_independent(&doc, &q, &u).unwrap(),
            DynamicOutcome::UnchangedOnThisTree
        );
    }
}

#[test]
fn attribute_roundtrip_through_serializer_preserves_validation() {
    let dtd = catalog_dtd();
    let doc = catalog_doc();
    let xml = serialize_tree_with_attributes(&doc);
    assert!(xml.contains(r#"id="i1""#), "{xml}");
    assert!(!xml.contains("<@"), "{xml}");
    let back = parse_xml_keep_attributes(&xml).unwrap();
    assert!(dtd.validate(&back).is_ok());
    assert!(doc.value_equiv(&back));
}

#[test]
fn generated_attribute_documents_validate_and_roundtrip() {
    let dtd = catalog_dtd();
    for seed in 0..10u64 {
        let doc = generate_valid(&dtd, &GenValidConfig::with_target(120), seed);
        assert!(dtd.validate(&doc).is_ok(), "seed {seed}");
        let xml = serialize_tree_with_attributes(&doc);
        let back = parse_xml_keep_attributes(&xml).unwrap();
        assert!(
            dtd.validate(&back).is_ok(),
            "seed {seed}: roundtrip broke validity"
        );
    }
}

// ---------------------------------------------------------------------------
// DTD inference
// ---------------------------------------------------------------------------

/// The schemas used as generators for the inference properties.
fn source_schemas() -> Vec<Dtd> {
    vec![
        Dtd::parse_compact(
            "bib -> book* ; book -> (title, author*, price?) ; title -> #PCDATA ; \
             author -> (first?, last) ; first -> #PCDATA ; last -> #PCDATA ; price -> #PCDATA",
            "bib",
        )
        .unwrap(),
        Dtd::parse_compact(
            "site -> (regions, people?) ; regions -> item* ; item -> (name, mail*) ; \
             mail -> (from, to) ; from -> #PCDATA ; to -> #PCDATA ; name -> #PCDATA ; \
             people -> person* ; person -> (name, phone?) ; phone -> #PCDATA",
            "site",
        )
        .unwrap(),
        // A recursive schema: inference still terminates and covers the corpus.
        Dtd::parse_compact(
            "r -> part* ; part -> (label, part*) ; label -> #PCDATA",
            "r",
        )
        .unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Every document of a corpus is valid w.r.t. the DTD inferred from it.
    #[test]
    fn corpus_is_always_covered(schema_idx in 0usize..3, base_seed in 0u64..1000) {
        let dtd = &source_schemas()[schema_idx];
        let corpus: Vec<Tree> = (0..5)
            .map(|i| generate_valid(dtd, &GenValidConfig::with_target(80), base_seed * 7 + i))
            .collect();
        let inferred = infer_dtd(&corpus).unwrap();
        for (i, doc) in corpus.iter().enumerate() {
            prop_assert!(
                inferred.dtd.validate(doc).is_ok(),
                "schema {schema_idx}, document {i} rejected by its own inferred DTD"
            );
        }
    }

    /// The compact rendering of an inferred DTD re-parses to a schema that
    /// still covers the corpus (round-trip through the rule syntax).
    #[test]
    fn inferred_rules_roundtrip(schema_idx in 0usize..3, base_seed in 0u64..1000) {
        let dtd = &source_schemas()[schema_idx];
        let corpus: Vec<Tree> = (0..3)
            .map(|i| generate_valid(dtd, &GenValidConfig::with_target(60), base_seed * 11 + i))
            .collect();
        let inferred = infer_dtd(&corpus).unwrap();
        let reparsed = Dtd::parse_compact(&inferred.to_compact(), &inferred.root).unwrap();
        for doc in &corpus {
            prop_assert!(reparsed.validate(doc).is_ok());
        }
    }
}

#[test]
fn inference_feeds_the_independence_analysis() {
    // Infer a schema from generated bibliography documents, then check that
    // the paper's q2/u2 independence is still detected against the inferred
    // schema (it preserves the fact that titles never occur under authors).
    let source = &source_schemas()[0];
    let corpus: Vec<Tree> = (0..15)
        .map(|seed| generate_valid(source, &GenValidConfig::with_target(150), seed))
        .collect();
    let inferred = infer_dtd(&corpus).unwrap();
    let analyzer = AnalysisSession::new(&inferred.dtd);
    let q = parse_query("//title").unwrap();
    let u = parse_update("for $x in //book return insert <author/> into $x").unwrap();
    assert!(analyzer.check(&q, &u).is_independent());
    let q2 = parse_query("//author//last").unwrap();
    assert!(!analyzer.check(&q2, &u).is_independent());
}

#[test]
fn inference_handles_attribute_encoded_corpora() {
    let dtd = catalog_dtd();
    let corpus: Vec<Tree> = (0..10)
        .map(|seed| generate_valid(&dtd, &GenValidConfig::with_target(100), seed))
        .collect();
    let inferred = infer_dtd(&corpus).unwrap();
    // The inferred schema has the @-types whenever the corpus exercised them.
    if corpus
        .iter()
        .any(|doc| serialize_tree_with_attributes(doc).contains("id="))
    {
        assert!(inferred.dtd.sym("@id").is_some());
    }
    for doc in &corpus {
        assert!(inferred.dtd.validate(doc).is_ok());
    }
}
