//! Property-based soundness tests: whenever the static analysis declares a
//! pair independent, no generated valid document may exhibit a change of the
//! query result under the update (Theorem 4.2 / 5.1), and the two inference
//! engines must never disagree in the unsound direction.

use proptest::prelude::*;
use xml_qui::core::{AnalysisSession, EngineKind, SessionBuilder};
use xml_qui::schema::{generate_valid, Dtd, GenValidConfig};
use xml_qui::xquery::{dynamic_independent, parse_query, parse_update, DynamicOutcome};

/// A small pool of schemas exercising recursion, optional content and mixed
/// content.
fn schemas() -> Vec<Dtd> {
    vec![
        Dtd::parse_compact("doc -> (a|b)* ; a -> c? ; b -> (c, d?) ; c -> #PCDATA ; d -> EMPTY", "doc").unwrap(),
        Dtd::parse_compact(
            "bib -> book* ; book -> (title, author*, price?) ; title -> #PCDATA ; author -> (first?, last) ; first -> #PCDATA ; last -> #PCDATA ; price -> #PCDATA",
            "bib",
        )
        .unwrap(),
        Dtd::parse_compact(
            "r -> a ; a -> (b, c)* ; b -> a? ; c -> #PCDATA",
            "r",
        )
        .unwrap(),
    ]
}

/// Query templates instantiated against each schema (those that reference
/// labels absent from a schema simply select nothing, which is fine).
const QUERY_POOL: &[&str] = &[
    "//a",
    "//c",
    "//b//c",
    "//a//c",
    "//title",
    "//author//last",
    "/book/title",
    "for $x in //b return $x/c",
    "for $x in //book return <entry>{$x/title}</entry>",
    "//c/parent::node()",
    "//b/following-sibling::node()",
    "if (//d) then //c else ()",
];

const UPDATE_POOL: &[&str] = &[
    "delete //b//c",
    "delete //c",
    "delete //price",
    "for $x in //b return insert <d/> into $x",
    "for $x in //book return insert <author><last>X</last></author> into $x",
    "for $x in //a return rename $x as b",
    "for $x in //title return replace $x with <title>new</title>",
    "delete //author",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness: static independence implies no observable change on any
    /// generated instance.
    #[test]
    fn static_independence_is_dynamically_sound(
        schema_idx in 0usize..3,
        q_idx in 0usize..QUERY_POOL.len(),
        u_idx in 0usize..UPDATE_POOL.len(),
        seed in 0u64..50,
    ) {
        let dtd = &schemas()[schema_idx];
        let q = parse_query(QUERY_POOL[q_idx]).unwrap();
        let u = parse_update(UPDATE_POOL[u_idx]).unwrap();
        let analyzer = AnalysisSession::new(dtd);
        let verdict = analyzer.check(&q, &u);
        if verdict.is_independent() {
            let doc = generate_valid(dtd, &GenValidConfig::with_target(300), seed);
            // Updates whose target selects several nodes raise a dynamic
            // error for rename/replace; those runs tell us nothing.
            if let Ok(outcome) = dynamic_independent(&doc, &q, &u) {
                prop_assert_eq!(
                    outcome,
                    DynamicOutcome::UnchangedOnThisTree,
                    "statically independent pair changed on seed {}: q = {}, u = {}",
                    seed,
                    QUERY_POOL[q_idx],
                    UPDATE_POOL[u_idx]
                );
            }
        }
    }

    /// The CDAG engine is an over-approximation of the explicit engine: it
    /// may miss independences the explicit engine finds, but it must never
    /// claim an independence the explicit engine rejects... and on this pool
    /// they should in fact agree exactly.
    #[test]
    fn engines_agree_on_the_pool(
        schema_idx in 0usize..3,
        q_idx in 0usize..QUERY_POOL.len(),
        u_idx in 0usize..UPDATE_POOL.len(),
    ) {
        let dtd = &schemas()[schema_idx];
        let q = parse_query(QUERY_POOL[q_idx]).unwrap();
        let u = parse_update(UPDATE_POOL[u_idx]).unwrap();
        let explicit = SessionBuilder::new(dtd).engine(EngineKind::Explicit).build();
        let cdag = SessionBuilder::new(dtd).engine(EngineKind::Cdag).build();
        let e = explicit.check(&q, &u).is_independent();
        let c = cdag.check(&q, &u).is_independent();
        prop_assert_eq!(e, c, "engines disagree on q = {}, u = {}", QUERY_POOL[q_idx], UPDATE_POOL[u_idx]);
    }

    /// Generated documents are always valid and survive an XML round-trip.
    #[test]
    fn generated_documents_are_valid_and_roundtrip(
        schema_idx in 0usize..3,
        seed in 0u64..100,
        target in 20usize..400,
    ) {
        let dtd = &schemas()[schema_idx];
        let doc = generate_valid(dtd, &GenValidConfig::with_target(target), seed);
        prop_assert!(dtd.validate(&doc).is_ok());
        let xml = doc.to_xml();
        let back = xml_qui::xmlstore::parse_xml(&xml).unwrap();
        prop_assert!(doc.value_equiv(&back));
    }
}
