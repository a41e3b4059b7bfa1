//! Integration tests reproducing every worked example of the paper across
//! crates: parsing, validation, chain inference and the independence verdict.

use xml_qui::baseline::TypeSetAnalyzer;
use xml_qui::core::{AnalysisSession, EngineKind, SessionBuilder};
use xml_qui::schema::Dtd;
use xml_qui::xmlstore::parse_xml;
use xml_qui::xquery::{dynamic_independent, parse_query, parse_update, DynamicOutcome};

fn figure1() -> Dtd {
    Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap()
}

fn bib() -> Dtd {
    Dtd::parse_compact(
        "bib -> book* ; book -> (title, author*, price?) ; title -> #PCDATA ; \
         author -> (first?, last) ; first -> #PCDATA ; last -> #PCDATA ; price -> #PCDATA",
        "bib",
    )
    .unwrap()
}

#[test]
fn figure_1_document_validates_and_types() {
    let d = figure1();
    let t = parse_xml("<doc><a><c/></a><a><c/></a><b><c/></b><a><c/></a></doc>").unwrap();
    let typing = d.validate(&t).expect("Figure 1 document is valid");
    assert_eq!(typing.len(), 9);
}

#[test]
fn introduction_example_q1_u1() {
    // q1 = //a//c, u1 = delete //b//c: independent thanks to the schema.
    let d = figure1();
    let q1 = parse_query("//a//c").unwrap();
    let u1 = parse_update("delete //b//c").unwrap();
    assert!(AnalysisSession::new(&d).check(&q1, &u1).is_independent());
    // The schema-less / type-set views of the world miss it.
    assert!(!TypeSetAnalyzer::new(&d).independent(&q1, &u1));
    // And dynamically the query result indeed never changes.
    let t = parse_xml("<doc><a><c/></a><b><c/></b><a><c/></a></doc>").unwrap();
    assert_eq!(
        dynamic_independent(&t, &q1, &u1).unwrap(),
        DynamicOutcome::UnchangedOnThisTree
    );
}

#[test]
fn introduction_example_q2_u2() {
    let d = bib();
    let q2 = parse_query("//title").unwrap();
    let u2 = parse_update("for $x in //book return insert <author/> into $x").unwrap();
    assert!(AnalysisSession::new(&d).check(&q2, &u2).is_independent());
    assert!(!TypeSetAnalyzer::new(&d).independent(&q2, &u2));
}

#[test]
fn section3_nested_constructor_example() {
    // Inserting <author><first>…</first><second>…</second></author> must be
    // flagged as affecting //author//first but not //title.
    let d = bib();
    let u = parse_update(
        "for $x in //book return insert <author><first>Umberto</first><last>Eco</last></author> into $x",
    )
    .unwrap();
    let a = AnalysisSession::new(&d);
    assert!(a
        .check(&parse_query("//title").unwrap(), &u)
        .is_independent());
    assert!(!a
        .check(&parse_query("//author//first").unwrap(), &u)
        .is_independent());
    assert!(!a
        .check(&parse_query("//author//last").unwrap(), &u)
        .is_independent());
}

#[test]
fn section5_finite_analysis_example() {
    // /descendant::b vs delete /descendant::c over d1 is dependent and needs
    // k = k_q + k_u to be seen.
    let d1 = Dtd::builder()
        .rule("r", "a")
        .rule("a", "(b, c, e)*")
        .rule("b", "f")
        .rule("c", "f")
        .rule("e", "f")
        .rule("f", "(a, g)")
        .rule("g", "EMPTY")
        .build("r")
        .unwrap();
    let q = parse_query("$root/descendant::b").unwrap();
    let u = parse_update("delete $root/descendant::c").unwrap();
    let v = AnalysisSession::new(&d1).check(&q, &u);
    assert_eq!(v.k, 2);
    assert!(!v.is_independent());
}

#[test]
fn both_engines_agree_on_paper_examples() {
    let d = figure1();
    let pairs = [
        ("//a//c", "delete //b//c", true),
        ("//c", "delete //b//c", false),
        ("//a//c", "delete //a", false),
        ("//b", "for $x in /a return insert <c/> into $x", true),
    ];
    for (qs, us, expected) in pairs {
        let q = parse_query(qs).unwrap();
        let u = parse_update(us).unwrap();
        for engine in [EngineKind::Explicit, EngineKind::Cdag] {
            let session = SessionBuilder::new(&d).engine(engine).build();
            assert_eq!(
                session.check(&q, &u).is_independent(),
                expected,
                "pair ({qs}, {us}) with engine {engine:?}"
            );
        }
    }
}

#[test]
fn extended_dtd_analysis_distinguishes_types_with_same_label() {
    // §7: with an EDTD, two `item` types with different contexts can be told
    // apart. Deleting the price under new items is independent of a query
    // over old items.
    let types = Dtd::parse_compact(
        "shop -> (new, old) ; new -> item#1* ; old -> item#2* ; item#1 -> price ; item#2 -> note? ; price -> #PCDATA ; note -> #PCDATA",
        "shop",
    )
    .unwrap();
    let edtd = xml_qui::schema::Edtd::with_indexed_types(types);
    let analyzer = AnalysisSession::new(&edtd);
    let q = parse_query("/old/item").unwrap();
    let u = parse_update("delete /new/item/price").unwrap();
    assert!(analyzer.check(&q, &u).is_independent());
    let q2 = parse_query("/new/item").unwrap();
    assert!(!analyzer.check(&q2, &u).is_independent());
}
