//! Properties of chain-based document projection (Theorem 3.2 made
//! operational): evaluating a query on its projection gives the same result
//! as on the full document — on every XMark view, across the schema corpus,
//! and on documents deeper than the chain engine's grid — and selective
//! queries prune substantial parts of the document.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xml_qui::core::ChainProjector;
use xml_qui::schema::{generate_valid, random_query, Corpus, Dtd, GenValidConfig};
use xml_qui::workloads::{all_views, xmark_document, xmark_dtd};
use xml_qui::xmlstore::{parse_xml, Tree};
use xml_qui::xquery::dynamic::snapshot_query;
use xml_qui::xquery::{parse_query, Query};

fn bib_dtd() -> Dtd {
    Dtd::parse_compact(
        "bib -> book* ; book -> (title, author*, price?) ; title -> #PCDATA ; \
         author -> (first?, last) ; first -> #PCDATA ; last -> #PCDATA ; price -> #PCDATA",
        "bib",
    )
    .unwrap()
}

const QUERY_POOL: &[&str] = &[
    "//title",
    "//book/author/last",
    "//book/price",
    "//author",
    "for $b in //book return ($b/title, $b/price)",
    "//first/parent::author",
    "//title/following-sibling::author",
    "for $b in //book[author] return $b/title",
    "if (//price) then //title else //author/last",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// Query results are preserved on the chain-based projection.
    #[test]
    fn projection_preserves_results(seed in 0u64..500, qi in 0usize..QUERY_POOL.len()) {
        let dtd = bib_dtd();
        let projector = ChainProjector::new(&dtd);
        let doc = generate_valid(&dtd, &GenValidConfig::with_target(200), seed);
        let q = parse_query(QUERY_POOL[qi]).unwrap();
        let projected = projector.project_for_query(&doc, &q);
        prop_assert!(projected.size() <= doc.size());
        prop_assert_eq!(
            snapshot_query(&doc, &q).unwrap(),
            snapshot_query(&projected, &q).unwrap(),
            "query {} on seed {}", QUERY_POOL[qi], seed
        );
    }
}

#[test]
fn xmark_views_evaluate_identically_on_their_projections() {
    let dtd = xmark_dtd();
    let projector = ChainProjector::new(&dtd);
    let doc = xmark_document(3_000, 5);
    let mut pruned_something = false;
    for view in all_views() {
        let projected = projector.project_for_query(&doc, &view.query);
        assert_eq!(
            snapshot_query(&doc, &view.query).unwrap(),
            snapshot_query(&projected, &view.query).unwrap(),
            "view {}",
            view.name
        );
        if projected.size() < doc.size() {
            pruned_something = true;
        }
    }
    assert!(
        pruned_something,
        "at least one selective view should shrink the document"
    );
}

#[test]
fn selective_views_shrink_the_document_substantially() {
    let dtd = xmark_dtd();
    let projector = ChainProjector::new(&dtd);
    let doc = xmark_document(5_000, 9);
    // A view over one region should not need the other regions.
    let q = parse_query("/people/person/name").unwrap();
    let projected = projector.project_for_query(&doc, &q);
    assert!(
        projected.size() * 2 < doc.size(),
        "projection kept {}/{} nodes",
        projected.size(),
        doc.size()
    );
    assert_eq!(
        snapshot_query(&doc, &q).unwrap(),
        snapshot_query(&projected, &q).unwrap()
    );
}

/// Whether `q` evaluates the same on `doc` and on its projection.
fn preserved<S: xml_qui::schema::SchemaLike>(
    projector: &ChainProjector<'_, S>,
    doc: &Tree,
    q: &Query,
) -> bool {
    let projected = projector.project_for_query(doc, q);
    snapshot_query(doc, q).unwrap() == snapshot_query(&projected, q).unwrap()
}

/// Across the schema corpus (fixtures plus 60 generated shapes, recursive
/// cliques included), seeded random queries evaluate the same on their
/// projections as on valid documents of default and of deep, bushy shape.
#[test]
fn corpus_queries_evaluate_identically_on_their_projections() {
    let deep = GenValidConfig {
        target_nodes: 600,
        max_repeat: 2,
        optional_probability: 0.9,
        ..Default::default()
    };
    let mut lost = Vec::new();
    let mut cells = 0usize;
    for (si, schema) in Corpus::seeded(1, 60).iter().enumerate() {
        let dtd = schema.dtd();
        let projector = ChainProjector::new(&dtd);
        let labels = schema.labels();
        let mut rng = StdRng::seed_from_u64(0x7A0 ^ si as u64);
        let mut queries: Vec<String> = (0..16).map(|_| random_query(&labels, &mut rng)).collect();
        queries.extend(labels.iter().map(|l| format!("//{l}")));
        let docs = [
            generate_valid(&dtd, &GenValidConfig::default(), 0xD0C ^ si as u64),
            generate_valid(&dtd, &deep, 0xDEE ^ si as u64),
        ];
        for src in &queries {
            let q = parse_query(src).unwrap();
            for (di, doc) in docs.iter().enumerate() {
                cells += 1;
                if !preserved(&projector, doc, &q) {
                    lost.push(format!("{} `{src}` doc#{di}", schema.name));
                }
            }
        }
    }
    assert!(
        lost.is_empty(),
        "{} of {cells} projections lost results: {lost:?}",
        lost.len()
    );
}

/// Builds `open(0) … open(n-1) leaf close(n-1) … close(0)` as XML.
fn nest(
    n: usize,
    open: impl Fn(usize) -> String,
    leaf: &str,
    close: impl Fn(usize) -> String,
) -> String {
    let mut xml: String = (0..n).map(&open).collect();
    xml.push_str(leaf);
    xml.extend((0..n).rev().map(&close));
    xml
}

/// Schemas with long recursive cycles, deep valid documents for each, and
/// queries of every step kind: a path deeper than the chain engine's
/// `k·|d|` grid must still keep every node its query needs.
#[test]
fn deep_documents_keep_their_results() {
    let cases: Vec<(&str, &str, Vec<String>, &[&str])> = vec![
        (
            "a -> b* ; b -> (b | c)* ; c -> #PCDATA",
            "a",
            [4, 12, 24]
                .iter()
                .map(|&n| {
                    let bs = nest(n, |_| "<b>".into(), "<c>x</c>", |_| "</b>".into());
                    format!("<a>{bs}<b><c>y</c></b></a>")
                })
                .collect(),
            &[
                "//c",
                "//b/c",
                "//c/ancestor::b",
                "for $v in //b return $v/c",
            ],
        ),
        (
            "r -> b* ; b -> (b | x) ; x -> y ; y -> c ; c -> #PCDATA",
            "r",
            [4, 12, 30]
                .iter()
                .map(|&n| {
                    let tail = "<x><y><c>z</c></y></x>";
                    let bs = nest(n, |_| "<b>".into(), tail, |_| "</b>".into());
                    format!("<r>{bs}<b>{tail}</b></r>")
                })
                .collect(),
            &[
                "//c",
                "//y/c",
                "//x//c",
                "//b/x",
                "//c/ancestor::b",
                "//y/parent::x",
                "for $v in //x return $v/y",
                "//b//y",
            ],
        ),
        (
            "p -> (q | e)* ; q -> (r | e)* ; r -> (s | e)* ; s -> (p | e)* ; e -> #PCDATA",
            "p",
            [2, 5, 10]
                .iter()
                .map(|&n| {
                    let cycle = ["p", "q", "r", "s"];
                    let body = nest(
                        4 * n,
                        |i| format!("<{}><e>{i}</e>", cycle[(i + 1) % 4]),
                        "<e>end</e>",
                        |i| format!("</{}>", cycle[(i + 1) % 4]),
                    );
                    format!("<p>{body}</p>")
                })
                .collect(),
            &[
                "//e",
                "//s/e",
                "//r//e",
                "//e/ancestor::q",
                "//q/e/following-sibling::r",
                "for $v in //s return $v/e",
                "//p/q/r",
                "//s/parent::r",
            ],
        ),
        (
            "top -> a ; a -> (t, b?) ; b -> (u, a?) ; t -> #PCDATA ; u -> #PCDATA",
            "top",
            [3, 8, 16]
                .iter()
                .map(|&n| {
                    let body = nest(
                        n,
                        |i| format!("<a><t>{i}</t><b><u>{i}</u>"),
                        "",
                        |_| "</b></a>".into(),
                    );
                    format!("<top>{body}</top>")
                })
                .collect(),
            &[
                "//u",
                "//t",
                "//b/u",
                "//t/following-sibling::b",
                "//u/ancestor::a",
                "for $v in //a return $v/t",
                "//a//u",
                "//b/parent::a",
                "//a/b/a/t",
            ],
        ),
    ];
    let mut lost = Vec::new();
    let mut cells = 0usize;
    for (src, root, docs, queries) in &cases {
        let dtd = Dtd::parse_compact(src, root).unwrap();
        let projector = ChainProjector::new(&dtd);
        for (di, xml) in docs.iter().enumerate() {
            let doc = parse_xml(xml).unwrap();
            assert!(dtd.validate(&doc).is_ok(), "{root} doc#{di} must be valid");
            for q_src in queries.iter() {
                cells += 1;
                if !preserved(&projector, &doc, &parse_query(q_src).unwrap()) {
                    lost.push(format!("{root} `{q_src}` doc#{di}"));
                }
            }
        }
    }
    assert!(
        lost.is_empty(),
        "{} of {cells} deep projections lost results: {lost:?}",
        lost.len()
    );
}
