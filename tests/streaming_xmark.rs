//! Property tests for the paper-scale streaming pipeline:
//!
//! * the XML parser gives, on adversarial entity/attribute inputs, exactly
//!   the trees and the rejections (message and byte offset) recorded from
//!   the former recursive in-memory parser, whole and over small reads, and
//!   reparses generated XMark documents to the generator's own trees;
//! * streamed projection ≡ parse-then-project (`project_spec`), and both
//!   preserve query results under chain-derived automata;
//! * the automaton of a view whose explicit chain sets overflow their
//!   budget (`//parlist//keyword`) still prunes an exact, pinned share of a
//!   streamed XMark document;
//! * parallel ≡ sequential `maintenance_simulation` for jobs ∈ {1, 2, 8};
//! * a million-node XMark document streams through the parser from an
//!   `io::Read` source without the input ever being materialized, and a
//!   200,000-deep document parses without recursion.

use proptest::prelude::*;
use std::io::{Cursor, Read};
use xml_qui::core::engine::explicit::ExplicitEngine;
use xml_qui::core::{k_of_query, ChainProjector, Jobs, Universe};
use xml_qui::workloads::{
    all_updates, all_views, maintenance_simulation_jobs, stream_xmark_document, xmark_document,
    xmark_dtd, NamedUpdate, NamedView, XmarkScale,
};
use xml_qui::xmlstore::streaming::CHUNK_SIZE;
use xml_qui::xmlstore::{
    parse_xml, parse_xml_keep_attributes, parse_xml_reader, parse_xml_stream, project_spec,
    AutomatonCursor, NodeId, ParseError, PathAutomaton, Store, StreamConfig, Tree,
};
use xml_qui::xquery::dynamic::snapshot_query;
use xml_qui::xquery::parse_query;

/// What a parse gives: the tree's exact shape (`tag(children,…)` per
/// element, the debug-quoted value per text node), or the error's message
/// and byte offset.
type Parsed = Result<&'static str, (&'static str, usize)>;

fn shape(tree: &Tree) -> String {
    fn walk(store: &Store, node: NodeId, out: &mut String) {
        match store.tag(node) {
            None => out.push_str(&format!("{:?}", store.text_value(node).unwrap())),
            Some(tag) => {
                out.push_str(tag);
                out.push('(');
                for (i, c) in store.children_iter(node).enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    walk(store, c, out);
                }
                out.push(')');
            }
        }
    }
    let mut out = String::new();
    walk(&tree.store, tree.root, &mut out);
    out
}

fn summary(result: Result<Tree, ParseError>) -> Result<String, (String, usize)> {
    result
        .map(|t| shape(&t))
        .map_err(|e| (e.message, e.position))
}

/// A reader that hands out at most `max` bytes per `read`, so tokens
/// straddle the parser's window refills.
struct SmallReads<'a> {
    data: &'a [u8],
    max: usize,
}

impl Read for SmallReads<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = self.data.len().min(self.max).min(out.len());
        out[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// The parse of `input` is exactly `expected` (recorded from the former
/// recursive in-memory parser), and a parse over 17-byte reads equals the
/// parse over the whole slice.
fn assert_parsers_agree(input: &str, keep_attributes: bool, expected: Parsed) {
    let whole = summary(if keep_attributes {
        parse_xml_keep_attributes(input)
    } else {
        parse_xml(input)
    });
    let expected = expected
        .map(str::to_string)
        .map_err(|(m, p)| (m.to_string(), p));
    assert_eq!(
        whole, expected,
        "keep_attributes = {keep_attributes}, {input:?}"
    );
    let config = StreamConfig {
        keep_attributes,
        projection: None,
    };
    let reader = SmallReads {
        data: input.as_bytes(),
        max: 17,
    };
    let streamed = summary(parse_xml_stream(reader, &config).map(|o| o.tree));
    assert_eq!(streamed, whole, "small reads differ for {input:?}");
}

/// Adversarial fragments: entities (valid and malformed), attributes in both
/// quote styles, CDATA, comments, PIs, deep nesting, tag mismatches,
/// truncations and trailing garbage — each with its parse without and with
/// attributes. The first 12 also compose into [`COMPOSITIONS`].
const ADVERSARIAL: &[(&str, Parsed, Parsed)] = &[
    (
        "<a>&amp;&lt;&gt;&quot;&apos;</a>",
        Ok("a(\"&<>\\\"'\")"),
        Ok("a(\"&<>\\\"'\")"),
    ),
    (
        "<a>&amp &unknown; &amp;amp;</a>",
        Ok("a(\"&amp &unknown; &amp;\")"),
        Ok("a(\"&amp &unknown; &amp;\")"),
    ),
    (
        "<a x=\"1 &lt; 2\" y='&amp;'><b/></a>",
        Ok("a(b())"),
        Ok("a(@x(\"1 < 2\"),@y(\"&\"),b())"),
    ),
    ("<a x=\"\" y=''/>", Ok("a()"), Ok("a(@x(),@y())")),
    (
        "<a x='mismatched\"/>",
        Err(("expected '>' or '/>'", 19)),
        Err(("expected '>' or '/>'", 19)),
    ),
    (
        "<a><![CDATA[<not><xml>&amp;]]></a>",
        Ok("a(\"<not><xml>&amp;\")"),
        Ok("a(\"<not><xml>&amp;\")"),
    ),
    (
        "<a><![CDATA[unterminated</a>",
        Err(("unexpected end of input inside <a>", 28)),
        Err(("unexpected end of input inside <a>", 28)),
    ),
    (
        "<a><!-- comment with <tags> & entities --><b/></a>",
        Ok("a(b())"),
        Ok("a(b())"),
    ),
    (
        "<a><!-- unterminated <b/>",
        Err(("unexpected end of input inside <a>", 25)),
        Err(("unexpected end of input inside <a>", 25)),
    ),
    (
        "<a><?pi with <angle> brackets?><b/></a>",
        Ok("a(b())"),
        Ok("a(b())"),
    ),
    (
        "<doc attr=\"v\"><e a=\"1\" b=\"2\"><f/></e>text<e/></doc>",
        Ok("doc(e(f()),\"text\",e())"),
        Ok("doc(@attr(\"v\"),e(@a(\"1\"),@b(\"2\"),f()),\"text\",e())"),
    ),
    (
        "<a><b><c><d><e><f>deep</f></e></d></c></b></a>",
        Ok("a(b(c(d(e(f(\"deep\"))))))"),
        Ok("a(b(c(d(e(f(\"deep\"))))))"),
    ),
    (
        "<a></b>",
        Err(("mismatched closing tag: expected </a>, found </b>", 6)),
        Err(("mismatched closing tag: expected </a>, found </b>", 6)),
    ),
    (
        "<a><b></a></b>",
        Err(("mismatched closing tag: expected </b>, found </a>", 9)),
        Err(("mismatched closing tag: expected </b>, found </a>", 9)),
    ),
    (
        "<a/><b/>",
        Err(("trailing content after document element", 4)),
        Err(("trailing content after document element", 4)),
    ),
    (
        "<a>",
        Err(("unexpected end of input inside <a>", 3)),
        Err(("unexpected end of input inside <a>", 3)),
    ),
    (
        "</a>",
        Err(("expected a name", 1)),
        Err(("expected a name", 1)),
    ),
    (
        "plain text",
        Err(("expected '<'", 0)),
        Err(("expected '<'", 0)),
    ),
    ("", Err(("expected '<'", 0)), Err(("expected '<'", 0))),
    ("   ", Err(("expected '<'", 3)), Err(("expected '<'", 3))),
    (
        "<a>x</a>trailing",
        Err(("trailing content after document element", 8)),
        Err(("trailing content after document element", 8)),
    ),
    (
        "<a>x</a><!-- ok --> <?pi ok?>",
        Ok("a(\"x\")"),
        Ok("a(\"x\")"),
    ),
    (
        "<?xml version=\"1.0\"?><!DOCTYPE a [ <!ELEMENT a (b)> ]><a><b/></a>",
        Ok("a(b())"),
        Ok("a(b())"),
    ),
    (
        "<a>text with\nnewlines\tand\ttabs</a>",
        Ok("a(\"text with\\nnewlines\\tand\\ttabs\")"),
        Ok("a(\"text with\\nnewlines\\tand\\ttabs\")"),
    ),
    ("<a>é世界</a>", Ok("a(\"é世界\")"), Ok("a(\"é世界\")")),
    (
        "<a ><b / ></a >",
        Err(("expected '>' after '/'", 8)),
        Err(("expected '>' after '/'", 8)),
    ),
    ("<a x = \"spaced\"/>", Ok("a()"), Ok("a(@x(\"spaced\"))")),
    ("<a x></a>", Ok("a()"), Ok("a(@x())")),
    (
        "<a><!foo></a>",
        Err(("expected a name", 4)),
        Err(("expected a name", 4)),
    ),
    ("<a>  <b/>\n\t</a>", Ok("a(b())"), Ok("a(b())")),
    (
        "<a>x<!-- c -->y</a>",
        Ok("a(\"x\",\"y\")"),
        Ok("a(\"x\",\"y\")"),
    ),
    (
        "<a></a b>",
        Err(("expected '>' in closing tag", 7)),
        Err(("expected '>' in closing tag", 7)),
    ),
    (
        "<a></ab>",
        Err(("mismatched closing tag: expected </a>, found </ab>", 7)),
        Err(("mismatched closing tag: expected </a>, found </ab>", 7)),
    ),
    (
        "<ab></a>",
        Err(("mismatched closing tag: expected </ab>, found </a>", 7)),
        Err(("mismatched closing tag: expected </ab>, found </a>", 7)),
    ),
    (
        "<a><",
        Err(("expected a name", 4)),
        Err(("expected a name", 4)),
    ),
    (
        "<a></",
        Err(("expected a name", 5)),
        Err(("expected a name", 5)),
    ),
    ("<a x='1' x='2'/>", Ok("a()"), Ok("a(@x(\"1\"),@x(\"2\"))")),
    ("<!doctype a><a/>", Ok("a()"), Ok("a()")),
    ("<a>]]></a>", Ok("a(\"]]>\")"), Ok("a(\"]]>\")")),
    ("<a><![CDATA[]]></a>", Ok("a(\"\")"), Ok("a(\"\")")),
    ("<a><![CDATA[  ]]></a>", Ok("a(\"  \")"), Ok("a(\"  \")")),
    ("<a\n  b='x'\n/>", Ok("a()"), Ok("a(@b(\"x\"))")),
    ("<a>x</a>\n", Ok("a(\"x\")"), Ok("a(\"x\")")),
    (
        "\u{feff}<a/>",
        Err(("expected '<'", 0)),
        Err(("expected '<'", 0)),
    ),
    ("<a b='>'/>", Ok("a()"), Ok("a(@b(\">\"))")),
    (
        "<a:b xmlns:a='u'><a:c/></a:b>",
        Ok("a:b(a:c())"),
        Ok("a:b(@xmlns:a(\"u\"),a:c())"),
    ),
    (
        "<a>&amp;amp; &#60; &</a>",
        Ok("a(\"&amp; &#60; &\")"),
        Ok("a(\"&amp; &#60; &\")"),
    ),
    (
        "<a>x</a><",
        Err(("trailing content after document element", 8)),
        Err(("trailing content after document element", 8)),
    ),
    (
        "<a><b>1</b>  text  <c/></a>",
        Ok("a(b(\"1\"),\"  text  \",c())"),
        Ok("a(b(\"1\"),\"  text  \",c())"),
    ),
    (
        "<a/",
        Err(("expected '>' after '/'", 3)),
        Err(("expected '>' after '/'", 3)),
    ),
    (
        "<a b",
        Err(("expected '>' or '/>'", 4)),
        Err(("expected '>' or '/>'", 4)),
    ),
    (
        "<a b=",
        Err(("expected quoted attribute value", 5)),
        Err(("expected quoted attribute value", 5)),
    ),
    (
        "<a b='",
        Err(("expected '>' or '/>'", 6)),
        Err(("expected '>' or '/>'", 6)),
    ),
];

/// Masks over the first 12 [`ADVERSARIAL`] fragments, concatenated inside a
/// `<root>` element, with the attribute mode and the recorded parse.
const COMPOSITIONS: &[(u32, bool, Parsed)] = &[
    (0x009b, false, Err(("expected '>' or '/>'", 159))),
    (0x088f, true, Ok("root(a(\"&<>\\\"'\"),a(\"&amp &unknown; &amp;\"),a(@x(\"1 < 2\"),@y(\"&\"),b()),a(@x(),@y()),a(b()),a(b(c(d(e(f(\"deep\")))))))")),
    (0x0349, false, Err(("unexpected end of input inside <a>", 151))),
    (0x0003, true, Ok("root(a(\"&<>\\\"'\"),a(\"&amp &unknown; &amp;\"))")),
    (0x0810, false, Err(("expected '>' or '/>'", 78))),
    (0x0e84, false, Ok("root(a(b()),a(b()),a(b()),doc(e(f()),\"text\",e()),a(b(c(d(e(f(\"deep\")))))))")),
    (0x030d, false, Err(("unexpected end of input inside <a>", 157))),
    (0x0bf0, false, Err(("expected '>' or '/>'", 254))),
    (0x0dd8, true, Err(("expected '>' or '/>'", 246))),
    (0x0185, false, Err(("unexpected end of input inside <a>", 154))),
    (0x076c, false, Err(("unexpected end of input inside <a>", 238))),
    (0x09e5, false, Err(("unexpected end of input inside <a>", 262))),
];

#[test]
fn adversarial_inputs_agree_between_parsers() {
    for &(input, plain, with_attributes) in ADVERSARIAL {
        assert_parsers_agree(input, false, plain);
        assert_parsers_agree(input, true, with_attributes);
    }
}

/// Concatenations of adversarial fragments wrapped in a root still parse to
/// the recorded results.
#[test]
fn adversarial_compositions_agree() {
    for &(mask, keep_attributes, expected) in COMPOSITIONS {
        let mut body = String::new();
        for (i, (frag, _, _)) in ADVERSARIAL.iter().take(12).enumerate() {
            if mask & (1 << i) != 0 {
                body.push_str(frag);
            }
        }
        assert_parsers_agree(&format!("<root>{body}</root>"), keep_attributes, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A generated XMark document reparses to the generator's own tree: its
    /// serialization (which covers mixed content, both recursive cliques
    /// and all site regions) comes back byte for byte, whether the bytes
    /// arrive as one string or from a reader.
    #[test]
    fn streaming_parse_equals_in_memory_on_xmark(
        nodes in 200usize..2_500,
        seed in 0u64..1_000,
    ) {
        let xml = xmark_document(nodes, seed).to_xml();
        let parsed = parse_xml(&xml).unwrap();
        prop_assert_eq!(parsed.to_xml(), xml.clone());
        let streamed = parse_xml_reader(Cursor::new(xml.as_bytes().to_vec())).unwrap();
        prop_assert_eq!(shape(&streamed), shape(&parsed));
    }

    /// Streamed projection ≡ parse-then-project for chain-derived automata,
    /// and the projected document still answers the query.
    #[test]
    fn streamed_projection_equals_project_spec(
        nodes in 300usize..2_000,
        seed in 0u64..500,
        query_idx in 0usize..3,
    ) {
        let query_src = [
            "/people/person/emailaddress",
            "/closed_auctions/closed_auction/price",
            "/regions/europe/item/name",
        ][query_idx];
        let dtd = xmark_dtd();
        let projector = ChainProjector::new(&dtd);
        let q = parse_query(query_src).unwrap();
        let auto = projector.automaton_for_query(&q);
        let doc = xmark_document(nodes, seed);
        let xml = doc.to_xml();
        // Reference: parse everything, then apply the same decisions.
        let full = parse_xml(&xml).unwrap();
        let expected = project_spec(&full, &auto);
        let outcome = parse_xml_stream(
            Cursor::new(xml.as_bytes().to_vec()),
            &StreamConfig::with_projection(auto),
        )
        .unwrap();
        prop_assert!(expected.value_equiv(&outcome.tree), "{query_src}");
        // The projection preserves the query's answer.
        prop_assert_eq!(
            snapshot_query(&doc, &q).unwrap(),
            snapshot_query(&outcome.tree, &q).unwrap(),
            "{}", query_src
        );
        // Bookkeeping: every parsed node is either kept or pruned.
        prop_assert_eq!(
            outcome.stats.nodes_kept + outcome.stats.nodes_pruned,
            outcome.stats.elements_parsed + outcome.stats.texts_parsed
        );
    }

    /// Parallel ≡ sequential maintenance simulation: all deterministic
    /// report fields are bit-identical for jobs ∈ {1, 2, 8}.
    #[test]
    fn maintenance_reports_identical_across_jobs(
        seed in 0u64..100,
        view_mask in 1u8..(1 << 5),
        update_mask in 1u8..(1 << 4),
    ) {
        let views: Vec<NamedView> = all_views()
            .into_iter()
            .take(5)
            .enumerate()
            .filter(|(i, _)| view_mask & (1 << i) != 0)
            .map(|(_, v)| v)
            .collect();
        let updates: Vec<NamedUpdate> = all_updates()
            .into_iter()
            .take(4)
            .enumerate()
            .filter(|(i, _)| update_mask & (1 << i) != 0)
            .map(|(_, u)| u)
            .collect();
        let reference =
            maintenance_simulation_jobs(&views, &updates, 1_000, "p", seed, Jobs::Fixed(1))
                .deterministic_fields();
        for jobs in [2, 8] {
            let report =
                maintenance_simulation_jobs(&views, &updates, 1_000, "p", seed, Jobs::Fixed(jobs));
            prop_assert_eq!(report.deterministic_fields(), reference.clone(), "jobs = {}", jobs);
        }
    }
}

/// The recursive descendant view over XMark's `parlist`/`listitem` clique,
/// whose explicit chain sets overflow the explicit engine's budget.
const PARLIST_VIEW: &str = "//parlist//keyword";

/// The compiled CDAG path automaton for [`PARLIST_VIEW`].
fn parlist_automaton() -> PathAutomaton {
    let dtd = xmark_dtd();
    let q = parse_query(PARLIST_VIEW).unwrap();
    ChainProjector::new(&dtd).automaton_for_query(&q)
}

/// The automaton projects where explicit chains cannot: `//parlist//keyword`
/// overflows a 20,000-chain explicit budget at `k_of_query + 1` (so the
/// projection below shows something the explicit chain sets could not), and
/// its automaton still prunes most of a streamed S-scale XMark document. The
/// kept count is pinned exactly: an automaton that keeps more (in the limit,
/// everything) or less fails here.
#[test]
fn parlist_automaton_prunes_where_explicit_chains_overflow() {
    let dtd = xmark_dtd();
    let q = parse_query(PARLIST_VIEW).unwrap();
    let universe = Universe::with_k(&dtd, k_of_query(&q).max(1) + 1);
    let explicit = ExplicitEngine::new(&universe, 20_000);
    assert!(
        explicit
            .infer_query(&explicit.root_gamma(q.free_vars()), &q)
            .is_err(),
        "the explicit chain sets of {PARLIST_VIEW} fit the budget; the check is vacuous"
    );

    let doc = xmark_document(XmarkScale::Small.target_nodes(), 7);
    let outcome = parse_xml_stream(
        Cursor::new(doc.to_xml().into_bytes()),
        &StreamConfig::with_projection(parlist_automaton()),
    )
    .unwrap();
    let (kept, pruned) = (outcome.stats.nodes_kept, outcome.stats.nodes_pruned);
    assert!(
        pruned * 5 >= (kept + pruned),
        "the automaton prunes {pruned} of {} nodes, fewer than 20%",
        kept + pruned
    );
    assert_eq!(kept, 583, "{pruned} pruned");
}

/// Labels used for random automaton walks: the recursive clique plus its
/// context, and one label the schema does not know.
const WALK_LABELS: &[&str] = &[
    "site",
    "regions",
    "europe",
    "item",
    "description",
    "parlist",
    "listitem",
    "text",
    "keyword",
    "bold",
    "emph",
    "name",
    "zzz-unknown",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ROADMAP follow-up regression: the incremental `AutomatonCursor` the
    /// streaming parser keeps (one `O(states)` step per start tag) reports,
    /// at every depth of a random push/pop walk, exactly the flags a full
    /// `O(depth · states)` re-simulation of the root-to-node path reports —
    /// including the text-child decision.
    #[test]
    fn automaton_cursor_equals_full_resimulation(
        ops in prop::collection::vec((0usize..WALK_LABELS.len() + 1, 0usize..WALK_LABELS.len()), 1..40),
    ) {
        let auto = parlist_automaton();
        let mut cursor = AutomatonCursor::new();
        let mut path: Vec<String> = Vec::new();
        for &(op, label_idx) in &ops {
            if op == WALK_LABELS.len() {
                // A pop (ignored at the root).
                if !path.is_empty() {
                    path.pop();
                    cursor.pop();
                }
            } else {
                let label = WALK_LABELS[label_idx];
                path.push(label.to_string());
                let pushed = cursor.push(&auto, label);
                prop_assert_eq!(
                    pushed,
                    auto.classify_path(&path),
                    "push flags diverged at {:?}", path
                );
            }
            prop_assert_eq!(
                cursor.flags(&auto),
                auto.classify_path(&path),
                "flags diverged at {:?}", path
            );
            prop_assert_eq!(cursor.depth(), path.len());
            if !path.is_empty() {
                prop_assert_eq!(
                    cursor.text_child_kept(&auto),
                    auto.keeps_text_child(&path),
                    "text decision diverged at {:?}", path
                );
            }
        }
    }

    /// Streamed automaton projection (through the incremental cursor) ≡ the
    /// in-memory reference `project_spec` (which re-simulates every path),
    /// and the projection still answers the recursive query.
    #[test]
    fn streamed_automaton_projection_equals_reference(
        nodes in 400usize..2_500,
        seed in 0u64..200,
    ) {
        let dtd = xmark_dtd();
        let q = parse_query(PARLIST_VIEW).unwrap();
        let projection = ChainProjector::new(&dtd).automaton_for_query(&q);
        let doc = xmark_document(nodes, seed);
        let xml = doc.to_xml();
        let full = parse_xml(&xml).unwrap();
        let expected = project_spec(&full, &projection);
        let outcome = parse_xml_stream(
            Cursor::new(xml.as_bytes().to_vec()),
            &StreamConfig::with_projection(projection),
        )
        .unwrap();
        prop_assert!(expected.value_equiv(&outcome.tree));
        prop_assert_eq!(
            snapshot_query(&doc, &q).unwrap(),
            snapshot_query(&outcome.tree, &q).unwrap()
        );
    }
}

/// The headline ingest property: a million-node XMark document streams from
/// a reader into a tree while the parser's input window stays within a few
/// chunks — the input is never materialized.
#[test]
fn million_node_document_streams_with_bounded_window() {
    // The generator's target is approximate (repeat caps and budget division
    // throttle recursion); this target deterministically lands past a
    // million actual nodes with the fixed seed.
    let target = 3_600_000;
    let mut bytes: Vec<u8> = Vec::new();
    let stats = stream_xmark_document(target, 7, &mut bytes).expect("generation succeeds");
    assert!(
        stats.nodes >= 1_000_000,
        "generator produced only {} nodes",
        stats.nodes
    );
    let outcome = parse_xml_stream(Cursor::new(bytes), &StreamConfig::default()).unwrap();
    assert!(outcome.tree.size() >= 1_000_000, "{}", outcome.tree.size());
    assert_eq!(outcome.tree.root_tag(), Some("site"));
    assert!(
        outcome.stats.peak_buffer_bytes <= 4 * CHUNK_SIZE,
        "input window grew to {} bytes",
        outcome.stats.peak_buffer_bytes
    );
    assert!(xmark_dtd().validate(&outcome.tree).is_ok());
}
