//! Property tests for the paper-scale streaming pipeline:
//!
//! * streaming parse ≡ in-memory `parse_xml` (same tree, via `equiv`) over
//!   generated XMark documents and adversarial entity/attribute inputs,
//!   including identical rejections at identical byte offsets;
//! * streamed projection ≡ parse-then-project (`project_spec`), and both
//!   preserve query results under chain-derived automata;
//! * parallel ≡ sequential `maintenance_simulation` for jobs ∈ {1, 2, 8};
//! * a million-node XMark document streams through the parser from an
//!   `io::Read` source without the input ever being materialized.

use proptest::prelude::*;
use std::io::Cursor;
use xml_qui::core::{ChainProjector, Jobs};
use xml_qui::workloads::{
    all_updates, all_views, maintenance_simulation_jobs, stream_xmark_document, xmark_document,
    xmark_dtd, NamedUpdate, NamedView,
};
use xml_qui::xmlstore::{
    parse_xml, parse_xml_keep_attributes, parse_xml_reader, parse_xml_stream, project_spec,
    AutomatonCursor, PathAutomaton, StreamConfig,
};
use xml_qui::xquery::dynamic::snapshot_query;
use xml_qui::xquery::parse_query;

/// Both parsers must agree byte-for-byte: same tree (up to locations) on
/// success, same message at the same offset on failure.
fn assert_parsers_agree(input: &str, keep_attributes: bool) {
    let in_memory = if keep_attributes {
        parse_xml_keep_attributes(input)
    } else {
        parse_xml(input)
    };
    let config = StreamConfig {
        keep_attributes,
        // A tiny window forces tokens across refill boundaries.
        chunk_size: 17,
        ..Default::default()
    };
    let streamed = parse_xml_stream(Cursor::new(input.as_bytes().to_vec()), &config);
    match (in_memory, streamed) {
        (Ok(expected), Ok(outcome)) => {
            assert!(
                expected.value_equiv(&outcome.tree),
                "trees differ for {input:?}"
            );
        }
        (Err(e1), Err(e2)) => {
            assert_eq!(e1.message, e2.message, "messages differ for {input:?}");
            assert_eq!(e1.position, e2.position, "positions differ for {input:?}");
        }
        (Ok(_), Err(e)) => panic!("only the streaming parser rejected {input:?}: {e}"),
        (Err(e), Ok(_)) => panic!("only the in-memory parser rejected {input:?}: {e}"),
    }
}

/// Adversarial fragments: entities (valid and malformed), attributes in both
/// quote styles, CDATA, comments, PIs, deep nesting, tag mismatches,
/// truncations and trailing garbage.
const ADVERSARIAL: &[&str] = &[
    "<a>&amp;&lt;&gt;&quot;&apos;</a>",
    "<a>&amp &unknown; &amp;amp;</a>",
    "<a x=\"1 &lt; 2\" y='&amp;'><b/></a>",
    "<a x=\"\" y=''/>",
    "<a x='mismatched\"/>",
    "<a><![CDATA[<not><xml>&amp;]]></a>",
    "<a><![CDATA[unterminated</a>",
    "<a><!-- comment with <tags> & entities --><b/></a>",
    "<a><!-- unterminated <b/>",
    "<a><?pi with <angle> brackets?><b/></a>",
    "<doc attr=\"v\"><e a=\"1\" b=\"2\"><f/></e>text<e/></doc>",
    "<a><b><c><d><e><f>deep</f></e></d></c></b></a>",
    "<a></b>",
    "<a><b></a></b>",
    "<a/><b/>",
    "<a>",
    "</a>",
    "plain text",
    "",
    "   ",
    "<a>x</a>trailing",
    "<a>x</a><!-- ok --> <?pi ok?>",
    "<?xml version=\"1.0\"?><!DOCTYPE a [ <!ELEMENT a (b)> ]><a><b/></a>",
    "<a>text with\nnewlines\tand\ttabs</a>",
    "<a>\u{00e9}\u{4e16}\u{754c}</a>",
    "<a ><b / ></a >",
    "<a x = \"spaced\"/>",
    "<a x></a>",
];

#[test]
fn adversarial_inputs_agree_between_parsers() {
    for input in ADVERSARIAL {
        assert_parsers_agree(input, false);
        assert_parsers_agree(input, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Streaming parse ≡ `parse_xml` over generated XMark documents (the
    /// serialized form covers mixed content, both recursive cliques and all
    /// site regions).
    #[test]
    fn streaming_parse_equals_in_memory_on_xmark(
        nodes in 200usize..2_500,
        seed in 0u64..1_000,
    ) {
        let xml = xmark_document(nodes, seed).to_xml();
        let expected = parse_xml(&xml).unwrap();
        let streamed = parse_xml_reader(Cursor::new(xml.as_bytes().to_vec())).unwrap();
        prop_assert!(expected.value_equiv(&streamed));
    }

    /// Random concatenations of adversarial fragments wrapped in a root:
    /// the parsers must still agree (in both attribute modes).
    #[test]
    fn adversarial_compositions_agree(
        mask in 1u32..(1 << 12),
        keep_flag in 0u8..2,
    ) {
        let keep_attributes = keep_flag == 1;
        let mut body = String::new();
        for (i, frag) in ADVERSARIAL.iter().take(12).enumerate() {
            if mask & (1 << i) != 0 {
                body.push_str(frag);
            }
        }
        let input = format!("<root>{body}</root>");
        assert_parsers_agree(&input, keep_attributes);
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

/// The compiled CDAG path automaton for the recursive descendant view the
/// perf harness uses (`//parlist//keyword`), whose explicit chain sets
/// overflow the explicit engine's budget.
fn parlist_automaton() -> PathAutomaton {
    let dtd = xmark_dtd();
    let q = parse_query("//parlist//keyword").unwrap();
    ChainProjector::new(&dtd).automaton_for_query(&q)
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
        let q = parse_query("//parlist//keyword").unwrap();
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
        outcome.stats.peak_buffer_bytes <= 4 * xml_qui::xmlstore::streaming::DEFAULT_CHUNK_SIZE,
        "input window grew to {} bytes",
        outcome.stats.peak_buffer_bytes
    );
    assert!(xmark_dtd().validate(&outcome.tree).is_ok());
}
