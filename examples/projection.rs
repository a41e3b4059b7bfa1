//! Chain-based document projection: evaluate a view on a pruned document.
//!
//! The chains inferred for a query identify exactly the parts of a document
//! the query can visit (Theorem 3.2). Projecting the document onto those
//! chains before evaluation keeps the result identical while discarding the
//! rest — the memory-saving trick of the XML projection literature, driven
//! here by the paper's chain inference. Every query gets a projection: the
//! chains compile into an automaton with one state per schema type, however
//! many chains a recursive schema produces.
//!
//! Run with `cargo run --release --example projection`.

use xml_qui::core::ChainProjector;
use xml_qui::workloads::{all_views, xmark_document, xmark_dtd};
use xml_qui::xquery::dynamic::snapshot_query;
use xml_qui::xquery::{parse_query, Query};

fn main() {
    let dtd = xmark_dtd();
    let doc = xmark_document(20_000, 3);
    let projector = ChainProjector::new(&dtd);

    let mut views: Vec<(String, Query)> = [
        ("person names", "/people/person/name"),
        (
            "open auction bids",
            "/open_auctions/open_auction/bidder/increase",
        ),
        ("item names in Europe", "/regions/europe/item/name"),
        ("all keywords", "//keyword"),
    ]
    .into_iter()
    .map(|(label, src)| (label.to_string(), parse_query(src).unwrap()))
    .collect();
    views.extend(
        all_views()
            .into_iter()
            .map(|v| (format!("XMark view {}", v.name), v.query)),
    );

    println!("XMark-style document: {} nodes\n", doc.size());
    println!(
        "{:<26} {:>12} {:>10} {:>8}",
        "view", "kept nodes", "kept %", "same?"
    );
    for (label, q) in &views {
        let projected = projector.project_for_query(&doc, q);
        let same = snapshot_query(&doc, q).unwrap() == snapshot_query(&projected, q).unwrap();
        println!(
            "{:<26} {:>12} {:>9.1}% {:>8}",
            label,
            projected.size(),
            100.0 * projected.size() as f64 / doc.size() as f64,
            if same { "yes" } else { "NO" }
        );
        assert!(same, "projection must preserve the view result");
    }
    println!(
        "\nAll {} views evaluate identically on their projections.",
        views.len()
    );
}
