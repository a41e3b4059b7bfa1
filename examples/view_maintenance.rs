//! View maintenance over an XMark-style auction document: re-materialize
//! only the views that the static analysis cannot prove independent of each
//! incoming update (the scenario of Fig. 3.c).
//!
//! Run with `cargo run --release --example view_maintenance`.

use std::time::Instant;
use xml_qui::core::SessionBuilder;
use xml_qui::workloads::{all_updates, all_views, xmark_document, xmark_dtd};
use xml_qui::xquery::{apply_pending_list, evaluate_query, evaluate_update};

fn main() {
    let dtd = xmark_dtd();
    let session = SessionBuilder::new(&dtd).build();
    let views: Vec<_> = all_views().into_iter().take(12).collect();
    let updates: Vec<_> = all_updates().into_iter().take(8).collect();
    let mut doc = xmark_document(8_000, 42);
    println!(
        "document: {} nodes, {} views, {} updates",
        doc.size(),
        views.len(),
        updates.len()
    );

    // Materialize every view once.
    let root = doc.root;
    let mut materialized: Vec<usize> = Vec::new();
    for v in &views {
        let result = evaluate_query(&mut doc.store, root, &v.query).unwrap();
        materialized.push(result.len());
    }

    let mut refreshed = 0usize;
    let mut skipped = 0usize;
    let start = Instant::now();
    for u in &updates {
        // Decide statically which views need a refresh.
        let decisions: Vec<bool> = views
            .iter()
            .map(|v| !session.check(&v.query, &u.update).is_independent())
            .collect();
        // Apply the update.
        let upl = evaluate_update(&mut doc.store, root, &u.update).unwrap();
        apply_pending_list(&mut doc.store, &upl);
        // Refresh only what is needed.
        for (i, v) in views.iter().enumerate() {
            if decisions[i] {
                let result = evaluate_query(&mut doc.store, root, &v.query).unwrap();
                materialized[i] = result.len();
                refreshed += 1;
            } else {
                skipped += 1;
            }
        }
        println!(
            "{:<5} refreshed {:>2} / {} views",
            u.name,
            decisions.iter().filter(|&&d| d).count(),
            views.len()
        );
    }
    println!(
        "total: {} refreshes performed, {} skipped thanks to the analysis, in {:.1} ms",
        refreshed,
        skipped,
        start.elapsed().as_secs_f64() * 1e3
    );
}
