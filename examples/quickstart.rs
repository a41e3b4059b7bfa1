//! Quickstart: the two motivating examples from the paper's introduction.
//!
//! Run with `cargo run --example quickstart`.

use xml_qui::core::SessionBuilder;
use xml_qui::schema::Dtd;
use xml_qui::xquery::{parse_query, parse_update};

fn main() {
    // Example 1 — the schema of Figure 1: c under b is never under a.
    let dtd = Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap();
    let q1 = parse_query("//a//c").unwrap();
    let u1 = parse_update("delete //b//c").unwrap();
    let session = SessionBuilder::new(&dtd).build();
    let verdict = session.check(&q1, &u1);
    println!("q1 = //a//c   u1 = delete //b//c");
    println!(
        "  chain analysis: {} (k = {}, engine = {:?})",
        if verdict.is_independent() {
            "INDEPENDENT"
        } else {
            "dependent"
        },
        verdict.k,
        verdict.engine_used
    );

    // Example 2 — the bibliographic DTD: inserting authors never affects
    // titles, which only chain (not type-set) reasoning can see.
    let bib = Dtd::parse_compact(
        "bib -> book* ; book -> (title, author*, price?) ; title -> #PCDATA ; \
         author -> (first?, last) ; first -> #PCDATA ; last -> #PCDATA ; price -> #PCDATA",
        "bib",
    )
    .unwrap();
    let q2 = parse_query("//title").unwrap();
    let u2 = parse_update("for $x in //book return insert <author/> into $x").unwrap();
    let session = SessionBuilder::new(&bib).build();
    println!("q2 = //title   u2 = insert <author/> into //book");
    println!(
        "  chain analysis: {}",
        if session.check(&q2, &u2).is_independent() {
            "INDEPENDENT"
        } else {
            "dependent"
        }
    );
    let baseline = xml_qui::baseline::TypeSetAnalyzer::new(&bib);
    println!(
        "  type-set baseline: {}",
        if baseline.independent(&q2, &u2) {
            "INDEPENDENT"
        } else {
            "dependent (both touch the type `book`)"
        }
    );

    // A pair that really is dependent — the analysis reports a witness.
    let q3 = parse_query("//author//last").unwrap();
    let v = session.check(&q3, &u2);
    println!("q3 = //author//last   u2 as above");
    println!(
        "  chain analysis: {}",
        if v.is_independent() {
            "INDEPENDENT"
        } else {
            "dependent"
        }
    );
    if let Some(w) = v.witness {
        println!(
            "  witness: query chain {} vs update chain {} ({:?})",
            w.query_chain.display(&bib),
            w.update_chain.display(&bib),
            w.kind
        );
    }
}
