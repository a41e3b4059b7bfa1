//! Schema-less workflows: infer a DTD from a corpus of documents, then run
//! the chain-based independence analysis against the inferred schema.
//!
//! The paper (§1) assumes a schema is available and points at DTD-inference
//! techniques for the schema-less case; this example shows that pipeline end
//! to end.
//!
//! Run with `cargo run --example dtd_inference`.

use xml_qui::core::SessionBuilder;
use xml_qui::schema::infer::infer_dtd;
use xml_qui::xmlstore::parse_xml;
use xml_qui::xquery::{parse_query, parse_update};

fn main() {
    // A small corpus of order documents, as would be sampled from a store.
    let corpus: Vec<_> = [
        "<orders>\
           <order><id>1</id><customer>alice</customer>\
             <line><sku>a-1</sku><qty>2</qty></line>\
             <line><sku>b-9</sku><qty>1</qty></line>\
           </order>\
         </orders>",
        "<orders>\
           <order><id>2</id><customer>bob</customer>\
             <line><sku>c-3</sku><qty>5</qty><note>gift</note></line>\
           </order>\
           <order><id>3</id><customer>carol</customer></order>\
         </orders>",
        "<orders/>",
    ]
    .iter()
    .map(|s| parse_xml(s).expect("corpus document parses"))
    .collect();

    let inferred = infer_dtd(&corpus).expect("inference succeeds");
    println!(
        "inferred a DTD from {} documents ({} element nodes):\n",
        inferred.documents, inferred.elements
    );
    for (name, model) in &inferred.rules {
        println!("  {name:<10} -> {model}");
    }

    // Every corpus document is valid w.r.t. the inferred schema.
    for (i, doc) in corpus.iter().enumerate() {
        assert!(
            inferred.dtd.validate(doc).is_ok(),
            "document {i} must validate"
        );
    }
    println!("\nall corpus documents validate against the inferred DTD");

    // Use the inferred schema for independence analysis: refreshing a view of
    // customer names is not needed when an update only touches order lines.
    let session = SessionBuilder::new(&inferred.dtd).build();
    let view = parse_query("//order/customer").unwrap();
    let update = parse_update("for $l in //line return delete $l/note").unwrap();
    let verdict = session.check(&view, &update);
    println!(
        "\nview //order/customer vs update 'delete //line/note': {}",
        if verdict.is_independent() {
            "INDEPENDENT — no refresh needed"
        } else {
            "dependent"
        }
    );

    let update2 = parse_update("for $o in //order return rename $o/customer as client").unwrap();
    let verdict2 = session.check(&view, &update2);
    println!(
        "view //order/customer vs update 'rename customer as client': {}",
        if verdict2.is_independent() {
            "independent"
        } else {
            "DEPENDENT — refresh required"
        }
    );
}
