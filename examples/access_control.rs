//! Access control (the paper's third motivation): a query defines the part
//! of the database a user must not change; an update is admissible only if
//! it is statically independent of that protected region.
//!
//! Run with `cargo run --example access_control`.

use xml_qui::core::SessionBuilder;
use xml_qui::schema::Dtd;
use xml_qui::xquery::{parse_query, parse_update};

fn main() {
    // A small hospital schema: diagnoses are protected, administrative data
    // is not.
    let dtd = Dtd::parse_compact(
        "hospital -> patient* ; \
         patient -> (name, record, billing) ; \
         record -> (diagnosis*, prescription*) ; \
         diagnosis -> #PCDATA ; prescription -> #PCDATA ; \
         name -> #PCDATA ; billing -> (address, amount) ; \
         address -> #PCDATA ; amount -> #PCDATA",
        "hospital",
    )
    .unwrap();
    let session = SessionBuilder::new(&dtd).build();

    // The protected region: everything reachable through diagnoses.
    let policy = parse_query("//record/diagnosis").unwrap();

    let requests = [
        (
            "update the billing address",
            "for $a in //billing/address return replace $a with <address>new</address>",
        ),
        (
            "add a prescription",
            "for $r in //record return insert <prescription>aspirin</prescription> into $r",
        ),
        ("delete a diagnosis", "delete //diagnosis"),
        (
            "rename record sections",
            "for $r in //patient/record return rename $r as record",
        ),
    ];
    println!("policy: updates must be independent of {policy}");
    for (label, src) in requests {
        let update = parse_update(src).unwrap();
        let verdict = session.check(&policy, &update);
        println!(
            "  [{}] {label}",
            if verdict.is_independent() {
                "ALLOWED"
            } else {
                "REJECTED"
            },
        );
    }
}
