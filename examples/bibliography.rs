//! The bibliographic use-case suite (the paper's §1/§3 motivating examples)
//! analysed with both the chain analysis and the type-set baseline, and
//! cross-checked dynamically on generated documents.
//!
//! Run with `cargo run --example bibliography`.

use xml_qui::baseline::TypeSetAnalyzer;
use xml_qui::core::SessionBuilder;
use xml_qui::workloads::usecases::{bib_document, bib_dtd, bib_pairs};
use xml_qui::xquery::{dynamic_independent, DynamicOutcome};

fn main() {
    let dtd = bib_dtd();
    let chains = SessionBuilder::new(&dtd).build();
    let types = TypeSetAnalyzer::new(&dtd);
    let doc = bib_document(400, 7);

    println!(
        "bibliography DTD ({} element types), document of {} nodes\n",
        dtd.size(),
        doc.size()
    );
    println!(
        "{:<6} {:<12} {:<12} {:<12} {:<10}  rationale",
        "pair", "label", "chains", "types[6]", "dynamic"
    );
    for pair in bib_pairs() {
        let chain_verdict = chains.check(&pair.query, &pair.update);
        let type_verdict = types.independent(&pair.query, &pair.update);
        let dynamic = match dynamic_independent(&doc, &pair.query, &pair.update) {
            Ok(DynamicOutcome::Changed) => "changed",
            Ok(DynamicOutcome::UnchangedOnThisTree) => "unchanged",
            Err(_) => "error",
        };
        println!(
            "{:<6} {:<12} {:<12} {:<12} {:<10}  {}",
            pair.name,
            if pair.independent {
                "independent"
            } else {
                "dependent"
            },
            if chain_verdict.is_independent() {
                "independent"
            } else {
                "dependent"
            },
            if type_verdict {
                "independent"
            } else {
                "dependent"
            },
            dynamic,
            pair.rationale,
        );
    }

    // Tally the headline numbers of the comparison.
    let pairs = bib_pairs();
    let truly = pairs.iter().filter(|p| p.independent).count();
    let by_chains = pairs
        .iter()
        .filter(|p| p.independent && chains.check(&p.query, &p.update).is_independent())
        .count();
    let by_types = pairs
        .iter()
        .filter(|p| p.independent && types.independent(&p.query, &p.update))
        .count();
    println!(
        "\nindependent pairs detected: chains {by_chains}/{truly}, type-set baseline {by_types}/{truly}"
    );
}
