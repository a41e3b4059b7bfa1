//! An XMark-style auction DTD and document generator.
//!
//! The original XMark benchmark ships a DTD of 77 element types and a C
//! document generator. We transcribe the DTD structurally (all regions of
//! the auction site, and in particular the two mutually recursive cliques:
//! `{parlist, listitem}` of size 2 and `{bold, keyword, emph}` of size 3,
//! which §6.2 highlights) and generate documents with the schema-driven
//! generator of `qui-schema`. Attributes are omitted — the paper's fragment
//! and its rewritten workloads do not use them.

use qui_schema::{generate_valid, generate_valid_xml, Dtd, GenValidConfig, GenXmlStats};
use qui_xmlstore::Tree;
use std::io::{self, Write};

/// The XMark-style auction DTD.
pub fn xmark_dtd() -> Dtd {
    Dtd::builder()
        .rule(
            "site",
            "(regions, categories, catgraph, people, open_auctions, closed_auctions)",
        )
        .rule(
            "regions",
            "(africa, asia, australia, europe, namerica, samerica)",
        )
        .rule("africa", "item*")
        .rule("asia", "item*")
        .rule("australia", "item*")
        .rule("europe", "item*")
        .rule("namerica", "item*")
        .rule("samerica", "item*")
        .rule(
            "item",
            "(location, quantity, name, payment, description, shipping, incategory+, mailbox)",
        )
        .rule("location", "#PCDATA")
        .rule("quantity", "#PCDATA")
        .rule("name", "#PCDATA")
        .rule("payment", "#PCDATA")
        .rule("shipping", "#PCDATA")
        .rule("incategory", "EMPTY")
        .rule("mailbox", "mail*")
        .rule("mail", "(from, to, date, text)")
        .rule("from", "#PCDATA")
        .rule("to", "#PCDATA")
        .rule("date", "#PCDATA")
        .rule("categories", "category+")
        .rule("category", "(name, description)")
        .rule("catgraph", "edge*")
        .rule("edge", "EMPTY")
        .rule("people", "person*")
        .rule(
            "person",
            "(name, emailaddress, phone?, address?, homepage?, creditcard?, profile?, watches?)",
        )
        .rule("emailaddress", "#PCDATA")
        .rule("phone", "#PCDATA")
        .rule("homepage", "#PCDATA")
        .rule("creditcard", "#PCDATA")
        .rule(
            "address",
            "(street, city, country, province?, zipcode)",
        )
        .rule("street", "#PCDATA")
        .rule("city", "#PCDATA")
        .rule("country", "#PCDATA")
        .rule("province", "#PCDATA")
        .rule("zipcode", "#PCDATA")
        .rule(
            "profile",
            "(interest*, education?, gender?, business, age?)",
        )
        .rule("interest", "EMPTY")
        .rule("education", "#PCDATA")
        .rule("gender", "#PCDATA")
        .rule("business", "#PCDATA")
        .rule("age", "#PCDATA")
        .rule("watches", "watch*")
        .rule("watch", "EMPTY")
        .rule("open_auctions", "open_auction*")
        .rule(
            "open_auction",
            "(initial, reserve?, bidder*, current, privacy?, itemref, seller, annotation, quantity, type, interval)",
        )
        .rule("initial", "#PCDATA")
        .rule("reserve", "#PCDATA")
        .rule("current", "#PCDATA")
        .rule("privacy", "#PCDATA")
        .rule("itemref", "EMPTY")
        .rule("seller", "EMPTY")
        .rule("type", "#PCDATA")
        .rule("interval", "(start, end)")
        .rule("start", "#PCDATA")
        .rule("end", "#PCDATA")
        .rule("bidder", "(date, time, personref, increase)")
        .rule("time", "#PCDATA")
        .rule("personref", "EMPTY")
        .rule("increase", "#PCDATA")
        .rule(
            "annotation",
            "(author, description?, happiness)",
        )
        .rule("author", "EMPTY")
        .rule("happiness", "#PCDATA")
        .rule("closed_auctions", "closed_auction*")
        .rule(
            "closed_auction",
            "(seller, buyer, itemref, price, date, quantity, type, annotation?)",
        )
        .rule("buyer", "EMPTY")
        .rule("price", "#PCDATA")
        // The textual/recursive region shared by descriptions and annotations.
        .rule("description", "(text | parlist)")
        .rule("parlist", "listitem*")
        .rule("listitem", "(text | parlist)*")
        .rule("text", "(#PCDATA | bold | keyword | emph)*")
        .rule("bold", "(#PCDATA | bold | keyword | emph)*")
        .rule("keyword", "(#PCDATA | bold | keyword | emph)*")
        .rule("emph", "(#PCDATA | bold | keyword | emph)*")
        .build("site")
        .expect("the XMark DTD is well-formed")
}

/// The document scales of the maintenance experiment (Fig. 3.c). The paper
/// uses 1, 10 and 100 MB XMark documents; we use node counts that grow by
/// the same factor of ten, plus an extra-large scale one decade beyond the
/// paper that only the streaming ingest path can reach comfortably.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum XmarkScale {
    /// ≈ the 1 MB document.
    Small,
    /// ≈ the 10 MB document.
    Medium,
    /// ≈ the 100 MB document.
    Large,
    /// ≈ a 1 GB document (beyond the paper; multi-million nodes, exercised
    /// by the streaming ingest path and the nightly perf runs).
    ExtraLarge,
}

impl XmarkScale {
    /// All scales, smallest to largest.
    pub const ALL: [XmarkScale; 4] = [
        XmarkScale::Small,
        XmarkScale::Medium,
        XmarkScale::Large,
        XmarkScale::ExtraLarge,
    ];

    /// Approximate number of nodes to generate for this scale.
    ///
    /// The paper uses 1, 10 and 100 MB XMark files; we keep the same factor
    /// of ten between scales with node counts sized so that the whole
    /// experiment runs in minutes on a laptop (the reported quantity — the
    /// *percentage* of re-materialization time saved — does not depend on the
    /// absolute document size; see EXPERIMENTS.md).
    pub fn target_nodes(self) -> usize {
        match self {
            XmarkScale::Small => 5_000,
            XmarkScale::Medium => 50_000,
            XmarkScale::Large => 500_000,
            XmarkScale::ExtraLarge => 5_000_000,
        }
    }

    /// A short name for reports.
    pub fn label(self) -> &'static str {
        match self {
            XmarkScale::Small => "1MB",
            XmarkScale::Medium => "10MB",
            XmarkScale::Large => "100MB",
            XmarkScale::ExtraLarge => "1GB",
        }
    }

    /// The S/M/L/XL ladder name used by CLI flags and the `fig3c` harness.
    pub fn short_name(self) -> &'static str {
        match self {
            XmarkScale::Small => "S",
            XmarkScale::Medium => "M",
            XmarkScale::Large => "L",
            XmarkScale::ExtraLarge => "XL",
        }
    }

    /// Parses a scale from its ladder name (`S`/`M`/`L`/`XL`, case
    /// insensitive) or its size label (`1MB`/`10MB`/`100MB`/`1GB`).
    pub fn parse(s: &str) -> Option<XmarkScale> {
        let upper = s.trim().to_ascii_uppercase();
        Self::ALL
            .into_iter()
            .find(|sc| sc.short_name() == upper || sc.label() == upper)
    }
}

/// The generator configuration for an XMark document of roughly
/// `target_nodes` nodes. Identical to the default configuration up to the
/// paper's largest scale; beyond it the repeat cap grows with the target so
/// multi-million-node documents do not saturate (the default cap of 2 000
/// repetitions per list bounds document growth at around half a million
/// nodes).
pub fn xmark_config(target_nodes: usize) -> GenValidConfig {
    GenValidConfig {
        max_repeat_cap: (target_nodes / 250).max(2_000),
        ..GenValidConfig::with_target(target_nodes)
    }
}

/// Generates an XMark-style document of roughly `target_nodes` nodes.
pub fn xmark_document(target_nodes: usize, seed: u64) -> Tree {
    let dtd = xmark_dtd();
    generate_valid(&dtd, &xmark_config(target_nodes), seed)
}

/// Streams the serialized XML of `xmark_document(target_nodes, seed)` to a
/// writer in `O(depth)` memory — the paper-scale ingest path: the document
/// never exists as a tree or string on the producing side. The bytes are
/// exactly `xmark_document(target_nodes, seed).to_xml()`.
pub fn stream_xmark_document<W: Write>(
    target_nodes: usize,
    seed: u64,
    writer: W,
) -> io::Result<GenXmlStats> {
    let dtd = xmark_dtd();
    generate_valid_xml(&dtd, &xmark_config(target_nodes), seed, writer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qui_schema::SchemaLike;

    #[test]
    fn dtd_has_the_expected_size_and_cliques() {
        let d = xmark_dtd();
        // The paper reports |d| = 76 for the XMark DTD (which also declares
        // attribute-only helpers we omit); our transcription stays in the
        // same ballpark.
        assert!((70..=80).contains(&d.size()), "got {}", d.size());
        assert!(d.is_recursive());
        for t in ["parlist", "listitem", "bold", "keyword", "emph"] {
            assert!(
                d.is_recursive_sym(d.sym(t).unwrap()),
                "{t} should be recursive"
            );
        }
        assert!(!d.is_recursive_sym(d.sym("person").unwrap()));
    }

    #[test]
    fn generated_documents_validate() {
        let d = xmark_dtd();
        let doc = xmark_document(5_000, 42);
        assert!(d.validate(&doc).is_ok());
        assert!(doc.size() >= 2_000, "doc too small: {}", doc.size());
    }

    #[test]
    fn scales_are_ordered() {
        for pair in XmarkScale::ALL.windows(2) {
            assert!(pair[0].target_nodes() < pair[1].target_nodes());
        }
    }

    #[test]
    fn scales_parse_from_both_namings() {
        for sc in XmarkScale::ALL {
            assert_eq!(XmarkScale::parse(sc.short_name()), Some(sc));
            assert_eq!(XmarkScale::parse(sc.label()), Some(sc));
            assert_eq!(XmarkScale::parse(&sc.short_name().to_lowercase()), Some(sc));
        }
        assert_eq!(XmarkScale::parse("XXL"), None);
    }

    #[test]
    fn streamed_document_matches_the_in_memory_one() {
        let mut bytes = Vec::new();
        let stats = stream_xmark_document(2_000, 42, &mut bytes).unwrap();
        let tree = xmark_document(2_000, 42);
        let xml = tree.to_xml();
        assert_eq!(String::from_utf8_lossy(&bytes), xml);
        assert_eq!(stats.nodes as usize, tree.size());
        // Reparsing merges adjacent text nodes (XMark's mixed content can
        // generate several in a row), so the reparsed document matches the
        // generator's tree through its serialization.
        let reparsed = qui_xmlstore::parse_xml_reader(std::io::Cursor::new(bytes)).unwrap();
        assert_eq!(reparsed.to_xml(), xml);
        assert!(xmark_dtd().validate(&reparsed).is_ok());
    }
}
