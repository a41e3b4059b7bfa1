//! The bibliographic schema of the W3C *XML Query Use Cases*, used by the
//! paper's motivating examples (§1 and §3).
//!
//! The paper discusses the pair `q2 = //title`, `u2 = for x in //book return
//! insert <author/> into x` over this DTD: the type-set baseline infers the
//! shared type `book` and misses the independence, whereas the chain analysis
//! infers `bib.book.title` for the query and `bib.book:author…` for the
//! update, which do not conflict. This module provides:
//!
//! * [`bib_dtd`] — the Use Cases bibliography DTD;
//! * [`bib_document`] — schema-driven generation of bibliography documents;
//! * [`bib_pairs`] — a labelled suite of query-update pairs over the DTD
//!   (including the paper's `q2`/`u2`), used by the `bibliography` example
//!   and by the integration tests that compare the chain analysis against
//!   the type-set baseline.

use qui_schema::{generate_valid, Dtd, GenValidConfig};
use qui_xmlstore::Tree;
use qui_xquery::{parse_query, parse_update, Query, Update};

/// The bibliography DTD of the XQuery Use Cases ("bib.dtd").
///
/// ```text
/// bib       ← book*
/// book      ← title, (author+ | editor+), publisher, price
/// author    ← last, first
/// editor    ← last, first, affiliation
/// title, publisher, price, last, first, affiliation ← #PCDATA
/// ```
pub fn bib_dtd() -> Dtd {
    Dtd::builder()
        .rule("bib", "book*")
        .rule("book", "(title, (author+ | editor+), publisher, price)")
        .rule("title", "#PCDATA")
        .rule("author", "(last, first)")
        .rule("editor", "(last, first, affiliation)")
        .rule("publisher", "#PCDATA")
        .rule("price", "#PCDATA")
        .rule("last", "#PCDATA")
        .rule("first", "#PCDATA")
        .rule("affiliation", "#PCDATA")
        .build("bib")
        .expect("the bibliography DTD is well-formed")
}

/// Generates a bibliography document of roughly `target_nodes` nodes, valid
/// w.r.t. [`bib_dtd`] by construction.
pub fn bib_document(target_nodes: usize, seed: u64) -> Tree {
    let dtd = bib_dtd();
    generate_valid(&dtd, &GenValidConfig::with_target(target_nodes), seed)
}

/// A labelled query-update pair over the bibliography DTD.
#[derive(Clone, Debug)]
pub struct UseCasePair {
    /// A short name for reports (`uc1`, `uc2`, …).
    pub name: &'static str,
    /// The view/query source text.
    pub query_src: &'static str,
    /// The update source text.
    pub update_src: &'static str,
    /// The parsed query.
    pub query: Query,
    /// The parsed update.
    pub update: Update,
    /// The manually established ground truth: `true` iff the pair is
    /// independent on every valid bibliography document.
    pub independent: bool,
    /// Why the label holds — kept with the data so the example and the tests
    /// can print meaningful reports.
    pub rationale: &'static str,
}

/// The source texts and labels of the use-case suite.
///
/// `uc1` is the paper's `q2`/`u2` pair (§1, §3); the remaining pairs cover
/// every update operator and both outcomes.
pub const USECASE_SOURCES: [(&str, &str, &str, bool, &str); 10] = [
    (
        "uc1",
        "//title",
        "for $x in //book return insert <author/> into $x",
        true,
        "inserted author elements never contain title elements (the paper's q2/u2)",
    ),
    (
        "uc2",
        "//author/last",
        "for $x in //book return insert <author><last>L</last><first>F</first></author> into $x",
        false,
        "the inserted author carries a last element, which the view returns",
    ),
    (
        "uc3",
        "//editor/affiliation",
        "delete //author",
        true,
        "affiliations only occur under editor, never under author",
    ),
    (
        "uc4",
        "//book/title",
        "delete //book/price",
        true,
        "prices are disjoint from titles and are not ancestors of them",
    ),
    (
        "uc5",
        "//book/title",
        "delete //book",
        false,
        "deleting a book removes its title",
    ),
    (
        "uc6",
        "for $b in //book return ($b/title, $b/author/last)",
        "for $e in //editor return rename $e as reviewer",
        true,
        "the view never visits editor elements",
    ),
    (
        "uc7",
        "//book/author",
        "for $a in //book/author return rename $a as creator",
        false,
        "renaming changes the very elements the view returns",
    ),
    (
        "uc8",
        "//publisher",
        "for $p in //price return replace $p with <price>0</price>",
        true,
        "prices and publishers are disjoint siblings",
    ),
    (
        "uc9",
        "//book",
        "for $b in //book return replace $b/publisher with <publisher>ACM</publisher>",
        false,
        "the view returns whole book subtrees, which contain the replaced publisher",
    ),
    (
        "uc10",
        "for $b in //book return $b/author/first",
        "insert <book><title>T</title><author><last>L</last><first>F</first></author><publisher>P</publisher><price>1</price></book> into $root",
        false,
        "the inserted book contains an author/first the view would return",
    ),
];

/// Parses and returns the labelled use-case suite.
pub fn bib_pairs() -> Vec<UseCasePair> {
    USECASE_SOURCES
        .iter()
        .map(|(name, q, u, independent, rationale)| UseCasePair {
            name,
            query_src: q,
            update_src: u,
            query: parse_query(q).unwrap_or_else(|e| panic!("{name} query: {e}")),
            update: parse_update(u).unwrap_or_else(|e| panic!("{name} update: {e}")),
            independent: *independent,
            rationale,
        })
        .collect()
}

/// Looks a pair up by name.
pub fn bib_pair(name: &str) -> Option<UseCasePair> {
    bib_pairs().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qui_core::AnalysisSession;
    use qui_xquery::{dynamic_independent, DynamicOutcome};

    #[test]
    fn bib_dtd_shape() {
        let dtd = bib_dtd();
        assert_eq!(dtd.name(dtd.start()), "bib");
        assert_eq!(dtd.size(), 10);
        assert!(!qui_schema::SchemaLike::is_recursive(&dtd));
        let book = dtd.sym("book").unwrap();
        let title = dtd.sym("title").unwrap();
        let affiliation = dtd.sym("affiliation").unwrap();
        assert!(dtd.reaches(book, title));
        assert!(!dtd.reaches(dtd.sym("author").unwrap(), affiliation));
    }

    #[test]
    fn bib_documents_are_valid() {
        let dtd = bib_dtd();
        for seed in [1, 7, 42] {
            let doc = bib_document(300, seed);
            assert!(dtd.validate(&doc).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn all_pairs_parse() {
        assert_eq!(bib_pairs().len(), USECASE_SOURCES.len());
    }

    #[test]
    fn paper_q2_u2_detected_only_by_chains() {
        let dtd = bib_dtd();
        let pair = bib_pair("uc1").unwrap();
        let chains = AnalysisSession::new(&dtd);
        assert!(chains.check(&pair.query, &pair.update).is_independent());
        let types = qui_baseline::TypeSetAnalyzer::new(&dtd);
        assert!(
            !types.independent(&pair.query, &pair.update),
            "the type-set baseline shares the 'book' type and must miss this pair"
        );
    }

    #[test]
    fn chain_verdicts_match_labels() {
        let dtd = bib_dtd();
        let analyzer = AnalysisSession::new(&dtd);
        for pair in bib_pairs() {
            let verdict = analyzer.check(&pair.query, &pair.update);
            if pair.independent {
                assert!(
                    verdict.is_independent(),
                    "{}: expected the chain analysis to detect independence ({})",
                    pair.name,
                    pair.rationale
                );
            } else {
                assert!(
                    !verdict.is_independent(),
                    "{}: a dependent pair must never be declared independent ({})",
                    pair.name,
                    pair.rationale
                );
            }
        }
    }

    #[test]
    fn dependent_labels_are_dynamically_witnessed() {
        // For every pair labelled dependent, some generated instance must
        // actually show a change — otherwise the label itself is wrong.
        let dtd = bib_dtd();
        for pair in bib_pairs().iter().filter(|p| !p.independent) {
            let mut witnessed = false;
            for seed in 0..8u64 {
                let doc = generate_valid(&dtd, &GenValidConfig::with_target(200), seed);
                if let Ok(DynamicOutcome::Changed) =
                    dynamic_independent(&doc, &pair.query, &pair.update)
                {
                    witnessed = true;
                    break;
                }
            }
            assert!(
                witnessed,
                "{}: no instance witnessed the dependence",
                pair.name
            );
        }
    }

    #[test]
    fn independent_labels_survive_dynamic_checking() {
        let dtd = bib_dtd();
        for pair in bib_pairs().iter().filter(|p| p.independent) {
            for seed in 0..5u64 {
                let doc = generate_valid(&dtd, &GenValidConfig::with_target(200), seed);
                let outcome = dynamic_independent(&doc, &pair.query, &pair.update)
                    .unwrap_or(DynamicOutcome::UnchangedOnThisTree);
                assert!(
                    !outcome.is_changed(),
                    "{}: labelled independent but instance {seed} changed the view",
                    pair.name
                );
            }
        }
    }
}
