//! # qui-baseline — the schema-based *type set* analysis
//!
//! This crate re-implements, from its published description, the
//! schema-based independence analysis of Benedikt & Cheney ("Schema-based
//! independence analysis for XML updates", VLDB 2009) that the paper uses as
//! its comparison baseline:
//!
//! * for the query, infer the set of node **types traversed** (every type on
//!   a path from the root to a node the query selects, plus the types of all
//!   descendants of returned nodes);
//! * for the update, infer the set of node **types impacted** (the types of
//!   targeted nodes, of their new/removed descendants and of inserted
//!   content);
//! * declare the pair independent iff the two sets are disjoint.
//!
//! Because only *types* are kept — not the chains leading to them — the
//! analysis cannot distinguish a `c` reached under `a` from a `c` reached
//! under `b`, which is exactly the imprecision the chain-based analysis
//! removes (paper §1, the `//a//c` vs `delete //b//c` example, and the
//! `//title` vs insert-into-`book` example). We reproduce that behaviour so
//! that the precision experiment (Fig. 3.b) can compare the two techniques.

use qui_core::{AnalysisSession, Jobs, QueryChains, SessionBuilder};
use qui_schema::{Chain, Dtd, SchemaLike, Sym};
use qui_xquery::{Query, Update};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The type sets inferred for a query by the baseline analysis.
#[derive(Clone, Debug, Default)]
pub struct QueryTypes {
    /// Types traversed on the way to (and below) selected nodes.
    pub traversed: BTreeSet<Sym>,
}

/// The type sets inferred for an update by the baseline analysis.
#[derive(Clone, Debug, Default)]
pub struct UpdateTypes {
    /// Types whose nodes (or whose content) the update may change.
    pub impacted: BTreeSet<Sym>,
}

/// The baseline analyzer.
pub struct TypeSetAnalyzer<'a> {
    dtd: &'a Dtd,
    /// The chain inference the type sets are read from (explicit engine,
    /// one worker), cached across calls.
    chains: AnalysisSession<'a, Dtd>,
}

impl<'a> TypeSetAnalyzer<'a> {
    /// Creates a baseline analyzer over a DTD.
    pub fn new(dtd: &'a Dtd) -> Self {
        TypeSetAnalyzer {
            dtd,
            chains: SessionBuilder::new(dtd).jobs(Jobs::Fixed(1)).build(),
        }
    }

    /// The explicit query chains at `k_q + 1`, or `None` on budget overflow.
    fn query_chains(&self, q: &Query) -> Option<Arc<QueryChains>> {
        self.chains
            .explicit_query_chains(q, qui_core::k_of_query(q) + 1)
    }

    /// Infers the traversed-type set of a query.
    ///
    /// The baseline is obtained by running the chain inference of `qui-core`
    /// and then *forgetting the chain structure*: every symbol occurring on a
    /// return or used chain is traversed, and so is every type reachable
    /// below a returned node. This gives the baseline the same language
    /// coverage while reproducing its characteristic loss of context.
    pub fn query_types(&self, q: &Query) -> QueryTypes {
        let mut out = QueryTypes::default();
        match self.query_chains(q) {
            Some(qc) => {
                for c in &qc.returns {
                    self.add_chain_symbols(&mut out.traversed, c);
                    if let Some(last) = c.last() {
                        out.traversed.extend(self.dtd.reachable_from(last));
                        out.traversed.insert(last);
                    }
                }
                for item in &qc.used {
                    self.add_chain_symbols(&mut out.traversed, &item.chain);
                    if item.extensible {
                        if let Some(last) = item.chain.last() {
                            out.traversed.extend(self.dtd.reachable_from(last));
                        }
                    }
                }
            }
            None => {
                // Chain materialization blew up: fall back to the whole
                // alphabet (the baseline's own inference is type-level and
                // never blows up, but it also never returns less than this
                // for such queries).
                out.traversed.extend(self.dtd.alphabet());
            }
        }
        out
    }

    /// Infers the impacted-type set of an update by structural recursion on
    /// the update, mirroring the published rules: deletions impact the
    /// deleted type and its descendants, renamings the old and new types,
    /// insertions the *container* type and the inserted content types,
    /// replacements both.
    pub fn update_types(&self, u: &Update) -> UpdateTypes {
        let mut out = UpdateTypes::default();
        self.collect_update(u, &mut out.impacted);
        out
    }

    fn collect_update(&self, u: &Update, out: &mut BTreeSet<Sym>) {
        match u {
            Update::Empty => {}
            Update::Concat(a, b) => {
                self.collect_update(a, out);
                self.collect_update(b, out);
            }
            Update::If { then, els, .. } => {
                self.collect_update(then, out);
                self.collect_update(els, out);
            }
            Update::For { body, .. } | Update::Let { body, .. } => {
                self.collect_update(body, out);
            }
            Update::Delete { target } => {
                for t in self.return_types(target) {
                    out.insert(t);
                    out.extend(self.dtd.reachable_from(t));
                }
            }
            Update::Rename { target, new_tag } => {
                out.extend(self.return_types(target));
                if let Some(s) = self.dtd.sym(new_tag) {
                    out.insert(s);
                }
            }
            Update::Insert { source, target, .. } => {
                out.extend(self.return_types(target));
                self.collect_content(source, out);
            }
            Update::Replace { target, source } => {
                for t in self.return_types(target) {
                    out.insert(t);
                    out.extend(self.dtd.reachable_from(t));
                }
                self.collect_content(source, out);
            }
        }
    }

    /// Types of the nodes a target/source query can select (the last symbols
    /// of its return chains).
    fn return_types(&self, q: &Query) -> BTreeSet<Sym> {
        match self.query_chains(q) {
            Some(qc) => qc.returns.iter().filter_map(|c| c.last()).collect(),
            None => self.dtd.alphabet().collect(),
        }
    }

    /// Types of the content produced by an insert/replace source expression:
    /// constructed element tags and copied node types, with their
    /// descendants.
    fn collect_content(&self, source: &Query, out: &mut BTreeSet<Sym>) {
        match self.query_chains(source) {
            Some(qc) => {
                for c in &qc.returns {
                    if let Some(t) = c.last() {
                        out.insert(t);
                        out.extend(self.dtd.reachable_from(t));
                    }
                }
                for e in &qc.elements {
                    for &s in e.chain.symbols() {
                        if self.dtd.alphabet().any(|a| a == s) {
                            out.insert(s);
                            out.extend(self.dtd.reachable_from(s));
                        }
                    }
                }
            }
            None => out.extend(self.dtd.alphabet()),
        }
    }

    fn add_chain_symbols(&self, set: &mut BTreeSet<Sym>, c: &Chain) {
        set.extend(c.symbols().iter().copied());
    }

    /// The baseline independence check: disjointness of the two type sets.
    ///
    /// The comparison is made on element types only: the string type `S`
    /// occurs under almost every element and the type-set technique reasons
    /// about element types, so including it would only add noise.
    pub fn independent(&self, q: &Query, u: &Update) -> bool {
        let qt = self.query_types(q);
        let ut = self.update_types(u);
        qt.traversed.intersection(&ut.impacted).all(|s| s.is_text())
    }

    /// Pretty-prints a type set using the DTD's names.
    pub fn show_types(&self, set: &BTreeSet<Sym>) -> Vec<String> {
        set.iter()
            .map(|&s| self.dtd.type_label(s).to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qui_xquery::{parse_query, parse_update};

    fn figure1() -> Dtd {
        Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap()
    }

    fn bib() -> Dtd {
        Dtd::parse_compact(
            "bib -> book* ; book -> (title, author*, price?) ; title -> #PCDATA ; \
             author -> (first?, last) ; first -> #PCDATA ; last -> #PCDATA ; price -> #PCDATA",
            "bib",
        )
        .unwrap()
    }

    #[test]
    fn baseline_misses_q1_u1_independence() {
        // The paper's motivating example: the type-set analysis infers type c
        // for both sides and wrongly excludes independence.
        let d = figure1();
        let b = TypeSetAnalyzer::new(&d);
        let q1 = parse_query("//a//c").unwrap();
        let u1 = parse_update("delete //b//c").unwrap();
        assert!(!b.independent(&q1, &u1));
        // The chain analysis does detect it (sanity cross-check).
        let chains = AnalysisSession::new(&d);
        assert!(chains.check(&q1, &u1).is_independent());
    }

    #[test]
    fn baseline_misses_q2_u2_independence() {
        let d = bib();
        let b = TypeSetAnalyzer::new(&d);
        let q2 = parse_query("//title").unwrap();
        let u2 = parse_update("for $x in //book return insert <author/> into $x").unwrap();
        // Both sides mention the type book → baseline says dependent.
        assert!(!b.independent(&q2, &u2));
        let chains = AnalysisSession::new(&d);
        assert!(chains.check(&q2, &u2).is_independent());
    }

    #[test]
    fn baseline_still_detects_disjoint_type_sets() {
        // When the type sets really are disjoint the baseline succeeds.
        let d = bib();
        let b = TypeSetAnalyzer::new(&d);
        let q = parse_query("//title").unwrap();
        let u = parse_update("delete //price").unwrap();
        assert!(b.independent(&q, &u));
    }

    #[test]
    fn baseline_is_sound_on_dependent_pairs() {
        let d = figure1();
        let b = TypeSetAnalyzer::new(&d);
        let q = parse_query("//c").unwrap();
        let u = parse_update("delete //b//c").unwrap();
        assert!(!b.independent(&q, &u));
    }

    #[test]
    fn query_types_include_descendants_of_returns() {
        let d = bib();
        let b = TypeSetAnalyzer::new(&d);
        let q = parse_query("//book").unwrap();
        let types = b.query_types(&q);
        let names = b.show_types(&types.traversed);
        assert!(names.contains(&"book".to_string()));
        assert!(names.contains(&"title".to_string()));
        assert!(names.contains(&"last".to_string()));
    }
}
