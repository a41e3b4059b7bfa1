//! Chain-based update-update commutativity analysis.
//!
//! The paper's introduction lists concurrency control among the motivations
//! for static independence detection, and its related-work section discusses
//! the commutativity analysis of Ghelli, Rose and Siméon (ACM TODS 2008),
//! noting that their schema-less technique "can be directly extended to
//! query-update independence detection". This module goes the other way: it
//! extends the paper's *schema-aware chain inference* to the update-update
//! problem.
//!
//! Two updates `u1` and `u2` **commute** on a schema `d` when, for every
//! valid instance, applying `u1; u2` and `u2; u1` produces value-equivalent
//! documents (and neither order makes the other update select different
//! targets). The sufficient static condition implemented here is the natural
//! generalisation of Definition 4.1:
//!
//! * **write/read disjointness** — the update chains of `u1` must not
//!   conflict with the return or used chains of the *read projection* of
//!   `u2` (the query performing exactly the navigation `u2` performs to find
//!   its targets and sources), and symmetrically;
//! * **write/write disjointness** — no full update chain of `u1` may be a
//!   prefix of a full update chain of `u2` or vice versa (two writes in the
//!   same ancestor-descendant line, or into the same node, may produce
//!   order-dependent results).
//!
//! Both conditions are checked with the same engines (explicit chain sets or
//! CDAGs) and the same `k`-bound machinery as the query-update analysis, so
//! the finite analysis of §5 carries over unchanged with `k = k_{u1} +
//! k_{u2}`.

use crate::analyzer::{AnalyzerConfig, EngineKind};
use crate::conflict::item_conflicts;
use crate::engine::cdag::CdagEngine;
use crate::kbound::{k_of_query, k_of_update};
use crate::session::{AnalysisSession, SessionBuilder};
use crate::types::UpdateChains;
use qui_schema::SchemaLike;
use qui_xquery::{Query, Update};

/// Why two updates were *not* declared commutative.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommutConflict {
    /// A write of the first update may change what the second update reads
    /// (its target/source navigation).
    FirstWritesWhatSecondReads,
    /// A write of the second update may change what the first update reads.
    SecondWritesWhatFirstReads,
    /// The two updates may write on the same ancestor-descendant line.
    WriteWrite,
}

/// The result of a commutativity check.
#[derive(Clone, Debug)]
pub struct CommutVerdict {
    /// `true` when the static analysis proves that the two updates commute.
    commutes: bool,
    /// The multiplicity bound used by the finite analysis.
    pub k: usize,
    /// The first conflict found, when the pair is not proved commutative.
    pub conflict: Option<CommutConflict>,
}

impl CommutVerdict {
    /// `true` when the static analysis proves the two updates commute.
    pub fn commutes(&self) -> bool {
        self.commutes
    }
}

/// Builds the *read projection* of an update: the query that performs the
/// same navigation over the input document as the update does to locate its
/// targets and its source elements.
///
/// The projection is used to detect write/read interference: if another
/// update changes nodes this query depends on, the two updates may not
/// commute because the second one could select different targets depending
/// on the order.
pub fn read_projection(u: &Update) -> Query {
    match u {
        Update::Empty => Query::Empty,
        Update::Concat(a, b) => Query::concat(read_projection(a), read_projection(b)),
        Update::For { var, source, body } => Query::For {
            var: var.clone(),
            source: source.clone(),
            ret: Box::new(read_projection(body)),
        },
        Update::Let { var, source, body } => Query::Let {
            var: var.clone(),
            source: source.clone(),
            ret: Box::new(read_projection(body)),
        },
        Update::If { cond, then, els } => Query::If {
            cond: cond.clone(),
            then: Box::new(read_projection(then)),
            els: Box::new(read_projection(els)),
        },
        Update::Delete { target } | Update::Rename { target, .. } => (**target).clone(),
        Update::Insert { source, target, .. } | Update::Replace { target, source } => {
            Query::concat((**target).clone(), (**source).clone())
        }
    }
}

/// The chain-based commutativity analyzer over a schema.
pub struct CommutativityAnalyzer<'a, S: SchemaLike> {
    schema: &'a S,
    config: AnalyzerConfig,
}

impl<'a, S: SchemaLike> CommutativityAnalyzer<'a, S> {
    /// Creates an analyzer with the default configuration.
    pub fn new(schema: &'a S) -> Self {
        CommutativityAnalyzer {
            schema,
            config: AnalyzerConfig::default(),
        }
    }

    /// Creates an analyzer with an explicit configuration (engine selection,
    /// budgets and `k` override are honoured exactly as for the query-update
    /// analyzer).
    pub fn with_config(schema: &'a S, config: AnalyzerConfig) -> Self {
        CommutativityAnalyzer { schema, config }
    }

    /// The multiplicity bound used for a pair of updates.
    pub fn k_for(&self, u1: &Update, u2: &Update) -> usize {
        self.config
            .k_override
            .unwrap_or_else(|| k_of_update(u1) + k_of_update(u2))
    }

    /// Checks whether the two updates commute on every valid instance of the
    /// schema. The check is symmetric in its arguments.
    pub fn check(&self, u1: &Update, u2: &Update) -> CommutVerdict {
        let k = self.k_for(u1, u2);
        // Write/read interference, both directions, via the query-update
        // analysis of the read projections, at a bound covering them too.
        let session = SessionBuilder::new(self.schema)
            .config(self.config.clone())
            .k_override(Some(k.max(self.read_k(u1, u2))))
            .build();

        let r2 = read_projection(u2);
        if !session.check(&r2, u1).is_independent() {
            return CommutVerdict {
                commutes: false,
                k,
                conflict: Some(CommutConflict::FirstWritesWhatSecondReads),
            };
        }
        let r1 = read_projection(u1);
        if !session.check(&r1, u2).is_independent() {
            return CommutVerdict {
                commutes: false,
                k,
                conflict: Some(CommutConflict::SecondWritesWhatFirstReads),
            };
        }
        // Write/write interference.
        if self.writes_conflict(&session, u1, u2, k) {
            return CommutVerdict {
                commutes: false,
                k,
                conflict: Some(CommutConflict::WriteWrite),
            };
        }
        CommutVerdict {
            commutes: true,
            k,
            conflict: None,
        }
    }

    /// The largest bound needed so that read projections are covered as well.
    fn read_k(&self, u1: &Update, u2: &Update) -> usize {
        let r1 = k_of_query(&read_projection(u1));
        let r2 = k_of_query(&read_projection(u2));
        (r1 + k_of_update(u2)).max(r2 + k_of_update(u1))
    }

    /// Checks whether the write sets (update chains) of the two updates may
    /// touch the same ancestor-descendant line.
    fn writes_conflict(
        &self,
        session: &AnalysisSession<'_, S>,
        u1: &Update,
        u2: &Update,
        k: usize,
    ) -> bool {
        if self.config.engine != EngineKind::Cdag {
            let w1 = session.explicit_update_chains(u1, k);
            let w2 = session.explicit_update_chains(u2, k);
            if let (Some(w1), Some(w2)) = (w1, w2) {
                return update_chains_conflict(&w1, &w2);
            }
            if self.config.engine == EngineKind::Explicit {
                // The caller insisted on the explicit engine but the chain
                // space blew up; answer conservatively.
                return true;
            }
        }
        let eng = CdagEngine::new(self.schema, k).with_element_chains(self.config.element_chains);
        let d1 = eng.infer_update(&eng.root_gamma(u1.free_vars()), u1);
        let d2 = eng.infer_update(&eng.root_gamma(u2.free_vars()), u2);
        eng.dag_conflicts(&d1, &d2) || eng.dag_conflicts(&d2, &d1)
    }
}

/// Prefix conflict between two sets of update chains, through their full
/// chains `c.c'` (mirroring `confl` of Definition 4.1 applied to writes).
pub fn update_chains_conflict(w1: &UpdateChains, w2: &UpdateChains) -> bool {
    for a in &w1.chains {
        let fa = a.full();
        for b in &w2.chains {
            let fb = b.full();
            if item_conflicts(&fa, &fb) || item_conflicts(&fb, &fa) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use qui_schema::Dtd;
    use qui_xquery::{parse_query, parse_update};

    fn bib() -> Dtd {
        Dtd::parse_compact(
            "bib -> book* ; book -> (title, author*, publisher?, price?) ; title -> #PCDATA ; \
             author -> (last, first) ; last -> #PCDATA ; first -> #PCDATA ; \
             publisher -> #PCDATA ; price -> #PCDATA",
            "bib",
        )
        .unwrap()
    }

    #[test]
    fn read_projection_of_delete_is_its_target() {
        let u = parse_update("delete //price").unwrap();
        let q = parse_query("//price").unwrap();
        assert_eq!(read_projection(&u), q);
    }

    #[test]
    fn read_projection_keeps_iteration_structure() {
        let u = parse_update("for $b in //book return insert <author/> into $b").unwrap();
        let q = read_projection(&u);
        assert!(matches!(q, Query::For { .. }));
        // The projection reads the books (the targets); element construction
        // contributes no input navigation beyond its content.
        assert!(q.to_string().contains("child::book"), "{q}");
    }

    #[test]
    fn disjoint_regions_commute() {
        let dtd = bib();
        let a = CommutativityAnalyzer::new(&dtd);
        let u1 = parse_update("delete //price").unwrap();
        let u2 = parse_update("for $a in //author return delete $a/first").unwrap();
        assert!(a.check(&u1, &u2).commutes());
        assert!(a.check(&u2, &u1).commutes());
    }

    #[test]
    fn write_write_on_same_line_does_not_commute() {
        let dtd = bib();
        let a = CommutativityAnalyzer::new(&dtd);
        // Both updates write beneath the same book nodes.
        let u1 = parse_update("for $b in //book return insert <author/> into $b").unwrap();
        let u2 = parse_update("delete //book/author").unwrap();
        let v = a.check(&u1, &u2);
        assert!(!v.commutes());
    }

    #[test]
    fn delete_ancestor_vs_descendant_write_does_not_commute() {
        let dtd = bib();
        let a = CommutativityAnalyzer::new(&dtd);
        let u1 = parse_update("delete //book").unwrap();
        let u2 = parse_update("delete //book/title").unwrap();
        let v = a.check(&u1, &u2);
        assert!(!v.commutes());
        assert!(v.conflict.is_some());
    }

    #[test]
    fn write_affecting_other_targets_does_not_commute() {
        let dtd = bib();
        let a = CommutativityAnalyzer::new(&dtd);
        // u1 deletes authors; u2 selects books *having* authors as targets.
        let u1 = parse_update("delete //book/author").unwrap();
        let u2 = parse_update("for $b in //book[author] return delete $b/price").unwrap();
        let v = a.check(&u1, &u2);
        assert!(!v.commutes());
    }

    #[test]
    fn rename_in_disjoint_subtrees_commutes() {
        let dtd =
            Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c ; c -> #PCDATA", "doc").unwrap();
        let a = CommutativityAnalyzer::new(&dtd);
        let u1 = parse_update("for $x in //a/c return rename $x as c").unwrap();
        let u2 = parse_update("delete //b/c").unwrap();
        assert!(a.check(&u1, &u2).commutes());
    }

    #[test]
    fn commutativity_is_symmetric() {
        let dtd = bib();
        let a = CommutativityAnalyzer::new(&dtd);
        let pairs = [
            ("delete //price", "delete //title"),
            ("delete //book", "delete //book/title"),
            (
                "for $b in //book return insert <price>1</price> into $b",
                "delete //price",
            ),
        ];
        for (s1, s2) in pairs {
            let u1 = parse_update(s1).unwrap();
            let u2 = parse_update(s2).unwrap();
            assert_eq!(
                a.check(&u1, &u2).commutes(),
                a.check(&u2, &u1).commutes(),
                "{s1} vs {s2}"
            );
        }
    }

    #[test]
    fn k_override_is_honoured() {
        let dtd = bib();
        let config = AnalyzerConfig {
            k_override: Some(4),
            ..Default::default()
        };
        let a = CommutativityAnalyzer::with_config(&dtd, config);
        let u1 = parse_update("delete //price").unwrap();
        let u2 = parse_update("delete //title").unwrap();
        let v = a.check(&u1, &u2);
        assert_eq!(v.k, 4);
        assert!(v.commutes());
    }

    #[test]
    fn empty_update_commutes_with_everything() {
        let dtd = bib();
        let a = CommutativityAnalyzer::new(&dtd);
        let u1 = Update::Empty;
        for s in [
            "delete //book",
            "for $b in //book return insert <author/> into $b",
            "for $t in //title return rename $t as heading",
        ] {
            let u2 = parse_update(s).unwrap();
            assert!(a.check(&u1, &u2).commutes(), "{s}");
            assert!(a.check(&u2, &u1).commutes(), "{s}");
        }
    }
}
