//! Chain-based document projection.
//!
//! The soundness proof of the chain inference (Theorem 3.2) rests on XML
//! *projections*: pruning a document down to the nodes typed by the inferred
//! return and used chains preserves the query result. This module makes that
//! construction available as a feature in its own right — the same idea the
//! type-based projection line of work (Marian & Siméon; Benzaken et al.,
//! cited in §8) uses to evaluate queries on documents that do not fit in
//! memory, here driven by chains instead of plain types.
//!
//! There is one projection compiler. [`ChainProjector::automaton_for_query`]
//! infers the query's chains with the CDAG engine and folds the chain-DAGs
//! into a [`PathAutomaton`] with **one state per schema type** (see
//! [`ChainProjector::compile_automaton`] for why folding is sound). Its size
//! is bounded by the schema, not by the number of chains, so descendant
//! views over recursive schema cliques project like any other view, and
//! documents deeper than the engine's `k·|d|` grid keep every node their
//! query needs. The same automaton drives the streaming parser
//! (`qui_xmlstore::StreamConfig::with_projection`, pruned subtrees are never
//! allocated) and the in-memory [`ChainProjector::project_for_query`]
//! (`qui_xmlstore::project_spec`), which make identical decisions.
//!
//! Projection is claimed for documents **valid** against the schema, where a
//! node's chain is simply its root-to-node label path. Labels the schema
//! does not know are kept with their whole subtree when their parent is
//! kept; one nested inside a pruned region is pruned with it.

use crate::engine::cdag::{CdagEngine, ChainDag};
use crate::kbound::k_of_query;
use qui_schema::{SchemaLike, Sym, TEXT_NAME, TEXT_SYM};
use qui_xmlstore::{project_spec, PathAutomaton, Tree};
use qui_xquery::Query;
use std::collections::{BTreeSet, HashSet};

/// Builds chain-based projections for queries over a schema.
pub struct ChainProjector<'a, S: SchemaLike> {
    schema: &'a S,
}

impl<'a, S: SchemaLike> ChainProjector<'a, S> {
    /// Creates a projector for a schema.
    pub fn new(schema: &'a S) -> Self {
        ChainProjector { schema }
    }

    /// Projects a document for a query: the result contains every node the
    /// query may visit or return, so evaluating the query on it gives the
    /// same answer as on the full (valid) document.
    pub fn project_for_query(&self, tree: &Tree, q: &Query) -> Tree {
        project_spec(tree, &self.automaton_for_query(q))
    }

    /// Compiles the query's CDAG chain sets (inferred at bound
    /// `k_of_query(q).max(1) + 1`) into a [`PathAutomaton`].
    pub fn automaton_for_query(&self, q: &Query) -> PathAutomaton {
        let k = k_of_query(q).max(1) + 1;
        let eng = CdagEngine::new(self.schema, k);
        let chains = eng.infer_query(&eng.root_gamma(q.free_vars()), q);
        self.compile_automaton(&eng, &chains.returns, &chains.used)
    }

    /// Compiles a pair of CDAG chain sets into a [`PathAutomaton`]: return
    /// chains keep their whole subtrees, used chains keep their paths, and
    /// extensible used chains their subtrees.
    ///
    /// **States are schema types**, not CDAG `(type, depth)` nodes: every
    /// DAG edge `(s, i) → (t, i + 1)` becomes the transition `s → t` on
    /// `t`'s label, and a type is an end (or keeps its subtree) when any of
    /// its nodes is. Edges into the unknown-label sentinel make their source
    /// keep its subtree, since such chains cannot be matched against
    /// document labels.
    ///
    /// *Soundness.* Mapping each node to its type maps every root-to-end
    /// path of the DAGs to an accepted path of the automaton, so it keeps
    /// every chain the engine inferred inside its `k·|d|` grid. Chains of a
    /// valid document deeper than the grid come from descendant and
    /// ancestor steps walking recursive cycles. Pumping such a chain down
    /// (dropping cycle repetitions inside those steps' segments, away from
    /// any one chosen edge) gives a chain of the same step sequence that
    /// fits the grid and still contains that edge, its root and its end. So
    /// each consecutive type pair of the deep chain is a DAG edge, its first
    /// type is the root and its last an end: the automaton accepts it. The
    /// folded language thus contains what Theorem 3.2's projection needs at
    /// any depth, which a per-node automaton cannot: there, a path deeper
    /// than the grid dies at a node with no deeper edge. Folding only adds
    /// accepted paths, so it never keeps fewer nodes than per-node states
    /// did within the grid. `tests/projection_properties.rs` checks the
    /// argument on documents far deeper than the grid and across the
    /// schema corpus.
    pub fn compile_automaton(
        &self,
        eng: &CdagEngine<'_, S>,
        returns: &ChainDag,
        used: &ChainDag,
    ) -> PathAutomaton {
        let root = eng.root_node();
        let dags = [(returns, true), (used, false)];
        let types: BTreeSet<Sym> = std::iter::once(root)
            .chain(dags.iter().flat_map(|(dag, _)| {
                let edges = dag.edges.iter().flat_map(|&(f, t)| [f, t]);
                edges.chain(dag.ends.keys().copied())
            }))
            .filter_map(|n| eng.sym_of(n))
            .collect();
        let types: Vec<Sym> = types.into_iter().collect();
        let state = |s: Sym| types.binary_search(&s).expect("interned type") as u32;
        let label_of = |s: Sym| -> String {
            if s == TEXT_SYM {
                TEXT_NAME.to_string()
            } else {
                self.schema.type_label(s).to_string()
            }
        };
        let n = types.len();
        let mut transitions: Vec<Vec<(String, u32)>> = vec![Vec::new(); n];
        let mut reaches_end = vec![false; n];
        let mut subtree = vec![false; n];
        for (dag, subtree_at_end) in dags {
            for (&end, &ext) in &dag.ends {
                if let Some(s) = eng.sym_of(end) {
                    reaches_end[state(s) as usize] = true;
                    subtree[state(s) as usize] |= subtree_at_end || ext;
                }
            }
            for &(f, t) in &dag.edges {
                let Some(fs) = eng.sym_of(f) else { continue };
                let fi = state(fs) as usize;
                match eng.sym_of(t) {
                    Some(ts) => {
                        let entry = (label_of(ts), state(ts));
                        if !transitions[fi].contains(&entry) {
                            transitions[fi].push(entry);
                        }
                    }
                    None => {
                        subtree[fi] = true;
                        reaches_end[fi] = true;
                    }
                }
            }
        }
        // Propagate `reaches_end` backward so every ancestor of a kept
        // region decides to descend.
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (fi, outs) in transitions.iter().enumerate() {
            for &(_, t) in outs {
                preds[t as usize].push(fi as u32);
            }
        }
        let mut stack: Vec<u32> = (0..n as u32)
            .filter(|&s| reaches_end[s as usize] || subtree[s as usize])
            .collect();
        for &s in &stack {
            reaches_end[s as usize] = true;
        }
        while let Some(s) = stack.pop() {
            for &p in &preds[s as usize] {
                if !reaches_end[p as usize] {
                    reaches_end[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        let mut known: HashSet<String> = self
            .schema
            .element_types()
            .into_iter()
            .map(|t| self.schema.type_label(t).to_string())
            .collect();
        known.insert(TEXT_NAME.to_string());
        let starts = match eng.sym_of(root) {
            Some(s) => vec![(label_of(s), state(s))],
            None => Vec::new(),
        };
        PathAutomaton {
            starts,
            transitions,
            reaches_end,
            subtree,
            known_labels: known,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::explicit::ExplicitEngine;
    use crate::universe::Universe;
    use qui_schema::Dtd;
    use qui_xmlstore::parse_xml;
    use qui_xquery::dynamic::snapshot_query;
    use qui_xquery::parse_query;

    fn bib() -> Dtd {
        Dtd::parse_compact(
            "bib -> book* ; book -> (title, author*, price?) ; title -> #PCDATA ; \
             author -> (first?, last) ; first -> #PCDATA ; last -> #PCDATA ; price -> #PCDATA",
            "bib",
        )
        .unwrap()
    }

    fn sample() -> Tree {
        parse_xml(
            "<bib>\
               <book><title>t1</title><author><first>f</first><last>l</last></author><price>9</price></book>\
               <book><title>t2</title><price>12</price></book>\
             </bib>",
        )
        .unwrap()
    }

    #[test]
    fn projection_preserves_query_results() {
        let dtd = bib();
        let projector = ChainProjector::new(&dtd);
        let doc = sample();
        for src in [
            "//title",
            "//author/last",
            "//book/price",
            "//book",
            "//first/parent::author",
        ] {
            let q = parse_query(src).unwrap();
            let projected = projector.project_for_query(&doc, &q);
            assert_eq!(
                snapshot_query(&doc, &q).unwrap(),
                snapshot_query(&projected, &q).unwrap(),
                "{src}"
            );
        }
    }

    #[test]
    fn projection_prunes_irrelevant_regions() {
        let dtd = bib();
        let projector = ChainProjector::new(&dtd);
        let doc = sample();
        let q = parse_query("//title").unwrap();
        let projected = projector.project_for_query(&doc, &q);
        assert!(projected.size() < doc.size());
        let xml = projected.to_xml();
        assert!(xml.contains("<title>t1</title>"), "{xml}");
        assert!(!xml.contains("<price>"), "{xml}");
        assert!(!xml.contains("<author>"), "{xml}");
    }

    #[test]
    fn returned_subtrees_are_kept_whole() {
        let dtd = bib();
        let projector = ChainProjector::new(&dtd);
        let doc = sample();
        let q = parse_query("//book").unwrap();
        let projected = projector.project_for_query(&doc, &q);
        // Returning whole books means nothing below book may be pruned.
        assert_eq!(projected.size(), doc.size());
    }

    #[test]
    fn selective_query_keeps_ancestor_paths() {
        let dtd = bib();
        let projector = ChainProjector::new(&dtd);
        let auto = projector.automaton_for_query(&parse_query("//author/last").unwrap());
        let keeps = |path: &[&str]| {
            let path: Vec<String> = path.iter().map(|l| l.to_string()).collect();
            let (on_path, in_subtree) = auto.classify_path(&path);
            on_path || in_subtree
        };
        let last = ["bib", "book", "author", "last"];
        let book = ["bib", "book"];
        let price = ["bib", "book", "price"];
        assert!(keeps(&book), "ancestors of results must be kept");
        assert!(keeps(&last));
        assert!(!keeps(&price), "unrelated siblings must be pruned");
    }

    #[test]
    fn unknown_labels_are_kept_conservatively() {
        let dtd = bib();
        let projector = ChainProjector::new(&dtd);
        let doc =
            parse_xml("<bib><book><title>t</title></book><extra><blob>x</blob></extra></bib>")
                .unwrap();
        let q = parse_query("//title").unwrap();
        let projected = projector.project_for_query(&doc, &q);
        assert!(
            projected.to_xml().contains("<blob>"),
            "unknown regions stay"
        );
        assert_eq!(
            snapshot_query(&doc, &q).unwrap(),
            snapshot_query(&projected, &q).unwrap()
        );
    }

    #[test]
    fn streamed_projection_preserves_query_results() {
        let dtd = bib();
        let projector = ChainProjector::new(&dtd);
        let doc = sample();
        let xml = doc.to_xml();
        for src in ["//title", "//author/last", "//book/price", "//book"] {
            let q = parse_query(src).unwrap();
            let outcome = qui_xmlstore::parse_xml_stream(
                std::io::Cursor::new(xml.as_bytes().to_vec()),
                &qui_xmlstore::StreamConfig::with_projection(projector.automaton_for_query(&q)),
            )
            .unwrap();
            assert_eq!(
                snapshot_query(&doc, &q).unwrap(),
                snapshot_query(&outcome.tree, &q).unwrap(),
                "{src}"
            );
            assert!(outcome.tree.size() <= doc.size(), "{src}");
        }
        // A selective query prunes during the parse.
        let q = parse_query("//title").unwrap();
        let outcome = qui_xmlstore::parse_xml_stream(
            std::io::Cursor::new(xml.as_bytes().to_vec()),
            &qui_xmlstore::StreamConfig::with_projection(projector.automaton_for_query(&q)),
        )
        .unwrap();
        assert!(outcome.stats.nodes_pruned > 0);
        assert!(outcome.tree.size() < doc.size());
    }

    #[test]
    fn automaton_projection_covers_recursive_cliques() {
        // The 3-clique blows any explicit budget for descendant views; the
        // compiled automaton must still project soundly and non-trivially.
        let dtd = Dtd::parse_compact(
            "a -> (b|c|d)* ; b -> (b|c)* ; c -> (b|c)* ; d -> EMPTY",
            "a",
        )
        .unwrap();
        let projector = ChainProjector::new(&dtd);
        let doc =
            parse_xml("<a><b><c><b><c/></b></c><b/></b><c><b><b><c/></b></b></c><d/><d/><d/></a>")
                .unwrap();
        for src in ["//b//c", "//c//b", "//b"] {
            let q = parse_query(src).unwrap();
            let universe = Universe::with_k(&dtd, k_of_query(&q).max(1) + 1);
            let explicit = ExplicitEngine::new(&universe, 50);
            assert!(
                explicit
                    .infer_query(&explicit.root_gamma(q.free_vars()), &q)
                    .is_err(),
                "{src}: the explicit chain sets must overflow for this test to bite"
            );
            let projected = projector.project_for_query(&doc, &q);
            assert_eq!(
                snapshot_query(&doc, &q).unwrap(),
                snapshot_query(&projected, &q).unwrap(),
                "{src}: projection must preserve the query result"
            );
            // Non-trivial: the d leaves are never on a //b-or-//c path.
            assert!(
                projected.size() < doc.size(),
                "{src}: keep-everything defeats the purpose"
            );
        }
    }

    #[test]
    fn automaton_projection_agrees_with_streamed_parse() {
        let dtd = Dtd::parse_compact("a -> (b|c)* ; b -> (b|c)* ; c -> (b|c)*", "a").unwrap();
        let projector = ChainProjector::new(&dtd);
        let q = parse_query("//b//c").unwrap();
        let auto = projector.automaton_for_query(&q);
        let doc = parse_xml("<a><b><c><b/></c></b><c><c><c/></c></c></a>").unwrap();
        let xml = doc.to_xml();
        let outcome = qui_xmlstore::parse_xml_stream(
            std::io::Cursor::new(xml.as_bytes().to_vec()),
            &qui_xmlstore::StreamConfig::with_projection(auto.clone()),
        )
        .unwrap();
        assert!(outcome
            .tree
            .value_equiv(&qui_xmlstore::project_spec(&doc, &auto)));
        assert_eq!(
            snapshot_query(&doc, &q).unwrap(),
            snapshot_query(&outcome.tree, &q).unwrap()
        );
    }

    #[test]
    fn empty_spec_projects_to_the_root() {
        let dtd = bib();
        let projector = ChainProjector::new(&dtd);
        let doc = sample();
        // No chain reaches a `journal`: the automaton keeps only the root.
        let q = parse_query("//journal").unwrap();
        assert!(projector.automaton_for_query(&q).is_empty());
        let projected = projector.project_for_query(&doc, &q);
        assert_eq!(projected.size(), 1);
        assert_eq!(projected.root_tag(), Some("bib"));
    }
}
