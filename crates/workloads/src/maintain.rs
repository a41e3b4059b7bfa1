//! Continuous view maintenance: from "is it independent?" to "what must
//! we recompute?".
//!
//! The Fig. 3.c simulation measures how much re-materialization the static
//! analysis *prunes*. This module goes one step further and actually keeps
//! a set of materialized views live under a sustained update stream, with
//! two strategies:
//!
//! * [`MaintainStrategy::Naive`] — re-evaluate every view after every batch
//!   that changed the document (the no-analysis baseline of the paper's
//!   experiment);
//! * [`MaintainStrategy::Pruned`] — after such a batch, re-evaluate only the
//!   views the chain analysis cannot prove independent of some update in
//!   the batch (Fig. 3.c, extended to batches).
//!
//! Each batch is applied first. [`apply_pending_list`] reports whether the
//! document's value changed; when no update of the batch changed it (a
//! delete or rename whose targets are gone, a rename to the same tag, a
//! replace by value-equal content), the batch is independent of every view
//! in the sense of Def. 2.4 and neither strategy refreshes anything. Those
//! batches count in [`BatchStats::unchanged`] and their views in
//! [`BatchStats::skipped`].
//!
//! The skip decision is the C-independence verdict (Def. 4.1) of an
//! [`AnalysisSession`] the engine owns, built once with the polynomial CDAG
//! engine ([`EngineKind::Cdag`], §6.1). Every view is registered on the
//! session when it is registered here; an update joins the session as a
//! matrix row the first time a batch carrying it changes the document, so
//! a recurring update stream pays the chain analysis once per distinct
//! update and then one matrix lookup per (view, update) per batch. Views
//! registered later get their column computed against every row already
//! present.
//!
//! Update application is sequential (the semantics of a batch is the
//! sequential composition of its updates); re-evaluations are sharded over
//! the `qui-core` thread pool with one O(1) copy-on-write snapshot per
//! view. The deterministic outcome (which views were skipped or
//! re-evaluated, and the serialized view contents) is bit-identical for any
//! worker count and for either strategy; `tests/view_maintenance.rs` pins
//! both properties.
//!
//! A view is materialized as the snapshot it was evaluated on, pinned, plus
//! its result locations (paper §2: a query result is a sequence of
//! locations in a store, and an update only adds locations, so nothing the
//! snapshot holds changes under it). Refreshing a view evaluates it and
//! copies nothing; [`MaintainedView::serialized`] writes the results
//! straight from the snapshot. The cost is memory: each view pins at most
//! one frozen base of the document, the one it was last evaluated on.
//!
//! Because views share the document's base, flattening an updated document
//! ([`Tree::freeze`]) copies that base. The engine therefore flattens the
//! document only before it takes a snapshot (registering a view, or a
//! batch that re-evaluates one), or when the store has lost its label-reach
//! summary (after a rebuild, or an insert or rename that brought a new
//! label), so that every batch leaves the document summarized.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use qui_core::parallel::run_indexed;
use qui_core::session::{AnalysisSession, SessionBuilder};
use qui_core::{EngineKind, Jobs};
use qui_schema::SchemaLike;
use qui_xmlstore::{serialize_node_into, NodeId, Store, Tree};
use qui_xquery::{apply_pending_list, evaluate_query, evaluate_update, EvalError, Query, Update};

/// How a [`MaintenanceEngine`] refreshes its views after each batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaintainStrategy {
    /// Re-evaluate every view after every batch that changed the document.
    Naive,
    /// After a batch that changed the document, re-evaluate only the views
    /// not statically independent of the batch.
    Pruned,
}

/// A live materialized view: the query, the snapshot of the document it
/// was last evaluated on (constructed result nodes included, in its tail)
/// and its result locations in that snapshot. A view with no results keeps
/// no snapshot.
pub struct MaintainedView {
    /// The view's name (workload label).
    pub name: String,
    /// The view query.
    pub query: Query,
    snapshot: Store,
    results: Vec<NodeId>,
}

impl MaintainedView {
    /// Materializes `query` over `doc` (which must be frozen, so the
    /// snapshot is O(1)).
    fn materialize(name: &str, query: &Query, doc: &Tree) -> Result<MaintainedView, EvalError> {
        let mut work = doc.snapshot();
        let root = work.root;
        let results = evaluate_query(&mut work.store, root, query)?;
        Ok(MaintainedView {
            name: name.to_string(),
            query: query.clone(),
            snapshot: if results.is_empty() {
                Store::new()
            } else {
                work.store
            },
            results,
        })
    }

    /// The materialized content, serialized: each result under one
    /// `<view>` element, `<view/>` when there is none. This is the value
    /// the differential tests compare across strategies.
    pub fn serialized(&self) -> String {
        if self.results.is_empty() {
            return "<view/>".to_string();
        }
        let mut out = String::from("<view>");
        for &n in &self.results {
            serialize_node_into(&self.snapshot, n, &mut out);
        }
        out.push_str("</view>");
        out
    }
}

/// Per-batch accounting, returned by [`MaintenanceEngine::apply_batch`].
///
/// The counters are deterministic (worker-count independent); the
/// [`Duration`]s are wall-clock measurements for the bench harness.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Updates applied in this batch.
    pub updates: usize,
    /// Views left untouched: independent of the whole batch, or every view
    /// after a batch that did not change the document.
    pub skipped: usize,
    /// Views re-evaluated from scratch.
    pub reevaluated: usize,
    /// Batches that left the document's value as it was (see
    /// [`apply_pending_list`]), so no view was refreshed.
    pub unchanged: usize,
    /// Wall time of the skip decision (the static analysis pass).
    pub analysis: Duration,
    /// Wall time of update evaluation + application, including a rebuild
    /// and, when the store lost its label-reach summary, the freeze that
    /// rebuilds it.
    pub apply: Duration,
    /// Wall time of view maintenance: the freeze before the snapshots, when
    /// the batch re-evaluates any view, and the sharded re-evaluations.
    pub maintain: Duration,
}

impl BatchStats {
    fn absorb(&mut self, other: &BatchStats) {
        self.updates += other.updates;
        self.skipped += other.skipped;
        self.reevaluated += other.reevaluated;
        self.unchanged += other.unchanged;
        self.analysis += other.analysis;
        self.apply += other.apply;
        self.maintain += other.maintain;
    }

    /// The worker-count-independent part, for bit-identity assertions.
    pub fn deterministic_fields(&self) -> [usize; 4] {
        [self.updates, self.skipped, self.reevaluated, self.unchanged]
    }
}

/// Keeps a set of materialized views live under a stream of update batches.
pub struct MaintenanceEngine<'s, S: SchemaLike> {
    /// The CDAG analysis of every registered view against every distinct
    /// update seen so far (see the [module docs](self)).
    session: AnalysisSession<'s, S>,
    /// Session row of each distinct update.
    update_rows: HashMap<Update, usize>,
    strategy: MaintainStrategy,
    jobs: Jobs,
    /// Summarized after every batch, flattened before every snapshot (see
    /// the [module docs](self)).
    doc: Tree,
    /// `doc.store.len()` when the document was last rebuilt (or handed to
    /// [`new`](Self::new)); see [`apply_batch`](Self::apply_batch).
    rebuilt_len: usize,
    views: Vec<MaintainedView>,
    totals: BatchStats,
}

impl<'s, S: SchemaLike> MaintenanceEngine<'s, S> {
    /// Creates an engine over `doc`, frozen on entry so that it is
    /// summarized (see the [module docs](self)).
    pub fn new(schema: &'s S, mut doc: Tree, strategy: MaintainStrategy, jobs: Jobs) -> Self {
        doc.freeze();
        MaintenanceEngine {
            session: SessionBuilder::new(schema)
                .engine(EngineKind::Cdag)
                .jobs(jobs)
                .build(),
            update_rows: HashMap::new(),
            strategy,
            jobs,
            rebuilt_len: doc.store.len(),
            doc,
            views: Vec::new(),
            totals: BatchStats::default(),
        }
    }

    /// Registers and materializes a view.
    pub fn register_view(&mut self, name: &str, query: &Query) -> Result<(), EvalError> {
        self.doc.freeze();
        let view = MaintainedView::materialize(name, query, &self.doc)?;
        self.views.push(view);
        self.session.add_view(name, query.clone());
        Ok(())
    }

    /// The live document: summarized after every batch, flattened before
    /// every snapshot the engine takes (see the [module docs](self)).
    pub fn doc(&self) -> &Tree {
        &self.doc
    }

    /// The registered views, in registration order.
    pub fn views(&self) -> &[MaintainedView] {
        &self.views
    }

    /// Serialized content of every view, in registration order (the
    /// differential-test observable).
    pub fn serialized_views(&self) -> Vec<String> {
        self.views.iter().map(|v| v.serialized()).collect()
    }

    /// Accumulated stats over every batch applied so far.
    pub fn totals(&self) -> &BatchStats {
        &self.totals
    }

    /// Per registered view, whether it is independent of every update in
    /// `updates` — the pruned strategy's skip set. An update seen for the
    /// first time joins the session as a new row (analyzed against every
    /// registered view); a seen one is a row lookup.
    fn independent_views(&mut self, updates: &[Update]) -> Vec<bool> {
        let mut rows = Vec::with_capacity(updates.len());
        for u in updates {
            let row = match self.update_rows.get(u) {
                Some(&row) => row,
                None => {
                    let name = format!("u{}", self.update_rows.len());
                    let row = self.session.add_update(name, u.clone());
                    self.update_rows.insert(u.clone(), row);
                    row
                }
            };
            rows.push(row);
        }
        (0..self.views.len())
            .map(|vi| {
                rows.iter()
                    .all(|&ui| self.session.verdict(ui, vi).is_independent())
            })
            .collect()
    }

    /// Applies one batch of updates to the document and maintains every
    /// registered view according to the engine's strategy.
    ///
    /// The batch semantics is sequential composition: each update is
    /// evaluated against the document state its predecessors produced.
    /// Maintenance runs once, after the whole batch, and only if some
    /// update changed the document (see the [module docs](self)). When the
    /// batch leaves the store at twice its length at the last rebuild, the
    /// document is rebuilt into a fresh store holding only its reachable
    /// nodes, so node locations of [`doc`](Self::doc) are not stable across
    /// batches.
    pub fn apply_batch(&mut self, updates: &[Update]) -> Result<BatchStats, EvalError> {
        let mut stats = BatchStats {
            updates: updates.len(),
            ..Default::default()
        };

        // Phase 1: apply the updates sequentially, noting whether any of
        // them changed the document's value.
        let apply_start = Instant::now();
        let mut changed = false;
        for u in updates {
            let root = self.doc.root;
            let cmds = evaluate_update(&mut self.doc.store, root, u)?;
            changed |= apply_pending_list(&mut self.doc.store, &cmds);
        }
        // Deleted, replaced and constructed subtrees stay in the store as
        // unreachable locations. Once they could make up half of it, copy
        // the reachable tree into a fresh store, which keeps the store
        // within twice the live document.
        if self.doc.store.len() >= 2 * self.rebuilt_len {
            let mut store = Store::new();
            let root = store.deep_copy_from(&self.doc.store, self.doc.root);
            self.doc = Tree::new(store, root);
            self.rebuilt_len = self.doc.store.len();
        }
        if self.doc.store.lacks_summary() {
            self.doc.freeze();
        }
        stats.apply = apply_start.elapsed();

        // Phase 2: decide what to refresh. A batch that left the document
        // as it was cannot have changed any view, under either strategy.
        // Otherwise naive refreshes everything, and pruned skips a view iff
        // it is independent of every update in the batch.
        let analysis_start = Instant::now();
        let reeval: Vec<usize> = if !changed {
            stats.unchanged = 1;
            Vec::new()
        } else if self.strategy == MaintainStrategy::Naive {
            (0..self.views.len()).collect()
        } else {
            let independent = self.independent_views(updates);
            (0..self.views.len())
                .filter(|&vi| !independent[vi])
                .collect()
        };
        stats.analysis = analysis_start.elapsed();
        stats.reevaluated = reeval.len();
        stats.skipped = self.views.len() - reeval.len();

        // Phase 3: re-evaluate the dependent views, sharded over the pool,
        // each on an O(1) snapshot of the document flattened for them.
        let maintain_start = Instant::now();
        if !reeval.is_empty() {
            self.doc.freeze();
        }
        let doc = &self.doc;
        let views = &self.views;
        let rebuilt: Vec<Result<MaintainedView, EvalError>> =
            run_indexed(self.jobs, reeval.len(), |i| {
                let vi = reeval[i];
                MaintainedView::materialize(&views[vi].name, &views[vi].query, doc)
            });
        for (vi, built) in reeval.into_iter().zip(rebuilt) {
            self.views[vi] = built?;
        }
        stats.maintain = maintain_start.elapsed();

        self.totals.absorb(&stats);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::updates::all_updates;
    use crate::views::all_views;
    use crate::xmark::{xmark_document, xmark_dtd};
    use qui_schema::Dtd;
    use qui_xmlstore::{parse_xml, serialize_node};
    use qui_xquery::{parse_query, parse_update};

    #[test]
    fn independent_view_is_skipped_and_membership_threat_reevaluates() {
        let dtd = Dtd::parse_compact("doc -> (a|b)* ; a -> c* ; b -> c*", "doc").unwrap();
        let doc = parse_xml("<doc><a><c/></a><b><c/></b></doc>").unwrap();
        let mut eng = MaintenanceEngine::new(&dtd, doc, MaintainStrategy::Pruned, Jobs::Fixed(1));
        eng.register_view("bs", &parse_query("//b/c").unwrap())
            .unwrap();
        eng.register_view("as", &parse_query("//a").unwrap())
            .unwrap();
        // Deleting //a changes "as" and is independent of "bs".
        let stats = eng
            .apply_batch(&[parse_update("delete //a").unwrap()])
            .unwrap();
        assert_eq!(stats.skipped, 1);
        assert_eq!(stats.reevaluated, 1);
        assert_eq!(eng.serialized_views(), vec!["<view><c/></view>", "<view/>"]);
    }

    #[test]
    fn reapplying_a_seen_update_runs_no_new_inference() {
        let dtd = Dtd::parse_compact("doc -> (a|b)* ; a -> c* ; b -> c*", "doc").unwrap();
        let doc = parse_xml("<doc><a><c/><c/></a><b><c/></b></doc>").unwrap();
        let mut eng = MaintenanceEngine::new(&dtd, doc, MaintainStrategy::Pruned, Jobs::Fixed(1));
        eng.register_view("as", &parse_query("//a").unwrap())
            .unwrap();
        eng.register_view("bs", &parse_query("//b/c").unwrap())
            .unwrap();
        // An insert changes the document every time it runs, so every
        // batch below reaches the session lookup.
        let u = parse_update("for $x in //a return insert <c/> into $x").unwrap();
        let first = eng.apply_batch(std::slice::from_ref(&u)).unwrap();
        let inferences = eng.session.stats().cdag_inferences;
        assert!(inferences > 0, "the first sighting runs the CDAG inference");
        let again = eng.apply_batch(std::slice::from_ref(&u)).unwrap();
        assert_eq!(
            eng.session.stats().cdag_inferences,
            inferences,
            "a seen update is answered from the session matrix"
        );
        assert_eq!(
            eng.session.n_updates(),
            1,
            "one session row per distinct update"
        );
        assert_eq!(first.unchanged, 0);
        assert_eq!(first.deterministic_fields(), again.deterministic_fields());
        assert_eq!([first.skipped, first.reevaluated], [1, 1]);
    }

    #[test]
    fn a_batch_that_changes_nothing_refreshes_nothing_and_skips_the_session() {
        let dtd = Dtd::parse_compact("doc -> (a|b)* ; a -> c* ; b -> c*", "doc").unwrap();
        for strategy in [MaintainStrategy::Naive, MaintainStrategy::Pruned] {
            let doc = parse_xml("<doc><a><c/></a><b/></doc>").unwrap();
            let mut eng = MaintenanceEngine::new(&dtd, doc, strategy, Jobs::Fixed(1));
            eng.register_view("cs", &parse_query("//c").unwrap())
                .unwrap();
            eng.register_view("as", &parse_query("//a").unwrap())
                .unwrap();
            let batch = [
                parse_update("delete //b/c").unwrap(),
                parse_update("for $x in //a return rename $x as a").unwrap(),
            ];
            let stats = eng.apply_batch(&batch).unwrap();
            assert_eq!(stats.unchanged, 1, "{strategy:?}");
            assert_eq!([stats.skipped, stats.reevaluated], [2, 0], "{strategy:?}");
            assert_eq!(eng.session.n_updates(), 0, "no session lookup");
            let stats = eng
                .apply_batch(&[parse_update("delete //a/c").unwrap()])
                .unwrap();
            assert_eq!(stats.unchanged, 0, "{strategy:?}");
            assert!(stats.reevaluated > 0, "{strategy:?}");
            assert_eq!(eng.serialized_views(), vec!["<view/>", "<view><a/></view>"]);
            assert_eq!(eng.totals().unchanged, 1);
        }
    }

    /// The skip set of a workload, computed directly per pair by a plain
    /// CDAG engine at `k_q + k_u` (one inference per expression and bound,
    /// no session) — the oracle the session-backed decision must reproduce
    /// bit for bit.
    fn direct_cdag_oracle<S: SchemaLike>(
        schema: &S,
        views: &[Query],
        updates: &[Update],
    ) -> Vec<Vec<bool>> {
        use qui_core::engine::cdag::CdagEngine;
        use qui_core::k_for_pair;
        let mut engines = HashMap::new();
        let mut query_chains = HashMap::new();
        let mut update_chains = HashMap::new();
        updates
            .iter()
            .enumerate()
            .map(|(ui, u)| {
                views
                    .iter()
                    .enumerate()
                    .map(|(vi, q)| {
                        let k = k_for_pair(q, u);
                        let eng = engines
                            .entry(k)
                            .or_insert_with(|| CdagEngine::new(schema, k));
                        let qc = query_chains
                            .entry((vi, k))
                            .or_insert_with(|| eng.infer_query(&eng.root_gamma(q.free_vars()), q));
                        let uc = update_chains
                            .entry((ui, k))
                            .or_insert_with(|| eng.infer_update(&eng.root_gamma(u.free_vars()), u));
                        eng.independent(qc, uc)
                    })
                    .collect()
            })
            .collect()
    }

    fn engine_skip_sets<S: SchemaLike>(
        schema: &S,
        doc: Tree,
        views: &[Query],
        updates: &[Update],
    ) -> Vec<Vec<bool>> {
        let mut eng = MaintenanceEngine::new(schema, doc, MaintainStrategy::Pruned, Jobs::Fixed(2));
        for (i, q) in views.iter().enumerate() {
            eng.register_view(&format!("v{i}"), q).unwrap();
        }
        updates
            .iter()
            .map(|u| eng.independent_views(std::slice::from_ref(u)))
            .collect()
    }

    #[test]
    fn pruned_skip_set_matches_direct_cdag_oracle_on_xmark() {
        let dtd = xmark_dtd();
        let views: Vec<Query> = all_views().into_iter().map(|v| v.query).collect();
        let updates: Vec<Update> = all_updates().into_iter().map(|u| u.update).collect();
        let got = engine_skip_sets(&dtd, xmark_document(200, 3), &views, &updates);
        let expected = direct_cdag_oracle(&dtd, &views, &updates);
        assert_eq!(got, expected);
        let independent = got.iter().flatten().filter(|&&b| b).count();
        assert_eq!(
            independent, 918,
            "independent cells of the 36 x 31 XMark matrix"
        );
    }

    #[test]
    fn pruned_skip_set_matches_direct_cdag_oracle_on_the_corpus() {
        use qui_schema::{generate_valid, random_query, random_update, Corpus, GenValidConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut cells = 0usize;
        for (si, schema) in Corpus::seeded(1, 6).iter().enumerate() {
            let dtd = schema.dtd();
            let labels = schema.labels();
            let mut rng = StdRng::seed_from_u64(0x0AC1E ^ si as u64);
            let views: Vec<Query> = (0..5)
                .map(|_| parse_query(&random_query(&labels, &mut rng)).unwrap())
                .collect();
            let updates: Vec<Update> = (0..5)
                .map(|_| parse_update(&random_update(&schema.start, &labels, &mut rng)).unwrap())
                .collect();
            let doc = generate_valid(&dtd, &GenValidConfig::with_target(40), si as u64);
            let got = engine_skip_sets(&dtd, doc, &views, &updates);
            assert_eq!(
                got,
                direct_cdag_oracle(&dtd, &views, &updates),
                "corpus schema {}",
                schema.name
            );
            cells += views.len() * updates.len();
        }
        assert_eq!(cells, 11 * 25);
    }

    #[test]
    fn strategies_agree_on_an_xmark_stream() {
        let dtd = xmark_dtd();
        let views: Vec<_> = all_views()
            .into_iter()
            .filter(|v| ["q1", "q18", "A1", "A7", "B3"].contains(&v.name))
            .collect();
        let updates: Vec<Update> = all_updates()
            .into_iter()
            .filter(|u| ["UA1", "UI2", "UN1", "UP5", "UB2", "UI4"].contains(&u.name))
            .map(|u| u.update)
            .collect();
        let mut engines: Vec<MaintenanceEngine<Dtd>> =
            [MaintainStrategy::Naive, MaintainStrategy::Pruned]
                .into_iter()
                .map(|s| MaintenanceEngine::new(&dtd, xmark_document(3_000, 11), s, Jobs::Fixed(2)))
                .collect();
        for eng in &mut engines {
            for v in &views {
                eng.register_view(v.name, &v.query).unwrap();
            }
        }
        // Two rounds, the second one update per batch. There UA1 and UB2
        // find nothing to delete (on this document, not even in the first
        // round), UN1 nothing left to rename, and UP5 replaces value-equal
        // content.
        let mut unchanged = 0;
        for batch in updates.chunks(2).chain(updates.chunks(1)) {
            let before = engines[0].doc().to_xml();
            let stats: Vec<BatchStats> = engines
                .iter_mut()
                .map(|e| e.apply_batch(batch).unwrap())
                .collect();
            assert_eq!(engines[1].serialized_views(), engines[0].serialized_views());
            assert_eq!(stats[0].unchanged, stats[1].unchanged);
            // Naive refreshes every view after a batch that changed the
            // document and none after one that did not; pruning never
            // refreshes more.
            if stats[0].unchanged == 1 {
                assert_eq!(stats[0].reevaluated, 0);
                assert_eq!(engines[0].doc().to_xml(), before);
                unchanged += 1;
            } else {
                assert_eq!(stats[0].reevaluated, views.len());
            }
            assert!(stats[1].reevaluated <= stats[0].reevaluated);
        }
        assert_eq!(
            unchanged, 5,
            "no-op batches: UA1+UB2, then UA1, UB2, UN1, UP5"
        );
    }

    /// Asserts that every view serves what evaluating it from scratch over
    /// the engine's document gives.
    fn assert_fresh<S: SchemaLike>(eng: &MaintenanceEngine<S>, when: &str) {
        for v in eng.views() {
            let mut work = eng.doc().snapshot();
            let root = work.root;
            let results = evaluate_query(&mut work.store, root, &v.query).unwrap();
            let content: String = results
                .iter()
                .map(|&n| serialize_node(&work.store, n))
                .collect();
            let expected = if content.is_empty() {
                "<view/>".to_string()
            } else {
                format!("<view>{content}</view>")
            };
            assert_eq!(v.serialized(), expected, "view {} {when}", v.name);
        }
    }

    #[test]
    fn rebuilds_keep_the_store_within_twice_the_live_document() {
        let dtd = xmark_dtd();
        let views: Vec<_> = all_views()
            .into_iter()
            .filter(|v| ["q1", "q6", "q13", "q19", "A2", "B2", "B5"].contains(&v.name))
            .collect();
        let updates: Vec<Update> = all_updates().into_iter().map(|u| u.update).collect();
        let mut eng = MaintenanceEngine::new(
            &dtd,
            xmark_document(1_500, 5),
            MaintainStrategy::Pruned,
            Jobs::Fixed(2),
        );
        for v in &views {
            eng.register_view(v.name, &v.query).unwrap();
        }
        let mut rebuilds = 0;
        let mut largest_doc = eng.doc.size();
        for _ in 0..40 {
            let before = eng.rebuilt_len;
            eng.apply_batch(&updates).unwrap();
            if eng.rebuilt_len != before {
                rebuilds += 1;
                assert_eq!(
                    eng.rebuilt_len,
                    eng.doc.size(),
                    "a rebuild keeps only the tree"
                );
            }
            largest_doc = largest_doc.max(eng.doc.size());
            assert!(eng.doc.store.len() < 2 * eng.rebuilt_len);
            assert!(eng.rebuilt_len <= largest_doc);
        }
        assert!(rebuilds > 0, "the stream leaves garbage to collect");
        assert_fresh(&eng, "after the stream");

        // One update per batch until a batch that rebuilds the document
        // skips some view: that view keeps serving the snapshot of the
        // store the rebuild replaced, and it is still fresh.
        for (i, u) in updates.iter().cycle().take(40 * updates.len()).enumerate() {
            let before = eng.rebuilt_len;
            let stats = eng.apply_batch(std::slice::from_ref(u)).unwrap();
            if eng.rebuilt_len != before && stats.skipped > 0 {
                assert_fresh(&eng, &format!("skipped across the rebuild of batch {i}"));
                return;
            }
        }
        panic!("no rebuild skipped a view");
    }
}
