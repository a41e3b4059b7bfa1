//! The stateful front door of the analysis: [`AnalysisSession`] and
//! [`SessionBuilder`].
//!
//! Everything expensive in the paper's static analysis depends only on the
//! *schema* and the *expressions* — chain universes, CDAG closures,
//! compiled path automata — never on which pair a check happens
//! to be part of. A session is constructed **once per schema** and owns all
//! reusable inference state, so repeated checks and matrix queries are warm:
//!
//! * CDAG chain sets per `(expression, k)`, inferred straight from
//!   [`CdagEngine`]; a result whose inference never hit the `k·|d|` depth
//!   cap serves every larger bound of that expression, so a matrix prepass
//!   walks each expression's bounds in ascending order and stops inferring
//!   at the first complete result;
//! * explicit chain sets per `(expression, k)` (including remembered budget
//!   overflows, so a hopeless expression is never re-materialized);
//! * a checkout pool of [`CdagEngine`]s per multiplicity bound, whose
//!   generation-stamped scratch workspaces are reused across ad-hoc
//!   [`check`](AnalysisSession::check) calls and across the parallel
//!   matrix cell passes (each worker checks an engine out, runs without
//!   holding any lock, and returns it);
//! * compiled [`Projection`]s (path automata) per view for streamed
//!   document projection.
//!
//! ## Concurrent reads, serialized edits
//!
//! The read path is `&self` and thread-safe: every cache lives behind
//! [`crate::concurrent::ShardedMap`] (sharded `RwLock`s) or the
//! [`crate::concurrent::EnginePool`], so **any number of threads may call
//! [`check`](AnalysisSession::check), [`explain`](AnalysisSession::explain),
//! [`streaming_projection`](AnalysisSession::streaming_projection) and the
//! matrix accessors ([`verdict`](AnalysisSession::verdict),
//! [`reports`](AnalysisSession::reports), …) on one shared session
//! concurrently** — warm checks take uncontended read locks and scale with
//! the core count. Verdicts are bit-identical to the single-threaded
//! session (property-tested in `tests/concurrent_session.rs`). Racing cold
//! checks may duplicate an inference; both threads insert equal values, so
//! the race is benign and only visible in [`SessionStats`].
//!
//! Workload **edits** ([`add_view`](AnalysisSession::add_view) /
//! [`add_update`](AnalysisSession::add_update) / `remove_*` /
//! [`add_workload`](AnalysisSession::add_workload)) take `&mut self`: the
//! borrow checker serializes them against all reads, which is what keeps
//! the materialized matrix consistent without a matrix-wide lock. A service
//! that needs readers and an editor on the same session wraps it in
//! [`crate::service::SharedSession`], which serializes edits behind an
//! `RwLock` while read traffic proceeds concurrently.
//!
//! On top of the caches the session maintains a **registered workload**: a
//! set of named views and named updates whose full verdict matrix is kept
//! materialized. [`add_view`](AnalysisSession::add_view) /
//! [`add_update`](AnalysisSession::add_update) recompute only the affected
//! column/row (sharded over the [`crate::parallel::pool`] work-stealing
//! pool); [`remove_view`](AnalysisSession::remove_view) /
//! [`remove_update`](AnalysisSession::remove_update) only drop the
//! column/row. Any edit sequence yields verdicts bit-identical to a
//! from-scratch [`add_workload`](AnalysisSession::add_workload) of the same
//! workload on a fresh session (property-tested in
//! `tests/session_incremental.rs`).
//!
//! The session is the **single implementation** of the analysis pipeline
//! and its only entry point: pair checks, matrices, reports and the
//! explicit chain sets behind `explain` all come from it. The
//! [`crate::service`] layer (`qui serve`, the `qui session` REPL) dispatches
//! onto it through the shared [`crate::protocol`] request types, and the
//! view-maintenance engine of `qui-workloads` reads its skip decisions from
//! a CDAG-engine session's materialized matrix.
//!
//! Engine order: [`EngineKind::Explicit`] runs only the explicit engine,
//! [`EngineKind::Cdag`] only the CDAG engine, and [`EngineKind::Auto`] runs
//! the CDAG engine on every cell and the explicit engine on the cells the
//! CDAG could not prove independent.
//!
//! ```
//! use qui_schema::Dtd;
//! use qui_xquery::{parse_query, parse_update};
//! use qui_core::session::SessionBuilder;
//!
//! let dtd = Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap();
//! let mut session = SessionBuilder::new(&dtd).build();
//!
//! // Ad-hoc checks are `&self`: they share inference state across calls
//! // and may run from many threads at once.
//! let q = parse_query("//a//c").unwrap();
//! let u = parse_update("delete //b//c").unwrap();
//! assert!(session.check(&q, &u).is_independent());
//!
//! // A registered workload keeps its verdict matrix materialized and
//! // updates it incrementally on (`&mut`) edits.
//! session.add_view("v1", q);
//! session.add_update("u1", u);
//! session.add_update("u2", parse_update("delete //c").unwrap());
//! assert_eq!(session.independent_flags(0), vec![true]);
//! assert_eq!(session.independent_flags(1), vec![false]);
//! session.remove_update("u2");
//! assert_eq!(session.n_updates(), 1);
//! ```

use crate::analyzer::{AnalyzerConfig, EngineKind, Verdict};
use crate::concurrent::{EnginePool, ShardedMap};
use crate::conflict::find_conflict;
use crate::engine::cdag::{CdagEngine, ChainDag, DagQueryChains};
use crate::engine::explicit::ExplicitEngine;
use crate::explain::{explain_verdict, ExplainOptions, MatrixReport};
use crate::kbound::{k_for_pair, k_of_query, k_of_update};
use crate::parallel::{run_indexed, Jobs};
use crate::projector::ChainProjector;
use crate::types::{QueryChains, UpdateChains};
use crate::universe::Universe;
use qui_schema::SchemaLike;
use qui_xmlstore::Projection;
use qui_xquery::{Query, Update};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Fluent construction of an [`AnalysisSession`]: collapses the historical
/// `AnalyzerConfig` / `EngineKind` / [`Jobs`] / [`ExplainOptions`] parameter
/// sprawl into one builder.
///
/// ```
/// use qui_schema::Dtd;
/// use qui_core::session::SessionBuilder;
/// use qui_core::{EngineKind, Jobs};
///
/// let dtd = Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap();
/// let session = SessionBuilder::new(&dtd)
///     .engine(EngineKind::Auto)
///     .explicit_budget(10_000)
///     .jobs(Jobs::Fixed(2))
///     .build();
/// assert_eq!(session.n_views(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct SessionBuilder<'a, S: SchemaLike> {
    schema: &'a S,
    config: AnalyzerConfig,
    jobs: Jobs,
    explain: ExplainOptions,
}

impl<'a, S: SchemaLike> SessionBuilder<'a, S> {
    /// Starts a builder with the default configuration (CDAG-first auto
    /// engine, default budget, `Jobs::Auto`).
    pub fn new(schema: &'a S) -> Self {
        SessionBuilder {
            schema,
            config: AnalyzerConfig::default(),
            jobs: Jobs::Auto,
            explain: ExplainOptions::default(),
        }
    }

    /// Replaces the whole analyzer configuration at once (the escape hatch
    /// for callers that already hold an [`AnalyzerConfig`]).
    pub fn config(mut self, config: AnalyzerConfig) -> Self {
        self.config = config;
        self
    }

    /// Engine selection policy (see [`EngineKind`]).
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.config.engine = engine;
        self
    }

    /// Materialization budget of the explicit engine.
    pub fn explicit_budget(mut self, budget: usize) -> Self {
        self.config.explicit_budget = budget;
        self
    }

    /// Element-chain inference (§3); disabling reproduces the paper's
    /// ablation.
    pub fn element_chains(mut self, on: bool) -> Self {
        self.config.element_chains = on;
        self
    }

    /// Overrides the multiplicity bound `k` computed per pair.
    pub fn k_override(mut self, k: Option<usize>) -> Self {
        self.config.k_override = k;
        self
    }

    /// Worker-count policy for matrix (re)computation.
    pub fn jobs(mut self, jobs: Jobs) -> Self {
        self.jobs = jobs;
        self
    }

    /// Report verbosity for [`AnalysisSession::explain`].
    pub fn explain_options(mut self, options: ExplainOptions) -> Self {
        self.explain = options;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> AnalysisSession<'a, S> {
        AnalysisSession {
            caches: SessionCaches::new(self.schema, self.config.element_chains, self.jobs),
            schema: self.schema,
            config: self.config,
            jobs: self.jobs,
            explain: self.explain,
            views: Vec::new(),
            updates: Vec::new(),
            rows: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Caches
// ---------------------------------------------------------------------------

/// Per-expression CDAG results across multiplicity bounds. A result whose
/// inference never saturated at bound `k0` is exact for *every* bound
/// `≥ k0` (the DAG node encoding is k-independent), so it serves all of
/// them from one `Arc`.
struct CdagCache<T> {
    /// `(k0, result)`: exact for every bound `≥ k0`.
    complete: Option<(usize, Arc<T>)>,
    /// Saturated (per-bound) results.
    per_k: BTreeMap<usize, Arc<T>>,
}

impl<T> Default for CdagCache<T> {
    fn default() -> Self {
        CdagCache {
            complete: None,
            per_k: BTreeMap::new(),
        }
    }
}

impl<T> CdagCache<T> {
    fn get(&self, k: usize) -> Option<Arc<T>> {
        if let Some((k0, r)) = &self.complete {
            if k >= *k0 {
                return Some(Arc::clone(r));
            }
        }
        self.per_k.get(&k).cloned()
    }

    /// Records a result inferred at bound `k`; `complete` when that
    /// inference never saturated, so it serves every bound `≥ k`.
    fn insert(&mut self, k: usize, complete: bool, result: Arc<T>) {
        if !complete {
            self.per_k.insert(k, result);
        } else if !matches!(self.complete, Some((k0, _)) if k0 <= k) {
            self.complete = Some((k, result));
        }
    }
}

/// A registered view: display name, expression, cache key and `k_q`.
struct RegisteredView {
    name: String,
    query: Query,
    key: Arc<str>,
    k_q: usize,
}

/// A registered update: display name, expression, cache key and `k_u`.
struct RegisteredUpdate {
    name: String,
    update: Update,
    key: Arc<str>,
    k_u: usize,
}

/// Cache-effectiveness counters of a session (all monotone). A snapshot of
/// the live atomic counters; under concurrent readers the fields are
/// individually accurate but not mutually atomic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Fresh CDAG inferences run (one per `(expression, k)` the cache could
    /// not serve).
    pub cdag_inferences: usize,
    /// `(expression, k)` CDAG requests served from the session cache.
    pub cdag_cache_hits: usize,
    /// Fresh explicit-engine inferences run (overflows included).
    pub explicit_inferences: usize,
    /// `(expression, k)` explicit requests served from the session cache.
    pub explicit_cache_hits: usize,
    /// Matrix cells evaluated (conflict checks, not inferences).
    pub cells_computed: usize,
    /// Workload edits applied (`add_*` / `remove_*` calls).
    pub edits: usize,
}

/// The live counters behind [`SessionStats`], incremented with relaxed
/// atomics from any thread on the read path.
#[derive(Default)]
struct SessionCounters {
    cdag_inferences: AtomicUsize,
    cdag_cache_hits: AtomicUsize,
    explicit_inferences: AtomicUsize,
    explicit_cache_hits: AtomicUsize,
    cells_computed: AtomicUsize,
    edits: AtomicUsize,
}

impl SessionCounters {
    fn bump(counter: &AtomicUsize, by: usize) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    fn snapshot(&self) -> SessionStats {
        SessionStats {
            cdag_inferences: self.cdag_inferences.load(Ordering::Relaxed),
            cdag_cache_hits: self.cdag_cache_hits.load(Ordering::Relaxed),
            explicit_inferences: self.explicit_inferences.load(Ordering::Relaxed),
            explicit_cache_hits: self.explicit_cache_hits.load(Ordering::Relaxed),
            cells_computed: self.cells_computed.load(Ordering::Relaxed),
            edits: self.edits.load(Ordering::Relaxed),
        }
    }
}

/// The interior-mutable state shared by every session read: the four chain
/// caches, the engine checkout pool and the compiled projections. All
/// methods take `&self`; thread-safety comes from the sharded maps and the
/// pool, not from any outer lock.
struct SessionCaches<'a, S: SchemaLike> {
    cdag_queries: ShardedMap<Arc<str>, CdagCache<DagQueryChains>>,
    cdag_updates: ShardedMap<Arc<str>, CdagCache<ChainDag>>,
    explicit_queries: ShardedMap<(Arc<str>, usize), Option<Arc<QueryChains>>>,
    explicit_updates: ShardedMap<(Arc<str>, usize), Option<Arc<UpdateChains>>>,
    engines: EnginePool<'a, S>,
    projections: ShardedMap<String, Projection>,
    counters: SessionCounters,
}

impl<'a, S: SchemaLike> SessionCaches<'a, S> {
    fn new(schema: &'a S, element_chains: bool, jobs: Jobs) -> Self {
        SessionCaches {
            cdag_queries: ShardedMap::new(),
            cdag_updates: ShardedMap::new(),
            explicit_queries: ShardedMap::new(),
            explicit_updates: ShardedMap::new(),
            engines: EnginePool::new(schema, element_chains).with_jobs(jobs),
            projections: ShardedMap::new(),
            counters: SessionCounters::default(),
        }
    }

    fn cdag_query(&self, key: &Arc<str>, k: usize) -> Option<Arc<DagQueryChains>> {
        self.cdag_queries.read_with(key, |c| c.get(k)).flatten()
    }

    fn cdag_update(&self, key: &Arc<str>, k: usize) -> Option<Arc<ChainDag>> {
        self.cdag_updates.read_with(key, |c| c.get(k)).flatten()
    }

    /// The cached explicit query chains: `None` = never inferred,
    /// `Some(None)` = inferred but overflowed the budget.
    fn explicit_query(&self, key: &Arc<str>, k: usize) -> Option<Option<Arc<QueryChains>>> {
        self.explicit_queries.get(&(Arc::clone(key), k))
    }

    fn explicit_update(&self, key: &Arc<str>, k: usize) -> Option<Option<Arc<UpdateChains>>> {
        self.explicit_updates.get(&(Arc::clone(key), k))
    }

    /// Stores one expression's fresh CDAG inferences `(k, result, complete)`
    /// and counts them; the other `requested - built.len()` bounds were
    /// served from the cache.
    fn store_cdag<T>(
        &self,
        map: &ShardedMap<Arc<str>, CdagCache<T>>,
        key: &Arc<str>,
        requested: usize,
        built: Vec<(usize, T, bool)>,
    ) {
        let inferences = built.len();
        map.write_with(Arc::clone(key), |cache| {
            for (k, result, complete) in built {
                cache.insert(k, complete, Arc::new(result));
            }
        });
        SessionCounters::bump(&self.counters.cdag_inferences, inferences);
        SessionCounters::bump(&self.counters.cdag_cache_hits, requested - inferences);
    }
}

// ---------------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------------

/// A long-lived, stateful analysis session over one schema.
///
/// See the [module docs](self) for the full picture. Construct with
/// [`SessionBuilder`] (or [`AnalysisSession::new`] for the defaults), then
/// either run ad-hoc [`check`](Self::check)s — warm across calls, `&self`,
/// and callable from any number of threads at once — or register a views ×
/// updates workload whose verdict matrix is maintained incrementally under
/// (`&mut self`) [`add_view`](Self::add_view) /
/// [`remove_update`](Self::remove_update) / … edits.
pub struct AnalysisSession<'a, S: SchemaLike> {
    schema: &'a S,
    config: AnalyzerConfig,
    jobs: Jobs,
    explain: ExplainOptions,
    views: Vec<RegisteredView>,
    updates: Vec<RegisteredUpdate>,
    /// The materialized verdict matrix, indexed `[update][view]`.
    rows: Vec<Vec<Verdict>>,
    caches: SessionCaches<'a, S>,
}

impl<'a, S: SchemaLike> AnalysisSession<'a, S> {
    /// A session with the default configuration.
    pub fn new(schema: &'a S) -> Self {
        SessionBuilder::new(schema).build()
    }

    /// The schema the session was built over.
    pub fn schema(&self) -> &'a S {
        self.schema
    }

    /// The analyzer configuration in use (immutable for the session's
    /// lifetime — verdicts must stay comparable across edits).
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// The worker-count policy in use.
    pub fn jobs(&self) -> Jobs {
        self.jobs
    }

    /// Cache-effectiveness counters.
    pub fn stats(&self) -> SessionStats {
        self.caches.counters.snapshot()
    }

    /// Number of registered views (matrix columns).
    pub fn n_views(&self) -> usize {
        self.views.len()
    }

    /// Number of registered updates (matrix rows).
    pub fn n_updates(&self) -> usize {
        self.updates.len()
    }

    /// The registered views, in column order.
    pub fn views(&self) -> impl Iterator<Item = (&str, &Query)> {
        self.views.iter().map(|v| (v.name.as_str(), &v.query))
    }

    /// The registered updates, in row order.
    pub fn updates(&self) -> impl Iterator<Item = (&str, &Update)> {
        self.updates.iter().map(|u| (u.name.as_str(), &u.update))
    }

    /// The materialized verdict of one cell.
    pub fn verdict(&self, update: usize, view: usize) -> &Verdict {
        &self.rows[update][view]
    }

    /// Per-view independence flags for one update, in view order.
    pub fn independent_flags(&self, update: usize) -> Vec<bool> {
        self.rows[update]
            .iter()
            .map(Verdict::is_independent)
            .collect()
    }

    /// Number of independent cells in the materialized matrix.
    pub fn independent_count(&self) -> usize {
        self.rows
            .iter()
            .flatten()
            .filter(|v| v.is_independent())
            .count()
    }

    /// One [`MatrixReport`] per registered update, over the registered
    /// views, read from the materialized matrix (`k_range` spans the bounds
    /// the verdicts were computed at, so it honours the `k` override).
    pub fn reports(&self) -> Vec<MatrixReport> {
        self.updates
            .iter()
            .zip(&self.rows)
            .map(|(u, row)| {
                let ks = row.iter().map(|v| v.k);
                MatrixReport {
                    update_name: u.name.clone(),
                    rows: self
                        .views
                        .iter()
                        .zip(row)
                        .map(|(v, verdict)| (v.name.clone(), verdict.is_independent()))
                        .collect(),
                    k_range: (ks.clone().min().unwrap_or(0), ks.max().unwrap_or(0)),
                }
            })
            .collect()
    }

    /// The multiplicity bound used for a pair (`k_q + k_u`, or the
    /// configured override).
    pub fn k_for(&self, q: &Query, u: &Update) -> usize {
        self.config.k_override.unwrap_or_else(|| k_for_pair(q, u))
    }

    // -- ad-hoc checks ------------------------------------------------------

    /// Checks independence of one query-update pair, warm: chain sets
    /// inferred by earlier checks or workload edits are reused, and fresh
    /// inference results enter the session caches. The verdict is
    /// bit-identical to the first check of a fresh session under the same
    /// configuration.
    ///
    /// This is `&self` and thread-safe: any number of threads may check
    /// against one session concurrently (see the [module docs](self)).
    pub fn check(&self, q: &Query, u: &Update) -> Verdict {
        let meta = (self.k_for(q, u), k_of_query(q), k_of_update(u));
        let k = meta.0;
        let qkey = expr_key(q);
        let ukey = expr_key(u);
        let engine = self.config.engine;
        let mut cdag_flag = None;
        if engine != EngineKind::Explicit {
            self.ensure_cdag_query(&qkey, q, k);
            self.ensure_cdag_update(&ukey, u, k);
            cdag_flag = Some(self.cdag_independent(&qkey, &ukey, k));
        }
        let need_explicit = match engine {
            EngineKind::Explicit => true,
            EngineKind::Cdag => false,
            EngineKind::Auto => cdag_flag != Some(true),
        };
        if need_explicit {
            // Query side first: when it overflows the budget the explicit
            // verdict can never materialize regardless of the update side,
            // so the update inference is skipped on that conservative path
            // (the verdict falls through to the CDAG / conservative
            // fallback either way — only wasted work is avoided).
            self.ensure_explicit_query(&qkey, q, k);
            let q_ok = self
                .caches
                .explicit_query(&qkey, k)
                .is_some_and(|qc| qc.is_some());
            if q_ok {
                self.ensure_explicit_update(&ukey, u, k);
            }
        }
        cell_verdict(&self.config, meta, &qkey, &ukey, &self.caches, cdag_flag)
    }

    /// [`check`](Self::check) followed by a human-readable report, using the
    /// session's [`ExplainOptions`].
    pub fn explain(&self, q: &Query, u: &Update) -> String {
        let verdict = self.check(q, u);
        explain_verdict(self, q, u, &verdict, &self.explain)
    }

    /// The explicit engine's chain set of a query at bound `k`, under the
    /// session's budget and element-chain setting, or `None` when the
    /// materialization overflowed the budget. Served from (and filling) the
    /// session's explicit cache.
    pub fn explicit_query_chains(&self, q: &Query, k: usize) -> Option<Arc<QueryChains>> {
        let key = expr_key(q);
        self.ensure_explicit_query(&key, q, k);
        self.caches.explicit_query(&key, k).flatten()
    }

    /// The explicit engine's chain set of an update at bound `k`; see
    /// [`explicit_query_chains`](Self::explicit_query_chains).
    pub fn explicit_update_chains(&self, u: &Update, k: usize) -> Option<Arc<UpdateChains>> {
        let key = expr_key(u);
        self.ensure_explicit_update(&key, u, k);
        self.caches.explicit_update(&key, k).flatten()
    }

    /// The streamed projection for a query (an enumerated path spec when
    /// the explicit chains fit the budget, a compiled [`Projection`]
    /// automaton otherwise), cached per query across the session.
    pub fn streaming_projection(&self, q: &Query) -> Projection {
        let key = format!("{q:?}");
        if let Some(p) = self.caches.projections.get(&key) {
            return p;
        }
        let p = ChainProjector::new(self.schema).streaming_projection_for_query(q);
        self.caches.projections.insert(key, p.clone());
        p
    }

    // -- cache plumbing (all `&self`, all idempotent under races) -----------

    fn cdag_independent(&self, qkey: &Arc<str>, ukey: &Arc<str>, k: usize) -> bool {
        let qc = self
            .caches
            .cdag_query(qkey, k)
            .expect("cdag query chains ensured");
        let uc = self
            .caches
            .cdag_update(ukey, k)
            .expect("cdag update chains ensured");
        self.caches.engines.checkout(k).independent(&qc, &uc)
    }

    fn ensure_cdag_query(&self, key: &Arc<str>, q: &Query, k: usize) {
        if self.caches.cdag_query(key, k).is_some() {
            SessionCounters::bump(&self.caches.counters.cdag_cache_hits, 1);
            return;
        }
        // The inference runs outside any lock; a racing thread may compute
        // the same chains — both insert equal values, so last-wins is fine.
        let (qc, complete) = cdag_query_at(self.schema, q, k, self.config.element_chains);
        self.caches
            .store_cdag(&self.caches.cdag_queries, key, 1, vec![(k, qc, complete)]);
    }

    fn ensure_cdag_update(&self, key: &Arc<str>, u: &Update, k: usize) {
        if self.caches.cdag_update(key, k).is_some() {
            SessionCounters::bump(&self.caches.counters.cdag_cache_hits, 1);
            return;
        }
        let (uc, complete) = cdag_update_at(self.schema, u, k, self.config.element_chains);
        self.caches
            .store_cdag(&self.caches.cdag_updates, key, 1, vec![(k, uc, complete)]);
    }

    fn ensure_explicit_query(&self, key: &Arc<str>, q: &Query, k: usize) {
        if self.caches.explicit_query(key, k).is_some() {
            SessionCounters::bump(&self.caches.counters.explicit_cache_hits, 1);
            return;
        }
        let qc = infer_query_explicit(self.schema, &self.config, q, k, self.jobs);
        self.caches
            .explicit_queries
            .insert((Arc::clone(key), k), qc.map(Arc::new));
        SessionCounters::bump(&self.caches.counters.explicit_inferences, 1);
    }

    fn ensure_explicit_update(&self, key: &Arc<str>, u: &Update, k: usize) {
        if self.caches.explicit_update(key, k).is_some() {
            SessionCounters::bump(&self.caches.counters.explicit_cache_hits, 1);
            return;
        }
        let uc = infer_update_explicit(self.schema, &self.config, u, k, self.jobs);
        self.caches
            .explicit_updates
            .insert((Arc::clone(key), k), uc.map(Arc::new));
        SessionCounters::bump(&self.caches.counters.explicit_inferences, 1);
    }

    fn register_view(&mut self, name: String, query: Query) -> usize {
        let key = expr_key(&query);
        let k_q = k_of_query(&query);
        self.views.push(RegisteredView {
            name,
            query,
            key,
            k_q,
        });
        self.views.len() - 1
    }

    fn register_update(&mut self, name: String, update: Update) -> usize {
        let key = expr_key(&update);
        let k_u = k_of_update(&update);
        self.updates.push(RegisteredUpdate {
            name,
            update,
            key,
            k_u,
        });
        self.updates.len() - 1
    }

    /// Removes the view at `index`, dropping its matrix column. Returns its
    /// name and expression, or `None` when out of range. Chain caches are
    /// kept — re-adding the view is instant.
    pub fn remove_view_at(&mut self, index: usize) -> Option<(String, Query)> {
        if index >= self.views.len() {
            return None;
        }
        let v = self.views.remove(index);
        for row in &mut self.rows {
            row.remove(index);
        }
        SessionCounters::bump(&self.caches.counters.edits, 1);
        Some((v.name, v.query))
    }

    /// Removes the first view with the given name (see
    /// [`remove_view_at`](Self::remove_view_at)).
    pub fn remove_view(&mut self, name: &str) -> Option<(String, Query)> {
        let idx = self.views.iter().position(|v| v.name == name)?;
        self.remove_view_at(idx)
    }

    /// Removes the update at `index`, dropping its matrix row.
    pub fn remove_update_at(&mut self, index: usize) -> Option<(String, Update)> {
        if index >= self.updates.len() {
            return None;
        }
        let u = self.updates.remove(index);
        self.rows.remove(index);
        SessionCounters::bump(&self.caches.counters.edits, 1);
        Some((u.name, u.update))
    }

    /// Removes the first update with the given name.
    pub fn remove_update(&mut self, name: &str) -> Option<(String, Update)> {
        let idx = self.updates.iter().position(|u| u.name == name)?;
        self.remove_update_at(idx)
    }
}

impl<'a, S: SchemaLike + Sync> AnalysisSession<'a, S> {
    /// Registers a view and computes its matrix column against every
    /// registered update (only the new cells are evaluated; chain sets
    /// cached from earlier work are reused). Returns the view's column
    /// index.
    pub fn add_view(&mut self, name: impl Into<String>, query: Query) -> usize {
        let vi = self.register_view(name.into(), query);
        let cells: Vec<(usize, usize)> = (0..self.updates.len()).map(|ui| (vi, ui)).collect();
        let verdicts = self.compute_cells(&cells);
        for (row, v) in self.rows.iter_mut().zip(verdicts) {
            row.push(v);
        }
        SessionCounters::bump(&self.caches.counters.edits, 1);
        vi
    }

    /// Registers an update and computes its matrix row against every
    /// registered view. Returns the update's row index.
    pub fn add_update(&mut self, name: impl Into<String>, update: Update) -> usize {
        let ui = self.register_update(name.into(), update);
        let cells: Vec<(usize, usize)> = (0..self.views.len()).map(|vi| (vi, ui)).collect();
        let row = self.compute_cells(&cells);
        self.rows.push(row);
        SessionCounters::bump(&self.caches.counters.edits, 1);
        ui
    }

    /// Bulk registration: adds all given views and updates, then computes
    /// every new cell in **one** batched pass over the whole matrix. Much
    /// faster than one-at-a-time `add_*` calls for a cold workload.
    pub fn add_workload(
        &mut self,
        views: impl IntoIterator<Item = (String, Query)>,
        updates: impl IntoIterator<Item = (String, Update)>,
    ) {
        let nv0 = self.views.len();
        let nu0 = self.updates.len();
        for (name, q) in views {
            self.register_view(name, q);
        }
        for (name, u) in updates {
            self.register_update(name, u);
        }
        let mut cells = Vec::new();
        for ui in 0..self.updates.len() {
            for vi in 0..self.views.len() {
                if vi >= nv0 || ui >= nu0 {
                    cells.push((vi, ui));
                }
            }
        }
        let verdicts = self.compute_cells(&cells);
        let mut it = verdicts.into_iter();
        for ui in 0..self.updates.len() {
            if ui >= self.rows.len() {
                self.rows.push(Vec::with_capacity(self.views.len()));
            }
            for vi in 0..self.views.len() {
                if vi >= nv0 || ui >= nu0 {
                    self.rows[ui].push(it.next().expect("one verdict per new cell"));
                }
            }
        }
        SessionCounters::bump(&self.caches.counters.edits, 1);
    }

    /// Recomputes every cell of the materialized matrix from the session
    /// caches (used by the perf harness to measure the warm path; verdicts
    /// are bit-identical to the ones already materialized).
    pub fn recompute(&mut self) {
        let (nv, nu) = (self.views.len(), self.updates.len());
        let cells: Vec<(usize, usize)> = (0..nu)
            .flat_map(|ui| (0..nv).map(move |vi| (vi, ui)))
            .collect();
        let verdicts = self.compute_cells(&cells);
        let mut it = verdicts.into_iter();
        self.rows = (0..nu).map(|_| it.by_ref().take(nv).collect()).collect();
    }

    /// Evaluates the given cells `(view, update)` and returns their
    /// verdicts in input order. This is the single implementation of the
    /// analysis pipeline: a CDAG prepass over missing `(expression, k)`
    /// chain sets (per expression in ascending bound order, sharded over
    /// the pool), the CDAG cell pass, the explicit prepass for cells the
    /// CDAG could not prove (mirroring the configured engine order), and the
    /// final cell pass — all reading from and filling the session caches.
    /// Workers in the cell passes check engines out of the session pool, so
    /// scratch workspaces are reused across cells instead of rebuilt per
    /// cell.
    fn compute_cells(&self, cells: &[(usize, usize)]) -> Vec<Verdict> {
        if cells.is_empty() {
            return Vec::new();
        }
        let engine = self.config.engine;
        let cdag_all = engine != EngineKind::Explicit;
        let ks: Vec<usize> = cells
            .iter()
            .map(|&(vi, ui)| {
                self.config
                    .k_override
                    .unwrap_or(self.views[vi].k_q + self.updates[ui].k_u)
            })
            .collect();

        // ------------------------------------------------ CDAG prepass
        if cdag_all {
            let mut qt = BTreeSet::new();
            let mut ut = BTreeSet::new();
            for (&(vi, ui), &k) in cells.iter().zip(&ks) {
                qt.insert((vi, k));
                ut.insert((ui, k));
            }
            self.ensure_cdag_bulk(&qt, &ut);
        }

        // ------------------------------------------------ CDAG cell pass
        let cdag_flags: Vec<Option<bool>> = if cdag_all {
            let (views, updates) = (&self.views, &self.updates);
            let caches = &self.caches;
            run_indexed(self.jobs, cells.len(), |i| {
                let (vi, ui) = cells[i];
                let k = ks[i];
                let qc = caches
                    .cdag_query(&views[vi].key, k)
                    .expect("cdag query chains ensured");
                let uc = caches
                    .cdag_update(&updates[ui].key, k)
                    .expect("cdag update chains ensured");
                Some(caches.engines.checkout(k).independent(&qc, &uc))
            })
        } else {
            vec![None; cells.len()]
        };

        // ------------------------------------------------ explicit prepass
        if engine != EngineKind::Cdag {
            let mut qt = BTreeSet::new();
            let mut ut = BTreeSet::new();
            for ((&(vi, ui), &k), proved) in cells.iter().zip(&ks).zip(&cdag_flags) {
                if *proved == Some(true) {
                    continue;
                }
                qt.insert((vi, k));
                ut.insert((ui, k));
            }
            self.ensure_explicit_bulk(&qt, &ut);
        }

        // ------------------------------------------------ cell pass
        let config = &self.config;
        let (views, updates) = (&self.views, &self.updates);
        let caches = &self.caches;
        let out = run_indexed(self.jobs, cells.len(), |i| {
            let (vi, ui) = cells[i];
            cell_verdict(
                config,
                (ks[i], views[vi].k_q, updates[ui].k_u),
                &views[vi].key,
                &updates[ui].key,
                caches,
                cdag_flags[i],
            )
        });
        SessionCounters::bump(&self.caches.counters.cells_computed, cells.len());
        out
    }

    /// Fills the CDAG caches for the requested `(view index, k)` /
    /// `(update index, k)` tasks: missing bounds are grouped per distinct
    /// expression, each group runs [`infer_ascending`] over its bounds, and
    /// the groups run in parallel over the pool.
    fn ensure_cdag_bulk(
        &self,
        query_tasks: &BTreeSet<(usize, usize)>,
        update_tasks: &BTreeSet<(usize, usize)>,
    ) {
        let mut q_groups: BTreeMap<Arc<str>, (Query, Vec<usize>)> = BTreeMap::new();
        for &(vi, k) in query_tasks {
            let v = &self.views[vi];
            if self.caches.cdag_query(&v.key, k).is_some() {
                SessionCounters::bump(&self.caches.counters.cdag_cache_hits, 1);
                continue;
            }
            let entry = q_groups
                .entry(Arc::clone(&v.key))
                .or_insert_with(|| (v.query.clone(), Vec::new()));
            if !entry.1.contains(&k) {
                entry.1.push(k);
            }
        }
        let mut u_groups: BTreeMap<Arc<str>, (Update, Vec<usize>)> = BTreeMap::new();
        for &(ui, k) in update_tasks {
            let u = &self.updates[ui];
            if self.caches.cdag_update(&u.key, k).is_some() {
                SessionCounters::bump(&self.caches.counters.cdag_cache_hits, 1);
                continue;
            }
            let entry = u_groups
                .entry(Arc::clone(&u.key))
                .or_insert_with(|| (u.update.clone(), Vec::new()));
            if !entry.1.contains(&k) {
                entry.1.push(k);
            }
        }
        if q_groups.is_empty() && u_groups.is_empty() {
            return;
        }
        let qg: Vec<(Arc<str>, Query, Vec<usize>)> = q_groups
            .into_iter()
            .map(|(key, (q, mut ks))| {
                ks.sort_unstable();
                (key, q, ks)
            })
            .collect();
        let ug: Vec<(Arc<str>, Update, Vec<usize>)> = u_groups
            .into_iter()
            .map(|(key, (u, mut ks))| {
                ks.sort_unstable();
                (key, u, ks)
            })
            .collect();
        let schema = self.schema;
        let element_chains = self.config.element_chains;
        let n_q = qg.len();
        enum Out {
            Query(usize, Vec<(usize, DagQueryChains, bool)>),
            Update(usize, Vec<(usize, ChainDag, bool)>),
        }
        let results = run_indexed(self.jobs, n_q + ug.len(), |i| {
            if i < n_q {
                let (_, q, ks) = &qg[i];
                Out::Query(
                    i,
                    infer_ascending(ks, |k| cdag_query_at(schema, q, k, element_chains)),
                )
            } else {
                let (_, u, ks) = &ug[i - n_q];
                Out::Update(
                    i - n_q,
                    infer_ascending(ks, |k| cdag_update_at(schema, u, k, element_chains)),
                )
            }
        });
        let caches = &self.caches;
        for r in results {
            match r {
                Out::Query(i, built) => {
                    let (key, _, ks) = &qg[i];
                    caches.store_cdag(&caches.cdag_queries, key, ks.len(), built);
                }
                Out::Update(i, built) => {
                    let (key, _, ks) = &ug[i];
                    caches.store_cdag(&caches.cdag_updates, key, ks.len(), built);
                }
            }
        }
    }

    /// Fills the explicit caches for the requested tasks, one fresh
    /// inference per missing `(expression, k)`, sharded over the pool.
    fn ensure_explicit_bulk(
        &self,
        query_tasks: &BTreeSet<(usize, usize)>,
        update_tasks: &BTreeSet<(usize, usize)>,
    ) {
        let mut qt: Vec<(Arc<str>, Query, usize)> = Vec::new();
        let mut seen_q: BTreeSet<(Arc<str>, usize)> = BTreeSet::new();
        for &(vi, k) in query_tasks {
            let v = &self.views[vi];
            if self.caches.explicit_query(&v.key, k).is_some() {
                SessionCounters::bump(&self.caches.counters.explicit_cache_hits, 1);
                continue;
            }
            if seen_q.insert((Arc::clone(&v.key), k)) {
                qt.push((Arc::clone(&v.key), v.query.clone(), k));
            }
        }
        let mut ut: Vec<(Arc<str>, Update, usize)> = Vec::new();
        let mut seen_u: BTreeSet<(Arc<str>, usize)> = BTreeSet::new();
        for &(ui, k) in update_tasks {
            let u = &self.updates[ui];
            if self.caches.explicit_update(&u.key, k).is_some() {
                SessionCounters::bump(&self.caches.counters.explicit_cache_hits, 1);
                continue;
            }
            if seen_u.insert((Arc::clone(&u.key), k)) {
                ut.push((Arc::clone(&u.key), u.update.clone(), k));
            }
        }
        if qt.is_empty() && ut.is_empty() {
            return;
        }
        let schema = self.schema;
        let config = &self.config;
        enum Out {
            Query(usize, Option<QueryChains>),
            Update(usize, Option<UpdateChains>),
        }
        let n_q = qt.len();
        // Split the worker budget: tasks shard across workers first, and any
        // leftover parallelism goes *inside* each explicit inference (the
        // descendant enumeration dominates when one expensive task remains).
        let n_tasks = n_q + ut.len();
        let inner = Jobs::Fixed((self.jobs.resolve() / n_tasks.max(1)).max(1));
        let results = run_indexed(self.jobs, n_tasks, |i| {
            if i < n_q {
                let (_, q, k) = &qt[i];
                Out::Query(i, infer_query_explicit(schema, config, q, *k, inner))
            } else {
                let (_, u, k) = &ut[i - n_q];
                Out::Update(i - n_q, infer_update_explicit(schema, config, u, *k, inner))
            }
        });
        for r in results {
            match r {
                Out::Query(i, qc) => {
                    let (key, _, k) = &qt[i];
                    self.caches
                        .explicit_queries
                        .insert((Arc::clone(key), *k), qc.map(Arc::new));
                    SessionCounters::bump(&self.caches.counters.explicit_inferences, 1);
                }
                Out::Update(i, uc) => {
                    let (key, _, k) = &ut[i];
                    self.caches
                        .explicit_updates
                        .insert((Arc::clone(key), *k), uc.map(Arc::new));
                    SessionCounters::bump(&self.caches.counters.explicit_inferences, 1);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shared inference and verdict assembly
// ---------------------------------------------------------------------------

/// The cache key of an expression: its derived `Debug` representation.
/// `Debug` prints the full AST structure, so — unlike `Display`, which
/// elides grouping (a `Concat` renders without parentheses) — structurally
/// different expressions never share a key.
fn expr_key<T: std::fmt::Debug>(expr: &T) -> Arc<str> {
    Arc::from(format!("{expr:?}").as_str())
}

/// CDAG query inference for one `(expression, k)`, and whether it stayed
/// under the depth cap (so the result is exact at every larger bound).
fn cdag_query_at<S: SchemaLike>(
    schema: &S,
    q: &Query,
    k: usize,
    element_chains: bool,
) -> (DagQueryChains, bool) {
    let eng = CdagEngine::new(schema, k).with_element_chains(element_chains);
    let qc = eng.infer_query(&eng.root_gamma(q.free_vars()), q);
    (qc, !eng.take_saturated())
}

/// CDAG update inference for one `(expression, k)`; see [`cdag_query_at`].
fn cdag_update_at<S: SchemaLike>(
    schema: &S,
    u: &Update,
    k: usize,
    element_chains: bool,
) -> (ChainDag, bool) {
    let eng = CdagEngine::new(schema, k).with_element_chains(element_chains);
    let uc = eng.infer_update(&eng.root_gamma(u.free_vars()), u);
    (uc, !eng.take_saturated())
}

/// One expression's CDAG inferences over its ascending missing bounds `ks`:
/// infer at the smallest bound, then at the next one, until a result is
/// complete — that result serves every remaining bound. Returns the
/// inferences run as `(k, result, complete)`.
fn infer_ascending<T>(ks: &[usize], infer: impl Fn(usize) -> (T, bool)) -> Vec<(usize, T, bool)> {
    let mut built: Vec<(usize, T, bool)> = Vec::new();
    for &k in ks {
        if matches!(built.last(), Some((_, _, true))) {
            break;
        }
        let (result, complete) = infer(k);
        built.push((k, result, complete));
    }
    built
}

/// Explicit query inference for one `(expression, k)`; `None` on budget
/// overflow. The only place the explicit engine is set up for a session.
fn infer_query_explicit<S: SchemaLike>(
    schema: &S,
    config: &AnalyzerConfig,
    q: &Query,
    k: usize,
    jobs: Jobs,
) -> Option<QueryChains> {
    let universe = Universe::with_k(schema, k);
    let eng = ExplicitEngine::new(&universe, config.explicit_budget)
        .with_element_chains(config.element_chains)
        .with_jobs(jobs);
    eng.infer_query(&eng.root_gamma(q.free_vars()), q).ok()
}

/// Explicit update inference for one `(expression, k)`; `None` on overflow.
fn infer_update_explicit<S: SchemaLike>(
    schema: &S,
    config: &AnalyzerConfig,
    u: &Update,
    k: usize,
    jobs: Jobs,
) -> Option<UpdateChains> {
    let universe = Universe::with_k(schema, k);
    let eng = ExplicitEngine::new(&universe, config.explicit_budget)
        .with_element_chains(config.element_chains)
        .with_jobs(jobs);
    eng.infer_update(&eng.root_gamma(u.free_vars()), u).ok()
}

/// Produces one cell's verdict from the session caches. `cdag_independent`
/// is the CDAG cell-pass result, present for every non-explicit engine.
/// This is the only place a [`Verdict`] is assembled.
fn cell_verdict<S: SchemaLike>(
    config: &AnalyzerConfig,
    (k, k_query, k_update): (usize, usize, usize),
    qkey: &Arc<str>,
    ukey: &Arc<str>,
    caches: &SessionCaches<'_, S>,
    cdag_independent: Option<bool>,
) -> Verdict {
    let explicit = || -> Option<Verdict> {
        let qc = caches.explicit_query(qkey, k)??;
        let uc = caches.explicit_update(ukey, k)??;
        let witness = find_conflict(&qc, &uc);
        Some(Verdict {
            independent: witness.is_none(),
            k,
            k_query,
            k_update,
            engine_used: EngineKind::Explicit,
            query_chain_count: qc.total_len(),
            update_chain_count: uc.len(),
            witness,
        })
    };
    let cdag = |independent: bool| -> Verdict {
        let qc = caches
            .cdag_query(qkey, k)
            .expect("cdag query chains ensured");
        let uc = caches
            .cdag_update(ukey, k)
            .expect("cdag update chains ensured");
        // Dependent CDAG verdicts carry a synthesized witness (deterministic
        // BFS over the conflicting sub-DAG), so pairs whose explicit
        // confirmation overflowed still explain *which* chains collide.
        let witness = if independent {
            None
        } else {
            caches.engines.checkout(k).find_dag_conflict(&qc, &uc)
        };
        Verdict {
            independent,
            k,
            k_query,
            k_update,
            engine_used: EngineKind::Cdag,
            witness,
            query_chain_count: qc.returns.edge_count() + qc.used.edge_count(),
            update_chain_count: uc.edge_count(),
        }
    };
    match (config.engine, cdag_independent) {
        // A forced explicit engine whose budget overflowed answers with the
        // conservative (dependent) verdict.
        (EngineKind::Explicit, _) => explicit().unwrap_or(Verdict {
            independent: false,
            k,
            k_query,
            k_update,
            engine_used: EngineKind::Explicit,
            witness: None,
            query_chain_count: 0,
            update_chain_count: 0,
        }),
        (EngineKind::Cdag, Some(independent)) | (EngineKind::Auto, Some(independent @ true)) => {
            cdag(independent)
        }
        (EngineKind::Auto, Some(false)) => explicit().unwrap_or_else(|| cdag(false)),
        (_, None) => unreachable!("the CDAG cell pass runs for every non-explicit engine"),
    }
}

/// The verdict of a fresh one-shot session: the from-scratch reference that
/// warm checks and materialized matrices are tested against.
#[cfg(test)]
pub(crate) fn fresh_check<S: SchemaLike>(
    schema: &S,
    config: &AnalyzerConfig,
    q: &Query,
    u: &Update,
) -> Verdict {
    SessionBuilder::new(schema)
        .config(config.clone())
        .build()
        .check(q, u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qui_schema::Dtd;
    use qui_xquery::{parse_query, parse_update};

    fn figure1() -> Dtd {
        Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap()
    }

    /// A fresh session holding the whole workload, registered in one batch.
    fn fresh_matrix<'a>(
        schema: &'a Dtd,
        views: &[Query],
        updates: &[Update],
        config: &AnalyzerConfig,
        jobs: Jobs,
    ) -> AnalysisSession<'a, Dtd> {
        let mut session = SessionBuilder::new(schema)
            .config(config.clone())
            .jobs(jobs)
            .build();
        session.add_workload(
            views
                .iter()
                .enumerate()
                .map(|(i, q)| (format!("v{}", i + 1), q.clone())),
            updates
                .iter()
                .enumerate()
                .map(|(i, u)| (format!("u{}", i + 1), u.clone())),
        );
        session
    }

    /// Asserts that every materialized cell equals a per-pair
    /// [`fresh_check`].
    fn assert_cells_match_fresh_checks(session: &AnalysisSession<'_, Dtd>) {
        for (ui, (_, u)) in session.updates().enumerate() {
            for (vi, (_, v)) in session.views().enumerate() {
                let fresh = fresh_check(session.schema(), session.config(), v, u);
                assert_eq!(
                    session.verdict(ui, vi),
                    &fresh,
                    "cell (view {vi}, update {ui}) diverged"
                );
            }
        }
    }

    fn small_matrix() -> (Vec<Query>, Vec<Update>) {
        let views = ["//a//c", "//c", "//b", "//a", "//node()"]
            .iter()
            .map(|s| parse_query(s).unwrap())
            .collect();
        let updates = [
            "delete //b//c",
            "delete //c",
            "for $x in /a return insert <c/> into $x",
            "for $x in /a return rename $x as b",
        ]
        .iter()
        .map(|s| parse_update(s).unwrap())
        .collect();
        (views, updates)
    }

    #[test]
    fn batch_matches_sequential_for_every_engine_and_job_count() {
        let d = figure1();
        let (views, updates) = small_matrix();
        for engine in [EngineKind::Auto, EngineKind::Explicit, EngineKind::Cdag] {
            let config = AnalyzerConfig {
                engine,
                ..Default::default()
            };
            for jobs in [1, 2, 8] {
                let m = fresh_matrix(&d, &views, &updates, &config, Jobs::Fixed(jobs));
                assert_cells_match_fresh_checks(&m);
            }
        }
    }

    #[test]
    fn budget_overflow_falls_back_to_cdag_like_the_analyzer() {
        let d = Dtd::parse_compact("a -> (b|c)* ; b -> (b|c)* ; c -> (b|c)*", "a").unwrap();
        let views = vec![
            parse_query("//b//c//b").unwrap(),
            parse_query("//b").unwrap(),
        ];
        let updates = vec![parse_update("delete //c//b//c").unwrap()];
        let config = AnalyzerConfig {
            explicit_budget: 100,
            ..Default::default()
        };
        let m = fresh_matrix(&d, &views, &updates, &config, Jobs::Fixed(2));
        assert_eq!(m.verdict(0, 0).engine_used, EngineKind::Cdag);
        assert_cells_match_fresh_checks(&m);
    }

    #[test]
    fn matrix_shape_and_counts() {
        let d = figure1();
        let (views, updates) = small_matrix();
        let defaults = AnalyzerConfig::default();
        let m = fresh_matrix(&d, &views, &updates, &defaults, Jobs::Fixed(1));
        assert_eq!(m.n_views(), 5);
        assert_eq!(m.n_updates(), 4);
        assert_eq!(m.n_views() * m.n_updates(), 20);
        assert_eq!(m.independent_flags(0).len(), 5);
        assert_eq!(
            m.independent_flags(0),
            views
                .iter()
                .map(|v| fresh_check(&d, &defaults, v, &updates[0]).is_independent())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_inputs_yield_empty_matrices() {
        let d = figure1();
        let (views, updates) = small_matrix();
        let defaults = AnalyzerConfig::default();
        let m = fresh_matrix(&d, &[], &updates, &defaults, Jobs::Auto);
        assert_eq!(m.n_views() * m.n_updates(), 0);
        assert_eq!(m.n_updates(), 4);
        let m = fresh_matrix(&d, &views, &[], &defaults, Jobs::Auto);
        assert_eq!(m.n_views() * m.n_updates(), 0);
        assert_eq!(m.n_updates(), 0);
    }

    #[test]
    fn k_override_is_respected() {
        let d = figure1();
        let (views, updates) = small_matrix();
        let config = AnalyzerConfig {
            k_override: Some(7),
            ..Default::default()
        };
        let m = fresh_matrix(&d, &views, &updates, &config, Jobs::Fixed(2));
        assert!(m.rows.iter().flatten().all(|v| v.k == 7));
        assert_cells_match_fresh_checks(&m);
    }

    #[test]
    fn report_k_range_is_the_bound_the_verdicts_used() {
        let d = figure1();
        let q = parse_query("//a//c").unwrap();
        let u = parse_update("delete //b//c").unwrap();
        let pair_k = k_for_pair(&q, &u);
        for (k_override, expected) in [(None, pair_k), (Some(7), 7)] {
            let mut session = SessionBuilder::new(&d).k_override(k_override).build();
            session.add_workload([("v".into(), q.clone())], [("u".into(), u.clone())]);
            assert_eq!(session.verdict(0, 0).k, expected);
            assert_eq!(session.reports()[0].k_range, (expected, expected));
        }
        // Without an override the range spans the per-pair bounds.
        let (views, updates) = small_matrix();
        let m = fresh_matrix(
            &d,
            &views,
            &updates,
            &AnalyzerConfig::default(),
            Jobs::Fixed(1),
        );
        for (report, u) in m.reports().iter().zip(&updates) {
            let ks: Vec<usize> = views.iter().map(|v| k_for_pair(v, u)).collect();
            let range = (*ks.iter().min().unwrap(), *ks.iter().max().unwrap());
            assert_eq!(report.k_range, range);
        }
    }

    #[test]
    fn session_is_sync_and_send() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<AnalysisSession<'static, Dtd>>();
    }

    #[test]
    fn warm_check_is_bit_identical_to_fresh_analyzer() {
        let d = figure1();
        let pairs = [
            ("//a//c", "delete //b//c"),
            ("//c", "delete //b//c"),
            ("//b", "delete //c"),
        ];
        for engine in [EngineKind::Auto, EngineKind::Explicit, EngineKind::Cdag] {
            let config = AnalyzerConfig {
                engine,
                ..Default::default()
            };
            let session = SessionBuilder::new(&d).config(config.clone()).build();
            for (qs, us) in pairs {
                let q = parse_query(qs).unwrap();
                let u = parse_update(us).unwrap();
                let fresh = fresh_check(&d, &config, &q, &u);
                // First (cold) and second (warm) session check both match.
                assert_eq!(session.check(&q, &u), fresh, "({qs}, {us})");
                assert_eq!(session.check(&q, &u), fresh, "({qs}, {us})");
            }
        }
    }

    #[test]
    fn concurrent_checks_match_sequential_checks() {
        let d = figure1();
        let pairs: Vec<(Query, Update)> = [
            ("//a//c", "delete //b//c"),
            ("//c", "delete //b//c"),
            ("//b", "delete //c"),
            ("//node()", "delete //c"),
        ]
        .iter()
        .map(|(q, u)| (parse_query(q).unwrap(), parse_update(u).unwrap()))
        .collect();
        let session = AnalysisSession::new(&d);
        let sequential: Vec<Verdict> = pairs.iter().map(|(q, u)| session.check(q, u)).collect();
        // 8 threads hammer the same shared session; every verdict must be
        // bit-identical to the sequential ones.
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (session, pairs, sequential) = (&session, &pairs, &sequential);
                s.spawn(move || {
                    for _ in 0..10 {
                        for ((q, u), expected) in pairs.iter().zip(sequential) {
                            assert_eq!(&session.check(q, u), expected);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn repeated_checks_hit_the_caches() {
        let d = figure1();
        let session = AnalysisSession::new(&d);
        let q = parse_query("//a//c").unwrap();
        let u = parse_update("delete //b//c").unwrap();
        session.check(&q, &u);
        let after_first = session.stats();
        session.check(&q, &u);
        let after_second = session.stats();
        assert_eq!(
            after_first.cdag_inferences, after_second.cdag_inferences,
            "the warm check must not re-infer"
        );
        assert!(after_second.cdag_cache_hits > after_first.cdag_cache_hits);
    }

    /// Pins the CDAG cache's reuse on the XMark 36 × 31 matrix: 268
    /// `(expression, k)` requests cost 130 inferences, because an
    /// unsaturated result serves every larger bound of its expression.
    #[test]
    fn xmark_matrix_cdag_reuse_is_exact() {
        let d = qui_workloads::xmark_dtd();
        let views = qui_workloads::all_views();
        let updates = qui_workloads::all_updates();
        for jobs in [1, 2] {
            let mut session = SessionBuilder::new(&d)
                .engine(EngineKind::Cdag)
                .jobs(Jobs::Fixed(jobs))
                .build();
            session.add_workload(
                views.iter().map(|v| (v.name.to_string(), v.query.clone())),
                updates
                    .iter()
                    .map(|u| (u.name.to_string(), u.update.clone())),
            );
            let stats = session.stats();
            assert_eq!(stats.cdag_inferences, 130, "jobs = {jobs}");
            assert_eq!(stats.cdag_cache_hits, 138, "jobs = {jobs}");
            assert_eq!(session.independent_count(), 918, "jobs = {jobs}");
            for v in &views {
                for u in &updates {
                    session.check(&v.query, &u.update);
                }
            }
            assert_eq!(
                session.stats().cdag_inferences,
                130,
                "warm checks never re-infer (jobs = {jobs})"
            );
        }
    }

    #[test]
    fn overflowed_query_side_skips_update_inference() {
        let d = figure1();
        // A budget of 0 overflows every explicit inference, so the explicit
        // path is always conservative: the update side must not even be
        // attempted.
        let session = SessionBuilder::new(&d)
            .engine(EngineKind::Explicit)
            .explicit_budget(0)
            .build();
        let q = parse_query("//a//c").unwrap();
        let u = parse_update("delete //b//c").unwrap();
        let verdict = session.check(&q, &u);
        assert!(!verdict.is_independent(), "overflow must stay conservative");
        let stats = session.stats();
        assert_eq!(
            stats.explicit_inferences, 1,
            "only the query side runs; the update inference is short-circuited"
        );
        // The verdict still matches a fresh session bit for bit.
        let config = AnalyzerConfig {
            engine: EngineKind::Explicit,
            explicit_budget: 0,
            ..Default::default()
        };
        assert_eq!(verdict, fresh_check(&d, &config, &q, &u));
    }

    #[test]
    fn incremental_edits_match_fresh_matrix() {
        let d = figure1();
        let views = ["//a//c", "//c", "//b"];
        let updates = ["delete //b//c", "delete //c"];
        let mut session = AnalysisSession::new(&d);
        for (i, v) in views.iter().enumerate() {
            session.add_view(format!("v{i}"), parse_query(v).unwrap());
        }
        for (i, u) in updates.iter().enumerate() {
            session.add_update(format!("u{i}"), parse_update(u).unwrap());
        }
        // Edit: drop a view and an update, then add a new view.
        session.remove_view("v1");
        session.remove_update("u0");
        session.add_view("v3", parse_query("//node()").unwrap());
        let remaining_views: Vec<Query> = session.views().map(|(_, q)| q.clone()).collect();
        let remaining_updates: Vec<Update> = session.updates().map(|(_, u)| u.clone()).collect();
        let fresh = fresh_matrix(
            &d,
            &remaining_views,
            &remaining_updates,
            &AnalyzerConfig::default(),
            Jobs::Fixed(1),
        );
        assert_eq!(session.n_views(), fresh.n_views());
        assert_eq!(session.n_updates(), fresh.n_updates());
        assert_eq!(session.rows, fresh.rows);
    }

    #[test]
    fn add_workload_equals_one_at_a_time() {
        let d = figure1();
        let views = ["//a//c", "//c", "//b"];
        let updates = ["delete //b//c", "delete //c"];
        let mut bulk = AnalysisSession::new(&d);
        bulk.add_workload(
            views
                .iter()
                .enumerate()
                .map(|(i, v)| (format!("v{i}"), parse_query(v).unwrap())),
            updates
                .iter()
                .enumerate()
                .map(|(i, u)| (format!("u{i}"), parse_update(u).unwrap())),
        );
        let mut single = AnalysisSession::new(&d);
        for (i, v) in views.iter().enumerate() {
            single.add_view(format!("v{i}"), parse_query(v).unwrap());
        }
        for (i, u) in updates.iter().enumerate() {
            single.add_update(format!("u{i}"), parse_update(u).unwrap());
        }
        for ui in 0..updates.len() {
            assert_eq!(
                bulk.independent_flags(ui),
                single.independent_flags(ui),
                "update {ui}"
            );
        }
        // And a second workload on top of the first only computes new cells.
        bulk.add_workload(
            std::iter::once(("v9".to_string(), parse_query("//node()").unwrap())),
            std::iter::empty(),
        );
        assert_eq!(bulk.n_views(), 4);
        assert_eq!(bulk.independent_flags(0).len(), 4);
    }

    #[test]
    fn recompute_is_idempotent_and_warm() {
        let d = figure1();
        let mut session = AnalysisSession::new(&d);
        session.add_workload(
            [("v0".to_string(), parse_query("//a//c").unwrap())],
            [("u0".to_string(), parse_update("delete //b//c").unwrap())],
        );
        let before = session.independent_flags(0);
        let inferences = session.stats().cdag_inferences;
        session.recompute();
        assert_eq!(session.independent_flags(0), before);
        assert_eq!(
            session.stats().cdag_inferences,
            inferences,
            "recompute must be served entirely from the caches"
        );
    }

    #[test]
    fn reports_match_the_materialized_matrix() {
        let d = figure1();
        let mut session = AnalysisSession::new(&d);
        session.add_workload(
            [
                ("v1".to_string(), parse_query("//a//c").unwrap()),
                ("v2".to_string(), parse_query("//c").unwrap()),
            ],
            [("u1".to_string(), parse_update("delete //b//c").unwrap())],
        );
        let reports = session.reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].update_name, "u1");
        assert_eq!(reports[0].rows.len(), 2);
        assert_eq!(reports[0].independent_count(), 1);
    }

    #[test]
    fn display_colliding_expressions_get_distinct_cache_entries() {
        // These two queries print identically under `Display` (Concat is
        // rendered without parentheses) but are structurally different —
        // they even have different k bounds. The cache key must separate
        // them, or a warm check would serve one the other's chain sets.
        let d = figure1();
        let q1 = parse_query("for $x in //b return ($x/c, //a)").unwrap();
        let q2 = parse_query("for $x in //b return $x/c, //a").unwrap();
        assert_eq!(q1.to_string(), q2.to_string());
        assert_ne!(q1, q2, "the parses must differ structurally");
        let u = parse_update("delete //b//c").unwrap();
        let defaults = AnalyzerConfig::default();
        let session = AnalysisSession::new(&d);
        for q in [&q1, &q2, &q1, &q2] {
            assert_eq!(
                session.check(q, &u),
                fresh_check(&d, &defaults, q, &u),
                "cached check diverged for {q}"
            );
        }
    }

    #[test]
    fn explain_lists_chains_under_the_session_configuration() {
        // A budget of 0 overflows every explicit inference, so `explain`
        // must not list chain sets materialized under any other budget.
        let d = Dtd::parse_compact(
            "bib -> book* ; book -> (title, author*) ; title -> #PCDATA ; \
             author -> #PCDATA",
            "bib",
        )
        .unwrap();
        let session = SessionBuilder::new(&d)
            .engine(EngineKind::Explicit)
            .explicit_budget(0)
            .explain_options(ExplainOptions {
                max_chains: 12,
                list_chains: true,
            })
            .build();
        let q = parse_query("//title").unwrap();
        let u = parse_update("for $x in //book return insert <author/> into $x").unwrap();
        let report = session.explain(&q, &u);
        assert!(
            report.contains("0 query chains, 0 update chains"),
            "{report}"
        );
        assert!(
            report
                .contains("(chain sets not listed: explicit materialization exceeded its budget)"),
            "{report}"
        );
        assert!(!report.contains("bib.book.title"), "{report}");
    }

    #[test]
    fn explicit_chain_accessors_share_the_session_cache() {
        let d = figure1();
        let session = AnalysisSession::new(&d);
        let q = parse_query("//a//c").unwrap();
        let u = parse_update("delete //b//c").unwrap();
        let k = session.k_for(&q, &u);
        let qc = session
            .explicit_query_chains(&q, k)
            .expect("fits the budget");
        let uc = session
            .explicit_update_chains(&u, k)
            .expect("fits the budget");
        assert!(!qc.returns.is_empty() && !uc.is_empty());
        assert_eq!(session.stats().explicit_inferences, 2);
        // A second request is served from the cache, as the same `Arc`.
        let again = session.explicit_query_chains(&q, k).unwrap();
        assert!(Arc::ptr_eq(&qc, &again));
        assert_eq!(session.stats().explicit_inferences, 2);
        assert!(session.stats().explicit_cache_hits >= 1);
        // Overflow is reported as `None` and remembered.
        let tight = SessionBuilder::new(&d).explicit_budget(0).build();
        assert!(tight.explicit_query_chains(&q, k).is_none());
        assert!(tight.explicit_query_chains(&q, k).is_none());
        assert_eq!(tight.stats().explicit_inferences, 1);
    }

    #[test]
    fn streaming_projection_is_cached() {
        let d = figure1();
        let session = AnalysisSession::new(&d);
        let q = parse_query("//a//c").unwrap();
        let p1 = session.streaming_projection(&q);
        let p2 = session.streaming_projection(&q);
        assert_eq!(p1.len(), p2.len());
        assert!(!p1.is_empty());
    }
}
