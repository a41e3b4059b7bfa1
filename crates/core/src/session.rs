//! The stateful front door of the analysis: [`AnalysisSession`] and
//! [`SessionBuilder`].
//!
//! Everything expensive in the paper's static analysis depends only on the
//! *schema* and the *expressions* — chain universes, CDAG closures,
//! compiled path automata — never on which pair a check happens
//! to be part of. A session is constructed **once per schema** and owns all
//! reusable inference state, so repeated checks and matrix queries are warm:
//!
//! * chain sets per `(expression, k)` for both engines, keyed by the
//!   expression itself and held in one cache shape. A CDAG result whose
//!   inference never hit the `k·|d|` depth cap serves every larger bound of
//!   that expression, so the fill routine walks each expression's missing
//!   bounds in ascending order and stops at the first complete result.
//!   Explicit results serve their own bound only, budget overflows
//!   included (a hopeless expression is never re-materialized);
//! * one checkout pool of [`CdagEngine`]s for the conflict tests. Their
//!   generation-stamped scratch workspaces are reused across checks and
//!   matrix cells: each worker checks an engine out, runs without holding
//!   any lock, and returns it. The conflict tests read no multiplicity
//!   bound, so one free list serves every `k`;
//! * a memo of [`check`](AnalysisSession::check) verdicts per `(query,
//!   update)` pair, so a repeated check is one lookup. Only `check` reads or
//!   fills it: matrix cells and [`recompute`](AnalysisSession::recompute)
//!   always run the conflict tests. It is bounded by a fixed number of
//!   entries (a full shard is cleared before the next insert), and no edit
//!   invalidates it, because no verdict depends on the registered workload.
//!
//! ## Concurrent reads, serialized edits
//!
//! The read path is `&self` and thread-safe: every cache lives behind
//! [`crate::concurrent::ShardedMap`] (sharded `RwLock`s) or the
//! [`crate::concurrent::EnginePool`], so **any number of threads may call
//! [`check`](AnalysisSession::check), [`explain`](AnalysisSession::explain)
//! and the matrix accessors ([`verdict`](AnalysisSession::verdict),
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
//! ## One pipeline
//!
//! Matrix cells and [`check`](AnalysisSession::check) run the same
//! pipeline; a check is a one-cell run. Each cell is a query-update pair at
//! `k = k_q + k_u` (paper §5):
//!
//! 1. infer the CDAG chains of the cells' expressions and test each cell
//!    for a conflict;
//! 2. for the cells the CDAG could not prove independent, infer the
//!    explicit query chains, and then the explicit update chains of only
//!    those cells whose query side fit the budget (an overflowed side makes
//!    the cell fall back whatever the other side holds);
//! 3. assemble each verdict from the caches.
//!
//! [`EngineKind::Explicit`] skips step 1 and [`EngineKind::Cdag`] skips
//! step 2; [`EngineKind::Auto`] runs both.
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
use crate::fxhash::FxHashMap;
use crate::kbound::{k_for_pair, k_of_query, k_of_update};
use crate::parallel::{run_indexed, Jobs};
use crate::types::{QueryChains, UpdateChains};
use crate::universe::Universe;
use qui_schema::SchemaLike;
use qui_xquery::{Query, Update};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash};
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
            schema: self.schema,
            config: self.config,
            jobs: self.jobs,
            explain: self.explain,
            views: Vec::new(),
            updates: Vec::new(),
            rows: Vec::new(),
            cdag: Tier::default(),
            explicit: Tier::default(),
            engines: EnginePool::new(self.schema),
            memo: ShardedMap::new(),
            memo_hasher: RandomState::new(),
            cells_computed: 0,
            edits: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Caches
// ---------------------------------------------------------------------------

/// One expression's chain sets across multiplicity bounds. A result that is
/// *complete* at bound `k0` is exact for every bound `≥ k0` and serves them
/// all from one entry; any other result serves its own bound only. Only
/// CDAG results are ever complete: a CDAG inference that never hit the
/// depth cap yields the same DAG at every larger bound (see
/// [`CdagEngine::take_saturated`]).
struct ExprCache<V> {
    /// `(k0, result)`: exact for every bound `≥ k0`.
    complete: Option<(usize, V)>,
    /// Per-bound results.
    per_k: BTreeMap<usize, V>,
}

impl<V> Default for ExprCache<V> {
    fn default() -> Self {
        ExprCache {
            complete: None,
            per_k: BTreeMap::new(),
        }
    }
}

impl<V: Clone> ExprCache<V> {
    fn get(&self, k: usize) -> Option<V> {
        match &self.complete {
            Some((k0, r)) if k >= *k0 => Some(r.clone()),
            _ => self.per_k.get(&k).cloned(),
        }
    }

    /// Records a result inferred at bound `k`; `complete` when it serves
    /// every bound `≥ k`.
    fn insert(&mut self, k: usize, complete: bool, result: V) {
        if !complete {
            self.per_k.insert(k, result);
        } else if !matches!(self.complete, Some((k0, _)) if k0 <= k) {
            self.complete = Some((k, result));
        }
    }
}

/// One engine's caches: the chain sets of queries and of updates, keyed by
/// the expression itself, with the counters of the fill routine. For the
/// explicit engine a result is `None` when its materialization overflowed
/// the budget.
struct Tier<VQ, VU> {
    queries: ShardedMap<Query, ExprCache<VQ>>,
    updates: ShardedMap<Update, ExprCache<VU>>,
    /// Fresh inferences run.
    inferences: AtomicUsize,
    /// Distinct `(expression, k)` requests served from the cache.
    hits: AtomicUsize,
}

impl<VQ, VU> Default for Tier<VQ, VU> {
    fn default() -> Self {
        Tier {
            queries: ShardedMap::new(),
            updates: ShardedMap::new(),
            inferences: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
        }
    }
}

impl<VQ: Clone + Send, VU: Clone + Send> Tier<VQ, VU> {
    fn query(&self, q: &Query, k: usize) -> Option<VQ> {
        self.queries.read_with(q, |c| c.get(k)).flatten()
    }

    fn update(&self, u: &Update, k: usize) -> Option<VU> {
        self.updates.read_with(u, |c| c.get(k)).flatten()
    }

    /// The fill routine of both engines: groups the requested bounds the
    /// cache misses per distinct expression, runs each group's
    /// [`infer_ascending`] ladder over the pool, and stores and counts the
    /// results. Queries and updates share one batch. Groups shard across
    /// the workers first, and any leftover parallelism is handed *inside*
    /// each inference (only the explicit engine uses it).
    fn fill<'e>(
        &self,
        jobs: Jobs,
        queries: impl IntoIterator<Item = (&'e Query, usize)>,
        updates: impl IntoIterator<Item = (&'e Update, usize)>,
        infer_query: impl Fn(&Query, usize, Jobs) -> (VQ, bool) + Sync,
        infer_update: impl Fn(&Update, usize, Jobs) -> (VU, bool) + Sync,
    ) {
        let qg = missing(&self.queries, queries, &self.hits);
        let ug = missing(&self.updates, updates, &self.hits);
        let n_q = qg.len();
        let n = n_q + ug.len();
        if n == 0 {
            return;
        }
        let inner = Jobs::Fixed((jobs.resolve() / n).max(1));
        enum Built<Q, U> {
            Query(Vec<(usize, Q, bool)>),
            Update(Vec<(usize, U, bool)>),
        }
        let built = run_indexed(jobs, n, |i| match qg.get(i) {
            Some((q, ks)) => Built::Query(infer_ascending(ks, |k| infer_query(q, k, inner))),
            None => {
                let (u, ks) = &ug[i - n_q];
                Built::Update(infer_ascending(ks, |k| infer_update(u, k, inner)))
            }
        });
        for (i, b) in built.into_iter().enumerate() {
            match b {
                Built::Query(b) => self.store(&self.queries, &qg[i], b),
                Built::Update(b) => self.store(&self.updates, &ug[i - n_q], b),
            }
        }
    }

    /// Stores one expression's fresh inferences `(k, result, complete)` and
    /// counts them; the group's other bounds were served by a complete one.
    fn store<E: Hash + Eq + Clone, V: Clone>(
        &self,
        map: &ShardedMap<E, ExprCache<V>>,
        (expr, ks): &(&E, Vec<usize>),
        built: Vec<(usize, V, bool)>,
    ) {
        bump(&self.inferences, built.len());
        bump(&self.hits, ks.len() - built.len());
        map.write_with((*expr).clone(), |cache| {
            for (k, result, complete) in built {
                cache.insert(k, complete, result);
            }
        });
    }
}

/// The requested bounds a cache misses, grouped per distinct expression (in
/// first-request order) and sorted ascending. Every distinct request the
/// cache serves counts as a hit. Expressions may come from clients, so the
/// grouping map keeps the default (collision-resistant) hasher.
fn missing<'e, E: Hash + Eq, V: Clone>(
    map: &ShardedMap<E, ExprCache<V>>,
    requests: impl IntoIterator<Item = (&'e E, usize)>,
    hits: &AtomicUsize,
) -> Vec<(&'e E, Vec<usize>)> {
    let mut groups: Vec<(&E, Vec<usize>)> = Vec::new();
    let mut index: HashMap<&E, usize> = HashMap::new();
    for (expr, k) in requests {
        let i = *index.entry(expr).or_insert_with(|| {
            groups.push((expr, Vec::new()));
            groups.len() - 1
        });
        if !groups[i].1.contains(&k) {
            groups[i].1.push(k);
        }
    }
    groups.retain_mut(|(expr, ks)| {
        let requested = ks.len();
        map.read_with(expr, |cache| ks.retain(|&k| cache.get(k).is_none()));
        bump(hits, requested - ks.len());
        ks.sort_unstable();
        !ks.is_empty()
    });
    groups
}

/// The distinct `(expression, k)` requests of one side of a batch of
/// cells, and for each cell the index of its request. Deduplicates by
/// address, which is cheap per cell; equal expressions at different
/// addresses stay separate requests, and the fill routine merges them by
/// value.
fn requests<'e, E>(
    sides: impl Iterator<Item = (&'e E, usize)>,
) -> (Vec<(&'e E, usize)>, Vec<usize>) {
    let mut index: FxHashMap<(*const E, usize), usize> = FxHashMap::default();
    let mut list = Vec::new();
    let of_cell = sides
        .map(|(expr, k)| {
            *index.entry((expr as *const E, k)).or_insert_with(|| {
                list.push((expr, k));
                list.len() - 1
            })
        })
        .collect();
    (list, of_cell)
}

/// The requests whose `wanted` flag is set.
fn marked<'r, 'e, E>(
    requests: &'r [(&'e E, usize)],
    wanted: &'r [bool],
) -> impl Iterator<Item = (&'e E, usize)> + 'r {
    requests
        .iter()
        .zip(wanted)
        .filter(|(_, w)| **w)
        .map(|(r, _)| *r)
}

fn bump(counter: &AtomicUsize, by: usize) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// Most [`check`](AnalysisSession::check) verdicts the memo keeps.
const MEMO_CAPACITY: usize = 4096;

/// One memoized [`check`](AnalysisSession::check): the pair itself, so a
/// hit compares expressions and a hash collision never answers for another
/// pair, and its verdict.
struct Memoized {
    query: Query,
    update: Update,
    verdict: Verdict,
}

/// A registered view: display name, expression and `k_q`.
struct RegisteredView {
    name: String,
    query: Query,
    k_q: usize,
}

/// A registered update: display name, expression and `k_u`.
struct RegisteredUpdate {
    name: String,
    update: Update,
    k_u: usize,
}

/// One cell of the pipeline: a query-update pair, borrowed from the
/// registered workload or from a [`check`](AnalysisSession::check) call,
/// with its bound `k` and the per-side bounds `k_q`, `k_u`.
struct Cell<'e> {
    query: &'e Query,
    update: &'e Update,
    k: usize,
    k_q: usize,
    k_u: usize,
}

/// Cache-effectiveness counters of a session (all monotone). Under
/// concurrent readers the fields are individually accurate but not
/// mutually atomic.
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
    cdag: Tier<Arc<DagQueryChains>, Arc<ChainDag>>,
    explicit: Tier<Option<Arc<QueryChains>>, Option<Arc<UpdateChains>>>,
    engines: EnginePool<'a, S>,
    /// `check` verdicts keyed by the pair's hash under `memo_hasher`. A map
    /// key cannot borrow from two separate expressions, so the entry holds
    /// the pair.
    memo: ShardedMap<u64, Memoized>,
    /// Expressions may come from clients: hash them with random keys.
    memo_hasher: RandomState,
    cells_computed: usize,
    edits: usize,
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
        let load = |counter: &AtomicUsize| counter.load(Ordering::Relaxed);
        SessionStats {
            cdag_inferences: load(&self.cdag.inferences),
            cdag_cache_hits: load(&self.cdag.hits),
            explicit_inferences: load(&self.explicit.inferences),
            explicit_cache_hits: load(&self.explicit.hits),
            cells_computed: self.cells_computed,
            edits: self.edits,
        }
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

    /// Checks independence of one query-update pair, warm: a pair checked
    /// before answers from the session's verdict memo; otherwise chain sets
    /// inferred by earlier checks or workload edits are reused, and fresh
    /// inference results enter the session caches. The verdict is
    /// bit-identical to the first check of a fresh session under the same
    /// configuration, and to the matrix cell of the same pair: a check is a
    /// one-cell run of the matrix pipeline.
    ///
    /// This is `&self` and thread-safe: any number of threads may check
    /// against one session concurrently (see the [module docs](self)).
    pub fn check(&self, q: &Query, u: &Update) -> Verdict {
        let key = self.memo_hasher.hash_one((q, u));
        let hit = self.memo.read_with(&key, |m| {
            (m.query == *q && m.update == *u).then(|| m.verdict.clone())
        });
        if let Some(verdict) = hit.flatten() {
            return verdict;
        }
        let cell = self.cell(q, k_of_query(q), u, k_of_update(u));
        let verdict = self.compute_cells(&[cell]).remove(0);
        let memoized = Memoized {
            query: q.clone(),
            update: u.clone(),
            verdict: verdict.clone(),
        };
        self.memo.insert_bounded(key, memoized, MEMO_CAPACITY);
        verdict
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
        self.fill_explicit([(q, k)], []);
        self.explicit.query(q, k).flatten()
    }

    /// The explicit engine's chain set of an update at bound `k`; see
    /// [`explicit_query_chains`](Self::explicit_query_chains).
    pub fn explicit_update_chains(&self, u: &Update, k: usize) -> Option<Arc<UpdateChains>> {
        self.fill_explicit([], [(u, k)]);
        self.explicit.update(u, k).flatten()
    }

    // -- the pipeline (all `&self`, all idempotent under races) -------------

    fn cell<'e>(&self, query: &'e Query, k_q: usize, update: &'e Update, k_u: usize) -> Cell<'e> {
        Cell {
            query,
            update,
            k: self.config.k_override.unwrap_or(k_q + k_u),
            k_q,
            k_u,
        }
    }

    /// Evaluates `cells` and returns their verdicts in input order: the
    /// single implementation of the pipeline in the [module docs](self).
    /// Each step fills the session caches for the distinct `(expression, k)`
    /// requests of the cells, resolves every request once, and shards the
    /// per-cell work over the pool; conflict tests check their engines out
    /// of the session pool, so scratch workspaces are reused across cells.
    fn compute_cells(&self, cells: &[Cell<'_>]) -> Vec<Verdict> {
        let (queries, q_of) = requests(cells.iter().map(|c| (c.query, c.k)));
        let (updates, u_of) = requests(cells.iter().map(|c| (c.update, c.k)));
        let engine = self.config.engine;
        let cdag = (engine != EngineKind::Explicit).then(|| {
            self.fill_cdag(queries.iter().copied(), updates.iter().copied());
            let qc: Vec<Arc<DagQueryChains>> = queries
                .iter()
                .map(|&(q, k)| self.cdag.query(q, k).expect("cdag query chains filled"))
                .collect();
            let uc: Vec<Arc<ChainDag>> = updates
                .iter()
                .map(|&(u, k)| self.cdag.update(u, k).expect("cdag update chains filled"))
                .collect();
            let proved = run_indexed(self.jobs, cells.len(), |i| {
                self.engines
                    .checkout()
                    .independent(&qc[q_of[i]], &uc[u_of[i]])
            });
            (qc, uc, proved)
        });
        let explicit = (engine != EngineKind::Cdag).then(|| {
            let open: Vec<usize> = (0..cells.len())
                .filter(|&i| !cdag.as_ref().is_some_and(|(_, _, proved)| proved[i]))
                .collect();
            let mut wanted = vec![false; queries.len()];
            for &i in &open {
                wanted[q_of[i]] = true;
            }
            self.fill_explicit(marked(&queries, &wanted), []);
            let qc: Vec<Option<Arc<QueryChains>>> = queries
                .iter()
                .map(|&(q, k)| self.explicit.query(q, k).flatten())
                .collect();
            let mut wanted = vec![false; updates.len()];
            for &i in open.iter().filter(|&&i| qc[q_of[i]].is_some()) {
                wanted[u_of[i]] = true;
            }
            self.fill_explicit([], marked(&updates, &wanted));
            let uc: Vec<Option<Arc<UpdateChains>>> = updates
                .iter()
                .map(|&(u, k)| self.explicit.update(u, k).flatten())
                .collect();
            (qc, uc)
        });
        run_indexed(self.jobs, cells.len(), |i| {
            let (qi, ui) = (q_of[i], u_of[i]);
            self.cell_verdict(
                &cells[i],
                cdag.as_ref()
                    .map(|(qc, uc, proved)| (proved[i], &*qc[qi], &*uc[ui])),
                explicit
                    .as_ref()
                    .and_then(|(qc, uc)| Some((qc[qi].as_deref()?, uc[ui].as_deref()?))),
            )
        })
    }

    fn fill_cdag<'e>(
        &self,
        queries: impl IntoIterator<Item = (&'e Query, usize)>,
        updates: impl IntoIterator<Item = (&'e Update, usize)>,
    ) {
        let (schema, element_chains) = (self.schema, self.config.element_chains);
        self.cdag.fill(
            self.jobs,
            queries,
            updates,
            |q, k, _| cdag_query_at(schema, q, k, element_chains),
            |u, k, _| cdag_update_at(schema, u, k, element_chains),
        );
    }

    fn fill_explicit<'e>(
        &self,
        queries: impl IntoIterator<Item = (&'e Query, usize)>,
        updates: impl IntoIterator<Item = (&'e Update, usize)>,
    ) {
        let (schema, config) = (self.schema, &self.config);
        self.explicit.fill(
            self.jobs,
            queries,
            updates,
            |q, k, jobs| (infer_query_explicit(schema, config, q, k, jobs), false),
            |u, k, jobs| (infer_update_explicit(schema, config, u, k, jobs), false),
        );
    }

    /// Produces one cell's verdict from its chain sets: the CDAG ones with
    /// their conflict test's result (present for every non-explicit engine),
    /// and the explicit ones when both sides fit the budget. This is the only
    /// place a [`Verdict`] is assembled.
    fn cell_verdict(
        &self,
        cell: &Cell<'_>,
        cdag: Option<(bool, &DagQueryChains, &ChainDag)>,
        explicit: Option<(&QueryChains, &UpdateChains)>,
    ) -> Verdict {
        let (k, k_query, k_update) = (cell.k, cell.k_q, cell.k_u);
        let explicit_verdict = || {
            explicit.map(|(qc, uc)| {
                let witness = find_conflict(qc, uc);
                Verdict {
                    independent: witness.is_none(),
                    k,
                    k_query,
                    k_update,
                    engine_used: EngineKind::Explicit,
                    query_chain_count: qc.total_len(),
                    update_chain_count: uc.len(),
                    witness,
                }
            })
        };
        let cdag_verdict = |(independent, qc, uc): (bool, &DagQueryChains, &ChainDag)| {
            // Dependent CDAG verdicts carry a synthesized witness (deterministic
            // BFS over the conflicting sub-DAG), so pairs whose explicit
            // confirmation overflowed still explain *which* chains collide.
            let witness = if independent {
                None
            } else {
                self.engines.checkout().find_dag_conflict(qc, uc)
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
        match (self.config.engine, cdag) {
            // A forced explicit engine whose budget overflowed answers with the
            // conservative (dependent) verdict.
            (EngineKind::Explicit, _) => explicit_verdict().unwrap_or(Verdict {
                independent: false,
                k,
                k_query,
                k_update,
                engine_used: EngineKind::Explicit,
                witness: None,
                query_chain_count: 0,
                update_chain_count: 0,
            }),
            (EngineKind::Cdag, Some(c)) | (EngineKind::Auto, Some(c @ (true, _, _))) => {
                cdag_verdict(c)
            }
            (EngineKind::Auto, Some(c)) => explicit_verdict().unwrap_or_else(|| cdag_verdict(c)),
            (_, None) => unreachable!("the CDAG step runs for every non-explicit engine"),
        }
    }

    // -- the registered workload --------------------------------------------

    /// Runs the pipeline over the matrix cells `(view, update)`.
    fn matrix_cells(&mut self, at: &[(usize, usize)]) -> Vec<Verdict> {
        let cells: Vec<Cell<'_>> = at
            .iter()
            .map(|&(vi, ui)| {
                let (v, u) = (&self.views[vi], &self.updates[ui]);
                self.cell(&v.query, v.k_q, &u.update, u.k_u)
            })
            .collect();
        let verdicts = self.compute_cells(&cells);
        self.cells_computed += verdicts.len();
        verdicts
    }

    fn register_view(&mut self, name: String, query: Query) -> usize {
        let k_q = k_of_query(&query);
        self.views.push(RegisteredView { name, query, k_q });
        self.views.len() - 1
    }

    fn register_update(&mut self, name: String, update: Update) -> usize {
        let k_u = k_of_update(&update);
        self.updates.push(RegisteredUpdate { name, update, k_u });
        self.updates.len() - 1
    }

    /// Registers a view and computes its matrix column against every
    /// registered update (only the new cells are evaluated; chain sets
    /// cached from earlier work are reused). Returns the view's column
    /// index.
    pub fn add_view(&mut self, name: impl Into<String>, query: Query) -> usize {
        let vi = self.register_view(name.into(), query);
        let cells: Vec<(usize, usize)> = (0..self.updates.len()).map(|ui| (vi, ui)).collect();
        let verdicts = self.matrix_cells(&cells);
        for (row, v) in self.rows.iter_mut().zip(verdicts) {
            row.push(v);
        }
        self.edits += 1;
        vi
    }

    /// Registers an update and computes its matrix row against every
    /// registered view. Returns the update's row index.
    pub fn add_update(&mut self, name: impl Into<String>, update: Update) -> usize {
        let ui = self.register_update(name.into(), update);
        let cells: Vec<(usize, usize)> = (0..self.views.len()).map(|vi| (vi, ui)).collect();
        let row = self.matrix_cells(&cells);
        self.rows.push(row);
        self.edits += 1;
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
        let verdicts = self.matrix_cells(&cells);
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
        self.edits += 1;
    }

    /// Recomputes every cell of the materialized matrix from the session
    /// caches (used by the perf harness to measure the warm path; verdicts
    /// are bit-identical to the ones already materialized).
    pub fn recompute(&mut self) {
        let (nv, nu) = (self.views.len(), self.updates.len());
        let cells: Vec<(usize, usize)> = (0..nu)
            .flat_map(|ui| (0..nv).map(move |vi| (vi, ui)))
            .collect();
        let verdicts = self.matrix_cells(&cells);
        let mut it = verdicts.into_iter();
        self.rows = (0..nu).map(|_| it.by_ref().take(nv).collect()).collect();
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
        self.edits += 1;
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
        self.edits += 1;
        Some((u.name, u.update))
    }

    /// Removes the first update with the given name.
    pub fn remove_update(&mut self, name: &str) -> Option<(String, Update)> {
        let idx = self.updates.iter().position(|u| u.name == name)?;
        self.remove_update_at(idx)
    }
}

// ---------------------------------------------------------------------------
// Inference
// ---------------------------------------------------------------------------

/// CDAG query inference for one `(expression, k)`, and whether it stayed
/// under the depth cap (so the result is exact at every larger bound).
fn cdag_query_at<S: SchemaLike>(
    schema: &S,
    q: &Query,
    k: usize,
    element_chains: bool,
) -> (Arc<DagQueryChains>, bool) {
    let eng = CdagEngine::new(schema, k).with_element_chains(element_chains);
    let qc = eng.infer_query(&eng.root_gamma(q.free_vars()), q);
    (Arc::new(qc), !eng.take_saturated())
}

/// CDAG update inference for one `(expression, k)`; see [`cdag_query_at`].
fn cdag_update_at<S: SchemaLike>(
    schema: &S,
    u: &Update,
    k: usize,
    element_chains: bool,
) -> (Arc<ChainDag>, bool) {
    let eng = CdagEngine::new(schema, k).with_element_chains(element_chains);
    let uc = eng.infer_update(&eng.root_gamma(u.free_vars()), u);
    (Arc::new(uc), !eng.take_saturated())
}

/// One expression's inferences over its ascending missing bounds `ks`:
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
) -> Option<Arc<QueryChains>> {
    let universe = Universe::with_k(schema, k);
    let eng = ExplicitEngine::new(&universe, config.explicit_budget)
        .with_element_chains(config.element_chains)
        .with_jobs(jobs);
    eng.infer_query(&eng.root_gamma(q.free_vars()), q)
        .ok()
        .map(Arc::new)
}

/// Explicit update inference for one `(expression, k)`; `None` on overflow.
fn infer_update_explicit<S: SchemaLike>(
    schema: &S,
    config: &AnalyzerConfig,
    u: &Update,
    k: usize,
    jobs: Jobs,
) -> Option<Arc<UpdateChains>> {
    let universe = Universe::with_k(schema, k);
    let eng = ExplicitEngine::new(&universe, config.explicit_budget)
        .with_element_chains(config.element_chains)
        .with_jobs(jobs);
    eng.infer_update(&eng.root_gamma(u.free_vars()), u)
        .ok()
        .map(Arc::new)
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
    use std::collections::BTreeSet;

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
        assert_eq!(
            after_second, after_first,
            "a repeated check answers from the memo: no inference, no cache request"
        );
    }

    /// Checks every pair twice on one session (the second answer comes from
    /// the memo) and asserts both equal a fresh session's check.
    fn assert_memoized_checks_match_fresh<S: SchemaLike>(
        schema: &S,
        queries: &[Query],
        updates: &[Update],
    ) {
        let defaults = AnalyzerConfig::default();
        let session = AnalysisSession::new(schema);
        for u in updates {
            for q in queries {
                let fresh = fresh_check(schema, &defaults, q, u);
                assert_eq!(session.check(q, u), fresh, "cold ({q}, {u})");
                assert_eq!(session.check(q, u), fresh, "memoized ({q}, {u})");
            }
        }
        assert!(session.memo.len() <= MEMO_CAPACITY);
    }

    #[test]
    fn memoized_checks_match_fresh_checks_on_xmark() {
        let d = qui_workloads::xmark_dtd();
        let views: Vec<Query> = qui_workloads::all_views()
            .into_iter()
            .map(|v| v.query)
            .collect();
        let updates: Vec<Update> = qui_workloads::all_updates()
            .into_iter()
            .map(|u| u.update)
            .collect();
        assert_eq!((views.len(), updates.len()), (36, 31));
        assert_memoized_checks_match_fresh(&d, &views, &updates);
    }

    #[test]
    fn memoized_checks_match_fresh_checks_on_the_corpus() {
        use qui_schema::{random_query, random_update, Corpus};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for (si, schema) in Corpus::seeded(1, 8).iter().enumerate() {
            let d = schema.dtd();
            let labels = schema.labels();
            let mut rng = StdRng::seed_from_u64(0x3E30 ^ si as u64);
            let queries: Vec<Query> = (0..8)
                .map(|_| parse_query(&random_query(&labels, &mut rng)).unwrap())
                .collect();
            let updates: Vec<Update> = (0..8)
                .map(|_| parse_update(&random_update(&schema.start, &labels, &mut rng)).unwrap())
                .collect();
            assert_memoized_checks_match_fresh(&d, &queries, &updates);
        }
    }

    #[test]
    fn a_memo_entry_under_another_pairs_hash_never_answers() {
        // Plant an independent pair's entry under the hash of a dependent
        // pair, as a hash collision would: the check must compare the
        // stored pair and compute its own verdict.
        let d = figure1();
        let session = AnalysisSession::new(&d);
        let (q, u) = (
            parse_query("//c").unwrap(),
            parse_update("delete //b//c").unwrap(),
        );
        let other = parse_query("//a//c").unwrap();
        let planted = session.check(&other, &u);
        assert!(planted.is_independent());
        let key = session.memo_hasher.hash_one((&q, &u));
        let entry = Memoized {
            query: other,
            update: u.clone(),
            verdict: planted,
        };
        session.memo.insert(key, entry);
        let verdict = session.check(&q, &u);
        assert!(!verdict.is_independent());
        assert_eq!(verdict, fresh_check(&d, &AnalyzerConfig::default(), &q, &u));
    }

    #[test]
    fn memo_stays_within_its_capacity() {
        // More distinct pairs than the memo keeps: `for $x in //a return
        // insert <t_i/> into $x` for MEMO_CAPACITY + 500 tags `t_i`.
        let d = figure1();
        let session = AnalysisSession::new(&d);
        let q = parse_query("//a//c").unwrap();
        let defaults = AnalyzerConfig::default();
        let n = MEMO_CAPACITY + 500;
        let updates: Vec<Update> = (0..n)
            .map(|i| parse_update(&format!("for $x in //a return insert <t{i}/> into $x")).unwrap())
            .collect();
        for u in &updates {
            session.check(&q, u);
            assert!(session.memo.len() <= MEMO_CAPACITY);
        }
        // Every verdict, evicted or not, still equals a fresh session's.
        for u in updates.iter().step_by(97).chain(updates.last()) {
            let fresh = fresh_check(&d, &defaults, &q, u);
            assert_eq!(session.check(&q, u), fresh, "({q}, {u})");
            assert_eq!(session.check(&q, u), fresh, "({q}, {u})");
        }
        assert!(session.memo.len() <= MEMO_CAPACITY);
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
    fn overflowed_query_side_skips_update_inference_in_the_matrix() {
        // The matrix runs the same short-circuit as a check: with a budget
        // of 0 every query side overflows, so the matrix runs one explicit
        // inference per distinct (view, k) and none for updates.
        let d = figure1();
        let (views, updates) = small_matrix();
        let config = AnalyzerConfig {
            engine: EngineKind::Explicit,
            explicit_budget: 0,
            ..Default::default()
        };
        let m = fresh_matrix(&d, &views, &updates, &config, Jobs::Fixed(2));
        let view_bounds: BTreeSet<(usize, usize)> = views
            .iter()
            .enumerate()
            .flat_map(|(vi, v)| updates.iter().map(move |u| (vi, k_for_pair(v, u))))
            .collect();
        assert_eq!(m.stats().explicit_inferences, view_bounds.len());
        assert_eq!(m.independent_count(), 0, "overflow must stay conservative");
        assert_cells_match_fresh_checks(&m);
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
}
