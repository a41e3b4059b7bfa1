//! Concurrency primitives behind the session's `&self` read path.
//!
//! [`crate::session::AnalysisSession`] serves warm independence checks from
//! shared caches. To let **many threads** call
//! [`check`](crate::session::AnalysisSession::check) on one session at the
//! same time, those caches live behind the two structures here:
//!
//! * [`ShardedMap`] — a hash map split into a fixed number of
//!   independently `RwLock`ed shards. Warm reads take one uncontended read
//!   lock; cold inserts write-lock only the key's shard, so concurrent
//!   checks over different expressions never serialize against each other.
//! * [`EnginePool`] — a checkout pool of [`CdagEngine`]s for conflict
//!   tests. An engine's generation-stamped scratch workspace makes it cheap
//!   to reuse but inherently single-threaded (`!Sync`); the pool hands each
//!   calling thread its own engine and takes it back when the
//!   [`PooledEngine`] guard drops, so scratch reuse survives across calls
//!   *and* across threads without a global lock held during a test.
//!
//! Both structures are deliberately conservative: plain `std::sync`
//! primitives, no lock-free cleverness, and semantics chosen so that racing
//! writers are *idempotent* (two threads inferring the same `(expression,
//! k)` insert equal values — whichever lands second wins without changing
//! any observable result).

use crate::engine::cdag::CdagEngine;
use crate::fxhash::FxHasher;
use qui_schema::SchemaLike;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock};

/// Number of shards. A small power of two: enough that a handful of worker
/// threads rarely collide on a shard lock, small enough that iterating all
/// shards (never on the hot path) stays trivial.
const SHARDS: usize = 16;

/// A concurrent hash map sharded over `SHARDS` independent `RwLock`ed
/// `HashMap`s.
///
/// Values are returned **by clone** — callers store cheap handles
/// (`Arc<T>`, small PODs) so a read is one lock + one clone and no borrow
/// ever escapes a shard lock.
pub struct ShardedMap<K, V> {
    shards: Vec<RwLock<HashMap<K, V>>>,
}

impl<K: Hash + Eq, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }
}

impl<K: Hash + Eq, V> ShardedMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Clones the value under `key`, if present.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.shard(key).read().unwrap().get(key).cloned()
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.shard(key).read().unwrap().contains_key(key)
    }

    /// Inserts `value` under `key` (replacing any previous value).
    pub fn insert(&self, key: K, value: V) {
        self.shard(&key).write().unwrap().insert(key, value);
    }

    /// Applies `f` to the value under `key` (read lock), if present.
    pub fn read_with<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.shard(key).read().unwrap().get(key).map(f)
    }

    /// Applies `f` to the value under `key`, inserting a default first if
    /// the key is missing (write lock).
    pub fn write_with<R>(&self, key: K, f: impl FnOnce(&mut V) -> R) -> R
    where
        V: Default,
    {
        f(self.shard(&key).write().unwrap().entry(key).or_default())
    }

    /// Total number of entries across all shards (not atomic with respect
    /// to concurrent writers; used for stats and tests only).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// Whether the map has no entries (same caveat as [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A checkout pool of [`CdagEngine`]s for [`CdagEngine::independent`] and
/// [`CdagEngine::find_dag_conflict`], on one free list.
///
/// The engine's scratch workspace (mark vectors, adjacency buffers) is what
/// makes warm CDAG checks cheap, but it is interior-mutable and therefore
/// `!Sync`. A thread checks an engine out (or builds a fresh one when the
/// list is empty), runs its conflict tests without holding any lock, and
/// the guard returns the engine — scratch intact — on drop.
///
/// The conflict tests read only the DAGs' node indices, the schema-sized
/// grid width and the scratch: never the multiplicity bound, the
/// element-chain setting or the grid depth. So every pooled engine is built
/// at `k = 1` and serves chain sets inferred at any bound (property-tested
/// in `tests/engine_differential.rs`). Inference does not go through the
/// pool.
pub struct EnginePool<'a, S: SchemaLike> {
    schema: &'a S,
    free: Mutex<Vec<CdagEngine<'a, S>>>,
}

impl<'a, S: SchemaLike> EnginePool<'a, S> {
    /// An empty pool creating engines over `schema`.
    pub fn new(schema: &'a S) -> Self {
        EnginePool {
            schema,
            free: Mutex::new(Vec::new()),
        }
    }

    /// Checks out an engine: a pooled one when available, a fresh one
    /// otherwise. The engine returns to the pool when the guard drops.
    pub fn checkout(&self) -> PooledEngine<'_, 'a, S> {
        let pooled = self.free().pop();
        PooledEngine {
            pool: self,
            engine: Some(pooled.unwrap_or_else(|| CdagEngine::new(self.schema, 1))),
        }
    }

    /// Number of idle engines currently pooled (tests/stats only).
    pub fn idle(&self) -> usize {
        self.free().len()
    }

    /// The free list. A push or pop never leaves it half-updated, so a
    /// thread that panicked while holding the lock left it valid: recover
    /// the guard instead of propagating the poison (the pool is also locked
    /// from `Drop`, which must not panic).
    fn free(&self) -> MutexGuard<'_, Vec<CdagEngine<'a, S>>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn put_back(&self, engine: CdagEngine<'a, S>) {
        let mut free = self.free();
        // Bound the free list: engines beyond a small cap are dropped rather
        // than hoarded (the cap comfortably covers the worker counts the
        // pool sees; an unbounded list would pin every scratch buffer a
        // burst ever allocated).
        if free.len() < 32 {
            free.push(engine);
        }
    }
}

/// RAII guard over a checked-out [`CdagEngine`]; derefs to the engine and
/// returns it to its pool on drop.
pub struct PooledEngine<'p, 'a, S: SchemaLike> {
    pool: &'p EnginePool<'a, S>,
    engine: Option<CdagEngine<'a, S>>,
}

impl<'p, 'a, S: SchemaLike> std::ops::Deref for PooledEngine<'p, 'a, S> {
    type Target = CdagEngine<'a, S>;

    fn deref(&self) -> &CdagEngine<'a, S> {
        self.engine.as_ref().expect("engine present until drop")
    }
}

impl<'p, 'a, S: SchemaLike> Drop for PooledEngine<'p, 'a, S> {
    fn drop(&mut self) {
        if let Some(engine) = self.engine.take() {
            self.pool.put_back(engine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qui_schema::Dtd;
    use std::sync::Arc;

    fn fig1() -> Dtd {
        Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap()
    }

    #[test]
    fn sharded_map_inserts_and_reads_across_threads() {
        let map: ShardedMap<usize, Arc<usize>> = ShardedMap::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let map = &map;
                s.spawn(move || {
                    for i in 0..100 {
                        map.insert(t * 100 + i, Arc::new(i));
                    }
                });
            }
        });
        assert_eq!(map.len(), 400);
        assert_eq!(map.get(&205).as_deref(), Some(&5));
        assert!(map.contains_key(&0));
        assert!(!map.contains_key(&400));
    }

    #[test]
    fn sharded_map_write_with_defaults_and_mutates() {
        let map: ShardedMap<&'static str, Vec<usize>> = ShardedMap::new();
        map.write_with("a", |v| v.push(1));
        map.write_with("a", |v| v.push(2));
        assert_eq!(map.read_with(&"a", |v| v.clone()), Some(vec![1, 2]));
        assert_eq!(map.read_with(&"b", |v| v.clone()), None);
        assert!(!map.is_empty());
    }

    #[test]
    fn engine_pool_reuses_engines_from_one_free_list() {
        let dtd = fig1();
        let pool = EnginePool::new(&dtd);
        assert_eq!(pool.idle(), 0);
        {
            let _a = pool.checkout();
            let _b = pool.checkout();
            // Both checked out: nothing idle.
            assert_eq!(pool.idle(), 0);
        }
        // Both returned on drop.
        assert_eq!(pool.idle(), 2);
        {
            let _again = pool.checkout();
            // One came off the free list, the other stayed.
            assert_eq!(pool.idle(), 1);
        }
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn engine_pool_checkout_works_concurrently() {
        let dtd = fig1();
        let pool = EnginePool::new(&dtd);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = &pool;
                s.spawn(move || {
                    for _ in 0..50 {
                        let e = pool.checkout();
                        // Touch the engine so the checkout is not optimized
                        // away; k() is a cheap accessor, and pooled engines
                        // are built at k = 1.
                        assert_eq!(e.k(), 1);
                    }
                });
            }
        });
        assert!(pool.idle() >= 1);
    }
}
