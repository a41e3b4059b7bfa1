//! Parallel execution for the views × updates matrix.
//!
//! The paper's headline experiment (Fig. 3.a) checks every update of the
//! workload against every view — an embarrassingly parallel workload with a
//! lot of shared structure. [`pool`] is a dependency-free work-stealing
//! thread pool: scoped threads pulling chunks of work from a shared injector
//! queue, controlled by [`Jobs`] (`--jobs N` on the CLI, the `QUI_JOBS`
//! environment variable, or the machine's available parallelism).
//!
//! The matrix itself is computed by
//! [`AnalysisSession`](crate::session::AnalysisSession), which infers each
//! expression's chains once per distinct multiplicity bound `k`, shares the
//! immutable results (behind [`std::sync::Arc`]) across all cells, and
//! shards the inference and the per-cell conflict checks over this pool.
//! `jobs = 1` runs the same algorithm strictly sequentially (no threads
//! spawned), and any worker count produces bit-identical verdicts — the
//! property tests in `tests/parallel_matrix.rs` assert parallel ≡
//! sequential on random schemas and workloads.

pub mod pool;

pub use pool::{machine_parallelism, run_indexed, Jobs, JOBS_ENV};
