//! Parallel batch analysis of the views × updates matrix.
//!
//! The paper's headline experiment (Fig. 3.a) checks every update of the
//! workload against every view — an embarrassingly parallel workload with a
//! lot of shared structure. This subsystem exploits both properties:
//!
//! * [`pool`] is a dependency-free work-stealing thread pool: scoped threads
//!   pulling chunks of work from a shared injector queue, controlled by
//!   [`Jobs`] (`--jobs N` on the CLI, the `QUI_JOBS` environment variable, or
//!   the machine's available parallelism).
//! * [`batch`] computes each update's chain inference and each view's chain
//!   inference **once per distinct multiplicity bound `k`** and shares the
//!   immutable results (behind [`std::sync::Arc`]) across all matrix cells,
//!   turning `O(|V|·|U|)` inferences into `O(|V|+|U|)` plus cheap per-cell
//!   conflict checks. The implementation lives in [`crate::session`]
//!   (the batch entry points are thin one-shot-session wrappers), which
//!   additionally keeps those shared results warm across calls and edits.
//!
//! `jobs = 1` runs the same batched algorithm strictly sequentially (no
//! threads spawned), and any worker count produces bit-identical verdicts —
//! the property tests in `tests/parallel_matrix.rs` assert parallel ≡
//! sequential on random schemas and workloads.

pub mod batch;
pub mod pool;

pub use batch::{analyze_matrix, assert_matches_sequential, MatrixVerdicts};
pub use pool::{machine_parallelism, run_indexed, Jobs, JOBS_ENV};
