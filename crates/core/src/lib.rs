//! # qui-core — chain-based query-update independence (the paper's contribution)
//!
//! This crate implements the static analysis of *"Type-Based Detection of XML
//! Query-Update Independence"* (VLDB 2012):
//!
//! * **Chain inference** (paper §3): given a schema and a query/update, infer
//!   the *chains* (root-to-node label paths) that evaluation can traverse —
//!   return, used and element chains for queries (Table 1), update chains
//!   `c:c'` for updates (Table 2), starting from single-step inference for
//!   every XPath axis and node test (§3.1).
//! * **C-independence** (paper §4): the query and the update are declared
//!   independent when no inferred query chain and update chain are in the
//!   prefix relation (`confl(r,U) = confl(U,r) = confl(U,v) = ∅`).
//! * **The finite analysis** (paper §5): on recursive schemas the chain sets
//!   are infinite; the analysis restricts itself to *k-chains* with
//!   `k = k_q + k_u` computed from the expressions (Table 3), which is proved
//!   equivalent to the infinite analysis.
//! * **Two engines** (paper §6.1):
//!   [`engine::explicit`] materializes chain sets exactly as the inference
//!   rules prescribe (the reference implementation, used whenever the chain
//!   space is small enough), and [`engine::cdag`] represents chain sets as
//!   chain-DAGs whose width is bounded by the schema size, giving the
//!   polynomial-space/time behaviour the paper reports. The default
//!   [`EngineKind::Auto`] policy runs the CDAG engine first (it proves most
//!   independent pairs outright in polynomial time) and confirms the
//!   remaining pairs with the explicit engine under a configurable budget — which also recovers the conflict witness — so the
//!   explicit engine stays the reference oracle while the CDAG carries the
//!   bulk of the matrix.
//!
//! ## Entry point
//!
//! The one entry point is the stateful [`session`] API — an
//! [`AnalysisSession`] is built once per schema and owns every piece of
//! reusable inference state, so repeated checks and incrementally edited
//! view/update workloads stay warm:
//!
//! ```
//! use qui_schema::Dtd;
//! use qui_xquery::{parse_query, parse_update};
//! use qui_core::SessionBuilder;
//!
//! // The paper's running example (introduction): q1 = //a//c, u1 = delete //b//c
//! let dtd = Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap();
//! let q1 = parse_query("//a//c").unwrap();
//! let u1 = parse_update("delete //b//c").unwrap();
//!
//! let mut session = SessionBuilder::new(&dtd).build();
//! assert!(session.check(&q1, &u1).is_independent());
//! ```
//!
//! ## Concurrency: `&self` reads, `&mut self` edits
//!
//! A session's caches live behind sharded locks (and a checkout pool for
//! the CDAG engines' mutable scratch), so the whole read side —
//! [`check`](session::AnalysisSession::check),
//! [`explain`](session::AnalysisSession::explain),
//! [`verdict`](session::AnalysisSession::verdict),
//! [`reports`](session::AnalysisSession::reports) — takes `&self`:
//! an [`AnalysisSession`] is `Sync`, and any number of threads may share
//! one warm session without an outer lock. Workload edits
//! ([`add_view`](session::AnalysisSession::add_view),
//! [`add_update`](session::AnalysisSession::add_update), `remove_*`) take
//! `&mut self`, so exclusive access is enforced at compile time; to
//! interleave edits with running readers, wrap the session in the
//! [`service`] layer's [`SharedSession`], whose `RwLock` routes read
//! requests to the `&self` path and serializes edits. The [`protocol`]
//! types ([`Request`]/[`Response`]) plus [`Server`] turn the same
//! dispatcher into the `qui serve` HTTP daemon.

pub mod analyzer;
pub mod bitset;
pub mod commutativity;
pub mod concurrent;
pub mod conflict;
pub mod engine;
pub mod explain;
pub mod fxhash;
pub mod json;
pub mod kbound;
pub mod parallel;
pub mod projector;
pub mod protocol;
pub mod service;
pub mod session;
pub mod types;
pub mod universe;

pub use analyzer::{AnalyzerConfig, EngineKind, Verdict};
pub use commutativity::{read_projection, CommutVerdict, CommutativityAnalyzer};
pub use conflict::{chains_conflict, item_conflicts};
pub use explain::{explain_verdict, ExplainOptions, MatrixReport};
pub use json::Json;
pub use kbound::{k_for_pair, k_of_query, k_of_update};
pub use parallel::Jobs;
pub use projector::ChainProjector;
pub use protocol::{Request, Response};
pub use service::{ServeConfig, Server, SessionHandler, SessionRegistry, SharedSession};
pub use session::{AnalysisSession, SessionBuilder, SessionStats};
pub use types::{ChainItem, QueryChains, UpdateChain, UpdateChains};
pub use universe::Universe;
