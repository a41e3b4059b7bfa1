//! # qui-xquery — the query and update languages of the paper (§2)
//!
//! This crate implements, from scratch, the two language fragments the paper
//! analyses:
//!
//! * the **XQuery fragment** `q ::= () | q,q | <a>q</a> | s | x/step | for …
//!   | let … | if …` with all nine axes of the paper (`self`, `child`,
//!   `descendant`, `descendant-or-self`, `parent`, `ancestor`,
//!   `ancestor-or-self`, `preceding-sibling`, `following-sibling`) and the
//!   node tests `a`, `text()`, `node()` (plus `*`, which the paper's
//!   implementation supports as "any label");
//! * the **XQuery Update Facility fragment** with all update operators
//!   (`insert`, `delete`, `rename`, `replace`) composed through sequences,
//!   `for`/`let` iteration and conditionals.
//!
//! It provides:
//!
//! * an [`ast`] with pretty-printing and structural helpers,
//! * a hand-rolled [`parser`] for an XQuery-like concrete syntax, including
//!   path expressions (`/a//b[p]`) which are desugared into the core
//!   fragment exactly as the paper prescribes (iteration + single steps),
//! * an [`eval`] module implementing the W3C-style semantics: query
//!   evaluation `σ, γ ⊨ q ⇒ σ_q, L_q`, the three-phase update semantics
//!   (pending list construction, sanity checks, application), and
//! * [`dynamic`] — a *dynamic* (runtime) independence checker used as the
//!   ground truth against which the static analysis is validated.

pub mod ast;
pub mod dynamic;
pub mod eval;
pub mod parser;
pub mod rewrite;

pub use ast::{Axis, NodeTest, Query, Update, UpdatePos};
pub use dynamic::{dynamic_independent, DynamicOutcome};
pub use eval::{
    apply_pending_list, evaluate_query, evaluate_query_into, evaluate_update, run_update,
    EvalError, Evaluation, UpdateCommand,
};
pub use parser::{parse_query, parse_update, QueryParseError};
pub use rewrite::{normalize_query, normalize_update};

/// The conventional name of the free variable bound to the document root in
/// quasi-closed queries and updates (paper §3.4): absolute paths parse into
/// steps over this variable.
pub const ROOT_VAR: &str = "$root";
