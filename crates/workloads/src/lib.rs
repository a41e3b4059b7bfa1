//! # qui-workloads — the experimental workloads of §6.2
//!
//! * [`xmark`] — an XMark-style auction DTD (76 element types, with the two
//!   mutually-recursive cliques of sizes 2 and 3 the paper relies on) and
//!   document generation at the three scales of the maintenance experiment.
//! * [`views`] — the 36 views: XMark-style queries `q1–q20` and
//!   XPathMark-style queries `A1–A8` / `B1–B8`, rewritten into the paper's
//!   XQuery fragment exactly as §6.2 prescribes (predicates in disjunctive
//!   form, no attributes, paths extracted from functions/arithmetic).
//! * [`updates`] — the 31 updates: `UA1–UA8`, `UB1–UB8` (deletions of the
//!   XPathMark paths), `UI1–UI5` (insertions), `UN1–UN5` (renamings),
//!   `UP1–UP5` (replacements), covering all document regions including the
//!   recursive ones.
//! * [`rbench`] — the R-benchmark of the scalability experiment (Fig. 3.d):
//!   schemas `d_n` with `n` fully mutually recursive types and expressions
//!   `e_m` made of `m` consecutive `descendant::node()` steps.
//! * [`harness`] — the experiment drivers: the empirical ground truth
//!   (dynamic checking over generated instances), the precision matrix of
//!   Fig. 3.b, and the view-maintenance simulation of Fig. 3.c.
//! * [`maintain`] — the continuous-maintenance engine extending Fig. 3.c:
//!   live materialized views under a sustained update stream, refreshed
//!   naively or pruned by independence.

pub mod harness;
pub mod maintain;
pub mod rbench;
pub mod updates;
pub mod usecases;
pub mod views;
pub mod xmark;

pub use harness::{
    ground_truth_matrix, ground_truth_matrix_jobs, maintenance_simulation,
    maintenance_simulation_jobs, precision_report, MaintenanceReport, PrecisionRow,
};
pub use maintain::{BatchStats, MaintainStrategy, MaintainedView, MaintenanceEngine};
pub use rbench::{rbench_expression, rbench_schema};
pub use updates::{all_updates, NamedUpdate};
pub use usecases::{bib_document, bib_dtd, bib_pairs, UseCasePair};
pub use views::{all_views, NamedView};
pub use xmark::{stream_xmark_document, xmark_document, xmark_dtd, XmarkScale};
