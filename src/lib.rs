//! # xml-qui — Type-Based Detection of XML Query-Update Independence
//!
//! This is the top-level facade crate of the workspace reproducing the VLDB
//! 2012 paper *"Type-Based Detection of XML Query-Update Independence"*
//! (Bidoit-Tollu, Colazzo, Ulliana).
//!
//! It re-exports the public APIs of the individual crates:
//!
//! * [`xmlstore`] — the XML data model (stores, trees, locations), parsing,
//!   serialization, value equivalence and projections (paper §2).
//! * [`schema`] — DTDs and Extended DTDs, content-model regular expressions,
//!   validation, reachability and the chain universe `C_d` (paper §2, §7).
//! * [`xquery`] — the XQuery / XQuery Update Facility fragments of the paper:
//!   AST, parser, evaluator, update pending lists, and a *dynamic*
//!   independence checker used as ground truth in tests (paper §2).
//! * [`core`] — the paper's contribution: chain inference (paper §3), the
//!   infinite analysis (§4), the finite `k`-chain analysis (§5) and the
//!   CDAG-based implementation (§6.1). Its one entry point is the stateful
//!   [`core::AnalysisSession`] (built with [`core::SessionBuilder`]).
//! * [`baseline`] — a re-implementation of the schema-based *type set*
//!   analysis of Benedikt & Cheney used as the comparison baseline.
//! * [`workloads`] — XMark / XPathMark workloads, the update sets of §6.2,
//!   the R-benchmark, and document generators.
//!
//! ## Quick example
//!
//! ```
//! use xml_qui::schema::Dtd;
//! use xml_qui::xquery::{parse_query, parse_update};
//! use xml_qui::core::SessionBuilder;
//!
//! // The DTD from Figure 1 of the paper.
//! let dtd = Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap();
//! let q = parse_query("//a//c").unwrap();
//! let u = parse_update("delete //b//c").unwrap();
//!
//! let session = SessionBuilder::new(&dtd).build();
//! assert!(session.check(&q, &u).is_independent());
//! ```

pub use qui_baseline as baseline;
pub use qui_core as core;
pub use qui_schema as schema;
pub use qui_workloads as workloads;
pub use qui_xmlstore as xmlstore;
pub use qui_xquery as xquery;
