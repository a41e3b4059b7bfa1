//! # qui-schema — DTDs, Extended DTDs and chains (paper §2 and §7)
//!
//! A DTD is a triple `(Σ, s_d, d)`: a finite alphabet of element tags, a
//! start symbol, and a function from tags to regular expressions over
//! `Σ ∪ {S}` (where `S` is the string/text type). This crate provides:
//!
//! * [`Sym`] / [`SymbolTable`] — interned schema symbols. The reserved symbol
//!   [`TEXT_SYM`] plays the role of the paper's `S`.
//! * [`ContentModel`] — regular expressions used as content models, with
//!   word-membership testing (Glushkov construction), nullability, occurring
//!   symbols, and the *sibling order* relation `α <_r β` of §3.1.
//! * [`Dtd`] — schemas with two parsers (a compact `a -> (b, c)*` syntax used
//!   throughout the paper's examples, and standard `<!ELEMENT …>` syntax),
//!   reachability `α ⇒_d β`, recursion analysis, and validation of trees.
//! * [`Chain`] — chains over a schema (Definition 2.1): sequences of symbols
//!   each reachable from the previous one, with the prefix relation `⪯`.
//! * [`Edtd`] — Extended DTDs (§7): types mapped to labels via `µ`, capturing
//!   XML Schema / RelaxNG-style typing where two types may share a label.
//! * [`generate_valid`] — seeded generation of documents valid by
//!   construction, used for the dynamic ground truth and the view-maintenance
//!   experiment (Fig. 3.c).
//!
//! The chain *inference* system itself (Tables 1 and 2 of the paper) lives in
//! `qui-core`; this crate only provides the schema-level notions it builds on.

pub mod attributes;
pub mod chain;
pub mod content;
pub mod corpus;
pub mod dtd;
pub mod edtd;
pub mod genvalid;
pub mod infer;
pub mod parser;
pub mod schema_like;
pub mod symbols;
pub mod validate;
pub mod xsd;

pub use attributes::{parse_dtd_with_attributes, with_attributes, AttrDecl};
pub use chain::Chain;
pub use content::ContentModel;
pub use corpus::{random_query, random_update, Corpus, CorpusSchema, SchemaGen};
pub use dtd::Dtd;
pub use edtd::Edtd;
pub use genvalid::{
    generate_valid, generate_valid_into, generate_valid_xml, DocumentSink, GenValidConfig,
    GenXmlStats,
};
pub use infer::{infer_dtd, InferenceError, InferredDtd};
pub use parser::{default_start, SchemaParseError};
pub use schema_like::SchemaLike;
pub use symbols::{Sym, SymbolTable, TEXT_NAME, TEXT_SYM};
pub use validate::{ValidationError, Validity};
pub use xsd::{parse_xsd, parse_xsd_with_root, XsdError};
