//! # qui-xmlstore — the XML data model of the paper (§2)
//!
//! The paper models an XML instance as a *store* `σ`: an environment mapping
//! each node location `l` to either an element node `a[L]` (tag `a`, ordered
//! list of children locations `L`) or a text node `s`. A *tree* is a pair
//! `(σ, l_t)` of a store and a root location.
//!
//! This crate provides:
//!
//! * [`Store`] / [`NodeId`] / [`NodeRef`] — a columnar (structure-of-arrays)
//!   store: five parallel `u32` columns (label / parent / first-child /
//!   next-sibling / text-offset) over an interned [`SymbolTable`] and an
//!   out-of-line text arena, supporting the primitive mutations needed by
//!   the XQuery Update Facility semantics (insert, delete, rename, replace)
//!   plus O(1) copy-on-write [`Store::freeze`]/[`Store::snapshot`] sharing.
//! * [`sink`] — the [`ResultSink`] delivery trait (collect / count /
//!   serialize) that query evaluation and streamed projection write matches
//!   into instead of materializing result sequences.
//! * [`Tree`] — a store plus a distinguished root location.
//! * value equivalence `(σ, l) ≅ (σ', l')` ([`value_equiv`],
//!   [`sequence_equiv`]) used by Definition 2.4 (independence).
//! * a small hand-rolled XML [`parser`] and [`serializer`] (no external XML
//!   library is used anywhere in the workspace).
//! * [`streaming`] — a pull parser over any [`std::io::Read`] source that
//!   builds the tree incrementally without materializing the input, plus
//!   streamed label-path projection ([`PathSpec`]) that drops pruned
//!   subtrees during the parse (peak-memory savings, not just node counts).
//! * [`projection`] — XML projections `t|_L` used in the soundness statements
//!   of §3.4 and in the projection-based tests.
//! * [`generator`] — generic random-tree generation used by property tests
//!   (schema-driven generation lives in `qui-schema`).

pub mod decode;
pub mod equiv;
pub mod generator;
pub mod node;
pub mod parser;
pub mod projection;
pub mod serializer;
pub mod sink;
pub mod store;
pub mod streaming;
pub mod symbols;
pub mod tree;

pub use decode::decode_entities;
pub use equiv::{sequence_equiv, value_equiv};
pub use node::NodeId;
pub use parser::{parse_xml, parse_xml_keep_attributes, ParseError};
pub use projection::{project, upward_closure};
pub use serializer::{
    serialize_node, serialize_node_into, serialize_node_with_attributes, serialize_tree,
    serialize_tree_with_attributes,
};
pub use sink::{CollectSink, CountSink, ResultSink, SerializeSink};
pub use store::{ChildIds, NodeRef, Store, StoreBytes};
pub use streaming::{
    parse_xml_reader, parse_xml_stream, parse_xml_stream_sink, project_paths, project_spec,
    AutomatonCursor, PathAutomaton, PathSpec, Projection, StreamConfig, StreamOutcome, StreamStats,
};
pub use symbols::{Sym, SymbolTable, MAX_SYMBOLS, TEXT_NAME, TEXT_SYM};
pub use tree::{Tree, TreeBuilder};
