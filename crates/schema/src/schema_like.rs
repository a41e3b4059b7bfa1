//! A common abstraction over DTDs and Extended DTDs.
//!
//! The chain inference system of `qui-core` is written against this trait so
//! that the §7 extension to Extended DTDs (XML Schema / RelaxNG typing) comes
//! for free: the only difference between a DTD and an EDTD is that in an EDTD
//! several *types* may carry the same *label*, which only affects how node
//! tests select types.

use crate::symbols::Sym;
use std::collections::HashSet;

/// Schema operations needed by the static analyses. Schemas are shared
/// read-only across the analysis workers, hence `Sync`.
pub trait SchemaLike: Sync {
    /// The start type `s_d`.
    fn start_type(&self) -> Sym;

    /// Total number of types, including the text type.
    fn num_types(&self) -> usize;

    /// The label of a type (`µ` in an EDTD; the identity for a DTD).
    fn type_label(&self, t: Sym) -> &str;

    /// All types whose label is `label`.
    fn types_with_label(&self, label: &str) -> Vec<Sym>;

    /// The types occurring in the content model of `t`, i.e. the `β` with
    /// `t ⇒_d β` (Definition 2.1). Empty for the text type.
    fn child_types(&self, t: Sym) -> &[Sym];

    /// The sibling order relation `<_{d(t)}` of the content model of `t`.
    fn before_pairs_of(&self, t: Sym) -> &HashSet<(Sym, Sym)>;

    /// Returns `true` if `t` can (transitively) reach itself, i.e. `t` is a
    /// vertically recursive type.
    fn is_recursive_type(&self, t: Sym) -> bool;

    /// Number of element types (excludes the text type) — the paper's `|d|`.
    fn schema_size(&self) -> usize;

    /// All element types of the schema.
    fn element_types(&self) -> Vec<Sym>;

    /// Returns `true` if the schema has at least one recursive type.
    fn is_recursive(&self) -> bool {
        self.element_types()
            .into_iter()
            .any(|t| self.is_recursive_type(t))
    }

    /// All labels of the schema's element types (the alphabet `Σ`), without
    /// duplicates.
    fn labels(&self) -> Vec<String> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for t in self.element_types() {
            let l = self.type_label(t).to_string();
            if seen.insert(l.clone()) {
                out.push(l);
            }
        }
        out
    }

    /// Returns `true` if `child` occurs in the content model of `parent`
    /// (the one-step reachability `parent ⇒_d child`).
    fn is_child_type(&self, parent: Sym, child: Sym) -> bool {
        self.child_types(parent).contains(&child)
    }

    /// Returns `true` if `chain` is a chain of the schema (every adjacent
    /// pair is in `⇒_d`). The empty chain and singleton chains are chains.
    fn is_chain(&self, chain: &crate::Chain) -> bool {
        chain
            .symbols()
            .windows(2)
            .all(|w| self.is_child_type(w[0], w[1]))
    }
}
