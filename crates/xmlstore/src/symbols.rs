//! Interned symbols shared by the columnar store and the schema layer.
//!
//! Tag names are interned into small integers ([`Sym`]) so that the store's
//! label column is a dense `u32` vector, and so that chains, content models
//! and CDAG nodes (in `qui-schema` / `qui-core`, which re-export these
//! types) can be compared and hashed cheaply. The reserved symbol
//! [`TEXT_SYM`] plays the role of the paper's string type `S` and doubles as
//! the label of text nodes in the store.

use std::collections::HashMap;
use std::fmt;

/// An interned symbol (an element tag, or the text type `S`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u16);

/// The reserved symbol standing for the paper's string type `S` (text nodes).
pub const TEXT_SYM: Sym = Sym(0);

/// How many symbols a [`SymbolTable`] holds at most (every [`Sym`] value,
/// [`TEXT_SYM`] included).
pub const MAX_SYMBOLS: usize = u16::MAX as usize + 1;

/// The display name used for [`TEXT_SYM`].
pub const TEXT_NAME: &str = "#text";

impl Sym {
    /// Index usable for dense per-symbol tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` if this is the text type `S`.
    #[inline]
    pub fn is_text(self) -> bool {
        self == TEXT_SYM
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A symbol interner. Index 0 is always the text type `S`.
#[derive(Clone, Debug)]
pub struct SymbolTable {
    names: Vec<String>,
    map: HashMap<String, Sym>,
}

impl Default for SymbolTable {
    fn default() -> Self {
        Self::new()
    }
}

impl SymbolTable {
    /// Creates a table containing only the reserved text symbol.
    pub fn new() -> Self {
        let mut t = SymbolTable {
            names: Vec::new(),
            map: HashMap::new(),
        };
        let s = t.intern(TEXT_NAME);
        debug_assert_eq!(s, TEXT_SYM);
        t
    }

    /// Interns `name`, returning its symbol (existing or fresh).
    ///
    /// # Panics
    ///
    /// When the table is full ([`MAX_SYMBOLS`]); input parsers use
    /// [`try_intern`](Self::try_intern) and report an error instead.
    pub fn intern(&mut self, name: &str) -> Sym {
        self.try_intern(name)
            .expect("symbol table overflow (max 65535)")
    }

    /// Interns `name` like [`intern`](Self::intern), or returns `None` when
    /// `name` is new and the table already holds [`MAX_SYMBOLS`] symbols.
    pub fn try_intern(&mut self, name: &str) -> Option<Sym> {
        if let Some(&s) = self.map.get(name) {
            return Some(s);
        }
        let s = Sym(u16::try_from(self.names.len()).ok()?);
        self.names.push(name.to_string());
        self.map.insert(name.to_string(), s);
        Some(s)
    }

    /// Looks up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.map.get(name).copied()
    }

    /// The name of `sym`.
    pub fn name(&self, sym: Sym) -> &str {
        &self.names[sym.index()]
    }

    /// Number of interned symbols (including the text symbol).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if only the text symbol is interned.
    pub fn is_empty(&self) -> bool {
        self.names.len() <= 1
    }

    /// Iterates over all symbols, including [`TEXT_SYM`].
    pub fn all(&self) -> impl Iterator<Item = Sym> + '_ {
        (0..self.names.len() as u16).map(Sym)
    }

    /// Iterates over all element symbols (excluding [`TEXT_SYM`]).
    pub fn elements(&self) -> impl Iterator<Item = Sym> + '_ {
        (1..self.names.len() as u16).map(Sym)
    }

    /// Heap bytes held by the interner (name strings plus map storage, by
    /// capacity). Part of the store's exact byte accounting.
    pub fn heap_bytes(&self) -> usize {
        let names: usize = self
            .names
            .iter()
            .map(|n| n.capacity() + std::mem::size_of::<String>())
            .sum();
        let keys: usize = self.map.keys().map(|k| k.capacity()).sum();
        names + keys + self.map.capacity() * (std::mem::size_of::<(String, Sym)>() + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_symbol_is_reserved() {
        let t = SymbolTable::new();
        assert_eq!(t.lookup(TEXT_NAME), Some(TEXT_SYM));
        assert!(TEXT_SYM.is_text());
        assert_eq!(t.name(TEXT_SYM), TEXT_NAME);
    }

    #[test]
    fn interning_is_idempotent() {
        let mut t = SymbolTable::new();
        let a1 = t.intern("a");
        let a2 = t.intern("a");
        let b = t.intern("b");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(t.len(), 3);
        assert!(!a1.is_text());
    }

    #[test]
    fn element_iterator_skips_text() {
        let mut t = SymbolTable::new();
        t.intern("a");
        t.intern("b");
        let elems: Vec<_> = t.elements().collect();
        assert_eq!(elems.len(), 2);
        assert!(!elems.contains(&TEXT_SYM));
        assert_eq!(t.all().count(), 3);
    }

    #[test]
    fn try_intern_refuses_a_new_name_once_the_table_is_full() {
        let mut t = SymbolTable::new();
        for i in 1..MAX_SYMBOLS {
            assert!(t.try_intern(&format!("t{i}")).is_some());
        }
        assert_eq!(t.len(), MAX_SYMBOLS);
        assert_eq!(t.try_intern("one-too-many"), None);
        assert_eq!(
            t.try_intern("t7"),
            t.lookup("t7"),
            "known names still resolve"
        );
        assert_eq!(t.len(), MAX_SYMBOLS);
    }

    #[test]
    fn heap_bytes_is_nonzero_and_grows() {
        let mut t = SymbolTable::new();
        let before = t.heap_bytes();
        t.intern("some-longer-tag-name");
        assert!(t.heap_bytes() > before);
    }
}
