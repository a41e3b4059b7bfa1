//! The store `σ`: a structure-of-arrays arena of nodes with the primitive
//! mutations required by the XQuery Update Facility semantics (paper §2),
//! with snapshot-isolated copy-on-write sharing for the maintenance
//! simulation.
//!
//! ## Layout
//!
//! Nodes are held as five parallel `u32` columns instead of boxed tree
//! nodes (see the README storage section for the diagram):
//!
//! * `label` — the interned tag symbol ([`Sym`]); text nodes carry
//!   [`TEXT_SYM`].
//! * `parent` — parent location, `NIL` for roots and detached nodes.
//! * `first_child` / `next_sibling` — the child list as an intrusive
//!   singly-linked chain (children of a node are `first_child` followed by
//!   its `next_sibling` chain, in document order).
//! * `text` — index of the node's span in the text arena, `NIL` for
//!   elements. Element-vs-text is decided by this column, so a hypothetical
//!   element named `#text` cannot be confused with a text node.
//!
//! Text payloads live out-of-line in an append-only arena (a span table
//! plus one byte blob). Text is immutable once written, so copies share
//! spans and snapshots share the whole arena. With the `cold-text` feature
//! the frozen base's blob can be spilled to an unlinked temp file
//! (`Store::spill_cold_text`) and paged back per read through
//! [`Store::text_cow`].
//!
//! Tag names are interned into the store's [`SymbolTable`]; `tag()` resolves
//! labels back to names, and the table is shared copy-on-write across
//! snapshots (`Arc` + make_mut).

use crate::node::NodeId;
use crate::symbols::{Sym, SymbolTable, TEXT_SYM};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

const WORD_BITS: usize = 64;

/// Column sentinel: "no node" / "no span".
const NIL: u32 = u32::MAX;

#[inline]
fn opt(raw: u32) -> Option<NodeId> {
    (raw != NIL).then_some(NodeId(raw))
}

/// One node's cells across the five columns (the unit of copy-on-write
/// materialization).
#[derive(Clone, Copy, Debug)]
struct Cells {
    label: u32,
    parent: u32,
    first_child: u32,
    next_sibling: u32,
    text: u32,
}

/// The parallel node columns; one entry per location.
#[derive(Clone, Debug, Default)]
struct Columns {
    label: Vec<u32>,
    parent: Vec<u32>,
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    text: Vec<u32>,
}

impl Columns {
    fn with_capacity(cap: usize) -> Self {
        Columns {
            label: Vec::with_capacity(cap),
            parent: Vec::with_capacity(cap),
            first_child: Vec::with_capacity(cap),
            next_sibling: Vec::with_capacity(cap),
            text: Vec::with_capacity(cap),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.label.len()
    }

    #[inline]
    fn get(&self, i: usize) -> Cells {
        Cells {
            label: self.label[i],
            parent: self.parent[i],
            first_child: self.first_child[i],
            next_sibling: self.next_sibling[i],
            text: self.text[i],
        }
    }

    #[inline]
    fn set(&mut self, i: usize, c: Cells) {
        self.label[i] = c.label;
        self.parent[i] = c.parent;
        self.first_child[i] = c.first_child;
        self.next_sibling[i] = c.next_sibling;
        self.text[i] = c.text;
    }

    #[inline]
    fn push(&mut self, c: Cells) {
        self.label.push(c.label);
        self.parent.push(c.parent);
        self.first_child.push(c.first_child);
        self.next_sibling.push(c.next_sibling);
        self.text.push(c.text);
    }

    /// Moves all of `other`'s rows onto the end of `self`.
    fn append(&mut self, other: &mut Columns) {
        self.label.append(&mut other.label);
        self.parent.append(&mut other.parent);
        self.first_child.append(&mut other.first_child);
        self.next_sibling.append(&mut other.next_sibling);
        self.text.append(&mut other.text);
    }

    fn shrink_to_fit(&mut self) {
        self.label.shrink_to_fit();
        self.parent.shrink_to_fit();
        self.first_child.shrink_to_fit();
        self.next_sibling.shrink_to_fit();
        self.text.shrink_to_fit();
    }
}

/// Text payload arena: a span table over one append-only byte blob.
#[derive(Clone, Debug, Default)]
struct TextArena {
    spans: Vec<(u32, u32)>,
    bytes: Vec<u8>,
}

impl TextArena {
    /// Appends `s`, returning its local span index.
    fn push(&mut self, s: &str) -> u32 {
        let off = u32::try_from(self.bytes.len()).expect("text arena overflow (4 GiB)");
        self.bytes.extend_from_slice(s.as_bytes());
        self.spans.push((off, s.len() as u32));
        (self.spans.len() - 1) as u32
    }

    /// The text of a local span index (hot bytes only).
    fn get(&self, idx: u32) -> &str {
        let (off, len) = self.spans[idx as usize];
        std::str::from_utf8(&self.bytes[off as usize..(off + len) as usize])
            .expect("text arena holds UTF-8")
    }

    fn shrink_to_fit(&mut self) {
        self.spans.shrink_to_fit();
        self.bytes.shrink_to_fit();
    }
}

/// The frozen snapshot base: immutable columns plus text arena, optionally
/// with its blob spilled to the cold file tier.
#[derive(Debug)]
struct Base {
    cols: Columns,
    text: TextArena,
    #[cfg(feature = "cold-text")]
    cold: Option<cold::ColdText>,
}

impl Base {
    fn new(cols: Columns, text: TextArena) -> Self {
        Base {
            cols,
            text,
            #[cfg(feature = "cold-text")]
            cold: None,
        }
    }

    /// Hot text bytes, reading the cold tier back in if spilled.
    fn hot_text(&self) -> TextArena {
        #[cfg(feature = "cold-text")]
        if let Some(cold) = &self.cold {
            return TextArena {
                spans: self.text.spans.clone(),
                bytes: cold.read_all().expect("cold tier read"),
            };
        }
        self.text.clone()
    }

    /// Consumes the base into hot columns + hot text.
    fn into_parts(self) -> (Columns, TextArena) {
        #[cfg(feature = "cold-text")]
        if let Some(cold) = self.cold {
            return (
                self.cols,
                TextArena {
                    spans: self.text.spans,
                    bytes: cold.read_all().expect("cold tier read"),
                },
            );
        }
        (self.cols, self.text)
    }
}

#[cfg(feature = "cold-text")]
mod cold {
    //! The feature-gated cold tier: the frozen base's text blob lives in an
    //! unlinked temp file (the fd keeps the bytes alive; the path is gone,
    //! so nothing leaks past process exit) and is paged in per read with
    //! positioned reads — no `mmap` crate required.

    use std::fs::File;
    use std::io::Write;
    use std::os::unix::fs::FileExt;
    use std::sync::atomic::{AtomicU64, Ordering};

    static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

    /// A file-backed text blob.
    #[derive(Debug)]
    pub(super) struct ColdText {
        file: File,
        len: u64,
    }

    impl ColdText {
        /// Writes `bytes` to a fresh unlinked temp file.
        pub fn write(bytes: &[u8]) -> std::io::Result<ColdText> {
            let path = std::env::temp_dir().join(format!(
                "qui-cold-{}-{}.bin",
                std::process::id(),
                SPILL_SEQ.fetch_add(1, Ordering::Relaxed),
            ));
            let mut file = std::fs::OpenOptions::new()
                .create_new(true)
                .read(true)
                .write(true)
                .open(&path)?;
            let _ = std::fs::remove_file(&path);
            file.write_all(bytes)?;
            Ok(ColdText {
                file,
                len: bytes.len() as u64,
            })
        }

        /// Reads one span back.
        pub fn read(&self, off: u32, len: u32) -> std::io::Result<Vec<u8>> {
            let mut buf = vec![0u8; len as usize];
            self.file.read_exact_at(&mut buf, off as u64)?;
            Ok(buf)
        }

        /// Reads the whole blob back (rehydration on re-freeze).
        pub fn read_all(&self) -> std::io::Result<Vec<u8>> {
            let mut buf = vec![0u8; self.len as usize];
            self.file.read_exact_at(&mut buf, 0)?;
            Ok(buf)
        }

        /// Bytes held on disk.
        pub fn len(&self) -> usize {
            self.len as usize
        }
    }
}

/// Exact per-column heap accounting for a [`Store`] (see
/// [`Store::column_bytes`]). All figures are resident bytes by capacity;
/// [`cold_text`](StoreBytes::cold_text) counts bytes spilled to disk and is
/// *excluded* from [`total`](StoreBytes::total).
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreBytes {
    /// The `label` column (base + tail).
    pub label: usize,
    /// The `parent` column.
    pub parent: usize,
    /// The `first_child` column.
    pub first_child: usize,
    /// The `next_sibling` column.
    pub next_sibling: usize,
    /// The `text` offset column.
    pub text_offset: usize,
    /// The text arena span table.
    pub text_spans: usize,
    /// The resident text blob bytes.
    pub text_bytes: usize,
    /// Text blob bytes spilled to the cold file tier (not resident).
    pub cold_text: usize,
    /// Copy-on-write bookkeeping (overlay map + dirty bitmap).
    pub overlay: usize,
    /// The symbol interner.
    pub symbols: usize,
}

impl StoreBytes {
    /// Total resident heap bytes (excludes [`cold_text`](Self::cold_text)).
    pub fn total(&self) -> usize {
        self.label
            + self.parent
            + self.first_child
            + self.next_sibling
            + self.text_offset
            + self.text_spans
            + self.text_bytes
            + self.overlay
            + self.symbols
    }
}

/// An XML store `σ` — a columnar arena associating node locations with
/// nodes.
///
/// The store supports both pure navigation (children, parent, axes helpers)
/// and the primitive mutations used when applying an update pending list:
/// insertion of children, detaching (deletion), renaming and replacement.
///
/// Locations are never reused; applying an update only ever *adds* locations
/// (`dom(σ) ⊆ dom(σ_w) ⊆ dom(σ_u)` in the paper) and detaches those removed
/// from the accessible tree.
///
/// ## Snapshots
///
/// A store can be [frozen](Self::freeze) into an immutable shared *base*;
/// [`snapshot`](Self::snapshot) then hands out lightweight copy-on-write
/// stores sharing that base behind an [`Arc`]: reads go straight to the base
/// columns, the first mutation of a base node materializes just that node's
/// five cells in a private overlay, and freshly allocated nodes live in
/// private tail columns that continue the base's location sequence. A
/// snapshot is observationally identical to a deep clone — same locations,
/// same navigation, same mutation semantics — without paying O(document)
/// per worker.
#[derive(Clone, Debug, Default)]
pub struct Store {
    /// The shared immutable snapshot base, if any.
    base: Option<Arc<Base>>,
    /// Base cells modified by this store (copy-on-write), by location.
    overlay: HashMap<u32, Cells>,
    /// One bit per base location: set = the cells live in `overlay`.
    dirty: Vec<u64>,
    /// Columns for nodes allocated after the snapshot; location
    /// `base_len + i`.
    tail: Columns,
    /// Text spans for tail nodes; span index `base_spans + i`.
    tail_text: TextArena,
    /// The tag interner, shared copy-on-write across snapshots.
    symbols: Arc<SymbolTable>,
}

impl Store {
    /// Creates an empty store.
    pub fn new() -> Self {
        Store::default()
    }

    /// Creates an empty store with pre-allocated capacity for `cap` nodes.
    pub fn with_capacity(cap: usize) -> Self {
        Store {
            tail: Columns::with_capacity(cap),
            ..Store::default()
        }
    }

    #[inline]
    fn base_len(&self) -> usize {
        self.base.as_ref().map(|b| b.cols.len()).unwrap_or(0)
    }

    #[inline]
    fn base_spans(&self) -> u32 {
        self.base
            .as_ref()
            .map(|b| b.text.spans.len() as u32)
            .unwrap_or(0)
    }

    /// Number of locations in the store (`|dom(σ)|`).
    pub fn len(&self) -> usize {
        self.base_len() + self.tail.len()
    }

    /// Returns `true` if the store contains no locations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all locations in the store, in allocation order.
    pub fn locations(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u32).map(NodeId)
    }

    // ----- cell access (base / overlay / tail routing) -----

    #[inline]
    fn is_dirty(&self, idx: usize) -> bool {
        self.dirty
            .get(idx / WORD_BITS)
            .is_some_and(|&w| w & (1u64 << (idx % WORD_BITS)) != 0)
    }

    #[inline]
    fn cells(&self, idx: usize) -> Cells {
        let base_len = self.base_len();
        if idx < base_len {
            if self.is_dirty(idx) {
                self.overlay[&(idx as u32)]
            } else {
                self.base.as_ref().expect("base present").cols.get(idx)
            }
        } else {
            self.tail.get(idx - base_len)
        }
    }

    /// Applies `f` to the node's cells, materializing base cells into the
    /// overlay on first write.
    #[inline]
    fn update_cells(&mut self, idx: usize, f: impl FnOnce(&mut Cells)) {
        let base_len = self.base_len();
        if idx < base_len {
            if !self.is_dirty(idx) {
                let w = idx / WORD_BITS;
                if self.dirty.len() <= w {
                    self.dirty.resize(base_len.div_ceil(WORD_BITS), 0);
                }
                self.dirty[w] |= 1u64 << (idx % WORD_BITS);
                let cells = self.base.as_ref().expect("base present").cols.get(idx);
                self.overlay.insert(idx as u32, cells);
            }
            f(self.overlay.get_mut(&(idx as u32)).expect("materialized"))
        } else {
            let i = idx - base_len;
            let mut c = self.tail.get(i);
            f(&mut c);
            self.tail.set(i, c);
        }
    }

    /// Sets the parent cell, skipping the write (and the copy-on-write
    /// materialization) when the value is unchanged.
    #[inline]
    fn set_parent_raw(&mut self, idx: usize, v: u32) {
        if self.cells(idx).parent != v {
            self.update_cells(idx, |c| c.parent = v);
        }
    }

    #[inline]
    fn set_next_sibling_raw(&mut self, idx: usize, v: u32) {
        if self.cells(idx).next_sibling != v {
            self.update_cells(idx, |c| c.next_sibling = v);
        }
    }

    #[inline]
    fn set_first_child_raw(&mut self, idx: usize, v: u32) {
        if self.cells(idx).first_child != v {
            self.update_cells(idx, |c| c.first_child = v);
        }
    }

    // ----- byte accounting -----

    /// Exact per-column heap accounting: every column, the text arena, the
    /// copy-on-write bookkeeping and the symbol interner, by capacity.
    /// Shared base columns are counted as if owned (matching the previous
    /// estimator's convention so reports stay comparable).
    pub fn column_bytes(&self) -> StoreBytes {
        let u32s = std::mem::size_of::<u32>();
        let col = |base: Option<&Vec<u32>>, tail: &Vec<u32>| {
            (base.map_or(0, |v| v.capacity()) + tail.capacity()) * u32s
        };
        let b = self.base.as_deref();
        let span_size = std::mem::size_of::<(u32, u32)>();
        #[cfg(feature = "cold-text")]
        let cold_text = b.and_then(|b| b.cold.as_ref()).map_or(0, |c| c.len());
        #[cfg(not(feature = "cold-text"))]
        let cold_text = 0;
        StoreBytes {
            label: col(b.map(|b| &b.cols.label), &self.tail.label),
            parent: col(b.map(|b| &b.cols.parent), &self.tail.parent),
            first_child: col(b.map(|b| &b.cols.first_child), &self.tail.first_child),
            next_sibling: col(b.map(|b| &b.cols.next_sibling), &self.tail.next_sibling),
            text_offset: col(b.map(|b| &b.cols.text), &self.tail.text),
            text_spans: (b.map_or(0, |b| b.text.spans.capacity())
                + self.tail_text.spans.capacity())
                * span_size,
            text_bytes: b.map_or(0, |b| b.text.bytes.capacity()) + self.tail_text.bytes.capacity(),
            cold_text,
            overlay: self.overlay.capacity()
                * (std::mem::size_of::<(u32, Cells)>() + std::mem::size_of::<u64>())
                + self.dirty.capacity() * std::mem::size_of::<u64>(),
            symbols: self.symbols.heap_bytes(),
        }
    }

    /// Total resident heap bytes of the store (see [`Self::column_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.column_bytes().total()
    }

    /// Returns excess column capacity to the allocator. Push-doubling
    /// growth can strand almost a full column's worth of slack right after
    /// a large parse (measured up to +86% bytes/node on a 2M-node
    /// document), so the parsers call this once the document is complete;
    /// it is a cheap no-op when capacities are already tight.
    pub fn compact(&mut self) {
        self.tail.shrink_to_fit();
        self.tail_text.shrink_to_fit();
        self.overlay.shrink_to_fit();
        self.dirty.shrink_to_fit();
    }

    // ----- symbols -----

    /// Interns `name` in this store's symbol table.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(s) = self.symbols.lookup(name) {
            return s;
        }
        Arc::make_mut(&mut self.symbols).intern(name)
    }

    /// This store's symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    // ----- node access -----

    /// A lightweight accessor view of the node at `id`.
    #[inline]
    pub fn node_ref(&self, id: NodeId) -> NodeRef<'_> {
        NodeRef { store: self, id }
    }

    /// Allocates a new element node `tag[children]`, fixing the children's
    /// parent pointers and sibling links, and returns its location.
    pub fn new_element(&mut self, tag: impl AsRef<str>, children: Vec<NodeId>) -> NodeId {
        let sym = self.intern(tag.as_ref());
        self.new_element_sym(sym, children)
    }

    /// Allocates a new element node from an already-interned symbol (the
    /// parser hot path — no name allocation or hashing).
    pub fn new_element_sym(&mut self, sym: Sym, children: Vec<NodeId>) -> NodeId {
        let id = NodeId(self.len() as u32);
        for &c in &children {
            self.set_parent_raw(c.index(), id.0);
        }
        for pair in children.windows(2) {
            self.set_next_sibling_raw(pair[0].index(), pair[1].0);
        }
        if let Some(&last) = children.last() {
            self.set_next_sibling_raw(last.index(), NIL);
        }
        self.tail.push(Cells {
            label: sym.0 as u32,
            parent: NIL,
            first_child: children.first().map_or(NIL, |c| c.0),
            next_sibling: NIL,
            text: NIL,
        });
        id
    }

    /// Allocates a new text node and returns its location.
    pub fn new_text(&mut self, value: impl AsRef<str>) -> NodeId {
        let id = NodeId(self.len() as u32);
        let span = self.base_spans() + self.tail_text.push(value.as_ref());
        self.tail.push(Cells {
            label: TEXT_SYM.0 as u32,
            parent: NIL,
            first_child: NIL,
            next_sibling: NIL,
            text: span,
        });
        id
    }

    /// Allocates a new text node sharing an existing span of this store
    /// (O(1), no byte copy — text is immutable so sharing is safe).
    fn new_text_span(&mut self, span: u32) -> NodeId {
        let id = NodeId(self.len() as u32);
        self.tail.push(Cells {
            label: TEXT_SYM.0 as u32,
            parent: NIL,
            first_child: NIL,
            next_sibling: NIL,
            text: span,
        });
        id
    }

    /// The span text for a global span index.
    fn span_text(&self, span: u32) -> Cow<'_, str> {
        let base_spans = self.base_spans();
        if span < base_spans {
            let b = self.base.as_deref().expect("base present");
            #[cfg(feature = "cold-text")]
            if let Some(cold) = &b.cold {
                let (off, len) = b.text.spans[span as usize];
                let bytes = cold.read(off, len).expect("cold tier read");
                return Cow::Owned(String::from_utf8(bytes).expect("cold tier holds UTF-8"));
            }
            Cow::Borrowed(b.text.get(span))
        } else {
            Cow::Borrowed(self.tail_text.get(span - base_spans))
        }
    }

    /// The tag of `id` if it is an element node.
    pub fn tag(&self, id: NodeId) -> Option<&str> {
        let c = self.cells(id.index());
        (c.text == NIL).then(|| self.symbols.name(Sym(c.label as u16)))
    }

    /// The interned tag symbol of `id` if it is an element node.
    pub fn sym(&self, id: NodeId) -> Option<Sym> {
        let c = self.cells(id.index());
        (c.text == NIL).then_some(Sym(c.label as u16))
    }

    /// The text value of `id` if it is a text node whose bytes are resident.
    ///
    /// When the `cold-text` tier has spilled the frozen base's blob this
    /// returns `None` for base spans — use [`text_cow`](Self::text_cow),
    /// which pages spilled bytes back in.
    pub fn text_value(&self, id: NodeId) -> Option<&str> {
        let c = self.cells(id.index());
        if c.text == NIL {
            return None;
        }
        match self.span_text(c.text) {
            Cow::Borrowed(s) => Some(s),
            Cow::Owned(_) => None,
        }
    }

    /// The text value of `id` if it is a text node, paging in cold bytes if
    /// the store's base blob was spilled.
    pub fn text_cow(&self, id: NodeId) -> Option<Cow<'_, str>> {
        let c = self.cells(id.index());
        (c.text != NIL).then(|| self.span_text(c.text))
    }

    /// Returns `true` if `id` is an element node.
    pub fn is_element(&self, id: NodeId) -> bool {
        self.cells(id.index()).text == NIL
    }

    /// Returns `true` if `id` is a text node.
    pub fn is_text(&self, id: NodeId) -> bool {
        self.cells(id.index()).text != NIL
    }

    /// The first child of `id`, if any.
    #[inline]
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        opt(self.cells(id.index()).first_child)
    }

    /// The next sibling of `id`, if any.
    #[inline]
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        opt(self.cells(id.index()).next_sibling)
    }

    /// Iterates over the ordered children of `id` without allocating.
    #[inline]
    pub fn children_iter(&self, id: NodeId) -> ChildIds<'_> {
        ChildIds {
            store: self,
            cur: self.first_child(id),
        }
    }

    /// The ordered children of `id` (empty for text nodes), collected.
    /// Prefer [`children_iter`](Self::children_iter) on hot paths.
    pub fn children(&self, id: NodeId) -> Vec<NodeId> {
        self.children_iter(id).collect()
    }

    /// The parent location of `id`, if any.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        opt(self.cells(id.index()).parent)
    }

    /// All ancestors of `id`, nearest first (excluding `id` itself).
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            out.push(p);
            cur = self.parent(p);
        }
        out
    }

    /// All descendants of `id` in document (pre) order, excluding `id`.
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        self.subtree_iter(id).skip(1).collect()
    }

    /// `id` followed by all its descendants in document (pre) order.
    pub fn descendants_or_self(&self, root: NodeId) -> Vec<NodeId> {
        self.subtree_iter(root).collect()
    }

    /// Iterates `root` followed by all its descendants in document (pre)
    /// order without allocating: a sibling-chain walk, O(subtree) time.
    #[inline]
    pub fn subtree_iter(&self, root: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        Subtree {
            store: self,
            root,
            next: Some(root),
        }
    }

    /// Number of nodes in the subtree rooted at `id` (including `id`).
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.subtree_iter(id).count()
    }

    /// The following siblings of `id`, in document order.
    pub fn following_siblings(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.next_sibling(id);
        while let Some(s) = cur {
            out.push(s);
            cur = self.next_sibling(s);
        }
        out
    }

    /// The preceding siblings of `id`, in document order.
    pub fn preceding_siblings(&self, id: NodeId) -> Vec<NodeId> {
        match self.parent(id) {
            None => Vec::new(),
            Some(p) => self.children_iter(p).take_while(|&c| c != id).collect(),
        }
    }

    /// Deep-copies the subtree rooted at `src` (which may live in another
    /// store) into `self`, returning the location of the copied root.
    ///
    /// This is the "copy semantics" of XQuery element construction and of the
    /// insert/replace source lists: inserted trees are fresh copies.
    pub fn deep_copy_from(&mut self, src_store: &Store, src: NodeId) -> NodeId {
        if let Some(text) = src_store.text_cow(src) {
            return self.new_text(text.as_ref());
        }
        let copied: Vec<NodeId> = src_store
            .children_iter(src)
            .map(|c| self.deep_copy_from(src_store, c))
            .collect();
        let sym = self.intern(src_store.tag(src).expect("element"));
        self.new_element_sym(sym, copied)
    }

    /// Deep-copies a subtree within this store. Text nodes share their
    /// source span (no byte copy); elements share their interned label.
    pub fn deep_copy(&mut self, src: NodeId) -> NodeId {
        // Plan the subtree first (ids shift as we allocate), then allocate
        // children-before-parents exactly like the recursive builder so the
        // id sequence matches the pointer-tree layout bit for bit.
        enum Plan {
            Text(u32),
            Element(u32, Vec<usize>),
        }
        fn walk(store: &Store, id: NodeId, plans: &mut Vec<Plan>) -> usize {
            let c = store.cells(id.index());
            if c.text != NIL {
                plans.push(Plan::Text(c.text));
            } else {
                let idxs: Vec<usize> = store
                    .children_iter(id)
                    .map(|k| walk(store, k, plans))
                    .collect();
                plans.push(Plan::Element(c.label, idxs));
            }
            plans.len() - 1
        }
        let mut plans: Vec<Plan> = Vec::new();
        let root_plan = walk(self, src, &mut plans);
        let mut ids: Vec<Option<NodeId>> = vec![None; plans.len()];
        for (i, plan) in plans.iter().enumerate() {
            let id = match plan {
                Plan::Text(span) => self.new_text_span(*span),
                Plan::Element(label, kids) => {
                    let kid_ids: Vec<NodeId> =
                        kids.iter().map(|&k| ids[k].expect("post-order")).collect();
                    self.new_element_sym(Sym(*label as u16), kid_ids)
                }
            };
            ids[i] = Some(id);
        }
        ids[root_plan].expect("root planned")
    }

    // ----- primitive mutations (application of update pending lists) -----

    /// Rebuilds `parent`'s child chain to be exactly `kids`, in order.
    /// Unchanged links are not rewritten (keeping the copy-on-write overlay
    /// minimal).
    fn relink_children(&mut self, parent: NodeId, kids: &[NodeId]) {
        self.set_first_child_raw(parent.index(), kids.first().map_or(NIL, |k| k.0));
        for pair in kids.windows(2) {
            self.set_next_sibling_raw(pair[0].index(), pair[1].0);
        }
        if let Some(&last) = kids.last() {
            self.set_next_sibling_raw(last.index(), NIL);
        }
    }

    /// Detaches `id` from its parent's child list (the `del(l)` command).
    ///
    /// The node and its subtree stay in the store but become unreachable from
    /// the tree root, matching `σ_u @ l_t` discarding disconnected locations.
    pub fn detach(&mut self, id: NodeId) {
        if let Some(p) = self.parent(id) {
            let mut kids = self.children(p);
            kids.retain(|&c| c != id);
            self.relink_children(p, &kids);
            self.set_parent_raw(id.index(), NIL);
            self.set_next_sibling_raw(id.index(), NIL);
        }
    }

    /// Inserts `new_children` into `parent`'s child list at position `pos`
    /// (clamped to the list length), fixing parent pointers.
    pub fn insert_children_at(&mut self, parent: NodeId, pos: usize, new_children: &[NodeId]) {
        for &c in new_children {
            self.set_parent_raw(c.index(), parent.0);
        }
        if self.is_element(parent) {
            let mut kids = self.children(parent);
            let pos = pos.min(kids.len());
            for (i, &c) in new_children.iter().enumerate() {
                kids.insert(pos + i, c);
            }
            self.relink_children(parent, &kids);
        }
    }

    /// Appends `new_children` to `parent`'s child list.
    pub fn append_children(&mut self, parent: NodeId, new_children: &[NodeId]) {
        let len = self.children_iter(parent).count();
        self.insert_children_at(parent, len, new_children);
    }

    /// Inserts `new_siblings` immediately before `target` in its parent's
    /// child list. Returns `false` if `target` has no parent.
    pub fn insert_before(&mut self, target: NodeId, new_siblings: &[NodeId]) -> bool {
        match self.parent(target) {
            None => false,
            Some(p) => {
                let pos = self.children_iter(p).position(|c| c == target).unwrap_or(0);
                self.insert_children_at(p, pos, new_siblings);
                true
            }
        }
    }

    /// Inserts `new_siblings` immediately after `target` in its parent's
    /// child list. Returns `false` if `target` has no parent.
    pub fn insert_after(&mut self, target: NodeId, new_siblings: &[NodeId]) -> bool {
        match self.parent(target) {
            None => false,
            Some(p) => {
                let pos = self
                    .children_iter(p)
                    .position(|c| c == target)
                    .map(|i| i + 1)
                    .unwrap_or_else(|| self.children_iter(p).count());
                self.insert_children_at(p, pos, new_siblings);
                true
            }
        }
    }

    /// Replaces `target` with `replacement` in its parent's child list (the
    /// `repl(l, L)` command). Returns `false` if `target` has no parent.
    pub fn replace(&mut self, target: NodeId, replacement: &[NodeId]) -> bool {
        match self.parent(target) {
            None => false,
            Some(p) => {
                let pos = self.children_iter(p).position(|c| c == target).unwrap_or(0);
                self.detach(target);
                self.insert_children_at(p, pos, replacement);
                true
            }
        }
    }

    /// Renames element `target` to `new_tag` (the `ren(l, a)` command).
    /// Text nodes are left untouched.
    pub fn rename(&mut self, target: NodeId, new_tag: &str) {
        if self.is_element(target) {
            let sym = self.intern(new_tag);
            self.update_cells(target.index(), |c| c.label = sym.0 as u32);
        }
    }

    // ----- freeze / snapshot -----

    /// Flattens this store into an immutable shared base, after which
    /// [`snapshot`](Self::snapshot) is O(1). A no-op when the store is
    /// already a clean frozen base. If the base's text blob had been spilled
    /// to the cold tier it is read back (re-freezing implies new hot data to
    /// merge).
    pub fn freeze(&mut self) {
        if self.base.is_some() && self.overlay.is_empty() && self.tail.len() == 0 {
            return;
        }
        let (mut cols, mut text) = match self.base.take() {
            None => (
                std::mem::take(&mut self.tail),
                std::mem::take(&mut self.tail_text),
            ),
            Some(b) => {
                let (mut cols, mut text) = match Arc::try_unwrap(b) {
                    Ok(b) => b.into_parts(),
                    Err(b) => (b.cols.clone(), b.hot_text()),
                };
                for (idx, cells) in self.overlay.drain() {
                    cols.set(idx as usize, cells);
                }
                // Tail span indices already continue the base numbering;
                // only their byte offsets shift on merge.
                let shift = u32::try_from(text.bytes.len()).expect("text arena overflow");
                for &(off, len) in &self.tail_text.spans {
                    text.spans.push((off + shift, len));
                }
                text.bytes.append(&mut self.tail_text.bytes);
                self.tail_text = TextArena::default();
                cols.append(&mut self.tail);
                (cols, text)
            }
        };
        cols.shrink_to_fit();
        text.shrink_to_fit();
        self.overlay.clear();
        self.dirty.clear();
        self.tail = Columns::default();
        self.tail_text = TextArena::default();
        self.base = Some(Arc::new(Base::new(cols, text)));
    }

    /// Spills the frozen base's text blob to the cold file tier (an unlinked
    /// temp file), freezing first if needed. Returns the number of bytes
    /// moved out of resident memory (0 if there was nothing to spill or the
    /// blob is already cold). Reads go through [`text_cow`](Self::text_cow)
    /// afterwards; [`text_value`](Self::text_value) reports `None` for
    /// spilled spans.
    #[cfg(feature = "cold-text")]
    pub fn spill_cold_text(&mut self) -> std::io::Result<usize> {
        self.freeze();
        let Some(base) = self.base.take() else {
            return Ok(0);
        };
        if base.cold.is_some() {
            self.base = Some(base);
            return Ok(0);
        }
        let base = Arc::try_unwrap(base).unwrap_or_else(|b| Base {
            cols: b.cols.clone(),
            text: b.text.clone(),
            cold: None,
        });
        let spilled = base.text.bytes.len();
        let cold = cold::ColdText::write(&base.text.bytes)?;
        self.base = Some(Arc::new(Base {
            cols: base.cols,
            text: TextArena {
                spans: base.text.spans,
                bytes: Vec::new(),
            },
            cold: Some(cold),
        }));
        Ok(spilled)
    }

    /// A copy-on-write snapshot of this store: observationally identical to
    /// `self.clone()`, but sharing the frozen base columns instead of copying
    /// them. O(1) when the store is a clean frozen base (see
    /// [`freeze`](Self::freeze)); falls back to a deep clone otherwise.
    pub fn snapshot(&self) -> Store {
        if self.overlay.is_empty() && self.tail.len() == 0 {
            Store {
                base: self.base.clone(),
                overlay: HashMap::new(),
                dirty: Vec::new(),
                tail: Columns::default(),
                tail_text: TextArena::default(),
                symbols: Arc::clone(&self.symbols),
            }
        } else {
            self.clone()
        }
    }

    // ----- document order -----

    /// Sorts `nodes` into document order and removes duplicates, as XPath
    /// step semantics requires. Nodes are ordered by the location of their
    /// tree's root, then by preorder rank inside that tree, so nodes of
    /// different trees (freshly constructed elements, detached subtrees)
    /// come out grouped by tree in allocation order of the roots.
    ///
    /// Ranks every tree that holds one of `nodes`: O(size of those trees).
    pub fn doc_order_dedup(&self, nodes: &mut Vec<NodeId>) {
        if nodes.len() <= 1 {
            return;
        }
        let mut rank: HashMap<NodeId, (NodeId, usize)> = HashMap::new();
        for &n in nodes.iter() {
            // An unranked node's whole tree is unranked: rank it.
            if rank.contains_key(&n) {
                continue;
            }
            let mut r = n;
            while let Some(p) = self.parent(r) {
                r = p;
            }
            rank.extend(self.subtree_iter(r).enumerate().map(|(i, d)| (d, (r, i))));
        }
        nodes.sort_by_key(|n| rank[n]);
        nodes.dedup();
    }
}

/// A non-allocating preorder iterator over a subtree (see
/// [`Store::subtree_iter`]).
struct Subtree<'s> {
    store: &'s Store,
    root: NodeId,
    next: Option<NodeId>,
}

impl Iterator for Subtree<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.store.first_child(cur).or_else(|| {
            // Climb until a next sibling exists, stopping at the subtree
            // root (whose own siblings are outside the subtree).
            let mut n = cur;
            loop {
                if n == self.root {
                    return None;
                }
                if let Some(s) = self.store.next_sibling(n) {
                    return Some(s);
                }
                n = self
                    .store
                    .parent(n)
                    .expect("chain stays inside the subtree");
            }
        });
        Some(cur)
    }
}

/// A non-allocating iterator over a node's child locations (the
/// `first_child` / `next_sibling` chain).
pub struct ChildIds<'s> {
    store: &'s Store,
    cur: Option<NodeId>,
}

impl Iterator for ChildIds<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.cur?;
        self.cur = self.store.next_sibling(id);
        Some(id)
    }
}

/// A lightweight accessor view of one node: the unified way for call sites
/// outside `qui-xmlstore` to read node contents without touching columns
/// directly.
#[derive(Clone, Copy)]
pub struct NodeRef<'s> {
    store: &'s Store,
    id: NodeId,
}

impl<'s> NodeRef<'s> {
    /// The node's location.
    #[inline]
    pub fn id(self) -> NodeId {
        self.id
    }

    /// The store this view reads from.
    #[inline]
    pub fn store(self) -> &'s Store {
        self.store
    }

    /// Returns `true` for element nodes.
    #[inline]
    pub fn is_element(self) -> bool {
        self.store.is_element(self.id)
    }

    /// Returns `true` for text nodes.
    #[inline]
    pub fn is_text(self) -> bool {
        self.store.is_text(self.id)
    }

    /// The tag if this is an element node.
    #[inline]
    pub fn tag(self) -> Option<&'s str> {
        self.store.tag(self.id)
    }

    /// The interned tag symbol if this is an element node.
    #[inline]
    pub fn sym(self) -> Option<Sym> {
        self.store.sym(self.id)
    }

    /// The text value if this is a text node (pages in cold bytes).
    #[inline]
    pub fn text(self) -> Option<Cow<'s, str>> {
        self.store.text_cow(self.id)
    }

    /// The parent location, if any.
    #[inline]
    pub fn parent_id(self) -> Option<NodeId> {
        self.store.parent(self.id)
    }

    /// The parent view, if any.
    #[inline]
    pub fn parent(self) -> Option<NodeRef<'s>> {
        self.parent_id().map(|id| self.store.node_ref(id))
    }

    /// The first child view, if any.
    #[inline]
    pub fn first_child(self) -> Option<NodeRef<'s>> {
        self.store
            .first_child(self.id)
            .map(|id| self.store.node_ref(id))
    }

    /// The next sibling view, if any.
    #[inline]
    pub fn next_sibling(self) -> Option<NodeRef<'s>> {
        self.store
            .next_sibling(self.id)
            .map(|id| self.store.node_ref(id))
    }

    /// Iterates over the ordered child locations without allocating.
    #[inline]
    pub fn child_ids(self) -> ChildIds<'s> {
        self.store.children_iter(self.id)
    }

    /// Iterates over the ordered child views without allocating.
    #[inline]
    pub fn children(self) -> impl Iterator<Item = NodeRef<'s>> {
        let store = self.store;
        self.child_ids().map(move |id| store.node_ref(id))
    }
}

impl std::fmt::Debug for NodeRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.tag() {
            Some(tag) => write!(f, "{}:<{tag}>", self.id),
            None => write!(f, "{}:text", self.id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Store, NodeId, NodeId, NodeId, NodeId) {
        // <doc><a><c/></a><b>text</b></doc>
        let mut s = Store::new();
        let c = s.new_element("c", vec![]);
        let a = s.new_element("a", vec![c]);
        let t = s.new_text("text");
        let b = s.new_element("b", vec![t]);
        let doc = s.new_element("doc", vec![a, b]);
        (s, doc, a, b, c)
    }

    #[test]
    fn navigation_basics() {
        let (s, doc, a, b, c) = sample();
        assert_eq!(s.children(doc), &[a, b]);
        assert_eq!(s.parent(a), Some(doc));
        assert_eq!(s.parent(doc), None);
        assert_eq!(s.ancestors(c), vec![a, doc]);
        assert_eq!(s.descendants(doc).len(), 4);
        assert_eq!(s.descendants_or_self(doc)[0], doc);
        assert_eq!(s.subtree_size(doc), 5);
        assert_eq!(s.tag(a), Some("a"));
        assert!(s.text_value(a).is_none());
    }

    #[test]
    fn sibling_navigation() {
        let (s, _doc, a, b, _c) = sample();
        assert_eq!(s.following_siblings(a), vec![b]);
        assert_eq!(s.preceding_siblings(b), vec![a]);
        assert!(s.following_siblings(b).is_empty());
        assert!(s.preceding_siblings(a).is_empty());
    }

    #[test]
    fn node_ref_view_reads_the_columns() {
        let (s, doc, a, _b, _c) = sample();
        let root = s.node_ref(doc);
        assert_eq!(root.tag(), Some("doc"));
        assert!(root.is_element() && !root.is_text());
        assert_eq!(root.parent_id(), None);
        let kids: Vec<NodeId> = root.child_ids().collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(root.first_child().unwrap().id(), a);
        assert_eq!(
            root.first_child().unwrap().next_sibling().unwrap().tag(),
            Some("b")
        );
        let texts: Vec<String> = root
            .children()
            .flat_map(|c| c.children())
            .filter_map(|c| c.text().map(|t| t.into_owned()))
            .collect();
        assert_eq!(texts, vec!["text".to_string()]);
        assert_eq!(root.sym(), s.symbols().lookup("doc"));
    }

    #[test]
    fn symbols_are_interned_per_store() {
        let (mut s, _doc, a, b, _c) = sample();
        assert_eq!(s.sym(a), s.symbols().lookup("a"));
        let before = s.symbols().len();
        let a2 = s.new_element("a", vec![]);
        assert_eq!(s.symbols().len(), before, "re-interning allocates nothing");
        assert_eq!(s.sym(a2), s.sym(a));
        assert_ne!(s.sym(a), s.sym(b));
    }

    #[test]
    fn detach_removes_from_parent() {
        let (mut s, doc, a, b, _c) = sample();
        s.detach(a);
        assert_eq!(s.children(doc), &[b]);
        assert_eq!(s.parent(a), None);
        assert!(s.following_siblings(a).is_empty());
        // Store itself keeps the location (domains only grow).
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn insert_before_after_and_append() {
        let (mut s, doc, a, b, _c) = sample();
        let x = s.new_element("x", vec![]);
        let y = s.new_element("y", vec![]);
        let z = s.new_element("z", vec![]);
        assert!(s.insert_before(b, &[x]));
        assert!(s.insert_after(a, &[y]));
        s.append_children(doc, &[z]);
        assert_eq!(s.children(doc), &[a, y, x, b, z]);
        assert_eq!(s.parent(x), Some(doc));
    }

    #[test]
    fn replace_and_rename() {
        let (mut s, doc, a, b, _c) = sample();
        let x = s.new_element("x", vec![]);
        assert!(s.replace(a, &[x]));
        assert_eq!(s.children(doc), &[x, b]);
        s.rename(b, "renamed");
        assert_eq!(s.tag(b), Some("renamed"));
    }

    #[test]
    fn replace_root_fails() {
        let (mut s, doc, ..) = sample();
        let x = s.new_element("x", vec![]);
        assert!(!s.replace(doc, &[x]));
        assert!(!s.insert_before(doc, &[x]));
        assert!(!s.insert_after(doc, &[x]));
    }

    #[test]
    fn deep_copy_is_isomorphic_but_fresh() {
        let (mut s, doc, ..) = sample();
        let copy = s.deep_copy(doc);
        assert_ne!(copy, doc);
        assert!(crate::value_equiv(&s, doc, &s, copy));
    }

    #[test]
    fn deep_copy_shares_text_spans() {
        let (mut s, doc, ..) = sample();
        let text_bytes = s.column_bytes().text_bytes;
        let copy = s.deep_copy(doc);
        assert!(crate::value_equiv(&s, doc, &s, copy));
        // The copy added no text bytes: spans are shared.
        assert_eq!(s.column_bytes().text_bytes, text_bytes);
    }

    #[test]
    fn deep_copy_from_other_store() {
        let (s1, doc, ..) = sample();
        let mut s2 = Store::new();
        let copy = s2.deep_copy_from(&s1, doc);
        assert!(crate::value_equiv(&s1, doc, &s2, copy));
    }

    #[test]
    fn snapshot_matches_clone_under_mutation() {
        let (mut s, doc, a, b, c) = sample();
        s.freeze();
        let clone = s.clone();
        let mut snap = s.snapshot();
        assert_eq!(snap.len(), clone.len());
        // Same locations, same navigation.
        assert_eq!(snap.children(doc), clone.children(doc));
        assert_eq!(snap.ancestors(c), clone.ancestors(c));
        // Mutations on the snapshot allocate the same ids a clone would and
        // leave the frozen base (and sibling snapshots) untouched.
        let x = snap.new_element("x", vec![]);
        assert_eq!(x.index(), s.len());
        snap.detach(a);
        assert!(snap.insert_before(b, &[x]));
        snap.rename(b, "renamed");
        assert_eq!(snap.children(doc), vec![x, b]);
        assert_eq!(snap.tag(b), Some("renamed"));
        assert_eq!(s.children(doc), &[a, b], "base store is isolated");
        assert_eq!(s.tag(b), Some("b"));
        let other = s.snapshot();
        assert_eq!(other.children(doc), &[a, b], "snapshots are isolated");
        assert_eq!(other.len(), s.len());
    }

    #[test]
    fn freeze_flattens_overlay_and_tail() {
        let (mut s, doc, a, _b, _c) = sample();
        s.freeze();
        let mut snap = s.snapshot();
        let x = snap.new_element("x", vec![]);
        snap.replace(a, &[x]);
        let before: Vec<_> = snap.descendants_or_self(doc);
        // Re-freezing the mutated snapshot folds overlay + tail into a new
        // base; second-generation snapshots see the merged document.
        snap.freeze();
        let second = snap.snapshot();
        assert_eq!(second.descendants_or_self(doc), before);
        assert_eq!(second.len(), snap.len());
        assert_eq!(second.tag(x), Some("x"));
    }

    #[test]
    fn freeze_preserves_text_spans_across_generations() {
        let (mut s, _doc, _a, b, _c) = sample();
        s.freeze();
        let mut snap = s.snapshot();
        let t2 = snap.new_text("tail text");
        snap.append_children(b, &[t2]);
        assert_eq!(snap.text_value(t2), Some("tail text"));
        snap.freeze();
        let kids = snap.children(b);
        assert_eq!(snap.text_value(kids[0]), Some("text"));
        assert_eq!(snap.text_value(t2), Some("tail text"));
    }

    #[test]
    fn unfrozen_snapshot_falls_back_to_deep_clone() {
        let (mut s, doc, a, _b, _c) = sample();
        // Not frozen: snapshot must still be a faithful independent copy.
        let mut snap = s.snapshot();
        snap.detach(a);
        assert_eq!(s.children(doc).len(), 2);
        assert_eq!(snap.children(doc).len(), 1);
        s.freeze();
        // Frozen but then mutated: snapshot again falls back to a clone.
        let mut dirty = s.snapshot();
        dirty.rename(a, "z");
        let copy = dirty.snapshot();
        assert_eq!(copy.tag(a), Some("z"));
    }

    #[test]
    fn snapshots_intern_new_tags_in_isolation() {
        let (mut s, _doc, a, _b, _c) = sample();
        s.freeze();
        let mut snap1 = s.snapshot();
        let mut snap2 = s.snapshot();
        snap1.rename(a, "only-in-snap1");
        assert_eq!(snap1.tag(a), Some("only-in-snap1"));
        assert_eq!(snap2.tag(a), Some("a"));
        assert!(snap2.symbols().lookup("only-in-snap1").is_none());
        snap2.rename(a, "only-in-snap2");
        assert_eq!(snap2.tag(a), Some("only-in-snap2"));
        assert!(s.symbols().lookup("only-in-snap1").is_none());
    }

    #[test]
    fn doc_order_sorting() {
        let (mut s, doc, a, b, c) = sample();
        let mut v = vec![b, c, a, b];
        s.doc_order_dedup(&mut v);
        assert_eq!(v, vec![a, c, b]);
        // Nodes of other trees follow by root location, each tree in
        // preorder; a root selected itself precedes its descendants.
        let x = s.new_element("x", vec![]);
        let copy = s.deep_copy(doc);
        let copy_a = s.children(copy)[0];
        let mut v = vec![copy_a, x, c, copy, doc, x];
        s.doc_order_dedup(&mut v);
        assert_eq!(v, vec![doc, c, x, copy, copy_a]);
    }

    #[test]
    fn column_bytes_accounts_every_column() {
        let (mut s, ..) = sample();
        let bytes = s.column_bytes();
        let per_col = 5 * std::mem::size_of::<u32>();
        assert!(
            bytes.label + bytes.parent + bytes.first_child + bytes.next_sibling + bytes.text_offset
                >= s.len() * per_col
        );
        assert!(bytes.text_bytes >= "text".len());
        assert!(bytes.symbols > 0);
        assert_eq!(bytes.total(), s.heap_bytes());
        // Freezing shrinks capacity to length; accounting follows.
        s.freeze();
        let frozen = s.column_bytes();
        assert_eq!(frozen.label, s.len() * std::mem::size_of::<u32>());
        assert_eq!(frozen.overlay, 0);
    }

    #[test]
    fn node_ref_reads_the_columnar_view() {
        let (s, doc, a, b, _c) = sample();
        let node = s.node_ref(doc);
        assert_eq!(node.tag(), Some("doc"));
        assert!(node.parent().is_none());
        assert_eq!(s.children(doc), vec![a, b]);
        assert!(node.is_element());
    }

    #[cfg(feature = "cold-text")]
    #[test]
    fn cold_spill_pages_text_back_in() {
        let (mut s, doc, _a, b, _c) = sample();
        let spilled = s.spill_cold_text().expect("spill");
        assert_eq!(spilled, "text".len());
        assert_eq!(s.column_bytes().text_bytes, 0);
        assert_eq!(s.column_bytes().cold_text, spilled);
        let t = s.children(b)[0];
        // Hot borrow is gone; the cow pages it back in.
        assert_eq!(s.text_value(t), None);
        assert_eq!(s.text_cow(t).as_deref(), Some("text"));
        // Snapshots share the cold file; new text in the tail stays hot.
        let mut snap = s.snapshot();
        let fresh = snap.new_text("hot tail");
        snap.append_children(b, &[fresh]);
        assert_eq!(snap.text_cow(t).as_deref(), Some("text"));
        assert_eq!(snap.text_value(fresh), Some("hot tail"));
        // Re-freezing rehydrates the blob.
        snap.freeze();
        assert_eq!(snap.text_value(t), Some("text"));
        assert!(crate::value_equiv(&snap, doc, &snap, doc));
    }
}
