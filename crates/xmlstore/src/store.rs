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
//! spans and snapshots share the whole arena.
//!
//! Tag names are interned into the store's [`SymbolTable`]; `tag()` resolves
//! labels back to names, and the table is shared copy-on-write across
//! snapshots (`Arc` + make_mut).
//!
//! ## Label-reach summary
//!
//! A frozen store also carries a label-reach summary: one bit row per
//! label, where row `a` holds every label, text included, that occurs
//! strictly below some node labelled `a`. It is a strong DataGuide cut to
//! one label level, taken from the data. [`Store::may_have_below`] reads
//! it so that descendant walks skip the subtrees that cannot hold what
//! they look for.
//!
//! * **Build.** [`freeze`](Store::freeze) builds it, exactly, in one
//!   post-order pass when the store has none: on the first freeze, and on
//!   the first freeze of a store rebuilt by copying into a fresh one. Later
//!   freezes keep it. Snapshots share it behind an `Arc`.
//! * **Watermark.** The summary records the store's length when built.
//!   Only elements below that location are ever pruned; nodes allocated
//!   later (inserted content, constructed elements) are always entered.
//!   Element construction (`new_element*`, `deep_copy*`) therefore does no
//!   summary work at all.
//! * **Upkeep.** The two sites that link existing trees keep the rows a
//!   superset. [`insert_children_at`](Store::insert_children_at) (which
//!   the other inserts and `replace` go through) ORs the labels of the
//!   inserted subtrees into the row of every ancestor-or-self of the
//!   parent. [`rename`](Store::rename) ORs the old label's row into the
//!   new label's, and sets the new label in every ancestor's row. When an
//!   insert or rename brings a label interned after the build (it has no
//!   column), the summary is dropped and the next freeze rebuilds it.
//! * **Staleness.** Deletes leave rows as they were. A stale row only
//!   makes a walk visit more; it never makes one miss a node.
//! * **Cap.** No summary is built for more than [`MAX_REACH_LABELS`]
//!   labels (rows of `labels × labels` bits, at most 128 KiB); such a store
//!   prunes nothing.

use crate::node::NodeId;
use crate::symbols::{Sym, SymbolTable, TEXT_SYM};
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

/// Most labels a label-reach summary (see the [module docs](self)) is
/// built for: its rows are `labels × labels` bits, so the cap bounds it at
/// 128 KiB. A store whose symbol table holds more (at most
/// [`crate::MAX_SYMBOLS`]) has no summary, and its descendant walks prune
/// nothing.
pub const MAX_REACH_LABELS: usize = 1_024;

/// The label-reach summary of a store (see the [module docs](self)): row
/// `a` holds every label, text included, that occurs strictly below some
/// node labelled `a`. Exact when built; kept a superset since.
#[derive(Clone, Debug)]
struct LabelReach {
    /// Labels with a row and a column: the symbols interned at build time.
    labels: usize,
    /// `u64` words per row.
    words: usize,
    /// `labels` rows of `words` words each.
    rows: Vec<u64>,
    /// The store's length at build time. Only nodes below it are pruned:
    /// the summary tracks what is linked under them, not what is built.
    watermark: usize,
}

impl LabelReach {
    /// Builds the exact summary of the nodes `cols` holds, labelled from
    /// `labels` symbols, in one post-order pass, or `None` past
    /// [`MAX_REACH_LABELS`].
    fn build(cols: &Columns, labels: usize) -> Option<LabelReach> {
        if labels > MAX_REACH_LABELS {
            return None;
        }
        let words = labels.div_ceil(WORD_BITS);
        let mut reach = LabelReach {
            labels,
            words,
            rows: vec![0; labels * words],
            watermark: cols.len(),
        };
        // Every node sits in the child chain of the node that links it
        // (`first_child` / `next_sibling`); walk each chain that no node
        // links, so every tree is covered, detached and built ones too.
        let n = cols.len();
        let mut linked = vec![0u64; n.div_ceil(WORD_BITS)];
        for &to in cols.first_child.iter().chain(&cols.next_sibling) {
            if to != NIL {
                linked[to as usize / WORD_BITS] |= 1 << (to as usize % WORD_BITS);
            }
        }
        // `below` stacks one set per open node: the labels under it so far.
        let mut open: Vec<u32> = Vec::new();
        let mut below: Vec<u64> = Vec::new();
        for start in 0..n {
            if linked[start / WORD_BITS] & (1 << (start % WORD_BITS)) != 0 {
                continue;
            }
            let mut next = Some(start as u32);
            while let Some(mut node) = next {
                // Descend to the leftmost leaf, opening every node passed.
                loop {
                    open.push(node);
                    below.resize(below.len() + words, 0);
                    match cols.first_child[node as usize] {
                        NIL => break,
                        child => node = child,
                    }
                }
                // Close nodes until one has a next sibling to descend into.
                next = None;
                while let Some(node) = open.pop() {
                    let top = below.len() - words;
                    let label = cols.label[node as usize] as usize;
                    let row = label * words;
                    for w in 0..words {
                        reach.rows[row + w] |= below[top + w];
                    }
                    if !open.is_empty() {
                        // Fold this node's set and label into its parent's.
                        for w in 0..words {
                            below[top - words + w] |= below[top + w];
                        }
                        below[top - words + label / WORD_BITS] |= 1 << (label % WORD_BITS);
                    }
                    below.truncate(top);
                    let sibling = cols.next_sibling[node as usize];
                    if sibling != NIL {
                        next = Some(sibling);
                        break;
                    }
                }
            }
        }
        Some(reach)
    }

    /// Whether row `of` may hold `label`: `true` for a label without a row
    /// or column.
    #[inline]
    fn may_hold(&self, of: usize, label: usize) -> bool {
        of >= self.labels
            || label >= self.labels
            || self.rows[of * self.words + label / WORD_BITS] & (1 << (label % WORD_BITS)) != 0
    }

    /// ORs the set `labels` (`words` words) into row `of`.
    fn or_into(&mut self, of: usize, labels: &[u64]) {
        let row = of * self.words;
        for (w, &bits) in labels.iter().enumerate() {
            self.rows[row + w] |= bits;
        }
    }
}

/// The frozen snapshot base: immutable columns plus text arena.
#[derive(Debug)]
struct Base {
    cols: Columns,
    text: TextArena,
}

/// Exact per-column heap accounting for a [`Store`] (see
/// [`Store::column_bytes`]). All figures are resident bytes by capacity.
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
    /// Copy-on-write bookkeeping (overlay map + dirty bitmap).
    pub overlay: usize,
    /// The symbol interner.
    pub symbols: usize,
    /// The label-reach summary's rows (0 without one).
    pub reach: usize,
}

impl StoreBytes {
    /// Total resident heap bytes.
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
            + self.reach
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
    /// The label-reach summary, built by the first [`freeze`](Self::freeze)
    /// and shared copy-on-write across snapshots.
    reach: Option<Arc<LabelReach>>,
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
    /// copy-on-write bookkeeping, the symbol interner and the label-reach
    /// summary, by capacity.
    /// Shared base columns are counted as if owned (matching the previous
    /// estimator's convention so reports stay comparable).
    pub fn column_bytes(&self) -> StoreBytes {
        let u32s = std::mem::size_of::<u32>();
        let col = |base: Option<&Vec<u32>>, tail: &Vec<u32>| {
            (base.map_or(0, |v| v.capacity()) + tail.capacity()) * u32s
        };
        let b = self.base.as_deref();
        let span_size = std::mem::size_of::<(u32, u32)>();
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
            overlay: self.overlay.capacity()
                * (std::mem::size_of::<(u32, Cells)>() + std::mem::size_of::<u64>())
                + self.dirty.capacity() * std::mem::size_of::<u64>(),
            symbols: self.symbols.heap_bytes(),
            reach: self
                .reach
                .as_ref()
                .map_or(0, |r| r.rows.capacity() * std::mem::size_of::<u64>()),
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

    /// Interns `name` like [`intern`](Self::intern), or returns `None` when
    /// the symbol table is full (see [`SymbolTable::try_intern`]).
    pub fn try_intern(&mut self, name: &str) -> Option<Sym> {
        if let Some(s) = self.symbols.lookup(name) {
            return Some(s);
        }
        Arc::make_mut(&mut self.symbols).try_intern(name)
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
        self.new_element_sym(sym, &children)
    }

    /// Allocates a new element node from an already-interned symbol (the
    /// parser hot path — no name allocation or hashing).
    pub fn new_element_sym(&mut self, sym: Sym, children: &[NodeId]) -> NodeId {
        let id = NodeId(self.len() as u32);
        for &c in children {
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
    fn span_text(&self, span: u32) -> &str {
        let base_spans = self.base_spans();
        if span < base_spans {
            let b = self.base.as_deref().expect("base present");
            b.text.get(span)
        } else {
            self.tail_text.get(span - base_spans)
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

    /// The text value of `id` if it is a text node.
    pub fn text_value(&self, id: NodeId) -> Option<&str> {
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
    ///
    /// Children are allocated before their parent, in document order, and
    /// the walk holds no recursion, so any depth copies.
    pub fn deep_copy_from(&mut self, src_store: &Store, src: NodeId) -> NodeId {
        let mut walk = Walk::new(src);
        // The copies of every open element's children so far, stacked;
        // `starts` marks where each open element's children begin.
        let mut copied: Vec<NodeId> = Vec::new();
        let mut starts: Vec<usize> = Vec::new();
        while let Some(step) = walk.next(src_store) {
            match step {
                Step::Open(_) => starts.push(copied.len()),
                Step::Text(n) => {
                    copied.push(self.new_text(src_store.text_value(n).expect("text")));
                }
                Step::Close(n) => {
                    let start = starts.pop().expect("opened");
                    let sym = self.intern(src_store.tag(n).expect("element"));
                    let id = self.new_element_sym(sym, &copied[start..]);
                    copied.truncate(start);
                    copied.push(id);
                }
            }
        }
        copied[0]
    }

    /// Deep-copies a subtree within this store. Text nodes share their
    /// source span (no byte copy); elements share their interned label.
    /// Allocation order and depth are as for
    /// [`deep_copy_from`](Self::deep_copy_from).
    pub fn deep_copy(&mut self, src: NodeId) -> NodeId {
        let mut walk = Walk::new(src);
        let mut copied: Vec<NodeId> = Vec::new();
        let mut starts: Vec<usize> = Vec::new();
        while let Some(step) = walk.next(self) {
            match step {
                Step::Open(_) => starts.push(copied.len()),
                Step::Text(n) => {
                    let span = self.cells(n.index()).text;
                    copied.push(self.new_text_span(span));
                }
                Step::Close(n) => {
                    let start = starts.pop().expect("opened");
                    let label = Sym(self.cells(n.index()).label as u16);
                    let id = self.new_element_sym(label, &copied[start..]);
                    copied.truncate(start);
                    copied.push(id);
                }
            }
        }
        copied[0]
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
        self.reach_link(parent, new_children);
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
            self.reach_rename(target, sym);
            self.update_cells(target.index(), |c| c.label = sym.0 as u32);
        }
    }

    // ----- label-reach summary upkeep -----

    /// The labels of `id`'s element ancestors, `id` included.
    fn ancestor_labels(&self, id: NodeId) -> Vec<usize> {
        let mut labels = Vec::new();
        let mut cur = Some(id);
        while let Some(n) = cur {
            let c = self.cells(n.index());
            if c.text == NIL {
                labels.push(c.label as usize);
            }
            cur = opt(c.parent);
        }
        labels
    }

    /// Keeps the summary a superset when the trees `kids` are linked under
    /// `parent`: their labels join the rows of `parent` and its ancestors.
    /// Drops the summary when one of those labels has no column.
    fn reach_link(&mut self, parent: NodeId, kids: &[NodeId]) {
        let Some(reach) = self.reach.as_deref() else {
            return;
        };
        let mut labels = vec![0u64; reach.words];
        let mut fits = true;
        for n in kids.iter().flat_map(|&k| self.subtree_iter(k)) {
            let label = self.cells(n.index()).label as usize;
            fits &= label < reach.labels;
            if fits {
                labels[label / WORD_BITS] |= 1 << (label % WORD_BITS);
            }
        }
        if !fits {
            self.reach = None;
            return;
        }
        let rows = self.ancestor_labels(parent);
        let reach = Arc::make_mut(self.reach.as_mut().expect("summary present"));
        for row in rows {
            reach.or_into(row, &labels);
        }
    }

    /// Keeps the summary a superset when `target` is renamed to `sym`:
    /// what lay below the old label now lies below the new one, and the
    /// new label lies below every ancestor. Drops the summary when `sym`
    /// has no column.
    fn reach_rename(&mut self, target: NodeId, sym: Sym) {
        let Some(reach) = self.reach.as_deref() else {
            return;
        };
        let (old, new) = (self.cells(target.index()).label as usize, sym.index());
        if new >= reach.labels {
            self.reach = None;
            return;
        }
        if old == new {
            return;
        }
        let rows = self.ancestor_labels(target);
        let reach = Arc::make_mut(self.reach.as_mut().expect("summary present"));
        let below_old = reach.rows[old * reach.words..(old + 1) * reach.words].to_vec();
        reach.or_into(new, &below_old);
        let mut bit = vec![0u64; reach.words];
        bit[new / WORD_BITS] |= 1 << (new % WORD_BITS);
        // `rows[0]` is `target`'s own (old) label: only its ancestors gain.
        for &row in &rows[1..] {
            reach.or_into(row, &bit);
        }
    }

    /// Whether a node labelled `label` may lie strictly below `id`.
    ///
    /// `false` is a proof that none does: `id` is an element below the
    /// summary's watermark whose label's row lacks `label`. Without a
    /// summary, for text nodes, and for nodes allocated after the summary
    /// was built, the answer is `true`.
    #[inline]
    pub fn may_have_below(&self, id: NodeId, label: Sym) -> bool {
        let Some(reach) = self.reach.as_deref() else {
            return true;
        };
        let idx = id.index();
        if idx >= reach.watermark {
            return true;
        }
        let c = self.cells(idx);
        c.text != NIL || reach.may_hold(c.label as usize, label.index())
    }

    /// Whether a [`freeze`](Self::freeze) would build a label-reach summary:
    /// the store has none (never frozen, or an insert or rename dropped it)
    /// and its labels are within [`MAX_REACH_LABELS`].
    pub fn lacks_summary(&self) -> bool {
        self.reach.is_none() && self.symbols.len() <= MAX_REACH_LABELS
    }

    // ----- freeze / snapshot -----

    /// Flattens this store into an immutable shared base, after which
    /// [`snapshot`](Self::snapshot) is O(1), and builds the label-reach
    /// summary if the store has none. Flattening is a no-op when the store
    /// is already a clean frozen base; when snapshots still share the base
    /// of a store that changed since, it copies the base.
    pub fn freeze(&mut self) {
        self.flatten();
        if self.reach.is_none() {
            // Flattened: the base holds every node.
            let cols = self.base.as_ref().map(|b| &b.cols);
            self.reach = cols
                .and_then(|cols| LabelReach::build(cols, self.symbols.len()))
                .map(Arc::new);
        }
    }

    fn flatten(&mut self) {
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
                    Ok(b) => (b.cols, b.text),
                    Err(b) => (b.cols.clone(), b.text.clone()),
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
        self.base = Some(Arc::new(Base { cols, text }));
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
                reach: self.reach.clone(),
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

/// One step of a [`Walk`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Step {
    /// An element is entered; its children's steps follow.
    Open(NodeId),
    /// A text node.
    Text(NodeId),
    /// The element entered by the matching `Open` is left.
    Close(NodeId),
}

/// A depth-first walk over a subtree as `Open` / `Text` / `Close` steps, in
/// document order and without recursion: like [`Subtree`] it climbs by
/// parent pointers, so it holds no stack however deep the tree. It borrows
/// the store only per step, so a copy may allocate into the store it walks.
pub(crate) struct Walk {
    root: NodeId,
    /// The next node to enter (`false`) or element to leave (`true`).
    next: Option<(NodeId, bool)>,
}

impl Walk {
    pub(crate) fn new(root: NodeId) -> Walk {
        Walk {
            root,
            next: Some((root, false)),
        }
    }

    pub(crate) fn next(&mut self, store: &Store) -> Option<Step> {
        let (n, leave) = self.next?;
        // One cell read per step: it says what `n` is and what follows it.
        let c = store.cells(n.index());
        let step = if leave {
            Step::Close(n)
        } else if c.text != NIL {
            Step::Text(n)
        } else {
            self.next = Some(match c.first_child {
                NIL => (n, true),
                child => (NodeId(child), false),
            });
            return Some(Step::Open(n));
        };
        self.next = self.after(n, c);
        Some(step)
    }

    /// Leaves `n`, just opened, without visiting its children or closing it.
    pub(crate) fn skip(&mut self, store: &Store, n: NodeId) {
        self.next = self.after(n, store.cells(n.index()));
    }

    /// What follows the finished node `n` (cells `c`): its next sibling,
    /// else leaving its parent; nothing past the root.
    fn after(&self, n: NodeId, c: Cells) -> Option<(NodeId, bool)> {
        if n == self.root {
            return None;
        }
        Some(match c.next_sibling {
            NIL => {
                assert_ne!(c.parent, NIL, "walk stays inside the subtree");
                (NodeId(c.parent), true)
            }
            sibling => (NodeId(sibling), false),
        })
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

    /// The text value if this is a text node.
    #[inline]
    pub fn text(self) -> Option<&'s str> {
        self.store.text_value(self.id)
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
            .filter_map(|c| c.text().map(str::to_owned))
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

    /// Builds `<doc><a><b><x/></b></a><c>text</c></doc>`, frozen.
    fn summarized() -> (Store, [NodeId; 5]) {
        let mut s = Store::new();
        let x = s.new_element("x", vec![]);
        let b = s.new_element("b", vec![x]);
        let a = s.new_element("a", vec![b]);
        let t = s.new_text("text");
        let c = s.new_element("c", vec![t]);
        let doc = s.new_element("doc", vec![a, c]);
        s.freeze();
        (s, [doc, a, b, x, c])
    }

    /// Whether some node labelled `label` lies strictly below `n`.
    fn occurs_below(s: &Store, n: NodeId, label: Sym) -> bool {
        s.subtree_iter(n)
            .skip(1)
            .any(|d| Sym(s.cells(d.index()).label as u16) == label)
    }

    /// The summary's soundness: no node reachable from `root` is denied a
    /// label that occurs below it.
    fn assert_sound(s: &Store, root: NodeId) {
        for n in s.subtree_iter(root) {
            for label in s.symbols().all() {
                if occurs_below(s, n, label) {
                    assert!(
                        s.may_have_below(n, label),
                        "{n:?} below-set lacks {label:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn summary_is_exact_when_built() {
        let (s, [doc, ..]) = summarized();
        assert!(s.column_bytes().reach > 0);
        let sym = |name| s.symbols().lookup(name).unwrap();
        for n in s.subtree_iter(doc) {
            for label in s.symbols().all() {
                // Every node has a distinct label here, so row = node.
                let expected = s.is_text(n) || occurs_below(&s, n, label);
                assert_eq!(s.may_have_below(n, label), expected, "{n:?} {label:?}");
            }
        }
        assert!(s.may_have_below(doc, TEXT_SYM));
        assert!(!s.may_have_below(doc, sym("doc")));
        // Snapshots share the summary.
        assert_eq!(s.snapshot().column_bytes().reach, s.column_bytes().reach);
    }

    #[test]
    fn summary_stays_sound_through_inserts_and_renames() {
        let (mut s, [doc, a, b, x, c]) = summarized();
        let sym = |s: &Store, name| s.symbols().lookup(name).unwrap();
        // Insert a `c` (with text) under `x`: `x`, `b`, `a` and `doc` gain
        // `c` and text.
        let t = s.new_text("t");
        let new_c = s.new_element("c", vec![t]);
        s.append_children(x, &[new_c]);
        assert!(s.may_have_below(a, sym(&s, "c")));
        assert!(s.may_have_below(b, TEXT_SYM));
        assert_sound(&s, doc);
        // Rename `b` (which has `x` below) to `c`: row `c` gains `x`, and
        // `a` gains `c` (it already had it through the insert; rename `x`
        // instead to check the ancestor bit on its own).
        s.rename(b, "c");
        assert!(s.may_have_below(c, sym(&s, "x")), "row(c) |= row(b)");
        assert_sound(&s, doc);
        s.rename(x, "doc");
        assert!(
            s.may_have_below(a, sym(&s, "doc")),
            "ancestors gain the new label"
        );
        assert_sound(&s, doc);
        // Deletes leave rows stale, never short.
        s.detach(a);
        assert!(s.may_have_below(doc, sym(&s, "x")));
        assert_sound(&s, doc);
        assert!(
            s.column_bytes().reach > 0,
            "no new label: the summary is kept"
        );
        // Replacing through `insert_children_at` is covered too.
        let y = s.new_element("x", vec![]);
        assert!(s.replace(c, &[y]));
        assert_sound(&s, doc);
    }

    #[test]
    fn a_label_without_a_column_drops_the_summary_until_the_next_freeze() {
        let (mut s, [doc, a, ..]) = summarized();
        let fresh = s.new_element("fresh", vec![]);
        assert!(
            s.column_bytes().reach > 0,
            "construction does no summary work"
        );
        s.append_children(a, &[fresh]);
        assert_eq!(s.column_bytes().reach, 0);
        assert!(s.may_have_below(doc, s.symbols().lookup("fresh").unwrap()));
        s.freeze();
        assert!(
            s.column_bytes().reach > 0,
            "rebuilt with a column for `fresh`"
        );
        assert_sound(&s, doc);
        s.rename(a, "newer");
        assert_eq!(s.column_bytes().reach, 0);
        s.freeze();
        assert_sound(&s, doc);
    }

    #[test]
    fn nodes_above_the_watermark_are_always_entered() {
        let (mut s, [_, a, ..]) = summarized();
        let x = s.symbols().lookup("x").unwrap();
        let copy = s.deep_copy(a);
        let built = s.new_element("c", vec![]);
        assert!(s.may_have_below(copy, x));
        assert!(s.may_have_below(built, x), "built after the summary");
        s.freeze();
        assert!(
            s.may_have_below(built, x),
            "the watermark survives a freeze"
        );
    }

    #[test]
    fn past_the_label_cap_no_summary_is_built_and_every_answer_is_yes() {
        let mut s = Store::new();
        let kids: Vec<NodeId> = (0..MAX_REACH_LABELS)
            .map(|i| s.new_element(format!("t{i}"), vec![]))
            .collect();
        let doc = s.new_element("doc", kids);
        assert!(s.symbols().len() > MAX_REACH_LABELS);
        s.freeze();
        assert_eq!(s.column_bytes().reach, 0);
        let t0 = s.symbols().lookup("t0").unwrap();
        let first = s.first_child(doc).unwrap();
        assert!(s.may_have_below(first, t0));
        assert!(s.may_have_below(doc, TEXT_SYM));
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
}
