//! The CDAG engine: chain sets represented as chain-DAGs (paper §6.1).
//!
//! A CDAG is rooted at the schema start type and has **at most one node per
//! (type, depth) pair**, so its width is bounded by the schema size and the
//! depth by `k·|d|`. A set of rooted chains is represented by a sub-DAG (its
//! own edge set) plus a set of *end* nodes: the denoted chains are all paths
//! from the root to an end node, where an end node may additionally be
//! flagged *extensible* (the set then also contains every descendant
//! extension of those paths).
//!
//! Compared with the explicit engine this trades a small amount of precision
//! for polynomial behaviour:
//!
//! * merging the sub-DAGs of different sub-expressions can introduce paths
//!   that neither sub-expression inferred (the paper avoids this with
//!   per-expression edge labels; we accept the over-approximation, which is
//!   sound because every such path is still a schema chain),
//! * the per-tag multiplicity bound of k-chains is relaxed to a depth bound
//!   (`k·|d|`), which again only adds chains,
//! * `for` iteration binds the loop variable to the whole return set at once
//!   instead of chain-by-chain, which only enlarges the inferred sets.
//!
//! Every approximation enlarges the inferred chain sets, so independence
//! verdicts remain sound; the cross-check tests in `tests/` (in particular
//! `tests/engine_differential.rs`) verify that the two engines agree on the
//! workloads where the explicit engine is feasible.
//!
//! ## Performance
//!
//! The engine is the default first pass of `EngineKind::Auto`, so its
//! inference and conflict primitives are hot paths (see the `cdag_micro`
//! bench and the `cdag` perf harness). Four things keep them cheap:
//!
//! * all node/edge sets hash with [`crate::fxhash`] instead of SipHash
//!   (node indices are dense small integers, never attacker-controlled),
//! * graph passes (provenance trimming, descendant closure, prefix
//!   conflicts) run over a per-engine scratch workspace of dense
//!   [`crate::bitset`] word-bitsets and reusable adjacency lists instead of
//!   allocating fresh hash maps per call — node marks cost one shift and
//!   mask, and set intersections are decided 64 nodes per word operation,
//! * the descendant closure is shared across all context ends and
//!   level-synchronous: each grid level is one frontier bitmask, and
//!   stepping the closure ORs precomputed per-symbol child masks into the
//!   next level (the grid encodes `(type, depth)` level-major, so a level
//!   is a contiguous bit range),
//! * the ancestor step is one sweep over the context DAG shared across all
//!   context ends, not one walk per end: a reverse walk marks every proper
//!   ancestor of some end once, and a pass over those marks in ascending
//!   index order (which is by depth) decides which ends produced a result.
//!   It costs the context's edges, not ends × edges.
//!
//! One inference runs on one thread. Parallelism lives a level up: the
//! analysis session shards whole inferences and conflict tests over its
//! worker pool, and its pooled engines are reused across them (the
//! conflict tests read no multiplicity bound, so one pool serves every
//! `k`).
//!
//! ## Saturation
//!
//! The engine records whether an inference ever hit the `k·|d|` depth cap
//! (*saturation*, read with [`CdagEngine::take_saturated`]). When it did
//! not, the exact same DAG — node indices encode `(type, depth)` with a
//! k-independent width — is what a fresh engine at any larger `k` would
//! compute, so the analysis session serves every larger bound of that
//! expression from the one cached result.

use super::label_syms;
use crate::bitset::{self, BitGrid, BitSet};
use crate::conflict::{ConflictKind, ConflictWitness};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::types::{ChainItem, QueryChains, UpdateChains};
use qui_schema::{Chain, SchemaLike, Sym, TEXT_SYM};
use qui_xquery::{Axis, NodeTest, Query, Update, UpdatePos};
use std::cell::{Cell, RefCell};

/// A node of the CDAG: a (type, depth) pair, encoded as `depth * width + sym`.
pub type NodeIdx = u32;

/// A set of rooted chains represented as a sub-DAG of the CDAG.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChainDag {
    /// Present edges, as (from-node, to-node) pairs. The to-node is always at
    /// the from-node's depth plus one.
    pub edges: FxHashSet<(NodeIdx, NodeIdx)>,
    /// End nodes with their extensibility flag (`true` = the set also
    /// contains every descendant extension of chains ending here).
    pub ends: FxHashMap<NodeIdx, bool>,
}

impl ChainDag {
    /// The empty set.
    pub fn empty() -> Self {
        ChainDag::default()
    }

    /// Returns `true` if the set denotes no chain.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Union of two sets (edges and ends are merged; an end extensible in
    /// either operand stays extensible).
    pub fn union(mut self, other: &ChainDag) -> ChainDag {
        self.edges.extend(other.edges.iter().copied());
        for (&n, &ext) in &other.ends {
            let e = self.ends.entry(n).or_insert(false);
            *e = *e || ext;
        }
        self
    }

    /// Number of edges (a size measure used by the complexity benches).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Marks every end node extensible.
    pub fn extend_all_ends(mut self) -> ChainDag {
        for v in self.ends.values_mut() {
            *v = true;
        }
        self
    }

    /// Restricts the ends to the extensible ones (edges are kept).
    pub fn extensible_ends_only(&self) -> ChainDag {
        ChainDag {
            edges: self.edges.clone(),
            ends: self
                .ends
                .iter()
                .filter(|&(_, &ext)| ext)
                .map(|(&n, &e)| (n, e))
                .collect(),
        }
    }
}

/// Reusable graph-pass workspace (see the module docs): dense word-bitset
/// node marks, level-major frontier grids and adjacency lists indexed by
/// dense [`NodeIdx`]. Everything auto-grows on first touch, and clearing is
/// bounded by what the previous pass dirtied (bitset high-water marks, grid
/// dirty-row ranges, the `touched` list), so a pass over a small DAG never
/// pays for the full `width · depth` grid.
#[derive(Default)]
struct Scratch {
    /// Primary node-mark set.
    mark: BitSet,
    /// Secondary node-mark set for passes that need two node sets at once.
    mark2: BitSet,
    /// Adjacency lists; non-empty slots are tracked in `touched`.
    adj: Vec<Vec<NodeIdx>>,
    /// Slots of `adj` that must be cleared before the next pass.
    touched: Vec<NodeIdx>,
    /// Reusable DFS/BFS stack.
    stack: Vec<NodeIdx>,
    /// Descendant closure: per-level masks of every node the closure
    /// visited (seeds plus reached children).
    visited: BitGrid,
    /// Descendant closure: per-level masks of nodes reached *as children*
    /// (the candidates for node-test matching).
    reached: BitGrid,
    /// Descendant closure phase 2: per-level masks of nodes from which a
    /// matched node is reachable.
    reach: BitGrid,
    /// Per-call node-test mask over one level's symbol slots.
    match_mask: Vec<u64>,
    /// One-level OR accumulator for the frontier step.
    level_buf: Vec<u64>,
    /// Reusable slot list (decoded set bits of one level).
    slots: Vec<u32>,
}

impl Scratch {
    #[inline]
    fn adj_push(&mut self, from: NodeIdx, to: NodeIdx) {
        let i = from as usize;
        if i >= self.adj.len() {
            self.adj.resize_with(i + 1, Vec::new);
        }
        if self.adj[i].is_empty() {
            self.touched.push(from);
        }
        self.adj[i].push(to);
    }

    /// Drains `stack`, marking in `mark` every node reachable from it along
    /// `adj` in one or more steps (a stacked node is marked only if the
    /// caller marked it or the walk reaches it).
    fn mark_reachable(&mut self) {
        while let Some(n) = self.stack.pop() {
            let i = n as usize;
            for j in 0..self.adj.get(i).map(Vec::len).unwrap_or(0) {
                let p = self.adj[i][j];
                if self.mark.insert(p) {
                    self.stack.push(p);
                }
            }
        }
    }

    fn adj_clear(&mut self) {
        for &n in &self.touched {
            self.adj[n as usize].clear();
        }
        self.touched.clear();
    }
}

/// Reverse adjacency of an edge set: the parents of each node within it.
#[derive(Default)]
struct Preds(FxHashMap<NodeIdx, Vec<NodeIdx>>);

impl Preds {
    fn of(edges: &FxHashSet<(NodeIdx, NodeIdx)>) -> Self {
        let mut preds: FxHashMap<NodeIdx, Vec<NodeIdx>> = FxHashMap::default();
        for &(f, t) in edges {
            preds.entry(t).or_default().push(f);
        }
        Preds(preds)
    }

    /// The parents of `n` (empty for a node no edge enters).
    fn get(&self, n: NodeIdx) -> &[NodeIdx] {
        self.0.get(&n).map_or(&[], Vec::as_slice)
    }
}

/// The CDAG engine: holds the schema, the dimensions of the node grid, and
/// implements inference and conflict checking over [`ChainDag`] values.
pub struct CdagEngine<'a, S: SchemaLike> {
    schema: &'a S,
    /// Number of distinct symbols per level (schema types + text + one
    /// sentinel slot for unknown labels).
    width: u32,
    /// Number of levels (maximum chain length).
    max_depth: u32,
    /// The multiplicity bound the grid was sized for.
    k: usize,
    /// Element-chain inference toggle (see the explicit engine).
    element_chains: bool,
    /// Words per level of the frontier grids (`⌈width / 64⌉`).
    stride: usize,
    /// Per-symbol child masks, flattened at `stride` words per symbol: the
    /// one-level bitmask of the child slots of each schema type. Stepping
    /// the descendant closure is OR-ing these masks.
    child_masks: Vec<u64>,
    /// Set when an inference hits the depth cap (so its result may be
    /// missing chains a deeper grid would add); cleared by
    /// [`Self::take_saturated`].
    saturated: Cell<bool>,
    /// Reusable graph-pass workspace.
    scratch: RefCell<Scratch>,
}

/// Variable environment for the CDAG engine.
pub type DagGamma = FxHashMap<String, ChainDag>;

/// Query chains in CDAG form: returns and used chains as DAGs, element
/// chains as symbolic items (they are not rooted at the schema root).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DagQueryChains {
    /// Return chains.
    pub returns: ChainDag,
    /// Used chains (ends may be extensible).
    pub used: ChainDag,
    /// Element chains.
    pub elements: Vec<ChainItem>,
}

impl DagQueryChains {
    fn union(mut self, other: DagQueryChains) -> DagQueryChains {
        self.returns = self.returns.union(&other.returns);
        self.used = self.used.union(&other.used);
        for e in other.elements {
            if !self.elements.contains(&e) {
                self.elements.push(e);
            }
        }
        self
    }
}

impl<'a, S: SchemaLike> CdagEngine<'a, S> {
    /// Creates an engine for multiplicity bound `k` (which fixes the depth of
    /// the node grid at `k·|d| + 2`).
    pub fn new(schema: &'a S, k: usize) -> Self {
        let n = schema.num_types();
        let width = (n + 1) as u32;
        let depth = (k.max(1) * schema.schema_size().max(1) + 2) as u32;
        let stride = (width as usize).div_ceil(bitset::WORD_BITS);
        let mut child_masks = vec![0u64; n * stride];
        for i in 0..n {
            for &c in schema.child_types(Sym(i as u16)) {
                let slot = (c.index() as u32).min(width - 1);
                child_masks[i * stride + slot as usize / bitset::WORD_BITS] |=
                    1u64 << (slot as usize % bitset::WORD_BITS);
            }
        }
        CdagEngine {
            schema,
            width,
            max_depth: depth,
            k,
            element_chains: true,
            stride,
            child_masks,
            saturated: Cell::new(false),
            scratch: RefCell::new(Scratch::default()),
        }
    }

    /// Enables or disables element-chain inference (ablation switch).
    pub fn with_element_chains(mut self, on: bool) -> Self {
        self.element_chains = on;
        self
    }

    /// The one-level child bitmask of a symbol slot ([`Self::stride`] words).
    #[inline]
    fn child_mask(&self, slot: u32) -> &[u64] {
        let i = slot as usize * self.stride;
        &self.child_masks[i..i + self.stride]
    }

    /// The schema this engine analyses.
    pub fn schema(&self) -> &'a S {
        self.schema
    }

    /// The multiplicity bound the engine was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The number of levels of the node grid (`k·|d| + 2`); no chain the
    /// engine infers is longer than this.
    pub fn grid_depth(&self) -> u32 {
        self.max_depth
    }

    /// Returns whether any inference since the last call hit the `k·|d|`
    /// depth cap, and clears the flag. When this returns `false`, every DAG
    /// the engine produced since is exactly what a fresh engine at any
    /// larger `k` would produce — the property the session's CDAG cache
    /// builds on.
    pub fn take_saturated(&self) -> bool {
        self.saturated.replace(false)
    }

    // ------------------------------------------------------ node encoding

    fn sym_slot(&self, s: Sym) -> u32 {
        let slot = s.index() as u32;
        if slot >= self.width - 1 {
            self.width - 1 // unknown-label sentinel slot
        } else {
            slot
        }
    }

    fn node(&self, s: Sym, depth: u32) -> NodeIdx {
        depth * self.width + self.sym_slot(s)
    }

    /// The depth (chain length minus one) encoded in a node index.
    pub fn depth_of(&self, n: NodeIdx) -> u32 {
        n / self.width
    }

    /// The schema type encoded in a node index (`None` for the unknown-label
    /// sentinel slot).
    pub fn sym_of(&self, n: NodeIdx) -> Option<Sym> {
        let slot = n % self.width;
        if slot == self.width - 1 {
            None // unknown-label sentinel
        } else {
            Some(Sym(slot as u16))
        }
    }

    /// The singleton set containing just the root chain.
    pub fn root_dag(&self) -> ChainDag {
        let mut ends = FxHashMap::default();
        ends.insert(self.node(self.schema.start_type(), 0), false);
        ChainDag {
            edges: FxHashSet::default(),
            ends,
        }
    }

    /// Builds the DAG denoting exactly one explicit chain (used to seed
    /// environments and in tests).
    pub fn dag_of_chain(&self, chain: &Chain) -> ChainDag {
        let mut dag = ChainDag::empty();
        let syms = chain.symbols();
        if syms.is_empty() {
            return dag;
        }
        for (i, w) in syms.windows(2).enumerate() {
            dag.edges
                .insert((self.node(w[0], i as u32), self.node(w[1], i as u32 + 1)));
        }
        dag.ends.insert(
            self.node(syms[syms.len() - 1], (syms.len() - 1) as u32),
            false,
        );
        dag
    }

    /// Enumerates the chains denoted by a DAG (without extensions), up to
    /// `cap` chains — used by tests, the differential harness and debugging
    /// output only.
    pub fn enumerate(&self, dag: &ChainDag, cap: usize) -> Option<Vec<Chain>> {
        let root = self.node(self.schema.start_type(), 0);
        let mut out = Vec::new();
        let mut stack = vec![(root, Chain::single(self.schema.start_type()))];
        // Adjacency for forward traversal.
        let mut adj: FxHashMap<NodeIdx, Vec<NodeIdx>> = FxHashMap::default();
        for &(f, t) in &dag.edges {
            adj.entry(f).or_default().push(t);
        }
        while let Some((n, chain)) = stack.pop() {
            if dag.ends.contains_key(&n) {
                out.push(chain.clone());
                if out.len() > cap {
                    return None;
                }
            }
            if let Some(next) = adj.get(&n) {
                for &m in next {
                    if let Some(s) = self.sym_of(m) {
                        stack.push((m, chain.push(s)));
                    }
                }
            }
        }
        Some(out)
    }

    // ------------------------------------------------------ step inference

    fn sym_passes(&self, s: Sym, test: &NodeTest) -> bool {
        match test {
            NodeTest::AnyNode => true,
            NodeTest::Text => s == TEXT_SYM,
            NodeTest::AnyElement => s != TEXT_SYM,
            NodeTest::Tag(t) => s != TEXT_SYM && self.schema.type_label(s) == t,
        }
    }

    /// Fills `mask` with the one-level node-test mask: bit `slot` is set iff
    /// the schema type in that slot passes `test` (the unknown-label
    /// sentinel slot never does).
    fn fill_match_mask(&self, mask: &mut Vec<u64>, test: &NodeTest) {
        mask.clear();
        mask.resize(self.stride, 0);
        for i in 0..self.width as usize - 1 {
            if self.sym_passes(Sym(i as u16), test) {
                mask[i / bitset::WORD_BITS] |= 1u64 << (i % bitset::WORD_BITS);
            }
        }
    }

    /// The root node of the grid.
    pub fn root_node(&self) -> NodeIdx {
        self.node(self.schema.start_type(), 0)
    }

    /// Marks the engine saturated when skipping extensions below `sym` at the
    /// depth cap actually dropped anything.
    fn note_depth_cap(&self, sym: Sym) {
        if !self.schema.child_types(sym).is_empty() {
            self.saturated.set(true);
        }
    }

    /// Prunes a DAG to the edges lying on some path from the root to one of
    /// the given end nodes (provenance trimming). This is the unlabeled
    /// counterpart of the paper's edge labels: chains whose endpoint was
    /// filtered away by a node test or a later step must not leave their
    /// edges behind, otherwise they would resurface as spurious paths when
    /// DAG nodes merge.
    fn trim_to(
        &self,
        edges: &FxHashSet<(NodeIdx, NodeIdx)>,
        ends: &FxHashSet<NodeIdx>,
    ) -> FxHashSet<(NodeIdx, NodeIdx)> {
        if ends.is_empty() || edges.is_empty() {
            return FxHashSet::default();
        }
        let mut s = self.scratch.borrow_mut();
        let s = &mut *s;
        // Backward reachability from the ends ("above", in `mark`).
        s.mark.clear();
        for &(f, t) in edges {
            s.adj_push(t, f);
        }
        s.stack.clear();
        for &e in ends {
            if s.mark.insert(e) {
                s.stack.push(e);
            }
        }
        s.mark_reachable();
        s.adj_clear();
        // Forward reachability from the root, restricted to `above`
        // (in `mark2`).
        s.mark2.clear();
        for &(f, t) in edges {
            if s.mark.contains(f) && s.mark.contains(t) {
                s.adj_push(f, t);
            }
        }
        let root = self.root_node();
        s.mark2.insert(root);
        s.stack.clear();
        s.stack.push(root);
        while let Some(n) = s.stack.pop() {
            let i = n as usize;
            for j in 0..s.adj.get(i).map(Vec::len).unwrap_or(0) {
                let m = s.adj[i][j];
                if s.mark2.insert(m) {
                    s.stack.push(m);
                }
            }
        }
        s.adj_clear();
        edges
            .iter()
            .copied()
            .filter(|&(f, t)| s.mark2.contains(f) && s.mark.contains(t) && s.mark2.contains(t))
            .collect()
    }

    /// Prunes a whole DAG to the paths leading to its own ends.
    pub fn trim(&self, dag: &ChainDag) -> ChainDag {
        let ends: FxHashSet<NodeIdx> = dag.ends.keys().copied().collect();
        ChainDag {
            edges: self.trim_to(&dag.edges, &ends),
            ends: dag.ends.clone(),
        }
    }

    /// Single-step inference: the CDAG analogue of `TC(AC(c, axis), φ)` for
    /// every chain denoted by `ctx`. Returns `(result, used)` where `used` is
    /// the restriction of `ctx` to the ends that produced at least one result
    /// (needed by rule STEPUH).
    ///
    /// Only the context edges lying on paths to *contributing* ends are kept
    /// (provenance trimming, see [`Self::trim`]); without this, chains that a
    /// node test discarded would pollute later steps through shared CDAG
    /// nodes.
    pub fn step(&self, ctx: &ChainDag, axis: Axis, test: &NodeTest) -> (ChainDag, ChainDag) {
        match axis {
            Axis::Descendant | Axis::DescendantOrSelf => {
                return self.step_descendant(ctx, axis == Axis::DescendantOrSelf, test);
            }
            Axis::Ancestor | Axis::AncestorOrSelf => {
                return self.step_ancestor(ctx, axis == Axis::AncestorOrSelf, test);
            }
            _ => {}
        }
        let mut new_edges: FxHashSet<(NodeIdx, NodeIdx)> = FxHashSet::default();
        let mut result = ChainDag::empty();
        let mut used = ChainDag::empty();
        // Reverse adjacency of the context DAG, needed by the parent and
        // sibling axes.
        let preds = if matches!(
            axis,
            Axis::Parent | Axis::FollowingSibling | Axis::PrecedingSibling
        ) {
            Preds::of(&ctx.edges)
        } else {
            Preds::default()
        };
        for &end in ctx.ends.keys() {
            let Some(end_sym) = self.sym_of(end) else {
                continue;
            };
            let depth = self.depth_of(end);
            let mut produced = false;
            match axis {
                Axis::SelfAxis => {
                    if self.sym_passes(end_sym, test) {
                        result.ends.insert(end, false);
                        produced = true;
                    }
                }
                Axis::Child => {
                    if depth + 1 < self.max_depth {
                        for &c in self.schema.child_types(end_sym) {
                            let cn = self.node(c, depth + 1);
                            if self.sym_passes(c, test) {
                                new_edges.insert((end, cn));
                                result.ends.insert(cn, false);
                                produced = true;
                            }
                        }
                    } else {
                        self.note_depth_cap(end_sym);
                    }
                }
                Axis::Descendant
                | Axis::DescendantOrSelf
                | Axis::Ancestor
                | Axis::AncestorOrSelf => {
                    unreachable!("handled by the shared sweeps")
                }
                Axis::Parent => {
                    for &p in preds.get(end) {
                        if let Some(ps) = self.sym_of(p) {
                            if self.sym_passes(ps, test) {
                                result.ends.insert(p, false);
                                produced = true;
                            }
                        }
                    }
                }
                Axis::FollowingSibling | Axis::PrecedingSibling => {
                    for &p in preds.get(end) {
                        let Some(parent_sym) = self.sym_of(p) else {
                            continue;
                        };
                        for &(x, y) in self.schema.before_pairs_of(parent_sym) {
                            let sibling = if axis == Axis::FollowingSibling {
                                (x == end_sym).then_some(y)
                            } else {
                                (y == end_sym).then_some(x)
                            };
                            if let Some(s) = sibling {
                                if self.sym_passes(s, test) {
                                    let sn = self.node(s, depth);
                                    new_edges.insert((p, sn));
                                    result.ends.insert(sn, false);
                                    produced = true;
                                }
                            }
                        }
                    }
                }
            }
            if produced {
                used.ends.insert(end, false);
            }
        }
        self.finish_step(ctx, new_edges, result, used)
    }

    /// The descendant / descendant-or-self step, with the closure over schema
    /// edges shared across **all** context ends and computed
    /// level-synchronously on the frontier grids: each grid level is one
    /// bitmask, the forward closure ORs per-symbol child masks into the next
    /// level (64 nodes per word operation), and a backward word-parallel
    /// pass computes which ends actually produced a match (the STEPUH
    /// `used` restriction). Results are identical to the per-end closure,
    /// cell for cell — the engine-differential suite pins this against
    /// [`Self::step_descendant_reference`].
    #[doc(hidden)]
    pub fn step_descendant(
        &self,
        ctx: &ChainDag,
        or_self: bool,
        test: &NodeTest,
    ) -> (ChainDag, ChainDag) {
        let mut result = ChainDag::empty();
        let mut used = ChainDag::empty();
        let rows = self.max_depth as usize;
        let width = self.width as usize;
        let stride = self.stride;
        let mut guard = self.scratch.borrow_mut();
        let s = &mut *guard;
        s.visited.reset(rows, width);
        s.reached.reset(rows, width);
        // Seed the visited grid from the context ends (ends on the
        // unknown-label sentinel slot have no schema type and contribute
        // nothing, exactly as in the per-end closure).
        let mut lo = rows;
        let mut top = 0usize;
        for &end in ctx.ends.keys() {
            if self.sym_of(end).is_some() {
                let d = self.depth_of(end) as usize;
                s.visited.set(d, (end % self.width) as usize);
                lo = lo.min(d);
                top = top.max(d);
            }
        }
        if lo == rows {
            drop(guard);
            return self.finish_step(ctx, FxHashSet::default(), result, used);
        }
        // Phase 1, forward: one frontier per level. A level's reached set is
        // the OR of the child masks of every symbol set in the level above;
        // `visited` additionally carries the seeds.
        for d in lo..rows - 1 {
            if d > top {
                break;
            }
            s.slots.clear();
            s.slots.extend(bitset::ones(s.visited.row(d)));
            if s.slots.is_empty() {
                continue;
            }
            s.level_buf.clear();
            s.level_buf.resize(stride, 0);
            for &slot in &s.slots {
                bitset::or_into(&mut s.level_buf, self.child_mask(slot));
            }
            if s.level_buf.iter().any(|&w| w != 0) {
                s.reached.or_into_row(d + 1, &s.level_buf);
                s.visited.or_into_row(d + 1, &s.level_buf);
                top = top.max(d + 1);
            }
        }
        // Nodes on the last level cannot extend further: note the depth cap
        // for each (saturation, see the module docs).
        if top == rows - 1 {
            s.slots.clear();
            s.slots.extend(bitset::ones(s.visited.row(rows - 1)));
            for &slot in &s.slots {
                self.note_depth_cap(Sym(slot as u16));
            }
        }
        // Matched descendants: reached ∧ node-test mask, level by level.
        self.fill_match_mask(&mut s.match_mask, test);
        for d in lo + 1..=top {
            s.level_buf.clear();
            s.level_buf.extend(
                s.reached
                    .row(d)
                    .iter()
                    .zip(&s.match_mask)
                    .map(|(&a, &b)| a & b),
            );
            for slot in bitset::ones(&s.level_buf) {
                result.ends.insert(d as u32 * self.width + slot, false);
            }
        }
        // Phase 2, backward and word-parallel: `reach[d]` = nodes from which
        // a matched node is reachable in ≥ 0 steps. An end *produced* a
        // result iff one of its children reaches a matched node (≥ 1 step),
        // which is one word-AND emptiness test per end.
        s.reach.reset(rows, width);
        for d in (lo..=top).rev() {
            if d > lo {
                s.level_buf.clear();
                s.level_buf.extend(
                    s.reached
                        .row(d)
                        .iter()
                        .zip(&s.match_mask)
                        .map(|(&a, &b)| a & b),
                );
                s.reach.or_into_row(d, &s.level_buf);
            }
            if d < top {
                s.slots.clear();
                s.slots.extend(bitset::ones(s.visited.row(d)));
                for &slot in &s.slots {
                    if bitset::intersects(self.child_mask(slot), s.reach.row(d + 1)) {
                        s.reach.set(d, slot as usize);
                    }
                }
            }
        }
        for &end in ctx.ends.keys() {
            let Some(end_sym) = self.sym_of(end) else {
                continue;
            };
            let d = self.depth_of(end) as usize;
            let mut produced = d + 1 < rows
                && bitset::intersects(self.child_mask(end % self.width), s.reach.row(d + 1));
            if or_self && self.sym_passes(end_sym, test) {
                result.ends.insert(end, false);
                produced = true;
            }
            if produced {
                used.ends.insert(end, false);
            }
        }
        // Materialize the discovered edges from the visited masks, level by
        // level.
        let mut new_edges: FxHashSet<(NodeIdx, NodeIdx)> = FxHashSet::default();
        for d in lo..=top.min(rows - 2) {
            for slot in bitset::ones(s.visited.row(d)) {
                let from = d as u32 * self.width + slot;
                for &c in self.schema.child_types(Sym(slot as u16)) {
                    new_edges.insert((from, self.node(c, d as u32 + 1)));
                }
            }
        }
        // Release the scratch borrow: `finish_step`'s trimming re-borrows it.
        drop(guard);
        self.finish_step(ctx, new_edges, result, used)
    }

    /// Test-support reference for the descendant step: the naive
    /// depth-first closure over plain hash sets (the pre-bitset
    /// implementation, kept verbatim modulo the scratch workspace). The
    /// engine-differential suite pins the word-parallel sweep against this
    /// bit for bit; it is not used on any production path.
    #[doc(hidden)]
    pub fn step_descendant_reference(
        &self,
        ctx: &ChainDag,
        or_self: bool,
        test: &NodeTest,
    ) -> (ChainDag, ChainDag) {
        let mut new_edges: FxHashSet<(NodeIdx, NodeIdx)> = FxHashSet::default();
        let mut result = ChainDag::empty();
        let mut used = ChainDag::empty();
        // Phase 1: shared forward closure from every end, recording backward
        // adjacency for phase 2 and collecting matched descendants.
        let mut visited: FxHashSet<NodeIdx> = FxHashSet::default();
        let mut back: FxHashMap<NodeIdx, Vec<NodeIdx>> = FxHashMap::default();
        let mut desc_matched: Vec<NodeIdx> = Vec::new();
        let mut stack: Vec<NodeIdx> = Vec::new();
        for &end in ctx.ends.keys() {
            if self.sym_of(end).is_some() && visited.insert(end) {
                stack.push(end);
            }
        }
        while let Some(n) = stack.pop() {
            let Some(sym) = self.sym_of(n) else { continue };
            let d = self.depth_of(n);
            if d + 1 >= self.max_depth {
                self.note_depth_cap(sym);
                continue;
            }
            for &c in self.schema.child_types(sym) {
                let cn = self.node(c, d + 1);
                if new_edges.insert((n, cn)) {
                    back.entry(cn).or_default().push(n);
                }
                if self.sym_passes(c, test) && result.ends.insert(cn, false).is_none() {
                    desc_matched.push(cn);
                }
                if visited.insert(cn) {
                    stack.push(cn);
                }
            }
        }
        // Phase 2: `produces` = nodes with a path of length ≥ 1 to a matched
        // node, by backward closure from the matched nodes.
        let mut produces: FxHashSet<NodeIdx> = FxHashSet::default();
        let mut reach_matched: FxHashSet<NodeIdx> = desc_matched.iter().copied().collect();
        stack.clear();
        stack.extend(desc_matched.iter().copied());
        while let Some(n) = stack.pop() {
            for &p in back.get(&n).map(|v| v.as_slice()).unwrap_or(&[]) {
                produces.insert(p);
                if reach_matched.insert(p) {
                    stack.push(p);
                }
            }
        }
        for &end in ctx.ends.keys() {
            let Some(end_sym) = self.sym_of(end) else {
                continue;
            };
            let mut produced = produces.contains(&end);
            if or_self && self.sym_passes(end_sym, test) {
                result.ends.insert(end, false);
                produced = true;
            }
            if produced {
                used.ends.insert(end, false);
            }
        }
        self.finish_step(ctx, new_edges, result, used)
    }

    /// The ancestor / ancestor-or-self step, as one sweep over the context
    /// DAG shared across **all** context ends instead of one walk per end
    /// (the pruning of the staircase join, moved from documents to
    /// chain-DAGs). Two passes over the engine scratch:
    ///
    /// * *up*: one reverse walk from every typed end marks each proper
    ///   ancestor of some end (`mark`); the marked nodes that pass the node
    ///   test are the result ends;
    /// * *down*: the marked nodes in ascending index order — every DAG edge
    ///   goes one level down and the grid is level-major, so this order is
    ///   by depth — get `hit` (`mark2`) when some parent passes the test or
    ///   is itself hit. An end produced a result (the STEPUH `used`
    ///   restriction) iff one of its parents is, in that sense, hit or
    ///   passing.
    ///
    /// Ends on the unknown-label sentinel slot seed nothing, as in the
    /// per-end walk this replaces; the engine-differential suite pins the
    /// sweep against that walk bit for bit.
    fn step_ancestor(
        &self,
        ctx: &ChainDag,
        or_self: bool,
        test: &NodeTest,
    ) -> (ChainDag, ChainDag) {
        let mut result = ChainDag::empty();
        let mut used = ChainDag::empty();
        let mut guard = self.scratch.borrow_mut();
        let s = &mut *guard;
        // Up pass: reverse adjacency, then one walk from every typed end.
        for &(f, t) in &ctx.edges {
            s.adj_push(t, f);
        }
        s.mark.clear();
        s.stack.clear();
        s.stack
            .extend(ctx.ends.keys().filter(|&&e| self.sym_of(e).is_some()));
        s.mark_reachable();
        self.fill_match_mask(&mut s.match_mask, test);
        let width = self.width;
        let mask = &s.match_mask;
        let passes = |n: NodeIdx| {
            let slot = (n % width) as usize;
            mask[slot / bitset::WORD_BITS] & (1u64 << (slot % bitset::WORD_BITS)) != 0
        };
        // Down pass: every parent of a marked node is marked and sits one
        // level higher, so it is settled before the node itself.
        s.mark2.clear();
        for n in s.mark.iter_ones() {
            if passes(n) {
                result.ends.insert(n, false);
            }
            let parents = s.adj.get(n as usize).map_or(&[][..], Vec::as_slice);
            if parents.iter().any(|&p| {
                debug_assert!(p < n, "DAG edges go one level down");
                passes(p) || s.mark2.contains(p)
            }) {
                s.mark2.insert(n);
            }
        }
        for &end in ctx.ends.keys() {
            if self.sym_of(end).is_none() {
                continue;
            }
            let parents = s.adj.get(end as usize).map_or(&[][..], Vec::as_slice);
            let mut produced = parents.iter().any(|&p| passes(p) || s.mark2.contains(p));
            if or_self && passes(end) {
                result.ends.insert(end, false);
                produced = true;
            }
            if produced {
                used.ends.insert(end, false);
            }
        }
        s.adj_clear();
        // Release the scratch borrow: `finish_step`'s trimming re-borrows it.
        drop(guard);
        self.finish_step(ctx, FxHashSet::default(), result, used)
    }

    /// Shared tail of every step: provenance trimming. Keeps only the context
    /// edges on paths to the *contributing* ends, adds the edges created by
    /// the step, and trims the result to the paths reaching its own ends.
    fn finish_step(
        &self,
        ctx: &ChainDag,
        new_edges: FxHashSet<(NodeIdx, NodeIdx)>,
        mut result: ChainDag,
        mut used: ChainDag,
    ) -> (ChainDag, ChainDag) {
        let contributing: FxHashSet<NodeIdx> = used.ends.keys().copied().collect();
        let base_edges = self.trim_to(&ctx.edges, &contributing);
        used.edges = base_edges.clone();
        let mut all_edges = base_edges;
        all_edges.extend(new_edges);
        let result_ends: FxHashSet<NodeIdx> = result.ends.keys().copied().collect();
        result.edges = self.trim_to(&all_edges, &result_ends);
        (result, used)
    }

    // ------------------------------------------------------ Table 1 (DAG)

    /// The initial environment binding every free variable to the root chain.
    pub fn root_gamma(&self, vars: impl IntoIterator<Item = String>) -> DagGamma {
        let mut g = DagGamma::default();
        for v in vars {
            g.insert(v, self.root_dag());
        }
        g
    }

    /// Infers the chain triple for a query in CDAG form.
    pub fn infer_query(&self, gamma: &DagGamma, q: &Query) -> DagQueryChains {
        match q {
            Query::Empty => DagQueryChains::default(),
            Query::StringLit(_) => DagQueryChains {
                elements: vec![ChainItem::plain(Chain::single(TEXT_SYM))],
                ..Default::default()
            },
            Query::Concat(a, b) => self.infer_query(gamma, a).union(self.infer_query(gamma, b)),
            Query::If { cond, then, els } => {
                let q0 = self.infer_query(gamma, cond);
                let q1 = self.infer_query(gamma, then);
                let q2 = self.infer_query(gamma, els);
                let mut out = q1.union(q2);
                out.used = out.used.union(&q0.used).union(&q0.returns);
                out
            }
            Query::Let { var, source, ret } => {
                let q1 = self.infer_query(gamma, source);
                let mut inner = gamma.clone();
                inner.insert(var.clone(), q1.returns.clone());
                let q2 = self.infer_query(&inner, ret);
                DagQueryChains {
                    returns: q2.returns,
                    used: q1.used.union(&q1.returns).union(&q2.used),
                    elements: q2.elements,
                }
            }
            Query::For { var, source, ret } => {
                let q1 = self.infer_query(gamma, source);
                // Exact fast path: when the body is a single step on the
                // loop variable (every desugared path query), the step's
                // produced-ends restriction *is* the FOR chain filter — the
                // iteration chains that become used are exactly the context
                // ends the step produced results from, for upward and
                // downward axes alike. This avoids the node-sharing
                // over-approximation of the general case below, keeping the
                // CDAG verdicts aligned with the explicit engine on plain
                // navigation.
                if let Query::Step {
                    var: step_var,
                    axis,
                    test,
                } = &**ret
                {
                    if step_var == var {
                        let (returns, step_used) = self.step(&q1.returns, *axis, test);
                        return DagQueryChains {
                            returns,
                            used: q1.used.clone().union(&step_used),
                            elements: Vec::new(),
                        };
                    }
                }
                // General case: the loop variable is bound to the whole
                // return set at once (a sound approximation of the per-chain
                // iteration of the explicit rule; see the module
                // documentation).
                let mut inner = gamma.clone();
                inner.insert(var.clone(), q1.returns.clone());
                let q2 = self.infer_query(&inner, ret);
                let mut used = q1.used.clone().union(&q2.used);
                if !q2.returns.is_empty() || !q2.elements.is_empty() {
                    // Chain filtering (rule FOR): only the iteration chains
                    // the body actually navigated from become used chains. We
                    // approximate "navigated from" by the source ends that
                    // appear in the body's inferred DAGs; when the body never
                    // exposes them (e.g. it only walks upward), fall back to
                    // the whole source return set, which is sound.
                    used = used.union(&self.contributing_sources(&q1.returns, &q2));
                }
                DagQueryChains {
                    returns: q2.returns,
                    used,
                    elements: q2.elements,
                }
            }
            Query::Step { var, axis, test } => {
                let Some(ctx) = gamma.get(var) else {
                    return DagQueryChains::default();
                };
                let (returns, used) = self.step(ctx, *axis, test);
                DagQueryChains {
                    returns,
                    used: if axis.is_stepf_axis() {
                        ChainDag::empty()
                    } else {
                        used
                    },
                    elements: Vec::new(),
                }
            }
            Query::Element { tag, content } => {
                let q = self.infer_query(gamma, content);
                let mut used = q.used.clone();
                used = used.union(&q.returns.clone().extend_all_ends());
                let mut elements = Vec::new();
                if !self.element_chains {
                    elements.push(ChainItem::extended(Chain::empty()));
                    return DagQueryChains {
                        returns: ChainDag::empty(),
                        used,
                        elements,
                    };
                }
                for &t in &label_syms(self.schema, tag) {
                    let prefix = Chain::single(t);
                    for s in self.end_symbols(&q.returns) {
                        elements.push(ChainItem::extended(prefix.push(s)));
                    }
                    for e in &q.elements {
                        elements.push(ChainItem {
                            chain: prefix.concat(&e.chain),
                            extensible: e.extensible,
                        });
                    }
                    // The constructed element is itself a node of the forest,
                    // whatever its content — record its own chain so an
                    // inserted `<a>…</a>` conflicts with chains ending at `a`
                    // (see the explicit engine's Element rule for the full
                    // soundness argument).
                    elements.push(ChainItem::plain(prefix));
                }
                DagQueryChains {
                    returns: ChainDag::empty(),
                    used,
                    elements,
                }
            }
        }
    }

    /// Restricts a source return DAG to the ends that the body's inferred
    /// chains pass through (the FOR-rule chain filter, approximated on DAGs).
    fn contributing_sources(&self, source: &ChainDag, body: &DagQueryChains) -> ChainDag {
        let mut body_nodes: FxHashSet<NodeIdx> = FxHashSet::default();
        for dag in [&body.returns, &body.used] {
            for &(f, t) in &dag.edges {
                body_nodes.insert(f);
                body_nodes.insert(t);
            }
            body_nodes.extend(dag.ends.keys().copied());
        }
        let live: FxHashMap<NodeIdx, bool> = source
            .ends
            .iter()
            .filter(|(n, _)| body_nodes.contains(n))
            .map(|(&n, &e)| (n, e))
            .collect();
        if live.is_empty() {
            // The body produced something but through paths that do not
            // expose the source ends (upward-only navigation): keep them all.
            return source.clone();
        }
        self.trim(&ChainDag {
            edges: source.edges.clone(),
            ends: live,
        })
    }

    /// The distinct symbols at the end nodes of a DAG.
    pub fn end_symbols(&self, dag: &ChainDag) -> Vec<Sym> {
        let mut out: Vec<Sym> = dag.ends.keys().filter_map(|&n| self.sym_of(n)).collect();
        out.sort();
        out.dedup();
        out
    }

    // ------------------------------------------------------ Table 2 (DAG)

    /// Update chains in CDAG form: the full chains `c.c'` of every inferred
    /// `c:c'`, with extensible ends where the suffix stands for an entire
    /// inserted subtree.
    pub fn infer_update(&self, gamma: &DagGamma, u: &Update) -> ChainDag {
        match u {
            Update::Empty => ChainDag::empty(),
            Update::Concat(a, b) => self
                .infer_update(gamma, a)
                .union(&self.infer_update(gamma, b)),
            Update::If { cond: _, then, els } => self
                .infer_update(gamma, then)
                .union(&self.infer_update(gamma, els)),
            Update::Let { var, source, body } | Update::For { var, source, body } => {
                let q1 = self.infer_query(gamma, source);
                let mut inner = gamma.clone();
                inner.insert(var.clone(), q1.returns);
                self.infer_update(&inner, body)
            }
            Update::Delete { target } => {
                // Full chains of {c:α | c.α ∈ r0} are exactly the chains of r0.
                self.infer_query(gamma, target).returns
            }
            Update::Rename { target, new_tag } => {
                let r0 = self.infer_query(gamma, target).returns;
                let mut out = r0.clone();
                // c:b for every new-label type b: add a sibling end next to
                // each target end (same parent, same depth, type b).
                // A target without parents is the root itself: renaming the
                // root changes the chain at depth 0.
                let preds = Preds::of(&r0.edges);
                for &b in &label_syms(self.schema, new_tag) {
                    for &end in r0.ends.keys() {
                        let bn = self.node(b, self.depth_of(end));
                        for &p in preds.get(end) {
                            out.edges.insert((p, bn));
                        }
                        out.ends.insert(bn, false);
                    }
                }
                out
            }
            Update::Insert {
                source,
                pos,
                target,
            } => {
                let src = self.infer_query(gamma, source);
                let r0 = self.infer_query(gamma, target).returns;
                let bases = match pos {
                    UpdatePos::Into | UpdatePos::IntoAsFirst | UpdatePos::IntoAsLast => r0,
                    UpdatePos::Before | UpdatePos::After => self.parents_of(&r0),
                };
                self.insertion_dag(&bases, &src)
            }
            Update::Replace { target, source } => {
                let src = self.infer_query(gamma, source);
                let r0 = self.infer_query(gamma, target).returns;
                let bases = self.parents_of(&r0);
                // {c:α | c.α ∈ r0} are the chains of r0 themselves.
                r0.union(&self.insertion_dag(&bases, &src))
            }
        }
    }

    /// The set of parent chains of every chain in `dag` (within the DAG).
    fn parents_of(&self, dag: &ChainDag) -> ChainDag {
        let preds = Preds::of(&dag.edges);
        let mut out = ChainDag {
            edges: dag.edges.clone(),
            ends: FxHashMap::default(),
        };
        for &end in dag.ends.keys() {
            for &p in preds.get(end) {
                out.ends.insert(p, false);
            }
        }
        out
    }

    /// Attaches the source's element chains and return-root types below every
    /// base chain (the insertion components of INSERT-1/2 and REPLACE).
    fn insertion_dag(&self, bases: &ChainDag, src: &DagQueryChains) -> ChainDag {
        let mut out = ChainDag {
            edges: bases.edges.clone(),
            ends: FxHashMap::default(),
        };
        // Suffixes to attach: element chains (with their extensibility) plus
        // one extensible single-symbol suffix per source return type.
        let mut suffixes: Vec<ChainItem> = src.elements.clone();
        for s in self.end_symbols(&src.returns) {
            suffixes.push(ChainItem::extended(Chain::single(s)));
        }
        for &base in bases.ends.keys() {
            for suf in &suffixes {
                if suf.chain.is_empty() {
                    // Degenerate suffix (element-chain ablation): the change
                    // happens somewhere below the base.
                    out.ends.insert(base, true);
                    continue;
                }
                let mut cur = base;
                let mut truncated = false;
                for (depth, &s) in (self.depth_of(base)..).zip(suf.chain.symbols()) {
                    if depth + 1 >= self.max_depth {
                        truncated = true;
                        self.saturated.set(true);
                        break;
                    }
                    let next = self.node(s, depth + 1);
                    out.edges.insert((cur, next));
                    cur = next;
                }
                let ext = suf.extensible || truncated;
                let e = out.ends.entry(cur).or_insert(false);
                *e = *e || ext;
            }
        }
        out
    }

    // ------------------------------------------------------ conflicts

    /// Plain prefix conflict between two DAG-denoted sets: does some chain of
    /// `a` (base chains only) prefix some chain of `b` (base chains only)?
    fn prefix_conflict_base(&self, a: &ChainDag, b: &ChainDag) -> bool {
        if a.is_empty() || b.is_empty() {
            return false;
        }
        let mut s = self.scratch.borrow_mut();
        let s = &mut *s;
        // Nodes from which an end of b is reachable via b's edges, as a
        // dense bitset (`s.mark`).
        s.mark.clear();
        for &(f, t) in &b.edges {
            s.adj_push(t, f);
        }
        s.stack.clear();
        for &e in b.ends.keys() {
            if s.mark.insert(e) {
                s.stack.push(e);
            }
        }
        s.mark_reachable();
        s.adj_clear();
        // Early exit: if no end of a can still reach an end of b, no walk
        // over the common edges can succeed — skip building the adjacency.
        if !a.ends.keys().any(|&e| s.mark.contains(e)) {
            return false;
        }
        // Walk from the root along edges common to a and b; if we hit an end
        // of a from which b can still reach an end, the prefix relation holds.
        let (small, other) = if a.edges.len() <= b.edges.len() {
            (&a.edges, &b.edges)
        } else {
            (&b.edges, &a.edges)
        };
        for &(f, t) in small {
            if other.contains(&(f, t)) {
                s.adj_push(f, t);
            }
        }
        let root = self.root_node();
        s.mark2.clear();
        s.mark2.insert(root);
        s.stack.clear();
        s.stack.push(root);
        let mut found = false;
        while let Some(n) = s.stack.pop() {
            if a.ends.contains_key(&n) && s.mark.contains(n) {
                found = true;
                break;
            }
            let i = n as usize;
            for j in 0..s.adj.get(i).map(Vec::len).unwrap_or(0) {
                let m = s.adj[i][j];
                if s.mark2.insert(m) {
                    s.stack.push(m);
                }
            }
        }
        s.adj_clear();
        found
    }

    /// Full conflict check `∃ x ∈ set(a), y ∈ set(b): x ⪯ y`, taking the
    /// extensible ends of `b` into account (extensions of `a` never help).
    pub fn dag_conflicts(&self, a: &ChainDag, b: &ChainDag) -> bool {
        if self.prefix_conflict_base(a, b) {
            return true;
        }
        let b_ext = b.extensible_ends_only();
        if b_ext.is_empty() {
            return false;
        }
        self.prefix_conflict_base(&b_ext, a)
    }

    /// Checks C-independence on CDAG chain sets: returns `true` when the pair
    /// is (chain-)independent.
    pub fn independent(&self, q: &DagQueryChains, u: &ChainDag) -> bool {
        // confl(r, U), confl(U, r), confl(U, v)
        !self.dag_conflicts(&q.returns, u)
            && !self.dag_conflicts(u, &q.returns)
            && !self.dag_conflicts(u, &q.used)
    }

    // ------------------------------------------------------ witnesses

    /// Shortest path from `start` to the first node satisfying `good`,
    /// walking `edges` breadth-first with ascending-index tie-breaking, so
    /// the result is deterministic for any hash-set iteration order.
    ///
    /// This is the cold witness path, not the verdict path: it allocates its
    /// own adjacency instead of borrowing the engine scratch.
    fn first_path(
        &self,
        edges: &FxHashSet<(NodeIdx, NodeIdx)>,
        start: NodeIdx,
        good: impl Fn(NodeIdx) -> bool,
    ) -> Option<Vec<NodeIdx>> {
        if good(start) {
            return Some(vec![start]);
        }
        let mut adj: FxHashMap<NodeIdx, Vec<NodeIdx>> = FxHashMap::default();
        for &(f, t) in edges {
            adj.entry(f).or_default().push(t);
        }
        for v in adj.values_mut() {
            v.sort_unstable();
        }
        let mut parent: FxHashMap<NodeIdx, NodeIdx> = FxHashMap::default();
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(n) = queue.pop_front() {
            for &m in adj.get(&n).map(Vec::as_slice).unwrap_or_default() {
                if m == start || parent.contains_key(&m) {
                    continue;
                }
                parent.insert(m, n);
                if good(m) {
                    let mut path = vec![m];
                    let mut cur = m;
                    while let Some(&p) = parent.get(&cur) {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(m);
            }
        }
        None
    }

    /// The chain spelled by a node path; `None` if the path runs through the
    /// unknown-label sentinel slot (such chains have no symbol spelling).
    fn chain_of_path(&self, path: &[NodeIdx]) -> Option<Chain> {
        let syms: Option<Vec<Sym>> = path.iter().map(|&n| self.sym_of(n)).collect();
        Some(Chain(syms?))
    }

    /// A concrete pair for `prefix_conflict_base(a, b)`: the first (in BFS
    /// order) chain `x ∈ set(a)` that is a prefix of a chain `y ∈ set(b)`,
    /// returned as `(x, y)` with `y` carrying its end's extensibility.
    fn base_witness(&self, a: &ChainDag, b: &ChainDag) -> Option<(ChainItem, ChainItem)> {
        if a.is_empty() || b.is_empty() {
            return None;
        }
        // Nodes from which an end of b is reachable via b's edges.
        let mut back: FxHashSet<NodeIdx> = b.ends.keys().copied().collect();
        let radj = Preds::of(&b.edges);
        let mut stack: Vec<NodeIdx> = back.iter().copied().collect();
        while let Some(n) = stack.pop() {
            for &p in radj.get(n) {
                if back.insert(p) {
                    stack.push(p);
                }
            }
        }
        // x: root-to-(end of a) walk over the edges common to a and b,
        // stopping where b can still reach one of its ends.
        let common: FxHashSet<(NodeIdx, NodeIdx)> = a
            .edges
            .iter()
            .filter(|e| b.edges.contains(e))
            .copied()
            .collect();
        let head = self.first_path(&common, self.root_node(), |n| {
            a.ends.contains_key(&n) && back.contains(&n)
        })?;
        // y: continue from x's endpoint along b's edges to an end of b (the
        // backward pass guarantees one is reachable).
        let tail = self.first_path(&b.edges, *head.last().unwrap(), |m| b.ends.contains_key(&m))?;
        let x = self.chain_of_path(&head)?;
        let mut full = head;
        full.extend_from_slice(&tail[1..]);
        let y = self.chain_of_path(&full)?;
        let item = if b.ends[tail.last().unwrap()] {
            ChainItem::extended(y)
        } else {
            ChainItem::plain(y)
        };
        Some((ChainItem::plain(x), item))
    }

    /// A concrete pair for `dag_conflicts(a, b)`: chains `x ∈ set(a)` and
    /// `y ∈ set(b)` with `x ⪯ y`. When only an extensible end of `b` makes
    /// the conflict (a `b` base chain prefixes `x`, and its extensions cover
    /// `x`), `y` is returned as the extensible base item — the same shape
    /// the explicit engine's witnesses use.
    fn directed_witness(&self, a: &ChainDag, b: &ChainDag) -> Option<(ChainItem, ChainItem)> {
        // Probe each direction with the bitset conflict check (scratch
        // reuse, no allocation) and only run the allocating extraction on a
        // direction known to fire — a failed probe is ~an order of magnitude
        // cheaper than a failed extraction, and most directions fail.
        if self.prefix_conflict_base(a, b) {
            if let Some(pair) = self.base_witness(a, b) {
                return Some(pair);
            }
        }
        let b_ext = b.extensible_ends_only();
        if b_ext.is_empty() || !self.prefix_conflict_base(&b_ext, a) {
            return None;
        }
        let (y_base, x) = self.base_witness(&b_ext, a)?;
        Some((ChainItem::plain(x.chain), ChainItem::extended(y_base.chain)))
    }

    /// Synthesizes a concrete dependence witness from CDAG chain sets,
    /// checking the three directed conflicts in the order of the explicit
    /// engine's `find_conflict`. Returns `None` when the pair is independent
    /// — and, conservatively, when the only witness paths run through the
    /// unknown-label sentinel slot (those chains have no symbol spelling).
    ///
    /// The extraction is deterministic (BFS with sorted adjacency), so the
    /// witness a dependent CDAG verdict carries is bit-identical across
    /// worker counts and sessions.
    pub fn find_dag_conflict(&self, q: &DagQueryChains, u: &ChainDag) -> Option<ConflictWitness> {
        if let Some((x, y)) = self.directed_witness(&q.returns, u) {
            return Some(ConflictWitness {
                kind: ConflictKind::ReturnBelowUpdate,
                query_chain: x,
                update_chain: y,
            });
        }
        if let Some((x, y)) = self.directed_witness(u, &q.returns) {
            return Some(ConflictWitness {
                kind: ConflictKind::UpdateAboveReturn,
                query_chain: y,
                update_chain: x,
            });
        }
        if let Some((x, y)) = self.directed_witness(u, &q.used) {
            return Some(ConflictWitness {
                kind: ConflictKind::UpdateAboveUsed,
                query_chain: y,
                update_chain: x,
            });
        }
        None
    }

    /// Converts explicitly represented chain sets into DAG form — used by the
    /// cross-checking tests to compare the two engines on identical inputs.
    pub fn explicit_to_dag(&self, q: &QueryChains) -> DagQueryChains {
        let mut returns = ChainDag::empty();
        for c in &q.returns {
            returns = returns.union(&self.dag_of_chain(c));
        }
        let mut used = ChainDag::empty();
        for item in &q.used {
            let mut d = self.dag_of_chain(&item.chain);
            if item.extensible {
                d = d.extend_all_ends();
            }
            used = used.union(&d);
        }
        DagQueryChains {
            returns,
            used,
            elements: q.elements.iter().cloned().collect(),
        }
    }

    /// Converts explicit update chains into DAG form (full chains).
    pub fn explicit_update_to_dag(&self, u: &UpdateChains) -> ChainDag {
        let mut out = ChainDag::empty();
        for uc in &u.chains {
            let full = uc.full();
            let mut d = self.dag_of_chain(&full.chain);
            if full.extensible {
                d = d.extend_all_ends();
            }
            out = out.union(&d);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qui_schema::Dtd;
    use qui_xquery::{parse_query, parse_update};

    fn figure1() -> Dtd {
        Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap()
    }

    fn show(d: &Dtd, eng: &CdagEngine<'_, Dtd>, dag: &ChainDag) -> Vec<String> {
        let mut v: Vec<String> = eng
            .enumerate(dag, 10_000)
            .unwrap()
            .iter()
            .map(|c| d.show_chain(c))
            .collect();
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn q1_and_u1_are_independent_on_figure1() {
        let d = figure1();
        let eng = CdagEngine::new(&d, 3);
        let q = parse_query("//a//c").unwrap();
        let u = parse_update("delete //b//c").unwrap();
        let qc = eng.infer_query(&eng.root_gamma(q.free_vars()), &q);
        let uc = eng.infer_update(&eng.root_gamma(u.free_vars()), &u);
        assert_eq!(show(&d, &eng, &qc.returns), vec!["doc.a.c"]);
        assert_eq!(show(&d, &eng, &uc), vec!["doc.b.c"]);
        assert!(eng.independent(&qc, &uc));
    }

    #[test]
    fn overlapping_pair_is_flagged() {
        let d = figure1();
        let eng = CdagEngine::new(&d, 3);
        let q = parse_query("//c").unwrap();
        let u = parse_update("delete //b//c").unwrap();
        let qc = eng.infer_query(&eng.root_gamma(q.free_vars()), &q);
        let uc = eng.infer_update(&eng.root_gamma(u.free_vars()), &u);
        assert!(!eng.independent(&qc, &uc));
    }

    #[test]
    fn update_above_return_is_flagged() {
        // query //a//c, update delete //a: deleting a removes returned c.
        let d = figure1();
        let eng = CdagEngine::new(&d, 3);
        let q = parse_query("//a//c").unwrap();
        let u = parse_update("delete //a").unwrap();
        let qc = eng.infer_query(&eng.root_gamma(q.free_vars()), &q);
        let uc = eng.infer_update(&eng.root_gamma(u.free_vars()), &u);
        assert!(!eng.independent(&qc, &uc));
    }

    #[test]
    fn recursive_schema_stays_polynomial() {
        // The 3-clique schema that blows up the explicit engine stays small
        // as a CDAG.
        let d = Dtd::parse_compact("a -> (b|c)* ; b -> (b|c)* ; c -> (b|c)*", "a").unwrap();
        let eng = CdagEngine::new(&d, 8);
        let q = parse_query("//b//c//b").unwrap();
        let qc = eng.infer_query(&eng.root_gamma(q.free_vars()), &q);
        // Width is bounded by (#types + 2) per level and depth by k·|d|.
        assert!(qc.returns.edge_count() < 10_000);
        assert!(!qc.returns.is_empty());
    }

    #[test]
    fn dag_of_chain_roundtrips() {
        let d = figure1();
        let eng = CdagEngine::new(&d, 2);
        let c = d.chain_of_names(&["doc", "a", "c"]).unwrap();
        let dag = eng.dag_of_chain(&c);
        assert_eq!(show(&d, &eng, &dag), vec!["doc.a.c"]);
    }

    #[test]
    fn element_chains_give_bibliography_independence() {
        let d = Dtd::parse_compact(
            "bib -> book* ; book -> (title, author*) ; title -> #PCDATA ; author -> EMPTY",
            "bib",
        )
        .unwrap();
        let eng = CdagEngine::new(&d, 3);
        let q = parse_query("//title").unwrap();
        let u = parse_update("for $x in //book return insert <author/> into $x").unwrap();
        let qc = eng.infer_query(&eng.root_gamma(q.free_vars()), &q);
        let uc = eng.infer_update(&eng.root_gamma(u.free_vars()), &u);
        assert!(eng.independent(&qc, &uc));

        // Without element chains the analysis must conservatively flag it.
        let eng_ablate = CdagEngine::new(&d, 3).with_element_chains(false);
        let qc = eng_ablate.infer_query(&eng_ablate.root_gamma(q.free_vars()), &q);
        let uc = eng_ablate.infer_update(&eng_ablate.root_gamma(u.free_vars()), &u);
        assert!(!eng_ablate.independent(&qc, &uc));
    }

    #[test]
    fn upward_axis_follows_only_dag_edges() {
        // Figure 2 discussion: ancestors are computed within the inferred
        // DAG, not over the whole schema.
        let d = Dtd::parse_compact(
            "a -> (b|d)* ; b -> c ; d -> c ; c -> (e?, f?) ; e -> EMPTY ; f -> EMPTY",
            "a",
        )
        .unwrap();
        let eng = CdagEngine::new(&d, 2);
        // /a? The root is a; query /d/c/f/ancestor::node() should only see
        // a, d, c — never b.
        let q = parse_query("/d/c/f/ancestor::node()").unwrap();
        let qc = eng.infer_query(&eng.root_gamma(q.free_vars()), &q);
        let shown = show(&d, &eng, &qc.returns);
        assert!(shown.contains(&"a.d".to_string()));
        assert!(shown.iter().all(|c| !c.contains(".b")), "{shown:?}");
    }

    #[test]
    fn saturation_is_reported_on_recursive_descendants_only() {
        let rec = Dtd::parse_compact("a -> (b|c)* ; b -> (b|c)* ; c -> (b|c)*", "a").unwrap();
        let eng = CdagEngine::new(&rec, 1);
        let q = parse_query("//b").unwrap();
        let _ = eng.infer_query(&eng.root_gamma(q.free_vars()), &q);
        assert!(eng.take_saturated(), "recursive closure must hit the cap");
        assert!(!eng.take_saturated(), "the flag is cleared by take");

        let flat = figure1();
        let eng = CdagEngine::new(&flat, 2);
        let q = parse_query("//a//c").unwrap();
        let _ = eng.infer_query(&eng.root_gamma(q.free_vars()), &q);
        assert!(
            !eng.take_saturated(),
            "a non-recursive schema never reaches the cap"
        );
    }

    /// An unsaturated inference at `k0` equals a fresh inference at every
    /// larger bound, which is what lets the session's CDAG cache serve those
    /// bounds from it.
    #[test]
    fn query_ladder_matches_fresh_builds() {
        let d = figure1();
        for src in ["//a//c", "/a/c", "//node()", "//b/parent::doc"] {
            let q = parse_query(src).unwrap();
            let eng = CdagEngine::new(&d, 1);
            let at_k0 = eng.infer_query(&eng.root_gamma(q.free_vars()), &q);
            assert!(!eng.take_saturated(), "{src} is non-recursive");
            for k in 2..=4 {
                let eng = CdagEngine::new(&d, k);
                let fresh = eng.infer_query(&eng.root_gamma(q.free_vars()), &q);
                assert_eq!(at_k0, fresh, "{src} at k = {k}");
            }
        }
    }

    /// The update side of [`query_ladder_matches_fresh_builds`]; a saturated
    /// inference is reported, so the cache re-infers at each larger bound.
    #[test]
    fn update_ladder_matches_fresh_builds_even_when_saturated() {
        let d = figure1();
        for src in [
            "delete //b//c",
            "for $x in /a return insert <c/> into $x",
            "for $x in //c return rename $x as a",
        ] {
            let u = parse_update(src).unwrap();
            let eng = CdagEngine::new(&d, 1);
            let at_k0 = eng.infer_update(&eng.root_gamma(u.free_vars()), &u);
            assert!(!eng.take_saturated(), "{src} is non-recursive");
            for k in 2..=4 {
                let eng = CdagEngine::new(&d, k);
                let fresh = eng.infer_update(&eng.root_gamma(u.free_vars()), &u);
                assert_eq!(at_k0, fresh, "{src} at k = {k}");
            }
        }
        // A recursive delete saturates, so its result serves its own bound
        // only.
        let rec = Dtd::parse_compact("a -> (b|c)* ; b -> (b|c)* ; c -> (b|c)*", "a").unwrap();
        let u = parse_update("delete //c//b").unwrap();
        let eng = CdagEngine::new(&rec, 1);
        let _ = eng.infer_update(&eng.root_gamma(u.free_vars()), &u);
        assert!(eng.take_saturated(), "recursive deletes saturate");
    }
}
