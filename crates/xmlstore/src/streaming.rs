//! Streaming (pull) XML parsing from any [`std::io::Read`] source.
//!
//! The in-memory parser of [`crate::parser`] needs the whole document as a
//! `&str` before it starts, which caps the document sizes the Fig. 3.c
//! experiment can reach. This module parses the same XML subset *incremen-
//! tally*: bytes are pulled from the reader in fixed-size chunks into a small
//! sliding window, tokens are consumed as they complete, and the [`Tree`] is
//! built element by element with an explicit stack — the input text is never
//! materialized and memory stays `O(tree + chunk)`.
//!
//! On top of plain parsing, the streaming path supports **streamed
//! projection** (paper §3.4): a [`PathSpec`] describes, as root-to-node label
//! paths, which regions of the document a query may need; subtrees outside
//! the spec are recognized *during* the parse and dropped before a single
//! node is allocated for them. This turns projection savings into *peak
//! memory* savings, not just node-count savings — the pruned subtrees never
//! exist. [`project_paths`] applies the identical top-down semantics to an
//! already-parsed tree and is the reference the property tests compare
//! against; `qui-core`'s `ChainProjector::path_spec` converts its
//! chain-based `ProjectionSpec` into a [`PathSpec`].
//!
//! Both parsers accept the same documents, produce value-equivalent trees,
//! and reject malformed input with the same error message at the same byte
//! offset; the shared decoding helpers live in [`crate::decode`].

use crate::decode::{attribute_children, decode_entities, is_name_byte};
use crate::node::NodeId;
use crate::parser::{ParseError, TOO_MANY_NAMES};
use crate::sink::ResultSink;
use crate::store::Store;
use crate::symbols::Sym;
use crate::tree::Tree;
use std::collections::{BTreeSet, HashSet};
use std::io::Read;

/// The label under which text nodes participate in path specs (mirrors
/// `qui-schema`'s `TEXT_NAME`, which this crate cannot depend on).
pub const TEXT_LABEL: &str = "#text";

/// Default refill granularity of the sliding input window.
pub const DEFAULT_CHUNK_SIZE: usize = 8 * 1024;

// ---------------------------------------------------------------------------
// Path specs — label-path projections
// ---------------------------------------------------------------------------

/// A projection described by root-to-node **label paths**.
///
/// A node at label path `p` (the tags from the root down to the node, text
/// nodes contributing [`TEXT_LABEL`]) is kept iff
///
/// * `p` is a prefix of some chain in `keep_paths ∪ keep_subtrees` (the node
///   lies *on the way* to needed nodes), or
/// * some chain in `keep_subtrees` is a prefix of `p` (the node lies *inside*
///   a region that is kept whole), or
/// * its own label is not in `known_labels` (the schema says nothing about
///   it, so it is kept conservatively, together with its whole subtree).
///
/// Everything else is pruned with its entire subtree. The prefix conditions
/// are monotone along root-to-leaf paths, which is exactly what lets a
/// streaming parser decide *keep / descend / drop whole subtree* the moment
/// it sees a start tag. Unknown labels nested strictly inside pruned regions
/// are pruned with them (the stream never looks inside a dropped subtree);
/// valid documents have no unknown labels, so this only matters for
/// documents that do not conform to the schema the spec came from.
#[derive(Clone, Debug, Default)]
pub struct PathSpec {
    /// Chains whose prefixes must be kept (paths leading to needed nodes).
    pub keep_paths: BTreeSet<Vec<String>>,
    /// Chains whose entire subtrees must be kept.
    pub keep_subtrees: BTreeSet<Vec<String>>,
    /// The labels the schema knows; anything else is kept conservatively.
    /// [`TEXT_LABEL`] is always treated as known.
    pub known_labels: HashSet<String>,
}

fn is_prefix(a: &[String], b: &[String]) -> bool {
    a.len() <= b.len() && b[..a.len()] == *a
}

impl PathSpec {
    /// Returns `true` when `path` is a prefix of some kept chain, i.e. the
    /// node may lead to needed nodes and the stream must descend into it.
    pub fn on_path(&self, path: &[String]) -> bool {
        self.keep_paths
            .iter()
            .chain(self.keep_subtrees.iter())
            .any(|c| is_prefix(path, c))
    }

    /// Returns `true` when `path` lies inside a subtree that is kept whole.
    pub fn in_subtree(&self, path: &[String]) -> bool {
        self.keep_subtrees.iter().any(|c| is_prefix(c, path))
    }

    /// Returns `true` when the label is known to the schema the spec was
    /// derived from.
    pub fn is_known(&self, label: &str) -> bool {
        label == TEXT_LABEL || self.known_labels.contains(label)
    }

    /// Returns `true` when a text child of an element at `parent_path` is
    /// kept — equivalent to checking `parent_path + [TEXT_LABEL]` with
    /// [`Self::in_subtree`]`/`[`Self::on_path`], but without materializing
    /// the extended path (this runs once per text run of a streaming parse).
    pub fn keeps_text_child(&self, parent_path: &[String]) -> bool {
        self.in_subtree(parent_path)
            || self
                .keep_paths
                .iter()
                .chain(self.keep_subtrees.iter())
                .any(|c| {
                    c.len() > parent_path.len()
                        && c[..parent_path.len()] == *parent_path
                        && c[parent_path.len()] == TEXT_LABEL
                })
    }

    /// Total number of chains (size indicator for reports).
    pub fn len(&self) -> usize {
        self.keep_paths.len() + self.keep_subtrees.len()
    }

    /// Returns `true` when the spec keeps nothing beyond the root.
    pub fn is_empty(&self) -> bool {
        self.keep_paths.is_empty() && self.keep_subtrees.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Path automata — implicit label-path projections
// ---------------------------------------------------------------------------

/// A projection whose kept label paths are described *implicitly* by a small
/// automaton instead of an enumerated [`PathSpec`].
///
/// On recursive schemas the set of kept root-to-node paths can be huge or
/// infinite (a descendant-axis view over a recursive clique keeps `a.b.a.b…`
/// to any depth), so enumerating chains is hopeless — but the *decision*
/// "may this path lead to a needed node?" only needs the automaton:
/// `qui-core` compiles its chain-DAGs (one state per reachable (type, depth)
/// pair, transitions labeled with the child's label) into this type. The
/// keep semantics mirror [`PathSpec`] exactly:
///
/// * a path is *on-path* when the automaton can still reach an end state
///   after consuming it (the node may lead to needed nodes — descend),
/// * a path is *in-subtree* once any consumed prefix lands on a state
///   flagged subtree-keep (returned elements embody their descendants),
/// * labels outside `known_labels` are kept conservatively, as in
///   [`PathSpec`].
///
/// Both properties are monotone along root-to-leaf paths, so the streaming
/// parser can make the same keep / descend / drop decision at a start tag as
/// it does for an explicit spec.
#[derive(Clone, Debug, Default)]
pub struct PathAutomaton {
    /// Start states with their labels: the document element's label must
    /// match one of them (pairs of label and state).
    pub starts: Vec<(String, u32)>,
    /// Per-state outgoing transitions: (child label, target state).
    pub transitions: Vec<Vec<(String, u32)>>,
    /// Per-state: an end state is reachable from here (including itself) —
    /// the *on-path* flag.
    pub reaches_end: Vec<bool>,
    /// Per-state: chains ending here keep their whole subtree.
    pub subtree: Vec<bool>,
    /// The labels the schema knows; anything else is kept conservatively.
    /// [`TEXT_LABEL`] is always treated as known.
    pub known_labels: HashSet<String>,
}

impl PathAutomaton {
    /// Runs the automaton over `path`, returning `(on_path, in_subtree)` in
    /// a single simulation — the streaming hot path uses this so each start
    /// tag pays one pass, not one per flag.
    pub fn classify_path(&self, path: &[String]) -> (bool, bool) {
        self.classify(path, None)
    }

    /// Runs the automaton over `path` (plus an optional extra trailing
    /// label), returning `(on_path, in_subtree)` for the extended path.
    fn classify(&self, path: &[String], extra: Option<&str>) -> (bool, bool) {
        let mut states: Vec<u32> = Vec::new();
        let mut next: Vec<u32> = Vec::new();
        let mut in_subtree = false;
        let labels = path.iter().map(String::as_str).chain(extra).enumerate();
        for (i, label) in labels {
            next.clear();
            if i == 0 {
                for (l, st) in &self.starts {
                    if l == label && !next.contains(st) {
                        next.push(*st);
                    }
                }
            } else {
                for &st in &states {
                    for (l, t) in &self.transitions[st as usize] {
                        if l == label && !next.contains(t) {
                            next.push(*t);
                        }
                    }
                }
            }
            std::mem::swap(&mut states, &mut next);
            if states.is_empty() {
                return (false, in_subtree);
            }
            if !in_subtree && states.iter().any(|&s| self.subtree[s as usize]) {
                in_subtree = true;
            }
        }
        (
            in_subtree || states.iter().any(|&s| self.reaches_end[s as usize]),
            in_subtree,
        )
    }

    /// Returns `true` when the automaton can still reach an end after
    /// consuming `path` — the node may lead to needed nodes.
    pub fn on_path(&self, path: &[String]) -> bool {
        self.classify(path, None).0
    }

    /// Returns `true` when `path` lies inside a subtree that is kept whole.
    pub fn in_subtree(&self, path: &[String]) -> bool {
        self.classify(path, None).1
    }

    /// Returns `true` when the label is known to the schema the automaton
    /// was compiled from.
    pub fn is_known(&self, label: &str) -> bool {
        label == TEXT_LABEL || self.known_labels.contains(label)
    }

    /// Returns `true` when a text child of an element at `parent_path` is
    /// kept.
    pub fn keeps_text_child(&self, parent_path: &[String]) -> bool {
        let (on_path, in_subtree) = self.classify(parent_path, Some(TEXT_LABEL));
        on_path || in_subtree
    }

    /// Number of automaton states (size indicator for reports).
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Returns `true` when the automaton keeps nothing beyond the root.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
            || !self
                .reaches_end
                .iter()
                .chain(self.subtree.iter())
                .any(|&b| b)
    }
}

/// Incremental simulation of a [`PathAutomaton`] along a root-to-node path.
///
/// [`PathAutomaton::classify_path`] re-simulates the whole path from the
/// root — `O(depth · states)` per call, which the streaming parser used to
/// pay at *every* start tag. The cursor instead keeps one state-set frame
/// per open element: [`push`](Self::push) steps the top frame's states over
/// one label (`O(states · transitions-per-label)`, amortized `O(states)`)
/// and [`pop`](Self::pop) restores the parent frame when the element
/// closes. The flags it reports are exactly those of a full re-simulation
/// of the current path (`tests/streaming_xmark.rs` asserts the equivalence
/// on random walks).
#[derive(Clone, Debug, Default)]
pub struct AutomatonCursor {
    frames: Vec<CursorFrame>,
}

/// One open element's simulation state.
#[derive(Clone, Debug)]
struct CursorFrame {
    /// The automaton states reachable by the path down to this element
    /// (empty once the automaton has died on the path — deeper pushes stay
    /// dead, mirroring `classify`'s early return).
    states: Vec<u32>,
    /// Whether any consumed prefix landed on a subtree-keep state
    /// (monotone along the path).
    in_subtree: bool,
}

impl AutomatonCursor {
    /// A cursor at the document root (empty path).
    pub fn new() -> Self {
        AutomatonCursor::default()
    }

    /// Number of labels currently on the path.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Steps the cursor down into a child with the given label and returns
    /// the `(on_path, in_subtree)` flags of the extended path — identical
    /// to [`PathAutomaton::classify_path`] on the full path.
    pub fn push(&mut self, auto: &PathAutomaton, label: &str) -> (bool, bool) {
        let (parent_states, parent_in): (&[u32], bool) = match self.frames.last() {
            Some(f) => (&f.states, f.in_subtree),
            None => (&[], false),
        };
        let mut states: Vec<u32> = Vec::new();
        if self.frames.is_empty() {
            for (l, st) in &auto.starts {
                if l == label && !states.contains(st) {
                    states.push(*st);
                }
            }
        } else {
            for &st in parent_states {
                for (l, t) in &auto.transitions[st as usize] {
                    if l == label && !states.contains(t) {
                        states.push(*t);
                    }
                }
            }
        }
        if states.is_empty() {
            self.frames.push(CursorFrame {
                states,
                in_subtree: parent_in,
            });
            return (false, parent_in);
        }
        let in_subtree = parent_in || states.iter().any(|&s| auto.subtree[s as usize]);
        let on_path = in_subtree || states.iter().any(|&s| auto.reaches_end[s as usize]);
        self.frames.push(CursorFrame { states, in_subtree });
        (on_path, in_subtree)
    }

    /// Pushes a frame without simulating — used inside regions whose keep
    /// decision is already final (`Keep::All` / `Keep::Skip` subtrees, and
    /// below schema-unknown labels), where the flags are never consulted;
    /// the frame only keeps the stack aligned with the element depth.
    fn push_dead(&mut self) {
        let in_subtree = self.frames.last().map(|f| f.in_subtree).unwrap_or(false);
        self.frames.push(CursorFrame {
            states: Vec::new(),
            in_subtree,
        });
    }

    /// Steps back up out of the current element.
    pub fn pop(&mut self) {
        self.frames.pop();
    }

    /// The `(on_path, in_subtree)` flags of the current path — identical to
    /// [`PathAutomaton::classify_path`] on the labels pushed so far.
    pub fn flags(&self, auto: &PathAutomaton) -> (bool, bool) {
        match self.frames.last() {
            None => (false, false),
            Some(f) if f.states.is_empty() => (false, f.in_subtree),
            Some(f) => (
                f.in_subtree || f.states.iter().any(|&s| auto.reaches_end[s as usize]),
                f.in_subtree,
            ),
        }
    }

    /// Whether a text child of the current element is kept — identical to
    /// [`PathAutomaton::keeps_text_child`] on the current path, but `O(states)`
    /// instead of a full re-simulation.
    pub fn text_child_kept(&self, auto: &PathAutomaton) -> bool {
        let Some(top) = self.frames.last() else {
            return false;
        };
        if top.in_subtree {
            return true;
        }
        let mut any = false;
        let mut in_subtree = false;
        let mut reaches = false;
        for &st in &top.states {
            for (l, t) in &auto.transitions[st as usize] {
                if l == TEXT_LABEL {
                    any = true;
                    in_subtree |= auto.subtree[*t as usize];
                    reaches |= auto.reaches_end[*t as usize];
                }
            }
        }
        any && (in_subtree || reaches)
    }
}

/// Either way of describing a streamed projection: explicit label paths
/// (materialized chain sets) or the compact automaton (chain-DAGs over
/// recursive schemas, where enumeration would overflow any budget). The
/// streaming parser and [`project_spec`] treat both uniformly.
#[derive(Clone, Debug)]
pub enum Projection {
    /// Enumerated label paths.
    Paths(PathSpec),
    /// Automaton-described label paths.
    Automaton(PathAutomaton),
}

impl From<PathSpec> for Projection {
    fn from(spec: PathSpec) -> Projection {
        Projection::Paths(spec)
    }
}

impl From<PathAutomaton> for Projection {
    fn from(auto: PathAutomaton) -> Projection {
        Projection::Automaton(auto)
    }
}

impl Projection {
    /// See [`PathSpec::on_path`] / [`PathAutomaton::on_path`].
    pub fn on_path(&self, path: &[String]) -> bool {
        match self {
            Projection::Paths(s) => s.on_path(path),
            Projection::Automaton(a) => a.on_path(path),
        }
    }

    /// See [`PathSpec::in_subtree`] / [`PathAutomaton::in_subtree`].
    pub fn in_subtree(&self, path: &[String]) -> bool {
        match self {
            Projection::Paths(s) => s.in_subtree(path),
            Projection::Automaton(a) => a.in_subtree(path),
        }
    }

    /// Both keep flags — `(on_path, in_subtree)` — in one pass; for the
    /// automaton this runs a single simulation instead of one per flag.
    pub fn classify(&self, path: &[String]) -> (bool, bool) {
        match self {
            Projection::Paths(s) => (s.on_path(path), s.in_subtree(path)),
            Projection::Automaton(a) => a.classify_path(path),
        }
    }

    /// See [`PathSpec::is_known`] / [`PathAutomaton::is_known`].
    pub fn is_known(&self, label: &str) -> bool {
        match self {
            Projection::Paths(s) => s.is_known(label),
            Projection::Automaton(a) => a.is_known(label),
        }
    }

    /// See [`PathSpec::keeps_text_child`] /
    /// [`PathAutomaton::keeps_text_child`].
    pub fn keeps_text_child(&self, parent_path: &[String]) -> bool {
        match self {
            Projection::Paths(s) => s.keeps_text_child(parent_path),
            Projection::Automaton(a) => a.keeps_text_child(parent_path),
        }
    }

    /// Size indicator for reports (chains or automaton states).
    pub fn len(&self) -> usize {
        match self {
            Projection::Paths(s) => s.len(),
            Projection::Automaton(a) => a.len(),
        }
    }

    /// Returns `true` when the projection keeps nothing beyond the root.
    pub fn is_empty(&self) -> bool {
        match self {
            Projection::Paths(s) => s.is_empty(),
            Projection::Automaton(a) => a.is_empty(),
        }
    }
}

/// The keep decision for one element and, implicitly, its subtree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Keep {
    /// Keep the node and everything below without further checks.
    All,
    /// Keep the node; decide per child.
    Filter,
    /// Drop the node and everything below (still parsed and validated).
    Skip,
}

/// Decides the keep state of an element with label `tag` at `path` (its own
/// label included), given its parent's state.
fn decide(spec: &Projection, parent: Keep, path: &[String], tag: &str) -> Keep {
    match parent {
        Keep::All => Keep::All,
        Keep::Skip => Keep::Skip,
        Keep::Filter => {
            if !spec.is_known(tag) {
                return Keep::All;
            }
            let (on_path, in_subtree) = spec.classify(path);
            if in_subtree {
                Keep::All
            } else if on_path {
                Keep::Filter
            } else {
                Keep::Skip
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Configuration, stats, outcome
// ---------------------------------------------------------------------------

/// Configuration of a streaming parse.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Encode attributes as leading `@name` children (the §7 extension), as
    /// [`crate::parser::parse_xml_keep_attributes`] does. Off by default.
    pub keep_attributes: bool,
    /// When set, subtrees outside the projection are dropped during the
    /// parse.
    pub projection: Option<Projection>,
    /// Refill granularity of the sliding input window.
    pub chunk_size: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            keep_attributes: false,
            projection: None,
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }
}

impl StreamConfig {
    /// A config that projects the stream onto an explicit path spec while
    /// parsing.
    pub fn with_projection(spec: PathSpec) -> Self {
        StreamConfig {
            projection: Some(Projection::Paths(spec)),
            ..Default::default()
        }
    }

    /// A config that projects the stream onto any [`Projection`] (explicit
    /// paths or a compiled automaton) while parsing.
    pub fn with_projection_spec(spec: Projection) -> Self {
        StreamConfig {
            projection: Some(spec),
            ..Default::default()
        }
    }
}

/// Counters describing what a streaming parse did — in particular how much
/// memory it needed relative to the input size.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Total bytes pulled from the reader.
    pub bytes_read: usize,
    /// Largest size the sliding input window ever reached (the parser's own
    /// working memory; stays `O(chunk)` regardless of document size).
    pub peak_buffer_bytes: usize,
    /// Element nodes encountered in the input (kept or pruned).
    pub elements_parsed: usize,
    /// Significant text runs (and CDATA sections) encountered in the input.
    pub texts_parsed: usize,
    /// Element and text nodes actually materialized in the store
    /// (attribute-encoding `@name` nodes not counted).
    pub nodes_kept: usize,
    /// Nodes parsed but dropped by the projection.
    pub nodes_pruned: usize,
}

/// A parsed tree plus the stats of the parse that produced it.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    /// The (possibly projected) document.
    pub tree: Tree,
    /// What the parse did.
    pub stats: StreamStats,
}

// ---------------------------------------------------------------------------
// The sliding byte window
// ---------------------------------------------------------------------------

struct ByteStream<R: Read> {
    reader: R,
    buf: Vec<u8>,
    /// Index into `buf` of the next unconsumed byte.
    pos: usize,
    /// Absolute offset of `buf[0]` in the input.
    base: usize,
    eof: bool,
    chunk: usize,
    bytes_read: usize,
    peak_buffer: usize,
}

impl<R: Read> ByteStream<R> {
    fn new(reader: R, chunk: usize) -> Self {
        ByteStream {
            reader,
            buf: Vec::new(),
            pos: 0,
            base: 0,
            eof: false,
            chunk: chunk.max(16),
            bytes_read: 0,
            peak_buffer: 0,
        }
    }

    /// Absolute byte offset of the next unconsumed byte (for errors).
    fn abs(&self) -> usize {
        self.base + self.pos
    }

    fn io_error(&self, e: std::io::Error) -> ParseError {
        ParseError {
            message: format!("read error: {e}"),
            position: self.abs(),
        }
    }

    /// Makes at least `n` bytes available past `pos`, unless the input ends
    /// first. Returns the number of available bytes.
    fn ensure(&mut self, n: usize) -> Result<usize, ParseError> {
        while self.buf.len() - self.pos < n && !self.eof {
            // Compact the consumed prefix before growing the window.
            if self.pos > 0 {
                self.buf.drain(..self.pos);
                self.base += self.pos;
                self.pos = 0;
            }
            let old_len = self.buf.len();
            self.buf.resize(old_len + self.chunk, 0);
            match self.reader.read(&mut self.buf[old_len..]) {
                Ok(0) => {
                    self.buf.truncate(old_len);
                    self.eof = true;
                }
                Ok(k) => {
                    self.buf.truncate(old_len + k);
                    self.bytes_read += k;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                    self.buf.truncate(old_len);
                }
                Err(e) => {
                    self.buf.truncate(old_len);
                    return Err(self.io_error(e));
                }
            }
            self.peak_buffer = self.peak_buffer.max(self.buf.len());
        }
        Ok(self.buf.len() - self.pos)
    }

    fn peek(&mut self) -> Result<Option<u8>, ParseError> {
        self.ensure(1)?;
        Ok(self.buf.get(self.pos).copied())
    }

    fn bump(&mut self) -> Result<Option<u8>, ParseError> {
        let b = self.peek()?;
        if b.is_some() {
            self.pos += 1;
        }
        Ok(b)
    }

    /// Returns `true` when the unconsumed input starts with `s` (without
    /// consuming it).
    fn starts_with(&mut self, s: &str) -> Result<bool, ParseError> {
        let n = s.len();
        if self.ensure(n)? < n {
            return Ok(false);
        }
        Ok(&self.buf[self.pos..self.pos + n] == s.as_bytes())
    }

    /// Consumes `s` if the input starts with it.
    fn eat(&mut self, s: &str) -> Result<bool, ParseError> {
        if self.starts_with(s)? {
            self.pos += s.len();
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Consumes input up to and including `end`; consumes everything when
    /// `end` never occurs (mirroring the in-memory parser). When `collect` is
    /// given, the bytes before `end` are appended to it.
    fn consume_until(
        &mut self,
        end: &str,
        mut collect: Option<&mut Vec<u8>>,
    ) -> Result<(), ParseError> {
        loop {
            if self.eat(end)? {
                return Ok(());
            }
            match self.bump()? {
                None => return Ok(()),
                Some(b) => {
                    if let Some(out) = collect.as_deref_mut() {
                        out.push(b);
                    }
                }
            }
        }
    }

    fn skip_ws(&mut self) -> Result<(), ParseError> {
        while matches!(self.peek()?, Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The streaming parser
// ---------------------------------------------------------------------------

/// One open element on the parse stack. Tag names live as interned symbols
/// — no per-element `String` on the hot path.
struct Frame {
    sym: Sym,
    children: Vec<NodeId>,
    keep: Keep,
    /// This element is a *match root*: the projection switched from
    /// filtering to keeping the whole subtree at this node, so it is one of
    /// the nodes the projection was asked for (delivered to the sink when
    /// the element closes).
    match_root: bool,
}

struct StreamParser<'s, R: Read> {
    bs: ByteStream<R>,
    store: Store,
    keep_attributes: bool,
    projection: Option<Projection>,
    /// Root-to-current label path; maintained only for explicit
    /// [`Projection::Paths`] specs.
    path: Vec<String>,
    /// Incremental automaton state-set stack; maintained only for
    /// [`Projection::Automaton`] specs, so each start tag costs `O(states)`
    /// instead of re-simulating the whole root-to-node path.
    cursor: AutomatonCursor,
    stack: Vec<Frame>,
    stats: StreamStats,
    /// Reused buffer for the name token under the cursor (tag or attribute
    /// name); never allocated per token.
    scratch: Vec<u8>,
    /// Receives match roots (subtree-keep elements and matched text nodes)
    /// as they complete.
    sink: Option<&'s mut dyn ResultSink>,
}

/// Parses an XML document from a reader into a [`Tree`], ignoring attributes
/// — the streaming equivalent of [`crate::parser::parse_xml`].
pub fn parse_xml_reader<R: Read>(reader: R) -> Result<Tree, ParseError> {
    Ok(parse_xml_stream(reader, &StreamConfig::default())?.tree)
}

/// Parses an XML document from a reader with full control over attribute
/// keeping, projection and buffering.
pub fn parse_xml_stream<R: Read>(
    reader: R,
    config: &StreamConfig,
) -> Result<StreamOutcome, ParseError> {
    stream_impl(reader, config, None)
}

/// Like [`parse_xml_stream`], additionally delivering every *match root* to
/// `sink` the moment it completes: elements where the projection switched to
/// keeping the whole subtree (the nodes the projection was asked for) and
/// text nodes kept by an explicit text-path. With a counting or serializing
/// sink this answers projection queries without ever materializing the
/// result sequence.
pub fn parse_xml_stream_sink<R: Read>(
    reader: R,
    config: &StreamConfig,
    sink: &mut dyn ResultSink,
) -> Result<StreamOutcome, ParseError> {
    stream_impl(reader, config, Some(sink))
}

fn stream_impl<R: Read>(
    reader: R,
    config: &StreamConfig,
    sink: Option<&mut dyn ResultSink>,
) -> Result<StreamOutcome, ParseError> {
    let mut parser = StreamParser {
        bs: ByteStream::new(reader, config.chunk_size),
        store: Store::new(),
        keep_attributes: config.keep_attributes,
        projection: config.projection.clone(),
        path: Vec::new(),
        cursor: AutomatonCursor::new(),
        stack: Vec::new(),
        stats: StreamStats::default(),
        scratch: Vec::new(),
        sink,
    };
    parser.skip_prolog()?;
    let root = parser.parse_document_element()?;
    parser.skip_misc()?;
    if parser.bs.peek()?.is_some() {
        return Err(parser.error("trailing content after document element"));
    }
    parser.stats.bytes_read = parser.bs.bytes_read;
    parser.stats.peak_buffer_bytes = parser.bs.peak_buffer;
    parser.store.compact();
    Ok(StreamOutcome {
        tree: Tree::new(parser.store, root),
        stats: parser.stats,
    })
}

impl<R: Read> StreamParser<'_, R> {
    fn error(&self, msg: &str) -> ParseError {
        ParseError {
            message: msg.to_string(),
            position: self.bs.abs(),
        }
    }

    /// Skips the XML declaration, doctype, comments and whitespace before
    /// the document element.
    fn skip_prolog(&mut self) -> Result<(), ParseError> {
        loop {
            self.bs.skip_ws()?;
            if self.bs.eat("<?")? {
                self.bs.consume_until("?>", None)?;
            } else if self.bs.eat("<!--")? {
                self.bs.consume_until("-->", None)?;
            } else if self.bs.eat("<!DOCTYPE")? || self.bs.eat("<!doctype")? {
                // Skip a possibly bracketed internal subset.
                let mut depth = 0usize;
                while let Some(b) = self.bs.bump()? {
                    match b {
                        b'[' => depth += 1,
                        b']' => depth = depth.saturating_sub(1),
                        b'>' if depth == 0 => break,
                        _ => {}
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    /// Skips comments, processing instructions and whitespace after the
    /// document element.
    fn skip_misc(&mut self) -> Result<(), ParseError> {
        loop {
            self.bs.skip_ws()?;
            if self.bs.eat("<!--")? {
                self.bs.consume_until("-->", None)?;
            } else if self.bs.eat("<?")? {
                self.bs.consume_until("?>", None)?;
            } else {
                return Ok(());
            }
        }
    }

    /// Reads the name token under the cursor into the reused scratch buffer
    /// — no allocation per token.
    fn parse_name_scratch(&mut self) -> Result<(), ParseError> {
        self.scratch.clear();
        while let Some(b) = self.bs.peek()? {
            if is_name_byte(b) {
                self.scratch.push(b);
                self.bs.pos += 1;
            } else {
                break;
            }
        }
        if self.scratch.is_empty() {
            return Err(self.error("expected a name"));
        }
        Ok(())
    }

    /// The scratch buffer as a name string (name bytes are always ASCII).
    fn scratch_str(&self) -> &str {
        std::str::from_utf8(&self.scratch).expect("name bytes are ASCII")
    }

    /// Consumes attributes up to (but not including) `>` or `/>`. The pairs
    /// are collected only when `wanted` (i.e. the element is kept and
    /// attribute keeping is on); otherwise they are validated and discarded.
    fn parse_attributes(&mut self, wanted: bool) -> Result<Vec<(String, String)>, ParseError> {
        let mut attrs = Vec::new();
        loop {
            self.bs.skip_ws()?;
            match self.bs.peek()? {
                Some(b'>') | Some(b'/') | None => return Ok(attrs),
                _ => {
                    self.parse_name_scratch()?;
                    let name = wanted.then(|| self.scratch_str().to_string());
                    self.bs.skip_ws()?;
                    let mut value = Vec::new();
                    if self.bs.peek()? == Some(b'=') {
                        self.bs.pos += 1;
                        self.bs.skip_ws()?;
                        match self.bs.peek()? {
                            Some(q @ (b'"' | b'\'')) => {
                                self.bs.pos += 1;
                                while let Some(b) = self.bs.bump()? {
                                    if b == q {
                                        break;
                                    }
                                    value.push(b);
                                }
                            }
                            _ => return Err(self.error("expected quoted attribute value")),
                        }
                    }
                    if let Some(name) = name {
                        let value = String::from_utf8_lossy(&value).into_owned();
                        attrs.push((name, decode_entities(&value)));
                    }
                }
            }
        }
    }

    /// The keep state of the enclosing element ([`Keep::Filter`] at the
    /// document root so the root is always kept, as in [`crate::project`]).
    fn parent_keep(&self) -> Keep {
        self.stack.last().map(|f| f.keep).unwrap_or(Keep::Filter)
    }

    /// Pushes the tag in the scratch buffer onto the projection tracking
    /// state and decides the keep state of the element about to start.
    /// Explicit path specs re-classify the materialized label path; the
    /// automaton steps its incremental state-set stack one label
    /// (`O(states)` instead of re-simulating the whole root-to-node path).
    /// The document element is never skipped.
    fn enter_element(&mut self) -> Keep {
        let parent = self.parent_keep();
        let keep = match &self.projection {
            None => Keep::Filter,
            Some(spec @ Projection::Paths(_)) => {
                self.path.push(
                    std::str::from_utf8(&self.scratch)
                        .expect("ASCII")
                        .to_string(),
                );
                let tag = self.path.last().expect("just pushed");
                decide(spec, parent, &self.path, tag)
            }
            Some(Projection::Automaton(auto)) => match parent {
                Keep::All | Keep::Skip => {
                    self.cursor.push_dead();
                    parent
                }
                Keep::Filter => {
                    let tag = std::str::from_utf8(&self.scratch).expect("ASCII");
                    if !auto.is_known(tag) {
                        self.cursor.push_dead();
                        Keep::All
                    } else {
                        let (on_path, in_subtree) = self.cursor.push(auto, tag);
                        if in_subtree {
                            Keep::All
                        } else if on_path {
                            Keep::Filter
                        } else {
                            Keep::Skip
                        }
                    }
                }
            },
        };
        if self.stack.is_empty() && keep == Keep::Skip {
            Keep::Filter
        } else {
            keep
        }
    }

    /// Pops the projection tracking state when an element closes.
    fn exit_element(&mut self) {
        match &self.projection {
            None => {}
            Some(Projection::Paths(_)) => {
                self.path.pop();
            }
            Some(Projection::Automaton(_)) => self.cursor.pop(),
        }
    }

    /// Parses one element start tag (the leading `<` not yet consumed).
    /// Returns the completed node for self-closing elements, `None` when a
    /// frame was pushed (or the element is being skipped).
    fn parse_open_tag(&mut self) -> Result<Option<Option<NodeId>>, ParseError> {
        self.bs.pos += 1; // consume '<'
        self.parse_name_scratch()?;
        self.stats.elements_parsed += 1;
        let parent = self.parent_keep();
        let keep = self.enter_element();
        // The projection switched from filtering to whole-subtree keeping
        // here: this element is one of the nodes the projection asked for.
        let match_root = keep == Keep::All && parent == Keep::Filter;
        let name = std::str::from_utf8(&self.scratch).expect("name bytes are ASCII");
        let Some(sym) = self.store.try_intern(name) else {
            return Err(self.error(TOO_MANY_NAMES));
        };
        let wanted = keep != Keep::Skip;
        let attrs = self.parse_attributes(wanted && self.keep_attributes)?;
        match self.bs.peek()? {
            Some(b'/') => {
                self.bs.pos += 1;
                if self.bs.peek()? != Some(b'>') {
                    return Err(self.error("expected '>' after '/'"));
                }
                self.bs.pos += 1;
                self.exit_element();
                if wanted {
                    let children = self.attribute_children(attrs)?;
                    self.stats.nodes_kept += 1;
                    let node = self.store.new_element_sym(sym, children);
                    if match_root {
                        if let Some(sink) = self.sink.as_deref_mut() {
                            sink.push(&self.store, node);
                        }
                    }
                    Ok(Some(Some(node)))
                } else {
                    self.stats.nodes_pruned += 1;
                    Ok(Some(None))
                }
            }
            Some(b'>') => {
                self.bs.pos += 1;
                let children = if wanted {
                    self.attribute_children(attrs)?
                } else {
                    Vec::new()
                };
                self.stack.push(Frame {
                    sym,
                    children,
                    keep,
                    match_root,
                });
                Ok(None)
            }
            _ => Err(self.error("expected '>' or '/>'")),
        }
    }

    /// [`attribute_children`], failing when an `@name` overflows the symbol
    /// table.
    fn attribute_children(
        &mut self,
        attrs: Vec<(String, String)>,
    ) -> Result<Vec<NodeId>, ParseError> {
        attribute_children(&mut self.store, attrs, self.keep_attributes)
            .ok_or_else(|| self.error(TOO_MANY_NAMES))
    }

    /// Parses one closing tag (the leading `</` already consumed), pops the
    /// frame and returns the completed node (`None` when skipped).
    fn parse_close_tag(&mut self) -> Result<Option<NodeId>, ParseError> {
        self.parse_name_scratch()?;
        let frame = self.stack.pop().expect("close tag outside any element");
        // The open tag interned its name, so a matching close tag must
        // already be in the table — symbol comparison, no allocation.
        if self.store.symbols().lookup(self.scratch_str()) != Some(frame.sym) {
            return Err(self.error(&format!(
                "mismatched closing tag: expected </{}>, found </{}>",
                self.store.symbols().name(frame.sym),
                self.scratch_str()
            )));
        }
        self.bs.skip_ws()?;
        if self.bs.peek()? != Some(b'>') {
            return Err(self.error("expected '>' in closing tag"));
        }
        self.bs.pos += 1;
        self.exit_element();
        if frame.keep == Keep::Skip {
            self.stats.nodes_pruned += 1;
            Ok(None)
        } else {
            self.stats.nodes_kept += 1;
            let node = self.store.new_element_sym(frame.sym, frame.children);
            if frame.match_root {
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.push(&self.store, node);
                }
            }
            Ok(Some(node))
        }
    }

    /// Attaches a completed child node to the innermost open element.
    fn attach(&mut self, node: Option<NodeId>) {
        if let (Some(node), Some(frame)) = (node, self.stack.last_mut()) {
            if frame.keep != Keep::Skip {
                frame.children.push(node);
            }
        }
    }

    /// Whether a text node in the current position would be kept.
    fn text_wanted(&self) -> bool {
        match self.parent_keep() {
            Keep::All => true,
            Keep::Skip => false,
            Keep::Filter => match &self.projection {
                None => true,
                Some(spec @ Projection::Paths(_)) => spec.keeps_text_child(&self.path),
                Some(Projection::Automaton(auto)) => self.cursor.text_child_kept(auto),
            },
        }
    }

    /// Parses the document element (and everything inside it), returning its
    /// node.
    fn parse_document_element(&mut self) -> Result<NodeId, ParseError> {
        self.bs.skip_ws()?;
        if self.bs.peek()? != Some(b'<') {
            return Err(self.error("expected '<'"));
        }
        if let Some(done) = self.parse_open_tag()? {
            // A self-closing document element; the root is never skipped.
            return Ok(done.expect("document element is always kept"));
        }
        loop {
            if self.bs.eat("</")? {
                let node = self.parse_close_tag()?;
                if self.stack.is_empty() {
                    return Ok(node.expect("document element is always kept"));
                }
                self.attach(node);
            } else if self.bs.eat("<!--")? {
                self.bs.consume_until("-->", None)?;
            } else if self.bs.eat("<?")? {
                self.bs.consume_until("?>", None)?;
            } else if self.bs.eat("<![CDATA[")? {
                let wanted = self.text_wanted();
                self.stats.texts_parsed += 1;
                let mut raw = Vec::new();
                self.bs.consume_until("]]>", wanted.then_some(&mut raw))?;
                if wanted {
                    let text = String::from_utf8_lossy(&raw).into_owned();
                    self.emit_text(&text);
                } else {
                    self.stats.nodes_pruned += 1;
                }
            } else if self.bs.peek()? == Some(b'<') {
                let completed = self.parse_open_tag()?;
                if let Some(node) = completed {
                    self.attach(node);
                }
            } else if self.bs.peek()?.is_none() {
                let tag = self
                    .stack
                    .last()
                    .map(|f| self.store.symbols().name(f.sym))
                    .unwrap_or_default();
                return Err(self.error(&format!("unexpected end of input inside <{tag}>")));
            } else {
                self.parse_text_run()?;
            }
        }
    }

    /// Parses a run of character data up to the next `<` (or EOF).
    /// Whitespace-only runs are ignored, as in the in-memory parser.
    fn parse_text_run(&mut self) -> Result<(), ParseError> {
        let wanted = self.text_wanted();
        let mut raw = Vec::new();
        while let Some(b) = self.bs.peek()? {
            if b == b'<' {
                break;
            }
            raw.push(b);
            self.bs.pos += 1;
        }
        let text = String::from_utf8_lossy(&raw).into_owned();
        if text.trim().is_empty() {
            return Ok(());
        }
        self.stats.texts_parsed += 1;
        if wanted {
            self.emit_text(&decode_entities(&text));
        } else {
            self.stats.nodes_pruned += 1;
        }
        Ok(())
    }

    /// Materializes a kept text node, delivers it to the sink when it is a
    /// direct projection match (an explicit text-path under a filtering
    /// parent — not text inside an already-matched subtree), and attaches it.
    fn emit_text(&mut self, text: &str) {
        self.stats.nodes_kept += 1;
        let node = self.store.new_text(text);
        if self.projection.is_some() && self.parent_keep() == Keep::Filter {
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.push(&self.store, node);
            }
        }
        self.attach(Some(node));
    }
}

// ---------------------------------------------------------------------------
// The in-memory reference for streamed projection
// ---------------------------------------------------------------------------

/// Applies a [`PathSpec`] to an already-parsed tree with exactly the
/// top-down semantics of the streaming parser — the reference the
/// streamed-projection property tests compare against.
pub fn project_paths(tree: &Tree, spec: &PathSpec) -> Tree {
    project_spec(tree, &Projection::Paths(spec.clone()))
}

/// Applies any [`Projection`] (explicit paths or a compiled automaton) to an
/// already-parsed tree with exactly the top-down semantics of the streaming
/// parser.
pub fn project_spec(tree: &Tree, spec: &Projection) -> Tree {
    let mut store = Store::new();
    let mut path: Vec<String> = Vec::new();
    let root = copy_filtered(
        tree,
        tree.root,
        spec,
        Keep::Filter,
        true,
        &mut path,
        &mut store,
    )
    .expect("the root is always kept");
    Tree::new(store, root)
}

fn copy_filtered(
    tree: &Tree,
    node: NodeId,
    spec: &Projection,
    parent: Keep,
    is_root: bool,
    path: &mut Vec<String>,
    dst: &mut Store,
) -> Option<NodeId> {
    match tree.store.tag(node) {
        None => {
            // A text node.
            let keep = match parent {
                Keep::All => true,
                Keep::Skip => false,
                Keep::Filter => spec.keeps_text_child(path),
            };
            keep.then(|| dst.new_text(tree.store.text_value(node).unwrap_or_default()))
        }
        Some(tag) => {
            let tag = tag.to_string();
            path.push(tag.clone());
            let mut keep = decide(spec, parent, path, &tag);
            if is_root && keep == Keep::Skip {
                keep = Keep::Filter;
            }
            let out = if keep == Keep::Skip {
                None
            } else {
                let children: Vec<NodeId> = tree
                    .store
                    .children_iter(node)
                    .filter_map(|c| copy_filtered(tree, c, spec, keep, false, path, dst))
                    .collect();
                Some(dst.new_element(tag, children))
            };
            path.pop();
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_xml, parse_xml_keep_attributes};
    use std::io::Cursor;

    fn stream(input: &str) -> Result<Tree, ParseError> {
        parse_xml_reader(Cursor::new(input.as_bytes().to_vec()))
    }

    /// A reader that hands out one byte at a time, exercising every
    /// token-across-chunk boundary.
    struct TrickleReader<'a> {
        data: &'a [u8],
        pos: usize,
    }

    impl Read for TrickleReader<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() || out.is_empty() {
                return Ok(0);
            }
            out[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn too_many_distinct_names_is_a_parse_error() {
        let xml = crate::parser::tests::many_names_document(70_000);
        let err =
            parse_xml_stream(Cursor::new(xml.into_bytes()), &StreamConfig::default()).unwrap_err();
        assert_eq!(err.message, TOO_MANY_NAMES);
        let ok = crate::parser::tests::many_names_document(crate::MAX_SYMBOLS - 2);
        assert!(stream(&ok).is_ok());
    }

    #[test]
    fn agrees_with_in_memory_parser_on_basics() {
        for input in [
            "<doc><a><c/></a><a><c/></a><b><c/></b><a><c/></a></doc>",
            "<a>hello &amp; &lt;world&gt;</a>",
            "<a><![CDATA[1 < 2]]></a>",
            "<a/>",
            r#"<?xml version="1.0"?><!DOCTYPE doc [ <!ELEMENT doc (a)> ]>
               <!-- c --><doc id="1"><a x='2'/><!-- inner --></doc>"#,
            "<r><x>1 &amp; 2</x><y/></r><!-- trailing -->",
        ] {
            let expected = parse_xml(input).unwrap();
            let got = stream(input).unwrap();
            assert!(expected.value_equiv(&got), "{input}");
        }
    }

    #[test]
    fn rejects_what_the_in_memory_parser_rejects_at_the_same_position() {
        for input in [
            "<a></b>",
            "<a/><b/>",
            "<a>",
            "plain",
            "<a =></a>",
            "<a x=nope/>",
            "<a><b></a></b>",
        ] {
            let expected = parse_xml(input).expect_err(input);
            let got = stream(input).expect_err(input);
            assert_eq!(expected.message, got.message, "{input}");
            assert_eq!(expected.position, got.position, "{input}");
        }
    }

    #[test]
    fn one_byte_reads_still_parse() {
        let input = "<doc><a attr=\"v\"><c/></a><b>text &amp; more</b></doc>";
        let expected = parse_xml(input).unwrap();
        let outcome = parse_xml_stream(
            TrickleReader {
                data: input.as_bytes(),
                pos: 0,
            },
            &StreamConfig {
                chunk_size: 16,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(expected.value_equiv(&outcome.tree));
        assert_eq!(outcome.stats.bytes_read, input.len());
    }

    #[test]
    fn keep_attributes_matches_in_memory_encoding() {
        let input = r#"<item id="7" lang='en'><name>x &amp; y</name><edge from="a"/></item>"#;
        let expected = parse_xml_keep_attributes(input).unwrap();
        let got = parse_xml_stream(
            Cursor::new(input.as_bytes().to_vec()),
            &StreamConfig {
                keep_attributes: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(expected.value_equiv(&got.tree));
    }

    #[test]
    fn peak_buffer_stays_small_on_large_inputs() {
        // ~200 KiB of flat elements parsed through a 1 KiB window.
        let mut input = String::from("<doc>");
        for i in 0..10_000 {
            input.push_str(&format!("<item>v{i}</item>"));
        }
        input.push_str("</doc>");
        let outcome = parse_xml_stream(
            Cursor::new(input.as_bytes().to_vec()),
            &StreamConfig {
                chunk_size: 1024,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.tree.size(), 20_001);
        assert!(
            outcome.stats.peak_buffer_bytes <= 4 * 1024,
            "window grew to {}",
            outcome.stats.peak_buffer_bytes
        );
        assert_eq!(outcome.stats.bytes_read, input.len());
    }

    fn spec(paths: &[&[&str]], subtrees: &[&[&str]], known: &[&str]) -> PathSpec {
        let to_chain = |c: &&[&str]| c.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        PathSpec {
            keep_paths: paths.iter().map(to_chain).collect(),
            keep_subtrees: subtrees.iter().map(to_chain).collect(),
            known_labels: known.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn streamed_projection_drops_pruned_subtrees() {
        let input =
            "<bib><book><title>t1</title><price>9</price></book><junk><x/><x/></junk></bib>";
        let s = spec(
            &[&["bib", "book", "title", "#text"]],
            &[],
            &["bib", "book", "title", "price", "junk", "x"],
        );
        let outcome = parse_xml_stream(
            Cursor::new(input.as_bytes().to_vec()),
            &StreamConfig::with_projection(s.clone()),
        )
        .unwrap();
        let expected = project_paths(&parse_xml(input).unwrap(), &s);
        assert!(outcome.tree.value_equiv(&expected));
        let xml = outcome.tree.to_xml();
        assert!(xml.contains("<title>t1</title>"), "{xml}");
        assert!(!xml.contains("junk") && !xml.contains("price"), "{xml}");
        assert!(outcome.stats.nodes_pruned > 0);
        assert_eq!(
            outcome.stats.nodes_kept + outcome.stats.nodes_pruned,
            outcome.stats.elements_parsed + outcome.stats.texts_parsed
        );
    }

    #[test]
    fn streamed_projection_keeps_subtrees_whole_and_unknown_labels() {
        let input =
            "<bib><book><title>t</title><price>9</price></book><extra><blob>x</blob></extra></bib>";
        let s = spec(
            &[&["bib", "book"]],
            &[&["bib", "book"]],
            &["bib", "book", "title", "price"],
        );
        let outcome = parse_xml_stream(
            Cursor::new(input.as_bytes().to_vec()),
            &StreamConfig::with_projection(s.clone()),
        )
        .unwrap();
        let expected = project_paths(&parse_xml(input).unwrap(), &s);
        assert!(outcome.tree.value_equiv(&expected));
        let xml = outcome.tree.to_xml();
        // The whole book subtree survives, and the unknown extra region is
        // kept conservatively.
        assert!(xml.contains("<price>9</price>"), "{xml}");
        assert!(xml.contains("<blob>x</blob>"), "{xml}");
    }

    #[test]
    fn empty_spec_projects_to_the_root_only() {
        let input = "<doc><a><c/></a><b/></doc>";
        let s = spec(&[], &[], &["doc", "a", "b", "c"]);
        let outcome = parse_xml_stream(
            Cursor::new(input.as_bytes().to_vec()),
            &StreamConfig::with_projection(s.clone()),
        )
        .unwrap();
        assert_eq!(outcome.tree.size(), 1);
        assert_eq!(outcome.tree.root_tag(), Some("doc"));
        assert!(outcome
            .tree
            .value_equiv(&project_paths(&parse_xml(input).unwrap(), &s)));
    }

    /// A tiny automaton equivalent to the spec
    /// `keep_paths = {bib.book.title.#text}, keep_subtrees = {bib.extra}`:
    /// states 0=bib, 1=book, 2=title, 3=#text-end, 4=extra (subtree).
    fn small_automaton() -> PathAutomaton {
        PathAutomaton {
            starts: vec![("bib".to_string(), 0)],
            transitions: vec![
                vec![("book".to_string(), 1), ("extra".to_string(), 4)],
                vec![("title".to_string(), 2)],
                vec![(TEXT_LABEL.to_string(), 3)],
                vec![],
                vec![],
            ],
            reaches_end: vec![true, true, true, true, true],
            subtree: vec![false, false, false, false, true],
            known_labels: ["bib", "book", "title", "price", "extra"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }

    #[test]
    fn automaton_classification_mirrors_spec_semantics() {
        let a = small_automaton();
        let p = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert!(a.on_path(&p(&["bib"])));
        assert!(a.on_path(&p(&["bib", "book", "title"])));
        assert!(!a.on_path(&p(&["bib", "book", "price"])), "dead branch");
        assert!(!a.on_path(&p(&["book"])), "wrong root label");
        assert!(a.in_subtree(&p(&["bib", "extra"])));
        assert!(a.in_subtree(&p(&["bib", "extra", "anything"])));
        assert!(!a.in_subtree(&p(&["bib", "book"])));
        assert!(a.keeps_text_child(&p(&["bib", "book", "title"])));
        assert!(!a.keeps_text_child(&p(&["bib", "book"])));
        assert!(a.keeps_text_child(&p(&["bib", "extra", "x"])), "in subtree");
        assert!(a.is_known("price") && !a.is_known("junk"));
        assert!(!a.is_empty());
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn streamed_automaton_projection_matches_reference_and_spec() {
        let input = "<bib><book><title>t1</title><price>9</price></book>\
                     <extra><blob>x</blob></extra><book><title>t2</title></book></bib>";
        let auto = small_automaton();
        let equivalent_spec = spec(
            &[&["bib", "book", "title", "#text"]],
            &[&["bib", "extra"]],
            &["bib", "book", "title", "price", "extra"],
        );
        let outcome = parse_xml_stream(
            Cursor::new(input.as_bytes().to_vec()),
            &StreamConfig::with_projection_spec(Projection::Automaton(auto.clone())),
        )
        .unwrap();
        let tree = parse_xml(input).unwrap();
        // Streaming ≡ in-memory reference for the automaton...
        let reference = project_spec(&tree, &Projection::Automaton(auto));
        assert!(outcome.tree.value_equiv(&reference));
        // ... and the automaton ≡ the enumerated spec it encodes. The blob
        // label is unknown to both, kept conservatively inside the subtree.
        let via_spec = project_paths(&tree, &equivalent_spec);
        assert!(outcome.tree.value_equiv(&via_spec));
        let xml = outcome.tree.to_xml();
        assert!(xml.contains("<title>t1</title>"), "{xml}");
        assert!(xml.contains("<blob>x</blob>"), "{xml}");
        assert!(!xml.contains("price"), "{xml}");
        assert!(outcome.stats.nodes_pruned > 0);
    }

    #[test]
    fn recursive_automaton_keeps_unbounded_paths() {
        // keep a.b.a.b… — impossible to enumerate as a PathSpec.
        let auto = PathAutomaton {
            starts: vec![("a".to_string(), 0)],
            transitions: vec![vec![("b".to_string(), 1)], vec![("a".to_string(), 0)]],
            reaches_end: vec![true, true],
            subtree: vec![false, false],
            known_labels: ["a", "b", "c"].iter().map(|s| s.to_string()).collect(),
        };
        let input = "<a><b><a><b><a/></b></a></b><c/></a>";
        let outcome = parse_xml_stream(
            Cursor::new(input.as_bytes().to_vec()),
            &StreamConfig::with_projection_spec(Projection::Automaton(auto)),
        )
        .unwrap();
        let xml = outcome.tree.to_xml();
        assert_eq!(xml, "<a><b><a><b><a/></b></a></b></a>");
        assert_eq!(outcome.stats.nodes_pruned, 1, "only <c/> is dropped");
    }

    #[test]
    fn sink_receives_match_roots_and_matched_text() {
        use crate::sink::{CollectSink, CountSink, ResultSink, SerializeSink};
        let input = "<bib><book><title>t1</title><price>9</price></book>\
                     <extra><blob>x</blob></extra><book><title>t2</title></book></bib>";
        let config = StreamConfig::with_projection_spec(Projection::Automaton(small_automaton()));
        // The automaton keeps bib.book.title.#text (matched text) and the
        // bib.extra subtree (match root).
        let mut collect = CollectSink::new();
        let outcome = parse_xml_stream_sink(
            Cursor::new(input.as_bytes().to_vec()),
            &config,
            &mut collect,
        )
        .unwrap();
        let store = &outcome.tree.store;
        let matches = collect.into_nodes();
        assert_eq!(matches.len(), 3, "t1, extra subtree, t2");
        assert_eq!(store.text_value(matches[0]), Some("t1"));
        assert_eq!(store.tag(matches[1]), Some("extra"));
        assert_eq!(store.text_value(matches[2]), Some("t2"));
        // Counting and serializing sinks see the same delivery sequence
        // without retaining node ids.
        let mut count = CountSink::new();
        parse_xml_stream_sink(Cursor::new(input.as_bytes().to_vec()), &config, &mut count).unwrap();
        assert_eq!(count.count(), 3);
        let mut ser = SerializeSink::new(Vec::new());
        parse_xml_stream_sink(Cursor::new(input.as_bytes().to_vec()), &config, &mut ser).unwrap();
        let lines = String::from_utf8(ser.into_inner().unwrap()).unwrap();
        assert_eq!(lines, "t1\n<extra><blob>x</blob></extra>\nt2\n");
        // The plain (sink-free) entry point parses identically.
        let plain = parse_xml_stream(Cursor::new(input.as_bytes().to_vec()), &config).unwrap();
        assert!(plain.tree.value_equiv(&outcome.tree));
        // Without a projection nothing is delivered: there is no match
        // notion to stream.
        let mut none = CollectSink::new();
        parse_xml_stream_sink(
            Cursor::new(input.as_bytes().to_vec()),
            &StreamConfig::default(),
            &mut none,
        )
        .unwrap();
        assert!(none.nodes().is_empty());
        // Exercise the trait-object path explicitly.
        let sink: &mut dyn ResultSink = &mut CountSink::new();
        parse_xml_stream_sink(Cursor::new(input.as_bytes().to_vec()), &config, sink).unwrap();
    }

    #[test]
    fn path_spec_prefix_logic() {
        let s = spec(
            &[&["a", "b", "c"]],
            &[&["a", "d"]],
            &["a", "b", "c", "d", "e"],
        );
        let p = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert!(s.on_path(&p(&["a"])));
        assert!(s.on_path(&p(&["a", "b"])));
        assert!(s.on_path(&p(&["a", "d"])));
        assert!(!s.on_path(&p(&["a", "e"])));
        assert!(s.in_subtree(&p(&["a", "d", "e"])));
        assert!(!s.in_subtree(&p(&["a", "b", "c"])));
        assert!(s.is_known("#text") && !s.is_known("zzz"));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }
}
