//! The XML parser: a pull parser over any [`std::io::Read`] source.
//!
//! The workspace never depends on an external XML library; this parser
//! covers exactly the subset of XML needed by the paper's data model (§2):
//! nested elements and text nodes. Attributes are accepted and ignored
//! unless asked for (the paper's core model has no attributes; §7 notes the
//! extension is routine), comments and processing instructions are skipped,
//! and the five predefined entities are decoded.
//!
//! Bytes are pulled from the reader in fixed-size chunks into a small
//! sliding window, tokens are scanned as they complete, and the [`Tree`] is
//! built element by element with an explicit stack, so nesting depth costs
//! heap, never call stack, and memory stays `O(tree + chunk)`.
//! [`crate::parse_xml`] runs the same parser over an in-memory string.
//!
//! On top of plain parsing, the parser supports **streamed projection**
//! (paper §3.4): a [`PathAutomaton`] describes, over root-to-node label
//! paths, which regions of the document a query may need; subtrees outside
//! it are recognized *during* the parse and dropped before a single node is
//! allocated for them. This turns projection savings into *peak memory*
//! savings, not just node-count savings — the pruned subtrees never exist.
//! [`project_spec`] applies the identical top-down decisions to an
//! already-parsed tree; `qui-core`'s `ChainProjector` compiles a query's
//! chain-DAGs into the automaton.

use crate::decode::{attribute_children, decode_entities, is_name_byte};
use crate::node::NodeId;
use crate::parser::{ParseError, TOO_MANY_NAMES};
use crate::sink::ResultSink;
use crate::store::Store;
use crate::symbols::Sym;
use crate::tree::Tree;
use std::collections::HashSet;
use std::io::Read;

/// The label under which text nodes participate in label paths (mirrors
/// `qui-schema`'s `TEXT_NAME`, which this crate cannot depend on).
pub const TEXT_LABEL: &str = "#text";

/// Refill granularity of the sliding input window.
pub const CHUNK_SIZE: usize = 8 * 1024;

// ---------------------------------------------------------------------------
// Path automata — implicit label-path projections
// ---------------------------------------------------------------------------

/// A projection whose kept root-to-node label paths are described by a
/// small automaton.
///
/// On recursive schemas the set of kept paths can be huge or infinite (a
/// descendant-axis view over a recursive clique keeps `a.b.a.b…` to any
/// depth), so enumerating them is hopeless — but the *decision* "may this
/// path lead to a needed node?" only needs the automaton: `qui-core`
/// compiles its chain-DAGs (one state per schema type, transitions labeled
/// with the child's label) into this type. A node at label path `p` (text
/// nodes contributing [`TEXT_LABEL`]) is kept iff
///
/// * `p` is *in-subtree*: some prefix of `p` lands on a state flagged
///   subtree-keep (returned elements embody their descendants), or
/// * `p` is *on-path*: the automaton can still reach an end state after
///   consuming `p` (the node may lead to needed nodes — descend), or
/// * its own label is not in `known_labels` (the schema says nothing about
///   it, so it is kept, together with its whole subtree).
///
/// Everything else is pruned with its entire subtree. Both flags are
/// monotone along root-to-leaf paths, which is exactly what lets a
/// streaming parser decide *keep / descend / drop whole subtree* the moment
/// it sees a start tag. Unknown labels nested strictly inside pruned regions
/// are pruned with them (nothing looks inside a dropped subtree); valid
/// documents have no unknown labels, so this only matters for documents
/// that do not conform to the schema the automaton came from.
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
    /// Runs the automaton over `path` from the root, returning `(on_path,
    /// in_subtree)` — the reference that [`AutomatonCursor`]'s incremental
    /// steps are checked against.
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

    /// Returns `true` when the label is known to the schema the automaton
    /// was compiled from.
    pub fn is_known(&self, label: &str) -> bool {
        label == TEXT_LABEL || self.known_labels.contains(label)
    }

    /// Returns `true` when a text child of an element at `parent_path` is
    /// kept (a full re-simulation; see [`AutomatonCursor::text_child_kept`]).
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

/// Steps `cursor` down into an element labeled `tag` whose parent is in
/// state `parent`, and decides the element's keep state. Regions whose
/// decision is already final (`All` / `Skip`, and below schema-unknown
/// labels) push a dead frame without simulating. The document element
/// (`is_root`) is never skipped.
fn enter(
    auto: &PathAutomaton,
    cursor: &mut AutomatonCursor,
    parent: Keep,
    tag: &str,
    is_root: bool,
) -> Keep {
    if parent != Keep::Filter {
        cursor.push_dead();
        return parent;
    }
    if !auto.is_known(tag) {
        cursor.push_dead();
        return Keep::All;
    }
    match cursor.push(auto, tag) {
        (_, true) => Keep::All,
        (true, false) => Keep::Filter,
        (false, false) if is_root => Keep::Filter,
        (false, false) => Keep::Skip,
    }
}

/// Whether a text child of an element in state `parent` is kept.
fn text_kept(auto: &PathAutomaton, cursor: &AutomatonCursor, parent: Keep) -> bool {
    match parent {
        Keep::All => true,
        Keep::Skip => false,
        Keep::Filter => cursor.text_child_kept(auto),
    }
}

// ---------------------------------------------------------------------------
// Configuration, stats, outcome
// ---------------------------------------------------------------------------

/// Configuration of a parse.
#[derive(Clone, Debug, Default)]
pub struct StreamConfig {
    /// Encode attributes as leading `@name` children (the §7 extension), as
    /// [`crate::parser::parse_xml_keep_attributes`] does. Off by default.
    pub keep_attributes: bool,
    /// When set, subtrees outside the projection are dropped during the
    /// parse.
    pub projection: Option<PathAutomaton>,
}

impl StreamConfig {
    /// A config that projects the stream onto a compiled automaton while
    /// parsing.
    pub fn with_projection(auto: PathAutomaton) -> Self {
        StreamConfig {
            projection: Some(auto),
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

fn is_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\n')
}

struct ByteStream<R: Read> {
    reader: R,
    buf: Vec<u8>,
    /// Index into `buf` of the next unconsumed byte.
    pos: usize,
    /// Absolute offset of `buf[0]` in the input.
    base: usize,
    eof: bool,
    bytes_read: usize,
    peak_buffer: usize,
}

impl<R: Read> ByteStream<R> {
    fn new(reader: R) -> Self {
        ByteStream {
            reader,
            buf: Vec::new(),
            pos: 0,
            base: 0,
            eof: false,
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
            self.buf.resize(old_len + CHUNK_SIZE, 0);
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
        if let Some(&b) = self.buf.get(self.pos) {
            return Ok(Some(b));
        }
        self.ensure(1)?;
        Ok(self.buf.get(self.pos).copied())
    }

    /// The byte after the next one, if the input has it.
    fn peek_second(&mut self) -> Result<Option<u8>, ParseError> {
        self.ensure(2)?;
        Ok(self.buf.get(self.pos + 1).copied())
    }

    /// Consumes `s` if the input starts with it.
    fn eat(&mut self, s: &str) -> Result<bool, ParseError> {
        let n = s.len();
        if self.ensure(n)? >= n && &self.buf[self.pos..self.pos + n] == s.as_bytes() {
            self.pos += n;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Length of the run of bytes satisfying `pred` that starts at `pos`.
    /// The run is not consumed: it stays whole in the window, at
    /// `buf[pos..pos + len]`, however many refills it spans.
    fn run_len(&mut self, pred: impl Fn(u8) -> bool) -> Result<usize, ParseError> {
        let mut len = 0;
        loop {
            let window = &self.buf[self.pos + len..];
            if let Some(k) = window.iter().position(|&b| !pred(b)) {
                return Ok(len + k);
            }
            len += window.len();
            if self.ensure(len + 1)? <= len {
                return Ok(len);
            }
        }
    }

    fn skip_ws(&mut self) -> Result<(), ParseError> {
        self.pos += self.run_len(is_ws)?;
        Ok(())
    }

    /// The offset from `pos` of the first occurrence of `end`, or `None`
    /// when the input ends first. Unless `keep`, the bytes that cannot
    /// start a match are consumed while searching, so the window stays one
    /// chunk wide.
    fn find(&mut self, end: &[u8], keep: bool) -> Result<Option<usize>, ParseError> {
        let mut from = 0;
        loop {
            let window = &self.buf[self.pos..];
            if let Some(k) = window[from..].windows(end.len()).position(|w| w == end) {
                return Ok(Some(from + k));
            }
            let tail = window.len().saturating_sub(end.len() - 1);
            if keep {
                from = tail;
            } else {
                self.pos += tail;
            }
            let have = self.buf.len() - self.pos;
            if self.ensure(have + 1)? <= have {
                return Ok(None);
            }
        }
    }

    /// Consumes input up to and including `end`, or all of it when `end`
    /// never occurs.
    fn skip_past(&mut self, end: &str) -> Result<(), ParseError> {
        self.pos = match self.find(end.as_bytes(), false)? {
            Some(k) => self.pos + k + end.len(),
            None => self.buf.len(),
        };
        Ok(())
    }

    /// [`skip_past`](Self::skip_past), returning the bytes before `end`.
    fn take_until(&mut self, end: &str) -> Result<&[u8], ParseError> {
        let found = self.find(end.as_bytes(), true)?;
        let start = self.pos;
        let (len, next) = match found {
            Some(k) => (k, start + k + end.len()),
            None => (self.buf.len() - start, self.buf.len()),
        };
        self.pos = next;
        Ok(&self.buf[start..start + len])
    }
}

// ---------------------------------------------------------------------------
// The parser
// ---------------------------------------------------------------------------

/// One open element on the parse stack. Its children so far sit on the
/// parser's shared child stack from `first` on.
struct Frame {
    sym: Sym,
    first: usize,
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
    projection: Option<PathAutomaton>,
    /// Incremental automaton state-set stack; maintained only under a
    /// projection, so each start tag costs `O(states)` instead of
    /// re-simulating the whole root-to-node path.
    cursor: AutomatonCursor,
    stack: Vec<Frame>,
    /// The completed children of every open element, innermost last.
    children: Vec<NodeId>,
    stats: StreamStats,
    /// Receives match roots (subtree-keep elements and matched text nodes)
    /// as they complete.
    sink: Option<&'s mut dyn ResultSink>,
}

/// Parses an XML document from a reader into a [`Tree`], ignoring
/// attributes.
pub fn parse_xml_reader<R: Read>(reader: R) -> Result<Tree, ParseError> {
    Ok(parse_xml_stream(reader, &StreamConfig::default())?.tree)
}

/// Parses an XML document from a reader with control over attribute keeping
/// and projection.
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
        bs: ByteStream::new(reader),
        store: Store::new(),
        keep_attributes: config.keep_attributes,
        projection: config.projection.clone(),
        cursor: AutomatonCursor::new(),
        stack: Vec::new(),
        children: Vec::new(),
        stats: StreamStats::default(),
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
                self.bs.skip_past("?>")?;
            } else if self.bs.eat("<!--")? {
                self.bs.skip_past("-->")?;
            } else if self.bs.eat("<!DOCTYPE")? || self.bs.eat("<!doctype")? {
                // Skip a possibly bracketed internal subset.
                let mut depth = 0usize;
                while let Some(b) = self.bs.peek()? {
                    self.bs.pos += 1;
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
                self.bs.skip_past("-->")?;
            } else if self.bs.eat("<?")? {
                self.bs.skip_past("?>")?;
            } else {
                return Ok(());
            }
        }
    }

    /// The length of the name under the cursor, which stays unconsumed at
    /// `bs.buf[bs.pos..]`; an error when there is none.
    fn name_len(&mut self) -> Result<usize, ParseError> {
        match self.bs.run_len(is_name_byte)? {
            0 => Err(self.error("expected a name")),
            n => Ok(n),
        }
    }

    /// The name of length `n` under the cursor (name bytes are ASCII).
    fn name(&self, n: usize) -> &str {
        std::str::from_utf8(&self.bs.buf[self.bs.pos..self.bs.pos + n]).expect("ASCII name")
    }

    /// Consumes attributes up to (but not including) `>` or `/>`. The pairs
    /// are collected only when `wanted` (i.e. the element is kept and
    /// attribute keeping is on); otherwise they are validated and discarded.
    fn parse_attributes(&mut self, wanted: bool) -> Result<Vec<(String, String)>, ParseError> {
        let mut attrs = Vec::new();
        loop {
            self.bs.skip_ws()?;
            if matches!(self.bs.peek()?, Some(b'>' | b'/') | None) {
                return Ok(attrs);
            }
            let n = self.name_len()?;
            let name = wanted.then(|| self.name(n).to_string());
            self.bs.pos += n;
            self.bs.skip_ws()?;
            let mut value = String::new();
            if self.bs.peek()? == Some(b'=') {
                self.bs.pos += 1;
                self.bs.skip_ws()?;
                let Some(q @ (b'"' | b'\'')) = self.bs.peek()? else {
                    return Err(self.error("expected quoted attribute value"));
                };
                self.bs.pos += 1;
                let len = self.bs.run_len(|b| b != q)?;
                if wanted {
                    let raw = &self.bs.buf[self.bs.pos..self.bs.pos + len];
                    value = decode_entities(&String::from_utf8_lossy(raw));
                }
                self.bs.pos += len;
                if self.bs.peek()?.is_some() {
                    self.bs.pos += 1; // the closing quote
                }
            }
            if let Some(name) = name {
                attrs.push((name, value));
            }
        }
    }

    /// The keep state of the enclosing element ([`Keep::Filter`] at the
    /// document root, which is always kept).
    fn parent_keep(&self) -> Keep {
        self.stack.last().map(|f| f.keep).unwrap_or(Keep::Filter)
    }

    /// Pops the projection cursor when an element closes.
    fn exit_element(&mut self) {
        if self.projection.is_some() {
            self.cursor.pop();
        }
    }

    /// Parses one element start tag (the leading `<` not yet consumed).
    /// Returns the completed node for self-closing elements, `None` when a
    /// frame was pushed (or the element is being skipped).
    fn parse_open_tag(&mut self) -> Result<Option<Option<NodeId>>, ParseError> {
        self.bs.pos += 1; // consume '<'
        let n = self.name_len()?;
        self.stats.elements_parsed += 1;
        let parent = self.parent_keep();
        // Not `self.name(n)`: the cursor is borrowed mutably alongside.
        let name = std::str::from_utf8(&self.bs.buf[self.bs.pos..self.bs.pos + n]).expect("ASCII");
        let keep = match &self.projection {
            None => Keep::Filter,
            Some(auto) => enter(auto, &mut self.cursor, parent, name, self.stack.is_empty()),
        };
        let sym = self.store.try_intern(name);
        self.bs.pos += n;
        let Some(sym) = sym else {
            return Err(self.error(TOO_MANY_NAMES));
        };
        // The projection switched from filtering to whole-subtree keeping
        // here: this element is one of the nodes the projection asked for.
        let match_root = keep == Keep::All && parent == Keep::Filter;
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
                if !wanted {
                    self.stats.nodes_pruned += 1;
                    return Ok(Some(None));
                }
                let children = self.attribute_children(attrs)?;
                let node = self.store.new_element_sym(sym, &children);
                self.complete(node, match_root);
                Ok(Some(Some(node)))
            }
            Some(b'>') => {
                self.bs.pos += 1;
                let first = self.children.len();
                if wanted {
                    let children = self.attribute_children(attrs)?;
                    self.children.extend(children);
                }
                self.stack.push(Frame {
                    sym,
                    first,
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

    /// Counts a kept node and delivers it to the sink when it is a match
    /// root.
    fn complete(&mut self, node: NodeId, match_root: bool) {
        self.stats.nodes_kept += 1;
        if match_root {
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.push(&self.store, node);
            }
        }
    }

    /// Parses one closing tag (the leading `</` already consumed), pops the
    /// frame and returns the completed node (`None` when skipped).
    fn parse_close_tag(&mut self) -> Result<Option<NodeId>, ParseError> {
        let n = self.name_len()?;
        let frame = self.stack.pop().expect("close tag outside any element");
        let expected = self.store.symbols().name(frame.sym);
        if self.name(n) != expected {
            let message = format!(
                "mismatched closing tag: expected </{expected}>, found </{}>",
                self.name(n)
            );
            self.bs.pos += n;
            return Err(self.error(&message));
        }
        self.bs.pos += n;
        self.bs.skip_ws()?;
        if self.bs.peek()? != Some(b'>') {
            return Err(self.error("expected '>' in closing tag"));
        }
        self.bs.pos += 1;
        self.exit_element();
        if frame.keep == Keep::Skip {
            self.stats.nodes_pruned += 1;
            return Ok(None);
        }
        let node = self
            .store
            .new_element_sym(frame.sym, &self.children[frame.first..]);
        self.children.truncate(frame.first);
        self.complete(node, frame.match_root);
        Ok(Some(node))
    }

    /// Attaches a completed child node to the innermost open element.
    fn attach(&mut self, node: Option<NodeId>) {
        if let (Some(node), Some(frame)) = (node, self.stack.last()) {
            if frame.keep != Keep::Skip {
                self.children.push(node);
            }
        }
    }

    /// Whether a text node in the current position would be kept.
    fn text_wanted(&self) -> bool {
        match &self.projection {
            None => true,
            Some(auto) => text_kept(auto, &self.cursor, self.parent_keep()),
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
            match self.bs.peek()? {
                Some(b'<') => match self.bs.peek_second()? {
                    Some(b'/') => {
                        self.bs.pos += 2;
                        let node = self.parse_close_tag()?;
                        if self.stack.is_empty() {
                            return Ok(node.expect("document element is always kept"));
                        }
                        self.attach(node);
                    }
                    Some(b'?') => {
                        self.bs.pos += 2;
                        self.bs.skip_past("?>")?;
                    }
                    Some(b'!') if self.bs.eat("<!--")? => self.bs.skip_past("-->")?,
                    Some(b'!') if self.bs.eat("<![CDATA[")? => self.parse_cdata()?,
                    _ => {
                        let completed = self.parse_open_tag()?;
                        if let Some(node) = completed {
                            self.attach(node);
                        }
                    }
                },
                Some(_) => self.parse_text_run()?,
                None => {
                    let tag = self
                        .stack
                        .last()
                        .map(|f| self.store.symbols().name(f.sym))
                        .unwrap_or_default();
                    return Err(self.error(&format!("unexpected end of input inside <{tag}>")));
                }
            }
        }
    }

    /// Parses a CDATA section (the leading `<![CDATA[` already consumed)
    /// into a text node, kept verbatim even when empty or blank.
    fn parse_cdata(&mut self) -> Result<(), ParseError> {
        let wanted = self.text_wanted();
        self.stats.texts_parsed += 1;
        if !wanted {
            self.stats.nodes_pruned += 1;
            return self.bs.skip_past("]]>");
        }
        let raw = self.bs.take_until("]]>")?;
        let node = self.store.new_text(String::from_utf8_lossy(raw));
        self.emit_text(node);
        Ok(())
    }

    /// Parses a run of character data up to the next `<` (or EOF).
    /// Whitespace-only runs are ignored, as is conventional for
    /// document-oriented XML with a DTD.
    fn parse_text_run(&mut self) -> Result<(), ParseError> {
        let len = self.bs.run_len(|b| b != b'<')?;
        let start = self.bs.pos;
        self.bs.pos += len;
        let text = String::from_utf8_lossy(&self.bs.buf[start..start + len]);
        if text.trim().is_empty() {
            return Ok(());
        }
        self.stats.texts_parsed += 1;
        if !self.text_wanted() {
            self.stats.nodes_pruned += 1;
            return Ok(());
        }
        let node = if text.contains('&') {
            self.store.new_text(decode_entities(&text))
        } else {
            self.store.new_text(text)
        };
        self.emit_text(node);
        Ok(())
    }

    /// Counts a kept text node, delivers it to the sink when it is a direct
    /// projection match (an explicit text-path under a filtering parent —
    /// not text inside an already-matched subtree), and attaches it.
    fn emit_text(&mut self, node: NodeId) {
        let match_root = self.projection.is_some() && self.parent_keep() == Keep::Filter;
        self.complete(node, match_root);
        self.attach(Some(node));
    }
}

// ---------------------------------------------------------------------------
// The in-memory reference for streamed projection
// ---------------------------------------------------------------------------

/// Applies a [`PathAutomaton`] to an already-parsed tree with exactly the
/// top-down decisions of the streaming parser.
pub fn project_spec(tree: &Tree, auto: &PathAutomaton) -> Tree {
    let mut store = Store::new();
    let mut cursor = AutomatonCursor::new();
    let root = copy_filtered(tree, tree.root, auto, Keep::Filter, &mut cursor, &mut store)
        .expect("the root is always kept");
    Tree::new(store, root)
}

fn copy_filtered(
    tree: &Tree,
    node: NodeId,
    auto: &PathAutomaton,
    parent: Keep,
    cursor: &mut AutomatonCursor,
    dst: &mut Store,
) -> Option<NodeId> {
    let Some(tag) = tree.store.tag(node) else {
        return text_kept(auto, cursor, parent)
            .then(|| dst.new_text(tree.store.text_value(node).unwrap_or_default()));
    };
    let is_root = cursor.depth() == 0;
    let keep = enter(auto, cursor, parent, tag, is_root);
    let out = (keep != Keep::Skip).then(|| {
        let children: Vec<NodeId> = tree
            .store
            .children_iter(node)
            .filter_map(|c| copy_filtered(tree, c, auto, keep, cursor, dst))
            .collect();
        dst.new_element(tag, children)
    });
    cursor.pop();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_xml, parse_xml_keep_attributes};
    use std::io::Cursor;

    fn stream(input: &str) -> Result<Tree, ParseError> {
        parse_xml_reader(Cursor::new(input.as_bytes().to_vec()))
    }

    /// A reader that hands out at most `max` bytes per `read`, so tokens
    /// straddle window refills at every offset.
    struct SmallReads<'a> {
        data: &'a [u8],
        max: usize,
    }

    impl Read for SmallReads<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.data.len().min(self.max).min(out.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// The exact shape of a tree: `tag(children,…)` per element, the
    /// debug-quoted value per text node.
    fn shape(tree: &Tree) -> String {
        fn walk(store: &Store, node: NodeId, out: &mut String) {
            match store.tag(node) {
                None => out.push_str(&format!("{:?}", store.text_value(node).unwrap())),
                Some(tag) => {
                    out.push_str(tag);
                    out.push('(');
                    for (i, c) in store.children_iter(node).enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        walk(store, c, out);
                    }
                    out.push(')');
                }
            }
        }
        let mut out = String::new();
        walk(&tree.store, tree.root, &mut out);
        out
    }

    /// A parse result in a form that compares exactly: the tree's shape, or
    /// the error's message and byte offset.
    fn summary(result: Result<Tree, ParseError>) -> Result<String, (String, usize)> {
        result
            .map(|t| shape(&t))
            .map_err(|e| (e.message, e.position))
    }

    /// Asserts that `input` parses to `expected` whole, streamed from a
    /// cursor, and streamed one byte per `read`.
    fn assert_parses_to(input: &str, keep_attributes: bool, expected: Result<&str, (&str, usize)>) {
        let expected = expected
            .map(str::to_string)
            .map_err(|(m, p)| (m.to_string(), p));
        let whole = if keep_attributes {
            parse_xml_keep_attributes(input)
        } else {
            parse_xml(input)
        };
        assert_eq!(summary(whole), expected, "{input:?}");
        let config = StreamConfig {
            keep_attributes,
            projection: None,
        };
        let cursor = parse_xml_stream(Cursor::new(input.as_bytes().to_vec()), &config);
        assert_eq!(summary(cursor.map(|o| o.tree)), expected, "{input:?}");
        let trickle = SmallReads {
            data: input.as_bytes(),
            max: 1,
        };
        let trickled = parse_xml_stream(trickle, &config);
        assert_eq!(summary(trickled.map(|o| o.tree)), expected, "{input:?}");
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

    /// The trees the former recursive in-memory parser built for these
    /// inputs, recorded as literals.
    #[test]
    fn agrees_with_in_memory_parser_on_basics() {
        for (input, expected) in [
            (
                "<doc><a><c/></a><a><c/></a><b><c/></b><a><c/></a></doc>",
                "doc(a(c()),a(c()),b(c()),a(c()))",
            ),
            ("<a>hello &amp; &lt;world&gt;</a>", "a(\"hello & <world>\")"),
            ("<a><![CDATA[1 < 2]]></a>", "a(\"1 < 2\")"),
            ("<a/>", "a()"),
            (
                r#"<?xml version="1.0"?><!DOCTYPE doc [ <!ELEMENT doc (a)> ]>
               <!-- c --><doc id="1"><a x='2'/><!-- inner --></doc>"#,
                "doc(a())",
            ),
            (
                "<r><x>1 &amp; 2</x><y/></r><!-- trailing -->",
                "r(x(\"1 & 2\"),y())",
            ),
        ] {
            assert_parses_to(input, false, Ok(expected));
        }
    }

    /// The rejections of the former recursive in-memory parser, message and
    /// byte offset, recorded as literals.
    #[test]
    fn rejects_what_the_in_memory_parser_rejects_at_the_same_position() {
        for (input, message, position) in [
            (
                "<a></b>",
                "mismatched closing tag: expected </a>, found </b>",
                6,
            ),
            ("<a/><b/>", "trailing content after document element", 4),
            ("<a>", "unexpected end of input inside <a>", 3),
            ("plain", "expected '<'", 0),
            ("<a =></a>", "expected a name", 3),
            ("<a x=nope/>", "expected quoted attribute value", 5),
            (
                "<a><b></a></b>",
                "mismatched closing tag: expected </b>, found </a>",
                9,
            ),
        ] {
            assert_parses_to(input, false, Err((message, position)));
        }
    }

    #[test]
    fn one_byte_reads_still_parse() {
        let input = "<doc><a attr=\"v\"><c/></a><b>text &amp; more</b></doc>";
        assert_parses_to(input, false, Ok("doc(a(c()),b(\"text & more\"))"));
        let outcome = parse_xml_stream(
            SmallReads {
                data: input.as_bytes(),
                max: 1,
            },
            &StreamConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.stats.bytes_read, input.len());
    }

    #[test]
    fn keep_attributes_matches_in_memory_encoding() {
        let input = r#"<item id="7" lang='en'><name>x &amp; y</name><edge from="a"/></item>"#;
        assert_parses_to(
            input,
            true,
            Ok("item(@id(\"7\"),@lang(\"en\"),name(\"x & y\"),edge(@from(\"a\")))"),
        );
    }

    #[test]
    fn peak_buffer_stays_small_on_large_inputs() {
        // ~2 MiB of flat elements parsed through a window of a few chunks.
        let mut input = String::from("<doc>");
        for i in 0..100_000 {
            input.push_str(&format!("<item>v{i}</item>"));
        }
        input.push_str("</doc>");
        let outcome = parse_xml_stream(
            Cursor::new(input.as_bytes().to_vec()),
            &StreamConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.tree.size(), 200_001);
        assert!(
            outcome.stats.peak_buffer_bytes <= 4 * CHUNK_SIZE,
            "window grew to {}",
            outcome.stats.peak_buffer_bytes
        );
        assert_eq!(outcome.stats.bytes_read, input.len());
    }

    /// The automaton keeping the prefixes of `paths` and `subtrees` and
    /// the whole subtrees below `subtrees`: a trie with one state per
    /// distinct prefix.
    fn spec(paths: &[&[&str]], subtrees: &[&[&str]], known: &[&str]) -> PathAutomaton {
        let mut a = PathAutomaton {
            known_labels: known.iter().map(|s| s.to_string()).collect(),
            ..Default::default()
        };
        let chains = paths.iter().map(|c| (c, false));
        for (chain, whole) in chains.chain(subtrees.iter().map(|c| (c, true))) {
            let mut at: Option<u32> = None;
            for &label in chain.iter() {
                let edges = match at {
                    None => &a.starts,
                    Some(st) => &a.transitions[st as usize],
                };
                let next = match edges.iter().find(|(l, _)| l == label) {
                    Some(&(_, t)) => t,
                    None => {
                        let t = a.transitions.len() as u32;
                        a.transitions.push(Vec::new());
                        a.reaches_end.push(true);
                        a.subtree.push(false);
                        match at {
                            None => a.starts.push((label.to_string(), t)),
                            Some(st) => a.transitions[st as usize].push((label.to_string(), t)),
                        }
                        t
                    }
                };
                at = Some(next);
            }
            if let Some(end) = at {
                a.subtree[end as usize] |= whole;
            }
        }
        a
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
        let expected = project_spec(&parse_xml(input).unwrap(), &s);
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
        let expected = project_spec(&parse_xml(input).unwrap(), &s);
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
            .value_equiv(&project_spec(&parse_xml(input).unwrap(), &s)));
    }

    /// A tiny automaton equivalent to `spec` with paths
    /// `{bib.book.title.#text}` and subtrees `{bib.extra}`:
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
        let on_path = |v: &[&str]| a.classify_path(&p(v)).0;
        let in_subtree = |v: &[&str]| a.classify_path(&p(v)).1;
        assert!(on_path(&["bib"]));
        assert!(on_path(&["bib", "book", "title"]));
        assert!(!on_path(&["bib", "book", "price"]), "dead branch");
        assert!(!on_path(&["book"]), "wrong root label");
        assert!(in_subtree(&["bib", "extra"]));
        assert!(in_subtree(&["bib", "extra", "anything"]));
        assert!(!in_subtree(&["bib", "book"]));
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
            &StreamConfig::with_projection(auto.clone()),
        )
        .unwrap();
        let tree = parse_xml(input).unwrap();
        // Streaming ≡ in-memory reference for the automaton...
        let reference = project_spec(&tree, &auto);
        assert!(outcome.tree.value_equiv(&reference));
        // ... and the automaton ≡ the trie of the chains it encodes. The
        // blob label is unknown to both, kept conservatively inside the
        // subtree.
        let via_spec = project_spec(&tree, &equivalent_spec);
        assert!(outcome.tree.value_equiv(&via_spec));
        let xml = outcome.tree.to_xml();
        assert!(xml.contains("<title>t1</title>"), "{xml}");
        assert!(xml.contains("<blob>x</blob>"), "{xml}");
        assert!(!xml.contains("price"), "{xml}");
        assert!(outcome.stats.nodes_pruned > 0);
    }

    #[test]
    fn recursive_automaton_keeps_unbounded_paths() {
        // keep a.b.a.b… — impossible to enumerate as a set of chains.
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
            &StreamConfig::with_projection(auto),
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
        let config = StreamConfig::with_projection(small_automaton());
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
    fn chain_automaton_prefix_logic() {
        let s = spec(
            &[&["a", "b", "c"]],
            &[&["a", "d"]],
            &["a", "b", "c", "d", "e"],
        );
        let p = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let on_path = |v: &[&str]| s.classify_path(&p(v)).0;
        let in_subtree = |v: &[&str]| s.classify_path(&p(v)).1;
        assert!(on_path(&["a"]));
        assert!(on_path(&["a", "b"]));
        assert!(on_path(&["a", "d"]));
        assert!(!on_path(&["a", "e"]));
        assert!(in_subtree(&["a", "d", "e"]));
        assert!(!in_subtree(&["a", "b", "c"]));
        assert!(s.is_known("#text") && !s.is_known("zzz"));
        assert_eq!(
            s.len(),
            4,
            "one state per distinct prefix a, a.b, a.b.c, a.d"
        );
        assert!(!s.is_empty());
    }
}
