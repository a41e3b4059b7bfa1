//! The serving layer: one command dispatcher shared by the REPL and the
//! `qui serve` daemon, plus the std-only HTTP/1.1 server itself.
//!
//! The layering mirrors what production database engines converge on —
//! engine core, then a thin serving layer:
//!
//! * [`SessionHandler`] executes one [`Request`] against an
//!   [`AnalysisSession`] and produces a [`Response`]. This is the *single*
//!   implementation of every session command: the `qui session` REPL feeds
//!   it lines via [`Request::parse_line`], the daemon feeds it JSON bodies,
//!   and both render from the same `Response`.
//! * [`SharedSession`] makes a handler shareable across threads: read
//!   requests (`check`, `matrix`, `stats`, …) take a read lock and run
//!   concurrently on the session's `&self` path; edits (`view`, `update`,
//!   `drop`) take the write lock and are serialized. Readers never block
//!   each other — only an in-flight edit.
//! * [`SessionRegistry`] pools sessions per schema: a daemon serves many
//!   schemas, each with its own warm caches, looked up by name per request.
//! * [`Server`] is the HTTP front end: a dependency-free HTTP/1.1 listener
//!   with keep-alive, a fixed worker pool, **admission control** (a bounded
//!   accept queue; beyond it clients get `503` instead of unbounded
//!   buffering) and graceful shutdown (`POST /shutdown` stops accepting,
//!   drains queued connections, then joins the workers).
//!
//! ## Endpoints
//!
//! | Method & path        | Body                                   | Reply |
//! |----------------------|----------------------------------------|-------|
//! | `GET /health`        | —                                      | `{"ok":true,"schemas":n}` |
//! | `GET /schemas`       | —                                      | `{"ok":true,"schemas":[names]}` |
//! | `POST /schemas`      | `{"name","dtd"[,"start"]}`             | `{"ok":true,"name","elements":n}` |
//! | `POST /sessions/<s>` | a [`Request`] in JSON                  | a [`Response`] in JSON |
//! | `POST /shutdown`     | —                                      | `{"ok":true,"type":"bye"}` |

use crate::analyzer::AnalyzerConfig;
use crate::json::Json;
use crate::parallel::Jobs;
use crate::protocol::{Request, Response};
use crate::session::{AnalysisSession, SessionBuilder};
use qui_schema::{Dtd, SchemaLike};
use qui_xquery::{parse_query, parse_update};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Executes protocol [`Request`]s against one [`AnalysisSession`],
/// maintaining the REPL's auto-naming state (`v1, v2, …` / `u1, u2, …`).
pub struct SessionHandler<'a, S: SchemaLike> {
    session: AnalysisSession<'a, S>,
    auto_views: usize,
    auto_updates: usize,
}

impl<'a, S: SchemaLike> SessionHandler<'a, S> {
    /// Wraps a session for protocol dispatch.
    pub fn new(session: AnalysisSession<'a, S>) -> Self {
        SessionHandler {
            session,
            auto_views: 0,
            auto_updates: 0,
        }
    }

    /// The underlying session (read access).
    pub fn session(&self) -> &AnalysisSession<'a, S> {
        &self.session
    }

    /// Executes any request, including edits.
    pub fn handle(&mut self, request: &Request) -> Response {
        match request {
            Request::AddView { name, expr } => self.add_view(name.as_deref(), expr),
            Request::AddUpdate { name, expr } => self.add_update(name.as_deref(), expr),
            Request::Drop { name } => self.drop_name(name),
            Request::Batch(ops) => Response::Batch(ops.iter().map(|op| self.handle(op)).collect()),
            read_only => self.handle_read(read_only),
        }
    }

    /// Executes a read-only request on the session's concurrent `&self`
    /// path. Edit requests are answered with an error (the type system
    /// routes them to [`handle`](Self::handle); this is the runtime
    /// backstop).
    pub fn handle_read(&self, request: &Request) -> Response {
        match request {
            Request::Help => Response::Help,
            Request::Quit => Response::Bye,
            Request::Stats => Response::Stats(self.session.stats()),
            Request::Matrix => Response::Matrix {
                reports: self.session.reports(),
                n_views: self.session.n_views(),
                n_updates: self.session.n_updates(),
                independent_cells: self.session.independent_count(),
            },
            // An edit-free batch stays on the read path op by op (edits fall
            // through to the backstop below, matching `Request::is_edit`).
            Request::Batch(ops) => {
                Response::Batch(ops.iter().map(|op| self.handle_read(op)).collect())
            }
            Request::Check { query, update } => {
                let q = match parse_query(query) {
                    Ok(q) => q,
                    Err(e) => return Response::error(format!("{query}: {e}")),
                };
                let u = match parse_update(update) {
                    Ok(u) => u,
                    Err(e) => return Response::error(format!("{update}: {e}")),
                };
                let v = self.session.check(&q, &u);
                Response::Check {
                    independent: v.is_independent(),
                    k: v.k,
                    k_query: v.k_query,
                    k_update: v.k_update,
                    engine: format!("{:?}", v.engine_used),
                    witness: v.witness.as_ref().map(|w| format!("{w:?}")),
                }
            }
            edit => Response::error(format!("'{edit:?}' requires the edit path")),
        }
    }

    fn name_taken(&self, name: &str) -> bool {
        self.session.views().any(|(n, _)| n == name)
            || self.session.updates().any(|(n, _)| n == name)
    }

    /// The next free auto-name (`v1, v2, …` / `u1, u2, …`), skipping names
    /// the user already claimed explicitly.
    fn next_auto_name(&self, prefix: &str, counter: &mut usize) -> String {
        loop {
            *counter += 1;
            let name = format!("{prefix}{counter}");
            if !self.name_taken(&name) {
                return name;
            }
        }
    }

    fn add_view(&mut self, name: Option<&str>, expr: &str) -> Response {
        let q = match parse_query(expr) {
            Ok(q) => q,
            Err(e) => return Response::error(format!("{expr}: {e}")),
        };
        if let Some(name) = name.filter(|n| self.name_taken(n)) {
            return Response::error(format!(
                "name '{name}' is already registered (drop it first)"
            ));
        }
        let name = match name {
            Some(n) => n.to_string(),
            None => {
                let mut counter = self.auto_views;
                let name = self.next_auto_name("v", &mut counter);
                self.auto_views = counter;
                name
            }
        };
        let vi = self.session.add_view(name.clone(), q);
        let independent = (0..self.session.n_updates())
            .filter(|&ui| self.session.verdict(ui, vi).is_independent())
            .count();
        Response::ViewAdded {
            name,
            independent,
            total_updates: self.session.n_updates(),
        }
    }

    fn add_update(&mut self, name: Option<&str>, expr: &str) -> Response {
        let u = match parse_update(expr) {
            Ok(u) => u,
            Err(e) => return Response::error(format!("{expr}: {e}")),
        };
        if let Some(name) = name.filter(|n| self.name_taken(n)) {
            return Response::error(format!(
                "name '{name}' is already registered (drop it first)"
            ));
        }
        let name = match name {
            Some(n) => n.to_string(),
            None => {
                let mut counter = self.auto_updates;
                let name = self.next_auto_name("u", &mut counter);
                self.auto_updates = counter;
                name
            }
        };
        let ui = self.session.add_update(name.clone(), u);
        let independent = self
            .session
            .independent_flags(ui)
            .into_iter()
            .filter(|&i| i)
            .count();
        Response::UpdateAdded {
            name,
            independent,
            total_views: self.session.n_views(),
        }
    }

    fn drop_name(&mut self, name: &str) -> Response {
        if self.session.remove_view(name).is_some() {
            Response::Dropped {
                kind: "view",
                name: name.to_string(),
            }
        } else if self.session.remove_update(name).is_some() {
            Response::Dropped {
                kind: "update",
                name: name.to_string(),
            }
        } else {
            Response::error(format!("no view or update named '{name}'"))
        }
    }
}

/// A [`SessionHandler`] shared across threads: reads run concurrently on
/// the session's `&self` path under a read lock; edits take the write lock
/// and are serialized against everything.
pub struct SharedSession<'a, S: SchemaLike> {
    inner: RwLock<SessionHandler<'a, S>>,
}

impl<'a, S: SchemaLike> SharedSession<'a, S> {
    /// Wraps a session for shared dispatch.
    pub fn new(session: AnalysisSession<'a, S>) -> Self {
        SharedSession {
            inner: RwLock::new(SessionHandler::new(session)),
        }
    }

    /// Executes one request, routing by [`Request::is_edit`].
    pub fn handle(&self, request: &Request) -> Response {
        if request.is_edit() {
            self.inner.write().unwrap().handle(request)
        } else {
            self.inner.read().unwrap().handle_read(request)
        }
    }

    /// Runs `f` with read access to the handler (and through it the
    /// session); used by tests and the bench harness to inspect state.
    pub fn with_read<R>(&self, f: impl FnOnce(&SessionHandler<'a, S>) -> R) -> R {
        f(&self.inner.read().unwrap())
    }
}

// ---------------------------------------------------------------------------
// Per-schema session pooling
// ---------------------------------------------------------------------------

/// A pool of [`SharedSession`]s keyed by schema name, as served by the
/// daemon: each loaded schema gets one long-lived session whose caches stay
/// warm across every connection and request that names it.
///
/// Loaded DTDs are interned with `Box::leak` — a session borrows its schema
/// for its whole lifetime, and the daemon's sessions live until process
/// exit anyway. The leak is bounded by the number of `load_schema` calls
/// (re-loading a name replaces the session but keeps the old DTD's memory
/// until exit; schemas are a few kilobytes, so churn would take millions of
/// loads to matter).
pub struct SessionRegistry {
    analyzer: AnalyzerConfig,
    jobs: Jobs,
    sessions: RwLock<HashMap<String, Arc<SharedSession<'static, Dtd>>>>,
}

impl SessionRegistry {
    /// An empty registry; every session it creates uses the given analyzer
    /// configuration and worker policy.
    pub fn new(analyzer: AnalyzerConfig, jobs: Jobs) -> Self {
        SessionRegistry {
            analyzer,
            jobs,
            sessions: RwLock::new(HashMap::new()),
        }
    }

    /// Parses `src` (compact or `<!ELEMENT>` syntax) and registers a fresh
    /// session for it under `name`, replacing any previous session with
    /// that name. Returns the schema's element-type count.
    pub fn load_schema(&self, name: &str, src: &str, start: Option<&str>) -> Result<usize, String> {
        let start = match start {
            Some(s) => s.to_string(),
            None => default_start(src).ok_or_else(|| "no element declarations".to_string())?,
        };
        let dtd = if src.contains("<!ELEMENT") {
            qui_schema::parse_dtd_with_attributes(src, &start)
        } else {
            Dtd::parse_compact(src, &start)
        }
        .map_err(|e| e.to_string())?;
        let dtd: &'static Dtd = Box::leak(Box::new(dtd));
        let session = SessionBuilder::new(dtd)
            .config(self.analyzer.clone())
            .jobs(self.jobs)
            .build();
        let size = dtd.size();
        self.sessions
            .write()
            .unwrap()
            .insert(name.to_string(), Arc::new(SharedSession::new(session)));
        Ok(size)
    }

    /// The session registered under `name`.
    pub fn get(&self, name: &str) -> Option<Arc<SharedSession<'static, Dtd>>> {
        self.sessions.read().unwrap().get(name).cloned()
    }

    /// The registered schema names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.sessions.read().unwrap().keys().cloned().collect();
        names.sort();
        names
    }
}

/// The first declared element name of a DTD source, used as the default
/// start symbol (mirrors the CLI's `--dtd` loading).
fn default_start(src: &str) -> Option<String> {
    if let Some(idx) = src.find("<!ELEMENT") {
        let rest = src[idx + "<!ELEMENT".len()..].trim_start();
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.'))
            .collect();
        return (!name.is_empty()).then_some(name);
    }
    for line in src.split([';', '\n']) {
        if let Some((lhs, _)) = line.split_once("->") {
            let lhs = lhs.trim();
            if !lhs.is_empty() {
                return Some(lhs.to_string());
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// The HTTP server
// ---------------------------------------------------------------------------

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Admission control: accepted connections beyond this queue depth are
    /// answered `503` immediately instead of waiting.
    pub max_queue: usize,
    /// Per-connection socket read timeout (also bounds worker drain time at
    /// shutdown).
    pub read_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 4,
            max_queue: 64,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// Counters the server exposes after (and during) a run.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted and handled.
    pub accepted: AtomicUsize,
    /// Connections refused by admission control (`503`).
    pub rejected: AtomicUsize,
    /// Requests served across all connections.
    pub requests: AtomicUsize,
}

/// The `qui serve` HTTP daemon: a bound listener plus the session registry
/// it serves. [`run`](Server::run) blocks until a `POST /shutdown` arrives
/// (or [`shutdown_handle`](Server::shutdown_handle) is flipped).
pub struct Server {
    listener: TcpListener,
    registry: Arc<SessionRegistry>,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
}

impl Server {
    /// Binds the listen socket (fails fast on a busy port).
    pub fn bind(config: ServeConfig, registry: Arc<SessionRegistry>) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        Ok(Server {
            listener,
            registry,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            stats: Arc::new(ServerStats::default()),
        })
    }

    /// The bound address (useful with a `:0` config).
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener.local_addr().map_err(|e| e.to_string())
    }

    /// A flag that stops the server when set (the `POST /shutdown` endpoint
    /// sets the same flag).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Live server counters.
    pub fn stats_handle(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Serves until shutdown: the calling thread accepts, `workers` scoped
    /// threads drain the bounded connection queue. On shutdown the listener
    /// stops accepting, queued connections are drained, and all workers are
    /// joined before this returns.
    pub fn run(self) -> Result<(), String> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot configure listener: {e}"))?;
        let queue: Mutex<VecDeque<TcpStream>> = Mutex::new(VecDeque::new());
        let available = Condvar::new();
        let shutdown = &self.shutdown;
        let registry = &self.registry;
        let config = &self.config;
        let stats = &self.stats;
        std::thread::scope(|scope| {
            for _ in 0..config.workers.max(1) {
                scope.spawn(|| loop {
                    let stream = {
                        let mut q = queue.lock().unwrap();
                        loop {
                            if let Some(stream) = q.pop_front() {
                                break Some(stream);
                            }
                            if shutdown.load(Ordering::SeqCst) {
                                break None;
                            }
                            let (next, _) = available
                                .wait_timeout(q, Duration::from_millis(50))
                                .unwrap();
                            q = next;
                        }
                    };
                    match stream {
                        None => return,
                        Some(stream) => {
                            stats.accepted.fetch_add(1, Ordering::Relaxed);
                            handle_connection(stream, registry, shutdown, stats, config);
                        }
                    }
                });
            }
            // Accept loop: non-blocking accept + short sleeps, so the
            // shutdown flag is observed within milliseconds.
            while !shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        let depth = {
                            let mut q = queue.lock().unwrap();
                            if q.len() < config.max_queue {
                                q.push_back(stream);
                                available.notify_one();
                                None
                            } else {
                                Some(stream)
                            }
                        };
                        if let Some(mut stream) = depth {
                            // Admission control: refuse rather than buffer
                            // without bound.
                            stats.rejected.fetch_add(1, Ordering::Relaxed);
                            let _ = write_response(
                                &mut stream,
                                503,
                                "Service Unavailable",
                                &Json::Obj(vec![
                                    ("ok".into(), Json::Bool(false)),
                                    ("error".into(), Json::str("server overloaded")),
                                ])
                                .render(),
                                false,
                            );
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            available.notify_all();
        });
        Ok(())
    }
}

/// One parsed HTTP request.
struct HttpRequest {
    method: String,
    path: String,
    body: String,
    keep_alive: bool,
}

/// Reads one HTTP/1.1 request from the connection's reader. `Ok(None)`
/// means the client closed (or timed out) cleanly between requests.
///
/// The head is scanned in the reader's buffer and exactly its bytes are
/// consumed; the body is read through the same reader. Bytes past this
/// request (a pipelined next request) stay buffered for the next call.
fn read_request(reader: &mut impl BufRead) -> Result<Option<HttpRequest>, String> {
    const MAX_HEAD: usize = 16 * 1024;
    const MAX_BODY: usize = 1024 * 1024;
    const END: &[u8] = b"\r\n\r\n";
    let mut head = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return if head.is_empty() {
                    Ok(None)
                } else {
                    Err("timed out mid-request".to_string())
                }
            }
            Err(e) => return Err(format!("read error: {e}")),
        };
        if buf.is_empty() {
            return if head.is_empty() {
                Ok(None)
            } else {
                Err("connection closed mid-request".to_string())
            };
        }
        // The blank line may straddle two fills: rescan the last three
        // bytes already taken.
        let taken = head.len();
        head.extend_from_slice(buf);
        let from = taken.saturating_sub(END.len() - 1);
        let end = head[from..]
            .windows(END.len())
            .position(|w| w == END)
            .map(|at| from + at + END.len());
        if let Some(end) = end {
            head.truncate(end);
        }
        if head.len() > MAX_HEAD {
            return Err("request head too large".to_string());
        }
        reader.consume(head.len() - taken);
        if end.is_some() {
            break;
        }
    }
    let head = String::from_utf8(head).map_err(|_| "non-UTF-8 request head".to_string())?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    if method.is_empty() || path.is_empty() {
        return Err("malformed request line".to_string());
    }
    let mut content_length = 0usize;
    let mut keep_alive = true; // HTTP/1.1 default
    for line in lines {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if key.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| "bad Content-Length".to_string())?;
        } else if key.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            keep_alive = false;
        }
    }
    if content_length > MAX_BODY {
        return Err("request body too large".to_string());
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("cannot read body: {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "non-UTF-8 request body".to_string())?;
    Ok(Some(HttpRequest {
        method,
        path,
        body,
        keep_alive,
    }))
}

/// Writes one HTTP/1.1 response with a JSON body. Head and body go out in
/// a single write: two small segments would trip the Nagle + delayed-ACK
/// interaction and add tens of milliseconds per keep-alive round trip.
fn write_response(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    response.push_str(body);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Serves one connection (keep-alive loop) until the client closes, an
/// error occurs, or shutdown begins. The connection is read through one
/// buffer for its whole life, so pipelined requests are never lost.
fn handle_connection(
    stream: TcpStream,
    registry: &SessionRegistry,
    shutdown: &AtomicBool,
    stats: &ServerStats,
    config: &ServeConfig,
) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(message) => {
                let body = Json::Obj(vec![
                    ("ok".into(), Json::Bool(false)),
                    ("error".into(), Json::str(message)),
                ])
                .render();
                let _ = write_response(reader.get_mut(), 400, "Bad Request", &body, false);
                return;
            }
        };
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let stopping = shutdown.load(Ordering::SeqCst);
        let keep_alive = request.keep_alive && !stopping;
        let (status, reason, body) = route(&request, registry, shutdown);
        if write_response(reader.get_mut(), status, reason, &body, keep_alive).is_err() {
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

/// Routes one HTTP request to its endpoint. Returns status, reason and the
/// JSON body.
fn route(
    request: &HttpRequest,
    registry: &SessionRegistry,
    shutdown: &AtomicBool,
) -> (u16, &'static str, String) {
    let ok = |body: String| (200, "OK", body);
    let bad = |message: String| {
        (
            400,
            "Bad Request",
            Json::Obj(vec![
                ("ok".into(), Json::Bool(false)),
                ("error".into(), Json::str(message)),
            ])
            .render(),
        )
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => ok(Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("schemas".into(), Json::num(registry.names().len())),
        ])
        .render()),
        ("GET", "/schemas") => ok(Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            (
                "schemas".into(),
                Json::Arr(registry.names().into_iter().map(Json::Str).collect()),
            ),
        ])
        .render()),
        ("POST", "/schemas") => {
            let parsed = match Json::parse(&request.body) {
                Ok(v) => v,
                Err(e) => return bad(format!("invalid JSON: {e}")),
            };
            let Some(name) = parsed.get("name").and_then(Json::as_str) else {
                return bad("missing 'name'".to_string());
            };
            let Some(dtd) = parsed.get("dtd").and_then(Json::as_str) else {
                return bad("missing 'dtd'".to_string());
            };
            let start = parsed.get("start").and_then(Json::as_str);
            match registry.load_schema(name, dtd, start) {
                Ok(elements) => ok(Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("name".into(), Json::str(name)),
                    ("elements".into(), Json::num(elements)),
                ])
                .render()),
                Err(e) => bad(format!("cannot load schema: {e}")),
            }
        }
        ("POST", "/shutdown") => {
            shutdown.store(true, Ordering::SeqCst);
            ok(Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("type".into(), Json::str("bye")),
            ])
            .render())
        }
        ("POST", path) if path.starts_with("/sessions/") && path.ends_with("/batch") => {
            let name = &path["/sessions/".len()..path.len() - "/batch".len()];
            let Some(session) = registry.get(name) else {
                return (
                    404,
                    "Not Found",
                    Json::Obj(vec![
                        ("ok".into(), Json::Bool(false)),
                        (
                            "error".into(),
                            Json::str(format!("no schema named '{name}'")),
                        ),
                    ])
                    .render(),
                );
            };
            let parsed = match Json::parse(&request.body) {
                Ok(v) => v,
                Err(e) => return bad(format!("invalid JSON: {e}")),
            };
            // The body is `{"ops":[...]}`; a `"cmd":"batch"` field is
            // tolerated so the plain wire form works here too.
            let Some(ops) = parsed.get("ops") else {
                return bad("batch body needs an 'ops' array".to_string());
            };
            let wire = Json::Obj(vec![
                ("cmd".into(), Json::str("batch")),
                ("ops".into(), ops.clone()),
            ]);
            let batch = match Request::from_json(&wire) {
                Ok(r) => r,
                Err(e) => return bad(e),
            };
            ok(session.handle(&batch).to_json().render())
        }
        ("POST", path) if path.starts_with("/sessions/") => {
            let name = &path["/sessions/".len()..];
            let Some(session) = registry.get(name) else {
                return (
                    404,
                    "Not Found",
                    Json::Obj(vec![
                        ("ok".into(), Json::Bool(false)),
                        (
                            "error".into(),
                            Json::str(format!("no schema named '{name}'")),
                        ),
                    ])
                    .render(),
                );
            };
            let parsed = match Json::parse(&request.body) {
                Ok(v) => v,
                Err(e) => return bad(format!("invalid JSON: {e}")),
            };
            let protocol_request = match Request::from_json(&parsed) {
                Ok(r) => r,
                Err(e) => return bad(e),
            };
            ok(session.handle(&protocol_request).to_json().render())
        }
        _ => (
            404,
            "Not Found",
            Json::Obj(vec![
                ("ok".into(), Json::Bool(false)),
                (
                    "error".into(),
                    Json::str(format!("no endpoint {} {}", request.method, request.path)),
                ),
            ])
            .render(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qui_schema::Dtd;
    use std::io::Read;

    const FIG1: &str = "doc -> (a|b)* ; a -> c ; b -> c";

    fn handler(dtd: &Dtd) -> SessionHandler<'_, Dtd> {
        SessionHandler::new(AnalysisSession::new(dtd))
    }

    #[test]
    fn dispatch_runs_the_repl_scenario() {
        let dtd = Dtd::parse_compact(FIG1, "doc").unwrap();
        let mut h = handler(&dtd);
        let script = [
            (
                "view //a//c",
                "view v1 registered — independent of 0/0 updates\n",
            ),
            (
                "view v9: //c",
                "view v9 registered — independent of 0/0 updates\n",
            ),
            (
                "update delete //b//c",
                "update u1 registered — 1/2 views independent\n",
            ),
            ("drop v9", "dropped view v9\n"),
            ("drop nosuch", "error: no view or update named 'nosuch'\n"),
            (
                "update u7: delete //c",
                "update u7 registered — 0/1 views independent\n",
            ),
        ];
        for (line, expected) in script {
            let req = Request::parse_line(line).unwrap().unwrap();
            assert_eq!(h.handle(&req).render_text(), expected, "{line}");
        }
        let matrix = h.handle(&Request::Matrix).render_text();
        assert!(
            matrix.contains("matrix: 1 views x 2 updates, 1/2 cells independent"),
            "{matrix}"
        );
        let stats = h.handle(&Request::Stats).render_text();
        assert!(stats.contains("cells computed"), "{stats}");
    }

    #[test]
    fn dispatch_rejects_duplicates_and_bad_expressions() {
        let dtd = Dtd::parse_compact(FIG1, "doc").unwrap();
        let mut h = handler(&dtd);
        let run = |h: &mut SessionHandler<'_, Dtd>, line: &str| {
            let req = Request::parse_line(line).unwrap().unwrap();
            h.handle(&req).render_text()
        };
        assert_eq!(
            run(&mut h, "view x: //a"),
            "view x registered — independent of 0/0 updates\n"
        );
        assert_eq!(
            run(&mut h, "view x: //c"),
            "error: name 'x' is already registered (drop it first)\n"
        );
        assert_eq!(
            run(&mut h, "update x: delete //c"),
            "error: name 'x' is already registered (drop it first)\n"
        );
        assert!(run(&mut h, "view ]]]not a query").starts_with("error: "));
    }

    #[test]
    fn ad_hoc_check_dispatches_on_the_read_path() {
        let dtd = Dtd::parse_compact(FIG1, "doc").unwrap();
        let h = handler(&dtd);
        let req = Request::Check {
            query: "//a//c".to_string(),
            update: "delete //b//c".to_string(),
        };
        let response = h.handle_read(&req);
        match &response {
            Response::Check {
                independent,
                engine,
                ..
            } => {
                assert!(*independent);
                assert_eq!(engine, "Cdag");
            }
            other => panic!("expected a verdict, got {other:?}"),
        }
        let text = response.render_text();
        assert!(
            text.starts_with("independent — k = ") && text.contains("engine = Cdag"),
            "{text}"
        );
    }

    #[test]
    fn batch_dispatch_runs_ops_in_order() {
        let dtd = Dtd::parse_compact(FIG1, "doc").unwrap();
        let mut h = handler(&dtd);
        let batch = Request::Batch(vec![
            Request::AddView {
                name: Some("v1".to_string()),
                expr: "//a//c".to_string(),
            },
            Request::AddUpdate {
                name: None,
                expr: "delete //b//c".to_string(),
            },
            Request::Check {
                query: "//c".to_string(),
                update: "delete //c".to_string(),
            },
            Request::Drop {
                name: "v1".to_string(),
            },
        ]);
        let Response::Batch(results) = h.handle(&batch) else {
            panic!("expected a batch response");
        };
        assert_eq!(results.len(), 4);
        assert!(matches!(&results[0], Response::ViewAdded { name, .. } if name == "v1"));
        assert!(matches!(&results[1], Response::UpdateAdded { name, .. } if name == "u1"));
        assert!(matches!(
            &results[2],
            Response::Check {
                independent: false,
                ..
            }
        ));
        assert!(matches!(
            &results[3],
            Response::Dropped { kind: "view", .. }
        ));
        // An edit-free batch works on the read path too.
        let reads = Request::Batch(vec![Request::Stats, Request::Matrix]);
        assert!(!reads.is_edit());
        let Response::Batch(results) = h.handle_read(&reads) else {
            panic!("expected a batch response");
        };
        assert!(matches!(results[0], Response::Stats(_)));
        assert!(matches!(results[1], Response::Matrix { .. }));
    }

    #[test]
    fn shared_session_serves_reads_concurrently_with_edits() {
        let dtd = Dtd::parse_compact(FIG1, "doc").unwrap();
        let shared = SharedSession::new(AnalysisSession::new(&dtd));
        shared.handle(&Request::parse_line("view //a//c").unwrap().unwrap());
        let check = Request::Check {
            query: "//a//c".to_string(),
            update: "delete //b//c".to_string(),
        };
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (shared, check) = (&shared, &check);
                s.spawn(move || {
                    for _ in 0..20 {
                        match shared.handle(check) {
                            Response::Check { independent, .. } => assert!(independent),
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                });
            }
            // Interleave edits from the scope's own thread.
            for i in 0..5 {
                shared.handle(
                    &Request::parse_line(&format!("update w{i}: delete //b//c"))
                        .unwrap()
                        .unwrap(),
                );
            }
        });
        let matrix = shared.handle(&Request::Matrix);
        match matrix {
            Response::Matrix {
                n_views, n_updates, ..
            } => {
                assert_eq!(n_views, 1);
                assert_eq!(n_updates, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn registry_loads_schemas_by_both_syntaxes() {
        let registry = SessionRegistry::new(AnalyzerConfig::default(), Jobs::Fixed(1));
        assert_eq!(registry.load_schema("fig1", FIG1, None), Ok(4));
        assert!(registry
            .load_schema(
                "bib",
                "<!ELEMENT bib (book*)> <!ELEMENT book (#PCDATA)>",
                None
            )
            .is_ok());
        assert_eq!(
            registry.names(),
            vec!["bib".to_string(), "fig1".to_string()]
        );
        assert!(registry.get("fig1").is_some());
        assert!(registry.get("nope").is_none());
        assert!(registry.load_schema("bad", "", None).is_err());
    }

    /// A long flat query (a 3 000-step path, not nested at all) costs one
    /// error response on a thread with the 2 MB stack of a `qui serve`
    /// worker, and the session keeps answering.
    #[test]
    fn long_flat_query_is_an_error_response() {
        let dtd = Dtd::parse_compact(FIG1, "doc").unwrap();
        let shared = SharedSession::new(AnalysisSession::new(&dtd));
        let long = Request::Check {
            query: format!("/doc{}", "/a".repeat(3_000)),
            update: "delete //b//c".to_string(),
        };
        std::thread::scope(|s| {
            std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn_scoped(s, || match shared.handle(&long) {
                    Response::Error { message } => {
                        assert!(message.contains("nesting"), "{message}")
                    }
                    other => panic!("expected an error response, got {other:?}"),
                })
                .unwrap()
                .join()
                .unwrap();
        });
        let check = Request::Check {
            query: "//a//c".to_string(),
            update: "delete //b//c".to_string(),
        };
        assert!(!matches!(shared.handle(&check), Response::Error { .. }));
    }

    /// A DTD nested far beyond the content-model parser's depth limit costs
    /// one `POST /schemas` error response, routed on a thread with the 2 MB
    /// stack of a `qui serve` worker; the registry keeps serving.
    #[test]
    fn deeply_nested_dtd_is_an_error_response() {
        let registry = SessionRegistry::new(AnalyzerConfig::default(), Jobs::Fixed(1));
        let shutdown = AtomicBool::new(false);
        let dtd = format!("a -> {}b{}", "(".repeat(20_000), ")".repeat(20_000));
        let request = HttpRequest {
            method: "POST".to_string(),
            path: "/schemas".to_string(),
            body: format!("{{\"name\":\"deep\",\"dtd\":\"{dtd}\"}}"),
            keep_alive: false,
        };
        std::thread::scope(|s| {
            std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn_scoped(s, || {
                    let (status, _, body) = route(&request, &registry, &shutdown);
                    assert_eq!(status, 400, "{body}");
                    assert!(body.contains("nested deeper"), "{body}");
                })
                .unwrap()
                .join()
                .unwrap();
        });
        assert!(registry.names().is_empty());
        assert_eq!(registry.load_schema("fig1", FIG1, None), Ok(4));
    }

    /// Sends one HTTP request over a fresh connection and returns the raw
    /// response text.
    fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    /// The JSON body of a raw HTTP response.
    fn body_of(response: &str) -> Json {
        let (_, body) = response.split_once("\r\n\r\n").expect("has a body");
        Json::parse(body).expect("JSON body")
    }

    #[test]
    fn http_server_end_to_end() {
        let registry = Arc::new(SessionRegistry::new(
            AnalyzerConfig::default(),
            Jobs::Fixed(1),
        ));
        registry.load_schema("fig1", FIG1, None).unwrap();
        let server = Server::bind(
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                read_timeout: Duration::from_millis(500),
                ..Default::default()
            },
            Arc::clone(&registry),
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let health = http(addr, "GET", "/health", "");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert_eq!(body_of(&health).get("schemas").unwrap().as_usize(), Some(1));

        let check = http(
            addr,
            "POST",
            "/sessions/fig1",
            "{\"cmd\":\"check\",\"query\":\"//a//c\",\"update\":\"delete //b//c\"}",
        );
        let v = body_of(&check);
        assert_eq!(v.get("type").unwrap().as_str(), Some("verdict"));
        assert_eq!(v.get("independent").unwrap().as_bool(), Some(true));

        // Register workload over the wire, then read the matrix back.
        http(
            addr,
            "POST",
            "/sessions/fig1",
            "{\"cmd\":\"view\",\"expr\":\"//a//c\"}",
        );
        http(
            addr,
            "POST",
            "/sessions/fig1",
            "{\"cmd\":\"update\",\"expr\":\"delete //b//c\"}",
        );
        let matrix = body_of(&http(
            addr,
            "POST",
            "/sessions/fig1",
            "{\"cmd\":\"matrix\"}",
        ));
        assert_eq!(matrix.get("independent_cells").unwrap().as_usize(), Some(1));

        // One batch request answers several ops with one response array.
        let batch = body_of(&http(
            addr,
            "POST",
            "/sessions/fig1/batch",
            "{\"ops\":[{\"cmd\":\"check\",\"query\":\"//a//c\",\"update\":\"delete //b//c\"},\
             {\"cmd\":\"stats\"},{\"cmd\":\"matrix\"}]}",
        ));
        assert_eq!(batch.get("type").unwrap().as_str(), Some("batch"));
        let results = batch.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].get("independent").unwrap().as_bool(), Some(true));
        assert_eq!(results[1].get("type").unwrap().as_str(), Some("stats"));
        assert_eq!(
            results[2].get("independent_cells").unwrap().as_usize(),
            Some(1)
        );
        assert!(
            http(addr, "POST", "/sessions/fig1/batch", "{\"cmd\":\"stats\"}")
                .starts_with("HTTP/1.1 400")
        );
        assert!(
            http(addr, "POST", "/sessions/nope/batch", "{\"ops\":[]}").starts_with("HTTP/1.1 404")
        );

        // Unknown schema and endpoint → 404; bad JSON → 400.
        assert!(
            http(addr, "POST", "/sessions/nope", "{\"cmd\":\"stats\"}").starts_with("HTTP/1.1 404")
        );
        assert!(http(addr, "GET", "/nope", "").starts_with("HTTP/1.1 404"));
        assert!(http(addr, "POST", "/sessions/fig1", "{nope").starts_with("HTTP/1.1 400"));

        // A new schema can be loaded over the wire.
        let loaded = http(
            addr,
            "POST",
            "/schemas",
            "{\"name\":\"bib\",\"dtd\":\"bib -> book* ; book -> #PCDATA\"}",
        );
        assert!(loaded.starts_with("HTTP/1.1 200"), "{loaded}");
        let names = body_of(&http(addr, "GET", "/schemas", ""));
        assert_eq!(names.get("schemas").unwrap().as_arr().unwrap().len(), 2);

        // Graceful shutdown: the run() thread joins.
        let bye = http(addr, "POST", "/shutdown", "");
        assert!(bye.starts_with("HTTP/1.1 200"), "{bye}");
        handle.join().unwrap();
    }

    /// A one-worker daemon over Figure 1 on a free port: its address, its
    /// shutdown flag and the thread running it.
    fn serve_fig1() -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let registry = Arc::new(SessionRegistry::new(
            AnalyzerConfig::default(),
            Jobs::Fixed(1),
        ));
        registry.load_schema("fig1", FIG1, None).unwrap();
        let server = Server::bind(
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                read_timeout: Duration::from_millis(500),
                ..Default::default()
            },
            registry,
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let shutdown = server.shutdown_handle();
        (
            addr,
            shutdown,
            std::thread::spawn(move || server.run().unwrap()),
        )
    }

    /// A client connection with a generous read timeout.
    fn connect(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    }

    /// A keep-alive `check` request on Figure 1's session.
    fn check_request(query: &str, update: &str) -> String {
        let body = format!("{{\"cmd\":\"check\",\"query\":\"{query}\",\"update\":\"{update}\"}}");
        format!(
            "POST /sessions/fig1 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    }

    /// Reads exactly one response: head, then Content-Length bytes. Returns
    /// the head and the JSON body.
    fn read_response(stream: &mut TcpStream) -> (String, Json) {
        let mut head = Vec::new();
        let mut b = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut b).unwrap();
            head.push(b[0]);
        }
        let head = String::from_utf8(head).unwrap();
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let mut payload = vec![0u8; length];
        stream.read_exact(&mut payload).unwrap();
        let body = Json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
        (head, body)
    }

    /// The `independent` flag of a `check` response.
    fn independent(body: &Json) -> Option<bool> {
        body.get("independent").and_then(Json::as_bool)
    }

    #[test]
    fn http_keep_alive_serves_sequential_requests_on_one_connection() {
        let (addr, shutdown, handle) = serve_fig1();
        let mut stream = connect(addr);
        for _ in 0..3 {
            let request = check_request("//a//c", "delete //b//c");
            stream.write_all(request.as_bytes()).unwrap();
            let (head, body) = read_response(&mut stream);
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert_eq!(independent(&body), Some(true));
        }
        drop(stream);
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn http_pipelined_requests_get_their_responses_in_order() {
        let (addr, shutdown, handle) = serve_fig1();
        let mut stream = connect(addr);
        // Two requests in one write: the second must survive in the
        // connection's buffer while the first is served.
        let both =
            check_request("//a//c", "delete //b//c") + &check_request("//c", "delete //b//c");
        stream.write_all(both.as_bytes()).unwrap();
        for expected in [true, false] {
            let (head, body) = read_response(&mut stream);
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert_eq!(independent(&body), Some(expected));
        }
        drop(stream);
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn http_head_written_a_byte_at_a_time_still_parses() {
        let (addr, shutdown, handle) = serve_fig1();
        let mut stream = connect(addr);
        stream.set_nodelay(true).unwrap();
        let request = check_request("//a//c", "delete //b//c");
        for byte in request.as_bytes() {
            stream.write_all(std::slice::from_ref(byte)).unwrap();
        }
        let (head, body) = read_response(&mut stream);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(independent(&body), Some(true));
        drop(stream);
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn http_body_sent_after_the_head_is_read_whole() {
        let (addr, shutdown, handle) = serve_fig1();
        let mut stream = connect(addr);
        stream.set_nodelay(true).unwrap();
        let request = check_request("//c", "delete //b//c");
        let (head, body) = request.split_at(request.find("\r\n\r\n").unwrap() + 4);
        stream.write_all(head.as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        stream.write_all(body.as_bytes()).unwrap();
        let (head, body) = read_response(&mut stream);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(independent(&body), Some(false));
        drop(stream);
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn http_head_over_16_kib_gets_400_and_close() {
        let (addr, shutdown, handle) = serve_fig1();
        let mut stream = connect(addr);
        // One byte over the limit and no blank line: the server reads every
        // byte sent before it answers, so its close is clean.
        let mut request = b"POST /sessions/fig1 HTTP/1.1\r\nX-Pad: ".to_vec();
        request.resize(16 * 1024 + 1, b'a');
        stream.write_all(&request).unwrap();
        let mut response = String::new();
        // Returns only once the server has closed the connection.
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("Connection: close"), "{response}");
        assert!(response.contains("request head too large"), "{response}");
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }
}
