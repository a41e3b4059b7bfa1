//! `xmark-serve`: an in-process `qui serve` daemon on loopback with the
//! XMark schema loaded and the 36 × 31 workload registered, driven by two
//! keep-alive connections in a closed loop with no think time.
//!
//! The op mix per client: 80% `check` of a Zipf-hot XMark pair, 10% `check`
//! of a freshly generated query (cold CDAG inference), 5% `/batch` of 25
//! hot checks, 5% edits (`view` add of a generated query, `drop` of the
//! client's oldest added view once it keeps eight). After the window every
//! served verdict is compared with `AnalysisSession::check` on a fresh
//! in-process session over the same schema source.

use crate::report::{frac, median, ms, peak_rss_mb, percentile, us, Outcome};
use crate::Config;
use qui_core::service::ServerStats;
use qui_core::{
    AnalysisSession, AnalyzerConfig, Jobs, Json, Request, Response, ServeConfig, Server,
    SessionBuilder, SessionRegistry, SessionStats,
};
use qui_schema::corpus::random_query;
use qui_schema::Dtd;
use qui_workloads::{all_updates, all_views, xmark_dtd};
use qui_xquery::{parse_query, parse_update};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client threads, one keep-alive connection each (= `nproc` here).
const CLIENTS: usize = 2;
/// Server worker threads; the session pool is `Jobs::Fixed(2)`.
const SERVER_WORKERS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Checks per `/batch` request.
const BATCH_OPS: usize = 25;
/// Ops generated per client before timing; the window ends long before.
const MAX_OPS: usize = 200_000;
/// Views a client keeps registered before its edits turn into drops.
const LIVE_VIEWS: usize = 8;
/// Zipf exponent of pair popularity.
const ZIPF_S: f64 = 1.0;
/// Fresh-query checks and view adds per client whose verdicts are
/// recomputed on the reference session (warm pairs, batches and drops are
/// all checked).
const FRESH_VERIFIED: usize = 400;
const ADDS_VERIFIED: usize = 20;
/// Requests of client 0 replayed in-process by the traced run.
const REPLAY_OPS: usize = 2_000;
const SCHEMA: &str = "xmark";

/// One pre-generated client operation.
#[derive(Clone, Copy)]
enum Op {
    /// Check of hot pair `p` (index into [`Inputs::pairs`]).
    Check(u16),
    /// Check of generated query `texts[i]` against update `u`.
    Fresh(u32, u8),
    /// `/batch` of the 25 pairs at `batches[25 b ..]`.
    Batch(u32),
    /// Register `texts[i]` as view `<client>v<i>`.
    AddView(u32),
    /// Drop view `<client>v<i>`.
    Drop(u32),
}

struct ClientInputs {
    ops: Vec<Op>,
    texts: Vec<String>,
    batches: Vec<u16>,
}

struct Inputs {
    /// The XMark schema source as the daemon loads it.
    schema_src: String,
    /// View and update sources, pre-escaped as JSON strings.
    views_json: Vec<String>,
    updates_json: Vec<String>,
    views_src: Vec<&'static str>,
    updates_src: Vec<&'static str>,
    /// All 36 × 31 (view, update) pairs, most popular first.
    pairs: Vec<(u8, u8)>,
    clients: Vec<ClientInputs>,
    /// The set-up request bodies: load the schema, register the workload.
    schema_body: String,
    registration: String,
}

fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn generate(seed: u64) -> Inputs {
    let dtd = xmark_dtd();
    let labels: Vec<String> = dtd.alphabet().map(|s| dtd.name(s).to_string()).collect();
    let views = all_views();
    let updates = all_updates();
    let mut pairs: Vec<(u8, u8)> = (0..views.len())
        .flat_map(|v| (0..updates.len()).map(move |u| (v as u8, u as u8)))
        .collect();
    // Which pairs are hot is part of the workload, not of the seed: a fixed
    // shuffle ranks them, and the seed only draws the requests.
    let mut rank_rng = StdRng::seed_from_u64(0x005E_7E0F_8A1E);
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rank_rng.random_range(0..=i));
    }
    let mut cdf: Vec<f64> = (1..=pairs.len())
        .scan(0.0, |acc, r| {
            *acc += 1.0 / (r as f64).powf(ZIPF_S);
            Some(*acc)
        })
        .collect();
    let total = *cdf.last().expect("pairs exist");
    cdf.iter_mut().for_each(|c| *c /= total);
    let zipf = |rng: &mut StdRng| {
        let x = unit(rng);
        cdf.partition_point(|&c| c < x).min(cdf.len() - 1) as u16
    };
    let clients = (0..CLIENTS)
        .map(|client| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9) ^ client as u64);
            let mut c = ClientInputs {
                ops: Vec::with_capacity(MAX_OPS),
                texts: Vec::new(),
                batches: Vec::new(),
            };
            let mut live: VecDeque<u32> = VecDeque::new();
            for _ in 0..MAX_OPS {
                let op = match rng.random_range(0..100u32) {
                    0..=79 => Op::Check(zipf(&mut rng)),
                    80..=89 => {
                        c.texts.push(random_query(&labels, &mut rng));
                        let u = rng.random_range(0..updates.len()) as u8;
                        Op::Fresh(c.texts.len() as u32 - 1, u)
                    }
                    90..=94 => {
                        for _ in 0..BATCH_OPS {
                            c.batches.push(zipf(&mut rng));
                        }
                        Op::Batch((c.batches.len() / BATCH_OPS) as u32 - 1)
                    }
                    _ => {
                        let drop =
                            live.len() >= LIVE_VIEWS || (!live.is_empty() && rng.random_bool(0.5));
                        match live.pop_front().filter(|_| drop) {
                            Some(i) => Op::Drop(i),
                            None => {
                                c.texts.push(random_query(&labels, &mut rng));
                                let i = c.texts.len() as u32 - 1;
                                live.push_back(i);
                                Op::AddView(i)
                            }
                        }
                    }
                };
                c.ops.push(op);
            }
            c
        })
        .collect();
    let schema_src = dtd.to_compact();
    let views_json: Vec<String> = views.iter().map(|v| Json::str(v.source).render()).collect();
    let updates_json: Vec<String> = updates
        .iter()
        .map(|u| Json::str(u.source).render())
        .collect();
    let register = |cmd: &str, name: &str, expr: &str| {
        format!("{{\"cmd\":\"{cmd}\",\"name\":\"{name}\",\"expr\":{expr}}}")
    };
    let ops: Vec<String> = updates
        .iter()
        .zip(&updates_json)
        .map(|(u, e)| register("update", u.name, e))
        .chain(
            views
                .iter()
                .zip(&views_json)
                .map(|(v, e)| register("view", v.name, e)),
        )
        .collect();
    Inputs {
        schema_body: format!(
            "{{\"name\":\"{SCHEMA}\",\"dtd\":{},\"start\":\"site\"}}",
            Json::str(schema_src.as_str()).render()
        ),
        registration: format!("{{\"ops\":[{}]}}", ops.join(",")),
        schema_src,
        views_json,
        updates_json,
        views_src: views.iter().map(|v| v.source).collect(),
        updates_src: updates.iter().map(|u| u.source).collect(),
        pairs,
        clients,
    }
}

impl Inputs {
    fn check_json(&self, pair: u16) -> String {
        let (v, u) = self.pairs[pair as usize];
        format!(
            "{{\"cmd\":\"check\",\"query\":{},\"update\":{}}}",
            self.views_json[v as usize], self.updates_json[u as usize]
        )
    }

    /// The request path and JSON body of `op` for client `who` (the name
    /// prefix of its views).
    fn render(&self, c: &ClientInputs, who: &str, op: Op) -> (&'static str, String) {
        let session = "/sessions/xmark";
        match op {
            Op::Check(p) => (session, self.check_json(p)),
            Op::Fresh(i, u) => (
                session,
                format!(
                    "{{\"cmd\":\"check\",\"query\":{},\"update\":{}}}",
                    Json::str(c.texts[i as usize].as_str()).render(),
                    self.updates_json[u as usize]
                ),
            ),
            Op::Batch(b) => {
                let start = b as usize * BATCH_OPS;
                let ops: Vec<String> = c.batches[start..start + BATCH_OPS]
                    .iter()
                    .map(|&p| self.check_json(p))
                    .collect();
                (
                    "/sessions/xmark/batch",
                    format!("{{\"ops\":[{}]}}", ops.join(",")),
                )
            }
            Op::AddView(i) => (
                session,
                format!(
                    "{{\"cmd\":\"view\",\"name\":\"{who}v{i}\",\"expr\":{}}}",
                    Json::str(c.texts[i as usize].as_str()).render()
                ),
            ),
            Op::Drop(i) => (
                session,
                format!("{{\"cmd\":\"drop\",\"name\":\"{who}v{i}\"}}"),
            ),
        }
    }
}

fn hash_str(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

fn http_request(path: &str, body: &str, close: bool) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n{}\r\n{body}",
        body.len(),
        if close { "Connection: close\r\n" } else { "" }
    )
}

/// Reads one HTTP response: status and body.
fn read_response(reader: &mut impl BufRead) -> Result<(u16, String), String> {
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let mut length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        if line == "\r\n" || line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                length = v.trim().parse().map_err(|_| "bad Content-Length")?;
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).map_err(|e| e.to_string())?;
    String::from_utf8(body)
        .map_err(|e| e.to_string())
        .map(|b| (status, b))
}

/// One request on a fresh connection that the server closes afterwards.
fn post_once(addr: SocketAddr, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .write_all(http_request(path, body, true).as_bytes())
        .map_err(|e| e.to_string())?;
    read_response(&mut BufReader::new(stream))
}

/// A running daemon.
struct Daemon {
    registry: Arc<SessionRegistry>,
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    shutdown: Arc<std::sync::atomic::AtomicBool>,
    thread: JoinHandle<Result<(), String>>,
}

impl Daemon {
    /// Bind, load the schema and register the cold 36 × 31 workload.
    fn start(inputs: &Inputs) -> Result<Daemon, String> {
        let registry = Arc::new(SessionRegistry::new(
            AnalyzerConfig::default(),
            Jobs::Fixed(2),
        ));
        let server = Server::bind(
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: SERVER_WORKERS,
                ..ServeConfig::default()
            },
            Arc::clone(&registry),
        )?;
        let addr = server.local_addr()?;
        let stats = server.stats_handle();
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        let daemon = Daemon {
            registry,
            addr,
            stats,
            shutdown,
            thread,
        };
        let loaded = post_once(addr, "/schemas", &inputs.schema_body);
        let registered =
            loaded.and_then(|_| post_once(addr, "/sessions/xmark/batch", &inputs.registration));
        match registered {
            Ok((200, body)) if !body.contains("\"ok\":false") => Ok(daemon),
            other => {
                daemon.stop()?;
                Err(format!("registration failed: {other:?}"))
            }
        }
    }

    fn session_stats(&self) -> SessionStats {
        self.registry
            .get(SCHEMA)
            .expect("schema loaded")
            .with_read(|h| h.session().stats())
    }

    fn stop(self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
    }
}

/// One request as the client saw it.
struct Rec {
    op: Op,
    status: u16,
    rtt: Duration,
    hash: u64,
    verdicts: u32,
    independent: u32,
}

struct ClientLog {
    recs: Vec<Rec>,
    /// Time in the client's own code: rendering and response decoding.
    own: Duration,
    error: Option<String>,
}

fn count(haystack: &str, needle: &str) -> u32 {
    haystack.matches(needle).count() as u32
}

fn client(
    inputs: &Inputs,
    who: usize,
    addr: SocketAddr,
    start: Instant,
    window: Duration,
) -> ClientLog {
    let c = &inputs.clients[who];
    let prefix = format!("c{who}");
    let mut log = ClientLog {
        recs: Vec::new(),
        own: Duration::ZERO,
        error: None,
    };
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            log.error = Some(e.to_string());
            return log;
        }
    };
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            log.error = Some(e.to_string());
            return log;
        }
    };
    let mut reader = BufReader::new(stream);
    for &op in &c.ops {
        let t0 = Instant::now();
        if t0.duration_since(start) >= window {
            break;
        }
        let (path, body) = inputs.render(c, &prefix, op);
        let request = http_request(path, &body, false);
        let sent = Instant::now();
        let response = writer
            .write_all(request.as_bytes())
            .map_err(|e| e.to_string())
            .and_then(|_| read_response(&mut reader));
        let received = Instant::now();
        let (status, body) = match response {
            Ok(r) => r,
            Err(e) => {
                log.error = Some(e);
                break;
            }
        };
        let rec = Rec {
            op,
            status,
            rtt: received - sent,
            hash: hash_str(&body),
            verdicts: count(&body, "\"type\":\"verdict\""),
            independent: count(&body, "\"independent\":true"),
        };
        log.recs.push(rec);
        let done = Instant::now();
        log.own += (sent - t0) + (done - received);
    }
    log
}

/// The verdict the daemon must serve for `(query, update)`: what a fresh
/// in-process session answers, wrapped as the protocol does.
fn expected_check(session: &AnalysisSession<'_, Dtd>, query: &str, update: &str) -> Response {
    let q = match parse_query(query) {
        Ok(q) => q,
        Err(e) => return Response::error(format!("{query}: {e}")),
    };
    let u = match parse_update(update) {
        Ok(u) => u,
        Err(e) => return Response::error(format!("{update}: {e}")),
    };
    let v = session.check(&q, &u);
    Response::Check {
        independent: v.is_independent(),
        k: v.k,
        k_query: v.k_query,
        k_update: v.k_update,
        engine: format!("{:?}", v.engine_used),
        witness: v.witness.as_ref().map(|w| format!("{w:?}")),
    }
}

/// Re-derives every checked response; returns the number that differ.
fn verify(inputs: &Inputs, logs: &[ClientLog]) -> u64 {
    let dtd = Dtd::parse_compact(&inputs.schema_src, "site").expect("XMark compact source parses");
    let session = SessionBuilder::new(&dtd).build();
    let updates = all_updates();
    let mut pair_memo: HashMap<u16, Response> = HashMap::new();
    let mut pair = |p: u16| -> Response {
        pair_memo
            .entry(p)
            .or_insert_with(|| {
                let (v, u) = inputs.pairs[p as usize];
                expected_check(
                    &session,
                    inputs.views_src[v as usize],
                    inputs.updates_src[u as usize],
                )
            })
            .clone()
    };
    let mut wrong = 0u64;
    for (who, log) in logs.iter().enumerate() {
        let c = &inputs.clients[who];
        let (mut fresh_seen, mut adds_seen) = (0usize, 0usize);
        for rec in &log.recs {
            if rec.status != 200 {
                wrong += 1;
                continue;
            }
            let expected = match rec.op {
                Op::Check(p) => Some(pair(p)),
                Op::Batch(b) => {
                    let start = b as usize * BATCH_OPS;
                    Some(Response::Batch(
                        c.batches[start..start + BATCH_OPS]
                            .iter()
                            .map(|&p| pair(p))
                            .collect(),
                    ))
                }
                Op::Fresh(i, u) => {
                    fresh_seen += 1;
                    (fresh_seen <= FRESH_VERIFIED).then(|| {
                        expected_check(
                            &session,
                            &c.texts[i as usize],
                            inputs.updates_src[u as usize],
                        )
                    })
                }
                Op::AddView(i) => {
                    adds_seen += 1;
                    let text = &c.texts[i as usize];
                    match parse_query(text) {
                        Ok(q) if adds_seen <= ADDS_VERIFIED => Some(Response::ViewAdded {
                            name: format!("c{who}v{i}"),
                            independent: updates
                                .iter()
                                .filter(|u| session.check(&q, &u.update).is_independent())
                                .count(),
                            total_updates: inputs.updates_src.len(),
                        }),
                        Ok(_) => None,
                        Err(e) => Some(Response::error(format!("{text}: {e}"))),
                    }
                }
                Op::Drop(i) => Some(Response::Dropped {
                    kind: "view",
                    name: format!("c{who}v{i}"),
                }),
            };
            if let Some(expected) = expected {
                if hash_str(&expected.to_json().render()) != rec.hash
                    || matches!(expected, Response::Error { .. })
                {
                    wrong += 1;
                }
            }
        }
    }
    wrong
}

fn is_check(op: Op) -> bool {
    matches!(op, Op::Check(_) | Op::Fresh(..))
}

fn is_edit(op: Op) -> bool {
    matches!(op, Op::AddView(_) | Op::Drop(_))
}

/// The traced replay: client 0's first requests decoded, handled in
/// process by the daemon's `SharedSession`, and encoded again. Returns
/// the p50 decode, handle and encode times of checks (µs) and the p50
/// handle time of edits (ms).
fn replay(inputs: &Inputs, daemon: &Daemon, log: &ClientLog) -> (f64, f64, f64, f64) {
    let shared = daemon.registry.get(SCHEMA).expect("schema loaded");
    let c = &inputs.clients[0];
    let (mut decode, mut handle, mut encode, mut edits) = (vec![], vec![], vec![], vec![]);
    for rec in log.recs.iter().take(REPLAY_OPS) {
        // Edits replay under their own names so they do not collide with
        // the views the window registered.
        let (path, body) = inputs.render(c, "r0", rec.op);
        let t = Instant::now();
        let request = Json::parse(&body).and_then(|v| {
            if path.ends_with("/batch") {
                let ops = v.get("ops").cloned().unwrap_or(Json::Null);
                Request::from_json(&Json::Obj(vec![
                    ("cmd".into(), Json::str("batch")),
                    ("ops".into(), ops),
                ]))
            } else {
                Request::from_json(&v)
            }
        });
        let decoded = t.elapsed();
        let Ok(request) = request else { continue };
        let t = Instant::now();
        let response = shared.handle(&request);
        let handled = t.elapsed();
        let t = Instant::now();
        std::hint::black_box(response.to_json().render());
        let encoded = t.elapsed();
        if is_check(rec.op) {
            decode.push(us(decoded));
            handle.push(us(handled));
            encode.push(us(encoded));
        } else if is_edit(rec.op) {
            edits.push(ms(handled));
        }
    }
    (
        median(&decode),
        median(&handle),
        median(&encode),
        median(&edits),
    )
}

pub fn run(cfg: &Config) -> Outcome {
    let inputs = generate(cfg.seed);

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = daemon.take() {
            Daemon::stop(previous).unwrap_or_else(|e| fatal(&e));
        }
        let start = Instant::now();
        let d = Daemon::start(&inputs).unwrap_or_else(|e| fatal(&e));
        setups.push(start.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");

    let stats_before = daemon.session_stats();
    let requests_before = daemon.stats.requests.load(Ordering::Relaxed);
    let rejected_before = daemon.stats.rejected.load(Ordering::Relaxed);
    let window = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|who| {
                let inputs = &inputs;
                let addr = daemon.addr;
                s.spawn(move || client(inputs, who, addr, start, window))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let stats_after = daemon.session_stats();
    let requests = daemon.stats.requests.load(Ordering::Relaxed) - requests_before;
    let rejected = daemon.stats.rejected.load(Ordering::Relaxed) - rejected_before;

    let mut out = Outcome::default();
    let mut check_us = Vec::new();
    let mut edit_ms = Vec::new();
    let mut batch_ms = Vec::new();
    let (mut verdicts, mut independent, mut sent) = (0u64, 0u64, 0u64);
    let mut own = Duration::ZERO;
    for log in &logs {
        if let Some(e) = &log.error {
            eprintln!("client error: {e}");
            out.failed += 1;
        }
        own += log.own;
        for rec in &log.recs {
            sent += 1;
            verdicts += u64::from(rec.verdicts);
            independent += u64::from(rec.independent);
            match rec.op {
                Op::Check(_) | Op::Fresh(..) => check_us.push(us(rec.rtt)),
                Op::Batch(_) => batch_ms.push(ms(rec.rtt)),
                Op::AddView(_) | Op::Drop(_) => edit_ms.push(ms(rec.rtt)),
            }
        }
    }
    out.attempted = sent;
    out.failed += verify(&inputs, &logs) + rejected as u64;

    let throughput = frac(verdicts as f64, window_s);
    let check_p50 = percentile(&check_us, 0.5);
    let check_p99 = percentile(&check_us, 0.99);
    out.name("checks_per_s", throughput, "1/s");
    out.name("check_p50_us", check_p50, "us");
    out.name("check_p99_us", check_p99, "us");
    out.name("edit_p50_ms", percentile(&edit_ms, 0.5), "ms");
    out.name("edit_p90_ms", percentile(&edit_ms, 0.9), "ms");
    out.name("batch_p50_ms", percentile(&batch_ms, 0.5), "ms");
    out.name("requests_sent", sent as f64, "count");
    out.name("check_samples", check_us.len() as f64, "count");
    out.name("edit_samples", edit_ms.len() as f64, "count");
    out.name("setup_reps", SETUP_REPS as f64, "count");
    out.name("peak_rss_mb", rss, "MB");
    out.layers.insert("process.peak_rss_mb", rss);
    out.end_to_end.insert("setup_s", median(&setups));
    out.setup_samples = setups;
    out.end_to_end.insert("throughput_per_s", throughput);
    out.end_to_end.insert("latency_p50_ms", check_p50 / 1e3);
    out.end_to_end.insert("latency_p99_ms", check_p99 / 1e3);
    out.end_to_end.insert(
        "independent_frac",
        frac(independent as f64, verdicts as f64),
    );

    if cfg.trace {
        let (decode, handle, encode, edit) = replay(&inputs, &daemon, &logs[0]);
        let s = stats_after;
        let b = stats_before;
        let cdag_inf = s.cdag_inferences - b.cdag_inferences;
        let cdag_hits = s.cdag_cache_hits - b.cdag_cache_hits;
        let expl_inf = s.explicit_inferences - b.explicit_inferences;
        let expl_hits = s.explicit_cache_hits - b.explicit_cache_hits;
        let l = &mut out.layers;
        l.insert("session.cdag_inferences", cdag_inf as f64);
        l.insert(
            "session.cdag_hit_frac",
            frac(cdag_hits as f64, (cdag_hits + cdag_inf) as f64),
        );
        l.insert("session.explicit_inferences", expl_inf as f64);
        l.insert(
            "session.explicit_hit_frac",
            frac(expl_hits as f64, (expl_hits + expl_inf) as f64),
        );
        l.insert(
            "session.cells_computed",
            (s.cells_computed - b.cells_computed) as f64,
        );
        l.insert("protocol.decode_us", decode);
        l.insert("protocol.encode_us", encode);
        l.insert("session.handle_check_us_p50", handle);
        l.insert("session.handle_edit_ms_p50", edit);
        l.insert("service.requests", requests as f64);
        l.insert("service.rejected", rejected as f64);
        l.insert(
            "service.http_us_p50",
            (check_p50 - handle - decode - encode).max(0.0),
        );
        l.insert("client.us_per_req", frac(us(own), sent as f64));
        // The traced window runs exactly the untraced code; the replay
        // runs after it.
        l.insert("trace.overhead_frac", 0.0);
    }
    daemon.stop().unwrap_or_else(|e| fatal(&e));
    out
}

fn fatal(message: &str) -> ! {
    eprintln!("xmark-serve: {message}");
    std::process::exit(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_seeded_and_well_formed() {
        let a = generate(3);
        let b = generate(3);
        assert_eq!(a.clients[0].texts[..50], b.clients[0].texts[..50]);
        assert_eq!(a.pairs.len(), 36 * 31);
        // Every drop names a view the same client added earlier.
        for c in &a.clients {
            let mut live = std::collections::HashSet::new();
            for op in &c.ops {
                match *op {
                    Op::AddView(i) => assert!(live.insert(i)),
                    Op::Drop(i) => assert!(live.remove(&i)),
                    _ => {}
                }
            }
        }
        let (path, body) = a.render(&a.clients[0], "c0", Op::Batch(0));
        assert!(path.ends_with("/batch"));
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(
            parsed.get("ops").and_then(Json::as_arr).unwrap().len(),
            BATCH_OPS
        );
    }

    #[test]
    fn a_short_window_serves_verified_verdicts() {
        let outcome = run(&Config {
            seed: 2,
            seconds: 0.5,
            trace: true,
        });
        assert!(outcome.attempted > 0);
        assert_eq!(outcome.failed, 0);
        assert!(outcome.end_to_end["throughput_per_s"] > 0.0);
        assert!(outcome.layers["service.requests"] > 0.0);
    }
}
