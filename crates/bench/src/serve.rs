//! The serving perf harness: CI-gated evidence that the session's `&self`
//! read path actually scales — the acceptance criterion of the concurrent
//! `AnalysisSession` redesign.
//!
//! `cargo run -p qui-bench --bin serve --release` measures, on a warm
//! session over the XMark workload:
//!
//! * **single-thread throughput** — one thread running ad-hoc `check()`
//!   calls over a fixed pair set on a warm session (checks/sec, p50/p99
//!   latency). Every pair was checked while warming, so this loop times
//!   the session's verdict memo (one hash lookup and an equality test per
//!   check); the cost of the conflict tests stays gated by the `session`
//!   harness's warm `recompute`, which never reads the memo;
//! * **multi-thread throughput** — N client threads hammering `check()` on
//!   the *same shared session* (`&self`, no outer lock), same pair set,
//!   checks/sec and tail latency again. With ≥ 4 hardware workers the
//!   threaded run must deliver ≥ 3× the single-thread rate — the gate that
//!   would catch an accidental global lock on the read path;
//! * **bit-identity under concurrency** — every threaded verdict is
//!   compared field-for-field (witnesses included) against the
//!   single-thread reference; mismatches must be 0;
//! * **HTTP round-trip throughput** — keep-alive clients driving the
//!   `qui serve` daemon end to end (socket, HTTP parse, JSON protocol,
//!   session dispatch), reported as requests/sec.
//!
//! The JSON artifact (`BENCH_serve.json`, committed reference in
//! `ci/BENCH_serve.json`) feeds the `perf-serve` CI job. Thresholds are
//! env-tunable: `QUI_SERVE_MIN_SPEEDUP` (default 3.0, enforced only with
//! ≥ 4 workers — single-core environments cannot scale reads),
//! `QUI_SERVE_TOLERANCE` (default 0.25, normalized-cost regression vs the
//! committed reference). Regenerate the committed file with
//! `--out ci/BENCH_serve.json` when the engine legitimately changes cost.

use crate::baseline::calibrate;
use qui_core::parallel::Jobs;
use qui_core::{
    AnalysisSession, AnalyzerConfig, ServeConfig, Server, SessionBuilder, SessionRegistry, Verdict,
};
use qui_schema::Dtd;
use qui_workloads::{all_updates, all_views, xmark_dtd};
use qui_xquery::{Query, Update};
use std::fmt::Write as _;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pair-set shape: the first `PAIR_VIEWS` views × the first `PAIR_UPDATES`
/// updates of the XMark workload.
const PAIR_VIEWS: usize = 12;
const PAIR_UPDATES: usize = 8;
/// Passes over the pair set per measured run (per thread).
const ROUNDS: usize = 10;
/// Keep-alive requests per HTTP client connection.
const HTTP_REQUESTS_PER_CLIENT: usize = 150;
const HTTP_CLIENTS: usize = 2;
/// Check ops carried by one `/batch` request, and batched requests per
/// client, sized so the batched run performs the same number of checks as
/// the one-op-per-request run.
const BATCH_OPS: usize = 25;
const HTTP_BATCH_REQUESTS_PER_CLIENT: usize = HTTP_REQUESTS_PER_CLIENT / BATCH_OPS;

/// The full harness report (times in milliseconds, latencies in
/// microseconds; minima over reps).
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Hardware workers (`available_parallelism`) — the speedup gate only
    /// applies with at least 4.
    pub workers: usize,
    /// Wall time of the fixed CPU-calibration workload on this machine.
    pub calibration_ms: f64,
    /// Distinct (query, update) pairs in the check set.
    pub pairs: usize,
    /// Client threads used for the threaded run.
    pub client_threads: usize,
    /// Checks performed by the single-thread run.
    pub single_checks: usize,
    /// Wall time of the single-thread run.
    pub single_ms: f64,
    /// Single-thread throughput.
    pub single_checks_per_sec: f64,
    /// Single-thread tail latency (p99, microseconds).
    pub single_p99_us: f64,
    /// Checks performed across all client threads.
    pub threaded_checks: usize,
    /// Wall time of the threaded run.
    pub threaded_ms: f64,
    /// Threaded throughput (all threads combined).
    pub threaded_checks_per_sec: f64,
    /// Threaded tail latency (p99, microseconds).
    pub threaded_p99_us: f64,
    /// `threaded_checks_per_sec / single_checks_per_sec`.
    pub concurrent_speedup: f64,
    /// Threaded verdicts differing from the single-thread reference in any
    /// field (must be 0).
    pub verdict_mismatches: usize,
    /// HTTP requests served in the round-trip measurement.
    pub http_requests: usize,
    /// Wall time of the HTTP measurement.
    pub http_ms: f64,
    /// End-to-end HTTP throughput (keep-alive, warm session).
    pub http_requests_per_sec: f64,
    /// Check ops served through `/sessions/<name>/batch` (25 ops per
    /// request; same total check count as the one-op run).
    pub http_batch_ops: usize,
    /// Wall time of the batched HTTP measurement.
    pub http_batch_ms: f64,
    /// Check ops per second through the batch endpoint — the HTTP-parse
    /// amortization the endpoint exists for.
    pub http_batch_ops_per_sec: f64,
    /// `single_ms / calibration_ms` — the machine-normalized cost the
    /// regression gate tracks.
    pub norm_cost: f64,
}

impl ServeReport {
    /// Serializes the report as pretty-printed JSON (hand-rolled: the
    /// workspace is dependency-free by construction).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema_version\": 1,");
        let _ = writeln!(s, "  \"workers\": {},", self.workers);
        let _ = writeln!(s, "  \"calibration_ms\": {:.3},", self.calibration_ms);
        let _ = writeln!(s, "  \"pairs\": {},", self.pairs);
        let _ = writeln!(s, "  \"client_threads\": {},", self.client_threads);
        let _ = writeln!(s, "  \"single_checks\": {},", self.single_checks);
        let _ = writeln!(s, "  \"single_ms\": {:.3},", self.single_ms);
        let _ = writeln!(
            s,
            "  \"single_checks_per_sec\": {:.1},",
            self.single_checks_per_sec
        );
        let _ = writeln!(s, "  \"single_p99_us\": {:.1},", self.single_p99_us);
        let _ = writeln!(s, "  \"threaded_checks\": {},", self.threaded_checks);
        let _ = writeln!(s, "  \"threaded_ms\": {:.3},", self.threaded_ms);
        let _ = writeln!(
            s,
            "  \"threaded_checks_per_sec\": {:.1},",
            self.threaded_checks_per_sec
        );
        let _ = writeln!(s, "  \"threaded_p99_us\": {:.1},", self.threaded_p99_us);
        let _ = writeln!(
            s,
            "  \"concurrent_speedup\": {:.3},",
            self.concurrent_speedup
        );
        let _ = writeln!(s, "  \"verdict_mismatches\": {},", self.verdict_mismatches);
        let _ = writeln!(s, "  \"http_requests\": {},", self.http_requests);
        let _ = writeln!(s, "  \"http_ms\": {:.3},", self.http_ms);
        let _ = writeln!(
            s,
            "  \"http_requests_per_sec\": {:.1},",
            self.http_requests_per_sec
        );
        let _ = writeln!(s, "  \"http_batch_ops\": {},", self.http_batch_ops);
        let _ = writeln!(s, "  \"http_batch_ms\": {:.3},", self.http_batch_ms);
        let _ = writeln!(
            s,
            "  \"http_batch_ops_per_sec\": {:.1},",
            self.http_batch_ops_per_sec
        );
        let _ = writeln!(s, "  \"norm_cost\": {:.4}", self.norm_cost);
        let _ = writeln!(s, "}}");
        s
    }

    /// Renders a human-readable summary of the measurements.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "serve harness — {} pairs, {} workers, calibration {:.1} ms, norm cost {:.3}",
            self.pairs, self.workers, self.calibration_ms, self.norm_cost
        );
        let _ = writeln!(
            s,
            "single thread : {} checks in {:.2} ms — {:.0} checks/s (p99 {:.1} us)",
            self.single_checks, self.single_ms, self.single_checks_per_sec, self.single_p99_us
        );
        let _ = writeln!(
            s,
            "{} threads     : {} checks in {:.2} ms — {:.0} checks/s (p99 {:.1} us), {:.2}x, {} mismatches",
            self.client_threads,
            self.threaded_checks,
            self.threaded_ms,
            self.threaded_checks_per_sec,
            self.threaded_p99_us,
            self.concurrent_speedup,
            self.verdict_mismatches
        );
        let _ = writeln!(
            s,
            "http          : {} requests in {:.2} ms — {:.0} req/s (keep-alive, {} clients)",
            self.http_requests, self.http_ms, self.http_requests_per_sec, HTTP_CLIENTS
        );
        let _ = writeln!(
            s,
            "http batch    : {} check ops in {:.2} ms — {:.0} ops/s ({} ops/request)",
            self.http_batch_ops, self.http_batch_ms, self.http_batch_ops_per_sec, BATCH_OPS
        );
        s
    }
}

/// The p-th percentile (0..=1) of the latency samples, in microseconds.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((samples.len() as f64 - 1.0) * p).round() as usize;
    samples[idx.min(samples.len() - 1)]
}

/// One measured run: `threads` client threads × `rounds` passes over the
/// pair set, each thread starting at a different offset so cold cache
/// entries are raced, not visited in lockstep. Returns wall-clock ms, the
/// per-check latencies (us) and the count of verdicts that differ from
/// `expected`.
pub fn run_checks(
    session: &AnalysisSession<'_, Dtd>,
    pairs: &[(Query, Update)],
    expected: &[Verdict],
    threads: usize,
    rounds: usize,
) -> (f64, Vec<f64>, usize) {
    let start = Instant::now();
    let per_thread: Vec<(Vec<f64>, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut latencies = Vec::with_capacity(rounds * pairs.len());
                    let mut mismatches = 0usize;
                    for _ in 0..rounds {
                        for i in 0..pairs.len() {
                            let i = (i + t * 7) % pairs.len();
                            let (q, u) = &pairs[i];
                            let begin = Instant::now();
                            let v = session.check(q, u);
                            latencies.push(begin.elapsed().as_secs_f64() * 1e6);
                            if v != expected[i] {
                                mismatches += 1;
                            }
                        }
                    }
                    (latencies, mismatches)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut latencies = Vec::new();
    let mut mismatches = 0;
    for (l, m) in per_thread {
        latencies.extend(l);
        mismatches += m;
    }
    (wall_ms, latencies, mismatches)
}

/// Opens one keep-alive connection to the serve harness, read through one
/// buffer for its whole life.
fn connect(addr: std::net::SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect to serve harness");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    BufReader::new(stream)
}

/// Reads one response from `reader`: its head, which must carry status 200,
/// then exactly `Content-Length` bytes of body, which it returns.
fn read_response(reader: &mut BufReader<TcpStream>) -> Vec<u8> {
    let mut head = String::new();
    while !head.ends_with("\r\n\r\n") {
        let read = reader.read_line(&mut head).expect("response head");
        assert!(read > 0, "connection closed inside a response head: {head}");
    }
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    let mut payload = vec![0u8; length];
    reader.read_exact(&mut payload).unwrap();
    payload
}

/// One keep-alive HTTP client: `requests` POSTed checks on one connection,
/// asserting 200s all the way. Returns the number of responses read.
fn http_client(addr: std::net::SocketAddr, requests: usize) -> usize {
    let mut stream = connect(addr);
    let body = "{\"cmd\":\"check\",\"query\":\"//a//c\",\"update\":\"delete //b//c\"}";
    let request = format!(
        "POST /sessions/bench HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut served = 0;
    for _ in 0..requests {
        stream.get_mut().write_all(request.as_bytes()).unwrap();
        read_response(&mut stream);
        served += 1;
    }
    served
}

/// One keep-alive batch client: `requests` POSTs to the session's `/batch`
/// endpoint, each carrying `ops` check operations. Returns the number of
/// per-op results acknowledged across all responses.
fn http_batch_client(addr: std::net::SocketAddr, requests: usize, ops: usize) -> usize {
    let mut stream = connect(addr);
    let op = "{\"cmd\":\"check\",\"query\":\"//a//c\",\"update\":\"delete //b//c\"}";
    let body = format!("{{\"ops\":[{}]}}", vec![op; ops].join(","));
    let request = format!(
        "POST /sessions/bench/batch HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut acknowledged = 0;
    for _ in 0..requests {
        stream.get_mut().write_all(request.as_bytes()).unwrap();
        let payload = read_response(&mut stream);
        let v = qui_core::Json::parse(std::str::from_utf8(&payload).unwrap())
            .expect("batch response JSON");
        let results = v
            .get("results")
            .and_then(qui_core::Json::as_arr)
            .expect("batch results array");
        assert!(results
            .iter()
            .all(|r| r.get("independent").and_then(qui_core::Json::as_bool) == Some(true)));
        acknowledged += results.len();
    }
    acknowledged
}

/// Measures end-to-end HTTP throughput against a daemon with `workers`
/// worker threads: `HTTP_CLIENTS` keep-alive clients × one check per
/// request, then the same total check count through the `/batch` endpoint
/// at [`BATCH_OPS`] ops per request. Returns
/// (requests served, wall ms, batch ops served, batch wall ms).
fn run_http(workers: usize) -> (usize, f64, usize, f64) {
    let registry = Arc::new(SessionRegistry::new(
        AnalyzerConfig::default(),
        Jobs::Fixed(1),
    ));
    registry
        .load_schema("bench", "doc -> (a|b)* ; a -> c ; b -> c", Some("doc"))
        .expect("bench schema");
    let server = Server::bind(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            ..Default::default()
        },
        registry,
    )
    .expect("bind serve harness");
    let addr = server.local_addr().expect("local addr");
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().expect("serve run"));
    // Warm the session (and the accept path) outside the timed window.
    http_client(addr, 3);
    let start = Instant::now();
    let served: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..HTTP_CLIENTS)
            .map(|_| s.spawn(move || http_client(addr, HTTP_REQUESTS_PER_CLIENT)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let batch_ops: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..HTTP_CLIENTS)
            .map(|_| {
                s.spawn(move || http_batch_client(addr, HTTP_BATCH_REQUESTS_PER_CLIENT, BATCH_OPS))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let batch_ms = start.elapsed().as_secs_f64() * 1e3;
    shutdown.store(true, Ordering::SeqCst);
    handle.join().unwrap();
    (served, wall_ms, batch_ops, batch_ms)
}

/// Runs the full harness (`reps` repetitions per timing, best kept).
pub fn run_serve(reps: usize) -> ServeReport {
    let dtd = xmark_dtd();
    let pairs: Vec<(Query, Update)> = all_views()
        .into_iter()
        .take(PAIR_VIEWS)
        .flat_map(|v| {
            all_updates()
                .into_iter()
                .take(PAIR_UPDATES)
                .map(move |u| (v.query.clone(), u.update))
        })
        .collect();
    let calibration_ms = calibrate();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let client_threads = workers.clamp(2, 8);

    let session = SessionBuilder::new(&dtd).build();
    // Warm every cache and pin the single-thread reference verdicts.
    let expected: Vec<Verdict> = pairs.iter().map(|(q, u)| session.check(q, u)).collect();

    let mut single_ms = f64::MAX;
    let mut threaded_ms = f64::MAX;
    let mut single_p99 = f64::MAX;
    let mut threaded_p99 = f64::MAX;
    let mut mismatches = 0usize;
    let mut http_requests = 0usize;
    let mut http_ms = f64::MAX;
    let mut http_batch_ops = 0usize;
    let mut http_batch_ms = f64::MAX;
    for _ in 0..reps.max(1) {
        let (wall, mut latencies, m) = run_checks(&session, &pairs, &expected, 1, ROUNDS);
        if wall < single_ms {
            single_ms = wall;
            single_p99 = percentile(&mut latencies, 0.99);
        }
        mismatches += m;

        let (wall, mut latencies, m) =
            run_checks(&session, &pairs, &expected, client_threads, ROUNDS);
        if wall < threaded_ms {
            threaded_ms = wall;
            threaded_p99 = percentile(&mut latencies, 0.99);
        }
        mismatches += m;

        let (served, wall, batch_ops, batch_wall) = run_http(client_threads.min(4));
        if wall < http_ms {
            http_ms = wall;
            http_requests = served;
        }
        if batch_wall < http_batch_ms {
            http_batch_ms = batch_wall;
            http_batch_ops = batch_ops;
        }
    }

    let single_checks = ROUNDS * pairs.len();
    let threaded_checks = client_threads * ROUNDS * pairs.len();
    let single_rate = single_checks as f64 / (single_ms / 1e3).max(f64::EPSILON);
    let threaded_rate = threaded_checks as f64 / (threaded_ms / 1e3).max(f64::EPSILON);
    ServeReport {
        workers,
        calibration_ms,
        pairs: pairs.len(),
        client_threads,
        single_checks,
        single_ms,
        single_checks_per_sec: single_rate,
        single_p99_us: single_p99,
        threaded_checks,
        threaded_ms,
        threaded_checks_per_sec: threaded_rate,
        threaded_p99_us: threaded_p99,
        concurrent_speedup: threaded_rate / single_rate.max(f64::EPSILON),
        verdict_mismatches: mismatches,
        http_requests,
        http_ms,
        http_requests_per_sec: http_requests as f64 / (http_ms / 1e3).max(f64::EPSILON),
        http_batch_ops,
        http_batch_ms,
        http_batch_ops_per_sec: http_batch_ops as f64 / (http_batch_ms / 1e3).max(f64::EPSILON),
        norm_cost: single_ms / calibration_ms.max(f64::EPSILON),
    }
}

/// Gate thresholds (see the module docs for the environment overrides).
#[derive(Clone, Copy, Debug)]
pub struct ServeGateConfig {
    /// Required `concurrent_speedup` (threaded over single-thread
    /// throughput), enforced only when the harness ran with ≥ 4 workers.
    pub min_speedup: f64,
    /// Allowed relative regression of `norm_cost` against the committed
    /// reference (0.25 = 25%).
    pub tolerance: f64,
}

impl Default for ServeGateConfig {
    fn default() -> Self {
        ServeGateConfig {
            min_speedup: 3.0,
            tolerance: 0.25,
        }
    }
}

/// The environment variables [`ServeGateConfig::from_env`] reads, colocated
/// with the reader so the `check-refs` binary can cross-check the workflow
/// YAML against the real gate wiring.
pub const GATE_ENV_VARS: &[&str] = &["QUI_SERVE_MIN_SPEEDUP", "QUI_SERVE_TOLERANCE"];

impl ServeGateConfig {
    /// Reads the environment overrides on top of the defaults.
    pub fn from_env() -> Self {
        let mut cfg = ServeGateConfig::default();
        if let Some(v) = env_f64("QUI_SERVE_MIN_SPEEDUP") {
            cfg.min_speedup = v;
        }
        if let Some(v) = env_f64("QUI_SERVE_TOLERANCE") {
            cfg.tolerance = v;
        }
        cfg
    }
}

fn env_f64(key: &str) -> Option<f64> {
    std::env::var(key).ok()?.trim().parse().ok()
}

/// Applies the perf gates; returns the list of failures (empty = pass).
///
/// `committed` is the committed reference's `(norm_cost, pairs)` pair; the
/// regression gate only applies when the measured pair set matches it.
pub fn check_serve_gates(
    report: &ServeReport,
    committed: Option<(f64, usize)>,
    cfg: &ServeGateConfig,
) -> Vec<String> {
    let mut failures = Vec::new();
    if report.verdict_mismatches != 0 {
        failures.push(format!(
            "{} concurrent verdicts diverged from the single-thread reference (must be 0)",
            report.verdict_mismatches
        ));
    }
    if report.workers >= 4 && report.concurrent_speedup < cfg.min_speedup {
        failures.push(format!(
            "threaded check throughput is only {:.2}x single-thread on {} workers, required >= {:.2}x",
            report.concurrent_speedup, report.workers, cfg.min_speedup
        ));
    }
    if report.http_requests == 0 || report.http_requests_per_sec <= 0.0 {
        failures.push("HTTP round-trip measurement served no requests".to_string());
    }
    if let Some((committed_norm, committed_pairs)) = committed {
        if committed_pairs != report.pairs {
            eprintln!(
                "note: regression gate skipped — measured {} pairs, committed reference has {}",
                report.pairs, committed_pairs
            );
            return failures;
        }
        let limit = committed_norm * (1.0 + cfg.tolerance);
        if report.norm_cost > limit {
            failures.push(format!(
                "normalized single-thread check cost regressed: {:.3} vs committed {:.3} (limit {:.3}, tolerance {:.0}%)",
                report.norm_cost,
                committed_norm,
                limit,
                cfg.tolerance * 100.0
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::json_number_field;
    use qui_xquery::{parse_query, parse_update};

    fn tiny_report() -> ServeReport {
        ServeReport {
            workers: 4,
            calibration_ms: 10.0,
            pairs: 96,
            client_threads: 4,
            single_checks: 960,
            single_ms: 100.0,
            single_checks_per_sec: 9600.0,
            single_p99_us: 250.0,
            threaded_checks: 3840,
            threaded_ms: 110.0,
            threaded_checks_per_sec: 34_909.0,
            threaded_p99_us: 400.0,
            concurrent_speedup: 3.64,
            verdict_mismatches: 0,
            http_requests: 300,
            http_ms: 200.0,
            http_requests_per_sec: 1500.0,
            http_batch_ops: 300,
            http_batch_ms: 60.0,
            http_batch_ops_per_sec: 5000.0,
            norm_cost: 10.0,
        }
    }

    #[test]
    fn json_round_trips_the_gate_fields() {
        let json = tiny_report().to_json();
        assert_eq!(json_number_field(&json, "norm_cost"), Some(10.0));
        assert_eq!(json_number_field(&json, "pairs"), Some(96.0));
        assert_eq!(json_number_field(&json, "concurrent_speedup"), Some(3.64));
        assert_eq!(json_number_field(&json, "verdict_mismatches"), Some(0.0));
        assert_eq!(json_number_field(&json, "workers"), Some(4.0));
    }

    #[test]
    fn gates_pass_and_fail_as_configured() {
        let report = tiny_report();
        let cfg = ServeGateConfig::default();
        assert!(check_serve_gates(&report, Some((10.0, 96)), &cfg).is_empty());
        // Normalized-cost regression fails.
        assert_eq!(check_serve_gates(&report, Some((5.0, 96)), &cfg).len(), 1);
        // A committed reference at a different pair count skips regression.
        assert!(check_serve_gates(&report, Some((5.0, 7)), &cfg).is_empty());
        // Verdict mismatches always fail.
        let mut bad = report.clone();
        bad.verdict_mismatches = 2;
        assert!(!check_serve_gates(&bad, None, &cfg).is_empty());
        // Losing the concurrent speedup fails — but only with >= 4 workers.
        let mut slow = report.clone();
        slow.concurrent_speedup = 1.1;
        assert_eq!(check_serve_gates(&slow, None, &cfg).len(), 1);
        slow.workers = 1;
        assert!(check_serve_gates(&slow, None, &cfg).is_empty());
        // A dead HTTP measurement fails.
        let mut dead = report;
        dead.http_requests = 0;
        assert!(!check_serve_gates(&dead, None, &cfg).is_empty());
    }

    #[test]
    fn tiny_concurrent_run_is_consistent() {
        // A reduced pair set keeps the test fast while exercising the whole
        // measurement pipeline (warm-up, threaded run, latency collection,
        // mismatch counting) on the real shared-session path.
        let dtd = Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap();
        let session = SessionBuilder::new(&dtd).build();
        let pairs = vec![
            (
                parse_query("//a//c").unwrap(),
                parse_update("delete //b//c").unwrap(),
            ),
            (
                parse_query("//c").unwrap(),
                parse_update("delete //c").unwrap(),
            ),
        ];
        let expected: Vec<Verdict> = pairs.iter().map(|(q, u)| session.check(q, u)).collect();
        let (wall, latencies, mismatches) = run_checks(&session, &pairs, &expected, 3, 4);
        assert!(wall > 0.0);
        assert_eq!(latencies.len(), 3 * 4 * 2);
        assert_eq!(mismatches, 0);
        let mut l = latencies;
        assert!(percentile(&mut l, 0.99) >= percentile(&mut l.clone(), 0.5));
    }

    #[test]
    fn http_measurement_round_trips() {
        let (served, wall, batch_ops, batch_wall) = run_http(2);
        assert_eq!(served, HTTP_CLIENTS * HTTP_REQUESTS_PER_CLIENT);
        assert!(wall > 0.0);
        assert_eq!(
            batch_ops,
            HTTP_CLIENTS * HTTP_BATCH_REQUESTS_PER_CLIENT * BATCH_OPS
        );
        assert!(batch_wall > 0.0);
    }
}
