//! Concurrency tests for the session's `&self` read path and the serving
//! layer on top of it:
//!
//! * **N-thread bit-identity** — many threads hammering `check()` on one
//!   shared session produce verdicts bit-identical (every `Verdict` field,
//!   witnesses included) to a fresh single-threaded session, across engine
//!   policies and explicit budgets (including the overflow → CDAG fallback);
//! * **interleaved edits** — readers spread over a multi-schema
//!   `SessionRegistry` send checks, batches and matrix reads while another
//!   thread edits every schema's workload: no request errors, every verdict
//!   equals a fresh single-schema check, no matrix is torn, and each final
//!   session state matches a from-scratch `add_workload` on a fresh session;
//! * an HTTP smoke test through the public facade: the wire verdict equals
//!   the in-process one.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use xml_qui::core::parallel::Jobs;
use xml_qui::core::{
    AnalyzerConfig, EngineKind, Json, Request, Response, ServeConfig, Server, SessionBuilder,
    SessionHandler, SessionRegistry, SharedSession, Verdict,
};
use xml_qui::schema::{random_query, random_update, Corpus, Dtd};
use xml_qui::xquery::{parse_query, parse_update, Query, Update};

const FIG1: &str = "doc -> (a|b)* ; a -> c ; b -> c";
/// Heavily recursive: small explicit budgets overflow here, forcing the
/// CDAG fallback inside the concurrent read path.
const RECURSIVE: &str = "a -> (b|c)* ; b -> (b|c)* ; c -> (b|c)*";

const QUERIES: &[&str] = &["//a", "//c", "//b//c", "//a//c", "//b//c//b"];
const UPDATES: &[&str] = &[
    "delete //b//c",
    "delete //c",
    "delete //c//b//c",
    "for $x in //b return insert <d/> into $x",
];

/// The verdict of a fresh one-shot session: the from-scratch reference.
fn fresh_check(dtd: &Dtd, config: &AnalyzerConfig, q: &Query, u: &Update) -> Verdict {
    SessionBuilder::new(dtd)
        .config(config.clone())
        .build()
        .check(q, u)
}

fn pairs() -> Vec<(Query, Update)> {
    QUERIES
        .iter()
        .flat_map(|q| UPDATES.iter().map(move |u| (q, u)))
        .map(|(q, u)| (parse_query(q).unwrap(), parse_update(u).unwrap()))
        .collect()
}

/// The tentpole acceptance test: 8 threads × repeated `check()` calls on one
/// shared session agree bit-for-bit with a fresh single-threaded session,
/// for every engine policy and for budgets on both sides of the explicit
/// overflow threshold.
#[test]
fn concurrent_checks_are_bit_identical_across_engines_and_budgets() {
    let threads = 8;
    for schema in [FIG1, RECURSIVE] {
        let start = if schema == FIG1 { "doc" } else { "a" };
        let dtd = Dtd::parse_compact(schema, start).unwrap();
        for engine in [EngineKind::Auto, EngineKind::Explicit, EngineKind::Cdag] {
            for budget in [60usize, 20_000] {
                let config = AnalyzerConfig {
                    engine,
                    explicit_budget: budget,
                    ..Default::default()
                };
                let pairs = pairs();
                let expected: Vec<Verdict> = pairs
                    .iter()
                    .map(|(q, u)| fresh_check(&dtd, &config, q, u))
                    .collect();
                let session = SessionBuilder::new(&dtd).config(config).build();
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let (session, pairs, expected) = (&session, &pairs, &expected);
                        s.spawn(move || {
                            // Stagger the starting offset so threads race on
                            // *different* cold cache entries, not in lockstep.
                            for round in 0..2 {
                                for i in 0..pairs.len() {
                                    let i = (i + t * 3) % pairs.len();
                                    let (q, u) = &pairs[i];
                                    let v = session.check(q, u);
                                    assert!(
                                        v == expected[i],
                                        "thread {t} round {round} pair {i} diverged \
                                         ({engine:?}, budget {budget}):\n  \
                                         concurrent: {v:?}\n  fresh:      {:?}",
                                        expected[i]
                                    );
                                }
                            }
                        });
                    }
                });
            }
        }
    }
}

/// One schema of the multi-schema registry test: its registry name, source,
/// start symbol and workload pool (views × updates, also the check pool).
struct RegistrySchema {
    name: String,
    source: String,
    start: String,
    queries: Vec<String>,
    updates: Vec<String>,
}

/// Figure 1 plus every schema of a seeded corpus (the five fixtures and
/// three generated shapes), each with a seeded workload pool.
fn registry_schemas() -> Vec<RegistrySchema> {
    let mut schemas = vec![RegistrySchema {
        name: "fig1".to_string(),
        source: FIG1.to_string(),
        start: "doc".to_string(),
        queries: QUERIES.iter().map(|q| q.to_string()).collect(),
        updates: UPDATES.iter().map(|u| u.to_string()).collect(),
    }];
    for (si, schema) in Corpus::seeded(7, 3).iter().enumerate() {
        let labels = schema.labels();
        let mut rng = StdRng::seed_from_u64(0x5E55 ^ si as u64);
        schemas.push(RegistrySchema {
            name: schema.name.clone(),
            source: schema.source.clone(),
            start: schema.start.clone(),
            queries: (0..5).map(|_| random_query(&labels, &mut rng)).collect(),
            updates: (0..4)
                .map(|_| random_update(&schema.start, &labels, &mut rng))
                .collect(),
        });
    }
    schemas
}

/// Asserts that a matrix response is not torn: one report per update, one
/// row per view, and the summary count agrees with the rows.
fn assert_untorn_matrix(response: &Response) {
    match response {
        Response::Matrix {
            reports,
            n_views,
            n_updates,
            independent_cells,
        } => {
            assert_eq!(reports.len(), *n_updates);
            assert!(reports.iter().all(|r| r.rows.len() == *n_views));
            let independent = reports
                .iter()
                .flat_map(|r| r.rows.iter())
                .filter(|(_, i)| *i)
                .count();
            assert_eq!(independent, *independent_cells);
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// Readers spread over a multi-schema registry send seeded checks, batches
/// and matrix reads while the main thread edits every schema's workload:
/// no request errors, every check verdict equals a fresh single-schema
/// check, no matrix snapshot is torn, and each schema's final matrix
/// matches a from-scratch analysis of its surviving workload.
#[test]
fn interleaved_edits_and_readers_match_from_scratch_matrix() {
    let config = AnalyzerConfig::default();
    let registry = SessionRegistry::new(config.clone(), Jobs::Auto);
    let schemas = registry_schemas();
    for schema in &schemas {
        registry
            .load_schema(&schema.name, &schema.source, Some(&schema.start))
            .unwrap();
    }
    // The expected answer to every check a reader may send: a fresh
    // single-schema session over the registry's own parsed schema.
    let expected: Vec<Vec<(Request, Response)>> = schemas
        .iter()
        .map(|schema| {
            let dtd = registry
                .get(&schema.name)
                .unwrap()
                .with_read(|handler| handler.session().schema());
            let mut answers = Vec::new();
            for query in &schema.queries {
                for update in &schema.updates {
                    let check = Request::Check {
                        query: query.clone(),
                        update: update.clone(),
                    };
                    let fresh = SessionBuilder::new(dtd).config(config.clone()).build();
                    let answer = SessionHandler::new(fresh).handle_read(&check);
                    assert!(matches!(answer, Response::Check { .. }), "{answer:?}");
                    answers.push((check, answer));
                }
            }
            answers
        })
        .collect();

    std::thread::scope(|s| {
        for reader in 0..4u64 {
            let (registry, schemas, expected) = (&registry, &schemas, &expected);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(reader);
                for round in 0..40 {
                    let si = (reader as usize + round) % schemas.len();
                    let shared = registry.get(&schemas[si].name).unwrap();
                    let pairs = &expected[si];
                    let (check, answer) = &pairs[rng.random_range(0..pairs.len())];
                    if round % 2 == 0 {
                        assert_eq!(&shared.handle(check), answer, "{check:?}");
                        continue;
                    }
                    let (other, other_answer) = &pairs[rng.random_range(0..pairs.len())];
                    let batch = Request::Batch(vec![check.clone(), Request::Matrix, other.clone()]);
                    match shared.handle(&batch) {
                        Response::Batch(results) => {
                            assert_eq!(results.len(), 3);
                            assert_eq!(&results[0], answer, "{check:?}");
                            assert_untorn_matrix(&results[1]);
                            assert_eq!(&results[2], other_answer, "{other:?}");
                        }
                        response => panic!("unexpected {response:?}"),
                    }
                }
            });
        }
        // Interleave edits (writes) on every schema with the readers above.
        for schema in &schemas {
            let shared = registry.get(&schema.name).unwrap();
            let views = schema
                .queries
                .iter()
                .enumerate()
                .map(|(i, q)| Request::AddView {
                    name: Some(format!("v{i}")),
                    expr: q.clone(),
                });
            let updates = schema
                .updates
                .iter()
                .enumerate()
                .map(|(i, u)| Request::AddUpdate {
                    name: Some(format!("u{i}")),
                    expr: u.clone(),
                });
            let drops = ["v1", "u0"].map(|name| Request::Drop {
                name: name.to_string(),
            });
            for edit in views.chain(updates).chain(drops) {
                let response = shared.handle(&edit);
                assert!(
                    !matches!(response, Response::Error { .. }),
                    "{}: {edit:?} -> {response:?}",
                    schema.name
                );
            }
        }
    });

    // Each surviving workload matches a from-scratch batch analysis cell by
    // cell, every verdict field included.
    for schema in &schemas {
        registry.get(&schema.name).unwrap().with_read(|handler| {
            let session = handler.session();
            assert_eq!(session.n_views(), schema.queries.len() - 1);
            assert_eq!(session.n_updates(), schema.updates.len() - 1);
            let mut fresh = SessionBuilder::new(session.schema())
                .config(config.clone())
                .jobs(Jobs::Fixed(1))
                .build();
            fresh.add_workload(
                session.views().map(|(n, q)| (n.to_string(), q.clone())),
                session.updates().map(|(n, u)| (n.to_string(), u.clone())),
            );
            for ui in 0..fresh.n_updates() {
                for vi in 0..fresh.n_views() {
                    assert!(
                        session.verdict(ui, vi) == fresh.verdict(ui, vi),
                        "{}: cell (view {vi}, update {ui}) diverged:\n  session: {:?}\n  fresh:   {:?}",
                        schema.name,
                        session.verdict(ui, vi),
                        fresh.verdict(ui, vi)
                    );
                }
            }
        });
    }
}

/// A query nested far beyond the parser's depth limit costs one error
/// response, not the process: handled on a thread with the 2 MB stack of a
/// scoped `qui serve` worker, both the ad-hoc check and the view
/// registration answer `Response::Error`, and the session keeps serving.
#[test]
fn deeply_nested_query_is_an_error_response() {
    let dtd = Dtd::parse_compact(FIG1, "doc").unwrap();
    let shared = SharedSession::new(SessionBuilder::new(&dtd).build());
    let deep = format!("{}//a{}", "(".repeat(20_000), ")".repeat(20_000));
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn_scoped(s, || {
                let requests = [
                    Request::Check {
                        query: deep.clone(),
                        update: "delete //b//c".to_string(),
                    },
                    Request::AddView {
                        name: Some("deep".to_string()),
                        expr: deep.clone(),
                    },
                ];
                for request in &requests {
                    match shared.handle(request) {
                        Response::Error { message } => {
                            assert!(message.contains("nesting"), "{message}")
                        }
                        other => panic!("expected an error response, got {other:?}"),
                    }
                }
                let check = Request::Check {
                    query: "//a//c".to_string(),
                    update: "delete //b//c".to_string(),
                };
                assert!(matches!(
                    shared.handle(&check),
                    Response::Check {
                        independent: true,
                        ..
                    }
                ));
            })
            .unwrap();
    });
}

/// Sends one HTTP request over a fresh connection and returns the parsed
/// JSON body.
fn http_json(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> Json {
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
    let (_, body) = out.split_once("\r\n\r\n").expect("has a body");
    Json::parse(body).expect("JSON body")
}

/// End-to-end smoke through the public facade: the verdict served over the
/// wire equals the in-process one, and concurrent wire clients agree.
#[test]
fn http_serve_smoke_matches_in_process_verdict() {
    let dtd = Dtd::parse_compact(FIG1, "doc").unwrap();
    let expected = fresh_check(
        &dtd,
        &AnalyzerConfig::default(),
        &parse_query("//a//c").unwrap(),
        &parse_update("delete //b//c").unwrap(),
    );

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
        registry,
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().unwrap());

    let body = "{\"cmd\":\"check\",\"query\":\"//a//c\",\"update\":\"delete //b//c\"}";
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..5 {
                    let v = http_json(addr, "POST", "/sessions/fig1", body);
                    assert_eq!(v.get("type").and_then(Json::as_str), Some("verdict"));
                    assert_eq!(
                        v.get("independent").and_then(Json::as_bool),
                        Some(expected.is_independent())
                    );
                    assert_eq!(v.get("k").and_then(Json::as_usize), Some(expected.k));
                }
            });
        }
    });

    shutdown.store(true, Ordering::SeqCst);
    handle.join().unwrap();
}
