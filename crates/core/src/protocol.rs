//! The typed command protocol shared by the `qui session` REPL and the
//! `qui serve` daemon.
//!
//! Both front ends speak the same small language — register a view or an
//! update, drop one, run an ad-hoc check, print the matrix or the cache
//! stats — so the command set is defined **once** here as [`Request`] /
//! [`Response`] enums, with both surface syntaxes attached:
//!
//! * the REPL's line syntax ([`Request::parse_line`] /
//!   [`Response::render_text`]), producing byte-for-byte the session
//!   output the CLI has always printed, and
//! * the daemon's JSON wire format ([`Request::from_json`] /
//!   [`Request::to_json`] / [`Response::to_json`]), hand-rolled over
//!   [`crate::json`] (the workspace builds without crates.io, so there is
//!   no serde).
//!
//! Dispatch lives in [`crate::service::SessionHandler`]; this module is
//! pure data and (de)serialization, which is what lets the REPL, the HTTP
//! daemon and the tests share one implementation of every command.

use crate::explain::MatrixReport;
use crate::json::Json;
use crate::session::SessionStats;

/// Help text shared by the REPL (`help` command) and the daemon.
pub const SESSION_HELP: &str = "session commands:
  view [name:] <query>      register a view (column) and compute its verdicts
  update [name:] <expr>     register an update (row) and compute its verdicts
  drop <name>               remove the view or update with that name
  check <query> ;; <expr>   ad-hoc independence check (nothing is registered)
  matrix                    print the materialized verdict matrix
  stats                     print cache-effectiveness counters
  help                      this text
  quit                      leave the session
";

/// One command against an analysis session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `help`
    Help,
    /// `view [name:] <query>` — register a view.
    AddView {
        /// Explicit name, or `None` for the next auto-name (`v1`, `v2`, …).
        name: Option<String>,
        /// Query source text (parsed at dispatch).
        expr: String,
    },
    /// `update [name:] <expr>` — register an update.
    AddUpdate {
        /// Explicit name, or `None` for the next auto-name (`u1`, `u2`, …).
        name: Option<String>,
        /// Update source text (parsed at dispatch).
        expr: String,
    },
    /// `drop <name>` — remove the view or update with that name.
    Drop {
        /// The name to remove (views and updates share one namespace).
        name: String,
    },
    /// `check <query> ;; <update>` — ad-hoc check; nothing is registered.
    Check {
        /// Query source text.
        query: String,
        /// Update source text.
        update: String,
    },
    /// `matrix` — the materialized verdict matrix.
    Matrix,
    /// `stats` — cache-effectiveness counters.
    Stats,
    /// `{"cmd":"batch","ops":[...]}` — several commands in one round trip
    /// (JSON wire only; answered by one [`Response::Batch`] array). Batches
    /// do not nest.
    Batch(Vec<Request>),
    /// `quit` — end the session.
    Quit,
}

impl Request {
    /// Whether this request mutates the session's registered workload.
    /// Edits go through `&mut` dispatch; everything else is served on the
    /// concurrent `&self` read path.
    pub fn is_edit(&self) -> bool {
        match self {
            Request::AddView { .. } | Request::AddUpdate { .. } | Request::Drop { .. } => true,
            Request::Batch(ops) => ops.iter().any(Request::is_edit),
            _ => false,
        }
    }

    /// Parses one REPL line. Returns `Ok(None)` for blank lines and `#`
    /// comments; malformed commands produce the exact error strings the
    /// session REPL has always printed.
    pub fn parse_line(line: &str) -> Result<Option<Request>, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let (command, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match command {
            "help" => Ok(Some(Request::Help)),
            "matrix" => Ok(Some(Request::Matrix)),
            "stats" => Ok(Some(Request::Stats)),
            "quit" | "exit" => Ok(Some(Request::Quit)),
            "view" => {
                let (name, expr) = split_named(rest)?;
                Ok(Some(Request::AddView { name, expr }))
            }
            "update" => {
                let (name, expr) = split_named(rest)?;
                Ok(Some(Request::AddUpdate { name, expr }))
            }
            "drop" => {
                if rest.is_empty() {
                    Err("drop expects a view or update name".to_string())
                } else {
                    Ok(Some(Request::Drop {
                        name: rest.to_string(),
                    }))
                }
            }
            "check" => match rest.split_once(";;") {
                Some((q, u)) if !q.trim().is_empty() && !u.trim().is_empty() => {
                    Ok(Some(Request::Check {
                        query: q.trim().to_string(),
                        update: u.trim().to_string(),
                    }))
                }
                _ => Err("check expects <query> ;; <update>".to_string()),
            },
            other => Err(format!("unknown command '{other}' (try 'help')")),
        }
    }

    /// Parses the JSON wire form (`{"cmd": "...", ...}`).
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing 'cmd' field".to_string())?;
        let string_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("'{cmd}' expects a string '{key}' field"))
        };
        match cmd {
            "help" => Ok(Request::Help),
            "matrix" => Ok(Request::Matrix),
            "stats" => Ok(Request::Stats),
            "quit" => Ok(Request::Quit),
            "view" => Ok(Request::AddView {
                name: v.get("name").and_then(Json::as_str).map(str::to_string),
                expr: string_field("expr")?,
            }),
            "update" => Ok(Request::AddUpdate {
                name: v.get("name").and_then(Json::as_str).map(str::to_string),
                expr: string_field("expr")?,
            }),
            "drop" => Ok(Request::Drop {
                name: string_field("name")?,
            }),
            "check" => Ok(Request::Check {
                query: string_field("query")?,
                update: string_field("update")?,
            }),
            "batch" => {
                let ops = v
                    .get("ops")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| "'batch' expects an 'ops' array".to_string())?;
                let ops = ops
                    .iter()
                    .map(Request::from_json)
                    .collect::<Result<Vec<Request>, String>>()?;
                if ops.iter().any(|op| matches!(op, Request::Batch(_))) {
                    return Err("'batch' ops cannot be nested batches".to_string());
                }
                Ok(Request::Batch(ops))
            }
            other => Err(format!("unknown command '{other}'")),
        }
    }

    /// The JSON wire form of the request.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::new();
        let cmd = match self {
            Request::Help => "help",
            Request::Matrix => "matrix",
            Request::Stats => "stats",
            Request::Quit => "quit",
            Request::AddView { name, expr } => {
                if let Some(name) = name {
                    fields.push(("name".into(), Json::str(name.clone())));
                }
                fields.push(("expr".into(), Json::str(expr.clone())));
                "view"
            }
            Request::AddUpdate { name, expr } => {
                if let Some(name) = name {
                    fields.push(("name".into(), Json::str(name.clone())));
                }
                fields.push(("expr".into(), Json::str(expr.clone())));
                "update"
            }
            Request::Drop { name } => {
                fields.push(("name".into(), Json::str(name.clone())));
                "drop"
            }
            Request::Check { query, update } => {
                fields.push(("query".into(), Json::str(query.clone())));
                fields.push(("update".into(), Json::str(update.clone())));
                "check"
            }
            Request::Batch(ops) => {
                fields.push((
                    "ops".into(),
                    Json::Arr(ops.iter().map(Request::to_json).collect()),
                ));
                "batch"
            }
        };
        fields.insert(0, ("cmd".into(), Json::str(cmd)));
        Json::Obj(fields)
    }
}

/// Splits a REPL expression argument with an optional `name:` prefix
/// (mirroring the views-file format: any slash-free prefix before the first
/// colon, unless that colon opens an axis step — `child::a` is a query, not
/// a named line).
fn split_named(rest: &str) -> Result<(Option<String>, String), String> {
    if rest.is_empty() {
        return Err("expected [name:] <expression>".to_string());
    }
    match rest.split_once(':') {
        Some((n, s)) if !n.contains('/') && !n.trim().is_empty() && !s.starts_with(':') => {
            Ok((Some(n.trim().to_string()), s.trim().to_string()))
        }
        _ => Ok((None, rest.to_string())),
    }
}

/// The outcome of one [`Request`].
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Command reference.
    Help,
    /// A view was registered and its column computed.
    ViewAdded {
        /// The name it was registered under (auto-generated when the
        /// request carried none).
        name: String,
        /// How many registered updates it is independent of.
        independent: usize,
        /// Total registered updates.
        total_updates: usize,
    },
    /// An update was registered and its row computed.
    UpdateAdded {
        /// The registered name.
        name: String,
        /// How many registered views are independent of it.
        independent: usize,
        /// Total registered views.
        total_views: usize,
    },
    /// A view or update was dropped.
    Dropped {
        /// `"view"` or `"update"`.
        kind: &'static str,
        /// The dropped name.
        name: String,
    },
    /// An ad-hoc check verdict.
    Check {
        /// Whether independence was proved.
        independent: bool,
        /// The multiplicity bound used.
        k: usize,
        /// `k_q` of the query.
        k_query: usize,
        /// `k_u` of the update.
        k_update: usize,
        /// The engine that produced the verdict (`"Explicit"` / `"Cdag"`).
        engine: String,
        /// A rendered dependence witness, when the explicit engine found
        /// one.
        witness: Option<String>,
    },
    /// The materialized verdict matrix.
    Matrix {
        /// One report per registered update, over all registered views.
        reports: Vec<MatrixReport>,
        /// Registered view count.
        n_views: usize,
        /// Registered update count.
        n_updates: usize,
        /// Independent cells in the matrix.
        independent_cells: usize,
    },
    /// Cache-effectiveness counters.
    Stats(SessionStats),
    /// One response per op of a [`Request::Batch`], in op order.
    Batch(Vec<Response>),
    /// The session ended (`quit`).
    Bye,
    /// A command failed; the session continues.
    Error {
        /// Human-readable message (also the REPL's `error: …` line).
        message: String,
    },
}

impl Response {
    /// Shorthand for an error response.
    pub fn error(message: impl Into<String>) -> Response {
        Response::Error {
            message: message.into(),
        }
    }

    /// Renders the response exactly as the `qui session` REPL prints it
    /// (trailing newline included; empty for [`Response::Bye`]).
    pub fn render_text(&self) -> String {
        match self {
            Response::Help => SESSION_HELP.to_string(),
            Response::ViewAdded {
                name,
                independent,
                total_updates,
            } => format!(
                "view {name} registered — independent of {independent}/{total_updates} updates\n"
            ),
            Response::UpdateAdded {
                name,
                independent,
                total_views,
            } => format!(
                "update {name} registered — {independent}/{total_views} views independent\n"
            ),
            Response::Dropped { kind, name } => format!("dropped {kind} {name}\n"),
            Response::Check {
                independent,
                k,
                k_query,
                k_update,
                engine,
                witness,
            } => {
                let mut out = format!(
                    "{} — k = {k} (k_q = {k_query}, k_u = {k_update}), engine = {engine}\n",
                    if *independent {
                        "independent"
                    } else {
                        "dependent"
                    },
                );
                if let Some(w) = witness {
                    out.push_str(&format!("witness: {w}\n"));
                }
                out
            }
            Response::Matrix {
                reports,
                n_views,
                n_updates,
                independent_cells,
            } => {
                let mut out = String::new();
                for report in reports {
                    out.push_str(&report.render());
                }
                out.push_str(&format!(
                    "matrix: {n_views} views x {n_updates} updates, {independent_cells}/{} cells independent\n",
                    n_views * n_updates
                ));
                out
            }
            Response::Stats(s) => format!(
                "stats: {} cdag inferences ({} cache hits), {} explicit inferences \
                 ({} cache hits), {} cells computed, {} edits\n",
                s.cdag_inferences,
                s.cdag_cache_hits,
                s.explicit_inferences,
                s.explicit_cache_hits,
                s.cells_computed,
                s.edits
            ),
            Response::Batch(results) => results.iter().map(Response::render_text).collect(),
            Response::Bye => String::new(),
            Response::Error { message } => format!("error: {message}\n"),
        }
    }

    /// The JSON wire form: every response carries `"ok"` and `"type"`.
    pub fn to_json(&self) -> Json {
        let obj = |ok: bool, ty: &str, mut rest: Vec<(String, Json)>| {
            let mut fields = vec![
                ("ok".to_string(), Json::Bool(ok)),
                ("type".to_string(), Json::str(ty)),
            ];
            fields.append(&mut rest);
            Json::Obj(fields)
        };
        match self {
            Response::Help => obj(true, "help", vec![("text".into(), Json::str(SESSION_HELP))]),
            Response::ViewAdded {
                name,
                independent,
                total_updates,
            } => obj(
                true,
                "view_added",
                vec![
                    ("name".into(), Json::str(name.clone())),
                    ("independent_updates".into(), Json::num(*independent)),
                    ("total_updates".into(), Json::num(*total_updates)),
                ],
            ),
            Response::UpdateAdded {
                name,
                independent,
                total_views,
            } => obj(
                true,
                "update_added",
                vec![
                    ("name".into(), Json::str(name.clone())),
                    ("independent_views".into(), Json::num(*independent)),
                    ("total_views".into(), Json::num(*total_views)),
                ],
            ),
            Response::Dropped { kind, name } => obj(
                true,
                "dropped",
                vec![
                    ("kind".into(), Json::str(*kind)),
                    ("name".into(), Json::str(name.clone())),
                ],
            ),
            Response::Check {
                independent,
                k,
                k_query,
                k_update,
                engine,
                witness,
            } => obj(
                true,
                "verdict",
                vec![
                    ("independent".into(), Json::Bool(*independent)),
                    ("k".into(), Json::num(*k)),
                    ("k_query".into(), Json::num(*k_query)),
                    ("k_update".into(), Json::num(*k_update)),
                    ("engine".into(), Json::str(engine.clone())),
                    (
                        "witness".into(),
                        witness
                            .as_ref()
                            .map(|w| Json::str(w.clone()))
                            .unwrap_or(Json::Null),
                    ),
                ],
            ),
            Response::Matrix {
                reports,
                n_views,
                n_updates,
                independent_cells,
            } => obj(
                true,
                "matrix",
                vec![
                    ("n_views".into(), Json::num(*n_views)),
                    ("n_updates".into(), Json::num(*n_updates)),
                    ("independent_cells".into(), Json::num(*independent_cells)),
                    (
                        "reports".into(),
                        Json::Arr(
                            reports
                                .iter()
                                .map(|r| {
                                    Json::Obj(vec![
                                        ("update".into(), Json::str(r.update_name.clone())),
                                        ("k_min".into(), Json::num(r.k_range.0)),
                                        ("k_max".into(), Json::num(r.k_range.1)),
                                        (
                                            "rows".into(),
                                            Json::Arr(
                                                r.rows
                                                    .iter()
                                                    .map(|(view, independent)| {
                                                        Json::Obj(vec![
                                                            (
                                                                "view".into(),
                                                                Json::str(view.clone()),
                                                            ),
                                                            (
                                                                "independent".into(),
                                                                Json::Bool(*independent),
                                                            ),
                                                        ])
                                                    })
                                                    .collect(),
                                            ),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ],
            ),
            Response::Stats(s) => obj(
                true,
                "stats",
                vec![
                    ("cdag_inferences".into(), Json::num(s.cdag_inferences)),
                    ("cdag_cache_hits".into(), Json::num(s.cdag_cache_hits)),
                    (
                        "explicit_inferences".into(),
                        Json::num(s.explicit_inferences),
                    ),
                    (
                        "explicit_cache_hits".into(),
                        Json::num(s.explicit_cache_hits),
                    ),
                    ("cells_computed".into(), Json::num(s.cells_computed)),
                    ("edits".into(), Json::num(s.edits)),
                ],
            ),
            Response::Batch(results) => obj(
                true,
                "batch",
                vec![(
                    "results".into(),
                    Json::Arr(results.iter().map(Response::to_json).collect()),
                )],
            ),
            Response::Bye => obj(true, "bye", vec![]),
            Response::Error { message } => obj(
                false,
                "error",
                vec![("error".into(), Json::str(message.clone()))],
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_syntax_parses_every_command() {
        assert_eq!(Request::parse_line("  "), Ok(None));
        assert_eq!(Request::parse_line("# comment"), Ok(None));
        assert_eq!(Request::parse_line("help"), Ok(Some(Request::Help)));
        assert_eq!(Request::parse_line("matrix"), Ok(Some(Request::Matrix)));
        assert_eq!(Request::parse_line("stats"), Ok(Some(Request::Stats)));
        assert_eq!(Request::parse_line("quit"), Ok(Some(Request::Quit)));
        assert_eq!(Request::parse_line("exit"), Ok(Some(Request::Quit)));
        assert_eq!(
            Request::parse_line("view v1: //a//c"),
            Ok(Some(Request::AddView {
                name: Some("v1".to_string()),
                expr: "//a//c".to_string(),
            }))
        );
        // An axis-step colon is not a name separator.
        assert_eq!(
            Request::parse_line("view child::a/c"),
            Ok(Some(Request::AddView {
                name: None,
                expr: "child::a/c".to_string(),
            }))
        );
        assert_eq!(
            Request::parse_line("update delete //c"),
            Ok(Some(Request::AddUpdate {
                name: None,
                expr: "delete //c".to_string(),
            }))
        );
        assert_eq!(
            Request::parse_line("drop v1"),
            Ok(Some(Request::Drop {
                name: "v1".to_string(),
            }))
        );
        assert_eq!(
            Request::parse_line("check //a//c ;; delete //b//c"),
            Ok(Some(Request::Check {
                query: "//a//c".to_string(),
                update: "delete //b//c".to_string(),
            }))
        );
    }

    #[test]
    fn line_syntax_errors_match_the_repl() {
        assert_eq!(
            Request::parse_line("view"),
            Err("expected [name:] <expression>".to_string())
        );
        assert_eq!(
            Request::parse_line("drop"),
            Err("drop expects a view or update name".to_string())
        );
        assert_eq!(
            Request::parse_line("check //a"),
            Err("check expects <query> ;; <update>".to_string())
        );
        assert_eq!(
            Request::parse_line("bogus"),
            Err("unknown command 'bogus' (try 'help')".to_string())
        );
    }

    #[test]
    fn requests_round_trip_through_json() {
        let requests = [
            Request::Help,
            Request::Matrix,
            Request::Stats,
            Request::Quit,
            Request::AddView {
                name: Some("v1".to_string()),
                expr: "//a//c".to_string(),
            },
            Request::AddView {
                name: None,
                expr: "//c".to_string(),
            },
            Request::AddUpdate {
                name: None,
                expr: "delete //c".to_string(),
            },
            Request::Drop {
                name: "v1".to_string(),
            },
            Request::Check {
                query: "//a//c".to_string(),
                update: "delete //b//c".to_string(),
            },
        ];
        for req in requests {
            let wire = req.to_json().render();
            let back = Request::from_json(&Json::parse(&wire).unwrap()).unwrap();
            assert_eq!(back, req, "{wire}");
        }
    }

    #[test]
    fn batch_requests_round_trip_and_track_editness() {
        let reads = Request::Batch(vec![
            Request::Check {
                query: "//a".to_string(),
                update: "delete //b".to_string(),
            },
            Request::Stats,
        ]);
        assert!(!reads.is_edit());
        let wire = reads.to_json().render();
        assert_eq!(Request::from_json(&Json::parse(&wire).unwrap()), Ok(reads));

        let edits = Request::Batch(vec![
            Request::Matrix,
            Request::AddView {
                name: None,
                expr: "//c".to_string(),
            },
        ]);
        assert!(edits.is_edit());
        let wire = edits.to_json().render();
        assert_eq!(Request::from_json(&Json::parse(&wire).unwrap()), Ok(edits));
    }

    #[test]
    fn nested_batches_are_rejected() {
        let src = r#"{"cmd":"batch","ops":[{"cmd":"batch","ops":[]}]}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(
            Request::from_json(&v),
            Err("'batch' ops cannot be nested batches".to_string())
        );
        let src = r#"{"cmd":"batch"}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(
            Request::from_json(&v),
            Err("'batch' expects an 'ops' array".to_string())
        );
    }

    #[test]
    fn batch_responses_concatenate_text_and_nest_json() {
        let r = Response::Batch(vec![
            Response::Dropped {
                kind: "view",
                name: "v1".to_string(),
            },
            Response::error("boom"),
        ]);
        assert_eq!(r.render_text(), "dropped view v1\nerror: boom\n");
        let v = r.to_json();
        assert_eq!(v.get("type").unwrap().as_str(), Some("batch"));
        let results = v.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[1].get("ok").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn malformed_json_requests_are_rejected() {
        for src in [
            "{}",
            "{\"cmd\":\"frobnicate\"}",
            "{\"cmd\":\"view\"}",
            "{\"cmd\":\"check\",\"query\":\"//a\"}",
            "{\"cmd\":\"drop\",\"name\":7}",
        ] {
            let v = Json::parse(src).unwrap();
            assert!(Request::from_json(&v).is_err(), "{src} must be rejected");
        }
    }

    #[test]
    fn responses_render_the_repl_strings() {
        assert_eq!(
            Response::ViewAdded {
                name: "v1".to_string(),
                independent: 2,
                total_updates: 3,
            }
            .render_text(),
            "view v1 registered — independent of 2/3 updates\n"
        );
        assert_eq!(
            Response::UpdateAdded {
                name: "u1".to_string(),
                independent: 1,
                total_views: 2,
            }
            .render_text(),
            "update u1 registered — 1/2 views independent\n"
        );
        assert_eq!(
            Response::Dropped {
                kind: "view",
                name: "v1".to_string(),
            }
            .render_text(),
            "dropped view v1\n"
        );
        assert_eq!(
            Response::error("no view or update named 'x'").render_text(),
            "error: no view or update named 'x'\n"
        );
        assert_eq!(Response::Bye.render_text(), "");
        let check = Response::Check {
            independent: true,
            k: 3,
            k_query: 2,
            k_update: 1,
            engine: "Cdag".to_string(),
            witness: None,
        }
        .render_text();
        assert_eq!(
            check,
            "independent — k = 3 (k_q = 2, k_u = 1), engine = Cdag\n"
        );
    }

    #[test]
    fn response_json_carries_ok_and_type() {
        let v = Response::error("boom").to_json();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("type").unwrap().as_str(), Some("error"));
        assert_eq!(v.get("error").unwrap().as_str(), Some("boom"));
        let v = Response::Check {
            independent: true,
            k: 3,
            k_query: 2,
            k_update: 1,
            engine: "Cdag".to_string(),
            witness: None,
        }
        .to_json();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("type").unwrap().as_str(), Some("verdict"));
        assert_eq!(v.get("independent").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("k").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("witness"), Some(&Json::Null));
    }
}
