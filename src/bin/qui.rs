//! `qui` — the command-line front end of the workspace.
//!
//! ```text
//! qui check     --dtd <file> --query <expr> --update <expr> [--start <name>] [--explain] [--engine auto|explicit|cdag]
//! qui commute   --dtd <file> --update <expr> --update2 <expr> [--start <name>]
//! qui chains    --dtd <file> (--query <expr> | --update <expr>) [--k <n>] [--start <name>]
//! qui matrix    --dtd <file> --views <file> --update <expr> [--start <name>] [--jobs <n>] [--engine auto|explicit|cdag]
//! qui validate  --dtd <file> --doc <file> [--attributes] [--start <name>]
//! qui infer-dtd <doc.xml> [<doc.xml> …]
//! qui generate  --dtd <file> [--nodes <n>] [--seed <n>] [--start <name>]
//! qui xmark     (--scale S|M|L|XL | --nodes <n>) [--seed <n>] [--out <file>]
//! qui maintain  [--scale S|M|L|XL | --nodes <n>] [--seed <n>] [--jobs <n>]
//! ```
//!
//! Expressions may be given inline or as `@path/to/file`. DTD files may use
//! either the compact `name -> model` syntax or standard `<!ELEMENT …>` /
//! `<!ATTLIST …>` declarations; the start symbol defaults to the first
//! declared element.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use xml_qui::baseline::TypeSetAnalyzer;
use xml_qui::core::{
    AnalysisSession, AnalyzerConfig, CommutativityAnalyzer, EngineKind, Jobs, Request, ServeConfig,
    Server, SessionBuilder, SessionHandler, SessionRegistry,
};
use xml_qui::schema::infer::infer_dtd;
use xml_qui::schema::{default_start, generate_valid, Dtd, GenValidConfig};
use xml_qui::workloads::{
    all_updates, all_views, maintenance_simulation_jobs, stream_xmark_document, XmarkScale,
};
use xml_qui::xmlstore::{parse_xml_stream, serialize_tree, StreamConfig, Tree};
use xml_qui::xquery::{parse_query, parse_update, Query, Update};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("qui: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one invocation and returns its stdout text.
fn run(args: &[String]) -> Result<String, String> {
    let Some(command) = args.first() else {
        return Ok(usage());
    };
    let parsed = CliArgs::parse(&args[1..])?;
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(usage()),
        "check" => cmd_check(&parsed),
        "commute" => cmd_commute(&parsed),
        "chains" => cmd_chains(&parsed),
        "matrix" => cmd_matrix(&parsed),
        "session" => cmd_session(&parsed),
        "serve" => cmd_serve(&parsed),
        "validate" => cmd_validate(&parsed),
        "infer-dtd" => cmd_infer_dtd(&parsed),
        "generate" => cmd_generate(&parsed),
        "xmark" => cmd_xmark(&parsed),
        "maintain" => cmd_maintain(&parsed),
        other => Err(format!("unknown command '{other}' (try 'qui help')")),
    }
}

fn usage() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "qui — type-based XML query-update independence");
    let _ = writeln!(s, "commands:");
    let _ = writeln!(
        s,
        "  check     --dtd <file> --query <expr> --update <expr> [--explain] [--engine E]"
    );
    let _ = writeln!(
        s,
        "  commute   --dtd <file> --update <expr> --update2 <expr>"
    );
    let _ = writeln!(
        s,
        "  chains    --dtd <file> (--query <expr> | --update <expr>) [--k <n>]"
    );
    let _ = writeln!(
        s,
        "  matrix    --dtd <file> --views <file> --update <expr> [--jobs <n>] [--engine E]"
    );
    let _ = writeln!(
        s,
        "  session   --dtd <file> [--jobs <n>] [--engine E]   (REPL on stdin)"
    );
    let _ = writeln!(
        s,
        "  serve     --dtd <file> [--addr <host:port>] [--workers <n>] [--engine E]"
    );
    let _ = writeln!(s, "  validate  --dtd <file> --doc <file> [--attributes]");
    let _ = writeln!(s, "  infer-dtd <doc.xml> [<doc.xml> …]");
    let _ = writeln!(s, "  generate  --dtd <file> [--nodes <n>] [--seed <n>]");
    let _ = writeln!(
        s,
        "  xmark     (--scale S|M|L|XL | --nodes <n>) [--seed <n>] [--out <file>]"
    );
    let _ = writeln!(
        s,
        "  maintain  [--scale S|M|L|XL | --nodes <n>] [--seed <n>] [--jobs <n>]"
    );
    let _ = writeln!(s, "options: --start <name> overrides the DTD start symbol;");
    let _ = writeln!(s, "         expressions may be written inline or as @file;");
    let _ = writeln!(
        s,
        "         --jobs <n> (or QUI_JOBS) shards work over n threads;"
    );
    let _ = writeln!(
        s,
        "         --engine auto|explicit|cdag picks the inference engine"
    );
    let _ = writeln!(
        s,
        "         (auto = CDAG-first with explicit confirmation, the default)."
    );
    s
}

// ---------------------------------------------------------------------------
// Argument handling
// ---------------------------------------------------------------------------

/// Parsed `--flag value` options plus positional arguments.
#[derive(Debug, Default)]
struct CliArgs {
    options: HashMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl CliArgs {
    fn parse(args: &[String]) -> Result<CliArgs, String> {
        const VALUE_OPTIONS: [&str; 17] = [
            "--dtd",
            "--start",
            "--query",
            "--update",
            "--update2",
            "--views",
            "--doc",
            "--nodes",
            "--seed",
            "--k",
            "--jobs",
            "--scale",
            "--out",
            "--engine",
            "--addr",
            "--workers",
            "--name",
        ];
        const BARE_FLAGS: [&str; 2] = ["--explain", "--attributes"];
        let mut out = CliArgs::default();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if VALUE_OPTIONS.contains(&a.as_str()) {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("{a} expects a value"))?;
                out.options.insert(a.clone(), value.clone());
                i += 2;
            } else if BARE_FLAGS.contains(&a.as_str()) {
                out.flags.push(a.clone());
                i += 1;
            } else if a.starts_with("--") {
                return Err(format!("unknown option '{a}'"));
            } else {
                out.positional.push(a.clone());
                i += 1;
            }
        }
        Ok(out)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing {key}"))
    }

    fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{key} expects an integer, got '{v}'")),
        }
    }
}

/// Reads an expression argument: inline text, or the contents of a file when
/// the argument starts with `@`.
fn read_expr(arg: &str) -> Result<String, String> {
    if let Some(path) = arg.strip_prefix('@') {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    } else {
        Ok(arg.to_string())
    }
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Loads a DTD from a file in either supported syntax. The start symbol is
/// `--start` when given, otherwise the first declared element.
fn load_dtd(args: &CliArgs) -> Result<Dtd, String> {
    let path = args.require("--dtd")?;
    let src = read_file(path)?;
    let start = match args.get("--start") {
        Some(s) => s.to_string(),
        None => default_start(&src).ok_or_else(|| format!("{path}: no element declarations"))?,
    };
    let dtd = if src.contains("<!ELEMENT") {
        xml_qui::schema::parse_dtd_with_attributes(&src, &start)
    } else {
        Dtd::parse_compact(&src, &start)
    };
    dtd.map_err(|e| format!("{path}: {e}"))
}

fn load_query(args: &CliArgs) -> Result<Query, String> {
    let src = read_expr(args.require("--query")?)?;
    parse_query(&src).map_err(|e| format!("query: {e}"))
}

fn load_update(args: &CliArgs, key: &str) -> Result<Update, String> {
    let src = read_expr(args.require(key)?)?;
    parse_update(&src).map_err(|e| format!("update: {e}"))
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

/// The `--engine` option resolved to an analyzer configuration. A typo
/// is an error naming the valid engines — never a silent fallback.
fn engine_config(args: &CliArgs) -> Result<AnalyzerConfig, String> {
    let engine = match args.get("--engine") {
        None => EngineKind::Auto,
        Some(s) => EngineKind::parse(s).map_err(|e| format!("--engine: {e}"))?,
    };
    Ok(AnalyzerConfig {
        engine,
        ..Default::default()
    })
}

/// The `--jobs` option resolved to a worker policy; without the flag the
/// `QUI_JOBS` environment override applies (via [`Jobs::from_env`], the one
/// place that variable is interpreted).
fn jobs_arg(args: &CliArgs) -> Result<Jobs, String> {
    match args.get("--jobs") {
        Some(v) => {
            let n: usize = v
                .parse()
                .ok()
                .filter(|n: &usize| *n > 0)
                .ok_or_else(|| format!("--jobs expects a positive integer, got '{v}'"))?;
            Ok(Jobs::fixed(n))
        }
        None => Ok(Jobs::from_env()),
    }
}

fn cmd_check(args: &CliArgs) -> Result<String, String> {
    let dtd = load_dtd(args)?;
    let q = load_query(args)?;
    let u = load_update(args, "--update")?;
    let session = SessionBuilder::new(&dtd)
        .config(engine_config(args)?)
        .build();
    let mut out = String::new();
    if args.has_flag("--explain") {
        out.push_str(&session.explain(&q, &u));
    } else {
        let verdict = session.check(&q, &u);
        let _ = writeln!(
            out,
            "{}",
            if verdict.is_independent() {
                "independent"
            } else {
                "dependent"
            }
        );
        let _ = writeln!(
            out,
            "k = {} (k_q = {}, k_u = {}), engine = {:?}",
            verdict.k, verdict.k_query, verdict.k_update, verdict.engine_used
        );
    }
    let baseline = TypeSetAnalyzer::new(&dtd);
    let _ = writeln!(
        out,
        "type-set baseline [Benedikt & Cheney]: {}",
        if baseline.independent(&q, &u) {
            "independent"
        } else {
            "dependent"
        }
    );
    Ok(out)
}

fn cmd_commute(args: &CliArgs) -> Result<String, String> {
    let dtd = load_dtd(args)?;
    let u1 = load_update(args, "--update")?;
    let u2 = load_update(args, "--update2")?;
    let analyzer = CommutativityAnalyzer::new(&dtd);
    let verdict = analyzer.check(&u1, &u2);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}",
        if verdict.commutes() {
            "commute"
        } else {
            "may not commute"
        }
    );
    if let Some(conflict) = verdict.conflict {
        let _ = writeln!(out, "conflict: {conflict:?}");
    }
    let _ = writeln!(out, "k = {}", verdict.k);
    Ok(out)
}

fn cmd_chains(args: &CliArgs) -> Result<String, String> {
    let dtd = load_dtd(args)?;
    let (q, u) = match (args.get("--query"), args.get("--update")) {
        (Some(_), None) => (load_query(args)?, Update::Empty),
        (None, Some(_)) => (Query::Empty, load_update(args, "--update")?),
        _ => return Err("chains expects exactly one of --query or --update".to_string()),
    };
    let session = AnalysisSession::new(&dtd);
    let k = args.get_usize("--k", session.k_for(&q, &u).max(1))?;
    let chains = session
        .explicit_query_chains(&q, k)
        .zip(session.explicit_update_chains(&u, k));
    let Some((qc, uc)) = chains else {
        return Err("chain materialization exceeded the explicit engine budget".to_string());
    };
    let mut out = String::new();
    let _ = writeln!(out, "k = {k}");
    if !matches!(q, Query::Empty) {
        let _ = writeln!(out, "{}", qc.display(&dtd));
    }
    if !matches!(u, Update::Empty) {
        let _ = writeln!(out, "update chains: {}", uc.display(&dtd));
    }
    Ok(out)
}

fn cmd_matrix(args: &CliArgs) -> Result<String, String> {
    let dtd = load_dtd(args)?;
    let views_path = args.require("--views")?;
    let views_src = read_file(views_path)?;
    let mut views = Vec::new();
    for (i, line) in views_src.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // A `name:` prefix is any slash-free text before the first colon —
        // unless that colon opens an axis step (`child::a` is a query, not
        // a named line).
        let (name, src) = match line.split_once(':') {
            Some((n, s)) if !n.contains('/') && !s.starts_with(':') => {
                (n.trim().to_string(), s.trim())
            }
            _ => (format!("v{}", i + 1), line),
        };
        let q = parse_query(src).map_err(|e| format!("{views_path}:{}: {e}", i + 1))?;
        views.push((name, q));
    }
    let u = load_update(args, "--update")?;
    // Without --jobs, defer to QUI_JOBS or the machine's parallelism.
    let jobs = jobs_arg(args)?;
    let mut session = SessionBuilder::new(&dtd)
        .config(engine_config(args)?)
        .jobs(jobs)
        .build();
    let update_name = args.get("--update").unwrap_or("update").to_string();
    session.add_workload(views, [(update_name, u)]);
    let report = session.reports().pop().expect("one update registered");
    Ok(report.render())
}

/// `qui session` — a REPL over a long-lived [`xml_qui::core::AnalysisSession`],
/// demonstrating the incremental workload API: views and updates are
/// registered one line at a time, the verdict matrix is maintained across
/// edits, and only the affected row/column is recomputed per command.
fn cmd_session(args: &CliArgs) -> Result<String, String> {
    let dtd = load_dtd(args)?;
    let config = engine_config(args)?;
    let jobs = jobs_arg(args)?;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    run_session_repl(&dtd, config, jobs, stdin.lock(), &mut stdout.lock())
        .map_err(|e| format!("session: {e}"))?;
    Ok(String::new())
}

/// The REPL loop behind `qui session`, factored over generic IO so tests
/// can drive it with in-memory buffers. Each line is parsed into a protocol
/// [`Request`] and dispatched through the same [`SessionHandler`] that
/// backs `qui serve` — the REPL owns no command logic of its own. Command
/// errors are reported and the session continues; only IO failures abort.
fn run_session_repl<R: std::io::BufRead, W: std::io::Write>(
    dtd: &Dtd,
    config: AnalyzerConfig,
    jobs: Jobs,
    input: R,
    out: &mut W,
) -> Result<(), String> {
    let session = SessionBuilder::new(dtd).config(config).jobs(jobs).build();
    let mut handler = SessionHandler::new(session);
    let io = |e: std::io::Error| format!("cannot write output: {e}");
    writeln!(
        out,
        "session over {} element types — 'help' lists commands",
        dtd.size()
    )
    .map_err(io)?;
    for line in input.lines() {
        let line = line.map_err(|e| format!("cannot read input: {e}"))?;
        let request = match Request::parse_line(&line) {
            Ok(None) => continue,
            Ok(Some(request)) => request,
            Err(e) => {
                writeln!(out, "error: {e}").map_err(io)?;
                out.flush().map_err(io)?;
                continue;
            }
        };
        let quitting = request == Request::Quit;
        let response = handler.handle(&request);
        write!(out, "{}", response.render_text()).map_err(io)?;
        out.flush().map_err(io)?;
        if quitting {
            break;
        }
    }
    Ok(())
}

/// `qui serve` — the HTTP/JSON daemon over [`SessionRegistry`] session
/// pooling: the `--dtd` schema is preloaded under `--name` (default
/// `default`), further schemas can be loaded over the wire, and every
/// session request dispatches through the same protocol handler as the
/// REPL. Blocks until `POST /shutdown`.
fn cmd_serve(args: &CliArgs) -> Result<String, String> {
    let dtd_path = args.require("--dtd")?;
    let dtd_src = read_file(dtd_path)?;
    let name = args.get("--name").unwrap_or("default");
    let registry = Arc::new(SessionRegistry::new(engine_config(args)?, jobs_arg(args)?));
    let elements = registry
        .load_schema(name, &dtd_src, args.get("--start"))
        .map_err(|e| format!("{dtd_path}: {e}"))?;
    let config = ServeConfig {
        addr: args.get("--addr").unwrap_or("127.0.0.1:7878").to_string(),
        workers: args.get_usize("--workers", 4)?.max(1),
        ..Default::default()
    };
    let workers = config.workers;
    let server = Server::bind(config, registry)?;
    let addr = server.local_addr()?;
    println!(
        "qui serve: listening on {addr} — schema '{name}' ({elements} element types), \
         {workers} workers; POST /shutdown to stop"
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    server.run()?;
    Ok("server stopped\n".to_string())
}

fn cmd_validate(args: &CliArgs) -> Result<String, String> {
    let dtd = load_dtd(args)?;
    let doc_path = args.require("--doc")?;
    let doc = load_document(doc_path, args.has_flag("--attributes"))?;
    match dtd.validate(&doc) {
        Ok(typing) => Ok(format!(
            "valid: {} nodes typed against {} element types\n",
            typing.len(),
            dtd.size()
        )),
        Err(e) => Err(format!("invalid: {e}")),
    }
}

/// Parses a document from disk as it is read, without holding the file's
/// contents.
fn load_document(path: &str, keep_attributes: bool) -> Result<Tree, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let config = StreamConfig {
        keep_attributes,
        projection: None,
    };
    parse_xml_stream(file, &config)
        .map(|outcome| outcome.tree)
        .map_err(|e| e.to_string())
}

fn cmd_infer_dtd(args: &CliArgs) -> Result<String, String> {
    if args.positional.is_empty() {
        return Err("infer-dtd expects at least one document path".to_string());
    }
    let mut corpus = Vec::new();
    for path in &args.positional {
        corpus.push(load_document(path, args.has_flag("--attributes"))?);
    }
    let inferred = infer_dtd(&corpus).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# inferred from {} documents ({} elements); start = {}",
        inferred.documents, inferred.elements, inferred.root
    );
    for (name, model) in &inferred.rules {
        let _ = writeln!(out, "{name} -> {model}");
    }
    Ok(out)
}

fn cmd_generate(args: &CliArgs) -> Result<String, String> {
    let dtd = load_dtd(args)?;
    let nodes = args.get_usize("--nodes", 200)?;
    let seed = args.get_usize("--seed", 42)? as u64;
    let doc = generate_valid(&dtd, &GenValidConfig::with_target(nodes), seed);
    Ok(format!("{}\n", serialize_tree(&doc)))
}

/// The `--scale` option, when present.
fn scale_arg(args: &CliArgs) -> Result<Option<XmarkScale>, String> {
    match args.get("--scale") {
        None => Ok(None),
        Some(s) => XmarkScale::parse(s)
            .map(Some)
            .ok_or_else(|| format!("--scale expects S, M, L or XL, got '{s}'")),
    }
}

/// Resolves the target node count from `--nodes` (wins) or `--scale`,
/// together with a label for reports.
fn resolve_scale(args: &CliArgs, default: Option<XmarkScale>) -> Result<(usize, String), String> {
    let scale = scale_arg(args)?.or(default);
    match (args.get("--nodes"), scale) {
        (Some(_), _) => {
            let nodes = args.get_usize("--nodes", 0)?;
            Ok((nodes, format!("{nodes}n")))
        }
        (None, Some(sc)) => Ok((
            sc.target_nodes(),
            format!("{} ({})", sc.short_name(), sc.label()),
        )),
        (None, None) => Err("expected --scale S|M|L|XL or --nodes <n>".to_string()),
    }
}

fn cmd_xmark(args: &CliArgs) -> Result<String, String> {
    let (nodes, label) = resolve_scale(args, None)?;
    let seed = args.get_usize("--seed", 7)? as u64;
    match args.get("--out") {
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            let stats = stream_xmark_document(nodes, seed, std::io::BufWriter::new(file))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            Ok(format!(
                "streamed {} nodes ({} bytes) to {path} — scale {label}, seed {seed}\n",
                stats.nodes, stats.bytes
            ))
        }
        None => {
            // Stream straight to stdout; the document never exists in
            // memory, and the bytes are exactly the --out file contents.
            let stdout = std::io::stdout();
            let lock = std::io::BufWriter::new(stdout.lock());
            stream_xmark_document(nodes, seed, lock)
                .map_err(|e| format!("cannot write to stdout: {e}"))?;
            Ok(String::new())
        }
    }
}

fn cmd_maintain(args: &CliArgs) -> Result<String, String> {
    let (nodes, label) = resolve_scale(args, Some(XmarkScale::Small))?;
    let seed = args.get_usize("--seed", 7)? as u64;
    let jobs = jobs_arg(args)?;
    let views = all_views();
    let updates = all_updates();
    let report = maintenance_simulation_jobs(&views, &updates, nodes, &label, seed, jobs);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig 3.c maintenance — scale {}, {} nodes, {} views × {} updates",
        report.scale,
        report.doc_nodes,
        views.len(),
        updates.len()
    );
    let _ = writeln!(
        out,
        "refreshes: all {}, types {}, chains {}",
        report.refreshed_all, report.refreshed_types, report.refreshed_chains
    );
    let _ = writeln!(
        out,
        "work units: all {}, types {}, chains {}",
        report.work_all, report.work_types, report.work_chains
    );
    let _ = writeln!(
        out,
        "savings: types {:.1}%, chains {:.1}%",
        report.types_saving_pct(),
        report.chains_saving_pct()
    );
    let _ = writeln!(
        out,
        "wall: eval phase {:.1} ms; refresh all {:.1} ms, types {:.1} ms, chains {:.1} ms",
        report.eval_wall.as_secs_f64() * 1e3,
        report.refresh_all.as_secs_f64() * 1e3,
        report.refresh_types.as_secs_f64() * 1e3,
        report.refresh_chains.as_secs_f64() * 1e3
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xml_qui::xmlstore::parse_xml;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_parser_separates_options_flags_and_positionals() {
        let args = CliArgs::parse(&strings(&[
            "--dtd",
            "schema.dtd",
            "--explain",
            "a.xml",
            "b.xml",
        ]))
        .unwrap();
        assert_eq!(args.get("--dtd"), Some("schema.dtd"));
        assert!(args.has_flag("--explain"));
        assert_eq!(args.positional, vec!["a.xml", "b.xml"]);
    }

    #[test]
    fn arg_parser_rejects_unknown_and_dangling_options() {
        assert!(CliArgs::parse(&strings(&["--bogus", "x"])).is_err());
        assert!(CliArgs::parse(&strings(&["--dtd"])).is_err());
    }

    #[test]
    fn default_start_from_both_syntaxes() {
        assert_eq!(
            default_start("<!ELEMENT bib (book*)> <!ELEMENT book (#PCDATA)>"),
            Some("bib".to_string())
        );
        assert_eq!(
            default_start("doc -> (a|b)* ; a -> c"),
            Some("doc".to_string())
        );
        assert_eq!(
            default_start("doc ← (a|b)* ; a ← c"),
            Some("doc".to_string())
        );
        assert_eq!(default_start(""), None);
    }

    #[test]
    fn unknown_command_is_an_error_and_help_is_not() {
        assert!(run(&strings(&["frobnicate"])).is_err());
        assert!(run(&strings(&["help"])).unwrap().contains("commands:"));
        assert!(run(&[]).unwrap().contains("commands:"));
    }

    #[test]
    fn check_command_end_to_end_via_temp_files() {
        let dir = std::env::temp_dir().join(format!("qui-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dtd_path = dir.join("fig1.dtd");
        std::fs::write(&dtd_path, "doc -> (a|b)* ; a -> c ; b -> c").unwrap();
        let out = run(&strings(&[
            "check",
            "--dtd",
            dtd_path.to_str().unwrap(),
            "--query",
            "//a//c",
            "--update",
            "delete //b//c",
        ]))
        .unwrap();
        assert!(out.starts_with("independent"), "{out}");
        let out = run(&strings(&[
            "check",
            "--dtd",
            dtd_path.to_str().unwrap(),
            "--query",
            "//c",
            "--update",
            "delete //b//c",
        ]))
        .unwrap();
        assert!(out.starts_with("dependent"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_flag_selects_engines_and_rejects_junk() {
        let dir = std::env::temp_dir().join(format!("qui-cli-engine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dtd_path = dir.join("fig1.dtd");
        std::fs::write(&dtd_path, "doc -> (a|b)* ; a -> c ; b -> c").unwrap();
        let check = |engine: &str| {
            run(&strings(&[
                "check",
                "--dtd",
                dtd_path.to_str().unwrap(),
                "--query",
                "//a//c",
                "--update",
                "delete //b//c",
                "--engine",
                engine,
            ]))
        };
        // All three engines agree on the paper's introduction example, and
        // the report names the engine that ran.
        let auto = check("auto").unwrap();
        assert!(
            auto.starts_with("independent") && auto.contains("engine = Cdag"),
            "{auto}"
        );
        let explicit = check("explicit").unwrap();
        assert!(
            explicit.starts_with("independent") && explicit.contains("engine = Explicit"),
            "{explicit}"
        );
        let cdag = check("cdag").unwrap();
        assert!(
            cdag.starts_with("independent") && cdag.contains("engine = Cdag"),
            "{cdag}"
        );
        let err = check("frobnicator").unwrap_err();
        assert!(
            err.contains("valid engines are auto, explicit, cdag"),
            "the error must name the valid engines: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn session_repl_drives_an_incremental_workload() {
        let dtd = Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap();
        let script = "\
# a comment and a blank line are ignored

view //a//c
view v9: //c
update delete //b//c
matrix
drop v9
drop nosuch
update u7: delete //c
matrix
stats
bogus
quit
";
        let mut out = Vec::new();
        run_session_repl(
            &dtd,
            AnalyzerConfig::default(),
            Jobs::Fixed(1),
            std::io::Cursor::new(script.as_bytes().to_vec()),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("view v1 registered"), "{text}");
        assert!(text.contains("view v9 registered"), "{text}");
        assert!(
            text.contains("update u1 registered — 1/2 views independent"),
            "{text}"
        );
        assert!(text.contains("dropped view v9"), "{text}");
        assert!(
            text.contains("error: no view or update named 'nosuch'"),
            "{text}"
        );
        assert!(
            text.contains("update u7 registered — 0/1 views independent"),
            "{text}"
        );
        assert!(
            text.contains("matrix: 1 views x 2 updates, 1/2 cells independent"),
            "{text}"
        );
        assert!(text.contains("cells computed"), "{text}");
        assert!(text.contains("error: unknown command 'bogus'"), "{text}");
    }

    #[test]
    fn session_repl_runs_ad_hoc_checks() {
        let dtd = Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap();
        let script = "check //a//c ;; delete //b//c\ncheck //c ;; delete //b//c\ncheck //a\nquit\n";
        let mut out = Vec::new();
        run_session_repl(
            &dtd,
            AnalyzerConfig::default(),
            Jobs::Fixed(1),
            std::io::Cursor::new(script.as_bytes().to_vec()),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("independent — k = "), "{text}");
        assert!(text.contains("dependent — k = "), "{text}");
        assert!(
            text.contains("error: check expects <query> ;; <update>"),
            "{text}"
        );
    }

    #[test]
    fn session_repl_accepts_axis_syntax_and_keeps_auto_names_unique() {
        let dtd = Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap();
        // `child::a/c` must not have `child` eaten as a name, and the
        // unnamed view after an explicit `v1:` must not collide with it.
        let script = "view v1: //c\nview child::a/c\nupdate delete //b\nquit\n";
        let mut out = Vec::new();
        run_session_repl(
            &dtd,
            AnalyzerConfig::default(),
            Jobs::Fixed(1),
            std::io::Cursor::new(script.as_bytes().to_vec()),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("view v1 registered"), "{text}");
        assert!(
            text.contains("view v2 registered"),
            "the auto-name must skip the taken v1: {text}"
        );
        assert!(!text.contains("error"), "{text}");
    }

    #[test]
    fn matrix_views_file_accepts_axis_syntax_lines() {
        let dir = std::env::temp_dir().join(format!("qui-cli-axis-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dtd_path = dir.join("fig1.dtd");
        std::fs::write(&dtd_path, "doc -> (a|b)* ; a -> c ; b -> c").unwrap();
        let views_path = dir.join("views.txt");
        std::fs::write(&views_path, "child::a/c\nv2: //c\n").unwrap();
        let out = run(&strings(&[
            "matrix",
            "--dtd",
            dtd_path.to_str().unwrap(),
            "--views",
            views_path.to_str().unwrap(),
            "--update",
            "delete //b//c",
        ]))
        .unwrap();
        assert!(out.contains("1/2 views independent"), "{out}");
        assert!(out.contains("v1"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn session_repl_rejects_duplicate_names() {
        let dtd = Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap();
        let script = "view x: //a\nview x: //c\nupdate x: delete //c\nupdate y: delete //b\nquit\n";
        let mut out = Vec::new();
        run_session_repl(
            &dtd,
            AnalyzerConfig::default(),
            Jobs::Fixed(1),
            std::io::Cursor::new(script.as_bytes().to_vec()),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("view x registered"), "{text}");
        // Both the duplicate view name and the view/update name clash are
        // rejected; the fresh name still registers.
        assert_eq!(
            text.matches("error: name 'x' is already registered")
                .count(),
            2,
            "{text}"
        );
        assert!(text.contains("update y registered"), "{text}");
    }

    #[test]
    fn session_repl_survives_malformed_expressions() {
        let dtd = Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap();
        let script = "view ]]]not a query\nupdate\nview //a\nquit\n";
        let mut out = Vec::new();
        run_session_repl(
            &dtd,
            AnalyzerConfig::default(),
            Jobs::Fixed(1),
            std::io::Cursor::new(script.as_bytes().to_vec()),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        // Both bad lines report errors, and the session keeps going.
        assert!(text.matches("error:").count() >= 2, "{text}");
        assert!(text.contains("view v1 registered"), "{text}");
    }

    #[test]
    fn matrix_command_verdicts_are_identical_across_job_counts() {
        let dir = std::env::temp_dir().join(format!("qui-cli-matrix-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dtd_path = dir.join("fig1.dtd");
        std::fs::write(&dtd_path, "doc -> (a|b)* ; a -> c ; b -> c").unwrap();
        let views_path = dir.join("views.txt");
        std::fs::write(&views_path, "v1: //a//c\nv2: //c\nv3: //b\n# comment\n").unwrap();
        let run_with_jobs = |jobs: &str| {
            run(&strings(&[
                "matrix",
                "--dtd",
                dtd_path.to_str().unwrap(),
                "--views",
                views_path.to_str().unwrap(),
                "--update",
                "delete //b//c",
                "--jobs",
                jobs,
            ]))
            .unwrap()
        };
        let sequential = run_with_jobs("1");
        assert!(sequential.contains("1/3 views independent"), "{sequential}");
        for jobs in ["2", "8"] {
            assert_eq!(sequential, run_with_jobs(jobs), "jobs = {jobs}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn infer_and_validate_round_trip_via_temp_files() {
        let dir = std::env::temp_dir().join(format!("qui-cli-infer-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let doc_path = dir.join("doc.xml");
        std::fs::write(&doc_path, "<bib><book><title>t</title></book></bib>").unwrap();
        let inferred = run(&strings(&["infer-dtd", doc_path.to_str().unwrap()])).unwrap();
        assert!(inferred.contains("bib -> book"), "{inferred}");
        // Write the inferred rules (minus the comment line) as a DTD and
        // validate the same document against it.
        let dtd_path = dir.join("inferred.dtd");
        let rules: String = inferred
            .lines()
            .filter(|l| !l.starts_with('#'))
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(&dtd_path, rules).unwrap();
        let out = run(&strings(&[
            "validate",
            "--dtd",
            dtd_path.to_str().unwrap(),
            "--start",
            "bib",
            "--doc",
            doc_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.starts_with("valid"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn xmark_streams_a_document_and_validate_ingests_it_streamed() {
        let dir = std::env::temp_dir().join(format!("qui-cli-xmark-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let doc_path = dir.join("xmark.xml");
        let out = run(&strings(&[
            "xmark",
            "--nodes",
            "800",
            "--seed",
            "3",
            "--out",
            doc_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.starts_with("streamed "), "{out}");
        // The streamed file equals the in-memory generation byte for byte.
        let bytes = std::fs::read_to_string(&doc_path).unwrap();
        assert_eq!(bytes, xml_qui::workloads::xmark_document(800, 3).to_xml());
        // And validates against the XMark DTD through the streaming parser.
        let dtd_path = dir.join("xmark.dtd");
        std::fs::write(&dtd_path, xml_qui::workloads::xmark_dtd().to_compact()).unwrap();
        let out = run(&strings(&[
            "validate",
            "--dtd",
            dtd_path.to_str().unwrap(),
            "--start",
            "site",
            "--doc",
            doc_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.starts_with("valid"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_and_infer_dtd_read_a_200000_deep_document() {
        let dir = std::env::temp_dir().join(format!("qui-cli-deep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dtd_path = dir.join("a.dtd");
        std::fs::write(&dtd_path, "a -> a?").unwrap();
        let doc_path = dir.join("deep.xml");
        let depth = 200_000;
        std::fs::write(&doc_path, "<a>".repeat(depth) + &"</a>".repeat(depth)).unwrap();
        let doc = doc_path.to_str().unwrap();
        let out = run(&strings(&[
            "validate",
            "--dtd",
            dtd_path.to_str().unwrap(),
            "--doc",
            doc,
        ]))
        .unwrap();
        assert_eq!(out, "valid: 200000 nodes typed against 1 element types\n");
        let inferred = run(&strings(&["infer-dtd", doc])).unwrap();
        assert!(inferred.contains("\na -> a?\n"), "{inferred}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn xmark_and_maintain_reject_bad_scales() {
        assert!(run(&strings(&["xmark", "--scale", "XXL"])).is_err());
        assert!(
            run(&strings(&["xmark"])).is_err(),
            "scale or nodes required"
        );
        assert!(run(&strings(&["maintain", "--scale", "huge"])).is_err());
        assert!(run(&strings(&["maintain", "--jobs", "0"])).is_err());
    }

    #[test]
    fn generate_produces_a_document_matching_the_dtd() {
        let dir = std::env::temp_dir().join(format!("qui-cli-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dtd_path = dir.join("bib.dtd");
        std::fs::write(&dtd_path, "bib -> book* ; book -> title ; title -> #PCDATA").unwrap();
        let xml = run(&strings(&[
            "generate",
            "--dtd",
            dtd_path.to_str().unwrap(),
            "--nodes",
            "50",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(xml.trim_start().starts_with("<bib"), "{xml}");
        let doc = parse_xml(xml.trim()).unwrap();
        let dtd =
            Dtd::parse_compact("bib -> book* ; book -> title ; title -> #PCDATA", "bib").unwrap();
        assert!(dtd.validate(&doc).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
