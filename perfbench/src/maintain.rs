//! `xmark-maintain`: stream-ingest a serialized XMark document, keep the 36
//! views materialized under the `Pruned` strategy, and apply a seeded
//! stream of the 31 XMark updates one per batch. One sample is "update
//! submitted → every view fresh" (one `apply_batch` call).
//!
//! After the timed window every view is re-evaluated from scratch over the
//! final document and must serialize equal to what the engine serves.

use crate::report::{frac, median, ms, peak_rss_mb, percentile, Outcome};
use crate::Config;
use qui_core::Jobs;
use qui_schema::Dtd;
use qui_workloads::{
    all_updates, all_views, stream_xmark_document, xmark_dtd, MaintainStrategy, MaintenanceEngine,
    NamedView,
};
use qui_xmlstore::{parse_xml_stream, serialize_node, Store, StreamConfig, Tree};
use qui_xquery::{evaluate_query, EvalError, Query};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::Cursor;
use std::time::{Duration, Instant};

/// Target document size. XMark "M" (50 000 target nodes) spends seconds
/// per update in the evaluator's sibling-axis path, far too few samples for
/// a tail percentile in one run; this size keeps the same workload at
/// roughly forty updates per second.
pub const TARGET_NODES: usize = 15_000;

/// Seed of the XMark document. The document is part of the workload, not
/// of the run seed: the generator fills its node budget in document order,
/// so the seed decides how many persons and closed auctions there are, and
/// the cross-product views q8/q9/q11 make per-update cost vary tenfold
/// between seeds. The run seed draws the update stream.
pub const DOC_SEED: u64 = 1;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Rounds of the update stream generated up front (each round is a seeded
/// permutation of the 31 updates); the window ends long before they do.
const STREAM_ROUNDS: usize = 400;

/// One set-up: the engine plus what its phases cost.
struct Setup<'s> {
    engine: MaintenanceEngine<'s, Dtd>,
    doc_nodes: usize,
    bytes_per_node: f64,
    ingest: Duration,
    build: Duration,
    materialize: Duration,
}

fn set_up<'s>(dtd: &'s Dtd, xml: &[u8], views: &[NamedView]) -> Result<Setup<'s>, String> {
    let start = Instant::now();
    let parsed = parse_xml_stream(Cursor::new(xml), &StreamConfig::default())
        .map_err(|e| format!("ingest: {e}"))?;
    let ingest = start.elapsed();
    let doc_nodes = parsed.tree.size();
    let bytes_per_node = frac(
        parsed.tree.store.heap_bytes() as f64,
        parsed.tree.store.len() as f64,
    );
    let start = Instant::now();
    let mut engine =
        MaintenanceEngine::new(dtd, parsed.tree, MaintainStrategy::Pruned, Jobs::Fixed(2));
    let build = start.elapsed();
    let start = Instant::now();
    for v in views {
        engine
            .register_view(v.name, &v.query)
            .map_err(|e| format!("materialize {}: {e}", v.name))?;
    }
    Ok(Setup {
        engine,
        doc_nodes,
        bytes_per_node,
        ingest,
        build,
        materialize: start.elapsed(),
    })
}

/// The update stream: `rounds` seeded permutations of `0..n`.
fn update_stream(seed: u64, n: usize, rounds: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0A11_7E57_0000_0001);
    let mut stream = Vec::with_capacity(n * rounds);
    for _ in 0..rounds {
        let mut round: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            round.swap(i, rng.random_range(0..=i));
        }
        stream.extend(round);
    }
    stream
}

/// What a view holds when materialized from scratch over `doc`, exactly as
/// the engine materializes it: the result sequence deep-copied under one
/// `<view>` element. Returns the serialization and the `evaluate_query`
/// time alone.
fn from_scratch(doc: &Tree, q: &Query) -> Result<(String, Duration), EvalError> {
    let mut work = doc.snapshot();
    let root = work.root;
    let start = Instant::now();
    let results = evaluate_query(&mut work.store, root, q)?;
    let eval = start.elapsed();
    let mut store = Store::new();
    let entries = results
        .iter()
        .map(|&n| store.deep_copy_from(&work.store, n))
        .collect();
    let view = store.new_element("view", entries);
    Ok((serialize_node(&store, view), eval))
}

fn view_hashes(engine: &MaintenanceEngine<'_, Dtd>) -> Vec<u64> {
    engine
        .views()
        .iter()
        .map(|v| {
            let mut h = DefaultHasher::new();
            v.serialized().hash(&mut h);
            h.finish()
        })
        .collect()
}

pub fn run(cfg: &Config) -> Outcome {
    let dtd = xmark_dtd();
    let views = all_views();
    let updates = all_updates();
    // Inputs: the serialized document and the seeded update stream.
    let mut xml = Vec::new();
    stream_xmark_document(TARGET_NODES, DOC_SEED, &mut xml).expect("writing to memory");
    let stream = update_stream(cfg.seed, updates.len(), STREAM_ROUNDS);

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut ingest = Vec::new();
    let mut materialize = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Release the previous engine before timing the next set-up.
        drop(last.take());
        let s = set_up(&dtd, &xml, &views).unwrap_or_else(|e| fatal(&e));
        setups.push((s.ingest + s.build + s.materialize).as_secs_f64());
        ingest.push(ms(s.ingest));
        materialize.push(ms(s.materialize));
        last = Some(s);
    }
    let Setup {
        mut engine,
        doc_nodes,
        bytes_per_node,
        ingest: last_ingest,
        build: last_build,
        materialize: last_materialize,
    } = last.expect("at least one set-up");

    // The timed window: one update per batch until the window closes.
    let mut out = Outcome::default();
    let window = Duration::from_secs_f64(cfg.seconds);
    let before = engine.totals().clone();
    let mut latencies = Vec::new();
    let mut batch_wall = Duration::ZERO;
    let mut trace_time = Duration::ZERO;
    let mut hashes = if cfg.trace {
        view_hashes(&engine)
    } else {
        Vec::new()
    };
    let mut changed = 0usize;
    let start = Instant::now();
    for &ui in &stream {
        if start.elapsed() >= window {
            break;
        }
        let t = Instant::now();
        let result = engine.apply_batch(std::slice::from_ref(&updates[ui].update));
        let took = t.elapsed();
        batch_wall += took;
        latencies.push(ms(took));
        out.attempted += 1;
        if let Err(e) = result {
            eprintln!("update {} failed: {e}", updates[ui].name);
            out.failed += 1;
        }
        if cfg.trace {
            let t = Instant::now();
            let now = view_hashes(&engine);
            changed += now.iter().zip(&hashes).filter(|(a, b)| a != b).count();
            hashes = now;
            trace_time += t.elapsed();
        }
    }
    let window_s = (start.elapsed() - trace_time).as_secs_f64();
    let rss = peak_rss_mb();
    let totals = engine.totals();
    let skipped = totals.skipped - before.skipped;
    let reevaluated = totals.reevaluated - before.reevaluated;
    let analysis = totals.analysis - before.analysis;
    let apply = totals.apply - before.apply;
    let refresh = totals.maintain - before.maintain;

    // Output check: every served view equals a from-scratch evaluation.
    let mut eval_ms = Vec::with_capacity(views.len());
    for (v, served) in views.iter().zip(engine.views()) {
        out.attempted += 1;
        match from_scratch(engine.doc(), &v.query) {
            Ok((expected, eval)) => {
                eval_ms.push(ms(eval));
                if served.serialized() != expected {
                    eprintln!("view {} is stale after the stream", v.name);
                    out.failed += 1;
                }
            }
            Err(e) => {
                eprintln!("view {} fails to evaluate: {e}", v.name);
                out.failed += 1;
            }
        }
    }

    let updates_applied = latencies.len();
    let setup_s = median(&setups);
    let p50 = percentile(&latencies, 0.5);
    let p90 = percentile(&latencies, 0.9);
    let p99 = percentile(&latencies, 0.99);
    let throughput = frac(updates_applied as f64, window_s);
    let independent = frac(skipped as f64, (skipped + reevaluated) as f64);
    out.name("updates_per_s", throughput, "1/s");
    out.name("fresh_p50_ms", p50, "ms");
    out.name("fresh_p90_ms", p90, "ms");
    out.name("fresh_p99_ms", p99, "ms");
    out.name("updates_applied", updates_applied as f64, "count");
    out.name("setup_reps", SETUP_REPS as f64, "count");
    out.name("doc_nodes", doc_nodes as f64, "count");
    out.name("peak_rss_mb", rss, "MB");
    out.layers.insert("process.peak_rss_mb", rss);
    out.end_to_end.insert("setup_s", setup_s);
    out.setup_samples = setups;
    out.end_to_end.insert("throughput_per_s", throughput);
    out.end_to_end.insert("latency_p50_ms", p50);
    out.end_to_end.insert("latency_p99_ms", p99);
    out.end_to_end.insert("independent_frac", independent);

    if cfg.trace {
        // The program's own calls: ingest, engine build, view registration
        // (last set-up) and every `apply_batch`; the phases it attributes
        // are ingest, materialize and the three `BatchStats` phases.
        let program = last_ingest + last_build + last_materialize + batch_wall;
        let attributed = last_ingest + last_materialize + analysis + apply + refresh;
        let l = &mut out.layers;
        l.insert("xmlstore.ingest_ms", median(&ingest));
        l.insert("xmlstore.doc_nodes", doc_nodes as f64);
        l.insert("xmlstore.bytes_per_node", bytes_per_node);
        l.insert("xquery.materialize_ms", median(&materialize));
        l.insert("xquery.view_eval_ms", eval_ms.iter().sum());
        l.insert(
            "xquery.view_eval_max_ms",
            eval_ms.iter().copied().fold(0.0, f64::max),
        );
        l.insert("maintain.analysis_ms", ms(analysis));
        l.insert("maintain.apply_ms", ms(apply));
        l.insert("maintain.refresh_ms", ms(refresh));
        l.insert("maintain.skipped", skipped as f64);
        l.insert("maintain.reevaluated", reevaluated as f64);
        l.insert(
            "maintain.useful_reeval_frac",
            frac(changed as f64, reevaluated as f64),
        );
        l.insert(
            "maintain.unattributed_frac",
            frac(
                program.saturating_sub(attributed).as_secs_f64(),
                program.as_secs_f64(),
            ),
        );
        l.insert(
            "trace.overhead_frac",
            frac(trace_time.as_secs_f64(), window_s),
        );
    }
    out
}

fn fatal(message: &str) -> ! {
    eprintln!("xmark-maintain: {message}");
    std::process::exit(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_rounds_are_seeded_permutations() {
        let a = update_stream(5, 31, 3);
        assert_eq!(a, update_stream(5, 31, 3));
        assert_ne!(a, update_stream(6, 31, 3));
        for round in a.chunks(31) {
            let mut r = round.to_vec();
            r.sort_unstable();
            assert_eq!(r, (0..31).collect::<Vec<_>>());
        }
    }

    #[test]
    fn from_scratch_matches_a_fresh_engine() {
        let dtd = xmark_dtd();
        let doc = qui_workloads::xmark_document(800, 3);
        let views = all_views();
        let mut engine =
            MaintenanceEngine::new(&dtd, doc.clone(), MaintainStrategy::Pruned, Jobs::Fixed(1));
        for v in &views {
            engine.register_view(v.name, &v.query).unwrap();
        }
        for (v, served) in views.iter().zip(engine.views()) {
            let (expected, _) = from_scratch(engine.doc(), &v.query).unwrap();
            assert_eq!(served.serialized(), expected, "view {}", v.name);
        }
    }
}
