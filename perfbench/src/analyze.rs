//! `corpus-analyze`: the paper's own computation, cold. One fresh
//! `AnalysisSession` (default `Auto` engine) per schema decides a whole
//! views × updates matrix with `add_workload`: XMark's 36 × 31, then the
//! schema corpus (five fixtures plus seeded generated schemas), each with a
//! seeded pool of generated queries and updates. No HTTP, no evaluator on
//! the timed path. One operation is one schema's cold matrix; the window
//! runs whole passes over the corpus.
//!
//! After the window a seeded sample of the cells proved independent is
//! refuted dynamically on generated valid instances: a cell whose query
//! result an update changes, on an instance the update leaves valid, would
//! be an unsound verdict.

use crate::report::{frac, median, ms, peak_rss_mb, percentile, Outcome};
use crate::Config;
use qui_core::conflict::find_conflict;
use qui_core::engine::cdag::{CdagEngine, ChainDag, DagQueryChains};
use qui_core::engine::explicit::ExplicitEngine;
use qui_core::types::{QueryChains, UpdateChains};
use qui_core::{k_for_pair, AnalyzerConfig, Jobs, SessionBuilder, SessionStats, Universe};
use qui_schema::{generate_valid, random_query, random_update, Corpus, Dtd, GenValidConfig};
use qui_workloads::updates::UPDATE_SOURCES;
use qui_workloads::views::VIEW_SOURCES;
use qui_workloads::xmark_dtd;
use qui_xmlstore::Tree;
use qui_xquery::dynamic::snapshot_query;
use qui_xquery::{apply_pending_list, evaluate_update, parse_query, parse_update, Query, Update};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Generated schemas added to the five fixtures, and the corpus seed they
/// come from. The schemas are part of the workload, not of the run seed:
/// a few deep generated shapes cost a hundred times the rest, so a seeded
/// corpus swings a pass's cost threefold between seeds. The run seed
/// draws the query and update pools.
const GENERATED: usize = 60;
const CORPUS_SEED: u64 = 1;
/// Generated queries and updates per corpus schema.
const POOL: usize = 30;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Independent cells refuted dynamically after the window, and the valid
/// instances each is tried on.
const REFUTED: usize = 400;
const INSTANCES: usize = 3;
const INSTANCE_NODES: usize = 250;

/// One schema's inputs as text, generated from the seed.
struct Source {
    name: String,
    /// `None` for XMark (built by `xmark_dtd`), else the corpus schema.
    corpus: Option<qui_schema::CorpusSchema>,
    queries: Vec<String>,
    updates: Vec<String>,
}

/// One schema's parsed workload.
struct Work {
    name: String,
    dtd: Dtd,
    views: Vec<(String, Query)>,
    updates: Vec<(String, Update)>,
}

fn generate(seed: u64) -> Vec<Source> {
    let mut sources = vec![Source {
        name: "xmark".to_string(),
        corpus: None,
        queries: VIEW_SOURCES.iter().map(|(_, s)| s.to_string()).collect(),
        updates: UPDATE_SOURCES.iter().map(|(_, s)| s.to_string()).collect(),
    }];
    for (i, cs) in Corpus::seeded(CORPUS_SEED, GENERATED)
        .into_iter()
        .enumerate()
    {
        let labels = cs.labels();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1_000_003).wrapping_add(i as u64));
        let queries = (0..POOL).map(|_| random_query(&labels, &mut rng)).collect();
        let updates = (0..POOL)
            .map(|_| random_update(&cs.start, &labels, &mut rng))
            .collect();
        sources.push(Source {
            name: cs.name.clone(),
            corpus: Some(cs),
            queries,
            updates,
        });
    }
    sources
}

/// The timed set-up: parse every schema and every expression.
fn set_up(sources: &[Source]) -> Result<Vec<Work>, String> {
    sources
        .iter()
        .map(|s| {
            let dtd = match &s.corpus {
                None => xmark_dtd(),
                Some(cs) => cs.dtd(),
            };
            let views = s
                .queries
                .iter()
                .enumerate()
                .map(|(i, q)| parse_query(q).map(|q| (format!("q{i}"), q)))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("{}: {e}", s.name))?;
            let updates = s
                .updates
                .iter()
                .enumerate()
                .map(|(i, u)| parse_update(u).map(|u| (format!("u{i}"), u)))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("{}: {e}", s.name))?;
            Ok(Work {
                name: s.name.clone(),
                dtd,
                views,
                updates,
            })
        })
        .collect()
}

/// The per-layer metric of a named schema's matrix time.
fn matrix_metric(schema: &str) -> Option<&'static str> {
    Some(match schema {
        "xmark" => "analyze.matrix_ms.xmark",
        "catalog" => "analyze.matrix_ms.catalog",
        "treatise" => "analyze.matrix_ms.treatise",
        "records" => "analyze.matrix_ms.records",
        "article" => "analyze.matrix_ms.article",
        "orgchart" => "analyze.matrix_ms.orgchart",
        _ => return None,
    })
}

/// Layer times of the traced replay.
#[derive(Default)]
struct Replay {
    kbound: Duration,
    cdag_infer: Duration,
    cdag_conflict: Duration,
    cdag_witness: Duration,
    explicit_infer: Duration,
    overflows: usize,
    item: Duration,
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed();
    out
}

/// Replays one schema's matrix through the layers' public entry points,
/// in the session's `Auto` order: k-bounds for every cell, CDAG inference
/// per distinct `(expression, k)` and a CDAG conflict check per cell (with
/// witness synthesis where it fails), then explicit inference and item
/// conflicts for the cells the CDAG could not prove.
fn replay(w: &Work, r: &mut Replay) {
    let config = AnalyzerConfig::default();
    let ks: Vec<Vec<usize>> = timed(&mut r.kbound, || {
        w.updates
            .iter()
            .map(|(_, u)| w.views.iter().map(|(_, q)| k_for_pair(q, u)).collect())
            .collect()
    });
    let mut engines: BTreeMap<usize, CdagEngine<'_, Dtd>> = BTreeMap::new();
    let mut dag_q: HashMap<(usize, usize), DagQueryChains> = HashMap::new();
    let mut dag_u: HashMap<(usize, usize), ChainDag> = HashMap::new();
    let mut unproved = Vec::new();
    for (ui, (_, u)) in w.updates.iter().enumerate() {
        for (vi, (_, q)) in w.views.iter().enumerate() {
            let k = ks[ui][vi];
            timed(&mut r.cdag_infer, || {
                let eng = engines.entry(k).or_insert_with(|| {
                    CdagEngine::new(&w.dtd, k).with_element_chains(config.element_chains)
                });
                dag_q
                    .entry((vi, k))
                    .or_insert_with(|| eng.infer_query(&eng.root_gamma(q.free_vars()), q));
                dag_u
                    .entry((ui, k))
                    .or_insert_with(|| eng.infer_update(&eng.root_gamma(u.free_vars()), u));
            });
            let eng = &engines[&k];
            let (qc, uc) = (&dag_q[&(vi, k)], &dag_u[&(ui, k)]);
            if !timed(&mut r.cdag_conflict, || eng.independent(qc, uc)) {
                std::hint::black_box(timed(&mut r.cdag_witness, || eng.find_dag_conflict(qc, uc)));
                unproved.push((ui, vi, k));
            }
        }
    }
    let mut ex_q: HashMap<(usize, usize), Option<QueryChains>> = HashMap::new();
    let mut ex_u: HashMap<(usize, usize), Option<UpdateChains>> = HashMap::new();
    for (ui, vi, k) in unproved {
        let (q, u) = (&w.views[vi].1, &w.updates[ui].1);
        let overflows = &mut r.overflows;
        let qc = timed(&mut r.explicit_infer, || {
            ex_q.entry((vi, k))
                .or_insert_with(|| {
                    let universe = Universe::with_k(&w.dtd, k);
                    let eng = ExplicitEngine::new(&universe, config.explicit_budget)
                        .with_element_chains(config.element_chains);
                    let out = eng.infer_query(&eng.root_gamma(q.free_vars()), q).ok();
                    *overflows += usize::from(out.is_none());
                    out
                })
                .clone()
        });
        let Some(qc) = qc else { continue };
        let uc = timed(&mut r.explicit_infer, || {
            ex_u.entry((ui, k))
                .or_insert_with(|| {
                    let universe = Universe::with_k(&w.dtd, k);
                    let eng = ExplicitEngine::new(&universe, config.explicit_budget)
                        .with_element_chains(config.element_chains);
                    let out = eng.infer_update(&eng.root_gamma(u.free_vars()), u).ok();
                    *overflows += usize::from(out.is_none());
                    out
                })
                .clone()
        });
        if let Some(uc) = uc {
            std::hint::black_box(timed(&mut r.item, || find_conflict(&qc, &uc)));
        }
    }
}

/// Whether `doc` refutes the independence of `(q, u)`: the dynamic check
/// of Definition 2.4 (`dynamic_independent`), counted only when the
/// updated document is still valid. The analysis reasons over schema-valid
/// documents, so an update whose result leaves the schema voids its
/// guarantee rather than refuting it. Returns `None` in that case.
fn refutes(dtd: &Dtd, doc: &Tree, q: &Query, u: &Update) -> Option<bool> {
    let before = snapshot_query(doc, q).ok()?;
    let mut updated = doc.clone();
    let root = updated.root;
    let pending = evaluate_update(&mut updated.store, root, u).ok()?;
    apply_pending_list(&mut updated.store, &pending);
    dtd.validate(&updated).ok()?;
    Some(snapshot_query(&updated, q).ok()? != before)
}

/// Tries a seeded sample of the independent cells on generated valid
/// instances; returns (cells tried, cells refuted, instances whose updated
/// document left the schema).
fn refute(
    seed: u64,
    works: &[Work],
    independent: &[(usize, usize, usize)],
) -> (usize, usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00D1_5C0F_FEE0);
    let mut cells = independent.to_vec();
    let take = REFUTED.min(cells.len());
    for i in 0..take {
        let j = rng.random_range(i..cells.len());
        cells.swap(i, j);
    }
    cells.truncate(take);
    cells.sort_unstable();
    let mut instances: HashMap<usize, Vec<Tree>> = HashMap::new();
    let (mut refuted, mut invalid) = (0, 0);
    for &(si, ui, vi) in &cells {
        let w = &works[si];
        let docs = instances.entry(si).or_insert_with(|| {
            (0..INSTANCES as u64)
                .map(|k| {
                    let config = GenValidConfig::with_target(INSTANCE_NODES);
                    generate_valid(&w.dtd, &config, seed.wrapping_mul(31).wrapping_add(k))
                })
                .collect()
        });
        let (q, u) = (&w.views[vi].1, &w.updates[ui].1);
        let outcomes: Vec<Option<bool>> = docs.iter().map(|d| refutes(&w.dtd, d, q, u)).collect();
        invalid += outcomes.iter().filter(|o| o.is_none()).count();
        if outcomes.contains(&Some(true)) {
            eprintln!(
                "unsound: {} cell ({q}, {u}) proved independent but a valid instance changes",
                w.name
            );
            refuted += 1;
        }
    }
    (take, refuted, invalid)
}

pub fn run(cfg: &Config) -> Outcome {
    let sources = generate(cfg.seed);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut works = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut works));
        let start = Instant::now();
        works = set_up(&sources).unwrap_or_else(|e| fatal(&e));
        setups.push(start.elapsed().as_secs_f64());
    }

    let mut out = Outcome::default();
    let window = Duration::from_secs_f64(cfg.seconds);
    let mut latencies = Vec::new();
    let mut per_schema: Vec<Vec<f64>> = vec![Vec::new(); works.len()];
    let mut first_counts: Vec<usize> = Vec::new();
    let mut independent_cells: Vec<(usize, usize, usize)> = Vec::new();
    let (mut cells, mut independent, mut passes) = (0u64, 0u64, 0usize);
    let mut stats: Vec<SessionStats> = Vec::new();
    let mut tracing = Duration::ZERO;
    let start = Instant::now();
    while passes == 0 || start.elapsed() < window {
        for (si, w) in works.iter().enumerate() {
            let (views, updates) = (w.views.clone(), w.updates.clone());
            let t = Instant::now();
            let mut session = SessionBuilder::new(&w.dtd).jobs(Jobs::Fixed(2)).build();
            session.add_workload(views, updates);
            let took = ms(t.elapsed());
            latencies.push(took);
            per_schema[si].push(took);
            let n = (w.views.len() * w.updates.len()) as u64;
            let ind = session.independent_count();
            cells += n;
            independent += ind as u64;
            if passes == 0 {
                first_counts.push(ind);
                for ui in 0..w.updates.len() {
                    for (vi, flag) in session.independent_flags(ui).into_iter().enumerate() {
                        if flag {
                            independent_cells.push((si, ui, vi));
                        }
                    }
                }
            } else if first_counts[si] != ind {
                eprintln!(
                    "{}: pass {passes} proved {ind} cells, pass 0 {}",
                    w.name, first_counts[si]
                );
                out.failed += n;
            }
            if cfg.trace {
                let t = Instant::now();
                stats.push(session.stats());
                tracing += t.elapsed();
            }
        }
        passes += 1;
    }
    let window_s = (start.elapsed() - tracing).as_secs_f64();
    let rss = peak_rss_mb();
    out.attempted = cells;
    let (tried, refuted, invalid) = refute(cfg.seed, &works, &independent_cells);
    out.failed += refuted as u64;

    let throughput = frac(cells as f64, window_s);
    let p50 = percentile(&latencies, 0.5);
    let p99 = percentile(&latencies, 0.99);
    let independent_frac = frac(independent as f64, cells as f64);
    out.name("cells_per_s", throughput, "1/s");
    out.name("matrix_p50_ms", p50, "ms");
    out.name("matrix_p90_ms", percentile(&latencies, 0.9), "ms");
    out.name("matrix_p99_ms", p99, "ms");
    out.name("schemas", works.len() as f64, "count");
    out.name("passes", passes as f64, "count");
    out.name("cells_per_pass", frac(cells as f64, passes as f64), "count");
    out.name("refutation_cells_tried", tried as f64, "count");
    out.name("refutation_invalid_results", invalid as f64, "count");
    out.name("setup_reps", SETUP_REPS as f64, "count");
    out.name("peak_rss_mb", rss, "MB");
    out.layers.insert("process.peak_rss_mb", rss);
    out.end_to_end.insert("setup_s", median(&setups));
    out.setup_samples = setups;
    out.end_to_end.insert("throughput_per_s", throughput);
    out.end_to_end.insert("latency_p50_ms", p50);
    out.end_to_end.insert("latency_p99_ms", p99);
    out.end_to_end.insert("independent_frac", independent_frac);

    if cfg.trace {
        let mut r = Replay::default();
        for w in &works {
            replay(w, &mut r);
        }
        let sum = |f: fn(&SessionStats) -> usize| stats.iter().map(f).sum::<usize>() as f64;
        let cdag_inf = sum(|s| s.cdag_inferences);
        let cdag_hits = sum(|s| s.cdag_cache_hits);
        let expl_inf = sum(|s| s.explicit_inferences);
        let expl_hits = sum(|s| s.explicit_cache_hits);
        let l = &mut out.layers;
        l.insert("kbound.ms", ms(r.kbound));
        l.insert("cdag.infer_ms", ms(r.cdag_infer));
        l.insert("cdag.conflict_ms", ms(r.cdag_conflict));
        l.insert("cdag.witness_ms", ms(r.cdag_witness));
        l.insert("explicit.infer_ms", ms(r.explicit_infer));
        l.insert("explicit.overflows", r.overflows as f64);
        l.insert("conflict.item_ms", ms(r.item));
        l.insert("session.cdag_inferences", cdag_inf);
        l.insert(
            "session.cdag_hit_frac",
            frac(cdag_hits, cdag_hits + cdag_inf),
        );
        l.insert("session.explicit_inferences", expl_inf);
        l.insert(
            "session.explicit_hit_frac",
            frac(expl_hits, expl_hits + expl_inf),
        );
        l.insert("session.cells_computed", sum(|s| s.cells_computed));
        for (w, times) in works.iter().zip(&per_schema) {
            if let Some(metric) = matrix_metric(&w.name) {
                l.insert(metric, median(times));
            }
        }
        l.insert("trace.overhead_frac", frac(tracing.as_secs_f64(), window_s));
    }
    out
}

fn fatal(message: &str) -> ! {
    eprintln!("corpus-analyze: {message}");
    std::process::exit(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_seeded_and_parse() {
        let a = generate(4);
        let b = generate(4);
        assert_eq!(a.len(), 1 + 5 + GENERATED);
        assert_eq!(a[7].queries, b[7].queries);
        assert_eq!(a[7].name, generate(5)[7].name);
        assert_ne!(a[7].queries, generate(5)[7].queries);
        let works = set_up(&a).unwrap();
        assert_eq!(works[0].views.len(), 36);
        assert_eq!(works[0].updates.len(), 31);
        assert!(works
            .iter()
            .all(|w| matrix_metric(&w.name).is_some() || w.name.starts_with("gen-")));
    }

    #[test]
    fn replay_covers_the_fixtures() {
        let works = set_up(&generate(4)[..6]).unwrap();
        let mut r = Replay::default();
        for w in &works {
            replay(w, &mut r);
        }
        assert!(r.cdag_infer > Duration::ZERO);
        assert!(r.kbound > Duration::ZERO);
    }
}
