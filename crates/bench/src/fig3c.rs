//! The Fig. 3.c perf harness: paper-scale view maintenance, end to end.
//!
//! `cargo run -p qui-bench --bin fig3c --release` drives the whole Fig. 3.c
//! pipeline at several XMark document scales and emits a machine-readable
//! `BENCH_fig3c.json` artifact (committed reference in `ci/BENCH_fig3c.json`).
//! Per scale it measures:
//!
//! * **ingest** — streaming the XMark document to disk
//!   (`stream_xmark_document`), then parsing it back both in memory
//!   (`read_to_string` + `parse_xml`) and streamed from the file
//!   (`parse_xml_reader`), recording wall times and the streaming parser's
//!   peak input-window size (which stays `O(chunk)` however large the file);
//! * **streamed projection** — parsing the same file with a chain-derived
//!   [`qui_xmlstore::PathAutomaton`] for a selective view, recording how many
//!   nodes never got allocated and the resident-tree byte savings;
//! * **maintenance** — `maintenance_simulation_jobs` over the views ×
//!   updates workload: naive re-evaluation vs independence-pruned
//!   (work-unit savings, deterministic), and the sequential vs parallel
//!   wall time of the sharded per-view re-evaluation phase.
//!
//! CI runs the S/M scales on every PR (`perf-fig3c` job) and fails when the
//! pruning saving or the parallel speedup is lost, when the streaming parser
//! stops being `O(chunk)`-memory, or when the normalized maintenance cost
//! regresses beyond tolerance against the committed baseline. The L/XL
//! scales run nightly. Thresholds are env-tunable:
//! `QUI_FIG3C_MIN_PRUNING_SAVING` (percent, default 20),
//! `QUI_FIG3C_MIN_PARALLEL_SPEEDUP` (default 1.5, enforced with ≥ 4
//! workers and reported `UNMEASURED` below that),
//! `QUI_FIG3C_MAX_PEAK_BUFFER_FRACTION` (default 0.1, enforced on inputs
//! ≥ 256 KiB), `QUI_FIG3C_MAX_BYTES_PER_NODE` (default 33, half the
//! committed pointer-tree reference), `QUI_FIG3C_TOLERANCE` (default 0.25).
//! Regenerate the
//! committed file with `--quick --out ci/BENCH_fig3c.json` when the
//! pipeline legitimately changes cost.

use qui_core::{ChainProjector, Jobs};
use qui_workloads::{
    all_updates, all_views, maintenance_simulation_jobs, stream_xmark_document, NamedUpdate,
    NamedView, XmarkScale,
};
use qui_xmlstore::{parse_xml, parse_xml_stream, StreamConfig};
use qui_xquery::parse_query;
use std::fmt::Write as _;
use std::fs;
use std::hint::black_box;
use std::io::BufWriter;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The seed every Fig. 3.c measurement uses (same as the report binary).
pub const FIG3C_SEED: u64 = 7;

/// The selective view whose chain-derived projection the streamed-projection
/// measurement uses (a q1-style view over the people region; descendant-free
/// so its chain spec stays within the default materialization budget).
pub const PROJECTION_VIEW: &str = "/people/person/emailaddress";

/// One measured document scale.
#[derive(Clone, Copy, Debug)]
pub struct Fig3cScaleSpec {
    /// Ladder name ("S", "M", "L", "XL").
    pub name: &'static str,
    /// Target document size in nodes.
    pub nodes: usize,
    /// Number of views (prefix of the 36-view workload) in the maintenance
    /// simulation.
    pub views: usize,
    /// Number of updates (prefix of the 31-update workload).
    pub updates: usize,
}

impl Fig3cScaleSpec {
    /// The spec for one ladder scale. S/M/L run the full 36 × 31 workload;
    /// XL reduces the matrix so the nightly run stays tractable while the
    /// document itself grows past the paper's largest size.
    pub fn for_scale(scale: XmarkScale) -> Fig3cScaleSpec {
        let (views, updates) = match scale {
            XmarkScale::ExtraLarge => (18, 16),
            _ => (36, 31),
        };
        Fig3cScaleSpec {
            name: scale.short_name(),
            nodes: scale.target_nodes(),
            views,
            updates,
        }
    }

    /// Parses a comma-separated ladder list (`"S,M"`).
    pub fn parse_list(s: &str) -> Result<Vec<Fig3cScaleSpec>, String> {
        s.split(',')
            .map(|part| {
                XmarkScale::parse(part)
                    .map(Fig3cScaleSpec::for_scale)
                    .ok_or_else(|| format!("unknown scale '{part}' (expected S, M, L or XL)"))
            })
            .collect()
    }
}

/// The default PR-CI ladder (also what `--quick` runs).
pub const QUICK_SCALES: [XmarkScale; 2] = [XmarkScale::Small, XmarkScale::Medium];

/// The default full ladder of the report binary.
pub const DEFAULT_SCALES: [XmarkScale; 3] =
    [XmarkScale::Small, XmarkScale::Medium, XmarkScale::Large];

/// Measurements for one scale (times in milliseconds, minimum over reps).
#[derive(Clone, Debug)]
pub struct Fig3cScaleResult {
    /// Ladder name.
    pub scale: String,
    /// Actual number of nodes in the generated document.
    pub doc_nodes: usize,
    /// Size of the serialized document on disk.
    pub xml_bytes: usize,
    /// Streaming the document to disk.
    pub gen_stream_ms: f64,
    /// `read_to_string` + `parse_xml` (the legacy ingest).
    pub ingest_mem_ms: f64,
    /// `parse_xml_reader` straight from the file.
    pub ingest_stream_ms: f64,
    /// Peak size of the streaming parser's input window.
    pub peak_buffer_bytes: usize,
    /// Resident bytes of the fully parsed tree (exact per-column
    /// accounting, [`qui_xmlstore::Store::heap_bytes`]).
    pub tree_bytes: usize,
    /// `tree_bytes / doc_nodes` — the columnar-layout metric the
    /// `QUI_FIG3C_MAX_BYTES_PER_NODE` gate tracks.
    pub bytes_per_node: f64,
    /// Peak resident set size of the process after this scale's parse
    /// (`VmHWM` from `/proc/self/status`; 0 where unavailable).
    pub peak_rss: usize,
    /// Resident bytes of the stream-projected tree for [`PROJECTION_VIEW`].
    pub projected_tree_bytes: usize,
    /// Nodes the streamed projection never allocated.
    pub proj_pruned_nodes: usize,
    /// Nodes the streamed projection kept.
    pub proj_kept_nodes: usize,
    /// Percentage of nodes pruned during the projected parse.
    pub projection_saving_pct: f64,
    /// Views × updates cells in the maintenance simulation.
    pub cells: usize,
    /// Refreshes left after chain pruning (deterministic).
    pub refreshed_chains: usize,
    /// Work-unit saving of the chain analysis vs naive re-evaluation
    /// (deterministic — the paper's headline number).
    pub pruning_saving_pct: f64,
    /// Work-unit saving of the type-set baseline.
    pub types_saving_pct: f64,
    /// Wall time of the per-view re-evaluation phase, `jobs = 1`.
    pub seq_eval_ms: f64,
    /// Wall time of the per-view re-evaluation phase, `jobs =` workers.
    pub par_eval_ms: f64,
    /// `seq_eval_ms / par_eval_ms`.
    pub speedup_parallel: f64,
}

/// The full Fig. 3.c report.
#[derive(Clone, Debug)]
pub struct Fig3cReport {
    /// Worker count used for the parallel measurements.
    pub workers: usize,
    /// Wall time of the fixed CPU-calibration workload on this machine.
    pub calibration_ms: f64,
    /// Per-scale measurements, smallest to largest.
    pub scales: Vec<Fig3cScaleResult>,
    /// `seq_eval_ms` of the largest scale divided by `calibration_ms` — the
    /// machine-normalized maintenance cost the regression gate tracks.
    pub norm_cost: f64,
}

impl Fig3cReport {
    /// The largest (last) scale.
    pub fn largest(&self) -> &Fig3cScaleResult {
        self.scales.last().expect("at least one scale")
    }

    /// Serializes the report as pretty-printed JSON (hand-rolled: the
    /// workspace is dependency-free by construction).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema_version\": 1,");
        let _ = writeln!(s, "  \"workers\": {},", self.workers);
        let _ = writeln!(s, "  \"calibration_ms\": {:.3},", self.calibration_ms);
        let _ = writeln!(s, "  \"norm_cost\": {:.4},", self.norm_cost);
        let _ = writeln!(s, "  \"largest_doc_nodes\": {},", self.largest().doc_nodes);
        let _ = writeln!(s, "  \"scales\": [");
        for (i, r) in self.scales.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"scale\": \"{}\", \"doc_nodes\": {}, \"xml_bytes\": {}, \
                 \"gen_stream_ms\": {:.3}, \"ingest_mem_ms\": {:.3}, \"ingest_stream_ms\": {:.3}, \
                 \"peak_buffer_bytes\": {}, \"tree_bytes\": {}, \"bytes_per_node\": {:.3}, \
                 \"peak_rss\": {}, \"projected_tree_bytes\": {}, \
                 \"proj_pruned_nodes\": {}, \"proj_kept_nodes\": {}, \
                 \"projection_saving_pct\": {:.3}, \"cells\": {}, \"refreshed_chains\": {}, \
                 \"pruning_saving_pct\": {:.3}, \"types_saving_pct\": {:.3}, \
                 \"seq_eval_ms\": {:.3}, \"par_eval_ms\": {:.3}, \"speedup_parallel\": {:.3}}}",
                r.scale,
                r.doc_nodes,
                r.xml_bytes,
                r.gen_stream_ms,
                r.ingest_mem_ms,
                r.ingest_stream_ms,
                r.peak_buffer_bytes,
                r.tree_bytes,
                r.bytes_per_node,
                r.peak_rss,
                r.projected_tree_bytes,
                r.proj_pruned_nodes,
                r.proj_kept_nodes,
                r.projection_saving_pct,
                r.cells,
                r.refreshed_chains,
                r.pruning_saving_pct,
                r.types_saving_pct,
                r.seq_eval_ms,
                r.par_eval_ms,
                r.speedup_parallel
            );
            let _ = writeln!(s, "{}", if i + 1 < self.scales.len() { "," } else { "" });
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }

    /// Renders a human-readable table of the measurements.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fig 3.c — {} workers, calibration {:.1} ms, norm cost {:.3}",
            self.workers, self.calibration_ms, self.norm_cost
        );
        let _ = writeln!(
            s,
            "{:<5} {:>9} {:>9} {:>8} {:>9} {:>10} {:>7} {:>8} {:>9} {:>9} {:>9} {:>7}",
            "scale",
            "nodes",
            "xml KiB",
            "gen ms",
            "mem ms",
            "stream ms",
            "B/node",
            "proj %",
            "prune %",
            "seq ms",
            "par ms",
            "par x"
        );
        for r in &self.scales {
            let _ = writeln!(
                s,
                "{:<5} {:>9} {:>9} {:>8.1} {:>9.1} {:>10.1} {:>7.1} {:>7.1}% {:>8.1}% {:>9.1} {:>9.1} {:>7.2}",
                r.scale,
                r.doc_nodes,
                r.xml_bytes / 1024,
                r.gen_stream_ms,
                r.ingest_mem_ms,
                r.ingest_stream_ms,
                r.bytes_per_node,
                r.projection_saving_pct,
                r.pruning_saving_pct,
                r.seq_eval_ms,
                r.par_eval_ms,
                r.speedup_parallel
            );
        }
        s
    }
}

fn ms_f64(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs a fixed, deterministic CPU workload and returns its wall time in
/// milliseconds: the machine-speed yardstick `norm_cost` divides by, so the
/// committed reference stays comparable across runners of different speed.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e3779b97f4a7c15;
    for _ in 0..20_000_000u64 {
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
    }
    black_box(x);
    ms_f64(start.elapsed())
}

/// Extracts the first numeric value of `"key": <number>` from a JSON
/// document (enough for the flat reports this harness writes).
pub fn json_number_field(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let idx = json.find(&needle)?;
    let rest = json[idx + needle.len()..].trim_start().strip_prefix(':')?;
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn temp_xml_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("qui-fig3c-{}-{name}.xml", std::process::id()))
}

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where the proc filesystem is unavailable.
pub fn peak_rss_bytes() -> usize {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: usize = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kib * 1024;
        }
    }
    0
}

/// Runs one scale: stream-generate the document to disk once, then measure
/// every ingest/projection/maintenance path `reps` times, keeping minima.
fn run_scale(
    spec: &Fig3cScaleSpec,
    views: &[NamedView],
    updates: &[NamedUpdate],
    workers: usize,
    reps: usize,
) -> std::io::Result<Fig3cScaleResult> {
    let vs = &views[..spec.views.min(views.len())];
    let us = &updates[..spec.updates.min(updates.len())];
    let path = temp_xml_path(spec.name);

    // Stream the document to disk (the generator never holds the tree).
    let start = Instant::now();
    let file = fs::File::create(&path)?;
    let gen_stats = stream_xmark_document(spec.nodes, FIG3C_SEED, BufWriter::new(file))?;
    let gen_stream_ms = ms_f64(start.elapsed());
    let xml_bytes = fs::metadata(&path)?.len() as usize;

    // The chain-derived projection for the streamed projection measurement.
    let dtd = qui_workloads::xmark_dtd();
    let projection_query = parse_query(PROJECTION_VIEW).expect("the projection view parses");
    let projection = ChainProjector::new(&dtd).automaton_for_query(&projection_query);

    let mut ingest_mem = f64::MAX;
    let mut ingest_stream = f64::MAX;
    let mut peak_buffer = 0usize;
    let mut tree_bytes = 0usize;
    let mut projected_tree_bytes = 0usize;
    let mut proj_pruned = 0usize;
    let mut proj_kept = 0usize;
    let mut doc_nodes = 0usize;
    let mut seq_eval = f64::MAX;
    let mut par_eval = f64::MAX;
    let mut pruning_saving = 0.0;
    let mut types_saving = 0.0;
    let mut refreshed_chains = 0usize;
    for _ in 0..reps.max(1) {
        // Legacy ingest: materialize the whole file, then parse.
        let start = Instant::now();
        let text = fs::read_to_string(&path)?;
        let tree = parse_xml(&text).expect("the streamed document parses");
        ingest_mem = ingest_mem.min(ms_f64(start.elapsed()));
        doc_nodes = tree.size();
        tree_bytes = tree.store.heap_bytes();
        drop(text);
        drop(tree);

        // Streamed ingest: same tree, O(chunk) input memory.
        let start = Instant::now();
        let outcome = parse_xml_stream(fs::File::open(&path)?, &StreamConfig::default())
            .expect("the streamed document parses");
        ingest_stream = ingest_stream.min(ms_f64(start.elapsed()));
        peak_buffer = peak_buffer.max(outcome.stats.peak_buffer_bytes);
        drop(outcome);

        // Streamed projection: pruned subtrees are never allocated.
        let projected = parse_xml_stream(
            fs::File::open(&path)?,
            &StreamConfig::with_projection(projection.clone()),
        )
        .expect("the projected parse succeeds");
        projected_tree_bytes = projected.tree.store.heap_bytes();
        proj_pruned = projected.stats.nodes_pruned;
        proj_kept = projected.stats.nodes_kept;
        drop(projected);

        // Maintenance: naive vs pruned (work units, deterministic) and
        // sequential vs parallel (wall time of the sharded phase).
        let seq =
            maintenance_simulation_jobs(vs, us, spec.nodes, spec.name, FIG3C_SEED, Jobs::Fixed(1));
        seq_eval = seq_eval.min(ms_f64(seq.eval_wall));
        pruning_saving = seq.chains_saving_pct();
        types_saving = seq.types_saving_pct();
        refreshed_chains = seq.refreshed_chains;
        let par = maintenance_simulation_jobs(
            vs,
            us,
            spec.nodes,
            spec.name,
            FIG3C_SEED,
            Jobs::Fixed(workers),
        );
        par_eval = par_eval.min(ms_f64(par.eval_wall));
        debug_assert_eq!(seq.deterministic_fields(), par.deterministic_fields());
    }
    let _ = fs::remove_file(&path);
    let parsed_total = proj_kept + proj_pruned;
    Ok(Fig3cScaleResult {
        scale: spec.name.to_string(),
        doc_nodes,
        xml_bytes: xml_bytes.max(gen_stats.bytes as usize),
        gen_stream_ms,
        ingest_mem_ms: ingest_mem,
        ingest_stream_ms: ingest_stream,
        peak_buffer_bytes: peak_buffer,
        tree_bytes,
        bytes_per_node: tree_bytes as f64 / doc_nodes.max(1) as f64,
        peak_rss: peak_rss_bytes(),
        projected_tree_bytes,
        proj_pruned_nodes: proj_pruned,
        proj_kept_nodes: proj_kept,
        projection_saving_pct: if parsed_total == 0 {
            0.0
        } else {
            100.0 * proj_pruned as f64 / parsed_total as f64
        },
        cells: vs.len() * us.len(),
        refreshed_chains,
        pruning_saving_pct: pruning_saving,
        types_saving_pct: types_saving,
        seq_eval_ms: seq_eval,
        par_eval_ms: par_eval,
        speedup_parallel: seq_eval / par_eval.max(f64::EPSILON),
    })
}

/// Runs the full harness: calibration plus every scale in `scales`.
pub fn run_fig3c(
    scales: &[Fig3cScaleSpec],
    workers: usize,
    reps: usize,
) -> std::io::Result<Fig3cReport> {
    let views = all_views();
    let updates = all_updates();
    let calibration_ms = calibrate();
    let mut results = Vec::new();
    for spec in scales {
        results.push(run_scale(spec, &views, &updates, workers, reps)?);
    }
    let norm_cost = results
        .last()
        .map(|r| r.seq_eval_ms / calibration_ms.max(f64::EPSILON))
        .unwrap_or(0.0);
    Ok(Fig3cReport {
        workers,
        calibration_ms,
        scales: results,
        norm_cost,
    })
}

/// Gate thresholds (see the module docs for the environment overrides).
#[derive(Clone, Copy, Debug)]
pub struct Fig3cGateConfig {
    /// Required chain-pruning work saving (percent) at the largest scale.
    pub min_pruning_saving: f64,
    /// Required parallel speedup of the evaluation phase at the largest
    /// scale (enforced only with ≥ 4 workers).
    pub min_parallel_speedup: f64,
    /// Largest allowed `peak_buffer_bytes / xml_bytes` (enforced only on
    /// inputs of at least 256 KiB — below that the chunk granularity
    /// dominates).
    pub max_peak_buffer_fraction: f64,
    /// Largest allowed `tree_bytes / doc_nodes` at the largest scale. The
    /// default is half the committed pointer-tree reference (≈ 66.7 B/node
    /// at every XMark scale), pinning the columnar layout's ≥ 2× win.
    pub max_bytes_per_node: f64,
    /// Allowed relative regression of `norm_cost` against the committed
    /// baseline (0.25 = 25%).
    pub tolerance: f64,
}

impl Default for Fig3cGateConfig {
    fn default() -> Self {
        Fig3cGateConfig {
            min_pruning_saving: 20.0,
            min_parallel_speedup: 1.5,
            max_peak_buffer_fraction: 0.1,
            max_bytes_per_node: 33.0,
            tolerance: 0.25,
        }
    }
}

/// The environment variables [`Fig3cGateConfig::from_env`] reads, colocated
/// with the reader so the `check-refs` binary can cross-check the workflow
/// YAML against the real gate wiring.
pub const GATE_ENV_VARS: &[&str] = &[
    "QUI_FIG3C_MIN_PRUNING_SAVING",
    "QUI_FIG3C_MIN_PARALLEL_SPEEDUP",
    "QUI_FIG3C_MAX_PEAK_BUFFER_FRACTION",
    "QUI_FIG3C_MAX_BYTES_PER_NODE",
    "QUI_FIG3C_TOLERANCE",
];

impl Fig3cGateConfig {
    /// Reads the environment overrides on top of the defaults.
    pub fn from_env() -> Self {
        let mut cfg = Fig3cGateConfig::default();
        if let Some(v) = env_f64("QUI_FIG3C_MIN_PRUNING_SAVING") {
            cfg.min_pruning_saving = v;
        }
        if let Some(v) = env_f64("QUI_FIG3C_MIN_PARALLEL_SPEEDUP") {
            cfg.min_parallel_speedup = v;
        }
        if let Some(v) = env_f64("QUI_FIG3C_MAX_PEAK_BUFFER_FRACTION") {
            cfg.max_peak_buffer_fraction = v;
        }
        if let Some(v) = env_f64("QUI_FIG3C_MAX_BYTES_PER_NODE") {
            cfg.max_bytes_per_node = v;
        }
        if let Some(v) = env_f64("QUI_FIG3C_TOLERANCE") {
            cfg.tolerance = v;
        }
        cfg
    }
}

fn env_f64(key: &str) -> Option<f64> {
    std::env::var(key).ok()?.trim().parse().ok()
}

/// Hardware workers below which the parallel-speedup gate cannot measure
/// anything and reports itself `UNMEASURED` instead of passing.
pub const PARALLEL_GATE_MIN_WORKERS: usize = 4;

/// The one-line summary the `--check` run prints after `PASS` or `FAIL`.
/// With fewer than [`PARALLEL_GATE_MIN_WORKERS`] workers the parallel gate
/// reads `UNMEASURED`, so a run on small hardware never looks like it
/// proved the speedup.
pub fn gate_summary(report: &Fig3cReport, committed_norm: f64) -> String {
    let largest = report.largest();
    let parallel = if report.workers >= PARALLEL_GATE_MIN_WORKERS {
        format!("parallel {:.2}x", largest.speedup_parallel)
    } else {
        format!(
            "parallel UNMEASURED ({:.2}x on {} workers, the gate needs >= {})",
            largest.speedup_parallel, report.workers, PARALLEL_GATE_MIN_WORKERS
        )
    };
    format!(
        "pruning saves {:.1}%, {parallel}, norm cost {:.3} vs committed {:.3}",
        largest.pruning_saving_pct, report.norm_cost, committed_norm
    )
}

/// Minimum input size for the peak-buffer gate to be meaningful.
const PEAK_GATE_MIN_BYTES: usize = 256 * 1024;

/// Applies the perf gates; returns the list of failures (empty = pass).
///
/// `committed` is the committed baseline's `(norm_cost, largest_doc_nodes)`
/// pair: the regression gate only applies when the largest measured scale
/// matches the committed one.
pub fn check_fig3c_gates(
    report: &Fig3cReport,
    committed: Option<(f64, usize)>,
    cfg: &Fig3cGateConfig,
) -> Vec<String> {
    let mut failures = Vec::new();
    let largest = report.largest();
    if largest.pruning_saving_pct < cfg.min_pruning_saving {
        failures.push(format!(
            "chain pruning saves {:.1}% of re-evaluation work at scale {}, required >= {:.1}%",
            largest.pruning_saving_pct, largest.scale, cfg.min_pruning_saving
        ));
    }
    if largest.bytes_per_node > cfg.max_bytes_per_node {
        failures.push(format!(
            "resident tree costs {:.1} bytes/node at scale {}, allowed <= {:.1} (columnar layout regression)",
            largest.bytes_per_node, largest.scale, cfg.max_bytes_per_node
        ));
    }
    if report.workers >= PARALLEL_GATE_MIN_WORKERS
        && largest.speedup_parallel < cfg.min_parallel_speedup
    {
        failures.push(format!(
            "parallel evaluation speedup (jobs={} vs jobs=1) at scale {} is {:.2}x, required >= {:.2}x",
            report.workers, largest.scale, largest.speedup_parallel, cfg.min_parallel_speedup
        ));
    }
    for r in &report.scales {
        if r.xml_bytes >= PEAK_GATE_MIN_BYTES {
            let fraction = r.peak_buffer_bytes as f64 / r.xml_bytes as f64;
            if fraction > cfg.max_peak_buffer_fraction {
                failures.push(format!(
                    "streaming parser buffered {:.1}% of the {}-scale input ({} of {} bytes), allowed <= {:.1}%",
                    fraction * 100.0,
                    r.scale,
                    r.peak_buffer_bytes,
                    r.xml_bytes,
                    cfg.max_peak_buffer_fraction * 100.0
                ));
            }
        }
    }
    if let Some((committed_norm, committed_nodes)) = committed {
        if committed_nodes != largest.doc_nodes {
            eprintln!(
                "note: regression gate skipped — largest scale has {} nodes, committed baseline has {}",
                largest.doc_nodes, committed_nodes
            );
            return failures;
        }
        let limit = committed_norm * (1.0 + cfg.tolerance);
        if report.norm_cost > limit {
            failures.push(format!(
                "normalized maintenance cost regressed: {:.3} vs committed {:.3} (limit {:.3}, tolerance {:.0}%)",
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

    fn tiny_report() -> Fig3cReport {
        Fig3cReport {
            workers: 4,
            calibration_ms: 10.0,
            norm_cost: 5.0,
            scales: vec![Fig3cScaleResult {
                scale: "T".to_string(),
                doc_nodes: 1000,
                xml_bytes: 1 << 20,
                gen_stream_ms: 1.0,
                ingest_mem_ms: 2.0,
                ingest_stream_ms: 2.5,
                peak_buffer_bytes: 8 << 10,
                tree_bytes: 1 << 14,
                bytes_per_node: (1 << 14) as f64 / 1000.0,
                peak_rss: 32 << 20,
                projected_tree_bytes: 1 << 12,
                proj_pruned_nodes: 900,
                proj_kept_nodes: 100,
                projection_saving_pct: 90.0,
                cells: 6,
                refreshed_chains: 2,
                pruning_saving_pct: 60.0,
                types_saving_pct: 30.0,
                seq_eval_ms: 50.0,
                par_eval_ms: 20.0,
                speedup_parallel: 2.5,
            }],
        }
    }

    #[test]
    fn json_round_trips_the_gate_fields() {
        let json = tiny_report().to_json();
        assert_eq!(json_number_field(&json, "norm_cost"), Some(5.0));
        assert_eq!(json_number_field(&json, "largest_doc_nodes"), Some(1000.0));
        assert_eq!(json_number_field(&json, "pruning_saving_pct"), Some(60.0));
        assert_eq!(json_number_field(&json, "speedup_parallel"), Some(2.5));
        assert_eq!(json_number_field(&json, "bytes_per_node"), Some(16.384));
        assert_eq!(
            json_number_field(&json, "peak_rss"),
            Some((32 << 20) as f64)
        );
    }

    #[test]
    fn gates_pass_and_fail_as_configured() {
        let report = tiny_report();
        let cfg = Fig3cGateConfig::default();
        assert!(check_fig3c_gates(&report, Some((5.0, 1000)), &cfg).is_empty());
        // Regression beyond tolerance fails.
        assert_eq!(check_fig3c_gates(&report, Some((3.0, 1000)), &cfg).len(), 1);
        // A committed baseline at a different scale skips the regression gate.
        assert!(check_fig3c_gates(&report, Some((3.0, 999)), &cfg).is_empty());
        // Losing the pruning saving fails.
        let mut lost = report.clone();
        lost.scales[0].pruning_saving_pct = 5.0;
        assert!(!check_fig3c_gates(&lost, None, &cfg).is_empty());
        // Losing the parallel speedup fails with >= 4 workers only.
        let mut slow = report.clone();
        slow.scales[0].speedup_parallel = 1.0;
        assert_eq!(check_fig3c_gates(&slow, None, &cfg).len(), 1);
        slow.workers = 1;
        assert!(check_fig3c_gates(&slow, None, &cfg).is_empty());
        // A bloated per-node footprint fails the columnar-layout gate.
        let mut heavy = report.clone();
        heavy.scales[0].bytes_per_node = 66.7;
        assert_eq!(check_fig3c_gates(&heavy, None, &cfg).len(), 1);
        // A ballooning input window fails.
        let mut fat = report.clone();
        fat.scales[0].peak_buffer_bytes = fat.scales[0].xml_bytes / 2;
        assert!(!check_fig3c_gates(&fat, None, &cfg).is_empty());
        // ... but not on tiny inputs where chunk granularity dominates.
        fat.scales[0].xml_bytes = 100 << 10;
        fat.scales[0].peak_buffer_bytes = 50 << 10;
        assert!(check_fig3c_gates(&fat, None, &cfg).is_empty());
    }

    #[test]
    fn parallel_gate_reports_unmeasured_below_four_workers() {
        let mut report = tiny_report();
        let summary = gate_summary(&report, 5.0);
        assert!(summary.contains("parallel 2.50x"), "{summary}");
        assert!(!summary.contains("UNMEASURED"), "{summary}");
        report.workers = 2;
        let summary = gate_summary(&report, 5.0);
        assert!(summary.contains("parallel UNMEASURED"), "{summary}");
    }

    #[test]
    fn scale_lists_parse() {
        let scales = Fig3cScaleSpec::parse_list("S,M").unwrap();
        assert_eq!(scales.len(), 2);
        assert_eq!(scales[0].name, "S");
        assert_eq!(scales[1].nodes, XmarkScale::Medium.target_nodes());
        assert!(Fig3cScaleSpec::parse_list("S,nope").is_err());
        let xl = Fig3cScaleSpec::for_scale(XmarkScale::ExtraLarge);
        assert!(xl.views < 36, "XL reduces the matrix");
    }

    #[test]
    fn tiny_fig3c_run_is_consistent() {
        // One minuscule scale keeps the test fast while exercising the whole
        // measurement pipeline end to end (generation, both ingest paths,
        // streamed projection, sequential + parallel maintenance).
        let spec = Fig3cScaleSpec {
            name: "tiny",
            nodes: 1_500,
            views: 3,
            updates: 2,
        };
        let report = run_fig3c(&[spec], 2, 1).unwrap();
        assert_eq!(report.scales.len(), 1);
        let r = &report.scales[0];
        assert!(r.doc_nodes >= 500, "{}", r.doc_nodes);
        assert!(r.xml_bytes > 0 && r.tree_bytes > 0);
        assert!(
            r.bytes_per_node > 0.0 && r.bytes_per_node < 64.0,
            "{}",
            r.bytes_per_node
        );
        assert!(cfg!(not(target_os = "linux")) || r.peak_rss > 0);
        assert!(r.ingest_mem_ms > 0.0 && r.ingest_stream_ms > 0.0);
        assert!(r.peak_buffer_bytes > 0 && r.peak_buffer_bytes < r.tree_bytes);
        assert!(r.proj_kept_nodes + r.proj_pruned_nodes > 0);
        assert!(r.projected_tree_bytes <= r.tree_bytes);
        assert!(r.seq_eval_ms > 0.0 && r.par_eval_ms > 0.0);
        assert_eq!(r.cells, 6);
        let json = report.to_json();
        assert_eq!(json_number_field(&json, "cells"), Some(6.0));
    }
}
