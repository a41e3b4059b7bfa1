//! Metric plumbing shared by the three workloads: the metric catalogue,
//! percentiles, peak memory, and the result line the benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// The end-to-end metrics every workload reports, with their units. The
/// meaning of each per workload is documented in `perfbench/README.md`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("independent_frac", "fraction"),
];

/// The per-layer metrics of the traced run, with their units. Every traced
/// run prints all of them; a layer a workload never calls reads 0 there.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("xmlstore.ingest_ms", "ms"),
    ("xmlstore.doc_nodes", "count"),
    ("xmlstore.bytes_per_node", "B"),
    ("xquery.materialize_ms", "ms"),
    ("xquery.view_eval_ms", "ms"),
    ("xquery.view_eval_max_ms", "ms"),
    ("maintain.analysis_ms", "ms"),
    ("maintain.apply_ms", "ms"),
    ("maintain.refresh_ms", "ms"),
    ("maintain.skipped", "count"),
    ("maintain.reevaluated", "count"),
    ("maintain.useful_reeval_frac", "fraction"),
    ("maintain.unattributed_frac", "fraction"),
    ("kbound.ms", "ms"),
    ("cdag.infer_ms", "ms"),
    ("cdag.conflict_ms", "ms"),
    ("cdag.witness_ms", "ms"),
    ("explicit.infer_ms", "ms"),
    ("explicit.overflows", "count"),
    ("conflict.item_ms", "ms"),
    ("session.cdag_inferences", "count"),
    ("session.cdag_hit_frac", "fraction"),
    ("session.explicit_inferences", "count"),
    ("session.explicit_hit_frac", "fraction"),
    ("session.cells_computed", "count"),
    ("analyze.matrix_ms.xmark", "ms"),
    ("analyze.matrix_ms.catalog", "ms"),
    ("analyze.matrix_ms.treatise", "ms"),
    ("analyze.matrix_ms.records", "ms"),
    ("analyze.matrix_ms.article", "ms"),
    ("analyze.matrix_ms.orgchart", "ms"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("session.handle_check_us_p50", "us"),
    ("session.handle_edit_ms_p50", "ms"),
    ("service.requests", "count"),
    ("service.rejected", "count"),
    ("service.http_us_p50", "us"),
    ("client.us_per_req", "us"),
    ("trace.overhead_frac", "fraction"),
    ("process.peak_rss_mb", "MB"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (updates, requests, cells) plus output checks.
    pub attempted: u64,
    /// Operations that failed or whose output did not check out.
    pub failed: u64,
    /// End-to-end values by name (see [`END_TO_END`]).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (see [`PER_LAYER`]); only the traced run
    /// fills them.
    pub layers: BTreeMap<&'static str, f64>,
    /// The workload's own names for its headline numbers (such as
    /// `updates_per_s` or `check_p99_us`), printed to stderr with units.
    pub named: Vec<(String, f64, &'static str)>,
    /// Every set-up repetition's time in seconds (`setup_s` is the median).
    pub setup_samples: Vec<f64>,
}

impl Outcome {
    /// Records a workload-specific headline number for the stderr report.
    pub fn name(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.named.push((name.into(), value, unit));
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The nearest-rank percentile `p` (0 < p <= 1) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples` (nearest rank); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn frac(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The process's peak resident set (VmHWM) in MiB, or 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The JSON result line: `correct`, `attempted`, `failed` and the metrics
/// of the run's mode, each with its unit. Non-finite values print as 0.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_is_json_with_units() {
        let line = result_line(true, 3, 0, &[("a_ms", 1.5, "ms"), ("b", f64::NAN, "count")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
