//! Validation of the committed benchmark references and the CI gate wiring.
//!
//! Two classes of silent CI rot motivate this module:
//!
//! 1. A committed `ci/BENCH_*.json` reference can lose a field (or pick up a
//!    `NaN`/`inf`) during a hand-edit or a harness refactor, after which the
//!    corresponding `--check` gate reads `None` and stops gating anything.
//! 2. A workflow YAML can set a typoed `QUI_*` env var (or keep setting one a
//!    harness no longer reads), after which the intended threshold silently
//!    falls back to the in-code default.
//!
//! A third check guards against references drifting apart: every reference
//! that records `independent_cells` for the full XMark views × updates
//! matrix must record the same count ([`check_matrix_agreement`]) — the
//! verdicts are deterministic, so a disagreement means some reference was
//! measured on older code and is stale.
//!
//! A fourth check guards against retired cells ([`check_cells`]): every
//! committed `ci/BENCH_*.json` needs a [`RefSpec`], and every [`RefSpec`]
//! needs a `harness:` cell in the CI perf matrix that regenerates and gates
//! it — otherwise a reference outlives its harness unnoticed.
//!
//! The `check-refs` binary runs all four checks in CI. The source of truth for
//! the second check is the `GATE_ENV_VARS` const colocated with each gate's
//! `from_env` reader ([`crate::baseline::GATE_ENV_VARS`] and friends) — the
//! const and the reader sit next to each other precisely so a reviewer sees
//! both change together.
//!
//! The module also renders the nightly `speedup-trend` artifact: a markdown
//! table diffing freshly measured headline metrics (`speedup_parallel`,
//! `warm_speedup`, …) against the committed references, so speedup drift is
//! visible across nightly runs without failing the build.

use std::collections::BTreeSet;

/// One committed benchmark reference: its file name, the numeric fields a
/// valid report must contain, and the headline metrics worth trending.
#[derive(Clone, Copy, Debug)]
pub struct RefSpec {
    /// File name under `ci/` (and under a fresh measurement directory).
    pub file: &'static str,
    /// Numeric fields that must appear at least once, each finite.
    pub required: &'static [&'static str],
    /// Headline metrics diffed by the nightly speedup-trend artifact.
    pub trend: &'static [&'static str],
}

/// The committed reference set, one entry per perf harness.
pub const REF_SPECS: &[RefSpec] = &[
    RefSpec {
        file: "BENCH_baseline.json",
        required: &[
            "schema_version",
            "workers",
            "calibration_ms",
            "norm_cost",
            "largest_cells",
            "pairwise_ms",
            "seq_ms",
            "par_ms",
            "speedup_parallel",
            "speedup_vs_pairwise",
        ],
        trend: &["speedup_parallel", "speedup_vs_pairwise"],
    },
    RefSpec {
        file: "BENCH_cdag.json",
        required: &[
            "schema_version",
            "workers",
            "calibration_ms",
            "auto_ms",
            "independent_cells",
            "automaton_saving_pct",
            "norm_cost",
        ],
        trend: &[],
    },
    RefSpec {
        file: "BENCH_fig3c.json",
        required: &[
            "schema_version",
            "workers",
            "calibration_ms",
            "norm_cost",
            "pruning_saving_pct",
            "speedup_parallel",
            "peak_buffer_bytes",
            "bytes_per_node",
            "peak_rss",
        ],
        trend: &["speedup_parallel", "pruning_saving_pct", "bytes_per_node"],
    },
    RefSpec {
        file: "BENCH_session.json",
        required: &[
            "schema_version",
            "calibration_ms",
            "cold_ms",
            "warm_ms",
            "warm_speedup",
            "incremental_speedup",
            "verdict_mismatches",
            "norm_cost",
        ],
        trend: &["warm_speedup", "incremental_speedup"],
    },
    RefSpec {
        file: "BENCH_maintain.json",
        required: &[
            "schema_version",
            "workers",
            "calibration_ms",
            "norm_cost",
            "largest_doc_nodes",
            "pruned_speedup",
            "updates_per_sec",
        ],
        trend: &["pruned_speedup"],
    },
    RefSpec {
        file: "BENCH_serve.json",
        required: &[
            "schema_version",
            "workers",
            "calibration_ms",
            "concurrent_speedup",
            "verdict_mismatches",
            "norm_cost",
        ],
        trend: &["concurrent_speedup"],
    },
];

/// Environment variables that are legitimately referenced by the workflows
/// but are not gate thresholds (worker-count and proptest-depth knobs).
pub const NON_GATE_ENV_VARS: &[&str] = &["QUI_JOBS", "QUI_PROPTEST_CASES"];

/// Every `QUI_*` variable some harness gate actually reads.
pub fn known_gate_vars() -> BTreeSet<&'static str> {
    let mut set = BTreeSet::new();
    set.extend(crate::baseline::GATE_ENV_VARS);
    set.extend(crate::cdag::GATE_ENV_VARS);
    set.extend(crate::fig3c::GATE_ENV_VARS);
    set.extend(crate::maintain::GATE_ENV_VARS);
    set.extend(crate::serve::GATE_ENV_VARS);
    set.extend(crate::session::GATE_ENV_VARS);
    set
}

/// Extracts every `"key": <number>` pair from a JSON document, in document
/// order, erroring on a malformed or non-finite number.
///
/// This is a scanner, not a parser: it only needs to see quoted keys whose
/// value starts like a number, which is exactly the shape the harness
/// reports have (objects and arrays of objects with numeric and string
/// leaves). String values are never mistaken for keys because a key is a
/// quoted token immediately followed by `:`.
pub fn scan_json_numbers(json: &str) -> Result<Vec<(String, f64)>, String> {
    let bytes = json.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        // Quoted token (harness keys and values contain no escapes).
        let start = i + 1;
        let Some(rel_end) = json[start..].find('"') else {
            return Err("unterminated string literal".to_string());
        };
        let token = &json[start..start + rel_end];
        i = start + rel_end + 1;
        // A key is a quoted token immediately followed by ':'.
        let rest = json[i..].trim_start();
        if !rest.starts_with(':') {
            continue;
        }
        let value = rest[1..].trim_start();
        let Some(first) = value.chars().next() else {
            return Err(format!("key {token:?} has no value"));
        };
        if first == '-' || first.is_ascii_digit() {
            let end = value
                .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
                .unwrap_or(value.len());
            let literal = &value[..end];
            let parsed: f64 = literal
                .parse()
                .map_err(|_| format!("key {token:?} has malformed number {literal:?}"))?;
            if !parsed.is_finite() {
                return Err(format!("key {token:?} has non-finite value {literal:?}"));
            }
            out.push((token.to_string(), parsed));
        }
    }
    Ok(out)
}

/// Validates one reference document against its spec; returns the list of
/// failures (empty = pass).
pub fn validate_reference(name: &str, json: &str, spec: &RefSpec) -> Vec<String> {
    let numbers = match scan_json_numbers(json) {
        Ok(n) => n,
        Err(e) => return vec![format!("{name}: {e}")],
    };
    let mut failures = Vec::new();
    if numbers.is_empty() {
        failures.push(format!("{name}: no numeric fields at all"));
    }
    for field in spec.required {
        if !numbers.iter().any(|(k, _)| k == field) {
            failures.push(format!(
                "{name}: required numeric field {field:?} is missing"
            ));
        }
    }
    failures
}

/// The `independent_cells` counts a reference records for a `views ×
/// updates` matrix, in document order. A reference may hold several
/// matrices (the baseline ladder has one per scale), so each count is
/// attributed to the nearest preceding `views` and `updates` fields.
pub fn independent_cells_for(json: &str, views: usize, updates: usize) -> Result<Vec<f64>, String> {
    let mut shape = (None, None);
    let mut out = Vec::new();
    for (key, value) in scan_json_numbers(json)? {
        match key.as_str() {
            "views" => shape.0 = Some(value),
            "updates" => shape.1 = Some(value),
            "independent_cells" if shape == (Some(views as f64), Some(updates as f64)) => {
                out.push(value)
            }
            _ => {}
        }
    }
    Ok(out)
}

/// Fails when the given `(file, json)` references disagree on the
/// `independent_cells` of the `views × updates` matrix (references that do
/// not record it are ignored).
pub fn check_matrix_agreement(refs: &[(&str, &str)], views: usize, updates: usize) -> Vec<String> {
    let mut seen: Vec<(&str, f64)> = Vec::new();
    let mut failures = Vec::new();
    for &(file, json) in refs {
        match independent_cells_for(json, views, updates) {
            Ok(counts) => seen.extend(counts.into_iter().map(|c| (file, c))),
            Err(e) => failures.push(format!("{file}: {e}")),
        }
    }
    if seen.windows(2).any(|w| w[0].1 != w[1].1) {
        let listed: Vec<String> = seen.iter().map(|(f, c)| format!("{f} = {c}")).collect();
        failures.push(format!(
            "references disagree on independent_cells of the {views}x{updates} matrix ({}); \
             regenerate the stale ones",
            listed.join(", ")
        ));
    }
    failures
}

/// Every `QUI_[A-Z0-9_]+` token mentioned in a workflow file (env blocks,
/// comments, run scripts — anywhere; a stale mention in a comment is worth
/// flagging too, but only env-block keys can break gating, so the scanner
/// stays deliberately simple and the caller decides severity).
pub fn scan_env_tokens(yaml: &str) -> BTreeSet<String> {
    let bytes = yaml.as_bytes();
    let mut out = BTreeSet::new();
    let mut i = 0;
    while let Some(rel) = yaml[i..].find("QUI_") {
        let start = i + rel;
        let mut end = start + 4;
        while end < bytes.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        if end > start + 4 {
            out.insert(yaml[start..end].to_string());
        }
        i = end;
    }
    out
}

/// Cross-checks the workflow YAML files against the real gate readers.
///
/// Fails when a workflow mentions a `QUI_*` variable no harness reads (a
/// typo would silently disable the gate), and when a declared gate variable
/// is never mentioned by any workflow (the threshold would silently ride on
/// the in-code default, which is not what a CI-tuned gate intends).
pub fn check_wiring(workflows: &[(String, String)]) -> Vec<String> {
    let known = known_gate_vars();
    let mut failures = Vec::new();
    let mut mentioned: BTreeSet<String> = BTreeSet::new();
    for (name, text) in workflows {
        for token in scan_env_tokens(text) {
            if !known.contains(token.as_str()) && !NON_GATE_ENV_VARS.contains(&token.as_str()) {
                failures.push(format!(
                    "{name}: references {token}, which no harness gate reads (typo?)"
                ));
            }
            mentioned.insert(token);
        }
    }
    for var in known {
        if !mentioned.contains(var) {
            failures.push(format!(
                "no workflow sets {var}; its gate silently rides on the in-code default"
            ));
        }
    }
    failures
}

/// The `harness:` names of the CI perf matrix, in workflow order.
fn perf_matrix_harnesses(yaml: &str) -> Vec<&str> {
    yaml.lines()
        .filter_map(|line| line.trim_start().strip_prefix("- harness:"))
        .map(|name| name.trim().trim_matches('"'))
        .collect()
}

/// Cross-checks the committed reference files against [`RefSpec`]s and the
/// perf matrix of `ci_yaml`: fails for a `BENCH_*.json` without a spec and
/// for a spec whose harness has no `harness:` cell.
pub fn check_cells(ref_files: &[String], specs: &[RefSpec], ci_yaml: &str) -> Vec<String> {
    let harnesses = perf_matrix_harnesses(ci_yaml);
    let mut failures = Vec::new();
    for file in ref_files {
        if !specs.iter().any(|spec| spec.file == file) {
            failures.push(format!(
                "ci/{file} has no RefSpec; delete the retired reference or add its spec"
            ));
        }
    }
    for spec in specs {
        let harness = spec
            .file
            .strip_prefix("BENCH_")
            .and_then(|f| f.strip_suffix(".json"));
        if !harness.is_some_and(|h| harnesses.contains(&h)) {
            failures.push(format!(
                "{}: no `harness:` cell in the perf matrix regenerates it",
                spec.file
            ));
        }
    }
    failures
}

/// The `BENCH_*.json` file names in a directory, sorted.
pub fn reference_files(dir: &std::path::Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            files.push(name);
        }
    }
    files.sort();
    Ok(files)
}

/// One row of the speedup-trend table.
#[derive(Clone, Debug)]
pub struct TrendRow {
    /// Reference file the metric came from.
    pub file: &'static str,
    /// Metric name.
    pub key: &'static str,
    /// Committed values, in document order (per-scale metrics repeat).
    pub committed: Vec<f64>,
    /// Freshly measured values, in document order; empty when the fresh
    /// report was not produced.
    pub fresh: Vec<f64>,
}

/// Collects the trend metrics of one (committed, fresh) report pair.
pub fn trend_rows(
    spec: &RefSpec,
    committed_json: &str,
    fresh_json: Option<&str>,
) -> Result<Vec<TrendRow>, String> {
    let committed = scan_json_numbers(committed_json)?;
    let fresh = match fresh_json {
        Some(j) => scan_json_numbers(j)?,
        None => Vec::new(),
    };
    let pick = |numbers: &[(String, f64)], key: &str| -> Vec<f64> {
        numbers
            .iter()
            .filter(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .collect()
    };
    Ok(spec
        .trend
        .iter()
        .map(|&key| TrendRow {
            file: spec.file,
            key,
            committed: pick(&committed, key),
            fresh: pick(&fresh, key),
        })
        .collect())
}

/// Renders the trend rows as a markdown document (the nightly artifact).
pub fn trend_markdown(rows: &[TrendRow]) -> String {
    let fmt_list = |vals: &[f64]| -> String {
        if vals.is_empty() {
            "—".to_string()
        } else {
            vals.iter()
                .map(|v| format!("{v:.3}"))
                .collect::<Vec<_>>()
                .join(", ")
        }
    };
    let mut out = String::from(
        "# Speedup trend\n\n\
         Freshly measured headline metrics vs the committed `ci/BENCH_*.json`\n\
         references. Per-scale metrics list one value per scale, in report\n\
         order; `Δ%` compares the last (largest-scale) values.\n\n\
         | reference | metric | committed | fresh | Δ% |\n\
         |---|---|---|---|---|\n",
    );
    for row in rows {
        let delta = match (row.committed.last(), row.fresh.last()) {
            (Some(&c), Some(&f)) if c.abs() > f64::EPSILON => {
                format!("{:+.1}%", (f - c) / c * 100.0)
            }
            _ => "—".to_string(),
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            row.file,
            row.key,
            fmt_list(&row.committed),
            fmt_list(&row.fresh),
            delta
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanner_extracts_numbers_and_skips_string_values() {
        let json = r#"{"a": 1.5, "name": "S", "nested": [{"b": -2e3, "c": 7}], "d": 1.5}"#;
        let nums = scan_json_numbers(json).unwrap();
        assert_eq!(
            nums,
            vec![
                ("a".to_string(), 1.5),
                ("b".to_string(), -2000.0),
                ("c".to_string(), 7.0),
                ("d".to_string(), 1.5),
            ]
        );
    }

    #[test]
    fn scanner_rejects_non_finite_and_malformed_numbers() {
        assert!(scan_json_numbers(r#"{"a": 1e999}"#).is_err());
        assert!(scan_json_numbers(r#"{"a": 1.2.3}"#).is_err());
    }

    #[test]
    fn validate_reports_missing_required_fields() {
        let spec = RefSpec {
            file: "X.json",
            required: &["present", "absent"],
            trend: &[],
        };
        let failures = validate_reference("X.json", r#"{"present": 1}"#, &spec);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("absent"));
    }

    #[test]
    fn committed_references_satisfy_their_specs() {
        // The committed ci/ references must themselves pass the schema check
        // — otherwise the check-refs CI job would fail on a clean tree.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci");
        for spec in REF_SPECS {
            let path = root.join(spec.file);
            let json = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let failures = validate_reference(spec.file, &json, spec);
            assert!(failures.is_empty(), "{failures:?}");
        }
    }

    #[test]
    fn committed_references_agree_on_the_xmark_matrix() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci");
        let refs: Vec<(&str, String)> = REF_SPECS
            .iter()
            .map(|spec| {
                (
                    spec.file,
                    std::fs::read_to_string(root.join(spec.file)).unwrap(),
                )
            })
            .collect();
        let refs: Vec<(&str, &str)> = refs.iter().map(|(f, j)| (*f, j.as_str())).collect();
        let (views, updates) = (
            qui_workloads::all_views().len(),
            qui_workloads::all_updates().len(),
        );
        let failures = check_matrix_agreement(&refs, views, updates);
        assert!(failures.is_empty(), "{failures:?}");
        let recorded: usize = refs
            .iter()
            .map(|(_, j)| independent_cells_for(j, views, updates).unwrap().len())
            .sum();
        assert!(
            recorded >= 2,
            "the cross-check needs two references to compare"
        );
    }

    #[test]
    fn matrix_disagreement_is_flagged_per_shape() {
        let ladder = r#"{"scales": [{"views": 2, "updates": 1, "independent_cells": 1},
                                    {"views": 36, "updates": 31, "independent_cells": 918}]}"#;
        let flat = r#"{"views": 36, "updates": 31, "cells": 1116, "independent_cells": 932}"#;
        assert_eq!(independent_cells_for(ladder, 36, 31).unwrap(), vec![918.0]);
        assert!(check_matrix_agreement(&[("a", ladder), ("b", ladder)], 36, 31).is_empty());
        let failures = check_matrix_agreement(&[("a", ladder), ("b", flat)], 36, 31);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("b = 932"), "{failures:?}");
    }

    #[test]
    fn retired_references_and_cells_without_a_harness_are_flagged() {
        let spec = |file| RefSpec {
            file,
            required: &[],
            trend: &[],
        };
        let specs = [spec("BENCH_a.json"), spec("BENCH_b.json")];
        let yaml =
            "matrix:\n  include:\n    - harness: a\n      args: \"\"\n    - harness: \"b\"\n";
        assert_eq!(perf_matrix_harnesses(yaml), vec!["a", "b"]);
        let files = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        assert!(check_cells(&files(&["BENCH_a.json", "BENCH_b.json"]), &specs, yaml).is_empty());
        // A committed reference nobody specs (a retired cell left behind).
        let failures = check_cells(&files(&["BENCH_a.json", "BENCH_old.json"]), &specs, yaml);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("BENCH_old.json"), "{failures:?}");
        // A spec whose harness cell was dropped from the matrix.
        let failures = check_cells(&files(&["BENCH_a.json"]), &specs, "    - harness: a\n");
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("BENCH_b.json"), "{failures:?}");
    }

    #[test]
    fn committed_references_match_the_perf_matrix() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = reference_files(&root.join("ci")).unwrap();
        let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).unwrap();
        let failures = check_cells(&files, REF_SPECS, &ci);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn workflow_wiring_is_consistent() {
        // The committed workflows must reference exactly the gate variables
        // the harnesses read (plus the non-gate knobs).
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../.github/workflows");
        let mut workflows = Vec::new();
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "yml") {
                workflows.push((
                    path.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read_to_string(&path).unwrap(),
                ));
            }
        }
        assert!(!workflows.is_empty());
        let failures = check_wiring(&workflows);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn unknown_workflow_var_and_unset_gate_are_flagged() {
        let workflows = vec![(
            "ci.yml".to_string(),
            "env:\n  QUI_BASELINE_MIN_SPEDUP: \"2.0\"\n".to_string(),
        )];
        let failures = check_wiring(&workflows);
        assert!(failures
            .iter()
            .any(|f| f.contains("QUI_BASELINE_MIN_SPEDUP")));
        assert!(failures
            .iter()
            .any(|f| f.contains("QUI_BASELINE_MIN_SPEEDUP")));
    }

    #[test]
    fn trend_table_reports_per_scale_values_and_delta() {
        let spec = RefSpec {
            file: "BENCH_x.json",
            required: &[],
            trend: &["speedup_parallel"],
        };
        let committed = r#"{"scales": [{"speedup_parallel": 1.0}, {"speedup_parallel": 2.0}]}"#;
        let fresh = r#"{"scales": [{"speedup_parallel": 1.1}, {"speedup_parallel": 3.0}]}"#;
        let rows = trend_rows(&spec, committed, Some(fresh)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].committed, vec![1.0, 2.0]);
        assert_eq!(rows[0].fresh, vec![1.1, 3.0]);
        let md = trend_markdown(&rows);
        assert!(md.contains("+50.0%"), "{md}");
        // Missing fresh report renders an em-dash, not a panic.
        let rows = trend_rows(&spec, committed, None).unwrap();
        assert!(trend_markdown(&rows).contains("—"));
    }
}
