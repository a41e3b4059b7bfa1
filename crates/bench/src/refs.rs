//! Validation of the committed benchmark reference and the CI gate wiring.
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
//! A third check guards against retired cells ([`check_cells`]): every
//! committed `ci/BENCH_*.json` needs a [`RefSpec`], and every [`RefSpec`]
//! needs a `harness:` cell in the CI perf matrix that regenerates and gates
//! it — otherwise a reference outlives its harness unnoticed.
//!
//! The `check-refs` binary runs all three checks in CI. The source of truth
//! for the second check is the `GATE_ENV_VARS` const colocated with the
//! gate's `from_env` reader ([`crate::fig3c::GATE_ENV_VARS`]) — the const
//! and the reader sit next to each other so that one cannot change without
//! the other in sight.

use std::collections::BTreeSet;

/// One committed benchmark reference: its file name and the numeric fields
/// a valid report must contain.
#[derive(Clone, Copy, Debug)]
pub struct RefSpec {
    /// File name under `ci/`.
    pub file: &'static str,
    /// Numeric fields that must appear at least once, each finite.
    pub required: &'static [&'static str],
}

/// The committed reference set, one entry per perf harness.
pub const REF_SPECS: &[RefSpec] = &[RefSpec {
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
}];

/// Environment variables that are legitimately referenced by the workflows
/// but are not gate thresholds (worker-count and proptest-depth knobs).
pub const NON_GATE_ENV_VARS: &[&str] = &["QUI_JOBS", "QUI_PROPTEST_CASES"];

/// Every `QUI_*` variable some harness gate actually reads.
pub fn known_gate_vars() -> BTreeSet<&'static str> {
    crate::fig3c::GATE_ENV_VARS.iter().copied().collect()
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
    fn retired_references_and_cells_without_a_harness_are_flagged() {
        let spec = |file| RefSpec {
            file,
            required: &[],
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
            "env:\n  QUI_FIG3C_MIN_PRUNING_SAVNG: \"20\"\n".to_string(),
        )];
        let failures = check_wiring(&workflows);
        assert!(failures
            .iter()
            .any(|f| f.contains("QUI_FIG3C_MIN_PRUNING_SAVNG")));
        assert!(failures
            .iter()
            .any(|f| f.contains("QUI_FIG3C_MIN_PRUNING_SAVING")));
    }
}
