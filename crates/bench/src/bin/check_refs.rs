//! CI guard for the committed benchmark references and the gate wiring.
//!
//! `check-refs` takes no arguments. It runs three checks and exits non-zero
//! on failure:
//!
//! 1. Every `ci/BENCH_*.json` reference contains its required numeric fields
//!    and every number in it is finite — a hand-edited or truncated
//!    reference would otherwise make the corresponding `--check` gate pass
//!    vacuously.
//! 2. Every `QUI_*` variable mentioned in `.github/workflows/*.yml` is
//!    actually read by a harness gate, and every declared gate variable is
//!    set somewhere — so a typo cannot silently disable a threshold.
//! 3. Every `ci/BENCH_*.json` has a reference spec, and every spec has a
//!    `harness:` cell in `ci.yml`'s perf matrix — so a retired cell cannot
//!    leave a stale reference or a spec behind.
//!
//! Paths are resolved relative to the workspace root (two levels above this
//! crate's manifest), so the binary works from any working directory.

use qui_bench::refs::{check_cells, check_wiring, reference_files, validate_reference, REF_SPECS};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_checks() -> Result<(), Vec<String>> {
    let root = workspace_root();
    let mut failures = Vec::new();

    for spec in REF_SPECS {
        match read(&root.join("ci").join(spec.file)) {
            Ok(json) => failures.extend(validate_reference(spec.file, &json, spec)),
            Err(e) => failures.push(e),
        }
    }

    let workflows_dir = root.join(".github/workflows");
    let mut workflows = Vec::new();
    match std::fs::read_dir(&workflows_dir) {
        Ok(entries) => {
            for entry in entries.flatten() {
                let path = entry.path();
                let is_yaml = path.extension().is_some_and(|e| e == "yml" || e == "yaml");
                if !is_yaml {
                    continue;
                }
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                match read(&path) {
                    Ok(text) => workflows.push((name, text)),
                    Err(e) => failures.push(e),
                }
            }
        }
        Err(e) => failures.push(format!("{}: {e}", workflows_dir.display())),
    }
    if workflows.is_empty() {
        failures.push("no workflow YAML files found".to_string());
    }
    failures.extend(check_wiring(&workflows));

    let ci_dir = root.join("ci");
    match reference_files(&ci_dir) {
        Ok(files) => match workflows.iter().find(|(name, _)| name == "ci.yml") {
            Some((_, ci)) => failures.extend(check_cells(&files, REF_SPECS, ci)),
            None => failures.push("no ci.yml workflow with the perf matrix".to_string()),
        },
        Err(e) => failures.push(format!("{}: {e}", ci_dir.display())),
    }

    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unknown argument {arg}");
        eprintln!("usage: check-refs");
        std::process::exit(2);
    }
    match run_checks() {
        Ok(()) => println!(
            "check-refs: {} reference(s), their perf cells and the workflow gate wiring are consistent",
            REF_SPECS.len()
        ),
        Err(failures) => {
            eprintln!("check-refs: {} failure(s):", failures.len());
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
    }
}
