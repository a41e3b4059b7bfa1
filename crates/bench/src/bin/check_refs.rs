//! CI guard for the committed benchmark references and the gate wiring.
//!
//! Default mode (no flags) runs four checks and exits non-zero on failure:
//!
//! 1. Every `ci/BENCH_*.json` reference contains its required numeric fields
//!    and every number in it is finite — a hand-edited or truncated
//!    reference would otherwise make the corresponding `--check` gate pass
//!    vacuously.
//! 2. Every reference that records `independent_cells` for the full XMark
//!    views × updates matrix records the same count — a stale reference
//!    would otherwise keep a number the code no longer produces.
//! 3. Every `QUI_*` variable mentioned in `.github/workflows/*.yml` is
//!    actually read by a harness gate, and every declared gate variable is
//!    set somewhere — so a typo cannot silently disable a threshold.
//! 4. Every `ci/BENCH_*.json` has a reference spec, and every spec has a
//!    `harness:` cell in `ci.yml`'s perf matrix — so a retired cell cannot
//!    leave a stale reference or a spec behind.
//!
//! Trend mode (`--trend --fresh <dir> [--out <file>]`) renders the nightly
//! speedup-trend markdown: freshly measured headline metrics from
//! `<dir>/BENCH_*.json` diffed against the committed references. Missing
//! fresh reports are reported as `—` rather than failing, so one crashed
//! harness does not lose the rest of the trend.
//!
//! Paths are resolved relative to the workspace root (two levels above this
//! crate's manifest), so the binary works from any working directory.

use qui_bench::refs::{
    check_cells, check_matrix_agreement, check_wiring, reference_files, trend_markdown, trend_rows,
    validate_reference, REF_SPECS,
};
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

    let mut refs = Vec::new();
    for spec in REF_SPECS {
        let path = root.join("ci").join(spec.file);
        match read(&path) {
            Ok(json) => {
                failures.extend(validate_reference(spec.file, &json, spec));
                refs.push((spec.file, json));
            }
            Err(e) => failures.push(e),
        }
    }
    let refs: Vec<(&str, &str)> = refs.iter().map(|(f, j)| (*f, j.as_str())).collect();
    failures.extend(check_matrix_agreement(
        &refs,
        qui_workloads::all_views().len(),
        qui_workloads::all_updates().len(),
    ));

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

fn run_trend(fresh_dir: &Path, out: Option<&Path>) -> Result<(), Vec<String>> {
    let root = workspace_root();
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for spec in REF_SPECS {
        let committed = match read(&root.join("ci").join(spec.file)) {
            Ok(j) => j,
            Err(e) => {
                failures.push(e);
                continue;
            }
        };
        let fresh = read(&fresh_dir.join(spec.file)).ok();
        if fresh.is_none() {
            eprintln!(
                "note: {} not present under {} — trending committed values only",
                spec.file,
                fresh_dir.display()
            );
        }
        match trend_rows(spec, &committed, fresh.as_deref()) {
            Ok(r) => rows.extend(r),
            Err(e) => failures.push(format!("{}: {e}", spec.file)),
        }
    }
    if !failures.is_empty() {
        return Err(failures);
    }
    let md = trend_markdown(&rows);
    match out {
        Some(path) => {
            std::fs::write(path, &md).map_err(|e| vec![format!("{}: {e}", path.display())])?;
            eprintln!("wrote {}", path.display());
        }
        None => print!("{md}"),
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trend = false;
    let mut fresh_dir: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trend" => {
                trend = true;
                i += 1;
            }
            "--fresh" => match qui_bench::take_value(&args, &mut i, "--fresh") {
                Ok(v) => fresh_dir = Some(PathBuf::from(v)),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            },
            "--out" => match qui_bench::take_value(&args, &mut i, "--out") {
                Ok(v) => out = Some(PathBuf::from(v)),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown flag {other}");
                eprintln!("usage: check-refs [--trend --fresh <dir> [--out <file>]]");
                std::process::exit(2);
            }
        }
    }

    let result = if trend {
        let Some(dir) = fresh_dir else {
            eprintln!("error: --trend requires --fresh <dir>");
            std::process::exit(2);
        };
        run_trend(&dir, out.as_deref())
    } else {
        run_checks()
    };

    match result {
        Ok(()) => {
            if !trend {
                println!(
                    "check-refs: {} references, their XMark matrix counts, perf cells and the workflow gate wiring are consistent",
                    REF_SPECS.len()
                );
            }
        }
        Err(failures) => {
            eprintln!("check-refs: {} failure(s):", failures.len());
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
    }
}
