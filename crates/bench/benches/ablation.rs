//! Ablation benches for the remaining design choices called out in DESIGN.md:
//!
//! * **element chains** (§3): the analyzer with element-chain inference
//!   disabled loses the `//title` vs insert-`<author/>` style independences;
//!   this bench measures the (small) cost the extra chains add;
//! * **attribute encoding** (§7): the `@name` child encoding enlarges the
//!   schema; the bench compares analysis time with and without declared
//!   attributes;
//! * **commutativity**: the update-update analysis runs the chain inference
//!   twice plus a write/write check; the bench situates its cost relative to
//!   a single query-update check.
//!
//! Every timed check runs on a fresh `AnalysisSession`, so the benches
//! measure cold analysis, not session cache hits.

use criterion::{criterion_group, criterion_main, Criterion};
use qui_core::{AnalysisSession, AnalyzerConfig, CommutativityAnalyzer, SessionBuilder};
use qui_schema::{with_attributes, AttrDecl};
use qui_workloads::usecases::{bib_dtd, bib_pairs};
use qui_workloads::{all_updates, all_views, xmark_dtd};
use std::hint::black_box;
use std::time::Duration;

fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(900));
}

/// Element chains on/off over the bibliographic use-case suite.
fn bench_element_chains(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_element_chains");
    configure(&mut group);
    let dtd = bib_dtd();
    let pairs = bib_pairs();
    for (label, element_chains) in [("with", true), ("without", false)] {
        let config = AnalyzerConfig {
            element_chains,
            ..Default::default()
        };
        // A fresh session per pair: every iteration pays the cold inference.
        group.bench_function(format!("bib_suite/{label}"), |b| {
            b.iter(|| {
                let detected = pairs
                    .iter()
                    .filter(|p| {
                        SessionBuilder::new(&dtd)
                            .config(config.clone())
                            .build()
                            .check(&p.query, &p.update)
                            .is_independent()
                    })
                    .count();
                black_box(detected)
            })
        });
    }
    // Report the precision difference once, outside the timed loops.
    let with = AnalysisSession::new(&dtd);
    let without = SessionBuilder::new(&dtd).element_chains(false).build();
    let truly = pairs.iter().filter(|p| p.independent).count();
    let det_with = pairs
        .iter()
        .filter(|p| p.independent && with.check(&p.query, &p.update).is_independent())
        .count();
    let det_without = pairs
        .iter()
        .filter(|p| p.independent && without.check(&p.query, &p.update).is_independent())
        .count();
    eprintln!(
        "[ablation] element chains: detected {det_with}/{truly} with, {det_without}/{truly} without"
    );
    group.finish();
}

/// Attribute-extended schema vs the element-only schema.
fn bench_attribute_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_attribute_encoding");
    configure(&mut group);
    let plain = bib_dtd();
    let attributed = with_attributes(
        &plain,
        &[
            AttrDecl::new("book", "year", true),
            AttrDecl::new("book", "isbn", false),
            AttrDecl::new("author", "id", false),
            AttrDecl::new("price", "currency", true),
        ],
    )
    .unwrap();
    let q = qui_xquery::parse_query("//book/title").unwrap();
    let u = qui_xquery::parse_update("for $b in //book return insert <author/> into $b").unwrap();
    for (label, dtd) in [("plain", &plain), ("attributed", &attributed)] {
        group.bench_function(format!("check/{label}"), |b| {
            b.iter(|| black_box(AnalysisSession::new(dtd).check(&q, &u).is_independent()))
        });
    }
    // An attribute-targeted pair only exists on the attributed schema.
    let qa = qui_xquery::parse_query("//book/@isbn").unwrap();
    let ua = qui_xquery::parse_update("delete //book/@year").unwrap();
    group.bench_function("check/attribute_pair", |b| {
        b.iter(|| {
            black_box(
                AnalysisSession::new(&attributed)
                    .check(&qa, &ua)
                    .is_independent(),
            )
        })
    });
    group.finish();
}

/// Update-update commutativity vs a single query-update check on XMark.
fn bench_commutativity(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_commutativity");
    configure(&mut group);
    let dtd = xmark_dtd();
    let updates = all_updates();
    let views = all_views();
    let uu = CommutativityAnalyzer::new(&dtd);
    // A cheap pair and an expensive (recursive-region) pair.
    let cheap = (&updates[0], &updates[1]);
    let recursive = (
        updates
            .iter()
            .find(|u| u.name == "UA2")
            .unwrap_or(&updates[2]),
        updates
            .iter()
            .find(|u| u.name == "UI3")
            .unwrap_or(&updates[3]),
    );
    group.bench_function("query_update/baseline_check", |b| {
        b.iter(|| {
            black_box(
                AnalysisSession::new(&dtd)
                    .check(&views[0].query, &cheap.0.update)
                    .is_independent(),
            )
        })
    });
    group.bench_function("update_update/cheap_pair", |b| {
        b.iter(|| black_box(uu.check(&cheap.0.update, &cheap.1.update).commutes()))
    });
    group.bench_function("update_update/recursive_pair", |b| {
        b.iter(|| {
            black_box(
                uu.check(&recursive.0.update, &recursive.1.update)
                    .commutes(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    ablation,
    bench_element_chains,
    bench_attribute_encoding,
    bench_commutativity
);
criterion_main!(ablation);
