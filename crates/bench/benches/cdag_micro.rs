//! Ablation micro-benches for the design choices discussed in §6.1 and §5:
//!
//! * explicit chain sets vs the CDAG representation on the schema of
//!   footnote 8 (`a_i ← (b_i, c_i)*`, `b_i, c_i ← a_{i+1}`), whose number of
//!   distinct chains grows as `2^n` — with **closure construction**
//!   (building the chain universe / sizing the CDAG grid) measured
//!   separately from **per-query inference**, so a regression in either
//!   phase is attributable;
//! * the `k = k_q + k_u` bound vs the unsound `k = max(k_q, k_u)` choice
//!   (§5's `/descendant::b` vs `delete /descendant::c` example), again with
//!   the universe construction hoisted out of the measured loop;
//! * the upward step on a recursive schema: XMark's
//!   `//keyword/ancestor::listitem` step alone (the `//keyword` context is
//!   inferred outside the measured loop) and the whole inferences of view
//!   B2 and update UB2 that contain it, at the smallest and largest bound
//!   they are checked at in the XMark matrix.

use criterion::{criterion_group, criterion_main, Criterion};
use qui_core::engine::cdag::CdagEngine;
use qui_core::engine::explicit::ExplicitEngine;
use qui_core::Universe;
use qui_schema::Dtd;
use qui_workloads::{updates, views, xmark_dtd};
use qui_xquery::{parse_query, Axis, NodeTest};
use std::hint::black_box;

/// The footnote-8 schema with `n` levels.
fn footnote8_schema(n: usize) -> Dtd {
    let mut b = Dtd::builder();
    for i in 1..=n {
        if i < n {
            b = b
                .rule(&format!("a{i}"), &format!("(b{i}, c{i})*"))
                .rule(&format!("b{i}"), &format!("a{}", i + 1))
                .rule(&format!("c{i}"), &format!("a{}", i + 1));
        } else {
            b = b
                .rule(&format!("a{i}"), "EMPTY")
                .rule(&format!("b{i}"), "EMPTY")
                .rule(&format!("c{i}"), "EMPTY");
        }
    }
    b.build("a1").expect("footnote-8 schema is well-formed")
}

fn quick_group<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));
    group
}

/// Closure construction only: the explicit chain universe vs the CDAG grid.
fn bench_closure_construction(c: &mut Criterion) {
    let mut group = quick_group(c, "closure_construction_footnote8");
    for n in [6usize, 8, 10] {
        let schema = footnote8_schema(n);
        group.bench_function(format!("explicit_universe/n{n}"), |b| {
            b.iter(|| black_box(Universe::with_k(&schema, 2)).root_chain())
        });
        group.bench_function(format!("cdag_engine/n{n}"), |b| {
            b.iter(|| black_box(CdagEngine::new(&schema, 2)).grid_depth())
        });
    }
    group.finish();
}

/// Per-query inference only: universes and engines are built outside the
/// measured loop.
fn bench_inference(c: &mut Criterion) {
    let mut group = quick_group(c, "infer_only_footnote8");
    for n in [6usize, 8, 10] {
        let schema = footnote8_schema(n);
        let query = parse_query(&format!("//a{n}")).unwrap();
        let universe = Universe::with_k(&schema, 2);
        group.bench_function(format!("explicit/n{n}"), |b| {
            let eng = ExplicitEngine::new(&universe, 1_000_000);
            let gamma = eng.root_gamma(query.free_vars());
            b.iter(|| black_box(eng.infer_query(&gamma, &query).map(|q| q.total_len())))
        });
        group.bench_function(format!("cdag/n{n}"), |b| {
            let eng = CdagEngine::new(&schema, 2);
            let gamma = eng.root_gamma(query.free_vars());
            b.iter(|| black_box(eng.infer_query(&gamma, &query).returns.edge_count()))
        });
    }
    group.finish();
}

fn bench_k_choice(c: &mut Criterion) {
    let mut group = quick_group(c, "k_bound_ablation");
    let d1 = Dtd::builder()
        .rule("r", "a")
        .rule("a", "(b, c, e)*")
        .rule("b", "f")
        .rule("c", "f")
        .rule("e", "f")
        .rule("f", "(a, g)")
        .rule("g", "EMPTY")
        .build("r")
        .unwrap();
    let q = parse_query("$root/descendant::b").unwrap();
    for k in [1usize, 2, 4] {
        // Universe construction hoisted out: the group measures inference
        // cost as a function of k, not closure construction.
        let universe = Universe::with_k(&d1, k);
        group.bench_function(format!("infer/k{k}"), |b| {
            let eng = ExplicitEngine::new(&universe, 1_000_000);
            let gamma = eng.root_gamma(q.free_vars());
            b.iter(|| black_box(eng.infer_query(&gamma, &q).map(|qc| qc.total_len())))
        });
    }
    group.finish();
}

/// The ancestor step over XMark's recursive `parlist`/`listitem` region,
/// alone and inside the two workload expressions that use it.
fn bench_upward_step(c: &mut Criterion) {
    let mut group = quick_group(c, "upward_step");
    let schema = xmark_dtd();
    let keywords = parse_query("//keyword").unwrap();
    let listitem = NodeTest::Tag("listitem".into());
    let b2 = views::view("B2").expect("XMark view B2").query;
    let ub2 = updates::update("UB2").expect("XMark update UB2").update;
    for k in [5usize, 8] {
        let eng = CdagEngine::new(&schema, k);
        let ctx = eng
            .infer_query(&eng.root_gamma(keywords.free_vars()), &keywords)
            .returns;
        group.bench_function(format!("ancestor_step/k{k}"), |b| {
            b.iter(|| black_box(eng.step(&ctx, Axis::Ancestor, &listitem).0.edge_count()))
        });
        let gamma = eng.root_gamma(b2.free_vars());
        group.bench_function(format!("infer_b2/k{k}"), |b| {
            b.iter(|| black_box(eng.infer_query(&gamma, &b2).returns.edge_count()))
        });
        let gamma = eng.root_gamma(ub2.free_vars());
        group.bench_function(format!("infer_ub2/k{k}"), |b| {
            b.iter(|| black_box(eng.infer_update(&gamma, &ub2).edge_count()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_closure_construction,
    bench_inference,
    bench_k_choice,
    bench_upward_step
);
criterion_main!(benches);
