//! Prints the full Fig. 3.a series: static chain-analysis time (ms) of each
//! of the 31 updates against the whole set of 36 views, for the default
//! (auto) engine and for the CDAG engine forced — plus the whole-matrix wall
//! time of the batched engine, sequential vs parallel.
//!
//! All measurements go through the shared batch-analysis helpers
//! (`qui_bench::{update_row_time, matrix_time}`), the same session code path
//! behind `qui matrix`.

use qui_bench::{benchmark_views, matrix_time, ms, update_row_time};
use qui_core::parallel::machine_parallelism;
use qui_core::{k_of_query, k_of_update, EngineKind, Jobs};
use qui_workloads::all_updates;

fn main() {
    let views = benchmark_views();
    let updates = all_updates();
    println!("Fig 3.a — chain analysis time per update vs all 36 views");
    println!(
        "{:<6} {:>4} {:>6} {:>14} {:>14}",
        "update", "k_u", "max k", "auto (ms)", "cdag (ms)"
    );
    let mut total = 0.0;
    let mut worst = 0.0f64;
    for u in &updates {
        let auto = update_row_time(&views, u, EngineKind::Auto, Jobs::Fixed(1));
        let cdag = update_row_time(&views, u, EngineKind::Cdag, Jobs::Fixed(1));
        let ku = k_of_update(&u.update);
        let kmax = views
            .iter()
            .map(|v| k_of_query(&v.query) + ku)
            .max()
            .unwrap_or(ku);
        println!(
            "{:<6} {:>4} {:>6} {:>14} {:>14}",
            u.name,
            ku,
            kmax,
            ms(auto),
            ms(cdag)
        );
        total += auto.as_secs_f64() * 1e3;
        worst = worst.max(auto.as_secs_f64() * 1e3);
    }
    println!(
        "average: {:.2} ms   worst: {:.2} ms",
        total / updates.len() as f64,
        worst
    );

    let workers = machine_parallelism();
    let seq = matrix_time(&views, &updates, EngineKind::Auto, Jobs::Fixed(1));
    let par = matrix_time(&views, &updates, EngineKind::Auto, Jobs::Fixed(workers));
    println!(
        "whole matrix ({} cells): jobs=1 {} ms, jobs={} {} ms ({:.2}x), {} independent",
        seq.cell_count(),
        ms(seq.wall),
        workers,
        ms(par.wall),
        seq.wall.as_secs_f64() / par.wall.as_secs_f64().max(f64::EPSILON),
        par.independent_count()
    );
}
