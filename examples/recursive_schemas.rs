//! The finite analysis on recursive schemas: how the multiplicity bound
//! `k = k_q + k_u` is computed (Table 3) and how the two engines behave on
//! the heavily recursive R-benchmark schemas.
//!
//! Run with `cargo run --release --example recursive_schemas`.

use std::time::Instant;
use xml_qui::core::engine::cdag::CdagEngine;
use xml_qui::core::{k_for_pair, k_of_query, k_of_update, SessionBuilder};
use xml_qui::schema::Dtd;
use xml_qui::workloads::{rbench_expression, rbench_schema};
use xml_qui::xquery::{parse_query, parse_update};

fn main() {
    // The schema d1 of §5.
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
    let u = parse_update("delete $root/descendant::c").unwrap();
    println!(
        "k_q = {}, k_u = {}, k = {} for the §5 example",
        k_of_query(&q),
        k_of_update(&u),
        k_for_pair(&q, &u)
    );
    let session = SessionBuilder::new(&d1).build();
    println!(
        "verdict: {} (they are dependent — deleting c can remove descendants of returned b nodes)",
        if session.check(&q, &u).is_independent() {
            "independent"
        } else {
            "dependent"
        }
    );

    // Scalability of the CDAG engine on the R-benchmark.
    println!("\nCDAG inference on the R-benchmark (d_n, e_m):");
    for n in [3usize, 5, 10] {
        let schema = rbench_schema(n);
        for m in [5usize, 10] {
            let e = rbench_expression(m);
            let start = Instant::now();
            let eng = CdagEngine::new(&schema, m + 5);
            let chains = eng.infer_query(&eng.root_gamma(e.free_vars()), &e);
            println!(
                "  d{n}, e{m}, k={}: {} CDAG edges in {:.1} ms",
                m + 5,
                chains.returns.edge_count(),
                start.elapsed().as_secs_f64() * 1e3
            );
        }
    }
}
