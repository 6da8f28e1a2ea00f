//! Quickstart: build a graph, count common neighbors on every edge, and
//! read off some analytics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cnc_core::{Algorithm, Platform, Runner};
use cnc_graph::{generators, CsrGraph};

fn main() -> Result<(), cnc_core::PlanError> {
    // A power-law graph like a small social network.
    let edges = generators::chung_lu(5_000, 12.0, 2.2, 42);
    let graph = CsrGraph::from_edge_list(&edges);
    println!(
        "graph: {} vertices, {} undirected edges",
        graph.num_vertices(),
        graph.num_undirected_edges()
    );

    // Count |N(u) ∩ N(v)| for every edge with the paper's BMP algorithm
    // (range-filtered bitmap index) on the real CPU, in parallel.
    let result = Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf()).try_run(&graph)?;
    println!("counted in {:.1} ms (host wall)", result.wall_seconds * 1e3);

    let view = result.view(&graph);
    println!("triangles: {}", view.triangle_count());

    // The five strongest ties by Jaccard similarity.
    let mut edges_by_jaccard: Vec<(usize, f64)> = (0..graph.num_directed_edges())
        .map(|eid| (eid, view.jaccard(eid)))
        .collect();
    edges_by_jaccard.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("strongest ties:");
    for (eid, j) in edges_by_jaccard.iter().take(5) {
        let (u, v) = view.endpoints(*eid);
        println!(
            "  ({u}, {v}): {} common neighbors, jaccard {j:.3}",
            view.counts()[*eid]
        );
    }

    // The same counts via the hybrid merge algorithm — identical results.
    let mps = Runner::new(Platform::cpu_parallel(), Algorithm::mps()).try_run(&graph)?;
    assert_eq!(mps.counts(), result.counts());
    println!(
        "MPS and BMP agree on all {} edge slots ✓",
        mps.counts().len()
    );
    Ok(())
}
