//! The introduction's motivating scenario: an online platform maintains a
//! co-purchasing graph and recommends products *while the user shops* —
//! which requires the all-edge common neighbor counts to be fresh.
//!
//! Products are vertices; an edge means "bought together at least once".
//! The common neighbor count of an edge (a, b) is the number of other
//! products co-bought with *both* — a strong "customers also bought" signal.
//!
//! ```text
//! cargo run --release --example product_recommendation
//! ```

use cnc_core::{Algorithm, Platform, Runner};
use cnc_graph::{CsrGraph, EdgeList};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Synthesize a co-purchasing graph: product categories are near-cliques
/// (things bought together), plus random cross-category purchases.
fn co_purchasing_graph(
    categories: usize,
    per_category: usize,
    seed: u64,
) -> (CsrGraph, Vec<String>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = categories * per_category;
    let mut el = EdgeList::new(n);
    // Within a category, frequently co-bought pairs.
    for c in 0..categories {
        let base = (c * per_category) as u32;
        for i in 0..per_category as u32 {
            for j in (i + 1)..per_category as u32 {
                if rng.gen::<f64>() < 0.45 {
                    el.push(base + i, base + j);
                }
            }
        }
    }
    // Cross-category impulse buys.
    for _ in 0..n * 2 {
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
        if a != b {
            el.push(a.min(b), a.max(b));
        }
    }
    el.normalize();
    let names: Vec<String> = (0..n)
        .map(|p| {
            format!(
                "product-{}{:03}",
                (b'A' + (p / per_category) as u8) as char,
                p % per_category
            )
        })
        .collect();
    (CsrGraph::from_edge_list(&el), names)
}

fn main() -> Result<(), cnc_core::PlanError> {
    let (graph, names) = co_purchasing_graph(40, 50, 7);
    println!(
        "co-purchasing graph: {} products, {} co-purchase pairs",
        graph.num_vertices(),
        graph.num_undirected_edges()
    );

    // Online analytics: refresh all-edge counts with the fastest real
    // backend (parallel BMP with range filtering, per the paper's CPU
    // findings).
    let result = Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf()).try_run(&graph)?;
    println!(
        "refreshed {} co-recommendation scores in {:.1} ms",
        result.counts().len(),
        result.wall_seconds * 1e3
    );
    let view = result.view(&graph);

    // A shopper just put product-A017 in their basket: rank its co-purchase
    // partners by shared-context strength.
    let anchor = 17u32;
    println!("\nbecause you bought {}:", names[anchor as usize]);
    for (partner, shared) in view.ranked_neighbors(anchor).into_iter().take(8) {
        println!(
            "  {:>14}  ({} products co-bought with both, cosine {:.3})",
            names[partner as usize],
            shared,
            view.cosine(graph.edge_offset(anchor, partner).unwrap()),
        );
    }

    // Most of the top recommendations should come from the same category
    // (the near-clique) — sanity-check the signal quality.
    let top: Vec<u32> = view
        .ranked_neighbors(anchor)
        .into_iter()
        .take(5)
        .map(|(p, _)| p)
        .collect();
    let same_cat = top.iter().filter(|&&p| p / 50 == anchor / 50).count();
    println!(
        "\n{}/{} of the top recommendations share {}'s category",
        same_cat,
        top.len(),
        names[anchor as usize]
    );
    // Also an example of why generators::clique_chain exists in tests.
    let random_edge_strength: f64 = view.jaccard(graph.offset_range(anchor).start);
    println!("(weakest-tie jaccard for comparison: {random_edge_strength:.3})");
    Ok(())
}
