//! Exact triangle counting derived from the all-edge counts
//! (Section 2.2.2: `Σ_e cnt[e] / 6`), cross-checked across all algorithms
//! and platforms.
//!
//! ```text
//! cargo run --release --example triangle_count
//! ```

use cnc_core::{Algorithm, Platform, Runner};
use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::{generators, CsrGraph};

fn main() -> Result<(), cnc_core::PlanError> {
    // Known ground truth first: clique_chain(k, s) has k * C(s,3) triangles.
    let g = CsrGraph::from_edge_list(&generators::clique_chain(6, 10));
    let r = Runner::new(Platform::cpu_parallel(), Algorithm::mps()).try_run(&g)?;
    let expected = 6 * (10 * 9 * 8) / 6;
    assert_eq!(r.view(&g).triangle_count(), expected as u64);
    println!("clique-chain ground truth: {expected} triangles ✓");

    // Triangle census of the five dataset analogues, cross-checked between
    // the merge-based and bitmap-based algorithm families.
    println!(
        "\n{:<8} {:>10} {:>12} {:>14}",
        "dataset", "|V|", "|E|", "triangles"
    );
    for d in Dataset::ALL {
        let g = d.build(Scale::Tiny);
        let mps = Runner::new(Platform::cpu_parallel(), Algorithm::mps()).try_run(&g)?;
        let bmp = Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf()).try_run(&g)?;
        let t = mps.view(&g).triangle_count();
        assert_eq!(
            t,
            bmp.view(&g).triangle_count(),
            "{} disagreement",
            d.name()
        );
        println!(
            "{:<8} {:>10} {:>12} {:>14}",
            d.name(),
            g.num_vertices(),
            g.num_undirected_edges(),
            t
        );
    }

    // The simulated processors agree too.
    let g = Dataset::LjS.build(Scale::Tiny);
    let scale = Dataset::LjS.capacity_scale(&g);
    let knl = Runner::new(Platform::knl_flat(scale), Algorithm::mps()).try_run(&g)?;
    let gpu = Runner::new(Platform::gpu(scale), Algorithm::bmp_rf()).try_run(&g)?;
    assert_eq!(knl.view(&g).triangle_count(), gpu.view(&g).triangle_count());
    println!(
        "\nKNL and GPU backends agree: {} triangles on lj-s (modeled {:.2} ms / {:.2} ms)",
        knl.view(&g).triangle_count(),
        knl.modeled_seconds.unwrap() * 1e3,
        gpu.modeled_seconds.unwrap() * 1e3,
    );
    Ok(())
}
