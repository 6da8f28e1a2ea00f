//! Online analytics under a live edge stream — the scenario the paper's
//! introduction motivates ("analyze the data on the fly … while the user is
//! shopping"), taken one step further: instead of re-running the all-edge
//! counting after every purchase, maintain the counts *incrementally* in
//! `O(d_u + d_v)` per update and keep recommendations fresh between the
//! periodic batch recounts.
//!
//! ```text
//! cargo run --release --example online_updates
//! ```

use std::time::Instant;

use cnc_core::{Algorithm, IncrementalCnc, Platform, Runner};
use cnc_graph::datasets::{Dataset, Scale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), cnc_core::PlanError> {
    // Bootstrap: a batch count of yesterday's co-purchasing graph, using
    // the fastest batch backend (the paper's subject).
    let graph = Dataset::LjS.build(Scale::Tiny);
    let batch = Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf()).try_run(&graph)?;
    println!(
        "batch bootstrap: {} edges counted in {:.1} ms (triangles: {})",
        graph.num_undirected_edges(),
        batch.wall_seconds * 1e3,
        batch.view(&graph).triangle_count()
    );

    // Hand the result to the incremental maintainer.
    let mut live = IncrementalCnc::from_graph(&graph, batch.counts())
        .expect("batch counts come straight from the runner");

    // A day of traffic: 20k interleaved purchases (edge inserts) and
    // returns (edge removals).
    let mut rng = StdRng::seed_from_u64(2024);
    let n = live.num_vertices() as u32;
    let t0 = Instant::now();
    let (mut inserted, mut removed) = (0usize, 0usize);
    let mut recent: Vec<(u32, u32)> = Vec::new();
    for _ in 0..20_000 {
        if recent.is_empty() || rng.gen::<f64>() < 0.7 {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v && live.insert_edge(u, v).expect("ids are in range") {
                inserted += 1;
                recent.push((u.min(v), u.max(v)));
            }
        } else {
            let idx = rng.gen_range(0..recent.len());
            let (u, v) = recent.swap_remove(idx);
            if live.remove_edge(u, v) {
                removed += 1;
            }
        }
    }
    let stream_s = t0.elapsed().as_secs_f64();
    println!(
        "streamed {inserted} inserts + {removed} removes in {:.1} ms ({:.2} µs/update)",
        stream_s * 1e3,
        stream_s * 1e6 / (inserted + removed) as f64
    );
    println!("live triangle count: {}", live.triangle_count());

    // Verify: the maintained counts equal a from-scratch batch recount of
    // the mutated graph.
    let (snapshot, maintained) = live.snapshot();
    let t1 = Instant::now();
    let recount = Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf()).try_run(&snapshot)?;
    let recount_s = t1.elapsed().as_secs_f64();
    assert_eq!(maintained, recount.counts(), "incremental must stay exact");
    println!(
        "verified against a fresh batch recount ({:.1} ms) — identical ✓",
        recount_s * 1e3
    );
    println!(
        "maintaining beats recounting when updates arrive faster than ~{:.0} edits/batch",
        recount_s / (stream_s / (inserted + removed) as f64)
    );
    Ok(())
}
