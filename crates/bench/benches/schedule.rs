//! Wall-clock comparison of the schedule policies: uniform fixed-size
//! chunks versus cost-balanced source-aligned decomposition, on the
//! hub-skewed analogue where balance matters most (a few huge sources
//! dominate the work) and on the uniform-degree analogue as a control
//! (balance should cost nothing).
//!
//! Also measures the single-thread effect of the prepared reverse-edge
//! index: `run_range` with the O(1) `rev[eid]` load versus the per-edge
//! binary search over `N(v)`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use cnc_core::WorkloadKind::Cnc;
use cnc_cpu::{BmpMode, CpuKernel, ParConfig};
use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::reorder;
use cnc_intersect::MpsConfig;

fn bench_schedule_policies(c: &mut Criterion) {
    // TW is the skewed hub-web analogue; FR is the near-uniform control.
    for d in [Dataset::TwS, Dataset::FrS] {
        let g = reorder::degree_descending(&d.build(Scale::Tiny)).graph;
        let edges = g.num_directed_edges() as u64;
        // Same task-count budget for both policies: the comparison isolates
        // *where* the cuts land, not how many tasks there are.
        let tasks = 4 * num_threads();
        let uniform = ParConfig::with_task_size(g.num_directed_edges().div_ceil(tasks).max(1));
        let balanced = ParConfig::balanced(tasks);

        let mut group = c.benchmark_group(format!("schedule_{}", d.name()));
        group.throughput(Throughput::Elements(edges));
        group.sample_size(20);
        group.bench_function("uniform/bmp", |b| {
            b.iter(|| CpuKernel::Bmp(BmpMode::Plain).execute(&g, Cnc, &uniform, false))
        });
        group.bench_function("balanced/bmp", |b| {
            b.iter(|| CpuKernel::Bmp(BmpMode::Plain).execute(&g, Cnc, &balanced, false))
        });
        group.bench_function("uniform/mps", |b| {
            b.iter(|| CpuKernel::Mps(MpsConfig::default()).execute(&g, Cnc, &uniform, false))
        });
        group.bench_function("balanced/mps", |b| {
            b.iter(|| CpuKernel::Mps(MpsConfig::default()).execute(&g, Cnc, &balanced, false))
        });
        group.finish();
    }
}

fn bench_reverse_index(c: &mut Criterion) {
    let seq = ParConfig::sequential();
    // Single-thread whole-range BMP run at Small scale (the graph no
    // longer fits in cache, so the search's random probes cost real
    // memory traffic): the mirror lookup is the only thing that differs
    // between the two graphs. The skewed analogue shows a ~1.25x win.
    let searched = reorder::degree_descending(&Dataset::TwS.build(Scale::Small)).graph;
    let mut indexed = searched.clone();
    indexed.build_reverse_index();
    let kernel = CpuKernel::Bmp(BmpMode::Plain);
    let mut group = c.benchmark_group("reverse_lookup_tw");
    group.throughput(Throughput::Elements(searched.num_directed_edges() as u64));
    group.sample_size(10);
    group.bench_function("binary_search", |b| {
        b.iter(|| kernel.execute(&searched, Cnc, &seq, false))
    });
    group.bench_function("rev_index", |b| {
        b.iter(|| kernel.execute(&indexed, Cnc, &seq, false))
    });
    group.finish();
}

fn num_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

criterion_group! {
    name = benches;
    config = Criterion::default().warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(2));
    targets = bench_schedule_policies, bench_reverse_index
}
criterion_main!(benches);
