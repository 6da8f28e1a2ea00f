//! Wall-clock benchmarks of the SIMD dispatch surface: the same kernels at
//! every forced [`SimdTier`], per lane width, from isolated probe loops up
//! to end-to-end single-thread BMP/MPS runs on the scaled paper graphs.
//!
//! Benches run in one sequential process, so `SimdTier::force` between
//! groups is safe here (tests must not do this — they run in parallel).
//! The acceptance target for the vectorized probes is ≥1.2x single-thread
//! BMP on tw-s or lj-s versus the same run forced to `scalar`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cnc_core::WorkloadKind::Cnc;
use cnc_cpu::{BmpMode, CpuKernel, ParConfig};
use cnc_graph::datasets::{Dataset, Scale};
use cnc_intersect::{
    bmp_count_tier, gallop_lower_bound_tier, rf_count_tier, Bitmap, MpsConfig, NullMeter, RfBitmap,
    SimdTier,
};

fn sorted_set(rng: &mut StdRng, len: usize, universe: u32) -> Vec<u32> {
    let mut v: Vec<u32> = (0..len * 2).map(|_| rng.gen_range(0..universe)).collect();
    v.sort_unstable();
    v.dedup();
    v.truncate(len);
    v
}

/// Tiers this host can actually execute, widest last.
fn host_tiers() -> Vec<SimdTier> {
    SimdTier::ALL
        .into_iter()
        .filter(|t| t.supported())
        .collect()
}

/// Isolated BMP word-probe loop: one bitmap, one 4096-element probe array,
/// each tier. The AVX2 row answers "what did the 8-lane gather buy"; the
/// AVX-512 row the 16-lane version; `portable` isolates the block-shaped
/// scalar rewrite from the intrinsics themselves.
fn bench_bmp_probe(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let n = 1_000_000usize;
    let indexed = sorted_set(&mut rng, 20_000, n as u32);
    let probe = sorted_set(&mut rng, 4096, n as u32);
    let mut bm = Bitmap::new(n);
    bm.set_list(&indexed, &mut NullMeter);
    let mut group = c.benchmark_group("simd_bmp_probe_4096");
    group.throughput(Throughput::Elements(probe.len() as u64));
    for tier in host_tiers() {
        group.bench_with_input(
            BenchmarkId::new("bmp_count", tier.label()),
            &tier,
            |bench, &tier| bench.iter(|| bmp_count_tier(&bm, &probe, tier, &mut NullMeter)),
        );
    }
    group.finish();
}

/// Isolated BMP-RF probe loop: the same 4096-element probe array through a
/// range-filtered bitmap at the paper's ratio of 4096, each tier. The
/// indexed set is one dense cluster plus a sparse scatter, so about one
/// key in eight passes the filter: most 8-key steps hit a lane or two and
/// need a masked big gather, and some are wholly filtered.
fn bench_rf_probe(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(13);
    let n = 1_000_000usize;
    let mut indexed = sorted_set(&mut rng, 30, n as u32);
    indexed.extend(200_000..210_000u32);
    indexed.sort_unstable();
    indexed.dedup();
    let probe = sorted_set(&mut rng, 4096, n as u32);
    let mut rf = RfBitmap::with_ratio(n, 4096);
    rf.set_list(&indexed, &mut NullMeter);
    let mut group = c.benchmark_group("simd_rf_probe_4096");
    group.throughput(Throughput::Elements(probe.len() as u64));
    for tier in host_tiers() {
        group.bench_with_input(
            BenchmarkId::new("rf_count", tier.label()),
            &tier,
            |bench, &tier| bench.iter(|| rf_count_tier(&rf, &probe, tier, &mut NullMeter)),
        );
    }
    group.finish();
}

/// Isolated galloping search: lower bounds of scattered targets, each tier.
/// The tiers differ only in the 16-element linear prefix; the exponential
/// phase and final window are the same scalar tail everywhere. A 4MB
/// (1M-element) array is cache-resident, a 128MB (32M-element) one
/// DRAM-resident, where the tail's dependent probes are cache misses and
/// the prefix's share of the time shrinks.
fn bench_gallop(c: &mut Criterion) {
    for (label, len) in [("1m", 1_000_000usize), ("32m", 32_000_000)] {
        let mut rng = StdRng::seed_from_u64(12);
        let hay: Vec<u32> = sorted_set(&mut rng, len, u32::MAX);
        let targets: Vec<u32> = (0..512).map(|_| rng.gen_range(0..u32::MAX)).collect();
        let mut group = c.benchmark_group(format!("simd_gallop_{label}"));
        group.throughput(Throughput::Elements(targets.len() as u64));
        for tier in host_tiers() {
            group.bench_with_input(
                BenchmarkId::new("gallop_lower_bound", tier.label()),
                &tier,
                |bench, &tier| {
                    bench.iter(|| {
                        let mut acc = 0usize;
                        for &t in &targets {
                            acc += gallop_lower_bound_tier(&hay, 0, t, tier, &mut NullMeter);
                        }
                        acc
                    })
                },
            );
        }
        group.finish();
    }
}

/// End-to-end single-thread runs on the scaled paper graphs: the whole BMP
/// and MPS pipelines with the process tier forced, so every dispatch site
/// (bitmap probes, VB blocks, linear prefix) switches together.
fn bench_end_to_end(c: &mut Criterion) {
    let seq = ParConfig::sequential();
    for dataset in [Dataset::TwS, Dataset::LjS] {
        let g = dataset.build(Scale::Small);
        let mut group = c.benchmark_group(format!("simd_e2e_{}", dataset.name()));
        group.sample_size(10);
        group.throughput(Throughput::Elements(g.num_directed_edges() as u64));
        for tier in host_tiers() {
            SimdTier::force(tier).expect("host_tiers returns supported tiers only");
            group.bench_with_input(
                BenchmarkId::new("seq_bmp", tier.label()),
                &tier,
                |bench, _| {
                    bench.iter(|| CpuKernel::Bmp(BmpMode::Plain).execute(&g, Cnc, &seq, false))
                },
            );
            let rf = BmpMode::rf_scaled(g.num_vertices());
            group.bench_with_input(
                BenchmarkId::new("seq_bmp_rf", tier.label()),
                &tier,
                |bench, _| bench.iter(|| CpuKernel::Bmp(rf).execute(&g, Cnc, &seq, false)),
            );
            group.bench_with_input(
                BenchmarkId::new("seq_mps", tier.label()),
                &tier,
                |bench, _| {
                    bench
                        .iter(|| CpuKernel::Mps(MpsConfig::default()).execute(&g, Cnc, &seq, false))
                },
            );
        }
        group.finish();
    }
    // Leave the process at the host's best tier for anything that follows.
    let _ = SimdTier::force(SimdTier::detect_host());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(2));
    targets = bench_bmp_probe, bench_rf_probe, bench_gallop, bench_end_to_end
}
criterion_main!(benches);
