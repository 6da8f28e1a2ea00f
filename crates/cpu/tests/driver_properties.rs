//! Property-based tests for `CpuKernel::execute`: the task decomposition
//! and the meter choice must never change the answer.
//!
//! For any random graph, any task size (including degenerate ones: a task
//! per edge, or one task far larger than `|E|`), and every kernel, the
//! unmetered run and the metered run (per-task `CountingMeter`s) must both
//! produce counts byte-identical to the sequential whole-range run.

use cnc_cpu::{BmpMode, CpuKernel, ParConfig, Schedule, SchedulePolicy};
use cnc_graph::{generators, CsrGraph};
use cnc_intersect::MpsConfig;
use cnc_workload::WorkloadKind;
use proptest::prelude::*;

/// CNC counts of `kernel` on `g` under `cfg`, and the work when `metered`.
fn cnc(
    kernel: CpuKernel,
    g: &CsrGraph,
    cfg: &ParConfig,
    metered: bool,
) -> (Vec<u32>, Option<cnc_intersect::WorkCounts>) {
    let (out, work) = kernel.execute(g, WorkloadKind::Cnc, cfg, metered);
    (out.into_edge_counts().expect("cnc output"), work)
}

fn kernels(num_vertices: usize) -> Vec<CpuKernel> {
    vec![
        CpuKernel::Merge,
        CpuKernel::Mps(MpsConfig::default()),
        CpuKernel::Bmp(BmpMode::Plain),
        CpuKernel::Bmp(BmpMode::rf_scaled(num_vertices)),
    ]
}

/// Strategy: any schedule policy — uniform chunks spanning the degenerate
/// and the ordinary (one edge per task up to one task far larger than any
/// test graph's `|E|`), and balanced decompositions from one task to far
/// more tasks than any test graph has sources.
fn policy() -> impl Strategy<Value = SchedulePolicy> {
    let mut policies: Vec<SchedulePolicy> = vec![1usize, 2, 7, 61, 256, 1023, 4096, usize::MAX]
        .into_iter()
        .map(SchedulePolicy::uniform)
        .collect();
    policies.extend(
        vec![1usize, 2, 3, 8, 17, 64, 100_000]
            .into_iter()
            .map(SchedulePolicy::balanced),
    );
    prop::sample::select(policies)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decomposition_and_metering_never_change_counts(
        n in 2usize..120,
        edge_factor in 1usize..6,
        seed in 0u64..1_000,
        p in policy(),
    ) {
        let g = CsrGraph::from_edge_list(&generators::gnm(n, n * edge_factor, seed));
        let cfg = ParConfig { schedule: p, threads: None };
        for kernel in kernels(g.num_vertices()) {
            let (seq, _) = cnc(kernel, &g, &ParConfig::sequential(), false);
            let (par, _) = cnc(kernel, &g, &cfg, false);
            let (metered, work) = cnc(kernel, &g, &cfg, true);
            let work = work.expect("metered runs report work");
            prop_assert_eq!(&par, &seq, "NullMeter par diverged: {:?} {:?}", kernel, p);
            prop_assert_eq!(&metered, &seq, "CountingMeter par diverged: {:?} {:?}", kernel, p);
            // Any split of the range does the same intersections.
            prop_assert!(work.total_ops() > 0 || g.num_directed_edges() == 0);
        }
    }

    #[test]
    fn skewed_graphs_agree_across_schedules(
        hubs in 1usize..4,
        seed in 0u64..100,
        p in policy(),
    ) {
        // Hub-heavy graphs exercise the pivot-skip path and uneven
        // source-run lengths across task boundaries.
        let g = CsrGraph::from_edge_list(&generators::hub_web(80, 4.0, hubs, 0.5, seed));
        let cfg = ParConfig { schedule: p, threads: None };
        for kernel in kernels(g.num_vertices()) {
            let (seq, _) = cnc(kernel, &g, &ParConfig::sequential(), false);
            let (metered, _) = cnc(kernel, &g, &cfg, true);
            prop_assert_eq!(&cnc(kernel, &g, &cfg, false).0, &seq);
            prop_assert_eq!(&metered, &seq);
        }
    }

    #[test]
    fn schedules_tile_the_edge_range(
        n in 2usize..150,
        edge_factor in 1usize..6,
        seed in 0u64..1_000,
        p in policy(),
    ) {
        // Schedule invariants, independent of any kernel run: tasks are
        // disjoint, in order, cover 0..m exactly, and the balanced policy
        // never exceeds the requested count and cuts only on source
        // boundaries.
        let g = CsrGraph::from_edge_list(&generators::gnm(n, n * edge_factor, seed));
        let m = g.num_directed_edges();
        for kernel in kernels(g.num_vertices()) {
            let s = Schedule::compute(&g, p, &kernel.cost_model(), &cnc_workload::CncWorkload, true);
            let mut next = 0usize;
            for r in s.tasks() {
                prop_assert_eq!(r.start, next);
                prop_assert!(r.end > r.start);
                next = r.end;
            }
            prop_assert_eq!(next, m);
            if let SchedulePolicy::Balanced { tasks } = p {
                prop_assert!(s.tasks().len() <= tasks);
                for r in s.tasks() {
                    prop_assert!(g.offsets().binary_search(&r.start).is_ok(),
                        "balanced cut at {} not on a source boundary", r.start);
                }
            }
        }
    }
}

/// Parallel outputs must not depend on how many workers claim tasks or in
/// which order they finish. A degree-descending hub graph puts all the
/// expensive sources at the front of the edge range, the shape where
/// dynamic claiming spreads the head tasks across workers.
#[test]
fn workloads_are_thread_count_invariant_on_a_degree_descending_hub_graph() {
    let raw = CsrGraph::from_edge_list(&generators::hub_web(1500, 8.0, 6, 0.3, 21));
    let g = cnc_graph::reorder::degree_descending(&raw).graph;
    let n = g.num_vertices();
    let kinds = [
        WorkloadKind::Cnc,
        WorkloadKind::Triangle,
        WorkloadKind::KClique { k: 4 },
    ];
    let policies = [SchedulePolicy::uniform(64), SchedulePolicy::balanced(48)];
    for kernel in [
        CpuKernel::Mps(MpsConfig::default()),
        CpuKernel::Bmp(BmpMode::rf_scaled(n)),
    ] {
        for kind in kinds {
            let seq = kernel.execute(&g, kind, &ParConfig::sequential(), false);
            for schedule in policies {
                for threads in [1, 2, 3, 8] {
                    let cfg = ParConfig {
                        schedule,
                        threads: Some(threads),
                    };
                    assert_eq!(
                        kernel.execute(&g, kind, &cfg, false),
                        seq,
                        "{kernel:?} {kind:?} {schedule:?} threads={threads}"
                    );
                }
            }
        }
    }
}
