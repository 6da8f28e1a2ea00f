//! Observability-level checks of the schedule policies: the counters a
//! metered run emits must show *why* balanced scheduling wins — fewer
//! `begin_source` rebuilds than mid-source-cutting uniform tasks, and a
//! flatter estimated cost spread.

use std::sync::Arc;

use cnc_cpu::{BmpMode, CpuKernel, ParConfig};
use cnc_graph::generators;
use cnc_graph::CsrGraph;
use cnc_obs::{Counter, ObsContext};
use cnc_workload::WorkloadKind;

/// Run `kernel` under an installed context and return its counter snapshot.
fn observed_run(g: &CsrGraph, kernel: CpuKernel, cfg: &ParConfig) -> cnc_obs::CounterSnapshot {
    let ctx = Arc::new(ObsContext::new());
    let guard = ctx.install();
    let _ = kernel.execute(g, WorkloadKind::Cnc, cfg, false);
    drop(guard);
    ctx.counters()
}

#[test]
fn balanced_rebuilds_strictly_fewer_sources_than_mid_source_uniform() {
    // A hub-web analogue: a few huge sources. Uniform 64-edge tasks cut
    // straight through the hubs, re-indexing the same source once per task;
    // balanced cuts never split a source.
    let g = CsrGraph::from_edge_list(&generators::hub_web(400, 6.0, 3, 0.6, 11));
    let kernel = CpuKernel::Bmp(BmpMode::Plain);

    let uniform = observed_run(&g, kernel, &ParConfig::with_task_size(64));
    let balanced = observed_run(&g, kernel, &ParConfig::balanced(8));

    let u = uniform.get(Counter::KernelSourceRebuilds);
    let b = balanced.get(Counter::KernelSourceRebuilds);
    assert!(
        u > 0 && b > 0,
        "both runs must count rebuilds (u={u}, b={b})"
    );
    assert!(
        b < u,
        "balanced must rebuild strictly fewer sources: balanced={b}, uniform={u}"
    );

    // Source-aligned cuts mean one rebuild per source that has at least one
    // counted (u < v) pair — the minimum possible.
    let sources_with_pairs = (0..g.num_vertices())
        .filter(|&u| g.neighbors(u as u32).iter().any(|&v| v > u as u32))
        .count() as u64;
    assert_eq!(b, sources_with_pairs);
}

#[test]
fn schedule_counters_describe_the_decomposition() {
    let g = CsrGraph::from_edge_list(&generators::hub_web(300, 5.0, 2, 0.5, 3));
    let kernel = CpuKernel::Merge;

    for cfg in [ParConfig::with_task_size(97), ParConfig::balanced(6)] {
        let snap = observed_run(&g, kernel, &cfg);
        let tasks = snap.get(Counter::ScheduleTasks);
        assert!(tasks > 0, "{cfg:?}");
        assert_eq!(tasks, snap.get(Counter::DriverTasks), "{cfg:?}");
        let max = snap.get(Counter::ScheduleEstCostMax);
        let min = snap.get(Counter::ScheduleEstCostMin);
        assert!(max >= min && max > 0, "{cfg:?}: max={max}, min={min}");
    }
}

#[test]
fn balanced_flattens_observed_cost_spread() {
    let g = CsrGraph::from_edge_list(&generators::hub_web(400, 6.0, 3, 0.6, 11));
    let kernel = CpuKernel::Bmp(BmpMode::Plain);
    let m = g.num_directed_edges();

    // Same task count for a fair comparison.
    let uniform = observed_run(&g, kernel, &ParConfig::with_task_size(m.div_ceil(8)));
    let balanced = observed_run(&g, kernel, &ParConfig::balanced(8));
    assert!(
        balanced.get(Counter::ScheduleEstCostMax) <= uniform.get(Counter::ScheduleEstCostMax),
        "balanced straggler estimate must not exceed uniform's"
    );
}

#[test]
fn sequential_runs_are_observed_like_parallel_ones() {
    // A sequential run is one task through the same fan-out: it reports
    // the schedule and driver counters and the workload → kernel → task
    // span tree, exactly like a parallel run.
    let g = CsrGraph::from_edge_list(&generators::hub_web(300, 5.0, 2, 0.5, 3));
    let ctx = Arc::new(ObsContext::new());
    let guard = ctx.install();
    let (_, work) = CpuKernel::Bmp(BmpMode::Plain).execute(
        &g,
        WorkloadKind::Cnc,
        &ParConfig::sequential(),
        true,
    );
    drop(guard);
    let snap = ctx.counters();
    assert_eq!(snap.get(Counter::DriverTasks), 1);
    assert_eq!(snap.get(Counter::ScheduleTasks), 1);
    assert!(snap.get(Counter::ScheduleEstCostMin) > 0);
    assert!(snap.get(Counter::KernelSourceRebuilds) > 0);
    let work = work.expect("metered");
    assert_eq!(snap.get(Counter::KernelIntersections), work.intersections);
    let roots = ctx.recorder().tree();
    let workload = roots
        .iter()
        .find(|s| s.name == "workload")
        .expect("workload span");
    let kernel = workload
        .children
        .iter()
        .find(|s| s.name == "kernel")
        .expect("kernel span");
    let tasks: Vec<_> = kernel
        .children
        .iter()
        .filter(|s| s.name == "task")
        .collect();
    assert_eq!(tasks.len(), 1);
    assert_eq!(tasks[0].items, g.num_directed_edges() as u64);
}
