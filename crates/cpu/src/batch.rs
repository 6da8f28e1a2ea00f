//! Batch-of-edges execution: the serve layer's point-query executor.
//!
//! An all-edge pass visits every `u < v` pair exactly once, grouped by the
//! source `u`, so per-source kernel state (BMP's bitmap) is built once per
//! source. A flood of *point* queries answered one at a time loses that
//! amortization: every `count(u, v)` request pays its own `begin_source` /
//! `end_source` round trip. This module restores the bulk-pass shape for an
//! arbitrary *list* of pairs:
//!
//! * [`run_pairs`] is the sequential loop — the pair-list analogue of
//!   [`run_range`](crate::run_range): walk a source-grouped pair list,
//!   rebuild kernel state only when the source changes;
//! * [`pair_schedule`] cuts the list into cost-balanced tasks whose
//!   boundaries always land between source groups, through the same cut
//!   routine and pricing as the balanced edge-range schedule;
//! * [`BatchCounter`] owns a [`KernelPool`], so consecutive batches reuse
//!   the same `|V|`-bit bitmaps instead of reallocating them per batch — at
//!   steady state the pool holds one kernel per worker, however many
//!   batches have been served. Its tasks run through the same
//!   [`fan_out`] as every edge-range execution, so batches report the same
//!   spans and schedule counters.
//!
//! Pairs are counted as given: `count(u, v) = |N(u) ∩ N(v)|` with `u` as
//! the kernel's source vertex. Callers wanting the edge-range driver's cost
//! profile should canonicalize to `u < v` and sort by `u` (the serve layer
//! does both); the functions here only require *grouping* by source.

use std::ops::Range;

use cnc_graph::CsrGraph;
use cnc_intersect::{CostModel, Meter, PairKernel};

use crate::driver::{
    fan_out, with_factory, CpuKernel, KernelFactory, KernelPool, RangeTally, TaskBody,
};
use crate::pool::PoolStats;
use crate::schedule::{balanced_cuts, Schedule};

/// Count every `(u, v)` pair of a source-grouped list, amortizing
/// per-source kernel state across each group exactly like the edge-range
/// loop. Results land in `out` (same length as `pairs`); the returned
/// [`RangeTally`] reports visits and `begin_source` rebuilds.
///
/// # Panics
/// If `out.len() != pairs.len()` (debug builds).
fn run_pairs<K: PairKernel, M: Meter>(
    g: &CsrGraph,
    pairs: &[(u32, u32)],
    kernel: &mut K,
    meter: &mut M,
    out: &mut [u32],
) -> RangeTally {
    debug_assert_eq!(pairs.len(), out.len());
    let mut pu: Option<u32> = None;
    let mut tally = RangeTally::default();
    for (i, &(u, v)) in pairs.iter().enumerate() {
        if pu != Some(u) {
            if let Some(p) = pu {
                kernel.end_source(g.neighbors(p), meter);
            }
            kernel.begin_source(g.neighbors(u), meter);
            tally.rebuilds += 1;
            pu = Some(u);
        }
        out[i] = kernel.count(g.neighbors(u), g.neighbors(v), meter);
        tally.visited += 1;
    }
    if let Some(p) = pu {
        kernel.end_source(g.neighbors(p), meter);
    }
    tally
}

/// Cost-balanced, source-aligned decomposition of a source-grouped pair
/// list into at most `want` contiguous tasks.
///
/// Each pair is priced with the kernel's [`CostModel`] (`pair_cost` plus
/// one unit of loop overhead), the once-per-source setup cost is charged at
/// every group start, and cut points snap forward to the next group
/// boundary — so no task ever re-pays `begin_source` for a source another
/// task already indexed. Degenerate (empty) tasks are merged away.
fn pair_schedule(g: &CsrGraph, pairs: &[(u32, u32)], model: &CostModel, want: usize) -> Schedule {
    let n = pairs.len();
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0u64);
    for (i, &(u, v)) in pairs.iter().enumerate() {
        let mut cost = 1 + model.pair_cost(g.degree(u), g.degree(v));
        if i == 0 || pairs[i - 1].0 != u {
            cost = cost.saturating_add(model.source_cost(g.degree(u)));
        }
        prefix.push(prefix[i].saturating_add(cost));
    }
    let tasks = balanced_cuts(&prefix, want, n, |mut cut| {
        while cut > 0 && cut < n && pairs[cut].0 == pairs[cut - 1].0 {
            cut += 1;
        }
        cut
    });
    Schedule::priced(tasks, |i| prefix[i])
}

/// Tasks over index ranges of a pair list: [`run_pairs`]. A task's
/// counts are its accumulator; tasks tile the list in order and the
/// reduction concatenates them in order, so the merged accumulator is one
/// count per pair.
struct PairWalk<'a> {
    g: &'a CsrGraph,
    pairs: &'a [(u32, u32)],
}

impl TaskBody for PairWalk<'_> {
    type Acc = Vec<u32>;

    fn new_acc(&self) -> Self::Acc {
        Vec::new()
    }

    fn merge(&self, into: &mut Self::Acc, from: Self::Acc) {
        into.extend(from);
    }

    fn run<K: PairKernel, M: Meter>(
        &self,
        range: Range<usize>,
        acc: &mut Self::Acc,
        kernel: &mut K,
        meter: &mut M,
    ) -> RangeTally {
        *acc = vec![0; range.len()];
        run_pairs(self.g, &self.pairs[range], kernel, meter, acc)
    }
}

/// A resident batch executor: one kernel dispatch plus one long-lived
/// kernel pool, shared by every batch it counts.
///
/// An edge-range execution builds its kernel pool per call — fine for
/// one bulk pass, wasteful for a server answering thousands of small
/// batches. A `BatchCounter` is built once per (graph, plan) and reused:
/// bitmaps are allocated the first time a worker needs one and then
/// recycled, so [`pool_stats`](BatchCounter::pool_stats) stays bounded by
/// the worker count however many batches run.
pub struct BatchCounter {
    kernel: CpuKernel,
    pool: KernelPool,
}

impl BatchCounter {
    /// An executor for `kernel` over graphs of `num_vertices` vertices.
    ///
    /// # Panics
    /// On an invalid RF ratio — validate the kernel at plan time.
    pub fn new(kernel: CpuKernel, num_vertices: usize) -> Self {
        Self {
            kernel,
            pool: KernelPool::new(kernel, num_vertices),
        }
    }

    /// Pool usage so far, for kernels with per-source state (`None` for
    /// the stateless merge family). `created` staying at the worker count
    /// across many batches is the reuse evidence.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        with_factory!(&self.pool, |f| KernelFactory::stats(f))
    }

    /// Count one source-grouped batch of pairs, decomposed into at most
    /// `tasks` cost-balanced source-aligned tasks run in parallel on the
    /// global pool. Returns one count per pair, in order; under an
    /// installed observability context the batch records the same
    /// `workload → kernel → task` spans and driver / schedule counters as
    /// an edge-range execution.
    pub fn count_pairs(&self, g: &CsrGraph, pairs: &[(u32, u32)], tasks: usize) -> Vec<u32> {
        let schedule = pair_schedule(g, pairs, &self.kernel.cost_model(), tasks);
        let body = PairWalk { g, pairs };
        with_factory!(&self.pool, |f| fan_out(f, &body, &schedule, None, false)).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BmpMode;
    use cnc_graph::generators;
    use cnc_intersect::{BmpKernel, MpsConfig, NullMeter};
    use rand::{Rng, SeedableRng, StdRng};

    fn test_graph() -> CsrGraph {
        CsrGraph::from_edge_list(&generators::hub_web(300, 6.0, 3, 0.5, 11))
    }

    /// Every canonical edge of `g` as a source-grouped pair list.
    fn all_pairs(g: &CsrGraph) -> Vec<(u32, u32)> {
        g.iter_edges()
            .filter(|&(_, u, v)| u < v)
            .map(|(_, u, v)| (u, v))
            .collect()
    }

    fn kernels(n: usize) -> [CpuKernel; 4] {
        [
            CpuKernel::Merge,
            CpuKernel::Mps(MpsConfig::default()),
            CpuKernel::Bmp(BmpMode::Plain),
            CpuKernel::Bmp(BmpMode::rf_scaled(n)),
        ]
    }

    #[test]
    fn run_pairs_matches_reference_for_every_kernel() {
        let g = test_graph();
        let pairs = all_pairs(&g);
        let want: Vec<u32> = pairs
            .iter()
            .map(|&(u, v)| cnc_intersect::reference_count(g.neighbors(u), g.neighbors(v)))
            .collect();
        for kernel in kernels(g.num_vertices()) {
            let counter = BatchCounter::new(kernel, g.num_vertices());
            for tasks in [1usize, 4, 64] {
                assert_eq!(
                    counter.count_pairs(&g, &pairs, tasks),
                    want,
                    "{kernel:?} tasks={tasks}"
                );
            }
            assert!(counter.count_pairs(&g, &[], 4).is_empty());
        }
    }

    #[test]
    fn unsorted_subset_batches_are_exact() {
        // The contract is grouping, not global order: a shuffled batch
        // regrouped by source still counts exactly.
        let g = test_graph();
        let mut rng = StdRng::seed_from_u64(7);
        let all = all_pairs(&g);
        let mut pairs: Vec<(u32, u32)> =
            (0..200).map(|_| all[rng.gen_range(0..all.len())]).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let want: Vec<u32> = pairs
            .iter()
            .map(|&(u, v)| cnc_intersect::reference_count(g.neighbors(u), g.neighbors(v)))
            .collect();
        for kernel in kernels(g.num_vertices()) {
            let counter = BatchCounter::new(kernel, g.num_vertices());
            assert_eq!(counter.count_pairs(&g, &pairs, 8), want, "{kernel:?}");
        }
    }

    #[test]
    fn task_ranges_tile_and_respect_groups() {
        let g = test_graph();
        let pairs = all_pairs(&g);
        for want in [1usize, 2, 7, 16, 10_000] {
            for model in [CostModel::Merge, CostModel::Bmp] {
                let schedule = pair_schedule(&g, &pairs, &model, want);
                let ranges = schedule.tasks();
                let mut next = 0;
                for r in ranges {
                    assert_eq!(r.start, next);
                    assert!(r.end > r.start, "no empty tasks");
                    // Interior cuts never split a source group.
                    if r.start > 0 {
                        assert_ne!(
                            pairs[r.start].0,
                            pairs[r.start - 1].0,
                            "cut at {} splits source {}",
                            r.start,
                            pairs[r.start].0
                        );
                    }
                    next = r.end;
                }
                assert_eq!(next, pairs.len());
                assert!(ranges.len() <= want);
            }
        }
    }

    #[test]
    fn batched_execution_rebuilds_once_per_source_group() {
        let g = test_graph();
        let pairs = all_pairs(&g);
        let sources: std::collections::HashSet<u32> = pairs.iter().map(|&(u, _)| u).collect();
        let mut kernel = BmpKernel::new(g.num_vertices());
        let mut out = vec![0u32; pairs.len()];
        let tally = run_pairs(&g, &pairs, &mut kernel, &mut NullMeter, &mut out);
        assert_eq!(tally.rebuilds, sources.len() as u64);
        assert_eq!(tally.visited, pairs.len() as u64);
        assert!(kernel.is_reset(), "last source must be torn down");
    }

    #[test]
    fn pool_is_reused_across_batches() {
        // The serve-layer satellite: bitmaps are allocated once per worker,
        // not once per batch. 50 consecutive batches on one counter must
        // not grow `created` beyond the worker bound.
        let g = test_graph();
        let pairs = all_pairs(&g);
        let counter = BatchCounter::new(CpuKernel::Bmp(BmpMode::Plain), g.num_vertices());
        for _ in 0..50 {
            counter.count_pairs(&g, &pairs[..100.min(pairs.len())], 4);
        }
        let stats = counter.pool_stats().expect("bmp pools report stats");
        let bound = rayon::current_num_threads() * 2 + 1;
        assert!(
            stats.created <= bound,
            "{} bitmaps created across 50 batches (worker bound {bound})",
            stats.created
        );
        assert!(stats.reused > stats.created, "batches must recycle kernels");
        assert!(BatchCounter::new(CpuKernel::Merge, 8)
            .pool_stats()
            .is_none());
    }
}
