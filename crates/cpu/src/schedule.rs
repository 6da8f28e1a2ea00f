//! Workload-aware task decomposition for the edge-range driver.
//!
//! The parallel driver splits the directed edge range `0..m` into tasks.
//! How it splits matters twice over:
//!
//! * **Balance** — uniform edge counts are not uniform work. A hub source
//!   with degree 10⁴ makes its task an order of magnitude more expensive
//!   than a task of leaf edges, and the whole run waits on the straggler.
//! * **Source alignment** — per-source kernels (BMP, BMP-RF) rebuild their
//!   bitmap whenever a task starts mid-source: the same source is re-indexed
//!   once per task that touches it. Cutting only on source boundaries makes
//!   `begin_source` run once per (source, run) instead of once per
//!   (source, task).
//!
//! [`SchedulePolicy::Uniform`] reproduces the historical fixed-size chunks
//! byte-for-byte and stays the default. [`SchedulePolicy::Balanced`] prices
//! every source with the kernel's [`CostModel`], prefix-sums the costs, and
//! binary-searches near-equal cut points that always land on source
//! boundaries.

use std::ops::Range;

use cnc_graph::CsrGraph;
use cnc_intersect::CostModel;
use cnc_workload::Workload;

/// How the parallel driver decomposes the edge range into tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Fixed-size contiguous chunks of `task_size` edges (the historical
    /// behavior, kept as the baseline). Cuts ignore source boundaries.
    Uniform {
        /// Edges per task; clamped to at least 1.
        task_size: usize,
    },
    /// Cost-balanced, source-aligned decomposition into at most `tasks`
    /// tasks. Cut points are chosen so every task carries a near-equal
    /// share of the kernel's estimated work, and always fall on source
    /// boundaries.
    Balanced {
        /// Upper bound on the number of tasks; clamped to at least 1.
        /// Degenerate cuts (empty tasks) are merged away, so the actual
        /// count may be lower.
        tasks: usize,
    },
}

/// The historical default chunk size of the uniform policy.
pub const DEFAULT_TASK_SIZE: usize = 8192;

impl Default for SchedulePolicy {
    fn default() -> Self {
        SchedulePolicy::Uniform {
            task_size: DEFAULT_TASK_SIZE,
        }
    }
}

impl SchedulePolicy {
    /// Uniform chunks of `task_size` edges (clamped to ≥ 1).
    pub fn uniform(task_size: usize) -> Self {
        SchedulePolicy::Uniform {
            task_size: task_size.max(1),
        }
    }

    /// Cost-balanced decomposition into at most `tasks` tasks (clamped
    /// to ≥ 1).
    pub fn balanced(tasks: usize) -> Self {
        SchedulePolicy::Balanced {
            tasks: tasks.max(1),
        }
    }
}

/// Execution parameters for the Algorithm 3 skeleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParConfig {
    /// How the edge range is decomposed into tasks. The uniform policy is
    /// the Section 4 trade-off (large tasks amortize scheduling, small
    /// tasks balance load); the balanced policy prices sources with the
    /// kernel's cost model and cuts on source boundaries.
    pub schedule: SchedulePolicy,
    /// Worker threads; `None` uses the ambient rayon pool.
    pub threads: Option<usize>,
}

impl ParConfig {
    /// Uniform chunks with an explicit task size (clamped to ≥ 1).
    pub fn with_task_size(task_size: usize) -> Self {
        Self {
            schedule: SchedulePolicy::uniform(task_size),
            threads: None,
        }
    }

    /// Cost-balanced, source-aligned decomposition into at most `tasks`
    /// tasks (clamped to ≥ 1).
    pub fn balanced(tasks: usize) -> Self {
        Self {
            schedule: SchedulePolicy::balanced(tasks),
            threads: None,
        }
    }

    /// The sequential run: the whole edge range as one task, which the
    /// rayon pool executes inline on the calling thread.
    pub fn sequential() -> Self {
        Self::with_task_size(usize::MAX)
    }
}

/// A concrete decomposition of `0..m` into contiguous tasks, plus the cost
/// model's estimate of the heaviest and lightest task (for observability;
/// zero when estimates were not requested).
#[derive(Debug, Clone)]
pub struct Schedule {
    tasks: Vec<Range<usize>>,
    est_cost_max: u64,
    est_cost_min: u64,
}

impl Schedule {
    /// Decompose `g`'s directed edge range under `policy`, pricing pairs
    /// and sources through `workload` (CNC prices every pair with the raw
    /// kernel model; pruning workloads zero out uncovered pairs, so their
    /// balanced cuts visibly differ on the same graph).
    ///
    /// `with_estimates` controls whether per-task cost estimates are
    /// computed for the uniform policy (the balanced policy prices every
    /// source anyway, so its estimates are free). Skipping them keeps the
    /// unobserved uniform path free of the O(E) costing pass.
    pub fn compute<W: Workload>(
        g: &CsrGraph,
        policy: SchedulePolicy,
        model: &CostModel,
        workload: &W,
        with_estimates: bool,
    ) -> Self {
        let m = g.num_directed_edges();
        match policy {
            SchedulePolicy::Uniform { task_size } => {
                let t = task_size.max(1);
                // Reproduce the legacy chunks exactly: task k covers
                // [k*t, min((k+1)*t, m)). Saturating arithmetic keeps
                // t = usize::MAX well-defined.
                let tasks: Vec<Range<usize>> = (0..m.div_ceil(t))
                    .map(|k| {
                        let start = k.saturating_mul(t);
                        start..start.saturating_add(t).min(m)
                    })
                    .collect();
                let prefix = with_estimates.then(|| source_cost_prefix(g, model, workload));
                Schedule::priced(tasks, |e| {
                    prefix.as_ref().map_or(0, |p| prefix_at_edge(g, p, e))
                })
            }
            SchedulePolicy::Balanced { tasks: want } => {
                let prefix = source_cost_prefix(g, model, workload);
                let offsets = g.offsets();
                Schedule::priced(balanced_cuts(&prefix, want, m, |s| offsets[s]), |e| {
                    prefix_at_edge(g, &prefix, e)
                })
            }
        }
    }

    /// A schedule of `tasks` whose estimates are read off `cost_at`, the
    /// estimated cost of everything before a cut point.
    pub(crate) fn priced(tasks: Vec<Range<usize>>, cost_at: impl Fn(usize) -> u64) -> Self {
        let costs: Vec<u64> = tasks
            .iter()
            .map(|r| cost_at(r.end) - cost_at(r.start))
            .collect();
        Schedule {
            est_cost_max: costs.iter().copied().max().unwrap_or(0),
            est_cost_min: costs.iter().copied().min().unwrap_or(0),
            tasks,
        }
    }

    /// The task ranges, in edge order. Disjoint and covering `0..m`.
    pub fn tasks(&self) -> &[Range<usize>] {
        &self.tasks
    }

    /// Estimated cost of the most expensive task (0 when not computed).
    pub fn est_cost_max(&self) -> u64 {
        self.est_cost_max
    }

    /// Estimated cost of the cheapest task (0 when not computed).
    pub fn est_cost_min(&self) -> u64 {
        self.est_cost_min
    }
}

/// One contiguous, source-aligned block of the directed edge range, with
/// the cost model's estimate of its work. Cuts land on source boundaries,
/// so the estimate is exact under the model (no interpolation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeBlock {
    /// The directed-edge range this block covers.
    pub range: Range<usize>,
    /// The model's estimated kernel cost of the block.
    pub est_cost: u64,
}

/// Cut `g`'s directed edge range into at most `blocks` contiguous,
/// source-aligned blocks of near-equal estimated cost — the exact cuts
/// [`SchedulePolicy::Balanced`] would pick for the same inputs, exposed
/// for callers that distribute ranges across processes rather than
/// threads (the shard coordinator assigns one block per worker and feeds
/// the estimates into its `shard.range_cost_*` counters).
pub fn cut_source_blocks<W: Workload>(
    g: &CsrGraph,
    model: &CostModel,
    workload: &W,
    blocks: usize,
) -> Vec<RangeBlock> {
    let m = g.num_directed_edges();
    let prefix = source_cost_prefix(g, model, workload);
    let offsets = g.offsets();
    balanced_cuts(&prefix, blocks, m, |s| offsets[s])
        .into_iter()
        .map(|range| RangeBlock {
            est_cost: prefix_at_edge(g, &prefix, range.end)
                - prefix_at_edge(g, &prefix, range.start),
            range,
        })
        .collect()
}

/// **The** cost-balanced cut routine: contiguous ranges tiling `0..len`
/// in at most `want` (clamped to ≥ 1) pieces of near-equal cost.
///
/// `prefix` is a monotone cost prefix over units (`prefix[u]` is the cost
/// of units `0..u`). Each ideal `k/want`-of-total point picks the first
/// unit reaching it, and `snap` maps that unit to the first item offset a
/// cut may land on: a source's first edge, or the next source group of a
/// pair list. Degenerate (empty) pieces are dropped, so an empty `0..len`
/// yields no ranges at all. Shared by [`SchedulePolicy::Balanced`],
/// [`cut_source_blocks`] and the batch pair schedule, so thread tasks and
/// process shards agree byte-for-byte.
pub(crate) fn balanced_cuts(
    prefix: &[u64],
    want: usize,
    len: usize,
    snap: impl Fn(usize) -> usize,
) -> Vec<Range<usize>> {
    let want = want.max(1);
    let units = prefix.len() - 1;
    let total = prefix[units];
    let mut bounds: Vec<usize> = vec![0];
    for k in 1..want {
        let target = ((total as u128 * k as u128) / want as u128) as u64;
        let cut = snap(prefix.partition_point(|&c| c < target).min(units));
        if cut > *bounds.last().expect("bounds starts non-empty") && cut < len {
            bounds.push(cut);
        }
    }
    bounds.push(len);
    bounds
        .windows(2)
        .map(|w| w[0]..w[1])
        .filter(|r| !r.is_empty())
        .collect()
}

/// Per-source cost prefix sums: `prefix[u]` is the estimated cost of the
/// edge ranges of sources `0..u`, so a range cut on source boundaries
/// `offsets[a]..offsets[b]` costs exactly `prefix[b] - prefix[a]`.
///
/// A source's cost is one unit per directed edge (the range walk itself),
/// plus the workload's pair cost for every counted *covered* pair
/// (`v > u` and [`Workload::covers`]), plus the workload's per-source cost
/// when the source has at least one such pair (mirroring the driver, which
/// only runs `begin_source` for pairs it actually visits).
fn source_cost_prefix<W: Workload>(g: &CsrGraph, model: &CostModel, workload: &W) -> Vec<u64> {
    let n = g.num_vertices();
    let mut prefix = vec![0u64; n + 1];
    for u in 0..n {
        let u = u as u32;
        let du = g.degree(u);
        let mut cost = du as u64;
        let mut counted = false;
        for &v in g.neighbors(u) {
            if v > u && workload.covers(g, u, v) {
                counted = true;
                cost = cost.saturating_add(workload.pair_cost(model, g, u, v));
            }
        }
        if counted {
            cost = cost.saturating_add(workload.source_cost(model, g, u));
        }
        prefix[u as usize + 1] = prefix[u as usize].saturating_add(cost);
    }
    prefix
}

/// Estimated cost prefix at an arbitrary edge offset: exact on source
/// boundaries, linearly interpolated inside a source's range (uniform cuts
/// can land mid-source).
fn prefix_at_edge(g: &CsrGraph, prefix: &[u64], e: usize) -> u64 {
    let m = g.num_directed_edges();
    if e >= m {
        return prefix[g.num_vertices()];
    }
    let offsets = g.offsets();
    let u = offsets.partition_point(|&o| o <= e) - 1;
    let (o0, o1) = (offsets[u], offsets[u + 1]);
    let within = prefix[u + 1] - prefix[u];
    prefix[u] + within.saturating_mul((e - o0) as u64) / (o1 - o0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_graph::generators::hub_web;
    use cnc_graph::EdgeList;
    use cnc_workload::{CncWorkload, TriangleWorkload};

    fn hub_graph() -> CsrGraph {
        CsrGraph::from_edge_list(&hub_web(300, 6.0, 3, 0.5, 7))
    }

    fn path_graph(n: usize) -> CsrGraph {
        CsrGraph::from_edge_list(&EdgeList::from_pairs(
            (0..n.saturating_sub(1)).map(|i| (i as u32, (i + 1) as u32)),
        ))
    }

    /// Every schedule must tile `0..m` exactly: disjoint, covering, in order.
    fn assert_tiles(s: &Schedule, m: usize) {
        let mut next = 0usize;
        for r in s.tasks() {
            assert_eq!(r.start, next, "tasks must be contiguous and ordered");
            assert!(r.end > r.start, "no empty tasks");
            next = r.end;
        }
        assert_eq!(next, m, "tasks must cover the whole edge range");
    }

    #[test]
    fn uniform_reproduces_legacy_chunks() {
        let g = hub_graph();
        let m = g.num_directed_edges();
        for t in [1usize, 3, 17, 8192, usize::MAX] {
            let s = Schedule::compute(
                &g,
                SchedulePolicy::uniform(t),
                &CostModel::Merge,
                &CncWorkload,
                false,
            );
            assert_tiles(&s, m);
            let expect: Vec<Range<usize>> = (0..m.div_ceil(t))
                .map(|k| (k.saturating_mul(t))..(k.saturating_mul(t).saturating_add(t)).min(m))
                .collect();
            assert_eq!(s.tasks(), &expect[..]);
        }
    }

    #[test]
    fn balanced_cuts_are_source_aligned_and_bounded() {
        let g = hub_graph();
        let m = g.num_directed_edges();
        for (want, model) in [
            (1usize, CostModel::Merge),
            (2, CostModel::Bmp),
            (7, CostModel::Mps { skew_threshold: 50 }),
            (16, CostModel::Bmp),
            (10_000, CostModel::Merge),
        ] {
            let s = Schedule::compute(
                &g,
                SchedulePolicy::balanced(want),
                &model,
                &CncWorkload,
                false,
            );
            assert_tiles(&s, m);
            assert!(
                s.tasks().len() <= want,
                "requested {want}, got {}",
                s.tasks().len()
            );
            for r in s.tasks() {
                // Interior boundaries must be source boundaries.
                assert!(
                    g.offsets().binary_search(&r.start).is_ok(),
                    "cut at edge {} is not a source boundary",
                    r.start
                );
            }
        }
    }

    #[test]
    fn balanced_flattens_cost_spread_on_skewed_graphs() {
        let g = hub_graph();
        let model = CostModel::Bmp;
        let uniform = Schedule::compute(
            &g,
            SchedulePolicy::uniform(g.num_directed_edges().div_ceil(8)),
            &model,
            &CncWorkload,
            true,
        );
        let balanced =
            Schedule::compute(&g, SchedulePolicy::balanced(8), &model, &CncWorkload, true);
        assert!(uniform.est_cost_max() > 0 && balanced.est_cost_max() > 0);
        // The balanced straggler must not be heavier than the uniform one
        // (on a hub-skewed graph it is strictly lighter).
        assert!(
            balanced.est_cost_max() <= uniform.est_cost_max(),
            "balanced straggler {} vs uniform {}",
            balanced.est_cost_max(),
            uniform.est_cost_max()
        );
    }

    #[test]
    fn balanced_on_uniform_degrees_is_near_even() {
        let g = path_graph(2_000);
        let s = Schedule::compute(
            &g,
            SchedulePolicy::balanced(8),
            &CostModel::Merge,
            &CncWorkload,
            true,
        );
        assert_tiles(&s, g.num_directed_edges());
        assert_eq!(s.tasks().len(), 8);
        // On a degree-uniform graph the spread collapses.
        assert!(s.est_cost_max() <= 2 * s.est_cost_min().max(1));
    }

    #[test]
    fn empty_and_tiny_graphs_schedule_cleanly() {
        let empty = CsrGraph::from_edge_list(&EdgeList::from_pairs(std::iter::empty()));
        for policy in [SchedulePolicy::uniform(8), SchedulePolicy::balanced(8)] {
            let s = Schedule::compute(&empty, policy, &CostModel::Merge, &CncWorkload, true);
            assert!(s.tasks().is_empty());
            assert_eq!((s.est_cost_max(), s.est_cost_min()), (0, 0));
        }
        let two = path_graph(2);
        for policy in [SchedulePolicy::uniform(1), SchedulePolicy::balanced(64)] {
            let s = Schedule::compute(&two, policy, &CostModel::Merge, &CncWorkload, true);
            assert_tiles(&s, two.num_directed_edges());
        }
    }

    #[test]
    fn pruning_workload_reshapes_the_pricing() {
        // A star plus a short tail: every star edge has a degree-1 endpoint,
        // so the triangle workload covers almost nothing and its priced
        // total (balanced(1) ⇒ est_cost_max = whole-range cost) drops
        // strictly below CNC's on the same graph and model.
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs(
            (1u32..60).map(|v| (0, v)).chain([(1, 2), (2, 3)]),
        ));
        let cnc = Schedule::compute(
            &g,
            SchedulePolicy::balanced(1),
            &CostModel::Merge,
            &CncWorkload,
            true,
        );
        let tri = Schedule::compute(
            &g,
            SchedulePolicy::balanced(1),
            &CostModel::Merge,
            &TriangleWorkload,
            true,
        );
        assert!(
            tri.est_cost_max() < cnc.est_cost_max(),
            "triangle pricing {} must undercut cnc pricing {}",
            tri.est_cost_max(),
            cnc.est_cost_max()
        );
    }

    #[test]
    fn cut_source_blocks_matches_balanced_schedule() {
        let g = hub_graph();
        for (want, model) in [
            (1usize, CostModel::Merge),
            (4, CostModel::Bmp),
            (8, CostModel::Mps { skew_threshold: 50 }),
        ] {
            let s = Schedule::compute(
                &g,
                SchedulePolicy::balanced(want),
                &model,
                &CncWorkload,
                true,
            );
            let blocks = cut_source_blocks(&g, &model, &CncWorkload, want);
            let ranges: Vec<Range<usize>> = blocks.iter().map(|b| b.range.clone()).collect();
            assert_eq!(ranges, s.tasks(), "cuts must match Balanced exactly");
            let max = blocks.iter().map(|b| b.est_cost).max().unwrap();
            let min = blocks.iter().map(|b| b.est_cost).min().unwrap();
            assert_eq!((max, min), (s.est_cost_max(), s.est_cost_min()));
        }
        let empty = CsrGraph::from_edge_list(&EdgeList::from_pairs(std::iter::empty()));
        assert!(cut_source_blocks(&empty, &CostModel::Merge, &CncWorkload, 4).is_empty());
    }

    #[test]
    fn policy_constructors_clamp_to_one() {
        assert_eq!(
            SchedulePolicy::uniform(0),
            SchedulePolicy::Uniform { task_size: 1 }
        );
        assert_eq!(
            SchedulePolicy::balanced(0),
            SchedulePolicy::Balanced { tasks: 1 }
        );
    }
}
