//! The one execution path of the CPU engine.
//!
//! The paper's Algorithm 3 runs the same skeleton for every workload: the
//! edge-offset range `[0, |E|)` is cut into tasks (see
//! [`SchedulePolicy`](crate::SchedulePolicy) — fixed `|T|`-sized chunks or
//! cost-balanced source-aligned cuts), each task finds the source of each
//! offset with the amortized `FindSrc` stash, and visits every covered
//! `u < v` pair through the active [`Workload`] (CNC scatters counts into
//! both directed slots; triangle / k-clique counting reduce task-local
//! tallies). The per-algorithm counting strategy stays captured by
//! [`PairKernel`] in `cnc-intersect` — including its per-source state
//! (BMP's bitmap index, rebuilt only when the source changes).
//!
//! [`run_range`] is that skeleton, written once and generic over the
//! workload. [`CpuKernel::execute`] is the one call that runs it over a
//! whole graph: it selects the kernel and the workload, cuts the range into
//! a [`Schedule`], and hands the tasks to [`fan_out`] — the one place that
//! acquires a kernel per task, opens the `workload → kernel → task` spans,
//! meters, reduces and records the counters. A sequential run is the same
//! call with [`ParConfig::sequential`]: one task, run inline on the caller.
//! [`CpuKernel::run_range_workload`] drives a single range with
//! caller-owned state (the shard worker's block).
//!
//! Kernels with per-source state are shared across tasks through a
//! [`KernelFactory`]; [`BitmapPool`] implements it so BMP tasks borrow (and
//! return clean) bitmap kernels, and [`CloneFactory`] serves the stateless
//! merge family. [`KernelPool`] is the one place a [`CpuKernel`] becomes a
//! concrete kernel type.

use std::ops::Range;

use cnc_graph::CsrGraph;
use cnc_intersect::{
    validate_rf_ratio, BmpKernel, CostModel, CountingMeter, MergeKernel, Meter, MpsConfig,
    MpsKernel, NullMeter, PairKernel, RfKernel, RfRatioError, WorkCounts,
};
use cnc_workload::{
    CncWorkload, KCliqueWorkload, TriangleWorkload, Workload, WorkloadKind, WorkloadOutput,
};
use rayon::prelude::*;

use crate::pool::{BitmapPool, PoolStats};
use crate::schedule::{ParConfig, Schedule};

/// BMP index flavor: plain `|V|`-bit bitmap or the range-filtered variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BmpMode {
    /// Plain bitmap (Algorithm 2 as written).
    Plain,
    /// Range-filtered bitmap with the given big-to-small ratio
    /// (the paper's RF technique; default ratio 4096).
    RangeFiltered {
        /// Big-bitmap bits summarized per small-bitmap bit (power of two).
        ratio: usize,
    },
}

impl BmpMode {
    /// The paper's default RF configuration.
    pub fn rf_default() -> Self {
        BmpMode::RangeFiltered {
            ratio: cnc_intersect::DEFAULT_RF_RATIO,
        }
    }

    /// RF with the scale-aware ratio for a graph of `num_vertices` (see
    /// [`cnc_intersect::scaled_rf_ratio`]): the paper's L1-fitting rule
    /// applied at any graph size.
    pub fn rf_scaled(num_vertices: usize) -> Self {
        BmpMode::RangeFiltered {
            ratio: cnc_intersect::scaled_rf_ratio(num_vertices),
        }
    }

    /// A validated RF mode: rejects zero / one / non-power-of-two ratios
    /// with a descriptive error instead of panicking at run time.
    pub fn range_filtered(ratio: usize) -> Result<Self, RfRatioError> {
        validate_rf_ratio(ratio)?;
        Ok(BmpMode::RangeFiltered { ratio })
    }

    /// Check this mode's configuration (the RF ratio, if any).
    pub fn validate(&self) -> Result<(), RfRatioError> {
        match self {
            BmpMode::Plain => Ok(()),
            BmpMode::RangeFiltered { ratio } => validate_rf_ratio(*ratio),
        }
    }
}

/// Per-range bookkeeping returned by [`run_range`]: the observability
/// tallies every execution mode reduces over its tasks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeTally {
    /// `begin_source` transitions the range incurred: one per distinct
    /// source under source-aligned scheduling, more when cuts land
    /// mid-source and the same source is re-indexed by several tasks.
    /// Always zero for workloads that bypass the kernel's per-source state.
    pub rebuilds: u64,
    /// Covered canonical pairs visited.
    pub visited: u64,
    /// Canonical pairs skipped by the workload's cover predicate.
    pub skipped: u64,
}

impl RangeTally {
    /// Fold another range's tally into this one (parallel reduction).
    pub fn accumulate(&mut self, other: &RangeTally) {
        self.rebuilds += other.rebuilds;
        self.visited += other.visited;
        self.skipped += other.skipped;
    }
}

/// **The** edge-range task loop (Algorithm 3 lines 6–24).
///
/// Walks `range`, resolves sources with the `FindSrc` stash, drives the
/// kernel's per-source state with the `pu_tls` rebuild-on-change logic
/// (skipped entirely when the workload never probes the kernel), and calls
/// [`Workload::visit`] for every covered canonical (`u < v`) pair. Every
/// CPU execution of a workload — sequential, parallel or metered, and the
/// KNL / CPU machine-model profiler's — runs this function and nothing
/// else.
pub fn run_range<W: Workload, K: PairKernel, M: Meter>(
    g: &CsrGraph,
    range: Range<usize>,
    workload: &W,
    shared: &W::Shared,
    acc: &mut W::Accum,
    kernel: &mut K,
    meter: &mut M,
) -> RangeTally {
    let uses_kernel = workload.uses_kernel();
    let mut u_tls = 0u32; // FindSrc stash (Algorithm 3 line 8)
    let mut pu: Option<u32> = None; // pu_tls (Algorithm 3 line 19)
    let mut tally = RangeTally::default();
    for eid in range {
        let u = g.find_src(eid, &mut u_tls);
        let v = g.dst()[eid];
        if u >= v {
            continue;
        }
        if !workload.covers(g, u, v) {
            tally.skipped += 1;
            continue;
        }
        if uses_kernel && pu != Some(u) {
            if let Some(p) = pu {
                kernel.end_source(g.neighbors(p), meter);
            }
            kernel.begin_source(g.neighbors(u), meter);
            tally.rebuilds += 1;
            pu = Some(u);
        }
        workload.visit(g, shared, acc, eid, u, v, kernel, meter);
        tally.visited += 1;
    }
    if let Some(p) = pu {
        kernel.end_source(g.neighbors(p), meter);
    }
    tally
}

/// Hands kernels to parallel tasks and takes them back.
///
/// Stateful kernels are expensive (BMP's bitmap has `|V|` bits), so tasks
/// borrow them from a pool; stateless ones are cloned. Released kernels
/// must be reset ([`PairKernel::is_reset`]).
pub(crate) trait KernelFactory: Sync {
    /// The kernel type this factory produces.
    type Kernel: PairKernel;
    /// Borrow a reset kernel for one task.
    fn acquire(&self) -> Self::Kernel;
    /// Return a reset kernel after the task.
    fn release(&self, kernel: Self::Kernel);
    /// Pool usage so far (`None` for factories that keep nothing).
    fn stats(&self) -> Option<PoolStats> {
        None
    }
}

impl<K: PairKernel + Send> KernelFactory for BitmapPool<K> {
    type Kernel = K;

    fn acquire(&self) -> K {
        BitmapPool::acquire(self)
    }

    fn release(&self, kernel: K) {
        BitmapPool::release(self, kernel);
    }

    fn stats(&self) -> Option<PoolStats> {
        Some(BitmapPool::stats(self))
    }
}

/// Factory for stateless kernels (merge family): clone per task, drop after.
pub(crate) struct CloneFactory<K>(pub K);

impl<K: PairKernel + Clone + Sync> KernelFactory for CloneFactory<K> {
    type Kernel = K;

    fn acquire(&self) -> K {
        self.0.clone()
    }

    fn release(&self, _kernel: K) {}
}

/// The kernel factory a [`CpuKernel`] runs from, built by the one
/// [`CpuKernel`] → concrete-kernel dispatch ([`KernelPool::new`]).
pub(crate) enum KernelPool {
    Merge(CloneFactory<MergeKernel>),
    Mps(CloneFactory<MpsKernel>),
    Bmp(BitmapPool<BmpKernel>),
    Rf(BitmapPool<RfKernel>),
}

/// Evaluate `$body` with `$f` bound to the concrete [`KernelFactory`]
/// inside a [`KernelPool`]: a closure generic over the four kernel types,
/// like the paper's `PBODY` macro around one `ComputeCnt` body.
macro_rules! with_factory {
    ($pool:expr, |$f:ident| $body:expr) => {
        match $pool {
            KernelPool::Merge($f) => $body,
            KernelPool::Mps($f) => $body,
            KernelPool::Bmp($f) => $body,
            KernelPool::Rf($f) => $body,
        }
    };
}
pub(crate) use with_factory;

impl KernelPool {
    /// The factory for `kernel` over graphs of `n` vertices.
    ///
    /// # Panics
    /// On an invalid RF ratio — validate the kernel at plan time.
    pub(crate) fn new(kernel: CpuKernel, n: usize) -> Self {
        match kernel {
            CpuKernel::Merge => KernelPool::Merge(CloneFactory(MergeKernel)),
            CpuKernel::Mps(cfg) => KernelPool::Mps(CloneFactory(MpsKernel::new(cfg))),
            CpuKernel::Bmp(BmpMode::Plain) => {
                KernelPool::Bmp(BitmapPool::new(move || BmpKernel::new(n)))
            }
            CpuKernel::Bmp(BmpMode::RangeFiltered { ratio }) => {
                KernelPool::Rf(BitmapPool::new(move || {
                    RfKernel::prevalidated(n.max(1), ratio)
                }))
            }
        }
    }
}

/// What one task of a [`fan_out`] does: its accumulator, how two
/// accumulators merge, and the walk over its range.
pub(crate) trait TaskBody: Sync {
    /// Per-task result, reduced across tasks.
    type Acc: Send;
    /// An empty accumulator (the reduction's identity).
    fn new_acc(&self) -> Self::Acc;
    /// Fold `from` into `into`.
    fn merge(&self, into: &mut Self::Acc, from: Self::Acc);
    /// Walk `range` with `kernel`, reporting work to `meter`.
    fn run<K: PairKernel, M: Meter>(
        &self,
        range: Range<usize>,
        acc: &mut Self::Acc,
        kernel: &mut K,
        meter: &mut M,
    ) -> RangeTally;
}

/// Tasks over directed-edge ranges of one workload: [`run_range`].
struct EdgeWalk<'a, W: Workload> {
    g: &'a CsrGraph,
    workload: &'a W,
    shared: &'a W::Shared,
}

impl<W: Workload> TaskBody for EdgeWalk<'_, W> {
    type Acc = W::Accum;

    fn new_acc(&self) -> W::Accum {
        self.workload.new_accum(self.g)
    }

    fn merge(&self, into: &mut W::Accum, from: W::Accum) {
        self.workload.merge(into, from);
    }

    fn run<K: PairKernel, M: Meter>(
        &self,
        range: Range<usize>,
        acc: &mut W::Accum,
        kernel: &mut K,
        meter: &mut M,
    ) -> RangeTally {
        run_range(
            self.g,
            range,
            self.workload,
            self.shared,
            acc,
            kernel,
            meter,
        )
    }
}

/// **The** task fan-out: run every task of `schedule` on the rayon pool
/// (`threads` workers, or the ambient pool), each with a kernel borrowed
/// from `factory` and, when `metered`, its own [`CountingMeter`].
/// Accumulators, work tallies and [`RangeTally`]s are combined with a
/// rayon `map`/`reduce` of task-local values — no lock on the hot path.
///
/// Under an installed [`ObsContext`](cnc_obs::ObsContext) it opens the
/// `workload → kernel → task` spans, records the schedule and driver
/// counters, the reduced tally and (when metered) the merged work.
/// Without one every probe is a no-op and the loop body is identical to
/// the uninstrumented one.
pub(crate) fn fan_out<F: KernelFactory, B: TaskBody>(
    factory: &F,
    body: &B,
    schedule: &Schedule,
    threads: Option<usize>,
    metered: bool,
) -> (B::Acc, WorkCounts) {
    use cnc_obs::Counter as C;
    // Rayon workers do not see the installing thread's context, so capture
    // it (and the id of the "kernel" span) here and hand both to every task.
    let obs = cnc_obs::ObsContext::current();
    let tasks = schedule.tasks();
    // Span nesting is ambient on this thread: "workload" opens under the
    // caller's span, "kernel" under "workload". Declaration order makes
    // them close in reverse.
    let _workload_span = obs.as_ref().map(|ctx| ctx.span("workload"));
    let kernel_span = obs.as_ref().map(|ctx| {
        ctx.add(C::DriverTasks, tasks.len() as u64);
        ctx.add(C::ScheduleTasks, tasks.len() as u64);
        ctx.add(C::ScheduleEstCostMax, schedule.est_cost_max());
        ctx.add(C::ScheduleEstCostMin, schedule.est_cost_min());
        ctx.span("kernel")
    });
    let parent = kernel_span.as_ref().map(|s| s.id());
    let run = || {
        (0..tasks.len())
            .into_par_iter()
            .map(|k| {
                let range = tasks[k].clone();
                let _task_span = obs.as_ref().map(|ctx| {
                    let mut s = ctx.span_under("task", parent);
                    s.set_items(range.len() as u64);
                    s
                });
                let mut kernel = factory.acquire();
                debug_assert!(kernel.is_reset(), "factories must hand out clean kernels");
                let mut acc = body.new_acc();
                let mut meter = CountingMeter::new();
                let tally = if metered {
                    body.run(range, &mut acc, &mut kernel, &mut meter)
                } else {
                    body.run(range, &mut acc, &mut kernel, &mut NullMeter)
                };
                debug_assert!(kernel.is_reset(), "kernels must be returned clean");
                factory.release(kernel);
                (acc, meter.counts, tally)
            })
            .reduce(
                || (body.new_acc(), WorkCounts::default(), RangeTally::default()),
                |mut a, b| {
                    body.merge(&mut a.0, b.0);
                    a.1.merge(&b.1);
                    a.2.accumulate(&b.2);
                    a
                },
            )
    };
    let (acc, work, tally) = crate::with_threads(threads, run);
    if let Some(ctx) = obs.as_ref() {
        ctx.add(C::KernelSourceRebuilds, tally.rebuilds);
        ctx.add(C::WorkloadEdgesVisited, tally.visited);
        ctx.add(C::WorkloadEdgesSkipped, tally.skipped);
        if metered {
            work.record_to(&**ctx);
        }
    }
    (acc, work)
}

/// The platform-side algorithm dispatch: one value selects the kernel for
/// every execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuKernel {
    /// Baseline plain merge (**M**).
    Merge,
    /// Hybrid pivot-skip / vectorized block merge (**MPS**).
    Mps(MpsConfig),
    /// Dynamic bitmap index (**BMP**), optionally range-filtered.
    Bmp(BmpMode),
}

impl CpuKernel {
    /// Check configuration that the type system cannot (the RF ratio).
    pub fn validate(&self) -> Result<(), RfRatioError> {
        match self {
            CpuKernel::Bmp(mode) => mode.validate(),
            _ => Ok(()),
        }
    }

    /// The cost model the balanced scheduler prices this kernel with.
    pub fn cost_model(&self) -> CostModel {
        match self {
            CpuKernel::Merge => CostModel::Merge,
            CpuKernel::Mps(cfg) => CostModel::Mps {
                skew_threshold: cfg.skew_threshold,
            },
            CpuKernel::Bmp(_) => CostModel::Bmp,
        }
    }

    /// **The** execution entry point: run `workload` over all of `g`
    /// (Algorithm 3), decomposed into tasks by `opts.schedule` and run on
    /// `opts.threads` workers. With `metered`, every task reports to its
    /// own [`CountingMeter`] and the merged tallies come back (and are
    /// recorded into the ambient observability context, if any); without
    /// it the loop runs on [`NullMeter`] and `None` comes back.
    ///
    /// [`ParConfig::sequential`] makes this the sequential run: one task
    /// over the whole range, whose metered work is exactly that of a
    /// single [`run_range`] call.
    ///
    /// # Panics
    /// On an invalid RF ratio or clique size — both are validated at plan
    /// time.
    pub fn execute(
        &self,
        g: &CsrGraph,
        workload: WorkloadKind,
        opts: &ParConfig,
        metered: bool,
    ) -> (WorkloadOutput, Option<WorkCounts>) {
        use WorkloadOutput as Out;
        match workload {
            WorkloadKind::Cnc => self.run_workload(&CncWorkload, g, opts, metered, Out::EdgeCounts),
            WorkloadKind::Triangle => {
                self.run_workload(&TriangleWorkload, g, opts, metered, Out::Global)
            }
            WorkloadKind::KClique { k } => {
                let wl = KCliqueWorkload::new(k).expect("clique size validated at plan time");
                let erase = |counts| Out::CliqueCounts { k, counts };
                self.run_workload(&wl, g, opts, metered, erase)
            }
        }
    }

    /// [`execute`](CpuKernel::execute) for one concrete workload, whose
    /// output `erase` wraps into a [`WorkloadOutput`].
    fn run_workload<W: Workload>(
        &self,
        workload: &W,
        g: &CsrGraph,
        opts: &ParConfig,
        metered: bool,
        erase: impl FnOnce(W::Output) -> WorkloadOutput,
    ) -> (WorkloadOutput, Option<WorkCounts>) {
        let shared = workload.new_shared(g);
        // Cost estimates are only worth the O(E) pricing pass when someone
        // is watching (the balanced policy prices sources either way, so
        // its estimates are free).
        let watched = cnc_obs::ObsContext::current().is_some();
        let schedule = Schedule::compute(g, opts.schedule, &self.cost_model(), workload, watched);
        let body = EdgeWalk {
            g,
            workload,
            shared: &shared,
        };
        let pool = KernelPool::new(*self, g.num_vertices());
        let (acc, work) = with_factory!(&pool, |f| fan_out(
            f,
            &body,
            &schedule,
            opts.threads,
            metered
        ));
        (
            erase(workload.finish(g, shared, acc)),
            metered.then_some(work),
        )
    }

    /// Sequential execution of one edge-offset `range` of `g` through
    /// [`run_range`], with caller-owned shared / accumulator state and
    /// meter. This is the shard worker's entry point: the coordinator cuts
    /// the edge range on source boundaries
    /// ([`cut_source_blocks`](crate::cut_source_blocks)) and each worker
    /// process drives exactly its block, so every kernel sees the same
    /// source-aligned ranges a balanced thread schedule would.
    pub fn run_range_workload<W: Workload, M: Meter>(
        &self,
        workload: &W,
        g: &CsrGraph,
        range: Range<usize>,
        shared: &W::Shared,
        acc: &mut W::Accum,
        meter: &mut M,
    ) -> RangeTally {
        let pool = KernelPool::new(*self, g.num_vertices());
        with_factory!(&pool, |f| run_range(
            g,
            range,
            workload,
            shared,
            acc,
            &mut f.acquire(),
            meter
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::SchedulePolicy;
    use cnc_graph::{datasets, generators, reorder, EdgeList};
    use cnc_intersect::SimdLevel;

    /// Independent oracle: brute-force common neighbor counts.
    fn oracle(g: &CsrGraph) -> Vec<u32> {
        let mut cnt = vec![0u32; g.num_directed_edges()];
        for (eid, u, v) in g.iter_edges() {
            cnt[eid] = cnc_intersect::reference_count(g.neighbors(u), g.neighbors(v));
        }
        cnt
    }

    fn kernels(num_vertices: usize) -> [CpuKernel; 4] {
        [
            CpuKernel::Merge,
            CpuKernel::Mps(MpsConfig::default()),
            CpuKernel::Bmp(BmpMode::Plain),
            CpuKernel::Bmp(BmpMode::rf_scaled(num_vertices)),
        ]
    }

    /// Unmetered CNC counts of `kernel` on `g` under `cfg`.
    fn counts(kernel: CpuKernel, g: &CsrGraph, cfg: &ParConfig) -> Vec<u32> {
        let (out, work) = kernel.execute(g, WorkloadKind::Cnc, cfg, false);
        assert_eq!(work, None, "unmetered runs report no work");
        out.into_edge_counts().expect("cnc output")
    }

    /// Metered CNC counts of `kernel` on `g` under `cfg`, with the work.
    fn metered(kernel: CpuKernel, g: &CsrGraph, cfg: &ParConfig) -> (Vec<u32>, WorkCounts) {
        let (out, work) = kernel.execute(g, WorkloadKind::Cnc, cfg, true);
        let work = work.expect("metered runs report work");
        (out.into_edge_counts().expect("cnc output"), work)
    }

    /// The sequential run's counts.
    fn seq(kernel: CpuKernel, g: &CsrGraph) -> Vec<u32> {
        counts(kernel, g, &ParConfig::sequential())
    }

    /// The sequential run's metered work.
    fn seq_work(kernel: CpuKernel, g: &CsrGraph) -> WorkCounts {
        metered(kernel, g, &ParConfig::sequential()).1
    }

    /// `workload` over all of `g` as one direct [`run_range`] call with a
    /// fresh kernel and a [`CountingMeter`].
    fn direct<W: Workload>(
        kernel: CpuKernel,
        g: &CsrGraph,
        workload: &W,
    ) -> (W::Output, WorkCounts) {
        fn go<W: Workload, K: PairKernel>(
            g: &CsrGraph,
            w: &W,
            mut k: K,
        ) -> (W::Output, WorkCounts) {
            let shared = w.new_shared(g);
            let mut acc = w.new_accum(g);
            let mut meter = CountingMeter::new();
            let m = g.num_directed_edges();
            run_range(g, 0..m, w, &shared, &mut acc, &mut k, &mut meter);
            (w.finish(g, shared, acc), meter.counts)
        }
        with_factory!(&KernelPool::new(kernel, g.num_vertices()), |f| go(
            g,
            workload,
            f.acquire()
        ))
    }

    #[test]
    fn sequential_execute_is_one_direct_run_range() {
        // The pin behind the modeled KNL / CPU profiles: a metered
        // sequential execute does exactly the work of one whole-range
        // `run_range`, for every kernel and workload.
        let seq = ParConfig::sequential();
        assert_eq!(seq.schedule, SchedulePolicy::uniform(usize::MAX));
        for g in [
            CsrGraph::from_edge_list(&generators::hub_web(300, 6.0, 3, 0.5, 5)),
            CsrGraph::from_edge_list(&generators::gnm(150, 900, 8)),
        ] {
            for kernel in kernels(g.num_vertices()) {
                let (counts, work) = direct(kernel, &g, &CncWorkload);
                assert_eq!(
                    kernel.execute(&g, WorkloadKind::Cnc, &seq, true),
                    (WorkloadOutput::EdgeCounts(counts), Some(work)),
                    "{kernel:?} cnc"
                );
                let (total, work) = direct(kernel, &g, &TriangleWorkload);
                assert_eq!(
                    kernel.execute(&g, WorkloadKind::Triangle, &seq, true),
                    (WorkloadOutput::Global(total), Some(work)),
                    "{kernel:?} triangle"
                );
                let wl = KCliqueWorkload::new(4).expect("k = 4 is supported");
                let (counts, work) = direct(kernel, &g, &wl);
                assert_eq!(
                    kernel.execute(&g, WorkloadKind::KClique { k: 4 }, &seq, true),
                    (WorkloadOutput::CliqueCounts { k: 4, counts }, Some(work)),
                    "{kernel:?} 4-clique"
                );
            }
        }
    }

    #[test]
    fn every_kernel_every_mode_is_exact() {
        let g = CsrGraph::from_edge_list(&generators::hub_web(250, 5.0, 2, 0.5, 2));
        let want = oracle(&g);
        for cfg in [ParConfig::with_task_size(53), ParConfig::balanced(7)] {
            for kernel in kernels(g.num_vertices()) {
                assert_eq!(seq(kernel, &g), want, "{kernel:?} seq");
                assert_eq!(counts(kernel, &g, &cfg), want, "{kernel:?} par {cfg:?}");
                let (counts, work) = metered(kernel, &g, &cfg);
                assert_eq!(counts, want, "{kernel:?} par_metered {cfg:?}");
                assert!(work.total_ops() > 0, "{kernel:?} reported no work");
            }
        }
    }

    #[test]
    fn seq_and_metered_par_report_identical_work() {
        // Uniform metering: meter_reverse and kernel work are recorded on
        // every path, so for kernels without per-source state the parallel
        // decomposition must not change a single tally.
        let g = CsrGraph::from_edge_list(&generators::chung_lu(200, 9.0, 2.2, 6));
        let kernel = CpuKernel::Mps(MpsConfig::default());
        let seq_counts = seq_work(kernel, &g);
        for cfg in [ParConfig::with_task_size(61), ParConfig::balanced(9)] {
            assert_eq!(metered(kernel, &g, &cfg).1, seq_counts, "{cfg:?}");
        }
        // The same holds at a larger graph and a task size that splits it.
        let g = CsrGraph::from_edge_list(&generators::chung_lu(300, 10.0, 2.2, 4));
        let (_, par_work) = metered(kernel, &g, &ParConfig::with_task_size(4096));
        assert_eq!(par_work, seq_work(kernel, &g));
    }

    #[test]
    fn reverse_index_removes_random_probe_metering() {
        // Acceptance: on a graph carrying the prepared reverse-edge index
        // the mirror store is a streamed O(1) load — the merge kernel does
        // no other random accesses, so the whole tally must show zero.
        let mut g = CsrGraph::from_edge_list(&generators::hub_web(200, 5.0, 2, 0.5, 4));
        let searched = seq_work(CpuKernel::Merge, &g);
        g.build_reverse_index();
        let (counts, indexed) = metered(CpuKernel::Merge, &g, &ParConfig::sequential());
        assert_eq!(counts, oracle(&g));
        assert!(
            searched.rand_accesses > 0,
            "binary-search fallback must meter random probes"
        );
        assert_eq!(
            indexed.rand_accesses, 0,
            "reverse index must eliminate every random probe"
        );
        assert!(indexed.seq_bytes > searched.seq_bytes);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        for g in [
            CsrGraph::from_edge_list(&EdgeList::new(0)),
            CsrGraph::from_edge_list(&EdgeList::new(5)),
        ] {
            for kernel in kernels(g.num_vertices()) {
                assert!(seq(kernel, &g).is_empty());
                assert!(counts(kernel, &g, &ParConfig::default()).is_empty());
            }
        }
    }

    /// Every kernel (and MPS at two SIMD levels, RF at two ratios) must
    /// match the oracle sequentially and under uniform chunks of
    /// `task_size` edges.
    fn check_all_kernels(g: &CsrGraph, task_size: usize) {
        let want = oracle(g);
        let cfg = ParConfig::with_task_size(task_size);
        let mut all = kernels(g.num_vertices()).to_vec();
        all.extend([
            CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Scalar)),
            CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Avx2)),
            CpuKernel::Bmp(BmpMode::rf_default()),
            CpuKernel::Bmp(BmpMode::RangeFiltered { ratio: 64 }),
        ]);
        for kernel in all {
            assert_eq!(seq(kernel, g), want, "{kernel:?} seq");
            assert_eq!(counts(kernel, g, &cfg), want, "{kernel:?} |T|={task_size}");
        }
    }

    #[test]
    fn triangle_counts() {
        // Triangle 0-1-2 plus tail 2-3: each triangle edge has one common
        // neighbor, the tail has none.
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs([(0, 1), (0, 2), (1, 2), (2, 3)]));
        let got = seq(CpuKernel::Merge, &g);
        assert_eq!(got, oracle(&g));
        // Spot-check: edge (0,1) sees common neighbor 2.
        assert_eq!(got[g.edge_offset(0, 1).unwrap()], 1);
        assert_eq!(got[g.edge_offset(2, 3).unwrap()], 0);
    }

    #[test]
    fn complete_graph_counts() {
        let g = CsrGraph::from_edge_list(&generators::complete(8));
        // In K_8 every edge has exactly n-2 = 6 common neighbors.
        assert!(seq(CpuKernel::Bmp(BmpMode::Plain), &g)
            .iter()
            .all(|&c| c == 6));
    }

    #[test]
    fn path_and_star_have_zero_counts() {
        for el in [generators::path(20), generators::star(20)] {
            let g = CsrGraph::from_edge_list(&el);
            let mps = CpuKernel::Mps(MpsConfig::default());
            assert!(seq(mps, &g).iter().all(|&c| c == 0));
        }
    }

    #[test]
    fn all_kernels_agree_on_random_graphs() {
        for seed in 0..4u64 {
            let g = CsrGraph::from_edge_list(&generators::gnm(120, 600, seed));
            check_all_kernels(&g, 97);
        }
        let g = CsrGraph::from_edge_list(&generators::chung_lu(200, 10.0, 2.1, 5));
        check_all_kernels(&g, 64);
        let g = CsrGraph::from_edge_list(&generators::hub_web(150, 6.0, 2, 0.5, 6));
        check_all_kernels(&g, 64);
    }

    #[test]
    fn small_tasks_match_sequential() {
        let g = CsrGraph::from_edge_list(&generators::gnm(100, 500, 3));
        // Tiny tasks stress the cross-task scatter writes and pool churn.
        for t in [1, 3, 17, 100, 10_000] {
            check_all_kernels(&g, t);
        }
    }

    #[test]
    fn kernels_agree_on_skewed_and_reordered_graphs() {
        let g = CsrGraph::from_edge_list(&generators::chung_lu(150, 8.0, 2.2, 9));
        check_all_kernels(&reorder::degree_descending(&g).graph, 64);
        let g = CsrGraph::from_edge_list(&generators::hub_web(300, 6.0, 2, 0.5, 1));
        check_all_kernels(&g, 64);
        check_all_kernels(&reorder::degree_descending(&g).graph, 64);
    }

    #[test]
    fn kernels_agree_on_dataset_analogues() {
        for d in datasets::Dataset::ALL {
            check_all_kernels(&d.build(datasets::Scale::Tiny), 257);
        }
    }

    #[test]
    fn explicit_thread_counts() {
        let g = CsrGraph::from_edge_list(&generators::gnm(80, 300, 5));
        let want = oracle(&g);
        for threads in [1, 2, 4] {
            let cfg = ParConfig {
                schedule: SchedulePolicy::uniform(37),
                threads: Some(threads),
            };
            let bmp = CpuKernel::Bmp(BmpMode::Plain);
            assert_eq!(counts(bmp, &g, &cfg), want, "threads={threads}");
        }
    }

    #[test]
    fn task_size_zero_is_clamped() {
        let g = CsrGraph::from_edge_list(&generators::gnm(20, 40, 6));
        let cfg = ParConfig::with_task_size(0);
        assert_eq!(cfg.schedule, SchedulePolicy::Uniform { task_size: 1 });
        assert_eq!(
            counts(CpuKernel::Mps(MpsConfig::default()), &g, &cfg),
            oracle(&g)
        );
    }

    #[test]
    fn balanced_schedule_matches_sequential() {
        let g = CsrGraph::from_edge_list(&generators::hub_web(300, 6.0, 2, 0.5, 1));
        let want = oracle(&g);
        for tasks in [1, 2, 8, 1_000_000] {
            let cfg = ParConfig::balanced(tasks);
            let mut all = kernels(g.num_vertices()).to_vec();
            all.push(CpuKernel::Bmp(BmpMode::rf_default()));
            for kernel in all {
                assert_eq!(
                    counts(kernel, &g, &cfg),
                    want,
                    "balanced {kernel:?}, {tasks}"
                );
            }
        }
    }

    #[test]
    fn metered_parallel_matches_sequential_counts() {
        let g = CsrGraph::from_edge_list(&generators::hub_web(400, 6.0, 2, 0.4, 7));
        let want = seq(CpuKernel::Merge, &g);
        let cfg = ParConfig::with_task_size(97);
        let (mps_counts, mps_work) = metered(CpuKernel::Mps(MpsConfig::default()), &g, &cfg);
        assert_eq!(mps_counts, want);
        assert!(mps_work.total_ops() > 0);
        let (bmp_counts, bmp_work) = metered(CpuKernel::Bmp(BmpMode::Plain), &g, &cfg);
        assert_eq!(bmp_counts, want);
        assert!(bmp_work.rand_accesses > 0);
        let (rf_counts, _) = metered(CpuKernel::Bmp(BmpMode::rf_scaled(400)), &g, &cfg);
        assert_eq!(rf_counts, want);
    }

    #[test]
    fn bmp_task_boundaries_cost_bounded_reindexing() {
        let g = CsrGraph::from_edge_list(&generators::gnm(200, 2000, 3));
        let bmp = CpuKernel::Bmp(BmpMode::Plain);
        let seq_counts = seq_work(bmp, &g);
        let (_, big_tasks) = metered(bmp, &g, &ParConfig::with_task_size(100_000));
        let (_, tiny_tasks) = metered(bmp, &g, &ParConfig::with_task_size(8));
        // Tiny tasks re-index the same u many times: strictly more writes.
        assert!(tiny_tasks.write_bytes > big_tasks.write_bytes);
        // A single whole-range task does exactly the sequential work.
        let (_, one_task) = metered(bmp, &g, &ParConfig::with_task_size(usize::MAX));
        assert_eq!(one_task, seq_counts);
        // Balanced cuts land on source boundaries, so no source is ever
        // re-indexed: the bitmap writes equal the sequential run's exactly.
        let (_, balanced) = metered(bmp, &g, &ParConfig::balanced(8));
        assert_eq!(balanced.write_bytes, seq_counts.write_bytes);
    }

    #[test]
    fn skew_handling_reduces_metered_work_on_skewed_graph() {
        // A hub-heavy graph: MPS (with pivot-skip) must do far less work
        // than the baseline merge — the essence of Figure 3.
        let g = CsrGraph::from_edge_list(&generators::hub_web(2000, 4.0, 2, 0.6, 3));
        let base = seq_work(CpuKernel::Merge, &g);
        let mps = seq_work(CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Scalar)), &g);
        assert!(
            mps.total_ops() < base.total_ops() / 2,
            "MPS {} vs M {}",
            mps.total_ops(),
            base.total_ops()
        );
    }

    #[test]
    fn bmp_work_is_min_degree_bound_on_reordered_graph() {
        let g = CsrGraph::from_edge_list(&generators::hub_web(2000, 4.0, 2, 0.6, 3));
        let r = reorder::degree_descending(&g);
        let bmp = seq_work(CpuKernel::Bmp(BmpMode::Plain), &r.graph);
        let base = seq_work(CpuKernel::Merge, &r.graph);
        assert!(
            bmp.total_ops() < base.total_ops(),
            "BMP must beat baseline on skewed graphs"
        );
    }

    #[test]
    fn rf_reduces_big_bitmap_traffic_on_uniform_graph() {
        // FR-like regime: near-uniform sparse graph — RF's win case
        // (Figure 6's FR panel).
        let g = CsrGraph::from_edge_list(&generators::gnm(4000, 12_000, 8));
        let r = reorder::degree_descending(&g);
        let plain = seq_work(CpuKernel::Bmp(BmpMode::Plain), &r.graph);
        let rf_mode = BmpMode::rf_scaled(r.graph.num_vertices());
        let rf = seq_work(CpuKernel::Bmp(rf_mode), &r.graph);
        // The paper reports 1.9–2.1× on FR; construction and reverse-offset
        // accesses are incompressible, so require at least a 1.5× reduction.
        assert!(
            rf.rand_accesses * 3 < plain.rand_accesses * 2,
            "RF {} vs plain {}",
            rf.rand_accesses,
            plain.rand_accesses
        );
    }

    #[test]
    fn validate_rejects_bad_rf_ratios() {
        assert!(CpuKernel::Bmp(BmpMode::RangeFiltered { ratio: 0 })
            .validate()
            .is_err());
        assert!(CpuKernel::Bmp(BmpMode::RangeFiltered { ratio: 48 })
            .validate()
            .is_err());
        assert!(CpuKernel::Bmp(BmpMode::rf_default()).validate().is_ok());
        assert!(CpuKernel::Merge.validate().is_ok());
        assert!(BmpMode::range_filtered(100).is_err());
        assert_eq!(
            BmpMode::range_filtered(64),
            Ok(BmpMode::RangeFiltered { ratio: 64 })
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn run_with_bad_ratio_panics_with_clear_message() {
        // Invalid ratios are a plan-construction bug (Plan::validate rejects
        // them); the kernel constructor still refuses to build a broken
        // filter if one slips through.
        let g = CsrGraph::from_edge_list(&generators::gnm(20, 40, 1));
        let _ = counts(
            CpuKernel::Bmp(BmpMode::RangeFiltered { ratio: 3 }),
            &g,
            &ParConfig::default(),
        );
    }
}
