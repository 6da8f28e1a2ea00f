//! The traced run: times the public call into each crate on the
//! workload's own input and kernel, records every call as a span, and
//! reports the per-layer metrics. End-to-end metrics never come from here.
//!
//! | layer (crate) | calls timed |
//! |---|---|
//! | cnc-graph | `prepare::map_prepared`, `stream::prepare_file` |
//! | cnc-core | `Runner::plan`, `Backend::execute`, `remap::counts_to_original`, `BatchSession::count_batch` |
//! | cnc-cpu | `CpuSeqBackend` vs the parallel backend, `Schedule::compute` + `CpuKernel::run_range_workload` per task |
//! | cnc-intersect | the metered run's `WorkCounts`; sequential execute per SIMD tier (separate processes) |
//! | cnc-serve | the wire protocol under an open-loop flood, and its `stats` reply |
//! | cnc-shard | `run_sharded`, and each `cut_source_blocks` block alone |

use std::cell::RefCell;
use std::fmt::Write as _;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cnc_core::remap::counts_to_original;
use cnc_core::{Algorithm, Backend, BatchSession, CpuSeqBackend, Plan, Platform, Runner};
use cnc_cpu::{cut_source_blocks, ParConfig, Schedule};
use cnc_graph::prepare::map_prepared;
use cnc_graph::stream::{prepare_file, StreamConfig};
use cnc_graph::{CsrGraph, PreparedGraph};
use cnc_intersect::{CostModel, NullMeter};
use cnc_obs::{Counter, ObsContext};
use cnc_shard::{run_sharded, ShardConfig};
use cnc_workload::{CncWorkload, Workload};

use crate::child::bmp_runner;
use crate::inputs::STREAM_BUDGET;
use crate::oracle::mismatches;
use crate::report::{json_str, median, rank_correlation, Outcome};
use crate::serve;
use crate::workloads::{run_program, Ctx};

/// Queries replayed through `BatchSession::count_batch`.
const REPLAY_QUERIES: usize = 4000;

/// One recorded call: name, start and duration since the run began, and
/// the span that was open when it started.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u128,
    dur_ns: u128,
}

/// In-memory span recorder, written out once when the run ends.
struct Spans {
    t0: Instant,
    done: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Spans {
    fn new() -> Self {
        Self {
            t0: Instant::now(),
            done: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Run `f` as span `name` (nested under the innermost open span) and
    /// return its result with its duration in seconds.
    fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = {
            let mut done = self.done.borrow_mut();
            done.push(Span {
                name,
                parent: self.open.borrow().last().copied(),
                start_ns: self.t0.elapsed().as_nanos(),
                dur_ns: 0,
            });
            done.len() - 1
        };
        self.open.borrow_mut().push(id);
        let t = Instant::now();
        let value = f();
        let secs = t.elapsed().as_secs_f64();
        self.open.borrow_mut().pop();
        self.done.borrow_mut()[id].dur_ns = (secs * 1e9) as u128;
        (value, secs)
    }

    fn to_json(&self) -> String {
        let mut s = String::from("[");
        for (i, sp) in self.done.borrow().iter().enumerate() {
            if i > 0 {
                s.push_str(",\n ");
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\": {i}, \"parent\": {parent}, \"name\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
                json_str(sp.name),
                sp.start_ns,
                sp.dur_ns
            );
        }
        s.push(']');
        s
    }
}

/// The workload's parallel counting runner.
fn runner(ctx: &Ctx) -> Runner {
    if ctx.args.workload.bmp() {
        bmp_runner(ctx.args.threads)
    } else {
        let cfg = ParConfig {
            threads: Some(ctx.args.threads),
            ..ParConfig::default()
        };
        Runner::new(Platform::CpuParallel(cfg), Algorithm::mps())
    }
}

/// The remap step exactly as a run applies it: only when the plan
/// reorders and the preparation holds relabel tables.
fn remap(pg: &PreparedGraph, plan: &Plan, counts: Vec<u32>) -> Vec<u32> {
    match pg.reordered() {
        Some(r) if plan.reorder => counts_to_original(pg.graph(), r, &counts),
        _ => counts,
    }
}

fn load(path: &Path) -> Result<PreparedGraph, String> {
    map_prepared(path).map_err(|e| format!("cannot load {}: {e}", path.display()))
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let spans = Spans::new();
    let a = ctx.args;
    let pg = &ctx.pg;
    let want = &ctx.oracle.counts;
    let check = |counts: &[u32], out: &mut Outcome| {
        out.tally(1, u64::from(mismatches(counts, want) > 0 || a.flip));
    };

    // cnc-graph: warm load and budgeted stream prepare.
    let mut load_s = Vec::new();
    for _ in 0..3 {
        let (r, secs) = spans.time("cnc-graph/map_prepared", || load(&ctx.input.prep));
        r?;
        load_s.push(secs);
    }
    out.metric("graph.load_s", median(&load_s), "s");
    let traced_prep = ctx.dir().join("traced.prep");
    let cfg = StreamConfig {
        mem_budget: Some(STREAM_BUDGET),
        spill_dir: Some(ctx.dir().to_path_buf()),
    };
    let (summary, prep_s) = spans.time("cnc-graph/stream::prepare_file", || {
        prepare_file(&ctx.input.source, &traced_prep, ctx.input.policy, &cfg)
    });
    let summary = summary.map_err(|e| format!("stream prepare failed: {e}"))?;
    let same = std::fs::read(&traced_prep).ok() == std::fs::read(&ctx.input.prep).ok();
    out.tally(1, u64::from(!same));
    let _ = std::fs::remove_file(&traced_prep);
    let und_edges = (summary.num_directed_edges / 2).max(1) as f64;
    out.metric("graph.stream_prepare_s", prep_s, "s");
    out.metric("graph.spill_runs", summary.spill_runs as f64, "count");
    out.metric(
        "graph.spill_bytes_per_edge",
        summary.spill_bytes as f64 / und_edges,
        "B/edge",
    );
    out.metric(
        "graph.peak_resident_mb",
        summary.peak_resident_bytes as f64 / 1048576.0,
        "MB",
    );

    // cnc-core: plan, execute, remap — each timed on its own.
    let runner = runner(ctx);
    let (plan, _) = spans.time("cnc-core/Runner::plan", || runner.plan(pg));
    let plan = plan.map_err(|e| e.to_string())?;
    let backend = runner.backend();
    let (mut exec_s, mut remap_s) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let (exec, secs) = spans.time("cnc-core/Backend::execute", || backend.execute(pg, &plan));
        exec_s.push(secs);
        let counts = exec.output.into_edge_counts().ok_or("no edge counts")?;
        let (counts, secs) = spans.time("cnc-core/remap::counts_to_original", || {
            remap(pg, &plan, counts)
        });
        remap_s.push(secs);
        check(&counts, out);
    }
    let (execute_s, remap_s) = (median(&exec_s), median(&remap_s));
    out.metric("core.execute_s", execute_s, "s");
    out.metric("core.remap_s", remap_s, "s");
    out.metric("core.remap_share", remap_s / (execute_s + remap_s), "ratio");

    // cnc-cpu: the same plan executed sequentially.
    let (exec, seq_s) = spans.time("cnc-cpu/CpuSeqBackend::execute", || {
        CpuSeqBackend.execute(pg, &plan)
    });
    let counts = exec.output.into_edge_counts().ok_or("no edge counts")?;
    check(&remap(pg, &plan, counts), out);
    out.metric("cpu.execute_seq_s", seq_s, "s");
    out.metric("cpu.par_speedup", seq_s / execute_s, "ratio");

    // cnc-cpu schedule: every task of the plan's schedule timed alone.
    let g = pg.execution_graph(plan.reorder);
    let model = plan.cpu_kernel.cost_model();
    let policy = plan.partitioning.unwrap_or_default().schedule;
    let (sched, _) = spans.time("cnc-cpu/Schedule::compute", || {
        Schedule::compute(g, policy, &model, &CncWorkload, false)
    });
    let tasks = sched.tasks();
    let task_s = spans
        .time("cnc-cpu/run_range_workload per task", || {
            let shared = CncWorkload.new_shared(g);
            tasks
                .iter()
                .map(|r| time_range(&plan, g, r.clone(), &shared))
                .collect::<Vec<f64>>()
        })
        .0;
    let est: Vec<f64> = tasks
        .iter()
        .map(|r| estimate(g, &model, r.clone()))
        .collect();
    out.metric(
        "cpu.split_imbalance",
        split_imbalance(&task_s, a.threads),
        "ratio",
    );
    out.metric("schedule.tasks", tasks.len() as f64, "count");
    out.metric(
        "schedule.cost_rank_corr",
        rank_correlation(&est, &task_s),
        "ratio",
    );

    // cnc-intersect: exact work of one metered (observed) run.
    let obs = Arc::new(ObsContext::new());
    let (metered, _) = spans.time("cnc-core/Runner::try_run_prepared (metered)", || {
        let _installed = obs.install();
        runner.try_run_prepared(pg)
    });
    let metered = metered.map_err(|e| e.to_string())?;
    check(metered.counts(), out);
    let work = metered.stats.work.unwrap_or_default();
    let m = g.num_directed_edges().max(1) as f64;
    out.metric("kernel.intersections", work.intersections as f64, "count");
    out.metric(
        "kernel.ns_per_intersection",
        execute_s * 1e9 / work.intersections.max(1) as f64,
        "ns",
    );
    out.metric(
        "kernel.rand_accesses_per_edge",
        work.rand_accesses as f64 / m,
        "count/edge",
    );
    out.metric(
        "kernel.seq_bytes_per_edge",
        work.seq_bytes as f64 / m,
        "B/edge",
    );
    out.metric(
        "kernel.source_rebuilds",
        metered.report.counter(Counter::KernelSourceRebuilds) as f64,
        "count",
    );
    out.metric(
        "kernel.simd_blocks_per_edge",
        work.simd_blocks as f64 / m,
        "count/edge",
    );

    // cnc-intersect SIMD tiers: sequential execute in separate processes.
    let tier = |scalar: bool| -> Result<f64, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = crate::sys::command(exe);
        cmd.arg("child")
            .arg("tier")
            .arg("--prep")
            .arg(&ctx.input.prep);
        cmd.args(["--algo", a.workload.algo()]);
        if scalar {
            cmd.env("CNC_SIMD", "scalar");
        } else {
            cmd.env_remove("CNC_SIMD");
        }
        let map = run_program(&mut cmd)?;
        Ok(median(
            map.get("seq_s").ok_or("tier process reported no time")?,
        ))
    };
    let (scalar_s, _) = spans.time("cnc-intersect/seq execute @scalar", || tier(true));
    let (native_s, _) = spans.time("cnc-intersect/seq execute @native", || tier(false));
    out.metric("intersect.simd_speedup", scalar_s? / native_s?, "ratio");

    // cnc-serve: a daemon under an open-loop flood, then the ladder.
    let (batch_mean, _) = spans.time("cnc-serve/flood + ladder", || serve::measure(ctx, out));
    let batch_mean = batch_mean?;

    // cnc-core batch: count_batch replayed at the flood's batch size.
    let session = BatchSession::new(
        Runner::new(Platform::cpu_parallel(), runner.algorithm()),
        Arc::new(load(&ctx.input.prep)?),
    )
    .map_err(|e| e.to_string())?;
    let size = (batch_mean.round() as usize).max(1);
    let (wrong, replay_s) = spans.time("cnc-core/BatchSession::count_batch", || {
        let mut wrong = 0u64;
        for batch in ctx.queries[..REPLAY_QUERIES].chunks(size) {
            let pairs: Vec<(u32, u32)> = batch.iter().map(|q| (q.u, q.v)).collect();
            let answers = session.count_batch(&pairs).answers;
            wrong += batch
                .iter()
                .zip(&answers)
                .filter(|(q, got)| q.want != **got)
                .count() as u64;
        }
        wrong
    });
    out.tally(REPLAY_QUERIES as u64, wrong);
    out.metric(
        "core.batch_us_per_query",
        replay_s * 1e6 / REPLAY_QUERIES as f64,
        "us",
    );

    // Tracing overhead: whole counts with and without an observer,
    // alternated. The untraced ones also price the in-process count the
    // sharded one is compared with.
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let (r, secs) = spans.time("cnc-core/Runner::try_run_prepared", || {
            runner.try_run_prepared(pg)
        });
        check(r.map_err(|e| e.to_string())?.counts(), out);
        plain_s.push(secs);
        let ctx_obs = Arc::new(ObsContext::new());
        let (r, secs) = spans.time("cnc-core/Runner::try_run_prepared (observed)", || {
            let _installed = ctx_obs.install();
            runner.try_run_prepared(pg)
        });
        check(r.map_err(|e| e.to_string())?.counts(), out);
        traced_s.push(secs);
    }
    let count_s = median(&plain_s);
    out.metric(
        "trace.overhead_share",
        median(&traced_s) / count_s - 1.0,
        "ratio",
    );

    // cnc-shard: the sharded count, and each block alone.
    let shard_cfg = ShardConfig {
        workers: a.threads,
        algorithm: runner.algorithm(),
        reorder: None,
        worker_exe: a.cnc.clone(),
        prep_path: ctx.input.prep.clone(),
        fail_spec: None,
    };
    let (mut shard_s, mut failures, mut cost_ratio) = (Vec::new(), 0u64, f64::NAN);
    for _ in 0..2 {
        let (r, secs) = spans.time("cnc-shard/run_sharded", || run_sharded(pg, &shard_cfg));
        let r = r.map_err(|e| e.to_string())?;
        check(&r.counts, out);
        failures += r.worker_failures;
        cost_ratio = r.range_cost_max as f64 / r.range_cost_min.max(1) as f64;
        shard_s.push(secs);
    }
    out.tally(0, failures);
    let blocks = cut_source_blocks(g, &model, &CncWorkload, a.threads);
    let block_s = spans
        .time("cnc-shard/blocks alone", || {
            let shared = CncWorkload.new_shared(g);
            blocks
                .iter()
                .map(|b| time_range(&plan, g, b.range.clone(), &shared))
                .collect::<Vec<f64>>()
        })
        .0;
    let (bmax, bmin) = block_s
        .iter()
        .fold((0.0f64, f64::INFINITY), |(hi, lo), &t| {
            (hi.max(t), lo.min(t))
        });
    out.metric("shard.speedup", count_s / median(&shard_s), "ratio");
    out.metric("shard.range_cost_ratio", cost_ratio, "ratio");
    out.metric("shard.block_time_ratio", bmax / bmin, "ratio");
    out.metric("shard.worker_failures", failures as f64, "count");

    std::fs::create_dir_all(&a.trace_dir).map_err(|e| e.to_string())?;
    let path = a
        .trace_dir
        .join(format!("{}-seed{}.json", a.workload.name(), a.seed));
    std::fs::write(&path, spans.to_json()).map_err(|e| e.to_string())?;
    out.info_str("trace_file", &path.display().to_string());
    out.info_num("replay_batch_size", size);
    Ok(())
}

/// Sequential time of one edge range through the plan's kernel.
fn time_range(
    plan: &Plan,
    g: &CsrGraph,
    range: Range<usize>,
    shared: &<CncWorkload as Workload>::Shared,
) -> f64 {
    let acc = &mut CncWorkload.new_accum(g);
    let t = Instant::now();
    plan.cpu_kernel
        .run_range_workload(&CncWorkload, g, range, shared, acc, &mut NullMeter);
    t.elapsed().as_secs_f64()
}

/// The cost model's estimate of one edge range, priced the way the
/// scheduler prices sources: one unit per edge, the pair cost of every
/// counted pair, and the source cost once per source that has one.
fn estimate(g: &CsrGraph, model: &CostModel, range: Range<usize>) -> f64 {
    let offsets = g.offsets();
    let dst = g.dst();
    let mut u = (offsets.partition_point(|&o| o <= range.start) - 1) as u32;
    let mut priced = None;
    let mut cost = 0u64;
    for e in range {
        while offsets[u as usize + 1] <= e {
            u += 1;
        }
        cost += 1;
        let v = dst[e];
        if v > u && CncWorkload.covers(g, u, v) {
            cost += CncWorkload.pair_cost(model, g, u, v);
            if priced != Some(u) {
                cost += CncWorkload.source_cost(model, g, u);
                priced = Some(u);
            }
        }
    }
    cost as f64
}

/// Busiest thread over the mean thread, with the tasks handed out the way
/// the rayon shim hands them out: one contiguous run of
/// `ceil(tasks / threads)` tasks per thread.
fn split_imbalance(task_s: &[f64], threads: usize) -> f64 {
    if task_s.is_empty() {
        return 1.0;
    }
    let per = task_s.len().div_ceil(threads.clamp(1, task_s.len()));
    let loads: Vec<f64> = task_s.chunks(per).map(|c| c.iter().sum()).collect();
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    loads.iter().copied().fold(0.0, f64::max) / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_follows_contiguous_chunks() {
        // Two threads: [3, 1] and [1, 1] → loads 4 and 2, mean 3.
        assert!((split_imbalance(&[3.0, 1.0, 1.0, 1.0], 2) - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(split_imbalance(&[1.0, 1.0], 2), 1.0);
    }

    #[test]
    fn spans_nest_under_the_open_span() {
        let spans = Spans::new();
        let ((), _) = spans.time("outer", || {
            spans.time("inner", || ());
        });
        let json = spans.to_json();
        assert!(
            json.contains("\"id\": 1, \"parent\": 0, \"name\": \"inner\""),
            "{json}"
        );
        assert!(
            json.contains("\"id\": 0, \"parent\": null, \"name\": \"outer\""),
            "{json}"
        );
    }
}
