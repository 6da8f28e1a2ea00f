//! The workloads: shared set-up (inputs and oracle) and the untraced
//! end-to-end measurements.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use cnc_graph::prepare::map_prepared;
use cnc_graph::PreparedGraph;

use crate::flood::{make_queries, Query};
use crate::inputs::{self, Input, STREAM_BUDGET};
use crate::oracle::{self, Oracle};
use crate::report::{median, Outcome};
use crate::{RunArgs, Workload};

/// Repeated set-ups per run (the reported set-up time is their median).
pub const SETUPS: usize = 5;

/// Everything a run shares between its untraced and traced forms.
pub struct Ctx<'a> {
    pub args: &'a RunArgs,
    pub input: Input,
    pub pg: PreparedGraph,
    pub oracle: Oracle,
    pub oracle_path: PathBuf,
    pub queries: Vec<Query>,
}

impl Ctx<'_> {
    pub fn dir(&self) -> &Path {
        &self.args.work
    }

    /// A point query the daemon must answer, for its set-up probe.
    pub fn probe(&self) -> (u32, u32, u32) {
        let q = self
            .queries
            .iter()
            .find(|q| q.want.is_some())
            .copied()
            .unwrap_or(self.queries[0]);
        (q.u, q.v, q.want.unwrap_or(0))
    }
}

/// Generate the inputs, compute the oracle, and record the input sizes.
fn setup<'a>(args: &'a RunArgs, out: &mut Outcome) -> Result<Ctx<'a>, String> {
    let dir = &args.work;
    let io = |e: std::io::Error| format!("input generation failed: {e}");
    let input = match args.workload {
        Workload::SkewedBmp => inputs::hub_web(dir, args.seed).map_err(io)?,
        Workload::StreamShardMps => inputs::power_law(dir, args.seed).map_err(io)?,
    };
    let pg = map_prepared(&input.prep).map_err(|e| format!("cannot load input: {e}"))?;
    let oracle = oracle::compute(&pg, args.workload.bmp())?;
    out.oracle_ok = oracle.consistent();
    if !out.oracle_ok {
        eprintln!("cncbench: oracle violates sum(cnt) = 6 x triangles");
    }
    let oracle_path = dir.join("oracle.cnt");
    oracle::write_counts(&oracle_path, &oracle.counts).map_err(|e| e.to_string())?;
    let queries = make_queries(pg.graph(), &oracle.counts, 50_000, args.seed);
    out.info_str("workload", args.workload.name());
    out.info_num("seed", args.seed);
    out.info_str("trace", if args.trace { "1" } else { "0" });
    out.info_raw("host", args.host_json.clone());
    out.info_str("simd_tier", cnc_intersect::SimdTier::resolve().label());
    out.info_num("threads", args.threads);
    inputs::describe(&pg, &input, out);
    out.info_num("triangles", oracle.triangles);
    Ok(Ctx {
        args,
        input,
        pg,
        oracle,
        oracle_path,
        queries,
    })
}

/// Run the selected workload, untraced or traced.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ctx = setup(args, &mut out)?;
    if args.trace {
        crate::trace::run(&ctx, &mut out)?;
    } else {
        match args.workload {
            Workload::SkewedBmp => skewed_bmp(&ctx, &mut out)?,
            Workload::StreamShardMps => stream_shard_mps(&ctx, &mut out)?,
        }
    }
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.info_num("failed_frac", frac);
    Ok(out)
}

/// Run one `cncbench child ...` program process and parse its
/// `key value...` lines.
pub fn child(args: &[String]) -> Result<HashMap<String, Vec<f64>>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    run_program(crate::sys::command(exe).arg("child").args(args))
}

pub fn run_program(cmd: &mut Command) -> Result<HashMap<String, Vec<f64>>, String> {
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start program process: {e}"))?;
    if !output.status.success() {
        return Err(format!("program process exited with {}", output.status));
    }
    let mut map = HashMap::new();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let mut words = line.split_whitespace();
        if let Some(key) = words.next() {
            let vals: Vec<f64> = words.filter_map(|w| w.parse().ok()).collect();
            map.insert(key.to_string(), vals);
        }
    }
    Ok(map)
}

fn one(map: &HashMap<String, Vec<f64>>, key: &str) -> Result<Vec<f64>, String> {
    map.get(key)
        .cloned()
        .ok_or_else(|| format!("program process reported no {key}"))
}

fn path_arg(p: &Path) -> String {
    p.display().to_string()
}

/// Fold a program process's checked count loop into the run. The run's
/// peak memory is the larger of the count process's (through its first
/// count) and that of every program process reaped before it started
/// (`earlier_peak_mb`).
fn count_loop(
    map: &HashMap<String, Vec<f64>>,
    earlier_peak_mb: f64,
    out: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let peak = one(map, "peak_rss_mb")?.first().copied().unwrap_or(0.0);
    out.metric("peak_rss_mb", peak.max(earlier_peak_mb), "MB");
    let attempted = one(map, "attempted")?.first().copied().unwrap_or(0.0) as u64;
    let failed = one(map, "failed")?.first().copied().unwrap_or(0.0) as u64;
    out.tally(attempted, failed);
    let counts = one(map, "count_s")?;
    out.info_num("count_samples", counts.len());
    Ok(counts)
}

fn flip_arg(ctx: &Ctx) -> Vec<String> {
    if ctx.args.flip {
        vec!["--flip-one-count".into()]
    } else {
        Vec::new()
    }
}

/// Warm `.prep` loads, then repeated whole BMP counts on all cores.
fn skewed_bmp(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let a = ctx.args;
    let mut argv: Vec<String> = vec![
        "count".into(),
        "--prep".into(),
        path_arg(&ctx.input.prep),
        "--oracle".into(),
        path_arg(&ctx.oracle_path),
        "--seconds".into(),
        a.seconds.to_string(),
        "--threads".into(),
        a.threads.to_string(),
    ];
    argv.extend(flip_arg(ctx));
    let earlier_peak_mb = crate::sys::children_peak_rss_mb();
    let map = child(&argv)?;
    let loads = one(&map, "load_s")?;
    out.info_num("setup_samples", loads.len());
    out.metric("setup_s", median(&loads), "s");
    let counts = count_loop(&map, earlier_peak_mb, out)?;
    out.metric("count_s", median(&counts), "s");
    Ok(())
}

/// Cold budgeted stream prepares through `cnc prepare`, then sharded MPS
/// counts over the freshly prepared image.
fn stream_shard_mps(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let a = ctx.args;
    let reference = std::fs::read(&ctx.input.prep).map_err(|e| e.to_string())?;
    let prep = ctx.dir().join("cold.prep");
    let mut setup_s = Vec::new();
    for _ in 0..SETUPS {
        let _ = std::fs::remove_file(&prep);
        let t = Instant::now();
        let status = crate::sys::command(&a.cnc)
            .arg("prepare")
            .arg(&ctx.input.source)
            .arg("--out")
            .arg(&prep)
            .args([
                "--mem-budget",
                &STREAM_BUDGET.to_string(),
                "--reorder",
                "none",
            ])
            .arg("--spill-dir")
            .arg(ctx.dir())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cnc prepare: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        // The spilling build must reproduce the unspilled reference image.
        let same = std::fs::read(&prep)
            .map(|b| b == reference)
            .unwrap_or(false);
        out.tally(1, u64::from(!(status.success() && same)));
    }
    out.info_num("setup_samples", setup_s.len());
    out.metric("setup_s", median(&setup_s), "s");
    let mut argv: Vec<String> = vec![
        "shard".into(),
        "--prep".into(),
        path_arg(&prep),
        "--oracle".into(),
        path_arg(&ctx.oracle_path),
        "--seconds".into(),
        a.seconds.to_string(),
        "--workers".into(),
        a.threads.to_string(),
        "--cnc".into(),
        path_arg(&a.cnc),
    ];
    argv.extend(flip_arg(ctx));
    // The cold prepares are the only program processes reaped so far.
    let earlier_peak_mb = crate::sys::children_peak_rss_mb();
    let map = child(&argv)?;
    let counts = count_loop(&map, earlier_peak_mb, out)?;
    out.metric("count_s", median(&counts), "s");
    let lost = one(&map, "worker_failures")?
        .first()
        .copied()
        .unwrap_or(0.0) as u64;
    out.tally(0, lost);
    out.info_num("shard_worker_failures", lost);
    Ok(())
}
