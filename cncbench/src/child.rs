//! The program under test, run as separate processes so that their peak
//! memory is measured apart from the harness (which holds the generator's
//! and the oracle's state). Each mode prints `key value...` lines on
//! standard output for the harness to parse.
//!
//! * `child count` — warm-load the `.prep` image several times, then run
//!   whole BMP counts through `Runner::try_run_prepared` for the measuring
//!   time, checking each against the oracle file outside the timed region.
//! * `child shard` — the same loop through `cnc_shard::run_sharded` with
//!   `cnc shard-worker` processes.
//! * `child tier` — sequential execute of the workload's plan at whatever
//!   SIMD tier `CNC_SIMD` selects (the traced run's tier comparison).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cnc_core::{Algorithm, Backend, CpuSeqBackend, Platform, Runner};
use cnc_cpu::ParConfig;
use cnc_graph::{prepare::map_prepared, PreparedGraph};
use cnc_shard::{run_sharded, ShardConfig};

use crate::oracle::{flip_one, mismatches_file};
use crate::sys;
use crate::workloads::SETUPS;
use crate::Args;

/// Timed sequential executes per SIMD tier.
const TIER_REPS: usize = 2;

fn load(path: &Path) -> Result<PreparedGraph, String> {
    map_prepared(path).map_err(|e| format!("cannot load {}: {e}", path.display()))
}

fn emit(key: &str, xs: &[f64]) {
    let vals: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    println!("{key} {}", vals.join(" "));
}

/// The parallel runner of the timed BMP path.
pub fn bmp_runner(threads: usize) -> Runner {
    let cfg = ParConfig {
        threads: Some(threads),
        ..ParConfig::default()
    };
    Runner::new(Platform::CpuParallel(cfg), Algorithm::bmp_rf())
}

pub fn main(args: &mut Args) -> Result<(), String> {
    let mode = args.positional()?;
    let prep = PathBuf::from(args.value("--prep")?);
    match mode.as_str() {
        "count" => {
            let oracle = PathBuf::from(args.value("--oracle")?);
            let seconds: f64 = args.parse("--seconds")?;
            let threads: usize = args.parse("--threads")?;
            let flip = args.flag("--flip-one-count");
            let mut load_s = Vec::new();
            let mut pg = None;
            for _ in 0..SETUPS {
                let t = Instant::now();
                let g = load(&prep)?;
                load_s.push(t.elapsed().as_secs_f64());
                pg = Some(g);
            }
            let pg = pg.ok_or("no load")?;
            let runner = bmp_runner(threads);
            let run = || runner.try_run_prepared(&pg).map(|r| r.into_counts());
            let samples = timed_loop(seconds, flip, &oracle, run)?;
            emit("load_s", &load_s);
            samples.emit();
        }
        "shard" => {
            let oracle = PathBuf::from(args.value("--oracle")?);
            let seconds: f64 = args.parse("--seconds")?;
            let workers: usize = args.parse("--workers")?;
            let cnc = PathBuf::from(args.value("--cnc")?);
            let flip = args.flag("--flip-one-count");
            let pg = load(&prep)?;
            let cfg = ShardConfig {
                workers,
                algorithm: Algorithm::mps(),
                reorder: None,
                worker_exe: cnc,
                prep_path: prep,
                fail_spec: None,
            };
            let failures = std::cell::Cell::new(0u64);
            let run = || {
                run_sharded(&pg, &cfg).map(|out| {
                    failures.set(failures.get() + out.worker_failures);
                    out.counts
                })
            };
            let samples = timed_loop(seconds, flip, &oracle, run)?;
            samples.emit();
            emit("worker_failures", &[failures.get() as f64]);
        }
        "tier" => {
            let algo = match args.value("--algo")?.as_str() {
                "mps" => Algorithm::mps(),
                _ => Algorithm::bmp_rf(),
            };
            let pg = load(&prep)?;
            let runner = Runner::new(Platform::CpuSequential, algo);
            let plan = runner.plan(&pg).map_err(|e| e.to_string())?;
            // One untimed pass faults the mapping in.
            CpuSeqBackend.execute(&pg, &plan);
            let mut secs = Vec::new();
            for _ in 0..TIER_REPS {
                let t = Instant::now();
                CpuSeqBackend.execute(&pg, &plan);
                secs.push(t.elapsed().as_secs_f64());
            }
            println!("tier {}", cnc_intersect::SimdTier::resolve().label());
            emit("seq_s", &secs);
        }
        other => return Err(format!("unknown child mode {other:?}")),
    }
    Ok(())
}

/// Timed whole-count samples with their checked outcomes.
struct Samples {
    count_s: Vec<f64>,
    /// Peak resident set (MiB) of this process and its reaped workers
    /// through the loads and the warm-up count.
    first_peak_mb: f64,
    attempted: u64,
    failed: u64,
}

impl Samples {
    fn emit(&self) {
        emit("count_s", &self.count_s);
        emit("peak_rss_mb", &[self.first_peak_mb]);
        emit("attempted", &[self.attempted as f64]);
        emit("failed", &[self.failed as f64]);
    }
}

/// One untimed warm-up count, then counts until `seconds` have passed
/// (at least three). Every result is compared with the oracle after its
/// clock stops; an error or a wrong count is a failed operation.
///
/// The peak memory is taken after the warm-up count, the first in this
/// process: later counts reuse freed heap that the allocator keeps, and
/// how far that ratchets up depends on how many counts the run time
/// allows, not on what one count needs.
fn timed_loop<E: std::fmt::Display>(
    seconds: f64,
    flip: bool,
    oracle: &Path,
    mut run: impl FnMut() -> Result<Vec<u32>, E>,
) -> Result<Samples, String> {
    let mut s = Samples {
        count_s: Vec::new(),
        first_peak_mb: 0.0,
        attempted: 0,
        failed: 0,
    };
    let check = |result: Result<Vec<u32>, E>, s: &mut Samples| {
        s.attempted += 1;
        match result {
            Ok(mut counts) => {
                if flip {
                    flip_one(&mut counts, s.attempted as usize);
                }
                match mismatches_file(&counts, oracle) {
                    Ok(0) => {}
                    Ok(_) => s.failed += 1,
                    Err(e) => {
                        eprintln!("cncbench: cannot read the oracle: {e}");
                        s.failed += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("cncbench: count failed: {e}");
                s.failed += 1;
            }
        }
    };
    check(run(), &mut s);
    s.first_peak_mb = sys::self_peak_rss_mb().max(sys::children_peak_rss_mb());
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while s.count_s.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        let result = run();
        s.count_s.push(t.elapsed().as_secs_f64());
        check(result, &mut s);
    }
    Ok(s)
}
