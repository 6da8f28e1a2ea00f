//! Multicore CPU drivers for all-edge common neighbor counting.
//!
//! This crate ports the paper's OpenMP skeleton (Algorithm 3) to rayon:
//! the edge-offset range `[0, |E|)` is decomposed into tasks by a
//! [`SchedulePolicy`] — fixed `|T|`-sized chunks or cost-balanced
//! source-aligned cuts — and idle workers claim the next tasks from a
//! shared cursor, as in `schedule(dynamic, |T|)`. Each task amortizes two
//! pieces of state exactly like the paper's thread-locals:
//!
//! * the previously found source vertex (`FindSrc` stash), and
//! * for BMP, the bitmap index of the current source's neighbor list,
//!   rebuilt only when the source changes.
//!
//! That skeleton is written exactly once — [`run_range`] — and instantiated
//! per algorithm through the `PairKernel` strategies of `cnc-intersect`.
//! [`CpuKernel`] is the platform-side dispatch, and
//! [`CpuKernel::execute`] the one call that runs a workload over a whole
//! graph; its [`ParConfig`] picks the schedule and the worker count, and
//! [`ParConfig::sequential`] makes it a single task run inline:
//!
//! | `CpuKernel` | paper name | kernel |
//! |-------------|------------|--------|
//! | `Merge` | **M** | plain merge |
//! | `Mps(cfg)` | **MPS** | hybrid VB / pivot-skip |
//! | `Bmp(mode)` | **BMP** (+**RF**) | dynamic bitmap index |
//!
//! Besides `execute`, three calls reach the loop: [`run_range`] itself,
//! [`CpuKernel::run_range_workload`] (one range with caller-owned state,
//! for shard workers) and [`BatchCounter::count_pairs`] (source-grouped
//! point-query batches, for the serve layer).
//!
//! CNC returns one `u32` count per *directed* edge slot of the CSR
//! (`cnt[e(u,v)]` for every `(u,v)`), with the symmetric assignment
//! technique applied: only `u < v` pairs are intersected and the result is
//! mirrored to `e(v,u)`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod batch;
mod driver;
mod pool;
mod schedule;

pub use batch::BatchCounter;
pub use driver::{run_range, BmpMode, CpuKernel, RangeTally};
pub use pool::{BitmapPool, PoolStats};
pub use schedule::{
    cut_source_blocks, ParConfig, RangeBlock, Schedule, SchedulePolicy, DEFAULT_TASK_SIZE,
};
// The workload descriptor and output of `CpuKernel::execute`'s signature.
pub use cnc_workload::{WorkloadKind, WorkloadOutput};

/// Run a closure on a dedicated rayon pool with `threads` workers.
///
/// Used by the task fan-out for `ParConfig::threads`; `None` uses the
/// global pool.
pub(crate) fn with_threads<R: Send>(threads: Option<usize>, f: impl FnOnce() -> R + Send) -> R {
    match threads {
        None => f(),
        Some(t) => rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .expect("failed to build rayon pool")
            .install(f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_runs_closure() {
        assert_eq!(with_threads(None, || 41 + 1), 42);
        assert_eq!(with_threads(Some(2), rayon::current_num_threads), 2);
    }
}
