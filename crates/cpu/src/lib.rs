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
//! That skeleton is written exactly once — [`run_range`], wrapped by the
//! generic [`EdgeRangeDriver`] — and instantiated per algorithm through the
//! `PairKernel` strategies of `cnc-intersect`. [`CpuKernel`] is the
//! platform-side dispatch; the named drivers are thin wrappers over it,
//! provided in sequential and parallel forms:
//!
//! | driver | paper name | kernel |
//! |--------|------------|--------|
//! | [`seq_merge_baseline`] / [`par_merge_baseline`] | **M** | plain merge |
//! | [`seq_mps`] / [`par_mps`] | **MPS** | hybrid VB / pivot-skip |
//! | [`seq_bmp`] / [`par_bmp`] | **BMP** (+**RF**) | dynamic bitmap index |
//!
//! All drivers return one `u32` count per *directed* edge slot of the CSR
//! (`cnt[e(u,v)]` for every `(u,v)`), with the symmetric assignment
//! technique applied: only `u < v` pairs are intersected and the result is
//! mirrored to `e(v,u)`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod batch;
mod driver;
mod par;
mod par_metered;
mod pool;
mod schedule;
mod seq;

pub use batch::{pair_task_ranges, run_pairs, BatchCounter};
pub use driver::{
    run_range, BmpMode, CloneFactory, CpuKernel, EdgeRangeDriver, KernelFactory, RangeTally,
};
pub use par::{par_bmp, par_merge_baseline, par_mps, ParConfig};
pub use par_metered::{par_bmp_metered, par_mps_metered};
pub use pool::{BitmapPool, PoolStats};
// The scatter target moved to `cnc-workload` (it is the CNC workload's
// shared state); re-exported here for source compatibility.
pub use cnc_workload::ScatterVec;
pub use schedule::{cut_source_blocks, RangeBlock, Schedule, SchedulePolicy, DEFAULT_TASK_SIZE};
pub use seq::{seq_bmp, seq_merge_baseline, seq_mps};

/// Run a closure on a dedicated rayon pool with `threads` workers.
///
/// Used by benchmarks and the thread-scaling experiments; `None` uses the
/// global pool.
pub fn with_threads<R: Send>(threads: Option<usize>, f: impl FnOnce() -> R + Send) -> R {
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
