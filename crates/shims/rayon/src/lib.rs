//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no network access, so the real rayon cannot be
//! fetched. This shim reimplements the (small) slice of rayon's API that the
//! workspace actually uses on top of `std::thread::scope`:
//!
//! * `(range).into_par_iter().for_each(..)` / `.map(..).collect::<Vec<_>>()`
//! * `slice.par_iter()` / `slice.par_iter_mut()` with `.for_each(..)`
//! * `slice.par_chunks_mut(n)` with `.enumerate().for_each(..)`
//! * `ThreadPoolBuilder::new().num_threads(t).build()?.install(f)`
//! * `current_num_threads()`
//!
//! Every entry point runs through one claiming loop: the index space is cut
//! into about `current_num_threads() × 32` equal chunks, and up to
//! `current_num_threads()` workers (the calling thread plus scoped threads)
//! repeatedly claim the next chunk from a shared atomic cursor until none
//! are left. That is OpenMP's `schedule(dynamic, chunk)`: a worker that drew
//! cheap items comes back for more while a busy one is still inside its
//! chunk, so expensive items clustered at one end of the space (the hub
//! rows of a degree-descending graph) are spread over every worker. Chunks
//! are contiguous, so neighboring items still run back to back on one
//! thread. Each chunk's result is kept with its chunk index and results are
//! combined in chunk order, so `collect` preserves iteration order and
//! `reduce` only needs an associative operator.
//!
//! `install` sets a thread-local worker-count override that parallel calls
//! issued from the installed closure, and from the workers they start,
//! honor — matching how the callers here use dedicated pools
//! (thread-scaling experiments).

#![warn(missing_docs)]

use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

/// The traits a `use rayon::prelude::*;` caller expects in scope.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

thread_local! {
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn default_threads() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Number of worker threads parallel calls on this thread will use.
///
/// Inside [`ThreadPool::install`] this is the pool's configured size;
/// elsewhere it is `std::thread::available_parallelism()`.
pub fn current_num_threads() -> usize {
    POOL_THREADS
        .with(|c| c.get())
        .unwrap_or_else(default_threads)
}

/// Builder for a [`ThreadPool`]; only `num_threads` is supported.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    threads: Option<usize>,
}

/// Error type returned by [`ThreadPoolBuilder::build`]; never produced, but
/// kept so call sites can `.expect(..)` exactly as with real rayon.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("failed to build thread pool")
    }
}

impl Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Start building a pool with the default worker count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request `n` workers (0 means the default count, as in real rayon).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Finish building. Infallible in this shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            threads: self.threads.unwrap_or_else(default_threads),
        })
    }
}

/// A pool of a fixed number of workers. In this shim a pool is only a
/// worker-count override: threads are spawned per parallel call.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// The pool's configured worker count.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }

    /// Run `f` with this pool's worker count governing nested parallel calls.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0;
                POOL_THREADS.with(|c| c.set(prev));
            }
        }
        let _restore = Restore(POOL_THREADS.with(|c| c.replace(Some(self.threads))));
        f()
    }
}

/// Chunks per worker in the claiming loop. Enough that the hub-heavy head
/// of a skewed index space is cut into pieces every worker can take a
/// share of; few enough that claiming and combining stay negligible.
const CLAIMS_PER_THREAD: usize = 32;

/// The chunk layout of `0..len` for `threads` workers: `count` chunks of
/// `size` items each (the last one may be shorter).
#[derive(Debug, Clone, Copy)]
struct Claims {
    len: usize,
    size: usize,
    count: usize,
    threads: usize,
}

impl Claims {
    fn new(len: usize) -> Self {
        let threads = current_num_threads().max(1);
        let size = len.div_ceil(threads * CLAIMS_PER_THREAD).max(1);
        Self {
            len,
            size,
            count: len.div_ceil(size),
            threads,
        }
    }

    /// Item range of chunk `c`.
    fn range(&self, c: usize) -> Range<usize> {
        c * self.size..((c + 1) * self.size).min(self.len)
    }
}

/// The claiming loop: workers pull chunk indices of `claims` from a shared
/// cursor and run `work` on each; the results come back in chunk order.
/// The calling thread is one of the workers. Worker panics are re-raised on
/// the caller with their original payload.
fn run_claimed<T, F>(claims: Claims, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = claims.threads.min(claims.count);
    if workers <= 1 {
        return (0..claims.count).map(work).collect();
    }
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= claims.count {
                return done;
            }
            done.push((c, work(c)));
        }
    };
    let per_worker: Vec<thread::Result<Vec<(usize, T)>>> = thread::scope(|s| {
        let handles: Vec<_> = (1..workers)
            .map(|_| {
                s.spawn(|| {
                    POOL_THREADS.with(|p| p.set(Some(claims.threads)));
                    claim()
                })
            })
            .collect();
        let mine = claim();
        std::iter::once(Ok(mine))
            .chain(handles.into_iter().map(|h| h.join()))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..claims.count).map(|_| None).collect();
    for done in per_worker {
        for (c, t) in done.unwrap_or_else(|payload| resume_unwind(payload)) {
            slots[c] = Some(t);
        }
    }
    slots
        .into_iter()
        .map(|t| t.expect("every chunk is claimed exactly once"))
        .collect()
}

/// Run `work(range)` over the chunks of `0..len`, results in chunk order.
fn run_ranges<T, F>(len: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let claims = Claims::new(len);
    run_claimed(claims, |c| work(claims.range(c)))
}

/// Run `work(first_unit, items)` over `slice` viewed as `unit`-item units:
/// the units are chunked like [`run_ranges`] and each chunk's items are
/// handed out as a disjoint `&mut` piece, carved before any worker starts.
fn run_pieces_mut<T, F>(slice: &mut [T], unit: usize, work: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = slice.len();
    let claims = Claims::new(len.div_ceil(unit));
    let mut pieces = Vec::with_capacity(claims.count);
    let mut rest = slice;
    for c in 0..claims.count {
        let r = claims.range(c);
        let take = (r.end * unit).min(len) - r.start * unit;
        let (piece, tail) = rest.split_at_mut(take);
        pieces.push(Mutex::new(Some(piece)));
        rest = tail;
    }
    run_claimed(claims, |c| {
        let piece = pieces[c]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("every chunk is claimed exactly once");
        work(claims.range(c).start, piece);
    });
}

/// Index types a parallel range can iterate over.
pub trait ParIndex: Copy + Send + Sync + 'static {
    /// Number of values in `r`.
    fn range_len(r: &Range<Self>) -> usize;
    /// `start + offset`.
    fn offset(start: Self, offset: usize) -> Self;
}

macro_rules! par_index {
    ($($t:ty),*) => {$(
        impl ParIndex for $t {
            fn range_len(r: &Range<Self>) -> usize {
                if r.end > r.start { (r.end - r.start) as usize } else { 0 }
            }
            fn offset(start: Self, offset: usize) -> Self {
                start + offset as $t
            }
        }
    )*};
}
par_index!(usize, u32, u64, i32, i64);

/// Conversion into a parallel iterator (ranges only in this shim).
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type Iter;
    /// Convert `self`.
    fn into_par_iter(self) -> Self::Iter;
}

impl<I: ParIndex> IntoParallelIterator for Range<I> {
    type Iter = ParRange<I>;
    fn into_par_iter(self) -> ParRange<I> {
        ParRange {
            len: I::range_len(&self),
            start: self.start,
        }
    }
}

/// Parallel iterator over a numeric range.
#[derive(Debug, Clone, Copy)]
pub struct ParRange<I> {
    start: I,
    len: usize,
}

impl<I: ParIndex> ParRange<I> {
    /// Apply `f` to every index in the range.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(I) + Sync,
    {
        run_ranges(self.len, |r| {
            for off in r {
                f(I::offset(self.start, off));
            }
        });
    }

    /// Map every index through `f`; finish with [`ParRangeMap::collect`].
    pub fn map<R, F>(self, f: F) -> ParRangeMap<I, F>
    where
        R: Send,
        F: Fn(I) -> R + Sync,
    {
        ParRangeMap { range: self, f }
    }
}

/// A mapped parallel range (result of [`ParRange::map`]).
#[derive(Debug)]
pub struct ParRangeMap<I, F> {
    range: ParRange<I>,
    f: F,
}

impl<I: ParIndex, F> ParRangeMap<I, F> {
    /// Collect the mapped values in index order.
    pub fn collect<C, R>(self) -> C
    where
        R: Send,
        F: Fn(I) -> R + Sync,
        C: FromParallelIterator<R>,
    {
        let start = self.range.start;
        let f = &self.f;
        let parts = run_ranges(self.range.len, |r| {
            r.map(|off| f(I::offset(start, off))).collect::<Vec<R>>()
        });
        C::from_ordered_parts(parts)
    }

    /// Apply the mapped function for its effect only.
    pub fn for_each<R>(self)
    where
        R: Send,
        F: Fn(I) -> R + Sync,
    {
        let start = self.range.start;
        let f = &self.f;
        run_ranges(self.range.len, |r| {
            for off in r {
                f(I::offset(start, off));
            }
        });
    }

    /// Fold the mapped values into one, rayon-style: each claimed chunk is
    /// folded into its own accumulator seeded from `identity` (no shared
    /// state, no lock), and the per-chunk partials are combined on the
    /// caller in chunk order. `op` must be associative and `identity()` its
    /// neutral element for the result to be split-invariant; it need not be
    /// commutative.
    pub fn reduce<R, ID, OP>(self, identity: ID, op: OP) -> R
    where
        R: Send,
        F: Fn(I) -> R + Sync,
        ID: Fn() -> R + Sync,
        OP: Fn(R, R) -> R + Sync,
    {
        let start = self.range.start;
        let f = &self.f;
        let parts = run_ranges(self.range.len, |r| {
            r.fold(identity(), |acc, off| op(acc, f(I::offset(start, off))))
        });
        parts.into_iter().fold(identity(), &op)
    }
}

/// Collections that can be assembled from ordered per-chunk parts.
pub trait FromParallelIterator<T> {
    /// Concatenate `parts` (already in iteration order).
    fn from_ordered_parts(parts: Vec<Vec<T>>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_ordered_parts(parts: Vec<Vec<T>>) -> Self {
        let total = parts.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for p in parts {
            out.extend(p);
        }
        out
    }
}

/// `slice.par_iter()` support.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `&T` items.
    fn par_iter(&self) -> ParSliceIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParSliceIter<'_, T> {
        ParSliceIter { slice: self }
    }
}

/// Parallel shared-slice iterator.
#[derive(Debug)]
pub struct ParSliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParSliceIter<'a, T> {
    /// Apply `f` to every element.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        let slice = self.slice;
        run_ranges(slice.len(), |r| {
            for item in &slice[r] {
                f(item);
            }
        });
    }
}

/// `slice.par_iter_mut()` / `slice.par_chunks_mut(n)` support.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over `&mut T` items.
    fn par_iter_mut(&mut self) -> ParSliceIterMut<'_, T>;
    /// Parallel iterator over non-overlapping `&mut [T]` chunks of
    /// `chunk_size` elements (the last chunk may be shorter).
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParSliceIterMut<'_, T> {
        ParSliceIterMut { slice: self }
    }
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            slice: self,
            chunk_size,
        }
    }
}

/// Parallel exclusive-slice iterator.
#[derive(Debug)]
pub struct ParSliceIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<T: Send> ParSliceIterMut<'_, T> {
    /// Apply `f` to every element.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Sync,
    {
        run_pieces_mut(self.slice, 1, |_, piece| piece.iter_mut().for_each(&f));
    }
}

/// Parallel iterator over mutable chunks.
#[derive(Debug)]
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pair every chunk with its chunk index.
    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate(self)
    }

    /// Apply `f` to every chunk.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

/// Enumerated variant of [`ParChunksMut`].
#[derive(Debug)]
pub struct ParChunksMutEnumerate<'a, T>(ParChunksMut<'a, T>);

impl<T: Send> ParChunksMutEnumerate<'_, T> {
    /// Apply `f` to every `(chunk_index, chunk)` pair.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let chunk_size = self.0.chunk_size;
        run_pieces_mut(self.0.slice, chunk_size, |first_chunk, piece| {
            for (i, chunk) in piece.chunks_mut(chunk_size).enumerate() {
                f((first_chunk + i, chunk));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn range_for_each_covers_every_index() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        (0..1000usize)
            .into_par_iter()
            .for_each(|i| drop(hits[i].fetch_add(1, Ordering::Relaxed)));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..257u64).into_par_iter().map(|i| i * i).collect();
        assert_eq!(v, (0..257u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_mut_enumerate_matches_serial() {
        let mut a = vec![0usize; 1003];
        a.par_chunks_mut(10)
            .enumerate()
            .for_each(|(ci, chunk)| chunk.iter_mut().for_each(|x| *x = ci));
        for (i, &x) in a.iter().enumerate() {
            assert_eq!(x, i / 10);
        }
    }

    #[test]
    fn map_reduce_matches_serial_fold() {
        let sum: u64 = (0..10_001u64)
            .into_par_iter()
            .map(|i| i * 3)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(sum, (0..10_001u64).map(|i| i * 3).sum::<u64>());
        // Empty range yields the identity.
        let empty: u64 = (5..5u64)
            .into_par_iter()
            .map(|i| i + 1)
            .reduce(|| 7, |a, b| a + b);
        assert_eq!(empty, 7);
    }

    #[test]
    fn par_iter_mut_touches_all() {
        let mut a: Vec<u32> = (0..500).collect();
        a.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(a, (1..501).collect::<Vec<u32>>());
    }

    #[test]
    fn install_overrides_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
        // Restored afterwards.
        assert_eq!(current_num_threads(), default_threads());
    }

    #[test]
    fn worker_panic_propagates() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let r = std::panic::catch_unwind(|| {
            pool.install(|| (0..100usize).into_par_iter().for_each(|i| assert!(i < 50)));
        });
        assert!(r.is_err());
    }

    /// Lengths around the worker count and one far above it, under pools
    /// smaller than, equal to and larger than the host.
    fn lengths_and_pools() -> Vec<(usize, usize)> {
        let mut cases = Vec::new();
        for threads in [1usize, 2, 3, 8] {
            let lens = [0, 1, threads - 1, threads + 1, 10_001];
            cases.extend(lens.into_iter().map(|len| (len, threads)));
        }
        cases
    }

    #[test]
    fn collect_and_non_commutative_reduce_match_serial() {
        for (len, threads) in lengths_and_pools() {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (collected, reduced) = pool.install(|| {
                let collected: Vec<usize> = (0..len).into_par_iter().map(|i| i * 7).collect();
                // Concatenation is associative but not commutative: any
                // out-of-order combine shows up as a permuted vector.
                let reduced =
                    (0..len)
                        .into_par_iter()
                        .map(|i| vec![i])
                        .reduce(Vec::new, |mut a, b| {
                            a.extend(b);
                            a
                        });
                (collected, reduced)
            });
            let serial: Vec<usize> = (0..len).map(|i| i * 7).collect();
            assert_eq!(collected, serial, "collect, len {len}, {threads} threads");
            assert_eq!(
                reduced,
                (0..len).collect::<Vec<_>>(),
                "reduce, len {len}, {threads} threads"
            );
        }
    }

    #[test]
    fn front_loaded_cost_is_shared_between_workers() {
        // All the cost sits in the first half of the index space, the shape
        // of a degree-descending edge range. A contiguous split hands that
        // whole half to one thread; dynamic claiming must not.
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let n = 64;
        let ids = Mutex::new(Vec::new());
        pool.install(|| {
            (0..n).into_par_iter().for_each(|i| {
                if i < n / 2 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    ids.lock().unwrap().push(std::thread::current().id());
                }
            })
        });
        let mut ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), n / 2);
        ids.sort_by_key(|id| format!("{id:?}"));
        ids.dedup();
        assert!(ids.len() > 1, "the costly half ran on one thread");
    }

    /// The payload of the panic `f` raises, as a string.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("must panic");
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("payload is a message")
    }

    #[test]
    fn mutable_slice_panics_keep_their_payload() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let msg = panic_message(|| {
            let mut a: Vec<u32> = (0..1000).collect();
            pool.install(|| {
                a.par_iter_mut()
                    .for_each(|x| assert!(*x != 500, "boom in par_iter_mut"))
            });
        });
        assert_eq!(msg, "boom in par_iter_mut");
        let msg = panic_message(|| {
            let mut a = vec![0u32; 1000];
            pool.install(|| {
                a.par_chunks_mut(7)
                    .enumerate()
                    .for_each(|(ci, _)| assert!(ci < 100, "boom in par_chunks_mut"))
            });
        });
        assert_eq!(msg, "boom in par_chunks_mut");
    }
}
