//! A shared pool of reusable bitmaps.
//!
//! BMP's per-task bitmap has `|V|` bits: allocating one per task would
//! dominate runtime, and one per OS thread is awkward to express safely when
//! rayon workers claim tasks dynamically. A small lock-protected pool
//! (mirroring the GPU kernel's `B_A`/`BS_A` bitmap pool, Algorithm 6) hands
//! clean bitmaps to tasks and takes them back cleared; at steady state it
//! holds one bitmap per worker thread.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Statistics of pool usage (exported for tests and the memory tables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Bitmaps created over the pool's lifetime.
    pub created: usize,
    /// Acquire calls served from the free list.
    pub reused: usize,
}

/// Free list and usage statistics, guarded together: acquire and release
/// each take exactly one lock.
struct PoolInner<T> {
    free: Vec<T>,
    stats: PoolStats,
}

/// A pool of `T` values (bitmaps) created on demand by a factory.
pub struct BitmapPool<T> {
    inner: Mutex<PoolInner<T>>,
    factory: Box<dyn Fn() -> T + Send + Sync>,
}

impl<T> BitmapPool<T> {
    /// An empty pool whose bitmaps are built by `factory`.
    pub fn new(factory: impl Fn() -> T + Send + Sync + 'static) -> Self {
        Self {
            inner: Mutex::new(PoolInner {
                free: Vec::new(),
                stats: PoolStats::default(),
            }),
            factory: Box::new(factory),
        }
    }

    /// Lock the free list, recovering from poison. Every critical section
    /// is one push, one pop or one counter bump, so a panicking holder
    /// cannot leave the list half-updated, and a bitmap held by a task that
    /// panics is dropped, never released dirty.
    fn lock(&self) -> MutexGuard<'_, PoolInner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take a value from the pool, creating one if none is free.
    ///
    /// The caller must return the value *clean* (all-zero bitmap) via
    /// [`BitmapPool::release`].
    pub fn acquire(&self) -> T {
        {
            let mut inner = self.lock();
            if let Some(v) = inner.free.pop() {
                inner.stats.reused += 1;
                return v;
            }
            inner.stats.created += 1;
            // Drop the lock before running the factory: building a |V|-bit
            // bitmap is the expensive path and must not serialize peers.
        }
        (self.factory)()
    }

    /// Return a (clean) value to the pool.
    pub fn release(&self, v: T) {
        self.lock().free.push(v);
    }

    /// Usage statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.lock().stats
    }

    /// Number of values currently on the free list.
    pub fn idle(&self) -> usize {
        self.lock().free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_intersect::Bitmap;
    use rayon::prelude::*;

    #[test]
    fn acquire_creates_then_reuses() {
        let pool = BitmapPool::new(|| Bitmap::new(128));
        let a = pool.acquire();
        assert_eq!(pool.stats().created, 1);
        pool.release(a);
        let _b = pool.acquire();
        let s = pool.stats();
        assert_eq!(s.created, 1);
        assert_eq!(s.reused, 1);
    }

    #[test]
    fn steady_state_bounded_by_concurrency() {
        let pool = BitmapPool::new(|| Bitmap::new(64));
        (0..1000).into_par_iter().for_each(|_| {
            let bm = pool.acquire();
            // ... would use the bitmap here ...
            pool.release(bm);
        });
        let s = pool.stats();
        assert!(s.created <= rayon::current_num_threads() * 2 + 1);
        assert_eq!(pool.idle(), s.created);
    }

    #[test]
    fn poisoned_lock_leaves_the_pool_usable() {
        let pool = std::sync::Arc::new(BitmapPool::new(|| Bitmap::new(64)));
        pool.release(pool.acquire());
        let holder = std::sync::Arc::clone(&pool);
        let poisoner = std::thread::spawn(move || {
            let _inner = holder.inner.lock();
            panic!("deliberate poison");
        });
        assert!(poisoner.join().is_err(), "poisoner must have panicked");
        assert!(
            pool.inner.lock().is_err(),
            "mutex must actually be poisoned"
        );
        // acquire, release, stats and idle all still work.
        let bm = pool.acquire();
        assert_eq!(pool.idle(), 0);
        pool.release(bm);
        assert_eq!(pool.idle(), 1);
        assert_eq!(
            pool.stats(),
            PoolStats {
                created: 1,
                reused: 1
            }
        );
    }

    #[test]
    fn released_bitmaps_must_be_clean_contract() {
        // The pool does not scrub: this test documents the contract by
        // showing a dirty release is observable (and thus testable upstream).
        let pool = BitmapPool::new(|| Bitmap::new(32));
        let mut bm = pool.acquire();
        bm.set(5);
        pool.release(bm);
        let back = pool.acquire();
        assert!(
            !back.is_empty(),
            "pool hands back exactly what was released"
        );
    }
}
