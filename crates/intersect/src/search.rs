//! Lower-bound search family used by the pivot-skip merge.
//!
//! The paper's `LowerBound` (Algorithm 1) is implemented as a staged search:
//! a short *vectorized linear search* over the next few elements (cheap when
//! the lower bound is nearby, the common case), then *galloping* with
//! exponentially growing skips starting at 2⁴ (Baeza-Yates / Demaine et al.),
//! and finally a lower bound inside the last gallop window.
//!
//! Only the linear prefix dispatches on [`SimdTier`]: at the AVX2/AVX-512
//! tiers it is two 8-lane compares. The exponential phase and the final
//! window are one scalar tail at every tier — a serial chain of dependent
//! probes that vector gathers measured slower on, not faster. Every tier
//! therefore reports identical architecture-neutral meter events, so the
//! modeled platforms are unaffected by the host's tier.

use crate::meter::Meter;
use crate::simd::SimdTier;

/// Number of elements covered by the vectorized linear-search prefix.
///
/// Two 8-lane SIMD comparisons (or the scalar equivalent) cover 16 elements —
/// the same 2⁴ threshold at which the paper starts galloping.
pub const LINEAR_PREFIX: usize = 16;

/// First galloping skip, matching the paper's 2⁴.
const GALLOP_FIRST_SKIP: usize = 1 << 4;

/// Branchless binary lower bound: smallest index `i` with `a[i] >= target`,
/// or `a.len()` if no such element exists.
///
/// Uses the classic half-interval reduction with conditional moves instead of
/// branches, which avoids mispredictions on random probes.
#[inline]
pub fn lower_bound(a: &[u32], target: u32) -> usize {
    let mut base = 0usize;
    let mut size = a.len();
    while size > 1 {
        let half = size / 2;
        let mid = base + half;
        // Safety by construction: mid < base + size <= a.len().
        if a[mid] < target {
            base = mid;
        }
        size -= half;
    }
    // `base` now points at the last candidate; step over it if it is small.
    base + usize::from(!a.is_empty() && a[base] < target)
}

/// Linear lower bound over at most `LINEAR_PREFIX` (16) elements starting at
/// `start`, at the process-wide resolved [`SimdTier`]. Returns `Some(index)`
/// if found within the prefix, `None` to tell the caller to continue with
/// galloping.
#[inline]
pub fn linear_lower_bound<M: Meter>(
    a: &[u32],
    start: usize,
    target: u32,
    meter: &mut M,
) -> Option<usize> {
    linear_lower_bound_tier(a, start, target, SimdTier::resolve(), meter)
}

/// [`linear_lower_bound`] at an explicit [`SimdTier`].
///
/// On the AVX2/AVX-512 tiers the scan is two 8-lane vector comparisons;
/// windows shorter than 16 (end of array) are padded with `u32::MAX` — a pad
/// lane can never satisfy `x < target`, so short windows vectorize too
/// instead of falling back to the scalar scan. Every tier reports one
/// `vector_op` per 8 elements scanned so the machine models see identical
/// work regardless of host ISA.
#[inline]
pub fn linear_lower_bound_tier<M: Meter>(
    a: &[u32],
    start: usize,
    target: u32,
    tier: SimdTier,
    meter: &mut M,
) -> Option<usize> {
    let end = a.len().min(start + LINEAR_PREFIX);
    if start >= end {
        return if start >= a.len() {
            Some(a.len())
        } else {
            None
        };
    }
    let window = &a[start..end];
    meter.vector_ops(window.len().div_ceil(8) as u64);
    meter.seq_bytes(4 * window.len() as u64);
    #[cfg(target_arch = "x86_64")]
    {
        if tier.use_avx2() {
            // SAFETY: `use_avx2` re-checks host support; the helper pads
            // short windows to the fixed 16-lane width.
            let lt = unsafe { count_less_than_upto_16(window, target) };
            meter.simd_blocks(1);
            return if lt < window.len() {
                Some(start + lt)
            } else if end == a.len() {
                Some(a.len())
            } else {
                None
            };
        }
    }
    let _ = tier;
    match window.iter().position(|&x| x >= target) {
        Some(p) => Some(start + p),
        None => {
            if end == a.len() {
                Some(a.len())
            } else {
                None
            }
        }
    }
}

/// `count_less_than_16` for windows of 1..=16 sorted elements: short windows
/// are copied into a `u32::MAX`-padded buffer (pads never compare below the
/// target, so they are never counted).
///
/// # Safety
/// Caller must ensure AVX2 is available and `1 <= window.len() <= 16`.
#[cfg(target_arch = "x86_64")]
unsafe fn count_less_than_upto_16(window: &[u32], target: u32) -> usize {
    debug_assert!(!window.is_empty() && window.len() <= 16);
    if window.len() == 16 {
        // SAFETY: AVX2 per caller contract; window length is exactly 16.
        unsafe { crate::simd::count_less_than_16(window, target) }
    } else {
        let mut buf = [u32::MAX; 16];
        buf[..window.len()].copy_from_slice(window);
        // SAFETY: AVX2 per caller contract; `buf` is exactly 16 elements.
        unsafe { crate::simd::count_less_than_16(&buf, target) }
    }
}

/// Galloping (exponential) lower bound of `target` in `a[start..]` at the
/// process-wide resolved [`SimdTier`].
///
/// Stages: vectorized linear prefix → exponential skips `2^4, 2^5, …` →
/// lower bound in the final window. This is the paper's `LowerBound`
/// implementation for `IntersectPS` (Section 3.1).
#[inline]
pub fn gallop_lower_bound<M: Meter>(a: &[u32], start: usize, target: u32, meter: &mut M) -> usize {
    gallop_lower_bound_tier(a, start, target, SimdTier::resolve(), meter)
}

/// [`gallop_lower_bound`] at an explicit [`SimdTier`] — lets benchmarks and
/// differential tests sweep tiers inside one process.
///
/// The tier only picks how the 16-element linear prefix is scanned; the
/// exponential phase and the final window are the one scalar tail at every
/// tier, so the architecture-neutral meter events are identical.
#[inline]
pub fn gallop_lower_bound_tier<M: Meter>(
    a: &[u32],
    start: usize,
    target: u32,
    tier: SimdTier,
    meter: &mut M,
) -> usize {
    crate::debug_check_sorted(a);
    if start >= a.len() {
        return a.len();
    }
    if let Some(idx) = linear_lower_bound_tier(a, start, target, tier, meter) {
        return idx;
    }
    // The linear prefix (16 = 2^4 elements) was all < target.
    gallop_tail_scalar(a, start + LINEAR_PREFIX, GALLOP_FIRST_SKIP, target, meter)
}

/// The exponential phase (skips `first_skip, 2·first_skip, …` from `start_lo`)
/// followed by a branchless binary search inside the last gallop window.
#[inline]
fn gallop_tail_scalar<M: Meter>(
    a: &[u32],
    start_lo: usize,
    first_skip: usize,
    target: u32,
    meter: &mut M,
) -> usize {
    let mut lo = start_lo; // first unchecked index
    let mut skip = first_skip;
    let mut steps = 0u64;
    loop {
        steps += 1;
        let probe = lo + skip - 1; // last index of this window
        if probe >= a.len() {
            break;
        }
        if a[probe] >= target {
            break;
        }
        lo += skip;
        skip <<= 1;
    }
    meter.scalar_ops(steps);
    meter.rand_accesses(steps);
    let hi = a.len().min(lo + skip);
    let window = &a[lo..hi];
    let w = lower_bound(window, target);
    let probes = (window.len().max(1)).ilog2() as u64 + 1;
    meter.scalar_ops(probes);
    meter.rand_accesses(probes);
    lo + w
}

/// Galloping lower bound *without* the vectorized linear-search prefix —
/// the ablation comparator for the staged search (pure
/// Baeza-Yates/Demaine-style gallop from the first element).
#[inline]
pub fn gallop_lower_bound_no_prefix<M: Meter>(
    a: &[u32],
    start: usize,
    target: u32,
    meter: &mut M,
) -> usize {
    crate::debug_check_sorted(a);
    if start >= a.len() {
        return a.len();
    }
    gallop_tail_scalar(a, start, 1, target, meter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::{CountingMeter, NullMeter};

    fn reference_lower_bound(a: &[u32], t: u32) -> usize {
        a.iter().position(|&x| x >= t).unwrap_or(a.len())
    }

    #[test]
    fn lower_bound_matches_reference_exhaustive() {
        let a: Vec<u32> = (0..64).map(|x| x * 3 + 1).collect();
        for t in 0..200 {
            assert_eq!(lower_bound(&a, t), reference_lower_bound(&a, t), "t={t}");
        }
    }

    #[test]
    fn lower_bound_empty_and_singleton() {
        assert_eq!(lower_bound(&[], 5), 0);
        assert_eq!(lower_bound(&[3], 2), 0);
        assert_eq!(lower_bound(&[3], 3), 0);
        assert_eq!(lower_bound(&[3], 4), 1);
    }

    #[test]
    fn linear_prefix_finds_nearby() {
        let a: Vec<u32> = (0..100).collect();
        let mut m = NullMeter;
        assert_eq!(linear_lower_bound(&a, 10, 12, &mut m), Some(12));
        assert_eq!(linear_lower_bound(&a, 10, 10, &mut m), Some(10));
        // Beyond the prefix: caller must gallop.
        assert_eq!(linear_lower_bound(&a, 10, 90, &mut m), None);
    }

    #[test]
    fn linear_prefix_end_of_array() {
        let a: Vec<u32> = (0..10).collect();
        let mut m = NullMeter;
        // Window reaches the end of the array and everything is < target:
        // the answer is definitive (a.len()), not a request to gallop.
        assert_eq!(linear_lower_bound(&a, 4, 99, &mut m), Some(10));
        assert_eq!(linear_lower_bound(&a, 10, 5, &mut m), Some(10));
    }

    #[test]
    fn linear_prefix_short_windows_all_tiers() {
        // The satellite fix: end-of-array windows shorter than 16 must give
        // the same answers on the vector path (padded compare) as scalar.
        let mut m = NullMeter;
        for n in 1usize..=20 {
            let a: Vec<u32> = (0..n as u32).map(|x| x * 3).collect();
            for start in 0..=n {
                for t in 0..(3 * n as u32 + 2) {
                    let want = linear_lower_bound_tier(&a, start, t, SimdTier::Scalar, &mut m);
                    for tier in SimdTier::ALL {
                        let got = linear_lower_bound_tier(&a, start, t, tier, &mut m);
                        assert_eq!(got, want, "n={n} start={start} t={t} tier={tier:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn gallop_matches_reference_on_grid() {
        let a: Vec<u32> = (0..500).map(|x| x * 2).collect();
        let mut m = NullMeter;
        for start in [0usize, 1, 5, 17, 100, 499, 500] {
            for t in [0u32, 1, 2, 33, 34, 600, 998, 999, 1000, 2000] {
                let got = gallop_lower_bound(&a, start, t, &mut m);
                let want = start + reference_lower_bound(&a[start.min(a.len())..], t);
                assert_eq!(got, want, "start={start} t={t}");
            }
        }
    }

    #[test]
    fn gallop_all_tiers_agree_with_scalar() {
        // Targets landing in every phase: linear prefix, first/late
        // exponential windows, past-the-end, plus long gallops of more than
        // eight exponential steps (> 16·255 elements from the start).
        let a: Vec<u32> = (0..10_000).map(|x| x * 3 + 7).collect();
        let mut m = NullMeter;
        for start in [0usize, 1, 13, 16, 17, 100, 5000, 9999, 10_000] {
            for t in [
                0u32, 7, 8, 40, 55, 56, 100, 500, 1000, 5000, 12_345, 29_999, 30_004, 30_005,
                40_000,
            ] {
                let want = gallop_lower_bound_tier(&a, start, t, SimdTier::Scalar, &mut m);
                for tier in SimdTier::ALL {
                    let got = gallop_lower_bound_tier(&a, start, t, tier, &mut m);
                    assert_eq!(got, want, "start={start} t={t} tier={tier:?}");
                }
            }
        }
    }

    #[test]
    fn gallop_meter_events_are_tier_invariant() {
        // Every tier must tally exactly the steps/probes the scalar loop
        // counts, so the machine models see identical work.
        let a: Vec<u32> = (0..50_000).map(|x| x * 2).collect();
        for t in [40u32, 700, 5_000, 33_333, 99_998, 100_000, 200_000] {
            let mut ms = CountingMeter::new();
            let ws = gallop_lower_bound_tier(&a, 0, t, SimdTier::Scalar, &mut ms);
            for tier in [SimdTier::Portable, SimdTier::Avx2, SimdTier::Avx512] {
                let mut mw = CountingMeter::new();
                let ww = gallop_lower_bound_tier(&a, 0, t, tier, &mut mw);
                assert_eq!(ws, ww, "t={t} tier={tier:?}");
                assert_eq!(
                    ms.counts.scalar_ops, mw.counts.scalar_ops,
                    "t={t} tier={tier:?}"
                );
                assert_eq!(
                    ms.counts.vector_ops, mw.counts.vector_ops,
                    "t={t} tier={tier:?}"
                );
                assert_eq!(
                    ms.counts.rand_accesses, mw.counts.rand_accesses,
                    "t={t} tier={tier:?}"
                );
                assert_eq!(
                    ms.counts.seq_bytes, mw.counts.seq_bytes,
                    "t={t} tier={tier:?}"
                );
            }
        }
    }

    #[test]
    fn gallop_tail_issues_no_vector_blocks() {
        // Only the linear prefix may count a vector block: the exponential
        // phase and the final window are the one scalar tail at every tier.
        // Near targets end inside the prefix, far ones gallop to the end.
        let a: Vec<u32> = (0..50_000).map(|x| x * 2).collect();
        let targets = [
            0u32, 10, 31, 40, 700, 5_000, 33_333, 99_998, 100_000, 200_000,
        ];
        for start in [0usize, 49_990, 50_000] {
            for t in targets {
                for tier in SimdTier::ALL {
                    let mut m = CountingMeter::new();
                    gallop_lower_bound_tier(&a, start, t, tier, &mut m);
                    let prefix_ran = start < a.len();
                    let want = u64::from(prefix_ran && tier.use_avx2());
                    assert_eq!(
                        m.counts.simd_blocks, want,
                        "start={start} t={t} tier={tier:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn gallop_far_target_uses_few_probes() {
        // The whole point of galloping: reaching an element 10^5 away takes
        // O(log) probes, not 10^5 iterations.
        let a: Vec<u32> = (0..200_000).collect();
        let mut m = CountingMeter::new();
        let idx = gallop_lower_bound(&a, 0, 150_000, &mut m);
        assert_eq!(idx, 150_000);
        assert!(
            m.counts.scalar_ops + m.counts.vector_ops < 100,
            "gallop should be logarithmic, used {} ops",
            m.counts.total_ops()
        );
    }

    #[test]
    fn gallop_random_against_reference() {
        let mut x = 88172645463325252u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..50 {
            let mut a: Vec<u32> = (0..300).map(|_| (next() % 10_000) as u32).collect();
            a.sort_unstable();
            a.dedup();
            let start = (next() as usize) % (a.len() + 1);
            let t = (next() % 11_000) as u32;
            let mut m = NullMeter;
            let got = gallop_lower_bound(&a, start, t, &mut m);
            let want = start + reference_lower_bound(&a[start..], t);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn gallop_high_bit_values_all_tiers() {
        // Values above i32::MAX exercise the unsigned-compare bias in the
        // vector prefix compare.
        let a: Vec<u32> = (0..2000).map(|x| u32::MAX - 4000 + x * 2).collect();
        let mut m = NullMeter;
        for t in [
            0u32,
            u32::MAX - 4001,
            u32::MAX - 4000,
            u32::MAX - 1999,
            u32::MAX - 2,
            u32::MAX - 1,
            u32::MAX,
        ] {
            let want = gallop_lower_bound_tier(&a, 0, t, SimdTier::Scalar, &mut m);
            for tier in SimdTier::ALL {
                let got = gallop_lower_bound_tier(&a, 0, t, tier, &mut m);
                assert_eq!(got, want, "t={t} tier={tier:?}");
            }
        }
    }
}

#[cfg(test)]
mod no_prefix_tests {
    use super::*;
    use crate::meter::NullMeter;

    #[test]
    fn no_prefix_matches_reference() {
        let a: Vec<u32> = (0..300).map(|x| x * 2).collect();
        let mut m = NullMeter;
        for start in [0usize, 1, 7, 150, 299, 300] {
            for t in [0u32, 1, 2, 100, 301, 598, 599, 600, 1000] {
                let want = start
                    + a[start.min(a.len())..]
                        .iter()
                        .position(|&x| x >= t)
                        .unwrap_or(a.len() - start.min(a.len()));
                let got = gallop_lower_bound_no_prefix(&a, start, t, &mut m);
                assert_eq!(got, want, "start={start} t={t}");
            }
        }
    }

    #[test]
    fn agrees_with_staged_variant() {
        let a: Vec<u32> = (0..1000).map(|x| x * 3 + 1).collect();
        let mut m = NullMeter;
        for t in (0..3200).step_by(37) {
            assert_eq!(
                gallop_lower_bound_no_prefix(&a, 0, t, &mut m),
                gallop_lower_bound(&a, 0, t, &mut m)
            );
        }
    }
}
