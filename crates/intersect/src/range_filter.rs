//! Bitmap **range filtering** (Section 4.3).
//!
//! Matches in real-world neighbor-set intersections are sparse: most probes
//! of the big `|V|`-bit bitmap miss. RF adds a *small* bitmap in which one
//! bit summarizes a whole range of the big bitmap (the paper's size ratio is
//! 4096, chosen so the small bitmap fits in L1 on the CPU/KNL and in shared
//! memory on the GPU). A probe first peeks at the small bitmap and touches
//! the big one only when the range is known non-empty, trading a cheap
//! cache-resident lookup for an expensive memory access.
//!
//! The probe loop is vectorized per the resolved [`SimdTier`], like the
//! plain BMP probe. At the avx2 and avx512 tiers, each step gathers the
//! filter words of 8 keys, shifts out the filter bits into a hit mask,
//! and then runs a *masked* gather of the big bitmap for the hit lanes only:
//! filtered lanes never touch the big bitmap, and a step whose keys are all
//! filtered skips the big gather. Both bitmaps are gathered as arrays of
//! 32-bit halves, so one `vpgatherdd` covers a whole step. The portable
//! tier runs 8-key chunks without branches, redirecting a filtered lane's
//! big read to word 0 and masking its bit off. The per-key
//! [`RfBitmap::test`] loop is the bit-pinned oracle (`SimdTier::Scalar`).
//! Every tier reports the same architecture-neutral meter events: one small
//! access per key and one big access per filter hit.

use crate::bitmap::Bitmap;
use crate::meter::Meter;
use crate::simd::SimdTier;

/// The paper's default big-to-small size ratio (bits per small-bitmap bit).
pub const DEFAULT_RF_RATIO: usize = 4096;

/// A scale-aware RF ratio: the paper picks 4096 so that the small bitmap of
/// a ~40M-vertex graph fits in L1. At smaller |V| the same ratio collapses
/// the small bitmap to a handful of bits and the filter stops filtering, so
/// this helper targets a small bitmap of ~8K bits (1 KiB — L1-resident on
/// any machine) and clamps to the paper's 4096 at billion-scale.
///
/// For the paper's twitter graph (|V| = 41.6M) this returns exactly 4096.
pub fn scaled_rf_ratio(cardinality: usize) -> usize {
    const TARGET_SMALL_BITS: usize = 8192;
    let raw = cardinality.div_ceil(TARGET_SMALL_BITS).max(2);
    raw.next_power_of_two().clamp(2, DEFAULT_RF_RATIO)
}

/// Why an RF ratio was rejected (see [`RfBitmap::try_with_ratio`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RfRatioError {
    /// The ratio is zero or not a power of two, so range boundaries cannot
    /// be computed with a shift.
    NotPowerOfTwo(usize),
    /// The ratio is 1 (or 0): the small bitmap would be as big as the big
    /// one and filter nothing.
    TooSmall(usize),
}

impl std::fmt::Display for RfRatioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RfRatioError::NotPowerOfTwo(r) => {
                write!(f, "RF ratio must be a power of two, got {r}")
            }
            RfRatioError::TooSmall(r) => write!(f, "RF ratio must be at least 2, got {r}"),
        }
    }
}

impl std::error::Error for RfRatioError {}

/// Check an RF big-to-small ratio: a power of two, at least 2.
pub fn validate_rf_ratio(ratio: usize) -> Result<(), RfRatioError> {
    if !ratio.is_power_of_two() {
        return Err(RfRatioError::NotPowerOfTwo(ratio));
    }
    if ratio < 2 {
        return Err(RfRatioError::TooSmall(ratio));
    }
    Ok(())
}

/// A range-filtered bitmap: the big per-vertex bitmap plus the small
/// summarizing filter.
#[derive(Debug, Clone)]
pub struct RfBitmap {
    big: Bitmap,
    small: Bitmap,
    shift: u32,
}

impl RfBitmap {
    /// A zeroed RF bitmap for ids `< cardinality` with the paper-default
    /// ratio of 4096.
    pub fn new(cardinality: usize) -> Self {
        Self::with_ratio(cardinality, DEFAULT_RF_RATIO)
    }

    /// A zeroed RF bitmap with an explicit range size `ratio` (power of two).
    ///
    /// # Panics
    /// On an invalid ratio; use [`RfBitmap::try_with_ratio`] to validate
    /// untrusted configuration instead.
    pub fn with_ratio(cardinality: usize, ratio: usize) -> Self {
        Self::try_with_ratio(cardinality, ratio).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A zeroed RF bitmap with an explicit range size `ratio`, rejecting
    /// zero / one / non-power-of-two ratios with a descriptive error.
    pub fn try_with_ratio(cardinality: usize, ratio: usize) -> Result<Self, RfRatioError> {
        validate_rf_ratio(ratio)?;
        let shift = ratio.trailing_zeros();
        Ok(Self {
            big: Bitmap::new(cardinality),
            small: Bitmap::new(cardinality.div_ceil(ratio).max(1)),
            shift,
        })
    }

    /// Cardinality of the underlying big bitmap.
    pub fn cardinality(&self) -> usize {
        self.big.cardinality()
    }

    /// The configured range size (big bits per small bit).
    pub fn ratio(&self) -> usize {
        1usize << self.shift
    }

    /// Memory footprint of (big, small) in bytes — Table 3's two columns.
    pub fn bytes(&self) -> (usize, usize) {
        (self.big.bytes(), self.small.bytes())
    }

    /// Set the bits for every id in `list` in both bitmaps.
    pub fn set_list<M: Meter>(&mut self, list: &[u32], meter: &mut M) {
        self.big.set_list(list, meter);
        for &v in list {
            self.small.set(v >> self.shift);
        }
        meter.rand_accesses_small(list.len() as u64);
        meter.write_bytes(8 * list.len() as u64);
    }

    /// Clear the bits for every id in `list` in both bitmaps.
    ///
    /// Small-bitmap bits are *cleared*, not flipped: several ids of `list`
    /// may share a small bit, and clearing is idempotent.
    pub fn clear_list<M: Meter>(&mut self, list: &[u32], meter: &mut M) {
        self.big.clear_list(list, meter);
        for &v in list {
            self.small.clear(v >> self.shift);
        }
        meter.rand_accesses_small(list.len() as u64);
        meter.write_bytes(8 * list.len() as u64);
    }

    /// Probe for `v`: small bitmap first, big bitmap only on a range hit.
    #[inline]
    pub fn test<M: Meter>(&self, v: u32, meter: &mut M) -> bool {
        meter.rand_accesses_small(1);
        if !self.small.test(v >> self.shift) {
            return false;
        }
        meter.rand_accesses(1);
        self.big.test(v)
    }

    /// True if both bitmaps are all-zero.
    pub fn is_empty(&self) -> bool {
        self.big.is_empty() && self.small.is_empty()
    }

    /// Direct read-only access to the big bitmap (used by tests and the GPU
    /// simulator's shared-memory variant).
    pub fn big(&self) -> &Bitmap {
        &self.big
    }

    /// Direct read-only access to the small filter bitmap.
    pub fn small(&self) -> &Bitmap {
        &self.small
    }
}

/// Range-filtered bitmap–array intersection count, executed at the
/// process-wide resolved [`SimdTier`].
///
/// Same contract as [`crate::bmp_count`] but probes through the filter, so
/// sparse-match workloads touch the big bitmap far less often.
#[inline]
pub fn rf_count<M: Meter>(rf: &RfBitmap, arr: &[u32], meter: &mut M) -> u32 {
    rf_count_tier(rf, arr, SimdTier::resolve(), meter)
}

/// [`rf_count`] at an explicit [`SimdTier`], for benchmarks and
/// differential tests. A tier the host cannot execute degrades to the
/// portable path.
///
/// The architecture-neutral meter events are identical at every tier:
/// `rand_accesses_small` counts every key, `rand_accesses` every filter hit,
/// plus `seq_bytes`, `scalar_ops` and `intersection_done`. Only the
/// tier-attribution events (`simd_blocks`, `simd_tail_elems`) vary.
pub fn rf_count_tier<M: Meter>(rf: &RfBitmap, arr: &[u32], tier: SimdTier, meter: &mut M) -> u32 {
    crate::debug_check_sorted(arr);
    debug_assert!(
        arr.iter().all(|&v| (v as usize) < rf.cardinality()),
        "probe ids must be < bitmap cardinality"
    );
    let c = match rf_hits(rf, arr, tier) {
        Some(p) => {
            meter.rand_accesses_small(arr.len() as u64);
            meter.rand_accesses(p.filter_hits);
            meter.simd_blocks(p.blocks);
            meter.simd_tail_elems(p.tail);
            p.hits
        }
        None => {
            let mut c = 0u32;
            for &w in arr {
                c += u32::from(rf.test(w, meter));
            }
            c
        }
    };
    meter.seq_bytes(4 * arr.len() as u64);
    meter.scalar_ops(arr.len() as u64);
    meter.intersection_done();
    c
}

/// What a wide probe loop found and how it was shaped.
#[derive(Debug, Default)]
struct RfHits {
    /// Keys present in the big bitmap.
    hits: u32,
    /// Keys whose filter bit was set (each read one big word).
    filter_hits: u64,
    /// Full 8-key steps.
    blocks: u64,
    /// Keys left over after the last full step.
    tail: u64,
}

/// Tier dispatch for the probe loop; `None` means "run the scalar oracle".
///
/// A ratio of `2^32` or more shifts a `u32` key out entirely, where Rust's
/// `>>` and the vector shifts disagree, and an empty big bitmap leaves the
/// portable path no word to redirect filtered lanes to: both run the oracle.
fn rf_hits(rf: &RfBitmap, arr: &[u32], tier: SimdTier) -> Option<RfHits> {
    let (small, big, shift) = (rf.small.words(), rf.big.words(), rf.shift);
    if tier == SimdTier::Scalar || shift >= 32 || big.is_empty() {
        return None;
    }
    #[cfg(target_arch = "x86_64")]
    if tier.use_avx2() {
        // SAFETY: `use_avx2` re-checks host support, `shift < 32` was
        // checked above, and the kernel guards its own gathers.
        return Some(unsafe { x86::rf_count_avx2(small, big, shift, arr) });
    }
    Some(rf_hits_portable(small, big, shift, arr))
}

/// Exclusive key bound below which both a key's filter word and its big
/// word are in range, capped at `2^32` (where no `u32` key can fail).
fn rf_key_limit(small: &[u64], big: &[u64], shift: u32) -> u64 {
    let small_ids = (small.len() as u128 * 64) << shift;
    let big_ids = big.len() as u128 * 64;
    small_ids.min(big_ids).min(1 << 32) as u64
}

/// Per-key probes against the raw words: the tails and guard-failed steps
/// of the wide paths. Indexes exactly like [`RfBitmap::test`], so it
/// panics on the same keys.
fn rf_probe_keys(small: &[u64], big: &[u64], shift: u32, keys: &[u32], out: &mut RfHits) {
    for &k in keys {
        let s = k >> shift;
        if (small[s as usize >> 6] >> (s & 63)) & 1 != 0 {
            out.filter_hits += 1;
            out.hits += ((big[k as usize >> 6] >> (k & 63)) & 1) as u32;
        }
    }
}

/// Portable wide path: 8 keys per step without branches. A filtered lane
/// reads big word 0 instead of its own and masks the bit off, so only
/// filter hits index the big bitmap by key (and panic where the oracle
/// would). `big` must be non-empty.
fn rf_hits_portable(small: &[u64], big: &[u64], shift: u32, arr: &[u32]) -> RfHits {
    let mut out = RfHits::default();
    let mut chunks = arr.chunks_exact(8);
    for ch in chunks.by_ref() {
        let (mut hits, mut filter_hits) = (0u64, 0u64);
        for &k in ch {
            let s = k >> shift;
            let f = (small[s as usize >> 6] >> (s & 63)) & 1;
            let w = big[(k as usize >> 6) * f as usize];
            hits += (w >> (k & 63)) & f;
            filter_hits += f;
        }
        out.hits += hits as u32;
        out.filter_hits += filter_hits;
        out.blocks += 1;
    }
    let tail = chunks.remainder();
    rf_probe_keys(small, big, shift, tail, &mut out);
    out.tail = tail.len() as u64;
    out
}

/// The AVX2 probe loop, which the avx512 tier also runs: a 16-lane
/// AVX-512F version measured no faster (EXPERIMENTS.md, "BMP-RF probes,
/// vectorized").
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::{rf_key_limit, rf_probe_keys, RfHits};

    /// Range-filtered probe loop, AVX2: for each 8-key chunk of `arr`,
    /// gather the filter halves `small32[k >> (shift + 5)]` (one
    /// `vpgatherdd`), shift out bit `(k >> shift) & 31` into a hit mask, and
    /// run a masked `vpgatherdd` of the big halves `big32[k >> 5]` for the
    /// hit lanes only. A chunk with no filter hit skips the big gather.
    /// Both bitmaps are read as arrays of 32-bit halves of their
    /// little-endian 64-bit words, which hold the same bits.
    ///
    /// A chunk with a key at or above [`rf_key_limit`] re-runs as the
    /// per-key loop, which panics via slice indexing exactly like the
    /// scalar oracle.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and `shift < 32`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rf_count_avx2(
        small: &[u64],
        big: &[u64],
        shift: u32,
        arr: &[u32],
    ) -> RfHits {
        let limit = rf_key_limit(small, big, shift);
        let no_oob = limit > u64::from(u32::MAX);
        let mut out = RfHits::default();
        let mut chunks = arr.chunks_exact(8);
        // SAFETY: loads read 8 in-bounds u32s per chunk. Every key of a
        // chunk that passes the `limit` compare has its filter half
        // `k >> (shift + 5)` below `2 * small.len()` and its big half
        // `k >> 5` below `2 * big.len()`, so both gathers stay in bounds;
        // masked-off lanes of the big gather load nothing.
        unsafe {
            let small_base = small.as_ptr().cast::<i32>();
            let big_base = big.as_ptr().cast::<i32>();
            let bias = _mm256_set1_epi32(i32::MIN);
            let limit_b = _mm256_xor_si256(_mm256_set1_epi32(limit as u32 as i32), bias);
            let small_sh = _mm_cvtsi32_si128(shift as i32 + 5);
            let bit_sh = _mm_cvtsi32_si128(shift as i32);
            let low5 = _mm256_set1_epi32(31);
            let one = _mm256_set1_epi32(1);
            let zero = _mm256_setzero_si256();
            let mut acc = zero;
            let mut facc = zero;
            for chunk in chunks.by_ref() {
                let kv = _mm256_loadu_si256(chunk.as_ptr().cast());
                if !no_oob {
                    // Unsigned `key >= limit` via the bias trick.
                    let kb = _mm256_xor_si256(kv, bias);
                    let oob = _mm256_or_si256(
                        _mm256_cmpgt_epi32(kb, limit_b),
                        _mm256_cmpeq_epi32(kb, limit_b),
                    );
                    if _mm256_movemask_ps(_mm256_castsi256_ps(oob)) != 0 {
                        rf_probe_keys(small, big, shift, chunk, &mut out);
                        out.blocks += 1;
                        continue;
                    }
                }
                let sw = _mm256_i32gather_epi32::<4>(small_base, _mm256_srl_epi32(kv, small_sh));
                let sbit = _mm256_and_si256(_mm256_srl_epi32(kv, bit_sh), low5);
                let f = _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_srlv_epi32(sw, sbit), one), one);
                if _mm256_movemask_ps(_mm256_castsi256_ps(f)) != 0 {
                    // `f` is -1 in hit lanes: subtracting it counts them.
                    facc = _mm256_sub_epi32(facc, f);
                    let bw = _mm256_mask_i32gather_epi32::<4>(
                        zero,
                        big_base,
                        _mm256_srli_epi32::<5>(kv),
                        f,
                    );
                    let bbit = _mm256_and_si256(kv, low5);
                    acc = _mm256_add_epi32(acc, _mm256_and_si256(_mm256_srlv_epi32(bw, bbit), one));
                }
                out.blocks += 1;
            }
            out.hits += hsum_epi32(acc);
            out.filter_hits += u64::from(hsum_epi32(facc));
        }
        let tail = chunks.remainder();
        rf_probe_keys(small, big, shift, tail, &mut out);
        out.tail = tail.len() as u64;
        out
    }

    /// Sum of the eight u32 lanes of `v`.
    #[target_feature(enable = "avx2")]
    fn hsum_epi32(v: __m256i) -> u32 {
        let s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b01_00_11_10>(s));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b10_11_00_01>(s));
        _mm_cvtsi128_si32(s) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::{CountingMeter, NullMeter, WorkCounts};
    use crate::reference_count;

    #[test]
    fn ratio_and_sizes() {
        let rf = RfBitmap::with_ratio(1 << 22, 4096);
        assert_eq!(rf.ratio(), 4096);
        let (big, small) = rf.bytes();
        assert_eq!(big, (1 << 22) / 8);
        assert_eq!(small, (1 << 22) / 4096 / 8);
        // Size ratio between the two bitmaps is exactly the configured ratio.
        assert_eq!(big / small, 4096);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_ratio_rejected() {
        let _ = RfBitmap::with_ratio(1000, 100);
    }

    #[test]
    fn try_with_ratio_reports_clear_errors() {
        assert_eq!(
            RfBitmap::try_with_ratio(1000, 0).unwrap_err(),
            RfRatioError::NotPowerOfTwo(0)
        );
        assert_eq!(
            RfBitmap::try_with_ratio(1000, 1).unwrap_err(),
            RfRatioError::TooSmall(1)
        );
        assert_eq!(
            RfBitmap::try_with_ratio(1000, 100).unwrap_err(),
            RfRatioError::NotPowerOfTwo(100)
        );
        assert_eq!(
            RfRatioError::NotPowerOfTwo(100).to_string(),
            "RF ratio must be a power of two, got 100"
        );
        assert!(RfBitmap::try_with_ratio(1000, 64).is_ok());
        assert!(validate_rf_ratio(4096).is_ok());
    }

    #[test]
    fn scaled_ratio_regimes() {
        // Paper scale: twitter's 41.6M vertices → the paper's ratio.
        assert_eq!(scaled_rf_ratio(41_652_230), 4096);
        // Laptop scale: a useful filter remains (small bitmap ~8K bits).
        assert_eq!(scaled_rf_ratio(40_000), 8);
        assert_eq!(scaled_rf_ratio(100), 2);
        // Billion scale clamps at the paper value.
        assert_eq!(scaled_rf_ratio(2_000_000_000), 4096);
    }

    #[test]
    fn probe_agrees_with_plain_bitmap() {
        let mut m = NullMeter;
        let ids = [3u32, 4096, 4097, 100_000, 250_001];
        let mut rf = RfBitmap::with_ratio(300_000, 4096);
        rf.set_list(&ids, &mut m);
        for v in [
            0u32, 3, 4, 4095, 4096, 4097, 99_999, 100_000, 250_001, 299_999,
        ] {
            assert_eq!(rf.test(v, &mut m), ids.contains(&v), "v={v}");
        }
    }

    #[test]
    fn rf_count_matches_reference() {
        let mut m = NullMeter;
        let a: Vec<u32> = (0..500).map(|x| x * 977).collect(); // sparse over 500k
        let b: Vec<u32> = (0..500).map(|x| x * 991).collect();
        let mut rf = RfBitmap::new(500_000);
        rf.set_list(&a, &mut m);
        assert_eq!(rf_count(&rf, &b, &mut m), reference_count(&a, &b));
    }

    #[test]
    fn filter_reduces_big_bitmap_accesses_on_sparse_matches() {
        let mut m0 = NullMeter;
        // N(u) clustered in one small range; probes scattered everywhere.
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (0..1000).map(|x| x * 4096).collect();
        let mut rf = RfBitmap::with_ratio(1 << 22, 4096);
        rf.set_list(&a, &mut m0);
        let mut m = CountingMeter::new();
        rf_count(&rf, &b, &mut m);
        // Only probes landing in the single non-empty range touch the big
        // bitmap: that's the probe at id 0 only.
        assert_eq!(m.counts.rand_accesses, 1);
        assert_eq!(m.counts.rand_accesses_small, 1000);
    }

    #[test]
    fn tier_counters_attribute_blocks_and_tail() {
        let mut m0 = NullMeter;
        let mut rf = RfBitmap::with_ratio(1 << 12, 64);
        rf.set_list(&(0..100).collect::<Vec<u32>>(), &mut m0);
        // 27 keys: 3 steps of 8 + a tail of 3 at every wide tier.
        let probe: Vec<u32> = (0..27).map(|k| k * 97).collect();
        let mut oracle = CountingMeter::new();
        let want = rf_count_tier(&rf, &probe, SimdTier::Scalar, &mut oracle);
        for tier in SimdTier::ALL {
            let mut m = CountingMeter::new();
            assert_eq!(rf_count_tier(&rf, &probe, tier, &mut m), want);
            let shape = match tier {
                SimdTier::Scalar => (0, 0),
                _ => (3, 3),
            };
            assert_eq!(
                (m.counts.simd_blocks, m.counts.simd_tail_elems),
                shape,
                "tier={tier:?}"
            );
            // Everything else is identical to the oracle's tally.
            let neutral = WorkCounts {
                simd_blocks: 0,
                simd_tail_elems: 0,
                ..m.counts
            };
            assert_eq!(neutral, oracle.counts, "tier={tier:?}");
        }
        // Only keys 0 and 97 land in the two set ranges, and both are set.
        assert_eq!(want, 2);
        assert_eq!(oracle.counts.rand_accesses, 2);
        assert_eq!(oracle.counts.rand_accesses_small, 27);
    }

    /// The wide paths below `rf_count_tier`'s debug assertion, so debug
    /// builds exercise the vector range guard too: on keys at or past the
    /// guard limit, every tier panics where the per-key oracle does and
    /// otherwise finds the same hits.
    #[test]
    fn wide_paths_guard_out_of_range_keys_like_the_oracle() {
        // 100 ids in 2 big words, so the guard limit is 128; one filter
        // word of 64 ranges of 4096 ids, with only range 0 set.
        let mut rf = RfBitmap::with_ratio(100, 4096);
        rf.set_list(&[5, 99], &mut NullMeter);
        let (small, big, shift) = (rf.small.words(), rf.big.words(), rf.shift);
        assert_eq!(rf_key_limit(small, big, shift), 128);
        // (key, what, whether the oracle panics on it)
        let bad = [
            (128, "the guard limit, set filter bit", true),
            (200, "past the big bitmap, set filter bit", true),
            (5 * 4096 + 7, "past the big bitmap, clear filter bit", false),
            (64 * 4096, "past the filter", true),
            (u32::MAX, "u32::MAX", true),
        ];
        for (key, what, panics) in bad {
            for len in [0u32, 7, 8, 15, 16, 31] {
                let mut probe: Vec<u32> = (0..len).collect();
                probe.push(key);
                let oracle = std::panic::catch_unwind(|| {
                    let mut out = RfHits::default();
                    rf_probe_keys(small, big, shift, &probe, &mut out);
                    (out.hits, out.filter_hits)
                });
                assert_eq!(oracle.is_err(), panics, "{what}");
                for tier in SimdTier::ALL.into_iter().filter(|&t| t != SimdTier::Scalar) {
                    let got = std::panic::catch_unwind(|| {
                        rf_hits(&rf, &probe, tier).map(|p| (p.hits, p.filter_hits))
                    });
                    match (&oracle, got) {
                        (Ok(want), Ok(got)) => assert_eq!(got, Some(*want), "{what} {tier:?}"),
                        (Err(_), Err(_)) => {}
                        (want, got) => panic!(
                            "{what} len={len} {tier:?}: oracle panicked={} tier panicked={}",
                            want.is_err(),
                            got.is_err()
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn clear_list_resets_shared_small_bits() {
        let mut m = NullMeter;
        let mut rf = RfBitmap::with_ratio(10_000, 64);
        // 5 and 6 share a small bit (range 64).
        rf.set_list(&[5, 6], &mut m);
        rf.clear_list(&[5, 6], &mut m);
        assert!(rf.is_empty(), "shared small bit must clear idempotently");
    }

    #[test]
    fn set_clear_cycles_reusable() {
        let mut m = NullMeter;
        let mut rf = RfBitmap::new(50_000);
        for round in 0..5u32 {
            let ids: Vec<u32> = (0..64).map(|x| x * 631 + round).collect();
            rf.set_list(&ids, &mut m);
            assert_eq!(rf_count(&rf, &ids, &mut m), 64);
            rf.clear_list(&ids, &mut m);
            assert!(rf.is_empty());
        }
    }
}
