//! Bit-identity property tests for the vectorized kernels: every
//! [`SimdTier`] must return exactly what the scalar oracle loop returns, on
//! inputs crafted to stress the places vector code goes wrong — 64-bit word
//! boundaries, values with the sign bit set (where a signed vector compare
//! silently flips), galloping starts landing in every phase, and short
//! end-of-array windows.
//!
//! These run through the explicit `_tier` entry points rather than
//! `SimdTier::force`, which mutates process-global state and would race
//! across the parallel test harness. The environment-variable path is
//! exercised end to end by the CI matrix (`CNC_SIMD=scalar|portable|avx2`).

use std::collections::BTreeSet;

use cnc_intersect::{
    bmp_count_tier, gallop_lower_bound_tier, linear_lower_bound_tier, lower_bound, rf_count_tier,
    Bitmap, CountingMeter, NullMeter, RfBitmap, SimdTier, WorkCounts,
};
use proptest::prelude::*;

/// The tiers to sweep. Unsupported hardware tiers are skipped inside the
/// kernels themselves (`use_avx2`/`use_avx512` re-check at runtime), so the
/// sweep is safe on any host.
const TIERS: [SimdTier; 4] = SimdTier::ALL;

/// Strategy: a strictly increasing u32 vector with values below `max`.
fn sorted_set(max: u32, len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..max, 0..len).prop_map(|s| s.into_iter().collect())
}

/// Strategy: strictly increasing values clustered *around 64-bit word
/// boundaries* — each element is `64 * word + bit` with `bit` drawn from the
/// corners `{0, 1, 62, 63}`. Gather-based probes index `words[v >> 6]` and
/// shift by `v & 63`; an off-by-one in either shows up here first.
fn word_boundary_set(words: u32, len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set((0..words, 0usize..4), 0..len).prop_map(|s| {
        let corners = [0u32, 1, 62, 63];
        let set: BTreeSet<u32> = s.into_iter().map(|(w, b)| w * 64 + corners[b]).collect();
        set.into_iter().collect()
    })
}

/// Strategy: strictly increasing values in the top half of the u32 range
/// (sign bit set when reinterpreted as i32). The AVX2 path compares unsigned
/// keys with a signed instruction via the sign-bias trick; these inputs
/// catch a missing bias immediately.
fn high_bit_set(len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set((1u32 << 31)..u32::MAX, 0..len)
        .prop_map(|s| s.into_iter().collect())
}

/// The RF ratios swept: the smallest legal one, two mid-range ones, and
/// the paper's 4096.
const RF_RATIOS: [usize; 4] = [2, 16, 64, 4096];

/// Map a drawn `(raw, kind)` pair to an id of interest for an RF bitmap of
/// `card` ids and range size `ratio`: a corner of a 64-bit word (kinds
/// 0–3) or the first or last id of a filter range (kinds 4–5). `None` when
/// the id falls outside `0..card`.
fn rf_corner(card: u32, ratio: u32, (raw, kind): (u32, usize)) -> Option<u32> {
    let id = match kind {
        0..=3 => {
            let word = raw % card.div_ceil(64);
            word * 64 + [0u32, 1, 62, 63][kind]
        }
        _ => {
            let range = raw % card.div_ceil(ratio);
            range * ratio + if kind == 4 { 0 } else { ratio - 1 }
        }
    };
    (id < card).then_some(id)
}

/// Sorted, deduplicated ids of interest.
fn rf_ids(card: u32, ratio: u32, picks: &[(u32, usize)]) -> Vec<u32> {
    let set: BTreeSet<u32> = picks
        .iter()
        .filter_map(|&p| rf_corner(card, ratio, p))
        .collect();
    set.into_iter().collect()
}

/// The meter tally with the tier-dependent attribution events zeroed.
fn neutral(counts: WorkCounts) -> WorkCounts {
    WorkCounts {
        simd_blocks: 0,
        simd_tail_elems: 0,
        ..counts
    }
}

/// Run `probe` through `rf` at every tier and check the count and every
/// architecture-neutral meter field against the scalar oracle.
fn assert_rf_tiers_match(rf: &RfBitmap, probe: &[u32], what: &str) -> u32 {
    let mut oracle = CountingMeter::new();
    let want = rf_count_tier(rf, probe, SimdTier::Scalar, &mut oracle);
    for tier in TIERS {
        let mut m = CountingMeter::new();
        let got = rf_count_tier(rf, probe, tier, &mut m);
        assert_eq!(got, want, "tier={} {what}", tier.label());
        assert_eq!(
            neutral(m.counts),
            neutral(oracle.counts),
            "tier={} {what}",
            tier.label()
        );
    }
    want
}

/// Whether `rf_count_tier` panics on `probe` at `tier`.
fn rf_panics(rf: &RfBitmap, probe: &[u32], tier: SimdTier) -> bool {
    std::panic::catch_unwind(|| rf_count_tier(rf, probe, tier, &mut NullMeter)).is_err()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// BMP-RF probes: every tier agrees with the scalar oracle, count and
    /// architecture-neutral meter events, for every swept ratio. The
    /// cardinality is odd, so it is a multiple of neither 64 nor the ratio,
    /// and both the indexed and the probing ids cluster on word corners and
    /// range boundaries.
    #[test]
    fn rf_tiers_bit_identical_on_word_and_range_boundaries(
        ratio in prop::sample::select(RF_RATIOS.to_vec()),
        words in 1u32..400,
        odd in 0u32..32,
        set in prop::collection::vec((0u32..u32::MAX, 0usize..6), 0..200),
        probe in prop::collection::vec((0u32..u32::MAX, 0usize..6), 0..300),
    ) {
        let card = words * 64 + 2 * odd + 1;
        let ratio32 = ratio as u32;
        let set = rf_ids(card, ratio32, &set);
        let probe = rf_ids(card, ratio32, &probe);
        let mut m = NullMeter;
        let mut rf = RfBitmap::with_ratio(card as usize, ratio);
        rf.set_list(&set, &mut m);
        let mut oracle = CountingMeter::new();
        let want = rf_count_tier(&rf, &probe, SimdTier::Scalar, &mut oracle);
        prop_assert_eq!(want, probe.iter().filter(|v| set.binary_search(v).is_ok()).count() as u32);
        for tier in TIERS {
            let mut got = CountingMeter::new();
            prop_assert_eq!(
                rf_count_tier(&rf, &probe, tier, &mut got),
                want,
                "tier={} ratio={} card={}", tier.label(), ratio, card
            );
            prop_assert_eq!(neutral(got.counts), neutral(oracle.counts), "tier={}", tier.label());
        }
        rf.clear_list(&set, &mut m);
        prop_assert!(rf.is_empty());
    }

    /// BMP-RF over arbitrary sets in a larger domain, so long probe arrays
    /// mix wholly filtered steps, partly filtered steps and scalar tails.
    #[test]
    fn rf_tiers_bit_identical_random(
        ratio in prop::sample::select(RF_RATIOS.to_vec()),
        set in sorted_set(40_000, 400),
        probe in sorted_set(40_000, 400),
    ) {
        let mut m = NullMeter;
        let mut rf = RfBitmap::with_ratio(40_000, ratio);
        rf.set_list(&set, &mut m);
        let mut oracle = CountingMeter::new();
        let want = rf_count_tier(&rf, &probe, SimdTier::Scalar, &mut oracle);
        for tier in TIERS {
            let mut got = CountingMeter::new();
            prop_assert_eq!(rf_count_tier(&rf, &probe, tier, &mut got), want, "tier={}", tier.label());
            prop_assert_eq!(neutral(got.counts), neutral(oracle.counts), "tier={}", tier.label());
        }
    }

    /// A key with the sign bit set lies past any test-sized RF bitmap: the
    /// chunk holding it must fail the unsigned range guard and panic like
    /// the oracle at every tier, wherever it sits in the probe array. A
    /// signed compare would let it through to the gathers instead.
    #[test]
    fn rf_high_bit_key_panics_at_every_tier(
        ratio in prop::sample::select(RF_RATIOS.to_vec()),
        len in 0usize..40,
        high in (1u32 << 31)..u32::MAX,
    ) {
        let mut rf = RfBitmap::with_ratio(1 << 12, ratio);
        rf.set_list(&(0..64).collect::<Vec<u32>>(), &mut NullMeter);
        let mut probe: Vec<u32> = (0..len as u32).map(|k| k * 7).collect();
        probe.push(high);
        prop_assert!(rf_panics(&rf, &probe, SimdTier::Scalar));
        for tier in TIERS {
            prop_assert!(rf_panics(&rf, &probe, tier), "tier={} len={}", tier.label(), len);
        }
    }

    /// BMP probes: all tiers agree with the scalar oracle on word-boundary
    /// probe sets, and the architecture-neutral meter events are identical.
    #[test]
    fn bmp_tiers_bit_identical_on_word_boundaries(
        set in word_boundary_set(200, 300),
        probe in word_boundary_set(200, 300),
    ) {
        let mut m = NullMeter;
        let mut bm = Bitmap::new(200 * 64);
        bm.set_list(&set, &mut m);
        let mut scalar = CountingMeter::new();
        let want = bmp_count_tier(&bm, &probe, SimdTier::Scalar, &mut scalar);
        for tier in TIERS {
            let mut got = CountingMeter::new();
            prop_assert_eq!(bmp_count_tier(&bm, &probe, tier, &mut got), want, "tier={}", tier.label());
            // Tier-invariant events: the modeled machines must see the same
            // work regardless of which host ISA executed the probes.
            prop_assert_eq!(got.counts.scalar_ops, scalar.counts.scalar_ops);
            prop_assert_eq!(got.counts.seq_bytes, scalar.counts.seq_bytes);
            prop_assert_eq!(got.counts.rand_accesses, scalar.counts.rand_accesses);
            prop_assert_eq!(got.counts.intersections, scalar.counts.intersections);
        }
        bm.clear_list(&set, &mut m);
        prop_assert!(bm.is_empty());
    }

    /// BMP probes over arbitrary (non-boundary-biased) sets, larger domain so
    /// the probe array exercises both full vector blocks and scalar tails.
    #[test]
    fn bmp_tiers_bit_identical_random(
        set in sorted_set(40_000, 400),
        probe in sorted_set(40_000, 400),
    ) {
        let mut m = NullMeter;
        let mut bm = Bitmap::new(40_000);
        bm.set_list(&set, &mut m);
        let want = bmp_count_tier(&bm, &probe, SimdTier::Scalar, &mut m);
        for tier in TIERS {
            prop_assert_eq!(bmp_count_tier(&bm, &probe, tier, &mut m), want, "tier={}", tier.label());
        }
    }

    /// Galloping lower bound: every tier lands on the same index as the
    /// scalar oracle from every start offset, whether the search ends in the
    /// linear prefix, the exponential phase or the final window.
    #[test]
    fn gallop_tiers_bit_identical(
        a in sorted_set(1 << 20, 600),
        start_frac in 0u32..100,
        target in 0u32..(1 << 20),
    ) {
        let start = a.len() * start_frac as usize / 100;
        let mut m = NullMeter;
        let want = gallop_lower_bound_tier(&a, start, target, SimdTier::Scalar, &mut m);
        for tier in TIERS {
            prop_assert_eq!(
                gallop_lower_bound_tier(&a, start, target, tier, &mut m),
                want,
                "tier={} start={} target={}", tier.label(), start, target
            );
        }
        // The index is a true lower bound.
        prop_assert_eq!(want.max(start), lower_bound(&a, target).max(start));
    }

    /// Galloping over values with the sign bit set: unsigned/signed compare
    /// confusion in the vector probe would misdirect the search here.
    #[test]
    fn gallop_tiers_high_bit_values(
        a in high_bit_set(500),
        target in 0u32..u32::MAX,
    ) {
        let mut m = NullMeter;
        let want = gallop_lower_bound_tier(&a, 0, target, SimdTier::Scalar, &mut m);
        for tier in TIERS {
            prop_assert_eq!(
                gallop_lower_bound_tier(&a, 0, target, tier, &mut m),
                want,
                "tier={} target={}", tier.label(), target
            );
        }
    }

    /// The vectorized linear prefix handles short end-of-array windows
    /// (fewer than 16 elements left) identically to the scalar scan.
    #[test]
    fn linear_prefix_tiers_bit_identical(
        a in sorted_set(10_000, 64),
        start_frac in 0u32..101,
        target in 0u32..10_000,
    ) {
        let start = a.len() * start_frac as usize / 100;
        let mut m = NullMeter;
        let want = linear_lower_bound_tier(&a, start, target, SimdTier::Scalar, &mut m);
        for tier in TIERS {
            prop_assert_eq!(
                linear_lower_bound_tier(&a, start, target, tier, &mut m),
                want,
                "tier={} start={} target={}", tier.label(), start, target
            );
        }
    }

    /// High-bit probe values through the BMP path: bitmap large enough to
    /// cover them is too big for a test, so probe a window offset near the
    /// top of a small domain instead — keys at `2^31 + k` against a bitmap
    /// of matching cardinality would OOB-panic identically at every tier,
    /// which the in-crate unit tests cover; here we pin the guard boundary:
    /// the last representable id of the bitmap, at the end of its last word.
    #[test]
    fn bmp_last_word_boundary(card_words in 1usize..64, probe in sorted_set(4_096, 200)) {
        let card = card_words * 64;
        let probe: Vec<u32> = probe.into_iter().filter(|&v| (v as usize) < card).collect();
        let mut m = NullMeter;
        let mut bm = Bitmap::new(card);
        // Set exactly the last id so every hit is at the final bit of the
        // final word — the far edge of the gather's valid range.
        let last = (card - 1) as u32;
        bm.set_list(&[last], &mut m);
        let want = u32::from(probe.contains(&last));
        for tier in TIERS {
            prop_assert_eq!(bmp_count_tier(&bm, &probe, tier, &mut m), want, "tier={}", tier.label());
        }
    }
}

/// Deterministic gallop sweep: targets placed to stop the search in every
/// phase — inside the 16-element linear prefix, in each of the first few
/// exponential steps, after long runs of steps, and past the end of the
/// array.
#[test]
fn gallop_every_phase_deterministic() {
    let a: Vec<u32> = (0..200_000u32).map(|x| x * 3).collect();
    let starts = [0usize, 1, 7, 15, 16, 17, 100, 199_990, 199_999, 200_000];
    // Distances from start chosen to land in: prefix (0..16), the first
    // exponential steps, more than eight steps out (>16*255), and OOB.
    let distances = [0usize, 1, 15, 16, 17, 100, 1_000, 5_000, 70_000, 500_000];
    let mut m = NullMeter;
    for &start in &starts {
        for &d in &distances {
            let idx = (start + d).min(a.len());
            let target = if idx < a.len() { a[idx] } else { u32::MAX };
            let want = gallop_lower_bound_tier(&a, start, target, SimdTier::Scalar, &mut m);
            for tier in TIERS {
                assert_eq!(
                    gallop_lower_bound_tier(&a, start, target, tier, &mut m),
                    want,
                    "tier={} start={start} dist={d}",
                    tier.label()
                );
                // Also probe target-1 and target+1 to land between elements.
                for t in [target.saturating_sub(1), target.saturating_add(1)] {
                    let w = gallop_lower_bound_tier(&a, start, t, SimdTier::Scalar, &mut m);
                    assert_eq!(
                        gallop_lower_bound_tier(&a, start, t, tier, &mut m),
                        w,
                        "tier={} start={start} dist={d} t={t}",
                        tier.label()
                    );
                }
            }
        }
    }
}

/// Deterministic word-boundary sweep for the bitmap probe: ids exactly at
/// 63/64/127/128 and the neighbors of every probed word edge.
#[test]
fn bmp_word_boundaries_deterministic() {
    let ids = [
        0u32, 1, 62, 63, 64, 65, 126, 127, 128, 191, 192, 255, 256, 319,
    ];
    let mut m = NullMeter;
    let mut bm = Bitmap::new(512);
    bm.set_list(&ids, &mut m);
    // Probe every id in 0..512 in one sorted array: 8 full vector blocks.
    let probe: Vec<u32> = (0..512).collect();
    for tier in TIERS {
        assert_eq!(
            bmp_count_tier(&bm, &probe, tier, &mut m),
            ids.len() as u32,
            "tier={}",
            tier.label()
        );
    }
    // Probe arrays of every length 1..=40 starting at each boundary, so
    // every (block, tail) split crosses a word edge somewhere.
    for &edge in &[62u32, 63, 64, 127, 128] {
        for len in 1..=40usize {
            let probe: Vec<u32> = (0..len as u32).map(|k| edge + k).collect();
            let want = bmp_count_tier(&bm, &probe, SimdTier::Scalar, &mut m);
            for tier in TIERS {
                assert_eq!(
                    bmp_count_tier(&bm, &probe, tier, &mut m),
                    want,
                    "tier={} edge={edge} len={len}",
                    tier.label()
                );
            }
        }
    }
}

/// Deterministic BMP-RF step shapes: steps where every key is filtered,
/// steps where every key hits, and every probe length from 0 to 47, so
/// every tail length of the 8-key wide steps after 0 to 5 full steps.
#[test]
fn rf_filtered_hit_and_tail_shapes() {
    let mut m = NullMeter;
    let card = 1 << 16;
    for ratio in RF_RATIOS {
        let mut rf = RfBitmap::with_ratio(card, ratio);
        // Ids 0..512 are all set; nothing at or above 8192 shares a range
        // with them at any swept ratio.
        rf.set_list(&(0..512).collect::<Vec<u32>>(), &mut m);
        // Every key filtered: no hit, no big access.
        let filtered: Vec<u32> = (0..48).map(|k| 8192 + k * 1000).collect();
        let mut meter = CountingMeter::new();
        for tier in TIERS {
            assert_eq!(rf_count_tier(&rf, &filtered, tier, &mut meter), 0);
        }
        assert_eq!(meter.counts.rand_accesses, 0, "ratio={ratio}");
        assert_rf_tiers_match(&rf, &filtered, "all filtered");
        // Every key hits.
        let hits: Vec<u32> = (0..48).map(|k| k * 10).collect();
        assert_eq!(assert_rf_tiers_match(&rf, &hits, "all hit"), 48);
        // Steps mixing hits and filtered keys, then every tail length.
        for steps in 0..3u32 {
            for tail in 0..16u32 {
                let len = steps * 16 + tail;
                let probe: Vec<u32> = (0..len).map(|k| k * 500).collect();
                assert_rf_tiers_match(&rf, &probe, &format!("ratio={ratio} len={len}"));
            }
        }
    }
}

/// Out-of-range keys at every tier. Debug builds assert that every key is
/// below the cardinality, before any vector guard runs; the unit test
/// `range_filter::tests::wide_paths_guard_out_of_range_keys_like_the_oracle`
/// checks the guards below that assertion. Release builds index like the
/// oracle: a key whose filter word lies past the small bitmap panics, as
/// does a key past the big bitmap whose range shares a filter bit with a
/// set id, while a key past the big bitmap whose filter bit is clear is
/// answered "absent".
#[test]
fn rf_out_of_range_keys_behave_like_the_oracle() {
    let mut m = NullMeter;
    // 100 ids in 2 big words (128 ids); one filter word of 64 ranges.
    let mut rf = RfBitmap::with_ratio(100, 4096);
    rf.set_list(&[5, 99], &mut m);
    if !cfg!(debug_assertions) {
        let mut ok: Vec<u32> = (0..20).collect();
        ok.extend([3 * 4096, 5 * 4096 + 7, 63 * 4096]);
        assert_eq!(assert_rf_tiers_match(&rf, &ok, "clear filter bit"), 1);
    }
    // 128 is the guard limit itself: the first id past the last big word.
    for bad in [128u32, 200, 4095, 64 * 4096, u32::MAX] {
        for len in [0usize, 7, 15, 16, 31] {
            let mut probe: Vec<u32> = (0..len as u32).collect();
            probe.push(bad);
            for tier in TIERS {
                assert!(
                    rf_panics(&rf, &probe, tier),
                    "tier={} bad={bad} len={len}",
                    tier.label()
                );
            }
        }
    }
}
