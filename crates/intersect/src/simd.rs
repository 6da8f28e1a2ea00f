//! Runtime-dispatched SIMD support.
//!
//! The paper vectorizes the block-wise merge with AVX2 on the CPU and
//! AVX-512 on the KNL. `std::simd` is nightly-only, so this crate uses the
//! stable `core::arch::x86_64` intrinsics behind runtime feature detection,
//! with portable scalar *lane emulation* as a fallback. The emulated kernels
//! perform the same block-structured work (and report identical meter
//! events), which is what the KNL machine model keys on; the real intrinsics
//! give the wall-clock speedups measured on the host CPU.
//!
//! Two orthogonal notions live here:
//!
//! * [`SimdLevel`] — the *lane width* of a block-structured kernel (how the
//!   work is shaped). Any level can be emulated on any host; the machine
//!   models request specific levels regardless of host ISA.
//! * [`SimdTier`] — the *instruction tier* actually used to execute wide
//!   operations on this host. Resolved once per process from `CNC_SIMD` /
//!   `--simd` / feature detection; every intrinsics call site is gated on
//!   the resolved tier so a forced `scalar` or `portable` run never executes
//!   a vector instruction.

use std::sync::atomic::{AtomicU8, Ordering};

/// Vector lane configuration for 32-bit integer kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// No vectorization: scalar merge blocks of 4 (paper's plain `MPS`).
    Scalar,
    /// 128-bit vectors, 4 × u32 lanes (SSE-class; always emulatable).
    Sse4,
    /// 256-bit vectors, 8 × u32 lanes (the paper's CPU: AVX2).
    Avx2,
    /// 512-bit vectors, 16 × u32 lanes (the paper's KNL: AVX-512).
    Avx512,
}

impl SimdLevel {
    /// Number of 32-bit lanes at this level.
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Sse4 => 4,
            SimdLevel::Avx2 => 8,
            SimdLevel::Avx512 => 16,
        }
    }

    /// Lane width matching the process-wide [`SimdTier`].
    ///
    /// Emulated execution works at any level on any host; `detect` is about
    /// the default work shape for the real CPU backend. It follows the
    /// resolved tier so `CNC_SIMD=scalar` also degrades the block-structured
    /// kernels, keeping forced runs honest end to end.
    pub fn detect() -> Self {
        match SimdTier::resolve() {
            SimdTier::Scalar => SimdLevel::Scalar,
            // The portable tier keeps the paper's CPU block shape (8 lanes)
            // and emulates it with scalar instructions.
            SimdTier::Portable => SimdLevel::Avx2,
            SimdTier::Avx2 => SimdLevel::Avx2,
            SimdTier::Avx512 => SimdLevel::Avx512,
        }
    }

    /// Human-readable name matching the paper's labels (`MPS-AVX2`, …).
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse4 => "sse4",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// The instruction tier the wide kernels dispatch to, resolved once per
/// process.
///
/// Ordering is by capability: every tier can execute the work of the tiers
/// below it. `Scalar` runs the bit-pinned oracle loops; `Portable` runs the
/// same 8-wide block shape with chunked scalar code (manual ILP, no ISA
/// requirement); `Avx2`/`Avx512` use real intrinsics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdTier {
    /// Plain scalar loops — the oracle paths every vector path is tested
    /// against bit for bit.
    Scalar,
    /// ISA-free chunked-scalar fallback with the same 8-wide block shape as
    /// the vector paths (what non-x86 targets run).
    Portable,
    /// Real AVX2 intrinsics: 8 × u32 probes, 4 × u64 gathers.
    Avx2,
    /// Real AVX-512F intrinsics: 16 × u32 probes, 8 × u64 gathers.
    Avx512,
}

/// Error returned when a [`SimdTier`] cannot be forced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimdTierError {
    /// The name did not parse; holds the offending string.
    Unknown(String),
    /// The tier parsed but the host CPU lacks the instructions.
    Unsupported(SimdTier),
}

impl std::fmt::Display for SimdTierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimdTierError::Unknown(s) => write!(
                f,
                "unknown SIMD tier {s:?} (expected scalar|portable|avx2|avx512)"
            ),
            SimdTierError::Unsupported(t) => {
                write!(f, "SIMD tier '{}' is not supported by this CPU", t.label())
            }
        }
    }
}

impl std::error::Error for SimdTierError {}

/// 0 = unresolved; otherwise `SimdTier::encode`.
static RESOLVED_TIER: AtomicU8 = AtomicU8::new(0);

impl SimdTier {
    /// All tiers, narrowest first (useful for sweeps in tests and benches).
    pub const ALL: [SimdTier; 4] = [
        SimdTier::Scalar,
        SimdTier::Portable,
        SimdTier::Avx2,
        SimdTier::Avx512,
    ];

    /// Name used by `CNC_SIMD` / `--simd` and reported in metrics.
    pub fn label(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Portable => "portable",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }

    /// Parse a tier name as accepted by `CNC_SIMD` / `--simd`.
    pub fn from_name(name: &str) -> Option<SimdTier> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdTier::Scalar),
            "portable" => Some(SimdTier::Portable),
            "avx2" => Some(SimdTier::Avx2),
            "avx512" => Some(SimdTier::Avx512),
            _ => None,
        }
    }

    /// Whether this host can execute the tier.
    pub fn supported(self) -> bool {
        match self {
            SimdTier::Scalar | SimdTier::Portable => true,
            SimdTier::Avx2 => avx2_available(),
            // The AVX-512 paths also lean on AVX2 helpers (e.g. the
            // 16-element window compare), so require both.
            SimdTier::Avx512 => avx512_available() && avx2_available(),
        }
    }

    /// Best tier the host supports (`Portable` when no x86 vector ISA is
    /// present, so every target gets the same code shape).
    pub fn detect_host() -> SimdTier {
        if SimdTier::Avx512.supported() {
            SimdTier::Avx512
        } else if SimdTier::Avx2.supported() {
            SimdTier::Avx2
        } else {
            SimdTier::Portable
        }
    }

    /// The process-wide tier: `CNC_SIMD` if set and valid, else host
    /// detection. Resolved once; later calls return the cached value.
    ///
    /// An unknown or unsupported `CNC_SIMD` value warns on stderr and falls
    /// back to detection (the env var is advisory); the `--simd` CLI flag
    /// goes through [`SimdTier::force`], which fails loudly instead.
    pub fn resolve() -> SimdTier {
        if let Some(t) = SimdTier::decode(RESOLVED_TIER.load(Ordering::Relaxed)) {
            return t;
        }
        let t = SimdTier::from_env_or_detect();
        match RESOLVED_TIER.compare_exchange(0, t.encode(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => t,
            // Another thread resolved first; agree with it.
            Err(prev) => SimdTier::decode(prev).unwrap_or(t),
        }
    }

    /// Force the process-wide tier (the `--simd` flag, and tier sweeps in
    /// benchmarks). Fails if the host cannot execute the tier.
    pub fn force(tier: SimdTier) -> Result<(), SimdTierError> {
        if !tier.supported() {
            return Err(SimdTierError::Unsupported(tier));
        }
        RESOLVED_TIER.store(tier.encode(), Ordering::Relaxed);
        Ok(())
    }

    /// [`SimdTier::force`] by name (CLI plumbing).
    pub fn force_named(name: &str) -> Result<SimdTier, SimdTierError> {
        let tier =
            SimdTier::from_name(name).ok_or_else(|| SimdTierError::Unknown(name.to_string()))?;
        SimdTier::force(tier)?;
        Ok(tier)
    }

    /// Whether call sites may execute AVX2 intrinsics under this tier.
    ///
    /// Availability is re-checked so a hand-constructed tier value (tests,
    /// `_tier` APIs) can never reach an illegal instruction.
    #[inline]
    pub(crate) fn use_avx2(self) -> bool {
        self >= SimdTier::Avx2 && avx2_available()
    }

    /// Whether call sites may execute AVX-512F intrinsics under this tier.
    #[inline]
    pub(crate) fn use_avx512(self) -> bool {
        self == SimdTier::Avx512 && avx512_available() && avx2_available()
    }

    fn encode(self) -> u8 {
        match self {
            SimdTier::Scalar => 1,
            SimdTier::Portable => 2,
            SimdTier::Avx2 => 3,
            SimdTier::Avx512 => 4,
        }
    }

    fn decode(v: u8) -> Option<SimdTier> {
        match v {
            1 => Some(SimdTier::Scalar),
            2 => Some(SimdTier::Portable),
            3 => Some(SimdTier::Avx2),
            4 => Some(SimdTier::Avx512),
            _ => None,
        }
    }

    fn from_env_or_detect() -> SimdTier {
        match std::env::var("CNC_SIMD") {
            Ok(raw) => match SimdTier::from_name(&raw) {
                Some(t) if t.supported() => t,
                Some(t) => {
                    eprintln!(
                        "warning: CNC_SIMD={} is not supported by this CPU; using {}",
                        t.label(),
                        SimdTier::detect_host().label()
                    );
                    SimdTier::detect_host()
                }
                None => {
                    eprintln!(
                        "warning: unrecognized CNC_SIMD value {raw:?} \
                         (expected scalar|portable|avx2|avx512); using {}",
                        SimdTier::detect_host().label()
                    );
                    SimdTier::detect_host()
                }
            },
            Err(_) => SimdTier::detect_host(),
        }
    }
}

/// Whether real AVX2 intrinsics can be used on this host.
#[inline]
pub(crate) fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static CACHED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *CACHED.get_or_init(|| is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether real AVX-512F intrinsics can be used on this host.
#[inline]
pub(crate) fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static CACHED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *CACHED.get_or_init(|| is_x86_feature_detected!("avx512f"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Count elements of a 16-element window that are `< target`, assuming
    /// the window is sorted ascending (so the result is also the lower-bound
    /// offset).
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and `window.len() == 16`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_less_than_16(window: &[u32], target: u32) -> usize {
        debug_assert_eq!(window.len(), 16);
        // SAFETY: caller guarantees 16 readable u32s; loadu has no alignment
        // requirement.
        unsafe {
            let ptr = window.as_ptr();
            let t = _mm256_set1_epi32(target as i32);
            let lo = _mm256_loadu_si256(ptr.cast());
            let hi = _mm256_loadu_si256(ptr.add(8).cast());
            // Unsigned `x < t` via the signed-compare bias trick: flip the
            // sign bit of both operands, then signed gt.
            let bias = _mm256_set1_epi32(i32::MIN);
            let tb = _mm256_xor_si256(t, bias);
            let lob = _mm256_xor_si256(lo, bias);
            let hib = _mm256_xor_si256(hi, bias);
            let lt_lo = _mm256_cmpgt_epi32(tb, lob);
            let lt_hi = _mm256_cmpgt_epi32(tb, hib);
            let m_lo = _mm256_movemask_ps(_mm256_castsi256_ps(lt_lo)) as u32;
            let m_hi = _mm256_movemask_ps(_mm256_castsi256_ps(lt_hi)) as u32;
            (m_lo.count_ones() + m_hi.count_ones()) as usize
        }
    }

    /// All-pairs equality count of two 8-element blocks using 8 rotations.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and both slices have length 8.
    #[target_feature(enable = "avx2")]
    pub unsafe fn block_pairs_eq_8(a: &[u32], b: &[u32]) -> u32 {
        debug_assert_eq!(a.len(), 8);
        debug_assert_eq!(b.len(), 8);
        // SAFETY: 8 readable u32s on both sides.
        unsafe {
            let va = _mm256_loadu_si256(a.as_ptr().cast());
            let mut vb = _mm256_loadu_si256(b.as_ptr().cast());
            let rot = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
            let mut mask = 0u32;
            // 8 rotations cover all 64 lane pairs.
            for _ in 0..8 {
                let eq = _mm256_cmpeq_epi32(va, vb);
                mask |= _mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u32;
                vb = _mm256_permutevar8x32_epi32(vb, rot);
            }
            // Each element of `a` matches at most one element of `b`
            // (strictly sorted inputs), so OR-ing masks then popcount is the
            // number of matched `a` lanes.
            mask.count_ones()
        }
    }

    /// All-pairs equality count of two 16-element blocks with AVX-512.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F is available and both slices have length 16.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn block_pairs_eq_16(a: &[u32], b: &[u32]) -> u32 {
        debug_assert_eq!(a.len(), 16);
        debug_assert_eq!(b.len(), 16);
        // SAFETY: 16 readable u32s on both sides.
        unsafe {
            let va = _mm512_loadu_si512(a.as_ptr().cast());
            let mut vb = _mm512_loadu_si512(b.as_ptr().cast());
            let rot = _mm512_setr_epi32(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0);
            let mut mask = 0u32;
            for _ in 0..16 {
                let eq: u16 = _mm512_cmpeq_epi32_mask(va, vb);
                mask |= eq as u32;
                vb = _mm512_permutexvar_epi32(rot, vb);
            }
            mask.count_ones()
        }
    }

    /// Bitmap probe loop, AVX2: for each 8-key chunk of `arr`, gather the
    /// `words[key >> 6]` 64-bit words (two 4-wide `vpgatherdq`), shift by
    /// `key & 63` (`vpsrlvq`), mask bit 0 and accumulate in 64-bit lanes.
    ///
    /// Returns `(hits, wide_blocks, tail_elems)`. A chunk containing a key
    /// whose word index would fall outside `words` is probed with the scalar
    /// loop instead, which panics via slice indexing exactly like the scalar
    /// oracle (inputs are only debug-checked for sortedness, so the vector
    /// path must stay memory-safe on arbitrary release-mode input).
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn bmp_count_avx2(words: &[u64], arr: &[u32]) -> (u32, u64, u64) {
        // Largest exclusive key bound with an in-range word index; keys are
        // u32 so a bound above u32::MAX means no key can be out of range.
        let no_oob = words.len() >= (1usize << 26);
        let limit = (words.len() as u64 * 64).min(u32::MAX as u64 + 1) as i64;
        let mut chunks = arr.chunks_exact(8);
        let mut hits = 0u32;
        let mut blocks = 0u64;
        // SAFETY: loads read 8 in-bounds u32s per chunk; gathers are guarded
        // by the `limit` compare so every word index is < words.len().
        unsafe {
            let base = words.as_ptr().cast::<i64>();
            let bias = _mm256_set1_epi32(i32::MIN);
            let limit_b = _mm256_xor_si256(_mm256_set1_epi32(limit as u32 as i32), bias);
            let sh_mask = _mm256_set1_epi32(63);
            let one = _mm256_set1_epi64x(1);
            let mut acc = _mm256_setzero_si256();
            for chunk in chunks.by_ref() {
                let kv = _mm256_loadu_si256(chunk.as_ptr().cast());
                if !no_oob {
                    // Unsigned `key >= limit` via the bias trick: any lane
                    // out of range sends the whole chunk to the scalar loop.
                    let kb = _mm256_xor_si256(kv, bias);
                    let ge = _mm256_cmpgt_epi32(kb, limit_b);
                    let eq = _mm256_cmpeq_epi32(kb, limit_b);
                    let oob = _mm256_or_si256(ge, eq);
                    if _mm256_movemask_ps(_mm256_castsi256_ps(oob)) != 0 {
                        for &k in chunk {
                            hits += ((words[(k >> 6) as usize] >> (k & 63)) & 1) as u32;
                        }
                        blocks += 1;
                        continue;
                    }
                }
                let idx = _mm256_srli_epi32::<6>(kv);
                let idx_lo = _mm256_castsi256_si128(idx);
                let idx_hi = _mm256_extracti128_si256::<1>(idx);
                let w_lo = _mm256_i32gather_epi64::<8>(base, idx_lo);
                let w_hi = _mm256_i32gather_epi64::<8>(base, idx_hi);
                let sh = _mm256_and_si256(kv, sh_mask);
                let sh_lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(sh));
                let sh_hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256::<1>(sh));
                let b_lo = _mm256_and_si256(_mm256_srlv_epi64(w_lo, sh_lo), one);
                let b_hi = _mm256_and_si256(_mm256_srlv_epi64(w_hi, sh_hi), one);
                acc = _mm256_add_epi64(acc, _mm256_add_epi64(b_lo, b_hi));
                blocks += 1;
            }
            // Horizontal sum of the four 64-bit lanes.
            let lo = _mm256_castsi256_si128(acc);
            let hi = _mm256_extracti128_si256::<1>(acc);
            let s = _mm_add_epi64(lo, hi);
            let s = _mm_add_epi64(s, _mm_unpackhi_epi64(s, s));
            hits += _mm_cvtsi128_si64(s) as u32;
        }
        let tail = chunks.remainder();
        for &k in tail {
            hits += ((words[(k >> 6) as usize] >> (k & 63)) & 1) as u32;
        }
        (hits, blocks, tail.len() as u64)
    }

    /// Bitmap probe loop, AVX-512F: 16 keys per iteration via two 8-wide
    /// 64-bit gathers. Same contract as [`bmp_count_avx2`].
    ///
    /// # Safety
    /// Caller must ensure AVX-512F is available.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn bmp_count_avx512(words: &[u64], arr: &[u32]) -> (u32, u64, u64) {
        let no_oob = words.len() >= (1usize << 26);
        let limit = (words.len() as u64 * 64).min(u32::MAX as u64 + 1) as u32 as i32;
        let mut chunks = arr.chunks_exact(16);
        let mut hits = 0u32;
        let mut blocks = 0u64;
        // SAFETY: loads read 16 in-bounds u32s per chunk; gathers are
        // guarded by the unsigned `limit` compare mask.
        unsafe {
            let base = words.as_ptr().cast::<i64>();
            let limit_v = _mm512_set1_epi32(limit);
            let sh_mask = _mm512_set1_epi32(63);
            let one = _mm512_set1_epi64(1);
            let mut acc = _mm512_setzero_si512();
            for chunk in chunks.by_ref() {
                let kv = _mm512_loadu_si512(chunk.as_ptr().cast());
                if !no_oob {
                    // _MM_CMPINT_NLT: unsigned `key >= limit`.
                    let oob = _mm512_cmp_epu32_mask::<5>(kv, limit_v);
                    if oob != 0 {
                        for &k in chunk {
                            hits += ((words[(k >> 6) as usize] >> (k & 63)) & 1) as u32;
                        }
                        blocks += 1;
                        continue;
                    }
                }
                let idx = _mm512_srli_epi32::<6>(kv);
                let idx_lo = _mm512_castsi512_si256(idx);
                let idx_hi = _mm512_extracti64x4_epi64::<1>(idx);
                let w_lo = _mm512_i32gather_epi64::<8>(idx_lo, base);
                let w_hi = _mm512_i32gather_epi64::<8>(idx_hi, base);
                let sh = _mm512_and_si512(kv, sh_mask);
                let sh_lo = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(sh));
                let sh_hi = _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64::<1>(sh));
                let b_lo = _mm512_and_si512(_mm512_srlv_epi64(w_lo, sh_lo), one);
                let b_hi = _mm512_and_si512(_mm512_srlv_epi64(w_hi, sh_hi), one);
                acc = _mm512_add_epi64(acc, _mm512_add_epi64(b_lo, b_hi));
                blocks += 1;
            }
            hits += _mm512_reduce_add_epi64(acc) as u32;
        }
        let tail = chunks.remainder();
        for &k in tail {
            hits += ((words[(k >> 6) as usize] >> (k & 63)) & 1) as u32;
        }
        (hits, blocks, tail.len() as u64)
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{
    block_pairs_eq_16, block_pairs_eq_8, bmp_count_avx2, bmp_count_avx512, count_less_than_16,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_and_labels() {
        assert_eq!(SimdLevel::Scalar.lanes(), 1);
        assert_eq!(SimdLevel::Sse4.lanes(), 4);
        assert_eq!(SimdLevel::Avx2.lanes(), 8);
        assert_eq!(SimdLevel::Avx512.lanes(), 16);
        assert_eq!(SimdLevel::Avx2.label(), "avx2");
    }

    #[test]
    fn detect_is_stable() {
        // Whatever the host supports, repeated calls agree.
        assert_eq!(SimdLevel::detect(), SimdLevel::detect());
        assert_eq!(SimdTier::resolve(), SimdTier::resolve());
    }

    #[test]
    fn tier_names_roundtrip() {
        for t in SimdTier::ALL {
            assert_eq!(SimdTier::from_name(t.label()), Some(t));
        }
        assert_eq!(SimdTier::from_name(" AVX2 "), Some(SimdTier::Avx2));
        assert_eq!(SimdTier::from_name("neon"), None);
    }

    #[test]
    fn scalar_and_portable_always_supported() {
        assert!(SimdTier::Scalar.supported());
        assert!(SimdTier::Portable.supported());
        assert!(SimdTier::detect_host() >= SimdTier::Portable);
    }

    #[test]
    fn tier_gates_respect_availability() {
        // A hand-constructed wide tier never claims intrinsics the host
        // lacks — `_tier` APIs rely on this for memory safety.
        assert!(!SimdTier::Scalar.use_avx2());
        assert!(!SimdTier::Portable.use_avx2());
        assert_eq!(SimdTier::Avx2.use_avx2(), avx2_available());
        assert_eq!(
            SimdTier::Avx512.use_avx512(),
            avx512_available() && avx2_available()
        );
    }

    #[test]
    fn unknown_tier_error_is_descriptive() {
        let e = SimdTierError::Unknown("fast".into());
        assert!(e.to_string().contains("fast"));
        let e = SimdTierError::Unsupported(SimdTier::Avx512);
        assert!(e.to_string().contains("avx512"));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn count_less_than_matches_scalar() {
        if !avx2_available() {
            return;
        }
        let w: Vec<u32> = (0..16).map(|x| x * 5 + 2).collect();
        for t in 0..90 {
            let want = w.iter().filter(|&&x| x < t).count();
            // SAFETY: avx2 checked, length is 16.
            let got = unsafe { count_less_than_16(&w, t) };
            assert_eq!(got, want, "t={t}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn count_less_than_handles_high_bit_values() {
        if !avx2_available() {
            return;
        }
        // Values above i32::MAX exercise the unsigned-compare bias trick.
        let w: Vec<u32> = (0..16).map(|x| u32::MAX - 160 + x * 10).collect();
        for t in [0u32, u32::MAX - 155, u32::MAX - 5, u32::MAX] {
            let want = w.iter().filter(|&&x| x < t).count();
            let got = unsafe { count_less_than_16(&w, t) };
            assert_eq!(got, want, "t={t}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn block_pairs_eq_8_counts_matches() {
        if !avx2_available() {
            return;
        }
        let a = [1u32, 3, 5, 7, 9, 11, 13, 15];
        let b = [0u32, 3, 4, 7, 8, 11, 14, 20];
        // matches: 3, 7, 11
        let got = unsafe { block_pairs_eq_8(&a, &b) };
        assert_eq!(got, 3);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn block_pairs_eq_16_counts_matches() {
        if !avx512_available() {
            return;
        }
        let a: Vec<u32> = (0..16).map(|x| x * 2).collect(); // evens 0..30
        let b: Vec<u32> = (0..16).map(|x| x * 3).collect(); // multiples of 3
        let want = a.iter().filter(|x| b.contains(x)).count() as u32;
        let got = unsafe { block_pairs_eq_16(&a, &b) };
        assert_eq!(got, want);
    }
}
