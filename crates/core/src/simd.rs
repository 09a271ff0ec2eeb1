//! Runtime SIMD dispatch and the shared i8 gather-sum kernel.
//!
//! The predictor hot path has two data-parallel inner loops: the 16-lane
//! feature-index computation ([`crate::plan::FeaturePlan`]) and the
//! 16-weight confidence gather-sum. Both have a branch-free scalar form
//! that LLVM autovectorizes on stable Rust, plus explicit AVX2 and
//! AVX-512 forms behind runtime feature detection. On the predictor's
//! per-access path the two loops are one:
//! [`crate::plan::FeaturePlan::predict`] sums the confidence in the lane
//! pass (at AVX-512 straight from the offset registers), with its gather
//! bound proved once per plan. [`gather_sum_i8`] here is the standalone,
//! per-call-checked form that [`crate::tables::WeightTables::confidence`]
//! and the perceptron baseline's smaller arena use. Which kernel family
//! runs is decided **once per process** here:
//!
//! * `MRP_NO_SIMD=1` (any value other than `0`/empty) forces the scalar
//!   kernels, so the fallback path stays exercised on AVX2 machines (CI
//!   runs one leg with this set);
//! * otherwise the widest of `avx512f`+`avx512bw` and `avx2` the
//!   hardware reports wins (AVX-512 needs both: the lane kernel's
//!   64-bit permutes/shifts and masked gather are F, the 512-bit
//!   `cvtepu16_epi32` widen in [`gather_sum_i8`] is BW).
//!
//! Every kernel pair is bit-identical by construction (same integer
//! operations, no floating point); `mrp-verify`'s kernel-identity pass
//! and the property tests in `tests/properties.rs` hold them to that.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which kernel family the hot paths dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Branch-free scalar kernels (autovectorized by LLVM).
    Scalar,
    /// Explicit `core::arch::x86_64` AVX2 kernels.
    Avx2,
    /// Explicit `core::arch::x86_64` AVX-512 kernels (requires
    /// `avx512f` + `avx512bw`).
    Avx512,
}

impl SimdLevel {
    /// Stable lowercase name (`"scalar"` / `"avx2"` / `"avx512"`), for
    /// telemetry and the `bench_snapshot` report.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// Whether the `MRP_NO_SIMD` environment variable asks for scalar-only
/// operation (set to anything except `0` or the empty string).
fn simd_disabled_by_env() -> bool {
    match std::env::var("MRP_NO_SIMD") {
        Ok(v) => !(v.is_empty() || v == "0"),
        Err(_) => false,
    }
}

/// Levels the hardware can run, scalar first (for exhaustive kernel
/// equivalence sweeps in tests and `mrp-verify`). Ignores `MRP_NO_SIMD`:
/// the env var constrains *dispatch*, not *capability*.
pub fn available_levels() -> &'static [SimdLevel] {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
        {
            return &[SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return &[SimdLevel::Scalar, SimdLevel::Avx2];
        }
    }
    &[SimdLevel::Scalar]
}

/// Typed override installed by `RuntimeOptions::install`
/// (`crate::options`): `0` = unset (the environment decides), `1` =
/// force scalar, `2` = dispatch to the widest hardware level regardless
/// of `MRP_NO_SIMD`.
static SCALAR_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Installs (or with `None` clears) the typed scalar-dispatch override.
/// `Some(true)` pins [`level`] to scalar, `Some(false)` to the widest
/// hardware level; `None` restores the `MRP_NO_SIMD` fallback.
pub fn set_scalar_override(force_scalar: Option<bool>) {
    let encoded = match force_scalar {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    };
    SCALAR_OVERRIDE.store(encoded, Ordering::Relaxed);
}

/// The level `MRP_NO_SIMD` and hardware detection alone would pick
/// (cached once per process; the typed override is layered on top by
/// [`level`]).
pub fn env_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if simd_disabled_by_env() {
            return SimdLevel::Scalar;
        }
        hardware_level()
    })
}

fn hardware_level() -> SimdLevel {
    *available_levels().last().expect("at least scalar")
}

/// The level the hot paths dispatch to: the typed override when one is
/// installed ([`set_scalar_override`]), otherwise the once-per-process
/// `MRP_NO_SIMD`-plus-hardware decision.
#[inline]
pub fn level() -> SimdLevel {
    match SCALAR_OVERRIDE.load(Ordering::Relaxed) {
        1 => SimdLevel::Scalar,
        2 => hardware_level(),
        _ => env_level(),
    }
}

/// Extra zeroed entries every i8 weight arena allocates past its logical
/// length. The AVX2 and AVX-512 gathers read 4 bytes per lane and keep
/// the low byte, so a gather at offset `o` needs `o + GATHER_PAD <=
/// weights.len()`; with the pad that holds for every in-arena offset,
/// the last one included.
pub const GATHER_PAD: usize = 4;

/// Sums the `i8` weights selected by `offsets`, dispatching to the AVX2
/// or AVX-512 gather when `level` asks for it and every offset leaves
/// [`GATHER_PAD`] readable bytes (callers allocate arenas with the pad;
/// anything else falls back to the scalar sum, which bounds-checks
/// normally). The reference form for arbitrary offsets; the predictor's
/// own path is [`crate::plan::FeaturePlan::predict`].
#[inline]
pub fn gather_sum_i8(weights: &[i8], offsets: &[u16], level: SimdLevel) -> i32 {
    #[cfg(target_arch = "x86_64")]
    {
        // Branchless bounds proof: one max-reduce over the offsets (LLVM
        // lowers it to vector max) and a single compare.
        let max = usize::from(offsets.iter().copied().max().unwrap_or(0));
        if level != SimdLevel::Scalar && max + GATHER_PAD <= weights.len() {
            use std::arch::is_x86_feature_detected as has;
            // SAFETY (both arms): the features are checked on the spot,
            // and every offset is at most `max`, so each 4-byte gather
            // ends at or before `max + GATHER_PAD <= weights.len()`.
            if level == SimdLevel::Avx512 && has!("avx512f") && has!("avx512bw") {
                return unsafe { gather_sum_i8_avx512(weights, offsets) };
            }
            if level == SimdLevel::Avx2 && has!("avx2") {
                return unsafe { gather_sum_i8_avx2(weights, offsets) };
            }
        }
    }
    let _ = level;
    gather_sum_i8_scalar(weights, offsets)
}

/// The scalar gather-sum (also the tail loop of the AVX2 kernel).
#[inline]
pub(crate) fn gather_sum_i8_scalar(weights: &[i8], offsets: &[u16]) -> i32 {
    offsets
        .iter()
        .map(|&o| i32::from(weights[usize::from(o)]))
        .sum()
}

/// AVX2 gather-sum: widens 8 offsets at a time to i32 lanes, gathers one
/// 32-bit word per weight at byte granularity, and sign-extends the low
/// byte of each before accumulating.
///
/// # Safety
///
/// Requires AVX2, and `usize::from(o) + GATHER_PAD <= weights.len()` for
/// every offset (each lane reads 4 bytes starting at its offset; the
/// scalar tail is bounds-checked). [`gather_sum_i8`] proves it with a
/// max-reduce per call, `FeaturePlan::predict` with the plan's
/// `max_offset` once per plan.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn gather_sum_i8_avx2(weights: &[i8], offsets: &[u16]) -> i32 {
    use core::arch::x86_64::*;

    debug_assert!(offsets
        .iter()
        .all(|&o| usize::from(o) + GATHER_PAD <= weights.len()));
    let base = weights.as_ptr() as *const i32;
    let mut acc = _mm256_setzero_si256();
    let chunks = offsets.len() / 8;
    for c in 0..chunks {
        let o = _mm_loadu_si128(offsets.as_ptr().add(c * 8) as *const __m128i);
        let vindex = _mm256_cvtepu16_epi32(o);
        // scale = 1: offsets address individual bytes of the i8 arena.
        let words = _mm256_i32gather_epi32(base, vindex, 1);
        let signed = _mm256_srai_epi32(_mm256_slli_epi32(words, 24), 24);
        acc = _mm256_add_epi32(acc, signed);
    }
    let mut lanes = [0i32; 8];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
    let mut sum: i32 = lanes.iter().sum();
    for &o in &offsets[chunks * 8..] {
        sum += i32::from(weights[usize::from(o)]);
    }
    sum
}

/// AVX-512 gather-sum: widens 16 offsets at a time to i32 lanes, gathers
/// one 32-bit word per weight at byte granularity, and sign-extends the
/// low byte of each before accumulating.
///
/// # Safety
///
/// Requires AVX-512 F+BW, and `usize::from(o) + GATHER_PAD <=
/// weights.len()` for every offset (each lane reads 4 bytes starting at
/// its offset; the scalar tail is bounds-checked). [`gather_sum_i8`]
/// proves it with a max-reduce per call.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn gather_sum_i8_avx512(weights: &[i8], offsets: &[u16]) -> i32 {
    use core::arch::x86_64::*;

    debug_assert!(offsets
        .iter()
        .all(|&o| usize::from(o) + GATHER_PAD <= weights.len()));
    let base = weights.as_ptr() as *const i32;
    let mut acc = _mm512_setzero_si512();
    let chunks = offsets.len() / 16;
    for c in 0..chunks {
        let o = _mm256_loadu_si256(offsets.as_ptr().add(c * 16) as *const __m256i);
        let vindex = _mm512_cvtepu16_epi32(o);
        // scale = 1: offsets address individual bytes of the i8 arena.
        let words = _mm512_i32gather_epi32(vindex, base, 1);
        let signed = _mm512_srai_epi32(_mm512_slli_epi32(words, 24), 24);
        acc = _mm512_add_epi32(acc, signed);
    }
    let mut sum = _mm512_reduce_add_epi32(acc);
    for &o in &offsets[chunks * 16..] {
        sum += i32::from(weights[usize::from(o)]);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_is_stable_and_available() {
        let l = level();
        assert_eq!(l, level(), "dispatch decision must be cached");
        assert!(available_levels().contains(&l) || l == SimdLevel::Scalar);
        assert_eq!(available_levels()[0], SimdLevel::Scalar);
    }

    #[test]
    fn gather_sum_matches_scalar_on_every_available_level() {
        // 67 weights + pad, offsets hitting the extremes and interior.
        let mut weights = vec![0i8; 67 + GATHER_PAD];
        for (i, w) in weights.iter_mut().take(67).enumerate() {
            *w = ((i as i32 * 37 % 64) - 32) as i8;
        }
        let offsets: Vec<u16> = (0..23).map(|i| (i * 29 % 67) as u16).collect();
        let expected = gather_sum_i8_scalar(&weights, &offsets);
        for &l in available_levels() {
            assert_eq!(gather_sum_i8(&weights, &offsets, l), expected, "{l:?}");
        }
    }

    #[test]
    fn gather_sum_without_pad_falls_back_to_scalar() {
        // Offsets reaching the last element of an unpadded slice must not
        // take the AVX2 path (it would read out of bounds); the safe
        // dispatch falls back and still returns the right sum.
        let weights = vec![5i8; 16];
        let offsets = vec![15u16; 16];
        for &l in available_levels() {
            assert_eq!(gather_sum_i8(&weights, &offsets, l), 80, "{l:?}");
        }
    }

    #[test]
    fn gather_sum_reads_the_last_entry_into_the_pad() {
        // A nonzero weight at the last arena entry, 17 times: the 4-byte
        // gathers there read three pad bytes and must keep only the low
        // one. 17 offsets cover a 16-wide chunk, an 8-wide chunk, and
        // the scalar tail.
        let arena = 40;
        let mut weights = vec![0i8; arena + GATHER_PAD];
        weights[arena - 1] = -7;
        let offsets = vec![(arena - 1) as u16; 17];
        for &l in available_levels() {
            assert_eq!(gather_sum_i8(&weights, &offsets, l), -119, "{l:?}");
        }
    }

    #[test]
    fn gather_sum_handles_empty_and_tail() {
        let weights = vec![1i8; 8 + GATHER_PAD];
        assert_eq!(gather_sum_i8(&weights, &[], level()), 0);
        // 9 offsets: one full AVX2 chunk plus a scalar tail.
        let offsets = vec![3u16; 9];
        for &l in available_levels() {
            assert_eq!(gather_sum_i8(&weights, &offsets, l), 9, "{l:?}");
        }
    }
}
