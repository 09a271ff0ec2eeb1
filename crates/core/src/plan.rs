//! Compiled feature plans: the hot-path form of [`Feature::index`].
//!
//! [`Feature::index`] is general but re-derives everything on every
//! access: it re-matches the kind enum, recomputes `table_size()` and its
//! `trailing_zeros()`, and re-folds the PC for every `xor_pc` feature.
//! [`FeaturePlan`] lowers the feature set once, at predictor
//! construction, into straight-line per-feature programs:
//!
//! * the raw-bit extraction becomes a precomputed shift + mask
//!   ([`Source`]), with the `offset` feature's 6-bit clamp folded into
//!   the mask;
//! * the fold width (`log2(table_size)`) is a stored constant;
//! * every `xor_pc` feature's table has [`MAX_TABLE_SIZE`] entries, so
//!   the PC fold width is always [`MAX_INDEX_BITS`] — the plan folds the
//!   PC **once per access** and shares it across all XOR features;
//! * each feature's base offset in the flat weight arena
//!   (see [`crate::tables::WeightTables`]) is baked in, so the plan
//!   emits precombined arena offsets and `confidence` becomes a single
//!   gather-sum over one slice.
//!
//! On top of the per-feature compiled form, the plan transposes itself
//! into **SoA lane arrays** ([`LanePlan`]): parallel padded vectors of
//! source selectors, shifts, masks, XOR masks, index masks, and arena
//! bases, one entry per feature. Together with the per-access transposed
//! value vector ([`LaneContext`]), index computation for all 16 features
//! becomes one branch-free pass — every lane evaluates
//!
//! ```text
//! raw = (vals[src] >> shift) & mask
//! v   = fold8(raw)                      // identity when raw < 256
//! v  ^= pc_fold8 & xor_mask
//! out = base + (v & index_mask)
//! ```
//!
//! which is bit-identical to the per-feature interpretation for every
//! feature [`Feature::new`] accepts: `Loop` folds are unreachable (all
//! table sizes are ≤ [`MAX_TABLE_SIZE`]), and for `Identity` lanes the
//! raw value is already below 256 so `fold8` is the identity. The pass is
//! written so LLVM autovectorizes it on stable Rust, with explicit AVX2
//! and AVX-512 forms dispatched at runtime (see [`crate::simd`]). The
//! AVX-512 form goes one step further: it never materializes the
//! [`LaneContext`] — the 32-slot value table lives in four zmm registers
//! built straight from the [`FeatureContext`], and lane selection is two
//! register permutes instead of a memory gather.
//!
//! [`FeaturePlan::predict`] is the predictor's per-access form: the same
//! lane pass that also sums the confidence. At AVX-512 each 8-lane group
//! gathers its weights straight from the offset register, masked to the
//! live lanes; AVX2 and scalar run the lane pass and then sum the stored
//! offsets. The gather bound is proved once per plan (`max_offset`, the
//! largest `base + index_mask` over live lanes) and checked with one
//! compare per call, so no per-access max-reduce runs.
//!
//! The lowering is semantics-preserving: for every context, the emitted
//! offset is exactly `base(feature) + Feature::index(ctx)`. Unit tests
//! here, the property tests in `tests/properties.rs`, and `mrp-verify`'s
//! kernel-identity pass hold it to that bit-for-bit.

use crate::context::{FeatureContext, HISTORY_DEPTH};
use crate::feature::{fold, Feature, FeatureKind, MAX_INDEX_BITS, MAX_TABLE_SIZE};
use crate::simd::{self, SimdLevel, GATHER_PAD};

/// Where a compiled feature reads its raw bits from. Shift/mask are
/// precomputed from the feature's bit range with `Feature::index`'s
/// clamping rules baked in.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// `pc(..)`: bits of the `which`-th most recent PC.
    PcHist { which: u16, shift: u32, mask: u64 },
    /// `address(..)`: bits of the physical address.
    Address { shift: u32, mask: u64 },
    /// `offset(..)`: bits of the 6-bit block offset; the `& 0x3f` clamp
    /// is folded into `mask`.
    Offset { shift: u32, mask: u64 },
    /// `bias(..)`: the constant 0.
    Zero,
    /// `burst(..)`: 1 iff the access is to the set's MRU block.
    Mru,
    /// `insert(..)`: 1 iff the access is a miss fill.
    Insert,
    /// `lastmiss(..)`: 1 iff the previous access to the set missed.
    LastMiss,
}

/// Shift/mask pair reproducing `field(value, begin, end)`.
fn field_plan(begin: u8, end: u8) -> (u32, u64) {
    let width = u32::from(end - begin) + 1;
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    (u32::from(begin.min(63)), mask)
}

/// How a feature's raw bits reach its table index — decided once at
/// lowering instead of looping [`fold`] on every access.
#[derive(Debug, Clone, Copy)]
enum FoldKind {
    /// The source mask already guarantees `raw < table_size`: the fold
    /// loop would run at most one iteration and return `raw` unchanged.
    Identity,
    /// Wide field into a [`MAX_TABLE_SIZE`]-entry table: a fixed
    /// shift-XOR cascade computes the 8-bit fold branch-free.
    Fold8,
    /// Fallback to the reference fold loop (unreachable for any feature
    /// [`Feature::new`] accepts, kept for safety).
    Loop,
}

/// One feature lowered to straight-line index computation.
#[derive(Debug, Clone, Copy)]
pub struct CompiledFeature {
    source: Source,
    /// `log2(table_size)`; 0 means a single-entry table (index is 0).
    fold_bits: u32,
    fold_kind: FoldKind,
    /// `table_size - 1`.
    index_mask: u64,
    /// XOR the folded value with the shared 8-bit PC fold.
    xor_pc: bool,
    /// This feature's base offset in the flat weight arena.
    base: u16,
}

/// XOR-fold of all eight bytes of `value`: bit-identical to
/// `fold(value, 8)` but branch-free.
#[inline]
fn fold8(mut value: u64) -> u64 {
    value ^= value >> 32;
    value ^= value >> 16;
    value ^= value >> 8;
    value & 0xff
}

impl CompiledFeature {
    fn lower(feature: &Feature, base: u16) -> Self {
        let source = match feature.kind {
            FeatureKind::Pc { begin, end, which } => {
                let (shift, mask) = field_plan(begin, end);
                Source::PcHist {
                    which: u16::from(which),
                    shift,
                    mask,
                }
            }
            FeatureKind::Address { begin, end } => {
                let (shift, mask) = field_plan(begin, end);
                Source::Address { shift, mask }
            }
            FeatureKind::Offset { begin, end } => {
                // field(address & 0x3f, begin.min(5), end.min(5)): shifting
                // the pre-masked offset equals masking the shifted address
                // with `0x3f >> shift`, so both masks merge into one.
                let (shift, mask) = field_plan(begin.min(5), end.min(5));
                Source::Offset {
                    shift,
                    mask: mask & (0x3f >> shift),
                }
            }
            FeatureKind::Bias => Source::Zero,
            FeatureKind::Burst => Source::Mru,
            FeatureKind::Insert => Source::Insert,
            FeatureKind::LastMiss => Source::LastMiss,
        };
        let table_size = feature.table_size();
        debug_assert!(
            !feature.xor_pc || table_size == MAX_TABLE_SIZE,
            "xor_pc implies a full-size table; the shared PC fold relies on it"
        );
        let fold_bits = table_size.trailing_zeros();
        // The widest value each source can produce, for fold elision.
        let source_max = match source {
            Source::PcHist { mask, .. }
            | Source::Address { mask, .. }
            | Source::Offset { mask, .. } => mask,
            Source::Zero => 0,
            Source::Mru | Source::Insert | Source::LastMiss => 1,
        };
        let fold_kind = if fold_bits >= 64 || source_max < (1u64 << fold_bits) {
            FoldKind::Identity
        } else if fold_bits == MAX_INDEX_BITS {
            FoldKind::Fold8
        } else {
            FoldKind::Loop
        };
        CompiledFeature {
            source,
            fold_bits,
            fold_kind,
            index_mask: table_size as u64 - 1,
            xor_pc: feature.xor_pc,
            base,
        }
    }

    /// The arena offset this feature selects for `ctx`. `pc_fold8` must
    /// be [`shared_pc_fold`] of `ctx.pc`.
    #[inline]
    pub fn index_offset(&self, ctx: &FeatureContext<'_>, pc_fold8: u64) -> u16 {
        let raw = match self.source {
            Source::PcHist { which, shift, mask } => {
                (ctx.history_pc(usize::from(which)) >> shift) & mask
            }
            Source::Address { shift, mask } => (ctx.address >> shift) & mask,
            Source::Offset { shift, mask } => (ctx.address >> shift) & mask,
            Source::Zero => 0,
            Source::Mru => u64::from(ctx.is_mru),
            Source::Insert => u64::from(ctx.is_insert),
            Source::LastMiss => u64::from(ctx.last_miss),
        };
        if self.fold_bits == 0 {
            return self.base;
        }
        let mut value = match self.fold_kind {
            FoldKind::Identity => raw,
            FoldKind::Fold8 => fold8(raw),
            FoldKind::Loop => fold(raw, self.fold_bits),
        };
        if self.xor_pc {
            value ^= pc_fold8;
        }
        self.base + (value & self.index_mask) as u16
    }
}

/// The 8-bit PC fold shared by every `xor_pc` feature in an access
/// (bit-identical to `fold(pc, MAX_INDEX_BITS)`).
#[inline]
pub fn shared_pc_fold(pc: u64) -> u64 {
    fold8(pc)
}

/// Slots in the transposed per-access value vector ([`LaneContext`]). A
/// power of two so lane source selectors stay provably in bounds with a
/// mask instead of a branch.
pub const LANE_VALS: usize = 32;

/// `vals` slot holding the current PC (also the fallback for history
/// depths beyond [`HISTORY_DEPTH`]).
const V_PC: usize = HISTORY_DEPTH;
/// `vals` slot holding the access address.
const V_ADDR: usize = HISTORY_DEPTH + 1;
/// `vals` slot holding the `burst` flag.
const V_MRU: usize = HISTORY_DEPTH + 2;
/// `vals` slot holding the `insert` flag.
const V_INSERT: usize = HISTORY_DEPTH + 3;
/// `vals` slot holding the `lastmiss` flag.
const V_LASTMISS: usize = HISTORY_DEPTH + 4;
/// `vals` slot wired to the constant 0 (bias and pad lanes).
const V_ZERO: usize = HISTORY_DEPTH + 5;

/// Lane count granularity: plans pad to a multiple of this with inert
/// lanes so every kernel runs whole vector-width groups only (the AVX2
/// kernel steps 4 lanes, the AVX-512 kernel 8; both divide 16).
const LANE_WIDTH: usize = 16;

/// One access, transposed for lane-parallel index computation: every
/// value any feature can source, laid out so a lane reads `vals[src]`.
///
/// Building this once per access replaces the per-feature `match` on
/// [`Source`] (and the bounds-checked `history_pc` lookup) with a single
/// gatherable array; the 8-bit PC fold is computed here too.
#[derive(Debug, Clone, Copy)]
pub struct LaneContext {
    vals: [u64; LANE_VALS],
    pc_fold8: u64,
}

impl LaneContext {
    /// Transposes `ctx`. History slots beyond the recorded depth hold the
    /// current PC, matching [`FeatureContext::history_pc`]'s fallback.
    #[inline]
    pub fn new(ctx: &FeatureContext<'_>) -> Self {
        let mut vals = [0u64; LANE_VALS];
        let depth = ctx.pc_history.len().min(HISTORY_DEPTH);
        vals[..depth].copy_from_slice(&ctx.pc_history[..depth]);
        for slot in &mut vals[depth..HISTORY_DEPTH] {
            *slot = ctx.pc;
        }
        vals[V_PC] = ctx.pc;
        vals[V_ADDR] = ctx.address;
        vals[V_MRU] = u64::from(ctx.is_mru);
        vals[V_INSERT] = u64::from(ctx.is_insert);
        vals[V_LASTMISS] = u64::from(ctx.last_miss);
        LaneContext {
            vals,
            pc_fold8: fold8(ctx.pc),
        }
    }
}

/// The feature plan transposed into SoA lane arrays: element `i` of every
/// array parameterizes feature `i`'s index computation, padded to a
/// [`LANE_WIDTH`] multiple with inert lanes (mask 0, index mask 0, base
/// 0 — they emit offset 0, truncated away after the kernel).
#[derive(Debug, Clone)]
struct LanePlan {
    /// [`LaneContext`] slot each lane reads (always `< LANE_VALS`).
    src: Box<[u32]>,
    /// Right shift applied to the sourced value (≤ 63).
    shift: Box<[u64]>,
    /// Field mask applied after the shift.
    mask: Box<[u64]>,
    /// `0xff` for `xor_pc` lanes, 0 otherwise.
    xor_mask: Box<[u64]>,
    /// `table_size - 1`.
    index_mask: Box<[u64]>,
    /// Arena base of the lane's table.
    base: Box<[u64]>,
    /// Lane count (a [`LANE_WIDTH`] multiple, ≥ the feature count).
    padded: usize,
    /// Live lanes (the feature count); lanes `live..padded` are pad.
    live: usize,
    /// The largest `base + index_mask` over live lanes. A lane emits
    /// `base + (v & index_mask)`, so every live offset is at most this:
    /// the one bound the fused gather needs, proved once per plan so a
    /// call checks it with one compare.
    max_offset: usize,
    /// Whether every lane fits the universal branch-free formula. Always
    /// true for [`Feature::new`] features; cleared defensively for `Loop`
    /// folds or out-of-range history depths, falling the plan back to the
    /// per-feature compiled path.
    ok: bool,
}

impl LanePlan {
    fn build(compiled: &[CompiledFeature]) -> Self {
        let padded = compiled.len().next_multiple_of(LANE_WIDTH).max(LANE_WIDTH);
        let mut plan = LanePlan {
            src: vec![V_ZERO as u32; padded].into_boxed_slice(),
            shift: vec![0; padded].into_boxed_slice(),
            mask: vec![0; padded].into_boxed_slice(),
            xor_mask: vec![0; padded].into_boxed_slice(),
            index_mask: vec![0; padded].into_boxed_slice(),
            base: vec![0; padded].into_boxed_slice(),
            padded,
            live: compiled.len(),
            max_offset: 0,
            ok: true,
        };
        for (i, c) in compiled.iter().enumerate() {
            let (slot, shift, mask) = match c.source {
                Source::PcHist { which, shift, mask } => {
                    // `vals` keeps HISTORY_DEPTH history slots; deeper
                    // depths would alias the PC fallback even when a
                    // caller supplies a longer history slice, so they
                    // fall back (unreachable for valid features).
                    if usize::from(which) >= HISTORY_DEPTH {
                        plan.ok = false;
                    }
                    (usize::from(which).min(V_PC) as u32, shift, mask)
                }
                Source::Address { shift, mask } | Source::Offset { shift, mask } => {
                    (V_ADDR as u32, shift, mask)
                }
                Source::Zero => (V_ZERO as u32, 0, 0),
                Source::Mru => (V_MRU as u32, 0, 1),
                Source::Insert => (V_INSERT as u32, 0, 1),
                Source::LastMiss => (V_LASTMISS as u32, 0, 1),
            };
            // `fold8` is exact for Identity lanes only because their raw
            // value is below 256; Loop folds (and any fold wider than
            // MAX_INDEX_BITS) have no lane form.
            if matches!(c.fold_kind, FoldKind::Loop) || c.fold_bits > MAX_INDEX_BITS {
                plan.ok = false;
            }
            plan.src[i] = slot;
            plan.shift[i] = u64::from(shift);
            plan.mask[i] = mask;
            plan.xor_mask[i] = if c.xor_pc { 0xff } else { 0 };
            plan.index_mask[i] = c.index_mask;
            plan.base[i] = u64::from(c.base);
            plan.max_offset = plan
                .max_offset
                .max((u64::from(c.base) + c.index_mask) as usize);
        }
        plan
    }
}

/// The branch-free lane pass in scalar form. Written over fixed-bound
/// slices with masked `vals` indexing so LLVM autovectorizes it (and so
/// no bounds check survives into the loop).
fn lanes_scalar(plan: &LanePlan, lane_ctx: &LaneContext, out: &mut [u16]) {
    let n = plan.padded;
    let (src, shift) = (&plan.src[..n], &plan.shift[..n]);
    let (mask, xor_mask) = (&plan.mask[..n], &plan.xor_mask[..n]);
    let (index_mask, base) = (&plan.index_mask[..n], &plan.base[..n]);
    let out = &mut out[..n];
    let pc_fold8 = lane_ctx.pc_fold8;
    for i in 0..n {
        let raw = (lane_ctx.vals[src[i] as usize & (LANE_VALS - 1)] >> shift[i]) & mask[i];
        let mut v = raw ^ (raw >> 32);
        v ^= v >> 16;
        v ^= v >> 8;
        v &= 0xff;
        v ^= pc_fold8 & xor_mask[i];
        out[i] = (base[i] + (v & index_mask[i])) as u16;
    }
}

/// The same lane pass as 4-wide AVX2: one `vals` gather, variable shift,
/// and the fold as three shift-XOR rounds per group of four lanes.
///
/// # Safety
///
/// Requires AVX2. Every `plan.src` entry must be `< LANE_VALS`, because
/// the `vals` gather reads `lane_ctx.vals[src]` unchecked
/// (`LanePlan::build` emits no other selector). The plan arrays hold
/// `plan.padded` entries, a multiple of 4, so each group's 4-lane loads
/// stay inside them. `out` must hold at least `plan.padded` entries.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lanes_avx2(plan: &LanePlan, lane_ctx: &LaneContext, out: &mut [u16]) {
    use core::arch::x86_64::*;

    debug_assert!(out.len() >= plan.padded);
    debug_assert!(plan.src.iter().all(|&s| (s as usize) < LANE_VALS));
    let vals = lane_ctx.vals.as_ptr() as *const i64;
    let pc_fold = _mm256_set1_epi64x(lane_ctx.pc_fold8 as i64);
    let byte_mask = _mm256_set1_epi64x(0xff);
    let mut i = 0;
    while i < plan.padded {
        let src32 = _mm_loadu_si128(plan.src.as_ptr().add(i) as *const __m128i);
        let src64 = _mm256_cvtepu32_epi64(src32);
        let raw = _mm256_i64gather_epi64(vals, src64, 8);
        let shift = _mm256_loadu_si256(plan.shift.as_ptr().add(i) as *const __m256i);
        let mut v = _mm256_srlv_epi64(raw, shift);
        v = _mm256_and_si256(
            v,
            _mm256_loadu_si256(plan.mask.as_ptr().add(i) as *const __m256i),
        );
        v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 32));
        v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 16));
        v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 8));
        v = _mm256_and_si256(v, byte_mask);
        let xor_mask = _mm256_loadu_si256(plan.xor_mask.as_ptr().add(i) as *const __m256i);
        v = _mm256_xor_si256(v, _mm256_and_si256(pc_fold, xor_mask));
        v = _mm256_and_si256(
            v,
            _mm256_loadu_si256(plan.index_mask.as_ptr().add(i) as *const __m256i),
        );
        v = _mm256_add_epi64(
            v,
            _mm256_loadu_si256(plan.base.as_ptr().add(i) as *const __m256i),
        );
        let mut lanes = [0i64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        out[i] = lanes[0] as u16;
        out[i + 1] = lanes[1] as u16;
        out[i + 2] = lanes[2] as u16;
        out[i + 3] = lanes[3] as u16;
        i += 4;
    }
}

/// The lane pass as 8-wide AVX-512, fed straight from the
/// [`FeatureContext`]: the 32-slot value table is built in four zmm
/// registers (history slots masked-loaded with the current-PC fallback),
/// lane selection is two `vpermi2q` register permutes blended on source
/// bit 4, and the eight u16 offsets are narrowed with one `vpmovqw`
/// store. No [`LaneContext`] is materialized and no memory gather reads
/// the value table.
///
/// With `SUM` the kernel is also the fused predict: each group gathers
/// its selected weights straight from the offset register with
/// `vpgatherqd`, masked to the group's live lanes so pad lanes load and
/// add nothing, and the sum is reduced once after the last group. The
/// offsets are still stored, for sampler training. Without `SUM`,
/// `weights` is not read and the kernel returns 0.
///
/// # Safety
///
/// Requires AVX-512 F. `out` must hold at least `plan.padded` entries
/// (each group stores `out[i..i + 8]`), and the plan arrays hold
/// `plan.padded` entries, a multiple of 8. With `SUM`,
/// `plan.max_offset + GATHER_PAD <= weights.len()` must hold: every live
/// lane's offset is `base + (v & index_mask) <= plan.max_offset`, so its
/// 4-byte gather reads inside `weights`. Selectors `>= LANE_VALS` would
/// read a wrong slot but no memory (the permutes read registers).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn lanes_avx512<const SUM: bool>(
    plan: &LanePlan,
    ctx: &FeatureContext<'_>,
    out: &mut [u16],
    weights: &[i8],
) -> i32 {
    use core::arch::x86_64::*;

    debug_assert!(out.len() >= plan.padded);
    debug_assert!(plan.src.iter().all(|&s| (s as usize) < LANE_VALS));
    debug_assert!(!SUM || plan.max_offset + GATHER_PAD <= weights.len());
    // Value-table slots 0..8 and 8..16: history entries, with slots past
    // the recorded depth holding the current PC (the `history_pc`
    // fallback `LaneContext::new` also applies). Masked loads read only
    // the selected elements, so short histories never touch past-the-end
    // memory.
    let depth = ctx.pc_history.len().min(HISTORY_DEPTH);
    let pc = _mm512_set1_epi64(ctx.pc as i64);
    let hist = ctx.pc_history.as_ptr() as *const i64;
    let k0 = (1u32 << depth.min(8)) - 1;
    let k1 = (1u32 << depth.saturating_sub(8).min(8)) - 1;
    let v0 = _mm512_mask_loadu_epi64(pc, k0 as u8, hist);
    let v1 = _mm512_mask_loadu_epi64(pc, k1 as u8, hist.add(8));
    // Slots 16..24: the last two history entries, then pc / address /
    // flags / zero — the same layout as `LaneContext::vals`.
    let h16 = if depth > 16 {
        *hist.add(16)
    } else {
        ctx.pc as i64
    };
    let h17 = if depth > 17 {
        *hist.add(17)
    } else {
        ctx.pc as i64
    };
    let v2 = _mm512_set_epi64(
        0,
        i64::from(ctx.last_miss),
        i64::from(ctx.is_insert),
        i64::from(ctx.is_mru),
        ctx.address as i64,
        ctx.pc as i64,
        h17,
        h16,
    );
    // Slots 24..32 are the all-zero pad plane.
    let v3 = _mm512_setzero_si512();

    let pc_fold = _mm512_set1_epi64(fold8(ctx.pc) as i64);
    let byte_mask = _mm512_set1_epi64(0xff);
    let high_bit = _mm512_set1_epi64(16);
    let arena = weights.as_ptr() as *const i32;
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i < plan.padded {
        let src32 = _mm256_loadu_si256(plan.src.as_ptr().add(i) as *const __m256i);
        let idx = _mm512_cvtepu32_epi64(src32);
        // vpermi2q reads idx bits 3:0, so `lo` selects within slots
        // 0..16 and `hi` within 16..32; bit 4 picks the half.
        let lo = _mm512_permutex2var_epi64(v0, idx, v1);
        let hi = _mm512_permutex2var_epi64(v2, idx, v3);
        let in_hi = _mm512_test_epi64_mask(idx, high_bit);
        let raw = _mm512_mask_blend_epi64(in_hi, lo, hi);
        let shift = _mm512_loadu_epi64(plan.shift.as_ptr().add(i) as *const i64);
        let mut v = _mm512_srlv_epi64(raw, shift);
        v = _mm512_and_si512(
            v,
            _mm512_loadu_epi64(plan.mask.as_ptr().add(i) as *const i64),
        );
        v = _mm512_xor_si512(v, _mm512_srli_epi64(v, 32));
        v = _mm512_xor_si512(v, _mm512_srli_epi64(v, 16));
        v = _mm512_xor_si512(v, _mm512_srli_epi64(v, 8));
        v = _mm512_and_si512(v, byte_mask);
        let xor_mask = _mm512_loadu_epi64(plan.xor_mask.as_ptr().add(i) as *const i64);
        v = _mm512_xor_si512(v, _mm512_and_si512(pc_fold, xor_mask));
        v = _mm512_and_si512(
            v,
            _mm512_loadu_epi64(plan.index_mask.as_ptr().add(i) as *const i64),
        );
        v = _mm512_add_epi64(
            v,
            _mm512_loadu_epi64(plan.base.as_ptr().add(i) as *const i64),
        );
        let packed = _mm512_cvtepi64_epi16(v);
        _mm_storeu_si128(out.as_mut_ptr().add(i) as *mut __m128i, packed);
        if SUM {
            let live = ((1u32 << plan.live.saturating_sub(i).min(8)) - 1) as __mmask8;
            // scale = 1: offsets address individual bytes of the i8 arena.
            let words = _mm512_mask_i64gather_epi32(_mm256_setzero_si256(), live, v, arena, 1);
            acc = _mm256_add_epi32(acc, _mm256_srai_epi32(_mm256_slli_epi32(words, 24), 24));
        }
        i += 8;
    }
    _mm512_reduce_add_epi32(_mm512_zextsi256_si512(acc))
}

/// A feature set lowered for the hot path, plus the arena geometry the
/// matching [`crate::tables::WeightTables`] uses.
#[derive(Debug, Clone)]
pub struct FeaturePlan {
    compiled: Vec<CompiledFeature>,
    /// The compiled features transposed into SoA lane arrays.
    lanes: LanePlan,
    /// Whether any feature XORs with the PC (skip the shared fold if not).
    any_xor: bool,
    arena_len: usize,
}

impl FeaturePlan {
    /// Lowers `features`, assigning arena base offsets in feature order
    /// (the same layout [`crate::tables::WeightTables`] allocates).
    ///
    /// # Panics
    ///
    /// Panics if the combined table sizes overflow the 16-bit offset
    /// space (would need > 256 full-size features).
    pub fn new(features: &[Feature]) -> Self {
        let mut base = 0usize;
        let compiled = features
            .iter()
            .map(|f| {
                let c =
                    CompiledFeature::lower(f, u16::try_from(base).expect("arena offsets fit u16"));
                base += f.table_size();
                c
            })
            .collect();
        assert!(
            base <= usize::from(u16::MAX) + 1,
            "weight arena exceeds u16 offsets"
        );
        let compiled: Vec<CompiledFeature> = compiled;
        FeaturePlan {
            lanes: LanePlan::build(&compiled),
            compiled,
            any_xor: features.iter().any(|f| f.xor_pc),
            arena_len: base,
        }
    }

    /// Number of compiled features.
    pub fn len(&self) -> usize {
        self.compiled.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.compiled.is_empty()
    }

    /// Total weight-arena entries across all features.
    pub fn arena_len(&self) -> usize {
        self.arena_len
    }

    /// Computes every feature's arena offset for an access into `out`
    /// (cleared first). Allocation-free on the hot path once `out` has
    /// warmed to the plan's padded lane count; dispatches to the lane
    /// kernel family [`crate::simd::level`] selected at startup.
    #[inline]
    pub fn compute_offsets(&self, ctx: &FeatureContext<'_>, out: &mut Vec<u16>) {
        self.compute_offsets_with(simd::level(), ctx, out);
    }

    /// [`Self::compute_offsets`] with an explicit kernel level, for the
    /// kernel-equivalence sweeps in `mrp-verify` and the benches. Falls
    /// back to the per-feature compiled path for plans outside the lane
    /// formula's domain (never produced by [`Feature::new`] features).
    pub fn compute_offsets_with(
        &self,
        level: SimdLevel,
        ctx: &FeatureContext<'_>,
        out: &mut Vec<u16>,
    ) {
        if !self.lanes.ok {
            self.compute_offsets_compiled(ctx, out);
            return;
        }
        out.clear();
        out.resize(self.lanes.padded, 0);
        // SAFETY: without `SUM` no weight is read.
        unsafe { self.run_lane_kernel::<false>(level, ctx, out, &[]) };
        out.truncate(self.lanes.live);
    }

    /// The predictor's per-access predict: computes every feature's arena
    /// offset into `out` (as [`Self::compute_offsets`] does, for sampler
    /// training) and returns the sum of the `weights` they select — the
    /// confidence — from the same lane pass. `weights` is the padded
    /// arena ([`crate::tables::WeightTables::padded_arena`]).
    #[inline]
    pub fn predict(&self, ctx: &FeatureContext<'_>, out: &mut Vec<u16>, weights: &[i8]) -> i32 {
        self.predict_with(simd::level(), ctx, out, weights)
    }

    /// [`Self::predict`] with an explicit kernel level, for verification.
    ///
    /// The gather bound is proved once per plan (`LanePlan::max_offset`),
    /// so each call costs one compare. An arena too short for it, or a
    /// plan the lanes cannot express, takes [`Self::compute_offsets_with`]
    /// plus the checked [`simd::gather_sum_i8`] instead: same result, and
    /// a mismatched arena can never make the gather read out of bounds.
    #[inline]
    pub fn predict_with(
        &self,
        level: SimdLevel,
        ctx: &FeatureContext<'_>,
        out: &mut Vec<u16>,
        weights: &[i8],
    ) -> i32 {
        if !self.lanes.ok || self.lanes.max_offset + GATHER_PAD > weights.len() {
            self.compute_offsets_with(level, ctx, out);
            return simd::gather_sum_i8(weights, out, level);
        }
        out.clear();
        out.resize(self.lanes.padded, 0);
        // SAFETY: `max_offset + GATHER_PAD <= weights.len()` checked above.
        let sum = unsafe { self.run_lane_kernel::<true>(level, ctx, out, weights) };
        out.truncate(self.lanes.live);
        debug_assert!(out.iter().all(|&o| usize::from(o) <= self.lanes.max_offset));
        sum
    }

    /// The per-feature interpretation of the compiled plan: the reference
    /// the lane kernels are verified against, and the fallback for plans
    /// the lanes cannot express.
    pub fn compute_offsets_compiled(&self, ctx: &FeatureContext<'_>, out: &mut Vec<u16>) {
        let pc_fold8 = if self.any_xor {
            shared_pc_fold(ctx.pc)
        } else {
            0
        };
        out.clear();
        out.extend(self.compiled.iter().map(|c| c.index_offset(ctx, pc_fold8)));
    }

    /// Runs the lane kernel `level` selects into `out`, which holds the
    /// padded lane count. With `SUM` it also returns the sum of the
    /// weights the live lanes select; without, it returns 0 and reads no
    /// weight.
    ///
    /// # Safety
    ///
    /// With `SUM`, `self.lanes.max_offset + GATHER_PAD <= weights.len()`:
    /// the AVX-512 and AVX2 gathers read 4 bytes at each live offset
    /// unchecked.
    #[inline]
    unsafe fn run_lane_kernel<const SUM: bool>(
        &self,
        level: SimdLevel,
        ctx: &FeatureContext<'_>,
        out: &mut [u16],
        weights: &[i8],
    ) -> i32 {
        let live = self.lanes.live;
        #[cfg(target_arch = "x86_64")]
        {
            if level == SimdLevel::Avx512 && std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512 F presence just checked; `out` holds the
                // padded lane count; `LanePlan::build` emits selectors
                // `< LANE_VALS`; with `SUM` the caller proves the bound.
                return unsafe { lanes_avx512::<SUM>(&self.lanes, ctx, out, weights) };
            }
            if level == SimdLevel::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 presence just checked; `out` holds the
                // padded lane count; `LanePlan::build` emits selectors
                // `< LANE_VALS`.
                unsafe { lanes_avx2(&self.lanes, &LaneContext::new(ctx), out) };
                if !SUM {
                    return 0;
                }
                // SAFETY: AVX2 present; every live offset is at most
                // `max_offset`, and the caller proves
                // `max_offset + GATHER_PAD <= weights.len()`.
                return unsafe { simd::gather_sum_i8_avx2(weights, &out[..live]) };
            }
        }
        let _ = level;
        lanes_scalar(&self.lanes, &LaneContext::new(ctx), out);
        if SUM {
            simd::gather_sum_i8_scalar(weights, &out[..live])
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature_sets;

    /// Contexts exercising warm/cold history, all flag combinations, and
    /// extreme PC/address values.
    fn contexts(history: &[u64]) -> Vec<FeatureContext<'_>> {
        let mut out = Vec::new();
        for seed in 0..256u64 {
            let pc = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left((seed % 64) as u32);
            let address = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ (pc >> 3);
            out.push(FeatureContext {
                pc,
                address,
                pc_history: if seed % 3 == 0 { &[] } else { history },
                is_mru: seed % 2 == 0,
                is_insert: seed % 3 == 0,
                last_miss: seed % 5 == 0,
            });
        }
        for pc in [0, 1, u64::MAX, 0x7fff_ffff_ffff_ffff] {
            out.push(FeatureContext {
                pc,
                address: pc ^ 0x3f,
                pc_history: history,
                is_mru: true,
                is_insert: true,
                last_miss: true,
            });
        }
        out
    }

    fn assert_plan_matches(features: &[Feature]) {
        let plan = FeaturePlan::new(features);
        let history: Vec<u64> = (0..18).map(|i| 0x40_0000 + i * 0x1351).collect();
        let mut offsets = Vec::new();
        for ctx in contexts(&history) {
            plan.compute_offsets(&ctx, &mut offsets);
            let mut base = 0u16;
            for (f, &offset) in features.iter().zip(&offsets) {
                assert_eq!(
                    offset,
                    base + f.index(&ctx),
                    "{f} diverged at pc={:#x} address={:#x}",
                    ctx.pc,
                    ctx.address
                );
                base += f.table_size() as u16;
            }
        }
    }

    #[test]
    fn published_feature_sets_compile_bit_identically() {
        assert_plan_matches(&feature_sets::table_1a());
        assert_plan_matches(&feature_sets::table_1b());
        assert_plan_matches(&feature_sets::table_2());
    }

    #[test]
    fn every_kind_compiles_bit_identically_with_and_without_xor() {
        for xor_pc in [false, true] {
            let features: Vec<Feature> = [
                FeatureKind::Pc {
                    begin: 1,
                    end: 53,
                    which: 10,
                },
                FeatureKind::Pc {
                    begin: 0,
                    end: 63,
                    which: 0,
                },
                FeatureKind::Address { begin: 8, end: 19 },
                FeatureKind::Address { begin: 0, end: 63 },
                FeatureKind::Bias,
                FeatureKind::Burst,
                FeatureKind::Insert,
                FeatureKind::LastMiss,
                FeatureKind::Offset { begin: 0, end: 5 },
                FeatureKind::Offset { begin: 3, end: 5 },
            ]
            .into_iter()
            .map(|kind| Feature::new(9, kind, xor_pc))
            .collect();
            assert_plan_matches(&features);
        }
    }

    #[test]
    fn offset_clamp_matches_reference() {
        // begin/end beyond bit 5 clamp to the block-offset width.
        for (begin, end) in [(4, 9), (6, 9), (0, 63)] {
            let features = vec![Feature::new(3, FeatureKind::Offset { begin, end }, false)];
            assert_plan_matches(&features);
        }
    }

    #[test]
    fn arena_layout_is_cumulative_table_sizes() {
        let features = feature_sets::table_1a();
        let plan = FeaturePlan::new(&features);
        assert_eq!(
            plan.arena_len(),
            features.iter().map(|f| f.table_size()).sum::<usize>()
        );
    }

    #[test]
    fn shared_fold_matches_per_feature_fold() {
        for pc in [0u64, 0x400_000, u64::MAX, 0xdead_beef_cafe_f00d] {
            assert_eq!(shared_pc_fold(pc), fold(pc, MAX_INDEX_BITS));
        }
    }

    /// Every available kernel level must agree with the per-feature
    /// compiled interpretation (itself verified against `Feature::index`
    /// above) on every context.
    fn assert_lane_kernels_match(features: &[Feature]) {
        let plan = FeaturePlan::new(features);
        assert!(plan.lanes.ok, "Feature::new features must be lane-able");
        let history: Vec<u64> = (0..18).map(|i| 0x40_0000 + i * 0x1351).collect();
        let (mut compiled, mut lane) = (Vec::new(), Vec::new());
        for ctx in contexts(&history) {
            plan.compute_offsets_compiled(&ctx, &mut compiled);
            for &level in simd::available_levels() {
                plan.compute_offsets_with(level, &ctx, &mut lane);
                assert_eq!(
                    lane, compiled,
                    "{level:?} diverged at pc={:#x} address={:#x}",
                    ctx.pc, ctx.address
                );
            }
        }
    }

    #[test]
    fn lane_kernels_match_compiled_on_published_sets() {
        assert_lane_kernels_match(&feature_sets::table_1a());
        assert_lane_kernels_match(&feature_sets::table_1b());
        assert_lane_kernels_match(&feature_sets::table_2());
    }

    #[test]
    fn lane_kernels_match_compiled_on_every_kind() {
        for xor_pc in [false, true] {
            let features: Vec<Feature> = [
                FeatureKind::Pc {
                    begin: 1,
                    end: 53,
                    which: 17,
                },
                FeatureKind::Address { begin: 0, end: 63 },
                FeatureKind::Bias,
                FeatureKind::Burst,
                FeatureKind::Insert,
                FeatureKind::LastMiss,
                FeatureKind::Offset { begin: 0, end: 5 },
            ]
            .into_iter()
            .map(|kind| Feature::new(7, kind, xor_pc))
            .collect();
            assert_lane_kernels_match(&features);
        }
    }

    #[test]
    fn lane_pad_is_inert_and_truncated() {
        // A 1-feature plan pads to LANE_WIDTH lanes; the output must hold
        // exactly one offset regardless of kernel.
        let features = vec![Feature::new(3, FeatureKind::Burst, true)];
        let plan = FeaturePlan::new(&features);
        assert_eq!(plan.lanes.padded, LANE_WIDTH);
        let mut out = Vec::new();
        for &level in simd::available_levels() {
            plan.compute_offsets_with(
                level,
                &FeatureContext {
                    pc: 0x400040,
                    address: 0x1234,
                    pc_history: &[],
                    is_mru: true,
                    is_insert: false,
                    last_miss: false,
                },
                &mut out,
            );
            assert_eq!(out.len(), 1, "{level:?}");
        }
    }

    /// A padded arena for `plan` with pseudo-random weights in
    /// `-32..=31` (pad entries stay zero, as `WeightTables` keeps them).
    fn random_arena(plan: &FeaturePlan, seed: u64) -> Vec<i8> {
        let mut x = seed;
        let mut weights: Vec<i8> = (0..plan.arena_len())
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 58) as i8) - 32
            })
            .collect();
        weights.resize(plan.arena_len() + GATHER_PAD, 0);
        weights
    }

    /// `predict_with` at every level must emit the compiled offsets and
    /// return the plain sum of the weights they select.
    fn assert_predict_matches(features: &[Feature], weights: &[i8]) {
        let plan = FeaturePlan::new(features);
        let history: Vec<u64> = (0..18).map(|i| 0x40_0000 + i * 0x1351).collect();
        let (mut compiled, mut out) = (Vec::new(), Vec::new());
        for ctx in contexts(&history) {
            plan.compute_offsets_compiled(&ctx, &mut compiled);
            let expected: i32 = compiled
                .iter()
                .map(|&o| i32::from(weights[usize::from(o)]))
                .sum();
            for &level in simd::available_levels() {
                let sum = plan.predict_with(level, &ctx, &mut out, weights);
                assert_eq!(out, compiled, "{level:?} offsets at pc={:#x}", ctx.pc);
                assert_eq!(sum, expected, "{level:?} sum at pc={:#x}", ctx.pc);
            }
        }
    }

    /// Seventeen features: a full 16-lane row plus a second row with one
    /// live lane and fifteen pad lanes, which emit offset 0.
    fn seventeen_features() -> Vec<Feature> {
        let mut features = feature_sets::table_2();
        features.truncate(16);
        features.push(Feature::new(5, FeatureKind::LastMiss, true));
        features
    }

    #[test]
    fn predict_matches_offsets_plus_sum_on_every_level() {
        for (seed, features) in [
            feature_sets::table_1a(),
            feature_sets::table_1b(),
            feature_sets::table_2(),
            vec![Feature::new(3, FeatureKind::Burst, true)],
        ]
        .into_iter()
        .enumerate()
        {
            let plan = FeaturePlan::new(&features);
            assert_predict_matches(&features, &random_arena(&plan, seed as u64));
        }
    }

    #[test]
    fn seventeen_feature_plan_masks_its_pad_lanes() {
        let features = seventeen_features();
        let plan = FeaturePlan::new(&features);
        assert_eq!((plan.lanes.live, plan.lanes.padded), (17, 32));
        let mut weights = random_arena(&plan, 17);
        // Pad lanes select offset 0: a nonzero weight there counts 15
        // extra times if the live-lane mask is lost.
        weights[0] = 9;
        assert_predict_matches(&features, &weights);
    }

    #[test]
    fn predict_gathers_the_last_arena_entry_into_the_pad() {
        // The last feature's table ends the arena; address bits 0..7 all
        // set select its last entry, whose 4-byte gather reads 3 pad
        // bytes.
        let features = vec![
            Feature::new(4, FeatureKind::Bias, false),
            Feature::new(4, FeatureKind::Address { begin: 0, end: 7 }, false),
        ];
        let plan = FeaturePlan::new(&features);
        assert_eq!(plan.lanes.max_offset, plan.arena_len() - 1);
        let mut weights = vec![0i8; plan.arena_len() + GATHER_PAD];
        weights[0] = -3;
        weights[plan.arena_len() - 1] = 31;
        let ctx = FeatureContext {
            pc: 0x400000,
            address: 0xff,
            pc_history: &[],
            is_mru: false,
            is_insert: false,
            last_miss: false,
        };
        let mut out = Vec::new();
        for &level in simd::available_levels() {
            assert_eq!(
                plan.predict_with(level, &ctx, &mut out, &weights),
                28,
                "{level:?}"
            );
            assert_eq!(out, [0, plan.arena_len() as u16 - 1], "{level:?}");
        }
    }

    #[test]
    fn predict_on_an_unpadded_arena_takes_the_checked_path() {
        // One byte short of the bound: the fused gather must not run,
        // and the checked fallback still returns the exact sum.
        let features = feature_sets::table_1a();
        let plan = FeaturePlan::new(&features);
        let padded = random_arena(&plan, 5);
        let short = &padded[..plan.lanes.max_offset + GATHER_PAD - 1];
        let history: Vec<u64> = (0..18).map(|i| 0x40_0000 + i * 0x77).collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for ctx in contexts(&history) {
            for &level in simd::available_levels() {
                let full = plan.predict_with(level, &ctx, &mut a, &padded);
                assert_eq!(
                    plan.predict_with(level, &ctx, &mut b, short),
                    full,
                    "{level:?}"
                );
                assert_eq!(a, b, "{level:?}");
            }
        }
    }

    #[test]
    fn long_history_slices_stay_bit_identical() {
        // Callers may hand a history longer than HISTORY_DEPTH; lanes and
        // reference must agree (features can only reach depth < 18).
        let features = feature_sets::table_2();
        let plan = FeaturePlan::new(&features);
        let history: Vec<u64> = (0..40).map(|i| 0x8_0000 + i * 0x77).collect();
        let ctx = FeatureContext {
            pc: 0x400100,
            address: 0xdead40,
            pc_history: &history,
            is_mru: false,
            is_insert: true,
            last_miss: true,
        };
        let mut offsets = Vec::new();
        for &level in simd::available_levels() {
            plan.compute_offsets_with(level, &ctx, &mut offsets);
            let mut base = 0u16;
            for (f, &offset) in features.iter().zip(&offsets) {
                assert_eq!(offset, base + f.index(&ctx), "{f} at {level:?}");
                base += f.table_size() as u16;
            }
        }
    }
}
