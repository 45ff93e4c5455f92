//! Runtime CPU-feature dispatch for the hot bitstream kernels.
//!
//! The two kernels that dominate `pipeline:bitstream` wall-clock are the
//! batch CRC update ([`crate::crc`]) and the deterministic frame-payload
//! fill ([`crate::writer`]). Both have portable implementations that are
//! always compiled and property-tested against the frozen oracles; this
//! module detects CPU features **once per process** and routes the hot
//! entry points to the fastest implementation the host supports:
//!
//! | path | x86_64 | other targets |
//! |------|--------|---------------|
//! | CRC  | PCLMULQDQ 4×128-bit fold → SSE4.2 `crc32q` reduction and tail | portable fold |
//! | fill | AVX2 8-lane counter splitmix | portable (autovectorized) |
//!
//! One SIMD kernel per path: the one that wins end to end. The CRC-32C
//! (Castagnoli) polynomial is natively supported by the x86 `crc32`
//! instruction family, so the SIMD path computes the *identical*
//! checksum, not an approximation. The carryless-multiply kernel derives
//! its fold constants at compile time from the same `advance` algebra
//! the portable folded kernel is built on (see
//! [`crate::crc::clmul_fold_const`]). An x86 CPU without PCLMULQDQ, and
//! every non-x86 target, runs the portable kernels.
//!
//! ## Dispatch policy
//!
//! * Detection happens on first use, through a [`OnceLock`]; the chosen
//!   paths are visible via [`active`] and are reported by the pipeline
//!   benchmarks.
//! * Setting `PRFPGA_FORCE_SCALAR` to any value other than `0` or the
//!   empty string forces the portable kernels, for testing and for
//!   apples-to-apples scalar baselines. The variable is read once, at
//!   first dispatch.
//! * The portable kernels are always compiled on every target — there is
//!   no build-time feature gate to get wrong; an unrecognized CPU simply
//!   runs the scalar path.
//!
//! ## Unsafe boundary
//!
//! The crate denies `unsafe_code` globally; only this module's x86
//! submodule and the thin wrappers that call it carry
//! `#[allow(unsafe_code)]`, each with a `SAFETY` comment. Every unsafe
//! function is `#[target_feature]`-annotated, and every call site either
//! sits behind the `OnceLock` table (populated only after
//! `is_x86_feature_detected!` succeeds) or re-verifies the feature
//! itself. The kernels contain no raw-pointer arithmetic beyond
//! unaligned SIMD loads/stores that are bounds-checked by their callers
//! in ordinary safe code.
//!
//! Every dispatchable variant is property-tested byte-identical to the
//! frozen `crc::baseline` / `writer::reference` oracles in
//! `tests/kernel_matrix.rs`, and CI runs the equivalence suites twice —
//! once with native dispatch and once under `PRFPGA_FORCE_SCALAR=1`.

use std::sync::OnceLock;

/// Which CRC kernel the dispatcher selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrcPath {
    /// Carryless-multiply folding (x86 PCLMULQDQ) with a hardware-CRC
    /// reduction and tail.
    Clmul,
    /// The portable folded / slice-16 kernel.
    Portable,
}

impl CrcPath {
    /// Stable identifier used in benchmark artifacts and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            CrcPath::Clmul => "clmul-fold",
            CrcPath::Portable => "portable-folded",
        }
    }
}

/// Which payload-fill kernel the dispatcher selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillPath {
    /// AVX2 8-lane counter-form splitmix fill.
    Avx2,
    /// The portable counter-form fill (autovectorizable).
    Portable,
}

impl FillPath {
    /// Stable identifier used in benchmark artifacts and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            FillPath::Avx2 => "avx2-splitmix",
            FillPath::Portable => "portable-splitmix",
        }
    }
}

/// The kernel selection for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// Selected CRC kernel.
    pub crc: CrcPath,
    /// Selected payload-fill kernel.
    pub fill: FillPath,
}

impl Dispatch {
    /// The all-portable selection (no CPU features used).
    pub const fn portable() -> Self {
        Dispatch {
            crc: CrcPath::Portable,
            fill: FillPath::Portable,
        }
    }

    /// Probe CPU features and pick the kernel set.
    ///
    /// Pure with respect to process state (does not consult the
    /// environment): `force_scalar` is passed explicitly so tests can
    /// exercise both outcomes regardless of the ambient
    /// `PRFPGA_FORCE_SCALAR`. The process-wide selection cached by
    /// [`active`] calls this once with the environment's value.
    pub fn detect(force_scalar: bool) -> Self {
        if force_scalar {
            Dispatch::portable()
        } else {
            detect_native()
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_native() -> Dispatch {
    let crc = if std::arch::is_x86_feature_detected!("sse4.2")
        && std::arch::is_x86_feature_detected!("pclmulqdq")
    {
        CrcPath::Clmul
    } else {
        CrcPath::Portable
    };
    let fill = if std::arch::is_x86_feature_detected!("avx2") {
        FillPath::Avx2
    } else {
        FillPath::Portable
    };
    Dispatch { crc, fill }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_native() -> Dispatch {
    Dispatch::portable()
}

/// Whether `PRFPGA_FORCE_SCALAR` requests the portable kernels.
pub fn force_scalar_env() -> bool {
    matches!(std::env::var("PRFPGA_FORCE_SCALAR"), Ok(v) if !v.is_empty() && v != "0")
}

/// The resolved kernel table: one fn pointer per hot entry point. All
/// pointers are *safe* functions — the SIMD-backed ones re-verify the
/// CPU feature (a cached relaxed atomic load) before entering the
/// `unsafe` kernel, so the table stays sound even if constructed by
/// hand in a test.
struct Kernels {
    dispatch: Dispatch,
    crc: fn(u32, &[u32]) -> u32,
    fill: fn(u64, &mut [u32]),
}

static KERNELS: OnceLock<Kernels> = OnceLock::new();

fn kernels() -> &'static Kernels {
    KERNELS.get_or_init(|| build_kernels(Dispatch::detect(force_scalar_env())))
}

fn build_kernels(dispatch: Dispatch) -> Kernels {
    let crc: fn(u32, &[u32]) -> u32 = match dispatch.crc {
        #[cfg(target_arch = "x86_64")]
        CrcPath::Clmul => crc_clmul_kernel,
        _ => crc_portable_kernel,
    };
    let fill: fn(u64, &mut [u32]) = match dispatch.fill {
        #[cfg(target_arch = "x86_64")]
        FillPath::Avx2 => fill_avx2_kernel,
        _ => fill_portable_kernel,
    };
    Kernels {
        dispatch,
        crc,
        fill,
    }
}

/// The kernel selection active in this process (detected on first use).
pub fn active() -> Dispatch {
    kernels().dispatch
}

/// Advance a raw CRC state over `words` with the dispatched kernel. The
/// hot path behind [`crate::crc::Crc32::push_words`].
#[inline]
pub(crate) fn crc_update(state: u32, words: &[u32]) -> u32 {
    (kernels().crc)(state, words)
}

/// Fill `out` with the deterministic frame payload for `seed` using the
/// dispatched kernel. The hot path behind the bitstream writer.
#[inline]
pub(crate) fn fill_payload(seed: u64, out: &mut [u32]) {
    (kernels().fill)(seed, out)
}

// ------------------------------------------------------ safe wrappers

fn crc_portable_kernel(state: u32, words: &[u32]) -> u32 {
    crate::crc::update_portable(state, words)
}

fn fill_portable_kernel(seed: u64, out: &mut [u32]) {
    crate::writer::fill_payload_portable(seed, out);
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // SAFETY: kernel entered only after verifying PCLMULQDQ+SSE4.2.
fn crc_clmul_kernel(state: u32, words: &[u32]) -> u32 {
    if std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.2")
    {
        // SAFETY: `crc_update_clmul` requires PCLMULQDQ and SSE4.2,
        // verified just above.
        unsafe { x86::crc_update_clmul(state, words) }
    } else {
        crate::crc::update_portable(state, words)
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // SAFETY: kernel entered only after verifying AVX2.
fn fill_avx2_kernel(seed: u64, out: &mut [u32]) {
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `fill_payload_avx2` requires AVX2, verified just above.
        unsafe { x86::fill_payload_avx2(seed, out) }
    } else {
        crate::writer::fill_payload_portable(seed, out);
    }
}

// ------------------------------------------- probe-style entry points
//
// Benchmarks and the kernel-matrix equivalence tests need to name each
// variant explicitly, regardless of which one dispatch would pick. These
// return `None` / `false` when the host CPU (or target arch) lacks the
// kernel, so callers can probe without cfg ladders of their own.

/// Checksum a word slice with the carryless-multiply folding kernel, if
/// this CPU has one (`Some(crc)`), or `None` otherwise.
#[allow(unsafe_code)] // SAFETY: features verified before the unsafe call.
pub fn crc_words_clmul(words: &[u32]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.2")
    {
        // SAFETY: PCLMULQDQ and SSE4.2 verified just above.
        return Some(!unsafe { x86::crc_update_clmul(0xFFFF_FFFF, words) });
    }
    let _ = words;
    None
}

/// Fill `out` via the dispatched kernel (same as the writer's hot path;
/// exposed for benchmarks and equivalence tests).
pub fn fill_words(seed: u64, out: &mut [u32]) {
    fill_payload(seed, out);
}

/// Fill `out` via the portable kernel, regardless of CPU features.
pub fn fill_words_portable(seed: u64, out: &mut [u32]) {
    crate::writer::fill_payload_portable(seed, out);
}

/// Fill `out` via the SIMD kernel if this CPU has one. Returns `true`
/// if the SIMD kernel ran, `false` if `out` was left untouched.
#[allow(unsafe_code)] // SAFETY: feature verified before the unsafe call.
pub fn fill_words_simd(seed: u64, out: &mut [u32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 verified just above.
        unsafe { x86::fill_payload_avx2(seed, out) };
        return true;
    }
    let _ = (seed, out);
    false
}

// ----------------------------------------------------- x86_64 kernels

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! PCLMULQDQ (with SSE4.2 reduction and tail) and AVX2 kernels.
    //!
    //! SAFETY policy: every function here is `unsafe fn` with a
    //! `#[target_feature]` contract — the caller must have verified the
    //! listed features via `is_x86_feature_detected!`. Inside, the only
    //! unsafe operations are the intrinsics themselves and unaligned
    //! SIMD loads/stores whose bounds are established by safe slice
    //! arithmetic at the call site.
    #![allow(unsafe_code)]
    #![deny(unsafe_op_in_unsafe_fn)]

    use crate::crc::clmul_fold_const;
    use crate::writer::{splitmix32, GAMMA};
    use core::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi64, _mm256_loadu_si256, _mm256_mul_epu32,
        _mm256_permute2x128_si256, _mm256_permutevar8x32_epi32, _mm256_set1_epi64x,
        _mm256_set_epi64x, _mm256_slli_epi64, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_xor_si256, _mm_clmulepi64_si128, _mm_crc32_u32, _mm_crc32_u64, _mm_cvtsi128_si64,
        _mm_cvtsi32_si128, _mm_extract_epi64, _mm_loadu_si128, _mm_set_epi64x, _mm_set_epi8,
        _mm_shuffle_epi8, _mm_xor_si128,
    };

    /// Two adjacent configuration words as the 64-bit value `crc32q`
    /// consumes: the instruction absorbs its operand's bytes low-first,
    /// and the CRC stream is each word's big-endian bytes.
    #[inline(always)]
    fn stream_u64(words: &[u32], i: usize) -> u64 {
        (u64::from(words[i + 1].swap_bytes()) << 32) | u64::from(words[i].swap_bytes())
    }

    /// Single-chain `crc32q`/`crc32l` update for inputs shorter than the
    /// folding kernel's block size (and for its tail).
    ///
    /// # Safety
    /// CPU must support SSE4.2.
    #[target_feature(enable = "sse4.2")]
    unsafe fn crc_tail_hw(state: u32, words: &[u32]) -> u32 {
        let mut s = u64::from(state);
        let mut pairs = words.chunks_exact(2);
        for p in &mut pairs {
            s = _mm_crc32_u64(s, stream_u64(p, 0));
        }
        let mut st = s as u32;
        if let &[w] = pairs.remainder() {
            st = _mm_crc32_u32(st, w.swap_bytes());
        }
        st
    }

    // Carryless-multiply fold constants, `(K(D+32), K(D−32))` per fold
    // distance `D` in bits, in the 33-bit reflected form PCLMULQDQ
    // multiplies by (see `crc::clmul_fold_const`). 512 folds each of the
    // four accumulators one 64-byte iteration forward; 384/256/128
    // collapse the four accumulators into one.
    const FOLD_512: (i64, i64) = (clmul_fold_const(544) as i64, clmul_fold_const(480) as i64);
    const FOLD_384: (i64, i64) = (clmul_fold_const(416) as i64, clmul_fold_const(352) as i64);
    const FOLD_256: (i64, i64) = (clmul_fold_const(288) as i64, clmul_fold_const(224) as i64);
    const FOLD_128: (i64, i64) = (clmul_fold_const(160) as i64, clmul_fold_const(96) as i64);

    /// Load 16 message bytes (4 configuration words) in CRC stream
    /// order: unaligned load of the little-endian words, then a per-lane
    /// byte reversal so register byte 0 is the first transmitted byte.
    ///
    /// # Safety
    /// CPU must support SSE4.2 (implies SSSE3 for `pshufb`); caller must
    /// ensure `i + 4 <= words.len()`.
    #[target_feature(enable = "sse4.2")]
    unsafe fn load_stream(words: &[u32], i: usize, mask: __m128i) -> __m128i {
        debug_assert!(i + 4 <= words.len());
        // SAFETY: caller guarantees 16 readable bytes at `i`; features
        // per this fn's contract.
        unsafe { _mm_shuffle_epi8(_mm_loadu_si128(words.as_ptr().add(i).cast()), mask) }
    }

    /// One reflected fold step: carry `x` forward by `D` message bits,
    /// where `k` holds `(K(D+32), K(D−32))` in its (low, high) lanes.
    ///
    /// # Safety
    /// CPU must support PCLMULQDQ and SSE4.2.
    #[target_feature(enable = "sse4.2,pclmulqdq")]
    unsafe fn fold_128(x: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128(x, k, 0x00),
            _mm_clmulepi64_si128(x, k, 0x11),
        )
    }

    /// Carryless-multiply folding CRC kernel: four 128-bit accumulators
    /// consume 64 message bytes per iteration (each folded 512 bits
    /// forward per step), are collapsed to one accumulator with the
    /// 384/256/128-bit fold constants, and the final 128-bit residual is
    /// reduced through two `crc32q` steps (equivalent to the classic
    /// Barrett reduction, since both compute the CRC of the residual
    /// bytes from a zero state). Inputs shorter than one 64-byte block,
    /// and tails, take the hardware single-chain path.
    ///
    /// # Safety
    /// CPU must support PCLMULQDQ and SSE4.2.
    #[target_feature(enable = "sse4.2,pclmulqdq")]
    pub(super) unsafe fn crc_update_clmul(state: u32, words: &[u32]) -> u32 {
        /// Words per folding iteration (64 bytes, four XMM registers).
        const BLOCK_WORDS: usize = 16;
        if words.len() < BLOCK_WORDS {
            // SAFETY: SSE4.2 per this fn's contract.
            return unsafe { crc_tail_hw(state, words) };
        }
        let blocks = words.len() / BLOCK_WORDS;
        // SAFETY: all intrinsics below are covered by this fn's
        // target_feature contract; every `load_stream` offset is at most
        // `blocks * BLOCK_WORDS - 4`, in bounds by construction.
        unsafe {
            // Per-lane byte reversal: memory holds little-endian words,
            // the CRC stream is their big-endian bytes.
            let mask = _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
            let k512 = _mm_set_epi64x(FOLD_512.1, FOLD_512.0);
            let mut x0 = load_stream(words, 0, mask);
            let mut x1 = load_stream(words, 4, mask);
            let mut x2 = load_stream(words, 8, mask);
            let mut x3 = load_stream(words, 12, mask);
            // Fold the running state into the first four stream bytes.
            x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128(state as i32));
            for b in 1..blocks {
                let base = b * BLOCK_WORDS;
                x0 = _mm_xor_si128(fold_128(x0, k512), load_stream(words, base, mask));
                x1 = _mm_xor_si128(fold_128(x1, k512), load_stream(words, base + 4, mask));
                x2 = _mm_xor_si128(fold_128(x2, k512), load_stream(words, base + 8, mask));
                x3 = _mm_xor_si128(fold_128(x3, k512), load_stream(words, base + 12, mask));
            }
            // Collapse: x0 leads x3 by 384 message bits, x1 by 256, x2
            // by 128.
            let k384 = _mm_set_epi64x(FOLD_384.1, FOLD_384.0);
            let k256 = _mm_set_epi64x(FOLD_256.1, FOLD_256.0);
            let k128 = _mm_set_epi64x(FOLD_128.1, FOLD_128.0);
            let x = _mm_xor_si128(
                _mm_xor_si128(fold_128(x0, k384), fold_128(x1, k256)),
                _mm_xor_si128(fold_128(x2, k128), x3),
            );
            // Reduce the 128-bit residual: its register bytes are
            // already in stream order, so two crc32q steps from state 0
            // produce the CRC state of the residual message.
            let lo = _mm_cvtsi128_si64(x) as u64;
            let hi = _mm_extract_epi64::<1>(x) as u64;
            let reduced = _mm_crc32_u64(_mm_crc32_u64(0, lo), hi) as u32;
            crc_tail_hw(reduced, &words[blocks * BLOCK_WORDS..])
        }
    }

    /// 64-bit lane-wise multiply-low (AVX2 has no 64×64 multiply): three
    /// 32×32 partial products per lane.
    ///
    /// # Safety
    /// CPU must support AVX2. `bh` must be `b >> 32` lane-wise.
    #[target_feature(enable = "avx2")]
    unsafe fn mullo64(a: __m256i, b: __m256i, bh: __m256i) -> __m256i {
        let lo = _mm256_mul_epu32(a, b);
        let mid = _mm256_add_epi64(
            _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
            _mm256_mul_epu32(a, bh),
        );
        _mm256_add_epi64(lo, _mm256_slli_epi64(mid, 32))
    }

    /// AVX2 payload fill: eight independent splitmix counters per
    /// iteration (two 4×u64 vectors), exactly the counter form of the
    /// portable fill — word `i` is `splitmix32(seed + (i+1)·GAMMA)` — so
    /// the output is byte-identical.
    ///
    /// # Safety
    /// CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fill_payload_avx2(seed: u64, out: &mut [u32]) {
        const M1: i64 = 0xbf58_476d_1ce4_e5b9_u64 as i64;
        const M2: i64 = 0x94d0_49bb_1331_11eb_u64 as i64;
        let full = out.len() - out.len() % 8;
        let mut chunks = out.chunks_exact_mut(8);
        // SAFETY: AVX2 per this fn's contract; the only memory access is
        // the unaligned 32-byte store into each exact 8-word chunk.
        unsafe {
            let m1 = _mm256_set1_epi64x(M1);
            let m1h = _mm256_srli_epi64(m1, 32);
            let m2 = _mm256_set1_epi64x(M2);
            let m2h = _mm256_srli_epi64(m2, 32);
            let step = _mm256_set1_epi64x(GAMMA.wrapping_mul(8) as i64);
            // Lane k of `ca` holds counter seed + (k+1)·GAMMA; `cb` the
            // next four.
            let mut ca = _mm256_set_epi64x(
                seed.wrapping_add(GAMMA.wrapping_mul(4)) as i64,
                seed.wrapping_add(GAMMA.wrapping_mul(3)) as i64,
                seed.wrapping_add(GAMMA.wrapping_mul(2)) as i64,
                seed.wrapping_add(GAMMA) as i64,
            );
            let mut cb = _mm256_add_epi64(ca, _mm256_set1_epi64x(GAMMA.wrapping_mul(4) as i64));
            // Gather each u64 lane's low dword into positions 0..4.
            let pack_idx = _mm256_loadu_si256([0u32, 2, 4, 6, 0, 0, 0, 0].as_ptr().cast());
            for q in chunks.by_ref() {
                let mut za = ca;
                let mut zb = cb;
                za = _mm256_xor_si256(za, _mm256_srli_epi64(za, 30));
                zb = _mm256_xor_si256(zb, _mm256_srli_epi64(zb, 30));
                za = mullo64(za, m1, m1h);
                zb = mullo64(zb, m1, m1h);
                za = _mm256_xor_si256(za, _mm256_srli_epi64(za, 27));
                zb = _mm256_xor_si256(zb, _mm256_srli_epi64(zb, 27));
                za = mullo64(za, m2, m2h);
                zb = mullo64(zb, m2, m2h);
                za = _mm256_xor_si256(za, _mm256_srli_epi64(za, 31));
                zb = _mm256_xor_si256(zb, _mm256_srli_epi64(zb, 31));
                let pa = _mm256_permutevar8x32_epi32(za, pack_idx);
                let pb = _mm256_permutevar8x32_epi32(zb, pack_idx);
                let packed = _mm256_permute2x128_si256(pa, pb, 0x20);
                _mm256_storeu_si256(q.as_mut_ptr().cast(), packed);
                ca = _mm256_add_epi64(ca, step);
                cb = _mm256_add_epi64(cb, step);
            }
        }
        let base = seed.wrapping_add(GAMMA.wrapping_mul(full as u64));
        for (j, w) in chunks.into_remainder().iter_mut().enumerate() {
            *w = splitmix32(base.wrapping_add(GAMMA.wrapping_mul(j as u64 + 1)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_selects_portable() {
        assert_eq!(Dispatch::detect(true), Dispatch::portable());
        assert_eq!(Dispatch::detect(true).crc.name(), "portable-folded");
        assert_eq!(Dispatch::detect(true).fill.name(), "portable-splitmix");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn native_detection_matches_cpu_features() {
        let d = Dispatch::detect(false);
        let clmul = std::arch::is_x86_feature_detected!("sse4.2")
            && std::arch::is_x86_feature_detected!("pclmulqdq");
        let expect = if clmul {
            CrcPath::Clmul
        } else {
            CrcPath::Portable
        };
        assert_eq!(d.crc, expect);
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        assert_eq!(d.fill == FillPath::Avx2, avx2);
    }

    #[test]
    fn probe_entry_points_agree_with_portable() {
        let words: Vec<u32> = (0..700u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        for len in [0usize, 1, 2, 3, 15, 16, 17, 127, 128, 129, 512, 700] {
            let expect = crate::crc::crc_words_folded(&words[..len]);
            if let Some(cl) = crc_words_clmul(&words[..len]) {
                assert_eq!(cl, expect, "clmul at {len}");
            }
        }
    }

    #[test]
    fn simd_fill_matches_portable() {
        for len in [0usize, 1, 7, 8, 9, 64, 333] {
            let mut portable = vec![0u32; len];
            fill_words_portable(0xDEAD_BEEF_0123_4567, &mut portable);
            let mut simd = vec![0u32; len];
            if fill_words_simd(0xDEAD_BEEF_0123_4567, &mut simd) {
                assert_eq!(simd, portable, "len {len}");
            }
        }
    }
}
