//! x86-64 kernels: hardware `POPCNT` and AVX2 `vpshufb` nibble-LUT
//! popcount (Muła, Kurz & Lemire).
//!
//! Both variants are built from `#[target_feature]` functions so the
//! compiler may emit the corresponding instructions without raising the
//! whole crate's baseline; the safe wrappers in the [`SimKernel`] vtables
//! are sound because a variant is only exposed after
//! `is_x86_feature_detected!` confirms the features at runtime.
//!
//! The AVX2 scheme: split each 256-bit `AND`/`OR` result into low/high
//! nibbles, look both up in a per-lane 16-entry popcount table with
//! `vpshufb` (`_mm256_shuffle_epi8`), accumulate the byte counts, and fold
//! them into four `u64` lanes with `vpsadbw` (`_mm256_sad_epu8`). Byte
//! accumulators take at most 8 per vector, so up to 31 vectors (7936 bits)
//! are summed between `vpsadbw` folds without saturating. Tails that do
//! not fill a vector fall back to scalar `popcnt` words.

use super::{prefetch, SimKernel};
use std::arch::x86_64::*;

/// Kernel backed by the hardware `POPCNT` instruction: the same 4-way
/// unrolled word loop as the scalar kernel, compiled with the feature
/// enabled so `count_ones()` lowers to one instruction instead of the
/// SWAR bit-trick sequence.
pub(super) static POPCNT: SimKernel = SimKernel {
    name: "popcnt",
    and_count: pc_and_count,
    or_count: pc_or_count,
    and_counts_gather: pc_and_counts_gather,
};

/// Kernel using 256-bit `vpshufb` nibble-LUT popcount. Requires `avx2`
/// *and* `popcnt` (scalar tails); every AVX2-capable CPU has both.
pub(super) static AVX2: SimKernel = SimKernel {
    name: "avx2",
    and_count: avx2_and_count,
    or_count: avx2_or_count,
    and_counts_gather: avx2_and_counts_gather,
};

// ---- POPCNT variant ----------------------------------------------------

macro_rules! popcnt_pair {
    ($name:ident, $op:tt) => {
        #[inline]
        #[target_feature(enable = "popcnt")]
        unsafe fn $name(a: &[u64], b: &[u64]) -> u32 {
            debug_assert_eq!(a.len(), b.len());
            let mut acc = [0u32; 4];
            let mut wa = a.chunks_exact(4);
            let mut wb = b.chunks_exact(4);
            for (ca, cb) in (&mut wa).zip(&mut wb) {
                acc[0] += (ca[0] $op cb[0]).count_ones();
                acc[1] += (ca[1] $op cb[1]).count_ones();
                acc[2] += (ca[2] $op cb[2]).count_ones();
                acc[3] += (ca[3] $op cb[3]).count_ones();
            }
            let tail: u32 = wa
                .remainder()
                .iter()
                .zip(wb.remainder())
                .map(|(x, y)| (x $op y).count_ones())
                .sum();
            acc[0] + acc[1] + acc[2] + acc[3] + tail
        }
    };
}

popcnt_pair!(pc_and_pair, &);
popcnt_pair!(pc_or_pair, |);

// ---- AVX2 variant ------------------------------------------------------

/// Vectors summed into byte accumulators between `vpsadbw` folds.
/// Each vector contributes ≤ 8 per byte, so 31 · 8 = 248 < 255.
const SAD_BLOCK: usize = 31;

/// Per-lane popcount lookup table for one nibble, replicated to both
/// 128-bit lanes (the `vpshufb` shuffle is lane-local).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn nibble_lut() -> __m256i {
    _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    )
}

/// Byte-wise popcount of a 256-bit vector via two nibble-LUT shuffles.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn popcount_bytes(v: __m256i, lut: __m256i, low_mask: __m256i) -> __m256i {
    let lo = _mm256_and_si256(v, low_mask);
    let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
    _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi))
}

macro_rules! avx2_pair {
    ($name:ident, $scalar_op:tt, $vec_op:ident) => {
        #[inline]
        #[target_feature(enable = "avx2", enable = "popcnt")]
        unsafe fn $name(a: &[u64], b: &[u64]) -> u32 {
            debug_assert_eq!(a.len(), b.len());
            let lut = nibble_lut();
            let low_mask = _mm256_set1_epi8(0x0f);
            let zero = _mm256_setzero_si256();
            let vectors = a.len() / 4;
            let mut acc = zero;
            let mut i = 0usize;
            while i < vectors {
                let block_end = (i + SAD_BLOCK).min(vectors);
                let mut bytes = zero;
                while i < block_end {
                    // SAFETY: i < vectors = a.len() / 4, so words
                    // [4i, 4i + 4) are in bounds of both slices.
                    let va = _mm256_loadu_si256(a.as_ptr().add(4 * i) as *const __m256i);
                    let vb = _mm256_loadu_si256(b.as_ptr().add(4 * i) as *const __m256i);
                    bytes = _mm256_add_epi8(
                        bytes,
                        popcount_bytes($vec_op(va, vb), lut, low_mask),
                    );
                    i += 1;
                }
                acc = _mm256_add_epi64(acc, _mm256_sad_epu8(bytes, zero));
            }
            let mut lanes = [0u64; 4];
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
            let mut total = (lanes[0] + lanes[1] + lanes[2] + lanes[3]) as u32;
            for j in 4 * vectors..a.len() {
                total += (a[j] $scalar_op b[j]).count_ones();
            }
            total
        }
    };
}

avx2_pair!(avx2_and_pair, &, _mm256_and_si256);
avx2_pair!(avx2_or_pair, |, _mm256_or_si256);

// ---- gather loops, specialized per feature level ----------------------

macro_rules! feature_gather {
    ($gather:ident, $pair:ident, $($feat:literal),+) => {
        #[target_feature($(enable = $feat),+)]
        unsafe fn $gather(
            query: &[u64],
            data: &[u64],
            stride: usize,
            ids: &[u32],
            counts: &mut [u32],
        ) {
            let w = query.len();
            debug_assert!(stride >= w);
            debug_assert_eq!(ids.len(), counts.len());
            for (i, (&id, out)) in ids.iter().zip(counts.iter_mut()).enumerate() {
                if let Some(&next) = ids.get(i + 1) {
                    prefetch(data, next as usize * stride);
                }
                let start = id as usize * stride;
                *out = $pair(query, &data[start..start + w]);
            }
        }
    };
}

feature_gather!(pc_and_gather, pc_and_pair, "popcnt");
feature_gather!(avx2_and_gather, avx2_and_pair, "avx2", "popcnt");

// ---- safe vtable entry points ------------------------------------------
//
// SAFETY (all of them): the POPCNT/AVX2 vtables are only reachable through
// `kernels::available()`, which lists them strictly after runtime feature
// detection succeeds, so the required instructions exist on this CPU.

macro_rules! safe_pair {
    ($name:ident, $inner:ident) => {
        fn $name(a: &[u64], b: &[u64]) -> u32 {
            unsafe { $inner(a, b) }
        }
    };
}

macro_rules! safe_gather {
    ($name:ident, $inner:ident) => {
        fn $name(query: &[u64], data: &[u64], stride: usize, ids: &[u32], counts: &mut [u32]) {
            unsafe { $inner(query, data, stride, ids, counts) }
        }
    };
}

safe_pair!(pc_and_count, pc_and_pair);
safe_pair!(pc_or_count, pc_or_pair);
safe_gather!(pc_and_counts_gather, pc_and_gather);

safe_pair!(avx2_and_count, avx2_and_pair);
safe_pair!(avx2_or_count, avx2_or_pair);
safe_gather!(avx2_and_counts_gather, avx2_and_gather);
