//! aarch64 NEON kernel: bytewise popcount with `cnt` (`vcntq_u8`) and
//! pairwise widening adds.
//!
//! NEON is a baseline feature of aarch64, so unlike the x86 variants this
//! kernel needs no runtime detection and its entry points compile without
//! `#[target_feature]` gymnastics — `std::arch::aarch64` intrinsics are
//! callable whenever the target is aarch64.

use super::{prefetch, SimKernel};
use std::arch::aarch64::*;

/// Kernel using `vcntq_u8` bytewise popcount over 128-bit vectors.
pub(super) static NEON: SimKernel = SimKernel {
    name: "neon",
    and_count: neon_and_count,
    or_count: neon_or_count,
    and_counts_gather: neon_and_counts_gather,
};

macro_rules! neon_pair {
    ($name:ident, $scalar_op:tt, $vec_op:ident) => {
        #[inline]
        fn $name(a: &[u64], b: &[u64]) -> u32 {
            debug_assert_eq!(a.len(), b.len());
            let vectors = a.len() / 2;
            let mut total = 0u64;
            // SAFETY: each iteration reads words [2i, 2i + 2), in bounds
            // for i < vectors = len / 2; loads are unaligned-tolerant.
            unsafe {
                let mut acc = vmovq_n_u64(0);
                for i in 0..vectors {
                    let va = vld1q_u64(a.as_ptr().add(2 * i));
                    let vb = vld1q_u64(b.as_ptr().add(2 * i));
                    let v = $vec_op(va, vb);
                    let bytes = vcntq_u8(vreinterpretq_u8_u64(v));
                    // u8 popcounts → u16 → u32 → u64 lanes, then add.
                    acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(bytes))));
                }
                total += vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
            }
            let mut count = total as u32;
            for j in 2 * vectors..a.len() {
                count += (a[j] $scalar_op b[j]).count_ones();
            }
            count
        }
    };
}

neon_pair!(neon_and_count, &, vandq_u64);
neon_pair!(neon_or_count, |, vorrq_u64);

/// Gathered `popcount(query AND row(ids[i]))` with next-row prefetch.
fn neon_and_counts_gather(
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
        *out = neon_and_count(query, &data[start..start + w]);
    }
}
