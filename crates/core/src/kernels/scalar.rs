//! Portable scalar kernel: the [`crate::bits`] word loops, available on
//! every target and the baseline every SIMD variant must match bit for bit.

use super::prefetch;
use crate::bits::{and_count_words, or_count_words};

pub(super) fn and_count(a: &[u64], b: &[u64]) -> u32 {
    and_count_words(a, b)
}

pub(super) fn or_count(a: &[u64], b: &[u64]) -> u32 {
    or_count_words(a, b)
}

/// Gather loop: popcount the current row while the next gathered row is
/// being prefetched (scattered ids are the access pattern of join
/// candidate lists, so the hardware prefetcher cannot help here).
pub(super) fn and_counts_gather(
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
        *out = and_count_words(query, &data[start..start + w]);
    }
}
