//! Fixed-width bit arrays tuned for fingerprint workloads.
//!
//! A [`BitArray`] is a dense array of `b` bits backed by `u64` words. The
//! operations that matter for fingerprinting are *bulk* ones — population
//! counts of `AND`/`OR` combinations of two arrays — and they are implemented
//! as branch-free word loops that LLVM autovectorises.
//!
//! Unused bits in the last word are kept at zero as an internal invariant,
//! so population counts never need masking.

/// Number of bits per storage word.
pub const WORD_BITS: u32 = 64;

/// A fixed-length array of bits backed by `u64` words.
///
/// The length is fixed at construction time; all binary operations require
/// both operands to have the same length and panic otherwise (mismatched
/// fingerprint widths are a programming error, not a recoverable condition).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitArray {
    words: Vec<u64>,
    /// Length in bits. May be any positive value, not only multiples of 64.
    bits: u32,
}

impl BitArray {
    /// Creates an all-zero bit array of `bits` bits.
    ///
    /// # Panics
    /// Panics if `bits == 0`.
    pub fn zeroed(bits: u32) -> Self {
        assert!(bits > 0, "BitArray length must be positive");
        let words = vec![0u64; Self::words_for(bits)];
        BitArray { words, bits }
    }

    /// Number of `u64` words needed to store `bits` bits.
    #[inline]
    pub fn words_for(bits: u32) -> usize {
        (bits as usize).div_ceil(WORD_BITS as usize)
    }

    /// Builds a bit array of `bits` bits with exactly the given positions set.
    ///
    /// Positions may repeat; repeated positions set the same bit (this is the
    /// "collision" behaviour fingerprints rely on).
    ///
    /// # Panics
    /// Panics if any position is `>= bits`.
    pub fn from_positions(bits: u32, positions: impl IntoIterator<Item = u32>) -> Self {
        let mut a = Self::zeroed(bits);
        for p in positions {
            a.set(p);
        }
        a
    }

    /// Length in bits.
    #[inline]
    pub fn len(&self) -> u32 {
        self.bits
    }

    /// True if the array has zero set bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Sets bit `i` to 1.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn set(&mut self, i: u32) {
        assert!(
            i < self.bits,
            "bit index {i} out of range for {} bits",
            self.bits
        );
        self.words[(i / WORD_BITS) as usize] |= 1u64 << (i % WORD_BITS);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn clear(&mut self, i: u32) {
        assert!(
            i < self.bits,
            "bit index {i} out of range for {} bits",
            self.bits
        );
        self.words[(i / WORD_BITS) as usize] &= !(1u64 << (i % WORD_BITS));
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn test(&self, i: u32) -> bool {
        assert!(
            i < self.bits,
            "bit index {i} out of range for {} bits",
            self.bits
        );
        (self.words[(i / WORD_BITS) as usize] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Number of set bits (the L1 norm, called *cardinality* in the paper).
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// `popcount(self AND other)` — the hot kernel of the Jaccard estimator.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[inline]
    pub fn and_count(&self, other: &Self) -> u32 {
        self.check_len(other);
        and_count_words(&self.words, &other.words)
    }

    /// `popcount(self OR other)`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[inline]
    pub fn or_count(&self, other: &Self) -> u32 {
        self.check_len(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a | b).count_ones())
            .sum()
    }

    /// `popcount(self XOR other)` (Hamming distance).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[inline]
    pub fn xor_count(&self, other: &Self) -> u32 {
        self.check_len(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn union_with(&mut self, other: &Self) {
        self.check_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Iterates over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let base = wi as u32 * WORD_BITS;
            BitIter { word: w, base }
        })
    }

    /// Borrow the backing words (for packed stores and tests).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    #[inline]
    fn check_len(&self, other: &Self) {
        assert_eq!(
            self.bits, other.bits,
            "bit array length mismatch: {} vs {}",
            self.bits, other.bits
        );
    }
}

impl std::fmt::Debug for BitArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BitArray({} bits, {} ones)",
            self.bits,
            self.count_ones()
        )
    }
}

/// Iterator over set-bit positions within one word.
struct BitIter {
    word: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

/// Counts set bits in `popcount(a AND b)` over raw word slices.
///
/// Used by packed fingerprint stores where fingerprints live in one large
/// allocation; equivalent to [`BitArray::and_count`] without constructing
/// `BitArray` values.
///
/// The loop is 4-way unrolled into independent accumulators: popcounts of
/// consecutive words have no data dependency on each other, so splitting
/// the running sum across four registers lets the CPU retire several
/// `AND`+`POPCNT` pairs per cycle instead of serialising on one
/// accumulator (see DESIGN.md §7).
#[inline]
pub fn and_count_words(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0u32; 4];
    let mut wa = a.chunks_exact(4);
    let mut wb = b.chunks_exact(4);
    for (ca, cb) in (&mut wa).zip(&mut wb) {
        acc[0] += (ca[0] & cb[0]).count_ones();
        acc[1] += (ca[1] & cb[1]).count_ones();
        acc[2] += (ca[2] & cb[2]).count_ones();
        acc[3] += (ca[3] & cb[3]).count_ones();
    }
    let tail: u32 = wa
        .remainder()
        .iter()
        .zip(wb.remainder())
        .map(|(x, y)| (x & y).count_ones())
        .sum();
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// `popcount(a OR b)` over raw word slices.
#[inline]
pub fn or_count_words(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x | y).count_ones()).sum()
}

/// Byte-level lookup-table popcount over `a AND b`, kept as an ablation
/// baseline against the word-level `count_ones` kernel (see DESIGN.md §7).
pub fn and_count_words_lut(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    static LUT: [u8; 256] = {
        let mut t = [0u8; 256];
        let mut i = 0;
        while i < 256 {
            t[i] = (i as u8 & 1) + t[i / 2];
            i += 1;
        }
        t
    };
    let mut total = 0u32;
    for (x, y) in a.iter().zip(b) {
        let v = x & y;
        for byte in v.to_le_bytes() {
            total += LUT[byte as usize] as u32;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_has_no_ones() {
        let a = BitArray::zeroed(130);
        assert_eq!(a.count_ones(), 0);
        assert_eq!(a.len(), 130);
        assert!(a.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_panics() {
        let _ = BitArray::zeroed(0);
    }

    #[test]
    fn set_test_clear_roundtrip() {
        let mut a = BitArray::zeroed(100);
        for i in [0u32, 1, 63, 64, 65, 99] {
            assert!(!a.test(i));
            a.set(i);
            assert!(a.test(i));
        }
        assert_eq!(a.count_ones(), 6);
        a.clear(64);
        assert!(!a.test(64));
        assert_eq!(a.count_ones(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut a = BitArray::zeroed(64);
        a.set(64);
    }

    #[test]
    fn from_positions_dedups_collisions() {
        let a = BitArray::from_positions(64, [3, 3, 3, 10]);
        assert_eq!(a.count_ones(), 2);
        assert!(a.test(3) && a.test(10));
    }

    #[test]
    fn and_or_xor_counts() {
        let a = BitArray::from_positions(128, [0, 1, 2, 64, 127]);
        let b = BitArray::from_positions(128, [1, 2, 3, 127]);
        assert_eq!(a.and_count(&b), 3); // 1, 2, 127
        assert_eq!(a.or_count(&b), 6); // 0,1,2,3,64,127
        assert_eq!(a.xor_count(&b), 3); // 0, 3, 64
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let a = BitArray::zeroed(64);
        let b = BitArray::zeroed(128);
        let _ = a.and_count(&b);
    }

    #[test]
    fn union_and_intersect_in_place() {
        let mut a = BitArray::from_positions(64, [1, 2]);
        let b = BitArray::from_positions(64, [2, 3]);
        a.union_with(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn iter_ones_crosses_word_boundaries() {
        let positions = vec![0u32, 63, 64, 65, 191];
        let a = BitArray::from_positions(192, positions.clone());
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), positions);
    }

    #[test]
    fn lut_popcount_matches_hw_popcount() {
        let a = BitArray::from_positions(256, (0..256).step_by(3));
        let b = BitArray::from_positions(256, (0..256).step_by(5));
        assert_eq!(and_count_words_lut(a.words(), b.words()), a.and_count(&b));
    }

    #[test]
    fn unrolled_kernel_matches_lut_on_all_alignments() {
        // Word counts 1..=9 cover every position relative to the 4-way
        // unroll (0–1 full blocks plus 0–3 remainder words).
        for words in 1usize..=9 {
            let bits = words as u32 * 64;
            let a = BitArray::from_positions(bits, (0..bits).step_by(3));
            let b = BitArray::from_positions(bits, (0..bits).step_by(7));
            assert_eq!(
                and_count_words(a.words(), b.words()),
                and_count_words_lut(a.words(), b.words()),
                "words = {words}"
            );
        }
    }

    #[test]
    fn non_word_aligned_lengths_work() {
        let mut a = BitArray::zeroed(65);
        a.set(64);
        assert_eq!(a.count_ones(), 1);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![64]);
    }
}
