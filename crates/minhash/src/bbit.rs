//! b-bit minwise hashing (Li & König, CACM 2011).
//!
//! Stores only the lowest `b` bits of each MinHash coordinate, shrinking the
//! sketch by `64/b` while keeping an unbiased Jaccard estimator: for two
//! sets with true Jaccard `J`, the probability that a stored coordinate
//! matches is `P = C + (1 − C)·J` where `C ≈ 2^{-b}` is the accidental
//! collision rate, so `Ĵ = (P̂ − C) / (1 − C)`.

use crate::signature::{MinHashParams, MinHashStore};
use crate::sketch::SketchMode;
use goldfinger_core::profile::ProfileStore;

/// Parameters of the b-bit compaction.
#[derive(Debug, Clone, Copy)]
pub struct BbitParams {
    /// The underlying MinHash scheme.
    pub minhash: MinHashParams,
    /// Bits kept per coordinate (1..=16).
    pub bits: u32,
}

impl Default for BbitParams {
    /// The paper's baseline configuration: `b = 4`, 256 permutations
    /// (§3.2.1).
    fn default() -> Self {
        BbitParams {
            minhash: MinHashParams::default(),
            bits: 4,
        }
    }
}

/// Packed b-bit sketches for a whole user population.
#[derive(Debug, Clone)]
pub struct BbitStore {
    bits: u32,
    perms: usize,
    /// Per user, coordinates packed little-endian into u64 words.
    packed: Vec<Vec<u64>>,
    /// Which users had an empty profile (their sketch is meaningless).
    empty: Vec<bool>,
}

impl BbitStore {
    /// Sketches every profile: full MinHash first (one-pass for hashed
    /// permutations, see [`MinHashStore::build`]), then b-bit packing.
    ///
    /// # Panics
    /// Panics if `bits` is outside `1..=16`.
    pub fn build(params: BbitParams, profiles: &ProfileStore) -> Self {
        Self::build_with_mode(params, profiles, SketchMode::OnePass)
    }

    /// [`BbitStore::build`] with an explicit [`SketchMode`] for the
    /// underlying MinHash construction. The packing itself only consumes
    /// coordinates and is mode-agnostic.
    ///
    /// # Panics
    /// Panics if `bits` is outside `1..=16`.
    pub fn build_with_mode(params: BbitParams, profiles: &ProfileStore, mode: SketchMode) -> Self {
        assert!(
            (1..=16).contains(&params.bits),
            "bits per coordinate must be in 1..=16"
        );
        let full = MinHashStore::build_with_mode(params.minhash, profiles, mode);
        Self::from_minhash(&full, params.bits, profiles)
    }

    /// Packs an existing MinHash store.
    pub fn from_minhash(full: &MinHashStore, bits: u32, profiles: &ProfileStore) -> Self {
        let perms = full.permutations().len();
        let mask = (1u64 << bits) - 1;
        let words = (perms as u32 * bits).div_ceil(64) as usize;
        let mut packed = Vec::with_capacity(full.len());
        let mut empty = Vec::with_capacity(full.len());
        for u in 0..full.len() as u32 {
            let mut w = vec![0u64; words];
            for (p, &coord) in full.signature(u).coordinates().iter().enumerate() {
                let val = coord & mask;
                let bit_off = p as u32 * bits;
                let word = (bit_off / 64) as usize;
                let shift = bit_off % 64;
                w[word] |= val << shift;
                if shift + bits > 64 {
                    w[word + 1] |= val >> (64 - shift);
                }
            }
            packed.push(w);
            empty.push(profiles.items(u).is_empty());
        }
        BbitStore {
            bits,
            perms,
            packed,
            empty,
        }
    }

    /// Number of sketched users.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Bits kept per coordinate.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Sketch size in bytes per user.
    pub fn bytes_per_user(&self) -> usize {
        self.packed.first().map_or(0, |w| w.len() * 8)
    }

    /// Reads coordinate `p` of user `u`.
    #[inline]
    fn coord(&self, u: u32, p: usize) -> u64 {
        let bits = self.bits;
        let mask = (1u64 << bits) - 1;
        let bit_off = p as u32 * bits;
        let word = (bit_off / 64) as usize;
        let shift = bit_off % 64;
        let w = &self.packed[u as usize];
        let mut val = w[word] >> shift;
        if shift + bits > 64 {
            val |= w[word + 1] << (64 - shift);
        }
        val & mask
    }

    /// Fraction of matching coordinates between `u` and `v`.
    pub fn match_fraction(&self, u: u32, v: u32) -> f64 {
        let matches = (0..self.perms)
            .filter(|&p| self.coord(u, p) == self.coord(v, p))
            .count();
        matches as f64 / self.perms as f64
    }

    /// Unbiased Jaccard estimate (clamped to `[0, 1]`); 0 when either user
    /// has an empty profile.
    pub fn jaccard(&self, u: u32, v: u32) -> f64 {
        if self.empty[u as usize] || self.empty[v as usize] {
            return 0.0;
        }
        let c = (0.5f64).powi(self.bits as i32);
        let p_hat = self.match_fraction(u, v);
        ((p_hat - c) / (1.0 - c)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permute::PermutationStrategy;

    fn profiles() -> ProfileStore {
        ProfileStore::from_item_lists(vec![
            (0..100).collect(),
            (50..150).collect(), // J = 1/3
            (0..100).collect(),  // J = 1
            vec![],
        ])
    }

    fn build_mode(bits: u32, perms: usize, mode: SketchMode) -> BbitStore {
        BbitStore::build_with_mode(
            BbitParams {
                minhash: MinHashParams {
                    permutations: perms,
                    strategy: PermutationStrategy::Hashed,
                    seed: 5,
                },
                bits,
            },
            &profiles(),
            mode,
        )
    }

    fn build(bits: u32, perms: usize) -> BbitStore {
        build_mode(bits, perms, SketchMode::Classic)
    }

    #[test]
    fn identical_profiles_estimate_one() {
        let store = build(4, 256);
        assert!((store.jaccard(0, 2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_tracks_true_jaccard() {
        let store = build(4, 1024);
        let est = store.jaccard(0, 1);
        assert!((est - 1.0 / 3.0).abs() < 0.08, "est = {est}");
    }

    #[test]
    fn onepass_estimate_tracks_true_jaccard() {
        let store = build_mode(4, 1024, SketchMode::OnePass);
        let est = store.jaccard(0, 1);
        assert!((est - 1.0 / 3.0).abs() < 0.1, "est = {est}");
        assert!((store.jaccard(0, 2) - 1.0).abs() < 1e-9);
        assert_eq!(store.jaccard(0, 3), 0.0);
    }

    #[test]
    fn empty_profiles_score_zero() {
        let store = build(4, 64);
        assert_eq!(store.jaccard(0, 3), 0.0);
        assert_eq!(store.jaccard(3, 3), 0.0);
    }

    #[test]
    fn packing_roundtrips_across_word_boundaries() {
        // 5-bit coords straddle u64 boundaries; verify against full store.
        let p = profiles();
        let full = MinHashStore::build(
            MinHashParams {
                permutations: 100,
                strategy: PermutationStrategy::Hashed,
                seed: 9,
            },
            &p,
        );
        let store = BbitStore::from_minhash(&full, 5, &p);
        let mask = (1u64 << 5) - 1;
        for u in 0..3u32 {
            for (i, &coord) in full.signature(u).coordinates().iter().enumerate() {
                assert_eq!(store.coord(u, i), coord & mask, "user {u} coord {i}");
            }
        }
    }

    #[test]
    fn sketch_is_compact() {
        let store = build(4, 256);
        // 256 coords × 4 bits = 1024 bits = 128 bytes.
        assert_eq!(store.bytes_per_user(), 128);
    }

    #[test]
    fn one_bit_sketches_still_discriminate() {
        let store = build(1, 2048);
        let same = store.jaccard(0, 2);
        let third = store.jaccard(0, 1);
        assert!(same > 0.95, "same = {same}");
        assert!((third - 1.0 / 3.0).abs() < 0.12, "third = {third}");
    }

    #[test]
    #[should_panic(expected = "1..=16")]
    fn out_of_range_bits_panics() {
        let _ = build(0, 16);
    }
}
