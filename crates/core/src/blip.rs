//! BLIP-style differential privacy for SHFs (Alaggan, Gambs & Kermarrec,
//! SSS 2012 — the paper's reference \[2\]).
//!
//! The paper notes (§2.5) that SHFs' k-anonymity/ℓ-diversity is not
//! differential privacy, but that DP "can be easily obtained by inserting
//! random noise to the SHF". This module implements that extension:
//! randomized response on every bit — each bit is flipped independently
//! with probability `p = 1 / (1 + e^ε)` — which makes the released
//! fingerprint ε-differentially private with respect to single-bit changes.
//!
//! Flipping breaks the plain estimator of Eq. 4, so [`BlipStore`] carries a
//! *debiased* estimator: with `q = 1 − 2p`,
//!
//! ```text
//! ĉ      = (obs_card − b·p) / q                    (per fingerprint)
//! n̂11   = (obs_and − (ĉ1 + ĉ2)·p·q − b·p²) / q²   (per pair)
//! Ĵ_dp  = n̂11 / (ĉ1 + ĉ2 − n̂11)
//! ```
//!
//! which is unbiased in expectation and degrades gracefully as ε shrinks.

use crate::bits::and_count_words;
use crate::shf::ShfStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the bit-flipping mechanism.
#[derive(Debug, Clone, Copy)]
pub struct BlipParams {
    /// Differential-privacy budget ε (> 0). Larger = less noise.
    pub epsilon: f64,
    /// RNG seed for the flips.
    pub seed: u64,
}

impl BlipParams {
    /// The per-bit flip probability `1 / (1 + e^ε)`.
    pub fn flip_probability(&self) -> f64 {
        1.0 / (1.0 + self.epsilon.exp())
    }
}

/// A fingerprint store whose bits went through randomized response, with
/// the matching debiased Jaccard estimator.
///
/// ```
/// use goldfinger_core::blip::{BlipParams, BlipStore};
/// use goldfinger_core::profile::ProfileStore;
/// use goldfinger_core::shf::ShfParams;
///
/// let profiles = ProfileStore::from_item_lists(vec![
///     (0..100).collect(), (50..150).collect(), // J = 1/3
/// ]);
/// let store = ShfParams::default().fingerprint_store(&profiles);
/// let noisy = BlipStore::from_shf_store(&store, BlipParams { epsilon: 4.0, seed: 1 });
/// // ε-DP release; the debiased estimator still tracks the similarity.
/// assert!((noisy.jaccard(0, 1) - 1.0 / 3.0).abs() < 0.15);
/// ```
#[derive(Debug, Clone)]
pub struct BlipStore {
    bits: u32,
    words_per_fp: usize,
    data: Vec<u64>,
    /// Debiased cardinality estimates (may be negative for tiny profiles
    /// under heavy noise; kept as f64 on purpose).
    est_cards: Vec<f64>,
    flip_prob: f64,
}

impl BlipStore {
    /// Applies randomized response to every fingerprint of a store.
    ///
    /// # Panics
    /// Panics if `epsilon` is not strictly positive and finite.
    pub fn from_shf_store(store: &ShfStore, params: BlipParams) -> Self {
        assert!(
            params.epsilon > 0.0 && params.epsilon.is_finite(),
            "epsilon must be positive and finite"
        );
        let p = params.flip_probability();
        let q = 1.0 - 2.0 * p;
        let b = store.width();
        let words_per_fp = store.words_per_fingerprint();
        let tail_bits = b as usize - (words_per_fp - 1) * 64;
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut data = Vec::with_capacity(store.len() * words_per_fp);
        let mut est_cards = Vec::with_capacity(store.len());
        for u in 0..store.len() as u32 {
            let words = store.fingerprint_words(u);
            let mut card = 0u32;
            for (wi, &w) in words.iter().enumerate() {
                // Flip mask: bit set with probability p.
                let live = if wi == words_per_fp - 1 {
                    tail_bits
                } else {
                    64
                };
                let mut mask = 0u64;
                for bit in 0..live {
                    if rng.gen::<f64>() < p {
                        mask |= 1u64 << bit;
                    }
                }
                let flipped = w ^ mask;
                card += flipped.count_ones();
                data.push(flipped);
            }
            est_cards.push((card as f64 - b as f64 * p) / q);
        }
        BlipStore {
            bits: b,
            words_per_fp,
            data,
            est_cards,
            flip_prob: p,
        }
    }

    /// Number of fingerprints.
    pub fn len(&self) -> usize {
        self.est_cards.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.est_cards.is_empty()
    }

    /// Fingerprint width in bits.
    pub fn width(&self) -> u32 {
        self.bits
    }

    /// The flip probability that was applied.
    pub fn flip_probability(&self) -> f64 {
        self.flip_prob
    }

    /// The observed (noisy) words of fingerprint `u`.
    pub fn fingerprint_words(&self, u: u32) -> &[u64] {
        &self.data[u as usize * self.words_per_fp..(u as usize + 1) * self.words_per_fp]
    }

    /// Debiased Jaccard estimate between users `u` and `v`, clamped to
    /// `[0, 1]`; 0 when the denominators degenerate under noise.
    pub fn jaccard(&self, u: u32, v: u32) -> f64 {
        let p = self.flip_prob;
        let q = 1.0 - 2.0 * p;
        let obs_and = and_count_words(self.fingerprint_words(u), self.fingerprint_words(v)) as f64;
        let (c1, c2) = (self.est_cards[u as usize], self.est_cards[v as usize]);
        let n11 = (obs_and - (c1 + c2) * p * q - self.bits as f64 * p * p) / (q * q);
        let denom = c1 + c2 - n11;
        if denom <= 0.0 || n11 <= 0.0 {
            return 0.0;
        }
        (n11 / denom).clamp(0.0, 1.0)
    }
}

/// Similarity provider over BLIPed fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct BlipJaccard<'a> {
    store: &'a BlipStore,
}

impl<'a> BlipJaccard<'a> {
    /// Wraps a noisy store.
    pub fn new(store: &'a BlipStore) -> Self {
        BlipJaccard { store }
    }
}

impl crate::similarity::Similarity for BlipJaccard<'_> {
    fn n_users(&self) -> usize {
        self.store.len()
    }

    fn similarity(&self, u: u32, v: u32) -> f64 {
        self.store.jaccard(u, v)
    }

    fn bytes_per_eval(&self, _u: u32, _v: u32) -> u64 {
        2 * (self.store.words_per_fp as u64 * 8 + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{DynHasher, HasherKind};
    use crate::profile::ProfileStore;
    use crate::shf::ShfParams;

    fn profiles() -> ProfileStore {
        ProfileStore::from_item_lists(vec![
            (0..100).collect(),
            (50..150).collect(), // J = 1/3
            (500..600).collect(),
        ])
    }

    fn shf_store(bits: u32) -> ShfStore {
        ShfParams::new(bits, DynHasher::new(HasherKind::Jenkins, 1)).fingerprint_store(&profiles())
    }

    #[test]
    fn flip_probability_shrinks_with_epsilon() {
        let lo = BlipParams {
            epsilon: 0.5,
            seed: 0,
        }
        .flip_probability();
        let hi = BlipParams {
            epsilon: 5.0,
            seed: 0,
        }
        .flip_probability();
        assert!(lo > hi);
        assert!(lo < 0.5);
        assert!(hi > 0.0);
    }

    #[test]
    fn high_epsilon_approaches_plain_estimator() {
        let store = shf_store(2048);
        let noisy = BlipStore::from_shf_store(
            &store,
            BlipParams {
                epsilon: 12.0,
                seed: 3,
            },
        );
        // At ε = 12, p ≈ 6e-6: essentially no flips on 2048 bits.
        assert!((noisy.jaccard(0, 1) - store.jaccard(0, 1)).abs() < 0.02);
    }

    #[test]
    fn debiased_estimator_is_roughly_unbiased_at_moderate_epsilon() {
        let store = shf_store(1024);
        let truth = store.jaccard(0, 1);
        // Average the DP estimate over many independent noise draws.
        let mut total = 0.0;
        let trials = 200;
        for seed in 0..trials {
            let noisy = BlipStore::from_shf_store(&store, BlipParams { epsilon: 2.0, seed });
            total += noisy.jaccard(0, 1);
        }
        let mean = total / trials as f64;
        assert!((mean - truth).abs() < 0.05, "mean {mean} vs truth {truth}");
    }

    #[test]
    fn heavy_noise_destroys_similarity_signal() {
        let store = shf_store(1024);
        let noisy = BlipStore::from_shf_store(
            &store,
            BlipParams {
                epsilon: 0.05,
                seed: 4,
            },
        );
        // With p ≈ 0.49 the observed arrays are near-random; estimates
        // collapse towards 0 (degenerate denominators) or noise.
        let j = noisy.jaccard(0, 1);
        assert!((0.0..=1.0).contains(&j));
    }

    #[test]
    fn unrelated_pairs_stay_low_under_moderate_noise() {
        let store = shf_store(2048);
        let noisy = BlipStore::from_shf_store(
            &store,
            BlipParams {
                epsilon: 3.0,
                seed: 5,
            },
        );
        assert!(noisy.jaccard(0, 2) < noisy.jaccard(0, 1));
    }

    #[test]
    fn noise_is_seed_deterministic() {
        let store = shf_store(256);
        let a = BlipStore::from_shf_store(
            &store,
            BlipParams {
                epsilon: 1.0,
                seed: 9,
            },
        );
        let b = BlipStore::from_shf_store(
            &store,
            BlipParams {
                epsilon: 1.0,
                seed: 9,
            },
        );
        assert_eq!(a.fingerprint_words(0), b.fingerprint_words(0));
        let c = BlipStore::from_shf_store(
            &store,
            BlipParams {
                epsilon: 1.0,
                seed: 10,
            },
        );
        assert_ne!(a.fingerprint_words(0), c.fingerprint_words(0));
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn non_positive_epsilon_panics() {
        let store = shf_store(64);
        let _ = BlipStore::from_shf_store(
            &store,
            BlipParams {
                epsilon: 0.0,
                seed: 0,
            },
        );
    }

    #[test]
    fn provider_wires_through() {
        use crate::similarity::Similarity;
        let store = shf_store(512);
        let noisy = BlipStore::from_shf_store(
            &store,
            BlipParams {
                epsilon: 4.0,
                seed: 2,
            },
        );
        let sim = BlipJaccard::new(&noisy);
        assert_eq!(sim.n_users(), 3);
        assert_eq!(sim.similarity(0, 1), noisy.jaccard(0, 1));
        assert!(sim.bytes_per_eval(0, 1) > 0);
    }
}
