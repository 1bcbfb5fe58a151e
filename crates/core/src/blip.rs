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
//! All three inputs are counts of the noisy fingerprints, so the noisy rows
//! live in an ordinary [`ShfStore`] and the estimator is one more count
//! function for its gather ([`ShfStore::estimate_batch`]).

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
    /// The flipped fingerprints, with their observed popcounts.
    store: ShfStore,
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
        let b = store.width();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut data = Vec::with_capacity(store.len() * store.words_per_fingerprint());
        let mut cards = Vec::with_capacity(store.len());
        for u in 0..store.len() as u32 {
            let mut row = store.fingerprint_words(u).to_vec();
            // One draw per bit, in bit order: the bit flips with probability
            // p. Bits past the width are never drawn, so they stay zero.
            for pos in 0..b as usize {
                if rng.gen::<f64>() < p {
                    row[pos / 64] ^= 1 << (pos % 64);
                }
            }
            cards.push(row.iter().map(|w| w.count_ones()).sum());
            data.extend(row);
        }
        BlipStore {
            store: ShfStore::from_raw_parts(*store.params(), cards, data),
            flip_prob: p,
        }
    }

    /// Number of fingerprints.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Fingerprint width in bits.
    pub fn width(&self) -> u32 {
        self.store.width()
    }

    /// The flip probability that was applied.
    pub fn flip_probability(&self) -> f64 {
        self.flip_prob
    }

    /// The observed (noisy) words of fingerprint `u`.
    pub fn fingerprint_words(&self, u: u32) -> &[u64] {
        self.store.fingerprint_words(u)
    }

    /// Debiased Jaccard estimate between users `u` and `v`, clamped to
    /// `[0, 1]`; 0 when the denominators degenerate under noise.
    pub fn jaccard(&self, u: u32, v: u32) -> f64 {
        self.store.estimate(u, v, self.estimator())
    }

    /// The module-level estimator as a count function of the noisy store.
    /// The debiased cardinalities `ĉ` may be negative for tiny profiles
    /// under heavy noise; they stay `f64` on purpose.
    fn estimator(&self) -> impl Fn(u32, u32, u32) -> f64 {
        let (b, p) = (self.store.width() as f64, self.flip_prob);
        let q = 1.0 - 2.0 * p;
        move |obs_and, card1, card2| {
            let c1 = (card1 as f64 - b * p) / q;
            let c2 = (card2 as f64 - b * p) / q;
            let n11 = (obs_and as f64 - (c1 + c2) * p * q - b * p * p) / (q * q);
            let denom = c1 + c2 - n11;
            if denom <= 0.0 || n11 <= 0.0 {
                return 0.0;
            }
            (n11 / denom).clamp(0.0, 1.0)
        }
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
        self.store.store.bytes_per_comparison()
    }

    fn similarity_batch(&self, u: u32, vs: &[u32], out: &mut [f64]) {
        let noisy = self.store;
        noisy.store.estimate_batch(u, vs, out, noisy.estimator());
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

    /// Reference release: word-by-word flip masks over an unpadded arena,
    /// with precomputed `f64` debiased cardinalities.
    fn oracle_release(store: &ShfStore, params: BlipParams) -> (Vec<u64>, Vec<f64>) {
        let p = params.flip_probability();
        let q = 1.0 - 2.0 * p;
        let b = store.width();
        let words_per_fp = store.words_per_fingerprint();
        let tail_bits = b as usize - (words_per_fp - 1) * 64;
        let mut rng = StdRng::seed_from_u64(params.seed);
        let (mut data, mut est_cards) = (Vec::new(), Vec::new());
        for u in 0..store.len() as u32 {
            let mut card = 0u32;
            for (wi, &w) in store.fingerprint_words(u).iter().enumerate() {
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
                card += (w ^ mask).count_ones();
                data.push(w ^ mask);
            }
            est_cards.push((card as f64 - b as f64 * p) / q);
        }
        (data, est_cards)
    }

    /// Reference per-pair debiased estimator over the reference release.
    fn oracle_jaccard(words: &[&[u64]; 2], c1: f64, c2: f64, b: u32, p: f64) -> f64 {
        let q = 1.0 - 2.0 * p;
        let obs_and = crate::bits::and_count_words(words[0], words[1]) as f64;
        let n11 = (obs_and - (c1 + c2) * p * q - b as f64 * p * p) / (q * q);
        let denom = c1 + c2 - n11;
        if denom <= 0.0 || n11 <= 0.0 {
            return 0.0;
        }
        (n11 / denom).clamp(0.0, 1.0)
    }

    #[test]
    fn release_and_estimates_match_the_unpadded_oracle() {
        use crate::similarity::Similarity;
        // 320 bits: a partial tail word and padded arena rows. User 3 is
        // empty, user 4 saturated, and 70 users exceed one gather chunk.
        let mut lists: Vec<Vec<u32>> = (0..70u32)
            .map(|u| (u * 7..u * 7 + 20 + u % 50).collect())
            .collect();
        lists[3].clear();
        lists[4] = (0..5_000).collect();
        let store = ShfParams::new(320, DynHasher::new(HasherKind::Jenkins, 3))
            .fingerprint_store(&ProfileStore::from_item_lists(lists));
        assert_eq!(store.cardinality(4), 320);
        let ids: Vec<u32> = (0..store.len() as u32).collect();
        for epsilon in [0.5, 2.0, 8.0] {
            let params = BlipParams { epsilon, seed: 11 };
            let noisy = BlipStore::from_shf_store(&store, params);
            let (data, est_cards) = oracle_release(&store, params);
            let w = store.words_per_fingerprint();
            let row = |u: u32| &data[u as usize * w..(u as usize + 1) * w];
            let sim = BlipJaccard::new(&noisy);
            let mut batch = vec![0.0; ids.len()];
            for u in 0..store.len() as u32 {
                assert_eq!(
                    noisy.fingerprint_words(u),
                    row(u),
                    "ε = {epsilon}, user {u}"
                );
                sim.similarity_batch(u, &ids, &mut batch);
                for &v in &ids {
                    let want = oracle_jaccard(
                        &[row(u), row(v)],
                        est_cards[u as usize],
                        est_cards[v as usize],
                        320,
                        noisy.flip_probability(),
                    );
                    assert_eq!(sim.similarity(u, v), want, "ε = {epsilon}, pair ({u}, {v})");
                    assert_eq!(batch[v as usize], want, "ε = {epsilon}, batched ({u}, {v})");
                }
            }
        }
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
