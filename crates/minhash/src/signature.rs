//! Full MinHash signatures (Broder 1997).

use crate::permute::{PermutationStrategy, Permutations};
use crate::sketch::{densify, SketchMode};
use goldfinger_core::hash::splitmix64_mix;
use goldfinger_core::profile::ProfileStore;

/// Parameters of a MinHash sketching scheme.
#[derive(Debug, Clone, Copy)]
pub struct MinHashParams {
    /// Number of permutations (= signature coordinates).
    pub permutations: usize,
    /// Permutation realisation strategy.
    pub strategy: PermutationStrategy,
    /// Seed for the permutation family.
    pub seed: u64,
}

impl Default for MinHashParams {
    /// 256 permutations, explicit — the configuration the paper reports as
    /// "the best trade-off between time and KNN quality" for the baseline.
    fn default() -> Self {
        MinHashParams {
            permutations: 256,
            strategy: PermutationStrategy::Explicit,
            seed: 0xB10B,
        }
    }
}

/// One user's MinHash signature: the minimum rank under each permutation.
/// Empty profiles produce `u64::MAX` in every coordinate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinHashSignature {
    mins: Vec<u64>,
}

impl MinHashSignature {
    /// The raw coordinates.
    pub fn coordinates(&self) -> &[u64] {
        &self.mins
    }

    /// Estimates Jaccard's index as the fraction of matching coordinates.
    ///
    /// # Panics
    /// Panics if the signatures have different lengths.
    pub fn jaccard(&self, other: &MinHashSignature) -> f64 {
        assert_eq!(
            self.mins.len(),
            other.mins.len(),
            "signature length mismatch"
        );
        let matches = self
            .mins
            .iter()
            .zip(&other.mins)
            .filter(|(a, b)| a == b && **a != u64::MAX)
            .count();
        matches as f64 / self.mins.len() as f64
    }
}

/// One-pass signature of a single profile: one `splitmix64` hash per item
/// selects a slot (high bits, multiply-shift) and derives the item's rank
/// in it (one extra mix, halved so it can never equal the `u64::MAX`
/// empty-slot sentinel); empty slots are then densified. `O(|items| +
/// perms)` total — the per-item cost no longer scales with the number of
/// hash functions.
fn onepass_signature(items: &[u32], perms: usize, seed: u64) -> Vec<u64> {
    let mut mins = vec![u64::MAX; perms];
    if items.is_empty() {
        return mins;
    }
    // Domain-separates the one-pass item hash from the per-permutation
    // seeds of the classic family.
    let salt = splitmix64_mix(seed ^ 0x5159_A5E5_0E0D_A55E);
    for &it in items {
        let h = splitmix64_mix(it as u64 ^ salt);
        let slot = (((h >> 32) * perms as u64) >> 32) as usize;
        let rank = splitmix64_mix(h) >> 1;
        if rank < mins[slot] {
            mins[slot] = rank;
        }
    }
    densify(&mut mins);
    mins
}

/// All users' signatures plus the permutation family that produced them.
#[derive(Debug, Clone)]
pub struct MinHashStore {
    perms: Permutations,
    signatures: Vec<MinHashSignature>,
}

impl MinHashStore {
    /// Sketches every profile of a store. Hashed permutations take the
    /// one-pass path, one hash per item; [`MinHashStore::build_with_mode`]
    /// with [`SketchMode::Classic`] keeps the per-hash-function loop as the
    /// accuracy reference.
    pub fn build(params: MinHashParams, profiles: &ProfileStore) -> Self {
        Self::build_with_mode(params, profiles, SketchMode::OnePass)
    }

    /// [`MinHashStore::build`] with an explicit [`SketchMode`].
    ///
    /// Classic preparation cost: building the permutation family
    /// (`O(perms · |I|)` in explicit mode — the Table 3 bottleneck) plus
    /// `O(perms · associations)` for the signatures themselves. One-pass
    /// cost: `O(associations + perms)` per user — one hash per item, one
    /// densification sweep per signature. The explicit strategy always
    /// uses the classic loop (it *is* the baseline Table 3 measures);
    /// one-pass applies to the hashed strategy.
    pub fn build_with_mode(
        params: MinHashParams,
        profiles: &ProfileStore,
        mode: SketchMode,
    ) -> Self {
        let universe = (profiles.item_universe_bound() as usize).max(1);
        let perms = Permutations::new(params.strategy, params.permutations, universe, params.seed);
        let onepass = mode == SketchMode::OnePass && params.strategy == PermutationStrategy::Hashed;
        let signatures = (0..profiles.n_users() as u32)
            .map(|u| {
                let items = profiles.items(u);
                let mins = if onepass {
                    onepass_signature(items, params.permutations, params.seed)
                } else {
                    (0..perms.len())
                        .map(|p| perms.min_rank(p, items).unwrap_or(u64::MAX))
                        .collect()
                };
                MinHashSignature { mins }
            })
            .collect();
        MinHashStore { perms, signatures }
    }

    /// Number of sketched users.
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// True when no user was sketched.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// The permutation family.
    pub fn permutations(&self) -> &Permutations {
        &self.perms
    }

    /// Signature of user `u`.
    pub fn signature(&self, u: u32) -> &MinHashSignature {
        &self.signatures[u as usize]
    }

    /// Jaccard estimate between users `u` and `v`.
    pub fn jaccard(&self, u: u32, v: u32) -> f64 {
        self.signatures[u as usize].jaccard(&self.signatures[v as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles() -> ProfileStore {
        ProfileStore::from_item_lists(vec![
            (0..100).collect(),
            (50..150).collect(), // J(0,1) = 50/150
            (0..100).collect(),  // J(0,2) = 1
            vec![],
        ])
    }

    fn params(strategy: PermutationStrategy) -> MinHashParams {
        MinHashParams {
            permutations: 512,
            strategy,
            seed: 3,
        }
    }

    #[test]
    fn identical_profiles_estimate_one() {
        let store = MinHashStore::build(params(PermutationStrategy::Hashed), &profiles());
        assert!((store.jaccard(0, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn estimate_tracks_true_jaccard() {
        for strategy in [PermutationStrategy::Hashed, PermutationStrategy::Explicit] {
            let store =
                MinHashStore::build_with_mode(params(strategy), &profiles(), SketchMode::Classic);
            let est = store.jaccard(0, 1);
            assert!((est - 1.0 / 3.0).abs() < 0.08, "{strategy:?}: est = {est}");
        }
    }

    #[test]
    fn onepass_estimate_tracks_true_jaccard() {
        let store = MinHashStore::build_with_mode(
            params(PermutationStrategy::Hashed),
            &profiles(),
            SketchMode::OnePass,
        );
        let est = store.jaccard(0, 1);
        assert!((est - 1.0 / 3.0).abs() < 0.1, "onepass est = {est}");
        assert!((store.jaccard(0, 2) - 1.0).abs() < 1e-12);
        assert_eq!(store.jaccard(0, 3), 0.0);
        assert_eq!(store.jaccard(3, 3), 0.0);
    }

    #[test]
    fn explicit_strategy_ignores_the_onepass_mode() {
        // The Fisher–Yates baseline is what Table 3 measures; one-pass
        // must never silently replace it.
        let p = profiles();
        let classic = MinHashStore::build_with_mode(
            params(PermutationStrategy::Explicit),
            &p,
            SketchMode::Classic,
        );
        let onepass = MinHashStore::build_with_mode(
            params(PermutationStrategy::Explicit),
            &p,
            SketchMode::OnePass,
        );
        for u in 0..4u32 {
            assert_eq!(classic.signature(u), onepass.signature(u), "user {u}");
        }
    }

    /// Estimator-accuracy property test: over many independent seeds, the
    /// one-pass construction must be unbiased and concentrate like the
    /// classic per-hash-function baseline (RMSE within a small constant
    /// factor — densification trades a little variance for an
    /// order-of-magnitude cheaper pass).
    #[test]
    fn onepass_concentration_matches_the_per_function_baseline() {
        let scenarios: [(Vec<u32>, Vec<u32>, f64); 2] = [
            ((0..100).collect(), (50..150).collect(), 1.0 / 3.0),
            ((0..600).collect(), (200..800).collect(), 400.0 / 800.0),
        ];
        for (a, b, true_j) in scenarios {
            let p = ProfileStore::from_item_lists(vec![a.clone(), b.clone()]);
            let mut errs = [Vec::new(), Vec::new()]; // [classic, onepass]
            for seed in 0..24u64 {
                let params = MinHashParams {
                    permutations: 256,
                    strategy: PermutationStrategy::Hashed,
                    seed: 1000 + seed,
                };
                for (slot, mode) in [SketchMode::Classic, SketchMode::OnePass]
                    .into_iter()
                    .enumerate()
                {
                    let store = MinHashStore::build_with_mode(params, &p, mode);
                    errs[slot].push(store.jaccard(0, 1) - true_j);
                }
            }
            let rmse = |e: &[f64]| (e.iter().map(|x| x * x).sum::<f64>() / e.len() as f64).sqrt();
            let bias = |e: &[f64]| e.iter().sum::<f64>() / e.len() as f64;
            let (rc, ro) = (rmse(&errs[0]), rmse(&errs[1]));
            let (bc, bo) = (bias(&errs[0]), bias(&errs[1]));
            assert!(
                bo.abs() < 0.05,
                "one-pass bias {bo:.4} (classic {bc:.4}) at J = {true_j}"
            );
            assert!(
                ro <= 2.0 * rc + 0.02,
                "one-pass RMSE {ro:.4} vs classic {rc:.4} at J = {true_j}"
            );
        }
    }

    #[test]
    fn empty_profiles_never_match() {
        let store = MinHashStore::build(params(PermutationStrategy::Hashed), &profiles());
        assert_eq!(store.jaccard(3, 3), 0.0);
        assert_eq!(store.jaccard(0, 3), 0.0);
    }

    #[test]
    fn signatures_have_requested_length() {
        let store = MinHashStore::build(params(PermutationStrategy::Hashed), &profiles());
        assert_eq!(store.signature(0).coordinates().len(), 512);
        assert_eq!(store.len(), 4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_signature_lengths_panic() {
        let a = MinHashSignature { mins: vec![1, 2] };
        let b = MinHashSignature { mins: vec![1] };
        let _ = a.jaccard(&b);
    }
}
