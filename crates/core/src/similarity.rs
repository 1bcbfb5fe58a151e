//! Similarity providers: the abstraction GoldFinger plugs into.
//!
//! KNN-graph algorithms only ever ask "how similar are users `u` and `v`?".
//! The [`Similarity`] trait captures that question. The native providers
//! answer it from explicit profiles; the fingerprint providers (*GoldFinger*)
//! answer it from packed fingerprints. Because algorithms take any provider
//! (`&dyn Similarity`), every algorithm in `goldfinger-knn` is accelerated
//! by switching the provider — exactly the paper's claim that fingerprinting is generic.
//!
//! Every fingerprint estimator is a scalar function of three counts: the
//! AND-popcount and the two cached cardinalities. [`ShfJaccard`] (Eq. 4),
//! [`ShfCosine`], [`crate::estimate::CorrectedShfJaccard`] and
//! [`crate::blip::BlipJaccard`] differ only in that *count function*; each
//! answers `similarity` through [`ShfStore::estimate`] and
//! `similarity_batch` through the one chunked gather,
//! [`ShfStore::estimate_batch`].

use crate::profile::{intersection_size_sorted, ProfileStore};
use crate::shf::{cosine_from_counts, jaccard_from_counts, ShfStore};

/// A symmetric similarity oracle over `n` users, safe to query from many
/// threads at once.
pub trait Similarity: Sync {
    /// Number of users.
    fn n_users(&self) -> usize;

    /// Similarity between users `u` and `v` in `[0, 1]`.
    fn similarity(&self, u: u32, v: u32) -> f64;

    /// Bytes of profile payload one evaluation of `similarity(u, v)` reads.
    ///
    /// This feeds the analytic memory-traffic model substituting for the
    /// paper's hardware L1 counters (Table 5): explicit Jaccard scans both
    /// sorted id lists (4 bytes per id), an SHF comparison reads both
    /// fingerprints and their cached cardinalities.
    fn bytes_per_eval(&self, u: u32, v: u32) -> u64;

    /// A cheap upper bound on `similarity(u, v)` from per-user metadata
    /// alone, or `None` when the provider offers none (the default).
    ///
    /// No builder calls it: the exhaustive scans evaluate every pair
    /// through the batched kernels instead (DESIGN.md §7). It stays on the
    /// trait because the benchmark package's timing wrapper forwards it.
    fn similarity_upper_bound(&self, u: u32, v: u32) -> Option<f64> {
        let _ = (u, v);
        None
    }

    /// Similarities between user `u` and every user in `vs`, one value per
    /// candidate in order.
    ///
    /// The default loops over [`Similarity::similarity`], so every provider
    /// keeps its exact semantics (instrumented wrappers count each pair);
    /// packed-fingerprint providers override it with the batched gather
    /// kernels of [`ShfStore`]. The contract is strict: `out[i]` must equal
    /// `self.similarity(u, vs[i])` bit for bit — batching is a scheduling
    /// change, never a value change.
    ///
    /// # Panics
    /// Panics if `vs.len() != out.len()`.
    fn similarity_batch(&self, u: u32, vs: &[u32], out: &mut [f64]) {
        assert_eq!(vs.len(), out.len());
        for (&v, o) in vs.iter().zip(out.iter_mut()) {
            *o = self.similarity(u, v);
        }
    }
}

/// Native provider: Jaccard's index on explicit sorted profiles.
#[derive(Debug, Clone, Copy)]
pub struct ExplicitJaccard<'a> {
    profiles: &'a ProfileStore,
}

impl<'a> ExplicitJaccard<'a> {
    /// Wraps a packed profile store.
    pub fn new(profiles: &'a ProfileStore) -> Self {
        ExplicitJaccard { profiles }
    }

    /// The wrapped store.
    pub fn profiles(&self) -> &'a ProfileStore {
        self.profiles
    }
}

impl Similarity for ExplicitJaccard<'_> {
    #[inline]
    fn n_users(&self) -> usize {
        self.profiles.n_users()
    }

    #[inline]
    fn similarity(&self, u: u32, v: u32) -> f64 {
        self.profiles.jaccard(u, v)
    }

    #[inline]
    fn bytes_per_eval(&self, u: u32, v: u32) -> u64 {
        // The merge reads every id of both profiles in the worst case; use
        // the exact scan length of the early-exit merge for fairness.
        let a = self.profiles.items(u);
        let b = self.profiles.items(v);
        let inter = intersection_size_sorted(a, b);
        // Each merge step advances at least one cursor and reads both heads;
        // bounded above by reading each list once.
        ((a.len() + b.len() - inter) as u64) * 4
    }
}

/// Native provider: cosine similarity on explicit binary profiles,
/// `|A ∩ B| / √(|A|·|B|)`.
#[derive(Debug, Clone, Copy)]
pub struct ExplicitCosine<'a> {
    profiles: &'a ProfileStore,
}

impl<'a> ExplicitCosine<'a> {
    /// Wraps a packed profile store.
    pub fn new(profiles: &'a ProfileStore) -> Self {
        ExplicitCosine { profiles }
    }
}

impl Similarity for ExplicitCosine<'_> {
    #[inline]
    fn n_users(&self) -> usize {
        self.profiles.n_users()
    }

    #[inline]
    fn similarity(&self, u: u32, v: u32) -> f64 {
        let a = self.profiles.items(u);
        let b = self.profiles.items(v);
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let inter = intersection_size_sorted(a, b) as f64;
        inter / ((a.len() as f64) * (b.len() as f64)).sqrt()
    }

    #[inline]
    fn bytes_per_eval(&self, u: u32, v: u32) -> u64 {
        ((self.profiles.items(u).len() + self.profiles.items(v).len()) as u64) * 4
    }
}

/// GoldFinger provider: the SHF Jaccard estimator over packed fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct ShfJaccard<'a> {
    store: &'a ShfStore,
}

impl<'a> ShfJaccard<'a> {
    /// Wraps a packed fingerprint store.
    pub fn new(store: &'a ShfStore) -> Self {
        ShfJaccard { store }
    }

    /// The wrapped store.
    pub fn store(&self) -> &'a ShfStore {
        self.store
    }
}

impl Similarity for ShfJaccard<'_> {
    #[inline]
    fn n_users(&self) -> usize {
        self.store.len()
    }

    #[inline]
    fn similarity(&self, u: u32, v: u32) -> f64 {
        self.store.estimate(u, v, jaccard_from_counts)
    }

    #[inline]
    fn bytes_per_eval(&self, _u: u32, _v: u32) -> u64 {
        self.store.bytes_per_comparison()
    }

    #[inline]
    fn similarity_batch(&self, u: u32, vs: &[u32], out: &mut [f64]) {
        self.store.estimate_batch(u, vs, out, jaccard_from_counts);
    }
}

/// GoldFinger provider: the SHF cosine estimator.
#[derive(Debug, Clone, Copy)]
pub struct ShfCosine<'a> {
    store: &'a ShfStore,
}

impl<'a> ShfCosine<'a> {
    /// Wraps a packed fingerprint store.
    pub fn new(store: &'a ShfStore) -> Self {
        ShfCosine { store }
    }
}

impl Similarity for ShfCosine<'_> {
    #[inline]
    fn n_users(&self) -> usize {
        self.store.len()
    }

    #[inline]
    fn similarity(&self, u: u32, v: u32) -> f64 {
        self.store.estimate(u, v, cosine_from_counts)
    }

    #[inline]
    fn bytes_per_eval(&self, _u: u32, _v: u32) -> u64 {
        self.store.bytes_per_comparison()
    }

    #[inline]
    fn similarity_batch(&self, u: u32, vs: &[u32], out: &mut [f64]) {
        self.store.estimate_batch(u, vs, out, cosine_from_counts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{DynHasher, HasherKind};
    use crate::shf::ShfParams;

    fn small_store() -> ProfileStore {
        ProfileStore::from_item_lists(vec![
            (0..100).collect(),
            (50..150).collect(),
            (200..220).collect(),
            vec![],
        ])
    }

    #[test]
    fn explicit_jaccard_values() {
        let profiles = small_store();
        let s = ExplicitJaccard::new(&profiles);
        assert_eq!(s.n_users(), 4);
        assert!((s.similarity(0, 1) - 50.0 / 150.0).abs() < 1e-12);
        assert_eq!(s.similarity(0, 2), 0.0);
        assert_eq!(s.similarity(0, 3), 0.0);
        // symmetry
        assert_eq!(s.similarity(0, 1), s.similarity(1, 0));
    }

    #[test]
    fn explicit_cosine_values() {
        let profiles = small_store();
        let s = ExplicitCosine::new(&profiles);
        assert!((s.similarity(0, 1) - 0.5).abs() < 1e-12); // 50/sqrt(100*100)
        assert_eq!(s.similarity(0, 3), 0.0);
    }

    #[test]
    fn shf_provider_tracks_explicit_provider() {
        let profiles = small_store();
        let store = ShfParams::new(8192, DynHasher::new(HasherKind::Jenkins, 1))
            .fingerprint_store(&profiles);
        let exact = ExplicitJaccard::new(&profiles);
        let approx = ShfJaccard::new(&store);
        for (u, v) in [(0u32, 1u32), (0, 2), (1, 2)] {
            assert!(
                (exact.similarity(u, v) - approx.similarity(u, v)).abs() < 0.05,
                "pair ({u},{v})"
            );
        }
    }

    #[test]
    fn shf_cosine_tracks_explicit_cosine() {
        let profiles = small_store();
        let store = ShfParams::new(8192, DynHasher::new(HasherKind::Jenkins, 1))
            .fingerprint_store(&profiles);
        let exact = ExplicitCosine::new(&profiles);
        let approx = ShfCosine::new(&store);
        assert!((exact.similarity(0, 1) - approx.similarity(0, 1)).abs() < 0.05);
        assert_eq!(approx.similarity(0, 3), 0.0);
    }

    #[test]
    fn similarity_batch_is_bit_identical_to_per_pair_for_all_providers() {
        use crate::blip::{BlipJaccard, BlipParams, BlipStore};
        use crate::estimate::CorrectedShfJaccard;
        // User 3 is empty and user 4 saturates the 320-bit fingerprint; the
        // 150 candidates span three gather chunks, with repeats.
        let mut lists: Vec<Vec<u32>> = vec![
            (0..100).collect(),
            (50..150).collect(),
            (200..220).collect(),
            vec![],
            (0..5_000).collect(),
        ];
        lists.extend((0..6u32).map(|u| (u * 40..u * 40 + 30 + u * 9).collect()));
        let profiles = ProfileStore::from_item_lists(lists);
        let store = ShfParams::new(320, DynHasher::new(HasherKind::Jenkins, 7))
            .fingerprint_store(&profiles);
        assert_eq!((store.cardinality(3), store.cardinality(4)), (0, 320));
        let noisy = BlipStore::from_shf_store(
            &store,
            BlipParams {
                epsilon: 2.0,
                seed: 5,
            },
        );
        let providers: Vec<Box<dyn Similarity>> = vec![
            Box::new(ExplicitJaccard::new(&profiles)),
            Box::new(ExplicitCosine::new(&profiles)),
            Box::new(ShfJaccard::new(&store)),
            Box::new(ShfCosine::new(&store)),
            Box::new(CorrectedShfJaccard::new(&store)),
            Box::new(BlipJaccard::new(&noisy)),
        ];
        let n = profiles.n_users() as u32;
        let vs: Vec<u32> = (0..150u32).map(|i| (i * 7 + i / 11) % n).collect();
        for (i, sim) in providers.iter().enumerate() {
            for u in 0..n {
                let mut out = vec![0.0; vs.len()];
                sim.similarity_batch(u, &vs, &mut out);
                for (&v, &got) in vs.iter().zip(&out) {
                    assert_eq!(got, sim.similarity(u, v), "provider {i}, pair ({u}, {v})");
                }
            }
        }
    }

    #[test]
    fn byte_models_favor_fingerprints_for_large_profiles() {
        let profiles =
            ProfileStore::from_item_lists(vec![(0..500).collect(), (100..600).collect()]);
        let store = ShfParams::new(1024, DynHasher::default()).fingerprint_store(&profiles);
        let explicit = ExplicitJaccard::new(&profiles);
        let gf = ShfJaccard::new(&store);
        assert!(gf.bytes_per_eval(0, 1) < explicit.bytes_per_eval(0, 1));
    }
}
