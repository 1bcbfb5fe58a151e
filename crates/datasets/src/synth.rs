//! Synthetic datasets calibrated to the paper's Table 2.
//!
//! The six evaluation datasets (MovieLens 1M/10M/20M, AmazonMovies, DBLP,
//! Gowalla) are not redistributable inside this repository, so the harness
//! generates synthetic counterparts matching the statistics the paper's
//! behaviour depends on: user count, item-universe size, mean positive
//! profile size (hence density), a Zipf item-popularity law, and planted
//! user clusters so KNN graphs have genuine structure to recover.
//!
//! Generation model, per user `u`:
//! 1. draw a profile size from a lognormal law with the calibrated mean;
//! 2. assign `u` to one of `n_clusters` interest clusters;
//! 3. draw items by Zipf rank: with probability `cluster_affinity` through
//!    the cluster's rank permutation (cluster-specific tastes), otherwise
//!    through the identity permutation (globally popular items);
//! 4. rate drawn items above 3 (positive), then add `negative_ratio`
//!    as many ratings at or below 3 so binarisation has work to do.

use crate::model::{Rating, RatingsDataset};
use goldfinger_core::hash::splitmix64_mix;
use goldfinger_core::profile::ProfileSource;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Configuration of the synthetic generator.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Dataset label (used in reports).
    pub name: String,
    /// Number of users.
    pub n_users: usize,
    /// Size of the item universe.
    pub n_items: usize,
    /// Target mean number of *positive* items per user.
    pub mean_profile: f64,
    /// Number of planted interest clusters.
    pub n_clusters: usize,
    /// Probability that an item is drawn from the user's cluster taste
    /// rather than from global popularity.
    pub cluster_affinity: f64,
    /// Zipf popularity exponent (≈1 for rating datasets).
    pub zipf_exponent: f64,
    /// Ratings at or below the binarisation threshold, as a fraction of the
    /// positive ratings (0 ⇒ already-binary datasets like DBLP).
    pub negative_ratio: f64,
    /// RNG seed; fixed seeds make every experiment reproducible.
    pub seed: u64,
}

impl SynthConfig {
    fn preset(
        name: &str,
        n_users: usize,
        n_items: usize,
        mean_profile: f64,
        negative_ratio: f64,
    ) -> Self {
        SynthConfig {
            name: name.to_owned(),
            n_users,
            n_items,
            mean_profile,
            n_clusters: 25,
            cluster_affinity: 0.7,
            zipf_exponent: 1.0,
            negative_ratio,
            seed: 0x601D_F17E,
        }
    }

    /// MovieLens 1M counterpart (Table 2: 6 038 users, 3 533 items,
    /// mean positive profile 95.28).
    pub fn ml1m() -> Self {
        Self::preset("movielens1M", 6_038, 3_533, 95.28, 0.7)
    }

    /// MovieLens 10M counterpart (69 816 users, 10 472 items, 84.30).
    pub fn ml10m() -> Self {
        Self::preset("movielens10M", 69_816, 10_472, 84.30, 0.7)
    }

    /// MovieLens 20M counterpart (138 362 users, 22 884 items, 88.14).
    pub fn ml20m() -> Self {
        Self::preset("movielens20M", 138_362, 22_884, 88.14, 0.7)
    }

    /// AmazonMovies counterpart (57 430 users, 171 356 items, 56.82).
    ///
    /// The Zipf exponent and cluster affinity of the three sparse presets
    /// (AM, DBLP, Gowalla) are calibrated so that the exact-KNN similarity
    /// level — and hence GoldFinger's Table-4 quality loss — matches the
    /// paper's measurements (losses of ≈0.04 / 0.18 / 0.22 for Brute
    /// Force at b = 1024).
    pub fn amazon_movies() -> Self {
        let mut c = Self::preset("AmazonMovies", 57_430, 171_356, 56.82, 0.5);
        c.zipf_exponent = 1.15;
        c.cluster_affinity = 0.85;
        c
    }

    /// DBLP counterpart (18 889 users, 203 030 items, 36.67; inherently
    /// binary co-authorship, so no sub-threshold ratings).
    pub fn dblp() -> Self {
        let mut c = Self::preset("DBLP", 18_889, 203_030, 36.67, 0.0);
        c.zipf_exponent = 1.05;
        c.cluster_affinity = 0.8;
        c
    }

    /// Gowalla counterpart (20 270 users, 135 540 items, 54.64; binary
    /// friendship links).
    pub fn gowalla() -> Self {
        let mut c = Self::preset("Gowalla", 20_270, 135_540, 54.64, 0.0);
        c.zipf_exponent = 1.02;
        c.cluster_affinity = 0.8;
        c
    }

    /// All six presets in the paper's order.
    pub fn all_presets() -> Vec<SynthConfig> {
        vec![
            Self::ml1m(),
            Self::ml10m(),
            Self::ml20m(),
            Self::amazon_movies(),
            Self::dblp(),
            Self::gowalla(),
        ]
    }

    /// Scales the user count by `factor` (floor 64 users), keeping the item
    /// universe and profile sizes — so per-similarity cost is unchanged and
    /// relative speedups remain comparable on small machines.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.n_users = ((self.n_users as f64 * factor) as usize).max(64);
        self
    }

    /// Replaces the seed (for repeated-trial experiments).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the ratings dataset.
    pub fn generate(&self) -> RatingsDataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let model = Model::new(self, &mut rng);
        let mut ratings = Vec::new();
        let mut seen: HashSet<u32> = HashSet::new();
        for user in 0..self.n_users as u32 {
            seen.clear();
            model.draw_profile(&mut rng, |rng, item| {
                let new = seen.insert(item);
                if new {
                    // Positive rating: strictly above the threshold of 3.
                    let value = *[3.5f32, 4.0, 4.5, 5.0]
                        .get(rng.gen_range(0..4usize))
                        .expect("index in range");
                    ratings.push(Rating { user, item, value });
                }
                new
            });
            // Sub-threshold ratings (filtered out by binarisation).
            let negatives = (seen.len() as f64 * self.negative_ratio).round() as usize;
            for _ in 0..negatives {
                let rank = model.zipf.sample(&mut rng) as u64;
                let item = (rank % model.n_items) as u32;
                if seen.insert(item) {
                    let value = 0.5 + 0.5 * rng.gen_range(0..=5) as f32; // 0.5–3.0
                    ratings.push(Rating { user, item, value });
                }
            }
        }
        RatingsDataset::new(self.name.clone(), self.n_users, self.n_items, ratings)
    }
}

/// The generation model both generators draw from: the validated
/// calibration, the cluster rank permutations and the lognormal size law.
#[derive(Debug, Clone)]
struct Model {
    n_items: u64,
    cluster_affinity: f64,
    zipf: ZipfSampler,
    perms: Vec<(u64, u64)>,
    mu: f64,
    sigma: f64,
}

impl Model {
    /// Validates `cfg` and draws the cluster permutations from `rng`.
    fn new(cfg: &SynthConfig, rng: &mut StdRng) -> Self {
        assert!(cfg.n_items >= 2, "need at least two items");
        assert!(
            (0.0..=1.0).contains(&cfg.cluster_affinity),
            "cluster_affinity must be a probability"
        );
        // Cluster rank permutations: affine bijections r ↦ (a·r + b) mod m
        // with a coprime to m — cheap, deterministic, and distinct per
        // cluster.
        let m = cfg.n_items as u64;
        let perms: Vec<(u64, u64)> = (0..cfg.n_clusters.max(1))
            .map(|_| {
                let a = loop {
                    let cand = rng.gen_range(1..m);
                    if gcd(cand, m) == 1 {
                        break cand;
                    }
                };
                (a, rng.gen_range(0..m))
            })
            .collect();
        // Lognormal profile sizes with the calibrated mean.
        let sigma: f64 = 0.6;
        Model {
            n_items: m,
            cluster_affinity: cfg.cluster_affinity,
            zipf: ZipfSampler::new(cfg.n_items, cfg.zipf_exponent),
            perms,
            mu: cfg.mean_profile.max(1.0).ln() - sigma * sigma / 2.0,
            sigma,
        }
    }

    /// Draws one user's positive items: a cluster and a profile size, then
    /// items by Zipf rank (through the cluster's permutation with
    /// probability `cluster_affinity`) until `add(rng, item)` has reported
    /// `size` new items or `20·size` draws are spent. Sizes are clamped to
    /// `min(5, n_items / 2) ..= n_items / 2`.
    fn draw_profile(&self, rng: &mut StdRng, mut add: impl FnMut(&mut StdRng, u32) -> bool) {
        let (a, b) = self.perms[rng.gen_range(0..self.perms.len())];
        let max = (self.n_items / 2) as f64;
        let size = sample_lognormal(rng, self.mu, self.sigma)
            .round()
            .clamp(max.min(5.0), max) as usize;
        let (mut added, mut attempts) = (0usize, 0usize);
        while added < size && attempts < size * 20 {
            attempts += 1;
            let rank = self.zipf.sample(rng) as u64;
            let item = if rng.gen::<f64>() < self.cluster_affinity {
                ((a * rank + b) % self.n_items) as u32
            } else {
                rank as u32
            };
            if add(rng, item) {
                added += 1;
            }
        }
    }
}

/// Per-user-seeded streaming profile generator for out-of-core builds.
///
/// [`SynthConfig::generate`] draws every user from **one** sequential RNG
/// stream, so producing user `u`'s profile requires replaying users
/// `0..u` — fine in RAM, unusable when a 10M-user build wants to stream
/// profiles shard by shard. `StreamProfiles` uses the same generation
/// model (lognormal sizes, cluster permutations, Zipf popularity) but
/// seeds a fresh RNG per user from `splitmix64_mix(seed, u)`, making
/// every profile independently addressable: `items_into(u, …)` is O(its
/// own profile) and bit-stable across calls, which is exactly the
/// [`ProfileSource`] contract.
///
/// The profiles are *not* the same streams as `generate()` — the two
/// generators are statistically matched, not bit-matched. It yields the
/// binarised (positive-item) profile directly; sub-threshold ratings
/// never exist here.
#[derive(Debug, Clone)]
pub struct StreamProfiles {
    n_users: usize,
    model: Model,
    seed: u64,
}

impl StreamProfiles {
    /// Builds the generator for a config (shares its calibration fields;
    /// `negative_ratio` is irrelevant because output is already binary).
    ///
    /// # Panics
    /// Panics on the same invalid configs as [`SynthConfig::generate`].
    pub fn new(cfg: &SynthConfig) -> Self {
        StreamProfiles {
            n_users: cfg.n_users,
            model: Model::new(cfg, &mut StdRng::seed_from_u64(cfg.seed)),
            seed: cfg.seed,
        }
    }
}

impl ProfileSource for StreamProfiles {
    fn n_users(&self) -> usize {
        self.n_users
    }

    fn items_into(&self, u: u32, buf: &mut Vec<u32>) {
        assert!((u as usize) < self.n_users, "user {u} out of range");
        buf.clear();
        // Jump-seeded: the whole profile derives from (seed, u) alone.
        let mut rng = StdRng::seed_from_u64(splitmix64_mix(
            self.seed ^ (u as u64).wrapping_mul(0xA076_1D64),
        ));
        self.model.draw_profile(&mut rng, |_, item| {
            let new = !buf.contains(&item);
            if new {
                buf.push(item);
            }
            new
        });
        buf.sort_unstable();
    }
}

/// Zipf-law sampler over ranks `0..n` via inverse-CDF binary search on a
/// precomputed cumulative table (`O(log n)` per draw, exact).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for `n` ranks with exponent `s ≥ 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "ZipfSampler needs at least one rank");
        assert!(
            s.is_finite() && s >= 0.0,
            "exponent must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draws a rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of rank `r`.
    pub fn pmf(&self, r: usize) -> f64 {
        if r == 0 {
            self.cdf[0]
        } else {
            self.cdf[r] - self.cdf[r - 1]
        }
    }
}

fn sample_lognormal(rng: &mut impl Rng, mu: f64, sigma: f64) -> f64 {
    // Box-Muller: two uniforms → one standard normal.
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (mu + sigma * z).exp()
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SynthConfig {
        SynthConfig {
            name: "tiny".into(),
            n_users: 300,
            n_items: 2_000,
            mean_profile: 60.0,
            n_clusters: 5,
            cluster_affinity: 0.7,
            zipf_exponent: 1.0,
            negative_ratio: 0.5,
            seed: 7,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny().generate();
        let b = tiny().generate();
        assert_eq!(a.ratings().len(), b.ratings().len());
        assert_eq!(a.ratings()[10], b.ratings()[10]);
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in words.into_iter().flat_map(u64::to_le_bytes) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    #[test]
    fn both_generators_match_their_pinned_digests() {
        // Pins every RNG draw of both generators, so a refactor of the
        // shared generation model cannot change a dataset silently.
        let ratings = tiny().generate();
        let gen = fnv(ratings
            .ratings()
            .iter()
            .flat_map(|r| [r.user as u64, r.item as u64, r.value.to_bits() as u64]));
        assert_eq!(
            (ratings.ratings().len(), gen),
            (23_298, 0x05f0_8eef_115e_c1e0)
        );
        let stream = StreamProfiles::new(&tiny());
        let mut buf = Vec::new();
        let mut words = Vec::new();
        for u in 0..stream.n_users() as u32 {
            stream.items_into(u, &mut buf);
            words.push(buf.len() as u64);
            words.extend(buf.iter().map(|&i| i as u64));
        }
        assert_eq!(fnv(words), 0xa8c3_88c6_5e26_16b9);
    }

    #[test]
    fn tiny_item_universes_generate_in_range_profiles() {
        // Regression: below ten items the size clamp's lower bound (5)
        // exceeded its upper bound (n_items / 2) and `f64::clamp` panicked.
        for n_items in [2usize, 9] {
            let cfg = SynthConfig {
                n_items,
                n_users: 40,
                ..tiny()
            };
            let ratings = cfg.generate();
            assert!(!ratings.ratings().is_empty(), "n_items {n_items}");
            assert!(ratings
                .ratings()
                .iter()
                .all(|r| (r.item as usize) < n_items));
            let stream = StreamProfiles::new(&cfg);
            let mut buf = Vec::new();
            for u in 0..stream.n_users() as u32 {
                stream.items_into(u, &mut buf);
                assert!(!buf.is_empty(), "n_items {n_items}, user {u}");
                assert!(buf.iter().all(|&i| (i as usize) < n_items));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = tiny().generate();
        let b = tiny().with_seed(8).generate();
        assert_ne!(a.ratings().len(), b.ratings().len());
    }

    #[test]
    fn mean_profile_size_is_calibrated() {
        let d = tiny().generate().binarize(3.0);
        let mean = d.profiles().mean_profile_len();
        assert!(
            (mean - 60.0).abs() < 12.0,
            "mean positive profile size {mean} too far from target 60"
        );
    }

    #[test]
    fn no_duplicate_user_item_pairs() {
        let d = tiny().generate();
        let mut pairs: Vec<(u32, u32)> = d.ratings().iter().map(|r| (r.user, r.item)).collect();
        let before = pairs.len();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(before, pairs.len());
    }

    #[test]
    fn negative_ratio_zero_means_binary() {
        let mut c = tiny();
        c.negative_ratio = 0.0;
        let d = c.generate();
        assert!(d.ratings().iter().all(|r| r.value > 3.0));
    }

    #[test]
    fn clusters_create_similarity_structure() {
        // Users in the same cluster must be markedly more similar on
        // average than random pairs — otherwise KNN quality is meaningless.
        let d = tiny().generate().binarize(3.0);
        let p = d.profiles();
        let mut high = 0usize;
        let mut pairs = 0usize;
        for u in 0..50u32 {
            for v in (u + 1)..50u32 {
                pairs += 1;
                if p.jaccard(u, v) > 0.05 {
                    high += 1;
                }
            }
        }
        assert!(high > pairs / 50, "no similarity structure: {high}/{pairs}");
    }

    #[test]
    fn scaled_reduces_users_only() {
        let c = SynthConfig::ml1m().scaled(0.05);
        assert_eq!(c.n_items, 3_533);
        assert!((c.n_users as i64 - 301).abs() <= 1);
    }

    #[test]
    fn zipf_sampler_is_skewed_and_in_range() {
        let z = ZipfSampler::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut head = 0usize;
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                head += 1;
            }
        }
        // With s=1, the top-10 ranks hold ~39% of the mass.
        assert!(head > 2_500, "head draws: {head}");
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = ZipfSampler::new(100, 0.8);
        let total: f64 = (0..100).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let z = ZipfSampler::new(4, 0.0);
        for r in 0..4 {
            assert!((z.pmf(r) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn stream_profiles_are_deterministic_sorted_and_calibrated() {
        let cfg = tiny();
        let sp = StreamProfiles::new(&cfg);
        assert_eq!(ProfileSource::n_users(&sp), 300);
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut total = 0usize;
        for u in 0..300u32 {
            sp.items_into(u, &mut a);
            sp.items_into(u, &mut b);
            assert_eq!(a, b, "user {u} not stable across calls");
            assert!(a.windows(2).all(|w| w[0] < w[1]), "user {u} not sorted");
            assert!(a.iter().all(|&i| (i as usize) < cfg.n_items));
            total += a.len();
        }
        let mean = total as f64 / 300.0;
        assert!(
            (mean - cfg.mean_profile).abs() < 15.0,
            "mean profile {mean} too far from {}",
            cfg.mean_profile
        );
        // Different users get different profiles (no seed aliasing).
        sp.items_into(0, &mut a);
        sp.items_into(1, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn presets_match_table2_shape() {
        let presets = SynthConfig::all_presets();
        assert_eq!(presets.len(), 6);
        assert_eq!(presets[0].n_users, 6_038);
        assert_eq!(presets[3].n_items, 171_356);
        assert_eq!(presets[4].negative_ratio, 0.0);
    }
}
