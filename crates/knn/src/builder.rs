//! The builder abstraction: one interface over every construction
//! algorithm in this crate.
//!
//! The six builders implement [`ErasedBuilder`], whose
//! [`build_erased`](ErasedBuilder::build_erased) takes the [`Similarity`]
//! provider behind a `dyn` reference in [`BuildInput`] and the
//! [`BuildObserver`] as a `&dyn` reference. The registry
//! ([`crate::builders`]) hands out `Box<dyn ErasedBuilder>` so harnesses
//! can enumerate and run algorithms without naming their types. Every
//! builder's inherent `build`/`build_observed` take `&dyn Similarity`
//! too, so each builder is compiled once whatever the provider. The
//! virtual call is small next to the comparison it dispatches, which reads
//! a whole profile or fingerprint pair (DESIGN.md §11).
//!
//! Inputs are bundled in [`BuildInput`] because the builders disagree on
//! what they need: the greedy refiners only consume a [`Similarity`], while
//! LSH and KIFF additionally read the explicit [`ProfileStore`] (bucketing
//! and the inverted index are GoldFinger-immune). The
//! [`ErasedBuilder::needs_profiles`] capability flag tells callers which
//! case they are in.

use crate::brute::BruteForce;
use crate::cluster::Cluster;
use crate::graph::KnnResult;
use crate::hyrec::Hyrec;
use crate::kiff::Kiff;
use crate::lsh::Lsh;
use crate::nndescent::NNDescent;
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::similarity::Similarity;
use goldfinger_obs::BuildObserver;

/// The inputs a builder may consume: the similarity provider, plus the
/// explicit profiles for algorithms whose candidate generation reads them.
#[derive(Clone, Copy)]
pub struct BuildInput<'a> {
    /// Scores candidate pairs (explicit provider = native run, SHF provider
    /// = GoldFinger run).
    pub sim: &'a dyn Similarity,
    /// Raw item sets, required by builders with
    /// [`ErasedBuilder::needs_profiles`]` == true` (LSH bucketing, KIFF's
    /// inverted index).
    pub profiles: Option<&'a ProfileStore>,
}

impl<'a> BuildInput<'a> {
    /// Input carrying only a similarity provider.
    pub fn new(sim: &'a dyn Similarity) -> Self {
        BuildInput {
            sim,
            profiles: None,
        }
    }

    /// Input carrying the provider and the explicit profiles.
    pub fn with_profiles(sim: &'a dyn Similarity, profiles: &'a ProfileStore) -> Self {
        BuildInput {
            sim,
            profiles: Some(profiles),
        }
    }

    /// The profile store.
    ///
    /// # Panics
    /// Panics when the input carries none — callers must honour
    /// [`ErasedBuilder::needs_profiles`].
    pub fn profiles(&self) -> &'a ProfileStore {
        self.profiles
            .expect("this builder needs explicit profiles (see ErasedBuilder::needs_profiles)")
    }
}

/// A KNN graph construction algorithm, run on any provider.
///
/// The determinism contract mirrors the golden-seed suite: when
/// [`deterministic`](ErasedBuilder::deterministic) reports `true`, repeated
/// builds over the same input produce bit-identical graphs and identical
/// `BuildStats` counters, and plugging in any observer never changes the
/// output.
pub trait ErasedBuilder: Sync {
    /// Display name, as printed in the paper's tables.
    fn name(&self) -> &'static str;

    /// Whether this configuration yields bit-identical output on repeated
    /// runs. Brute Force, LSH, KIFF and Cluster report `true` for any
    /// thread count; the greedy refiners only with `threads <= 1`. Every
    /// builder in fact reproduces its serial output, counters included, at
    /// every thread count (pinned by `golden_seed`'s `*/t4` rows and the
    /// `*_is_bit_identical` property tests), so the answers are unchanged
    /// only because the benchmark package's tests and digest-repeat check
    /// key on this flag at two threads. The method stays for that package;
    /// retiring it is left to a change that updates it too.
    fn deterministic(&self) -> bool;

    /// Whether [`BuildInput::profiles`] must be present.
    fn needs_profiles(&self) -> bool {
        false
    }

    /// Builds the graph, reporting iteration events and phase spans to
    /// `obs`.
    fn build_erased(&self, input: BuildInput<'_>, k: usize, obs: &dyn BuildObserver) -> KnnResult;
}

impl ErasedBuilder for BruteForce {
    fn name(&self) -> &'static str {
        "Brute Force"
    }

    // Tile cells fold into private partials merged deterministically, and
    // every pair is evaluated exactly once, so graph and counters are
    // bit-identical at any thread count.
    fn deterministic(&self) -> bool {
        true
    }

    fn build_erased(&self, input: BuildInput<'_>, k: usize, obs: &dyn BuildObserver) -> KnnResult {
        BruteForce::build_observed(self, input.sim, k, obs)
    }
}

impl ErasedBuilder for Hyrec {
    fn name(&self) -> &'static str {
        "Hyrec"
    }

    // Bit-identical at any thread count, reported only for one (see the
    // trait method's docs).
    fn deterministic(&self) -> bool {
        self.threads <= 1
    }

    fn build_erased(&self, input: BuildInput<'_>, k: usize, obs: &dyn BuildObserver) -> KnnResult {
        Hyrec::build_observed(self, input.sim, k, obs)
    }
}

impl ErasedBuilder for NNDescent {
    fn name(&self) -> &'static str {
        "NNDescent"
    }

    // Bit-identical at any thread count, reported only for one (see the
    // trait method's docs).
    fn deterministic(&self) -> bool {
        self.threads <= 1
    }

    fn build_erased(&self, input: BuildInput<'_>, k: usize, obs: &dyn BuildObserver) -> KnnResult {
        NNDescent::build_observed(self, input.sim, k, obs)
    }
}

impl ErasedBuilder for Lsh {
    fn name(&self) -> &'static str {
        "LSH"
    }

    // Every per-user scan is self-contained, so any thread count is
    // bit-identical.
    fn deterministic(&self) -> bool {
        true
    }

    fn needs_profiles(&self) -> bool {
        true
    }

    fn build_erased(&self, input: BuildInput<'_>, k: usize, obs: &dyn BuildObserver) -> KnnResult {
        Lsh::build_observed(self, input.profiles(), input.sim, k, obs)
    }
}

impl ErasedBuilder for Cluster {
    fn name(&self) -> &'static str {
        "Cluster"
    }

    // The visited pairs are fixed by the cluster assignment and the
    // per-worker partials merge deterministically, so any thread count is
    // bit-identical — counters included.
    fn deterministic(&self) -> bool {
        true
    }

    fn needs_profiles(&self) -> bool {
        true
    }

    fn build_erased(&self, input: BuildInput<'_>, k: usize, obs: &dyn BuildObserver) -> KnnResult {
        Cluster::build_observed(self, input.profiles(), input.sim, k, obs)
    }
}

impl ErasedBuilder for Kiff {
    fn name(&self) -> &'static str {
        "KIFF"
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn needs_profiles(&self) -> bool {
        true
    }

    fn build_erased(&self, input: BuildInput<'_>, k: usize, obs: &dyn BuildObserver) -> KnnResult {
        Kiff::build_observed(self, input.profiles(), input.sim, k, obs)
    }
}
