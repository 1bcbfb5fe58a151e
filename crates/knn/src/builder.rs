//! The `KnnBuilder` abstraction: one interface over every construction
//! algorithm in this crate.
//!
//! Two layers:
//!
//! - [`KnnBuilder`] is the statically-dispatched trait the six builders
//!   implement. It is generic over the [`Similarity`] provider and the
//!   [`BuildObserver`] — exactly like the builders' inherent methods, which
//!   remain in place (concrete call sites keep their signatures and their
//!   monomorphised, zero-overhead observer paths).
//! - [`ErasedBuilder`] is the dyn-safe form, obtained for free from any
//!   `KnnBuilder` via a blanket impl. The registry
//!   ([`crate::builders`]) hands out `Box<dyn ErasedBuilder>` so harnesses
//!   can enumerate and run algorithms without naming their types; similarity
//!   and observer are passed behind `dyn` references there.
//!
//! Inputs are bundled in [`BuildInput`] because the builders disagree on
//! what they need: the greedy refiners only consume a [`Similarity`], while
//! LSH and KIFF additionally read the explicit [`ProfileStore`] (bucketing
//! and the inverted index are GoldFinger-immune). The
//! [`KnnBuilder::needs_profiles`] capability flag tells callers which case
//! they are in.

use crate::brute::BruteForce;
use crate::cluster::Cluster;
use crate::graph::KnnResult;
use crate::hyrec::Hyrec;
use crate::kiff::Kiff;
use crate::lsh::Lsh;
use crate::nndescent::NNDescent;
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::similarity::Similarity;
use goldfinger_obs::{BuildObserver, DynObserver, NoopObserver, ObserverHooks};

/// The inputs a builder may consume: the similarity provider, plus the
/// explicit profiles for algorithms whose candidate generation reads them.
#[derive(Debug)]
pub struct BuildInput<'a, S: ?Sized> {
    /// Scores candidate pairs (explicit provider = native run, SHF provider
    /// = GoldFinger run).
    pub sim: &'a S,
    /// Raw item sets, required by builders with
    /// [`KnnBuilder::needs_profiles`]` == true` (LSH bucketing, KIFF's
    /// inverted index).
    pub profiles: Option<&'a ProfileStore>,
}

impl<'a, S: ?Sized> BuildInput<'a, S> {
    /// Input carrying only a similarity provider.
    pub fn new(sim: &'a S) -> Self {
        BuildInput {
            sim,
            profiles: None,
        }
    }

    /// Input carrying the provider and the explicit profiles.
    pub fn with_profiles(sim: &'a S, profiles: &'a ProfileStore) -> Self {
        BuildInput {
            sim,
            profiles: Some(profiles),
        }
    }

    /// The profile store.
    ///
    /// # Panics
    /// Panics when the input carries none — callers must honour
    /// [`KnnBuilder::needs_profiles`].
    pub fn profiles(&self) -> &'a ProfileStore {
        self.profiles
            .expect("this builder needs explicit profiles (see KnnBuilder::needs_profiles)")
    }
}

impl<S: ?Sized> Clone for BuildInput<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: ?Sized> Copy for BuildInput<'_, S> {}

/// A KNN graph construction algorithm, generic over provider and observer.
///
/// The determinism contract mirrors the golden-seed suite: when
/// [`deterministic`](KnnBuilder::deterministic) reports `true`, repeated
/// builds over the same input produce bit-identical graphs and identical
/// `BuildStats` counters, and plugging in any observer never changes the
/// output.
pub trait KnnBuilder: Sync {
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
    fn build_observed<S: Similarity + ?Sized, O: BuildObserver>(
        &self,
        input: BuildInput<'_, S>,
        k: usize,
        obs: &O,
    ) -> KnnResult;

    /// Builds the graph unobserved.
    fn build<S: Similarity + ?Sized>(&self, input: BuildInput<'_, S>, k: usize) -> KnnResult {
        self.build_observed(input, k, &NoopObserver)
    }
}

/// Dyn-safe form of [`KnnBuilder`], implemented for every builder by a
/// blanket impl. This is what the registry boxes.
pub trait ErasedBuilder: Sync {
    /// See [`KnnBuilder::name`].
    fn name(&self) -> &'static str;

    /// See [`KnnBuilder::deterministic`].
    fn deterministic(&self) -> bool;

    /// See [`KnnBuilder::needs_profiles`].
    fn needs_profiles(&self) -> bool;

    /// Builds the graph with provider and observer behind `dyn` references.
    ///
    /// A disabled observer ([`ObserverHooks::enabled`]` == false`) is
    /// replaced by the static [`NoopObserver`], restoring the builders'
    /// bookkeeping-free path.
    fn build_erased<'a>(
        &self,
        input: BuildInput<'a, dyn Similarity + 'a>,
        k: usize,
        obs: &dyn ObserverHooks,
    ) -> KnnResult;
}

impl<B: KnnBuilder> ErasedBuilder for B {
    fn name(&self) -> &'static str {
        KnnBuilder::name(self)
    }

    fn deterministic(&self) -> bool {
        KnnBuilder::deterministic(self)
    }

    fn needs_profiles(&self) -> bool {
        KnnBuilder::needs_profiles(self)
    }

    fn build_erased<'a>(
        &self,
        input: BuildInput<'a, dyn Similarity + 'a>,
        k: usize,
        obs: &dyn ObserverHooks,
    ) -> KnnResult {
        if obs.enabled() {
            KnnBuilder::build_observed(self, input, k, &DynObserver(obs))
        } else {
            KnnBuilder::build_observed(self, input, k, &NoopObserver)
        }
    }
}

// The trait impls delegate to the builders' inherent entry points, which
// keep their historical signatures (inherent methods win at concrete call
// sites, so existing callers are untouched).

impl KnnBuilder for BruteForce {
    fn name(&self) -> &'static str {
        "Brute Force"
    }

    // Tile cells fold into private partials merged deterministically, and
    // every pair is evaluated exactly once, so graph and counters are
    // bit-identical at any thread count.
    fn deterministic(&self) -> bool {
        true
    }

    fn build_observed<S: Similarity + ?Sized, O: BuildObserver>(
        &self,
        input: BuildInput<'_, S>,
        k: usize,
        obs: &O,
    ) -> KnnResult {
        BruteForce::build_observed(self, input.sim, k, obs)
    }
}

impl KnnBuilder for Hyrec {
    fn name(&self) -> &'static str {
        "Hyrec"
    }

    // Bit-identical at any thread count, reported only for one (see the
    // trait method's docs).
    fn deterministic(&self) -> bool {
        self.threads <= 1
    }

    fn build_observed<S: Similarity + ?Sized, O: BuildObserver>(
        &self,
        input: BuildInput<'_, S>,
        k: usize,
        obs: &O,
    ) -> KnnResult {
        Hyrec::build_observed(self, input.sim, k, obs)
    }
}

impl KnnBuilder for NNDescent {
    fn name(&self) -> &'static str {
        "NNDescent"
    }

    // Bit-identical at any thread count, reported only for one (see the
    // trait method's docs).
    fn deterministic(&self) -> bool {
        self.threads <= 1
    }

    fn build_observed<S: Similarity + ?Sized, O: BuildObserver>(
        &self,
        input: BuildInput<'_, S>,
        k: usize,
        obs: &O,
    ) -> KnnResult {
        NNDescent::build_observed(self, input.sim, k, obs)
    }
}

impl KnnBuilder for Lsh {
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

    fn build_observed<S: Similarity + ?Sized, O: BuildObserver>(
        &self,
        input: BuildInput<'_, S>,
        k: usize,
        obs: &O,
    ) -> KnnResult {
        Lsh::build_observed(self, input.profiles(), input.sim, k, obs)
    }
}

impl KnnBuilder for Cluster {
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

    fn build_observed<S: Similarity + ?Sized, O: BuildObserver>(
        &self,
        input: BuildInput<'_, S>,
        k: usize,
        obs: &O,
    ) -> KnnResult {
        Cluster::build_observed(self, input.profiles(), input.sim, k, obs)
    }
}

impl KnnBuilder for Kiff {
    fn name(&self) -> &'static str {
        "KIFF"
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn needs_profiles(&self) -> bool {
        true
    }

    fn build_observed<S: Similarity + ?Sized, O: BuildObserver>(
        &self,
        input: BuildInput<'_, S>,
        k: usize,
        obs: &O,
    ) -> KnnResult {
        Kiff::build_observed(self, input.profiles(), input.sim, k, obs)
    }
}
