//! NNDescent (Dong, Moses & Li, WWW 2011).
//!
//! Starts from a random graph and iteratively applies *local joins*: for
//! every user, pairs of its (direct and reverse) neighbours are compared and
//! both sides' lists updated — "a neighbour of a neighbour is likely a
//! neighbour". Update flags avoid re-comparing pairs that were already
//! joined, and the reverse graph widens the search. Converges when fewer
//! than `δ·k·n` updates happen in an iteration, or after `max_iterations`.
//!
//! The iterate/converge/finalize scaffolding lives in
//! [`RefineEngine`]; this module only
//! contributes the NNDescent [`JoinStrategy`]: sampled new/old neighbour
//! sets (forward and reverse) per user, joined new×new and new×old.

use crate::engine::{JoinStrategy, Joiner, RefineEngine};
use crate::graph::KnnResult;
use crate::idsets::IdSets;
use crate::neighborlist::NeighborList;
use goldfinger_core::similarity::Similarity;
use goldfinger_obs::{BuildObserver, NoopObserver};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// NNDescent parameters. Defaults follow the paper's evaluation (§3.3):
/// `δ = 0.001`, at most 30 iterations, full sampling.
#[derive(Debug, Clone, Copy)]
pub struct NNDescent {
    /// Termination threshold: stop when an iteration performs fewer than
    /// `delta · k · n` list updates.
    pub delta: f64,
    /// Hard cap on refinement iterations.
    pub max_iterations: u32,
    /// Fraction of new/reverse neighbours sampled into each local join
    /// (ρ of the original paper; 1.0 = use them all).
    pub sample_rate: f64,
    /// RNG seed for the initial random graph and sampling.
    pub seed: u64,
    /// Worker threads for the local joins, as in the paper's
    /// multi-threaded runs (0 = default parallelism). Candidate sampling
    /// stays sequential and seeded, and the plan/score/apply join of
    /// [`RefineEngine`] makes the output bit-identical for every thread
    /// count. The join dispatches twice per window of users. Installing
    /// a `goldfinger_core::pool::Pool` turns each dispatch's thread
    /// spawn/join into a broadcast, but the pool's workers park between
    /// dispatches, so every dispatch still waits for a wake-up that a
    /// window's per-worker share must outweigh (the `pool_overhead`
    /// bench's `pool_wake` sweep measures it).
    pub threads: usize,
}

impl Default for NNDescent {
    fn default() -> Self {
        NNDescent {
            delta: 0.001,
            max_iterations: 30,
            sample_rate: 1.0,
            seed: 0xD0_0D,
            threads: 1,
        }
    }
}

impl NNDescent {
    /// Builds an approximate KNN graph over the provider.
    ///
    /// # Panics
    /// Panics if `k == 0` or the parameters are out of range.
    pub fn build(&self, sim: &dyn Similarity, k: usize) -> KnnResult {
        self.build_observed(sim, k, &NoopObserver)
    }

    /// Builds the graph, reporting progress to `obs`: an `IterationEvent`
    /// per refinement round (iteration 0 covers the random-graph seeding)
    /// carrying the evaluations performed, the neighbour-list updates and
    /// the `δ·k·n` termination threshold they were compared against, plus
    /// spans for the candidate-sampling and local-join phases. Observation
    /// never changes the output; with the default [`NoopObserver`] the
    /// hooks are skipped.
    ///
    /// # Panics
    /// Panics if `k == 0` or the parameters are out of range.
    pub fn build_observed(
        &self,
        sim: &dyn Similarity,
        k: usize,
        obs: &dyn BuildObserver,
    ) -> KnnResult {
        RefineEngine {
            delta: self.delta,
            max_iterations: self.max_iterations,
            seed: self.seed,
            threads: self.threads,
        }
        .run(sim, k, self, obs)
    }
}

/// Appends to `sets` the set `fwd ∪ sample(rev)`, sorted and
/// deduplicated, where the sample is the first `cap` ids of `rev` after
/// shuffling it in place. `buf` is reused scratch.
fn push_joined(
    sets: &mut IdSets,
    fwd: &[u32],
    rev: &mut [u32],
    cap: usize,
    rng: &mut StdRng,
    buf: &mut Vec<u32>,
) {
    rev.shuffle(rng);
    buf.clear();
    buf.extend_from_slice(fwd);
    buf.extend_from_slice(&rev[..rev.len().min(cap)]);
    buf.sort_unstable();
    buf.dedup();
    sets.extend_from_slice(buf);
    sets.close();
}

/// One iteration's sampled join sets: for every user, the "new" neighbours
/// (taking part in a join for the first time, forward + sampled reverse)
/// and the "old" ones.
pub struct NNDescentPlan {
    new_sets: IdSets,
    old_sets: IdSets,
}

impl JoinStrategy for NNDescent {
    type Plan = NNDescentPlan;
    /// Candidate buffer for filtered new×old batches.
    type Scratch = Vec<u32>;

    fn validate(&self) {
        assert!(
            self.sample_rate > 0.0 && self.sample_rate <= 1.0,
            "sample_rate must be in (0, 1]"
        );
    }

    fn candidates(&self, k: usize, lists: &mut [NeighborList], rng: &mut StdRng) -> NNDescentPlan {
        let n = lists.len();
        let sample_cap = ((k as f64 * self.sample_rate).ceil() as usize).max(1);

        // Phase 1: split each list into sampled-new and old, flag the
        // sampled entries as no-longer-new (they join this round).
        let mut new_fwd = IdSets::with_capacity(n, n * sample_cap);
        let mut old_fwd = IdSets::with_capacity(n, n * k);
        let mut fresh: Vec<usize> = Vec::with_capacity(k);
        let mut sampled = vec![false; k];
        for list in lists.iter_mut() {
            fresh.clear();
            fresh.extend((0..list.len()).filter(|&i| list.new_flags()[i]));
            fresh.shuffle(rng);
            fresh.truncate(sample_cap);
            // Partition by sampled *slot* rather than scanning the sampled
            // set per entry (which was O(k²) per user).
            for &i in &fresh {
                sampled[i] = true;
                list.mark_old(i);
                new_fwd.push(list.users()[i]);
            }
            for (i, &v) in list.users().iter().enumerate() {
                if !std::mem::take(&mut sampled[i]) {
                    old_fwd.push(v);
                }
            }
            new_fwd.close();
            old_fwd.close();
        }

        // Phase 2: reverse lists.
        let mut new_rev = IdSets::inverted((0..n).map(|u| new_fwd.get(u)), n);
        let mut old_rev = IdSets::inverted((0..n).map(|u| old_fwd.get(u)), n);

        // Per-user join sets: forward plus a sample of reverse, deduplicated.
        // (Joins never draw from the RNG, so computing every set up front
        // performs the exact draw sequence of the historical interleaved
        // loop.)
        let mut new_sets = IdSets::with_capacity(n, 2 * n * sample_cap);
        let mut old_sets = IdSets::with_capacity(n, n * (k + sample_cap));
        let mut buf = Vec::new();
        for u in 0..n {
            let (fwd, rev) = (new_fwd.get(u), new_rev.get_mut(u));
            push_joined(&mut new_sets, fwd, rev, sample_cap, rng, &mut buf);
            let (fwd, rev) = (old_fwd.get(u), old_rev.get_mut(u));
            push_joined(&mut old_sets, fwd, rev, sample_cap, rng, &mut buf);
        }
        NNDescentPlan { new_sets, old_sets }
    }

    fn scratch(&self, _n: usize) -> Self::Scratch {
        Vec::new()
    }

    fn join_user<J: Joiner>(
        &self,
        plan: &NNDescentPlan,
        u: usize,
        scratch: &mut Self::Scratch,
        joiner: &mut J,
    ) {
        let new_set = plan.new_sets.get(u);
        let old_set = plan.old_sets.get(u);
        // new × new (exploit id order to join each pair once): each a_i is
        // batched against the tail of the set — same pairs, same order as
        // the nested per-pair loop, scored through the gather kernel.
        for (i, &a) in new_set.iter().enumerate() {
            joiner.join_batch(a, &new_set[i + 1..]);
        }
        // … and new × old, filtering self-pairs into the scratch buffer so
        // the remaining candidates batch.
        for &a in new_set {
            scratch.clear();
            scratch.extend(old_set.iter().copied().filter(|&b| b != a));
            joiner.join_batch(a, scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfinger_core::profile::ProfileStore;
    use goldfinger_core::similarity::ExplicitJaccard;

    /// Clustered profiles: users 0–9 share items 0–19, users 10–19 share
    /// items 100–119, with per-user noise.
    fn clustered(n_per: usize) -> ProfileStore {
        let mut lists = Vec::new();
        for u in 0..n_per {
            let mut items: Vec<u32> = (0..20).collect();
            items.push(200 + u as u32);
            lists.push(items);
        }
        for u in 0..n_per {
            let mut items: Vec<u32> = (100..120).collect();
            items.push(300 + u as u32);
            lists.push(items);
        }
        ProfileStore::from_item_lists(lists)
    }

    #[test]
    fn recovers_cluster_structure() {
        let profiles = clustered(10);
        let sim = ExplicitJaccard::new(&profiles);
        let result = NNDescent::default().build(&sim, 5);
        // Every user's neighbours must come from its own cluster.
        for u in 0..20u32 {
            for s in result.graph.neighbors(u) {
                assert_eq!(
                    s.user < 10,
                    u < 10,
                    "user {u} got cross-cluster neighbour {}",
                    s.user
                );
            }
        }
    }

    #[test]
    fn performs_fewer_evals_than_brute_force_on_larger_inputs() {
        // Greedy search only pays off when n ≫ k²: 800 users, k = 5.
        let mut lists = Vec::new();
        for c in 0..40u32 {
            for u in 0..20u32 {
                let mut items: Vec<u32> = (c * 50..c * 50 + 15).collect();
                items.push(10_000 + c * 100 + u);
                lists.push(items);
            }
        }
        let profiles = ProfileStore::from_item_lists(lists);
        let sim = ExplicitJaccard::new(&profiles);
        let result = NNDescent::default().build(&sim, 5);
        let brute = 800u64 * 799 / 2;
        assert!(
            result.stats.similarity_evals < brute,
            "{} evals vs brute {}",
            result.stats.similarity_evals,
            brute
        );
        assert!(result.stats.iterations >= 1);
    }

    #[test]
    fn is_deterministic_for_a_seed() {
        let profiles = clustered(8);
        let sim = ExplicitJaccard::new(&profiles);
        let a = NNDescent::default().build(&sim, 4);
        let b = NNDescent::default().build(&sim, 4);
        for u in 0..16u32 {
            assert_eq!(a.graph.neighbors(u), b.graph.neighbors(u));
        }
    }

    #[test]
    fn max_iterations_caps_work() {
        let profiles = clustered(10);
        let sim = ExplicitJaccard::new(&profiles);
        let nnd = NNDescent {
            max_iterations: 1,
            ..NNDescent::default()
        };
        let result = nnd.build(&sim, 5);
        assert_eq!(result.stats.iterations, 1);
    }

    #[test]
    fn sample_rate_reduces_eval_count() {
        // ρ bounds the *per-iteration* join work (the paper's claim); pin
        // the iteration budget so convergence speed doesn't confound the
        // comparison on this small population.
        let profiles = clustered(15);
        let sim = ExplicitJaccard::new(&profiles);
        let full = NNDescent {
            max_iterations: 2,
            ..NNDescent::default()
        }
        .build(&sim, 8);
        let half = NNDescent {
            max_iterations: 2,
            sample_rate: 0.5,
            ..NNDescent::default()
        }
        .build(&sim, 8);
        assert!(half.stats.similarity_evals < full.stats.similarity_evals);
    }

    #[test]
    fn parallel_build_equals_sequential() {
        let profiles = clustered(15);
        let sim = ExplicitJaccard::new(&profiles);
        let seq = NNDescent::default().build(&sim, 5);
        for threads in [2usize, 4] {
            let par = NNDescent {
                threads,
                ..NNDescent::default()
            }
            .build(&sim, 5);
            assert_eq!(par.stats.similarity_evals, seq.stats.similarity_evals);
            assert_eq!(par.stats.iterations, seq.stats.iterations);
            for u in 0..seq.graph.n_users() as u32 {
                assert_eq!(
                    par.graph.neighbors(u),
                    seq.graph.neighbors(u),
                    "t{threads} user {u}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "sample_rate")]
    fn invalid_sample_rate_panics() {
        let profiles = clustered(2);
        let sim = ExplicitJaccard::new(&profiles);
        let _ = NNDescent {
            sample_rate: 0.0,
            ..NNDescent::default()
        }
        .build(&sim, 2);
    }
}
