//! Hyrec (Boutet, Frey, Guerraoui, Kermarrec & Patra, Middleware 2014).
//!
//! Like NNDescent, Hyrec refines a random graph with the
//! neighbour-of-a-neighbour heuristic, but iterates differently: at each
//! iteration, every user `u` is compared against its neighbours' neighbours
//! (rather than joining pairs among `u`'s neighbours), and the current graph
//! is *not* reversed. Terminates when fewer than `δ·k·n` updates occur or
//! after `max_iterations`.
//!
//! The iterate/converge/finalize scaffolding lives in
//! [`RefineEngine`]; this module only
//! contributes the Hyrec [`JoinStrategy`]: a start-of-iteration snapshot of
//! the neighbour ids, scanned two hops out with a [`VisitStamp`] guarding
//! against duplicate evaluations.

use crate::engine::{JoinStrategy, Joiner, RefineEngine};
use crate::graph::KnnResult;
use crate::neighborlist::NeighborList;
use goldfinger_core::similarity::Similarity;
use goldfinger_core::visit::VisitStamp;
use goldfinger_obs::{BuildObserver, NoopObserver};
use rand::rngs::StdRng;

/// Hyrec parameters. Defaults follow the paper's evaluation (§3.3):
/// `δ = 0.001`, at most 30 iterations.
#[derive(Debug, Clone, Copy)]
pub struct Hyrec {
    /// Termination threshold: stop when an iteration performs fewer than
    /// `delta · k · n` list updates.
    pub delta: f64,
    /// Hard cap on refinement iterations.
    pub max_iterations: u32,
    /// RNG seed for the initial random graph.
    pub seed: u64,
    /// Worker threads for the candidate scans, as in the paper's
    /// multi-threaded runs (0 = default parallelism). The plan/score/apply
    /// join of [`RefineEngine`] makes the output bit-identical for every
    /// thread count. The scan dispatches twice per window of users.
    /// Installing a `goldfinger_core::pool::Pool` turns each dispatch's
    /// thread spawn/join into a broadcast, but the pool's workers park
    /// between dispatches, so every dispatch still waits for a wake-up
    /// that a window's per-worker share must outweigh (the
    /// `pool_overhead` bench's `pool_wake` sweep measures it).
    pub threads: usize,
}

impl Default for Hyrec {
    fn default() -> Self {
        Hyrec {
            delta: 0.001,
            max_iterations: 30,
            seed: 0x4E_C0,
            threads: 1,
        }
    }
}

impl Hyrec {
    /// Builds an approximate KNN graph over the provider.
    ///
    /// # Panics
    /// Panics if `k == 0` or `delta` is negative.
    pub fn build(&self, sim: &dyn Similarity, k: usize) -> KnnResult {
        self.build_observed(sim, k, &NoopObserver)
    }

    /// Builds the graph, reporting progress to `obs`: an `IterationEvent`
    /// per refinement round (iteration 0 covers the random-graph seeding)
    /// carrying the evaluations performed, the neighbour-list updates and
    /// the `δ·k·n` termination threshold, plus spans for the snapshot and
    /// candidate-scan phases. Observation never changes the output; with
    /// the default [`NoopObserver`] the hooks are skipped.
    ///
    /// # Panics
    /// Panics if `k == 0` or `delta` is negative.
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

impl JoinStrategy for Hyrec {
    /// Snapshot of every user's neighbour ids as the iteration starts:
    /// Hyrec explores the graph as it stood, not as it mutates.
    type Plan = Vec<Vec<u32>>;
    /// Visited stamp plus a candidate buffer for the batched join.
    type Scratch = (VisitStamp, Vec<u32>);

    fn candidates(&self, _k: usize, lists: &mut [NeighborList], _rng: &mut StdRng) -> Self::Plan {
        lists.iter().map(|l| l.users().to_vec()).collect()
    }

    fn scratch(&self, n: usize) -> Self::Scratch {
        (VisitStamp::new(n), Vec::new())
    }

    fn join_user<J: Joiner>(
        &self,
        snapshot: &Self::Plan,
        u: usize,
        (stamp, candidates): &mut Self::Scratch,
        joiner: &mut J,
    ) {
        stamp.next_round();
        stamp.mark(u); // never compare u with itself
        for &v in &snapshot[u] {
            stamp.mark(v as usize); // already a neighbour: skip
        }
        // Dedup the two-hop frontier first, then score it as one batch
        // against u — same candidates in the same order as the nested
        // per-pair loop, but through the gather kernel.
        candidates.clear();
        for &v in &snapshot[u] {
            for &w in &snapshot[v as usize] {
                if stamp.mark(w as usize) {
                    candidates.push(w);
                }
            }
        }
        joiner.join_batch(u as u32, candidates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfinger_core::profile::ProfileStore;
    use goldfinger_core::similarity::ExplicitJaccard;

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
        let result = Hyrec::default().build(&sim, 5);
        for u in 0..20u32 {
            for s in result.graph.neighbors(u) {
                assert_eq!(s.user < 10, u < 10, "user {u} -> {}", s.user);
            }
        }
    }

    #[test]
    fn is_deterministic_for_a_seed() {
        let profiles = clustered(8);
        let sim = ExplicitJaccard::new(&profiles);
        let a = Hyrec::default().build(&sim, 4);
        let b = Hyrec::default().build(&sim, 4);
        for u in 0..16u32 {
            assert_eq!(a.graph.neighbors(u), b.graph.neighbors(u));
        }
    }

    #[test]
    fn scans_less_than_brute_force_on_larger_inputs() {
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
        let result = Hyrec::default().build(&sim, 5);
        let brute = 800u64 * 799 / 2;
        assert!(
            result.stats.similarity_evals < brute,
            "{} vs {}",
            result.stats.similarity_evals,
            brute
        );
    }

    #[test]
    fn quality_close_to_exact_on_clusters() {
        use crate::brute::BruteForce;
        use crate::metrics::average_similarity;
        let profiles = clustered(12);
        let sim = ExplicitJaccard::new(&profiles);
        let exact = BruteForce::default().build(&sim, 5);
        let approx = Hyrec::default().build(&sim, 5);
        let q = average_similarity(&approx.graph, &sim) / average_similarity(&exact.graph, &sim);
        assert!(q > 0.9, "quality = {q}");
    }

    #[test]
    fn parallel_build_equals_sequential() {
        let profiles = clustered(15);
        let sim = ExplicitJaccard::new(&profiles);
        let seq = Hyrec::default().build(&sim, 5);
        for threads in [2usize, 4] {
            let par = Hyrec {
                threads,
                ..Hyrec::default()
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
    fn max_iterations_respected() {
        let profiles = clustered(10);
        let sim = ExplicitJaccard::new(&profiles);
        let result = Hyrec {
            max_iterations: 2,
            ..Hyrec::default()
        }
        .build(&sim, 5);
        assert!(result.stats.iterations <= 2);
    }
}
