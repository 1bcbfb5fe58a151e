//! Per-worker top-k partials: the fold, scoring, merge and drain shared by
//! the two scans that offer every visited pair to both of its ends — Brute
//! Force over tile cells and Cluster over clusters.
//!
//! Each worker folds into private state: one [`TopK`] per user plus one
//! flat *floor* per user, the worst kept similarity once that user's list
//! is full and −∞ before. An offer strictly below its target's floor skips
//! [`TopK::offer`], which would reject it anyway: `offer` rejects anything
//! below the worst kept entry. A tie still reaches `offer`, which breaks it
//! by user id, and the test asks whether `s` is *not* less than the floor
//! (`partial_cmp != Some(Less)`), so that a NaN, which compares to
//! nothing, still reaches `offer` and panics there. Most offers of a dense
//! scan fail the floor, and one flat array of `n` floats is far cheaper to
//! read than `n` heaps behind their own pointers.
//!
//! The kept set of a `TopK` does not depend on insertion order, so folding
//! the workers' partials in slot order yields the exact top-k of every
//! offered pair whatever the schedule: graph and counters are bit-identical
//! at any thread count. DESIGN.md §7.
//!
//! Builders that scan each user once on its own (LSH, KIFF, the
//! out-of-core build) go through [`crate::userscan`] instead; every
//! one-pass build ends in [`one_pass`].

use crate::graph::{BuildStats, CsrBuilder, KnnGraph, KnnResult};
use goldfinger_core::parallel::{effective_threads, par_fold_dynamic};
use goldfinger_core::similarity::Similarity;
use goldfinger_core::topk::TopK;
use goldfinger_obs::{BuildObserver, IterationEvent, Phase, PhaseTimer};
use std::cmp::Ordering;
use std::time::{Duration, Instant};

/// Workers for a computation whose output does not depend on the worker
/// count: the requested count clamped to the hardware parallelism. Extra
/// scan workers would buy nothing — each would only add an n-sized fold
/// state to thrash the cache during the scan and lengthen the merge.
pub(crate) fn scan_workers(threads: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    effective_threads(threads).min(hw)
}

/// One top-k list and one floor per user.
struct Lists {
    tops: Vec<TopK>,
    floors: Vec<f64>,
}

impl Lists {
    /// Offers `cand` at similarity `s` to `target`'s list.
    #[inline]
    fn offer(&mut self, target: usize, s: f64, cand: u32) {
        if s.partial_cmp(&self.floors[target]) != Some(Ordering::Less)
            && self.tops[target].offer(s, cand)
        {
            if let Some(floor) = self.tops[target].threshold() {
                self.floors[target] = floor;
            }
        }
    }
}

/// One worker's private fold state. No locks are taken on the hot path.
pub(crate) struct Partials {
    lists: Lists,
    /// Candidates of the next [`Partials::score_row`] call.
    pub(crate) ids: Vec<u32>,
    sims: Vec<f64>,
    evals: u64,
}

impl Partials {
    fn new(n: usize, k: usize) -> Self {
        Partials {
            lists: Lists {
                tops: (0..n).map(|_| TopK::new(k)).collect(),
                floors: vec![f64::NEG_INFINITY; n],
            },
            ids: Vec::new(),
            sims: Vec::new(),
            evals: 0,
        }
    }

    /// Scores `u` against every id in [`Partials::ids`] through one
    /// [`Similarity::similarity_batch`] call (the gather kernel for
    /// fingerprint providers) and offers each pair to both of its ends.
    #[inline]
    pub(crate) fn score_row(&mut self, sim: &dyn Similarity, u: u32) {
        self.sims.clear();
        self.sims.resize(self.ids.len(), 0.0);
        sim.similarity_batch(u, &self.ids, &mut self.sims);
        self.evals += self.ids.len() as u64;
        for (&v, &s) in self.ids.iter().zip(&self.sims) {
            self.lists.offer(u as usize, s, v);
            self.lists.offer(v as usize, s, u);
        }
    }

    /// Scores one pair through [`Similarity::similarity`] and offers it to
    /// both of its ends.
    #[inline]
    pub(crate) fn score_pair(&mut self, sim: &dyn Similarity, u: u32, v: u32) {
        let s = sim.similarity(u, v);
        self.evals += 1;
        self.lists.offer(u as usize, s, v);
        self.lists.offer(v as usize, s, u);
    }
}

/// Runs one scan over `n` users: folds work units `0..units` (tile cells,
/// clusters) through `fold` on [`scan_workers`]`(threads)` workers, merges
/// the partials in slot order through the same floors, and drains them into
/// the CSR graph. Reports one [`Phase::Join`] span for the fold, one
/// [`Phase::Merge`] span for merge and drain, and one [`IterationEvent`];
/// `start` is when the build began.
pub(crate) fn fold_scan(
    n: usize,
    k: usize,
    threads: usize,
    units: usize,
    obs: &dyn BuildObserver,
    start: Instant,
    fold: &(dyn Fn(&mut Partials, usize) + Sync),
) -> KnnResult {
    let join = PhaseTimer::start(obs, Phase::Join);
    let mut states = par_fold_dynamic(
        units,
        scan_workers(threads),
        1,
        |_| Partials::new(n, k),
        fold,
    );
    drop(join);

    let merge = PhaseTimer::start(obs, Phase::Merge);
    let mut merged = states.remove(0);
    for state in states {
        merged.evals += state.evals;
        for (u, part) in state.lists.tops.iter().enumerate() {
            for e in part.entries() {
                merged.lists.offer(u, e.sim, e.user);
            }
        }
    }
    // Drain each selector straight into the CSR arena: sort in place, no
    // per-user intermediate list.
    let mut csr = CsrBuilder::with_capacity(k, n);
    for top in &mut merged.lists.tops {
        csr.push_sorted(top.sorted_entries());
    }
    let graph = csr.finish();
    drop(merge);
    one_pass(obs, start, graph, merged.evals)
}

/// The tail of every one-pass build (Brute Force, Cluster, LSH, KIFF):
/// reports the build's single [`IterationEvent`] and wraps the graph and
/// its counters. `start` is when the build began.
pub(crate) fn one_pass(
    obs: &dyn BuildObserver,
    start: Instant,
    graph: KnnGraph,
    evals: u64,
) -> KnnResult {
    let wall = start.elapsed();
    obs.on_iteration(IterationEvent {
        iteration: 1,
        similarity_evals: evals,
        pruned_evals: 0,
        updates: 0,
        threshold: 0.0,
        wall,
    });
    KnnResult {
        graph,
        stats: BuildStats {
            similarity_evals: evals,
            pruned_evals: 0,
            iterations: 1,
            wall,
            prep_wall: Duration::ZERO,
        },
    }
}

#[cfg(test)]
mod tests {
    use crate::brute::BruteForce;
    use crate::cluster::Cluster;
    use goldfinger_core::profile::ProfileStore;
    use goldfinger_core::similarity::Similarity;

    /// A provider whose every similarity is NaN.
    struct NanSimilarity(usize);

    impl Similarity for NanSimilarity {
        fn n_users(&self) -> usize {
            self.0
        }

        fn similarity(&self, _u: u32, _v: u32) -> f64 {
            f64::NAN
        }

        fn bytes_per_eval(&self, _u: u32, _v: u32) -> u64 {
            0
        }
    }

    /// Identical profiles: every user shares every cluster.
    fn clones() -> ProfileStore {
        ProfileStore::from_item_lists((0..6).map(|_| (0..30).collect()).collect())
    }

    // The floor filter admits whatever is not less than the floor, so a
    // NaN still reaches `TopK::offer` and panics there. Written
    // `s >= floor`, it would drop every NaN and these builds would silently
    // return empty lists.

    #[test]
    #[should_panic(expected = "similarity must not be NaN")]
    fn brute_force_panics_on_nan() {
        let _ = BruteForce::default().build(&NanSimilarity(6), 1);
    }

    #[test]
    #[should_panic(expected = "similarity must not be NaN")]
    fn cluster_panics_on_nan() {
        let profiles = clones();
        let _ = Cluster::default().build(&profiles, &NanSimilarity(6), 1);
    }
}
