//! KIFF (Boutet, Kermarrec, Mittal & Taïani, ICDE 2016): KNN construction
//! that exploits the bipartite user–item structure.
//!
//! Discussed in the paper's related work (§6): instead of comparing
//! arbitrary user pairs, KIFF only considers pairs that *share at least one
//! item*, discovered through an inverted item→users index, and ranks
//! candidates by their co-rating count before spending exact similarity
//! evaluations on the most promising ones. This "works particularly well on
//! sparse datasets but has more difficulties with denser ones" — popular
//! items blow up the candidate lists, which the `max_item_degree` cap
//! mitigates.
//!
//! Like every other algorithm in this crate, the candidate *scoring* goes
//! through a [`Similarity`] provider, so KIFF too is GoldFinger-ready.
//!
//! The build has two phases:
//!
//! - **Inverted index** (candidate generation): a counting-sort CSR —
//!   `offsets` plus one flat array of user ids, each item's raters in id
//!   order — built in two passes over the profiles, with a fixed number
//!   of allocations however large the item universe is (the crate's
//!   `IdSets`, which also holds NNDescent's join plans).
//! - **Per-user scan** (the join): each user counts co-ratings over its
//!   items' rater lists and keeps the top `candidate_factor · k`
//!   candidates by `(count desc, id asc)` with a linear-time selection
//!   followed by a sort of the survivors only. That shortlist is all KIFF
//!   supplies to the per-user scan shared with LSH (`knn::userscan`),
//!   which scores it in one batched call on [`Kiff::threads`] workers,
//!   each with its own O(n) count array: the graph and the evaluation
//!   count are bit-identical to the serial build at any thread count.

use crate::graph::KnnResult;
use crate::idsets::IdSets;
use crate::userscan::scan_all_users;
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::similarity::Similarity;
use goldfinger_obs::{BuildObserver, NoopObserver, Phase, PhaseTimer};
use std::time::Instant;

/// KIFF parameters.
///
/// ```
/// use goldfinger_core::profile::ProfileStore;
/// use goldfinger_core::similarity::ExplicitJaccard;
/// use goldfinger_knn::kiff::Kiff;
///
/// let profiles = ProfileStore::from_item_lists(vec![
///     vec![1, 2, 3], vec![2, 3, 4], vec![100, 101, 102],
/// ]);
/// let sim = ExplicitJaccard::new(&profiles);
/// let result = Kiff::default().build(&profiles, &sim, 2);
/// // Users 0 and 1 co-rate items 2–3; user 2 shares nothing and is
/// // never even considered as a candidate.
/// assert_eq!(result.graph.neighbors(0)[0].user, 1);
/// assert!(result.graph.neighbors(2).is_empty());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Kiff {
    /// Evaluate the top `candidate_factor · k` candidates by co-rating
    /// count for each user.
    pub candidate_factor: usize,
    /// Ignore items rated by more than this many users when generating
    /// candidates (`None` = no cap). Blockbusters connect everyone and add
    /// little signal — this is the sparse-vs-dense lever of the paper's
    /// related-work discussion.
    pub max_item_degree: Option<usize>,
    /// Worker threads for the per-user candidate scan (`0` = default
    /// parallelism, `1` = serial). Every user's scan is self-contained, so
    /// the graph and the evaluation count are bit-identical for any thread
    /// count, at the price of one O(n) count array per worker.
    pub threads: usize,
}

impl Default for Kiff {
    fn default() -> Self {
        Kiff {
            candidate_factor: 4,
            max_item_degree: None,
            threads: 1,
        }
    }
}

/// Ranks `candidates` by `(count desc, id asc)` and keeps the first
/// `budget`: a linear-time selection of the survivors, then a sort of
/// those alone. Ids are unique, so the order is total and the result is
/// exactly the shortlist, in the same order, that sorting every candidate
/// and truncating gives.
///
/// The order is encoded in one `u64` key per candidate (`!count` above the
/// id), so comparisons need no lookups into `count`. Building the keys
/// zeroes every candidate's count, kept or not, ready for the next user.
fn shortlist(candidates: &mut Vec<u32>, count: &mut [u32], keys: &mut Vec<u64>, budget: usize) {
    keys.clear();
    keys.extend(candidates.iter().map(|&v| {
        let c = std::mem::take(&mut count[v as usize]);
        (u64::from(!c) << 32) | u64::from(v)
    }));
    if keys.len() > budget {
        keys.select_nth_unstable(budget - 1);
        keys.truncate(budget);
    }
    keys.sort_unstable();
    candidates.clear();
    candidates.extend(keys.iter().map(|&k| k as u32));
}

/// Counts `u`'s co-ratings over the rater lists of its `items` (lists
/// longer than `degree_cap` skipped) into `count`, appending each
/// co-rater to `candidates` at its first co-rated item.
///
/// Kept out of line on purpose: this is KIFF's hot loop, and inlined
/// into the per-user scan's closure its code shape followed the
/// surrounding inlining; dense builds were seen to run ~8% slower that
/// way on a 2-vCPU x86-64 host.
#[inline(never)]
fn count_co_raters(
    index: &IdSets,
    u: u32,
    items: &[u32],
    degree_cap: usize,
    count: &mut [u32],
    candidates: &mut Vec<u32>,
) {
    for &i in items {
        let raters = index.get(i as usize);
        if raters.len() > degree_cap {
            continue;
        }
        for &v in raters {
            if v == u {
                continue;
            }
            // A zero count marks a candidate's first co-rated item.
            let c = &mut count[v as usize];
            if *c == 0 {
                candidates.push(v);
            }
            *c += 1;
        }
    }
}

/// One scan worker's scratch.
struct Scratch {
    /// Co-rating counts; zero outside the current user's scan.
    count: Vec<u32>,
    keys: Vec<u64>,
}

impl Kiff {
    /// Builds an approximate KNN graph.
    ///
    /// `profiles` provides the bipartite structure (inverted index);
    /// `sim` scores the candidates (explicit = native, SHF = GoldFinger).
    ///
    /// # Panics
    /// Panics if `k == 0`, `candidate_factor == 0`, or the populations
    /// disagree.
    pub fn build(&self, profiles: &ProfileStore, sim: &dyn Similarity, k: usize) -> KnnResult {
        self.build_observed(profiles, sim, k, &NoopObserver)
    }

    /// Builds the graph, reporting progress to `obs`: one span for the
    /// GoldFinger-immune inverted-index construction
    /// ([`Phase::CandidateGeneration`]), one for the candidate ranking and
    /// scoring ([`Phase::Join`]), and a single [`IterationEvent`] with the
    /// final counters. Observation never changes the output; with the
    /// default [`NoopObserver`] the hooks are skipped.
    ///
    /// [`IterationEvent`]: goldfinger_obs::IterationEvent
    ///
    /// # Panics
    /// Same contract as [`Kiff::build`].
    pub fn build_observed(
        &self,
        profiles: &ProfileStore,
        sim: &dyn Similarity,
        k: usize,
        obs: &dyn BuildObserver,
    ) -> KnnResult {
        assert!(k > 0, "k must be positive");
        assert!(
            self.candidate_factor > 0,
            "candidate_factor must be positive"
        );
        assert_eq!(
            profiles.n_users(),
            sim.n_users(),
            "profile store and similarity provider disagree on population"
        );
        let n = profiles.n_users();
        let start = Instant::now();

        // The inverted index reads explicit profiles and is not accelerated
        // by GoldFinger, like LSH's bucketing.
        let indexing = PhaseTimer::start(obs, Phase::CandidateGeneration);
        // Item → raters, each rater list in increasing id order.
        let index = IdSets::inverted(
            (0..n as u32).map(|u| profiles.items(u)),
            profiles.item_universe_bound() as usize,
        );
        drop(indexing);

        let degree_cap = self.max_item_degree.unwrap_or(usize::MAX);
        let budget = self.candidate_factor * k;

        scan_all_users(
            sim,
            k,
            self.threads,
            obs,
            start,
            || Scratch {
                count: vec![0; n],
                keys: Vec::new(),
            },
            |w, u, candidates| {
                count_co_raters(
                    &index,
                    u,
                    profiles.items(u),
                    degree_cap,
                    &mut w.count,
                    candidates,
                );
                // Spend similarity evaluations on the best `budget`
                // candidates by co-rating count (ties: lower id first),
                // which the scan scores and offers in ranked order.
                shortlist(candidates, &mut w.count, &mut w.keys, budget);
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForce;
    use crate::metrics::quality;
    use goldfinger_core::similarity::ExplicitJaccard;
    use std::sync::Mutex;

    fn clustered() -> ProfileStore {
        let mut lists = Vec::new();
        for c in 0..4u32 {
            for u in 0..8u32 {
                let mut items: Vec<u32> = (c * 100..c * 100 + 15).collect();
                items.push(1_000 + c * 10 + u);
                lists.push(items);
            }
        }
        ProfileStore::from_item_lists(lists)
    }

    #[test]
    fn finds_cluster_neighbors() {
        let profiles = clustered();
        let sim = ExplicitJaccard::new(&profiles);
        let result = Kiff::default().build(&profiles, &sim, 4);
        for u in 0..32u32 {
            for s in result.graph.neighbors(u) {
                assert_eq!(s.user / 8, u / 8, "user {u} got {}", s.user);
            }
        }
    }

    #[test]
    fn quality_matches_brute_force_on_sparse_clusters() {
        let profiles = clustered();
        let sim = ExplicitJaccard::new(&profiles);
        let exact = BruteForce::default().build(&sim, 4);
        let kiff = Kiff::default().build(&profiles, &sim, 4);
        let q = quality(&kiff.graph, &exact.graph, &sim);
        assert!(q > 0.99, "quality {q}");
        // And it needed far fewer evaluations: candidates only come from
        // co-rated items.
        assert!(kiff.stats.similarity_evals < exact.stats.similarity_evals);
    }

    #[test]
    fn users_sharing_no_item_are_never_candidates() {
        let profiles = ProfileStore::from_item_lists(vec![
            vec![1, 2],
            vec![1, 3],
            vec![100, 101], // disconnected
        ]);
        let sim = ExplicitJaccard::new(&profiles);
        let result = Kiff::default().build(&profiles, &sim, 2);
        assert_eq!(result.graph.neighbors(0).len(), 1);
        assert_eq!(result.graph.neighbors(0)[0].user, 1);
        assert!(result.graph.neighbors(2).is_empty());
    }

    #[test]
    fn degree_cap_skips_blockbusters() {
        // Item 0 is shared by everyone; capping it disconnects the users.
        let profiles = ProfileStore::from_item_lists(vec![vec![0, 1], vec![0, 2], vec![0, 3]]);
        let sim = ExplicitJaccard::new(&profiles);
        let uncapped = Kiff::default().build(&profiles, &sim, 2);
        assert_eq!(uncapped.graph.neighbors(0).len(), 2);
        let capped = Kiff {
            max_item_degree: Some(2),
            ..Kiff::default()
        }
        .build(&profiles, &sim, 2);
        assert!(capped.graph.neighbors(0).is_empty());
    }

    #[test]
    fn budget_limits_evaluations() {
        let profiles = clustered();
        let sim = ExplicitJaccard::new(&profiles);
        let tight = Kiff {
            candidate_factor: 1,
            ..Kiff::default()
        }
        .build(&profiles, &sim, 2);
        // At most candidate_factor·k evaluations per user.
        assert!(tight.stats.similarity_evals <= 32 * 2);
    }

    #[test]
    fn empty_profiles_are_isolated_but_present() {
        let profiles = ProfileStore::from_item_lists(vec![vec![], vec![1], vec![1]]);
        let sim = ExplicitJaccard::new(&profiles);
        let result = Kiff::default().build(&profiles, &sim, 2);
        assert_eq!(result.graph.n_users(), 3);
        assert!(result.graph.neighbors(0).is_empty());
        assert_eq!(result.graph.neighbors(1)[0].user, 2);
    }

    /// Records every scoring batch the builder issues, in call order.
    struct Recording<'a> {
        inner: ExplicitJaccard<'a>,
        batches: Mutex<Vec<(u32, Vec<u32>)>>,
    }

    impl Similarity for Recording<'_> {
        fn n_users(&self) -> usize {
            self.inner.n_users()
        }
        fn similarity(&self, u: u32, v: u32) -> f64 {
            self.inner.similarity(u, v)
        }
        fn bytes_per_eval(&self, u: u32, v: u32) -> u64 {
            self.inner.bytes_per_eval(u, v)
        }
        fn similarity_batch(&self, u: u32, vs: &[u32], out: &mut [f64]) {
            self.batches.lock().unwrap().push((u, vs.to_vec()));
            self.inner.similarity_batch(u, vs, out);
        }
    }

    #[test]
    fn ties_at_the_budget_cut_keep_the_lowest_ids() {
        // Everyone rates item 1; users 0, 5 and 6 also rate item 2. With a
        // budget of 3, every user has 7 candidates and the cut falls inside
        // a run of equal co-rating counts.
        let lists = (0..8u32)
            .map(|u| match u {
                0 | 5 | 6 => vec![1, 2],
                _ => vec![1],
            })
            .collect();
        let profiles = ProfileStore::from_item_lists(lists);
        let want: Vec<(u32, Vec<u32>)> = vec![
            // Counts 2 (users 5, 6), then five users tied at 1: user 1.
            (0, vec![5, 6, 1]),
            // Seven candidates all tied at 1: the three lowest ids.
            (1, vec![0, 2, 3]),
            (2, vec![0, 1, 3]),
            (3, vec![0, 1, 2]),
            (4, vec![0, 1, 2]),
            (5, vec![0, 6, 1]),
            (6, vec![0, 5, 1]),
            (7, vec![0, 1, 2]),
        ];
        for threads in [1, 3] {
            let sim = Recording {
                inner: ExplicitJaccard::new(&profiles),
                batches: Mutex::new(Vec::new()),
            };
            let kiff = Kiff {
                candidate_factor: 3,
                threads,
                ..Kiff::default()
            };
            let result = kiff.build(&profiles, &sim, 1);
            assert_eq!(result.stats.similarity_evals, 8 * 3);
            let mut got = sim.batches.into_inner().unwrap();
            got.sort_by_key(|(u, _)| *u);
            assert_eq!(got, want, "threads={threads}");
        }
    }
}
