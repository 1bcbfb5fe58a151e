//! KNN graph representation and build statistics.

use goldfinger_core::topk::Scored;
use std::time::Duration;

/// A directed K-nearest-neighbour graph: each user points to (up to) `k`
/// neighbours sorted by decreasing similarity.
///
/// Stored in CSR form: one flat edge arena plus an `n+1`-entry offset
/// table, so a graph costs two allocations regardless of population —
/// the per-user `Vec` headers and allocator slack of the old
/// list-of-lists layout were ~48 bytes/user of pure overhead at 10M
/// users, and the arena makes neighbour scans sequential. The
/// construction ([`KnnGraph::from_lists`]) and query
/// ([`KnnGraph::neighbors`]) APIs are unchanged, and `neighbors` still
/// hands out a contiguous `&[Scored]` — now a slice of the arena.
#[derive(Debug, Clone)]
pub struct KnnGraph {
    k: usize,
    /// `offsets[u]..offsets[u+1]` delimits `u`'s neighbours in `edges`.
    offsets: Vec<u64>,
    /// All neighbour lists back to back, each sorted by decreasing
    /// similarity (ties by increasing user id).
    edges: Vec<Scored>,
}

impl KnnGraph {
    /// Builds the graph from per-user neighbour lists (each sorted by
    /// decreasing similarity; ties by increasing user id).
    ///
    /// # Panics
    /// Panics in debug builds if a list exceeds `k`, contains the owner,
    /// contains duplicates, or is mis-sorted.
    pub fn from_lists(k: usize, neighbors: Vec<Vec<Scored>>) -> Self {
        #[cfg(debug_assertions)]
        for (u, list) in neighbors.iter().enumerate() {
            debug_assert!(list.len() <= k, "user {u} has more than k neighbours");
            debug_assert!(
                list.iter().all(|s| s.user as usize != u),
                "user {u} is its own neighbour"
            );
            debug_assert!(
                list.windows(2).all(|w| {
                    w[0].sim > w[1].sim || (w[0].sim == w[1].sim && w[0].user < w[1].user)
                }),
                "user {u} has a mis-sorted neighbour list"
            );
        }
        let mut builder = CsrBuilder::new(k);
        for list in &neighbors {
            builder.push_list(list);
        }
        builder.finish()
    }

    /// Assembles the graph directly from its CSR parts — the zero-copy
    /// constructor used by [`CsrBuilder`] and the out-of-core stitcher.
    ///
    /// # Panics
    /// Panics if `offsets` is empty, does not start at 0, is not
    /// monotonic, or does not end at `edges.len()`; debug builds also
    /// check the per-list invariants (length ≤ k, no self-loop, sorted).
    pub fn from_csr(k: usize, offsets: Vec<u64>, edges: Vec<Scored>) -> Self {
        assert!(!offsets.is_empty(), "offset table must have n+1 entries");
        assert_eq!(offsets[0], 0, "offset table must start at 0");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offset table must be monotonic"
        );
        assert_eq!(
            *offsets.last().unwrap(),
            edges.len() as u64,
            "offset table must cover the edge arena"
        );
        let graph = KnnGraph { k, offsets, edges };
        #[cfg(debug_assertions)]
        for u in 0..graph.n_users() as u32 {
            let list = graph.neighbors(u);
            debug_assert!(list.len() <= k, "user {u} has more than k neighbours");
            debug_assert!(
                list.iter().all(|s| s.user != u),
                "user {u} is its own neighbour"
            );
            debug_assert!(
                list.windows(2).all(|w| {
                    w[0].sim > w[1].sim || (w[0].sim == w[1].sim && w[0].user < w[1].user)
                }),
                "user {u} has a mis-sorted neighbour list"
            );
        }
        graph
    }

    /// Neighbourhood size parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The neighbours of `u`, most similar first.
    pub fn neighbors(&self, u: u32) -> &[Scored] {
        let u = u as usize;
        &self.edges[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Iterates all directed edges `(u, v, sim)`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        (0..self.n_users() as u32)
            .flat_map(|u| self.neighbors(u).iter().map(move |s| (u, s.user, s.sim)))
    }

    /// Total number of directed edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Mean stored similarity over all edges (0 for an edgeless graph).
    ///
    /// Note: these are the similarities *as seen by the builder* (estimates
    /// for GoldFinger graphs). For the paper's quality metric, re-evaluate
    /// edges against the exact provider with
    /// [`crate::metrics::average_similarity`].
    pub fn mean_stored_similarity(&self) -> f64 {
        let n = self.n_edges();
        if n == 0 {
            return 0.0;
        }
        self.edges().map(|(_, _, s)| s).sum::<f64>() / n as f64
    }
}

/// Streaming CSR constructor: neighbour lists are appended in user order
/// (user 0 first) and the offset table grows with them, so a graph can be
/// assembled shard by shard — or user by user off a deserializer — without
/// ever materializing `Vec<Vec<Scored>>`.
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    k: usize,
    offsets: Vec<u64>,
    edges: Vec<Scored>,
}

impl CsrBuilder {
    /// Starts an empty graph with neighbourhood parameter `k`.
    pub fn new(k: usize) -> Self {
        CsrBuilder {
            k,
            offsets: vec![0],
            edges: Vec::new(),
        }
    }

    /// Like [`CsrBuilder::new`] with the edge arena and offset table
    /// pre-sized for `n_users` users of up to `k` neighbours each.
    pub fn with_capacity(k: usize, n_users: usize) -> Self {
        let mut offsets = Vec::with_capacity(n_users + 1);
        offsets.push(0);
        CsrBuilder {
            k,
            offsets,
            edges: Vec::with_capacity(n_users.saturating_mul(k)),
        }
    }

    /// Number of users appended so far (the id the next list gets).
    pub fn n_users(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Appends the next user's neighbour list.
    pub fn push_list(&mut self, list: &[Scored]) {
        self.edges.extend_from_slice(list);
        self.offsets.push(self.edges.len() as u64);
    }

    /// Appends the next user's neighbour list from an iterator that is
    /// already in decreasing-similarity order — the allocation-free
    /// counterpart of [`CsrBuilder::push_list`] for callers draining
    /// selectors (`TopK::sorted_entries`) straight into the edge arena.
    pub fn push_sorted(&mut self, list: impl Iterator<Item = Scored>) {
        self.edges.extend(list);
        self.offsets.push(self.edges.len() as u64);
    }

    /// Seals the builder into a [`KnnGraph`].
    pub fn finish(self) -> KnnGraph {
        let CsrBuilder { k, offsets, edges } = self;
        KnnGraph::from_csr(k, offsets, edges)
    }
}

/// Counters describing one KNN construction run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BuildStats {
    /// Number of similarity evaluations performed.
    pub similarity_evals: u64,
    /// Candidate pairs skipped before the full similarity evaluation.
    /// Always 0: no builder prunes. The field stays because the benchmark
    /// package and the run reports read it.
    pub pruned_evals: u64,
    /// Number of refinement iterations (1 for one-shot algorithms).
    pub iterations: u32,
    /// Wall-clock construction time (excludes dataset preparation, as in
    /// the paper).
    pub wall: Duration,
    /// Wall-clock preparation time of the similarity representation the
    /// build ran on (fingerprinting for GoldFinger runs; zero for native
    /// runs, whose representation is a zero-cost borrow). The paper reports
    /// preparation separately from construction (Table 3); builders always
    /// leave this at zero and the harness fills it in.
    pub prep_wall: Duration,
}

impl BuildStats {
    /// Scanrate: performed similarity evaluations divided by the
    /// `n(n-1)/2` a brute-force pass needs (Fig. 12 of the paper).
    pub fn scanrate(&self, n_users: usize) -> f64 {
        if n_users < 2 {
            return 0.0;
        }
        let brute = (n_users as f64) * (n_users as f64 - 1.0) / 2.0;
        self.similarity_evals as f64 / brute
    }

    /// Fraction of considered pairs skipped before evaluation, in
    /// `[0, 1]`. Always 0, since no builder prunes; it stays because the
    /// benchmark package reports it.
    pub fn prune_rate(&self) -> f64 {
        let total = self.similarity_evals + self.pruned_evals;
        if total == 0 {
            0.0
        } else {
            self.pruned_evals as f64 / total as f64
        }
    }
}

/// A constructed graph together with its build statistics.
#[derive(Debug, Clone)]
pub struct KnnResult {
    /// The (approximate) KNN graph.
    pub graph: KnnGraph,
    /// Build counters.
    pub stats: BuildStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(sim: f64, user: u32) -> Scored {
        Scored { sim, user }
    }

    #[test]
    fn graph_accessors() {
        let g = KnnGraph::from_lists(2, vec![vec![s(0.9, 1), s(0.5, 2)], vec![s(0.9, 0)], vec![]]);
        assert_eq!(g.k(), 2);
        assert_eq!(g.n_users(), 3);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.neighbors(0)[0].user, 1);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        assert!((g.mean_stored_similarity() - (0.9 + 0.5 + 0.9) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_mean_is_zero() {
        let g = KnnGraph::from_lists(3, vec![vec![], vec![]]);
        assert_eq!(g.mean_stored_similarity(), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "own neighbour")]
    fn self_loop_is_rejected() {
        let _ = KnnGraph::from_lists(2, vec![vec![s(1.0, 0)]]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "mis-sorted")]
    fn missorted_list_is_rejected() {
        let _ = KnnGraph::from_lists(2, vec![vec![s(0.1, 1), s(0.9, 2)], vec![]]);
    }

    #[test]
    fn csr_builder_matches_from_lists() {
        let lists = vec![
            vec![s(0.9, 1), s(0.5, 2)],
            vec![s(0.9, 0)],
            vec![],
            vec![s(0.2, 0)],
        ];
        let reference = KnnGraph::from_lists(2, lists.clone());
        let mut b = CsrBuilder::with_capacity(2, lists.len());
        for list in &lists {
            b.push_list(list);
        }
        assert_eq!(b.n_users(), 4);
        let built = b.finish();
        assert_eq!(built.n_users(), reference.n_users());
        assert_eq!(built.n_edges(), reference.n_edges());
        for u in 0..4u32 {
            assert_eq!(built.neighbors(u), reference.neighbors(u));
        }
    }

    #[test]
    fn from_csr_round_trips_raw_parts() {
        let g = KnnGraph::from_lists(2, vec![vec![s(0.9, 1)], vec![], vec![s(0.4, 0), s(0.3, 1)]]);
        let offsets: Vec<u64> = (0..=g.n_users() as u32)
            .scan(0u64, |acc, u| {
                let o = *acc;
                if (u as usize) < g.n_users() {
                    *acc += g.neighbors(u).len() as u64;
                }
                Some(o)
            })
            .collect();
        let edges: Vec<Scored> = g
            .edges()
            .map(|(_, v, sim)| Scored { sim, user: v })
            .collect();
        let back = KnnGraph::from_csr(2, offsets, edges);
        for u in 0..3u32 {
            assert_eq!(back.neighbors(u), g.neighbors(u));
        }
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn from_csr_rejects_descending_offsets() {
        let _ = KnnGraph::from_csr(2, vec![0, 1, 0], vec![s(0.9, 1)]);
    }

    #[test]
    #[should_panic(expected = "cover the edge arena")]
    fn from_csr_rejects_short_offsets() {
        let _ = KnnGraph::from_csr(2, vec![0, 0], vec![s(0.9, 1)]);
    }

    #[test]
    fn scanrate_of_brute_force_is_one() {
        let stats = BuildStats {
            similarity_evals: 45, // 10 users: 10*9/2
            iterations: 1,
            ..BuildStats::default()
        };
        assert!((stats.scanrate(10) - 1.0).abs() < 1e-12);
        assert_eq!(stats.scanrate(1), 0.0);
    }
}
