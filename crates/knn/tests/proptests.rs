//! Property-based tests: structural invariants every KNN builder must
//! uphold, on arbitrary profile sets.

use goldfinger_core::hash::{DynHasher, HasherKind};
use goldfinger_core::kernels::{self, SimKernel};
use goldfinger_core::pool::Pool;
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::shf::{jaccard_from_counts, ShfParams, ShfStore};
use goldfinger_core::similarity::{ExplicitJaccard, ShfJaccard, Similarity};
use goldfinger_core::topk::TopK;
use goldfinger_knn::brute::BruteForce;
use goldfinger_knn::cluster::Cluster;
use goldfinger_knn::graph::{KnnGraph, KnnResult};
use goldfinger_knn::hyrec::Hyrec;
use goldfinger_knn::kiff::Kiff;
use goldfinger_knn::lsh::Lsh;
use goldfinger_knn::metrics::{average_similarity, edge_recall};
use goldfinger_knn::nndescent::NNDescent;
use goldfinger_obs::RecordingObserver;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Arbitrary small populations: 3–25 users with 0–40 items each from a
/// 200-item universe (dense enough for structure, small enough to be fast).
fn population() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..200, 0..40), 3..25)
}

/// Checks the invariants shared by every KNN graph.
fn assert_graph_invariants(graph: &KnnGraph, n: usize, k: usize) {
    assert_eq!(graph.n_users(), n);
    for u in 0..n as u32 {
        let neigh = graph.neighbors(u);
        assert!(neigh.len() <= k, "user {u} has more than k neighbours");
        assert!(neigh.len() < n);
        // No self-loops.
        assert!(neigh.iter().all(|s| s.user != u));
        // Unique neighbours.
        let mut ids: Vec<u32> = neigh.iter().map(|s| s.user).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), neigh.len(), "user {u} has duplicate neighbours");
        // Sorted by decreasing similarity.
        assert!(
            neigh.windows(2).all(|w| w[0].sim >= w[1].sim),
            "user {u} mis-sorted"
        );
        // Similarities in range.
        assert!(neigh.iter().all(|s| (0.0..=1.0).contains(&s.sim)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn brute_force_graph_invariants(lists in population(), k in 1usize..8) {
        let n = lists.len();
        let profiles = ProfileStore::from_item_lists(lists);
        let sim = ExplicitJaccard::new(&profiles);
        let g = BruteForce::default().build(&sim, k).graph;
        assert_graph_invariants(&g, n, k);
        // Brute force keeps everyone when k ≥ n − 1.
        if k >= n - 1 {
            for u in 0..n as u32 {
                prop_assert_eq!(g.neighbors(u).len(), n - 1);
            }
        }
    }

    #[test]
    fn brute_force_stored_sims_are_exact(lists in population()) {
        let profiles = ProfileStore::from_item_lists(lists);
        let sim = ExplicitJaccard::new(&profiles);
        let g = BruteForce::default().build(&sim, 3).graph;
        for (u, v, s) in g.edges() {
            prop_assert!((s - sim.similarity(u, v)).abs() < 1e-12);
        }
    }

    #[test]
    fn greedy_builders_respect_invariants(lists in population(), k in 1usize..6) {
        let n = lists.len();
        let profiles = ProfileStore::from_item_lists(lists);
        let sim = ExplicitJaccard::new(&profiles);
        assert_graph_invariants(&Hyrec::default().build(&sim, k).graph, n, k);
        assert_graph_invariants(&NNDescent::default().build(&sim, k).graph, n, k);
        assert_graph_invariants(&Lsh::default().build(&profiles, &sim, k).graph, n, k);
    }

    #[test]
    fn greedy_average_similarity_never_beats_exact(lists in population(), k in 1usize..5) {
        let profiles = ProfileStore::from_item_lists(lists);
        let sim = ExplicitJaccard::new(&profiles);
        let exact = BruteForce::default().build(&sim, k).graph;
        let exact_avg = average_similarity(&exact, &sim);
        for approx in [
            Hyrec::default().build(&sim, k).graph,
            NNDescent::default().build(&sim, k).graph,
        ] {
            // Brute force maximises per-user neighbourhood similarity, so
            // its per-edge average over FULL neighbourhoods is maximal; a
            // greedy result with the same edge count can't beat it.
            if approx.n_edges() == exact.n_edges() {
                prop_assert!(average_similarity(&approx, &sim) <= exact_avg + 1e-9);
            }
        }
    }

    #[test]
    fn edge_recall_is_within_bounds(lists in population(), k in 1usize..5) {
        let profiles = ProfileStore::from_item_lists(lists);
        let sim = ExplicitJaccard::new(&profiles);
        let exact = BruteForce::default().build(&sim, k).graph;
        let approx = Hyrec::default().build(&sim, k).graph;
        let r = edge_recall(&approx, &exact);
        prop_assert!((0.0..=1.0).contains(&r));
        prop_assert!((edge_recall(&exact, &exact) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn builders_are_seed_deterministic(lists in population(), seed in 0u64..50) {
        let profiles = ProfileStore::from_item_lists(lists);
        let sim = ExplicitJaccard::new(&profiles);
        let a = NNDescent { seed, ..NNDescent::default() }.build(&sim, 3).graph;
        let b = NNDescent { seed, ..NNDescent::default() }.build(&sim, 3).graph;
        for u in 0..a.n_users() as u32 {
            prop_assert_eq!(a.neighbors(u), b.neighbors(u));
        }
    }
}

/// An [`ShfJaccard`](goldfinger_core::similarity::ShfJaccard) twin pinned
/// to one explicit kernel variant instead of the `GF_KERNEL`-selected
/// [`kernels::active`] — so one test process can sweep every variant the
/// host supports and prove the clustered build bit-identical across them.
/// One run's comparable outcome: the full `(u, v, sim-bits)` edge stream
/// plus the distinct co-clustered pair count.
type ClusterOutcome = (Vec<(u32, u32, u64)>, u64);

struct PinnedKernelJaccard<'a> {
    store: &'a ShfStore,
    kernel: &'static SimKernel,
}

impl Similarity for PinnedKernelJaccard<'_> {
    fn n_users(&self) -> usize {
        self.store.len()
    }

    fn similarity(&self, u: u32, v: u32) -> f64 {
        let inter = (self.kernel.and_count)(
            self.store.fingerprint_words(u),
            self.store.fingerprint_words(v),
        );
        jaccard_from_counts(inter, self.store.cardinality(u), self.store.cardinality(v))
    }

    fn bytes_per_eval(&self, _u: u32, _v: u32) -> u64 {
        (self.store.words_per_fingerprint() * 2 * 8) as u64
    }

    fn similarity_batch(&self, u: u32, vs: &[u32], out: &mut [f64]) {
        let mut counts = vec![0u32; vs.len()];
        (self.kernel.and_counts_gather)(
            self.store.fingerprint_words(u),
            self.store.arena_words(),
            self.store.row_words(),
            vs,
            &mut counts,
        );
        let cu = self.store.cardinality(u);
        for ((&v, &c), o) in vs.iter().zip(&counts).zip(out.iter_mut()) {
            *o = jaccard_from_counts(c, cu, self.store.cardinality(v));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The clustered build's pinned invariant: for a fixed seed the graph
    /// *and* the distinct co-clustered pair count are bit-identical across
    /// worker counts and kernel variants.
    #[test]
    fn cluster_is_bit_identical_across_threads_and_kernels(
        lists in population(),
        k in 1usize..8,
    ) {
        let n = lists.len();
        let profiles = ProfileStore::from_item_lists(lists);
        let store = ShfParams::new(128, DynHasher::new(HasherKind::Jenkins, 7))
            .fingerprint_store(&profiles);
        let mut reference: Option<ClusterOutcome> = None;
        for kernel in kernels::available() {
            let sim = PinnedKernelJaccard { store: &store, kernel };
            for threads in [1usize, 4] {
                let r = Cluster { seed: 9, threads, ..Cluster::default() }
                    .build(&profiles, &sim, k);
                assert_graph_invariants(&r.graph, n, k);
                let edges: Vec<(u32, u32, u64)> = r
                    .graph
                    .edges()
                    .map(|(u, v, s)| (u, v, s.to_bits()))
                    .collect();
                prop_assert_eq!(r.stats.pruned_evals, 0);
                let pairs = r.stats.similarity_evals;
                match &reference {
                    None => reference = Some((edges, pairs)),
                    Some((e0, p0)) => {
                        prop_assert_eq!(
                            &edges, e0,
                            "kernel={} threads={}",
                            kernel.name, threads
                        );
                        prop_assert_eq!(pairs, *p0);
                    }
                }
            }
        }
    }
}

/// One refine run's comparable outcome: the full `(u, v, sim-bits)` edge
/// stream, the eval and iteration totals, and every iteration's update
/// count.
type RefineOutcome = (Vec<(u32, u32, u64)>, u64, u32, Vec<u64>);

fn refine_outcome(result: &KnnResult, rec: &RecordingObserver) -> RefineOutcome {
    (
        result
            .graph
            .edges()
            .map(|(u, v, s)| (u, v, s.to_bits()))
            .collect(),
        result.stats.similarity_evals,
        result.stats.iterations,
        rec.iterations().iter().map(|e| e.updates).collect(),
    )
}

/// NNDescent at ρ = 1 and ρ = 0.5, then Hyrec, all at `threads`.
fn refine_outcomes<S: Similarity>(sim: &S, k: usize, threads: usize) -> Vec<RefineOutcome> {
    let mut out = Vec::new();
    for sample_rate in [1.0, 0.5] {
        let rec = RecordingObserver::new();
        let nnd = NNDescent {
            seed: 5,
            sample_rate,
            threads,
            ..NNDescent::default()
        };
        out.push(refine_outcome(&nnd.build_observed(sim, k, &rec), &rec));
    }
    let rec = RecordingObserver::new();
    let hyrec = Hyrec {
        seed: 5,
        threads,
        ..Hyrec::default()
    };
    out.push(refine_outcome(&hyrec.build_observed(sim, k, &rec), &rec));
    out
}

fn shared_pool() -> &'static Arc<Pool> {
    static POOL: OnceLock<Arc<Pool>> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(4))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The refine engine's pinned invariant: NNDescent and Hyrec produce
    /// the serial build's graph, eval and iteration counts and
    /// per-iteration update counts at every worker count, kernel variant
    /// and dispatch path. Populations run from below the engine's join
    /// window (32 users) to a few uneven windows.
    #[test]
    fn refine_is_bit_identical_across_threads_and_kernels(
        lists in proptest::collection::vec(proptest::collection::vec(0u32..200, 0..40), 3..70),
        k in 1usize..8,
    ) {
        let profiles = ProfileStore::from_item_lists(lists);
        let store = ShfParams::new(128, DynHasher::new(HasherKind::Jenkins, 7))
            .fingerprint_store(&profiles);
        let mut reference: Option<Vec<RefineOutcome>> = None;
        for kernel in kernels::available() {
            let sim = PinnedKernelJaccard { store: &store, kernel };
            for threads in 1usize..=4 {
                for pooled in [false, true] {
                    let got = if pooled {
                        shared_pool().install(|| refine_outcomes(&sim, k, threads))
                    } else {
                        refine_outcomes(&sim, k, threads)
                    };
                    match &reference {
                        // The first run is the serial, unpooled build.
                        None => reference = Some(got),
                        Some(want) => {
                            for (case, (g, w)) in
                                ["nndescent", "nndescent/rho=0.5", "hyrec"].iter().zip(got.iter().zip(want))
                            {
                                prop_assert_eq!(
                                    g, w,
                                    "{} kernel={} threads={} pooled={}",
                                    case, kernel.name, threads, pooled
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The `(u, v, sim-bits)` edge stream of the naive `O(n²)` scan: every
/// unordered pair offered to both ends of one `TopK` per user.
fn naive_edges<S: Similarity + ?Sized>(sim: &S, k: usize) -> Vec<(u32, u32, u64)> {
    let n = sim.n_users();
    let mut tops: Vec<TopK> = (0..n).map(|_| TopK::new(k)).collect();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            let s = sim.similarity(u, v);
            tops[u as usize].offer(s, v);
            tops[v as usize].offer(s, u);
        }
    }
    let mut edges = Vec::new();
    for (u, top) in tops.into_iter().enumerate() {
        for e in top.into_sorted() {
            edges.push((u as u32, e.user, e.sim.to_bits()));
        }
    }
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Brute Force's pinned invariant: tiling, threading, the floor filter
    /// and the batched kernels are pure optimisations. At every worker
    /// count, tile edge, dispatch path and kernel variant the graph is the
    /// naive scan's, bit for bit, and every unordered pair is evaluated
    /// exactly once. An empty profile is appended to every population.
    #[test]
    fn brute_is_bit_identical_to_the_naive_scan(
        lists in population(),
        k in 1usize..8,
    ) {
        let mut lists = lists;
        lists.push(Vec::new());
        let n = lists.len();
        let pairs = (n * (n - 1) / 2) as u64;
        let profiles = ProfileStore::from_item_lists(lists);
        let store = ShfParams::new(128, DynHasher::new(HasherKind::Jenkins, 7))
            .fingerprint_store(&profiles);
        let explicit = ExplicitJaccard::new(&profiles);
        let shf = ShfJaccard::new(&store);
        let pinned: Vec<PinnedKernelJaccard<'_>> = kernels::available()
            .into_iter()
            .map(|kernel| PinnedKernelJaccard { store: &store, kernel })
            .collect();
        let mut providers: Vec<(&str, &dyn Similarity)> =
            vec![("explicit", &explicit), ("shf", &shf)];
        for p in &pinned {
            providers.push((p.kernel.name, p));
        }
        for (name, sim) in providers {
            let want = naive_edges(sim, k);
            for threads in 1usize..=4 {
                for tile in [0usize, 3, 64] {
                    for pooled in [false, true] {
                        let brute = BruteForce { threads, tile };
                        let r = if pooled {
                            shared_pool().install(|| brute.build(sim, k))
                        } else {
                            brute.build(sim, k)
                        };
                        let got: Vec<(u32, u32, u64)> =
                            r.graph.edges().map(|(u, v, s)| (u, v, s.to_bits())).collect();
                        prop_assert_eq!(
                            &got, &want,
                            "{} threads={} tile={} pooled={}",
                            name, threads, tile, pooled
                        );
                        prop_assert_eq!(r.stats.similarity_evals, pairs);
                    }
                }
            }
        }
    }
}

/// One KIFF run's comparable outcome: the full `(u, v, sim-bits)` edge
/// stream and the eval count.
type KiffOutcome = (Vec<(u32, u32, u64)>, u64);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// KIFF's pinned invariant: the parallel per-user scan produces the
    /// serial build's graph and eval count at every worker count, kernel
    /// variant and dispatch path, with and without a degree cap. Budgets of
    /// `k`–`3k` cover both the selection path (more candidates than the
    /// budget) and the short-list path, which the cap and the empty
    /// profile appended to every population reach.
    #[test]
    fn kiff_is_bit_identical_across_threads_and_kernels(
        lists in proptest::collection::vec(proptest::collection::vec(0u32..200, 0..40), 3..70),
        k in 1usize..8,
        candidate_factor in 1usize..4,
        cap in 2usize..12,
    ) {
        let mut lists = lists;
        lists.push(Vec::new()); // always at least one empty profile
        let n = lists.len();
        let profiles = ProfileStore::from_item_lists(lists);
        let store = ShfParams::new(128, DynHasher::new(HasherKind::Jenkins, 7))
            .fingerprint_store(&profiles);
        for max_item_degree in [None, Some(cap)] {
            let mut reference: Option<KiffOutcome> = None;
            for kernel in kernels::available() {
                let sim = PinnedKernelJaccard { store: &store, kernel };
                for threads in 1usize..=4 {
                    for pooled in [false, true] {
                        let kiff = Kiff { candidate_factor, max_item_degree, threads };
                        let r = if pooled {
                            shared_pool().install(|| kiff.build(&profiles, &sim, k))
                        } else {
                            kiff.build(&profiles, &sim, k)
                        };
                        assert_graph_invariants(&r.graph, n, k);
                        prop_assert!(r.stats.similarity_evals <= (n * candidate_factor * k) as u64);
                        let got: KiffOutcome = (
                            r.graph.edges().map(|(u, v, s)| (u, v, s.to_bits())).collect(),
                            r.stats.similarity_evals,
                        );
                        match &reference {
                            // The first run is the serial, unpooled build.
                            None => reference = Some(got),
                            Some(want) => prop_assert_eq!(
                                &got, want,
                                "cap={:?} kernel={} threads={} pooled={}",
                                max_item_degree, kernel.name, threads, pooled
                            ),
                        }
                    }
                }
            }
        }
    }
}
