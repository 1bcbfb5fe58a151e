//! Property-based tests: structural invariants every KNN builder must
//! uphold, on arbitrary profile sets.

use goldfinger_core::hash::{splitmix64_mix, DynHasher, HasherKind};
use goldfinger_core::kernels::{self, SimKernel};
use goldfinger_core::pool::Pool;
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::shf::{jaccard_from_counts, ShfParams, ShfStore};
use goldfinger_core::similarity::{ExplicitJaccard, ShfJaccard, Similarity};
use goldfinger_core::topk::TopK;
use goldfinger_knn::brute::BruteForce;
use goldfinger_knn::cluster::{Cluster, ClusterStats};
use goldfinger_knn::graph::{KnnGraph, KnnResult};
use goldfinger_knn::hyrec::Hyrec;
use goldfinger_knn::kiff::Kiff;
use goldfinger_knn::lsh::{bucket_key, table_seed, Lsh};
use goldfinger_knn::metrics::{average_similarity, edge_recall};
use goldfinger_knn::nndescent::NNDescent;
use goldfinger_knn::oocbuild::{self, OocConfig};
use goldfinger_obs::RecordingObserver;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
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

/// Today's LSH written out the plain way, sharing no code with the crate's
/// bucket index or per-user scan: per table, a `HashMap` from MinHash key
/// to the users hashed there, in id order; each user's candidates are its
/// bucket mates across the tables in table order, first occurrences only,
/// scored one pair at a time. Returns each user's top-k list as
/// `(neighbour, similarity bits)` and the evaluation count.
fn reference_lsh<S: Similarity>(
    profiles: &ProfileStore,
    sim: &S,
    tables: usize,
    seed: u64,
    k: usize,
) -> (Vec<Vec<(u32, u64)>>, u64) {
    let n = profiles.n_users();
    let buckets: Vec<HashMap<u64, Vec<u32>>> = (0..tables)
        .map(|t| {
            let mut table: HashMap<u64, Vec<u32>> = HashMap::new();
            for (u, items) in profiles.iter() {
                if let Some(key) = bucket_key(items, table_seed(seed, t)) {
                    table.entry(key).or_default().push(u);
                }
            }
            table
        })
        .collect();
    let mut evals = 0;
    let lists = (0..n as u32)
        .map(|u| {
            let mut seen = vec![false; n];
            seen[u as usize] = true;
            let mut top = TopK::new(k);
            for (t, table) in buckets.iter().enumerate() {
                // An empty profile hashes nowhere.
                let Some(key) = bucket_key(profiles.items(u), table_seed(seed, t)) else {
                    break;
                };
                for &v in &table[&key] {
                    if !std::mem::replace(&mut seen[v as usize], true) {
                        evals += 1;
                        top.offer(sim.similarity(u, v), v);
                    }
                }
            }
            top.into_sorted()
                .iter()
                .map(|s| (s.user, s.sim.to_bits()))
                .collect()
        })
        .collect();
    (lists, evals)
}

/// A graph's lists in the form [`reference_lsh`] returns.
fn lists_of(graph: &KnnGraph) -> Vec<Vec<(u32, u64)>> {
    (0..graph.n_users() as u32)
        .map(|u| {
            graph
                .neighbors(u)
                .iter()
                .map(|s| (s.user, s.sim.to_bits()))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Lsh::build` and the out-of-core build share one bucket index and
    /// one per-user scan, so comparing them with each other would check
    /// that code against itself. Both must instead return the graph and
    /// eval count of the independent `HashMap` oracle: `Lsh` at 1 and 4
    /// threads, bare and under an installed pool; the out-of-core build
    /// with no bucket cap, on 1 and 3 shards, spill off. Every population
    /// holds at least one empty profile.
    #[test]
    fn lsh_and_ooc_match_the_hashmap_oracle(
        lists in proptest::collection::vec(proptest::collection::vec(0u32..200, 0..30), 2..60),
        tables in 1usize..=12,
        k in 1usize..=10,
        seed in 0u64..1000,
    ) {
        let mut lists = lists;
        lists.push(Vec::new());
        let profiles = ProfileStore::from_item_lists(lists);
        let params = ShfParams::new(128, DynHasher::new(HasherKind::Jenkins, 3));
        let store = params.fingerprint_store(&profiles);
        let sim = ShfJaccard::new(&store);
        let (want, want_evals) = reference_lsh(&profiles, &sim, tables, seed, k);
        for threads in [1usize, 4] {
            for pooled in [false, true] {
                let lsh = Lsh { tables, seed, threads };
                let r = if pooled {
                    shared_pool().install(|| lsh.build(&profiles, &sim, k))
                } else {
                    lsh.build(&profiles, &sim, k)
                };
                prop_assert_eq!(&lists_of(&r.graph), &want, "threads={} pooled={}", threads, pooled);
                prop_assert_eq!(r.stats.similarity_evals, want_evals);
            }
        }
        let dir = std::env::temp_dir().join(format!("gf-lsh-oracle-{}", std::process::id()));
        for shards in [1usize, 3] {
            let mut cfg = OocConfig::new(k, tables, seed, &dir);
            cfg.shards = shards;
            cfg.spill = false;
            let (graph, stats) = oocbuild::build(&profiles, &params, &cfg).unwrap();
            prop_assert_eq!(&lists_of(&graph), &want, "shards={}", shards);
            prop_assert_eq!(stats.similarity_evals, want_evals);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Blip bits per table in Cluster-and-Conquer (256 words of 64 bits).
const BLIP_BITS: u64 = 256 * 64;

/// Today's Cluster-and-Conquer written out the plain way, sharing no code
/// with the crate's bucket index, cluster walk or partials. Per user, a key
/// row: the set of blip bits its items hash to, then per table the bit of
/// least priority rank (none for an empty profile). One `sort_unstable` of
/// the `(flat bucket << 32) | user` entries and a walk over equal flat
/// buckets give the clusters. Every unordered pair of a cluster that has
/// at least two members and is within the cap is then scored once into
/// per-user `TopK`s, unless the pair shares an uncapped cluster in an
/// earlier table. Returns each user's top-k list as `(neighbour,
/// similarity bits)`, the evaluation count and the layout statistics.
fn reference_cluster<S: Similarity>(
    profiles: &ProfileStore,
    sim: &S,
    c: &Cluster,
    k: usize,
) -> (Vec<Vec<(u32, u64)>>, u64, ClusterStats) {
    let n = profiles.n_users();
    let blip_seed = splitmix64_mix(c.seed ^ 0xB11F);
    let key_rows: Vec<Vec<Option<u64>>> = profiles
        .iter()
        .map(|(_, items)| {
            let bits: BTreeSet<u64> = items
                .iter()
                .map(|&i| splitmix64_mix(i as u64 ^ blip_seed) % BLIP_BITS)
                .collect();
            (0..c.tables)
                .map(|t| {
                    let ts = table_seed(c.seed, t);
                    bits.iter().copied().min_by_key(|&b| splitmix64_mix(b ^ ts))
                })
                .collect()
        })
        .collect();
    let mut entries: Vec<u64> = Vec::new();
    for (u, row) in key_rows.iter().enumerate() {
        for (t, key) in row.iter().enumerate() {
            if let Some(b) = key {
                entries.push((t as u64 * BLIP_BITS + b) << 32 | u as u64);
            }
        }
    }
    entries.sort_unstable();
    // (flat bucket, members in id order), ascending by flat bucket.
    let mut clusters: Vec<(u64, Vec<u32>)> = Vec::new();
    for e in entries {
        match clusters.last_mut() {
            Some((fb, members)) if *fb == e >> 32 => members.push(e as u32),
            _ => clusters.push((e >> 32, vec![e as u32])),
        }
    }

    let hot = |size: usize| c.max_cluster != 0 && size > c.max_cluster;
    let mut stats = ClusterStats {
        tables: c.tables,
        buckets: BLIP_BITS as usize,
        clusters: clusters.len(),
        scannable: 0,
        capped: 0,
        max_size: 0,
        mean_size: 0.0,
        pair_slots: 0,
        size_hist: Vec::new(),
    };
    let mut scanned_members = 0;
    // uncapped[u][t]: the flat bucket of `u`'s uncapped cluster in table t.
    let mut uncapped = vec![vec![None; c.tables]; n];
    for (fb, members) in &clusters {
        let size = members.len();
        stats.max_size = stats.max_size.max(size);
        let log2 = size.ilog2() as usize;
        if stats.size_hist.len() <= log2 {
            stats.size_hist.resize(log2 + 1, 0);
        }
        stats.size_hist[log2] += 1;
        if hot(size) {
            stats.capped += 1;
            continue;
        }
        for &u in members {
            uncapped[u as usize][(*fb / BLIP_BITS) as usize] = Some(*fb);
        }
        if size >= 2 {
            stats.scannable += 1;
            scanned_members += size;
            stats.pair_slots += (size * (size - 1) / 2) as u64;
        }
    }
    if stats.scannable > 0 {
        stats.mean_size = scanned_members as f64 / stats.scannable as f64;
    }

    let mut tops: Vec<TopK> = (0..n).map(|_| TopK::new(k)).collect();
    let mut evals = 0;
    for (fb, members) in &clusters {
        if hot(members.len()) {
            continue;
        }
        let t = (*fb / BLIP_BITS) as usize;
        for (i, &u) in members.iter().enumerate() {
            for &v in &members[i + 1..] {
                let (ku, kv) = (&uncapped[u as usize], &uncapped[v as usize]);
                if (0..t).any(|s| ku[s].is_some() && ku[s] == kv[s]) {
                    continue; // charged to an earlier table
                }
                evals += 1;
                let s = sim.similarity(u, v);
                tops[u as usize].offer(s, v);
                tops[v as usize].offer(s, u);
            }
        }
    }
    let lists = tops
        .into_iter()
        .map(|top| {
            top.into_sorted()
                .iter()
                .map(|s| (s.user, s.sim.to_bits()))
                .collect()
        })
        .collect();
    (lists, evals, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cluster-and-Conquer keys its clusters through the bucket index LSH
    /// uses, so it is held to an independent oracle instead: today's
    /// per-user key rows, flat-bucket sort and pair-once scan written out
    /// plainly. `Cluster::build`'s graph and eval count and `assign`'s
    /// layout statistics must equal the oracle's for caps 0, 2 and 8, at 1
    /// and 4 threads, bare and under an installed pool. Every population
    /// holds at least one empty profile.
    #[test]
    fn cluster_matches_the_sorted_key_row_oracle(
        lists in proptest::collection::vec(proptest::collection::vec(0u32..200, 0..30), 2..60),
        tables in 1usize..=16,
        k in 1usize..=10,
        seed in 0u64..1000,
    ) {
        let mut lists = lists;
        lists.push(Vec::new());
        let profiles = ProfileStore::from_item_lists(lists);
        let store = ShfParams::new(128, DynHasher::new(HasherKind::Jenkins, 3))
            .fingerprint_store(&profiles);
        let sim = ShfJaccard::new(&store);
        for max_cluster in [0usize, 2, 8] {
            let base = Cluster { tables, max_cluster, seed, threads: 1 };
            let (want, want_evals, want_stats) = reference_cluster(&profiles, &sim, &base, k);
            for threads in [1usize, 4] {
                for pooled in [false, true] {
                    let c = Cluster { threads, ..base };
                    let (r, stats) = if pooled {
                        shared_pool().install(|| {
                            (c.build(&profiles, &sim, k), c.assign(&profiles).stats())
                        })
                    } else {
                        (c.build(&profiles, &sim, k), c.assign(&profiles).stats())
                    };
                    let at = format!("cap={max_cluster} threads={threads} pooled={pooled}");
                    prop_assert_eq!(&lists_of(&r.graph), &want, "{}", at);
                    prop_assert_eq!(r.stats.similarity_evals, want_evals, "{}", at);
                    prop_assert_eq!(&stats, &want_stats, "{}", at);
                }
            }
        }
    }
}
