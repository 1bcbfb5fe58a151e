//! Pooled dispatch is a pure optimisation: every deterministic builder must
//! produce a bit-identical KNN graph whether the parallel helpers spawn
//! scoped threads per call (no pool installed) or broadcast to a persistent
//! worker pool — at any pool size, including the `GF_THREADS`-sized default.
//!
//! Every builder here is deterministic at any thread count and is
//! exercised well past the pool size.

use goldfinger_core::pool::Pool;
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::similarity::ExplicitJaccard;
use goldfinger_knn::brute::BruteForce;
use goldfinger_knn::graph::KnnGraph;
use goldfinger_knn::hyrec::Hyrec;
use goldfinger_knn::lsh::Lsh;
use goldfinger_knn::nndescent::NNDescent;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Arbitrary small populations, as in `proptests.rs`.
fn population() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..200, 0..40), 3..25)
}

/// Pools reused across proptest cases: two fixed sizes plus the default
/// (`GF_THREADS` / available parallelism) size.
fn pools() -> &'static [Arc<Pool>] {
    static POOLS: OnceLock<Vec<Arc<Pool>>> = OnceLock::new();
    POOLS.get_or_init(|| vec![Pool::new(2), Pool::new(4), Pool::new(0)])
}

fn assert_same_graph(a: &KnnGraph, b: &KnnGraph, ctx: &str) {
    assert_eq!(a.n_users(), b.n_users(), "{ctx}");
    for u in 0..a.n_users() as u32 {
        assert_eq!(a.neighbors(u), b.neighbors(u), "{ctx}: user {u}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pooled_builds_are_bit_identical_to_spawned(
        lists in population(),
        k in 1usize..6,
        threads in 2usize..6,
    ) {
        let profiles = ProfileStore::from_item_lists(lists);
        let sim = ExplicitJaccard::new(&profiles);
        let brute = BruteForce { threads, tile: 3 };
        let lsh = Lsh { threads, ..Lsh::default() };
        let nnd = NNDescent { threads, ..NNDescent::default() };
        let hyrec = Hyrec { threads, ..Hyrec::default() };

        // Spawn-per-call baseline: no pool installed.
        let base_brute = brute.build(&sim, k).graph;
        let base_lsh = lsh.build(&profiles, &sim, k).graph;
        let base_nnd = nnd.build(&sim, k).graph;
        let base_hyrec = hyrec.build(&sim, k).graph;

        for pool in pools() {
            let size = pool.threads();
            pool.install(|| {
                assert_same_graph(
                    &brute.build(&sim, k).graph,
                    &base_brute,
                    &format!("brute, pool={size} threads={threads}"),
                );
                assert_same_graph(
                    &lsh.build(&profiles, &sim, k).graph,
                    &base_lsh,
                    &format!("lsh, pool={size} threads={threads}"),
                );
                assert_same_graph(
                    &nnd.build(&sim, k).graph,
                    &base_nnd,
                    &format!("nndescent, pool={size} threads={threads}"),
                );
                assert_same_graph(
                    &hyrec.build(&sim, k).graph,
                    &base_hyrec,
                    &format!("hyrec, pool={size} threads={threads}"),
                );
            });
        }
    }
}
