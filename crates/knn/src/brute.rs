//! Exact KNN graph construction by exhaustive pairwise comparison.
//!
//! The scan is *tiled* (users are processed in cache-sized blocks so both
//! sides of a comparison stay hot) and *parallel* (tile cells are dispatched
//! to worker threads over a work-stealing counter). Every row of a cell is
//! scored through one [`Similarity::similarity_batch`] call — the gather
//! kernel for fingerprint providers — and folded into the worker's
//! floor-filtered top-k partials, which are merged deterministically
//! afterwards (`crate::partials`, DESIGN.md §7). Each unordered pair is
//! evaluated exactly once, so `similarity_evals` is `n(n−1)/2` at any
//! thread count, and the output is bit-identical to the naive `O(n²)`
//! double loop.

use crate::graph::KnnResult;
use crate::partials::fold_scan;
use goldfinger_core::similarity::Similarity;
use goldfinger_obs::{BuildObserver, NoopObserver};
use std::time::Instant;

/// Default tile edge in users: two tiles of 128 fingerprints at the paper's
/// 1024-bit width are 32 KiB — both sides of a cell fit in L1/L2.
const DEFAULT_TILE: usize = 128;

/// Brute-force builder: considers all `n(n−1)/2` unordered pairs and keeps
/// the top `k` per user. Exact (up to estimator error of the provider), and
/// the reference point of every experiment.
#[derive(Debug, Clone, Copy)]
pub struct BruteForce {
    /// Number of worker threads (0 = available parallelism), clamped to the
    /// hardware parallelism. When a `goldfinger_core::pool::Pool` is
    /// installed, tile cells are dispatched to its persistent workers; the
    /// graph and the counters are bit-identical at any thread count.
    pub threads: usize,
    /// Tile edge in users (0 = default of 128).
    pub tile: usize,
}

impl Default for BruteForce {
    fn default() -> Self {
        BruteForce {
            threads: 1,
            tile: 0,
        }
    }
}

impl BruteForce {
    /// Builds the exact KNN graph for the given provider.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn build(&self, sim: &dyn Similarity, k: usize) -> KnnResult {
        self.build_observed(sim, k, &NoopObserver)
    }

    /// Builds the exact KNN graph, reporting progress to `obs`: one span for
    /// the pair scan ([`goldfinger_obs::Phase::Join`]), one for the
    /// deterministic reduction ([`goldfinger_obs::Phase::Merge`]), and a
    /// single [`goldfinger_obs::IterationEvent`] with the final counters.
    /// Observation never changes the output; with the default
    /// [`NoopObserver`] the hooks are skipped.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn build_observed(
        &self,
        sim: &dyn Similarity,
        k: usize,
        obs: &dyn BuildObserver,
    ) -> KnnResult {
        assert!(k > 0, "k must be positive");
        let n = sim.n_users();
        let start = Instant::now();
        let tile = if self.tile == 0 {
            DEFAULT_TILE
        } else {
            self.tile
        };
        // Cells (ti, tj) with ti ≤ tj tile the upper triangle of the pair
        // matrix; every unordered pair belongs to exactly one cell, so the
        // cells can be dispatched to threads independently.
        let n_tiles = n.div_ceil(tile);
        let mut cells = Vec::with_capacity(n_tiles * (n_tiles + 1) / 2);
        for ti in 0..n_tiles {
            for tj in ti..n_tiles {
                cells.push((ti, tj));
            }
        }
        fold_scan(n, k, self.threads, cells.len(), obs, start, &|p, c| {
            let (ti, tj) = cells[c];
            let (ue, ve) = (((ti + 1) * tile).min(n), ((tj + 1) * tile).min(n));
            for u in (ti * tile)..ue {
                // The diagonal cell covers only its own upper triangle.
                let v0 = if ti == tj { u + 1 } else { tj * tile };
                if v0 < ve {
                    p.ids.clear();
                    p.ids.extend(v0 as u32..ve as u32);
                    p.score_row(sim, u as u32);
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfinger_core::hash::DynHasher;
    use goldfinger_core::profile::ProfileStore;
    use goldfinger_core::shf::ShfParams;
    use goldfinger_core::similarity::{ExplicitCosine, ExplicitJaccard, ShfCosine, ShfJaccard};
    use goldfinger_core::topk::TopK;

    fn store() -> ProfileStore {
        ProfileStore::from_item_lists(vec![
            vec![1, 2, 3, 4], // 0
            vec![1, 2, 3],    // 1: J(0,1)=3/4
            vec![3, 4],       // 2: J(0,2)=2/4
            vec![100, 101],   // 3: J(0,3)=0
        ])
    }

    /// Profiles with wildly skewed sizes over a small item universe: many
    /// similarity ties and many offers below a full list's floor.
    fn skewed_store(n: usize) -> ProfileStore {
        let mut x = 0x243F6A8885A308D3u64;
        let lists = (0..n)
            .map(|u| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let len = 1 + (x % 64) as usize;
                (0..len)
                    .map(|i| ((u * 7 + i * 13) % 97) as u32)
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect()
            })
            .collect();
        ProfileStore::from_item_lists(lists)
    }

    #[test]
    fn finds_the_true_neighbors() {
        let profiles = store();
        let sim = ExplicitJaccard::new(&profiles);
        let result = BruteForce::default().build(&sim, 2);
        let n0: Vec<u32> = result.graph.neighbors(0).iter().map(|s| s.user).collect();
        assert_eq!(n0, vec![1, 2]);
        assert!((result.graph.neighbors(0)[0].sim - 0.75).abs() < 1e-12);
    }

    #[test]
    fn k_larger_than_population_returns_everyone() {
        let profiles = store();
        let sim = ExplicitJaccard::new(&profiles);
        let result = BruteForce::default().build(&sim, 10);
        assert_eq!(result.graph.neighbors(0).len(), 3);
    }

    #[test]
    fn eval_count_is_exact() {
        let profiles = skewed_store(100);
        let sim = ExplicitJaccard::new(&profiles);
        for threads in [1usize, 4] {
            for tile in [0usize, 7, 1000] {
                let r = BruteForce { threads, tile }.build(&sim, 5);
                assert_eq!(
                    (r.stats.similarity_evals, r.stats.pruned_evals),
                    (100 * 99 / 2, 0),
                    "threads={threads} tile={tile}"
                );
                assert_eq!(r.stats.iterations, 1);
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let profiles = store();
        let sim = ExplicitJaccard::new(&profiles);
        let seq = BruteForce {
            threads: 1,
            ..BruteForce::default()
        }
        .build(&sim, 2);
        let par = BruteForce {
            threads: 4,
            ..BruteForce::default()
        }
        .build(&sim, 2);
        for u in 0..4u32 {
            assert_eq!(seq.graph.neighbors(u), par.graph.neighbors(u));
        }
    }

    /// Graph-for-graph identical to the naive `O(n²)` double loop on all
    /// four providers, across thread and tile shapes.
    #[test]
    fn graph_identical_to_the_naive_scan_on_all_providers() {
        let n = 80;
        let profiles = skewed_store(n);
        let shf = ShfParams::new(256, DynHasher::default()).fingerprint_store(&profiles);
        let providers: Vec<Box<dyn Similarity + '_>> = vec![
            Box::new(ExplicitJaccard::new(&profiles)),
            Box::new(ExplicitCosine::new(&profiles)),
            Box::new(ShfJaccard::new(&shf)),
            Box::new(ShfCosine::new(&shf)),
        ];
        for (p, sim) in providers.iter().enumerate() {
            let mut tops: Vec<TopK> = (0..n).map(|_| TopK::new(4)).collect();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    let s = sim.similarity(u, v);
                    tops[u as usize].offer(s, v);
                    tops[v as usize].offer(s, u);
                }
            }
            let naive: Vec<_> = tops.into_iter().map(TopK::into_sorted).collect();
            for threads in [1usize, 4] {
                for tile in [0usize, 13] {
                    let r = BruteForce { threads, tile }.build(sim.as_ref(), 4);
                    for u in 0..n as u32 {
                        assert_eq!(
                            r.graph.neighbors(u),
                            &naive[u as usize][..],
                            "provider={p} threads={threads} tile={tile} u={u}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let profiles = store();
        let sim = ExplicitJaccard::new(&profiles);
        let _ = BruteForce::default().build(&sim, 0);
    }
}
