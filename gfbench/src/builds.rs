//! The construction layer: one registry build, timed around
//! `build_erased`, with its output checked.

use crate::spec::{SYSTEM_SEED, THREADS};
use crate::timed::{KernelTime, TimedSimilarity};
use goldfinger_core::pool::{Pool, PoolStats};
use goldfinger_core::similarity::Similarity;
use goldfinger_datasets::model::BinaryDataset;
use goldfinger_knn::builders::{self, BuilderConfig};
use goldfinger_knn::ErasedBuilder;
use goldfinger_knn::{
    edge_recall, BuildInput, BuildStats, KnnGraph, KnnResult, NoopObserver, RecordingObserver,
};
use goldfinger_obs::Phase;
use std::time::Instant;

/// Lowest recall any build may reach before it counts as failed.
pub const RECALL_FLOOR: f64 = 0.3;

/// What a traced build adds to an untraced one.
#[derive(Debug, Clone, Copy)]
pub struct Attribution {
    /// Time inside the similarity provider.
    pub kernel: KernelTime,
    /// Observer phase totals: candidate generation, join, merge (seconds).
    pub phases: [f64; 3],
    /// Neighbour-list updates summed over the iteration events.
    pub updates: u64,
}

/// One measured build.
#[derive(Debug, Clone)]
pub struct BuildRun {
    /// Wall time of the `build_erased` call.
    pub wall_s: f64,
    /// The builder's counters.
    pub stats: BuildStats,
    /// Digest of the graph.
    pub digest: u64,
    /// Whether the builder promises bit-identical repeats.
    pub deterministic: bool,
    /// Edge recall against the exact graph.
    pub recall: f64,
    /// Whether the graph covers every user with at most `k` sorted,
    /// self-free neighbours and reaches [`RECALL_FLOOR`].
    pub valid: bool,
    /// Pool counter deltas over the build.
    pub pool: PoolStats,
    /// Present for traced builds.
    pub attribution: Option<Attribution>,
}

/// Registry builder `key` with the benchmark's seed and thread count.
fn instantiate(key: &str) -> Box<dyn ErasedBuilder> {
    let cfg = BuilderConfig {
        seed: SYSTEM_SEED,
        threads: THREADS,
    };
    builders::get(key)
        .expect("registered builder")
        .instantiate(&cfg)
}

/// Builds with registry builder `key` over `sim` (unobserved).
pub fn build_with(key: &str, sim: &dyn Similarity, data: &BinaryDataset, k: usize) -> KnnResult {
    instantiate(key).build_erased(
        BuildInput::with_profiles(sim, data.profiles()),
        k,
        &NoopObserver,
    )
}

/// Runs and checks one build of `key` over `sim`.
pub fn run_build(
    key: &str,
    sim: &dyn Similarity,
    data: &BinaryDataset,
    k: usize,
    exact: &KnnGraph,
    traced: bool,
) -> BuildRun {
    let builder = instantiate(key);
    let pool = Pool::current();
    let pool_before = pool.as_ref().map(|p| p.stats()).unwrap_or_default();
    let (result, wall_s, attribution) = if traced {
        let timed = TimedSimilarity::new(sim);
        let obs = RecordingObserver::new();
        let t0 = Instant::now();
        let result = builder.build_erased(
            BuildInput::with_profiles(&timed as &dyn Similarity, data.profiles()),
            k,
            &obs,
        );
        let wall_s = t0.elapsed().as_secs_f64();
        let mut phases = [0.0; 3];
        for span in obs.phases() {
            let slot = match span.phase {
                Phase::CandidateGeneration => 0,
                Phase::Join => 1,
                Phase::Merge => 2,
                _ => continue,
            };
            phases[slot] += span.wall.as_secs_f64();
        }
        let attribution = Attribution {
            kernel: timed.totals(),
            phases,
            updates: obs.iterations().iter().map(|e| e.updates).sum(),
        };
        (result, wall_s, Some(attribution))
    } else {
        let t0 = Instant::now();
        let result = builder.build_erased(
            BuildInput::with_profiles(sim, data.profiles()),
            k,
            &NoopObserver,
        );
        (result, t0.elapsed().as_secs_f64(), None)
    };
    let pool = pool
        .map(|p| p.stats().since(&pool_before))
        .unwrap_or_default();
    let recall = edge_recall(&result.graph, exact);
    BuildRun {
        wall_s,
        digest: graph_digest(&result.graph),
        deterministic: builder.deterministic(),
        valid: well_formed(&result.graph, data.n_users(), k) && recall >= RECALL_FLOOR,
        recall,
        stats: result.stats,
        pool,
        attribution,
    }
}

/// Whether `g` covers `n` users, each with at most `k` neighbours, none
/// of them itself, sorted by decreasing similarity.
pub fn well_formed(g: &KnnGraph, n: usize, k: usize) -> bool {
    g.n_users() == n
        && (0..n as u32).all(|u| {
            let list = g.neighbors(u);
            list.len() <= k
                && list.iter().all(|s| s.user != u && (s.user as usize) < n)
                && list.windows(2).all(|w| w[0].sim >= w[1].sim)
        })
}

/// FNV-1a over every `(user, neighbour, similarity bits)` edge.
pub fn graph_digest(g: &KnnGraph) -> u64 {
    g.edges().fold(0xcbf2_9ce4_8422_2325, |h, (u, v, s)| {
        [u as u64, v as u64, s.to_bits()]
            .into_iter()
            .fold(h, |h, x| (h ^ x).wrapping_mul(0x0100_0000_01b3))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfinger_core::topk::Scored;

    fn s(sim: f64, user: u32) -> Scored {
        Scored { sim, user }
    }

    #[test]
    fn well_formed_rejects_each_defect() {
        let good = KnnGraph::from_lists(2, vec![vec![s(0.9, 1)], vec![s(0.9, 0)]]);
        assert!(well_formed(&good, 2, 2));
        assert!(!well_formed(&good, 3, 2), "must cover every user");
        assert!(!well_formed(&good, 2, 0), "lists longer than k");
    }

    #[test]
    fn digest_sees_every_field() {
        let a = KnnGraph::from_lists(2, vec![vec![s(0.9, 1)], vec![]]);
        let b = KnnGraph::from_lists(2, vec![vec![s(0.8, 1)], vec![]]);
        let c = KnnGraph::from_lists(2, vec![vec![], vec![s(0.9, 0)]]);
        assert_ne!(graph_digest(&a), graph_digest(&b));
        assert_ne!(graph_digest(&a), graph_digest(&c));
        assert_eq!(graph_digest(&a), graph_digest(&a.clone()));
    }
}
