//! Cross-builder conformance suite: every algorithm in the
//! [`goldfinger_knn::builders`] registry must honour the
//! [`ErasedBuilder`](goldfinger_knn::ErasedBuilder) contract, whatever its
//! internals.
//!
//! Checked for each registered builder, at one thread and at the
//! `GF_THREADS` thread count (the CI matrix runs both):
//!
//! - graph shape: no self-loops, at most `k` neighbours per user, neighbour
//!   lists sorted by descending, finite similarity;
//! - trace consistency: the per-iteration events seen by an observer sum to
//!   exactly the `BuildStats` totals (evaluated and pruned);
//! - observer neutrality: for configurations reporting
//!   `ErasedBuilder::deterministic`, attaching an observer changes nothing
//!   — graph and counters are bit-identical to the unobserved run;
//! - input contract: builders that do not claim
//!   `ErasedBuilder::needs_profiles` also work from a profile-less
//!   [`BuildInput`].

use goldfinger_core::profile::ProfileStore;
use goldfinger_core::similarity::ExplicitJaccard;
use goldfinger_knn::builder::BuildInput;
use goldfinger_knn::builders::{self, BuilderConfig};
use goldfinger_knn::graph::KnnResult;
use goldfinger_obs::{NoopObserver, RecordingObserver};

const K: usize = 8;

/// A small clustered population with enough overlap that every algorithm
/// finds non-trivial neighbourhoods.
fn population() -> ProfileStore {
    let mut state = 0x5EED_CAFE_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut lists = Vec::new();
    for c in 0..6u32 {
        for _ in 0..25 {
            let mut items: Vec<u32> = (c * 40..c * 40 + 30).filter(|_| next() % 4 != 0).collect();
            // Popular cross-cluster items keep the clusters connected.
            items.extend((0..4).map(|_| 10_000 + (next() % 12) as u32));
            items.sort_unstable();
            items.dedup();
            lists.push(items);
        }
    }
    ProfileStore::from_item_lists(lists)
}

fn thread_counts() -> Vec<usize> {
    let env = std::env::var("GF_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or(1);
    let mut counts = vec![1, env];
    counts.dedup();
    counts
}

fn assert_well_formed(name: &str, threads: usize, result: &KnnResult, n: usize) {
    assert_eq!(result.graph.n_users(), n, "{name}/t{threads}: population");
    for u in 0..n as u32 {
        let list = result.graph.neighbors(u);
        assert!(
            list.len() <= K,
            "{name}/t{threads}: user {u} has {} > k neighbours",
            list.len()
        );
        let mut prev = f64::INFINITY;
        for s in list {
            assert_ne!(s.user, u, "{name}/t{threads}: self-loop at {u}");
            assert!(
                (s.user as usize) < n,
                "{name}/t{threads}: neighbour {} out of range",
                s.user
            );
            assert!(
                s.sim.is_finite(),
                "{name}/t{threads}: non-finite similarity at {u}"
            );
            assert!(
                s.sim <= prev,
                "{name}/t{threads}: list of {u} not sorted descending"
            );
            prev = s.sim;
        }
    }
}

fn assert_same(name: &str, threads: usize, a: &KnnResult, b: &KnnResult) {
    assert_eq!(
        a.stats.similarity_evals, b.stats.similarity_evals,
        "{name}/t{threads}: evals differ"
    );
    assert_eq!(
        a.stats.pruned_evals, b.stats.pruned_evals,
        "{name}/t{threads}: pruned differ"
    );
    assert_eq!(
        a.stats.iterations, b.stats.iterations,
        "{name}/t{threads}: iterations differ"
    );
    for u in 0..a.graph.n_users() as u32 {
        assert_eq!(
            a.graph.neighbors(u),
            b.graph.neighbors(u),
            "{name}/t{threads}: neighbours of {u} differ"
        );
    }
}

#[test]
fn every_registered_builder_honours_the_contract() {
    let profiles = population();
    let sim = ExplicitJaccard::new(&profiles);
    let n = profiles.n_users();
    let input = BuildInput::with_profiles(&sim, &profiles);

    for spec in builders::all() {
        for threads in thread_counts() {
            let builder = spec.instantiate(&BuilderConfig { seed: 42, threads });
            assert_eq!(builder.name(), spec.name);

            let rec = RecordingObserver::new();
            let observed = builder.build_erased(input, K, &rec);
            assert_well_formed(spec.name, threads, &observed, n);

            // The trace must account for every evaluation: per-iteration
            // events sum to the final counters.
            let events = rec.iterations();
            assert!(
                !events.is_empty(),
                "{}/t{threads}: no iteration events",
                spec.name
            );
            let traced_evals: u64 = events.iter().map(|e| e.similarity_evals).sum();
            let traced_pruned: u64 = events.iter().map(|e| e.pruned_evals).sum();
            assert_eq!(
                traced_evals, observed.stats.similarity_evals,
                "{}/t{threads}: trace evals != stats",
                spec.name
            );
            assert_eq!(
                traced_pruned, observed.stats.pruned_evals,
                "{}/t{threads}: trace pruned != stats",
                spec.name
            );

            // Observer neutrality, where the configuration promises
            // repeatable output at all.
            if builder.deterministic() {
                let unobserved = builder.build_erased(input, K, &NoopObserver);
                assert_same(spec.name, threads, &observed, &unobserved);
            }
        }
    }
}

#[test]
fn profile_free_builders_run_without_profiles() {
    let profiles = population();
    let sim = ExplicitJaccard::new(&profiles);
    let with = BuildInput::with_profiles(&sim, &profiles);
    let without = BuildInput::new(&sim);

    for spec in builders::all() {
        let builder = spec.instantiate(&BuilderConfig::default());
        if builder.needs_profiles() {
            continue;
        }
        let a = builder.build_erased(without, K, &NoopObserver);
        assert_well_formed(spec.name, 1, &a, profiles.n_users());
        if builder.deterministic() {
            let b = builder.build_erased(with, K, &NoopObserver);
            assert_same(spec.name, 1, &a, &b);
        }
    }
}
