//! Observer contract tests: attaching a [`RecordingObserver`] must never
//! change what a builder produces, and the recorded per-iteration trace
//! must sum exactly to the final `BuildStats` counters.
//!
//! Every builder here is bit-identical across thread counts, so neutrality
//! is asserted at several thread counts, and parallel runs of the iterative
//! builders must also equal their serial runs — iteration by iteration.

use goldfinger_core::profile::ProfileStore;
use goldfinger_core::similarity::ExplicitJaccard;
use goldfinger_knn::brute::BruteForce;
use goldfinger_knn::graph::KnnResult;
use goldfinger_knn::hyrec::Hyrec;
use goldfinger_knn::lsh::Lsh;
use goldfinger_knn::nndescent::NNDescent;
use goldfinger_obs::{IterationEvent, Json, NoopObserver, RecordingObserver, RunReport};
use proptest::prelude::*;
use std::time::Duration;

/// A clustered population big enough that the iterative builders actually
/// refine for a few rounds.
fn clustered(n_per: u32) -> ProfileStore {
    let mut lists = Vec::new();
    for c in 0..4u32 {
        for u in 0..n_per {
            let mut items: Vec<u32> = (c * 50..c * 50 + 30).collect();
            items.push(1000 + c * n_per + u);
            lists.push(items);
        }
    }
    ProfileStore::from_item_lists(lists)
}

/// Asserts two runs produced bit-identical graphs and counters (wall times
/// are excluded — they are never reproducible).
fn assert_same_output(a: &KnnResult, b: &KnnResult) {
    assert_eq!(a.stats.similarity_evals, b.stats.similarity_evals);
    assert_eq!(a.stats.pruned_evals, b.stats.pruned_evals);
    assert_eq!(a.stats.iterations, b.stats.iterations);
    assert_eq!(a.graph.n_users(), b.graph.n_users());
    for u in 0..a.graph.n_users() as u32 {
        assert_eq!(a.graph.neighbors(u), b.graph.neighbors(u), "user {u}");
    }
}

/// Asserts a recorded trace sums exactly to the run's final counters.
fn assert_trace_consistent(result: &KnnResult, events: &[IterationEvent]) {
    let evals: u64 = events.iter().map(|e| e.similarity_evals).sum();
    let pruned: u64 = events.iter().map(|e| e.pruned_evals).sum();
    let rounds = events.iter().filter(|e| e.iteration > 0).count() as u32;
    assert_eq!(evals, result.stats.similarity_evals, "eval sum");
    assert_eq!(pruned, result.stats.pruned_evals, "prune sum");
    assert_eq!(rounds, result.stats.iterations, "round count");
}

#[test]
fn brute_force_observer_is_neutral_across_thread_counts() {
    let profiles = clustered(12);
    let sim = ExplicitJaccard::new(&profiles);
    let reference = BruteForce {
        threads: 1,
        ..BruteForce::default()
    }
    .build(&sim, 6);
    for threads in [1usize, 2, 4] {
        let builder = BruteForce {
            threads,
            ..BruteForce::default()
        };
        let observed = {
            let rec = RecordingObserver::new();
            let out = builder.build_observed(&sim, 6, &rec);
            assert_trace_consistent(&out, &rec.iterations());
            out
        };
        let unobserved = builder.build_observed(&sim, 6, &NoopObserver);
        assert_same_output(&observed, &unobserved);
        assert_same_output(&observed, &reference);
    }
}

#[test]
fn sequential_nndescent_observer_is_neutral() {
    let profiles = clustered(12);
    let sim = ExplicitJaccard::new(&profiles);
    let builder = NNDescent {
        threads: 1,
        seed: 7,
        ..NNDescent::default()
    };
    let rec = RecordingObserver::new();
    let observed = builder.build_observed(&sim, 5, &rec);
    let unobserved = builder.build(&sim, 5);
    assert_same_output(&observed, &unobserved);
    let events = rec.iterations();
    assert_trace_consistent(&observed, &events);
    assert_eq!(events[0].iteration, 0, "initialisation event comes first");
    assert!(events.len() >= 2, "at least one refinement round");
    // Every refinement event carries the δ·k·n threshold it was compared to.
    let n = profiles.n_users() as f64;
    for e in &events[1..] {
        assert_eq!(e.threshold, builder.delta * 5.0 * n);
    }
}

#[test]
fn sequential_hyrec_observer_is_neutral() {
    let profiles = clustered(12);
    let sim = ExplicitJaccard::new(&profiles);
    let builder = Hyrec {
        threads: 1,
        seed: 7,
        ..Hyrec::default()
    };
    let rec = RecordingObserver::new();
    let observed = builder.build_observed(&sim, 5, &rec);
    let unobserved = builder.build(&sim, 5);
    assert_same_output(&observed, &unobserved);
    assert_trace_consistent(&observed, &rec.iterations());
}

#[test]
fn lsh_observer_is_neutral() {
    let profiles = clustered(12);
    let sim = ExplicitJaccard::new(&profiles);
    let builder = Lsh::default();
    let rec = RecordingObserver::new();
    let observed = builder.build_observed(&profiles, &sim, 5, &rec);
    let unobserved = builder.build(&profiles, &sim, 5);
    assert_same_output(&observed, &unobserved);
    assert_trace_consistent(&observed, &rec.iterations());
}

/// The per-iteration counters of a trace (wall times excluded).
fn trace_counters(events: &[IterationEvent]) -> Vec<(u32, u64, u64)> {
    events
        .iter()
        .map(|e| (e.iteration, e.similarity_evals, e.updates))
        .collect()
}

#[test]
fn parallel_iterative_builders_are_neutral_and_equal_to_serial() {
    let profiles = clustered(12);
    let sim = ExplicitJaccard::new(&profiles);
    let nnd = |threads| NNDescent {
        threads,
        seed: 7,
        ..NNDescent::default()
    };
    let hyrec = |threads| Hyrec {
        threads,
        seed: 7,
        ..Hyrec::default()
    };
    let serial_nnd = RecordingObserver::new();
    let serial_nnd_out = nnd(1).build_observed(&sim, 5, &serial_nnd);
    let serial_hyrec = RecordingObserver::new();
    let serial_hyrec_out = hyrec(1).build_observed(&sim, 5, &serial_hyrec);
    for threads in [2usize, 4] {
        let rec = RecordingObserver::new();
        let out = nnd(threads).build_observed(&sim, 5, &rec);
        assert_trace_consistent(&out, &rec.iterations());
        assert_same_output(&out, &nnd(threads).build(&sim, 5));
        assert_same_output(&out, &serial_nnd_out);
        assert_eq!(
            trace_counters(&rec.iterations()),
            trace_counters(&serial_nnd.iterations()),
            "nndescent/t{threads}"
        );

        let rec = RecordingObserver::new();
        let out = hyrec(threads).build_observed(&sim, 5, &rec);
        assert_trace_consistent(&out, &rec.iterations());
        assert_same_output(&out, &hyrec(threads).build(&sim, 5));
        assert_same_output(&out, &serial_hyrec_out);
        assert_eq!(
            trace_counters(&rec.iterations()),
            trace_counters(&serial_hyrec.iterations()),
            "hyrec/t{threads}"
        );
    }
}

#[test]
fn brute_force_trace_accounts_for_every_pair() {
    let profiles = clustered(10);
    let n = profiles.n_users() as u64;
    let sim = ExplicitJaccard::new(&profiles);
    let rec = RecordingObserver::new();
    let out = BruteForce::default().build_observed(&sim, 5, &rec);
    let events = rec.iterations();
    assert_eq!(events.len(), 1);
    assert_eq!(
        events[0].similarity_evals + events[0].pruned_evals,
        n * (n - 1) / 2,
        "every unordered pair is either evaluated or pruned"
    );
    assert_trace_consistent(&out, &events);
}

#[test]
fn recorded_trace_round_trips_through_the_json_parser() {
    let profiles = clustered(10);
    let sim = ExplicitJaccard::new(&profiles);
    let rec = RecordingObserver::new();
    let builder = NNDescent {
        threads: 1,
        seed: 3,
        ..NNDescent::default()
    };
    let out = builder.build_observed(&sim, 5, &rec);
    let report = RunReport {
        experiment: "test".to_string(),
        dataset: "clustered".to_string(),
        algo: "NNDescent".to_string(),
        provider: "native".to_string(),
        n_users: profiles.n_users() as u64,
        k: 5,
        seed: builder.seed,
        phases: rec.phases(),
        iterations: rec.iterations(),
        similarity_evals: out.stats.similarity_evals,
        pruned_evals: out.stats.pruned_evals,
        n_iterations: out.stats.iterations as u64,
        wall: out.stats.wall,
        ..RunReport::default()
    };
    assert!(report.trace_consistent());

    let text = report.to_json().pretty();
    let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert!(back.trace_consistent());
    assert_eq!(back.similarity_evals, report.similarity_evals);
    assert_eq!(back.n_iterations, report.n_iterations);
    assert_eq!(back.iterations.len(), report.iterations.len());
    for (a, b) in back.iterations.iter().zip(&report.iterations) {
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(a.similarity_evals, b.similarity_evals);
        assert_eq!(a.updates, b.updates);
        // Durations travel as secs_f64 — exact to well under a microsecond.
        assert!(a.wall.abs_diff(b.wall) < Duration::from_micros(1));
    }
    assert_eq!(back.phases.len(), report.phases.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Observer neutrality on arbitrary populations: recording vs no-op
    /// observers produce bit-identical graphs and counters at any thread
    /// count.
    #[test]
    fn observers_never_change_results(
        lists in proptest::collection::vec(proptest::collection::vec(0u32..200, 0..40), 3..20),
        k in 1usize..6,
        threads in 1usize..4,
    ) {
        let profiles = ProfileStore::from_item_lists(lists);
        let sim = ExplicitJaccard::new(&profiles);

        let builder = BruteForce { threads, ..BruteForce::default() };
        let rec = RecordingObserver::new();
        let observed = builder.build_observed(&sim, k, &rec);
        let unobserved = builder.build_observed(&sim, k, &NoopObserver);
        assert_same_output(&observed, &unobserved);
        assert_trace_consistent(&observed, &rec.iterations());

        let builder = NNDescent { threads, ..NNDescent::default() };
        let rec = RecordingObserver::new();
        let observed = builder.build_observed(&sim, k, &rec);
        assert_same_output(&observed, &builder.build(&sim, k));
        assert_trace_consistent(&observed, &rec.iterations());

        let builder = Hyrec { threads, ..Hyrec::default() };
        let rec = RecordingObserver::new();
        let observed = builder.build_observed(&sim, k, &rec);
        assert_same_output(&observed, &builder.build(&sim, k));
        assert_trace_consistent(&observed, &rec.iterations());
    }
}
