//! Phase spans: wall time aggregated per build phase.
//!
//! A [`SpanSet`] holds one relaxed-atomic accumulator per [`Phase`] and
//! folds in every duration [`SpanSet::record`]ed against it. Because the
//! accumulators are atomics, threads can record against the same set
//! concurrently and the totals aggregate across all of them. Builders time
//! their phases with [`crate::PhaseTimer`]; the set is what
//! [`crate::RecordingObserver`] aggregates those reports into.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The build phases the paper's cost model distinguishes: preparation
/// (loading + fingerprinting, Table 3) versus construction (candidate
/// generation, similarity joins, final merge — Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Assembling the explicit in-memory representation of a dataset.
    DatasetPrep,
    /// Compacting profiles into SHFs (or other sketches).
    Fingerprinting,
    /// Producing candidate pairs: random-graph seeding, reverse lists,
    /// LSH bucketing.
    CandidateGeneration,
    /// Evaluating similarities and updating neighbour lists.
    Join,
    /// Merging per-thread partials / sorting final neighbour lists.
    Merge,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 5] = [
        Phase::DatasetPrep,
        Phase::Fingerprinting,
        Phase::CandidateGeneration,
        Phase::Join,
        Phase::Merge,
    ];

    /// Stable machine-readable name (used in JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            Phase::DatasetPrep => "dataset_prep",
            Phase::Fingerprinting => "fingerprinting",
            Phase::CandidateGeneration => "candidate_generation",
            Phase::Join => "join",
            Phase::Merge => "merge",
        }
    }

    /// Parses a [`Phase::name`] back into a phase.
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }

    fn index(self) -> usize {
        match self {
            Phase::DatasetPrep => 0,
            Phase::Fingerprinting => 1,
            Phase::CandidateGeneration => 2,
            Phase::Join => 3,
            Phase::Merge => 4,
        }
    }
}

#[derive(Default)]
struct PhaseAgg {
    nanos: AtomicU64,
    entries: AtomicU64,
}

/// Aggregated wall time and entry counts for every [`Phase`].
///
/// Thread-safe: counters are relaxed atomics, so durations recorded from
/// worker threads fold into the same totals.
#[derive(Default)]
pub struct SpanSet {
    aggs: [PhaseAgg; 5],
}

/// One phase's aggregated timing, as reported by [`SpanSet::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpan {
    /// Which phase.
    pub phase: Phase,
    /// Total wall time spent in the phase (across all spans and threads).
    pub wall: Duration,
    /// Number of spans recorded against the phase.
    pub entries: u64,
}

impl SpanSet {
    /// An empty span set.
    pub fn new() -> Self {
        SpanSet::default()
    }

    /// Records an externally measured duration against `phase`.
    pub fn record(&self, phase: Phase, wall: Duration) {
        let agg = &self.aggs[phase.index()];
        agg.nanos.fetch_add(
            wall.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
        agg.entries.fetch_add(1, Ordering::Relaxed);
    }

    /// Total wall time recorded for `phase`.
    pub fn total(&self, phase: Phase) -> Duration {
        Duration::from_nanos(self.aggs[phase.index()].nanos.load(Ordering::Relaxed))
    }

    /// Number of spans recorded for `phase`.
    pub fn entries(&self, phase: Phase) -> u64 {
        self.aggs[phase.index()].entries.load(Ordering::Relaxed)
    }

    /// The non-empty phases in pipeline order.
    pub fn snapshot(&self) -> Vec<PhaseSpan> {
        Phase::ALL
            .into_iter()
            .filter(|&p| self.entries(p) > 0)
            .map(|p| PhaseSpan {
                phase: p,
                wall: self.total(p),
                entries: self.entries(p),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("bogus"), None);
    }

    #[test]
    fn record_accumulates_manual_durations() {
        let set = SpanSet::new();
        set.record(Phase::DatasetPrep, Duration::from_millis(3));
        set.record(Phase::DatasetPrep, Duration::from_millis(4));
        assert_eq!(set.total(Phase::DatasetPrep), Duration::from_millis(7));
        assert_eq!(set.entries(Phase::DatasetPrep), 2);
    }

    #[test]
    fn spans_aggregate_across_threads() {
        let set = SpanSet::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10 {
                        set.record(Phase::Join, Duration::from_micros(5));
                    }
                });
            }
        });
        assert_eq!(set.entries(Phase::Join), 40);
        assert_eq!(set.total(Phase::Join), Duration::from_micros(200));
    }
}
