//! The build-observer contract: per-iteration events and phase spans
//! emitted by the KNN builders.
//!
//! Builders take a `&dyn BuildObserver` and call the hooks at iteration
//! granularity — never per similarity evaluation — so observation costs
//! nothing on the hot path. [`NoopObserver`] additionally reports
//! [`BuildObserver::enabled`]` == false`, letting builders skip even the
//! per-iteration bookkeeping (timer reads, event assembly) when nobody is
//! listening: one virtual call per phase or iteration, never per pair.
//! [`PhaseTimer`] times one phase for both recorders at once, the
//! observer and the flight recorder ([`crate::trace`]).

use crate::span::{Phase, PhaseSpan, SpanSet};
use crate::trace::{self, TraceSpan};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One refinement iteration of a KNN build, as reported by the builders.
///
/// Iteration `0` is reserved for initialisation work (random-graph seeding);
/// one-shot algorithms emit a single event with `iteration == 1`. Summing
/// `similarity_evals` (and `pruned_evals`) over all events of a build yields
/// exactly the final `BuildStats` totals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationEvent {
    /// Iteration number (0 = initialisation).
    pub iteration: u32,
    /// Similarity evaluations performed during this iteration.
    pub similarity_evals: u64,
    /// Candidate pairs skipped by upper-bound pruning during this iteration.
    pub pruned_evals: u64,
    /// Neighbour-list updates ("changed edges") this iteration.
    pub updates: u64,
    /// Termination threshold the updates were compared against (`δ·k·n`;
    /// 0 for algorithms without iterative termination).
    pub threshold: f64,
    /// Wall-clock time of this iteration.
    pub wall: Duration,
}

/// Receives build-progress events from the KNN builders.
///
/// Contract for builders:
/// - hooks are invoked at most once per iteration / phase section, never per
///   candidate pair;
/// - hooks may be called from the thread driving the build only (workers
///   aggregate into the driving thread's counters first);
/// - observing a build must not change its result: the graph and the final
///   `BuildStats` counters are bit-identical whichever observer is plugged
///   in (asserted by `crates/knn/tests/observability.rs`).
pub trait BuildObserver: Sync {
    /// `false` for observers that ignore every event, allowing builders to
    /// skip the per-iteration bookkeeping entirely.
    fn enabled(&self) -> bool {
        true
    }

    /// One refinement iteration (or the single pass of a one-shot builder)
    /// finished.
    fn on_iteration(&self, _event: IterationEvent) {}

    /// A timed phase section finished.
    fn on_span(&self, _phase: Phase, _wall: Duration) {}
}

/// Times one build phase: opens the `("phase", phase.name())`
/// flight-recorder span and, when dropped, reports the elapsed wall time to
/// [`BuildObserver::on_span`] and closes the span. The clock is read only
/// when the observer is [enabled](BuildObserver::enabled).
#[must_use = "dropping the timer immediately ends the phase"]
pub struct PhaseTimer<'a> {
    obs: &'a dyn BuildObserver,
    phase: Phase,
    start: Option<Instant>,
    _trace: TraceSpan,
}

impl<'a> PhaseTimer<'a> {
    /// Starts timing `phase` for `obs`.
    pub fn start(obs: &'a dyn BuildObserver, phase: Phase) -> Self {
        PhaseTimer {
            obs,
            phase,
            start: obs.enabled().then(Instant::now),
            _trace: trace::span("phase", phase.name()),
        }
    }
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.start {
            self.obs.on_span(self.phase, t.elapsed());
        }
    }
}

/// The default observer: ignores everything, and builders skip their
/// observer bookkeeping for it.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl BuildObserver for NoopObserver {
    fn enabled(&self) -> bool {
        false
    }
}

/// An observer that records the full per-iteration trace and phase spans,
/// for reports and tests.
#[derive(Default)]
pub struct RecordingObserver {
    iterations: Mutex<Vec<IterationEvent>>,
    spans: SpanSet,
}

impl RecordingObserver {
    /// An empty recorder.
    pub fn new() -> Self {
        RecordingObserver::default()
    }

    /// The recorded iteration events, in emission order.
    pub fn iterations(&self) -> Vec<IterationEvent> {
        self.iterations.lock().unwrap().clone()
    }

    /// The aggregated phase spans (non-empty phases only).
    pub fn phases(&self) -> Vec<PhaseSpan> {
        self.spans.snapshot()
    }
}

impl BuildObserver for RecordingObserver {
    fn on_iteration(&self, event: IterationEvent) {
        self.iterations.lock().unwrap().push(event);
    }

    fn on_span(&self, phase: Phase, wall: Duration) {
        self.spans.record(phase, wall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_observer_keeps_order_and_spans() {
        let rec = RecordingObserver::new();
        rec.on_iteration(IterationEvent {
            iteration: 0,
            similarity_evals: 10,
            pruned_evals: 0,
            updates: 0,
            threshold: 0.0,
            wall: Duration::ZERO,
        });
        rec.on_iteration(IterationEvent {
            iteration: 1,
            similarity_evals: 5,
            pruned_evals: 2,
            updates: 7,
            threshold: 1.5,
            wall: Duration::from_millis(1),
        });
        rec.on_span(Phase::Join, Duration::from_millis(1));
        let events = rec.iterations();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].iteration, 0);
        assert_eq!(events[1].updates, 7);
        let phases = rec.phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].phase, Phase::Join);
    }

    #[test]
    fn noop_is_disabled() {
        assert!(!NoopObserver.enabled());
        assert!(RecordingObserver::new().enabled());
    }

    #[test]
    fn events_round_trip_through_dyn_build_observer() {
        let rec = RecordingObserver::new();
        let erased: &dyn BuildObserver = &rec;
        assert!(erased.enabled());
        erased.on_iteration(IterationEvent {
            iteration: 1,
            similarity_evals: 3,
            pruned_evals: 1,
            updates: 2,
            threshold: 0.5,
            wall: Duration::ZERO,
        });
        erased.on_span(Phase::Merge, Duration::from_millis(2));
        assert_eq!(rec.iterations().len(), 1);
        assert_eq!(rec.iterations()[0].similarity_evals, 3);
        assert_eq!(rec.phases()[0].phase, Phase::Merge);
    }

    #[test]
    fn phase_timer_reports_once_on_drop() {
        let rec = RecordingObserver::new();
        {
            let _t = PhaseTimer::start(&rec, Phase::Join);
            assert!(rec.phases().is_empty());
        }
        let phases = rec.phases();
        assert_eq!(phases.len(), 1);
        assert_eq!((phases[0].phase, phases[0].entries), (Phase::Join, 1));
        // A disabled observer gets no call at all.
        struct Disabled;
        impl BuildObserver for Disabled {
            fn enabled(&self) -> bool {
                false
            }
            fn on_span(&self, _phase: Phase, _wall: Duration) {
                panic!("a disabled observer was timed");
            }
        }
        drop(PhaseTimer::start(&Disabled, Phase::Merge));
    }
}
