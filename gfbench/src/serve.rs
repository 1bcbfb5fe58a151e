//! The serving layer: a `KnnService` under open-loop traffic from two
//! client threads, one issuing lookups and one issuing updates (whose
//! drains run inline on it).
//!
//! Open loop means every op has a due time fixed in advance (`start +
//! i / rate`), and latency can be measured from that due time rather than
//! from when the client got round to issuing it — so a stalled client
//! charges the stall to every op that came due during it, instead of
//! silently sending fewer ops (coordinated omission). Update visibility
//! is measured that way. The lookup tail is measured per call (issue to
//! return): on a shared two-core machine the due-time tail of a 50 µs
//! lookup schedule mostly measures how often the client thread itself was
//! preempted, so it is kept as a per-layer metric instead.

use crate::setup::Setup;
use crate::spec::{ServeSpec, SYSTEM_SEED};
use goldfinger_knn::serve::{synth_op_stream, KnnService, Op, ServeConfig};
use goldfinger_obs::{trace, Registry};
use std::time::{Duration, Instant};

/// Pre-generated traffic of one serving segment.
#[derive(Debug, Clone)]
pub struct ServeOps {
    /// Lookup targets, in issue order.
    pub lookups: Vec<u32>,
    /// `(user, items)` updates, in issue order.
    pub updates: Vec<(u32, Vec<u32>)>,
}

/// Draws the segment's traffic from `seed`: uniform users, 1–3 uniform
/// items per update.
pub fn make_ops(spec: &ServeSpec, n_users: usize, n_items: u32, seed: u64) -> ServeOps {
    let count = |rate: f64| (rate * spec.seconds).round() as usize;
    let lookups = synth_op_stream(n_users, n_items, count(spec.lookup_rate), 0, seed ^ 0x100)
        .map(|op| match op {
            Op::Lookup { user } => user,
            Op::Update { .. } => unreachable!("0% updates"),
        })
        .collect();
    let updates = synth_op_stream(n_users, n_items, count(spec.update_rate), 100, seed ^ 0x200)
        .map(|op| match op {
            Op::Update { user, items } => (user, items),
            Op::Lookup { .. } => unreachable!("100% updates"),
        })
        .collect();
    ServeOps { lookups, updates }
}

/// When one open-loop op was due, started and finished.
#[derive(Debug, Clone, Copy)]
pub struct OpTiming {
    /// Scheduled issue time.
    pub due: Instant,
    /// When the client issued it (later than `due` when behind).
    pub started: Instant,
    /// When the call returned.
    pub finished: Instant,
}

impl OpTiming {
    /// Due-to-return latency.
    pub fn latency(&self) -> Duration {
        self.finished - self.due
    }

    /// Issue-to-return latency.
    pub fn service(&self) -> Duration {
        self.finished - self.started
    }

    /// How long the op waited behind earlier ones.
    pub fn lag(&self) -> Duration {
        self.started.saturating_duration_since(self.due)
    }
}

/// Sleeps (never spins) until `due`. On a two-vCPU machine spinning
/// clients take the CPU the drains they measure need (on the calibration
/// host they slowed every drain by a third); oversleeping only delays the
/// issue, which the due-time latencies charge honestly.
fn wait_until(due: Instant) {
    if let Some(left) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(left);
    }
}

/// Issues `op(i)` for `i in 0..count` at due times `start + i / rate`,
/// never waiting when behind schedule.
pub fn open_loop<T>(
    start: Instant,
    count: usize,
    rate: f64,
    mut op: impl FnMut(usize) -> T,
) -> Vec<(OpTiming, T)> {
    (0..count)
        .map(|i| {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            wait_until(due);
            let started = Instant::now();
            let out = op(i);
            let timing = OpTiming {
                due,
                started,
                finished: Instant::now(),
            };
            (timing, out)
        })
        .collect()
}

/// Length of the windows the lookup tail is taken over: 5,000 lookups at
/// the pinned rate, 50 of them past the p99.
pub const TAIL_WINDOW_S: f64 = 0.25;

/// The p99 of every complete window of `window` consecutive samples.
///
/// One scheduler hiccup on a shared machine can move one window's p99 but
/// not the median window's, so the median of these is the tail a typical
/// quarter second shows.
pub fn window_p99s(samples: &[f64], window: usize) -> Vec<f64> {
    samples
        .chunks_exact(window.max(1))
        .map(|w| crate::stats::percentile(&mut w.to_vec(), 0.99))
        .collect()
}

/// What one serving segment measured and checked.
#[derive(Debug, Clone, Default)]
pub struct ServeRun {
    /// Lookup latency from issue to return, µs.
    pub lookup_us: Vec<f64>,
    /// Lookup latency from due time, µs.
    pub lookup_due_us: Vec<f64>,
    /// Update latency from due time to the return of the call that
    /// published it, ms.
    pub visible_ms: Vec<f64>,
    /// Duration of the update calls that ran a drain, ms.
    pub drain_ms: Vec<f64>,
    /// Update lag behind schedule, ms.
    pub lag_ms: Vec<f64>,
    /// Lag of the last update, seconds: positive growth means the drains
    /// could not keep up.
    pub final_lag_s: f64,
    /// Lookups that returned nothing or more than `k` neighbours.
    pub bad_lookups: u64,
    /// Published epochs.
    pub drains: u64,
    /// Repaired users.
    pub repairs: u64,
    /// Similarity evaluations of those repairs.
    pub repair_evals: u64,
    /// Digest of the final snapshot.
    pub digest: u64,
    /// Whether the final snapshot re-verifies against its own digests.
    pub verified: bool,
}

/// Serves the set-up's initial graph under its pre-generated traffic.
pub fn run_serve(spec: &ServeSpec, setup: &Setup, k: usize) -> ServeRun {
    let registry = Registry::new();
    let svc = KnnService::new(
        &setup.initial,
        &setup.store,
        *setup.params.hasher(),
        ServeConfig {
            shards: spec.shards,
            batch: spec.batch,
            probes: spec.probes,
            seed: SYSTEM_SEED,
            threads: 1,
        },
        &registry,
    );
    let ops = &setup.ops;
    let _span = trace::span("gfbench", "serve");
    let start = Instant::now() + Duration::from_millis(2);
    let (lookups, (updates, flush)) = std::thread::scope(|s| {
        let lookups = s.spawn(|| {
            open_loop(start, ops.lookups.len(), spec.lookup_rate, |i| {
                svc.lookup(ops.lookups[i]).is_some_and(|l| l.len() <= k)
            })
        });
        let updates = s.spawn(|| {
            let timings = open_loop(start, ops.updates.len(), spec.update_rate, |i| {
                let before = svc.epoch();
                let (user, items) = &ops.updates[i];
                svc.update(*user, items.clone());
                svc.epoch() != before
            });
            svc.flush();
            (timings, Instant::now())
        });
        (
            lookups.join().expect("lookup client"),
            updates.join().expect("update client"),
        )
    });

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let mut run = ServeRun {
        lookup_us: lookups.iter().map(|(t, _)| us(t.service())).collect(),
        lookup_due_us: lookups.iter().map(|(t, _)| us(t.latency())).collect(),
        bad_lookups: lookups.iter().filter(|(_, ok)| !ok).count() as u64,
        ..ServeRun::default()
    };
    let mut pending: Vec<Instant> = Vec::new();
    for (t, published) in &updates {
        pending.push(t.due);
        run.lag_ms.push(ms(t.lag()));
        if *published {
            run.drain_ms.push(ms(t.service()));
            run.visible_ms
                .extend(pending.drain(..).map(|due| ms(t.finished - due)));
        }
    }
    run.visible_ms
        .extend(pending.drain(..).map(|due| ms(flush - due)));
    run.final_lag_s = updates.last().map_or(0.0, |(t, _)| t.lag().as_secs_f64());
    run.drains = registry.counter("serve.drains").get();
    run.repairs = registry.counter("serve.repairs").get();
    run.repair_evals = registry.counter("serve.repair_evals").get();
    let snap = svc.snapshot();
    run.digest = snap.digest();
    run.verified = snap.verify();
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_every_op_due_during_it() {
        let stall = Duration::from_millis(20);
        let start = Instant::now();
        let timings = open_loop(start, 80, 1_000.0, |i| {
            if i == 10 {
                std::thread::sleep(stall);
            }
        });
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        // Op 10 is due at 10 ms and returns after 30 ms; op i (due at i ms)
        // cannot start before then.
        for (i, (t, ())) in timings.iter().enumerate().take(30).skip(10) {
            let owed = 20.0 - (i as f64 - 10.0);
            assert!(ms(t.latency()) >= owed, "op {i}: {:?}", t.latency());
            if i > 10 {
                assert!(ms(t.lag()) >= owed, "op {i} lag {:?}", t.lag());
            }
        }
        // Ops due well after the stall are back on schedule.
        let (late, ()) = timings[75];
        assert!(ms(late.lag()) < 15.0, "never recovered: {:?}", late.lag());
        // Ops before the stall owe nothing to it.
        assert!(ms(timings[5].0.lag()) < 10.0);
    }

    #[test]
    fn window_tails_ignore_a_partial_window_and_isolate_spikes() {
        let mut samples = vec![1.0; 250];
        samples[120] = 50.0; // the slowest 2% of the second window
        samples[130] = 50.0;
        samples.extend([9.0; 40]); // a partial window: dropped
        assert_eq!(window_p99s(&samples, 100), vec![1.0, 50.0]);
        assert!(window_p99s(&samples[..50], 100).is_empty());
    }

    #[test]
    fn ops_are_seeded_and_sized_by_rate() {
        let spec = ServeSpec {
            shards: 2,
            batch: 4,
            probes: 1,
            lookup_rate: 100.0,
            update_rate: 10.0,
            seconds: 2.0,
        };
        let a = make_ops(&spec, 50, 500, 7);
        let b = make_ops(&spec, 50, 500, 7);
        let c = make_ops(&spec, 50, 500, 8);
        assert_eq!((a.lookups.len(), a.updates.len()), (200, 20));
        assert_eq!(a.lookups, b.lookups);
        assert_eq!(a.updates, b.updates);
        assert_ne!(a.lookups, c.lookups);
        assert!(a.updates.iter().all(|(u, items)| *u < 50
            && (1..=3).contains(&items.len())
            && items.iter().all(|&i| i < 500)));
    }
}
