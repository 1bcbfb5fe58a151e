//! Forwarding decorators that time a layer from outside: a similarity
//! provider ([`TimedSimilarity`]) and a profile source ([`TimedSource`]).
//!
//! Both forward every call unchanged — batched calls stay batched — so a
//! build over a decorated provider is bit-identical to one over the bare
//! provider; the tests pin this for every deterministic registry builder.
//! Counters live in per-thread, cache-line-padded slots, so worker threads
//! never contend on a shared counter.
//!
//! A single-pair evaluation costs about as much as reading the clock, so
//! timing every one would mostly measure the clock (and slow a per-pair
//! builder down several times). Single calls are therefore counted always
//! but timed one in [`SAMPLE_EVERY`], batched calls are timed every time,
//! and the clock's own cost is subtracted from every timed interval.

use goldfinger_core::profile::{ItemId, ProfileSource, UserId};
use goldfinger_core::similarity::Similarity;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One in this many single-pair calls is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// Per-thread accumulator slots; threads beyond this share slots, which
/// only costs contention, never correctness.
const SLOTS: usize = 8;

fn thread_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SLOTS;
    }
    SLOT.with(|s| *s)
}

/// Nanoseconds one `Instant::now()` adds to a measured interval.
fn clock_cost_ns() -> f64 {
    static COST: OnceLock<f64> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut per_read: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..10_000 {
                    std::hint::black_box(Instant::now());
                }
                t0.elapsed().as_nanos() as f64 / 10_000.0
            })
            .collect();
        per_read.sort_by(f64::total_cmp);
        per_read[2]
    })
}

#[derive(Default)]
#[repr(align(64))]
struct Slot {
    singles: AtomicU64,
    sampled: AtomicU64,
    sampled_nanos: AtomicU64,
    batches: AtomicU64,
    batched_rows: AtomicU64,
    batch_nanos: AtomicU64,
}

impl Slot {
    fn add_nanos(counter: &AtomicU64, t0: Instant) {
        counter.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Estimated time inside the provider, net of clock reads.
    fn kernel_s(&self, clock_ns: f64) -> f64 {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
        let net = |nanos: f64, timed: f64| (nanos - timed * clock_ns).max(0.0);
        let sampled = load(&self.sampled);
        let singles = if sampled > 0.0 {
            net(load(&self.sampled_nanos), sampled) * load(&self.singles) / sampled
        } else {
            0.0
        };
        (singles + net(load(&self.batch_nanos), load(&self.batches))) * 1e-9
    }
}

/// What a [`TimedSimilarity`] saw over one build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTime {
    /// Estimated time inside the provider, summed over threads.
    pub thread_s: f64,
    /// Threads that called the provider.
    pub threads: usize,
    /// Pairs scored one at a time through `similarity`.
    pub singles: u64,
    /// Pairs scored through `similarity_batch`.
    pub batched_rows: u64,
}

impl KernelTime {
    /// Pairs scored, batched or not.
    pub fn evals(&self) -> u64 {
        self.singles + self.batched_rows
    }

    /// Wall-equivalent kernel time: thread time divided by the threads
    /// that shared it (exact for serial builds, the per-thread mean for
    /// balanced parallel ones).
    pub fn wall_s(&self) -> f64 {
        self.thread_s / self.threads.max(1) as f64
    }

    /// Thread time per scored pair, in nanoseconds.
    pub fn ns_per_eval(&self) -> f64 {
        self.thread_s * 1e9 / self.evals().max(1) as f64
    }

    /// Share of scored pairs that went through the batched path.
    pub fn batched_frac(&self) -> f64 {
        self.batched_rows as f64 / self.evals().max(1) as f64
    }
}

/// A [`Similarity`] that forwards to `inner` and times its scoring calls.
pub struct TimedSimilarity<'a> {
    inner: &'a (dyn Similarity + 'a),
    slots: [Slot; SLOTS],
}

impl<'a> TimedSimilarity<'a> {
    /// Wraps a provider.
    pub fn new(inner: &'a (dyn Similarity + 'a)) -> Self {
        clock_cost_ns(); // calibrate before the first timed call
        TimedSimilarity {
            inner,
            slots: Default::default(),
        }
    }

    /// Totals since construction.
    pub fn totals(&self) -> KernelTime {
        let clock_ns = clock_cost_ns();
        let mut t = KernelTime {
            thread_s: 0.0,
            threads: 0,
            singles: 0,
            batched_rows: 0,
        };
        for s in &self.slots {
            let singles = s.singles.load(Ordering::Relaxed);
            let rows = s.batched_rows.load(Ordering::Relaxed);
            if singles + rows > 0 {
                t.threads += 1;
            }
            t.thread_s += s.kernel_s(clock_ns);
            t.singles += singles;
            t.batched_rows += rows;
        }
        t
    }
}

impl Similarity for TimedSimilarity<'_> {
    fn n_users(&self) -> usize {
        self.inner.n_users()
    }

    fn similarity(&self, u: u32, v: u32) -> f64 {
        let slot = &self.slots[thread_slot()];
        if !slot
            .singles
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(SAMPLE_EVERY)
        {
            return self.inner.similarity(u, v);
        }
        let t0 = Instant::now();
        let s = self.inner.similarity(u, v);
        Slot::add_nanos(&slot.sampled_nanos, t0);
        slot.sampled.fetch_add(1, Ordering::Relaxed);
        s
    }

    fn bytes_per_eval(&self, u: u32, v: u32) -> u64 {
        self.inner.bytes_per_eval(u, v)
    }

    fn similarity_upper_bound(&self, u: u32, v: u32) -> Option<f64> {
        self.inner.similarity_upper_bound(u, v)
    }

    fn similarity_batch(&self, u: u32, vs: &[u32], out: &mut [f64]) {
        let t0 = Instant::now();
        self.inner.similarity_batch(u, vs, out);
        let slot = &self.slots[thread_slot()];
        Slot::add_nanos(&slot.batch_nanos, t0);
        slot.batches.fetch_add(1, Ordering::Relaxed);
        slot.batched_rows
            .fetch_add(vs.len() as u64, Ordering::Relaxed);
    }
}

/// A [`ProfileSource`] that forwards to `inner` and times every read.
pub struct TimedSource<'a, P: ?Sized> {
    inner: &'a P,
    nanos: AtomicU64,
}

impl<'a, P: ProfileSource + ?Sized> TimedSource<'a, P> {
    /// Wraps a source.
    pub fn new(inner: &'a P) -> Self {
        TimedSource {
            inner,
            nanos: AtomicU64::new(0),
        }
    }

    /// Seconds spent inside `items_into` since construction.
    pub fn read_s(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

impl<P: ProfileSource + ?Sized> ProfileSource for TimedSource<'_, P> {
    fn n_users(&self) -> usize {
        self.inner.n_users()
    }

    fn items_into(&self, u: UserId, buf: &mut Vec<ItemId>) {
        let t0 = Instant::now();
        self.inner.items_into(u, buf);
        Slot::add_nanos(&self.nanos, t0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builds::graph_digest;
    use goldfinger_core::hash::DynHasher;
    use goldfinger_core::profile::ProfileStore;
    use goldfinger_core::shf::ShfParams;
    use goldfinger_core::similarity::ShfJaccard;
    use goldfinger_core::Pool;
    use goldfinger_datasets::synth::SynthConfig;
    use goldfinger_knn::builders::{self, BuilderConfig};
    use goldfinger_knn::{BuildInput, NoopObserver};

    #[test]
    fn timed_provider_changes_no_graph_and_no_counter() {
        let data = SynthConfig::ml1m()
            .scaled(0.05)
            .with_seed(3)
            .generate()
            .prepare();
        let store = ShfParams::new(512, DynHasher::default()).fingerprint_store(data.profiles());
        let bare = ShfJaccard::new(&store);
        let pool = Pool::new(2);
        let cfg = BuilderConfig {
            seed: 9,
            threads: 2,
        };
        let mut checked = 0;
        for spec in builders::all() {
            let b = spec.instantiate(&cfg);
            if !b.deterministic() {
                continue;
            }
            let run = |sim: &dyn Similarity| {
                pool.install(|| {
                    b.build_erased(
                        BuildInput::with_profiles(sim, data.profiles()),
                        10,
                        &NoopObserver,
                    )
                })
            };
            let plain = run(&bare);
            let timed = TimedSimilarity::new(&bare);
            let observed = run(&timed);
            assert_eq!(
                graph_digest(&plain.graph),
                graph_digest(&observed.graph),
                "{}",
                spec.name
            );
            assert_eq!(
                plain.stats.similarity_evals,
                observed.stats.similarity_evals
            );
            assert_eq!(plain.stats.pruned_evals, observed.stats.pruned_evals);
            let seen = timed.totals();
            assert_eq!(seen.evals(), plain.stats.similarity_evals, "{}", spec.name);
            assert!(seen.threads >= 1);
            checked += 1;
        }
        assert_eq!(checked, 4, "brute, lsh, kiff and cluster are deterministic");
    }

    #[test]
    fn sampled_singles_extrapolate_to_every_call() {
        /// Spins ~2 µs per call: far above the clock's cost.
        struct Slow;
        impl Similarity for Slow {
            fn n_users(&self) -> usize {
                2
            }
            fn similarity(&self, _: u32, _: u32) -> f64 {
                let t0 = Instant::now();
                while t0.elapsed().as_nanos() < 2_000 {
                    std::hint::spin_loop();
                }
                0.5
            }
            fn bytes_per_eval(&self, _: u32, _: u32) -> u64 {
                0
            }
        }
        let timed = TimedSimilarity::new(&Slow);
        let calls = 20 * SAMPLE_EVERY;
        let t0 = Instant::now();
        for _ in 0..calls {
            timed.similarity(0, 1);
        }
        let wall = t0.elapsed().as_secs_f64();
        let t = timed.totals();
        assert_eq!((t.singles, t.batched_rows, t.threads), (calls, 0, 1));
        assert!(
            t.thread_s > 0.5 * wall && t.thread_s < 1.5 * wall,
            "{t:?} vs {wall}"
        );
        assert!(t.ns_per_eval() >= 1_500.0, "{t:?}");
    }

    #[test]
    fn timed_source_forwards_items() {
        let store = ProfileStore::from_item_lists(vec![vec![1, 5], vec![], vec![2]]);
        let timed = TimedSource::new(&store);
        let mut buf = Vec::new();
        for u in 0..3 {
            timed.items_into(u, &mut buf);
            assert_eq!(buf, store.items(u));
        }
        assert_eq!(ProfileSource::n_users(&timed), 3);
        assert!(timed.read_s() >= 0.0);
    }
}
