//! Instrumented similarity providers — the analytic substitute for the
//! paper's hardware-counter measurements (Table 5).
//!
//! The paper profiles L1 cache loads/stores with `perf`. Hardware counters
//! are unavailable here, so [`CountingSimilarity`] wraps any provider and
//! accumulates (a) the number of similarity evaluations and (b) the exact
//! bytes of profile payload those evaluations read, using each provider's
//! [`Similarity::bytes_per_eval`] model. Because L1 traffic on the
//! similarity path is a direct function of bytes touched, the *ratios*
//! between native and GoldFinger runs reproduce the paper's Table 5 shape.

use goldfinger_core::similarity::Similarity;
use goldfinger_obs::Traffic;
use std::sync::atomic::{AtomicU64, Ordering};

/// A provider wrapper counting evaluations and modelled memory traffic.
///
/// Thread-safe: counters are relaxed atomics (exact totals, no ordering
/// requirements).
#[derive(Debug)]
pub struct CountingSimilarity<'a, S> {
    inner: &'a S,
    calls: AtomicU64,
    bytes: AtomicU64,
}

impl<'a, S: Similarity> CountingSimilarity<'a, S> {
    /// Wraps a provider.
    pub fn new(inner: &'a S) -> Self {
        CountingSimilarity {
            inner,
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Snapshot of the accumulated counters.
    pub fn traffic(&self) -> Traffic {
        Traffic {
            calls: self.calls.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Resets both counters to zero.
    pub fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
    }
}

impl<S: Similarity> Similarity for CountingSimilarity<'_, S> {
    #[inline]
    fn n_users(&self) -> usize {
        self.inner.n_users()
    }

    #[inline]
    fn similarity(&self, u: u32, v: u32) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(self.inner.bytes_per_eval(u, v), Ordering::Relaxed);
        self.inner.similarity(u, v)
    }

    #[inline]
    fn bytes_per_eval(&self, u: u32, v: u32) -> u64 {
        self.inner.bytes_per_eval(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForce;
    use goldfinger_core::profile::ProfileStore;
    use goldfinger_core::shf::ShfParams;
    use goldfinger_core::similarity::{ExplicitJaccard, ShfJaccard};

    fn profiles() -> ProfileStore {
        ProfileStore::from_item_lists(vec![
            (0..100).collect(),
            (50..150).collect(),
            (0..80).collect(),
        ])
    }

    #[test]
    fn counts_every_call_and_its_bytes() {
        let p = profiles();
        let sim = ExplicitJaccard::new(&p);
        let counting = CountingSimilarity::new(&sim);
        let _ = counting.similarity(0, 1);
        let _ = counting.similarity(0, 2);
        let t = counting.traffic();
        assert_eq!(t.calls, 2);
        assert_eq!(t.bytes, sim.bytes_per_eval(0, 1) + sim.bytes_per_eval(0, 2));
        counting.reset();
        assert_eq!(counting.traffic(), Traffic::default());
    }

    #[test]
    fn wrapped_values_are_unchanged() {
        let p = profiles();
        let sim = ExplicitJaccard::new(&p);
        let counting = CountingSimilarity::new(&sim);
        assert_eq!(counting.similarity(0, 1), sim.similarity(0, 1));
        assert_eq!(counting.n_users(), 3);
    }

    #[test]
    fn goldfinger_traffic_is_lower_than_native_for_these_profiles() {
        // The Table 5 claim in miniature: same algorithm, same eval count,
        // far fewer bytes via fingerprints.
        let p = profiles();
        let store = ShfParams::default().fingerprint_store(&p);

        let native = ExplicitJaccard::new(&p);
        let counted_native = CountingSimilarity::new(&native);
        let _ = BruteForce::default().build(&counted_native, 2);

        let gf = ShfJaccard::new(&store);
        let counted_gf = CountingSimilarity::new(&gf);
        let _ = BruteForce::default().build(&counted_gf, 2);

        let tn = counted_native.traffic();
        let tg = counted_gf.traffic();
        assert_eq!(tn.calls, tg.calls);
        // 100-item profiles: ~2·100·4 = 800B native vs 2·(128+4) = 264B GF.
        assert!(tg.bytes < tn.bytes, "{} vs {}", tg.bytes, tn.bytes);
        assert!(tg.bytes_per_call() < tn.bytes_per_call());
    }
}
