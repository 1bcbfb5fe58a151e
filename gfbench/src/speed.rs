//! Machine-speed probe: three fixed kernels owned by the benchmark, timed
//! at the start of every round to estimate how fast the machine is
//! running right then.
//!
//! On a shared host the same code runs 20–30% faster or slower from one
//! minute to the next, uniformly across every layer, and that drift — not
//! the noise inside a run — is what separates one run's medians from the
//! next. The probe code never changes with the system under test, so the
//! ratio of its times to a fixed reference measures the drift alone; the
//! compute-bound end-to-end times of each round are divided by it. Three kernels
//! cover the ways the drift shows: an ALU dependency chain, an
//! L2-resident popcount scan (the similarity kernels' shape) and a
//! gather of independent reads over a table far larger than the caches.

use crate::stats::median;
use std::sync::OnceLock;
use std::time::Instant;

/// Probe times of the calibration host (2 vCPUs), in seconds: a run as
/// fast as that host on its median run has a factor of 1.
const REFERENCE_S: [f64; 3] = [4.16e-3, 2.79e-3, 1.88e-3];

fn alu() {
    let mut x = 0x1234_5678_9abc_def1u64;
    for _ in 0..3_000_000 {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x >> 29);
    }
    std::hint::black_box(x);
}

/// 384 KiB of 1024-bit rows, scanned pairwise like a brute-force tile.
fn popcount() {
    static ROWS: OnceLock<Vec<u64>> = OnceLock::new();
    let rows = ROWS.get_or_init(|| {
        (0..48u64 << 10)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 7))
            .collect()
    });
    let n = rows.len() / 16;
    let mut acc = 0u32;
    for i in 0..64 {
        let a = &rows[(i * 37 % n) * 16..][..16];
        for b in rows.chunks_exact(16) {
            acc = acc.wrapping_add(a.iter().zip(b).map(|(x, y)| (x & y).count_ones()).sum());
        }
    }
    std::hint::black_box(acc);
}

/// 200k independent reads scattered over `table`.
fn gather(table: &[u64]) {
    let mask = table.len() - 1;
    let mut x = 7u64;
    let mut acc = 0u64;
    for _ in 0..200_000 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        acc = acc.wrapping_add(table[(x >> 20) as usize & mask] ^ acc);
    }
    std::hint::black_box(acc);
}

/// Probe samples of one run.
#[derive(Debug, Default)]
pub struct SpeedProbe {
    samples: [Vec<f64>; 3],
    factors: Vec<f64>,
}

/// Geometric mean over the kernels of `times` ÷ reference: above 1 when
/// the machine ran slower than the calibration host.
fn factor_of(times: [f64; 3]) -> f64 {
    let logs: f64 = times
        .iter()
        .zip(REFERENCE_S)
        .map(|(t, r)| (t / r).ln())
        .sum();
    (logs / 3.0).exp()
}

impl SpeedProbe {
    /// Times each kernel `reps` times and returns the speed factor of
    /// these samples alone. The 32 MiB gather table lives only for the
    /// call, so it never counts toward a measured resident-set peak.
    pub fn measure(&mut self, reps: usize) -> f64 {
        let table: Vec<u64> = (0..4u64 << 20).collect();
        let timed = |f: &dyn Fn()| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        };
        let mut now: [Vec<f64>; 3] = Default::default();
        for _ in 0..reps.max(1) {
            now[0].push(timed(&alu));
            now[1].push(timed(&popcount));
            now[2].push(timed(&|| gather(&table)));
        }
        for (all, new) in self.samples.iter_mut().zip(&now) {
            all.extend(new);
        }
        let factor = factor_of(std::array::from_fn(|i| median(&now[i])));
        self.factors.push(factor);
        factor
    }

    /// Run median of each kernel, seconds.
    pub fn medians(&self) -> [f64; 3] {
        std::array::from_fn(|i| median(&self.samples[i]))
    }

    /// Median of the factors measured so far.
    pub fn factor(&self) -> f64 {
        median(&self.factors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_positive_and_finite() {
        let mut p = SpeedProbe::default();
        let f = p.measure(2);
        assert!(f.is_finite() && f > 0.0, "{f}");
        assert_eq!(p.factor(), f);
        assert!(p.medians().iter().all(|&m| m > 0.0));
    }
}
