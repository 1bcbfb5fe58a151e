//! Order statistics over small sample sets: medians, quartiles and
//! percentiles.
//!
//! Quartiles use the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)` — the rule the benchmark's spread
//! gate is defined with — so a spread printed here matches one computed
//! from the same values outside the program.

/// Quantile at 1-based position `p·(n+1)` of the sorted values, linearly
/// interpolated between the two nearest samples — and extrapolated from
/// the outermost pair near the ends, exactly as the exclusive method of
/// `statistics.quantiles` does. `NaN` for an empty set.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let pos = p * (n as f64 + 1.0);
            let j = (pos.floor() as usize).clamp(1, n - 1);
            v[j - 1] + (pos - j as f64) * (v[j] - v[j - 1])
        }
    }
}

/// The middle value (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median and the first and third quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Middle value.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`.
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            median: median(values),
            q1: quantile(values, 0.25),
            q3: quantile(values, 0.75),
            n: values.len(),
        }
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of a latency sample set,
/// the usual definition for tail latencies: the smallest sample with at
/// least `p·n` samples at or below it. Sorts `samples` in place.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (p * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&v, 0.25) - 2.75).abs() < 1e-12);
        assert!((quantile(&v, 0.5) - 5.5).abs() < 1e-12);
        assert!((quantile(&v, 0.75) - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.0, 2.0, 4.0, 3));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]: two
        // samples extrapolate past both ends.
        assert_eq!(quantile(&[9.0, 5.0], 0.25), 4.0);
        assert_eq!(quantile(&[9.0, 5.0], 0.75), 10.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[90.0, 95.0, 100.0, 105.0, 110.0]);
        // q1 = 92.5, q3 = 107.5
        assert!((s.spread() - 0.15).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        let mut one = [3.5];
        assert_eq!(percentile(&mut one, 0.99), 3.5);
    }
}
