//! Small statistics accumulators shared by the metrics layer and tests.

/// Streaming mean/min/max/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Running {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (0 if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sample standard deviation (0 if fewer than two observations).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Running) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        let m2 =
            self.m2 + other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact-percentile accumulator: stores samples in arrival order, selects
/// in a copy on query.
///
/// Simulations here produce at most a few million samples per metric, so
/// exact percentiles are affordable and avoid sketch error in reported
/// numbers.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
}

impl Percentiles {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The q-quantile (q in [0, 1]) by nearest-rank; 0 if empty. A pure
    /// read: the samples keep their arrival order, so [`Self::mean`] adds
    /// them in the same order — to the same bits — before and after.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let n = self.samples.len();
        // Nearest-rank: the smallest value with at least ceil(q*n) samples <= it.
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let mut copy = self.samples.clone();
        *copy
            .select_nth_unstable_by(rank - 1, |a, b| a.partial_cmp(b).expect("NaN sample"))
            .1
    }

    /// Arithmetic mean; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_mean_min_max() {
        let mut r = Running::new();
        for x in [2.0, 4.0, 6.0] {
            r.push(x);
        }
        assert_eq!(r.count(), 3);
        assert!((r.mean() - 4.0).abs() < 1e-12);
        assert_eq!(r.min(), 2.0);
        assert_eq!(r.max(), 6.0);
        assert!((r.stddev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn running_empty_is_zero() {
        let r = Running::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.min(), 0.0);
        assert_eq!(r.max(), 0.0);
        assert_eq!(r.stddev(), 0.0);
    }

    #[test]
    fn running_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i * 7 % 13) as f64).collect();
        let mut whole = Running::new();
        for &x in &data {
            whole.push(x);
        }
        let mut left = Running::new();
        let mut right = Running::new();
        for &x in &data[..40] {
            left.push(x);
        }
        for &x in &data[40..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.stddev() - whole.stddev()).abs() < 1e-9);
    }

    #[test]
    fn running_single_sample() {
        let mut r = Running::new();
        r.push(7.5);
        assert_eq!(r.count(), 1);
        assert_eq!(r.mean(), 7.5);
        assert_eq!(r.min(), 7.5);
        assert_eq!(r.max(), 7.5);
        assert_eq!(r.stddev(), 0.0, "one sample has no spread");
    }

    #[test]
    fn running_min_max_are_nan_free() {
        // Empty: the sentinel infinities must never leak out.
        let empty = Running::new();
        for v in [empty.mean(), empty.min(), empty.max(), empty.stddev()] {
            assert!(v.is_finite(), "empty accumulator leaked {v}");
        }
        // Negative-only data: min/max stay finite and ordered.
        let mut r = Running::new();
        r.push(-3.0);
        r.push(-1.0);
        assert_eq!(r.min(), -3.0);
        assert_eq!(r.max(), -1.0);
        assert!(r.min().is_finite() && r.max().is_finite());
        // Merging an empty accumulator changes nothing.
        r.merge(&Running::new());
        assert_eq!(r.count(), 2);
        assert_eq!(r.min(), -3.0);
    }

    #[test]
    fn percentiles_empty_accumulator_is_zero() {
        let p = Percentiles::new();
        assert_eq!(p.count(), 0);
        assert_eq!(p.mean(), 0.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(p.quantile(q), 0.0);
        }
    }

    #[test]
    fn percentiles_single_sample_dominates_every_quantile() {
        let mut p = Percentiles::new();
        p.push(42.0);
        assert_eq!(p.count(), 1);
        assert_eq!(p.mean(), 42.0);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(p.quantile(q), 42.0);
        }
    }

    #[test]
    fn percentiles_quantile_clamps_out_of_range_q() {
        let mut p = Percentiles::new();
        p.push(1.0);
        p.push(2.0);
        assert_eq!(p.quantile(-0.5), 1.0);
        assert_eq!(p.quantile(7.0), 2.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut p = Percentiles::new();
        for x in 1..=100 {
            p.push(x as f64);
        }
        assert_eq!(p.quantile(0.0), 1.0);
        assert_eq!(p.quantile(1.0), 100.0);
        assert_eq!(p.quantile(0.5), 50.0);
        assert!((p.quantile(0.99) - 99.0).abs() <= 1.0);
        assert!((p.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interleaved_push_query() {
        let mut p = Percentiles::new();
        p.push(10.0);
        assert_eq!(p.quantile(0.5), 10.0);
        p.push(0.0);
        p.push(20.0);
        assert_eq!(p.quantile(0.5), 10.0);
        assert_eq!(p.quantile(1.0), 20.0);
    }
}
