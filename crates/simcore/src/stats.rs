//! Small statistics accumulators shared by the metrics layer and tests.

/// Streaming mean accumulator (Welford's update).
#[derive(Debug, Clone, Default)]
pub struct Running {
    n: u64,
    mean: f64,
}

impl Running {
    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
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

    /// Bytes the kept observations occupy.
    pub fn resident_bytes(&self) -> usize {
        self.samples.capacity() * size_of::<f64>()
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
    fn running_mean() {
        let mut r = Running::default();
        assert_eq!(r.mean(), 0.0);
        r.push(7.5);
        assert_eq!(r.mean(), 7.5);
        for x in [2.0, 4.0, 6.0] {
            r.push(x);
        }
        assert!((r.mean() - 4.875).abs() < 1e-12);
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
