//! Sampling distributions: empirical CDFs (flow sizes) and Zipf (service
//! popularity).

use sv2p_simcore::SimRng;

/// A piecewise-linear empirical CDF over flow sizes, in the format used by
/// the public DCTCP / HPCC workload files: (value, cumulative probability)
/// knots, interpolated linearly between knots.
#[derive(Debug, Clone)]
pub struct EmpiricalCdf {
    points: Vec<(f64, f64)>,
}

impl EmpiricalCdf {
    /// Builds from knots; they must be sorted in both coordinates, start at
    /// probability 0 and end at 1.
    pub fn new(points: &[(f64, f64)]) -> Self {
        assert!(points.len() >= 2, "need at least two knots");
        assert_eq!(points[0].1, 0.0, "CDF must start at 0");
        assert!(
            (points.last().unwrap().1 - 1.0).abs() < 1e-9,
            "CDF must end at 1"
        );
        for w in points.windows(2) {
            assert!(
                w[0].0 <= w[1].0 && w[0].1 <= w[1].1,
                "knots must be nondecreasing: {w:?}"
            );
        }
        EmpiricalCdf {
            points: points.to_vec(),
        }
    }

    /// The Facebook Hadoop flow-size CDF (Roy et al., SIGCOMM'15, as used by
    /// the HPCC evaluation): dominated by sub-10 kB flows with a tail to a
    /// few MB.
    pub fn facebook_hadoop() -> Self {
        EmpiricalCdf::new(&[
            (250.0, 0.0),
            (500.0, 0.15),
            (1_000.0, 0.35),
            (2_000.0, 0.50),
            (10_000.0, 0.70),
            (100_000.0, 0.90),
            (1_000_000.0, 0.97),
            (2_000_000.0, 1.0),
        ])
    }

    /// The DCTCP WebSearch flow-size CDF: "mostly comprised of heavy flows",
    /// bytes dominated by the multi-MB tail.
    pub fn dctcp_websearch() -> Self {
        EmpiricalCdf::new(&[
            (6_000.0, 0.0),
            (10_000.0, 0.15),
            (20_000.0, 0.20),
            (30_000.0, 0.30),
            (50_000.0, 0.40),
            (80_000.0, 0.53),
            (200_000.0, 0.60),
            (1_000_000.0, 0.70),
            (2_000_000.0, 0.80),
            (5_000_000.0, 0.90),
            (10_000_000.0, 0.97),
            (30_000_000.0, 1.0),
        ])
    }

    /// Alibaba microservice RPC sizes: small requests, few kB.
    pub fn alibaba_rpc() -> Self {
        EmpiricalCdf::new(&[
            (256.0, 0.0),
            (1_000.0, 0.40),
            (2_000.0, 0.70),
            (8_000.0, 0.90),
            (64_000.0, 0.99),
            (256_000.0, 1.0),
        ])
    }

    /// Inverse-CDF sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = rng.uniform();
        let mut iter = self.points.windows(2);
        for w in &mut iter {
            let (x0, p0) = w[0];
            let (x1, p1) = w[1];
            if u <= p1 {
                if p1 == p0 {
                    return x1;
                }
                return x0 + (x1 - x0) * (u - p0) / (p1 - p0);
            }
        }
        self.points.last().unwrap().0
    }

    /// Analytic mean of the piecewise-linear distribution.
    pub fn mean(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| {
                let (x0, p0) = w[0];
                let (x1, p1) = w[1];
                (p1 - p0) * (x0 + x1) / 2.0
            })
            .sum()
    }
}

/// Zipf-distributed ranks: `P(rank k) ∝ 1 / k^s` over `n` items.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative weights for inverse sampling.
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A Zipf law over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0);
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Samples a rank in `0..n` (0 = most popular).
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.uniform();
        self.cumulative.partition_point(|&c| c < u)
    }

    /// Fraction of probability mass held by the top `frac` of ranks.
    pub fn top_mass(&self, frac: f64) -> f64 {
        let k =
            ((self.cumulative.len() as f64 * frac).ceil() as usize).clamp(1, self.cumulative.len());
        self.cumulative[k - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_sample_within_support_and_mean_close() {
        let cdf = EmpiricalCdf::facebook_hadoop();
        let mut rng = SimRng::new(1);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = cdf.sample(&mut rng);
            assert!((250.0..=2_000_000.0).contains(&x), "{x}");
            sum += x;
        }
        let emp_mean = sum / n as f64;
        let mean = cdf.mean();
        assert!(
            (emp_mean - mean).abs() / mean < 0.05,
            "empirical {emp_mean} vs analytic {mean}"
        );
    }

    #[test]
    fn websearch_is_heavier_than_hadoop() {
        assert!(
            EmpiricalCdf::dctcp_websearch().mean() > 10.0 * EmpiricalCdf::facebook_hadoop().mean()
        );
    }

    #[test]
    #[should_panic(expected = "start at 0")]
    fn bad_cdf_is_rejected() {
        EmpiricalCdf::new(&[(1.0, 0.5), (2.0, 1.0)]);
    }

    #[test]
    fn zipf_concentrates_mass() {
        // Calibration target from the paper: ~95% of requests to 5% of
        // services.
        let z = Zipf::new(10_000, 1.32);
        let top5 = z.top_mass(0.05);
        assert!(top5 > 0.85, "top-5% mass only {top5}");
        // Sampling matches the analytic mass.
        let mut rng = SimRng::new(2);
        let n = 200_000;
        let hits = (0..n).filter(|_| z.sample(&mut rng) < 500).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - top5).abs() < 0.02, "sampled {frac} vs {top5}");
    }

    #[test]
    fn zipf_rank_zero_is_most_popular() {
        let z = Zipf::new(100, 1.0);
        let mut rng = SimRng::new(3);
        let mut counts = [0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[1] > counts[50]);
    }
}
