//! Exact division by a divisor fixed at construction, with no hardware
//! divide.
//!
//! A 64-bit `div` costs tens of cycles, and a switch cache's line index
//! (`hash % lines`) divides by a number fixed when the cache was built.
//! [`Divisor`] keeps the reciprocal `m = ⌊(2^64 − 1) / d⌋` beside `d` and
//! estimates `n / d` as the high word of `n · m`, which is the quotient or
//! one less; one compare corrects it, and `n % d` is written as for a
//! `u64` divisor. Every quotient and remainder is the one `/` and `%`
//! give. (A VM's home host, `i / vms_per_server`, and a flow's gateway,
//! `hash % gateways`, divide by fixed numbers too, but read slower this
//! way in alternating benchmark pairs, so they keep the hardware divide.)
//!
//! Why one step suffices: `m · d ≥ 2^64 − d`, so
//! `n · m / 2^64 ≥ n / d − n / 2^64 > n / d − 1`, and `n · m / 2^64 ≤ n / d`.
//! The estimate `q̂` is therefore `⌊n / d⌋` or one below it, and
//! `n − q̂ · d` lies in `0 .. 2d`.

/// A non-zero divisor and its 64-bit reciprocal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divisor {
    d: u64,
    m: u64,
}

impl Divisor {
    /// Precomputes the reciprocal of `d`.
    ///
    /// Panics if `d` is 0.
    pub fn new(d: u64) -> Self {
        assert!(d > 0, "division by zero");
        Divisor { d, m: u64::MAX / d }
    }

    /// `(n / d, n % d)`.
    #[inline]
    fn div_rem(self, n: u64) -> (u64, u64) {
        let q = ((u128::from(n) * u128::from(self.m)) >> 64) as u64;
        let r = n - q * self.d;
        if r >= self.d {
            (q + 1, r - self.d)
        } else {
            (q, r)
        }
    }
}

/// `n % d`, exactly as the hardware divides.
impl std::ops::Rem<Divisor> for u64 {
    type Output = u64;

    #[inline]
    fn rem(self, d: Divisor) -> u64 {
        d.div_rem(self).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The divisors named by the argument's edges: 1, 2, 3, every power of
    /// two and its neighbours, and `u32::MAX`.
    fn edge_divisors() -> Vec<u64> {
        let mut ds = vec![1, 2, 3, u64::from(u32::MAX)];
        for k in 1..64 {
            let p = 1u64 << k;
            ds.extend([p - 1, p, p + 1]);
        }
        ds
    }

    /// The dividends named by the argument's edges for divisor `d`.
    fn edge_dividends(d: u64) -> [u64; 4] {
        [0, d - 1, d, u64::MAX]
    }

    fn check(d: u64, n: u64) {
        let div = Divisor::new(d);
        assert_eq!(div.div_rem(n), (n / d, n % d), "{n} / {d}");
        assert_eq!(n % div, n % d, "{n} % {d}");
    }

    #[test]
    fn edge_divisors_at_edge_dividends_match_the_hardware() {
        for d in edge_divisors() {
            for n in edge_dividends(d) {
                check(d, n);
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn a_zero_divisor_panics() {
        Divisor::new(0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn edge_divisors_match_the_hardware_on_random_dividends(
            i in any::<usize>(),
            n in any::<u64>(),
        ) {
            let ds = edge_divisors();
            check(ds[i % ds.len()], n);
        }

        #[test]
        fn random_divisors_match_the_hardware(
            d in 1u64..=u64::from(u32::MAX),
            n in any::<u64>(),
            near in any::<u32>(),
        ) {
            check(d, n);
            // Dividends either side of a random multiple of `d`.
            let k = n / d;
            check(d, (k * d).saturating_add(u64::from(near) % d));
            check(d, (k * d).saturating_sub(1));
        }

        #[test]
        fn any_u64_divisor_matches_the_hardware(d in 1u64..=u64::MAX, n in any::<u64>()) {
            check(d, n);
        }
    }
}
