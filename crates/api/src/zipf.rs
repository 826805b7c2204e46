//! Deterministic seeded Zipfian rank sampler.
//!
//! The benchmark's schedules (`benchmark/src/schedule.rs`) replay key
//! populations under realistic skew: a few hot layers absorb most of the
//! traffic, the tail is cold. This sampler draws ranks from a Zipf(s)
//! distribution over a fixed population using the same *stateless*
//! discipline as the `iconv-faults` decision streams: the `n`-th draw is a
//! pure function of `(seed, n)` via the splitmix64 finalizer, so a
//! schedule built from indexed draws is byte-identical for the same seed
//! **independent of thread interleaving** — exactly the property the
//! determinism tests pin.
//!
//! The PRNG primitives themselves ([`mix64`], [`unit_f64`],
//! [`GOLDEN_GAMMA`], [`XorShift64`]) are re-exported from `iconv-faults`
//! (a dependency-free leaf crate), so `iconv-api` stays std-only.

pub use iconv_faults::{mix64, unit_f64, XorShift64, GOLDEN_GAMMA};

/// A Zipf(s) sampler over ranks `0..n` with precomputed cumulative
/// weights: rank `r` has weight `1 / (r+1)^s`. `s = 0` degenerates to
/// uniform; `s ≈ 1` is the classic web-traffic skew.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    seed: u64,
}

impl ZipfSampler {
    /// Build a sampler over a population of `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative or non-finite.
    #[must_use]
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        assert!(n > 0, "Zipf population must be non-empty");
        assert!(
            s.is_finite() && s >= 0.0,
            "Zipf exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard the top against floating rounding: the last cumulative
        // weight must be exactly 1 so every draw lands in range.
        *cdf.last_mut().expect("non-empty") = 1.0;
        Self { cdf, seed }
    }

    /// Population size.
    #[must_use]
    pub fn population(&self) -> usize {
        self.cdf.len()
    }

    /// The seed this sampler draws under.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The `draw_index`-th rank of the stream: a pure function of
    /// `(seed, draw_index)`, O(log n), safe to evaluate from any thread in
    /// any order.
    #[must_use]
    pub fn rank_at(&self, draw_index: u64) -> usize {
        let u = unit_f64(mix64(self.seed ^ draw_index.wrapping_mul(GOLDEN_GAMMA)));
        let r = self.cdf.partition_point(|&c| c <= u);
        r.min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_in_range_and_deterministic() {
        let a = ZipfSampler::new(57, 1.1, 42);
        let b = ZipfSampler::new(57, 1.1, 42);
        for i in 0..10_000 {
            let r = a.rank_at(i);
            assert!(r < 57);
            assert_eq!(r, b.rank_at(i));
        }
    }

    #[test]
    fn skew_concentrates_mass_on_low_ranks() {
        let z = ZipfSampler::new(100, 1.1, 7);
        let n = 20_000u64;
        let head = (0..n).filter(|&i| z.rank_at(i) < 10).count();
        // Zipf(1.1) over 100 ranks puts ~65% of mass on the top 10.
        assert!(head as f64 > 0.5 * n as f64, "head draws {head}/{n}");
        // Uniform (s = 0) must not.
        let u = ZipfSampler::new(100, 0.0, 7);
        let uhead = (0..n).filter(|&i| u.rank_at(i) < 10).count();
        assert!((uhead as f64) < 0.2 * n as f64, "uniform head {uhead}/{n}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = ZipfSampler::new(64, 1.0, 1);
        let b = ZipfSampler::new(64, 1.0, 2);
        let same = (0..1000).filter(|&i| a.rank_at(i) == b.rank_at(i)).count();
        assert!(same < 900, "seeds produce near-identical streams: {same}");
    }
}
