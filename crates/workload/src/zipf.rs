//! Bradford/Zipf popularity sampling.
//!
//! The paper draws request targets from a "Bradford Zipf distribution"
//! with coefficient α (default 0.4 for the synthetics; Figure 2 fits
//! the real disk logs with α ≈ 0.43). Rank `i` (1-based) is requested
//! with probability proportional to `1 / i^α`; α = 0 degenerates to the
//! uniform distribution and larger α concentrates mass on few ranks.

use rand::Rng;

/// A sampler over ranks `0..n` with Zipf(α) popularity.
///
/// Construction is `O(n)`. Sampling is `O(1)` expected: a guide table
/// of `n` equal-width buckets over `[0, 1)` holds, per bucket, the
/// first rank whose CDF entry lies in that bucket or a later one, and
/// a short forward scan from there finds the rank (Chen and Asau's guide-table method). The
/// rank is exactly the one a binary search over the CDF returns.
///
/// # Example
///
/// ```
/// use forhdc_workload::ZipfSampler;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let z = ZipfSampler::new(1000, 0.8);
/// let mut rng = StdRng::seed_from_u64(1);
/// let first = z.sample(&mut rng);
/// assert!(first < 1000);
/// // Rank 0 is the most popular.
/// assert!(z.probability(0) > z.probability(999));
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    /// `guide[j]` is the first rank `i` with `bucket(cdf[i]) >= j`.
    guide: Vec<u32>,
    alpha: f64,
}

impl ZipfSampler {
    /// Creates a sampler over `n` ranks with coefficient `alpha ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `alpha` is negative or non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "alpha must be non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 1..=n {
            acc += (i as f64).powf(-alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // One sweep: both the bucket index and the rank only rise.
        let mut guide = Vec::with_capacity(n);
        let mut i = 0;
        for j in 0..n {
            while i + 1 < n && bucket(cdf[i], n) < j {
                i += 1;
            }
            guide.push(u32::try_from(i).expect("ranks fit u32"));
        }
        ZipfSampler { cdf, guide, alpha }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler is over zero ranks (never true — construction
    /// rejects `n = 0` — but provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The coefficient α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Probability of rank `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn probability(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }

    /// Accumulated probability of the `k` most popular ranks — the
    /// `z_α(H, N)` of section 5 (expected HDC hit rate for `H` pinned
    /// blocks). `k` larger than `n` saturates at 1.
    pub fn cumulative(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cdf[(k - 1).min(self.cdf.len() - 1)]
        }
    }

    /// Draws one rank (0-based; rank 0 is the most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank_of(rng.gen())
    }

    /// The rank a uniform draw `u` selects: the first rank whose
    /// cumulative probability reaches `u`, or the last rank if none
    /// does.
    ///
    /// Every rank before the answer has a CDF entry below `u`, so its
    /// bucket is at most `u`'s; the answer's entry is at least `u`, so
    /// its bucket is at least `u`'s. The guide entry of `u`'s bucket is
    /// therefore never past the answer, and the scan from it stops
    /// exactly there.
    pub fn rank_of(&self, u: f64) -> usize {
        let last = self.cdf.len() - 1;
        let mut i = self.guide[bucket(u, self.cdf.len())] as usize;
        while i < last && self.cdf[i] < u {
            i += 1;
        }
        i
    }
}

/// The guide bucket of `x` among `n`: `⌊x·n⌋`, clamped to `0..n`. It
/// never decreases as `x` grows, which is all [`ZipfSampler::rank_of`]
/// relies on.
fn bucket(x: f64, n: usize) -> usize {
    ((x * n as f64) as usize).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The binary search the guide table replaces.
    fn rank_by_search(z: &ZipfSampler, u: f64) -> usize {
        z.cdf.partition_point(|&c| c < u).min(z.cdf.len() - 1)
    }

    #[test]
    fn guide_table_matches_binary_search() {
        for n in [1usize, 2, 7, 1000, 70_000] {
            for alpha in [0.0, 0.4, 0.6, 1.5] {
                let z = ZipfSampler::new(n, alpha);
                let check = |u: f64| {
                    assert_eq!(
                        z.rank_of(u),
                        rank_by_search(&z, u),
                        "n {n}, alpha {alpha}, u {u:e}"
                    );
                };
                for &c in &z.cdf {
                    check(c.next_down());
                    check(c);
                    check(c.next_up());
                }
                for j in 0..=n {
                    let edge = j as f64 / n as f64;
                    check(edge.next_down());
                    check(edge);
                    check(edge.next_up());
                }
                check(0.0);
                check(1.0f64.next_down());
            }
        }
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let z = ZipfSampler::new(100, 0.0);
        for i in 0..100 {
            assert!((z.probability(i) - 0.01).abs() < 1e-12);
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        for alpha in [0.0, 0.4, 0.43, 1.0, 2.0] {
            let z = ZipfSampler::new(1000, alpha);
            let sum: f64 = (0..1000).map(|i| z.probability(i)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "alpha {alpha}: sum {sum}");
            assert!((z.cumulative(1000) - 1.0).abs() < 1e-12);
            assert!((z.cumulative(5000) - 1.0).abs() < 1e-12);
            assert_eq!(z.cumulative(0), 0.0);
        }
    }

    #[test]
    fn higher_alpha_concentrates_mass() {
        let lo = ZipfSampler::new(10_000, 0.2);
        let hi = ZipfSampler::new(10_000, 1.0);
        assert!(hi.cumulative(100) > lo.cumulative(100));
        assert!(hi.probability(0) > lo.probability(0));
    }

    #[test]
    fn empirical_frequencies_match() {
        let z = ZipfSampler::new(50, 0.8);
        let mut rng = StdRng::seed_from_u64(99);
        let mut counts = [0u32; 50];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for i in [0usize, 1, 10, 49] {
            let emp = counts[i] as f64 / n as f64;
            let exp = z.probability(i);
            assert!((emp - exp).abs() < 0.01, "rank {i}: {emp} vs {exp}");
        }
    }

    #[test]
    fn sample_is_deterministic_per_seed() {
        let z = ZipfSampler::new(500, 0.43);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn single_rank_always_sampled() {
        let z = ZipfSampler::new(1, 0.9);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
        assert_eq!(z.len(), 1);
        assert!(!z.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = ZipfSampler::new(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_alpha_panics() {
        let _ = ZipfSampler::new(10, -0.1);
    }
}
