//! A fixed-memory log-linear latency histogram.
//!
//! Values below [`SUB`] get a bucket each; above that, every power of
//! two is cut into [`SUB`] equal buckets, so no bucket is wider than
//! 1/128 (0.8 %) of its lower edge. Memory is fixed at construction and
//! does not grow with the number of samples, so a run's `rss_mb` does
//! not depend on its throughput.

/// Sub-buckets per power of two (and the exact-value range below it).
const SUB: u64 = 128;
const SUB_BITS: u32 = 7;
/// Largest power of two covered: values up to 2^48 ns (about 3 days).
const TOP_BITS: u32 = 48;
const BUCKETS: usize = ((TOP_BITS - SUB_BITS + 1) as u64 * SUB) as usize;

/// Percentiles tried, highest first, when asking which one a sample
/// supports.
const LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64]>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0u64; BUCKETS].into_boxed_slice(),
            n: 0,
        }
    }

    fn index(v: u64) -> usize {
        let v = v.min((1u64 << TOP_BITS) - 1);
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros(); // >= SUB_BITS
        let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
        ((e - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    /// `(lower edge, width)` of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, 1.0);
        }
        let e = (i / SUB - 1) as u32 + SUB_BITS;
        let sub = i % SUB;
        let width = 1u64 << (e - SUB_BITS);
        (((SUB + sub) * width) as f64, width as f64)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Hist::index(v)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `p`-th percentile (`0 < p < 100`), interpolated linearly
    /// inside its bucket; `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = p / 100.0 * self.n as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= rank {
                let (lo, width) = Hist::bounds(i);
                let frac = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo + frac * width);
            }
            below += c;
        }
        let last = self.counts.iter().rposition(|&c| c > 0)?;
        let (lo, width) = Hist::bounds(last);
        Some(lo + width)
    }

    /// The highest percentile of the ladder with at least `beyond`
    /// samples above it, or `None` if even the median lacks them.
    pub fn supported_percentile(&self, beyond: u64) -> Option<f64> {
        // The tolerance absorbs the rounding of `100 - p` (99.9 is not
        // exact in binary).
        LADDER
            .into_iter()
            .find(|p| self.n as f64 * (100.0 - p) / 100.0 + 1e-6 >= beyond as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Nearest-rank percentile of a sorted vector.
    fn exact(sorted: &[u64], p: f64) -> f64 {
        let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    #[test]
    fn buckets_are_at_most_one_percent_wide() {
        for i in SUB as usize..BUCKETS {
            let (lo, width) = Hist::bounds(i);
            assert!(width / lo <= 0.01, "bucket {i}: {width} over {lo}");
        }
    }

    #[test]
    fn index_and_bounds_agree() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            65_537,
            1 << 40,
            u64::MAX,
        ] {
            let i = Hist::index(v);
            let (lo, width) = Hist::bounds(i);
            let v = v.min((1u64 << TOP_BITS) - 1) as f64;
            assert!(
                lo <= v && v < lo + width,
                "{v} outside bucket {i} [{lo}, +{width})"
            );
        }
    }

    #[test]
    fn percentiles_match_sorted_vector_within_one_percent() {
        let mut rng = StdRng::seed_from_u64(7);
        for shape in 0..3 {
            let mut h = Hist::new();
            let mut all = Vec::new();
            for _ in 0..200_000 {
                let v = match shape {
                    0 => rng.gen_range(10_000u64..20_000),
                    1 => 1_000 + (rng.gen::<f64>().powi(8) * 5e6) as u64,
                    _ => rng.gen_range(50u64..400),
                };
                h.record(v);
                all.push(v);
            }
            all.sort_unstable();
            for p in [50.0, 90.0, 99.0, 99.9] {
                let want = exact(&all, p);
                let got = h.percentile(p).unwrap();
                assert!(
                    (got - want).abs() <= want * 0.01 + 1.0,
                    "shape {shape} p{p}: histogram {got}, sorted {want}"
                );
            }
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        let mut both = Hist::new();
        for v in 0..10_000u64 {
            let x = v * 37 % 9_973 + 100;
            if v % 3 == 0 { &mut a } else { &mut b }.record(x);
            both.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.percentile(99.0), both.percentile(99.0));
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        let mut h = Hist::new();
        assert_eq!(h.supported_percentile(10), None);
        for v in 0..1_000 {
            h.record(v);
        }
        assert_eq!(h.supported_percentile(10), Some(99.0));
        for v in 0..9_000 {
            h.record(v);
        }
        assert_eq!(h.supported_percentile(10), Some(99.9));
        assert!(Hist::new().percentile(50.0).is_none());
    }
}
