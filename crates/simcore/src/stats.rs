//! Online statistics: streaming mean/variance (Welford), P² streaming
//! quantiles, five-number boxplot summaries, and fixed-bin histograms.
//!
//! Everything here is O(1) memory per statistic (except the exact boxplot,
//! which keeps its samples) so recorders can be attached to hot simulation
//! loops without allocation churn.

/// The sum of `values`, starting from `+0.0`. `Iterator::sum` over `f64`
/// starts from `-0.0`, so an empty sum renders as `-0.0`; this one is `0.0`.
/// Any other sum is bit-identical, unless every term is `-0.0`.
pub fn sum(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(0.0, |acc, x| acc + x)
}

/// Streaming mean / variance / min / max via Welford's algorithm.
///
/// # Examples
///
/// ```
/// use xferopt_simcore::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// P² (Jain & Chlamtac) streaming quantile estimator: estimates one quantile
/// with five markers and O(1) memory.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights.
    heights: [f64; 5],
    /// Marker positions (1-based).
    pos: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments.
    incr: [f64; 5],
    n: u64,
    init: Vec<f64>,
}

impl P2Quantile {
    /// Estimator for quantile `q` in `(0, 1)`.
    ///
    /// # Panics
    /// Panics if `q` is not strictly between 0 and 1.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0,1), got {q}");
        P2Quantile {
            q,
            heights: [0.0; 5],
            pos: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            incr: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            n: 0,
            init: Vec::with_capacity(5),
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        if self.init.len() < 5 {
            self.init.push(x);
            if self.init.len() == 5 {
                self.init.sort_by(|a, b| a.partial_cmp(b).unwrap());
                for (h, v) in self.heights.iter_mut().zip(&self.init) {
                    *h = *v;
                }
            }
            return;
        }

        // Find cell k such that heights[k] <= x < heights[k+1].
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if self.heights[i] <= x && x < self.heights[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        for p in self.pos.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(&self.incr) {
            *d += inc;
        }

        // Adjust interior markers.
        for i in 1..4 {
            let d = self.desired[i] - self.pos[i];
            let right_gap = self.pos[i + 1] - self.pos[i];
            let left_gap = self.pos[i - 1] - self.pos[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let s = d.signum();
                let h = self.parabolic(i, s);
                let h = if self.heights[i - 1] < h && h < self.heights[i + 1] {
                    h
                } else {
                    self.linear(i, s)
                };
                self.heights[i] = h;
                self.pos[i] += s;
            }
        }
    }

    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let p = &self.pos;
        let h = &self.heights;
        h[i] + s / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + s) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - s) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = if s > 0.0 { i + 1 } else { i - 1 };
        self.heights[i] + s * (self.heights[j] - self.heights[i]) / (self.pos[j] - self.pos[i])
    }

    /// Current estimate. Falls back to the exact order statistic while fewer
    /// than five observations have been seen.
    pub fn estimate(&self) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        if self.init.len() < 5 && self.n <= 5 {
            let mut v = self.init.clone();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let idx = ((self.q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
            return v[idx];
        }
        self.heights[2]
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }
}

/// A five-number summary (plus mean) suitable for drawing a boxplot, computed
/// exactly from retained samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxplotStats {
    /// Minimum observation.
    pub min: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Maximum observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Number of observations.
    pub count: usize,
}

impl BoxplotStats {
    /// Compute the five-number summary from `samples`.
    ///
    /// Returns `None` when `samples` is empty. Quartiles use linear
    /// interpolation between order statistics (type-7, the default in R and
    /// NumPy).
    pub fn from_samples(samples: &[f64]) -> Option<BoxplotStats> {
        if samples.is_empty() {
            return None;
        }
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let quantile = |q: f64| -> f64 {
            if v.len() == 1 {
                return v[0];
            }
            let h = q * (v.len() - 1) as f64;
            let lo = h.floor() as usize;
            let hi = h.ceil() as usize;
            v[lo] + (h - lo as f64) * (v[hi] - v[lo])
        };
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        Some(BoxplotStats {
            min: v[0],
            q1: quantile(0.25),
            median: quantile(0.5),
            q3: quantile(0.75),
            max: *v.last().unwrap(),
            mean,
            count: v.len(),
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// A fixed-bin histogram over `[lo, hi)` with an overflow/underflow count.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// A histogram with `nbins` equal bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `nbins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(nbins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let frac = (x - self.lo) / (self.hi - self.lo);
            let idx = ((frac * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// The `[start, end)` value range covered by bin `i`.
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.138089935299395).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a.mean(), before.mean());
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty.mean(), before.mean());
        assert_eq!(empty.count(), 2);
    }

    #[test]
    fn p2_median_converges_on_uniform() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut q = P2Quantile::new(0.5);
        for _ in 0..50_000 {
            q.push(rng.gen_range(0.0..1.0));
        }
        assert!((q.estimate() - 0.5).abs() < 0.02, "est={}", q.estimate());
    }

    #[test]
    fn p2_p95_converges() {
        let mut rng = SmallRng::seed_from_u64(12);
        let mut q = P2Quantile::new(0.95);
        for _ in 0..50_000 {
            q.push(rng.gen_range(0.0..10.0));
        }
        assert!((q.estimate() - 9.5).abs() < 0.2, "est={}", q.estimate());
    }

    #[test]
    fn p2_small_sample_exact() {
        let mut q = P2Quantile::new(0.5);
        q.push(3.0);
        assert_eq!(q.estimate(), 3.0);
        q.push(1.0);
        q.push(2.0);
        // exact order statistic on 3 samples
        assert_eq!(q.estimate(), 2.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0,1)")]
    fn p2_rejects_bad_quantile() {
        P2Quantile::new(1.0);
    }

    #[test]
    fn boxplot_five_numbers() {
        let b = BoxplotStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.q3, 4.0);
        assert_eq!(b.mean, 3.0);
        assert_eq!(b.iqr(), 2.0);
        assert_eq!(b.count, 5);
    }

    #[test]
    fn boxplot_empty_and_singleton() {
        assert!(BoxplotStats::from_samples(&[]).is_none());
        let b = BoxplotStats::from_samples(&[7.0]).unwrap();
        assert_eq!(b.min, 7.0);
        assert_eq!(b.q1, 7.0);
        assert_eq!(b.max, 7.0);
    }

    #[test]
    fn boxplot_interpolates() {
        // quartiles of 1..=4 under type-7: q1 = 1.75, q3 = 3.25
        let b = BoxplotStats::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((b.q1 - 1.75).abs() < 1e-12);
        assert!((b.q3 - 3.25).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        h.push(-1.0);
        h.push(10.0);
        h.push(99.0);
        assert!(h.bins().iter().all(|&c| c == 1));
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 13);
        assert_eq!(h.bin_range(0), (0.0, 1.0));
        assert_eq!(h.bin_range(9), (9.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        Histogram::new(0.0, 1.0, 0);
    }
}
