//! Summary statistics: an exact five-number boxplot summary, and a float
//! sum that starts from `+0.0`.

/// The sum of `values`, starting from `+0.0`. `Iterator::sum` over `f64`
/// starts from `-0.0`, so an empty sum renders as `-0.0`; this one is `0.0`.
/// Any other sum is bit-identical, unless every term is `-0.0`.
pub fn sum(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(0.0, |acc, x| acc + x)
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
