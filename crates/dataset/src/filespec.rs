//! Synthetic datasets with realistic file-size distributions.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One file in a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct FileSpec {
    /// Name (unique within the dataset).
    pub name: String,
    /// Size in MB.
    pub size_mb: f64,
}

/// A file-size distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FileSizeDistribution {
    /// Every file the same size.
    Fixed {
        /// Size in MB.
        size_mb: f64,
    },
    /// Uniform on `[lo_mb, hi_mb)`.
    Uniform {
        /// Lower bound, MB.
        lo_mb: f64,
        /// Upper bound, MB.
        hi_mb: f64,
    },
    /// Lognormal: `exp(N(ln(median), sigma))` — the bulk shape of most
    /// science archives.
    Lognormal {
        /// Median size in MB.
        median_mb: f64,
        /// Log-scale standard deviation.
        sigma: f64,
    },
    /// Pareto heavy tail with minimum `scale_mb` and shape `alpha`.
    Pareto {
        /// Minimum size, MB.
        scale_mb: f64,
        /// Tail index (smaller = heavier tail). Must exceed 1 for a finite
        /// mean.
        alpha: f64,
    },
}

impl FileSizeDistribution {
    /// Draw one size in MB.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            FileSizeDistribution::Fixed { size_mb } => size_mb,
            FileSizeDistribution::Uniform { lo_mb, hi_mb } => rng.gen_range(lo_mb..hi_mb),
            FileSizeDistribution::Lognormal { median_mb, sigma } => {
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                median_mb * (sigma * z).exp()
            }
            FileSizeDistribution::Pareto { scale_mb, alpha } => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                scale_mb / u.powf(1.0 / alpha)
            }
        }
    }
}

/// A set of files to transfer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// The files.
    pub files: Vec<FileSpec>,
}

impl Dataset {
    /// Generate `n` files from `dist`, deterministically from `seed`.
    pub fn generate(n: usize, dist: FileSizeDistribution, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let files = (0..n)
            .map(|i| FileSpec {
                name: format!("file{i:06}"),
                size_mb: dist.sample(&mut rng).max(1e-6),
            })
            .collect();
        Dataset { files }
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when the dataset has no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total size in MB.
    pub fn total_mb(&self) -> f64 {
        xferopt_simcore::stats::sum(self.files.iter().map(|f| f.size_mb))
    }

    /// Mean file size in MB (0 for an empty dataset).
    pub fn mean_mb(&self) -> f64 {
        if self.files.is_empty() {
            0.0
        } else {
            self.total_mb() / self.files.len() as f64
        }
    }

    /// Largest file size in MB.
    pub fn max_mb(&self) -> f64 {
        self.files.iter().map(|f| f.size_mb).fold(0.0, f64::max)
    }

    /// Concatenate two datasets (file names re-labelled to stay unique).
    pub fn concat(mut self, other: Dataset) -> Dataset {
        let base = self.files.len();
        for (i, mut f) in other.files.into_iter().enumerate() {
            f.name = format!("file{:06}", base + i);
            self.files.push(f);
        }
        self
    }
}

/// A climate-archive-style dataset: thousands of small lognormal files
/// (median 30 MB) — the regime where pipelining dominates.
pub fn climate_dataset(seed: u64) -> Dataset {
    Dataset::generate(
        2000,
        FileSizeDistribution::Lognormal {
            median_mb: 30.0,
            sigma: 1.0,
        },
        seed,
    )
}

/// A HEP-style dataset: a few hundred multi-GB files with a Pareto tail —
/// the regime where per-file parallelism dominates.
pub fn hep_dataset(seed: u64) -> Dataset {
    Dataset::generate(
        200,
        FileSizeDistribution::Pareto {
            scale_mb: 2000.0,
            alpha: 1.8,
        },
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate(100, FileSizeDistribution::Fixed { size_mb: 10.0 }, 1);
        let b = Dataset::generate(100, FileSizeDistribution::Fixed { size_mb: 10.0 }, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert!((a.total_mb() - 1000.0).abs() < 1e-9);
        assert_eq!(a.mean_mb(), 10.0);
    }

    #[test]
    fn lognormal_median_lands() {
        let d = Dataset::generate(
            20_000,
            FileSizeDistribution::Lognormal {
                median_mb: 50.0,
                sigma: 0.8,
            },
            2,
        );
        let mut sizes: Vec<f64> = d.files.iter().map(|f| f.size_mb).collect();
        sizes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sizes[sizes.len() / 2];
        assert!((median - 50.0).abs() < 3.0, "median={median}");
    }

    #[test]
    fn pareto_respects_scale_and_tails() {
        let d = Dataset::generate(
            10_000,
            FileSizeDistribution::Pareto {
                scale_mb: 100.0,
                alpha: 2.0,
            },
            3,
        );
        assert!(d.files.iter().all(|f| f.size_mb >= 100.0));
        assert!(d.max_mb() > 500.0, "a heavy tail should produce outliers");
    }

    #[test]
    fn uniform_bounds() {
        let d = Dataset::generate(
            5000,
            FileSizeDistribution::Uniform {
                lo_mb: 1.0,
                hi_mb: 2.0,
            },
            4,
        );
        assert!(d.files.iter().all(|f| (1.0..2.0).contains(&f.size_mb)));
        assert!((d.mean_mb() - 1.5).abs() < 0.02);
    }

    #[test]
    fn presets_have_the_advertised_shapes() {
        let climate = climate_dataset(5);
        let hep = hep_dataset(5);
        assert!(climate.len() > 5 * hep.len(), "climate = many files");
        assert!(
            hep.mean_mb() > 20.0 * climate.mean_mb(),
            "hep = much larger files: {} vs {}",
            hep.mean_mb(),
            climate.mean_mb()
        );
    }

    #[test]
    fn concat_relabels_uniquely() {
        let a = Dataset::generate(3, FileSizeDistribution::Fixed { size_mb: 1.0 }, 1);
        let b = Dataset::generate(3, FileSizeDistribution::Fixed { size_mb: 2.0 }, 2);
        let c = a.concat(b);
        assert_eq!(c.len(), 6);
        let names: std::collections::HashSet<_> = c.files.iter().map(|f| &f.name).collect();
        assert_eq!(names.len(), 6);
        assert!((c.total_mb() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn empty_dataset_stats() {
        let d = Dataset::default();
        assert!(d.is_empty());
        assert_eq!(d.mean_mb(), 0.0);
        assert_eq!(d.max_mb(), 0.0);
    }
}
