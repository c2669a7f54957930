//! The disk-to-disk transfer model: throughput as a function of
//! `(nc, np, pp)` over a heterogeneous file set.
//!
//! Time is accounted in two parts, following the pipelining analysis the
//! paper cites (Yildirim et al.):
//!
//! * **data time** — moving the bytes, bounded by whichever is slowest of
//!   the WAN (AIMD-derated saturating curve), the source and destination
//!   file systems (aggregate and per-stream), and the per-channel rate
//!   (a file is carved into at most `np` useful partitions, so small files
//!   cannot exploit parallelism);
//! * **overhead time** — per-file control-channel and open costs,
//!   `n_files · t_file`, divided across `nc` channels and hidden `pp`-deep
//!   by pipelining.
//!
//! Over-subscribing the file systems thrashes them (seek storms), and very
//! deep pipelines cost buffer memory — both modelled as mild multiplicative
//! penalties so the objective has the interior optimum the tuners hunt for.

use crate::disk::DiskModel;
use crate::filespec::Dataset;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use xferopt_simcore::rng::sample_lognormal_noise;
use xferopt_tuners::Point;

/// Tunable knobs of a disk-to-disk transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DiskParams {
    /// Concurrency: independent file channels.
    pub nc: u32,
    /// Parallelism: streams per file.
    pub np: u32,
    /// Pipelining: files in flight per channel.
    pub pp: u32,
}

/// A disk-to-disk transfer instance.
#[derive(Debug, Clone)]
pub struct DiskTransfer {
    dataset: Dataset,
    src: DiskModel,
    dst: DiskModel,
    /// WAN capacity in MB/s.
    pub net_capacity_mbs: f64,
    /// AIMD half-saturation stream count of the WAN.
    pub net_half_streams: f64,
    /// Per-TCP-stream WAN cap, MB/s.
    pub wan_per_stream_mbs: f64,
    /// Control-channel + negotiation cost per file, seconds.
    pub t_file_s: f64,
    /// Smallest useful per-stream partition of a file, MB.
    pub min_partition_mb: f64,
}

impl DiskTransfer {
    /// A transfer of `dataset` between two storage systems over a default
    /// 20 Gb/s WAN.
    pub fn new(dataset: Dataset, src: DiskModel, dst: DiskModel) -> Self {
        src.validate();
        dst.validate();
        DiskTransfer {
            dataset,
            src,
            dst,
            net_capacity_mbs: 2500.0,
            net_half_streams: 16.0,
            wan_per_stream_mbs: 150.0,
            t_file_s: 0.1,
            min_partition_mb: 8.0,
        }
    }

    /// The dataset being moved.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Effective parallelism a file of `size_mb` can exploit.
    fn effective_np(&self, np: u32, size_mb: f64) -> f64 {
        (np as f64).min((size_mb / self.min_partition_mb).max(1.0))
    }

    /// Deterministic throughput in MB/s for the whole dataset under
    /// `(nc, np, pp)`. Returns 0 for idle parameter settings or an empty
    /// dataset.
    pub fn throughput_mbs(&self, nc: u32, np: u32, pp: u32) -> f64 {
        if nc == 0 || np == 0 || pp == 0 || self.dataset.is_empty() {
            return 0.0;
        }
        let total_mb = self.dataset.total_mb();
        let n_streams = (nc * np) as f64;

        // Per-stream rate: slowest of WAN stream, source read, sink write.
        let stream_rate = self
            .wan_per_stream_mbs
            .min(self.src.per_stream_mbs)
            .min(self.dst.per_stream_mbs);

        // Per-channel data time: files served one at a time per channel,
        // each at effective_np × stream_rate.
        let per_channel_serial_s: f64 = self
            .dataset
            .files
            .iter()
            .map(|f| f.size_mb / (self.effective_np(np, f.size_mb) * stream_rate))
            .sum::<f64>()
            / nc as f64;

        // Aggregate bounds.
        let net_eff = self.net_capacity_mbs * n_streams / (n_streams + self.net_half_streams);
        let agg_rate = net_eff
            .min(self.src.rate_mbs(nc * np))
            .min(self.dst.rate_mbs(nc * np));
        let agg_time_s = total_mb / agg_rate;

        let data_time_s = per_channel_serial_s.max(agg_time_s);

        // Pipelined per-file overhead.
        let overhead_s = self.dataset.len() as f64 * self.t_file_s / (nc as f64 * pp as f64);

        // Mild penalties: seek-thrash past file-system saturation, buffer
        // pressure for very deep pipelines.
        let sat = self
            .src
            .saturation_streams()
            .min(self.dst.saturation_streams()) as f64;
        let thrash = 1.0 / (1.0 + 0.05 * (n_streams / sat - 1.0).max(0.0));
        let pipe_cost = 1.0 / (1.0 + 0.02 * (pp as f64 - 32.0).max(0.0));

        total_mb / (data_time_s + overhead_s) * thrash * pipe_cost
    }

    /// Total wall time in seconds at `(nc, np, pp)` (infinite when idle).
    pub fn total_time_s(&self, nc: u32, np: u32, pp: u32) -> f64 {
        let t = self.throughput_mbs(nc, np, pp);
        if t <= 0.0 {
            f64::INFINITY
        } else {
            self.dataset.total_mb() / t
        }
    }
}

/// A noisy black-box objective over `(nc, np, pp)` points, ready for the
/// direct-search tuners (online or via `xferopt_tuners::offline::maximize`).
#[derive(Debug)]
pub struct DiskTransferObjective {
    xfer: DiskTransfer,
    rng: SmallRng,
    noise_sigma: f64,
}

impl DiskTransferObjective {
    /// Wrap `xfer` with multiplicative lognormal measurement noise.
    pub fn new(xfer: DiskTransfer, seed: u64, noise_sigma: f64) -> Self {
        DiskTransferObjective {
            xfer,
            rng: SmallRng::seed_from_u64(seed),
            noise_sigma,
        }
    }

    /// The 3-D search domain the paper's knobs live in.
    pub fn domain() -> xferopt_tuners::Domain {
        xferopt_tuners::Domain::new(&[(1, 64), (1, 32), (1, 64)])
    }

    /// Evaluate a `[nc, np, pp]` point.
    ///
    /// # Panics
    /// Panics if the point is not 3-D.
    pub fn evaluate(&mut self, x: &Point) -> f64 {
        assert_eq!(x.len(), 3, "expected [nc, np, pp]");
        let noise = sample_lognormal_noise(&mut self.rng, self.noise_sigma);
        self.xfer
            .throughput_mbs(x[0].max(0) as u32, x[1].max(0) as u32, x[2].max(0) as u32)
            * noise
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filespec::{climate_dataset, hep_dataset};
    use xferopt_tuners::offline::maximize;
    use xferopt_tuners::{CompassTuner, NelderMeadTuner};

    fn climate() -> DiskTransfer {
        DiskTransfer::new(
            climate_dataset(1),
            DiskModel::parallel_fs(),
            DiskModel::parallel_fs(),
        )
    }

    fn hep() -> DiskTransfer {
        DiskTransfer::new(
            hep_dataset(1),
            DiskModel::parallel_fs(),
            DiskModel::parallel_fs(),
        )
    }

    #[test]
    fn idle_params_move_nothing() {
        let x = climate();
        assert_eq!(x.throughput_mbs(0, 1, 1), 0.0);
        assert_eq!(x.throughput_mbs(1, 0, 1), 0.0);
        assert_eq!(x.throughput_mbs(1, 1, 0), 0.0);
        assert!(x.total_time_s(0, 1, 1).is_infinite());
    }

    #[test]
    fn pipelining_rescues_small_file_datasets() {
        let x = climate();
        let shallow = x.throughput_mbs(4, 4, 1);
        let deep = x.throughput_mbs(4, 4, 16);
        assert!(
            deep > 1.3 * shallow,
            "2000 small files need pipelining: {shallow:.0} -> {deep:.0}"
        );
    }

    #[test]
    fn pipelining_is_irrelevant_for_huge_files() {
        let x = hep();
        let shallow = x.throughput_mbs(4, 8, 1);
        let deep = x.throughput_mbs(4, 8, 16);
        assert!(
            (deep - shallow).abs() < 0.05 * shallow,
            "200 huge files barely notice pp: {shallow:.0} vs {deep:.0}"
        );
    }

    #[test]
    fn parallelism_helps_huge_files_not_small_ones() {
        // Isolate the file-partitioning effect: make the WAN abundant so
        // neither case is network-aggregate-bound, and use genuinely tiny
        // files (4 MB < min_partition) for the small-file case.
        let abundant = |dataset: Dataset| {
            let mut x =
                DiskTransfer::new(dataset, DiskModel::parallel_fs(), DiskModel::parallel_fs());
            x.net_capacity_mbs = 50_000.0;
            x.net_half_streams = 0.01;
            x
        };
        let hep = abundant(hep_dataset(1));
        let hep_gain = hep.throughput_mbs(2, 8, 4) / hep.throughput_mbs(2, 1, 4);
        assert!(hep_gain > 3.0, "multi-GB files stripe well: {hep_gain:.1}x");

        let tiny = abundant(Dataset::generate(
            2000,
            crate::filespec::FileSizeDistribution::Fixed { size_mb: 4.0 },
            1,
        ));
        let tiny_gain = tiny.throughput_mbs(2, 8, 64) / tiny.throughput_mbs(2, 1, 64);
        assert!(
            tiny_gain < 1.2,
            "4 MB files cannot be partitioned into 8 streams: {tiny_gain:.2}x vs hep {hep_gain:.1}x"
        );
    }

    #[test]
    fn throughput_bounded_by_every_aggregate() {
        for x in [climate(), hep()] {
            for (nc, np, pp) in [(1, 1, 1), (8, 4, 8), (64, 32, 64)] {
                let t = x.throughput_mbs(nc, np, pp);
                assert!(t <= x.net_capacity_mbs + 1e-9);
                assert!(t <= DiskModel::parallel_fs().aggregate_mbs + 1e-9);
            }
        }
    }

    #[test]
    fn oversubscription_thrashes() {
        let x = hep();
        let moderate = x.throughput_mbs(8, 4, 4); // 32 streams ≈ saturation
        let extreme = x.throughput_mbs(64, 32, 4); // 2048 streams
        assert!(
            extreme < moderate,
            "seek thrash must bite: {moderate:.0} vs {extreme:.0}"
        );
    }

    #[test]
    fn archival_source_becomes_the_bottleneck() {
        let fast = DiskTransfer::new(
            hep_dataset(2),
            DiskModel::parallel_fs(),
            DiskModel::parallel_fs(),
        );
        let slow = DiskTransfer::new(
            hep_dataset(2),
            DiskModel::archival(),
            DiskModel::parallel_fs(),
        );
        assert!(slow.throughput_mbs(8, 4, 4) < 0.5 * fast.throughput_mbs(8, 4, 4));
    }

    #[test]
    fn tuners_find_good_disk_configs() {
        // The headline of the extension: the same direct-search tuners
        // optimize the 3-D disk objective without modification.
        let mut obj = DiskTransferObjective::new(climate(), 7, 0.0);
        let brute_best = {
            let mut best = 0.0f64;
            for nc in [1u32, 2, 4, 8, 16, 32] {
                for np in [1u32, 2, 4, 8] {
                    for pp in [1u32, 4, 16, 64] {
                        best = best.max(obj.evaluate(&vec![nc as i64, np as i64, pp as i64]));
                    }
                }
            }
            best
        };
        let mut cs = CompassTuner::new(DiskTransferObjective::domain(), vec![1, 1, 1], 8.0, 2.0);
        let r = maximize(&mut cs, 500, |x| obj.evaluate(x));
        assert!(
            r.best_value > 0.85 * brute_best,
            "compass: {:.0} vs brute {:.0} at {:?}",
            r.best_value,
            brute_best,
            r.best
        );
        let mut nm = NelderMeadTuner::new(DiskTransferObjective::domain(), vec![1, 1, 1], 2.0);
        let r = maximize(&mut nm, 500, |x| obj.evaluate(x));
        assert!(
            r.best_value > 0.75 * brute_best,
            "nelder-mead: {:.0} vs brute {:.0} at {:?}",
            r.best_value,
            brute_best,
            r.best
        );
    }

    #[test]
    fn objective_noise_is_deterministic_per_seed() {
        let mut a = DiskTransferObjective::new(climate(), 3, 0.1);
        let mut b = DiskTransferObjective::new(climate(), 3, 0.1);
        for x in [[2i64, 2, 2], [4, 4, 4], [8, 2, 16]] {
            assert_eq!(a.evaluate(&x.to_vec()), b.evaluate(&x.to_vec()));
        }
    }
}
