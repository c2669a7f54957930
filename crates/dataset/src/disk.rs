//! Parallel-file-system storage model.
//!
//! Three properties drive disk-to-disk behaviour (and motivated GridFTP's
//! concurrency/pipelining knobs in the first place):
//!
//! * **per-open latency** — every file costs a metadata round trip before a
//!   single byte moves; thousands of small files serialize on it unless
//!   requests are pipelined;
//! * **per-stream bandwidth** — one reader stream saturates one OST/disk
//!   stripe at a few hundred MB/s;
//! * **aggregate bandwidth** — the file system tops out at
//!   `stripes × per-stripe rate`, no matter how many readers pile on.

/// A storage endpoint model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Metadata + open cost per file, seconds.
    pub open_latency_s: f64,
    /// Sequential bandwidth of one reader/writer stream, MB/s.
    pub per_stream_mbs: f64,
    /// Aggregate ceiling of the file system, MB/s.
    pub aggregate_mbs: f64,
}

impl DiskModel {
    /// Validate invariants.
    ///
    /// # Panics
    /// Panics when any rate is non-positive or latency is negative.
    pub fn validate(&self) {
        assert!(
            self.open_latency_s >= 0.0,
            "open latency must be non-negative"
        );
        assert!(
            self.per_stream_mbs > 0.0,
            "per-stream rate must be positive"
        );
        assert!(
            self.aggregate_mbs >= self.per_stream_mbs,
            "aggregate must be at least one stream"
        );
    }

    /// A tuned parallel file system (Lustre/GPFS-class): 5 ms opens,
    /// 300 MB/s per stream, 6 GB/s aggregate.
    pub fn parallel_fs() -> Self {
        DiskModel {
            open_latency_s: 0.005,
            per_stream_mbs: 300.0,
            aggregate_mbs: 6000.0,
        }
    }

    /// A single local disk: fast opens, one fast stream, low ceiling.
    pub fn local_disk() -> Self {
        DiskModel {
            open_latency_s: 0.001,
            per_stream_mbs: 500.0,
            aggregate_mbs: 500.0,
        }
    }

    /// An overloaded/archival store: slow opens, slow streams.
    pub fn archival() -> Self {
        DiskModel {
            open_latency_s: 0.050,
            per_stream_mbs: 80.0,
            aggregate_mbs: 800.0,
        }
    }

    /// Sustained rate of `readers` concurrent streams, MB/s.
    pub fn rate_mbs(&self, readers: u32) -> f64 {
        if readers == 0 {
            return 0.0;
        }
        (readers as f64 * self.per_stream_mbs).min(self.aggregate_mbs)
    }

    /// Streams needed to saturate the aggregate.
    pub fn saturation_streams(&self) -> u32 {
        (self.aggregate_mbs / self.per_stream_mbs).ceil() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for m in [
            DiskModel::parallel_fs(),
            DiskModel::local_disk(),
            DiskModel::archival(),
        ] {
            m.validate();
        }
    }

    #[test]
    fn rate_scales_then_saturates() {
        let m = DiskModel::parallel_fs();
        assert_eq!(m.rate_mbs(0), 0.0);
        assert_eq!(m.rate_mbs(1), 300.0);
        assert_eq!(m.rate_mbs(10), 3000.0);
        assert_eq!(m.rate_mbs(100), 6000.0);
        assert_eq!(m.saturation_streams(), 20);
    }

    #[test]
    fn local_disk_saturates_at_one() {
        let m = DiskModel::local_disk();
        assert_eq!(m.rate_mbs(1), 500.0);
        assert_eq!(m.rate_mbs(8), 500.0);
        assert_eq!(m.saturation_streams(), 1);
    }

    #[test]
    #[should_panic(expected = "aggregate must be at least one stream")]
    fn inconsistent_rates_rejected() {
        DiskModel {
            open_latency_s: 0.0,
            per_stream_mbs: 100.0,
            aggregate_mbs: 50.0,
        }
        .validate();
    }
}
