//! Epoch reports and whole-transfer logs.

use crate::params::StreamParams;
use xferopt_simcore::{SimDuration, SimTime, StepSeries, TimeSeries};

/// What one control epoch achieved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochReport {
    /// Parameters in force during the epoch.
    pub params: StreamParams,
    /// Epoch start time.
    pub start: SimTime,
    /// Epoch duration.
    pub duration: SimDuration,
    /// Megabytes moved during the epoch.
    pub bytes_mb: f64,
    /// Restart downtime paid at the start of the epoch, seconds.
    pub startup_s: f64,
    /// Observed throughput: bytes over the whole epoch (the paper's Fig. 5
    /// metric, *with* overhead).
    pub observed_mbs: f64,
    /// Best-case throughput: bytes over up-time only (the paper's Fig. 7
    /// metric, *without* restart overhead).
    pub bestcase_mbs: f64,
}

impl EpochReport {
    /// Fraction of the epoch lost to restart, in `[0, 1]`.
    pub fn overhead_fraction(&self) -> f64 {
        let e = self.duration.as_secs_f64();
        if e <= 0.0 {
            return 0.0;
        }
        (self.startup_s / e).clamp(0.0, 1.0)
    }
}

/// The full history of one tuned transfer: throughput and parameter
/// trajectories, ready to render the paper's Figs. 5, 6, 7, 8.
#[derive(Debug, Clone, Default)]
pub struct TransferLog {
    /// Observed throughput at each epoch end (MB/s).
    pub observed: TimeSeries,
    /// Best-case throughput at each epoch end (MB/s).
    pub bestcase: TimeSeries,
    /// Concurrency over time.
    pub nc: StepSeries,
    /// Parallelism over time.
    pub np: StepSeries,
    /// Every epoch report in order.
    pub epochs: Vec<EpochReport>,
}

impl TransferLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one finished epoch.
    pub fn push(&mut self, r: EpochReport) {
        let end = r.start + r.duration;
        self.observed.push(end, r.observed_mbs);
        self.bestcase.push(end, r.bestcase_mbs);
        self.nc.set(r.start, r.params.nc as f64);
        self.np.set(r.start, r.params.np as f64);
        self.epochs.push(r);
    }

    /// Total megabytes moved.
    pub fn total_mb(&self) -> f64 {
        xferopt_simcore::stats::sum(self.epochs.iter().map(|e| e.bytes_mb))
    }

    /// Time-averaged observed throughput over the whole run (MB/s).
    pub fn mean_observed_mbs(&self) -> f64 {
        let span: f64 = self.epochs.iter().map(|e| e.duration.as_secs_f64()).sum();
        if span <= 0.0 {
            0.0
        } else {
            self.total_mb() / span
        }
    }

    /// Mean observed throughput over epochs whose *end* falls in
    /// `[from, to)` seconds — used for steady-state windows in the figures.
    pub fn mean_observed_between(&self, from_s: f64, to_s: f64) -> Option<f64> {
        self.observed
            .mean_between(SimTime::from_secs_f64(from_s), SimTime::from_secs_f64(to_s))
    }

    /// Mean best-case throughput over epochs ending in `[from, to)` seconds.
    pub fn mean_bestcase_between(&self, from_s: f64, to_s: f64) -> Option<f64> {
        self.bestcase
            .mean_between(SimTime::from_secs_f64(from_s), SimTime::from_secs_f64(to_s))
    }

    /// The last concurrency value adopted.
    pub fn final_nc(&self) -> Option<u32> {
        self.epochs.last().map(|e| e.params.nc)
    }

    /// The last parallelism value adopted.
    pub fn final_np(&self) -> Option<u32> {
        self.epochs.last().map(|e| e.params.np)
    }

    /// Mean restart-overhead fraction across epochs.
    pub fn mean_overhead_fraction(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.epochs
            .iter()
            .map(EpochReport::overhead_fraction)
            .sum::<f64>()
            / self.epochs.len() as f64
    }

    /// Serialize the epoch history as CSV (one row per epoch).
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("start_s,duration_s,nc,np,bytes_mb,startup_s,observed_mbs,bestcase_mbs\n");
        for e in &self.epochs {
            out.push_str(&format!(
                "{:.3},{:.3},{},{},{:.6},{:.6},{:.6},{:.6}\n",
                e.start.as_secs_f64(),
                e.duration.as_secs_f64(),
                e.params.nc,
                e.params.np,
                e.bytes_mb,
                e.startup_s,
                e.observed_mbs,
                e.bestcase_mbs
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(start_s: i64, dur_s: i64, nc: u32, mbs: f64, startup: f64) -> EpochReport {
        let duration = SimDuration::from_secs(dur_s);
        let up = dur_s as f64 - startup;
        EpochReport {
            params: StreamParams::new(nc, 8),
            start: SimTime::from_secs(start_s),
            duration,
            bytes_mb: mbs * dur_s as f64,
            startup_s: startup,
            observed_mbs: mbs,
            bestcase_mbs: if up > 0.0 {
                mbs * dur_s as f64 / up
            } else {
                0.0
            },
        }
    }

    #[test]
    fn log_accumulates() {
        let mut log = TransferLog::new();
        log.push(report(0, 30, 2, 1000.0, 5.0));
        log.push(report(30, 30, 3, 2000.0, 5.0));
        assert_eq!(log.epochs.len(), 2);
        assert!((log.total_mb() - 90_000.0).abs() < 1e-9);
        assert!((log.mean_observed_mbs() - 1500.0).abs() < 1e-9);
        assert_eq!(log.final_nc(), Some(3));
        assert_eq!(log.final_np(), Some(8));
    }

    #[test]
    fn windows_select_epoch_ends() {
        let mut log = TransferLog::new();
        log.push(report(0, 30, 2, 1000.0, 0.0));
        log.push(report(30, 30, 2, 3000.0, 0.0));
        // Epoch ends at 30 and 60.
        assert_eq!(log.mean_observed_between(0.0, 31.0), Some(1000.0));
        assert_eq!(log.mean_observed_between(0.0, 61.0), Some(2000.0));
        assert_eq!(log.mean_observed_between(100.0, 200.0), None);
    }

    #[test]
    fn overhead_fraction() {
        let r = report(0, 30, 2, 1000.0, 6.0);
        assert!((r.overhead_fraction() - 0.2).abs() < 1e-12);
        let mut log = TransferLog::new();
        log.push(r);
        log.push(report(30, 30, 2, 1000.0, 0.0));
        assert!((log.mean_overhead_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn bestcase_exceeds_observed_with_overhead() {
        let r = report(0, 30, 2, 1000.0, 5.0);
        assert!(r.bestcase_mbs > r.observed_mbs);
    }

    #[test]
    fn empty_log_defaults() {
        let log = TransferLog::new();
        assert_eq!(log.total_mb(), 0.0);
        assert_eq!(log.mean_observed_mbs(), 0.0);
        assert_eq!(log.final_nc(), None);
        assert_eq!(log.mean_overhead_fraction(), 0.0);
    }

    #[test]
    fn csv_round_trips() {
        let mut log = TransferLog::new();
        log.push(report(0, 30, 2, 1234.5, 4.9));
        log.push(report(30, 30, 7, 3210.0, 5.1));
        assert_eq!(
            log.to_csv(),
            "start_s,duration_s,nc,np,bytes_mb,startup_s,observed_mbs,bestcase_mbs\n\
             0.000,30.000,2,8,37035.000000,4.900000,1234.500000,1475.498008\n\
             30.000,30.000,7,8,96300.000000,5.100000,3210.000000,3867.469880\n"
        );
        assert_eq!(TransferLog::new().to_csv().lines().count(), 1);
    }
}
