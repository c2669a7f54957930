//! The online tuning driver: the paper's `runTransfer` control loop.
//!
//! Every control epoch (30 s in the paper) the driver:
//! 1. asks the tuner for the next `(nc, np)` point,
//! 2. restarts the transfer with those parameters (the adaptive tuners
//!    restart `globus-url-copy` every epoch; `default` never restarts),
//! 3. integrates the world for one epoch — applying any external-load
//!    schedule changes at their exact times —
//! 4. reports the observed throughput back to the tuner.
//!
//! [`MultiDriver`] drives several tuned transfers sharing one world with
//! aligned epochs, for the paper's Fig. 11 simultaneous-tuning experiment.

use crate::load::LoadSchedule;
use crate::topology::{PaperWorld, Route};
use xferopt_simcore::{FaultPlan, MetricsSnapshot, SimDuration};
use xferopt_transfer::{
    StreamParams, TransferConfig, TransferId, TransferLog, World, WorldTelemetry,
};
use xferopt_tuners::{Domain, OnlineTuner, Point, TunerKind};

/// Which parameters are tuned, and how points map to [`StreamParams`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuneDims {
    /// Tune concurrency only, parallelism fixed (the paper's Section IV-A:
    /// `np = 8`).
    NcOnly {
        /// The fixed parallelism value.
        np: u32,
    },
    /// Tune concurrency and parallelism together (Section IV-B).
    NcNp,
}

impl TuneDims {
    /// The search domain for these dimensions.
    pub fn domain(&self) -> Domain {
        match self {
            TuneDims::NcOnly { .. } => Domain::paper_nc(),
            TuneDims::NcNp => Domain::paper_nc_np(),
        }
    }

    /// Map a search point to stream parameters.
    ///
    /// # Panics
    /// Panics if the point dimension does not match.
    pub fn to_params(&self, x: &Point) -> StreamParams {
        match self {
            TuneDims::NcOnly { np } => {
                assert_eq!(x.len(), 1, "NcOnly expects a 1-D point");
                StreamParams::new(x[0].max(1) as u32, *np)
            }
            TuneDims::NcNp => {
                assert_eq!(x.len(), 2, "NcNp expects a 2-D point");
                StreamParams::new(x[0].max(1) as u32, x[1].max(1) as u32)
            }
        }
    }

    /// Map stream parameters to a search point.
    pub fn to_point(&self, p: StreamParams) -> Point {
        match self {
            TuneDims::NcOnly { .. } => vec![p.nc as i64],
            TuneDims::NcNp => vec![p.nc as i64, p.np as i64],
        }
    }
}

/// Most control epochs (`duration_s / epoch_s`) one driven transfer may
/// run: over 1600x the paper's 60. Every epoch is simulated and logged, so
/// a duration of 1e300 s would otherwise run for ever or abort allocating
/// the log.
pub const MAX_EPOCHS: u64 = 100_000;

/// Configuration of one driven transfer scenario.
#[derive(Debug, Clone)]
pub struct DriveConfig {
    /// WAN route of the tuned transfer.
    pub route: Route,
    /// Tuner strategy.
    pub tuner: TunerKind,
    /// Tuned dimensions.
    pub dims: TuneDims,
    /// External load on the source over time.
    pub schedule: LoadSchedule,
    /// Total transfer time in seconds (the paper uses 1800 s).
    pub duration_s: f64,
    /// Control epoch length in seconds (the paper uses 30 s).
    pub epoch_s: f64,
    /// Root seed (world noise + tuner randomization).
    pub seed: u64,
    /// Starting parameters (the Globus default in the figures).
    pub x0: StreamParams,
    /// Throughput noise log-std (0 = deterministic fluid model).
    pub noise_sigma: f64,
    /// Optional deterministic fault plan injected into the world (see
    /// [`crate::faults::FaultProfile`]). `None` leaves the world fault-free
    /// and bit-identical to pre-fault-layer runs.
    pub faults: Option<FaultPlan>,
}

impl DriveConfig {
    /// The paper's standard setup: 1800 s, 30 s epochs, Globus-default start,
    /// mild noise.
    pub fn paper(route: Route, tuner: TunerKind, dims: TuneDims, schedule: LoadSchedule) -> Self {
        DriveConfig {
            route,
            tuner,
            dims,
            schedule,
            duration_s: 1800.0,
            epoch_s: 30.0,
            seed: 0,
            x0: StreamParams::globus_default(),
            noise_sigma: 0.05,
            faults: None,
        }
    }

    /// Refuse a run of more than [`MAX_EPOCHS`] control epochs.
    ///
    /// # Errors
    /// A message naming the epoch count and the cap.
    pub fn check_epochs(&self) -> Result<(), String> {
        let epochs = (self.duration_s / self.epoch_s).round();
        if epochs > MAX_EPOCHS as f64 {
            return Err(format!(
                "duration {:?} s / epoch {:?} s is {epochs:e} control epochs, over the cap of {MAX_EPOCHS}",
                self.duration_s, self.epoch_s
            ));
        }
        Ok(())
    }

    /// Refuse a fixed `np` whose product with the domain's largest `nc`
    /// overflows the `u32` stream count `nc × np`.
    ///
    /// # Errors
    /// A message naming `np` and the largest `nc`.
    pub fn check_streams(&self) -> Result<(), String> {
        let TuneDims::NcOnly { np } = self.dims else {
            return Ok(());
        };
        let top = self.dims.domain().hi()[0];
        match u32::try_from(top).ok().and_then(|nc| nc.checked_mul(np)) {
            Some(_) => Ok(()),
            None => Err(format!(
                "np {np} overflows the stream count at the largest nc={top}"
            )),
        }
    }

    /// Inject a fault plan (see [`crate::faults::FaultProfile::plan`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the duration.
    pub fn with_duration_s(mut self, duration_s: f64) -> Self {
        assert!(duration_s > 0.0, "duration must be positive");
        self.duration_s = duration_s;
        self
    }

    /// Replace the noise level.
    pub fn with_noise_sigma(mut self, sigma: f64) -> Self {
        self.noise_sigma = sigma;
        self
    }
}

/// Apply an external load value to the world (compute hogs + the external
/// transfer's stream count).
fn apply_load(
    world: &mut World,
    source: xferopt_transfer::HostId,
    ext: TransferId,
    load: crate::load::ExternalLoad,
) {
    world.set_compute_jobs(source, load.cmp);
    world.set_params(ext, StreamParams::new(load.tfr, 1), false);
}

/// Step the world from its current time for `dur_s` seconds, applying
/// schedule changes at their exact instants.
pub(crate) fn step_through(
    world: &mut World,
    source: xferopt_transfer::HostId,
    ext: TransferId,
    schedule: &LoadSchedule,
    dur_s: f64,
) {
    let from = world.now().as_secs_f64();
    let to = from + dur_s;
    let mut cursor = from;
    for change in schedule.changes_between(from, to) {
        let piece = change - cursor;
        if piece > 0.0 {
            world.step(SimDuration::from_secs_f64(piece));
        }
        apply_load(world, source, ext, schedule.load_at(change));
        cursor = change;
    }
    if to > cursor {
        world.step(SimDuration::from_secs_f64(to - cursor));
    }
}

/// Run one tuned transfer to completion and return its full log.
pub fn drive_transfer(cfg: &DriveConfig) -> TransferLog {
    drive(cfg, false).0
}

/// The control loop behind [`drive_transfer`] and
/// [`crate::telemetry::drive_transfer_with_telemetry`]. With `record`, the
/// world's flight recorder is switched on (it is observational) and returned
/// with the log: the recorder and metrics of [`drive_tuner`], and the
/// tuner's decision records, which it always keeps, as JSONL.
pub(crate) fn drive(
    cfg: &DriveConfig,
    record: bool,
) -> (
    TransferLog,
    Option<(WorldTelemetry, MetricsSnapshot, String)>,
) {
    let mut tuner = cfg
        .tuner
        .build(cfg.dims.domain(), cfg.dims.to_point(cfg.x0));
    let (log, _, tel) = drive_tuner(cfg, tuner.as_mut(), record);
    let recording = tel.map(|(tel, snapshot)| {
        let decisions = tuner
            .audit_log()
            .map(|l| l.to_jsonl(None))
            .unwrap_or_default();
        (tel, snapshot, decisions)
    });
    (log, recording)
}

/// Run one tuned transfer under a tuner the caller built (one that carries
/// stored samples, say) and return its log and the megabytes it moved.
/// `tuner` stands in for `cfg.tuner`, which still decides whether epochs
/// restart the transfer. With `record`, the world's flight recorder is on
/// and is returned too, with the metrics derived from its rows and from the
/// network right after the last epoch closes.
pub fn drive_tuner(
    cfg: &DriveConfig,
    tuner: &mut dyn OnlineTuner,
    record: bool,
) -> (TransferLog, f64, Option<(WorldTelemetry, MetricsSnapshot)>) {
    let mut pw = PaperWorld::new(cfg.seed);
    let source = pw.source;
    // External transfer rides the same route, as in the paper's setup.
    let ext_cfg = TransferConfig::memory_to_memory(source, pw.path(cfg.route))
        .with_params(StreamParams::new(cfg.schedule.load_at(0.0).tfr, 1))
        .with_noise(cfg.noise_sigma, 45.0);
    let ext = pw.world.add_transfer(ext_cfg);
    pw.world
        .set_compute_jobs(source, cfg.schedule.load_at(0.0).cmp);

    let main_cfg = TransferConfig::memory_to_memory(source, pw.path(cfg.route))
        .with_params(cfg.x0)
        .with_noise(cfg.noise_sigma, 45.0);
    let tid = pw.world.add_transfer(main_cfg);
    if let Some(plan) = &cfg.faults {
        pw.world.enable_faults(plan.clone());
    }
    if record {
        pw.world.enable_telemetry();
    }
    let restarts = cfg.tuner != TunerKind::Default;

    let mut log = TransferLog::new();
    let mut x = tuner.initial();
    let epochs = (cfg.duration_s / cfg.epoch_s).round() as usize;
    for _ in 0..epochs {
        let params = cfg.dims.to_params(&x);
        let es = pw.world.begin_epoch(tid, params, restarts);
        step_through(&mut pw.world, source, ext, &cfg.schedule, cfg.epoch_s);
        let r = pw.world.end_epoch(es);
        log.push(r);
        x = tuner.observe(&x, r.observed_mbs);
    }
    let moved_mb = pw.world.moved_mb(tid);
    let snapshot = pw.world.metrics_snapshot();
    let recording = pw.world.take_telemetry().zip(snapshot);
    (log, moved_mb, recording)
}

/// One transfer's spec in a simultaneous-tuning run.
#[derive(Debug, Clone)]
pub struct MultiSpec {
    /// WAN route.
    pub route: Route,
    /// Tuner strategy.
    pub tuner: TunerKind,
    /// Tuned dimensions.
    pub dims: TuneDims,
    /// Starting parameters.
    pub x0: StreamParams,
}

/// Drives several tuned transfers sharing one world with aligned control
/// epochs (each tuner is blind to the others — they see each other only as
/// external load, as in the paper's Fig. 11).
pub struct MultiDriver {
    pw: PaperWorld,
    ext: TransferId,
    schedule: LoadSchedule,
    transfers: Vec<(TransferId, Box<dyn OnlineTuner + Send>, TuneDims, bool)>,
    points: Vec<Point>,
    epoch_s: f64,
}

impl MultiDriver {
    /// Build a multi-transfer driver.
    pub fn new(specs: &[MultiSpec], schedule: LoadSchedule, epoch_s: f64, seed: u64) -> Self {
        assert!(!specs.is_empty(), "need at least one transfer");
        assert!(epoch_s > 0.0, "epoch must be positive");
        let mut pw = PaperWorld::new(seed);
        let source = pw.source;
        let ext_cfg = TransferConfig::memory_to_memory(source, pw.path_uchicago)
            .with_params(StreamParams::new(schedule.load_at(0.0).tfr, 1))
            .with_noise(0.05, 45.0);
        let ext = pw.world.add_transfer(ext_cfg);
        pw.world.set_compute_jobs(source, schedule.load_at(0.0).cmp);

        let mut transfers = Vec::new();
        let mut points = Vec::new();
        for spec in specs {
            let cfg = TransferConfig::memory_to_memory(source, pw.path(spec.route))
                .with_params(spec.x0)
                .with_noise(0.05, 45.0);
            let tid = pw.world.add_transfer(cfg);
            let tuner = spec
                .tuner
                .build(spec.dims.domain(), spec.dims.to_point(spec.x0));
            points.push(tuner.initial());
            let restarts = spec.tuner != TunerKind::Default;
            transfers.push((tid, tuner, spec.dims, restarts));
        }
        MultiDriver {
            pw,
            ext,
            schedule,
            transfers,
            points,
            epoch_s,
        }
    }

    /// Run for `duration_s` seconds with aligned epochs; returns one log per
    /// transfer, in spec order.
    pub fn run(self, duration_s: f64) -> Vec<TransferLog> {
        let n = self.transfers.len();
        self.run_staggered(duration_s, &vec![0.0; n])
    }

    /// Run with per-transfer epoch phase offsets (seconds). The paper
    /// speculates that the Fig. 11 asymmetry may stem from "the temporal
    /// ordering of control epochs"; offsetting the second tuner by half an
    /// epoch exercises exactly that.
    ///
    /// # Panics
    /// Panics if `offsets` is not one non-negative offset (< epoch) per
    /// transfer.
    pub fn run_staggered(mut self, duration_s: f64, offsets: &[f64]) -> Vec<TransferLog> {
        assert_eq!(
            offsets.len(),
            self.transfers.len(),
            "one offset per transfer"
        );
        assert!(
            offsets.iter().all(|&o| (0.0..self.epoch_s).contains(&o)),
            "offsets must be in [0, epoch)"
        );
        let mut logs: Vec<TransferLog> = (0..self.transfers.len())
            .map(|_| TransferLog::new())
            .collect();
        let source = self.pw.source;

        // Event list: each transfer's epoch boundaries, merged in time.
        // At each boundary: close the transfer's epoch (if one is open),
        // let its tuner decide, open the next.
        let mut open: Vec<Option<xferopt_transfer::EpochStart>> = vec![None; self.transfers.len()];
        let mut boundaries: Vec<(f64, usize)> = Vec::new();
        for (i, &off) in offsets.iter().enumerate() {
            let mut t = off;
            while t < duration_s {
                boundaries.push((t, i));
                t += self.epoch_s;
            }
        }
        boundaries.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));

        for (t, i) in boundaries {
            // Advance the world to this boundary.
            let now = self.pw.world.now().as_secs_f64();
            if t > now {
                step_through(
                    &mut self.pw.world,
                    source,
                    self.ext,
                    &self.schedule,
                    t - now,
                );
            }
            let (tid, tuner, dims, restarts) = &mut self.transfers[i];
            if let Some(es) = open[i].take() {
                let r = self.pw.world.end_epoch(es);
                logs[i].push(r);
                self.points[i] = tuner.observe(&self.points[i].clone(), r.observed_mbs);
            }
            let params = dims.to_params(&self.points[i]);
            open[i] = Some(self.pw.world.begin_epoch(*tid, params, *restarts));
        }
        // Close the final epochs at the horizon.
        let now = self.pw.world.now().as_secs_f64();
        if duration_s > now {
            step_through(
                &mut self.pw.world,
                source,
                self.ext,
                &self.schedule,
                duration_s - now,
            );
        }
        for (i, es) in open.into_iter().enumerate() {
            if let Some(es) = es {
                let r = self.pw.world.end_epoch(es);
                logs[i].push(r);
            }
        }
        logs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::ExternalLoad;

    fn quiet(route: Route, tuner: TunerKind, load: ExternalLoad) -> DriveConfig {
        DriveConfig::paper(
            route,
            tuner,
            TuneDims::NcOnly { np: 8 },
            LoadSchedule::constant(load),
        )
        .with_noise_sigma(0.0)
        .with_duration_s(1800.0)
    }

    #[test]
    fn default_holds_globus_params() {
        let log = drive_transfer(&quiet(
            Route::UChicago,
            TunerKind::Default,
            ExternalLoad::NONE,
        ));
        assert_eq!(log.epochs.len(), 60);
        assert!(log
            .epochs
            .iter()
            .all(|e| e.params == StreamParams::new(2, 8)));
        let steady = log.mean_observed_between(600.0, 1800.0).unwrap();
        assert!((2200.0..2700.0).contains(&steady), "steady={steady}");
    }

    #[test]
    fn tuners_beat_default_without_load() {
        // Paper Fig. 5a: tuners reach ~3500 vs default ~2500 (1.4x).
        let default = drive_transfer(&quiet(
            Route::UChicago,
            TunerKind::Default,
            ExternalLoad::NONE,
        ));
        let d = default.mean_observed_between(900.0, 1800.0).unwrap();
        for kind in [TunerKind::Cd, TunerKind::Cs, TunerKind::Nm] {
            let log = drive_transfer(&quiet(Route::UChicago, kind, ExternalLoad::NONE));
            let t = log.mean_observed_between(900.0, 1800.0).unwrap();
            assert!(
                t > 1.15 * d,
                "{} should beat default by >15% (paper: 1.4x): {t} vs {d}",
                kind.name()
            );
        }
    }

    #[test]
    fn tuners_shine_under_compute_load() {
        // Paper Fig. 5b: cs/nm reach ~1500 vs default ~200 under cmp=16.
        let load = ExternalLoad::new(0, 16);
        let default = drive_transfer(&quiet(Route::UChicago, TunerKind::Default, load));
        let d = default.mean_observed_between(900.0, 1800.0).unwrap();
        for kind in [TunerKind::Cs, TunerKind::Nm] {
            let log = drive_transfer(&quiet(Route::UChicago, kind, load));
            let t = log.mean_observed_between(900.0, 1800.0).unwrap();
            assert!(
                t > 3.0 * d,
                "{}: paper reports ~7x; need at least 3x: {t} vs {d}",
                kind.name()
            );
        }
    }

    #[test]
    fn adapted_nc_rises_under_compute_load() {
        // Paper Fig. 6b: cs/nm adopt nc ≈ 50-80 under cmp=16.
        let load = ExternalLoad::new(0, 16);
        let log = drive_transfer(&quiet(Route::UChicago, TunerKind::Nm, load));
        let final_nc = log.final_nc().unwrap();
        assert!(
            final_nc >= 20,
            "nm should adopt a large nc under compute load: {final_nc}"
        );
    }

    #[test]
    fn epoch_reports_include_restart_overhead() {
        let log = drive_transfer(&quiet(Route::UChicago, TunerKind::Cs, ExternalLoad::NONE));
        assert!(
            log.mean_overhead_fraction() > 0.1,
            "tuners restart every epoch"
        );
        let default = drive_transfer(&quiet(
            Route::UChicago,
            TunerKind::Default,
            ExternalLoad::NONE,
        ));
        // Default pays only the initial startup, inside the first epoch.
        assert!(default.epochs[1..].iter().all(|e| e.startup_s == 0.0));
    }

    #[test]
    fn schedule_changes_apply_mid_run() {
        // Heavy compute load disappears at t=1000 s: default's throughput
        // must jump without any tuning.
        let schedule = LoadSchedule::piecewise(vec![
            (0.0, ExternalLoad::new(0, 64)),
            (1000.0, ExternalLoad::NONE),
        ]);
        let cfg = DriveConfig::paper(
            Route::UChicago,
            TunerKind::Default,
            TuneDims::NcOnly { np: 8 },
            schedule,
        )
        .with_noise_sigma(0.0);
        let log = drive_transfer(&cfg);
        let before = log.mean_observed_between(600.0, 990.0).unwrap();
        let after = log.mean_observed_between(1200.0, 1800.0).unwrap();
        assert!(
            after > 5.0 * before,
            "removing 64 hogs must raise default throughput: {before} -> {after}"
        );
    }

    #[test]
    fn two_dim_tuning_runs() {
        let cfg = DriveConfig::paper(
            Route::Tacc,
            TunerKind::Nm,
            TuneDims::NcNp,
            LoadSchedule::paper_varying(),
        )
        .with_noise_sigma(0.0)
        .with_duration_s(1800.0);
        let log = drive_transfer(&cfg);
        assert_eq!(log.epochs.len(), 60);
        // Both parameters must have been explored.
        let ncs: std::collections::HashSet<u32> = log.epochs.iter().map(|e| e.params.nc).collect();
        let nps: std::collections::HashSet<u32> = log.epochs.iter().map(|e| e.params.np).collect();
        assert!(ncs.len() > 1, "nc never explored");
        assert!(nps.len() > 1, "np never explored");
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = quiet(Route::UChicago, TunerKind::Cs, ExternalLoad::new(16, 0))
            .with_noise_sigma(0.05)
            .with_seed(9);
        let a = drive_transfer(&cfg);
        let b = drive_transfer(&cfg);
        assert_eq!(a.total_mb(), b.total_mb());
    }

    #[test]
    fn multi_driver_couples_transfers() {
        let specs = vec![
            MultiSpec {
                route: Route::UChicago,
                tuner: TunerKind::Nm,
                dims: TuneDims::NcNp,
                x0: StreamParams::globus_default(),
            },
            MultiSpec {
                route: Route::Tacc,
                tuner: TunerKind::Nm,
                dims: TuneDims::NcNp,
                x0: StreamParams::globus_default(),
            },
        ];
        let md = MultiDriver::new(&specs, LoadSchedule::constant(ExternalLoad::NONE), 30.0, 5);
        let logs = md.run(1200.0);
        assert_eq!(logs.len(), 2);
        assert_eq!(logs[0].epochs.len(), 40);
        // Shared NIC: combined steady throughput bounded by the source NIC.
        let a = logs[0].mean_observed_between(600.0, 1200.0).unwrap();
        let b = logs[1].mean_observed_between(600.0, 1200.0).unwrap();
        assert!(a + b <= 5200.0, "NIC bound: {a} + {b}");
        assert!(a > 0.0 && b > 0.0);
    }

    #[test]
    fn epoch_aligned_schedule_changes_apply() {
        // Regression: a load change landing exactly on a 30 s epoch boundary
        // must be applied (changes_between is inclusive at the window start).
        let schedule = LoadSchedule::piecewise(vec![
            (0.0, ExternalLoad::new(0, 64)),
            (600.0, ExternalLoad::NONE), // exactly on an epoch boundary
        ]);
        let cfg = DriveConfig::paper(
            Route::UChicago,
            TunerKind::Default,
            TuneDims::NcOnly { np: 8 },
            schedule,
        )
        .with_duration_s(1200.0)
        .with_noise_sigma(0.0);
        let log = drive_transfer(&cfg);
        let before = log.mean_observed_between(300.0, 590.0).unwrap();
        let after = log.mean_observed_between(700.0, 1200.0).unwrap();
        assert!(
            after > 5.0 * before,
            "boundary-aligned load change never applied: {before} -> {after}"
        );
    }

    #[test]
    fn staggered_epochs_interleave() {
        let specs = vec![
            MultiSpec {
                route: Route::UChicago,
                tuner: TunerKind::Cs,
                dims: TuneDims::NcOnly { np: 8 },
                x0: StreamParams::globus_default(),
            },
            MultiSpec {
                route: Route::Tacc,
                tuner: TunerKind::Cs,
                dims: TuneDims::NcOnly { np: 8 },
                x0: StreamParams::globus_default(),
            },
        ];
        let md = MultiDriver::new(&specs, LoadSchedule::constant(ExternalLoad::NONE), 30.0, 11);
        let logs = md.run_staggered(600.0, &[0.0, 15.0]);
        assert_eq!(logs.len(), 2);
        // Transfer 0 epochs start at 0, 30, 60...; transfer 1 at 15, 45...
        assert!((logs[0].epochs[0].start.as_secs_f64() - 0.0).abs() < 1e-6);
        assert!((logs[1].epochs[0].start.as_secs_f64() - 15.0).abs() < 1e-6);
        assert!((logs[1].epochs[1].start.as_secs_f64() - 45.0).abs() < 1e-6);
        // Both made progress.
        assert!(logs[0].total_mb() > 0.0 && logs[1].total_mb() > 0.0);
        // Every epoch of transfer 1 except the last spans a full epoch.
        for e in &logs[1].epochs[..logs[1].epochs.len() - 1] {
            assert!((e.duration.as_secs_f64() - 30.0).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "offsets must be in [0, epoch)")]
    fn staggered_rejects_bad_offsets() {
        let specs = vec![MultiSpec {
            route: Route::UChicago,
            tuner: TunerKind::Default,
            dims: TuneDims::NcOnly { np: 8 },
            x0: StreamParams::globus_default(),
        }];
        let md = MultiDriver::new(&specs, LoadSchedule::constant(ExternalLoad::NONE), 30.0, 1);
        md.run_staggered(100.0, &[30.0]);
    }

    #[test]
    fn faulty_run_survives_and_is_deterministic() {
        let plan = crate::faults::FaultProfile::FlakyLink.plan(Route::UChicago, 3, 900.0);
        let cfg = quiet(Route::UChicago, TunerKind::Nm, ExternalLoad::NONE)
            .with_duration_s(900.0)
            .with_seed(4)
            .with_faults(plan);
        let a = drive_transfer(&cfg);
        let b = drive_transfer(&cfg);
        assert_eq!(
            a.total_mb(),
            b.total_mb(),
            "faulty runs must replay exactly"
        );
        assert!(
            a.total_mb() > 0.0,
            "transfer still makes progress under faults"
        );
        // Faults cost throughput relative to the clean run.
        let clean = drive_transfer(
            &quiet(Route::UChicago, TunerKind::Nm, ExternalLoad::NONE)
                .with_duration_s(900.0)
                .with_seed(4),
        );
        assert!(
            a.total_mb() < clean.total_mb(),
            "faults must cost something"
        );
    }

    #[test]
    fn dims_round_trip() {
        let d = TuneDims::NcOnly { np: 8 };
        assert_eq!(d.to_params(&vec![5]), StreamParams::new(5, 8));
        assert_eq!(d.to_point(StreamParams::new(5, 8)), vec![5]);
        let d = TuneDims::NcNp;
        assert_eq!(d.to_params(&vec![5, 3]), StreamParams::new(5, 3));
        assert_eq!(d.to_point(StreamParams::new(5, 3)), vec![5, 3]);
    }

    #[test]
    fn np_that_overflows_the_largest_nc_is_refused() {
        let with_np = |np| {
            let mut cfg = quiet(Route::UChicago, TunerKind::Nm, ExternalLoad::NONE);
            cfg.dims = TuneDims::NcOnly { np };
            cfg.check_streams()
        };
        // The NcOnly domain reaches nc = 512, and 512 × 2^23 = 2^32.
        assert!(with_np(8).is_ok());
        assert!(with_np((1 << 23) - 1).is_ok());
        let err = with_np(1 << 23).unwrap_err();
        assert!(err.contains("8388608") && err.contains("512"), "{err}");
        assert!(with_np(u32::MAX).is_err());
    }
}
