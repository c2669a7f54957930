//! Paper experiment presets, the online tuning driver, and report emission.
//!
//! This crate glues the workspace together into the experiments of the
//! paper's Section IV:
//!
//! * [`topology`] — the production testbed as a simulated world: ANL Nehalem
//!   source behind a 40 Gb/s NIC, UChicago (40 Gb/s, short RTT) and TACC
//!   (20 Gb/s, 33 ms RTT) destinations, with the AIMD-derating and host
//!   calibration documented in `DESIGN.md`.
//! * [`load`] — external source load: `ext.tfr` competing transfer streams
//!   and `ext.cmp` dgemm compute hogs, with piecewise schedules for the
//!   "load changes at t = 1000 s" experiments.
//! * [`faults`] — named deterministic fault profiles (flaky link, degraded
//!   WAN, lossy TACC) that seed a [`xferopt_simcore::FaultPlan`] against the
//!   testbed topology.
//! * [`driver`] — the control-epoch loop binding an
//!   [`xferopt_tuners::OnlineTuner`] to a live transfer (the paper's
//!   `runTransfer` wrapper): restart each epoch, observe, ask for the next
//!   point. A multi-transfer variant drives the Fig. 11 simultaneous-tuning
//!   experiment.
//! * [`experiments`] — one function per table/figure, returning structured
//!   series/rows.
//! * [`runner`] — parallel scenario repeats (`std::thread::scope`, one
//!   deterministic world per thread).
//! * [`report`] — markdown/CSV emission for the `fig*` binaries.
//! * [`telemetry`] — the scenario-level flight recorder: drive a transfer
//!   with world telemetry + tuner audit on, bundle the per-epoch records,
//!   decision log, and metric snapshot, and render them as JSONL /
//!   Prometheus text (plus a JSONL summarizer for the CLI).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod experiments;
pub mod faults;
pub mod load;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod telemetry;
pub mod topology;
pub mod validation;

pub use driver::{drive_transfer, drive_tuner, DriveConfig, MultiDriver, TuneDims};
pub use faults::FaultProfile;
pub use load::{ExternalLoad, LoadSchedule};
pub use report::Table;
pub use sweep::{throughput_surface, Surface, SweepCell};
pub use telemetry::{
    drive_transfer_with_telemetry, summarize_telemetry, RunHeader, RunTelemetry, TelemetrySummary,
};
pub use topology::{PaperWorld, Route};
pub use validation::{validate, Check, ValidationReport};
