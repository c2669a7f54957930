//! Simulation core for the `xferopt` workspace.
//!
//! This crate provides the building blocks that every simulated substrate in
//! the workspace shares:
//!
//! * [`SimTime`] / [`SimDuration`] — fixed-point simulated time in integer
//!   nanoseconds, so time arithmetic is exact and reproducible (no float
//!   drift).
//! * [`rng`] — deterministic, *splittable* random-number streams so that each
//!   simulated entity (flow, process, repeat) owns an independent stream
//!   derived from a single root seed.
//! * [`stats`] — five-number boxplot summaries and a `+0.0`-based float
//!   sum.
//! * [`series`] — time-series recording with time-weighted integration and
//!   uniform resampling, used to produce the paper's figures.
//! * [`faults`] — deterministic fault-injection plans (link degradations and
//!   flaps, RTT spikes, flow stalls, transfer aborts) that harnesses apply
//!   while integrating, so faulty runs replay exactly from a root seed.
//! * [`num`] — exact integer and fixed-precision float writers for the
//!   fixed-format reports, byte-equal to std's `{:.p$}`.
//!
//! The crate is intentionally free of any networking or transfer logic; it is
//! the substrate the `xferopt-net`, `xferopt-host` and `xferopt-transfer`
//! crates build on.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod faults;
pub mod json;
pub mod metrics;
pub mod num;
pub mod rng;
pub mod series;
pub mod stats;
mod time;
pub mod trace;

pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use metrics::{
    Counter, Gauge, LogHistogram, MetricKind, MetricSample, MetricsRegistry, MetricsSnapshot,
    SampleValue,
};
pub use rng::{RngFactory, SeedStream};
pub use series::{StepSeries, TimeSeries};
pub use stats::BoxplotStats;
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, Tracer};
