//! Discrete-event simulation core for the `xferopt` workspace.
//!
//! This crate provides the building blocks that every simulated substrate in
//! the workspace shares:
//!
//! * [`SimTime`] / [`SimDuration`] — fixed-point simulated time in integer
//!   nanoseconds, so event ordering is exact and reproducible (no float
//!   drift).
//! * [`EventQueue`] and [`Engine`] — a classic future-event-list
//!   discrete-event scheduler with deterministic FIFO tie-breaking.
//! * [`rng`] — deterministic, *splittable* random-number streams so that each
//!   simulated entity (flow, process, repeat) owns an independent stream
//!   derived from a single root seed.
//! * [`stats`] — allocation-light online statistics: mean/variance, P²
//!   streaming quantiles, five-number boxplot summaries, and histograms.
//! * [`series`] — time-series recording with time-weighted integration and
//!   uniform resampling, used to produce the paper's figures.
//! * [`faults`] — deterministic fault-injection plans (link degradations and
//!   flaps, RTT spikes, flow stalls, transfer aborts) that harnesses apply
//!   while integrating, so faulty runs replay exactly from a root seed.
//!
//! The crate is intentionally free of any networking or transfer logic; it is
//! the substrate the `xferopt-net`, `xferopt-host` and `xferopt-transfer`
//! crates build on.
//!
//! # Example
//!
//! ```
//! use xferopt_simcore::{Engine, SimDuration, SimTime};
//!
//! // A tiny simulation: three ticks, one second apart.
//! let mut engine: Engine<&'static str> = Engine::new();
//! engine.schedule_in(SimDuration::from_secs_f64(1.0), "tick");
//! engine.schedule_in(SimDuration::from_secs_f64(2.0), "tick");
//! engine.schedule_in(SimDuration::from_secs_f64(3.0), "done");
//!
//! let mut log = Vec::new();
//! while let Some((t, ev)) = engine.pop() {
//!     log.push((t.as_secs_f64(), ev));
//! }
//! assert_eq!(log.last().unwrap().1, "done");
//! assert_eq!(engine.now(), SimTime::from_secs_f64(3.0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
mod event;
pub mod faults;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod series;
pub mod stats;
mod time;
pub mod trace;

pub use engine::Engine;
pub use event::{EventQueue, Scheduled};
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use metrics::{
    Counter, Gauge, LogHistogram, MetricKind, MetricSample, MetricsRegistry, MetricsSnapshot,
    SampleValue,
};
pub use rng::{RngFactory, SeedStream};
pub use series::{StepSeries, TimeSeries};
pub use stats::{BoxplotStats, Histogram, OnlineStats, P2Quantile};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, Tracer};
