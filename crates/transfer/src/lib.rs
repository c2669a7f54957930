//! GridFTP-style transfer harness over the simulated network and hosts.
//!
//! This crate is the equivalent of the paper's `globus-url-copy` wrapper: it
//! binds the fluid network model (`xferopt-net`) and the endpoint model
//! (`xferopt-host`) into a steppable [`World`] in which transfers run with a
//! given **concurrency × parallelism** ([`StreamParams`]), experience restart
//! downtime when a tuner changes their parameters, contend with external
//! compute and transfer load, and report per-control-epoch throughput — both
//! *observed* (bytes over the whole epoch, the paper's Fig. 5) and
//! *best-case* (bytes over up-time only, the paper's Fig. 7).
//!
//! Layering:
//!
//! * [`params::StreamParams`] — the tunable `(nc, np)` pair.
//! * [`noise::NoiseProcess`] — mean-one lognormal AR(1) throughput noise,
//!   standing in for everything the model doesn't capture (third-party
//!   traffic, destination load — the paper explicitly leaves these
//!   uncontrolled).
//! * [`world::World`] — hosts + network + transfers; integrate with
//!   [`world::World::step`], account epochs with
//!   [`world::World::begin_epoch`] / [`world::World::end_epoch`].
//! * [`report`] — epoch reports and whole-transfer logs.
//! * [`retry::RetryPolicy`] — exponential backoff for transfers aborted by a
//!   fault plan ([`world::World::enable_faults`]).
//! * [`telemetry::WorldTelemetry`] — the opt-in flight recorder: typed
//!   per-epoch and event rows recorded by the instrumented hot paths
//!   ([`world::World::enable_telemetry`]), with metrics derived from them
//!   on read ([`world::World::metrics_snapshot`]); strictly observational.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod noise;
pub mod params;
pub mod report;
pub mod retry;
pub mod telemetry;
pub mod world;

pub use noise::NoiseProcess;
pub use params::StreamParams;
pub use report::{EpochReport, TransferLog};
pub use retry::RetryPolicy;
pub use telemetry::{EpochTelemetry, WorldTelemetry};
pub use world::{EpochStart, HostId, TransferConfig, TransferId, World};
