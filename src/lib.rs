//! # xferopt — direct-search optimization of data-transfer throughput
//!
//! A Rust reproduction of *"Improving Data Transfer Throughput with Direct
//! Search Optimization"* (Balaprakash, Morozov, Kettimuthu, Kumaran, Foster —
//! ICPP 2016): tune the number of parallel TCP streams of a wide-area
//! transfer **online**, with direct search methods that observe nothing but
//! the throughput of each 30-second control epoch.
//!
//! The workspace provides:
//!
//! * [`tuners`] — the paper's contribution: coordinate-descent
//!   ([`tuners::CdTuner`]), compass-search ([`tuners::CompassTuner`]) and
//!   Nelder–Mead ([`tuners::NelderMeadTuner`]) online tuners over bounded
//!   integer domains, plus the baselines it compares against and an offline
//!   driver that turns them into general black-box maximizers.
//! * [`net`] — a fluid WAN simulator: AIMD congestion models (Reno, CUBIC,
//!   H-TCP, Scalable), max–min fair bandwidth sharing, per-stream dynamic
//!   window simulation.
//! * [`host`] — an endpoint model: fair-share CPU scheduling against compute
//!   hogs, context-switch overhead, process restart costs.
//! * [`transfer`] — the GridFTP-style harness binding net + host into a
//!   steppable [`transfer::World`] with control-epoch accounting.
//! * [`scenarios`] — the paper's testbed topology, load schedules, tuning
//!   driver, and one function per figure/table of the evaluation.
//! * [`orchestrator`] — a multi-tenant fleet layer: deterministic job
//!   queue, admission control under per-link stream budgets
//!   (FIFO / shortest-job-first / weighted-fair policies), one online tuner
//!   per admitted job sharing the simulated links, and a persistent JSONL
//!   history store that warm-starts new jobs from the nearest historical
//!   match (`xferopt fleet run`).
//! * [`topo`] — planet-scale multi-region topology: N-region RTT/capacity/
//!   loss planets (presets + `.dat` loader), k-shortest-path route
//!   enumeration, and a deterministic offline route/config search emitting
//!   byte-stable placement tables the fleet consumes (`xferopt routes
//!   search`, `xferopt fleet run --topo`).
//! * [`gridftp`] — a striped GridFTP-style protocol over real sockets:
//!   control channel, EBLOCK framing, restart markers, persistent sessions.
//! * [`loopback`] — the real-TCP localhost harness on top of it: each epoch
//!   puts over `nc` GridFTP sessions × `np` channels through a shared token
//!   bucket, with CPU hogs, so the same tuners can run against a
//!   non-simulated objective.
//! * [`simcore`] — the simulation substrate: simulated time, splittable
//!   RNG streams, online statistics, deterministic fault-injection plans
//!   ([`simcore::FaultPlan`]) with retry/backoff handling in the transfer
//!   world, and the structured metrics layer
//!   ([`simcore::MetricsRegistry`]: counters, gauges, log-bucket histograms
//!   with byte-deterministic snapshots).
//!
//! The workspace ships a flight recorder on top: typed per-epoch and event
//! rows in the transfer [`transfer::World`] ([`transfer::WorldTelemetry`]),
//! from which metrics are derived when they are rendered, a typed
//! decision audit log in the tuners ([`tuners::AuditLog`]), and the
//! scenario-level bundle ([`scenarios::RunTelemetry`]) that the `xferopt run
//! --telemetry-out` CLI writes as JSONL + Prometheus text (digestible with
//! `xferopt telemetry summarize`). Telemetry is strictly observational: an
//! instrumented run reproduces the uninstrumented run byte for byte.
//!
//! ## Quickstart
//!
//! ```
//! use xferopt::prelude::*;
//!
//! // Tune concurrency on the simulated ANL->UChicago link under compute
//! // load, with the paper's hyper-parameters (e=30 s, eps=5%, lambda=8).
//! let cfg = DriveConfig::paper(
//!     Route::UChicago,
//!     TunerKind::Nm,
//!     TuneDims::NcOnly { np: 8 },
//!     LoadSchedule::constant(ExternalLoad::new(0, 16)),
//! )
//! .with_duration_s(600.0);
//! let log = drive_transfer(&cfg);
//! println!(
//!     "moved {:.0} MB at {:.0} MB/s, final nc = {}",
//!     log.total_mb(),
//!     log.mean_observed_mbs(),
//!     log.final_nc().unwrap()
//! );
//! ```
//!
//! See `examples/` for more: adapting to load changes, simultaneous tuned
//! transfers sharing a NIC, offline black-box optimization, and the real-TCP
//! loopback harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use xferopt_dataset as dataset;
pub use xferopt_gridftp as gridftp;
pub use xferopt_gridftp::loopback;
pub use xferopt_host as host;
pub use xferopt_net as net;
pub use xferopt_orchestrator as orchestrator;
pub use xferopt_scenarios as scenarios;
pub use xferopt_simcore as simcore;
pub use xferopt_topo as topo;
pub use xferopt_transfer as transfer;
pub use xferopt_tuners as tuners;

/// The most common imports in one place.
pub mod prelude {
    pub use xferopt_orchestrator::{
        run_fleet_sharded, AdmissionController, FleetConfig, FleetReport, HistoryStore, JobSpec,
        Policy, Workload,
    };
    pub use xferopt_scenarios::driver::{
        drive_transfer, DriveConfig, MultiDriver, MultiSpec, TuneDims,
    };
    pub use xferopt_scenarios::telemetry::{
        drive_transfer_with_telemetry, summarize_telemetry, RunTelemetry, TelemetrySummary,
    };
    pub use xferopt_scenarios::{ExternalLoad, FaultProfile, LoadSchedule, PaperWorld, Route};
    pub use xferopt_simcore::{
        FaultEvent, FaultKind, FaultPlan, MetricsRegistry, MetricsSnapshot, SimDuration, SimTime,
    };
    pub use xferopt_transfer::{
        RetryPolicy, StreamParams, TransferConfig, TransferLog, World, WorldTelemetry,
    };
    pub use xferopt_tuners::{
        AuditLog, CdTuner, CompassTuner, DecisionAction, DecisionEvent, Domain, Heur1Tuner,
        Heur2Tuner, NelderMeadTuner, OnlineTuner, Point, RetriggerCause, StaticTuner, TunerKind,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reexports() {
        use crate::prelude::*;
        let d = Domain::paper_nc();
        assert_eq!(d.dim(), 1);
        let p = StreamParams::globus_default();
        assert_eq!(p.streams(), 16);
        assert_eq!(Route::Tacc.name(), "anl->tacc");
    }
}
