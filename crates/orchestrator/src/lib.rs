//! Multi-tenant transfer orchestrator (DESIGN.md §11).
//!
//! The paper tunes one transfer at a time; this crate runs a *fleet*. A
//! [`Workload`] of jobs arrives over time; an [`AdmissionController`] grants
//! each job a stream reservation on its route's links under a per-link
//! budget, in the order chosen by a [`Policy`]; every admitted job gets its
//! own online tuner (seeded from the [`HistoryStore`]'s nearest historical
//! match when warm starts are enabled) and a finite transfer in the shared
//! [`xferopt_transfer::World`]. [`run_fleet_sharded`] drives the whole thing
//! on a deterministic tick loop, one [`FleetSim`] per link-sharing component
//! on up to `shards` threads, and returns a byte-stable [`FleetReport`] that
//! does not depend on the shard count. [`ShardedFleetSim`] is the same run
//! one tick or batch at a time, for checkpoints; [`resume_fleet_sharded`]
//! resumes one.
//!
//! ```
//! use xferopt_orchestrator::{run_fleet_sharded, FleetConfig, HistoryStore, Workload};
//!
//! let mut history = HistoryStore::in_memory();
//! let config = FleetConfig::default();
//! let out = run_fleet_sharded(&Workload::contended(2), &config, &mut history, 1);
//! assert_eq!(out.report.submitted, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod breaker;
pub mod chaos;
pub mod checkpoint;
pub mod fleet;
pub mod govern;
pub mod health;
pub mod history;
pub mod job;
pub mod policy;
mod queue;
pub mod route;
pub mod shard;
pub mod tournament;

pub use admission::{AdmissionController, Reservation, DEFAULT_LINK_BUDGET};
pub use breaker::{BreakerBoard, BreakerState, RouteBreaker};
pub use chaos::{run_campaign, CampaignConfig, CampaignOutcome, MAX_SEEDS};
pub use checkpoint::{parse_journal, Checkpoint, JournalRead};
pub use fleet::{
    check_job_count, topo_workload, ConfigError, FleetConfig, FleetOutcome, FleetReport, FleetSim,
    JobOutcome, TopoFleetConfig,
};
pub use govern::{Governor, RetryBudget, SloMonitor, SloState, RETRY_BUDGET_CAP};
pub use health::{HealthMonitor, HealthState, HealthVerdict, SupervisionEvent, SupervisionSummary};
pub use history::{HistoryRecord, HistoryStore};
pub use job::{JobId, JobSpec, JobState, Workload};
pub use policy::Policy;
pub use route::JobRoute;
pub use shard::{resume_fleet_sharded, run_fleet_sharded, ShardPlan, ShardedFleetSim};
pub use tournament::{
    run_tournament, CellResult, Leaderboard, RankRow, ScenarioPreset, TournamentConfig,
    TournamentOutcome, MAX_CELL_EPOCHS,
};
