//! The fleet orchestrator: a deterministic tick loop that admits jobs,
//! drives one online tuner per running job, supervises their health, and
//! records outcomes.
//!
//! Per tick (`tick_s`, which must divide `epoch_s`), in this order:
//!
//! 1. arrivals — pending jobs whose arrival time has come join the queue;
//!    quarantined jobs whose backoff elapsed are requeued;
//! 2. supervision — route circuit breakers advance (open breakers half-open
//!    when their cooldown elapses) and sustained-pressure shedding drops the
//!    lowest-priority queued job on a sick link;
//! 3. admission — the [`Policy`] picks queued jobs *whose route the breakers
//!    admit*; each is granted a stream reservation by the
//!    [`AdmissionController`] (shrunk through half-open breakers) or blocks
//!    the queue (head-of-line blocking keeps policy semantics exact);
//! 4. the world advances one tick;
//! 5. completions — finished jobs close their epoch, release their
//!    reservation, feed breaker successes, and append a [`HistoryRecord`];
//! 6. epoch boundaries — running jobs whose control epoch elapsed report the
//!    observed throughput to their tuner *and* their [`HealthMonitor`]; a
//!    `Quarantine` verdict pulls the job off the wire, releases its grant,
//!    feeds the route's breakers a failure, and schedules a requeue after
//!    the shared [`xferopt_transfer::RetryPolicy`] backoff (or fails the job
//!    once its attempt budget is spent).
//!
//! Every step iterates in job-id order, so a fleet run is a pure function of
//! `(workload, config)`: two runs with the same seed produce byte-identical
//! reports (see `tests/fleet.rs` and `tests/supervision.rs`). Supervision is
//! *observational by default*: with no fault plan the watchdogs never trip,
//! the breakers stay closed, and reports are byte-identical to
//! pre-supervision runs (enforced by the golden snapshots).
//!
//! [`FleetSim`] steps one link-sharing component's loop a tick at a time;
//! [`ShardedFleetSim`](crate::shard::ShardedFleetSim) owns one per
//! component and is the fleet's run, checkpoint and resume path (see
//! `shard.rs` and `checkpoint.rs`).

use std::collections::{BTreeMap, VecDeque};
use std::fmt::{self, Write as _};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::admission::{AdmissionController, Reservation, DEFAULT_LINK_BUDGET};
use crate::breaker::BreakerBoard;
use crate::govern::Governor;
use crate::health::{
    HealthMonitor, HealthVerdict, SupervisionEvent, SupervisionSummary, MAX_ATTEMPTS,
    ZERO_FLOOR_MBS,
};
use crate::history::{warm_seed, HistoryRecord, HistoryStore};
use crate::job::{JobId, JobSpec, JobState, Workload};
use crate::policy::Policy;
use crate::queue::JobQueue;
use crate::route::JobRoute;
use xferopt_scenarios::{FaultProfile, PaperWorld, Route};
use xferopt_simcore::json::json_f64;
use xferopt_simcore::metrics::MetricsRegistry;
use xferopt_simcore::num::{push_fixed, push_u64};
use xferopt_simcore::SimDuration;
use xferopt_topo::{
    campaign_plan, outage_plan_multi, refine_placement, search_routes, PlacementTable, Planet,
    PlanetWorld, RouteCatalog, SearchConfig, CAMPAIGNS,
};
use xferopt_transfer::{EpochReport, EpochStart, RetryPolicy, StreamParams, TransferId, World};
use xferopt_tuners::{Domain, OnlineTuner, Point, WarmStart};

/// Planet-topology fleet settings. `None` runs the classic single-pipe
/// paper world; `Some` places jobs on an N-region planet using the offline
/// route search's placement table (DESIGN.md §16).
#[derive(Debug, Clone, PartialEq)]
pub struct TopoFleetConfig {
    /// Planet preset name (`mesh`, `hub-spoke`, `asymmetric`).
    pub preset: String,
    /// Candidate routes enumerated per ordered region pair.
    pub k: usize,
    /// Regions whose incident links flap dark under the regional-outage
    /// chaos plan (empty keeps the planet fault-free; multiple regions
    /// overlap their outages).
    pub outage_regions: Vec<usize>,
    /// Scripted multi-phase chaos campaign name (see
    /// [`xferopt_topo::campaign_plan`]); mutually exclusive with
    /// `outage_regions`.
    pub campaign: Option<String>,
    /// Routes one job's streams are split across (1 = single-path).
    pub multipath: u32,
    /// Re-route breaker-blocked requeued jobs onto the placement's
    /// next-ranked candidate (bytes conserved across the hop).
    pub reroute: bool,
    /// Enable the self-healing control plane (DESIGN.md §17): fleet-level
    /// SLO tracking, online placement re-search on sustained degradation,
    /// a fleet-wide retry budget, and brownout shedding.
    pub selfheal: bool,
}

impl TopoFleetConfig {
    /// Topology config for a named preset with search defaults.
    pub fn preset(name: &str) -> Self {
        TopoFleetConfig {
            preset: name.to_string(),
            k: 3,
            outage_regions: Vec::new(),
            campaign: None,
            multipath: 1,
            reroute: true,
            selfheal: false,
        }
    }

    /// Resolve the preset into a [`Planet`].
    ///
    /// # Panics
    /// Panics on an unknown preset name (validated at CLI parse time).
    pub fn planet(&self) -> Planet {
        Planet::preset(&self.preset).expect("known planet preset")
    }
}

/// Fleet run configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Admission-order policy.
    pub policy: Policy,
    /// World seed (noise, fault RNG).
    pub seed: u64,
    /// Run horizon, simulated seconds.
    pub horizon_s: f64,
    /// Orchestrator tick, seconds. Must divide `epoch_s`.
    pub tick_s: f64,
    /// Control-epoch length handed to each job's tuner, seconds.
    pub epoch_s: f64,
    /// Per-link stream budget for admission control.
    pub link_budget: u32,
    /// Query the history store to warm-start tuners. When false the run is
    /// cold (but still appends history), so a later warm run can be compared.
    pub warm_start: bool,
    /// Fleet-scoped chaos plan (see [`FaultProfile::fleet_plan`]); `None`
    /// keeps the world fault-free and draws nothing extra from the seed
    /// stream, so no-fault runs stay byte-identical to pre-supervision ones.
    pub faults: Option<FaultProfile>,
    /// Planet-topology settings; `None` keeps the classic paper world (and
    /// its byte-identical goldens).
    pub topo: Option<TopoFleetConfig>,
}

/// Largest history-match distance accepted for a warm start.
pub(crate) const MAX_MATCH_DISTANCE: f64 = 2.0;

/// Log-std of the per-epoch throughput noise on every transfer a fleet or
/// tournament drives.
pub(crate) const NOISE_SIGMA: f64 = 0.05;

/// Shed the lowest-priority queued job on a link whose breaker has been
/// continuously non-closed for this long, seconds (and at most once per
/// interval).
pub(crate) const SHED_AFTER_S: f64 = 300.0;

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            policy: Policy::Fifo,
            seed: 7,
            horizon_s: 3600.0,
            tick_s: 5.0,
            epoch_s: 30.0,
            link_budget: DEFAULT_LINK_BUDGET,
            warm_start: true,
            faults: None,
            topo: None,
        }
    }
}

impl FleetConfig {
    /// Check that a fleet can run under this config: positive tick, epoch
    /// and horizon (tick and epoch at least the clock's 1 ns resolution)
    /// with the tick dividing the epoch, a link budget of at least one
    /// stream, and a planet topology that builds (known preset and
    /// campaign, `k >= 1`, `multipath >= 1`, self-healing only with
    /// re-routing, outage regions on the planet, no classic fault profile,
    /// and no campaign mixed with outage regions).
    ///
    /// The run must also take at most [`MAX_TICKS`] ticks.
    ///
    /// # Errors
    /// The first invalid value: [`ConfigError::TooManyTicks`] over the tick
    /// cap, [`ConfigError::Invalid`] naming any other.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, v) in [
            ("tick", self.tick_s),
            ("epoch", self.epoch_s),
            ("horizon", self.horizon_s),
        ] {
            if v.is_nan() || v <= 0.0 {
                return Err(invalid(format!("{name} must be positive, got {v}")));
            }
        }
        for (name, v) in [("tick", self.tick_s), ("epoch", self.epoch_s)] {
            if !SimDuration::from_secs_f64(v).is_positive() {
                return Err(invalid(format!(
                    "{name} {v:?} rounds to 0 ns, below the simulation clock's 1 ns resolution"
                )));
            }
        }
        let ratio = self.epoch_s / self.tick_s;
        if !((ratio - ratio.round()).abs() < 1e-9 && ratio >= 1.0) {
            return Err(invalid(format!(
                "tick {} must divide epoch {}",
                self.tick_s, self.epoch_s
            )));
        }
        if self.horizon_s / self.tick_s > MAX_TICKS as f64 {
            return Err(ConfigError::TooManyTicks {
                horizon_s: self.horizon_s,
                tick_s: self.tick_s,
            });
        }
        if self.link_budget == 0 {
            return Err(invalid("budget must admit at least one stream"));
        }
        let Some(tc) = &self.topo else { return Ok(()) };
        let planet = Planet::preset(&tc.preset).map_err(|e| invalid(e.to_string()))?;
        if tc.k == 0 {
            return Err(invalid("topo k must be >= 1"));
        }
        if tc.multipath == 0 {
            return Err(invalid("multipath must be >= 1"));
        }
        if tc.selfheal && !tc.reroute {
            return Err(invalid("self-healing needs re-routing"));
        }
        if self.faults.is_some() {
            return Err(invalid(
                "classic fault profiles target the 3-link paper world; \
                 planet fleets take outage regions or a campaign",
            ));
        }
        if let Some(r) = tc
            .outage_regions
            .iter()
            .find(|&&r| r >= planet.regions.len())
        {
            return Err(invalid(format!(
                "outage region {r} out of range ({} has {} regions)",
                planet.name,
                planet.regions.len()
            )));
        }
        if let Some(name) = &tc.campaign {
            if !CAMPAIGNS.contains(&name.as_str()) {
                return Err(invalid(format!(
                    "unknown campaign: {name} (use {})",
                    CAMPAIGNS.join("|")
                )));
            }
            if !tc.outage_regions.is_empty() {
                return Err(invalid(
                    "a campaign scripts its own faults; drop the outage regions",
                ));
            }
        }
        Ok(())
    }
}

/// Most ticks (`horizon_s / tick_s`) one fleet run may take: 5x the
/// longest run in the repository (the queue-depth gate's 1e7 s horizon
/// at 5 s ticks, `tests/perf_gates.rs`). `fleet run --tick 1e-9` would take 3.6e12 ticks.
pub const MAX_TICKS: u64 = 10_000_000;

/// Most jobs one fleet may hold: 10x the largest fleet the repository has
/// measured (100k jobs). The job table is allocated up front, so
/// an unchecked count can abort the process.
pub const MAX_JOBS: u64 = 1_000_000;

/// Why a fleet configuration or size was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A value outside its domain; the message names it.
    Invalid(String),
    /// `horizon_s / tick_s` is over [`MAX_TICKS`].
    TooManyTicks {
        /// The run horizon, seconds.
        horizon_s: f64,
        /// The orchestrator tick, seconds.
        tick_s: f64,
    },
    /// A job count over [`MAX_JOBS`].
    TooManyJobs(u64),
}

fn invalid(msg: impl Into<String>) -> ConfigError {
    ConfigError::Invalid(msg.into())
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Invalid(msg) => f.write_str(msg),
            ConfigError::TooManyTicks { horizon_s, tick_s } => write!(
                f,
                "horizon {horizon_s} / tick {tick_s} is {:.3e} ticks, over the cap of {MAX_TICKS}",
                horizon_s / tick_s
            ),
            ConfigError::TooManyJobs(n) => {
                write!(f, "{n} jobs is over the cap of {MAX_JOBS}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Refuse a job count over [`MAX_JOBS`] before anything is allocated for it.
///
/// # Errors
/// [`ConfigError::TooManyJobs`] over the cap.
pub fn check_job_count(jobs: u64) -> Result<(), ConfigError> {
    if jobs > MAX_JOBS {
        return Err(ConfigError::TooManyJobs(jobs));
    }
    Ok(())
}

/// Terminal record for one job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job.
    pub id: JobId,
    /// Terminal lifecycle state (`completed`, `unfinished`, `failed`,
    /// `queued`, or `pending` — the latter two when the horizon arrives
    /// first).
    pub state: JobState,
    /// The spec the job ran with.
    pub spec: JobSpec,
    /// Admission time (fleet seconds), if admitted.
    pub admitted_s: Option<f64>,
    /// Completion time (fleet seconds), if completed.
    pub finished_s: Option<f64>,
    /// Streams granted by admission control (0 if never admitted).
    pub granted_streams: u32,
    /// Megabytes moved by the horizon.
    pub moved_mb: f64,
    /// Mean throughput while running, MB/s.
    pub mean_mbs: f64,
    /// Best per-epoch observed throughput, MB/s.
    pub best_mbs: f64,
    /// Parameters in force during the best epoch.
    pub best_params: StreamParams,
    /// Control epochs completed.
    pub epochs: u32,
    /// History-match distance when warm-started; `None` for cold starts.
    pub warm_distance: Option<f64>,
    /// Seconds from admission until an epoch first reached 90 % of the job's
    /// best observed throughput (the warm-start convergence metric).
    pub time_to_90_s: Option<f64>,
    /// Whether the deadline was met (`None` when the job has no deadline).
    pub deadline_met: Option<bool>,
}

impl JobOutcome {
    /// Render as one fixed-format report line.
    pub fn render(&self) -> String {
        let mut line = String::new();
        self.write_line(&mut line);
        line
    }

    /// Append the [`JobOutcome::render`] line to `out`.
    fn write_line(&self, out: &mut String) {
        out.push_str("job");
        push_u64(out, self.id.0);
        out.push_str(" state=");
        out.push_str(self.state.name());
        out.push_str(" route=");
        out.push_str(self.spec.route.name());
        out.push_str(" tuner=");
        out.push_str(self.spec.tuner.name());
        out.push_str(" size_mb=");
        push_fixed(out, self.spec.size_mb, 0);
        out.push_str(" prio=");
        push_u64(out, self.spec.priority.into());
        out.push_str(" arrival_s=");
        push_fixed(out, self.spec.arrival_s, 0);
        out.push_str(" admitted_s=");
        push_opt(out, self.admitted_s, 1, "-");
        out.push_str(" finished_s=");
        push_opt(out, self.finished_s, 1, "-");
        out.push_str(" granted=");
        push_u64(out, self.granted_streams.into());
        match self.warm_distance {
            Some(d) => {
                out.push_str(" start=warm:");
                push_fixed(out, d, 3);
            }
            None => out.push_str(" start=cold"),
        }
        out.push_str(" best=");
        push_u64(out, self.best_params.nc.into());
        out.push('x');
        push_u64(out, self.best_params.np.into());
        out.push_str(" best_mbs=");
        push_fixed(out, self.best_mbs, 1);
        out.push_str(" mean_mbs=");
        push_fixed(out, self.mean_mbs, 1);
        out.push_str(" moved_mb=");
        push_fixed(out, self.moved_mb, 1);
        out.push_str(" epochs=");
        push_u64(out, self.epochs.into());
        out.push_str(" t90_s=");
        push_opt(out, self.time_to_90_s, 1, "-");
        out.push_str(match self.deadline_met {
            Some(true) => " deadline=met",
            Some(false) => " deadline=missed",
            None => " deadline=-",
        });
    }

    /// Append the [`FleetReport::to_csv`] row (newline included) to `out`.
    fn write_csv_row(&self, out: &mut String) {
        push_u64(out, self.id.0);
        out.push(',');
        out.push_str(self.state.name());
        out.push(',');
        out.push_str(self.spec.route.name());
        out.push(',');
        out.push_str(self.spec.tuner.name());
        out.push(',');
        push_fixed(out, self.spec.size_mb, 0);
        out.push(',');
        push_u64(out, self.spec.priority.into());
        out.push(',');
        push_fixed(out, self.spec.arrival_s, 0);
        out.push(',');
        push_opt(out, self.admitted_s, 3, "");
        out.push(',');
        push_opt(out, self.finished_s, 3, "");
        out.push(',');
        push_u64(out, self.granted_streams.into());
        out.push(',');
        push_opt(out, self.warm_distance, 3, "");
        out.push(',');
        push_u64(out, self.best_params.nc.into());
        out.push('x');
        push_u64(out, self.best_params.np.into());
        out.push(',');
        push_fixed(out, self.best_mbs, 3);
        out.push(',');
        push_fixed(out, self.mean_mbs, 3);
        out.push(',');
        push_fixed(out, self.moved_mb, 3);
        out.push(',');
        push_u64(out, self.epochs.into());
        out.push(',');
        push_opt(out, self.time_to_90_s, 3, "");
        out.push_str(match self.deadline_met {
            Some(true) => ",true\n",
            Some(false) => ",false\n",
            None => ",\n",
        });
    }
}

/// An optional report number: `Some(x)` with `prec` decimals, `None` as
/// `none`.
fn push_opt(out: &mut String, v: Option<f64>, prec: usize, none: &str) {
    match v {
        Some(x) => push_fixed(out, x, prec),
        None => out.push_str(none),
    }
}

/// Deterministic summary of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The configuration the fleet ran with.
    pub config: FleetConfig,
    /// Number of jobs submitted.
    pub submitted: usize,
    /// Per-job outcomes, in job-id order.
    pub outcomes: Vec<JobOutcome>,
    /// Supervision activity counters (all zero in a quiet run).
    pub supervision: SupervisionSummary,
}

impl FleetReport {
    /// Jobs that reached `state`.
    pub fn count(&self, state: JobState) -> usize {
        self.outcomes.iter().filter(|o| o.state == state).count()
    }

    /// Total megabytes moved across the fleet.
    pub fn total_moved_mb(&self) -> f64 {
        xferopt_simcore::stats::sum(self.outcomes.iter().map(|o| o.moved_mb))
    }

    /// Completion time of the last finished job, if any completed.
    pub fn makespan_s(&self) -> Option<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| o.finished_s)
            .fold(None, |m, t| Some(m.map_or(t, |x: f64| x.max(t))))
    }

    /// Mean time-to-90 % over jobs matching `warm` (the warm-vs-cold
    /// comparison metric). `None` when no matching job converged.
    pub fn mean_time_to_90_s(&self, warm: bool) -> Option<f64> {
        let ts: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| o.warm_distance.is_some() == warm)
            .filter_map(|o| o.time_to_90_s)
            .collect();
        if ts.is_empty() {
            None
        } else {
            Some(ts.iter().sum::<f64>() / ts.len() as f64)
        }
    }

    /// Render the whole report as deterministic fixed-format text.
    ///
    /// Supervision is rendered only when it did something (or a fault
    /// profile is configured): quiet runs are byte-identical to
    /// pre-supervision reports.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(256 * (self.outcomes.len() + 2));
        let _ = write!(
            out,
            "fleet policy={} seed={} jobs={} horizon_s={:.0} tick_s={:.0} epoch_s={:.0} budget={} warm={} audit=true",
            self.config.policy,
            self.config.seed,
            self.submitted,
            self.config.horizon_s,
            self.config.tick_s,
            self.config.epoch_s,
            self.config.link_budget,
            self.config.warm_start,
        );
        if let Some(p) = self.config.faults {
            let _ = write!(out, " faults={}", p.name());
        }
        if let Some(tc) = &self.config.topo {
            let _ = write!(
                out,
                " topo={} k={} multipath={} reroute={}",
                tc.preset, tc.k, tc.multipath, tc.reroute
            );
            if tc.selfheal {
                out.push_str(" selfheal=true");
            }
            if let Some(c) = &tc.campaign {
                let _ = write!(out, " campaign={c}");
            }
            // A single outage region keeps the historical `outage_region=`
            // bytes (golden snapshots); only multi-region runs use the
            // plural form.
            match tc.outage_regions.as_slice() {
                [] => {}
                [r] => {
                    let _ = write!(out, " outage_region={r}");
                }
                rs => {
                    let rs: Vec<String> = rs.iter().map(|r| r.to_string()).collect();
                    let _ = write!(out, " outage_regions={}", rs.join(","));
                }
            }
        }
        out.push('\n');
        for o in &self.outcomes {
            o.write_line(&mut out);
            out.push('\n');
        }
        let count = |state| self.count(state) as u64;
        out.push_str("summary completed=");
        push_u64(&mut out, count(JobState::Completed));
        out.push_str(" unfinished=");
        push_u64(&mut out, count(JobState::Unfinished));
        let failed = count(JobState::Failed);
        if failed > 0 {
            out.push_str(" failed=");
            push_u64(&mut out, failed);
        }
        out.push_str(" queued=");
        push_u64(&mut out, count(JobState::Queued));
        out.push_str(" pending=");
        push_u64(&mut out, count(JobState::Pending));
        out.push_str(" moved_mb=");
        push_fixed(&mut out, self.total_moved_mb(), 1);
        out.push_str(" makespan_s=");
        push_opt(&mut out, self.makespan_s(), 1, "-");
        out.push_str(" t90_cold_s=");
        push_opt(&mut out, self.mean_time_to_90_s(false), 1, "-");
        out.push_str(" t90_warm_s=");
        push_opt(&mut out, self.mean_time_to_90_s(true), 1, "-");
        out.push('\n');
        if self.config.faults.is_some() || !self.supervision.is_quiet() {
            out.push_str(&self.supervision.render());
            out.push('\n');
        }
        out
    }

    /// Render per-job outcomes as CSV (header + one row per job).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(128 * (self.outcomes.len() + 1));
        out.push_str(
            "job,state,route,tuner,size_mb,priority,arrival_s,admitted_s,finished_s,granted,warm_distance,best,best_mbs,mean_mbs,moved_mb,epochs,t90_s,deadline_met\n",
        );
        for o in &self.outcomes {
            o.write_csv_row(&mut out);
        }
        out
    }
}

/// Everything a fleet run produced.
#[derive(Debug)]
pub struct FleetOutcome {
    /// The deterministic report.
    pub report: FleetReport,
    /// Per-job tuner decision logs (namespaced JSONL), concatenated in
    /// job-id order. Empty when auditing is off.
    pub decisions_jsonl: String,
    /// World telemetry epochs as JSONL (the flight recorder), one line per
    /// control epoch across all transfers.
    pub telemetry_jsonl: String,
    /// Supervision events (quarantines, requeues, breaker transitions,
    /// sheds) as JSONL, in occurrence order. Empty in a quiet run.
    pub supervision_jsonl: String,
    /// Supervision event counts and the history store's skipped-line count
    /// as metric JSONL, derived from the run's events (empty in a quiet run
    /// over a clean store).
    pub metrics_jsonl: String,
    /// History records appended during this run.
    pub history_appended: usize,
}

/// How a [`FleetSim`] reaches its history store: borrowed from the caller
/// of [`FleetSim::new`] or owned outright (shard component sims, which must
/// be `'static` + `Send` to live on worker threads).
pub(crate) enum HistoryHandle<'h> {
    /// The caller's store, borrowed for the run.
    Borrowed(&'h mut HistoryStore),
    /// A store the sim owns (a [`HistoryStore::shard_snapshot`]).
    Owned(HistoryStore),
}

impl std::ops::Deref for HistoryHandle<'_> {
    type Target = HistoryStore;
    fn deref(&self) -> &HistoryStore {
        match self {
            HistoryHandle::Borrowed(h) => h,
            HistoryHandle::Owned(h) => h,
        }
    }
}

impl std::ops::DerefMut for HistoryHandle<'_> {
    fn deref_mut(&mut self) -> &mut HistoryStore {
        match self {
            HistoryHandle::Borrowed(h) => h,
            HistoryHandle::Owned(h) => h,
        }
    }
}

/// A built planet fleet: the compiled world plus the searched placement
/// table that drives job routing and breaker-aware re-routes.
pub(crate) struct PlanetFleet {
    pub(crate) pw: PlanetWorld,
    pub(crate) placement: PlacementTable,
}

impl PlanetFleet {
    /// The placement's next-ranked candidate for `route`'s pair whose links
    /// the breakers currently admit (skipping the route itself), if any.
    fn reroute_candidate(&self, route: &JobRoute, breakers: &BreakerBoard) -> Option<JobRoute> {
        let entry = self
            .placement
            .entries
            .iter()
            .find(|e| e.routes.iter().any(|r| r == route.name()))?;
        for (name, links) in entry.routes.iter().zip(&entry.links) {
            if name == route.name() || !breakers.route_admits(links) {
                continue;
            }
            let path = self.pw.catalog.route_by_name(name)?;
            return Some(JobRoute::new(name.clone(), links.clone(), path));
        }
        None
    }
}

/// The placement's *chosen* (rank-0) route for the pair owning `route_name`,
/// when it differs from `route_name` itself — the migration target after an
/// online re-search refreshed the table.
fn refreshed_route(pf: &PlanetFleet, route_name: &str) -> Option<JobRoute> {
    let entry = pf
        .placement
        .entries
        .iter()
        .find(|e| e.routes.iter().any(|r| r == route_name))?;
    let name = entry.routes.first()?;
    if name == route_name {
        return None;
    }
    let path = pf.pw.catalog.route_by_name(name)?;
    Some(JobRoute::new(name.clone(), entry.links[0].clone(), path))
}

/// The world a fleet runs against: the classic single-pipe paper testbed or
/// a compiled N-region planet. Classic keeps every constant (3 links, enum
/// route names, digest bytes) exactly as before.
pub(crate) enum FleetWorld {
    /// The paper's 3-link world (`anl->uchicago` / `anl->tacc`).
    Classic(Box<PaperWorld>),
    /// An N-region planet with a searched placement table.
    Planet(Box<PlanetFleet>),
}

impl FleetWorld {
    fn world(&self) -> &World {
        match self {
            FleetWorld::Classic(pw) => &pw.world,
            FleetWorld::Planet(pf) => &pf.pw.world,
        }
    }

    fn world_mut(&mut self) -> &mut World {
        match self {
            FleetWorld::Classic(pw) => &mut pw.world,
            FleetWorld::Planet(pf) => &mut pf.pw.world,
        }
    }

    /// Links the admission controller and breaker board must cover.
    fn nlinks(&self) -> usize {
        match self {
            FleetWorld::Classic(_) => 3,
            FleetWorld::Planet(pf) => pf.pw.catalog.nlinks,
        }
    }

    /// Start a sized transfer on `route` (by classic name or catalog path).
    fn start_sized_transfer(
        &mut self,
        route: &JobRoute,
        params: StreamParams,
        size_mb: f64,
    ) -> TransferId {
        match self {
            FleetWorld::Classic(pw) => {
                let r: Route = route
                    .name()
                    .parse()
                    .expect("classic fleet routes are paper routes");
                pw.start_sized_transfer(r, params, size_mb, NOISE_SIGMA)
            }
            FleetWorld::Planet(pf) => {
                pf.pw
                    .start_sized_transfer(route.path_index(), params, size_mb, NOISE_SIGMA)
            }
        }
    }
}

/// A job's progress across admissions: its transfers and the statistics
/// that survive a quarantine, requeue, re-route or migration. A running job
/// embeds it; the `quarantined` and `carry` maps hold it while the job is
/// off the wire (its transfer kept alive but idle, so `moved_mb` is
/// conserved).
struct JobProgress {
    tid: TransferId,
    /// Extra multipath transfers riding fallback routes (fixed params, no
    /// tuner). Always empty on the classic world and once parked.
    extra_tids: Vec<TransferId>,
    /// Megabytes moved by transfers this job abandoned on earlier routes
    /// (re-routes, migrations and multipath folds conserve bytes through
    /// this). Always 0 on the classic world, so `moved_mb` is bit-identical
    /// to the plain transfer readout there.
    moved_base: f64,
    /// Route name the live transfer was created on; a differing spec route
    /// at re-admission means the job was re-routed while queued and needs a
    /// fresh transfer for the remainder.
    route_name: String,
    /// First admission time (fleet seconds).
    admitted_s: f64,
    /// Quarantines suffered so far (0 on a first admission).
    attempts: u32,
    /// Streams of the current (or last) grant.
    granted_streams: u32,
    warm_distance: Option<f64>,
    best_mbs: f64,
    best_params: StreamParams,
    epochs_done: u32,
    /// `(epoch_end_s_rel_admission, observed_mbs)` per epoch.
    trace: Vec<(f64, f64)>,
}

impl JobProgress {
    /// Total megabytes moved: bytes abandoned on earlier routes plus every
    /// live transfer's counter. On the classic world this is exactly
    /// `moved_mb(tid)` (additive identities), preserving golden bytes.
    fn moved_mb(&self, world: &World) -> f64 {
        self.moved_base
            + world.moved_mb(self.tid)
            + self
                .extra_tids
                .iter()
                .map(|&e| world.moved_mb(e))
                .sum::<f64>()
    }

    /// Fold one closed epoch into the running statistics.
    fn record_epoch(&mut self, t: f64, report: &EpochReport) {
        self.epochs_done += 1;
        self.trace.push((t - self.admitted_s, report.observed_mbs));
        if report.observed_mbs > self.best_mbs {
            self.best_mbs = report.observed_mbs;
            self.best_params = report.params;
        }
    }
}

/// One admitted job's live state.
struct RunningJob {
    spec: JobSpec,
    progress: JobProgress,
    tuner: Box<dyn OnlineTuner + Send>,
    epoch: Option<EpochStart>,
    current: Point,
    next_epoch_end_s: f64,
    ext_streams: f64,
    monitor: HealthMonitor,
    degraded: bool,
}

impl RunningJob {
    fn params_for(&self, x: &Point) -> StreamParams {
        StreamParams::new(x[0].max(1) as u32, self.spec.np)
            .clamp_streams(self.progress.granted_streams.max(1))
    }
}

/// A quarantined job waiting out its requeue backoff.
struct QuarantinedJob {
    spec: JobSpec,
    progress: JobProgress,
    resume_at_s: f64,
}

/// One link-sharing component of a fleet, stepped one tick at a time.
/// [`ShardedFleetSim`](crate::shard::ShardedFleetSim) runs, checkpoints and
/// resumes fleets through one `FleetSim` per component; a `FleetSim` built
/// with [`FleetSim::new`] on a single-component workload produces the same
/// bytes as [`run_fleet_sharded`](crate::shard::run_fleet_sharded).
pub struct FleetSim<'h> {
    config: FleetConfig,
    /// Jobs in the workload (the report's `submitted` count).
    submitted: usize,
    world: FleetWorld,
    pending: VecDeque<JobSpec>,
    queued: JobQueue,
    running: BTreeMap<JobId, RunningJob>,
    quarantined: BTreeMap<JobId, QuarantinedJob>,
    /// Progress of requeued (or migrated) jobs currently back in the queue.
    carry: BTreeMap<JobId, JobProgress>,
    admission: AdmissionController,
    breakers: BreakerBoard,
    admitted_by_class: Vec<(u32, u32)>,
    outcomes: Vec<JobOutcome>,
    decisions: Vec<(JobId, String)>,
    events: Vec<SupervisionEvent>,
    history: HistoryHandle<'h>,
    history_appended: usize,
    /// Records appended during the current tick, drained by the sharded
    /// runner (which re-serializes them into the real store in job-id order).
    tick_appends: Vec<(JobId, HistoryRecord)>,
    /// False while the admission picture is unchanged since the last blocked
    /// admission pass; the next tick then skips the admission pick
    /// entirely. Any queue mutation, reservation release, or breaker state
    /// transition sets it (the admission loop itself has no side effects on
    /// a blocked attempt, so skipping it is byte-exact — enforced by the
    /// golden snapshots).
    admission_dirty: bool,
    last_shed_s: Vec<f64>,
    /// The self-healing control plane; `Some` only when `topo.selfheal`
    /// (quiet fleets carry no governor and keep their digests byte-stable).
    governor: Option<crate::govern::Governor>,
    tick: u64,
    t: f64,
    done: bool,
}

/// Per-site world seed: site 0 keeps the configured seed verbatim (so the
/// classic single-site fleet and its goldens see identical RNG streams);
/// other sites mix the site index in.
fn site_world_seed(seed: u64, site: u32) -> u64 {
    seed ^ (site as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

impl<'h> FleetSim<'h> {
    /// Build the simulation at tick 0.
    ///
    /// # Panics
    /// Panics when the config fails [`FleetConfig::validate`], or when the
    /// workload spans multiple sites — one `FleetSim` simulates one site's
    /// 3-link world; multi-site fleets go through
    /// [`run_fleet_sharded`](crate::shard::run_fleet_sharded).
    pub fn new(workload: &Workload, config: &FleetConfig, history: &'h mut HistoryStore) -> Self {
        Self::build(workload, config, HistoryHandle::Borrowed(history))
    }

    /// Build a simulation that owns its history store (each shard component
    /// works on its own snapshot of the backing store).
    pub(crate) fn new_owned(
        workload: &Workload,
        config: &FleetConfig,
        history: HistoryStore,
    ) -> FleetSim<'static> {
        FleetSim::build(workload, config, HistoryHandle::Owned(history))
    }

    fn build(workload: &Workload, config: &FleetConfig, history: HistoryHandle<'h>) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid fleet config: {e}");
        }
        let site = workload.jobs().first().map_or(0, |j| j.site);
        assert!(
            workload.jobs().iter().all(|j| j.site == site),
            "FleetSim simulates a single site; shard multi-site workloads \
             with run_fleet_sharded"
        );
        let world_seed = site_world_seed(config.seed, site);
        let world = match &config.topo {
            None => {
                let mut pw = PaperWorld::new(world_seed);
                pw.world.enable_telemetry();
                // Strictly opt-in: enabling faults consumes one seed from the
                // world's stream, so a fault-free fleet must not call it at
                // all (keeps no-fault runs byte-identical to pre-supervision
                // ones).
                if let Some(profile) = config.faults {
                    let plan =
                        profile.fleet_plan(world_seed, config.horizon_s, workload.len() as u64);
                    pw.world.enable_faults(plan);
                }
                FleetWorld::Classic(Box::new(pw))
            }
            Some(tc) => {
                let planet = tc.planet();
                let placement = search_routes(
                    &planet,
                    &SearchConfig {
                        k: tc.k,
                        ..SearchConfig::default()
                    },
                )
                .expect("preset planets search cleanly");
                let mut pw =
                    PlanetWorld::new(&planet, tc.k, world_seed).expect("preset planets compile");
                pw.world.enable_telemetry();
                if let Some(name) = &tc.campaign {
                    let plan = campaign_plan(&planet, name, world_seed, config.horizon_s)
                        .expect("validate checked the campaign name");
                    pw.world.enable_faults(plan);
                } else if !tc.outage_regions.is_empty() {
                    let plan = outage_plan_multi(
                        &planet,
                        &tc.outage_regions,
                        world_seed,
                        config.horizon_s,
                    );
                    pw.world.enable_faults(plan);
                }
                FleetWorld::Planet(Box::new(PlanetFleet { pw, placement }))
            }
        };
        let nlinks = world.nlinks();
        let governor = config
            .topo
            .as_ref()
            .filter(|tc| tc.selfheal)
            .map(|_| Governor::new(nlinks));
        FleetSim {
            config: config.clone(),
            submitted: workload.len(),
            world,
            pending: workload.jobs().iter().cloned().collect(),
            queued: JobQueue::new(config.policy),
            running: BTreeMap::new(),
            quarantined: BTreeMap::new(),
            carry: BTreeMap::new(),
            admission: AdmissionController::uniform(nlinks, config.link_budget),
            breakers: BreakerBoard::new(nlinks),
            admitted_by_class: Vec::new(),
            outcomes: Vec::new(),
            decisions: Vec::new(),
            events: Vec::new(),
            history,
            history_appended: 0,
            tick_appends: Vec::new(),
            admission_dirty: true,
            last_shed_s: vec![f64::NEG_INFINITY; nlinks],
            governor,
            tick: 0,
            t: 0.0,
            done: false,
        }
    }

    /// Ticks completed so far.
    pub fn tick_index(&self) -> u64 {
        self.tick
    }

    /// Read-only view of the shared transfer world (perf gates read the
    /// network's allocation-engine counters through this).
    pub fn world(&self) -> &World {
        self.world.world()
    }

    /// Retry-budget snapshot of the self-healing governor as
    /// `(tokens_available, tokens_consumed, tokens_issued)`; `None` when
    /// the control plane is off. The budget invariant is
    /// `consumed <= issued` on every tick.
    pub fn governor_snapshot(&self) -> Option<(u64, u64, u64)> {
        self.governor
            .as_ref()
            .map(|g| (g.budget.tokens(), g.budget.consumed(), g.budget.issued()))
    }

    fn push_event(
        &mut self,
        kind: &'static str,
        ns: Option<String>,
        link: Option<usize>,
        detail: String,
    ) {
        self.events.push(SupervisionEvent {
            t_s: self.t,
            kind,
            ns,
            link,
            detail,
        });
    }

    /// Advance one tick. Returns `false` once the run is finished (call
    /// [`FleetSim::finish`] to collect the outcome).
    pub fn tick(&mut self) -> bool {
        if self.done {
            return false;
        }
        self.tick_appends.clear();
        // 0. The retry budget replenishes deterministically per tick.
        if let Some(g) = &mut self.governor {
            g.budget.tick();
        }
        // 1. Arrivals (pending is sorted by (arrival, id)).
        while self
            .pending
            .front()
            .is_some_and(|j| j.arrival_s <= self.t + 1e-9)
        {
            let j = self.pending.pop_front().expect("front checked");
            self.queued.push(j);
            self.admission_dirty = true;
        }
        // 1b. Requeues: quarantined jobs whose backoff elapsed rejoin the
        // queue (in job-id order). Under the governor each requeue costs a
        // retry-budget token; jobs the budget cannot cover stay quarantined
        // and retry on a later tick (the storm cap).
        let due: Vec<JobId> = self
            .quarantined
            .iter()
            .filter(|(_, q)| q.resume_at_s <= self.t + 1e-9)
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            if let Some(g) = &mut self.governor {
                if !g.budget.try_take() {
                    break; // budget exhausted; later ids wait too
                }
            }
            let q = self.quarantined.remove(&id).expect("job is quarantined");
            self.push_event(
                "requeue",
                Some(id.to_string()),
                None,
                format!("attempt={}", q.progress.attempts),
            );
            self.carry.insert(id, q.progress);
            self.queued.push(q.spec);
            self.admission_dirty = true;
        }
        // 1c. Breakers advance (cooldowns elapse into half-open probes).
        for (l, tr) in self.breakers.tick(self.t) {
            self.push_event(tr, None, Some(l), String::new());
            self.admission_dirty = true;
        }
        // 1d. Sustained-pressure shedding.
        self.shed();
        // 1e. Breaker-aware re-route: a requeued (carried) job whose route
        // the breakers block hops to the placement's next-ranked candidate;
        // its bytes are conserved (re-admission folds the old transfer's
        // progress into `moved_base` and runs the remainder).
        if self.config.topo.as_ref().is_some_and(|t| t.reroute) {
            let moves: Vec<(u64, JobRoute)> = match &self.world {
                FleetWorld::Classic(_) => Vec::new(),
                FleetWorld::Planet(pf) => self
                    .queued
                    .iter()
                    .filter(|(_, j)| {
                        self.carry.contains_key(&j.id)
                            && !self.breakers.route_admits(j.route.links())
                    })
                    .filter_map(|(i, j)| {
                        pf.reroute_candidate(&j.route, &self.breakers)
                            .map(|r| (i, r))
                    })
                    .collect(),
            };
            for (seq, next) in moves {
                // Re-routes are retry-budget actions too: an unpayable hop
                // waits (the job keeps its blocked route and retries later).
                if let Some(g) = &mut self.governor {
                    if !g.budget.try_take() {
                        break;
                    }
                }
                let j = self.queued.get(seq);
                let id = j.id;
                let detail = format!("{}=>{}", j.route.name(), next.name());
                self.push_event("reroute", Some(id.to_string()), None, detail);
                self.queued.set_route(seq, next);
                self.admission_dirty = true;
            }
        }

        // 2. Admission: the policy's pick among breaker-admissible jobs
        // (walked in the queue's policy order), with head-of-line blocking
        // on link capacity. Skipped outright while nothing that feeds the
        // pick (queue, reservations, breaker states, admitted-by-class
        // counters) has changed since the last blocked pass: a re-run would
        // pick the same job and block the same way, with zero side effects.
        while self.admission_dirty {
            let breakers = &self.breakers;
            let Some(seq) = self.queued.pick(
                |j| breakers.route_admits(j.route.links()),
                &self.admitted_by_class,
            ) else {
                self.admission_dirty = false;
                break;
            };
            let Some(grant) = self
                .admission
                .try_admit_gated(self.queued.get(seq), &mut self.breakers)
            else {
                self.admission_dirty = false;
                break; // head-of-line blocked until a reservation frees up
            };
            let spec = self.queued.remove(seq);
            self.admit(spec, grant);
        }

        let all_done = self.pending.is_empty()
            && self.queued.is_empty()
            && self.running.is_empty()
            && self.quarantined.is_empty();
        if all_done || self.t >= self.config.horizon_s - 1e-9 {
            self.done = true;
            return false;
        }

        // 3. Advance the world one tick.
        self.world
            .world_mut()
            .step(SimDuration::from_secs_f64(self.config.tick_s));
        self.t += self.config.tick_s;
        self.tick += 1;

        // 4. Completions, in job-id order (BTreeMap iteration). A multipath
        // job finishes when every one of its transfers has.
        let finished: Vec<JobId> = {
            let w = self.world.world();
            self.running
                .iter()
                .filter(|(_, j)| {
                    let p = &j.progress;
                    w.is_done(p.tid) && p.extra_tids.iter().all(|&e| w.is_done(e))
                })
                .map(|(&id, _)| id)
                .collect()
        };
        for id in finished {
            let job = self.unwire(id);
            for &l in job.spec.route.links() {
                if let Some(tr) = self.breakers.on_success(l, self.t) {
                    self.push_event(tr, None, Some(l), String::new());
                }
            }
            let p = &job.progress;
            if p.best_mbs > 0.0 {
                let record = HistoryRecord {
                    route: job.spec.route.name().to_string(),
                    tuner: job.spec.tuner,
                    ext_streams: job.ext_streams,
                    cmp_jobs: 0.0,
                    best: vec![p.best_params.nc as i64],
                    achieved_mbs: p.best_mbs,
                    scenario: "fleet".to_string(),
                };
                self.tick_appends.push((id, record.clone()));
                self.history.append(record).expect("history append");
                self.history_appended += 1;
            }
            let o = self.outcome(
                job.spec,
                Some(&job.progress),
                JobState::Completed,
                Some(self.t),
            );
            self.outcomes.push(o);
        }

        // 5. Epoch boundaries + health verdicts, in job-id order.
        let due: Vec<JobId> = self
            .running
            .iter()
            .filter(|(_, j)| self.t + 1e-9 >= j.next_epoch_end_s)
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            let (verdict, was_degraded, route, observed) = {
                let job = self.running.get_mut(&id).expect("job is running");
                let es = job.epoch.take().expect("running job has an open epoch");
                let report = self.world.world_mut().end_epoch(es);
                job.progress.record_epoch(self.t, &report);
                let v = job.monitor.observe(report.observed_mbs);
                (v, job.degraded, job.spec.route.clone(), report.observed_mbs)
            };
            // Feed the fleet-level SLO monitor: every link this route
            // crosses saw the epoch's goodput. A zero-goodput epoch is a
            // "bad" observation; state transitions become `slo` events.
            if self.governor.is_some() {
                let bad = observed <= ZERO_FLOOR_MBS;
                for &l in route.links() {
                    let tr = self
                        .governor
                        .as_mut()
                        .expect("checked above")
                        .slo
                        .observe(l, bad);
                    if let Some((from, to)) = tr {
                        self.push_event("slo", None, Some(l), format!("{from}=>{to}"));
                    }
                }
            }
            match verdict {
                HealthVerdict::Healthy => {
                    if was_degraded {
                        self.running.get_mut(&id).expect("running").degraded = false;
                    }
                    for &l in route.links() {
                        if let Some(tr) = self.breakers.on_success(l, self.t) {
                            self.push_event(tr, None, Some(l), String::new());
                            // A state transition (half-open closing) widens
                            // what admission may grant next tick.
                            self.admission_dirty = true;
                        }
                    }
                    self.next_epoch(id, observed);
                }
                HealthVerdict::Degraded => {
                    if !was_degraded {
                        let (zr, cr) = {
                            let job = self.running.get_mut(&id).expect("running");
                            job.degraded = true;
                            (job.monitor.zero_run(), job.monitor.collapse_run())
                        };
                        self.push_event(
                            "degrade",
                            Some(id.to_string()),
                            None,
                            format!("zero_run={zr} collapse_run={cr}"),
                        );
                    }
                    self.next_epoch(id, observed);
                }
                HealthVerdict::Quarantine => self.quarantine(id),
            }
        }

        // 6. Control-plane step: the governor reacts to the SLO picture the
        // epoch boundaries just painted (no governor → no-op, keeping quiet
        // fleets byte-identical).
        self.govern_step();
        true
    }

    /// End-of-tick self-healing step (active only with `topo.selfheal`):
    /// on sustained link degradation, re-search placement against the
    /// fault-adjusted topology and migrate affected jobs; when the retry
    /// budget is dry under degradation, brown out the lowest-priority
    /// queued job on a degraded link.
    fn govern_step(&mut self) {
        let Some(g) = &self.governor else { return };
        let degraded = g.slo.degraded_links();
        if degraded.is_empty() {
            return;
        }
        if g.replan_ready(self.t) {
            self.replan(&degraded);
        }
        let g = self.governor.as_ref().expect("governor present");
        if g.budget.tokens() == 0 && g.brownout_ready(self.t) {
            self.brownout(&degraded);
        }
    }

    /// Online placement re-search (DESIGN.md §17): shrink the degraded
    /// inter-region edges of a cloned planet to 2 % capacity, re-run the
    /// coordinate descent scoped to the pairs whose chosen route crosses a
    /// degraded link, install the refreshed table, steer queued work onto
    /// it for free, and migrate running jobs (one retry-budget token each)
    /// with byte conservation through the carried `moved_base` fold.
    fn replan(&mut self, degraded: &std::collections::BTreeSet<usize>) {
        let Some(tc) = self.config.topo.clone() else {
            return;
        };
        // The fault picture: SLO-degraded links plus links whose breaker is
        // open (independent per-route failure evidence).
        let mut dead = degraded.clone();
        dead.extend(self.breakers.open_links());
        let (adjusted, affected) = {
            let FleetWorld::Planet(pf) = &self.world else {
                return;
            };
            let planet = &pf.pw.catalog.planet;
            let nregions = planet.regions.len();
            let mut adjusted = planet.clone();
            let mut shrunk = false;
            for &l in &dead {
                // NIC links (< nregions) are per-region host capacity, not
                // planet edges; a re-route cannot dodge an endpoint NIC, so
                // only inter-region edges are adjusted.
                if l >= nregions {
                    adjusted.edges[l - nregions].capacity_mbs *= 0.02;
                    shrunk = true;
                }
            }
            let affected: Vec<usize> = pf
                .placement
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.links[0].iter().any(|l| dead.contains(l)))
                .map(|(i, _)| i)
                .collect();
            if !shrunk || affected.is_empty() {
                return;
            }
            (adjusted, affected)
        };
        let search_cfg = SearchConfig {
            k: tc.k,
            ..SearchConfig::default()
        };
        {
            let FleetWorld::Planet(pf) = &mut self.world else {
                unreachable!("checked above")
            };
            let Ok(refreshed) = refine_placement(&adjusted, &pf.placement, &affected, &search_cfg)
            else {
                return; // structural drift cannot happen on a preset planet
            };
            pf.placement = refreshed;
        }
        self.governor
            .as_mut()
            .expect("governor present")
            .last_replan_s = self.t;

        // Queued jobs have no live transfer yet: steering them onto the
        // refreshed chosen routes is free (carried bytes are conserved by
        // the re-admission fold).
        let updates: Vec<(u64, JobRoute)> = {
            let FleetWorld::Planet(pf) = &self.world else {
                unreachable!("checked above")
            };
            self.queued
                .iter()
                .filter(|(_, j)| j.route.links().iter().any(|l| dead.contains(l)))
                .filter_map(|(seq, j)| refreshed_route(pf, j.route.name()).map(|r| (seq, r)))
                .collect()
        };
        for (seq, next) in updates {
            self.queued.set_route(seq, next);
            self.admission_dirty = true;
        }

        // Running jobs on a degraded link migrate onto the refreshed chosen
        // route, one budget token each (in job-id order; jobs the budget
        // cannot cover stay put and recover through the per-job watchdogs).
        let moves: Vec<(JobId, JobRoute)> = {
            let FleetWorld::Planet(pf) = &self.world else {
                unreachable!("checked above")
            };
            self.running
                .iter()
                .filter(|(_, j)| j.spec.route.links().iter().any(|l| dead.contains(l)))
                .filter_map(|(&id, j)| refreshed_route(pf, j.spec.route.name()).map(|r| (id, r)))
                .collect()
        };
        for (id, next) in moves {
            if !self
                .governor
                .as_mut()
                .expect("governor present")
                .budget
                .try_take()
            {
                break;
            }
            self.migrate(id, next);
        }
    }

    /// Pull a running job off its degraded route and requeue it on `next`:
    /// the job is parked (bytes stay counted, grant released) and its
    /// progress re-admitted through the same route-change fold a
    /// breaker-aware re-route uses — byte conservation for free.
    fn migrate(&mut self, id: JobId, next: JobRoute) {
        let (mut spec, progress) = self.park(id);
        self.push_event(
            "replan",
            Some(id.to_string()),
            None,
            format!("{}=>{}", spec.route.name(), next.name()),
        );
        spec.route = next;
        self.carry.insert(id, progress);
        self.queued.push(spec);
    }

    /// Brownout: with the retry budget dry under sustained degradation, the
    /// lowest-priority queued job crossing a degraded link is dropped (the
    /// same victim rule as `shed`, gated by the governor's brownout cooldown).
    fn brownout(&mut self, degraded: &std::collections::BTreeSet<usize>) {
        let hit = |j: &JobSpec| j.route.links().iter().any(|l| degraded.contains(l));
        if self.drop_queued("brownout", None, hit) {
            self.governor
                .as_mut()
                .expect("governor present")
                .last_brownout_s = self.t;
        }
    }

    /// Drop the lowest-priority (then highest-id) queued job that `hit`
    /// selects as `Failed`, emitting a `kind` event. Returns whether a job
    /// was dropped.
    fn drop_queued(
        &mut self,
        kind: &'static str,
        link: Option<usize>,
        hit: impl Fn(&JobSpec) -> bool,
    ) -> bool {
        let victim = self
            .queued
            .iter()
            .filter(|(_, j)| hit(j))
            .min_by_key(|(_, j)| (j.priority, std::cmp::Reverse(j.id)))
            .map(|(seq, _)| seq);
        let Some(seq) = victim else { return false };
        let spec = self.queued.remove(seq);
        self.admission_dirty = true;
        self.push_event(
            kind,
            Some(spec.id.to_string()),
            link,
            format!("priority={}", spec.priority),
        );
        let progress = self.carry.remove(&spec.id);
        let o = self.outcome(spec, progress.as_ref(), JobState::Failed, None);
        self.outcomes.push(o);
        true
    }

    /// Feed the closed epoch to the tuner and open the next one.
    fn next_epoch(&mut self, id: JobId, observed_mbs: f64) {
        let job = self.running.get_mut(&id).expect("job is running");
        let next = job.tuner.observe(&job.current.clone(), observed_mbs);
        job.current = next;
        let params = job.params_for(&job.current.clone());
        let w = self.world.world_mut();
        job.epoch = Some(w.begin_epoch(job.progress.tid, params, false));
        job.next_epoch_end_s = self.t + self.config.epoch_s;
    }

    /// Admit `spec` under `grant`: build (or rebuild) its tuner, restart or
    /// start its transfer, and open the first epoch.
    fn admit(&mut self, spec: JobSpec, grant: Reservation) {
        match self
            .admitted_by_class
            .iter_mut()
            .find(|(p, _)| *p == spec.priority)
        {
            Some((_, n)) => *n += 1,
            None => self.admitted_by_class.push((spec.priority, 1)),
        }
        let carried = self.carry.remove(&spec.id);
        // Context for the history query: external streams on the WAN link
        // before this job places any of its own — an O(1) incremental
        // readout, not a per-admission rebuild of every link's sum.
        let ext_streams = self
            .world
            .world()
            .net()
            .link_streams(xferopt_net::LinkId(spec.route.wan_link_index()));
        // Multipath splits the grant evenly across the job's routes; the
        // tuned primary keeps one share, so its domain shrinks accordingly.
        let multipath = self.config.topo.as_ref().map_or(1, |t| t.multipath);
        let share = (grant.streams / multipath).max(1);
        // Restrict the tuner's domain to the granted reservation:
        // nc ≤ granted / np, so proposals can never oversubscribe.
        let nc_hi = (share / spec.np.max(1)).max(1) as i64;
        let domain = Domain::new(&[(1, nc_hi.min(512))]);
        let cold = vec![spec.cold_start().nc as i64];
        let seed = match &carried {
            // A requeued job re-tunes from its own best-so-far (Arslan &
            // Kosar's restart-and-re-tune), clamped into the new domain.
            Some(c) if c.best_mbs > 0.0 => WarmStart::from_history(
                vec![(c.best_params.nc as i64).clamp(1, nc_hi.min(512))],
                0.0,
            ),
            _ if self.config.warm_start => warm_seed(
                self.history
                    .nearest(spec.route.name(), spec.tuner, ext_streams, 0.0, "fleet"),
                cold.clone(),
                MAX_MATCH_DISTANCE,
            ),
            _ => WarmStart::cold(cold.clone()),
        };
        let mut tuner = spec.tuner.build_seeded(domain, &seed);
        // Every job's tuner keeps an audit log, namespaced by its job id.
        tuner.enable_audit();
        if let Some(log) = tuner.audit_log_mut() {
            log.set_namespace(spec.id.to_string());
        }
        let x0 = tuner.initial();
        let restart = carried.is_some();
        let progress = match carried {
            Some(mut p) => {
                if p.route_name != spec.route.name() {
                    // Re-routed while queued: fold the abandoned
                    // transfer's bytes into moved_base and run only the
                    // remainder on the new route — bytes conserved.
                    p.moved_base += self.world.world().moved_mb(p.tid);
                    p.tid = self.world.start_sized_transfer(
                        &spec.route,
                        StreamParams::new(1, 1),
                        (spec.size_mb - p.moved_base).max(0.0),
                    );
                    p.route_name = spec.route.name().to_string();
                }
                p.granted_streams = grant.streams;
                p
            }
            None => {
                let (extra_tids, extra_mb) = self.start_multipath_extras(&spec, multipath, share);
                let tid = self.world.start_sized_transfer(
                    &spec.route,
                    StreamParams::new(1, 1), // placeholder; epoch sets real params
                    spec.size_mb - extra_mb,
                );
                JobProgress {
                    tid,
                    extra_tids,
                    moved_base: 0.0,
                    route_name: spec.route.name().to_string(),
                    admitted_s: self.t,
                    attempts: 0,
                    granted_streams: grant.streams,
                    warm_distance: seed.distance(),
                    best_mbs: 0.0,
                    best_params: spec.cold_start(),
                    epochs_done: 0,
                    trace: Vec::new(),
                }
            }
        };
        let mut job = RunningJob {
            progress,
            tuner,
            epoch: None,
            current: x0,
            next_epoch_end_s: self.t + self.config.epoch_s,
            ext_streams,
            monitor: HealthMonitor::new(),
            degraded: false,
            spec,
        };
        let params = job.params_for(&job.current.clone());
        let w = self.world.world_mut();
        job.epoch = Some(w.begin_epoch(job.progress.tid, params, restart));
        self.running.insert(job.spec.id, job);
    }

    /// Start the fixed-config extra transfers of a multipath job: one per
    /// fallback route in the placement's rank order, each carrying a slice
    /// of the job's bytes weighted by the route's search score (bottleneck
    /// capacity discounted by RTT — a fat slow detour gets more bytes than
    /// a thin fast hop, but latency still costs), and one `share`-stream
    /// config. Returns the transfer ids and the total bytes they carry (the
    /// primary runs the rest). No-op on the classic world or when the
    /// placement has no fallback for the pair.
    fn start_multipath_extras(
        &mut self,
        spec: &JobSpec,
        multipath: u32,
        share: u32,
    ) -> (Vec<TransferId>, f64) {
        if multipath <= 1 {
            return (Vec::new(), 0.0);
        }
        // `(route, weight)` per fallback, plus the primary's weight.
        let (fallbacks, primary_w): (Vec<(JobRoute, f64)>, f64) = match &self.world {
            FleetWorld::Classic(_) => (Vec::new(), 1.0),
            FleetWorld::Planet(pf) => {
                let score = |path: usize| {
                    let r = &pf.pw.catalog.routes[path];
                    r.bottleneck_mbs / (1.0 + r.rtt_ms / 100.0)
                };
                let fb = pf
                    .placement
                    .entries
                    .iter()
                    .find(|e| e.routes.iter().any(|r| r == spec.route.name()))
                    .map(|entry| {
                        entry
                            .routes
                            .iter()
                            .zip(&entry.links)
                            .filter(|(name, _)| name.as_str() != spec.route.name())
                            .take(multipath as usize - 1)
                            .filter_map(|(name, links)| {
                                pf.pw.catalog.route_by_name(name).map(|p| {
                                    (JobRoute::new(name.clone(), links.clone(), p), score(p))
                                })
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                let pw_w = pf
                    .pw
                    .catalog
                    .route_by_name(spec.route.name())
                    .map_or(1.0, score);
                (fb, pw_w)
            }
        };
        if fallbacks.is_empty() {
            return (Vec::new(), 0.0);
        }
        let total_w: f64 = primary_w + fallbacks.iter().map(|(_, w)| w).sum::<f64>();
        let nc = (share / spec.np.max(1)).max(1);
        let params = StreamParams::new(nc, spec.np);
        let mut tids = Vec::new();
        let mut extra_mb = 0.0;
        for (route, w) in &fallbacks {
            // Conservation by construction: the primary runs
            // `size_mb - extra_mb`, so the slices always sum to size_mb.
            let slice = spec.size_mb * w / total_w;
            tids.push(self.world.start_sized_transfer(route, params, slice));
            extra_mb += slice;
        }
        (tids, extra_mb)
    }

    /// Take a running job off the wire: close its open epoch, release its
    /// grant, and flush this attempt's audit log (a fresh tuner, and log, is
    /// built on any re-admission).
    fn unwire(&mut self, id: JobId) -> RunningJob {
        let mut job = self.running.remove(&id).expect("job is running");
        if let Some(es) = job.epoch.take() {
            let report = self.world.world_mut().end_epoch(es);
            job.progress.record_epoch(self.t, &report);
        }
        self.admission.release(id);
        self.admission_dirty = true;
        if let Some(log) = job.tuner.audit_log() {
            if !log.is_empty() {
                self.decisions.push((id, log.to_jsonl()));
            }
        }
        job
    }

    /// Unwire a job and keep its progress for a later re-admission (shared
    /// by `quarantine` and `migrate`). The transfer is idled (`nc = 0`), not
    /// destroyed, so `moved_mb` is conserved. Multipath extras are folded
    /// into `moved_base` and abandoned, and the primary, sized to its slice
    /// only, is folded too and replaced by one idle transfer for the whole
    /// remainder, so the abandoned slices' unmoved bytes are not stranded:
    /// a re-admitted job runs single-path.
    fn park(&mut self, id: JobId) -> (JobSpec, JobProgress) {
        let RunningJob {
            spec, mut progress, ..
        } = self.unwire(id);
        let p = &mut progress;
        let idle = StreamParams::new(0, 1);
        self.world.world_mut().set_params(p.tid, idle, false);
        let extras = std::mem::take(&mut p.extra_tids);
        if !extras.is_empty() {
            for e in extras {
                self.world.world_mut().set_params(e, idle, false);
                p.moved_base += self.world.world().moved_mb(e);
            }
            p.moved_base += self.world.world().moved_mb(p.tid);
            p.tid = self.world.start_sized_transfer(
                &spec.route,
                idle,
                (spec.size_mb - p.moved_base).max(0.0),
            );
        }
        (spec, progress)
    }

    /// Park a job whose watchdog tripped, feed the route's breakers a
    /// failure, and either schedule a requeue after the shared
    /// [`xferopt_transfer::RetryPolicy`] backoff or fail it when the attempt
    /// budget is spent.
    fn quarantine(&mut self, id: JobId) {
        let (zr, cr) = {
            let m = &self.running[&id].monitor;
            (m.zero_run(), m.collapse_run())
        };
        let (spec, mut progress) = self.park(id);
        progress.attempts += 1;
        let attempts = progress.attempts;
        self.push_event(
            "quarantine",
            Some(id.to_string()),
            None,
            format!("attempt={attempts} zero_run={zr} collapse_run={cr}"),
        );
        for &l in spec.route.links() {
            if let Some(tr) = self.breakers.on_failure(l, self.t) {
                self.push_event(tr, None, Some(l), String::new());
            }
        }
        if attempts >= MAX_ATTEMPTS {
            self.push_event(
                "job-failed",
                Some(id.to_string()),
                None,
                "attempts_exhausted".into(),
            );
            let o = self.outcome(spec, Some(&progress), JobState::Failed, None);
            self.outcomes.push(o);
            return;
        }
        // Shared backoff policy — the same RetryPolicy the transfer layer
        // uses for abort retries (see xferopt_transfer::retry).
        let mut rng = SmallRng::seed_from_u64(
            self.config.seed
                ^ 0x7265_7175_6575_7565 // "requeuue"
                ^ id.0.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ ((attempts as u64) << 32),
        );
        let delay = RetryPolicy::default().delay_s(attempts, &mut rng);
        let resume_at_s = self.t + delay;
        self.quarantined.insert(
            id,
            QuarantinedJob {
                spec,
                progress,
                resume_at_s,
            },
        );
    }

    /// Shed the lowest-priority queued job crossing a link whose breaker has
    /// been continuously unhealthy for [`SHED_AFTER_S`] (at most one job per
    /// link per interval) — graceful degradation under sustained pressure.
    fn shed(&mut self) {
        for link in 0..self.breakers.len() {
            if self.breakers.breaker(link).unhealthy_for_s(self.t) < SHED_AFTER_S {
                continue;
            }
            if self.t - self.last_shed_s[link] < SHED_AFTER_S {
                continue;
            }
            let hit = |j: &JobSpec| j.route.links().contains(&link);
            if self.drop_queued("shed", Some(link), hit) {
                self.last_shed_s[link] = self.t;
            }
        }
    }

    /// The terminal record for `spec` in `state`. `progress` is `None` for
    /// a job that never ran (caught by the horizon, or dropped while queued
    /// before its first admission).
    fn outcome(
        &self,
        spec: JobSpec,
        progress: Option<&JobProgress>,
        state: JobState,
        finished_s: Option<f64>,
    ) -> JobOutcome {
        let deadline_met = spec
            .deadline_s
            .map(|d| state == JobState::Completed && finished_s.is_some_and(|f| f <= d + 1e-9));
        let Some(p) = progress else {
            return JobOutcome {
                id: spec.id,
                state,
                admitted_s: None,
                finished_s,
                granted_streams: 0,
                moved_mb: 0.0,
                mean_mbs: 0.0,
                best_mbs: 0.0,
                best_params: spec.cold_start(),
                epochs: 0,
                warm_distance: None,
                time_to_90_s: None,
                deadline_met,
                spec,
            };
        };
        let moved_mb = p.moved_mb(self.world.world());
        let elapsed_s = (self.t - p.admitted_s).max(self.config.tick_s);
        let threshold = 0.9 * p.best_mbs;
        let time_to_90_s = p
            .trace
            .iter()
            .find(|(_, mbs)| *mbs >= threshold && *mbs > 0.0)
            .map(|(dt, _)| *dt);
        JobOutcome {
            id: spec.id,
            state,
            admitted_s: Some(p.admitted_s),
            finished_s,
            granted_streams: p.granted_streams,
            moved_mb,
            mean_mbs: moved_mb / elapsed_s,
            best_mbs: p.best_mbs,
            best_params: p.best_params,
            epochs: p.epochs_done,
            warm_distance: p.warm_distance,
            time_to_90_s,
            deadline_met,
            spec,
        }
    }

    /// Records appended to the history store during the last completed tick,
    /// in completion (job-id) order. The sharded runner drains this every
    /// tick to serialize all shards' appends into the real store.
    pub(crate) fn take_tick_appends(&mut self) -> Vec<(JobId, HistoryRecord)> {
        std::mem::take(&mut self.tick_appends)
    }

    /// Deterministic digest of the live state (checkpoint verification).
    pub(crate) fn state_digest(&self) -> String {
        let mut s = String::new();
        self.write_digest(&mut s)
            .expect("writing to a String cannot fail");
        s
    }

    /// Write [`FleetSim::state_digest`]'s bytes to `out`, so a hash sink can
    /// take them without the `String`.
    pub(crate) fn write_digest(&self, out: &mut impl fmt::Write) -> fmt::Result {
        /// Write `items` to `out` with `sep` between each two.
        fn join(
            out: &mut impl fmt::Write,
            items: impl IntoIterator<Item = impl fmt::Display>,
            sep: char,
        ) -> fmt::Result {
            for (i, v) in items.into_iter().enumerate() {
                if i > 0 {
                    out.write_char(sep)?;
                }
                write!(out, "{v}")?;
            }
            Ok(())
        }
        write!(out, "tick={};t={};pending=", self.tick, json_f64(self.t))?;
        join(out, self.pending.iter().map(|j| j.id.0), ',')?;
        out.write_str(";queued=")?;
        join(out, self.queued.iter().map(|(_, j)| j.id.0), ',')?;
        out.write_char(';')?;
        for (id, j) in &self.running {
            write!(
                out,
                "r{}:e{}:m{}:x",
                id.0,
                j.progress.epochs_done,
                json_f64(j.progress.moved_mb(self.world.world())),
            )?;
            join(out, j.current.iter(), '/')?;
            write!(out, ":g{};", j.progress.granted_streams)?;
        }
        for (id, q) in &self.quarantined {
            write!(
                out,
                "q{}:a{}:u{};",
                id.0,
                q.progress.attempts,
                json_f64(q.resume_at_s)
            )?;
        }
        for (id, c) in &self.carry {
            write!(out, "c{}:a{};", id.0, c.attempts)?;
        }
        out.write_str("res=")?;
        let nlinks = self.breakers.len();
        join(out, (0..nlinks).map(|l| self.admission.reserved(l)), ',')?;
        write!(out, ";brk={};", self.breakers.digest())?;
        for (p, n) in &self.admitted_by_class {
            write!(out, "cls{p}:{n};")?;
        }
        if let Some(g) = &self.governor {
            write!(out, "gov={};", g.digest())?;
        }
        write!(
            out,
            "out={};dec={};ev={};hist={};sup={}",
            self.outcomes.len(),
            self.decisions.len(),
            self.events.len(),
            self.history_appended,
            SupervisionSummary::from_events(&self.events).render(),
        )
    }

    /// Close out the run and assemble the outcome. Jobs still running are
    /// `Unfinished`; quarantined or requeued-but-not-readmitted jobs are
    /// `Unfinished` with their carried statistics; never-admitted jobs stay
    /// `Queued`/`Pending`.
    pub fn finish(self) -> FleetOutcome {
        self.finish_parts().into_outcome()
    }

    /// Close out the run into structured parts (the sharded runner merges
    /// per-component parts with deterministic keys before rendering;
    /// [`FleetSim::finish`] renders them directly, so both share one
    /// formatter).
    pub(crate) fn finish_parts(mut self) -> FleetParts {
        let ids: Vec<JobId> = self.running.keys().copied().collect();
        for id in ids {
            let job = self.unwire(id);
            let o = self.outcome(job.spec, Some(&job.progress), JobState::Unfinished, None);
            self.outcomes.push(o);
        }
        for q in std::mem::take(&mut self.quarantined).into_values() {
            let o = self.outcome(q.spec, Some(&q.progress), JobState::Unfinished, None);
            self.outcomes.push(o);
        }
        let queued = std::mem::replace(&mut self.queued, JobQueue::new(self.config.policy));
        for spec in queued.into_jobs() {
            let progress = self.carry.remove(&spec.id);
            let state = if progress.is_some() {
                JobState::Unfinished
            } else {
                JobState::Queued
            };
            let o = self.outcome(spec, progress.as_ref(), state, None);
            self.outcomes.push(o);
        }
        for spec in std::mem::take(&mut self.pending) {
            let o = self.outcome(spec, None, JobState::Pending, None);
            self.outcomes.push(o);
        }
        self.outcomes.sort_by_key(|o| o.id);
        self.decisions.sort_by_key(|(id, _)| *id);

        let telemetry = self
            .world
            .world_mut()
            .take_telemetry()
            .map(|tel| {
                tel.epochs()
                    .iter()
                    .map(|e| (e.start_s, e.to_json()))
                    .collect()
            })
            .unwrap_or_default();

        FleetParts {
            config: self.config,
            submitted: self.submitted,
            outcomes: self.outcomes,
            decisions: self.decisions,
            telemetry,
            events: self.events,
            history_skipped: self.history.skipped(),
            history_appended: self.history_appended,
        }
    }
}

/// Structured output of one finished [`FleetSim`]: everything a
/// [`FleetOutcome`] renders, before rendering. Component parts of a sharded
/// run are merged field-by-field with deterministic ordering keys (job id
/// for outcomes/decisions, epoch start time for telemetry, event time for
/// supervision — component order breaks ties) and then rendered through the
/// same formatter as [`FleetSim::finish`].
pub(crate) struct FleetParts {
    pub(crate) config: FleetConfig,
    pub(crate) submitted: usize,
    pub(crate) outcomes: Vec<JobOutcome>,
    pub(crate) decisions: Vec<(JobId, String)>,
    /// `(epoch start_s, rendered JSON line)` in the world's recording order.
    pub(crate) telemetry: Vec<(f64, String)>,
    pub(crate) events: Vec<SupervisionEvent>,
    /// Malformed lines skipped when the history store was loaded (every
    /// component of a sharded run works on a snapshot of the same store).
    pub(crate) history_skipped: usize,
    pub(crate) history_appended: usize,
}

impl FleetParts {
    /// Render into the public [`FleetOutcome`] form.
    pub(crate) fn into_outcome(self) -> FleetOutcome {
        let mut telemetry_jsonl = String::new();
        for (_, line) in &self.telemetry {
            telemetry_jsonl.push_str(line);
            telemetry_jsonl.push('\n');
        }
        let mut supervision_jsonl = String::new();
        for e in &self.events {
            supervision_jsonl.push_str(&e.to_json());
            supervision_jsonl.push('\n');
        }
        let metrics_jsonl = metrics_jsonl(&self.events, self.history_skipped);
        FleetOutcome {
            report: FleetReport {
                config: self.config,
                submitted: self.submitted,
                outcomes: self.outcomes,
                supervision: SupervisionSummary::from_events(&self.events),
            },
            decisions_jsonl: self.decisions.into_iter().map(|(_, s)| s).collect(),
            telemetry_jsonl,
            supervision_jsonl,
            metrics_jsonl,
            history_appended: self.history_appended,
        }
    }
}

/// The fleet's metrics, derived from its supervision events and its
/// history store's skipped-line count: one `fleet_supervision_total`
/// counter per event kind and a `history_lines_skipped` gauge, each present
/// only when non-zero. Empty in a quiet run.
fn metrics_jsonl(events: &[SupervisionEvent], history_skipped: usize) -> String {
    let mut reg = MetricsRegistry::new();
    for e in events {
        reg.counter("fleet_supervision_total", &[("event", e.kind)])
            .inc();
    }
    if history_skipped > 0 {
        reg.gauge("history_lines_skipped", &[])
            .set(history_skipped as f64);
    }
    reg.snapshot().to_jsonl()
}

/// A deterministic planet workload: `n` jobs round-robin over the
/// placement's pairs, each on its pair's chosen (rank-0 of the re-route
/// order) route with the searched stream shape. Sizes cycle a small
/// deterministic grid so admissions and completions interleave.
///
/// # Panics
/// Panics when the placement is empty or references a route missing from
/// the catalog (both impossible for a table searched on the same planet).
pub fn topo_workload(placement: &PlacementTable, catalog: &RouteCatalog, n: usize) -> Workload {
    assert!(!placement.entries.is_empty(), "placement has no pairs");
    let jobs = (0..n)
        .map(|i| {
            let e = &placement.entries[i % placement.entries.len()];
            let name = e.routes.first().expect("placement entry has a route");
            let path = catalog
                .route_by_name(name)
                .expect("placement route in catalog");
            let route = JobRoute::new(name.clone(), e.links[0].clone(), path);
            let size = 30_000.0 + 10_000.0 * ((i * 7 + 3) % 5) as f64;
            let wave = (i / placement.entries.len()) as f64;
            JobSpec::new(i as u64, wave * 120.0, size)
                .with_route(route)
                .with_np(e.np)
                .with_max_streams((e.nc * e.np).max(8))
        })
        .collect();
    Workload::new(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::run_fleet_sharded;

    fn quick_config(policy: Policy) -> FleetConfig {
        FleetConfig {
            policy,
            horizon_s: 1800.0,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn contended_fleet_completes_under_every_policy() {
        for policy in Policy::all() {
            let mut h = HistoryStore::in_memory();
            let out = run_fleet_sharded(&Workload::contended(3), &quick_config(policy), &mut h, 1);
            assert_eq!(
                out.report.count(JobState::Completed),
                3,
                "policy {policy}: {}",
                out.report.render()
            );
            assert_eq!(out.history_appended, 3);
            assert!(!out.decisions_jsonl.is_empty(), "audit logs expected");
            assert!(out.decisions_jsonl.contains("\"ns\":\"job0\""));
            assert!(!out.telemetry_jsonl.is_empty(), "telemetry expected");
            // Observational-by-default: no supervision activity in a quiet
            // run, and nothing rendered about it.
            assert!(out.report.supervision.is_quiet(), "{policy}");
            assert!(out.supervision_jsonl.is_empty(), "{policy}");
            assert!(!out.report.render().contains("supervision"), "{policy}");
        }
    }

    #[test]
    fn same_seed_renders_identical_reports() {
        let cfg = quick_config(Policy::Sjf);
        let w = Workload::synthetic(8, 11);
        let a = run_fleet_sharded(&w, &cfg, &mut HistoryStore::in_memory(), 1);
        let b = run_fleet_sharded(&w, &cfg, &mut HistoryStore::in_memory(), 1);
        assert_eq!(a.report.render(), b.report.render());
        assert_eq!(a.decisions_jsonl, b.decisions_jsonl);
        assert_eq!(a.telemetry_jsonl, b.telemetry_jsonl);
        assert_eq!(a.supervision_jsonl, b.supervision_jsonl);
        assert_eq!(a.metrics_jsonl, b.metrics_jsonl);
    }

    #[test]
    fn horizon_marks_unfinished_and_queued() {
        let cfg = FleetConfig {
            horizon_s: 60.0,
            ..quick_config(Policy::Fifo)
        };
        // Two huge jobs plus one arriving after the horizon.
        let w = Workload::new(vec![
            JobSpec::new(0, 0.0, 1_000_000.0),
            JobSpec::new(1, 0.0, 1_000_000.0),
            JobSpec::new(2, 7200.0, 100.0),
        ]);
        let out = run_fleet_sharded(&w, &cfg, &mut HistoryStore::in_memory(), 1);
        assert_eq!(out.report.count(JobState::Unfinished), 2);
        assert_eq!(out.report.count(JobState::Pending), 1);
        assert_eq!(out.history_appended, 0, "unfinished jobs leave no history");
    }

    #[test]
    fn warm_start_uses_the_history_store() {
        let cfg = FleetConfig {
            warm_start: false,
            ..quick_config(Policy::Fifo)
        };
        let mut h = HistoryStore::in_memory();
        let cold = run_fleet_sharded(&Workload::contended(2), &cfg, &mut h, 1);
        assert!(cold
            .report
            .outcomes
            .iter()
            .all(|o| o.warm_distance.is_none()));
        assert!(h.len() >= 2);
        let warm_cfg = FleetConfig {
            warm_start: true,
            ..cfg
        };
        let warm = run_fleet_sharded(&Workload::contended(2), &warm_cfg, &mut h, 1);
        assert!(
            warm.report
                .outcomes
                .iter()
                .any(|o| o.warm_distance.is_some()),
            "{}",
            warm.report.render()
        );
    }

    #[test]
    fn csv_has_a_row_per_job() {
        let out = run_fleet_sharded(
            &Workload::contended(2),
            &quick_config(Policy::Fifo),
            &mut HistoryStore::in_memory(),
            1,
        );
        let csv = out.report.to_csv();
        assert_eq!(csv.lines().count(), 3, "{csv}");
        assert!(csv.starts_with("job,state,route"));
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn misaligned_tick_is_rejected() {
        let cfg = FleetConfig {
            tick_s: 7.0,
            ..FleetConfig::default()
        };
        run_fleet_sharded(
            &Workload::contended(1),
            &cfg,
            &mut HistoryStore::in_memory(),
            1,
        );
    }

    #[test]
    fn tick_and_job_caps_are_inclusive() {
        let at_cap = FleetConfig {
            horizon_s: MAX_TICKS as f64,
            tick_s: 1.0,
            epoch_s: 1.0,
            ..FleetConfig::default()
        };
        assert_eq!(at_cap.validate(), Ok(()));
        let over = FleetConfig {
            horizon_s: MAX_TICKS as f64 + 1.0,
            ..at_cap
        };
        assert!(matches!(
            over.validate(),
            Err(ConfigError::TooManyTicks { .. })
        ));
        assert_eq!(check_job_count(MAX_JOBS), Ok(()));
        assert_eq!(
            check_job_count(MAX_JOBS + 1),
            Err(ConfigError::TooManyJobs(MAX_JOBS + 1))
        );
    }

    #[test]
    fn stepwise_sim_matches_one_shot_run() {
        let cfg = quick_config(Policy::Sjf);
        let w = Workload::synthetic(6, 3);
        let one = run_fleet_sharded(&w, &cfg, &mut HistoryStore::in_memory(), 1);
        let mut h = HistoryStore::in_memory();
        let mut sim = FleetSim::new(&w, &cfg, &mut h);
        let mut ticks = 0u64;
        while sim.tick() {
            ticks += 1;
            assert_eq!(sim.tick_index(), ticks);
        }
        let step = sim.finish();
        assert_eq!(one.report.render(), step.report.render());
        assert_eq!(one.decisions_jsonl, step.decisions_jsonl);
        assert_eq!(one.telemetry_jsonl, step.telemetry_jsonl);
    }

    #[test]
    fn chaos_run_quarantines_and_recovers() {
        let cfg = FleetConfig {
            faults: Some(FaultProfile::FlakyLink),
            horizon_s: 7200.0,
            ..quick_config(Policy::Fifo)
        };
        // Big enough that the fleet is still on the wire when the plan's
        // long (multi-epoch) outages land.
        let w = Workload::new(
            (0..4)
                .map(|i| JobSpec::new(i, i as f64 * 60.0, 2_000_000.0))
                .collect(),
        );
        let out = run_fleet_sharded(&w, &cfg, &mut HistoryStore::in_memory(), 1);
        // No job is lost: every admitted job ends terminal.
        for o in &out.report.outcomes {
            assert!(
                matches!(o.state, JobState::Completed | JobState::Failed),
                "{} stuck in {}:\n{}",
                o.id,
                o.state.name(),
                out.report.render()
            );
        }
        assert!(
            out.report.supervision.quarantines > 0,
            "flaky-link must trip the watchdog:\n{}",
            out.report.render()
        );
        assert!(out.report.render().contains("supervision "));
        assert!(!out.supervision_jsonl.is_empty());
        assert!(out.metrics_jsonl.contains("fleet_supervision_total"));
    }
}
