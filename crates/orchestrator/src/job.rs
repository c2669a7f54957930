//! Transfer jobs and deterministic workloads.
//!
//! A fleet run is driven by a [`Workload`]: a fixed list of [`JobSpec`]s with
//! arrival times, sizes, priorities, and optional deadlines. Workloads are
//! either constructed explicitly or generated deterministically from a seed
//! ([`Workload::synthetic`]), so two runs with the same seed see byte-for-byte
//! the same job stream.
//!
//! Job lifecycle (see DESIGN.md §11 and the supervision extension in §12):
//!
//! ```text
//! Pending ──arrival──▶ Queued ──admission──▶ Running ──all bytes──▶ Completed
//!                        ▲                      │
//!                        │                      ├──horizon reached──▶ Unfinished
//!                        │                      │
//!                        │   watchdog trip      ▼
//!                        │  (zero-throughput / collapse)
//!                        │                  Degraded ──▶ Quarantined
//!                        │                                  │
//!                        └────── Requeued (backoff) ◀───────┤
//!                                                           └──attempts
//!                                                              exhausted──▶ Failed
//! ```

use std::sync::Arc;

use crate::route::JobRoute;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xferopt_scenarios::Route;
use xferopt_transfer::StreamParams;
use xferopt_tuners::TunerKind;

/// Identifier of a job within one fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Lifecycle state of a job (reported, not stored — the orchestrator keeps
/// jobs in per-state collections).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Not yet arrived.
    Pending,
    /// Arrived, awaiting admission.
    Queued,
    /// Admitted; its transfer is moving bytes.
    Running,
    /// Admitted but the health watchdog has flagged its throughput (first
    /// strike; still on the wire).
    Degraded,
    /// Pulled off the wire by the watchdog; its admission grant is released
    /// and it waits out an exponential backoff before requeueing.
    Quarantined,
    /// All bytes moved.
    Completed,
    /// Horizon reached before completion.
    Unfinished,
    /// Retry attempt budget exhausted (terminal; see DESIGN.md §12).
    Failed,
}

impl JobState {
    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Pending => "pending",
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Degraded => "degraded",
            JobState::Quarantined => "quarantined",
            JobState::Completed => "completed",
            JobState::Unfinished => "unfinished",
            JobState::Failed => "failed",
        }
    }

    /// True for states a job can never leave.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Unfinished | JobState::Failed
        )
    }
}

/// One transfer job submitted to the fleet.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Fleet-unique id (also the flow tag on the wire).
    pub id: JobId,
    /// Arrival time, seconds from fleet start. Must be a multiple of the
    /// orchestrator tick for exact event alignment.
    pub arrival_s: f64,
    /// Dataset size in MB.
    pub size_mb: f64,
    /// Weighted-fair class weight (higher = bigger share of admissions).
    pub priority: u32,
    /// Optional completion deadline (absolute fleet time, seconds).
    pub deadline_s: Option<f64>,
    /// Route of the transfer (variable-length link list + sim path; classic
    /// fleets build it from the two-variant [`Route`] enum).
    pub route: JobRoute,
    /// Per-job online tuner strategy.
    pub tuner: TunerKind,
    /// Fixed parallelism; the tuner drives concurrency over `nc × np`.
    pub np: u32,
    /// Stream reservation requested from admission control (caps the tuner's
    /// domain so the job can never exceed its granted share).
    pub max_streams: u32,
    /// Testbed site (independent replica of the paper's 3-link topology)
    /// the job transfers from. Jobs on different sites share no link, so the
    /// sharded runner simulates each site as its own connected component
    /// (see DESIGN.md §15). Site 0 is the classic single-site fleet.
    pub site: u32,
}

impl JobSpec {
    /// A job with the fleet defaults: UChicago route, compass-search tuner,
    /// `np = 8`, 128-stream reservation, priority 1, no deadline.
    pub fn new(id: u64, arrival_s: f64, size_mb: f64) -> Self {
        assert!(arrival_s >= 0.0, "arrival must be non-negative");
        assert!(size_mb > 0.0, "size must be positive");
        JobSpec {
            id: JobId(id),
            arrival_s,
            size_mb,
            priority: 1,
            deadline_s: None,
            route: Route::UChicago.into(),
            tuner: TunerKind::Cs,
            np: 8,
            max_streams: 128,
            site: 0,
        }
    }

    /// Replace the route (accepts the classic [`Route`] enum or a full
    /// [`JobRoute`]).
    pub fn with_route(mut self, route: impl Into<JobRoute>) -> Self {
        self.route = route.into();
        self
    }

    /// Replace the tuner.
    pub fn with_tuner(mut self, tuner: TunerKind) -> Self {
        self.tuner = tuner;
        self
    }

    /// Replace the priority weight (≥ 1).
    pub fn with_priority(mut self, priority: u32) -> Self {
        assert!(priority >= 1, "priority weight must be >= 1");
        self.priority = priority;
        self
    }

    /// Set a completion deadline (absolute fleet time, seconds).
    pub fn with_deadline_s(mut self, deadline_s: f64) -> Self {
        self.deadline_s = Some(deadline_s);
        self
    }

    /// Replace the stream reservation.
    pub fn with_max_streams(mut self, max_streams: u32) -> Self {
        assert!(max_streams >= 1, "reservation must be >= 1 stream");
        self.max_streams = max_streams;
        self
    }

    /// Replace the fixed parallelism.
    pub fn with_np(mut self, np: u32) -> Self {
        assert!(np >= 1, "np must be >= 1");
        self.np = np;
        self
    }

    /// Place the job on a testbed site (an independent replica of the
    /// 3-link paper topology). Jobs on different sites never share a link.
    pub fn with_site(mut self, site: u32) -> Self {
        self.site = site;
        self
    }

    /// The starting parameters a cold job uses (the Globus default, clamped
    /// into the job's stream reservation).
    pub fn cold_start(&self) -> StreamParams {
        StreamParams::globus_default().clamp_streams(self.max_streams)
    }
}

/// A fixed list of jobs, sorted by `(arrival, id)`. The list is shared, so
/// a clone (the checkpoint writer's, a parsed journal's) copies no job. It
/// is an `Arc<Vec<_>>` rather than an `Arc<[_]>`, because moving a `Vec`
/// into an `Arc<[_]>` copies every job once more.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    jobs: Arc<Vec<JobSpec>>,
}

impl Workload {
    /// Build from explicit specs (sorted by arrival, then id; ids must be
    /// unique).
    ///
    /// # Panics
    /// Panics on duplicate job ids.
    pub fn new(mut jobs: Vec<JobSpec>) -> Self {
        jobs.sort_by(|a, b| {
            a.arrival_s
                .partial_cmp(&b.arrival_s)
                .expect("arrival times must be comparable")
                .then(a.id.cmp(&b.id))
        });
        for w in jobs.windows(2) {
            assert!(w[0].id != w[1].id, "duplicate job id {}", w[0].id);
        }
        let mut seen: Vec<u64> = jobs.iter().map(|j| j.id.0).collect();
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() == jobs.len(), "duplicate job ids in workload");
        Workload {
            jobs: Arc::new(jobs),
        }
    }

    /// A deterministic synthetic workload: `n` jobs with seeded arrivals
    /// (integer seconds over the first 10 minutes), log-spread sizes
    /// (10–320 GB), priorities 1–4, a mix of tuners and routes, and
    /// deadlines on roughly a third of the jobs.
    pub fn synthetic(n: usize, seed: u64) -> Self {
        Workload::new(synthetic_jobs(n, seed))
    }

    /// [`Workload::synthetic`] spread round-robin over `sites` independent
    /// testbed sites: job `i` keeps its synthetic spec but runs at site
    /// `i % sites`. With `sites == 1` this is exactly [`Workload::synthetic`]
    /// (every job at site 0), so single-site callers see unchanged bytes.
    pub fn synthetic_sites(n: usize, seed: u64, sites: u32) -> Self {
        assert!(sites >= 1, "need at least one site");
        let mut jobs = synthetic_jobs(n, seed);
        if sites > 1 {
            for j in &mut jobs {
                j.site = (j.id.0 % sites as u64) as u32;
            }
        }
        Workload::new(jobs)
    }

    /// The queue-depth workload of `tests/perf_gates.rs`: `n` identical
    /// long jobs over `sites` sites. 90% of the jobs are preloaded at `t = 0` (a deep
    /// standing queue — the admission-bound regime a 100k-job fleet lives
    /// in) and the rest arrive one per 5 s tick, cycling sites, so each
    /// tick perturbs exactly one site's admission state — the event-locality
    /// pattern the sharded runner exploits (DESIGN.md §15). Sizes are large
    /// enough that nothing completes inside a bounded measurement window.
    pub fn fleet_scale(n: usize, sites: u32) -> Self {
        assert!(sites >= 1, "need at least one site");
        let preload = n * 9 / 10;
        Workload::new(
            (0..n)
                .map(|i| {
                    let arrival = if i < preload {
                        0.0
                    } else {
                        (i - preload) as f64 * 5.0
                    };
                    JobSpec::new(i as u64, arrival, 400_000.0)
                        .with_tuner(TunerKind::Cs)
                        .with_site(i as u32 % sites)
                })
                .collect(),
        )
    }

    /// The golden contention scenario: `n` identical compass-search jobs on
    /// the shared UChicago route, arriving 60 s apart, 600 GB each (several
    /// minutes of transfer, so every job lives through many control epochs).
    /// Used by the warm-vs-cold experiments: each job's context (streams
    /// already on the link) repeats, so history matches are close.
    pub fn contended(n: usize) -> Self {
        Workload::new(
            (0..n)
                .map(|i| {
                    JobSpec::new(i as u64, i as f64 * 60.0, 600_000.0)
                        .with_tuner(TunerKind::Cs)
                        .with_max_streams(128)
                })
                .collect(),
        )
    }

    /// The jobs, sorted by `(arrival, id)`.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the workload has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// The jobs of [`Workload::synthetic`], in generation (id) order.
fn synthetic_jobs(n: usize, seed: u64) -> Vec<JobSpec> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6f72_6368); // "orch"
    let tuners = [TunerKind::Cs, TunerKind::Nm, TunerKind::Cd, TunerKind::Cs];
    let mut jobs = Vec::with_capacity(n);
    for i in 0..n {
        let arrival = rng.gen_range(0u32..120) as f64 * 5.0;
        let size_mb = 10_000.0 * 2f64.powi(rng.gen_range(0i32..6));
        let priority = rng.gen_range(1u32..=4);
        let route = if rng.gen_range(0u32..10) < 7 {
            Route::UChicago
        } else {
            Route::Tacc
        };
        let max_streams = [64u32, 128, 256][rng.gen_range(0usize..3)];
        let mut spec = JobSpec::new(i as u64, arrival, size_mb)
            .with_tuner(tuners[i % tuners.len()])
            .with_priority(priority)
            .with_route(route)
            .with_max_streams(max_streams);
        if rng.gen_range(0u32..3) == 0 {
            // Generous deadline: arrival + size at a pessimistic 500 MB/s.
            spec = spec.with_deadline_s(arrival + size_mb / 500.0 + 300.0);
        }
        jobs.push(spec);
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_deterministic_and_sorted() {
        let a = Workload::synthetic(20, 7);
        let b = Workload::synthetic(20, 7);
        assert_eq!(a.len(), 20);
        for (x, y) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.arrival_s, y.arrival_s);
            assert_eq!(x.size_mb, y.size_mb);
            assert_eq!(x.priority, y.priority);
            assert_eq!(x.tuner, y.tuner);
            assert_eq!(x.max_streams, y.max_streams);
        }
        for w in a.jobs().windows(2) {
            assert!(w[0].arrival_s <= w[1].arrival_s, "sorted by arrival");
        }
        // Different seeds differ somewhere.
        let c = Workload::synthetic(20, 8);
        assert!(a
            .jobs()
            .iter()
            .zip(c.jobs())
            .any(|(x, y)| x.arrival_s != y.arrival_s || x.size_mb != y.size_mb));
    }

    #[test]
    fn synthetic_arrivals_align_to_five_second_ticks() {
        for j in Workload::synthetic(50, 3).jobs() {
            assert_eq!(j.arrival_s % 5.0, 0.0, "arrival {} off-tick", j.arrival_s);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate job id")]
    fn duplicate_ids_rejected() {
        Workload::new(vec![
            JobSpec::new(1, 0.0, 100.0),
            JobSpec::new(1, 5.0, 100.0),
        ]);
    }

    #[test]
    fn cold_start_respects_reservation() {
        let j = JobSpec::new(0, 0.0, 100.0).with_max_streams(8).with_np(8);
        assert_eq!(j.cold_start(), StreamParams::new(1, 8));
        let j = JobSpec::new(0, 0.0, 100.0);
        assert_eq!(j.cold_start(), StreamParams::globus_default());
    }

    #[test]
    fn state_names_are_stable() {
        assert_eq!(JobState::Pending.name(), "pending");
        assert_eq!(JobState::Queued.name(), "queued");
        assert_eq!(JobState::Running.name(), "running");
        assert_eq!(JobState::Degraded.name(), "degraded");
        assert_eq!(JobState::Quarantined.name(), "quarantined");
        assert_eq!(JobState::Completed.name(), "completed");
        assert_eq!(JobState::Unfinished.name(), "unfinished");
        assert_eq!(JobState::Failed.name(), "failed");
        assert!(JobState::Completed.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(!JobState::Quarantined.is_terminal());
        assert_eq!(JobId(3).to_string(), "job3");
    }

    #[test]
    fn contended_workload_shapes_the_golden_scenario() {
        let w = Workload::contended(5);
        assert_eq!(w.len(), 5);
        for (i, j) in w.jobs().iter().enumerate() {
            assert_eq!(j.arrival_s, i as f64 * 60.0);
            assert_eq!(j.route, Route::UChicago);
            assert_eq!(j.tuner, TunerKind::Cs);
        }
    }
}
