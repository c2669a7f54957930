//! Per-job health watchdogs (DESIGN.md §12).
//!
//! Every admitted job gets a [`HealthMonitor`] fed with one sample per
//! closed control epoch. The monitor tracks two failure signals:
//!
//! * **zero-throughput epochs** — consecutive epochs in which the transfer
//!   moved (essentially) nothing, the signature of a flapped link, a stalled
//!   server, or an abort/backoff loop that outlives the epoch; and
//! * **throughput collapse** — the observed rate falling below a small
//!   fraction of the job's *own* trailing mean, which catches brown-outs
//!   that never quite reach zero.
//!
//! Verdicts drive the extended job state machine
//!
//! ```text
//! Running ──degrade──▶ Degraded ──persist──▶ Quarantined ──backoff──▶ Requeued
//!    ▲                    │                      │
//!    └──────recover───────┘                      └──attempt budget──▶ Failed
//! ```
//!
//! Quarantine releases the job's admission grant (so a sick job never camps
//! on link budget) and schedules a requeue after a
//! [`xferopt_transfer::RetryPolicy`] exponential backoff — the *same* policy
//! type the transfer layer uses for abort retries, not a second
//! implementation. Thresholds are deliberately conservative: with supervision
//! enabled and no fault plan, epoch noise and fleet contention never trip the
//! watchdog, so fleet reports stay byte-identical to unsupervised runs
//! (enforced by the golden snapshots).

use xferopt_simcore::json::object;

/// Consecutive zero-throughput epochs before quarantine.
const ZERO_EPOCH_LIMIT: u32 = 2;
/// An epoch below `COLLAPSE_RATIO × trailing mean` counts as collapsed.
const COLLAPSE_RATIO: f64 = 0.05;
/// Consecutive collapsed epochs before quarantine.
const COLLAPSE_EPOCH_LIMIT: u32 = 3;
/// Trailing-mean window, in epochs.
const TRAILING_WINDOW: usize = 4;
/// Throughput at or below this absolute floor (MB/s) counts as zero.
pub(crate) const ZERO_FLOOR_MBS: f64 = 1e-6;
/// Requeue attempts allowed before a quarantined job is failed outright.
/// The backoff between quarantine and requeue is the transfer layer's
/// default [`xferopt_transfer::RetryPolicy`].
pub(crate) const MAX_ATTEMPTS: u32 = 3;

/// Watchdog health state of a running job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Throughput within expectations.
    Healthy,
    /// At least one bad epoch in the current run of bad epochs.
    Degraded,
}

/// What the supervisor should do after one observed epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthVerdict {
    /// Keep running.
    Healthy,
    /// Keep running but mark degraded (first bad epochs of a run).
    Degraded,
    /// Pull the job: release its grant and requeue (or fail) it.
    Quarantine,
}

/// Per-job throughput watchdog. Feed it one observation per closed control
/// epoch via [`HealthMonitor::observe`]; it answers with a [`HealthVerdict`].
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    /// Trailing window of healthy observations (ring, [`TRAILING_WINDOW`]
    /// long).
    trailing: Vec<f64>,
    /// Next slot to overwrite once the ring is full.
    cursor: usize,
    zero_run: u32,
    collapse_run: u32,
    state: HealthState,
}

impl Default for HealthMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl HealthMonitor {
    /// A fresh monitor (also used when a requeued job is re-admitted — the
    /// old trailing mean belongs to pre-quarantine conditions).
    pub fn new() -> Self {
        HealthMonitor {
            trailing: Vec::with_capacity(TRAILING_WINDOW),
            cursor: 0,
            zero_run: 0,
            collapse_run: 0,
            state: HealthState::Healthy,
        }
    }

    /// Current watchdog state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Mean of the trailing healthy observations (`None` until one exists).
    pub fn trailing_mean(&self) -> Option<f64> {
        if self.trailing.is_empty() {
            None
        } else {
            Some(self.trailing.iter().sum::<f64>() / self.trailing.len() as f64)
        }
    }

    /// Consecutive zero-throughput epochs observed so far.
    pub fn zero_run(&self) -> u32 {
        self.zero_run
    }

    /// Consecutive collapsed epochs observed so far.
    pub fn collapse_run(&self) -> u32 {
        self.collapse_run
    }

    /// Feed one closed epoch's observed throughput; returns the verdict.
    pub fn observe(&mut self, observed_mbs: f64) -> HealthVerdict {
        if observed_mbs <= ZERO_FLOOR_MBS {
            self.zero_run += 1;
            self.collapse_run = 0;
            self.state = HealthState::Degraded;
            return if self.zero_run >= ZERO_EPOCH_LIMIT {
                HealthVerdict::Quarantine
            } else {
                HealthVerdict::Degraded
            };
        }
        let collapsed = self
            .trailing_mean()
            .is_some_and(|m| observed_mbs < COLLAPSE_RATIO * m);
        if collapsed {
            self.zero_run = 0;
            self.collapse_run += 1;
            self.state = HealthState::Degraded;
            return if self.collapse_run >= COLLAPSE_EPOCH_LIMIT {
                HealthVerdict::Quarantine
            } else {
                HealthVerdict::Degraded
            };
        }
        // Healthy observation: reset runs, fold into the trailing window.
        self.zero_run = 0;
        self.collapse_run = 0;
        self.state = HealthState::Healthy;
        if self.trailing.len() < TRAILING_WINDOW {
            self.trailing.push(observed_mbs);
        } else {
            self.trailing[self.cursor] = observed_mbs;
            self.cursor = (self.cursor + 1) % TRAILING_WINDOW;
        }
        HealthVerdict::Healthy
    }
}

/// One supervision event (quarantine, requeue, breaker transition, shed,
/// checkpoint, resume), rendered into the namespaced supervision JSONL and
/// counted into the telemetry registry.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisionEvent {
    /// Fleet time, seconds.
    pub t_s: f64,
    /// Event kind (stable label: `degrade`, `quarantine`, `requeue`,
    /// `job-failed`, `breaker-open`, `breaker-half-open`, `breaker-close`,
    /// `shed`, `reroute`, `replan`, `brownout`, `slo`).
    pub kind: &'static str,
    /// Job namespace (`jobN`), when the event concerns one job.
    pub ns: Option<String>,
    /// Link index, when the event concerns one link.
    pub link: Option<usize>,
    /// Free-form detail (deterministic text only).
    pub detail: String,
}

impl SupervisionEvent {
    /// Render as one JSON line with fixed key order (optional keys are
    /// omitted, mirroring the tuner audit log's namespace convention).
    pub fn to_json(&self) -> String {
        object(|o| {
            o.str("kind", "supervision");
            o.f64("t_s", self.t_s);
            o.str("event", self.kind);
            if let Some(ns) = &self.ns {
                o.str("ns", ns);
            }
            if let Some(link) = self.link {
                o.raw("link", link);
            }
            if !self.detail.is_empty() {
                o.str("detail", &self.detail);
            }
        })
    }
}

/// Deterministic counters summarizing one fleet run's supervision activity.
/// Rendered into the report only when anything actually happened (or a fault
/// profile is configured), so no-fault reports stay byte-identical to
/// pre-supervision ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisionSummary {
    /// Jobs pulled from their route by the watchdog.
    pub quarantines: u64,
    /// Quarantined jobs returned to the queue after backoff.
    pub requeues: u64,
    /// Jobs failed after exhausting their attempt budget.
    pub failed: u64,
    /// Queued jobs shed under sustained breaker pressure.
    pub shed: u64,
    /// Closed→open breaker transitions.
    pub breaker_trips: u64,
    /// Breaker-aware route hops of requeued jobs (planet fleets only).
    pub reroutes: u64,
    /// Running jobs migrated onto a re-searched placement by the
    /// self-healing governor (planet fleets with `selfheal` only).
    pub replans: u64,
    /// Queued jobs dropped by the governor's brownout (retry budget dry
    /// under sustained degradation).
    pub brownouts: u64,
}

impl SupervisionSummary {
    /// Count `events` by kind. Kinds without a counter (`degrade`, breaker
    /// half-open and close, `slo`) are not counted.
    pub(crate) fn from_events(events: &[SupervisionEvent]) -> Self {
        let mut s = SupervisionSummary::default();
        for e in events {
            let n = match e.kind {
                "quarantine" => &mut s.quarantines,
                "requeue" => &mut s.requeues,
                "job-failed" => &mut s.failed,
                "shed" => &mut s.shed,
                "breaker-open" => &mut s.breaker_trips,
                "reroute" => &mut s.reroutes,
                "replan" => &mut s.replans,
                "brownout" => &mut s.brownouts,
                _ => continue,
            };
            *n += 1;
        }
        s
    }

    /// True when no supervision event fired.
    pub fn is_quiet(&self) -> bool {
        *self == SupervisionSummary::default()
    }

    /// Fixed-format report line (appended to the fleet report when loud).
    /// The reroute counter only renders when a reroute happened, so classic
    /// fleets keep their exact pre-topology bytes.
    pub fn render(&self) -> String {
        // `checkpoints=0` is kept for the report's bytes: no run counts
        // checkpoints as supervision events.
        let mut s = format!(
            "supervision quarantines={} requeues={} failed={} shed={} breaker_trips={} checkpoints=0",
            self.quarantines, self.requeues, self.failed, self.shed, self.breaker_trips,
        );
        if self.reroutes > 0 {
            s.push_str(&format!(" reroutes={}", self.reroutes));
        }
        if self.replans > 0 {
            s.push_str(&format!(" replans={}", self.replans));
        }
        if self.brownouts > 0 {
            s.push_str(&format!(" brownouts={}", self.brownouts));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn monitor() -> HealthMonitor {
        HealthMonitor::new()
    }

    #[test]
    fn healthy_stream_never_trips() {
        let mut m = monitor();
        for i in 0..100 {
            let mbs = 2000.0 + (i % 7) as f64 * 100.0;
            assert_eq!(m.observe(mbs), HealthVerdict::Healthy);
        }
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(m.zero_run(), 0);
    }

    #[test]
    fn consecutive_zero_epochs_quarantine() {
        let mut m = monitor();
        assert_eq!(m.observe(2000.0), HealthVerdict::Healthy);
        assert_eq!(m.observe(0.0), HealthVerdict::Degraded);
        assert_eq!(m.state(), HealthState::Degraded);
        assert_eq!(m.observe(0.0), HealthVerdict::Quarantine);
    }

    #[test]
    fn recovery_resets_the_zero_run() {
        let mut m = monitor();
        assert_eq!(m.observe(0.0), HealthVerdict::Degraded);
        assert_eq!(m.observe(1500.0), HealthVerdict::Healthy);
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(m.observe(0.0), HealthVerdict::Degraded, "run restarts");
    }

    #[test]
    fn collapse_against_trailing_mean_quarantines_after_persisting() {
        let mut m = monitor();
        for _ in 0..4 {
            assert_eq!(m.observe(2000.0), HealthVerdict::Healthy);
        }
        // 1% of the trailing mean: collapsed but nonzero.
        assert_eq!(m.observe(20.0), HealthVerdict::Degraded);
        assert_eq!(m.observe(20.0), HealthVerdict::Degraded);
        assert_eq!(m.observe(20.0), HealthVerdict::Quarantine);
    }

    #[test]
    fn halved_throughput_is_not_a_collapse() {
        // Fleet contention routinely halves a job's rate; the watchdog must
        // not quarantine for that (observational-by-default requirement).
        let mut m = monitor();
        for _ in 0..4 {
            assert_eq!(m.observe(2000.0), HealthVerdict::Healthy);
        }
        for _ in 0..50 {
            assert_eq!(m.observe(1000.0), HealthVerdict::Healthy);
        }
    }

    #[test]
    fn no_trailing_mean_means_no_collapse_verdict() {
        let mut m = monitor();
        // First-ever epoch is tiny but nonzero: no baseline, so healthy.
        assert_eq!(m.observe(3.0), HealthVerdict::Healthy);
        assert_eq!(m.trailing_mean(), Some(3.0));
    }

    #[test]
    fn trailing_window_is_bounded() {
        let mut m = monitor();
        for i in 0..20 {
            m.observe(1000.0 + i as f64);
        }
        // Window of 4: mean over the last four healthy observations.
        let mean = m.trailing_mean().unwrap();
        assert!(
            (mean - (1016.0 + 1017.0 + 1018.0 + 1019.0) / 4.0).abs() < 1e-9,
            "mean={mean}"
        );
    }

    #[test]
    fn event_json_has_fixed_key_order() {
        let ev = SupervisionEvent {
            t_s: 120.0,
            kind: "quarantine",
            ns: Some("job3".into()),
            link: Some(1),
            detail: "zero_epochs=2".into(),
        };
        assert_eq!(
            ev.to_json(),
            "{\"kind\":\"supervision\",\"t_s\":120,\"event\":\"quarantine\",\
             \"ns\":\"job3\",\"link\":1,\"detail\":\"zero_epochs=2\"}"
        );
        let bare = SupervisionEvent {
            t_s: 0.0,
            kind: "checkpoint",
            ns: None,
            link: None,
            detail: String::new(),
        };
        assert_eq!(
            bare.to_json(),
            "{\"kind\":\"supervision\",\"t_s\":0,\"event\":\"checkpoint\"}"
        );
    }

    #[test]
    fn summary_renders_and_detects_quiet() {
        let mut s = SupervisionSummary::default();
        assert!(s.is_quiet());
        s.quarantines = 2;
        s.requeues = 1;
        assert!(!s.is_quiet());
        assert_eq!(
            s.render(),
            "supervision quarantines=2 requeues=1 failed=0 shed=0 breaker_trips=0 checkpoints=0"
        );
    }

    proptest! {
        /// The watchdog quarantines within a bounded number of bad epochs and
        /// never quarantines a healthy stream.
        #[test]
        fn quarantine_is_bounded_and_sound(
            obs in prop::collection::vec(0f64..4000.0, 1..200),
        ) {
            let mut m = HealthMonitor::new();
            let mut bad_run = 0u32;
            for &x in &obs {
                let v = m.observe(x);
                if x <= ZERO_FLOOR_MBS
                    || m.state() == HealthState::Degraded && v != HealthVerdict::Healthy
                {
                    bad_run += 1;
                } else {
                    bad_run = 0;
                }
                match v {
                    HealthVerdict::Quarantine => {
                        // Quarantine only after at least ZERO_EPOCH_LIMIT bad
                        // epochs in a row.
                        prop_assert!(bad_run >= ZERO_EPOCH_LIMIT);
                        // Reset as the supervisor would.
                        m = HealthMonitor::new();
                        bad_run = 0;
                    }
                    HealthVerdict::Degraded => prop_assert_eq!(m.state(), HealthState::Degraded),
                    HealthVerdict::Healthy => prop_assert_eq!(m.state(), HealthState::Healthy),
                }
            }
        }
    }
}
