//! Per-link route circuit breakers (DESIGN.md §12).
//!
//! Watchdog quarantines and transfer aborts are *failure signals* about the
//! links a job was running on. Each link carries a [`RouteBreaker`] with the
//! classic three-state machine:
//!
//! ```text
//!             failures ≥ threshold
//!   Closed ──────────────────────────▶ Open
//!      ▲                                │ cooldown elapses
//!      │ probe succeeds                 ▼
//!      └──────────────────────────  HalfOpen ──probe fails──▶ Open
//!                                                    (cooldown doubles, capped)
//! ```
//!
//! * **Closed** — the link admits jobs normally. Failures within the sliding
//!   window accumulate; hitting the threshold trips the breaker.
//! * **Open** — admission refuses every job whose route crosses the link
//!   until the cooldown elapses. Queued jobs wait (or are shed by the fleet
//!   under sustained pressure); nothing panics.
//! * **HalfOpen** — exactly one probe job is admitted, with its grant shrunk
//!   by `HALF_OPEN_GRANT_FACTOR`. A completion (or a healthy
//!   re-quarantine-free epoch run) re-closes the breaker and resets the
//!   cooldown; another failure re-opens it with a doubled cooldown, capped at
//!   `MAX_COOLDOWN_S` — so oscillation is rate-limited and
//!   the breaker always re-closes under sustained recovery (proptested).
//!
//! The [`AdmissionController`](crate::AdmissionController) consults the
//! [`BreakerBoard`] via `try_admit_gated`; everything here is deterministic
//! pure state driven by fleet time.

/// Failures within [`FAILURE_WINDOW_S`] that trip a closed breaker.
const FAILURE_THRESHOLD: u32 = 3;
/// Sliding window over which failures are counted, seconds.
const FAILURE_WINDOW_S: f64 = 300.0;
/// Initial open-state cooldown, seconds.
const COOLDOWN_S: f64 = 60.0;
/// Cooldown multiplier applied on every half-open probe failure.
const COOLDOWN_FACTOR: f64 = 2.0;
/// Hard cap on the cooldown, seconds (bounds the oscillation period).
const MAX_COOLDOWN_S: f64 = 480.0;
/// Grant shrink factor applied to a job admitted through a half-open
/// breaker (the probe runs on a reduced stream reservation).
const HALF_OPEN_GRANT_FACTOR: f64 = 0.5;

const _: () = {
    assert!(FAILURE_THRESHOLD >= 1, "threshold must be >= 1");
    assert!(COOLDOWN_FACTOR >= 1.0, "cooldown must not shrink");
    assert!(
        MAX_COOLDOWN_S >= COOLDOWN_S,
        "cooldown cap below initial cooldown"
    );
};

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Admitting normally.
    Closed,
    /// Refusing all admissions until the cooldown elapses.
    Open,
    /// Admitting exactly one shrunken probe.
    HalfOpen,
}

impl BreakerState {
    /// Stable label for events, digests, and reports.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Circuit breaker for one link.
#[derive(Debug, Clone)]
pub struct RouteBreaker {
    state: BreakerState,
    /// Timestamps of recent failures (pruned to the sliding window).
    failures: Vec<f64>,
    /// Current cooldown (doubles on probe failure, resets on close).
    cooldown_s: f64,
    /// When the open state ends (valid while `Open`).
    open_until_t: f64,
    /// When the breaker last opened (for sustained-pressure shedding).
    open_since_t: f64,
    /// A half-open probe has been admitted and is still in flight.
    probe_inflight: bool,
    /// Closed→open transitions over the breaker's lifetime.
    trips: u64,
}

impl Default for RouteBreaker {
    fn default() -> Self {
        Self::new()
    }
}

impl RouteBreaker {
    /// A closed breaker.
    pub fn new() -> Self {
        RouteBreaker {
            state: BreakerState::Closed,
            failures: Vec::new(),
            cooldown_s: COOLDOWN_S,
            open_until_t: 0.0,
            open_since_t: 0.0,
            probe_inflight: false,
            trips: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Lifetime closed→open transitions.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Failures currently inside the sliding window.
    pub fn failure_count(&self) -> usize {
        self.failures.len()
    }

    /// Seconds the breaker has been continuously non-closed (0 when closed).
    /// Used by the fleet's sustained-pressure shedding.
    pub fn unhealthy_for_s(&self, t_s: f64) -> f64 {
        if self.state == BreakerState::Closed {
            0.0
        } else {
            (t_s - self.open_since_t).max(0.0)
        }
    }

    /// Deterministic one-line digest of the breaker's state (for the fleet
    /// checkpoint digest).
    pub fn digest(&self) -> String {
        format!(
            "{}:f{}:cd{}:u{}:p{}:t{}",
            self.state.name(),
            self.failures.len(),
            self.cooldown_s,
            self.open_until_t,
            u8::from(self.probe_inflight),
            self.trips,
        )
    }

    fn prune(&mut self, t_s: f64) {
        let cutoff = t_s - FAILURE_WINDOW_S;
        self.failures.retain(|&f| f > cutoff);
    }

    /// Advance fleet time; returns `Some("breaker-half-open")` when the
    /// cooldown elapses and the breaker starts probing.
    pub fn tick(&mut self, t_s: f64) -> Option<&'static str> {
        if self.state == BreakerState::Open && t_s >= self.open_until_t {
            self.state = BreakerState::HalfOpen;
            self.probe_inflight = false;
            return Some("breaker-half-open");
        }
        None
    }

    /// Record a failure signal (quarantine or abort observed on this link).
    /// Returns the transition label when the state changes.
    pub fn on_failure(&mut self, t_s: f64) -> Option<&'static str> {
        match self.state {
            BreakerState::Closed => {
                self.prune(t_s);
                self.failures.push(t_s);
                if self.failures.len() as u32 >= FAILURE_THRESHOLD {
                    self.state = BreakerState::Open;
                    self.open_until_t = t_s + self.cooldown_s;
                    self.open_since_t = t_s;
                    self.failures.clear();
                    self.trips += 1;
                    Some("breaker-open")
                } else {
                    None
                }
            }
            BreakerState::HalfOpen => {
                // Probe failed: reopen with a doubled (capped) cooldown.
                self.cooldown_s = (self.cooldown_s * COOLDOWN_FACTOR).min(MAX_COOLDOWN_S);
                self.state = BreakerState::Open;
                self.open_until_t = t_s + self.cooldown_s;
                self.probe_inflight = false;
                Some("breaker-open")
            }
            // Already open: the failure is old news.
            BreakerState::Open => None,
        }
    }

    /// Record a success signal (a job completed over this link). Returns the
    /// transition label when a half-open probe re-closes the breaker.
    pub fn on_success(&mut self, _t_s: f64) -> Option<&'static str> {
        match self.state {
            BreakerState::HalfOpen => {
                self.state = BreakerState::Closed;
                self.cooldown_s = COOLDOWN_S;
                self.failures.clear();
                self.probe_inflight = false;
                Some("breaker-close")
            }
            BreakerState::Closed => {
                // Recovery evidence: forget old failures.
                self.failures.clear();
                None
            }
            BreakerState::Open => None,
        }
    }

    /// Whether admission may place a job on this link right now.
    pub fn admits(&self) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => !self.probe_inflight,
        }
    }

    /// Grant shrink factor for a job admitted right now.
    pub fn grant_factor(&self) -> f64 {
        match self.state {
            BreakerState::Closed => 1.0,
            BreakerState::Open => 0.0,
            BreakerState::HalfOpen => HALF_OPEN_GRANT_FACTOR,
        }
    }

    /// Mark the half-open probe as in flight (call after admitting through a
    /// half-open breaker).
    pub fn mark_probe(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.probe_inflight = true;
        }
    }
}

/// All link breakers of a fleet, indexed by raw link index.
#[derive(Debug, Clone)]
pub struct BreakerBoard {
    breakers: Vec<RouteBreaker>,
}

impl BreakerBoard {
    /// A board of `links` closed breakers.
    pub fn new(links: usize) -> Self {
        BreakerBoard {
            breakers: vec![RouteBreaker::new(); links],
        }
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.breakers.len()
    }

    /// True when the board has no breakers.
    pub fn is_empty(&self) -> bool {
        self.breakers.is_empty()
    }

    /// The breaker on `link`.
    pub fn breaker(&self, link: usize) -> &RouteBreaker {
        &self.breakers[link]
    }

    /// Advance all breakers; returns `(link, transition)` for every state
    /// change, in link order.
    pub fn tick(&mut self, t_s: f64) -> Vec<(usize, &'static str)> {
        let mut out = Vec::new();
        for (l, b) in self.breakers.iter_mut().enumerate() {
            if let Some(tr) = b.tick(t_s) {
                out.push((l, tr));
            }
        }
        out
    }

    /// Record a failure on `link`; returns the transition label, if any.
    pub fn on_failure(&mut self, link: usize, t_s: f64) -> Option<&'static str> {
        self.breakers[link].on_failure(t_s)
    }

    /// Record a success on `link`; returns the transition label, if any.
    pub fn on_success(&mut self, link: usize, t_s: f64) -> Option<&'static str> {
        self.breakers[link].on_success(t_s)
    }

    /// Whether every breaker on the route admits a job right now.
    pub fn route_admits(&self, links: &[usize]) -> bool {
        links.iter().all(|&l| self.breakers[l].admits())
    }

    /// Combined (minimum) grant factor across the route's links.
    pub fn route_grant_factor(&self, links: &[usize]) -> f64 {
        links
            .iter()
            .map(|&l| self.breakers[l].grant_factor())
            .fold(1.0, f64::min)
    }

    /// Mark half-open probes in flight on every half-open link of the route.
    pub fn mark_probe(&mut self, links: &[usize]) {
        for &l in links {
            self.breakers[l].mark_probe();
        }
    }

    /// Links whose breaker is currently open (not admitting), ascending —
    /// the self-healing governor feeds these into its fault-adjusted
    /// topology alongside the SLO-degraded links, so a re-search also
    /// steers around links the breakers have independent evidence against.
    pub fn open_links(&self) -> Vec<usize> {
        self.breakers
            .iter()
            .enumerate()
            .filter(|(_, b)| b.state() == BreakerState::Open)
            .map(|(l, _)| l)
            .collect()
    }

    /// Total trips across all links.
    pub fn trips(&self) -> u64 {
        self.breakers.iter().map(|b| b.trips()).sum()
    }

    /// Deterministic digest of the whole board.
    pub fn digest(&self) -> String {
        self.breakers
            .iter()
            .map(|b| b.digest())
            .collect::<Vec<_>>()
            .join("|")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn breaker() -> RouteBreaker {
        RouteBreaker::new()
    }

    #[test]
    fn trips_after_threshold_failures_within_window() {
        let mut b = breaker();
        assert_eq!(b.on_failure(10.0), None);
        assert_eq!(b.on_failure(20.0), None);
        assert_eq!(b.on_failure(30.0), Some("breaker-open"));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admits());
        assert_eq!(b.grant_factor(), 0.0);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn stale_failures_age_out_of_the_window() {
        let mut b = breaker();
        assert_eq!(b.on_failure(0.0), None);
        assert_eq!(b.on_failure(10.0), None);
        // 400 s later the first two are outside the 300 s window.
        assert_eq!(b.on_failure(400.0), None);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.failure_count(), 1);
    }

    #[test]
    fn cooldown_half_opens_then_success_recloses() {
        let mut b = breaker();
        for t in [0.0, 5.0, 10.0] {
            b.on_failure(t);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.tick(30.0), None, "cooldown not yet elapsed");
        assert_eq!(b.tick(70.0), Some("breaker-half-open"));
        assert!(b.admits(), "half-open admits one probe");
        assert_eq!(b.grant_factor(), 0.5);
        b.mark_probe();
        assert!(!b.admits(), "probe in flight blocks further admissions");
        assert_eq!(b.on_success(120.0), Some("breaker-close"));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.grant_factor(), 1.0);
    }

    #[test]
    fn probe_failure_doubles_the_cooldown_up_to_the_cap() {
        let mut b = RouteBreaker::new();
        for t in [0.0, 1.0, 2.0] {
            b.on_failure(t);
        }
        let mut t = 2.0;
        let mut expected = COOLDOWN_S;
        for _ in 0..6 {
            t += expected;
            assert_eq!(b.tick(t), Some("breaker-half-open"));
            assert_eq!(b.on_failure(t), Some("breaker-open"));
            expected = (expected * COOLDOWN_FACTOR).min(MAX_COOLDOWN_S);
        }
        assert_eq!(b.cooldown_s, MAX_COOLDOWN_S, "cooldown capped");
    }

    #[test]
    fn success_in_closed_state_forgets_failures() {
        let mut b = breaker();
        b.on_failure(0.0);
        b.on_failure(5.0);
        b.on_success(10.0);
        assert_eq!(b.failure_count(), 0);
        assert_eq!(b.on_failure(15.0), None, "counter restarted");
    }

    #[test]
    fn board_routes_and_digest() {
        let mut board = BreakerBoard::new(3);
        assert!(board.route_admits(&[0, 1]));
        for t in [0.0, 1.0, 2.0] {
            board.on_failure(1, t);
        }
        assert!(!board.route_admits(&[0, 1]), "route crosses the open link");
        assert!(board.route_admits(&[0, 2]), "other route unaffected");
        assert_eq!(board.route_grant_factor(&[0, 1]), 0.0);
        assert_eq!(board.trips(), 1);
        let d = board.digest();
        assert!(d.contains("open"), "digest reflects state: {d}");
        assert_eq!(d.matches('|').count(), 2);
    }

    #[test]
    fn unhealthy_duration_tracks_the_first_trip() {
        let mut b = breaker();
        assert_eq!(b.unhealthy_for_s(100.0), 0.0);
        for t in [10.0, 11.0, 12.0] {
            b.on_failure(t);
        }
        assert_eq!(b.unhealthy_for_s(100.0), 88.0);
        b.tick(72.0);
        // Still unhealthy while half-open.
        assert!(b.unhealthy_for_s(100.0) > 0.0);
        b.on_success(100.0);
        assert_eq!(b.unhealthy_for_s(120.0), 0.0);
    }

    proptest! {
        /// Under sustained recovery (only successes after some point) a
        /// breaker always re-closes within one cooldown, and stays closed.
        #[test]
        fn half_open_breaker_recloses_under_sustained_recovery(
            failures in prop::collection::vec(0f64..500.0, 0..40),
            recovery_start in 500f64..1000.0,
        ) {
            let mut b = RouteBreaker::new();
            let mut fs = failures.clone();
            fs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for t in fs {
                b.tick(t);
                b.on_failure(t);
            }
            // Sustained recovery: tick forward and feed successes.
            let mut t = recovery_start;
            let mut closed_at = None;
            for _ in 0..2000 {
                b.tick(t);
                if b.state() == BreakerState::HalfOpen || b.state() == BreakerState::Closed {
                    b.on_success(t);
                }
                if b.state() == BreakerState::Closed {
                    closed_at = Some(t);
                    break;
                }
                t += 5.0;
            }
            let closed_at = closed_at.expect("breaker must re-close under recovery");
            // Bounded by the capped cooldown.
            prop_assert!(closed_at <= recovery_start + MAX_COOLDOWN_S + 5.0);
            // And it stays closed from then on.
            for i in 0..50 {
                let tt = closed_at + i as f64 * 5.0;
                b.tick(tt);
                b.on_success(tt);
                prop_assert_eq!(b.state(), BreakerState::Closed);
            }
        }

        /// Oscillation is bounded: over any horizon, the number of trips is
        /// at most (horizon / cooldown) + threshold-driven initial trips —
        /// the breaker can never flap faster than its cooldown allows.
        #[test]
        fn breaker_never_oscillates_unboundedly(
            events in prop::collection::vec((0f64..4000.0, any::<bool>()), 1..300),
        ) {
            let mut b = RouteBreaker::new();
            let mut evs = events.clone();
            evs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let horizon = 4000.0;
            for (t, fail) in evs {
                b.tick(t);
                if fail { b.on_failure(t); } else { b.on_success(t); }
                prop_assert!(b.cooldown_s <= MAX_COOLDOWN_S);
            }
            // Each trip commits the breaker to >= cooldown_s of open time, so
            // trips over the horizon are bounded by horizon/cooldown + 1.
            let bound = (horizon / COOLDOWN_S) as u64 + 1;
            prop_assert!(
                b.trips() <= bound,
                "{} trips exceeds bound {}", b.trips(), bound
            );
        }
    }
}
