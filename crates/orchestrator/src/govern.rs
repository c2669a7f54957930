//! Self-healing control plane: fleet-level SLO tracking and a retry budget
//! (DESIGN.md §17).
//!
//! The per-job watchdogs in [`crate::health`] react to one transfer at a
//! time; this module watches the *fleet*. An [`SloMonitor`] folds per-link
//! goodput observations into a three-state `Healthy → Strained → Degraded`
//! machine with hysteresis, and a [`RetryBudget`] token bucket caps how many
//! recovery actions (requeues, reroutes, replans) the whole fleet may take
//! per unit time so a regional outage cannot fan out into a retry storm.
//! [`Governor`] bundles both with the replan/brownout cooldown clocks the
//! tick loop consults.
//!
//! Everything here is integer/state-machine arithmetic on values the tick
//! loop already computes deterministically, so the governor adds no new
//! nondeterminism: its digest is part of the fleet state digest whenever it
//! is enabled.

use std::collections::BTreeSet;
use std::fmt;

// The control plane's constants. Resume rebuilds the same governor from
// them, which is exactly what replay needs; checkpoints do not carry them.

/// Sliding-window length (in per-link epoch observations) for the SLO
/// monitor.
const SLO_WINDOW: usize = 4;
/// Bad observations within the window to declare `Strained`.
const STRAIN_BAD: usize = 1;
/// Bad observations within the window to declare `Degraded`.
const DEGRADE_BAD: usize = 2;
/// Consecutive good observations required to step back toward `Healthy`
/// (hysteresis: one good epoch does not clear an outage).
const RECOVER_GOOD: usize = 2;
/// Token-bucket capacity of the fleet-wide retry budget.
pub const RETRY_BUDGET_CAP: u64 = 32;
/// Ticks between single-token refills of the retry budget.
const REFILL_TICKS: u64 = 2;
/// Minimum seconds between online placement re-searches.
const REPLAN_COOLDOWN_S: f64 = 300.0;
/// Minimum seconds between brownout sheds.
const BROWNOUT_COOLDOWN_S: f64 = 60.0;

/// Fleet-level health of one link as seen by the SLO monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloState {
    /// Goodput within expectations.
    Healthy,
    /// Some zero-goodput epochs in the window; watch, do not act.
    Strained,
    /// Sustained zero goodput: the link is effectively down and the
    /// governor may re-search placement around it.
    Degraded,
}

impl fmt::Display for SloState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SloState::Healthy => write!(f, "healthy"),
            SloState::Strained => write!(f, "strained"),
            SloState::Degraded => write!(f, "degraded"),
        }
    }
}

/// Per-link sliding window of good/bad goodput observations.
#[derive(Debug, Clone)]
struct LinkSlo {
    /// Ring of recent observations, `true` = bad (zero goodput).
    ring: [bool; SLO_WINDOW],
    /// Next ring slot to overwrite.
    head: usize,
    /// Observations seen so far (saturates at [`SLO_WINDOW`]).
    filled: usize,
    /// Consecutive good observations since the last bad one.
    good_run: usize,
    state: SloState,
}

impl LinkSlo {
    fn new() -> LinkSlo {
        LinkSlo {
            ring: [false; SLO_WINDOW],
            head: 0,
            filled: 0,
            good_run: 0,
            state: SloState::Healthy,
        }
    }

    fn bad_count(&self) -> usize {
        self.ring[..self.filled].iter().filter(|b| **b).count()
    }
}

/// Sliding-window SLO state machine over the fleet's links.
///
/// Escalation is immediate (bad observations push `Healthy → Strained →
/// Degraded` as soon as the window holds enough of them); recovery is
/// hysteretic (each step back down requires `RECOVER_GOOD` consecutive good
/// observations, so a flapping link does not oscillate the governor).
#[derive(Debug, Clone)]
pub struct SloMonitor {
    links: Vec<LinkSlo>,
}

impl SloMonitor {
    /// Monitor for `nlinks` links.
    pub fn new(nlinks: usize) -> SloMonitor {
        SloMonitor {
            links: vec![LinkSlo::new(); nlinks],
        }
    }

    /// Record one epoch observation for `link` (`bad` = zero goodput while
    /// traffic was expected). Returns the `(from, to)` transition when the
    /// link's state changed.
    pub fn observe(&mut self, link: usize, bad: bool) -> Option<(SloState, SloState)> {
        let l = &mut self.links[link];
        l.ring[l.head] = bad;
        l.head = (l.head + 1) % SLO_WINDOW;
        l.filled = (l.filled + 1).min(SLO_WINDOW);
        l.good_run = if bad { 0 } else { l.good_run + 1 };
        let bad_count = l.bad_count();
        let from = l.state;
        let to = if bad_count >= DEGRADE_BAD {
            SloState::Degraded
        } else if bad_count >= STRAIN_BAD {
            // Never escalate on a *good* observation: a stale bad sample
            // aging through the ring should only hold state, not raise it.
            if bad {
                l.state.max(SloState::Strained)
            } else {
                l.state.min(SloState::Strained)
            }
        } else if l.good_run >= RECOVER_GOOD {
            match l.state {
                SloState::Degraded => SloState::Strained,
                _ => SloState::Healthy,
            }
        } else {
            l.state
        };
        // Stepping down resets the run so Degraded → Strained → Healthy
        // takes `RECOVER_GOOD` *more* good epochs, not the same ones twice.
        if to < from {
            l.good_run = 0;
        }
        l.state = to;
        if from == to {
            None
        } else {
            Some((from, to))
        }
    }

    /// Current state of `link`.
    pub fn state(&self, link: usize) -> SloState {
        self.links[link].state
    }

    /// Links currently `Degraded`, ascending.
    pub fn degraded_links(&self) -> BTreeSet<usize> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.state == SloState::Degraded)
            .map(|(i, _)| i)
            .collect()
    }

    /// Compact digest of the non-healthy links (healthy is the default and
    /// is omitted so the digest stays short on quiet fleets).
    pub fn digest(&self) -> String {
        let mut out = String::new();
        for (i, l) in self.links.iter().enumerate() {
            if l.state != SloState::Healthy {
                if !out.is_empty() {
                    out.push(',');
                }
                out.push_str(&format!("{i}:{}", l.state));
            }
        }
        out
    }
}

/// Deterministic fleet-wide token bucket for recovery actions.
///
/// Starts full; every [`RetryBudget::tick`] counts down and adds one token
/// (capped) each `refill_ticks` ticks. [`RetryBudget::try_take`] consumes a
/// token when one is available — requeues, reroutes, and replans each cost
/// one, so the *rate* of fleet-wide recovery work is bounded regardless of
/// how many jobs an outage hits at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryBudget {
    cap: u64,
    tokens: u64,
    refill_ticks: u64,
    countdown: u64,
    consumed_total: u64,
}

impl RetryBudget {
    /// Full bucket of `cap` tokens refilled one per `refill_ticks` ticks.
    pub fn new(cap: u64, refill_ticks: u64) -> RetryBudget {
        let refill_ticks = refill_ticks.max(1);
        RetryBudget {
            cap,
            tokens: cap,
            refill_ticks,
            countdown: refill_ticks,
            consumed_total: 0,
        }
    }

    /// Advance one tick: on every `refill_ticks`-th call, add one token up
    /// to the cap.
    pub fn tick(&mut self) {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.tokens = (self.tokens + 1).min(self.cap);
            self.countdown = self.refill_ticks;
        }
    }

    /// Consume one token; `false` (and no change) when the bucket is empty.
    pub fn try_take(&mut self) -> bool {
        if self.tokens == 0 {
            return false;
        }
        self.tokens -= 1;
        self.consumed_total += 1;
        true
    }

    /// Tokens currently available.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Bucket capacity.
    pub fn cap(&self) -> u64 {
        self.cap
    }

    /// Total tokens ever consumed.
    pub fn consumed(&self) -> u64 {
        self.consumed_total
    }

    /// Total tokens ever made available (initial fill plus refills); the
    /// budget invariant is `consumed() <= issued()` at all times.
    pub fn issued(&self) -> u64 {
        self.tokens + self.consumed_total
    }

    /// Compact digest of the bucket state.
    pub fn digest(&self) -> String {
        format!(
            "tok{}:cd{}:used{}",
            self.tokens, self.countdown, self.consumed_total
        )
    }
}

/// The self-healing control plane: SLO monitor + retry budget + the
/// cooldown clocks that pace replans and brownouts.
#[derive(Debug, Clone)]
pub struct Governor {
    /// Fleet-level per-link SLO state.
    pub slo: SloMonitor,
    /// Fleet-wide recovery token bucket.
    pub budget: RetryBudget,
    /// Simulation time of the last placement re-search (`-inf` initially so
    /// the first replan is not cooldown-gated).
    pub last_replan_s: f64,
    /// Simulation time of the last brownout shed.
    pub last_brownout_s: f64,
}

impl Governor {
    /// Governor over `nlinks` links.
    pub fn new(nlinks: usize) -> Governor {
        Governor {
            slo: SloMonitor::new(nlinks),
            budget: RetryBudget::new(RETRY_BUDGET_CAP, REFILL_TICKS),
            last_replan_s: f64::NEG_INFINITY,
            last_brownout_s: f64::NEG_INFINITY,
        }
    }

    /// True when a placement re-search is allowed at time `t`.
    pub fn replan_ready(&self, t: f64) -> bool {
        t - self.last_replan_s >= REPLAN_COOLDOWN_S
    }

    /// True when a brownout shed is allowed at time `t`.
    pub fn brownout_ready(&self, t: f64) -> bool {
        t - self.last_brownout_s >= BROWNOUT_COOLDOWN_S
    }

    /// Compact digest: budget state plus the non-healthy SLO links.
    pub fn digest(&self) -> String {
        let slo = self.slo.digest();
        if slo.is_empty() {
            self.budget.digest()
        } else {
            format!("{} slo[{}]", self.budget.digest(), slo)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_escalates_and_recovers_with_hysteresis() {
        let mut m = SloMonitor::new(2);
        assert_eq!(m.state(0), SloState::Healthy);
        // One bad epoch: Strained.
        assert_eq!(
            m.observe(0, true),
            Some((SloState::Healthy, SloState::Strained))
        );
        // Second bad epoch: Degraded.
        assert_eq!(
            m.observe(0, true),
            Some((SloState::Strained, SloState::Degraded))
        );
        assert_eq!(m.degraded_links().into_iter().collect::<Vec<_>>(), vec![0]);
        // One good epoch is not enough to step down.
        assert_eq!(m.observe(0, false), None);
        assert_eq!(m.state(0), SloState::Degraded);
        // Window is 4, so after two more good epochs the bad samples age
        // out and two consecutive goods step Degraded → Strained.
        assert_eq!(m.observe(0, false), None);
        assert_eq!(
            m.observe(0, false),
            Some((SloState::Degraded, SloState::Strained))
        );
        // Two *more* consecutive goods reach Healthy (the run resets on
        // each step down).
        assert_eq!(m.observe(0, false), None);
        assert_eq!(
            m.observe(0, false),
            Some((SloState::Strained, SloState::Healthy))
        );
        // The other link never moved.
        assert_eq!(m.state(1), SloState::Healthy);
    }

    #[test]
    fn slo_digest_lists_only_unhealthy_links() {
        let mut m = SloMonitor::new(3);
        assert_eq!(m.digest(), "");
        m.observe(2, true);
        assert_eq!(m.digest(), "2:strained");
        m.observe(2, true);
        m.observe(0, true);
        assert_eq!(m.digest(), "0:strained,2:degraded");
    }

    #[test]
    fn budget_refills_and_caps() {
        let mut b = RetryBudget::new(2, 3);
        assert_eq!(b.tokens(), 2);
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(!b.try_take());
        assert_eq!(b.consumed(), 2);
        // Refill arrives every third tick.
        b.tick();
        b.tick();
        assert_eq!(b.tokens(), 0);
        b.tick();
        assert_eq!(b.tokens(), 1);
        // Cap holds: six more ticks add at most one more token.
        for _ in 0..6 {
            b.tick();
        }
        assert_eq!(b.tokens(), 2);
        assert_eq!(b.issued(), 4);
        assert_eq!(b.digest(), "tok2:cd3:used2");
    }

    #[test]
    fn governor_cooldowns_pace_actions() {
        let mut g = Governor::new(1);
        assert!(g.replan_ready(0.0));
        g.last_replan_s = 100.0;
        assert!(!g.replan_ready(99.0 + REPLAN_COOLDOWN_S));
        assert!(g.replan_ready(100.0 + REPLAN_COOLDOWN_S));
        assert!(g.brownout_ready(0.0));
        g.last_brownout_s = 100.0;
        assert!(!g.brownout_ready(99.0 + BROWNOUT_COOLDOWN_S));
        assert!(g.brownout_ready(100.0 + BROWNOUT_COOLDOWN_S));
    }

    #[test]
    fn governor_digest_combines_budget_and_slo() {
        let mut g = Governor::new(2);
        assert_eq!(
            g.digest(),
            format!("tok{RETRY_BUDGET_CAP}:cd{REFILL_TICKS}:used0")
        );
        g.slo.observe(1, true);
        assert!(g.budget.try_take());
        assert_eq!(
            g.digest(),
            format!(
                "tok{}:cd{REFILL_TICKS}:used1 slo[1:strained]",
                RETRY_BUDGET_CAP - 1
            )
        );
    }
}
