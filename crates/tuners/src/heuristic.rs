//! Closed-form heuristic baseline (`heuristic`).
//!
//! The throughput-vs-streams curves of Fig. 1 saturate logarithmically: the
//! knee sits near the geometric middle of the feasible range, not the
//! arithmetic one. [`HeuristicTuner`] exploits that with a single closed-form
//! jump — no search at all: evaluate the start, jump straight to the
//! per-dimension geometric mean of the bounds (`fBnd(√(lo·hi))`), keep
//! whichever of the two points measured better, and hold it under the same
//! ε% [`SignificanceMonitor`] as the paper's tuners. On a re-trigger the
//! two-point comparison is repeated from scratch.
//!
//! This is the "what if we just guess from the domain?" control for the
//! tournament: one decision, two evaluations, zero adaptation. It brackets
//! how much of the adaptive tuners' advantage comes from actually searching
//! versus merely not standing still at the Globus default.

use crate::audit::{AuditLog, DecisionAction, DecisionEvent, RetriggerCause};
use crate::domain::{Domain, Point};
use crate::trigger::SignificanceMonitor;
use crate::tuner::OnlineTuner;

/// Phase of the two-point comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Waiting for the first observation (at the start point).
    Start,
    /// Waiting for the observation at the closed-form guess.
    Guess,
    /// Comparison done: holding the winner under the monitor.
    Hold,
}

/// The closed-form geometric-midpoint tuner.
///
/// # Examples
///
/// ```
/// use xferopt_tuners::{Domain, HeuristicTuner, OnlineTuner};
///
/// let mut tuner = HeuristicTuner::new(Domain::new(&[(1, 256)]), vec![2], 5.0);
/// let mut x = tuner.initial();
/// x = tuner.observe(&x.clone(), 500.0); // start measured
/// assert_eq!(x, vec![16], "jumps to fBnd(sqrt(1*256))");
/// x = tuner.observe(&x.clone(), 2000.0); // guess measured better
/// assert_eq!(x, vec![16], "keeps the winner");
/// ```
#[derive(Debug, Clone)]
pub struct HeuristicTuner {
    domain: Domain,
    x0: Point,
    guess: Point,
    phase: Phase,
    f_start: f64,
    held: Point,
    monitor: SignificanceMonitor,
    audit: AuditLog,
}

impl HeuristicTuner {
    /// A heuristic tuner over `domain` starting at `x0` with monitor
    /// tolerance `eps_pct` (the paper uses 5).
    ///
    /// # Panics
    /// Panics if `x0` is outside `domain` or `eps_pct` is negative or not
    /// finite.
    pub fn new(domain: Domain, x0: Point, eps_pct: f64) -> Self {
        assert!(domain.contains(&x0), "x0 {x0:?} outside domain");
        let guess = Self::closed_form(&domain);
        HeuristicTuner {
            held: x0.clone(),
            x0,
            guess,
            phase: Phase::Start,
            f_start: f64::NEG_INFINITY,
            monitor: SignificanceMonitor::new(eps_pct),
            domain,
            audit: AuditLog::new(),
        }
    }

    /// The closed-form guess: per dimension the geometric mean of the
    /// bounds, rounded and projected by `fBnd`.
    fn closed_form(domain: &Domain) -> Point {
        let raw: Vec<f64> = domain
            .lo()
            .iter()
            .zip(domain.hi())
            .map(|(&lo, &hi)| ((lo.max(1) as f64) * (hi.max(1) as f64)).sqrt())
            .collect();
        domain.fbnd(&raw)
    }

    /// The closed-form point this tuner jumps to.
    pub fn guess(&self) -> &Point {
        &self.guess
    }

    /// Record one audited decision.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        x: &Point,
        observed: f64,
        action: DecisionAction,
        accepted: Option<bool>,
        next: &Point,
        delta_pct: Option<f64>,
        retrigger: Option<RetriggerCause>,
    ) {
        self.audit.record(DecisionEvent {
            seq: 0,
            tuner: "heuristic",
            x: x.clone(),
            observed,
            action,
            accepted,
            next: next.clone(),
            lambda: None,
            delta_pct,
            projected: false,
            retrigger,
        });
    }
}

impl OnlineTuner for HeuristicTuner {
    fn name(&self) -> &'static str {
        "heuristic"
    }

    fn domain(&self) -> &Domain {
        &self.domain
    }

    fn initial(&self) -> Point {
        self.x0.clone()
    }

    fn observe(&mut self, x: &Point, throughput: f64) -> Point {
        match self.phase {
            Phase::Start => {
                self.f_start = throughput;
                if self.guess == *x {
                    // Degenerate domain: the guess is the start; hold it.
                    self.phase = Phase::Hold;
                    self.held = x.clone();
                    self.monitor.reset();
                    self.monitor.observe(throughput);
                    let next = self.held.clone();
                    self.record(
                        x,
                        throughput,
                        DecisionAction::Converged,
                        None,
                        &next,
                        None,
                        None,
                    );
                    return next;
                }
                self.phase = Phase::Guess;
                let next = self.guess.clone();
                self.record(
                    x,
                    throughput,
                    DecisionAction::EvalStart,
                    None,
                    &next,
                    None,
                    None,
                );
                next
            }
            Phase::Guess => {
                let accepted = throughput >= self.f_start;
                self.held = if accepted {
                    self.guess.clone()
                } else {
                    self.x0.clone()
                };
                self.phase = Phase::Hold;
                self.monitor.reset();
                if accepted {
                    // Holding the point just measured: its value primes the
                    // monitor directly.
                    self.monitor.observe(throughput);
                } else {
                    self.monitor.observe(self.f_start);
                }
                let next = self.held.clone();
                self.record(
                    x,
                    throughput,
                    DecisionAction::Converged,
                    Some(accepted),
                    &next,
                    None,
                    None,
                );
                next
            }
            Phase::Hold => {
                let shift = self.monitor.observe(throughput);
                let next = if shift.retrigger.is_none() {
                    self.held.clone()
                } else {
                    // Restart the two-point comparison from the held point.
                    self.x0 = self.held.clone();
                    self.f_start = throughput;
                    self.phase = Phase::Guess;
                    if self.guess == self.held {
                        // Already at the guess: re-measure the old start side
                        // by jumping to the domain's cold corner.
                        self.domain.lo().to_vec()
                    } else {
                        self.guess.clone()
                    }
                };
                self.record(
                    x,
                    throughput,
                    shift.action(),
                    None,
                    &next,
                    shift.delta_pct,
                    shift.retrigger,
                );
                next
            }
        }
    }

    fn audit_log(&self) -> Option<&AuditLog> {
        Some(&self.audit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_is_the_geometric_midpoint() {
        let t = HeuristicTuner::new(Domain::new(&[(1, 256), (1, 32)]), vec![2, 8], 5.0);
        // sqrt(1*256) = 16, sqrt(1*32) ≈ 5.66 → 6.
        assert_eq!(t.guess(), &vec![16, 6]);
    }

    #[test]
    fn keeps_the_start_when_the_guess_is_worse() {
        let mut t = HeuristicTuner::new(Domain::new(&[(1, 100)]), vec![3], 5.0);
        let mut x = t.initial();
        x = t.observe(&x.clone(), 3000.0); // start is great
        assert_eq!(x, vec![10]);
        x = t.observe(&x.clone(), 100.0); // guess is terrible
        assert_eq!(x, vec![3], "falls back to the start point");
        // Holds thereafter on quiet feedback.
        for _ in 0..5 {
            x = t.observe(&x.clone(), 3000.0);
        }
        assert_eq!(x, vec![3]);
    }

    #[test]
    fn retriggers_on_significant_shift() {
        let mut t = HeuristicTuner::new(Domain::new(&[(1, 100)]), vec![3], 5.0);
        let mut x = t.initial();
        x = t.observe(&x.clone(), 500.0);
        x = t.observe(&x.clone(), 2000.0); // guess wins
        let held = x.clone();
        assert_eq!(held, vec![10]);
        for _ in 0..3 {
            x = t.observe(&x.clone(), 2000.0);
            assert_eq!(x, held);
        }
        x = t.observe(&x.clone(), 4000.0); // +100 %: conditions changed
        assert_ne!(x, held, "shift must re-trigger the comparison");
        assert!(t.audit_log().unwrap().retrigger_count() >= 1);
    }

    #[test]
    fn stays_in_domain_and_is_deterministic() {
        let d = Domain::new(&[(2, 7), (1, 3)]);
        let run = || {
            let mut t = HeuristicTuner::new(d.clone(), vec![2, 1], 5.0);
            let mut x = t.initial();
            let mut traj = vec![x.clone()];
            for i in 0..30 {
                x = t.observe(&x.clone(), (i % 5) as f64 * 700.0);
                assert!(d.contains(&x), "proposed {x:?} outside {d:?}");
                traj.push(x.clone());
            }
            traj
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn degenerate_domain_converges_immediately() {
        let d = Domain::new(&[(4, 4)]);
        let mut t = HeuristicTuner::new(d, vec![4], 5.0);
        let mut x = t.initial();
        for _ in 0..5 {
            x = t.observe(&x.clone(), 1000.0);
            assert_eq!(x, vec![4]);
        }
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn rejects_bad_start() {
        HeuristicTuner::new(Domain::paper_nc(), vec![0], 5.0);
    }
}
