//! Tabular UCB bandit tuner (`bandit`).
//!
//! Jamil et al. (arXiv:2211.11949) frame stream-count selection as a
//! multi-armed bandit: discretize the parameter space into a small set of
//! arms, pull the arm with the highest upper confidence bound, and credit
//! the observed throughput as the arm's reward. [`BanditTuner`] implements
//! the tabular UCB1 variant over a log-spaced arm ladder (powers of two per
//! dimension, plus the domain corners and the starting point), because
//! throughput-vs-streams curves saturate logarithmically — linear arm
//! spacing wastes pulls on indistinguishable high-`nc` arms.
//!
//! Selection is the classic UCB1 rule with rewards normalized by the best
//! throughput seen so far:
//!
//! ```text
//! pull  argmax_i  mean_i / f_max  +  c · sqrt(ln t / n_i)
//! ```
//!
//! with unpulled arms tried first (in ladder order) and exact ties broken by
//! the lowest arm index, so a run is fully deterministic — the tuner holds
//! no RNG at all.
//!
//! Non-stationarity is handled the same way as the paper's direct-search
//! tuners: once one arm has won `CONVERGE_PULLS` consecutive pulls the
//! search declares convergence, holds that arm, and watches the ε%
//! [`SignificanceMonitor`]; a significant throughput shift resets the table
//! and restarts the bandit from scratch.

use crate::audit::{AuditLog, DecisionAction, DecisionEvent, RetriggerCause};
use crate::domain::{Domain, Point};
use crate::trigger::SignificanceMonitor;
use crate::tuner::OnlineTuner;

/// Consecutive pulls of the same arm that declare convergence.
const CONVERGE_PULLS: u32 = 4;

/// Exploration budget: after this many pulls per arm the bandit commits to
/// its best arm even if UCB would keep cycling (arm means too close for a
/// streak to ever form). Keeps convergence bounded on near-flat objectives.
const PULL_BUDGET_PER_ARM: u64 = 4;

/// UCB exploration coefficient (on rewards normalized to `[0, 1]`).
const EXPLORE_C: f64 = 0.6;

/// One arm's running statistics.
#[derive(Debug, Clone)]
struct Arm {
    x: Point,
    pulls: u32,
    mean: f64,
}

/// The tabular UCB tuner over a log-spaced discretization of the domain.
///
/// # Examples
///
/// ```
/// use xferopt_tuners::{BanditTuner, Domain, OnlineTuner};
///
/// let mut tuner = BanditTuner::new(Domain::new(&[(1, 64)]), vec![2], 5.0);
/// let mut x = tuner.initial();
/// for _ in 0..40 {
///     let throughput = 4000.0 - ((x[0] - 16) as f64).powi(2) * 4.0;
///     x = tuner.observe(&x.clone(), throughput);
/// }
/// assert!((x[0] - 16).abs() <= 8, "settled near the peak: {x:?}");
/// ```
#[derive(Debug, Clone)]
pub struct BanditTuner {
    domain: Domain,
    x0: Point,
    arms: Vec<Arm>,
    /// Total pulls since the last reset (the `t` in the UCB bonus).
    total_pulls: u64,
    /// Best raw throughput seen since the last reset (reward normalizer).
    f_max: f64,
    /// Index of the arm whose reward the next observation credits.
    pending: Option<usize>,
    /// Consecutive pulls of the same arm (convergence detector).
    streak_arm: Option<usize>,
    streak: u32,
    /// `Some(arm)` once converged: hold it and monitor for ε% shifts.
    held: Option<usize>,
    monitor: SignificanceMonitor,
    audit: AuditLog,
}

impl BanditTuner {
    /// A UCB bandit over `domain` starting at `x0` with monitor tolerance
    /// `eps_pct` (the paper uses 5).
    ///
    /// # Panics
    /// Panics if `x0` is outside `domain` or `eps_pct` is negative or not
    /// finite.
    pub fn new(domain: Domain, x0: Point, eps_pct: f64) -> Self {
        assert!(domain.contains(&x0), "x0 {x0:?} outside domain");
        let arms = Self::build_arms(&domain, &x0);
        BanditTuner {
            x0,
            arms,
            total_pulls: 0,
            f_max: 1.0,
            pending: None,
            streak_arm: None,
            streak: 0,
            held: None,
            monitor: SignificanceMonitor::new(eps_pct),
            domain,
            audit: AuditLog::new(),
        }
    }

    /// The log-spaced arm ladder: per dimension the powers of two inside the
    /// bounds plus both bounds; arms are the cross product, with `x0`
    /// prepended. Duplicates are removed preserving first occurrence, so the
    /// ladder order (and therefore tie-breaking) is deterministic.
    fn build_arms(domain: &Domain, x0: &Point) -> Vec<Arm> {
        let mut ladders: Vec<Vec<i64>> = Vec::with_capacity(domain.dim());
        for d in 0..domain.dim() {
            let (lo, hi) = (domain.lo()[d], domain.hi()[d]);
            let mut rungs = vec![lo];
            let mut v: i64 = 1;
            while v <= hi {
                if v > lo {
                    rungs.push(v);
                }
                v = v.saturating_mul(2);
            }
            if *rungs.last().expect("non-empty ladder") != hi {
                rungs.push(hi);
            }
            ladders.push(rungs);
        }
        let mut points: Vec<Point> = vec![x0.clone()];
        let mut cross: Vec<Point> = vec![Vec::new()];
        for ladder in &ladders {
            let mut next = Vec::with_capacity(cross.len() * ladder.len());
            for prefix in &cross {
                for &r in ladder {
                    let mut p = prefix.clone();
                    p.push(r);
                    next.push(p);
                }
            }
            cross = next;
        }
        points.extend(cross);
        let mut arms: Vec<Arm> = Vec::with_capacity(points.len());
        for p in points {
            if !arms.iter().any(|a| a.x == p) {
                arms.push(Arm {
                    x: p,
                    pulls: 0,
                    mean: 0.0,
                });
            }
        }
        arms
    }

    /// UCB1 selection: unpulled arms first (ladder order), then the highest
    /// normalized mean + exploration bonus, ties to the lowest index.
    fn select_arm(&self) -> usize {
        if let Some(i) = self.arms.iter().position(|a| a.pulls == 0) {
            return i;
        }
        let ln_t = (self.total_pulls.max(1) as f64).ln();
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (i, a) in self.arms.iter().enumerate() {
            let bonus = EXPLORE_C * (ln_t / a.pulls as f64).sqrt();
            let score = a.mean / self.f_max + bonus;
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }

    /// The arm with the best mean reward (ties to the lowest index).
    fn best_arm(&self) -> usize {
        let mut best = 0usize;
        let mut best_mean = f64::NEG_INFINITY;
        for (i, a) in self.arms.iter().enumerate() {
            if a.pulls > 0 && a.mean > best_mean {
                best_mean = a.mean;
                best = i;
            }
        }
        best
    }

    /// Forget everything (conditions changed): zero the table and restart.
    fn reset(&mut self) {
        for a in &mut self.arms {
            a.pulls = 0;
            a.mean = 0.0;
        }
        self.total_pulls = 0;
        self.f_max = 1.0;
        self.streak_arm = None;
        self.streak = 0;
        self.held = None;
        self.monitor.reset();
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
            tuner: "bandit",
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

    /// Commit to the best arm: hold it and arm the ε% monitor.
    fn hold_best(&mut self) -> Point {
        let best = self.best_arm();
        self.held = Some(best);
        self.pending = None;
        self.monitor.reset();
        self.arms[best].x.clone()
    }

    /// Pull the next arm, maintaining the convergence streak; returns the
    /// proposed point and whether the pull converged the search. Converges
    /// either on a [`CONVERGE_PULLS`]-long streak of one arm or when the
    /// total exploration budget is spent.
    fn pull_next(&mut self) -> (Point, bool) {
        if self.total_pulls >= PULL_BUDGET_PER_ARM * self.arms.len() as u64 {
            return (self.hold_best(), true);
        }
        let i = self.select_arm();
        if self.streak_arm == Some(i) {
            self.streak += 1;
        } else {
            self.streak_arm = Some(i);
            self.streak = 1;
        }
        if self.streak >= CONVERGE_PULLS {
            return (self.hold_best(), true);
        }
        self.pending = Some(i);
        (self.arms[i].x.clone(), false)
    }
}

impl OnlineTuner for BanditTuner {
    fn name(&self) -> &'static str {
        "bandit"
    }

    fn domain(&self) -> &Domain {
        &self.domain
    }

    fn initial(&self) -> Point {
        self.x0.clone()
    }

    fn observe(&mut self, x: &Point, throughput: f64) -> Point {
        // Held phase: watch the ε% monitor at the winning arm.
        if let Some(held) = self.held {
            let shift = self.monitor.observe(throughput);
            let next = if shift.retrigger.is_some() {
                self.reset();
                self.pull_next().0
            } else {
                self.arms[held].x.clone()
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
            return next;
        }

        // Credit the pending arm with the observed reward.
        let accepted = match self.pending.take() {
            Some(i) => {
                let a = &mut self.arms[i];
                a.pulls += 1;
                a.mean += (throughput - a.mean) / a.pulls as f64;
                self.total_pulls += 1;
                self.f_max = self.f_max.max(throughput.abs()).max(1.0);
                Some(throughput >= self.arms[i].mean)
            }
            // First observation (x0's epoch before any pull was proposed):
            // seed the normalizer and start pulling.
            None => {
                self.f_max = self.f_max.max(throughput.abs()).max(1.0);
                None
            }
        };

        let (next, converged) = self.pull_next();
        let action = if converged {
            DecisionAction::Converged
        } else if accepted.is_none() {
            DecisionAction::EvalStart
        } else {
            DecisionAction::Probe
        };
        self.record(x, throughput, action, accepted, &next, None, None);
        next
    }

    fn audit_log(&self) -> Option<&AuditLog> {
        Some(&self.audit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<F: FnMut(&Point) -> f64>(t: &mut BanditTuner, epochs: usize, mut f: F) -> Vec<Point> {
        let mut x = t.initial();
        let mut traj = vec![x.clone()];
        for _ in 0..epochs {
            let fx = f(&x);
            x = t.observe(&x.clone(), fx);
            traj.push(x.clone());
        }
        traj
    }

    #[test]
    fn arms_are_log_spaced_and_deduplicated() {
        let t = BanditTuner::new(Domain::new(&[(1, 64)]), vec![2], 5.0);
        let xs: Vec<i64> = t.arms.iter().map(|a| a.x[0]).collect();
        // x0 first, then the ladder 1, 2, 4, ... 64 without duplicates.
        assert_eq!(xs, vec![2, 1, 4, 8, 16, 32, 64]);
    }

    #[test]
    fn finds_the_best_arm_on_a_concave_objective() {
        let mut t = BanditTuner::new(Domain::new(&[(1, 256)]), vec![2], 5.0);
        let traj = drive(&mut t, 60, |x| {
            4000.0 - ((x[0] - 30) as f64).powi(2).min(4000.0)
        });
        // The closest arms to 30 are 32 (score 3996) and 16 (3804): UCB must
        // settle on 32.
        let last = traj.last().unwrap();
        assert_eq!(last, &vec![32], "trajectory {traj:?}");
    }

    #[test]
    fn converges_then_holds_then_retriggers() {
        let mut t = BanditTuner::new(Domain::new(&[(1, 32)]), vec![2], 5.0);
        let mut x = t.initial();
        for _ in 0..60 {
            x = t.observe(&x.clone(), 1000.0 + x[0] as f64);
        }
        let held = x.clone();
        // Flat feedback: holds.
        for _ in 0..5 {
            x = t.observe(&x.clone(), 1000.0 + held[0] as f64);
            assert_eq!(x, held, "must hold the winning arm");
        }
        // A big shift must reset and re-explore.
        let mut moved = false;
        for _ in 0..20 {
            x = t.observe(&x.clone(), 5000.0);
            if x != held {
                moved = true;
                break;
            }
        }
        assert!(moved, "significant shift must re-trigger the bandit");
    }

    #[test]
    fn is_deterministic() {
        let run = || {
            let mut t = BanditTuner::new(Domain::paper_nc(), vec![2], 5.0);
            drive(&mut t, 50, |x| 3000.0 - (x[0] as f64 - 48.0).abs() * 10.0)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stays_in_domain_under_adversarial_feedback() {
        let d = Domain::new(&[(3, 11), (2, 5)]);
        let mut t = BanditTuner::new(d.clone(), vec![3, 2], 5.0);
        let mut x = t.initial();
        for i in 0..80 {
            x = t.observe(&x.clone(), if i % 3 == 0 { 0.0 } else { i as f64 * 50.0 });
            assert!(d.contains(&x), "proposed {x:?} outside {d:?}");
        }
    }

    #[test]
    fn audit_stream_records_pulls_and_convergence() {
        let mut t = BanditTuner::new(Domain::new(&[(1, 16)]), vec![2], 5.0);
        drive(&mut t, 40, |x| 100.0 * x[0] as f64);
        let names = t.audit_log().unwrap().action_names();
        assert!(names.contains(&"probe"), "{names:?}");
        assert!(names.contains(&"converged"), "{names:?}");
        assert!(names.contains(&"monitor"), "{names:?}");
        // JSONL renders with the bandit's name.
        assert!(t
            .audit_log()
            .unwrap()
            .to_jsonl(None)
            .contains("\"tuner\":\"bandit\""));
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn rejects_bad_start() {
        BanditTuner::new(Domain::paper_nc(), vec![0], 5.0);
    }
}
