//! Algorithm 1: the customized coordinate-descent tuner (`cd-tuner`).
//!
//! Per control epoch `c`, with observed throughputs `f_{c-1}, f_{c-2}` at
//! points `x_{c-1}, x_{c-2}` (varying one coordinate at a time):
//!
//! ```text
//! Δc = 100 · (f_{c-1} − f_{c-2}) / f_{c-2}
//! δc = Δc / (x_{c-1} − x_{c-2})            when x_{c-1} ≠ x_{c-2}
//!
//!        ⎧ x_{c-1} + 1   if x_{c-1} = x_{c-2} and |Δc| > ε    (conditions changed)
//! x_c =  ⎨ x_{c-1} + 1   if x_{c-1} ≠ x_{c-2} and δc > ε      (gradient says up)
//!        ⎪ x_{c-1} − 1   if x_{c-1} ≠ x_{c-2} and δc < −ε     (gradient says down)
//!        ⎩ x_{c-1}       otherwise
//! ```
//!
//! The sign-of-difference quotient `δc` makes the rule a stochastic
//! sign-gradient ascent with unit steps. The paper extends it to several
//! parameters by tuning one at a time and moving to the next "when the
//! observed throughputs do not vary over several consecutive control
//! epochs"; [`CdTuner`] implements that with a stability window of three
//! epochs.

use crate::audit::{AuditLog, DecisionAction, DecisionEvent, RetriggerCause};
use crate::domain::{Domain, Point};
use crate::trigger::SignificanceMonitor;
use crate::tuner::OnlineTuner;

/// How many consecutive no-move epochs park one coordinate and rotate to the
/// next (multi-parameter extension).
const STABLE_EPOCHS: u32 = 3;

/// The coordinate-descent tuner of Algorithm 1.
///
/// # Examples
///
/// ```
/// use xferopt_tuners::{CdTuner, Domain, OnlineTuner};
///
/// let mut tuner = CdTuner::new(Domain::new(&[(1, 64)]), vec![2], 1.0);
/// let mut x = tuner.initial();
/// for _ in 0..30 {
///     let throughput = 4000.0 - ((x[0] - 10) as f64).powi(2) * 10.0;
///     x = tuner.observe(&x.clone(), throughput);
/// }
/// assert!((x[0] - 10).abs() <= 2, "walked to the peak: {x:?}");
/// ```
#[derive(Debug, Clone)]
pub struct CdTuner {
    domain: Domain,
    x0: Point,
    /// Coordinate currently being tuned.
    axis: usize,
    /// The point of the previous control epoch (`x_{c-2}` relative to the
    /// epoch being decided).
    last: Option<Point>,
    /// `Δc` from the previous epoch's throughput `f_{c-2}`, and its ε test.
    monitor: SignificanceMonitor,
    /// Consecutive epochs without movement on the current axis.
    stable_count: u32,
    /// Decision audit log (purely observational).
    audit: AuditLog,
}

impl CdTuner {
    /// A cd-tuner starting at `x0` with tolerance `eps_pct` (paper: 5).
    ///
    /// # Panics
    /// Panics if `x0` is outside `domain` or `eps_pct` is negative or not
    /// finite.
    pub fn new(domain: Domain, x0: Point, eps_pct: f64) -> Self {
        assert!(domain.contains(&x0), "x0 {x0:?} outside domain");
        CdTuner {
            domain,
            x0,
            axis: 0,
            last: None,
            monitor: SignificanceMonitor::new(eps_pct),
            stable_count: 0,
            audit: AuditLog::new(),
        }
    }

    /// Step the current axis of `x` by `delta`, clamped to the domain.
    /// Returns the stepped point and whether the clamp projected it back.
    fn step_axis(&self, x: &Point, delta: i64) -> (Point, bool) {
        let mut raw = x.clone();
        raw[self.axis] += delta;
        let next = self.domain.clamp(&raw);
        let projected = next != raw;
        (next, projected)
    }

    /// Record one audited decision.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        x: &Point,
        observed: f64,
        action: DecisionAction,
        next: &Point,
        delta_pct: Option<f64>,
        projected: bool,
        retrigger: Option<RetriggerCause>,
    ) {
        self.audit.record(DecisionEvent {
            seq: 0,
            tuner: "cd-tuner",
            x: x.clone(),
            observed,
            action,
            accepted: None,
            next: next.clone(),
            lambda: None,
            delta_pct,
            projected,
            retrigger,
        });
    }

    fn rotate_axis(&mut self) {
        self.axis = (self.axis + 1) % self.domain.dim();
        self.stable_count = 0;
    }
}

impl OnlineTuner for CdTuner {
    fn name(&self) -> &'static str {
        "cd-tuner"
    }

    fn domain(&self) -> &Domain {
        &self.domain
    }

    fn initial(&self) -> Point {
        self.x0.clone()
    }

    fn observe(&mut self, x: &Point, throughput: f64) -> Point {
        // Δc in percent; from a zero f_{c-2} (dead transfer) any recovery is
        // an infinite change.
        let shift = self.monitor.observe(throughput);
        let (Some(x2), Some(delta_pct)) = (self.last.replace(x.clone()), shift.delta_pct) else {
            // First observation (lines 8–11): probe upward to obtain the
            // first difference quotient.
            let (next, projected) = self.step_axis(x, 1);
            self.record(
                x,
                throughput,
                DecisionAction::Probe,
                &next,
                None,
                projected,
                None,
            );
            return next;
        };
        let moved = x[self.axis] - x2[self.axis];
        let eps_pct = self.monitor.eps_pct();
        let (next, action, projected, retrigger) = if moved == 0 {
            if let Some(cause) = shift.retrigger {
                // External conditions changed: probe upward (the paper
                // increases on new congestion or new bandwidth).
                self.stable_count = 0;
                let (n, p) = self.step_axis(x, 1);
                (n, DecisionAction::Retrigger, p, Some(cause))
            } else {
                self.stable_count += 1;
                (x.clone(), DecisionAction::Hold, false, None)
            }
        } else {
            let dq = delta_pct / moved as f64;
            if dq > eps_pct {
                self.stable_count = 0;
                let (n, p) = self.step_axis(x, 1);
                (n, DecisionAction::Step, p, None)
            } else if dq < -eps_pct {
                self.stable_count = 0;
                let (n, p) = self.step_axis(x, -1);
                (n, DecisionAction::Step, p, None)
            } else {
                self.stable_count += 1;
                (x.clone(), DecisionAction::Hold, false, None)
            }
        };

        // Multi-parameter rotation once this axis has settled: move to the
        // next coordinate and probe it immediately (a pure hold would leave
        // the new axis unexplored on a quiet link).
        if self.domain.dim() > 1 && self.stable_count >= STABLE_EPOCHS {
            self.rotate_axis();
            let (rotated, p) = self.step_axis(&next, 1);
            self.record(
                x,
                throughput,
                DecisionAction::RotateAxis,
                &rotated,
                Some(delta_pct),
                p,
                None,
            );
            return rotated;
        }
        self.record(
            x,
            throughput,
            action,
            &next,
            Some(delta_pct),
            projected,
            retrigger,
        );
        next
    }

    fn audit_log(&self) -> Option<&AuditLog> {
        Some(&self.audit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a tuner against a static objective for `epochs` epochs; returns
    /// the trajectory of evaluated points.
    fn drive<F: FnMut(&Point) -> f64>(
        tuner: &mut dyn OnlineTuner,
        epochs: usize,
        mut f: F,
    ) -> Vec<Point> {
        let mut x = tuner.initial();
        let mut traj = vec![x.clone()];
        for _ in 0..epochs {
            let fx = f(&x);
            x = tuner.observe(&x.clone(), fx);
            traj.push(x.clone());
        }
        traj
    }

    /// Concave 1-D objective peaking at `peak`.
    fn concave(peak: i64) -> impl FnMut(&Point) -> f64 {
        move |x: &Point| 4000.0 - ((x[0] - peak) as f64).powi(2) * 10.0
    }

    #[test]
    fn climbs_to_a_nearby_peak() {
        let mut t = CdTuner::new(Domain::paper_nc(), vec![2], 0.01);
        let traj = drive(&mut t, 30, concave(8));
        let last = traj.last().unwrap()[0];
        assert!(
            (7..=9).contains(&last),
            "should settle at the peak: trajectory {traj:?}"
        );
    }

    #[test]
    fn unit_steps_only() {
        let mut t = CdTuner::new(Domain::paper_nc(), vec![2], 5.0);
        let traj = drive(&mut t, 25, concave(20));
        for w in traj.windows(2) {
            let step = (w[1][0] - w[0][0]).abs();
            assert!(step <= 1, "cd-tuner must move ±1 per epoch: {w:?}");
        }
    }

    #[test]
    fn needs_x0_minus_xstar_epochs() {
        // The paper: cd-tuner requires |x0 − x*| control epochs to reach x*.
        let mut t = CdTuner::new(Domain::paper_nc(), vec![2], 0.01);
        let traj = drive(&mut t, 40, concave(25));
        let reached = traj.iter().position(|p| p[0] == 25);
        let n = reached.expect("never reached the peak");
        assert!(
            (23..=28).contains(&n),
            "expected ~23 epochs to walk from 2 to 25, took {n}"
        );
    }

    #[test]
    fn descends_when_started_above_peak() {
        let mut t = CdTuner::new(Domain::paper_nc(), vec![40], 0.01);
        let traj = drive(&mut t, 45, concave(8));
        let last = traj.last().unwrap()[0];
        assert!(
            (7..=9).contains(&last),
            "cd-tuner has a decrement rule and must walk down: {last}"
        );
    }

    #[test]
    fn insignificant_changes_hold_position() {
        // Flat objective: after the initial probe the tuner must stop moving.
        let mut t = CdTuner::new(Domain::paper_nc(), vec![10], 5.0);
        let traj = drive(&mut t, 10, |_| 1000.0);
        let tail = &traj[3..];
        assert!(
            tail.iter().all(|p| p == &tail[0]),
            "flat objective must freeze the tuner: {traj:?}"
        );
    }

    #[test]
    fn reprobes_when_conditions_change() {
        // Constant position, then the environment doubles the throughput:
        // the |Δc| > ε branch must wake the tuner up.
        let mut t = CdTuner::new(Domain::paper_nc(), vec![10], 5.0);
        let mut x = t.initial();
        for _ in 0..6 {
            x = t.observe(&x.clone(), 1000.0);
        }
        let settled = x.clone();
        x = t.observe(&x.clone(), 2000.0);
        assert_ne!(x, settled, "significant Δc must trigger a probe");
    }

    #[test]
    fn respects_domain_bounds() {
        let mut t = CdTuner::new(Domain::new(&[(1, 4)]), vec![4], 0.01);
        // Ever-increasing feedback pushes upward, but the bound holds.
        let mut x = t.initial();
        for i in 0..10 {
            x = t.observe(&x.clone(), 1000.0 + i as f64 * 500.0);
            assert!(x[0] <= 4 && x[0] >= 1);
        }
    }

    #[test]
    fn two_dim_rotates_axes() {
        // Objective separable with peaks at nc=6, np=12. Tolerance chosen so
        // near-peak steps are insignificant (the tuner settles) while distant
        // steps are significant (it keeps walking).
        let f = |x: &Point| {
            4000.0 - ((x[0] - 6) as f64).powi(2) * 30.0 - ((x[1] - 12) as f64).powi(2) * 30.0
        };
        let mut t = CdTuner::new(Domain::paper_nc_np(), vec![2, 8], 1.0);
        let traj = drive(&mut t, 80, f);
        let last = traj.last().unwrap();
        assert!(
            (last[0] - 6).abs() <= 2 && (last[1] - 12).abs() <= 2,
            "2-D cd should end near both peaks: {last:?} (trajectory {traj:?})"
        );
        // Both axes must actually have been explored.
        assert!(traj.iter().any(|p| p[0] != 2), "nc never tuned");
        assert!(traj.iter().any(|p| p[1] != 8), "np never tuned");
    }

    #[test]
    fn zero_throughput_recovery_probes_up() {
        let mut t = CdTuner::new(Domain::paper_nc(), vec![5], 5.0);
        let mut x = t.initial();
        x = t.observe(&x.clone(), 0.0);
        x = t.observe(&x.clone(), 0.0);
        let frozen = x.clone();
        x = t.observe(&x.clone(), 500.0);
        assert_ne!(x, frozen, "recovery from zero must be significant");
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn rejects_bad_start() {
        CdTuner::new(Domain::paper_nc(), vec![0], 5.0);
    }
}
