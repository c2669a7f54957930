//! Algorithm 2: the compass-search tuner (`cs-tuner`).
//!
//! Compass (pattern) search probes the `2m` coordinate directions around an
//! incumbent point at step size `λ`. An improving probe becomes the new
//! incumbent; when no direction improves, `λ` is halved; the search finishes
//! when `λ < 0.5` (the pattern has degenerated to a single integer point).
//! Probes pass through the paper's `fBnd` (round + project), and direction
//! order is randomized each round, as in the paper ("randomly samples a
//! coordinate direction").
//!
//! The online wrapper (Algorithm 2's main loop) then holds the best point,
//! monitors the epoch-over-epoch throughput change `Δc`, and re-invokes the
//! search whenever `|Δc| > ε%` — external conditions have shifted, so a
//! region that was bad may now be good (and vice versa).

use crate::audit::{AuditLog, DecisionAction, DecisionEvent, RetriggerCause};
use crate::domain::{Domain, Point};
use crate::trigger::SignificanceMonitor;
use crate::tuner::OnlineTuner;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

#[derive(Debug, Clone)]
enum Phase {
    /// Evaluating the incumbent itself (line 3 of COMPASS-SEARCH).
    EvalIncumbent,
    /// Probing coordinate directions.
    Probing {
        /// Directions not yet tried at the current λ, as (axis, sign).
        remaining: Vec<(usize, i64)>,
        /// The probe point currently being evaluated.
        probe: Point,
    },
    /// Search converged; monitoring for significant change.
    Monitor,
}

/// The compass-search tuner of Algorithm 2.
#[derive(Debug, Clone)]
pub struct CompassTuner {
    domain: Domain,
    x0: Point,
    lambda0: f64,
    lambda: f64,
    incumbent: Point,
    f_incumbent: f64,
    phase: Phase,
    monitor: SignificanceMonitor,
    rng: SmallRng,
    searches_started: u64,
    /// Decision audit log (purely observational).
    audit: AuditLog,
}

impl CompassTuner {
    /// A cs-tuner starting at `x0` with initial step `lambda` (paper: 8) and
    /// tolerance `eps_pct` (paper: 5).
    ///
    /// # Panics
    /// Panics if `x0` is outside `domain`, or `lambda` is not positive.
    pub fn new(domain: Domain, x0: Point, lambda: f64, eps_pct: f64) -> Self {
        assert!(domain.contains(&x0), "x0 {x0:?} outside domain");
        assert!(lambda > 0.0, "lambda must be positive");
        CompassTuner {
            domain,
            incumbent: x0.clone(),
            x0,
            lambda0: lambda,
            lambda,
            f_incumbent: f64::NEG_INFINITY,
            phase: Phase::EvalIncumbent,
            monitor: SignificanceMonitor::new(eps_pct),
            rng: SmallRng::seed_from_u64(0x5eed_c0de_0405),
            searches_started: 1,
            audit: AuditLog::new(),
        }
    }

    /// Reseed the direction-shuffling RNG (for repeat determinism).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = SmallRng::seed_from_u64(seed);
        self
    }

    /// Number of search invocations so far (1 initial + re-triggers).
    pub fn searches_started(&self) -> u64 {
        self.searches_started
    }

    /// Current incumbent point.
    pub fn incumbent(&self) -> &Point {
        &self.incumbent
    }

    /// The current step size λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// A freshly shuffled set of the 2m coordinate directions.
    fn fresh_directions(&mut self) -> Vec<(usize, i64)> {
        let m = self.domain.dim();
        let mut dirs: Vec<(usize, i64)> = (0..m).flat_map(|a| [(a, 1i64), (a, -1i64)]).collect();
        dirs.shuffle(&mut self.rng);
        dirs
    }

    /// Next probe from the remaining directions; skips directions whose
    /// probe lands back on the incumbent (projected at a bound). Halves λ
    /// (and refreshes the direction set) when a round is exhausted; returns
    /// `None` when λ has collapsed and the search is over. The flag reports
    /// whether `fBnd` projected the accepted probe off its nominal target.
    fn next_probe(&mut self, remaining: &mut Vec<(usize, i64)>) -> Option<(Point, bool)> {
        loop {
            while let Some((axis, sign)) = remaining.pop() {
                let mut xf: Vec<f64> = self.incumbent.iter().map(|&v| v as f64).collect();
                xf[axis] += sign as f64 * self.lambda;
                let probe = self.domain.fbnd(&xf);
                if probe != self.incumbent {
                    let raw: Point = xf.iter().map(|&v| v.round() as i64).collect();
                    return Some((probe.clone(), probe != raw));
                }
            }
            // Round exhausted with no improvement: halve λ (line 13).
            self.lambda *= 0.5;
            if self.lambda < 0.5 {
                return None;
            }
            *remaining = self.fresh_directions();
        }
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
        projected: bool,
        retrigger: Option<RetriggerCause>,
    ) {
        self.audit.record(DecisionEvent {
            seq: 0,
            tuner: "cs-tuner",
            x: x.clone(),
            observed,
            action,
            accepted,
            next: next.clone(),
            lambda: Some(self.lambda),
            delta_pct,
            projected,
            retrigger,
        });
    }

    /// Begin a fresh search (initial call or re-trigger).
    fn start_search(&mut self, from: Point) {
        self.incumbent = from;
        self.f_incumbent = f64::NEG_INFINITY;
        self.lambda = self.lambda0;
        self.phase = Phase::EvalIncumbent;
        self.monitor.reset();
        self.searches_started += 1;
    }
}

impl OnlineTuner for CompassTuner {
    fn name(&self) -> &'static str {
        "cs-tuner"
    }

    fn domain(&self) -> &Domain {
        &self.domain
    }

    fn initial(&self) -> Point {
        self.x0.clone()
    }

    fn observe(&mut self, x: &Point, throughput: f64) -> Point {
        match std::mem::replace(&mut self.phase, Phase::Monitor) {
            Phase::EvalIncumbent => {
                debug_assert_eq!(x, &self.incumbent, "expected incumbent evaluation");
                self.f_incumbent = throughput;
                let mut remaining = self.fresh_directions();
                match self.next_probe(&mut remaining) {
                    Some((probe, projected)) => {
                        self.phase = Phase::Probing {
                            remaining,
                            probe: probe.clone(),
                        };
                        self.record(
                            x,
                            throughput,
                            DecisionAction::EvalStart,
                            None,
                            &probe,
                            None,
                            projected,
                            None,
                        );
                        probe
                    }
                    None => {
                        // Degenerate domain (single point): monitor.
                        self.phase = Phase::Monitor;
                        self.monitor.reset();
                        self.monitor.observe(throughput);
                        let next = self.incumbent.clone();
                        self.record(
                            x,
                            throughput,
                            DecisionAction::Converged,
                            None,
                            &next,
                            None,
                            false,
                            None,
                        );
                        next
                    }
                }
            }
            Phase::Probing {
                mut remaining,
                probe,
            } => {
                debug_assert_eq!(x, &probe, "expected probe evaluation");
                let accepted = throughput > self.f_incumbent;
                if accepted {
                    // Improving point becomes the incumbent; a fresh round of
                    // directions opens around it (line 10).
                    self.incumbent = probe;
                    self.f_incumbent = throughput;
                    remaining = self.fresh_directions();
                }
                match self.next_probe(&mut remaining) {
                    Some((next, projected)) => {
                        self.phase = Phase::Probing {
                            remaining,
                            probe: next.clone(),
                        };
                        self.record(
                            x,
                            throughput,
                            DecisionAction::CompassProbe,
                            Some(accepted),
                            &next,
                            None,
                            projected,
                            None,
                        );
                        next
                    }
                    None => {
                        // λ < 0.5: search done; hold the best point and watch.
                        self.phase = Phase::Monitor;
                        self.monitor.reset();
                        self.monitor.observe(self.f_incumbent);
                        let next = self.incumbent.clone();
                        self.record(
                            x,
                            throughput,
                            DecisionAction::Converged,
                            Some(accepted),
                            &next,
                            None,
                            false,
                            None,
                        );
                        next
                    }
                }
            }
            Phase::Monitor => {
                let shift = self.monitor.observe(throughput);
                if shift.retrigger.is_some() {
                    // Restart from the incumbent, not from `x0` as Algorithm 2
                    // line 22 reads literally: it wastes less bandwidth. The
                    // first epoch of the new search evaluates it again.
                    self.start_search(self.incumbent.clone());
                }
                let next = self.incumbent.clone();
                self.record(
                    x,
                    throughput,
                    shift.action(),
                    None,
                    &next,
                    shift.delta_pct,
                    false,
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

    fn drive<F: FnMut(&Point) -> f64>(
        tuner: &mut dyn OnlineTuner,
        epochs: usize,
        mut f: F,
    ) -> Vec<(Point, f64)> {
        let mut x = tuner.initial();
        let mut hist = Vec::new();
        for _ in 0..epochs {
            let fx = f(&x);
            hist.push((x.clone(), fx));
            x = tuner.observe(&x.clone(), fx);
        }
        hist
    }

    fn concave_1d(peak: i64) -> impl FnMut(&Point) -> f64 {
        move |x: &Point| 4000.0 - ((x[0] - peak) as f64).powi(2) * 2.0
    }

    #[test]
    fn finds_distant_peak_fast() {
        // Paper: "given a sufficiently large λ, cs-tuner makes rapid progress
        // toward the critical point".
        let mut t = CompassTuner::new(Domain::paper_nc(), vec![2], 8.0, 5.0);
        let hist = drive(&mut t, 30, concave_1d(50));
        let best = hist.iter().map(|(p, _)| p[0]).max().unwrap();
        assert!(
            (42..=58).contains(&best),
            "λ=8 jumps should get near 50 quickly: best={best}"
        );
        // Settled value after convergence:
        let last = &hist.last().unwrap().0;
        assert!((last[0] - 50).unsigned_abs() <= 8, "settled at {last:?}");
    }

    #[test]
    fn converges_then_holds() {
        let mut t = CompassTuner::new(Domain::paper_nc(), vec![2], 8.0, 5.0);
        let hist = drive(&mut t, 60, concave_1d(20));
        // After convergence, the point must stop moving (monitor phase) on a
        // quiet objective.
        let tail: Vec<_> = hist[40..].iter().map(|(p, _)| p.clone()).collect();
        assert!(
            tail.windows(2).all(|w| w[0] == w[1]),
            "cs-tuner must hold after convergence: {tail:?}"
        );
        assert_eq!(t.searches_started(), 1, "quiet objective: no re-trigger");
    }

    #[test]
    fn lambda_halves_to_convergence() {
        let mut t = CompassTuner::new(Domain::paper_nc(), vec![10], 8.0, 5.0);
        drive(&mut t, 40, concave_1d(10));
        assert!(t.lambda() < 0.5, "λ must collapse: {}", t.lambda());
    }

    #[test]
    fn retriggers_on_environment_change() {
        // Environment shift mid-run: peak moves from 10 to 60 and the
        // throughput at the held point jumps — search must restart and find
        // the new peak.
        let mut t = CompassTuner::new(Domain::paper_nc(), vec![2], 8.0, 5.0);
        let mut x = t.initial();
        for epoch in 0..120 {
            let peak = if epoch < 40 { 10 } else { 60 };
            let fx = 4000.0 - ((x[0] - peak) as f64).powi(2) * 2.0;
            x = t.observe(&x.clone(), fx);
        }
        assert!(
            t.searches_started() >= 2,
            "shift must re-trigger the search"
        );
        assert!(
            (x[0] - 60).abs() <= 8,
            "should track the moved peak: ended at {x:?}"
        );
    }

    #[test]
    fn tracks_a_moving_peak() {
        let mut t = CompassTuner::new(Domain::new(&[(1, 128)]), vec![2], 8.0, 5.0);
        let mut epoch = 0;
        let hist = drive(&mut t, 120, |x| {
            let peak = if epoch < 60 { 20 } else { 90 };
            epoch += 1;
            4000.0 - ((x[0] - peak) as f64).powi(2)
        });
        let mean = |from: usize, to: usize| {
            hist[from..to].iter().map(|(_, f)| f).sum::<f64>() / (to - from) as f64
        };
        let (early, late) = (mean(40, 60), mean(100, 120));
        assert!(
            early > 3900.0,
            "should have converged near the first peak: {early}"
        );
        assert!(late > 3700.0, "should have re-found the moved peak: {late}");
        let last = &hist.last().unwrap().0;
        assert!((last[0] - 90).abs() <= 10, "final point {last:?}");
    }

    #[test]
    fn probes_stay_in_domain() {
        let domain = Domain::new(&[(1, 12), (1, 6)]);
        let mut t = CompassTuner::new(domain.clone(), vec![11, 2], 8.0, 5.0);
        let hist = drive(&mut t, 50, |x| (x[0] + x[1]) as f64 * 10.0);
        for (p, _) in &hist {
            assert!(domain.contains(p), "out-of-domain probe {p:?}");
        }
    }

    #[test]
    fn bound_projected_duplicate_probes_are_skipped() {
        // Incumbent at the upper bound: +λ probes project back onto it and
        // must not be evaluated as "new" points.
        let domain = Domain::new(&[(1, 10)]);
        let mut t = CompassTuner::new(domain, vec![10], 8.0, 5.0);
        let hist = drive(&mut t, 20, |x| x[0] as f64);
        for w in hist.windows(2) {
            if w[0].0 == w[1].0 {
                // Repeats only allowed once monitoring (identical holds).
                continue;
            }
        }
        // The tuner converges to the bound and holds there.
        assert_eq!(hist.last().unwrap().0, vec![10]);
    }

    #[test]
    fn two_dim_finds_joint_peak() {
        let f = |x: &Point| {
            4000.0 - ((x[0] - 24) as f64).powi(2) * 3.0 - ((x[1] - 6) as f64).powi(2) * 40.0
        };
        let mut t = CompassTuner::new(Domain::paper_nc_np(), vec![2, 8], 8.0, 5.0).with_seed(7);
        let hist = drive(&mut t, 80, f);
        let last = &hist.last().unwrap().0;
        assert!(
            (last[0] - 24).abs() <= 8 && (last[1] - 6).abs() <= 4,
            "2-D compass should end near (24, 6): {last:?}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let mut t =
                CompassTuner::new(Domain::paper_nc_np(), vec![2, 8], 8.0, 5.0).with_seed(seed);
            drive(&mut t, 40, |x| (x[0] * 3 + x[1]) as f64)
                .into_iter()
                .map(|(p, _)| p)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2), "different seeds should shuffle differently");
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn rejects_bad_lambda() {
        CompassTuner::new(Domain::paper_nc(), vec![2], 0.0, 5.0);
    }
}
