//! Wasted-bandwidth (regret) analysis.
//!
//! The paper compares its tuners in terms of *wasted bandwidth*: cd-tuner
//! "requires |x₀ − x*| control epochs to reach x*", large compass steps
//! probe bad points, Nelder–Mead evaluates every simplex vertex. This module
//! quantifies that: given an epoch trajectory and the best achievable value,
//! the **regret** of an epoch is the shortfall `opt − f`, and the total
//! wasted bandwidth is the regret integrated over epochs (MB, when `f` is
//! MB/s and epochs are `epoch_s` long).

use crate::online::OnlineTrajectory;

/// Regret summary of one online run against a reference optimum.
#[derive(Debug, Clone, PartialEq)]
pub struct RegretSummary {
    /// The reference optimum used.
    pub opt_value: f64,
    /// Total shortfall integrated over the run, in value·seconds (MB when
    /// the objective is MB/s).
    pub wasted: f64,
    /// Mean per-epoch shortfall.
    pub mean_regret: f64,
    /// First epoch index whose value reached `within_frac · opt`, if any.
    pub epochs_to_near_opt: Option<usize>,
    /// The fraction used for `epochs_to_near_opt`.
    pub within_frac: f64,
}

/// Summarize the regret of `traj` against `opt_value`, counting an epoch as
/// "near-optimal" once it reaches `within_frac · opt_value` (the paper's
/// steady-state convergence test); each epoch lasts `epoch_s` seconds.
///
/// Values above the optimum (measurement noise) contribute zero regret
/// rather than negative.
///
/// # Panics
/// Panics if `opt_value` is not finite, `within_frac` is outside `(0, 1]`,
/// or `epoch_s` is not positive.
pub fn summarize_regret(
    traj: &OnlineTrajectory,
    opt_value: f64,
    within_frac: f64,
    epoch_s: f64,
) -> RegretSummary {
    assert!(opt_value.is_finite(), "optimum must be finite");
    assert!(
        within_frac > 0.0 && within_frac <= 1.0,
        "within_frac must be in (0,1]"
    );
    assert!(epoch_s > 0.0, "epoch must be positive");
    let mut wasted = 0.0;
    let mut epochs_to_near_opt = None;
    for step in &traj.steps {
        wasted += (opt_value - step.value).max(0.0) * epoch_s;
        if epochs_to_near_opt.is_none() && step.value >= within_frac * opt_value {
            epochs_to_near_opt = Some(step.epoch);
        }
    }
    let n = traj.steps.len().max(1) as f64;
    RegretSummary {
        opt_value,
        wasted,
        mean_regret: wasted / epoch_s / n,
        epochs_to_near_opt,
        within_frac,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::Heur1Tuner;
    use crate::compass::CompassTuner;
    use crate::domain::Domain;
    use crate::online::OnlineStep;
    use crate::tuner::OnlineTuner;

    /// `epochs` control epochs of `tuner` on a concave objective that peaks
    /// at `peak`.
    fn concave_run(tuner: &mut dyn OnlineTuner, epochs: usize, peak: i64) -> OnlineTrajectory {
        let mut traj = OnlineTrajectory::default();
        let mut x = tuner.initial();
        for epoch in 0..epochs {
            let value = 4000.0 - ((x[0] - peak) as f64).powi(2);
            traj.steps.push(OnlineStep {
                epoch,
                x: x.clone(),
                value,
            });
            x = tuner.observe(&x, value);
        }
        traj
    }

    #[test]
    fn perfect_run_has_zero_regret() {
        let mut traj = OnlineTrajectory::default();
        for epoch in 0..10 {
            traj.steps.push(OnlineStep {
                epoch,
                x: vec![5],
                value: 1000.0,
            });
        }
        let r = summarize_regret(&traj, 1000.0, 0.95, 30.0);
        assert_eq!(r.wasted, 0.0);
        assert_eq!(r.mean_regret, 0.0);
        assert_eq!(r.epochs_to_near_opt, Some(0));
    }

    #[test]
    fn overshoot_counts_zero_not_negative() {
        let mut traj = OnlineTrajectory::default();
        traj.steps.push(OnlineStep {
            epoch: 0,
            x: vec![1],
            value: 1200.0, // above the reference optimum (noise)
        });
        traj.steps.push(OnlineStep {
            epoch: 1,
            x: vec![1],
            value: 800.0,
        });
        let r = summarize_regret(&traj, 1000.0, 0.95, 10.0);
        assert_eq!(r.wasted, 200.0 * 10.0);
    }

    #[test]
    fn far_start_wastes_more_for_additive_search() {
        // The paper: cd-style additive search pays |x0 − x*| epochs of
        // regret; compass jumps pay much less when the optimum is far.
        let opt = 4000.0;
        let mut additive = Heur1Tuner::new(Domain::new(&[(1, 256)]), vec![2], 0.1);
        let add_traj = concave_run(&mut additive, 80, 100);
        let add = summarize_regret(&add_traj, opt, 0.95, 30.0);

        let mut compass = CompassTuner::new(Domain::new(&[(1, 256)]), vec![2], 16.0, 5.0);
        let cs_traj = concave_run(&mut compass, 80, 100);
        let cs = summarize_regret(&cs_traj, opt, 0.95, 30.0);

        assert!(
            cs.wasted < add.wasted / 1.5,
            "compass should waste far less: {:.0} vs {:.0}",
            cs.wasted,
            add.wasted
        );
        assert!(
            cs.epochs_to_near_opt.unwrap_or(999) < add.epochs_to_near_opt.unwrap_or(999),
            "compass should get near the optimum sooner"
        );
    }

    #[test]
    fn never_reaching_opt_reports_none() {
        let mut traj = OnlineTrajectory::default();
        traj.steps.push(OnlineStep {
            epoch: 0,
            x: vec![1],
            value: 10.0,
        });
        let r = summarize_regret(&traj, 1000.0, 0.9, 30.0);
        assert_eq!(r.epochs_to_near_opt, None);
        assert!(r.wasted > 0.0);
    }

    #[test]
    #[should_panic(expected = "within_frac must be in (0,1]")]
    fn bad_fraction_rejected() {
        summarize_regret(&OnlineTrajectory::default(), 1.0, 0.0, 1.0);
    }
}
