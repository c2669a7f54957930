//! The ε%-significance monitor shared by every re-triggering tuner.
//!
//! Algorithm 2, lines 16–25: after a search converges, the tuner keeps the
//! best point and watches the throughput of consecutive control epochs.
//! Whenever the relative change `Δc = 100·(f_{c-1} − f_{c-2})/f_{c-2}`
//! exceeds the tolerance `ε%` in magnitude, the external conditions are
//! presumed to have changed and the search is re-invoked. The compass,
//! Nelder–Mead, history, heuristic and bandit tuners watch their held point
//! with [`SignificanceMonitor::observe`]; the cd-tuner reads every epoch's
//! `Δc` from it.

use crate::audit::{DecisionAction, RetriggerCause};

/// `Δc` in percent from `prev` to `f`. From a zero `prev`, any nonzero `f`
/// is an infinite change and another zero is no change.
fn delta_pct(prev: f64, f: f64) -> f64 {
    if prev.abs() < f64::EPSILON {
        if f.abs() > f64::EPSILON {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        100.0 * (f - prev) / prev.abs()
    }
}

/// What one observation showed the monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shift {
    /// `Δc` from the previous observation; `None` for the first one after
    /// construction or [`SignificanceMonitor::reset`].
    pub delta_pct: Option<f64>,
    /// Present when `|Δc| > ε%`: why the search must restart.
    pub retrigger: Option<RetriggerCause>,
}

impl Shift {
    /// The audited move at a held point: re-trigger or keep monitoring.
    pub fn action(&self) -> DecisionAction {
        if self.retrigger.is_some() {
            DecisionAction::Retrigger
        } else {
            DecisionAction::Monitor
        }
    }
}

/// Tracks consecutive observations and flags significant change.
#[derive(Debug, Clone)]
pub struct SignificanceMonitor {
    eps_pct: f64,
    prev: Option<f64>,
}

impl SignificanceMonitor {
    /// A monitor with tolerance `eps_pct` (the paper uses 5).
    ///
    /// # Panics
    /// Panics if `eps_pct` is negative or not finite.
    pub fn new(eps_pct: f64) -> Self {
        assert!(
            (0.0..f64::INFINITY).contains(&eps_pct),
            "tolerance must be non-negative and finite"
        );
        SignificanceMonitor {
            eps_pct,
            prev: None,
        }
    }

    /// The configured tolerance in percent.
    pub fn eps_pct(&self) -> f64 {
        self.eps_pct
    }

    /// Consume the next observation: its `Δc` from the previous one and,
    /// when `|Δc| > ε%`, the cause of the re-trigger. A recovery from zero
    /// (`Δc = +∞`) is [`RetriggerCause::ZeroRecovery`]; every other change,
    /// a drop to zero (−100 %) included, is
    /// [`RetriggerCause::SignificantDelta`]. NaN never triggers.
    pub fn observe(&mut self, f: f64) -> Shift {
        let delta = self.prev.replace(f).map(|prev| delta_pct(prev, f));
        let retrigger = delta.filter(|d| d.abs() > self.eps_pct).map(|d| match d {
            f64::INFINITY => RetriggerCause::ZeroRecovery,
            d => RetriggerCause::SignificantDelta {
                delta_pct: d,
                eps_pct: self.eps_pct,
            },
        });
        Shift {
            delta_pct: delta,
            retrigger,
        }
    }

    /// Forget history (used when a fresh search begins).
    pub fn reset(&mut self) {
        self.prev = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triggers(m: &mut SignificanceMonitor, f: f64) -> bool {
        m.observe(f).retrigger.is_some()
    }

    #[test]
    fn observe_table_over_prev_and_f() {
        use RetriggerCause::{SignificantDelta, ZeroRecovery};
        let sig = |delta_pct| {
            Some(SignificantDelta {
                delta_pct,
                eps_pct: 5.0,
            })
        };
        // (prev, f, Δc, cause) at ε = 5. Each Δc here is a correctly rounded
        // quotient of exact integers, so it compares with `==`.
        let cases = [
            (None, 1000.0, None, None),
            (None, 0.0, None, None),
            (Some(0.0), 0.0, Some(0.0), None),
            (Some(0.0), 10.0, Some(f64::INFINITY), Some(ZeroRecovery)),
            (Some(1000.0), 0.0, Some(-100.0), sig(-100.0)),
            (Some(1000.0), 1049.0, Some(4.9), None),
            (Some(1000.0), 951.0, Some(-4.9), None),
            (Some(1000.0), 1051.0, Some(5.1), sig(5.1)),
            (Some(1000.0), 949.0, Some(-5.1), sig(-5.1)),
            (Some(-1000.0), -900.0, Some(10.0), sig(10.0)),
        ];
        for (prev, f, delta_pct, retrigger) in cases {
            let mut m = SignificanceMonitor::new(5.0);
            if let Some(p) = prev {
                m.observe(p);
            }
            let shift = m.observe(f);
            assert_eq!(
                shift,
                Shift {
                    delta_pct,
                    retrigger
                },
                "{prev:?} → {f}"
            );
            let action = if retrigger.is_some() {
                DecisionAction::Retrigger
            } else {
                DecisionAction::Monitor
            };
            assert_eq!(shift.action(), action, "{prev:?} → {f}");
        }
    }

    #[test]
    fn nan_never_triggers() {
        for (prev, f) in [(1000.0, f64::NAN), (f64::NAN, 1000.0), (f64::NAN, f64::NAN)] {
            let mut m = SignificanceMonitor::new(0.0);
            m.observe(prev);
            let shift = m.observe(f);
            assert!(shift.delta_pct.unwrap().is_nan(), "{prev} → {f}");
            assert_eq!(shift.retrigger, None, "{prev} → {f}");
        }
    }

    #[test]
    fn first_observation_never_triggers() {
        let mut m = SignificanceMonitor::new(5.0);
        assert!(!triggers(&mut m, 1000.0));
    }

    #[test]
    fn small_changes_do_not_trigger() {
        let mut m = SignificanceMonitor::new(5.0);
        m.observe(1000.0);
        assert!(!triggers(&mut m, 1049.0)); // +4.9%
        assert!(!triggers(&mut m, 1000.0)); // -4.7%
    }

    #[test]
    fn large_changes_trigger_both_directions() {
        let mut m = SignificanceMonitor::new(5.0);
        m.observe(1000.0);
        assert!(triggers(&mut m, 1100.0)); // +10%
        m.reset();
        m.observe(1000.0);
        assert!(triggers(&mut m, 900.0)); // -10%
    }

    #[test]
    fn change_from_zero_is_significant() {
        let mut m = SignificanceMonitor::new(5.0);
        m.observe(0.0);
        assert!(triggers(&mut m, 10.0));
        m.reset();
        m.observe(0.0);
        assert!(!triggers(&mut m, 0.0));
    }

    #[test]
    fn reset_forgets() {
        let mut m = SignificanceMonitor::new(5.0);
        m.observe(1000.0);
        m.reset();
        assert!(!triggers(&mut m, 5000.0));
    }

    #[test]
    fn zero_tolerance_triggers_on_any_change() {
        let mut m = SignificanceMonitor::new(0.0);
        m.observe(1000.0);
        assert!(triggers(&mut m, 1000.0001));
        assert!(!triggers(&mut m, 1000.0001));
    }

    #[test]
    #[should_panic(expected = "tolerance must be non-negative")]
    fn negative_tolerance_rejected() {
        SignificanceMonitor::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "tolerance must be non-negative and finite")]
    fn infinite_tolerance_rejected() {
        SignificanceMonitor::new(f64::INFINITY);
    }
}
