//! The ε%-significance monitor shared by the compass and Nelder–Mead tuners.
//!
//! Algorithm 2, lines 16–25: after a search converges, the tuner keeps the
//! best point and watches the throughput of consecutive control epochs.
//! Whenever the relative change `Δc = 100·(f_{c-1} − f_{c-2})/f_{c-2}`
//! exceeds the tolerance `ε%` in magnitude, the external conditions are
//! presumed to have changed and the search is re-invoked.

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
    /// Panics if `eps_pct` is negative.
    pub fn new(eps_pct: f64) -> Self {
        assert!(eps_pct >= 0.0, "tolerance must be non-negative");
        SignificanceMonitor {
            eps_pct,
            prev: None,
        }
    }

    /// The configured tolerance in percent.
    pub fn eps_pct(&self) -> f64 {
        self.eps_pct
    }

    /// Feed the next observation; returns `true` when the relative change
    /// from the previous one exceeds `ε%` in magnitude. The first observation
    /// after construction or [`SignificanceMonitor::reset`] never triggers.
    pub fn observe(&mut self, f: f64) -> bool {
        let triggered = match self.prev {
            None => false,
            Some(prev) => {
                if prev.abs() < f64::EPSILON {
                    // From zero, any positive throughput is significant.
                    f.abs() > f64::EPSILON
                } else {
                    let delta_pct = 100.0 * (f - prev) / prev.abs();
                    delta_pct.abs() > self.eps_pct
                }
            }
        };
        self.prev = Some(f);
        triggered
    }

    /// The relative change in percent that the next observation `f` would
    /// report, without consuming it.
    pub fn peek_delta_pct(&self, f: f64) -> Option<f64> {
        self.prev.map(|prev| {
            if prev.abs() < f64::EPSILON {
                if f.abs() > f64::EPSILON {
                    f64::INFINITY
                } else {
                    0.0
                }
            } else {
                100.0 * (f - prev) / prev.abs()
            }
        })
    }

    /// Forget history (used when a fresh search begins).
    pub fn reset(&mut self) {
        self.prev = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_never_triggers() {
        let mut m = SignificanceMonitor::new(5.0);
        assert!(!m.observe(1000.0));
    }

    #[test]
    fn small_changes_do_not_trigger() {
        let mut m = SignificanceMonitor::new(5.0);
        m.observe(1000.0);
        assert!(!m.observe(1049.0)); // +4.9%
        assert!(!m.observe(1000.0)); // -4.7%
    }

    #[test]
    fn large_changes_trigger_both_directions() {
        let mut m = SignificanceMonitor::new(5.0);
        m.observe(1000.0);
        assert!(m.observe(1100.0)); // +10%
        m.reset();
        m.observe(1000.0);
        assert!(m.observe(900.0)); // -10%
    }

    #[test]
    fn change_from_zero_is_significant() {
        let mut m = SignificanceMonitor::new(5.0);
        m.observe(0.0);
        assert!(m.observe(10.0));
        m.reset();
        m.observe(0.0);
        assert!(!m.observe(0.0));
    }

    #[test]
    fn reset_forgets() {
        let mut m = SignificanceMonitor::new(5.0);
        m.observe(1000.0);
        m.reset();
        assert!(!m.observe(5000.0));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut m = SignificanceMonitor::new(5.0);
        assert_eq!(m.peek_delta_pct(10.0), None);
        m.observe(1000.0);
        let d = m.peek_delta_pct(1100.0).unwrap();
        assert!((d - 10.0).abs() < 1e-9, "d={d}");
        // Peeking twice gives the same answer.
        let a = m.peek_delta_pct(1200.0);
        let b = m.peek_delta_pct(1200.0);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_tolerance_triggers_on_any_change() {
        let mut m = SignificanceMonitor::new(0.0);
        m.observe(1000.0);
        assert!(m.observe(1000.0001));
        assert!(!m.observe(1000.0001));
    }

    #[test]
    #[should_panic(expected = "tolerance must be non-negative")]
    fn negative_tolerance_rejected() {
        SignificanceMonitor::new(-1.0);
    }
}
