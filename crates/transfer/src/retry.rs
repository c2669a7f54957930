//! Exponential-backoff retry policy for aborted transfers.
//!
//! When a [`crate::World`] runs with a fault plan
//! ([`crate::World::enable_faults`]), a `TransferAbort` event kills the
//! transfer's streams; the transfer then re-enters after a backoff delay plus
//! the usual startup cost, with `moved_mb` preserved. The delay grows
//! exponentially with *consecutive* failed attempts (the counter resets as
//! soon as the transfer moves bytes again) and is jittered so that repeated
//! aborts of co-located transfers do not resynchronise — mirroring how real
//! transfer tools (`globus-url-copy -rst`, Globus service retries) behave.
//!
//! [`RetryPolicy`] is deliberately the *single* backoff implementation in the
//! workspace; it has two call sites:
//!
//! 1. the transfer layer itself, for abort retries of a single transfer
//!    (`World::enable_faults` / `enable_faults_with_policy`); and
//! 2. the fleet orchestrator's supervision loop, which reuses the same
//!    policy (`RetryPolicy::default()`) to space out requeues of
//!    quarantined jobs (see `xferopt-orchestrator`'s `fleet::FleetSim` and
//!    DESIGN.md §12).
//!
//! Keep any backoff tuning here so both layers stay in agreement.

use rand::rngs::SmallRng;
use xferopt_simcore::rng::sample_jitter;

/// Exponential backoff with a cap and multiplicative jitter.
///
/// The delay before retry attempt `n` (1-based, counting *consecutive*
/// failures) is
///
/// ```text
/// delay = min(base_s · factor^(n-1), max_s) · U(1 − jitter, 1 + jitter)
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Delay before the first retry, seconds.
    pub base_s: f64,
    /// Multiplicative growth per consecutive failure (≥ 1).
    pub factor: f64,
    /// Upper bound on the un-jittered delay, seconds.
    pub max_s: f64,
    /// Relative jitter half-width in `[0, 1)`; 0 disables jitter.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    /// 5 s base, doubling per failure, capped at 120 s, ±25% jitter.
    fn default() -> Self {
        RetryPolicy {
            base_s: 5.0,
            factor: 2.0,
            max_s: 120.0,
            jitter: 0.25,
        }
    }
}

impl RetryPolicy {
    /// A fixed (non-growing, un-jittered) delay — useful in tests.
    ///
    /// # Panics
    /// Panics if `delay_s` is not strictly positive.
    pub fn fixed(delay_s: f64) -> Self {
        assert!(delay_s > 0.0, "retry delay must be positive");
        RetryPolicy {
            base_s: delay_s,
            factor: 1.0,
            max_s: delay_s,
            jitter: 0.0,
        }
    }

    /// The backoff delay before consecutive-failure number `attempt`
    /// (1-based), in seconds. Draws one jitter sample from `rng`.
    ///
    /// # Panics
    /// Panics if `attempt` is zero.
    pub fn delay_s(&self, attempt: u32, rng: &mut SmallRng) -> f64 {
        assert!(attempt >= 1, "attempt counter is 1-based");
        let raw = self.base_s * self.factor.powi(attempt as i32 - 1);
        sample_jitter(rng, raw.min(self.max_s), self.jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn backoff_grows_then_caps() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(p.delay_s(1, &mut rng), 5.0);
        assert_eq!(p.delay_s(2, &mut rng), 10.0);
        assert_eq!(p.delay_s(3, &mut rng), 20.0);
        assert_eq!(p.delay_s(10, &mut rng), 120.0, "capped at max_s");
    }

    #[test]
    fn jitter_stays_within_band() {
        let p = RetryPolicy::default();
        let mut rng = SmallRng::seed_from_u64(7);
        for attempt in 1..=6 {
            let raw = (p.base_s * p.factor.powi(attempt as i32 - 1)).min(p.max_s);
            let d = p.delay_s(attempt, &mut rng);
            assert!(
                d >= raw * 0.75 && d <= raw * 1.25,
                "attempt {attempt}: {d} vs raw {raw}"
            );
        }
    }

    #[test]
    fn fixed_policy_is_constant() {
        let p = RetryPolicy::fixed(3.0);
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(p.delay_s(1, &mut rng), 3.0);
        assert_eq!(p.delay_s(5, &mut rng), 3.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let p = RetryPolicy::default();
        let once = || {
            let mut rng = SmallRng::seed_from_u64(42);
            (1..=5).map(|a| p.delay_s(a, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(once(), once());
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_attempt_rejected() {
        let mut rng = SmallRng::seed_from_u64(1);
        RetryPolicy::default().delay_s(0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "retry delay must be positive")]
    fn fixed_rejects_nonpositive() {
        RetryPolicy::fixed(0.0);
    }
}
