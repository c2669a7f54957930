//! Process (re)start cost model.
//!
//! The paper (Section IV-A, "Overhead under external compute load is
//! significant"): every call to `globus-url-copy` must load the executable,
//! allocate buffers and data structures, create threads, and tear everything
//! down again — and the direct-search tuners restart it at **every control
//! epoch**. At the paper's 30 s epoch this costs ~17 % of throughput on an
//! idle source, rising to ~33 % and ~50 % with `ext.cmp` at 16 and 64, while
//! external *transfer* load keeps it near 15 %.
//!
//! The model: a restart of an application with `nc` processes takes
//!
//! ```text
//! t = base + stretch / share^kappa + per_proc · nc
//! ```
//!
//! where `share ∈ (0,1]` is the core fraction one starting process can claim
//! (from [`crate::CpuModel::process_share`]). An idle machine gives
//! `base + stretch (+ small per-proc term)`; contention stretches the
//! CPU-bound portion sublinearly (`kappa < 1` — startup is partly I/O).

/// Parameters of the restart-cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StartupModel {
    /// Fixed cost: exec load, connection setup (seconds).
    pub base_s: f64,
    /// CPU-bound cost at full share: buffer allocation, thread spawn
    /// (seconds); stretched by contention.
    pub stretch_s: f64,
    /// Marginal cost of each additional process (seconds).
    pub per_proc_s: f64,
    /// Contention exponent: how strongly low CPU share stretches startup.
    pub kappa: f64,
}

impl StartupModel {
    /// Validate invariants.
    ///
    /// # Panics
    /// Panics when any component is negative or `kappa` is not in `[0, 2]`.
    pub fn validate(&self) {
        assert!(self.base_s >= 0.0, "base_s must be non-negative");
        assert!(self.stretch_s >= 0.0, "stretch_s must be non-negative");
        assert!(self.per_proc_s >= 0.0, "per_proc_s must be non-negative");
        assert!(
            (0.0..=2.0).contains(&self.kappa),
            "kappa must be in [0,2], got {}",
            self.kappa
        );
    }

    /// Restart time in seconds for an app of `nc` processes when one starting
    /// process can claim core fraction `share`.
    ///
    /// # Panics
    /// Panics if `share` is not in `(0, 1]`.
    pub fn startup_time_s(&self, nc: u32, share: f64) -> f64 {
        assert!(
            share > 0.0 && share <= 1.0,
            "share must be in (0,1], got {share}"
        );
        if nc == 0 {
            return 0.0;
        }
        self.base_s + self.stretch_s / share.powf(self.kappa) + self.per_proc_s * nc as f64
    }

    /// A model with zero cost everywhere — the paper's "ideal scenario" where
    /// `globus-url-copy` could adapt `nc` without restarting (used for the
    /// Fig. 7 best-case accounting).
    pub fn free() -> Self {
        StartupModel {
            base_s: 0.0,
            stretch_s: 0.0,
            per_proc_s: 0.0,
            kappa: 0.0,
        }
    }
}

impl Default for StartupModel {
    /// Calibrated so a default transfer (`nc=2`) costs ~5 s of a 30 s epoch
    /// idle (≈17 %) and degrades toward ~50 % under heavy compute load.
    fn default() -> Self {
        StartupModel {
            base_s: 1.0,
            stretch_s: 3.8,
            per_proc_s: 0.05,
            kappa: 0.35,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_restart_is_about_five_seconds() {
        let m = StartupModel::default();
        let t = m.startup_time_s(2, 1.0);
        assert!((4.0..6.0).contains(&t), "t={t}");
    }

    #[test]
    fn contention_stretches_startup() {
        let m = StartupModel::default();
        let idle = m.startup_time_s(2, 1.0);
        let loaded = m.startup_time_s(2, 0.15);
        let heavy = m.startup_time_s(2, 0.04);
        assert!(loaded > idle);
        assert!(heavy > loaded);
        // Paper shape at a 30 s epoch: ~17% idle, ~33% at cmp=16, ~50% at cmp=64.
        let pct = |t: f64| t / 30.0 * 100.0;
        assert!((12.0..25.0).contains(&pct(idle)), "idle {}%", pct(idle));
        assert!(
            (25.0..45.0).contains(&pct(loaded)),
            "loaded {}%",
            pct(loaded)
        );
        assert!((38.0..65.0).contains(&pct(heavy)), "heavy {}%", pct(heavy));
    }

    #[test]
    fn more_processes_cost_more() {
        let m = StartupModel::default();
        assert!(m.startup_time_s(64, 1.0) > m.startup_time_s(2, 1.0));
    }

    #[test]
    fn zero_processes_cost_nothing() {
        assert_eq!(StartupModel::default().startup_time_s(0, 1.0), 0.0);
    }

    #[test]
    fn free_model_is_free() {
        let m = StartupModel::free();
        assert_eq!(m.startup_time_s(100, 0.01), 0.0 + 0.0 + 0.0);
        m.validate();
    }

    #[test]
    #[should_panic(expected = "share must be in (0,1]")]
    fn zero_share_rejected() {
        StartupModel::default().startup_time_s(1, 0.0);
    }

    #[test]
    #[should_panic(expected = "kappa must be in [0,2]")]
    fn bad_kappa_rejected() {
        StartupModel {
            kappa: 3.0,
            ..StartupModel::default()
        }
        .validate();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn startup_monotone_decreasing_in_share(
            share_lo in 0.001f64..0.5,
            delta in 0.001f64..0.5,
            nc in 1u32..128,
        ) {
            let m = StartupModel::default();
            let share_hi = (share_lo + delta).min(1.0);
            prop_assert!(
                m.startup_time_s(nc, share_lo) >= m.startup_time_s(nc, share_hi),
                "less CPU share must never speed up startup"
            );
        }

        #[test]
        fn startup_monotone_increasing_in_nc(
            share in 0.01f64..1.0,
            nc in 1u32..256,
        ) {
            let m = StartupModel::default();
            prop_assert!(m.startup_time_s(nc + 1, share) >= m.startup_time_s(nc, share));
        }

        #[test]
        fn startup_always_positive_and_finite(share in 0.001f64..1.0, nc in 1u32..512) {
            let t = StartupModel::default().startup_time_s(nc, share);
            prop_assert!(t > 0.0 && t.is_finite());
        }
    }
}
