//! CPU fair-share and context-switch model.
//!
//! The model is deliberately simple — a thread-weighted processor-sharing
//! queue with a superlinear oversubscription penalty — because that is all
//! the paper's observed effects require:
//!
//! * A transfer application running `nc` single-core processes of `np`
//!   streams each contributes `nc·np` schedulable threads of weight 1.
//! * A compute hog (the paper's MKL `dgemm` copies pinned to all cores)
//!   contributes `cores` threads of weight [`CpuModel::compute_thread_weight`]
//!   — CPU-bound threads consume their full quantum while I/O-bound transfer
//!   threads often yield early, so a hog thread displaces more than one
//!   transfer thread's worth of time.
//! * Each process is single-core (GridFTP parallelism does **not** exploit
//!   multiple cores — paper Section III-A), so a process can never move more
//!   than [`CpuModel::core_rate_mbs`].
//! * Running many more threads than cores costs context switches and cache
//!   churn: throughput is multiplied by `1/(1 + α·(threads/cores − 1)^γ)`.

/// Parameters of the endpoint CPU model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Physical cores available to transfers and hogs.
    pub cores: f64,
    /// Peak MB/s a single (single-core) transfer process can move when it
    /// owns its core outright.
    pub core_rate_mbs: f64,
    /// Scheduler weight of one CPU-hog thread relative to one transfer
    /// thread. Greater than 1 because hogs never yield their quantum.
    pub compute_thread_weight: f64,
    /// Context-switch overhead coefficient α on an otherwise idle machine.
    /// Transfer threads are I/O-bound and park cheaply when cores are free,
    /// so this is small.
    pub csw_alpha: f64,
    /// Additional α per compute hog: switching among transfer threads is far
    /// costlier when hogs keep the cores busy and caches polluted. This is
    /// what makes heavy oversubscription affordable on an idle TACC run but
    /// expensive under `ext.cmp` (paper Figs. 5b/5c vs the ANL→TACC trend).
    pub csw_alpha_per_hog: f64,
    /// Context-switch overhead exponent γ.
    pub csw_gamma: f64,
}

impl CpuModel {
    /// Validate invariants. Called by constructors of presets.
    ///
    /// # Panics
    /// Panics when any parameter is non-positive (except `csw_alpha`, which
    /// may be zero to disable the overhead term).
    pub fn validate(&self) {
        assert!(self.cores > 0.0, "cores must be positive");
        assert!(self.core_rate_mbs > 0.0, "core rate must be positive");
        assert!(
            self.compute_thread_weight > 0.0,
            "compute thread weight must be positive"
        );
        assert!(self.csw_alpha >= 0.0, "csw_alpha must be non-negative");
        assert!(
            self.csw_alpha_per_hog >= 0.0,
            "csw_alpha_per_hog must be non-negative"
        );
        assert!(self.csw_gamma > 0.0, "csw_gamma must be positive");
    }

    /// Total effective thread weight on the machine.
    ///
    /// `transfer_threads` is the sum of `nc·np` over all transfer apps
    /// (weight 1 each); `compute_jobs` hogs contribute `cores` threads each
    /// at [`CpuModel::compute_thread_weight`].
    pub fn total_weight(&self, transfer_threads: f64, compute_jobs: u32) -> f64 {
        transfer_threads + compute_jobs as f64 * self.cores * self.compute_thread_weight
    }

    /// MB/s one transfer thread can move under the current load: its
    /// fair share of the machine, capped at a full core.
    pub fn per_thread_rate_mbs(&self, transfer_threads: f64, compute_jobs: u32) -> f64 {
        let w = self.total_weight(transfer_threads, compute_jobs);
        if w <= self.cores {
            // Undersubscribed: every thread can have a full core.
            self.core_rate_mbs
        } else {
            self.core_rate_mbs * self.cores / w
        }
    }

    /// CPU-side throughput cap for one application of `nc` processes × `np`
    /// streams, in MB/s, given the machine-wide load. Does **not** include
    /// the context-switch efficiency factor — apply [`CpuModel::efficiency`]
    /// on top.
    pub fn app_cpu_cap_mbs(
        &self,
        nc: u32,
        np: u32,
        total_transfer_threads: f64,
        compute_jobs: u32,
    ) -> f64 {
        if nc == 0 || np == 0 {
            return 0.0;
        }
        let per_thread = self.per_thread_rate_mbs(total_transfer_threads, compute_jobs);
        // A process is single-core: its np threads cannot exceed one core.
        let per_process = (np as f64 * per_thread).min(self.core_rate_mbs);
        nc as f64 * per_process
    }

    /// Fraction of a core one `np`-thread process can claim under the current
    /// load, in `(0, 1]`. Drives startup-time stretching.
    pub fn process_share(&self, np: u32, total_transfer_threads: f64, compute_jobs: u32) -> f64 {
        if np == 0 {
            return 1.0;
        }
        let per_thread = self.per_thread_rate_mbs(total_transfer_threads, compute_jobs);
        ((np as f64 * per_thread) / self.core_rate_mbs).min(1.0)
    }

    /// Context-switch efficiency multiplier for an application running
    /// `app_threads` transfer threads while `compute_jobs` hogs run:
    /// `1/(1 + (α + α_hog·jobs)·max(0, T/K − 1)^γ)`.
    pub fn efficiency(&self, app_threads: f64, compute_jobs: u32) -> f64 {
        let alpha = self.csw_alpha + self.csw_alpha_per_hog * compute_jobs as f64;
        let over = (app_threads / self.cores - 1.0).max(0.0);
        1.0 / (1.0 + alpha * over.powf(self.csw_gamma))
    }
}

impl Default for CpuModel {
    /// An 8-core node calibrated to the paper's ANL Nehalem source.
    fn default() -> Self {
        CpuModel {
            cores: 8.0,
            core_rate_mbs: 1250.0,
            compute_thread_weight: 3.0,
            csw_alpha: 0.006,
            csw_alpha_per_hog: 0.0004,
            csw_gamma: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CpuModel {
        CpuModel::default()
    }

    #[test]
    fn undersubscribed_thread_gets_full_core() {
        let m = model();
        assert_eq!(m.per_thread_rate_mbs(4.0, 0), m.core_rate_mbs);
    }

    #[test]
    fn oversubscription_divides_fairly() {
        let m = model();
        // 16 transfer threads, no hogs: each gets half a core.
        let r = m.per_thread_rate_mbs(16.0, 0);
        assert!((r - m.core_rate_mbs / 2.0).abs() < 1e-9);
    }

    #[test]
    fn hogs_weigh_more_than_transfer_threads() {
        let m = model();
        let with_hog = m.per_thread_rate_mbs(8.0, 1);
        let with_threads = m.per_thread_rate_mbs(8.0 + m.cores, 0);
        assert!(
            with_hog < with_threads,
            "a hog ({with_hog}) must displace more than cores-many plain threads ({with_threads})"
        );
    }

    #[test]
    fn process_is_single_core_bound() {
        let m = model();
        // One process with many threads and an idle machine still caps at a core.
        let cap = m.app_cpu_cap_mbs(1, 64, 64.0, 0);
        assert_eq!(cap, m.core_rate_mbs);
    }

    #[test]
    fn more_processes_raise_the_cap() {
        let m = model();
        let one = m.app_cpu_cap_mbs(1, 8, 8.0, 16);
        let four = m.app_cpu_cap_mbs(4, 8, 32.0, 16);
        assert!(four > 3.0 * one, "one={one} four={four}");
    }

    #[test]
    fn critical_point_shifts_right_under_compute_load() {
        // The paper's key effect: with hogs present, raising nc keeps paying
        // because the app claims a larger share of the fair-share scheduler.
        let m = model();
        let observed = |nc: u32, jobs: u32| {
            let threads = (nc * 8) as f64;
            m.app_cpu_cap_mbs(nc, 8, threads, jobs) * m.efficiency(threads, jobs)
        };
        // Without load, growing nc from 8 to 64 gains little (already at the
        // aggregate ceiling) ...
        let gain_idle = observed(64, 0) / observed(8, 0);
        // ... but with 16 hogs, the same growth pays off substantially.
        let gain_loaded = observed(64, 16) / observed(8, 16);
        assert!(
            gain_loaded > 1.5 * gain_idle,
            "gain_idle={gain_idle:.2} gain_loaded={gain_loaded:.2}"
        );
    }

    #[test]
    fn efficiency_is_one_when_undersubscribed() {
        let m = model();
        assert_eq!(m.efficiency(1.0, 0), 1.0);
        assert_eq!(m.efficiency(8.0, 0), 1.0);
        assert_eq!(m.efficiency(8.0, 64), 1.0);
    }

    #[test]
    fn efficiency_decays_monotonically() {
        let m = model();
        let mut last = 1.0;
        for t in [8.0, 16.0, 64.0, 256.0, 1024.0] {
            let e = m.efficiency(t, 0);
            assert!(e <= last && e > 0.0);
            last = e;
        }
        assert!(
            m.efficiency(4096.0, 0) < 0.3,
            "heavy oversubscription must hurt even idle"
        );
    }

    #[test]
    fn hogs_amplify_switch_costs() {
        // The same oversubscription is much more expensive under compute
        // load: idle TACC runs tolerate nc≈45 (paper), loaded UChicago runs
        // pay heavily at nc≈64.
        let m = model();
        let idle = m.efficiency(512.0, 0);
        let loaded = m.efficiency(512.0, 16);
        assert!(idle > 0.7, "idle oversubscription is cheap: {idle}");
        assert!(loaded < 0.6, "loaded oversubscription is dear: {loaded}");
    }

    #[test]
    fn zero_alpha_disables_overhead() {
        let m = CpuModel {
            csw_alpha: 0.0,
            csw_alpha_per_hog: 0.0,
            ..model()
        };
        assert_eq!(m.efficiency(10_000.0, 64), 1.0);
    }

    #[test]
    fn zero_sized_app_caps_at_zero() {
        let m = model();
        assert_eq!(m.app_cpu_cap_mbs(0, 8, 0.0, 0), 0.0);
        assert_eq!(m.app_cpu_cap_mbs(2, 0, 0.0, 0), 0.0);
    }

    #[test]
    fn process_share_bounds() {
        let m = model();
        assert_eq!(m.process_share(8, 8.0, 0), 1.0);
        let loaded = m.process_share(8, 16.0, 64);
        assert!(loaded > 0.0 && loaded < 0.2, "share={loaded}");
        assert_eq!(m.process_share(0, 0.0, 64), 1.0);
    }

    #[test]
    #[should_panic(expected = "cores must be positive")]
    fn validate_rejects_zero_cores() {
        CpuModel {
            cores: 0.0,
            ..model()
        }
        .validate();
    }

    #[test]
    fn default_matches_paper_scale_default_config() {
        // Globus default nc=2, np=8 on an idle Nehalem: CPU cap should be
        // ~2×core_rate = 2500 MB/s, the paper's observed default throughput.
        let m = model();
        let cap = m.app_cpu_cap_mbs(2, 8, 16.0, 0);
        assert!((cap - 2500.0).abs() < 1.0, "cap={cap}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn per_thread_rate_never_exceeds_core(
            threads in 0.0f64..10_000.0,
            jobs in 0u32..256,
        ) {
            let m = CpuModel::default();
            let r = m.per_thread_rate_mbs(threads, jobs);
            prop_assert!(r > 0.0 && r <= m.core_rate_mbs);
        }

        #[test]
        fn app_cap_monotone_in_nc(
            nc in 1u32..128,
            np in 1u32..32,
            jobs in 0u32..128,
        ) {
            let m = CpuModel::default();
            let t1 = (nc * np) as f64;
            let t2 = ((nc + 1) * np) as f64;
            let a = m.app_cpu_cap_mbs(nc, np, t1, jobs);
            let b = m.app_cpu_cap_mbs(nc + 1, np, t2, jobs);
            prop_assert!(b >= a - 1e-9, "cap fell when adding a process: {} -> {}", a, b);
        }

        #[test]
        fn aggregate_cap_bounded_by_machine(
            nc in 1u32..256,
            np in 1u32..64,
            jobs in 0u32..64,
        ) {
            let m = CpuModel::default();
            let t = (nc as f64) * (np as f64);
            let cap = m.app_cpu_cap_mbs(nc, np, t, jobs);
            // An app can never move more than the whole machine.
            prop_assert!(cap <= m.cores * m.core_rate_mbs * (1.0 + 1e-9),
                "cap {} exceeds machine {}", cap, m.cores * m.core_rate_mbs);
        }

        #[test]
        fn efficiency_in_unit_interval(t in 0.0f64..100_000.0, jobs in 0u32..128) {
            let e = CpuModel::default().efficiency(t, jobs);
            prop_assert!(e > 0.0 && e <= 1.0);
        }

        #[test]
        fn efficiency_monotone_in_hogs(t in 0.0f64..10_000.0, jobs in 0u32..64) {
            let m = CpuModel::default();
            prop_assert!(m.efficiency(t, jobs + 1) <= m.efficiency(t, jobs) + 1e-12);
        }
    }
}
