//! A host: a registry of transfer applications and compute hogs on one
//! machine, combining the CPU and startup models.

use crate::cpu::CpuModel;
use crate::presets::HostSpec;
use crate::startup::StartupModel;
use std::collections::BTreeMap;

/// Identifier of a transfer application registered on a [`Host`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub u64);

/// The load shape of one transfer application: `nc` processes × `np` streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppLoad {
    /// Concurrency: number of transfer processes.
    pub nc: u32,
    /// Parallelism: TCP streams per process.
    pub np: u32,
}

impl AppLoad {
    /// Total streams (= schedulable transfer threads) the app runs.
    pub fn streams(&self) -> u32 {
        self.nc * self.np
    }
}

/// A machine hosting transfer applications and external compute jobs.
///
/// # Examples
///
/// ```
/// use xferopt_host::{nehalem, AppLoad, Host};
///
/// let mut host = Host::new(nehalem());
/// let app = host.add_app(AppLoad { nc: 2, np: 8 });
/// let idle_cap = host.cpu_cap_mbs(app);
/// host.set_compute_jobs(16); // the paper's ext.cmp
/// assert!(host.cpu_cap_mbs(app) < idle_cap / 4.0);
/// ```
///
/// The host answers three questions the transfer harness needs each control
/// epoch:
/// 1. [`Host::cpu_cap_mbs`] — how fast can this app move data, CPU-wise?
/// 2. [`Host::efficiency`] — what context-switch penalty does it pay?
/// 3. [`Host::startup_time_s`] — how long does restarting it take right now?
#[derive(Debug, Clone)]
pub struct Host {
    spec: HostSpec,
    apps: BTreeMap<AppId, AppLoad>,
    compute_jobs: u32,
    next_app: u64,
}

impl Host {
    /// A host built from a machine spec with no registered load.
    pub fn new(spec: HostSpec) -> Self {
        spec.cpu.validate();
        spec.startup.validate();
        Host {
            spec,
            apps: BTreeMap::new(),
            compute_jobs: 0,
            next_app: 0,
        }
    }

    /// The machine spec.
    pub fn spec(&self) -> &HostSpec {
        &self.spec
    }

    /// The CPU model.
    pub fn cpu(&self) -> &CpuModel {
        &self.spec.cpu
    }

    /// The startup model.
    pub fn startup(&self) -> &StartupModel {
        &self.spec.startup
    }

    /// Register a transfer application; returns its id.
    pub fn add_app(&mut self, load: AppLoad) -> AppId {
        let id = AppId(self.next_app);
        self.next_app += 1;
        self.apps.insert(id, load);
        id
    }

    /// Change an application's load shape.
    ///
    /// # Panics
    /// Panics if the app id is unknown.
    pub fn set_app(&mut self, id: AppId, load: AppLoad) {
        *self
            .apps
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unknown app {id:?}")) = load;
    }

    /// Current load shape of an app, if registered.
    pub fn app(&self, id: AppId) -> Option<AppLoad> {
        self.apps.get(&id).copied()
    }

    /// Deregister an application (idempotent).
    pub fn remove_app(&mut self, id: AppId) {
        self.apps.remove(&id);
    }

    /// Set the number of external compute hogs (the paper's `ext.cmp`).
    pub fn set_compute_jobs(&mut self, jobs: u32) {
        self.compute_jobs = jobs;
    }

    /// Number of external compute hogs.
    pub fn compute_jobs(&self) -> u32 {
        self.compute_jobs
    }

    /// Total transfer threads across all registered apps.
    pub fn total_transfer_threads(&self) -> f64 {
        self.apps.values().map(|a| a.streams() as f64).sum()
    }

    /// CPU-side throughput cap for `id` in MB/s (before the efficiency
    /// factor).
    ///
    /// # Panics
    /// Panics if the app id is unknown.
    pub fn cpu_cap_mbs(&self, id: AppId) -> f64 {
        let a = self.apps[&id];
        self.spec
            .cpu
            .app_cpu_cap_mbs(a.nc, a.np, self.total_transfer_threads(), self.compute_jobs)
    }

    /// Context-switch efficiency multiplier for `id` (over its own threads,
    /// amplified by compute hogs).
    ///
    /// # Panics
    /// Panics if the app id is unknown.
    pub fn efficiency(&self, id: AppId) -> f64 {
        let a = self.apps[&id];
        self.spec
            .cpu
            .efficiency(a.streams() as f64, self.compute_jobs)
    }

    /// Time to (re)start app `id` with its current shape, in seconds.
    ///
    /// # Panics
    /// Panics if the app id is unknown.
    pub fn startup_time_s(&self, id: AppId) -> f64 {
        let a = self.apps[&id];
        let share =
            self.spec
                .cpu
                .process_share(a.np, self.total_transfer_threads(), self.compute_jobs);
        self.spec.startup.startup_time_s(a.nc, share.max(1e-3))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::nehalem;

    fn host() -> Host {
        Host::new(nehalem())
    }

    #[test]
    fn register_and_update_apps() {
        let mut h = host();
        let a = h.add_app(AppLoad { nc: 2, np: 8 });
        assert_eq!(h.app(a), Some(AppLoad { nc: 2, np: 8 }));
        h.set_app(a, AppLoad { nc: 5, np: 8 });
        assert_eq!(h.app(a).unwrap().streams(), 40);
        h.remove_app(a);
        assert_eq!(h.app(a), None);
        h.remove_app(a); // idempotent
    }

    #[test]
    fn default_config_hits_paper_scale() {
        let mut h = host();
        let a = h.add_app(AppLoad { nc: 2, np: 8 });
        let cap = h.cpu_cap_mbs(a);
        assert!((2000.0..3000.0).contains(&cap), "cap={cap}");
        assert!(h.efficiency(a) > 0.95);
    }

    #[test]
    fn compute_load_slashes_cap() {
        let mut h = host();
        let a = h.add_app(AppLoad { nc: 2, np: 8 });
        let idle = h.cpu_cap_mbs(a);
        h.set_compute_jobs(16);
        let loaded = h.cpu_cap_mbs(a);
        assert!(
            loaded < idle / 5.0,
            "16 hogs should slash a 2-process app: {idle} -> {loaded}"
        );
    }

    #[test]
    fn growing_nc_recovers_share_under_load() {
        let mut h = host();
        let a = h.add_app(AppLoad { nc: 2, np: 8 });
        h.set_compute_jobs(16);
        let small = h.cpu_cap_mbs(a) * h.efficiency(a);
        h.set_app(a, AppLoad { nc: 64, np: 8 });
        let big = h.cpu_cap_mbs(a) * h.efficiency(a);
        assert!(
            big > 3.0 * small,
            "growing nc must recover CPU share: {small} -> {big}"
        );
    }

    #[test]
    fn apps_contend_with_each_other() {
        let mut h = host();
        let a = h.add_app(AppLoad { nc: 8, np: 8 });
        let alone = h.cpu_cap_mbs(a);
        let _b = h.add_app(AppLoad { nc: 64, np: 8 });
        let contended = h.cpu_cap_mbs(a);
        assert!(contended < alone, "{alone} -> {contended}");
    }

    #[test]
    fn startup_time_grows_with_load() {
        let mut h = host();
        let a = h.add_app(AppLoad { nc: 2, np: 8 });
        let idle = h.startup_time_s(a);
        h.set_compute_jobs(16);
        let mid = h.startup_time_s(a);
        h.set_compute_jobs(64);
        let heavy = h.startup_time_s(a);
        assert!(idle < mid && mid < heavy, "{idle} {mid} {heavy}");
        // Paper's 30 s-epoch overhead shape: ~17% / ~33% / ~50%.
        assert!((3.5..7.0).contains(&idle), "idle={idle}");
        assert!((7.0..13.0).contains(&mid), "mid={mid}");
        assert!((11.0..20.0).contains(&heavy), "heavy={heavy}");
    }

    #[test]
    fn external_transfer_load_barely_moves_startup() {
        // Paper: under ext.tfr (not cmp) overhead stays ~15%.
        let mut h = host();
        let a = h.add_app(AppLoad { nc: 2, np: 8 });
        let idle = h.startup_time_s(a);
        let _ext = h.add_app(AppLoad { nc: 64, np: 1 });
        let with_tfr = h.startup_time_s(a);
        assert!(
            with_tfr < idle * 1.6,
            "transfer load should not stretch startup like hogs do: {idle} -> {with_tfr}"
        );
    }

    #[test]
    #[should_panic(expected = "unknown app")]
    fn set_unknown_app_panics() {
        let mut h = host();
        h.set_app(AppId(7), AppLoad { nc: 1, np: 1 });
    }
}
