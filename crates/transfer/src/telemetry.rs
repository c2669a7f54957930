//! The flight recorder: typed per-epoch telemetry for a [`World`].
//!
//! The paper's entire argument is carried by per-epoch observations —
//! throughput per 30 s control epoch, restart overhead (17–50 %), how often
//! the ε-monitor re-triggers a search. [`WorldTelemetry`] captures those
//! quantities as typed records ([`EpochTelemetry`]) plus a
//! [`MetricsRegistry`] of counters/gauges/histograms. It is the world's
//! only observer: restarts, fault transitions and aborts are counted here
//! and nowhere else.
//!
//! Two invariants, both enforced by tests:
//!
//! 1. **The observer never perturbs the simulation.** Enabling telemetry
//!    draws nothing from the world's seed stream and only *reads* simulation
//!    state; a telemetry-enabled run moves bit-identical bytes to a disabled
//!    one.
//! 2. **Collection is deterministic.** Two runs of the same seeded scenario
//!    produce byte-identical snapshots and JSONL.
//!
//! [`World`]: crate::world::World

use xferopt_simcore::json::object;
use xferopt_simcore::{LogHistogram, MetricsRegistry, MetricsSnapshot};

/// What one control epoch achieved, in telemetry form: the
/// [`EpochReport`](crate::report::EpochReport) quantities plus the fault and
/// retry counters accumulated by the world up to the epoch's end.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochTelemetry {
    /// Zero-based epoch sequence number (per world, across all transfers).
    pub epoch: u64,
    /// Transfer this epoch belongs to.
    pub transfer: u64,
    /// Epoch start, simulated seconds.
    pub start_s: f64,
    /// Epoch length, seconds.
    pub duration_s: f64,
    /// Concurrency in force.
    pub nc: u32,
    /// Parallelism in force.
    pub np: u32,
    /// Megabytes moved during the epoch.
    pub bytes_mb: f64,
    /// Restart downtime paid at the epoch start, seconds.
    pub startup_s: f64,
    /// Observed throughput: bytes over the whole epoch, MB/s.
    pub observed_mbs: f64,
    /// Best-case throughput: bytes over up-time only, MB/s.
    pub bestcase_mbs: f64,
    /// Fraction of the epoch lost to restart, `[0, 1]`.
    pub overhead_fraction: f64,
    /// Cumulative aborts the transfer has retried through, at epoch end.
    pub retries_total: u64,
    /// Whether a fault window stalled the transfer at epoch end.
    pub stalled: bool,
}

impl EpochTelemetry {
    /// Render as one flat JSON object with a fixed key order (the JSONL
    /// `"kind":"epoch"` record of the telemetry schema).
    pub fn to_json(&self) -> String {
        object(|o| {
            o.str("kind", "epoch");
            o.raw("epoch", self.epoch);
            o.raw("transfer", self.transfer);
            o.f64("start_s", self.start_s);
            o.f64("duration_s", self.duration_s);
            o.raw("nc", self.nc);
            o.raw("np", self.np);
            o.f64("bytes_mb", self.bytes_mb);
            o.f64("startup_s", self.startup_s);
            o.f64("observed_mbs", self.observed_mbs);
            o.f64("bestcase_mbs", self.bestcase_mbs);
            o.f64("overhead_fraction", self.overhead_fraction);
            o.raw("retries_total", self.retries_total);
            o.raw("stalled", self.stalled);
        })
    }
}

/// Telemetry collected by a [`World`](crate::world::World): a metrics
/// registry fed by the instrumented hot paths, plus the ordered list of
/// per-epoch records.
#[derive(Debug, Default)]
pub struct WorldTelemetry {
    registry: MetricsRegistry,
    epochs: Vec<EpochTelemetry>,
    epoch_seq: u64,
}

impl WorldTelemetry {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-epoch records, in collection order.
    pub fn epochs(&self) -> &[EpochTelemetry] {
        &self.epochs
    }

    /// A deterministic snapshot of every metric collected so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Mutable access to the registry for callers that want to fold in
    /// additional samples (the scenario driver adds tuner audit metrics).
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// Record one closed control epoch: appends the typed record and updates
    /// the epoch metrics. Returns the sequence number assigned.
    pub fn record_epoch(&mut self, mut t: EpochTelemetry) -> u64 {
        let seq = self.epoch_seq;
        self.epoch_seq += 1;
        t.epoch = seq;
        let id = t.transfer.to_string();
        let labels = [("transfer", id.as_str())];
        self.registry
            .counter("transfer_epochs_total", &labels)
            .inc();
        self.registry
            .gauge("transfer_moved_mb_total", &labels)
            .add(t.bytes_mb);
        self.registry
            .gauge("transfer_startup_seconds_total", &labels)
            .add(t.startup_s);
        self.registry
            .histogram(
                "transfer_epoch_observed_mbs",
                &labels,
                LogHistogram::throughput_bounds(),
            )
            .observe(t.observed_mbs);
        self.registry
            .histogram(
                "transfer_epoch_bestcase_mbs",
                &labels,
                LogHistogram::throughput_bounds(),
            )
            .observe(t.bestcase_mbs);
        self.registry
            .histogram(
                "transfer_epoch_overhead_fraction",
                &labels,
                overhead_bounds(),
            )
            .observe(t.overhead_fraction);
        let retries = self.registry.counter("transfer_retries_total", &labels);
        let cur = retries.get();
        retries.add(t.retries_total.saturating_sub(cur));
        self.epochs.push(t);
        seq
    }

    /// Count one tuner-driven restart (called from `World::set_params`).
    pub fn record_restart(&mut self, transfer: u64, startup_s: f64) {
        let id = transfer.to_string();
        let labels = [("transfer", id.as_str())];
        self.registry
            .counter("transfer_restarts_total", &labels)
            .inc();
        self.registry
            .histogram(
                "transfer_restart_startup_s",
                &labels,
                LogHistogram::duration_bounds(),
            )
            .observe(startup_s);
    }

    /// Count one fault-plan abort fired against `transfer`.
    pub fn record_abort(&mut self, transfer: u64, backoff_s: f64) {
        let id = transfer.to_string();
        let labels = [("transfer", id.as_str())];
        self.registry
            .counter("transfer_aborts_total", &labels)
            .inc();
        self.registry
            .histogram(
                "transfer_abort_backoff_s",
                &labels,
                LogHistogram::duration_bounds(),
            )
            .observe(backoff_s);
    }

    /// Count one stall-window transition (entering or leaving a stall).
    pub fn record_stall_transition(&mut self, transfer: u64, stalled: bool) {
        let id = transfer.to_string();
        let state = if stalled { "enter" } else { "exit" };
        self.registry
            .counter(
                "transfer_stall_transitions_total",
                &[("transfer", id.as_str()), ("state", state)],
            )
            .inc();
    }

    /// Count one fault-driven link or path factor change.
    pub fn record_fault_factor_change(&mut self, kind: &str, index: usize) {
        let id = index.to_string();
        self.registry
            .counter(
                "net_fault_factor_changes_total",
                &[("kind", kind), ("index", id.as_str())],
            )
            .inc();
    }

    /// Render every per-epoch record as JSONL (one object per line, trailing
    /// newline when non-empty).
    pub fn epochs_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.epochs {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

/// Fixed bucket bounds for restart-overhead fractions (the paper reports
/// 17–50 %): 2.5 % to 80 % in doublings.
pub fn overhead_bounds() -> Vec<f64> {
    vec![0.025, 0.05, 0.1, 0.2, 0.4, 0.8]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_epoch(transfer: u64, observed: f64) -> EpochTelemetry {
        EpochTelemetry {
            epoch: 0,
            transfer,
            start_s: 30.0,
            duration_s: 30.0,
            nc: 2,
            np: 4,
            bytes_mb: observed * 30.0,
            startup_s: 5.0,
            observed_mbs: observed,
            bestcase_mbs: observed * 1.2,
            overhead_fraction: 5.0 / 30.0,
            retries_total: 1,
            stalled: false,
        }
    }

    #[test]
    fn epoch_json_has_fixed_key_order() {
        let j = sample_epoch(0, 100.0).to_json();
        assert!(j.starts_with("{\"kind\":\"epoch\",\"epoch\":0,\"transfer\":0,"));
        assert!(j.contains("\"nc\":2,\"np\":4"));
        assert!(j.ends_with("\"retries_total\":1,\"stalled\":false}"));
    }

    #[test]
    fn record_epoch_assigns_sequence_numbers() {
        let mut t = WorldTelemetry::new();
        assert_eq!(t.record_epoch(sample_epoch(0, 100.0)), 0);
        assert_eq!(t.record_epoch(sample_epoch(1, 200.0)), 1);
        assert_eq!(t.epochs()[1].epoch, 1);
    }

    #[test]
    fn retries_counter_is_monotone_cumulative() {
        let mut t = WorldTelemetry::new();
        let mut e = sample_epoch(0, 100.0);
        e.retries_total = 2;
        t.record_epoch(e.clone());
        e.retries_total = 5;
        t.record_epoch(e);
        let snap = t.snapshot();
        match snap.get("transfer_retries_total", &[("transfer", "0")]) {
            Some(xferopt_simcore::SampleValue::Counter(n)) => assert_eq!(*n, 5),
            other => panic!("missing retries counter: {other:?}"),
        }
    }

    #[test]
    fn jsonl_is_deterministic() {
        let build = || {
            let mut t = WorldTelemetry::new();
            t.record_epoch(sample_epoch(0, 123.456));
            t.record_epoch(sample_epoch(0, 789.012));
            t.record_restart(0, 4.5);
            t.record_abort(0, 2.0);
            t.record_stall_transition(0, true);
            t.record_fault_factor_change("link", 1);
            (
                t.epochs_jsonl(),
                t.snapshot().to_jsonl(),
                t.snapshot().to_prometheus(),
            )
        };
        assert_eq!(build(), build());
    }
}
