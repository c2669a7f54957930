//! The flight recorder: typed per-epoch telemetry for a [`World`].
//!
//! The paper's entire argument is carried by per-epoch observations —
//! throughput per 30 s control epoch, restart overhead (17–50 %), how often
//! the ε-monitor re-triggers a search. [`WorldTelemetry`] captures those
//! quantities as typed rows and nothing else: one [`EpochTelemetry`] per
//! closed epoch, plus one row per restart, abort, stall transition and
//! fault factor change. It is the world's only observer: those events are
//! recorded here and nowhere else.
//!
//! Metrics are derived on read. [`WorldTelemetry::snapshot`] replays the
//! rows, in record order, into a fresh [`MetricsRegistry`] and then exports
//! the network's gauges as they are at the call
//! ([`World::metrics_snapshot`] supplies the world's network). Each
//! registry series is fed by one row kind, so the replay gives the bytes an
//! incrementally fed registry would; a caller that never renders metrics
//! (the fleet reads only the epoch rows) never builds one.
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
//! [`World::metrics_snapshot`]: crate::world::World::metrics_snapshot

use xferopt_net::dynamic::DynamicSim;
use xferopt_net::Network;
use xferopt_simcore::json::object;
use xferopt_simcore::{LogHistogram, MetricsRegistry, MetricsSnapshot};

/// What one control epoch achieved, in telemetry form: the
/// [`EpochReport`](crate::report::EpochReport) quantities plus the fault and
/// retry counters accumulated by the world up to the epoch's end.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochTelemetry {
    /// Zero-based epoch sequence number (per world, across all transfers):
    /// the record's position in [`WorldTelemetry::epochs`].
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

/// Telemetry collected by a [`World`](crate::world::World): typed rows, in
/// record order, one list per kind of event.
#[derive(Debug, Default)]
pub struct WorldTelemetry {
    epochs: Vec<EpochTelemetry>,
    /// `(transfer, startup_s)` per tuner-driven restart.
    restarts: Vec<(u64, f64)>,
    /// `(transfer, backoff_s)` per fault-plan abort.
    aborts: Vec<(u64, f64)>,
    /// `(transfer, stalled)` per stall-window transition.
    stall_transitions: Vec<(u64, bool)>,
    /// `(kind, index)` per fault-driven link or path factor change.
    factor_changes: Vec<(&'static str, usize)>,
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

    /// Record one closed control epoch. Its sequence number is its position.
    pub fn record_epoch(&mut self, mut t: EpochTelemetry) {
        t.epoch = self.epochs.len() as u64;
        self.epochs.push(t);
    }

    /// Record one tuner-driven restart (called from `World::set_params`).
    pub fn record_restart(&mut self, transfer: u64, startup_s: f64) {
        self.restarts.push((transfer, startup_s));
    }

    /// Record one fault-plan abort fired against `transfer`.
    pub fn record_abort(&mut self, transfer: u64, backoff_s: f64) {
        self.aborts.push((transfer, backoff_s));
    }

    /// Record one stall-window transition (entering or leaving a stall).
    pub fn record_stall_transition(&mut self, transfer: u64, stalled: bool) {
        self.stall_transitions.push((transfer, stalled));
    }

    /// Record one fault-driven link or path factor change.
    pub fn record_fault_factor_change(&mut self, kind: &'static str, index: usize) {
        self.factor_changes.push((kind, index));
    }

    /// Every metric of the run: the rows replayed, in record order, into a
    /// fresh registry, then the state of `net` (and of `dynamic`, the
    /// world's window simulation when it runs one) as it is now.
    pub fn snapshot(&self, net: &Network, dynamic: Option<&DynamicSim>) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new();
        for t in &self.epochs {
            let id = t.transfer.to_string();
            let labels = [("transfer", id.as_str())];
            reg.counter("transfer_epochs_total", &labels).inc();
            reg.gauge("transfer_moved_mb_total", &labels)
                .add(t.bytes_mb);
            reg.gauge("transfer_startup_seconds_total", &labels)
                .add(t.startup_s);
            reg.histogram(
                "transfer_epoch_observed_mbs",
                &labels,
                LogHistogram::throughput_bounds(),
            )
            .observe(t.observed_mbs);
            reg.histogram(
                "transfer_epoch_bestcase_mbs",
                &labels,
                LogHistogram::throughput_bounds(),
            )
            .observe(t.bestcase_mbs);
            reg.histogram(
                "transfer_epoch_overhead_fraction",
                &labels,
                overhead_bounds(),
            )
            .observe(t.overhead_fraction);
            let retries = reg.counter("transfer_retries_total", &labels);
            let cur = retries.get();
            retries.add(t.retries_total.saturating_sub(cur));
        }
        for &(transfer, startup_s) in &self.restarts {
            let id = transfer.to_string();
            let labels = [("transfer", id.as_str())];
            reg.counter("transfer_restarts_total", &labels).inc();
            reg.histogram(
                "transfer_restart_startup_s",
                &labels,
                LogHistogram::duration_bounds(),
            )
            .observe(startup_s);
        }
        for &(transfer, backoff_s) in &self.aborts {
            let id = transfer.to_string();
            let labels = [("transfer", id.as_str())];
            reg.counter("transfer_aborts_total", &labels).inc();
            reg.histogram(
                "transfer_abort_backoff_s",
                &labels,
                LogHistogram::duration_bounds(),
            )
            .observe(backoff_s);
        }
        for &(transfer, stalled) in &self.stall_transitions {
            let id = transfer.to_string();
            let state = if stalled { "enter" } else { "exit" };
            reg.counter(
                "transfer_stall_transitions_total",
                &[("transfer", id.as_str()), ("state", state)],
            )
            .inc();
        }
        for &(kind, index) in &self.factor_changes {
            let id = index.to_string();
            reg.counter(
                "net_fault_factor_changes_total",
                &[("kind", kind), ("index", id.as_str())],
            )
            .inc();
        }
        xferopt_net::export_network(&mut reg, net);
        if let Some(sim) = dynamic {
            xferopt_net::export_dynamic(&mut reg, net, sim);
        }
        reg.snapshot()
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
        t.record_epoch(sample_epoch(0, 100.0));
        t.record_epoch(sample_epoch(1, 200.0));
        let seqs: Vec<u64> = t.epochs().iter().map(|e| e.epoch).collect();
        assert_eq!(seqs, [0, 1]);
    }

    #[test]
    fn retries_counter_is_monotone_cumulative() {
        let mut t = WorldTelemetry::new();
        let mut e = sample_epoch(0, 100.0);
        e.retries_total = 2;
        t.record_epoch(e.clone());
        e.retries_total = 5;
        t.record_epoch(e);
        let snap = t.snapshot(&Network::new(), None);
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
            let snap = t.snapshot(&Network::new(), None);
            (t.epochs_jsonl(), snap.to_jsonl(), snap.to_prometheus())
        };
        assert_eq!(build(), build());
    }
}
