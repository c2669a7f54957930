//! Scenario-level telemetry: run a tuned transfer with the flight recorder
//! on, bundle the per-epoch records, tuner decisions, and metric snapshot,
//! and render/summarize them.
//!
//! The bundle is emitted as:
//!
//! * **JSONL** — one `{"kind":"run",…}` header line, then the world's
//!   `{"kind":"epoch",…}` records, the tuner's `{"kind":"decision",…}`
//!   records, and finally the metric samples
//!   (`{"kind":"counter"|"gauge"|"histogram",…}`), all with fixed key order
//!   and shortest-round-trip floats — byte-deterministic for a fixed
//!   [`DriveConfig`].
//! * **Prometheus text exposition** (v0.0.4) — the metric snapshot only.
//!
//! Telemetry is strictly observational: [`drive_transfer_with_telemetry`]
//! produces the exact same [`TransferLog`] as
//! [`crate::driver::drive_transfer`] for the same config.

use crate::driver::DriveConfig;
use xferopt_simcore::json::{object, Fields};
use xferopt_simcore::MetricsSnapshot;
use xferopt_transfer::TransferLog;

/// The full telemetry output of one driven transfer.
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    /// Run header: route/tuner/seed/epoch count (first JSONL line).
    pub header: RunHeader,
    /// Per-epoch world records, already rendered as JSONL.
    pub epochs_jsonl: String,
    /// Tuner decision records, already rendered as JSONL (empty for the
    /// baselines, which make no direct-search decisions).
    pub decisions_jsonl: String,
    /// The metric registry snapshot at end of run.
    pub snapshot: MetricsSnapshot,
}

/// Identifying metadata for one telemetry bundle.
#[derive(Debug, Clone)]
pub struct RunHeader {
    /// Route name (`anl->uchicago` / `anl->tacc`).
    pub route: String,
    /// Tuner report name (`cd-tuner`, …).
    pub tuner: String,
    /// Root seed of the run.
    pub seed: u64,
    /// Number of control epochs driven.
    pub epochs: usize,
    /// Control epoch length, seconds.
    pub epoch_s: f64,
}

impl RunHeader {
    /// Render as the `{"kind":"run",…}` JSONL header line (no newline).
    pub fn to_json(&self) -> String {
        object(|o| {
            o.str("kind", "run");
            o.str("route", &self.route);
            o.str("tuner", &self.tuner);
            o.raw("seed", self.seed);
            o.raw("epochs", self.epochs);
            o.f64("epoch_s", self.epoch_s);
        })
    }
}

impl RunTelemetry {
    /// The complete JSONL document: run header, epoch records, decision
    /// records, metric samples. Trailing newline included.
    pub fn to_jsonl(&self) -> String {
        let mut out =
            String::with_capacity(self.epochs_jsonl.len() + self.decisions_jsonl.len() + 256);
        out.push_str(&self.header.to_json());
        out.push('\n');
        out.push_str(&self.epochs_jsonl);
        out.push_str(&self.decisions_jsonl);
        out.push_str(&self.snapshot.to_jsonl());
        out
    }

    /// The metric snapshot in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        self.snapshot.to_prometheus()
    }
}

/// [`crate::driver::drive_transfer`] with the flight recorder on: returns
/// the identical [`TransferLog`] plus the run's [`RunTelemetry`].
///
/// Both run the same control loop; this one also switches on
/// `World::enable_telemetry`, which is observational (checked by the
/// determinism tests), and renders the tuner's audit log.
pub fn drive_transfer_with_telemetry(cfg: &DriveConfig) -> (TransferLog, RunTelemetry) {
    let (log, recording) = crate::driver::drive(cfg, true);
    let (tel, snapshot, decisions_jsonl) = recording.expect("the loop records when asked to");
    let bundle = RunTelemetry {
        header: RunHeader {
            route: cfg.route.name().to_string(),
            tuner: cfg.tuner.name().to_string(),
            seed: cfg.seed,
            epochs: log.epochs.len(),
            epoch_s: cfg.epoch_s,
        },
        epochs_jsonl: tel.epochs_jsonl(),
        decisions_jsonl,
        snapshot,
    };
    (log, bundle)
}

// ---------------------------------------------------------------------------
// Summarizing a JSONL telemetry document.
// ---------------------------------------------------------------------------

/// Aggregate view over one telemetry JSONL document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySummary {
    /// `{"kind":"run"}` header lines (one per bundled run).
    pub runs: usize,
    /// `{"kind":"epoch"}` records.
    pub epochs: usize,
    /// `{"kind":"decision"}` records.
    pub decisions: usize,
    /// Metric sample lines (counter/gauge/histogram).
    pub metric_samples: usize,
    /// Mean of the epoch records' `observed` field (MB/s), when any.
    pub mean_observed_mbs: Option<f64>,
    /// Mean of the epoch records' `bestcase` field (MB/s), when any.
    pub mean_bestcase_mbs: Option<f64>,
    /// Decision records with `"action":"retrigger"`.
    pub retriggers: usize,
    /// Decision records with a true `projected` flag.
    pub projected_decisions: usize,
    /// Distinct `(action, count)` pairs over decision records, sorted by
    /// action name.
    pub actions: Vec<(String, usize)>,
    /// Lines that did not parse as any known record kind.
    pub unknown_lines: usize,
}

/// Summarize a telemetry JSONL document produced by [`RunTelemetry::to_jsonl`]
/// (or any concatenation of such documents).
pub fn summarize_telemetry(jsonl: &str) -> TelemetrySummary {
    let mut s = TelemetrySummary::default();
    let mut observed_sum = 0.0;
    let mut bestcase_sum = 0.0;
    let mut action_counts: std::collections::BTreeMap<String, usize> =
        std::collections::BTreeMap::new();
    for line in jsonl.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some(f) = Fields::parse(line) else {
            s.unknown_lines += 1;
            continue;
        };
        match f.get("kind") {
            Some("run") => s.runs += 1,
            Some("epoch") => {
                s.epochs += 1;
                if let Some(v) = f.get("observed_mbs").and_then(|v| v.parse::<f64>().ok()) {
                    observed_sum += v;
                }
                if let Some(v) = f.get("bestcase_mbs").and_then(|v| v.parse::<f64>().ok()) {
                    bestcase_sum += v;
                }
            }
            Some("decision") => {
                s.decisions += 1;
                if let Some(a) = f.get("action") {
                    *action_counts.entry(a.to_string()).or_insert(0) += 1;
                    if a == "retrigger" {
                        s.retriggers += 1;
                    }
                }
                if f.get("projected") == Some("true") {
                    s.projected_decisions += 1;
                }
            }
            Some("counter") | Some("gauge") | Some("histogram") => s.metric_samples += 1,
            _ => s.unknown_lines += 1,
        }
    }
    if s.epochs > 0 {
        s.mean_observed_mbs = Some(observed_sum / s.epochs as f64);
        s.mean_bestcase_mbs = Some(bestcase_sum / s.epochs as f64);
    }
    s.actions = action_counts.into_iter().collect();
    s
}

impl TelemetrySummary {
    /// Render as the human-readable report printed by
    /// `xferopt telemetry summarize`.
    pub fn to_report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "runs:            {}", self.runs);
        let _ = writeln!(out, "epoch records:   {}", self.epochs);
        if let (Some(obs), Some(best)) = (self.mean_observed_mbs, self.mean_bestcase_mbs) {
            let _ = writeln!(out, "mean observed:   {obs:.1} MB/s");
            let _ = writeln!(out, "mean best-case:  {best:.1} MB/s");
        }
        let _ = writeln!(out, "decisions:       {}", self.decisions);
        for (action, n) in &self.actions {
            let _ = writeln!(out, "  {action:<14} {n}");
        }
        let _ = writeln!(out, "re-triggers:     {}", self.retriggers);
        let _ = writeln!(out, "fBnd projected:  {}", self.projected_decisions);
        let _ = writeln!(out, "metric samples:  {}", self.metric_samples);
        if self.unknown_lines > 0 {
            let _ = writeln!(out, "unknown lines:   {}", self.unknown_lines);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{drive_transfer, TuneDims};
    use crate::load::{ExternalLoad, LoadSchedule};
    use crate::topology::Route;
    use xferopt_tuners::TunerKind;

    fn cfg(tuner: TunerKind) -> DriveConfig {
        DriveConfig::paper(
            Route::UChicago,
            tuner,
            TuneDims::NcOnly { np: 8 },
            LoadSchedule::constant(ExternalLoad::new(0, 16)),
        )
        .with_duration_s(300.0)
        .with_seed(7)
    }

    #[test]
    fn telemetry_run_matches_plain_run() {
        // The flight recorder must not perturb the transfer.
        for kind in [TunerKind::Default, TunerKind::Cs, TunerKind::Nm] {
            let c = cfg(kind);
            let plain = drive_transfer(&c);
            let (instrumented, _tel) = drive_transfer_with_telemetry(&c);
            assert_eq!(
                plain.epochs,
                instrumented.epochs,
                "{}: telemetry changed the run",
                kind.name()
            );
        }
    }

    #[test]
    fn bundle_has_all_record_kinds() {
        let (_log, tel) = drive_transfer_with_telemetry(&cfg(TunerKind::Cs));
        let doc = tel.to_jsonl();
        assert!(doc.starts_with("{\"kind\":\"run\","), "header first");
        assert!(doc.contains("\"kind\":\"epoch\""), "epoch records present");
        assert!(doc.contains("\"kind\":\"decision\""), "decisions present");
        assert!(
            doc.contains("\"kind\":\"counter\"") || doc.contains("\"kind\":\"gauge\""),
            "metric samples present"
        );
        let prom = tel.to_prometheus();
        assert!(prom.contains("# TYPE transfer_epochs_total counter"));
    }

    #[test]
    fn jsonl_is_deterministic_for_fixed_config() {
        let c = cfg(TunerKind::Nm);
        let (_, a) = drive_transfer_with_telemetry(&c);
        let (_, b) = drive_transfer_with_telemetry(&c);
        assert_eq!(a.to_jsonl(), b.to_jsonl(), "byte-identical JSONL");
        assert_eq!(a.to_prometheus(), b.to_prometheus(), "byte-identical prom");
    }

    #[test]
    fn summarize_counts_everything() {
        let c = cfg(TunerKind::Cs);
        let (log, tel) = drive_transfer_with_telemetry(&c);
        let s = summarize_telemetry(&tel.to_jsonl());
        assert_eq!(s.runs, 1);
        assert_eq!(s.epochs, log.epochs.len());
        assert_eq!(s.decisions, log.epochs.len(), "one decision per epoch");
        assert!(s.metric_samples > 0);
        assert_eq!(s.unknown_lines, 0);
        let total: usize = s.actions.iter().map(|(_, n)| n).sum();
        assert_eq!(total, s.decisions);
        let mean = s.mean_observed_mbs.unwrap();
        assert!(
            (mean - log.mean_observed_mbs()).abs() < 1e-6,
            "summary mean ({mean}) must track the log mean ({}): JSONL floats \
             are shortest-round-trip",
            log.mean_observed_mbs()
        );
        let report = s.to_report();
        assert!(report.contains("epoch records:"));
        assert!(report.contains("compass_probe"));
    }

    #[test]
    fn default_tuner_bundle_has_no_decisions() {
        let (_log, tel) = drive_transfer_with_telemetry(&cfg(TunerKind::Default));
        assert!(tel.decisions_jsonl.is_empty());
        let s = summarize_telemetry(&tel.to_jsonl());
        assert_eq!(s.decisions, 0);
    }
}
