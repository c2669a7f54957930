//! The tuner decision audit log: a typed record of every direct-search move.
//!
//! The paper's trajectories (Figs. 6, 8, 10) are sequences of *decisions* —
//! probe this point, accept/reject it, halve λ, re-trigger the search because
//! `|Δc| > ε%`. [`AuditLog`] captures each of those as a [`DecisionEvent`]
//! so a run can be audited move-by-move against Algorithms 1–3, instead of
//! reverse-engineering the decisions from the parameter time series.
//!
//! Every direct-search tuner records one event per observed epoch, always,
//! and strictly observationally: the log never feeds back into the tuner's
//! state. A namespace label is chosen when the log is rendered, not stored.

use crate::domain::Point;
use xferopt_simcore::json::{json_f64, object, Obj};

/// What move a tuner made upon observing one control epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionAction {
    /// cd: probe the current axis (first observation, or wake-up probe).
    Probe,
    /// cd: ±1 step following the sign of the difference quotient δc.
    Step,
    /// Hold the current point (no significant signal).
    Hold,
    /// cd: axis settled; rotate to the next coordinate and probe it.
    RotateAxis,
    /// cs/nm: evaluate the search's starting point itself.
    EvalStart,
    /// cs: coordinate-direction probe at the current step size λ.
    CompassProbe,
    /// nm: evaluate an initial simplex vertex.
    InitVertex,
    /// nm: reflection point proposed.
    Reflect,
    /// nm: expansion point proposed.
    Expand,
    /// nm: contraction point proposed.
    Contract,
    /// nm: shrink-phase vertex re-evaluation.
    Shrink,
    /// cs/nm: search converged (λ < 0.5 / simplex degenerate); hold best.
    Converged,
    /// ε-monitor fired; a fresh search starts from `next`.
    Retrigger,
    /// Monitoring the held point; no significant change.
    Monitor,
}

impl DecisionAction {
    /// Stable snake_case name used in JSONL and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            DecisionAction::Probe => "probe",
            DecisionAction::Step => "step",
            DecisionAction::Hold => "hold",
            DecisionAction::RotateAxis => "rotate_axis",
            DecisionAction::EvalStart => "eval_start",
            DecisionAction::CompassProbe => "compass_probe",
            DecisionAction::InitVertex => "init_vertex",
            DecisionAction::Reflect => "reflect",
            DecisionAction::Expand => "expand",
            DecisionAction::Contract => "contract",
            DecisionAction::Shrink => "shrink",
            DecisionAction::Converged => "converged",
            DecisionAction::Retrigger => "retrigger",
            DecisionAction::Monitor => "monitor",
        }
    }
}

/// Why a converged tuner re-invoked its search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetriggerCause {
    /// `|Δc| > ε%` between consecutive epochs at the held point.
    SignificantDelta {
        /// The observed relative change, percent (may be ±∞).
        delta_pct: f64,
        /// The tolerance it exceeded, percent.
        eps_pct: f64,
    },
    /// Throughput recovered from zero (any positive value is significant).
    ZeroRecovery,
}

impl RetriggerCause {
    /// Stable snake_case name used in JSONL and metric labels.
    pub fn name(&self) -> &'static str {
        match self {
            RetriggerCause::SignificantDelta { .. } => "significant_delta",
            RetriggerCause::ZeroRecovery => "zero_recovery",
        }
    }
}

/// One audited tuner decision: the point evaluated, what was observed, the
/// move made, and the point proposed for the next control epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionEvent {
    /// Zero-based decision sequence number within the tuner's lifetime.
    pub seq: u64,
    /// Tuner identifier (`cd-tuner`, `cs-tuner`, `nm-tuner`).
    pub tuner: &'static str,
    /// The point whose throughput was just observed.
    pub x: Point,
    /// The observed throughput, MB/s.
    pub observed: f64,
    /// The move the tuner made.
    pub action: DecisionAction,
    /// For probe-style moves: whether the probed point was accepted (became
    /// the incumbent / replaced a vertex). `None` when not applicable.
    pub accepted: Option<bool>,
    /// The point proposed for the next control epoch.
    pub next: Point,
    /// The compass step size λ in force, when the tuner has one.
    pub lambda: Option<f64>,
    /// The relative throughput change Δc in percent, when computed.
    pub delta_pct: Option<f64>,
    /// True when `next` was projected by `fBnd` (round/clamp changed the
    /// nominal target).
    pub projected: bool,
    /// Present on [`DecisionAction::Retrigger`] events: why the search
    /// restarted.
    pub retrigger: Option<RetriggerCause>,
}

impl DecisionEvent {
    /// Render as one flat JSON object with a fixed key order (the JSONL
    /// `"kind":"decision"` record of the telemetry schema). A namespace label
    /// goes into a `"ns"` field right after `"kind"`: fleet orchestrators
    /// label each job's decisions (`"job3"`) so the merged fleet-wide stream
    /// stays attributable. `None` renders the single-transfer schema, with
    /// no `"ns"` key.
    pub fn to_json(&self, ns: Option<&str>) -> String {
        // A non-finite λ or Δc keeps its historical spelling: the strings
        // `"inf"` / `"-inf"`, or `null` for NaN.
        fn opt_f64(o: &mut Obj, key: &str, v: Option<f64>) {
            match v {
                Some(v) if v == f64::INFINITY => o.str(key, "inf"),
                Some(v) if v == f64::NEG_INFINITY => o.str(key, "-inf"),
                v => o.opt(key, v.map(json_f64)),
            }
        }
        object(|o| {
            o.str("kind", "decision");
            if let Some(ns) = ns {
                o.str("ns", ns);
            }
            o.raw("seq", self.seq);
            o.str("tuner", self.tuner);
            o.array("x", &self.x);
            o.f64("observed", self.observed);
            o.str("action", self.action.name());
            o.opt("accepted", self.accepted);
            o.array("next", &self.next);
            opt_f64(o, "lambda", self.lambda);
            opt_f64(o, "delta_pct", self.delta_pct);
            o.raw("projected", self.projected);
            match &self.retrigger {
                Some(c) => o.str("retrigger", c.name()),
                None => o.raw("retrigger", "null"),
            };
        })
    }
}

/// An append-only log of [`DecisionEvent`]s. Each recorded epoch costs its
/// event: two cloned points and one push.
#[derive(Debug, Clone, Default)]
pub struct AuditLog {
    events: Vec<DecisionEvent>,
}

impl AuditLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `event`, assigning its sequence number.
    pub fn record(&mut self, mut event: DecisionEvent) {
        event.seq = self.events.len() as u64;
        self.events.push(event);
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[DecisionEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of recorded re-trigger events.
    pub fn retrigger_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.action == DecisionAction::Retrigger)
            .count()
    }

    /// The recorded action names, in order (convenient for asserting exact
    /// move sequences against Algorithms 1–3).
    pub fn action_names(&self) -> Vec<&'static str> {
        self.events.iter().map(|e| e.action.name()).collect()
    }

    /// Render every event as JSONL (one object per line, trailing newline
    /// when non-empty), each labelled `ns` (see [`DecisionEvent::to_json`]).
    pub fn to_jsonl(&self, ns: Option<&str>) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json(ns));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(action: DecisionAction) -> DecisionEvent {
        DecisionEvent {
            seq: 0,
            tuner: "cd-tuner",
            x: vec![2],
            observed: 1234.5,
            action,
            accepted: Some(true),
            next: vec![3],
            lambda: Some(8.0),
            delta_pct: Some(12.5),
            projected: false,
            retrigger: None,
        }
    }

    #[test]
    fn sequence_numbers_are_assigned_in_order() {
        let mut log = AuditLog::new();
        for _ in 0..3 {
            log.record(sample(DecisionAction::Step));
        }
        let seqs: Vec<u64> = log.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn json_has_fixed_key_order() {
        let mut e = sample(DecisionAction::Retrigger);
        e.retrigger = Some(RetriggerCause::SignificantDelta {
            delta_pct: 25.0,
            eps_pct: 5.0,
        });
        let j = e.to_json(None);
        assert!(j.starts_with("{\"kind\":\"decision\",\"seq\":0,\"tuner\":\"cd-tuner\","));
        assert!(j.contains("\"action\":\"retrigger\""));
        assert!(j.contains("\"retrigger\":\"significant_delta\""));
        assert!(j.ends_with("}"));
    }

    #[test]
    fn infinite_delta_serializes_as_string() {
        let mut e = sample(DecisionAction::Probe);
        e.delta_pct = Some(f64::INFINITY);
        assert!(e.to_json(None).contains("\"delta_pct\":\"inf\""));
    }

    #[test]
    fn namespaced_jsonl_labels_every_record() {
        let mut log = AuditLog::new();
        log.record(sample(DecisionAction::Probe));
        log.record(sample(DecisionAction::Step));
        // Without a namespace: the exact single-transfer schema.
        for line in log.to_jsonl(None).lines() {
            assert!(line.starts_with("{\"kind\":\"decision\",\"seq\":"));
            assert!(!line.contains("\"ns\":"));
        }
        // With a namespace: "ns" right after "kind", on every line.
        let jsonl = log.to_jsonl(Some("job3"));
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            assert!(
                line.starts_with("{\"kind\":\"decision\",\"ns\":\"job3\",\"seq\":"),
                "{line}"
            );
        }
        // The namespace affects rendering only, not the recorded events.
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn retrigger_count_counts_only_retriggers() {
        let mut log = AuditLog::new();
        log.record(sample(DecisionAction::Hold));
        log.record(sample(DecisionAction::Retrigger));
        log.record(sample(DecisionAction::Monitor));
        log.record(sample(DecisionAction::Retrigger));
        assert_eq!(log.retrigger_count(), 2);
        assert_eq!(
            log.action_names(),
            vec!["hold", "retrigger", "monitor", "retrigger"]
        );
    }
}
