//! Audit-log conformance tests: drive cd/cs/nm over known unimodal surfaces
//! and check the recorded decision sequences against Algorithms 1–3.
//!
//! These tests pin down the *decision* semantics of the tuners — probe /
//! accept / reject / halve λ / re-trigger — rather than just the parameter
//! trajectories, and check that every tuner kind, rebuilt, repeats both
//! its proposals and its log.

use xferopt_tuners::{
    CdTuner, CompassTuner, DecisionAction, Domain, NelderMeadTuner, OnlineTuner, Point,
    RetriggerCause, TunerKind,
};

/// Drive `tuner` for `epochs` control epochs against objective `f`,
/// returning the evaluated trajectory.
fn drive<F: FnMut(&Point) -> f64>(
    tuner: &mut dyn OnlineTuner,
    epochs: usize,
    mut f: F,
) -> Vec<Point> {
    let mut x = tuner.initial();
    let mut traj = vec![x.clone()];
    for _ in 0..epochs {
        let fx = f(&x);
        x = tuner.observe(&x.clone(), fx);
        traj.push(x.clone());
    }
    traj
}

fn concave(peak: i64) -> impl FnMut(&Point) -> f64 {
    move |x: &Point| 4000.0 - ((x[0] - peak) as f64).powi(2) * 10.0
}

// ---------------------------------------------------------------------------
// cd-tuner (Algorithm 1)
// ---------------------------------------------------------------------------

#[test]
fn cd_exact_sequence_on_unimodal_walk() {
    // Start at 2, peak at 5, ε = 5 %, surface steep enough that every step
    // toward the peak is significant and the at-peak step is not. Algorithm 1
    // must emit exactly: probe, step, step, then holds.
    let mut t = CdTuner::new(Domain::paper_nc(), vec![2], 5.0);
    let traj = drive(&mut t, 10, |x: &Point| {
        4000.0 - ((x[0] - 5) as f64).powi(2) * 100.0
    });
    let log = t.audit_log().expect("cd supports auditing");
    assert_eq!(
        log.action_names(),
        vec!["probe", "step", "step", "hold", "hold", "hold", "hold", "hold", "hold", "hold"],
        "exact Algorithm 1 move sequence (trajectory {traj:?})"
    );
    assert_eq!(traj.last().unwrap(), &vec![5], "settled at the peak");
    // Every recorded event proposes a point within the domain, one event per
    // observed epoch.
    assert_eq!(log.len(), 10);
    for e in log.events() {
        assert!(t.domain().contains(&e.next), "in-domain proposals only");
        assert_eq!(e.tuner, "cd-tuner");
    }
}

#[test]
fn cd_records_projection_at_bound() {
    // Start at the upper bound with rising feedback: the +1 probe is clamped
    // back onto the bound, which the audit log must flag as projected.
    let mut t = CdTuner::new(Domain::new(&[(1, 4)]), vec![4], 0.01);
    let mut x = t.initial();
    for i in 0..3 {
        x = t.observe(&x.clone(), 1000.0 + i as f64 * 500.0);
    }
    let log = t.audit_log().unwrap();
    assert!(
        log.events().iter().any(|e| e.projected),
        "clamped probe must be flagged: {:?}",
        log.action_names()
    );
}

#[test]
fn cd_retrigger_carries_significant_delta_cause() {
    let mut t = CdTuner::new(Domain::paper_nc(), vec![10], 5.0);
    let mut x = t.initial();
    for _ in 0..6 {
        x = t.observe(&x.clone(), 1000.0);
    }
    // Conditions change: throughput doubles at the parked point.
    t.observe(&x.clone(), 2000.0);
    let log = t.audit_log().unwrap();
    let rt = log
        .events()
        .iter()
        .find(|e| e.action == DecisionAction::Retrigger)
        .expect("wake-up must be audited as a retrigger");
    match rt.retrigger {
        Some(RetriggerCause::SignificantDelta { delta_pct, eps_pct }) => {
            assert!((delta_pct - 100.0).abs() < 1e-9, "Δc = +100%: {delta_pct}");
            assert!((eps_pct - 5.0).abs() < 1e-9);
        }
        other => panic!("expected SignificantDelta, got {other:?}"),
    }
    assert_eq!(log.retrigger_count(), 1);
}

#[test]
fn cd_zero_recovery_cause() {
    let mut t = CdTuner::new(Domain::paper_nc(), vec![5], 5.0);
    let mut x = t.initial();
    x = t.observe(&x.clone(), 0.0);
    x = t.observe(&x.clone(), 0.0);
    t.observe(&x.clone(), 500.0);
    let log = t.audit_log().unwrap();
    let rt = log
        .events()
        .iter()
        .find(|e| e.action == DecisionAction::Retrigger)
        .expect("recovery from zero must be audited");
    assert_eq!(rt.retrigger, Some(RetriggerCause::ZeroRecovery));
}

// ---------------------------------------------------------------------------
// cs-tuner (Algorithm 2)
// ---------------------------------------------------------------------------

#[test]
fn cs_sequence_structure_on_unimodal_surface() {
    let mut t = CompassTuner::new(Domain::paper_nc(), vec![2], 8.0, 5.0).with_seed(11);
    drive(&mut t, 60, concave(20));
    let log = t.audit_log().unwrap();
    let names = log.action_names();
    assert_eq!(
        names[0], "eval_start",
        "line 3 evaluates the start: {names:?}"
    );
    let conv = names
        .iter()
        .position(|n| *n == "converged")
        .expect("λ must collapse below 0.5: {names:?}");
    assert!(
        names[1..conv].iter().all(|n| *n == "compass_probe"),
        "between start and convergence only coordinate probes: {names:?}"
    );
    assert!(
        names[conv + 1..].iter().all(|n| *n == "monitor"),
        "quiet objective after convergence: {names:?}"
    );
    // λ is recorded on every event and never grows within the search.
    let lambdas: Vec<f64> = log.events()[..conv]
        .iter()
        .map(|e| e.lambda.expect("cs records λ"))
        .collect();
    assert!(
        lambdas.windows(2).all(|w| w[1] <= w[0]),
        "λ must be non-increasing within one search: {lambdas:?}"
    );
    // Probe accept/reject flags are present on every compass probe.
    for e in &log.events()[1..conv] {
        assert!(e.accepted.is_some(), "probes carry an accept flag");
    }
    // At least one probe improved the incumbent on the climb to 20.
    assert!(
        log.events()[1..conv]
            .iter()
            .any(|e| e.accepted == Some(true)),
        "climbing from 2 to 20 must accept probes"
    );
}

#[test]
fn cs_retrigger_cause_and_lambda_reset() {
    let mut t = CompassTuner::new(Domain::paper_nc(), vec![2], 8.0, 5.0).with_seed(3);
    let mut x = t.initial();
    for epoch in 0..120 {
        let peak = if epoch < 40 { 10 } else { 60 };
        let fx = 4000.0 - ((x[0] - peak) as f64).powi(2) * 2.0;
        x = t.observe(&x.clone(), fx);
    }
    let log = t.audit_log().unwrap();
    assert!(log.retrigger_count() >= 1, "peak shift must re-trigger");
    let rt = log
        .events()
        .iter()
        .find(|e| e.action == DecisionAction::Retrigger)
        .unwrap();
    match rt.retrigger {
        Some(RetriggerCause::SignificantDelta { delta_pct, eps_pct }) => {
            assert!(delta_pct.abs() > eps_pct, "cause must exceed tolerance");
        }
        other => panic!("expected SignificantDelta, got {other:?}"),
    }
    // The retrigger resets λ to λ0 for the fresh search.
    assert_eq!(rt.lambda, Some(8.0), "λ resets on retrigger");
}

#[test]
fn cs_projection_flag_fires_near_bounds() {
    // Incumbent near the upper bound: λ=8 probes overshoot and are projected.
    let mut t = CompassTuner::new(Domain::new(&[(1, 12)]), vec![10], 8.0, 5.0).with_seed(5);
    drive(&mut t, 20, |x| x[0] as f64 * 10.0);
    let log = t.audit_log().unwrap();
    assert!(
        log.events().iter().any(|e| e.projected),
        "fBnd projection near the bound must be flagged: {:?}",
        log.action_names()
    );
}

// ---------------------------------------------------------------------------
// nm-tuner (Algorithm 3)
// ---------------------------------------------------------------------------

#[test]
fn nm_sequence_structure_on_unimodal_surface() {
    let mut t = NelderMeadTuner::new(Domain::paper_nc(), vec![2], 5.0);
    drive(&mut t, 80, concave(20));
    let log = t.audit_log().unwrap();
    let names = log.action_names();
    // 1-D simplex has 2 vertices: both initial evaluations are audited.
    assert_eq!(names[0], "init_vertex", "first epoch evaluates vertex 0");
    assert_eq!(names[1], "init_vertex", "second epoch evaluates vertex 1");
    // The simplex must degenerate on a quiet objective, then hold.
    let conv = names
        .iter()
        .position(|n| *n == "converged")
        .expect("simplex must degenerate: {names:?}");
    assert!(
        names[conv + 1..].iter().all(|n| *n == "monitor"),
        "after convergence only monitoring: {names:?}"
    );
    // Between init and convergence only simplex moves occur.
    let simplex_moves = ["reflect", "expand", "contract", "shrink", "init_vertex"];
    assert!(
        names[2..conv].iter().all(|n| simplex_moves.contains(n)),
        "only Algorithm 3 moves before convergence: {names:?}"
    );
    // Climbing from 2 toward 20 must use reflection; accept flags present.
    assert!(
        names.contains(&"reflect"),
        "reflection must occur: {names:?}"
    );
    for e in log.events() {
        if e.action == DecisionAction::Reflect || e.action == DecisionAction::Expand {
            assert!(e.accepted.is_some(), "reflect/expand carry accept flags");
        }
    }
}

#[test]
fn nm_expansion_audited_on_distant_peak() {
    // Paper: nm "can rapidly move to the critical point using reflection and
    // expansion" — a distant peak must produce audited expand moves.
    let mut t = NelderMeadTuner::new(Domain::paper_nc(), vec![2], 5.0);
    drive(&mut t, 30, concave(100));
    let log = t.audit_log().unwrap();
    assert!(
        log.action_names().contains(&"expand"),
        "distant peak must trigger expansion: {:?}",
        log.action_names()
    );
}

#[test]
fn nm_retrigger_on_environment_shift() {
    let mut t = NelderMeadTuner::new(Domain::paper_nc(), vec![2], 5.0);
    let mut x = t.initial();
    for epoch in 0..160 {
        let peak = if epoch < 70 { 12 } else { 70 };
        let fx = 4000.0 - ((x[0] - peak) as f64).powi(2) * 2.0;
        x = t.observe(&x.clone(), fx);
    }
    let log = t.audit_log().unwrap();
    assert!(log.retrigger_count() >= 1, "peak shift must re-trigger nm");
    let rt = log
        .events()
        .iter()
        .find(|e| e.action == DecisionAction::Retrigger)
        .unwrap();
    assert!(rt.retrigger.is_some(), "retrigger cause recorded");
    assert!(rt.delta_pct.is_some(), "Δc recorded on retrigger");
}

// ---------------------------------------------------------------------------
// Cross-cutting: tuners repeat themselves, logs serialize as JSONL
// ---------------------------------------------------------------------------

#[test]
fn every_tuner_kind_rebuilt_proposes_the_same_trajectory() {
    // For every tuner kind: two tuners built alike and observed alike
    // propose the same points and record the same decisions.
    let objective = |x: &Point| 4000.0 - ((x[0] - 24) as f64).powi(2) * 3.0;
    for kind in TunerKind::ALL {
        let mut first = kind.build(Domain::paper_nc(), vec![2]);
        let mut second = kind.build(Domain::paper_nc(), vec![2]);
        let a = drive(first.as_mut(), 50, objective);
        let b = drive(second.as_mut(), 50, objective);
        assert_eq!(a, b, "{}: a rebuilt tuner must repeat itself", kind.name());
        assert_eq!(
            first.audit_log().map(|log| log.to_jsonl(None)),
            second.audit_log().map(|log| log.to_jsonl(None)),
            "{}: a rebuilt tuner must log the same decisions",
            kind.name()
        );
    }
}

#[test]
fn audit_jsonl_is_well_formed() {
    let mut t = CompassTuner::new(Domain::paper_nc(), vec![2], 8.0, 5.0).with_seed(1);
    drive(&mut t, 25, concave(30));
    let log = t.audit_log().unwrap();
    let jsonl = log.to_jsonl(None);
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), log.len(), "one line per decision");
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"kind\":\"decision\",\"seq\":{i},")),
            "fixed key order with sequential seq: {line}"
        );
        assert!(line.ends_with('}'), "balanced object: {line}");
    }
}

#[test]
fn baselines_have_no_audit_log() {
    for kind in [TunerKind::Default, TunerKind::Heur1, TunerKind::Heur2] {
        let mut t = kind.build(Domain::paper_nc(), vec![2]);
        drive(t.as_mut(), 10, concave(10));
        assert!(
            t.audit_log().is_none(),
            "{}: baselines make no direct-search decisions",
            kind.name()
        );
    }
}
