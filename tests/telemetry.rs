//! Workspace-level telemetry tests: golden JSONL/Prometheus snapshots,
//! byte-determinism across runs, and observer non-perturbation.
//!
//! The golden files live in `tests/golden/`; re-bless intentional schema
//! changes with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test telemetry
//! ```

use proptest::prelude::*;
use xferopt::prelude::*;
use xferopt::simcore::SampleValue;

/// The fixed scenario behind the golden snapshots: the cs-tuner under heavy
/// compute load on the UChicago route, 10 control epochs, seed 7. Chosen so
/// the bundle exercises epochs, compass decisions, restarts, and the full
/// metrics registry in a sub-second run.
fn golden_cfg() -> DriveConfig {
    DriveConfig::paper(
        Route::UChicago,
        TunerKind::Cs,
        TuneDims::NcOnly { np: 8 },
        LoadSchedule::constant(ExternalLoad::new(0, 16)),
    )
    .with_duration_s(300.0)
    .with_seed(7)
}

/// A fault-laced variant used by the perturbation tests: retries, stalls,
/// and fault-factor changes must all flow through telemetry without changing
/// the transfer.
fn faulty_plan() -> FaultPlan {
    FaultProfile::FlakyLink.plan(Route::UChicago, 3, 600.0)
}

fn faulty_cfg(tuner: TunerKind) -> DriveConfig {
    DriveConfig::paper(
        Route::UChicago,
        tuner,
        TuneDims::NcOnly { np: 8 },
        LoadSchedule::constant(ExternalLoad::NONE),
    )
    .with_duration_s(600.0)
    .with_seed(4)
    .with_faults(faulty_plan())
}

fn check_golden(path: &str, actual: &str, what: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, actual).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden snapshot missing; run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        actual, golden,
        "{what} drifted from {path}; if the change is intentional, \
         re-bless with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_telemetry_jsonl_matches_snapshot() {
    let (_log, tel) = drive_transfer_with_telemetry(&golden_cfg());
    let doc = tel.to_jsonl();
    // Structural sanity before comparing bytes.
    assert!(doc.starts_with("{\"kind\":\"run\","));
    assert!(doc.contains("\"kind\":\"epoch\""));
    assert!(doc.contains("\"kind\":\"decision\""));
    assert!(doc.contains("\"kind\":\"histogram\""));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/telemetry.jsonl");
    check_golden(path, &doc, "telemetry JSONL");
}

#[test]
fn golden_telemetry_prometheus_matches_snapshot() {
    let (_log, tel) = drive_transfer_with_telemetry(&golden_cfg());
    let prom = tel.to_prometheus();
    assert!(prom.contains("# TYPE transfer_epochs_total counter"));
    assert!(prom.contains("_bucket{"), "histograms expand to buckets");
    assert!(
        prom.contains("le=\"+Inf\""),
        "cumulative +Inf bucket present"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/telemetry.prom");
    check_golden(path, &prom, "Prometheus exposition");
}

#[test]
fn telemetry_is_byte_deterministic_across_runs() {
    // Two in-process seeded runs: identical JSONL and Prometheus text, byte
    // for byte (the row replay and JSON float formatting must not
    // depend on iteration order or allocation).
    let run = || drive_transfer_with_telemetry(&golden_cfg()).1;
    let (a, b) = (run(), run());
    assert_eq!(a.to_jsonl(), b.to_jsonl(), "JSONL must be deterministic");
    assert_eq!(
        a.to_prometheus(),
        b.to_prometheus(),
        "Prometheus text must be deterministic"
    );
}

#[test]
fn telemetry_does_not_perturb_any_tuner_run() {
    // The flight recorder is an observer: for every tuner kind, the epoch
    // reports of an instrumented run equal the plain run exactly.
    for kind in TunerKind::ALL {
        let cfg = golden_cfg();
        let cfg = DriveConfig { tuner: kind, ..cfg };
        let plain = drive_transfer(&cfg);
        let (instrumented, _tel) = drive_transfer_with_telemetry(&cfg);
        assert_eq!(
            plain.epochs,
            instrumented.epochs,
            "{}: telemetry perturbed the transfer",
            kind.name()
        );
    }
}

#[test]
fn telemetry_does_not_perturb_faulty_runs() {
    // Retry/backoff paths draw from the world's seed stream; the recorder
    // must not shift those draws either. The plan flaps the UChicago WAN
    // (link 1) down and back up and aborts the tuned transfer (id 1); the
    // recorder must count every one of those events.
    let plan = faulty_plan();
    let flaps = plan
        .events()
        .iter()
        .filter(|e| e.kind == FaultKind::LinkFlap { link: 1 })
        .count() as u64;
    let aborts = plan
        .events()
        .iter()
        .filter(|e| e.kind == FaultKind::TransferAbort { transfer: 1 })
        .count() as u64;
    assert!(flaps > 0 && aborts > 0, "the plan must schedule both");
    for kind in [TunerKind::Nm, TunerKind::Cs, TunerKind::Default] {
        let cfg = faulty_cfg(kind);
        let plain = drive_transfer(&cfg);
        let (instrumented, tel) = drive_transfer_with_telemetry(&cfg);
        assert_eq!(
            plain.epochs,
            instrumented.epochs,
            "{}: telemetry perturbed the faulty run",
            kind.name()
        );
        let snap = &tel.snapshot;
        assert_eq!(
            snap.get(
                "net_fault_factor_changes_total",
                &[("kind", "link"), ("index", "1")]
            ),
            Some(&SampleValue::Counter(2 * flaps)),
            "{}: link-flap transitions",
            kind.name()
        );
        assert_eq!(
            snap.get("transfer_aborts_total", &[("transfer", "1")]),
            Some(&SampleValue::Counter(aborts)),
            "{}: aborts of the tuned transfer",
            kind.name()
        );
    }
}

#[test]
fn decision_records_align_with_epochs() {
    // One tuner decision per control epoch, sequence numbers dense from 0.
    let (log, tel) = drive_transfer_with_telemetry(&golden_cfg());
    let decisions: Vec<&str> = tel
        .decisions_jsonl
        .lines()
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(decisions.len(), log.epochs.len());
    for (i, line) in decisions.iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"kind\":\"decision\",\"seq\":{i},")),
            "dense sequence numbers: {line}"
        );
    }
}

#[test]
fn summarizer_round_trips_the_bundle() {
    let (log, tel) = drive_transfer_with_telemetry(&golden_cfg());
    let s = summarize_telemetry(&tel.to_jsonl());
    assert_eq!(s.runs, 1);
    assert_eq!(s.epochs, log.epochs.len());
    assert_eq!(s.decisions, log.epochs.len());
    assert_eq!(s.unknown_lines, 0, "every emitted line must be understood");
    // Concatenated bundles add up (multi-run files from repeated --telemetry-out).
    let twice = format!("{}{}", tel.to_jsonl(), tel.to_jsonl());
    let s2 = summarize_telemetry(&twice);
    assert_eq!(s2.runs, 2);
    assert_eq!(s2.epochs, 2 * s.epochs);
}

proptest! {
    /// A flipped byte or a cut anywhere in a telemetry file never panics
    /// the summarizer: every non-blank line is counted once, as a known
    /// record kind or as unknown.
    #[test]
    fn bitflipped_telemetry_is_summarized_line_by_line(pos in 0.0f64..1.0, bit in 0u8..7, cut in any::<bool>()) {
        let doc = std::fs::read_to_string("tests/golden/telemetry.jsonl").expect("golden telemetry");
        let idx = ((doc.len() - 1) as f64 * pos) as usize;
        let mut bytes = doc.into_bytes();
        if cut {
            bytes.truncate(idx);
        } else {
            bytes[idx] ^= 1 << bit;
        }
        let Ok(text) = String::from_utf8(bytes) else {
            return; // non-UTF8 file: read_to_string refuses upstream
        };
        let s = summarize_telemetry(&text);
        let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
        prop_assert_eq!(
            s.runs + s.epochs + s.decisions + s.metric_samples + s.unknown_lines,
            lines
        );
        prop_assert!(!s.to_report().is_empty());
    }
}
