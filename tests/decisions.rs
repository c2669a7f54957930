//! Golden decision streams: every audited tuner's `"kind":"decision"`
//! records under the paper's varying load with a flaky link, and the
//! namespaced per-job decisions of a chaos fleet run through the CLI.
//!
//! Each tuner file must hold at least one `monitor` (cd-tuner: `hold`) and
//! one `retrigger` decision, so the snapshots pin the ε-monitor and its audit records, not
//! only the search phase. Re-bless intentional changes with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test decisions
//! ```

use std::process::Command;

use xferopt::prelude::*;

/// The tuners that keep a decision audit log.
const AUDITED: [TunerKind; 6] = [
    TunerKind::Cd,
    TunerKind::Cs,
    TunerKind::Nm,
    TunerKind::History,
    TunerKind::Heuristic,
    TunerKind::Bandit,
];

/// The fleet run behind `tests/golden/decisions/fleet_chaos.jsonl`; the
/// same command is compared with the golden in `scripts/ci.sh`.
const FLEET_ARGS: [&str; 10] = [
    "fleet",
    "run",
    "--jobs",
    "12",
    "--seed",
    "7",
    "--horizon",
    "7200",
    "--faults",
    "flaky-link",
];

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

/// One tuned transfer on the UChicago route: the paper's 64→16 compute
/// load switch at 1000 s, and a flaky WAN link whose kills leave
/// zero-throughput epochs.
fn cfg(tuner: TunerKind) -> DriveConfig {
    DriveConfig::paper(
        Route::UChicago,
        tuner,
        TuneDims::NcOnly { np: 8 },
        LoadSchedule::paper_varying(),
    )
    .with_duration_s(3000.0)
    .with_seed(1)
    .with_faults(FaultProfile::FlakyLink.plan(Route::UChicago, 1, 3000.0))
}

#[test]
fn golden_tuner_decisions_match_snapshots() {
    for kind in AUDITED {
        let (log, tel) = drive_transfer_with_telemetry(&cfg(kind));
        let doc = tel.decisions_jsonl;
        let count = |action: &str| {
            doc.lines()
                .filter(|l| l.contains(&format!("\"action\":\"{action}\"")))
                .count()
        };
        let zero_epochs = log.epochs.iter().filter(|e| e.observed_mbs == 0.0).count();
        assert_eq!(doc.lines().count(), log.epochs.len(), "{}", kind.name());
        // cd-tuner has no separate monitor phase: its ε test at an unmoved
        // point records `hold` when quiet.
        let monitor = if kind == TunerKind::Cd {
            "hold"
        } else {
            "monitor"
        };
        assert!(
            count(monitor) >= 1,
            "{}: no {monitor} decision",
            kind.name()
        );
        assert!(
            zero_epochs >= 1,
            "{}: no zero-throughput epoch",
            kind.name()
        );
        assert!(
            count("retrigger") >= 1,
            "{}: no retrigger decision",
            kind.name()
        );
        let path = format!(
            "{}/tests/golden/decisions/{}.jsonl",
            env!("CARGO_MANIFEST_DIR"),
            kind.name()
        );
        check_golden(&path, &doc, &format!("{} decisions", kind.name()));
    }
}

#[test]
fn golden_fleet_decisions_match_snapshot() {
    let out = std::env::temp_dir().join(format!("xferopt-decisions-{}.jsonl", std::process::id()));
    // The report goes to the captured stdout; only the decisions are kept.
    let run = Command::new(env!("CARGO_BIN_EXE_xferopt"))
        .args(FLEET_ARGS)
        .arg("--decisions-out")
        .arg(&out)
        .output()
        .expect("run xferopt");
    assert!(run.status.success(), "fleet run failed: {}", run.status);
    let doc = std::fs::read_to_string(&out).expect("read decisions");
    let _ = std::fs::remove_file(&out);
    assert!(doc
        .lines()
        .all(|l| l.starts_with("{\"kind\":\"decision\",\"ns\":\"job")));
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/decisions/fleet_chaos.jsonl"
    );
    check_golden(path, &doc, "chaos fleet decisions");
}
