//! Workspace-level tournament tests: golden leaderboard snapshot, full-matrix
//! double-run byte determinism (leaderboard + per-tuner audit JSONL), and the
//! warm-vs-cold convergence claim for the history tuner.
//!
//! The golden files live in `tests/golden/tournament/`; re-bless intentional
//! format changes with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test tournament
//! ```

use proptest::prelude::*;
use xferopt::orchestrator::{
    run_tournament, HistoryRecord, HistoryStore, Leaderboard, ScenarioPreset, TournamentConfig,
};
use xferopt::scenarios::Route;
use xferopt::tuners::TunerKind;

/// The fixed matrix behind the golden snapshot — MUST stay identical to what
/// `xferopt tournament run --quick --seed 7` builds, because the ci.sh smoke
/// gate diffs the CLI's output against the same golden file.
fn golden_cfg() -> TournamentConfig {
    TournamentConfig {
        seed: 7,
        ..TournamentConfig::quick()
    }
}

fn check_golden(path: &str, actual: &str, what: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap())
            .expect("create golden dir");
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
fn golden_leaderboard_matches_snapshot() {
    let mut h = HistoryStore::in_memory();
    let out = run_tournament(&golden_cfg(), &mut h);
    check_golden(
        "tests/golden/tournament/leaderboard.txt",
        &out.leaderboard.render(),
        "tournament leaderboard",
    );
    check_golden(
        "tests/golden/tournament/leaderboard.csv",
        &out.leaderboard.to_csv(),
        "tournament CSV",
    );
    check_golden(
        "tests/golden/tournament/leaderboard.jsonl",
        &out.leaderboard.to_jsonl(),
        "tournament JSONL",
    );
}

#[test]
fn golden_matrix_covers_the_required_axes() {
    let cfg = golden_cfg();
    // ≥3 tuner kinds including both new learners, ≥3 scenarios, ≥2 fault
    // slots — the acceptance floor for the tournament matrix.
    assert!(cfg.tuners.len() >= 3);
    assert!(cfg.tuners.contains(&TunerKind::History));
    assert!(cfg.tuners.contains(&TunerKind::Bandit));
    assert!(cfg.scenarios.len() >= 3);
    assert!(cfg.faults.len() >= 2);

    let mut h = HistoryStore::in_memory();
    let out = run_tournament(&cfg, &mut h);
    assert_eq!(
        out.leaderboard.cells.len(),
        cfg.tuners.len() * cfg.scenarios.len() * cfg.faults.len()
    );
    // Every tuner got ranked, and the ranking is sorted by mean regret.
    assert_eq!(out.leaderboard.ranks.len(), cfg.tuners.len());
    for w in out.leaderboard.ranks.windows(2) {
        assert!(w[0].mean_regret_mb <= w[1].mean_regret_mb);
    }
}

#[test]
fn full_matrix_double_run_is_byte_identical() {
    let run = || {
        let mut h = HistoryStore::in_memory();
        run_tournament(&golden_cfg(), &mut h)
    };
    let (a, b) = (run(), run());
    assert_eq!(
        a.leaderboard.render(),
        b.leaderboard.render(),
        "leaderboard text must be byte-deterministic"
    );
    assert_eq!(a.leaderboard.to_csv(), b.leaderboard.to_csv());
    assert_eq!(a.leaderboard.to_jsonl(), b.leaderboard.to_jsonl());
    assert_eq!(
        a.decisions_jsonl, b.decisions_jsonl,
        "per-tuner audit JSONL must be byte-deterministic"
    );
    assert_eq!(a.history_appended, b.history_appended);
}

#[test]
fn report_round_trips_through_jsonl() {
    let mut h = HistoryStore::in_memory();
    let out = run_tournament(&golden_cfg(), &mut h);
    let doc = out.leaderboard.to_jsonl();
    let back = Leaderboard::from_jsonl(&doc).expect("round trip");
    assert_eq!(back, out.leaderboard);
}

/// The headline warm-start claim: after ≥20 stored runs of the contended
/// preset, the history tuner's t90 beats a cold cd tuner's on that preset.
#[test]
fn warm_history_beats_cold_cd_on_the_contended_preset() {
    let cfg = TournamentConfig {
        tuners: vec![TunerKind::Cd, TunerKind::History],
        scenarios: vec![ScenarioPreset::UcContended],
        faults: vec![None],
        epochs: 12,
        oracle_secs: 60.0,
        ..TournamentConfig::default()
    };

    // Seed the store with ≥20 prior contended runs: vary the seed so the
    // stored observations cluster around (not exactly on) the optimum, as a
    // real history file would.
    let mut store = HistoryStore::in_memory();
    for s in 0..20u64 {
        let out = run_tournament(
            &TournamentConfig {
                tuners: vec![TunerKind::Cs],
                seed: 11 + s,
                epochs: 10,
                ..cfg.clone()
            },
            &mut store,
        );
        assert_eq!(out.history_appended, 1);
    }
    assert!(
        store.len() >= 20,
        "need ≥20 stored runs, got {}",
        store.len()
    );
    assert!(
        store
            .records()
            .iter()
            .all(|r: &HistoryRecord| r.route == Route::UChicago.name()
                && r.scenario == "uc-contended")
    );

    let out = run_tournament(&cfg, &mut store);
    let cell = |name: &str| {
        out.leaderboard
            .cells
            .iter()
            .find(|c| c.tuner == name)
            .unwrap_or_else(|| panic!("missing {name} cell"))
            .clone()
    };
    let (cd, hist) = (cell("cd-tuner"), cell("history"));
    let horizon = cfg.epochs as f64 * cfg.epoch_s;
    let warm_t90 = hist
        .t90_s
        .expect("warm history tuner must reach 90% of oracle");
    assert!(
        warm_t90 < cd.t90_s.unwrap_or(horizon),
        "warm history t90 {warm_t90} must beat cold cd t90 {:?}",
        cd.t90_s
    );
}

proptest! {
    /// A flipped byte or a cut anywhere in a leaderboard file never panics
    /// the reader: it refuses the file, or skips the damaged cell line and
    /// then refuses the count mismatch, or reads a board that renders.
    #[test]
    fn bitflipped_leaderboards_refuse_or_read(pos in 0.0f64..1.0, bit in 0u8..7, cut in any::<bool>()) {
        let doc = std::fs::read_to_string("tests/golden/tournament/leaderboard.jsonl")
            .expect("golden leaderboard");
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
        if let Ok(board) = Leaderboard::from_jsonl(&text) {
            prop_assert!(!board.cells.is_empty());
            prop_assert!(!board.render().is_empty());
        }
    }
}
