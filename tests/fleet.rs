//! Workspace-level fleet orchestrator tests: golden report and CSV snapshots,
//! byte-determinism under every policy, shared-link contention at scale, and
//! the warm-start convergence claim.
//!
//! The golden files live in `tests/golden/fleet/`; re-bless intentional
//! format changes with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test fleet
//! ```

#[path = "common/report_oracle.rs"]
mod report_oracle;

use proptest::prelude::*;
use report_oracle::CSV_HEADER;
use xferopt::orchestrator::{
    run_fleet_sharded, FleetConfig, HistoryRecord, HistoryStore, JobId, JobOutcome, JobRoute,
    JobSpec, JobState, Policy, Workload,
};
use xferopt::scenarios::Route;
use xferopt::transfer::StreamParams;
use xferopt::tuners::TunerKind;

/// The fixed scenario behind the golden snapshot: 12 synthetic jobs under
/// shortest-job-first, seed 7, one hour horizon.
fn golden_cfg() -> FleetConfig {
    FleetConfig {
        policy: Policy::Sjf,
        seed: 7,
        horizon_s: 3600.0,
        ..FleetConfig::default()
    }
}

fn golden_workload() -> Workload {
    Workload::synthetic(12, 7)
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
fn golden_fleet_report_matches_snapshot() {
    let mut h = HistoryStore::in_memory();
    let out = run_fleet_sharded(&golden_workload(), &golden_cfg(), &mut h, 1);
    check_golden(
        "tests/golden/fleet/report.txt",
        &out.report.render(),
        "fleet report",
    );
}

#[test]
fn golden_fleet_csv_matches_snapshot() {
    let mut h = HistoryStore::in_memory();
    let out = run_fleet_sharded(&golden_workload(), &golden_cfg(), &mut h, 1);
    check_golden(
        "tests/golden/fleet/report.csv",
        &out.report.to_csv(),
        "fleet CSV",
    );
}

/// An empty fleet moved nothing: its summary says `moved_mb=0.0`, not the
/// `-0.0` an empty float sum would render.
#[test]
fn an_empty_fleet_reports_zero_megabytes_moved() {
    let mut h = HistoryStore::in_memory();
    let out = run_fleet_sharded(&Workload::synthetic(0, 7), &golden_cfg(), &mut h, 1);
    let text = out.report.render();
    assert!(text.contains(" moved_mb=0.0 "), "{text}");
    assert!(!text.contains("-0.0"), "{text}");
}

#[test]
fn fleet_runs_are_byte_deterministic_under_every_policy() {
    for policy in Policy::all() {
        let cfg = FleetConfig {
            policy,
            ..golden_cfg()
        };
        let a = run_fleet_sharded(&golden_workload(), &cfg, &mut HistoryStore::in_memory(), 1);
        let b = run_fleet_sharded(&golden_workload(), &cfg, &mut HistoryStore::in_memory(), 1);
        assert_eq!(
            a.report.render(),
            b.report.render(),
            "policy {policy}: report must be byte-identical"
        );
        assert_eq!(a.decisions_jsonl, b.decisions_jsonl, "policy {policy}");
        assert_eq!(a.telemetry_jsonl, b.telemetry_jsonl, "policy {policy}");
        assert_eq!(a.report.to_csv(), b.report.to_csv(), "policy {policy}");
    }
}

#[test]
fn ten_concurrent_jobs_share_a_link_under_every_policy() {
    // Ten identical jobs, all arriving at t=0 on the shared UChicago route.
    // The 512-stream budget holds four 128-stream reservations plus partial
    // grants, so the link is genuinely contended; every policy must still
    // finish all ten deterministically.
    let w = Workload::new(
        (0..10)
            .map(|i| {
                xferopt::orchestrator::JobSpec::new(i, 0.0, 120_000.0)
                    .with_priority(1 + (i % 4) as u32)
            })
            .collect(),
    );
    for policy in Policy::all() {
        let cfg = FleetConfig {
            policy,
            horizon_s: 7200.0,
            ..FleetConfig::default()
        };
        let out = run_fleet_sharded(&w, &cfg, &mut HistoryStore::in_memory(), 1);
        assert_eq!(
            out.report.count(JobState::Completed),
            10,
            "policy {policy}:\n{}",
            out.report.render()
        );
        // The fleet actually overlapped: total busy time far exceeds the
        // makespan a serial schedule would need.
        let makespan = out.report.makespan_s().expect("jobs completed");
        assert!(
            makespan < 7200.0,
            "policy {policy}: makespan {makespan} too close to horizon"
        );
        // Per-job audit logs are namespaced and present.
        assert!(out.decisions_jsonl.contains("\"ns\":\"job0\""), "{policy}");
        assert!(!out.telemetry_jsonl.is_empty(), "{policy}");
    }
}

#[test]
fn warm_start_converges_faster_than_cold_in_the_golden_scenario() {
    // Build history with a cold pass over the contended scenario, then rerun
    // warm: the warm jobs must reach 90 % of their best throughput sooner on
    // average (the history store's raison d'être).
    let mut h = HistoryStore::in_memory();
    let cold_cfg = FleetConfig {
        warm_start: false,
        horizon_s: 7200.0,
        ..FleetConfig::default()
    };
    let cold = run_fleet_sharded(&Workload::contended(4), &cold_cfg, &mut h, 1);
    assert!(h.len() >= 4, "cold pass must seed the history store");
    let cold_t90 = cold
        .report
        .mean_time_to_90_s(false)
        .expect("cold jobs converged");

    let warm_cfg = FleetConfig {
        warm_start: true,
        ..cold_cfg
    };
    let warm = run_fleet_sharded(&Workload::contended(4), &warm_cfg, &mut h, 1);
    let warmed: Vec<_> = warm
        .report
        .outcomes
        .iter()
        .filter(|o| o.warm_distance.is_some())
        .collect();
    assert!(
        !warmed.is_empty(),
        "warm pass must match history:\n{}",
        warm.report.render()
    );
    let warm_t90 = warm
        .report
        .mean_time_to_90_s(true)
        .expect("warm jobs converged");
    assert!(
        warm_t90 < cold_t90,
        "warm start must cut time-to-90%: warm {warm_t90} vs cold {cold_t90}\n\
         cold:\n{}\nwarm:\n{}",
        cold.report.render(),
        warm.report.render()
    );
}

#[test]
fn history_store_round_trips_through_disk() {
    let dir = std::env::temp_dir().join(format!("xferopt-fleet-hist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = FleetConfig {
        horizon_s: 7200.0,
        ..FleetConfig::default()
    };
    let appended = {
        let mut h = HistoryStore::open(&dir).expect("open history dir");
        let out = run_fleet_sharded(&Workload::contended(2), &cfg, &mut h, 1);
        out.history_appended
    };
    assert!(appended >= 2);
    let h = HistoryStore::open(&dir).expect("reopen history dir");
    assert_eq!(h.len(), appended, "records persist across open()");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A history file whose route names need escaping.
fn history_doc() -> String {
    let mut doc = String::new();
    for (i, route) in ["anl->uchicago", "a\"x->b:0", "b->a\\y:1"]
        .iter()
        .enumerate()
    {
        let r = HistoryRecord {
            route: route.to_string(),
            tuner: TunerKind::Cs,
            ext_streams: 4.0 * i as f64,
            cmp_jobs: 0.5,
            best: vec![8, 2 + i as i64],
            achieved_mbs: 1234.5 + i as f64,
            scenario: "fleet".to_string(),
        };
        doc.push_str(&r.to_json());
        doc.push('\n');
    }
    doc
}

/// Pseudo-random words from `seed` (splitmix64).
struct Words(u64);

impl Words {
    fn new(seed: u64) -> Words {
        Words(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// A float from a mix of the cases a fixed-precision writer can get
    /// wrong: signed zeros, decimal and binary ties, large and negative
    /// values, and arbitrary bit patterns (subnormals, NaN, infinities).
    fn float(&mut self) -> f64 {
        let w = self.next();
        let k = (w >> 16) % 2_000_000;
        let v = match w % 8 {
            0 => 0.0,
            1 => (k as f64 + 0.5) / 10f64.powi((w >> 8) as i32 % 4),
            2 => k as f64 / f64::from(1u32 << ((w >> 8) % 8)),
            3 => k as f64 * 0.731,
            4 => k as f64 * 10f64.powi(10 + (w >> 8) as i32 % 25),
            5 => f64::from_bits(self.next()),
            6 => k as f64,
            _ => (k % 1000) as f64 / 1000.0,
        };
        if w & 0x80 == 0 {
            -v
        } else {
            v
        }
    }

    /// `Some(float)` or `None`, half and half.
    fn opt(&mut self) -> Option<f64> {
        (self.next() & 1 == 0).then(|| self.float())
    }
}

const STATES: [JobState; 8] = [
    JobState::Pending,
    JobState::Queued,
    JobState::Running,
    JobState::Degraded,
    JobState::Quarantined,
    JobState::Completed,
    JobState::Unfinished,
    JobState::Failed,
];

/// A job outcome with every field drawn from `w`: edge-case floats, each
/// optional field `Some` or `None`, every state and deadline state.
fn random_outcome(w: &mut Words) -> JobOutcome {
    let id = w.next() >> (w.next() % 64);
    let mut spec = JobSpec::new(id, 0.0, 1.0);
    spec.size_mb = w.float();
    spec.arrival_s = w.float();
    spec.priority = w.next() as u32;
    spec.tuner = TunerKind::ALL[(w.next() % 9) as usize];
    spec.route = match w.next() % 3 {
        0 => Route::UChicago.into(),
        1 => Route::Tacc.into(),
        _ => JobRoute::new("3->5:1", vec![4, 9], 2),
    };
    JobOutcome {
        id: JobId(id),
        state: STATES[(w.next() % 8) as usize],
        admitted_s: w.opt(),
        finished_s: w.opt(),
        granted_streams: w.next() as u32,
        moved_mb: w.float(),
        mean_mbs: w.float(),
        best_mbs: w.float(),
        best_params: StreamParams::new(1 + w.next() as u32 % 256, 1 + w.next() as u32 % 64),
        epochs: w.next() as u32,
        warm_distance: w.opt(),
        time_to_90_s: w.opt(),
        deadline_met: [Some(true), Some(false), None][(w.next() % 3) as usize],
        spec,
    }
}

proptest! {
    /// Every report line and CSV row is byte-equal to the `write!`
    /// reference rendering, over outcomes with signed zeros, ties, huge,
    /// negative and non-finite values, `Some`/`None` mixes and every
    /// state and deadline state.
    #[test]
    fn report_rows_match_the_write_reference(seed in any::<u64>()) {
        let mut w = Words::new(seed);
        let outcomes: Vec<_> = (0..64).map(|_| random_outcome(&mut w)).collect();
        let mut want_csv = CSV_HEADER.to_string();
        for o in &outcomes {
            let mut want = String::new();
            report_oracle::line(o, &mut want);
            prop_assert_eq!(o.render(), want);
            report_oracle::csv_row(o, &mut want_csv);
        }
        prop_assert_eq!(report_oracle::report(outcomes).to_csv(), want_csv);
    }

    /// A flipped byte or a cut anywhere in a `--history DIR` file never
    /// panics the load: every non-blank line is either a record that
    /// writes back to a line that reads as itself, or a skipped line.
    #[test]
    fn bitflipped_history_files_load_or_skip(pos in 0.0f64..1.0, bit in 0u8..7, cut in any::<bool>()) {
        let doc = history_doc();
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
        let dir = std::env::temp_dir()
            .join(format!("xferopt-fleet-hist-fuzz-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create history dir");
        std::fs::write(dir.join("history.jsonl"), &text).expect("write history file");
        let h = HistoryStore::open(&dir).expect("a readable file always opens");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
        prop_assert_eq!(h.len() + h.skipped(), lines);
        for r in h.records() {
            prop_assert_eq!(HistoryRecord::from_json(&r.to_json()).as_ref(), Some(r));
        }
    }
}
