//! Stepping across idle gaps (DESIGN.md §18): a checkpoint taken while the
//! fleet is idle between arrivals — no transfer live, the next job still in
//! the future — must resume to the same bytes as the uninterrupted run, on
//! every output surface.

use xferopt::orchestrator::{
    resume_fleet_sharded, run_fleet_sharded, Checkpoint, FleetConfig, FleetOutcome, FleetSim,
    HistoryStore, JobSpec, Policy, ShardedFleetSim, Workload,
};

fn cfg(policy: Policy, seed: u64) -> FleetConfig {
    FleetConfig {
        policy,
        seed,
        horizon_s: 3600.0,
        ..FleetConfig::default()
    }
}

/// Every output surface of a fleet run, byte for byte.
fn assert_identical(a: &FleetOutcome, b: &FleetOutcome, what: &str) {
    assert_eq!(a.report.render(), b.report.render(), "{what}: report");
    assert_eq!(a.report.to_csv(), b.report.to_csv(), "{what}: csv");
    assert_eq!(
        a.decisions_jsonl, b.decisions_jsonl,
        "{what}: decision audit"
    );
    assert_eq!(a.telemetry_jsonl, b.telemetry_jsonl, "{what}: telemetry");
    assert_eq!(
        a.supervision_jsonl, b.supervision_jsonl,
        "{what}: supervision events"
    );
    assert_eq!(a.metrics_jsonl, b.metrics_jsonl, "{what}: metrics");
    assert_eq!(
        a.history_appended, b.history_appended,
        "{what}: history appends"
    );
}

/// A workload whose arrivals are separated by long idle gaps.
fn sparse_workload(jobs: usize, gap_s: f64) -> Workload {
    Workload::new(
        (0..jobs)
            .map(|i| JobSpec::new(i as u64, i as f64 * gap_s, 3000.0))
            .collect(),
    )
}

/// Kill the run inside an idle gap between arrivals, resume it, and compare
/// against the uninterrupted run.
#[test]
fn kill_and_resume_mid_skip_is_byte_identical() {
    let wl = sparse_workload(4, 400.0);
    let mut h_full = HistoryStore::in_memory();
    let full = run_fleet_sharded(&wl, &cfg(Policy::Sjf, 9), &mut h_full, 1);

    // Tick 40 is t = 200 s: job 0 (arrival 0) is long done, job 1 arrives
    // at 400 s — the checkpoint lands while no transfer is live. The fleet
    // is one component, so a plain `FleetSim` shows its world at the kill.
    let mut h = HistoryStore::in_memory();
    {
        let mut sim = FleetSim::new(&wl, &cfg(Policy::Sjf, 9), &mut h);
        while sim.tick_index() < 40 {
            assert!(sim.tick(), "run ended before the kill point");
        }
        assert_eq!(
            sim.world().active_transfer_count(),
            0,
            "kill point must fall inside an idle gap"
        );
    }
    let mut h = HistoryStore::in_memory();
    let ck_text = {
        let mut sim = ShardedFleetSim::new(&wl, &cfg(Policy::Sjf, 9), &mut h, 1);
        while sim.tick_index() < 40 {
            assert!(sim.tick(), "run ended before the kill point");
        }
        sim.checkpoint()
    };
    let ck = Checkpoint::parse(&ck_text).expect("checkpoint parses");
    assert_eq!(ck.tick, 40);
    let resumed = resume_fleet_sharded(&ck, &mut h, 1).expect("digest verifies");
    assert_identical(&full, &resumed, "resume in idle gap");
}
