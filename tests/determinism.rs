//! Reproducibility guarantees: every experiment is a pure function of its
//! seed, and different seeds genuinely vary.

use xferopt::prelude::*;
use xferopt::scenarios::experiments::{fig1, fig11};
use xferopt::scenarios::runner::run_repeats;
use xferopt::simcore::RngFactory;

#[test]
fn fig1_is_seed_deterministic() {
    let a = fig1(2, 60.0, 7);
    let b = fig1(2, 60.0, 7);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.nc, y.nc);
        assert_eq!(x.stats.median, y.stats.median);
        assert_eq!(x.stats.mean, y.stats.mean);
    }
    let c = fig1(2, 60.0, 8);
    let differs = a
        .iter()
        .zip(&c)
        .any(|(x, y)| x.stats.median != y.stats.median);
    assert!(differs, "different seeds must perturb the noise");
}

#[test]
fn driven_runs_are_seed_deterministic() {
    let cfg = DriveConfig::paper(
        Route::Tacc,
        TunerKind::Nm,
        TuneDims::NcNp,
        LoadSchedule::paper_varying(),
    )
    .with_duration_s(600.0)
    .with_seed(11);
    let a = drive_transfer(&cfg);
    let b = drive_transfer(&cfg);
    assert_eq!(a.total_mb(), b.total_mb());
    let params_a: Vec<_> = a.epochs.iter().map(|e| e.params).collect();
    let params_b: Vec<_> = b.epochs.iter().map(|e| e.params).collect();
    assert_eq!(params_a, params_b, "tuner trajectories must replay exactly");
}

#[test]
fn parallel_repeats_equal_serial_repeats() {
    // The threaded fan-out of `run_repeats` must give exactly the serial
    // results, in repeat order: every repeat owns its world. More repeats
    // than cores, so each worker runs several and they finish out of order.
    let n = std::thread::available_parallelism().map_or(4, |c| c.get()) + 3;
    let cell = |i: usize, seed: u64| {
        let cfg = DriveConfig::paper(
            Route::UChicago,
            TunerKind::Cs,
            TuneDims::NcNp,
            LoadSchedule::paper_varying(),
        )
        .with_duration_s(300.0)
        .with_seed(seed);
        let log = drive_transfer(&cfg);
        let params: Vec<_> = log.epochs.iter().map(|e| e.params).collect();
        (i, log.total_mb(), params)
    };
    let parallel = run_repeats(n, 13, cell);
    let serial: Vec<_> = (0..n)
        .map(|i| cell(i, RngFactory::new(13).seed_for(i as u64)))
        .collect();
    assert_eq!(parallel, serial);
}

#[test]
fn multidriver_is_deterministic() {
    let run = || {
        let (uc, tacc) = fig11(TunerKind::Cs, 600.0, 17);
        (uc.total_mb(), tacc.total_mb())
    };
    assert_eq!(run(), run());
}

/// Build the canonical faulty world used for the golden snapshot: a
/// finite transfer on the paper topology under a scripted + seeded fault mix
/// covering every [`FaultKind`].
fn golden_fault_world() -> (PaperWorld, xferopt::transfer::TransferId) {
    let mut pw = PaperWorld::new(0x60 ^ 0x42);
    let cfg = TransferConfig::memory_to_memory(pw.source, pw.path_uchicago)
        .with_params(StreamParams::globus_default())
        .with_noise(0.0, 1.0)
        .with_size_mb(400_000.0);
    let tid = pw.world.add_transfer(cfg);
    let plan = FaultPlan::new()
        .with(FaultEvent::window(
            SimTime::from_secs(20),
            SimDuration::from_secs(15),
            FaultKind::LinkDegrade {
                link: 1,
                factor: 0.25,
            },
        ))
        .with(FaultEvent::window(
            SimTime::from_secs(50),
            SimDuration::from_secs(5),
            FaultKind::LinkFlap { link: 1 },
        ))
        .with(FaultEvent::window(
            SimTime::from_secs(70),
            SimDuration::from_secs(10),
            FaultKind::RttSpike {
                path: 0,
                factor: 4.0,
            },
        ))
        .with(FaultEvent::window(
            SimTime::from_secs(90),
            SimDuration::from_secs(10),
            FaultKind::FlowStall { transfer: tid.0 },
        ))
        .with(FaultEvent::instant(
            SimTime::from_secs(110),
            FaultKind::TransferAbort { transfer: tid.0 },
        ))
        .merge(FaultPlan::aborts(7, tid.0, 240.0, 90.0));
    pw.world.enable_faults(plan);
    (pw, tid)
}

#[test]
fn golden_fault_world_telemetry_matches_snapshot() {
    // The same faulty world, stepped in ten 30 s epochs under the flight
    // recorder: the epoch rows, the metrics (factor changes, the stall, the
    // aborts and their backoffs) and the final retry count are pinned
    // byte for byte. Re-bless with:
    //   UPDATE_GOLDEN=1 cargo test --test determinism golden_fault_world
    let run = || {
        let (mut pw, tid) = golden_fault_world();
        pw.world.enable_telemetry();
        for _ in 0..10 {
            let params = pw.world.params(tid);
            let es = pw.world.begin_epoch(tid, params, false);
            pw.world.step(SimDuration::from_secs(30));
            pw.world.end_epoch(es);
        }
        let retries = pw.world.retries(tid);
        let snap = pw.world.metrics_snapshot().expect("telemetry enabled");
        let tel = pw.world.telemetry().expect("telemetry enabled");
        format!(
            "{}{}{{\"kind\":\"final\",\"retries\":{retries}}}\n",
            tel.epochs_jsonl(),
            snap.to_jsonl()
        )
    };
    let doc = run();
    assert_eq!(doc, run(), "two in-process runs must be byte-identical");
    assert!(
        doc.contains("\"name\":\"transfer_aborts_total\""),
        "the recorder must count the aborts:\n{doc}"
    );

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fault_world.jsonl"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &doc).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden snapshot missing; run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        doc, golden,
        "fault-world telemetry drifted from tests/golden/fault_world.jsonl; \
         if the change is intentional, re-bless with UPDATE_GOLDEN=1"
    );
}

#[test]
fn fault_plans_replay_across_seeds_but_differ_between_them() {
    let a = FaultProfile::DegradedWan.plan(Route::UChicago, 31, 1800.0);
    let b = FaultProfile::DegradedWan.plan(Route::UChicago, 31, 1800.0);
    assert_eq!(a, b);
    let c = FaultProfile::DegradedWan.plan(Route::UChicago, 32, 1800.0);
    assert_ne!(a, c);
}

#[test]
fn seed_changes_propagate_to_every_layer() {
    let run = |seed| {
        let cfg = DriveConfig::paper(
            Route::UChicago,
            TunerKind::Cs,
            TuneDims::NcOnly { np: 8 },
            LoadSchedule::constant(ExternalLoad::new(16, 0)),
        )
        .with_duration_s(600.0)
        .with_seed(seed);
        drive_transfer(&cfg).total_mb()
    };
    assert_ne!(run(1), run(2), "seeds must actually matter");
}
