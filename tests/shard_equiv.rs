//! Shard-equivalence harness (DESIGN.md §15): the component-sharded fleet
//! runner must give the same bytes for every shard count, and for one
//! component the same bytes as that component's `FleetSim` stepped on its
//! own, across every output surface.
//!
//! Layers of defence:
//!
//! 1. property tests — random workloads × policies × fault tapes × site
//!    counts, asserting `--shards {2,4,8}` reproduce the `--shards 1`
//!    reference byte-for-byte on the report, CSV, decision audit JSONL,
//!    telemetry JSONL, supervision JSONL, and metrics snapshot, plus the
//!    mid-run checkpoint (whose digest is shard-count independent);
//! 2. single-component workloads must also match a plain `FleetSim`
//!    stepped to the end bit-for-bit (the structural theorem that keeps
//!    every existing golden valid with any shard count), with an empty
//!    history store and with a preloaded one the jobs warm-start from;
//! 3. kill-and-resume across shard counts — checkpoint under `--shards 4`,
//!    resume under a different count, byte-identical final outputs;
//! 4. the on-disk history file must be byte-stable across shard counts
//!    (appends buffered per tick and flushed in job-id order);
//! 5. planet fleets (which `xferopt fleet run --topo` steps through the
//!    sharded runner) match a plain `FleetSim` on every preset, and a
//!    checkpoint written after the run finished resumes under every shard
//!    count.

use proptest::prelude::*;
use xferopt::orchestrator::{
    resume_fleet_sharded, run_fleet_sharded, topo_workload, Checkpoint, FleetConfig, FleetOutcome,
    FleetSim, HistoryRecord, HistoryStore, Policy, ShardedFleetSim, TopoFleetConfig, Workload,
};
use xferopt::scenarios::FaultProfile;
use xferopt::topo::{search_routes, RouteCatalog, SearchConfig};
use xferopt::tuners::TunerKind;

fn cfg(policy: Policy, seed: u64, faults: Option<FaultProfile>) -> FleetConfig {
    FleetConfig {
        policy,
        seed,
        horizon_s: 3600.0,
        faults,
        ..FleetConfig::default()
    }
}

/// One single-component fleet stepped on a plain `FleetSim` that borrows
/// `history`, the way perfbench's fleet-deep and planet-chaos time it.
fn run_plain(wl: &Workload, config: &FleetConfig, history: &mut HistoryStore) -> FleetOutcome {
    let mut sim = FleetSim::new(wl, config, history);
    while sim.tick() {}
    sim.finish()
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

fn policy_strategy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Fifo),
        Just(Policy::Sjf),
        Just(Policy::WeightedFair),
    ]
}

fn fault_strategy() -> impl Strategy<Value = Option<FaultProfile>> {
    prop_oneof![
        Just(None),
        Just(Some(FaultProfile::FlakyLink)),
        Just(Some(FaultProfile::DegradedWan)),
        Just(Some(FaultProfile::LossyTacc)),
    ]
}

proptest! {
    /// The headline harness: random workload + policy + fault tape + site
    /// count; every shard count must reproduce the reference bytes on every
    /// output, and the mid-run checkpoint must be shard-count independent.
    #[test]
    fn sharded_run_is_byte_identical_to_reference(
        jobs in 4usize..12,
        seed in 0u64..1000,
        sites in 1u32..5,
        policy in policy_strategy(),
        faults in fault_strategy(),
    ) {
        let wl = Workload::synthetic_sites(jobs, seed, sites);
        let config = cfg(policy, seed, faults);

        let mut h_ref = HistoryStore::in_memory();
        let reference = run_fleet_sharded(&wl, &config, &mut h_ref, 1);

        // Mid-run checkpoint under the reference execution.
        let ck_ref = {
            let mut h = HistoryStore::in_memory();
            let mut sim = ShardedFleetSim::new(&wl, &config, &mut h, 1);
            for _ in 0..25 { if !sim.tick() { break; } }
            sim.checkpoint()
        };

        for shards in [2usize, 4, 8] {
            let mut h = HistoryStore::in_memory();
            let out = run_fleet_sharded(&wl, &config, &mut h, shards);
            assert_identical(&reference, &out, &format!("shards={shards}"));
            prop_assert_eq!(
                h_ref.records().iter().map(|r| r.to_json()).collect::<Vec<_>>(),
                h.records().iter().map(|r| r.to_json()).collect::<Vec<_>>(),
                "shards={}: history record order", shards
            );

            let ck = {
                let mut h = HistoryStore::in_memory();
                let mut sim = ShardedFleetSim::new(&wl, &config, &mut h, shards);
                for _ in 0..25 { if !sim.tick() { break; } }
                sim.checkpoint()
            };
            prop_assert_eq!(&ck_ref, &ck, "shards={}: checkpoint bytes", shards);
        }
    }

    /// Single-component workloads must match their plain `FleetSim`
    /// bit-for-bit — the invariant that keeps every existing golden
    /// snapshot valid under any `--shards` value.
    #[test]
    fn single_site_sharded_matches_plain_run_fleet(
        jobs in 3usize..10,
        seed in 0u64..1000,
        policy in policy_strategy(),
        faults in fault_strategy(),
        shards in 1usize..9,
    ) {
        let wl = Workload::synthetic(jobs, seed);
        let config = cfg(policy, seed, faults);
        let mut h_plain = HistoryStore::in_memory();
        let plain = run_plain(&wl, &config, &mut h_plain);
        let mut h_shard = HistoryStore::in_memory();
        let sharded = run_fleet_sharded(&wl, &config, &mut h_shard, shards);
        assert_identical(&plain, &sharded, &format!("plain vs shards={shards}"));
    }
}

/// A store preloaded with `n` completed-job records over the classic routes
/// and the tuners `Workload::synthetic` assigns, so most jobs warm-start.
fn preloaded_history(n: usize) -> HistoryStore {
    let tuners = [TunerKind::Cs, TunerKind::Nm, TunerKind::Cd];
    let mut store = HistoryStore::in_memory();
    for i in 0..n {
        let route = if i % 10 < 7 {
            "anl->uchicago"
        } else {
            "anl->tacc"
        };
        let record = HistoryRecord {
            route: route.to_string(),
            tuner: tuners[i % tuners.len()],
            ext_streams: ((i * 37) % 257) as f64,
            cmp_jobs: 0.0,
            best: vec![1 + ((i * 13) % 64) as i64],
            achieved_mbs: 100.0 + ((i * 101) % 1100) as f64,
            scenario: "fleet".to_string(),
        };
        store.append(record).expect("in-memory append cannot fail");
    }
    store
}

/// perfbench's fleet-deep and planet-chaos time a plain `FleetSim` that
/// borrows a preloaded store, but gate its bytes against digests recorded
/// from `run_fleet_sharded(…, 1)`, whose one component warm-starts from a
/// snapshot of the store. With a few hundred records to match, both must
/// produce the same bytes and append the same records.
#[test]
fn plain_fleet_sim_matches_one_shard_on_a_preloaded_history() {
    let wl = Workload::synthetic(24, 5);
    for policy in [Policy::Sjf, Policy::WeightedFair] {
        let config = cfg(policy, 5, None);
        let mut h_plain = preloaded_history(300);
        let plain = run_plain(&wl, &config, &mut h_plain);
        let mut h_shard = preloaded_history(300);
        let sharded = run_fleet_sharded(&wl, &config, &mut h_shard, 1);
        let warm = plain
            .report
            .outcomes
            .iter()
            .filter(|o| o.warm_distance.is_some())
            .count();
        assert!(warm >= 12, "{policy}: only {warm} of 24 jobs warm-started");
        assert!(plain.history_appended > 0, "{policy}: no job completed");
        assert_identical(&plain, &sharded, &format!("{policy}: plain vs one shard"));
        assert_eq!(
            h_plain
                .records()
                .iter()
                .map(|r| r.to_json())
                .collect::<Vec<_>>(),
            h_shard
                .records()
                .iter()
                .map(|r| r.to_json())
                .collect::<Vec<_>>(),
            "{policy}: history records"
        );
    }
}

/// Kill a sharded run mid-flight, checkpoint, and resume with a *different*
/// shard count: the checkpoint digest is taken over per-component state (in
/// workload order, not execution order), so the final outputs must be
/// byte-identical to the uninterrupted reference.
#[test]
fn kill_under_shards_4_resume_under_other_counts() {
    let wl = Workload::synthetic_sites(12, 9, 3);
    let config = cfg(Policy::Sjf, 9, Some(FaultProfile::FlakyLink));

    let mut h_full = HistoryStore::in_memory();
    let full = run_fleet_sharded(&wl, &config, &mut h_full, 1);

    for resume_shards in [1usize, 2, 8] {
        // Simulated crash at tick 37 under --shards 4.
        let mut h = HistoryStore::in_memory();
        let ck_text = {
            let mut sim = ShardedFleetSim::new(&wl, &config, &mut h, 4);
            while sim.tick_index() < 37 {
                assert!(sim.tick(), "run ended before the kill point");
            }
            sim.checkpoint()
        };
        let ck = Checkpoint::parse(&ck_text).expect("checkpoint parses");
        assert_eq!(ck.tick, 37);
        let resumed = resume_fleet_sharded(&ck, &mut h, resume_shards)
            .expect("digest verifies under a different shard count");
        assert_identical(&full, &resumed, &format!("resume shards={resume_shards}"));
        assert_eq!(
            h_full
                .records()
                .iter()
                .map(|r| r.to_json())
                .collect::<Vec<_>>(),
            h.records().iter().map(|r| r.to_json()).collect::<Vec<_>>(),
            "resume shards={resume_shards}: history records"
        );
    }
}

/// Resuming twice onto one history directory, the way a repeated
/// `xferopt fleet resume` does, leaves the file the uninterrupted run
/// writes. The killed run appended past its checkpoint, and so does the
/// first resume; each resume cuts those records before it appends them
/// again.
#[test]
fn resuming_twice_onto_one_history_file_matches_the_uninterrupted_run() {
    let wl = Workload::synthetic_sites(12, 9, 3);
    let config = cfg(Policy::Sjf, 9, Some(FaultProfile::FlakyLink));
    let base = std::env::temp_dir().join(format!("xferopt-resume-hist-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let (full_dir, crash_dir) = (base.join("full"), base.join("crash"));
    let lines = |dir: &std::path::Path| {
        std::fs::read_to_string(dir.join("history.jsonl")).expect("history file written")
    };

    let full = {
        let mut h = HistoryStore::open(&full_dir).expect("open history dir");
        run_fleet_sharded(&wl, &config, &mut h, 1)
    };
    let ck = {
        let mut h = HistoryStore::open(&crash_dir).expect("open history dir");
        let mut sim = ShardedFleetSim::new(&wl, &config, &mut h, 2);
        while sim.tick_index() < 37 {
            assert!(sim.tick(), "run ended before the checkpoint");
        }
        let ck = Checkpoint::parse(&sim.checkpoint()).expect("checkpoint parses");
        while sim.history_appended() == ck.history_appended {
            assert!(sim.tick(), "run appended nothing past the checkpoint");
        }
        ck
    };
    assert!(lines(&crash_dir).lines().count() > ck.history_appended);

    for pass in 1..=2 {
        let mut h = HistoryStore::open(&crash_dir).expect("reopen history dir");
        let resumed = resume_fleet_sharded(&ck, &mut h, 1).expect("resume verifies");
        assert_identical(&full, &resumed, &format!("resume {pass}"));
        assert_eq!(
            lines(&full_dir),
            lines(&crash_dir),
            "resume {pass}: history file"
        );
    }
    std::fs::remove_dir_all(&base).ok();
}

/// Regression for the concurrent-shard history ordering fix: with a
/// file-backed store, the on-disk `history.jsonl` must be byte-identical
/// whether the fleet ran monolithic or sharded — appends are buffered per
/// tick and flushed in job-id order by the runner, never interleaved by
/// worker-thread timing.
#[test]
fn on_disk_history_file_is_byte_stable_across_shard_counts() {
    let wl = Workload::synthetic_sites(12, 7, 4);
    let config = cfg(Policy::Sjf, 7, None);
    let base = std::env::temp_dir().join(format!("xferopt-shard-hist-{}", std::process::id()));

    let mut files = Vec::new();
    for shards in [1usize, 8] {
        let dir = base.join(format!("s{shards}"));
        std::fs::create_dir_all(&dir).expect("create history dir");
        let mut store = HistoryStore::open(&dir).expect("open history store");
        let out = run_fleet_sharded(&wl, &config, &mut store, shards);
        assert!(out.history_appended > 0, "scenario must append history");
        files.push(
            std::fs::read_to_string(dir.join("history.jsonl")).expect("history file written"),
        );
    }
    assert_eq!(files[0], files[1], "on-disk history bytes diverged");
    std::fs::remove_dir_all(&base).ok();
}

/// A planet fleet under the rolling-outage campaign with self-healing on,
/// built the way `xferopt fleet run --topo PRESET --campaign rolling-outage
/// --selfheal` builds it.
fn planet_fleet(preset: &str, jobs: usize) -> (Workload, FleetConfig) {
    let mut tc = TopoFleetConfig::preset(preset);
    tc.campaign = Some("rolling-outage".to_string());
    tc.selfheal = true;
    let planet = tc.planet();
    let search = SearchConfig {
        k: tc.k,
        ..SearchConfig::default()
    };
    let placement = search_routes(&planet, &search).expect("preset planets search cleanly");
    let catalog = RouteCatalog::enumerate(&planet, tc.k).expect("preset planets enumerate");
    let config = FleetConfig {
        seed: 7,
        topo: Some(tc),
        ..FleetConfig::default()
    };
    (topo_workload(&placement, &catalog, jobs), config)
}

/// Planet fleets take the sharded path from the CLI, so the sharded
/// runner on two workers must reproduce a plain `FleetSim`'s bytes on
/// every preset. Every preset's routes share links, so each planet fleet is
/// one component and this pins the single-component passthrough.
#[test]
fn planet_fleets_sharded_match_plain_run_fleet() {
    for preset in ["mesh", "hub-spoke", "asymmetric"] {
        let (wl, config) = planet_fleet(preset, 5);
        let plain = run_plain(&wl, &config, &mut HistoryStore::in_memory());
        let sharded = run_fleet_sharded(&wl, &config, &mut HistoryStore::in_memory(), 2);
        assert_identical(&plain, &sharded, &format!("{preset}: plain vs shards=2"));
    }
}

/// Regression: a checkpoint written after the run finished (a
/// `--stop-at-tick` beyond the end) must resume. The closing tick still
/// admits, requeues and re-routes before it ends the run, so the replay has
/// to run it too or the digest cannot match.
#[test]
fn checkpoint_after_the_run_finished_resumes_on_every_path() {
    let classic = (
        Workload::synthetic(40, 7),
        FleetConfig {
            seed: 7,
            horizon_s: 300.0,
            ..FleetConfig::default()
        },
    );
    for (what, (wl, config)) in [("classic", classic), ("mesh", planet_fleet("mesh", 2))] {
        let full = run_fleet_sharded(&wl, &config, &mut HistoryStore::in_memory(), 1);
        // One tick at a time on one worker, then in batches on each count.
        let mut h = HistoryStore::in_memory();
        let first_ck = {
            let mut sim = ShardedFleetSim::new(&wl, &config, &mut h, 1);
            while sim.tick() {}
            sim.checkpoint()
        };
        for writer_shards in [1usize, 2] {
            let mut h = HistoryStore::in_memory();
            let mut sim = ShardedFleetSim::new(&wl, &config, &mut h, writer_shards);
            while sim.run_ticks(1024) > 0 {}
            let text = sim.checkpoint();
            assert_eq!(
                first_ck, text,
                "{what}: checkpoint bytes, shards={writer_shards}"
            );
        }
        assert!(
            first_ck.contains("\"done\":true"),
            "{what}: finished run not marked"
        );
        let ck = Checkpoint::parse(&first_ck).expect("checkpoint parses");
        assert!(ck.done);
        for shards in [1usize, 2] {
            let resumed = resume_fleet_sharded(&ck, &mut HistoryStore::in_memory(), shards)
                .unwrap_or_else(|e| panic!("{what}: sharded resume: {e}"));
            assert_identical(&full, &resumed, &format!("{what}: resume shards={shards}"));
        }
    }
}
