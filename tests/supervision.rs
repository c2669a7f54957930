//! Workspace-level supervision tests (DESIGN.md §12): chaos determinism,
//! the no-job-lost guarantee under every fleet fault preset, kill/resume
//! byte-equivalence, the golden chaos snapshot, and the history store's
//! malformed-line accounting.
//!
//! Golden files live in `tests/golden/fleet/`; re-bless intentional format
//! changes with `UPDATE_GOLDEN=1 cargo test --test supervision`.

use xferopt::orchestrator::{
    resume_fleet_sharded, run_fleet_sharded, Checkpoint, FleetConfig, HistoryStore, JobSpec,
    JobState, Policy, ShardedFleetSim, Workload,
};
use xferopt::scenarios::FaultProfile;

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

/// The fixed chaos scenario behind the golden snapshot: four long transfers
/// on the shared UChicago route under the flaky-link fleet preset, long
/// enough that the plan's multi-epoch outages land mid-run.
fn chaos_cfg() -> FleetConfig {
    FleetConfig {
        policy: Policy::Fifo,
        seed: 7,
        horizon_s: 7200.0,
        faults: Some(FaultProfile::FlakyLink),
        ..FleetConfig::default()
    }
}

fn chaos_workload() -> Workload {
    Workload::new(
        (0..4)
            .map(|i| JobSpec::new(i, i as f64 * 60.0, 2_000_000.0))
            .collect(),
    )
}

#[test]
fn golden_chaos_report_matches_snapshot() {
    let out = run_fleet_sharded(
        &chaos_workload(),
        &chaos_cfg(),
        &mut HistoryStore::in_memory(),
        1,
    );
    assert!(
        out.report.supervision.quarantines > 0,
        "golden chaos scenario must exercise the watchdog:\n{}",
        out.report.render()
    );
    check_golden(
        "tests/golden/fleet/chaos_report.txt",
        &out.report.render(),
        "chaos fleet report",
    );
}

#[test]
fn ten_job_chaos_runs_are_byte_deterministic() {
    // Same seed + same fault plan ⇒ byte-identical everything, for every
    // preset (the fleet is a pure function of its inputs even under chaos).
    let w = Workload::synthetic(10, 7);
    for profile in FaultProfile::ALL {
        let cfg = FleetConfig {
            faults: Some(profile),
            ..chaos_cfg()
        };
        let a = run_fleet_sharded(&w, &cfg, &mut HistoryStore::in_memory(), 1);
        let b = run_fleet_sharded(&w, &cfg, &mut HistoryStore::in_memory(), 1);
        assert_eq!(a.report.render(), b.report.render(), "{profile}");
        assert_eq!(a.report.to_csv(), b.report.to_csv(), "{profile}");
        assert_eq!(a.decisions_jsonl, b.decisions_jsonl, "{profile}");
        assert_eq!(a.telemetry_jsonl, b.telemetry_jsonl, "{profile}");
        assert_eq!(a.supervision_jsonl, b.supervision_jsonl, "{profile}");
        assert_eq!(a.metrics_jsonl, b.metrics_jsonl, "{profile}");
    }
}

#[test]
fn no_job_is_lost_under_any_fleet_fault_preset() {
    // Every admitted job must end terminal — Completed, or Failed with its
    // attempt budget exhausted. Nothing may stay stuck in quarantine or in
    // the queue once the run drains (generous horizon).
    for profile in FaultProfile::ALL {
        let cfg = FleetConfig {
            horizon_s: 4.0 * 3600.0,
            faults: Some(profile),
            ..chaos_cfg()
        };
        let out = run_fleet_sharded(&chaos_workload(), &cfg, &mut HistoryStore::in_memory(), 1);
        for o in &out.report.outcomes {
            assert!(
                matches!(o.state, JobState::Completed | JobState::Failed),
                "{profile}: {} ended {} — job lost:\n{}",
                o.id,
                o.state.name(),
                out.report.render()
            );
        }
        // Supervision bookkeeping is coherent: every quarantine is matched
        // by a requeue or a terminal failure.
        let s = out.report.supervision;
        assert!(
            s.quarantines >= s.requeues,
            "{profile}: {} requeues but only {} quarantines",
            s.requeues,
            s.quarantines
        );
        assert_eq!(
            s.failed,
            out.report.count(JobState::Failed) as u64,
            "{profile}: failed counter must match failed outcomes"
        );
    }
}

#[test]
fn kill_at_any_tick_then_resume_is_byte_identical() {
    // The crash/resume contract: for several kill points k, serializing a
    // checkpoint at tick k and resuming from it reproduces the uninterrupted
    // run byte for byte — reports, audit logs, telemetry, supervision.
    let cfg = chaos_cfg();
    let w = chaos_workload();
    let full = run_fleet_sharded(&w, &cfg, &mut HistoryStore::in_memory(), 1);
    for k in [1u64, 17, 60, 240] {
        let text = {
            let mut h = HistoryStore::in_memory();
            let mut sim = ShardedFleetSim::new(&w, &cfg, &mut h, 1);
            while sim.tick_index() < k {
                assert!(sim.tick(), "run ended before kill tick {k}");
            }
            sim.checkpoint()
        };
        let ck = Checkpoint::parse(&text).unwrap_or_else(|e| panic!("tick {k}: {e}"));
        assert_eq!(ck.tick, k);
        let resumed = resume_fleet_sharded(&ck, &mut HistoryStore::in_memory(), 1)
            .unwrap_or_else(|e| panic!("tick {k}: {e}"));
        assert_eq!(full.report.render(), resumed.report.render(), "tick {k}");
        assert_eq!(full.decisions_jsonl, resumed.decisions_jsonl, "tick {k}");
        assert_eq!(full.telemetry_jsonl, resumed.telemetry_jsonl, "tick {k}");
        assert_eq!(
            full.supervision_jsonl, resumed.supervision_jsonl,
            "tick {k}"
        );
        assert_eq!(full.metrics_jsonl, resumed.metrics_jsonl, "tick {k}");
    }
}

#[test]
fn resume_refuses_a_checkpoint_from_a_different_run() {
    // Checkpoint from the chaos run, but doctored to claim a different seed:
    // the replay's digest cannot match and resume must refuse.
    let mut h = HistoryStore::in_memory();
    let mut sim = ShardedFleetSim::new(&chaos_workload(), &chaos_cfg(), &mut h, 1);
    for _ in 0..40 {
        assert!(sim.tick());
    }
    let text = sim.checkpoint().replace("\"seed\":7", "\"seed\":8");
    // First line of defense: the content hash over the serialized inputs
    // catches the edit at parse time.
    let err = Checkpoint::parse(&text).expect_err("content hash must catch the edit");
    assert!(err.contains("text corrupted"), "{err}");
    // A doctored pre-journal checkpoint (no content hash) parses, but the
    // replay digest still refuses it.
    let stripped = text
        .lines()
        .map(|l| match l.find(",\"text_fnv\"") {
            Some(cut) => format!("{}}}", &l[..cut]),
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n");
    let ck = Checkpoint::parse(&stripped).expect("still parses without the hash");
    let err = resume_fleet_sharded(&ck, &mut HistoryStore::in_memory(), 1)
        .expect_err("digest must not match a different seed");
    assert!(err.contains("digest mismatch"), "{err}");
}

#[test]
fn supervision_is_observational_by_default() {
    // With supervision compiled in but no fault plan, a fleet run reports
    // exactly what it did before supervision existed: no supervision line,
    // no events, no metrics (the golden fleet snapshot enforces the bytes).
    let cfg = FleetConfig {
        policy: Policy::Sjf,
        seed: 7,
        horizon_s: 3600.0,
        ..FleetConfig::default()
    };
    let out = run_fleet_sharded(
        &Workload::synthetic(12, 7),
        &cfg,
        &mut HistoryStore::in_memory(),
        1,
    );
    assert!(out.report.supervision.is_quiet());
    assert!(out.supervision_jsonl.is_empty());
    assert!(out.metrics_jsonl.is_empty());
    assert!(!out.report.render().contains("supervision"));
}

#[test]
fn history_store_counts_malformed_lines_and_surfaces_a_metric() {
    // A three-site flaky-link fleet over a store with two malformed lines:
    // every component works on a snapshot of that store, and the
    // supervision counters come from events in several components, so the
    // metrics must not depend on how the components are sharded.
    let workload = Workload::new(
        (0..6)
            .map(|i| JobSpec::new(i, (i / 3) as f64 * 60.0, 1_200_000.0).with_site(i as u32 % 3))
            .collect(),
    );
    let cfg = FleetConfig {
        horizon_s: 2.0 * 3600.0,
        ..chaos_cfg()
    };
    let run = |shards: usize| {
        let dir =
            std::env::temp_dir().join(format!("xferopt-sup-hist-{}-{shards}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create dir");
        std::fs::write(
            dir.join("history.jsonl"),
            "{\"kind\":\"history\",\"route\":\"anl->uchicago\",\"tuner\":\"cs-tuner\",\
             \"ext_streams\":0,\"cmp_jobs\":0,\"best\":[8],\"achieved_mbs\":3000}\n\
             this line is garbage\n\
             {\"kind\":\"history\",\"route\":\"mars\"}\n",
        )
        .expect("seed history file");
        let mut h = HistoryStore::open(&dir).expect("open");
        assert_eq!(h.len(), 1, "one valid record");
        assert_eq!(h.skipped(), 2, "two malformed lines counted");
        let out = run_fleet_sharded(&workload, &cfg, &mut h, shards);
        std::fs::remove_dir_all(&dir).expect("cleanup");
        out.metrics_jsonl
    };
    let one = run(1);
    assert_eq!(one, run(4), "metrics must not depend on the shard count");
    let skipped: Vec<&str> = one
        .lines()
        .filter(|l| l.contains("\"name\":\"history_lines_skipped\""))
        .collect();
    assert_eq!(skipped.len(), 1, "one skipped-lines gauge:\n{one}");
    assert!(skipped[0].ends_with("\"value\":2}"), "{}", skipped[0]);
    assert!(
        one.contains("\"name\":\"fleet_supervision_total\""),
        "the flaky links must raise supervision events:\n{one}"
    );
}

/// Component partitioning under supervision (DESIGN.md §15): fault-plan link
/// outages, breaker trips, and quarantine requeues all happen *inside* a
/// job's link-sharing component, so a multi-site chaos run must (a) keep
/// every job accounted for, (b) conserve moved bytes across shard counts,
/// and (c) produce byte-identical reports however many workers tick it.
#[test]
fn multi_site_chaos_conserves_jobs_and_bytes_across_shard_counts() {
    use xferopt::orchestrator::{run_fleet_sharded, ShardPlan};

    // Three sites, long transfers, flaky-link chaos: the fault plan fires
    // independently per site world, so breaker trips and quarantines land in
    // several components.
    let workload = Workload::new(
        (0..9)
            .map(|i| JobSpec::new(i, (i / 3) as f64 * 60.0, 1_200_000.0).with_site(i as u32 % 3))
            .collect(),
    );
    let cfg = FleetConfig {
        horizon_s: 4.0 * 3600.0,
        ..chaos_cfg()
    };

    let plan = ShardPlan::compute(&workload);
    assert_eq!(plan.len(), 3, "three sites give three components");

    let mut h = HistoryStore::in_memory();
    let reference = run_fleet_sharded(&workload, &cfg, &mut h, 1);

    // (a) no job lost: every submitted job has exactly one terminal outcome.
    assert_eq!(reference.report.outcomes.len(), 9);
    let mut ids: Vec<u64> = reference.report.outcomes.iter().map(|o| o.id.0).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..9).collect::<Vec<_>>(), "job ids must be complete");
    for o in &reference.report.outcomes {
        assert!(
            matches!(o.state, JobState::Completed | JobState::Failed),
            "{} ended {} — job lost:\n{}",
            o.id,
            o.state.name(),
            reference.report.render()
        );
    }
    // The chaos actually exercised supervision (else this test is vacuous).
    assert!(
        !reference.report.supervision.is_quiet(),
        "flaky-link chaos must trip supervision:\n{}",
        reference.report.render()
    );

    // (b)+(c) byte conservation and report identity for every shard count.
    for shards in [2usize, 4, 8] {
        let mut h = HistoryStore::in_memory();
        let out = run_fleet_sharded(&workload, &cfg, &mut h, shards);
        assert_eq!(
            reference.report.render(),
            out.report.render(),
            "shards={shards}: chaos report diverged"
        );
        assert_eq!(
            reference.report.total_moved_mb(),
            out.report.total_moved_mb(),
            "shards={shards}: moved bytes diverged"
        );
        assert_eq!(
            reference.supervision_jsonl, out.supervision_jsonl,
            "shards={shards}: supervision events diverged"
        );
    }
}

/// A breaker trip or quarantine must never move a job *between* components:
/// the shard plan is a pure function of the workload (routes and sites), so
/// the same job set maps to the same component before and after any
/// supervision event — requeues re-enter their own component's queue.
#[test]
fn shard_plan_is_stable_under_supervision_events() {
    use xferopt::orchestrator::ShardPlan;

    let workload = Workload::new(
        (0..6)
            .map(|i| JobSpec::new(i, 0.0, 800_000.0).with_site(i as u32 % 2))
            .collect(),
    );
    let before = ShardPlan::compute(&workload);
    // Recompute after a chaos run: membership depends only on the workload.
    let cfg = FleetConfig {
        horizon_s: 2.0 * 3600.0,
        ..chaos_cfg()
    };
    let _ = xferopt::orchestrator::run_fleet_sharded(
        &workload,
        &cfg,
        &mut HistoryStore::in_memory(),
        4,
    );
    let after = ShardPlan::compute(&workload);
    assert_eq!(before.len(), after.len());
    for (a, b) in before.components().iter().zip(after.components()) {
        let aj: Vec<u64> = a.jobs().iter().map(|j| j.id.0).collect();
        let bj: Vec<u64> = b.jobs().iter().map(|j| j.id.0).collect();
        assert_eq!(aj, bj, "component membership drifted");
    }
}

/// The self-healing mesh fleet behind the lifecycle goldens: 120 jobs under
/// the `flapping-links` campaign with multipath 2 and the governor on, built
/// exactly as `xferopt fleet run --topo mesh --jobs 120 --seed 7 --campaign
/// flapping-links --selfheal --multipath 2 --horizon H` builds it.
fn lifecycle_fleet(horizon_s: f64) -> (Workload, FleetConfig) {
    use xferopt::orchestrator::{topo_workload, TopoFleetConfig};
    use xferopt::topo::{search_routes, RouteCatalog, SearchConfig};

    let mut tc = TopoFleetConfig::preset("mesh");
    tc.campaign = Some("flapping-links".to_string());
    tc.multipath = 2;
    tc.selfheal = true;
    let planet = tc.planet();
    let search = SearchConfig {
        k: tc.k,
        ..SearchConfig::default()
    };
    let placement = search_routes(&planet, &search).expect("mesh searches cleanly");
    let catalog = RouteCatalog::enumerate(&planet, tc.k).expect("mesh catalog");
    let workload = topo_workload(&placement, &catalog, 120);
    let cfg = FleetConfig {
        seed: 7,
        horizon_s,
        topo: Some(tc),
        ..FleetConfig::default()
    };
    (workload, cfg)
}

/// Pins every job-lifecycle path a quiet or classic fleet never takes:
/// quarantine and requeue of multipath jobs, breaker-aware re-routes, replan
/// migrations, sheds, brownouts, attempt exhaustion, and (at the shorter
/// horizon) unfinished, quarantined and requeued jobs at the cut-off. The
/// golden holds the report and supervision JSONL verbatim, FNV hashes of the
/// decisions, telemetry and metrics JSONL, and the state digest hash every
/// 100 ticks (the value a checkpoint at that tick records).
#[test]
fn golden_lifecycle_paths_match_snapshot() {
    use xferopt::orchestrator::checkpoint::fnv1a;
    use xferopt::orchestrator::ShardedFleetSim;

    for (horizon_s, name) in [(7200.0, "lifecycle_7200"), (1800.0, "lifecycle_1800")] {
        let (workload, cfg) = lifecycle_fleet(horizon_s);
        let mut h = HistoryStore::in_memory();
        let mut sim = ShardedFleetSim::new(&workload, &cfg, &mut h, 1);
        let mut digests = String::new();
        while sim.tick() {
            if sim.tick_index().is_multiple_of(100) {
                digests.push_str(&format!(
                    "tick {} digest {:016x}\n",
                    sim.tick_index(),
                    sim.digest_hash()
                ));
            }
        }
        let out = sim.finish();
        // The long run drains (attempt exhaustion shows up); the short one
        // leaves running and queued jobs at the horizon.
        let s = out.report.supervision;
        let ends = if horizon_s > 7000.0 {
            s.failed > 0
        } else {
            out.report.count(JobState::Unfinished) > 0 && out.report.count(JobState::Queued) > 0
        };
        assert!(
            ends && s.quarantines > 0
                && s.requeues > 0
                && s.reroutes > 0
                && s.replans > 0
                && s.shed > 0
                && s.brownouts > 0,
            "{name}: every lifecycle path must be exercised:\n{}",
            out.report.render()
        );
        let snapshot = format!(
            "{}decisions_fnv {:016x}\ntelemetry_fnv {:016x}\nmetrics_fnv {:016x}\n{digests}--- supervision\n{}",
            out.report.render(),
            fnv1a(&out.decisions_jsonl),
            fnv1a(&out.telemetry_jsonl),
            fnv1a(&out.metrics_jsonl),
            out.supervision_jsonl,
        );
        check_golden(
            &format!("tests/golden/fleet/{name}.txt"),
            &snapshot,
            "lifecycle fleet snapshot",
        );
    }
}
