//! Fleet-scaling benchmark: the single-site monolith at growing queue
//! depth, and component-sharded execution beside it (DESIGN.md §11, §15).
//!
//! The workload is [`Workload::fleet_scale`]: `n` long-running jobs, 90 %
//! preloaded and the rest arriving one per tick, so the admission queue
//! stays deep for the whole measured window. Each arrival dirties the
//! admission pass, so every measured tick runs one policy pick. The
//! indexed admission queue makes that pick `O(log n)`, so the monolith's
//! tick rate should barely depend on `n`: the gated figure
//! `monolith_10k_vs_1k` (10k-job ticks/s over 1k-job ticks/s) must stay at
//! least 0.5, and it falls far below that if admission goes back to a scan
//! of the whole queue.
//!
//! The sharded row spreads the same `n` jobs over 8 independent sites and
//! ticks the 8 link-sharing components on scoped worker threads
//! (`--shards 8`); `speedup` is its ticks/s over the monolith's. That
//! divides two different workloads (eight shallow queues against one deep
//! one), so it is reported, not gated.
//!
//! The like-for-like thread row runs that same 8-site workload, batched, on
//! 1 worker and on 2 workers: the only difference is the thread count, so it
//! isolates what the scoped shard threads buy on this machine (the core
//! count is recorded beside it).
//!
//! Every run has a warmup prefix excluded from timing. Writes
//! `BENCH_fleet.json` into the current directory.
//!
//! Usage: `fleet [--quick]` — `--quick` drops the 100k-job size for the CI
//! smoke gate (both modes measure the gated 1k- and 10k-job points).

use std::fmt::Write as _;
use std::time::Instant;

use xferopt_orchestrator::{
    FleetConfig, FleetSim, HistoryStore, Policy, ShardedFleetSim, Workload,
};

fn cfg() -> FleetConfig {
    FleetConfig {
        policy: Policy::Sjf,
        seed: 11,
        horizon_s: 1e7,
        warm_start: false,
        // Tight stream budget: the deep-queue, admission-bound regime that
        // 100k-job fleets actually run in (almost every job is waiting, a
        // handful are on the wire per site).
        link_budget: 64,
        ..FleetConfig::default()
    }
}

/// Tick `sim`-like closures: `warmup` untimed ticks, then `measure` timed
/// ones. Returns ticks/s over the measured window.
fn drive(mut tick: impl FnMut() -> bool, warmup: u64, measure: u64) -> f64 {
    for _ in 0..warmup {
        assert!(tick(), "fleet ended during warmup");
    }
    let t0 = Instant::now();
    for _ in 0..measure {
        assert!(tick(), "fleet ended during measurement");
    }
    measure as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// Like [`drive`], but advances the sharded runner in 64-tick batches.
fn drive_batched(sim: &mut ShardedFleetSim<'_>, warmup: u64, measure: u64) -> f64 {
    let step = |sim: &mut ShardedFleetSim<'_>, mut left: u64| {
        while left > 0 {
            let a = sim.run_ticks(left.min(64));
            assert!(a > 0, "fleet ended during bench window");
            left -= a;
        }
    };
    step(sim, warmup);
    let t0 = Instant::now();
    step(sim, measure);
    measure as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

struct Row {
    jobs: usize,
    monolith_tps: f64,
    sharded_tps: f64,
    speedup: f64,
    /// The 8-site workload, batched, on 1 and on 2 worker threads.
    workers1_tps: f64,
    workers2_tps: f64,
}

/// Best-of-[`REPS`] ticks/s of the 8-site workload, batched, on `shards`
/// worker threads.
fn sharded_tps(jobs: usize, shards: usize, warmup: u64, measure: u64) -> f64 {
    let config = cfg();
    let mut best = 0f64;
    for _ in 0..REPS {
        let workload = Workload::fleet_scale(jobs, 8);
        let mut history = HistoryStore::in_memory();
        let mut sim = ShardedFleetSim::new(&workload, &config, &mut history, shards);
        best = best.max(drive_batched(&mut sim, warmup, measure));
    }
    best
}

/// Best-of-N repetitions, each on a fresh sim: scheduler noise only ever
/// slows a rep down, so the max is the stable estimate of real capacity.
const REPS: usize = 3;

/// Best-of-[`MONOLITH_REPS`] ticks/s of the single-site monolith (every job
/// on one site, plain single-threaded path) at each size. Each repetition
/// runs every size in turn, so a burst of machine noise cannot land on one
/// side of the gated ratio alone.
fn monolith_tps(sizes: &[usize], warmup: u64, measure: u64) -> Vec<f64> {
    let config = cfg();
    let mut best = vec![0f64; sizes.len()];
    for _ in 0..MONOLITH_REPS {
        for (b, &jobs) in best.iter_mut().zip(sizes) {
            let workload = Workload::fleet_scale(jobs, 1);
            let mut history = HistoryStore::in_memory();
            let mut sim = FleetSim::new(&workload, &config, &mut history);
            *b = b.max(drive(|| sim.tick(), warmup, measure));
        }
    }
    best
}

/// The gated monolith runs take milliseconds each, so they afford more
/// repetitions than the sharded rows.
const MONOLITH_REPS: usize = 7;

fn bench_size(jobs: usize, monolith_tps: f64, warmup: u64, measure: u64) -> Row {
    // Sharded: same jobs over 8 sites, 8 worker threads, batched ticks (one
    // set of scoped threads per 64 ticks — start-up amortized, bytes
    // unchanged).
    let sharded = sharded_tps(jobs, 8, warmup, measure);

    Row {
        jobs,
        monolith_tps,
        sharded_tps: sharded,
        speedup: sharded / monolith_tps,
        workers1_tps: sharded_tps(jobs, 1, warmup, measure),
        workers2_tps: sharded_tps(jobs, 2, warmup, measure),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mode = if quick { "quick" } else { "full" };
    eprintln!("fleet bench ({mode}): single-site monolith by queue depth, and 8 sites x 8 shards");

    let sizes: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    // A window of a few milliseconds: shorter ones put the gated ratio at
    // the mercy of scheduler noise on a shared machine.
    let (warmup, measure) = (50, 2000);

    let monolith = monolith_tps(sizes, warmup, measure);
    let mut rows = Vec::new();
    for (&jobs, &tps) in sizes.iter().zip(&monolith) {
        let r = bench_size(jobs, tps, warmup, measure);
        eprintln!(
            "  {} jobs: monolith {:.0} ticks/s, sharded {:.0} ticks/s, speedup {:.2}x; \
             8 sites on 1/2 workers {:.0}/{:.0} ticks/s",
            r.jobs, r.monolith_tps, r.sharded_tps, r.speedup, r.workers1_tps, r.workers2_tps
        );
        rows.push(r);
    }
    let monolith_tps = |jobs: usize| {
        rows.iter()
            .find(|r| r.jobs == jobs)
            .map(|r| r.monolith_tps)
            .expect("1k and 10k points always measured")
    };
    let depth_ratio = monolith_tps(10_000) / monolith_tps(1_000);

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"fleet\",");
    let _ = writeln!(json, "  \"mode\": \"{mode}\",");
    let _ = writeln!(json, "  \"sites\": 8,");
    let _ = writeln!(json, "  \"shards\": 8,");
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"warmup_ticks\": {warmup},");
    let _ = writeln!(json, "  \"measure_ticks\": {measure},");
    json.push_str("  \"sizes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"jobs\": {}, \"monolith_ticks_per_s\": {:.1}, \
             \"sharded8_ticks_per_s\": {:.1}, \"speedup\": {:.2}, \
             \"workers1_ticks_per_s\": {:.1}, \"workers2_ticks_per_s\": {:.1}, \
             \"workers2_speedup\": {:.2}}}{}",
            r.jobs,
            r.monolith_tps,
            r.sharded_tps,
            r.speedup,
            r.workers1_tps,
            r.workers2_tps,
            r.workers2_tps / r.workers1_tps,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"monolith_10k_vs_1k\": {depth_ratio:.2}");
    json.push_str("}\n");
    std::fs::write("BENCH_fleet.json", &json).expect("cannot write BENCH_fleet.json");
    println!("wrote BENCH_fleet.json (10k-job vs 1k-job monolith ticks/s: {depth_ratio:.2})");

    assert!(
        depth_ratio >= 0.5,
        "admission scales with queue depth again: 10k-job monolith runs at \
         {depth_ratio:.2}x the 1k-job tick rate (< 0.5)"
    );
}
