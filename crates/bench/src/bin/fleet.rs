//! Fleet-scaling benchmark: component-sharded execution vs the single-site
//! monolith (DESIGN.md §15, ROADMAP item 1).
//!
//! The workload is [`Workload::fleet_scale`]: `n` long-running jobs, half
//! preloaded and half arriving one per tick, so the admission queue stays
//! deep for the whole measured window — the regime where the monolith's
//! per-tick cost is dominated by re-scanning one giant queue. The sharded
//! run spreads the same `n` jobs over 8 independent sites and ticks the 8
//! link-sharing components on scoped worker threads (`--shards 8`): each arrival
//! dirties only its own component's admission pass, so per-tick work drops
//! to roughly `1/sites` of the monolith's even on a single core.
//!
//! The like-for-like thread row runs that same 8-site workload, batched, on
//! 1 worker and on 2 workers: the only difference is the thread count, so it
//! isolates what the scoped shard threads buy on this machine (the core
//! count is recorded beside it).
//!
//! Every run has a warmup prefix excluded from timing. Writes
//! `BENCH_fleet.json` into the current directory.
//!
//! Usage: `fleet [--quick]` — `--quick` shrinks sizes and windows for the
//! CI smoke gate (both modes measure the gated 10k-job point).

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

fn bench_size(jobs: usize, warmup: u64, measure: u64) -> Row {
    let config = cfg();

    // Monolith reference: every job on one site, plain single-threaded path.
    let mut monolith_tps = 0f64;
    for _ in 0..REPS {
        let workload = Workload::fleet_scale(jobs, 1);
        let mut history = HistoryStore::in_memory();
        let mut sim = FleetSim::new(&workload, &config, &mut history);
        monolith_tps = monolith_tps.max(drive(|| sim.tick(), warmup, measure));
    }

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
    eprintln!("fleet bench ({mode}): sharded (8 sites x 8 shards) vs single-site monolith");

    let sizes: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let (warmup, measure) = if quick { (20, 120) } else { (50, 400) };

    let mut rows = Vec::new();
    for &jobs in sizes {
        let r = bench_size(jobs, warmup, measure);
        eprintln!(
            "  {} jobs: monolith {:.0} ticks/s, sharded {:.0} ticks/s, speedup {:.2}x; \
             8 sites on 1/2 workers {:.0}/{:.0} ticks/s",
            r.jobs, r.monolith_tps, r.sharded_tps, r.speedup, r.workers1_tps, r.workers2_tps
        );
        rows.push(r);
    }
    let speedup_10k = rows
        .iter()
        .find(|r| r.jobs == 10_000)
        .map(|r| r.speedup)
        .expect("10k point always measured");

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
    let _ = writeln!(json, "  \"fleet_10k_shard8_speedup\": {speedup_10k:.2}");
    json.push_str("}\n");
    std::fs::write("BENCH_fleet.json", &json).expect("cannot write BENCH_fleet.json");
    println!("wrote BENCH_fleet.json (10k-job sharded speedup: {speedup_10k:.1}x)");

    assert!(
        speedup_10k >= 2.0,
        "scaling regression: 10k-job 8-shard speedup {speedup_10k:.2}x < 2x"
    );
}
