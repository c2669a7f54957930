//! Timing-ratio gates. Each test times two variants of the same work on
//! this machine and asserts their ratio, so the gates hold on any core
//! count but only mean something in an optimised build. They are ignored by
//! default; `scripts/ci.sh` runs them in release, one at a time:
//!
//! ```text
//! cargo test -q --release --test perf_gates -- --ignored --test-threads 1 --nocapture
//! ```
//!
//! The work counts behind each ratio (one solve per fleet tick, one
//! component solve per churn round against 32 under full invalidation) are
//! asserted deterministically in `tests/alloc_engine.rs`.

mod common;

use std::hint::black_box;
use std::time::Instant;

use common::Churn;
use xferopt::net::{CongestionControl, FlowId, Link, Network, Path};
use xferopt::orchestrator::{FleetConfig, FleetSim, HistoryStore, Policy, Workload};

/// Seconds `f` takes, floored at 1 ns.
fn time(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64().max(1e-9)
}

/// `flows` flow groups over `links` links: link 0 is the shared NIC, and
/// path `i` crosses the NIC plus WAN link `1 + (i mod (links-1))` (or just
/// the NIC when there is a single link).
fn star(flows: usize, links: usize) -> (Network, Vec<FlowId>) {
    let mut net = Network::new();
    let mut lids = Vec::new();
    for l in 0..links {
        let cap = if l == 0 { 5000.0 } else { 2500.0 };
        lids.push(net.add_link(Link::new(format!("l{l}"), cap).with_half_streams(16.0)));
    }
    let mut pids = Vec::new();
    for p in 0..links.max(2) - 1 {
        let route = if links == 1 {
            vec![lids[0]]
        } else {
            vec![lids[0], lids[1 + (p % (links - 1))]]
        };
        pids.push(
            net.add_path(
                Path::new(format!("p{p}"), route)
                    .with_rtt_ms(2.0 + p as f64)
                    .with_loss(1e-5),
            ),
        );
    }
    let fids = (0..flows)
        .map(|f| {
            net.add_flow(
                pids[f % pids.len()],
                1 + (f % 32) as u32,
                CongestionControl::HTcp,
            )
        })
        .collect();
    (net, fids)
}

/// Each epoch mutates one flow's stream count and then reads every flow's
/// rate: the observe-per-epoch pattern. The cached engine pays one solve
/// per epoch; [`Network::allocate_uncached`], the pre-cache path, pays one
/// full solve per read. Per-read rates, minimum over the 100-flow cells
/// (1, 8 and 64 links), must differ by at least 5×.
#[test]
#[ignore = "timing gate: run in release by scripts/ci.sh"]
fn cached_repeated_reads_are_at_least_5x_faster_than_uncached_at_100_flows() {
    const FLOWS: usize = 100;
    const EPOCHS: usize = 10;
    const EPOCHS_UNCACHED: usize = 2;
    let mut worst = f64::INFINITY;
    for links in [1, 8, 64] {
        let (mut net, fids) = star(FLOWS, links);
        let cached_s = time(|| {
            for e in 0..EPOCHS {
                net.set_streams(fids[e % FLOWS], 1 + ((e * 7) % 64) as u32);
                black_box(fids.iter().map(|&id| net.flow_rate(id)).sum::<f64>());
            }
        });
        let (mut net, fids) = star(FLOWS, links);
        let uncached_s = time(|| {
            for e in 0..EPOCHS_UNCACHED {
                net.set_streams(fids[e % FLOWS], 1 + ((e * 7) % 64) as u32);
                black_box(
                    fids.iter()
                        .map(|id| net.allocate_uncached()[id])
                        .sum::<f64>(),
                );
            }
        });
        let speedup = (EPOCHS as f64 / cached_s) / (EPOCHS_UNCACHED as f64 / uncached_s);
        println!("repeated read {FLOWS} flows x {links} links: {speedup:.1}x");
        worst = worst.min(speedup);
    }
    assert!(
        worst >= 5.0,
        "100-flow repeated-read speedup {worst:.2}x < 5x"
    );
}

/// The churn tape at 1000 flows × 64 links: component-scoped re-solves
/// against `invalidate_all` before every read. Rounds per second must
/// differ by at least 5×.
#[test]
#[ignore = "timing gate: run in release by scripts/ci.sh"]
fn churn_partial_re_solve_is_at_least_5x_faster_than_full_at_1000x64() {
    const ROUNDS: usize = 40;
    const ROUNDS_FULL: usize = 10;
    let mut partial = Churn::new(1000, 64);
    let mut full = Churn::new(1000, 64);
    // Warm both: partition built, every component solved.
    black_box(partial.net.component_count());
    black_box(full.net.component_count());
    let partial_s = time(|| {
        for r in 0..ROUNDS {
            black_box(partial.round(r, false));
        }
    });
    let full_s = time(|| {
        for r in 0..ROUNDS_FULL {
            black_box(full.round(r, true));
        }
    });
    let speedup = (ROUNDS as f64 / partial_s) / (ROUNDS_FULL as f64 / full_s);
    println!("churn 1000 flows x 64 links: partial {speedup:.1}x faster than full");
    assert!(
        speedup >= 5.0,
        "1000x64 churn partial-re-solve speedup {speedup:.2}x < 5x"
    );
}

/// The single-site fleet at two queue depths ([`Workload::fleet_scale`]:
/// 90% of the jobs queued at t = 0, one arrival per tick). Each measured
/// tick runs one policy pick, which the indexed admission queue makes
/// `O(log n)`, so the 10k-job tick rate must stay at least half the 1k-job
/// rate; a scan of the whole queue puts it far below. Best of 7
/// repetitions, each running both sizes in turn, so a burst of machine noise
/// cannot land on one side of the ratio alone.
#[test]
#[ignore = "timing gate: run in release by scripts/ci.sh"]
fn monolith_10k_job_tick_rate_is_at_least_half_the_1k_rate() {
    const SIZES: [usize; 2] = [1_000, 10_000];
    const WARMUP: u64 = 50;
    const MEASURE: u64 = 2000;
    const REPS: usize = 7;
    let cfg = FleetConfig {
        policy: Policy::Sjf,
        seed: 11,
        horizon_s: 1e7,
        warm_start: false,
        // Tight stream budget: almost every job waits, a handful run.
        link_budget: 64,
        ..FleetConfig::default()
    };
    let mut best = [0f64; 2];
    for _ in 0..REPS {
        for (b, jobs) in best.iter_mut().zip(SIZES) {
            let workload = Workload::fleet_scale(jobs, 1);
            let mut history = HistoryStore::in_memory();
            let mut sim = FleetSim::new(&workload, &cfg, &mut history);
            for _ in 0..WARMUP {
                assert!(sim.tick(), "fleet ended during warmup");
            }
            let s = time(|| {
                for _ in 0..MEASURE {
                    assert!(sim.tick(), "fleet ended during measurement");
                }
            });
            *b = b.max(MEASURE as f64 / s);
        }
    }
    let ratio = best[1] / best[0];
    println!(
        "monolith ticks/s: 1k jobs {:.0}, 10k jobs {:.0}, ratio {ratio:.2}",
        best[0], best[1]
    );
    assert!(
        ratio >= 0.5,
        "10k-job monolith runs at {ratio:.2}x the 1k-job tick rate (< 0.5)"
    );
}
