//! Named regression tests for bugs found (and fixed) while building this
//! reproduction. Each test documents the failure mode so it cannot return.

use xferopt::gridftp::{client, StripeDigest};
use xferopt::net::{max_min_allocate, FlowDemand};
use xferopt::prelude::*;

/// REGRESSION: the cd-tuner's relative-change quotient used a signed
/// denominator, so a *negative* baseline value flipped the improvement sign
/// and the tuner walked away from the optimum. All relative-change code now
/// divides by `|f|`.
#[test]
fn negative_baseline_does_not_flip_cd_direction() {
    let mut t = CdTuner::new(Domain::new(&[(1, 100)]), vec![40], 0.01);
    // Objective negative everywhere except near the peak at 8.
    let f = |x: &Point| 100.0 - ((x[0] - 8) as f64).powi(2) * 10.0;
    let mut x = t.initial();
    for _ in 0..50 {
        let fx = f(&x);
        x = t.observe(&x.clone(), fx);
    }
    assert!(
        (x[0] - 8).abs() <= 2,
        "cd must walk down from 40 to the peak at 8 despite negative values: {x:?}"
    );
}

/// REGRESSION: the ε%-monitor had the same signed-denominator hazard.
#[test]
fn monitor_significance_with_negative_values() {
    use xferopt::tuners::SignificanceMonitor;
    let mut m = SignificanceMonitor::new(5.0);
    m.observe(-1000.0);
    // -1000 → -900 is a 10% move; must trigger regardless of sign.
    assert!(m.observe(-900.0).retrigger.is_some());
}

/// REGRESSION: `LoadSchedule::changes_between` was exclusive at the window
/// start, so a load change landing exactly on a 30 s control-epoch boundary
/// was silently never applied (epochs start exactly at those boundaries).
/// The window is now half-open `[from, to)`.
#[test]
fn boundary_aligned_load_change_applies() {
    let schedule = LoadSchedule::piecewise(vec![
        (0.0, ExternalLoad::new(0, 64)),
        (300.0, ExternalLoad::NONE), // multiple of the 30 s epoch
    ]);
    assert_eq!(schedule.changes_between(300.0, 330.0), vec![300.0]);
    let cfg = DriveConfig::paper(
        Route::UChicago,
        TunerKind::Default,
        TuneDims::NcOnly { np: 8 },
        schedule,
    )
    .with_duration_s(600.0)
    .with_noise_sigma(0.0);
    let log = drive_transfer(&cfg);
    let before = log.mean_observed_between(100.0, 290.0).unwrap();
    let after = log.mean_observed_between(400.0, 600.0).unwrap();
    assert!(
        after > 5.0 * before,
        "change at t=300 never applied: {before} -> {after}"
    );
}

/// REGRESSION: progressive filling could stall (and fire a debug assertion)
/// when float error left a flow a hair under its cap with a zero step — the
/// freeze tolerance was absolute, which large weights overwhelm. Tolerances
/// are now relative and a pinned level terminates cleanly.
#[test]
fn fairness_solver_handles_awkward_float_inputs() {
    let caps = [
        6509.155271642728,
        508.403174199464,
        6407.267008329971,
        3056.8859753365055,
        2493.034299241861,
    ];
    let flows = vec![
        FlowDemand {
            weight: 101.41454406201493,
            demand_cap: 3906.4934283636953,
            links: vec![0, 1, 2, 3, 4],
        },
        FlowDemand {
            weight: 57.25,
            demand_cap: f64::INFINITY,
            links: vec![1, 3],
        },
    ];
    // Must terminate and respect all bounds (debug assertions included).
    let alloc = max_min_allocate(&caps, &flows);
    assert!(alloc.iter().all(|a| a.is_finite() && *a >= 0.0));
    assert!(alloc[0] <= flows[0].demand_cap * (1.0 + 1e-9));
    // Doubling everything must also terminate (the original failure mode).
    let caps2: Vec<f64> = caps.iter().map(|c| c * 2.0).collect();
    let flows2: Vec<FlowDemand> = flows
        .iter()
        .map(|f| FlowDemand {
            weight: f.weight,
            demand_cap: f.demand_cap * 2.0,
            links: f.links.clone(),
        })
        .collect();
    let alloc2 = max_min_allocate(&caps2, &flows2);
    assert!(alloc2.iter().all(|a| a.is_finite()));
}

/// REGRESSION: multi-parameter cd-tuner rotated to the next axis by holding
/// still, so on a quiet link the new axis was never probed and 2-D tuning
/// deadlocked at the starting parallelism. Rotation now probes immediately.
#[test]
fn cd_two_dim_never_deadlocks_on_quiet_objective() {
    let f = |x: &Point| {
        4000.0 - ((x[0] - 6) as f64).powi(2) * 30.0 - ((x[1] - 12) as f64).powi(2) * 30.0
    };
    let mut t = CdTuner::new(Domain::paper_nc_np(), vec![2, 8], 1.0);
    let mut x = t.initial();
    let mut np_values = std::collections::HashSet::new();
    for _ in 0..80 {
        np_values.insert(x[1]);
        let fx = f(&x);
        x = t.observe(&x.clone(), fx);
    }
    assert!(np_values.len() > 1, "np axis never explored: {np_values:?}");
}

/// REGRESSION: compass probes at a domain bound could project back onto the
/// incumbent and be evaluated as "new" points forever. Degenerate probes are
/// skipped now — from a corner, the search must still terminate and hold.
#[test]
fn compass_from_domain_corner_terminates() {
    let domain = Domain::new(&[(1, 8), (1, 4)]);
    let mut t = CompassTuner::new(domain.clone(), vec![8, 4], 8.0, 5.0);
    let mut x = t.initial();
    let mut repeats_at_corner = 0;
    for _ in 0..60 {
        x = t.observe(&x.clone(), 1000.0);
        assert!(domain.contains(&x));
        if x == vec![8, 4] {
            repeats_at_corner += 1;
        }
    }
    // After convergence it holds (monitor), which is fine — the bug was
    // endless *probing* of the same corner during search. Holding implies
    // the search finished: λ must have collapsed.
    assert!(t.lambda() < 0.5, "search never terminated from the corner");
    assert!(
        repeats_at_corner > 10,
        "should settle and hold at the corner"
    );
}

/// REGRESSION: the stripe digest summed raw per-block FNV-1a values, and the
/// synthetic payload repeats every 2048 bytes, so every block of a put
/// carries the same bytes. A fault that flips the same byte in every block
/// then shifts the block hashes by amounts that cancel in the sum: 16 blocks
/// of 8 KiB with the last byte's low bit flipped gave `expected_digest`
/// exactly. Each
/// block hash now goes through murmur3's `fmix64` before it enters the sum.
#[test]
fn a_byte_flipped_in_every_block_changes_the_digest() {
    let mut missed = Vec::new();
    for n in [16u64, 64, 256] {
        for block in [2 * 1024, 8 * 1024] {
            let flips = [0, block / 2, block - 1].map(|at| [(at, 0x01), (at, 0x80)]);
            let flips = flips.as_flattened();
            let mut folds = vec![StripeDigest::new(); flips.len()];
            for off in (0..n).map(|i| i * block as u64) {
                let mut payload = client::payload_block(off, block);
                for (d, &(at, bit)) in folds.iter_mut().zip(flips) {
                    payload[at] ^= bit;
                    d.add_block(off, &payload);
                    payload[at] ^= bit;
                }
            }
            let expected = client::expected_digest(n * block as u64, block);
            for (d, (at, bit)) in folds.iter().zip(flips) {
                if d.value() == expected {
                    missed.push(format!("{n} x {block} B, byte {at} ^ {bit:#04x}"));
                }
            }
        }
    }
    assert!(missed.is_empty(), "flips the digest missed: {missed:?}");
}

/// The flips of `flips` (byte index, XOR mask) that leave the digest of `n`
/// synthetic blocks of `block` bytes equal to `expected_digest` when the
/// same flip is made in every block, each named for the failure message.
fn missed_flips(n: u64, block: usize, flips: &[(usize, u8)]) -> Vec<String> {
    let mut folds = vec![StripeDigest::new(); flips.len()];
    for off in (0..n).map(|i| i * block as u64) {
        let mut payload = client::payload_block(off, block);
        for (d, &(at, bit)) in folds.iter_mut().zip(flips) {
            payload[at] ^= bit;
            d.add_block(off, &payload);
            payload[at] ^= bit;
        }
    }
    let expected = client::expected_digest(n * block as u64, block);
    folds
        .iter()
        .zip(flips)
        .filter(|(d, _)| d.value() == expected)
        .map(|(_, (at, bit))| format!("{n} x {block} B, byte {at} ^ {bit:#04x}"))
        .collect()
}

/// Every `(position, mask)` pair of `positions` and `masks`.
fn flips(positions: &[usize], masks: &[u8]) -> Vec<(usize, u8)> {
    positions
        .iter()
        .flat_map(|&at| masks.iter().map(move |&bit| (at, bit)))
        .collect()
}

/// The block hash reads the payload a little-endian 8-byte word at a time:
/// a flip in the last byte of a word or the first byte of the next, at
/// either end of the block, must reach the digest as any other flip does.
#[test]
fn flips_on_either_side_of_a_word_boundary_change_the_digest() {
    let mut missed = Vec::new();
    for n in [16u64, 64, 256] {
        for block in [2 * 1024, 8 * 1024] {
            let at = [7, 8, block - 9, block - 8];
            missed.extend(missed_flips(n, block, &flips(&at, &[0x01, 0x80])));
        }
    }
    assert!(missed.is_empty(), "flips the digest missed: {missed:?}");
}

/// A block whose length is not a multiple of 8 ends in a 1–7-byte tail,
/// which the block hash absorbs zero-padded: a flip in the tail, or in the
/// last whole word before it, must change the digest.
#[test]
fn flips_in_a_short_word_tail_change_the_digest() {
    let mut missed = Vec::new();
    for tail in 1..8 {
        let block = 2 * 1024 + tail;
        let mut at = vec![block - tail - 1, block - tail, block - 1];
        at.dedup();
        missed.extend(missed_flips(16, block, &flips(&at, &[0x01, 0x80, 0xff])));
    }
    assert!(missed.is_empty(), "flips the digest missed: {missed:?}");
}

/// The fault grid the `fmix64` finalizer was chosen on, widened to the
/// word boundaries: 16, 128 and 1024 blocks of 2–256 KiB, the same byte
/// flipped in every block at the first, middle and last byte and on either
/// side of the first and last word boundary, XORed with 0x01, 0x80 or
/// 0xff. 504 faults; the digest must see all of them. Too slow
/// unoptimized, so `scripts/ci.sh` runs it in release.
#[test]
#[ignore = "504 faults over up to 256 MiB: run with --release --ignored"]
fn the_full_fault_grid_misses_no_fault() {
    let (mut faults, mut missed) = (0, Vec::new());
    for n in [16u64, 128, 1024] {
        for kib in [2, 4, 8, 16, 32, 64, 128, 256] {
            let block = kib * 1024;
            let at = [0, 7, 8, block / 2, block - 9, block - 8, block - 1];
            let grid = flips(&at, &[0x01, 0x80, 0xff]);
            faults += grid.len();
            missed.extend(missed_flips(n, block, &grid));
        }
    }
    println!("fault grid: {faults} faults, {} missed", missed.len());
    assert_eq!(faults, 504);
    assert!(missed.is_empty(), "flips the digest missed: {missed:?}");
}
