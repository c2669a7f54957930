//! Throughput ablations of the design choices DESIGN.md calls out: control
//! epoch length `e`, compass step size `λ`, tolerance `ε`, and the TCP
//! congestion-control variant: their effect on *achieved throughput*.
//!
//! Usage: `ablation [--quick]`.

use xferopt_scenarios::driver::{drive_transfer, DriveConfig, TuneDims};
use xferopt_scenarios::{ExternalLoad, LoadSchedule, Route, Table};
use xferopt_tuners::TunerKind;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let duration = if quick { 900.0 } else { 1800.0 };
    let steady = |log: &xferopt_transfer::TransferLog| {
        log.mean_observed_between(duration * 2.0 / 3.0, duration + 1.0)
            .unwrap_or(0.0)
    };

    // --- Epoch length --------------------------------------------------
    println!("# Control epoch length (paper: e = 30 s)\n");
    let mut t = Table::new(vec!["epoch s", "steady MB/s", "overhead %", "final nc"]);
    for epoch_s in [10.0, 20.0, 30.0, 60.0, 120.0] {
        let mut cfg = DriveConfig::paper(
            Route::UChicago,
            TunerKind::Nm,
            TuneDims::NcOnly { np: 8 },
            LoadSchedule::constant(ExternalLoad::new(0, 16)),
        )
        .with_duration_s(duration);
        cfg.epoch_s = epoch_s;
        let log = drive_transfer(&cfg);
        t.push_row(vec![
            format!("{epoch_s:.0}"),
            format!("{:.0}", steady(&log)),
            format!("{:.0}", log.mean_overhead_fraction() * 100.0),
            log.final_nc().unwrap_or(0).to_string(),
        ]);
    }
    println!("{}", t.to_markdown());

    // --- Compass step size ----------------------------------------------
    println!("# Compass step size λ (paper: λ = 8)\n");
    let mut t = Table::new(vec!["lambda", "steady MB/s", "final nc"]);
    for lambda in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
        use xferopt_scenarios::topology::PaperWorld;
        use xferopt_simcore::SimDuration;
        use xferopt_transfer::{StreamParams, TransferLog};
        use xferopt_tuners::{CompassTuner, Domain, OnlineTuner};
        // Hand-rolled loop so we can set λ (the factory pins the paper's 8).
        let mut pw = PaperWorld::new(0xAB1);
        pw.world.set_compute_jobs(pw.source, 16);
        let tid = pw.start_transfer(Route::UChicago, StreamParams::globus_default());
        let mut tuner = CompassTuner::new(Domain::paper_nc(), vec![2], lambda, 5.0);
        let mut x = tuner.initial();
        let mut log = TransferLog::new();
        for _ in 0..(duration / 30.0) as usize {
            let params = StreamParams::new(x[0].max(1) as u32, 8);
            let es = pw.world.begin_epoch(tid, params, true);
            pw.world.step(SimDuration::from_secs(30));
            let r = pw.world.end_epoch(es);
            log.push(r);
            x = tuner.observe(&x, r.observed_mbs);
        }
        t.push_row(vec![
            format!("{lambda:.0}"),
            format!("{:.0}", steady(&log)),
            log.final_nc().unwrap_or(0).to_string(),
        ]);
    }
    println!("{}", t.to_markdown());

    // --- TCP variant ------------------------------------------------------
    println!("# TCP congestion-control variant (per-stream steady rate)\n");
    let mut t = Table::new(vec!["variant", "1 stream MB/s", "16 streams MB/s"]);
    for cc in xferopt_net::CongestionControl::ALL {
        use xferopt_net::{Link, Network, Path};
        let rate = |streams: u32| {
            let mut net = Network::new();
            let l = net.add_link(Link::new("wan", 10_000.0));
            let p = net.add_path(
                Path::new("p", vec![l])
                    .with_rtt_ms(33.0)
                    .with_loss(1e-4)
                    .with_wmax_bytes(64.0 * 1024.0 * 1024.0),
            );
            let f = net.add_flow(p, streams, cc);
            net.allocation_of(f)
        };
        t.push_row(vec![
            cc.name().to_string(),
            format!("{:.0}", rate(1)),
            format!("{:.0}", rate(16)),
        ]);
    }
    println!("{}", t.to_markdown());
}
