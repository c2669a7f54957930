//! A miniature Fig. 5 on **real sockets**: default vs compass-search tuner
//! over the loopback harness (per-stream caps + shared token bucket +
//! genuine CPU hogs). No simulation anywhere in the loop — this is the
//! paper's experiment shrunk to a laptop: 2 s control epochs instead of
//! 30 s, hundreds of MB/s instead of GB/s.
//!
//! Usage: `realfig [--epochs N]` (default 12).

use std::time::Duration;
use xferopt_gridftp::loopback::{CpuHogs, LoopbackHarness, ShaperConfig};
use xferopt_scenarios::Table;
use xferopt_tuners::{CompassTuner, Domain, OnlineTuner, StaticTuner};

fn main() {
    let epochs: usize = std::env::args()
        .skip_while(|a| a != "--epochs")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    let epoch = Duration::from_secs(2);

    // 600 MB/s shared "WAN", 35 MB/s per-stream cap, hogs on half the cores.
    let harness = LoopbackHarness::start(ShaperConfig::rate_mbs(600.0))
        .expect("start sink")
        .with_per_stream_mbs(35.0);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let _hogs = CpuHogs::spawn((cores / 2) as u32);
    eprintln!(
        "realfig: {epochs} epochs x {:?}, {} CPU hogs, 600 MB/s bucket, 35 MB/s/stream",
        epoch,
        cores / 2
    );

    let mut table = Table::new(vec![
        "epoch",
        "default nc",
        "default MB/s",
        "cs nc",
        "cs MB/s",
    ]);
    let domain = Domain::new(&[(1, 24)]);
    let mut default: Box<dyn OnlineTuner> = Box::new(StaticTuner::new(domain.clone(), vec![2]));
    let mut cs: Box<dyn OnlineTuner> = Box::new(CompassTuner::new(domain, vec![2], 4.0, 10.0));
    let mut dx = default.initial();
    let mut cx = cs.initial();
    let (mut d_total, mut c_total) = (0.0f64, 0.0f64);

    for epoch_idx in 0..epochs {
        let d_mbs = harness
            .measure(dx[0] as u32, 1, epoch)
            .expect("default epoch");
        let c_mbs = harness.measure(cx[0] as u32, 1, epoch).expect("cs epoch");
        table.push_row(vec![
            epoch_idx.to_string(),
            dx[0].to_string(),
            format!("{d_mbs:.0}"),
            cx[0].to_string(),
            format!("{c_mbs:.0}"),
        ]);
        d_total += d_mbs;
        c_total += c_mbs;
        dx = default.observe(&dx.clone(), d_mbs);
        cx = cs.observe(&cx.clone(), c_mbs);
    }

    println!("\n# Real-socket mini Fig. 5 (loopback harness)\n");
    println!("{}", table.to_markdown());
    println!(
        "means: default (nc=2) {:.0} MB/s, cs-tuner {:.0} MB/s ({:.1}x)",
        d_total / epochs as f64,
        c_total / epochs as f64,
        c_total / d_total
    );
}
