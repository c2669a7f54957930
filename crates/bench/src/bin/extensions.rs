//! Run the future-work extension experiments (beyond the paper's published
//! evaluation): destination-endpoint load and joint endpoint-level tuning.
//!
//! Usage: `extensions [--quick]`.

use xferopt_bench::summary_table;
use xferopt_dataset::{
    climate_dataset, drive_disk_transfer, DiskModel, DiskSchedule, DiskTransferObjective,
};
use xferopt_scenarios::experiments::{ext_destination_load, ext_joint_tuning};
use xferopt_tuners::NelderMeadTuner;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let duration = if quick { 600.0 } else { 1800.0 };

    println!("# Extension 1 — destination endpoint load (paper future work #4)\n");
    println!("32 compute hogs on the *UChicago destination*, source idle:\n");
    let runs = ext_destination_load(32, duration, 0xE47);
    println!("{}", summary_table(&runs).to_markdown());
    println!(
        "The receiver's fair-share scheduler behaves like the sender's: the\n\
         tuners raise nc until the transfer claims its destination CPU share.\n"
    );

    println!("# Extension 2 — endpoint-level joint tuning (paper Section IV-D)\n");
    let cmp = ext_joint_tuning(duration, 0xE48);
    println!(
        "independent tuners (Fig. 11 protocol): {:>6.0} MB/s aggregate",
        cmp.independent_total_mbs
    );
    println!(
        "one joint 4-D nm-tuner on the sum:     {:>6.0} MB/s aggregate",
        cmp.joint_total_mbs
    );
    let (uc, tacc) = &cmp.joint_logs;
    println!(
        "joint steady split: UChicago {:.0} / TACC {:.0} MB/s, final (nc,np) = ({},{}) / ({},{})",
        uc.mean_observed_between(duration * 2.0 / 3.0, duration + 1.0)
            .unwrap_or(0.0),
        tacc.mean_observed_between(duration * 2.0 / 3.0, duration + 1.0)
            .unwrap_or(0.0),
        uc.final_nc().unwrap_or(0),
        uc.final_np().unwrap_or(0),
        tacc.final_nc().unwrap_or(0),
        tacc.final_np().unwrap_or(0),
    );

    let switch_s = (duration * 0.5).min(900.0);
    println!("\n# Extension 3 — online disk-to-disk tuning (paper future work #1)\n");
    println!("2000-file climate archive; source file system degrades to an archival");
    println!("tier at t = {switch_s:.0} s; nm-tuner adapts (nc, np, pp) online:\n");
    let dataset = climate_dataset(11);
    let schedule = DiskSchedule::piecewise(vec![
        (0.0, DiskModel::parallel_fs()),
        (switch_s, DiskModel::archival()),
    ]);
    let mut nm = NelderMeadTuner::new(DiskTransferObjective::domain(), vec![2, 8, 1], 5.0);
    let epochs = (duration / 30.0) as usize;
    let history = drive_disk_transfer(
        &mut nm,
        &dataset,
        &schedule,
        DiskModel::parallel_fs(),
        epochs,
        30.0,
        0.03,
        0xD15C,
    );
    println!("  t_s   nc  np  pp   MB/s");
    for e in history.iter().step_by(4) {
        println!(
            "{:>5.0} {:>4} {:>3} {:>3} {:>7.0}",
            e.t_s, e.nc, e.np, e.pp, e.observed_mbs
        );
    }
    let mean = |from: f64, to: f64| {
        let v: Vec<f64> = history
            .iter()
            .filter(|e| e.t_s >= from && e.t_s < to)
            .map(|e| e.observed_mbs)
            .collect();
        xferopt_simcore::stats::sum(v.iter().copied()) / v.len().max(1) as f64
    };
    println!(
        "\nsteady means: healthy FS {:.0} MB/s, archival tier {:.0} MB/s",
        mean(duration * 0.2, switch_s),
        mean(switch_s + (duration - switch_s) * 0.5, duration)
    );
}
