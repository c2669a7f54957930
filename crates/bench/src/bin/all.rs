//! Run every experiment and print the condensed paper-vs-measured summary
//! recorded in EXPERIMENTS.md.
//!
//! Usage: `all [--quick]` — `--quick` uses shortened runs. Both are fast: a
//! release build runs the full protocol in about 9 ms and `--quick` in about
//! 6 ms (median of 7 runs, wall and CPU alike, on a 2-core Xeon VM).

use xferopt_scenarios::experiments::{fig1, fig10, fig11, fig5, fig8_9, summarize};
use xferopt_scenarios::{ExternalLoad, Route, Table};
use xferopt_tuners::TunerKind;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (repeats, fig1_secs, dur) = if quick {
        (2, 120.0, 900.0)
    } else {
        (5, 600.0, 1800.0)
    };

    let mut rows = Table::new(vec!["experiment", "paper", "measured"]);

    // ---- Fig. 1 ----------------------------------------------------------
    eprintln!("running fig1...");
    let cells = fig1(repeats, fig1_secs, 0xA11);
    let best = |load: ExternalLoad| {
        cells
            .iter()
            .filter(|c| c.load == load)
            .max_by(|a, b| a.stats.median.partial_cmp(&b.stats.median).unwrap())
            .unwrap()
    };
    let idle = best(ExternalLoad::NONE);
    let loaded = best(ExternalLoad::new(16, 16));
    rows.push_row(vec![
        "Fig1a critical nc (no load)".to_string(),
        "~64".to_string(),
        format!("{}", idle.nc),
    ]);
    rows.push_row(vec![
        "Fig1b critical nc (tfr=cmp=16)".to_string(),
        ">= Fig1a (peak shifts right)".to_string(),
        format!("{}", loaded.nc),
    ]);
    rows.push_row(vec![
        "Fig1 peak falls under load".to_string(),
        "yes".to_string(),
        format!(
            "{} ({:.0} -> {:.0} MB/s)",
            idle.stats.median > loaded.stats.median,
            idle.stats.median,
            loaded.stats.median
        ),
    ]);

    // ---- Figs. 5-7 -------------------------------------------------------
    eprintln!("running fig5/6/7 (UChicago)...");
    let uc = fig5(Route::UChicago, dur, 0xA55);
    let s = summarize(&uc);
    let get = |tuner: TunerKind, load: ExternalLoad| {
        s.iter()
            .find(|x| x.tuner == tuner && x.load == load)
            .expect("summary row")
    };
    let none = ExternalLoad::NONE;
    let cmp16 = ExternalLoad::new(0, 16);
    let cmp64 = ExternalLoad::new(0, 64);
    let tfr16 = ExternalLoad::new(16, 0);
    let tfr64 = ExternalLoad::new(64, 0);

    rows.push_row(vec![
        "Fig5a default (MB/s)".to_string(),
        "~2500".to_string(),
        format!("{:.0}", get(TunerKind::Default, none).observed_mbs),
    ]);
    rows.push_row(vec![
        "Fig5a tuners vs default".to_string(),
        "1.4x".to_string(),
        format!(
            "cd {:.1}x, cs {:.1}x, nm {:.1}x",
            get(TunerKind::Cd, none).improvement,
            get(TunerKind::Cs, none).improvement,
            get(TunerKind::Nm, none).improvement
        ),
    ]);
    rows.push_row(vec![
        "Fig5b default under cmp=16".to_string(),
        "~200".to_string(),
        format!("{:.0}", get(TunerKind::Default, cmp16).observed_mbs),
    ]);
    rows.push_row(vec![
        "Fig5b cs/nm vs default (cmp=16)".to_string(),
        "~7x".to_string(),
        format!(
            "cs {:.1}x, nm {:.1}x",
            get(TunerKind::Cs, cmp16).improvement,
            get(TunerKind::Nm, cmp16).improvement
        ),
    ]);
    rows.push_row(vec![
        "Fig5c default under cmp=64".to_string(),
        "~100".to_string(),
        format!("{:.0}", get(TunerKind::Default, cmp64).observed_mbs),
    ]);
    rows.push_row(vec![
        "Fig5c cs/nm vs default (cmp=64)".to_string(),
        "up to 10x".to_string(),
        format!(
            "cs {:.1}x, nm {:.1}x",
            get(TunerKind::Cs, cmp64).improvement,
            get(TunerKind::Nm, cmp64).improvement
        ),
    ]);
    rows.push_row(vec![
        "Fig5d default under tfr=16".to_string(),
        "~1400".to_string(),
        format!("{:.0}", get(TunerKind::Default, tfr16).observed_mbs),
    ]);
    rows.push_row(vec![
        "Fig5e default under tfr=64".to_string(),
        "~900".to_string(),
        format!("{:.0}", get(TunerKind::Default, tfr64).observed_mbs),
    ]);
    rows.push_row(vec![
        "Fig5d/e tuners vs default (tfr)".to_string(),
        "~2x".to_string(),
        format!(
            "tfr16: nm {:.1}x; tfr64: nm {:.1}x",
            get(TunerKind::Nm, tfr16).improvement,
            get(TunerKind::Nm, tfr64).improvement
        ),
    ]);
    rows.push_row(vec![
        "Fig6b nm final nc under cmp=16".to_string(),
        "50-80".to_string(),
        format!("{}", get(TunerKind::Nm, cmp16).final_nc),
    ]);
    rows.push_row(vec![
        "Fig7 no-load best-case (tuners)".to_string(),
        "~4000".to_string(),
        format!(
            "cs {:.0}, nm {:.0}",
            get(TunerKind::Cs, none).bestcase_mbs,
            get(TunerKind::Nm, none).bestcase_mbs
        ),
    ]);
    let overhead = uc
        .iter()
        .find(|r| r.tuner == TunerKind::Cs && r.load == none)
        .unwrap()
        .log
        .mean_overhead_fraction();
    rows.push_row(vec![
        "restart overhead, no load".to_string(),
        "~17%".to_string(),
        format!("{:.0}%", overhead * 100.0),
    ]);
    let overhead64 = uc
        .iter()
        .find(|r| r.tuner == TunerKind::Cs && r.load == cmp64)
        .unwrap()
        .log
        .mean_overhead_fraction();
    rows.push_row(vec![
        "restart overhead, cmp=64".to_string(),
        "~50%".to_string(),
        format!("{:.0}%", overhead64 * 100.0),
    ]);

    // ---- TACC trend ------------------------------------------------------
    eprintln!("running tacc...");
    let tacc = fig5(Route::Tacc, dur, 0xA7A);
    let st = summarize(&tacc);
    let t_def = st
        .iter()
        .find(|x| x.tuner == TunerKind::Default && x.load == none)
        .unwrap();
    let t_nm = st
        .iter()
        .find(|x| x.tuner == TunerKind::Nm && x.load == none)
        .unwrap();
    rows.push_row(vec![
        "TACC no-load, all methods (MB/s)".to_string(),
        "~1900".to_string(),
        format!(
            "default {:.0}, nm {:.0}",
            t_def.observed_mbs, t_nm.observed_mbs
        ),
    ]);
    rows.push_row(vec![
        "TACC no-load best-case (MB/s)".to_string(),
        "~2200".to_string(),
        format!("nm {:.0}", t_nm.bestcase_mbs),
    ]);

    // ---- Fig. 8/9 --------------------------------------------------------
    eprintln!("running fig8/9...");
    for (route, label) in [(Route::Tacc, "Fig8 (TACC)"), (Route::UChicago, "Fig9 (UC)")] {
        let runs = fig8_9(route, dur, 0xA89);
        let nm = runs.iter().find(|r| r.tuner == TunerKind::Nm).unwrap();
        let def = runs.iter().find(|r| r.tuner == TunerKind::Default).unwrap();
        let win = (1200.0_f64.min(dur * 0.8), dur + 1.0);
        let nm_after = nm.log.mean_observed_between(win.0, win.1).unwrap_or(0.0);
        let def_after = def.log.mean_observed_between(win.0, win.1).unwrap_or(0.0);
        rows.push_row(vec![
            format!("{label} nm vs default after load change"),
            "up to 10x".to_string(),
            format!(
                "{:.1}x ({:.0} vs {:.0})",
                nm_after / def_after,
                nm_after,
                def_after
            ),
        ]);
    }

    // ---- Fig. 10 ---------------------------------------------------------
    eprintln!("running fig10...");
    let f10 = fig10(dur, 0xA10);
    let w = (dur * 2.0 / 3.0, dur + 1.0);
    let v = |k: TunerKind| {
        f10.iter()
            .find(|r| r.tuner == k)
            .unwrap()
            .log
            .mean_observed_between(w.0, w.1)
            .unwrap_or(0.0)
    };
    rows.push_row(vec![
        "Fig10 nm & heur2 beat heur1".to_string(),
        "significantly better".to_string(),
        format!(
            "nm {:.0}, heur2 {:.0}, heur1 {:.0} MB/s",
            v(TunerKind::Nm),
            v(TunerKind::Heur2),
            v(TunerKind::Heur1)
        ),
    ]);

    // ---- Fig. 11 ---------------------------------------------------------
    eprintln!("running fig11...");
    let (uc11, tacc11) = fig11(TunerKind::Nm, dur, 0xA11B);
    let a = uc11.mean_observed_between(w.0, w.1).unwrap_or(0.0);
    let b = tacc11.mean_observed_between(w.0, w.1).unwrap_or(0.0);
    rows.push_row(vec![
        "Fig11 UChicago claims larger NIC share".to_string(),
        "yes".to_string(),
        format!(
            "UC {:.0} vs TACC {:.0} MB/s ({:.0}%)",
            a,
            b,
            100.0 * a / (a + b)
        ),
    ]);

    println!("\n# Paper vs measured (all experiments)\n");
    println!("{}", rows.to_markdown());
}
