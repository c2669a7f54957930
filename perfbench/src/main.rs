//! The xferopt benchmark binary. `run.py` builds it and calls it as
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//! perfbench --record-digests > perfbench/digests.txt
//! ```
//!
//! It derives the workload's inputs from the seed, runs one untimed
//! reference op per input, then repeats rounds of one op per input for
//! about `S` seconds, checking every op. The last line of standard output
//! is the JSON result. With `--trace 0` it carries the end-to-end metrics;
//! with `--trace 1` every other round runs traced and the line carries the
//! layer probes, while the workload's own per-layer table, the metrics it
//! cannot measure, and the tracing overhead go to the lines above it and to
//! `DIR/<workload>-<seed>.{layers.json,spans.jsonl}`.

mod clock;
mod probes;
mod report;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{median, result_json, Metric};
use trace::Tracer;
use workloads::OpStats;

/// Rounds a run makes even when `--seconds` has already passed: one
/// untraced and, in a traced run, one traced.
const MIN_ROUNDS: u64 = 2;

/// How long the process may take to get back to its baseline thread count
/// before an op.
const THREAD_SETTLE: Duration = Duration::from_secs(5);

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("goodput_mbs", "MB/s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out_dir = ".bench_out".to_string();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out-dir" => out_dir = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out_dir,
    })
}

/// One checked op of sub-seed instance `instance`.
struct OpRecord {
    instance: usize,
    traced: bool,
    stats: OpStats,
    /// Machine-speed calibration taken just before the op.
    calibration_s: f64,
}

/// Mean over instances of each instance's median of `f` over its ops
/// (traced or untraced): medians absorb a slow op, and the mean over
/// sub-seeds averages out how much each seeded input costs.
fn aggregate(records: &[OpRecord], traced: bool, f: impl Fn(&OpRecord) -> f64) -> f64 {
    let instances = records.iter().map(|r| r.instance + 1).max().unwrap_or(0);
    let medians: Vec<f64> = (0..instances)
        .map(|i| {
            let v: Vec<f64> = records
                .iter()
                .filter(|r| r.instance == i && r.traced == traced)
                .map(&f)
                .collect();
            median(&v)
        })
        .filter(|m| !m.is_nan())
        .collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// The end-to-end metrics, with times scaled by `speed` (nominal over
/// measured calibration time; 1 leaves them raw).
fn end_to_end(records: &[OpRecord], peak_rss_mb: f64, speed: f64) -> Vec<Metric> {
    let values = [
        aggregate(records, false, |r| r.stats.setup.wall_s) * speed,
        aggregate(records, false, |r| r.stats.run.wall_s) * speed,
        aggregate(records, false, |r| r.stats.run.cpu_s) * speed,
        peak_rss_mb,
        aggregate(records, false, |r| r.stats.goodput_mbs) / speed,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit))
        .collect()
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!("#   {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let baseline_threads = clock::thread_count()?;
    let inputs = workloads::input_seeds(&args.workload, args.seed);
    let threads = workloads::busy_threads(&args.workload);
    let mut calibrator = clock::Calibrator::new(threads);
    let mut benches = inputs
        .iter()
        .map(|&input| workloads::build(&args.workload, input))
        .collect::<Result<Vec<_>, _>>()?;
    let mut tracer = Tracer::new(false);
    let mut records: Vec<OpRecord> = Vec::new();
    let (mut attempted, mut failed, mut rounds) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    // A round runs one op of every sub-seed instance. Stop at the round
    // boundary nearest to `--seconds`.
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        let round_s = if rounds == 0 {
            0.0
        } else {
            elapsed / rounds as f64
        };
        if rounds >= MIN_ROUNDS && elapsed + round_s / 2.0 >= args.seconds {
            break;
        }
        // A traced run alternates untraced and traced rounds, so the
        // overhead compares ops made under the same machine conditions.
        let traced = args.trace && rounds % 2 == 1;
        tracer.set_on(traced);
        for (instance, bench) in benches.iter_mut().enumerate() {
            attempted += 1;
            // Work the program left running (server or shard threads still
            // tearing down) would slow the calibration kernel and hide a
            // regression in the scaling, so such an op fails.
            if let Err(e) = clock::wait_for_threads(baseline_threads, THREAD_SETTLE) {
                failed += 1;
                eprintln!("{}: op {attempted} failed: {e}", args.workload);
                continue;
            }
            let calibration_s = calibrator.measure();
            let result = bench.op(attempted, &mut tracer);
            match result {
                Ok(stats) => {
                    eprintln!(
                        "{} op {attempted} (input {instance}{}): setup {:.6} s, run {:.6} s, cpu {:.6} s, calibration {calibration_s:.6} s",
                        args.workload,
                        if traced { ", traced" } else { "" },
                        stats.setup.wall_s,
                        stats.run.wall_s,
                        stats.run.cpu_s,
                    );
                    records.push(OpRecord {
                        instance,
                        traced,
                        stats,
                        calibration_s,
                    });
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("{}: op {attempted} failed: {e}", args.workload);
                }
            }
        }
        rounds += 1;
    }
    // On a shared 2-vCPU VM the machine's speed swings by 30-100% for
    // minutes at a time, with CPU time tracking wall time. So time metrics
    // are scaled to the nominal speed of a fixed calibration kernel timed
    // before every op. In a slow period, the kernel's median over windows
    // of planet-chaos ops tracked the ops' median with correlation 0.85,
    // and the scaling halved their variation; on a quiet machine it adds
    // about 1% of its own noise (README.md has the figures per workload).
    let calibration_s = median(&records.iter().map(|r| r.calibration_s).collect::<Vec<_>>());
    let speed = clock::CALIBRATION_NOMINAL_S[threads - 1] / calibration_s;
    // The process's peak over its whole life: set-up, reference ops and
    // every timed op.
    let peak_rss_mb = clock::peak_rss_mb()?;
    let raw = end_to_end(&records, peak_rss_mb, 1.0);
    let e2e = end_to_end(&records, peak_rss_mb, speed);
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# {} seed={} inputs={inputs:?} rounds={rounds} ops={attempted} failed={failed} error_rate={} ratio cpus={cpus}",
        args.workload,
        args.seed,
        failed as f64 / attempted as f64
    );
    println!(
        "# calibration on {threads} thread(s): median {calibration_s:.6} s, nominal {} s, scale {speed:.4}",
        clock::CALIBRATION_NOMINAL_S[threads - 1]
    );
    print_table(
        "end-to-end, raw (untraced ops; mean over inputs of per-input medians)",
        &raw,
    );
    print_table("end-to-end, scaled to nominal machine speed", &e2e);
    let metrics = if args.trace {
        let traced_run = aggregate(&records, true, |r| r.stats.run.wall_s);
        let overhead = traced_run - raw[1].value;
        let (mut layers, missing) = benches[0].layer_metrics(&tracer);
        let ops = records.iter().filter(|r| r.traced).count().max(1) as f64;
        for (name, total) in trace::self_time_by_name(tracer.spans()) {
            layers.push(Metric::new(format!("self.{name}_s"), total / ops, "s"));
        }
        let scale = benches[0].scale()?;
        // The sizes the probes run at are inputs, not measurements, so they
        // stay out of the result line.
        layers.push(Metric::new(
            "history.records",
            scale.history.len() as f64,
            "count",
        ));
        layers.push(Metric::new(
            "policy.queue_depth",
            scale.queue.len() as f64,
            "count",
        ));
        layers.push(Metric::new("trace.overhead_s", overhead, "s"));
        let probe = probes::run(&scale)?;
        print_table("workload layers (traced ops)", &layers);
        print_table("layer probes", &probe);
        println!(
            "# tracing overhead: traced run_s {traced_run:.6} - untraced run_s {:.6} = {overhead:.6} s (raw)",
            raw[1].value
        );
        for (m, why) in &missing {
            println!("# not measured: {m}: {why}");
        }
        write_trace_files(args, &tracer, &layers, &probe, &missing)?;
        probe
    } else {
        e2e
    };
    println!("{}", result_json(failed == 0, attempted, failed, &metrics)?);
    Ok(failed == 0)
}

fn write_trace_files(
    args: &Args,
    tracer: &Tracer,
    layers: &[Metric],
    probe: &[Metric],
    missing: &[(String, String)],
) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("{}: {e}", args.out_dir))?;
    let stem = format!("{}/{}-{}", args.out_dir, args.workload, args.seed);
    let mut all = layers.to_vec();
    all.extend_from_slice(probe);
    let missing_json: Vec<String> = missing
        .iter()
        .map(|(m, why)| format!("{{\"metric\":\"{m}\",\"reason\":\"{why}\"}}"))
        .collect();
    let layers_json = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"result\":{},\"not_measured\":[{}]}}\n",
        args.workload,
        args.seed,
        result_json(true, 1, 0, &all)?,
        missing_json.join(",")
    );
    std::fs::write(format!("{stem}.layers.json"), layers_json)
        .and_then(|()| std::fs::write(format!("{stem}.spans.jsonl"), tracer.to_jsonl()))
        .map_err(|e| format!("{stem}: {e}"))
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--record-digests") {
        return match workloads::record_digests() {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Scale;
    use xferopt::orchestrator::{HistoryStore, Policy, Workload};

    /// `(name, unit, better)` of every entry `BENCHMARK.json` declares in
    /// `section`, in file order.
    fn declared(section: &str) -> Vec<(String, String, String)> {
        let doc = include_str!("../../BENCHMARK.json");
        let start = doc
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
            .collect()
    }

    /// The string value of `"key": "value"` in one JSON object's text.
    fn field(obj: &str, key: &str) -> String {
        obj.split(&format!("\"{key}\":"))
            .nth(1)
            .and_then(|s| s.trim().trim_start_matches('"').split('"').next())
            .unwrap_or("")
            .to_string()
    }

    /// The direction a unit implies: rates are better higher, times and
    /// sizes lower.
    fn better_for(unit: &str) -> String {
        if unit.ends_with("/s") {
            "higher"
        } else {
            "lower"
        }
        .to_string()
    }

    #[test]
    fn declared_metrics_match_what_the_binary_reports() {
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string(), better_for(u)))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let scale = Scale {
            queue: Workload::synthetic(20, 1),
            links: 3,
            budget: 64,
            policy: Policy::Sjf,
            history: HistoryStore::in_memory(),
        };
        let probe: Vec<_> = probes::run(&scale)
            .expect("probes run")
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string(), better_for(m.unit)))
            .collect();
        assert_eq!(declared("per_layer"), probe);
        let names: Vec<_> = declared("workloads").into_iter().map(|d| d.0).collect();
        assert_eq!(names, workloads::NAMES.to_vec());
        for (name, _, _) in e2e.iter().chain(&probe) {
            assert!(report::valid_name(name), "{name}");
        }
    }
}
