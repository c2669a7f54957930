//! `xferopt` — command-line front end for the simulated testbed.
//!
//! ```text
//! xferopt run   [--route uc|tacc] [--tuner default|cd|cs|nm|heur1|heur2]
//!               [--dims nc|ncnp] [--tfr N] [--cmp N] [--duration S]
//!               [--epoch S] [--seed N] [--csv]
//!               [--telemetry-out PATH]         # JSONL + PATH.prom
//! xferopt sweep [--route uc|tacc] [--tfr N] [--cmp N] [--np N]
//!               [--duration S] [--seed N]      # throughput vs nc table
//! xferopt compare [--duration S] [--seed N]    # all tuners × all loads
//! xferopt telemetry summarize --in PATH       # digest a JSONL bundle
//! xferopt fleet run    [--jobs N] [--policy fifo|sjf|wfair] [--seed N]
//!                      [--workload synthetic|contended] [--horizon S]
//!                      [--epoch S] [--tick S] [--budget STREAMS]
//!                      [--history DIR] [--cold] [--csv]
//!                      [--faults flaky-link|degraded-wan|lossy-tacc]
//!                      [--report-out PATH] [--decisions-out PATH]
//!                      [--telemetry-out PATH] [--supervision-out PATH]
//!                      [--checkpoint-out PATH] [--checkpoint-every TICKS]
//!                      [--stop-at-tick K]      # simulate a crash
//!                      [--topo mesh|hub-spoke|asymmetric] [--topo-k K]
//!                      [--outage-region R,...] [--campaign NAME]
//!                      [--multipath M] [--no-reroute] [--selfheal]
//! xferopt fleet resume --checkpoint PATH       # continue a killed run
//!                                              # (salvages torn journals)
//! xferopt fleet report [--history DIR]         # digest a history store
//! xferopt routes search [--preset mesh|hub-spoke|asymmetric | --dat FILE]
//!                       [--k N] [--nc-grid 4,8,...] [--np N] [--passes N]
//!                       [--out PATH]           # placement table JSONL
//! xferopt chaos run --campaign rolling-outage|flapping-links|nic-degrade
//!                   [--preset NAME] [--jobs N] [--seed N] [--seeds COUNT]
//!                   [--horizon S] [--shards N] [--out PATH]  # scorecard
//! xferopt tournament run    [--quick] [--seed N] [--epochs N] [--epoch S]
//!                           [--tuners a,b,...] [--scenarios a,b,...]
//!                           [--history DIR] [--report-out PATH]
//!                           [--csv-out PATH] [--jsonl-out PATH]
//!                           [--decisions-out PATH]
//! xferopt tournament report --in PATH [--csv]  # re-render a JSONL dump
//! ```
//!
//! Everything runs the calibrated fluid testbed (see DESIGN.md); use the
//! `fig*` binaries in `xferopt-bench` to regenerate the paper's figures.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::process::ExitCode;
use xferopt::prelude::*;
use xferopt::scenarios::experiments::{fig5, summarize};
use xferopt::scenarios::report::Table;
use xferopt::scenarios::telemetry::{drive_transfer_with_telemetry, summarize_telemetry};

/// Minimal flag parser: `--key value` pairs and bare `--flag`s after the
/// subcommand. Every lookup is recorded, so a subcommand can refuse the
/// flags it never read ([`Args::reject_unread`]) instead of ignoring them.
struct Args {
    /// `(key, value)` in command-line order; `None` for a bare flag.
    items: Vec<(String, Option<String>)>,
    /// Keys looked up so far, and whether as `--key value` (true) or as a
    /// bare flag (false).
    read: RefCell<Vec<(String, bool)>>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut items = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument: {a}"));
            };
            let value = it.next_if(|v| !v.starts_with("--")).cloned();
            items.push((key.to_string(), value));
        }
        Ok(Args {
            items,
            read: RefCell::new(Vec::new()),
        })
    }

    fn mark(&self, key: &str, valued: bool) {
        let mut read = self.read.borrow_mut();
        if !read.iter().any(|(k, v)| k == key && *v == valued) {
            read.push((key.to_string(), valued));
        }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.mark(key, true);
        self.items
            .iter()
            .rev()
            .find(|(k, v)| k == key && v.is_some())
            .and_then(|(_, v)| v.as_deref())
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
        }
    }

    fn has_flag(&self, key: &str) -> bool {
        self.mark(key, false);
        self.items.iter().any(|(k, v)| k == key && v.is_none())
    }

    /// Refuse the first flag, in command-line order, that the subcommand
    /// never looked up in the form it was given: a misspelt flag, one this
    /// subcommand does not take, or one that needs another flag it lacks.
    /// Call once every flag is read, before the work starts.
    fn reject_unread(&self) -> Result<(), String> {
        let read = self.read.borrow();
        let was_read = |key: &str, valued: bool| read.iter().any(|(k, v)| k == key && *v == valued);
        match self.items.iter().find(|(k, v)| !was_read(k, v.is_some())) {
            None => Ok(()),
            Some((key, Some(v))) if was_read(key, false) => {
                Err(format!("--{key} takes no value, got {v}"))
            }
            Some((key, None)) if was_read(key, true) => Err(format!("--{key} needs a value")),
            Some((key, _)) => Err(format!("unexpected flag --{key}")),
        }
    }

    /// A job count for `--jobs`, at most the orchestrator's job cap (the
    /// workload is allocated up front).
    fn get_jobs(&self, default: usize) -> Result<usize, String> {
        let jobs = self.get_parsed("jobs", default)?;
        xferopt::orchestrator::check_job_count(jobs as u64).map_err(|e| format!("--jobs: {e}"))?;
        Ok(jobs)
    }

    /// A stream count per file for `--np` (default 8): at least 1, since a
    /// file on zero streams moves nothing.
    fn get_np(&self) -> Result<u32, String> {
        match self.get_parsed("np", 8u32)? {
            0 => Err("--np must be >= 1".into()),
            np => Ok(np),
        }
    }

    /// A finite number of seconds for `--key`, at least the simulation
    /// clock's 1 ns resolution (a shorter step would round to zero).
    fn get_secs(&self, key: &str, default: f64) -> Result<f64, String> {
        let v = self.get_parsed(key, default)?;
        if v.is_finite() && SimDuration::from_secs_f64(v).is_positive() {
            Ok(v)
        } else {
            Err(format!(
                "--{key} must be a positive number of seconds (1 ns or more), got {v:?}"
            ))
        }
    }
}

fn parse_route(s: &str) -> Result<Route, String> {
    match s {
        "uc" | "uchicago" => Ok(Route::UChicago),
        "tacc" => Ok(Route::Tacc),
        other => Err(format!("unknown route: {other} (use uc|tacc)")),
    }
}

/// Write `text` to stdout. A closed stdout (the reader of a pipe went
/// away, as in `xferopt sweep | head -4`) quietly ends the output; any
/// other write error is reported.
fn emit(text: &str) -> Result<(), String> {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(format!("cannot write to stdout: {e}"))
        }
        _ => Ok(()),
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let route = parse_route(args.get("route").unwrap_or("uc"))?;
    let tuner: TunerKind = args
        .get("tuner")
        .unwrap_or("nm")
        .parse()
        .map_err(|e: String| e)?;
    let dims = match args.get("dims").unwrap_or("nc") {
        "nc" => TuneDims::NcOnly { np: args.get_np()? },
        "ncnp" => TuneDims::NcNp,
        other => return Err(format!("unknown dims: {other} (use nc|ncnp)")),
    };
    let load = ExternalLoad::new(args.get_parsed("tfr", 0u32)?, args.get_parsed("cmp", 0u32)?);
    let duration = args.get_secs("duration", 1800.0)?;
    let seed = args.get_parsed("seed", 0u64)?;
    let mut cfg = DriveConfig::paper(route, tuner, dims, LoadSchedule::constant(load))
        .with_duration_s(duration)
        .with_seed(seed);
    cfg.epoch_s = args.get_secs("epoch", 30.0)?;
    if (duration / cfg.epoch_s).round() < 1.0 {
        return Err(format!(
            "--epoch {} leaves no control epoch in --duration {duration}",
            cfg.epoch_s
        ));
    }
    let faults = match args.get("faults") {
        None => None,
        Some(v) => {
            let profile: FaultProfile = v.parse()?;
            Some(profile)
        }
    };
    if let Some(profile) = faults {
        cfg = cfg.with_faults(profile.plan(route, seed, duration));
    }

    let telemetry_out = args.get("telemetry-out").map(str::to_string);
    let csv = args.has_flag("csv");
    args.reject_unread()?;
    let log = if let Some(path) = &telemetry_out {
        // Flight recorder on: identical transfer, plus JSONL + Prometheus.
        let (log, tel) = drive_transfer_with_telemetry(&cfg);
        std::fs::write(path, tel.to_jsonl()).map_err(|e| format!("cannot write {path}: {e}"))?;
        let prom_path = format!("{path}.prom");
        std::fs::write(&prom_path, tel.to_prometheus())
            .map_err(|e| format!("cannot write {prom_path}: {e}"))?;
        eprintln!("telemetry: wrote {path} (JSONL) and {prom_path} (Prometheus)");
        log
    } else {
        drive_transfer(&cfg)
    };
    let mut out = String::new();
    if csv {
        out.push_str("t_s,observed_mbs,bestcase_mbs,nc,np,startup_s\n");
        for e in &log.epochs {
            let _ = writeln!(
                out,
                "{:.0},{:.1},{:.1},{},{},{:.2}",
                (e.start + e.duration).as_secs_f64(),
                e.observed_mbs,
                e.bestcase_mbs,
                e.params.nc,
                e.params.np,
                e.startup_s
            );
        }
    } else {
        let _ = writeln!(
            out,
            "{} on {} under {} for {:.0} s{}:",
            tuner.name(),
            route.name(),
            load.label(),
            duration,
            faults
                .map(|p| format!(" with {p} faults"))
                .unwrap_or_default()
        );
        let _ = writeln!(
            out,
            "  mean observed  {:>8.0} MB/s",
            log.mean_observed_mbs()
        );
        let _ = writeln!(
            out,
            "  steady (last third) {:>8.0} MB/s",
            log.mean_observed_between(duration * 2.0 / 3.0, duration + 1.0)
                .unwrap_or(0.0)
        );
        let _ = writeln!(
            out,
            "  final params   nc={} np={}",
            log.final_nc().unwrap_or(0),
            log.final_np().unwrap_or(0)
        );
        let _ = writeln!(
            out,
            "  restart overhead {:>6.1} %",
            log.mean_overhead_fraction() * 100.0
        );
    }
    emit(&out)
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let route = parse_route(args.get("route").unwrap_or("uc"))?;
    let load = ExternalLoad::new(args.get_parsed("tfr", 0u32)?, args.get_parsed("cmp", 0u32)?);
    let np = args.get_np()?;
    let duration = args.get_secs("duration", 120.0)?;
    let seed = args.get_parsed("seed", 0u64)?;
    args.reject_unread()?;

    let ncs = [1u32, 2, 4, 8, 16, 32, 64, 128, 256];
    let surface = xferopt::scenarios::throughput_surface(route, load, &ncs, &[np], duration, seed);
    let mut table = Table::new(vec!["nc", "streams", "MB/s"]);
    for c in &surface.cells {
        table.push_row(vec![
            c.nc.to_string(),
            (c.nc * c.np).to_string(),
            format!("{:.0}", c.mbs),
        ]);
    }
    let mut out = format!(
        "throughput vs concurrency on {} under {} (np={np}):\n\n{}\n",
        route.name(),
        load.label(),
        table.to_markdown()
    );
    if let Some(best) = surface.argmax() {
        let _ = writeln!(out, "optimum: nc={} ({:.0} MB/s)", best.nc, best.mbs);
    }
    emit(&out)
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let duration = args.get_secs("duration", 900.0)?;
    let seed = args.get_parsed("seed", 0u64)?;
    let route = parse_route(args.get("route").unwrap_or("uc"))?;
    args.reject_unread()?;
    let runs = fig5(route, duration, seed);
    let mut table = Table::new(vec![
        "load",
        "tuner",
        "observed MB/s",
        "vs default",
        "final nc",
    ]);
    for s in summarize(&runs) {
        table.push_row(vec![
            s.load.label(),
            s.tuner.name().to_string(),
            format!("{:.0}", s.observed_mbs),
            if s.improvement.is_nan() {
                "-".into()
            } else {
                format!("{:.1}x", s.improvement)
            },
            s.final_nc.to_string(),
        ]);
    }
    emit(&format!("{}\n", table.to_markdown()))
}

/// `xferopt telemetry summarize --in PATH`: digest a JSONL telemetry bundle.
fn cmd_telemetry(sub: &str, args: &Args) -> Result<(), String> {
    match sub {
        "summarize" => {
            let path = args
                .get("in")
                .ok_or_else(|| "telemetry summarize needs --in PATH".to_string())?;
            args.reject_unread()?;
            let doc =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let s = summarize_telemetry(&doc);
            if s.runs + s.epochs + s.decisions + s.metric_samples == 0 {
                return Err(format!("{path}: no telemetry records found"));
            }
            emit(&s.to_report())
        }
        other => Err(format!(
            "unknown telemetry subcommand: {other} (use summarize)"
        )),
    }
}

/// Open the `--history DIR` store (in-memory without the flag), reporting
/// malformed lines skipped while loading.
fn open_history(args: &Args) -> Result<xferopt::orchestrator::HistoryStore, String> {
    use xferopt::orchestrator::HistoryStore;
    let store = match args.get("history") {
        Some(dir) => HistoryStore::open(std::path::Path::new(dir))
            .map_err(|e| format!("cannot open history store {dir}: {e}"))?,
        None => HistoryStore::in_memory(),
    };
    if store.skipped() > 0 {
        eprintln!(
            "fleet: history store skipped {} malformed line(s)",
            store.skipped()
        );
    }
    Ok(store)
}

/// Where a fleet run writes its report and optional JSONL side-channels.
/// Read before the run, so every flag is checked before any work starts.
struct FleetOutputs {
    csv: bool,
    report: Option<String>,
    decisions: Option<String>,
    telemetry: Option<String>,
    supervision: Option<String>,
    history: bool,
}

impl FleetOutputs {
    fn from_args(args: &Args) -> Self {
        let path = |key: &str| args.get(key).map(str::to_string);
        FleetOutputs {
            csv: args.has_flag("csv"),
            report: path("report-out"),
            decisions: path("decisions-out"),
            telemetry: path("telemetry-out"),
            supervision: path("supervision-out"),
            history: args.get("history").is_some(),
        }
    }

    /// Write a fleet outcome's report and side-channels.
    fn write(
        &self,
        out: &xferopt::orchestrator::FleetOutcome,
        history: &xferopt::orchestrator::HistoryStore,
    ) -> Result<(), String> {
        let report = if self.csv {
            out.report.to_csv()
        } else {
            out.report.render()
        };
        match &self.report {
            Some(path) => {
                std::fs::write(path, &report).map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("fleet: wrote report to {path}");
            }
            None => emit(&report)?,
        }
        if let Some(path) = &self.decisions {
            std::fs::write(path, &out.decisions_jsonl)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("fleet: wrote per-job tuner decisions to {path}");
        }
        if let Some(path) = &self.telemetry {
            std::fs::write(path, &out.telemetry_jsonl)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("fleet: wrote epoch telemetry to {path}");
        }
        if let Some(path) = &self.supervision {
            let doc = format!("{}{}", out.supervision_jsonl, out.metrics_jsonl);
            std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("fleet: wrote supervision events + metrics to {path}");
        }
        if self.history {
            eprintln!(
                "fleet: appended {} history record(s) ({} total)",
                out.history_appended,
                history.len()
            );
        }
        Ok(())
    }
}

/// Append one checkpoint block to the journal at `path`. The run's first
/// write truncates any stale journal left by a previous run; later writes
/// append, so a crash mid-write tears at most the newest block and `fleet
/// resume` salvages the longest intact prefix.
fn append_checkpoint(path: &str, block: &str, first: &mut bool) -> Result<(), String> {
    use std::io::Write;
    let mut opts = std::fs::OpenOptions::new();
    opts.create(true).write(true);
    if *first {
        opts.truncate(true);
    } else {
        opts.append(true);
    }
    let mut f = opts
        .open(path)
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    f.write_all(block.as_bytes())
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    *first = false;
    Ok(())
}

/// `xferopt fleet run`: drive a multi-job fleet through the orchestrator,
/// optionally under a chaos profile and/or writing periodic checkpoints.
fn cmd_fleet_run(args: &Args) -> Result<(), String> {
    use xferopt::orchestrator::{
        topo_workload, FleetConfig, ShardedFleetSim, TopoFleetConfig, Workload,
    };
    use xferopt::topo::{search_routes, Planet, RouteCatalog, SearchConfig};

    let jobs = args.get_jobs(10)?;
    let seed = args.get_parsed("seed", 7u64)?;
    let sites = args.get_parsed("sites", 1u32)?;
    if sites == 0 {
        return Err("--sites must be >= 1".into());
    }
    let shards = args.get_parsed("shards", 1usize)?;
    if shards == 0 {
        return Err("--shards must be >= 1".into());
    }
    let topo = match args.get("topo") {
        None => None,
        Some(name) => {
            let planet = Planet::preset(name).map_err(|e| e.to_string())?;
            let mut tc = TopoFleetConfig::preset(name);
            tc.k = args.get_parsed("topo-k", tc.k)?;
            if tc.k == 0 {
                return Err("--topo-k must be >= 1".into());
            }
            if let Some(list) = args.get("outage-region") {
                // Comma-separated region list; each index validated against
                // the planet.
                for s in list.split(',') {
                    let r: usize = s
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad value for --outage-region: {s}"))?;
                    if r >= planet.regions.len() {
                        return Err(format!(
                            "--outage-region {r} out of range ({} has {} regions)",
                            planet.name,
                            planet.regions.len()
                        ));
                    }
                    tc.outage_regions.push(r);
                }
            }
            if let Some(name) = args.get("campaign") {
                if !xferopt::topo::CAMPAIGNS.contains(&name) {
                    return Err(format!(
                        "unknown campaign: {name} (use {})",
                        xferopt::topo::CAMPAIGNS.join("|")
                    ));
                }
                if !tc.outage_regions.is_empty() {
                    return Err("--campaign scripts its own faults; drop --outage-region".into());
                }
                tc.campaign = Some(name.to_string());
            }
            tc.multipath = args.get_parsed("multipath", tc.multipath)?;
            if tc.multipath == 0 {
                return Err("--multipath must be >= 1".into());
            }
            tc.reroute = !args.has_flag("no-reroute");
            tc.selfheal = args.has_flag("selfheal");
            if tc.selfheal && !tc.reroute {
                return Err("--selfheal needs re-routing; drop --no-reroute".into());
            }
            Some(tc)
        }
    };
    if topo.is_some() && sites > 1 {
        return Err("--topo replaces --sites (regions come from the planet)".into());
    }
    let workload = match (args.get("workload").unwrap_or("synthetic"), &topo) {
        (_, Some(tc)) => {
            // A planet fleet always runs the searched-placement workload:
            // jobs round-robin the placement pairs on their rank-0 routes.
            let planet = tc.planet();
            let cfg = SearchConfig {
                k: tc.k,
                ..SearchConfig::default()
            };
            let placement = search_routes(&planet, &cfg).map_err(|e| e.to_string())?;
            let catalog = RouteCatalog::enumerate(&planet, tc.k).map_err(|e| e.to_string())?;
            topo_workload(&placement, &catalog, jobs)
        }
        ("topo", None) => return Err("--workload topo needs --topo PRESET".into()),
        ("synthetic", None) => Workload::synthetic_sites(jobs, seed, sites),
        ("contended", None) => {
            if sites > 1 {
                return Err("--sites > 1 requires --workload synthetic".into());
            }
            Workload::contended(jobs)
        }
        (other, None) => {
            return Err(format!(
                "unknown workload: {other} (use synthetic|contended|topo)"
            ))
        }
    };
    let faults = match args.get("faults") {
        None => None,
        Some(v) => Some(v.parse::<FaultProfile>()?),
    };
    if faults.is_some() && topo.is_some() {
        return Err("--topo uses --outage-region for chaos, not --faults".into());
    }
    let config = FleetConfig {
        policy: args
            .get("policy")
            .unwrap_or("fifo")
            .parse()
            .map_err(|e: String| e)?,
        seed,
        horizon_s: args.get_parsed("horizon", 3600.0f64)?,
        tick_s: args.get_parsed("tick", 5.0f64)?,
        epoch_s: args.get_parsed("epoch", 30.0f64)?,
        link_budget: args.get_parsed("budget", xferopt::orchestrator::DEFAULT_LINK_BUDGET)?,
        warm_start: !args.has_flag("cold"),
        faults,
        topo,
        ..FleetConfig::default()
    };
    config.validate().map_err(|e| e.to_string())?;
    let checkpoint_out = args.get("checkpoint-out").map(str::to_string);
    let checkpoint_every = args.get_parsed("checkpoint-every", 0u64)?;
    let stop_at_tick = match args.get("stop-at-tick") {
        None => None,
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("bad value for --stop-at-tick: {v}"))?,
        ),
    };
    if (checkpoint_every > 0 || stop_at_tick.is_some()) && checkpoint_out.is_none() {
        return Err("--checkpoint-every/--stop-at-tick need --checkpoint-out PATH".into());
    }
    let outputs = FleetOutputs::from_args(args);
    let mut history = open_history(args)?;
    args.reject_unread()?;
    let mut first_ckpt = true;
    // One stepping path for every fleet: batches end at the next checkpoint
    // or stop tick, and the output is byte-identical for every --shards
    // value and batch size.
    let mut sim = ShardedFleetSim::new(&workload, &config, &mut history, shards);
    loop {
        let k = sim.tick_index();
        let mut batch = 1024;
        if checkpoint_every > 0 {
            batch = batch.min(checkpoint_every - k % checkpoint_every);
        }
        if let Some(stop) = stop_at_tick {
            batch = batch.min(stop.saturating_sub(k).max(1));
        }
        if sim.run_ticks(batch) < batch {
            break;
        }
        let k = sim.tick_index();
        if stop_at_tick.is_some_and(|stop| k >= stop) {
            break;
        }
        if checkpoint_every > 0 && k.is_multiple_of(checkpoint_every) {
            let path = checkpoint_out.as_deref().expect("checked above");
            append_checkpoint(path, &sim.checkpoint(), &mut first_ckpt)?;
            eprintln!("fleet: checkpoint at tick {k} -> {path}");
        }
    }
    if let Some(stop) = stop_at_tick {
        // Simulated crash: write the final checkpoint and exit without a
        // report (the CI crash/resume gate picks it up with `fleet resume`).
        let path = checkpoint_out.as_deref().expect("checked above");
        append_checkpoint(path, &sim.checkpoint(), &mut first_ckpt)?;
        eprintln!(
            "fleet: stopped at tick {} (requested {stop}); checkpoint -> {path}",
            sim.tick_index()
        );
        return Ok(());
    }
    let out = sim.finish();
    outputs.write(&out, &history)
}

/// `xferopt fleet resume`: continue a killed run from its checkpoint. The
/// replayed portion re-derives the killed run's state (verified by digest),
/// so the final report is byte-identical to an uninterrupted run.
fn cmd_fleet_resume(args: &Args) -> Result<(), String> {
    use xferopt::orchestrator::{parse_journal, resume_fleet_sharded};

    let path = args
        .get("checkpoint")
        .ok_or_else(|| "fleet resume needs --checkpoint PATH".to_string())?;
    let shards = args.get_parsed("shards", 1usize)?;
    if shards == 0 {
        return Err("--shards must be >= 1".into());
    }
    let outputs = FleetOutputs::from_args(args);
    args.reject_unread()?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // The checkpoint file is a journal of appended blocks; a torn tail
    // (crash mid-write) falls back to the newest intact block.
    let read = parse_journal(&text).map_err(|e| format!("{path}: {e}"))?;
    let ck = read.checkpoint.clone();
    if read.salvaged() {
        eprintln!(
            "fleet: journal tail torn; dropped {} newer block(s), salvaged_ticks={}",
            read.blocks_dropped, ck.tick
        );
    }
    eprintln!(
        "fleet: resuming from {path} (tick {}, t={:.0} s, {} job(s))",
        ck.tick,
        ck.t_s,
        ck.workload.len()
    );
    let mut history = open_history(args)?;
    // The shard count is free to differ from the killed run's because the
    // checkpoint format is shard-independent.
    let out = resume_fleet_sharded(&ck, &mut history, shards)?;
    outputs.write(&out, &history)
}

/// `xferopt fleet report`: digest a history store directory.
fn cmd_fleet_report(args: &Args) -> Result<(), String> {
    use xferopt::orchestrator::HistoryStore;

    let dir = args
        .get("history")
        .ok_or_else(|| "fleet report needs --history DIR".to_string())?;
    args.reject_unread()?;
    let store = HistoryStore::open(std::path::Path::new(dir))
        .map_err(|e| format!("cannot open history store {dir}: {e}"))?;
    if store.skipped() > 0 {
        return Err(format!(
            "history store {dir} is truncated or corrupt: {} malformed line(s); \
             refusing to print a partial table",
            store.skipped()
        ));
    }
    if store.is_empty() {
        return Err(format!("history store {dir} is empty: nothing to report"));
    }
    let mut table = Table::new(vec!["route", "tuner", "ext streams", "best", "MB/s"]);
    for r in store.records() {
        let best = r
            .best
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("x");
        table.push_row(vec![
            r.route.clone(),
            r.tuner.name().to_string(),
            format!("{:.0}", r.ext_streams),
            best,
            format!("{:.0}", r.achieved_mbs),
        ]);
    }
    emit(&format!(
        "history store {dir}: {} record(s)\n\n{}\n",
        store.len(),
        table.to_markdown()
    ))
}

/// `xferopt tournament run`: sweep every tuner × scenario preset × fault
/// profile and emit the byte-deterministic leaderboard.
fn cmd_tournament_run(args: &Args) -> Result<(), String> {
    use xferopt::orchestrator::{run_tournament, ScenarioPreset, TournamentConfig};

    let mut cfg = if args.has_flag("quick") {
        TournamentConfig::quick()
    } else {
        TournamentConfig::default()
    };
    cfg.seed = args.get_parsed("seed", cfg.seed)?;
    cfg.epochs = args.get_parsed("epochs", cfg.epochs)?;
    cfg.epoch_s = args.get_secs("epoch", cfg.epoch_s)?;
    if cfg.epochs == 0 {
        return Err("tournament needs --epochs >= 1".to_string());
    }
    if let Some(list) = args.get("tuners") {
        cfg.tuners = list
            .split(',')
            .map(|s| s.trim().parse::<TunerKind>())
            .collect::<Result<_, _>>()?;
    }
    if let Some(list) = args.get("scenarios") {
        cfg.scenarios = list
            .split(',')
            .map(|s| s.trim().parse::<ScenarioPreset>())
            .collect::<Result<_, _>>()?;
    }
    let mut history = open_history(args)?;
    let report_out = args.get("report-out");
    let csv_out = args.get("csv-out");
    let jsonl_out = args.get("jsonl-out");
    let decisions_out = args.get("decisions-out");
    let history_dir = args.get("history");
    args.reject_unread()?;
    let out = run_tournament(&cfg, &mut history);

    match report_out {
        Some(path) => {
            std::fs::write(path, out.leaderboard.render())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("tournament: wrote leaderboard to {path}");
        }
        None => emit(&out.leaderboard.render())?,
    }
    if let Some(path) = csv_out {
        std::fs::write(path, out.leaderboard.to_csv())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("tournament: wrote CSV to {path}");
    }
    if let Some(path) = jsonl_out {
        std::fs::write(path, out.leaderboard.to_jsonl())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("tournament: wrote JSONL to {path}");
    }
    if let Some(path) = decisions_out {
        std::fs::write(path, &out.decisions_jsonl)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("tournament: wrote tuner decisions to {path}");
    }
    if history_dir.is_some() {
        eprintln!(
            "tournament: appended {} history record(s) ({} total)",
            out.history_appended,
            history.len()
        );
    }
    Ok(())
}

/// `xferopt tournament report`: re-render a leaderboard from its JSONL dump,
/// failing loudly on empty or truncated input.
fn cmd_tournament_report(args: &Args) -> Result<(), String> {
    use xferopt::orchestrator::Leaderboard;

    let path = args
        .get("in")
        .ok_or_else(|| "tournament report needs --in PATH".to_string())?;
    let csv = args.has_flag("csv");
    args.reject_unread()?;
    let doc = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let board = Leaderboard::from_jsonl(&doc).map_err(|e| format!("{path}: {e}"))?;
    emit(&if csv { board.to_csv() } else { board.render() })
}

fn cmd_tournament(sub: &str, args: &Args) -> Result<(), String> {
    match sub {
        "run" => cmd_tournament_run(args),
        "report" => cmd_tournament_report(args),
        other => Err(format!(
            "unknown tournament subcommand: {other} (use run|report)"
        )),
    }
}

fn cmd_fleet(sub: &str, args: &Args) -> Result<(), String> {
    match sub {
        "run" => cmd_fleet_run(args),
        "resume" => cmd_fleet_resume(args),
        "report" => cmd_fleet_report(args),
        other => Err(format!(
            "unknown fleet subcommand: {other} (use run|resume|report)"
        )),
    }
}

/// `xferopt routes search`: offline route/config search over a planet.
/// Renders the leaderboard to stdout and (with `--out`) writes the
/// byte-deterministic placement table JSONL the fleet consumes.
fn cmd_routes_search(args: &Args) -> Result<(), String> {
    use xferopt::topo::{search_routes, Planet, SearchConfig};

    let planet = match args.get("dat") {
        Some(path) => {
            if args.get("preset").is_some() {
                return Err("--dat and --preset are mutually exclusive".into());
            }
            let doc =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Planet::from_dat(&doc).map_err(|e| format!("{path}: {e}"))?
        }
        None => Planet::preset(args.get("preset").unwrap_or("mesh")).map_err(|e| e.to_string())?,
    };
    let defaults = SearchConfig::default();
    let nc_grid = match args.get("nc-grid") {
        None => defaults.nc_grid.clone(),
        Some(spec) => spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<u32>()
                    .map_err(|_| format!("bad value in --nc-grid: {s}"))
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    if nc_grid.is_empty() {
        return Err("--nc-grid must name at least one concurrency".into());
    }
    let cfg = SearchConfig {
        k: args.get_parsed("k", defaults.k)?,
        nc_grid,
        np: args.get_parsed("np", defaults.np)?,
        passes: args.get_parsed("passes", defaults.passes)?,
    };
    if cfg.k == 0 {
        return Err("--k must be >= 1".into());
    }
    let out = args.get("out");
    args.reject_unread()?;
    let table = search_routes(&planet, &cfg).map_err(|e| e.to_string())?;
    emit(&table.render())?;
    if let Some(out) = out {
        std::fs::write(out, table.to_jsonl()).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("routes: placement table -> {out}");
    }
    Ok(())
}

fn cmd_routes(sub: &str, args: &Args) -> Result<(), String> {
    match sub {
        "search" => cmd_routes_search(args),
        other => Err(format!("unknown routes subcommand: {other} (use search)")),
    }
}

/// `xferopt chaos run`: drive a scripted multi-phase fault campaign across
/// control-plane variants and seeds, emitting the byte-deterministic
/// resilience scorecard (DESIGN.md §17).
fn cmd_chaos_run(args: &Args) -> Result<(), String> {
    use xferopt::orchestrator::{run_campaign, CampaignConfig};

    let campaign = args.get("campaign").ok_or_else(|| {
        format!(
            "chaos run needs --campaign NAME (use {})",
            xferopt::topo::CAMPAIGNS.join("|")
        )
    })?;
    let defaults = CampaignConfig::default();
    let nseeds = args.get_parsed("seeds", 1u64)?;
    if nseeds == 0 {
        return Err("--seeds must be >= 1".into());
    }
    let seed0 = args.get_parsed("seed", 7u64)?;
    let cfg = CampaignConfig {
        campaign: campaign.to_string(),
        preset: args.get("preset").unwrap_or(&defaults.preset).to_string(),
        jobs: args.get_jobs(defaults.jobs)?,
        seeds: (0..nseeds).map(|i| seed0 + i).collect(),
        horizon_s: args.get_parsed("horizon", defaults.horizon_s)?,
        shards: args.get_parsed("shards", defaults.shards)?,
    };
    if cfg.shards == 0 {
        return Err("--shards must be >= 1".into());
    }
    let out_path = args.get("out");
    args.reject_unread()?;
    let out = run_campaign(&cfg)?;
    match out_path {
        Some(path) => {
            std::fs::write(path, &out.scorecard)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("chaos: wrote scorecard to {path}");
        }
        None => emit(&out.scorecard)?,
    }
    Ok(())
}

fn cmd_chaos(sub: &str, args: &Args) -> Result<(), String> {
    match sub {
        "run" => cmd_chaos_run(args),
        other => Err(format!("unknown chaos subcommand: {other} (use run)")),
    }
}

fn usage() -> &'static str {
    "usage: xferopt <run|sweep|compare|telemetry|fleet|routes|chaos|tournament> [--flags]\n\
     run:     --route uc|tacc --tuner default|cd|cs|nm|heur1|heur2 --dims nc|ncnp\n\
     \u{20}        --np N --tfr N --cmp N --duration S --epoch S --seed N --csv\n\
     \u{20}        --faults flaky-link|degraded-wan|lossy-tacc\n\
     \u{20}        --telemetry-out PATH   (writes PATH JSONL + PATH.prom)\n\
     sweep:   --route uc|tacc --tfr N --cmp N --np N --duration S --seed N\n\
     compare: --route uc|tacc --duration S --seed N\n\
     telemetry summarize: --in PATH\n\
     fleet run:    --jobs N --policy fifo|sjf|wfair --seed N\n\
     \u{20}            --workload synthetic|contended --horizon S --epoch S --tick S\n\
     \u{20}            --sites K   (independent sites, one shard component each)\n\
     \u{20}            --shards N  (worker threads for batched runs; output is identical\n\
     \u{20}                         for every value)\n\
     \u{20}            --budget STREAMS --history DIR --cold --csv\n\
     \u{20}            --faults flaky-link|degraded-wan|lossy-tacc\n\
     \u{20}            --report-out PATH --decisions-out PATH --telemetry-out PATH\n\
     \u{20}            --supervision-out PATH\n\
     \u{20}            --checkpoint-out PATH --checkpoint-every TICKS\n\
     \u{20}            --stop-at-tick K   (simulate a crash; resume later)\n\
     \u{20}            --topo mesh|hub-spoke|asymmetric --topo-k K\n\
     \u{20}            --outage-region R[,R...] --campaign NAME --multipath M\n\
     \u{20}            --no-reroute --selfheal   (self-healing control plane)\n\
     fleet resume: --checkpoint PATH [--shards N] [--history DIR + fleet-run output flags]\n\
     fleet report: --history DIR\n\
     routes search: --preset mesh|hub-spoke|asymmetric | --dat FILE\n\
     \u{20}             --k N --nc-grid 4,8,... --np N --passes N --out PATH\n\
     chaos run: --campaign rolling-outage|flapping-links|nic-degrade\n\
     \u{20}         --preset NAME --jobs N --seed N --seeds COUNT --horizon S\n\
     \u{20}         --shards N --out PATH   (byte-deterministic scorecard)\n\
     tournament run:    --quick --seed N --epochs N --epoch S\n\
     \u{20}                 --tuners a,b,... --scenarios uc-quiet,uc-contended,tacc-mixed\n\
     \u{20}                 --history DIR --report-out PATH --csv-out PATH\n\
     \u{20}                 --jsonl-out PATH --decisions-out PATH\n\
     tournament report: --in PATH [--csv]"
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "telemetry" => match rest.split_first() {
            Some((sub, rest2)) => Args::parse(rest2).and_then(|args| cmd_telemetry(sub, &args)),
            None => Err(format!("telemetry needs a subcommand\n{}", usage())),
        },
        "fleet" => match rest.split_first() {
            Some((sub, rest2)) => Args::parse(rest2).and_then(|args| cmd_fleet(sub, &args)),
            None => Err(format!("fleet needs a subcommand\n{}", usage())),
        },
        "routes" => match rest.split_first() {
            Some((sub, rest2)) => Args::parse(rest2).and_then(|args| cmd_routes(sub, &args)),
            None => Err(format!("routes needs a subcommand\n{}", usage())),
        },
        "chaos" => match rest.split_first() {
            Some((sub, rest2)) => Args::parse(rest2).and_then(|args| cmd_chaos(sub, &args)),
            None => Err(format!("chaos needs a subcommand\n{}", usage())),
        },
        "tournament" => match rest.split_first() {
            Some((sub, rest2)) => Args::parse(rest2).and_then(|args| cmd_tournament(sub, &args)),
            None => Err(format!("tournament needs a subcommand\n{}", usage())),
        },
        _ => Args::parse(rest).and_then(|args| match cmd.as_str() {
            "run" => cmd_run(&args),
            "sweep" => cmd_sweep(&args),
            "compare" => cmd_compare(&args),
            other => Err(format!("unknown command: {other}\n{}", usage())),
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Args {
        Args::parse(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = args(&["--route", "uc", "--csv", "--seed", "7"]);
        assert_eq!(a.get("route"), Some("uc"));
        assert_eq!(a.get_parsed("seed", 0u64).unwrap(), 7);
        assert!(a.has_flag("csv"));
        assert!(!a.has_flag("quiet"));
        assert_eq!(a.get("missing"), None);
        assert_eq!(a.get_parsed("missing", 42u32).unwrap(), 42);
    }

    #[test]
    fn later_pairs_win() {
        let a = args(&["--seed", "1", "--seed", "2"]);
        assert_eq!(a.get("seed"), Some("2"));
    }

    #[test]
    fn rejects_positional_arguments() {
        let raw = vec!["oops".to_string()];
        assert!(Args::parse(&raw).is_err());
    }

    #[test]
    fn rejects_bad_values() {
        let a = args(&["--seed", "xyz"]);
        assert!(a.get_parsed("seed", 0u64).is_err());
    }

    #[test]
    fn unread_flags_are_rejected_by_name() {
        let a = args(&["--jobs", "3", "--polcy", "fifo", "--cold"]);
        assert_eq!(a.get("jobs"), Some("3"));
        assert!(a.has_flag("cold"));
        assert_eq!(a.reject_unread().unwrap_err(), "unexpected flag --polcy");
        assert_eq!(a.get("polcy"), Some("fifo"));
        assert!(a.reject_unread().is_ok());
        // A known key in the wrong form is named as such.
        let a = args(&["--csv", "x", "--seed"]);
        assert!(!a.has_flag("csv"));
        assert_eq!(
            a.reject_unread().unwrap_err(),
            "--csv takes no value, got x"
        );
        assert_eq!(a.get("csv"), Some("x"));
        assert_eq!(a.get("seed"), None);
        assert_eq!(a.reject_unread().unwrap_err(), "--seed needs a value");
    }

    #[test]
    fn route_parsing() {
        assert_eq!(parse_route("uc").unwrap(), Route::UChicago);
        assert_eq!(parse_route("uchicago").unwrap(), Route::UChicago);
        assert_eq!(parse_route("tacc").unwrap(), Route::Tacc);
        assert!(parse_route("mars").is_err());
    }
}
