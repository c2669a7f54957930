//! The four workloads. Each one repeats a fixed unit of work (an "op": one
//! fleet run, or one put) through the same public entry points the
//! `xferopt` CLI calls, checks every op's output, and times its set-up and
//! run phases separately.

use std::time::Instant;

use xferopt::gridftp::{client, GridFtpServer, PutConfig};
use xferopt::orchestrator::checkpoint::fnv1a;
use xferopt::orchestrator::{
    parse_journal, resume_fleet_sharded, run_fleet_sharded, topo_workload, FleetConfig,
    FleetOutcome, FleetSim, HistoryRecord, HistoryStore, JobState, Policy, ShardPlan,
    ShardedFleetSim, TopoFleetConfig, Workload,
};
use xferopt::topo::{search_routes, Planet, RouteCatalog, SearchConfig};
use xferopt::tuners::TunerKind;

use crate::clock::{measure, Sample};
use crate::report::{median, quantile, Metric};
use crate::trace::{durations, totals, Span, Tracer};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["fleet-deep", "fleet-sites", "planet-chaos", "socket-put"];

/// fleet-deep: jobs in the queue, and records in the preloaded history.
const DEEP_JOBS: usize = 40_000;
const DEEP_RECORDS: usize = 40_000;
/// fleet-sites: jobs, sites, worker threads, and ticks between checkpoints.
const SITES_JOBS: usize = 12_000;
const SITES: u32 = 8;
const SITES_SHARDS: usize = 2;
const CHECKPOINT_EVERY: u64 = 12;
/// planet-chaos: jobs on the mesh planet, and candidate routes per pair.
const CHAOS_JOBS: usize = 600;
const CHAOS_K: usize = 3;
/// socket-put: payload bytes per put, and data channels.
const PUT_BYTES: u64 = 256 << 20;
const PUT_NP: u32 = 2;
/// Inputs (sub-seeds) one run cycles through, per workload. A fleet's cost
/// depends on its seed (a chaos campaign's outages, a synthetic job mix),
/// so a run averages several seeded inputs rather than resting on one.
pub fn subseeds(name: &str) -> u64 {
    match name {
        "fleet-deep" => 4,
        // Its inputs cost within a few percent of each other, and its ops
        // are long, so fewer inputs leave more ops per input median.
        "fleet-sites" => 2,
        "planet-chaos" => 16,
        _ => 1,
    }
}

/// The fixed pool of input seeds `0..pool` a workload draws its inputs
/// from, for the workloads whose digests `digests.txt` records.
fn pool(name: &str) -> Option<u64> {
    match name {
        "fleet-deep" => Some(16),
        "planet-chaos" => Some(64),
        _ => None,
    }
}

/// The input seeds of a run with `seed`: [`subseeds`] consecutive ones,
/// inside the workload's pool where it has one.
pub fn input_seeds(name: &str, seed: u64) -> Vec<u64> {
    let k = subseeds(name);
    let start = match pool(name) {
        Some(p) => seed % (p / k) * k,
        None => seed.wrapping_mul(k),
    };
    (0..k).map(|j| start.wrapping_add(j)).collect()
}

/// `workload input digest` lines: the report+CSV digest of every pooled
/// input, recorded by `perfbench --record-digests`.
const RECORDED_DIGESTS: &str = include_str!("../digests.txt");

/// The digest `digests.txt` records for input seed `input` of `name`.
///
/// # Errors
/// Returns a message when the file has no valid line for the input.
pub fn recorded_digest(name: &str, input: u64) -> Result<u64, String> {
    for line in RECORDED_DIGESTS.lines().filter(|l| !l.starts_with('#')) {
        if let [w, i, d] = line.split_whitespace().collect::<Vec<_>>()[..] {
            if w == name && i.parse() == Ok(input) {
                return u64::from_str_radix(d, 16).map_err(|e| format!("digests.txt: {line}: {e}"));
            }
        }
    }
    Err(format!(
        "digests.txt records no digest for {name} input {input}"
    ))
}

/// The text of `digests.txt` for this build: the reference run's digest of
/// every pooled input.
///
/// # Errors
/// Returns a message when a reference run cannot be set up.
pub fn record_digests() -> Result<String, String> {
    let mut out = String::from(
        "# FNV-1a of the rendered report followed by its CSV, per pooled input seed,\n\
         # from the reference run (run_fleet_sharded on 1 shard).\n\
         # Regenerate with: perfbench --record-digests > perfbench/digests.txt\n",
    );
    for name in NAMES {
        for input in 0..pool(name).unwrap_or(0) {
            let digest = match name {
                "fleet-deep" => FleetDeep::unchecked(input).reference_run().0,
                _ => PlanetChaos::unchecked(input).reference_run()?.0,
            };
            out.push_str(&format!("{name} {input} {digest:016x}\n"));
        }
    }
    Ok(out)
}

/// Threads a workload keeps busy, and so the threads its machine-speed
/// calibration runs on: the shard pool's two workers, or a put's two
/// channels on each side of the socket.
pub fn busy_threads(name: &str) -> usize {
    match name {
        "fleet-sites" | "socket-put" => 2,
        _ => 1,
    }
}

/// Every `FULL_SOLVE_EVERY`-th tick of a traced fleet op also times a full
/// max–min re-solve of the live network.
const FULL_SOLVE_EVERY: u64 = 60;

/// What one op measured.
#[derive(Debug, Clone, Copy)]
pub struct OpStats {
    /// From the generated inputs to the first tick or first byte.
    pub setup: Sample,
    /// The op's unit of work.
    pub run: Sample,
    /// Payload megabytes delivered per wall second of the run phase
    /// (simulated megabytes for a fleet, verified socket bytes for a put).
    pub goodput_mbs: f64,
}

/// Layer sizes the traced run's probes reuse, so they run at this
/// workload's scale.
pub struct Scale {
    /// The workload's jobs (its admission queue at its deepest).
    pub queue: Workload,
    /// Links the admission controller budgets.
    pub links: usize,
    /// Per-link stream budget.
    pub budget: u32,
    /// Policy that orders the queue.
    pub policy: Policy,
    /// The history store as a run leaves it.
    pub history: HistoryStore,
}

/// A workload: inputs made from an input seed, a reference digest, and the
/// op.
pub trait Bench {
    /// Run one op, timing set-up and run, and check its output.
    ///
    /// # Errors
    /// Returns a message when the op fails or its output is wrong.
    fn op(&mut self, index: u64, tr: &mut Tracer) -> Result<OpStats, String>;

    /// Workload-specific per-layer metrics from the traced ops' spans and
    /// counters, plus `(metric, reason)` for layer metrics it cannot give.
    fn layer_metrics(&self, tr: &Tracer) -> (Vec<Metric>, Vec<(String, String)>);

    /// Sizes for the traced run's layer probes. Rebuilt on demand (it
    /// reruns the reference op) so untraced runs hold no extra state.
    fn scale(&self) -> Result<Scale, String>;
}

/// Build workload `name` for input seed `seed`, including its untimed
/// reference op.
///
/// # Errors
/// Returns a message for an unknown name, a failing reference run, or a
/// reference digest that differs from the recorded one.
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Bench>, String> {
    Ok(match name {
        "fleet-deep" => Box::new(FleetDeep::new(seed)?),
        "fleet-sites" => Box::new(FleetSites::new(seed)),
        "planet-chaos" => Box::new(PlanetChaos::new(seed)?),
        "socket-put" => Box::new(SocketPut::new(seed)?),
        other => {
            return Err(format!(
                "unknown workload {other:?} (use {})",
                NAMES.join("|")
            ))
        }
    })
}

/// The correctness digest of a fleet run: FNV-1a over the rendered report
/// followed by its CSV.
pub fn fleet_digest(out: &FleetOutcome) -> u64 {
    digest_text(&out.report.render(), &out.report.to_csv())
}

/// FNV-1a of `report` followed by `csv`.
pub fn digest_text(report: &str, csv: &str) -> u64 {
    fnv1a(&format!("{report}{csv}"))
}

/// The digest gate: an op's output must reproduce the reference digest.
///
/// # Errors
/// Returns a message naming both digests when they differ.
pub fn check_digest(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: digest {got:016x} differs from the reference {want:016x}"
        ))
    }
}

/// SplitMix64: the benchmark's own seeded generator for inputs the program
/// does not generate itself (the preloaded history).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A long-lived user history: `n` completed-job records over the classic
/// routes and the tuners `Workload::synthetic` assigns, appended to an
/// in-memory store the way a `--history DIR` load fills it.
fn preload_history(seed: u64, n: usize) -> HistoryStore {
    let mut rng = SplitMix(seed ^ 0x6869_7374); // "hist"
    let tuners = [TunerKind::Cs, TunerKind::Nm, TunerKind::Cd];
    let mut store = HistoryStore::in_memory();
    for _ in 0..n {
        let route = if rng.below(10) < 7 {
            "anl->uchicago"
        } else {
            "anl->tacc"
        };
        let record = HistoryRecord {
            route: route.to_string(),
            tuner: tuners[rng.below(3) as usize],
            ext_streams: rng.below(257) as f64,
            cmp_jobs: 0.0,
            best: vec![1 + rng.below(64) as i64],
            achieved_mbs: 100.0 + rng.below(1100) as f64,
            scenario: "fleet".to_string(),
        };
        store.append(record).expect("in-memory append cannot fail");
    }
    store
}

/// Tick `sim` to the end; when traced, wrap each tick in a `fleet.tick`
/// span and count the network and transfer layers after it. Returns the
/// seconds spent in full re-solve probes, which the caller takes out of the
/// op's run time.
fn run_ticks(sim: &mut FleetSim<'_>, tr: &mut Tracer) -> f64 {
    if !tr.is_on() {
        while sim.tick() {}
        return 0.0;
    }
    let net = sim.world().net();
    let (solves0, comp_solves0) = (net.allocation_solves(), net.component_solves());
    let mut probe_s = 0.0;
    while tr.span("fleet.tick", || sim.tick()) {
        let world = sim.world();
        let net = world.net();
        tr.add("fleet.ticks", 1.0);
        tr.add("net.components_sum", net.component_count() as f64);
        tr.max("net.flows_peak", net.flow_count() as f64);
        tr.max("net.links", net.link_count() as f64);
        tr.add("transfer.active_sum", world.active_transfer_count() as f64);
        if sim.tick_index().is_multiple_of(FULL_SOLVE_EVERY) {
            let t0 = Instant::now();
            tr.span("net.full_solve", || {
                std::hint::black_box(net.allocate_uncached())
            });
            probe_s += t0.elapsed().as_secs_f64();
        }
    }
    let world = sim.world();
    tr.add(
        "net.solves",
        (world.net().allocation_solves() - solves0) as f64,
    );
    tr.add(
        "net.comp_solves",
        (world.net().component_solves() - comp_solves0) as f64,
    );
    tr.add("transfer.started", world.transfer_count() as f64);
    probe_s
}

/// Close out a finished `FleetSim`, render it, and gate its digest.
fn finish_and_check(
    sim: FleetSim<'_>,
    tr: &mut Tracer,
    what: &str,
    reference: u64,
) -> Result<f64, String> {
    let out = tr.span("fleet.finish", || sim.finish());
    let (report, csv) = tr.span("fleet.render", || {
        (out.report.render(), out.report.to_csv())
    });
    check_digest(what, digest_text(&report, &csv), reference)?;
    tr.add(
        "fleet.completed",
        out.report.count(JobState::Completed) as f64,
    );
    Ok(out.report.total_moved_mb())
}

/// Tick a built `FleetSim` to the end, finish, render and gate it: the run
/// phase of the `FleetSim` workloads.
fn run_fleet_op(
    mut sim: FleetSim<'_>,
    tr: &mut Tracer,
    what: &str,
    reference: u64,
) -> Result<(f64, Sample), String> {
    let run_span = tr.enter("run");
    let ((probe_s, moved), mut run) = measure(|| {
        let probe_s = run_ticks(&mut sim, tr);
        (probe_s, finish_and_check(sim, tr, what, reference))
    });
    tr.exit(run_span);
    run.wall_s -= probe_s;
    run.cpu_s -= probe_s;
    Ok((moved?, run))
}

/// Fleet-layer metrics shared by the `FleetSim` workloads. Counts and busy
/// time are per traced op; percentiles pool every traced tick.
fn fleet_layer_metrics(tr: &Tracer) -> Vec<Metric> {
    let spans = tr.spans();
    let ops = traced_ops(tr);
    let tick_us = micros(spans, "fleet.tick");
    let per_op = |name: &str| median(&durations(spans, name));
    let ticks = tr.counter("fleet.ticks").max(1.0);
    vec![
        Metric::new("fleet.new_s", per_op("fleet.new"), "s"),
        Metric::new("fleet.ticks", tr.counter("fleet.ticks") / ops, "count"),
        Metric::new(
            "fleet.tick_busy_s",
            totals(spans, "fleet.tick").0 / ops,
            "s",
        ),
        Metric::new("fleet.tick_p50_us", quantile(&tick_us, 0.5), "us"),
        Metric::new("fleet.tick_p99_us", quantile(&tick_us, 0.99), "us"),
        Metric::new("fleet.finish_s", per_op("fleet.finish"), "s"),
        Metric::new("fleet.render_s", per_op("fleet.render"), "s"),
        Metric::new(
            "fleet.completed",
            tr.counter("fleet.completed") / ops,
            "count",
        ),
        Metric::new("net.links", tr.counter("net.links"), "count"),
        Metric::new("net.flows_peak", tr.counter("net.flows_peak"), "count"),
        Metric::new(
            "net.solves_per_tick",
            tr.counter("net.solves") / ticks,
            "count",
        ),
        Metric::new(
            "net.comp_solves_per_tick",
            tr.counter("net.comp_solves") / ticks,
            "count",
        ),
        Metric::new(
            "net.components_mean",
            tr.counter("net.components_sum") / ticks,
            "count",
        ),
        Metric::new(
            "net.full_solve_us",
            median(&micros(spans, "net.full_solve")),
            "us",
        ),
        Metric::new(
            "transfer.started",
            tr.counter("transfer.started") / ops,
            "count",
        ),
        Metric::new(
            "transfer.active_mean",
            tr.counter("transfer.active_sum") / ticks,
            "count",
        ),
    ]
}

/// Durations of every span named `name`, in microseconds.
fn micros(spans: &[Span], name: &str) -> Vec<f64> {
    durations(spans, name).iter().map(|d| d * 1e6).collect()
}

fn traced_ops(tr: &Tracer) -> f64 {
    durations(tr.spans(), "op").len().max(1) as f64
}

// ---------------------------------------------------------------- fleet-deep

/// One classic site, a deep queue under `sjf` with a tight link budget, and
/// warm starts against a large preloaded history.
struct FleetDeep {
    seed: u64,
    config: FleetConfig,
    /// The digest `digests.txt` records for `seed`.
    reference: u64,
}

impl FleetDeep {
    /// The workload for input `seed`, gated on the recorded digest, which
    /// its reference run must reproduce.
    fn new(seed: u64) -> Result<Self, String> {
        let mut deep = Self::unchecked(seed);
        deep.reference = recorded_digest("fleet-deep", seed)?;
        check_digest(
            "fleet-deep reference run",
            deep.reference_run().0,
            deep.reference,
        )?;
        Ok(deep)
    }

    fn unchecked(seed: u64) -> Self {
        let config = FleetConfig {
            policy: Policy::Sjf,
            seed,
            link_budget: 64,
            ..FleetConfig::default()
        };
        FleetDeep {
            seed,
            config,
            reference: 0,
        }
    }

    /// The reference op through `run_fleet_sharded` on one shard: its
    /// digest, and the inputs and history it leaves.
    fn reference_run(&self) -> (u64, Workload, HistoryStore) {
        let workload = Workload::synthetic(DEEP_JOBS, self.seed);
        let mut history = preload_history(self.seed, DEEP_RECORDS);
        let out = run_fleet_sharded(&workload, &self.config, &mut history, 1);
        (fleet_digest(&out), workload, history)
    }
}

impl Bench for FleetDeep {
    fn op(&mut self, _index: u64, tr: &mut Tracer) -> Result<OpStats, String> {
        let op = tr.enter("op");
        let setup_span = tr.enter("setup");
        let ((workload, mut history), gen) = measure(|| {
            let w = tr.span("fleet.generate", || {
                Workload::synthetic(DEEP_JOBS, self.seed)
            });
            let h = tr.span("history.preload", || {
                preload_history(self.seed, DEEP_RECORDS)
            });
            (w, h)
        });
        let config = &self.config;
        let (sim, new) = measure(|| {
            tr.span("fleet.new", || {
                FleetSim::new(&workload, config, &mut history)
            })
        });
        tr.exit(setup_span);
        let result = run_fleet_op(sim, tr, "fleet-deep", self.reference);
        tr.exit(op);
        let (moved, run) = result?;
        Ok(OpStats {
            setup: gen + new,
            run,
            goodput_mbs: moved / run.wall_s,
        })
    }

    fn layer_metrics(&self, tr: &Tracer) -> (Vec<Metric>, Vec<(String, String)>) {
        let mut m = fleet_layer_metrics(tr);
        let workload = Workload::synthetic(DEEP_JOBS, self.seed);
        let (plan, plan_t) = measure(|| ShardPlan::compute(&workload));
        m.push(Metric::new("shard.components", plan.len() as f64, "count"));
        m.push(Metric::new("shard.plan_s", plan_t.wall_s, "s"));
        let missing = vec![
            na(
                "shard.tick_p50_us",
                "fleet-deep runs one FleetSim on one thread; no shard pool",
            ),
            na(
                "shard.tick_p99_us",
                "fleet-deep runs one FleetSim on one thread; no shard pool",
            ),
            na(
                "shard.parallelism",
                "fleet-deep runs one FleetSim on one thread; no shard pool",
            ),
            na("checkpoint.*", "fleet-deep writes no checkpoints"),
            na("gridftp.put_*", "fleet-deep moves no socket bytes"),
        ];
        (m, missing)
    }

    fn scale(&self) -> Result<Scale, String> {
        let (_, queue, history) = self.reference_run();
        Ok(Scale {
            queue,
            links: 3,
            budget: self.config.link_budget,
            policy: self.config.policy,
            history,
        })
    }
}

fn na(metric: &str, reason: &str) -> (String, String) {
    (metric.to_string(), reason.to_string())
}

// --------------------------------------------------------------- fleet-sites

/// Eight independent sites on two shard workers, checkpointed into an
/// in-memory journal, killed at mid-horizon, and resumed on one shard.
struct FleetSites {
    seed: u64,
    config: FleetConfig,
    reference: u64,
    kill_tick: u64,
}

impl FleetSites {
    fn new(seed: u64) -> Self {
        let mut sites = FleetSites {
            seed,
            config: FleetConfig {
                seed,
                ..FleetConfig::default()
            },
            reference: 0,
            kill_tick: 0,
        };
        let (reference, ticks, _, _) = sites.reference_run();
        sites.reference = reference;
        sites.kill_tick = (ticks / 2).max(1);
        sites
    }

    /// The uninterrupted single-shard run: its digest, its length in ticks
    /// (which places the kill at mid-run), and its inputs and history.
    fn reference_run(&self) -> (u64, u64, Workload, HistoryStore) {
        let workload = Workload::synthetic_sites(SITES_JOBS, self.seed, SITES);
        let mut history = HistoryStore::in_memory();
        let mut sim = ShardedFleetSim::new(&workload, &self.config, &mut history, 1);
        while sim.run_ticks(1024) > 0 {}
        let ticks = sim.tick_index();
        let digest = fleet_digest(&sim.finish());
        (digest, ticks, workload, history)
    }
}

impl Bench for FleetSites {
    fn op(&mut self, _index: u64, tr: &mut Tracer) -> Result<OpStats, String> {
        let op = tr.enter("op");
        let setup_span = tr.enter("setup");
        let mut history = HistoryStore::in_memory();
        let config = &self.config;
        let seed = self.seed;
        let (mut sim, setup) = measure(|| {
            let w = tr.span("fleet.generate", || {
                Workload::synthetic_sites(SITES_JOBS, seed, SITES)
            });
            tr.span("shard.new", || {
                ShardedFleetSim::new(&w, config, &mut history, SITES_SHARDS)
            })
        });
        tr.exit(setup_span);
        let run_span = tr.enter("run");
        let kill = self.kill_tick;
        let mut journal = String::new();
        let mut blocks = 0u64;
        let (out, run) = measure(|| -> Result<(u64, f64), String> {
            while tr.span("shard.tick", || sim.tick()) {
                let k = sim.tick_index();
                if k >= kill {
                    break;
                }
                if k.is_multiple_of(CHECKPOINT_EVERY) {
                    journal.push_str(&tr.span("checkpoint.render", || sim.checkpoint()));
                    blocks += 1;
                }
            }
            // The kill: a final checkpoint, then the process state is gone.
            journal.push_str(&tr.span("checkpoint.render", || sim.checkpoint()));
            blocks += 1;
            drop(sim);
            let read = tr.span("checkpoint.parse", || parse_journal(&journal))?;
            if read.salvaged() || read.checkpoint.tick != kill {
                return Err(format!(
                    "journal read back tick {} ({} blocks dropped), wrote tick {kill}",
                    read.checkpoint.tick, read.blocks_dropped
                ));
            }
            let mut fresh = HistoryStore::in_memory();
            let out = tr.span("checkpoint.resume", || {
                resume_fleet_sharded(&read.checkpoint, &mut fresh, 1)
            })?;
            let digest = tr.span("fleet.render", || fleet_digest(&out));
            Ok((digest, out.report.total_moved_mb()))
        });
        tr.exit(run_span);
        tr.exit(op);
        let (digest, moved) = out?;
        check_digest("fleet-sites resumed run", digest, self.reference)?;
        tr.add("checkpoint.count", blocks as f64);
        tr.add("checkpoint.bytes", journal.len() as f64);
        Ok(OpStats {
            setup,
            run,
            goodput_mbs: moved / run.wall_s,
        })
    }

    fn layer_metrics(&self, tr: &Tracer) -> (Vec<Metric>, Vec<(String, String)>) {
        let spans = tr.spans();
        let ops = traced_ops(tr);
        let tick_us = micros(spans, "shard.tick");
        let (tick_wall, tick_cpu) = totals(spans, "shard.tick");
        let workload = Workload::synthetic_sites(SITES_JOBS, self.seed, SITES);
        let (plan, plan_t) = measure(|| ShardPlan::compute(&workload));
        let render_us = micros(spans, "checkpoint.render");
        let m = vec![
            Metric::new("fleet.ticks", tick_us.len() as f64 / ops, "count"),
            Metric::new("shard.components", plan.len() as f64, "count"),
            Metric::new("shard.plan_s", plan_t.wall_s, "s"),
            Metric::new("shard.new_s", median(&durations(spans, "shard.new")), "s"),
            Metric::new("shard.tick_p50_us", quantile(&tick_us, 0.5), "us"),
            Metric::new("shard.tick_p99_us", quantile(&tick_us, 0.99), "us"),
            Metric::new("shard.parallelism", tick_cpu / tick_wall, "ratio"),
            Metric::new(
                "checkpoint.count",
                tr.counter("checkpoint.count") / ops,
                "count",
            ),
            Metric::new(
                "checkpoint.bytes",
                tr.counter("checkpoint.bytes") / ops,
                "bytes",
            ),
            Metric::new("checkpoint.render_us", median(&render_us), "us"),
            Metric::new(
                "checkpoint.parse_s",
                median(&durations(spans, "checkpoint.parse")),
                "s",
            ),
            Metric::new(
                "checkpoint.resume_s",
                median(&durations(spans, "checkpoint.resume")),
                "s",
            ),
            Metric::new(
                "fleet.render_s",
                median(&durations(spans, "fleet.render")),
                "s",
            ),
        ];
        let hidden = "ShardedFleetSim exposes neither its component FleetSims nor their worlds";
        let missing = vec![
            na(
                "fleet.new_s",
                "component sims are built inside ShardedFleetSim::new (see shard.new_s)",
            ),
            na(
                "fleet.tick_*",
                "component ticks run inside the shard pool (see shard.tick_*)",
            ),
            na("net.*", hidden),
            na("transfer.*", hidden),
            na("gridftp.put_*", "fleet-sites moves no socket bytes"),
        ];
        (m, missing)
    }

    /// One site's queue: each component sim sees only its own site's jobs.
    fn scale(&self) -> Result<Scale, String> {
        let (_, _, workload, history) = self.reference_run();
        let site0 = workload.jobs().iter().filter(|j| j.site == 0).cloned();
        Ok(Scale {
            queue: Workload::new(site0.collect()),
            links: 3,
            budget: self.config.link_budget,
            policy: self.config.policy,
            history,
        })
    }
}

// -------------------------------------------------------------- planet-chaos

/// The mesh planet under the rolling-outage campaign with the self-healing
/// control plane on.
struct PlanetChaos {
    config: FleetConfig,
    /// The digest `digests.txt` records for the input seed.
    reference: u64,
}

/// The planet inputs a `fleet run --topo` builds before its first tick.
fn planet_inputs(tr: &mut Tracer) -> Result<Workload, String> {
    let planet = Planet::preset("mesh").map_err(|e| e.to_string())?;
    let cfg = SearchConfig {
        k: CHAOS_K,
        ..SearchConfig::default()
    };
    let placement = tr
        .span("topo.search", || search_routes(&planet, &cfg))
        .map_err(|e| e.to_string())?;
    let catalog = tr
        .span("topo.catalog", || RouteCatalog::enumerate(&planet, CHAOS_K))
        .map_err(|e| e.to_string())?;
    Ok(tr.span("fleet.generate", || {
        topo_workload(&placement, &catalog, CHAOS_JOBS)
    }))
}

impl PlanetChaos {
    /// The workload for input `seed`, gated on the recorded digest, which
    /// its reference run must reproduce.
    fn new(seed: u64) -> Result<Self, String> {
        let mut chaos = Self::unchecked(seed);
        chaos.reference = recorded_digest("planet-chaos", seed)?;
        check_digest(
            "planet-chaos reference run",
            chaos.reference_run()?.0,
            chaos.reference,
        )?;
        Ok(chaos)
    }

    fn unchecked(seed: u64) -> Self {
        let topo = TopoFleetConfig {
            k: CHAOS_K,
            campaign: Some("rolling-outage".to_string()),
            selfheal: true,
            ..TopoFleetConfig::preset("mesh")
        };
        let config = FleetConfig {
            seed,
            topo: Some(topo),
            ..FleetConfig::default()
        };
        PlanetChaos {
            config,
            reference: 0,
        }
    }

    /// The reference op through `run_fleet_sharded` on one shard: its
    /// digest, and the inputs and history it leaves.
    fn reference_run(&self) -> Result<(u64, Workload, HistoryStore), String> {
        let workload = planet_inputs(&mut Tracer::new(false))?;
        let mut history = HistoryStore::in_memory();
        let out = run_fleet_sharded(&workload, &self.config, &mut history, 1);
        Ok((fleet_digest(&out), workload, history))
    }
}

impl Bench for PlanetChaos {
    fn op(&mut self, _index: u64, tr: &mut Tracer) -> Result<OpStats, String> {
        let op = tr.enter("op");
        let setup_span = tr.enter("setup");
        let mut history = HistoryStore::in_memory();
        let config = &self.config;
        let (sim, setup) = measure(|| -> Result<FleetSim<'_>, String> {
            let workload = planet_inputs(tr)?;
            Ok(tr.span("fleet.new", || {
                FleetSim::new(&workload, config, &mut history)
            }))
        });
        tr.exit(setup_span);
        let result = sim.and_then(|sim| run_fleet_op(sim, tr, "planet-chaos", self.reference));
        tr.exit(op);
        let (moved, run) = result?;
        Ok(OpStats {
            setup,
            run,
            goodput_mbs: moved / run.wall_s,
        })
    }

    fn layer_metrics(&self, tr: &Tracer) -> (Vec<Metric>, Vec<(String, String)>) {
        let mut m = fleet_layer_metrics(tr);
        let spans = tr.spans();
        m.push(Metric::new(
            "topo.setup_search_s",
            median(&durations(spans, "topo.search")),
            "s",
        ));
        m.push(Metric::new(
            "topo.setup_catalog_s",
            median(&durations(spans, "topo.catalog")),
            "s",
        ));
        let missing = vec![
            na("shard.*", "planet-chaos is one component and runs inline"),
            na("checkpoint.*", "planet-chaos writes no checkpoints"),
            na("gridftp.put_*", "planet-chaos moves no socket bytes"),
        ];
        (m, missing)
    }

    fn scale(&self) -> Result<Scale, String> {
        let (_, queue, history) = self.reference_run()?;
        let links = FleetSim::new(&queue, &self.config, &mut HistoryStore::in_memory())
            .world()
            .net()
            .link_count();
        Ok(Scale {
            queue,
            links,
            budget: self.config.link_budget,
            policy: self.config.policy,
            history,
        })
    }
}

// ---------------------------------------------------------------- socket-put

/// GridFTP EBLOCK puts of a fixed payload over loopback, one after another.
struct SocketPut {
    seed: u64,
}

impl SocketPut {
    fn new(seed: u64) -> Result<Self, String> {
        let mut s = SocketPut { seed };
        // Warm-up put: faults in the socket buffers and payload pages.
        s.op(u64::MAX, &mut Tracer::new(false))?;
        Ok(s)
    }
}

impl Bench for SocketPut {
    fn op(&mut self, index: u64, tr: &mut Tracer) -> Result<OpStats, String> {
        let op = tr.enter("op");
        let (server, setup) = measure(|| tr.span("gridftp.server_start", GridFtpServer::start));
        let server = server.map_err(|e| format!("server start: {e}"));
        let result = server.and_then(|server| {
            let cfg = PutConfig::new(format!("perfbench-{}-{index}", self.seed), PUT_BYTES)
                .with_parallelism(PUT_NP);
            let (rep, run) = measure(|| tr.span("gridftp.put", || client::put(server.control_addr(), cfg)));
            let rep = rep.map_err(|e| format!("put: {e}"))?;
            if !(rep.complete && rep.verified && rep.bytes_sent == PUT_BYTES) {
                return Err(format!(
                    "put incomplete or unverified: complete={} verified={} bytes_sent={} of {PUT_BYTES}",
                    rep.complete, rep.verified, rep.bytes_sent
                ));
            }
            Ok(OpStats {
                setup,
                run,
                goodput_mbs: rep.bytes_sent as f64 / 1e6 / rep.elapsed_s,
            })
        });
        tr.exit(op);
        tr.add("gridftp.puts", 1.0);
        if result.is_err() {
            tr.add("gridftp.put_failed", 1.0);
        }
        result
    }

    fn layer_metrics(&self, tr: &Tracer) -> (Vec<Metric>, Vec<(String, String)>) {
        let m = vec![
            Metric::new("gridftp.puts", tr.counter("gridftp.puts"), "count"),
            Metric::new(
                "gridftp.put_failed",
                tr.counter("gridftp.put_failed"),
                "count",
            ),
            Metric::new(
                "gridftp.put_p50_s",
                median(&durations(tr.spans(), "gridftp.put")),
                "s",
            ),
            Metric::new(
                "gridftp.put_server_start_s",
                median(&durations(tr.spans(), "gridftp.server_start")),
                "s",
            ),
        ];
        let missing = vec![
            na("fleet.*", "socket-put runs no simulator"),
            na("shard.*", "socket-put runs no simulator"),
            na("checkpoint.*", "socket-put runs no simulator"),
            na("net.*", "socket-put runs no simulator"),
            na("transfer.*", "socket-put runs no simulator"),
        ];
        (m, missing)
    }

    /// No queue or history: the orchestrator probes run on a one-job
    /// queue and an empty store, under the CLI's default budget and policy.
    fn scale(&self) -> Result<Scale, String> {
        let defaults = FleetConfig::default();
        Ok(Scale {
            queue: Workload::synthetic(1, self.seed),
            links: 3,
            budget: defaults.link_budget,
            policy: defaults.policy,
            history: HistoryStore::in_memory(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_gate_rejects_one_flipped_byte() {
        let out = run_fleet_sharded(
            &Workload::synthetic(6, 3),
            &FleetConfig::default(),
            &mut HistoryStore::in_memory(),
            1,
        );
        let report = out.report.render();
        let csv = out.report.to_csv();
        let want = fleet_digest(&out);
        assert!(check_digest("same", digest_text(&report, &csv), want).is_ok());
        for pos in [0, report.len() / 2, report.len() - 1] {
            let mut bytes = report.clone().into_bytes();
            bytes[pos] ^= 0x01;
            let flipped = String::from_utf8(bytes).expect("flipping bit 0 of ASCII stays ASCII");
            assert!(
                check_digest("flipped", digest_text(&flipped, &csv), want).is_err(),
                "flip at byte {pos} passed the gate"
            );
        }
        let mut csv_bytes = csv.clone().into_bytes();
        csv_bytes[csv.len() / 2] ^= 0x01;
        let csv_flipped = String::from_utf8(csv_bytes).expect("ASCII");
        assert!(check_digest("csv", digest_text(&report, &csv_flipped), want).is_err());
    }

    #[test]
    fn input_seeds_stay_in_the_recorded_pool() {
        for name in ["fleet-deep", "planet-chaos"] {
            let p = pool(name).expect("pooled");
            for seed in [0, 1, 3, 4, 17, u64::MAX] {
                let mut s = input_seeds(name, seed);
                assert_eq!(s.len() as u64, subseeds(name));
                s.sort_unstable();
                s.dedup();
                assert_eq!(s.len() as u64, subseeds(name), "{name} {seed}");
                for input in s {
                    assert!(input < p);
                    recorded_digest(name, input).expect("every pooled input is recorded");
                }
            }
        }
        assert!(recorded_digest("fleet-deep", 16).is_err());
        assert_eq!(input_seeds("socket-put", 7), vec![7]);
    }

    #[test]
    fn this_build_reproduces_the_recorded_digests() {
        FleetDeep::new(3).expect("fleet-deep input 3");
        PlanetChaos::new(3).expect("planet-chaos input 3");
    }

    #[test]
    fn preloaded_history_is_seeded() {
        let a = preload_history(5, 50);
        let b = preload_history(5, 50);
        let c = preload_history(6, 50);
        assert_eq!(a.records(), b.records());
        assert_ne!(a.records(), c.records());
        assert_eq!(a.len(), 50);
    }
}
