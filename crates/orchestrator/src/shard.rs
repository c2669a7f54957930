//! Sharded parallel fleet execution (DESIGN.md §15).
//!
//! Jobs whose flows share no link are independent under max–min allocation:
//! progressive filling never lets one component's flows change another's
//! fair share. [`ShardPlan`] partitions a workload by connected component of
//! the link-sharing graph (union-find over each job's `(site, link)` keys,
//! via [`xferopt_net::connected_groups`]); every component becomes its own
//! [`FleetSim`] with a site-derived world seed, and [`ShardedFleetSim`]
//! steps the components and merges their outputs with deterministic
//! ordering keys:
//!
//! * outcomes and decision logs sort by job id;
//! * telemetry epochs stable-merge by epoch start time (component order
//!   breaks ties);
//! * supervision events stable-merge by event time;
//! * summary counters add; the metrics are rendered after the merge, from
//!   the merged supervision events and the history store's skipped-line
//!   count;
//! * per-tick history appends flush to the backing store sorted by job id.
//!
//! The decomposition and every merge key are pure functions of the
//! workload, so **the byte output is independent of the shard count** —
//! `--shards 8` replays exactly what `--shards 1` produces, and a
//! single-component workload reproduces the bytes of its one [`FleetSim`]
//! stepped on its own (the merge degenerates to passthrough). This is the
//! fleet's only run, checkpoint and resume path: checkpoints (written by
//! `checkpoint::CheckpointWriter`) take their digest over the
//! per-component state digests joined in component order, so a run
//! checkpointed under `--shards 4` can resume under any other shard count
//! ([`resume_fleet_sharded`]).
//!
//! Execution is one function. A single tick, or a one-worker budget, steps
//! the components inline in component order. A batch of ticks
//! ([`ShardedFleetSim::run_ticks`]) splits the components into contiguous
//! chunks, one per `std::thread::scope` thread, and each thread runs its
//! chunk through the whole batch. Results are collected in component order,
//! so parallelism never reorders anything observable.

use std::{panic, thread};

use crate::checkpoint::{fnv1a, verify_replay, Checkpoint, CheckpointWriter};
use crate::fleet::{FleetConfig, FleetOutcome, FleetParts, FleetSim};
use crate::history::{HistoryRecord, HistoryStore};
use crate::job::{JobId, JobSpec, Workload};
use xferopt_net::connected_groups;

/// The workload split by connected component of the link-sharing graph.
///
/// Component `i` holds every job whose route links are (transitively)
/// connected to component `i`'s links within the same site; components are
/// numbered by first appearance in the `(arrival, id)`-sorted job order, so
/// the plan is a pure function of the workload.
#[derive(Debug)]
pub struct ShardPlan {
    components: Vec<Workload>,
}

impl ShardPlan {
    /// Partition `workload` by link-sharing component.
    ///
    /// Each job contributes the actual link list of its route keyed by site
    /// (sites are independent replicas of the same topology, so links on
    /// different sites never alias; the site stride is the global
    /// max-link-index + 1 so keys can never collide across sites). Within the
    /// classic paper topology every route crosses the shared source NIC, so
    /// components coincide with sites — multi-hop catalog routes shard by
    /// whatever the link-sharing graph actually says.
    #[must_use]
    pub fn compute(workload: &Workload) -> ShardPlan {
        let stride = workload
            .jobs()
            .iter()
            .flat_map(|j| j.route.links().iter().copied())
            .max()
            .map_or(1, |m| m + 1);
        let items: Vec<Vec<usize>> = workload
            .jobs()
            .iter()
            .map(|j| {
                let base = j.site as usize * stride;
                j.route.links().iter().map(|&l| base + l).collect()
            })
            .collect();
        let groups = connected_groups(&items);
        let ncomps = groups.iter().copied().max().map_or(0, |m| m + 1);
        let mut buckets: Vec<Vec<JobSpec>> = vec![Vec::new(); ncomps];
        for (j, g) in workload.jobs().iter().zip(&groups) {
            buckets[*g].push(j.clone());
        }
        ShardPlan {
            components: buckets.into_iter().map(Workload::new).collect(),
        }
    }

    /// The per-component workloads, in component order.
    #[must_use]
    pub fn components(&self) -> &[Workload] {
        &self.components
    }

    /// Number of components.
    #[must_use]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True when the workload was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

/// History appends from one batch, tagged `(tick offset, job id, record)` —
/// the offset is 1-based into the batch so the runner can flush them in
/// global `(tick, job id)` order.
type TickAppends = Vec<(u64, JobId, HistoryRecord)>;

/// Tick one component up to `max` times (stopping early when it finishes).
/// Returns the ticks advanced and every history append tagged with the tick
/// it happened on, so the runner can flush the global per-tick job-id order
/// regardless of batch size.
fn run_comp(sim: &mut FleetSim<'static>, max: u64) -> (u64, TickAppends) {
    let mut appends = Vec::new();
    let mut advanced = 0;
    while advanced < max {
        if !sim.tick() {
            break;
        }
        advanced += 1;
        for (id, rec) in sim.take_tick_appends() {
            appends.push((advanced, id, rec));
        }
    }
    (advanced, appends)
}

/// Run every component up to `max` ticks and return the results in
/// component order. A single worker or a single tick steps inline; a batch
/// fans out over `workers` scoped threads, each owning a contiguous chunk of
/// components for the whole batch. A panicking worker re-raises its own
/// payload on the caller's thread.
fn run_all(sims: &mut [FleetSim<'static>], workers: usize, max: u64) -> Vec<(u64, TickAppends)> {
    if workers <= 1 || max == 1 {
        return sims.iter_mut().map(|s| run_comp(s, max)).collect();
    }
    let chunk = sims.len().div_ceil(workers);
    thread::scope(|scope| {
        let handles: Vec<_> = sims
            .chunks_mut(chunk)
            .map(|c| {
                scope.spawn(move || c.iter_mut().map(|s| run_comp(s, max)).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| panic::resume_unwind(p)))
            .collect()
    })
}

/// A fleet run sharded by link-sharing component. It steps one global tick
/// at a time or in batches ([`ShardedFleetSim::run_ticks`]); see the module
/// docs for the determinism argument.
pub struct ShardedFleetSim<'h> {
    config: FleetConfig,
    writer: CheckpointWriter,
    history: &'h mut HistoryStore,
    sims: Vec<FleetSim<'static>>,
    workers: usize,
    tick: u64,
    t: f64,
    done: bool,
    history_appended: usize,
}

impl<'h> ShardedFleetSim<'h> {
    /// Build the sharded simulation at tick 0. `shards` is the worker-thread
    /// budget for batched runs: a batch of ticks runs on
    /// `min(shards, components)` scoped threads, while single ticks and
    /// `shards <= 1` step every component inline. The byte output is the
    /// same either way.
    ///
    /// # Panics
    /// Panics when the config fails [`FleetConfig::validate`].
    pub fn new(
        workload: &Workload,
        config: &FleetConfig,
        history: &'h mut HistoryStore,
        shards: usize,
    ) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid fleet config: {e}");
        }
        let plan = ShardPlan::compute(workload);
        let mut components = plan.components;
        if components.is_empty() {
            // Degenerate empty workload: keep one empty component so the
            // finish path still renders a (trivially empty) report through
            // the one formatter.
            components.push(Workload::new(Vec::new()));
        }
        let sims: Vec<FleetSim<'static>> = components
            .iter()
            .map(|w| FleetSim::new_owned(w, config, history.shard_snapshot()))
            .collect();
        ShardedFleetSim {
            config: config.clone(),
            writer: CheckpointWriter::new(workload.jobs().to_vec(), history.len()),
            history,
            workers: shards.min(sims.len()),
            sims,
            tick: 0,
            t: 0.0,
            done: false,
            history_appended: 0,
        }
    }

    /// Global ticks completed so far.
    #[must_use]
    pub fn tick_index(&self) -> u64 {
        self.tick
    }

    /// History records appended so far across all components.
    #[must_use]
    pub fn history_appended(&self) -> usize {
        self.history_appended
    }

    /// Toggle persistence on the backing history store (checkpoint replay
    /// runs with it off; component stores are always memory-only snapshots).
    pub fn set_history_persist(&mut self, persist: bool) {
        self.history.set_persist(persist);
    }

    /// Advance every live component one tick on the caller's thread, then
    /// flush their history appends to the backing store in job-id order. Returns `false` once all components are done;
    /// the final call advances nothing, exactly like [`FleetSim::tick`].
    pub fn tick(&mut self) -> bool {
        self.run_ticks(1) == 1
    }

    /// Advance up to `max` global ticks and return the ticks actually
    /// advanced (0 once done). Components are independent, so each runs the
    /// whole batch without synchronizing (on its worker thread when
    /// `max > 1`); the runner then flushes history appends in
    /// `(tick, job id)` order — byte-identical to ticking one at a time.
    /// Batching only amortizes thread start-up; digests and checkpoints are
    /// taken at batch boundaries.
    pub fn run_ticks(&mut self, max: u64) -> u64 {
        if self.done || max == 0 {
            return 0;
        }
        let results = run_all(&mut self.sims, self.workers, max);
        let advanced = results.iter().map(|(a, _)| *a).max().unwrap_or(0);
        if advanced == 0 {
            self.done = true;
            return 0;
        }
        let mut appends: Vec<(u64, JobId, HistoryRecord)> =
            results.into_iter().flat_map(|(_, ap)| ap).collect();
        appends.sort_by_key(|(off, id, _)| (*off, *id));
        for (_, _, rec) in appends {
            self.history.append(rec).expect("history append");
            self.history_appended += 1;
        }
        self.tick += advanced;
        // Repeated addition, not multiplication: keeps `t` bit-identical to
        // the tick-at-a-time path (and to each component FleetSim's clock).
        for _ in 0..advanced {
            self.t += self.config.tick_s;
        }
        if advanced < max {
            // Every component stopped before exhausting the batch: done.
            self.done = true;
        }
        advanced
    }

    /// Deterministic digest of the live state: the per-component digests
    /// joined with `\n` in component order (for one component this is that
    /// component's digest verbatim).
    pub fn state_digest(&self) -> String {
        self.sims
            .iter()
            .map(FleetSim::state_digest)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// FNV-1a hash of [`ShardedFleetSim::state_digest`]. Shard-count
    /// independent, so a checkpoint resumes under any `--shards`.
    pub fn digest_hash(&self) -> u64 {
        fnv1a(&self.state_digest())
    }

    /// Serialize a replay-based checkpoint at the current global tick
    /// (DESIGN.md §12). It records the full workload, so resume recomputes
    /// the shard plan from it.
    pub fn checkpoint(&self) -> String {
        self.writer.render(
            &self.config,
            self.tick,
            self.t,
            self.done,
            self.history_appended,
            self.digest_hash(),
        )
    }

    /// Close out all components and merge their parts into one outcome.
    pub fn finish(self) -> FleetOutcome {
        let parts = self.sims.into_iter().map(FleetSim::finish_parts).collect();
        merge_parts(self.writer.jobs(), self.history_appended, parts).into_outcome()
    }
}

/// Merge per-component [`FleetParts`] in component order with the
/// deterministic keys from the module docs. A single component passes
/// through untouched, which is what keeps single-component sharded runs
/// byte-identical to their one [`FleetSim`] stepped on its own.
fn merge_parts(submitted: usize, history_appended: usize, parts: Vec<FleetParts>) -> FleetParts {
    let mut it = parts.into_iter();
    let mut merged = it.next().expect("at least one component");
    merged.submitted = submitted;
    merged.history_appended = history_appended;
    for p in it {
        merged.outcomes.extend(p.outcomes);
        merged.decisions.extend(p.decisions);
        merged.telemetry.extend(p.telemetry);
        merged.events.extend(p.events);
        merged.outcomes.sort_by_key(|o| o.id);
        merged.decisions.sort_by_key(|(id, _)| *id);
        // Stable sorts: ties keep component order (concat order above).
        merged
            .telemetry
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite epoch start"));
        merged
            .events
            .sort_by(|a, b| a.t_s.partial_cmp(&b.t_s).expect("finite event time"));
    }
    merged
}

/// Ticks per [`ShardedFleetSim::run_ticks`] batch when nothing needs the
/// run to stop in between.
const BATCH: u64 = 1024;

/// Run `workload` sharded by link-sharing component, in batches on up to
/// `shards` worker threads. Byte-identical output for every `shards` value.
pub fn run_fleet_sharded(
    workload: &Workload,
    config: &FleetConfig,
    history: &mut HistoryStore,
    shards: usize,
) -> FleetOutcome {
    let mut sim = ShardedFleetSim::new(workload, config, history, shards);
    while sim.run_ticks(BATCH) > 0 {}
    sim.finish()
}

/// Resume a killed run from `ck`: rewind the in-memory history store to the
/// run's starting length (the backing file already holds the pre-checkpoint
/// appends), replay ticks `0..ck.tick` (plus the closing tick of a finished
/// run) with history persistence off, verify the state digest, cut the
/// backing file back to the checkpoint's records (the killed run, or an
/// earlier resume, may have written past it), then run to completion with
/// persistence back on. Byte-identical to the uninterrupted run, in the
/// report and in the history file. The checkpoint format and digest are
/// shard-count independent, so `shards` may differ from the killed run's.
/// The replay to `ck.tick` is one batch, then the run continues in batches.
///
/// # Errors
/// Returns an error when the replay finishes early (checkpoint from a
/// different workload/config) or the digest or append count mismatches
/// (corrupt checkpoint, or writer/reader drift), or when the history file
/// cannot be cut back.
pub fn resume_fleet_sharded(
    ck: &Checkpoint,
    history: &mut HistoryStore,
    shards: usize,
) -> Result<FleetOutcome, String> {
    history.truncate(ck.history_start_len);
    let mut sim = ShardedFleetSim::new(&ck.workload, &ck.config, history, shards);
    sim.set_history_persist(false);
    sim.run_ticks(ck.tick);
    if ck.done {
        sim.run_ticks(1);
    }
    verify_replay(
        ck,
        sim.tick_index(),
        sim.digest_hash(),
        sim.history_appended(),
    )?;
    sim.history
        .truncate_file(ck.history_start_len + ck.history_appended)
        .map_err(|e| format!("cannot cut the history file back to the checkpoint: {e}"))?;
    sim.set_history_persist(true);
    while sim.run_ticks(BATCH) > 0 {}
    Ok(sim.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;

    fn cfg() -> FleetConfig {
        FleetConfig {
            policy: Policy::Sjf,
            seed: 11,
            horizon_s: 3.0 * 3600.0,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn plan_groups_by_site() {
        let wl = Workload::synthetic_sites(12, 5, 3);
        let plan = ShardPlan::compute(&wl);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        let total: usize = plan.components().iter().map(Workload::len).sum();
        assert_eq!(total, 12);
        for comp in plan.components() {
            let site = comp.jobs()[0].site;
            assert!(comp.jobs().iter().all(|j| j.site == site));
        }
        // Component order follows first appearance in (arrival, id) order.
        assert_eq!(plan.components()[0].jobs()[0].site, wl.jobs()[0].site);
    }

    #[test]
    fn three_hop_route_shards_into_one_component() {
        use crate::route::JobRoute;
        // Two jobs on disjoint 3-hop routes plus one bridging route: the
        // bridge shares link 5 with the first and link 9 with the second, so
        // all three jobs must land in a single component. Link keys derive
        // from the actual route link lists, not any `site*8 + link`
        // arithmetic — link 9 would alias into site 1 under an 8-stride.
        let a = JobSpec::new(0, 0.0, 100.0).with_route(JobRoute::new("a", vec![0, 5, 7], 0));
        let b = JobSpec::new(1, 0.0, 100.0).with_route(JobRoute::new("b", vec![1, 9, 11], 1));
        let bridge = JobSpec::new(2, 0.0, 100.0).with_route(JobRoute::new("c", vec![5, 9], 2));
        let plan = ShardPlan::compute(&Workload::new(vec![a.clone(), b.clone(), bridge]));
        assert_eq!(plan.len(), 1, "bridged 3-hop routes form one component");
        // Without the bridge the two routes are independent components.
        let plan = ShardPlan::compute(&Workload::new(vec![a.clone(), b.clone()]));
        assert_eq!(plan.len(), 2);
        // Same routes on different sites never alias, whatever the links.
        let plan = ShardPlan::compute(&Workload::new(vec![a, b.with_site(1)]));
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn single_site_is_one_component() {
        let wl = Workload::synthetic(8, 3);
        let plan = ShardPlan::compute(&wl);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.components()[0].len(), 8);
    }

    #[test]
    fn single_component_matches_plain_run_fleet() {
        let wl = Workload::synthetic(8, 3);
        let config = cfg();
        let mut h1 = HistoryStore::in_memory();
        let mut h2 = HistoryStore::in_memory();
        let plain = {
            let mut sim = FleetSim::new(&wl, &config, &mut h1);
            while sim.tick() {}
            sim.finish()
        };
        let sharded = run_fleet_sharded(&wl, &config, &mut h2, 1);
        assert_eq!(plain.report.render(), sharded.report.render());
        assert_eq!(plain.report.to_csv(), sharded.report.to_csv());
        assert_eq!(plain.telemetry_jsonl, sharded.telemetry_jsonl);
        assert_eq!(plain.decisions_jsonl, sharded.decisions_jsonl);
        assert_eq!(plain.supervision_jsonl, sharded.supervision_jsonl);
        assert_eq!(plain.metrics_jsonl, sharded.metrics_jsonl);
        assert_eq!(plain.history_appended, sharded.history_appended);
        assert_eq!(h1.len(), h2.len());
    }

    #[test]
    fn shard_counts_are_byte_identical_multi_site() {
        let wl = Workload::synthetic_sites(10, 7, 4);
        let config = cfg();
        let mut base = HistoryStore::in_memory();
        let reference = run_fleet_sharded(&wl, &config, &mut base, 1);
        for shards in [2, 4, 8] {
            let mut h = HistoryStore::in_memory();
            let out = run_fleet_sharded(&wl, &config, &mut h, shards);
            assert_eq!(reference.report.render(), out.report.render(), "{shards}");
            assert_eq!(reference.telemetry_jsonl, out.telemetry_jsonl, "{shards}");
            assert_eq!(reference.metrics_jsonl, out.metrics_jsonl, "{shards}");
            assert_eq!(base.len(), h.len(), "{shards}");
        }
    }

    #[test]
    fn batched_ticks_match_tick_at_a_time() {
        let wl = Workload::synthetic_sites(10, 7, 4);
        let config = cfg();
        let mut h1 = HistoryStore::in_memory();
        let reference = run_fleet_sharded(&wl, &config, &mut h1, 1);
        let mut h2 = HistoryStore::in_memory();
        let mut sim = ShardedFleetSim::new(&wl, &config, &mut h2, 4);
        // Uneven batch sizes on purpose: boundaries must not matter.
        for batch in [1u64, 7, 64, 3, 1000] {
            sim.run_ticks(batch);
        }
        while sim.run_ticks(97) > 0 {}
        let out = sim.finish();
        assert_eq!(reference.report.render(), out.report.render());
        assert_eq!(reference.telemetry_jsonl, out.telemetry_jsonl);
        assert_eq!(reference.history_appended, out.history_appended);
        assert_eq!(
            h1.records().iter().map(|r| r.to_json()).collect::<Vec<_>>(),
            h2.records().iter().map(|r| r.to_json()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_workload_finishes_immediately() {
        let wl = Workload::new(Vec::new());
        let mut h = HistoryStore::in_memory();
        let out = run_fleet_sharded(&wl, &cfg(), &mut h, 4);
        assert_eq!(out.report.submitted, 0);
        assert!(out.report.outcomes.is_empty());
    }
}
