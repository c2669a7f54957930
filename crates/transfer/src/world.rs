//! The steppable transfer world: hosts + network + running transfers.
//!
//! A [`World`] integrates a fluid simulation in which every registered
//! transfer moves data at
//!
//! ```text
//! goodput = min(net_allocation, cpu_cap) · csw_efficiency · noise
//! ```
//!
//! where the network allocation comes from `xferopt-net` (AIMD-derated
//! max–min sharing) and the CPU terms from `xferopt-host` (fair-share
//! scheduling against compute hogs and other transfers). Restarting a
//! transfer — which the paper's tuners do at *every* control epoch — zeroes
//! its streams for the startup duration, so competitors transiently inherit
//! its bandwidth, exactly as on a real endpoint.

use crate::noise::NoiseProcess;
use crate::params::StreamParams;
use crate::report::EpochReport;
use crate::retry::RetryPolicy;
use crate::telemetry::{EpochTelemetry, WorldTelemetry};
use rand::rngs::SmallRng;
use std::collections::BTreeMap;
use xferopt_host::{AppId, AppLoad, Host, HostSpec};
use xferopt_net::dynamic::DynamicSim;
use xferopt_net::{CongestionControl, FlowId, LinkId, Network, PathId};
use xferopt_simcore::rng::SeedStream;
use xferopt_simcore::{FaultKind, FaultPlan, SimDuration, SimTime, Tracer};

/// Identifier of a host within a [`World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub usize);

/// Identifier of a transfer within a [`World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(pub u64);

/// Configuration of one transfer.
#[derive(Debug, Clone)]
pub struct TransferConfig {
    /// Source host (pays CPU and startup costs).
    pub host: HostId,
    /// Destination host, if modelled (the paper leaves the destination
    /// uncontrolled; tuning with a destination model is its future work #4).
    /// The receiver registers a mirror application there: receiving `nc×np`
    /// streams costs destination CPU too.
    pub dst_host: Option<HostId>,
    /// Network path from source to destination.
    pub path: PathId,
    /// TCP variant of the streams.
    pub cc: CongestionControl,
    /// Initial stream parameters.
    pub params: StreamParams,
    /// Data to move, in MB. Use `f64::INFINITY` for the paper's
    /// `/dev/zero → /dev/null` memory-to-memory runs.
    pub size_mb: f64,
    /// Log-std of the multiplicative throughput noise (0 disables).
    pub noise_sigma: f64,
    /// Noise correlation time, seconds.
    pub noise_tau_s: f64,
}

impl TransferConfig {
    /// A memory-to-memory transfer (infinite data) with mild noise and the
    /// Globus default parameters.
    pub fn memory_to_memory(host: HostId, path: PathId) -> Self {
        TransferConfig {
            host,
            dst_host: None,
            path,
            cc: CongestionControl::HTcp,
            params: StreamParams::globus_default(),
            size_mb: f64::INFINITY,
            noise_sigma: 0.06,
            noise_tau_s: 45.0,
        }
    }

    /// Replace the initial parameters.
    pub fn with_params(mut self, params: StreamParams) -> Self {
        self.params = params;
        self
    }

    /// Replace the data size.
    pub fn with_size_mb(mut self, size_mb: f64) -> Self {
        assert!(size_mb > 0.0, "size must be positive");
        self.size_mb = size_mb;
        self
    }

    /// Replace the noise parameters.
    pub fn with_noise(mut self, sigma: f64, tau_s: f64) -> Self {
        self.noise_sigma = sigma;
        self.noise_tau_s = tau_s;
        self
    }

    /// Replace the congestion-control variant.
    pub fn with_cc(mut self, cc: CongestionControl) -> Self {
        self.cc = cc;
        self
    }

    /// Model the destination endpoint: a mirror application is registered on
    /// `dst` so receiving costs destination CPU.
    pub fn with_dst_host(mut self, dst: HostId) -> Self {
        self.dst_host = Some(dst);
        self
    }
}

#[derive(Debug)]
struct Entry {
    host: HostId,
    flow: FlowId,
    app: AppId,
    /// Mirror application on the destination host, when modelled.
    dst: Option<(HostId, AppId)>,
    params: StreamParams,
    /// Instant the current (re)start completes; streams are down before it.
    ready_at: SimTime,
    remaining_mb: f64,
    moved_mb: f64,
    noise: NoiseProcess,
    done: bool,
    /// True while a [`FaultKind::FlowStall`] window covers this transfer.
    stalled: bool,
    /// Consecutive aborts since the transfer last moved bytes (drives the
    /// exponential backoff; resets on progress).
    attempts: u32,
    /// Total aborts suffered over the transfer's lifetime.
    retries: u64,
}

impl Entry {
    fn active_at(&self, t: SimTime) -> bool {
        !self.done && !self.stalled && t >= self.ready_at && !self.params.is_idle()
    }
}

/// Runtime state of fault injection (present only after
/// [`World::enable_faults`]).
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    policy: RetryPolicy,
    /// Jitter stream for retry backoff delays.
    rng: SmallRng,
    /// Index of the first plan event not yet examined for one-shot firing
    /// (aborts must fire exactly once).
    cursor: usize,
}

/// Handle returned by [`World::begin_epoch`], consumed by
/// [`World::end_epoch`].
#[derive(Debug, Clone, Copy)]
pub struct EpochStart {
    tid: TransferId,
    t0: SimTime,
    moved0_mb: f64,
    startup_s: f64,
    params: StreamParams,
}

/// Network fidelity mode.
#[derive(Debug)]
enum Fidelity {
    /// Quasi-static: every stream at its steady-state fair share (fast; the
    /// default, and what the figure experiments use).
    QuasiStatic,
    /// Dynamic: per-stream congestion windows evolved on a fixed sub-step
    /// (slow start, AIMD, Poisson loss) — ramp-up transients and sawtooth
    /// noise are *simulated* rather than assumed. Boxed: the sim carries
    /// reusable solver scratch buffers and dwarfs the quasi-static variant.
    Dynamic { sim: Box<DynamicSim>, dt_s: f64 },
}

/// Hosts + network + transfers, integrated in fluid steps.
#[derive(Debug)]
pub struct World {
    net: Network,
    hosts: Vec<Host>,
    transfers: BTreeMap<TransferId, Entry>,
    now: SimTime,
    seeds: SeedStream,
    next_tid: u64,
    tracer: Tracer,
    fidelity: Fidelity,
    faults: Option<FaultState>,
    telemetry: Option<WorldTelemetry>,
}

impl World {
    /// A world over a prebuilt network topology, seeded for determinism.
    pub fn new(net: Network, seed: u64) -> Self {
        World {
            net,
            hosts: Vec::new(),
            transfers: BTreeMap::new(),
            now: SimTime::ZERO,
            seeds: SeedStream::new(seed),
            next_tid: 0,
            tracer: Tracer::disabled(),
            fidelity: Fidelity::QuasiStatic,
            faults: None,
            telemetry: None,
        }
    }

    /// Turn on the flight recorder. Strictly observational: enabling
    /// telemetry draws nothing from the seed stream and never mutates
    /// simulation state, so a telemetry-enabled run moves bit-identical
    /// bytes to a disabled one (enforced by the determinism tests).
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(WorldTelemetry::new());
        }
    }

    /// The flight recorder, if enabled, with its network gauges brought up
    /// to date: they show the network as it is now, not as it was at the
    /// last epoch close.
    pub fn telemetry(&mut self) -> Option<&WorldTelemetry> {
        self.export_network_state();
        self.telemetry.as_ref()
    }

    /// Detach and return the flight recorder, leaving telemetry disabled.
    /// Its network gauges show the network as it is when taken.
    pub fn take_telemetry(&mut self) -> Option<WorldTelemetry> {
        self.export_network_state();
        self.telemetry.take()
    }

    /// Export the network's per-flow, per-link and per-path state (and the
    /// dynamic window state under [`Fidelity::Dynamic`]) into the recorder.
    /// Runs only when the recorder is read, so a caller that never reads
    /// the gauges never pays for them.
    fn export_network_state(&mut self) {
        if let Some(tel) = self.telemetry.as_mut() {
            xferopt_net::export_network(tel.registry_mut(), &self.net);
            if let Fidelity::Dynamic { sim, .. } = &self.fidelity {
                xferopt_net::export_dynamic(tel.registry_mut(), &self.net, sim);
            }
        }
    }

    /// Inject a deterministic fault plan with the default [`RetryPolicy`].
    ///
    /// Fault injection is strictly opt-in: a world that never calls this
    /// draws nothing extra from its seed stream and behaves bit-identically
    /// to one built before the fault layer existed. Because enabling faults
    /// *does* consume one seed (for retry-backoff jitter), call it at a fixed
    /// point in your setup sequence to keep runs reproducible.
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        self.enable_faults_with_policy(plan, RetryPolicy::default());
    }

    /// Inject a deterministic fault plan with an explicit [`RetryPolicy`]
    /// governing post-abort backoff.
    pub fn enable_faults_with_policy(&mut self, plan: FaultPlan, policy: RetryPolicy) {
        let rng = self.seeds.next_rng();
        self.tracer.emit(
            self.now,
            "fault",
            format!("plan enabled events={}", plan.len()),
        );
        self.faults = Some(FaultState {
            plan,
            policy,
            rng,
            cursor: 0,
        });
    }

    /// Total aborts `tid` has suffered (and retried through) so far.
    pub fn retries(&self, tid: TransferId) -> u64 {
        self.transfers[&tid].retries
    }

    /// True while a fault window currently stalls `tid`.
    pub fn is_stalled(&self, tid: TransferId) -> bool {
        self.transfers[&tid].stalled
    }

    /// Switch to the dynamic per-stream window simulation with sub-step
    /// `dt_s` seconds (50–100 ms is a good choice). Much slower than the
    /// default quasi-static mode; steady-state throughputs approximately
    /// agree, but ramp-ups after each restart are now simulated.
    ///
    /// # Panics
    /// Panics if `dt_s` is not strictly positive.
    pub fn enable_dynamic_network(&mut self, dt_s: f64) {
        assert!(dt_s > 0.0, "sub-step must be positive");
        let mut sim = Box::new(DynamicSim::new(self.seeds.next_seed()));
        sim.sync_streams(&self.net);
        self.fidelity = Fidelity::Dynamic { sim, dt_s };
    }

    /// Enable event tracing with a bounded ring buffer.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Tracer::new(capacity);
    }

    /// The tracer (read recorded events through it).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The network (read-only; mutate through world operations).
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Register a host machine.
    pub fn add_host(&mut self, spec: HostSpec) -> HostId {
        self.hosts.push(Host::new(spec));
        HostId(self.hosts.len() - 1)
    }

    /// Read access to a host.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.0]
    }

    /// Set the number of compute hogs on a host (the paper's `ext.cmp`).
    pub fn set_compute_jobs(&mut self, host: HostId, jobs: u32) {
        self.tracer.emit(
            self.now,
            "load",
            format!("host{} compute_jobs={jobs}", host.0),
        );
        self.hosts[host.0].set_compute_jobs(jobs);
    }

    /// Start a transfer; it pays an initial startup delay before moving
    /// bytes, like any fresh `globus-url-copy` invocation.
    pub fn add_transfer(&mut self, cfg: TransferConfig) -> TransferId {
        assert!(cfg.size_mb > 0.0, "size must be positive");
        let flow = self.net.add_flow(cfg.path, 0, cfg.cc);
        let app = self.hosts[cfg.host.0].add_app(AppLoad {
            nc: cfg.params.nc,
            np: cfg.params.np,
        });
        let dst = cfg.dst_host.map(|h| {
            let a = self.hosts[h.0].add_app(AppLoad {
                nc: cfg.params.nc,
                np: cfg.params.np,
            });
            (h, a)
        });
        let startup = self.hosts[cfg.host.0].startup_time_s(app);
        let noise = NoiseProcess::new(self.seeds.next_seed(), cfg.noise_sigma, cfg.noise_tau_s);
        let tid = TransferId(self.next_tid);
        self.next_tid += 1;
        let ready_at = self.now + SimDuration::from_secs_f64(startup);
        self.transfers.insert(
            tid,
            Entry {
                host: cfg.host,
                flow,
                app,
                dst,
                params: cfg.params,
                ready_at,
                remaining_mb: cfg.size_mb,
                moved_mb: 0.0,
                noise,
                done: false,
                stalled: false,
                attempts: 0,
                retries: 0,
            },
        );
        self.sync_flow_streams();
        tid
    }

    /// Change a transfer's parameters. With `restart = true` (what the
    /// paper's tuner wrapper does every control epoch) the transfer goes down
    /// for the startup duration; with `restart = false` the change is
    /// seamless (the paper's hypothetical "adapt without restart" ideal).
    ///
    /// Returns the startup delay paid, in seconds (0 without restart).
    ///
    /// # Panics
    /// Panics if the transfer id is unknown.
    pub fn set_params(&mut self, tid: TransferId, params: StreamParams, restart: bool) -> f64 {
        let e = self
            .transfers
            .get_mut(&tid)
            .unwrap_or_else(|| panic!("unknown transfer {tid:?}"));
        e.params = params;
        if let Some((dh, da)) = e.dst {
            self.hosts[dh.0].set_app(
                da,
                AppLoad {
                    nc: params.nc,
                    np: params.np,
                },
            );
        }
        let host = &mut self.hosts[e.host.0];
        host.set_app(
            e.app,
            AppLoad {
                nc: params.nc,
                np: params.np,
            },
        );
        let startup_s = if restart && !e.done {
            let s = host.startup_time_s(e.app);
            e.ready_at = self.now + SimDuration::from_secs_f64(s);
            self.tracer.emit(
                self.now,
                "transfer",
                format!("t{} restart {params} startup={s:.2}s", tid.0),
            );
            if let Some(tel) = self.telemetry.as_mut() {
                tel.record_restart(tid.0, s);
            }
            s
        } else {
            // A seamless change keeps any in-flight startup deadline.
            (e.ready_at - self.now).max_zero().as_secs_f64()
        };
        self.sync_flow_streams();
        startup_s
    }

    /// Megabytes moved so far by `tid`.
    pub fn moved_mb(&self, tid: TransferId) -> f64 {
        self.transfers[&tid].moved_mb
    }

    /// Ids of all registered transfers, in id order.
    pub fn transfer_ids(&self) -> Vec<TransferId> {
        self.transfers.keys().copied().collect()
    }

    /// Number of registered transfers (done or not).
    pub fn transfer_count(&self) -> usize {
        self.transfers.len()
    }

    /// Number of transfers still moving data (not done, regardless of
    /// restart/stall state).
    pub fn active_transfer_count(&self) -> usize {
        self.transfers.values().filter(|e| !e.done).count()
    }

    /// Total megabytes moved by every transfer in this world.
    pub fn total_moved_mb(&self) -> f64 {
        xferopt_simcore::stats::sum(self.transfers.values().map(|e| e.moved_mb))
    }

    /// The network flow group carrying `tid`'s streams.
    ///
    /// # Panics
    /// Panics if the transfer id is unknown.
    pub fn flow_id(&self, tid: TransferId) -> FlowId {
        self.transfers[&tid].flow
    }

    /// Tag `tid`'s network flow group with an owner id (fleet orchestrators
    /// use the job id), so per-job shares can be read back from the shared
    /// allocation via [`xferopt_net::Network::tag_allocation_mbs`].
    ///
    /// # Panics
    /// Panics if the transfer id is unknown.
    pub fn set_transfer_tag(&mut self, tid: TransferId, tag: Option<u64>) {
        let flow = self.transfers[&tid].flow;
        self.net.set_flow_tag(flow, tag);
    }

    /// Megabytes remaining for `tid` (infinite for memory-to-memory runs).
    pub fn remaining_mb(&self, tid: TransferId) -> f64 {
        self.transfers[&tid].remaining_mb
    }

    /// True when `tid` has moved all of its data.
    pub fn is_done(&self, tid: TransferId) -> bool {
        self.transfers[&tid].done
    }

    /// Current parameters of `tid`.
    pub fn params(&self, tid: TransferId) -> StreamParams {
        self.transfers[&tid].params
    }

    /// Instantaneous goodput of `tid` right now, MB/s (0 while restarting).
    pub fn goodput_mbs(&self, tid: TransferId) -> f64 {
        let e = &self.transfers[&tid];
        if !e.active_at(self.now) {
            return 0.0;
        }
        let host = &self.hosts[e.host.0];
        let mut cap = host.cpu_cap_mbs(e.app);
        let mut eff = host.efficiency(e.app);
        if let Some((dh, da)) = e.dst {
            let dst = &self.hosts[dh.0];
            cap = cap.min(dst.cpu_cap_mbs(da));
            eff = eff.min(dst.efficiency(da));
        }
        // Cached read: repeated goodput polls between mutations cost one
        // amortized max–min solve, not one per call.
        self.net.flow_rate(e.flow).min(cap) * eff * e.noise.current()
    }

    /// Keep network stream counts in sync with transfer activity: a transfer
    /// that is restarting or finished has zero streams on the wire.
    fn sync_flow_streams(&mut self) {
        let now = self.now;
        for e in self.transfers.values() {
            let streams = if e.active_at(now) {
                e.params.streams()
            } else {
                0
            };
            self.net.set_streams(e.flow, streams);
        }
    }

    /// Bring the world's fault-driven state (link capacity factors, path RTT
    /// factors, stall flags) up to date with the plan at `self.now`, and fire
    /// any abort events whose instant has been reached. No-op when faults are
    /// disabled. Every transition is recorded in the `"fault"` trace
    /// category.
    fn apply_faults(&mut self) {
        let Some(st) = self.faults.as_mut() else {
            return;
        };
        let now = self.now;
        // Link capacity factors.
        for l in 0..self.net.link_count() {
            let f = st.plan.link_factor_at(l, now);
            if (self.net.link_factor(LinkId(l)) - f).abs() > 1e-12 {
                self.net.set_link_factor(LinkId(l), f);
                self.tracer
                    .emit(now, "fault", format!("link{l} capacity_factor={f:.3}"));
                if let Some(tel) = self.telemetry.as_mut() {
                    tel.record_fault_factor_change("link", l);
                }
            }
        }
        // Path RTT factors.
        for p in 0..self.net.path_count() {
            let f = st.plan.rtt_factor_at(p, now);
            if (self.net.rtt_factor(PathId(p)) - f).abs() > 1e-12 {
                self.net.set_rtt_factor(PathId(p), f);
                self.tracer
                    .emit(now, "fault", format!("path{p} rtt_factor={f:.3}"));
                if let Some(tel) = self.telemetry.as_mut() {
                    tel.record_fault_factor_change("path", p);
                }
            }
        }
        // Stall windows.
        for (tid, e) in self.transfers.iter_mut() {
            let s = st.plan.is_stalled_at(tid.0, now);
            if s != e.stalled {
                e.stalled = s;
                self.tracer.emit(
                    now,
                    "fault",
                    format!("t{} {}", tid.0, if s { "stall" } else { "stall-clear" }),
                );
                if let Some(tel) = self.telemetry.as_mut() {
                    tel.record_stall_transition(tid.0, s);
                }
            }
        }
        // Aborts: each plan event fires at most once, in schedule order.
        let fire_end = st.plan.events().partition_point(|e| e.at <= now);
        for i in st.cursor..fire_end {
            let ev = st.plan.events()[i];
            if let FaultKind::TransferAbort { transfer } = ev.kind {
                let tid = TransferId(transfer);
                if let Some(e) = self.transfers.get_mut(&tid) {
                    if !e.done {
                        e.attempts += 1;
                        e.retries += 1;
                        let backoff = st.policy.delay_s(e.attempts, &mut st.rng);
                        let startup = self.hosts[e.host.0].startup_time_s(e.app);
                        e.ready_at = now + SimDuration::from_secs_f64(backoff + startup);
                        self.tracer.emit(
                            now,
                            "fault",
                            format!(
                                "t{} abort retry={} backoff={backoff:.2}s startup={startup:.2}s",
                                tid.0, e.retries
                            ),
                        );
                        if let Some(tel) = self.telemetry.as_mut() {
                            tel.record_abort(tid.0, backoff);
                        }
                    }
                }
            }
        }
        st.cursor = fire_end;
    }

    /// Advance the world by `dt`, integrating every transfer's goodput.
    /// Integration is exact across restart-completion boundaries and fault
    /// transitions (rates are recomputed piecewise).
    ///
    /// # Panics
    /// Panics if `dt` is not strictly positive.
    pub fn step(&mut self, dt: SimDuration) {
        assert!(dt.is_positive(), "step must be positive");
        let end = self.now + dt;
        while self.now < end {
            self.apply_faults();
            self.sync_flow_streams();
            // Next boundary: earliest ready_at or fault transition strictly
            // inside (now, end).
            let mut boundary = self
                .transfers
                .values()
                .filter(|e| !e.done && e.ready_at > self.now && e.ready_at < end)
                .map(|e| e.ready_at)
                .min()
                .unwrap_or(end);
            if let Some(st) = &self.faults {
                if let Some(b) = st.plan.next_boundary_after(self.now, end) {
                    boundary = boundary.min(b);
                }
            }
            let piece = boundary - self.now;
            let piece_s = piece.as_secs_f64();
            let mut done_tids: Vec<TransferId> = Vec::new();
            if piece_s > 0.0 {
                // Per-flow network rates over this piece, by fidelity mode.
                // The quasi-static mode reads the cached allocation directly
                // (one amortized solve for every transfer in the world, with
                // no per-piece map); the dynamic mode averages stepped rates.
                let dyn_rates: Option<BTreeMap<FlowId, f64>> = match &mut self.fidelity {
                    Fidelity::QuasiStatic => None,
                    Fidelity::Dynamic { sim, dt_s } => {
                        sim.sync_streams(&self.net);
                        // Average the dynamic rates over the piece.
                        let steps = (piece_s / *dt_s).ceil().max(1.0) as usize;
                        let dt = piece_s / steps as f64;
                        let mut acc: BTreeMap<FlowId, f64> = BTreeMap::new();
                        for _ in 0..steps {
                            for (f, st) in sim.step(&self.net, dt) {
                                *acc.entry(f).or_insert(0.0) += st.rate_mbs;
                            }
                        }
                        acc.values_mut().for_each(|v| *v /= steps as f64);
                        // Flows with zero live streams simply have no entry.
                        for f in self.net.iter_flow_ids() {
                            acc.entry(f).or_insert(0.0);
                        }
                        Some(acc)
                    }
                };
                let now = self.now;
                for (tid_ref, e) in self.transfers.iter_mut() {
                    let tid_ref = *tid_ref;
                    if !e.active_at(now) {
                        continue;
                    }
                    let host = &self.hosts[e.host.0];
                    let mut cap = host.cpu_cap_mbs(e.app);
                    let mut eff = host.efficiency(e.app);
                    if let Some((dh, da)) = e.dst {
                        let dst = &self.hosts[dh.0];
                        cap = cap.min(dst.cpu_cap_mbs(da));
                        eff = eff.min(dst.efficiency(da));
                    }
                    let net_rate = match &dyn_rates {
                        Some(m) => m[&e.flow],
                        None => self.net.flow_rate(e.flow),
                    };
                    let rate = net_rate.min(cap) * eff * e.noise.advance(piece_s);
                    let moved = (rate * piece_s).min(e.remaining_mb);
                    e.moved_mb += moved;
                    if moved > 0.0 {
                        // Progress resets the consecutive-failure counter
                        // that drives retry backoff.
                        e.attempts = 0;
                    }
                    if e.remaining_mb.is_finite() {
                        e.remaining_mb = (e.remaining_mb - moved).max(0.0);
                        if e.remaining_mb <= 0.0 {
                            e.done = true;
                            done_tids.push(tid_ref);
                        }
                    }
                }
            }
            for tid in done_tids {
                self.tracer
                    .emit(self.now, "transfer", format!("t{} complete", tid.0));
            }
            self.now = boundary;
        }
        self.apply_faults();
        self.sync_flow_streams();
    }

    /// Begin a control epoch for `tid`: apply `params` (restarting if asked)
    /// and snapshot accounting baselines. Step the world for the epoch
    /// duration, then call [`World::end_epoch`].
    pub fn begin_epoch(
        &mut self,
        tid: TransferId,
        params: StreamParams,
        restart: bool,
    ) -> EpochStart {
        let startup_s = self.set_params(tid, params, restart);
        EpochStart {
            tid,
            t0: self.now,
            moved0_mb: self.transfers[&tid].moved_mb,
            startup_s,
            params,
        }
    }

    /// Close a control epoch: compute observed (whole-epoch) and best-case
    /// (up-time only) throughput.
    ///
    /// With telemetry enabled ([`World::enable_telemetry`]) the epoch is also
    /// appended to the flight recorder as an [`EpochTelemetry`] record. The
    /// network's per-flow fair-share/loss gauges are not exported here but
    /// when the recorder is read ([`World::telemetry`],
    /// [`World::take_telemetry`]). Collection is purely observational: the
    /// report returned is identical whether or not telemetry is on.
    pub fn end_epoch(&mut self, start: EpochStart) -> EpochReport {
        let e = &self.transfers[&start.tid];
        let duration = self.now - start.t0;
        let dur_s = duration.as_secs_f64();
        let bytes_mb = e.moved_mb - start.moved0_mb;
        let up_s = (dur_s - start.startup_s).max(0.0);
        let report = EpochReport {
            params: start.params,
            start: start.t0,
            duration,
            bytes_mb,
            startup_s: start.startup_s.min(dur_s),
            observed_mbs: if dur_s > 0.0 { bytes_mb / dur_s } else { 0.0 },
            bestcase_mbs: if up_s > 0.0 { bytes_mb / up_s } else { 0.0 },
        };
        if let Some(tel) = self.telemetry.as_mut() {
            let (retries, stalled) = (e.retries, e.stalled);
            tel.record_epoch(EpochTelemetry {
                epoch: 0, // assigned by the recorder
                transfer: start.tid.0,
                start_s: start.t0.as_secs_f64(),
                duration_s: dur_s,
                nc: start.params.nc,
                np: start.params.np,
                bytes_mb,
                startup_s: report.startup_s,
                observed_mbs: report.observed_mbs,
                bestcase_mbs: report.bestcase_mbs,
                overhead_fraction: report.overhead_fraction(),
                retries_total: retries,
                stalled,
            });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xferopt_host::nehalem;
    use xferopt_net::{Link, Path};

    /// ANL→UChicago world calibrated per DESIGN.md.
    fn uc_world(noise: bool) -> (World, PathId) {
        let mut net = Network::new();
        let nic = net.add_link(Link::from_gbps("anl-nic", 40.0).with_half_streams(16.0));
        let wan = net.add_link(Link::from_gbps("wan-uc", 40.0).with_half_streams(16.0));
        let path = net.add_path(
            Path::new("anl->uc", vec![nic, wan])
                .with_rtt_ms(2.0)
                .with_loss(1e-5),
        );
        let mut world = World::new(net, 42);
        world.add_host(nehalem());
        let _ = noise;
        (world, path)
    }

    fn quiet_cfg(path: PathId) -> TransferConfig {
        TransferConfig::memory_to_memory(HostId(0), path).with_noise(0.0, 1.0)
    }

    #[test]
    fn default_transfer_hits_paper_throughput() {
        let (mut world, path) = uc_world(false);
        let tid = world.add_transfer(quiet_cfg(path));
        // Skip past initial startup, then measure 60 s.
        world.step(SimDuration::from_secs(10));
        let es = world.begin_epoch(tid, StreamParams::globus_default(), false);
        world.step(SimDuration::from_secs(60));
        let r = world.end_epoch(es);
        assert!(
            (2200.0..2700.0).contains(&r.observed_mbs),
            "paper: default ≈ 2500 MB/s, got {}",
            r.observed_mbs
        );
    }

    #[test]
    fn startup_delay_blocks_early_bytes() {
        let (mut world, path) = uc_world(false);
        let tid = world.add_transfer(quiet_cfg(path));
        world.step(SimDuration::from_secs(2));
        assert_eq!(world.moved_mb(tid), 0.0, "still in startup");
        world.step(SimDuration::from_secs(28));
        assert!(world.moved_mb(tid) > 0.0);
    }

    #[test]
    fn restart_pays_downtime() {
        let (mut world, path) = uc_world(false);
        let tid = world.add_transfer(quiet_cfg(path));
        world.step(SimDuration::from_secs(10));
        // Epoch with restart: observed < bestcase.
        let es = world.begin_epoch(tid, StreamParams::new(5, 8), true);
        world.step(SimDuration::from_secs(30));
        let r = world.end_epoch(es);
        assert!(r.startup_s > 1.0);
        assert!(r.bestcase_mbs > r.observed_mbs);
        // Paper: ≈17% overhead at 30 s epochs on an idle source.
        assert!(
            (0.1..0.25).contains(&r.overhead_fraction()),
            "overhead={}",
            r.overhead_fraction()
        );
    }

    #[test]
    fn seamless_change_pays_nothing() {
        let (mut world, path) = uc_world(false);
        let tid = world.add_transfer(quiet_cfg(path));
        world.step(SimDuration::from_secs(10));
        let es = world.begin_epoch(tid, StreamParams::new(5, 8), false);
        world.step(SimDuration::from_secs(30));
        let r = world.end_epoch(es);
        assert_eq!(r.startup_s, 0.0);
        assert!((r.bestcase_mbs - r.observed_mbs).abs() < 1e-9);
    }

    #[test]
    fn compute_load_crushes_default_throughput() {
        let (mut world, path) = uc_world(false);
        let tid = world.add_transfer(quiet_cfg(path));
        world.set_compute_jobs(HostId(0), 64);
        world.step(SimDuration::from_secs(30));
        let es = world.begin_epoch(tid, StreamParams::globus_default(), false);
        world.step(SimDuration::from_secs(60));
        let r = world.end_epoch(es);
        // Paper Fig. 5c: default ≈ 100 MB/s under ext.cmp=64.
        assert!(
            (50.0..250.0).contains(&r.observed_mbs),
            "paper: ~100 MB/s, got {}",
            r.observed_mbs
        );
    }

    #[test]
    fn higher_nc_recovers_throughput_under_compute_load() {
        let (mut world, path) = uc_world(false);
        let tid = world.add_transfer(quiet_cfg(path));
        world.set_compute_jobs(HostId(0), 16);
        world.step(SimDuration::from_secs(30));
        let measure = |world: &mut World, nc: u32| {
            let es = world.begin_epoch(tid, StreamParams::new(nc, 8), false);
            world.step(SimDuration::from_secs(60));
            world.end_epoch(es).observed_mbs
        };
        let low = measure(&mut world, 2);
        let high = measure(&mut world, 64);
        assert!(
            high > 3.0 * low,
            "paper: ~7x improvement tuning nc under cmp=16; got {low} -> {high}"
        );
    }

    #[test]
    fn external_transfer_halves_default() {
        let (mut world, path) = uc_world(false);
        let tid = world.add_transfer(quiet_cfg(path));
        let _ext = world.add_transfer(quiet_cfg(path).with_params(StreamParams::new(16, 1)));
        world.step(SimDuration::from_secs(30));
        let es = world.begin_epoch(tid, StreamParams::globus_default(), false);
        world.step(SimDuration::from_secs(60));
        let r = world.end_epoch(es);
        // Paper Fig. 5d: default ≈ 1400 MB/s under ext.tfr=16.
        assert!(
            (1200.0..2000.0).contains(&r.observed_mbs),
            "paper: ~1400 MB/s, got {}",
            r.observed_mbs
        );
    }

    #[test]
    fn competitor_inherits_bandwidth_during_restart() {
        let (mut world, path) = uc_world(false);
        let a = world.add_transfer(quiet_cfg(path).with_params(StreamParams::new(8, 8)));
        let b = world.add_transfer(quiet_cfg(path).with_params(StreamParams::new(8, 8)));
        world.step(SimDuration::from_secs(30));
        let before = world.goodput_mbs(b);
        // Restart A: B should immediately see more bandwidth.
        world.set_params(a, StreamParams::new(8, 8), true);
        let during = world.goodput_mbs(b);
        assert!(
            during > before * 1.2,
            "B should inherit A's bandwidth during restart: {before} -> {during}"
        );
    }

    #[test]
    fn finite_transfer_completes() {
        let (mut world, path) = uc_world(false);
        let tid = world.add_transfer(quiet_cfg(path).with_size_mb(10_000.0));
        // 10 GB at ~2500 MB/s is ~4 s after the ~5 s startup.
        world.step(SimDuration::from_secs(60));
        assert!(world.is_done(tid));
        assert!((world.moved_mb(tid) - 10_000.0).abs() < 1e-6);
        assert_eq!(world.remaining_mb(tid), 0.0);
        assert_eq!(world.goodput_mbs(tid), 0.0);
    }

    #[test]
    fn bytes_conserved_across_step_sizes() {
        // Integrating 60 s in one step or sixty must move identical bytes
        // when noise is off (piecewise-constant rates, no randomness).
        let run = |steps: usize| {
            let (mut world, path) = uc_world(false);
            let tid = world.add_transfer(quiet_cfg(path));
            let dt = SimDuration::from_secs_f64(60.0 / steps as f64);
            for _ in 0..steps {
                world.step(dt);
            }
            world.moved_mb(tid)
        };
        let coarse = run(1);
        let fine = run(60);
        assert!(
            (coarse - fine).abs() < 1e-6 * coarse.max(1.0),
            "coarse={coarse} fine={fine}"
        );
    }

    #[test]
    fn deterministic_with_noise() {
        let run = || {
            let (mut world, path) = uc_world(true);
            let tid = world.add_transfer(
                TransferConfig::memory_to_memory(HostId(0), path).with_noise(0.1, 30.0),
            );
            world.step(SimDuration::from_secs(120));
            world.moved_mb(tid)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "unknown transfer")]
    fn set_params_unknown_transfer_panics() {
        let (mut world, _) = uc_world(false);
        world.set_params(TransferId(9), StreamParams::new(1, 1), false);
    }

    #[test]
    fn fleet_accessors_track_transfer_population() {
        let (mut world, path) = uc_world(false);
        assert_eq!(world.transfer_count(), 0);
        assert_eq!(world.active_transfer_count(), 0);
        assert_eq!(world.total_moved_mb(), 0.0);
        let a = world.add_transfer(quiet_cfg(path).with_size_mb(10_000.0));
        let b = world.add_transfer(quiet_cfg(path));
        assert_eq!(world.transfer_ids(), vec![a, b]);
        assert_eq!(world.transfer_count(), 2);
        assert_eq!(world.active_transfer_count(), 2);
        world.step(SimDuration::from_secs(120));
        assert!(world.is_done(a));
        assert_eq!(world.active_transfer_count(), 1, "a finished, b infinite");
        let total = world.total_moved_mb();
        assert!(
            (total - world.moved_mb(a) - world.moved_mb(b)).abs() < 1e-9,
            "total_moved_mb must sum per-transfer bytes"
        );
    }

    #[test]
    fn transfer_tags_flow_through_to_network() {
        let (mut world, path) = uc_world(false);
        let a = world.add_transfer(quiet_cfg(path));
        let b = world.add_transfer(quiet_cfg(path));
        world.set_transfer_tag(a, Some(3));
        world.set_transfer_tag(b, Some(4));
        world.step(SimDuration::from_secs(30));
        let fa = world.flow_id(a);
        assert_eq!(world.net().flows_with_tag(3), vec![fa]);
        assert_eq!(world.net().tag_streams(3), 16, "globus default = 16");
        // Per-tag allocation equals the tagged flow's share.
        let alloc = world.net().allocate();
        assert!((world.net().tag_allocation_mbs(4) - alloc[&world.flow_id(b)]).abs() < 1e-9);
        world.set_transfer_tag(a, None);
        assert!(world.net().flows_with_tag(3).is_empty());
    }

    /// A world over a single realistic WAN link (loss drives the dynamic
    /// model, so this topology carries meaningful loss rather than derating).
    fn wan_world() -> (World, TransferId) {
        let mut net = Network::new();
        let l = net.add_link(xferopt_net::Link::new("wan", 1000.0));
        let path = net.add_path(
            xferopt_net::Path::new("p", vec![l])
                .with_rtt_ms(33.0)
                .with_loss(1e-5),
        );
        let mut world = World::new(net, 77);
        world.add_host(nehalem());
        let cfg = TransferConfig::memory_to_memory(HostId(0), path)
            .with_params(StreamParams::new(2, 8))
            .with_noise(0.0, 1.0);
        let tid = world.add_transfer(cfg);
        (world, tid)
    }

    #[test]
    fn dynamic_mode_agrees_at_steady_state() {
        let steady = |dynamic: bool| {
            let (mut world, tid) = wan_world();
            if dynamic {
                world.enable_dynamic_network(0.05);
            }
            // Long warm-up so slow start is over in both modes.
            world.step(SimDuration::from_secs(60));
            let es = world.begin_epoch(tid, StreamParams::new(2, 8), false);
            world.step(SimDuration::from_secs(60));
            world.end_epoch(es).observed_mbs
        };
        let qs = steady(false);
        let dy = steady(true);
        assert!(qs > 0.0 && dy > 0.0);
        assert!(
            (dy / qs - 1.0).abs() < 0.5,
            "modes should roughly agree at steady state: quasi-static {qs:.0} vs dynamic {dy:.0}"
        );
    }

    #[test]
    fn dynamic_mode_shows_ramp_up() {
        // A long-RTT lossless path: slow start takes ~8 RTTs ≈ 1.6 s to
        // reach the 4 MiB window cap, so a 1 s window right after the
        // streams come up must sit well below the warmed-up rate. (In
        // quasi-static mode both windows read the same steady value.)
        let build = || {
            let mut net = Network::new();
            let l = net.add_link(xferopt_net::Link::new("wan", 10_000.0));
            let path = net.add_path(xferopt_net::Path::new("p", vec![l]).with_rtt_ms(200.0));
            let mut world = World::new(net, 9);
            world.add_host(nehalem());
            let cfg = TransferConfig::memory_to_memory(HostId(0), path)
                .with_params(StreamParams::new(2, 8))
                .with_noise(0.0, 1.0);
            let tid = world.add_transfer(cfg);
            world.enable_dynamic_network(0.05);
            (world, tid)
        };
        let (mut world, tid) = build();
        // Step in fine grain to the instant the startup completes, then
        // measure the first second of stream life.
        let startup = world.host(HostId(0)).startup_time_s(xferopt_host::AppId(0));
        world.step(SimDuration::from_secs_f64(startup + 0.01));
        let es = world.begin_epoch(tid, StreamParams::new(2, 8), false);
        world.step(SimDuration::from_secs(1));
        let early = world.end_epoch(es).observed_mbs;

        world.step(SimDuration::from_secs(30));
        let es = world.begin_epoch(tid, StreamParams::new(2, 8), false);
        world.step(SimDuration::from_secs(10));
        let late = world.end_epoch(es).observed_mbs;
        assert!(
            early < 0.7 * late,
            "dynamic mode must show slow-start ramp: early {early:.0} vs late {late:.0}"
        );
    }

    #[test]
    fn dynamic_mode_is_deterministic() {
        let run = || {
            let (mut world, tid) = wan_world();
            world.enable_dynamic_network(0.05);
            world.step(SimDuration::from_secs(30));
            world.moved_mb(tid)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tracer_records_lifecycle_events() {
        let (mut world, path) = uc_world(false);
        world.enable_trace(64);
        let tid = world.add_transfer(quiet_cfg(path).with_size_mb(20_000.0));
        world.set_compute_jobs(HostId(0), 16);
        world.step(SimDuration::from_secs(5));
        world.set_params(tid, StreamParams::new(5, 8), true);
        world.step(SimDuration::from_secs(120));
        assert!(world.is_done(tid));
        let trace = world.tracer().format();
        assert!(trace.contains("compute_jobs=16"), "{trace}");
        assert!(trace.contains("restart nc=5 np=8"), "{trace}");
        assert!(trace.contains("t0 complete"), "{trace}");
        assert!(world.tracer().events_in("load").count() == 1);
    }

    #[test]
    fn tracing_disabled_by_default() {
        let (mut world, path) = uc_world(false);
        let _tid = world.add_transfer(quiet_cfg(path));
        world.step(SimDuration::from_secs(10));
        assert!(world.tracer().is_empty());
        assert!(!world.tracer().is_enabled());
    }

    /// World with a modelled destination host (future work #4).
    fn uc_world_with_dst() -> (World, TransferId, HostId) {
        let (mut world, path) = uc_world(false);
        let dst = world.add_host(xferopt_host::sandybridge_uchicago());
        let tid = world.add_transfer(quiet_cfg(path).with_dst_host(dst));
        (world, tid, dst)
    }

    #[test]
    fn unloaded_destination_changes_nothing() {
        // The paper's assumption: the (bigger) destination never binds.
        let (mut world, path) = uc_world(false);
        let plain = world.add_transfer(quiet_cfg(path));
        world.step(SimDuration::from_secs(30));
        let r_plain = world.goodput_mbs(plain);

        let (mut world2, tid, _) = uc_world_with_dst();
        world2.step(SimDuration::from_secs(30));
        let r_dst = world2.goodput_mbs(tid);
        assert!(
            (r_plain - r_dst).abs() < 0.02 * r_plain,
            "idle destination must not matter: {r_plain} vs {r_dst}"
        );
    }

    #[test]
    fn loaded_destination_caps_throughput() {
        let (mut world, tid, dst) = uc_world_with_dst();
        world.step(SimDuration::from_secs(30));
        let before = world.goodput_mbs(tid);
        world.set_compute_jobs(dst, 64);
        let after = world.goodput_mbs(tid);
        assert!(
            after < before / 3.0,
            "64 hogs on the destination must bind: {before} -> {after}"
        );
    }

    #[test]
    fn abort_preserves_moved_bytes_and_counts_retries() {
        let (mut world, path) = uc_world(false);
        let tid = world.add_transfer(quiet_cfg(path));
        let plan = FaultPlan::new().with(xferopt_simcore::FaultEvent::instant(
            SimTime::from_secs(30),
            FaultKind::TransferAbort { transfer: tid.0 },
        ));
        world.enable_faults_with_policy(plan, RetryPolicy::fixed(10.0));
        world.step(SimDuration::from_secs(30));
        let before = world.moved_mb(tid);
        assert!(before > 0.0);
        // Immediately after the abort instant the transfer is down.
        world.step(SimDuration::from_secs(5));
        assert_eq!(world.moved_mb(tid), before, "no bytes while backing off");
        assert_eq!(world.retries(tid), 1);
        // After backoff + startup it comes back and keeps its bytes.
        world.step(SimDuration::from_secs(60));
        assert!(world.moved_mb(tid) > before, "transfer must resume");
    }

    #[test]
    fn stall_window_pauses_progress_without_restart() {
        let (mut world, path) = uc_world(false);
        let tid = world.add_transfer(quiet_cfg(path));
        let plan = FaultPlan::new().with(xferopt_simcore::FaultEvent::window(
            SimTime::from_secs(30),
            SimDuration::from_secs(10),
            FaultKind::FlowStall { transfer: tid.0 },
        ));
        world.enable_faults(plan);
        world.step(SimDuration::from_secs(31));
        assert!(world.is_stalled(tid));
        let at_stall = world.moved_mb(tid);
        world.step(SimDuration::from_secs(8));
        assert_eq!(
            world.moved_mb(tid),
            at_stall,
            "stalled transfer moves nothing"
        );
        world.step(SimDuration::from_secs(5));
        assert!(!world.is_stalled(tid));
        assert!(
            world.moved_mb(tid) > at_stall,
            "stall ends without a restart"
        );
        assert_eq!(world.retries(tid), 0);
    }

    #[test]
    fn link_degradation_cuts_goodput_then_recovers() {
        let (mut world, path) = uc_world(false);
        let tid = world.add_transfer(quiet_cfg(path));
        // Degrade the shared WAN link (index 1) to 10% for [60, 120).
        let plan = FaultPlan::new().with(xferopt_simcore::FaultEvent::window(
            SimTime::from_secs(60),
            SimDuration::from_secs(60),
            FaultKind::LinkDegrade {
                link: 1,
                factor: 0.1,
            },
        ));
        world.enable_faults(plan);
        world.step(SimDuration::from_secs(30));
        let healthy = world.goodput_mbs(tid);
        world.step(SimDuration::from_secs(60));
        let degraded = world.goodput_mbs(tid);
        assert!(
            degraded < healthy * 0.2,
            "degraded {degraded} should be well below healthy {healthy}"
        );
        world.step(SimDuration::from_secs(60));
        let recovered = world.goodput_mbs(tid);
        assert!(
            recovered > healthy * 0.8,
            "recovered {recovered} should return near healthy {healthy}"
        );
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let run = |fault: bool| {
            let (mut world, path) = uc_world(false);
            let tid = world.add_transfer(quiet_cfg(path));
            if fault {
                world.enable_faults(FaultPlan::new());
            }
            world.step(SimDuration::from_secs(120));
            world.moved_mb(tid)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn consecutive_aborts_grow_backoff() {
        // Two aborts in quick succession (before any bytes move between
        // them) must produce a longer second outage than a lone abort's.
        let (mut world, path) = uc_world(false);
        let tid = world.add_transfer(quiet_cfg(path));
        let policy = RetryPolicy {
            base_s: 10.0,
            factor: 4.0,
            max_s: 1000.0,
            jitter: 0.0,
        };
        let plan = FaultPlan::new()
            .with(xferopt_simcore::FaultEvent::instant(
                SimTime::from_secs(30),
                FaultKind::TransferAbort { transfer: tid.0 },
            ))
            // Second abort lands while still in the first backoff window.
            .with(xferopt_simcore::FaultEvent::instant(
                SimTime::from_secs(32),
                FaultKind::TransferAbort { transfer: tid.0 },
            ));
        world.enable_faults_with_policy(plan, policy);
        world.step(SimDuration::from_secs(33));
        assert_eq!(world.retries(tid), 2);
        // Second backoff is 40 s (+ startup) from t=32: still down at t=60.
        world.step(SimDuration::from_secs(27));
        let moved_at_60 = world.moved_mb(tid);
        world.step(SimDuration::from_secs(60));
        assert!(world.moved_mb(tid) > moved_at_60, "eventually resumes");
    }

    #[test]
    fn faulty_world_is_deterministic() {
        let run = || {
            let (mut world, path) = uc_world(false);
            let tid = world.add_transfer(
                TransferConfig::memory_to_memory(HostId(0), path).with_noise(0.08, 30.0),
            );
            let plan = FaultPlan::degradations(9, 1, 600.0, 120.0, 30.0, 0.3)
                .merge(FaultPlan::aborts(9, tid.0, 600.0, 200.0))
                .merge(FaultPlan::stalls(9, tid.0, 600.0, 150.0, 10.0));
            world.enable_faults(plan);
            world.step(SimDuration::from_secs(600));
            (world.moved_mb(tid), world.retries(tid))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_events_are_traced() {
        let (mut world, path) = uc_world(false);
        world.enable_trace(256);
        let tid = world.add_transfer(quiet_cfg(path));
        let plan = FaultPlan::new()
            .with(xferopt_simcore::FaultEvent::window(
                SimTime::from_secs(20),
                SimDuration::from_secs(10),
                FaultKind::LinkDegrade {
                    link: 1,
                    factor: 0.5,
                },
            ))
            .with(xferopt_simcore::FaultEvent::instant(
                SimTime::from_secs(40),
                FaultKind::TransferAbort { transfer: tid.0 },
            ));
        world.enable_faults_with_policy(plan, RetryPolicy::fixed(5.0));
        world.step(SimDuration::from_secs(60));
        let trace = world.tracer().format();
        assert!(trace.contains("link1 capacity_factor=0.500"), "{trace}");
        assert!(trace.contains("link1 capacity_factor=1.000"), "{trace}");
        assert!(trace.contains("t0 abort retry=1"), "{trace}");
        assert!(world.tracer().events_in("fault").count() >= 4);
    }

    #[test]
    fn telemetry_records_epochs_and_restarts() {
        let (mut world, path) = uc_world(false);
        world.enable_telemetry();
        let tid = world.add_transfer(quiet_cfg(path));
        world.step(SimDuration::from_secs(10));
        let es = world.begin_epoch(tid, StreamParams::new(5, 8), true);
        world.step(SimDuration::from_secs(30));
        let r = world.end_epoch(es);
        let tel = world.telemetry().expect("telemetry enabled");
        assert_eq!(tel.epochs().len(), 1);
        let e = &tel.epochs()[0];
        assert_eq!(e.transfer, tid.0);
        assert_eq!((e.nc, e.np), (5, 8));
        assert_eq!(e.observed_mbs, r.observed_mbs);
        assert_eq!(e.bestcase_mbs, r.bestcase_mbs);
        let snap = tel.snapshot();
        match snap.get("transfer_restarts_total", &[("transfer", "0")]) {
            Some(xferopt_simcore::metrics::SampleValue::Counter(n)) => assert_eq!(*n, 1),
            other => panic!("missing restart counter: {other:?}"),
        }
        // Per-flow network gauges ride along at epoch close.
        assert!(snap
            .get("net_flow_fair_share_mbs", &[("flow", "0")])
            .is_some());
    }

    #[test]
    fn network_gauges_show_the_network_when_the_recorder_is_read() {
        use xferopt_simcore::metrics::SampleValue;
        let gauge = |tel: &WorldTelemetry, name: &str, flow: FlowId| {
            let id = flow.0.to_string();
            tel.snapshot().get(name, &[("flow", id.as_str())]).cloned()
        };
        for dynamic in [false, true] {
            let (mut world, path) = uc_world(false);
            if dynamic {
                world.enable_dynamic_network(0.1);
            }
            world.enable_telemetry();
            let tid = world.add_transfer(quiet_cfg(path));
            let flow = world.flow_id(tid);
            world.step(SimDuration::from_secs(10));
            let es = world.begin_epoch(tid, StreamParams::new(5, 8), false);
            world.step(SimDuration::from_secs(30));
            world.end_epoch(es);
            let tel = world.telemetry().expect("telemetry enabled");
            assert_eq!(
                gauge(tel, "net_flow_streams", flow),
                Some(SampleValue::Gauge(40.0))
            );
            // The next epoch changes the streams and runs, but does not
            // close: the recorder still shows the network as it is now.
            world.begin_epoch(tid, StreamParams::new(2, 4), false);
            world.step(SimDuration::from_secs(30));
            let tel = world.take_telemetry().expect("telemetry enabled");
            assert_eq!(tel.epochs().len(), 1);
            assert_eq!(
                gauge(&tel, "net_flow_streams", flow),
                Some(SampleValue::Gauge(8.0))
            );
            let losses = gauge(&tel, "net_flow_losses_total", flow);
            match &world.fidelity {
                Fidelity::Dynamic { sim, .. } => {
                    let total = sim.total_losses(flow);
                    assert!(total > 0, "a 30 s dynamic epoch sees losses");
                    assert_eq!(losses, Some(SampleValue::Counter(total)));
                }
                Fidelity::QuasiStatic => assert_eq!(losses, None),
            }
        }
    }

    #[test]
    fn telemetry_does_not_perturb_transfers() {
        let run = |telemetry: bool| {
            let (mut world, path) = uc_world(false);
            if telemetry {
                world.enable_telemetry();
            }
            let tid = world.add_transfer(
                TransferConfig::memory_to_memory(HostId(0), path).with_noise(0.08, 30.0),
            );
            let plan = FaultPlan::degradations(9, 1, 300.0, 120.0, 30.0, 0.3)
                .merge(FaultPlan::aborts(9, tid.0, 300.0, 200.0));
            world.enable_faults(plan);
            let mut reports = Vec::new();
            for i in 0..8 {
                let es = world.begin_epoch(tid, StreamParams::new(4 + i, 8), true);
                world.step(SimDuration::from_secs(30));
                reports.push(world.end_epoch(es));
            }
            (world.moved_mb(tid), world.retries(tid), reports)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn raising_nc_recovers_destination_share_too() {
        // The same fair-share mechanism works at the receiver: more streams
        // claim more of a loaded destination.
        let (mut world, tid, dst) = uc_world_with_dst();
        world.set_compute_jobs(dst, 32);
        world.step(SimDuration::from_secs(30));
        let measure = |world: &mut World, nc: u32| {
            let es = world.begin_epoch(tid, StreamParams::new(nc, 8), false);
            world.step(SimDuration::from_secs(60));
            world.end_epoch(es).observed_mbs
        };
        let low = measure(&mut world, 2);
        let high = measure(&mut world, 48);
        assert!(
            high > 2.0 * low,
            "tuning should recover destination share: {low} -> {high}"
        );
    }
}
