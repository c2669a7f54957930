//! Dynamic per-stream congestion-window simulation.
//!
//! The quasi-static model in [`crate::network`] assumes every stream sits at
//! its steady-state rate. This module instead *evolves* each stream's
//! congestion window on a fixed time step — slow start, variant-specific
//! congestion avoidance, multiplicative decrease on random (Poisson) and
//! congestion-induced losses — and allocates link bandwidth per step with the
//! same max–min solver. It reproduces the ramp-up transients the paper cites
//! as one reason multiple streams help ("scale more rapidly to peak
//! bandwidth") and the AIMD sawtooth that leaves bandwidth unused.

use crate::fairness::{max_min_allocate_into, AllocScratch, FlowDemand};
use crate::flow::FlowId;
use crate::network::Network;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeMap;
use xferopt_simcore::rng::RngFactory;

/// State of one TCP stream.
#[derive(Debug, Clone)]
struct StreamState {
    flow: FlowId,
    /// Congestion window in bytes.
    cwnd: f64,
    /// Slow-start threshold in bytes.
    ssthresh: f64,
    /// Window size at the last loss (CUBIC's Wmax anchor).
    w_last_max: f64,
    /// Seconds since the last loss event.
    since_loss: f64,
    rng: SmallRng,
}

/// Per-flow output of one simulation step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FlowStepStats {
    /// Achieved rate over the step, MB/s.
    pub rate_mbs: f64,
    /// Number of streams that experienced a loss event this step.
    pub losses: u32,
    /// Current number of streams.
    pub streams: u32,
}

/// A dynamic window-evolution simulation bound to a [`Network`] topology.
///
/// The `Network`'s flow *registration* is reused for paths and stream counts;
/// `DynamicSim` maintains its own per-stream state and must be told about
/// stream-count changes via [`DynamicSim::sync_streams`].
#[derive(Debug)]
pub struct DynamicSim {
    streams: Vec<StreamState>,
    factory: RngFactory,
    spawned: u64,
    /// Initial window: 10 segments (RFC 6928).
    init_cwnd: f64,
    elapsed_s: f64,
    /// Cumulative loss events per flow since construction (survives stream
    /// retirement, unlike the per-step [`FlowStepStats::losses`]).
    cum_losses: BTreeMap<FlowId, u64>,
    /// Reused per-step buffers (scratch, not logical state): effective link
    /// capacities, per-stream demands, solver output, per-link demand sums,
    /// and the progressive-filling working arrays. Steady-state stepping
    /// performs no heap allocation.
    caps_buf: Vec<f64>,
    demands_buf: Vec<FlowDemand>,
    alloc_buf: Vec<f64>,
    link_demand_buf: Vec<f64>,
    scratch: AllocScratch,
}

impl DynamicSim {
    /// Create a simulation seeded by `seed`. Call [`DynamicSim::sync_streams`]
    /// before the first step to populate stream state from the network.
    pub fn new(seed: u64) -> Self {
        DynamicSim {
            streams: Vec::new(),
            factory: RngFactory::new(seed),
            spawned: 0,
            init_cwnd: 10.0 * crate::tcp::DEFAULT_MSS_BYTES,
            elapsed_s: 0.0,
            cum_losses: BTreeMap::new(),
            caps_buf: Vec::new(),
            demands_buf: Vec::new(),
            alloc_buf: Vec::new(),
            link_demand_buf: Vec::new(),
            scratch: AllocScratch::new(),
        }
    }

    /// Total simulated seconds stepped so far.
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_s
    }

    /// Cumulative loss events observed by `flow` since construction.
    pub fn total_losses(&self, flow: FlowId) -> u64 {
        self.cum_losses.get(&flow).copied().unwrap_or(0)
    }

    /// Mean congestion window (bytes) over the live streams of `flow`, or
    /// `None` when the flow has no live streams.
    pub fn mean_cwnd_bytes(&self, flow: FlowId) -> Option<f64> {
        let (sum, n) = self
            .streams
            .iter()
            .filter(|s| s.flow == flow)
            .fold((0.0f64, 0u64), |(sum, n), s| (sum + s.cwnd, n + 1));
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Number of live streams across all flows.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Reconcile per-stream state with the stream counts registered in `net`:
    /// spawn new streams (in slow start) or retire surplus ones. Newly
    /// spawned streams get fresh, deterministic RNG streams.
    pub fn sync_streams(&mut self, net: &Network) {
        // Count live streams per flow.
        let mut have: BTreeMap<FlowId, u32> = BTreeMap::new();
        for s in &self.streams {
            *have.entry(s.flow).or_insert(0) += 1;
        }
        // Retire streams for flows that shrank or vanished.
        let mut excess: BTreeMap<FlowId, u32> = BTreeMap::new();
        for (&flow, &n) in &have {
            let want = net.flow(flow).map(|f| f.streams).unwrap_or(0);
            if n > want {
                excess.insert(flow, n - want);
            }
        }
        if !excess.is_empty() {
            // Retire from the back so long-lived streams keep their state.
            let mut kept = Vec::with_capacity(self.streams.len());
            for s in self.streams.drain(..).rev() {
                match excess.get_mut(&s.flow) {
                    Some(e) if *e > 0 => *e -= 1,
                    _ => kept.push(s),
                }
            }
            kept.reverse();
            self.streams = kept;
        }
        // Spawn streams for flows that grew.
        for flow in net.iter_flow_ids() {
            let want = net.flow(flow).map(|f| f.streams).unwrap_or(0);
            let have_n = self.streams.iter().filter(|s| s.flow == flow).count() as u32;
            for _ in have_n..want {
                let rng = self.factory.rng_for(self.spawned);
                self.spawned += 1;
                self.streams.push(StreamState {
                    flow,
                    cwnd: self.init_cwnd,
                    ssthresh: f64::INFINITY,
                    w_last_max: self.init_cwnd,
                    since_loss: 0.0,
                    rng,
                });
            }
        }
    }

    /// Advance the simulation by `dt_s` seconds against the topology and
    /// stream counts in `net`. Returns per-flow statistics for the step.
    ///
    /// # Panics
    /// Panics if `dt_s` is not strictly positive.
    pub fn step(&mut self, net: &Network, dt_s: f64) -> BTreeMap<FlowId, FlowStepStats> {
        assert!(dt_s > 0.0, "step must be positive");
        self.elapsed_s += dt_s;
        let mss = net.mss_bytes();

        // 1. Per-stream demand: cwnd/RTT capped by the socket buffer.
        // All solver inputs live in reused buffers — no per-step allocation
        // once the working set has been reached.
        self.caps_buf.clear();
        self.caps_buf.extend(net.iter_link_capacities());
        self.demands_buf.truncate(self.streams.len());
        while self.demands_buf.len() < self.streams.len() {
            self.demands_buf.push(FlowDemand {
                weight: 0.0,
                demand_cap: 0.0,
                links: Vec::new(),
            });
        }
        for (s, d) in self.streams.iter().zip(self.demands_buf.iter_mut()) {
            let f = net.flow(s.flow).expect("stream references removed flow");
            let p = net.path(f.path);
            let rate = (s.cwnd.min(p.wmax_bytes)) / net.effective_rtt_s(f.path) / 1e6;
            d.weight = 1.0;
            d.demand_cap = rate;
            d.links.clear();
            d.links.extend(p.links.iter().map(|l| l.0));
        }
        self.scratch
            .rebuild_adjacency(self.caps_buf.len(), &self.demands_buf);
        max_min_allocate_into(
            &self.caps_buf,
            &self.demands_buf,
            &mut self.scratch,
            &mut self.alloc_buf,
        );
        let caps: &[f64] = &self.caps_buf;
        let demands: &[FlowDemand] = &self.demands_buf;
        let alloc: &[f64] = &self.alloc_buf;

        // 2. Congestion pressure per link: demand / capacity.
        self.link_demand_buf.clear();
        self.link_demand_buf.resize(caps.len(), 0.0);
        for d in demands {
            for &l in &d.links {
                self.link_demand_buf[l] += d.demand_cap;
            }
        }
        let link_demand: &[f64] = &self.link_demand_buf;

        // 3. Evolve each stream.
        let mut out: BTreeMap<FlowId, FlowStepStats> = BTreeMap::new();
        for (s, (d, &rate)) in self.streams.iter_mut().zip(demands.iter().zip(alloc)) {
            let f = net.flow(s.flow).expect("stream references removed flow");
            let p = net.path(f.path);
            let rtt_s = net.effective_rtt_s(f.path);
            let cc = f.cc;

            // Loss probability this step: random per-packet loss over the
            // packets actually sent, plus congestion loss proportional to the
            // worst oversubscription among crossed links.
            let pkts = rate * 1e6 * dt_s / mss;
            let p_rand = 1.0 - (1.0 - p.loss).powf(pkts.max(0.0));
            let overload = d
                .links
                .iter()
                .map(|&l| (link_demand[l] / caps[l].max(1e-12) - 1.0).max(0.0))
                .fold(0.0f64, f64::max);
            // An oversubscribed link drops the excess; a window's chance of
            // seeing a drop within one step scales with its share of it.
            let p_cong = (overload * 0.5).min(0.9);
            let p_loss = (p_rand + p_cong - p_rand * p_cong).clamp(0.0, 1.0);

            let stats = out.entry(s.flow).or_default();
            stats.rate_mbs += rate;
            stats.streams += 1;

            if s.rng.gen_bool(p_loss) {
                s.w_last_max = s.cwnd;
                s.cwnd = cc.on_loss(s.cwnd, mss);
                s.ssthresh = s.cwnd;
                s.since_loss = 0.0;
                stats.losses += 1;
                *self.cum_losses.entry(s.flow).or_insert(0) += 1;
            } else if s.cwnd < s.ssthresh {
                // Slow start: double per RTT, clamp at ssthresh.
                let grown = s.cwnd * 2f64.powf(dt_s / rtt_s);
                s.cwnd = grown.min(s.ssthresh).min(p.wmax_bytes);
                s.since_loss += dt_s;
            } else {
                s.cwnd = cc
                    .grow_window(s.cwnd, s.w_last_max, rtt_s, s.since_loss, dt_s, mss)
                    .min(p.wmax_bytes);
                s.since_loss += dt_s;
            }
        }
        // Flows with zero live streams still appear with zeros if registered.
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Link, Path};
    use crate::tcp::CongestionControl;

    fn simple_net(streams: u32) -> (Network, FlowId) {
        let mut net = Network::new();
        let nic = net.add_link(Link::new("nic", 1000.0));
        let path = net.add_path(Path::new("p", vec![nic]).with_rtt_ms(33.0).with_loss(1e-5));
        let f = net.add_flow(path, streams, CongestionControl::HTcp);
        (net, f)
    }

    fn run(net: &Network, sim: &mut DynamicSim, flow: FlowId, secs: f64, dt: f64) -> Vec<f64> {
        let mut rates = Vec::new();
        let steps = (secs / dt) as usize;
        for _ in 0..steps {
            let stats = sim.step(net, dt);
            rates.push(stats.get(&flow).map(|s| s.rate_mbs).unwrap_or(0.0));
        }
        rates
    }

    #[test]
    fn slow_start_ramps_up() {
        let (net, f) = simple_net(1);
        let mut sim = DynamicSim::new(1);
        sim.sync_streams(&net);
        let rates = run(&net, &mut sim, f, 3.0, 0.033);
        assert!(
            rates[0] < rates[rates.len() - 1] * 0.9,
            "no ramp-up observed"
        );
    }

    #[test]
    fn more_streams_ramp_faster() {
        let measure = |k: u32| {
            let (net, f) = simple_net(k);
            let mut sim = DynamicSim::new(7);
            sim.sync_streams(&net);
            let rates = run(&net, &mut sim, f, 2.0, 0.033);
            rates.iter().sum::<f64>() / rates.len() as f64
        };
        let one = measure(1);
        let eight = measure(8);
        assert!(
            eight > 2.0 * one,
            "8 streams should ramp much faster: {one} vs {eight}"
        );
    }

    #[test]
    fn rates_never_exceed_capacity() {
        let (net, f) = simple_net(32);
        let mut sim = DynamicSim::new(3);
        sim.sync_streams(&net);
        let rates = run(&net, &mut sim, f, 10.0, 0.05);
        for r in rates {
            assert!(r <= 1000.0 + 1e-6, "rate {r} exceeds link capacity");
        }
    }

    #[test]
    fn losses_occur_under_congestion() {
        let (net, f) = simple_net(64);
        let mut sim = DynamicSim::new(4);
        sim.sync_streams(&net);
        let mut losses = 0;
        for _ in 0..400 {
            let stats = sim.step(&net, 0.05);
            losses += stats[&f].losses;
        }
        assert!(
            losses > 0,
            "64 streams on a 1 GB/s link must see congestion loss"
        );
    }

    #[test]
    fn sync_streams_grows_and_shrinks() {
        let (mut net, f) = simple_net(4);
        let mut sim = DynamicSim::new(5);
        sim.sync_streams(&net);
        assert_eq!(sim.stream_count(), 4);
        net.set_streams(f, 10);
        sim.sync_streams(&net);
        assert_eq!(sim.stream_count(), 10);
        net.set_streams(f, 2);
        sim.sync_streams(&net);
        assert_eq!(sim.stream_count(), 2);
        net.set_streams(f, 0);
        sim.sync_streams(&net);
        assert_eq!(sim.stream_count(), 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let run_once = || {
            let (net, f) = simple_net(8);
            let mut sim = DynamicSim::new(42);
            sim.sync_streams(&net);
            run(&net, &mut sim, f, 5.0, 0.05)
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn link_degradation_caps_dynamic_rates() {
        let (mut net, f) = simple_net(16);
        let mut sim = DynamicSim::new(9);
        sim.sync_streams(&net);
        // Warm up at full capacity, then degrade the link to 20%.
        run(&net, &mut sim, f, 5.0, 0.05);
        net.set_link_factor(crate::link::LinkId(0), 0.2);
        let rates = run(&net, &mut sim, f, 5.0, 0.05);
        for r in &rates {
            assert!(*r <= 200.0 + 1e-6, "rate {r} exceeds degraded capacity");
        }
    }

    #[test]
    fn rtt_spike_slows_ramp_up() {
        let measure = |factor: f64| {
            let (mut net, f) = simple_net(4);
            net.set_rtt_factor(crate::link::PathId(0), factor);
            let mut sim = DynamicSim::new(11);
            sim.sync_streams(&net);
            let rates = run(&net, &mut sim, f, 2.0, 0.033);
            rates.iter().sum::<f64>() / rates.len() as f64
        };
        let normal = measure(1.0);
        let spiked = measure(8.0);
        assert!(
            spiked < normal * 0.7,
            "8x RTT should slow ramp-up: normal {normal} vs spiked {spiked}"
        );
    }

    #[test]
    fn elapsed_tracks_steps() {
        let (net, _) = simple_net(1);
        let mut sim = DynamicSim::new(1);
        sim.sync_streams(&net);
        for _ in 0..10 {
            sim.step(&net, 0.1);
        }
        assert!((sim.elapsed_s() - 1.0).abs() < 1e-9);
    }
}
