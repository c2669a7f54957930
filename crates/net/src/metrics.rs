//! Read-only export of network state into a [`MetricsRegistry`].
//!
//! The telemetry layer observes the fluid model — it never mutates it. These
//! helpers translate the quasi-static allocation ([`Network`]) and the
//! dynamic window simulation ([`DynamicSim`]) into typed samples:
//!
//! * per-flow fair-share allocation, registered stream count and steady-state
//!   demand (`net_flow_*` gauges),
//! * per-link capacity and current degradation factor (`net_link_*` gauges),
//! * per-path RTT inflation factor (`net_path_rtt_factor`),
//! * cumulative per-flow loss events and mean congestion window from the
//!   dynamic simulation (`net_flow_losses_total`, `net_flow_cwnd_bytes`).
//!
//! Each export shows the network as it is at the call. The world's flight
//! recorder keeps none of these gauges: its metrics snapshot replays its
//! rows into a fresh registry and then calls these once, so the gauges show
//! the network when the snapshot is taken.
//!
//! All label values are derived from stable integer ids, so two exports of
//! the same state produce identical snapshots (the registry orders samples
//! by `(name, labels)`).

use crate::dynamic::DynamicSim;
use crate::network::Network;
use xferopt_simcore::MetricsRegistry;

/// Export the quasi-static allocation state of `net` into `reg`.
///
/// Emits, for every registered flow `f`:
///
/// * `net_flow_fair_share_mbs{flow="<id>"}` — max–min fair goodput, MB/s,
/// * `net_flow_streams{flow="<id>"}` — registered parallel stream count,
/// * `net_flow_demand_mbs{flow="<id>"}` — steady-state aggregate demand,
///
/// and for every link / path:
///
/// * `net_link_capacity_mbs{link="<i>"}` and `net_link_factor{link="<i>"}`,
/// * `net_path_rtt_factor{path="<i>"}`.
pub fn export_network(reg: &mut MetricsRegistry, net: &Network) {
    // Reads the cached allocation: exporting after a `World::step` costs no
    // extra solve, and repeated exports of unchanged state cost none at all.
    for (flow, group) in net.flows() {
        let id = flow.0.to_string();
        let labels = [("flow", id.as_str())];
        reg.gauge("net_flow_fair_share_mbs", &labels)
            .set(net.flow_rate(flow));
        reg.gauge("net_flow_streams", &labels)
            .set(f64::from(group.streams));
        reg.gauge("net_flow_demand_mbs", &labels)
            .set(net.flow_demand_mbs(flow));
    }
    for i in 0..net.link_count() {
        let id = i.to_string();
        let labels = [("link", id.as_str())];
        let link = crate::link::LinkId(i);
        reg.gauge("net_link_capacity_mbs", &labels)
            .set(net.link(link).capacity_mbs);
        reg.gauge("net_link_factor", &labels)
            .set(net.link_factor(link));
    }
    for i in 0..net.path_count() {
        let id = i.to_string();
        reg.gauge("net_path_rtt_factor", &[("path", id.as_str())])
            .set(net.rtt_factor(crate::link::PathId(i)));
    }
}

/// Export the dynamic window-evolution state of `sim` into `reg`.
///
/// Emits, for every flow registered in `net`:
///
/// * `net_flow_losses_total{flow="<id>"}` — cumulative loss events (a
///   monotone counter; repeated exports advance it to the current total),
/// * `net_flow_cwnd_bytes{flow="<id>"}` — mean congestion window over the
///   flow's live streams (omitted when the flow has none).
pub fn export_dynamic(reg: &mut MetricsRegistry, net: &Network, sim: &DynamicSim) {
    for flow in net.iter_flow_ids() {
        let id = flow.0.to_string();
        let labels = [("flow", id.as_str())];
        let total = sim.total_losses(flow);
        let c = reg.counter("net_flow_losses_total", &labels);
        let cur = c.get();
        debug_assert!(total >= cur, "loss counter went backwards");
        c.add(total.saturating_sub(cur));
        if let Some(cwnd) = sim.mean_cwnd_bytes(flow) {
            reg.gauge("net_flow_cwnd_bytes", &labels).set(cwnd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Link, Path};
    use crate::tcp::CongestionControl;
    use xferopt_simcore::SampleValue;

    fn net_with_flow(streams: u32) -> (Network, crate::flow::FlowId) {
        let mut net = Network::new();
        let nic = net.add_link(Link::new("nic", 1000.0));
        let path = net.add_path(Path::new("p", vec![nic]).with_rtt_ms(33.0).with_loss(1e-5));
        let f = net.add_flow(path, streams, CongestionControl::HTcp);
        (net, f)
    }

    #[test]
    fn exports_fair_share_and_streams() {
        let (net, f) = net_with_flow(8);
        let mut reg = MetricsRegistry::new();
        export_network(&mut reg, &net);
        let snap = reg.snapshot();
        let id = f.0.to_string();
        let labels = [("flow", id.as_str())];
        match snap.get("net_flow_streams", &labels) {
            Some(SampleValue::Gauge(v)) => assert_eq!(*v, 8.0),
            other => panic!("missing streams gauge: {other:?}"),
        }
        match snap.get("net_flow_fair_share_mbs", &labels) {
            Some(SampleValue::Gauge(v)) => assert!(*v > 0.0 && *v <= 1000.0),
            other => panic!("missing fair-share gauge: {other:?}"),
        }
    }

    #[test]
    fn export_is_deterministic() {
        let (net, _) = net_with_flow(4);
        let render = || {
            let mut reg = MetricsRegistry::new();
            export_network(&mut reg, &net);
            reg.snapshot().to_jsonl()
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn dynamic_export_tracks_cumulative_losses() {
        let (net, f) = net_with_flow(64);
        let mut sim = DynamicSim::new(4);
        sim.sync_streams(&net);
        let mut reg = MetricsRegistry::new();
        for _ in 0..200 {
            sim.step(&net, 0.05);
        }
        export_dynamic(&mut reg, &net, &sim);
        let after_first = {
            let id = f.0.to_string();
            let labels = [("flow", id.as_str())];
            match reg.snapshot().get("net_flow_losses_total", &labels) {
                Some(SampleValue::Counter(n)) => *n,
                other => panic!("missing loss counter: {other:?}"),
            }
        };
        assert_eq!(after_first, sim.total_losses(f));
        assert!(after_first > 0, "64 streams on 1 GB/s must lose packets");
        // Re-export is idempotent when nothing advanced.
        export_dynamic(&mut reg, &net, &sim);
        let id = f.0.to_string();
        let labels = [("flow", id.as_str())];
        match reg.snapshot().get("net_flow_losses_total", &labels) {
            Some(SampleValue::Counter(n)) => assert_eq!(*n, after_first),
            other => panic!("missing loss counter: {other:?}"),
        }
    }

    #[test]
    fn export_does_not_perturb_simulation() {
        let run = |export: bool| {
            let (net, f) = net_with_flow(8);
            let mut sim = DynamicSim::new(42);
            sim.sync_streams(&net);
            let mut rates = Vec::new();
            for _ in 0..100 {
                let stats = sim.step(&net, 0.05);
                rates.push(stats[&f].rate_mbs);
                if export {
                    let mut reg = MetricsRegistry::new();
                    export_network(&mut reg, &net);
                    export_dynamic(&mut reg, &net, &sim);
                }
            }
            rates
        };
        assert_eq!(run(false), run(true));
    }
}
