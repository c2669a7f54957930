//! The mutation-churn fixture shared by `alloc_engine.rs`, which counts its
//! component solves, and `perf_gates.rs`, which times it.

use xferopt::net::{CongestionControl, FlowId, Link, LinkId, Network, Path, PathId};

/// `links / 2` disjoint two-link islands (NIC + WAN), two paths per island
/// and `flows` flow groups spread round-robin over the paths. A mutation
/// confined to one island dirties exactly one bottleneck component: the
/// partial re-solve case.
pub struct Churn {
    pub net: Network,
    links: Vec<LinkId>,
    paths: Vec<PathId>,
    island_flows: Vec<Vec<FlowId>>,
}

impl Churn {
    pub fn new(flows: usize, links: usize) -> Churn {
        assert!(links >= 2 && links.is_multiple_of(2), "need 2-link islands");
        let mut net = Network::new();
        let mut lids = Vec::new();
        let mut pids = Vec::new();
        for c in 0..links / 2 {
            let nic = net.add_link(Link::new(format!("c{c}-nic"), 5000.0).with_half_streams(16.0));
            let wan = net.add_link(Link::new(format!("c{c}-wan"), 2500.0));
            lids.extend([nic, wan]);
            pids.push(
                net.add_path(
                    Path::new(format!("c{c}-long"), vec![nic, wan])
                        .with_rtt_ms(2.0 + c as f64)
                        .with_loss(1e-5),
                ),
            );
            pids.push(
                net.add_path(
                    Path::new(format!("c{c}-short"), vec![nic])
                        .with_rtt_ms(1.0)
                        .with_loss(1e-5),
                ),
            );
        }
        let mut island_flows = vec![Vec::new(); links / 2];
        for f in 0..flows {
            let p = f % pids.len();
            let id = net.add_flow(pids[p], 1 + (f % 32) as u32, CongestionControl::HTcp);
            island_flows[p / 2].push(id);
        }
        Churn {
            net,
            links: lids,
            paths: pids,
            island_flows,
        }
    }

    /// Round `r` of the tape: four mutations confined to one island picked
    /// by a fixed LCG (two stream writes, one link-factor flap, one RTT
    /// wiggle), then a read of that island's flows: the
    /// tuner-observes-its-epoch pattern. The read runs one solve pass, which
    /// re-solves only the mutated island unless `full` marks every
    /// component dirty first (the pre-dirty-set baseline).
    pub fn round(&mut self, r: usize, full: bool) -> f64 {
        let c = (r
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
            >> 33)
            % self.island_flows.len();
        let cf = &self.island_flows[c];
        self.net
            .set_streams(cf[r % cf.len()], 1 + ((r * 7) % 64) as u32);
        self.net
            .set_streams(cf[(r + 1) % cf.len()], 1 + ((r * 13) % 64) as u32);
        self.net.set_link_factor(
            self.links[2 * c + 1],
            if r.is_multiple_of(2) { 0.6 } else { 1.0 },
        );
        self.net
            .set_rtt_factor(self.paths[2 * c], 1.0 + (r % 4) as f64 * 0.5);
        if full {
            self.net.invalidate_all();
        }
        cf.iter().map(|&id| self.net.flow_rate(id)).sum()
    }
}
