//! Named-node topology builder with shortest-path routing.
//!
//! The core [`crate::Network`] is deliberately low level: links, paths,
//! flows by index. Real deployments are described as *sites* connected by
//! *links*; this builder lets users write that description and derives the
//! `Network` — finding the route between any two sites by Dijkstra over
//! link latencies, accumulating RTT and compounding loss along the way.
//!
//! ```
//! use xferopt_net::topology::TopologyBuilder;
//! use xferopt_net::CongestionControl;
//!
//! let mut b = TopologyBuilder::new();
//! b.add_site("anl");
//! b.add_site("starlight");
//! b.add_site("uchicago");
//! b.connect("anl", "starlight", 5000.0, 0.5, 1e-6);
//! b.connect("starlight", "uchicago", 5000.0, 0.5, 1e-6);
//! let (mut net, routes) = b.build(&[("anl", "uchicago")]).unwrap();
//! let f = net.add_flow(routes[0], 16, CongestionControl::HTcp);
//! assert!(net.allocation_of(f) > 0.0);
//! ```

use crate::link::{Link, LinkId, Path, PathId};
use crate::network::Network;
use std::collections::{BTreeMap, BinaryHeap};

/// Error from topology construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A site name was used twice.
    DuplicateSite(String),
    /// A referenced site does not exist.
    UnknownSite(String),
    /// No route exists between the endpoints.
    NoRoute(String, String),
    /// A connection was declared twice between the same pair.
    DuplicateEdge(String, String),
    /// An explicit route referenced an edge index that does not exist.
    BadEdge(usize),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::DuplicateSite(s) => write!(f, "duplicate site: {s}"),
            TopologyError::UnknownSite(s) => write!(f, "unknown site: {s}"),
            TopologyError::NoRoute(a, b) => write!(f, "no route from {a} to {b}"),
            TopologyError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} <-> {b}"),
            TopologyError::BadEdge(i) => write!(f, "edge index {i} out of range"),
        }
    }
}
impl std::error::Error for TopologyError {}

#[derive(Debug, Clone)]
struct Edge {
    to: usize,
    capacity_mbs: f64,
    one_way_ms: f64,
    loss: f64,
    /// Index into the builder's edge list (shared by both directions).
    edge_idx: usize,
}

/// Builder for site-graph topologies.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    sites: Vec<String>,
    index: BTreeMap<String, usize>,
    adj: Vec<Vec<Edge>>,
    n_edges: usize,
    half_streams: f64,
}

impl TopologyBuilder {
    /// An empty topology with no AIMD derating.
    pub fn new() -> Self {
        TopologyBuilder::default()
    }

    /// Apply an AIMD half-saturation stream count to every built link.
    pub fn with_half_streams(mut self, h: f64) -> Self {
        assert!(h >= 0.0, "half_streams must be non-negative");
        self.half_streams = h;
        self
    }

    /// Declare a site. Returns an error on duplicates.
    pub fn add_site(&mut self, name: &str) -> &mut Self {
        if self.index.contains_key(name) {
            // Defer error to build-time? No: panic-free fluent API — record
            // duplicate as is and let `try_add_site` handle errors.
        }
        self.try_add_site(name).expect("duplicate site");
        self
    }

    /// Declare a site, returning an error on duplicates.
    pub fn try_add_site(&mut self, name: &str) -> Result<(), TopologyError> {
        if self.index.contains_key(name) {
            return Err(TopologyError::DuplicateSite(name.to_string()));
        }
        self.index.insert(name.to_string(), self.sites.len());
        self.sites.push(name.to_string());
        self.adj.push(Vec::new());
        Ok(())
    }

    /// Connect two sites with a bidirectional link of `capacity_mbs`,
    /// one-way latency `one_way_ms` and per-packet loss `loss`.
    ///
    /// # Panics
    /// Panics on unknown sites or duplicate edges (use [`TopologyBuilder::try_connect`]
    /// for error handling).
    pub fn connect(
        &mut self,
        a: &str,
        b: &str,
        capacity_mbs: f64,
        one_way_ms: f64,
        loss: f64,
    ) -> &mut Self {
        self.try_connect(a, b, capacity_mbs, one_way_ms, loss)
            .expect("connect failed");
        self
    }

    /// Fallible [`TopologyBuilder::connect`].
    pub fn try_connect(
        &mut self,
        a: &str,
        b: &str,
        capacity_mbs: f64,
        one_way_ms: f64,
        loss: f64,
    ) -> Result<(), TopologyError> {
        let ia = *self
            .index
            .get(a)
            .ok_or_else(|| TopologyError::UnknownSite(a.to_string()))?;
        let ib = *self
            .index
            .get(b)
            .ok_or_else(|| TopologyError::UnknownSite(b.to_string()))?;
        if self.adj[ia].iter().any(|e| e.to == ib) {
            return Err(TopologyError::DuplicateEdge(a.to_string(), b.to_string()));
        }
        let edge_idx = self.n_edges;
        self.n_edges += 1;
        self.adj[ia].push(Edge {
            to: ib,
            capacity_mbs,
            one_way_ms,
            loss,
            edge_idx,
        });
        self.adj[ib].push(Edge {
            to: ia,
            capacity_mbs,
            one_way_ms,
            loss,
            edge_idx,
        });
        Ok(())
    }

    /// Lowest-latency route between two sites: `(site indices, edge indices)`.
    fn route(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        // Dijkstra over one-way latency.
        #[derive(PartialEq)]
        struct State {
            cost_ms: f64,
            node: usize,
        }
        impl Eq for State {}
        impl Ord for State {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other
                    .cost_ms
                    .partial_cmp(&self.cost_ms)
                    .unwrap_or(std::cmp::Ordering::Equal)
            }
        }
        impl PartialOrd for State {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let n = self.sites.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev_edge: Vec<Option<(usize, usize)>> = vec![None; n]; // (from_node, edge_idx)
        let mut heap = BinaryHeap::new();
        dist[from] = 0.0;
        heap.push(State {
            cost_ms: 0.0,
            node: from,
        });
        while let Some(State { cost_ms, node }) = heap.pop() {
            if cost_ms > dist[node] {
                continue;
            }
            if node == to {
                break;
            }
            for e in &self.adj[node] {
                let next = cost_ms + e.one_way_ms;
                if next < dist[e.to] {
                    dist[e.to] = next;
                    prev_edge[e.to] = Some((node, e.edge_idx));
                    heap.push(State {
                        cost_ms: next,
                        node: e.to,
                    });
                }
            }
        }
        if dist[to].is_infinite() {
            return None;
        }
        let mut edges = Vec::new();
        let mut cursor = to;
        while cursor != from {
            let (prev, edge) = prev_edge[cursor]?;
            edges.push(edge);
            cursor = prev;
        }
        edges.reverse();
        Some(edges)
    }

    /// Per-edge `(capacity_mbs, one_way_ms, loss)` metadata, indexed by
    /// edge index.
    fn edge_caps(&self) -> Vec<(f64, f64, f64)> {
        let mut caps: Vec<Option<(f64, f64, f64)>> = vec![None; self.n_edges];
        for edges in &self.adj {
            for e in edges {
                caps[e.edge_idx] = Some((e.capacity_mbs, e.one_way_ms, e.loss));
            }
        }
        caps.into_iter()
            .map(|c| c.expect("edge without metadata"))
            .collect()
    }

    /// Number of declared edges (= number of links a build will create).
    pub fn edge_count(&self) -> usize {
        self.n_edges
    }

    /// Aggregate `(rtt_ms, loss, bottleneck_mbs)` along an explicit edge
    /// list: RTT accumulates, loss compounds, capacity is the minimum.
    ///
    /// # Errors
    /// Returns [`TopologyError::BadEdge`] on an out-of-range edge index.
    pub fn route_stats(&self, edges: &[usize]) -> Result<(f64, f64, f64), TopologyError> {
        let caps = self.edge_caps();
        let mut rtt_ms = 0.0;
        let mut pass = 1.0;
        let mut bottleneck = f64::INFINITY;
        for &e in edges {
            let (cap, ms, loss) = *caps.get(e).ok_or(TopologyError::BadEdge(e))?;
            rtt_ms += 2.0 * ms;
            pass *= 1.0 - loss;
            bottleneck = bottleneck.min(cap);
        }
        Ok((rtt_ms, (1.0 - pass).clamp(0.0, 0.999_999), bottleneck))
    }

    /// Dijkstra over one-way latency with edges/nodes masked out (the spur
    /// machinery of Yen's algorithm). Ties are broken toward the
    /// lexicographically smallest edge list so enumeration is deterministic.
    fn route_masked(
        &self,
        from: usize,
        to: usize,
        banned_edges: &[bool],
        banned_nodes: &[bool],
    ) -> Option<(f64, Vec<usize>)> {
        #[derive(PartialEq)]
        struct State {
            cost_ms: f64,
            node: usize,
        }
        impl Eq for State {}
        impl Ord for State {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other
                    .cost_ms
                    .partial_cmp(&self.cost_ms)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(other.node.cmp(&self.node))
            }
        }
        impl PartialOrd for State {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let n = self.sites.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev_edge: Vec<Option<(usize, usize)>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[from] = 0.0;
        heap.push(State {
            cost_ms: 0.0,
            node: from,
        });
        while let Some(State { cost_ms, node }) = heap.pop() {
            if cost_ms > dist[node] {
                continue;
            }
            for e in &self.adj[node] {
                if banned_edges.get(e.edge_idx).copied().unwrap_or(false)
                    || banned_nodes.get(e.to).copied().unwrap_or(false)
                {
                    continue;
                }
                let next = cost_ms + e.one_way_ms;
                let better = next < dist[e.to]
                    || (next == dist[e.to]
                        && prev_edge[e.to].is_some_and(|(_, pe)| e.edge_idx < pe));
                if better {
                    dist[e.to] = next;
                    prev_edge[e.to] = Some((node, e.edge_idx));
                    heap.push(State {
                        cost_ms: next,
                        node: e.to,
                    });
                }
            }
        }
        if dist[to].is_infinite() {
            return None;
        }
        let mut edges = Vec::new();
        let mut cursor = to;
        while cursor != from {
            // A shortest path visits each node at most once. A longer walk
            // means the equal-cost tie-break linked two nodes to each other,
            // which latencies too far apart for their sums to stay exact
            // can make it do.
            if edges.len() == n {
                return None;
            }
            let (prev, edge) = prev_edge[cursor]?;
            edges.push(edge);
            cursor = prev;
        }
        edges.reverse();
        Some((dist[to], edges))
    }

    /// Node sequence visited by an edge list starting at `from`.
    fn node_sequence(&self, from: usize, edges: &[usize]) -> Vec<usize> {
        let mut nodes = vec![from];
        let mut cur = from;
        for &e in edges {
            let next = self.adj[cur]
                .iter()
                .find(|a| a.edge_idx == e)
                .map(|a| a.to)
                .expect("edge list does not continue the walk");
            nodes.push(next);
            cur = next;
        }
        nodes
    }

    /// Up to `k` loopless lowest-latency routes between two sites (Yen's
    /// algorithm), each as an edge-index list. Deterministic: candidates are
    /// ordered by latency, then by the lexicographic edge list. Fewer than
    /// `k` routes are returned when the graph has fewer distinct loopless
    /// routes.
    ///
    /// # Errors
    /// Returns [`TopologyError::UnknownSite`] / [`TopologyError::NoRoute`]
    /// on bad endpoints.
    pub fn k_shortest_routes(
        &self,
        from: &str,
        to: &str,
        k: usize,
    ) -> Result<Vec<Vec<usize>>, TopologyError> {
        let ia = *self
            .index
            .get(from)
            .ok_or_else(|| TopologyError::UnknownSite(from.to_string()))?;
        let ib = *self
            .index
            .get(to)
            .ok_or_else(|| TopologyError::UnknownSite(to.to_string()))?;
        let caps = self.edge_caps();
        let no_edges = vec![false; self.n_edges];
        let no_nodes = vec![false; self.sites.len()];
        let (cost0, first) = self
            .route_masked(ia, ib, &no_edges, &no_nodes)
            .ok_or_else(|| TopologyError::NoRoute(from.to_string(), to.to_string()))?;
        let mut shortest: Vec<(f64, Vec<usize>)> = vec![(cost0, first)];
        // Candidate pool, kept sorted by (cost, edges) for deterministic pops.
        let mut candidates: Vec<(f64, Vec<usize>)> = Vec::new();
        while shortest.len() < k {
            let (_, last) = shortest.last().expect("non-empty").clone();
            let last_nodes = self.node_sequence(ia, &last);
            for spur in 0..last.len() {
                let root = &last[..spur];
                let spur_node = last_nodes[spur];
                let mut banned_edges = no_edges.clone();
                for (_, path) in shortest.iter().chain(candidates.iter()) {
                    if path.len() > spur && path[..spur] == *root {
                        banned_edges[path[spur]] = true;
                    }
                }
                let mut banned_nodes = no_nodes.clone();
                for &n in &last_nodes[..spur] {
                    banned_nodes[n] = true;
                }
                if let Some((spur_cost, tail)) =
                    self.route_masked(spur_node, ib, &banned_edges, &banned_nodes)
                {
                    let mut total: Vec<usize> = root.to_vec();
                    total.extend(tail);
                    let root_cost: f64 = root.iter().map(|&e| caps[e].1).sum::<f64>();
                    let cand = (root_cost + spur_cost, total);
                    if !shortest.contains(&cand) && !candidates.contains(&cand) {
                        candidates.push(cand);
                    }
                }
            }
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.1.cmp(&b.1))
            });
            shortest.push(candidates.remove(0));
        }
        Ok(shortest.into_iter().map(|(_, e)| e).collect())
    }

    /// Build a [`Network`] with one [`Link`] per declared edge and one
    /// [`Path`] per explicit `(name, edge list)` route. RTT accumulates
    /// along the route; loss compounds (`1 − Π(1 − p_l)`).
    ///
    /// # Errors
    /// Returns [`TopologyError::BadEdge`] on an out-of-range edge index.
    pub fn build_explicit(
        &self,
        routes: &[(String, Vec<usize>)],
    ) -> Result<(Network, Vec<PathId>), TopologyError> {
        let mut net = Network::new();
        let edge_caps = self.edge_caps();
        let link_ids: Vec<LinkId> = edge_caps
            .iter()
            .enumerate()
            .map(|(i, &(cap, _, _))| {
                net.add_link(
                    Link::new(format!("edge{i}"), cap).with_half_streams(self.half_streams),
                )
            })
            .collect();
        let mut paths = Vec::new();
        for (name, edges) in routes {
            let mut rtt_ms = 0.0;
            let mut pass = 1.0;
            for &e in edges {
                let (_, ms, loss) = *edge_caps.get(e).ok_or(TopologyError::BadEdge(e))?;
                rtt_ms += 2.0 * ms;
                pass *= 1.0 - loss;
            }
            let links: Vec<LinkId> = edges.iter().map(|&e| link_ids[e]).collect();
            let path = Path::new(name.clone(), links)
                .with_rtt_ms(rtt_ms.max(1e-3))
                .with_loss((1.0 - pass).clamp(0.0, 0.999_999));
            paths.push(net.add_path(path));
        }
        Ok((net, paths))
    }

    /// Build a [`Network`] and one path per requested `(src, dst)` pair,
    /// routed by lowest latency. RTT accumulates along the route; loss
    /// compounds (`1 − Π(1 − p_l)`).
    pub fn build(&self, pairs: &[(&str, &str)]) -> Result<(Network, Vec<PathId>), TopologyError> {
        let mut routes = Vec::new();
        for &(a, b) in pairs {
            let ia = *self
                .index
                .get(a)
                .ok_or_else(|| TopologyError::UnknownSite(a.to_string()))?;
            let ib = *self
                .index
                .get(b)
                .ok_or_else(|| TopologyError::UnknownSite(b.to_string()))?;
            let edges = self
                .route(ia, ib)
                .ok_or_else(|| TopologyError::NoRoute(a.to_string(), b.to_string()))?;
            routes.push((format!("{a}->{b}"), edges));
        }
        self.build_explicit(&routes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::CongestionControl;

    fn esnet_like() -> TopologyBuilder {
        // anl -- starlight -- cern
        //    \        |
        //     \--- kansas --- tacc
        let mut b = TopologyBuilder::new();
        for s in ["anl", "starlight", "cern", "kansas", "tacc"] {
            b.add_site(s);
        }
        b.connect("anl", "starlight", 5000.0, 0.5, 1e-6);
        b.connect("starlight", "cern", 1250.0, 45.0, 1e-5);
        b.connect("anl", "kansas", 2500.0, 8.0, 1e-6);
        b.connect("starlight", "kansas", 2500.0, 8.0, 1e-6);
        b.connect("kansas", "tacc", 2500.0, 9.0, 1e-6);
        b
    }

    #[test]
    fn routes_by_lowest_latency() {
        let b = esnet_like();
        let (net, paths) = b.build(&[("anl", "tacc")]).unwrap();
        // anl->kansas->tacc (17 ms one-way), not via starlight (17.5 ms).
        let p = net.path(paths[0]);
        assert_eq!(p.links.len(), 2);
        assert!((p.rtt_s - 0.034).abs() < 1e-9, "rtt={}", p.rtt_s);
    }

    #[test]
    fn rtt_and_loss_accumulate() {
        let b = esnet_like();
        let (net, paths) = b.build(&[("anl", "cern")]).unwrap();
        let p = net.path(paths[0]);
        assert!((p.rtt_s - 0.091).abs() < 1e-9, "rtt={}", p.rtt_s);
        assert!(p.loss > 1e-5 && p.loss < 2e-5, "loss={}", p.loss);
    }

    #[test]
    fn shared_edges_are_shared_links() {
        let b = esnet_like();
        let (mut net, paths) = b.build(&[("anl", "cern"), ("anl", "tacc")]).unwrap();
        // Both routes leave ANL; ANL->CERN and ANL->TACC share no edge, but
        // ANL->STARLIGHT is on the CERN route only. Saturate the CERN path
        // and check the TACC path is unaffected (disjoint), then share a
        // bottleneck explicitly.
        let f1 = net.add_flow(paths[0], 64, CongestionControl::HTcp);
        let f2 = net.add_flow(paths[1], 64, CongestionControl::HTcp);
        let alloc = net.allocate();
        assert!(alloc[&f1] > 0.0 && alloc[&f2] > 0.0);
        // CERN route bottleneck = 1250, TACC route = 2500.
        assert!(alloc[&f1] <= 1250.0 + 1e-6);
        assert!(alloc[&f2] <= 2500.0 + 1e-6);
        net.set_streams(f1, 0);
        let alloc2 = net.allocate();
        assert!(
            (alloc2[&f2] - alloc[&f2]).abs() < 1e-6,
            "disjoint routes must not couple"
        );
    }

    #[test]
    fn same_start_pairs_share_first_hop() {
        let mut b = TopologyBuilder::new();
        for s in ["src", "mid", "a", "b"] {
            b.add_site(s);
        }
        b.connect("src", "mid", 100.0, 1.0, 0.0);
        b.connect("mid", "a", 1000.0, 1.0, 0.0);
        b.connect("mid", "b", 1000.0, 1.0, 0.0);
        let (mut net, paths) = b.build(&[("src", "a"), ("src", "b")]).unwrap();
        let fa = net.add_flow(paths[0], 4, CongestionControl::HTcp);
        let fb = net.add_flow(paths[1], 4, CongestionControl::HTcp);
        let alloc = net.allocate();
        // The shared 100 MB/s first hop splits between them.
        assert!((alloc[&fa] + alloc[&fb] - 100.0).abs() < 1e-6);
    }

    #[test]
    fn errors_are_reported() {
        let mut b = TopologyBuilder::new();
        b.add_site("a");
        assert_eq!(
            b.try_add_site("a"),
            Err(TopologyError::DuplicateSite("a".into()))
        );
        assert!(matches!(
            b.try_connect("a", "zz", 1.0, 1.0, 0.0),
            Err(TopologyError::UnknownSite(_))
        ));
        b.try_add_site("b").unwrap();
        b.try_connect("a", "b", 1.0, 1.0, 0.0).unwrap();
        assert!(matches!(
            b.try_connect("b", "a", 1.0, 1.0, 0.0),
            Err(TopologyError::DuplicateEdge(_, _))
        ));
        // Disconnected pair.
        b.try_add_site("island").unwrap();
        assert!(matches!(
            b.build(&[("a", "island")]),
            Err(TopologyError::NoRoute(_, _))
        ));
    }

    #[test]
    fn k_shortest_enumerates_in_latency_order() {
        let b = esnet_like();
        let routes = b.k_shortest_routes("anl", "tacc", 4).unwrap();
        // Loopless routes: anl->kansas->tacc (17 ms), then via starlight
        // (anl->starlight->kansas->tacc, 17.5 ms). There is no third.
        assert_eq!(routes.len(), 2, "{routes:?}");
        assert_eq!(routes[0], vec![2, 4]);
        assert_eq!(routes[1], vec![0, 3, 4]);
        let (rtt0, _, _) = b.route_stats(&routes[0]).unwrap();
        let (rtt1, _, _) = b.route_stats(&routes[1]).unwrap();
        assert!(rtt0 <= rtt1);
        // Rank 0 matches the plain Dijkstra build.
        let (net, paths) = b.build(&[("anl", "tacc")]).unwrap();
        assert_eq!(net.path(paths[0]).links.len(), routes[0].len());
    }

    #[test]
    fn k_shortest_is_deterministic_and_loopless() {
        let b = esnet_like();
        let a = b.k_shortest_routes("anl", "cern", 5).unwrap();
        let again = b.k_shortest_routes("anl", "cern", 5).unwrap();
        assert_eq!(a, again);
        for route in &a {
            let mut seen = std::collections::BTreeSet::new();
            assert!(route.iter().all(|e| seen.insert(*e)), "loop in {route:?}");
        }
        assert!(b.k_shortest_routes("anl", "mars", 2).is_err());
    }

    #[test]
    fn build_explicit_matches_dijkstra_build() {
        let b = esnet_like();
        let routes = b.k_shortest_routes("anl", "tacc", 1).unwrap();
        let (net_a, pa) = b.build(&[("anl", "tacc")]).unwrap();
        let (net_b, pb) = b
            .build_explicit(&[("anl->tacc".to_string(), routes[0].clone())])
            .unwrap();
        assert_eq!(net_a.link_count(), net_b.link_count());
        let (a, b2) = (net_a.path(pa[0]), net_b.path(pb[0]));
        assert_eq!(a.links, b2.links);
        assert!((a.rtt_s - b2.rtt_s).abs() < 1e-12);
        assert!((a.loss - b2.loss).abs() < 1e-12);
        assert!(matches!(
            b.build_explicit(&[("bad".to_string(), vec![99])]),
            Err(TopologyError::BadEdge(99))
        ));
    }

    #[test]
    fn route_stats_aggregate() {
        let b = esnet_like();
        // anl->starlight->cern: rtt 2*(0.5+45), loss compounds, cap min.
        let (rtt, loss, cap) = b.route_stats(&[0, 1]).unwrap();
        assert!((rtt - 91.0).abs() < 1e-9);
        assert!(loss > 1e-5 && loss < 2e-5);
        assert!((cap - 1250.0).abs() < 1e-9);
    }

    #[test]
    fn half_streams_propagate() {
        let mut b = TopologyBuilder::new().with_half_streams(16.0);
        b.add_site("x");
        b.add_site("y");
        b.connect("x", "y", 1000.0, 1.0, 0.0);
        let (mut net, paths) = b.build(&[("x", "y")]).unwrap();
        let f = net.add_flow(paths[0], 16, CongestionControl::HTcp);
        let r = net.allocation_of(f);
        assert!((r - 500.0).abs() < 1e-6, "derating missing: {r}");
    }
}
