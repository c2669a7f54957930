//! Offline route/config search over a planet's candidate routes.
//!
//! The searcher sweeps candidate route sets × stream configs per job class
//! (one class per ordered region pair) against the simulator's allocation
//! objective: every pair places one `nc×np`-stream flow on its chosen
//! route, the max–min allocator prices the contention, and a placement is
//! scored by total throughput, Jain fairness, and a t90 ramp-up proxy.
//! A regional-outage fault-tolerance filter restricts each pair to
//! candidates that keep an escape route under any single-region outage
//! (when such candidates exist). The sweep is coordinate descent in fixed
//! pair order for at most a fixed number of passes, stopping early after a
//! pass that accepts no move — fully deterministic, so the emitted
//! [`PlacementTable`] is byte-identical across runs.

use crate::planet::{Planet, PlanetError};
use crate::world::{region_links, RouteCatalog};
use std::collections::BTreeSet;
use xferopt_net::{jain_index, CongestionControl, FlowId, Network, PathId};
use xferopt_simcore::json::{json_f64, object, push_line};

/// Search knobs. The defaults match the CI smoke gate.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Candidate routes per pair.
    pub k: usize,
    /// Concurrency grid swept per pair.
    pub nc_grid: Vec<u32>,
    /// Parallel streams per concurrent file (fixed, as in the paper).
    pub np: u32,
    /// Most coordinate-descent passes over the pairs; the descent stops
    /// sooner at its fixed point.
    pub passes: usize,
}

impl SearchConfig {
    /// Refuse a config the search cannot run: an empty concurrency grid, a
    /// zero concurrency in it, zero streams or passes, or a largest
    /// concurrency whose stream count `nc × np` does not fit in a `u32`.
    ///
    /// # Errors
    /// Names the knobs a valid config needs.
    pub fn validate(&self) -> Result<(), PlanetError> {
        if self.nc_grid.is_empty() || self.nc_grid.contains(&0) || self.passes == 0 || self.np == 0
        {
            return Err(PlanetError(
                "search needs a non-empty nc grid of values >= 1, np >= 1, and passes >= 1"
                    .to_string(),
            ));
        }
        let nc = self.nc_grid.iter().copied().max().unwrap_or(0);
        if nc.checked_mul(self.np).is_none() {
            return Err(PlanetError(format!(
                "search streams nc x np overflow: nc {nc} x np {} is over {}",
                self.np,
                u32::MAX
            )));
        }
        Ok(())
    }
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            k: 3,
            nc_grid: vec![4, 8, 16, 32, 64],
            np: 8,
            passes: 2,
        }
    }
}

/// One pair's placement: ranked candidate routes (chosen first) and the
/// stream config the search settled on.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementEntry {
    /// `"{src}->{dst}"` over region names.
    pub pair: String,
    /// Source region index.
    pub src: usize,
    /// Destination region index.
    pub dst: usize,
    /// Candidate route names, chosen route first, then fallbacks in rank
    /// order — the breaker-aware re-route order.
    pub routes: Vec<String>,
    /// Link list per candidate, aligned with `routes`.
    pub links: Vec<Vec<usize>>,
    /// Chosen concurrency.
    pub nc: u32,
    /// Streams per concurrent file.
    pub np: u32,
    /// Allocated throughput in the final placement, MB/s.
    pub mbs: f64,
    /// Whether every candidate-touching regional outage leaves an escape
    /// route for this pair.
    pub ft_covered: bool,
}

/// The searched placement for a whole planet.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementTable {
    /// Planet name the table was searched on.
    pub planet: String,
    /// Candidate routes per pair.
    pub k: usize,
    /// Entries in pair order.
    pub entries: Vec<PlacementEntry>,
    /// Total allocated throughput, MB/s.
    pub total_mbs: f64,
    /// Jain fairness index over per-pair rates.
    pub jain: f64,
    /// Worst single-region-outage surviving throughput fraction.
    pub ft_min: f64,
    /// The scalar objective of the final placement.
    pub score: f64,
}

impl PlacementTable {
    /// Fixed-width leaderboard text (byte-deterministic).
    pub fn render(&self) -> String {
        let mut out = format!(
            "route search on {} (k={}): {} pairs, score {}\n",
            self.planet,
            self.k,
            self.entries.len(),
            fmt1(self.score),
        );
        out.push_str(&format!(
            "total {} MB/s, jain {}, outage floor {}\n\n",
            fmt1(self.total_mbs),
            json_f64(self.jain),
            json_f64(self.ft_min),
        ));
        out.push_str(&format!(
            "{:<12} {:<16} {:>4} {:>4} {:>9} {:>4} {:>4}\n",
            "pair", "route", "nc", "np", "mbs", "alt", "ft"
        ));
        for e in &self.entries {
            out.push_str(&format!(
                "{:<12} {:<16} {:>4} {:>4} {:>9} {:>4} {:>4}\n",
                e.pair,
                e.routes.first().map_or("-", |s| s.as_str()),
                e.nc,
                e.np,
                fmt1(e.mbs),
                e.routes.len().saturating_sub(1),
                if e.ft_covered { "yes" } else { "no" },
            ));
        }
        out
    }

    /// JSONL rendering: one header line, one line per pair
    /// (byte-deterministic, fixed key order).
    pub fn to_jsonl(&self) -> String {
        let mut out = object(|o| {
            o.str("kind", "placement_table");
            o.str("planet", &self.planet);
            o.raw("k", self.k);
            o.raw("pairs", self.entries.len());
            o.f64("total_mbs", self.total_mbs);
            o.f64("jain", self.jain);
            o.f64("ft_min", self.ft_min);
            o.f64("score", self.score);
        }) + "\n";
        for e in &self.entries {
            let links = e
                .links
                .iter()
                .map(|l| {
                    l.iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(";")
                })
                .collect::<Vec<_>>()
                .join("|");
            push_line(&mut out, |o| {
                o.str("kind", "placement");
                o.str("pair", &e.pair);
                o.raw("src", e.src);
                o.raw("dst", e.dst);
                o.raw("nc", e.nc);
                o.raw("np", e.np);
                o.f64("mbs", e.mbs);
                o.raw("ft", u8::from(e.ft_covered));
                o.str("routes", &e.routes.join(";"));
                o.str("links", &links);
            });
        }
        out
    }
}

fn fmt1(v: f64) -> String {
    format!("{v:.1}")
}

/// The scalar objective: throughput weighted by fairness, minus a ramp-up
/// (t90) proxy that charges high-RTT routes for every extra stream they
/// must spin up.
fn objective(rates: &[f64], t90_proxy_s: &[f64]) -> f64 {
    let total: f64 = rates.iter().sum();
    let jain = jain_index(rates);
    let ramp: f64 = t90_proxy_s.iter().sum();
    total * (0.5 + 0.5 * jain) - 2.0 * ramp
}

/// t90 ramp proxy for one flow: RTT-proportional, growing with the stream
/// count that must be spun up and restarted on every re-tune.
fn t90_proxy_s(rtt_ms: f64, nc: u32, np: u32) -> f64 {
    (rtt_ms / 1000.0) * (1.0 + f64::from(nc * np) / 16.0)
}

/// The network a descent runs on: the catalog's links and paths with one
/// `nc × np`-stream flow per pair on its assigned route, in pair order. A
/// move changes only its pair's flow, keeping the flow's id, so each score
/// re-solves only the components that flow left or joined (DESIGN.md §13)
/// and reads the same bits as a network built fresh for the assignment.
struct LiveNetwork<'a> {
    catalog: &'a RouteCatalog,
    net: Network,
    /// Path per catalog route.
    paths: Vec<PathId>,
    /// Flow per pair.
    flows: Vec<FlowId>,
    /// The placed `(route, nc)` per pair.
    assign: Vec<(usize, u32)>,
    np: u32,
}

impl<'a> LiveNetwork<'a> {
    fn new(catalog: &'a RouteCatalog, assign: &[(usize, u32)], np: u32) -> Self {
        let (mut net, paths) = catalog.build_network();
        let flows = assign
            .iter()
            .map(|&(route, nc)| net.add_flow(paths[route], nc * np, CongestionControl::HTcp))
            .collect();
        LiveNetwork {
            catalog,
            net,
            paths,
            flows,
            assign: assign.to_vec(),
            np,
        }
    }

    /// Put pair `p`'s flow on `route` with `nc × np` streams.
    fn place(&mut self, p: usize, (route, nc): (usize, u32)) {
        self.net.set_flow_path(self.flows[p], self.paths[route]);
        self.net.set_streams(self.flows[p], nc * self.np);
        self.assign[p] = (route, nc);
    }

    /// Allocated per-pair rates and the scalar objective of the placed
    /// assignment.
    fn score(&self) -> (Vec<f64>, f64) {
        let rates: Vec<f64> = self.flows.iter().map(|&f| self.net.flow_rate(f)).collect();
        let proxies: Vec<f64> = self
            .assign
            .iter()
            .map(|&(route, nc)| t90_proxy_s(self.catalog.routes[route].rtt_ms, nc, self.np))
            .collect();
        let score = objective(&rates, &proxies);
        (rates, score)
    }
}

/// Reference evaluation of one full assignment: a network built from the
/// catalog for it alone and solved from scratch. The descent's live network
/// must score every assignment bit for bit like this.
#[cfg(test)]
fn evaluate(catalog: &RouteCatalog, assign: &[(usize, u32)], np: u32) -> (Vec<f64>, f64) {
    LiveNetwork::new(catalog, assign, np).score()
}

/// Whether a route touches any link incident to `region`.
fn touches(route_links: &[usize], region_link_set: &BTreeSet<usize>) -> bool {
    route_links.iter().any(|l| region_link_set.contains(l))
}

/// Coordinate descent from `assign`: in each of up to `cfg.passes` passes,
/// every `(pair index, candidate routes)` of `scope`, in order, greedily
/// takes the best (route × nc) in the context of everyone else's current
/// choice. The descent state is `(assign, best_score)` alone, so a pass
/// that accepts no move leaves it unchanged and every later pass would
/// repeat it exactly: the descent stops there. Returns the allocated
/// per-pair rates and the score of the final assignment.
///
/// The descent runs on one [`LiveNetwork`]: a move changes only its pair's
/// flow, and a rejected move puts that flow back.
fn descend<'a>(
    catalog: &RouteCatalog,
    assign: &mut [(usize, u32)],
    scope: impl Iterator<Item = (usize, &'a [usize])> + Clone,
    cfg: &SearchConfig,
) -> (Vec<f64>, f64) {
    let mut live = LiveNetwork::new(catalog, assign, cfg.np);
    let (_, mut best_score) = live.score();
    for _ in 0..cfg.passes {
        let mut moved = false;
        for (p, routes) in scope.clone() {
            for &route in routes {
                for &nc in &cfg.nc_grid {
                    let prev = live.assign[p];
                    if prev == (route, nc) {
                        continue;
                    }
                    live.place(p, (route, nc));
                    let (_, score) = live.score();
                    if score > best_score {
                        best_score = score;
                        moved = true;
                    } else {
                        live.place(p, prev);
                    }
                }
            }
        }
        if !moved {
            break;
        }
    }
    assign.copy_from_slice(&live.assign);
    live.score()
}

/// A placement entry's ranked routes, as names and link lists: `chosen`
/// first, then the pair's other candidates in catalog order.
fn ranked_routes(
    catalog: &RouteCatalog,
    (src, dst): (usize, usize),
    chosen: usize,
) -> (Vec<String>, Vec<Vec<usize>>) {
    std::iter::once(chosen)
        .chain(
            catalog
                .candidates(src, dst)
                .iter()
                .copied()
                .filter(|&c| c != chosen),
        )
        .map(|c| {
            (
                catalog.routes[c].name.clone(),
                catalog.routes[c].links.clone(),
            )
        })
        .unzip()
}

/// Deterministic offline route/config search. One job class per ordered
/// region pair; see the module docs for the objective and the
/// fault-tolerance filter.
///
/// # Errors
/// Propagates planet validation / enumeration errors.
pub fn search_routes(planet: &Planet, cfg: &SearchConfig) -> Result<PlacementTable, PlanetError> {
    cfg.validate()?;
    let catalog = RouteCatalog::enumerate(planet, cfg.k)?;
    let region_sets: Vec<BTreeSet<usize>> = (0..planet.regions.len())
        .map(|r| region_links(planet, r).into_iter().collect())
        .collect();
    let pairs: Vec<(usize, usize)> = catalog.by_pair.keys().copied().collect();

    // Fault-tolerance filter: a candidate survives when every transit
    // region it touches leaves some other candidate untouched. Pairs keep
    // only surviving candidates (as route indices) when any exist.
    let mut allowed: Vec<Vec<usize>> = Vec::new();
    let mut ft_covered: Vec<bool> = Vec::new();
    for &(src, dst) in &pairs {
        let cands = catalog.candidates(src, dst);
        let survives = |i: usize| -> bool {
            (0..planet.regions.len())
                .filter(|&r| r != src && r != dst)
                .all(|r| {
                    !touches(&catalog.routes[cands[i]].links, &region_sets[r])
                        || cands
                            .iter()
                            .any(|&c| !touches(&catalog.routes[c].links, &region_sets[r]))
                })
        };
        let surviving: Vec<usize> = (0..cands.len())
            .filter(|&i| survives(i))
            .map(|i| cands[i])
            .collect();
        ft_covered.push(!surviving.is_empty());
        allowed.push(if surviving.is_empty() {
            cands.to_vec()
        } else {
            surviving
        });
    }

    // Coordinate descent over every pair: everyone starts on its first
    // allowed candidate at the middle of the nc grid.
    let mut assign: Vec<(usize, u32)> = allowed
        .iter()
        .map(|ok| (ok[0], cfg.nc_grid[cfg.nc_grid.len() / 2]))
        .collect();
    let scope = allowed.iter().map(Vec::as_slice).enumerate();
    let (rates, score) = descend(&catalog, &mut assign, scope, cfg);
    let total_mbs: f64 = rates.iter().sum();
    let jain = jain_index(&rates);

    // Worst single-region outage: affected pairs fall back to their first
    // candidate avoiding the region (the fleet's re-route rule); pairs with
    // no escape contribute zero.
    let mut ft_min = 1.0f64;
    for (r, region_set) in region_sets.iter().enumerate() {
        let mut out_total = 0.0;
        for (p, &(src, dst)) in pairs.iter().enumerate() {
            if src == r || dst == r {
                continue; // endpoint down: unavoidable, not the router's fault
            }
            let (chosen, nc) = assign[p];
            let route = if touches(&catalog.routes[chosen].links, region_set) {
                catalog
                    .candidates(src, dst)
                    .iter()
                    .copied()
                    .find(|&c| !touches(&catalog.routes[c].links, region_set))
            } else {
                Some(chosen)
            };
            if let Some(route) = route {
                out_total += catalog.routes[route].bottleneck_mbs.min(
                    rates[p].max(f64::from(nc * cfg.np)), // crude surviving-rate bound
                );
            }
        }
        if total_mbs > 0.0 {
            ft_min = ft_min.min(out_total / total_mbs);
        }
    }

    let entries = pairs
        .iter()
        .enumerate()
        .map(|(p, &(src, dst))| {
            let (chosen, nc) = assign[p];
            let (routes, links) = ranked_routes(&catalog, (src, dst), chosen);
            PlacementEntry {
                pair: format!("{}->{}", planet.regions[src], planet.regions[dst]),
                src,
                dst,
                routes,
                links,
                nc,
                np: cfg.np,
                mbs: rates[p],
                ft_covered: ft_covered[p],
            }
        })
        .collect();
    Ok(PlacementTable {
        planet: planet.name.clone(),
        k: cfg.k,
        entries,
        total_mbs,
        jain,
        ft_min: ft_min.clamp(0.0, 1.0),
        score,
    })
}

/// Online placement re-search: re-run the coordinate descent against a
/// (possibly fault-adjusted) `planet`, scoped to the `affected` pair
/// indices only. Unaffected pairs keep their routes and stream configs from
/// `prev`; every pair's `mbs` is re-allocated under the refined placement.
///
/// The planet must have the same structure (regions and edges) as the one
/// `prev` was searched on — only capacities/latencies may differ — so the
/// enumerated candidate set is identical and `prev`'s route names resolve.
/// The fault-tolerance fields (`ft_covered`, `ft_min`) are carried over
/// from `prev` verbatim: they describe the structural outage coverage,
/// which a capacity adjustment does not change.
///
/// # Errors
/// Propagates enumeration errors, and reports a route name from `prev`
/// that the refreshed catalog does not contain (structural drift).
pub fn refine_placement(
    planet: &Planet,
    prev: &PlacementTable,
    affected: &[usize],
    cfg: &SearchConfig,
) -> Result<PlacementTable, PlanetError> {
    cfg.validate()?;
    let catalog = RouteCatalog::enumerate(planet, cfg.k)?;
    let pairs: Vec<(usize, usize)> = catalog.by_pair.keys().copied().collect();
    if pairs.len() != prev.entries.len() {
        return Err(PlanetError(format!(
            "refine: catalog has {} pairs, previous table has {}",
            pairs.len(),
            prev.entries.len()
        )));
    }
    let mut assign: Vec<(usize, u32)> = Vec::with_capacity(prev.entries.len());
    for e in &prev.entries {
        let chosen = e
            .routes
            .first()
            .ok_or_else(|| PlanetError(format!("refine: pair {} has no chosen route", e.pair)))?;
        let idx = catalog.route_by_name(chosen).ok_or_else(|| {
            PlanetError(format!("refine: route {chosen} not in refreshed catalog"))
        })?;
        assign.push((idx, e.nc));
    }

    // Coordinate descent over the affected pairs only, in the given order.
    // No fault-tolerance filter here: the live topology already *is* the
    // outage, and the point is to escape it.
    let scope = affected.iter().map(|&p| {
        let (src, dst) = pairs[p];
        (p, catalog.candidates(src, dst))
    });
    let (rates, score) = descend(&catalog, &mut assign, scope, cfg);
    let total_mbs: f64 = rates.iter().sum();
    let jain = jain_index(&rates);

    let affected_set: BTreeSet<usize> = affected.iter().copied().collect();
    let entries = prev
        .entries
        .iter()
        .enumerate()
        .map(|(p, old)| {
            let (chosen, nc) = assign[p];
            let mut e = old.clone();
            if affected_set.contains(&p) {
                (e.routes, e.links) = ranked_routes(&catalog, pairs[p], chosen);
                e.nc = nc;
            }
            e.mbs = rates[p];
            e
        })
        .collect();
    Ok(PlacementTable {
        planet: prev.planet.clone(),
        k: cfg.k,
        entries,
        total_mbs,
        jain,
        ft_min: prev.ft_min,
        score,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn quick_cfg() -> SearchConfig {
        SearchConfig {
            k: 2,
            nc_grid: vec![8, 32],
            np: 8,
            passes: 1,
        }
    }

    /// The live network's per-pair rates and score equal, bit for bit,
    /// those of a network rebuilt from the catalog for the same assignment.
    fn assert_live_matches_rebuild(live: &LiveNetwork, step: usize) {
        let (rates, score) = live.score();
        let (want_rates, want_score) = evaluate(live.catalog, &live.assign, live.np);
        let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rates), bits(&want_rates), "step {step}: rates");
        assert_eq!(score.to_bits(), want_score.to_bits(), "step {step}: score");
    }

    proptest! {
        /// Random move-and-revert tapes on every preset: each move puts one
        /// pair on a random candidate route and concurrency, and is
        /// sometimes put back at once, as a rejected descent move is.
        #[test]
        fn live_network_matches_the_rebuild_reference_bit_for_bit(
            preset in 0usize..3,
            tape in prop::collection::vec(
                (any::<usize>(), any::<usize>(), any::<usize>(), any::<bool>()),
                1..24,
            ),
        ) {
            let planet = Planet::preset(Planet::PRESETS[preset]).unwrap();
            let cfg = SearchConfig::default();
            let catalog = RouteCatalog::enumerate(&planet, cfg.k).unwrap();
            let pairs: Vec<(usize, usize)> = catalog.by_pair.keys().copied().collect();
            let start: Vec<(usize, u32)> = pairs
                .iter()
                .map(|&(s, d)| (catalog.candidates(s, d)[0], cfg.nc_grid[0]))
                .collect();
            let mut live = LiveNetwork::new(&catalog, &start, cfg.np);
            assert_live_matches_rebuild(&live, 0);
            for (step, (pair, route, nc, revert)) in tape.into_iter().enumerate() {
                let p = pair % pairs.len();
                let candidates = catalog.candidates(pairs[p].0, pairs[p].1);
                let prev = live.assign[p];
                let choice = (
                    candidates[route % candidates.len()],
                    cfg.nc_grid[nc % cfg.nc_grid.len()],
                );
                live.place(p, choice);
                assert_live_matches_rebuild(&live, step + 1);
                if revert {
                    live.place(p, prev);
                    assert_live_matches_rebuild(&live, step + 1);
                }
            }
        }
    }

    #[test]
    fn search_is_byte_deterministic() {
        let p = Planet::mesh();
        let a = search_routes(&p, &quick_cfg()).unwrap();
        let b = search_routes(&p, &quick_cfg()).unwrap();
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn search_refuses_a_zero_in_the_nc_grid() {
        let p = Planet::mesh();
        let prev = search_routes(&p, &quick_cfg()).unwrap();
        let cfg = SearchConfig {
            nc_grid: vec![8, 0],
            ..quick_cfg()
        };
        assert!(search_routes(&p, &cfg).is_err());
        assert!(refine_placement(&p, &prev, &[0], &cfg).is_err());
    }

    #[test]
    fn placements_only_use_catalog_routes() {
        let p = Planet::mesh();
        let cfg = quick_cfg();
        let catalog = RouteCatalog::enumerate(&p, cfg.k).unwrap();
        let t = search_routes(&p, &cfg).unwrap();
        for e in &t.entries {
            for (name, links) in e.routes.iter().zip(&e.links) {
                let idx = catalog.route_by_name(name).expect("route in catalog");
                assert_eq!(&catalog.routes[idx].links, links, "{name}");
            }
        }
    }

    #[test]
    fn asymmetric_search_beats_the_all_shortest_default() {
        // On the asymmetric planet the thin lowest-latency paths congest;
        // the search must move traffic onto alternates and beat the
        // everyone-on-rank-0 default it starts from.
        let p = Planet::asymmetric();
        let cfg = SearchConfig::default();
        let t = search_routes(&p, &cfg).unwrap();
        let catalog = RouteCatalog::enumerate(&p, cfg.k).unwrap();
        let default_assign: Vec<(usize, u32)> = catalog
            .by_pair
            .keys()
            .map(|&(s, d)| {
                (
                    catalog.candidates(s, d)[0],
                    cfg.nc_grid[cfg.nc_grid.len() / 2],
                )
            })
            .collect();
        let (_, default_score) = evaluate(&catalog, &default_assign, cfg.np);
        assert!(
            t.score > default_score,
            "search did not improve: {} <= {default_score}",
            t.score
        );
        assert!(
            t.entries.iter().any(|e| !e.routes[0].ends_with(":0")),
            "no pair moved off its shortest path"
        );
    }

    #[test]
    fn refine_moves_affected_pairs_off_a_collapsed_edge() {
        let p = Planet::mesh();
        let cfg = quick_cfg();
        let base = search_routes(&p, &cfg).unwrap();
        // Collapse the use-euw transatlantic edge (edge 1) to near zero and
        // refine every pair whose chosen route crosses it.
        let dead_link = p.regions.len() + 1;
        let mut hurt = p.clone();
        hurt.edges[1].capacity_mbs *= 0.02;
        let affected: Vec<usize> = base
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.links[0].contains(&dead_link))
            .map(|(i, _)| i)
            .collect();
        assert!(!affected.is_empty(), "some pair must use the fat edge");
        let refined = refine_placement(&hurt, &base, &affected, &cfg).unwrap();
        assert_eq!(refined.entries.len(), base.entries.len());
        // Refinement is deterministic and at least one affected pair
        // escapes the collapsed edge.
        let again = refine_placement(&hurt, &base, &affected, &cfg).unwrap();
        assert_eq!(refined.to_jsonl(), again.to_jsonl());
        assert!(
            affected
                .iter()
                .any(|&i| !refined.entries[i].links[0].contains(&dead_link)),
            "no affected pair moved off the collapsed edge"
        );
        // Unaffected pairs keep their routes and configs.
        for (i, (r, b)) in refined.entries.iter().zip(&base.entries).enumerate() {
            if !affected.contains(&i) {
                assert_eq!(r.routes, b.routes, "pair {}", b.pair);
                assert_eq!(r.nc, b.nc);
            }
            assert_eq!(r.ft_covered, b.ft_covered);
        }
        assert_eq!(refined.ft_min, base.ft_min);
    }

    #[test]
    fn mesh_pairs_are_ft_covered() {
        let p = Planet::mesh();
        let t = search_routes(&p, &SearchConfig::default()).unwrap();
        assert!(t.ft_min >= 0.0);
        let covered = t.entries.iter().filter(|e| e.ft_covered).count();
        assert!(
            covered * 2 >= t.entries.len(),
            "mesh should leave most pairs an outage escape: {covered}/{}",
            t.entries.len()
        );
    }
}
