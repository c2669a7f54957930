//! Route enumeration over a [`Planet`] and the simulated world it compiles
//! to.
//!
//! A [`RouteCatalog`] holds every candidate route — up to `k` loopless
//! lowest-latency paths per ordered region pair, enumerated by Yen's
//! algorithm on the net crate's Dijkstra builder. Each region gets a
//! pseudo-site host attached by a NIC edge, connected *first* so NIC edge
//! index == region index; every enumerated route therefore starts and ends
//! with the endpoint NIC links, exactly like the paper testbed's
//! `anl-nic` → WAN shape.

use crate::planet::{Planet, PlanetError, NIC_ONE_WAY_MS};
use std::collections::BTreeMap;
use xferopt_host::nehalem;
use xferopt_net::{CongestionControl, Network, PathId, TopologyBuilder};
use xferopt_simcore::FaultPlan;
use xferopt_transfer::world::HostId;
use xferopt_transfer::{StreamParams, TransferConfig, TransferId, World};

/// One enumerated candidate route.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltRoute {
    /// Stable name, `"{src}->{dst}:{rank}"` over region names.
    pub name: String,
    /// Source region index.
    pub src: usize,
    /// Destination region index.
    pub dst: usize,
    /// Latency rank within the pair (0 = shortest).
    pub rank: usize,
    /// Link indices the route traverses (NIC links included).
    pub links: Vec<usize>,
    /// Path index in the built network (== route index in the catalog).
    pub path: usize,
    /// End-to-end RTT in milliseconds.
    pub rtt_ms: f64,
    /// Compounded loss probability.
    pub loss: f64,
    /// Bottleneck capacity in MB/s.
    pub bottleneck_mbs: f64,
}

/// Every candidate route of a planet, plus the builder that compiles them.
#[derive(Debug)]
pub struct RouteCatalog {
    /// The planet this catalog was enumerated from.
    pub planet: Planet,
    /// Routes requested per pair.
    pub k: usize,
    /// All candidate routes, pair-major then rank order.
    pub routes: Vec<BuiltRoute>,
    /// Route indices per ordered `(src, dst)` pair, rank order.
    pub by_pair: BTreeMap<(usize, usize), Vec<usize>>,
    /// Number of links a built network has.
    pub nlinks: usize,
    builder: TopologyBuilder,
}

impl RouteCatalog {
    /// Enumerate up to `k` routes per ordered region pair.
    ///
    /// # Errors
    /// Returns an error when the planet fails validation or a pair is
    /// unreachable.
    pub fn enumerate(planet: &Planet, k: usize) -> Result<RouteCatalog, PlanetError> {
        planet.validate()?;
        if k == 0 {
            return Err(PlanetError("k must be >= 1".to_string()));
        }
        let mut b = TopologyBuilder::new().with_half_streams(planet.half_streams);
        for r in &planet.regions {
            b.try_add_site(&host_site(r))
                .map_err(|e| PlanetError(e.to_string()))?;
        }
        for r in &planet.regions {
            b.try_add_site(r).map_err(|e| PlanetError(e.to_string()))?;
        }
        // NIC edges first: NIC edge index == region index.
        for r in &planet.regions {
            b.try_connect(&host_site(r), r, planet.nic_mbs, NIC_ONE_WAY_MS, 0.0)
                .map_err(|e| PlanetError(e.to_string()))?;
        }
        for e in &planet.edges {
            b.try_connect(
                &planet.regions[e.a],
                &planet.regions[e.b],
                e.capacity_mbs,
                e.one_way_ms,
                e.loss,
            )
            .map_err(|e| PlanetError(e.to_string()))?;
        }
        let mut routes = Vec::new();
        let mut by_pair = BTreeMap::new();
        for src in 0..planet.regions.len() {
            for dst in 0..planet.regions.len() {
                if src == dst {
                    continue;
                }
                let found = b
                    .k_shortest_routes(
                        &host_site(&planet.regions[src]),
                        &host_site(&planet.regions[dst]),
                        k,
                    )
                    .map_err(|e| PlanetError(e.to_string()))?;
                let mut idxs = Vec::new();
                for (rank, links) in found.into_iter().enumerate() {
                    let (rtt_ms, loss, bottleneck_mbs) = b
                        .route_stats(&links)
                        .map_err(|e| PlanetError(e.to_string()))?;
                    idxs.push(routes.len());
                    routes.push(BuiltRoute {
                        name: format!("{}->{}:{rank}", planet.regions[src], planet.regions[dst]),
                        src,
                        dst,
                        rank,
                        links,
                        path: routes.len(),
                        rtt_ms,
                        loss,
                        bottleneck_mbs,
                    });
                }
                by_pair.insert((src, dst), idxs);
            }
        }
        Ok(RouteCatalog {
            planet: planet.clone(),
            k,
            nlinks: b.edge_count(),
            routes,
            by_pair,
            builder: b,
        })
    }

    /// Build a fresh [`Network`] with one path per catalog route, in route
    /// order (path index == route index).
    ///
    /// # Panics
    /// Panics only if the catalog is internally inconsistent.
    pub fn build_network(&self) -> (Network, Vec<PathId>) {
        let specs: Vec<(String, Vec<usize>)> = self
            .routes
            .iter()
            .map(|r| (r.name.clone(), r.links.clone()))
            .collect();
        self.builder
            .build_explicit(&specs)
            .expect("catalog routes reference valid edges")
    }

    /// Route index by name, if enumerated.
    pub fn route_by_name(&self, name: &str) -> Option<usize> {
        self.routes.iter().position(|r| r.name == name)
    }

    /// Candidate route indices for an ordered pair, rank order.
    pub fn candidates(&self, src: usize, dst: usize) -> &[usize] {
        self.by_pair.get(&(src, dst)).map_or(&[], |v| v.as_slice())
    }
}

/// The pseudo-site name hosting a region's transfer endpoints.
fn host_site(region: &str) -> String {
    format!("h:{region}")
}

/// Every link index incident to `region`: its NIC link plus every
/// inter-region edge touching it. Link indices match both the catalog's
/// [`BuiltRoute::links`] and a built network's `LinkId`s.
pub fn region_links(planet: &Planet, region: usize) -> Vec<usize> {
    let nic = region; // NIC edges are connected first, in region order.
    let r = planet.regions.len();
    let mut links = vec![nic];
    for (i, e) in planet.edges.iter().enumerate() {
        if e.a == region || e.b == region {
            links.push(r + i);
        }
    }
    links
}

/// A regional-outage [`FaultPlan`]: every link incident to `region` flaps
/// dark in long windows (mean 360 s up / 150 s down — two whole 30 s
/// control epochs, enough to trip the orchestrator's watchdogs).
/// Deterministic in `(planet, region, seed, horizon_s)`.
///
/// # Panics
/// Panics if `horizon_s` is not strictly positive or `region` is out of
/// range.
pub fn outage_plan(planet: &Planet, region: usize, seed: u64, horizon_s: f64) -> FaultPlan {
    outage_plan_multi(planet, &[region], seed, horizon_s)
}

/// The multi-region generalization of [`outage_plan`]: the union of every
/// listed region's incident links flaps dark. Links are deduplicated (two
/// adjacent outaged regions share an edge) and processed in ascending
/// order, so the plan for a single region is byte-identical to the one
/// [`outage_plan`] has always produced.
///
/// # Panics
/// Panics if `horizon_s` is not strictly positive or any region is out of
/// range.
pub fn outage_plan_multi(
    planet: &Planet,
    regions: &[usize],
    seed: u64,
    horizon_s: f64,
) -> FaultPlan {
    let mut links = std::collections::BTreeSet::new();
    for &region in regions {
        assert!(region < planet.regions.len(), "region out of range");
        links.extend(region_links(planet, region));
    }
    let mut plan = FaultPlan::default();
    for link in links {
        plan = plan.merge(FaultPlan::flaps(seed, link, horizon_s, 360.0, 150.0));
    }
    plan
}

/// Names of the built-in chaos campaigns.
pub const CAMPAIGNS: [&str; 3] = ["rolling-outage", "flapping-links", "nic-degrade"];

/// A scripted multi-phase chaos campaign as a [`FaultPlan`], deterministic
/// in `(planet, name, seed, horizon_s)`:
///
/// - `rolling-outage` — every region in turn goes fully dark (all incident
///   links flap) for a 300 s window, staggered 600 s apart starting at
///   t = 300 s.
/// - `flapping-links` — every other inter-region edge flaps on a seeded
///   240 s up / 90 s down schedule for the whole horizon.
/// - `nic-degrade` — the NIC links of the even-indexed regions are
///   simultaneously degraded to 25 % capacity over `[600, 1500)` s
///   (correlated host-side brownout).
///
/// # Errors
/// Returns an error naming the valid campaigns on an unknown name.
pub fn campaign_plan(
    planet: &Planet,
    name: &str,
    seed: u64,
    horizon_s: f64,
) -> Result<FaultPlan, PlanetError> {
    use xferopt_simcore::{FaultEvent, FaultKind, SimDuration, SimTime};
    let mut plan = FaultPlan::default();
    match name {
        "rolling-outage" => {
            for r in 0..planet.regions.len() {
                let start = 300 + r as i64 * 600;
                for link in region_links(planet, r) {
                    plan.push(FaultEvent::window(
                        SimTime::from_secs(start),
                        SimDuration::from_secs(300),
                        FaultKind::LinkFlap { link },
                    ));
                }
            }
        }
        "flapping-links" => {
            let n = planet.regions.len();
            for (i, _) in planet.edges.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
                plan = plan.merge(FaultPlan::flaps(seed, n + i, horizon_s, 240.0, 90.0));
            }
        }
        "nic-degrade" => {
            for r in (0..planet.regions.len()).step_by(2) {
                plan.push(FaultEvent::window(
                    SimTime::from_secs(600),
                    SimDuration::from_secs(900),
                    FaultKind::LinkDegrade {
                        link: r,
                        factor: 0.25,
                    },
                ));
            }
        }
        other => {
            return Err(PlanetError(format!(
                "unknown campaign '{other}' (expected {})",
                CAMPAIGNS.join(", ")
            )))
        }
    }
    Ok(plan)
}

/// The named phase windows of a campaign, as `(label, start_s, end_s)` in
/// time order — the scorecard buckets its per-phase stats with these.
///
/// # Errors
/// Returns an error naming the valid campaigns on an unknown name.
pub fn campaign_phases(
    planet: &Planet,
    name: &str,
    horizon_s: f64,
) -> Result<Vec<(String, f64, f64)>, PlanetError> {
    match name {
        "rolling-outage" => Ok((0..planet.regions.len())
            .map(|r| {
                let start = 300.0 + r as f64 * 600.0;
                (
                    format!("outage:{}", planet.regions[r]),
                    start,
                    start + 300.0,
                )
            })
            .collect()),
        "flapping-links" => Ok(vec![("flapping".to_string(), 0.0, horizon_s)]),
        "nic-degrade" => Ok(vec![("nic-degrade".to_string(), 600.0, 1500.0)]),
        other => Err(PlanetError(format!(
            "unknown campaign '{other}' (expected {})",
            CAMPAIGNS.join(", ")
        ))),
    }
}

/// A built planet world: the simulation [`World`], one host per region, and
/// the catalog of candidate routes (path index == route index).
#[derive(Debug)]
pub struct PlanetWorld {
    /// The simulation world.
    pub world: World,
    /// Per-region source/destination hosts, region order.
    pub hosts: Vec<HostId>,
    /// Path handles, route order.
    pub paths: Vec<PathId>,
    /// The enumerated candidate routes.
    pub catalog: RouteCatalog,
}

impl PlanetWorld {
    /// Compile a planet into a seeded world with `k` candidate routes per
    /// pair.
    ///
    /// # Errors
    /// Propagates [`RouteCatalog::enumerate`] errors.
    pub fn new(planet: &Planet, k: usize, seed: u64) -> Result<PlanetWorld, PlanetError> {
        let catalog = RouteCatalog::enumerate(planet, k)?;
        let (net, paths) = catalog.build_network();
        let mut world = World::new(net, seed);
        let hosts = (0..planet.regions.len())
            .map(|_| world.add_host(nehalem()))
            .collect();
        Ok(PlanetWorld {
            world,
            hosts,
            paths,
            catalog,
        })
    }

    /// Start a finite transfer of `size_mb` on catalog route `route_idx`
    /// with throughput-noise log-std `noise_sigma` (the fleet's sized-job
    /// shape, mirroring `PaperWorld::start_sized_transfer`).
    ///
    /// # Panics
    /// Panics on an out-of-range route index.
    pub fn start_sized_transfer(
        &mut self,
        route_idx: usize,
        params: StreamParams,
        size_mb: f64,
        noise_sigma: f64,
    ) -> TransferId {
        let r = &self.catalog.routes[route_idx];
        let cfg = TransferConfig::memory_to_memory(self.hosts[r.src], self.paths[route_idx])
            .with_params(params)
            .with_size_mb(size_mb)
            .with_noise(noise_sigma, 45.0)
            .with_cc(CongestionControl::HTcp);
        self.world.add_transfer(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xferopt_simcore::{FaultKind, SimDuration};

    #[test]
    fn mesh_catalog_enumerates_every_pair_with_alternates() {
        let p = Planet::mesh();
        let c = RouteCatalog::enumerate(&p, 3).unwrap();
        let n = p.regions.len();
        assert_eq!(c.by_pair.len(), n * (n - 1));
        for ((src, dst), idxs) in &c.by_pair {
            assert!(!idxs.is_empty());
            for (rank, &i) in idxs.iter().enumerate() {
                let r = &c.routes[i];
                assert_eq!((r.src, r.dst, r.rank), (*src, *dst, rank));
                assert_eq!(r.path, i);
                // Every route starts at the src NIC and ends at the dst NIC.
                assert_eq!(r.links.first(), Some(src));
                assert_eq!(r.links.last(), Some(dst));
                assert!(r.links.len() >= 3, "{:?}", r.links);
                assert!(r.bottleneck_mbs > 0.0 && r.rtt_ms > 0.0);
            }
            // The mesh guarantees at least one alternate per pair.
            assert!(idxs.len() >= 2, "pair {src}->{dst} has no alternate");
        }
    }

    #[test]
    fn catalog_is_deterministic() {
        let p = Planet::mesh();
        let a = RouteCatalog::enumerate(&p, 3).unwrap();
        let b = RouteCatalog::enumerate(&p, 3).unwrap();
        assert_eq!(a.routes, b.routes);
        assert_eq!(a.nlinks, b.nlinks);
    }

    #[test]
    fn region_links_cover_nic_and_incident_edges() {
        let p = Planet::mesh();
        let links = region_links(&p, 0);
        assert!(links.contains(&0), "NIC link of region 0");
        let n = p.regions.len();
        for (i, e) in p.edges.iter().enumerate() {
            let incident = e.a == 0 || e.b == 0;
            assert_eq!(links.contains(&(n + i)), incident, "edge {i}");
        }
    }

    #[test]
    fn outage_plan_flaps_every_incident_link() {
        let p = Planet::mesh();
        let plan = outage_plan(&p, 2, 7, 3600.0);
        assert_eq!(plan, outage_plan(&p, 2, 7, 3600.0));
        let links = region_links(&p, 2);
        for link in links {
            assert!(
                plan.events()
                    .iter()
                    .any(|e| matches!(e.kind, FaultKind::LinkFlap { link: l, .. } if l == link)),
                "link {link} must flap"
            );
        }
    }

    #[test]
    fn multi_region_outage_unions_links_and_matches_single_for_one() {
        let p = Planet::mesh();
        // One region delegates byte-identically to the original plan shape.
        assert_eq!(
            outage_plan_multi(&p, &[2], 7, 3600.0),
            outage_plan(&p, 2, 7, 3600.0)
        );
        // Two regions flap the union of incident links, each exactly once
        // (regions 0 and 1 share the backbone edge).
        let plan = outage_plan_multi(&p, &[0, 1], 7, 3600.0);
        let mut expect = std::collections::BTreeSet::new();
        expect.extend(region_links(&p, 0));
        expect.extend(region_links(&p, 1));
        let mut flapped = std::collections::BTreeSet::new();
        for e in plan.events() {
            if let FaultKind::LinkFlap { link } = e.kind {
                flapped.insert(link);
            }
        }
        assert_eq!(flapped, expect);
        assert_eq!(plan, outage_plan_multi(&p, &[0, 1], 7, 3600.0));
    }

    #[test]
    fn campaigns_are_deterministic_and_phased() {
        let p = Planet::mesh();
        for name in CAMPAIGNS {
            let a = campaign_plan(&p, name, 11, 3600.0).unwrap();
            let b = campaign_plan(&p, name, 11, 3600.0).unwrap();
            assert_eq!(a, b, "{name}");
            assert!(!a.events().is_empty(), "{name}");
            let phases = campaign_phases(&p, name, 3600.0).unwrap();
            assert!(!phases.is_empty());
            for w in phases.windows(2) {
                assert!(w[0].1 <= w[1].1, "phases out of order for {name}");
            }
        }
        assert!(campaign_plan(&p, "mars", 1, 3600.0).is_err());
        assert!(campaign_phases(&p, "mars", 3600.0).is_err());
    }

    #[test]
    fn planet_world_moves_bytes_on_any_route() {
        let p = Planet::asymmetric();
        let mut pw = PlanetWorld::new(&p, 2, 7).unwrap();
        // src->dst rank 0 and rank 1 both complete a sized transfer.
        let pair = pw.catalog.candidates(0, 3).to_vec();
        assert!(pair.len() >= 2);
        for idx in pair {
            let tid = pw.start_sized_transfer(idx, StreamParams::new(8, 8), 10_000.0, 0.0);
            pw.world.step(SimDuration::from_secs(120));
            assert!(pw.world.is_done(tid), "route {idx} stalled");
            assert!((pw.world.moved_mb(tid) - 10_000.0).abs() < 1e-6);
        }
    }
}
