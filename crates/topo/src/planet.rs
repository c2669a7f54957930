//! Inter-region planet models: regions joined by RTT/capacity/loss edges.
//!
//! A [`Planet`] is the *description*; [`crate::world::RouteCatalog`] compiles
//! it into a routable network. Presets cover the three shapes the route
//! search is designed to discriminate between, and [`Planet::from_dat`]
//! loads the same description from a `.dat`-style file (the fantoch
//! `bote` idiom of sweeping configs over recorded planet latency data).

use std::fmt;

/// One-way latency of the NIC hop between a region's hosts and the region,
/// in milliseconds.
pub(crate) const NIC_ONE_WAY_MS: f64 = 0.05;

/// One bidirectional inter-region edge.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanetEdge {
    /// Region index of one endpoint.
    pub a: usize,
    /// Region index of the other endpoint.
    pub b: usize,
    /// Capacity in MB/s.
    pub capacity_mbs: f64,
    /// One-way latency in milliseconds.
    pub one_way_ms: f64,
    /// Per-packet loss probability.
    pub loss: f64,
}

/// An N-region planet: named regions, inter-region edges, and the
/// per-region host access (NIC) capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct Planet {
    /// Stable name (preset name or the `planet` line of a `.dat` file).
    pub name: String,
    /// Region names, index order is region order everywhere.
    pub regions: Vec<String>,
    /// Inter-region edges in declaration order.
    pub edges: Vec<PlanetEdge>,
    /// Per-region host NIC capacity in MB/s.
    pub nic_mbs: f64,
    /// AIMD half-saturation stream count applied to every built link.
    pub half_streams: f64,
}

/// Error from `.dat` parsing or planet validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanetError(pub String);

impl fmt::Display for PlanetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "planet: {}", self.0)
    }
}
impl std::error::Error for PlanetError {}

impl Planet {
    /// Names of the built-in presets.
    pub const PRESETS: [&'static str; 3] = ["mesh", "hub-spoke", "asymmetric"];

    /// Look a preset up by name.
    ///
    /// # Errors
    /// Returns an error naming the valid presets on an unknown name.
    pub fn preset(name: &str) -> Result<Planet, PlanetError> {
        match name {
            "mesh" => Ok(Planet::mesh()),
            "hub-spoke" | "hub_spoke" => Ok(Planet::hub_spoke()),
            "asymmetric" => Ok(Planet::asymmetric()),
            other => Err(PlanetError(format!(
                "unknown preset '{other}' (expected mesh, hub-spoke, or asymmetric)"
            ))),
        }
    }

    /// Five-region cross-continent mesh: two US regions, Europe, Asia,
    /// South America, with redundant transatlantic/transpacific paths so
    /// every pair has at least one loopless alternate.
    pub fn mesh() -> Planet {
        let regions = ["use", "usw", "euw", "aps", "sae"];
        let mut p = Planet {
            name: "mesh".to_string(),
            regions: regions.iter().map(|s| s.to_string()).collect(),
            edges: Vec::new(),
            nic_mbs: 5000.0,
            half_streams: 16.0,
        };
        // (a, b, MB/s, one-way ms, loss)
        let e = [
            (0, 1, 5000.0, 16.0, 1e-6),  // use-usw backbone
            (0, 2, 2500.0, 38.0, 1e-5),  // use-euw transatlantic
            (1, 3, 2500.0, 55.0, 1e-5),  // usw-aps transpacific
            (2, 3, 1250.0, 75.0, 2e-5),  // euw-aps overland
            (0, 4, 1250.0, 60.0, 2e-5),  // use-sae
            (1, 2, 1250.0, 70.0, 2e-5),  // usw-euw northern detour
            (2, 4, 625.0, 95.0, 5e-5),   // euw-sae southern link
            (0, 3, 1250.0, 105.0, 5e-5), // use-aps long haul
        ];
        for (a, b, cap, ms, loss) in e {
            p.edges.push(PlanetEdge {
                a,
                b,
                capacity_mbs: cap,
                one_way_ms: ms,
                loss,
            });
        }
        p
    }

    /// Six-region hub-and-spoke: every spoke reaches the world through the
    /// hub, plus one thin spoke-to-spoke shortcut so re-routing has an
    /// alternate when the hub-side link flaps.
    pub fn hub_spoke() -> Planet {
        let regions = ["hub", "s1", "s2", "s3", "s4", "s5"];
        let mut p = Planet {
            name: "hub-spoke".to_string(),
            regions: regions.iter().map(|s| s.to_string()).collect(),
            edges: Vec::new(),
            nic_mbs: 5000.0,
            half_streams: 16.0,
        };
        for (i, (cap, ms)) in [
            (5000.0, 8.0),
            (2500.0, 22.0),
            (2500.0, 35.0),
            (1250.0, 48.0),
            (1250.0, 62.0),
        ]
        .iter()
        .enumerate()
        {
            p.edges.push(PlanetEdge {
                a: 0,
                b: i + 1,
                capacity_mbs: *cap,
                one_way_ms: *ms,
                loss: 1e-5,
            });
        }
        // Thin neighbor rings so spokes survive a hub-side outage.
        for (a, b) in [(1, 2), (3, 4), (2, 5)] {
            p.edges.push(PlanetEdge {
                a,
                b,
                capacity_mbs: 625.0,
                one_way_ms: 40.0,
                loss: 5e-5,
            });
        }
        p
    }

    /// Four regions where the lowest-latency path is thin and the detour is
    /// fat: the search must trade RTT against capacity per job class.
    pub fn asymmetric() -> Planet {
        let regions = ["src", "mid", "alt", "dst"];
        let mut p = Planet {
            name: "asymmetric".to_string(),
            regions: regions.iter().map(|s| s.to_string()).collect(),
            edges: Vec::new(),
            nic_mbs: 5000.0,
            half_streams: 16.0,
        };
        let e = [
            (0, 1, 1250.0, 10.0, 1e-6), // thin fast hop
            (1, 3, 1250.0, 12.0, 1e-6), // thin fast hop
            (0, 2, 5000.0, 30.0, 1e-5), // fat slow detour
            (2, 3, 5000.0, 32.0, 1e-5), // fat slow detour
            (1, 2, 2500.0, 15.0, 1e-5), // crossover
        ];
        for (a, b, cap, ms, loss) in e {
            p.edges.push(PlanetEdge {
                a,
                b,
                capacity_mbs: cap,
                one_way_ms: ms,
                loss,
            });
        }
        p
    }

    /// Parse a `.dat`-style planet description. Line forms (whitespace
    /// separated, `#` starts a comment):
    ///
    /// ```text
    /// planet NAME
    /// nic MBS [HALF_STREAMS]
    /// region NAME
    /// edge SRC DST CAPACITY_MBS ONE_WAY_MS LOSS
    /// ```
    ///
    /// Regions must be declared before edges reference them.
    ///
    /// # Errors
    /// Returns a line-numbered description of the first malformed line.
    pub fn from_dat(doc: &str) -> Result<Planet, PlanetError> {
        let mut p = Planet {
            name: "dat".to_string(),
            regions: Vec::new(),
            edges: Vec::new(),
            nic_mbs: 5000.0,
            half_streams: 16.0,
        };
        for (ln, raw) in doc.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            let bad = |what: &str| PlanetError(format!("line {}: {what}: {raw}", ln + 1));
            match it.next() {
                Some("planet") => {
                    p.name = it.next().ok_or_else(|| bad("missing name"))?.to_string();
                }
                Some("nic") => {
                    p.nic_mbs = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("bad nic capacity"))?;
                    if let Some(h) = it.next() {
                        p.half_streams = h.parse().map_err(|_| bad("bad half_streams"))?;
                    }
                }
                Some("region") => {
                    let name = it.next().ok_or_else(|| bad("missing region name"))?;
                    if forges_route_names(name) {
                        return Err(bad("region name contains '->' or ':'"));
                    }
                    if p.regions.iter().any(|r| r == name) {
                        return Err(bad("duplicate region"));
                    }
                    p.regions.push(name.to_string());
                }
                Some("edge") => {
                    let region = |tok: Option<&str>| -> Result<usize, PlanetError> {
                        let name = tok.ok_or_else(|| bad("missing endpoint"))?;
                        p.regions
                            .iter()
                            .position(|r| r == name)
                            .ok_or_else(|| bad("unknown region"))
                    };
                    let a = region(it.next())?;
                    let b = region(it.next())?;
                    let mut num = |what: &str| -> Result<f64, PlanetError> {
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| bad(what))
                    };
                    p.edges.push(PlanetEdge {
                        a,
                        b,
                        capacity_mbs: num("bad capacity")?,
                        one_way_ms: num("bad latency")?,
                        loss: num("bad loss")?,
                    });
                }
                Some(other) => {
                    return Err(PlanetError(format!(
                        "line {}: unknown directive '{other}'",
                        ln + 1
                    )))
                }
                None => unreachable!("empty lines are skipped"),
            }
        }
        p.validate()?;
        Ok(p)
    }

    /// Check structural invariants: ≥ 2 regions, every edge in range,
    /// positive finite capacities and latencies, a finite non-negative
    /// `half_streams`, loss in `[0, 1)`, and latencies that each still count
    /// in the largest latency sum a route can reach.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), PlanetError> {
        let positive = |v: f64| v > 0.0 && v.is_finite();
        if self.regions.len() < 2 {
            return Err(PlanetError("need at least 2 regions".to_string()));
        }
        if let Some(r) = self.regions.iter().find(|r| forges_route_names(r)) {
            return Err(PlanetError(format!(
                "region {r:?}: name contains '->' or ':'"
            )));
        }
        if !positive(self.nic_mbs) {
            return Err(PlanetError(
                "nic capacity must be positive and finite".to_string(),
            ));
        }
        if !(self.half_streams >= 0.0 && self.half_streams.is_finite()) {
            return Err(PlanetError(
                "nic half_streams must be finite and >= 0".to_string(),
            ));
        }
        for (i, e) in self.edges.iter().enumerate() {
            if e.a >= self.regions.len() || e.b >= self.regions.len() || e.a == e.b {
                return Err(PlanetError(format!("edge {i}: bad endpoints")));
            }
            if !positive(e.capacity_mbs) || !positive(e.one_way_ms) {
                return Err(PlanetError(format!(
                    "edge {i}: capacity and latency must be positive and finite"
                )));
            }
            if !(0.0..1.0).contains(&e.loss) {
                return Err(PlanetError(format!("edge {i}: loss must be in [0, 1)")));
            }
        }
        // No route is longer than every edge plus both NIC hops. Route
        // search compares latency sums, so each hop must still change the
        // largest of them: a lost hop makes two routes tie, and the
        // shortest-route tie-break can then link two nodes to each other.
        let most_ms = 2.0 * NIC_ONE_WAY_MS + self.edges.iter().map(|e| e.one_way_ms).sum::<f64>();
        let lost = |ms: f64| most_ms + ms == most_ms;
        if lost(NIC_ONE_WAY_MS) {
            return Err(PlanetError(format!(
                "edge latencies sum to {most_ms} ms, too large for the \
                 {NIC_ONE_WAY_MS} ms NIC hop to count"
            )));
        }
        if let Some(i) = self.edges.iter().position(|e| lost(e.one_way_ms)) {
            return Err(PlanetError(format!(
                "edge {i}: latency {} ms is too small to count next to the \
                 {most_ms} ms the edges sum to",
                self.edges[i].one_way_ms
            )));
        }
        Ok(())
    }
}

/// Route names are `src->dst:rank`: a region name holding either separator
/// could spell another pair's route name.
fn forges_route_names(region: &str) -> bool {
    region.contains("->") || region.contains(':')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_and_resolve() {
        for name in Planet::PRESETS {
            let p = Planet::preset(name).unwrap();
            p.validate().unwrap();
            assert_eq!(p.name, name);
            assert!(p.regions.len() >= 2);
            assert!(!p.edges.is_empty());
        }
        assert!(Planet::preset("mars").is_err());
    }

    #[test]
    fn dat_round_trip_parses() {
        let doc = "\
# tiny two-region planet
planet tiny
nic 4000 12
region left
region right
edge left right 1000 20 0.00001
";
        let p = Planet::from_dat(doc).unwrap();
        assert_eq!(p.name, "tiny");
        assert_eq!(p.regions, vec!["left", "right"]);
        assert_eq!(p.nic_mbs, 4000.0);
        assert_eq!(p.half_streams, 12.0);
        assert_eq!(p.edges.len(), 1);
        assert_eq!(p.edges[0].capacity_mbs, 1000.0);
    }

    #[test]
    fn dat_errors_name_the_line() {
        let err = Planet::from_dat("region a\nedge a nowhere 1 1 0\n").unwrap_err();
        assert!(err.0.contains("line 2"), "{err}");
        assert!(Planet::from_dat("bogus directive\n").is_err());
        assert!(Planet::from_dat("region a\nregion a\n").is_err());
        // A single region cannot validate.
        assert!(Planet::from_dat("region a\n").is_err());
        for name in ["a->b", "a:0", "->", ":"] {
            let err = Planet::from_dat(&format!("region c\nregion {name}\n")).unwrap_err();
            assert!(err.0.starts_with("line 2: region name"), "{err}");
        }
    }

    #[test]
    fn validate_refuses_numbers_route_search_cannot_use() {
        let mesh = Planet::preset("mesh").unwrap();
        let refused = |edit: &dyn Fn(&mut Planet), names: &str| {
            let mut p = mesh.clone();
            edit(&mut p);
            let err = p.validate().unwrap_err();
            assert!(err.0.contains(names), "{err}");
        };
        for v in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            refused(&|p| p.edges[0].capacity_mbs = v, "edge 0: capacity");
            refused(
                &|p| p.edges[0].one_way_ms = v,
                "edge 0: capacity and latency",
            );
            refused(&|p| p.nic_mbs = v, "nic capacity");
        }
        for v in [f64::INFINITY, f64::NAN, -1.0] {
            refused(&|p| p.half_streams = v, "half_streams");
        }
        // A hop lost in the largest latency sum, at either end of the scale.
        refused(&|p| p.edges[2].one_way_ms = 1e16, "NIC hop");
        refused(&|p| p.edges[2].one_way_ms = 1e-14, "edge 2: latency");
        // Large and small latencies that every sum still sees pass.
        let mut p = mesh.clone();
        p.edges[2].one_way_ms = 1e9;
        p.edges[3].one_way_ms = 1e-3;
        p.validate().unwrap();
    }

    #[test]
    fn validate_refuses_route_separators_in_code_built_regions() {
        let mut p = Planet::preset("mesh").unwrap();
        p.validate().unwrap();
        for name in ["a->b", "a:0"] {
            p.regions[0] = name.to_string();
            let err = p.validate().unwrap_err();
            assert!(err.0.contains("name contains '->' or ':'"), "{err}");
            assert!(crate::world::RouteCatalog::enumerate(&p, 2).is_err());
        }
    }
}
