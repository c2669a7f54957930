//! Variable-length job routes.
//!
//! The paper world has exactly two routes (the [`Route`] enum); a planet
//! topology has an arbitrary catalog of multi-hop routes. [`JobRoute`] is the
//! orchestrator's common currency: a stable name, the raw link indices the
//! route crosses (in network construction order), and the simulation path the
//! route's transfers run on. Classic fleets build it [`From<Route>`]; topo
//! fleets build it from a [`xferopt_topo::BuiltRoute`].
//!
//! The name and link list are shared (`Arc`), so cloning a route — and so a
//! [`crate::JobSpec`] — never allocates.

use std::sync::{Arc, OnceLock};

use xferopt_scenarios::Route;

/// A concrete route a job transfers on: name + link list + sim path.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRoute {
    /// Stable route name ("anl->uchicago" for the classic enum routes,
    /// "src->dst:rank" for catalog routes).
    name: Arc<str>,
    /// Raw link indices the route crosses, in network construction order.
    /// Admission reserves streams on every one; breakers gate on every one.
    links: Arc<[usize]>,
    /// Index of the route's [`xferopt_net::Path`] in the simulation world.
    path: usize,
}

impl JobRoute {
    /// Build from explicit parts.
    pub fn new(name: impl Into<String>, links: Vec<usize>, path: usize) -> Self {
        assert!(!links.is_empty(), "a route must cross at least one link");
        JobRoute {
            name: Arc::from(name.into()),
            links: Arc::from(links),
            path,
        }
    }

    /// Stable route name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The link indices the route crosses.
    pub fn links(&self) -> &[usize] {
        &self.links
    }

    /// The simulation path index transfers on this route use.
    pub fn path_index(&self) -> usize {
        self.path
    }

    /// The route's bottleneck-of-interest link: its last hop. For the classic
    /// enum routes this is exactly the WAN link index the fault plans target
    /// (`[0, 1] → 1`, `[0, 2] → 2`).
    pub fn wan_link_index(&self) -> usize {
        *self.links.last().expect("routes are non-empty")
    }
}

impl From<Route> for JobRoute {
    /// A clone of the route's one shared instance.
    fn from(route: Route) -> Self {
        static CLASSIC: OnceLock<[JobRoute; 2]> = OnceLock::new();
        let classic = CLASSIC.get_or_init(|| {
            [Route::UChicago, Route::Tacc]
                .map(|r| JobRoute::new(r.name(), vec![0, r.wan_link_index()], r.path_index()))
        });
        match route {
            Route::UChicago => classic[0].clone(),
            Route::Tacc => classic[1].clone(),
        }
    }
}

impl PartialEq<Route> for JobRoute {
    fn eq(&self, other: &Route) -> bool {
        &*self.name == other.name()
    }
}

impl std::fmt::Display for JobRoute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_routes_convert_losslessly() {
        let uc = JobRoute::from(Route::UChicago);
        assert_eq!(uc.name(), "anl->uchicago");
        assert_eq!(uc.links(), &[0, 1]);
        assert_eq!(uc.path_index(), 0);
        assert_eq!(uc.wan_link_index(), 1);
        let tacc = JobRoute::from(Route::Tacc);
        assert_eq!(tacc.links(), &[0, 2]);
        assert_eq!(tacc.wan_link_index(), 2);
        assert_eq!(tacc.path_index(), 1);
        assert!(uc == Route::UChicago);
        assert!(uc != Route::Tacc);
    }

    #[test]
    fn multi_hop_routes_carry_their_full_link_list() {
        let r = JobRoute::new("use->aps:1", vec![0, 7, 9, 3], 5);
        assert_eq!(r.links(), &[0, 7, 9, 3]);
        assert_eq!(r.wan_link_index(), 3);
        assert_eq!(r.to_string(), "use->aps:1");
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn empty_routes_are_rejected() {
        JobRoute::new("nowhere", Vec::new(), 0);
    }
}
