//! Weighted max–min fair allocation with demand caps (progressive filling).
//!
//! TCP's steady-state bandwidth sharing on a congested link is approximately
//! per-flow fair; a transfer running `k` streams therefore behaves like a
//! single flow with weight `k`. The classical *progressive filling* algorithm
//! computes the weighted max–min allocation: grow every unfrozen flow's
//! per-weight rate uniformly; freeze a flow when it hits its demand cap or
//! when some link it crosses saturates.
//!
//! The solver is exact (up to float arithmetic), allocation-free in the hot
//! loop after setup, and `O((F + L)^2)` in the worst case — each round
//! saturates at least one link or caps at least one flow.

/// Jain's fairness index of an allocation: `(Σx)² / (n·Σx²)`, in
/// `(0, 1]` — 1 for a perfectly equal allocation, `1/n` when one flow takes
/// everything. The standard summary statistic for bandwidth-sharing
/// experiments like the paper's Fig. 11.
///
/// Returns 1.0 for an empty or all-zero allocation (vacuously fair).
///
/// # Examples
///
/// ```
/// use xferopt_net::fairness::jain_index;
/// assert_eq!(jain_index(&[5.0, 5.0, 5.0]), 1.0);
/// assert!((jain_index(&[10.0, 0.0]) - 0.5).abs() < 1e-12);
/// ```
pub fn jain_index(allocs: &[f64]) -> f64 {
    let sum: f64 = allocs.iter().sum();
    let sum_sq: f64 = allocs.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 || allocs.is_empty() {
        return 1.0;
    }
    sum * sum / (allocs.len() as f64 * sum_sq)
}

/// One flow's view of the fairness problem.
#[derive(Debug, Clone)]
pub struct FlowDemand {
    /// Fair-share weight (number of TCP streams). Zero-weight flows get zero.
    pub weight: f64,
    /// Maximum useful rate in MB/s (loss/window-limited demand). Use
    /// `f64::INFINITY` for an uncapped flow.
    pub demand_cap: f64,
    /// Indices (into the caller's capacity slice) of links this flow crosses.
    pub links: Vec<usize>,
}

/// Reusable buffers for [`max_min_allocate_into`].
///
/// Progressive filling needs four working arrays: the per-flow `active`
/// mask, per-link `remaining` headroom, and the link→flows adjacency
/// (`flows_on_link`). Allocating them per solve dominates the cost of small
/// problems; a scratch lets hot callers (the [`crate::Network`] allocation
/// cache, [`crate::dynamic::DynamicSim`]) amortize the allocations to zero.
///
/// The adjacency is the only piece whose *contents* survive between solves:
/// it depends only on the flow membership and link count, not on weights or
/// demand caps. Callers that know membership has not changed skip
/// [`AllocScratch::rebuild_adjacency`] entirely — the fast path for
/// "only demand caps changed" re-solves.
#[derive(Debug, Clone, Default)]
pub struct AllocScratch {
    active: Vec<bool>,
    remaining: Vec<f64>,
    flows_on_link: Vec<Vec<usize>>,
}

impl AllocScratch {
    /// A scratch with no buffers allocated yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild the link→flows adjacency for `flows` over `n_links` links.
    ///
    /// Must be called before [`max_min_allocate_into`] whenever the flow
    /// membership, any flow's link list, or the link count changed since the
    /// previous solve. Reuses inner buffers; no allocation once capacities
    /// have grown to the working-set size.
    pub fn rebuild_adjacency(&mut self, n_links: usize, flows: &[FlowDemand]) {
        for v in &mut self.flows_on_link {
            v.clear();
        }
        if self.flows_on_link.len() > n_links {
            self.flows_on_link.truncate(n_links);
        } else {
            self.flows_on_link.resize_with(n_links, Vec::new);
        }
        for (i, f) in flows.iter().enumerate() {
            for &l in &f.links {
                assert!(l < n_links, "flow {i} references missing link {l}");
                self.flows_on_link[l].push(i);
            }
        }
    }
}

/// Compute the weighted max–min fair allocation.
///
/// `capacities[l]` is link `l`'s capacity in MB/s. Returns the per-flow
/// allocation in MB/s, in the same order as `flows`.
///
/// # Examples
///
/// ```
/// use xferopt_net::{max_min_allocate, FlowDemand};
///
/// // 64 streams vs 16 streams sharing a 1000 MB/s bottleneck: 80/20 split.
/// let caps = [1000.0];
/// let flows = [
///     FlowDemand { weight: 64.0, demand_cap: f64::INFINITY, links: vec![0] },
///     FlowDemand { weight: 16.0, demand_cap: f64::INFINITY, links: vec![0] },
/// ];
/// let alloc = max_min_allocate(&caps, &flows);
/// assert!((alloc[0] - 800.0).abs() < 1e-6);
/// assert!((alloc[1] - 200.0).abs() < 1e-6);
/// ```
///
/// Invariants guaranteed (and property-tested):
/// * no link's total allocation exceeds its capacity (within 1e-6 relative),
/// * no flow exceeds its demand cap,
/// * the allocation is max–min: a flow below its cap is bottlenecked at some
///   saturated link where every other flow has an equal-or-smaller
///   per-weight rate.
///
/// # Panics
/// Panics if a flow references a link index out of range, or if any weight,
/// cap, or capacity is negative/NaN.
pub fn max_min_allocate(capacities: &[f64], flows: &[FlowDemand]) -> Vec<f64> {
    let mut scratch = AllocScratch::new();
    scratch.rebuild_adjacency(capacities.len(), flows);
    let mut out = Vec::new();
    max_min_allocate_into(capacities, flows, &mut scratch, &mut out);
    out
}

/// Allocation-free core of [`max_min_allocate`]: solve into `out`, reusing
/// `scratch` buffers.
///
/// The caller is responsible for keeping `scratch`'s adjacency current via
/// [`AllocScratch::rebuild_adjacency`]; only the adjacency carries state
/// between solves — `active`, `remaining`, and `out` are fully
/// re-initialized here. The arithmetic is **bit-identical** to
/// [`max_min_allocate`] (same operations in the same order), which the
/// golden-snapshot suite depends on.
///
/// # Panics
/// Panics on the same invalid inputs as [`max_min_allocate`], and (debug
/// builds) if the scratch adjacency does not match `capacities.len()`.
pub fn max_min_allocate_into(
    capacities: &[f64],
    flows: &[FlowDemand],
    scratch: &mut AllocScratch,
    out: &mut Vec<f64>,
) {
    for (i, c) in capacities.iter().enumerate() {
        assert!(*c >= 0.0, "link {i} has negative or NaN capacity: {c}");
    }
    for (i, f) in flows.iter().enumerate() {
        assert!(f.weight >= 0.0, "flow {i} has negative or NaN weight");
        assert!(
            f.demand_cap >= 0.0 || f.demand_cap.is_infinite(),
            "flow {i} has negative or NaN demand cap"
        );
        for &l in &f.links {
            assert!(l < capacities.len(), "flow {i} references missing link {l}");
        }
    }
    debug_assert_eq!(
        scratch.flows_on_link.len(),
        capacities.len(),
        "stale scratch adjacency: call rebuild_adjacency after membership changes"
    );

    let n = flows.len();
    out.clear();
    out.resize(n, 0.0);
    let alloc: &mut [f64] = out.as_mut_slice();
    // Per-weight rate level each frozen flow stopped at; active flows all sit
    // at the current common level.
    scratch.active.clear();
    scratch
        .active
        .extend(flows.iter().map(|f| f.weight > 0.0 && f.demand_cap > 0.0));
    let active: &mut [bool] = scratch.active.as_mut_slice();
    scratch.remaining.clear();
    scratch.remaining.extend_from_slice(capacities);
    let remaining: &mut [f64] = scratch.remaining.as_mut_slice();
    let mut level = 0.0f64; // current common per-weight rate of active flows

    // Which flows cross each link (maintained by the caller between solves).
    let flows_on_link: &[Vec<usize>] = &scratch.flows_on_link;

    loop {
        // Active weight per link.
        let mut any_active = false;
        let mut step = f64::INFINITY;

        // Smallest per-weight headroom across links.
        for (l, &rem) in remaining.iter().enumerate() {
            let w: f64 = flows_on_link[l]
                .iter()
                .filter(|&&i| active[i])
                .map(|&i| flows[i].weight)
                .sum();
            if w > 0.0 {
                any_active = true;
                step = step.min(rem / w);
            }
        }
        if !any_active {
            break;
        }

        // Smallest per-weight distance to a demand cap.
        for (i, f) in flows.iter().enumerate() {
            if active[i] && f.demand_cap.is_finite() {
                let to_cap = (f.demand_cap / f.weight) - level;
                step = step.min(to_cap.max(0.0));
            }
        }

        if !step.is_finite() {
            // Uncapped flows over unconstrained links cannot happen:
            // every flow crosses >= 1 link, so headroom bounded the step.
            unreachable!("progressive filling produced an infinite step");
        }

        // Advance the water level.
        level += step;
        for (i, f) in flows.iter().enumerate() {
            if active[i] {
                alloc[i] += step * f.weight;
            }
        }
        for (l, rem) in remaining.iter_mut().enumerate() {
            let w: f64 = flows_on_link[l]
                .iter()
                .filter(|&&i| active[i])
                .map(|&i| flows[i].weight)
                .sum();
            *rem = (*rem - step * w).max(0.0);
        }

        // Freeze flows at saturated links or at their caps. Tolerances are
        // relative: with large weights, `level·weight` and the separately
        // accumulated `alloc` can disagree by more than any absolute epsilon.
        let mut froze = false;
        for (i, f) in flows.iter().enumerate() {
            if !active[i] {
                continue;
            }
            let capped = f.demand_cap.is_finite() && alloc[i] >= f.demand_cap * (1.0 - 1e-9) - 1e-9;
            let blocked = f
                .links
                .iter()
                .any(|&l| remaining[l] <= 1e-9 * capacities[l].max(1.0));
            if capped || blocked {
                active[i] = false;
                froze = true;
                if capped {
                    alloc[i] = alloc[i].min(f.demand_cap);
                }
            }
        }
        // A zero (or denormal) step with nothing newly frozen means float
        // error has pinned the water level against a cap/capacity the freeze
        // tolerances did not quite catch; the allocation is already within
        // tolerance of optimal, so stop rather than spin.
        if !froze && step <= f64::EPSILON * level.max(1.0) {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(weight: f64, cap: f64, links: &[usize]) -> FlowDemand {
        FlowDemand {
            weight,
            demand_cap: cap,
            links: links.to_vec(),
        }
    }

    #[test]
    fn jain_index_properties() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_index(&[7.0]), 1.0);
        assert!((jain_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[100.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Scale invariance.
        let a = jain_index(&[1.0, 2.0, 3.0]);
        let b = jain_index(&[10.0, 20.0, 30.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn max_min_equal_weights_is_jain_fair() {
        let flows: Vec<FlowDemand> = (0..5).map(|_| demand(1.0, f64::INFINITY, &[0])).collect();
        let alloc = max_min_allocate(&[1000.0], &flows);
        assert!((jain_index(&alloc) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_flow_takes_min_of_cap_and_capacity() {
        let a = max_min_allocate(&[100.0], &[demand(1.0, f64::INFINITY, &[0])]);
        assert_eq!(a, vec![100.0]);
        let a = max_min_allocate(&[100.0], &[demand(1.0, 30.0, &[0])]);
        assert_eq!(a, vec![30.0]);
    }

    #[test]
    fn equal_weights_split_equally() {
        let flows = vec![
            demand(1.0, f64::INFINITY, &[0]),
            demand(1.0, f64::INFINITY, &[0]),
        ];
        let a = max_min_allocate(&[100.0], &flows);
        assert!((a[0] - 50.0).abs() < 1e-9);
        assert!((a[1] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn weights_bias_the_split() {
        // 64 streams vs 16 streams on one bottleneck: 80/20 split.
        let flows = vec![
            demand(64.0, f64::INFINITY, &[0]),
            demand(16.0, f64::INFINITY, &[0]),
        ];
        let a = max_min_allocate(&[1000.0], &flows);
        assert!((a[0] - 800.0).abs() < 1e-6);
        assert!((a[1] - 200.0).abs() < 1e-6);
    }

    #[test]
    fn capped_flow_releases_bandwidth() {
        let flows = vec![demand(1.0, 10.0, &[0]), demand(1.0, f64::INFINITY, &[0])];
        let a = max_min_allocate(&[100.0], &flows);
        assert!((a[0] - 10.0).abs() < 1e-9);
        assert!((a[1] - 90.0).abs() < 1e-9);
    }

    #[test]
    fn two_links_different_bottlenecks() {
        // Flow 0 crosses both links; flow 1 only the second.
        // link0 = 50 caps flow 0 at <= 50; then flow 1 takes the rest of link1.
        let flows = vec![
            demand(1.0, f64::INFINITY, &[0, 1]),
            demand(1.0, f64::INFINITY, &[1]),
        ];
        let a = max_min_allocate(&[50.0, 200.0], &flows);
        assert!((a[0] - 50.0).abs() < 1e-9, "a={a:?}");
        assert!((a[1] - 150.0).abs() < 1e-9, "a={a:?}");
    }

    #[test]
    fn shared_nic_two_wans() {
        // The Fig. 11 topology: one source NIC feeding two separate WAN paths.
        // NIC 5000, wan_a 5000, wan_b 2500. Equal weights: level rises to
        // 2500 each (NIC saturates exactly as wan_b allows 2500).
        let flows = vec![
            demand(1.0, f64::INFINITY, &[0, 1]),
            demand(1.0, f64::INFINITY, &[0, 2]),
        ];
        let a = max_min_allocate(&[5000.0, 5000.0, 2500.0], &flows);
        assert!((a[0] - 2500.0).abs() < 1e-6, "a={a:?}");
        assert!((a[1] - 2500.0).abs() < 1e-6, "a={a:?}");
    }

    #[test]
    fn shared_nic_weighted() {
        // Heavier flow on the bigger WAN claims more of the shared NIC.
        let flows = vec![
            demand(3.0, f64::INFINITY, &[0, 1]),
            demand(1.0, f64::INFINITY, &[0, 2]),
        ];
        let a = max_min_allocate(&[4000.0, 5000.0, 2500.0], &flows);
        assert!((a[0] - 3000.0).abs() < 1e-6, "a={a:?}");
        assert!((a[1] - 1000.0).abs() < 1e-6, "a={a:?}");
    }

    #[test]
    fn zero_weight_gets_zero() {
        let flows = vec![
            demand(0.0, f64::INFINITY, &[0]),
            demand(2.0, f64::INFINITY, &[0]),
        ];
        let a = max_min_allocate(&[100.0], &flows);
        assert_eq!(a[0], 0.0);
        assert!((a[1] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cap_gets_zero() {
        let flows = vec![demand(5.0, 0.0, &[0])];
        let a = max_min_allocate(&[100.0], &flows);
        assert_eq!(a[0], 0.0);
    }

    #[test]
    fn empty_inputs() {
        assert!(max_min_allocate(&[], &[]).is_empty());
        assert!(max_min_allocate(&[10.0], &[]).is_empty());
    }

    #[test]
    fn undersubscribed_link_everyone_at_cap() {
        let flows = vec![demand(1.0, 10.0, &[0]), demand(4.0, 20.0, &[0])];
        let a = max_min_allocate(&[1000.0], &flows);
        assert!((a[0] - 10.0).abs() < 1e-9);
        assert!((a[1] - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "references missing link")]
    fn bad_link_index_panics() {
        max_min_allocate(&[10.0], &[demand(1.0, 1.0, &[3])]);
    }

    #[test]
    fn three_way_cascade() {
        // Three flows, staggered caps; progressive filling must redistribute
        // released bandwidth fairly at each stage.
        let flows = vec![
            demand(1.0, 5.0, &[0]),
            demand(1.0, 25.0, &[0]),
            demand(1.0, f64::INFINITY, &[0]),
        ];
        let a = max_min_allocate(&[90.0], &flows);
        // stage 1: all to 5 (f0 capped, 75 left); stage 2: f1,f2 to 25
        // (f1 capped); stage 3: f2 takes the rest = 90-5-25 = 60.
        assert!((a[0] - 5.0).abs() < 1e-9);
        assert!((a[1] - 25.0).abs() < 1e-9);
        assert!((a[2] - 60.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_problem() -> impl Strategy<Value = (Vec<f64>, Vec<FlowDemand>)> {
        let caps = prop::collection::vec(1.0f64..10_000.0, 1..6);
        caps.prop_flat_map(|caps| {
            let nlinks = caps.len();
            let flow = (
                0.0f64..128.0,
                prop_oneof![Just(f64::INFINITY), 0.0f64..5000.0],
                prop::collection::btree_set(0..nlinks, 1..=nlinks),
            )
                .prop_map(|(w, cap, links)| FlowDemand {
                    weight: w,
                    demand_cap: cap,
                    links: links.into_iter().collect(),
                });
            (Just(caps), prop::collection::vec(flow, 0..8))
        })
    }

    proptest! {
        #[test]
        fn allocation_respects_capacities_and_caps((caps, flows) in arb_problem()) {
            let alloc = max_min_allocate(&caps, &flows);
            prop_assert_eq!(alloc.len(), flows.len());
            // No link oversubscribed.
            for (l, &c) in caps.iter().enumerate() {
                let used: f64 = flows
                    .iter()
                    .zip(&alloc)
                    .filter(|(f, _)| f.links.contains(&l))
                    .map(|(_, a)| *a)
                    .sum();
                prop_assert!(used <= c * (1.0 + 1e-6) + 1e-6,
                    "link {} oversubscribed: {} > {}", l, used, c);
            }
            // No flow above its cap; all allocations non-negative and finite.
            for (f, &a) in flows.iter().zip(&alloc) {
                prop_assert!(a >= 0.0 && a.is_finite());
                prop_assert!(a <= f.demand_cap * (1.0 + 1e-9) + 1e-9);
                if f.weight == 0.0 {
                    prop_assert_eq!(a, 0.0);
                }
            }
        }

        #[test]
        fn unbottlenecked_flows_reach_their_caps((caps, flows) in arb_problem()) {
            let alloc = max_min_allocate(&caps, &flows);
            // Work-conservation flavour: a flow strictly below its cap must
            // cross at least one link that is (nearly) saturated.
            for (i, (f, &a)) in flows.iter().zip(&alloc).enumerate() {
                if f.weight == 0.0 || f.demand_cap <= 0.0 {
                    continue;
                }
                if a + 1e-6 < f.demand_cap.min(1e18) {
                    let saturated = f.links.iter().any(|&l| {
                        let used: f64 = flows
                            .iter()
                            .zip(&alloc)
                            .filter(|(g, _)| g.links.contains(&l))
                            .map(|(_, x)| *x)
                            .sum();
                        used >= caps[l] * (1.0 - 1e-6) - 1e-6
                    });
                    prop_assert!(saturated, "flow {} below cap but no saturated link", i);
                }
            }
        }

        #[test]
        fn scaling_capacities_scales_allocation((caps, flows) in arb_problem()) {
            // Homogeneity: doubling all capacities and caps doubles the result.
            let a1 = max_min_allocate(&caps, &flows);
            let caps2: Vec<f64> = caps.iter().map(|c| c * 2.0).collect();
            let flows2: Vec<FlowDemand> = flows
                .iter()
                .map(|f| FlowDemand {
                    weight: f.weight,
                    demand_cap: f.demand_cap * 2.0,
                    links: f.links.clone(),
                })
                .collect();
            let a2 = max_min_allocate(&caps2, &flows2);
            for (x, y) in a1.iter().zip(&a2) {
                prop_assert!((y - 2.0 * x).abs() <= 1e-6 * (1.0 + y.abs()),
                    "not homogeneous: {} vs {}", x, y);
            }
        }
    }
}
