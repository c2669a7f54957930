//! Incremental allocation engine: old-vs-new solver equivalence, dirty-flag
//! cache correctness, and the fleet-scale one-solve-per-tick perf gate.
//!
//! The engine caches one max–min solve per allocation epoch (generation);
//! [`Network::allocate_uncached`] keeps the pre-cache code path alive as the
//! reference implementation. Three layers of defence here:
//!
//! 1. property tests — random topologies, weights, caps, and mutation
//!    sequences (including remove/re-add through the slot free-list) must
//!    agree with the reference within 1e-9 after *every* mutation;
//! 2. a deterministic byte-identity check — on the paper topology the cached
//!    and uncached paths must agree **bitwise**, which is what keeps every
//!    golden snapshot valid without re-blessing;
//! 3. the work gates — `Workload::contended(10)` must run on one amortized
//!    solve per tick (previously one per job per read), asserted through the
//!    network's cumulative `allocation_solves` counter, and a
//!    1000-flow mutation churn must re-solve one component per round where a
//!    full invalidation re-solves all of them.

mod common;

use common::Churn;
use proptest::prelude::*;
use xferopt::net::{CongestionControl, FlowId, Link, LinkId, Network, Path, PathId};
use xferopt::orchestrator::{FleetConfig, FleetSim, HistoryStore, Workload};

/// The paper's ANL source topology (shared NIC, two WANs) with derating.
fn anl_net() -> (Network, Vec<PathId>) {
    let mut net = Network::new();
    let nic = net.add_link(Link::from_gbps("anl-nic", 40.0).with_half_streams(16.0));
    let wan_uc = net.add_link(Link::from_gbps("wan-uc", 40.0).with_half_streams(16.0));
    let wan_tacc = net.add_link(Link::from_gbps("wan-tacc", 20.0));
    let p_uc = net.add_path(
        Path::new("anl->uc", vec![nic, wan_uc])
            .with_rtt_ms(2.0)
            .with_loss(1e-5),
    );
    let p_tacc = net.add_path(
        Path::new("anl->tacc", vec![nic, wan_tacc])
            .with_rtt_ms(33.0)
            .with_loss(1e-5),
    );
    (net, vec![p_uc, p_tacc])
}

/// Assert the cached engine agrees with the uncached reference within
/// `tol` (relative) for the whole allocation, plus the single-flow
/// readouts.
fn assert_matches_reference(net: &Network, tol: f64) {
    let cached = net.allocate();
    let reference = net.allocate_uncached();
    assert_eq!(
        cached.keys().collect::<Vec<_>>(),
        reference.keys().collect::<Vec<_>>(),
        "flow id sets diverged"
    );
    for (id, want) in &reference {
        let got = cached[id];
        assert!(
            (got - want).abs() <= tol * (1.0 + want.abs()),
            "flow {id:?}: cached {got} vs reference {want}"
        );
        let single = net.flow_rate(*id);
        assert!(
            (single - want).abs() <= tol * (1.0 + want.abs()),
            "flow_rate({id:?}) {single} vs reference {want}"
        );
    }
}

// ---------------------------------------------------------------------------
// Property tests: random topologies + mutation sequences.
// ---------------------------------------------------------------------------

/// One mutation against a live network. Indices are taken modulo the current
/// live-flow/link/path counts at application time, so every op is valid.
#[derive(Debug, Clone)]
enum Op {
    AddFlow { path: usize, streams: u32 },
    RemoveFlow(usize),
    SetStreams { flow: usize, streams: u32 },
    SetLinkFactor { link: usize, factor: f64 },
    SetRttFactor { path: usize, factor: f64 },
    SetFlowPath { flow: usize, path: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..8, 0u32..256).prop_map(|(path, streams)| Op::AddFlow { path, streams }),
        (0usize..16).prop_map(Op::RemoveFlow),
        (0usize..16, 0u32..256).prop_map(|(flow, streams)| Op::SetStreams { flow, streams }),
        (0usize..8, prop_oneof![Just(1.0f64), 0.0f64..1.0])
            .prop_map(|(link, factor)| Op::SetLinkFactor { link, factor }),
        (0usize..8, 1.0f64..8.0).prop_map(|(path, factor)| Op::SetRttFactor { path, factor }),
        (0usize..16, 0usize..8).prop_map(|(flow, path)| Op::SetFlowPath { flow, path }),
    ]
}

/// Raw generator output: link capacities (+ optional AIMD half-streams),
/// per-path link subsets with RTT/loss, initial flows, and a mutation tape.
#[allow(clippy::type_complexity)]
fn arb_scenario() -> impl Strategy<
    Value = (
        Vec<(f64, Option<f64>)>,
        Vec<(Vec<usize>, f64, f64)>,
        Vec<(usize, u32)>,
        Vec<Op>,
    ),
> {
    let half = prop_oneof![Just(None), (1.0f64..64.0).prop_map(Some)];
    let links = prop::collection::vec((50.0f64..5000.0, half), 1..4);
    links.prop_flat_map(|links| {
        let nlinks = links.len();
        let path = (
            prop::collection::btree_set(0..nlinks, 1..=nlinks),
            1.0f64..100.0,
            1e-6f64..1e-3,
        )
            .prop_map(|(ls, rtt, loss)| (ls.into_iter().collect::<Vec<_>>(), rtt, loss));
        (
            Just(links),
            prop::collection::vec(path, 1..4),
            prop::collection::vec((0usize..8, 0u32..256), 0..6),
            prop::collection::vec(arb_op(), 1..32),
        )
    })
}

fn build_net(links: &[(f64, Option<f64>)], paths: &[(Vec<usize>, f64, f64)]) -> Network {
    let mut net = Network::new();
    let mut link_ids = Vec::new();
    for (i, (cap, half)) in links.iter().enumerate() {
        let mut l = Link::new(format!("l{i}"), *cap);
        if let Some(h) = half {
            l = l.with_half_streams(*h);
        }
        link_ids.push(net.add_link(l));
    }
    for (i, (ls, rtt_ms, loss)) in paths.iter().enumerate() {
        let lv: Vec<LinkId> = ls.iter().map(|&l| link_ids[l]).collect();
        net.add_path(
            Path::new(format!("p{i}"), lv)
                .with_rtt_ms(*rtt_ms)
                .with_loss(*loss),
        );
    }
    net
}

proptest! {
    /// After every mutation in a random sequence — including removals that
    /// exercise the slot free-list and re-adds that recycle it — the cached
    /// allocation matches the uncached reference within 1e-9.
    #[test]
    fn cached_engine_matches_reference_under_mutations(
        (links, paths, seeds, ops) in arb_scenario()
    ) {
        let mut net = build_net(&links, &paths);
        let npaths = paths.len();
        let mut live: Vec<FlowId> = Vec::new();
        for (p, s) in &seeds {
            live.push(net.add_flow(PathId(p % npaths), *s, CongestionControl::HTcp));
        }
        assert_matches_reference(&net, 1e-9);
        for op in &ops {
            match op {
                Op::AddFlow { path, streams } => {
                    live.push(net.add_flow(
                        PathId(path % npaths),
                        *streams,
                        CongestionControl::HTcp,
                    ));
                }
                Op::RemoveFlow(i) if !live.is_empty() => {
                    let id = live.remove(i % live.len());
                    net.remove_flow(id);
                    net.remove_flow(id); // idempotent teardown stays a no-op
                }
                Op::SetStreams { flow, streams } if !live.is_empty() => {
                    net.set_streams(live[flow % live.len()], *streams);
                }
                Op::SetLinkFactor { link, factor } => {
                    net.set_link_factor(LinkId(link % links.len()), *factor);
                }
                Op::SetRttFactor { path, factor } => {
                    net.set_rtt_factor(PathId(path % npaths), *factor);
                }
                Op::SetFlowPath { flow, path } if !live.is_empty() => {
                    net.set_flow_path(live[flow % live.len()], PathId(path % npaths));
                }
                _ => {}
            }
            assert_matches_reference(&net, 1e-9);
        }
    }

    /// The incremental per-link stream sums never drift from a full rebuild.
    #[test]
    fn incremental_link_weights_stay_exact(
        (links, paths, seeds, ops) in arb_scenario()
    ) {
        let mut net = build_net(&links, &paths);
        let npaths = paths.len();
        let mut live: Vec<FlowId> = Vec::new();
        for (p, s) in &seeds {
            live.push(net.add_flow(PathId(p % npaths), *s, CongestionControl::HTcp));
        }
        for op in &ops {
            match op {
                Op::AddFlow { path, streams } => {
                    live.push(net.add_flow(
                        PathId(path % npaths),
                        *streams,
                        CongestionControl::HTcp,
                    ));
                }
                Op::RemoveFlow(i) if !live.is_empty() => {
                    net.remove_flow(live.remove(i % live.len()));
                }
                Op::SetStreams { flow, streams } if !live.is_empty() => {
                    net.set_streams(live[flow % live.len()], *streams);
                }
                Op::SetFlowPath { flow, path } if !live.is_empty() => {
                    net.set_flow_path(live[flow % live.len()], PathId(path % npaths));
                }
                _ => {}
            }
            // Reference rebuild, in id order (exactly the old code path).
            let mut want = vec![0.0f64; links.len()];
            for (_, f) in net.flows() {
                for l in &net.path(f.path).links {
                    want[l.0] += f.streams as f64;
                }
            }
            let got = net.streams_per_link();
            prop_assert_eq!(got.clone(), want, "incremental weights drifted");
            for (l, w) in got.iter().enumerate() {
                prop_assert_eq!(*w, net.link_streams(LinkId(l)));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic dirty-flag / staleness checks.
// ---------------------------------------------------------------------------

/// On the paper topology, cached and uncached paths agree **bitwise** — the
/// property the golden-snapshot suite rides on.
#[test]
fn cached_allocation_is_bit_identical_to_reference() {
    let (mut net, paths) = anl_net();
    let a = net.add_flow(paths[0], 16, CongestionControl::HTcp);
    let b = net.add_flow(paths[1], 64, CongestionControl::HTcp);
    let c = net.add_flow(paths[0], 128, CongestionControl::HTcp);
    net.remove_flow(b); // free-list hole
    let d = net.add_flow(paths[1], 32, CongestionControl::HTcp); // recycles slot
    net.set_streams(a, 48);
    net.set_link_factor(LinkId(0), 0.7);
    net.set_rtt_factor(paths[1], 2.5);
    let cached = net.allocate();
    let reference = net.allocate_uncached();
    assert_eq!(cached.len(), reference.len());
    for (id, want) in &reference {
        assert_eq!(
            cached[id].to_bits(),
            want.to_bits(),
            "flow {id:?} not bit-identical"
        );
        assert_eq!(net.flow_rate(*id).to_bits(), want.to_bits());
    }
    let _ = (c, d);
}

/// Assert cached and uncached agree **bitwise** on every flow — the
/// component-scoped engine's contract (both sides solve per bottleneck
/// component, so this holds on any topology, not just single-component).
fn assert_bits_match(net: &Network, what: &str) {
    let cached = net.allocate();
    let reference = net.allocate_uncached();
    assert_eq!(cached.len(), reference.len(), "{what}: flow sets");
    for (id, want) in &reference {
        assert_eq!(
            cached[id].to_bits(),
            want.to_bits(),
            "{what}: flow {id:?} not bit-identical"
        );
    }
}

/// A topology of `clusters` disjoint 2-link islands, each with a 2-link
/// path and a single-link path — multiple bottleneck components by
/// construction.
fn cluster_net(clusters: usize) -> (Network, Vec<LinkId>, Vec<PathId>) {
    let mut net = Network::new();
    let mut links = Vec::new();
    let mut paths = Vec::new();
    for c in 0..clusters {
        let a = net.add_link(Link::from_gbps(format!("c{c}-nic"), 40.0).with_half_streams(16.0));
        let b = net.add_link(Link::from_gbps(format!("c{c}-wan"), 20.0));
        links.extend([a, b]);
        paths.push(
            net.add_path(
                Path::new(format!("c{c}-long"), vec![a, b])
                    .with_rtt_ms(2.0 + c as f64)
                    .with_loss(1e-5),
            ),
        );
        paths.push(
            net.add_path(
                Path::new(format!("c{c}-short"), vec![a])
                    .with_rtt_ms(1.0)
                    .with_loss(1e-5),
            ),
        );
    }
    (net, links, paths)
}

/// Link-factor flaps and flow add/remove across *multiple* components:
/// every read stays bitwise-identical to the from-scratch reference, a
/// mutation re-solves only the component it touches, and untouched
/// components keep their cached rate bits.
#[test]
fn multi_component_dirty_solves_are_bit_identical() {
    let (mut net, links, paths) = cluster_net(3);
    let mut flows = Vec::new();
    for c in 0..3 {
        flows.push(net.add_flow(paths[2 * c], 16, CongestionControl::HTcp));
        flows.push(net.add_flow(paths[2 * c + 1], 64, CongestionControl::HTcp));
    }
    assert_bits_match(&net, "seeded");
    assert_eq!(net.component_count(), 3, "three disjoint islands");

    // Link-factor flap confined to cluster 0: exactly one component
    // re-solve per invalidating mutation, other clusters' bits untouched.
    let before = net.allocate();
    let comp0 = net.component_solves();
    for i in 0..10 {
        net.set_link_factor(links[0], if i % 2 == 0 { 0.5 } else { 1.0 });
        assert_bits_match(&net, "flap");
    }
    assert_eq!(
        net.component_solves() - comp0,
        10,
        "one component solve per flap, not one per component"
    );
    let after = net.allocate();
    for &f in &flows[2..] {
        assert_eq!(
            after[&f].to_bits(),
            before[&f].to_bits(),
            "untouched component rate drifted"
        );
    }

    // Flow add/remove in cluster 1 (membership rebuild + free-list recycle):
    // bits stay reference-identical and cluster 2 keeps its rates.
    let extra = net.add_flow(paths[2], 32, CongestionControl::HTcp);
    assert_bits_match(&net, "add");
    net.remove_flow(flows[2]);
    assert_bits_match(&net, "remove");
    net.remove_flow(extra);
    let recycled = net.add_flow(paths[3], 8, CongestionControl::HTcp);
    assert_bits_match(&net, "recycle");
    let now = net.allocate();
    for &f in &flows[4..] {
        assert_eq!(
            now[&f].to_bits(),
            before[&f].to_bits(),
            "cluster 2 rate changed by cluster 1 churn"
        );
    }

    // RTT flap in cluster 2, then a full invalidation: still bit-identical.
    net.set_rtt_factor(paths[4], 3.0);
    assert_bits_match(&net, "rtt");
    net.invalidate_all();
    assert_bits_match(&net, "invalidate_all");
    let _ = recycled;
}

proptest! {
    /// Random mutation tapes over a random number of disjoint clusters:
    /// the component-scoped cached engine must stay **bitwise** identical
    /// to the from-scratch reference after every op (strictly stronger
    /// than the 1e-9 tolerance of the general scenario test above).
    #[test]
    fn clustered_mutation_tape_stays_bitwise_identical(
        clusters in 2usize..5,
        seeds in prop::collection::vec((0usize..64, 1u32..128), 1..12),
        ops in prop::collection::vec(arb_op(), 1..40),
    ) {
        let (mut net, links, paths) = cluster_net(clusters);
        let npaths = paths.len();
        let mut live: Vec<FlowId> = Vec::new();
        for (p, s) in &seeds {
            live.push(net.add_flow(paths[p % npaths], *s, CongestionControl::HTcp));
        }
        assert_bits_match(&net, "seeded");
        for op in &ops {
            match op {
                Op::AddFlow { path, streams } => {
                    live.push(net.add_flow(
                        paths[path % npaths],
                        *streams,
                        CongestionControl::HTcp,
                    ));
                }
                Op::RemoveFlow(i) if !live.is_empty() => {
                    net.remove_flow(live.remove(i % live.len()));
                }
                Op::SetStreams { flow, streams } if !live.is_empty() => {
                    net.set_streams(live[flow % live.len()], *streams);
                }
                Op::SetLinkFactor { link, factor } => {
                    net.set_link_factor(links[link % links.len()], *factor);
                }
                Op::SetRttFactor { path, factor } => {
                    net.set_rtt_factor(paths[path % npaths], *factor);
                }
                Op::SetFlowPath { flow, path } if !live.is_empty() => {
                    net.set_flow_path(live[flow % live.len()], paths[path % npaths]);
                }
                _ => {}
            }
            assert_bits_match(&net, "after op");
        }
    }
}

/// Path swaps keep each flow's id, and so its place in the solve order:
/// after every swap the cached allocation equals, bit for bit, that of a
/// network built fresh with the same flows added in the same order on
/// their new paths. A swap onto the flow's own path changes nothing.
#[test]
fn path_swaps_match_a_fresh_build_bit_for_bit() {
    let (mut net, _, paths) = cluster_net(3);
    let seeds = [(0, 16u32), (1, 64), (2, 32), (3, 8), (4, 128), (5, 24)];
    let flows: Vec<FlowId> = seeds
        .iter()
        .map(|&(p, s)| net.add_flow(paths[p], s, CongestionControl::HTcp))
        .collect();
    let mut on: Vec<usize> = seeds.iter().map(|&(p, _)| p).collect();
    let _ = net.allocate();
    // Swaps within a cluster, across clusters, and ones that empty a
    // cluster and fill it again, so components vanish and reappear.
    let swaps = [
        (0, 5),
        (3, 0),
        (5, 1),
        (1, 4),
        (2, 4),
        (0, 2),
        (3, 3),
        (4, 0),
    ];
    for (i, &(f, p)) in swaps.iter().enumerate() {
        net.set_flow_path(flows[f], paths[p]);
        on[f] = p;
        let (mut fresh, _, fresh_paths) = cluster_net(3);
        for (f, &(_, streams)) in seeds.iter().enumerate() {
            fresh.add_flow(fresh_paths[on[f]], streams, CongestionControl::HTcp);
        }
        let bits = |net: &Network| -> Vec<(FlowId, u64)> {
            net.allocate()
                .into_iter()
                .map(|(id, r)| (id, r.to_bits()))
                .collect()
        };
        assert_eq!(bits(&net), bits(&fresh), "swap {i}: rates");
        assert_eq!(
            net.streams_per_link(),
            fresh.streams_per_link(),
            "swap {i}: link weights"
        );
        assert_eq!(net.component_count(), fresh.component_count(), "swap {i}");
        assert_bits_match(&net, "swap");
    }
    let (epoch, solves) = (net.allocation_epoch(), net.allocation_solves());
    for (&f, &p) in flows.iter().zip(&on) {
        net.set_flow_path(f, paths[p]);
    }
    assert_eq!(
        net.allocation_epoch(),
        epoch,
        "a swap onto the flow's own path must not invalidate"
    );
    let _ = net.allocate();
    assert_eq!(net.allocation_solves(), solves);
}

/// Interleave reads and every kind of mutation: a read immediately after a
/// mutation must reflect it (the dirty flag never serves a stale solve), and
/// a read with no intervening mutation must not re-solve.
#[test]
fn dirty_flag_cache_never_serves_stale_allocations() {
    let (mut net, paths) = anl_net();
    let a = net.add_flow(paths[0], 16, CongestionControl::HTcp);
    let b = net.add_flow(paths[0], 16, CongestionControl::HTcp);

    // Repeated reads reuse one solve.
    let r1 = net.flow_rate(a);
    let solves_after_first = net.allocation_solves();
    for _ in 0..100 {
        assert_eq!(net.flow_rate(a).to_bits(), r1.to_bits());
        let _ = net.allocate();
    }
    assert_eq!(
        net.allocation_solves(),
        solves_after_first,
        "cached reads must not re-solve"
    );

    // set_streams with a *changed* value invalidates...
    let epoch = net.allocation_epoch();
    net.set_streams(b, 64);
    assert_ne!(
        net.allocation_epoch(),
        epoch,
        "mutation must bump the epoch"
    );
    let r2 = net.flow_rate(a);
    assert!(
        r2 < r1,
        "competitor grew, our share must shrink: {r1} -> {r2}"
    );
    // ...while a same-value write is a no-op that keeps the cache warm.
    let (epoch, solves) = (net.allocation_epoch(), net.allocation_solves());
    net.set_streams(b, 64);
    assert_eq!(
        net.allocation_epoch(),
        epoch,
        "same-value set_streams must not invalidate"
    );
    assert_eq!(net.allocation_solves(), solves);

    // Fault factors invalidate; clearing them restores the original rates.
    net.set_link_factor(LinkId(0), 0.5);
    let degraded = net.flow_rate(a);
    assert!(degraded < r2, "derated link must shrink the share");
    net.set_link_factor(LinkId(0), 1.0);
    assert_eq!(net.flow_rate(a).to_bits(), r2.to_bits());
    net.set_rtt_factor(paths[0], 3.0);
    assert_eq!(
        net.flow_rate(a).to_bits(),
        net.allocate_uncached()[&a].to_bits(),
        "read after an RTT mutation must reflect it"
    );
    net.set_rtt_factor(paths[0], 1.0);
    assert_eq!(net.flow_rate(a).to_bits(), r2.to_bits());

    // Remove/re-add through the free-list: reads stay fresh at every step.
    net.remove_flow(b);
    let solo = net.flow_rate(a);
    assert!(solo > r2, "removing the competitor must restore bandwidth");
    let b2 = net.add_flow(paths[0], 64, CongestionControl::HTcp);
    assert_eq!(net.flow_rate(a).to_bits(), r2.to_bits());
    assert!(net.flow_rate(b2) > 0.0);
    assert_eq!(net.flow_count(), 2);
}

/// Borrow-based iterators agree with the legacy collecting wrappers.
#[test]
fn iterators_match_collecting_wrappers() {
    let (mut net, paths) = anl_net();
    let a = net.add_flow(paths[0], 8, CongestionControl::HTcp);
    let b = net.add_flow(paths[1], 16, CongestionControl::HTcp);
    net.remove_flow(a);
    let c = net.add_flow(paths[0], 4, CongestionControl::HTcp);
    assert_eq!(net.iter_flow_ids().collect::<Vec<_>>(), net.flow_ids());
    assert_eq!(net.flow_ids(), vec![b, c]);
    assert_eq!(
        net.iter_link_capacities().collect::<Vec<_>>(),
        net.link_capacities()
    );
    let via_flows: Vec<(FlowId, u32)> = net.flows().map(|(id, f)| (id, f.streams)).collect();
    assert_eq!(via_flows, vec![(b, 16), (c, 4)]);
}

// ---------------------------------------------------------------------------
// Work gates: one component solve per churn round, one solve per fleet tick.
// ---------------------------------------------------------------------------

/// The churn tape at 1000 flows × 64 links (32 islands): each round's four
/// mutations stay on one island, so its read re-solves that one component
/// (0.25 solves per mutation). With `invalidate_all` before each read, the
/// same tape re-solves all 32. That 32:1 work ratio is what the timed churn
/// gate in `tests/perf_gates.rs` (partial ≥ 5× faster than full) rests on.
#[test]
fn churn_re_solves_one_component_per_round_at_1000x64() {
    const ROUNDS: usize = 40;
    const MUTATIONS_PER_ROUND: usize = 4;
    let mut partial = Churn::new(1000, 64);
    let mut full = Churn::new(1000, 64);
    assert_eq!(partial.net.component_count(), 32, "32 disjoint islands");
    assert_eq!(full.net.component_count(), 32, "32 disjoint islands");

    let solves0 = partial.net.component_solves();
    for r in 0..ROUNDS {
        partial.round(r, false);
    }
    let solves = partial.net.component_solves() - solves0;
    let per_mutation = solves as f64 / (ROUNDS * MUTATIONS_PER_ROUND) as f64;
    assert!(
        per_mutation < 1.0,
        "{per_mutation} component solves per mutation (>= 1 means dirty sets \
         no longer coalesce)"
    );
    assert_eq!(solves, ROUNDS as u64, "one component solve per round");

    for r in 0..ROUNDS {
        let before = full.net.component_solves();
        full.round(r, true);
        assert_eq!(
            full.net.component_solves() - before,
            32,
            "round {r}: a full invalidation re-solves every component"
        );
    }
}

/// Ten contended jobs on one shared route: the whole fleet tick must read
/// one shared cached allocation (one solve for N jobs instead of N solves).
/// Admission startup boundaries split a handful of ticks into two pieces, so
/// the hard bound is `ticks + jobs`; the old per-read engine performed
/// several solves *per job per tick* and blows this bound by an order of
/// magnitude.
#[test]
fn fleet_contended_run_solves_at_most_once_per_tick() {
    let workload = Workload::contended(10);
    let cfg = FleetConfig::default();
    let mut history = HistoryStore::in_memory();
    let mut sim = FleetSim::new(&workload, &cfg, &mut history);
    let solves0 = sim.world().net().allocation_solves();
    while sim.tick() {}
    let ticks = sim.tick_index();
    let solves = sim.world().net().allocation_solves() - solves0;
    assert!(ticks > 0, "fleet must run at least one tick");
    assert!(solves > 0, "fleet must have solved at least once");
    assert!(
        solves <= ticks + workload.jobs().len() as u64,
        "expected at most one amortized solve per tick (+1 per admission \
         boundary), got {solves} solves over {ticks} ticks"
    );
}
