//! The assembled quasi-static network model.
//!
//! A [`Network`] owns links, paths, and flow groups, and exposes one core
//! operation: [`Network::allocate`], which maps every registered flow group
//! to its max–min fair goodput given current demands. Transfer harnesses
//! re-run the allocation whenever membership changes (a tuner changed its
//! stream count, external traffic appeared) and integrate bytes between
//! changes — the standard fluid discrete-event pattern.

use crate::components::UnionFind;
use crate::fairness::{max_min_allocate_into, AllocScratch, FlowDemand};
use crate::flow::{FlowGroup, FlowId};
use crate::link::{Link, LinkId, Path, PathId};
use crate::tcp::{CongestionControl, DEFAULT_MSS_BYTES};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// Sentinel component id for links no present flow crosses.
const NO_COMP: usize = usize::MAX;

/// Partition of the present flows (and the links they cross) into
/// bottleneck-connected components. Progressive filling treats components
/// independently — freezing a flow in one never changes another's fair
/// share — so the solver may scope a re-solve to single components.
/// Components are numbered densely by first appearance in flow-id order,
/// the same determinism rule as [`crate::components::connected_groups`].
#[derive(Debug, Clone, Default)]
struct Partition {
    /// Component id per link (`NO_COMP` when no present flow crosses it).
    of_link: Vec<usize>,
    /// Order positions per component, ascending.
    flows: Vec<Vec<usize>>,
    /// Global link ids per component, ascending.
    links: Vec<Vec<usize>>,
    /// Component-local index of each global link (`NO_COMP` when flowless).
    link_local: Vec<usize>,
}

/// Cached solver state: the last allocation plus every reusable buffer
/// needed to recompute it without allocating.
///
/// Validity is tracked with two generation counters mirrored from
/// [`Network`]: `built_gen` stamps the allocation itself (any mutation that
/// can change rates invalidates it), `adjacency_gen` stamps the link→flow
/// adjacency and per-flow link lists (only membership/topology mutations
/// invalidate those, so a stream-count or fault-factor change re-solves
/// without rebuilding adjacency — the fast path).
#[derive(Debug, Clone, Default)]
struct AllocCache {
    /// `Network::generation` at the time of the last solve.
    built_gen: u64,
    /// `Network::membership_gen` at the time the partition (component ids,
    /// per-component demand link lists, adjacencies) was last rebuilt.
    adjacency_gen: u64,
    /// Cached rates, parallel to `Network::order`.
    rates: Vec<f64>,
    /// Flow ids parallel to `rates` — rates of untouched components are
    /// carried across membership rebuilds by id, not by position.
    ids: Vec<FlowId>,
    /// The component partition the caches below are indexed by.
    part: Partition,
    /// Solver inputs per component, parallel to `part.flows` — link indices
    /// are component-local and fixed at rebuild; weights and demand caps are
    /// refreshed only when the component is dirty.
    comp_demands: Vec<Vec<FlowDemand>>,
    /// Progressive-filling working arrays per component; adjacency built
    /// once at partition rebuild, reused across re-solves.
    comp_scratch: Vec<AllocScratch>,
    /// Components whose inputs may have changed since their last solve.
    comp_dirty: Vec<bool>,
    /// Reused per-solve buffers: effective capacities and rates of the
    /// component being solved.
    sub_caps: Vec<f64>,
    sub_rates: Vec<f64>,
}

/// A network of links, paths, and active flow groups.
///
/// Flow groups live in a flat slot arena (`slots` + `free` list) with a
/// separate id-sorted `order` index, so lookups are a binary search,
/// iteration stays in id order (identical to the former `BTreeMap`
/// registry — all byte-deterministic outputs are preserved), and removal
/// recycles slots without shifting. Flow ids come from a monotone counter
/// and are never reused, so a new flow always appends to `order`.
///
/// The max–min allocation is computed lazily and cached: every read
/// ([`Network::allocate`], [`Network::flow_rate`], …) reuses one solve
/// until a mutation bumps the generation counter. See `DESIGN.md` §13 for
/// the invalidation rules.
#[derive(Debug, Clone, Default)]
pub struct Network {
    links: Vec<Link>,
    paths: Vec<Path>,
    /// Flow storage; `None` slots are free and listed in `free`.
    slots: Vec<Option<FlowGroup>>,
    /// Recyclable slot indices.
    free: Vec<u32>,
    /// `(id, slot)` pairs sorted by id — the iteration order.
    order: Vec<(FlowId, u32)>,
    next_flow: u64,
    /// Multiplicative capacity factor per link (fault injection); 1.0 = healthy.
    link_factor: Vec<f64>,
    /// Multiplicative RTT factor per path (fault injection); 1.0 = nominal.
    rtt_factor: Vec<f64>,
    /// Total stream weight per link, maintained incrementally on
    /// `add_flow`/`remove_flow`/`set_streams`/`set_flow_path`. Stream counts
    /// are integers, so the running f64 sums are exact and order-independent.
    link_weight: Vec<f64>,
    /// Bumped by every mutation that can change the allocation.
    generation: u64,
    /// Bumped by mutations that change flow membership or topology
    /// (add/remove flow, a flow's path, add link/path) — these also
    /// invalidate adjacency.
    membership_gen: u64,
    /// Lazily rebuilt allocation state; interior mutability keeps
    /// [`Network::allocate`] a `&self` read.
    cache: RefCell<AllocCache>,
    /// Links touched by mutations since the last solve; at solve time only
    /// the components containing a dirty link are re-solved. A `RefCell` so
    /// the `&self` solve path can drain it.
    dirty_links: RefCell<Vec<usize>>,
    /// Escape hatch: re-solve every component at the next read (global
    /// mutations like the MSS, or an explicit [`Network::invalidate_all`]).
    dirty_all: Cell<bool>,
    /// Number of solve passes performed (cache misses).
    solves: Cell<u64>,
    /// Number of per-component solves performed. One solve pass re-solves
    /// only its dirty components, so under scoped mutation churn this grows
    /// slower than `components × passes`.
    comp_solves: Cell<u64>,
}

impl Network {
    /// An empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Record a mutation that can change allocation results.
    fn touch(&mut self) {
        self.generation = self.generation.wrapping_add(1);
    }

    /// Record a mutation that changes flow membership or topology.
    fn touch_membership(&mut self) {
        self.membership_gen = self.membership_gen.wrapping_add(1);
        self.touch();
    }

    /// Mark every link of `path` dirty, so the next solve revisits the
    /// component(s) containing them. A (degenerate) linkless path belongs to
    /// no link component, so it falls back to dirtying everything.
    fn mark_path_dirty(&mut self, path: PathId) {
        let links = &self.paths[path.0].links;
        if links.is_empty() {
            self.dirty_all.set(true);
        } else {
            self.dirty_links.get_mut().extend(links.iter().map(|l| l.0));
        }
    }

    /// Binary-search `order` for a flow id; `Ok(position)` if present.
    fn find(&self, id: FlowId) -> Result<usize, usize> {
        self.order.binary_search_by_key(&id, |&(fid, _)| fid)
    }

    /// Slot index of `id`, or a panic naming the unknown flow.
    fn slot_of(&self, id: FlowId) -> u32 {
        match self.find(id) {
            Ok(pos) => self.order[pos].1,
            Err(_) => panic!("unknown flow {id:?}"),
        }
    }

    fn group(&self, slot: u32) -> &FlowGroup {
        self.slots[slot as usize]
            .as_ref()
            .expect("arena invariant: ordered slot must be occupied")
    }

    /// The TCP maximum segment size in bytes, [`DEFAULT_MSS_BYTES`].
    pub fn mss_bytes(&self) -> f64 {
        DEFAULT_MSS_BYTES
    }

    /// Register a link and return its id.
    pub fn add_link(&mut self, link: Link) -> LinkId {
        self.links.push(link);
        self.link_factor.push(1.0);
        self.link_weight.push(0.0);
        // Adjacency arrays are sized by the link count.
        self.touch_membership();
        LinkId(self.links.len() - 1)
    }

    /// Register a path and return its id.
    ///
    /// # Panics
    /// Panics if the path references an unknown link.
    pub fn add_path(&mut self, path: Path) -> PathId {
        for &l in &path.links {
            assert!(l.0 < self.links.len(), "path references unknown link {l:?}");
        }
        self.paths.push(path);
        self.rtt_factor.push(1.0);
        self.touch_membership();
        PathId(self.paths.len() - 1)
    }

    /// Register a flow group of `streams` parallel `cc` streams on `path`.
    ///
    /// # Panics
    /// Panics if the path id is unknown.
    pub fn add_flow(&mut self, path: PathId, streams: u32, cc: CongestionControl) -> FlowId {
        assert!(path.0 < self.paths.len(), "unknown path {path:?}");
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        let group = FlowGroup::new(path, streams, cc);
        for &l in &self.paths[path.0].links {
            self.link_weight[l.0] += streams as f64;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.slots[s as usize].is_none());
                self.slots[s as usize] = Some(group);
                s
            }
            None => {
                self.slots.push(Some(group));
                (self.slots.len() - 1) as u32
            }
        };
        // Ids are monotone and never reused: a new flow sorts after every
        // existing one, so `order` stays sorted by appending.
        self.order.push((id, slot));
        self.mark_path_dirty(path);
        self.touch_membership();
        id
    }

    /// Change the stream count of an existing flow group.
    ///
    /// Setting the count a flow already has is a no-op and does **not**
    /// invalidate the cached allocation — harness sync loops call this for
    /// every flow every piece.
    ///
    /// # Panics
    /// Panics if the flow id is unknown.
    pub fn set_streams(&mut self, flow: FlowId, streams: u32) {
        let slot = self.slot_of(flow) as usize;
        let group = self.slots[slot].as_mut().expect("occupied slot");
        let old = group.streams;
        if old == streams {
            return;
        }
        group.streams = streams;
        let path = group.path;
        for &l in &self.paths[path.0].links {
            // Exact: stream counts are integers, and integer-valued f64 sums
            // below 2^53 add/subtract without rounding.
            self.link_weight[l.0] += streams as f64 - old as f64;
        }
        self.mark_path_dirty(path);
        self.touch();
    }

    /// Move an existing flow group onto another path, keeping its id — and
    /// so its place in the solve order — and its stream count. The result
    /// is the allocation of a network built with the flow on `path` from
    /// the start, where a remove-then-add would append the flow last.
    ///
    /// Moving a flow onto the path it already has is a no-op and does
    /// **not** invalidate the cached allocation.
    ///
    /// # Panics
    /// Panics if the flow or path id is unknown.
    pub fn set_flow_path(&mut self, flow: FlowId, path: PathId) {
        assert!(path.0 < self.paths.len(), "unknown path {path:?}");
        let slot = self.slot_of(flow) as usize;
        let group = self.slots[slot].as_mut().expect("occupied slot");
        let old = group.path;
        if old == path {
            return;
        }
        group.path = path;
        // Exact for the same reason as in `set_streams`.
        let weight = group.streams as f64;
        for &l in &self.paths[old.0].links {
            self.link_weight[l.0] -= weight;
        }
        for &l in &self.paths[path.0].links {
            self.link_weight[l.0] += weight;
        }
        // The flow leaves the old path's component(s) and joins the new
        // path's, which may merge or split components.
        self.mark_path_dirty(old);
        self.mark_path_dirty(path);
        self.touch_membership();
    }

    /// Remove a flow group. Removing an unknown id is a no-op (idempotent
    /// teardown).
    pub fn remove_flow(&mut self, flow: FlowId) {
        let Ok(pos) = self.find(flow) else {
            return;
        };
        let (_, slot) = self.order.remove(pos);
        let group = self.slots[slot as usize]
            .take()
            .expect("arena invariant: ordered slot must be occupied");
        for &l in &self.paths[group.path.0].links {
            self.link_weight[l.0] -= group.streams as f64;
        }
        self.mark_path_dirty(group.path);
        self.free.push(slot);
        self.touch_membership();
    }

    /// Access a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Access a path.
    pub fn path(&self, id: PathId) -> &Path {
        &self.paths[id.0]
    }

    /// Access a flow group, if it exists.
    pub fn flow(&self, id: FlowId) -> Option<&FlowGroup> {
        self.find(id).ok().map(|pos| self.group(self.order[pos].1))
    }

    /// Number of registered flow groups.
    pub fn flow_count(&self) -> usize {
        self.order.len()
    }

    /// Number of registered links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of registered paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Scale a link's capacity by `factor ∈ [0, 1]` (fault injection: 0 is a
    /// dead link, 1 restores full health). The factor applies on top of the
    /// AIMD derating in [`Network::allocate`].
    ///
    /// # Panics
    /// Panics if the link id is unknown or `factor` is outside `[0, 1]`.
    pub fn set_link_factor(&mut self, id: LinkId, factor: f64) {
        assert!(id.0 < self.links.len(), "unknown link {id:?}");
        assert!(
            (0.0..=1.0).contains(&factor),
            "link factor must be in [0,1], got {factor}"
        );
        if self.link_factor[id.0] == factor {
            return; // no-op: keep the cached allocation valid
        }
        self.link_factor[id.0] = factor;
        self.dirty_links.get_mut().push(id.0);
        self.touch();
    }

    /// Current capacity factor of a link (1.0 when healthy).
    ///
    /// # Panics
    /// Panics if the link id is unknown.
    pub fn link_factor(&self, id: LinkId) -> f64 {
        self.link_factor[id.0]
    }

    /// Scale a path's RTT by `factor ≥ 1` (fault injection: bufferbloat or a
    /// route change; 1 restores the nominal RTT).
    ///
    /// # Panics
    /// Panics if the path id is unknown or `factor` is not finite and ≥ 1.
    pub fn set_rtt_factor(&mut self, id: PathId, factor: f64) {
        assert!(id.0 < self.paths.len(), "unknown path {id:?}");
        assert!(
            factor >= 1.0 && factor.is_finite(),
            "RTT factor must be finite and >= 1, got {factor}"
        );
        if self.rtt_factor[id.0] == factor {
            return; // no-op: keep the cached allocation valid
        }
        self.rtt_factor[id.0] = factor;
        // The RTT feeds the demand caps of flows on this path; those flows
        // live in the component(s) of the path's links.
        self.mark_path_dirty(id);
        self.touch();
    }

    /// Current RTT factor of a path (1.0 when nominal).
    ///
    /// # Panics
    /// Panics if the path id is unknown.
    pub fn rtt_factor(&self, id: PathId) -> f64 {
        self.rtt_factor[id.0]
    }

    /// A path's round-trip time with any fault-injected factor applied.
    ///
    /// # Panics
    /// Panics if the path id is unknown.
    pub fn effective_rtt_s(&self, id: PathId) -> f64 {
        self.paths[id.0].rtt_s * self.rtt_factor[id.0]
    }

    /// Effective link capacities in MB/s (fault factors applied), in
    /// `LinkId.0` order, without allocating.
    pub fn iter_link_capacities(&self) -> impl Iterator<Item = f64> + '_ {
        self.links
            .iter()
            .zip(&self.link_factor)
            .map(|(l, &f)| l.capacity_mbs * f)
    }

    /// Link capacities in MB/s, indexed by `LinkId.0`, with any
    /// fault-injected capacity factors applied.
    ///
    /// Thin collecting wrapper over [`Network::iter_link_capacities`];
    /// prefer the iterator on hot paths.
    pub fn link_capacities(&self) -> Vec<f64> {
        self.iter_link_capacities().collect()
    }

    /// Ids of all registered flow groups, in id order, without allocating.
    pub fn iter_flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.order.iter().map(|&(id, _)| id)
    }

    /// All registered flow groups with their ids, in id order.
    pub fn flows(&self) -> impl Iterator<Item = (FlowId, &FlowGroup)> + '_ {
        self.order.iter().map(|&(id, slot)| (id, self.group(slot)))
    }

    /// Ids of all registered flow groups, in id order.
    ///
    /// Thin collecting wrapper over [`Network::iter_flow_ids`]; prefer the
    /// iterator on hot paths.
    pub fn flow_ids(&self) -> Vec<FlowId> {
        self.iter_flow_ids().collect()
    }

    /// Aggregate demand cap of one flow in MB/s (before fair sharing).
    ///
    /// # Panics
    /// Panics if the flow id is unknown.
    pub fn flow_demand_mbs(&self, id: FlowId) -> f64 {
        let f = self.group(self.slot_of(id));
        let p = &self.paths[f.path.0];
        f.demand_mbs(
            self.effective_rtt_s(f.path),
            p.loss,
            p.wmax_bytes,
            DEFAULT_MSS_BYTES,
        )
    }

    /// Total TCP streams crossing each link, indexed by `LinkId.0`.
    ///
    /// Maintained incrementally — this is a clone of the running sums, not
    /// a rebuild. Use [`Network::link_streams`] for a single link.
    pub fn streams_per_link(&self) -> Vec<f64> {
        self.link_weight.clone()
    }

    /// Total TCP streams crossing one link (O(1) incremental readout).
    ///
    /// # Panics
    /// Panics if the link id is unknown.
    pub fn link_streams(&self, id: LinkId) -> f64 {
        self.link_weight[id.0]
    }

    /// Compute the bottleneck-component partition of the present flows from
    /// scratch. Shared by the incremental cache rebuild and the uncached
    /// reference so both sides group (and therefore solve) identically.
    fn build_partition(&self) -> Partition {
        let nlinks = self.links.len();
        let nflows = self.order.len();
        // Union the links along each flow's path; extra vertices past
        // `nlinks` give (degenerate) linkless flows a private component.
        let mut uf = UnionFind::new(nlinks + nflows);
        let anchor =
            |pos: usize, links: &[LinkId]| -> usize { links.first().map_or(nlinks + pos, |l| l.0) };
        for (pos, &(_, slot)) in self.order.iter().enumerate() {
            let links = &self.paths[self.group(slot).path.0].links;
            let a = anchor(pos, links);
            for &l in links.iter().skip(1) {
                uf.union(a, l.0);
            }
        }
        // Dense component ids by first appearance in flow (id) order.
        let mut root_comp = vec![NO_COMP; nlinks + nflows];
        let mut part = Partition {
            of_link: vec![NO_COMP; nlinks],
            flows: Vec::new(),
            links: Vec::new(),
            link_local: vec![NO_COMP; nlinks],
        };
        for (pos, &(_, slot)) in self.order.iter().enumerate() {
            let links = &self.paths[self.group(slot).path.0].links;
            let root = uf.find(anchor(pos, links));
            let c = match root_comp[root] {
                NO_COMP => {
                    root_comp[root] = part.flows.len();
                    part.flows.push(Vec::new());
                    part.flows.len() - 1
                }
                c => c,
            };
            part.flows[c].push(pos);
            for &l in links {
                part.of_link[l.0] = c;
            }
        }
        // Component link lists in ascending global order, plus the
        // global→component-local index map the compacted solves use.
        part.links = vec![Vec::new(); part.flows.len()];
        for (l, &c) in part.of_link.iter().enumerate() {
            if c != NO_COMP {
                part.link_local[l] = part.links[c].len();
                part.links[c].push(l);
            }
        }
        part
    }

    /// Rebuild the cached partition after a membership change, carrying the
    /// rates of surviving flows across the re-index by flow id.
    fn rebuild_partition(&self, cache: &mut AllocCache) {
        let part = self.build_partition();
        let ncomps = part.flows.len();

        // Carry rates by id: both the old and new id lists are ascending.
        let old_ids = std::mem::take(&mut cache.ids);
        let old_rates = std::mem::take(&mut cache.rates);
        cache.ids = self.order.iter().map(|&(id, _)| id).collect();
        cache.rates = Vec::with_capacity(cache.ids.len());
        let mut j = 0;
        for &id in &cache.ids {
            while j < old_ids.len() && old_ids[j] < id {
                j += 1;
            }
            if j < old_ids.len() && old_ids[j] == id {
                cache.rates.push(old_rates[j]);
            } else {
                cache.rates.push(0.0);
            }
        }

        // Per-component solver inputs: link indices are component-local and
        // fixed until the next rebuild; weights/caps refresh at solve time.
        cache.comp_demands.truncate(ncomps);
        cache.comp_demands.resize_with(ncomps, Vec::new);
        cache.comp_scratch.truncate(ncomps);
        cache.comp_scratch.resize_with(ncomps, AllocScratch::new);
        for c in 0..ncomps {
            let demands = &mut cache.comp_demands[c];
            demands.clear();
            for &pos in &part.flows[c] {
                let f = self.group(self.order[pos].1);
                let links = &self.paths[f.path.0].links;
                demands.push(FlowDemand {
                    weight: 0.0,
                    demand_cap: 0.0,
                    links: links.iter().map(|l| part.link_local[l.0]).collect(),
                });
            }
            cache.comp_scratch[c].rebuild_adjacency(part.links[c].len(), demands);
        }
        cache.comp_dirty.clear();
        cache.comp_dirty.resize(ncomps, false);
        cache.part = part;
    }

    /// Re-solve the cached allocation if any mutation occurred since the
    /// last solve. Only the components containing a dirty link are
    /// re-solved; untouched components keep their cached rates (which is
    /// bit-exact: progressive filling never couples components). Rebuilds
    /// the partition only when membership changed.
    fn ensure_solved(&self) {
        if self.cache.borrow().built_gen == self.generation {
            return;
        }
        let mut cache = self.cache.borrow_mut();
        let cache = &mut *cache;
        let mut dirty_links = self.dirty_links.borrow_mut();

        if cache.adjacency_gen != self.membership_gen {
            // Components already marked dirty must survive the re-index;
            // their links re-identify them in the new partition.
            for (c, d) in cache.comp_dirty.iter().enumerate() {
                if *d {
                    dirty_links.extend(cache.part.links[c].iter().copied());
                }
            }
            self.rebuild_partition(cache);
            cache.adjacency_gen = self.membership_gen;
        }

        if self.dirty_all.get() {
            cache.comp_dirty.iter_mut().for_each(|d| *d = true);
            self.dirty_all.set(false);
        } else {
            for &l in dirty_links.iter() {
                let c = cache.part.of_link[l];
                if c != NO_COMP {
                    cache.comp_dirty[c] = true;
                }
            }
        }
        dirty_links.clear();

        let AllocCache {
            rates,
            part,
            comp_demands,
            comp_scratch,
            comp_dirty,
            sub_caps,
            sub_rates,
            ..
        } = cache;
        for (c, dirty) in comp_dirty.iter_mut().enumerate() {
            if !*dirty {
                continue;
            }
            *dirty = false;
            // Effective capacities of this component's links: derate by
            // multiplexed stream count, then by the fault factor —
            // identical arithmetic to the uncached path.
            sub_caps.clear();
            sub_caps.extend(part.links[c].iter().map(|&l| {
                self.links[l].effective_capacity_mbs(self.link_weight[l]) * self.link_factor[l]
            }));
            // Refresh weights and demand caps (link lists are fixed).
            for (&pos, d) in part.flows[c].iter().zip(comp_demands[c].iter_mut()) {
                let f = self.group(self.order[pos].1);
                let p = &self.paths[f.path.0];
                d.weight = f.streams as f64;
                d.demand_cap = f.demand_mbs(
                    self.effective_rtt_s(f.path),
                    p.loss,
                    p.wmax_bytes,
                    DEFAULT_MSS_BYTES,
                );
            }
            max_min_allocate_into(sub_caps, &comp_demands[c], &mut comp_scratch[c], sub_rates);
            for (&pos, &r) in part.flows[c].iter().zip(sub_rates.iter()) {
                rates[pos] = r;
            }
            self.comp_solves.set(self.comp_solves.get() + 1);
        }
        self.solves.set(self.solves.get() + 1);
        cache.built_gen = self.generation;
    }

    /// Number of max–min solves actually performed so far (cache misses).
    /// Cached reads do not increment this — the whole point of the engine.
    pub fn allocation_solves(&self) -> u64 {
        self.solves.get()
    }

    /// Number of *component* solves performed so far: each dirty bottleneck
    /// component re-solved during a pass counts once. With component-scoped
    /// invalidation this grows slower than mutations × components; the
    /// churn tests in `tests/alloc_engine.rs` gate `component_solves /
    /// mutations` below 1.
    pub fn component_solves(&self) -> u64 {
        self.comp_solves.get()
    }

    /// Number of bottleneck-connected components in the current (cached)
    /// partition. Solves the cache first if it is stale.
    pub fn component_count(&self) -> usize {
        self.ensure_solved();
        self.cache.borrow().part.flows.len()
    }

    /// Mark every component dirty so the next read re-solves the whole
    /// network. This is the full-re-solve baseline of the mutation-churn
    /// tests (`tests/alloc_engine.rs`, `tests/perf_gates.rs`); normal
    /// callers never need it.
    pub fn invalidate_all(&mut self) {
        self.dirty_all.set(true);
        self.touch();
    }

    /// Current allocation generation: bumped by every mutation that can
    /// change the allocation. Equal generations between two reads guarantee
    /// the reads came from the same cached solve.
    pub fn allocation_epoch(&self) -> u64 {
        self.generation
    }

    /// Compute the max–min fair goodput allocation for every registered flow
    /// group, in MB/s.
    ///
    /// Link capacities are first derated to their *effective* values given
    /// the total stream count multiplexed onto each link (see
    /// [`Link::effective_capacity_mbs`]), then shared max–min fairly with
    /// stream counts as weights and TCP-model demand caps.
    ///
    /// The solve is cached: repeated calls without an intervening mutation
    /// reuse the previous result (only the returned map is rebuilt). Use
    /// [`Network::flow_rate`] to read a single flow without building a map.
    pub fn allocate(&self) -> BTreeMap<FlowId, f64> {
        self.ensure_solved();
        let cache = self.cache.borrow();
        self.order
            .iter()
            .map(|&(id, _)| id)
            .zip(cache.rates.iter().copied())
            .collect()
    }

    /// Reference implementation: recompute the allocation from scratch,
    /// bypassing the incremental cache (fresh buffers, full adjacency
    /// rebuild). This is the pre-cache code path, kept for equivalence
    /// testing and as the baseline in the allocation microbenchmarks.
    pub fn allocate_uncached(&self) -> BTreeMap<FlowId, f64> {
        let mut streams = vec![0.0f64; self.links.len()];
        for (_, f) in self.flows() {
            for &l in &self.paths[f.path.0].links {
                streams[l.0] += f.streams as f64;
            }
        }
        let part = self.build_partition();
        let mut rates = vec![0.0f64; self.order.len()];
        let mut sub_caps = Vec::new();
        let mut sub_rates = Vec::new();
        for c in 0..part.flows.len() {
            sub_caps.clear();
            sub_caps.extend(
                part.links[c].iter().map(|&l| {
                    self.links[l].effective_capacity_mbs(streams[l]) * self.link_factor[l]
                }),
            );
            let demands: Vec<FlowDemand> = part.flows[c]
                .iter()
                .map(|&pos| {
                    let f = self.group(self.order[pos].1);
                    let p = &self.paths[f.path.0];
                    FlowDemand {
                        weight: f.streams as f64,
                        demand_cap: f.demand_mbs(
                            self.effective_rtt_s(f.path),
                            p.loss,
                            p.wmax_bytes,
                            DEFAULT_MSS_BYTES,
                        ),
                        links: p.links.iter().map(|l| part.link_local[l.0]).collect(),
                    }
                })
                .collect();
            let mut scratch = AllocScratch::new();
            scratch.rebuild_adjacency(part.links[c].len(), &demands);
            max_min_allocate_into(&sub_caps, &demands, &mut scratch, &mut sub_rates);
            for (&pos, &r) in part.flows[c].iter().zip(sub_rates.iter()) {
                rates[pos] = r;
            }
        }
        self.order.iter().map(|&(id, _)| id).zip(rates).collect()
    }

    /// The max–min fair goodput of a single flow (other flows still
    /// contend), in MB/s, read from the cached allocation — an O(log F)
    /// lookup after one amortized solve, not a solve per call.
    ///
    /// # Panics
    /// Panics if the flow id is unknown.
    pub fn flow_rate(&self, id: FlowId) -> f64 {
        let pos = match self.find(id) {
            Ok(pos) => pos,
            Err(_) => panic!("unknown flow {id:?}"),
        };
        self.ensure_solved();
        self.cache.borrow().rates[pos]
    }

    /// Convenience alias for [`Network::flow_rate`] (historical name).
    ///
    /// # Panics
    /// Panics if the flow id is unknown.
    pub fn allocation_of(&self, id: FlowId) -> f64 {
        self.flow_rate(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the paper's ANL source topology: 5000 MB/s NIC, a 5000 MB/s WAN
    /// to UChicago and a 2500 MB/s WAN to TACC.
    fn anl_topology() -> (Network, PathId, PathId) {
        let mut net = Network::new();
        let nic = net.add_link(Link::from_gbps("anl-nic", 40.0));
        let wan_uc = net.add_link(Link::from_gbps("wan-uc", 40.0));
        let wan_tacc = net.add_link(Link::from_gbps("wan-tacc", 20.0));
        let p_uc = net.add_path(
            Path::new("anl->uc", vec![nic, wan_uc])
                .with_rtt_ms(2.0)
                .with_loss(2e-4),
        );
        let p_tacc = net.add_path(
            Path::new("anl->tacc", vec![nic, wan_tacc])
                .with_rtt_ms(33.0)
                .with_loss(1e-5),
        );
        (net, p_uc, p_tacc)
    }

    #[test]
    fn single_stream_cannot_saturate_lossy_path() {
        let (mut net, p_uc, _) = anl_topology();
        let f = net.add_flow(p_uc, 1, CongestionControl::HTcp);
        let rate = net.allocation_of(f);
        assert!(rate > 0.0);
        assert!(
            rate < 1000.0,
            "one stream should be far below the 5000 MB/s NIC, got {rate}"
        );
    }

    #[test]
    fn more_streams_more_throughput_until_saturation() {
        let (mut net, p_uc, _) = anl_topology();
        let f = net.add_flow(p_uc, 1, CongestionControl::HTcp);
        let mut last = 0.0;
        let mut saturated_at = None;
        for k in [1u32, 2, 4, 8, 16, 32, 64, 128] {
            net.set_streams(f, k);
            let r = net.allocation_of(f);
            assert!(
                r >= last - 1e-9,
                "throughput must not fall in pure net model"
            );
            if r >= 4999.0 && saturated_at.is_none() {
                saturated_at = Some(k);
            }
            last = r;
        }
        let k = saturated_at.expect("some stream count should saturate the NIC");
        assert!(
            k >= 16,
            "saturation too early (k={k}); loss calibration off"
        );
    }

    #[test]
    fn competing_traffic_shifts_shares() {
        let (mut net, p_uc, _) = anl_topology();
        let ours = net.add_flow(p_uc, 64, CongestionControl::HTcp);
        let theirs = net.add_flow(p_uc, 64, CongestionControl::HTcp);
        let a = net.allocate();
        assert!(
            (a[&ours] - a[&theirs]).abs() < 1e-6,
            "equal weights, equal split"
        );
        // Quadrupling our streams quadruples our weight.
        net.set_streams(ours, 256);
        let a = net.allocate();
        assert!(a[&ours] > 3.0 * a[&theirs], "a={a:?}");
    }

    #[test]
    fn fig11_shared_nic_coupling() {
        let (mut net, p_uc, p_tacc) = anl_topology();
        let f_uc = net.add_flow(p_uc, 64, CongestionControl::HTcp);
        let f_tacc = net.add_flow(p_tacc, 64, CongestionControl::HTcp);
        let a = net.allocate();
        let total = a[&f_uc] + a[&f_tacc];
        assert!(total <= 5000.0 + 1e-6, "NIC bound violated: {total}");
        // Raising UC streams must reduce the TACC share (shared NIC).
        let before_tacc = a[&f_tacc];
        net.set_streams(f_uc, 256);
        let a = net.allocate();
        assert!(
            a[&f_tacc] < before_tacc,
            "shared NIC should couple the transfers"
        );
    }

    #[test]
    fn remove_flow_restores_bandwidth() {
        let (mut net, p_uc, _) = anl_topology();
        let a = net.add_flow(p_uc, 64, CongestionControl::HTcp);
        let b = net.add_flow(p_uc, 64, CongestionControl::HTcp);
        let with_b = net.allocation_of(a);
        net.remove_flow(b);
        let without_b = net.allocation_of(a);
        assert!(without_b > with_b);
        assert_eq!(net.flow_count(), 1);
        net.remove_flow(b); // idempotent
    }

    #[test]
    fn flow_demand_reflects_tcp_model() {
        let (mut net, _, p_tacc) = anl_topology();
        let f = net.add_flow(p_tacc, 10, CongestionControl::HTcp);
        let d = net.flow_demand_mbs(f);
        let p = net.path(p_tacc);
        let per = CongestionControl::HTcp
            .steady_rate_mbs(p.rtt_s, p.loss, net.mss_bytes())
            .min(CongestionControl::window_cap_mbs(p.rtt_s, p.wmax_bytes));
        assert!((d - 10.0 * per).abs() < 1e-9);
    }

    /// Topology with the paper-calibrated AIMD derating on the shared NIC.
    fn derated_topology() -> (Network, PathId) {
        let mut net = Network::new();
        let nic = net.add_link(Link::from_gbps("anl-nic", 40.0).with_half_streams(16.0));
        let wan = net.add_link(Link::from_gbps("wan-uc", 40.0).with_half_streams(16.0));
        let p = net.add_path(
            Path::new("anl->uc", vec![nic, wan])
                .with_rtt_ms(2.0)
                .with_loss(1e-5),
        );
        (net, p)
    }

    #[test]
    fn derated_link_matches_paper_default() {
        // Globus default = 16 streams: 5000·16/32 = 2500 MB/s, the paper's
        // observed default throughput on ANL->UChicago.
        let (mut net, p) = derated_topology();
        let f = net.add_flow(p, 16, CongestionControl::HTcp);
        let r = net.allocation_of(f);
        assert!((r - 2500.0).abs() < 1.0, "r={r}");
    }

    #[test]
    fn derated_link_concave_growth() {
        let (mut net, p) = derated_topology();
        let f = net.add_flow(p, 16, CongestionControl::HTcp);
        let r16 = net.allocation_of(f);
        net.set_streams(f, 64);
        let r64 = net.allocation_of(f);
        net.set_streams(f, 256);
        let r256 = net.allocation_of(f);
        assert!(r16 < r64 && r64 < r256, "monotone: {r16} {r64} {r256}");
        // Diminishing returns: 4x streams gives far less than 4x throughput.
        assert!(r64 < 2.0 * r16);
        assert!(r256 < 5000.0);
    }

    #[test]
    fn external_streams_on_shared_nic_match_paper_tfr_numbers() {
        // Paper Fig. 5d/5e: default (16 streams) drops from 2500 to ~1400
        // with ext.tfr=16 and ~900 with ext.tfr=64.
        let (mut net, p) = derated_topology();
        let ours = net.add_flow(p, 16, CongestionControl::HTcp);
        let ext = net.add_flow(p, 16, CongestionControl::HTcp);
        let r = net.allocation_of(ours);
        assert!((1300.0..1900.0).contains(&r), "tfr=16: r={r}");
        net.set_streams(ext, 64);
        let r = net.allocation_of(ours);
        assert!((700.0..1100.0).contains(&r), "tfr=64: r={r}");
    }

    #[test]
    fn effective_capacity_edges() {
        let ideal = Link::new("ideal", 100.0);
        assert_eq!(ideal.effective_capacity_mbs(0.0), 100.0);
        assert_eq!(ideal.effective_capacity_mbs(1e9), 100.0);
        let derated = Link::new("d", 100.0).with_half_streams(10.0);
        assert_eq!(derated.effective_capacity_mbs(0.0), 0.0);
        assert!((derated.effective_capacity_mbs(10.0) - 50.0).abs() < 1e-9);
        assert!(derated.effective_capacity_mbs(1e6) > 99.9);
    }

    #[test]
    #[should_panic(expected = "unknown flow")]
    fn set_streams_unknown_flow_panics() {
        let (mut net, _, _) = anl_topology();
        net.set_streams(FlowId(99), 4);
    }

    #[test]
    fn set_flow_path_moves_the_flow_and_its_weight() {
        let (mut net, p_uc, p_tacc) = anl_topology();
        let f = net.add_flow(p_uc, 64, CongestionControl::HTcp);
        let g = net.add_flow(p_tacc, 16, CongestionControl::HTcp);
        net.set_flow_path(f, p_tacc);
        assert_eq!(net.flow(f).map(|fl| fl.path), Some(p_tacc));
        assert_eq!(net.flow_ids(), vec![f, g], "the flow keeps its id");
        assert_eq!(net.streams_per_link(), vec![80.0, 0.0, 80.0]);
        let a = net.allocate();
        assert!(
            (a[&f] - 4.0 * a[&g]).abs() < 1e-6,
            "shares by weight: {a:?}"
        );
    }

    #[test]
    #[should_panic(expected = "unknown path")]
    fn set_flow_path_unknown_path_panics() {
        let (mut net, p_uc, _) = anl_topology();
        let f = net.add_flow(p_uc, 4, CongestionControl::HTcp);
        net.set_flow_path(f, PathId(9));
    }

    #[test]
    #[should_panic(expected = "references unknown link")]
    fn path_with_unknown_link_panics() {
        let mut net = Network::new();
        net.add_path(Path::new("bad", vec![LinkId(5)]));
    }
}
