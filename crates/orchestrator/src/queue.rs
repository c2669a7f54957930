//! The fleet's admission queue, indexed by policy order.
//!
//! Jobs sit in a slab keyed by insertion sequence: arrivals, then requeues
//! and migrations pushed at the back. Everything that walks "the queue"
//! (state digests, re-routes, replans, shedding, the final report) walks
//! that order. Beside it, each [`Policy`] keeps its own order index, so a
//! pick costs `O(log n)` plus the jobs skipped because the breakers block
//! their route, instead of a clone and scan of the whole queue.
//!
//! The pick is exactly [`Policy::pick_next`] over the breaker-admissible
//! jobs in queue order (the equivalence is proptested below):
//!
//! - **fifo** takes the first admissible job in insertion order — *not*
//!   `(arrival, id)` order, since requeued jobs rejoin at the back;
//! - **sjf** walks a set ordered by `(size, arrival, id)`, with `-0.0`
//!   folded into `0.0` so the order matches `partial_cmp`;
//! - **wfair** keeps one id-ordered set per priority class, takes each
//!   class's first admissible job, and picks among those by the
//!   cross-multiplied deficit compare, ties to the lowest id.

use std::collections::{BTreeMap, BTreeSet};

use crate::job::{JobId, JobSpec};
use crate::policy::Policy;
use crate::route::JobRoute;

/// A policy's order over the queued jobs' sequence numbers.
#[derive(Debug)]
enum Order {
    /// Insertion order: the slab itself.
    Fifo,
    /// `(size, arrival, id, seq)`.
    Sjf(BTreeSet<(i64, i64, JobId, u64)>),
    /// Per priority class, `(id, seq)`. Empty classes are removed.
    WeightedFair(BTreeMap<u32, BTreeSet<(JobId, u64)>>),
}

/// Queued jobs in insertion order, plus the active policy's order index.
#[derive(Debug)]
pub(crate) struct JobQueue {
    jobs: BTreeMap<u64, JobSpec>,
    next_seq: u64,
    order: Order,
}

impl JobQueue {
    /// An empty queue ordered by `policy`.
    pub(crate) fn new(policy: Policy) -> Self {
        let order = match policy {
            Policy::Fifo => Order::Fifo,
            Policy::Sjf => Order::Sjf(BTreeSet::new()),
            Policy::WeightedFair => Order::WeightedFair(BTreeMap::new()),
        };
        JobQueue {
            jobs: BTreeMap::new(),
            next_seq: 0,
            order,
        }
    }

    /// True when no job is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Queue `job` at the back.
    pub(crate) fn push(&mut self, job: JobSpec) {
        let seq = self.next_seq;
        self.next_seq += 1;
        match &mut self.order {
            Order::Fifo => {}
            Order::Sjf(set) => {
                set.insert(sjf_key(&job, seq));
            }
            Order::WeightedFair(classes) => {
                classes
                    .entry(job.priority)
                    .or_default()
                    .insert((job.id, seq));
            }
        }
        self.jobs.insert(seq, job);
    }

    /// Take the job with sequence number `seq` out of the queue.
    ///
    /// # Panics
    /// Panics when no such job is queued.
    pub(crate) fn remove(&mut self, seq: u64) -> JobSpec {
        let job = self.jobs.remove(&seq).expect("job is queued");
        match &mut self.order {
            Order::Fifo => {}
            Order::Sjf(set) => {
                set.remove(&sjf_key(&job, seq));
            }
            Order::WeightedFair(classes) => {
                let class = classes.get_mut(&job.priority).expect("class is indexed");
                class.remove(&(job.id, seq));
                if class.is_empty() {
                    classes.remove(&job.priority);
                }
            }
        }
        job
    }

    /// `(seq, job)` in insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &JobSpec)> {
        self.jobs.iter().map(|(&seq, j)| (seq, j))
    }

    /// Move the queued job `seq` onto `route`. No policy orders by route,
    /// so the index is untouched.
    pub(crate) fn set_route(&mut self, seq: u64, route: JobRoute) {
        self.jobs.get_mut(&seq).expect("job is queued").route = route;
    }

    /// The queued job `seq`.
    ///
    /// # Panics
    /// Panics when no such job is queued.
    pub(crate) fn get(&self, seq: u64) -> &JobSpec {
        &self.jobs[&seq]
    }

    /// The queued jobs in insertion order.
    pub(crate) fn into_jobs(self) -> impl Iterator<Item = JobSpec> {
        self.jobs.into_values()
    }

    /// The sequence number of the job the policy admits next among those
    /// `admits` accepts, or `None` when it accepts none. `admitted_by_class`
    /// is the per-priority admitted count so far (weighted fair only).
    pub(crate) fn pick(
        &self,
        admits: impl Fn(&JobSpec) -> bool,
        admitted_by_class: &[(u32, u32)],
    ) -> Option<u64> {
        let ok = |seq: &u64| admits(&self.jobs[seq]);
        match &self.order {
            Order::Fifo => self
                .jobs
                .iter()
                .find(|(_, j)| admits(j))
                .map(|(&seq, _)| seq),
            Order::Sjf(set) => set.iter().map(|k| k.3).find(ok),
            Order::WeightedFair(classes) => {
                let served = |priority: u32| -> u64 {
                    admitted_by_class
                        .iter()
                        .find(|(p, _)| *p == priority)
                        .map_or(0, |(_, n)| *n as u64)
                };
                // Each class's first admissible job, then the hungriest
                // class (deficit = admitted / weight, cross-multiplied).
                classes
                    .iter()
                    .filter_map(|(&p, class)| {
                        let &(id, seq) = class.iter().find(|(_, seq)| ok(seq))?;
                        Some((p, id, seq))
                    })
                    .min_by(|&(pa, ida, _), &(pb, idb, _)| {
                        let da = served(pa) * pb as u64;
                        let db = served(pb) * pa as u64;
                        da.cmp(&db).then(ida.cmp(&idb))
                    })
                    .map(|(_, _, seq)| seq)
            }
        }
    }
}

fn sjf_key(job: &JobSpec, seq: u64) -> (i64, i64, JobId, u64) {
    (
        float_key(job.size_mb),
        float_key(job.arrival_s),
        job.id,
        seq,
    )
}

/// `v`'s rank in [`f64::total_cmp`] order, with `-0.0` folded into `0.0` so
/// that finite values rank exactly as `partial_cmp` orders them.
fn float_key(v: f64) -> i64 {
    let bits = (v + 0.0).to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One queue operation: push a fresh job, remove the `n`-th queued job
    /// (modulo the length), or requeue it (remove and push it back).
    #[derive(Debug, Clone)]
    enum Op {
        Push {
            size: u8,
            arrival: u8,
            neg_zero: bool,
            priority: u32,
            links: Vec<usize>,
        },
        Remove(usize),
        Requeue(usize),
    }

    fn push() -> impl Strategy<Value = Op> {
        (
            0u8..4,
            0u8..4,
            any::<bool>(),
            1u32..=8,
            prop::collection::vec(0usize..LINKS, 1..3),
        )
            .prop_map(|(size, arrival, neg_zero, priority, links)| Op::Push {
                size,
                arrival,
                neg_zero,
                priority,
                links,
            })
    }

    /// Pushes twice as likely as removes or requeues, so queues grow.
    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            push(),
            push(),
            (0usize..64).prop_map(Op::Remove),
            (0usize..64).prop_map(Op::Requeue),
        ]
    }

    /// Links the generated routes cross; every subset of them is tried as
    /// the set of links whose breakers block admission.
    const LINKS: usize = 4;

    /// Replay `ops` on a `JobQueue` and on a plain `Vec` in queue order,
    /// checking after each step, for every breaker mask, that the indexed
    /// pick equals `Policy::pick_next` over the masked view of the `Vec`.
    fn check(policy: Policy, ops: &[Op], served: &[(u32, u32)]) {
        let mut q = JobQueue::new(policy);
        // (seq, job) in queue order: the reference model.
        let mut model: Vec<(u64, JobSpec)> = Vec::new();
        let mut next_id = 0u64;
        for op in ops {
            match op {
                Op::Push {
                    size,
                    arrival,
                    neg_zero,
                    priority,
                    links,
                } => {
                    // Small grids force duplicate sizes and arrivals.
                    let mut job = JobSpec::new(next_id, 0.0, 100.0 * (1 + *size) as f64)
                        .with_priority(*priority)
                        .with_route(JobRoute::new("r", links.clone(), 0));
                    job.arrival_s = match (*arrival, *neg_zero) {
                        (0, true) => -0.0,
                        (a, _) => a as f64 * 5.0,
                    };
                    next_id += 1;
                    model.push((q.next_seq, job.clone()));
                    q.push(job);
                }
                Op::Remove(n) | Op::Requeue(n) => {
                    if model.is_empty() {
                        continue;
                    }
                    let (seq, _) = model.remove(n % model.len());
                    let job = q.remove(seq);
                    if matches!(op, Op::Requeue(_)) {
                        model.push((q.next_seq, job.clone()));
                        q.push(job);
                    }
                }
            }
            assert!(q.iter().map(|(s, _)| s).eq(model.iter().map(|(s, _)| *s)));
            for mask in 0..1u32 << LINKS {
                let admits = |j: &JobSpec| j.route.links().iter().all(|&l| mask >> l & 1 == 0);
                let admissible: Vec<usize> =
                    (0..model.len()).filter(|&i| admits(&model[i].1)).collect();
                let view: Vec<JobSpec> = admissible.iter().map(|&i| model[i].1.clone()).collect();
                let want = policy
                    .pick_next(&view, served)
                    .map(|v| model[admissible[v]].0);
                assert_eq!(
                    q.pick(admits, served),
                    want,
                    "{policy} after {op:?}, mask {mask:b}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn indexed_pick_equals_pick_next_over_the_masked_view(
            ops in prop::collection::vec(op(), 1..48),
            served in prop::collection::vec((1u32..=8, 0u32..6), 0..6),
        ) {
            for policy in Policy::all() {
                check(policy, &ops, &served);
            }
        }
    }

    #[test]
    fn fifo_is_insertion_order_not_arrival_order() {
        let mut q = JobQueue::new(Policy::Fifo);
        q.push(JobSpec::new(5, 10.0, 100.0));
        q.push(JobSpec::new(1, 0.0, 100.0));
        assert_eq!(q.pick(|_| true, &[]), Some(0));
        let head = q.remove(0);
        q.push(head);
        assert_eq!(q.pick(|_| true, &[]), Some(1));
        assert!(q.into_jobs().map(|j| j.id.0).eq([1, 5]));
    }

    #[test]
    fn float_key_orders_like_partial_cmp() {
        let vs = [
            -1e300,
            -2.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            5e-324,
            1.0,
            2.5,
            1e300,
        ];
        for a in vs {
            for b in vs {
                let want = a.partial_cmp(&b).expect("finite");
                assert_eq!(float_key(a).cmp(&float_key(b)), want, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn sjf_treats_signed_zero_arrivals_as_equal() {
        let mut q = JobQueue::new(Policy::Sjf);
        let mut late = JobSpec::new(0, 0.0, 100.0);
        late.arrival_s = 0.0;
        let mut early = JobSpec::new(1, 0.0, 100.0);
        early.arrival_s = -0.0;
        q.push(late);
        q.push(early);
        // Equal arrivals fall through to the id: job 0 wins.
        assert_eq!(q.pick(|_| true, &[]), Some(0));
    }
}
