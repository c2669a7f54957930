//! Admission-order policies.
//!
//! The orchestrator keeps arrived-but-not-yet-admitted jobs in a queue and,
//! each tick, asks the active [`Policy`] which job should be considered next.
//! Admission is head-of-line blocking: if the policy's pick does not fit the
//! remaining link budgets, nothing behind it is admitted this tick. That keeps
//! the policies' semantics honest (SJF really is shortest-job-first, not
//! "shortest job that happens to fit") and the trace deterministic.

use crate::job::JobSpec;

/// How the orchestrator orders queued jobs for admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// First-in first-out: queue order (arrivals by `(arrival, id)`, then
    /// requeued and migrated jobs at the back as they rejoin).
    Fifo,
    /// Shortest job first by `(size, arrival, id)`.
    Sjf,
    /// Weighted fair: the job whose class (priority weight) has received the
    /// smallest admitted-count/weight ratio goes first; ties break FIFO.
    WeightedFair,
}

impl Policy {
    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fifo => "fifo",
            Policy::Sjf => "sjf",
            Policy::WeightedFair => "wfair",
        }
    }

    /// All policies, in report order.
    pub fn all() -> [Policy; 3] {
        [Policy::Fifo, Policy::Sjf, Policy::WeightedFair]
    }

    /// Index into `queue` of the job this policy admits next, or `None` when
    /// the queue is empty. `admitted_by_class` is the per-priority admitted
    /// count so far (used by [`Policy::WeightedFair`]).
    pub fn pick_next(self, queue: &[JobSpec], admitted_by_class: &[(u32, u32)]) -> Option<usize> {
        if queue.is_empty() {
            return None;
        }
        let idx = match self {
            // The queue is kept in insertion order already.
            Policy::Fifo => 0,
            Policy::Sjf => queue
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.size_mb
                        .partial_cmp(&b.size_mb)
                        .expect("sizes are finite")
                        .then(
                            a.arrival_s
                                .partial_cmp(&b.arrival_s)
                                .expect("arrivals are finite"),
                        )
                        .then(a.id.cmp(&b.id))
                })
                .map(|(i, _)| i)
                .expect("queue non-empty"),
            Policy::WeightedFair => {
                let served = |priority: u32| -> u32 {
                    admitted_by_class
                        .iter()
                        .find(|(p, _)| *p == priority)
                        .map(|(_, n)| *n)
                        .unwrap_or(0)
                };
                // Deficit = admitted / weight; smaller deficit is hungrier.
                // Compare cross-multiplied to stay in integers (deterministic).
                queue
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        let da = served(a.priority) as u64 * b.priority as u64;
                        let db = served(b.priority) as u64 * a.priority as u64;
                        da.cmp(&db).then(a.id.cmp(&b.id))
                    })
                    .map(|(i, _)| i)
                    .expect("queue non-empty")
            }
        };
        Some(idx)
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Policy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fifo" => Ok(Policy::Fifo),
            "sjf" => Ok(Policy::Sjf),
            "wfair" | "weighted-fair" | "weightedfair" => Ok(Policy::WeightedFair),
            other => Err(format!(
                "unknown policy '{other}' (expected fifo|sjf|wfair)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;

    fn queue() -> Vec<JobSpec> {
        vec![
            JobSpec::new(0, 0.0, 300.0).with_priority(1),
            JobSpec::new(1, 5.0, 100.0).with_priority(4),
            JobSpec::new(2, 10.0, 200.0).with_priority(1),
        ]
    }

    #[test]
    fn fifo_takes_the_head() {
        assert_eq!(Policy::Fifo.pick_next(&queue(), &[]), Some(0));
    }

    #[test]
    fn sjf_takes_the_smallest() {
        assert_eq!(Policy::Sjf.pick_next(&queue(), &[]), Some(1));
    }

    #[test]
    fn sjf_breaks_size_ties_by_arrival_then_id() {
        let q = vec![
            JobSpec::new(3, 5.0, 100.0),
            JobSpec::new(1, 5.0, 100.0),
            JobSpec::new(2, 0.0, 100.0),
        ];
        assert_eq!(Policy::Sjf.pick_next(&q, &[]), Some(2));
    }

    #[test]
    fn weighted_fair_prefers_underserved_heavy_class() {
        // Class 4 has been admitted once, class 1 twice: deficits are
        // 1/4 vs 2/1, so the priority-4 job is hungrier.
        let served = [(1u32, 2u32), (4, 1)];
        assert_eq!(Policy::WeightedFair.pick_next(&queue(), &served), Some(1));
        // With class 4 heavily served, class 1 wins (earliest id first).
        let served = [(1u32, 1u32), (4, 40)];
        assert_eq!(Policy::WeightedFair.pick_next(&queue(), &served), Some(0));
    }

    #[test]
    fn empty_queue_yields_none() {
        for p in Policy::all() {
            assert_eq!(p.pick_next(&[], &[]), None);
        }
    }

    #[test]
    fn parse_and_display_round_trip() {
        for p in Policy::all() {
            let s = p.to_string();
            assert_eq!(s.parse::<Policy>().unwrap(), p);
        }
        assert_eq!(
            "weighted-fair".parse::<Policy>().unwrap(),
            Policy::WeightedFair
        );
        assert!("lifo".parse::<Policy>().is_err());
    }
}
