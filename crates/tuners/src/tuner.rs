//! The online tuner interface and a name-based factory.

use crate::audit::AuditLog;
use crate::bandit::BanditTuner;
use crate::baselines::{Heur1Tuner, Heur2Tuner, StaticTuner};
use crate::cd::CdTuner;
use crate::compass::CompassTuner;
use crate::domain::{Domain, Point};
use crate::heuristic::HeuristicTuner;
use crate::neldermead::NelderMeadTuner;
use crate::surrogate::HistoryTuner;

/// An online tuner: a pull-style state machine that proposes the parameter
/// point for each control epoch based on the throughput observed so far.
///
/// Protocol: the driver transfers one control epoch with
/// [`OnlineTuner::initial`]'s point, reports the achieved throughput via
/// [`OnlineTuner::observe`], transfers the next epoch with the returned
/// point, and so on until the data runs out (`while s' > 0` in the paper's
/// pseudocode).
pub trait OnlineTuner {
    /// Short identifier used in reports (`cd-tuner`, `cs-tuner`, …).
    fn name(&self) -> &'static str;

    /// The point to use for the first control epoch.
    fn initial(&self) -> Point;

    /// Observe that running with `x` achieved `throughput` (MB/s) over the
    /// last control epoch; return the point for the next epoch.
    fn observe(&mut self, x: &Point, throughput: f64) -> Point;

    /// The search domain.
    fn domain(&self) -> &Domain;

    /// The decision audit log ([`AuditLog`]): one event per observed epoch,
    /// recorded by every direct-search tuner and never read back by it.
    /// `None` for the static and additive/exponential baselines, which make
    /// no direct-search decisions worth auditing.
    fn audit_log(&self) -> Option<&AuditLog> {
        None
    }
}

/// A seed for a tuner's starting point, recording where it came from.
///
/// The paper's tuners always start from the Globus default and pay the full
/// online search. A fleet orchestrator with a history store can instead seed
/// new jobs from the best parameters of the nearest historical match (cf.
/// Arslan & Kosar's historical-analysis warm start), cutting the search
/// phase. `WarmStart` carries both the point and its provenance so reports
/// can attribute the speedup.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart {
    /// The starting point handed to the tuner.
    pub x0: Point,
    /// Where the point came from.
    pub source: WarmStartSource,
}

/// Provenance of a [`WarmStart`] point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WarmStartSource {
    /// No usable history: the static default (cold start).
    ColdDefault,
    /// Seeded from a history-store record at the given match distance
    /// (0 = exact context match).
    History {
        /// Distance between the new job's context and the matched record
        /// under the store's metric.
        distance: f64,
    },
}

impl WarmStart {
    /// A cold start from `x0` (the Globus default in the paper's setup).
    pub fn cold(x0: Point) -> Self {
        WarmStart {
            x0,
            source: WarmStartSource::ColdDefault,
        }
    }

    /// A history-seeded start from `x0` matched at `distance`.
    pub fn from_history(x0: Point, distance: f64) -> Self {
        WarmStart {
            x0,
            source: WarmStartSource::History { distance },
        }
    }

    /// True when the seed came from the history store.
    pub fn is_warm(&self) -> bool {
        matches!(self.source, WarmStartSource::History { .. })
    }

    /// The match distance, when warm.
    pub fn distance(&self) -> Option<f64> {
        match self.source {
            WarmStartSource::History { distance } => Some(distance),
            WarmStartSource::ColdDefault => None,
        }
    }
}

/// The tuners evaluated in the paper, constructible by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TunerKind {
    /// Static Globus defaults (the paper's `default` baseline).
    Default,
    /// Coordinate-descent tuner (Algorithm 1).
    Cd,
    /// Compass-search tuner (Algorithm 2).
    Cs,
    /// Nelder–Mead tuner (Algorithm 3).
    Nm,
    /// Balman's additive heuristic (`heur1`).
    Heur1,
    /// Yildirim's exponential heuristic (`heur2`).
    Heur2,
    /// History-surrogate tuner: offline knowledge + adaptive sampling
    /// (arXiv:1707.09455).
    History,
    /// Closed-form geometric-midpoint baseline.
    Heuristic,
    /// Tabular UCB1 bandit over a power-of-two arm ladder (arXiv:2211.11949).
    Bandit,
}

impl TunerKind {
    /// All kinds: the paper's six first (in the order its figures list
    /// them), then the tournament additions.
    pub const ALL: [TunerKind; 9] = [
        TunerKind::Default,
        TunerKind::Cd,
        TunerKind::Cs,
        TunerKind::Nm,
        TunerKind::Heur1,
        TunerKind::Heur2,
        TunerKind::History,
        TunerKind::Heuristic,
        TunerKind::Bandit,
    ];

    /// Report name (`default`, `cd-tuner`, `cs-tuner`, `nm-tuner`, `heur1`,
    /// `heur2`, `history`, `heuristic`, `bandit`).
    pub fn name(self) -> &'static str {
        match self {
            TunerKind::Default => "default",
            TunerKind::Cd => "cd-tuner",
            TunerKind::Cs => "cs-tuner",
            TunerKind::Nm => "nm-tuner",
            TunerKind::Heur1 => "heur1",
            TunerKind::Heur2 => "heur2",
            TunerKind::History => "history",
            TunerKind::Heuristic => "heuristic",
            TunerKind::Bandit => "bandit",
        }
    }

    /// Build a tuner with the paper's hyper-parameters: tolerance `ε = 5 %`,
    /// compass step `λ = 8`, Nelder–Mead `(R, E, C, S) = (1, 2, 0.5, 0.5)`.
    ///
    /// `x0` is the starting point (the Globus default, in the figures).
    pub fn build(self, domain: Domain, x0: Point) -> Box<dyn OnlineTuner + Send> {
        const EPS: f64 = 5.0;
        const LAMBDA: f64 = 8.0;
        match self {
            TunerKind::Default => Box::new(StaticTuner::new(domain, x0)),
            TunerKind::Cd => Box::new(CdTuner::new(domain, x0, EPS)),
            TunerKind::Cs => Box::new(CompassTuner::new(domain, x0, LAMBDA, EPS)),
            TunerKind::Nm => Box::new(NelderMeadTuner::new(domain, x0, EPS)),
            TunerKind::Heur1 => Box::new(Heur1Tuner::new(domain, x0, EPS)),
            TunerKind::Heur2 => Box::new(Heur2Tuner::new(domain, x0, EPS)),
            TunerKind::History => Box::new(HistoryTuner::new(domain, x0, EPS)),
            TunerKind::Heuristic => Box::new(HeuristicTuner::new(domain, x0, EPS)),
            TunerKind::Bandit => Box::new(BanditTuner::new(domain, x0, EPS)),
        }
    }

    /// [`TunerKind::build`] from a [`WarmStart`] seed: the point is clamped
    /// into `domain` (a historical optimum may lie outside a narrower
    /// per-job domain) before construction.
    pub fn build_seeded(self, domain: Domain, seed: &WarmStart) -> Box<dyn OnlineTuner + Send> {
        let x0 = domain.clamp(&seed.x0);
        self.build(domain, x0)
    }
}

impl std::str::FromStr for TunerKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "default" => Ok(TunerKind::Default),
            "cd" | "cd-tuner" => Ok(TunerKind::Cd),
            "cs" | "cs-tuner" | "compass" => Ok(TunerKind::Cs),
            "nm" | "nm-tuner" | "nelder-mead" => Ok(TunerKind::Nm),
            "heur1" => Ok(TunerKind::Heur1),
            "heur2" => Ok(TunerKind::Heur2),
            "history" | "history-tuner" | "surrogate" => Ok(TunerKind::History),
            "heuristic" => Ok(TunerKind::Heuristic),
            "bandit" | "ucb" => Ok(TunerKind::Bandit),
            other => Err(format!("unknown tuner kind: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_kind() {
        for kind in TunerKind::ALL {
            let t = kind.build(Domain::paper_nc(), vec![2]);
            assert_eq!(t.name(), kind.name());
            assert_eq!(t.initial(), vec![2]);
            assert_eq!(t.domain().dim(), 1);
        }
    }

    #[test]
    fn warm_start_seed_round_trip() {
        let cold = WarmStart::cold(vec![2, 8]);
        assert!(!cold.is_warm());
        assert_eq!(cold.distance(), None);
        let warm = WarmStart::from_history(vec![48, 8], 0.25);
        assert!(warm.is_warm());
        assert_eq!(warm.distance(), Some(0.25));
    }

    #[test]
    fn build_seeded_clamps_history_point_into_domain() {
        // A historical optimum of nc=200 must be clamped into a narrower
        // per-job domain before the tuner sees it.
        let domain = Domain::new(&[(1, 16)]);
        for kind in TunerKind::ALL {
            let t = kind.build_seeded(domain.clone(), &WarmStart::from_history(vec![200], 0.1));
            assert_eq!(t.initial(), vec![16], "{}", kind.name());
            assert!(domain.contains(&t.initial()));
        }
        // An in-domain seed passes through unchanged.
        let t = TunerKind::Cs.build_seeded(domain.clone(), &WarmStart::cold(vec![5]));
        assert_eq!(t.initial(), vec![5]);
    }

    #[test]
    fn built_tuners_record_every_observation() {
        // No set-up call: a tuner from the factory audits from its first
        // observation, one event per epoch, `seq` dense from 0.
        const N: u64 = 25;
        for kind in TunerKind::ALL {
            let mut t = kind.build(Domain::paper_nc(), vec![2]);
            let mut x = t.initial();
            for i in 0..N {
                x = t.observe(&x.clone(), 1000.0 + (i % 4) as f64 * 300.0);
            }
            let Some(log) = t.audit_log() else {
                assert!(
                    matches!(
                        kind,
                        TunerKind::Default | TunerKind::Heur1 | TunerKind::Heur2
                    ),
                    "{} keeps no audit log",
                    kind.name()
                );
                continue;
            };
            let seqs: Vec<u64> = log.events().iter().map(|e| e.seq).collect();
            assert_eq!(seqs, (0..N).collect::<Vec<_>>(), "{}", kind.name());
            // The namespace is a rendering argument, on every line.
            let jsonl = log.to_jsonl(Some("job1"));
            assert_eq!(jsonl.lines().count() as u64, N, "{}", kind.name());
            assert!(
                jsonl.lines().all(|l| l.contains("\"ns\":\"job1\"")),
                "{}: {jsonl}",
                kind.name()
            );
        }
    }

    #[test]
    fn parse_round_trips() {
        for kind in TunerKind::ALL {
            let parsed: TunerKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("bogus".parse::<TunerKind>().is_err());
    }

    #[test]
    fn every_tuner_stays_in_domain_under_fixed_adversarial_feedback() {
        // Feed adversarial throughput sequences and check domain safety.
        let feedbacks = [
            vec![0.0; 40],
            (0..40).map(|i| i as f64 * 100.0).collect::<Vec<_>>(),
            (0..40).map(|i| 4000.0 - i as f64 * 100.0).collect(),
            (0..40)
                .map(|i| if i % 2 == 0 { 100.0 } else { 3000.0 })
                .collect(),
        ];
        for kind in TunerKind::ALL {
            for fb in &feedbacks {
                let domain = Domain::paper_nc_np();
                let mut t = kind.build(domain.clone(), vec![2, 8]);
                let mut x = t.initial();
                assert!(
                    domain.contains(&x),
                    "{}: initial out of domain",
                    kind.name()
                );
                for &f in fb {
                    x = t.observe(&x.clone(), f);
                    assert!(
                        domain.contains(&x),
                        "{}: proposed {:?} outside domain",
                        kind.name(),
                        x
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_domain_and_start() -> impl Strategy<Value = (Domain, Point)> {
        (1usize..=3).prop_flat_map(|dim| {
            let bounds = prop::collection::vec((1i64..8, 8i64..300), dim..=dim);
            bounds.prop_flat_map(|b| {
                let domain = Domain::new(&b.iter().map(|&(lo, hi)| (lo, hi)).collect::<Vec<_>>());
                let start: Vec<BoxedStrategy<i64>> =
                    b.iter().map(|&(lo, hi)| (lo..=hi).boxed()).collect();
                (Just(domain), start)
            })
        })
    }

    proptest! {
        /// Whatever throughput sequence the world produces — including
        /// negatives, zeros, NaN-free extremes — every tuner's proposals
        /// stay inside the domain and never panic.
        #[test]
        fn fuzz_every_tuner_domain_safety(
            (domain, x0) in arb_domain_and_start(),
            feedback in prop::collection::vec(-1e6f64..1e7, 1..60),
            kind_idx in 0usize..TunerKind::ALL.len(),
        ) {
            let kind = TunerKind::ALL[kind_idx];
            let mut tuner = kind.build(domain.clone(), x0);
            let mut x = tuner.initial();
            prop_assert!(domain.contains(&x), "{}: initial {:?}", kind.name(), x);
            for &f in &feedback {
                x = tuner.observe(&x.clone(), f);
                prop_assert!(
                    domain.contains(&x),
                    "{}: proposed {:?} outside {:?}..{:?}",
                    kind.name(), x, domain.lo(), domain.hi()
                );
            }
        }

        /// On a deterministic concave objective every adaptive tuner ends at
        /// least as good as its starting point (no self-sabotage).
        #[test]
        fn fuzz_no_tuner_ends_worse_than_start(
            peak in 5i64..250,
            start in 1i64..250,
            kind_idx in 0usize..TunerKind::ALL.len(),
        ) {
            let kind = TunerKind::ALL[kind_idx];
            let domain = Domain::new(&[(1, 256)]);
            let f = |x: &Point| 4000.0 - ((x[0] - peak) as f64).powi(2) * 0.5;
            let mut tuner = kind.build(domain, vec![start]);
            let mut x = tuner.initial();
            let mut best_seen = f64::NEG_INFINITY;
            for _ in 0..80 {
                let fx = f(&x);
                best_seen = best_seen.max(fx);
                x = tuner.observe(&x.clone(), fx);
            }
            // The best point visited must not be worse than the start value
            // (any sane strategy at least keeps what it began with).
            prop_assert!(best_seen >= f(&vec![start]) - 1e-9,
                "{}: best {} < start {}", kind.name(), best_seen, f(&vec![start]));
        }

        /// Seeded stochastic feedback — a noisy concave objective with
        /// occasional fault-style throughput holes (zeros), the exact signal
        /// shape a tuner sees when the world runs under a fault plan. The
        /// direct-search tuners (compass, Nelder–Mead) must keep every
        /// proposal inside the domain for any root seed.
        #[test]
        fn fuzz_direct_search_in_domain_under_seeded_noise(
            seed in 0u64..u64::MAX,
            peak in 5i64..250,
            (domain, x0) in arb_domain_and_start(),
        ) {
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            for kind in [TunerKind::Cs, TunerKind::Nm] {
                let mut tuner = kind.build(domain.clone(), x0.clone());
                let mut x = tuner.initial();
                prop_assert!(domain.contains(&x), "{}: initial {:?}", kind.name(), x);
                for _ in 0..60 {
                    // Concave base signal + multiplicative noise; ~10% of
                    // epochs are a zero-throughput hole (abort/backoff).
                    let base = (4000.0 - ((x[0] - peak) as f64).powi(2) * 0.5).max(0.0);
                    let f = if rng.gen_bool(0.1) {
                        0.0
                    } else {
                        base * rng.gen_range(0.5..1.5)
                    };
                    x = tuner.observe(&x.clone(), f);
                    prop_assert!(
                        domain.contains(&x),
                        "{} (seed {seed}): proposed {:?} outside {:?}..{:?}",
                        kind.name(), x, domain.lo(), domain.hi()
                    );
                }
            }
        }

        /// The tournament additions (history, heuristic, bandit) under the
        /// same regime the fleet imposes: a *reservation-restricted* domain
        /// (the admission controller narrows `nc_hi` to the granted stream
        /// budget) and a seeded fault tape of zero-throughput holes. Every
        /// proposal must stay inside the restricted domain; the history
        /// tuner must additionally survive arbitrary stored samples, which
        /// may lie far outside the narrowed bounds.
        #[test]
        fn fuzz_new_tuner_kinds_respect_restricted_domains(
            seed in 0u64..u64::MAX,
            peak in 5i64..250,
            (domain, x0) in arb_domain_and_start(),
            samples in prop::collection::vec(
                (prop::collection::vec(1i64..2000, 1..4), -10.0f64..5000.0),
                0..12,
            ),
        ) {
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            for kind in [TunerKind::History, TunerKind::Heuristic, TunerKind::Bandit] {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut tuner: Box<dyn OnlineTuner + Send> =
                    if kind == TunerKind::History {
                        // Exercise the surrogate path: random stored samples
                        // of random dimension (wrong-dim ones are dropped,
                        // out-of-domain ones clamped).
                        Box::new(
                            HistoryTuner::new(domain.clone(), x0.clone(), 5.0)
                                .with_samples(&samples),
                        )
                    } else {
                        kind.build(domain.clone(), x0.clone())
                    };
                let mut x = tuner.initial();
                prop_assert!(domain.contains(&x), "{}: initial {:?}", kind.name(), x);
                for _ in 0..60 {
                    let base = (4000.0 - ((x[0] - peak) as f64).powi(2) * 0.5).max(0.0);
                    let f = if rng.gen_bool(0.15) {
                        0.0
                    } else {
                        base * rng.gen_range(0.5..1.5)
                    };
                    x = tuner.observe(&x.clone(), f);
                    prop_assert!(
                        domain.contains(&x),
                        "{} (seed {seed}): proposed {:?} outside {:?}..{:?}",
                        kind.name(), x, domain.lo(), domain.hi()
                    );
                }
            }
        }
    }
}
