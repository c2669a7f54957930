//! Direct-search throughput tuners — the paper's primary contribution.
//!
//! The paper formulates choosing the number of parallel TCP streams as a
//! model-free dynamic optimization problem and solves it **online** with
//! direct search: each control epoch (30 s by default) transfers a chunk with
//! the current parameters, observes the achieved throughput, and the tuner
//! picks the parameters for the next epoch. No analytical models, no historic
//! data, no instrumentation — only `(x, f(x))` pairs.
//!
//! Implemented tuners (all over bounded integer domains via the paper's
//! `fBnd` rounding/projection):
//!
//! * [`cd::CdTuner`] — Algorithm 1, customized coordinate descent: a
//!   sign-of-improvement ±1 rule per parameter, cycling to the next parameter
//!   once the current one stabilizes.
//! * [`compass::CompassTuner`] — Algorithm 2, compass (pattern) search:
//!   probe coordinate directions at step `λ`, halve `λ` on failure, finish
//!   when `λ < 0.5`, then monitor and re-search when throughput shifts by
//!   more than the tolerance `ε%`.
//! * [`neldermead::NelderMeadTuner`] — Algorithm 3, Nelder–Mead simplex with
//!   rounded/bounded reflect, expand, contract, and shrink, plus the same
//!   monitor/re-trigger loop.
//! * [`HistoryTuner`], [`HeuristicTuner`] and [`BanditTuner`] — the
//!   tournament's additions (a warm-start surrogate, a closed-form midpoint
//!   guess, a UCB1 bandit), each holding its answer under the same monitor.
//! * [`baselines`] — the comparison points from the paper's evaluation:
//!   the static Globus `default`, Balman's additive `heur1`, and Yildirim's
//!   exponential-increase `heur2`.
//!
//! All tuners implement [`OnlineTuner`], a pull-style state machine that is
//! agnostic to what the objective is; [`offline`] drives the same tuners
//! against a *static* black-box function, turning them into a general
//! bounded-integer direct-search library. The re-triggering tuners share
//! one ε-monitor step, [`SignificanceMonitor::observe`], and every
//! direct-search tuner records each decision in its [`AuditLog`].
//!
//! # Example: offline black-box maximization
//!
//! ```
//! use xferopt_tuners::{offline::maximize, CompassTuner, Domain};
//!
//! // Maximize a concave function of one integer variable on [1, 100].
//! let domain = Domain::new(&[(1, 100)]);
//! let mut tuner = CompassTuner::new(domain, vec![2], 8.0, 5.0);
//! let result = maximize(&mut tuner, 200, |x| {
//!     let v = x[0] as f64;
//!     -(v - 42.0) * (v - 42.0)
//! });
//! assert_eq!(result.best, vec![42]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod bandit;
pub mod baselines;
pub mod cd;
pub mod compass;
pub mod domain;
pub mod heuristic;
pub mod neldermead;
pub mod offline;
pub mod online;
pub mod regret;
pub mod surrogate;
pub mod trigger;
pub mod tuner;

pub use audit::{AuditLog, DecisionAction, DecisionEvent, RetriggerCause};
pub use bandit::BanditTuner;
pub use baselines::{Heur1Tuner, Heur2Tuner, StaticTuner};
pub use cd::CdTuner;
pub use compass::CompassTuner;
pub use domain::{Domain, Point};
pub use heuristic::HeuristicTuner;
pub use neldermead::NelderMeadTuner;
pub use online::{OnlineStep, OnlineTrajectory};
pub use regret::{summarize_regret, RegretSummary};
pub use surrogate::HistoryTuner;
pub use trigger::SignificanceMonitor;
pub use tuner::{OnlineTuner, TunerKind, WarmStart, WarmStartSource};
