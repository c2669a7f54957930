//! History-surrogate tuner (`history`): offline knowledge, online refinement.
//!
//! Following the two-phase design of Nine et al. (arXiv:1707.09455), the
//! [`HistoryTuner`] first mines previously *stored* observations — `(point,
//! throughput)` pairs harvested from earlier transfers in the same context —
//! into a cheap surrogate model, jumps straight to the surrogate's predicted
//! optimum, and then refines that prediction with **adaptive sampling**: a
//! shrinking compass pattern around the incumbent, exactly the real-time
//! half of the paper's offline-analysis + online-probing loop.
//!
//! The surrogate is deliberately simple and fully deterministic:
//!
//! 1. **Cluster**: samples at the same integer point are averaged (one
//!    centroid per distinct point), and the centroids are sorted
//!    lexicographically so iteration order never depends on insertion order.
//! 2. **Interpolate**: inverse-squared-distance weighting in `ln(1+x)`
//!    space — throughput curves are near-linear in the log of the stream
//!    counts, so log-space distances weight neighbours sensibly across the
//!    decades of a `[1, 512]` domain.
//! 3. **Predict**: the surrogate is evaluated over a power-of-two ladder per
//!    dimension plus every centroid; the argmax (lexicographically smallest
//!    on ties) is the jump target.
//!
//! With no stored samples the tuner degrades gracefully into plain adaptive
//! sampling from the start point, so the cold variant is still a working
//! (if unremarkable) direct-search tuner.

use crate::audit::{AuditLog, DecisionAction, DecisionEvent, RetriggerCause};
use crate::domain::{Domain, Point};
use crate::trigger::SignificanceMonitor;
use crate::tuner::OnlineTuner;

/// Divisor of the largest domain span for the cold-start sampling step.
const COLD_STEP_DIV: i64 = 8;
/// Divisor of the largest domain span for the post-retrigger sampling step.
const RETRIGGER_STEP_DIV: i64 = 16;

/// Lifecycle of the surrogate-then-refine loop.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Waiting for the first observation (at the caller's start point).
    Init,
    /// Waiting for the measurement at the surrogate's predicted optimum.
    Jump,
    /// Adaptive compass sampling around the incumbent.
    Sampling,
    /// Converged: holding the incumbent under the ε% monitor.
    Hold,
}

/// The history-surrogate tuner.
///
/// # Examples
///
/// ```
/// use xferopt_tuners::{Domain, HistoryTuner, OnlineTuner};
///
/// // Three stored runs say nc≈32 was best on this context.
/// let samples = vec![
///     (vec![2], 400.0),
///     (vec![32], 2500.0),
///     (vec![256], 900.0),
/// ];
/// let mut tuner =
///     HistoryTuner::new(Domain::paper_nc(), vec![2], 5.0).with_samples(&samples);
/// let x = tuner.initial();
/// assert_eq!(x, vec![2], "initial() is always the caller's start point");
/// let jump = tuner.observe(&x, 400.0);
/// assert_eq!(jump, vec![32], "first decision jumps to the predicted optimum");
/// ```
#[derive(Debug, Clone)]
pub struct HistoryTuner {
    domain: Domain,
    x0: Point,
    /// Clustered `(point, mean throughput)` centroids, lexicographic order.
    samples: Vec<(Point, f64)>,
    phase: Phase,
    /// Incumbent point and its measured throughput.
    center: Point,
    f_center: f64,
    /// Surrogate argmax (None when no samples were stored).
    predicted: Option<Point>,
    /// Current compass step and position within the probe round.
    step: f64,
    dir_idx: usize,
    /// Probe awaiting its measurement.
    pending: Option<Point>,
    monitor: SignificanceMonitor,
    audit: AuditLog,
}

impl HistoryTuner {
    /// A cold history tuner over `domain` starting at `x0` with monitor
    /// tolerance `eps_pct` (the paper uses 5). Attach stored observations
    /// with [`with_samples`](Self::with_samples).
    ///
    /// # Panics
    /// Panics if `x0` is outside `domain` or `eps_pct` is negative or not
    /// finite.
    pub fn new(domain: Domain, x0: Point, eps_pct: f64) -> Self {
        assert!(domain.contains(&x0), "x0 {x0:?} outside domain");
        HistoryTuner {
            center: x0.clone(),
            x0,
            samples: Vec::new(),
            phase: Phase::Init,
            f_center: f64::NEG_INFINITY,
            predicted: None,
            step: Self::initial_step(&domain, COLD_STEP_DIV),
            dir_idx: 0,
            pending: None,
            monitor: SignificanceMonitor::new(eps_pct),
            domain,
            audit: AuditLog::new(),
        }
    }

    /// Attach stored `(point, throughput)` observations. Points are clamped
    /// into the domain, clustered (same point → mean throughput), sorted,
    /// and the surrogate's predicted optimum is computed eagerly. Negative
    /// and non-finite throughputs are dropped.
    #[must_use]
    pub fn with_samples(mut self, samples: &[(Point, f64)]) -> Self {
        let mut cleaned: Vec<(Point, f64)> = samples
            .iter()
            .filter(|(p, v)| p.len() == self.domain.dim() && v.is_finite() && *v >= 0.0)
            .map(|(p, v)| (self.domain.clamp(p), *v))
            .collect();
        cleaned.sort_by(|a, b| a.0.cmp(&b.0));
        // Cluster: one centroid per distinct point, mean throughput.
        let mut clustered: Vec<(Point, f64)> = Vec::new();
        let mut i = 0;
        while i < cleaned.len() {
            let p = cleaned[i].0.clone();
            let mut sum = 0.0;
            let mut n = 0usize;
            while i < cleaned.len() && cleaned[i].0 == p {
                sum += cleaned[i].1;
                n += 1;
                i += 1;
            }
            clustered.push((p, sum / n as f64));
        }
        self.samples = clustered;
        self.predicted = self.predict_optimum();
        self
    }

    /// Number of clustered history centroids backing the surrogate.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// The surrogate's predicted optimum, if any history was attached.
    pub fn predicted_optimum(&self) -> Option<&Point> {
        self.predicted.as_ref()
    }

    fn initial_step(domain: &Domain, div: i64) -> f64 {
        let span = domain
            .lo()
            .iter()
            .zip(domain.hi())
            .map(|(&lo, &hi)| hi - lo)
            .max()
            .unwrap_or(1);
        ((span / div).max(1)) as f64
    }

    /// Log-space inverse-squared-distance interpolation of the surrogate.
    fn surrogate(&self, p: &Point) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for (q, v) in &self.samples {
            let d2: f64 = p
                .iter()
                .zip(q)
                .map(|(&a, &b)| {
                    let la = ((1 + a.max(0)) as f64).ln();
                    let lb = ((1 + b.max(0)) as f64).ln();
                    (la - lb) * (la - lb)
                })
                .sum();
            if d2 == 0.0 {
                return *v;
            }
            let w = 1.0 / d2;
            num += w * v;
            den += w;
        }
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }

    /// Candidate grid: per-dimension power-of-two ladder (plus both bounds),
    /// crossed, plus every centroid; lexicographically sorted and deduped.
    fn candidates(&self) -> Vec<Point> {
        let mut per_dim: Vec<Vec<i64>> = Vec::with_capacity(self.domain.dim());
        for (&lo, &hi) in self.domain.lo().iter().zip(self.domain.hi()) {
            let mut vals = vec![lo, hi];
            let mut v: i64 = 1;
            while v <= hi {
                if v > lo {
                    vals.push(v);
                }
                v *= 2;
            }
            vals.sort_unstable();
            vals.dedup();
            per_dim.push(vals);
        }
        let mut grid: Vec<Point> = vec![Vec::new()];
        for vals in &per_dim {
            let mut next = Vec::with_capacity(grid.len() * vals.len());
            for stem in &grid {
                for &v in vals {
                    let mut p = stem.clone();
                    p.push(v);
                    next.push(p);
                }
            }
            grid = next;
        }
        grid.extend(self.samples.iter().map(|(p, _)| p.clone()));
        grid.sort();
        grid.dedup();
        grid
    }

    /// Argmax of the surrogate over the candidate grid; lexicographically
    /// smallest candidate wins ties, so prediction is fully deterministic.
    fn predict_optimum(&self) -> Option<Point> {
        if self.samples.is_empty() {
            return None;
        }
        let mut best: Option<(Point, f64)> = None;
        for cand in self.candidates() {
            let v = self.surrogate(&cand);
            match &best {
                Some((_, bv)) if v <= *bv => {}
                _ => best = Some((cand, v)),
            }
        }
        best.map(|(p, _)| p)
    }

    /// The next compass probe around the incumbent, halving the step after
    /// each full round without improvement. `None` once the step shrinks
    /// below one (converged).
    fn next_probe(&mut self) -> Option<Point> {
        let dim = self.domain.dim();
        loop {
            if self.dir_idx >= 2 * dim {
                self.dir_idx = 0;
                self.step /= 2.0;
            }
            if self.step < 1.0 {
                return None;
            }
            let axis = self.dir_idx / 2;
            let sign = if self.dir_idx.is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            self.dir_idx += 1;
            let mut raw: Vec<f64> = self.center.iter().map(|&c| c as f64).collect();
            raw[axis] += sign * self.step;
            let cand = self.domain.fbnd(&raw);
            if cand != self.center {
                return Some(cand);
            }
        }
    }

    /// Enter the hold state at the incumbent, priming the ε% monitor.
    fn converge(&mut self, x: &Point, observed: f64) -> Point {
        self.phase = Phase::Hold;
        self.pending = None;
        self.monitor.reset();
        self.monitor.observe(self.f_center.max(0.0));
        let next = self.center.clone();
        self.record(
            x,
            observed,
            DecisionAction::Converged,
            None,
            &next,
            None,
            None,
        );
        next
    }

    /// Propose the next probe or converge if the pattern is exhausted.
    fn advance(&mut self, x: &Point, observed: f64, accepted: Option<bool>) -> Point {
        match self.next_probe() {
            Some(probe) => {
                self.pending = Some(probe.clone());
                self.record(
                    x,
                    observed,
                    DecisionAction::CompassProbe,
                    accepted,
                    &probe,
                    None,
                    None,
                );
                probe
            }
            None => self.converge(x, observed),
        }
    }

    /// Record one audited decision.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        x: &Point,
        observed: f64,
        action: DecisionAction,
        accepted: Option<bool>,
        next: &Point,
        delta_pct: Option<f64>,
        retrigger: Option<RetriggerCause>,
    ) {
        self.audit.record(DecisionEvent {
            seq: 0,
            tuner: "history",
            x: x.clone(),
            observed,
            action,
            accepted,
            next: next.clone(),
            lambda: Some(self.step),
            delta_pct,
            projected: false,
            retrigger,
        });
    }
}

impl OnlineTuner for HistoryTuner {
    fn name(&self) -> &'static str {
        "history"
    }

    fn domain(&self) -> &Domain {
        &self.domain
    }

    fn initial(&self) -> Point {
        self.x0.clone()
    }

    fn observe(&mut self, x: &Point, throughput: f64) -> Point {
        match self.phase {
            Phase::Init => {
                self.center = x.clone();
                self.f_center = throughput;
                match self.predicted.clone() {
                    Some(p) if p != *x => {
                        self.phase = Phase::Jump;
                        self.record(
                            x,
                            throughput,
                            DecisionAction::EvalStart,
                            None,
                            &p,
                            None,
                            None,
                        );
                        p
                    }
                    _ => {
                        self.phase = Phase::Sampling;
                        self.advance(x, throughput, None)
                    }
                }
            }
            Phase::Jump => {
                // Keep the jump target unless it measured strictly worse.
                let accepted = throughput >= self.f_center;
                if accepted {
                    self.center = x.clone();
                    self.f_center = throughput;
                }
                self.phase = Phase::Sampling;
                self.advance(x, throughput, Some(accepted))
            }
            Phase::Sampling => {
                let accepted = throughput > self.f_center;
                if accepted {
                    self.center = x.clone();
                    self.f_center = throughput;
                    // Improvement: restart the probe round at the new center.
                    self.dir_idx = 0;
                }
                self.advance(x, throughput, Some(accepted))
            }
            Phase::Hold => {
                let shift = self.monitor.observe(throughput);
                let next = if shift.retrigger.is_none() {
                    self.center.clone()
                } else {
                    // Re-sample around the incumbent with a fresh (smaller)
                    // step; conditions changed, so its value is re-anchored.
                    self.f_center = throughput;
                    self.step = Self::initial_step(&self.domain, RETRIGGER_STEP_DIV);
                    self.dir_idx = 0;
                    self.phase = Phase::Sampling;
                    let next = match self.next_probe() {
                        Some(p) => p,
                        None => {
                            // Degenerate domain: nowhere to probe.
                            self.phase = Phase::Hold;
                            self.center.clone()
                        }
                    };
                    self.pending = Some(next.clone());
                    next
                };
                self.record(
                    x,
                    throughput,
                    shift.action(),
                    None,
                    &next,
                    shift.delta_pct,
                    shift.retrigger,
                );
                next
            }
        }
    }

    fn audit_log(&self) -> Option<&AuditLog> {
        Some(&self.audit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn concave(x: &Point, peak: f64) -> f64 {
        let v = x[0] as f64;
        (3000.0 - (v - peak) * (v - peak) * 3.0).max(0.0)
    }

    #[test]
    fn surrogate_jumps_to_the_historical_optimum() {
        let samples = vec![
            (vec![1], 200.0),
            (vec![8], 1400.0),
            (vec![64], 2900.0),
            (vec![512], 700.0),
        ];
        let t = HistoryTuner::new(Domain::paper_nc(), vec![2], 5.0).with_samples(&samples);
        assert_eq!(t.predicted_optimum(), Some(&vec![64]));
    }

    #[test]
    fn clustering_averages_duplicate_points() {
        let samples = vec![(vec![16], 1000.0), (vec![16], 3000.0), (vec![4], 1500.0)];
        let t = HistoryTuner::new(Domain::paper_nc(), vec![2], 5.0).with_samples(&samples);
        assert_eq!(t.sample_count(), 2, "duplicates collapse to one centroid");
        // Mean of (1000, 3000) = 2000 beats 1500 at nc=4.
        assert_eq!(t.predicted_optimum(), Some(&vec![16]));
    }

    #[test]
    fn warm_run_converges_near_the_true_peak() {
        let peak = 48.0;
        let samples = vec![
            (vec![2], concave(&vec![2], peak)),
            (vec![32], concave(&vec![32], peak)),
            (vec![128], concave(&vec![128], peak)),
        ];
        let mut t = HistoryTuner::new(Domain::paper_nc(), vec![2], 5.0).with_samples(&samples);
        let mut x = t.initial();
        let mut best = (x.clone(), concave(&x, peak));
        for _ in 0..80 {
            let f = concave(&x, peak);
            if f > best.1 {
                best = (x.clone(), f);
            }
            x = t.observe(&x.clone(), f);
            assert!(t.domain().contains(&x));
        }
        assert!(
            (best.0[0] - peak as i64).abs() <= 2,
            "best {:?} should be near the peak {peak}",
            best.0
        );
    }

    #[test]
    fn cold_run_still_searches_and_stays_in_domain() {
        let d = Domain::new(&[(1, 64), (1, 8)]);
        let mut t = HistoryTuner::new(d.clone(), vec![2, 1], 5.0);
        assert_eq!(t.predicted_optimum(), None);
        let mut x = t.initial();
        let start = x.clone();
        let f = |p: &Point| 5000.0 - ((p[0] - 20).abs() + (p[1] - 4).abs()) as f64 * 100.0;
        let mut best = f(&start);
        for _ in 0..60 {
            let v = f(&x);
            best = best.max(v);
            x = t.observe(&x.clone(), v);
            assert!(d.contains(&x), "{x:?} escaped {d:?}");
        }
        assert!(best > f(&start), "cold sampling must improve on the start");
    }

    #[test]
    fn converges_then_holds_then_retriggers() {
        let mut t = HistoryTuner::new(Domain::new(&[(1, 16)]), vec![4], 5.0);
        let mut x = t.initial();
        // Flat objective: every probe fails, step halves to extinction.
        for _ in 0..20 {
            x = t.observe(&x.clone(), 1000.0);
        }
        assert_eq!(x, vec![4], "flat feedback converges on the start");
        let held = x.clone();
        x = t.observe(&x.clone(), 1000.0);
        assert_eq!(x, held, "quiet monitor holds");
        x = t.observe(&x.clone(), 3000.0);
        assert_ne!(x, held, "significant shift must re-trigger sampling");
        let log = t.audit_log().unwrap().to_jsonl(None);
        assert!(log.contains("\"action\":\"converged\""));
        assert!(log.contains("\"action\":\"monitor\""));
        assert!(log.contains("\"action\":\"retrigger\""));
        assert!(log.contains("\"tuner\":\"history\""));
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let samples = vec![(vec![8, 2], 900.0), (vec![32, 4], 2100.0)];
        let run = || {
            let mut t =
                HistoryTuner::new(Domain::paper_nc_np(), vec![2, 8], 5.0).with_samples(&samples);
            let mut x = t.initial();
            for i in 0..50 {
                x = t.observe(&x.clone(), ((i * 37) % 11) as f64 * 250.0);
            }
            t.audit_log().unwrap().to_jsonl(None)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn samples_outside_the_domain_are_clamped_not_dropped() {
        let t = HistoryTuner::new(Domain::new(&[(1, 32)]), vec![2], 5.0)
            .with_samples(&[(vec![4096], 9000.0), (vec![2], 100.0)]);
        assert_eq!(t.sample_count(), 2);
        assert_eq!(
            t.predicted_optimum(),
            Some(&vec![32]),
            "out-of-domain history lands on the boundary"
        );
    }

    #[test]
    fn garbage_samples_are_dropped() {
        let t = HistoryTuner::new(Domain::paper_nc(), vec![2], 5.0).with_samples(&[
            (vec![4, 4], 1000.0), // wrong dimension
            (vec![8], f64::NAN),  // non-finite
            (vec![8], -5.0),      // negative
        ]);
        assert_eq!(t.sample_count(), 0);
        assert_eq!(t.predicted_optimum(), None);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn rejects_bad_start() {
        HistoryTuner::new(Domain::paper_nc(), vec![600], 5.0);
    }
}
