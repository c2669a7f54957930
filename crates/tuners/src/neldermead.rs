//! Algorithm 3: the Nelder–Mead simplex tuner (`nm-tuner`).
//!
//! Nelder–Mead navigates an `m`-dimensional search space with a simplex of
//! `m+1` vertices, replacing the worst vertex each iteration via reflection,
//! expansion, contraction, or — when all else fails — shrinking the whole
//! simplex toward the best vertex. The paper uses the customary coefficients
//! `(R, E, C, S) = (1, 2, 0.5, 0.5)` and forces every generated vertex
//! through `fBnd` so the simplex only ever visits bounded integer points,
//! which also makes it degenerate (all vertices equal) in finite time.
//!
//! Like `cs-tuner`, the online wrapper holds the best vertex after the
//! simplex degenerates and re-invokes the search when consecutive epoch
//! throughputs differ by more than `ε%`.

use crate::audit::{AuditLog, DecisionAction, DecisionEvent, RetriggerCause};
use crate::domain::{Domain, Point};
use crate::trigger::SignificanceMonitor;
use crate::tuner::OnlineTuner;

/// Reflection coefficient (paper: 1).
pub const R_COEFF: f64 = 1.0;
/// Expansion coefficient (paper: 2).
pub const E_COEFF: f64 = 2.0;
/// Contraction coefficient (paper: 0.5).
pub const C_COEFF: f64 = 0.5;
/// Shrink coefficient (paper: 0.5).
pub const S_COEFF: f64 = 0.5;

/// Initial-simplex edge length (matches the compass λ = 8 scale).
const DEFAULT_INIT_EDGE: i64 = 8;

/// Cap on evaluations within one simplex search, per dimension, so integer
/// rounding pathologies cannot stall the transfer in search mode forever.
const MAX_EVALS_PER_DIM: u32 = 60;

#[derive(Debug, Clone)]
enum Phase {
    /// Evaluating initial vertices; `next` is the index being evaluated.
    Init { next: usize },
    /// Waiting for the reflection point's throughput.
    Reflect { xr: Point },
    /// Waiting for the expansion point's throughput.
    Expand { xr: Point, fr: f64, xe: Point },
    /// Waiting for the contraction point's throughput.
    Contract { xc: Point },
    /// Re-evaluating shrunk vertices; `next` is the vertex index.
    Shrink { next: usize },
    /// Simplex degenerated; holding the best point and monitoring.
    Monitor,
}

/// The Nelder–Mead tuner of Algorithm 3.
///
/// # Examples
///
/// ```
/// use xferopt_tuners::{offline::maximize, Domain, NelderMeadTuner};
///
/// let mut tuner = NelderMeadTuner::new(Domain::new(&[(1, 128), (1, 32)]), vec![2, 8], 5.0);
/// let r = maximize(&mut tuner, 300, |x| {
///     -((x[0] - 40) as f64).powi(2) - ((x[1] - 6) as f64).powi(2)
/// });
/// assert!((r.best[0] - 40).abs() <= 8 && (r.best[1] - 6).abs() <= 6);
/// ```
#[derive(Debug, Clone)]
pub struct NelderMeadTuner {
    domain: Domain,
    x0: Point,
    /// Vertices and their observed throughputs (NaN = not yet evaluated).
    vertices: Vec<(Point, f64)>,
    phase: Phase,
    monitor: SignificanceMonitor,
    evals_this_search: u32,
    searches_started: u64,
    /// Whether the most recent `fBnd` pass projected the generated point off
    /// its nominal (rounded) target. Reset at the top of every `observe`.
    last_projected: bool,
    /// Decision audit log (purely observational).
    audit: AuditLog,
}

impl NelderMeadTuner {
    /// An nm-tuner starting at `x0` with tolerance `eps_pct` (paper: 5).
    ///
    /// # Panics
    /// Panics if `x0` is outside `domain`.
    pub fn new(domain: Domain, x0: Point, eps_pct: f64) -> Self {
        assert!(domain.contains(&x0), "x0 {x0:?} outside domain");
        let mut t = NelderMeadTuner {
            domain,
            x0: x0.clone(),
            vertices: Vec::new(),
            phase: Phase::Monitor,
            monitor: SignificanceMonitor::new(eps_pct),
            evals_this_search: 0,
            searches_started: 0,
            last_projected: false,
            audit: AuditLog::new(),
        };
        t.start_search(x0);
        t
    }

    /// Number of search invocations so far (1 initial + re-triggers).
    pub fn searches_started(&self) -> u64 {
        self.searches_started
    }

    /// Current best vertex.
    pub fn best(&self) -> &Point {
        &self.vertices[0].0
    }

    /// Build the initial simplex around `from` and enter the Init phase.
    fn start_search(&mut self, from: Point) {
        let m = self.domain.dim();
        let mut vertices = vec![(from.clone(), f64::NAN)];
        for axis in 0..m {
            let mut v: Vec<f64> = from.iter().map(|&c| c as f64).collect();
            v[axis] += DEFAULT_INIT_EDGE as f64;
            let mut p = self.domain.fbnd(&v);
            if p == from {
                // Offset clipped at the bound; go the other way.
                v[axis] -= 2.0 * DEFAULT_INIT_EDGE as f64;
                p = self.domain.fbnd(&v);
            }
            vertices.push((p, f64::NAN));
        }
        self.vertices = vertices;
        self.phase = Phase::Init { next: 0 };
        self.monitor.reset();
        self.evals_this_search = 0;
        self.searches_started += 1;
    }

    /// Sort vertices best-first (descending throughput — we maximize).
    fn order(&mut self) {
        self.vertices
            .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    }

    /// Centroid of all vertices except the worst.
    fn centroid(&self) -> Vec<f64> {
        let m = self.domain.dim();
        let mut c = vec![0.0; m];
        for (p, _) in &self.vertices[..self.vertices.len() - 1] {
            for (ci, &pi) in c.iter_mut().zip(p) {
                *ci += pi as f64;
            }
        }
        for ci in &mut c {
            *ci /= (self.vertices.len() - 1) as f64;
        }
        c
    }

    /// True when every vertex is the same integer point.
    fn degenerate(&self) -> bool {
        self.vertices.windows(2).all(|w| w[0].0 == w[1].0)
    }

    fn combine(&mut self, centroid: &[f64], toward: &Point, coeff: f64) -> Point {
        let v: Vec<f64> = centroid
            .iter()
            .zip(toward)
            .map(|(&c, &t)| c + coeff * (t as f64 - c))
            .collect();
        let p = self.domain.fbnd(&v);
        let raw: Point = v.iter().map(|&c| c.round() as i64).collect();
        self.last_projected = p != raw;
        p
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
            tuner: "nm-tuner",
            x: x.clone(),
            observed,
            action,
            accepted,
            next: next.clone(),
            lambda: None,
            delta_pct,
            projected: self.last_projected,
            retrigger,
        });
    }

    /// Enter Monitor with the best vertex held.
    fn finish_search(&mut self) -> Point {
        self.order();
        // Holding an existing vertex is never an fBnd projection.
        self.last_projected = false;
        self.phase = Phase::Monitor;
        self.monitor.reset();
        let f_best = self.vertices[0].1;
        if f_best.is_finite() {
            self.monitor.observe(f_best);
        }
        self.vertices[0].0.clone()
    }

    /// Kick off the next NM iteration (order, reflect) or finish when the
    /// simplex has degenerated or the evaluation budget is spent. Returns the
    /// next point to evaluate.
    fn next_iteration(&mut self) -> Point {
        self.order();
        let budget = MAX_EVALS_PER_DIM * self.domain.dim() as u32;
        if self.degenerate() || self.evals_this_search >= budget {
            return self.finish_search();
        }
        // Step 2, Reflect: x_r = x̄ + R(x̄ − x_worst).
        let centroid = self.centroid();
        let worst = self.vertices.last().unwrap().0.clone();
        let xr = self.combine(&centroid, &worst, -R_COEFF);
        if xr == worst && self.vertices.len() == 2 {
            // 1-D pathologies: reflection can be projected back to the worst
            // vertex at a bound — contract instead of re-evaluating it.
            let xc = self.combine(&centroid, &worst, C_COEFF);
            if xc == worst || xc == self.vertices[0].0 {
                return self.finish_search();
            }
            self.phase = Phase::Contract { xc: xc.clone() };
            return xc;
        }
        self.phase = Phase::Reflect { xr: xr.clone() };
        xr
    }

    /// The audited action for the epoch just decided: `Converged` when the
    /// decision finished the search (the phase fell into `Monitor` via
    /// [`Self::finish_search`]), otherwise the phase-specific `action`.
    fn phase_action(&self, action: DecisionAction) -> DecisionAction {
        if matches!(self.phase, Phase::Monitor) {
            DecisionAction::Converged
        } else {
            action
        }
    }

    fn replace_worst(&mut self, p: Point, f: f64) {
        let last = self.vertices.len() - 1;
        self.vertices[last] = (p, f);
    }
}

impl OnlineTuner for NelderMeadTuner {
    fn name(&self) -> &'static str {
        "nm-tuner"
    }

    fn domain(&self) -> &Domain {
        &self.domain
    }

    fn initial(&self) -> Point {
        self.vertices
            .first()
            .map(|v| v.0.clone())
            .unwrap_or_else(|| self.x0.clone())
    }

    fn observe(&mut self, x: &Point, throughput: f64) -> Point {
        self.evals_this_search = self.evals_this_search.saturating_add(1);
        self.last_projected = false;
        match std::mem::replace(&mut self.phase, Phase::Monitor) {
            Phase::Init { next } => {
                debug_assert_eq!(x, &self.vertices[next].0, "init vertex mismatch");
                self.vertices[next].1 = throughput;
                let nxt = if next + 1 < self.vertices.len() {
                    self.phase = Phase::Init { next: next + 1 };
                    self.vertices[next + 1].0.clone()
                } else {
                    self.next_iteration()
                };
                let action = self.phase_action(DecisionAction::InitVertex);
                self.record(x, throughput, action, None, &nxt, None, None);
                nxt
            }
            Phase::Reflect { xr } => {
                debug_assert_eq!(x, &xr, "reflect point mismatch");
                let fr = throughput;
                let f_best = self.vertices[0].1;
                let f_worst = self.vertices.last().unwrap().1;
                let (nxt, accepted) = if fr > f_best {
                    // Step 3, Expand: x_e = x̄ + E(x_r − x̄).
                    let centroid = self.centroid();
                    let xe = self.combine(&centroid, &xr, E_COEFF);
                    if xe == xr {
                        // Projection collapsed the expansion: accept reflect.
                        self.replace_worst(xr, fr);
                        (self.next_iteration(), true)
                    } else {
                        self.phase = Phase::Expand {
                            xr: xr.clone(),
                            fr,
                            xe: xe.clone(),
                        };
                        (xe, true)
                    }
                } else if fr > f_worst {
                    // Accept the reflection (paper: f_0 ≥ f_r > f_m).
                    self.replace_worst(xr, fr);
                    (self.next_iteration(), true)
                } else {
                    // Step 4, Contract toward the better of x_r and x_worst.
                    let centroid = self.centroid();
                    let worst = self.vertices.last().unwrap().clone();
                    let toward = if fr >= worst.1 {
                        xr.clone()
                    } else {
                        worst.0.clone()
                    };
                    let xc = self.combine(&centroid, &toward, C_COEFF);
                    self.phase = Phase::Contract { xc: xc.clone() };
                    (xc, false)
                };
                let action = self.phase_action(DecisionAction::Reflect);
                self.record(x, throughput, action, Some(accepted), &nxt, None, None);
                nxt
            }
            Phase::Expand { xr, fr, xe } => {
                debug_assert_eq!(x, &xe, "expand point mismatch");
                let fe = throughput;
                let accepted = fe >= fr;
                if accepted {
                    self.replace_worst(xe, fe);
                } else {
                    self.replace_worst(xr, fr);
                }
                let nxt = self.next_iteration();
                let action = self.phase_action(DecisionAction::Expand);
                self.record(x, throughput, action, Some(accepted), &nxt, None, None);
                nxt
            }
            Phase::Contract { xc } => {
                debug_assert_eq!(x, &xc, "contract point mismatch");
                let fc = throughput;
                let f_worst = self.vertices.last().unwrap().1;
                let (nxt, accepted) = if fc >= f_worst {
                    self.replace_worst(xc, fc);
                    (self.next_iteration(), true)
                } else {
                    // Step 5, Shrink every vertex toward the best:
                    // x_j = x_0 + S(x_j − x_0).
                    let best = self.vertices[0].0.clone();
                    for j in 1..self.vertices.len() {
                        let v: Vec<f64> = best
                            .iter()
                            .zip(&self.vertices[j].0)
                            .map(|(&b, &p)| b as f64 + S_COEFF * (p as f64 - b as f64))
                            .collect();
                        let p = self.domain.fbnd(&v);
                        if j == 1 {
                            // The next proposal is vertex 1; note its fBnd
                            // projection for the audit record.
                            let raw: Point = v.iter().map(|&c| c.round() as i64).collect();
                            self.last_projected = p != raw;
                        }
                        self.vertices[j] = (p, f64::NAN);
                    }
                    if self.degenerate() {
                        // Shrinking collapsed the simplex outright.
                        (self.finish_search(), false)
                    } else {
                        self.phase = Phase::Shrink { next: 1 };
                        (self.vertices[1].0.clone(), false)
                    }
                };
                let action = self.phase_action(DecisionAction::Contract);
                self.record(x, throughput, action, Some(accepted), &nxt, None, None);
                nxt
            }
            Phase::Shrink { next } => {
                debug_assert_eq!(x, &self.vertices[next].0, "shrink vertex mismatch");
                self.vertices[next].1 = throughput;
                let nxt = if next + 1 < self.vertices.len() {
                    self.phase = Phase::Shrink { next: next + 1 };
                    self.vertices[next + 1].0.clone()
                } else {
                    self.next_iteration()
                };
                let action = self.phase_action(DecisionAction::Shrink);
                self.record(x, throughput, action, None, &nxt, None, None);
                nxt
            }
            Phase::Monitor => {
                let shift = self.monitor.observe(throughput);
                if shift.retrigger.is_some() {
                    // Significant change: re-run Nelder–Mead from the held
                    // point (Algorithm 3 line 37).
                    self.start_search(self.vertices[0].0.clone());
                }
                let nxt = self.vertices[0].0.clone();
                self.record(
                    x,
                    throughput,
                    shift.action(),
                    None,
                    &nxt,
                    shift.delta_pct,
                    shift.retrigger,
                );
                nxt
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

    fn drive<F: FnMut(&Point) -> f64>(
        tuner: &mut dyn OnlineTuner,
        epochs: usize,
        mut f: F,
    ) -> Vec<Point> {
        let mut x = tuner.initial();
        let mut traj = vec![x.clone()];
        for _ in 0..epochs {
            let fx = f(&x);
            x = tuner.observe(&x.clone(), fx);
            traj.push(x.clone());
        }
        traj
    }

    fn concave_1d(peak: i64) -> impl FnMut(&Point) -> f64 {
        move |x: &Point| 4000.0 - ((x[0] - peak) as f64).powi(2) * 2.0
    }

    #[test]
    fn finds_1d_peak() {
        let mut t = NelderMeadTuner::new(Domain::paper_nc(), vec![2], 5.0);
        let traj = drive(&mut t, 60, concave_1d(40));
        let last = traj.last().unwrap();
        assert!(
            (last[0] - 40).abs() <= 6,
            "nm should end near 40: {last:?} (traj {traj:?})"
        );
    }

    #[test]
    fn expansion_accelerates_toward_distant_peak() {
        // Paper: nm-tuner "can rapidly move to the critical point using
        // reflection and expansion".
        let mut t = NelderMeadTuner::new(Domain::paper_nc(), vec![2], 5.0);
        let traj = drive(&mut t, 20, concave_1d(100));
        let best = traj.iter().map(|p| p[0]).max().unwrap();
        assert!(
            best >= 50,
            "expansion should cover ground fast; best in 20 epochs = {best}"
        );
    }

    #[test]
    fn converges_and_holds_on_quiet_objective() {
        let mut t = NelderMeadTuner::new(Domain::paper_nc(), vec![2], 5.0);
        let traj = drive(&mut t, 80, concave_1d(20));
        let tail = &traj[60..];
        assert!(
            tail.windows(2).all(|w| w[0] == w[1]),
            "simplex must degenerate and hold: {tail:?}"
        );
        assert_eq!(t.searches_started(), 1);
    }

    #[test]
    fn retriggers_on_environment_change() {
        let mut t = NelderMeadTuner::new(Domain::paper_nc(), vec![2], 5.0);
        let mut x = t.initial();
        for epoch in 0..160 {
            let peak = if epoch < 70 { 12 } else { 70 };
            let fx = 4000.0 - ((x[0] - peak) as f64).powi(2) * 2.0;
            x = t.observe(&x.clone(), fx);
        }
        assert!(t.searches_started() >= 2);
        assert!(
            (x[0] - 70).abs() <= 12,
            "should track the moved peak: ended at {x:?}"
        );
    }

    #[test]
    fn two_dim_finds_joint_peak() {
        let f = |x: &Point| {
            4000.0 - ((x[0] - 30) as f64).powi(2) * 3.0 - ((x[1] - 10) as f64).powi(2) * 30.0
        };
        let mut t = NelderMeadTuner::new(Domain::paper_nc_np(), vec![2, 8], 5.0);
        let traj = drive(&mut t, 120, f);
        let last = traj.last().unwrap();
        assert!(
            (last[0] - 30).abs() <= 8 && (last[1] - 10).abs() <= 5,
            "2-D nm should end near (30, 10): {last:?}"
        );
    }

    #[test]
    fn all_points_stay_in_domain() {
        let domain = Domain::new(&[(1, 16), (1, 4)]);
        let mut t = NelderMeadTuner::new(domain.clone(), vec![15, 3], 5.0);
        let traj = drive(&mut t, 60, |x| (x[0] * x[1]) as f64);
        for p in &traj {
            assert!(domain.contains(p), "out-of-domain vertex {p:?}");
        }
    }

    #[test]
    fn search_terminates_within_budget() {
        // A noisy objective that never looks flat: the evaluation budget must
        // still force the search to finish (monitor phase reached).
        let mut t = NelderMeadTuner::new(Domain::paper_nc(), vec![2], 5.0);
        let mut x = t.initial();
        let mut k = 0u64;
        for _ in 0..200 {
            // Deterministic pseudo-noise.
            k = k
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (k >> 33) as f64 / 2e9;
            x = t.observe(&x.clone(), 1000.0 + noise * 2000.0);
        }
        // If the search were still running the phase would keep proposing new
        // points; after budget exhaustion + monitor, re-triggers restart
        // searches but each one is bounded. Just assert we are alive and in
        // domain — the real check is that this test terminates.
        assert!(t.domain().contains(&x));
    }

    #[test]
    fn starting_at_bound_builds_inward_simplex() {
        let domain = Domain::new(&[(1, 64)]);
        let mut t = NelderMeadTuner::new(domain, vec![64], 5.0);
        let traj = drive(&mut t, 10, concave_1d(64));
        // The second vertex must have gone inward (64-8=56), not clipped onto 64.
        assert!(
            traj.iter().any(|p| p[0] == 56),
            "inward initial vertex expected: {traj:?}"
        );
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn rejects_bad_start() {
        NelderMeadTuner::new(Domain::paper_nc(), vec![600], 5.0);
    }
}
