//! Time-series recording for figure generation.
//!
//! Two flavours:
//!
//! * [`TimeSeries`] — point samples `(t, value)`, e.g. the throughput observed
//!   at the end of each control epoch.
//! * [`StepSeries`] — a piecewise-constant signal (value holds until the next
//!   change), e.g. the concurrency value adopted by a tuner over time. Step
//!   series support exact time-weighted integration, which is how aggregate
//!   "bytes moved" and time-averaged throughput are computed.

use crate::time::{SimDuration, SimTime};

/// Point samples over time.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Record a sample. Timestamps must be non-decreasing.
    ///
    /// # Panics
    /// Panics if `t` precedes the previous sample.
    pub fn push(&mut self, t: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(
                t >= last,
                "time series sample out of order: {last} then {t}"
            );
        }
        self.points.push((t, value));
    }

    /// All samples in order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Plain mean of the sample values (not time-weighted).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Largest sample value (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Sample values within `[from, to)`.
    pub fn values_between(&self, from: SimTime, to: SimTime) -> Vec<f64> {
        self.points
            .iter()
            .filter(|&&(t, _)| t >= from && t < to)
            .map(|&(_, v)| v)
            .collect()
    }

    /// Mean of sample values within `[from, to)`, or `None` when the window
    /// contains no samples.
    pub fn mean_between(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let v = self.values_between(from, to);
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    }

    /// Resample to a uniform grid with spacing `dt` over `[start, end]`,
    /// holding the most recent sample (zero before the first sample).
    pub fn resample_hold(
        &self,
        start: SimTime,
        end: SimTime,
        dt: SimDuration,
    ) -> Vec<(SimTime, f64)> {
        assert!(dt.is_positive(), "resample step must be positive");
        let mut out = Vec::new();
        let mut idx = 0usize;
        let mut last = 0.0;
        let mut t = start;
        while t <= end {
            while idx < self.points.len() && self.points[idx].0 <= t {
                last = self.points[idx].1;
                idx += 1;
            }
            out.push((t, last));
            t += dt;
        }
        out
    }
}

/// A piecewise-constant signal: `set(t, v)` means the signal equals `v` from
/// `t` until the next change.
#[derive(Debug, Clone, Default)]
pub struct StepSeries {
    steps: Vec<(SimTime, f64)>,
}

impl StepSeries {
    /// An empty signal (value 0 everywhere until the first `set`).
    pub fn new() -> Self {
        StepSeries { steps: Vec::new() }
    }

    /// A signal with an initial value at t = 0.
    pub fn with_initial(value: f64) -> Self {
        StepSeries {
            steps: vec![(SimTime::ZERO, value)],
        }
    }

    /// Set the signal to `value` from time `t` onward. Times must be
    /// non-decreasing; setting again at the same instant overwrites.
    ///
    /// # Panics
    /// Panics if `t` precedes the previous change.
    pub fn set(&mut self, t: SimTime, value: f64) {
        if let Some(&mut (last, ref mut v)) = self.steps.last_mut() {
            assert!(
                t >= last,
                "step series change out of order: {last} then {t}"
            );
            if last == t {
                *v = value;
                return;
            }
        }
        self.steps.push((t, value));
    }

    /// All change points in order.
    pub fn steps(&self) -> &[(SimTime, f64)] {
        &self.steps
    }

    /// The signal value at time `t` (0 before the first change).
    pub fn value_at(&self, t: SimTime) -> f64 {
        match self.steps.binary_search_by(|&(st, _)| st.cmp(&t)) {
            Ok(i) => self.steps[i].1,
            Err(0) => 0.0,
            Err(i) => self.steps[i - 1].1,
        }
    }

    /// Exact integral of the signal over `[from, to]` (value × seconds).
    pub fn integrate(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from || self.steps.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        let mut cursor = from;
        let mut value = self.value_at(from);
        // Index of the first change strictly after `from`.
        let start_idx = self.steps.partition_point(|&(st, _)| st <= from);
        for &(st, v) in &self.steps[start_idx..] {
            if st >= to {
                break;
            }
            total += value * (st - cursor).as_secs_f64();
            cursor = st;
            value = v;
        }
        total += value * (to - cursor).as_secs_f64();
        total
    }

    /// Time-weighted average over `[from, to]`.
    pub fn time_average(&self, from: SimTime, to: SimTime) -> f64 {
        let span = (to - from).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.integrate(from, to) / span
    }

    /// Resample to a uniform grid (sample-and-hold), like
    /// [`TimeSeries::resample_hold`].
    pub fn resample_hold(
        &self,
        start: SimTime,
        end: SimTime,
        dt: SimDuration,
    ) -> Vec<(SimTime, f64)> {
        assert!(dt.is_positive(), "resample step must be positive");
        let mut out = Vec::new();
        let mut t = start;
        while t <= end {
            out.push((t, self.value_at(t)));
            t += dt;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: i64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn timeseries_push_and_stats() {
        let mut s = TimeSeries::new();
        s.push(t(0), 1.0);
        s.push(t(1), 3.0);
        s.push(t(2), 5.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.values_between(t(1), t(3)), vec![3.0, 5.0]);
        assert_eq!(s.mean_between(t(1), t(3)), Some(4.0));
        assert_eq!(s.mean_between(t(10), t(20)), None);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn timeseries_rejects_regression() {
        let mut s = TimeSeries::new();
        s.push(t(5), 1.0);
        s.push(t(4), 1.0);
    }

    #[test]
    fn timeseries_resample_holds_last() {
        let mut s = TimeSeries::new();
        s.push(t(1), 10.0);
        s.push(t(3), 20.0);
        let grid = s.resample_hold(t(0), t(4), SimDuration::from_secs(1));
        let vals: Vec<f64> = grid.iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![0.0, 10.0, 10.0, 20.0, 20.0]);
    }

    #[test]
    fn stepseries_value_at() {
        let mut s = StepSeries::with_initial(2.0);
        s.set(t(10), 5.0);
        s.set(t(20), 1.0);
        assert_eq!(s.value_at(SimTime::ZERO), 2.0);
        assert_eq!(s.value_at(t(9)), 2.0);
        assert_eq!(s.value_at(t(10)), 5.0);
        assert_eq!(s.value_at(t(15)), 5.0);
        assert_eq!(s.value_at(t(25)), 1.0);
    }

    #[test]
    fn stepseries_before_first_change_is_zero() {
        let mut s = StepSeries::new();
        s.set(t(5), 7.0);
        assert_eq!(s.value_at(t(0)), 0.0);
        assert_eq!(s.value_at(t(5)), 7.0);
    }

    #[test]
    fn stepseries_integrate_exact() {
        let mut s = StepSeries::with_initial(2.0);
        s.set(t(10), 4.0);
        // [0,10): 2*10 = 20 ; [10,20): 4*10 = 40
        assert_eq!(s.integrate(t(0), t(20)), 60.0);
        assert_eq!(s.integrate(t(5), t(15)), 2.0 * 5.0 + 4.0 * 5.0);
        assert_eq!(s.time_average(t(0), t(20)), 3.0);
        assert_eq!(s.integrate(t(20), t(20)), 0.0);
    }

    #[test]
    fn stepseries_overwrite_same_instant() {
        let mut s = StepSeries::new();
        s.set(t(1), 1.0);
        s.set(t(1), 9.0);
        assert_eq!(s.steps().len(), 1);
        assert_eq!(s.value_at(t(1)), 9.0);
    }

    #[test]
    fn stepseries_integrate_partial_windows() {
        let mut s = StepSeries::new();
        s.set(t(10), 10.0);
        // Signal is 0 before t=10.
        assert_eq!(s.integrate(t(0), t(10)), 0.0);
        assert_eq!(s.integrate(t(0), t(12)), 20.0);
        assert_eq!(s.integrate(t(11), t(12)), 10.0);
    }

    #[test]
    fn stepseries_resample() {
        let mut s = StepSeries::with_initial(1.0);
        s.set(t(2), 3.0);
        let grid = s.resample_hold(t(0), t(3), SimDuration::from_secs(1));
        let vals: Vec<f64> = grid.iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![1.0, 1.0, 3.0, 3.0]);
    }
}
