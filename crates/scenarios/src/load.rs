//! External source load: competing transfer streams and compute hogs.
//!
//! The paper controls load on the source with two knobs, both drawn from
//! `{0, 16, 32, 64}`:
//!
//! * `ext.tfr` — a second transfer from the same source with that many
//!   streams (network + mild CPU contention);
//! * `ext.cmp` — that many MKL `dgemm` copies, each consuming all cores
//!   (heavy CPU contention).
//!
//! A [`LoadSchedule`] is a piecewise-constant sequence of [`ExternalLoad`]
//! values, used for the Section IV-B experiments where the load switches at
//! t = 1000 s.

/// A combination of external transfer streams and compute hogs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ExternalLoad {
    /// Number of competing transfer streams from the source (`ext.tfr`).
    pub tfr: u32,
    /// Number of dgemm compute hogs on the source (`ext.cmp`).
    pub cmp: u32,
}

impl ExternalLoad {
    /// No external load.
    pub const NONE: ExternalLoad = ExternalLoad { tfr: 0, cmp: 0 };

    /// Construct from `(ext.tfr, ext.cmp)`.
    pub const fn new(tfr: u32, cmp: u32) -> Self {
        ExternalLoad { tfr, cmp }
    }

    /// Label used in figures, e.g. `tfr=16,cmp=0`.
    pub fn label(&self) -> String {
        format!("tfr={},cmp={}", self.tfr, self.cmp)
    }
}

/// A piecewise-constant load schedule: `(start_s, load)` segments.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSchedule {
    /// Segments sorted by start time; the first must start at 0.
    segments: Vec<(f64, ExternalLoad)>,
}

impl LoadSchedule {
    /// A constant schedule.
    pub fn constant(load: ExternalLoad) -> Self {
        LoadSchedule {
            segments: vec![(0.0, load)],
        }
    }

    /// A schedule from `(start_s, load)` pairs.
    ///
    /// # Panics
    /// Panics if `segments` is empty, does not start at 0, or is not strictly
    /// increasing in time.
    pub fn piecewise(segments: Vec<(f64, ExternalLoad)>) -> Self {
        assert!(!segments.is_empty(), "schedule needs at least one segment");
        assert_eq!(segments[0].0, 0.0, "first segment must start at t=0");
        for w in segments.windows(2) {
            assert!(
                w[1].0 > w[0].0,
                "segment starts must be strictly increasing"
            );
        }
        LoadSchedule { segments }
    }

    /// The paper's Section IV-B schedule: `(tfr=64, cmp=16)` for the first
    /// 1000 s, then `(tfr=16, cmp=16)`.
    pub fn paper_varying() -> Self {
        LoadSchedule::piecewise(vec![
            (0.0, ExternalLoad::new(64, 16)),
            (1000.0, ExternalLoad::new(16, 16)),
        ])
    }

    /// A stochastic burst schedule: the source alternates between idle and
    /// `burst` load, with exponentially distributed off/on holding times of
    /// means `mean_off_s`/`mean_on_s`, deterministically from `seed`. This
    /// models the paper's observation that "external loads can start and end
    /// at any time" more realistically than a single switch.
    ///
    /// # Panics
    /// Panics if any duration/mean is not strictly positive.
    pub fn poisson_bursts(
        duration_s: f64,
        mean_off_s: f64,
        mean_on_s: f64,
        burst: ExternalLoad,
        seed: u64,
    ) -> Self {
        assert!(duration_s > 0.0, "duration must be positive");
        assert!(
            mean_off_s > 0.0 && mean_on_s > 0.0,
            "holding-time means must be positive"
        );
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut segments = vec![(0.0, ExternalLoad::NONE)];
        let mut t = 0.0;
        let mut on = false;
        loop {
            let mean = if on { mean_on_s } else { mean_off_s };
            t += xferopt_simcore::rng::sample_exp(&mut rng, 1.0 / mean);
            if t >= duration_s {
                break;
            }
            on = !on;
            segments.push((t, if on { burst } else { ExternalLoad::NONE }));
        }
        LoadSchedule::piecewise(segments)
    }

    /// The load in force at time `t_s`.
    pub fn load_at(&self, t_s: f64) -> ExternalLoad {
        let mut current = self.segments[0].1;
        for &(start, load) in &self.segments {
            if start <= t_s {
                current = load;
            } else {
                break;
            }
        }
        current
    }

    /// Change points in `[from_s, to_s)`, in order. Inclusive at `from_s` so
    /// a change landing exactly on a control-epoch boundary is applied at
    /// the start of that epoch (half-open epochs tile the timeline, so each
    /// change is applied exactly once).
    pub fn changes_between(&self, from_s: f64, to_s: f64) -> Vec<f64> {
        self.segments
            .iter()
            .map(|&(s, _)| s)
            .filter(|&s| s >= from_s && s < to_s)
            .collect()
    }

    /// All segments.
    pub fn segments(&self) -> &[(f64, ExternalLoad)] {
        &self.segments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule() {
        let s = LoadSchedule::constant(ExternalLoad::new(16, 0));
        assert_eq!(s.load_at(0.0), ExternalLoad::new(16, 0));
        assert_eq!(s.load_at(1e6), ExternalLoad::new(16, 0));
        // The initial segment is itself a change point at t=0 (applying it
        // is idempotent); nothing after it.
        assert_eq!(s.changes_between(0.0, 1e6), vec![0.0]);
        assert!(s.changes_between(0.1, 1e6).is_empty());
    }

    #[test]
    fn paper_varying_switches_at_1000() {
        let s = LoadSchedule::paper_varying();
        assert_eq!(s.load_at(0.0), ExternalLoad::new(64, 16));
        assert_eq!(s.load_at(999.9), ExternalLoad::new(64, 16));
        assert_eq!(s.load_at(1000.0), ExternalLoad::new(16, 16));
        assert_eq!(s.load_at(1800.0), ExternalLoad::new(16, 16));
        assert_eq!(s.changes_between(990.0, 1020.0), vec![1000.0]);
        assert_eq!(
            s.changes_between(1000.0, 1030.0),
            vec![1000.0],
            "inclusive at the start: boundary-aligned changes must apply"
        );
        assert!(s.changes_between(1000.1, 1030.0).is_empty());
        // Half-open tiling applies each change exactly once.
        let windows = [(960.0, 990.0), (990.0, 1020.0), (1020.0, 1050.0)];
        let total: usize = windows
            .iter()
            .map(|&(a, b)| s.changes_between(a, b).len())
            .sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn labels() {
        assert_eq!(ExternalLoad::new(16, 64).label(), "tfr=16,cmp=64");
        assert_eq!(ExternalLoad::NONE.label(), "tfr=0,cmp=0");
    }

    #[test]
    fn poisson_bursts_alternate_and_are_deterministic() {
        let burst = ExternalLoad::new(0, 32);
        let a = LoadSchedule::poisson_bursts(3600.0, 300.0, 120.0, burst, 7);
        let b = LoadSchedule::poisson_bursts(3600.0, 300.0, 120.0, burst, 7);
        assert_eq!(a, b, "same seed, same schedule");
        let c = LoadSchedule::poisson_bursts(3600.0, 300.0, 120.0, burst, 8);
        assert_ne!(a, c, "different seed, different schedule");
        // Segments alternate idle/burst starting idle.
        for (i, &(_, load)) in a.segments().iter().enumerate() {
            let expect = if i % 2 == 0 {
                ExternalLoad::NONE
            } else {
                burst
            };
            assert_eq!(load, expect, "segment {i}");
        }
        // With mean cycle ~420 s over 3600 s, expect a handful of bursts.
        assert!(
            a.segments().len() >= 3,
            "too few segments: {}",
            a.segments().len()
        );
        // All change points inside the horizon.
        assert!(a.segments().iter().all(|&(t, _)| t < 3600.0));
    }

    #[test]
    #[should_panic(expected = "holding-time means must be positive")]
    fn poisson_rejects_bad_means() {
        LoadSchedule::poisson_bursts(100.0, 0.0, 10.0, ExternalLoad::NONE, 1);
    }

    #[test]
    #[should_panic(expected = "first segment must start at t=0")]
    fn must_start_at_zero() {
        LoadSchedule::piecewise(vec![(5.0, ExternalLoad::NONE)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn must_be_increasing() {
        LoadSchedule::piecewise(vec![
            (0.0, ExternalLoad::NONE),
            (0.0, ExternalLoad::new(1, 1)),
        ]);
    }
}
