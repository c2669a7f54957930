//! Bounded integer search domains and the paper's `fBnd` operator.
//!
//! The parameters that determine the number of parallel streams "take only
//! integer values and have specific limits because of hardware/software
//! limitations" (paper Section III-B). `fBnd` makes any continuous search
//! method respect that: round each coordinate to the nearest integer, then
//! project it onto its bounds.

/// A point in the integer search space (one coordinate per tuned parameter).
pub type Point = Vec<i64>;

/// A box-bounded integer domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    lo: Vec<i64>,
    hi: Vec<i64>,
}

impl Domain {
    /// A domain from inclusive `(lo, hi)` bounds per dimension.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or any `lo > hi`.
    pub fn new(bounds: &[(i64, i64)]) -> Self {
        assert!(!bounds.is_empty(), "domain needs at least one dimension");
        for &(lo, hi) in bounds {
            assert!(lo <= hi, "invalid bound: lo={lo} > hi={hi}");
        }
        Domain {
            lo: bounds.iter().map(|b| b.0).collect(),
            hi: bounds.iter().map(|b| b.1).collect(),
        }
    }

    /// The paper's 1-D concurrency domain: `nc ∈ [1, 512]` (Fig. 1 probes up
    /// to 512 streams).
    pub fn paper_nc() -> Self {
        Domain::new(&[(1, 512)])
    }

    /// The paper's 2-D domain for Section IV-B: `nc ∈ [1, 256]`,
    /// `np ∈ [1, 32]`.
    pub fn paper_nc_np() -> Self {
        Domain::new(&[(1, 256), (1, 32)])
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Inclusive lower bounds.
    pub fn lo(&self) -> &[i64] {
        &self.lo
    }

    /// Inclusive upper bounds.
    pub fn hi(&self) -> &[i64] {
        &self.hi
    }

    /// True when `p` has the right dimension and all coordinates in bounds.
    pub fn contains(&self, p: &[i64]) -> bool {
        p.len() == self.dim()
            && p.iter()
                .zip(self.lo.iter().zip(&self.hi))
                .all(|(&x, (&lo, &hi))| x >= lo && x <= hi)
    }

    /// The paper's `fBnd`: round a continuous point to integers, then project
    /// onto the bounds. `(3.8, 9.2) → (4, 9)`; `(12, -1) → (12, 1)`.
    ///
    /// # Panics
    /// Panics if the dimension does not match.
    pub fn fbnd(&self, x: &[f64]) -> Point {
        assert_eq!(x.len(), self.dim(), "dimension mismatch in fBnd");
        x.iter()
            .zip(self.lo.iter().zip(&self.hi))
            .map(|(&v, (&lo, &hi))| {
                let r = v.round();
                // Guard NaN and ±inf before the integer cast.
                let r = if r.is_nan() { lo as f64 } else { r };
                (r.clamp(lo as f64, hi as f64)) as i64
            })
            .collect()
    }

    /// Project an integer point onto the bounds.
    ///
    /// # Panics
    /// Panics if the dimension does not match.
    pub fn clamp(&self, p: &[i64]) -> Point {
        assert_eq!(p.len(), self.dim(), "dimension mismatch in clamp");
        p.iter()
            .zip(self.lo.iter().zip(&self.hi))
            .map(|(&x, (&lo, &hi))| x.clamp(lo, hi))
            .collect()
    }

    /// The center of the domain, rounded down.
    pub fn center(&self) -> Point {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&lo, &hi)| lo + (hi - lo) / 2)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_domains() {
        assert_eq!(Domain::paper_nc().dim(), 1);
        assert_eq!(Domain::paper_nc_np().dim(), 2);
        assert!(Domain::paper_nc().contains(&[512]));
        assert!(!Domain::paper_nc().contains(&[0]));
        assert!(Domain::paper_nc_np().contains(&[256, 32]));
    }

    #[test]
    fn fbnd_rounds_like_the_paper() {
        let d = Domain::new(&[(1, 20), (1, 20)]);
        assert_eq!(d.fbnd(&[3.8, 9.2]), vec![4, 9]);
    }

    #[test]
    fn fbnd_projects_like_the_paper() {
        let d = Domain::new(&[(1, 12), (1, 12)]);
        assert_eq!(d.fbnd(&[12.0, -1.0]), vec![12, 1]);
        assert_eq!(d.fbnd(&[99.0, 0.4]), vec![12, 1]);
    }

    #[test]
    fn fbnd_handles_non_finite() {
        let d = Domain::new(&[(1, 10)]);
        assert_eq!(d.fbnd(&[f64::NAN]), vec![1]);
        assert_eq!(d.fbnd(&[f64::INFINITY]), vec![10]);
        assert_eq!(d.fbnd(&[f64::NEG_INFINITY]), vec![1]);
    }

    #[test]
    fn clamp_and_center() {
        let d = Domain::new(&[(1, 9), (0, 100)]);
        assert_eq!(d.clamp(&[-5, 200]), vec![1, 100]);
        assert_eq!(d.clamp(&[5, 50]), vec![5, 50]);
        assert_eq!(d.center(), vec![5, 50]);
    }

    #[test]
    #[should_panic(expected = "invalid bound")]
    fn reversed_bounds_rejected() {
        Domain::new(&[(5, 1)]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn fbnd_dimension_checked() {
        Domain::new(&[(1, 2)]).fbnd(&[1.0, 2.0]);
    }

    #[test]
    fn contains_checks_dimension() {
        let d = Domain::new(&[(1, 2)]);
        assert!(!d.contains(&[1, 1]));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn fbnd_always_lands_in_domain(
            lo in -100i64..0,
            span in 1i64..200,
            x in prop::collection::vec(-1e6f64..1e6, 1..4),
        ) {
            let bounds: Vec<(i64, i64)> = (0..x.len()).map(|_| (lo, lo + span)).collect();
            let d = Domain::new(&bounds);
            let p = d.fbnd(&x);
            prop_assert!(d.contains(&p));
        }

        #[test]
        fn fbnd_is_identity_on_integer_interior_points(
            v in prop::collection::vec(2i64..98, 1..4),
        ) {
            let bounds: Vec<(i64, i64)> = v.iter().map(|_| (1, 99)).collect();
            let d = Domain::new(&bounds);
            let x: Vec<f64> = v.iter().map(|&i| i as f64).collect();
            prop_assert_eq!(d.fbnd(&x), v);
        }

        #[test]
        fn clamp_idempotent(v in prop::collection::vec(-200i64..200, 1..4)) {
            let bounds: Vec<(i64, i64)> = v.iter().map(|_| (-50, 50)).collect();
            let d = Domain::new(&bounds);
            let once = d.clamp(&v);
            let twice = d.clamp(&once);
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn fbnd_idempotent(
            lo in -100i64..0,
            span in 1i64..200,
            x in prop::collection::vec(-1e6f64..1e6, 1..4),
        ) {
            // Projecting an already-projected point changes nothing:
            // fbnd(fbnd(x)) == fbnd(x) for any real input.
            let bounds: Vec<(i64, i64)> = (0..x.len()).map(|_| (lo, lo + span)).collect();
            let d = Domain::new(&bounds);
            let once = d.fbnd(&x);
            let as_f64: Vec<f64> = once.iter().map(|&i| i as f64).collect();
            let twice = d.fbnd(&as_f64);
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn fbnd_maps_non_finite_in_domain(
            dim in 1usize..4,
            kind in 0usize..3usize,
        ) {
            let bounds: Vec<(i64, i64)> = (0..dim).map(|_| (1, 99)).collect();
            let d = Domain::new(&bounds);
            let v = match kind {
                0 => f64::NAN,
                1 => f64::INFINITY,
                _ => f64::NEG_INFINITY,
            };
            let p = d.fbnd(&vec![v; dim]);
            prop_assert!(d.contains(&p), "non-finite input must still project in-domain");
        }
    }
}
