//! The record of an online run: the point evaluated and the value observed
//! in each control epoch, as [`crate::regret::summarize_regret`] reads it.
//! Drivers fill it from their own epoch loops (the tournament, `fig10`).

use crate::domain::Point;

/// One step of an online run.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineStep {
    /// Control-epoch index (0-based).
    pub epoch: usize,
    /// The point evaluated.
    pub x: Point,
    /// The observed objective value.
    pub value: f64,
}

/// The trajectory of an online run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineTrajectory {
    /// Every step in order.
    pub steps: Vec<OnlineStep>,
}
