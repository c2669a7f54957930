//! Flow groups: `k` identical parallel TCP streams from one application.
//!
//! GridFTP's `nc × np` streams all carry chunks of the same transfer along
//! the same path, so the fluid model treats them as one *flow group* with a
//! stream count. The stream count is the group's **fair-share weight**: TCP
//! allocates a congested bottleneck per-flow, so a group with more streams
//! claims proportionally more — the mechanism behind the paper's observation
//! that the critical stream count rises with competing traffic.

use crate::link::PathId;
use crate::tcp::CongestionControl;

/// Identifier of a flow group within a [`crate::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// A group of identical parallel TCP streams on one path.
#[derive(Debug, Clone)]
pub struct FlowGroup {
    /// The path all streams in the group follow.
    pub path: PathId,
    /// Number of parallel streams (the fair-share weight). Zero streams is a
    /// legal transient state — the flow simply demands nothing.
    pub streams: u32,
    /// Congestion-control variant the streams run.
    pub cc: CongestionControl,
}

impl FlowGroup {
    /// A flow group of `streams` parallel streams on `path`.
    pub fn new(path: PathId, streams: u32, cc: CongestionControl) -> Self {
        FlowGroup { path, streams, cc }
    }

    /// Aggregate demand cap in MB/s: streams × min(loss-limited steady rate,
    /// window cap). Infinite per-stream rates (lossless paths) clamp to the
    /// window cap alone.
    pub fn demand_mbs(&self, rtt_s: f64, loss: f64, wmax_bytes: f64, mss_bytes: f64) -> f64 {
        if self.streams == 0 {
            return 0.0;
        }
        let loss_limited = self.cc.steady_rate_mbs(rtt_s, loss, mss_bytes);
        let window_limited = CongestionControl::window_cap_mbs(rtt_s, wmax_bytes);
        let per_stream = loss_limited.min(window_limited);
        debug_assert!(per_stream.is_finite(), "per-stream cap must be finite");
        self.streams as f64 * per_stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::DEFAULT_MSS_BYTES;

    #[test]
    fn zero_streams_demand_nothing() {
        let f = FlowGroup::new(PathId(0), 0, CongestionControl::HTcp);
        assert_eq!(f.demand_mbs(0.033, 1e-5, 4e6, DEFAULT_MSS_BYTES), 0.0);
    }

    #[test]
    fn demand_scales_linearly_with_streams() {
        let mk = |k| FlowGroup::new(PathId(0), k, CongestionControl::HTcp);
        let d1 = mk(1).demand_mbs(0.033, 1e-5, 4e6, DEFAULT_MSS_BYTES);
        let d8 = mk(8).demand_mbs(0.033, 1e-5, 4e6, DEFAULT_MSS_BYTES);
        assert!((d8 / d1 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn lossless_path_is_window_limited() {
        let f = FlowGroup::new(PathId(0), 2, CongestionControl::Reno);
        let d = f.demand_mbs(0.01, 0.0, 1e6, DEFAULT_MSS_BYTES);
        // window cap = 1e6 bytes / 0.01 s = 100 MB/s per stream
        assert!((d - 200.0).abs() < 1e-9);
    }

    #[test]
    fn high_loss_is_loss_limited() {
        let f = FlowGroup::new(PathId(0), 1, CongestionControl::Reno);
        let d = f.demand_mbs(0.033, 1e-2, 4e6, DEFAULT_MSS_BYTES);
        let window_cap = CongestionControl::window_cap_mbs(0.033, 4e6);
        assert!(d < window_cap);
    }
}
