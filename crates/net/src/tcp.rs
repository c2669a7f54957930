//! Per-stream TCP models: steady-state response functions and congestion
//! window dynamics.
//!
//! The paper attributes the rising segment of its throughput-vs-streams
//! curves to AIMD leaving bandwidth unused: a single stream's steady-state
//! rate on a lossy long-RTT path is far below the link capacity, so `n`
//! streams recover roughly `n×` that rate until a resource saturates. The
//! response functions here quantify the per-stream rate; the window dynamics
//! drive the higher-fidelity [`crate::dynamic`] mode.
//!
//! The response functions are the standard "square-root-p" family — exact
//! constants matter less than the relative aggressiveness of the variants,
//! which is what changes where the critical stream count lands.

/// Default TCP maximum segment size in bytes (Ethernet MTU minus headers).
pub const DEFAULT_MSS_BYTES: f64 = 1460.0;

/// A TCP congestion-control variant.
///
/// The paper's endpoints ran **H-TCP**; Linux defaults to **CUBIC**; Reno is
/// the classic AIMD baseline; Scalable TCP is the most aggressive of the
/// "high-speed" family. All four are discussed in the paper's Section III-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CongestionControl {
    /// Classic AIMD: +1 MSS per RTT, halve on loss.
    Reno,
    /// CUBIC (Linux default): cubic window growth around the last loss size.
    Cubic,
    /// H-TCP: additive increase grows with time since the last loss.
    #[default]
    HTcp,
    /// Scalable TCP: multiplicative increase, gentle (0.875) decrease.
    Scalable,
}

impl CongestionControl {
    /// All variants, for sweeps and ablations.
    pub const ALL: [CongestionControl; 4] = [
        CongestionControl::Reno,
        CongestionControl::Cubic,
        CongestionControl::HTcp,
        CongestionControl::Scalable,
    ];

    /// Short lowercase name (`reno`, `cubic`, `htcp`, `scalable`).
    pub fn name(self) -> &'static str {
        match self {
            CongestionControl::Reno => "reno",
            CongestionControl::Cubic => "cubic",
            CongestionControl::HTcp => "htcp",
            CongestionControl::Scalable => "scalable",
        }
    }

    /// Multiplicative-decrease factor applied to the window on a loss event.
    pub fn beta(self) -> f64 {
        match self {
            CongestionControl::Reno => 0.5,
            CongestionControl::Cubic => 0.7, // RFC 8312 uses 0.7
            CongestionControl::HTcp => 0.8,  // adaptive in the real stack; typical value
            CongestionControl::Scalable => 0.875,
        }
    }

    /// Steady-state per-stream goodput in MB/s for a path with round-trip
    /// time `rtt_s` (seconds) and per-packet random loss probability `loss`,
    /// using segments of `mss_bytes`.
    ///
    /// Response functions (throughput in segments/RTT as a function of p):
    ///
    /// * Reno: `sqrt(3/2) / sqrt(p)` (Mathis et al.)
    /// * CUBIC: `1.17 / p^0.75 · (RTT/1s)^(-0.25) · RTT` — the standard CUBIC
    ///   response, less RTT-sensitive than Reno.
    /// * H-TCP: quadratic increase in time-since-loss integrates to a
    ///   `~ c / p^(2/3)` response; we use `1.2 / p^(2/3)`.
    /// * Scalable: `0.075 / p` (per-ack multiplicative increase).
    ///
    /// `loss <= 0` returns `f64::INFINITY` — a lossless path leaves the
    /// stream limited only by window caps and link shares, which the caller
    /// applies on top.
    ///
    /// # Examples
    ///
    /// ```
    /// use xferopt_net::CongestionControl;
    /// // On a 33 ms RTT path with 1e-4 loss, H-TCP sustains far more per
    /// // stream than classic Reno — why the paper's endpoints run it.
    /// let reno = CongestionControl::Reno.steady_rate_mbs(0.033, 1e-4, 1460.0);
    /// let htcp = CongestionControl::HTcp.steady_rate_mbs(0.033, 1e-4, 1460.0);
    /// assert!(htcp > reno);
    /// ```
    pub fn steady_rate_mbs(self, rtt_s: f64, loss: f64, mss_bytes: f64) -> f64 {
        assert!(rtt_s > 0.0, "RTT must be positive");
        if loss <= 0.0 {
            return f64::INFINITY;
        }
        let segs_per_rtt = match self {
            CongestionControl::Reno => (1.5f64).sqrt() / loss.sqrt(),
            CongestionControl::Cubic => {
                // RFC 8312 average window: 1.054 * (C·RTT^3 / p^3)^(1/4)
                // segments, with C = 0.4 ⇒ rate scales as RTT^(-1/4).
                1.054 * (0.4 * rtt_s.powi(3) / loss.powi(3)).powf(0.25)
            }
            CongestionControl::HTcp => 1.2 / loss.powf(2.0 / 3.0),
            CongestionControl::Scalable => 0.075 / loss,
        };
        segs_per_rtt * mss_bytes / rtt_s / 1e6
    }

    /// Per-stream rate cap in MB/s given the socket-buffer window cap
    /// `wmax_bytes` (a window can never sustain more than `wmax/RTT`).
    pub fn window_cap_mbs(rtt_s: f64, wmax_bytes: f64) -> f64 {
        assert!(rtt_s > 0.0, "RTT must be positive");
        wmax_bytes / rtt_s / 1e6
    }

    /// Congestion-avoidance window growth over `dt` seconds, given the
    /// current window `cwnd_bytes`, the path RTT, and the time since the last
    /// loss event `since_loss_s`. Returns the new window in bytes.
    ///
    /// Growth rules:
    /// * Reno: +1 MSS per RTT.
    /// * CUBIC: window follows `C·(t−K)³ + Wmax` around the last-loss window
    ///   (`w_last_max_bytes`), with C = 0.4 (segments/s³) and
    ///   `K = (Wmax·β/C)^(1/3)`.
    /// * H-TCP: +α(Δ) MSS per RTT with `α(Δ) = 1 + 10(Δ−ΔL) + 0.25(Δ−ΔL)²`
    ///   for Δ beyond the low-speed threshold ΔL = 1 s.
    /// * Scalable: ×(1 + 0.01) per MSS acked, i.e. exponential in time.
    #[allow(clippy::too_many_arguments)]
    pub fn grow_window(
        self,
        cwnd_bytes: f64,
        w_last_max_bytes: f64,
        rtt_s: f64,
        since_loss_s: f64,
        dt_s: f64,
        mss_bytes: f64,
    ) -> f64 {
        debug_assert!(rtt_s > 0.0 && dt_s >= 0.0);
        let rtts = dt_s / rtt_s;
        match self {
            CongestionControl::Reno => cwnd_bytes + mss_bytes * rtts,
            CongestionControl::HTcp => {
                let delta_l = 1.0;
                let d = (since_loss_s - delta_l).max(0.0);
                let alpha = 1.0 + 10.0 * d + 0.25 * d * d;
                cwnd_bytes + alpha * mss_bytes * rtts
            }
            CongestionControl::Scalable => {
                // cwnd += 0.01 * cwnd per RTT-worth of acks ⇒ exponential.
                cwnd_bytes * (1.0 + 0.01f64).powf(rtts.min(1e3))
            }
            CongestionControl::Cubic => {
                let c = 0.4; // segments per second^3 (RFC 8312)
                let beta = self.beta();
                let wmax_seg = (w_last_max_bytes / mss_bytes).max(1.0);
                let k = (wmax_seg * (1.0 - beta) / c).cbrt();
                let t = since_loss_s + dt_s;
                let target_seg = c * (t - k).powi(3) + wmax_seg;
                let target = target_seg * mss_bytes;
                // CUBIC never shrinks the window during growth.
                target.max(cwnd_bytes)
            }
        }
    }

    /// Apply a multiplicative decrease after a loss event. Returns the new
    /// window (bytes), floored at one MSS.
    pub fn on_loss(self, cwnd_bytes: f64, mss_bytes: f64) -> f64 {
        (cwnd_bytes * self.beta()).max(mss_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RTT: f64 = 0.033; // 33 ms, the paper's ANL->TACC path
    const MSS: f64 = DEFAULT_MSS_BYTES;

    #[test]
    fn lossless_rate_is_unbounded() {
        for cc in CongestionControl::ALL {
            assert!(cc.steady_rate_mbs(RTT, 0.0, MSS).is_infinite());
        }
    }

    #[test]
    fn rate_decreases_with_loss() {
        for cc in CongestionControl::ALL {
            let lo = cc.steady_rate_mbs(RTT, 1e-6, MSS);
            let hi = cc.steady_rate_mbs(RTT, 1e-3, MSS);
            assert!(
                lo > hi,
                "{}: rate must fall as loss rises ({lo} vs {hi})",
                cc.name()
            );
        }
    }

    #[test]
    fn rate_decreases_with_rtt_for_reno() {
        let short = CongestionControl::Reno.steady_rate_mbs(0.01, 1e-5, MSS);
        let long = CongestionControl::Reno.steady_rate_mbs(0.1, 1e-5, MSS);
        assert!(short > long * 5.0, "Reno is strongly RTT-limited");
    }

    #[test]
    fn cubic_less_rtt_sensitive_than_reno() {
        let p = 1e-5;
        let ratio = |cc: CongestionControl| {
            cc.steady_rate_mbs(0.01, p, MSS) / cc.steady_rate_mbs(0.1, p, MSS)
        };
        assert!(ratio(CongestionControl::Cubic) < ratio(CongestionControl::Reno));
    }

    #[test]
    fn aggressiveness_ordering_at_high_loss() {
        // At meaningful loss rates the high-speed variants beat Reno.
        let p = 1e-4;
        let reno = CongestionControl::Reno.steady_rate_mbs(RTT, p, MSS);
        let htcp = CongestionControl::HTcp.steady_rate_mbs(RTT, p, MSS);
        let scal = CongestionControl::Scalable.steady_rate_mbs(RTT, p, MSS);
        assert!(htcp > reno, "htcp={htcp} reno={reno}");
        assert!(scal > htcp, "scalable={scal} htcp={htcp}");
    }

    #[test]
    fn window_cap() {
        // 4 MB window over 33 ms RTT ≈ 121 MB/s.
        let cap = CongestionControl::window_cap_mbs(RTT, 4.0 * 1024.0 * 1024.0);
        assert!((cap - 127.1).abs() < 1.0, "cap={cap}");
    }

    #[test]
    fn reno_growth_is_one_mss_per_rtt() {
        let cc = CongestionControl::Reno;
        let w0 = 100_000.0;
        let w1 = cc.grow_window(w0, w0, RTT, 5.0, RTT, MSS);
        assert!((w1 - w0 - MSS).abs() < 1e-6);
    }

    #[test]
    fn htcp_growth_accelerates() {
        let cc = CongestionControl::HTcp;
        let w0 = 100_000.0;
        let early = cc.grow_window(w0, w0, RTT, 0.5, RTT, MSS) - w0;
        let late = cc.grow_window(w0, w0, RTT, 10.0, RTT, MSS) - w0;
        assert!(late > 10.0 * early, "early={early} late={late}");
    }

    #[test]
    fn scalable_growth_is_multiplicative() {
        let cc = CongestionControl::Scalable;
        let small = cc.grow_window(1e5, 1e5, RTT, 1.0, RTT, MSS) - 1e5;
        let large = cc.grow_window(1e6, 1e6, RTT, 1.0, RTT, MSS) - 1e6;
        assert!((large / small - 10.0).abs() < 0.1);
    }

    #[test]
    fn cubic_growth_concave_then_convex() {
        let cc = CongestionControl::Cubic;
        let wmax = 1_000_000.0;
        let w_after_loss = cc.on_loss(wmax, MSS);
        // Right after a loss the window climbs back toward wmax...
        let w_mid = cc.grow_window(w_after_loss, wmax, RTT, 0.0, 2.0, MSS);
        assert!(w_mid > w_after_loss && w_mid <= wmax * 1.05);
        // ...and far past K it exceeds the old maximum (probing).
        let w_late = cc.grow_window(w_after_loss, wmax, RTT, 0.0, 60.0, MSS);
        assert!(w_late > wmax);
    }

    #[test]
    fn cubic_never_shrinks_during_growth() {
        let cc = CongestionControl::Cubic;
        let cwnd = 2_000_000.0;
        let w = cc.grow_window(cwnd, 1_000_000.0, RTT, 0.1, 0.01, MSS);
        assert!(w >= cwnd);
    }

    #[test]
    fn loss_decrease_floors_at_mss() {
        for cc in CongestionControl::ALL {
            assert_eq!(cc.on_loss(100.0, MSS), MSS);
            let w = cc.on_loss(1e6, MSS);
            assert!((w - 1e6 * cc.beta()).abs() < 1e-9);
        }
    }

    #[test]
    fn beta_ordering_matches_aggressiveness() {
        assert!(CongestionControl::Reno.beta() < CongestionControl::Cubic.beta());
        assert!(CongestionControl::Cubic.beta() < CongestionControl::Scalable.beta());
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<_> = CongestionControl::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["reno", "cubic", "htcp", "scalable"]);
    }

    #[test]
    #[should_panic(expected = "RTT must be positive")]
    fn zero_rtt_rejected() {
        CongestionControl::Reno.steady_rate_mbs(0.0, 1e-5, MSS);
    }
}
