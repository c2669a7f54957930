//! Links and paths.
//!
//! A [`Link`] is a capacitated resource (a NIC, a campus uplink, a WAN
//! segment). A [`Path`] is an ordered set of links plus the end-to-end
//! properties TCP cares about: round-trip time and random packet loss.
//! Putting capacity on links (not paths) lets two transfers that leave the
//! same source NIC — the paper's Fig. 11 scenario — contend for it while
//! crossing different WAN bottlenecks.

/// Identifier of a link within a [`crate::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// Identifier of a path within a [`crate::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub usize);

/// A capacitated network resource.
#[derive(Debug, Clone)]
pub struct Link {
    /// Human-readable name for reports.
    pub name: String,
    /// Capacity in MB/s.
    pub capacity_mbs: f64,
    /// AIMD half-saturation stream count `h`: with `N` total TCP streams
    /// crossing the link, the *achievable* aggregate goodput is
    /// `capacity · N/(N+h)` — AIMD sawtooth and loss recovery leave bandwidth
    /// unused, and more multiplexed streams recover more of it (the paper's
    /// first observation). `h = 0` disables the effect (ideal link).
    pub half_streams: f64,
}

impl Link {
    /// A link with the given name and capacity (MB/s), ideal (`h = 0`).
    ///
    /// # Panics
    /// Panics if `capacity_mbs` is not strictly positive and finite.
    pub fn new(name: impl Into<String>, capacity_mbs: f64) -> Self {
        assert!(
            capacity_mbs > 0.0 && capacity_mbs.is_finite(),
            "link capacity must be positive and finite, got {capacity_mbs}"
        );
        Link {
            name: name.into(),
            capacity_mbs,
            half_streams: 0.0,
        }
    }

    /// A link whose capacity is given in Gb/s (the unit NICs are quoted in);
    /// converted at 8 bits/byte, 1000-based.
    pub fn from_gbps(name: impl Into<String>, gbps: f64) -> Self {
        Link::new(name, gbps * 1000.0 / 8.0)
    }

    /// Set the AIMD half-saturation stream count.
    ///
    /// # Panics
    /// Panics if `h` is negative.
    pub fn with_half_streams(mut self, h: f64) -> Self {
        assert!(h >= 0.0, "half_streams must be non-negative, got {h}");
        self.half_streams = h;
        self
    }

    /// Effective aggregate capacity when `n_streams` TCP streams cross the
    /// link: `capacity · N/(N+h)` (or full capacity when `h = 0`).
    pub fn effective_capacity_mbs(&self, n_streams: f64) -> f64 {
        if self.half_streams <= 0.0 || n_streams <= 0.0 {
            return if n_streams <= 0.0 && self.half_streams > 0.0 {
                0.0
            } else {
                self.capacity_mbs
            };
        }
        self.capacity_mbs * n_streams / (n_streams + self.half_streams)
    }
}

/// An end-to-end route: the links it crosses plus TCP-relevant path
/// properties.
#[derive(Debug, Clone)]
pub struct Path {
    /// Human-readable name for reports.
    pub name: String,
    /// Links crossed, in order. Must be non-empty and duplicate-free.
    pub links: Vec<LinkId>,
    /// Round-trip time in seconds.
    pub rtt_s: f64,
    /// Per-packet random loss probability (non-congestion loss).
    pub loss: f64,
    /// Per-stream window cap in bytes (socket buffer limit).
    pub wmax_bytes: f64,
}

impl Path {
    /// Default per-stream socket-buffer window cap: 4 MiB, a typical tuned
    /// GridFTP endpoint configuration.
    pub const DEFAULT_WMAX_BYTES: f64 = 4.0 * 1024.0 * 1024.0;

    /// A path over `links` with a 1 ms RTT and zero random loss.
    ///
    /// # Panics
    /// Panics if `links` is empty or contains duplicates.
    pub fn new(name: impl Into<String>, links: Vec<LinkId>) -> Self {
        assert!(!links.is_empty(), "a path must cross at least one link");
        let mut seen = links.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), links.len(), "a path cannot cross a link twice");
        Path {
            name: name.into(),
            links,
            rtt_s: 0.001,
            loss: 0.0,
            wmax_bytes: Self::DEFAULT_WMAX_BYTES,
        }
    }

    /// Set the round-trip time in milliseconds.
    ///
    /// # Panics
    /// Panics if `rtt_ms` is not strictly positive.
    pub fn with_rtt_ms(mut self, rtt_ms: f64) -> Self {
        assert!(rtt_ms > 0.0, "RTT must be positive, got {rtt_ms} ms");
        self.rtt_s = rtt_ms / 1000.0;
        self
    }

    /// Set the per-packet random loss probability.
    ///
    /// # Panics
    /// Panics if `loss` is outside `[0, 1)`.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&loss),
            "loss must be in [0,1), got {loss}"
        );
        self.loss = loss;
        self
    }

    /// Set the per-stream window cap in bytes.
    ///
    /// # Panics
    /// Panics if `wmax_bytes` is not strictly positive.
    pub fn with_wmax_bytes(mut self, wmax_bytes: f64) -> Self {
        assert!(wmax_bytes > 0.0, "window cap must be positive");
        self.wmax_bytes = wmax_bytes;
        self
    }

    /// True if the path crosses `link`.
    pub fn crosses(&self, link: LinkId) -> bool {
        self.links.contains(&link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbps_conversion() {
        let l = Link::from_gbps("nic", 40.0);
        assert_eq!(l.capacity_mbs, 5000.0);
        let l = Link::from_gbps("wan", 20.0);
        assert_eq!(l.capacity_mbs, 2500.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        Link::new("bad", 0.0);
    }

    #[test]
    fn path_builder() {
        let p = Path::new("p", vec![LinkId(0), LinkId(1)])
            .with_rtt_ms(33.0)
            .with_loss(1e-5)
            .with_wmax_bytes(1e6);
        assert!((p.rtt_s - 0.033).abs() < 1e-12);
        assert_eq!(p.loss, 1e-5);
        assert_eq!(p.wmax_bytes, 1e6);
        assert!(p.crosses(LinkId(0)));
        assert!(!p.crosses(LinkId(2)));
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn empty_path_rejected() {
        Path::new("p", vec![]);
    }

    #[test]
    #[should_panic(expected = "cannot cross a link twice")]
    fn duplicate_link_rejected() {
        Path::new("p", vec![LinkId(3), LinkId(3)]);
    }

    #[test]
    #[should_panic(expected = "loss must be in [0,1)")]
    fn bad_loss_rejected() {
        Path::new("p", vec![LinkId(0)]).with_loss(1.0);
    }
}
