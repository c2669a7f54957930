//! The tunable transfer parameters: concurrency and parallelism.

use std::fmt;

/// GridFTP stream parameters: `nc` concurrent processes, each running `np`
/// parallel TCP streams, for `nc × np` total streams.
///
/// The Globus-transfer defaults for large files are `nc = 2`, `np = 8`
/// (paper Section IV) — see [`StreamParams::globus_default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamParams {
    /// Concurrency: number of transfer processes (exploits multiple cores).
    pub nc: u32,
    /// Parallelism: TCP streams per process (single core).
    pub np: u32,
}

impl StreamParams {
    /// Construct from concurrency and parallelism.
    pub const fn new(nc: u32, np: u32) -> Self {
        StreamParams { nc, np }
    }

    /// The Globus transfer service defaults for large files: `nc=2, np=8`.
    pub const fn globus_default() -> Self {
        StreamParams { nc: 2, np: 8 }
    }

    /// Total parallel TCP streams, `nc × np`.
    pub fn streams(&self) -> u32 {
        self.nc * self.np
    }

    /// True when the configuration moves no data (either factor zero).
    pub fn is_idle(&self) -> bool {
        self.nc == 0 || self.np == 0
    }

    /// Reduce the configuration so `nc × np ≤ cap` total streams, first by
    /// lowering `nc`, then `np`, never below `1×1`. Used by fleet admission
    /// control to keep a job inside its reserved stream budget.
    pub fn clamp_streams(&self, cap: u32) -> Self {
        let cap = cap.max(1);
        let mut p = *self;
        if p.nc == 0 || p.np == 0 {
            return p;
        }
        if p.streams() > cap {
            p.nc = (cap / p.np).max(1);
        }
        if p.streams() > cap {
            p.np = (cap / p.nc).max(1);
        }
        p
    }
}

impl fmt::Display for StreamParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nc={} np={}", self.nc, self.np)
    }
}

impl std::str::FromStr for StreamParams {
    type Err = String;

    /// Parse either the compact `ncxnp` form (`"2x8"`) or the [`fmt::Display`]
    /// form (`"nc=2 np=8"`), so CLI flags and history-store records
    /// round-trip through the same parser.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let parse_u32 = |v: &str, what: &str| {
            v.trim()
                .parse::<u32>()
                .map_err(|_| format!("bad {what} in stream params: {v:?}"))
        };
        if let Some((nc, np)) = s.split_once(['x', 'X']) {
            return Ok(StreamParams::new(
                parse_u32(nc, "nc")?,
                parse_u32(np, "np")?,
            ));
        }
        let mut nc = None;
        let mut np = None;
        for tok in s.split_whitespace() {
            match tok.split_once('=') {
                Some(("nc", v)) => nc = Some(parse_u32(v, "nc")?),
                Some(("np", v)) => np = Some(parse_u32(v, "np")?),
                _ => return Err(format!("unrecognized stream-params token: {tok:?}")),
            }
        }
        match (nc, np) {
            (Some(nc), Some(np)) => Ok(StreamParams::new(nc, np)),
            _ => Err(format!(
                "stream params must be NCxNP or `nc=N np=M`, got {s:?}"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_count_is_product() {
        assert_eq!(StreamParams::new(2, 8).streams(), 16);
        assert_eq!(StreamParams::new(64, 1).streams(), 64);
        assert_eq!(StreamParams::globus_default().streams(), 16);
    }

    #[test]
    fn idle_detection() {
        assert!(StreamParams::new(0, 8).is_idle());
        assert!(StreamParams::new(2, 0).is_idle());
        assert!(!StreamParams::new(1, 1).is_idle());
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(StreamParams::new(5, 8).to_string(), "nc=5 np=8");
    }

    #[test]
    fn display_from_str_round_trips() {
        for p in [
            StreamParams::new(1, 1),
            StreamParams::globus_default(),
            StreamParams::new(512, 32),
            StreamParams::new(0, 8),
        ] {
            let via_display: StreamParams = p.to_string().parse().unwrap();
            assert_eq!(via_display, p, "Display round trip for {p}");
        }
    }

    #[test]
    fn from_str_accepts_both_formats() {
        assert_eq!(
            "2x8".parse::<StreamParams>().unwrap(),
            StreamParams::new(2, 8)
        );
        assert_eq!(
            "16X4".parse::<StreamParams>().unwrap(),
            StreamParams::new(16, 4)
        );
        assert_eq!(
            " nc=5 np=8 ".parse::<StreamParams>().unwrap(),
            StreamParams::new(5, 8)
        );
        assert!("".parse::<StreamParams>().is_err());
        assert!("2x".parse::<StreamParams>().is_err());
        assert!("x8".parse::<StreamParams>().is_err());
        assert!("nc=2".parse::<StreamParams>().is_err());
        assert!("2*8".parse::<StreamParams>().is_err());
        assert!("-2x8".parse::<StreamParams>().is_err());
    }

    #[test]
    fn clamp_streams_respects_cap() {
        assert_eq!(
            StreamParams::new(16, 8).clamp_streams(64),
            StreamParams::new(8, 8)
        );
        assert_eq!(
            StreamParams::new(16, 8).clamp_streams(4),
            StreamParams::new(1, 4)
        );
        // Already inside the cap: unchanged.
        assert_eq!(
            StreamParams::new(2, 8).clamp_streams(64),
            StreamParams::new(2, 8)
        );
        // Never below 1x1, even for absurd caps.
        assert_eq!(
            StreamParams::new(16, 8).clamp_streams(1),
            StreamParams::new(1, 1)
        );
        // Idle params pass through untouched.
        assert_eq!(
            StreamParams::new(0, 8).clamp_streams(4),
            StreamParams::new(0, 8)
        );
    }
}
