//! Real-TCP localhost transfer harness.
//!
//! The paper's tuners are model-free: they only need "run a transfer with
//! `nc × np` streams for one control epoch and report the throughput". This
//! crate provides that objective over **actual TCP sockets** on localhost —
//! a sink server discards bytes, a client fans out `nc` worker groups × `np`
//! streams, and a shared token bucket emulates the WAN bottleneck. Synthetic
//! CPU hogs reproduce the paper's `ext.cmp` load. The result is a
//! non-simulated end-to-end testbed for the same `OnlineTuner`
//! implementations that drive the fluid model.
//!
//! This substitutes for the paper's production GridFTP endpoints: it
//! exercises real socket buffers, thread scheduling, and syscall overhead,
//! while the token bucket provides a controlled, reproducible bottleneck.
//!
//! # Example
//!
//! ```no_run
//! use std::time::Duration;
//! use xferopt_loopback::{CpuHogs, LoopbackHarness, ShaperConfig};
//!
//! let harness = LoopbackHarness::start(ShaperConfig::rate_mbs(200.0)).unwrap();
//! let _hogs = CpuHogs::spawn(2);
//! let mbs = harness.measure(4, 2, Duration::from_millis(500)).unwrap();
//! println!("4x2 streams moved {mbs:.1} MB/s");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod cpuload;
pub mod server;
pub mod shaper;

pub use client::{join_threads, measure_epoch};
pub use cpuload::CpuHogs;
pub use server::SinkServer;
pub use shaper::{ShaperConfig, TokenBucket};

use std::io;
use std::time::Duration;

/// A ready-to-measure localhost harness: sink server + shared shaper.
#[derive(Debug)]
pub struct LoopbackHarness {
    server: SinkServer,
    bucket: TokenBucket,
    per_stream_mbs: Option<f64>,
}

impl LoopbackHarness {
    /// Start a sink server on an ephemeral localhost port with the given
    /// shaping configuration.
    pub fn start(shaper: ShaperConfig) -> io::Result<Self> {
        let server = SinkServer::start()?;
        Ok(LoopbackHarness {
            server,
            bucket: TokenBucket::new(shaper),
            per_stream_mbs: None,
        })
    }

    /// Cap each individual stream at `mbs` MB/s (the per-stream TCP window
    /// analogue), so parallelism has the paper's rising segment on real
    /// sockets.
    ///
    /// # Panics
    /// Panics if `mbs` is not strictly positive.
    pub fn with_per_stream_mbs(mut self, mbs: f64) -> Self {
        assert!(mbs > 0.0, "per-stream cap must be positive");
        self.per_stream_mbs = Some(mbs);
        self
    }

    /// The sink's local address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// Run one control epoch with `nc × np` real TCP streams and return the
    /// achieved throughput in MB/s.
    pub fn measure(&self, nc: u32, np: u32, epoch: Duration) -> io::Result<f64> {
        measure_epoch(
            self.addr(),
            nc,
            np,
            epoch,
            &self.bucket,
            self.per_stream_mbs,
        )
    }

    /// Total bytes the sink has discarded since start.
    pub fn sink_bytes(&self) -> u64 {
        self.server.bytes_received()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_bytes_flow() {
        let h = LoopbackHarness::start(ShaperConfig::rate_mbs(500.0)).unwrap();
        let mbs = h.measure(2, 2, Duration::from_millis(300)).unwrap();
        assert!(mbs > 0.0, "no bytes moved");
        assert!(h.sink_bytes() > 0);
    }

    #[test]
    fn shaping_caps_throughput() {
        let h = LoopbackHarness::start(ShaperConfig::rate_mbs(50.0)).unwrap();
        let mbs = h.measure(4, 2, Duration::from_millis(500)).unwrap();
        // Allow generous slack for burst capacity and timing jitter.
        assert!(
            mbs < 120.0,
            "50 MB/s shaper should cap well below unshaped loopback: {mbs}"
        );
    }

    #[test]
    fn more_streams_do_not_exceed_cap() {
        let h = LoopbackHarness::start(ShaperConfig::rate_mbs(80.0)).unwrap();
        let few = h.measure(1, 1, Duration::from_millis(400)).unwrap();
        let many = h.measure(8, 2, Duration::from_millis(400)).unwrap();
        assert!(few > 0.0 && many > 0.0);
        assert!(many < 200.0, "cap must hold with many streams: {many}");
    }

    #[test]
    fn tuner_runs_against_real_sockets() {
        // The paper's loop, for real: a compass tuner choosing nc over
        // actual TCP streams. Coarse assertions only — real scheduling.
        use xferopt_tuners::{CompassTuner, Domain, OnlineTuner};
        let h = LoopbackHarness::start(ShaperConfig::rate_mbs(300.0)).unwrap();
        let mut tuner = CompassTuner::new(Domain::new(&[(1, 8)]), vec![1], 2.0, 5.0);
        let mut x = tuner.initial();
        for _ in 0..6 {
            let mbs = h
                .measure(x[0] as u32, 1, Duration::from_millis(150))
                .unwrap();
            x = tuner.observe(&x.clone(), mbs);
            assert!((1..=8).contains(&x[0]));
        }
    }
}
