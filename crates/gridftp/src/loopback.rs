//! The real-TCP localhost harness: the tuners' objective over GridFTP.
//!
//! The paper's tuners are model-free: they only need "run a transfer with
//! `nc × np` streams for one control epoch and report the throughput". The
//! harness provides that objective over **actual TCP sockets** on
//! localhost, the way the paper's wrapper drives `globus-url-copy`: each
//! epoch, `nc` [`Session`]s of `np` data channels each put to one
//! [`GridFtpServer`] until the epoch ends. Every channel draws send-permits
//! from one shared [`TokenBucket`] that emulates the WAN bottleneck, and
//! synthetic CPU hogs ([`CpuHogs`]) reproduce the paper's `ext.cmp` load.
//! The same `OnlineTuner` implementations that drive the fluid model run
//! against it unchanged.
//!
//! This substitutes for the paper's production GridFTP endpoints: it
//! exercises real socket buffers, thread scheduling, syscall overhead and
//! the EBLOCK receive path, while the token bucket provides a controlled,
//! reproducible bottleneck.
//!
//! # Example
//!
//! ```no_run
//! use std::time::Duration;
//! use xferopt_gridftp::loopback::{CpuHogs, LoopbackHarness, ShaperConfig};
//!
//! let harness = LoopbackHarness::start(ShaperConfig::rate_mbs(200.0)).unwrap();
//! let _hogs = CpuHogs::spawn(2);
//! let mbs = harness.measure(4, 2, Duration::from_millis(500)).unwrap();
//! println!("4x2 streams moved {mbs:.1} MB/s");
//! ```

pub use crate::cpuload::CpuHogs;
pub use crate::shaper::{ShaperConfig, TokenBucket};

use crate::client::{join_threads, PutConfig, PutError};
use crate::server::GridFtpServer;
use crate::session::Session;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Block size of an epoch's puts (64 KiB): a shaped channel that is waiting
/// on a bucket when the epoch ends sends at most this much more.
const EPOCH_BLOCK_BYTES: usize = 64 * 1024;

/// A ready-to-measure localhost harness: a GridFTP server and a shared
/// shaper.
#[derive(Debug)]
pub struct LoopbackHarness {
    server: GridFtpServer,
    bucket: Arc<TokenBucket>,
    per_stream: Option<ShaperConfig>,
    /// Epochs started, so each put names a file of its own.
    epochs: AtomicU64,
}

impl LoopbackHarness {
    /// Start a GridFTP server on an ephemeral localhost port with the given
    /// shaping configuration.
    pub fn start(shaper: ShaperConfig) -> io::Result<Self> {
        Ok(LoopbackHarness {
            server: GridFtpServer::start()?,
            bucket: Arc::new(TokenBucket::new(shaper)),
            per_stream: None,
            epochs: AtomicU64::new(0),
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
        self.per_stream = Some(ShaperConfig::rate_mbs(mbs));
        self
    }

    /// The server's control-channel address.
    pub fn addr(&self) -> SocketAddr {
        self.server.control_addr()
    }

    /// Run one control epoch with `nc × np` real TCP streams and return the
    /// achieved throughput in MB/s.
    ///
    /// Session setup (connect, negotiation, data-channel connects) happens
    /// inside the epoch, the analogue of the paper's restart overhead: more
    /// streams cost more setup time out of the same epoch.
    ///
    /// # Errors
    /// `InvalidInput` for a zero `nc` or `np` or a zero-length epoch, before
    /// any socket opens; otherwise the first session's socket or protocol
    /// failure.
    pub fn measure(&self, nc: u32, np: u32, epoch: Duration) -> io::Result<f64> {
        let (bytes, secs) = self.run_epoch(self.addr(), nc, np, epoch)?;
        Ok(bytes as f64 / secs / 1e6)
    }

    /// Total payload bytes the server has received since start.
    pub fn sink_bytes(&self) -> u64 {
        self.server.bytes_received()
    }

    /// One epoch against the server at `addr`: `nc` sessions, each putting
    /// `np` channels' worth of 64 KiB blocks of a file the epoch cannot
    /// finish, until the deadline. Returns the payload bytes sent and the
    /// wall time in seconds.
    fn run_epoch(
        &self,
        addr: SocketAddr,
        nc: u32,
        np: u32,
        epoch: Duration,
    ) -> io::Result<(u64, f64)> {
        if nc == 0 || np == 0 || epoch.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("an epoch needs streams and time, got nc={nc} np={np} epoch={epoch:?}"),
            ));
        }
        let size = unreachable_size(self.bucket.config(), epoch, u64::from(nc) * u64::from(np));
        let id = self.epochs.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let deadline = start + epoch;
        let per_stream = self.per_stream;
        let sent = std::thread::scope(|scope| {
            let handles = (0..nc)
                .map(|c| {
                    let cfg = PutConfig::new(format!("epoch{id}-{c}"), size)
                        .with_parallelism(np)
                        .with_block_bytes(EPOCH_BLOCK_BYTES)
                        .with_bucket(Arc::clone(&self.bucket));
                    scope.spawn(move || -> io::Result<u64> {
                        let mut session = Session::connect(addr).map_err(io_error)?;
                        let report = session
                            .put_until(&cfg, per_stream, || Instant::now() >= deadline)
                            .map_err(io_error)?;
                        let _ = session.quit();
                        Ok(report.bytes_sent)
                    })
                })
                .collect();
            join_threads(handles, "epoch session")
        })?;
        Ok((sent.iter().sum(), start.elapsed().as_secs_f64()))
    }
}

/// A file size one epoch of `channels` channels cannot send through a
/// bucket of `shaper`: the bucket's burst plus the epoch at its rate, plus
/// one block for each channel still waiting on it at the deadline and one
/// to spare. An unshaped bucket bounds nothing, and the size saturates at
/// `u64::MAX`. Every epoch's put therefore ends at its deadline with a `111`
/// marker, and never with a `226` that would send the client to its digest
/// check.
fn unreachable_size(shaper: ShaperConfig, epoch: Duration, channels: u64) -> u64 {
    let shaped = shaper.burst_bytes.max(EPOCH_BLOCK_BYTES as f64)
        + shaper.rate_bytes_per_s * epoch.as_secs_f64();
    (shaped as u64).saturating_add((channels + 1).saturating_mul(EPOCH_BLOCK_BYTES as u64))
}

/// A session's error as the `io::Error` that [`LoopbackHarness::measure`]
/// returns.
fn io_error(e: PutError) -> io::Error {
    match e {
        PutError::Io(e) => e,
        PutError::Protocol(msg) => io::Error::new(io::ErrorKind::InvalidData, msg),
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
    fn single_stream_moves_bytes() {
        let h = LoopbackHarness::start(ShaperConfig::unshaped()).unwrap();
        let mbs = h.measure(1, 1, Duration::from_millis(200)).unwrap();
        assert!(
            mbs > 1.0,
            "loopback single stream should move >1 MB/s: {mbs}"
        );
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
    fn aggregate_respects_shared_bucket() {
        let h = LoopbackHarness::start(ShaperConfig::rate_mbs(30.0)).unwrap();
        let mbs = h.measure(2, 4, Duration::from_millis(500)).unwrap();
        assert!(mbs < 90.0, "8 streams share one 30 MB/s bucket: {mbs}");
        assert!(mbs > 5.0, "but they should still move data: {mbs}");
    }

    #[test]
    fn per_stream_cap_makes_parallelism_pay() {
        // With a 10 MB/s per-stream cap under an ample shared bucket, four
        // streams must clearly beat one — the rising segment, on sockets.
        let h = LoopbackHarness::start(ShaperConfig::rate_mbs(500.0))
            .unwrap()
            .with_per_stream_mbs(10.0);
        let epoch = Duration::from_millis(400);
        let one = h.measure(1, 1, epoch).unwrap();
        let four = h.measure(4, 1, epoch).unwrap();
        assert!(
            four > 2.0 * one,
            "parallelism must pay under per-stream caps: {one:.1} -> {four:.1}"
        );
    }

    /// Every byte the harness counts reached the server: after several
    /// shaped epochs, the server's count equals the sum of the epochs'.
    #[test]
    fn sink_bytes_equal_the_bytes_counted() {
        let h = LoopbackHarness::start(ShaperConfig::rate_mbs(100.0))
            .unwrap()
            .with_per_stream_mbs(30.0);
        let mut counted = 0;
        for (nc, np) in [(1, 1), (3, 2), (2, 3), (1, 4)] {
            let (bytes, _) = h
                .run_epoch(h.addr(), nc, np, Duration::from_millis(150))
                .unwrap();
            assert!(bytes > 0, "nc={nc} np={np} moved nothing");
            counted += bytes;
        }
        assert_eq!(h.sink_bytes(), counted);
    }

    /// Zero streams or a zero-length epoch is an `InvalidInput` error, not
    /// a panic, and the harness measures normally afterwards.
    #[test]
    fn zero_streams_rejected() {
        let h = LoopbackHarness::start(ShaperConfig::unshaped()).unwrap();
        let epoch = Duration::from_millis(10);
        for (nc, np, epoch) in [(0, 1, epoch), (1, 0, epoch), (1, 1, Duration::ZERO)] {
            let err = h.measure(nc, np, epoch).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidInput,
                "{nc} {np} {epoch:?}"
            );
        }
        assert_eq!(h.sink_bytes(), 0, "a refused epoch opens no socket");
        assert!(h.measure(1, 1, Duration::from_millis(50)).unwrap() > 0.0);
    }

    #[test]
    fn connect_failure_is_reported() {
        // A port with (almost certainly) no listener.
        let h = LoopbackHarness::start(ShaperConfig::unshaped()).unwrap();
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let r = h.run_epoch(addr, 1, 1, Duration::from_millis(10));
        assert!(r.is_err());
    }

    #[test]
    fn an_epoch_size_is_out_of_reach() {
        let shaper = ShaperConfig::rate_mbs(200.0);
        let epoch = Duration::from_secs(2);
        let reach = shaper.burst_bytes + 200e6 * 2.0;
        assert!(unreachable_size(shaper, epoch, 8) as f64 > reach + 8.0 * 65536.0);
        assert_eq!(
            unreachable_size(ShaperConfig::unshaped(), epoch, 8),
            u64::MAX
        );
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
