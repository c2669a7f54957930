//! The client side: `nc × np` real TCP streams pushing bytes for one epoch.
//!
//! Mirrors the paper's wrapper around `globus-url-copy`: `nc` worker groups
//! (processes, there; thread groups, here) each drive `np` TCP streams. All
//! streams pull send-permits from the shared [`TokenBucket`], so they
//! contend for one bottleneck exactly like parallel WAN streams do.

use crate::shaper::TokenBucket;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

/// Chunk size each stream writes per send (64 KiB, a typical GridFTP block).
pub const CHUNK_BYTES: usize = 64 * 1024;

/// Run one control epoch: `nc × np` streams to `addr` for `epoch`, shaped by
/// the shared `bucket`, and each stream also by its own `per_stream_mbs`
/// bucket if given. Returns the aggregate throughput in MB/s.
///
/// Stream setup (connect) happens inside the epoch — the analogue of the
/// paper's restart overhead: more streams cost more setup time out of the
/// same epoch. A per-stream cap well below the shared bucket is the
/// real-socket analogue of a per-stream TCP window cap: parallel streams
/// genuinely pay, so the tuners' objective has the paper's rising segment
/// on real sockets too.
///
/// # Panics
/// Panics if `nc` or `np` is zero or the epoch is zero-length.
pub fn measure_epoch(
    addr: SocketAddr,
    nc: u32,
    np: u32,
    epoch: Duration,
    bucket: &TokenBucket,
    per_stream_mbs: Option<f64>,
) -> io::Result<f64> {
    assert!(nc > 0 && np > 0, "need at least one stream");
    assert!(!epoch.is_zero(), "epoch must be positive");
    let streams = (nc * np) as usize;
    let sent = &AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + epoch;
    // One zeroed chunk, borrowed by every stream.
    let payload = vec![0u8; CHUNK_BYTES];
    let payload = payload.as_slice();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..streams)
            .map(|_| {
                let own_bucket = per_stream_mbs
                    .map(|mbs| TokenBucket::new(crate::shaper::ShaperConfig::rate_mbs(mbs)));
                scope.spawn(move || -> io::Result<()> {
                    let mut stream = TcpStream::connect(addr)?;
                    stream.set_nodelay(true)?;
                    stream.set_write_timeout(Some(Duration::from_millis(200)))?;
                    while Instant::now() < deadline {
                        if let Some(b) = &own_bucket {
                            b.acquire(payload.len());
                        }
                        bucket.acquire(payload.len());
                        match stream.write_all(payload) {
                            Ok(()) => {
                                sent.fetch_add(payload.len() as u64, Ordering::Relaxed);
                            }
                            Err(ref e)
                                if e.kind() == io::ErrorKind::WouldBlock
                                    || e.kind() == io::ErrorKind::TimedOut =>
                            {
                                continue;
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        join_threads(handles, "loopback stream")
    })?;

    let secs = start.elapsed().as_secs_f64();
    Ok(sent.load(Ordering::Relaxed) as f64 / secs / 1e6)
}

/// Join every thread of a scope, then return their results in spawn order
/// or the first error. A panicked thread becomes an `Other` error naming
/// its `role`; joining them all first keeps the scope from re-raising it.
///
/// # Errors
/// The first thread's error, in spawn order.
pub fn join_threads<T>(
    handles: Vec<ScopedJoinHandle<'_, io::Result<T>>>,
    role: &str,
) -> io::Result<Vec<T>> {
    let joined: Vec<_> = handles.into_iter().map(ScopedJoinHandle::join).collect();
    joined
        .into_iter()
        .map(|r| r.unwrap_or_else(|_| Err(io::Error::other(format!("{role} thread panicked")))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SinkServer;
    use crate::shaper::ShaperConfig;

    #[test]
    fn single_stream_moves_bytes() {
        let server = SinkServer::start().unwrap();
        let bucket = TokenBucket::new(ShaperConfig::unshaped());
        let mbs = measure_epoch(
            server.addr(),
            1,
            1,
            Duration::from_millis(200),
            &bucket,
            None,
        )
        .unwrap();
        assert!(
            mbs > 1.0,
            "loopback single stream should move >1 MB/s: {mbs}"
        );
    }

    #[test]
    fn aggregate_respects_shared_bucket() {
        let server = SinkServer::start().unwrap();
        let bucket = TokenBucket::new(ShaperConfig::rate_mbs(30.0));
        let mbs = measure_epoch(
            server.addr(),
            2,
            4,
            Duration::from_millis(500),
            &bucket,
            None,
        )
        .unwrap();
        assert!(mbs < 90.0, "8 streams share one 30 MB/s bucket: {mbs}");
        assert!(mbs > 5.0, "but they should still move data: {mbs}");
    }

    #[test]
    fn per_stream_cap_makes_parallelism_pay() {
        // With a 10 MB/s per-stream cap under an ample shared bucket, four
        // streams must clearly beat one — the rising segment, on sockets.
        let server = SinkServer::start().unwrap();
        let bucket = TokenBucket::new(ShaperConfig::rate_mbs(500.0));
        let epoch = Duration::from_millis(400);
        let one = measure_epoch(server.addr(), 1, 1, epoch, &bucket, Some(10.0)).unwrap();
        let four = measure_epoch(server.addr(), 4, 1, epoch, &bucket, Some(10.0)).unwrap();
        assert!(
            four > 2.0 * one,
            "parallelism must pay under per-stream caps: {one:.1} -> {four:.1}"
        );
    }

    #[test]
    #[should_panic(expected = "need at least one stream")]
    fn zero_streams_rejected() {
        let server = SinkServer::start().unwrap();
        let bucket = TokenBucket::new(ShaperConfig::unshaped());
        let _ = measure_epoch(
            server.addr(),
            0,
            1,
            Duration::from_millis(10),
            &bucket,
            None,
        );
    }

    /// A thread that panics surfaces as an error naming its role, after
    /// the other threads are joined, not as a process abort.
    #[test]
    fn a_panicked_thread_is_an_io_error() {
        let err = std::thread::scope(|s| {
            let handles = vec![
                s.spawn(|| -> io::Result<u32> { panic!("stream fault") }),
                s.spawn(|| Ok(2)),
            ];
            join_threads(handles, "put channel")
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert_eq!(err.to_string(), "put channel thread panicked");
    }

    #[test]
    fn connect_failure_is_reported() {
        // A port with (almost certainly) no listener.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let bucket = TokenBucket::new(ShaperConfig::unshaped());
        let r = measure_epoch(addr, 1, 1, Duration::from_millis(10), &bucket, None);
        assert!(r.is_err());
    }
}
