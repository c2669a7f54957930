//! The striped sender and the one-shot transfers.
//!
//! The payload is deterministic and synthetic (the paper's `/dev/zero`
//! source, made verifiable). `send_blocks`, the one sender loop of both
//! directions, streams it as EBLOCK frames round-robined over the channels
//! by a shared work counter. Optional token-bucket shaping emulates the WAN
//! bottleneck; `resume_from` skips ranges a restart marker reported as
//! already received. [`put`] and [`get`] are one-shot wrappers over a
//! [`Session`], which talks the control protocol.

use crate::block::{self, Block, DEFAULT_BLOCK_BYTES, HEADER_LEN};
use crate::checksum::StripeDigest;
use crate::rangeset::RangeSet;
use crate::session::Session;
use crate::shaper::{ShaperConfig, TokenBucket};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;

/// Deterministic synthetic payload byte at `offset`.
pub const fn payload_byte(offset: u64) -> u8 {
    (offset.wrapping_mul(31).wrapping_add(7) >> 3) as u8
}

/// The synthetic payload's period. [`payload_byte`] keeps bits 3..10 of
/// `offset * 31 + 7`, and those depend only on `offset mod 2048`.
pub(crate) const PERIOD: usize = 2048;

/// Two periods of the payload from offset 0, so that any period-long run
/// of it starts somewhere in the first half: the one source of payload
/// bytes in this crate.
static PAYLOAD: [u8; 2 * PERIOD] = {
    let mut table = [0; 2 * PERIOD];
    let mut i = 0;
    while i < table.len() {
        table[i] = payload_byte(i as u64);
        i += 1;
    }
    table
};

/// The [`PERIOD`] payload bytes from `offset` on. The payload from
/// `offset + k * PERIOD` on is the same slice, so a longer run repeats it.
pub(crate) fn payload_period(offset: u64) -> &'static [u8] {
    let phase = (offset % PERIOD as u64) as usize;
    &PAYLOAD[phase..phase + PERIOD]
}

/// Fill `buf` with the synthetic payload starting at `offset`: byte `i` is
/// `payload_byte(offset.wrapping_add(i))`. Copies [`payload_period`] a
/// period at a time, so no byte is computed.
pub(crate) fn fill_payload(offset: u64, buf: &mut [u8]) {
    let period = payload_period(offset);
    for chunk in buf.chunks_mut(PERIOD) {
        chunk.copy_from_slice(&period[..chunk.len()]);
    }
}

/// Materialize the synthetic payload for `[offset, offset+len)`.
pub fn payload_block(offset: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0; len];
    fill_payload(offset, &mut v);
    v
}

/// Build the EBLOCK data frame of the synthetic payload at
/// `[offset, offset+len)` in `frame`: the header first, then the payload
/// filled in place behind it. Reusing one `frame` per sender thread saves
/// the payload allocation and the copy [`Block::encode`] would make.
pub(crate) fn payload_frame(frame: &mut Vec<u8>, offset: u64, len: usize) {
    frame.resize(HEADER_LEN + len, 0);
    let (header, payload) = frame.split_at_mut(HEADER_LEN);
    header.copy_from_slice(&block::header(0, len as u64, offset));
    fill_payload(offset, payload);
}

/// The digest the receiver should end up with for a complete transfer of
/// `size` bytes in `block_bytes` blocks.
///
/// # Panics
/// Panics if `block_bytes` is zero.
pub fn expected_digest(size: u64, block_bytes: usize) -> u64 {
    StripeDigest::of_generated(size, block_bytes).value()
}

/// Configuration of one `put`.
#[derive(Debug, Clone)]
pub struct PutConfig {
    /// Logical file name on the server.
    pub name: String,
    /// Total size in bytes.
    pub size: u64,
    /// Number of parallel data channels (`np`).
    pub parallelism: u32,
    /// Block payload size in bytes.
    pub block_bytes: usize,
    /// Optional shared rate shaper (the emulated WAN bottleneck).
    pub bucket: Option<Arc<TokenBucket>>,
    /// Ranges already at the server (from a restart marker); skipped.
    pub resume_from: RangeSet,
}

impl PutConfig {
    /// A transfer of `size` bytes named `name`, one channel, 256 KiB blocks.
    pub fn new(name: impl Into<String>, size: u64) -> Self {
        PutConfig {
            name: name.into(),
            size,
            parallelism: 1,
            block_bytes: DEFAULT_BLOCK_BYTES,
            bucket: None,
            resume_from: RangeSet::new(),
        }
    }

    /// Set the number of data channels. A put refuses zero.
    pub fn with_parallelism(mut self, np: u32) -> Self {
        self.parallelism = np;
        self
    }

    /// Set the block size. A put refuses zero.
    pub fn with_block_bytes(mut self, block_bytes: usize) -> Self {
        self.block_bytes = block_bytes;
        self
    }

    /// Attach a shared token bucket.
    pub fn with_bucket(mut self, bucket: Arc<TokenBucket>) -> Self {
        self.bucket = Some(bucket);
        self
    }

    /// Resume: skip ranges the server already holds.
    pub fn with_resume_from(mut self, ranges: RangeSet) -> Self {
        self.resume_from = ranges;
        self
    }
}

/// Outcome of one `put`.
#[derive(Debug, Clone)]
pub struct PutReport {
    /// Payload bytes sent this session (excludes skipped/resumed ranges).
    pub bytes_sent: u64,
    /// Wall time of the data phase, seconds.
    pub elapsed_s: f64,
    /// Aggregate goodput this session, MB/s.
    pub throughput_mbs: f64,
    /// Whether the server confirmed completion (`226`).
    pub complete: bool,
    /// Whether the server's digest matched the expected synthetic payload
    /// digest (only meaningful when `complete`).
    pub verified: bool,
    /// Restart marker returned by the server when incomplete.
    pub marker: Option<RangeSet>,
}

/// Errors from a `put`.
#[derive(Debug)]
pub enum PutError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Unexpected or malformed protocol exchange.
    Protocol(String),
}

impl From<std::io::Error> for PutError {
    fn from(e: std::io::Error) -> Self {
        PutError::Io(e)
    }
}

impl std::fmt::Display for PutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PutError::Io(e) => write!(f, "io error: {e}"),
            PutError::Protocol(s) => write!(f, "protocol error: {s}"),
        }
    }
}
impl std::error::Error for PutError {}

/// Transfer `cfg.size` synthetic bytes to the server at `addr`: a one-shot
/// [`Session`] that connects, puts and quits.
pub fn put(addr: SocketAddr, cfg: PutConfig) -> Result<PutReport, PutError> {
    let mut session = Session::connect(addr)?;
    let report = session.put(&cfg)?;
    let _ = session.quit();
    Ok(report)
}

/// Send the blocks `block_at(0), block_at(1), …` (until `None`) of a
/// `size`-byte synthetic file cut into `block_bytes` blocks, one thread per
/// channel of `conns`. Each thread claims the next unsent block, frames it,
/// waits on its own `channel_cap` bucket and on the shared `bucket`, and
/// writes it, until the blocks run out or `stop()`, then ends its channel
/// with EOD. Returns the payload bytes sent. The one sender of both
/// directions: a put's and the server's `RETR`.
///
/// # Errors
/// The first channel's write error, or an `Other` error if a channel
/// thread panicked.
pub(crate) fn send_blocks(
    conns: &mut [TcpStream],
    block_at: impl Fn(usize) -> Option<u64> + Sync,
    size: u64,
    block_bytes: usize,
    bucket: Option<&TokenBucket>,
    channel_cap: Option<ShaperConfig>,
    stop: impl Fn() -> bool + Sync,
) -> io::Result<u64> {
    let (cursor, sent) = (&AtomicUsize::new(0), &AtomicU64::new(0));
    let (block_at, stop) = (&block_at, &stop);
    std::thread::scope(|scope| {
        let handles = conns
            .iter_mut()
            .map(|conn| {
                scope.spawn(move || -> io::Result<()> {
                    let own = channel_cap.map(TokenBucket::new);
                    let mut frame = Vec::new();
                    while !stop() {
                        let Some(idx) = block_at(cursor.fetch_add(1, Ordering::Relaxed)) else {
                            break;
                        };
                        let offset = idx * block_bytes as u64;
                        let len = ((size - offset) as usize).min(block_bytes);
                        payload_frame(&mut frame, offset, len);
                        if let Some(b) = &own {
                            b.acquire(len);
                        }
                        if let Some(b) = bucket {
                            b.acquire(len);
                        }
                        conn.write_all(&frame)?;
                        sent.fetch_add(len as u64, Ordering::Relaxed);
                    }
                    conn.write_all(&Block::eod().encode())?;
                    conn.flush()
                })
            })
            .collect();
        join_threads(handles, "send channel")
    })?;
    Ok(sent.load(Ordering::Relaxed))
}

/// Join every thread of a scope, then return their results in spawn order
/// or the first error. A panicked thread becomes an `Other` error naming
/// its `role`; joining them all first keeps the scope from re-raising it.
///
/// # Errors
/// The first thread's error, in spawn order.
pub(crate) fn join_threads<T>(
    handles: Vec<ScopedJoinHandle<'_, io::Result<T>>>,
    role: &str,
) -> io::Result<Vec<T>> {
    let joined: Vec<_> = handles.into_iter().map(ScopedJoinHandle::join).collect();
    joined
        .into_iter()
        .map(|r| r.unwrap_or_else(|_| Err(io::Error::other(format!("{role} thread panicked")))))
        .collect()
}

/// Outcome of one `get` (download).
#[derive(Debug, Clone)]
pub struct GetReport {
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Wall time of the data phase, seconds.
    pub elapsed_s: f64,
    /// Aggregate goodput, MB/s.
    pub throughput_mbs: f64,
    /// Whether the received bytes and their folded digest match the file
    /// the server's `226` names.
    pub verified: bool,
}

/// Download `size` synthetic bytes from the server at `addr` over
/// `parallelism` data channels, verifying the stripe digest end to end: a
/// one-shot [`Session`] that connects, gets and quits.
pub fn get(
    addr: SocketAddr,
    name: &str,
    size: u64,
    parallelism: u32,
) -> Result<GetReport, PutError> {
    let mut session = Session::connect(addr)?;
    let report = session.get(name, size, parallelism)?;
    let _ = session.quit();
    Ok(report)
}

/// The synthetic payload for `[offset, offset+len)` computed byte by byte
/// from [`payload_byte`], not read from the table: the reference the
/// table-fed oracle is checked against.
#[cfg(test)]
fn formula_block(offset: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| payload_byte(offset.wrapping_add(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::GridFtpServer;

    #[test]
    fn single_channel_put_verifies() {
        let server = GridFtpServer::start().unwrap();
        let report = put(
            server.control_addr(),
            PutConfig::new("one", 1024 * 1024).with_block_bytes(64 * 1024),
        )
        .unwrap();
        assert!(report.complete);
        assert!(report.verified, "digest mismatch");
        assert_eq!(report.bytes_sent, 1024 * 1024);
        assert!(report.throughput_mbs > 0.0);
    }

    #[test]
    fn striped_put_verifies_across_channels() {
        let server = GridFtpServer::start().unwrap();
        let report = put(
            server.control_addr(),
            PutConfig::new("striped", 4 * 1024 * 1024)
                .with_parallelism(4)
                .with_block_bytes(128 * 1024),
        )
        .unwrap();
        assert!(report.complete && report.verified);
        let state = server.transfer_state("striped").unwrap();
        assert!(state.is_complete());
        assert_eq!(state.ranges.total(), 4 * 1024 * 1024);
    }

    #[test]
    fn odd_sizes_and_small_blocks() {
        let server = GridFtpServer::start().unwrap();
        // Size not a multiple of the block size; final short block.
        let report = put(
            server.control_addr(),
            PutConfig::new("odd", 100_001)
                .with_parallelism(3)
                .with_block_bytes(4096),
        )
        .unwrap();
        assert!(report.complete && report.verified);
    }

    #[test]
    fn shaped_put_is_rate_limited() {
        let server = GridFtpServer::start().unwrap();
        let bucket = Arc::new(TokenBucket::new(ShaperConfig::rate_mbs(20.0)));
        let size = 6 * 1024 * 1024; // ~0.3 s at 20 MB/s
        let report = put(
            server.control_addr(),
            PutConfig::new("shaped", size)
                .with_parallelism(2)
                .with_bucket(bucket),
        )
        .unwrap();
        assert!(report.complete && report.verified);
        assert!(
            report.throughput_mbs < 60.0,
            "2 channels share one 20 MB/s bucket: {:.1}",
            report.throughput_mbs
        );
    }

    #[test]
    fn resume_after_partial_transfer() {
        let server = GridFtpServer::start().unwrap();
        let size = 1024 * 1024u64;
        let block = 64 * 1024usize;

        // First pass: pretend the first half is "already sent" by resuming
        // from a marker covering the *second* half — so only the second half
        // goes over the wire and the server reports the gap.
        let mut fake_done = RangeSet::new();
        fake_done.insert(0, size / 2);
        let first = put(
            server.control_addr(),
            PutConfig::new("resume", size)
                .with_block_bytes(block)
                .with_resume_from(fake_done),
        )
        .unwrap();
        assert!(!first.complete);
        let marker = first.marker.expect("marker expected");
        assert_eq!(marker.complement(size), vec![(0, size / 2)]);
        assert_eq!(first.bytes_sent, size / 2);

        // Second pass: resume from the server's marker; completes + verifies.
        let second = put(
            server.control_addr(),
            PutConfig::new("resume", size)
                .with_block_bytes(block)
                .with_resume_from(marker),
        )
        .unwrap();
        assert!(second.complete, "resume must complete the file");
        assert!(second.verified, "digest must match after reassembly");
        assert_eq!(second.bytes_sent, size / 2);
    }

    /// What a one-shot put says on the wire, against a scripted server:
    /// OPTS, SPAS, STOR, the data on one channel, then QUIT.
    #[test]
    fn one_shot_put_sends_opts_spas_stor_data_then_quit() {
        use crate::proto::{Command, Reply};
        use crate::recv::{End, StripeFold};
        use std::io::{BufRead, BufReader};
        use std::net::TcpListener;
        let control = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = control.local_addr().unwrap();
        let script = std::thread::spawn(move || {
            let (stream, _) = control.accept().unwrap();
            let mut w = stream.try_clone().unwrap();
            let mut r = BufReader::new(stream);
            let data = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut reply = |code, text: String| writeln!(w, "{}", Reply { code, text }).unwrap();
            reply(220, "ready".into());
            let (mut seen, mut line) = (Vec::new(), String::new());
            while r.read_line(&mut line).unwrap() > 0 {
                let cmd: Command = line.parse().unwrap();
                line.clear();
                seen.push(cmd.clone());
                match cmd {
                    Command::OptsParallelism(_) => reply(200, "ok".into()),
                    Command::Spas => {
                        let spas = Reply::spas(&[data.local_addr().unwrap().port()]);
                        reply(spas.code, spas.text);
                    }
                    Command::Stor { .. } => {
                        reply(150, "go".into());
                        let (mut conn, _) = data.accept().unwrap();
                        let mut fold = StripeFold::new();
                        assert_eq!(fold.receive(&mut conn, || false).unwrap(), End::Eod);
                        let done = Reply::complete(fold.bytes, fold.digest.value());
                        reply(done.code, done.text);
                    }
                    Command::Quit => {
                        reply(221, "bye".into());
                        break;
                    }
                    _ => reply(500, "unexpected".into()),
                }
            }
            seen
        });
        let size = 300_000;
        let r = put(addr, PutConfig::new("wire", size)).unwrap();
        assert!(r.complete && r.verified, "{r:?}");
        let stor = Command::Stor {
            name: "wire".into(),
            size,
        };
        assert_eq!(
            script.join().unwrap(),
            [
                Command::OptsParallelism(1),
                Command::Spas,
                stor,
                Command::Quit
            ]
        );
    }

    /// Frames larger than the receiver's staging buffer (which grows for
    /// them) and small odd frames (many per buffer, short tail) both verify.
    #[test]
    fn put_verifies_with_oversized_and_small_odd_blocks() {
        let server = GridFtpServer::start().unwrap();
        for (block, size) in [(3 << 20, (7 << 20) + 5), (4097, (1 << 20) + 3)] {
            let report = put(
                server.control_addr(),
                PutConfig::new(format!("b{block}"), size)
                    .with_parallelism(2)
                    .with_block_bytes(block),
            )
            .unwrap();
            assert!(report.complete && report.verified, "block {block}");
            assert_eq!(report.bytes_sent, size);
            let state = server.transfer_state(&format!("b{block}")).unwrap();
            assert_eq!(state.bytes, size);
        }
    }

    /// RETR sends 256 KiB blocks: a size with an odd tail leaves the
    /// receivers with lane-group leftovers and one short block.
    #[test]
    fn get_verifies_with_group_leftovers_and_a_short_tail() {
        let server = GridFtpServer::start().unwrap();
        let size = (3 << 20) + 4097;
        let r = get(server.control_addr(), "odd", size, 2).unwrap();
        assert!(r.verified, "download digest mismatch");
        assert_eq!(r.bytes_received, size);
    }

    /// A get whose server shuts down mid-transfer holds part of the file,
    /// and the server vouches only for the whole file it was asked to send,
    /// so the get must not verify. 1 GiB outlasts the 100 ms before the
    /// drop in debug and release builds alike.
    #[test]
    fn a_get_cut_short_does_not_verify() {
        let server = GridFtpServer::start().unwrap();
        let addr = server.control_addr();
        let size = 1 << 30;
        let dropper = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(100));
            drop(server);
        });
        let r = get(addr, "cut", size, 2).unwrap();
        dropper.join().unwrap();
        assert!(r.bytes_received < size, "{r:?}");
        assert!(!r.verified, "{r:?}");
    }

    #[test]
    fn get_single_channel_verifies() {
        let server = GridFtpServer::start().unwrap();
        let r = get(server.control_addr(), "dl", 1024 * 1024, 1).unwrap();
        assert!(r.verified, "download digest mismatch");
        assert_eq!(r.bytes_received, 1024 * 1024);
        assert!(r.throughput_mbs > 0.0);
    }

    #[test]
    fn get_striped_verifies() {
        let server = GridFtpServer::start().unwrap();
        let r = get(server.control_addr(), "dl4", 4 * 1024 * 1024, 4).unwrap();
        assert!(r.verified);
        assert_eq!(r.bytes_received, 4 * 1024 * 1024);
    }

    /// A 256 MiB get, the socket-put size, so the server's `226` carries
    /// the all-core oracle's digest; too slow unoptimized, so
    /// `scripts/ci.sh` runs it in release.
    #[test]
    #[ignore = "256 MiB: run with --release --ignored"]
    fn get_verifies_at_full_size() {
        let size = 256 * 1024 * 1024;
        let server = GridFtpServer::start().unwrap();
        let r = get(server.control_addr(), "full", size, 2).unwrap();
        assert!(r.verified);
        assert_eq!(r.bytes_received, size);
    }

    #[test]
    fn get_zero_size_is_trivially_complete() {
        let server = GridFtpServer::start().unwrap();
        let r = get(server.control_addr(), "empty", 0, 2).unwrap();
        assert!(r.verified);
        assert_eq!(r.bytes_received, 0);
    }

    #[test]
    fn put_then_get_round_trip_same_server() {
        let server = GridFtpServer::start().unwrap();
        let up = put(
            server.control_addr(),
            PutConfig::new("both", 512 * 1024).with_parallelism(2),
        )
        .unwrap();
        assert!(up.complete && up.verified);
        let down = get(server.control_addr(), "both", 512 * 1024, 2).unwrap();
        assert!(down.verified);
    }

    #[test]
    fn synthetic_payload_is_deterministic() {
        let a = payload_block(12345, 100);
        let b = payload_block(12345, 100);
        assert_eq!(a, b);
        let c = payload_block(12346, 100);
        assert_ne!(a, c);
        assert_eq!(expected_digest(1000, 64), expected_digest(1000, 64));
    }

    /// The table fill equals the formula at every phase, both near offset
    /// 0 and where the offset wraps past `u64::MAX`, at lengths short of a
    /// word, around one period and around two.
    #[test]
    fn fill_payload_is_payload_byte_at_every_phase() {
        const LENS: [usize; 17] = [
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 2047, 2048, 2049, 4095, 4096, 4097, 4100,
        ];
        let mut buf = [0u8; 4100];
        for offset in (0..PERIOD as u64).chain(u64::MAX - (PERIOD as u64 - 1)..=u64::MAX) {
            let want: Vec<u8> = (0..buf.len() as u64)
                .map(|i| payload_byte(offset.wrapping_add(i)))
                .collect();
            for len in LENS {
                fill_payload(offset, &mut buf[..len]);
                assert_eq!(buf[..len], want[..len], "offset {offset} len {len}");
            }
        }
    }

    /// Digests of the synthetic payload. A sender compares these against
    /// the receiver's per-block fold, so they change only with the digest
    /// definition, as a re-pin recorded in CHANGES.md.
    #[test]
    fn expected_digest_values_are_pinned() {
        assert_eq!(expected_digest(1000, 64), 0x06f2_91c1_f34a_c143);
        assert_eq!(expected_digest(8_388_608, 262_144), 0x5071_f94d_a3a7_d844);
        assert_eq!(expected_digest(2_359_313, 262_144), 0x5725_6f12_6aed_2369);
        assert_eq!(expected_digest(0, 64), 0);
    }

    /// The full 256 MiB put size against the scalar fold of the formula's
    /// bytes; too slow unoptimized, so `scripts/ci.sh` runs it in release.
    #[test]
    #[ignore = "256 MiB: run with --release --ignored"]
    fn expected_digest_matches_scalar_fold_at_full_size() {
        let (size, block) = (256 * 1024 * 1024, 256 * 1024);
        let mut scalar = StripeDigest::new();
        for off in (0..size).step_by(block) {
            scalar.add_block(off, &formula_block(off, block));
        }
        assert_eq!(scalar.value(), 0xba10_b4dd_cb65_4702);
        assert_eq!(expected_digest(size, block), scalar.value());
    }

    /// The all-core oracle against the forced one-thread path at the full
    /// put size. Timing ratios only mean something optimized, so
    /// `scripts/ci.sh` runs it in release.
    #[test]
    #[ignore = "timing gate: run with --release --ignored"]
    fn expected_digest_uses_every_core_at_full_size() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores < 2 {
            println!("skipped: available_parallelism() = {cores}, no second core to split onto");
            return;
        }
        let (size, block) = (256 * 1024 * 1024, 256 * 1024);
        let secs = |f: &dyn Fn() -> u64| {
            let start = std::time::Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        };
        // Best of 7 interleaved rounds, so a burst of load on a shared
        // machine hits both sides alike. A neighbour that holds the second
        // core for a whole attempt (about a second) defeats that, so up to
        // 3 attempts run, about a second apart, and one reaching the bound
        // passes.
        let mut ratios = Vec::new();
        for attempt in 1..=3 {
            if attempt > 1 {
                std::thread::sleep(std::time::Duration::from_secs(1));
            }
            let (mut one, mut all) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..7 {
                one = one.min(secs(&|| {
                    StripeDigest::of_generated_on(size, block, 1).value()
                }));
                all = all.min(secs(&|| expected_digest(size, block)));
            }
            println!(
                "expected_digest at 256 MiB, attempt {attempt}: 1 thread {:.1} ms, \
                 {cores} cores {:.1} ms ({:.2}x)",
                one * 1e3,
                all * 1e3,
                one / all
            );
            ratios.push(one / all);
            if one / all >= 1.4 {
                return;
            }
        }
        panic!("all-core oracle below 1.4x the 1-thread path in every attempt: {ratios:.2?}");
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn expected_digest_rejects_a_zero_block() {
        expected_digest(1, 0);
    }

    #[test]
    fn zero_block_put_is_a_protocol_error() {
        let server = GridFtpServer::start().unwrap();
        match put(
            server.control_addr(),
            PutConfig::new("zero", 1024).with_block_bytes(0),
        ) {
            Err(PutError::Protocol(msg)) => assert!(msg.contains("block size"), "{msg}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn payload_frame_is_the_encoded_block() {
        let mut frame = Vec::new();
        for (offset, len) in [(0, 300), (77, 5), (u64::MAX - 2, 9), (4096, 0)] {
            payload_frame(&mut frame, offset, len);
            let block = Block::data(offset, payload_block(offset, len)).encode();
            assert_eq!(frame[..], block[..], "offset {offset} len {len}");
        }
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
    fn concurrency_via_multiple_sessions() {
        // The paper's nc: independent sessions transferring distinct names.
        let server = GridFtpServer::start().unwrap();
        let addr = server.control_addr();
        let reports: Vec<PutReport> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    s.spawn(move || {
                        put(
                            addr,
                            PutConfig::new(format!("nc{i}"), 512 * 1024)
                                .with_parallelism(2)
                                .with_block_bytes(32 * 1024),
                        )
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(reports.iter().all(|r| r.complete && r.verified));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Lanes, lane remainder and tail together equal the scalar fold of
        /// the formula's blocks, for any block size and block count.
        #[test]
        fn expected_digest_equals_scalar_fold(
            block in prop_oneof![1usize..64, 1usize..300 * 1024],
            full_blocks in 0u64..14,
            tail in 0usize..300 * 1024,
        ) {
            let size = (full_blocks * block as u64 + (tail % block) as u64).min(4 << 20);
            let mut scalar = StripeDigest::new();
            let mut off = 0u64;
            while off < size {
                let len = ((size - off) as usize).min(block);
                scalar.add_block(off, &formula_block(off, len));
                off += len as u64;
            }
            prop_assert_eq!(expected_digest(size, block), scalar.value(), "size {} block {}", size, block);
        }

        /// The split across threads equals the scalar fold for every
        /// thread count, with lane remainders, a short tail and fewer
        /// groups than threads. At these sizes `expected_digest` itself
        /// stays on one thread, so `of_generated_on` forces the count.
        #[test]
        fn split_fold_equals_scalar_fold_on_any_thread_count(
            block in prop_oneof![1usize..64, 1usize..8 * 1024],
            full_blocks in 0u64..40,
            tail in 0usize..8 * 1024,
        ) {
            let size = full_blocks * block as u64 + (tail % block) as u64;
            let mut scalar = StripeDigest::new();
            let mut off = 0u64;
            while off < size {
                let len = ((size - off) as usize).min(block);
                scalar.add_block(off, &formula_block(off, len));
                off += len as u64;
            }
            for threads in 1..=5 {
                let split = StripeDigest::of_generated_on(size, block, threads);
                prop_assert_eq!(split, scalar, "size {} block {} threads {}", size, block, threads);
            }
        }

        #[test]
        fn payload_block_is_payload_byte_at_each_offset(
            offset in prop_oneof![any::<u64>(), (u64::MAX - 4096)..=u64::MAX],
            len in 0usize..4096,
        ) {
            let block = payload_block(offset, len);
            prop_assert_eq!(block.len(), len);
            for (i, &b) in block.iter().enumerate() {
                prop_assert_eq!(b, payload_byte(offset.wrapping_add(i as u64)), "offset {} + {}", offset, i);
            }
        }
    }
}
