//! Persistent control sessions: the paper's future work #2, and the one
//! client of the control protocol.
//!
//! The paper's tuners restart `globus-url-copy` at every control epoch,
//! paying executable-load/buffer/thread costs that eat 17–50 % of
//! throughput; its future work asks for "ways to reduce the restart overhead
//! to increase the responsiveness of the proposed methods". A persistent
//! [`Session`] does exactly that: the control connection, authentication,
//! and option state survive across transfers, so changing parallelism costs
//! one `OPTS` + `SPAS` round trip instead of a fresh process launch.
//!
//! Every transfer, in either direction, goes through one negotiation step:
//! `OPTS PARALLELISM` + `SPAS` only when `np` changed, then `STOR` or `RETR`
//! and its `150`, then connecting any new data channels. The one-shot
//! [`crate::client::put`] and [`crate::client::get`] wrap a session of one
//! transfer, so comparing per-put wall time against them quantifies the
//! saved overhead on real sockets.

use crate::block::{Block, DEFAULT_BLOCK_BYTES};
use crate::checksum::StripeDigest;
use crate::client::{
    expected_digest, join_threads, send_blocks, GetReport, PutConfig, PutError, PutReport,
};
use crate::proto::{Command, ParseError, Reply};
use crate::rangeset::RangeSet;
use crate::recv::{End, StripeFold};
use crate::shaper::ShaperConfig;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// A persistent control-channel session with cached data channels.
#[derive(Debug)]
pub struct Session {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Cached data connections, reused across transfers in both directions
    /// while the parallelism is unchanged (GridFTP data-channel caching).
    data_conns: Vec<TcpStream>,
    puts: u64,
}

fn protocol(e: ParseError) -> PutError {
    PutError::Protocol(e.to_string())
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> Result<Reply, PutError> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(PutError::Protocol(
            "server closed the control channel".into(),
        ));
    }
    line.parse().map_err(protocol)
}

/// Open one data connection to each of `ports` on localhost.
fn connect_channels(ports: &[u16]) -> io::Result<Vec<TcpStream>> {
    ports
        .iter()
        .map(|&port| {
            let conn = TcpStream::connect(("127.0.0.1", port))?;
            conn.set_nodelay(true)?;
            Ok(conn)
        })
        .collect()
}

impl Session {
    /// Connect and consume the greeting.
    pub fn connect(addr: SocketAddr) -> Result<Self, PutError> {
        let control = TcpStream::connect(addr)?;
        control.set_nodelay(true)?;
        let writer = control.try_clone()?;
        let mut reader = BufReader::new(control);
        let greeting = read_reply(&mut reader)?;
        if greeting.code != 220 {
            return Err(PutError::Protocol(format!("bad greeting: {greeting}")));
        }
        Ok(Session {
            writer,
            reader,
            data_conns: Vec::new(),
            puts: 0,
        })
    }

    /// Number of puts completed in this session.
    pub fn puts(&self) -> u64 {
        self.puts
    }

    /// Number of currently cached data channels.
    pub fn cached_channels(&self) -> usize {
        self.data_conns.len()
    }

    fn command(&mut self, cmd: &Command) -> Result<Reply, PutError> {
        writeln!(self.writer, "{cmd}")?;
        self.writer.flush()?;
        read_reply(&mut self.reader)
    }

    /// Start the data phase of `cmd` (a `STOR` or `RETR`) on `np` channels
    /// of `block_bytes` blocks, and return the instant it started.
    ///
    /// The channels are renegotiated (`OPTS` + `SPAS`) only when `np`
    /// differs from the cached count; otherwise the cached connections
    /// carry the transfer with no setup. New channels connect after the
    /// `150`, because the server only accepts them during a transfer, and
    /// inside the data phase, so a one-shot put times its connects.
    fn open(&mut self, cmd: &Command, np: u32, block_bytes: usize) -> Result<Instant, PutError> {
        if np == 0 {
            return Err(PutError::Protocol(
                "parallelism must be positive, got 0".into(),
            ));
        }
        if block_bytes == 0 {
            return Err(PutError::Protocol(
                "block size must be positive, got 0".into(),
            ));
        }
        let ports = if self.data_conns.len() != np as usize {
            self.data_conns.clear();
            let r = self.command(&Command::OptsParallelism(np))?;
            if !r.is_success() {
                return Err(PutError::Protocol(format!("OPTS rejected: {r}")));
            }
            let ports = self
                .command(&Command::Spas)?
                .parse_spas_ports()
                .map_err(protocol)?;
            if ports.len() != np as usize {
                return Err(PutError::Protocol(format!(
                    "expected {np} data ports, got {}",
                    ports.len()
                )));
            }
            Some(ports)
        } else {
            None
        };
        let r = self.command(cmd)?;
        if r.code != 150 {
            return Err(PutError::Protocol(format!("{cmd} rejected: {r}")));
        }
        let start = Instant::now();
        if let Some(ports) = ports {
            self.data_conns = connect_channels(&ports)?;
        }
        Ok(start)
    }

    /// Transfer `cfg.size` synthetic bytes as `cfg.name` over
    /// `cfg.parallelism` channels, shaped by `cfg.bucket`, skipping every
    /// block `cfg.resume_from` already covers. No process restart: only an
    /// `OPTS` + `SPAS` exchange when the parallelism changed.
    ///
    /// # Errors
    /// [`PutError::Protocol`] for a zero parallelism or block size, before
    /// any command is sent; otherwise a socket or protocol failure.
    pub fn put(&mut self, cfg: &PutConfig) -> Result<PutReport, PutError> {
        self.put_until(cfg, None, || false)
    }

    /// [`Session::put`] with every channel also shaped by its own
    /// `channel_cap` bucket, and cut short once `stop()` holds: the data
    /// phase ends with EOD on every channel, and the server answers a put
    /// that left part of the file unsent with a `111` marker.
    pub(crate) fn put_until(
        &mut self,
        cfg: &PutConfig,
        channel_cap: Option<ShaperConfig>,
        stop: impl Fn() -> bool + Sync,
    ) -> Result<PutReport, PutError> {
        let stor = Command::Stor {
            name: cfg.name.clone(),
            size: cfg.size,
        };
        let start = self.open(&stor, cfg.parallelism, cfg.block_bytes)?;
        let block = cfg.block_bytes as u64;
        let blocks = cfg.size.div_ceil(block);
        // Only a restart marker needs the list of blocks left to send;
        // without one, the `i`th block to send is block `i`.
        let todo: Option<Vec<u64>> = (!cfg.resume_from.is_empty()).then(|| {
            (0..blocks)
                .filter(|&i| {
                    !cfg.resume_from
                        .covers(i * block, (i * block + block).min(cfg.size))
                })
                .collect()
        });
        let bytes_sent = send_blocks(
            &mut self.data_conns,
            |i| match &todo {
                Some(todo) => todo.get(i).copied(),
                None => Some(i as u64).filter(|&b| b < blocks),
            },
            cfg.size,
            cfg.block_bytes,
            cfg.bucket.as_deref(),
            channel_cap,
            stop,
        )?;
        let elapsed_s = start.elapsed().as_secs_f64();

        // Final reply: 226 on completion, 111 marker otherwise.
        let final_reply = read_reply(&mut self.reader)?;
        self.puts += 1;
        let (complete, verified, marker) = match final_reply.code {
            226 => {
                let (_, digest) = final_reply.parse_complete().map_err(protocol)?;
                let expected = expected_digest(cfg.size, cfg.block_bytes);
                (true, digest == expected, None)
            }
            111 => (
                false,
                false,
                Some(final_reply.parse_marker().map_err(protocol)?),
            ),
            _ => {
                return Err(PutError::Protocol(format!(
                    "unexpected final reply: {final_reply}"
                )))
            }
        };
        Ok(PutReport {
            bytes_sent,
            elapsed_s,
            throughput_mbs: bytes_sent as f64 / elapsed_s.max(1e-9) / 1e6,
            complete,
            verified,
            marker,
        })
    }

    /// Download `size` synthetic bytes as `name` over `np` channels and
    /// check them against the server's `226`, which names the file it was
    /// asked to send; any other final reply leaves the get unverified.
    /// Channels that end with EOD stay cached for the next transfer in
    /// either direction.
    ///
    /// # Errors
    /// [`PutError::Protocol`] for a zero parallelism, before any command is
    /// sent; otherwise a socket or protocol failure.
    pub fn get(&mut self, name: &str, size: u64, np: u32) -> Result<GetReport, PutError> {
        let retr = Command::Retr {
            name: name.to_string(),
            size,
        };
        let start = self.open(&retr, np, DEFAULT_BLOCK_BYTES)?;
        let folds = std::thread::scope(|scope| {
            let handles = self
                .data_conns
                .iter_mut()
                .map(|conn| {
                    scope.spawn(move || -> io::Result<(End, StripeDigest, u64)> {
                        let mut fold = StripeFold::new();
                        let end = fold.receive(conn, || false)?;
                        Ok((end, fold.digest, fold.bytes))
                    })
                })
                .collect();
            join_threads(handles, "get channel")
        })?;
        let elapsed_s = start.elapsed().as_secs_f64();
        if folds.iter().any(|&(end, ..)| end != End::Eod) {
            self.data_conns.clear();
        }

        let final_reply = read_reply(&mut self.reader)?;
        let mut digest = StripeDigest::new();
        let mut bytes_received = 0u64;
        for (_, d, b) in folds {
            digest.merge(d);
            bytes_received += b;
        }
        Ok(GetReport {
            bytes_received,
            elapsed_s,
            throughput_mbs: bytes_received as f64 / elapsed_s.max(1e-9) / 1e6,
            verified: final_reply
                .parse_complete()
                .is_ok_and(|(b, d)| (b, d) == (bytes_received, digest.value())),
        })
    }

    /// Request the restart marker for the session's most recent transfer.
    pub fn marker(&mut self) -> Result<RangeSet, PutError> {
        self.command(&Command::MarkerRequest)?
            .parse_marker()
            .map_err(protocol)
    }

    /// Politely close the session: EOF every cached data channel, then QUIT.
    pub fn quit(mut self) -> Result<(), PutError> {
        for mut c in self.data_conns.drain(..) {
            let _ = c.write_all(&Block::eof().encode());
        }
        let r = self.command(&Command::Quit)?;
        if r.code != 221 {
            return Err(PutError::Protocol(format!("QUIT rejected: {r}")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::GridFtpServer;

    fn cfg(name: &str, size: u64, np: u32, block_bytes: usize) -> PutConfig {
        PutConfig::new(name, size)
            .with_parallelism(np)
            .with_block_bytes(block_bytes)
    }

    fn assert_protocol_error<T: std::fmt::Debug>(r: Result<T, PutError>, needle: &str) {
        match r {
            Err(PutError::Protocol(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected a protocol error naming {needle}, got {other:?}"),
        }
    }

    #[test]
    fn many_puts_over_one_session() {
        let server = GridFtpServer::start().unwrap();
        let mut s = Session::connect(server.control_addr()).unwrap();
        for i in 0..5 {
            let report = s
                .put(&cfg(&format!("epoch{i}"), 256 * 1024, 2, 32 * 1024))
                .unwrap();
            assert!(report.complete && report.verified, "epoch {i}");
        }
        assert_eq!(s.puts(), 5);
        s.quit().unwrap();
    }

    #[test]
    fn parallelism_changes_mid_session() {
        let server = GridFtpServer::start().unwrap();
        let mut s = Session::connect(server.control_addr()).unwrap();
        for np in [1u32, 4, 2, 8] {
            let report = s
                .put(&cfg(&format!("np{np}"), 512 * 1024, np, 64 * 1024))
                .unwrap();
            assert!(report.complete && report.verified, "np={np}");
        }
        s.quit().unwrap();
    }

    #[test]
    fn data_channels_are_cached_across_puts() {
        let server = GridFtpServer::start().unwrap();
        let mut s = Session::connect(server.control_addr()).unwrap();
        assert_eq!(s.cached_channels(), 0);
        s.put(&cfg("a", 128 * 1024, 3, 32 * 1024)).unwrap();
        assert_eq!(s.cached_channels(), 3, "channels survive the first put");
        let r = s.put(&cfg("b", 128 * 1024, 3, 32 * 1024)).unwrap();
        assert!(
            r.complete && r.verified,
            "cached channels must still verify"
        );
        assert_eq!(s.cached_channels(), 3);
        // Changing np renegotiates.
        let r = s.put(&cfg("c", 128 * 1024, 5, 32 * 1024)).unwrap();
        assert!(r.complete && r.verified);
        assert_eq!(s.cached_channels(), 5);
        s.quit().unwrap();
    }

    /// The cached channels carry transfers in both directions: a put, a
    /// get of the same file and another put, all at one parallelism.
    #[test]
    fn channels_are_reused_across_directions() {
        let server = GridFtpServer::start().unwrap();
        let mut s = Session::connect(server.control_addr()).unwrap();
        let size = (1 << 20) + 17;
        let up = s
            .put(&PutConfig::new("both", size).with_parallelism(3))
            .unwrap();
        assert!(up.complete && up.verified, "{up:?}");
        assert_eq!(s.cached_channels(), 3);
        let down = s.get("both", size, 3).unwrap();
        assert!(down.verified, "{down:?}");
        assert_eq!(down.bytes_received, size);
        assert_eq!(s.cached_channels(), 3, "a get keeps the channels");
        let again = s
            .put(&PutConfig::new("again", size).with_parallelism(3))
            .unwrap();
        assert!(again.complete && again.verified, "{again:?}");
        assert_eq!(s.cached_channels(), 3);
        s.quit().unwrap();
    }

    /// A put through a session sends only what its marker lacks.
    #[test]
    fn session_put_resumes_from_a_marker() {
        let server = GridFtpServer::start().unwrap();
        let mut s = Session::connect(server.control_addr()).unwrap();
        let (size, block) = (1024 * 1024u64, 64 * 1024);
        let mut first_half = RangeSet::new();
        first_half.insert(0, size / 2);
        let first = s
            .put(&cfg("resume", size, 2, block).with_resume_from(first_half))
            .unwrap();
        assert!(!first.complete);
        assert_eq!(first.bytes_sent, size / 2);
        let marker = first.marker.expect("marker expected");
        assert_eq!(marker.complement(size), vec![(0, size / 2)]);

        let second = s
            .put(&cfg("resume", size, 2, block).with_resume_from(marker))
            .unwrap();
        assert!(second.complete && second.verified, "{second:?}");
        assert_eq!(second.bytes_sent, size / 2);
        s.quit().unwrap();
    }

    #[test]
    fn session_marker_reflects_last_transfer() {
        let server = GridFtpServer::start().unwrap();
        let mut s = Session::connect(server.control_addr()).unwrap();
        s.put(&cfg("whole", 128 * 1024, 1, 32 * 1024)).unwrap();
        let m = s.marker().unwrap();
        assert!(m.covers(0, 128 * 1024));
    }

    #[test]
    fn session_beats_reconnect_per_epoch() {
        // Future work #2 quantified: N small transfers through one session
        // vs N cold `put` calls. The session amortizes connect+greeting+OPTS,
        // so it must not be slower (and is usually faster); assert a
        // conservative bound to stay robust on loaded CI machines.
        let server = GridFtpServer::start().unwrap();
        let addr = server.control_addr();
        let n = 6;
        let size = 128 * 1024u64;

        let t0 = Instant::now();
        let mut s = Session::connect(addr).unwrap();
        for i in 0..n {
            s.put(&cfg(&format!("warm{i}"), size, 2, 32 * 1024))
                .unwrap();
        }
        s.quit().unwrap();
        let warm = t0.elapsed();

        let t0 = Instant::now();
        for i in 0..n {
            crate::client::put(addr, cfg(&format!("cold{i}"), size, 2, 32 * 1024)).unwrap();
        }
        let cold = t0.elapsed();

        assert!(
            warm.as_secs_f64() < cold.as_secs_f64() * 1.5,
            "persistent session should not lose badly: warm={warm:?} cold={cold:?}"
        );
    }

    /// Zero channels or a zero block size is refused before any command
    /// goes out, so the session stays usable.
    #[test]
    fn zero_np_rejected() {
        let server = GridFtpServer::start().unwrap();
        let mut s = Session::connect(server.control_addr()).unwrap();
        let zero_np = PutConfig::new("x", 10).with_parallelism(0);
        assert_protocol_error(s.put(&zero_np), "parallelism");
        assert_protocol_error(s.get("x", 10, 0), "parallelism");
        let zero_block = PutConfig::new("x", 10).with_block_bytes(0);
        assert_protocol_error(s.put(&zero_block), "block size");
        let r = s.put(&PutConfig::new("x", 10)).unwrap();
        assert!(r.complete && r.verified, "{r:?}");
        s.quit().unwrap();
    }
}
