//! The striped receiver.
//!
//! One control listener; per `SPAS`, a set of ephemeral data listeners; per
//! `STOR`, one reader thread per data channel folding EBLOCK frames into a
//! shared `(RangeSet, StripeDigest, byte count)` — payloads are discarded
//! (memory-to-memory, the paper's `/dev/null` destination). When every
//! channel has signalled EOD the server replies `226` if the byte ranges
//! cover the declared size, or a `111` restart marker if they do not (the
//! client may reconnect and send the complement). Per `RETR`, the same
//! channels carry the synthetic file back through the client's sender loop
//! (`client::send_blocks`). Both directions keep their channels cached for
//! the session's next transfer.

use crate::block::DEFAULT_BLOCK_BYTES as BLOCK;
use crate::checksum::StripeDigest;
use crate::client::{expected_digest, join_threads, send_blocks};
use crate::proto::{Command, Reply};
use crate::rangeset::RangeSet;
use crate::recv::{End, StripeFold};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Accumulated state of one named logical file (persists across sessions so
/// transfers can resume).
#[derive(Debug, Default, Clone)]
pub struct TransferState {
    /// Byte ranges received so far.
    pub ranges: RangeSet,
    /// Order-independent digest of received blocks.
    pub digest: StripeDigest,
    /// Total payload bytes received (including any duplicate retransmits).
    pub bytes: u64,
    /// Declared size from the most recent `STOR`.
    pub size: u64,
}

impl TransferState {
    /// True when `[0, size)` is fully covered.
    pub fn is_complete(&self) -> bool {
        self.size > 0 && self.ranges.covers(0, self.size)
    }
}

/// Every named transfer's state, shared by the sessions of one server.
type Files = HashMap<String, TransferState>;
type Registry = Arc<Mutex<Files>>;

/// Lock the registry. Each update under the lock leaves every field a valid
/// value, so a lock poisoned by a panicking channel thread is recovered: at
/// worst that channel's fold is partly counted, and the digest check of the
/// transfer reports it.
fn lock(registry: &Mutex<Files>) -> MutexGuard<'_, Files> {
    registry.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running GridFTP-style server on an ephemeral localhost port.
#[derive(Debug)]
pub struct GridFtpServer {
    control_addr: SocketAddr,
    registry: Registry,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl GridFtpServer {
    /// Bind the control listener and start serving sessions.
    pub fn start() -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let control_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let registry: Registry = Arc::new(Mutex::new(HashMap::new()));
        let shutdown = Arc::new(AtomicBool::new(false));

        let reg = Arc::clone(&registry);
        let stop = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name("gridftp-accept".into())
            .spawn(move || {
                let mut sessions = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let reg = Arc::clone(&reg);
                            let stop = Arc::clone(&stop);
                            sessions.push(std::thread::spawn(move || {
                                let _ = serve_session(stream, reg, stop);
                            }));
                        }
                        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
                for s in sessions {
                    let _ = s.join();
                }
            })?;

        Ok(GridFtpServer {
            control_addr,
            registry,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The control-channel address clients connect to.
    pub fn control_addr(&self) -> SocketAddr {
        self.control_addr
    }

    /// Snapshot of a named transfer's state, if any blocks have arrived.
    pub fn transfer_state(&self, name: &str) -> Option<TransferState> {
        lock(&self.registry).get(name).cloned()
    }

    /// Payload bytes received over every transfer's finished data phases.
    pub(crate) fn bytes_received(&self) -> u64 {
        lock(&self.registry).values().map(|s| s.bytes).sum()
    }
}

impl Drop for GridFtpServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn send_reply(w: &mut impl Write, reply: &Reply) -> std::io::Result<()> {
    writeln!(w, "{reply}")?;
    w.flush()
}

/// One control session: command loop until QUIT or disconnect.
fn serve_session(
    stream: TcpStream,
    registry: Registry,
    stop: Arc<AtomicBool>,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    send_reply(
        &mut writer,
        &Reply {
            code: 220,
            text: "xferopt GridFTP ready".into(),
        },
    )?;

    let mut parallelism: u32 = 1;
    let mut data_listeners: Vec<TcpListener> = Vec::new();
    // Cached data channels: established connections kept open across
    // transfers (GridFTP data-channel caching), so repeat STORs skip the
    // TCP handshakes entirely.
    let mut cached: Vec<TcpStream> = Vec::new();
    let mut current_name: Option<String> = None;

    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(()); // client went away
        }
        let cmd = match line.parse::<Command>() {
            Ok(c) => c,
            Err(e) => {
                send_reply(&mut writer, &Reply::error(e.to_string()))?;
                continue;
            }
        };
        match cmd {
            Command::OptsParallelism(np) => {
                parallelism = np;
                send_reply(&mut writer, &Reply::ok(format!("Parallelism set to {np}")))?;
            }
            Command::Spas => {
                // Renegotiation drops any cached channels.
                cached.clear();
                data_listeners.clear();
                let mut ports = Vec::new();
                for _ in 0..parallelism {
                    let l = TcpListener::bind("127.0.0.1:0")?;
                    ports.push(l.local_addr()?.port());
                    data_listeners.push(l);
                }
                send_reply(&mut writer, &Reply::spas(&ports))?;
            }
            Command::Stor { name, size } => {
                let Some(conns) =
                    open_data(&mut writer, "STOR", &mut data_listeners, &mut cached, &stop)?
                else {
                    continue;
                };
                lock(&registry).entry(name.clone()).or_default().size = size;
                cached = drain_channels(conns, &registry, &name, &stop)?
                    .into_iter()
                    .flatten()
                    .collect();
                let state = lock(&registry).get(&name).cloned().unwrap_or_default();
                if state.is_complete() {
                    send_reply(
                        &mut writer,
                        &Reply::complete(state.ranges.total(), state.digest.value()),
                    )?;
                } else {
                    send_reply(&mut writer, &Reply::marker(&state.ranges))?;
                }
                current_name = Some(name);
            }
            Command::Retr { name, size } => {
                let Some(mut conns) =
                    open_data(&mut writer, "RETR", &mut data_listeners, &mut cached, &stop)?
                else {
                    continue;
                };
                let n_blocks = size.div_ceil(BLOCK as u64);
                let sent = send_blocks(
                    &mut conns,
                    |i| Some(i as u64).filter(|&b| b < n_blocks),
                    size,
                    BLOCK,
                    None,
                    None,
                    || stop.load(Ordering::Relaxed),
                )?;
                cached = conns;
                // Vouch for the file asked for, and only once all of it
                // went out: a send cut short by a stop is refused.
                let reply = if sent == size {
                    Reply::complete(size, expected_digest(size, BLOCK))
                } else {
                    Reply::error(format!("RETR cut short after {sent} of {size} bytes"))
                };
                send_reply(&mut writer, &reply)?;
                current_name = Some(name);
            }
            Command::MarkerRequest => match &current_name {
                Some(name) => {
                    let ranges = lock(&registry)
                        .get(name)
                        .map(|s| s.ranges.clone())
                        .unwrap_or_default();
                    send_reply(&mut writer, &Reply::marker(&ranges))?;
                }
                None => send_reply(&mut writer, &Reply::error("no transfer in session"))?,
            },
            Command::Quit => {
                send_reply(
                    &mut writer,
                    &Reply {
                        code: 221,
                        text: "Goodbye".into(),
                    },
                )?;
                return Ok(());
            }
        }
    }
}

/// Start the data phase of a `STOR` or `RETR` (`verb`): refuse it without
/// a `SPAS` first, else reply `150` and return the cached channels, or
/// accept new ones on the `SPAS` listeners.
fn open_data(
    writer: &mut TcpStream,
    verb: &str,
    listeners: &mut Vec<TcpListener>,
    cached: &mut Vec<TcpStream>,
    stop: &AtomicBool,
) -> io::Result<Option<Vec<TcpStream>>> {
    if listeners.is_empty() && cached.is_empty() {
        send_reply(
            writer,
            &Reply::error(format!("SPAS required before {verb}")),
        )?;
        return Ok(None);
    }
    send_reply(
        writer,
        &Reply {
            code: 150,
            text: "Opening striped data connection".into(),
        },
    )?;
    if cached.is_empty() {
        accept_channels(std::mem::take(listeners), stop).map(Some)
    } else {
        Ok(Some(std::mem::take(cached)))
    }
}

/// Accept one connection per listener (bounded wait).
fn accept_channels(listeners: Vec<TcpListener>, stop: &AtomicBool) -> io::Result<Vec<TcpStream>> {
    let mut conns = Vec::with_capacity(listeners.len());
    for listener in &listeners {
        listener.set_nonblocking(true)?;
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match listener.accept() {
                Ok((c, _)) => {
                    conns.push(c);
                    break;
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if stop.load(Ordering::Relaxed) || std::time::Instant::now() > deadline {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
    }
    Ok(conns)
}

/// Drain blocks on every channel until EOD (transfer over; channel is
/// returned for caching), EOF (sender closed the channel; dropped), or a
/// disconnect/corruption (dropped — the partial data leaves a resumable
/// marker).
fn drain_channels(
    conns: Vec<TcpStream>,
    registry: &Mutex<Files>,
    name: &str,
    stop: &AtomicBool,
) -> io::Result<Vec<Option<TcpStream>>> {
    std::thread::scope(|scope| {
        let handles = conns
            .into_iter()
            .map(|mut conn| {
                scope.spawn(move || -> io::Result<Option<TcpStream>> {
                    conn.set_read_timeout(Some(Duration::from_millis(100)))?;
                    // Counted locally and folded into the registry at the
                    // end: one lock per channel, not per block. A read error
                    // drops the channel like a close does.
                    let mut fold = StripeFold::new();
                    let end = fold.receive(&mut conn, || stop.load(Ordering::Relaxed));
                    let mut reg = lock(registry);
                    let state = reg.entry(name.to_string()).or_default();
                    for (s, e) in fold.ranges {
                        state.ranges.insert(s, e);
                    }
                    state.digest.merge(fold.digest);
                    state.bytes += fold.bytes;
                    Ok(matches!(end, Ok(End::Eod)).then_some(conn))
                })
            })
            .collect();
        join_threads(handles, "stor channel")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;

    fn connect_control(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).unwrap();
        let writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut greeting = String::new();
        reader.read_line(&mut greeting).unwrap();
        assert!(greeting.starts_with("220"), "greeting: {greeting}");
        (reader, writer)
    }

    fn roundtrip(
        reader: &mut BufReader<TcpStream>,
        writer: &mut TcpStream,
        cmd: &Command,
    ) -> Reply {
        writeln!(writer, "{cmd}").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.parse().unwrap()
    }

    #[test]
    fn handshake_and_quit() {
        let server = GridFtpServer::start().unwrap();
        let (mut r, mut w) = connect_control(server.control_addr());
        let reply = roundtrip(&mut r, &mut w, &Command::OptsParallelism(4));
        assert!(reply.is_success());
        let reply = roundtrip(&mut r, &mut w, &Command::Quit);
        assert_eq!(reply.code, 221);
    }

    #[test]
    fn spas_opens_parallelism_many_ports() {
        let server = GridFtpServer::start().unwrap();
        let (mut r, mut w) = connect_control(server.control_addr());
        roundtrip(&mut r, &mut w, &Command::OptsParallelism(3));
        let reply = roundtrip(&mut r, &mut w, &Command::Spas);
        let ports = reply.parse_spas_ports().unwrap();
        assert_eq!(ports.len(), 3);
        let unique: std::collections::HashSet<_> = ports.iter().collect();
        assert_eq!(unique.len(), 3);
    }

    #[test]
    fn stor_without_spas_is_rejected() {
        let server = GridFtpServer::start().unwrap();
        let (mut r, mut w) = connect_control(server.control_addr());
        let reply = roundtrip(
            &mut r,
            &mut w,
            &Command::Stor {
                name: "x".into(),
                size: 10,
            },
        );
        assert!(!reply.is_success());
    }

    #[test]
    fn malformed_command_gets_error_not_disconnect() {
        let server = GridFtpServer::start().unwrap();
        let (mut r, mut w) = connect_control(server.control_addr());
        writeln!(w, "BOGUS THINGS").unwrap();
        w.flush().unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        let reply: Reply = line.parse().unwrap();
        assert!(!reply.is_success());
        // Session still alive:
        let reply = roundtrip(&mut r, &mut w, &Command::Quit);
        assert_eq!(reply.code, 221);
    }

    #[test]
    fn single_channel_transfer_completes_and_digests() {
        let server = GridFtpServer::start().unwrap();
        let (mut r, mut w) = connect_control(server.control_addr());
        roundtrip(&mut r, &mut w, &Command::OptsParallelism(1));
        let ports = roundtrip(&mut r, &mut w, &Command::Spas)
            .parse_spas_ports()
            .unwrap();

        let payload = b"0123456789".to_vec();
        writeln!(
            w,
            "{}",
            Command::Stor {
                name: "f".into(),
                size: 10
            }
        )
        .unwrap();
        w.flush().unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert!(line.starts_with("150"), "line: {line}");

        let mut data = TcpStream::connect(("127.0.0.1", ports[0])).unwrap();
        data.write_all(&Block::data(0, payload.clone()).encode())
            .unwrap();
        data.write_all(&Block::eod().encode()).unwrap();
        drop(data);

        line.clear();
        r.read_line(&mut line).unwrap();
        let reply: Reply = line.parse().unwrap();
        let (bytes, digest) = reply.parse_complete().unwrap();
        assert_eq!(bytes, 10);
        let expected = StripeDigest::of_buffer(&payload, 10).value();
        assert_eq!(digest, expected);

        let state = server.transfer_state("f").unwrap();
        assert!(state.is_complete());
    }

    /// A header declaring more than `MAX_BLOCK_LEN` bytes ends the STOR
    /// with the blocks that came before it, and the server closes that
    /// channel instead of caching it.
    #[test]
    fn oversized_header_drops_the_channel() {
        use crate::block::{header, MAX_BLOCK_LEN};
        use std::io::Read;
        let server = GridFtpServer::start().unwrap();
        let (mut r, mut w) = connect_control(server.control_addr());
        roundtrip(&mut r, &mut w, &Command::OptsParallelism(1));
        let ports = roundtrip(&mut r, &mut w, &Command::Spas)
            .parse_spas_ports()
            .unwrap();
        writeln!(
            w,
            "{}",
            Command::Stor {
                name: "bad".into(),
                size: 20
            }
        )
        .unwrap();
        w.flush().unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap(); // 150

        let mut data = TcpStream::connect(("127.0.0.1", ports[0])).unwrap();
        data.write_all(&Block::data(0, vec![1u8; 10]).encode())
            .unwrap();
        data.write_all(&header(0, MAX_BLOCK_LEN + 1, 10)).unwrap();

        line.clear();
        r.read_line(&mut line).unwrap();
        let reply: Reply = line.parse().unwrap();
        assert_eq!(reply.parse_marker().unwrap().ranges(), &[(0, 10)]);
        data.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(data.read(&mut [0; 1]).unwrap(), 0, "channel closed");
    }

    #[test]
    fn incomplete_transfer_returns_marker() {
        let server = GridFtpServer::start().unwrap();
        let (mut r, mut w) = connect_control(server.control_addr());
        roundtrip(&mut r, &mut w, &Command::OptsParallelism(1));
        let ports = roundtrip(&mut r, &mut w, &Command::Spas)
            .parse_spas_ports()
            .unwrap();
        writeln!(
            w,
            "{}",
            Command::Stor {
                name: "g".into(),
                size: 20
            }
        )
        .unwrap();
        w.flush().unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap(); // 150

        // Send only the second half, then EOD.
        let mut data = TcpStream::connect(("127.0.0.1", ports[0])).unwrap();
        data.write_all(&Block::data(10, vec![7u8; 10]).encode())
            .unwrap();
        data.write_all(&Block::eod().encode()).unwrap();
        drop(data);

        line.clear();
        r.read_line(&mut line).unwrap();
        let reply: Reply = line.parse().unwrap();
        let marker = reply.parse_marker().unwrap();
        assert_eq!(marker.ranges(), &[(10, 20)]);
        assert_eq!(marker.complement(20), vec![(0, 10)]);
    }
}
