//! The sink server: the harness's `/dev/null` destination.
//!
//! Accepts localhost TCP connections and discards everything they send,
//! counting bytes through a shared atomic. One OS thread per connection —
//! transparent, and faithful to how a GridFTP server handles streams.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A byte-discarding TCP sink on an ephemeral localhost port.
#[derive(Debug)]
pub struct SinkServer {
    addr: SocketAddr,
    bytes: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl SinkServer {
    /// Bind and start accepting.
    pub fn start() -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let bytes = Arc::new(AtomicU64::new(0));
        let shutdown = Arc::new(AtomicBool::new(false));

        let b = Arc::clone(&bytes);
        let stop = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name("xferopt-sink-accept".into())
            .spawn(move || {
                let mut workers = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let b = Arc::clone(&b);
                            let stop = Arc::clone(&stop);
                            workers.push(std::thread::spawn(move || drain(stream, b, stop)));
                        }
                        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
                for w in workers {
                    let _ = w.join();
                }
            })?;

        Ok(SinkServer {
            addr,
            bytes,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total bytes discarded so far.
    pub fn bytes_received(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl Drop for SinkServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Read and discard until EOF or shutdown.
fn drain(mut stream: TcpStream, bytes: Arc<AtomicU64>, stop: Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut buf = vec![0u8; 256 * 1024];
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                bytes.fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(ref e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn counts_received_bytes() {
        let server = SinkServer::start().unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        let payload = vec![0xABu8; 1 << 20];
        c.write_all(&payload).unwrap();
        drop(c);
        // Wait for the drain thread to finish.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.bytes_received() < payload.len() as u64 {
            assert!(std::time::Instant::now() < deadline, "sink never drained");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.bytes_received(), payload.len() as u64);
    }

    #[test]
    fn handles_many_concurrent_connections() {
        let server = SinkServer::start().unwrap();
        let addr = server.addr();
        let total: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    s.spawn(move || {
                        let mut c = TcpStream::connect(addr).unwrap();
                        let buf = vec![7u8; 64 * 1024];
                        for _ in 0..8 {
                            c.write_all(&buf).unwrap();
                        }
                        (buf.len() * 8) as u64
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.bytes_received() < total {
            assert!(std::time::Instant::now() < deadline, "sink never caught up");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.bytes_received(), total);
    }

    #[test]
    fn clean_shutdown() {
        let server = SinkServer::start().unwrap();
        let addr = server.addr();
        let _c = TcpStream::connect(addr).unwrap();
        drop(server); // must not hang
    }
}
