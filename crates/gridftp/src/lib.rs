//! A minimal GridFTP-style striped transfer protocol over real TCP.
//!
//! The paper's transfers run over Globus GridFTP, whose relevant mechanics
//! are: a text **control channel** that negotiates options and data-channel
//! endpoints, and `np` parallel **data channels** carrying extended-block
//! (EBLOCK)-mode frames — each block tagged with its offset so blocks may
//! arrive on any channel in any order, with restart markers describing which
//! byte ranges have landed. This crate implements that core faithfully
//! enough to move real bytes over localhost sockets:
//!
//! * [`proto`] — control-channel commands and replies (`SPAS`, `OPTS
//!   PARALLELISM`, `STOR`, `MREQ`, `QUIT`) with strict parsing.
//! * [`block`] — EBLOCK framing: `{flags, length, offset}` headers, EOD
//!   marking, streaming encoder/decoder.
//! * [`rangeset`] — coalescing byte-range sets: restart markers, completeness
//!   checks.
//! * [`checksum`] — an order-independent digest, hashed a word per
//!   multiply, so the receiver can verify data that arrives out of order
//!   across channels.
//! * `recv` — the one receive path of a data channel: frames folded in
//!   place from a fixed staging buffer, four at a time.
//! * [`server`] — a striped receiver: control listener plus per-transfer
//!   data listeners, block reassembly, marker generation; its `RETR` sends
//!   through the client's sender loop.
//! * [`client`] — the synthetic payload and the one striped sender loop of
//!   both directions: blocks round-robined over `np` channels, optional
//!   token-bucket shaping, resume from restart markers. [`put`] and [`get`]
//!   are one-shot wrappers over a [`Session`].
//! * [`session`] — the one client of the control protocol: a persistent
//!   session whose put and get share one negotiation step and whose data
//!   channels are cached across transfers in both directions.
//! * [`loopback`] — the tuners' real-socket objective: one epoch of `nc`
//!   sessions × `np` channels putting through a shared token bucket until
//!   the epoch's deadline, with the bucket ([`loopback::TokenBucket`], the
//!   emulated WAN bottleneck, also what shapes a put) and synthetic dgemm
//!   hogs ([`loopback::CpuHogs`], the paper's `ext.cmp` load).
//!
//! Concurrency (the paper's `nc`) is modelled the same way `globus-url-copy`
//! does it: run several independent client sessions.
//!
//! # Example
//!
//! ```no_run
//! use xferopt_gridftp::{client::PutConfig, server::GridFtpServer};
//!
//! let server = GridFtpServer::start().unwrap();
//! let report = xferopt_gridftp::client::put(
//!     server.control_addr(),
//!     PutConfig::new("dataset.bin", 8 * 1024 * 1024).with_parallelism(4),
//! )
//! .unwrap();
//! assert!(report.verified);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod block;
pub mod checksum;
pub mod client;
mod cpuload;
pub mod loopback;
pub mod proto;
pub mod rangeset;
mod recv;
pub mod server;
pub mod session;
mod shaper;

pub use block::{Block, BlockDecoder, FLAG_EOD};
pub use checksum::StripeDigest;
pub use client::{get, put, GetReport, PutConfig, PutReport};
pub use proto::{Command, Reply};
pub use rangeset::RangeSet;
pub use server::GridFtpServer;
pub use session::Session;
