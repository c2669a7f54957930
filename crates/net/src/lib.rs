//! Fluid wide-area network simulator for parallel TCP transfers.
//!
//! The paper's tuners interact with the network only through the *aggregate
//! throughput achieved by `n` parallel TCP streams sharing production WAN
//! links*. This crate reproduces that signal with a fluid-flow model, the
//! standard abstraction for studying parallel-TCP behaviour:
//!
//! * [`tcp`] — per-stream steady-state response functions and congestion
//!   window dynamics for the variants the paper discusses: Reno, CUBIC
//!   (Linux default), H-TCP (the paper's endpoints), and Scalable TCP.
//! * [`link`] — capacitated links and paths (RTT + random loss live on the
//!   path, capacity on the links so a NIC can be shared by several paths).
//! * [`flow`] — flow groups: `k` identical TCP streams from one application
//!   following one path.
//! * [`fairness`] — weighted max–min progressive-filling allocation with
//!   per-flow demand caps; TCP's per-flow fairness is what makes *more
//!   streams imply a larger share of a congested bottleneck* (the paper's
//!   second observation).
//! * [`network`] — the assembled quasi-static model: register flows, get the
//!   per-flow goodput allocation (solved lazily and cached until a mutation
//!   changes it).
//! * [`components`] — connected components of the link-sharing graph, so a
//!   mutation re-solves only the flows it can affect.
//! * [`topology`] — named sites and shortest-path routing on top of the
//!   index-level network.
//! * [`metrics`] — read-only export of the network's state into a metrics
//!   registry.
//! * [`dynamic`] — optional higher-fidelity mode evolving per-stream
//!   congestion windows (slow start, variant-specific increase, Poisson
//!   loss) on a fixed time step, for ramp-up transients.
//!
//! Rates are in **MB/s** throughout (the unit the paper reports).
//!
//! # Example
//!
//! ```
//! use xferopt_net::{Link, Network, CongestionControl};
//!
//! let mut net = Network::new();
//! let nic = net.add_link(Link::new("anl-nic", 5000.0));
//! let wan = net.add_link(Link::new("wan", 2500.0));
//! let path = net.add_path(
//!     xferopt_net::Path::new("anl->tacc", vec![nic, wan])
//!         .with_rtt_ms(33.0)
//!         .with_loss(1e-5),
//! );
//! let f = net.add_flow(path, 16, CongestionControl::HTcp);
//! let rates = net.allocate();
//! assert!(rates[&f] > 0.0 && rates[&f] <= 2500.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod components;
pub mod dynamic;
pub mod fairness;
pub mod flow;
pub mod link;
pub mod metrics;
pub mod network;
pub mod tcp;
pub mod topology;

pub use components::{connected_groups, UnionFind};
pub use fairness::{jain_index, max_min_allocate, max_min_allocate_into, AllocScratch, FlowDemand};
pub use flow::{FlowGroup, FlowId};
pub use link::{Link, LinkId, Path, PathId};
pub use metrics::{export_dynamic, export_network};
pub use network::Network;
pub use tcp::CongestionControl;
pub use topology::{TopologyBuilder, TopologyError};
