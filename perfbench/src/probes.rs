//! Layer probes of the traced run: timed calls into each layer's public
//! functions from the benchmark's own code, at the workload's scale where
//! the workload has one. Every traced run reports every probe, so these are
//! the per-layer metrics `BENCHMARK.json` lists.

use std::time::{Duration, Instant};

use xferopt::gridftp::client::{payload_block, PutConfig};
use xferopt::gridftp::{Block, BlockDecoder, GridFtpServer, StripeDigest};
use xferopt::loopback::{LoopbackHarness, ShaperConfig};
use xferopt::orchestrator::AdmissionController;
use xferopt::topo::{search_routes, Planet, RouteCatalog, SearchConfig};
use xferopt::tuners::{Domain, TunerKind};

use crate::report::{median, Metric};
use crate::workloads::Scale;

/// Bytes pushed through each GridFTP codec probe.
const CODEC_BYTES: usize = 32 << 20;
/// Window of one loopback measurement.
const LOOPBACK_EPOCH: Duration = Duration::from_millis(250);
/// Repetitions whose median each probe reports.
const REPS: usize = 5;

/// Median over `REPS` runs of `f`, which returns seconds per call.
fn med(mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&v)
}

/// Mean seconds per call of `f` over `n` calls.
fn per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_secs_f64() / n as f64
}

fn secs<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64()
}

/// A smooth, single-peaked throughput surface over `(nc, np)` for the tuner
/// probe: it rises with total streams and falls past 64 of them.
fn surface(x: &[i64]) -> f64 {
    let streams = x.iter().product::<i64>().max(1) as f64;
    1000.0 * streams / (1.0 + (streams / 64.0).powi(2))
}

/// `tuners.observe_us.<kind>`: one `OnlineTuner::observe` decision per
/// `TunerKind`, driven through `TunerKind::build(..).observe`.
fn tuner_metrics() -> Vec<Metric> {
    TunerKind::ALL
        .iter()
        .map(|&kind| {
            let us = med(|| {
                let domain = Domain::paper_nc_np();
                let x0 = domain.center();
                let mut tuner = kind.build(domain, x0);
                let mut x = tuner.initial();
                per_call(400, |_| {
                    let y = surface(&x);
                    x = tuner.observe(&x, y);
                })
            }) * 1e6;
            Metric::new(format!("tuners.observe_us.{}", kind.name()), us, "us")
        })
        .collect()
}

/// GridFTP layer: server start, payload generation, EBLOCK encode and
/// decode, and the stripe digest, each as a rate over `CODEC_BYTES`.
fn gridftp_metrics() -> Result<Vec<Metric>, String> {
    let block = PutConfig::new("probe", 0).block_bytes;
    let offsets: Vec<u64> = (0..CODEC_BYTES / block)
        .map(|i| (i * block) as u64)
        .collect();
    let mbs = |s: f64| CODEC_BYTES as f64 / 1e6 / s;
    let mut start_err = None;
    let start_s = med(|| {
        let t0 = Instant::now();
        let server = GridFtpServer::start();
        let s = t0.elapsed().as_secs_f64();
        if let Err(e) = server {
            start_err = Some(e.to_string());
        }
        s
    });
    if let Some(e) = start_err {
        return Err(format!("gridftp server start: {e}"));
    }
    let payloads: Vec<_> = offsets.iter().map(|&o| payload_block(o, block)).collect();
    let payload_s = med(|| {
        secs(|| {
            offsets
                .iter()
                .map(|&o| payload_block(o, block).len())
                .sum::<usize>()
        })
    });
    let encoded: Vec<_> = offsets
        .iter()
        .zip(&payloads)
        .map(|(&o, p)| Block::data(o, p.clone()).encode())
        .collect();
    let encode_s = med(|| {
        secs(|| {
            offsets
                .iter()
                .zip(&payloads)
                .map(|(&o, p)| Block::data(o, p.clone()).encode().len())
                .sum::<usize>()
        })
    });
    let mut decode_err = None;
    let decode_s = med(|| {
        secs(|| {
            let mut dec = BlockDecoder::new();
            let mut n = 0usize;
            for frame in &encoded {
                dec.feed(frame);
                match dec.next_block() {
                    Ok(Some(b)) => n += b.payload.len(),
                    Ok(None) => decode_err = Some("frame did not decode".to_string()),
                    Err(e) => decode_err = Some(e.to_string()),
                }
            }
            n
        })
    });
    if let Some(e) = decode_err {
        return Err(format!("gridftp decode: {e}"));
    }
    let digest_s = med(|| {
        secs(|| {
            let mut d = StripeDigest::new();
            for (&o, p) in offsets.iter().zip(&payloads) {
                d.add_block(o, p);
            }
            d.value()
        })
    });
    Ok(vec![
        Metric::new("gridftp.server_start_s", start_s, "s"),
        Metric::new("gridftp.payload_mbs", mbs(payload_s), "MB/s"),
        Metric::new("gridftp.encode_mbs", mbs(encode_s), "MB/s"),
        Metric::new("gridftp.decode_mbs", mbs(decode_s), "MB/s"),
        Metric::new("gridftp.digest_mbs", mbs(digest_s), "MB/s"),
    ])
}

/// `loopback.measure_mbs`: the unshaped loopback harness at the put
/// workload's stream count (one process, two streams).
fn loopback_metrics() -> Result<Vec<Metric>, String> {
    let h =
        LoopbackHarness::start(ShaperConfig::unshaped()).map_err(|e| format!("loopback: {e}"))?;
    let mut v = Vec::with_capacity(3);
    for _ in 0..3 {
        v.push(
            h.measure(1, 2, LOOPBACK_EPOCH)
                .map_err(|e| format!("loopback: {e}"))?,
        );
    }
    Ok(vec![Metric::new(
        "loopback.measure_mbs",
        median(&v),
        "MB/s",
    )])
}

/// Topology layer: `RouteCatalog::enumerate` and `search_routes` on the
/// mesh planet with three candidate routes per pair.
fn topo_metrics() -> Result<Vec<Metric>, String> {
    let planet = Planet::preset("mesh").map_err(|e| e.to_string())?;
    let cfg = SearchConfig {
        k: 3,
        ..SearchConfig::default()
    };
    let catalog_s = med(|| secs(|| RouteCatalog::enumerate(&planet, 3).is_ok()));
    let search_s = med(|| secs(|| search_routes(&planet, &cfg).is_ok()));
    Ok(vec![
        Metric::new("topo.catalog_s", catalog_s, "s"),
        Metric::new("topo.search_s", search_s, "s"),
    ])
}

/// Orchestrator layers at the workload's scale: `HistoryStore::nearest`
/// over the store a run leaves, `Policy::pick_next` over the workload's
/// full queue, and an admit/release pair on its links.
fn orchestrator_metrics(scale: &Scale) -> Vec<Metric> {
    let jobs = scale.queue.jobs();
    let store = &scale.history;
    let nearest_us = med(|| {
        per_call(200, |i| {
            let spec = &jobs[i % jobs.len()];
            std::hint::black_box(store.nearest(
                spec.route.name(),
                spec.tuner,
                (i % 128) as f64,
                0.0,
                "fleet",
            ));
        })
    }) * 1e6;
    let policy = scale.policy;
    let pick_us = med(|| {
        per_call(20, |_| {
            std::hint::black_box(policy.pick_next(jobs, &[]));
        })
    }) * 1e6;
    let mut ac = AdmissionController::uniform(scale.links, scale.budget);
    let admit_us = med(|| {
        per_call(200, |i| {
            let spec = &jobs[i % jobs.len()];
            std::hint::black_box(ac.try_admit(spec));
            ac.release(spec.id);
        })
    }) * 1e6;
    vec![
        Metric::new("history.nearest_us", nearest_us, "us"),
        Metric::new("policy.pick_us", pick_us, "us"),
        Metric::new("admission.try_admit_us", admit_us, "us"),
    ]
}

/// Every probe metric, in a fixed order.
///
/// # Errors
/// Returns a message when a socket probe cannot run.
pub fn run(scale: &Scale) -> Result<Vec<Metric>, String> {
    let mut m = orchestrator_metrics(scale);
    m.extend(tuner_metrics());
    m.extend(topo_metrics()?);
    m.extend(gridftp_metrics()?);
    m.extend(loopback_metrics()?);
    Ok(m)
}
