//! Integration tests for the future-work extensions, exercised through the
//! facade: GridFTP protocol + tuners, disk-to-disk datasets, destination
//! modelling, persistent sessions, topology-built networks.

use std::sync::Arc;
use xferopt::dataset::{climate_dataset, DiskModel, DiskTransfer, DiskTransferObjective};
use xferopt::gridftp::{client, GridFtpServer, Session};
use xferopt::loopback::{ShaperConfig, TokenBucket};
use xferopt::net::TopologyBuilder;
use xferopt::prelude::*;
use xferopt::tuners::offline::maximize;

/// The full real-socket loop: a tuner choosing parallelism for striped
/// GridFTP puts through a shared bottleneck.
#[test]
fn tuner_drives_gridftp_parallelism() {
    let server = GridFtpServer::start().unwrap();
    let bucket = Arc::new(TokenBucket::new(ShaperConfig::rate_mbs(150.0)));
    let mut tuner = CdTuner::new(Domain::new(&[(1, 6)]), vec![1], 5.0);
    let mut x = tuner.initial();
    for epoch in 0..4 {
        let report = client::put(
            server.control_addr(),
            client::PutConfig::new(format!("epoch{epoch}"), 2 * 1024 * 1024)
                .with_parallelism(x[0] as u32)
                .with_block_bytes(128 * 1024)
                .with_bucket(Arc::clone(&bucket)),
        )
        .unwrap();
        assert!(report.complete && report.verified, "epoch {epoch}");
        x = tuner.observe(&x.clone(), report.throughput_mbs);
        assert!((1..=6).contains(&x[0]));
    }
}

/// Persistent sessions are the "no restart" primitive: many puts, one
/// control connection, verified end to end.
#[test]
fn persistent_session_many_epochs() {
    let server = GridFtpServer::start().unwrap();
    let mut session = Session::connect(server.control_addr()).unwrap();
    for np in [1u32, 2, 4] {
        let cfg = client::PutConfig::new(format!("s{np}"), 512 * 1024)
            .with_parallelism(np)
            .with_block_bytes(64 * 1024);
        let r = session.put(&cfg).unwrap();
        assert!(r.complete && r.verified);
    }
    assert_eq!(session.puts(), 3);
    session.quit().unwrap();
}

/// 9 blocks and a 17-byte tail at the default 256 KiB block: the sender's
/// expected digest takes two groups of four blocks through its lanes, one
/// block as the lane remainder, and the tail.
fn nine_blocks_and_a_tail() -> (u64, usize) {
    let block = client::PutConfig::new("default", 0).block_bytes;
    (9 * block as u64 + 17, block)
}

#[test]
fn gridftp_put_verifies_nine_blocks_and_a_tail_on_two_channels() {
    let server = GridFtpServer::start().unwrap();
    let (size, _) = nine_blocks_and_a_tail();
    let r = client::put(
        server.control_addr(),
        client::PutConfig::new("tail", size).with_parallelism(2),
    )
    .unwrap();
    assert!(r.complete && r.verified, "{r:?}");
    assert_eq!(r.bytes_sent, size);
}

#[test]
fn gridftp_session_put_verifies_nine_blocks_and_a_tail() {
    let server = GridFtpServer::start().unwrap();
    let (size, block) = nine_blocks_and_a_tail();
    let mut session = Session::connect(server.control_addr()).unwrap();
    let cfg = client::PutConfig::new("tail", size)
        .with_parallelism(2)
        .with_block_bytes(block);
    let r = session.put(&cfg).unwrap();
    assert!(r.complete && r.verified, "{r:?}");
    assert_eq!(r.bytes_sent, size);
    session.quit().unwrap();
}

#[test]
fn gridftp_get_verifies_nine_blocks_and_a_tail() {
    let server = GridFtpServer::start().unwrap();
    let (size, _) = nine_blocks_and_a_tail();
    let r = client::get(server.control_addr(), "tail", size, 2).unwrap();
    assert!(r.verified, "{r:?}");
    assert_eq!(r.bytes_received, size);
}

/// Disk-to-disk: the tuners must discover that a small-file archive wants
/// pipelining while a huge-file set wants per-file parallelism (through the
/// facade, as a user would write it).
#[test]
fn disk_objective_optimum_depends_on_dataset() {
    let climate = DiskTransfer::new(
        climate_dataset(9),
        DiskModel::parallel_fs(),
        DiskModel::parallel_fs(),
    );
    let mut obj = DiskTransferObjective::new(climate, 1, 0.0);
    let mut tuner = NelderMeadTuner::new(DiskTransferObjective::domain(), vec![2, 8, 1], 2.0);
    let r = maximize(&mut tuner, 300, |x| obj.evaluate(x));
    // 2000 × ~50 MB files: the optimizer must turn pipelining well above 1.
    assert!(
        r.best[2] > 2,
        "small-file archive needs pipelining: best={:?}",
        r.best
    );
}

/// A user-built topology (ESnet-like triangle) plugged into a full World:
/// transfers over builder-derived paths behave like hand-built ones.
#[test]
fn topology_builder_feeds_a_world() {
    let mut b = TopologyBuilder::new().with_half_streams(16.0);
    for s in ["anl", "hub", "lab"] {
        b.add_site(s);
    }
    b.connect("anl", "hub", 5000.0, 1.0, 1e-6);
    b.connect("hub", "lab", 1250.0, 20.0, 1e-5);
    let (net, paths) = b.build(&[("anl", "lab")]).unwrap();

    let mut world = World::new(net, 5);
    let src = world.add_host(xferopt::host::nehalem());
    let cfg = TransferConfig::memory_to_memory(src, paths[0])
        .with_params(StreamParams::new(8, 8))
        .with_noise(0.0, 1.0);
    let tid = world.add_transfer(cfg);
    world.step(SimDuration::from_secs(60));
    let rate = world.goodput_mbs(tid);
    assert!(rate > 0.0 && rate <= 1250.0, "bottleneck bound: {rate}");
}

/// Destination modelling through the scenario presets: a loaded receiver
/// degrades throughput, and more streams claim it back.
#[test]
fn destination_extension_through_presets() {
    let mut pw = PaperWorld::new(21);
    pw.world.set_compute_jobs(pw.dst_uchicago, 32);
    let tid = pw.start_transfer_with_dst(Route::UChicago, StreamParams::globus_default());
    pw.world.step(SimDuration::from_secs(30));
    let es = pw
        .world
        .begin_epoch(tid, StreamParams::globus_default(), false);
    pw.world.step(SimDuration::from_secs(60));
    let degraded = pw.world.end_epoch(es).observed_mbs;
    let es = pw.world.begin_epoch(tid, StreamParams::new(48, 8), false);
    pw.world.step(SimDuration::from_secs(60));
    let recovered = pw.world.end_epoch(es).observed_mbs;
    assert!(
        recovered > 2.0 * degraded,
        "receiver fair-share recovery: {degraded} -> {recovered}"
    );
}

/// Modern hardware still wants tuning: on a 64-core DTN behind a 100 Gb/s
/// NIC, restarts are cheap and CPU rarely binds, but the Globus default's
/// 16 streams still cannot saturate an AIMD-derated long path — adaptive
/// concurrency keeps paying.
#[test]
fn tuning_still_pays_on_a_modern_dtn() {
    use xferopt::net::{Link, Network, Path};
    let mut net = Network::new();
    let nic = net.add_link(Link::from_gbps("dtn-nic", 100.0).with_half_streams(24.0));
    let path = net.add_path(
        Path::new("dtn->remote", vec![nic])
            .with_rtt_ms(40.0)
            .with_loss(1e-5)
            .with_wmax_bytes(16.0 * 1024.0 * 1024.0),
    );
    let mut world = World::new(net, 13);
    let src = world.add_host(xferopt::host::modern_dtn());
    let tid = world.add_transfer(
        TransferConfig::memory_to_memory(src, path)
            .with_params(StreamParams::globus_default())
            .with_noise(0.0, 1.0),
    );
    world.step(SimDuration::from_secs(10));
    let measure = |world: &mut World, p: StreamParams| {
        let es = world.begin_epoch(tid, p, false);
        world.step(SimDuration::from_secs(60));
        world.end_epoch(es).observed_mbs
    };
    let default = measure(&mut world, StreamParams::globus_default());
    let tuned = measure(&mut world, StreamParams::new(16, 8));
    assert!(
        tuned > 1.4 * default,
        "100G NIC still underfilled by 16 streams: {default:.0} -> {tuned:.0}"
    );
    // And restarts barely cost anything on this hardware.
    let startup = world.set_params(tid, StreamParams::new(16, 8), true);
    assert!(
        startup < 2.5,
        "modern restart should be cheap: {startup:.2}s"
    );
}

/// Loopback CPU hogs + shaped GridFTP puts: throughput under hogs is not
/// higher than without (the qualitative `ext.cmp` effect on real sockets).
#[test]
fn gridftp_under_cpu_hogs() {
    use xferopt::loopback::CpuHogs;
    let server = GridFtpServer::start().unwrap();
    let size = 4 * 1024 * 1024u64;
    let quiet = client::put(
        server.control_addr(),
        client::PutConfig::new("quiet", size).with_parallelism(2),
    )
    .unwrap();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let hogs = CpuHogs::spawn((cores * 2) as u32);
    let loaded = client::put(
        server.control_addr(),
        client::PutConfig::new("loaded", size).with_parallelism(2),
    )
    .unwrap();
    drop(hogs);
    assert!(quiet.complete && loaded.complete);
    // Scheduling noise makes a strict inequality flaky; allow 30% slack.
    assert!(
        loaded.throughput_mbs < quiet.throughput_mbs * 1.3,
        "hogs should not make transfers faster: {:.0} vs {:.0}",
        loaded.throughput_mbs,
        quiet.throughput_mbs
    );
}
