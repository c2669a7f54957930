//! Planet-scale route search + topo fleet tests (DESIGN.md §16): golden
//! leaderboard/placement snapshots, byte-determinism of the offline search,
//! placement-validity properties, breaker-aware re-routing under a regional
//! outage, byte conservation across route hops, and crash/resume identity
//! for a planet fleet.
//!
//! The golden files live in `tests/golden/routes/`; re-bless intentional
//! format changes with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test routes
//! ```

use std::process::{Command, Stdio};

use proptest::prelude::*;
use xferopt::orchestrator::{
    resume_fleet_sharded, run_fleet_sharded, topo_workload, Checkpoint, FleetConfig, HistoryStore,
    JobState, ShardedFleetSim, TopoFleetConfig, Workload,
};
use xferopt::simcore::json::Fields;
use xferopt::topo::{search_routes, PlacementTable, Planet, RouteCatalog, SearchConfig};

const PRESETS: [&str; 3] = ["mesh", "hub-spoke", "asymmetric"];

fn check_golden(path: &str, actual: &str, what: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap())
            .expect("create golden dir");
        std::fs::write(path, actual).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden snapshot missing; run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        actual, golden,
        "{what} drifted from {path}; if the change is intentional, \
         re-bless with UPDATE_GOLDEN=1"
    );
}

fn mesh_placement() -> PlacementTable {
    let planet = Planet::preset("mesh").expect("mesh preset");
    search_routes(&planet, &SearchConfig::default()).expect("search succeeds")
}

/// Planet fleet config over the mesh preset; the workload is the searched
/// placement's round-robin (same construction as `xferopt fleet run --topo`).
fn topo_cfg(outage_region: Option<usize>, reroute: bool) -> FleetConfig {
    let mut tc = TopoFleetConfig::preset("mesh");
    tc.outage_regions = outage_region.into_iter().collect();
    tc.reroute = reroute;
    FleetConfig {
        seed: 7,
        horizon_s: 3600.0,
        topo: Some(tc),
        ..FleetConfig::default()
    }
}

fn topo_wl(jobs: usize) -> Workload {
    let planet = Planet::preset("mesh").expect("mesh preset");
    let placement = mesh_placement();
    let catalog = RouteCatalog::enumerate(&planet, 3).expect("catalog");
    topo_workload(&placement, &catalog, jobs)
}

#[test]
fn golden_routes_leaderboard_and_placement_match_snapshots() {
    let table = mesh_placement();
    check_golden(
        "tests/golden/routes/leaderboard.txt",
        &table.render(),
        "route-search leaderboard",
    );
    check_golden(
        "tests/golden/routes/placement.jsonl",
        &table.to_jsonl(),
        "placement table",
    );
}

/// The other two presets and the committed five-region `.dat` planet are
/// pinned too, each as `{planet}.leaderboard.txt` and
/// `{planet}.placement.jsonl`.
#[test]
fn golden_routes_of_every_preset_and_a_dat_planet_match_snapshots() {
    let dat = std::fs::read_to_string("tests/golden/routes/ring5.dat").expect("ring5.dat");
    let planets = [
        Planet::preset("hub-spoke").expect("hub-spoke preset"),
        Planet::preset("asymmetric").expect("asymmetric preset"),
        Planet::from_dat(&dat).expect("ring5.dat parses"),
    ];
    for planet in planets {
        let table = search_routes(&planet, &SearchConfig::default()).expect("search succeeds");
        let name = &planet.name;
        check_golden(
            &format!("tests/golden/routes/{name}.leaderboard.txt"),
            &table.render(),
            &format!("{name} route-search leaderboard"),
        );
        check_golden(
            &format!("tests/golden/routes/{name}.placement.jsonl"),
            &table.to_jsonl(),
            &format!("{name} placement table"),
        );
    }
}

#[test]
fn route_search_is_byte_deterministic_on_every_preset() {
    for preset in PRESETS {
        let planet = Planet::preset(preset).expect("preset");
        let a = search_routes(&planet, &SearchConfig::default()).expect("search");
        let b = search_routes(&planet, &SearchConfig::default()).expect("search");
        assert_eq!(a.render(), b.render(), "{preset}: leaderboard bytes");
        assert_eq!(a.to_jsonl(), b.to_jsonl(), "{preset}: placement bytes");
    }
}

/// The descent stops at its fixed point: a pass cap far past it finishes
/// promptly and prints the default search's leaderboard byte for byte.
#[test]
fn huge_pass_cap_stops_at_the_fixed_point() {
    use std::io::Read;
    use std::time::{Duration, Instant};

    let mut child = Command::new(env!("CARGO_BIN_EXE_xferopt"))
        .args([
            "routes",
            "search",
            "--preset",
            "mesh",
            "--passes",
            "100000000",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("run xferopt");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        stdout.read_to_string(&mut out).expect("read stdout");
        out
    });
    let start = Instant::now();
    while child.try_wait().expect("poll xferopt").is_none() {
        if start.elapsed() > Duration::from_secs(60) {
            child.kill().expect("kill xferopt");
            child.wait().expect("reap xferopt");
            panic!("routes search --passes 100000000 ran past 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(child.wait().expect("reap xferopt").success());
    let out = reader.join().expect("stdout reader");
    let golden =
        std::fs::read_to_string("tests/golden/routes/leaderboard.txt").expect("golden leaderboard");
    assert_eq!(out, golden);
}

/// Names from a `.dat` file reach the placement JSONL escaped: a quote in a
/// planet or region name leaves every line one JSON object, and the names
/// read back exactly.
#[test]
fn quoted_dat_names_round_trip_through_the_placement_jsonl() {
    let dir = std::env::temp_dir().join(format!("xferopt-routes-quoted-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let dat = dir.join("q.dat");
    let out = dir.join("q.jsonl");
    std::fs::write(
        &dat,
        "planet q\"p\nregion a\"x\nregion b\nedge a\"x b 20 1000 0\n",
    )
    .expect("write .dat");
    let status = Command::new(env!("CARGO_BIN_EXE_xferopt"))
        .args(["routes", "search", "--dat"])
        .arg(&dat)
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::null())
        .status()
        .expect("run xferopt");
    assert!(status.success(), "routes search --dat failed: {status}");
    let doc = std::fs::read_to_string(&out).expect("placement written");
    std::fs::remove_dir_all(&dir).expect("cleanup");

    let lines: Vec<Fields> = doc
        .lines()
        .map(|l| Fields::parse(l).unwrap_or_else(|| panic!("not one JSON object: {l}")))
        .collect();
    assert_eq!(lines.len(), 3, "header + one line per ordered pair");
    assert_eq!(lines[0].get("kind"), Some("placement_table"));
    assert_eq!(lines[0].get("planet"), Some("q\"p"));
    let pairs: Vec<String> = lines[1..]
        .iter()
        .map(|f| f.get("pair").expect("pair field").to_string())
        .collect();
    assert_eq!(pairs, ["a\"x->b", "b->a\"x"]);
    assert_eq!(lines[1].get("routes"), Some("a\"x->b:0"));
}

/// Route names are `src->dst:rank`, so a region named `a->b` could make
/// two pairs share one route name and resolve to the same links. Such a
/// `.dat` is refused with one line naming the offending line.
#[test]
fn dat_region_names_cannot_forge_route_names() {
    let dir = std::env::temp_dir().join(format!("xferopt-routes-forged-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let dat = dir.join("forged.dat");
    std::fs::write(
        &dat,
        "region a->b\nregion c\nregion a\nregion b->c\n\
         edge a->b c 20 10 0\nedge a b->c 20 10 0\nedge c a 20 10 0\n",
    )
    .expect("write .dat");
    let out = Command::new(env!("CARGO_BIN_EXE_xferopt"))
        .args(["routes", "search", "--dat"])
        .arg(&dat)
        .arg("--out")
        .arg(dir.join("forged.jsonl"))
        .output()
        .expect("run xferopt");
    std::fs::remove_dir_all(&dir).expect("cleanup");
    assert_eq!(out.status.code(), Some(1), "status {}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "stderr: {stderr}");
    assert!(
        lines[0].starts_with("error:") && lines[0].contains("line 1"),
        "stderr: {stderr}"
    );
}

proptest! {
    /// Placement validity: whatever the planet/k/grid, every entry places an
    /// ordered region pair on routes that exist in the enumerated catalog
    /// for that pair (rank order preserved, link lists aligned), with a
    /// concurrency drawn from the searched grid.
    #[test]
    fn searched_placements_only_use_valid_catalog_routes(
        preset_idx in 0usize..3,
        k in 1usize..4,
        np in prop_oneof![Just(4u32), Just(8u32)],
    ) {
        let planet = Planet::preset(PRESETS[preset_idx]).expect("preset");
        let cfg = SearchConfig { k, np, ..SearchConfig::default() };
        let table = search_routes(&planet, &cfg).expect("search");
        let catalog = RouteCatalog::enumerate(&planet, k).expect("catalog");

        let n = planet.regions.len();
        prop_assert_eq!(table.entries.len(), n * (n - 1), "one entry per ordered pair");
        for e in &table.entries {
            prop_assert!(!e.routes.is_empty(), "{}: entry has routes", e.pair);
            prop_assert_eq!(e.routes.len(), e.links.len(), "{}: links aligned", &e.pair);
            prop_assert!(cfg.nc_grid.contains(&e.nc), "{}: nc {} from grid", e.pair, e.nc);
            prop_assert_eq!(e.np, np, "{}: np fixed", &e.pair);
            let candidates = catalog.candidates(e.src, e.dst);
            for (name, links) in e.routes.iter().zip(&e.links) {
                let idx = catalog
                    .route_by_name(name)
                    .unwrap_or_else(|| panic!("{}: route {name} not in catalog", e.pair));
                let built = &catalog.routes[idx];
                prop_assert_eq!((built.src, built.dst), (e.src, e.dst), "route on its pair");
                prop_assert_eq!(&built.links, links, "{}: link list from catalog", name);
                prop_assert!(candidates.contains(&idx), "{}: candidate of the pair", name);
            }
        }
    }
}

#[test]
fn golden_topo_chaos_report_matches_snapshot() {
    // Regional outage on the mesh with breaker-aware re-routing enabled:
    // the fixed report (including the reroutes counter) is the golden.
    let out = run_fleet_sharded(
        &topo_wl(20),
        &topo_cfg(Some(1), true),
        &mut HistoryStore::in_memory(),
        1,
    );
    check_golden(
        "tests/golden/routes/chaos_report.txt",
        &out.report.render(),
        "topo chaos report",
    );
}

#[test]
fn topo_fleet_is_byte_deterministic() {
    for outage in [None, Some(1)] {
        let cfg = topo_cfg(outage, true);
        let a = run_fleet_sharded(&topo_wl(20), &cfg, &mut HistoryStore::in_memory(), 1);
        let b = run_fleet_sharded(&topo_wl(20), &cfg, &mut HistoryStore::in_memory(), 1);
        assert_eq!(a.report.render(), b.report.render(), "outage {outage:?}");
        assert_eq!(a.decisions_jsonl, b.decisions_jsonl, "outage {outage:?}");
        assert_eq!(
            a.supervision_jsonl, b.supervision_jsonl,
            "outage {outage:?}"
        );
        assert_eq!(a.metrics_jsonl, b.metrics_jsonl, "outage {outage:?}");
    }
}

#[test]
fn rerouting_beats_fixed_routes_under_a_regional_outage() {
    // The acceptance claim: under a regional-outage fault plan, re-routing
    // quarantined jobs onto the placement's next-ranked candidate moves more
    // bytes than pinning every job to its original route, actually re-routes
    // at least one job, and never loses bytes across the hop.
    let wl = topo_wl(20);
    let rerouted = run_fleet_sharded(
        &wl,
        &topo_cfg(Some(1), true),
        &mut HistoryStore::in_memory(),
        1,
    );
    let fixed = run_fleet_sharded(
        &wl,
        &topo_cfg(Some(1), false),
        &mut HistoryStore::in_memory(),
        1,
    );

    assert!(
        rerouted.report.supervision.reroutes > 0,
        "outage must force at least one re-route:\n{}",
        rerouted.report.render()
    );
    assert_eq!(fixed.report.supervision.reroutes, 0, "reroute disabled");
    assert!(
        rerouted.report.total_moved_mb() > fixed.report.total_moved_mb(),
        "re-routing must beat fixed routes on moved_mb: {} vs {}\n{}\n{}",
        rerouted.report.total_moved_mb(),
        fixed.report.total_moved_mb(),
        rerouted.report.render(),
        fixed.report.render()
    );
    // Byte conservation: every completed job moved its full size (within
    // the final-tick rounding the classic fleet also allows), re-routed or
    // not, and nobody moved more than it was asked to.
    for o in &rerouted.report.outcomes {
        if o.state == JobState::Completed {
            assert!(
                o.moved_mb >= o.spec.size_mb - 1.0,
                "job{} completed but lost bytes: {} of {}",
                o.id,
                o.moved_mb,
                o.spec.size_mb
            );
        }
        assert!(
            o.moved_mb <= o.spec.size_mb + 1.0,
            "job{} moved more than its size: {} of {}",
            o.id,
            o.moved_mb,
            o.spec.size_mb
        );
    }
}

#[test]
fn topo_kill_and_resume_is_byte_identical() {
    // Crash/resume contract extends to planet fleets: checkpoint a chaos run
    // at tick k (topo header fields round-trip), resume, and reproduce the
    // uninterrupted run byte for byte.
    let cfg = topo_cfg(Some(1), true);
    let wl = topo_wl(12);
    let full = run_fleet_sharded(&wl, &cfg, &mut HistoryStore::in_memory(), 1);
    let total_ticks = {
        let mut h = HistoryStore::in_memory();
        let mut sim = ShardedFleetSim::new(&wl, &cfg, &mut h, 1);
        while sim.tick() {}
        sim.tick_index()
    };
    assert!(total_ticks > 3, "probe run too short: {total_ticks} ticks");
    for k in [1, total_ticks / 3, 2 * total_ticks / 3] {
        let text = {
            let mut h = HistoryStore::in_memory();
            let mut sim = ShardedFleetSim::new(&wl, &cfg, &mut h, 1);
            while sim.tick_index() < k {
                assert!(sim.tick(), "run ended before kill tick {k}");
            }
            sim.checkpoint()
        };
        let ck = Checkpoint::parse(&text).unwrap_or_else(|e| panic!("tick {k}: {e}"));
        let tc = ck.config.topo.as_ref().expect("topo header round-trips");
        assert_eq!(tc.preset, "mesh", "tick {k}");
        assert_eq!(tc.outage_regions, vec![1], "tick {k}");
        let resumed = resume_fleet_sharded(&ck, &mut HistoryStore::in_memory(), 1)
            .unwrap_or_else(|e| panic!("tick {k}: {e}"));
        assert_eq!(full.report.render(), resumed.report.render(), "tick {k}");
        assert_eq!(full.decisions_jsonl, resumed.decisions_jsonl, "tick {k}");
        assert_eq!(
            full.supervision_jsonl, resumed.supervision_jsonl,
            "tick {k}"
        );
        assert_eq!(full.metrics_jsonl, resumed.metrics_jsonl, "tick {k}");
    }
}

#[test]
fn multipath_splits_streams_and_still_conserves_bytes() {
    // Multi-path placement: with --multipath 2 each fresh admission splits
    // its slice across the top-2 placement routes. All jobs must still
    // complete with their full sizes accounted for.
    let mut tc = TopoFleetConfig::preset("mesh");
    tc.multipath = 2;
    let cfg = FleetConfig {
        seed: 7,
        horizon_s: 3600.0,
        topo: Some(tc),
        ..FleetConfig::default()
    };
    let out = run_fleet_sharded(&topo_wl(10), &cfg, &mut HistoryStore::in_memory(), 1);
    assert_eq!(
        out.report.count(JobState::Completed),
        10,
        "{}",
        out.report.render()
    );
    for o in &out.report.outcomes {
        assert!(
            (o.moved_mb - o.spec.size_mb).abs() <= 1.0,
            "job{}: moved {} of {}",
            o.id,
            o.moved_mb,
            o.spec.size_mb
        );
    }
}
