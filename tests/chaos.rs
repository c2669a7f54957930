//! Self-healing control plane + chaos-campaign tests (DESIGN.md §17):
//! golden resilience scorecard, selfheal-beats-baselines acceptance, the
//! retry-budget invariant at every tick, shard-count equivalence, and
//! fuzzed checkpoint-journal corruption (truncations and byte flips must
//! salvage a digest-valid prefix or refuse — never silently resume corrupt
//! state).
//!
//! The golden files live in `tests/golden/chaos/`; re-bless intentional
//! format changes with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test chaos
//! ```

use proptest::prelude::*;
use xferopt::orchestrator::{
    parse_journal, resume_fleet_sharded, run_campaign, run_fleet_sharded, CampaignConfig,
    FleetConfig, FleetSim, HistoryStore, JobRoute, ShardedFleetSim, TopoFleetConfig, Workload,
    RETRY_BUDGET_CAP,
};
use xferopt::simcore::json::{escape, Fields};

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

#[test]
fn golden_rolling_outage_scorecard_matches_snapshot() {
    let out = run_campaign(&CampaignConfig::default()).expect("campaign runs");
    check_golden(
        "tests/golden/chaos/rolling_outage_scorecard.txt",
        &out.scorecard,
        "rolling-outage scorecard",
    );
}

#[test]
fn selfheal_beats_both_baselines_and_loses_no_bytes() {
    // The PR's acceptance claim: on the rolling-outage campaign the
    // self-healing fleet moves strictly more MB than both the pinned-routes
    // fleet and the static next-ranked-reroute fleet, completes without
    // losing bytes, and stays within its retry budget.
    let cfg = CampaignConfig::default();
    let out = run_campaign(&cfg).expect("campaign runs");
    let noreroute = out.variant("no-reroute");
    let fixed = out.variant("static");
    let heal = out.variant("selfheal");
    assert!(
        heal.moved_mb > noreroute.moved_mb,
        "selfheal must beat no-reroute: {} vs {}\n{}",
        heal.moved_mb,
        noreroute.moved_mb,
        out.scorecard
    );
    assert!(
        heal.moved_mb > fixed.moved_mb,
        "selfheal must beat static reroute: {} vs {}\n{}",
        heal.moved_mb,
        fixed.moved_mb,
        out.scorecard
    );
    assert!(
        heal.replans > 0,
        "control plane never re-planned:\n{}",
        out.scorecard
    );
    assert!(
        heal.slo_degrades > 0,
        "SLO monitor never fired:\n{}",
        out.scorecard
    );
    let budget = RETRY_BUDGET_CAP * cfg.seeds.len() as u64;
    for t in &out.totals {
        assert_eq!(
            t.bytes_lost, 0.0,
            "{}: completed jobs lost bytes",
            t.variant
        );
        assert_eq!(
            t.retries_used,
            t.requeues + t.reroutes + t.replans,
            "{}: token economy out of step",
            t.variant
        );
        assert!(
            t.retries_used <= budget,
            "{}: consumed {} retries against a {budget} budget",
            t.variant,
            t.retries_used
        );
    }
}

#[test]
fn campaign_scorecard_is_identical_across_reruns_and_shard_counts() {
    let base = CampaignConfig {
        jobs: 10,
        horizon_s: 2400.0,
        ..CampaignConfig::default()
    };
    let a = run_campaign(&base).expect("campaign runs");
    let b = run_campaign(&base).expect("campaign runs");
    assert_eq!(a.scorecard, b.scorecard, "rerun bytes");
    let sharded = CampaignConfig { shards: 4, ..base };
    let c = run_campaign(&sharded).expect("campaign runs");
    // Only the header's shards= field may differ between shard counts.
    let strip = |s: &str| {
        s.replace(" shards=4 ", " shards= ")
            .replace(" shards=1 ", " shards= ")
    };
    assert_eq!(
        strip(&a.scorecard),
        strip(&c.scorecard),
        "shard-count equivalence"
    );
}

/// Selfheal fleet config on the rolling-outage campaign (the direct FleetSim
/// mirror of the harness's `selfheal` variant).
fn selfheal_cfg() -> FleetConfig {
    let mut tc = TopoFleetConfig::preset("mesh");
    tc.campaign = Some("rolling-outage".to_string());
    tc.selfheal = true;
    FleetConfig {
        seed: 7,
        horizon_s: 3600.0,
        topo: Some(tc),
        ..FleetConfig::default()
    }
}

fn mesh_campaign_wl(jobs: usize) -> Workload {
    use xferopt::orchestrator::topo_workload;
    use xferopt::topo::{search_routes, Planet, RouteCatalog, SearchConfig};
    let planet = Planet::preset("mesh").expect("mesh preset");
    let placement = search_routes(&planet, &SearchConfig::default()).expect("search");
    let catalog = RouteCatalog::enumerate(&planet, 3).expect("catalog");
    topo_workload(&placement, &catalog, jobs)
}

#[test]
fn retry_budget_invariant_holds_at_every_tick() {
    // At every tick: tokens never exceed the cap, and consumed tokens never
    // exceed issued ones (every requeue/reroute/migration paid for). At the
    // end, the consumed count equals the supervision counters it funds.
    let cfg = selfheal_cfg();
    let wl = mesh_campaign_wl(20);
    let cap = RETRY_BUDGET_CAP;
    let mut h = HistoryStore::in_memory();
    let mut sim = FleetSim::new(&wl, &cfg, &mut h);
    let mut last_consumed = 0;
    while sim.tick() {
        let (tokens, consumed, issued) = sim.governor_snapshot().expect("selfheal governor");
        assert!(tokens <= cap, "tokens {tokens} exceed cap {cap}");
        assert!(
            consumed <= issued,
            "consumed {consumed} tokens but only {issued} were issued"
        );
        assert!(consumed >= last_consumed, "consumed count went backwards");
        last_consumed = consumed;
    }
    let (_, consumed, _) = sim.governor_snapshot().expect("selfheal governor");
    let out = sim.finish();
    let s = &out.report.supervision;
    assert_eq!(
        consumed,
        s.requeues + s.reroutes + s.replans,
        "token economy out of step with supervision counters:\n{}",
        out.report.render()
    );
}

#[test]
fn selfheal_run_is_byte_deterministic_and_checkpoint_resumable() {
    // The control plane lives inside the replay boundary: a selfheal chaos
    // run checkpoints mid-campaign and resumes byte-identically.
    let cfg = selfheal_cfg();
    let wl = mesh_campaign_wl(12);
    let full = run_fleet_sharded(&wl, &cfg, &mut HistoryStore::in_memory(), 1);
    let again = run_fleet_sharded(&wl, &cfg, &mut HistoryStore::in_memory(), 1);
    assert_eq!(full.report.render(), again.report.render());
    assert_eq!(full.supervision_jsonl, again.supervision_jsonl);
    let total_ticks = {
        let mut h = HistoryStore::in_memory();
        let mut sim = ShardedFleetSim::new(&wl, &cfg, &mut h, 1);
        while sim.tick() {}
        sim.tick_index()
    };
    assert!(total_ticks > 3, "probe run too short: {total_ticks} ticks");
    let text = {
        let mut h = HistoryStore::in_memory();
        let mut sim = ShardedFleetSim::new(&wl, &cfg, &mut h, 1);
        while sim.tick_index() < 2 * total_ticks / 3 {
            assert!(sim.tick());
        }
        sim.checkpoint()
    };
    let read = parse_journal(&text).expect("single block parses");
    assert!(!read.salvaged());
    let tc = read
        .checkpoint
        .config
        .topo
        .as_ref()
        .expect("topo round-trips");
    assert!(tc.selfheal, "selfheal flag round-trips");
    assert_eq!(tc.campaign.as_deref(), Some("rolling-outage"));
    let resumed =
        resume_fleet_sharded(&read.checkpoint, &mut HistoryStore::in_memory(), 1).unwrap();
    assert_eq!(full.report.render(), resumed.report.render());
    assert_eq!(full.supervision_jsonl, resumed.supervision_jsonl);
}

#[test]
fn multi_region_outage_round_trips_and_stays_deterministic() {
    let mut tc = TopoFleetConfig::preset("mesh");
    tc.outage_regions = vec![0, 2];
    let cfg = FleetConfig {
        seed: 7,
        horizon_s: 2400.0,
        topo: Some(tc),
        ..FleetConfig::default()
    };
    let wl = mesh_campaign_wl(10);
    let a = run_fleet_sharded(&wl, &cfg, &mut HistoryStore::in_memory(), 1);
    let b = run_fleet_sharded(&wl, &cfg, &mut HistoryStore::in_memory(), 1);
    assert_eq!(a.report.render(), b.report.render());
    assert!(a.report.render().contains(" outage_regions=0,2"));
    let text = {
        let mut h = HistoryStore::in_memory();
        let mut sim = ShardedFleetSim::new(&wl, &cfg, &mut h, 1);
        for _ in 0..50 {
            assert!(sim.tick());
        }
        sim.checkpoint()
    };
    let ck = parse_journal(&text).expect("parses").checkpoint;
    let tc = ck.config.topo.as_ref().expect("topo round-trips");
    assert_eq!(tc.outage_regions, vec![0, 2], "multi-region round trip");
    let resumed = resume_fleet_sharded(&ck, &mut HistoryStore::in_memory(), 1).unwrap();
    assert_eq!(a.report.render(), resumed.report.render());
}

/// Reference journal for the corruption fuzzers: a classic fleet
/// checkpointed at two ticks, plus the uninterrupted run's report.
fn journal_fixture() -> (String, String) {
    let cfg = FleetConfig {
        horizon_s: 1800.0,
        ..FleetConfig::default()
    };
    journal_of(&Workload::synthetic(4, 5), &cfg)
}

/// `w` run under `cfg` and checkpointed at ticks 10 and 20: the journal,
/// and the uninterrupted run's report.
fn journal_of(w: &Workload, cfg: &FleetConfig) -> (String, String) {
    let full = run_fleet_sharded(w, cfg, &mut HistoryStore::in_memory(), 1);
    let mut h = HistoryStore::in_memory();
    let mut sim = ShardedFleetSim::new(w, cfg, &mut h, 1);
    let mut journal = String::new();
    for _ in 0..10 {
        assert!(sim.tick());
    }
    journal.push_str(&sim.checkpoint());
    for _ in 0..10 {
        assert!(sim.tick());
    }
    journal.push_str(&sim.checkpoint());
    (journal, full.report.render())
}

/// A mesh fleet whose first job's route is renamed `name`: the same links
/// and path (a planet fleet runs a route by its path), so only the name the
/// journal writes differs.
fn renamed_route(name: &str) -> (Workload, FleetConfig) {
    let mut jobs = mesh_campaign_wl(6).jobs().to_vec();
    let r = &jobs[0].route;
    jobs[0].route = JobRoute::new(name, r.links().to_vec(), r.path_index());
    let cfg = FleetConfig {
        horizon_s: 1800.0,
        topo: Some(TopoFleetConfig::preset("mesh")),
        ..FleetConfig::default()
    };
    (Workload::new(jobs), cfg)
}

/// Parse a journal whose workload holds a forged route name: it must hold
/// its two real checkpoint blocks, and the newest resumes byte-identically.
fn assert_forgery_is_only_a_name(forged: &str) {
    let (w, cfg) = renamed_route(forged);
    let (journal, full_render) = journal_of(&w, &cfg);
    let job = journal
        .lines()
        .find(|l| l.starts_with("{\"kind\":\"fleet-job\""))
        .expect("a job line");
    let f = Fields::parse(job).expect("the forged line is one object");
    assert_eq!(f.get("route"), Some(forged));
    assert!(job.contains(&escape(forged)));
    let headers = |kind: &str| {
        journal
            .lines()
            .filter(|l| l.starts_with(&format!("{{\"kind\":\"{kind}\"")))
            .count()
    };
    assert_eq!(headers("fleet-workload"), 1);
    assert_eq!(headers("fleet-checkpoint"), 2);
    let read = parse_journal(&journal).expect("journal parses");
    assert_eq!(read.blocks_total, 2, "a job line was taken for a header");
    assert_eq!(read.blocks_dropped, 0);
    assert_eq!(read.checkpoint.tick, 20);
    assert_eq!(read.checkpoint.workload.jobs()[0].route.name(), forged);
    let resumed = resume_fleet_sharded(&read.checkpoint, &mut HistoryStore::in_memory(), 1)
        .expect("newest block resumes");
    assert_eq!(resumed.report.render(), full_render);
}

/// A route name that spells out a checkpoint header is only a name: with
/// one in the workload's first job line, the journal still holds its two
/// real blocks, and the newest resumes byte-identically.
#[test]
fn route_names_cannot_forge_journal_headers() {
    assert_forgery_is_only_a_name("x\",\"kind\":\"fleet-checkpoint");
    assert_forgery_is_only_a_name("x\n{\"kind\":\"fleet-checkpoint\",\"version\":2,\"tick\":99}\n");
}

/// Nor can a route name open a second workload block, on its own line or
/// inside its job line.
#[test]
fn route_names_cannot_forge_a_workload_block() {
    assert_forgery_is_only_a_name("x\",\"kind\":\"fleet-workload");
    assert_forgery_is_only_a_name("x\n{\"kind\":\"fleet-workload\",\"version\":2,\"jobs\":0}\n");
}

/// The committed version-1 journal, written before journals held their
/// workload once (`xferopt fleet run --jobs 6 --seed 7 --sites 2 --horizon
/// 7200 --faults flaky-link --checkpoint-every 20 --stop-at-tick 70`),
/// still resumes to the uninterrupted run's report, byte for byte.
#[test]
fn version_1_journal_resumes_byte_identically() {
    let text = std::fs::read_to_string("tests/golden/fleet/v1_journal.jsonl")
        .expect("committed v1 journal");
    assert!(text.starts_with("{\"kind\":\"fleet-checkpoint\",\"version\":1,"));
    let read = parse_journal(&text).expect("v1 journal parses");
    assert_eq!((read.blocks_total, read.blocks_dropped), (4, 0));
    assert_eq!(read.checkpoint.tick, 70);
    let resumed = resume_fleet_sharded(&read.checkpoint, &mut HistoryStore::in_memory(), 1)
        .expect("v1 checkpoint resumes");
    let want = std::fs::read_to_string("tests/golden/fleet/v1_journal_report.txt")
        .expect("committed uninterrupted report");
    assert_eq!(resumed.report.render(), want);
}

/// A journal that went through a CRLF editor, picked up blank and
/// whitespace-padded lines and garbage before its first header, and whose
/// newest block was torn mid-write, salvages the same checkpoint as a clean
/// journal of its intact blocks.
#[test]
fn crlf_padded_and_torn_journals_salvage_the_intact_block() {
    let cfg = FleetConfig {
        horizon_s: 1800.0,
        ..FleetConfig::default()
    };
    let w = Workload::synthetic(4, 5);
    let full = run_fleet_sharded(&w, &cfg, &mut HistoryStore::in_memory(), 1);
    let mut h = HistoryStore::in_memory();
    let mut sim = ShardedFleetSim::new(&w, &cfg, &mut h, 1);
    let mut blocks = Vec::new();
    for _ in 0..3 {
        for _ in 0..10 {
            assert!(sim.tick());
        }
        blocks.push(sim.checkpoint());
    }
    let clean = parse_journal(&blocks[..2].concat()).expect("clean journal parses");
    assert_eq!(clean.checkpoint.tick, 20);

    let mut text = String::from("garbage before any header\r\n{\"kind\":\"history\"}\r\n \t\r\n");
    for (b, block) in blocks.iter().enumerate() {
        let mut lines: Vec<String> = block
            .lines()
            .enumerate()
            .map(|(i, l)| match i % 3 {
                0 => format!("{l}\r\n"),
                1 => format!("  \t{l}  \r\n\r\n"),
                _ => format!("{l}\t\r\n   \r\n"),
            })
            .collect();
        if b == 2 {
            // Torn write: the newest block (a header and a digest line)
            // loses its digest line and the tail of its header.
            assert_eq!(lines.len(), 2, "a later block is header + digest");
            lines.pop();
            let header = lines.pop().expect("a header line");
            lines.push(header[..header.len() / 2].to_string());
        }
        text.extend(lines);
    }
    let read = parse_journal(&text).expect("the intact block is salvaged");
    assert_eq!(read.blocks_total, 3);
    assert_eq!(read.blocks_dropped, 1);
    assert!(read.salvaged());
    assert_eq!(read.checkpoint.tick, clean.checkpoint.tick);
    assert_eq!(read.checkpoint.digest, clean.checkpoint.digest);
    assert_eq!(
        read.checkpoint.history_appended,
        clean.checkpoint.history_appended
    );
    assert_eq!(read.checkpoint.workload.len(), w.len());
    let resumed = resume_fleet_sharded(&read.checkpoint, &mut HistoryStore::in_memory(), 1)
        .expect("salvaged block resumes");
    assert_eq!(resumed.report.render(), full.report.render());
}

proptest! {
    /// Truncating the journal anywhere must either salvage a checkpoint
    /// that resumes byte-identically to the uninterrupted run, or refuse —
    /// never resume into divergent state.
    #[test]
    fn truncated_journals_salvage_or_refuse(frac in 0.0f64..1.0) {
        let (journal, full_render) = journal_fixture();
        let cut = (journal.len() as f64 * frac) as usize;
        let cut = (0..=cut).rev().find(|&i| journal.is_char_boundary(i)).unwrap_or(0);
        let torn = &journal[..cut];
        if let Ok(read) = parse_journal(torn) {
            let resumed = resume_fleet_sharded(&read.checkpoint, &mut HistoryStore::in_memory(), 1)
                .expect("a parseable salvaged block must replay cleanly");
            prop_assert_eq!(resumed.report.render(), full_render);
        }
    }

    /// A flipped bit inside the workload block is always caught, and it
    /// leaves no checkpoint to resume: every block names that workload.
    #[test]
    fn bitflipped_workload_blocks_refuse_the_journal(pos in 0.0f64..1.0, bit in 0u8..7) {
        let (journal, _) = journal_fixture();
        let end = journal.find("{\"kind\":\"fleet-checkpoint\"").expect("a checkpoint block");
        let idx = ((end - 1) as f64 * pos) as usize;
        let mut bytes = journal.into_bytes();
        bytes[idx] ^= 1 << bit;
        let Ok(text) = String::from_utf8(bytes) else {
            return; // non-UTF8 file: read_to_string refuses upstream
        };
        prop_assert!(parse_journal(&text).is_err(), "flip at byte {} bit {} was accepted", idx, bit);
    }

    /// Flipping one byte anywhere in the journal must either be caught
    /// (parse or digest refusal, possibly salvaging the older block) or be
    /// provably harmless: whatever resumes must match the uninterrupted run.
    #[test]
    fn bitflipped_journals_salvage_or_refuse(pos in 0.0f64..1.0, bit in 0u8..7) {
        let (journal, full_render) = journal_fixture();
        let idx = ((journal.len() - 1) as f64 * pos) as usize;
        let mut bytes = journal.into_bytes();
        bytes[idx] ^= 1 << bit;
        let Ok(text) = String::from_utf8(bytes) else {
            return; // non-UTF8 file: read_to_string refuses upstream
        };
        if let Ok(read) = parse_journal(&text) {
            if let Ok(resumed) = resume_fleet_sharded(&read.checkpoint, &mut HistoryStore::in_memory(), 1) {
                prop_assert_eq!(resumed.report.render(), full_render);
            }
        }
    }
}
