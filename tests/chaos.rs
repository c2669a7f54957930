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
    FleetConfig, FleetSim, HistoryStore, ShardedFleetSim, TopoFleetConfig, Workload,
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
    let w = Workload::synthetic(4, 5);
    let full = run_fleet_sharded(&w, &cfg, &mut HistoryStore::in_memory(), 1);
    let mut h = HistoryStore::in_memory();
    let mut sim = ShardedFleetSim::new(&w, &cfg, &mut h, 1);
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

/// A route name that spells out a checkpoint header is only a name: with
/// one in the older block's first job line, the journal still holds its two
/// real blocks, and the newest resumes byte-identically.
#[test]
fn route_names_cannot_forge_journal_headers() {
    let (journal, full_render) = journal_fixture();
    let forged = "x\",\"kind\":\"fleet-checkpoint";
    let job = journal
        .lines()
        .position(|l| l.starts_with("{\"kind\":\"fleet-job\""))
        .expect("a job line");
    let text: String = journal
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i != job {
                return format!("{l}\n");
            }
            let route = Fields::parse(l).and_then(|f| f.get("route").map(str::to_string));
            let forged_line = l.replace(
                &format!("\"route\":\"{}\"", route.expect("route")),
                &format!("\"route\":\"{}\"", escape(forged)),
            );
            let f = Fields::parse(&forged_line).expect("forged line is one object");
            assert_eq!(f.get("route"), Some(forged));
            forged_line + "\n"
        })
        .collect();
    let read = parse_journal(&text).expect("journal parses");
    assert_eq!(read.blocks_total, 2, "a job line was taken for a header");
    assert_eq!(read.blocks_dropped, 0);
    assert_eq!(read.checkpoint.tick, 20);
    let resumed = resume_fleet_sharded(&read.checkpoint, &mut HistoryStore::in_memory(), 1)
        .expect("newest block resumes");
    assert_eq!(resumed.report.render(), full_render);
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
