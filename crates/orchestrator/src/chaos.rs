//! Chaos-campaign harness (DESIGN.md §17): scripted multi-phase fault
//! scenarios run across seeds and control-plane variants, folded into a
//! byte-deterministic resilience scorecard.
//!
//! A campaign pits three fleets against the same scripted faults:
//!
//! * `no-reroute` — supervision quarantines and requeues, but jobs are
//!   pinned to their searched routes (`reroute=false`, `selfheal=false`);
//! * `static` — breaker-blocked requeues hop to the placement's next-ranked
//!   candidate (`reroute=true`, `selfheal=false`, the PR-8 baseline);
//! * `selfheal` — the full control plane: SLO tracking, online placement
//!   re-search, retry budget, brownout shedding (`reroute=true`,
//!   `selfheal=true`).
//!
//! Every variant runs the **same** workload through [`run_fleet_sharded`],
//! so the scorecard is a pure function of `(campaign, preset, jobs, seeds,
//! horizon, shards)` and byte-identical across reruns and shard counts —
//! the CI chaos gate diffs it against a golden snapshot.

use crate::fleet::{topo_workload, FleetConfig, FleetOutcome, TopoFleetConfig};
use crate::govern::RETRY_BUDGET_CAP;
use crate::history::HistoryStore;
use crate::job::JobState;
use crate::shard::run_fleet_sharded;
use xferopt_simcore::json::Fields;
use xferopt_simcore::stats::sum;
use xferopt_topo::{campaign_phases, search_routes, Planet, RouteCatalog, SearchConfig};

/// The three control-plane variants a campaign compares, in scorecard order.
pub const VARIANTS: [&str; 3] = ["no-reroute", "static", "selfheal"];

/// Campaign harness inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Campaign name (see [`xferopt_topo::CAMPAIGNS`]).
    pub campaign: String,
    /// Planet preset the fleets run on.
    pub preset: String,
    /// Jobs in the shared workload.
    pub jobs: usize,
    /// World seeds, one full variant sweep per seed.
    pub seeds: Vec<u64>,
    /// Run horizon, simulated seconds.
    pub horizon_s: f64,
    /// Worker-thread cap for the sharded executor (output is byte-identical
    /// for every value).
    pub shards: usize,
}

/// Most seeds one campaign may sweep: each seed runs every control-plane
/// variant's fleet in full, and the seed list is allocated up front.
pub const MAX_SEEDS: u64 = 1_000;

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            campaign: "rolling-outage".to_string(),
            preset: "mesh".to_string(),
            jobs: 20,
            seeds: vec![7],
            horizon_s: 3600.0,
            shards: 1,
        }
    }
}

/// Per-variant totals aggregated over every seed.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantTotals {
    /// Variant label (one of [`VARIANTS`]).
    pub variant: String,
    /// Jobs that completed, summed over seeds.
    pub completed: usize,
    /// Jobs submitted, summed over seeds.
    pub submitted: usize,
    /// Megabytes moved, summed over seeds.
    pub moved_mb: f64,
    /// Megabytes completed jobs fell short of their sizes (the resilience
    /// invariant: must be 0.0 — completion without the bytes is a lie).
    pub bytes_lost: f64,
    /// Watchdog quarantines.
    pub quarantines: u64,
    /// Requeues after quarantine backoff.
    pub requeues: u64,
    /// Next-ranked-candidate route hops.
    pub reroutes: u64,
    /// Online re-search migrations.
    pub replans: u64,
    /// Brownout sheds (budget and SLO both exhausted).
    pub brownouts: u64,
    /// Retry-budget tokens consumed (`requeues + reroutes + replans` by
    /// construction — every budgeted action costs exactly one).
    pub retries_used: u64,
    /// SLO transitions into `degraded` observed by the monitor.
    pub slo_degrades: u64,
}

/// A finished campaign: the rendered scorecard plus the per-variant totals
/// the acceptance tests assert on.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// The byte-deterministic scorecard text.
    pub scorecard: String,
    /// Totals in [`VARIANTS`] order.
    pub totals: Vec<VariantTotals>,
}

impl CampaignOutcome {
    /// Totals for one variant label.
    ///
    /// # Panics
    /// Panics on a label not in [`VARIANTS`] (harness always emits all
    /// three).
    pub fn variant(&self, label: &str) -> &VariantTotals {
        self.totals
            .iter()
            .find(|t| t.variant == label)
            .unwrap_or_else(|| panic!("no variant {label:?} in campaign totals"))
    }
}

/// Stats from one `(seed, variant)` run.
struct RunStats {
    completed: usize,
    submitted: usize,
    moved_mb: f64,
    bytes_lost: f64,
    quarantines: u64,
    requeues: u64,
    reroutes: u64,
    replans: u64,
    brownouts: u64,
    slo_degrades: u64,
    /// Supervision events as `(t_s, event, ns)` in occurrence order.
    events: Vec<(f64, String, Option<String>)>,
}

impl RunStats {
    fn retries_used(&self) -> u64 {
        self.requeues + self.reroutes + self.replans
    }
}

fn collect(out: &FleetOutcome) -> RunStats {
    let mut bytes_lost = 0.0;
    for o in &out.report.outcomes {
        if o.state == JobState::Completed {
            // The classic fleet allows sub-1 MB final-tick rounding; anything
            // beyond that is genuinely lost bytes.
            bytes_lost += (o.spec.size_mb - o.moved_mb - 1.0).max(0.0);
        }
    }
    let mut events = Vec::new();
    let mut slo_degrades = 0;
    for f in out.supervision_jsonl.lines().filter_map(Fields::parse) {
        let Some(event) = f.get("event") else {
            continue;
        };
        let t = f
            .get("t_s")
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0);
        if event == "slo" && f.get("detail").is_some_and(|d| d.ends_with("=>degraded")) {
            slo_degrades += 1;
        }
        events.push((t, event.to_string(), f.get("ns").map(str::to_string)));
    }
    let s = &out.report.supervision;
    RunStats {
        completed: out.report.count(JobState::Completed),
        submitted: out.report.submitted,
        moved_mb: out.report.total_moved_mb(),
        bytes_lost,
        quarantines: s.quarantines,
        requeues: s.requeues,
        reroutes: s.reroutes,
        replans: s.replans,
        brownouts: s.brownouts,
        slo_degrades,
        events,
    }
}

/// Mean time-to-recovery for quarantines inside `[start, end)`: the gap from
/// each quarantine to the same job's next requeue/reroute/replan. `None`
/// when no quarantine in the window recovered.
fn mttr_s(events: &[(f64, String, Option<String>)], start: f64, end: f64) -> Option<f64> {
    let mut deltas = Vec::new();
    for (i, (t, event, ns)) in events.iter().enumerate() {
        if event != "quarantine" || *t < start || *t >= end || ns.is_none() {
            continue;
        }
        for (t2, e2, ns2) in &events[i + 1..] {
            if ns2 == ns && matches!(e2.as_str(), "requeue" | "reroute" | "replan") {
                deltas.push(t2 - t);
                break;
            }
        }
    }
    if deltas.is_empty() {
        None
    } else {
        Some(deltas.iter().sum::<f64>() / deltas.len() as f64)
    }
}

/// Run the campaign: every variant over every seed on the shared workload,
/// folded into a scorecard. Deterministic — same config, same bytes, for
/// any `shards`.
///
/// # Errors
/// Returns an error for an unknown preset or campaign name.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignOutcome, String> {
    let planet = Planet::preset(&cfg.preset).map_err(|e| e.to_string())?;
    let phases =
        campaign_phases(&planet, &cfg.campaign, cfg.horizon_s).map_err(|e| e.to_string())?;
    if cfg.jobs == 0 || cfg.seeds.is_empty() {
        return Err("campaign needs at least one job and one seed".to_string());
    }
    let search = SearchConfig::default();
    let placement = search_routes(&planet, &search).map_err(|e| e.to_string())?;
    let catalog = RouteCatalog::enumerate(&planet, search.k).map_err(|e| e.to_string())?;
    let workload = topo_workload(&placement, &catalog, cfg.jobs);

    let mut scorecard = format!(
        "chaos campaign={} preset={} jobs={} seeds={} horizon_s={:.0} shards={} budget={}\n",
        cfg.campaign,
        cfg.preset,
        cfg.jobs,
        cfg.seeds
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(","),
        cfg.horizon_s,
        cfg.shards,
        RETRY_BUDGET_CAP,
    );
    for (label, start, end) in &phases {
        scorecard.push_str(&format!("phase {label} window={start:.0}-{end:.0}\n"));
    }

    // variant -> per-seed stats, in VARIANTS x seed order.
    let mut all: Vec<(usize, u64, RunStats)> = Vec::new();
    for &seed in &cfg.seeds {
        for (vi, variant) in VARIANTS.iter().enumerate() {
            let mut tc = TopoFleetConfig::preset(&cfg.preset);
            tc.campaign = Some(cfg.campaign.clone());
            tc.reroute = vi > 0;
            tc.selfheal = vi == 2;
            let fleet_cfg = FleetConfig {
                seed,
                horizon_s: cfg.horizon_s,
                topo: Some(tc),
                ..FleetConfig::default()
            };
            fleet_cfg.validate().map_err(|e| e.to_string())?;
            let out = run_fleet_sharded(
                &workload,
                &fleet_cfg,
                &mut HistoryStore::in_memory(),
                cfg.shards.max(1),
            );
            let stats = collect(&out);
            scorecard.push_str(&format!(
                "seed={seed} variant={variant} completed={}/{} moved_mb={:.1} bytes_lost={:.1} \
                 quarantines={} requeues={} reroutes={} replans={} brownouts={} retries_used={} \
                 slo_degrades={}\n",
                stats.completed,
                stats.submitted,
                stats.moved_mb,
                stats.bytes_lost,
                stats.quarantines,
                stats.requeues,
                stats.reroutes,
                stats.replans,
                stats.brownouts,
                stats.retries_used(),
                stats.slo_degrades,
            ));
            all.push((vi, seed, stats));
        }
    }

    let mut totals = Vec::new();
    for (vi, variant) in VARIANTS.iter().enumerate() {
        let runs: Vec<&RunStats> = all
            .iter()
            .filter(|(v, _, _)| *v == vi)
            .map(|(_, _, s)| s)
            .collect();
        // Per-phase recovery stats pooled over seeds: event count in the
        // window plus mean time-to-recovery of the window's quarantines.
        for (label, start, end) in &phases {
            let events: usize = runs
                .iter()
                .map(|s| {
                    s.events
                        .iter()
                        .filter(|(t, _, _)| *t >= *start && *t < *end)
                        .count()
                })
                .sum();
            let per_run: Vec<f64> = runs
                .iter()
                .filter_map(|s| mttr_s(&s.events, *start, *end))
                .collect();
            let mttr = if per_run.is_empty() {
                "-".to_string()
            } else {
                format!("{:.1}", per_run.iter().sum::<f64>() / per_run.len() as f64)
            };
            scorecard.push_str(&format!(
                "recovery variant={variant} phase={label} events={events} mttr_s={mttr}\n"
            ));
        }
        let t = VariantTotals {
            variant: variant.to_string(),
            completed: runs.iter().map(|s| s.completed).sum(),
            submitted: runs.iter().map(|s| s.submitted).sum(),
            moved_mb: sum(runs.iter().map(|s| s.moved_mb)),
            bytes_lost: sum(runs.iter().map(|s| s.bytes_lost)),
            quarantines: runs.iter().map(|s| s.quarantines).sum(),
            requeues: runs.iter().map(|s| s.requeues).sum(),
            reroutes: runs.iter().map(|s| s.reroutes).sum(),
            replans: runs.iter().map(|s| s.replans).sum(),
            brownouts: runs.iter().map(|s| s.brownouts).sum(),
            retries_used: runs.iter().map(|s| s.retries_used()).sum(),
            slo_degrades: runs.iter().map(|s| s.slo_degrades).sum(),
        };
        scorecard.push_str(&format!(
            "total variant={} completed={}/{} moved_mb={:.1} bytes_lost={:.1} retries_used={} \
             budget={}\n",
            t.variant,
            t.completed,
            t.submitted,
            t.moved_mb,
            t.bytes_lost,
            t.retries_used,
            RETRY_BUDGET_CAP as usize * cfg.seeds.len(),
        ));
        totals.push(t);
    }
    Ok(CampaignOutcome { scorecard, totals })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_campaign_and_preset_are_refused() {
        let bad_campaign = CampaignConfig {
            campaign: "nope".to_string(),
            ..CampaignConfig::default()
        };
        assert!(run_campaign(&bad_campaign).unwrap_err().contains("nope"));
        let bad_preset = CampaignConfig {
            preset: "flatland".to_string(),
            ..CampaignConfig::default()
        };
        assert!(run_campaign(&bad_preset).is_err());
        let empty = CampaignConfig {
            jobs: 0,
            ..CampaignConfig::default()
        };
        assert!(run_campaign(&empty).unwrap_err().contains("at least one"));
    }

    #[test]
    fn nic_degrade_campaign_is_deterministic_and_loses_no_bytes() {
        let cfg = CampaignConfig {
            campaign: "nic-degrade".to_string(),
            jobs: 6,
            horizon_s: 2400.0,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&cfg).unwrap();
        let b = run_campaign(&cfg).unwrap();
        assert_eq!(a.scorecard, b.scorecard, "scorecard bytes");
        for t in &a.totals {
            assert_eq!(
                t.bytes_lost, 0.0,
                "{}: completed jobs lost bytes",
                t.variant
            );
            assert_eq!(t.retries_used, t.requeues + t.reroutes + t.replans);
        }
        assert!(a.scorecard.starts_with("chaos campaign=nic-degrade"));
        assert!(a.scorecard.contains("phase nic-degrade window=600-1500"));
    }
}
