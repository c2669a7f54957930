//! The tuner tournament: every tuner × every scenario preset × every fault
//! profile, scored against a per-scenario oracle.
//!
//! ROADMAP item 3 asks which tuner wins *where*; this module settles it with
//! one deterministic command. Each tournament **cell** drives one tuner
//! through the paper's control-epoch loop on one [`ScenarioPreset`] under
//! one fault profile, then scores it with:
//!
//! * **best MB/s** — the best epoch throughput observed,
//! * **t90** — wall seconds until an epoch's up-time throughput first
//!   reached 90 % of the fault-free oracle (the surface argmax measured by
//!   [`xferopt_scenarios::throughput_surface`]; startup overhead is charged
//!   to regret, not to convergence),
//! * **regret-vs-oracle** — the shortfall integrated over epochs
//!   ([`xferopt_tuners::summarize_regret`], MB wasted),
//! * **decisions-to-converge** — audited decisions until the tuner first
//!   declared convergence,
//! * **bytes moved** — total MB the tuned transfer shipped.
//!
//! Tuners are ranked by mean regret across cells (lower is better; t90
//! misses count as the full horizon in the mean-t90 column). Every render —
//! text, CSV, JSONL — is byte-deterministic, so the leaderboard doubles as a
//! golden snapshot (`tests/golden/tournament/`): any change to a tuner, the
//! allocator, or the fault layer that shifts relative tuner quality fails CI
//! loudly.
//!
//! Completed cells feed the [`HistoryStore`] (tagged with the preset name),
//! which is how the `history` tuner earns its warm start on reruns.

use crate::fleet::NOISE_SIGMA;
use crate::history::{HistoryRecord, HistoryStore};
use xferopt_scenarios::{
    drive_tuner, throughput_surface, DriveConfig, ExternalLoad, FaultProfile, LoadSchedule, Route,
    TuneDims,
};
use xferopt_simcore::json::{json_f64, object, push_line, Fields};
use xferopt_transfer::StreamParams;
use xferopt_tuners::online::{OnlineStep, OnlineTrajectory};
use xferopt_tuners::{summarize_regret, DecisionAction, HistoryTuner, OnlineTuner, TunerKind};

/// Fraction of the oracle that counts as "converged" for t90/regret.
const NEAR_OPT_FRAC: f64 = 0.9;

/// A named scenario preset: route + constant external load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioPreset {
    /// UChicago route, idle source (the paper's Fig. 5a regime).
    UcQuiet,
    /// UChicago route under heavy mixed load: 32 external streams + 16
    /// compute hogs (the contended regime where tuning matters most).
    UcContended,
    /// TACC route under moderate mixed load (long-RTT path).
    TaccMixed,
}

impl ScenarioPreset {
    /// All presets, in leaderboard order.
    pub const ALL: [ScenarioPreset; 3] = [
        ScenarioPreset::UcQuiet,
        ScenarioPreset::UcContended,
        ScenarioPreset::TaccMixed,
    ];

    /// Stable name (CLI value, report label, history-store scenario tag).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioPreset::UcQuiet => "uc-quiet",
            ScenarioPreset::UcContended => "uc-contended",
            ScenarioPreset::TaccMixed => "tacc-mixed",
        }
    }

    /// The WAN route this preset runs on.
    pub fn route(self) -> Route {
        match self {
            ScenarioPreset::UcQuiet | ScenarioPreset::UcContended => Route::UChicago,
            ScenarioPreset::TaccMixed => Route::Tacc,
        }
    }

    /// The constant external load on the source.
    pub fn load(self) -> ExternalLoad {
        match self {
            ScenarioPreset::UcQuiet => ExternalLoad::NONE,
            ScenarioPreset::UcContended => ExternalLoad::new(32, 16),
            ScenarioPreset::TaccMixed => ExternalLoad::new(8, 4),
        }
    }
}

impl std::str::FromStr for ScenarioPreset {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ScenarioPreset::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| format!("unknown scenario preset: {s}"))
    }
}

/// Most control epochs per tournament cell: 250x the default 40. Every
/// epoch of every cell is simulated and kept, so an unchecked count can
/// run for days or abort allocating.
pub const MAX_CELL_EPOCHS: usize = 10_000;

/// Tournament matrix and budget.
#[derive(Debug, Clone)]
pub struct TournamentConfig {
    /// Tuner kinds to race.
    pub tuners: Vec<TunerKind>,
    /// Scenario presets to race on.
    pub scenarios: Vec<ScenarioPreset>,
    /// Fault axis: `None` = fault-free, `Some(profile)` = seeded plan.
    pub faults: Vec<Option<FaultProfile>>,
    /// Control epochs per cell.
    pub epochs: usize,
    /// Control epoch length, seconds (the paper uses 30).
    pub epoch_s: f64,
    /// Root seed: worlds, fault plans, and oracle sweeps all derive from it.
    pub seed: u64,
    /// Steady measurement window per oracle sweep cell, seconds.
    pub oracle_secs: f64,
}

impl Default for TournamentConfig {
    fn default() -> Self {
        TournamentConfig {
            tuners: vec![
                TunerKind::Default,
                TunerKind::Cd,
                TunerKind::Cs,
                TunerKind::Nm,
                TunerKind::History,
                TunerKind::Heuristic,
                TunerKind::Bandit,
            ],
            scenarios: ScenarioPreset::ALL.to_vec(),
            faults: vec![
                None,
                Some(FaultProfile::FlakyLink),
                Some(FaultProfile::DegradedWan),
            ],
            epochs: 40,
            epoch_s: 30.0,
            seed: 7,
            oracle_secs: 150.0,
        }
    }
}

impl TournamentConfig {
    /// The CI smoke matrix: six tuners (including both new learners) × all
    /// three presets × two fault profiles, with capped epochs and a short
    /// oracle window so the whole sweep stays inside the CI budget.
    pub fn quick() -> Self {
        TournamentConfig {
            tuners: vec![
                TunerKind::Default,
                TunerKind::Cd,
                TunerKind::Cs,
                TunerKind::History,
                TunerKind::Heuristic,
                TunerKind::Bandit,
            ],
            faults: vec![None, Some(FaultProfile::FlakyLink)],
            epochs: 12,
            oracle_secs: 60.0,
            ..TournamentConfig::default()
        }
    }

    /// Total wall horizon of one cell, seconds.
    pub fn horizon_s(&self) -> f64 {
        self.epochs as f64 * self.epoch_s
    }

    fn validate(&self) {
        assert!(!self.tuners.is_empty(), "need at least one tuner");
        assert!(!self.scenarios.is_empty(), "need at least one scenario");
        assert!(!self.faults.is_empty(), "need at least one fault profile");
        assert!(self.epochs > 0, "need at least one epoch");
        assert!(self.epoch_s > 0.0, "epoch must be positive");
        assert!(self.oracle_secs > 0.0, "oracle window must be positive");
    }
}

/// Label for one slot on the fault axis.
fn fault_label(f: Option<FaultProfile>) -> &'static str {
    f.map_or("none", FaultProfile::name)
}

/// One scored tournament cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Tuner report name.
    pub tuner: String,
    /// Scenario preset name.
    pub scenario: String,
    /// Fault profile label (`none` when fault-free).
    pub faults: String,
    /// Fault-free oracle throughput for the scenario, MB/s.
    pub oracle_mbs: f64,
    /// Best epoch throughput the tuner reached, MB/s.
    pub best_mbs: f64,
    /// Seconds until an epoch's up-time throughput first reached 90 % of
    /// the oracle.
    pub t90_s: Option<f64>,
    /// Regret vs the oracle integrated over the run, MB.
    pub regret_mb: f64,
    /// Epoch index (0-based) that first reached 90 % of the oracle.
    pub epochs_to_90: Option<usize>,
    /// Audited decisions until the first `converged` event (0 when the
    /// tuner emits no audit stream; the event count when it never
    /// converged).
    pub decisions_to_converge: usize,
    /// Total MB the tuned transfer moved.
    pub moved_mb: f64,
}

impl CellResult {
    /// One fixed-key-order JSONL line.
    pub fn to_json(&self) -> String {
        object(|o| {
            o.str("kind", "tournament_cell");
            o.str("tuner", &self.tuner);
            o.str("scenario", &self.scenario);
            o.str("faults", &self.faults);
            o.f64("oracle_mbs", self.oracle_mbs);
            o.f64("best_mbs", self.best_mbs);
            o.opt("t90_s", self.t90_s.map(json_f64));
            o.f64("regret_mb", self.regret_mb);
            o.opt("epochs_to_90", self.epochs_to_90);
            o.raw("decisions_to_converge", self.decisions_to_converge);
            o.f64("moved_mb", self.moved_mb);
        })
    }

    /// Parse one line written by [`CellResult::to_json`].
    pub fn from_json(line: &str) -> Option<CellResult> {
        let f = Fields::parse(line)?;
        if f.get("kind")? != "tournament_cell" {
            return None;
        }
        Some(CellResult {
            tuner: f.get("tuner")?.to_string(),
            scenario: f.get("scenario")?.to_string(),
            faults: f.get("faults")?.to_string(),
            oracle_mbs: f.get("oracle_mbs")?.parse().ok()?,
            best_mbs: f.get("best_mbs")?.parse().ok()?,
            t90_s: f.get("t90_s")?.parse().ok(),
            regret_mb: f.get("regret_mb")?.parse().ok()?,
            epochs_to_90: f.get("epochs_to_90")?.parse().ok(),
            decisions_to_converge: f.get("decisions_to_converge")?.parse().ok()?,
            moved_mb: f.get("moved_mb")?.parse().ok()?,
        })
    }
}

/// One tuner's aggregate row in the ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct RankRow {
    /// 1-based rank (1 = least mean regret).
    pub rank: usize,
    /// Tuner report name.
    pub tuner: String,
    /// Mean regret across the tuner's cells, MB.
    pub mean_regret_mb: f64,
    /// Mean t90 across cells, with misses counted as the full horizon.
    pub mean_t90_s: f64,
    /// Cells that reached 90 % of the oracle.
    pub cells_converged: usize,
    /// Total cells the tuner ran.
    pub cells: usize,
}

/// The full tournament result: cells plus the derived ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct Leaderboard {
    /// Cell horizon used for t90 penalties, seconds.
    pub horizon_s: f64,
    /// All scored cells, in run order (scenario → fault → tuner).
    pub cells: Vec<CellResult>,
    /// Aggregate ranking, best first.
    pub ranks: Vec<RankRow>,
}

impl Leaderboard {
    /// Build the ranking from scored cells. `tuner_order` fixes the tiebreak
    /// (config order) and forces a row even for tuners with zero cells.
    pub fn from_cells(cells: Vec<CellResult>, tuner_order: &[String], horizon_s: f64) -> Self {
        let mut ranks: Vec<RankRow> = Vec::new();
        for name in tuner_order {
            let mine: Vec<&CellResult> = cells.iter().filter(|c| &c.tuner == name).collect();
            if mine.is_empty() {
                continue;
            }
            let n = mine.len() as f64;
            let mean_regret_mb = mine.iter().map(|c| c.regret_mb).sum::<f64>() / n;
            let mean_t90_s = mine
                .iter()
                .map(|c| c.t90_s.unwrap_or(horizon_s))
                .sum::<f64>()
                / n;
            ranks.push(RankRow {
                rank: 0,
                tuner: name.clone(),
                mean_regret_mb,
                mean_t90_s,
                cells_converged: mine.iter().filter(|c| c.t90_s.is_some()).count(),
                cells: mine.len(),
            });
        }
        // Stable sort: ties keep config order.
        ranks.sort_by(|a, b| {
            a.mean_regret_mb
                .partial_cmp(&b.mean_regret_mb)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for (i, r) in ranks.iter_mut().enumerate() {
            r.rank = i + 1;
        }
        Leaderboard {
            horizon_s,
            cells,
            ranks,
        }
    }

    /// Fixed-width text rendering (byte-deterministic).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "tuner tournament leaderboard ({} cells, horizon {}s)\n\n",
            self.cells.len(),
            fmt1(self.horizon_s),
        ));
        out.push_str(&format!(
            "{:<4} {:<10} {:>14} {:>11} {:>10}\n",
            "rank", "tuner", "mean_regret_mb", "mean_t90_s", "converged"
        ));
        for r in &self.ranks {
            out.push_str(&format!(
                "{:<4} {:<10} {:>14} {:>11} {:>9}/{}\n",
                r.rank,
                r.tuner,
                fmt1(r.mean_regret_mb),
                fmt1(r.mean_t90_s),
                r.cells_converged,
                r.cells,
            ));
        }
        out.push_str(&format!(
            "\n{:<10} {:<12} {:<12} {:>10} {:>9} {:>8} {:>11} {:>9} {:>9}\n",
            "tuner",
            "scenario",
            "faults",
            "oracle_mbs",
            "best_mbs",
            "t90_s",
            "regret_mb",
            "conv_dec",
            "moved_mb"
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{:<10} {:<12} {:<12} {:>10} {:>9} {:>8} {:>11} {:>9} {:>9}\n",
                c.tuner,
                c.scenario,
                c.faults,
                fmt1(c.oracle_mbs),
                fmt1(c.best_mbs),
                c.t90_s.map_or("-".to_string(), fmt1),
                fmt1(c.regret_mb),
                c.decisions_to_converge,
                fmt1(c.moved_mb),
            ));
        }
        out
    }

    /// CSV rendering: one row per cell (byte-deterministic).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "tuner,scenario,faults,oracle_mbs,best_mbs,t90_s,regret_mb,epochs_to_90,decisions_to_converge,moved_mb\n",
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                c.tuner,
                c.scenario,
                c.faults,
                fmt1(c.oracle_mbs),
                fmt1(c.best_mbs),
                c.t90_s.map_or(String::new(), fmt1),
                fmt1(c.regret_mb),
                c.epochs_to_90.map_or(String::new(), |v| v.to_string()),
                c.decisions_to_converge,
                fmt1(c.moved_mb),
            ));
        }
        out
    }

    /// JSONL rendering: one header line, one line per cell, one per rank.
    pub fn to_jsonl(&self) -> String {
        let mut out = object(|o| {
            o.str("kind", "tournament_run");
            o.raw("cells", self.cells.len());
            o.f64("horizon_s", self.horizon_s);
        }) + "\n";
        for c in &self.cells {
            out.push_str(&c.to_json());
            out.push('\n');
        }
        for r in &self.ranks {
            push_line(&mut out, |o| {
                o.str("kind", "tournament_rank");
                o.raw("rank", r.rank);
                o.str("tuner", &r.tuner);
                o.f64("mean_regret_mb", r.mean_regret_mb);
                o.f64("mean_t90_s", r.mean_t90_s);
                o.raw("cells_converged", r.cells_converged);
                o.raw("cells", r.cells);
            });
        }
        out
    }

    /// Rebuild a leaderboard from a JSONL document written by
    /// [`Leaderboard::to_jsonl`]. Ranks are recomputed from the cells, so a
    /// tampered rank line cannot disagree with the data.
    ///
    /// # Errors
    /// Returns a description of the first structural problem: empty input,
    /// missing/malformed header, or no parsable cell lines.
    pub fn from_jsonl(doc: &str) -> Result<Leaderboard, String> {
        let mut lines = doc.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty tournament report")?;
        let h = Fields::parse(header)
            .filter(|h| h.get("kind") == Some("tournament_run"))
            .ok_or_else(|| format!("not a tournament report header: {header}"))?;
        let declared: usize = h
            .get("cells")
            .and_then(|v| v.parse().ok())
            .ok_or("header missing cell count")?;
        let horizon_s: f64 = h
            .get("horizon_s")
            .and_then(|v| v.parse().ok())
            .ok_or("header missing horizon")?;
        let mut cells = Vec::new();
        let mut tuner_order: Vec<String> = Vec::new();
        for line in lines {
            if let Some(c) = CellResult::from_json(line) {
                if !tuner_order.contains(&c.tuner) {
                    tuner_order.push(c.tuner.clone());
                }
                cells.push(c);
            }
        }
        if cells.is_empty() {
            return Err("tournament report has no cells".to_string());
        }
        if cells.len() != declared {
            return Err(format!(
                "truncated tournament report: header declares {declared} cells, found {}",
                cells.len()
            ));
        }
        Ok(Leaderboard::from_cells(cells, &tuner_order, horizon_s))
    }
}

/// Fixed one-decimal float formatting shared by every render.
fn fmt1(v: f64) -> String {
    format!("{v:.1}")
}

/// Everything a tournament run produces.
#[derive(Debug)]
pub struct TournamentOutcome {
    /// The scored leaderboard.
    pub leaderboard: Leaderboard,
    /// Concatenated per-cell tuner audit streams, namespaced
    /// `tuner/scenario/faults`.
    pub decisions_jsonl: String,
    /// History records appended to the store by this run.
    pub history_appended: usize,
}

/// Run the full tournament matrix. Cells run in scenario → fault → tuner
/// order; each completed cell appends its best point to `history` (tagged
/// with the preset name), so the `history` tuner warms up across reruns
/// sharing a store. Fully deterministic in the config and the store
/// contents.
///
/// # Panics
/// Panics if any config axis is empty or a budget is non-positive.
pub fn run_tournament(cfg: &TournamentConfig, history: &mut HistoryStore) -> TournamentOutcome {
    cfg.validate();
    let mut cells = Vec::new();
    let mut decisions = String::new();
    let mut appended = 0usize;
    for &preset in &cfg.scenarios {
        // Fault-free oracle for this preset: the surface argmax over the nc
        // ladder at the paper's fixed np = 8.
        let ncs: Vec<u32> = vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512];
        let surface = throughput_surface(
            preset.route(),
            preset.load(),
            &ncs,
            &[8],
            cfg.oracle_secs,
            cfg.seed,
        );
        let oracle = surface.argmax().expect("non-empty sweep").mbs;
        for &fault in &cfg.faults {
            for &kind in &cfg.tuners {
                let (cell, cell_decisions, record) =
                    run_cell(cfg, kind, preset, fault, oracle, history);
                decisions.push_str(&cell_decisions);
                if let Some(r) = record {
                    history.append(r).expect("history append");
                    appended += 1;
                }
                cells.push(cell);
            }
        }
    }
    let order: Vec<String> = cfg.tuners.iter().map(|k| k.name().to_string()).collect();
    TournamentOutcome {
        leaderboard: Leaderboard::from_cells(cells, &order, cfg.horizon_s()),
        decisions_jsonl: decisions,
        history_appended: appended,
    }
}

/// Drive one tuner through one cell and score it.
fn run_cell(
    cfg: &TournamentConfig,
    kind: TunerKind,
    preset: ScenarioPreset,
    fault: Option<FaultProfile>,
    oracle: f64,
    history: &HistoryStore,
) -> (CellResult, String, Option<HistoryRecord>) {
    let route = preset.route();
    let load = preset.load();
    let dims = TuneDims::NcOnly { np: 8 };
    let x0 = StreamParams::globus_default();

    // The history kind reads its stored observations for this route+preset;
    // every other kind builds cold from the factory.
    let mut tuner: Box<dyn OnlineTuner + Send> = if kind == TunerKind::History {
        let samples: Vec<(Vec<i64>, f64)> = history
            .records()
            .iter()
            .filter(|r| r.route == route.name() && r.scenario == preset.name())
            .map(|r| (r.best.clone(), r.achieved_mbs))
            .collect();
        Box::new(HistoryTuner::new(dims.domain(), dims.to_point(x0), 5.0).with_samples(&samples))
    } else {
        kind.build(dims.domain(), dims.to_point(x0))
    };
    let drive = DriveConfig {
        duration_s: cfg.horizon_s(),
        epoch_s: cfg.epoch_s,
        seed: cfg.seed,
        x0,
        noise_sigma: NOISE_SIGMA,
        faults: fault.map(|p| p.plan(route, cfg.seed, cfg.horizon_s())),
        ..DriveConfig::paper(route, kind, dims, LoadSchedule::constant(load))
    };
    let (log, moved_mb, _) = drive_tuner(&drive, tuner.as_mut(), false);

    let mut traj = OnlineTrajectory::default();
    let mut best_mbs = 0.0f64;
    let mut best_x = Vec::new();
    let mut t90_s = None;
    let mut epochs_to_90 = None;
    for (e, r) in log.epochs.iter().enumerate() {
        let x = dims.to_point(r.params);
        if r.observed_mbs > best_mbs {
            best_mbs = r.observed_mbs;
            best_x = x.clone();
        }
        traj.steps.push(OnlineStep {
            epoch: e,
            x,
            value: r.observed_mbs,
        });
        // Convergence is judged on up-time throughput (startup excluded):
        // restart overhead is a cost the regret column already charges, not
        // evidence the tuner found the wrong operating point.
        if t90_s.is_none() && r.bestcase_mbs >= NEAR_OPT_FRAC * oracle {
            t90_s = Some((e + 1) as f64 * cfg.epoch_s);
            epochs_to_90 = Some(e);
        }
    }

    let regret = summarize_regret(&traj, oracle, NEAR_OPT_FRAC, cfg.epoch_s);
    let decisions_to_converge = tuner.audit_log().map_or(0, |log| {
        log.events()
            .iter()
            .position(|ev| ev.action == DecisionAction::Converged)
            .map_or(log.len(), |i| i + 1)
    });
    let ns = format!("{}/{}/{}", kind.name(), preset.name(), fault_label(fault));
    let decisions_jsonl = tuner
        .audit_log()
        .map_or(String::new(), |l| l.to_jsonl(Some(&ns)));

    let cell = CellResult {
        tuner: kind.name().to_string(),
        scenario: preset.name().to_string(),
        faults: fault_label(fault).to_string(),
        oracle_mbs: oracle,
        best_mbs,
        t90_s,
        regret_mb: regret.wasted,
        epochs_to_90,
        decisions_to_converge,
        moved_mb,
    };
    // Fault-free cells contribute to the warm-start store (faulty epochs
    // would poison the surrogate with outage artifacts).
    let record = (best_mbs > 0.0 && fault.is_none()).then(|| HistoryRecord {
        route: route.name().to_string(),
        tuner: kind,
        ext_streams: load.tfr as f64,
        cmp_jobs: load.cmp as f64,
        best: best_x,
        achieved_mbs: best_mbs,
        scenario: preset.name().to_string(),
    });
    (cell, decisions_jsonl, record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> TournamentConfig {
        TournamentConfig {
            tuners: vec![TunerKind::Default, TunerKind::Heuristic, TunerKind::Bandit],
            scenarios: vec![ScenarioPreset::UcQuiet],
            faults: vec![None],
            epochs: 6,
            oracle_secs: 45.0,
            ..TournamentConfig::default()
        }
    }

    #[test]
    fn preset_round_trips_and_axes() {
        for p in ScenarioPreset::ALL {
            let parsed: ScenarioPreset = p.name().parse().unwrap();
            assert_eq!(parsed, p);
        }
        assert!("bogus".parse::<ScenarioPreset>().is_err());
        assert_eq!(ScenarioPreset::TaccMixed.route(), Route::Tacc);
        assert_eq!(ScenarioPreset::UcQuiet.load(), ExternalLoad::NONE);
    }

    #[test]
    fn tiny_tournament_scores_every_cell() {
        let mut h = HistoryStore::in_memory();
        let out = run_tournament(&tiny_cfg(), &mut h);
        assert_eq!(out.leaderboard.cells.len(), 3);
        assert_eq!(out.leaderboard.ranks.len(), 3);
        for c in &out.leaderboard.cells {
            assert!(c.oracle_mbs > 0.0, "{c:?}");
            assert!(c.moved_mb > 0.0, "{c:?}");
            assert!(c.regret_mb >= 0.0, "{c:?}");
        }
        // Fault-free cells with progress feed the history store.
        assert_eq!(out.history_appended, 3);
        assert!(h.records().iter().all(|r| r.scenario == "uc-quiet"));
        // Audited tuners contributed decision lines; default did not.
        assert!(out
            .decisions_jsonl
            .contains("\"ns\":\"bandit/uc-quiet/none\""));
        assert!(!out.decisions_jsonl.contains("\"ns\":\"default/"));
    }

    #[test]
    fn leaderboard_jsonl_round_trips() {
        let mut h = HistoryStore::in_memory();
        let out = run_tournament(&tiny_cfg(), &mut h);
        let doc = out.leaderboard.to_jsonl();
        let back = Leaderboard::from_jsonl(&doc).expect("round trip");
        assert_eq!(back, out.leaderboard);
        // Truncation and garbage are rejected loudly.
        assert!(Leaderboard::from_jsonl("").is_err());
        assert!(Leaderboard::from_jsonl("{\"kind\":\"epoch\"}").is_err());
        let truncated: String = doc.lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(
            Leaderboard::from_jsonl(&truncated)
                .unwrap_err()
                .contains("truncated"),
            "partial report must be a hard error"
        );
    }

    #[test]
    fn renders_are_deterministic_across_runs() {
        let run = || run_tournament(&tiny_cfg(), &mut HistoryStore::in_memory());
        let (a, b) = (run(), run());
        assert_eq!(a.leaderboard.render(), b.leaderboard.render());
        assert_eq!(a.leaderboard.to_csv(), b.leaderboard.to_csv());
        assert_eq!(a.leaderboard.to_jsonl(), b.leaderboard.to_jsonl());
        assert_eq!(a.decisions_jsonl, b.decisions_jsonl);
    }

    #[test]
    fn csv_and_text_have_expected_shape() {
        let mut h = HistoryStore::in_memory();
        let out = run_tournament(&tiny_cfg(), &mut h);
        let csv = out.leaderboard.to_csv();
        assert!(csv.starts_with(
            "tuner,scenario,faults,oracle_mbs,best_mbs,t90_s,regret_mb,epochs_to_90,decisions_to_converge,moved_mb\n"
        ));
        assert_eq!(csv.lines().count(), 1 + 3);
        let text = out.leaderboard.render();
        assert!(text.contains("tuner tournament leaderboard (3 cells"));
        assert!(text.contains("mean_regret_mb"));
    }
}
