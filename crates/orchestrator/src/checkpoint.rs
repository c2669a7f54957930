//! Replay-based fleet checkpoint/resume (DESIGN.md §12).
//!
//! The fleet simulation is a pure function of `(workload, config)`, so a
//! checkpoint does not serialize live state (tuner simplexes, world RNGs,
//! AIMD windows — none of which have a stable wire form). It records the
//! run's **inputs** plus the tick index and an FNV-1a digest of the live
//! state:
//!
//! ```text
//! {"kind":"fleet-checkpoint","version":1,"tick":K,...config fields...}
//! {"kind":"fleet-job","id":0,...}            one line per workload job
//! ...
//! {"kind":"fleet-digest","fnv":"<16 hex>","text_fnv":"<16 hex>"}
//! ```
//!
//! This module owns the format: `CheckpointWriter` writes it (for
//! [`ShardedFleetSim::checkpoint`](crate::shard::ShardedFleetSim::checkpoint),
//! its only caller) and [`Checkpoint::parse`] reads it.
//! [`resume_fleet_sharded`](crate::shard::resume_fleet_sharded) rebuilds the
//! simulation from those inputs, replays ticks `0..K` with history
//! persistence off (the killed run already flushed its pre-`K` appends to
//! the backing file), verifies the digest, re-enables persistence, and runs
//! to completion. The result is byte-identical to the uninterrupted run —
//! reports, decision logs, telemetry, and the history file (enforced by
//! `tests/supervision.rs` and the CI crash/resume gate).
//! A checkpoint written after the run finished carries `"done":true` in its
//! header, and the replay then also runs the closing tick, which admits and
//! requeues before it ends the run.
//!
//! Watchdog/breaker thresholds are not serialized: they are compile-time
//! defaults the CLI cannot override, so the rebuilt [`FleetConfig`] always
//! matches the killed run's.

use std::cell::OnceCell;

use crate::fleet::{FleetConfig, MAX_MATCH_DISTANCE, NOISE_SIGMA, SHED_AFTER_S};
use crate::job::{JobId, JobSpec, Workload};
use crate::policy::Policy;
use crate::route::JobRoute;
use xferopt_scenarios::{FaultProfile, Route};
use xferopt_simcore::json::{first_field, push_line, Fields};
use xferopt_tuners::TunerKind;

/// FNV-1a hash of a string (the checkpoint's state-digest hash — stable,
/// dependency-free, and plenty for corruption detection).
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Writes one run's checkpoints. The workload never changes during a run,
/// so its job lines are rendered by the first checkpoint and copied by the
/// rest; a run that never checkpoints never renders them.
pub(crate) struct CheckpointWriter {
    jobs: Vec<JobSpec>,
    /// `jobs` as checkpoint lines, rendered by the first checkpoint.
    job_lines: OnceCell<String>,
    /// History-store length when the run started.
    history_start_len: usize,
}

impl CheckpointWriter {
    /// A writer for a run of `jobs` that starts on a history store holding
    /// `history_start_len` records.
    pub(crate) fn new(jobs: Vec<JobSpec>, history_start_len: usize) -> Self {
        CheckpointWriter {
            jobs,
            job_lines: OnceCell::new(),
            history_start_len,
        }
    }

    /// Jobs in the run's workload.
    pub(crate) fn jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Render a checkpoint of the run at `tick` (JSONL: header, one line per
    /// workload job, one digest line). `done` marks a finished run and is
    /// written only when true, so mid-run checkpoints keep their bytes.
    pub(crate) fn render(
        &self,
        c: &FleetConfig,
        tick: u64,
        t: f64,
        done: bool,
        history_appended: usize,
        digest: u64,
    ) -> String {
        let job_lines = self.job_lines.get_or_init(|| {
            let mut lines = String::with_capacity(192 * self.jobs.len());
            for j in &self.jobs {
                push_job(&mut lines, j);
            }
            lines
        });
        let mut out = String::with_capacity(512 + job_lines.len() + 64);
        push_line(&mut out, |o| {
            o.str("kind", "fleet-checkpoint");
            o.raw("version", 1);
            o.raw("tick", tick);
            o.f64("t_s", t);
            o.str("policy", c.policy.name());
            o.raw("seed", c.seed);
            o.f64("horizon_s", c.horizon_s);
            o.f64("tick_s", c.tick_s);
            o.f64("epoch_s", c.epoch_s);
            o.raw("budget", c.link_budget);
            o.raw("warm", c.warm_start);
            // Fleet constants, kept in the version-1 header so journals
            // keep their bytes; `parse` refuses any other value.
            o.f64("max_match_distance", MAX_MATCH_DISTANCE);
            o.f64("noise_sigma", NOISE_SIGMA);
            o.raw("audit", true);
            o.f64("shed_after_s", SHED_AFTER_S);
            if let Some(p) = c.faults {
                o.str("faults", p.name());
            }
            if let Some(tc) = &c.topo {
                o.str("topo", &tc.preset);
                o.raw("topo_k", tc.k);
                o.raw("multipath", tc.multipath);
                o.raw("reroute", tc.reroute);
                if tc.selfheal {
                    o.raw("selfheal", true);
                }
                if let Some(name) = &tc.campaign {
                    o.str("campaign", name);
                }
                // One region keeps the historical scalar field (byte-compatible
                // with pre-multi-outage checkpoints); several use the plural form.
                match tc.outage_regions.as_slice() {
                    [] => {}
                    [r] => o.raw("outage_region", r),
                    rs => {
                        let joined = rs.iter().map(|r| r.to_string()).collect::<Vec<_>>();
                        o.str("outage_regions", &joined.join(";"));
                    }
                }
            }
            if done {
                o.raw("done", true);
            }
            o.raw("jobs", self.jobs.len());
            o.raw("history_start_len", self.history_start_len);
            o.raw("history_appended", history_appended);
        });
        out.push_str(job_lines);
        // Two hashes close two different holes: `fnv` (the live-state digest)
        // catches replay divergence, while `text_fnv` (over the header + job
        // lines just written) catches corruption of the serialized inputs
        // themselves — a flipped byte in a job the replay has not admitted yet
        // would otherwise slip past the state digest.
        let text_fnv = fnv1a(&out);
        push_line(&mut out, |o| {
            o.str("kind", "fleet-digest");
            o.str("fnv", &format!("{digest:016x}"));
            o.str("text_fnv", &format!("{text_fnv:016x}"));
        });
        out
    }
}

/// Append one workload job to `out` as a checkpoint JSONL line (fixed key
/// order; `deadline_s` omitted when absent; newline included).
fn push_job(out: &mut String, j: &JobSpec) {
    push_line(out, |o| {
        o.str("kind", "fleet-job");
        o.raw("id", j.id.0);
        o.f64("arrival_s", j.arrival_s);
        o.f64("size_mb", j.size_mb);
        o.raw("priority", j.priority);
        o.str("route", j.route.name());
        o.str("tuner", j.tuner.name());
        o.raw("np", j.np);
        o.raw("max_streams", j.max_streams);
        if j.site != 0 {
            o.raw("site", j.site);
        }
        if let Some(d) = j.deadline_s {
            o.f64("deadline_s", d);
        }
        // Classic enum routes round-trip through their name alone (keeps old
        // checkpoints and goldens byte-identical); catalog routes carry their
        // explicit link list and sim path.
        let classic = j
            .route
            .name()
            .parse::<Route>()
            .map(|r| j.route == r)
            .unwrap_or(false);
        if !classic {
            let links = j
                .route
                .links()
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(";");
            o.str("links", &links);
            o.raw("path", j.route.path_index());
        }
    });
}

fn parse_job(f: &Fields, line: &str) -> Result<JobSpec, String> {
    let req = |key: &str| {
        f.get(key)
            .ok_or_else(|| format!("checkpoint job line missing '{key}': {line}"))
    };
    let num = |key: &str| -> Result<f64, String> {
        req(key)?
            .parse::<f64>()
            .map_err(|e| format!("bad '{key}' in checkpoint job line: {e}"))
    };
    let name = req("route")?;
    let route: JobRoute = match f.get("links") {
        Some(raw) => {
            let links = raw
                .split(';')
                .filter(|s| !s.is_empty())
                .map(|s| s.parse::<usize>())
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("bad links in checkpoint job line: {e}"))?;
            if links.is_empty() {
                return Err(format!("empty links in checkpoint job line: {line}"));
            }
            let path = num("path")? as usize;
            JobRoute::new(name, links, path)
        }
        None => name.parse::<Route>()?.into(),
    };
    let tuner: TunerKind = req("tuner")?
        .parse()
        .map_err(|e| format!("bad tuner in checkpoint job line: {e}"))?;
    Ok(JobSpec {
        id: JobId(num("id")? as u64),
        arrival_s: num("arrival_s")?,
        size_mb: num("size_mb")?,
        priority: num("priority")? as u32,
        deadline_s: match f.get("deadline_s") {
            Some(v) => Some(
                v.parse::<f64>()
                    .map_err(|e| format!("bad deadline_s in checkpoint job line: {e}"))?,
            ),
            None => None,
        },
        route,
        tuner,
        np: num("np")? as u32,
        max_streams: num("max_streams")? as u32,
        site: match f.get("site") {
            Some(v) => v
                .parse::<u32>()
                .map_err(|e| format!("bad site in checkpoint job line: {e}"))?,
            None => 0,
        },
    })
}

/// A parsed fleet checkpoint: the run's inputs plus the replay target.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The configuration the killed run was using.
    pub config: FleetConfig,
    /// The workload the killed run was driving.
    pub workload: Workload,
    /// Ticks the killed run had completed when the checkpoint was written.
    pub tick: u64,
    /// Fleet time at the checkpoint, seconds.
    pub t_s: f64,
    /// History-store length when the killed run started (replay rewinds the
    /// in-memory store to this length).
    pub history_start_len: usize,
    /// History records the killed run had appended (and persisted) by the
    /// checkpoint — replay re-appends them in memory only.
    pub history_appended: usize,
    /// FNV-1a hash of the killed run's state digest at `tick`; replay must
    /// reproduce it exactly or resume refuses to continue.
    pub digest: u64,
    /// Whether the run had finished when the checkpoint was written. Its
    /// closing tick still ran arrivals, requeues and admission, so replay
    /// runs that tick too before checking the digest.
    pub done: bool,
}

impl Checkpoint {
    /// Parse the JSONL text produced by
    /// [`ShardedFleetSim::checkpoint`](crate::shard::ShardedFleetSim::checkpoint).
    ///
    /// # Errors
    /// Returns a description of the first missing/malformed line or field.
    pub fn parse(text: &str) -> Result<Checkpoint, String> {
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        let header = lines.next().ok_or("empty checkpoint")?;
        let h = Fields::parse(header)
            .ok_or_else(|| format!("malformed checkpoint header: {header}"))?;
        if h.get("kind") != Some("fleet-checkpoint") {
            return Err(format!("not a fleet checkpoint header: {header}"));
        }
        let version = h.get("version").ok_or("checkpoint missing version")?;
        if version != "1" {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        let req = |key: &str| {
            h.get(key)
                .ok_or_else(|| format!("checkpoint header missing '{key}'"))
        };
        let num = |key: &str| -> Result<f64, String> {
            req(key)?
                .parse::<f64>()
                .map_err(|e| format!("bad '{key}' in checkpoint header: {e}"))
        };
        let parse_flag = |key: &str, v: &str| {
            v.parse::<bool>()
                .map_err(|e| format!("bad '{key}' in checkpoint header: {e}"))
        };
        let flag = |key: &str| parse_flag(key, req(key)?);
        // Optional flags are written only when true.
        let opt_flag = |key: &str| h.get(key).map_or(Ok(false), |v| parse_flag(key, v));
        let policy: Policy = req("policy")?.parse()?;
        let faults: Option<FaultProfile> = match h.get("faults") {
            Some(name) => Some(name.parse()?),
            None => None,
        };
        let topo = match h.get("topo") {
            Some(preset) => {
                // Outage regions serialize as a scalar when there is exactly
                // one (the pre-multi wire form, kept byte-identical) and as a
                // semicolon-joined string otherwise.
                let outage_regions = match h.get("outage_region") {
                    Some(v) => vec![v
                        .parse::<usize>()
                        .map_err(|e| format!("bad 'outage_region' in checkpoint header: {e}"))?],
                    None => match h.get("outage_regions") {
                        Some(raw) => raw
                            .split(';')
                            .filter(|s| !s.is_empty())
                            .map(|s| s.parse::<usize>())
                            .collect::<Result<Vec<_>, _>>()
                            .map_err(|e| {
                                format!("bad 'outage_regions' in checkpoint header: {e}")
                            })?,
                        None => Vec::new(),
                    },
                };
                Some(crate::fleet::TopoFleetConfig {
                    preset: preset.to_string(),
                    k: num("topo_k")? as usize,
                    outage_regions,
                    campaign: h.get("campaign").map(str::to_string),
                    multipath: num("multipath")? as u32,
                    reroute: flag("reroute")?,
                    selfheal: opt_flag("selfheal")?,
                })
            }
            None => None,
        };
        for (key, want) in [
            ("max_match_distance", MAX_MATCH_DISTANCE),
            ("noise_sigma", NOISE_SIGMA),
            ("shed_after_s", SHED_AFTER_S),
        ] {
            let got = num(key)?;
            if got != want {
                return Err(format!(
                    "invalid config in checkpoint header: '{key}' is {got}, but fleets run at {want}"
                ));
            }
        }
        if !flag("audit")? {
            return Err(
                "invalid config in checkpoint header: 'audit' is false, but fleets always audit"
                    .to_string(),
            );
        }
        let config = FleetConfig {
            policy,
            seed: num("seed")? as u64,
            horizon_s: num("horizon_s")?,
            tick_s: num("tick_s")?,
            epoch_s: num("epoch_s")?,
            link_budget: num("budget")? as u32,
            warm_start: flag("warm")?,
            faults,
            topo,
        };
        config
            .validate()
            .map_err(|e| format!("invalid config in checkpoint header: {e}"))?;
        let tick = num("tick")? as u64;
        let t_s = num("t_s")?;
        let njobs = num("jobs")? as usize;
        crate::fleet::check_job_count(njobs as u64)
            .map_err(|e| format!("bad 'jobs' in checkpoint header: {e}"))?;
        let history_start_len = num("history_start_len")? as usize;
        let history_appended = num("history_appended")? as usize;
        let done = opt_flag("done")?;

        let mut jobs = Vec::with_capacity(njobs);
        let mut digest: Option<u64> = None;
        // Exact text preceding the digest line, reconstructed for the
        // `text_fnv` content check (writer hashes header + job lines, each
        // newline-terminated).
        let mut preceding = format!("{header}\n");
        for line in lines {
            let f =
                Fields::parse(line).ok_or_else(|| format!("malformed checkpoint line: {line}"))?;
            match f.get("kind") {
                Some("fleet-job") => {
                    jobs.push(parse_job(&f, line)?);
                    preceding.push_str(line);
                    preceding.push('\n');
                }
                Some("fleet-digest") => {
                    let hex = f.get("fnv").ok_or("digest line missing 'fnv'")?;
                    digest = Some(
                        u64::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad digest '{hex}': {e}"))?,
                    );
                    // Content hash over the serialized inputs; absent on
                    // pre-journal checkpoints (accepted — the state digest
                    // still guards the replay).
                    if let Some(hex) = f.get("text_fnv") {
                        let want = u64::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad text digest '{hex}': {e}"))?;
                        let got = fnv1a(&preceding);
                        if got != want {
                            return Err(format!(
                                "checkpoint text corrupted: content hash {got:016x} != recorded {want:016x}"
                            ));
                        }
                    }
                }
                other => return Err(format!("unexpected checkpoint line kind {other:?}: {line}")),
            }
        }
        if jobs.len() != njobs {
            return Err(format!(
                "checkpoint declares {njobs} jobs but carries {}",
                jobs.len()
            ));
        }
        let digest = digest.ok_or("checkpoint missing its fleet-digest line")?;
        Ok(Checkpoint {
            config,
            workload: Workload::new(jobs),
            tick,
            t_s,
            history_start_len,
            history_appended,
            digest,
            done,
        })
    }
}

/// The result of reading a checkpoint journal: the newest checkpoint block
/// that still parses and digest-verifies structurally, plus salvage metadata
/// so callers can report what was dropped.
#[derive(Debug, Clone)]
pub struct JournalRead {
    /// The newest intact checkpoint in the journal.
    pub checkpoint: Checkpoint,
    /// Total checkpoint blocks found in the journal (intact or torn).
    pub blocks_total: usize,
    /// Blocks newer than the salvaged one that were torn (truncated write,
    /// flipped bytes) and had to be discarded.
    pub blocks_dropped: usize,
}

impl JournalRead {
    /// True when the journal's newest block was torn and an older one was
    /// salvaged in its place.
    pub fn salvaged(&self) -> bool {
        self.blocks_dropped > 0
    }
}

/// Parse a checkpoint **journal**: a file the CLI appends a full checkpoint
/// block to at every checkpoint interval (rather than rewriting in place,
/// which risks a torn file if the process dies mid-write).
///
/// The journal is split into blocks on `"kind":"fleet-checkpoint"` header
/// lines; blocks are tried newest-first and the first one that parses wins.
/// Torn or corrupt trailing blocks are counted in
/// [`JournalRead::blocks_dropped`] — resume falls back to the longest
/// digest-consistent prefix instead of refusing outright.
///
/// # Errors
/// Returns an error when the journal holds no parseable checkpoint at all
/// (every block torn, or the file is not a checkpoint journal).
pub fn parse_journal(text: &str) -> Result<JournalRead, String> {
    // Byte offset of each block's header line; a block runs to the next
    // header or the end of the text. Garbage before the first header is
    // ignored: it cannot belong to any checkpoint block.
    let mut starts = Vec::new();
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        if first_field(line.trim(), "kind").as_deref() == Some("fleet-checkpoint") {
            starts.push(at);
        }
        at += line.len();
    }
    if starts.is_empty() {
        return Err("journal holds no fleet-checkpoint block".to_string());
    }
    let total = starts.len();
    let mut last_err = String::new();
    let mut end = text.len();
    for (dropped, &start) in starts.iter().rev().enumerate() {
        match Checkpoint::parse(&text[start..end]) {
            Ok(checkpoint) => {
                return Ok(JournalRead {
                    checkpoint,
                    blocks_total: total,
                    blocks_dropped: dropped,
                })
            }
            Err(e) => last_err = e,
        }
        end = start;
    }
    Err(format!(
        "journal holds {total} checkpoint block(s) but none parse; newest error: {last_err}"
    ))
}

/// Check a replay against the checkpoint it replayed: it must have reached
/// the checkpoint tick with the same state digest and the same number of
/// history appends.
pub(crate) fn verify_replay(
    ck: &Checkpoint,
    reached: u64,
    digest: u64,
    history_appended: usize,
) -> Result<(), String> {
    if reached < ck.tick {
        return Err(format!(
            "replay ended at tick {reached} before reaching checkpoint tick {}",
            ck.tick
        ));
    }
    if digest != ck.digest {
        return Err(format!(
            "checkpoint digest mismatch at tick {}: expected {:016x}, replay produced {digest:016x}",
            ck.tick, ck.digest
        ));
    }
    if history_appended != ck.history_appended {
        return Err(format!(
            "checkpoint recorded {} history appends, replay produced {history_appended}",
            ck.history_appended
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryStore;
    use crate::shard::{resume_fleet_sharded, run_fleet_sharded, ShardedFleetSim};

    fn cfg() -> FleetConfig {
        FleetConfig {
            horizon_s: 1800.0,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn checkpoint_round_trips_through_parse() {
        let w = Workload::synthetic(4, 5);
        let mut h = HistoryStore::in_memory();
        let mut sim = ShardedFleetSim::new(&w, &cfg(), &mut h, 1);
        for _ in 0..30 {
            assert!(sim.tick());
        }
        let text = sim.checkpoint();
        let expect_digest = sim.digest_hash();
        let ck = Checkpoint::parse(&text).unwrap();
        assert_eq!(ck.tick, 30);
        assert_eq!(ck.digest, expect_digest);
        assert_eq!(ck.workload.len(), 4);
        for (a, b) in ck.workload.jobs().iter().zip(w.jobs()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.arrival_s, b.arrival_s);
            assert_eq!(a.size_mb, b.size_mb);
            assert_eq!(a.priority, b.priority);
            assert_eq!(a.deadline_s, b.deadline_s);
            assert_eq!(a.route, b.route);
            assert_eq!(a.tuner, b.tuner);
            assert_eq!(a.np, b.np);
            assert_eq!(a.max_streams, b.max_streams);
        }
        assert_eq!(ck.config.policy, Policy::Fifo);
        assert_eq!(ck.config.seed, 7);
        assert_eq!(ck.config.faults, None);
    }

    #[test]
    fn kill_and_resume_matches_the_uninterrupted_run() {
        let w = Workload::synthetic(5, 9);
        let full = run_fleet_sharded(&w, &cfg(), &mut HistoryStore::in_memory(), 1);
        // "Kill" a run at tick 40 with only its checkpoint surviving.
        let text = {
            let mut h = HistoryStore::in_memory();
            let mut sim = ShardedFleetSim::new(&w, &cfg(), &mut h, 1);
            for _ in 0..40 {
                assert!(sim.tick());
            }
            sim.checkpoint()
        };
        let ck = Checkpoint::parse(&text).unwrap();
        let mut h = HistoryStore::in_memory();
        let resumed = resume_fleet_sharded(&ck, &mut h, 1).unwrap();
        assert_eq!(full.report.render(), resumed.report.render());
        assert_eq!(full.decisions_jsonl, resumed.decisions_jsonl);
        assert_eq!(full.telemetry_jsonl, resumed.telemetry_jsonl);
        assert_eq!(full.supervision_jsonl, resumed.supervision_jsonl);
        assert_eq!(full.history_appended, resumed.history_appended);
    }

    #[test]
    fn tampered_digest_is_refused() {
        let w = Workload::synthetic(3, 2);
        let mut h = HistoryStore::in_memory();
        let mut sim = ShardedFleetSim::new(&w, &cfg(), &mut h, 1);
        for _ in 0..10 {
            assert!(sim.tick());
        }
        let text = sim
            .checkpoint()
            .lines()
            .map(|l| {
                if l.contains("fleet-digest") {
                    "{\"kind\":\"fleet-digest\",\"fnv\":\"00000000deadbeef\"}".to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        drop(sim);
        let ck = Checkpoint::parse(&text).unwrap();
        let err = resume_fleet_sharded(&ck, &mut HistoryStore::in_memory(), 1).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
    }

    #[test]
    fn journal_prefers_the_newest_intact_block() {
        let w = Workload::synthetic(3, 4);
        let mut h = HistoryStore::in_memory();
        let mut sim = ShardedFleetSim::new(&w, &cfg(), &mut h, 1);
        for _ in 0..10 {
            assert!(sim.tick());
        }
        let first = sim.checkpoint();
        for _ in 0..10 {
            assert!(sim.tick());
        }
        let second = sim.checkpoint();
        let journal = format!("{first}\n{second}\n");
        let read = parse_journal(&journal).unwrap();
        assert_eq!(read.blocks_total, 2);
        assert_eq!(read.blocks_dropped, 0);
        assert!(!read.salvaged());
        assert_eq!(read.checkpoint.tick, 20);
    }

    #[test]
    fn journal_salvages_the_prefix_when_the_tail_is_torn() {
        let w = Workload::synthetic(3, 4);
        let mut h = HistoryStore::in_memory();
        let mut sim = ShardedFleetSim::new(&w, &cfg(), &mut h, 1);
        for _ in 0..10 {
            assert!(sim.tick());
        }
        let first = sim.checkpoint();
        for _ in 0..10 {
            assert!(sim.tick());
        }
        let second = sim.checkpoint();
        // Tear the newest block mid-write: drop its trailing digest line
        // plus half of its last job line.
        let torn: String = {
            let keep = second.len() - second.len() / 3;
            second[..keep].to_string()
        };
        let journal = format!("{first}\n{torn}");
        let read = parse_journal(&journal).unwrap();
        assert_eq!(read.blocks_total, 2);
        assert_eq!(read.blocks_dropped, 1);
        assert!(read.salvaged());
        assert_eq!(read.checkpoint.tick, 10);
        // The salvaged checkpoint still resumes byte-identically.
        let full = run_fleet_sharded(&w, &cfg(), &mut HistoryStore::in_memory(), 1);
        let resumed =
            resume_fleet_sharded(&read.checkpoint, &mut HistoryStore::in_memory(), 1).unwrap();
        assert_eq!(full.report.render(), resumed.report.render());
    }

    #[test]
    fn journal_with_no_intact_block_is_refused() {
        assert!(parse_journal("")
            .unwrap_err()
            .contains("no fleet-checkpoint"));
        assert!(parse_journal("{\"kind\":\"history\"}\n")
            .unwrap_err()
            .contains("no fleet-checkpoint"));
        let torn = "{\"kind\":\"fleet-checkpoint\",\"version\":1,\"tick\":3";
        let err = parse_journal(torn).unwrap_err();
        assert!(err.contains("none parse"), "{err}");
    }

    #[test]
    fn malformed_checkpoints_report_what_is_wrong() {
        assert!(Checkpoint::parse("").unwrap_err().contains("empty"));
        assert!(Checkpoint::parse("{\"kind\":\"history\"}")
            .unwrap_err()
            .contains("not a fleet checkpoint"));
        let missing_digest = "{\"kind\":\"fleet-checkpoint\",\"version\":1,\"tick\":0,\"t_s\":0,\
             \"policy\":\"fifo\",\"seed\":7,\"horizon_s\":100,\"tick_s\":5,\"epoch_s\":30,\
             \"budget\":512,\"warm\":true,\"max_match_distance\":2,\"noise_sigma\":0.05,\
             \"audit\":true,\"shed_after_s\":300,\"jobs\":0,\"history_start_len\":0,\
             \"history_appended\":0}";
        assert!(Checkpoint::parse(missing_digest)
            .unwrap_err()
            .contains("fleet-digest"));
        // A pre-journal checkpoint (no content hash) whose config no fleet
        // can run is refused at parse time, not by a panic in the replay.
        let digest = "\n{\"kind\":\"fleet-digest\",\"fnv\":\"0000000000000000\"}";
        for (from, to, want) in [
            ("\"tick_s\":5", "\"tick_s\":0", "tick must be positive"),
            ("\"budget\":512", "\"budget\":0", "budget must admit"),
            (
                "\"shed_after_s\":300",
                "\"shed_after_s\":300,\"topo\":\"atlantis\",\"topo_k\":3,\"multipath\":1,\"reroute\":true",
                "unknown preset",
            ),
            (
                "\"shed_after_s\":300",
                "\"shed_after_s\":300,\"topo\":\"mesh\",\"topo_k\":3,\"multipath\":1,\"reroute\":true,\"outage_region\":99",
                "out of range",
            ),
            // The fleet constants the version-1 header still carries.
            ("\"noise_sigma\":0.05", "\"noise_sigma\":0.1", "'noise_sigma'"),
            ("\"shed_after_s\":300", "\"shed_after_s\":0", "'shed_after_s'"),
            (
                "\"max_match_distance\":2",
                "\"max_match_distance\":NaN",
                "'max_match_distance'",
            ),
            ("\"audit\":true", "\"audit\":false", "'audit'"),
        ] {
            let text = missing_digest.replace(from, to) + digest;
            let err = Checkpoint::parse(&text).unwrap_err();
            assert!(
                err.contains("invalid config") && err.contains(want),
                "{err}"
            );
        }
    }
}
