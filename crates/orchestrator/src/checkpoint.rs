//! Replay-based fleet checkpoint/resume (DESIGN.md §12).
//!
//! The fleet simulation is a pure function of `(workload, config)`, so a
//! checkpoint does not serialize live state (tuner simplexes, world RNGs,
//! AIMD windows — none of which have a stable wire form). It records the
//! run's **inputs** plus the tick index and an FNV-1a digest of the live
//! state. The workload never changes during a run, so a journal (version 2)
//! holds it once: the run's first checkpoint writes a `fleet-workload`
//! block, closed by the FNV-1a hash of its lines, before its checkpoint
//! block, and every checkpoint block is a header naming that hash plus a
//! digest line:
//!
//! ```text
//! {"kind":"fleet-workload","version":2,"jobs":N}
//! {"kind":"fleet-job","id":0,...}            one line per workload job
//! ...
//! {"kind":"fleet-workload-end","fnv":"<16 hex>"}
//! {"kind":"fleet-checkpoint","version":2,"tick":K,...config fields...,"workload":"<16 hex>",...}
//! {"kind":"fleet-digest","fnv":"<16 hex>","text_fnv":"<16 hex>"}
//! {"kind":"fleet-checkpoint","version":2,"tick":K2,...}    later checkpoints
//! {"kind":"fleet-digest",...}
//! ```
//!
//! `fnv` is the hash of the live-state digest; `text_fnv` covers the header
//! line, workload hash included. A torn or altered workload block leaves no
//! checkpoint to trust, so [`parse_journal`] refuses the journal.
//!
//! Version-1 journals, written before the workload block existed, still
//! parse and resume: each of their blocks carries its header (with four
//! fleet constants, `max_match_distance`, `noise_sigma`, `audit` and
//! `shed_after_s`, that must hold the values fleets run at), every job line
//! and the digest line, whose `text_fnv` covers header and job lines and is
//! absent on pre-journal checkpoints.
//!
//! This module owns the format: `CheckpointWriter` writes it (for
//! [`ShardedFleetSim::checkpoint`](crate::shard::ShardedFleetSim::checkpoint),
//! its only caller) and [`parse_journal`] and [`Checkpoint::parse`] read it.
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

use std::fmt;

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
    let mut h = Fnv1a::default();
    h.bytes(s.as_bytes());
    h.finish()
}

/// A running FNV-1a hash that text can be written into, so a digest is
/// hashed as it is formatted, without building its `String`.
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hash `line` and the newline that ends it.
    fn line(&mut self, line: &str) {
        self.bytes(line.as_bytes());
        self.bytes(b"\n");
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// A hash as the journal writes it.
fn hex(h: u64) -> String {
    format!("{h:016x}")
}

/// Writes one run's checkpoints. The first writes the workload block; the
/// rest name it by hash. The workload is shared with the caller's, so a run
/// that never checkpoints pays nothing for the writer.
pub(crate) struct CheckpointWriter {
    workload: Workload,
    /// The workload block's hash, once the first checkpoint has written it.
    workload_fnv: Option<u64>,
    /// History-store length when the run started.
    history_start_len: usize,
}

impl CheckpointWriter {
    /// A writer for a run of `workload` that starts on a history store
    /// holding `history_start_len` records.
    pub(crate) fn new(workload: Workload, history_start_len: usize) -> Self {
        CheckpointWriter {
            workload,
            workload_fnv: None,
            history_start_len,
        }
    }

    /// Jobs in the run's workload.
    pub(crate) fn jobs(&self) -> usize {
        self.workload.len()
    }

    /// Render a checkpoint of the run at `tick`: the workload block if this
    /// is the run's first checkpoint, then the header and the digest line.
    /// `done` marks a finished run and is written only when true.
    pub(crate) fn render(
        &mut self,
        c: &FleetConfig,
        tick: u64,
        t: f64,
        done: bool,
        history_appended: usize,
        digest: u64,
    ) -> String {
        let mut out = String::with_capacity(1024);
        let workload_fnv = match self.workload_fnv {
            Some(h) => h,
            None => {
                let h = push_workload(&mut out, self.workload.jobs());
                self.workload_fnv = Some(h);
                h
            }
        };
        let start = out.len();
        push_line(&mut out, |o| {
            o.str("kind", "fleet-checkpoint");
            o.raw("version", 2);
            o.raw("tick", tick);
            o.f64("t_s", t);
            o.str("policy", c.policy.name());
            o.raw("seed", c.seed);
            o.f64("horizon_s", c.horizon_s);
            o.f64("tick_s", c.tick_s);
            o.f64("epoch_s", c.epoch_s);
            o.raw("budget", c.link_budget);
            o.raw("warm", c.warm_start);
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
                // One region is a scalar field; several use the plural form.
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
            o.str("workload", &hex(workload_fnv));
            o.raw("history_start_len", self.history_start_len);
            o.raw("history_appended", history_appended);
        });
        // Two hashes close two different holes: `fnv` (the live-state digest)
        // catches replay divergence, while `text_fnv` catches corruption of
        // the header itself (and with it the workload it names).
        let text_fnv = fnv1a(&out[start..]);
        push_line(&mut out, |o| {
            o.str("kind", "fleet-digest");
            o.str("fnv", &hex(digest));
            o.str("text_fnv", &hex(text_fnv));
        });
        out
    }
}

/// Append the workload block for `jobs` to `out` and return its hash (over
/// the header and job lines, each newline-terminated).
fn push_workload(out: &mut String, jobs: &[JobSpec]) -> u64 {
    out.reserve(192 * jobs.len() + 128);
    let start = out.len();
    push_line(out, |o| {
        o.str("kind", "fleet-workload");
        o.raw("version", 2);
        o.raw("jobs", jobs.len());
    });
    for j in jobs {
        push_job(out, j);
    }
    let h = fnv1a(&out[start..]);
    push_line(out, |o| {
        o.str("kind", "fleet-workload-end");
        o.str("fnv", &hex(h));
    });
    h
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
    /// Parse the JSONL text produced by the run's first
    /// [`ShardedFleetSim::checkpoint`](crate::shard::ShardedFleetSim::checkpoint)
    /// call (the workload block and one checkpoint block), or one
    /// version-1 checkpoint block.
    ///
    /// # Errors
    /// Returns a description of the first missing/malformed line or field.
    pub fn parse(text: &str) -> Result<Checkpoint, String> {
        let first = text
            .lines()
            .map(str::trim)
            .find(|l| !l.is_empty())
            .ok_or("empty checkpoint")?;
        if first_field(first, "kind").as_deref() != Some("fleet-workload") {
            return Block::parse(text)?.into_checkpoint(None);
        }
        match split_blocks(text).as_slice() {
            [(BlockKind::Workload, w), (BlockKind::Checkpoint, c)] => {
                let workload = WorkloadBlock::parse(w)?;
                Block::parse(c)?.into_checkpoint(Some(&workload))
            }
            _ => Err("a version-2 checkpoint is a workload block and one checkpoint block".into()),
        }
    }
}

/// One checkpoint block's header and digest line. A version-1 block carries
/// its jobs; a version-2 block names the journal's workload block by hash.
struct Block {
    config: FleetConfig,
    tick: u64,
    t_s: f64,
    history_start_len: usize,
    history_appended: usize,
    digest: u64,
    done: bool,
    jobs: BlockJobs,
}

enum BlockJobs {
    /// Version 1: the block's own job lines.
    Inline(Vec<JobSpec>),
    /// Version 2: the workload block's hash, as written.
    Named(String),
}

impl Block {
    /// Parse one checkpoint block: its header must be its first line.
    fn parse(text: &str) -> Result<Block, String> {
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        let header = lines.next().ok_or("empty checkpoint")?;
        let h = Fields::parse(header)
            .ok_or_else(|| format!("malformed checkpoint header: {header}"))?;
        if h.get("kind") != Some("fleet-checkpoint") {
            return Err(format!("not a fleet checkpoint header: {header}"));
        }
        let v1 = match h.get("version").ok_or("checkpoint missing version")? {
            "1" => true,
            "2" => false,
            v => return Err(format!("unsupported checkpoint version {v}")),
        };
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
                // one and as a semicolon-joined string otherwise.
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
        if v1 {
            // Fleet constants only the version-1 header carries.
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
                let e = "invalid config in checkpoint header: 'audit' is false, but fleets always audit";
                return Err(e.to_string());
            }
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
        let history_start_len = num("history_start_len")? as usize;
        let history_appended = num("history_appended")? as usize;
        let done = opt_flag("done")?;

        // The `text_fnv` content check hashes the lines before the digest
        // line as the writer wrote them, each newline-terminated.
        let mut text_hash = Fnv1a::default();
        text_hash.line(header);
        let (mut jobs, njobs) = if v1 {
            let njobs = num("jobs")? as usize;
            crate::fleet::check_job_count(njobs as u64)
                .map_err(|e| format!("bad 'jobs' in checkpoint header: {e}"))?;
            (BlockJobs::Inline(Vec::with_capacity(njobs)), njobs)
        } else {
            (BlockJobs::Named(req("workload")?.to_string()), 0)
        };
        let mut digest: Option<u64> = None;
        for line in lines {
            if digest.is_some() {
                return Err(format!("checkpoint line after its digest line: {line}"));
            }
            let f =
                Fields::parse(line).ok_or_else(|| format!("malformed checkpoint line: {line}"))?;
            match (f.get("kind"), &mut jobs) {
                (Some("fleet-job"), BlockJobs::Inline(jobs)) => {
                    jobs.push(parse_job(&f, line)?);
                    text_hash.line(line);
                }
                (Some("fleet-digest"), _) => {
                    let hex = f.get("fnv").ok_or("digest line missing 'fnv'")?;
                    digest = Some(
                        u64::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad digest '{hex}': {e}"))?,
                    );
                    match f.get("text_fnv") {
                        Some(want) => {
                            let got = self::hex(text_hash.finish());
                            if got != want {
                                return Err(format!(
                                    "checkpoint text corrupted: content hash {got} != recorded {want}"
                                ));
                            }
                        }
                        // Pre-journal version-1 checkpoints carry no content
                        // hash (the state digest still guards the replay).
                        None if v1 => {}
                        None => return Err("digest line missing 'text_fnv'".to_string()),
                    }
                }
                (other, _) => {
                    return Err(format!("unexpected checkpoint line kind {other:?}: {line}"))
                }
            }
        }
        if let BlockJobs::Inline(jobs) = &jobs {
            if jobs.len() != njobs {
                return Err(format!(
                    "checkpoint declares {njobs} jobs but carries {}",
                    jobs.len()
                ));
            }
        }
        let digest = digest.ok_or("checkpoint missing its fleet-digest line")?;
        Ok(Block {
            config,
            tick,
            t_s,
            history_start_len,
            history_appended,
            digest,
            done,
            jobs,
        })
    }

    /// The checkpoint this block records, its workload taken from its own
    /// lines (version 1) or from `workload`, which it must name (version 2).
    fn into_checkpoint(self, workload: Option<&WorkloadBlock>) -> Result<Checkpoint, String> {
        let workload = match self.jobs {
            BlockJobs::Inline(jobs) => checked_workload(jobs)?,
            BlockJobs::Named(want) => match workload {
                Some(w) if w.fnv == want => w.workload.clone(),
                Some(w) => {
                    return Err(format!(
                        "checkpoint names workload {want}, but the journal's workload block is {}",
                        w.fnv
                    ))
                }
                None => {
                    return Err(format!(
                        "checkpoint names workload {want}, but there is no fleet-workload block"
                    ))
                }
            },
        };
        Ok(Checkpoint {
            config: self.config,
            workload,
            tick: self.tick,
            t_s: self.t_s,
            history_start_len: self.history_start_len,
            history_appended: self.history_appended,
            digest: self.digest,
            done: self.done,
        })
    }
}

/// A journal's workload block, parsed and hash-checked.
struct WorkloadBlock {
    /// The block's hash, as its closing line writes it.
    fnv: String,
    workload: Workload,
}

impl WorkloadBlock {
    /// Parse a workload block: its header, `jobs` job lines and the closing
    /// line whose hash must match the lines before it. Nothing may follow.
    fn parse(text: &str) -> Result<WorkloadBlock, String> {
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        let header = lines.next().ok_or("empty workload block")?;
        let h =
            Fields::parse(header).ok_or_else(|| format!("malformed workload header: {header}"))?;
        if h.get("kind") != Some("fleet-workload") {
            return Err(format!("not a fleet workload header: {header}"));
        }
        match h.get("version") {
            Some("2") => {}
            v => return Err(format!("unsupported workload block version {v:?}")),
        }
        let njobs = h
            .get("jobs")
            .ok_or("workload header missing 'jobs'")?
            .parse::<u64>()
            .map_err(|e| format!("bad 'jobs' in workload header: {e}"))?;
        crate::fleet::check_job_count(njobs)
            .map_err(|e| format!("bad 'jobs' in workload header: {e}"))?;
        let mut hash = Fnv1a::default();
        hash.line(header);
        let mut jobs = Vec::with_capacity(njobs as usize);
        let mut fnv = None;
        for line in lines {
            if fnv.is_some() {
                return Err(format!("workload line after its closing line: {line}"));
            }
            let f =
                Fields::parse(line).ok_or_else(|| format!("malformed workload line: {line}"))?;
            match f.get("kind") {
                Some("fleet-job") => {
                    jobs.push(parse_job(&f, line)?);
                    hash.line(line);
                }
                Some("fleet-workload-end") => {
                    let want = f.get("fnv").ok_or("workload closing line missing 'fnv'")?;
                    let got = hex(hash.finish());
                    if got != want {
                        return Err(format!(
                            "workload block corrupted: content hash {got} != recorded {want}"
                        ));
                    }
                    fnv = Some(got);
                }
                other => return Err(format!("unexpected workload line kind {other:?}: {line}")),
            }
        }
        let fnv = fnv.ok_or("workload block missing its closing line")?;
        if jobs.len() as u64 != njobs {
            return Err(format!(
                "workload declares {njobs} jobs but carries {}",
                jobs.len()
            ));
        }
        Ok(WorkloadBlock {
            fnv,
            workload: checked_workload(jobs)?,
        })
    }
}

/// [`Workload::new`] for jobs read from a file: what it would panic on
/// (an arrival that is not a number, a repeated id) is an error here.
fn checked_workload(jobs: Vec<JobSpec>) -> Result<Workload, String> {
    if let Some(j) = jobs.iter().find(|j| j.arrival_s.is_nan()) {
        return Err(format!("checkpoint job {} has no arrival time", j.id.0));
    }
    let mut ids: Vec<JobId> = jobs.iter().map(|j| j.id).collect();
    ids.sort_unstable();
    if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("checkpoint repeats job id {}", w[0].0));
    }
    Ok(Workload::new(jobs))
}

/// What a journal block holds.
#[derive(Clone, Copy, PartialEq, Debug)]
enum BlockKind {
    Workload,
    Checkpoint,
}

/// Split a journal into blocks: each runs from a header line to the next
/// header line or the end of the text. A header is a line whose first
/// non-blank bytes are `{"kind":"fleet-workload"` or
/// `{"kind":"fleet-checkpoint"`; a string value can never spell either, as
/// the writer escapes its quotes. Text before the first header belongs to
/// no block and is ignored.
fn split_blocks(text: &str) -> Vec<(BlockKind, &str)> {
    const PREFIX: &str = "{\"kind\":\"fleet-";
    let mut starts = Vec::new();
    for (at, _) in text.match_indices(PREFIX) {
        let rest = &text.as_bytes()[at + PREFIX.len()..];
        let kind = if rest.starts_with(b"checkpoint\"") {
            BlockKind::Checkpoint
        } else if rest.starts_with(b"workload\"") {
            BlockKind::Workload
        } else {
            continue;
        };
        let opens_line = text.as_bytes()[..at]
            .iter()
            .rev()
            .take_while(|&&b| b != b'\n')
            .all(u8::is_ascii_whitespace);
        if opens_line {
            starts.push((at, kind));
        }
    }
    let ends = starts.iter().skip(1).map(|(at, _)| *at).chain([text.len()]);
    starts
        .iter()
        .zip(ends)
        .map(|(&(start, kind), end)| (kind, &text[start..end]))
        .collect()
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

/// Parse a checkpoint **journal**: a file the CLI appends a checkpoint
/// block to at every checkpoint interval (rather than rewriting in place,
/// which risks a torn file if the process dies mid-write).
///
/// The journal is split into blocks at header lines. Its workload block is
/// parsed once; checkpoint blocks are tried newest-first and the first one
/// that parses and names that workload wins. Torn or corrupt trailing
/// blocks are counted in [`JournalRead::blocks_dropped`] — resume falls
/// back to the longest digest-consistent prefix instead of refusing
/// outright. A version-1 journal has no workload block: each of its blocks
/// carries its own jobs.
///
/// # Errors
/// Returns an error when the journal holds no parseable checkpoint at all
/// (every block torn, or the file is not a checkpoint journal), and when
/// its workload block is torn or altered, which leaves no checkpoint to
/// trust.
pub fn parse_journal(text: &str) -> Result<JournalRead, String> {
    let blocks = split_blocks(text);
    let checkpoints: Vec<&str> = blocks
        .iter()
        .filter(|(kind, _)| *kind == BlockKind::Checkpoint)
        .map(|(_, b)| *b)
        .collect();
    if checkpoints.is_empty() {
        return Err("journal holds no fleet-checkpoint block".to_string());
    }
    let mut workloads = blocks
        .iter()
        .filter(|(kind, _)| *kind == BlockKind::Workload);
    let workload = match (workloads.next(), workloads.next()) {
        (None, _) => None,
        (Some((_, w)), None) => Some(WorkloadBlock::parse(w).map_err(|e| {
            format!("journal's workload block is torn or altered, so no checkpoint survives: {e}")
        })?),
        (Some(_), Some(_)) => {
            return Err("journal holds more than one fleet-workload block".to_string())
        }
    };
    let total = checkpoints.len();
    let mut last_err = String::new();
    for (dropped, block) in checkpoints.iter().rev().enumerate() {
        match Block::parse(block).and_then(|b| b.into_checkpoint(workload.as_ref())) {
            Ok(checkpoint) => {
                return Ok(JournalRead {
                    checkpoint,
                    blocks_total: total,
                    blocks_dropped: dropped,
                })
            }
            Err(e) => last_err = e,
        }
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
        // Only the state digest is doctored; the content hash still holds.
        let text = sim
            .checkpoint()
            .lines()
            .map(|l| match l.find("\"fnv\":\"") {
                Some(at) if l.contains("fleet-digest") => {
                    let at = at + "\"fnv\":\"".len();
                    format!("{}00000000deadbeef{}", &l[..at], &l[at + 16..])
                }
                _ => l.to_string(),
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
        // and the tail of its header.
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

    /// Three checkpoints of one run at ticks 10, 20 and 30, and the run.
    fn three_blocks(w: &Workload) -> [String; 3] {
        let mut h = HistoryStore::in_memory();
        let mut sim = ShardedFleetSim::new(w, &cfg(), &mut h, 1);
        [(); 3].map(|_| {
            for _ in 0..10 {
                assert!(sim.tick());
            }
            sim.checkpoint()
        })
    }

    #[test]
    fn only_the_first_checkpoint_writes_the_workload() {
        let w = Workload::synthetic(6, 3);
        let blocks = three_blocks(&w);
        let workload_lines = |b: &str| {
            b.lines()
                .filter(|l| l.starts_with("{\"kind\":\"fleet-workload\""))
                .count()
        };
        assert_eq!(workload_lines(&blocks[0]), 1);
        assert_eq!(blocks[0].matches("\"kind\":\"fleet-job\"").count(), 6);
        for later in &blocks[1..] {
            assert_eq!(later.lines().count(), 2, "header + digest: {later}");
            assert!(later.starts_with("{\"kind\":\"fleet-checkpoint\",\"version\":2,"));
        }
        // The v1-only constants are gone from the v2 header.
        for key in ["max_match_distance", "noise_sigma", "audit", "shed_after_s"] {
            assert!(!blocks[1].contains(key), "{key}");
        }
        let read = parse_journal(&blocks.concat()).unwrap();
        assert_eq!((read.blocks_total, read.blocks_dropped), (3, 0));
        assert_eq!(read.checkpoint.tick, 30);
        assert_eq!(read.checkpoint.workload.len(), 6);
        // A later block cannot stand alone: it only names its workload.
        let err = Checkpoint::parse(&blocks[1]).unwrap_err();
        assert!(err.contains("no fleet-workload block"), "{err}");
    }

    #[test]
    fn a_torn_workload_block_refuses_the_journal() {
        let w = Workload::synthetic(6, 3);
        let blocks = three_blocks(&w);
        let journal = blocks.concat();
        // Drop one job line, cut one short, or tear off the closing line:
        // every checkpoint block after it is intact, and none survives.
        let job = journal.find("{\"kind\":\"fleet-job\"").unwrap();
        let job_end = job + journal[job..].find('\n').unwrap() + 1;
        let close = journal.find("{\"kind\":\"fleet-workload-end\"").unwrap();
        let close_end = close + journal[close..].find('\n').unwrap() + 1;
        for torn in [
            format!("{}{}", &journal[..job], &journal[job_end..]),
            format!("{}\n{}", &journal[..job_end - 10], &journal[job_end..]),
            format!("{}{}", &journal[..close], &journal[close_end..]),
        ] {
            let err = parse_journal(&torn).unwrap_err();
            assert!(err.contains("workload block is torn or altered"), "{err}");
        }
    }

    #[test]
    fn a_journal_without_its_workload_block_is_refused() {
        let w = Workload::synthetic(6, 3);
        let blocks = three_blocks(&w);
        let err = parse_journal(&blocks[1..].concat()).unwrap_err();
        assert!(err.contains("none parse"), "{err}");
        assert!(err.contains("no fleet-workload block"), "{err}");
    }

    #[test]
    fn a_block_naming_another_workload_is_refused() {
        let ours = three_blocks(&Workload::synthetic(6, 3));
        let theirs = three_blocks(&Workload::synthetic(6, 4));
        // Another run's later block, appended to this run's journal, is
        // intact but names a workload this journal does not hold.
        let journal = format!("{}{}{}", ours[0], ours[1], theirs[2]);
        let read = parse_journal(&journal).unwrap();
        assert_eq!((read.blocks_total, read.blocks_dropped), (3, 1));
        assert_eq!(read.checkpoint.tick, 20);
        let err = parse_journal(&format!(
            "{}{}",
            &ours[0][..ours[0].find("{\"kind\":\"fleet-checkpoint\"").unwrap()],
            theirs[1]
        ))
        .unwrap_err();
        assert!(err.contains("but the journal's workload block is"), "{err}");
    }

    #[test]
    fn a_torn_newest_block_salvages_the_previous_one() {
        let w = Workload::synthetic(6, 3);
        let blocks = three_blocks(&w);
        let full = run_fleet_sharded(&w, &cfg(), &mut HistoryStore::in_memory(), 1);
        let newest = &blocks[2];
        for keep in [newest.len() - 2, newest.len() / 2, 30] {
            let journal = format!("{}{}{}", blocks[0], blocks[1], &newest[..keep]);
            let read = parse_journal(&journal).unwrap();
            assert_eq!((read.blocks_total, read.blocks_dropped), (3, 1), "{keep}");
            assert_eq!(read.checkpoint.tick, 20);
            let resumed =
                resume_fleet_sharded(&read.checkpoint, &mut HistoryStore::in_memory(), 1).unwrap();
            assert_eq!(full.report.render(), resumed.report.render());
        }
    }

    #[test]
    fn checkpoint_jobs_that_would_panic_are_refused() {
        let header = "{\"kind\":\"fleet-checkpoint\",\"version\":1,\"tick\":0,\"t_s\":0,\
             \"policy\":\"fifo\",\"seed\":7,\"horizon_s\":100,\"tick_s\":5,\"epoch_s\":30,\
             \"budget\":512,\"warm\":true,\"max_match_distance\":2,\"noise_sigma\":0.05,\
             \"audit\":true,\"shed_after_s\":300,\"jobs\":2,\"history_start_len\":0,\
             \"history_appended\":0}\n";
        let job = |id: u32, arrival: &str| {
            format!(
                "{{\"kind\":\"fleet-job\",\"id\":{id},\"arrival_s\":{arrival},\"size_mb\":10,\
                 \"priority\":1,\"route\":\"anl->tacc\",\"tuner\":\"cs-tuner\",\"np\":8,\
                 \"max_streams\":128}}\n"
            )
        };
        let digest = "{\"kind\":\"fleet-digest\",\"fnv\":\"0000000000000000\"}\n";
        let nan = format!("{header}{}{}{digest}", job(0, "NaN"), job(1, "5"));
        let err = Checkpoint::parse(&nan).unwrap_err();
        assert!(err.contains("no arrival time"), "{err}");
        let dup = format!("{header}{}{}{digest}", job(3, "0"), job(3, "5"));
        let err = Checkpoint::parse(&dup).unwrap_err();
        assert!(err.contains("repeats job id 3"), "{err}");
    }

    #[test]
    fn streamed_digest_hash_equals_the_hash_of_the_digest_text() {
        use crate::fleet::{topo_workload, TopoFleetConfig};
        use xferopt_topo::{search_routes, Planet, RouteCatalog, SearchConfig};

        let planet = Planet::preset("mesh").unwrap();
        let search = SearchConfig::default();
        let placement = search_routes(&planet, &search).unwrap();
        let catalog = RouteCatalog::enumerate(&planet, search.k).unwrap();
        let mut tc = TopoFleetConfig::preset("mesh");
        tc.campaign = Some("rolling-outage".to_string());
        tc.selfheal = true;
        let topo = FleetConfig {
            topo: Some(tc),
            ..cfg()
        };
        let sharded = (Workload::synthetic_sites(12, 5, 3), cfg());
        let planet_fleet = (topo_workload(&placement, &catalog, 8), topo);
        for (what, (w, c)) in [("sharded", sharded), ("topo", planet_fleet)] {
            let mut h = HistoryStore::in_memory();
            let mut sim = ShardedFleetSim::new(&w, &c, &mut h, 2);
            let check = |sim: &ShardedFleetSim, at: &str| {
                assert_eq!(sim.digest_hash(), fnv1a(&sim.state_digest()), "{what} {at}");
            };
            check(&sim, "at tick 0");
            for _ in 0..40 {
                sim.tick();
            }
            check(&sim, "mid-run");
            while sim.run_ticks(1024) > 0 {}
            check(&sim, "finished");
        }
    }
}
