//! Persistent warm-start history store.
//!
//! Every completed job appends one [`HistoryRecord`] — the context it ran in
//! (route, external stream load, tuner) and the outcome it found (best
//! `nc × np`, achieved MB/s). New jobs query the store for the nearest
//! historical match and seed their tuner at the recorded optimum instead of
//! the Globus default, cutting the convergence transient (the paper's §V-C
//! "log files" future-work direction, following Arslan & Kosar's historical
//! tuning).
//!
//! Records are stored as JSONL (one file per store directory, append-only)
//! with fixed key order, so the store is diffable and byte-deterministic.
//!
//! # Distance metric (see DESIGN.md §11)
//!
//! ```text
//! d(a, b) = 1000 · [route differs]
//!         + 0.5  · [tuner differs]
//!         + |ln((1 + ext_streams_a) / (1 + ext_streams_b))|
//!         + |ln((1 + cmp_jobs_a)    / (1 + cmp_jobs_b))|
//! ```
//!
//! Route mismatch is effectively disqualifying; tuner mismatch is a mild
//! penalty (an optimum found by compass search still seeds Nelder–Mead well);
//! load terms compare on a log scale because contention effects are
//! multiplicative.
//!
//! Distance ties are broken deterministically so reruns are byte-identical:
//! first a record from the *same scenario* as the query wins, then the
//! lexicographically smallest context key
//! ([`HistoryRecord::context_key`]), then insertion order (earliest record
//! wins).

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use xferopt_simcore::json::{json_f64, object, Fields};
use xferopt_tuners::{Point, TunerKind, WarmStart};

/// File name used inside a history directory.
pub const HISTORY_FILE: &str = "history.jsonl";

/// One completed job's context and outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRecord {
    /// Name of the route the job ran on (`"anl->uchicago"` for the classic
    /// enum routes, a catalog route name like `"use->euw:0"` on topo fleets).
    pub route: String,
    /// Tuner strategy that produced the optimum.
    pub tuner: TunerKind,
    /// External TCP streams on the route's WAN link at admission time
    /// (other jobs' streams — the job's own are excluded).
    pub ext_streams: f64,
    /// Competing compute jobs on the source host at admission time.
    pub cmp_jobs: f64,
    /// Best parameters the tuner settled on.
    pub best: Point,
    /// Throughput observed at `best`, MB/s.
    pub achieved_mbs: f64,
    /// Scenario label the job ran under (`"fleet"`, a tournament preset
    /// name, …). Empty on records written before the field existed; used
    /// only as a tiebreak, never in the distance metric.
    pub scenario: String,
}

impl HistoryRecord {
    /// Distance to a query context (see the module docs for the metric).
    pub fn distance(&self, route: &str, tuner: TunerKind, ext_streams: f64, cmp_jobs: f64) -> f64 {
        let mut d = 0.0;
        if self.route != route {
            d += 1000.0;
        }
        if self.tuner != tuner {
            d += 0.5;
        }
        d += (((1.0 + self.ext_streams) / (1.0 + ext_streams)).ln()).abs();
        d += (((1.0 + self.cmp_jobs) / (1.0 + cmp_jobs)).ln()).abs();
        d
    }

    /// Render as one JSON line with fixed key order.
    pub fn to_json(&self) -> String {
        object(|o| {
            o.str("kind", "history");
            o.str("route", &self.route);
            o.str("tuner", self.tuner.name());
            o.f64("ext_streams", self.ext_streams);
            o.f64("cmp_jobs", self.cmp_jobs);
            o.array("best", &self.best);
            o.f64("achieved_mbs", self.achieved_mbs);
            o.str("scenario", &self.scenario);
        })
    }

    /// Deterministic, human-readable context key used as the lexicographic
    /// tiebreak between equidistant records.
    pub fn context_key(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}",
            self.route,
            self.tuner.name(),
            json_f64(self.ext_streams),
            json_f64(self.cmp_jobs),
            self.scenario,
        )
    }

    /// Parse one JSON line produced by [`HistoryRecord::to_json`]. Lines of
    /// other kinds (or malformed lines) yield `None`.
    pub fn from_json(line: &str) -> Option<HistoryRecord> {
        let f = Fields::parse(line)?;
        if f.get("kind")? != "history" {
            return None;
        }
        let route = f.get("route")?.to_string();
        if route.is_empty() {
            return None;
        }
        let tuner: TunerKind = f.get("tuner")?.parse().ok()?;
        let ext_streams: f64 = f.get("ext_streams")?.parse().ok()?;
        let cmp_jobs: f64 = f.get("cmp_jobs")?.parse().ok()?;
        let best: Point = f
            .get("best")?
            .strip_prefix('[')?
            .strip_suffix(']')?
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| s.trim().parse::<i64>())
            .collect::<Result<_, _>>()
            .ok()?;
        if best.is_empty() {
            return None;
        }
        let achieved_mbs: f64 = f.get("achieved_mbs")?.parse().ok()?;
        // Records written before the scenario field existed parse as "".
        let scenario = f.get("scenario").unwrap_or_default().to_string();
        Some(HistoryRecord {
            route,
            tuner,
            ext_streams,
            cmp_jobs,
            best,
            achieved_mbs,
            scenario,
        })
    }
}

/// One `(route, tuner)` context's records, reduced to the earliest record of
/// each distinct `(ext_streams, cmp_jobs, scenario)`. Records that share all
/// of those are equidistant from every query and share a context key, so
/// only the earliest of them can be the nearest.
#[derive(Debug, Clone)]
struct Bucket {
    tuner: TunerKind,
    /// Those earliest record indices, ascending.
    firsts: Vec<usize>,
    /// The same indices, by the bits of `(ext_streams, cmp_jobs)`.
    by_load: HashMap<(u64, u64), Vec<usize>>,
}

impl Bucket {
    fn new(tuner: TunerKind) -> Self {
        Bucket {
            tuner,
            firsts: Vec::new(),
            by_load: HashMap::new(),
        }
    }

    fn load_key(r: &HistoryRecord) -> (u64, u64) {
        (r.ext_streams.to_bits(), r.cmp_jobs.to_bits())
    }

    /// Index record `i` (`r`, not yet in `records`) unless an earlier
    /// record has its load and scenario.
    fn add(&mut self, records: &[HistoryRecord], i: usize, r: &HistoryRecord) {
        let same = self.by_load.entry(Self::load_key(r)).or_default();
        if !same.iter().any(|&j| records[j].scenario == r.scenario) {
            same.push(i);
            self.firsts.push(i);
        }
    }

    /// Forget the records at index `len` and beyond (still in `records`).
    fn truncate(&mut self, records: &[HistoryRecord], len: usize) {
        while let Some(&i) = self.firsts.last().filter(|&&i| i >= len) {
            self.firsts.pop();
            let key = Self::load_key(&records[i]);
            if let Some(same) = self.by_load.get_mut(&key) {
                same.retain(|&j| j != i);
                if same.is_empty() {
                    self.by_load.remove(&key);
                }
            }
        }
    }
}

/// Append-only store of [`HistoryRecord`]s, optionally backed by a JSONL file.
#[derive(Debug)]
pub struct HistoryStore {
    records: Vec<HistoryRecord>,
    /// Per route, one bucket per tuner seen on it: [`HistoryStore::nearest`]
    /// scans the query's own context first and skips whole buckets whose
    /// fixed route/tuner penalty already exceeds the best distance found.
    buckets: BTreeMap<String, Vec<Bucket>>,
    path: Option<PathBuf>,
    /// Malformed / foreign lines skipped while loading the backing file.
    skipped: usize,
    /// When false, `append` updates memory only (used by checkpoint replay,
    /// which re-runs ticks whose records the backing file already holds).
    persist: bool,
}

impl Default for HistoryStore {
    fn default() -> Self {
        HistoryStore {
            records: Vec::new(),
            buckets: BTreeMap::new(),
            path: None,
            skipped: 0,
            persist: true,
        }
    }
}

impl HistoryStore {
    /// A store that lives only in memory (used by tests and cold runs).
    pub fn in_memory() -> Self {
        HistoryStore::default()
    }

    /// Open (or create) a store backed by `dir/history.jsonl`. Existing
    /// records are loaded; malformed lines are skipped (and counted — see
    /// [`HistoryStore::skipped`], surfaced as the `history_lines_skipped`
    /// metric by the fleet runner).
    ///
    /// # Errors
    /// Returns any I/O error from creating the directory or reading the file.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(HISTORY_FILE);
        let mut store = HistoryStore::in_memory();
        if path.exists() {
            for line in std::fs::read_to_string(&path)?.lines() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                match HistoryRecord::from_json(line) {
                    Some(r) => store.push(r),
                    None => store.skipped += 1,
                }
            }
        }
        store.path = Some(path);
        Ok(store)
    }

    /// Malformed lines skipped when the backing file was loaded.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// An in-memory snapshot of this store for one shard of a sharded fleet
    /// run: same records and `skipped` count, but no backing file — the
    /// shard appends locally while the sharded runner serializes the same
    /// records into the real store in deterministic job-id order (DESIGN.md
    /// §15). For a single-component run the snapshot's contents track the
    /// real store exactly, keeping warm-start lookups byte-identical to the
    /// single-threaded reference path.
    pub fn shard_snapshot(&self) -> HistoryStore {
        HistoryStore {
            records: self.records.clone(),
            buckets: self.buckets.clone(),
            path: None,
            skipped: self.skipped,
            persist: true,
        }
    }

    /// Directory the store persists to, when file-backed.
    pub fn dir(&self) -> Option<&Path> {
        self.path.as_deref().and_then(Path::parent)
    }

    /// Toggle persistence: when off, [`HistoryStore::append`] updates memory
    /// only. Checkpoint resume replays already-persisted ticks with
    /// persistence off so the backing file never holds duplicate records.
    pub fn set_persist(&mut self, persist: bool) {
        self.persist = persist;
    }

    /// Drop in-memory records beyond `len` (checkpoint replay rewinds the
    /// store to its state at run start). The backing file is untouched.
    pub fn truncate(&mut self, len: usize) {
        for b in self.buckets.values_mut().flatten() {
            b.truncate(&self.records, len);
        }
        self.records.truncate(len);
    }

    /// Cut the backing file back to its first `records` records, so that
    /// a checkpoint resume does not append a second time what the file
    /// already holds from past the checkpoint. Malformed lines before the
    /// first record cut keep their place. A file holding no more than
    /// `records` records, and a store without a file, are left as they are.
    ///
    /// # Errors
    /// Returns any I/O error from reading or shortening the file.
    pub(crate) fn truncate_file(&self, records: usize) -> std::io::Result<()> {
        let Some(path) = self.path.as_deref().filter(|p| p.exists()) else {
            return Ok(());
        };
        let text = std::fs::read_to_string(path)?;
        let (mut kept, mut end) = (0, 0);
        for line in text.split_inclusive('\n') {
            if HistoryRecord::from_json(line.trim()).is_some() {
                if kept == records {
                    let file = std::fs::OpenOptions::new().write(true).open(path)?;
                    return file.set_len(end as u64);
                }
                kept += 1;
            }
            end += line.len();
        }
        Ok(())
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records, in insertion order.
    pub fn records(&self) -> &[HistoryRecord] {
        &self.records
    }

    /// Append a record (and persist it when file-backed).
    ///
    /// # Errors
    /// Returns any I/O error from appending to the backing file.
    pub fn append(&mut self, record: HistoryRecord) -> std::io::Result<()> {
        if let (true, Some(path)) = (self.persist, &self.path) {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            writeln!(f, "{}", record.to_json())?;
        }
        self.push(record);
        Ok(())
    }

    /// Add a record to memory and to its `(route, tuner)` bucket.
    fn push(&mut self, record: HistoryRecord) {
        let i = self.records.len();
        let route = match self.buckets.get_mut(record.route.as_str()) {
            Some(route) => route,
            None => self.buckets.entry(record.route.clone()).or_default(),
        };
        let bucket = match route.iter().position(|b| b.tuner == record.tuner) {
            Some(k) => &mut route[k],
            None => {
                route.push(Bucket::new(record.tuner));
                route.last_mut().expect("just pushed")
            }
        };
        bucket.add(&self.records, i, &record);
        self.records.push(record);
    }

    /// The nearest record to a query context, with its distance. Distance
    /// ties break deterministically: same-`scenario` records first (when the
    /// query names one), then the lexicographically smallest
    /// [`HistoryRecord::context_key`], then insertion order (earliest wins).
    /// `None` when the store is empty.
    ///
    /// Only the earliest record of each distinct context is scanned (see
    /// `Bucket`), so the cost follows the number of distinct contexts, not
    /// the store's length. Every record's distance is at least its bucket's
    /// fixed penalty (0, 0.5, 1000 or 1000.5), so the query's own bucket is
    /// scanned first and any bucket whose penalty exceeds the best distance
    /// so far is skipped: it holds no record that could win or tie. Because
    /// the tiebreak is a total order, the scan order cannot change the
    /// winner.
    pub fn nearest(
        &self,
        route: &str,
        tuner: TunerKind,
        ext_streams: f64,
        cmp_jobs: f64,
        scenario: &str,
    ) -> Option<(&HistoryRecord, f64)> {
        // (record index, distance, scenario mismatch)
        let mut best: Option<(usize, f64, bool)> = None;
        let scan = |bucket: &Bucket, best: &mut Option<(usize, f64, bool)>| {
            for &i in &bucket.firsts {
                let r = &self.records[i];
                let d = r.distance(route, tuner, ext_streams, cmp_jobs);
                let mismatch = !scenario.is_empty() && r.scenario != scenario;
                let better = match *best {
                    None => true,
                    Some((bi, bd, bmis)) => {
                        if d != bd {
                            d < bd
                        } else if mismatch != bmis {
                            // Same distance: prefer the same-scenario record.
                            !mismatch
                        } else {
                            // Same distance and scenario class: lexicographic
                            // context key, then the earliest record.
                            context_key_cmp(r, &self.records[bi])
                                .then(i.cmp(&bi))
                                .is_lt()
                        }
                    }
                };
                if better {
                    *best = Some((i, d, mismatch));
                }
            }
        };
        // A bucket is scanned only while the penalty all its records pay
        // could still win or tie: (query's route?, query's tuner?, penalty).
        let passes = [
            (true, true, 0.0),
            (true, false, 0.5),
            (false, true, 1000.0),
            (false, false, 1000.5),
        ];
        for (same_route, same_tuner, penalty) in passes {
            let routes = self
                .buckets
                .iter()
                .filter(|(name, _)| (*name == route) == same_route);
            for (_, buckets) in routes {
                for b in buckets.iter().filter(|b| (b.tuner == tuner) == same_tuner) {
                    let may_win = best.is_none_or(|(_, bd, _)| penalty <= bd);
                    if may_win {
                        scan(b, &mut best);
                    }
                }
            }
        }
        best.map(|(i, d, _)| (&self.records[i], d))
    }
}

/// A [`WarmStart`] seed for a new job from its [`HistoryStore::nearest`]
/// hit: the record's optimum when it lies within `max_distance` and has the
/// dimension of `cold_x0`, else the cold default `cold_x0`.
pub(crate) fn warm_seed(
    hit: Option<(&HistoryRecord, f64)>,
    cold_x0: Point,
    max_distance: f64,
) -> WarmStart {
    match hit {
        Some((r, d)) if d <= max_distance && r.best.len() == cold_x0.len() => {
            WarmStart::from_history(r.best.clone(), d)
        }
        _ => WarmStart::cold(cold_x0),
    }
}

/// Order two records by [`HistoryRecord::context_key`] without building the
/// keys when the contexts match up to the scenario (the common tie).
fn context_key_cmp(a: &HistoryRecord, b: &HistoryRecord) -> std::cmp::Ordering {
    let same_prefix = a.route == b.route
        && a.tuner == b.tuner
        && a.ext_streams.to_bits() == b.ext_streams.to_bits()
        && a.cmp_jobs.to_bits() == b.cmp_jobs.to_bits();
    if same_prefix {
        a.scenario.cmp(&b.scenario)
    } else {
        a.context_key().cmp(&b.context_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const UC: &str = "anl->uchicago";
    const TACC: &str = "anl->tacc";

    fn rec(route: &str, tuner: TunerKind, ext: f64, best: Point, mbs: f64) -> HistoryRecord {
        HistoryRecord {
            route: route.to_string(),
            tuner,
            ext_streams: ext,
            cmp_jobs: 0.0,
            best,
            achieved_mbs: mbs,
            scenario: String::new(),
        }
    }

    fn rec_in(scenario: &str, ext: f64, best: Point) -> HistoryRecord {
        HistoryRecord {
            scenario: scenario.to_string(),
            ..rec(UC, TunerKind::Cs, ext, best, 3000.0)
        }
    }

    #[test]
    fn json_round_trips() {
        let r = HistoryRecord {
            scenario: "fleet".to_string(),
            ..rec(TACC, TunerKind::Nm, 48.5, vec![12, 8], 2210.25)
        };
        let line = r.to_json();
        assert!(line.starts_with("{\"kind\":\"history\",\"route\":\"anl->tacc\""));
        assert!(line.ends_with("\"scenario\":\"fleet\"}"));
        assert_eq!(HistoryRecord::from_json(&line).unwrap(), r);
        // Non-history and malformed lines are skipped.
        assert!(HistoryRecord::from_json("{\"kind\":\"decision\"}").is_none());
        assert!(HistoryRecord::from_json("not json").is_none());
    }

    #[test]
    fn pre_scenario_lines_still_parse() {
        // A line written before the scenario field existed.
        let line = "{\"kind\":\"history\",\"route\":\"anl->uchicago\",\"tuner\":\"cs-tuner\",\"ext_streams\":5,\"cmp_jobs\":0,\"best\":[8,8],\"achieved_mbs\":3500}";
        let r = HistoryRecord::from_json(line).expect("legacy line parses");
        assert_eq!(r.scenario, "", "missing scenario defaults to empty");
        assert_eq!(r.best, vec![8, 8]);
    }

    #[test]
    fn distance_prefers_same_route_and_similar_load() {
        let same = rec(UC, TunerKind::Cs, 100.0, vec![8], 3000.0);
        let other_route = rec(TACC, TunerKind::Cs, 100.0, vec![8], 2000.0);
        let other_tuner = rec(UC, TunerKind::Nm, 100.0, vec![8], 3000.0);
        let d_same = same.distance(UC, TunerKind::Cs, 110.0, 0.0);
        let d_route = other_route.distance(UC, TunerKind::Cs, 110.0, 0.0);
        let d_tuner = other_tuner.distance(UC, TunerKind::Cs, 110.0, 0.0);
        assert!(d_same < d_tuner, "{d_same} vs {d_tuner}");
        assert!(d_tuner < d_route, "{d_tuner} vs {d_route}");
        assert!(d_route >= 1000.0);
        // Exact context match is distance 0.
        assert_eq!(same.distance(UC, TunerKind::Cs, 100.0, 0.0), 0.0);
    }

    #[test]
    fn nearest_breaks_ties_on_insertion_order() {
        let mut s = HistoryStore::in_memory();
        s.append(rec(UC, TunerKind::Cs, 0.0, vec![6], 3900.0))
            .unwrap();
        s.append(rec(UC, TunerKind::Cs, 0.0, vec![9], 3800.0))
            .unwrap();
        let (r, d) = s.nearest(UC, TunerKind::Cs, 0.0, 0.0, "").unwrap();
        assert_eq!(d, 0.0);
        assert_eq!(r.best, vec![6], "earliest exact match wins");
    }

    #[test]
    fn nearest_prefers_same_scenario_on_distance_ties() {
        let mut s = HistoryStore::in_memory();
        s.append(rec_in("fleet", 4.0, vec![6])).unwrap();
        s.append(rec_in("uc-contended", 4.0, vec![9])).unwrap();
        // Both are at the same distance from the query; the same-scenario
        // record must win even though it was inserted later.
        let (r, _) = s
            .nearest(UC, TunerKind::Cs, 4.0, 0.0, "uc-contended")
            .unwrap();
        assert_eq!(r.best, vec![9], "same-scenario record wins the tie");
        // Without a scenario in the query the tiebreak is the lexicographic
        // context key ("...|fleet" < "...|uc-contended").
        let (r, _) = s.nearest(UC, TunerKind::Cs, 4.0, 0.0, "").unwrap();
        assert_eq!(r.best, vec![6]);
        // Scenario never overrides a genuinely closer record.
        s.append(rec_in("uc-quiet", 4.05, vec![12])).unwrap();
        let (r, _) = s
            .nearest(UC, TunerKind::Cs, 4.05, 0.0, "uc-contended")
            .unwrap();
        assert_eq!(r.best, vec![12], "distance dominates the scenario tiebreak");
    }

    #[test]
    fn equidistant_tiebreak_is_lexicographic_then_insertion_order() {
        let mut s = HistoryStore::in_memory();
        // Two records whose distance to the query is exactly the tuner
        // mismatch penalty (0.5), same scenario class: the smaller context
        // key must win regardless of insertion order.
        let nm = rec(UC, TunerKind::Nm, 3.0, vec![30], 3000.0);
        let cd = rec(UC, TunerKind::Cd, 3.0, vec![20], 3000.0);
        s.append(nm).unwrap();
        s.append(cd).unwrap();
        let (r, d) = s.nearest(UC, TunerKind::Cs, 3.0, 0.0, "").unwrap();
        assert_eq!(d, 0.5);
        assert_eq!(
            r.best,
            vec![20],
            "cd-tuner key sorts before nm-tuner, so it wins the tie"
        );
        // Identical contexts: earliest insertion wins.
        let mut s2 = HistoryStore::in_memory();
        s2.append(rec_in("fleet", 3.0, vec![5])).unwrap();
        s2.append(rec_in("fleet", 3.0, vec![8])).unwrap();
        let (r, _) = s2.nearest(UC, TunerKind::Cs, 3.0, 0.0, "fleet").unwrap();
        assert_eq!(r.best, vec![5]);
    }

    /// The linear scan `nearest` replaced: every record in insertion order,
    /// keeping the first strictly better one.
    fn linear_nearest<'a>(
        records: &'a [HistoryRecord],
        route: &str,
        tuner: TunerKind,
        ext_streams: f64,
        cmp_jobs: f64,
        scenario: &str,
    ) -> Option<(&'a HistoryRecord, f64)> {
        let mut best: Option<(&HistoryRecord, f64, bool, String)> = None;
        for r in records {
            let d = r.distance(route, tuner, ext_streams, cmp_jobs);
            let mismatch = !scenario.is_empty() && r.scenario != scenario;
            let better = match &best {
                None => true,
                Some((_, bd, bmis, bkey)) => {
                    if d != *bd {
                        d < *bd
                    } else if mismatch != *bmis {
                        !mismatch
                    } else {
                        r.context_key() < *bkey
                    }
                }
            };
            if better {
                best = Some((r, d, mismatch, r.context_key()));
            }
        }
        best.map(|(r, d, _, _)| (r, d))
    }

    const ROUTES: [&str; 3] = [UC, TACC, "use->euw:0"];
    const TUNERS: [TunerKind; 3] = [TunerKind::Cs, TunerKind::Nm, TunerKind::Cd];
    const SCENARIOS: [&str; 3] = ["", "fleet", "uc-contended"];

    /// Load on a coarse grid (exact ties), or near 1e300: a log term then
    /// reaches ~690, so the two load terms together exceed the 1000 route
    /// penalty.
    fn load() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u32..6).prop_map(|v| v as f64 * 4.0),
            (1u32..9).prop_map(|v| v as f64 * 1e299),
        ]
    }

    proptest! {
        #[test]
        fn bucketed_nearest_equals_the_linear_scan(
            records in prop::collection::vec(
                (0usize..3, 0usize..3, load(), load(), 0usize..3, 1i64..64), 0..40),
            queries in prop::collection::vec(
                (0usize..3, 0usize..3, load(), load(), 0usize..3), 8),
            keep in 0usize..48,
        ) {
            let mut s = HistoryStore::in_memory();
            for &(r, t, ext, cmp, sc, best) in &records {
                s.append(HistoryRecord {
                    cmp_jobs: cmp,
                    scenario: SCENARIOS[sc].to_string(),
                    ..rec(ROUTES[r], TUNERS[t], ext, vec![best], 1000.0)
                })
                .unwrap();
            }
            let snapshot = s.shard_snapshot();
            let mut cut = s.shard_snapshot();
            cut.truncate(keep);
            // Rewind and replay, as checkpoint resume does.
            let mut replayed = s.shard_snapshot();
            replayed.truncate(keep);
            for r in &s.records()[replayed.len()..] {
                replayed.append(r.clone()).unwrap();
            }
            for &(r, t, ext, cmp, sc) in &queries {
                let q = (ROUTES[r], TUNERS[t], ext, cmp, SCENARIOS[sc]);
                for store in [&s, &snapshot, &cut, &replayed] {
                    let got = store.nearest(q.0, q.1, q.2, q.3, q.4);
                    let want = linear_nearest(store.records(), q.0, q.1, q.2, q.3, q.4);
                    prop_assert_eq!(
                        got.map(|(r, d)| (r as *const HistoryRecord, d.to_bits())),
                        want.map(|(r, d)| (r as *const HistoryRecord, d.to_bits())),
                        "query {:?}", q
                    );
                }
            }
        }
    }

    #[test]
    fn nearest_looks_past_the_route_penalty_when_the_load_term_is_larger() {
        let mut s = HistoryStore::in_memory();
        s.append(HistoryRecord {
            cmp_jobs: 1e300,
            ..rec(UC, TunerKind::Cs, 1e300, vec![5], 3000.0)
        })
        .unwrap();
        s.append(rec(TACC, TunerKind::Cs, 0.0, vec![7], 3000.0))
            .unwrap();
        let (r, d) = s.nearest(UC, TunerKind::Cs, 0.0, 0.0, "").unwrap();
        assert_eq!(r.best, vec![7], "the other route is nearer: {d}");
        assert_eq!(d, 1000.0);
    }

    #[test]
    fn warm_start_falls_back_to_cold() {
        let seed = |s: &HistoryStore, ext: f64| {
            warm_seed(s.nearest(UC, TunerKind::Cs, ext, 0.0, ""), vec![2, 8], 2.0)
        };
        let mut s = HistoryStore::in_memory();
        assert!(!seed(&s, 0.0).is_warm());
        s.append(rec(TACC, TunerKind::Cs, 0.0, vec![12, 8], 2100.0))
            .unwrap();
        // Nearest is on the wrong route: distance 1000 exceeds the cutoff.
        let w = seed(&s, 0.0);
        assert!(!w.is_warm());
        s.append(rec(UC, TunerKind::Cs, 3.0, vec![7, 8], 3900.0))
            .unwrap();
        let w = seed(&s, 3.0);
        assert!(w.is_warm());
        assert_eq!(w.x0, vec![7, 8]);
        // Dimension mismatch (1-D record, 2-D query) falls back to cold.
        let mut s1 = HistoryStore::in_memory();
        s1.append(rec(UC, TunerKind::Cs, 3.0, vec![7], 3900.0))
            .unwrap();
        assert!(!seed(&s1, 3.0).is_warm());
    }

    #[test]
    fn file_backed_store_persists_across_open() {
        let dir = std::env::temp_dir().join(format!("xferopt-hist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut s = HistoryStore::open(&dir).unwrap();
            assert!(s.is_empty());
            s.append(rec(UC, TunerKind::Cs, 5.0, vec![8, 8], 3500.0))
                .unwrap();
            s.append(rec(TACC, TunerKind::Nm, 0.0, vec![20, 8], 2300.0))
                .unwrap();
        }
        let s = HistoryStore::open(&dir).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.records()[1].best, vec![20, 8]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
