//! The fleet report line and CSV row as `write!` format strings render
//! them: the reference the direct-push rows of `FleetReport` must match
//! byte for byte (`tests/fleet.rs`) and must beat on speed
//! (`tests/perf_gates.rs`).

use std::fmt::Write as _;

use xferopt::orchestrator::{FleetConfig, FleetReport, JobOutcome, SupervisionSummary};

/// The CSV header line `FleetReport::to_csv` starts with.
pub const CSV_HEADER: &str = "job,state,route,tuner,size_mb,priority,arrival_s,admitted_s,finished_s,granted,warm_distance,best,best_mbs,mean_mbs,moved_mb,epochs,t90_s,deadline_met\n";

/// An optional report number: `Some(x)` with the given decimals, `None` as
/// the given placeholder.
struct OptNum(Option<f64>, usize, &'static str);

impl std::fmt::Display for OptNum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            Some(x) => write!(f, "{x:.*}", self.1),
            None => f.write_str(self.2),
        }
    }
}

/// Append `o`'s report line (no newline).
pub fn line(o: &JobOutcome, out: &mut String) {
    let _ = write!(
        out,
        "{} state={} route={} tuner={} size_mb={:.0} prio={} arrival_s={:.0} admitted_s={} finished_s={} granted={} start=",
        o.id,
        o.state.name(),
        o.spec.route.name(),
        o.spec.tuner.name(),
        o.spec.size_mb,
        o.spec.priority,
        o.spec.arrival_s,
        OptNum(o.admitted_s, 1, "-"),
        OptNum(o.finished_s, 1, "-"),
        o.granted_streams,
    );
    match o.warm_distance {
        Some(d) => {
            let _ = write!(out, "warm:{d:.3}");
        }
        None => out.push_str("cold"),
    }
    let deadline = match o.deadline_met {
        Some(true) => "met",
        Some(false) => "missed",
        None => "-",
    };
    let _ = write!(
        out,
        " best={}x{} best_mbs={:.1} mean_mbs={:.1} moved_mb={:.1} epochs={} t90_s={} deadline={}",
        o.best_params.nc,
        o.best_params.np,
        o.best_mbs,
        o.mean_mbs,
        o.moved_mb,
        o.epochs,
        OptNum(o.time_to_90_s, 1, "-"),
        deadline,
    );
}

/// Append `o`'s CSV row, newline included.
pub fn csv_row(o: &JobOutcome, out: &mut String) {
    let _ = write!(
        out,
        "{},{},{},{},{:.0},{},{:.0},{},{},{},{},{}x{},{:.3},{:.3},{:.3},{},{},",
        o.id.0,
        o.state.name(),
        o.spec.route.name(),
        o.spec.tuner.name(),
        o.spec.size_mb,
        o.spec.priority,
        o.spec.arrival_s,
        OptNum(o.admitted_s, 3, ""),
        OptNum(o.finished_s, 3, ""),
        o.granted_streams,
        OptNum(o.warm_distance, 3, ""),
        o.best_params.nc,
        o.best_params.np,
        o.best_mbs,
        o.mean_mbs,
        o.moved_mb,
        o.epochs,
        OptNum(o.time_to_90_s, 3, ""),
    );
    if let Some(met) = o.deadline_met {
        let _ = write!(out, "{met}");
    }
    out.push('\n');
}

/// A report over `outcomes` with the default config and no supervision.
pub fn report(outcomes: Vec<JobOutcome>) -> FleetReport {
    FleetReport {
        config: FleetConfig::default(),
        submitted: outcomes.len(),
        outcomes,
        supervision: SupervisionSummary::default(),
    }
}
