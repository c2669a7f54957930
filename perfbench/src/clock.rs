//! Process clocks and resource readings the benchmark reports.

use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed by every thread of this process so far, seconds.
///
/// `std` has no process CPU clock, and `/proc/self/stat` counts in 10 ms
/// ticks, too coarse for one fleet run; the C library's
/// `CLOCK_PROCESS_CPUTIME_ID` has nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark builds for), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is supported on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU time of one measured interval.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU seconds (all threads).
    pub cpu_s: f64,
}

impl std::ops::Add for Sample {
    type Output = Sample;

    fn add(self, o: Sample) -> Sample {
        Sample {
            wall_s: self.wall_s + o.wall_s,
            cpu_s: self.cpu_s + o.cpu_s,
        }
    }
}

/// Time `f` on the wall clock and the process CPU clock.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Sample) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    (out, Sample { wall_s, cpu_s })
}

/// The number in field `key` (e.g. `VmHWM:`) of `/proc/self/status`.
fn status_field(key: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("no {key} line in /proc/self/status"))
}

/// Peak resident set of this process (`VmHWM`) since it started,
/// megabytes.
///
/// # Errors
/// Returns a message when `/proc/self/status` cannot be read or parsed.
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(status_field("VmHWM:")? / 1024.0)
}

/// Threads of this process that have not yet exited.
///
/// # Errors
/// Returns a message when `/proc/self/status` cannot be read or parsed.
pub fn thread_count() -> Result<usize, String> {
    Ok(status_field("Threads:")? as usize)
}

/// Wait up to `limit` for this process to be back to `baseline` threads.
///
/// # Errors
/// Returns a message naming the threads still running after `limit`.
pub fn wait_for_threads(baseline: usize, limit: Duration) -> Result<(), String> {
    let t0 = Instant::now();
    loop {
        let n = thread_count()?;
        if n <= baseline {
            return Ok(());
        }
        if t0.elapsed() >= limit {
            return Err(format!(
                "{n} threads still running after {limit:?}, {baseline} expected between ops"
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Time of [`Calibrator::measure`] on one and on two threads, on the quiet
/// 2-core VM the benchmark was tuned on, seconds: the nominal machine speed
/// the time metrics are scaled to.
pub const CALIBRATION_NOMINAL_S: [f64; 2] = [0.0095, 0.0145];

/// Slots in the calibration kernel's hash table (a power of two).
const TABLE_SLOTS: usize = 1 << 14;

/// A fixed, std-only kernel (hash-table inserts, a sort and string
/// formatting, like the simulator's own mix) timed on several threads at
/// once. It gauges how fast this shared machine runs right now. Its buffers
/// are allocated once and reused, so the program's heap state cannot change
/// its speed, and the program under test never runs inside it.
pub struct Calibrator {
    scratch: Vec<Scratch>,
}

struct Scratch {
    table: Vec<u64>,
    keys: Vec<u64>,
    text: String,
}

impl Calibrator {
    /// A calibrator for `threads` threads (at least one).
    pub fn new(threads: usize) -> Self {
        let scratch = (0..threads.max(1))
            .map(|_| Scratch {
                table: vec![0; TABLE_SLOTS],
                keys: Vec::with_capacity(TABLE_SLOTS),
                text: String::with_capacity(1 << 16),
            })
            .collect();
        Calibrator { scratch }
    }

    /// Wall seconds the kernel takes with every thread running it at once.
    pub fn measure(&mut self) -> f64 {
        let t0 = Instant::now();
        let (first, rest) = self
            .scratch
            .split_first_mut()
            .expect("a calibrator has at least one thread");
        std::thread::scope(|s| {
            for scratch in rest {
                s.spawn(move || calibration_kernel(scratch));
            }
            calibration_kernel(first);
        });
        t0.elapsed().as_secs_f64()
    }
}

fn calibration_kernel(s: &mut Scratch) {
    for round in 0..8 {
        calibration_round(s, round);
    }
}

fn calibration_round(s: &mut Scratch, round: u64) {
    use std::fmt::Write as _;
    s.table.fill(0);
    let mask = TABLE_SLOTS - 1;
    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ round;
    for _ in 0..60_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = (x % 100_000) | 1;
        let mut slot = key as usize & mask;
        // Linear probing; a full neighbourhood overwrites its last slot.
        for _ in 0..8 {
            if s.table[slot] == 0 || s.table[slot] == key {
                break;
            }
            slot = (slot + 1) & mask;
        }
        s.table[slot] = key;
    }
    s.keys.clear();
    s.keys.extend(s.table.iter().copied().filter(|&k| k != 0));
    s.keys.sort_unstable_by(|a, b| b.cmp(a));
    s.text.clear();
    for k in s.keys.iter().take(6_000) {
        let _ = write!(s.text, "{k},");
    }
    std::hint::black_box((s.keys.len(), s.text.len()));
}
