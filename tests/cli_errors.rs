//! Bad input never reaches a panic or a hang: every invalid flag value and
//! checkpoint below must make the `xferopt` binary exit 1 with one `error:`
//! line on stderr, promptly.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Generous: every case fails during argument or config checking.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Run the binary with `args`, killing it at [`TIMEOUT`]; returns the exit
/// code and stderr. A piped `stdout` has its read end closed at once, as
/// when the reader of `xferopt ... | head` exits.
fn run(args: &[&str], stdout: Stdio) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_xferopt"))
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xferopt");
    drop(child.stdout.take());
    let start = Instant::now();
    while child.try_wait().expect("poll xferopt").is_none() {
        if start.elapsed() > TIMEOUT {
            child.kill().expect("kill xferopt");
            child.wait().expect("reap xferopt");
            panic!("`xferopt {}` ran past {TIMEOUT:?}", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect xferopt output");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_rejected(args: &[&str]) -> String {
    let (code, stderr) = run(args, Stdio::null());
    let what = format!("`xferopt {}`", args.join(" "));
    assert!(!stderr.contains("panicked"), "{what} panicked:\n{stderr}");
    assert_eq!(code, Some(1), "{what} exit code; stderr:\n{stderr}");
    let errors = stderr.lines().filter(|l| l.starts_with("error:")).count();
    assert_eq!(errors, 1, "{what} must print one error line:\n{stderr}");
    stderr
}

#[test]
fn bad_flag_values_exit_1_with_an_error_line() {
    let cases: &[&[&str]] = &[
        &["fleet", "run", "--tick", "0"],
        &["fleet", "run", "--tick", "7"],
        &["fleet", "run", "--epoch", "-5"],
        &["fleet", "run", "--horizon", "-5"],
        &["fleet", "run", "--budget", "0"],
        &["fleet", "run", "--tick", "1e-300", "--jobs", "1"],
        &["fleet", "run", "--topo", "mesh", "--topo-k", "0"],
        &["fleet", "run", "--topo", "mesh", "--outage-region", "99"],
        &["fleet", "run", "--topo", "mesh", "--campaign", "bogus"],
        &[
            "fleet",
            "run",
            "--topo",
            "mesh",
            "--campaign",
            "rolling-outage",
            "--outage-region",
            "1",
        ],
        &["fleet", "run", "--topo", "mesh", "--multipath", "0"],
        &[
            "fleet",
            "run",
            "--topo",
            "mesh",
            "--selfheal",
            "--no-reroute",
        ],
        &["fleet", "run", "--topo", "mesh", "--faults", "flaky-link"],
        &["run", "--duration", "0"],
        &["run", "--duration", "-1"],
        &["run", "--epoch", "0"],
        &["run", "--epoch", "-3"],
        &["run", "--epoch", "5000", "--duration", "100"],
        &["run", "--epoch", "1e-300", "--duration", "1"],
        &["sweep", "--duration", "0"],
        &["sweep", "--duration", "-1"],
        &["sweep", "--duration", "1e-300"],
        &["run", "--np", "0", "--duration", "60"],
        &["run", "--np", "8388608", "--duration", "60"],
        &["run", "--np", "1000000000", "--duration", "60"],
        &["run", "--np", "4294967295", "--duration", "60"],
        &["sweep", "--np", "0"],
        &["sweep", "--np", "16777216"],
        &["sweep", "--np", "4000000000"],
        &["routes", "search", "--np", "1000000000"],
        &["routes", "search", "--nc-grid", "2", "--np", "2147483648"],
        &["routes", "search", "--nc-grid", "0"],
        &["tournament", "run", "--quick", "--epoch", "1e-300"],
        &["compare", "--duration", "0"],
        &["compare", "--duration", "-1"],
        &[
            "chaos",
            "run",
            "--campaign",
            "rolling-outage",
            "--horizon",
            "0",
        ],
    ];
    for args in cases {
        assert_rejected(args);
    }
}

/// A closed stdout ends the output quietly: no panic (exit 101), exit 0.
#[test]
fn a_closed_stdout_is_not_a_panic() {
    let (code, stderr) = run(&["sweep", "--duration", "60"], Stdio::piped());
    assert!(!stderr.contains("panicked"), "sweep panicked:\n{stderr}");
    assert_eq!(code, Some(0), "sweep exit code; stderr:\n{stderr}");
}

/// A run the caps refuse, which would otherwise run for days (`--tick
/// 1e-9` is 3.6e12 ticks) or abort allocating the job table (exit 134).
/// The uncapped values are never run.
#[test]
fn tick_and_job_counts_over_the_caps_exit_1() {
    let cases: &[(&[&str], &str)] = &[
        (&["fleet", "run", "--tick", "1e-9", "--jobs", "1"], "ticks"),
        (
            &["fleet", "run", "--horizon", "inf", "--jobs", "1"],
            "ticks",
        ),
        (
            &["fleet", "run", "--horizon", "1e12", "--jobs", "1"],
            "ticks",
        ),
        (
            &[
                "chaos",
                "run",
                "--campaign",
                "rolling-outage",
                "--horizon",
                "1e12",
            ],
            "ticks",
        ),
        (&["fleet", "run", "--jobs", "99999999999"], "--jobs"),
        (&["fleet", "run", "--jobs", "1000001"], "--jobs"),
        (
            &["fleet", "run", "--jobs", "99999999999", "--topo", "mesh"],
            "--jobs",
        ),
        (
            &[
                "chaos",
                "run",
                "--campaign",
                "rolling-outage",
                "--jobs",
                "99999999999",
            ],
            "--jobs",
        ),
    ];
    for (args, names) in cases {
        let stderr = assert_rejected(args);
        assert!(
            stderr.contains("over the cap") && stderr.contains(names),
            "{args:?} must name the cap and {names}:\n{stderr}"
        );
    }
}

/// Run lengths the caps refuse: `run --duration 1e300` would run for ever,
/// and the other three abort allocating (exit 134). The uncapped values
/// are never run.
#[test]
fn run_lengths_over_the_caps_exit_1() {
    let cases: &[(&[&str], &str)] = &[
        (&["run", "--duration", "1e300"], "epochs"),
        (&["run", "--epoch", "1e-6", "--duration", "1"], "epochs"),
        (&["compare", "--duration", "1e300"], "epochs"),
        (
            &["tournament", "run", "--quick", "--epochs", "1000000000"],
            "--epochs",
        ),
        (
            &[
                "chaos",
                "run",
                "--campaign",
                "rolling-outage",
                "--seeds",
                "1000000000",
            ],
            "--seeds",
        ),
    ];
    for (args, names) in cases {
        let stderr = assert_rejected(args);
        assert!(
            stderr.contains("over the cap") && stderr.contains(names),
            "{args:?} must name the cap and {names}:\n{stderr}"
        );
    }
    assert_rejected(&[
        "chaos",
        "run",
        "--campaign",
        "rolling-outage",
        "--seed",
        "18446744073709551615",
        "--seeds",
        "2",
    ]);
}

#[test]
fn unknown_flags_exit_1_naming_the_flag() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["fleet", "run", "--jobs", "3", "--polcy", "fifo"],
            "--polcy",
        ),
        (&["fleet", "run", "--jobs", "3", "--dense"], "--dense"),
        (&["fleet", "run", "--jobs", "3", "--selfheal"], "--selfheal"),
        (&["sweep", "--duration", "10", "--csv"], "--csv"),
        (&["run", "--duration", "30", "--csv", "yes"], "--csv"),
    ];
    for (args, flag) in cases {
        let stderr = assert_rejected(args);
        assert!(
            stderr.contains(flag),
            "{args:?} must name {flag}:\n{stderr}"
        );
    }
}

/// A checkpoint path with no tick to write it at, and checkpoint ticks with
/// no path, are both refused rather than silently ignored.
#[test]
fn checkpoint_flags_without_their_partner_exit_1() {
    let cases: &[(&[&str], &[&str])] = &[
        (
            &["fleet", "run", "--jobs", "3", "--checkpoint-out", "x.ck"],
            &["--checkpoint-every", "--stop-at-tick"],
        ),
        (
            &["fleet", "run", "--jobs", "3", "--checkpoint-every", "5"],
            &["--checkpoint-out"],
        ),
        (
            &["fleet", "run", "--jobs", "3", "--stop-at-tick", "5"],
            &["--checkpoint-out"],
        ),
    ];
    for (args, names) in cases {
        let stderr = assert_rejected(args);
        for name in *names {
            assert!(
                stderr.contains(name),
                "{args:?} must name {name}:\n{stderr}"
            );
        }
    }
}

#[test]
fn checkpoints_with_an_invalid_config_exit_1() {
    // Pre-journal form (no `text_fnv`), which the parser still accepts, so
    // only config validation stands between these files and the replay.
    let header = "{\"kind\":\"fleet-checkpoint\",\"version\":1,\"tick\":0,\"t_s\":0,\
                  \"policy\":\"fifo\",\"seed\":7,\"horizon_s\":100,\"tick_s\":5,\"epoch_s\":30,\
                  \"budget\":512,\"warm\":true,\"max_match_distance\":2,\"noise_sigma\":0.05,\
                  \"audit\":true,\"shed_after_s\":300,\"jobs\":0,\"history_start_len\":0,\
                  \"history_appended\":0}\n\
                  {\"kind\":\"fleet-digest\",\"fnv\":\"0000000000000000\"}\n";
    let dir = std::env::temp_dir().join(format!("xferopt-cli-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let cases = [
        ("tick0.ckpt", header.replace("\"tick_s\":5", "\"tick_s\":0")),
        (
            "budget0.ckpt",
            header.replace("\"budget\":512", "\"budget\":0"),
        ),
        ("garbage.ckpt", "not a checkpoint\n".to_string()),
        (
            "tick1e-9.ckpt",
            header.replace(
                "\"tick_s\":5,\"epoch_s\":30",
                "\"tick_s\":1e-9,\"epoch_s\":30",
            ),
        ),
        (
            "horizon1e12.ckpt",
            header.replace("\"horizon_s\":100", "\"horizon_s\":1e12"),
        ),
        (
            "jobs1e15.ckpt",
            header.replace("\"jobs\":0", "\"jobs\":1e15"),
        ),
        (
            "noise_sigma.ckpt",
            header.replace("\"noise_sigma\":0.05", "\"noise_sigma\":0.1"),
        ),
    ];
    for (name, text) in &cases {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write checkpoint");
        let path = path.to_str().expect("temp path is UTF-8");
        let stderr = assert_rejected(&["fleet", "resume", "--checkpoint", path]);
        if name.contains("1e") {
            assert!(
                stderr.contains("over the cap"),
                "{name} must be refused by a cap:\n{stderr}"
            );
        }
        if name.starts_with("noise_sigma") {
            assert!(
                stderr.contains("'noise_sigma'"),
                "{name} must name the field:\n{stderr}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn dat_planets_with_unusable_numbers_exit_1() {
    let dir = std::env::temp_dir().join(format!("xferopt-cli-dat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let planet =
        |nic: &str, edge: &str| format!("planet x\n{nic}region a\nregion b\nedge a b {edge}\n");
    // (file, text, what stderr must name)
    let cases = [
        // Used to panic in `Link::new`.
        (
            "capacity-inf.dat",
            planet("", "inf 10 0"),
            "positive and finite",
        ),
        (
            "nic-inf.dat",
            planet("nic inf\n", "10 10 0"),
            "nic capacity",
        ),
        // Used to panic in `TopologyBuilder::with_half_streams`.
        (
            "half-streams-negative.dat",
            planet("nic 100 -1\n", "10 10 0"),
            "half_streams",
        ),
        // Used to grow the route walk until memory ran out: the 0.05 ms
        // NIC hop is lost next to 1e16 ms.
        ("latency-1e16.dat", planet("", "10 1e16 0"), "NIC hop"),
        // Used to report `no route from h:a to h:b`.
        (
            "latency-inf.dat",
            planet("", "10 inf 0"),
            "positive and finite",
        ),
    ];
    for (name, text, names) in &cases {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write .dat");
        let path = path.to_str().expect("temp path is UTF-8");
        let stderr = assert_rejected(&["routes", "search", "--dat", path]);
        assert!(
            stderr.contains(names),
            "{name} must be refused for {names:?}:\n{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
