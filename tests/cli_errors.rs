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
        &["sweep", "--np", "0"],
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
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
