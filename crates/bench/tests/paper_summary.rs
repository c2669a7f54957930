//! The paper-vs-measured summary that the `all` binary prints is pinned
//! byte for byte, so a change that moves a reproduced paper number fails
//! here and must re-bless the golden on purpose:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p xferopt-bench --test paper_summary
//! ```

use std::process::Command;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/paper/all.txt"
);

#[test]
fn all_binary_summary_matches_snapshot() {
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .output()
        .expect("run the all binary");
    assert!(out.status.success(), "all exited with {}", out.status);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &out.stdout).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read(GOLDEN)
        .expect("golden snapshot missing; run with UPDATE_GOLDEN=1 to create it");
    assert!(
        out.stdout == golden,
        "the all binary's summary drifted from {GOLDEN}; if the change is \
         intentional, re-bless with UPDATE_GOLDEN=1:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
