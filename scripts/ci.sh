#!/usr/bin/env bash
# Local CI gate: build, test, and lint the whole workspace offline, then
# run the timing-ratio gates of tests/perf_gates.rs in release.
#
# Usage: scripts/ci.sh
#
# The workspace vendors all external dependencies under vendor/, so the
# entire pipeline must succeed with the network disabled. Golden snapshots
# (tests/golden/) are compared byte-for-byte; re-bless with
#   UPDATE_GOLDEN=1 cargo test --test determinism golden_fault_world
#   UPDATE_GOLDEN=1 cargo test --test telemetry
#   UPDATE_GOLDEN=1 cargo test --test decisions
#   UPDATE_GOLDEN=1 cargo test --test tournament
#   UPDATE_GOLDEN=1 cargo test --test supervision golden_lifecycle_paths_match_snapshot
#   UPDATE_GOLDEN=1 cargo test -p xferopt-bench --test paper_summary
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --workspace --release --locked"
cargo build --workspace --release --locked

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps --locked"
# A deleted item must not leave a dangling intra-doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked

echo "==> stripe digest wire compatibility at the full 256 MiB put size (release)"
cargo test -q --release -p xferopt-gridftp --lib -- --ignored \
  expected_digest_matches_scalar_fold_at_full_size

echo "==> all-core expected digest is >= 1.4x the 1-thread fold at 256 MiB (release; skipped on 1 core)"
cargo test -q --release -p xferopt-gridftp --lib -- --ignored --nocapture \
  expected_digest_uses_every_core_at_full_size

echo "==> a full 256 MiB RETR verifies against the server's 226 (release)"
cargo test -q --release -p xferopt-gridftp --lib -- --ignored \
  get_verifies_at_full_size

echo "==> staged receive fold equals the scalar fold over a full 256 MiB stream (release)"
cargo test -q --release -p xferopt-gridftp --lib -- --ignored \
  staged_fold_equals_scalar_fold_over_a_full_put_stream

echo "==> the stripe digest misses none of the 504 faults of the flipped-byte grid (release)"
cargo test -q --release --test regressions -- --ignored --nocapture \
  the_full_fault_grid_misses_no_fault

echo "==> GridFTP end to end (shaped put sweep, resume from a marker, RETR)"
GRIDFTP_OUT="$(cargo run -q --release --example gridftp_transfer)"
echo "$GRIDFTP_OUT"
if grep -q 'verified=false' <<< "$GRIDFTP_OUT"; then
  echo "a GridFTP transfer did not verify"; exit 1
fi

echo "==> real-socket tuner loops (compass tuner over the loopback harness, realfig)"
cargo run -q --release --example loopback_transfer
cargo run -q --release -p xferopt-bench --bin realfig -- --epochs 2

echo "==> telemetry suite (golden snapshots + determinism)"
cargo test -q --test telemetry
cargo test -q -p xferopt-tuners --test audit_sequences

echo "==> fleet smoke (orchestrator determinism end-to-end)"
cargo test -q --test fleet
FLEET_TMP="$(mktemp -d)"
trap 'rm -rf "$FLEET_TMP"' EXIT
./target/release/xferopt fleet run --jobs 5 --seed 7 --policy sjf \
  --report-out "$FLEET_TMP/a.txt"
./target/release/xferopt fleet run --jobs 5 --seed 7 --policy sjf \
  --report-out "$FLEET_TMP/b.txt"
diff "$FLEET_TMP/a.txt" "$FLEET_TMP/b.txt" \
  || { echo "fleet run is not deterministic"; exit 1; }
./target/release/xferopt fleet run --jobs 5 --seed 7 --policy wfair \
  --report-out "$FLEET_TMP/wa.txt"
./target/release/xferopt fleet run --jobs 5 --seed 7 --policy wfair \
  --report-out "$FLEET_TMP/wb.txt"
diff "$FLEET_TMP/wa.txt" "$FLEET_TMP/wb.txt" \
  || { echo "fleet run (wfair) is not deterministic"; exit 1; }
./target/release/xferopt fleet run --jobs 12 --seed 7 --policy sjf \
  --report-out "$FLEET_TMP/golden.txt"
diff "$FLEET_TMP/golden.txt" tests/golden/fleet/report.txt \
  || { echo "fleet run report drifted from golden"; exit 1; }
./target/release/xferopt fleet run --jobs 12 --seed 7 --policy sjf --csv \
  --report-out "$FLEET_TMP/golden.csv"
diff "$FLEET_TMP/golden.csv" tests/golden/fleet/report.csv \
  || { echo "fleet run CSV drifted from golden"; exit 1; }
./target/release/xferopt fleet run --jobs 12 --seed 7 --horizon 7200 --faults flaky-link \
  --report-out "$FLEET_TMP/chaos-decisions.txt" --decisions-out "$FLEET_TMP/chaos-decisions.jsonl"
cmp "$FLEET_TMP/chaos-decisions.jsonl" tests/golden/decisions/fleet_chaos.jsonl \
  || { echo "chaos fleet decisions drifted from golden"; exit 1; }

echo "==> shard-determinism smoke (--shards N is a byte-level no-op)"
cargo test -q --test shard_equiv
./target/release/xferopt fleet run --jobs 5 --seed 7 --policy sjf \
  --shards 4 --report-out "$FLEET_TMP/s4a.txt"
./target/release/xferopt fleet run --jobs 5 --seed 7 --policy sjf \
  --shards 4 --report-out "$FLEET_TMP/s4b.txt"
diff "$FLEET_TMP/s4a.txt" "$FLEET_TMP/s4b.txt" \
  || { echo "sharded fleet run is not deterministic"; exit 1; }
diff "$FLEET_TMP/a.txt" "$FLEET_TMP/s4a.txt" \
  || { echo "--shards 4 diverged from the single-threaded reference"; exit 1; }
for n in 1 8; do
  ./target/release/xferopt fleet run --jobs 9 --seed 7 --policy sjf \
    --sites 3 --shards "$n" --faults flaky-link --report-out "$FLEET_TMP/m$n.txt" \
    --telemetry-out "$FLEET_TMP/m$n-tel.jsonl" --supervision-out "$FLEET_TMP/m$n-sup.jsonl"
done
for f in .txt -tel.jsonl -sup.jsonl; do
  diff "$FLEET_TMP/m1$f" "$FLEET_TMP/m8$f" \
    || { echo "multi-site --shards 8 diverged from --shards 1 (m*$f)"; exit 1; }
done

echo "==> timing-ratio gates (release): cached reads, churn re-solve, admission vs queue depth"
cargo test -q --release --test perf_gates -- --ignored --test-threads 1 --nocapture

echo "==> supervision suite (chaos determinism + golden chaos snapshot)"
cargo test -q --test supervision

echo "==> chaos smoke (--faults produces supervision events)"
./target/release/xferopt fleet run --jobs 6 --seed 7 --horizon 7200 \
  --faults flaky-link --report-out "$FLEET_TMP/chaos.txt" \
  --supervision-out "$FLEET_TMP/chaos.jsonl"
grep -q 'fleet_supervision_total' "$FLEET_TMP/chaos.jsonl" \
  || { echo "chaos run emitted no supervision metrics"; exit 1; }

echo "==> crash/resume gate (kill at tick 70, resume byte-identical)"
./target/release/xferopt fleet run --jobs 6 --seed 7 --horizon 7200 \
  --faults flaky-link --history "$FLEET_TMP/hist-crash" \
  --checkpoint-out "$FLEET_TMP/ck.jsonl" --checkpoint-every 20 \
  --stop-at-tick 70
./target/release/xferopt fleet resume --checkpoint "$FLEET_TMP/ck.jsonl" \
  --history "$FLEET_TMP/hist-crash" --report-out "$FLEET_TMP/resumed.txt"
./target/release/xferopt fleet run --jobs 6 --seed 7 --horizon 7200 \
  --faults flaky-link --history "$FLEET_TMP/hist-full" \
  --report-out "$FLEET_TMP/full.txt"
diff "$FLEET_TMP/full.txt" "$FLEET_TMP/resumed.txt" \
  || { echo "resume diverged from the uninterrupted run"; exit 1; }
diff "$FLEET_TMP/hist-crash/history.jsonl" "$FLEET_TMP/hist-full/history.jsonl" \
  || { echo "resume diverged in the history file"; exit 1; }
# A second resume onto the same history cuts the first resume's records
# past the checkpoint instead of appending them twice.
./target/release/xferopt fleet resume --checkpoint "$FLEET_TMP/ck.jsonl" \
  --history "$FLEET_TMP/hist-crash" --report-out "$FLEET_TMP/resumed-again.txt"
diff "$FLEET_TMP/full.txt" "$FLEET_TMP/resumed-again.txt" \
  || { echo "a second resume diverged from the uninterrupted run"; exit 1; }
diff "$FLEET_TMP/hist-crash/history.jsonl" "$FLEET_TMP/hist-full/history.jsonl" \
  || { echo "a second resume diverged in the history file"; exit 1; }

echo "==> multi-site crash/resume gate (kill under --shards 2, resume under --shards 1)"
./target/release/xferopt fleet run --jobs 12 --seed 7 --sites 3 --shards 2 \
  --horizon 7200 --history "$FLEET_TMP/hist-ms-crash" \
  --checkpoint-out "$FLEET_TMP/ck-ms.jsonl" --checkpoint-every 20 \
  --stop-at-tick 70
./target/release/xferopt fleet resume --checkpoint "$FLEET_TMP/ck-ms.jsonl" \
  --shards 1 --history "$FLEET_TMP/hist-ms-crash" \
  --report-out "$FLEET_TMP/ms-resumed.txt"
./target/release/xferopt fleet run --jobs 12 --seed 7 --sites 3 \
  --horizon 7200 --history "$FLEET_TMP/hist-ms-full" \
  --report-out "$FLEET_TMP/ms-full.txt"
diff "$FLEET_TMP/ms-full.txt" "$FLEET_TMP/ms-resumed.txt" \
  || { echo "multi-site resume diverged from the uninterrupted run"; exit 1; }
diff "$FLEET_TMP/hist-ms-crash/history.jsonl" "$FLEET_TMP/hist-ms-full/history.jsonl" \
  || { echo "multi-site resume diverged in the history file"; exit 1; }

echo "==> multipath self-healing crash/resume gate (quarantine, migrate, shed under resume)"
LIFECYCLE=(--topo mesh --jobs 120 --seed 7 --horizon 7200 --campaign flapping-links
  --selfheal --multipath 2)
./target/release/xferopt fleet run "${LIFECYCLE[@]}" --history "$FLEET_TMP/hist-mp-crash" \
  --checkpoint-out "$FLEET_TMP/ck-mp.jsonl" --checkpoint-every 40 --stop-at-tick 150
./target/release/xferopt fleet resume --checkpoint "$FLEET_TMP/ck-mp.jsonl" \
  --shards 2 --history "$FLEET_TMP/hist-mp-crash" --report-out "$FLEET_TMP/mp-resumed.txt"
./target/release/xferopt fleet run "${LIFECYCLE[@]}" --history "$FLEET_TMP/hist-mp-full" \
  --report-out "$FLEET_TMP/mp-full.txt"
diff "$FLEET_TMP/mp-full.txt" "$FLEET_TMP/mp-resumed.txt" \
  || { echo "multipath self-healing resume diverged from the uninterrupted run"; exit 1; }
diff "$FLEET_TMP/hist-mp-crash/history.jsonl" "$FLEET_TMP/hist-mp-full/history.jsonl" \
  || { echo "multipath self-healing resume diverged in the history file"; exit 1; }

echo "==> end-of-run checkpoint gate (a checkpoint of a finished run resumes)"
./target/release/xferopt fleet run --jobs 40 --seed 7 --horizon 300 \
  --checkpoint-out "$FLEET_TMP/ck-end.jsonl" --stop-at-tick 100000
./target/release/xferopt fleet resume --checkpoint "$FLEET_TMP/ck-end.jsonl" \
  --report-out "$FLEET_TMP/end-resumed.txt"
./target/release/xferopt fleet run --jobs 40 --seed 7 --horizon 300 \
  --report-out "$FLEET_TMP/end-full.txt"
diff "$FLEET_TMP/end-full.txt" "$FLEET_TMP/end-resumed.txt" \
  || { echo "end-of-run checkpoint resume diverged"; exit 1; }
./target/release/xferopt fleet run --topo mesh --jobs 2 --campaign rolling-outage \
  --selfheal --checkpoint-out "$FLEET_TMP/ck-end-mesh.jsonl" --stop-at-tick 100
./target/release/xferopt fleet resume --checkpoint "$FLEET_TMP/ck-end-mesh.jsonl" \
  --shards 2 --report-out "$FLEET_TMP/end-mesh-resumed.txt"
./target/release/xferopt fleet run --topo mesh --jobs 2 --campaign rolling-outage \
  --selfheal --report-out "$FLEET_TMP/end-mesh-full.txt"
diff "$FLEET_TMP/end-mesh-full.txt" "$FLEET_TMP/end-mesh-resumed.txt" \
  || { echo "end-of-run planet checkpoint resume diverged"; exit 1; }

echo "==> version-1 journal gate (a journal written before the workload block resumes)"
# tests/golden/fleet/v1_journal.jsonl was written by a binary that repeated
# the workload in every block; its report is that binary's uninterrupted run.
./target/release/xferopt fleet resume --checkpoint tests/golden/fleet/v1_journal.jsonl \
  --report-out "$FLEET_TMP/v1-resumed.txt"
./target/release/xferopt fleet run --jobs 6 --seed 7 --sites 2 --horizon 7200 \
  --faults flaky-link --report-out "$FLEET_TMP/v1-full.txt"
diff tests/golden/fleet/v1_journal_report.txt "$FLEET_TMP/v1-resumed.txt" \
  || { echo "the version-1 journal resumed to a different report"; exit 1; }
diff "$FLEET_TMP/v1-full.txt" "$FLEET_TMP/v1-resumed.txt" \
  || { echo "the version-1 journal diverged from the uninterrupted run"; exit 1; }

echo "==> tournament smoke (quick matrix, golden leaderboard diff)"
cargo test -q --test tournament
# Quick-mode matrix (capped epochs for the CI budget) must reproduce the
# committed golden snapshot byte for byte from the CLI too.
./target/release/xferopt tournament run --quick --seed 7 \
  --report-out "$FLEET_TMP/tour.txt" --jsonl-out "$FLEET_TMP/tour.jsonl"
diff "$FLEET_TMP/tour.txt" tests/golden/tournament/leaderboard.txt \
  || { echo "tournament leaderboard drifted from golden"; exit 1; }
./target/release/xferopt tournament report --in "$FLEET_TMP/tour.jsonl" \
  > "$FLEET_TMP/tour-replay.txt"
diff "$FLEET_TMP/tour-replay.txt" tests/golden/tournament/leaderboard.txt \
  || { echo "tournament report replay drifted from golden"; exit 1; }
head -c 80 "$FLEET_TMP/tour.jsonl" > "$FLEET_TMP/tour-trunc.jsonl"
if ./target/release/xferopt tournament report --in "$FLEET_TMP/tour-trunc.jsonl" \
  >/dev/null 2>&1; then
  echo "tournament report accepted a truncated file"; exit 1
fi

echo "==> route-search smoke (planet search + placement determinism)"
cargo test -q --test routes
./target/release/xferopt routes search --preset mesh \
  --out "$FLEET_TMP/placement-a.jsonl" > "$FLEET_TMP/routes-a.txt"
./target/release/xferopt routes search --preset mesh \
  --out "$FLEET_TMP/placement-b.jsonl" > "$FLEET_TMP/routes-b.txt"
diff "$FLEET_TMP/routes-a.txt" "$FLEET_TMP/routes-b.txt" \
  || { echo "routes search leaderboard is not deterministic"; exit 1; }
diff "$FLEET_TMP/placement-a.jsonl" "$FLEET_TMP/placement-b.jsonl" \
  || { echo "routes search placement is not deterministic"; exit 1; }
diff "$FLEET_TMP/routes-a.txt" tests/golden/routes/leaderboard.txt \
  || { echo "routes search leaderboard drifted from golden"; exit 1; }
diff "$FLEET_TMP/placement-a.jsonl" tests/golden/routes/placement.jsonl \
  || { echo "routes search placement drifted from golden"; exit 1; }
for planet in hub-spoke asymmetric ring5; do
  if [ "$planet" = ring5 ]; then
    source_args=(--dat tests/golden/routes/ring5.dat)
  else
    source_args=(--preset "$planet")
  fi
  ./target/release/xferopt routes search "${source_args[@]}" \
    --out "$FLEET_TMP/placement-$planet.jsonl" > "$FLEET_TMP/routes-$planet.txt"
  diff "$FLEET_TMP/routes-$planet.txt" "tests/golden/routes/$planet.leaderboard.txt" \
    || { echo "routes search $planet leaderboard drifted from golden"; exit 1; }
  diff "$FLEET_TMP/placement-$planet.jsonl" "tests/golden/routes/$planet.placement.jsonl" \
    || { echo "routes search $planet placement drifted from golden"; exit 1; }
done
timeout 60 ./target/release/xferopt routes search --preset mesh --passes 100000000 \
  > "$FLEET_TMP/routes-passes.txt" \
  || { echo "routes search did not stop at its fixed point"; exit 1; }
diff "$FLEET_TMP/routes-passes.txt" tests/golden/routes/leaderboard.txt \
  || { echo "routes search past its fixed point drifted from golden"; exit 1; }

echo "==> strict JSON gate (every JSONL line the smokes wrote parses in Python)"
printf 'planet q"p\nregion a"x\nregion b\nedge a"x b 20 1000 0\n' > "$FLEET_TMP/quoted.dat"
./target/release/xferopt routes search --dat "$FLEET_TMP/quoted.dat" \
  --out "$FLEET_TMP/placement-quoted.jsonl" > /dev/null
python3 -c '
import json, sys
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            try:
                json.loads(line)
            except ValueError as e:
                sys.exit(f"{path}:{n}: not JSON: {e}")
' "$FLEET_TMP/placement-a.jsonl" "$FLEET_TMP/placement-quoted.jsonl" "$FLEET_TMP/tour.jsonl" \
  "$FLEET_TMP/ck.jsonl" "$FLEET_TMP/ck-ms.jsonl" "$FLEET_TMP/ck-mp.jsonl" \
  "$FLEET_TMP/ck-end.jsonl" "$FLEET_TMP/ck-end-mesh.jsonl" \
  "$FLEET_TMP"/hist-*/history.jsonl "$FLEET_TMP/chaos.jsonl" \
  || { echo "a JSONL output is not strict JSON"; exit 1; }

echo "==> regional-outage re-route gate (topo fleet moves more bytes rerouting)"
./target/release/xferopt fleet run --topo mesh --jobs 20 --seed 7 \
  --outage-region 1 --report-out "$FLEET_TMP/topo-reroute.txt"
./target/release/xferopt fleet run --topo mesh --jobs 20 --seed 7 \
  --outage-region 1 --no-reroute --report-out "$FLEET_TMP/topo-fixed.txt"
grep -q ' reroutes=' "$FLEET_TMP/topo-reroute.txt" \
  || { echo "outage run never re-routed a job"; exit 1; }
RMOVED="$(awk '/^summary/ {for (i=1;i<=NF;i++) if ($i ~ /^moved_mb=/) \
  {sub(/^moved_mb=/, "", $i); print $i}}' "$FLEET_TMP/topo-reroute.txt")"
FMOVED="$(awk '/^summary/ {for (i=1;i<=NF;i++) if ($i ~ /^moved_mb=/) \
  {sub(/^moved_mb=/, "", $i); print $i}}' "$FLEET_TMP/topo-fixed.txt")"
awk -v r="$RMOVED" -v f="$FMOVED" 'BEGIN { exit !(r > f) }' \
  || { echo "re-routing (${RMOVED} MB) did not beat fixed routes (${FMOVED} MB)"; exit 1; }
echo "    outage mesh: rerouted ${RMOVED} MB vs fixed ${FMOVED} MB"

echo "==> chaos-campaign gate (self-healing control plane scorecard)"
cargo test -q --test chaos
./target/release/xferopt chaos run --campaign rolling-outage \
  --out "$FLEET_TMP/scorecard.txt"
diff "$FLEET_TMP/scorecard.txt" tests/golden/chaos/rolling_outage_scorecard.txt \
  || { echo "chaos scorecard drifted from golden"; exit 1; }
./target/release/xferopt chaos run --campaign rolling-outage \
  --out "$FLEET_TMP/scorecard-b.txt"
diff "$FLEET_TMP/scorecard.txt" "$FLEET_TMP/scorecard-b.txt" \
  || { echo "chaos scorecard is not deterministic"; exit 1; }
./target/release/xferopt chaos run --campaign rolling-outage --shards 4 \
  --out "$FLEET_TMP/scorecard-s4.txt"
diff <(sed 's/ shards=[0-9]*//' "$FLEET_TMP/scorecard.txt") \
     <(sed 's/ shards=[0-9]*//' "$FLEET_TMP/scorecard-s4.txt") \
  || { echo "chaos scorecard diverged under --shards 4"; exit 1; }
# Resilience invariants: completed jobs never lose bytes, retries stay
# within the governor's budget, and the self-healing fleet moves strictly
# more MB than both baselines.
awk '/^total / { for (i=1;i<=NF;i++) {
       if ($i ~ /^bytes_lost=/) { sub(/^bytes_lost=/, "", $i); if ($i+0 != 0) exit 1 } } }' \
  "$FLEET_TMP/scorecard.txt" \
  || { echo "chaos campaign lost bytes"; exit 1; }
awk '/^total / { u=b=0; for (i=1;i<=NF;i++) {
       if ($i ~ /^retries_used=/) { sub(/^retries_used=/, "", $i); u=$i+0 }
       if ($i ~ /^budget=/)       { sub(/^budget=/, "", $i);       b=$i+0 } }
     if (u > b) exit 1 }' "$FLEET_TMP/scorecard.txt" \
  || { echo "chaos campaign blew its retry budget"; exit 1; }
SH_MOVED="$(awk '/^total variant=selfheal / {for (i=1;i<=NF;i++) if ($i ~ /^moved_mb=/) \
  {sub(/^moved_mb=/, "", $i); print $i}}' "$FLEET_TMP/scorecard.txt")"
NR_MOVED="$(awk '/^total variant=no-reroute / {for (i=1;i<=NF;i++) if ($i ~ /^moved_mb=/) \
  {sub(/^moved_mb=/, "", $i); print $i}}' "$FLEET_TMP/scorecard.txt")"
ST_MOVED="$(awk '/^total variant=static / {for (i=1;i<=NF;i++) if ($i ~ /^moved_mb=/) \
  {sub(/^moved_mb=/, "", $i); print $i}}' "$FLEET_TMP/scorecard.txt")"
awk -v s="$SH_MOVED" -v n="$NR_MOVED" -v t="$ST_MOVED" \
  'BEGIN { exit !(s > n && s > t) }' \
  || { echo "selfheal (${SH_MOVED} MB) did not beat baselines (${NR_MOVED}/${ST_MOVED} MB)"; exit 1; }
echo "    rolling outage: selfheal ${SH_MOVED} MB vs no-reroute ${NR_MOVED} MB, static ${ST_MOVED} MB"

echo "==> torn-journal salvage gate (resume falls back to the intact prefix)"
./target/release/xferopt fleet run --jobs 5 --seed 9 \
  --checkpoint-out "$FLEET_TMP/ck-journal.jsonl" --checkpoint-every 10 \
  --stop-at-tick 35
head -c "$(( $(wc -c < "$FLEET_TMP/ck-journal.jsonl") - 120 ))" \
  "$FLEET_TMP/ck-journal.jsonl" > "$FLEET_TMP/ck-torn.jsonl"
./target/release/xferopt fleet resume --checkpoint "$FLEET_TMP/ck-torn.jsonl" \
  --report-out "$FLEET_TMP/salvaged.txt" 2> "$FLEET_TMP/salvage.err"
grep -q 'salvaged_ticks=' "$FLEET_TMP/salvage.err" \
  || { echo "torn journal resumed without reporting salvage"; exit 1; }
./target/release/xferopt fleet run --jobs 5 --seed 9 \
  --report-out "$FLEET_TMP/journal-full.txt"
diff "$FLEET_TMP/journal-full.txt" "$FLEET_TMP/salvaged.txt" \
  || { echo "salvaged resume diverged from the uninterrupted run"; exit 1; }

echo "==> one workload block per journal (every checkpoint after the first names it)"
for ck in "$FLEET_TMP"/ck*.jsonl; do
  n="$(grep -c '^{"kind":"fleet-workload"' "$ck" || true)"
  [ "$n" = 1 ] || { echo "$ck holds $n fleet-workload lines, want 1"; exit 1; }
done

echo "==> tuner domain-safety proptests (new tuner kinds)"
cargo test -q -p xferopt-tuners fuzz_new_tuner_kinds_respect_restricted_domains
cargo test -q -p xferopt-tuners fuzz_every_tuner_domain_safety

echo "==> perfbench builds against this tree and reproduces its recorded digests (release)"
# perfbench is a workspace of its own whose lock file cargo rewrites when
# it resolves; keep the committed lock as it is, whatever this step does.
cp perfbench/Cargo.lock "$FLEET_TMP/perfbench-Cargo.lock"
trap 'cp "$FLEET_TMP/perfbench-Cargo.lock" perfbench/Cargo.lock; rm -rf "$FLEET_TMP"' EXIT
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI green."
