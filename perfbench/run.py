#!/usr/bin/env python3
"""Build and run the xferopt benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run. The last line of standard output is the JSON result.
  python3 perfbench/run.py --summary [--seed N] [--seconds S]
      One untraced run of every workload, printed as one table.
  python3 perfbench/run.py --steady [--runs N] [--seconds S] [--workloads a,b]
      Two sets of runs of the same build, interleaved A,B,A,B..., with
      each end-to-end metric's set medians, quartiles and difference set
      next to its bound from BENCHMARK.json.

The binary is built with cargo into $CARGO_TARGET_DIR (default
.bench_build); traced runs write spans and layer tables to .bench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s, and a first run's build within 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def cpu_steal_s():
    """Seconds of CPU time the hypervisor stole, summed over all CPUs."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def run_once(binary, workload, seed, seconds, trace, echo):
    """One benchmark run: (exit code, result dict or None, steal s, load)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    steal0 = cpu_steal_s()
    # Per-op progress goes to stderr: shown for a single run, and kept for
    # the table modes only when the run fails.
    stderr = None if echo else subprocess.PIPE
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} seed {seed} timed out", file=sys.stderr)
        return 1, None, cpu_steal_s() - steal0, os.getloadavg()[0]
    steal = cpu_steal_s() - steal0
    load = os.getloadavg()[0]
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    elif proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is not None:
        result["scale"] = calibration_scale(lines)
    return proc.returncode, result, steal, load


def calibration_scale(lines):
    """The factor the binary scaled its time metrics by (1 if not shown)."""
    for line in lines:
        if line.startswith("# calibration") and " scale " in line:
            return float(line.rsplit(" scale ", 1)[1])
    return 1.0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summary(binary, args):
    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"]]
    ok = True
    rows = []
    for w in spec["workloads"]:
        code, res, steal, load = run_once(binary, w["name"], args.seed,
                                          args.seconds, 0, echo=False)
        if res is None or code != 0 or not res["correct"]:
            ok = False
        rows.append((w["name"], res, steal, load))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    head = ["workload"] + [f"{n} ({units[n]})" for n in names]
    head += ["error_rate (ratio)", "ops", "steal_s", "load1"]
    print("  ".join(f"{h:>18}" for h in head))
    for name, res, steal, load in rows:
        if res is None:
            print(f"{name:>18}  FAILED (no result)")
            continue
        vals = [res["metrics"][n]["value"] for n in names]
        rate = res["failed"] / res["attempted"]
        cells = [name] + [f"{v:.6g}" for v in vals]
        cells += [f"{rate:.6g}", str(res["attempted"]), f"{steal:.2f}",
                  f"{load:.2f}"]
        print("  ".join(f"{c:>18}" for c in cells))
    return 0 if ok else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(binary, args):
    spec = load_spec()
    metrics = spec["end_to_end"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    ok = True
    for w in workloads:
        sets = {"A": {m["name"]: [] for m in metrics},
                "B": {m["name"]: [] for m in metrics}}
        print(f"== {w}: {args.runs} runs per set, {args.seconds} s each, "
              f"interleaved A,B")
        for i in range(args.runs):
            for s in ("A", "B") if i % 2 == 0 else ("B", "A"):
                seed = args.seed + i + (0 if s == "A" else args.runs)
                code, res, steal, load = run_once(binary, w, seed,
                                                  args.seconds, 0, echo=False)
                if res is None or code != 0 or not res["correct"]:
                    ok = False
                    print(f"  {s}{i} seed {seed}: FAILED (exit {code})")
                    continue
                for m in metrics:
                    sets[s][m["name"]].append(res["metrics"][m["name"]]["value"])
                shown = " ".join(
                    f"{m['name']}={res['metrics'][m['name']]['value']:.5g}"
                    for m in metrics)
                print(f"  {s}{i} seed {seed}: {shown} scale={res['scale']:.3f} "
                      f"steal={steal:.2f}s "
                      f"load1={load:.2f}", flush=True)
        print(f"  {'metric':<12} {'bound':>6} {'set':>3} {'q1':>11} "
              f"{'median':>11} {'q3':>11} {'iqr/med':>8}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = {}
            for s in ("A", "B"):
                vals = sets[s][name]
                if not vals:
                    continue
                q1, q2, q3 = quartiles(vals)
                meds[s] = q2
                spread = (q3 - q1) / q2
                flag = "" if name == "setup_s" or spread <= bound / 3 else \
                    (" > bound/3" if spread <= bound else " > BOUND")
                print(f"  {name:<12} {bound:>6} {s:>3} {q1:>11.5g} {q2:>11.5g} "
                      f"{q3:>11.5g} {spread:>8.3f}{flag}")
            if len(meds) == 2:
                # Signed so that positive means B is worse than A.
                sign = 1 if m["better"] == "lower" else -1
                diff = sign * (meds["B"] - meds["A"]) / meds["A"]
                flag = "" if diff <= bound else "  > BOUND"
                print(f"  {name:<12} {bound:>6}  B vs A worse by {diff:+.3f}{flag}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--summary", action="store_true")
    p.add_argument("--steady", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads")
    args = p.parse_args()
    if not (args.summary or args.steady or args.workload):
        p.error("give --workload, --summary or --steady")
    binary = build()
    if binary is None:
        return 1
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.summary:
        return summary(binary, args)
    if args.steady:
        return steady(binary, args)
    code, _, _, _ = run_once(binary, args.workload, args.seed, args.seconds,
                             args.trace, echo=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
