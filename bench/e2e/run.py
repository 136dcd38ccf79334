#!/usr/bin/env python3
"""Builds and runs the threaded-engine end-to-end benchmark (bench_e2e).

Run from the repository root:

    python3 bench/e2e/run.py --workload hotspot_ample --seed 4242 --seconds 30 --trace 0
    python3 bench/e2e/run.py --workload all --repeat 5     # a result set, 5 seeds
    python3 bench/e2e/run.py --workload all --trace 1      # per-layer numbers
    python3 bench/e2e/run.py --smoke                       # all three at scale 0.1

The first call configures and builds bench/e2e into .bench_build/e2e (or
$CARGO_TARGET_DIR/e2e); build output goes to stderr. A single run forwards
bench_e2e's output, whose last line is the result JSON. Several runs (--workload
all, --repeat, --smoke) print each run's result and then the median and
quartiles of every metric per workload. Result files E2E_<workload>[.<i>].json
(and, traced, E2E_<workload>[.<i>].trace.json) land in --out.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ["hotspot_ample", "hotspot_small_cache", "skewed_nocache"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds bench_e2e; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no gRouting sources under {ROOT}: the benchmark builds the engine "
             "from the repository it sits in")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "e2e"
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd, "configure")
    step(["cmake", "--build", str(build_dir), "--target", "bench_e2e", "-j", "4"],
         "build")
    return build_dir / "bench_e2e"


def step(cmd, what):
    """Runs one build step in its own process group, so a timeout also stops
    the compilers it spawned."""
    try:
        proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                start_new_session=True)
    except OSError as e:
        fail(f"{what} failed: {e}")
    try:
        code = proc.wait(timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{what} did not finish within {BUILD_TIMEOUT_S} s")
    if code != 0:
        fail(f"{what} failed with exit code {code}")


def run_one(binary, workload, seed, seconds, trace, smoke, out_file, capture):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out_file)]
    if smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    result = None
    if capture:
        lines = (done.stdout or "").strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (ValueError, IndexError):
            result = None
        print(f"{workload} seed {seed} trace {trace}: exit {done.returncode}, "
              f"{lines[-1] if lines else 'no output'}")
        if done.returncode != 0:
            sys.stderr.write("\n".join(lines[-20:]) + "\n")
    return done.returncode, result


def summarize(results):
    """Median [q1, q3] of every metric per workload over the runs made."""
    print("\nsummary: median [q1, q3] over runs")
    for workload, runs in results.items():
        print(f"{workload} ({len(runs)} runs, "
              f"{sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)} operations failed)")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            unit = runs[0]["metrics"][name]["unit"]
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            print(f"  {name:32s} {statistics.median(values):14.6g} {unit:6s} "
                  f"[{q1:.6g}, {q3:.6g}]")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=4242,
                        help="seed of the first run; run i uses seed + i")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--index", type=int, default=None,
                        help="name result files E2E_<workload>.<index>.json")
    parser.add_argument("--smoke", action="store_true",
                        help="all three workloads at scale 0.1, traced and untraced")
    parser.add_argument("--out", default=str(BENCH_DIR / "results"),
                        help="directory for E2E_*.json result files")
    args = parser.parse_args()

    binary = build()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" or args.smoke else [args.workload]
    traces = [0, 1] if args.smoke else [args.trace]
    runs = [(w, t, i) for w in workloads for t in traces for i in range(args.repeat)]

    if len(runs) == 1 and args.index is None:
        # One run: bench_e2e's stdout passes through, so its result JSON is
        # the last line printed.
        code, _ = run_one(binary, args.workload, args.seed, args.seconds, args.trace,
                          args.smoke, out / f"E2E_{args.workload}.json", capture=False)
        sys.exit(code)

    results = {}
    worst = 0
    for w, t, i in runs:
        index = args.index if args.index is not None else i
        suffix = f".{index}" if args.repeat > 1 or args.index is not None else ""
        suffix += ".trace1" if args.smoke and t else ""
        code, result = run_one(binary, w, args.seed + i, args.seconds, t, args.smoke,
                               out / f"E2E_{w}{suffix}.json", capture=True)
        worst = max(worst, code)
        if result is not None:
            results.setdefault(f"{w} (trace {t})", []).append(result)
    summarize(results)
    sys.exit(worst)


if __name__ == "__main__":
    main()
