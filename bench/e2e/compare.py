#!/usr/bin/env python3
"""Compares two result sets of the end-to-end benchmark.

    python3 bench/e2e/compare.py BASE_DIR NEW_DIR
    python3 bench/e2e/compare.py --alternate BASE_ROOT NEW_ROOT --pairs 5 --out DIR

A result set is a directory of untraced E2E_<workload>[.<i>].json files, as
`run.py --repeat N` or `run.py --index i` write them. Files with the same index
on both sides ran with the same seed and form a pair.

For each (workload, end-to-end metric) it prints both sides' median and
quartiles, the change of the median, and a verdict from the metric's bound in
BENCHMARK.json:

  worse       the new median is worse than the base median by more than the bound
  unresolved  not worse, but either side's spread (q3 - q1 over the median) is
              wider than the bound, and not every new run beats every base run
  better      every new run beats every base run; or the new side wins at least
              9 in 10 pairs and the medians differ by more than the base side's
              quartile distance
  same        otherwise

The exit status is 1 when any verdict is "worse".

--alternate first runs `bench/e2e/run.py --workload all` in both checkouts for
every pair (seed --seed + i on both sides), alternating which side runs first,
writing DIR/base and DIR/new; then it compares them.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def load_set(directory):
    """{workload: {index: {metric: value}}} from untraced result files."""
    runs = {}
    for path in sorted(Path(directory).glob("E2E_*.json")):
        if path.name.endswith(".trace.json"):
            continue
        data = json.loads(path.read_text())
        if data.get("trace") or data.get("smoke"):
            continue
        parts = path.name[len("E2E_"):-len(".json")].split(".")
        index = int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else 0
        values = {name: m["value"] for name, m in data["metrics"].items()}
        runs.setdefault(data["workload"], {})[index] = values
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, new, base_pairs, new_pairs, bound, lower_is_better):
    """base/new: all runs per side; *_pairs: the seed-matched runs, in order."""
    sign = 1.0 if lower_is_better else -1.0  # positive = worse
    b_med, n_med = statistics.median(base), statistics.median(new)
    worse_by = sign * (n_med - b_med) / b_med if b_med else 0.0
    if worse_by > bound:
        return "worse"
    better_all = all(sign * (n - b) < 0 for n in new for b in base)
    spreads = []
    for side, med in ((base, b_med), (new, n_med)):
        q1, q3 = quartiles(side)
        spreads.append((q3 - q1) / abs(med) if med else math.inf)
    if max(spreads) > bound:
        return "better" if better_all else "unresolved"
    wins = sum(1 for b, n in zip(base_pairs, new_pairs) if sign * (n - b) < 0)
    b_q1, b_q3 = quartiles(base)
    if better_all or (base_pairs and wins >= 0.9 * len(base_pairs) and
                      sign * (b_med - n_med) > b_q3 - b_q1):
        return "better"
    return "same"


def compare(base_dir, new_dir):
    bounds = load_bounds()
    base_set, new_set = load_set(base_dir), load_set(new_dir)
    any_worse = False
    print(f"{'workload':20s} {'metric':15s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'change':>8s}  verdict")
    for workload in sorted(set(base_set) | set(new_set)):
        base_runs, new_runs = base_set.get(workload, {}), new_set.get(workload, {})
        if not base_runs or not new_runs:
            print(f"{workload:20s} missing on one side")
            any_worse = True
            continue
        common = sorted(set(base_runs) & set(new_runs))
        for name, spec in bounds.items():
            base = [r[name] for r in base_runs.values() if name in r]
            new = [r[name] for r in new_runs.values() if name in r]
            if not base or not new:
                print(f"{workload:20s} {name:15s} missing on one side")
                any_worse = True
                continue
            base_pairs = [base_runs[i][name] for i in common]
            new_pairs = [new_runs[i][name] for i in common]
            v = verdict(base, new, base_pairs, new_pairs, spec["bound"],
                        spec["better"] == "lower")
            any_worse = any_worse or v == "worse"
            b_med, n_med = statistics.median(base), statistics.median(new)
            change = (n_med - b_med) / b_med * 100.0 if b_med else 0.0
            cells = []
            for side, med in ((base, b_med), (new, n_med)):
                q1, q3 = quartiles(side)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(side)}")
            print(f"{workload:20s} {name:15s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{change:+7.2f}%  {v}")
    return 1 if any_worse else 0


def alternate(base_root, new_root, pairs, seed, out):
    sides = [("base", Path(base_root).resolve()), ("new", Path(new_root).resolve())]
    for i in range(pairs):
        for name, root in sides if i % 2 == 0 else reversed(sides):
            print(f"pair {i}: {name} ({root})", file=sys.stderr)
            done = subprocess.run(
                [sys.executable, "bench/e2e/run.py", "--workload", "all", "--seed",
                 str(seed + i), "--index", str(i), "--out", str(out / name)],
                cwd=root, stdout=sys.stderr)
            if done.returncode != 0:
                print(f"compare.py: {name} pair {i} failed", file=sys.stderr)
                return 2
    return compare(out / "base", out / "new")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="base result dir (or checkout with --alternate)")
    parser.add_argument("new", help="new result dir (or checkout with --alternate)")
    parser.add_argument("--alternate", action="store_true",
                        help="run both checkouts pair by pair first")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--out", default=str(ROOT / "bench/e2e/results/compare"))
    args = parser.parse_args()
    if args.alternate:
        sys.exit(alternate(args.base, args.new, args.pairs, args.seed,
                           Path(args.out).resolve()))
    sys.exit(compare(args.base, args.new))


if __name__ == "__main__":
    main()
