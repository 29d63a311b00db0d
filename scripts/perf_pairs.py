#!/usr/bin/env python3
"""Alternated perfbench pairs of two source trees: a change against its parent.

    python3 scripts/perf_pairs.py PARENT_TREE CHANGE_TREE [--pairs 10] [--seed 1]

Each pair runs `perfbench/run.py --trace 0` once in each tree on every
workload of the change tree's BENCHMARK.json, for its run_seconds, both with
the pair's own seed (seed, seed + 1, ...), the parent first in even pairs and
the change first in odd ones, so that the drift of a shared machine falls on
both sides alike.
PYTHONDONTWRITEBYTECODE is unset, so each tree caches its bytecode as a
plain perfbench run does.  For every workload and end-to-end metric it prints
both medians, in how many pairs the change was better, and the parent's
interquartile range; whether every run read "correct": true with no failed
run; and on which metrics the change meets the bar a claimed gain must meet:
better in at least 9 of 10 pairs, and a median better than the parent's by
more than the parent's interquartile range.  Each run's end-to-end metrics
go to stderr as it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The last stdout line of one perfbench run in tree, or None if it is not JSON."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    try:
        return json.loads(done.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{tree} {workload} seed {seed}: exit {done.returncode}, no result line\n"
              f"{done.stderr[-2000:]}", file=sys.stderr)
        return None


def _compare(runs: dict, metric: dict):
    """The parent's and the change's values of metric in the complete pairs, in
    how many of them the change was better, and the parent's IQR; or None."""
    values = [(p["metrics"][metric["name"]]["value"], c["metrics"][metric["name"]]["value"])
              for p, c in zip(*(runs[s] for s in SIDES)) if p and c]
    if not values:
        return None
    parent, change = zip(*values)
    sign = 1 if metric["better"] == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in values)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (0, 0, 0)
    return parent, change, wins, q3 - q1


def summary(runs: dict, metrics: list) -> list[str]:
    """Lines comparing runs = {"parent": [...], "change": [...]}, one result
    (or None) per pair, on each metric {"name", "better": "lower" | "higher"}."""
    ok = all(r is not None and r["correct"] and r["failed"] == 0
             for side in SIDES for r in runs[side])
    complete = sum(bool(p and c) for p, c in zip(*(runs[s] for s in SIDES)))
    lines = [f"  {len(runs['parent'])} pairs, {complete} complete; every run correct "
             f"with failed 0: {'yes' if ok else 'NO'}",
             f"  {'metric':14s}{'parent median':>16s}{'change median':>16s}"
             f"{'change better':>16s}{'parent IQR':>14s}"]
    for metric in metrics:
        if compared := _compare(runs, metric):
            parent, change, wins, iqr = compared
            lines.append(f"  {metric['name']:14s}{statistics.median(parent):16.6g}"
                         f"{statistics.median(change):16.6g}"
                         f"{f'{wins} of {len(parent)}':>16s}{iqr:14.4g}")
    return lines


def gain_bar(runs: dict, metrics: list) -> str:
    """The metrics on which the change meets the bar of a claimed gain, better
    in at least 9 of 10 pairs and a median better than the parent's by more
    than the parent's IQR, and those on which it does not, as one line."""
    met = {True: [], False: []}
    for metric in metrics:
        if compared := _compare(runs, metric):
            parent, change, wins, iqr = compared
            gap = statistics.median(change) - statistics.median(parent)
            gap *= 1 if metric["better"] == "higher" else -1
            met[10 * wins >= 9 * len(parent) and gap > iqr].append(metric["name"])
    return (f"  gain bar (better in >= 9 of 10 pairs, median gap > parent IQR): "
            f"met by {', '.join(met[True]) or 'none'}; unmet by {', '.join(met[False]) or 'none'}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="source tree of the parent commit")
    ap.add_argument("change", type=Path, help="source tree of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    args = ap.parse_args()
    trees = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for pair in range(args.pairs):
        seed = args.seed + pair
        for workload in workloads:
            for side in SIDES[::-1] if pair % 2 else SIDES:
                result = run_perfbench(trees[side], workload, seed, bench["run_seconds"])
                runs[workload][side].append(result)
                print(f"pair {pair + 1}/{args.pairs} seed {seed} {workload} {side}: "
                      + json.dumps(result and {k: m["value"] for k, m in result["metrics"].items()}),
                      file=sys.stderr, flush=True)
    for workload in workloads:
        print(workload)
        print("\n".join(summary(runs[workload], bench["end_to_end"])))
        print(gain_bar(runs[workload], bench["end_to_end"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
