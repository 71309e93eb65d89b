"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records that bench/run.py writes to
``.bench_results/`` (copy that directory aside after running each commit
with the same seeds and ``--seconds``).  For every workload and
end-to-end metric it prints both sides' medians and quartiles across runs
and one verdict, by the rule of bench/README.md:

* improved   -- at least 10 seed-matched pairs, the change wins at least
  nine tenths of them (ties count for neither), and the medians differ in
  the better direction by more than the parent's IQR;
* unresolved -- the parent's IQR exceeds the metric's bound (as a share of
  its median), unless every change run is better than every parent run;
* worse      -- the change's median is worse than the parent's by more
  than the metric's bound from BENCHMARK.json;
* unchanged  -- otherwise.

Per-layer medians from traced records are printed side by side, without
a verdict.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

import run

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> dict:
    """(workload, trace) -> seed -> record."""
    records = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        records.setdefault((record["workload"], record["trace"]), {})[record["seed"]] = record
    return records


def quartiles(values: list) -> tuple:
    q = run.quartiles(values)
    return q["q1"], q["median"], q["q3"]


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    """parent, change: seed -> value."""
    sign = 1.0 if better == "lower" else -1.0     # sign * (a - b) > 0: b is better
    p_q1, p_med, p_q3 = quartiles(list(parent.values()))
    _, c_med, _ = quartiles(list(change.values()))
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (parent[s] - change[s]) > 0 for s in seeds)
    gain = sign * (p_med - c_med)
    if len(seeds) >= MIN_PAIRS and wins >= math.ceil(WIN_SHARE * len(seeds)) \
            and gain > p_q3 - p_q1:
        return "improved"
    all_better = all(sign * (p - c) > 0 for p in parent.values() for c in change.values())
    if (p_q3 - p_q1) > bound * abs(p_med) and not all_better:
        return "unresolved"
    if -gain > bound * abs(p_med):
        return "worse"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    workloads = sorted({w for w, _ in parent} & {w for w, _ in change})
    if not workloads:
        print("error: no workload has records on both sides", file=sys.stderr)
        return 2
    for workload in workloads:
        p_runs, c_runs = parent.get((workload, 0), {}), change.get((workload, 0), {})
        if p_runs and c_runs:
            print(f"{workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs, "
                  f"{len(set(p_runs) & set(c_runs))} seed-matched pairs")
        for metric in spec["end_to_end"] if p_runs and c_runs else ():
            name = metric["name"]
            p = {s: r["metrics"][name]["value"] for s, r in p_runs.items()}
            c = {s: r["metrics"][name]["value"] for s, r in c_runs.items()}
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            print(f"  {name} [{metric['unit']}, {metric['better']} is better, "
                  f"bound {metric['bound']:g}]: parent {pq[1]:.6g} (q1 {pq[0]:.6g}, "
                  f"q3 {pq[2]:.6g}); change {cq[1]:.6g} (q1 {cq[0]:.6g}, q3 {cq[2]:.6g})"
                  f" -> {verdict(p, c, metric['better'], metric['bound'])}")
        p_traced, c_traced = parent.get((workload, 1), {}), change.get((workload, 1), {})
        if p_traced and c_traced:
            print("  per layer (traced; median over runs, parent -> change):")
            for metric in spec["per_layer"]:
                name = metric["name"]
                p = statistics.median(r["metrics"][name]["value"] for r in p_traced.values())
                c = statistics.median(r["metrics"][name]["value"] for r in c_traced.values())
                print(f"    {name}: {p:.6g} -> {c:.6g} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
