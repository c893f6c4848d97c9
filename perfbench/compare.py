#!/usr/bin/env python3
"""Compare two benchmark result sets: the parent commit's and a change's.

    python3 perfbench/compare.py perfbench/results/parent.json results/change.json

A result set is the JSON file ``perfbench/record.py`` writes.  The two
sets must hold the same seeds for every workload and the same run length;
compare refuses them otherwise, since another seed gives other inputs.
For every workload and every end-to-end metric of ``BENCHMARK.json`` this
prints each side's median and quartiles over its untraced runs, the pairs
the change won (runs paired by seed, ties counting for neither), and a
verdict:

- ``worse``: the change has more failed runs than the parent (a run that
  crashed or wrote no result counts as failed, as does a run with a
  failed check), whatever the medians say; or its median is worse than
  the parent's by more than the metric's bound;
- ``improved``: the change wins at least nine tenths of all pairs and the
  medians differ, in the better direction, by more than the distance
  between the parent's own quartiles;
- ``unresolved``: one side has no run with a result; or the change is
  not worse by the bound, but the parent's spread (quartile distance over
  median) is wider than the bound and not every change run reads better
  than every parent run;
- ``unchanged``: otherwise.

Medians, quartiles and pairs use the runs that wrote a result.
``--json`` adds the whole table as one JSON line at the end.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _untraced(result_set: dict) -> list[dict]:
    return [r for r in result_set["runs"] if r["trace"] == 0]


def _failed(run: dict) -> bool:
    result = run.get("result")
    return not result or not result["correct"] or result["failed"] > 0


def _pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Pair runs by seed, in run order within a seed."""
    by_seed: dict[int, list[dict]] = {}
    for run in change:
        by_seed.setdefault(run["seed"], []).append(run)
    pairs = []
    for run in parent:
        if by_seed.get(run["seed"]):
            pairs.append((run, by_seed[run["seed"]].pop(0)))
    return pairs


def verdict(metric: dict, parent: list[dict], change: list[dict]) -> dict:
    name, lower = metric["name"], metric["better"] == "lower"
    bound = metric["bound"]

    def value(run):
        return run["result"]["metrics"][name]["value"]

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    failed = {"parent": sum(map(_failed, parent)), "change": sum(map(_failed, change))}
    parent = [r for r in parent if r.get("result")]
    change = [r for r in change if r.get("result")]
    pv, cv = [value(r) for r in parent], [value(r) for r in change]
    p1, pm, p3 = quartiles(pv)
    c1, cm, c3 = quartiles(cv)
    pairs = _pairs(parent, change)
    wins = sum(better(value(c), value(p)) for p, c in pairs)
    worse_by = ((cm - pm) if lower else (pm - cm)) / abs(pm) if pm else 0.0
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    gain = (pm - cm) if lower else (cm - pm)
    if failed["change"] > failed["parent"]:
        outcome = "worse"
    elif not pv or not cv:
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "worse"
    elif pairs and wins >= 0.9 * len(pairs) and gain > (p3 - p1):
        outcome = "improved"
    elif spread > bound and not all(better(c, p) for c in cv for p in pv):
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return {
        "metric": name, "unit": metric["unit"], "bound": bound,
        "parent": {"n": len(pv), "q1": p1, "median": pm, "q3": p3},
        "change": {"n": len(cv), "q1": c1, "median": cm, "q3": c3},
        "failed_runs": failed,
        "pairs": len(pairs), "wins": wins, "worse_by": worse_by, "parent_spread": spread,
        "verdict": outcome,
    }


def comparable(parent_set: dict, change_set: dict) -> str | None:
    """Why the two sets cannot be compared, or None when they can."""
    lengths = [s.get("env", {}).get("run_seconds") for s in (parent_set, change_set)]
    if lengths[0] != lengths[1]:
        return f"run lengths differ: parent {lengths[0]} s, change {lengths[1]} s"

    def seeds(result_set: dict) -> dict[str, list[int]]:
        found: dict[str, list[int]] = {}
        for run in _untraced(result_set):
            found.setdefault(run["workload"], []).append(run["seed"])
        return {w: sorted(s) for w, s in found.items()}

    parent, change = seeds(parent_set), seeds(change_set)
    for workload in sorted(parent.keys() & change.keys()):
        if parent[workload] != change[workload]:
            return (f"{workload}: seeds differ: parent {parent[workload]}, "
                    f"change {change[workload]}")
    return None


def compare(parent_set: dict, change_set: dict, spec: dict) -> list[dict]:
    reason = comparable(parent_set, change_set)
    if reason:
        raise ValueError(reason)
    rows = []
    parent, change = _untraced(parent_set), _untraced(change_set)
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        p = [r for r in parent if r["workload"] == workload]
        c = [r for r in change if r["workload"] == workload]
        if not p or not c:
            continue
        for metric in spec["end_to_end"]:
            rows.append({"workload": workload, **verdict(metric, p, c)})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--json", action="store_true", help="also print the table as one JSON line")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        rows = compare(json.loads(args.parent.read_text(encoding="utf-8")),
                       json.loads(args.change.read_text(encoding="utf-8")), spec)
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 1
    if not rows:
        print("compare: the two result sets share no workload with untraced runs", file=sys.stderr)
        return 1
    print(f"{'workload':16s} {'metric':16s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>7s} {'failed':>7s} {'worse':>7s} "
          f"{'spread':>7s} "
          f"{'bound':>6s}  verdict")
    for r in rows:
        f = r["failed_runs"]
        p, c = (f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] {r['unit']}"
                for s in (r["parent"], r["change"]))
        print(f"{r['workload']:16s} {r['metric']:16s} {p:>34s} {c:>34s} "
              f"{r['wins']:3d}/{r['pairs']:<3d} {f['parent']:3d}/{f['change']:<3d} "
              f"{r['worse_by']:+7.1%} {r['parent_spread']:7.1%} "
              f"{r['bound']:6.2f}  {r['verdict']}")
    if args.json:
        print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
