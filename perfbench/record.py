#!/usr/bin/env python3
"""Record a benchmark result set: every workload over a list of seeds.

    python3 perfbench/record.py --out baseline.json
    python3 perfbench/record.py ../parent ../change --out parent.json change.json

Each run is a fresh ``perfbench/run.py`` process of ``run_seconds`` (from
``BENCHMARK.json``), started in the checkout it measures (this one when
none is named).  Seeds are the outer loop, so a slow stretch of the
machine is spread over all workloads.  With two checkouts, each seed runs
every workload on both, one right after the other, and which checkout
goes first alternates from seed to seed; each checkout's runs go to its
own ``--out`` file.  Untraced runs cover every seed, and one traced run
per workload and checkout gives the per-layer numbers.  Each file also
holds the environment (core count, numpy and OpenBLAS versions, BLAS
threads, ``CALYPSO_THREADS``, the checkout's commit).  Feed two such
files to ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import run

DEFAULT_SEEDS = "1-10"     # seeds used while the benchmark was written
HELD_OUT_SEEDS = "11-20"   # seeds kept for confirming a claim
TRACE_SEED = 1


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def environment(root: Path, run_seconds: float) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                            capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in run.BLAS_ENV},
        "CALYPSO_THREADS": os.environ.get("CALYPSO_THREADS", "unset"),
        "machine": platform.machine(),
        "commit": commit.stdout.strip() or "unknown",
        "run_seconds": run_seconds,
        "default_seeds": DEFAULT_SEEDS,
        "held_out_seeds": HELD_OUT_SEEDS,
    }


def bench_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    status = "ok" if result and result["correct"] else f"FAILED (exit {proc.returncode})"
    print(f"{root.name:12s} {workload:16s} seed {seed:3d} trace {trace}  "
          f"{elapsed:6.1f} s  {status}", flush=True)
    if result is None:
        sys.stderr.write(proc.stderr[-2000:])
    return {"workload": workload, "seed": seed, "trace": trace, "elapsed_s": elapsed,
            "exit": proc.returncode, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, nargs="+", required=True,
                        help="one result file per checkout")
    parser.add_argument("--seeds", default=DEFAULT_SEEDS, help="e.g. 1-10 or 1,3,5")
    parser.add_argument("checkouts", type=Path, nargs="*",
                        help="checkouts to measure (default: this one)")
    args = parser.parse_args(argv)
    roots = [c.resolve() for c in args.checkouts] or [run.ROOT]
    if len(args.out) != len(roots):
        parser.error(f"{len(roots)} checkout(s) need as many --out files, got {len(args.out)}")

    if not run.prepare():
        return 2
    spec = run.load_spec()
    seconds = spec["run_seconds"]
    runs: dict[Path, list[dict]] = {root: [] for root in roots}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = roots[i % len(roots):] + roots[:i % len(roots)]
        for workload in run.WORKLOADS:
            for root in order:
                runs[root].append(bench_once(root, workload, seed, seconds, 0))
    for workload in run.WORKLOADS:
        for root in roots:
            runs[root].append(bench_once(root, workload, TRACE_SEED, seconds, 1))
    failed = 0
    for root, out in zip(roots, args.out):
        out.parent.mkdir(parents=True, exist_ok=True)
        record = {"env": environment(root, seconds), "benchmark": spec, "runs": runs[root]}
        out.write_text(json.dumps(record, indent=1, allow_nan=False) + "\n", encoding="utf-8")
        bad = [r for r in runs[root] if not (r["result"] and r["result"]["correct"])]
        print(f"wrote {out}: {len(runs[root])} runs of {root}, {len(bad)} failed")
        failed += len(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
