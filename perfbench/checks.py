"""Correctness checks on the files the CLI stages write.

Each function returns ``None`` when the check passes and a one-line reason
when it fails; the runner counts every call toward ``attempted`` and every
reason toward ``failed``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

CONSERVATION_RTOL = 1e-6


def _cells(path: Path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for line, row in enumerate(reader, start=2):
            yield header, line, row


def _nonfinite_json(value, where: str) -> str | None:
    if isinstance(value, float):
        return None if math.isfinite(value) else f"{where} = {value}"
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        bad = _nonfinite_json(item, f"{where}/{key}")
        if bad:
            return bad
    return None


def finite_outputs(out_dir: Path) -> str | None:
    """Every numeric CSV cell and JSON number under ``out_dir`` is finite."""
    files = sorted(Path(out_dir).glob("*.csv")) + sorted(Path(out_dir).glob("*.json"))
    if not files:
        return f"{out_dir.name}: no CSV or JSON output"
    for path in files:
        if path.suffix == ".json":
            bad = _nonfinite_json(json.loads(path.read_text(encoding="utf-8")), path.name)
            if bad:
                return f"non-finite JSON value {bad}"
            continue
        for header, line, row in _cells(path):
            for col, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    continue  # ids and empty cells
                if not math.isfinite(value):
                    return f"non-finite CSV value {path.name}:{line} {header[col]}={cell}"
    return None


def populations(data_dir: Path) -> dict[str, float]:
    with open(Path(data_dir) / "patches.csv", encoding="utf-8", newline="") as fh:
        return {row["patch_id"]: float(row["population"]) for row in csv.DictReader(fh)}


def candidates(data_dir: Path) -> list[str]:
    """Patches the allocation analyses consider by default, in file order."""
    with open(Path(data_dir) / "patches.csv", encoding="utf-8", newline="") as fh:
        return [row["patch_id"] for row in csv.DictReader(fh) if row["category"] != "general"]


def conservation(traj_csv: Path, pops: dict[str, float]) -> str | None:
    """S + I + R equals the patch population on every row, to 1e-6 relative."""
    rows = 0
    with open(traj_csv, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            p = pops[row["patch_id"]]
            total = float(row["S"]) + float(row["I"]) + float(row["R"])
            if not abs(total - p) <= CONSERVATION_RTOL * p:
                return (f"{traj_csv.name}: S+I+R={total!r} != P={p!r} "
                        f"at {row['patch_id']} week {row['week_index']}")
            rows += 1
    return None if rows else f"{traj_csv.name}: no rows"


def greedy_evaluations(n_candidates: int, budget: int) -> int:
    """sum_b (|C| - b + 1) over greedy steps b = 1..budget."""
    return sum(n_candidates - b + 1 for b in range(1, budget + 1))


def evaluations(result_json: Path, expected: int) -> str | None:
    got = json.loads(Path(result_json).read_text(encoding="utf-8"))["evaluations"]
    return None if got == expected else f"{result_json.name}: {got} evaluations, expected {expected}"


def fit_r2(checkpoint: Path, floor: float) -> tuple[float, str | None]:
    """The checkpoint's best state R^2, and a reason if it is not above ``floor``."""
    r2 = json.loads(Path(checkpoint).read_text(encoding="utf-8"))["extra"]["best_r2"]
    ok = isinstance(r2, float) and math.isfinite(r2) and r2 > floor
    return r2, None if ok else f"{checkpoint.name}: best_r2={r2} not above {floor}"
