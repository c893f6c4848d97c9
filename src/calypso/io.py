"""CSV and JSON readers/writers for every on-disk interface.

Input bundle (one directory, UTF-8, header rows, 0-based contiguous
week indices):

- ``patches.csv``   patch_id, region, category, population
- ``travel.csv``    src, dst, commute_flow, facility_flow
- ``cases.csv``     patch_id, week_index, count
- ``features.csv``  patch_id, week_index, one column per feature channel

Outputs: trajectory CSV (patch_id, week_index, S, I, R, new_infections),
a JSON summary of cumulative infections per level, a long-format
``ground_truth.csv`` (parameters and compartments), and simple
(week, value) series CSVs.  Floats are written with ``repr`` so reruns
with the same seed produce byte-identical files.

Checkpoints of the calibration net and the adapter share one JSON codec
(``write_checkpoint``/``read_checkpoint``); reading validates the file
against a net rebuilt from its own config.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import DataSet, DiseaseParams, PatchGraph, Trajectory, aggregate, build_travel_matrix
from .errors import CheckpointError, DataError, ShapeMismatch


def _fmt(x) -> str:
    f = float(x)
    return repr(int(f)) if f.is_integer() and abs(f) < 1e15 else repr(f)


def _open_w(path):
    return open(path, "w", encoding="utf-8", newline="")


def write_inputs(
    out_dir,
    graph: PatchGraph,
    data: DataSet,
    commute_flows: Mapping[tuple[str, str], float],
    facility_flows: Mapping[tuple[str, str], float],
) -> list[Path]:
    """Write the four input CSVs; returns the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    p = out_dir / "patches.csv"
    with _open_w(p) as fh:
        w = csv.writer(fh)
        w.writerow(["patch_id", "region", "category", "population"])
        for pid in graph.patch_ids:
            w.writerow([pid, graph.region_of[pid], graph.category_of[pid],
                        _fmt(graph.populations[graph.patch_index[pid]])])
    written.append(p)

    p = out_dir / "travel.csv"
    pairs = sorted(set(commute_flows) | set(facility_flows))
    with _open_w(p) as fh:
        w = csv.writer(fh)
        w.writerow(["src", "dst", "commute_flow", "facility_flow"])
        for src, dst in pairs:
            w.writerow([src, dst, _fmt(commute_flows.get((src, dst), 0.0)),
                        _fmt(facility_flows.get((src, dst), 0.0))])
    written.append(p)

    p = out_dir / "cases.csv"
    with _open_w(p) as fh:
        w = csv.writer(fh)
        w.writerow(["patch_id", "week_index", "count"])
        for pid in graph.patch_ids:
            row = data.observed[graph.patch_index[pid]]
            for t in range(row.shape[0]):
                w.writerow([pid, t, _fmt(row[t])])
    written.append(p)

    p = out_dir / "features.csv"
    with _open_w(p) as fh:
        w = csv.writer(fh)
        w.writerow(["patch_id", "week_index", *data.feature_names])
        for pid in graph.patch_ids:
            block = data.features[graph.patch_index[pid]]
            for t in range(block.shape[0]):
                w.writerow([pid, t, *(_fmt(v) for v in block[t])])
    written.append(p)
    return written


def load_graph(in_dir) -> tuple[PatchGraph, dict, dict]:
    """Read patches.csv + travel.csv; returns (graph, commute, facility)."""
    in_dir = Path(in_dir)
    populations, region_of, category_of = {}, {}, {}
    with open(in_dir / "patches.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            pid = row["patch_id"]
            populations[pid] = float(row["population"])
            region_of[pid] = row["region"]
            category_of[pid] = row["category"]
    commute, facility = {}, {}
    travel = in_dir / "travel.csv"
    if travel.exists():
        with open(travel, encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                key = (row["src"], row["dst"])
                commute[key] = float(row["commute_flow"])
                facility[key] = float(row["facility_flow"])
    theta = build_travel_matrix(commute, facility, populations)
    return PatchGraph(populations, region_of, category_of, theta), commute, facility


def _load_weekly_table(path, graph: PatchGraph, value_cols: Sequence[str]) -> np.ndarray:
    rows: dict[str, dict[int, list[float]]] = {pid: {} for pid in graph.patch_ids}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            pid = row["patch_id"]
            if pid not in rows:
                raise ShapeMismatch(f"{path}: unknown patch {pid!r}")
            rows[pid][int(row["week_index"])] = [float(row[c]) for c in value_cols]
    weeks = sorted(next(iter(rows.values())))
    if weeks != list(range(len(weeks))):
        raise ShapeMismatch(f"{path}: week indices must be 0-based and contiguous")
    out = np.zeros((graph.n_patches, len(weeks), len(value_cols)))
    for pid, per_week in rows.items():
        if sorted(per_week) != weeks:
            raise ShapeMismatch(f"{path}: patch {pid!r} is missing weeks")
        for t in weeks:
            out[graph.patch_index[pid], t] = per_week[t]
    return out


def load_dataset(in_dir, graph: PatchGraph, window: int | None = None, horizon: int = 4) -> DataSet:
    """Read cases.csv + features.csv into a DataSet.

    Initial infections are taken from the week-0 observed counts (capped
    at the patch populations).  When ``window`` is None it defaults to
    the full length minus the horizon.
    """
    in_dir = Path(in_dir)
    observed = _load_weekly_table(in_dir / "cases.csv", graph, ["count"])[:, :, 0]
    with open(in_dir / "features.csv", encoding="utf-8", newline="") as fh:
        names = tuple(c for c in csv.DictReader(fh).fieldnames if c not in ("patch_id", "week_index"))
    features = _load_weekly_table(in_dir / "features.csv", graph, names)
    if features.shape[1] != observed.shape[1]:
        raise ShapeMismatch("cases.csv and features.csv disagree on week count")
    total = observed.shape[1]
    if window is None:
        window = total - horizon
    init = np.minimum(observed[:, 0], graph.populations)
    return DataSet(
        features=features,
        observed=observed,
        initial_infections=init,
        horizon=horizon,
        window=window,
        feature_names=names,
    )


def write_trajectory(path, graph: PatchGraph, traj: Trajectory) -> Path:
    """Trajectory CSV: patch_id, week_index, S, I, R, new_infections."""
    path = Path(path)
    steps = traj.n_steps
    with _open_w(path) as fh:
        w = csv.writer(fh)
        w.writerow(["patch_id", "week_index", "S", "I", "R", "new_infections"])
        for pid in graph.patch_ids:
            i = graph.patch_index[pid]
            for t in range(steps + 1):
                new = "" if (traj.new_infections is None or t == 0) else _fmt(traj.new_infections[i, t - 1])
                w.writerow([pid, t, _fmt(traj.S[i, t]), _fmt(traj.I[i, t]), _fmt(traj.R[i, t]), new])
    return path


def write_trajectory_summary(path, graph: PatchGraph, traj: Trajectory) -> Path:
    """JSON summary: cumulative new infections per patch, region, state."""
    if traj.new_infections is None:
        raise ShapeMismatch("trajectory was simulated without new-infection recording")
    per_patch = traj.new_infections.sum(axis=1)
    per_region = aggregate(traj.new_infections, "region", graph).sum(axis=1)
    state = float(aggregate(traj.new_infections, "state", graph).sum())
    payload = {
        "cumulative_new_infections": {
            "patch": {pid: float(per_patch[graph.patch_index[pid]]) for pid in graph.patch_ids},
            "region": {rid: float(per_region[graph.region_index[rid]]) for rid in graph.region_ids},
            "state": state,
        },
        "steps": traj.n_steps,
    }
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def write_ground_truth(path, graph: PatchGraph, params: DiseaseParams, traj: Trajectory) -> Path:
    """Long-format CSV of the generating parameters and trajectory."""
    path = Path(path)
    with _open_w(path) as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "id", "week_index", "field", "value"])
        for name, arr in params.as_dict().items():
            for r, rid in enumerate(params.region_ids):
                for t in range(arr.shape[1]):
                    w.writerow(["param", rid, t, name, _fmt(arr[r, t])])
        for pid in graph.patch_ids:
            i = graph.patch_index[pid]
            for t in range(traj.n_steps + 1):
                w.writerow(["state", pid, t, "S", _fmt(traj.S[i, t])])
                w.writerow(["state", pid, t, "I", _fmt(traj.I[i, t])])
                w.writerow(["state", pid, t, "R", _fmt(traj.R[i, t])])
                if traj.new_infections is not None and t < traj.n_steps:
                    w.writerow(["state", pid, t, "new_infections", _fmt(traj.new_infections[i, t])])
    return path


def write_params(path, params: DiseaseParams) -> Path:
    """Parameter-only long-format CSV (loadable by load_ground_truth_params)."""
    path = Path(path)
    with _open_w(path) as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "id", "week_index", "field", "value"])
        for name, arr in params.as_dict().items():
            for r, rid in enumerate(params.region_ids):
                for t in range(arr.shape[1]):
                    w.writerow(["param", rid, t, name, _fmt(arr[r, t])])
    return path


def write_eakf_summary(path, result, graph: PatchGraph) -> Path:
    """Weekly ensemble summary: state-level mean I plus parameter posteriors."""
    path = Path(path)
    state_i = aggregate(result.trajectory.I[:, 1:], "state", graph)[0]
    names = sorted(result.param_mean)
    header = ["week_index", "state_infected_mean"]
    for name in names:
        for rid in graph.region_ids:
            header += [f"{name}_{rid}_mean", f"{name}_{rid}_sd"]
    with _open_w(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for t in range(state_i.shape[0]):
            row = [t, _fmt(state_i[t])]
            for name in names:
                for rid in graph.region_ids:
                    r = graph.region_index[rid]
                    row += [_fmt(result.param_mean[name][r, t]), _fmt(result.param_sd[name][r, t])]
            w.writerow(row)
    return path


def load_ground_truth_params(path, graph: PatchGraph) -> DiseaseParams:
    """Rebuild DiseaseParams from a ground-truth (or params-only) CSV."""
    per: dict[str, dict[str, dict[int, float]]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row.get("kind", "param") != "param":
                continue
            per.setdefault(row["field"], {}).setdefault(row["id"], {})[int(row["week_index"])] = float(row["value"])
    if not per:
        raise ShapeMismatch(f"{path}: no parameter rows found")
    steps = 1 + max(t for by_region in per.values() for weeks in by_region.values() for t in weeks)
    arrays = {}
    for name, by_region in per.items():
        arr = np.zeros((graph.n_regions, steps))
        for rid, weeks in by_region.items():
            if rid not in graph.region_index:
                raise ShapeMismatch(f"{path}: unknown region {rid!r}")
            for t, v in weeks.items():
                arr[graph.region_index[rid], t] = v
        arrays[name] = arr
    return DiseaseParams(region_ids=graph.region_ids, **arrays)


def write_series(path, values: np.ndarray, header: str = "value") -> Path:
    """(week, value) CSV for a single time series."""
    path = Path(path)
    values = np.asarray(values, dtype=float).ravel()
    with _open_w(path) as fh:
        w = csv.writer(fh)
        w.writerow(["week_index", header])
        for t, v in enumerate(values):
            w.writerow([t, _fmt(v)])
    return path


def read_series(path) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if len(header) < 2:
            raise ShapeMismatch(f"{path}: expected (week, value) columns")
        rows = [(int(r[0]), float(r[1])) for r in reader]
    rows.sort()
    return np.array([v for _, v in rows])


def write_level_series(out_dir, graph: PatchGraph, series: np.ndarray, stem: str) -> list[Path]:
    """Write patch/region/state series CSVs for a patches x weeks matrix."""
    out_dir = Path(out_dir)
    written = []
    p = out_dir / f"{stem}_patch.csv"
    with _open_w(p) as fh:
        w = csv.writer(fh)
        w.writerow(["patch_id", "week_index", "value"])
        for pid in graph.patch_ids:
            row = series[graph.patch_index[pid]]
            for t in range(row.shape[0]):
                w.writerow([pid, t, _fmt(row[t])])
    written.append(p)
    region = aggregate(series, "region", graph)
    p = out_dir / f"{stem}_region.csv"
    with _open_w(p) as fh:
        w = csv.writer(fh)
        w.writerow(["region", "week_index", "value"])
        for rid in graph.region_ids:
            row = region[graph.region_index[rid]]
            for t in range(row.shape[0]):
                w.writerow([rid, t, _fmt(row[t])])
    written.append(p)
    written.append(write_series(out_dir / f"{stem}_state.csv", aggregate(series, "state", graph)[0]))
    return written


# -- checkpoints ------------------------------------------------------------

def write_checkpoint(path, kind: str, net, extra: dict | None = None, **fields) -> Path:
    """JSON of ``net``'s config, seed and weights plus ``extra`` and the
    net's own ``fields``; a non-finite number raises ``CheckpointError``."""
    payload = {
        "kind": kind,
        "config": dataclasses.asdict(net.config),
        "seed": net.seed,
        "weights": {k: np.asarray(v).tolist() for k, v in net.weights.items()},
        "extra": extra or {},
        **fields,
    }
    try:
        text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    path = Path(path)
    path.write_text(text + "\n", encoding="utf-8")
    return path


def read_checkpoint(path, kind: str, config_type, fields: Sequence[str],
                    build: Callable[[object, int, dict], object]) -> tuple[object, dict]:
    """Read a ``write_checkpoint`` file back; returns (net, extra).

    ``build(config, seed, payload)`` makes a fresh net from the stored
    config and the caller's ``fields``.  The stored weights must have
    exactly that net's names and shapes, and every number must be finite;
    each fault raises ``CheckpointError`` naming the file and the fault.
    """
    path = Path(path)

    def bad(msg: str) -> CheckpointError:
        return CheckpointError(f"{path}: {msg}")

    def finite(token: str) -> float:
        if not math.isfinite(x := float(token)):
            raise bad(f"non-finite number {token}")
        return x

    try:
        payload = json.loads(path.read_text(encoding="utf-8"), parse_float=finite, parse_constant=finite)
    except ValueError as exc:
        raise bad(f"not valid JSON ({exc})") from None
    if not isinstance(payload, dict) or payload.get("kind") != kind:
        raise bad(f"not a {kind} checkpoint")
    _check_keys(bad, "key", payload, {"kind", "config", "seed", "weights", "extra", *fields})
    _check_keys(bad, "config key", payload["config"], {f.name for f in dataclasses.fields(config_type)})
    try:
        net = build(config_type(**payload["config"]), payload["seed"], payload)
    except (DataError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise bad(f"malformed {kind} fields ({type(exc).__name__}: {exc})") from None
    _check_keys(bad, "weight", payload["weights"], set(net.weights))
    for name, init in net.weights.items():
        try:
            net.weights[name] = checkpoint_array(payload["weights"][name], init.shape)
        except (TypeError, ValueError) as exc:
            raise bad(f"weight {name!r}: {exc}") from None
    return net, payload["extra"]


def _check_keys(bad, what: str, obj, expected: set) -> None:
    if not isinstance(obj, dict):
        raise bad(f"{what}s must be an object")
    if missing := sorted(expected - set(obj)):
        raise bad(f"missing {what}s {missing}")
    if unknown := sorted(set(obj) - expected):
        raise bad(f"unknown {what}s {unknown}")


def checkpoint_array(value, shape: tuple, positive: bool = False) -> np.ndarray:
    """``value`` as a finite (optionally positive) float array of ``shape``."""
    arr = np.array(value, dtype=float)
    ok = np.isfinite(arr) & (arr > 0) if positive else np.isfinite(arr)
    if arr.shape != tuple(shape) or not np.all(ok):
        what = "finite positive" if positive else "finite"
        raise ValueError(f"need {what} values of shape {tuple(shape)}, got shape {arr.shape}")
    return arr
