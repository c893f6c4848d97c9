"""The one owner of the on-disk formats: every CSV and JSON file goes through here.

Inputs (UTF-8, one header row): ``patches.csv`` (patch_id, region,
category, population), ``travel.csv`` (src, dst, commute_flow,
facility_flow), ``cases.csv`` (patch_id, week_index, count),
``features.csv`` (patch_id, week_index, one column per channel), the
``param`` rows of a long ``kind, id, week_index, field, value`` parameter
file, and (week, value) series.  Every table is read by ``Table`` in one
pass under one contract: the header names each column once and holds the
required ones; numbers are finite, and >= 0 for counts, populations and
flows; patch ids and regions are not empty, ids, categories and travel
ends are known, and ids, travel pairs and (id, week) keys unique;
weeks run from 0, every patch has every week and each of ``PARAM_NAMES``
every region x week.  A bad number raises ``InvalidValue``, a bad key,
column or coverage ``ShapeMismatch``, each naming the file and row (CLI
exit 3); an unreadable file is a ``DataError`` naming it.

Every CSV is written a block of columns at a time, each block of about
``_BLOCK_ROWS`` rows: the long writers cut their patch x week arrays into
blocks of whole patches (or regions) with numpy, and ``write_rows`` cuts
the small row-shaped result tables into blocks and transposes them.  One
formatter, ``_cells``, turns a column into text: floats with ``repr``
(integral ones as ints) after one numpy finiteness check, ints with
``str``, text quoted as ``csv``'s QUOTE_MINIMAL quotes it.  Reruns with
one seed give byte-identical files, and a NaN or inf raises
``NonFiniteOutput`` naming the file and line (CLI exit 4);
``write_trajectory`` first runs ``Trajectory.check``, so a trajectory off
S+I+R = P raises ``NumericalError`` naming the file, patch and week.
``write_json`` writes every JSON result.  The checkpoint codec
(``write_checkpoint``/``read_checkpoint``) checks a file against a net
rebuilt from its own config and against ``DEFAULT_PARAM_BOUNDS``, and
every array in it by key through ``checkpoint_array``; ``read_json`` is
the strict parse it shares with ``--config`` files.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (DEFAULT_PARAM_BOUNDS, GENERAL, NON_GENERAL, PARAM_NAMES, DataSet, DiseaseParams, PatchGraph,
                   Trajectory, aggregate, build_travel_matrix)
from .errors import (CheckpointError, DataError, InvalidOption, InvalidValue, NonFiniteOutput, NumericalError,
                     ShapeMismatch)

# Rows read or written per numpy call: enough to amortise the call, few
# enough that a block's Python objects stay well under a megabyte.
_BLOCK_ROWS = 512

# -- writers ----------------------------------------------------------------


def _quote(text: str) -> str:
    """``text`` as csv's QUOTE_MINIMAL writes it: in double quotes (inner ones
    doubled) when it holds a comma, a double quote or a line break."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _floats(values: np.ndarray, line: int, at: Sequence[int] | None = None) -> list[str]:
    """Finite floats as ``repr``, integral ones below 1e15 as ints.  A NaN or
    inf raises ``NonFiniteOutput`` naming line ``line`` plus its position
    (``at[i]`` for the i-th value when given)."""
    if not (finite := np.isfinite(values)).all():
        i = int(np.argmin(finite))
        raise NonFiniteOutput(f"line {line + (i if at is None else at[i])}: non-finite number {values[i]}")
    whole = (values % 1 == 0) & (np.abs(values) < 1e15)
    cells = np.empty(len(values), dtype=object)
    cells[whole] = list(map(str, values[whole].astype(np.int64).tolist()))
    cells[~whole] = list(map(repr, values[~whole].tolist()))  # tolist: a numpy scalar's repr is "np.float64(...)"
    return cells.tolist()


def _cells(column, line: int) -> list[str]:
    """One column of a block of rows as CSV cells; ``line`` is the file line
    of the block's first row.

    A float or int ndarray is formatted whole, and text is quoted once per
    distinct value.  In any other column, floats (numpy ones too) go
    through ``_floats`` together, ``None`` is an empty cell and anything
    else its ``str``.
    """
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return _floats(column, line)
        if column.dtype.kind in "biu":
            return list(map(str, column.tolist()))
        column = column.tolist()
    distinct = set(column)
    if all(type(text) is str for text in distinct):
        quoted = {text: _quote(text) for text in distinct}
        return list(map(quoted.__getitem__, column))
    at = [i for i, cell in enumerate(column) if isinstance(cell, float)]
    # floats get a placeholder here and their text below
    texts = [cell if type(cell) is str else "" if cell is None or isinstance(cell, float) else str(cell)
             for cell in column]
    quoted = {text: _quote(text) for text in set(texts)}
    cells = [quoted[text] for text in texts]
    if at:
        for i, text in zip(at, _floats(np.array([column[i] for i in at]), line, at)):
            cells[i] = text
    return cells


def _write_blocks(path, header: Sequence[str], blocks: Iterable[Sequence]) -> Path:
    """CSV of ``header`` and ``blocks``, each a list of equal-length columns
    (ndarrays or sequences of cells) that ``_cells`` formats.

    Rows end in ``\\r\\n`` and a row of one empty cell is written ``""``, as
    ``csv.writer`` writes them.  A NaN or inf raises ``NonFiniteOutput``
    naming the file and line, and the partly written file is removed.
    """
    path = Path(path)
    line = 1
    with open(path, "w", encoding="utf-8", newline="") as fh:
        try:
            for columns in chain([[[name] for name in header]], blocks):
                cells = [_cells(column, line) for column in columns]
                if len(cells) == 1:
                    cells = [[cell or '""' for cell in cells[0]]]
                if rows := list(map(",".join, zip(*cells))):
                    fh.write("\r\n".join(rows) + "\r\n")
                    line += len(rows)
        except NonFiniteOutput as exc:
            fault = NonFiniteOutput(f"{path}: {exc}")
        else:
            return path
    path.unlink()
    raise fault


def write_rows(path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """CSV of ``header`` and ``rows``, cut into blocks of ``_BLOCK_ROWS``
    rows that are transposed and written as ``_write_blocks`` writes them."""
    rows = iter(rows)
    blocks = iter(lambda: list(islice(rows, _BLOCK_ROWS)), [])
    return _write_blocks(path, header, (list(zip(*block)) for block in blocks))


def write_json(path, payload) -> Path:
    """Result JSON (indent 2, sorted keys); NaN or inf raises ``NonFiniteOutput``."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteOutput(f"{path}: {exc}") from None
    path = Path(path)
    path.write_text(text + "\n", encoding="utf-8")
    return path


def _row_blocks(*columns: Sequence) -> Iterator[list]:
    """Whole columns cut into blocks of ``_BLOCK_ROWS`` rows."""
    return ([column[lo:lo + _BLOCK_ROWS] for column in columns] for lo in range(0, len(columns[0]), _BLOCK_ROWS))


def _long_blocks(ids: Sequence[str], *tables: np.ndarray) -> Iterator[list]:
    """(id, week_index, one value per table) column blocks of ids x weeks
    tables, id-major, whole ids of about ``_BLOCK_ROWS`` rows a block."""
    ids, tables = np.array(ids, dtype=object), [np.asarray(table) for table in tables]
    weeks = tables[0].shape[1]
    step = max(1, _BLOCK_ROWS // max(1, weeks))
    for lo in range(0, len(ids), step):
        block = ids[lo:lo + step]
        yield [np.repeat(block, weeks), np.tile(np.arange(weeks), len(block)),
               *(table[lo:lo + step].ravel() for table in tables)]


_PARAM_HEADER = ["kind", "id", "week_index", "field", "value"]
_STATE_FIELDS = ("S", "I", "R", "new_infections")


def _param_blocks(params: DiseaseParams) -> Iterator[list]:
    for name, arr in params.as_dict().items():
        for rid, week, value in _long_blocks(params.region_ids, arr):
            yield [["param"] * len(value), rid, week, [name] * len(value), value]


def _state_blocks(ids: Sequence[str], traj: Trajectory) -> Iterator[list]:
    """Ground-truth ``state`` rows: per patch and week S, I, R and that week's
    new infections (none after the last week)."""
    ids, weeks = np.array(ids, dtype=object), traj.S.shape[1]
    per_patch = len(_STATE_FIELDS) * weeks - 1
    week = np.repeat(np.arange(weeks), len(_STATE_FIELDS))[:-1]
    field = (list(_STATE_FIELDS) * weeks)[:-1]
    step = max(1, _BLOCK_ROWS // per_patch)
    for lo in range(0, len(ids), step):
        S, I, R, N = (a[lo:lo + step] for a in (traj.S, traj.I, traj.R, traj.new_infections))
        N = np.concatenate([N, np.zeros((len(N), 1))], axis=1)  # padding, dropped below
        values = np.stack([S, I, R, N], axis=2).reshape(len(S), -1)[:, :-1].ravel()
        yield [["state"] * len(values), np.repeat(ids[lo:lo + step], per_patch),
               np.tile(week, len(S)), field * len(S), values]


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
    ids = np.array(graph.patch_ids, dtype=object)
    pairs = sorted(set(commute_flows) | set(facility_flows))
    return [
        _write_blocks(out_dir / "patches.csv", ["patch_id", "region", "category", "population"], _row_blocks(
            ids, [graph.region_of[pid] for pid in ids], [graph.category_of[pid] for pid in ids], graph.populations)),
        _write_blocks(out_dir / "travel.csv", ["src", "dst", "commute_flow", "facility_flow"], _row_blocks(
            [src for src, _ in pairs], [dst for _, dst in pairs],
            np.array([commute_flows.get(pair, 0.0) for pair in pairs], dtype=float),
            np.array([facility_flows.get(pair, 0.0) for pair in pairs], dtype=float))),
        _write_blocks(out_dir / "cases.csv", ["patch_id", "week_index", "count"], _long_blocks(ids, data.observed)),
        _write_blocks(out_dir / "features.csv", ["patch_id", "week_index", *data.feature_names],
                      _long_blocks(ids, *np.moveaxis(data.features, 2, 0))),
    ]


def write_trajectory(path, graph: PatchGraph, traj: Trajectory) -> Path:
    """Trajectory CSV: patch_id, week_index, S, I, R, new_infections (empty in
    week 0).  A trajectory that fails ``Trajectory.check`` raises
    ``NumericalError`` naming the file, patch and week, and nothing is written."""
    try:
        traj.check(graph)
    except NumericalError as exc:
        raise NumericalError(f"{path}: {exc}") from None
    ids, weeks = np.array(graph.patch_ids, dtype=object), traj.S.shape[1]
    step = max(1, _BLOCK_ROWS // weeks)

    def blocks():
        for lo in range(0, len(ids), step):
            S, I, R = (a[lo:lo + step] for a in (traj.S, traj.I, traj.R))
            new = np.full(S.shape, "", dtype=object)
            new[:, 1:] = traj.new_infections[lo:lo + step]
            yield [np.repeat(ids[lo:lo + step], weeks), np.tile(np.arange(weeks), len(S)),
                   S.ravel(), I.ravel(), R.ravel(), new.ravel()]

    return _write_blocks(path, ["patch_id", "week_index", *_STATE_FIELDS], blocks())


def write_trajectory_summary(path, graph: PatchGraph, traj: Trajectory) -> Path:
    """JSON summary: cumulative new infections per patch, region, state."""
    per_patch = traj.new_infections.sum(axis=1)
    per_region = aggregate(traj.new_infections, "region", graph).sum(axis=1)
    state = float(aggregate(traj.new_infections, "state", graph).sum())
    return write_json(path, {
        "cumulative_new_infections": {
            "patch": {pid: float(per_patch[graph.patch_index[pid]]) for pid in graph.patch_ids},
            "region": {rid: float(per_region[graph.region_index[rid]]) for rid in graph.region_ids},
            "state": state,
        },
        "steps": traj.n_steps,
    })


def write_ground_truth(path, graph: PatchGraph, params: DiseaseParams, traj: Trajectory) -> Path:
    """Long-format CSV of the generating parameters and trajectory."""
    return _write_blocks(path, _PARAM_HEADER, chain(_param_blocks(params), _state_blocks(graph.patch_ids, traj)))


def write_params(path, params: DiseaseParams) -> Path:
    """Parameter-only long-format CSV (loadable by load_ground_truth_params)."""
    return _write_blocks(path, _PARAM_HEADER, _param_blocks(params))


def write_eakf_summary(path, result, graph: PatchGraph) -> Path:
    """Weekly ensemble summary: state-level mean I plus parameter posteriors."""
    state_i = aggregate(result.trajectory.I[:, 1:], "state", graph)[0]
    names = sorted(result.param_mean)
    header = ["week_index", "state_infected_mean"]
    columns = [state_i]
    for name in names:
        for r, rid in enumerate(graph.region_ids):
            header += [f"{name}_{rid}_mean", f"{name}_{rid}_sd"]
            columns += [result.param_mean[name][r], result.param_sd[name][r]]
    table = np.stack(columns)
    return _write_blocks(path, header, _row_blocks(np.arange(table.shape[1]), *table))


def write_series(path, values: np.ndarray) -> Path:
    """(week_index, value) CSV for a single time series."""
    values = np.asarray(values, dtype=float).ravel()
    return _write_blocks(path, ["week_index", "value"], _row_blocks(np.arange(len(values)), values))


def write_level_series(out_dir, graph: PatchGraph, series: np.ndarray, stem: str) -> list[Path]:
    """Write patch/region/state series CSVs for a patches x weeks matrix."""
    out_dir = Path(out_dir)
    return [
        _write_blocks(out_dir / f"{stem}_patch.csv", ["patch_id", "week_index", "value"],
                      _long_blocks(graph.patch_ids, series)),
        _write_blocks(out_dir / f"{stem}_region.csv", ["region", "week_index", "value"],
                      _long_blocks(graph.region_ids, aggregate(series, "region", graph))),
        write_series(out_dir / f"{stem}_state.csv", aggregate(series, "state", graph)[0]),
    ]


# -- readers ----------------------------------------------------------------


class Table:
    """One CSV file read in one ``csv.reader`` pass, a block of rows at a time.

    ``text`` columns are kept as strings (one object per distinct value),
    ``numbers`` columns (when None, every other one) as floats converted in
    one numpy call per block, so the file's text is never held whole.
    ``label`` is a ``str.format`` template that names a row in fault
    messages from its cells (by position and by column name) and ``line``.
    ``where=(column, value)`` keeps the rows whose ``column`` holds ``value``.
    """

    def __init__(self, path, text: Sequence[str], numbers: Sequence[str] | None, label: str,
                 where: tuple[str, str] | None = None):
        self.path, self.label = Path(path), label
        try:
            with open(self.path, encoding="utf-8-sig", newline="") as fh:
                rows = csv.reader(fh)
                self.header = next(rows, [])
                self._read(rows, text, numbers, where)
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"cannot read input file {self.path} ({type(exc).__name__})") from None

    def _read(self, rows, text, numbers, where) -> None:
        header, width = self.header, len(self.header)
        if twice := sorted({c for c in header if header.count(c) > 1}):
            raise ShapeMismatch(f"{self.path}: column {twice[0]!r} appears more than once in the header")
        numbers = [c for c in header if c not in text] if numbers is None else list(numbers)
        if missing := [c for c in (*text, *numbers) if c not in header]:
            raise ShapeMismatch(f"{self.path}: missing column(s) {missing}")
        at = [header.index(c) for c in (*text, *numbers)]
        k = header.index(where[0]) if where else None
        cells, values, lines, memo, line = [[] for _ in text], [], [], {}, 2
        while block := list(islice(rows, _BLOCK_ROWS)):
            if set(map(len, block)) - {width, 0}:
                n = next(n for n, r in enumerate(block) if len(r) not in (width, 0))
                raise ShapeMismatch(f"{self.path}: line {line + n} has {len(block[n])} fields, the header has {width}")
            kept = [n for n, r in enumerate(block) if r and (k is None or r[k] == where[1])]
            lines.append(np.array(kept, dtype=np.int64) + line)
            line += len(block)
            columns = [[block[n][i] for n in kept] for i in at]
            for out, column in zip(cells, columns):
                out.extend([memo.setdefault(cell, cell) for cell in column])
            try:
                values.append(np.array(columns[len(text):], dtype=float).reshape(len(numbers), len(kept)))
            except ValueError:
                for name, column in zip(numbers, columns[len(text):]):
                    for n, cell in enumerate(column):
                        try:
                            float(cell)
                        except ValueError:
                            raise self._fault(InvalidValue, dict(zip(header, block[kept[n]])), lines[-1][n],
                                              f"{name} is {cell!r}, need a number") from None
                raise
        self.lines = np.concatenate(lines) if lines else np.zeros(0, dtype=np.int64)
        self.n = len(self.lines)
        values = np.concatenate(values, axis=1) if values else np.empty((len(numbers), 0))
        self.columns: dict[str, Sequence] = {**dict(zip(text, cells)), **dict(zip(numbers, values))}

    def _fault(self, error: type[DataError], cells: dict, line: int, message: str) -> DataError:
        where = self.label.format(*cells.values(), **dict(cells, line=line))
        return error(f"{self.path}: {where}: {message}")

    def fault(self, error: type[DataError], n: int, message: str) -> DataError:
        """``error`` naming the file and kept row ``n``."""
        show = {c: v if isinstance(v := self.columns[c][n], str) else _show(v) for c in self.header if c in self.columns}
        return self._fault(error, show, self.lines[n], message)

    def unique(self, *names: str) -> list:
        """The ``names`` column (tuples for several) after checking no two rows share a value."""
        keys = list(self.columns[names[0]] if len(names) == 1 else zip(*(self.columns[c] for c in names)))
        if len(set(keys)) != len(keys):
            first: dict = {}
            for n, key in enumerate(keys):
                if key in first:
                    raise self.fault(ShapeMismatch, n, f"duplicate of line {self.lines[first[key]]}")
                first[key] = n
        return keys

    def numbers(self, names: Sequence[str], nonnegative: bool = False) -> np.ndarray:
        """len(names) x rows array; a NaN, inf or (if ``nonnegative``) negative raises ``InvalidValue``."""
        values = np.array([self.columns[c] for c in names]).reshape(len(names), self.n)
        bad = ~np.isfinite(values)
        if nonnegative:
            bad |= values < 0
        if bad.any():
            n, j = np.argwhere(bad.T)[0]
            need = "a finite number >= 0" if nonnegative else "a finite number"
            raise self.fault(InvalidValue, n, f"{names[j]} is {float(values[j, n])}, need {need}")
        return values

    def positions(self, name: str, index: Mapping[str, int], what: str) -> np.ndarray:
        """Each row's ``name`` mapped through ``index``; an unknown one raises ``ShapeMismatch``."""
        column = self.columns[name]
        try:
            return np.array([index[v] for v in column], dtype=np.int64)
        except KeyError:
            n = next(n for n, v in enumerate(column) if v not in index)
            raise self.fault(ShapeMismatch, n, f"unknown {what} {column[n]!r}") from None


def _show(value: float) -> str:
    """A number as it was most likely written: integral ones without ``.0``."""
    return repr(int(value)) if float(value).is_integer() else repr(float(value))


def _dense(table: Table, pos: np.ndarray, keys: Sequence[str], values: np.ndarray,
           week: str = "week_index") -> np.ndarray:
    """len(keys) x weeks x len(values) array of a table keyed by (``pos``, ``week``):
    every (key, week) from week 0 on must occur exactly once, else ``ShapeMismatch``."""
    if table.n == 0:
        raise ShapeMismatch(f"{table.path}: no data rows")
    weeks = table.numbers([week])[0]
    if (bad := (weeks < 0) | (weeks % 1 != 0)).any():
        n = int(np.argmax(bad))
        raise table.fault(ShapeMismatch, n, f"{week} is {_show(weeks[n])}, need an integer >= 0")
    weeks = weeks.astype(np.int64)
    n_weeks = int(weeks.max()) + 1
    order = np.lexsort((weeks, pos))
    p, w = pos[order], weeks[order]
    same = (p[1:] == p[:-1]) & (w[1:] == w[:-1])
    if same.any():
        i = int(np.argmax(same))
        first, second = sorted(order[i:i + 2])
        raise table.fault(ShapeMismatch, second, f"duplicate of line {table.lines[first]}")
    if table.n != len(keys) * n_weeks:  # sorted unique pairs: the first that breaks the full grid is missing
        k, t = np.divmod(np.arange(table.n), n_weeks)
        gap = np.flatnonzero((p != k) | (w != t))
        k, t = divmod(int(gap[0]) if gap.size else table.n, n_weeks)
        raise ShapeMismatch(f"{table.path}: {keys[k]} has no {week} {t} row")
    out = np.empty((len(keys), n_weeks, values.shape[0]))
    out[pos, weeks] = values.T
    return out


def _weekly_table(path, graph: PatchGraph, value_cols: Sequence[str] = (),
                  nonnegative: bool = False) -> tuple[np.ndarray, tuple[str, ...]]:
    """(patches x weeks x columns array, value columns: all but the key if none given) of a weekly CSV."""
    table = Table(path, ["patch_id"], ["week_index", *value_cols] if value_cols else None,
                  "patch {patch_id!r}, week {week_index}")
    value_cols = value_cols or tuple(c for c in table.header if c not in ("patch_id", "week_index"))
    pos = table.positions("patch_id", graph.patch_index, "patch")
    values = table.numbers(value_cols, nonnegative)
    return _dense(table, pos, [f"patch {p!r}" for p in graph.patch_ids], values), tuple(value_cols)


def load_graph(in_dir) -> tuple[PatchGraph, dict, dict]:
    """Read patches.csv + travel.csv; returns (graph, commute, facility)."""
    in_dir = Path(in_dir)
    patches = Table(in_dir / "patches.csv", ["patch_id", "region", "category"], ["population"],
                    "patch {patch_id!r}")
    for column in ("patch_id", "region"):
        if "" in patches.columns[column]:
            n = patches.columns[column].index("")
            raise patches.fault(ShapeMismatch, n, f"line {patches.lines[n]} has an empty {column}")
    ids = patches.unique("patch_id")
    patches.positions("category", {GENERAL: 0, NON_GENERAL: 1}, "category")
    [population] = patches.numbers(["population"], nonnegative=True).tolist()
    if 0 in population:  # the travel matrix divides by it
        raise patches.fault(InvalidValue, population.index(0), "population is 0, need a number > 0")
    travel = Table(in_dir / "travel.csv", ["src", "dst"], ["commute_flow", "facility_flow"],
                   "flow {src!r}->{dst!r}")
    pairs = travel.unique("src", "dst")
    for end in ("src", "dst"):
        travel.positions(end, dict.fromkeys(ids, 0), "patch")
    if loops := [n for n, (src, dst) in enumerate(pairs) if src == dst]:
        raise travel.fault(InvalidValue, loops[0], f"line {travel.lines[loops[0]]} flows from a patch to itself")
    flows = travel.numbers(["commute_flow", "facility_flow"], nonnegative=True).tolist()
    commute, facility = (dict(zip(pairs, f)) for f in flows)
    populations = dict(zip(ids, population))
    try:
        theta = build_travel_matrix(commute, facility, populations)
    except DataError as exc:
        raise type(exc)(f"{travel.path}: {exc}") from None
    graph = PatchGraph(populations, dict(zip(ids, patches.columns["region"])),
                       dict(zip(ids, patches.columns["category"])), theta)
    return graph, commute, facility


def load_dataset(in_dir, graph: PatchGraph, window: int | None = None, horizon: int = 4) -> DataSet:
    """Read cases.csv + features.csv into a DataSet.

    Initial infections are taken from the week-0 observed counts (capped
    at the patch populations).  When ``window`` is None it defaults to
    the full length minus the horizon.
    """
    in_dir = Path(in_dir)
    cases = in_dir / "cases.csv"
    observed = _weekly_table(cases, graph, ["count"], nonnegative=True)[0][:, :, 0]
    features, names = _weekly_table(in_dir / "features.csv", graph)
    if features.shape[1] != observed.shape[1]:
        raise ShapeMismatch("cases.csv and features.csv disagree on week count")
    total = observed.shape[1]
    if window is None:
        if horizon >= total:
            raise InvalidOption(f"horizon {horizon} leaves no training window in the {total} weeks of {cases}")
        window = total - horizon
    elif window + horizon > total:
        raise InvalidOption(f"window {window} + horizon {horizon} exceed the {total} weeks of {cases}")
    init = np.minimum(observed[:, 0], graph.populations)
    return DataSet(
        features=features,
        observed=observed,
        initial_infections=init,
        horizon=horizon,
        window=window,
        feature_names=names,
    )


def load_ground_truth_params(path, graph: PatchGraph) -> DiseaseParams:
    """Rebuild DiseaseParams from the ``param`` rows of a ground-truth (or params-only) CSV."""
    table = Table(path, ["kind", "id", "field"], ["week_index", "value"],
                  "{field} of region {id!r}, week {week_index}", where=("kind", "param"))
    field = table.positions("field", {name: f for f, name in enumerate(PARAM_NAMES)}, "field")
    region = table.positions("id", graph.region_index, "region")
    keys = [f"{name} of region {rid!r}" for name in PARAM_NAMES for rid in graph.region_ids]
    values = _dense(table, field * graph.n_regions + region, keys, table.numbers(["value"]))
    arrays = values[:, :, 0].reshape(len(PARAM_NAMES), graph.n_regions, -1)
    try:
        return DiseaseParams(region_ids=graph.region_ids, **dict(zip(PARAM_NAMES, arrays)))
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_series(path) -> np.ndarray:
    """The value column of a (week, value) CSV, in week order."""
    table = Table(path, [], None, "week {0}")
    if len(table.header) < 2:
        raise ShapeMismatch(f"{path}: expected (week, value) columns")
    week, value = table.header[:2]
    series = _dense(table, np.zeros(table.n, dtype=np.int64), ["the series"], table.numbers([value]), week)
    return series[0, :, 0]


def read_json(path, error: type[DataError]):
    """Strict JSON: an unreadable file, invalid JSON or a NaN/inf number raises ``error`` naming the file."""
    path = Path(path)

    def finite(token: str) -> float:
        if not math.isfinite(x := float(token)):
            raise error(f"{path}: non-finite number {token}")
        return x

    try:
        return json.loads(path.read_text(encoding="utf-8"), parse_float=finite, parse_constant=finite)
    except OSError as exc:
        raise error(f"cannot read {path} ({type(exc).__name__})") from None
    except ValueError as exc:
        raise error(f"{path}: not valid JSON ({exc})") from None


# -- checkpoints ------------------------------------------------------------

# The integer fields a checkpoint may hold: (lowest value, whether null is allowed)
_CHECKPOINT_INTS = {"seed": (0, False), "n_features": (1, False), "t_scale": (1, True)}


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
    config and the caller's ``fields``, reading any array field through
    ``checkpoint_array``.  Every int field of the config, ``seed``,
    ``n_features`` and ``t_scale`` must be JSON integers (not bools), the
    last three of at least ``_CHECKPOINT_INTS``'s low; ``bounds`` must be
    ``DEFAULT_PARAM_BOUNDS``, the one interval set every net uses, and
    ``extra`` must be an object.  The stored weights must have exactly that
    net's names and shapes.  Each fault raises ``CheckpointError`` naming
    the file and the key or the fault.
    """
    payload = read_json(path, CheckpointError)
    try:
        return _checked_net(payload, kind, config_type, fields, build), payload["extra"]
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def _checked_net(payload, kind: str, config_type, fields: Sequence[str], build):
    """``read_checkpoint``'s checks and net; a fault raises ``CheckpointError`` without the file name."""
    if not isinstance(payload, dict) or payload.get("kind") != kind:
        raise CheckpointError(f"not a {kind} checkpoint")
    _check_keys("key", payload, {"kind", "config", "seed", "weights", "extra", *fields})
    config_fields = dataclasses.fields(config_type)
    _check_keys("config key", payload["config"], {f.name for f in config_fields})
    for f in config_fields:
        if f.type in (int, "int") and type(payload["config"][f.name]) is not int:
            raise CheckpointError(f"config {f.name} is {json.dumps(payload['config'][f.name])}, need an integer")
    for key, (low, nullable) in _CHECKPOINT_INTS.items():
        value = payload.get(key)
        if key in payload and not (type(value) is int and value >= low or nullable and value is None):
            raise CheckpointError(f"{key} is {json.dumps(value)}, need an integer >= {low}"
                                  f"{' or null' if nullable else ''}")
    if "bounds" in payload:
        _check_keys("bound", payload["bounds"], set(PARAM_NAMES))
        for name, pair in payload["bounds"].items():
            if pair != list(DEFAULT_PARAM_BOUNDS[name]) or any(isinstance(v, bool) for v in pair):
                raise CheckpointError(f"bounds {name} is {json.dumps(pair)}, "
                                      f"need {json.dumps(DEFAULT_PARAM_BOUNDS[name])}")
    if not isinstance(payload["extra"], dict):
        raise CheckpointError(f"extra is {json.dumps(payload['extra'])}, need an object")
    try:
        net = build(config_type(**payload["config"]), payload["seed"], payload)
    except CheckpointError:
        raise
    except (DataError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed {kind} fields ({type(exc).__name__}: {exc})") from None
    _check_keys("weight", payload["weights"], set(net.weights))
    for name, init in net.weights.items():
        net.weights[name] = checkpoint_array(f"weight {name!r}", payload["weights"][name], init.shape)
    return net


def _check_keys(what: str, obj, expected: set) -> None:
    if not isinstance(obj, dict):
        raise CheckpointError(f"{what}s must be an object")
    if missing := sorted(expected - set(obj)):
        raise CheckpointError(f"missing {what}s {missing}")
    if unknown := sorted(set(obj) - expected):
        raise CheckpointError(f"unknown {what}s {unknown}")


def checkpoint_array(what: str, value, shape: tuple, positive: bool = False) -> np.ndarray:
    """``value`` as a float array of ``shape`` (a None entry matches any
    length) whose every leaf is a finite JSON number, not a bool, and > 0 if
    ``positive``; a fault raises ``CheckpointError`` naming ``what`` and the
    shape or the first bad value."""
    need = "finite positive" if positive else "finite"
    cells = np.array(value, dtype=object)
    if cells.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, cells.shape)):
        shown = str(tuple(shape)).replace("None", "n")
        raise CheckpointError(f"{what}: need {need} values of shape {shown}, got shape {cells.shape}")
    for leaf in cells.ravel().tolist():
        if type(leaf) not in (int, float) or not abs(leaf) <= sys.float_info.max or positive and leaf <= 0:
            raise CheckpointError(f"{what} holds {json.dumps(leaf)}, need a {need} number")
    return cells.astype(float)
