"""The one owner of the on-disk formats: every CSV and JSON file goes through here.

``INPUTS`` states each input CSV once; its readers, writers and tests read
it.  A column's kind is ``TEXT``, ``ID`` (not empty), ``NUMBER`` (finite),
``COUNT`` (>= 0: count, flows), ``POSITIVE`` (> 0: population) or ``WEEK``
(an integer >= 0); every listed column is required, the ``key`` is unique
and, with a week, covers every id x week from week 0; ``known`` columns
hold known patches, regions, categories or ``PARAM_NAMES``; ``rest`` is
features.csv's channels, at least one.  Valid too: a BOM, CRLF or LF, blank
lines, unused named columns and a header-only travel.csv (no travel).
``Table`` reads a file in one pass; a bad number raises ``InvalidValue``,
a bad key, id, column or coverage ``ShapeMismatch``, naming the file and
row (line or key) or column (CLI exit 3); an unreadable file is a
``DataError`` naming it.

Every CSV is written a block of columns at a time, each block of about
``_BLOCK_ROWS`` rows: the long writers cut their patch x week arrays into
blocks of whole patches (or regions) with numpy, and ``write_rows`` cuts
the small row-shaped result tables into blocks and transposes them.  One
formatter, ``_cells``, turns a column into text: floats with ``repr``
(integral ones as ints) after one numpy finiteness check, ints with
``str``, text quoted as ``csv``'s QUOTE_MINIMAL quotes it.  Reruns with
one seed give byte-identical files, and a NaN or inf raises
``NonFiniteOutput`` naming the file and line (CLI exit 4);
``write_trajectory`` first runs ``Trajectory.check`` and ``write_params``
and ``write_eakf_summary`` check ``PARAM_LO``/``PARAM_HI`` (widened by
1e-9), raising ``NumericalError`` naming the file, patch or parameter,
region and week.  ``write_json`` writes every JSON result.

``CHECKPOINTS`` states each checkpoint kind's fields (all: kind, config,
seed, weights, extra; calib: n_features, feature_names, bounds, norm_mean,
norm_std; adapter: scale, t_scale) and their rules: ``("equal", value)``
(an int may stand for a float), ``("int", low)``, ``("names", count key)``
(distinct, non-empty strings), ``("array", shape, positive)`` (a shape
entry is a length, None for any, or an int field's key) or ``("object",)``.
Only a fit net is written or read, every field set; the int, names and
array fields are the net's attributes.  A calib ``config`` holds its
dataclass's fields as JSON integers, an adapter's is ``core.ADAPTER_SHAPE``
and ``weights`` the net's names and shapes.  ``read_json`` is the strict
parse checkpoints share with ``--config`` files.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .core import (ADAPTER_SHAPE, DEFAULT_PARAM_BOUNDS, GENERAL, NON_GENERAL, PARAM_HI, PARAM_LO, PARAM_NAMES,
                   DataSet, DiseaseParams, PatchGraph, Trajectory, aggregate, build_travel_matrix)
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


def _write_blocks(path, header: Iterable[str], blocks: Iterable[Sequence]) -> Path:
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
        _write_blocks(out_dir / "patches.csv", INPUTS["patches"].columns, _row_blocks(
            ids, [graph.region_of[pid] for pid in ids], [graph.category_of[pid] for pid in ids], graph.populations)),
        _write_blocks(out_dir / "travel.csv", INPUTS["travel"].columns, _row_blocks(
            [src for src, _ in pairs], [dst for _, dst in pairs],
            np.array([commute_flows.get(pair, 0.0) for pair in pairs], dtype=float),
            np.array([facility_flows.get(pair, 0.0) for pair in pairs], dtype=float))),
        _write_blocks(out_dir / "cases.csv", INPUTS["cases"].columns, _long_blocks(ids, data.observed)),
        _write_blocks(out_dir / "features.csv", [*INPUTS["features"].columns, *data.feature_names],
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
    new = np.full(traj.S.shape, "", dtype=object)
    new[:, 1:] = traj.new_infections
    return _write_blocks(path, ["patch_id", "week_index", *_STATE_FIELDS],
                         _long_blocks(graph.patch_ids, traj.S, traj.I, traj.R, new))


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
    blocks = chain(_param_blocks(params), _state_blocks(graph.patch_ids, traj))
    return _write_blocks(path, INPUTS["params"].columns, blocks)


def write_params(path, params: DiseaseParams) -> Path:
    """Parameter-only long-format CSV (loadable by load_ground_truth_params)."""
    _check_bounds(path, params.as_dict(), params.region_ids)
    return _write_blocks(path, INPUTS["params"].columns, _param_blocks(params))


def write_eakf_summary(path, result, graph: PatchGraph) -> Path:
    """Weekly ensemble summary: state-level mean I plus parameter posteriors."""
    _check_bounds(path, result.param_mean, graph.region_ids)
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


def _check_bounds(path, params: Mapping[str, np.ndarray], region_ids: Sequence[str]) -> None:
    """Refuse a regions x weeks parameter outside ``PARAM_LO``/``PARAM_HI``
    widened by 1e-9 with ``NumericalError`` naming the file, parameter,
    region and week (a NaN is left to the writer's finiteness check)."""
    values = np.stack([params[name] for name in PARAM_NAMES])
    bad = (values < PARAM_LO.reshape(-1, 1, 1) - 1e-9) | (values > PARAM_HI.reshape(-1, 1, 1) + 1e-9)
    if bad.any():
        f, r, t = np.argwhere(bad)[0]
        raise NumericalError(f"{path}: {PARAM_NAMES[f]} of region {region_ids[r]!r}, week {t}: "
                             f"{float(values[f, r, t])!r} lies outside {list(DEFAULT_PARAM_BOUNDS[PARAM_NAMES[f]])}")


def write_series(path, values: np.ndarray) -> Path:
    """(week_index, value) CSV for a single time series."""
    values = np.asarray(values, dtype=float).ravel()
    return _write_blocks(path, INPUTS["series"].columns, _row_blocks(np.arange(len(values)), values))


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


# -- the input schema -------------------------------------------------------

# Column kinds: any text, an id (not empty), a finite number, a count or
# flow (>= 0), a population (> 0) and a week index (an integer >= 0).
TEXT, ID, NUMBER, COUNT, POSITIVE, WEEK = "text", "id", "number", ">= 0", "> 0", "week"
# the ids a ``known`` column may hold that no reader has to supply
_FIXED_IDS = {"category": {GENERAL: 0, NON_GENERAL: 1}, "field": {name: f for f, name in enumerate(PARAM_NAMES)}}


class _Input(NamedTuple):
    """One input CSV format, as the module docstring describes its fields."""
    columns: dict  # name -> kind, in header order
    key: tuple
    label: str  # ``str.format`` template naming a row by its cells and ``line``
    known: dict = {}  # column -> what its ids are
    rest: tuple | None = None  # (what, kind) of every other column
    where: tuple | None = None  # (column, value) of the rows read
    empty_ok: bool = False


# Every input CSV format by role; a bundle holds ``<role>.csv`` for the first four.
INPUTS = {
    "patches": _Input({"patch_id": ID, "region": ID, "category": TEXT, "population": POSITIVE}, ("patch_id",),
                      "patch {patch_id!r}", {"category": "category"}),
    "travel": _Input({"src": ID, "dst": ID, "commute_flow": COUNT, "facility_flow": COUNT}, ("src", "dst"),
                     "flow {src!r}->{dst!r}", {"src": "patch", "dst": "patch"}, empty_ok=True),
    "cases": _Input({"patch_id": ID, "week_index": WEEK, "count": COUNT}, ("patch_id", "week_index"),
                    "patch {patch_id!r}, week {week_index}", {"patch_id": "patch"}),
    "features": _Input({"patch_id": ID, "week_index": WEEK}, ("patch_id", "week_index"),
                       "patch {patch_id!r}, week {week_index}", {"patch_id": "patch"}, rest=("feature", NUMBER)),
    "params": _Input({"kind": TEXT, "id": ID, "week_index": WEEK, "field": TEXT, "value": NUMBER},
                     ("field", "id", "week_index"), "{field} of region {id!r}, week {week_index}",
                     {"field": "field", "id": "region"}, where=("kind", "param")),
    "series": _Input({"week_index": WEEK, "value": NUMBER}, ("week_index",), "week {week_index}"),
}


class Table:
    """One input CSV read against its ``INPUTS`` entry in one ``csv.reader``
    pass, a block of rows at a time, then checked.

    Text columns are kept as strings (one object per distinct value), number
    columns as floats converted in one numpy call per block.  ``ids`` maps
    "patch" or "region" to an id -> position index; ``at`` holds each known
    column's positions, ``keys`` each row's key when it holds no week and
    ``value_names`` the number columns outside the key.
    """

    def __init__(self, path, spec: _Input, ids: Mapping[str, Mapping[str, int]] | None = None):
        self.path, self.spec = Path(path), spec
        try:
            with open(self.path, encoding="utf-8-sig", newline="") as fh:
                rows = csv.reader(fh)
                self.header = next(rows, [])
                self._read(rows)
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"cannot read input file {self.path} ({type(exc).__name__})") from None
        self._check({**_FIXED_IDS, **(ids or {})})

    def _read(self, rows) -> None:
        spec, header, width = self.spec, self.header, len(self.header)
        if "" in header:
            raise ShapeMismatch(f"{self.path}: column {header.index('') + 1} of the header has no name")
        if twice := sorted({c for c in header if header.count(c) > 1}):
            raise ShapeMismatch(f"{self.path}: column {twice[0]!r} appears more than once in the header")
        if missing := [c for c in spec.columns if c not in header]:
            raise ShapeMismatch(f"{self.path}: missing column(s) {missing}")
        self.kinds = dict(spec.columns)
        if spec.rest:
            if not (rest := [c for c in header if c not in spec.columns]):
                raise ShapeMismatch(f"{self.path}: missing {spec.rest[0]} column(s): need one besides "
                                    f"{list(spec.columns)}")
            self.kinds.update(dict.fromkeys(rest, spec.rest[1]))
        text = [c for c, kind in self.kinds.items() if kind in (TEXT, ID)]
        numbers = [c for c in self.kinds if c not in text]
        self.value_names = [c for c in numbers if c not in spec.key]
        at = [header.index(c) for c in (*text, *numbers)]
        k, keep = (header.index(spec.where[0]), spec.where[1]) if spec.where else (None, None)
        cells, values, lines, memo, line = [[] for _ in text], [], [], {}, 2
        while block := list(islice(rows, _BLOCK_ROWS)):
            if set(map(len, block)) - {width, 0}:
                n = next(n for n, r in enumerate(block) if len(r) not in (width, 0))
                raise ShapeMismatch(f"{self.path}: line {line + n} has {len(block[n])} fields, the header has {width}")
            kept = [n for n, r in enumerate(block) if r and (k is None or r[k] == keep)]
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

    def _check(self, ids: Mapping[str, Mapping[str, int]]) -> None:
        spec = self.spec
        if self.n == 0 and not spec.empty_ok:
            raise ShapeMismatch(f"{self.path}: no data rows")
        for name, kind in self.kinds.items():
            column = self.columns[name]
            if kind == ID and "" in column:
                n = column.index("")
                raise self.fault(ShapeMismatch, n, f"line {self.lines[n]} has an empty {name}")
            if kind not in (TEXT, ID) and (bad := ~np.isfinite(column) | (
                    column < 0 if kind == COUNT else column <= 0 if kind == POSITIVE else False)).any():
                n, low = int(np.argmax(bad)), {COUNT: " >= 0", POSITIVE: " > 0"}.get(kind, "")
                raise self.fault(InvalidValue, n, f"{name} is {float(column[n])}, need a finite number{low}")
            if kind == WEEK and (bad := (column < 0) | (column % 1 != 0)).any():
                n = int(np.argmax(bad))
                raise self.fault(ShapeMismatch, n, f"{name} is {_show(column[n])}, need an integer >= 0")
        self.at = {}
        for name, what in spec.known.items():
            try:
                self.at[name] = np.array([ids[what][v] for v in self.columns[name]], dtype=np.int64)
            except KeyError:
                n = next(n for n, v in enumerate(self.columns[name]) if v not in ids[what])
                raise self.fault(ShapeMismatch, n, f"unknown {what} {self.columns[name][n]!r}") from None
        if WEEK not in (self.kinds[c] for c in spec.key):  # a key with a week is checked by ``_dense``
            self.keys, first = list(zip(*(self.columns[c] for c in spec.key))), {}
            for n, key in enumerate(self.keys):
                if first.setdefault(key, n) != n:
                    raise self.fault(ShapeMismatch, n, f"duplicate of line {self.lines[first[key]]}")

    def _fault(self, error: type[DataError], cells: dict, line: int, message: str) -> DataError:
        return error(f"{self.path}: {self.spec.label.format(**dict(cells, line=line))}: {message}")

    def fault(self, error: type[DataError], n: int, message: str) -> DataError:
        """``error`` naming the file and kept row ``n``."""
        show = {c: v if isinstance(v := self.columns[c][n], str) else _show(v) for c in self.header if c in self.columns}
        return self._fault(error, show, self.lines[n], message)



def _show(value: float) -> str:
    """A number as it was most likely written: integral ones without ``.0``."""
    return repr(int(value)) if float(value).is_integer() else repr(float(value))


def _dense(table: Table, pos: np.ndarray, keys: Sequence[str]) -> np.ndarray:
    """len(keys) x weeks x value-column array of a table keyed by (``pos``, its week):
    every (key, week) from week 0 on must occur exactly once, else ``ShapeMismatch``."""
    week = next(c for c in table.spec.key if table.kinds[c] == WEEK)
    weeks = table.columns[week].astype(np.int64)
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
    out = np.empty((len(keys), n_weeks, len(table.value_names)))
    out[pos, weeks] = np.array([table.columns[c] for c in table.value_names]).T
    return out


def _weekly_table(in_dir: Path, role: str, graph: PatchGraph) -> tuple[np.ndarray, tuple[str, ...]]:
    """(patches x weeks x value columns array, value column names) of a bundle's weekly CSV."""
    table = Table(in_dir / f"{role}.csv", INPUTS[role], {"patch": graph.patch_index})
    keys = [f"patch {p!r}" for p in graph.patch_ids]
    return _dense(table, table.at["patch_id"], keys), tuple(table.value_names)


def load_graph(in_dir) -> tuple[PatchGraph, dict, dict]:
    """Read patches.csv + travel.csv; returns (graph, commute, facility)."""
    in_dir = Path(in_dir)
    patches = Table(in_dir / "patches.csv", INPUTS["patches"])
    ids = patches.columns["patch_id"]
    travel = Table(in_dir / "travel.csv", INPUTS["travel"], {"patch": dict.fromkeys(ids, 0)})
    pairs = travel.keys
    if loops := [n for n, (src, dst) in enumerate(pairs) if src == dst]:
        raise travel.fault(InvalidValue, loops[0], f"line {travel.lines[loops[0]]} flows from a patch to itself")
    commute, facility = (dict(zip(pairs, travel.columns[c].tolist())) for c in ("commute_flow", "facility_flow"))
    populations = dict(zip(ids, patches.columns["population"].tolist()))
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
    observed = _weekly_table(in_dir, "cases", graph)[0][:, :, 0]
    features, names = _weekly_table(in_dir, "features", graph)
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
    table = Table(path, INPUTS["params"], {"region": graph.region_index})
    keys = [f"{name} of region {rid!r}" for name in PARAM_NAMES for rid in graph.region_ids]
    values = _dense(table, table.at["field"] * graph.n_regions + table.at["id"], keys)
    arrays = values[:, :, 0].reshape(len(PARAM_NAMES), graph.n_regions, -1)
    try:
        return DiseaseParams(region_ids=graph.region_ids, **dict(zip(PARAM_NAMES, arrays)))
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_series(path) -> np.ndarray:
    """The value column of a (week_index, value) CSV, in week order."""
    table = Table(path, INPUTS["series"])
    return _dense(table, np.zeros(table.n, dtype=np.int64), ["the series"])[0, :, 0]


def read_json(path, error: type[DataError]):
    """Strict JSON: an unreadable file, invalid JSON or a NaN/inf number (named
    with its key) raises ``error`` naming the file."""
    path = Path(path)
    bad: list = []

    def finite(token: str):
        if math.isfinite(x := float(token)):
            return x
        bad.append(token)
        return bad  # found again below by identity

    try:
        payload = json.loads(path.read_text(encoding="utf-8"), parse_float=finite, parse_constant=finite)
    except OSError as exc:
        raise error(f"cannot read {path} ({type(exc).__name__})") from None
    except ValueError as exc:
        raise error(f"{path}: not valid JSON ({exc})") from None
    if bad:
        raise error(f"{path}: non-finite number {bad[0]} at {''.join(f'[{k!r}]' for k in _key_path(payload, bad))}")
    return payload


def _key_path(obj, target) -> list | None:
    """The keys and indices leading to the first ``target`` (by identity) inside ``obj``."""
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ():
        if (below := [] if value is target else _key_path(value, target)) is not None:
            return [key, *below]
    return None if obj is not target else []


# -- checkpoints ------------------------------------------------------------

# The fields of each kind of checkpoint, in the order they are checked, and
# their rules, as the module docstring describes them.
CHECKPOINTS = {kind: {"kind": ("equal", kind), "config": config, "seed": ("int", 0), "weights": ("object",),
                      "extra": ("object",), **fields} for kind, config, fields in (
    ("calib", ("object",), {
        "n_features": ("int", 1), "feature_names": ("names", "n_features"),
        "bounds": ("equal", {name: list(pair) for name, pair in DEFAULT_PARAM_BOUNDS.items()}),
        "norm_mean": ("array", (1, 1, "n_features"), False), "norm_std": ("array", (1, 1, "n_features"), True)}),
    ("adapter", ("equal", ADAPTER_SHAPE), {"scale": ("array", (None,), True), "t_scale": ("int", 1)}),
)}


def write_checkpoint(path, kind: str, net, extra: dict | None = None) -> Path:
    """JSON of ``net``'s ``CHECKPOINTS[kind]`` fields plus ``extra``; a net never fit
    (a field still None) raises ``InvalidOption``, a non-finite number ``CheckpointError``."""
    payload = {"extra": extra or {}, "weights": {k: np.asarray(v).tolist() for k, v in net.weights.items()}}
    for key, rule in CHECKPOINTS[kind].items():
        if key not in payload:
            value = rule[1] if rule[0] == "equal" else getattr(net, key)
            if value is None:
                raise InvalidOption(f"{path}: the {kind} net was never fit ({key} is not set)")
            payload[key] = (dataclasses.asdict(value) if dataclasses.is_dataclass(value)
                            else value.tolist() if isinstance(value, np.ndarray) else value)
    try:
        text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    path = Path(path)
    path.write_text(text + "\n", encoding="utf-8")
    return path


def read_checkpoint(path, kind: str, config_type, build: Callable[[dict], object]):
    """Read a ``write_checkpoint`` file back into a net.

    Every field is checked against ``CHECKPOINTS[kind]`` and a calib config
    against ``config_type`` (None for the adapter's fixed one); ``build(fields)``
    makes a fresh net, which then takes the int, names and array fields and
    the stored weights.  A fault raises ``CheckpointError`` naming file and key.
    """
    payload = read_json(path, CheckpointError)
    try:
        return _checked_net(payload, kind, config_type, build)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def _checked_net(payload, kind: str, config_type, build):
    """``read_checkpoint``'s checks and net; a fault raises ``CheckpointError`` without the file name."""
    rules = CHECKPOINTS[kind]
    if not isinstance(payload, dict):
        raise CheckpointError(f"not a {kind} checkpoint (need a JSON object)")
    _checked("kind", payload.get("kind"), rules["kind"], payload)  # before the keys: a checkpoint of another kind
    _check_keys("keys", payload, set(rules))
    fields = {key: _checked(key, payload[key], rule, payload) for key, rule in rules.items()}
    if config_type is not None:
        config = payload["config"]
        _check_keys("config keys", config, {f.name for f in dataclasses.fields(config_type)})
        for name, value in config.items():
            if type(value) is not int:
                raise CheckpointError(f"config {name} is {json.dumps(value)}, need an integer")
        try:
            fields["config"] = config_type(**config)
        except DataError as exc:
            raise CheckpointError(f"config {exc}") from None
    net = build(fields)
    for key, rule in rules.items():
        if rule[0] in ("int", "names", "array"):
            setattr(net, key, fields[key])
    _check_keys("weights", payload["weights"], set(net.weights))
    for name, init in net.weights.items():
        net.weights[name] = _array(f"weight {name!r}", payload["weights"][name], init.shape)
    return net


def _checked(key: str, value, rule: tuple, payload: dict):
    """``value`` (an array field as a float array, names as a tuple) if it
    meets its ``CHECKPOINTS`` rule, else ``CheckpointError``."""
    if rule[0] == "equal" and isinstance(rule[1], dict):
        _check_keys(key, value, set(rule[1]))
        for name, want in rule[1].items():
            _checked(f"{key} {name}", value[name], ("equal", want), payload)
    elif rule[0] == "equal" and not _same(value, rule[1]):
        raise CheckpointError(f"{key} is {json.dumps(value)}, need {json.dumps(rule[1])}")
    elif rule[0] == "int" and not (type(value) is int and value >= rule[1]):
        raise CheckpointError(f"{key} is {json.dumps(value)}, need an integer >= {rule[1]}")
    elif rule[0] == "names":
        n = payload[rule[1]]
        if not (isinstance(value, list) and all(type(name) is str for name in value)
                and len(value) == len(set(value) - {""}) == n):
            raise CheckpointError(f"{key} is {json.dumps(value)}, need {n} distinct, non-empty strings")
        return tuple(value)
    elif rule[0] == "array":
        return _array(key, value, tuple(payload[n] if isinstance(n, str) else n for n in rule[1]), rule[2])
    elif rule[0] == "object" and not isinstance(value, dict):
        raise CheckpointError(f"{key} is {json.dumps(value)}, need an object")
    return value


def _same(value, want) -> bool:
    """``value == want`` leaf by leaf; an int may stand for a float, nothing else for another type."""
    if isinstance(want, list):
        return isinstance(value, list) and len(value) == len(want) and all(map(_same, value, want))
    return type(value) in ((int, float) if type(want) is float else (type(want),)) and value == want


def _check_keys(what: str, obj, expected: set) -> None:
    if not isinstance(obj, dict):
        raise CheckpointError(f"{what} must be an object")
    if missing := sorted(expected - set(obj)):
        raise CheckpointError(f"missing {what} {missing}")
    if unknown := sorted(set(obj) - expected):
        raise CheckpointError(f"unknown {what} {unknown}")


def _array(what: str, value, shape: tuple, positive: bool = False) -> np.ndarray:
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
