"""The column-block CSV writer against the row writer it replaced.

``_oracle_write_rows`` is the earlier writer: ``csv.writer`` over blocks of
rows whose float cells were formatted by ``_oracle_cells``.  The synth
files are rebuilt row by row, as the earlier ``write_inputs`` and
``write_ground_truth`` built them, and every byte must match.
"""

import csv
import tracemalloc
from itertools import chain, islice, zip_longest

import numpy as np
import pytest

from calypso import io
from calypso.errors import NonFiniteOutput
from calypso.synth import SynthSpec, generate


def _oracle_cells(column, line):
    at = [i for i, cell in enumerate(column) if isinstance(cell, float)]
    if not at:
        return column
    values = np.array([column[i] for i in at])
    if not (finite := np.isfinite(values)).all():
        i = int(np.argmin(finite))
        raise NonFiniteOutput(f"line {line + at[i]}: non-finite number {values[i]}")
    cells = list(column)
    for i, value, whole in zip(at, values.tolist(), ((values % 1 == 0) & (abs(values) < 1e15)).tolist()):
        cells[i] = repr(int(value)) if whole else repr(value)
    return cells


def _oracle_write_rows(path, header, rows):
    rows, line = iter(rows), 2
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        while block := list(islice(rows, 512)):
            w.writerows(zip(*(_oracle_cells(column, line) for column in zip(*block))))
            line += len(block)
    return path


def _long_rows(ids, matrix):
    return ((i, t, v) for i, row in zip(ids, np.asarray(matrix)) for t, v in enumerate(row.tolist()))


def _oracle_synth_files(out, bundle):
    """The five synth files as the row writers wrote them."""
    graph, data, params, traj = bundle.graph, bundle.data, bundle.params, bundle.trajectory
    ids = graph.patch_ids
    commute, facility = bundle.commute_flows, bundle.facility_flows
    param_rows = (("param", rid, t, name, v) for name, arr in params.as_dict().items()
                  for rid, t, v in _long_rows(params.region_ids, arr))
    state_rows = (("state", pid, t, field, v)
                  for pid, S, I, R, N in zip(ids, traj.S, traj.I, traj.R, traj.new_infections)
                  for t, week in enumerate(zip_longest(S.tolist(), I.tolist(), R.tolist(), N.tolist()))
                  for field, v in zip(("S", "I", "R", "new_infections"), week) if v is not None)
    _oracle_write_rows(out / "patches.csv", ["patch_id", "region", "category", "population"],
                       ((pid, graph.region_of[pid], graph.category_of[pid], pop)
                        for pid, pop in zip(ids, graph.populations.tolist())))
    _oracle_write_rows(out / "travel.csv", ["src", "dst", "commute_flow", "facility_flow"],
                       ((src, dst, commute.get((src, dst), 0.0), facility.get((src, dst), 0.0))
                        for src, dst in sorted(set(commute) | set(facility))))
    _oracle_write_rows(out / "cases.csv", ["patch_id", "week_index", "count"], _long_rows(ids, data.observed))
    _oracle_write_rows(out / "features.csv", ["patch_id", "week_index", *data.feature_names],
                       ((pid, t, *row) for pid, block in zip(ids, data.features)
                        for t, row in enumerate(block.tolist())))
    _oracle_write_rows(out / "ground_truth.csv", ["kind", "id", "week_index", "field", "value"],
                       chain(param_rows, state_rows))


def _mixed_rows(n):
    """Rows over several blocks: quoted text, None, ints and floats of every kind."""
    texts = ["plain", "a,b", 'say "hi"', "two\nlines", "carriage\rreturn", '""', "", " padded "]
    floats = [-0.0, 0.1, 1e15 - 1, 1e15, 1e16, 5e-324, 2.5, -3.0]
    for i in range(n):
        x = floats[i % len(floats)]
        yield (texts[i % len(texts)], i, np.int64(-i), x, np.float64(x) * (1 + i % 3),
               None if i % 5 == 0 else texts[(i * 3) % len(texts)],
               x if i % 4 else i, None if i % 7 == 0 else np.float64(i) / 7)


_MIXED_HEADER = ["text", "int", "np_int", "float", "np_float", "text_or_none", "float_or_int", "np_float_or_none"]


class TestColumnBlockWriter:
    def test_synth_files_match_the_row_writer(self, tmp_path):
        bundle = generate(SynthSpec(n_patches=24, n_regions=4, seed=1))
        new, old = tmp_path / "new", tmp_path / "old"
        old.mkdir()
        written = bundle.write(new)
        _oracle_synth_files(old, bundle)
        assert sorted(p.name for p in written) == sorted(p.name for p in old.iterdir())
        for path in written:
            assert path.read_bytes() == (old / path.name).read_bytes(), path.name

    def test_every_kind_of_cell_matches_the_row_writer(self, tmp_path):
        rows = list(_mixed_rows(3 * 512 + 17))
        io.write_rows(tmp_path / "new.csv", _MIXED_HEADER, rows)
        _oracle_write_rows(tmp_path / "old.csv", _MIXED_HEADER, rows)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        for text in (b'"a,b"', b'"say ""hi"""', b'"two\nlines"', b'"carriage\rreturn"', b'""""""',
                     b",0,", b",999999999999999,", b",1000000000000000.0,", b",1e+16,", b",5e-324,"):
            assert text in new

    def test_one_column_rows_of_one_empty_cell_are_quoted(self, tmp_path):
        rows = [("",), (None,), ("x",), (1.5,)]
        io.write_rows(tmp_path / "new.csv", ["only"], rows)
        _oracle_write_rows(tmp_path / "old.csv", ["only"], rows)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes() == b'only\r\n""\r\n""\r\nx\r\n1.5\r\n'

    @pytest.mark.parametrize("column", [3, 4, 7])
    def test_nan_in_the_second_block_names_its_line(self, tmp_path, column):
        rows = [list(row) for row in _mixed_rows(3 * 512)]
        rows[600][column] = float("nan")  # row 600 is file line 602, in the second block
        path = tmp_path / "bad.csv"
        with pytest.raises(NonFiniteOutput, match=r"bad\.csv: line 602: non-finite number nan"):
            io.write_rows(path, _MIXED_HEADER, rows)

    def test_long_writers_refuse_non_finite(self, tmp_path):
        bundle = generate(SynthSpec(n_patches=8, n_regions=2, weeks=10, horizon=2, seed=2))
        series = bundle.trajectory.weekly_series.copy()
        series[5, 3] = np.inf  # patch 5 of 8, week 3: line 2 + 5 * 12 + 3
        with pytest.raises(NonFiniteOutput, match=r"forecast_patch\.csv: line 65: non-finite number inf"):
            io.write_level_series(tmp_path, bundle.graph, series, "forecast")

    def test_writing_a_county_bundle_stays_small(self, tmp_path):
        bundle = generate(SynthSpec(n_patches=240, n_regions=40, seed=1))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            bundle.write(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 2 * 2**20, f"{(peak - start) / 2**20:.2f} MiB above the start"
