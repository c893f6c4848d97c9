"""A fault sweep generated from the input tables ``io.INPUTS`` and ``io.CHECKPOINTS``.

Each column of each input CSV of a tiny ``synth`` bundle (plus its
``ground_truth.csv`` and a ``metrics`` series pair) gets every fault that
applies to its kind, and each file gets the row, column and whole-file
faults; each field of a calib and an adapter checkpoint gets the faults of
its rule (each entry of a fixed object, such as the adapter's ``config``,
its own).  A case must exit 3 naming the file and the row (its line or
key), column or checkpoint key, and leave ``--out`` empty, unless
``ACCEPTED`` lists it with the reason it is valid input.  Training and
simulation are stubbed, so every refusal comes before any work.
"""

import copy
import csv
import dataclasses
import json
import math
import shutil

import numpy as np
import pytest

from calypso import adapter as adapter_mod
from calypso import calib, cli, eakf, io, synth
from calypso.cli import main

# input file -> (its INPUTS role, the command that reads it)
FILES = {"patches.csv": ("patches", "eakf"), "travel.csv": ("travel", "eakf"), "cases.csv": ("cases", "eakf"),
         "features.csv": ("features", "eakf"), "ground_truth.csv": ("params", "simulate"),
         "pred.csv": ("series", "metrics"), "truth.csv": ("series", "metrics")}
ROW = 4  # rows[ROW] is the mutated data row, file line ROW + 1

# Cases that are valid input, with the reason: a name ends the case id of every file.
ACCEPTED = {
    "bom": "a UTF-8 byte-order mark is read past",
    "lf": "LF line ends read as the CRLF the writers write",
    "trailing-blank-line": "blank lines hold no row",
    "unused-extra-column": "a named column no reader uses is not read (in features.csv it is one more channel)",
    "travel.csv-header-only": "no travel: every patch stays home",
    "travel.csv-dropped-row": "a pair without a row has no flow",
    "patches.csv-region-x": "the file defines the regions",
}
# Cases another file refuses: patches.csv defines the patch ids, so the files that name the old id refuse it.
REFUSED_ELSEWHERE = {"patches.csv-dropped-row", "patches.csv-patch_id-x"}


def _cell_values(role: str, column: str) -> dict:
    """The bad cells of one column, by case name: number kinds get every
    non-number and what their bound refuses; an id or text column gets an
    empty cell and one more value, which a column of known ids refuses."""
    spec = io.INPUTS[role]
    kind = spec.columns.get(column, spec.rest and spec.rest[1])
    values = {"empty": "", "x": "x", "nan": "nan", "inf": "inf", "minus-inf": "-inf"}
    if kind in (io.TEXT, io.ID):
        return values if column in spec.known or spec.where and column == spec.where[0] else {"empty": "", "x": "x"}
    if kind in (io.COUNT, io.POSITIVE, io.WEEK):
        values["minus-one"] = "-1"
    if kind == io.POSITIVE:
        values["zero"] = "0"
    if kind == io.WEEK:
        values["half"] = "1.5"
    return values


def _set_cell(row, column, value):
    def edit(rows):
        rows[row][rows[0].index(column)] = value
    return edit


def _drop_column(column):
    def edit(rows):
        i = rows[0].index(column)
        for row in rows:
            del row[i]
    return edit


def _csv_cases() -> list:
    """(case id, file, "rows" or "text", edit, what the refusal names: None for a row fault)."""
    cases = []
    features = list(synth.FEATURE_NAMES)
    for file, (role, _) in FILES.items():
        spec = io.INPUTS[role]
        columns = list(spec.columns) + (features if spec.rest else [])
        for column in columns:
            cases += [(f"{file}-{column}-{name}", file, "rows", _set_cell(ROW, column, value), None)
                      for name, value in _cell_values(role, column).items()]
            cases.append((f"{file}-{column}-empty-name", file, "rows", _set_cell(0, column, ""),
                          [f"column {columns.index(column) + 1} of the header has no name"]))
            if column in spec.columns:
                cases.append((f"{file}-{column}-dropped", file, "rows", _drop_column(column),
                              [f"missing column(s) ['{column}']"]))
        cases += [
            (f"{file}-duplicated-row", file, "rows", lambda rows: rows.append(list(rows[ROW])),
             [f"duplicate of line {ROW + 1}"]),
            (f"{file}-dropped-row", file, "rows", lambda rows: rows.pop(ROW), None),
            (f"{file}-header-only", file, "rows", lambda rows: rows.__delitem__(slice(1, None)), ["no data rows"]),
            (f"{file}-empty-file", file, "text", lambda text: "", ["missing column(s)"]),
            (f"{file}-bom", file, "text", lambda text: "\ufeff" + text, None),
            (f"{file}-lf", file, "text", lambda text: text.replace("\r\n", "\n"), None),
            (f"{file}-trailing-blank-line", file, "text", lambda text: text + "\r\n", None),
            (f"{file}-unused-extra-column", file, "rows",
             lambda rows: [row.append("1" if i else "note") for i, row in enumerate(rows)], None),
        ]
    cases.append(("travel.csv-self-loop", "travel.csv", "rows", lambda rows: rows[ROW].__setitem__(1, rows[ROW][0]),
                  [f"line {ROW + 1} flows from a patch to itself"]))
    cases.append(("features.csv-no-feature-column", "features.csv", "rows",
                  lambda rows: rows.__setitem__(slice(None), [row[:2] for row in rows]),
                  ["missing feature column(s)"]))
    return cases


def _accepted(case: str) -> bool:
    return case in ACCEPTED or case.split("-", 1)[1] in ACCEPTED


class _Reached(Exception):
    """A stub ran: the input was accepted."""


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A tiny synth bundle with a metrics series pair, a calib and an adapter
    checkpoint, and the forecast the stub hands back."""
    root = tmp_path_factory.mktemp("schema")
    data = root / "data"
    assert main(["synth", "--seed", "5", "--out", str(data), "--patches", "8", "--regions", "2",
                 "--weeks", "20", "--horizon", "4"]) == 0
    io.write_series(data / "pred.csv", np.array([1.0, 2.0, 4.0, 3.0, 5.0, 6.0]))
    io.write_series(data / "truth.csv", np.array([1.5, 2.0, 3.0, 3.5, 5.0, 7.0]))
    assert main(["calibrate", "--data", str(data), "--out", str(root / "fit"), "--epochs", "2"]) == 0
    assert main(["adapter", "--data", str(data), "--checkpoint", str(root / "fit" / "checkpoint.json"),
                 "--epochs", "1", "--out", str(root / "fit")]) == 0
    graph, _, _ = io.load_graph(data)
    dataset = io.load_dataset(data, graph)
    net = calib.load_checkpoint(root / "fit" / "checkpoint.json")
    return data, root / "fit", calib.forecast(net, dataset, graph, 4)


@pytest.fixture
def stubs(bundle, monkeypatch):
    def reached(*args, **kwargs):
        raise _Reached

    for module, name in [(calib, "train_joint"), (adapter_mod, "train_adapter"), (eakf, "run_eakf"),
                         (cli, "simulate")]:
        monkeypatch.setattr(module, name, reached)
    monkeypatch.setattr(calib, "forecast", lambda *args: bundle[2])


def _run(argv, out) -> int | None:
    """The exit code, or None when a stub ran."""
    try:
        return main(argv + ["--out", str(out)])
    except _Reached:
        return None


def _argv(file, data):
    command = FILES[file][1]
    if command == "metrics":
        return ["metrics", "--pred", str(data / "pred.csv"), "--truth", str(data / "truth.csv")]
    return [command, "--data", str(data)] + (["--size", "4"] if command == "eakf" else [])


_CSV_CASES = _csv_cases()


@pytest.mark.parametrize("case, file, target, edit, names", _CSV_CASES, ids=[c[0] for c in _CSV_CASES])
def test_every_input_csv_fault_exits_three_naming_file_and_row(bundle, stubs, tmp_path, capsys,
                                                                case, file, target, edit, names):
    data = tmp_path / "data"
    shutil.copytree(bundle[0], data)
    path = data / file
    text = path.read_text(encoding="utf-8")
    original = list(csv.reader(text.splitlines()))
    rows = copy.deepcopy(original)
    if target == "text":
        path.write_text(edit(text), encoding="utf-8")
    else:
        edit(rows)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
    capsys.readouterr()
    code = _run(_argv(file, data), tmp_path / "o")
    err = capsys.readouterr().err
    if _accepted(case):
        assert code in (None, 0), err
        return
    assert code == 3, err
    assert not (tmp_path / "o").exists()
    if case in REFUSED_ELSEWHERE:
        assert f"unknown patch {original[ROW][0]!r}" in err, err
        return
    assert f"{file}: " in err, err
    if names is None:  # a row fault: its line, its label (edited or not) or, for a week key, the missing (key, week)
        label = io.INPUTS[FILES[file][0]].label
        names = [f"line {ROW + 1}"] + [label.format(**dict(zip(original[0], row)), line=ROW + 1)
                                       for row in (original[ROW], rows[ROW])]
        if "week_index" in original[0]:
            names.append(f"has no week_index {original[ROW][original[0].index('week_index')]} row")
    assert any(name in err for name in names), (names, err)


def _set_first_leaf(holder, key, new):
    """Set the first number of ``holder[key]``, a number or a nested list, to ``new``."""
    while isinstance(holder[key], list):
        holder, key = holder[key], 0
    holder[key] = new


def _array_edits(holder_path, key, ndim) -> dict:
    """nan, one longer and (with an axis) one shorter along the first axis, null, removed."""
    def at(payload):
        for k in holder_path:
            payload = payload[k]
        return payload

    def longer(payload):
        holder = at(payload)
        holder[key] = holder[key] + [holder[key][-1]] if isinstance(holder[key], list) else [holder[key]]

    edits = {"nan": lambda p: _set_first_leaf(at(p), key, math.nan), "longer": longer,
             "null": lambda p: at(p).__setitem__(key, None), "removed": lambda p: at(p).pop(key)}
    if ndim:
        edits["shorter"] = lambda p: at(p)[key].pop()
    return edits


def _checkpoint_cases() -> list:
    """(case id, file, edit of the parsed checkpoint, the key the refusal names)."""
    cases = []
    nets = {"calib": (calib.CalibNet(4), [f.name for f in dataclasses.fields(calib.CalibConfig)], "checkpoint.json"),
            "adapter": (adapter_mod.AdapterNet(), [], "adapter.json")}
    for kind, (net, config_fields, file) in nets.items():
        for key, rule in io.CHECKPOINTS[kind].items():
            edits = {"removed": lambda p, k=key: p.pop(k), "wrong-type": lambda p, k=key: p.__setitem__(k, [5])}
            if rule[0] == "array":
                edits = _array_edits([], key, len(rule[1]))
            elif rule[0] == "int":
                edits.update({"float": lambda p, k=key: p.__setitem__(k, 1.5),
                              "below-low": lambda p, k=key, low=rule[1]: p.__setitem__(k, low - 1),
                              "nan": lambda p, k=key: p.__setitem__(k, math.nan),
                              "null": lambda p, k=key: p.__setitem__(k, None)})
            elif rule[0] == "names":
                edits.update({"not-a-list": lambda p, k=key: p.__setitem__(k, p[k][0]),
                              "empty-name": lambda p, k=key: p[k].__setitem__(0, ""),
                              "duplicate": lambda p, k=key: p[k].__setitem__(1, p[k][0]),
                              "shorter": lambda p, k=key: p[k].pop(),
                              "longer": lambda p, k=key: p[k].append("extra"),
                              "null": lambda p, k=key: p.__setitem__(k, None)})
            elif rule[0] == "equal" and isinstance(rule[1], dict):
                first = next(iter(rule[1]))
                edits.update({"other-value": lambda p, k=key, f=first: p[k].__setitem__(f, [-5, 5]),
                              "nan": lambda p, k=key, f=first: _set_first_leaf(p[k], f, math.nan)})
                for name, want in rule[1].items():  # each entry, a fixed adapter shape's too
                    entry = {"removed": lambda p, k=key, f=name: p[k].pop(f),
                             "wrong-type": lambda p, k=key, f=name: p[k].__setitem__(f, "x")}
                    if type(want) is int:
                        entry.update({"float": lambda p, k=key, f=name, v=float(want): p[k].__setitem__(f, v),
                                      "other-value": lambda p, k=key, f=name, v=want + 1: p[k].__setitem__(f, v)})
                    cases += [(f"{kind}-{key}-{name}-{case}", file, edit, name) for case, edit in entry.items()]
            elif rule[0] == "equal":
                edits["other-value"] = lambda p, k=key: p.__setitem__(k, "x")
            cases += [(f"{kind}-{key}-{name}", file, edit, key) for name, edit in edits.items()]
        for field in config_fields:
            for name, value in (("wrong-type", "x"), ("float", 2.5), ("below-low", -1)):
                cases.append((f"{kind}-config-{field}-{name}", file,
                              lambda p, f=field, v=value: p["config"].__setitem__(f, v), field))
        for weight in net.weights:
            cases += [(f"{kind}-weight-{weight}-{name}", file, edit, weight)
                      for name, edit in _array_edits(["weights"], weight, net.weights[weight].ndim).items()]
    return cases


_CHECKPOINT_CASES = _checkpoint_cases()


@pytest.mark.parametrize("case, file, edit, key", _CHECKPOINT_CASES, ids=[c[0] for c in _CHECKPOINT_CASES])
def test_every_checkpoint_fault_exits_three_naming_file_and_key(bundle, stubs, tmp_path, capsys,
                                                                case, file, edit, key):
    data, fit, _ = bundle
    paths = {name: fit / name for name in ("checkpoint.json", "adapter.json")}
    payload = json.loads(paths[file].read_text())
    edit(payload)
    paths[file] = tmp_path / file
    paths[file].write_text(json.dumps(payload))
    capsys.readouterr()
    code = _run(["forecast", "--data", str(data), "--checkpoint", str(paths["checkpoint.json"]),
                 "--adapter", str(paths["adapter.json"])], tmp_path / "o")
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"{file}: " in err and key in err, err
    assert not (tmp_path / "o").exists()


def test_the_valid_inputs_pass_every_reader(bundle, stubs, tmp_path):
    """The baseline of both sweeps: each command reads the unedited files (a
    reader that used a column the table does not name would fail here)."""
    data, fit, _ = bundle
    for file in FILES:
        assert _run(_argv(file, data), tmp_path / file) in (None, 0)
    assert main(["forecast", "--data", str(data), "--checkpoint", str(fit / "checkpoint.json"),
                 "--adapter", str(fit / "adapter.json"), "--out", str(tmp_path / "fc")]) == 0


def test_every_written_column_is_in_the_table(bundle):
    for file, (role, _) in FILES.items():
        with open(bundle[0] / file, encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh))
        spec = io.INPUTS[role]
        assert header[:len(spec.columns)] == list(spec.columns), file
        assert spec.rest or header == list(spec.columns), file
