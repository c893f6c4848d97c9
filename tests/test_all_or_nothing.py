"""All-or-nothing outputs, a sweep generated from the table ``COMMANDS``.

Each subcommand runs on a tiny seed-1 bundle (8 patches, 20 weeks, 2
epochs, 4 members).  A clean run must leave exactly its table files plus
``run_manifest.json`` in ``--out``, and the manifest's ``written`` list
must name exactly those files at their final paths.  Then, for every k up
to the number of files the command writes (its manifest included), a NaN
reaches the k-th writer: a CSV gets it in one more row, after the rows
before it are written, and a JSON result or checkpoint in its payload.
The run must exit non-zero naming the file's final path and leave
``--out`` as it was, in its listing (no ``.calypso-*`` staging directory)
and its bytes: an earlier run's files stay, and an ``--out`` that did not
exist still does not.  The input refusals below run before any work and
leave ``--out`` as it was too.
"""

import json
import math
import shutil
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from calypso import cli, io
from calypso.cli import main

# subcommand -> (its options, with the fixture's paths in braces, and the files it writes)
COMMANDS = {
    "synth": ("--seed 1 --patches 8 --regions 2 --weeks 20 --horizon 4",
              ["cases.csv", "features.csv", "ground_truth.csv", "patches.csv", "travel.csv"]),
    "simulate": ("--data {data}", ["summary.json", "trajectory.csv"]),
    "calibrate": ("--data {data} --epochs 2",
                  ["checkpoint.json", "checkpoint_best_r2.json", "loss_history.csv", "params.csv"]),
    "adapter": ("--data {data} --checkpoint {checkpoint} --epochs 2", ["adapter.json", "adapter_history.csv"]),
    "forecast": ("--data {data} --checkpoint {checkpoint} --adapter {adapter}",
                 ["forecast_corrected_state.csv", "forecast_patch.csv", "forecast_region.csv", "forecast_state.csv",
                  "forecast_trajectory.csv", "holdout_metrics.json"]),
    "eakf": ("--data {data} --size 4",
             ["eakf_forecast_state.csv", "eakf_holdout_metrics.json", "eakf_summary.csv", "eakf_trajectory.csv"]),
    "policy-region": ("--data {data} --checkpoint {checkpoint} --region R0", ["policy_region.csv", "policy_region.json"]),
    "policy-greedy": ("--data {data} --checkpoint {checkpoint} --budget 1",
                      ["policy_greedy.json", "policy_greedy_curve.csv"]),
    "sensitivity": ("--data {data} --checkpoint {checkpoint}", ["sensitivity.json", "sensitivity_matrix.csv"]),
    "outbreak": ("--data {data} --checkpoint {checkpoint}", ["outbreak.json", "outbreak_ranking.csv"]),
    "correct-data": ("--data {data} --epochs 2 --noisy-count 1 --k 1 --eval-draws 1",
                     ["correction.json", "correction_curve.csv"]),
    "metrics": ("--pred {pred} --truth {truth}", ["metrics.json"]),
}
MANIFEST = "run_manifest.json"


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """The bundle, a calib and an adapter checkpoint fit to it, and a metrics series pair."""
    root = tmp_path_factory.mktemp("staged")
    data, fit = root / "data", root / "fit"
    assert main(["synth", *COMMANDS["synth"][0].split(), "--out", str(data)]) == 0
    assert main(["calibrate", "--data", str(data), "--epochs", "2", "--out", str(fit)]) == 0
    assert main(["adapter", "--data", str(data), "--checkpoint", str(fit / "checkpoint.json"),
                 "--epochs", "1", "--out", str(fit)]) == 0
    io.write_series(root / "pred.csv", np.array([1.0, 2.0, 4.0, 3.0]))
    io.write_series(root / "truth.csv", np.array([1.5, 2.0, 3.0, 3.5]))
    return {"data": data, "checkpoint": fit / "checkpoint.json", "adapter": fit / "adapter.json",
            "pred": root / "pred.csv", "truth": root / "truth.csv"}


def _argv(command: str, paths: dict, out: Path) -> list[str]:
    return [command, *(token.format(**paths) for token in COMMANDS[command][0].split()), "--out", str(out)]


def _listing(out: Path) -> dict | None:
    """Every entry of ``out`` with its bytes (None for a directory), or None when ``out`` does not exist."""
    if not out.exists():
        return None
    return {p.name: None if p.is_dir() else p.read_bytes() for p in out.iterdir()}


def _nan_row(header, blocks):
    header = list(header)
    return header, chain(blocks, [[[math.nan]] * len(header)])


def _spoil(monkeypatch, k: int) -> list[str]:
    """Count the files the package writes, and hand the k-th writer (from 1) a NaN;
    returns the names written so far."""
    written = []

    def counted(write, spoil):
        def wrapper(path, *args):
            written.append(Path(path).name)
            return write(path, *(spoil(*args) if len(written) == k else args))
        return wrapper

    json_result = counted(io.write_json, lambda payload: ({"injected": math.nan},))
    monkeypatch.setattr(io, "_write_blocks", counted(io._write_blocks, _nan_row))
    monkeypatch.setattr(io, "write_json", json_result)
    monkeypatch.setattr(cli, "_write_json", json_result)
    monkeypatch.setattr(io, "write_checkpoint", counted(
        io.write_checkpoint, lambda kind, net, extra=None: (kind, net, {"injected": math.nan})))
    return written


@pytest.mark.parametrize("command", COMMANDS)
def test_the_manifest_lists_exactly_the_files_a_run_put_in_out(paths, tmp_path, command):
    out = tmp_path / "o"
    assert main(_argv(command, paths, out)) == 0
    files = COMMANDS[command][1]
    assert sorted(p.name for p in out.iterdir()) == sorted([*files, MANIFEST])
    assert sorted(json.loads((out / MANIFEST).read_text())["written"]) == [str(out / name) for name in sorted(files)]
    assert not list(out.glob(".calypso-*"))


_FAULTS = [(command, k, earlier) for command, (_, files) in COMMANDS.items()
           for k in range(1, len(files) + 2) for earlier in (False, True)]


@pytest.mark.parametrize("command, k, earlier", _FAULTS,
                         ids=[f"{c}-{k}-{'earlier-run' if e else 'no-out'}" for c, k, e in _FAULTS])
def test_a_nan_in_any_written_file_leaves_out_as_it_was(paths, tmp_path, monkeypatch, capsys, command, k, earlier):
    out = tmp_path / "o"
    if earlier:  # an earlier run's files, by the same names, and one of the user's
        out.mkdir()
        for name in [*COMMANDS[command][1], MANIFEST, "notes.txt"]:
            (out / name).write_text(f"an earlier {name}\n")
    before = _listing(out)
    written = _spoil(monkeypatch, k)
    capsys.readouterr()
    code = main(_argv(command, paths, out))
    err = capsys.readouterr().err
    assert len(written) == k and code in (3, 4), (written, code, err)
    assert f"{out / written[-1]}: " in err, err
    assert _listing(out) == before


@pytest.mark.parametrize("command", ["forecast", "eakf"])
def test_a_constant_holdout_is_refused_before_any_work(paths, tmp_path, capsys, command):
    """Every count of the four holdout weeks set to 0: the holdout has no R^2."""
    data = tmp_path / "data"
    shutil.copytree(paths["data"], data)
    lines = (data / "cases.csv").read_text().splitlines()
    (data / "cases.csv").write_text("\r\n".join(
        [lines[0]] + [",".join([*line.split(",")[:2], "0"]) if int(line.split(",")[1]) >= 20 else line
                      for line in lines[1:]]) + "\r\n")
    out = tmp_path / "o"
    out.mkdir()
    (out / f"{command}_state.csv").write_text("an earlier run\n")
    before = _listing(out)
    capsys.readouterr()
    assert main(_argv(command, dict(paths, data=data), out)) == 3
    err = capsys.readouterr().err
    assert (f"[DegenerateTruth] {data / 'cases.csv'}: the state count is 0 in every week 20-23, "
            "so R^2 is undefined") in err, err
    assert _listing(out) == before


@pytest.mark.parametrize("command", ["simulate", "calibrate", "eakf", "correct-data"])
def test_a_constant_training_window_is_refused_before_any_work(paths, tmp_path, capsys, command):
    """A bundle with no cases at all: the window's state series has no R^2."""
    data = tmp_path / "data"
    shutil.copytree(paths["data"], data)
    lines = (data / "cases.csv").read_text().splitlines()
    (data / "cases.csv").write_text("\r\n".join(
        [lines[0]] + [",".join([*line.split(",")[:2], "0"]) for line in lines[1:]]) + "\r\n")
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(_argv(command, dict(paths, data=data), out)) == 3
    err = capsys.readouterr().err
    assert (f"[DegenerateTruth] {data / 'cases.csv'}: the state count is 0 in every week 0-19, "
            "so R^2 is undefined") in err, err
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "x"])
def test_an_out_that_is_not_a_directory_is_refused_before_any_work(tmp_path, capsys, below):
    afile = tmp_path / "afile"
    afile.write_text("a user's file\n")
    out = afile / below if below else afile
    capsys.readouterr()
    assert main(_argv("synth", {}, out)) == 3
    assert f"[InvalidOption] --out {out}: {afile} is not a directory" in capsys.readouterr().err
    assert afile.read_text() == "a user's file\n" and sorted(tmp_path.iterdir()) == [afile]


@pytest.mark.parametrize("flags, fragment", [
    ("--budget 100", "[ShapeMismatch] budget 100 exceeds 4 candidates"),
    ("--budget 100 --brute-force", "[ShapeMismatch] budget 100 exceeds 4 candidates"),
    ("--candidates nope", "[InvalidOption] unknown candidate patch 'nope'"),
], ids=["budget", "brute-force-budget", "candidate"])
def test_an_allocation_refusal_comes_before_the_staging_directory(paths, tmp_path, monkeypatch, capsys, flags,
                                                                  fragment):
    def no_stage(config):
        raise AssertionError("the staging directory was made")

    monkeypatch.setattr(cli, "_out_dir", no_stage)
    out = tmp_path / "o"
    capsys.readouterr()
    assert main([*_argv("policy-greedy", paths, out), *flags.split()]) == 3
    assert fragment in capsys.readouterr().err
    assert not out.exists()
