"""Tests of the benchmark itself: emitted names, count oracles, tracer, checks, compare.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
import compare  # noqa: E402
import record  # noqa: E402
import run  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

assert run.prepare()

from calypso import cli  # noqa: E402

SPEC = run.load_spec()


def tiny(name: str) -> run.Workload:
    w = run.WORKLOADS[name]
    return dataclasses.replace(
        w, patches=8, regions=2, weeks=20, calib_epochs=2, adapter_epochs=2, eakf_size=10,
        setup_calib_epochs=2 if w.setup_calib_epochs else 0, greedy_budget=2, brute_candidates=3)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "R2_FLOOR", -math.inf)  # two epochs fit nothing; only names matter here
    result = run.run(name, tiny(name), seed=3, seconds=0, trace=bool(trace))
    line = run.report(name, result, bool(trace), SPEC)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
               for v in line["metrics"].values())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert json.loads(json.dumps(line, allow_nan=False)) == line
    out = capsys.readouterr().out
    assert f"# {name}:" in out


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """The desk-scale bundle (24 patches x 4 regions x 120 weeks, seed 1), traced stages."""
    root = tmp_path_factory.mktemp("desk")
    data, fit = root / "data", root / "fit"
    assert cli.main(["synth", "--seed", "1", "--out", str(data)]) == 0
    tr = Tracer()
    with tr:
        for argv in (
            ["calibrate", "--data", str(data), "--seed", "1", "--epochs", "2", "--out", str(fit)],
            ["adapter", "--data", str(data), "--seed", "1", "--epochs", "2",
             "--checkpoint", str(fit / "checkpoint.json"), "--out", str(root / "ad")],
            ["eakf", "--data", str(data), "--seed", "1", "--size", "10", "--out", str(root / "ek")],
            ["policy-greedy", "--data", str(data), "--budget", "2",
             "--checkpoint", str(fit / "checkpoint.json"), "--out", str(root / "pg")],
            ["policy-greedy", "--data", str(data), "--budget", "2", "--brute-force",
             "--checkpoint", str(fit / "checkpoint.json"), "--out", str(root / "pb")],
        ):
            tr.stage = argv[0]
            assert cli.main(argv) == 0
    tr.data_dir = data
    return tr


def children(tr: Tracer, parent: str, child: str) -> list[tuple[int, int]]:
    """(parent span, number of ``child`` spans directly under it) per ``parent`` span."""
    kids = tr.children()
    return [(i, sum(tr.names[c] == child for c in kids[i]))
            for i, n in enumerate(tr.names) if n == parent]


def backward_nodes(tr: Tracer, trainer: str) -> list[int]:
    return [tr.notes[i] for i, n in enumerate(tr.names)
            if n == "autodiff.Tape.backward" and tr.names[tr.parents[i]] == trainer]


def test_desk_tape_node_counts(desk):
    assert backward_nodes(desk, "calib.train_joint") == [10_719, 10_719]
    # the last epoch draws no teacher forcing (the ratio has decayed to 0)
    assert backward_nodes(desk, "adapter.train_adapter")[-1] == 9_279


def test_eakf_sirs_step_oracles(desk):
    [(run_span, calls)] = children(desk, "eakf.run_eakf", "sim.sirs_step")
    assert calls == desk.notes[run_span] == 10 * 120
    [(fc_span, calls)] = children(desk, "eakf.EakfResult.forecast", "sim.sirs_step")
    assert calls == desk.notes[fc_span] == 10 * 4


def test_analysis_simulation_oracles(desk):
    [(greedy, runs)] = children(desk, "analysis.unit_greedy", "analysis.FittedModel.run")
    n = len(checks.candidates(desk.data_dir))
    assert desk.notes[greedy] == checks.greedy_evaluations(n, 2)
    assert runs == desk.notes[greedy] + 1
    [(brute, runs)] = children(desk, "analysis.brute_force_allocation", "analysis.FittedModel.run")
    assert desk.notes[brute] == math.comb(n, 2)
    assert runs == desk.notes[brute] + 1


def test_tracer_covers_every_import_site_and_restores_them():
    modules = [m for n, m in sys.modules.items() if n == "calypso" or n.startswith("calypso.")]

    def refs():
        return {(id(m), k): v for m in modules for k, v in vars(m).items() if callable(v)}

    before = refs()
    originals = set()
    for module, attr, _ in TARGETS:
        owner = sys.modules[module]
        for part in attr.split("."):
            owner = getattr(owner, part)
        originals.add(owner)
    with Tracer():
        assert not originals & set(refs().values())
        from calypso import eakf, sim
        assert eakf.sirs_step.__wrapped__ is sim.sirs_step.__wrapped__
    assert refs() == before


def test_self_time_subtracts_child_coverage():
    tr = Tracer()
    tr.names, tr.parents = ["root", "a", "b", "a.inner"], [-1, 0, 0, 1]
    tr.starts, tr.ends = [0.0, 1.0, 4.0, 1.5], [10.0, 3.0, 5.0, 2.0]
    tr.stages, tr.notes = [""] * 4, [None] * 4
    assert tr.self_times() == pytest.approx([7.0, 1.5, 1.0, 0.5])


def test_checks_flag_bad_outputs(tmp_path):
    (tmp_path / "a.csv").write_text("patch_id,value\np0,1.5\np1,nan\n")
    assert "non-finite" in checks.finite_outputs(tmp_path)
    (tmp_path / "a.csv").write_text("patch_id,value\np0,1.5\n")
    (tmp_path / "b.json").write_text('{"r2": NaN}')
    assert "non-finite" in checks.finite_outputs(tmp_path)
    (tmp_path / "b.json").write_text('{"r2": 0.5, "x": [1, 2.0]}')
    assert checks.finite_outputs(tmp_path) is None

    traj = tmp_path / "t.csv"
    traj.write_text("patch_id,week_index,S,I,R,new_infections\np0,0,90,10,0,\np0,1,80,15,5,3\n")
    assert checks.conservation(traj, {"p0": 100.0}) is None
    assert "S+I+R" in checks.conservation(traj, {"p0": 101.0})
    assert checks.greedy_evaluations(12, 5) == 50
    assert checks.greedy_evaluations(120, 5) == 590


def _result_set(values: dict[int, float], failed: int = 0, run_seconds: int = 10) -> dict:
    metric = {"value": 0.0, "unit": "s"}
    return {"env": {"run_seconds": run_seconds},
            "runs": [{"workload": "desk-fit", "seed": s, "trace": 0, "result": {
                "correct": failed == 0, "failed": failed,
                "metrics": {**{m["name"]: metric for m in SPEC["end_to_end"]},
                            "pipeline_ref": {"value": v, "unit": "s"}}}}
                     for s, v in values.items()]}


@pytest.mark.parametrize("change, expected", [
    ({s: 8.0 + s / 100 for s in range(10)}, "improved"),
    ({s: 10.0 + s / 100 for s in range(10)}, "unchanged"),
    ({s: 14.0 for s in range(10)}, "worse"),
])
def test_compare_verdicts(change, expected):
    parent = _result_set({s: 10.0 + (s % 3) / 100 for s in range(10)})
    rows = compare.compare(parent, _result_set(change), SPEC)
    [row] = [r for r in rows if r["metric"] == "pipeline_ref"]
    assert row["verdict"] == expected
    assert row["pairs"] == 10


def test_compare_reports_wide_spread_as_unresolved():
    parent = _result_set({s: 10.0 * (1 + 0.3 * (s % 2)) for s in range(10)})
    change = _result_set({s: 10.5 * (1 + 0.3 * ((s + 1) % 2)) for s in range(10)})
    [row] = [r for r in compare.compare(parent, change, SPEC) if r["metric"] == "pipeline_ref"]
    assert row["verdict"] == "unresolved"


def test_compare_counts_crashed_and_failing_runs_as_worse():
    parent = _result_set({s: 10.0 for s in range(10)})
    change = _result_set({s: 8.0 for s in range(10)})  # faster on every run that finished
    change["runs"][0]["result"] = None                                    # crashed
    change["runs"][1]["result"].update(correct=False, failed=1)           # failed a check
    rows = compare.compare(parent, change, SPEC)
    assert {r["verdict"] for r in rows} == {"worse"}
    assert all(r["failed_runs"] == {"parent": 0, "change": 2} for r in rows)
    [row] = [r for r in rows if r["metric"] == "pipeline_ref"]
    assert row["change"]["n"] == 9 and row["pairs"] == 9

    for run in change["runs"]:
        run["result"] = None          # a change that crashes on every seed
    assert {r["verdict"] for r in compare.compare(parent, change, SPEC)} == {"worse"}


def test_compare_refuses_sets_of_other_seeds_or_run_length():
    parent = _result_set({s: 10.0 for s in range(1, 11)})
    with pytest.raises(ValueError, match="seeds differ"):
        compare.compare(parent, _result_set({s: 10.0 for s in range(11, 21)}), SPEC)
    with pytest.raises(ValueError, match="run lengths differ"):
        compare.compare(parent, _result_set({s: 10.0 for s in range(1, 11)}, run_seconds=20), SPEC)


def test_record_alternates_two_checkouts_seed_by_seed(tmp_path, monkeypatch):
    calls = []

    def bench_once(root, workload, seed, seconds, trace):
        calls.append((root.name, workload, seed, trace))
        return {"workload": workload, "seed": seed, "trace": trace, "result": {"correct": True}}

    monkeypatch.setattr(record, "bench_once", bench_once)
    monkeypatch.setattr(record, "environment", lambda root, seconds: {"run_seconds": seconds})
    roots = [tmp_path / "parent", tmp_path / "change"]
    outs = [tmp_path / "p.json", tmp_path / "c.json"]
    assert record.main([*map(str, roots), "--seeds", "1-3", "--out", *map(str, outs)]) == 0
    untraced = [c for c in calls if c[3] == 0]
    assert [c[0] for c in untraced[:2]] == ["parent", "change"]
    assert [c[0] for c in untraced[6:8]] == ["change", "parent"]    # seed 2 runs the change first
    for root, out in zip(roots, outs):
        runs = json.loads(out.read_text())["runs"]
        assert len(runs) == 3 * len(run.WORKLOADS) + len(run.WORKLOADS)
        assert [r[:3] for r in calls if r[0] == root.name] == [
            (root.name, r["workload"], r["seed"]) for r in runs]
    with pytest.raises(SystemExit):
        record.main([str(roots[0]), "--out", *map(str, outs)])


def test_empty_checkout_exits_nonzero_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "desk-fit", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
