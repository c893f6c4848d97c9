import argparse
import csv
import json
import math
import shutil
import subprocess

import numpy as np
import pytest

from calypso import adapter as adapter_mod
from calypso import analysis, calib, cli, eakf, io, synth
from calypso.cli import main
from calypso.core import DiseaseParams


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    d = root / "data"
    assert main(["synth", "--seed", "5", "--out", str(d),
                 "--patches", "8", "--regions", "2", "--weeks", "20", "--horizon", "4"]) == 0
    return d


@pytest.fixture(scope="module")
def checkpoint(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    code = main(["calibrate", "--data", str(data_dir), "--out", str(out),
                 "--epochs", "40", "--seed", "0", "--horizon", "4"])
    assert code == 0
    return out / "checkpoint.json"


@pytest.fixture(scope="module")
def adapter_checkpoint(data_dir, checkpoint, tmp_path_factory):
    out = tmp_path_factory.mktemp("adapter")
    assert main(["adapter", "--data", str(data_dir), "--checkpoint", str(checkpoint),
                 "--epochs", "2", "--out", str(out)]) == 0
    return out / "adapter.json"


def run_twice(argv_template, tmp_path, skip=("run_manifest.json",)):
    """Run a subcommand into two directories; compare outputs byte-for-byte."""
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv_template + ["--out", str(a)]) == 0
    assert main(argv_template + ["--out", str(b)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        if name in skip:
            continue
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    return a


class TestSynthCommand:
    def test_writes_bundle_and_manifest(self, data_dir):
        for name in ("patches.csv", "travel.csv", "cases.csv", "features.csv",
                     "ground_truth.csv", "run_manifest.json"):
            assert (data_dir / name).exists()
        manifest = json.loads((data_dir / "run_manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 5
        assert "git_describe" in manifest

    def test_manifest_names_calypso_checkout_not_the_working_directory(self, tmp_path, monkeypatch):
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.org", "-c", "commit.gpgsign=false"]
        subprocess.run([*git, "init", "-q"], cwd=tmp_path, check=True)
        subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "other"], cwd=tmp_path, check=True)
        other = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path, check=True,
                               capture_output=True, text=True).stdout.strip()
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--seed", "2", "--patches", "4", "--regions", "2", "--weeks", "8",
                     "--horizon", "1", "--out", "out"]) == 0
        described = json.loads((tmp_path / "out" / "run_manifest.json").read_text())["git_describe"]
        assert described and not other.startswith(described.removesuffix("-dirty"))

    def test_byte_identical_rerun(self, tmp_path):
        run_twice(["synth", "--seed", "3", "--patches", "6", "--regions", "2",
                   "--weeks", "10", "--horizon", "2"], tmp_path)


class TestSimulateCommand:
    def test_zero_beta_gives_zero_cumulative_infections(self, tmp_path):
        bundle = synth.generate(synth.SynthSpec(n_patches=6, n_regions=2, weeks=10,
                                                horizon=2, seed=7))
        d = tmp_path / "data"
        bundle.write(d)
        zero = DiseaseParams.constant(bundle.graph.region_ids, 12, beta=0.0, gamma=0.3)
        io.write_params(d / "zero_params.csv", zero)
        out = tmp_path / "out"
        assert main(["simulate", "--data", str(d), "--params", str(d / "zero_params.csv"),
                     "--steps", "12", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cumulative_new_infections"]["state"] == 0.0

    def test_missing_params_file_is_data_error(self, data_dir, tmp_path):
        code = main(["simulate", "--data", str(data_dir), "--params",
                     str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert code == 3


class TestCalibrateCommand:
    def test_outputs(self, checkpoint):
        out = checkpoint.parent
        assert checkpoint.exists()
        assert (out / "loss_history.csv").exists()
        assert (out / "params.csv").exists()
        history = (out / "loss_history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss,state_r2,lr"
        assert len(history) == 41

    def test_deterministic_rerun(self, data_dir, tmp_path):
        run_twice(["calibrate", "--data", str(data_dir), "--epochs", "5", "--seed", "1"],
                  tmp_path)


class TestForecastAndAdapter:
    def test_forecast_outputs(self, data_dir, checkpoint, tmp_path):
        out = tmp_path / "fc"
        assert main(["forecast", "--data", str(data_dir), "--checkpoint", str(checkpoint),
                     "--horizon", "4", "--out", str(out)]) == 0
        assert (out / "forecast_state.csv").exists()
        assert (out / "holdout_metrics.json").exists()
        series = io.read_series(out / "forecast_state.csv")
        assert series.shape[0] == 24  # window 20 + horizon 4

    def test_adapter_then_corrected_forecast(self, data_dir, checkpoint, tmp_path):
        ad_out = tmp_path / "ad"
        assert main(["adapter", "--data", str(data_dir), "--checkpoint", str(checkpoint),
                     "--epochs", "10", "--out", str(ad_out)]) == 0
        assert (ad_out / "adapter.json").exists()
        fc_out = tmp_path / "fc2"
        assert main(["forecast", "--data", str(data_dir), "--checkpoint", str(checkpoint),
                     "--adapter", str(ad_out / "adapter.json"), "--horizon", "4",
                     "--out", str(fc_out)]) == 0
        assert (fc_out / "forecast_corrected_state.csv").exists()

    @pytest.mark.parametrize("command", ["adapter", "forecast"])
    def test_infers_parameters_once(self, data_dir, checkpoint, tmp_path, monkeypatch, command):
        calls = []
        infer = calib.infer_params

        def counting(*args, **kwargs):
            calls.append(1)
            return infer(*args, **kwargs)

        for module in (calib, analysis):
            monkeypatch.setattr(module, "infer_params", counting)
        extra = ["--epochs", "1"] if command == "adapter" else ["--horizon", "4"]
        assert main([command, "--data", str(data_dir), "--checkpoint", str(checkpoint),
                     *extra, "--out", str(tmp_path / command)]) == 0
        assert len(calls) == 1


class TestEakfCommand:
    def test_outputs_and_determinism(self, data_dir, tmp_path):
        out = run_twice(["eakf", "--data", str(data_dir), "--size", "12", "--seed", "2"],
                        tmp_path)
        assert (out / "eakf_summary.csv").exists()
        assert (out / "eakf_trajectory.csv").exists()
        assert (out / "eakf_holdout_metrics.json").exists()


class TestPolicyCommands:
    def test_policy_region(self, data_dir, checkpoint, tmp_path):
        out = tmp_path / "pr"
        assert main(["policy-region", "--data", str(data_dir), "--checkpoint", str(checkpoint),
                     "--region", "R0", "--factor", "0.9", "--out", str(out)]) == 0
        payload = json.loads((out / "policy_region.json").read_text())
        assert payload["target"] == "R0"
        assert (out / "policy_region.csv").exists()

    def test_unknown_region_is_data_error(self, data_dir, checkpoint, tmp_path):
        code = main(["policy-region", "--data", str(data_dir), "--checkpoint", str(checkpoint),
                     "--region", "QQ", "--out", str(tmp_path / "o")])
        assert code == 3

    def test_policy_greedy_budget_one_matches_brute_force(self, data_dir, checkpoint, tmp_path):
        g_out, b_out = tmp_path / "g", tmp_path / "b"
        assert main(["policy-greedy", "--data", str(data_dir), "--checkpoint", str(checkpoint),
                     "--budget", "1", "--out", str(g_out)]) == 0
        assert main(["policy-greedy", "--data", str(data_dir), "--checkpoint", str(checkpoint),
                     "--budget", "1", "--brute-force", "--out", str(b_out)]) == 0
        greedy = json.loads((g_out / "policy_greedy.json").read_text())
        brute = json.loads((b_out / "policy_greedy.json").read_text())
        assert greedy["selected"] == brute["selected"]
        assert greedy["reduction"] == pytest.approx(brute["reduction"])

    def test_sensitivity_and_outbreak(self, data_dir, checkpoint, tmp_path):
        s_out = tmp_path / "s"
        assert main(["sensitivity", "--data", str(data_dir), "--checkpoint", str(checkpoint),
                     "--bump", "1.1", "--out", str(s_out)]) == 0
        rows = (s_out / "sensitivity_matrix.csv").read_text().splitlines()
        assert rows[0] == "receiver,source,impact_ratio"
        assert len(rows) == 1 + 2 * 2
        o_out = tmp_path / "o"
        assert main(["outbreak", "--data", str(data_dir), "--checkpoint", str(checkpoint),
                     "--k", "10", "--out", str(o_out)]) == 0
        payload = json.loads((o_out / "outbreak.json").read_text())
        assert set(payload["region_attribution_percent"]) == {"R0", "R1"}


class TestCorrectDataCommand:
    def test_runs_and_reports_curve(self, data_dir, tmp_path):
        out = tmp_path / "cd"
        assert main(["correct-data", "--data", str(data_dir), "--noisy-count", "2",
                     "--k", "2", "--epochs", "20", "--eval-draws", "2",
                     "--out", str(out)]) == 0
        rows = (out / "correction_curve.csv").read_text().splitlines()
        assert rows[0] == "step,patch,state_r2"
        assert len(rows) == 4  # header + baseline + 2 corrections
        payload = json.loads((out / "correction.json").read_text())
        assert len(payload["order"]) == 2


class TestMetricsCommand:
    def test_metrics_json(self, tmp_path, capsys):
        io.write_series(tmp_path / "pred.csv", np.array([1.0, 2.0, 3.0]))
        io.write_series(tmp_path / "truth.csv", np.array([1.0, 2.0, 4.0]))
        assert main(["metrics", "--pred", str(tmp_path / "pred.csv"),
                     "--truth", str(tmp_path / "truth.csv"), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert payload["mae"] == pytest.approx(1.0 / 3.0)
        assert "r2" in capsys.readouterr().out

    def test_degenerate_truth_is_data_error(self, tmp_path):
        io.write_series(tmp_path / "pred.csv", np.array([1.0, 2.0]))
        io.write_series(tmp_path / "truth.csv", np.array([3.0, 3.0]))
        assert main(["metrics", "--pred", str(tmp_path / "pred.csv"),
                     "--truth", str(tmp_path / "truth.csv"), "--out", str(tmp_path)]) == 3


def _json_edit(edit):
    """A text -> text checkpoint mutation that applies ``edit`` to the parsed JSON."""
    def mutate(text):
        payload = json.loads(text)
        edit(payload)
        return json.dumps(payload)
    return mutate


# Valid edge values of the refusal sweep below, exempt from it.
_VALID_EDGES = [("seed", 0), ("horizon", 0), ("k", 0), ("weight_decay", 0), ("clip", 0), ("w_patch", 0),
                ("w_region", 0), ("w_state", 0), ("noise_sd", 0), ("teacher_ratio", 0), ("obs_var", math.inf)]


def _bad_values(key: str, kind: type) -> dict:
    """Out-of-range values for one option by kind name.  argparse refuses
    nan and inf for an int option itself (exit 2), so those go to floats only."""
    values = {"nan": math.nan, "inf": math.inf, "minus-inf": -math.inf} if kind is float else {}
    values.update(negative=-1, zero=0)
    if key in cli._BOUNDS:
        low, strict, *high = cli._BOUNDS[key]
        past = low if strict else low - 1 if kind is int else math.nextafter(low, -math.inf)
        if past not in (-1, 0):
            values["past-low"] = past
        if high and high[0] < math.inf:
            values["past-high"] = high[0] + 1 if kind is int else math.nextafter(high[0], math.inf)
    return {name: v for name, v in values.items() if (key, v) not in _VALID_EDGES}


def _sweep():
    """One refusal row per subcommand, int or float option and bad value,
    from the parser's type table; ``--opt=-inf`` keeps argparse from reading
    ``-inf`` as a flag.  Ids shorten ``policy-X`` to ``X``."""
    rows, ids = [], []
    for command, kinds in cli._build_parser()[1].items():
        for key, kind in kinds.items():
            if kind not in (int, float):
                continue
            flag = key.replace("_", "-")
            for name, value in _bad_values(key, kind).items():
                rows.append(([command, f"--{flag}={value!r}"], None, None, 3, "InvalidOption", f"--{flag} must be"))
                ids.append(f"{command.removeprefix('policy-')}-{flag}-{name}")
    return rows, ids


_SWEEP_ROWS, _SWEEP_IDS = _sweep()


class TestErrorHandling:
    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth"])  # missing required --out
        assert exc.value.code == 2

    def test_missing_data_dir_is_data_error(self, tmp_path):
        code = main(["calibrate", "--data", str(tmp_path / "missing"), "--epochs", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_abort_exits_four(self, data_dir, checkpoint, tmp_path):
        # an absurd learning rate overflows the adapter's residual head
        code = main(["adapter", "--data", str(data_dir), "--checkpoint", str(checkpoint),
                     "--epochs", "5", "--lr", "1e154", "--out", str(tmp_path / "o")])
        assert code == 4

    def test_config_file_supplies_defaults(self, data_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 3, "seed": 9, "lr_decay": 1}))  # an int may stand for a float
        out = tmp_path / "o"
        assert main(["calibrate", "--data", str(data_dir), "--config", str(cfg),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["epochs"] == 3
        assert manifest["config"]["seed"] == 9
        assert manifest["config"]["lr_decay"] == 1

    @pytest.mark.parametrize("target, mutate, error, fragment", [
        ("calib", lambda text: text[:-40], "CheckpointError", "not valid JSON"),
        ("calib", _json_edit(lambda p: p.pop("n_features")), "CheckpointError",
         "missing keys ['n_features']"),
        ("calib", _json_edit(lambda p: p["config"].update(depth=3)), "CheckpointError",
         "unknown config keys ['depth']"),
        ("calib", _json_edit(lambda p: p["weights"]["enc_wz"].pop()), "CheckpointError",
         "weight 'enc_wz'"),
        ("adapter", _json_edit(lambda p: p["weights"]["l0_u_z"][0].pop()), "CheckpointError",
         "weight 'l0_u_z'"),
        ("calib", _json_edit(lambda p: p["weights"].pop("out_w")), "CheckpointError",
         "missing weights ['out_w']"),
        ("adapter", _json_edit(lambda p: p["weights"].pop("out_w")), "CheckpointError",
         "missing weights ['out_w']"),
        ("adapter", _json_edit(lambda p: p["weights"]["out_w"].__setitem__(0, float("nan"))),
         "CheckpointError", "non-finite number NaN"),
        ("adapter", _json_edit(lambda p: p.pop("t_scale")), "CheckpointError",
         "missing keys ['t_scale']"),
        ("calib", _json_edit(lambda p: p["config"].update(hidden=0)), "CheckpointError",
         "hidden must be finite and >= 1"),
        ("adapter", _json_edit(lambda p: p["config"].update(hidden=0)), "CheckpointError",
         "hidden must be finite and >= 1"),
        ("data", None, "ShapeMismatch", "feature channels"),
        ("epochs", None, "InvalidOption", "--epochs"),
    ], ids=["not-json", "calib-missing-n_features", "unknown-config-key", "calib-truncated-weight",
            "adapter-truncated-weight", "calib-missing-weight", "adapter-missing-weight",
            "adapter-nan-weight", "adapter-missing-t_scale", "calib-zero-hidden", "adapter-zero-hidden",
            "feature-channel-mismatch",
            "calibrate-zero-epochs"])
    def test_malformed_input_exits_three_and_names_fault(
            self, data_dir, checkpoint, adapter_checkpoint, tmp_path, capsys,
            target, mutate, error, fragment):
        data, ckpt, adapter = data_dir, checkpoint, adapter_checkpoint
        if target in ("calib", "adapter"):
            src = ckpt if target == "calib" else adapter
            bad = tmp_path / src.name
            bad.write_text(mutate(src.read_text()))
            ckpt, adapter = (bad, adapter) if target == "calib" else (ckpt, bad)
        elif target == "data":  # one fewer feature channel than the net was fit on
            data = tmp_path / "data"
            shutil.copytree(data_dir, data)
            with open(data_dir / "features.csv", newline="") as fh:
                rows = [row[:-1] for row in csv.reader(fh)]
            with open(data / "features.csv", "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        if target == "epochs":
            argv = ["calibrate", "--data", str(data), "--epochs", "0"]
        else:
            argv = ["forecast", "--data", str(data), "--checkpoint", str(ckpt),
                    "--adapter", str(adapter)]
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert f"[{error}]" in err and fragment in err, err

    @pytest.mark.parametrize("argv, table, value, code, error, fragment", [
        (["calibrate"], "cases.csv", "nan", 3, "InvalidValue", "count is nan"),
        (["eakf"], "cases.csv", "nan", 3, "InvalidValue", "count is nan"),
        (["eakf"], "cases.csv", "-3", 3, "InvalidValue", "count is -3.0"),
        (["eakf"], "cases.csv", "many", 3, "InvalidValue", "'many'"),
        (["eakf"], "features.csv", "inf", 3, "InvalidValue", "norm_incidence is inf"),
        (["metrics"], None, None, 3, "InvalidValue", "pred.csv: week 1: "),
        (["policy-greedy", "--budget", "100", "--brute-force"], None, None, 3, "ShapeMismatch",
         "budget 100 exceeds 4 candidates"),
        (["policy-greedy", "--budget", "100"], None, None, 3, "ShapeMismatch", "budget 100 exceeds 4 candidates"),
        (["policy-greedy", "--candidates", "R0-N00,R0-N00"], None, None, 3, "ShapeMismatch",
         "budget 2 exceeds 1 candidates"),
        (["policy-greedy", "--candidates", "R0-N00,R0-N00", "--brute-force"], None, None, 3, "ShapeMismatch",
         "budget 2 exceeds 1 candidates"),
        (["correct-data", "--noisy-patches", "nope"], None, None, 3, "UnknownRegion", "unknown noisy patch 'nope'"),
        (["correct-data", "--noisy-count", "2", "--k", "5"], None, None, 3, "KExceedsNoisySet",
         "k=5 exceeds 2 noisy patches"),
    ] + _SWEEP_ROWS, ids=["calibrate-nan-count", "eakf-nan-count", "eakf-negative-count",
            "eakf-non-numeric-count", "eakf-infinite-feature", "metrics-nan-pred",
            "brute-force-budget-above-candidates", "greedy-budget-above-candidates",
            "greedy-duplicated-candidate", "brute-force-duplicated-candidate",
            "correct-data-unknown-noisy-patch", "correct-data-k-above-noisy-set"] + _SWEEP_IDS)
    def test_bad_option_or_value_is_refused(self, data_dir, checkpoint, tmp_path, capsys, monkeypatch,
                                            argv, table, value, code, error, fragment):
        def too_late(*args, **kwargs):
            raise AssertionError("trained, filtered or simulated before refusing the input")

        for module, name in [(calib, "train_joint"), (adapter_mod, "train_adapter"), (calib, "forecast"),
                             (eakf, "run_eakf"), (synth, "generate"), (cli, "simulate"),
                             (analysis, "simulate"), (analysis, "plain_trajectory"), (analysis, "plain_totals")]:
            monkeypatch.setattr(module, name, too_late)
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        if table is not None:  # the last column of the fourth data row: first patch, week 3
            with open(data / table, newline="") as fh:
                rows = list(csv.reader(fh))
            rows[4][-1] = value
            with open(data / table, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        if argv[0] == "metrics":  # a gap in the prediction
            (data / "pred.csv").write_text("week_index,value\n0,1\n1,nan\n2,3\n")
            io.write_series(data / "truth.csv", np.array([1.0, 2.0, 4.0]))
            argv = argv + ["--pred", str(data / "pred.csv"), "--truth", str(data / "truth.csv")]
        elif argv[0] != "synth":  # the row's own options come last, so they override these
            argv = [argv[0], "--data", str(data)] + {
                "simulate": [],
                "calibrate": ["--epochs", "1"],
                "adapter": ["--checkpoint", str(checkpoint), "--epochs", "1"],
                "forecast": ["--checkpoint", str(checkpoint)],
                "eakf": ["--size", "4"],
                "policy-greedy": ["--checkpoint", str(checkpoint), "--budget", "2"],
                "outbreak": ["--checkpoint", str(checkpoint)],
                "policy-region": ["--checkpoint", str(checkpoint), "--region", "R0"],
                "sensitivity": ["--checkpoint", str(checkpoint)],
                "correct-data": ["--epochs", "1"],
            }[argv[0]] + argv[1:]
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert f"[{error}]" in err and fragment in err, err
        if table is not None:
            assert f"{table}: patch {rows[4][0]!r}, week 3: " in err, err

    def test_every_numeric_option_has_a_bound(self):
        """A new int or float option needs a ``_BOUNDS`` entry, and each valid
        edge value the refusal sweep skips is accepted by every command."""
        types = cli._build_parser()[1]
        numeric = {key for kinds in types.values() for key, kind in kinds.items() if kind in (int, float)}
        assert numeric == set(cli._BOUNDS)
        for command, kinds in types.items():
            for key, value in _VALID_EDGES:
                if key in kinds:
                    args = argparse.Namespace(command=command, config=None, **{key: value})
                    assert cli._effective_config(args, kinds)[key] == value, (command, key)

    @pytest.mark.parametrize("argv, table, edit, error, fragment", [
        (["eakf"], "patches.csv", lambda rows: rows[1].__setitem__(3, "lots"),
         "InvalidValue", "patches.csv: patch 'R0-G00': population is 'lots'"),
        (["eakf"], "patches.csv", lambda rows: rows[1].__setitem__(3, "0"),
         "InvalidValue", "patches.csv: patch 'R0-G00': population is 0"),
        (["eakf"], "patches.csv", lambda rows: rows.append(rows[1][:3] + ["12345"]),
         "ShapeMismatch", "patches.csv: patch 'R0-G00': duplicate of line 2"),
        (["eakf"], "patches.csv", lambda rows: rows[1].__setitem__(2, "hospital"),
         "ShapeMismatch", "patches.csv: patch 'R0-G00': unknown category 'hospital'"),
        (["eakf"], "patches.csv", lambda rows: [row.pop(3) for row in rows],
         "ShapeMismatch", "patches.csv: missing column(s) ['population']"),
        (["eakf"], "cases.csv", lambda rows: rows.append(rows[4][:2] + ["7"]),
         "ShapeMismatch", "cases.csv: patch 'R0-G00', week 3: duplicate of line 5"),
        (["eakf"], "travel.csv", lambda rows: rows.append(list(rows[1])),
         "ShapeMismatch", "duplicate of line 2"),
        (["eakf"], "travel.csv", lambda rows: rows[1].__setitem__(1, rows[1][0]),
         "InvalidValue", "travel.csv: flow 'R0-G00'->'R0-G00': line 2 flows from a patch to itself"),
        (["eakf"], "travel.csv", lambda rows: rows[1].__setitem__(2, "x"),
         "InvalidValue", "commute_flow is 'x'"),
        (["eakf"], "travel.csv", lambda rows: rows[1].__setitem__(2, "1e9"),
         "OffDiagonalOverflow", "travel.csv: outgoing flows from patch 'R0-G00' exceed its population"),
        (["simulate"], "ground_truth.csv", lambda rows: rows[4].__setitem__(4, "nan"),
         "InvalidValue", "ground_truth.csv: beta of region 'R0', week 3: value is nan"),
        (["simulate"], "ground_truth.csv", lambda rows: rows[4].__setitem__(4, "xyz"),
         "InvalidValue", "ground_truth.csv: beta of region 'R0', week 3: value is 'xyz'"),
        (["simulate"], "ground_truth.csv", lambda rows: rows.pop(4),
         "ShapeMismatch", "ground_truth.csv: beta of region 'R0' has no week_index 3 row"),
        (["simulate"], "ground_truth.csv", lambda rows: rows.__setitem__(
            slice(None), [row for row in rows if row[3] != "gamma"]),
         "ShapeMismatch", "ground_truth.csv: gamma of region 'R0' has no week_index 0 row"),
        (["simulate"], "ground_truth.csv", lambda rows: rows[4].__setitem__(3, "betta"),
         "ShapeMismatch", "ground_truth.csv: betta of region 'R0', week 3: unknown field 'betta'"),
        (["metrics"], "pred.csv", "week_index,value\n0,1\n1,nan\n2,3\n",
         "InvalidValue", "pred.csv: week 1: value is nan"),
        (["metrics"], "pred.csv", "week_index,value\n0,1\n1.5,2\n2,3\n",
         "ShapeMismatch", "pred.csv: week 1.5: week_index is 1.5, need an integer"),
        (["calibrate"], "cfg.json", '{"epochs": 1,', "InvalidOption", "cfg.json: not valid JSON"),
        (["calibrate"], "cfg.json", "[1, 2]", "InvalidOption", "cfg.json: need a JSON object"),
        (["calibrate"], "cfg.json", '{"epoch": 5}', "InvalidOption", "cfg.json: unknown key(s) ['epoch']"),
        (["calibrate"], "cfg.json", '{"lr": NaN}', "InvalidOption", "cfg.json: non-finite number NaN"),
        (["calibrate"], "cfg.json", '{"epochs": "5"}', "InvalidOption",
         "cfg.json: epochs is '5', need a value of type int"),
        (["eakf"], "cfg.json", '{"seed": "x"}', "InvalidOption",
         "cfg.json: seed is 'x', need a value of type int"),
        (["simulate"], "cfg.json", '{"seed": -1}', "InvalidOption", "cfg.json: --seed must be finite and >= 0"),
        (["simulate", "--steps", "0"], None, None, "InvalidOption", "--steps"),
        (["correct-data", "--epochs", "0"], None, None, "InvalidOption", "--epochs"),
        (["eakf", "--horizon", "50"], None, None, "InvalidOption",
         "horizon 50 leaves no training window in the 24 weeks of "),
        (["eakf", "--window", "1000"], None, None, "InvalidOption", "window 1000 + horizon 4 exceed the 24 weeks of "),
    ], ids=["population-not-a-number", "population-zero", "patch-duplicated", "category-unknown",
            "population-column-missing", "cases-duplicated-week", "travel-duplicated-pair", "travel-self-loop",
            "travel-flow-not-a-number", "travel-flow-over-population", "param-nan", "param-not-a-number",
            "param-row-missing", "param-gamma-missing", "param-unknown-field", "metrics-nan-pred",
            "metrics-non-integer-week", "config-not-json", "config-not-an-object",
            "config-unknown-key", "config-nan", "config-epochs-a-string", "config-seed-a-string",
            "config-seed-negative", "simulate-zero-steps", "correct-data-zero-epochs",
            "horizon-past-bundle", "window-past-bundle"])
    def test_input_fault_exits_three_and_names_file(self, data_dir, tmp_path, capsys,
                                                    argv, table, edit, error, fragment):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        if isinstance(edit, str):  # a file written as text
            (data / table).write_text(edit)
        elif table is not None:  # a bundle CSV edited row by row
            with open(data / table, newline="") as fh:
                rows = list(csv.reader(fh))
            edit(rows)
            with open(data / table, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        if argv[0] == "metrics":
            io.write_series(data / "truth.csv", np.array([1.0, 2.0, 4.0]))
            argv = argv + ["--pred", str(data / "pred.csv"), "--truth", str(data / "truth.csv")]
        else:
            argv = argv + ["--data", str(data)] + {
                "eakf": ["--size", "4"], "simulate": [], "correct-data": ["--k", "1"],
                "calibrate": ["--epochs", "1"]}[argv[0]]
        if table == "cfg.json":
            argv = argv + ["--config", str(data / table)]
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert f"[{error}]" in err and fragment in err, err
        assert table is None or f"{table}: " in err, err
