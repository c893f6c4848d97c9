import csv
import json
import shutil

import numpy as np
import pytest

from calypso import io, synth
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


class TestErrorHandling:
    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth"])  # missing required --out
        assert exc.value.code == 2

    def test_missing_data_dir_is_data_error(self, tmp_path):
        code = main(["calibrate", "--data", str(tmp_path / "missing"), "--epochs", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_numerical_abort_exits_four(self, data_dir, checkpoint, tmp_path):
        # an absurd learning rate overflows the adapter's residual head
        code = main(["adapter", "--data", str(data_dir), "--checkpoint", str(checkpoint),
                     "--epochs", "5", "--lr", "1e154", "--out", str(tmp_path / "o")])
        assert code == 4

    def test_config_file_supplies_defaults(self, data_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 3, "seed": 9}))
        out = tmp_path / "o"
        assert main(["calibrate", "--data", str(data_dir), "--config", str(cfg),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["epochs"] == 3
        assert manifest["config"]["seed"] == 9

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
        ("data", None, "ShapeMismatch", "feature channels"),
        ("epochs", None, "InvalidOption", "--epochs"),
    ], ids=["not-json", "calib-missing-n_features", "unknown-config-key", "calib-truncated-weight",
            "adapter-truncated-weight", "calib-missing-weight", "adapter-missing-weight",
            "adapter-nan-weight", "adapter-missing-t_scale", "feature-channel-mismatch",
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
