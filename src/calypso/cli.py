"""Batch command-line front end.

Subcommands: synth, simulate, calibrate, adapter, forecast, eakf,
policy-region, policy-greedy, sensitivity, outbreak, correct-data,
metrics.  Every run writes its results plus a ``run_manifest.json``
(effective config, seed, git-describe string, wall time).  A JSON config
file may supply defaults via ``--config``; explicit flags override it.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical abort.
"""

from __future__ import annotations

import argparse
import csv
import json
import subprocess
import sys
import time
from pathlib import Path

from . import adapter as adapter_mod
from . import analysis, calib, eakf, io, synth
from .core import NON_GENERAL, aggregate, metrics as compute_metrics
from .errors import DataError, InvalidOption, NumericalError
from .sim import SimConfig, simulate


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
        )
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def _write_manifest(out_dir: Path, command: str, config: dict, written: list, started: float) -> None:
    manifest = {
        "command": command,
        "config": {k: v for k, v in sorted(config.items())},
        "seed": config.get("seed"),
        "git_describe": _git_describe(),
        "wall_time_s": round(time.time() - started, 3),
        "written": [str(Path(p)) for p in written],
    }
    (out_dir / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n", encoding="utf-8"
    )


def _out_dir(config: dict) -> Path:
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_bundle(config: dict):
    data_dir = Path(config["data"])
    for name in ("patches.csv", "travel.csv", "cases.csv", "features.csv"):
        if not (data_dir / name).exists():
            raise DataError(f"missing input file {data_dir / name}")
    graph, _, _ = io.load_graph(data_dir)
    data = io.load_dataset(data_dir, graph, window=config.get("window"), horizon=config.get("horizon", 4))
    return graph, data


def _load_model(config: dict, graph, data):
    path = Path(config["checkpoint"])
    if not path.exists():
        raise DataError(f"missing checkpoint {path}")
    net, _ = calib.load_checkpoint(path)
    return net, analysis.FittedModel.from_calibration(net, data, graph)


def _epochs(config: dict) -> int:
    if config["epochs"] < 1:
        raise InvalidOption(f"--epochs must be >= 1, got {config['epochs']}")
    return config["epochs"]


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _write_rows(path: Path, header: list[str], rows) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)
    return path


def _fmt(x) -> str:
    return io._fmt(x)


# -- subcommand bodies ----------------------------------------------------

def cmd_synth(config: dict) -> list:
    spec = synth.SynthSpec(
        n_patches=config["patches"], n_regions=config["regions"],
        weeks=config["weeks"], horizon=config["horizon"], seed=config["seed"],
    )
    bundle = synth.generate(spec)
    return bundle.write(_out_dir(config))


def cmd_simulate(config: dict) -> list:
    graph, data = _load_bundle(config)
    params_path = Path(config.get("params") or Path(config["data"]) / "ground_truth.csv")
    if not params_path.exists():
        raise DataError(f"missing parameter file {params_path}")
    params = io.load_ground_truth_params(params_path, graph)
    steps = config.get("steps") or params.n_steps
    traj = simulate(graph, params, data.initial_infections, SimConfig(steps=steps))
    out = _out_dir(config)
    return [
        io.write_trajectory(out / "trajectory.csv", graph, traj),
        io.write_trajectory_summary(out / "summary.json", graph, traj),
    ]


def cmd_calibrate(config: dict) -> list:
    epochs = _epochs(config)
    graph, data = _load_bundle(config)
    net = calib.CalibNet(
        data.features.shape[2],
        config=calib.CalibConfig(hidden=config["hidden"], decoder_width=config["decoder_width"]),
        seed=config["seed"],
    )
    hyper = calib.TrainConfig(
        epochs=epochs, learning_rate=config["lr"],
        weight_decay=config["weight_decay"], clip_norm=config["clip"],
        lr_step=config["lr_step"], lr_decay=config["lr_decay"], seed=config["seed"],
        loss_weights=calib.LossWeights(config["w_patch"], config["w_region"], config["w_state"]),
    )
    result = calib.train_joint(net, data, graph, hyper)
    out = _out_dir(config)
    written = [
        calib.save_checkpoint(out / "checkpoint.json", result.net, extra={
            "best_loss": result.best_loss, "best_loss_epoch": result.best_loss_epoch,
            "best_r2": result.best_r2, "best_r2_epoch": result.best_r2_epoch,
        }),
        calib.save_checkpoint(out / "checkpoint_best_r2.json", result.best_r2_net),
        _write_rows(out / "loss_history.csv", ["epoch", "loss", "state_r2", "lr"],
                    ((e, _fmt(l), _fmt(r), _fmt(lr)) for e, (l, r, lr) in enumerate(
                        zip(result.history["loss"], result.history["state_r2"], result.history["lr"])))),
    ]
    params = calib.infer_params(result.net, data, graph)
    written.append(io.write_params(out / "params.csv", params))
    return written


def cmd_adapter(config: dict) -> list:
    epochs = _epochs(config)
    graph, data = _load_bundle(config)
    net, _ = _load_model(config, graph, data)
    traj = simulate(graph, calib.infer_params(net, data, graph), data.initial_infections,
                    SimConfig(steps=data.window))
    raw = adapter_mod.stack_levels(traj.weekly_series, graph)
    truth = adapter_mod.stack_levels(data.training_observed(), graph)
    ad_net = adapter_mod.AdapterNet(seed=config["seed"])
    hyper = adapter_mod.AdapterTrainConfig(
        epochs=epochs, learning_rate=config["lr"],
        teacher_ratio=config["teacher_ratio"], seed=config["seed"],
    )
    trained, history = adapter_mod.train_adapter(ad_net, raw, truth, hyper)
    out = _out_dir(config)
    return [
        adapter_mod.save_checkpoint(out / "adapter.json", trained),
        _write_rows(out / "adapter_history.csv", ["epoch", "loss"],
                    ((e, _fmt(l)) for e, l in enumerate(history["loss"]))),
    ]


def cmd_forecast(config: dict) -> list:
    graph, data = _load_bundle(config)
    net, _ = _load_model(config, graph, data)
    h = config["horizon"]
    traj = calib.forecast(net, data, graph, h)
    out = _out_dir(config)
    written = [io.write_trajectory(out / "forecast_trajectory.csv", graph, traj)]
    written += io.write_level_series(out, graph, traj.weekly_series, "forecast")
    if config.get("adapter"):
        ad_net, _ = adapter_mod.load_checkpoint(config["adapter"])
        stacked = adapter_mod.stack_levels(traj.weekly_series, graph)
        corrected = adapter_mod.refine(ad_net, stacked)
        n_p, n_r = graph.n_patches, graph.n_regions
        written.append(io.write_series(out / "forecast_corrected_state.csv", corrected[n_p + n_r]))
    holdout = data.holdout_observed()
    if holdout.shape[1] >= 2 and traj.n_steps >= data.window + holdout.shape[1]:
        pred = aggregate(traj.weekly_series[:, data.window : data.window + holdout.shape[1]], "state", graph)[0]
        obs = aggregate(holdout, "state", graph)[0]
        written.append(_write_json(out / "holdout_metrics.json", compute_metrics(pred, obs)))
    return written


def cmd_eakf(config: dict) -> list:
    graph, data = _load_bundle(config)
    result = eakf.run_eakf(
        graph, data, size=config["size"], inflation=config["inflation"],
        obs_error_variance=config.get("obs_var"), seed=config["seed"],
    )
    out = _out_dir(config)
    written = [
        io.write_eakf_summary(out / "eakf_summary.csv", result, graph),
        io.write_trajectory(out / "eakf_trajectory.csv", graph, result.trajectory),
    ]
    if data.horizon >= 2:
        fc = result.forecast(data.horizon)
        pred = aggregate(fc, "state", graph)[0]
        obs = aggregate(data.holdout_observed(), "state", graph)[0]
        written.append(io.write_series(out / "eakf_forecast_state.csv", pred))
        written.append(_write_json(out / "eakf_holdout_metrics.json", compute_metrics(pred, obs)))
    return written


def cmd_policy_region(config: dict) -> list:
    graph, data = _load_bundle(config)
    _, model = _load_model(config, graph, data)
    report = analysis.regional_beta_reduction(model, graph, config["region"], factor=config["factor"])
    out = _out_dir(config)
    return [
        _write_rows(out / "policy_region.csv", ["region", "delta", "reduction"],
                    ((rid, _fmt(report.region_delta[graph.region_index[rid]]),
                      _fmt(-report.region_delta[graph.region_index[rid]])) for rid in graph.region_ids)),
        _write_json(out / "policy_region.json", {
            "kind": report.kind, "baseline_total": report.baseline_total,
            "target": config["region"], "factor": config["factor"],
            "state_delta": report.details["state_delta"],
            "state_reduction": report.details["state_reduction"],
            "ranking": [[r, v] for r, v in report.ranking],
        }),
    ]


def cmd_policy_greedy(config: dict) -> list:
    graph, data = _load_bundle(config)
    _, model = _load_model(config, graph, data)
    candidates = config["candidates"].split(",") if config.get("candidates") else None
    out = _out_dir(config)
    if config.get("brute_force"):
        res = analysis.brute_force_allocation(model, graph, config["budget"],
                                              multiplier=config["multiplier"], candidates=candidates)
        payload = {
            "mode": "brute-force", "selected": list(res.selected),
            "reduction": res.reduction, "evaluations": res.evaluations,
            "baseline_total": res.baseline_total,
        }
        curve_rows = [(1, "+".join(res.selected), _fmt(res.reduction))]
    else:
        res = analysis.unit_greedy(model, graph, config["budget"],
                                   multiplier=config["multiplier"], candidates=candidates)
        payload = {
            "mode": "greedy", "selected": list(res.selected),
            "reduction": float(res.reductions[-1]), "evaluations": res.evaluations,
            "baseline_total": res.baseline_total,
        }
        curve_rows = [(b + 1, res.selected[b], _fmt(res.reductions[b])) for b in range(len(res.selected))]
    return [
        _write_rows(out / "policy_greedy_curve.csv", ["budget", "patch", "cumulative_reduction"], curve_rows),
        _write_json(out / "policy_greedy.json", payload),
    ]


def cmd_sensitivity(config: dict) -> list:
    graph, data = _load_bundle(config)
    _, model = _load_model(config, graph, data)
    report = analysis.sensitivity_scan(model, graph, bump=config["bump"])
    out = _out_dir(config)
    rows = []
    for j, recv in enumerate(graph.region_ids):
        for i, src in enumerate(graph.region_ids):
            rows.append((recv, src, _fmt(report.impact_ratio[j, i])))
    return [
        _write_rows(out / "sensitivity_matrix.csv", ["receiver", "source", "impact_ratio"], rows),
        _write_json(out / "sensitivity.json", {
            "bump": config["bump"],
            "ranking": [[r, v] for r, v in report.ranking],
            "baseline_total": report.baseline_total,
        }),
    ]


def cmd_outbreak(config: dict) -> list:
    graph, data = _load_bundle(config)
    _, model = _load_model(config, graph, data)
    report = analysis.outbreak_ranking(model, graph, config["k"], target=config.get("target"))
    out = _out_dir(config)
    pct = report.details["percent_of_baseline"]
    return [
        _write_rows(out / "outbreak_ranking.csv", ["patch", "delta", "percent_of_baseline"],
                    ((pid, _fmt(d), _fmt(pct[pid])) for pid, d in report.ranking)),
        _write_json(out / "outbreak.json", {
            "k": config["k"], "target": config.get("target"),
            "baseline_total": report.baseline_total,
            "ranking": [[p, v] for p, v in report.ranking],
            "region_attribution_percent": report.details["region_attribution_percent"],
        }),
    ]


def cmd_correct_data(config: dict) -> list:
    graph, data = _load_bundle(config)
    if config.get("noisy_patches"):
        noisy = config["noisy_patches"].split(",")
    else:
        noisy = graph.patches_of_category(NON_GENERAL)[: config["noisy_count"]]
    net = calib.CalibNet(data.features.shape[2], seed=config["seed"])
    hyper = calib.TrainConfig(epochs=config["epochs"], seed=config["seed"])
    trained = calib.train_joint(net, data, graph, hyper).net
    result = analysis.greedy_data_correction(
        trained, data, graph, noisy, config["noise_sd"], config["k"],
        seed=config["seed"], eval_draws=config["eval_draws"],
        retrain=config.get("retrain", False),
        retrain_hyper=calib.TrainConfig(epochs=config["epochs"], seed=config["seed"]),
    )
    out = _out_dir(config)
    rows = [(0, "", _fmt(result.r2_curve[0]))]
    rows += [(i + 1, result.order[i], _fmt(result.r2_curve[i + 1])) for i in range(len(result.order))]
    return [
        _write_rows(out / "correction_curve.csv", ["step", "patch", "state_r2"], rows),
        _write_json(out / "correction.json", {
            "order": list(result.order),
            "baseline_r2": result.baseline_r2,
            "clean_r2": result.clean_r2,
            "noisy_patches": noisy,
            "noise_sd": config["noise_sd"],
        }),
    ]


def cmd_metrics(config: dict) -> list:
    pred_path, truth_path = Path(config["pred"]), Path(config["truth"])
    for p in (pred_path, truth_path):
        if not p.exists():
            raise DataError(f"missing series file {p}")
    pred = io.read_series(pred_path)
    truth = io.read_series(truth_path)
    result = compute_metrics(pred, truth)
    out = _out_dir(config)
    path = _write_json(out / "metrics.json", result)
    print(json.dumps(result, sort_keys=True))
    return [path]


# -- argument plumbing ----------------------------------------------------

_DEFAULTS: dict[str, dict] = {
    "synth": {"seed": 1, "patches": 24, "regions": 4, "weeks": 120, "horizon": 4},
    "simulate": {"seed": 0, "horizon": 4},
    "calibrate": {"seed": 0, "epochs": 2000, "lr": 5e-3, "weight_decay": 0.01, "clip": 10.0,
                   "lr_step": 30, "lr_decay": 0.9, "horizon": 4, "w_patch": 1.0, "w_region": 1.0,
                   "w_state": 1.0, "hidden": 20, "decoder_width": 20},
    "adapter": {"seed": 0, "epochs": 400, "teacher_ratio": 0.5, "lr": 5e-3, "horizon": 4},
    "forecast": {"seed": 0, "horizon": 4},
    "eakf": {"seed": 0, "size": 100, "inflation": 1.02, "horizon": 4},
    "policy-region": {"seed": 0, "factor": 0.9, "horizon": 4},
    "policy-greedy": {"seed": 0, "budget": 5, "multiplier": 0.9, "horizon": 4},
    "sensitivity": {"seed": 0, "bump": 1.1, "horizon": 4},
    "outbreak": {"seed": 0, "k": 50.0, "horizon": 4},
    "correct-data": {"seed": 0, "noise_sd": 0.2, "k": 6, "noisy_count": 6, "epochs": 150, "eval_draws": 5, "horizon": 4},
    "metrics": {"seed": 0},
}

_HANDLERS = {
    "synth": cmd_synth,
    "simulate": cmd_simulate,
    "calibrate": cmd_calibrate,
    "adapter": cmd_adapter,
    "forecast": cmd_forecast,
    "eakf": cmd_eakf,
    "policy-region": cmd_policy_region,
    "policy-greedy": cmd_policy_greedy,
    "sensitivity": cmd_sensitivity,
    "outbreak": cmd_outbreak,
    "correct-data": cmd_correct_data,
    "metrics": cmd_metrics,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="calypso", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, *, needs_data=False, needs_checkpoint=False, needs_out=True, help=""):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON file with default option values")
        p.add_argument("--seed", type=int)
        if needs_data:
            p.add_argument("--data", required=True, help="input CSV directory")
            p.add_argument("--window", type=int, help="training window (weeks)")
            p.add_argument("--horizon", type=int, help="held-out horizon (weeks)")
        if needs_checkpoint:
            p.add_argument("--checkpoint", required=True, help="calibration checkpoint JSON")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")
        return p

    p = add("synth", help="generate a synthetic input bundle")
    p.add_argument("--patches", type=int)
    p.add_argument("--regions", type=int)
    p.add_argument("--weeks", type=int)
    p.add_argument("--horizon", type=int)

    p = add("simulate", needs_data=True, help="run the simulator from a parameter file")
    p.add_argument("--params", help="parameter CSV (defaults to DATA/ground_truth.csv)")
    p.add_argument("--steps", type=int)

    p = add("calibrate", needs_data=True, help="train the calibration network")
    for flag, typ in (("--epochs", int), ("--lr", float), ("--weight-decay", float),
                      ("--clip", float), ("--lr-step", int), ("--lr-decay", float),
                      ("--w-patch", float), ("--w-region", float), ("--w-state", float),
                      ("--hidden", int), ("--decoder-width", int)):
        p.add_argument(flag, type=typ)

    p = add("adapter", needs_data=True, needs_checkpoint=True, help="train the residual corrector")
    p.add_argument("--epochs", type=int)
    p.add_argument("--teacher-ratio", type=float)
    p.add_argument("--lr", type=float)

    p = add("forecast", needs_data=True, needs_checkpoint=True, help="forecast beyond the window")
    p.add_argument("--adapter", help="adapter checkpoint JSON")

    p = add("eakf", needs_data=True, help="run the ensemble Kalman baseline")
    p.add_argument("--size", type=int)
    p.add_argument("--inflation", type=float)
    p.add_argument("--obs-var", type=float)

    p = add("policy-region", needs_data=True, needs_checkpoint=True, help="regional transmission reduction")
    p.add_argument("--region", required=True)
    p.add_argument("--factor", type=float)

    p = add("policy-greedy", needs_data=True, needs_checkpoint=True, help="budgeted greedy allocation")
    p.add_argument("--budget", type=int)
    p.add_argument("--multiplier", type=float)
    p.add_argument("--candidates", help="comma-separated candidate patches")
    p.add_argument("--brute-force", action="store_true", default=None)

    p = add("sensitivity", needs_data=True, needs_checkpoint=True, help="per-capita sensitivity scan")
    p.add_argument("--bump", type=float)

    p = add("outbreak", needs_data=True, needs_checkpoint=True, help="outbreak-impact ranking")
    p.add_argument("--k", type=float)
    p.add_argument("--target", help="rank external sources for this patch")

    p = add("correct-data", needs_data=True, help="greedy correction of noisy inputs")
    p.add_argument("--noisy-patches", help="comma-separated patches to corrupt")
    p.add_argument("--noisy-count", type=int)
    p.add_argument("--noise-sd", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--eval-draws", type=int)
    p.add_argument("--retrain", action="store_true", default=None)

    p = add("metrics", help="R^2/MSE/MAE/RMSE of one series against another")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    return parser


def _effective_config(args: argparse.Namespace) -> dict:
    command = args.command
    config = dict(_DEFAULTS.get(command, {}))
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise DataError(f"missing config file {path}")
        config.update(json.loads(path.read_text(encoding="utf-8")))
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        config[key] = value
    return config


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        config = _effective_config(args)
        written = _HANDLERS[args.command](config)
        if config.get("out"):
            _write_manifest(Path(config["out"]), args.command, config, written, started)
    except DataError as exc:
        print(f"calypso: error [{type(exc).__name__}] {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"calypso: error [{type(exc).__name__}] {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
