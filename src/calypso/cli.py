"""Batch command-line front end.

Subcommands: synth, simulate, calibrate, adapter, forecast, eakf,
policy-region, policy-greedy, sensitivity, outbreak, correct-data,
metrics.  Every run writes its results plus a ``run_manifest.json``
(effective config, seed, git-describe string, wall time).  A JSON config
file may supply defaults via ``--config``; explicit flags override it.
Every numeric option has a bound in ``_BOUNDS``, checked before any work
(from a flag or ``--config``); a refusal names the flag.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

from . import adapter as adapter_mod
from . import analysis, calib, eakf, io, synth
from .core import NON_GENERAL, aggregate, check_option, metrics as compute_metrics
from .errors import DataError, InvalidOption, NumericalError
from .io import write_json as _write_json, write_rows as _write_rows
from .sim import SimConfig, simulate


def _git_describe() -> str:
    """``git describe`` of the checkout calypso runs from (not of the working
    directory); "unknown" when the package is not in a git work tree."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent, capture_output=True, text=True, timeout=5,
        )
        return out.returncode == 0 and out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def _write_manifest(out_dir: Path, command: str, config: dict, written: list, started: float) -> None:
    _write_json(out_dir / "run_manifest.json", {
        "command": command,
        # an infinite option (e.g. --obs-var inf) is valid; JSON has no number for it
        "config": {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
                   for k, v in config.items()},
        "seed": config.get("seed"),
        "git_describe": _git_describe(),
        "wall_time_s": round(time.time() - started, 3),
        "written": [str(Path(p)) for p in written],
    })


def _out_dir(config: dict) -> Path:
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_bundle(config: dict):
    graph, _, _ = io.load_graph(config["data"])
    return graph, io.load_dataset(config["data"], graph, window=config.get("window"), horizon=config["horizon"])


def _load_model(config: dict, graph, data) -> analysis.FittedModel:
    net, _ = calib.load_checkpoint(config["checkpoint"])
    return analysis.FittedModel.from_calibration(net, data, graph)


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
    params = io.load_ground_truth_params(config.get("params") or Path(config["data"]) / "ground_truth.csv", graph)
    traj = simulate(graph, params, data.initial_infections, SimConfig(steps=config.get("steps") or params.n_steps))
    out = _out_dir(config)
    return [
        io.write_trajectory(out / "trajectory.csv", graph, traj),
        io.write_trajectory_summary(out / "summary.json", graph, traj),
    ]


def cmd_calibrate(config: dict) -> list:
    net_config = calib.CalibConfig(hidden=config["hidden"], decoder_width=config["decoder_width"])
    hyper = calib.TrainConfig(
        epochs=config["epochs"], learning_rate=config["lr"],
        weight_decay=config["weight_decay"], clip_norm=config["clip"],
        lr_step=config["lr_step"], lr_decay=config["lr_decay"], seed=config["seed"],
        loss_weights=calib.LossWeights(config["w_patch"], config["w_region"], config["w_state"]),
    )
    graph, data = _load_bundle(config)
    net = calib.CalibNet(data.features.shape[2], config=net_config, seed=config["seed"])
    result = calib.train_joint(net, data, graph, hyper)
    out = _out_dir(config)
    written = [
        calib.save_checkpoint(out / "checkpoint.json", result.net, extra={
            "best_loss": result.best_loss, "best_loss_epoch": result.best_loss_epoch,
            "best_r2": result.best_r2, "best_r2_epoch": result.best_r2_epoch,
        }),
        calib.save_checkpoint(out / "checkpoint_best_r2.json", result.best_r2_net),
        _write_rows(out / "loss_history.csv", ["epoch", "loss", "state_r2", "lr"],
                    ((e, *row) for e, row in enumerate(
                        zip(result.history["loss"], result.history["state_r2"], result.history["lr"])))),
    ]
    params = calib.infer_params(result.net, data, graph)
    written.append(io.write_params(out / "params.csv", params))
    return written


def cmd_adapter(config: dict) -> list:
    hyper = adapter_mod.AdapterTrainConfig(
        epochs=config["epochs"], learning_rate=config["lr"],
        teacher_ratio=config["teacher_ratio"], seed=config["seed"],
    )
    graph, data = _load_bundle(config)
    net, _ = calib.load_checkpoint(config["checkpoint"])
    traj = simulate(graph, calib.infer_params(net, data, graph), data.initial_infections,
                    SimConfig(steps=data.window))
    raw = adapter_mod.stack_levels(traj.weekly_series, graph)
    truth = adapter_mod.stack_levels(data.training_observed(), graph)
    ad_net = adapter_mod.AdapterNet(seed=config["seed"])
    trained, history = adapter_mod.train_adapter(ad_net, raw, truth, hyper)
    out = _out_dir(config)
    return [
        adapter_mod.save_checkpoint(out / "adapter.json", trained),
        _write_rows(out / "adapter_history.csv", ["epoch", "loss"], enumerate(history["loss"])),
    ]


def cmd_forecast(config: dict) -> list:
    graph, data = _load_bundle(config)
    net, _ = calib.load_checkpoint(config["checkpoint"])
    traj = calib.forecast(net, data, graph, config["horizon"])
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
    model = _load_model(config, graph, data)
    report = analysis.regional_beta_reduction(model, graph, config["region"], factor=config["factor"])
    out = _out_dir(config)
    return [
        _write_rows(out / "policy_region.csv", ["region", "delta", "reduction"],
                    ((rid, report.region_delta[graph.region_index[rid]],
                      -report.region_delta[graph.region_index[rid]]) for rid in graph.region_ids)),
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
    model = _load_model(config, graph, data)
    candidates = config["candidates"].split(",") if config.get("candidates") else None
    out = _out_dir(config)
    allocate = analysis.brute_force_allocation if config.get("brute_force") else analysis.unit_greedy
    res = allocate(model, graph, config["budget"], multiplier=config["multiplier"], candidates=candidates)
    if config.get("brute_force"):
        mode, reduction = "brute-force", res.reduction
        curve_rows = [(1, "+".join(res.selected), res.reduction)]
    else:
        mode, reduction = "greedy", float(res.reductions[-1])
        curve_rows = [(b + 1, res.selected[b], res.reductions[b]) for b in range(len(res.selected))]
    return [
        _write_rows(out / "policy_greedy_curve.csv", ["budget", "patch", "cumulative_reduction"], curve_rows),
        _write_json(out / "policy_greedy.json", {
            "mode": mode, "selected": list(res.selected), "reduction": reduction,
            "evaluations": res.evaluations, "baseline_total": res.baseline_total,
        }),
    ]


def cmd_sensitivity(config: dict) -> list:
    graph, data = _load_bundle(config)
    model = _load_model(config, graph, data)
    report = analysis.sensitivity_scan(model, graph, bump=config["bump"])
    out = _out_dir(config)
    rows = [(recv, src, report.impact_ratio[j, i])
            for j, recv in enumerate(graph.region_ids) for i, src in enumerate(graph.region_ids)]
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
    model = _load_model(config, graph, data)
    report = analysis.outbreak_ranking(model, graph, config["k"], target=config.get("target"))
    out = _out_dir(config)
    pct = report.details["percent_of_baseline"]
    return [
        _write_rows(out / "outbreak_ranking.csv", ["patch", "delta", "percent_of_baseline"],
                    ((pid, d, pct[pid]) for pid, d in report.ranking)),
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
    analysis.check_noisy_patches(graph, noisy, config["k"])
    net = calib.CalibNet(data.features.shape[2], seed=config["seed"])
    hyper = calib.TrainConfig(epochs=config["epochs"], seed=config["seed"])
    trained = calib.train_joint(net, data, graph, hyper).net
    result = analysis.greedy_data_correction(
        trained, data, graph, noisy, config["noise_sd"], config["k"],
        seed=config["seed"], eval_draws=config["eval_draws"],
        retrain=hyper if config.get("retrain") else None,
    )
    out = _out_dir(config)
    rows = [(0, "", result.r2_curve[0])]
    rows += [(i + 1, result.order[i], result.r2_curve[i + 1]) for i in range(len(result.order))]
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
    result = compute_metrics(io.read_series(config["pred"]), io.read_series(config["truth"]))
    path = _write_json(_out_dir(config) / "metrics.json", result)
    print(json.dumps(result, sort_keys=True))
    return [path]


# -- argument plumbing ----------------------------------------------------

# Every option with a default, per subcommand; ``_build_parser`` makes one
# flag per key, typed by its default.
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

# Every int and float option's ``check_option`` bound, ``(low, strict[, high])``,
# shared by every command that has the option; ``high=inf`` admits +inf.
_BOUNDS: dict[str, tuple] = {
    "seed": (0, False), "horizon": (0, False), "window": (1, False), "steps": (1, False), "patches": (2, False),
    "regions": (1, False), "weeks": (8, False), "epochs": (1, False), "lr": (0, True), "weight_decay": (0, False),
    "clip": (0, False), "lr_step": (1, False), "lr_decay": (0, True), "hidden": (1, False),
    "decoder_width": (1, False), "w_patch": (0, False), "w_region": (0, False), "w_state": (0, False),
    "teacher_ratio": (0, False, 1), "size": (2, False), "inflation": (1, False), "obs_var": (0, True, math.inf),
    "factor": (0, True), "budget": (1, False), "multiplier": (0, True), "bump": (1, True), "k": (0, False),
    "noise_sd": (0, False), "noisy_count": (1, False), "eval_draws": (1, False),
}

_HANDLERS = {name: globals()["cmd_" + name.replace("-", "_")] for name in _DEFAULTS}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, dict[str, type]]]:
    """The parser, and per subcommand the value type of each option (a flag's is bool)."""
    parser = argparse.ArgumentParser(prog="calypso", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    types: dict[str, dict[str, type]] = {}

    def add(name: str, *, needs_data=False, needs_checkpoint=False, help=""):
        """A subparser with one flag per ``_DEFAULTS[name]`` key, typed by its default.

        Returns ``option(flag, kind=str, **kwargs)``, which adds one more
        option and records its type; ``kind=bool`` makes a flag.
        """
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON file with default option values")
        kinds = types[name] = {}

        def option(flag: str, kind: type = str, **kwargs) -> None:
            if kind is bool:
                action = p.add_argument(flag, action="store_true", default=None, **kwargs)
            else:
                action = p.add_argument(flag, type=kind, **kwargs)
            kinds[action.dest] = kind

        for key, default in _DEFAULTS[name].items():
            option("--" + key.replace("_", "-"), type(default), help=f"default {default}")
        if needs_data:
            option("--data", required=True, help="input CSV directory")
            option("--window", int, help="training window (weeks)")
        if needs_checkpoint:
            option("--checkpoint", required=True, help="calibration checkpoint JSON")
        option("--out", required=True, help="output directory")
        return option

    add("synth", help="generate a synthetic input bundle")
    option = add("simulate", needs_data=True, help="run the simulator from a parameter file")
    option("--params", help="parameter CSV (defaults to DATA/ground_truth.csv)")
    option("--steps", int)
    add("calibrate", needs_data=True, help="train the calibration network")
    add("adapter", needs_data=True, needs_checkpoint=True, help="train the residual corrector")
    option = add("forecast", needs_data=True, needs_checkpoint=True, help="forecast beyond the window")
    option("--adapter", help="adapter checkpoint JSON")
    option = add("eakf", needs_data=True, help="run the ensemble Kalman baseline")
    option("--obs-var", float)
    option = add("policy-region", needs_data=True, needs_checkpoint=True,
                 help="regional transmission reduction")
    option("--region", required=True)
    option = add("policy-greedy", needs_data=True, needs_checkpoint=True, help="budgeted greedy allocation")
    option("--candidates", help="comma-separated candidate patches")
    option("--brute-force", bool)
    add("sensitivity", needs_data=True, needs_checkpoint=True, help="per-capita sensitivity scan")
    option = add("outbreak", needs_data=True, needs_checkpoint=True, help="outbreak-impact ranking")
    option("--target", help="rank external sources for this patch")
    option = add("correct-data", needs_data=True, help="greedy correction of noisy inputs")
    option("--noisy-patches", help="comma-separated patches to corrupt")
    option("--retrain", bool)
    option = add("metrics", help="R^2/MSE/MAE/RMSE of one series against another")
    option("--pred", required=True)
    option("--truth", required=True)
    return parser, types


def _fits(value, kind: type) -> bool:
    """Whether a JSON value has an option's type; an int may stand for a float."""
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, kind) or (kind is float and isinstance(value, int))


def _effective_config(args: argparse.Namespace, types: dict[str, type]) -> dict:
    """Defaults, then ``--config`` values, then explicit flags, each int or float
    inside its ``_BOUNDS``; every ``--config`` value must have its ``types`` entry."""
    command = args.command
    config, loaded = dict(_DEFAULTS.get(command, {})), {}
    if args.config:
        loaded = io.read_json(args.config, InvalidOption)
        if not isinstance(loaded, dict):
            raise InvalidOption(f"{args.config}: need a JSON object of option values")
        if unknown := sorted(set(loaded) - set(types)):
            raise InvalidOption(f"{args.config}: unknown key(s) {unknown} for {command}")
        for key, value in loaded.items():
            if not _fits(value, types[key]):
                raise InvalidOption(
                    f"{args.config}: {key} is {value!r}, need a value of type {types[key].__name__}")
        config.update(loaded)
    flags = {key: value for key, value in vars(args).items() if key not in ("command", "config") and value is not None}
    config.update(flags)
    for key, value in config.items():
        if types[key] in (int, float):
            source = f"{args.config}: " if key in loaded and key not in flags else ""
            check_option(f"{source}--{key.replace('_', '-')}", value, *_BOUNDS[key])
    return config


def main(argv: list[str] | None = None) -> int:
    parser, types = _build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        config = _effective_config(args, types[args.command])
        written = _HANDLERS[args.command](config)
        if config.get("out"):
            _write_manifest(Path(config["out"]), args.command, config, written, started)
    except (DataError, NumericalError) as exc:
        print(f"calypso: error [{type(exc).__name__}] {exc}", file=sys.stderr)
        return 3 if isinstance(exc, DataError) else 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
