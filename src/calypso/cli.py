"""Batch command-line front end.

Subcommands: synth, simulate, calibrate, adapter, forecast, eakf,
policy-region, policy-greedy, sensitivity, outbreak, correct-data,
metrics.  A command writes its results into a staging directory inside
``--out`` (``_out_dir``); when it succeeds, ``main`` moves them, then a
``run_manifest.json`` (effective config, seed, git-describe string, wall
time, files written), into ``--out``.  A non-zero exit leaves ``--out`` as
it was: a file from an earlier run stays until a run succeeds.  A JSON
config file may supply defaults via ``--config``; explicit flags override
it.  Every numeric option has a bound in ``_BOUNDS``, and ``--out`` must be
a directory, checked before any work; a refusal names the flag.  Every
command that reads ``--checkpoint`` loads it through ``_load_net``.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from . import adapter as adapter_mod
from . import analysis, calib, eakf, io, synth
from .core import NON_GENERAL, aggregate, check_option, metrics as compute_metrics
from .errors import DataError, DegenerateTruth, InvalidOption, NumericalError, ShapeMismatch
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


def _write_manifest(out_dir: Path, command: str, config: dict, written: list[Path], started: float) -> None:
    _write_json(out_dir / "run_manifest.json", {
        "command": command,
        # an infinite option (e.g. --obs-var inf) is valid; JSON has no number for it
        "config": {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
                   for k, v in config.items()},
        "seed": config.get("seed"),
        "git_describe": _git_describe(),
        "wall_time_s": round(time.time() - started, 3),
        "written": [str(p) for p in written],
    })


def _staging(out: Path) -> Path:
    return out / f".calypso-{os.getpid()}"


def _out_dir(config: dict) -> Path:
    """The run's staging directory inside ``--out``, made on first use."""
    stage = _staging(Path(config["out"]))
    stage.mkdir(parents=True, exist_ok=True)
    return stage


def _refuse_constant(config: dict, observed, first: int) -> None:
    """Refuse ``observed``, patches x weeks of ``cases.csv`` from week ``first``, if its state series is constant."""
    state = observed.sum(axis=0)
    if state.min() == state.max():
        raise DegenerateTruth(f"{Path(config['data']) / 'cases.csv'}: the state count is {state[0]:g} in every "
                              f"week {first}-{first + len(state) - 1}, so R^2 is undefined")


def _load_bundle(config: dict):
    graph, _, _ = io.load_graph(config["data"])
    data = io.load_dataset(config["data"], graph, window=config.get("window"), horizon=config["horizon"])
    _refuse_constant(config, data.training_observed(), 0)
    return graph, data


def _load_net(config: dict, data) -> calib.CalibNet:
    """The ``--checkpoint`` net; a net fit on other feature channels (names, in order) is refused."""
    net = calib.load_checkpoint(config["checkpoint"])
    if net.feature_names != data.feature_names:
        raise ShapeMismatch(f"{config['checkpoint']}: net was fit on feature channels {list(net.feature_names)}, "
                            f"{Path(config['data']) / 'features.csv'} has {list(data.feature_names)}")
    return net


def _load_model(config: dict) -> tuple:
    """The bundle's graph and the model the ``--checkpoint`` net fits to it."""
    graph, data = _load_bundle(config)
    return graph, analysis.FittedModel.from_calibration(_load_net(config, data), data, graph)


# -- subcommand bodies ----------------------------------------------------

def cmd_synth(config: dict) -> None:
    spec = synth.SynthSpec(
        n_patches=config["patches"], n_regions=config["regions"],
        weeks=config["weeks"], horizon=config["horizon"], seed=config["seed"],
    )
    synth.generate(spec).write(_out_dir(config))


def cmd_simulate(config: dict) -> None:
    graph, data = _load_bundle(config)
    path = config.get("params") or Path(config["data"]) / "ground_truth.csv"
    params = io.load_ground_truth_params(path, graph)
    if (steps := config.get("steps") or params.n_steps) > params.n_steps:
        raise ShapeMismatch(f"--steps {steps} exceeds the {params.n_steps} weeks of parameters in {path}")
    traj = simulate(graph, params, data.initial_infections, SimConfig(steps=steps))
    out = _out_dir(config)
    io.write_trajectory(out / "trajectory.csv", graph, traj)
    io.write_trajectory_summary(out / "summary.json", graph, traj)


def cmd_calibrate(config: dict) -> None:
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
    calib.save_checkpoint(out / "checkpoint.json", result.net, extra={
        "best_loss": result.best_loss, "best_loss_epoch": result.best_loss_epoch,
        "best_r2": result.best_r2, "best_r2_epoch": result.best_r2_epoch,
    })
    calib.save_checkpoint(out / "checkpoint_best_r2.json", result.best_r2_net)
    history = enumerate(zip(result.history["loss"], result.history["state_r2"], result.history["lr"]))
    _write_rows(out / "loss_history.csv", ["epoch", "loss", "state_r2", "lr"], ((e, *row) for e, row in history))
    io.write_params(out / "params.csv", calib.infer_params(result.net, data, graph))


def cmd_adapter(config: dict) -> None:
    hyper = adapter_mod.AdapterTrainConfig(
        epochs=config["epochs"], learning_rate=config["lr"],
        teacher_ratio=config["teacher_ratio"], seed=config["seed"],
    )
    graph, data = _load_bundle(config)
    traj = calib.forecast(_load_net(config, data), data, graph, 0)
    raw = adapter_mod.stack_levels(traj.weekly_series, graph)
    truth = adapter_mod.stack_levels(data.training_observed(), graph)
    ad_net = adapter_mod.AdapterNet(seed=config["seed"])
    trained, history = adapter_mod.train_adapter(ad_net, raw, truth, hyper)
    out = _out_dir(config)
    adapter_mod.save_checkpoint(out / "adapter.json", trained)
    _write_rows(out / "adapter_history.csv", ["epoch", "loss"], enumerate(history["loss"]))


def cmd_forecast(config: dict) -> None:
    if config["horizon"] < 1:
        raise InvalidOption(f"forecast needs --horizon >= 1, got {config['horizon']}")
    graph, data = _load_bundle(config)
    if data.horizon >= 2:  # the holdout is scored
        _refuse_constant(config, data.holdout_observed(), data.window)
    net = _load_net(config, data)
    if ad_net := config.get("adapter") and adapter_mod.load_checkpoint(config["adapter"]):
        try:
            adapter_mod.check_units(ad_net, graph.n_patches + graph.n_regions + 1)
        except ShapeMismatch as exc:
            raise ShapeMismatch(f"{config['adapter']}: {exc}") from None
    traj = calib.forecast(net, data, graph, config["horizon"])
    out = _out_dir(config)
    io.write_trajectory(out / "forecast_trajectory.csv", graph, traj)
    io.write_level_series(out, graph, traj.weekly_series, "forecast")
    if ad_net:
        corrected = adapter_mod.refine(ad_net, adapter_mod.stack_levels(traj.weekly_series, graph))
        io.write_series(out / "forecast_corrected_state.csv", corrected[graph.n_patches + graph.n_regions])
    if data.horizon >= 2:
        pred = aggregate(traj.weekly_series[:, data.window : data.window + data.horizon], "state", graph)[0]
        _write_json(out / "holdout_metrics.json",
                    compute_metrics(pred, aggregate(data.holdout_observed(), "state", graph)[0]))


def cmd_eakf(config: dict) -> None:
    graph, data = _load_bundle(config)
    if data.horizon >= 2:  # the holdout is scored
        _refuse_constant(config, data.holdout_observed(), data.window)
    result = eakf.run_eakf(
        graph, data, size=config["size"], inflation=config["inflation"],
        obs_error_variance=config.get("obs_var"), seed=config["seed"],
    )
    out = _out_dir(config)
    io.write_eakf_summary(out / "eakf_summary.csv", result, graph)
    io.write_trajectory(out / "eakf_trajectory.csv", graph, result.trajectory)
    if data.horizon >= 1:
        pred = aggregate(result.forecast(data.horizon), "state", graph)[0]
        io.write_series(out / "eakf_forecast_state.csv", pred)
    if data.horizon >= 2:
        _write_json(out / "eakf_holdout_metrics.json",
                    compute_metrics(pred, aggregate(data.holdout_observed(), "state", graph)[0]))


def cmd_policy_region(config: dict) -> None:
    graph, model = _load_model(config)
    report = analysis.regional_beta_reduction(model, graph, config["region"], factor=config["factor"])
    out = _out_dir(config)
    _write_rows(out / "policy_region.csv", ["region", "delta", "reduction"],
                ((rid, report.region_delta[graph.region_index[rid]],
                  -report.region_delta[graph.region_index[rid]]) for rid in graph.region_ids))
    _write_json(out / "policy_region.json", {
        "kind": "beta-reduction", "baseline_total": report.baseline_total,
        "target": config["region"], "factor": config["factor"],
        "state_delta": report.details["state_delta"],
        "state_reduction": -report.details["state_delta"],
        "ranking": [[r, v] for r, v in report.ranking],
    })


def cmd_policy_greedy(config: dict) -> None:
    graph, model = _load_model(config)
    candidates = config["candidates"].split(",") if config.get("candidates") is not None else None
    brute_force = config.get("brute_force")
    allocate = analysis.brute_force_allocation if brute_force else analysis.unit_greedy
    res = allocate(model, graph, config["budget"], multiplier=config["multiplier"], candidates=candidates)
    out = _out_dir(config)
    curve_rows = ([(1, "+".join(res.selected), res.reduction)] if brute_force
                  else [(b + 1, res.selected[b], res.reductions[b]) for b in range(len(res.selected))])
    _write_rows(out / "policy_greedy_curve.csv", ["budget", "patch", "cumulative_reduction"], curve_rows)
    _write_json(out / "policy_greedy.json", {
        "mode": "brute-force" if brute_force else "greedy", "selected": list(res.selected),
        "reduction": res.reduction,
        "evaluations": res.evaluations, "baseline_total": res.baseline_total,
    })


def cmd_sensitivity(config: dict) -> None:
    graph, model = _load_model(config)
    report = analysis.sensitivity_scan(model, graph, bump=config["bump"])
    out = _out_dir(config)
    rows = [(recv, src, report.impact_ratio[j, i])
            for j, recv in enumerate(graph.region_ids) for i, src in enumerate(graph.region_ids)]
    _write_rows(out / "sensitivity_matrix.csv", ["receiver", "source", "impact_ratio"], rows)
    _write_json(out / "sensitivity.json", {
        "bump": config["bump"],
        "ranking": [[r, v] for r, v in report.ranking],
        "baseline_total": report.baseline_total,
    })


def cmd_outbreak(config: dict) -> None:
    graph, model = _load_model(config)
    report = analysis.outbreak_ranking(model, graph, config["k"], target=config.get("target"))
    out = _out_dir(config)
    pct = report.details["percent_of_baseline"]
    _write_rows(out / "outbreak_ranking.csv", ["patch", "delta", "percent_of_baseline"],
                ((pid, d, pct[pid]) for pid, d in report.ranking))
    _write_json(out / "outbreak.json", {
        "k": config["k"], "target": config.get("target"),
        "baseline_total": report.baseline_total,
        "ranking": [[p, v] for p, v in report.ranking],
        "region_attribution_percent": report.details["region_attribution_percent"],
    })


def cmd_correct_data(config: dict) -> None:
    graph, data = _load_bundle(config)
    noisy = (config["noisy_patches"].split(",") if config.get("noisy_patches") is not None
             else graph.patches_of_category(NON_GENERAL)[: config["noisy_count"]])
    noisy = analysis.check_noisy_patches(graph, noisy, config["k"])
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
    _write_rows(out / "correction_curve.csv", ["step", "patch", "state_r2"], rows)
    _write_json(out / "correction.json", {
        "order": list(result.order),
        "baseline_r2": result.baseline_r2,
        "clean_r2": result.clean_r2,
        "noisy_patches": noisy,
        "noise_sd": config["noise_sd"],
    })


def cmd_metrics(config: dict) -> None:
    result = compute_metrics(io.read_series(config["pred"]), io.read_series(config["truth"]))
    _write_json(_out_dir(config) / "metrics.json", result)
    print(json.dumps(result, sort_keys=True))


# -- argument plumbing ----------------------------------------------------

# Every option with a default, per subcommand; ``_build_parser`` makes one
# flag per key, typed by its default.
_DEFAULTS: dict[str, dict] = {
    "synth": {"seed": 1, "patches": 24, "regions": 4, "weeks": 120, "horizon": 4},
    "simulate": {"horizon": 4},
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
    "metrics": {},
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
    out = Path(args.out)
    stage, paths = _staging(out), (out, *out.parents)
    made = paths[:next(i for i, path in enumerate(paths) if path.exists())]  # deepest first
    try:
        config = _effective_config(args, types[args.command])
        if not paths[len(made)].is_dir():
            raise InvalidOption(f"--out {out}: {paths[len(made)]} is not a directory")
        _HANDLERS[args.command](config)
        names = sorted(os.listdir(stage))
        _write_manifest(stage, args.command, config, [out / name for name in names], started)
        for name in [*names, "run_manifest.json"]:
            os.replace(stage / name, out / name)
    except (DataError, NumericalError) as exc:
        print(f"calypso: error [{type(exc).__name__}] {str(exc).replace(str(stage), str(out))}", file=sys.stderr)
        return 3 if isinstance(exc, DataError) else 4
    finally:
        shutil.rmtree(stage, ignore_errors=True)
        for path in made:  # what this run made and left empty
            if path.is_dir() and not any(path.iterdir()):
                path.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
