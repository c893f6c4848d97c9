"""Residual corrector for simulator forecasts.

Works on the stacked multi-level series (all patch rows, then region
rows, then the state row).  A multi-layer gated recurrent stack reads,
per week, the raw forecast value, the previous output (own prediction,
or the ground truth under teacher forcing), and normalized timestep
features; an output head emits one residual per unit per week.
``refine`` returns only the corrected series, ``max(0, raw + residual)``.
Every layer steps with ``autodiff.gru_cell`` and the timestep features
come from ``calib.time_features``, both shared with the calibration net.

Training freezes the simulator and calibration net entirely: the
adapter only ever sees series, never model internals.  Teacher-forced
and autoregressive steps are mixed by a seeded per-step coin whose bias
starts at the configured ratio and decays linearly to zero by the last
epoch (a one-epoch run keeps the ratio).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import io, seeding
from .calib import time_features
from .core import PatchGraph, aggregate, check_option
from .errors import NonFiniteInput, ShapeMismatch


def stack_levels(series: np.ndarray, graph: PatchGraph) -> np.ndarray:
    """Stack a patches x weeks series into (patches + regions + 1) rows."""
    series = np.asarray(series, dtype=float)
    return np.concatenate(
        [series, aggregate(series, "region", graph), aggregate(series, "state", graph)], axis=0
    )


@dataclass(frozen=True)
class AdapterConfig:
    hidden: int = 12
    layers: int = 2
    time_harmonics: int = 3

    def __post_init__(self):
        check_option("hidden", self.hidden, 1)
        check_option("layers", self.layers, 1)
        check_option("time_harmonics", self.time_harmonics, 0)


@dataclass(frozen=True)
class AdapterTrainConfig:
    epochs: int = 400
    learning_rate: float = 5e-3
    weight_decay: float = 1e-4
    clip_norm: float = 10.0
    teacher_ratio: float = 0.5   # decays linearly to 0 over training
    seed: int = 0

    def __post_init__(self):
        check_option("epochs", self.epochs, 0)
        check_option("learning_rate", self.learning_rate, 0, strict=True)
        check_option("weight_decay", self.weight_decay, 0)
        check_option("clip_norm", self.clip_norm, 0)   # 0 turns clipping off
        check_option("teacher_ratio", self.teacher_ratio, 0, high=1)


class AdapterNet:
    """Recurrent-stack weights, output head, and timestep-embedding weights."""

    def __init__(self, config: AdapterConfig = AdapterConfig(), seed: int = 0):
        self.config = config
        self.seed = int(seed)
        h = config.hidden
        k = 1 + 2 * config.time_harmonics
        rng = seeding.spawn_rng(seed, seeding.ADAPTER, 0)
        shapes: dict[str, tuple] = {}
        for g in ("z", "r", "h"):
            shapes[f"l0_raw_{g}"] = (1, h)
            shapes[f"l0_prev_{g}"] = (1, h)
            shapes[f"l0_time_{g}"] = (k, h)
            shapes[f"l0_u_{g}"] = (h, h)
            shapes[f"l0_b_{g}"] = (h,)
        for layer in range(1, config.layers):
            for g in ("z", "r", "h"):
                shapes[f"l{layer}_w_{g}"] = (h, h)
                shapes[f"l{layer}_u_{g}"] = (h, h)
                shapes[f"l{layer}_b_{g}"] = (h,)
        shapes["out_w"] = (h,)
        shapes["out_b"] = ()
        self.weights: dict[str, np.ndarray] = {}
        for name, shape in shapes.items():
            if name.startswith("out_b") or "_b_" in name:
                self.weights[name] = np.zeros(shape)
            else:
                bound = 1.0 / np.sqrt(shape[0] if shape else 1)
                self.weights[name] = rng.uniform(-bound, bound, size=shape)
        self.scale: np.ndarray | None = None   # per-unit normalization, set at fit
        self.t_scale: int | None = None        # week-index normalizer, set at fit

    def copy(self) -> "AdapterNet":
        return copy.deepcopy(self)

    def zero_head_(self) -> "AdapterNet":
        self.weights["out_w"][...] = 0.0
        self.weights["out_b"][...] = 0.0
        return self


def _forward(net_weights, config: AdapterConfig, raw_norm, scale, t_scale: int,
             truth_norm=None, teacher_mask=None):
    """Run the stack over a (units, weeks) normalized raw series.

    Returns the corrected series as a list of per-week unit vectors.
    When ``teacher_mask`` is given, steps where it is True feed the
    normalized truth as the previous signal instead of the model's own
    output (teacher forcing).
    """
    n_units, weeks = raw_norm.shape

    def gates(name: str) -> tuple:
        return tuple(net_weights[f"{name}_{g}"] for g in "zrh")

    raw_w, prev_w, time_w = gates("l0_raw"), gates("l0_prev"), gates("l0_time")
    deep_w = [gates(f"l{layer}_w") for layer in range(1, config.layers)]
    recurrent = [(gates(f"l{layer}_u"), gates(f"l{layer}_b")) for layer in range(config.layers)]
    tau = time_features(weeks, config.time_harmonics, t_scale)
    h_states = [np.zeros((n_units, config.hidden)) for _ in range(config.layers)]
    prev = raw_norm[:, 0]
    corrected = []
    for t in range(weeks):
        raw_col = raw_norm[:, t]
        inputs = [(ad.colvec(raw_col), raw_w), (ad.colvec(prev), prev_w), (tau[t : t + 1], time_w)]
        h_states[0] = ad.gru_cell(inputs, h_states[0], *recurrent[0])
        for layer, w in enumerate(deep_w, start=1):
            h_states[layer] = ad.gru_cell([(h_states[layer - 1], w)], h_states[layer], *recurrent[layer])
        res_norm = ad.matmul(h_states[-1], net_weights["out_w"]) + net_weights["out_b"]
        res = res_norm * scale
        corr = ad.relu(raw_col * scale + res)
        corrected.append(corr)
        if teacher_mask is not None and teacher_mask[t]:
            prev = truth_norm[:, t]
        else:
            prev = corr / scale
    return corrected


def refine(net: AdapterNet, raw_forecast: np.ndarray) -> np.ndarray:
    """Correct a (units, weeks) raw series; output is clamped at zero."""
    raw = np.asarray(raw_forecast, dtype=float)
    if raw.ndim == 1:
        raw = raw[None, :]
    if not np.all(np.isfinite(raw)):
        raise NonFiniteInput("raw forecast contains non-finite values")
    scale = net.scale if net.scale is not None else np.ones(raw.shape[0])
    if scale.shape[0] != raw.shape[0]:
        raise ShapeMismatch("adapter was fit on a different number of units")
    t_scale = net.t_scale if net.t_scale is not None else raw.shape[1]
    return np.stack(_forward(net.weights, net.config, raw / scale[:, None], scale, t_scale), axis=1)


def train_adapter(
    net: AdapterNet,
    raw: np.ndarray,
    truth: np.ndarray,
    hyper: AdapterTrainConfig = AdapterTrainConfig(),
) -> tuple[AdapterNet, dict[str, np.ndarray]]:
    """Fit the residual corrector on aligned (units, weeks) series.

    Minimizes the per-unit normalized MSE of the corrected series
    against the truth.  Returns a trained copy plus the loss history;
    the input net is untouched.
    """
    raw = np.asarray(raw, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if raw.shape != truth.shape:
        raise ShapeMismatch(f"raw {raw.shape} and truth {truth.shape} differ")
    if not (np.all(np.isfinite(raw)) and np.all(np.isfinite(truth))):
        raise NonFiniteInput("training series contain non-finite values")

    work = net.copy()
    n_units, weeks = raw.shape
    work.scale = np.maximum(1.0, truth.std(axis=1))
    work.t_scale = weeks
    scale = work.scale
    raw_norm = raw / scale[:, None]
    truth_norm = truth / scale[:, None]

    rng = seeding.spawn_rng(hyper.seed, seeding.ADAPTER, 1)
    opt = ad.Adam(work.weights, hyper.weight_decay, hyper.clip_norm)
    history = []

    for epoch in range(hyper.epochs):
        ratio = hyper.teacher_ratio * (1.0 - epoch / max(hyper.epochs - 1, 1))
        teacher_mask = rng.random(weeks) < ratio

        def epoch_loss(duals):
            corrected = _forward(
                duals, work.config, raw_norm, scale, work.t_scale,
                truth_norm=truth_norm, teacher_mask=teacher_mask,
            )
            sse = 0.0
            for t in range(weeks):
                d = corrected[t] / scale - truth_norm[:, t]
                sse = sse + ad.vsum(d * d)
            loss = sse / (n_units * weeks)
            history.append(float(loss.value))
            return loss

        opt.step(epoch_loss, hyper.learning_rate, f"adapter epoch {epoch}")
    return work, {"loss": np.array(history)}


def save_checkpoint(path, net: AdapterNet, extra: dict | None = None) -> Path:
    return io.write_checkpoint(
        path, "adapter", net, extra,
        scale=None if net.scale is None else net.scale.tolist(),
        t_scale=net.t_scale,
    )


def load_checkpoint(path) -> tuple[AdapterNet, dict]:
    def build(config: AdapterConfig, seed: int, payload: dict) -> AdapterNet:
        net = AdapterNet(config, seed=seed)
        if payload["scale"] is not None:
            net.scale = io.checkpoint_array(payload["scale"], (len(payload["scale"]),), positive=True)
        net.t_scale = None if payload["t_scale"] is None else int(payload["t_scale"])
        return net

    return io.read_checkpoint(path, "adapter", AdapterConfig, ("scale", "t_scale"), build)
