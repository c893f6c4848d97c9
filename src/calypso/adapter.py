"""Residual corrector for simulator forecasts.

Works on the stacked multi-level series (all patch rows, then region
rows, then the state row).  A multi-layer gated recurrent stack reads,
per week, the raw forecast value, the previous output (own prediction,
or the ground truth under teacher forcing), and normalized timestep
features; an output head emits one residual per unit per week.  The
corrected series is ``max(0, raw + residual)``.

Training freezes the simulator and calibration net entirely: the
adapter only ever sees series, never model internals.  Teacher-forced
and autoregressive steps are mixed by a seeded per-step coin whose bias
starts at the configured ratio and decays linearly to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import io, seeding
from .autodiff import Tape
from .core import PatchGraph, aggregate
from .errors import NonFiniteInput, NonFiniteLoss, ShapeMismatch


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


@dataclass(frozen=True)
class AdapterTrainConfig:
    epochs: int = 400
    learning_rate: float = 5e-3
    weight_decay: float = 1e-4
    clip_norm: float = 10.0
    teacher_ratio: float = 0.5
    ratio_decay: bool = True   # decay the ratio linearly to 0 over training
    seed: int = 0


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
        out = AdapterNet.__new__(AdapterNet)
        out.config = self.config
        out.seed = self.seed
        out.weights = {k: v.copy() for k, v in self.weights.items()}
        out.scale = None if self.scale is None else self.scale.copy()
        out.t_scale = self.t_scale
        return out

    def zero_head_(self) -> "AdapterNet":
        self.weights["out_w"][...] = 0.0
        self.weights["out_b"][...] = 0.0
        return self


def _time_row(t: int, t_scale: int, harmonics: int) -> np.ndarray:
    x = t / max(t_scale, 1)
    cols = [x]
    for k in range(1, harmonics + 1):
        cols.append(np.sin(2 * np.pi * k * x))
        cols.append(np.cos(2 * np.pi * k * x))
    return np.array(cols)[None, :]  # (1, K)


def _gru_cell(weights, prefix: str, x_parts, h):
    """One GRU update; ``x_parts`` is a list of (value, weight-name-suffix)."""
    def preact(g: str):
        acc = weights[f"{prefix}_b_{g}"]
        for value, suffix in x_parts:
            acc = ad.matmul(value, weights[f"{prefix}_{suffix}_{g}"]) + acc
        return acc

    z = ad.sigmoid(preact("z") + ad.matmul(h, weights[f"{prefix}_u_z"]))
    r = ad.sigmoid(preact("r") + ad.matmul(h, weights[f"{prefix}_u_r"]))
    cand = ad.tanh(preact("h") + ad.matmul(r * h, weights[f"{prefix}_u_h"]))
    return (1.0 - z) * h + z * cand


def _forward(net_weights, config: AdapterConfig, raw_norm, scale, t_scale: int,
             truth_norm=None, teacher_mask=None):
    """Run the stack over a (units, weeks) normalized raw series.

    Returns (corrected_list, residual_list) of per-week unit vectors.
    When ``teacher_mask`` is given, steps where it is True feed the
    normalized truth as the previous signal instead of the model's own
    output (teacher forcing).
    """
    n_units, weeks = raw_norm.shape
    h_states = [np.zeros((n_units, config.hidden)) for _ in range(config.layers)]
    prev = raw_norm[:, 0]
    corrected, residuals = [], []
    for t in range(weeks):
        tau = _time_row(t, t_scale, config.time_harmonics)
        raw_col = raw_norm[:, t]
        x_parts = [
            (ad.colvec(raw_col), "raw"),
            (ad.colvec(prev), "prev"),
            (tau, "time"),
        ]
        h_states[0] = _gru_cell(net_weights, "l0", x_parts, h_states[0])
        for layer in range(1, config.layers):
            h_states[layer] = _gru_cell(
                net_weights, f"l{layer}", [(h_states[layer - 1], "w")], h_states[layer]
            )
        res_norm = ad.matmul(h_states[-1], net_weights["out_w"]) + net_weights["out_b"]
        res = res_norm * scale
        corr = ad.relu(raw_col * scale + res)
        corrected.append(corr)
        residuals.append(res)
        if teacher_mask is not None and teacher_mask[t]:
            prev = truth_norm[:, t]
        else:
            prev = corr / scale
    return corrected, residuals


def refine(net: AdapterNet, raw_forecast: np.ndarray, return_residual: bool = False):
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
    corrected, residuals = _forward(net.weights, net.config, raw / scale[:, None], scale, t_scale)
    corr = np.stack(corrected, axis=1)
    if return_residual:
        return corr, np.stack(residuals, axis=1)
    return corr


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
        if hyper.ratio_decay and hyper.epochs > 1:
            ratio = hyper.teacher_ratio * (1.0 - epoch / (hyper.epochs - 1))
        else:
            ratio = hyper.teacher_ratio
        teacher_mask = rng.random(weeks) < ratio

        tape = Tape()
        duals = opt.variables(tape)
        corrected, _ = _forward(
            duals, work.config, raw_norm, scale, work.t_scale,
            truth_norm=truth_norm, teacher_mask=teacher_mask,
        )
        sse = 0.0
        for t in range(weeks):
            d = corrected[t] / scale - truth_norm[:, t]
            sse = sse + ad.vsum(d * d)
        loss = sse / (n_units * weeks)
        loss_val = float(loss.value)
        if not np.isfinite(loss_val):
            raise NonFiniteLoss(f"epoch {epoch}: adapter loss is not finite")
        history.append(loss_val)

        opt.step(tape.backward(loss), duals, hyper.learning_rate, f"adapter epoch {epoch}")
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
