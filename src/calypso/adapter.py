"""Residual corrector for simulator forecasts.

Works on the stacked multi-level series (all patch rows, then region
rows, then the state row).  A gated recurrent stack of the fixed shape
``core.ADAPTER_SHAPE`` reads, per week, the raw forecast value, the
previous output (own prediction, or the ground truth under teacher
forcing), and normalized timestep features; an output head emits one
residual per unit per week.  ``refine`` corrects a units x weeks series
with a fit net and returns only ``max(0, raw + residual)``.  The cell
(``autodiff.gru_cell``), the timestep features (``calib.time_features``)
and the first weights (``calib.init_weights``) are the calibration net's.

Training freezes the simulator and calibration net entirely: the
adapter only ever sees series, never model internals.  Teacher-forced
and autoregressive steps are mixed by a seeded per-step coin whose bias
starts at the configured ratio and decays linearly to zero by the last
epoch (a one-epoch run keeps the ratio).  Adam's weight decay and
gradient-norm clip are the constants ``WEIGHT_DECAY`` and ``CLIP_NORM``;
a checkpoint's ``extra`` object is always empty.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import io, seeding
from .calib import init_weights, time_features
from .core import ADAPTER_SHAPE, PatchGraph, aggregate, check_option
from .errors import InvalidOption, NumericalError, ShapeMismatch

HIDDEN, LAYERS, TIME_HARMONICS = (ADAPTER_SHAPE[key] for key in ("hidden", "layers", "time_harmonics"))


def stack_levels(series: np.ndarray, graph: PatchGraph) -> np.ndarray:
    """Stack a patches x weeks series into (patches + regions + 1) rows."""
    series = np.asarray(series, dtype=float)
    return np.concatenate(
        [series, aggregate(series, "region", graph), aggregate(series, "state", graph)], axis=0
    )


# Adam's coupled weight decay and global gradient-norm clip for every adapter fit
WEIGHT_DECAY = 1e-4
CLIP_NORM = 10.0


@dataclass(frozen=True)
class AdapterTrainConfig:
    epochs: int = 400
    learning_rate: float = 5e-3
    teacher_ratio: float = 0.5   # decays linearly to 0 over training
    seed: int = 0

    def __post_init__(self):
        check_option("epochs", self.epochs, 0)
        check_option("learning_rate", self.learning_rate, 0, strict=True)
        check_option("teacher_ratio", self.teacher_ratio, 0, high=1)


class AdapterNet:
    """Recurrent-stack weights, output head, and timestep-embedding weights."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        h = HIDDEN
        k = 1 + 2 * TIME_HARMONICS
        shapes: dict[str, tuple] = {}
        for g in ("z", "r", "h"):
            shapes[f"l0_raw_{g}"] = (1, h)
            shapes[f"l0_prev_{g}"] = (1, h)
            shapes[f"l0_time_{g}"] = (k, h)
            shapes[f"l0_u_{g}"] = (h, h)
            shapes[f"l0_b_{g}"] = (h,)
        for layer in range(1, LAYERS):
            for g in ("z", "r", "h"):
                shapes[f"l{layer}_w_{g}"] = (h, h)
                shapes[f"l{layer}_u_{g}"] = (h, h)
                shapes[f"l{layer}_b_{g}"] = (h,)
        shapes["out_w"] = (h,)
        shapes["out_b"] = ()
        self.weights = init_weights(seeding.spawn_rng(seed, seeding.ADAPTER, 0), shapes)
        # set by ``train_adapter``; a net without them was never fit
        self.scale: np.ndarray | None = None   # per-unit normalization
        self.t_scale: int | None = None        # week-index normalizer

    def copy(self) -> "AdapterNet":
        return copy.deepcopy(self)


def _forward(net_weights, raw_norm, scale, t_scale: int, truth_norm=None, teacher_mask=None):
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
    deep_w = [gates(f"l{layer}_w") for layer in range(1, LAYERS)]
    recurrent = [(gates(f"l{layer}_u"), gates(f"l{layer}_b")) for layer in range(LAYERS)]
    tau = time_features(weeks, TIME_HARMONICS, t_scale)
    h_states = [np.zeros((n_units, HIDDEN)) for _ in range(LAYERS)]
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
    """Correct a (units, weeks) raw series with a fit net; output is clamped at zero."""
    if net.scale is None or net.t_scale is None:
        raise InvalidOption("adapter was never fit: train_adapter sets its scale")
    raw = np.asarray(raw_forecast, dtype=float)
    if raw.ndim != 2:
        raise ShapeMismatch(f"raw forecast must be units x weeks, got shape {raw.shape}")
    if not np.all(np.isfinite(raw)):
        raise NumericalError("raw forecast contains non-finite values")
    scale = net.scale
    if scale.shape[0] != raw.shape[0]:
        raise ShapeMismatch(f"adapter was fit on a different number of units (scale has {scale.shape[0]}, "
                            f"the series has {raw.shape[0]})")
    return np.stack(_forward(net.weights, raw / scale[:, None], scale, net.t_scale), axis=1)


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
        raise NumericalError("training series contain non-finite values")

    work = net.copy()
    n_units, weeks = raw.shape
    work.scale = np.maximum(1.0, truth.std(axis=1))
    work.t_scale = weeks
    scale = work.scale
    raw_norm = raw / scale[:, None]
    truth_norm = truth / scale[:, None]

    rng = seeding.spawn_rng(hyper.seed, seeding.ADAPTER, 1)
    opt = ad.Adam(work.weights, WEIGHT_DECAY, CLIP_NORM)
    history = []

    for epoch in range(hyper.epochs):
        ratio = hyper.teacher_ratio * (1.0 - epoch / max(hyper.epochs - 1, 1))
        teacher_mask = rng.random(weeks) < ratio

        def epoch_loss(duals):
            corrected = _forward(duals, raw_norm, scale, work.t_scale, truth_norm=truth_norm,
                                 teacher_mask=teacher_mask)
            sse = 0.0
            for t in range(weeks):
                d = corrected[t] / scale - truth_norm[:, t]
                sse = sse + ad.vsum(d * d)
            loss = sse / (n_units * weeks)
            history.append(float(loss.value))
            return loss

        opt.step(epoch_loss, hyper.learning_rate, f"adapter epoch {epoch}")
    return work, {"loss": np.array(history)}


def save_checkpoint(path, net: AdapterNet) -> Path:
    return io.write_checkpoint(path, "adapter", net)


def load_checkpoint(path) -> AdapterNet:
    return io.read_checkpoint(path, "adapter", None, lambda fields: AdapterNet(fields["seed"]))
