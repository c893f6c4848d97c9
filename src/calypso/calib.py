"""Neural calibration of the SIRS parameters, trained through the simulator.

The network maps region-aggregated weekly features to bounded region- and
week-specific parameters:

- encoder: a gated recurrent unit over the feature sequence (one latent
  per region), stepped by ``autodiff.gru_cell``, the cell the residual
  adapter also uses,
- decoder: a feed-forward layer conditioned on normalized time-index
  features (``time_features``, which the adapter shares: a linear term
  plus sine/cosine harmonics), emitting one logit per parameter,
  squashed into its bound interval via ``lo + (hi - lo) * sigmoid(logit)``;
  every net uses the one bound table, ``core.DEFAULT_PARAM_BOUNDS``.

Training is full-batch gradient descent on the multi-resolution MSE
(patch + region + state), differentiated straight through the simulator
by the autodiff tape.  Adam with coupled weight decay, gradient-norm
clipping, and a step-decay learning-rate schedule; the best weights by
lowest loss and by highest state-level R^2 are both retained.
``forecast`` (the window plus ``h >= 0`` weeks) is the one path from a
net to a simulated trajectory; it, ``infer_params`` and the checkpoint
writer refuse a net that ``train_joint`` never fit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import io, seeding
from .core import (
    PARAM_HI,
    PARAM_LO,
    PARAM_NAMES,
    DataSet,
    DiseaseParams,
    PatchGraph,
    Trajectory,
    aggregate,
    check_option,
    metrics,
)
from .errors import DegenerateTruth, InvalidOption, NonFiniteLoss, ShapeMismatch
from .sim import SimConfig, iterate_sirs, simulate


@dataclass(frozen=True)
class CalibConfig:
    hidden: int = 20          # encoder GRU width
    decoder_width: int = 20
    time_harmonics: int = 4   # sine/cosine pairs in the time features

    def __post_init__(self):
        check_option("hidden", self.hidden, 1)
        check_option("decoder_width", self.decoder_width, 1)
        check_option("time_harmonics", self.time_harmonics, 0)


@dataclass(frozen=True)
class LossWeights:
    w_patch: float = 1.0
    w_region: float = 1.0
    w_state: float = 1.0

    def __post_init__(self):
        for name in ("w_patch", "w_region", "w_state"):
            check_option(name, getattr(self, name), 0)
        if self.w_patch == self.w_region == self.w_state == 0:
            raise InvalidOption("at least one loss weight must be positive")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2000
    learning_rate: float = 5e-3
    weight_decay: float = 0.01
    clip_norm: float = 10.0
    lr_step: int = 30
    lr_decay: float = 0.9
    seed: int = 0
    loss_weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        check_option("epochs", self.epochs, 0)
        check_option("learning_rate", self.learning_rate, 0, strict=True)
        check_option("weight_decay", self.weight_decay, 0)
        check_option("clip_norm", self.clip_norm, 0)   # 0 turns clipping off
        check_option("lr_step", self.lr_step, 1)
        check_option("lr_decay", self.lr_decay, 0, strict=True)


class CalibNet:
    """Weights and architecture sizes of the calibration net; its outputs
    lie inside ``core.DEFAULT_PARAM_BOUNDS``."""

    def __init__(self, n_features: int, config: CalibConfig = CalibConfig(), seed: int = 0):
        self.n_features = int(n_features)
        self.config = config
        self.seed = int(seed)
        h, d = config.hidden, config.decoder_width
        k = 1 + 2 * config.time_harmonics
        f = self.n_features
        self.weights = init_weights(seeding.spawn_rng(seed, seeding.CALIB, 0), {
            "enc_wz": (f, h), "enc_uz": (h, h), "enc_bz": (h,),
            "enc_wr": (f, h), "enc_ur": (h, h), "enc_br": (h,),
            "enc_wh": (f, h), "enc_uh": (h, h), "enc_bh": (h,),
            "dec_wh": (h, d), "dec_wt": (k, d), "dec_b": (d,),
            "out_w": (d, 5), "out_b": (5,),
        })
        # the feature channels' names and z-score statistics, set by ``train_joint``
        self.feature_names: tuple[str, ...] | None = None
        self.norm_mean: np.ndarray | None = None
        self.norm_std: np.ndarray | None = None

    def copy(self) -> "CalibNet":
        return copy.deepcopy(self)

    def bound_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(low, width) of the parameter bounds as (1, 5) rows."""
        return PARAM_LO, PARAM_HI - PARAM_LO


def init_weights(rng: np.random.Generator, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Weights of ``shapes``, drawn from ``rng`` in their order: a bias (a name
    holding ``_b``) is zero, any other weight uniform in +-1/sqrt(its first axis).
    ``CalibNet`` and ``AdapterNet`` both start from it."""
    weights = {}
    for name, shape in shapes.items():
        if "_b" in name:
            weights[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[0])
            weights[name] = rng.uniform(-bound, bound, size=shape)
    return weights


def time_features(window: int, harmonics: int, t_scale: int | None = None) -> np.ndarray:
    """(window, 1 + 2*harmonics) features of x = t / t_scale: x, then sin and
    cos of 2 pi k x for k = 1 .. harmonics.  ``t_scale`` defaults to window - 1."""
    t = np.arange(window) / max(window - 1 if t_scale is None else t_scale, 1)
    cols = [t]
    for k in range(1, harmonics + 1):
        cols.append(np.sin(2 * np.pi * k * t))
        cols.append(np.cos(2 * np.pi * k * t))
    return np.stack(cols, axis=1)


def region_features(data: DataSet, graph: PatchGraph,
                    stats: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Region-aggregated, per-channel z-scored features over the window.

    Pass the fit-time ``stats`` (mean, std) to normalize new inputs on the
    training scale, ``(0.0, 1.0)`` for the region sums themselves, or None
    for the statistics of this dataset's aggregated training window.
    """
    x = data.features[:, : data.window, :]
    reg = aggregate(x.reshape(x.shape[0], -1), "region", graph).reshape(-1, *x.shape[1:])
    mean, sd = feature_stats(reg) if stats is None else stats
    return (reg - mean) / sd


def feature_stats(region_feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = region_feats.mean(axis=(0, 1), keepdims=True)
    sd = region_feats.std(axis=(0, 1), keepdims=True)
    return mean, np.where(sd < 1e-12, 1.0, sd)


def _network_bounded(weights, feats: np.ndarray, tau: np.ndarray, lo: np.ndarray, span: np.ndarray, config: CalibConfig):
    """Forward pass; returns one bounded (regions, 5) matrix per week.

    The recurrent encoder folds each region's feature sequence into one
    latent; the decoder maps (latent, time features of week t) to that
    week's parameter logits.  Conditioning every week on the same
    sequence summary (rather than on week-local features) keeps the
    parameter paths smooth and the forecast from chasing weekly noise.
    ``weights`` may hold ndarrays (plain inference) or DualValues
    (training); the same code serves both.
    """
    n_regions, window, _ = feats.shape
    w, u, b = (tuple(weights[f"enc_{m}{g}"] for g in "zrh") for m in "wub")
    h = np.zeros((n_regions, config.hidden))
    for t in range(window):
        h = ad.gru_cell([(feats[:, t, :], w)], h, u, b)
    out = []
    for t in range(window):
        hid = ad.relu(ad.matmul(h, weights["dec_wh"]) + ad.matmul(tau[t : t + 1, :], weights["dec_wt"]) + weights["dec_b"])
        logits = ad.matmul(hid, weights["out_w"]) + weights["out_b"]
        out.append(lo + span * ad.sigmoid(logits))
    return out


def infer_params(net: CalibNet, data: DataSet, graph: PatchGraph) -> DiseaseParams:
    """Run a fit network on region-aggregated features; bounded parameters out."""
    if net.norm_mean is None:
        raise InvalidOption("calibration net was never fit: train_joint sets its feature statistics")
    if data.feature_names != net.feature_names:
        raise ShapeMismatch(f"net was fit on feature channels {list(net.feature_names)}, "
                            f"data has {list(data.feature_names)}")
    feats = region_features(data, graph, stats=(net.norm_mean, net.norm_std))
    tau = time_features(data.window, net.config.time_harmonics)
    lo, span = net.bound_arrays()
    bounded = _network_bounded(net.weights, feats, tau, lo, span, net.config)
    stacked = np.stack(bounded, axis=2)  # regions x 5 x weeks
    arrays = {name: stacked[:, j, :] for j, name in enumerate(PARAM_NAMES)}
    return DiseaseParams(region_ids=graph.region_ids, **arrays)


def _mr_loss(i_steps, observed: np.ndarray, graph: PatchGraph, lw: LossWeights):
    """Multi-resolution SSE -> weighted mean; generic over value kinds."""
    obs_region = aggregate(observed, "region", graph)
    obs_state = obs_region.sum(axis=0)
    n_patches, window = observed.shape
    patch_sse = 0.0
    region_sse = 0.0
    state_sse = 0.0
    for t in range(window):
        d = i_steps[t] - observed[:, t]
        patch_sse = patch_sse + ad.vsum(d * d)
        rpred = ad.matmul(graph.region_matrix, i_steps[t])
        rd = rpred - obs_region[:, t]
        region_sse = region_sse + ad.vsum(rd * rd)
        sd = ad.vsum(rpred) - obs_state[t]
        state_sse = state_sse + sd * sd
    return (
        lw.w_patch * patch_sse / (n_patches * window)
        + lw.w_region * region_sse / (graph.n_regions * window)
        + lw.w_state * state_sse / window
    )


def _state_r2(i_steps_values, observed: np.ndarray, graph: PatchGraph) -> float:
    pred = np.stack([np.asarray(v) for v in i_steps_values], axis=1)
    try:
        return metrics(aggregate(pred, "state", graph)[0], aggregate(observed, "state", graph)[0])["r2"]
    except DegenerateTruth:
        return float("nan")


@dataclass
class TrainResult:
    net: CalibNet                 # best checkpoint by lowest loss
    best_r2_net: CalibNet         # best checkpoint by highest state-level R^2
    history: dict[str, np.ndarray]
    best_loss: float
    best_loss_epoch: int
    best_r2: float
    best_r2_epoch: int


def train_joint(net: CalibNet, data: DataSet, graph: PatchGraph, hyper: TrainConfig = TrainConfig()) -> TrainResult:
    """Joint calibration: infer parameters, simulate, backpropagate.

    The input net is not mutated; the returned nets are copies.
    """
    if data.window < 8:
        raise InvalidOption(f"training window must be >= 8 weeks, got {data.window}")
    window = data.window
    stats = feature_stats(region_features(data, graph, (0.0, 1.0)))
    feats = region_features(data, graph, stats)
    tau = time_features(window, net.config.time_harmonics)
    lo, span = net.bound_arrays()
    lo_tol, hi_tol = PARAM_LO.ravel() - 1e-9, PARAM_HI.ravel() + 1e-9
    observed = data.training_observed()
    init = data.initial_infections
    bmat = graph.broadcast_matrix

    work = net.copy()
    work.feature_names, (work.norm_mean, work.norm_std) = tuple(data.feature_names), stats
    opt = ad.Adam(work.weights, hyper.weight_decay, hyper.clip_norm)

    history_loss, history_r2, history_lr = [], [], []
    best_loss, best_loss_epoch, best_loss_w = np.inf, -1, {n: w.copy() for n, w in work.weights.items()}
    best_r2, best_r2_epoch, best_r2_w = -np.inf, -1, {n: w.copy() for n, w in work.weights.items()}

    for epoch in range(hyper.epochs):
        lr = hyper.learning_rate * hyper.lr_decay ** (epoch // hyper.lr_step)

        def epoch_loss(duals):
            """Record this epoch's forward pass and log it, before the update."""
            nonlocal best_loss, best_loss_epoch, best_loss_w, best_r2, best_r2_epoch, best_r2_w
            bounded = _network_bounded(duals, feats, tau, lo, span, work.config)

            v = np.stack([x.value for x in bounded])  # bound safety, every week, every epoch
            if (v < lo_tol).any() or (v > hi_tol).any():
                raise NonFiniteLoss(f"epoch {epoch}: parameter left its bound interval")

            def step_params(t: int):
                patch_mat = ad.matmul(bmat, bounded[t])
                return {name: ad.col(patch_mat, j) for j, name in enumerate(PARAM_NAMES)}

            _, i_hist, _, _ = iterate_sirs(graph, step_params, init, window)
            i_steps = i_hist[1:]
            loss = _mr_loss(i_steps, observed, graph, hyper.loss_weights)
            loss_val = float(loss.value)
            r2 = _state_r2([iv.value for iv in i_steps], observed, graph)
            history_loss.append(loss_val)
            history_r2.append(r2)
            history_lr.append(lr)

            if loss_val < best_loss:
                best_loss, best_loss_epoch = loss_val, epoch
                best_loss_w = {n: w.copy() for n, w in work.weights.items()}
            if np.isfinite(r2) and r2 > best_r2:
                best_r2, best_r2_epoch = r2, epoch
                best_r2_w = {n: w.copy() for n, w in work.weights.items()}
            return loss

        opt.step(epoch_loss, lr, f"epoch {epoch}")

    result_net = work.copy()
    result_net.weights = best_loss_w
    r2_net = work.copy()
    r2_net.weights = best_r2_w
    return TrainResult(
        net=result_net,
        best_r2_net=r2_net,
        history={
            "loss": np.array(history_loss),
            "state_r2": np.array(history_r2),
            "lr": np.array(history_lr),
        },
        best_loss=best_loss if np.isfinite(best_loss) else float("nan"),
        best_loss_epoch=best_loss_epoch,
        best_r2=best_r2 if np.isfinite(best_r2) else float("nan"),
        best_r2_epoch=best_r2_epoch,
    )


def forecast(net: CalibNet, data: DataSet, graph: PatchGraph, h: int) -> Trajectory:
    """Simulate the window plus ``h >= 0`` extra weeks (``h = 0``: the fit alone).

    Parameters beyond the window hold the last inferred week's values;
    the simulation runs straight through, so the horizon continues from
    the final calibrated state.
    """
    params = infer_params(net, data, graph).extended(h)
    return simulate(graph, params, data.initial_infections, SimConfig(steps=data.window + h))


def save_checkpoint(path, net: CalibNet, extra: dict | None = None) -> Path:
    return io.write_checkpoint(path, "calib", net, extra)


def load_checkpoint(path) -> CalibNet:
    return io.read_checkpoint(path, "calib", CalibConfig,
                              lambda fields: CalibNet(fields["n_features"], config=fields["config"], seed=fields["seed"]))
