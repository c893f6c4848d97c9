"""Neural calibration of the SIRS parameters, trained through the simulator.

The network maps region-aggregated weekly features to bounded region- and
week-specific parameters:

- encoder: a gated recurrent unit over the feature sequence (one latent
  per region),
- decoder: a feed-forward layer conditioned on normalized time-index
  features (linear term plus sine/cosine harmonics), emitting one logit
  per parameter, squashed into its bound interval via
  ``lo + (hi - lo) * sigmoid(logit)``.

Training is full-batch gradient descent on the multi-resolution MSE
(patch + region + state), differentiated straight through the simulator
by the autodiff tape.  Adam with coupled weight decay, gradient-norm
clipping, and a step-decay learning-rate schedule; the best weights by
lowest loss and by highest state-level R^2 are both retained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import io, seeding
from .autodiff import Tape
from .core import (
    DEFAULT_PARAM_BOUNDS,
    PARAM_NAMES,
    DataSet,
    DiseaseParams,
    PatchGraph,
    Trajectory,
    aggregate,
    metrics,
)
from .errors import (
    DegenerateTruth,
    HorizonZero,
    NonFiniteLoss,
    ShapeMismatch,
    WindowMismatch,
)
from .sim import SimConfig, iterate_sirs, simulate


@dataclass(frozen=True)
class CalibConfig:
    hidden: int = 20          # encoder GRU width
    decoder_width: int = 20
    time_harmonics: int = 4   # sine/cosine pairs in the time features


@dataclass(frozen=True)
class LossWeights:
    w_patch: float = 1.0
    w_region: float = 1.0
    w_state: float = 1.0

    def __post_init__(self):
        vals = (self.w_patch, self.w_region, self.w_state)
        if any(v < 0 for v in vals):
            raise ShapeMismatch("loss weights must be nonnegative")
        if all(v == 0 for v in vals):
            raise ShapeMismatch("at least one loss weight must be positive")


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


class CalibNet:
    """Weights, bound spec, and architecture sizes of the calibration net."""

    def __init__(
        self,
        n_features: int,
        bounds: dict[str, tuple[float, float]] | None = None,
        config: CalibConfig = CalibConfig(),
        seed: int = 0,
    ):
        self.n_features = int(n_features)
        self.config = config
        self.bounds = dict(bounds or DEFAULT_PARAM_BOUNDS)
        for name in PARAM_NAMES:
            lo, hi = self.bounds[name]
            if not lo < hi:
                raise ShapeMismatch(f"bound interval for {name} is empty")
        self.seed = int(seed)
        h, d = config.hidden, config.decoder_width
        k = 1 + 2 * config.time_harmonics
        f = self.n_features
        rng = seeding.spawn_rng(seed, seeding.CALIB, 0)
        shapes = {
            "enc_wz": (f, h), "enc_uz": (h, h), "enc_bz": (h,),
            "enc_wr": (f, h), "enc_ur": (h, h), "enc_br": (h,),
            "enc_wh": (f, h), "enc_uh": (h, h), "enc_bh": (h,),
            "dec_wh": (h, d), "dec_wt": (k, d), "dec_b": (d,),
            "out_w": (d, 5), "out_b": (5,),
        }
        self.weights: dict[str, np.ndarray] = {}
        for name, shape in shapes.items():
            if name.endswith(("_bz", "_br", "_bh", "_b")):
                self.weights[name] = np.zeros(shape)
            else:
                bound = 1.0 / np.sqrt(shape[0])
                self.weights[name] = rng.uniform(-bound, bound, size=shape)
        # per-channel z-score statistics, frozen at fit time
        self.norm_mean: np.ndarray | None = None
        self.norm_std: np.ndarray | None = None

    def copy(self) -> "CalibNet":
        out = CalibNet.__new__(CalibNet)
        out.n_features = self.n_features
        out.config = self.config
        out.bounds = dict(self.bounds)
        out.seed = self.seed
        out.weights = {k: v.copy() for k, v in self.weights.items()}
        out.norm_mean = None if self.norm_mean is None else self.norm_mean.copy()
        out.norm_std = None if self.norm_std is None else self.norm_std.copy()
        return out

    def zero_(self) -> "CalibNet":
        """Zero every weight in place (useful in tests)."""
        for v in self.weights.values():
            v[...] = 0.0
        return self

    def bound_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([[self.bounds[n][0] for n in PARAM_NAMES]])
        hi = np.array([[self.bounds[n][1] for n in PARAM_NAMES]])
        return lo, hi - lo


def time_features(window: int, harmonics: int) -> np.ndarray:
    """(window, 1 + 2*harmonics) matrix of normalized-time features."""
    t = np.arange(window) / max(window - 1, 1)
    cols = [t]
    for k in range(1, harmonics + 1):
        cols.append(np.sin(2 * np.pi * k * t))
        cols.append(np.cos(2 * np.pi * k * t))
    return np.stack(cols, axis=1)


def region_features(data: DataSet, graph: PatchGraph,
                    stats: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Region-aggregated, per-channel z-scored features over the window.

    Channel statistics come from the aggregated training window; pass
    the fit-time ``stats`` (mean, std) to normalize new inputs on the
    training scale, or leave None to compute them from this dataset.
    """
    x = data.features[:, : data.window, :]
    if x.shape[0] != graph.n_patches:
        raise ShapeMismatch("features and graph disagree on patch count")
    reg = np.einsum("rp,pwf->rwf", graph.region_matrix, x)
    if stats is None:
        stats = feature_stats(reg)
    mean, sd = stats
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
    h = np.zeros((n_regions, config.hidden))
    for t in range(window):
        x = feats[:, t, :]
        z = ad.sigmoid(ad.matmul(x, weights["enc_wz"]) + ad.matmul(h, weights["enc_uz"]) + weights["enc_bz"])
        r = ad.sigmoid(ad.matmul(x, weights["enc_wr"]) + ad.matmul(h, weights["enc_ur"]) + weights["enc_br"])
        cand = ad.tanh(ad.matmul(x, weights["enc_wh"]) + ad.matmul(r * h, weights["enc_uh"]) + weights["enc_bh"])
        h = (1.0 - z) * h + z * cand
    out = []
    for t in range(window):
        hid = ad.relu(ad.matmul(h, weights["dec_wh"]) + ad.matmul(tau[t : t + 1, :], weights["dec_wt"]) + weights["dec_b"])
        logits = ad.matmul(hid, weights["out_w"]) + weights["out_b"]
        out.append(lo + span * ad.sigmoid(logits))
    return out


def infer_params(net: CalibNet, data: DataSet, graph: PatchGraph) -> DiseaseParams:
    """Run the network on region-aggregated features; bounded parameters out."""
    if data.features.shape[2] != net.n_features:
        raise ShapeMismatch(f"net takes {net.n_features} feature channels, data has {data.features.shape[2]}")
    stats = None if net.norm_mean is None else (net.norm_mean, net.norm_std)
    feats = region_features(data, graph, stats=stats)
    tau = time_features(data.window, net.config.time_harmonics)
    lo, span = net.bound_arrays()
    bounded = _network_bounded(net.weights, feats, tau, lo, span, net.config)
    stacked = np.stack(bounded, axis=2)  # regions x 5 x weeks
    arrays = {name: stacked[:, j, :] for j, name in enumerate(PARAM_NAMES)}
    return DiseaseParams(region_ids=graph.region_ids, **arrays)


def _mr_loss(i_steps, observed: np.ndarray, graph: PatchGraph, lw: LossWeights):
    """Multi-resolution SSE -> weighted mean; generic over value kinds."""
    rmat = graph.region_matrix
    obs_region = rmat @ observed
    obs_state = obs_region.sum(axis=0)
    n_patches, window = observed.shape
    patch_sse = 0.0
    region_sse = 0.0
    state_sse = 0.0
    for t in range(window):
        d = i_steps[t] - observed[:, t]
        patch_sse = patch_sse + ad.vsum(d * d)
        rpred = ad.matmul(rmat, i_steps[t])
        rd = rpred - obs_region[:, t]
        region_sse = region_sse + ad.vsum(rd * rd)
        sd = ad.vsum(rpred) - obs_state[t]
        state_sse = state_sse + sd * sd
    return (
        lw.w_patch * patch_sse / (n_patches * window)
        + lw.w_region * region_sse / (graph.n_regions * window)
        + lw.w_state * state_sse / window
    )


def multi_resolution_loss(pred: Trajectory, observed: DataSet, weights: LossWeights, graph: PatchGraph) -> float:
    """Weighted patch/region/state MSE of a trajectory against observations."""
    window = observed.window
    if pred.n_steps < window:
        raise WindowMismatch(f"trajectory covers {pred.n_steps} steps, window is {window}")
    if pred.I.shape[0] != observed.n_patches or observed.n_patches != graph.n_patches:
        raise WindowMismatch("trajectory/observations/graph disagree on patches")
    i_steps = [pred.I[:, t + 1] for t in range(window)]
    return float(_mr_loss(i_steps, observed.training_observed(), graph, weights))


def _state_r2(i_steps_values, observed: np.ndarray, graph: PatchGraph) -> float:
    pred = np.stack([np.asarray(v) for v in i_steps_values], axis=1)
    pred_state = aggregate(pred, "state", graph)[0]
    obs_state = aggregate(observed, "state", graph)[0]
    try:
        return metrics(pred_state, obs_state)["r2"]
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
        raise WindowMismatch(f"training window must be >= 8 weeks, got {data.window}")
    window = data.window
    raw_region = np.einsum("rp,pwf->rwf", graph.region_matrix, data.features[:, :window, :])
    norm_mean, norm_std = feature_stats(raw_region)
    feats = (raw_region - norm_mean) / norm_std
    tau = time_features(window, net.config.time_harmonics)
    lo, span = net.bound_arrays()
    lo_flat = lo.ravel()
    hi_flat = lo_flat + span.ravel()
    observed = data.training_observed()
    init = data.initial_infections
    bmat = graph.broadcast_matrix

    work = net.copy()
    work.norm_mean, work.norm_std = norm_mean, norm_std
    opt = ad.Adam(work.weights, hyper.weight_decay, hyper.clip_norm)

    history_loss, history_r2, history_lr = [], [], []
    best_loss, best_loss_epoch, best_loss_w = np.inf, -1, {n: w.copy() for n, w in work.weights.items()}
    best_r2, best_r2_epoch, best_r2_w = -np.inf, -1, {n: w.copy() for n, w in work.weights.items()}

    for epoch in range(hyper.epochs):
        tape = Tape()
        duals = opt.variables(tape)
        bounded = _network_bounded(duals, feats, tau, lo, span, work.config)

        for t in range(window):  # bound safety, asserted every epoch
            v = bounded[t].value
            if np.any(v < lo_flat - 1e-9) or np.any(v > hi_flat + 1e-9):
                raise NonFiniteLoss(f"epoch {epoch}: parameter left its bound interval")

        def step_params(t: int):
            patch_mat = ad.matmul(bmat, bounded[t])
            return {name: ad.col(patch_mat, j) for j, name in enumerate(PARAM_NAMES)}

        _, i_hist, _, _ = iterate_sirs(graph, step_params, init, window)
        i_steps = i_hist[1:]
        loss = _mr_loss(i_steps, observed, graph, hyper.loss_weights)
        loss_val = float(loss.value)
        if not np.isfinite(loss_val):
            raise NonFiniteLoss(f"epoch {epoch}: loss is not finite")

        r2 = _state_r2([iv.value for iv in i_steps], observed, graph)
        lr = hyper.learning_rate * hyper.lr_decay ** (epoch // hyper.lr_step)
        history_loss.append(loss_val)
        history_r2.append(r2)
        history_lr.append(lr)

        if loss_val < best_loss:
            best_loss, best_loss_epoch = loss_val, epoch
            best_loss_w = {n: w.copy() for n, w in work.weights.items()}
        if np.isfinite(r2) and r2 > best_r2:
            best_r2, best_r2_epoch = r2, epoch
            best_r2_w = {n: w.copy() for n, w in work.weights.items()}

        opt.step(tape.backward(loss), duals, lr, f"epoch {epoch}")

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
    """Simulate the window plus ``h`` extra weeks.

    Parameters beyond the window hold the last inferred week's values;
    the simulation runs straight through, so the horizon continues from
    the final calibrated state.
    """
    if h < 1:
        raise HorizonZero("forecast horizon must be >= 1")
    params = infer_params(net, data, graph).extended(h)
    return simulate(graph, params, data.initial_infections, SimConfig(steps=data.window + h))


def save_checkpoint(path, net: CalibNet, extra: dict | None = None) -> Path:
    return io.write_checkpoint(
        path, "calib", net, extra,
        n_features=net.n_features,
        bounds={k: list(v) for k, v in net.bounds.items()},
        norm_mean=None if net.norm_mean is None else net.norm_mean.tolist(),
        norm_std=None if net.norm_std is None else net.norm_std.tolist(),
    )


def load_checkpoint(path) -> tuple[CalibNet, dict]:
    def build(config: CalibConfig, seed: int, payload: dict) -> CalibNet:
        bounds = {k: tuple(map(float, v)) for k, v in payload["bounds"].items()}
        net = CalibNet(payload["n_features"], bounds=bounds, config=config, seed=seed)
        if payload["norm_mean"] is not None or payload["norm_std"] is not None:
            shape = (1, 1, net.n_features)
            net.norm_mean = io.checkpoint_array(payload["norm_mean"], shape)
            net.norm_std = io.checkpoint_array(payload["norm_std"], shape, positive=True)
        return net

    fields = ("n_features", "bounds", "norm_mean", "norm_std")
    return io.read_checkpoint(path, "calib", CalibConfig, fields, build)
