"""Ensemble adjustment Kalman filter baseline calibrator.

An ensemble of simulator states augmented with per-region parameter
vectors is cycled weekly: forecast one step with each member's own
parameters, then assimilate the per-patch observed infection counts one
coordinate at a time with the deterministic square-root update

    po_var  = 1 / (1/pr_var + 1/obs_var)
    po_mean = po_var * (pr_mean/pr_var + obs/obs_var)
    z_post  = sqrt(po_var / pr_var) * (z - pr_mean) + po_mean

and regress each observation increment onto every augmented coordinate
through the ensemble covariance.  Parameters are re-clamped to their
bounds after each update and compartments are repaired so every member
keeps S + I + R = P and nonnegativity.

Coordinates whose prior variance is below 1e-12 are left untouched by
that observation (the zero-gain limit); if *every* observed coordinate
has collapsed the filter raises ``CollapsedEnsemble``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import seeding
from .core import (
    DEFAULT_PARAM_BOUNDS,
    PARAM_NAMES,
    DataSet,
    PatchGraph,
    Trajectory,
)
from .errors import CollapsedEnsemble, ShapeMismatch
from .sim import sirs_step

_VAR_FLOOR = 1e-12


@dataclass
class Ensemble:
    """Member compartments plus per-region parameter samples.

    ``params`` is laid out parameter-major: column ``p * n_regions + r``
    holds parameter ``PARAM_NAMES[p]`` for region ``r``.
    """

    region_ids: tuple[str, ...]
    S: np.ndarray                      # members x patches
    I: np.ndarray
    R: np.ndarray
    params: np.ndarray                 # members x (5 * regions)
    bounds: dict[str, tuple[float, float]]
    inflation: float = 1.02
    obs_error_variance: float | None = None  # None -> max(1, 0.1*obs)^2 per obs

    def __post_init__(self):
        if self.S.shape[0] < 2:
            raise ShapeMismatch("ensemble needs at least 2 members")
        if not (self.S.shape == self.I.shape == self.R.shape):
            raise ShapeMismatch("member compartments disagree on shape")
        if self.params.shape != (self.S.shape[0], 5 * len(self.region_ids)):
            raise ShapeMismatch("params must be members x (5 * regions)")

    @property
    def size(self) -> int:
        return self.S.shape[0]

    @property
    def n_regions(self) -> int:
        return len(self.region_ids)

    def copy(self) -> "Ensemble":
        return Ensemble(
            region_ids=self.region_ids,
            S=self.S.copy(), I=self.I.copy(), R=self.R.copy(),
            params=self.params.copy(),
            bounds=dict(self.bounds),
            inflation=self.inflation,
            obs_error_variance=self.obs_error_variance,
        )


def init_ensemble(
    graph: PatchGraph,
    init_infections: np.ndarray,
    size: int = 100,
    inflation: float = 1.02,
    obs_error_variance: float | None = None,
    seed: int = 0,
    bounds: dict[str, tuple[float, float]] | None = None,
) -> Ensemble:
    """Uniform parameter draws inside the bounds; jittered initial states.

    Members share the mean initial condition but carry multiplicative
    spread on the seed infections, so the very first assimilation already
    has state variance to work with.
    """
    bounds = dict(bounds or DEFAULT_PARAM_BOUNDS)
    rng = seeding.spawn_rng(seed, seeding.EAKF, 0)
    n_regions = graph.n_regions
    params = np.zeros((size, 5 * n_regions))
    for p, name in enumerate(PARAM_NAMES):
        lo, hi = bounds[name]
        params[:, p * n_regions : (p + 1) * n_regions] = rng.uniform(lo, hi, size=(size, n_regions))
    init = np.asarray(init_infections, dtype=float)
    spread = rng.uniform(0.5, 1.5, size=(size, graph.n_patches))
    member_i = np.minimum(init[None, :] * spread, graph.populations[None, :])
    return Ensemble(
        region_ids=graph.region_ids,
        S=graph.populations[None, :] - member_i,
        I=member_i,
        R=np.zeros((size, graph.n_patches)),
        params=params,
        bounds=bounds,
        inflation=inflation,
        obs_error_variance=obs_error_variance,
    )


def _clamp_params(params: np.ndarray, bounds: dict, n_regions: int) -> None:
    """Reflect parameter excursions back inside their bounds, in place.

    Reflection (rather than hard clipping) keeps the ensemble spread
    alive when an update pushes many members across a bound; a member
    stuck exactly on a bound would otherwise pin the whole column there.
    """
    for p, name in enumerate(PARAM_NAMES):
        lo, hi = bounds[name]
        block = params[:, p * n_regions : (p + 1) * n_regions]
        width = hi - lo
        over = block > hi
        block[over] = hi - np.minimum(block[over] - hi, width)
        under = block < lo
        block[under] = lo + np.minimum(lo - block[under], width)
        np.clip(block, lo, hi, out=block)


def _repair(ens: Ensemble, populations: np.ndarray) -> None:
    """Re-bound parameters and restore compartment invariants."""
    _clamp_params(ens.params, ens.bounds, ens.n_regions)
    np.clip(ens.I, 0.0, None, out=ens.I)
    np.clip(ens.R, 0.0, None, out=ens.R)
    total = ens.I + ens.R
    over = total > populations[None, :]
    if np.any(over):
        factor = np.where(over, populations[None, :] / np.where(total > 0, total, 1.0), 1.0)
        ens.I *= factor
        ens.R *= factor
    ens.S = populations[None, :] - ens.I - ens.R


def eakf_step(ens: Ensemble, observation: np.ndarray, populations: np.ndarray | None = None) -> Ensemble:
    """Assimilate one week of per-patch infection counts.

    Returns a new ensemble; the input is unchanged.  ``populations`` is
    needed to repair compartments after the update (pass the graph's
    vector); omit it to skip the repair (pure update, used by tests).
    """
    obs = np.asarray(observation, dtype=float)
    if obs.shape != (ens.I.shape[1],):
        raise ShapeMismatch("observation must hold one value per patch")
    out = ens.copy()

    prior_var = out.I.var(axis=0, ddof=1)
    if float(prior_var.max(initial=0.0)) < _VAR_FLOOR:
        raise CollapsedEnsemble("ensemble variance vanished in every observed coordinate")

    # multiplicative inflation of all augmented coordinates about the mean
    out.S = _inflate(ens.S, ens.inflation)
    out.I = _inflate(ens.I, ens.inflation)
    out.R = _inflate(ens.R, ens.inflation)
    out.params = _inflate(ens.params, ens.inflation)

    n = out.size
    state = np.concatenate([out.S, out.I, out.R, out.params], axis=1)
    n_patches = out.I.shape[1]
    i_offset = n_patches  # I block starts after S

    for i in range(n_patches):
        z = state[:, i_offset + i]
        pr_mean = z.mean()
        pr_var = z.var(ddof=1)
        if pr_var < _VAR_FLOOR:
            continue  # zero-gain limit: posterior equals prior
        if ens.obs_error_variance is not None:
            obs_var = float(ens.obs_error_variance)
        else:
            obs_var = max(1.0, 0.1 * obs[i]) ** 2
        po_var = 1.0 / (1.0 / pr_var + 1.0 / obs_var)
        po_mean = po_var * (pr_mean / pr_var + obs[i] / obs_var)
        z_post = np.sqrt(po_var / pr_var) * (z - pr_mean) + po_mean
        inc = z_post - z
        zc = z - pr_mean
        centered = state - state.mean(axis=0, keepdims=True)
        cov = centered.T @ zc / (n - 1)
        state += np.outer(inc, cov / pr_var)

    out.S = state[:, :n_patches]
    out.I = state[:, n_patches : 2 * n_patches]
    out.R = state[:, 2 * n_patches : 3 * n_patches]
    out.params = state[:, 3 * n_patches :]
    if populations is not None:
        _repair(out, np.asarray(populations, dtype=float))
    else:
        _clamp_params(out.params, out.bounds, out.n_regions)
    return out


def _inflate(arr: np.ndarray, factor: float) -> np.ndarray:
    mean = arr.mean(axis=0, keepdims=True)
    return mean + factor * (arr - mean)


@dataclass
class EakfResult:
    """Filtered trajectory, weekly parameter posteriors, final ensemble."""

    trajectory: Trajectory
    param_mean: dict[str, np.ndarray]   # name -> regions x weeks
    param_sd: dict[str, np.ndarray]
    ensemble: Ensemble
    graph: PatchGraph = field(repr=False)

    def forecast(self, h: int) -> np.ndarray:
        """Ensemble-mean infections over ``h`` further weeks (patches x h)."""
        theta = self.graph.theta
        theta_t = theta.T.copy()
        n_eff = theta_t @ self.graph.populations
        bmat = self.graph.broadcast_matrix
        ens = self.ensemble
        out = np.zeros((self.graph.n_patches, h))
        r = ens.n_regions
        for m in range(ens.size):
            s, i, rr = ens.S[m].copy(), ens.I[m].copy(), ens.R[m].copy()
            pp = {
                name: bmat @ ens.params[m, p * r : (p + 1) * r]
                for p, name in enumerate(PARAM_NAMES)
            }
            for t in range(h):
                s, i, rr, _ = sirs_step(theta, theta_t, n_eff, s, i, rr,
                                        pp["beta"], pp["gamma"], pp["delta"],
                                        pp["kappa"], pp["epsilon"])
                out[:, t] += i
        return out / ens.size


def run_eakf(
    graph: PatchGraph,
    data: DataSet,
    size: int = 100,
    inflation: float = 1.02,
    obs_error_variance: float | None = None,
    seed: int = 0,
    bounds: dict[str, tuple[float, float]] | None = None,
    param_walk: float = 0.005,
) -> EakfResult:
    """Cycle forecast + assimilation over the training window.

    ``param_walk`` is the weekly random-walk standard deviation applied
    to each parameter, as a fraction of its bound width; it keeps the
    parameter ensemble from collapsing over long windows.
    """
    ens = init_ensemble(
        graph, data.initial_infections, size=size, inflation=inflation,
        obs_error_variance=obs_error_variance, seed=seed, bounds=bounds,
    )
    walk_rng = seeding.spawn_rng(seed, seeding.EAKF, 1)
    widths = np.concatenate([
        np.full(ens.n_regions, ens.bounds[name][1] - ens.bounds[name][0])
        for name in PARAM_NAMES
    ])
    observed = data.training_observed()
    window = data.window
    theta = graph.theta
    theta_t = theta.T.copy()
    n_eff = theta_t @ graph.populations
    bmat = graph.broadcast_matrix
    r = ens.n_regions

    s_mean = [ens.S.mean(axis=0)]
    i_mean = [ens.I.mean(axis=0)]
    r_mean = [ens.R.mean(axis=0)]
    di_mean = []
    p_mean = {name: np.zeros((r, window)) for name in PARAM_NAMES}
    p_sd = {name: np.zeros((r, window)) for name in PARAM_NAMES}

    for w in range(window):
        if param_walk > 0:
            ens.params = ens.params + walk_rng.standard_normal(ens.params.shape) * (param_walk * widths)
            _clamp_params(ens.params, ens.bounds, r)
        di_acc = np.zeros(graph.n_patches)
        for m in range(ens.size):
            pp = {
                name: bmat @ ens.params[m, p * r : (p + 1) * r]
                for p, name in enumerate(PARAM_NAMES)
            }
            s, i, rr, di = sirs_step(theta, theta_t, n_eff, ens.S[m], ens.I[m], ens.R[m],
                                     pp["beta"], pp["gamma"], pp["delta"],
                                     pp["kappa"], pp["epsilon"])
            ens.S[m], ens.I[m], ens.R[m] = s, i, rr
            di_acc += di
        di_mean.append(di_acc / ens.size)

        ens = eakf_step(ens, observed[:, w], populations=graph.populations)
        s_mean.append(ens.S.mean(axis=0))
        i_mean.append(ens.I.mean(axis=0))
        r_mean.append(ens.R.mean(axis=0))
        for p, name in enumerate(PARAM_NAMES):
            block = ens.params[:, p * r : (p + 1) * r]
            p_mean[name][:, w] = block.mean(axis=0)
            p_sd[name][:, w] = block.std(axis=0, ddof=1)

    traj = Trajectory(
        S=np.stack(s_mean, axis=1),
        I=np.stack(i_mean, axis=1),
        R=np.stack(r_mean, axis=1),
        new_infections=np.stack(di_mean, axis=1),
    )
    return EakfResult(trajectory=traj, param_mean=p_mean, param_sd=p_sd, ensemble=ens, graph=graph)
