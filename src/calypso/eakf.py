"""Ensemble adjustment Kalman filter baseline calibrator.

An ensemble of simulator states augmented with per-region parameter
vectors is cycled weekly: forecast one step with each member's own
parameters, then assimilate the per-patch observed infection counts one
coordinate at a time (Anderson 2001) with the deterministic square-root
update

    po_var  = 1 / (1/pr_var + 1/obs_var)
    po_mean = po_var * (pr_mean/pr_var + obs/obs_var)
    z_post  = sqrt(po_var / pr_var) * (z - pr_mean) + po_mean

and regress each observation increment ``inc = z_post - z`` onto every
augmented coordinate through the ensemble covariance.  With
``zc = z - pr_mean``, which sums to zero, coordinate ``x`` moves by
``inc * (x . zc) / ((n-1) pr_var)``, so each scalar update left-multiplies
the members x coordinates state by ``I + inc zc^T / ((n-1) pr_var)``: it
acts on the member axis only.  The week's serial updates are therefore
composed in ensemble space (Tippett et al. 2003) into one members x
members transform, built from the observed columns alone, and the
inflated prior state is mapped through it in one matrix product at the
end.  An ``Ensemble`` is that state, ``Ensemble.state``; its
compartments and parameters are views of it.  Parameters are reflected
back inside ``DEFAULT_PARAM_BOUNDS`` after the update and compartments
are repaired so every member keeps S + I + R = P and nonnegativity.
Each week's forecast starts with a random-walk step of every parameter
(``PARAM_WALK``); ``_step_members`` advances the members a week, for the
filter and ``EakfResult.forecast``.  The inflation and the observation
error variance are ``eakf_step``'s arguments.

Coordinates whose prior variance is below 1e-12 are left untouched by
that observation (the zero-gain limit); if *every* observed coordinate
has collapsed the filter raises ``NumericalError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import seeding
from .core import PARAM_HI, PARAM_LO, PARAM_NAMES, DataSet, PatchGraph, Trajectory, check_option
from .errors import NumericalError, ShapeMismatch
from .sim import sirs_step, week_coefficients

_VAR_FLOOR = 1e-12
# weekly random-walk sd of each parameter, as a fraction of its bound width:
# it keeps the parameter ensemble from collapsing over long windows
PARAM_WALK = 0.005


@dataclass
class Ensemble:
    """The augmented state of every member: ``state`` is members x
    (3 * patches + 5 * regions), with columns S, I, R of each patch, then
    the parameters inside ``DEFAULT_PARAM_BOUNDS``, parameter-major.

    ``S``, ``I``, ``R`` (members x patches), ``params`` (members x
    (5 * regions)) and ``blocks`` (members x 5 x regions, ``PARAM_NAMES``
    order) are views of ``state``: a write through any of them is a write
    to it.
    """

    region_ids: tuple[str, ...]
    state: np.ndarray

    def __post_init__(self):
        if self.state.ndim != 2 or self.state.shape[0] < 2:
            raise ShapeMismatch("ensemble needs at least 2 members")
        n_patches, rest = divmod(self.state.shape[1] - 5 * self.n_regions, 3)
        if n_patches < 1 or rest:
            raise ShapeMismatch(f"ensemble state has {self.state.shape[1]} columns, "
                                f"not 3 * patches + 5 * {self.n_regions} regions")
        self.S, self.I, self.R, self.params = np.split(self.state, [n_patches, 2 * n_patches, 3 * n_patches], axis=1)
        self.blocks = self.params.reshape(self.size, 5, self.n_regions)

    @property
    def size(self) -> int:
        return self.state.shape[0]

    @property
    def n_regions(self) -> int:
        return len(self.region_ids)


def init_ensemble(
    graph: PatchGraph,
    init_infections: np.ndarray,
    size: int = 100,
    seed: int = 0,
) -> Ensemble:
    """Uniform parameter draws inside ``DEFAULT_PARAM_BOUNDS``; jittered initial states.

    Members share the mean initial condition but carry multiplicative
    spread on the seed infections, so the very first assimilation already
    has state variance to work with.
    """
    check_option("ensemble size", size, 2)
    rng = seeding.spawn_rng(seed, seeding.EAKF, 0)
    ens = Ensemble(graph.region_ids, np.zeros((size, 3 * graph.n_patches + 5 * graph.n_regions)))
    # drawn parameter by parameter, each members x regions
    draws = rng.uniform(PARAM_LO.T[:, None], PARAM_HI.T[:, None], size=(5, size, graph.n_regions))
    ens.blocks[:] = draws.transpose(1, 0, 2)
    spread = rng.uniform(0.5, 1.5, size=(size, graph.n_patches))
    np.minimum(np.asarray(init_infections, dtype=float) * spread, graph.populations, out=ens.I)
    np.subtract(graph.populations, ens.I, out=ens.S)
    return ens


def _clamp_params(blocks: np.ndarray) -> None:
    """Reflect the members x 5 x regions ``blocks`` back inside
    ``DEFAULT_PARAM_BOUNDS``, in place, in one pass over every parameter.

    Reflection (rather than hard clipping) keeps the ensemble spread
    alive when an update pushes many members across a bound; a member
    stuck exactly on a bound would otherwise pin the whole column there.
    """
    lo, hi = PARAM_LO.T, PARAM_HI.T
    width = hi - lo
    np.copyto(blocks, hi - np.minimum(blocks - hi, width), where=blocks > hi)
    np.copyto(blocks, lo + np.minimum(lo - blocks, width), where=blocks < lo)
    np.clip(blocks, lo, hi, out=blocks)


def _repair(ens: Ensemble, populations: np.ndarray) -> None:
    """Re-bound parameters and restore compartment invariants, in place."""
    _clamp_params(ens.blocks)
    S, I, R = ens.S, ens.I, ens.R
    np.clip(I, 0.0, None, out=I)
    np.clip(R, 0.0, None, out=R)
    total = I + R
    over = total > populations[None, :]
    if np.any(over):
        factor = np.where(over, populations[None, :] / np.where(total > 0, total, 1.0), 1.0)
        I *= factor
        R *= factor
    np.subtract(populations, I, out=S)
    S -= R


def eakf_step(ens: Ensemble, observation: np.ndarray, populations: np.ndarray, inflation: float,
              obs_error_variance: float | None) -> Ensemble:
    """Assimilate one week of per-patch infection counts, each of error variance
    ``obs_error_variance`` (> 0 or +inf; None: max(1, 0.1 * count)^2), after
    inflating every coordinate by ``inflation`` (>= 1).  Returns a new
    ensemble, repaired against the patch ``populations``; the input is unchanged.
    """
    check_option("inflation", inflation, 1)
    # +inf is the no-information limit: the update leaves the prior as it is
    if obs_error_variance is not None:
        check_option("observation error variance", obs_error_variance, 0, strict=True, high=np.inf)
    obs = np.asarray(observation, dtype=float)
    n_patches = ens.I.shape[1]
    if obs.shape != (n_patches,):
        raise ShapeMismatch("observation must hold one value per patch")

    prior_var = ens.I.var(axis=0, ddof=1)
    if float(prior_var.max(initial=0.0)) < _VAR_FLOOR:
        raise NumericalError("ensemble variance vanished in every observed coordinate")

    # multiplicative inflation of all augmented coordinates about the mean
    prior = _inflate(ens.state, inflation)
    observed = prior[:, n_patches : 2 * n_patches].T.copy()  # one contiguous row per patch
    n = ens.size
    if obs_error_variance is not None:
        obs_vars = np.full(n_patches, float(obs_error_variance))
    else:
        obs_vars = np.maximum(1.0, 0.1 * obs) ** 2
    transform = np.eye(n)  # the week's updates so far: posterior = transform @ prior
    for i in range(n_patches):
        z = transform @ observed[i]
        pr_mean = z.sum() / n
        zc = z - pr_mean
        pr_var = (zc @ zc) / (n - 1)
        if pr_var < _VAR_FLOOR:
            continue  # zero-gain limit: posterior equals prior
        obs_var = obs_vars[i]
        po_var = 1.0 / (1.0 / pr_var + 1.0 / obs_var)
        po_mean = po_var * (pr_mean / pr_var + obs[i] / obs_var)
        inc = (np.sqrt(po_var / pr_var) - 1.0) * zc + (po_mean - pr_mean)
        transform += inc[:, None] * ((zc @ transform) / ((n - 1) * pr_var))

    out = Ensemble(ens.region_ids, transform @ prior)
    _repair(out, np.asarray(populations, dtype=float))
    return out


def _member_coefficients(ens: Ensemble, graph: PatchGraph) -> tuple:
    """``week_coefficients`` of every member at once: six members x patches arrays.

    Each member's region parameters are gathered onto patches through
    ``graph.patch_region`` (the same values as ``broadcast_matrix @``).
    """
    gathered = ens.blocks[:, :, graph.patch_region]  # members x 5 x patches
    return week_coefficients(dict(zip(PARAM_NAMES, gathered.transpose(1, 0, 2))))


def _step_members(ens: Ensemble, graph: PatchGraph, coefficients: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Advance every member one week in place, one ``sirs_step`` each with its
    ``_member_coefficients``; returns the sums, in member order, of I and of the new infections."""
    S, I, R = ens.S, ens.I, ens.R
    i_sum, new_sum = np.zeros(graph.n_patches), np.zeros(graph.n_patches)
    for m, member in enumerate(zip(*coefficients)):
        S[m], I[m], R[m], new = sirs_step(graph.theta, graph.theta_t, graph.n_eff, S[m], I[m], R[m], *member)
        i_sum += I[m]
        new_sum += new
    return i_sum, new_sum


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
        ens = Ensemble(self.ensemble.region_ids, self.ensemble.state.copy())
        coefficients = _member_coefficients(ens, self.graph)
        out = np.zeros((self.graph.n_patches, h))
        for t in range(h):
            out[:, t] = _step_members(ens, self.graph, coefficients)[0]
        return out / ens.size


def run_eakf(
    graph: PatchGraph,
    data: DataSet,
    size: int = 100,
    inflation: float = 1.02,
    obs_error_variance: float | None = None,
    seed: int = 0,
) -> EakfResult:
    """Cycle forecast + assimilation over the training window; each week
    first walks every parameter by ``PARAM_WALK`` of its bound width."""
    ens = init_ensemble(graph, data.initial_infections, size=size, seed=seed)
    walk_rng = seeding.spawn_rng(seed, seeding.EAKF, 1)
    walk_sd = PARAM_WALK * (PARAM_HI - PARAM_LO).T
    observed = data.training_observed()
    window = data.window

    s_mean = [ens.S.mean(axis=0)]
    i_mean = [ens.I.mean(axis=0)]
    r_mean = [ens.R.mean(axis=0)]
    di_mean = []
    p_mean, p_sd = np.zeros((2, 5, ens.n_regions, window))

    for w in range(window):
        ens.blocks += walk_rng.standard_normal(ens.blocks.shape) * walk_sd
        _clamp_params(ens.blocks)
        di_mean.append(_step_members(ens, graph, _member_coefficients(ens, graph))[1] / ens.size)

        ens = eakf_step(ens, observed[:, w], graph.populations, inflation, obs_error_variance)
        s_mean.append(ens.S.mean(axis=0))
        i_mean.append(ens.I.mean(axis=0))
        r_mean.append(ens.R.mean(axis=0))
        p_mean[..., w] = ens.blocks.mean(axis=0)
        p_sd[..., w] = ens.blocks.std(axis=0, ddof=1)

    traj = Trajectory(
        S=np.stack(s_mean, axis=1),
        I=np.stack(i_mean, axis=1),
        R=np.stack(r_mean, axis=1),
        new_infections=np.stack(di_mean, axis=1),
    )
    return EakfResult(trajectory=traj, param_mean=dict(zip(PARAM_NAMES, p_mean)),
                      param_sd=dict(zip(PARAM_NAMES, p_sd)), ensemble=ens, graph=graph)
