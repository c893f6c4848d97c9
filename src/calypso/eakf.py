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
end.  Parameters are reflected back inside ``DEFAULT_PARAM_BOUNDS``
after the update and compartments are repaired so every member keeps
S + I + R = P and nonnegativity.  Each week's forecast starts with a
random-walk step of every parameter (``PARAM_WALK``); ``_step_members``
advances the members a week, for the filter and ``EakfResult.forecast``.
An ``Ensemble`` holds states and parameters: the inflation and the
observation error variance are ``eakf_step``'s arguments.

Coordinates whose prior variance is below 1e-12 are left untouched by
that observation (the zero-gain limit); if *every* observed coordinate
has collapsed the filter raises ``NumericalError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import seeding
from .core import DEFAULT_PARAM_BOUNDS, PARAM_HI, PARAM_LO, PARAM_NAMES, DataSet, PatchGraph, Trajectory, check_option
from .errors import NumericalError, ShapeMismatch
from .sim import sirs_step, week_coefficients

_VAR_FLOOR = 1e-12
# weekly random-walk sd of each parameter, as a fraction of its bound width:
# it keeps the parameter ensemble from collapsing over long windows
PARAM_WALK = 0.005


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
    params: np.ndarray                 # members x (5 * regions), inside DEFAULT_PARAM_BOUNDS

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
    n_regions = graph.n_regions
    params = np.zeros((size, 5 * n_regions))
    for p, name in enumerate(PARAM_NAMES):
        lo, hi = DEFAULT_PARAM_BOUNDS[name]
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
    )


def _clamp_params(params: np.ndarray, n_regions: int) -> None:
    """Reflect parameter excursions back inside ``DEFAULT_PARAM_BOUNDS``, in
    place, in one pass over every parameter column.

    Reflection (rather than hard clipping) keeps the ensemble spread
    alive when an update pushes many members across a bound; a member
    stuck exactly on a bound would otherwise pin the whole column there.
    """
    lo, hi = np.repeat(PARAM_LO, n_regions), np.repeat(PARAM_HI, n_regions)
    width = hi - lo
    np.copyto(params, hi - np.minimum(params - hi, width), where=params > hi)
    np.copyto(params, lo + np.minimum(lo - params, width), where=params < lo)
    np.clip(params, lo, hi, out=params)


def _repair(ens: Ensemble, populations: np.ndarray) -> None:
    """Re-bound parameters and restore compartment invariants."""
    _clamp_params(ens.params, ens.n_regions)
    np.clip(ens.I, 0.0, None, out=ens.I)
    np.clip(ens.R, 0.0, None, out=ens.R)
    total = ens.I + ens.R
    over = total > populations[None, :]
    if np.any(over):
        factor = np.where(over, populations[None, :] / np.where(total > 0, total, 1.0), 1.0)
        ens.I *= factor
        ens.R *= factor
    ens.S = populations[None, :] - ens.I - ens.R


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
    prior = _inflate(np.concatenate([ens.S, ens.I, ens.R, ens.params], axis=1), inflation)
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

    state = transform @ prior
    out = replace(
        ens, S=state[:, :n_patches], I=state[:, n_patches : 2 * n_patches],
        R=state[:, 2 * n_patches : 3 * n_patches], params=state[:, 3 * n_patches :],
    )
    _repair(out, np.asarray(populations, dtype=float))
    return out


def _member_coefficients(ens: Ensemble, graph: PatchGraph) -> tuple:
    """``week_coefficients`` of every member at once: six members x patches arrays.

    Each member's region parameters are gathered onto patches through
    ``graph.patch_region`` (the same values as ``broadcast_matrix @``).
    """
    r = ens.n_regions
    return week_coefficients({
        name: ens.params[:, p * r : (p + 1) * r][:, graph.patch_region]
        for p, name in enumerate(PARAM_NAMES)
    })


def _step_members(ens: Ensemble, graph: PatchGraph, coefficients: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Advance every member one week in place, one ``sirs_step`` each with its
    ``_member_coefficients``; returns the sums, in member order, of I and of the new infections."""
    i_sum, new_sum = np.zeros(graph.n_patches), np.zeros(graph.n_patches)
    for m, member in enumerate(zip(*coefficients)):
        ens.S[m], ens.I[m], ens.R[m], new = sirs_step(graph.theta, graph.theta_t, graph.n_eff,
                                                      ens.S[m], ens.I[m], ens.R[m], *member)
        i_sum += ens.I[m]
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
        ens = replace(self.ensemble, S=self.ensemble.S.copy(), I=self.ensemble.I.copy(), R=self.ensemble.R.copy())
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
    widths = np.repeat(PARAM_HI - PARAM_LO, ens.n_regions)
    observed = data.training_observed()
    window = data.window
    r = ens.n_regions

    s_mean = [ens.S.mean(axis=0)]
    i_mean = [ens.I.mean(axis=0)]
    r_mean = [ens.R.mean(axis=0)]
    di_mean = []
    p_mean = {name: np.zeros((r, window)) for name in PARAM_NAMES}
    p_sd = {name: np.zeros((r, window)) for name in PARAM_NAMES}

    for w in range(window):
        ens.params = ens.params + walk_rng.standard_normal(ens.params.shape) * (PARAM_WALK * widths)
        _clamp_params(ens.params, r)
        di_mean.append(_step_members(ens, graph, _member_coefficients(ens, graph))[1] / ens.size)

        ens = eakf_step(ens, observed[:, w], graph.populations, inflation, obs_error_variance)
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
