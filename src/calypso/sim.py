"""Metapopulation SIRS simulator.

One week advances in four moves, all vectorised over patches:

1. mobility-adjusted populations and infections
       N_eff_i = sum_j theta_ji P_j,   I_eff_i = sum_j theta_ji I_j
2. infection force
       lam_i = sum_j theta_ij * beta_j * (I_eff_j / N_eff_j)
                      * ((1 - kappa_j) * (1 - epsilon_j) + epsilon_j)
3. new infections, clamped so susceptibles cannot go negative
       dI_i = min(S_i, lam_i * S_i)
4. compartment update
       S' = S - dI + delta * R
       I' = dI + (1 - gamma) * I
       R' = gamma * I + (1 - delta) * R

The update conserves S + I + R = P exactly in the algebra.  New
infections are computed from the current S before any update is applied.

One function, ``sirs_step``, advances one week, and two loops call it.
Its arithmetic goes through :mod:`calypso.autodiff` helpers, so it runs
on plain ndarrays and on tape-recorded values alike.  The per-week
coefficients that do not depend on the state (beta, the contact factor
of move 2, gamma, 1 - gamma, delta, 1 - delta) come from
``week_coefficients``; ``theta_t`` and ``n_eff`` are fixed on the
``PatchGraph``.

- ``iterate_sirs`` is the tape path: calibration and the adapter pass a
  ``step_params(t)`` that records each week's parameters on the tape,
  and it applies ``week_coefficients`` to them every week.
- ``simulate`` is the plain-array path: it gathers the region parameters
  onto patches once, computes every week's coefficients in one call on
  weeks x patches arrays, and writes the trajectory into preallocated
  buffers.  A plain-array forward over a training window (the planned
  ``sirs_window``) should reuse this loop.

A counterfactual that perturbs transmission is one length-P multiplier,
``simulate(..., beta_scale=)``, applied to every week's patch beta after
the gather.  A region's intervention is ``np.where(graph.patch_region ==
r, factor, 1.0)``: its products equal those of scaling the region's beta
row, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import autodiff as ad
from .core import DiseaseParams, PatchGraph, Trajectory
from .errors import (
    InvalidValue,
    NegativeSeed,
    ParamCoverage,
    SeedExceedsPopulation,
    UnknownTarget,
    ZeroEffectivePopulation,
)


@dataclass(frozen=True)
class SimConfig:
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ParamCoverage("steps must be >= 1")


def sirs_step(theta, theta_t, n_eff, S, I, R, beta, factor, gamma, keep_i, delta, keep_r):
    """Advance one week; returns (S', I', R', new_infections).

    ``beta`` .. ``keep_r`` are the six values ``week_coefficients``
    returns (``keep_i = 1 - gamma``, ``keep_r = 1 - delta``).  They and
    the compartments may be ndarrays or DualValues; ``theta``,
    ``theta_t`` and ``n_eff`` are plain arrays.
    """
    i_eff = ad.matmul(theta_t, I)
    ratio = i_eff / n_eff
    lam = ad.matmul(theta, beta * ratio * factor)
    new_inf = ad.minimum(S, lam * S)
    s_next = S - new_inf + delta * R
    i_next = new_inf + keep_i * I
    r_next = gamma * I + keep_r * R
    return s_next, i_next, r_next, new_inf


def week_coefficients(p: Mapping[str, object]) -> tuple:
    """(beta, factor, gamma, 1 - gamma, delta, 1 - delta) from per-patch parameters.

    ``factor`` is the contact factor ``(1 - kappa)(1 - epsilon) + epsilon``.
    The arithmetic is elementwise, so ``p`` may hold one week's patch
    vectors, weeks x patches or members x patches arrays, or DualValues.
    """
    gamma, delta, epsilon = p["gamma"], p["delta"], p["epsilon"]
    factor = (1.0 - p["kappa"]) * (1.0 - epsilon) + epsilon
    return p["beta"], factor, gamma, 1.0 - gamma, delta, 1.0 - delta


def _check_n_eff(graph: PatchGraph) -> None:
    if np.any(graph.n_eff <= 0):
        raise ZeroEffectivePopulation("a patch has zero mobility-weighted population")


def iterate_sirs(
    graph: PatchGraph,
    step_params: Callable[[int], Mapping[str, object]],
    init: np.ndarray,
    steps: int,
):
    """Run the weekly loop, returning per-step lists (S, I, R, dI).

    ``step_params(t)`` must return per-patch vectors for beta, gamma,
    delta, kappa and epsilon; they may be DualValues, in which case the
    produced histories are DualValues too.
    """
    _check_n_eff(graph)
    pop = graph.populations
    S = pop - init
    I = init
    R = np.zeros_like(pop)
    s_hist, i_hist, r_hist, di_hist = [S], [I], [R], []
    for t in range(steps):
        S, I, R, dI = sirs_step(graph.theta, graph.theta_t, graph.n_eff, S, I, R,
                                *week_coefficients(step_params(t)))
        s_hist.append(S)
        i_hist.append(I)
        r_hist.append(R)
        di_hist.append(dI)
    return s_hist, i_hist, r_hist, di_hist


def broadcast_params(graph: PatchGraph, params: DiseaseParams) -> dict[str, np.ndarray]:
    """Expand region x time parameter matrices to patch x time by copy.

    Each patch takes its region's row (``graph.patch_region``), which is
    exactly ``graph.broadcast_matrix @ arr``.
    """
    if tuple(params.region_ids) != graph.region_ids:
        missing = set(graph.region_ids) - set(params.region_ids)
        raise ParamCoverage(f"parameters missing regions {sorted(missing)}" if missing
                            else "parameter region ordering does not match the graph")
    return {name: arr[graph.patch_region] for name, arr in params.as_dict().items()}


def simulate(
    graph: PatchGraph,
    params: DiseaseParams,
    init: np.ndarray,
    config: SimConfig,
    beta_scale: np.ndarray | None = None,
) -> Trajectory:
    """Simulate ``config.steps`` weeks from per-patch initial infections.

    ``beta_scale``, one finite nonnegative multiplier per patch, scales
    each patch's beta in every week.
    """
    init = np.asarray(init, dtype=float)
    if init.shape != graph.populations.shape:
        raise ParamCoverage("init must hold one value per patch")
    if not np.all(np.isfinite(init)):
        raise InvalidValue("initial infections contain a non-finite entry")
    if np.any(init < 0):
        raise NegativeSeed("initial infections contain a negative entry")
    if np.any(init > graph.populations):
        raise SeedExceedsPopulation("initial infections exceed a patch population")
    if beta_scale is not None:
        beta_scale = np.asarray(beta_scale, dtype=float)
        if beta_scale.shape != graph.populations.shape:
            raise ParamCoverage(f"beta_scale must hold one value per patch ({graph.n_patches}), "
                                f"got shape {beta_scale.shape}")
        if not np.all(np.isfinite(beta_scale)) or np.any(beta_scale < 0):
            raise InvalidValue("beta_scale must be finite and nonnegative")
    steps = config.steps
    if params.n_steps < steps:
        raise ParamCoverage(
            f"parameters cover {params.n_steps} steps, run needs {steps}"
        )
    _check_n_eff(graph)
    # weeks x patches, one contiguous row per week
    week_major = {name: np.ascontiguousarray(arr[:, :steps].T)
                  for name, arr in broadcast_params(graph, params).items()}
    if beta_scale is not None:
        week_major["beta"] = week_major["beta"] * beta_scale
    coeffs = week_coefficients(week_major)

    n = graph.n_patches
    S, I, R = np.empty((steps + 1, n)), np.empty((steps + 1, n)), np.empty((steps + 1, n))
    new_inf = np.empty((steps, n))
    S[0] = graph.populations - init
    I[0] = init
    R[0] = 0.0
    theta, theta_t, n_eff = graph.theta, graph.theta_t, graph.n_eff
    for t, week in enumerate(zip(*coeffs)):
        S[t + 1], I[t + 1], R[t + 1], new_inf[t] = sirs_step(
            theta, theta_t, n_eff, S[t], I[t], R[t], *week)
    return Trajectory(
        S=np.ascontiguousarray(S.T),
        I=np.ascontiguousarray(I.T),
        R=np.ascontiguousarray(R.T),
        new_infections=np.ascontiguousarray(new_inf.T),
    )


def check_seed_count(k: float) -> None:
    """Refuse a seed count that is not finite and nonnegative."""
    if not math.isfinite(k):
        raise InvalidValue(f"seed count must be finite, got {k}")
    if k < 0:
        raise NegativeSeed("seed count must be nonnegative")


def seed_outbreak(init: np.ndarray, patch: str, k: float, graph: PatchGraph) -> np.ndarray:
    """Add ``k`` infections to one patch, respecting its population cap."""
    if patch not in graph.patch_index:
        raise UnknownTarget(f"unknown patch {patch!r}")
    check_seed_count(k)
    idx = graph.patch_index[patch]
    out = np.array(init, dtype=float)
    if out[idx] + k > graph.populations[idx]:
        raise SeedExceedsPopulation(
            f"seeding {k} in {patch!r} exceeds its population {graph.populations[idx]:.6g}"
        )
    out[idx] += k
    return out
