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
All arithmetic goes through :mod:`calypso.autodiff` helpers, so the same
loop runs on plain ndarrays (fast path) and on tape-recorded values
(training path).  ``simulate`` is pure; independent runs can execute in
parallel freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import autodiff as ad
from .core import DiseaseParams, PatchGraph, Trajectory
from .errors import (
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


def sirs_step(theta, theta_t, n_eff, S, I, R, beta, gamma, delta, kappa, epsilon):
    """Advance one week; returns (S', I', R', new_infections).

    Accepts ndarrays or DualValues for the compartments and parameters;
    ``theta``/``theta_t``/``n_eff`` are plain arrays.
    """
    i_eff = ad.matmul(theta_t, I)
    ratio = i_eff / n_eff
    factor = (1.0 - kappa) * (1.0 - epsilon) + epsilon
    lam = ad.matmul(theta, beta * ratio * factor)
    new_inf = ad.minimum(S, lam * S)
    s_next = S - new_inf + delta * R
    i_next = new_inf + (1.0 - gamma) * I
    r_next = gamma * I + (1.0 - delta) * R
    return s_next, i_next, r_next, new_inf


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
    pop = graph.populations
    theta = graph.theta
    theta_t = theta.T.copy()
    n_eff = theta_t @ pop
    if np.any(n_eff <= 0):
        raise ZeroEffectivePopulation("a patch has zero mobility-weighted population")

    S = pop - init
    I = init
    R = np.zeros_like(pop)
    s_hist, i_hist, r_hist, di_hist = [S], [I], [R], []
    for t in range(steps):
        p = step_params(t)
        S, I, R, dI = sirs_step(
            theta, theta_t, n_eff, S, I, R,
            p["beta"], p["gamma"], p["delta"], p["kappa"], p["epsilon"],
        )
        s_hist.append(S)
        i_hist.append(I)
        r_hist.append(R)
        di_hist.append(dI)
    return s_hist, i_hist, r_hist, di_hist


def broadcast_params(graph: PatchGraph, params: DiseaseParams) -> dict[str, np.ndarray]:
    """Expand region x time parameter matrices to patch x time by copy."""
    if tuple(params.region_ids) != graph.region_ids:
        missing = set(graph.region_ids) - set(params.region_ids)
        raise ParamCoverage(f"parameters missing regions {sorted(missing)}" if missing
                            else "parameter region ordering does not match the graph")
    b = graph.broadcast_matrix
    out = {name: b @ arr for name, arr in params.as_dict().items()}
    scale = params.patch_beta_scale
    if scale is not None:
        scale = np.asarray(scale, dtype=float)
        if scale.ndim == 1:
            out["beta"] = out["beta"] * scale[:, None]
        else:
            if scale.shape != out["beta"].shape:
                raise ParamCoverage("patch_beta_scale shape must be patches or patches x steps")
            out["beta"] = out["beta"] * scale
    return out


def simulate(
    graph: PatchGraph,
    params: DiseaseParams,
    init: np.ndarray,
    config: SimConfig,
) -> Trajectory:
    """Simulate ``config.steps`` weeks from per-patch initial infections."""
    init = np.asarray(init, dtype=float)
    if init.shape != graph.populations.shape:
        raise ParamCoverage("init must hold one value per patch")
    if np.any(init < 0):
        raise NegativeSeed("initial infections contain a negative entry")
    if np.any(init > graph.populations):
        raise SeedExceedsPopulation("initial infections exceed a patch population")
    if params.n_steps < config.steps:
        raise ParamCoverage(
            f"parameters cover {params.n_steps} steps, run needs {config.steps}"
        )
    patch_params = broadcast_params(graph, params)

    def step_params(t: int) -> dict[str, np.ndarray]:
        return {name: arr[:, t] for name, arr in patch_params.items()}

    s_hist, i_hist, r_hist, di_hist = iterate_sirs(graph, step_params, init, config.steps)
    return Trajectory(
        S=np.stack(s_hist, axis=1),
        I=np.stack(i_hist, axis=1),
        R=np.stack(r_hist, axis=1),
        new_infections=np.stack(di_hist, axis=1),
    )


def apply_scenario(params: DiseaseParams, scenario, graph: PatchGraph | None = None) -> DiseaseParams:
    """Scale beta per the scenario's multipliers over its step range.

    Region-keyed multipliers scale the region rows directly; patch-keyed
    multipliers (which need ``graph`` to resolve indices) are folded into
    the returned copy's ``patch_beta_scale``.
    """
    t_all = params.n_steps
    if scenario.step_range is None:
        t0, t1 = 0, t_all
    else:
        t0, t1 = scenario.step_range
        t0, t1 = max(0, int(t0)), min(t_all, int(t1))
    beta = params.beta.copy()
    scale = None if params.patch_beta_scale is None else np.array(params.patch_beta_scale, dtype=float)
    for key, mult in scenario.beta_multipliers.items():
        if mult <= 0:
            raise UnknownTarget(f"multiplier for {key!r} must be positive")
        if key in params.region_ids:
            beta[params.region_ids.index(key), t0:t1] *= mult
        elif graph is not None and key in graph.patch_index:
            if scale is None:
                scale = np.ones((graph.n_patches, t_all))
            elif scale.ndim == 1:
                scale = np.repeat(scale[:, None], t_all, axis=1)
            scale[graph.patch_index[key], t0:t1] *= mult
        else:
            raise UnknownTarget(f"scenario targets unknown region/patch {key!r}")
    return DiseaseParams(
        region_ids=params.region_ids,
        beta=beta,
        gamma=params.gamma,
        delta=params.delta,
        kappa=params.kappa,
        epsilon=params.epsilon,
        patch_beta_scale=scale,
    )


def seed_outbreak(init: np.ndarray, patch: str, k: float, graph: PatchGraph) -> np.ndarray:
    """Add ``k`` infections to one patch, respecting its population cap."""
    if patch not in graph.patch_index:
        raise UnknownTarget(f"unknown patch {patch!r}")
    if k < 0:
        raise NegativeSeed("seed count must be nonnegative")
    idx = graph.patch_index[patch]
    out = np.array(init, dtype=float)
    if out[idx] + k > graph.populations[idx]:
        raise SeedExceedsPopulation(
            f"seeding {k} in {patch!r} exceeds its population {graph.populations[idx]:.6g}"
        )
    out[idx] += k
    return out
