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

One function, ``sirs_step``, advances one week.  Its arithmetic goes
through :mod:`calypso.autodiff` helpers, so it runs on plain ndarrays and
on tape-recorded values alike.  The per-week coefficients that do not
depend on the state (beta, the contact factor of move 2, gamma,
1 - gamma, delta, 1 - delta) come from ``week_coefficients``; ``theta_t``
and ``n_eff`` are fixed on the ``PatchGraph``.  Two loops advance the
weeks:

- ``iterate_sirs`` is the tape path: calibration and the adapter pass a
  ``step_params(t)`` that records each week's parameters on the tape,
  and it applies ``week_coefficients`` to them and calls ``sirs_step``
  every week.  The EAKF calls ``sirs_step`` once per member and week.
- ``_weeks`` is the plain-array loop.  It takes the six coefficients as
  weeks x patches arrays, built once by ``patch_coefficients``, and does
  ``sirs_step``'s operations in its order, but writes each one into
  caller-owned buffers with ufunc outputs: no array is allocated after
  week 0.  Its state is one value per patch, or patches x scenarios with
  a scenario axis: then every coefficient and ``n_eff`` enter as (P, 1)
  columns and each week's matrix products advance all scenarios at once.
  ``plain_trajectory`` keeps the whole history and returns it as a
  ``Trajectory``; ``plain_totals`` advances blocks of columns through a
  rolling pair of states and keeps only the cumulative new infections,
  so its working arrays stay near a fixed size however many scenarios
  there are.  Both run from coefficients built earlier:
  ``analysis.FittedModel`` builds them once per graph, not once per run,
  and ``simulate`` builds them for one unscaled run.  Each checks
  ``init`` and ``beta_scale`` before week 0.

A counterfactual that perturbs transmission is a per-patch multiplier,
``beta_scale``, applied to every week's patch beta after the gather: a
vector for ``plain_trajectory``, one column per scenario for
``plain_totals``; ``simulate`` takes none.
A region's intervention is
``np.where(graph.patch_region == r, factor, 1.0)``: its products equal
those of scaling the region's beta row, bit for bit.  An outbreak is a
column of initial infections.  A batched column matches ``simulate`` of
the same inputs to rounding (a matrix product in place of a
matrix-vector one), not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import autodiff as ad
from .core import DiseaseParams, PatchGraph, Trajectory, check_option
from .errors import InvalidOption, InvalidValue, ShapeMismatch


@dataclass(frozen=True)
class SimConfig:
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ShapeMismatch("steps must be >= 1")


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
        raise InvalidValue("a patch has zero mobility-weighted population")


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


def patch_coefficients(graph: PatchGraph, params: DiseaseParams, steps: int) -> tuple:
    """The six ``week_coefficients`` of the first ``steps`` weeks, weeks x patches.

    They are computed on the region rows, then each patch takes its
    region's row (``graph.patch_region``, exactly ``graph.broadcast_matrix
    @``) and the result is made week-major, one contiguous row per week.
    The arithmetic is elementwise, so every entry equals that of gathering
    first.  Refuses parameters that cover fewer weeks or other regions, and
    a graph with a zero mobility-weighted population.
    """
    if params.n_steps < steps:
        raise ShapeMismatch(f"parameters cover {params.n_steps} steps, run needs {steps}")
    _check_n_eff(graph)
    if tuple(params.region_ids) != graph.region_ids:
        missing = set(graph.region_ids) - set(params.region_ids)
        raise ShapeMismatch(f"parameters missing regions {sorted(missing)}" if missing
                            else "parameter region ordering does not match the graph")
    return tuple(np.ascontiguousarray(c[graph.patch_region, :steps].T)
                 for c in week_coefficients(params.as_dict()))


def _check_inputs(graph: PatchGraph, init, beta_scale,
                  batched: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """``init`` and ``beta_scale`` as float arrays, refused before week 0 if bad.

    A vector holds one value per patch.  With ``batched`` either may
    instead be patches x scenarios (``beta_scale`` must be, when given);
    the first bad column is named.
    """
    arrays = {"init": np.asarray(init, dtype=float)}
    if beta_scale is not None:
        arrays["beta_scale"] = np.asarray(beta_scale, dtype=float)
    for name, arr in arrays.items():
        ranks = (1,) if not batched else (1, 2) if name == "init" else (2,)
        if arr.ndim not in ranks or arr.shape[0] != graph.n_patches:
            per_column = " per scenario column" if 2 in ranks else ""
            raise ShapeMismatch(f"{name} must hold one value per patch ({graph.n_patches})"
                                f"{per_column}, got shape {arr.shape}")
    init = arrays["init"]
    beta_scale = arrays.get("beta_scale")
    if init.ndim == 2 and beta_scale is not None and init.shape[1] != beta_scale.shape[1]:
        raise ShapeMismatch(f"init has {init.shape[1]} scenario columns, "
                            f"beta_scale has {beta_scale.shape[1]}")

    def where(bad: np.ndarray) -> str:
        return "" if bad.ndim == 1 else f" in column {int(np.flatnonzero(bad.any(axis=0))[0])}"

    cap = graph.populations if init.ndim == 1 else graph.populations[:, None]
    for bad, what in ((~np.isfinite(init), "contain a non-finite entry"), (init < 0, "contain a negative entry"),
                      (init > cap, "exceed a patch population")):
        if np.any(bad):
            raise InvalidValue(f"initial infections {what}{where(bad)}")
    if beta_scale is not None:
        bad = ~np.isfinite(beta_scale) | (beta_scale < 0)
        if np.any(bad):
            raise InvalidValue(f"beta_scale must be finite and nonnegative{where(bad)}")
    return init, beta_scale


def _weeks(graph: PatchGraph, coefficients: tuple, init: np.ndarray, S: np.ndarray,
           I: np.ndarray, R: np.ndarray, new_inf: np.ndarray,
           beta_scale: np.ndarray | None = None, total: np.ndarray | None = None) -> None:
    """Advance one week per row of ``coefficients`` from ``init``, in place.

    ``coefficients`` are the six ``patch_coefficients`` arrays and
    ``init`` the checked initial infections.  The state is one value per
    patch, or with a patches x scenarios ``init`` (or a (P, 1) column that
    every scenario shares) each column is one scenario: then ``S``, ``I``,
    ``R`` and ``new_inf`` carry a scenario axis, and every coefficient and
    ``n_eff`` enters as a (P, 1) column.  A (P,) vector would broadcast
    along the scenario axis instead, silently when there are as many
    scenarios as patches.

    ``S``, ``I`` and ``R`` are stacks of state buffers and ``new_inf`` a
    stack of new-infection buffers, the caller's.  Week ``t`` writes its
    state into slot ``(t + 1) % len(S)`` and its new infections into slot
    ``t % len(new_inf)``, and adds them into ``total`` when given: with
    ``steps + 1`` and ``steps`` slots they keep the whole history (slot 0,
    the initial state, is never written), with two and one a rolling pair.
    The operations are those of ``sirs_step``, in its order, with ufunc
    outputs in place of temporaries.
    """
    mul, add, sub, div, matmul = np.multiply, np.add, np.subtract, np.divide, np.matmul
    batched = S.ndim == 3
    column = (lambda a: a[..., None]) if batched else (lambda a: a)
    beta, factor, gamma, keep_i, delta, keep_r = map(column, coefficients)
    theta, theta_t, n_eff = graph.theta, graph.theta_t, column(graph.n_eff)
    depth, dI_depth = len(S), len(new_inf)
    a, b = np.empty_like(S[0]), np.empty_like(S[0])
    s, i, r = column(graph.populations) - init, init, np.zeros_like(init)
    for t in range(len(beta)):
        slot = (t + 1) % depth
        s_next, i_next, r_next, dI = S[slot], I[slot], R[slot], new_inf[t % dI_depth]
        # week 0 multiplies ``init`` itself: a shared column is one
        # matrix-vector product, not one per scenario
        i_eff = theta_t @ i if t == 0 else matmul(theta_t, i, a)
        div(i_eff, n_eff, a)
        if beta_scale is None:
            mul(beta[t], a, b)
        else:
            mul(beta[t], beta_scale, b)
            mul(b, a, b)
        mul(b, factor[t], b)
        matmul(theta, b, a)
        mul(a, s, a)
        np.minimum(s, a, out=dI)
        sub(s, dI, s_next)
        add(s_next, mul(delta[t], r, a), s_next)
        add(dI, mul(keep_i[t], i, a), i_next)
        add(mul(gamma[t], i, a), mul(keep_r[t], r, b), r_next)
        if total is not None:
            add(total, dI, total)
        s, i, r = s_next, i_next, r_next


def plain_trajectory(graph: PatchGraph, coefficients: tuple, init,
                     beta_scale: np.ndarray | None = None) -> Trajectory:
    """``simulate`` from ``patch_coefficients(graph, params, steps)`` built earlier."""
    init, beta_scale = _check_inputs(graph, init, beta_scale, batched=False)
    steps, n = len(coefficients[0]), graph.n_patches
    S, I, R = np.empty((steps + 1, n)), np.empty((steps + 1, n)), np.empty((steps + 1, n))
    new_inf = np.empty((steps, n))
    S[0] = graph.populations - init
    I[0] = init
    R[0] = 0.0
    _weeks(graph, coefficients, init, S, I, R, new_inf, beta_scale)
    return Trajectory(
        S=np.ascontiguousarray(S.T),
        I=np.ascontiguousarray(I.T),
        R=np.ascontiguousarray(R.T),
        new_infections=np.ascontiguousarray(new_inf.T),
    )


def simulate(graph: PatchGraph, params: DiseaseParams, init: np.ndarray, config: SimConfig) -> Trajectory:
    """Simulate ``config.steps`` weeks from per-patch initial infections."""
    return plain_trajectory(graph, patch_coefficients(graph, params, config.steps), init)


# Scenario columns advanced together, as a number of P x B elements: each
# working array of the weekly step stays near 128 KiB however many scenarios
# a call scores (241 for one outbreak per patch at 240 patches).
_BLOCK_ELEMENTS = 1 << 14


def plain_totals(graph: PatchGraph, coefficients: tuple, init,
                 beta_scale: np.ndarray | None = None) -> np.ndarray:
    """Cumulative new infections per patch, one column per scenario, from
    ``patch_coefficients(graph, params, steps)`` built earlier.

    ``init`` is one value per patch, shared by every scenario, or
    patches x scenarios; ``beta_scale`` is patches x scenarios.
    """
    init, beta_scale = _check_inputs(graph, init, beta_scale, batched=True)
    if init.ndim == 1:
        init = init[:, None]
    n = graph.n_patches
    width = init.shape[1] if beta_scale is None else beta_scale.shape[1]
    block = max(1, _BLOCK_ELEMENTS // n)
    out = np.empty((n, width))
    for lo in range(0, width, block):
        cols = slice(lo, lo + block)
        shape = (n, min(block, width - lo))
        S, I, R = (np.empty((2, *shape)) for _ in range(3))
        total = np.zeros(shape)
        _weeks(graph, coefficients, init if init.shape[1] == 1 else init[:, cols], S, I, R,
               np.empty((1, *shape)), None if beta_scale is None else beta_scale[:, cols], total)
        out[:, cols] = total
    return out


def seed_outbreak(init: np.ndarray, patch: str, k: float, graph: PatchGraph) -> np.ndarray:
    """Add ``k`` infections to one patch, respecting its population cap."""
    if patch not in graph.patch_index:
        raise InvalidOption(f"unknown patch {patch!r}")
    check_option("seed count", k, 0)
    idx = graph.patch_index[patch]
    out = np.array(init, dtype=float)
    if out[idx] + k > graph.populations[idx]:
        raise InvalidValue(
            f"seeding {k} in {patch!r} exceeds its population {graph.populations[idx]:.6g}"
        )
    out[idx] += k
    return out
