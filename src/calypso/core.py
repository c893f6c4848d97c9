"""Domain types and spatial plumbing shared by every other module.

A *patch* is the atomic spatial unit (a county's general community or its
aggregated healthcare facilities).  Patches are grouped into *regions*,
and the *state* is the union of all regions.  Spatial coupling is a dense
row-stochastic travel matrix ``theta`` whose entry (i, j) is the fraction
of patch i's population present at patch j in a typical week; the
diagonal absorbs the stay-home residual.

Patch ordering is the lexicographic order of patch ids, fixed at graph
construction.  Every matrix in the package uses that ordering, which
makes floating-point reductions reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateTruth,
    InvalidOption,
    OffDiagonalOverflow,
    ShapeMismatch,
    UnknownLevel,
)

GENERAL = "general"
NON_GENERAL = "non-general"

PARAM_NAMES = ("beta", "gamma", "delta", "kappa", "epsilon")

# Default admissible intervals for the SIRS parameters (weekly scale).
DEFAULT_PARAM_BOUNDS = {
    "beta": (0.0, 1.0),
    "gamma": (0.05, 0.9),
    "delta": (0.0, 0.2),
    "kappa": (0.0, 0.9),
    "epsilon": (0.0, 1.0),
}

ROW_SUM_TOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    out.setflags(write=False)
    return out


class PatchGraph:
    """Patches, their region/category labels, populations, and travel matrix.

    Parameters
    ----------
    populations : mapping patch id -> positive population
    region_of : mapping patch id -> region id
    category_of : mapping patch id -> "general" | "non-general"
    theta : (P, P) row-stochastic matrix in the lexicographic id order

    Besides the inputs, construction fixes read-only arrays that every
    simulation run needs and that do not depend on its state:

    - ``patch_region``: (P,) int index of each patch's region, so
      ``region_values[patch_region]`` broadcasts regions to patches (the
      same as ``broadcast_matrix @ region_values``, exactly);
    - ``theta_t``: contiguous transpose of ``theta``;
    - ``n_eff``: mobility-weighted populations ``theta_t @ populations``.
      A zero entry is refused when a simulation starts, not here.
    """

    def __init__(
        self,
        populations: Mapping[str, float],
        region_of: Mapping[str, str],
        category_of: Mapping[str, str],
        theta: np.ndarray,
    ):
        self.patch_ids: tuple[str, ...] = tuple(sorted(populations))
        if len(self.patch_ids) == 0:
            raise ShapeMismatch("graph needs at least one patch")
        if set(region_of) != set(self.patch_ids) or set(category_of) != set(self.patch_ids):
            raise ShapeMismatch("region_of/category_of must cover exactly the patch ids")
        for p in self.patch_ids:
            if category_of[p] not in (GENERAL, NON_GENERAL):
                raise ShapeMismatch(f"bad category {category_of[p]!r} for patch {p!r}")
        self.populations = _readonly(np.array([populations[p] for p in self.patch_ids], dtype=float))
        if np.any(self.populations <= 0) or not np.all(np.isfinite(self.populations)):
            raise ShapeMismatch("populations must be strictly positive and finite")
        self.region_of = dict(region_of)
        self.category_of = dict(category_of)
        self.region_ids: tuple[str, ...] = tuple(sorted(set(region_of.values())))

        theta = np.asarray(theta, dtype=float)
        n = len(self.patch_ids)
        if theta.shape != (n, n):
            raise ShapeMismatch(f"theta must be ({n}, {n}), got {theta.shape}")
        if np.any(theta < -1e-15) or np.any(theta > 1 + 1e-12):
            raise ShapeMismatch("theta entries must lie in [0, 1]")
        rows = theta.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > ROW_SUM_TOL):
            worst = int(np.argmax(np.abs(rows - 1.0)))
            raise ShapeMismatch(
                f"theta row for patch {self.patch_ids[worst]!r} sums to {rows[worst]!r}, not 1"
            )
        self.theta = _readonly(np.clip(theta, 0.0, 1.0))

        self.patch_index = {p: i for i, p in enumerate(self.patch_ids)}
        self.region_index = {r: i for i, r in enumerate(self.region_ids)}
        # 0/1 membership matrix, regions x patches, in the fixed orderings.
        member = np.zeros((len(self.region_ids), n))
        for p, r in self.region_of.items():
            member[self.region_index[r], self.patch_index[p]] = 1.0
        self.region_matrix = _readonly(member)
        # patches x regions broadcast matrix (transpose of membership).
        self.broadcast_matrix = _readonly(member.T.copy())
        self.patch_region = np.array([self.region_index[self.region_of[p]] for p in self.patch_ids])
        self.patch_region.setflags(write=False)
        self.theta_t = _readonly(self.theta.T.copy())
        self.n_eff = _readonly(self.theta_t @ self.populations)

    @property
    def n_patches(self) -> int:
        return len(self.patch_ids)

    @property
    def n_regions(self) -> int:
        return len(self.region_ids)

    def region_populations(self) -> np.ndarray:
        return self.region_matrix @ self.populations

    def patches_of_category(self, category: str) -> list[str]:
        return [p for p in self.patch_ids if self.category_of[p] == category]


def _flows_to_matrix(flows, ids: Sequence[str] | None, n: int) -> np.ndarray:
    """Accept either an (n, n) array or a {(src, dst): flow} mapping."""
    if flows is None:
        return np.zeros((n, n))
    if isinstance(flows, Mapping):
        if ids is None:
            raise ShapeMismatch("mapping flows need id-keyed populations")
        index = {p: i for i, p in enumerate(ids)}
        out = np.zeros((n, n))
        for (src, dst), v in flows.items():
            if src not in index or dst not in index:
                raise ShapeMismatch(f"flow references unknown patch {src!r}->{dst!r}")
            out[index[src], index[dst]] += float(v)
        return out
    arr = np.asarray(flows, dtype=float)
    if arr.shape != (n, n):
        raise ShapeMismatch(f"flow matrix must be ({n}, {n}), got {arr.shape}")
    return arr.copy()


def build_travel_matrix(commute_flows, facility_flows, populations) -> np.ndarray:
    """Build the row-stochastic travel matrix from weekly flow counts.

    Off-diagonal entries are (commute + facility transfers) / source
    population; the diagonal is the stay-home residual.  Flows may be
    given as {(src_id, dst_id): count} mappings together with an
    id-keyed population mapping (patch order is then the sorted ids),
    or as dense (P, P) arrays with an array of populations.
    """
    if isinstance(populations, Mapping):
        ids = tuple(sorted(populations))
        pop = np.array([populations[p] for p in ids], dtype=float)
    else:
        ids = None
        pop = np.asarray(populations, dtype=float)
    n = pop.shape[0]
    c = _flows_to_matrix(commute_flows, ids, n)
    f = _flows_to_matrix(facility_flows, ids, n)
    if np.any(c < 0) or np.any(f < 0):
        raise ShapeMismatch("flows must be nonnegative")

    theta = (c + f) / pop[:, None]
    np.fill_diagonal(theta, 0.0)
    out = theta.sum(axis=1)
    if np.any(out > 1.0 + 1e-12):
        worst = int(np.argmax(out))
        name = ids[worst] if ids is not None else str(worst)
        raise OffDiagonalOverflow(
            f"outgoing flows from patch {name!r} exceed its population "
            f"({out[worst] * pop[worst]:.6g} > {pop[worst]:.6g})"
        )
    np.fill_diagonal(theta, 1.0 - out)
    return theta


def aggregate(series: np.ndarray, level: str, graph: PatchGraph) -> np.ndarray:
    """Aggregate a patches x time matrix additively to the requested level.

    Region rows sum their member patches; the state row is the sum of
    the region rows (computed from them, so the two levels agree
    exactly, not just to rounding).
    """
    series = np.asarray(series, dtype=float)
    if series.ndim == 1:
        series = series[None, :] if series.shape[0] != graph.n_patches else series[:, None]
    if series.shape[0] != graph.n_patches:
        raise ShapeMismatch(
            f"series has {series.shape[0]} rows, graph has {graph.n_patches} patches"
        )
    if level == "patch":
        return series
    region = graph.region_matrix @ series
    if level == "region":
        return region
    if level == "state":
        return region.sum(axis=0, keepdims=True)
    raise UnknownLevel(f"level must be patch/region/state, got {level!r}")


def metrics(pred, truth) -> dict[str, float]:
    """R^2, MSE, MAE and RMSE of a prediction against a truth series."""
    pred = np.asarray(pred, dtype=float).ravel()
    truth = np.asarray(truth, dtype=float).ravel()
    if pred.shape != truth.shape:
        raise ShapeMismatch(f"pred length {pred.shape[0]} != truth length {truth.shape[0]}")
    if pred.shape[0] < 2:
        raise ShapeMismatch("metrics need at least two points")
    resid = pred - truth
    mse = float(np.mean(resid**2))
    mae = float(np.mean(np.abs(resid)))
    ss_tot = float(np.sum((truth - truth.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateTruth("truth series is constant; R^2 undefined")
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot
    return {"r2": r2, "mse": mse, "mae": mae, "rmse": float(np.sqrt(mse))}


def check_option(name: str, value, low: float, strict: bool = False, high: float | None = None) -> None:
    """Refuse an option value that is NaN, not >= ``low`` (> ``low`` when ``strict``)
    or above ``high`` (not finite without one), with ``InvalidOption`` naming it."""
    if not ((value > low if strict else value >= low)
            and (value < math.inf if high is None else value <= high)):
        need = f"{'>' if strict else '>='} {low}" + ("" if high in (None, math.inf) else f" and <= {high}")
        raise InvalidOption(f"{name} must be {'' if high == math.inf else 'finite and '}{need}, got {value}")


@dataclass(frozen=True)
class DiseaseParams:
    """Region- and week-specific SIRS parameters.

    All arrays are regions x weeks in the graph's region ordering.  A
    counterfactual that scales transmission on some patches does not
    change these; it hands ``simulate`` a per-patch ``beta_scale``.
    """

    region_ids: tuple[str, ...]
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    kappa: np.ndarray
    epsilon: np.ndarray

    def __post_init__(self):
        shape = np.asarray(self.beta).shape
        for name in PARAM_NAMES:
            arr = _readonly(getattr(self, name))
            if arr.shape != shape or arr.ndim != 2:
                raise ShapeMismatch(f"{name} must have shape {shape}")
            if not np.all(np.isfinite(arr)):
                raise ShapeMismatch(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)
        if shape[0] != len(self.region_ids):
            raise ShapeMismatch("first axis must match region count")
        for name in ("gamma", "delta", "kappa", "epsilon"):
            arr = getattr(self, name)
            if np.any(arr < 0) or np.any(arr > 1):
                raise ShapeMismatch(f"{name} must lie in [0, 1]")
        if np.any(self.beta < 0):
            raise ShapeMismatch("beta must be nonnegative")

    @property
    def n_steps(self) -> int:
        return self.beta.shape[1]

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    @staticmethod
    def constant(region_ids: Sequence[str], steps: int, **values: float) -> "DiseaseParams":
        """Constant-in-time parameters, one value per name (same for all regions)."""
        r = len(region_ids)
        arrays = {}
        for name in PARAM_NAMES:
            v = float(values.get(name, 0.0))
            arrays[name] = np.full((r, steps), v)
        return DiseaseParams(region_ids=tuple(region_ids), **arrays)

    def extended(self, extra_steps: int) -> "DiseaseParams":
        """Append ``extra_steps`` columns holding the last week's values."""
        if extra_steps <= 0:
            return self
        arrays = {}
        for name in PARAM_NAMES:
            arr = getattr(self, name)
            arrays[name] = np.concatenate([arr, np.repeat(arr[:, -1:], extra_steps, axis=1)], axis=1)
        return DiseaseParams(region_ids=self.region_ids, **arrays)


@dataclass(frozen=True)
class Trajectory:
    """Simulated compartments over time.

    S, I, R are patches x (steps + 1): column t is the state entering
    week t, so column 0 is the initial condition.  ``new_infections`` is
    patches x steps: column t holds the infections drawn during week t.
    The per-week predicted case series is the post-step prevalence,
    I[:, 1:].
    """

    S: np.ndarray
    I: np.ndarray
    R: np.ndarray
    new_infections: np.ndarray

    def __post_init__(self):
        for name in ("S", "I", "R", "new_infections"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        if not (self.S.shape == self.I.shape == self.R.shape):
            raise ShapeMismatch("S, I, R must share one shape")

    @property
    def n_steps(self) -> int:
        return self.S.shape[1] - 1

    @property
    def weekly_series(self) -> np.ndarray:
        """Patches x steps predicted prevalence (post-step I)."""
        return self.I[:, 1:]

    def check(self, populations: np.ndarray, rtol: float = 1e-6) -> None:
        """Assert conservation and nonnegativity."""
        total = self.S + self.I + self.R
        if not np.allclose(total, populations[:, None], rtol=rtol, atol=0):
            raise ShapeMismatch("S+I+R deviates from populations")
        for name in ("S", "I", "R"):
            if np.any(getattr(self, name) < -1e-9):
                raise ShapeMismatch(f"{name} went negative")


@dataclass(frozen=True)
class DataSet:
    """Observed cases plus per-patch feature channels.

    ``observed`` and ``features`` cover ``window + horizon`` weeks (the
    horizon part is held out for evaluation); training code only looks
    at the first ``window`` columns.
    """

    features: np.ndarray          # patches x weeks x channels
    observed: np.ndarray          # patches x weeks
    initial_infections: np.ndarray
    horizon: int
    window: int
    feature_names: tuple[str, ...] = ("mrsa", "mssa", "prescriptions", "norm_incidence")

    def __post_init__(self):
        object.__setattr__(self, "features", _readonly(self.features))
        object.__setattr__(self, "observed", _readonly(self.observed))
        object.__setattr__(self, "initial_infections", _readonly(self.initial_infections))
        if self.features.ndim != 3:
            raise ShapeMismatch("features must be patches x weeks x channels")
        if self.observed.shape != self.features.shape[:2]:
            raise ShapeMismatch("observed must align with features on patches x weeks")
        if np.any(self.observed < 0):
            raise ShapeMismatch("observed counts must be nonnegative")
        if self.window < 1 or self.horizon < 0:
            raise ShapeMismatch("window must be >= 1 and horizon >= 0")
        if self.observed.shape[1] < self.window + self.horizon:
            raise ShapeMismatch("observed is shorter than window + horizon")
        if self.initial_infections.shape != (self.features.shape[0],):
            raise ShapeMismatch("initial_infections must be one value per patch")

    @property
    def n_patches(self) -> int:
        return self.observed.shape[0]

    def training_observed(self) -> np.ndarray:
        return self.observed[:, : self.window]

    def holdout_observed(self) -> np.ndarray:
        return self.observed[:, self.window : self.window + self.horizon]
