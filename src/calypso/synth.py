"""Synthetic data generator with known ground-truth dynamics.

Builds a random patch graph (commute flows between communities, transfer
flows into healthcare patches), draws smooth region-level parameters
inside the calibration bounds (seasonal transmission, constant recovery/
reinfection/intervention/symptomatic rates), simulates the ground-truth
trajectory, and derives observed weekly case counts by carrying each
week's new infections for a per-case duration sampled uniformly from the
persistence range.  Each weekly infection cohort is rounded to an
integer count before its durations are split, so observed counts are
nonnegative integers.  ``SynthSpec`` sets only the size, the window, the
seed and the healthcare-population scale; every range a draw comes from
is a module constant.

Feature channels: observed case counts, a lag-1 scaled copy of incidence
with 10% relative noise (co-circulating-strain proxy), a lag-2 scaled
copy (prescription proxy), and population-normalized incidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io, seeding
from .core import (
    GENERAL,
    NON_GENERAL,
    DataSet,
    DiseaseParams,
    PatchGraph,
    Trajectory,
    build_travel_matrix,
)
from .errors import InvalidOption
from .sim import SimConfig, simulate

FEATURE_NAMES = ("mrsa", "mssa", "prescriptions", "norm_incidence")


# The generator's fixed ranges.  Each parameter range, beta's base plus or
# minus its amplitude too, lies inside DEFAULT_PARAM_BOUNDS (a test pins this).
POPULATION_RANGE = (2_000.0, 20_000.0)
MOBILITY_DENSITY = 0.35            # chance an ordered pair carries flow
PERSISTENCE_RANGE = (2, 4)         # weeks a case stays observed
OUTFLOW_RANGE = (0.08, 0.25)       # share of a patch's population that travels
BETA_BASE_RANGE = (0.45, 0.6)
BETA_AMPLITUDE = 0.18
BETA_PERIOD = 52.0
BETA_PHASE_JITTER = 2.0            # weeks a region's seasonal peak may sit off the window end
CONSTANT_RANGES = {"gamma": (0.3, 0.4), "delta": (0.05, 0.12), "kappa": (0.1, 0.3), "epsilon": (0.4, 0.7)}
SEED_FRACTION_RANGE = (0.002, 0.01)  # initial infections as a share of each population


@dataclass(frozen=True)
class SynthSpec:
    n_patches: int = 24
    n_regions: int = 4
    facility_population_scale: float = 1.0  # multiplier on healthcare-patch populations
    weeks: int = 120                   # training window
    horizon: int = 4
    seed: int = 1

    def __post_init__(self):
        if self.n_regions < 1 or self.n_patches < 2 * self.n_regions:
            raise InvalidOption("need at least two patches (general + healthcare) per region, "
                                f"got {self.n_patches} patches for {self.n_regions} regions")
        if self.weeks < 8 or self.horizon < 0:
            raise InvalidOption("weeks must be >= 8 and horizon >= 0")


@dataclass(frozen=True)
class SynthBundle:
    graph: PatchGraph
    data: DataSet
    trajectory: Trajectory          # ground truth over weeks + horizon
    params: DiseaseParams           # generating parameters over weeks + horizon
    commute_flows: dict = field(repr=False, default_factory=dict)
    facility_flows: dict = field(repr=False, default_factory=dict)

    def write(self, out_dir) -> list[Path]:
        written = io.write_inputs(out_dir, self.graph, self.data, self.commute_flows, self.facility_flows)
        written.append(io.write_ground_truth(Path(out_dir) / "ground_truth.csv", self.graph, self.params, self.trajectory))
        return written


def _build_graph(spec: SynthSpec, rng: np.random.Generator):
    per_region = spec.n_patches // spec.n_regions
    remainder = spec.n_patches % spec.n_regions
    populations, region_of, category_of = {}, {}, {}
    for r in range(spec.n_regions):
        rid = f"R{r}"
        count = per_region + (1 if r < remainder else 0)
        n_general = max(1, count - count // 2)
        for j in range(count):
            general = j < n_general
            pid = f"{rid}-{'G' if general else 'N'}{j if general else j - n_general:02d}"
            scale = 1.0 if general else spec.facility_population_scale
            populations[pid] = float(rng.uniform(*POPULATION_RANGE)) * scale
            region_of[pid] = rid
            category_of[pid] = GENERAL if general else NON_GENERAL
    ids = sorted(populations)
    general_ids = [p for p in ids if category_of[p] == GENERAL]
    facility_ids = [p for p in ids if category_of[p] == NON_GENERAL]

    commute, facility = {}, {}
    for src in ids:
        out_frac = rng.uniform(*OUTFLOW_RANGE)
        # one uniform per candidate destination, commute candidates first
        commute_targets, facility_targets = (
            [d for d, u in zip(pool, rng.random(len(pool)).tolist())
             if u < MOBILITY_DENSITY * (1.0 if region_of[d] == region_of[src] else cross)]
            for pool, cross in (([d for d in general_ids if d != src], 0.4),
                                ([d for d in facility_ids if d != src], 0.25)))
        targets = commute_targets + facility_targets
        if not targets:
            continue
        weights = rng.uniform(0.2, 1.0, size=len(targets))
        weights = weights / weights.sum() * out_frac * populations[src]
        for d, wgt in zip(commute_targets, weights[: len(commute_targets)]):
            commute[(src, d)] = float(wgt)
        for d, wgt in zip(facility_targets, weights[len(commute_targets):]):
            facility[(src, d)] = float(wgt)

    theta = build_travel_matrix(commute, facility, populations)
    return PatchGraph(populations, region_of, category_of, theta), commute, facility


def _draw_params(spec: SynthSpec, region_ids, rng: np.random.Generator) -> DiseaseParams:
    total = spec.weeks + spec.horizon
    t = np.arange(total)
    n_regions = len(region_ids)
    base = rng.uniform(*BETA_BASE_RANGE, size=n_regions)
    anchor = (0.25 * BETA_PERIOD - spec.weeks) % BETA_PERIOD  # statewide seasonal peak at the window end
    phase = anchor + rng.uniform(-BETA_PHASE_JITTER, BETA_PHASE_JITTER, size=n_regions)
    beta = base[:, None] + BETA_AMPLITUDE * np.sin(2 * np.pi * (t[None, :] + phase[:, None]) / BETA_PERIOD)
    # the stream draws the constant rates in CONSTANT_RANGES order
    return DiseaseParams(region_ids=tuple(region_ids), beta=beta, **{
        name: np.repeat(rng.uniform(*pair, size=n_regions)[:, None], total, axis=1)
        for name, pair in CONSTANT_RANGES.items()
    })


def _observe(traj: Trajectory, populations: np.ndarray, persistence: tuple[int, int],
             rng: np.random.Generator) -> np.ndarray:
    """Weekly observed counts from integerized infection cohorts, each case
    observed for a number of weeks drawn uniformly from ``persistence``."""
    new_inf = traj.new_infections
    n_patches, total = new_inf.shape
    lo, hi = persistence
    n_durations = hi - lo + 1
    cohorts = np.rint(new_inf).astype(np.int64)
    p, s = np.nonzero(cohorts > 0)  # patch-major, the order the draws are taken in
    cohorts = cohorts[p, s]
    if n_durations == 1:
        counts = cohorts[:, None]
    else:
        counts = rng.multinomial(cohorts, np.full(n_durations, 1.0 / n_durations))
    # each cohort's d-th share is observed in weeks s .. s + lo + d - 1 (clipped at the end)
    change = np.zeros((n_patches, total + 1))
    change[p, s] = cohorts
    for d in range(n_durations):
        np.add.at(change, (p, np.minimum(s + lo + d, total)), -counts[:, d])
    observed = np.cumsum(change, axis=1)[:, :total]
    return np.minimum(observed, np.rint(populations)[:, None])


def _features(observed: np.ndarray, traj: Trajectory, populations: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    incidence = np.rint(traj.new_infections)
    lag1 = np.concatenate([np.zeros((incidence.shape[0], 1)), incidence[:, :-1]], axis=1)
    lag2 = np.concatenate([np.zeros((incidence.shape[0], 2)), incidence[:, :-2]], axis=1)
    mssa = np.clip(1.6 * lag1 * (1.0 + 0.1 * rng.standard_normal(lag1.shape)), 0.0, None)
    rx = np.clip(4.0 * lag2 * (1.0 + 0.1 * rng.standard_normal(lag2.shape)), 0.0, None)
    norm_inc = incidence / populations[:, None]
    return np.stack([observed, mssa, rx, norm_inc], axis=2)


def generate(spec: SynthSpec) -> SynthBundle:
    """Produce (graph, dataset, ground-truth trajectory, parameters)."""
    rng_graph = seeding.spawn_rng(spec.seed, seeding.SYNTH, 0)
    rng_params = seeding.spawn_rng(spec.seed, seeding.SYNTH, 1)
    rng_obs = seeding.spawn_rng(spec.seed, seeding.SYNTH, 2)
    rng_feat = seeding.spawn_rng(spec.seed, seeding.SYNTH, 3)

    graph, commute, facility = _build_graph(spec, rng_graph)
    params = _draw_params(spec, graph.region_ids, rng_params)
    init = rng_params.uniform(*SEED_FRACTION_RANGE, size=graph.n_patches) * graph.populations
    traj = simulate(graph, params, init, SimConfig(steps=spec.weeks + spec.horizon))
    observed = _observe(traj, graph.populations, PERSISTENCE_RANGE, rng_obs)
    features = _features(observed, traj, graph.populations, rng_feat)
    data = DataSet(
        features=features,
        observed=observed,
        initial_infections=init,
        horizon=spec.horizon,
        window=spec.weeks,
        feature_names=FEATURE_NAMES,
    )
    return SynthBundle(
        graph=graph, data=data, trajectory=traj, params=params,
        commute_flows=commute, facility_flows=facility,
    )
