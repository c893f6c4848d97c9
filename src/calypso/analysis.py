"""Counterfactual and optimization analyses on a fitted model.

Every operation re-simulates under a perturbed configuration and
compares cumulative new infections against the unperturbed baseline;
nothing here mutates the fitted parameters.  Candidate evaluations
inside greedy loops are independent simulations; selection happens after
all candidates of a step are scored, so results do not depend on
evaluation order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .calib import CalibNet, TrainConfig, forecast, infer_params, train_joint
from .core import (
    NON_GENERAL,
    DataSet,
    DiseaseParams,
    PatchGraph,
    aggregate,
    metrics,
)
from .errors import (
    EmptyCandidates,
    KExceedsNoisySet,
    NegativeSeed,
    ShapeMismatch,
    UnknownRegion,
)
from .sim import SimConfig, apply_scenario, seed_outbreak, simulate


@dataclass(frozen=True)
class Scenario:
    """An intervention/outbreak specification.

    ``beta_multipliers`` may be keyed by region or patch ids;
    ``step_range`` limits the scaling to [start, stop) weeks (None means
    the whole run).  ``seeds`` adds infections per patch.  ``allocation``
    is a binary patch vector with at most ``budget`` ones.
    """

    beta_multipliers: Mapping[str, float] = field(default_factory=dict)
    step_range: tuple[int, int] | None = None
    seeds: Mapping[str, float] = field(default_factory=dict)
    allocation: np.ndarray | None = None
    budget: int | None = None

    def __post_init__(self):
        for key, mult in self.beta_multipliers.items():
            if mult <= 0:
                raise ShapeMismatch(f"beta multiplier for {key!r} must be positive")
        for key, k in self.seeds.items():
            if k < 0:
                raise NegativeSeed(f"seed count for {key!r} must be nonnegative")
        if self.allocation is not None:
            alloc = np.asarray(self.allocation)
            if not np.all((alloc == 0) | (alloc == 1)):
                raise ShapeMismatch("allocation must be binary")
            if self.budget is not None and alloc.sum() > self.budget:
                raise ShapeMismatch("allocation exceeds the budget")


@dataclass(frozen=True)
class FittedModel:
    """Frozen parameters + initial conditions used by the analyses."""

    params: DiseaseParams
    init: np.ndarray
    steps: int

    @staticmethod
    def from_calibration(net: CalibNet, data: DataSet, graph: PatchGraph) -> "FittedModel":
        return FittedModel(
            params=infer_params(net, data, graph),
            init=np.asarray(data.initial_infections, dtype=float),
            steps=data.window,
        )

    def run(self, graph: PatchGraph, params: DiseaseParams | None = None,
            init: np.ndarray | None = None):
        return simulate(
            graph,
            self.params if params is None else params,
            self.init if init is None else init,
            SimConfig(steps=self.steps),
        )


@dataclass(frozen=True)
class ImpactReport:
    """Per-region deltas / impact ratios with a descending ranking."""

    kind: str
    baseline_total: float
    region_ids: tuple[str, ...]
    ranking: tuple[tuple[str, float], ...]
    region_delta: np.ndarray | None = None
    patch_delta: np.ndarray | None = None
    impact_ratio: np.ndarray | None = None   # receivers x sources
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = [v for _, v in self.ranking]
        if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
            raise ShapeMismatch("ranking must be sorted descending")


def _cum_by_patch(traj) -> np.ndarray:
    return traj.new_infections.sum(axis=1)


def _cum_by_region(traj, graph: PatchGraph) -> np.ndarray:
    return aggregate(traj.new_infections, "region", graph).sum(axis=1)


def _cum_state(traj, graph: PatchGraph) -> float:
    return float(aggregate(traj.new_infections, "state", graph).sum())


def regional_beta_reduction(model: FittedModel, graph: PatchGraph, region: str,
                            factor: float = 0.9) -> ImpactReport:
    """Scale one region's transmission rate and report statewide deltas.

    ``region_delta``/``patch_delta`` are scenario minus baseline, so a
    negative entry is a reduction; spillover increases in non-targeted
    sub-populations show up as positive entries (never clamped).
    """
    if region not in graph.region_ids:
        raise UnknownRegion(f"unknown region {region!r}")
    base = model.run(graph)
    alt_params = apply_scenario(model.params, Scenario(beta_multipliers={region: factor}), graph)
    alt = model.run(graph, params=alt_params)
    region_delta = _cum_by_region(alt, graph) - _cum_by_region(base, graph)
    patch_delta = _cum_by_patch(alt) - _cum_by_patch(base)
    baseline_total = _cum_state(base, graph)
    ranking = tuple(sorted(
        ((rid, -float(region_delta[graph.region_index[rid]])) for rid in graph.region_ids),
        key=lambda kv: (-kv[1], kv[0]),
    ))
    return ImpactReport(
        kind="beta-reduction",
        baseline_total=baseline_total,
        region_ids=graph.region_ids,
        ranking=ranking,
        region_delta=region_delta,
        patch_delta=patch_delta,
        details={
            "target": region,
            "factor": factor,
            "state_delta": float(region_delta.sum()),
            "state_reduction": -float(region_delta.sum()),
        },
    )


def _scaled_params(params: DiseaseParams, scale_vec: np.ndarray) -> DiseaseParams:
    existing = params.patch_beta_scale
    if existing is not None:
        vec = np.asarray(existing, dtype=float)
        scale_vec = vec * scale_vec[:, None] if vec.ndim == 2 else vec * scale_vec
    return replace(params, patch_beta_scale=scale_vec)


def _allocation_candidates(graph: PatchGraph, candidates: Sequence[str] | None) -> list[str]:
    """Candidate patches in graph order; every non-general patch by default."""
    if candidates is None:
        candidates = graph.patches_of_category(NON_GENERAL)
    for c in candidates:
        if c not in graph.patch_index:
            raise UnknownRegion(f"unknown candidate patch {c!r}")
    if not candidates:
        raise EmptyCandidates("no candidate patches for allocation")
    return sorted(candidates, key=lambda p: graph.patch_index[p])


def _total_with(model: FittedModel, graph: PatchGraph, scale_vec: np.ndarray) -> float:
    """Cumulative statewide infections with per-patch beta scaled by ``scale_vec``."""
    return _cum_state(model.run(graph, params=_scaled_params(model.params, scale_vec)), graph)


@dataclass(frozen=True)
class GreedyResult:
    selected: tuple[str, ...]
    reductions: np.ndarray        # cumulative reduction after each pick
    evaluations: int
    baseline_total: float


def unit_greedy(model: FittedModel, graph: PatchGraph, budget: int,
                multiplier: float = 0.9,
                candidates: Sequence[str] | None = None) -> GreedyResult:
    """Pick ``budget`` patches one at a time by maximal marginal gain.

    The objective is cumulative statewide new infections over the run;
    each greedy step evaluates every remaining candidate once, so the
    total evaluation count is sum_b (|candidates| - b + 1).  Ties break
    toward the lowest patch index.
    """
    if budget < 1:
        raise ShapeMismatch("budget must be >= 1")
    cands = _allocation_candidates(graph, candidates)
    if budget > len(cands):
        raise ShapeMismatch(f"budget {budget} exceeds {len(cands)} candidates")
    baseline_total = _cum_state(model.run(graph), graph)
    scale = np.ones(graph.n_patches)
    selected: list[str] = []
    reductions: list[float] = []
    evaluations = 0
    remaining = list(cands)
    for _ in range(budget):
        totals = []
        for cand in remaining:
            vec = scale.copy()
            vec[graph.patch_index[cand]] *= multiplier
            totals.append(_total_with(model, graph, vec))
        evaluations += len(remaining)
        best_pos = 0
        for pos in range(1, len(remaining)):
            if totals[pos] < totals[best_pos]:  # strict: earlier (lower index) wins ties
                best_pos = pos
        chosen = remaining.pop(best_pos)
        scale[graph.patch_index[chosen]] *= multiplier
        selected.append(chosen)
        reductions.append(baseline_total - totals[best_pos])
    return GreedyResult(
        selected=tuple(selected),
        reductions=np.array(reductions),
        evaluations=evaluations,
        baseline_total=baseline_total,
    )


@dataclass(frozen=True)
class BruteForceResult:
    selected: tuple[str, ...]
    reduction: float
    evaluations: int
    baseline_total: float


def brute_force_allocation(model: FittedModel, graph: PatchGraph, budget: int,
                           multiplier: float = 0.9,
                           candidates: Sequence[str] | None = None) -> BruteForceResult:
    """Exhaustive search over all size-``budget`` candidate subsets."""
    if budget < 1:
        raise ShapeMismatch("budget must be >= 1")
    cands = _allocation_candidates(graph, candidates)
    baseline_total = _cum_state(model.run(graph), graph)
    best_set: tuple[str, ...] = ()
    best_total = np.inf
    evaluations = 0
    for combo in itertools.combinations(cands, budget):
        vec = np.ones(graph.n_patches)
        for c in combo:
            vec[graph.patch_index[c]] *= multiplier
        total = _total_with(model, graph, vec)
        evaluations += 1
        if total < best_total:
            best_total = total
            best_set = combo
    return BruteForceResult(
        selected=best_set,
        reduction=baseline_total - best_total,
        evaluations=evaluations,
        baseline_total=baseline_total,
    )


def random_allocation_reduction(model: FittedModel, graph: PatchGraph, budget: int,
                                multiplier: float = 0.9,
                                candidates: Sequence[str] | None = None,
                                n_draws: int = 20, seed: int = 0) -> np.ndarray:
    """Reductions of ``n_draws`` random size-``budget`` allocations."""
    from . import seeding

    cands = _allocation_candidates(graph, candidates)
    rng = seeding.spawn_rng(seed, seeding.ANALYSIS, 0)
    baseline_total = _cum_state(model.run(graph), graph)
    out = np.zeros(n_draws)
    for d in range(n_draws):
        picks = rng.choice(len(cands), size=budget, replace=False)
        vec = np.ones(graph.n_patches)
        for k in picks:
            vec[graph.patch_index[cands[k]]] *= multiplier
        out[d] = baseline_total - _total_with(model, graph, vec)
    return out


def sensitivity_scan(model: FittedModel, graph: PatchGraph, bump: float = 1.1) -> ImpactReport:
    """Bump each region's transmission in turn; per-capita impact matrix.

    ``impact_ratio[j, i]`` is the cumulative infection rise in region j
    per region-j resident when region i's beta is scaled by ``bump``.
    Receivers are ranked by their total ratio over external sources.
    """
    if bump <= 1.0:
        raise ShapeMismatch("bump must be > 1")
    base = _cum_by_region(model.run(graph), graph)
    n_regions = graph.n_regions
    region_pop = graph.region_populations()
    ratios = np.zeros((n_regions, n_regions))
    for i, src in enumerate(graph.region_ids):
        alt_params = apply_scenario(model.params, Scenario(beta_multipliers={src: bump}), graph)
        delta = _cum_by_region(model.run(graph, params=alt_params), graph) - base
        ratios[:, i] = delta / region_pop
    received = ratios.sum(axis=1) - np.diag(ratios)
    ranking = tuple(sorted(
        ((rid, float(received[graph.region_index[rid]])) for rid in graph.region_ids),
        key=lambda kv: (-kv[1], kv[0]),
    ))
    return ImpactReport(
        kind="sensitivity",
        baseline_total=float(base.sum()),
        region_ids=graph.region_ids,
        ranking=ranking,
        impact_ratio=ratios,
        details={"bump": bump},
    )


def outbreak_ranking(model: FittedModel, graph: PatchGraph, k: float,
                     candidates: Sequence[str] | None = None,
                     target: str | None = None) -> ImpactReport:
    """Seed ``k`` extra infections per candidate source and rank the impact.

    Without a target the metric is the statewide cumulative-infection
    rise; with ``target`` set it is the rise inside that patch, and the
    candidate set excludes the target itself.
    """
    if k < 0:
        raise NegativeSeed("seed count must be nonnegative")
    if candidates is None:
        candidates = list(graph.patch_ids)
    if target is not None:
        if target not in graph.patch_index:
            raise UnknownRegion(f"unknown target patch {target!r}")
        candidates = [c for c in candidates if c != target]
    cands = sorted(candidates, key=lambda p: graph.patch_index[p])
    base_traj = model.run(graph)
    base_state = _cum_state(base_traj, graph)
    base_metric = (
        base_state if target is None else float(_cum_by_patch(base_traj)[graph.patch_index[target]])
    )

    def delta_for(cand: str) -> float:
        init = seed_outbreak(model.init, cand, k, graph)
        traj = model.run(graph, init=init)
        if target is None:
            return _cum_state(traj, graph) - base_state
        return float(_cum_by_patch(traj)[graph.patch_index[target]]) - base_metric

    deltas = [delta_for(c) for c in cands]

    ranking = tuple(sorted(zip(cands, map(float, deltas)), key=lambda kv: (-kv[1], kv[0])))
    pct = {c: (100.0 * d / base_metric if base_metric > 0 else 0.0) for c, d in zip(cands, deltas)}
    attribution: dict[str, float] = {}
    for c, p in pct.items():
        attribution[graph.region_of[c]] = attribution.get(graph.region_of[c], 0.0) + p
    return ImpactReport(
        kind="outbreak",
        baseline_total=base_state,
        region_ids=graph.region_ids,
        ranking=ranking,
        details={
            "k": k,
            "target": target,
            "percent_of_baseline": pct,
            "region_attribution_percent": attribution,
        },
    )


def corrupt_features(data: DataSet, graph: PatchGraph, patches: Sequence[str],
                     noise_sd: float, seed: int = 0) -> DataSet:
    """Additive Gaussian noise on named patches' feature channels.

    ``noise_sd`` is in normalized units: per channel, the noise scale is
    ``noise_sd`` times that channel's standard deviation over the
    training window; draws are independent per patch, week and channel.
    """
    from . import seeding

    rng = seeding.spawn_rng(seed, seeding.ANALYSIS, 1)
    features = np.array(data.features)
    sd_ch = features[:, : data.window, :].std(axis=(0, 1))
    for pid in patches:
        if pid not in graph.patch_index:
            raise UnknownRegion(f"unknown patch {pid!r}")
        i = graph.patch_index[pid]
        noise = rng.standard_normal(features[i].shape) * (noise_sd * sd_ch)[None, :]
        features[i] = features[i] + noise
    return replace(data, features=features)


@dataclass(frozen=True)
class CorrectionResult:
    order: tuple[str, ...]
    r2_curve: np.ndarray      # length k + 1; entry 0 is the all-noisy baseline
    clean_r2: float
    baseline_r2: float


def _correction_metric(net: CalibNet, dataset: DataSet, clean: DataSet, graph: PatchGraph) -> float:
    """State-level R^2 of the model driven by ``dataset`` features.

    Scores the fit-plus-forecast series (window and horizon together)
    against the clean observations; input noise degrades both the
    calibrated parameter paths and the horizon continuation.
    """
    window, horizon = clean.window, clean.horizon
    if horizon >= 1:
        traj = forecast(net, dataset, graph, horizon)
    else:
        traj = simulate(graph, infer_params(net, dataset, graph), dataset.initial_infections,
                        SimConfig(steps=window))
    span = window + horizon
    pred = aggregate(traj.weekly_series[:, :span], "state", graph)[0]
    obs = aggregate(clean.observed[:, :span], "state", graph)[0]
    return metrics(pred, obs)["r2"]


def _corrected_dataset(noisy_data: DataSet, clean: DataSet, graph: PatchGraph,
                       corrected: Sequence[str]) -> DataSet:
    features = np.array(noisy_data.features)
    for pid in corrected:
        i = graph.patch_index[pid]
        features[i] = clean.features[i]
    return replace(noisy_data, features=features)


def greedy_data_correction(net: CalibNet, clean: DataSet, graph: PatchGraph,
                           noisy_patches: Sequence[str], noise_sd: float, k: int,
                           seed: int = 0, eval_seed: int | None = None,
                           eval_draws: int = 1, retrain: bool = False,
                           retrain_hyper: TrainConfig | None = None) -> CorrectionResult:
    """Greedily restore clean features to the patches that help R^2 most.

    ``net`` is the deployed model; the named patches' live feeds are
    corrupted with ``eval_draws`` independent noise draws starting at
    ``eval_seed`` (default ``seed + 1``) and the reported metric is the
    mean across draws.  Each greedy step corrects the patch maximizing
    the state-level R^2; the selection is nested by construction and
    the curve holds the metric after each correction, ending (at
    ``k = len(noisy_patches)``) exactly at the clean-data value.
    ``retrain=True`` refits the network from scratch per candidate
    dataset instead of re-evaluating the fixed net (slow).
    """
    noisy = sorted(set(noisy_patches), key=lambda p: graph.patch_index[p])
    if k > len(noisy):
        raise KExceedsNoisySet(f"k={k} exceeds {len(noisy)} noisy patches")
    if eval_seed is None:
        eval_seed = seed + 1
    noisy_sets = [corrupt_features(clean, graph, noisy, noise_sd, seed=eval_seed + d)
                  for d in range(max(1, eval_draws))]

    def eval_net_for(dataset: DataSet) -> CalibNet:
        if not retrain:
            return net
        hyper = retrain_hyper or TrainConfig(epochs=50)
        return train_joint(
            CalibNet(dataset.features.shape[2], bounds=net.bounds, config=net.config, seed=net.seed),
            dataset, graph, hyper,
        ).net

    def evaluate(corrected: Sequence[str]) -> float:
        vals = []
        for ns in noisy_sets:
            ds = _corrected_dataset(ns, clean, graph, corrected)
            vals.append(_correction_metric(eval_net_for(ds), ds, clean, graph))
        return float(np.mean(vals))

    corrected: list[str] = []
    curve = [evaluate([])]
    remaining = list(noisy)
    for _ in range(k):
        scores = [evaluate(corrected + [cand]) for cand in remaining]
        best_pos = 0
        for pos in range(1, len(remaining)):
            if scores[pos] > scores[best_pos]:
                best_pos = pos
        corrected.append(remaining.pop(best_pos))
        curve.append(scores[best_pos])
    return CorrectionResult(
        order=tuple(corrected),
        r2_curve=np.array(curve),
        clean_r2=evaluate(noisy),
        baseline_r2=curve[0],
    )


def random_order_correction_curves(net: CalibNet, clean: DataSet, graph: PatchGraph,
                                   noisy_patches: Sequence[str], noise_sd: float,
                                   n_orders: int = 10, seed: int = 0,
                                   eval_seed: int | None = None,
                                   eval_draws: int = 1) -> np.ndarray:
    """Correction curves for random patch orders (rows: one per order)."""
    from . import seeding

    noisy = sorted(set(noisy_patches), key=lambda p: graph.patch_index[p])
    if eval_seed is None:
        eval_seed = seed + 1
    noisy_sets = [corrupt_features(clean, graph, noisy, noise_sd, seed=eval_seed + d)
                  for d in range(max(1, eval_draws))]
    rng = seeding.spawn_rng(seed, seeding.ANALYSIS, 2)
    curves = np.zeros((n_orders, len(noisy) + 1))
    for d in range(n_orders):
        order = [noisy[j] for j in rng.permutation(len(noisy))]
        for kk in range(len(noisy) + 1):
            vals = [
                _correction_metric(net, _corrected_dataset(ns, clean, graph, order[:kk]), clean, graph)
                for ns in noisy_sets
            ]
            curves[d, kk] = float(np.mean(vals))
    return curves
