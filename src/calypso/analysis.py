"""Counterfactual and optimization analyses on a fitted model.

Every operation re-simulates under a perturbed configuration and
compares cumulative new infections against the unperturbed baseline;
nothing here mutates the fitted parameters.  A transmission
counterfactual is one per-patch beta multiplier; an outbreak adds seeds
to the initial infections.

The regional reduction, the sensitivity scan, outbreak ranking and
random allocation know all their scenarios up front, so each scores them
in one batched run, ``FittedModel.totals``, with the baseline as column 0
of the same batch.  Greedy and brute-force allocation call
``FittedModel.run`` once per evaluated scenario; selection happens after
all candidates of a step are scored, so results do not depend on
evaluation order.  A model builds the simulator's week coefficients once
per graph, and every run and batch on that graph reuses them.  A patch
list (allocation candidates, outbreak sources, noisy feeds) counts each
distinct id once, in graph order.  Data correction scores a feature set
by one ``simulate`` over the window and the horizon; its noise draw d is
seeded ``seed + 1 + d``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import seeding
from .calib import CalibNet, TrainConfig, infer_params, train_joint
from .core import (
    NON_GENERAL,
    DataSet,
    DiseaseParams,
    PatchGraph,
    aggregate,
    check_option,
    metrics,
)
from .errors import (
    EmptyCandidates,
    KExceedsNoisySet,
    ShapeMismatch,
    UnknownRegion,
)
from .sim import SimConfig, patch_coefficients, plain_totals, plain_trajectory, seed_outbreak, simulate


@dataclass(frozen=True)
class FittedModel:
    """Frozen parameters + initial conditions used by the analyses.

    The simulator's per-week coefficients are built once for the graph a
    model last ran on and reused while it runs on that same graph; a model
    made with ``dataclasses.replace`` starts without them.
    """

    params: DiseaseParams
    init: np.ndarray
    steps: int
    _memo: list = field(default_factory=list, init=False, repr=False, compare=False)

    @staticmethod
    def from_calibration(net: CalibNet, data: DataSet, graph: PatchGraph) -> "FittedModel":
        return FittedModel(
            params=infer_params(net, data, graph),
            init=np.asarray(data.initial_infections, dtype=float),
            steps=data.window,
        )

    def _coefficients(self, graph: PatchGraph) -> tuple:
        """``patch_coefficients`` of this model on ``graph``, built on the first
        run there and kept until the model runs on another graph."""
        memo = self._memo
        if not memo or memo[0] is not graph or memo[1] is not self.params:
            memo[:] = (graph, self.params, patch_coefficients(graph, self.params, self.steps))
        return memo[2]

    def run(self, graph: PatchGraph, beta_scale: np.ndarray | None = None,
            init: np.ndarray | None = None):
        """Simulate the fitted model; ``beta_scale`` (one multiplier per patch)
        scales transmission and ``init`` replaces the initial infections."""
        return plain_trajectory(graph, self._coefficients(graph), self.init if init is None else init,
                                beta_scale)

    def totals(self, graph: PatchGraph, beta_scale: np.ndarray | None = None,
               init: np.ndarray | None = None) -> np.ndarray:
        """Cumulative new infections per patch, one column per scenario, from
        one batched call; ``beta_scale`` and ``init`` are patches x scenarios
        (``init`` defaults to the fitted initial infections in every column)."""
        return plain_totals(graph, self._coefficients(graph), self.init if init is None else init,
                            beta_scale)


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
    check_option("factor", factor, 0, strict=True)
    scale = np.ones((graph.n_patches, 2))
    scale[graph.patch_region == graph.region_index[region], 1] = factor
    patch_totals = model.totals(graph, scale)
    region_totals = aggregate(patch_totals, "region", graph)
    region_delta = region_totals[:, 1] - region_totals[:, 0]
    patch_delta = patch_totals[:, 1] - patch_totals[:, 0]
    baseline_total = float(region_totals[:, 0].sum())
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


def _distinct_patches(graph: PatchGraph, ids: Sequence[str], what: str) -> list[str]:
    """The distinct ``ids`` in graph order; an unknown one raises ``UnknownRegion``."""
    for pid in ids:
        if pid not in graph.patch_index:
            raise UnknownRegion(f"unknown {what} patch {pid!r}")
    return sorted(set(ids), key=graph.patch_index.__getitem__)


def _allocation_candidates(graph: PatchGraph, candidates: Sequence[str] | None,
                           budget: int, multiplier: float) -> list[str]:
    """The distinct candidate patches in graph order; every non-general patch by default.

    Refuses, before any simulation, a multiplier that is not finite and
    > 0 and a budget outside 1 .. the number of distinct candidates.
    """
    check_option("multiplier", multiplier, 0, strict=True)
    check_option("budget", budget, 1)
    if candidates is None:
        candidates = graph.patches_of_category(NON_GENERAL)
    candidates = _distinct_patches(graph, candidates, "candidate")
    if not candidates:
        raise EmptyCandidates("no candidate patches for allocation")
    if budget > len(candidates):
        raise ShapeMismatch(f"budget {budget} exceeds {len(candidates)} candidates")
    return candidates


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
    cands = _allocation_candidates(graph, candidates, budget, multiplier)
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
            totals.append(_cum_state(model.run(graph, vec), graph))
        evaluations += len(remaining)
        best_pos = min(range(len(remaining)), key=totals.__getitem__)  # earliest wins ties
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
    cands = _allocation_candidates(graph, candidates, budget, multiplier)
    baseline_total = _cum_state(model.run(graph), graph)
    best_set: tuple[str, ...] = ()
    best_total = np.inf
    evaluations = 0
    for combo in itertools.combinations(cands, budget):
        vec = np.ones(graph.n_patches)
        for c in combo:
            vec[graph.patch_index[c]] *= multiplier
        total = _cum_state(model.run(graph, vec), graph)
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
    cands = _allocation_candidates(graph, candidates, budget, multiplier)
    rng = seeding.spawn_rng(seed, seeding.ANALYSIS, 0)
    scale = np.ones((graph.n_patches, 1 + n_draws))
    for d in range(n_draws):
        picks = rng.choice(len(cands), size=budget, replace=False)
        for k in picks:
            scale[graph.patch_index[cands[k]], 1 + d] *= multiplier
    state_totals = aggregate(model.totals(graph, scale), "state", graph)[0]
    return state_totals[0] - state_totals[1:]


def sensitivity_scan(model: FittedModel, graph: PatchGraph, bump: float = 1.1) -> ImpactReport:
    """Bump each region's transmission in turn; per-capita impact matrix.

    ``impact_ratio[j, i]`` is the cumulative infection rise in region j
    per region-j resident when region i's beta is scaled by ``bump``.
    Receivers are ranked by their total ratio over external sources.
    """
    check_option("bump", bump, 1, strict=True)
    scale = np.ones((graph.n_patches, 1 + graph.n_regions))
    scale[:, 1:] = np.where(graph.patch_region[:, None] == np.arange(graph.n_regions), bump, 1.0)
    region_totals = aggregate(model.totals(graph, scale), "region", graph)
    base = region_totals[:, 0]
    ratios = (region_totals[:, 1:] - base[:, None]) / graph.region_populations()[:, None]
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
    candidate set excludes the target itself.  Each distinct candidate is
    scored once, all of them in one batched run with the baseline.
    """
    check_option("seed count", k, 0)
    cands = _distinct_patches(graph, graph.patch_ids if candidates is None else candidates, "candidate")
    if target is not None:
        if target not in graph.patch_index:
            raise UnknownRegion(f"unknown target patch {target!r}")
        cands = [c for c in cands if c != target]
    if not cands:
        raise EmptyCandidates("no candidate outbreak sources")
    init = np.empty((graph.n_patches, 1 + len(cands)))
    init[:, 0] = model.init
    for j, c in enumerate(cands, start=1):
        init[:, j] = seed_outbreak(model.init, c, k, graph)
    patch_totals = model.totals(graph, init=init)
    state_totals = aggregate(patch_totals, "state", graph)[0]
    base_state = float(state_totals[0])
    metric = state_totals if target is None else patch_totals[graph.patch_index[target]]
    base_metric = float(metric[0])
    deltas = (metric[1:] - metric[0]).tolist()

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


def check_noisy_patches(graph: PatchGraph, noisy_patches: Sequence[str], k: int) -> list[str]:
    """The distinct noisy patches in graph order.

    Refuses an unknown patch and a ``k`` above the number of noisy
    patches, so a caller can check before it trains anything.
    """
    noisy = _distinct_patches(graph, noisy_patches, "noisy")
    if k > len(noisy):
        raise KExceedsNoisySet(f"k={k} exceeds {len(noisy)} noisy patches")
    return noisy


def corrupt_features(data: DataSet, graph: PatchGraph, patches: Sequence[str],
                     noise_sd: float, seed: int = 0) -> DataSet:
    """Additive Gaussian noise on named patches' feature channels.

    ``noise_sd`` is in normalized units: per channel, the noise scale is
    ``noise_sd`` times that channel's standard deviation over the
    training window; draws are independent per patch, week and channel.
    """
    check_option("noise_sd", noise_sd, 0)
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

    Scores the fit-plus-forecast series (window and horizon together, the
    parameters beyond the window holding the last inferred week's values)
    against the clean observations; input noise degrades both the
    calibrated parameter paths and the horizon continuation.
    """
    span = clean.window + clean.horizon
    params = infer_params(net, dataset, graph).extended(clean.horizon)
    traj = simulate(graph, params, dataset.initial_infections, SimConfig(steps=span))
    pred = aggregate(traj.weekly_series, "state", graph)[0]
    obs = aggregate(clean.observed[:, :span], "state", graph)[0]
    return metrics(pred, obs)["r2"]


def _corrected_dataset(noisy_data: DataSet, clean: DataSet, graph: PatchGraph,
                       corrected: Sequence[str]) -> DataSet:
    features = np.array(noisy_data.features)
    for pid in corrected:
        i = graph.patch_index[pid]
        features[i] = clean.features[i]
    return replace(noisy_data, features=features)


def _mean_r2_scorer(net_for, clean: DataSet, graph: PatchGraph, noisy: Sequence[str],
                    noise_sd: float, seed: int, eval_draws: int):
    """``score(corrected)``: the state R^2 averaged over ``eval_draws``
    noisy feature sets, each with the ``corrected`` patches restored.

    Draw d corrupts the ``noisy`` patches with seed ``seed + 1 + d``;
    ``net_for(dataset)`` is the net scored on that dataset.  Refuses
    ``eval_draws`` below 1.
    """
    check_option("eval_draws", eval_draws, 1)
    noisy_sets = [corrupt_features(clean, graph, noisy, noise_sd, seed=seed + 1 + d)
                  for d in range(eval_draws)]

    def score(corrected: Sequence[str]) -> float:
        vals = []
        for ns in noisy_sets:
            ds = _corrected_dataset(ns, clean, graph, corrected)
            vals.append(_correction_metric(net_for(ds), ds, clean, graph))
        return float(np.mean(vals))

    return score


def greedy_data_correction(net: CalibNet, clean: DataSet, graph: PatchGraph,
                           noisy_patches: Sequence[str], noise_sd: float, k: int,
                           seed: int = 0, eval_draws: int = 1,
                           retrain: TrainConfig | None = None) -> CorrectionResult:
    """Greedily restore clean features to the patches that help R^2 most.

    ``net`` is the deployed model; the named patches' live feeds are
    corrupted with ``eval_draws`` independent noise draws seeded
    ``seed + 1`` on, and the reported metric is the mean across draws.
    Each greedy step corrects the patch maximizing the state-level R^2;
    the selection is nested by construction and the curve holds the
    metric after each correction, ending (at ``k = len(noisy_patches)``)
    exactly at the clean-data value.  With ``retrain`` set, the network
    is refit from scratch with it per candidate dataset instead of
    re-evaluating the fixed net (slow).
    """
    noisy = check_noisy_patches(graph, noisy_patches, k)

    def eval_net_for(dataset: DataSet) -> CalibNet:
        if retrain is None:
            return net
        return train_joint(
            CalibNet(dataset.features.shape[2], bounds=net.bounds, config=net.config, seed=net.seed),
            dataset, graph, retrain,
        ).net

    evaluate = _mean_r2_scorer(eval_net_for, clean, graph, noisy, noise_sd, seed, eval_draws)
    corrected: list[str] = []
    curve = [evaluate([])]
    remaining = list(noisy)
    for _ in range(k):
        scores = [evaluate(corrected + [cand]) for cand in remaining]
        best_pos = max(range(len(remaining)), key=scores.__getitem__)  # earliest wins ties
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
                                   eval_draws: int = 1) -> np.ndarray:
    """Correction curves for random patch orders (rows: one per order)."""
    noisy = check_noisy_patches(graph, noisy_patches, 0)
    evaluate = _mean_r2_scorer(lambda ds: net, clean, graph, noisy, noise_sd, seed, eval_draws)
    rng = seeding.spawn_rng(seed, seeding.ANALYSIS, 2)
    curves = np.zeros((n_orders, len(noisy) + 1))
    for d in range(n_orders):
        order = [noisy[j] for j in rng.permutation(len(noisy))]
        for kk in range(len(noisy) + 1):
            curves[d, kk] = evaluate(order[:kk])
    return curves
