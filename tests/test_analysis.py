import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from calypso import analysis, calib, synth
from calypso.analysis import (
    FittedModel,
    brute_force_allocation,
    corrupt_features,
    greedy_data_correction,
    outbreak_ranking,
    random_allocation_reduction,
    regional_beta_reduction,
    sensitivity_scan,
    unit_greedy,
)
from calypso.core import DiseaseParams, PatchGraph, aggregate, build_travel_matrix
from calypso.errors import (
    EmptyCandidates,
    InvalidOption,
    KExceedsNoisySet,
    SeedExceedsPopulation,
    ShapeMismatch,
    UnknownRegion,
)
from calypso.sim import SimConfig, patch_coefficients, plain_totals, simulate


@pytest.fixture(scope="module")
def bundle():
    return synth.generate(synth.SynthSpec(n_patches=12, n_regions=3, weeks=40, horizon=4, seed=2))


@pytest.fixture(scope="module")
def model(bundle):
    params = DiseaseParams(
        region_ids=bundle.params.region_ids,
        **{n: getattr(bundle.params, n)[:, : bundle.data.window] for n in
           ("beta", "gamma", "delta", "kappa", "epsilon")},
    )
    return FittedModel(params=params, init=bundle.data.initial_infections,
                       steps=bundle.data.window)


@pytest.fixture
def no_simulation(monkeypatch):
    """Make any simulation fail, so a test sees that a refusal came first."""
    def simulate(*args, **kwargs):
        raise AssertionError("simulated before refusing the input")

    for name in ("simulate", "plain_trajectory", "plain_totals"):
        monkeypatch.setattr(analysis, name, simulate)


def with_region_row_scaled(model, region, factor):
    """``model`` with one region's beta row scaled by ``factor``.

    The direct way to run a regional intervention, and the oracle for the
    per-patch ``beta_scale`` the analyses build: one ``simulate`` of each
    gives the same numbers, bit for bit.  A report scored in a batched run
    matches the oracle to rounding (1e-9 relative).
    """
    beta = model.params.beta.copy()
    beta[model.params.region_ids.index(region)] *= factor
    return dataclasses.replace(model, params=dataclasses.replace(model.params, beta=beta))


def cum_by_region(traj, graph):
    return aggregate(traj.new_infections, "region", graph).sum(axis=1)


def params_checksum(params):
    h = hashlib.sha256()
    for name in ("beta", "gamma", "delta", "kappa", "epsilon"):
        h.update(getattr(params, name).tobytes())
    return h.hexdigest()


def two_region_model(beta_a=0.9, beta_b=0.4, steps=40):
    """Region A carries a much stronger infection force than region B."""
    pops = {"A-G": 8000.0, "A-N": 1500.0, "B-G": 9000.0, "B-N": 1200.0}
    commute = {("B-G", "A-G"): 0.15 * pops["B-G"], ("A-G", "B-G"): 0.05 * pops["A-G"]}
    facility = {("A-G", "A-N"): 0.08 * pops["A-G"], ("B-G", "B-N"): 0.04 * pops["B-G"]}
    theta = build_travel_matrix(commute, facility, pops)
    graph = PatchGraph(pops, {"A-G": "A", "A-N": "A", "B-G": "B", "B-N": "B"},
                       {"A-G": "general", "A-N": "non-general",
                        "B-G": "general", "B-N": "non-general"}, theta)
    params = DiseaseParams(
        region_ids=graph.region_ids,
        beta=np.tile([[beta_a], [beta_b]], (1, steps)),
        gamma=np.full((2, steps), 0.3),
        delta=np.full((2, steps), 0.05),
        kappa=np.zeros((2, steps)),
        epsilon=np.ones((2, steps)),
    )
    init = np.array([0.01 * pops["A-G"], 0.01 * pops["A-N"],
                     0.01 * pops["B-G"], 0.01 * pops["B-N"]])
    return graph, FittedModel(params=params, init=init, steps=steps)


def spillover_model():
    """Seasonal two-region system where reducing A raises B's healthcare patch.

    Region B's transmission sits near its re-ignition threshold; reducing
    region A's rate leaves extra susceptibles in B whose later seasonal
    wave overshoots the baseline in the B-N facility patch.
    """
    steps = 36
    pops = {"A-G": 8000.0, "A-N": 1500.0, "B-G": 9000.0, "B-N": 1200.0}
    commute = {("B-G", "A-G"): 0.04 * pops["B-G"], ("A-G", "B-G"): 0.03 * pops["A-G"]}
    facility = {("B-G", "A-N"): 0.05 * pops["B-G"], ("A-G", "A-N"): 0.08 * pops["A-G"],
                ("B-G", "B-N"): 0.06 * pops["B-G"]}
    theta = build_travel_matrix(commute, facility, pops)
    graph = PatchGraph(pops, {"A-G": "A", "A-N": "A", "B-G": "B", "B-N": "B"},
                       {"A-G": "general", "A-N": "non-general",
                        "B-G": "general", "B-N": "non-general"}, theta)
    t = np.arange(steps)
    params = DiseaseParams(
        region_ids=graph.region_ids,
        beta=np.clip(np.stack([np.full(steps, 0.9),
                               0.58 + 0.42 * np.sin(2 * np.pi * t / 52)]), 0, 1),
        gamma=np.full((2, steps), 0.3),
        delta=np.full((2, steps), 0.03),
        kappa=np.zeros((2, steps)),
        epsilon=np.ones((2, steps)),
    )
    init = np.array([0.02 * pops["A-G"], 0.02 * pops["A-N"],
                     0.01 * pops["B-G"], 0.01 * pops["B-N"]])
    return graph, FittedModel(params=params, init=init, steps=steps)


def same_trajectory(a, b):
    return all(getattr(a, f).tobytes() == getattr(b, f).tobytes()
               for f in ("S", "I", "R", "new_infections"))


def traced_peak_mib(fn) -> float:
    """Peak of ``tracemalloc``'s traced memory while ``fn()`` runs, above its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - start) / 2**20
    finally:
        tracemalloc.stop()


class TestFittedModel:
    """A model keeps the simulator's coefficients for the graph it last ran on;
    no run may see coefficients of another graph or of other parameters."""

    def test_run_on_another_graph_equals_a_fresh_simulate(self):
        graph_a, model = two_region_model()
        # the same patches and flows with A-N and B-N swapped between regions
        graph_b = PatchGraph(dict(zip(graph_a.patch_ids, graph_a.populations)),
                             {"A-G": "A", "A-N": "B", "B-G": "B", "B-N": "A"},
                             dict(graph_a.category_of), graph_a.theta)
        assert graph_b.region_ids == graph_a.region_ids
        assert not np.array_equal(graph_b.patch_region, graph_a.patch_region)
        config = SimConfig(steps=model.steps)
        scale = np.array([0.9, 1.0, 0.8, 1.0])
        for graph in (graph_a, graph_b, graph_a):
            fresh = simulate(graph, model.params, model.init, config, beta_scale=scale)
            assert same_trajectory(model.run(graph, scale), fresh)
            totals = plain_totals(graph, patch_coefficients(graph, model.params, model.steps), model.init,
                                  beta_scale=scale[:, None])
            assert model.totals(graph, scale[:, None]).tobytes() == totals.tobytes()

    def test_replaced_params_equal_a_fresh_simulate(self):
        graph, model = two_region_model()
        model.run(graph)
        changed = with_region_row_scaled(model, "A", 0.5)
        fresh = simulate(graph, changed.params, model.init, SimConfig(steps=model.steps))
        assert same_trajectory(changed.run(graph), fresh)
        assert not same_trajectory(model.run(graph), fresh)

    def test_memory_at_county_scale(self):
        """At 240 patches one run and one 241-column batch, each on a new
        model (so building its coefficients counts), stay within a bound."""
        b = synth.generate(synth.SynthSpec(n_patches=240, n_regions=40, weeks=120, horizon=4, seed=1))
        window = b.data.window
        params = DiseaseParams(region_ids=b.params.region_ids,
                               **{n: getattr(b.params, n)[:, :window] for n in
                                  ("beta", "gamma", "delta", "kappa", "epsilon")})

        def new_model():
            return FittedModel(params=params, init=b.data.initial_infections, steps=window)

        run, batch, scale = new_model(), new_model(), np.ones((240, 241))
        assert traced_peak_mib(lambda: run.run(b.graph)) < 3.5
        assert traced_peak_mib(lambda: batch.totals(b.graph, scale)) < 4.5


class TestRegionalBetaReduction:
    def test_factor_one_gives_zero_deltas(self, bundle, model):
        report = regional_beta_reduction(model, bundle.graph, bundle.graph.region_ids[0], factor=1.0)
        assert np.allclose(report.region_delta, 0.0)
        assert np.allclose(report.patch_delta, 0.0)

    def test_high_force_region_dominates(self):
        graph, model = two_region_model()
        red_a = regional_beta_reduction(model, graph, "A").details["state_reduction"]
        red_b = regional_beta_reduction(model, graph, "B").details["state_reduction"]
        assert red_a > red_b > 0

    def test_spillover_not_clamped(self):
        graph, model = spillover_model()
        report = regional_beta_reduction(model, graph, "A", factor=0.5)
        assert report.details["state_delta"] < 0
        bn = graph.patch_index["B-N"]
        assert report.patch_delta[bn] > 0

    @pytest.mark.parametrize("factor", [0.9, 0.37, 1.6])
    def test_region_vector_matches_scaled_region_row(self, bundle, model, factor):
        graph = bundle.graph
        base = model.run(graph)
        for r, region in enumerate(graph.region_ids):
            oracle = with_region_row_scaled(model, region, factor).run(graph)
            vector = model.run(graph, np.where(graph.patch_region == r, factor, 1.0))
            for name in ("S", "I", "R", "new_infections"):
                assert np.array_equal(getattr(vector, name), getattr(oracle, name)), name
            report = regional_beta_reduction(model, graph, region, factor)
            np.testing.assert_allclose(
                report.region_delta, cum_by_region(oracle, graph) - cum_by_region(base, graph), rtol=1e-9)
            np.testing.assert_allclose(
                report.patch_delta, oracle.new_infections.sum(axis=1) - base.new_infections.sum(axis=1),
                rtol=1e-9)

    @pytest.mark.parametrize("factor", [0.0, -1.0, np.nan, np.inf])
    def test_bad_factor_refused_before_simulating(self, bundle, model, no_simulation, factor):
        with pytest.raises(InvalidOption, match="factor must be finite and > 0"):
            regional_beta_reduction(model, bundle.graph, bundle.graph.region_ids[0], factor)

    def test_unknown_region(self, bundle, model):
        with pytest.raises(UnknownRegion):
            regional_beta_reduction(model, bundle.graph, "XX")

    def test_model_params_not_mutated(self, bundle, model):
        before = params_checksum(model.params)
        regional_beta_reduction(model, bundle.graph, bundle.graph.region_ids[0])
        assert params_checksum(model.params) == before


class TestUnitGreedy:
    def test_budget_one_matches_brute_force(self, bundle, model):
        greedy = unit_greedy(model, bundle.graph, budget=1)
        brute = brute_force_allocation(model, bundle.graph, budget=1)
        assert greedy.selected[0] == brute.selected[0]
        assert greedy.reductions[-1] == pytest.approx(brute.reduction)

    def test_evaluation_count_formula(self, bundle, model):
        candidates = bundle.graph.patches_of_category("non-general")
        n = len(candidates)
        for budget in (1, 2, 3):
            result = unit_greedy(model, bundle.graph, budget=budget)
            assert result.evaluations == sum(n - b for b in range(budget))

    def test_b2_near_optimal_on_ten_candidates(self, bundle, model):
        candidates = bundle.graph.patch_ids[:10]
        greedy = unit_greedy(model, bundle.graph, budget=2, candidates=candidates)
        brute = brute_force_allocation(model, bundle.graph, budget=2, candidates=candidates)
        assert brute.evaluations == 45
        assert greedy.evaluations == 19
        assert greedy.reductions[-1] >= 0.9 * brute.reduction

    def test_beats_mean_random_allocation(self, bundle, model):
        greedy = unit_greedy(model, bundle.graph, budget=3)
        random_reductions = random_allocation_reduction(model, bundle.graph, budget=3,
                                                        n_draws=10, seed=0)
        assert greedy.reductions[-1] > random_reductions.mean()

    def test_random_reductions_match_one_simulation_per_draw(self, bundle, model):
        from calypso import seeding

        graph = bundle.graph
        cands = graph.patches_of_category("non-general")
        reductions = random_allocation_reduction(model, graph, budget=2, n_draws=6, seed=4)
        rng = seeding.spawn_rng(4, seeding.ANALYSIS, 0)
        base = model.run(graph).new_infections.sum()
        for red in reductions:
            scale = np.ones(graph.n_patches)
            for k in rng.choice(len(cands), size=2, replace=False):
                scale[graph.patch_index[cands[k]]] *= 0.9
            assert red == pytest.approx(base - model.run(graph, scale).new_infections.sum(), rel=1e-9)

    def test_reduction_monotone_in_budget(self, bundle, model):
        result = unit_greedy(model, bundle.graph, budget=4)
        assert np.all(np.diff(result.reductions) >= -1e-9)

    def test_ties_break_to_lowest_patch_index(self):
        # two identical decoupled patches: the first must be chosen
        pops = {"a": 1000.0, "b": 1000.0}
        graph = PatchGraph(pops, {"a": "r", "b": "r"},
                           {"a": "non-general", "b": "non-general"}, np.eye(2))
        params = DiseaseParams.constant(graph.region_ids, 10, beta=0.5, gamma=0.3,
                                        delta=0.05, kappa=0.0, epsilon=1.0)
        model = FittedModel(params=params, init=np.array([10.0, 10.0]), steps=10)
        result = unit_greedy(model, graph, budget=1)
        assert result.selected == ("a",)

    def test_empty_candidates(self, bundle, model):
        with pytest.raises(EmptyCandidates):
            unit_greedy(model, bundle.graph, budget=1, candidates=[])

    @pytest.mark.parametrize("allocate", [unit_greedy, brute_force_allocation,
                                          random_allocation_reduction])
    @pytest.mark.parametrize("multiplier", [-1.0, 0.0, np.nan, np.inf])
    def test_bad_multiplier_refused_before_simulating(self, bundle, model, no_simulation,
                                                       allocate, multiplier):
        with pytest.raises(InvalidOption, match="multiplier must be finite and > 0"):
            allocate(model, bundle.graph, 2, multiplier=multiplier)

    @pytest.mark.parametrize("allocate", [unit_greedy, brute_force_allocation,
                                          random_allocation_reduction])
    @pytest.mark.parametrize("budget, message", [(0, "budget must be finite and >= 1"),
                                                 (100, "budget 100 exceeds 3 candidates")])
    def test_bad_budget_refused_before_simulating(self, bundle, model, no_simulation,
                                                   allocate, budget, message):
        candidates = bundle.graph.patch_ids[:3]
        with pytest.raises(InvalidOption if budget < 1 else ShapeMismatch, match=message):
            allocate(model, bundle.graph, budget, candidates=candidates)

    def test_unknown_candidate_rejected(self, bundle, model):
        for allocate in (unit_greedy, brute_force_allocation):
            with pytest.raises(UnknownRegion):
                allocate(model, bundle.graph, budget=1, candidates=["nope"])


class TestSensitivity:
    def test_isolated_region_has_zero_external_impact(self):
        # block-diagonal travel: bumping one region never reaches the other
        pops = {"a": 1000.0, "b": 800.0}
        graph = PatchGraph(pops, {"a": "r0", "b": "r1"},
                           {"a": "general", "b": "general"}, np.eye(2))
        params = DiseaseParams.constant(graph.region_ids, 20, beta=0.5, gamma=0.3,
                                        delta=0.05, kappa=0.0, epsilon=1.0)
        model = FittedModel(params=params, init=np.array([10.0, 8.0]), steps=20)
        report = sensitivity_scan(model, graph, bump=1.2)
        off_diag = report.impact_ratio - np.diag(np.diag(report.impact_ratio))
        assert np.allclose(off_diag, 0.0, atol=1e-12)

    def test_ratios_nonnegative(self, bundle, model):
        report = sensitivity_scan(model, bundle.graph, bump=1.1)
        assert np.all(report.impact_ratio >= -1e-9)

    def test_self_ratio_largest_in_isolated_dominant_fixture(self):
        pops = {"a": 1000.0, "b": 800.0, "c": 900.0}
        graph = PatchGraph(pops, {"a": "r0", "b": "r1", "c": "r2"},
                           {p: "general" for p in pops}, np.eye(3))
        params = DiseaseParams.constant(graph.region_ids, 20, beta=0.5, gamma=0.3,
                                        delta=0.05, kappa=0.0, epsilon=1.0)
        model = FittedModel(params=params, init=np.array([10.0, 8.0, 9.0]), steps=20)
        report = sensitivity_scan(model, graph, bump=1.2)
        for i in range(3):
            col = report.impact_ratio[:, i]
            assert col[i] == col.max() > 0

    def test_bump_must_exceed_one(self, bundle, model):
        with pytest.raises(InvalidOption):
            sensitivity_scan(model, bundle.graph, bump=0.9)

    @pytest.mark.parametrize("bump", [1.0, np.nan, np.inf])
    def test_bad_bump_refused_before_simulating(self, bundle, model, no_simulation, bump):
        with pytest.raises(InvalidOption, match="bump must be finite and > 1"):
            sensitivity_scan(model, bundle.graph, bump=bump)

    def test_region_vector_matches_scaled_region_row(self, bundle, model):
        graph = bundle.graph
        report = sensitivity_scan(model, graph, bump=1.3)
        base = cum_by_region(model.run(graph), graph)
        for i, src in enumerate(graph.region_ids):
            alt = cum_by_region(with_region_row_scaled(model, src, 1.3).run(graph), graph)
            np.testing.assert_allclose(report.impact_ratio[:, i], (alt - base) / graph.region_populations(),
                                       rtol=1e-9)

    def test_ranking_sorted_descending(self, bundle, model):
        report = sensitivity_scan(model, bundle.graph, bump=1.1)
        vals = [v for _, v in report.ranking]
        assert vals == sorted(vals, reverse=True)


class TestOutbreakRanking:
    def test_zero_seed_gives_zero_deltas(self, bundle, model):
        report = outbreak_ranking(model, bundle.graph, k=0.0)
        assert all(v == pytest.approx(0.0) for _, v in report.ranking)

    def test_largest_population_outflow_source_ranks_first(self):
        # sources feeding a shared hub: a has the larger population and outflow
        pops = {"a": 10000.0, "b": 3000.0, "h": 6000.0}
        commute = {("a", "h"): 0.25 * pops["a"], ("b", "h"): 0.05 * pops["b"],
                   ("h", "a"): 0.05 * pops["h"], ("h", "b"): 0.02 * pops["h"]}
        theta = build_travel_matrix(commute, {}, pops)
        graph = PatchGraph(pops, {"a": "r0", "b": "r1", "h": "r2"},
                           {p: "general" for p in pops}, theta)
        params = DiseaseParams.constant(graph.region_ids, 30, beta=0.45, gamma=0.3,
                                        delta=0.05, kappa=0.0, epsilon=1.0)
        model = FittedModel(params=params, init=np.array([5.0, 5.0, 5.0]), steps=30)
        report = outbreak_ranking(model, graph, k=50.0, candidates=["a", "b"])
        assert report.ranking[0][0] == "a"

    def test_order_invariance(self, bundle, model):
        ids = list(bundle.graph.patch_ids[:6])
        fwd = outbreak_ranking(model, bundle.graph, k=10.0, candidates=ids)
        rev = outbreak_ranking(model, bundle.graph, k=10.0, candidates=ids[::-1])
        assert fwd.ranking == rev.ranking

    def test_target_mode_excludes_target(self, bundle, model):
        target = bundle.graph.patch_ids[0]
        report = outbreak_ranking(model, bundle.graph, k=10.0, target=target)
        assert all(pid != target for pid, _ in report.ranking)
        assert report.details["target"] == target

    def test_seed_exceeding_population_rejected(self, bundle, model):
        smallest = bundle.graph.patch_ids[int(np.argmin(bundle.graph.populations))]
        too_many = float(bundle.graph.populations.min()) + 1.0
        with pytest.raises(SeedExceedsPopulation):
            outbreak_ranking(model, bundle.graph, k=too_many, candidates=[smallest])

    @pytest.mark.parametrize("k", [np.nan, np.inf])
    def test_non_finite_seed_refused_before_simulating(self, bundle, model, no_simulation, k):
        with pytest.raises(InvalidOption, match="seed count must be finite"):
            outbreak_ranking(model, bundle.graph, k)

    @pytest.mark.parametrize("candidates, error, message", [
        (["nope"], UnknownRegion, "unknown candidate patch 'nope'"),
        ([], EmptyCandidates, "no candidate outbreak sources"),
    ], ids=["unknown", "empty"])
    def test_bad_candidates_refused_before_simulating(self, bundle, model, no_simulation,
                                                      candidates, error, message):
        with pytest.raises(error, match=message):
            outbreak_ranking(model, bundle.graph, 10.0, candidates=candidates)

    def test_duplicate_candidate_scored_once(self, bundle, model, monkeypatch):
        ids = list(bundle.graph.patch_ids[:4])
        once = outbreak_ranking(model, bundle.graph, k=10.0, candidates=ids)
        widths = []
        totals = FittedModel.totals

        def counting(self, graph, beta_scale=None, init=None):
            widths.append(init.shape[1])
            return totals(self, graph, beta_scale, init)

        monkeypatch.setattr(FittedModel, "totals", counting)
        twice = outbreak_ranking(model, bundle.graph, k=10.0, candidates=ids + ids[1:3])
        assert twice.ranking == once.ranking
        assert widths == [1 + len(ids)]

    def test_deltas_match_one_simulation_per_source(self, bundle, model):
        graph = bundle.graph
        base = model.run(graph).new_infections.sum()
        for target in (None, graph.patch_ids[3]):
            report = outbreak_ranking(model, graph, k=25.0, target=target)
            for pid, delta in report.ranking:
                traj = model.run(graph, init=analysis.seed_outbreak(model.init, pid, 25.0, graph))
                if target is None:
                    oracle = traj.new_infections.sum() - base
                else:
                    i = graph.patch_index[target]
                    oracle = (traj.new_infections[i].sum()
                              - model.run(graph).new_infections[i].sum())
                assert delta == pytest.approx(oracle, rel=1e-9), pid

    def test_region_attribution_present(self, bundle, model):
        report = outbreak_ranking(model, bundle.graph, k=20.0)
        attribution = report.details["region_attribution_percent"]
        assert set(attribution) == set(bundle.graph.region_ids)


@pytest.fixture(scope="module")
def correction_setup():
    bundle = synth.generate(synth.SynthSpec(n_patches=8, n_regions=2, weeks=30,
                                            horizon=4, seed=6))
    net = calib.CalibNet(bundle.data.features.shape[2],
                         config=calib.CalibConfig(hidden=8, decoder_width=8), seed=0)
    noisy = bundle.graph.patches_of_category("non-general")[:3]
    noisy_data = corrupt_features(bundle.data, bundle.graph, noisy, 0.2, seed=0)
    trained = calib.train_joint(net, noisy_data, bundle.graph,
                                calib.TrainConfig(epochs=120, seed=0)).net
    return bundle, trained, noisy


class TestGreedyDataCorrection:

    def test_zero_noise_curve_is_flat_at_clean_baseline(self, correction_setup):
        bundle, trained, noisy = correction_setup
        result = greedy_data_correction(trained, bundle.data, bundle.graph, noisy,
                                        noise_sd=0.0, k=len(noisy), seed=0)
        assert np.allclose(result.r2_curve, result.clean_r2, atol=1e-12)

    def test_full_correction_restores_clean_r2(self, correction_setup):
        bundle, trained, noisy = correction_setup
        result = greedy_data_correction(trained, bundle.data, bundle.graph, noisy,
                                        noise_sd=0.2, k=len(noisy), seed=0)
        assert result.r2_curve[-1] == pytest.approx(result.clean_r2, abs=1e-6)

    def test_greedy_matches_or_beats_mean_random_order(self, correction_setup):
        from calypso.analysis import random_order_correction_curves

        bundle, trained, noisy = correction_setup
        result = greedy_data_correction(trained, bundle.data, bundle.graph, noisy,
                                        noise_sd=0.2, k=len(noisy), seed=0)
        curves = random_order_correction_curves(trained, bundle.data, bundle.graph, noisy,
                                                noise_sd=0.2, n_orders=5, seed=0)
        mean_random = curves.mean(axis=0)
        assert np.all(result.r2_curve >= mean_random - 1e-9)
        # endpoints agree regardless of order
        assert curves[:, -1] == pytest.approx(result.r2_curve[-1], abs=1e-9)

    def test_k_exceeding_noisy_set_rejected(self, correction_setup):
        bundle, trained, noisy = correction_setup
        with pytest.raises(KExceedsNoisySet):
            greedy_data_correction(trained, bundle.data, bundle.graph, noisy,
                                   noise_sd=0.2, k=len(noisy) + 1)

    def test_unknown_noisy_patch_rejected(self, correction_setup):
        bundle, trained, noisy = correction_setup
        with pytest.raises(UnknownRegion, match="unknown noisy patch 'nope'"):
            greedy_data_correction(trained, bundle.data, bundle.graph, noisy + ["nope"],
                                   noise_sd=0.2, k=1)

    @pytest.mark.parametrize("noise_sd", [-1.0, np.nan, np.inf])
    def test_bad_noise_sd_refused(self, bundle, noise_sd):
        with pytest.raises(InvalidOption, match="noise_sd must be finite and >= 0"):
            corrupt_features(bundle.data, bundle.graph, bundle.graph.patch_ids[:2], noise_sd)

    def test_corruption_is_seeded_and_targeted(self, correction_setup):
        bundle, _, noisy = correction_setup
        a = corrupt_features(bundle.data, bundle.graph, noisy, 0.2, seed=0)
        b = corrupt_features(bundle.data, bundle.graph, noisy, 0.2, seed=0)
        assert np.array_equal(a.features, b.features)
        untouched = [p for p in bundle.graph.patch_ids if p not in noisy]
        for pid in untouched:
            i = bundle.graph.patch_index[pid]
            assert np.array_equal(a.features[i], bundle.data.features[i])

    def test_retrain_mode_smoke(self, correction_setup):
        bundle, trained, noisy = correction_setup
        result = greedy_data_correction(
            trained, bundle.data, bundle.graph, noisy[:2], noise_sd=0.2, k=1, seed=0,
            retrain=calib.TrainConfig(epochs=3, seed=0))
        assert len(result.order) == 1
        assert result.r2_curve.shape == (2,)
