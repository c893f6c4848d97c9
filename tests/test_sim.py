import numpy as np
import pytest

from calypso.analysis import Scenario
from calypso.core import DiseaseParams, PatchGraph, build_travel_matrix
from calypso.errors import (
    NegativeSeed,
    ParamCoverage,
    SeedExceedsPopulation,
    UnknownTarget,
)
from calypso.sim import SimConfig, apply_scenario, seed_outbreak, simulate


def single_patch_graph(pop=100.0):
    return PatchGraph({"a": pop}, {"a": "r"}, {"a": "general"}, np.array([[1.0]]))


def random_instance(rng, n_min=2, n_max=8):
    n = int(rng.integers(n_min, n_max))
    pop = rng.uniform(100, 5000, size=n)
    flows = rng.uniform(0, 1, size=(n, n))
    np.fill_diagonal(flows, 0.0)
    flows *= (pop * rng.uniform(0.05, 0.6))[:, None] / np.maximum(flows.sum(axis=1), 1e-9)[:, None]
    theta = build_travel_matrix(flows, np.zeros((n, n)), pop)
    ids = [f"p{i:02d}" for i in range(n)]
    graph = PatchGraph(
        dict(zip(ids, pop)),
        {p: f"r{i % 2}" for i, p in enumerate(ids)},
        {p: "general" if i % 2 == 0 else "non-general" for i, p in enumerate(ids)},
        theta,
    )
    steps = int(rng.integers(5, 30))
    params = DiseaseParams(
        region_ids=graph.region_ids,
        beta=rng.uniform(0, 1, size=(2, steps)),
        gamma=rng.uniform(0.05, 0.9, size=(2, steps)),
        delta=rng.uniform(0, 0.2, size=(2, steps)),
        kappa=rng.uniform(0, 0.9, size=(2, steps)),
        epsilon=rng.uniform(0, 1, size=(2, steps)),
    )
    init = rng.uniform(0, 0.2, size=n) * graph.populations
    return graph, params, init, steps


class TestSimulate:
    def test_zero_beta_decays_geometrically(self):
        g = single_patch_graph()
        p = DiseaseParams.constant(g.region_ids, 5, beta=0.0, gamma=0.4)
        traj = simulate(g, p, np.array([10.0]), SimConfig(steps=5))
        assert np.allclose(traj.new_infections, 0.0)
        assert np.allclose(traj.I[0], 10.0 * 0.6 ** np.arange(6))

    def test_hand_stepped_single_patch(self):
        # beta=0.5, P=100, I0=10, gamma=delta=0, symptomatic factor 1
        g = single_patch_graph()
        p = DiseaseParams.constant(g.region_ids, 1, beta=0.5, gamma=0.0, delta=0.0,
                                   kappa=0.0, epsilon=1.0)
        traj = simulate(g, p, np.array([10.0]), SimConfig(steps=1))
        assert traj.new_infections[0, 0] == pytest.approx(4.5)
        assert traj.I[0, 1] == pytest.approx(14.5)
        assert traj.S[0, 1] == pytest.approx(85.5)

    def test_conservation_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            graph, params, init, steps = random_instance(rng)
            traj = simulate(graph, params, init, SimConfig(steps=steps))
            total = traj.S + traj.I + traj.R
            assert np.allclose(total, graph.populations[:, None], rtol=1e-6)
            for arr in (traj.S, traj.I, traj.R):
                assert np.all(arr >= -1e-9)

    def test_zero_mobility_decouples_patches(self):
        rng = np.random.default_rng(1)
        n = 4
        pop = rng.uniform(100, 1000, size=n)
        ids = [f"p{i}" for i in range(n)]
        graph = PatchGraph(dict(zip(ids, pop)), {p: "r0" for p in ids},
                           {p: "general" for p in ids}, np.eye(n))
        params = DiseaseParams.constant(graph.region_ids, 8, beta=0.6, gamma=0.3,
                                        delta=0.1, kappa=0.2, epsilon=0.5)
        init = rng.uniform(1, 20, size=n)
        joint = simulate(graph, params, init, SimConfig(steps=8))
        for i in range(n):
            sub = PatchGraph({ids[i]: pop[i]}, {ids[i]: "r0"}, {ids[i]: "general"},
                             np.array([[1.0]]))
            alone = simulate(sub, params, init[i : i + 1], SimConfig(steps=8))
            assert np.allclose(joint.I[i], alone.I[0], rtol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        graph, params, init, steps = random_instance(rng, n_min=4, n_max=5)
        traj = simulate(graph, params, init, SimConfig(steps=steps))
        # relabel patches reversing the id order; regions/categories follow
        n = graph.n_patches
        perm = np.arange(n)[::-1]
        new_ids = [f"q{i}" for i in range(n)]  # q0 maps to old last patch
        pops = {new_ids[k]: graph.populations[perm[k]] for k in range(n)}
        regions = {new_ids[k]: graph.region_of[graph.patch_ids[perm[k]]] for k in range(n)}
        cats = {new_ids[k]: graph.category_of[graph.patch_ids[perm[k]]] for k in range(n)}
        theta2 = graph.theta[np.ix_(perm, perm)]
        graph2 = PatchGraph(pops, regions, cats, theta2)
        traj2 = simulate(graph2, params, init[perm], SimConfig(steps=steps))
        assert np.allclose(traj2.I, traj.I[perm], rtol=1e-12)
        assert np.allclose(traj2.new_infections, traj.new_infections[perm], rtol=1e-12)

    def test_monotone_seeding(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            graph, params, init, steps = random_instance(rng)
            base = simulate(graph, params, init, SimConfig(steps=steps))
            bumped = init.copy()
            patch = int(rng.integers(graph.n_patches))
            bumped[patch] = min(graph.populations[patch], bumped[patch] + 5.0)
            alt = simulate(graph, params, bumped, SimConfig(steps=steps))
            assert alt.new_infections.sum() >= base.new_infections.sum() - 1e-9

    def test_param_coverage_error(self):
        g = single_patch_graph()
        p = DiseaseParams.constant(g.region_ids, 3, beta=0.1, gamma=0.3)
        with pytest.raises(ParamCoverage):
            simulate(g, p, np.array([1.0]), SimConfig(steps=5))

    def test_missing_region_error(self):
        g = single_patch_graph()
        p = DiseaseParams.constant(("other",), 3, beta=0.1, gamma=0.3)
        with pytest.raises(ParamCoverage):
            simulate(g, p, np.array([1.0]), SimConfig(steps=3))

    def test_negative_seed_error(self):
        g = single_patch_graph()
        p = DiseaseParams.constant(g.region_ids, 3, beta=0.1, gamma=0.3)
        with pytest.raises(NegativeSeed):
            simulate(g, p, np.array([-1.0]), SimConfig(steps=3))

    def test_seed_above_population_error(self):
        g = single_patch_graph()
        p = DiseaseParams.constant(g.region_ids, 3, beta=0.1, gamma=0.3)
        with pytest.raises(SeedExceedsPopulation):
            simulate(g, p, np.array([101.0]), SimConfig(steps=3))

    def test_infection_clamp_keeps_susceptibles_nonnegative(self):
        g = single_patch_graph(pop=10.0)
        # force lambda > 1 via a beta of 1 and high prevalence
        p = DiseaseParams.constant(g.region_ids, 4, beta=1.0, gamma=0.05, epsilon=1.0)
        traj = simulate(g, p, np.array([9.5]), SimConfig(steps=4))
        assert np.all(traj.S >= -1e-12)


class TestApplyScenario:
    def graph_and_params(self):
        rng = np.random.default_rng(4)
        graph, params, init, steps = random_instance(rng, n_min=4, n_max=5)
        return graph, params

    def test_identity_multiplier(self):
        graph, params = self.graph_and_params()
        out = apply_scenario(params, Scenario(beta_multipliers={"r0": 1.0}), graph)
        assert np.allclose(out.beta, params.beta)

    def test_region_scaling_exact(self):
        graph, params = self.graph_and_params()
        out = apply_scenario(params, Scenario(beta_multipliers={"r1": 0.9}), graph)
        r1 = params.region_ids.index("r1")
        r0 = params.region_ids.index("r0")
        assert np.allclose(out.beta[r1], 0.9 * params.beta[r1], rtol=1e-15)
        assert np.array_equal(out.beta[r0], params.beta[r0])

    def test_step_range_restricts_scaling(self):
        graph, params = self.graph_and_params()
        out = apply_scenario(params, Scenario(beta_multipliers={"r0": 0.5}, step_range=(2, 4)), graph)
        r0 = params.region_ids.index("r0")
        assert np.allclose(out.beta[r0, 2:4], 0.5 * params.beta[r0, 2:4])
        assert np.array_equal(out.beta[r0, :2], params.beta[r0, :2])
        assert np.array_equal(out.beta[r0, 4:], params.beta[r0, 4:])

    def test_disjoint_scenarios_commute(self):
        graph, params = self.graph_and_params()
        s1 = Scenario(beta_multipliers={"r0": 0.8})
        s2 = Scenario(beta_multipliers={"r1": 1.2})
        ab = apply_scenario(apply_scenario(params, s1, graph), s2, graph)
        ba = apply_scenario(apply_scenario(params, s2, graph), s1, graph)
        assert np.allclose(ab.beta, ba.beta, rtol=1e-15)

    def test_patch_multiplier_lands_in_scale(self):
        graph, params = self.graph_and_params()
        pid = graph.patch_ids[0]
        out = apply_scenario(params, Scenario(beta_multipliers={pid: 0.7}), graph)
        assert out.patch_beta_scale is not None
        assert out.patch_beta_scale[graph.patch_index[pid], 0] == pytest.approx(0.7)
        assert np.allclose(out.beta, params.beta)

    def test_unknown_target(self):
        graph, params = self.graph_and_params()
        with pytest.raises(UnknownTarget):
            apply_scenario(params, Scenario(beta_multipliers={"nowhere": 0.9}), graph)


class TestSeedOutbreak:
    def test_zero_is_identity(self):
        g = single_patch_graph()
        init = np.array([3.0])
        assert np.array_equal(seed_outbreak(init, "a", 0.0, g), init)

    def test_adds_to_named_patch_only(self):
        theta = np.eye(2)
        g = PatchGraph({"a": 100.0, "b": 100.0}, {"a": "r", "b": "r"},
                       {"a": "general", "b": "general"}, theta)
        init = np.array([3.0, 4.0])
        out = seed_outbreak(init, "b", 50.0, g)
        assert out[1] == pytest.approx(54.0)
        assert out[0] == pytest.approx(3.0)
        assert out.sum() == pytest.approx(init.sum() + 50.0)

    def test_population_cap(self):
        g = single_patch_graph()
        with pytest.raises(SeedExceedsPopulation):
            seed_outbreak(np.array([60.0]), "a", 50.0, g)

    def test_unknown_patch(self):
        g = single_patch_graph()
        with pytest.raises(UnknownTarget):
            seed_outbreak(np.array([1.0]), "zz", 1.0, g)
