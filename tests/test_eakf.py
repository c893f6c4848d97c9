import dataclasses
import re

import numpy as np
import pytest

from calypso import eakf, seeding, synth
from calypso.core import DEFAULT_PARAM_BOUNDS, PARAM_NAMES
from calypso.eakf import Ensemble, eakf_step, init_ensemble, run_eakf
from calypso.errors import InvalidOption, NumericalError, ShapeMismatch
from calypso.sim import SimConfig, simulate, sirs_step


def scalar_ensemble(values):
    """Single-patch ensemble whose observed coordinate is I."""
    values = np.asarray(values, dtype=float)[:, None]
    params = np.tile([0.5, 0.3, 0.1, 0.2, 0.5], (len(values), 1))
    return Ensemble(("r0",), np.concatenate([100.0 - values, values, np.zeros_like(values), params], axis=1))


# the population of the one patch of ``scalar_ensemble``
SCALAR_POPULATION = np.array([100.0])


def scalar_step(ens, observation, obs_var=None, inflation=1.0):
    """``eakf_step`` on a ``scalar_ensemble``."""
    return eakf_step(ens, np.array([observation]), SCALAR_POPULATION, inflation, obs_var)


def state_space_step(ens, observation, populations, inflation, obs_error_variance):
    """Reference serial EAKF: one full-state covariance update per observed patch."""
    obs = np.asarray(observation, dtype=float)
    prior_var = ens.I.var(axis=0, ddof=1)
    if float(prior_var.max(initial=0.0)) < eakf._VAR_FLOOR:
        raise NumericalError("ensemble variance vanished in every observed coordinate")
    state = eakf._inflate(ens.state, inflation)
    n, n_patches = ens.size, ens.I.shape[1]
    for i in range(n_patches):
        z = state[:, n_patches + i]
        pr_mean = z.mean()
        pr_var = z.var(ddof=1)
        if pr_var < eakf._VAR_FLOOR:
            continue
        if obs_error_variance is not None:
            obs_var = float(obs_error_variance)
        else:
            obs_var = max(1.0, 0.1 * obs[i]) ** 2
        po_var = 1.0 / (1.0 / pr_var + 1.0 / obs_var)
        po_mean = po_var * (pr_mean / pr_var + obs[i] / obs_var)
        inc = np.sqrt(po_var / pr_var) * (z - pr_mean) + po_mean - z
        centered = state - state.mean(axis=0, keepdims=True)
        cov = centered.T @ (z - pr_mean) / (n - 1)
        state += np.outer(inc, cov / pr_var)
    out = Ensemble(ens.region_ids, state)
    eakf._repair(out, np.asarray(populations, dtype=float))
    return out


def dict_coefficients(ens, graph):
    """Reference member parameters: one ``broadcast_matrix @`` dict per member.

    Returns the six coefficients of ``sirs_step`` as per-member lists, each
    formed from that member's dict the way the step once formed them itself.
    """
    bmat = graph.broadcast_matrix
    members = []
    for m in range(ens.size):
        pp = {name: bmat @ ens.blocks[m, p] for p, name in enumerate(PARAM_NAMES)}
        factor = (1.0 - pp["kappa"]) * (1.0 - pp["epsilon"]) + pp["epsilon"]
        members.append((pp["beta"], factor, pp["gamma"], 1.0 - pp["gamma"],
                        pp["delta"], 1.0 - pp["delta"]))
    return tuple(list(c) for c in zip(*members))


def assert_same_ensemble(a, b, rtol=1e-9):
    for name in ("S", "I", "R", "params"):
        x, y = getattr(a, name), getattr(b, name)
        scale = np.abs(y).max(initial=1.0)
        assert np.abs(x - y).max(initial=0.0) <= rtol * scale, name


@pytest.fixture(scope="module")
def desk_bundle():
    return synth.generate(synth.SynthSpec(n_patches=24, n_regions=4, weeks=120, horizon=4, seed=1))


def propagated_ensemble(bundle, size, weeks=6):
    """A mid-run ensemble: ``weeks`` cycles of the filter from its initial draw."""
    data = dataclasses.replace(bundle.data, window=weeks)
    return run_eakf(bundle.graph, data, size=size, seed=7).ensemble


class TestEnsembleLayout:
    """``Ensemble.state`` is the one members x (3P + 5R) array; its compartments and parameters are views of it."""

    def test_writes_through_the_views_show_in_state(self, desk_bundle):
        ens = init_ensemble(desk_bundle.graph, desk_bundle.data.initial_infections, size=5)
        n_patches, n_regions = desk_bundle.graph.n_patches, desk_bundle.graph.n_regions
        ens.I[2, 3] = -1.0
        ens.blocks[4, 1, 2] = 0.75  # gamma of region 2
        assert ens.state[2, n_patches + 3] == -1.0
        assert ens.state[4, 3 * n_patches + n_regions + 2] == 0.75
        assert ens.params[4, n_regions + 2] == 0.75
        for view in (ens.S, ens.I, ens.R, ens.params, ens.blocks):
            assert np.shares_memory(view, ens.state)

    def test_step_leaves_the_input_state(self, desk_bundle):
        ens = propagated_ensemble(desk_bundle, 20)
        before = ens.state.tobytes()
        eakf_step(ens, desk_bundle.data.observed[:, 6], desk_bundle.graph.populations, 1.02, None)
        assert ens.state.tobytes() == before

    @pytest.mark.parametrize("width", [10, 11, 12, 14, 17])
    def test_refuses_a_width_other_than_three_per_patch_and_five_per_region(self, width):
        Ensemble(("r0", "r1"), np.zeros((4, 3 * 2 + 5 * 2)))  # two patches, two regions
        with pytest.raises(ShapeMismatch, match=f"^ensemble state has {width} columns, not 3 \\* patches"):
            Ensemble(("r0", "r1"), np.zeros((4, width)))

    @pytest.mark.parametrize("shape", [(0, 16), (16,)], ids=["no-member", "one-axis"])
    def test_refuses_a_state_without_two_members(self, shape):
        with pytest.raises(ShapeMismatch, match="at least 2 members"):
            Ensemble(("r0", "r1"), np.zeros(shape))


class TestEnsembleSpaceStep:
    """``eakf_step`` composes the serial updates in ensemble space; the
    state-space loop above is its reference."""

    @pytest.mark.parametrize("size, obs_var", [(100, None), (100, 25.0), (2, None)],
                             ids=["per-obs-variance", "fixed-variance", "two-members"])
    def test_matches_state_space_loop(self, desk_bundle, size, obs_var):
        ens = propagated_ensemble(desk_bundle, size)
        obs = desk_bundle.data.observed[:, 6]
        pops = desk_bundle.graph.populations
        assert_same_ensemble(eakf_step(ens, obs, pops, 1.02, obs_var), state_space_step(ens, obs, pops, 1.02, obs_var))

    def test_matches_with_floored_coordinates(self, desk_bundle):
        ens = propagated_ensemble(desk_bundle, 100)
        ens.I[:, ::3] = ens.I[0, ::3]  # every third patch collapsed: the zero-gain skip runs
        ens.S[:] = desk_bundle.graph.populations[None, :] - ens.I - ens.R
        assert np.all(ens.I[:, ::3].var(axis=0, ddof=1) < eakf._VAR_FLOOR)
        obs = desk_bundle.data.observed[:, 6]
        post = eakf_step(ens, obs, desk_bundle.graph.populations, 1.02, None)
        assert_same_ensemble(post, state_space_step(ens, obs, desk_bundle.graph.populations, 1.02, None))

    def test_full_run_matches_state_space_loop(self, desk_bundle, monkeypatch):
        graph, data = desk_bundle.graph, desk_bundle.data
        assert data.window == 120
        new = run_eakf(graph, data, size=100, seed=0)
        monkeypatch.setattr(eakf, "eakf_step", state_space_step)  # called with the same arguments
        ref = run_eakf(graph, data, size=100, seed=0)
        for name in ("S", "I", "R", "new_infections"):
            x, y = getattr(new.trajectory, name), getattr(ref.trajectory, name)
            np.testing.assert_allclose(x, y, rtol=1e-9, atol=1e-9 * np.abs(y).max(), err_msg=name)
        for name in ref.param_mean:
            np.testing.assert_allclose(new.param_mean[name], ref.param_mean[name], rtol=1e-9, err_msg=name)
            np.testing.assert_allclose(new.param_sd[name], ref.param_sd[name], rtol=1e-9, err_msg=name)
        assert_same_ensemble(new.ensemble, ref.ensemble)


class TestEakfStep:
    def test_scalar_conjugate_update(self):
        # prior mean 10, var 4; obs 14 with var 4 -> posterior mean 12, var 2
        rng = np.random.default_rng(0)
        z = rng.normal(size=400)
        z = (z - z.mean()) / z.std(ddof=1)  # exactly mean 0, sd 1
        values = 10.0 + 2.0 * z
        post = scalar_step(scalar_ensemble(values), 14.0, obs_var=4.0)
        assert post.I[:, 0].mean() == pytest.approx(12.0, abs=1e-9)
        assert post.I[:, 0].var(ddof=1) == pytest.approx(2.0, rel=1e-9)

    def test_infinite_obs_variance_no_update(self):
        rng = np.random.default_rng(1)
        values = 10.0 + rng.normal(size=50)
        post = scalar_step(scalar_ensemble(values), 25.0, obs_var=np.inf)
        assert np.allclose(post.I[:, 0], values)

    def test_tiny_prior_variance_leaves_mean(self):
        values = np.full(30, 10.0)
        values[0] += 1e-8  # variance ~ 3e-18, below the update floor
        ens = scalar_ensemble(values)
        ens.S[:, 0] += np.linspace(-5, 5, 30)  # keep the filter alive elsewhere
        with pytest.raises(NumericalError, match="ensemble variance vanished"):
            # observed coordinate variance is the collapse test
            scalar_step(ens, 14.0, obs_var=1.0)

    def test_variance_contraction_per_observed_coordinate(self):
        rng = np.random.default_rng(2)
        bundle = synth.generate(synth.SynthSpec(n_patches=6, n_regions=2, weeks=10,
                                                horizon=2, seed=3))
        ens = init_ensemble(bundle.graph, bundle.data.initial_infections, size=40, seed=0)
        ens.I += rng.uniform(0, 20, size=ens.I.shape)
        prior_var = (eakf._inflate(ens.I, 1.02)).var(axis=0, ddof=1)
        post = eakf_step(ens, bundle.data.observed[:, 0], bundle.graph.populations, 1.02, None)
        post_var = post.I.var(axis=0, ddof=1)
        assert np.all(post_var <= prior_var + 1e-9)

    def test_collapsed_ensemble_raises(self):
        values = np.full(10, 5.0)
        with pytest.raises(NumericalError, match="ensemble variance vanished"):
            scalar_step(scalar_ensemble(values), 6.0)

    def test_mean_preserved_under_zero_information(self):
        rng = np.random.default_rng(3)
        values = 20.0 + rng.normal(size=60)
        ens = scalar_ensemble(values)
        post = scalar_step(ens, 100.0, obs_var=np.inf)
        assert post.I.mean() == pytest.approx(values.mean())
        assert post.params.mean(axis=0) == pytest.approx(ens.params.mean(axis=0))

    @pytest.mark.parametrize("inflation, obs_var, message", [
        (0.99, None, "inflation must be finite and >= 1, got 0.99"),
        (np.nan, None, "inflation must be finite and >= 1, got nan"),
        (np.inf, None, "inflation must be finite and >= 1, got inf"),
        (1.0, 0.0, "observation error variance must be > 0, got 0.0"),
        (1.0, -1.0, "observation error variance must be > 0, got -1.0"),
        (1.0, np.nan, "observation error variance must be > 0, got nan"),
    ], ids=["inflation-below-one", "inflation-nan", "inflation-inf", "zero-variance", "negative-variance",
            "nan-variance"])
    def test_step_refuses_a_bad_inflation_or_variance(self, inflation, obs_var, message):
        ens = scalar_ensemble(10.0 + np.arange(5.0))
        with pytest.raises(InvalidOption, match=f"^{re.escape(message)}$"):
            scalar_step(ens, 12.0, obs_var=obs_var, inflation=inflation)

    def test_run_refuses_a_bad_inflation_or_variance(self, run_bundle):
        for kwargs, name in (({"inflation": 0.5}, "inflation"), ({"obs_error_variance": 0.0}, "observation")):
            with pytest.raises(InvalidOption, match=name):
                run_eakf(run_bundle.graph, run_bundle.data, size=4, **kwargs)

    def test_minimum_ensemble_size_enforced(self):
        with pytest.raises(ShapeMismatch):
            scalar_ensemble(np.array([1.0]))

    @pytest.mark.parametrize("size", [1, 0, -5])
    def test_init_refuses_size_below_two(self, desk_bundle, size):
        with pytest.raises(InvalidOption, match="ensemble size"):
            init_ensemble(desk_bundle.graph, desk_bundle.data.initial_infections, size=size)

    def test_parameters_clamped_to_bounds(self):
        rng = np.random.default_rng(4)
        values = 10.0 + 3.0 * rng.normal(size=50)
        ens = scalar_ensemble(values)
        ens.params[:, 0] = 0.99  # near the beta upper bound, correlated update may push out
        ens.params[:, 0] += 0.005 * (values - values.mean())
        post = scalar_step(ens, 30.0, obs_var=0.01)
        lo, hi = DEFAULT_PARAM_BOUNDS["beta"]
        assert np.all(post.params[:, 0] >= lo) and np.all(post.params[:, 0] <= hi)

    @staticmethod
    def clamp_by_blocks(params, n_regions):
        """The reference: ``_clamp_params``'s reflection one parameter block at a time."""
        for p, name in enumerate(PARAM_NAMES):
            lo, hi = DEFAULT_PARAM_BOUNDS[name]
            block = params[:, p * n_regions : (p + 1) * n_regions]
            width = hi - lo
            over = block > hi
            block[over] = hi - np.minimum(block[over] - hi, width)
            under = block < lo
            block[under] = lo + np.minimum(lo - block[under], width)
            np.clip(block, lo, hi, out=block)

    @pytest.mark.parametrize("n_regions", [1, 3, 40])
    def test_clamp_equals_the_block_loop_bit_for_bit(self, n_regions):
        # draws inside, just past, within a width past and more than a width past
        # each bound, and both infinities, on a strided view as eakf_step passes it
        rng = np.random.default_rng(n_regions)
        lo = np.repeat([DEFAULT_PARAM_BOUNDS[n][0] for n in PARAM_NAMES], n_regions)
        hi = np.repeat([DEFAULT_PARAM_BOUNDS[n][1] for n in PARAM_NAMES], n_regions)
        width = hi - lo
        draws = lo + width * rng.uniform(-2.5, 3.5, size=(60, 5 * n_regions))
        draws[:4] = [hi + 1e-12, lo - 1e-12, hi + 1.7 * width, lo - 2.3 * width]
        draws[4, ::2], draws[4, 1::2] = np.inf, -np.inf
        assert (draws > hi + width).any() and (draws < lo - width).any()
        state = np.concatenate([rng.normal(size=(60, 7)), draws], axis=1)
        got, want = state.copy(), state.copy()
        eakf._clamp_params(got[:, 7:].reshape(60, 5, n_regions))
        self.clamp_by_blocks(want[:, 7:], n_regions)
        assert got.tobytes() == want.tobytes()
        assert np.all((got[:, 7:] >= lo) & (got[:, 7:] <= hi))


def constant_beta_bundle(spec, base_range=(0.5, 0.55)):
    """``spec``'s bundle with each region's beta held at one value drawn from
    ``base_range``, observed as ``synth.generate`` observes.

    The beta draw takes the place of the seasonal base draw, the first of the
    parameter stream, and the stream's other draws (phase, the constant
    rates, the initial infections) keep their positions, so every other
    parameter and the initial infections are the generated bundle's.
    """
    bundle = synth.generate(spec)
    graph, total = bundle.graph, spec.weeks + spec.horizon
    base = seeding.spawn_rng(spec.seed, seeding.SYNTH, 1).uniform(*base_range, size=graph.n_regions)
    params = dataclasses.replace(bundle.params, beta=np.repeat(base[:, None], total, axis=1))
    traj = simulate(graph, params, bundle.data.initial_infections, SimConfig(steps=total))
    observed = synth._observe(traj, graph.populations, synth.PERSISTENCE_RANGE,
                              seeding.spawn_rng(spec.seed, seeding.SYNTH, 2))
    features = synth._features(observed, traj, graph.populations, seeding.spawn_rng(spec.seed, seeding.SYNTH, 3))
    data = dataclasses.replace(bundle.data, observed=observed, features=features)
    return dataclasses.replace(bundle, data=data, trajectory=traj, params=params)


@pytest.fixture(scope="module")
def run_bundle():
    return synth.generate(synth.SynthSpec(n_patches=6, n_regions=2, weeks=30,
                                          horizon=4, seed=4))


class TestRunEakf:
    def test_propagation_matches_per_member_dicts(self, desk_bundle, monkeypatch):
        """One members x patches gather per week gives the per-member ``bmat @`` values, bit for bit."""
        graph, data = desk_bundle.graph, dataclasses.replace(desk_bundle.data, window=30)
        new = run_eakf(graph, data, size=20, seed=3)
        new_fc = new.forecast(4)
        monkeypatch.setattr(eakf, "_member_coefficients", dict_coefficients)
        ref = run_eakf(graph, data, size=20, seed=3)
        assert np.array_equal(new_fc, ref.forecast(4))
        for name in ("S", "I", "R", "new_infections"):
            assert np.array_equal(getattr(new.trajectory, name), getattr(ref.trajectory, name)), name
        for name in PARAM_NAMES:
            assert np.array_equal(new.param_mean[name], ref.param_mean[name]), name
            assert np.array_equal(new.param_sd[name], ref.param_sd[name]), name
        assert new.ensemble.state.tobytes() == ref.ensemble.state.tobytes()

    def test_seeded_determinism(self, run_bundle):
        bundle = run_bundle
        r1 = run_eakf(bundle.graph, bundle.data, size=20, seed=5)
        r2 = run_eakf(bundle.graph, bundle.data, size=20, seed=5)
        assert np.array_equal(r1.trajectory.I, r2.trajectory.I)
        assert np.array_equal(r1.param_mean["beta"], r2.param_mean["beta"])

    def test_minimum_size_runs(self, run_bundle):
        bundle = run_bundle
        result = run_eakf(bundle.graph, bundle.data, size=2, seed=0)
        assert result.trajectory.I.shape[1] == bundle.data.window + 1

    def test_member_states_keep_invariants(self, run_bundle):
        bundle = run_bundle
        result = run_eakf(bundle.graph, bundle.data, size=20, seed=1)
        ens = result.ensemble
        totals = ens.S + ens.I + ens.R
        assert np.allclose(totals, bundle.graph.populations[None, :], rtol=1e-9)
        assert np.all(ens.I >= 0) and np.all(ens.R >= 0) and np.all(ens.S >= -1e-9)

    def test_filtered_mean_tracks_observations(self, run_bundle):
        bundle = run_bundle
        from calypso.core import aggregate, metrics

        result = run_eakf(bundle.graph, bundle.data, size=60, seed=2)
        pred = aggregate(result.trajectory.weekly_series, "state", bundle.graph)[0]
        obs = aggregate(bundle.data.training_observed(), "state", bundle.graph)[0]
        assert metrics(pred, obs)["r2"] > 0.5

    def test_forecast_shape_and_determinism(self, run_bundle):
        bundle = run_bundle
        result = run_eakf(bundle.graph, bundle.data, size=10, seed=3)
        f1 = result.forecast(4)
        f2 = result.forecast(4)
        assert f1.shape == (bundle.graph.n_patches, 4)
        assert np.array_equal(f1, f2)

    def test_forecast_steps_each_member_and_leaves_the_ensemble(self, run_bundle):
        """The reference: each member stepped ``h`` weeks on its own, its I added in member order."""
        result = run_eakf(run_bundle.graph, run_bundle.data, size=10, seed=3)
        ens, graph = result.ensemble, run_bundle.graph
        before = ens.state.tobytes()
        want = np.zeros((graph.n_patches, 4))
        for m, member in enumerate(zip(*eakf._member_coefficients(ens, graph))):
            s, i, r = ens.S[m], ens.I[m], ens.R[m]
            for t in range(4):
                s, i, r, _ = sirs_step(graph.theta, graph.theta_t, graph.n_eff, s, i, r, *member)
                want[:, t] += i
        assert result.forecast(4).tobytes() == (want / ens.size).tobytes()
        assert ens.state.tobytes() == before

    def test_constant_beta_recovery(self):
        # a long window with constant known parameters: posterior beta near truth
        bundle = constant_beta_bundle(synth.SynthSpec(n_patches=4, n_regions=2, weeks=100, horizon=2, seed=12))
        result = run_eakf(bundle.graph, bundle.data, size=150, seed=0)
        true_beta = bundle.params.beta[:, 0]
        # effective transmission is beta times the symptomatic/intervention factor;
        # compare those products, which is what infections identify; read the
        # posterior averaged over the last 20 assimilations
        factor_true = ((1 - bundle.params.kappa[:, 0]) * (1 - bundle.params.epsilon[:, 0])
                       + bundle.params.epsilon[:, 0])
        post_beta = result.param_mean["beta"][:, -20:].mean(axis=1)
        k = result.param_mean["kappa"][:, -20:].mean(axis=1)
        e = result.param_mean["epsilon"][:, -20:].mean(axis=1)
        factor_post = (1 - k) * (1 - e) + e
        rel = np.abs(post_beta * factor_post - true_beta * factor_true) / (true_beta * factor_true)
        assert np.all(rel < 0.2)


class TestSummaryOutput:
    def test_summary_csv_schema(self, tmp_path):
        from calypso import io

        bundle = synth.generate(synth.SynthSpec(n_patches=6, n_regions=2, weeks=12,
                                                horizon=2, seed=6))
        result = run_eakf(bundle.graph, bundle.data, size=10, seed=0)
        path = io.write_eakf_summary(tmp_path / "eakf.csv", result, bundle.graph)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:2] == ["week_index", "state_infected_mean"]
        assert "beta_R0_mean" in header and "beta_R0_sd" in header
        assert len(path.read_text().splitlines()) == bundle.data.window + 1
