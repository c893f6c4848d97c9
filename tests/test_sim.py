import numpy as np
import pytest

from calypso import autodiff as ad
from calypso import sim
from calypso.core import PARAM_NAMES, DiseaseParams, PatchGraph, build_travel_matrix
from calypso.errors import (
    InvalidOption,
    InvalidValue,
    NegativeSeed,
    ParamCoverage,
    SeedExceedsPopulation,
    UnknownTarget,
)
from calypso.sim import (
    SimConfig,
    iterate_sirs,
    patch_coefficients,
    plain_totals,
    seed_outbreak,
    simulate,
    week_coefficients,
)


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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_seed_error(self, value):
        g = single_patch_graph()
        p = DiseaseParams.constant(g.region_ids, 3, beta=0.1, gamma=0.3)
        with pytest.raises(InvalidValue, match="non-finite"):
            simulate(g, p, np.array([value]), SimConfig(steps=3))

    @pytest.mark.parametrize("scale, error", [
        (np.array([-0.5]), InvalidValue), (np.array([np.nan]), InvalidValue),
        (np.array([np.inf]), InvalidValue), (np.ones(2), ParamCoverage),
        (np.ones((1, 3)), ParamCoverage),
    ], ids=["negative", "nan", "inf", "wrong-length", "patches-x-weeks"])
    def test_bad_patch_beta_scale_refused(self, scale, error):
        g = single_patch_graph()
        p = DiseaseParams.constant(g.region_ids, 3, beta=0.1, gamma=0.3)
        with pytest.raises(error, match="beta_scale"):
            simulate(g, p, np.array([1.0]), SimConfig(steps=3), beta_scale=scale)

    def test_infection_clamp_keeps_susceptibles_nonnegative(self):
        g = single_patch_graph(pop=10.0)
        # force lambda > 1 via a beta of 1 and high prevalence
        p = DiseaseParams.constant(g.region_ids, 4, beta=1.0, gamma=0.05, epsilon=1.0)
        traj = simulate(g, p, np.array([9.5]), SimConfig(steps=4))
        assert np.all(traj.S >= -1e-12)


class TestPlainLoopMatchesTape:
    """``simulate`` runs its own loop on plain arrays; the taped ``iterate_sirs``
    forward, fed the ``broadcast_matrix @`` parameters, is its reference, bit for bit."""

    @pytest.mark.parametrize("with_scale", [False, True], ids=["no-scale", "patch-scale"])
    def test_trajectory_equals_taped_forward(self, with_scale):
        rng = np.random.default_rng(11)
        for _ in range(10):
            graph, params, init, steps = random_instance(rng)
            scale = rng.uniform(0.5, 1.5, size=graph.n_patches) if with_scale else None
            traj = simulate(graph, params, init, SimConfig(steps=steps), beta_scale=scale)

            tape = ad.Tape()
            region = {name: tape.variable(getattr(params, name)) for name in PARAM_NAMES}

            def step_params(t):
                p = {name: ad.matmul(graph.broadcast_matrix, ad.col(dv, t)) for name, dv in region.items()}
                if scale is not None:
                    p["beta"] = p["beta"] * scale
                return p

            hists = iterate_sirs(graph, step_params, init, steps)
            for name, hist in zip(("S", "I", "R", "new_infections"), hists):
                taped = np.stack([ad.value_of(v) for v in hist], axis=1)
                assert np.array_equal(getattr(traj, name), taped), name
                assert getattr(traj, name).flags.c_contiguous

    @pytest.mark.parametrize("with_scale", [False, True], ids=["no-scale", "patch-scale"])
    def test_one_column_batch_matches_taped_forward(self, with_scale):
        """The batched path of the shared loop, one scenario wide, against the
        same reference; a matrix product rounds like a matrix-vector one to 1e-12."""
        rng = np.random.default_rng(15)
        for _ in range(10):
            graph, params, init, steps = random_instance(rng)
            scale = rng.uniform(0.5, 1.5, size=(graph.n_patches, 1)) if with_scale else None
            totals = plain_totals(graph, patch_coefficients(graph, params, steps), init, beta_scale=scale)

            def step_params(t):
                p = {name: ad.matmul(graph.broadcast_matrix, getattr(params, name)[:, t])
                     for name in PARAM_NAMES}
                if scale is not None:
                    p["beta"] = p["beta"] * scale[:, 0]
                return p

            *_, di_hist = iterate_sirs(graph, step_params, init, steps)
            np.testing.assert_allclose(totals[:, 0], np.sum(di_hist, axis=0), rtol=1e-12)

    def test_runs_shorter_than_the_parameters(self):
        rng = np.random.default_rng(12)
        graph, params, init, steps = random_instance(rng)
        full = simulate(graph, params, init, SimConfig(steps=steps))
        part = simulate(graph, params, init, SimConfig(steps=steps - 2))
        assert np.array_equal(part.I, full.I[:, : steps - 1])
        assert np.array_equal(part.new_infections, full.new_infections[:, : steps - 2])


def column_by_column(graph, params, init, steps, scale):
    """Per-patch cumulative new infections, one ``simulate`` per column."""
    width = max(a.shape[1] for a in (init, scale) if a is not None and a.ndim == 2)
    cols = []
    for b in range(width):
        col_init = init[:, b] if init.ndim == 2 else init
        col_scale = None if scale is None else scale[:, b]
        traj = simulate(graph, params, col_init, SimConfig(steps=steps), beta_scale=col_scale)
        cols.append(traj.new_infections.sum(axis=1))
    return np.column_stack(cols)


def reference_weeks(graph, params, init, steps, beta_scale):
    """The plain loop as it stood before it ran in place: patch rows gathered
    first, then one ``sirs_step`` a week on fresh arrays.  Yields each week's
    (S, I, R, new_infections); the oracle that ``simulate`` and
    ``plain_totals`` match byte for byte."""
    column = (lambda a: a[..., None]) if init.ndim == 2 else (lambda a: a)
    week_major = {name: column(np.ascontiguousarray(getattr(params, name)[graph.patch_region][:, :steps].T))
                  for name in PARAM_NAMES}
    beta, *rest = week_coefficients(week_major)
    S, I = column(graph.populations) - init, init
    R = np.zeros_like(S)
    for t in range(steps):
        week_beta = beta[t] if beta_scale is None else beta[t] * beta_scale
        S, I, R, dI = sim.sirs_step(graph.theta, graph.theta_t, column(graph.n_eff), S, I, R,
                                    week_beta, *(c[t] for c in rest))
        yield S, I, R, dI


def reference_simulate(graph, params, init, steps, beta_scale=None):
    """(S, I, R, new_infections), patches x weeks, copied row by row from the reference loop."""
    n = graph.n_patches
    S, I, R = np.empty((steps + 1, n)), np.empty((steps + 1, n)), np.empty((steps + 1, n))
    new_inf = np.empty((steps, n))
    S[0], I[0], R[0] = graph.populations - init, init, 0.0
    for t, week in enumerate(reference_weeks(graph, params, init, steps, beta_scale)):
        S[t + 1], I[t + 1], R[t + 1], new_inf[t] = week
    return tuple(np.ascontiguousarray(a.T) for a in (S, I, R, new_inf))


def reference_totals(graph, params, init, steps, beta_scale=None):
    """Cumulative new infections per column, blocks of ``sim._BLOCK_ELEMENTS`` as ``plain_totals`` cuts them."""
    if init.ndim == 1:
        init = init[:, None]
    width = init.shape[1] if beta_scale is None else beta_scale.shape[1]
    block = max(1, sim._BLOCK_ELEMENTS // graph.n_patches)
    out = np.empty((graph.n_patches, width))
    for lo in range(0, width, block):
        cols = slice(lo, lo + block)
        total = 0.0
        for *_, new_inf in reference_weeks(graph, params, init if init.shape[1] == 1 else init[:, cols],
                                           steps, None if beta_scale is None else beta_scale[:, cols]):
            total += new_inf
        out[:, cols] = total
    return out


class TestInPlaceLoopMatchesReference:
    """Every byte of the in-place loop's results equals the reference loop's."""

    @pytest.mark.parametrize("with_scale", [False, True], ids=["no-scale", "patch-scale"])
    def test_simulate(self, with_scale):
        rng = np.random.default_rng(31)
        for _ in range(20):
            graph, params, init, steps = random_instance(rng, n_max=30)
            scale = rng.uniform(0.5, 1.5, size=graph.n_patches) if with_scale else None
            traj = simulate(graph, params, init, SimConfig(steps=steps), beta_scale=scale)
            want = reference_simulate(graph, params, init, steps, scale)
            for name, ref in zip(("S", "I", "R", "new_infections"), want):
                assert getattr(traj, name).tobytes() == ref.tobytes(), name

    @pytest.mark.parametrize("case", ["init-columns", "shared-init", "as-many-as-patches", "three-blocks"])
    def test_plain_totals(self, monkeypatch, case):
        rng = np.random.default_rng(32)
        for _ in range(10):
            graph, params, init, steps = random_instance(rng, n_min=3, n_max=30)
            n = graph.n_patches
            width = {"as-many-as-patches": n, "three-blocks": 7}.get(case, 4)
            if case == "three-blocks":
                monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", 3 * n)  # blocks of 3, 3 and 1 columns
            init_cols = np.minimum(init[:, None] * rng.uniform(0.5, 2.0, size=(n, width)),
                                   graph.populations[:, None])
            scale = rng.uniform(0.3, 1.7, size=(n, width))
            init_arg, scale_arg = {
                "init-columns": (init_cols, None),
                "shared-init": (init, scale),
            }.get(case, (init_cols, scale))
            got = plain_totals(graph, patch_coefficients(graph, params, steps), init_arg, beta_scale=scale_arg)
            assert got.tobytes() == reference_totals(graph, params, init_arg, steps, scale_arg).tobytes()


class TestScenarioTotals:
    @pytest.mark.parametrize("case", ["init-columns", "scale-columns", "both", "as-many-as-patches"])
    def test_equals_one_simulate_per_column(self, case):
        rng = np.random.default_rng(21)
        for _ in range(10):
            graph, params, init, steps = random_instance(rng, n_min=3)
            n = graph.n_patches
            width = n if case == "as-many-as-patches" else 3
            init_cols = init[:, None] * rng.uniform(0.5, 2.0, size=(n, width))
            init_cols = np.minimum(init_cols, graph.populations[:, None])
            scale = rng.uniform(0.3, 1.7, size=(n, width))
            init_arg, scale_arg = {
                "init-columns": (init_cols, None),
                "scale-columns": (init, scale),
                "both": (init_cols, scale),
                "as-many-as-patches": (init_cols, scale),
            }[case]
            totals = plain_totals(graph, patch_coefficients(graph, params, steps), init_arg, beta_scale=scale_arg)
            assert totals.shape == (n, width)
            np.testing.assert_allclose(totals, column_by_column(graph, params, init_arg, steps, scale_arg),
                                       rtol=1e-12)

    @pytest.mark.parametrize("arg", ["init", "beta_scale"])
    def test_blocks_of_columns_equal_one_simulate_per_column(self, monkeypatch, arg):
        rng = np.random.default_rng(25)
        graph, params, init, steps = random_instance(rng, n_min=3)
        n = graph.n_patches
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", 2 * n)  # 5 columns: blocks of 2, 2 and 1
        init_arg, scale_arg = init, None
        if arg == "init":
            init_arg = np.minimum(init[:, None] * rng.uniform(0.5, 2.0, size=(n, 5)), graph.populations[:, None])
        else:
            scale_arg = rng.uniform(0.3, 1.7, size=(n, 5))
        totals = plain_totals(graph, patch_coefficients(graph, params, steps), init_arg, beta_scale=scale_arg)
        np.testing.assert_allclose(totals, column_by_column(graph, params, init_arg, steps, scale_arg),
                                   rtol=1e-12)

    def test_one_init_vector_is_one_column(self):
        graph, params, init, steps = random_instance(np.random.default_rng(22))
        totals = plain_totals(graph, patch_coefficients(graph, params, steps), init)
        assert totals.shape == (graph.n_patches, 1)
        np.testing.assert_allclose(totals[:, 0], simulate(graph, params, init, SimConfig(steps=steps))
                                   .new_infections.sum(axis=1), rtol=1e-12)

    def test_conservation_column_by_column(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            graph, params, init, steps = random_instance(rng)
            n = graph.n_patches
            init_cols = np.minimum(init[:, None] * rng.uniform(0.5, 2.0, size=(n, n)),
                                   graph.populations[:, None])
            scale = rng.uniform(0.0, 2.0, size=(n, n))
            S, I, R = (np.empty((steps + 1, n, n)) for _ in range(3))
            new_inf = np.empty((steps, n, n))
            sim._weeks(graph, patch_coefficients(graph, params, steps), init_cols, S, I, R, new_inf, scale)
            for t in range(steps):  # the state after week t is slot t + 1
                total = S[t + 1] + I[t + 1] + R[t + 1]
                np.testing.assert_allclose(total, np.broadcast_to(graph.populations[:, None], (n, n)),
                                           rtol=1e-9)
                assert np.all(S[t + 1] >= -1e-9) and np.all(new_inf[t] >= 0)

    @pytest.mark.parametrize("arg, fault, error, message", [
        ("init", "nan", InvalidValue, "non-finite entry in column 2"),
        ("init", "negative", NegativeSeed, "negative entry in column 2"),
        ("init", "above-population", SeedExceedsPopulation, "exceed a patch population in column 2"),
        ("init", "wrong-shape", ParamCoverage, "init must hold one value per patch"),
        ("beta_scale", "nan", InvalidValue, "beta_scale must be finite and nonnegative in column 2"),
        ("beta_scale", "negative", InvalidValue, "beta_scale must be finite and nonnegative in column 2"),
        ("beta_scale", "wrong-shape", ParamCoverage, "beta_scale must hold one value per patch"),
        ("beta_scale", "vector", ParamCoverage, "beta_scale must hold one value per patch"),
        ("beta_scale", "other-width", ParamCoverage, "init has 4 scenario columns, beta_scale has 3"),
    ])
    def test_bad_column_refused_before_week_zero(self, monkeypatch, arg, fault, error, message):
        graph, params, init, steps = random_instance(np.random.default_rng(24), n_min=3)
        n = graph.n_patches
        args = {"init": np.tile(init[:, None], (1, 4)), "beta_scale": np.ones((n, 4))}
        bad = args[arg]
        if fault == "nan":
            bad[1, 2] = np.nan
        elif fault == "negative":
            bad[1, 2] = -1.0
        elif fault == "above-population":
            bad[1, 2] = graph.populations[1] + 1.0
        elif fault == "wrong-shape":
            args[arg] = bad[:-1]
        elif fault == "vector":
            args[arg] = bad[:, 0]
        elif fault == "other-width":
            args[arg] = bad[:, :3]

        def no_week(*a, **k):
            raise AssertionError("stepped a week before refusing the input")

        monkeypatch.setattr(sim, "_weeks", no_week)
        with pytest.raises(error, match=message):
            plain_totals(graph, patch_coefficients(graph, params, steps), args["init"], beta_scale=args["beta_scale"])


class TestPatchCoefficients:
    def test_gather_equals_broadcast_matrix_product(self):
        """Coefficients computed on region rows and then gathered equal, byte
        for byte, those computed on ``broadcast_matrix @`` patch rows."""
        rng = np.random.default_rng(13)
        for _ in range(10):
            graph, params, _, steps = random_instance(rng)
            patch_rows = {name: graph.broadcast_matrix @ getattr(params, name) for name in PARAM_NAMES}
            for weeks in (steps, steps - 2):
                got = patch_coefficients(graph, params, weeks)
                for k, want in enumerate(week_coefficients(patch_rows)):
                    assert got[k].shape == (weeks, graph.n_patches) and got[k].flags.c_contiguous, k
                    assert got[k].tobytes() == np.ascontiguousarray(want[:, :weeks].T).tobytes(), k

    def test_patch_region_indexes_the_broadcast_matrix(self):
        graph, _, _, _ = random_instance(np.random.default_rng(14))
        assert np.array_equal(graph.broadcast_matrix.argmax(axis=1), graph.patch_region)
        assert np.array_equal(graph.broadcast_matrix.sum(axis=1), np.ones(graph.n_patches))
        assert np.array_equal(graph.n_eff, graph.theta.T.copy() @ graph.populations)
        for name in ("patch_region", "theta_t", "n_eff"):
            assert not getattr(graph, name).flags.writeable, name


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

    @pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf])
    def test_non_finite_count(self, k):
        with pytest.raises(InvalidOption, match="finite"):
            seed_outbreak(np.array([1.0]), "a", k, single_patch_graph())
