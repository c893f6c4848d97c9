import numpy as np
import pytest

from calypso import io
from calypso.core import GENERAL, NON_GENERAL, aggregate
from calypso.errors import InfeasibleSpec
from calypso.synth import SynthSpec, generate


class TestGenerate:
    def test_seeded_determinism(self):
        a = generate(SynthSpec(n_patches=8, n_regions=2, weeks=20, horizon=2, seed=11))
        b = generate(SynthSpec(n_patches=8, n_regions=2, weeks=20, horizon=2, seed=11))
        assert np.array_equal(a.data.observed, b.data.observed)
        assert np.array_equal(a.data.features, b.data.features)
        assert np.array_equal(a.graph.theta, b.graph.theta)
        assert np.array_equal(a.trajectory.I, b.trajectory.I)

    def test_different_seeds_differ(self):
        a = generate(SynthSpec(n_patches=8, n_regions=2, weeks=20, horizon=2, seed=1))
        b = generate(SynthSpec(n_patches=8, n_regions=2, weeks=20, horizon=2, seed=2))
        assert not np.array_equal(a.data.observed, b.data.observed)

    def test_unit_persistence_reproduces_rounded_incidence(self):
        bundle = generate(SynthSpec(n_patches=8, n_regions=2, weeks=20, horizon=2,
                                    seed=3, persistence_range=(1, 1)))
        assert np.array_equal(bundle.data.observed,
                              np.minimum(np.rint(bundle.trajectory.new_infections),
                                         np.rint(bundle.graph.populations)[:, None]))

    def test_observed_are_nonnegative_integers_below_population(self):
        bundle = generate(SynthSpec(seed=4))
        obs = bundle.data.observed
        assert np.all(obs >= 0)
        assert np.array_equal(obs, np.rint(obs))
        assert np.all(obs <= bundle.graph.populations[:, None])

    def test_graph_satisfies_invariants(self):
        bundle = generate(SynthSpec(seed=5))
        g = bundle.graph
        assert np.all(np.abs(g.theta.sum(axis=1) - 1.0) < 1e-9)
        assert np.all(g.populations > 0)
        cats = {g.category_of[p] for p in g.patch_ids}
        assert cats == {GENERAL, NON_GENERAL}
        for rid in g.region_ids:
            members = g.patches_of_region(rid)
            assert any(g.category_of[p] == GENERAL for p in members)
            assert any(g.category_of[p] == NON_GENERAL for p in members)

    def test_observed_tracks_prevalence(self):
        bundle = generate(SynthSpec(seed=0))
        obs_state = aggregate(bundle.data.observed, "state", bundle.graph)[0]
        prev_state = aggregate(bundle.trajectory.weekly_series, "state", bundle.graph)[0]
        r = np.corrcoef(obs_state, prev_state)[0, 1]
        assert r > 0.8

    def test_params_within_calibration_bounds(self):
        from calypso.core import DEFAULT_PARAM_BOUNDS, PARAM_NAMES

        bundle = generate(SynthSpec(seed=6))
        for name in PARAM_NAMES:
            lo, hi = DEFAULT_PARAM_BOUNDS[name]
            arr = getattr(bundle.params, name)
            assert np.all(arr >= lo) and np.all(arr <= hi)

    def test_infeasible_specs_rejected(self):
        with pytest.raises(InfeasibleSpec, match="got 4 patches for 4 regions"):
            SynthSpec(n_patches=4, n_regions=4)
        with pytest.raises(InfeasibleSpec):
            SynthSpec(persistence_range=(0, 3))
        with pytest.raises(InfeasibleSpec):
            SynthSpec(gamma_range=(0.0, 0.5))

    def test_trajectory_conserves_population(self):
        bundle = generate(SynthSpec(seed=7))
        bundle.trajectory.check(bundle.graph.populations)


class TestBundleWrite:
    def test_round_trip_through_csv(self, tmp_path):
        bundle = generate(SynthSpec(n_patches=8, n_regions=2, weeks=16, horizon=2, seed=8))
        bundle.write(tmp_path)
        graph, commute, facility = io.load_graph(tmp_path)
        assert graph.patch_ids == bundle.graph.patch_ids
        assert np.allclose(graph.theta, bundle.graph.theta, atol=1e-12)
        data = io.load_dataset(tmp_path, graph, window=16, horizon=2)
        assert np.array_equal(data.observed, bundle.data.observed)
        assert np.allclose(data.features, bundle.data.features, atol=1e-12)
        params = io.load_ground_truth_params(tmp_path / "ground_truth.csv", graph)
        assert np.allclose(params.beta, bundle.params.beta, atol=1e-15)

    def test_written_files_are_byte_deterministic(self, tmp_path):
        spec = SynthSpec(n_patches=6, n_regions=2, weeks=10, horizon=2, seed=9)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        generate(spec).write(d1)
        generate(spec).write(d2)
        for name in ("patches.csv", "travel.csv", "cases.csv", "features.csv", "ground_truth.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
