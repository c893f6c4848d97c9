import numpy as np
import pytest

from calypso import io, synth
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
            members = [p for p in g.patch_ids if g.region_of[p] == rid]
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


# -- the draws before they were vectorised, kept as oracles -------------------

def _observe_loop(traj, spec, populations, rng):
    """One multinomial per positive cohort, patch-major, spread week by week."""
    new_inf = traj.new_infections
    n_patches, total = new_inf.shape
    lo, hi = spec.persistence_range
    n_durations = hi - lo + 1
    probs = np.full(n_durations, 1.0 / n_durations)
    observed = np.zeros((n_patches, total))
    for p in range(n_patches):
        for s in range(total):
            cohort = int(np.rint(new_inf[p, s]))
            if cohort <= 0:
                continue
            counts = [cohort] if n_durations == 1 else rng.multinomial(cohort, probs)
            for d_idx, c in enumerate(counts):
                if c:
                    observed[p, s : s + lo + d_idx] += c
    return np.minimum(observed, np.rint(populations)[:, None])


def _build_graph_loop(spec, rng):
    """One ``rng.random()`` per candidate destination (the graph drawn as before)."""
    per_region, remainder = divmod(spec.n_patches, spec.n_regions)
    populations, region_of, category_of = {}, {}, {}
    for r in range(spec.n_regions):
        rid = f"R{r}"
        count = per_region + (1 if r < remainder else 0)
        n_general = max(1, count - count // 2)
        for j in range(count):
            general = j < n_general
            pid = f"{rid}-{'G' if general else 'N'}{j if general else j - n_general:02d}"
            scale = 1.0 if general else spec.facility_population_scale
            populations[pid] = float(rng.uniform(*spec.population_range)) * scale
            region_of[pid] = rid
            category_of[pid] = GENERAL if general else NON_GENERAL
    ids = sorted(populations)
    general_ids = [p for p in ids if category_of[p] == GENERAL]
    facility_ids = [p for p in ids if category_of[p] == NON_GENERAL]
    commute, facility = {}, {}
    for src in ids:
        out_frac = rng.uniform(*spec.outflow_range)
        commute_targets = [
            d for d in general_ids
            if d != src and rng.random() < spec.mobility_density * (1.0 if region_of[d] == region_of[src] else 0.4)
        ]
        facility_targets = [
            d for d in facility_ids
            if d != src and rng.random() < spec.mobility_density * (1.0 if region_of[d] == region_of[src] else 0.25)
        ]
        targets = commute_targets + facility_targets
        if not targets:
            continue
        weights = rng.uniform(0.2, 1.0, size=len(targets))
        weights = weights / weights.sum() * out_frac * populations[src]
        for d, wgt in zip(commute_targets, weights[: len(commute_targets)]):
            commute[(src, d)] = float(wgt)
        for d, wgt in zip(facility_targets, weights[len(commute_targets):]):
            facility[(src, d)] = float(wgt)
    return populations, region_of, category_of, commute, facility


class TestDrawsMatchTheLoops:
    @pytest.mark.parametrize("persistence", [(2, 4), (3, 3), (1, 6), (1, 1)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_observe_is_bit_equal(self, seed, persistence):
        spec = SynthSpec(n_patches=10, n_regions=2, weeks=16, horizon=2, seed=seed, persistence_range=persistence)
        bundle = generate(spec)
        # cohorts in the last weeks, whose windows run past the end
        assert (np.rint(bundle.trajectory.new_infections[:, -3:]) > 0).any()
        new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        new = synth._observe(bundle.trajectory, spec, bundle.graph.populations, new_rng)
        old = _observe_loop(bundle.trajectory, spec, bundle.graph.populations, old_rng)
        assert new.tobytes() == old.tobytes()
        # the stream is left where the loop leaves it
        assert new_rng.random(4).tobytes() == old_rng.random(4).tobytes()

    @pytest.mark.parametrize("seed,n_patches,n_regions", [(1, 24, 4), (2, 9, 3), (5, 40, 5)])
    def test_build_graph_is_bit_equal(self, seed, n_patches, n_regions):
        spec = SynthSpec(n_patches=n_patches, n_regions=n_regions, seed=seed)
        new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        graph, commute, facility = synth._build_graph(spec, new_rng)
        populations, region_of, category_of, old_commute, old_facility = _build_graph_loop(spec, old_rng)
        assert commute == old_commute and facility == old_facility
        assert list(commute) == list(old_commute) and list(facility) == list(old_facility)
        assert graph.region_of == region_of and graph.category_of == category_of
        assert new_rng.random(4).tobytes() == old_rng.random(4).tobytes()
