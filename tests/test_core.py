import numpy as np
import pytest

from calypso import io
from calypso.core import (
    DataSet,
    DiseaseParams,
    PatchGraph,
    Trajectory,
    aggregate,
    build_travel_matrix,
    metrics,
)
from calypso.errors import DegenerateTruth, NonFiniteOutput, OffDiagonalOverflow, ShapeMismatch, UnknownLevel


def two_patch_graph():
    theta = build_travel_matrix({("a", "b"): 20.0}, {}, {"a": 100.0, "b": 100.0})
    return PatchGraph(
        {"a": 100.0, "b": 100.0},
        {"a": "r0", "b": "r0"},
        {"a": "general", "b": "non-general"},
        theta,
    )


class TestBuildTravelMatrix:
    def test_two_patch_formula(self):
        theta = build_travel_matrix({("a", "b"): 20.0}, {}, {"a": 100.0, "b": 100.0})
        assert np.allclose(theta, [[0.8, 0.2], [0.0, 1.0]])

    def test_zero_flows_is_identity(self):
        theta = build_travel_matrix({}, {}, {"a": 50.0, "b": 70.0, "c": 90.0})
        assert np.array_equal(theta, np.eye(3))

    def test_random_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = rng.integers(2, 8)
            pop = rng.uniform(50, 500, size=n)
            flows = rng.uniform(0, 1, size=(n, n))
            np.fill_diagonal(flows, 0.0)
            # keep total outflow below the population
            flows *= (pop * rng.uniform(0.1, 0.9))[:, None] / np.maximum(flows.sum(axis=1), 1e-9)[:, None]
            theta = build_travel_matrix(flows, np.zeros((n, n)), pop)
            assert np.all(np.abs(theta.sum(axis=1) - 1.0) < 1e-12)
            assert np.all(theta >= 0) and np.all(theta <= 1)

    def test_overflow_names_source_patch(self):
        with pytest.raises(OffDiagonalOverflow, match="'a'"):
            build_travel_matrix({("a", "b"): 150.0}, {}, {"a": 100.0, "b": 100.0})

    def test_negative_flow_rejected(self):
        with pytest.raises(ShapeMismatch):
            build_travel_matrix({("a", "b"): -1.0}, {}, {"a": 100.0, "b": 100.0})

    def test_facility_flows_added(self):
        theta = build_travel_matrix(
            {("a", "b"): 10.0}, {("a", "b"): 10.0}, {"a": 100.0, "b": 100.0}
        )
        assert np.allclose(theta[0], [0.8, 0.2])


class TestAggregate:
    def test_region_sums_member_rows(self):
        g = two_patch_graph()
        series = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert np.allclose(aggregate(series, "region", g), [[5.0, 7.0, 9.0]])

    def test_patch_level_is_identity(self):
        g = two_patch_graph()
        series = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(aggregate(series, "patch", g), series)

    def test_region_total_matches_patch_total(self):
        rng = np.random.default_rng(11)
        theta = np.eye(6)
        pops = {f"p{i}": 10.0 for i in range(6)}
        regions = {f"p{i}": f"r{i % 3}" for i in range(6)}
        cats = {f"p{i}": "general" for i in range(6)}
        g = PatchGraph(pops, regions, cats, theta)
        series = rng.normal(size=(6, 9))
        assert np.allclose(aggregate(series, "region", g).sum(axis=0), series.sum(axis=0))

    def test_state_equals_sum_of_regions_exactly(self):
        rng = np.random.default_rng(13)
        pops = {f"p{i}": 10.0 for i in range(5)}
        regions = {f"p{i}": f"r{i % 2}" for i in range(5)}
        cats = {f"p{i}": "general" for i in range(5)}
        g = PatchGraph(pops, regions, cats, np.eye(5))
        series = rng.normal(size=(5, 30))
        state = aggregate(series, "state", g)
        assert np.array_equal(state, aggregate(series, "region", g).sum(axis=0, keepdims=True))

    def test_linearity(self):
        g = two_patch_graph()
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        lhs = aggregate(2.0 * a + 3.0 * b, "region", g)
        rhs = 2.0 * aggregate(a, "region", g) + 3.0 * aggregate(b, "region", g)
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_unknown_level(self):
        with pytest.raises(UnknownLevel):
            aggregate(np.zeros((2, 3)), "county", two_patch_graph())


class TestMetrics:
    def test_perfect_prediction(self):
        out = metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert out == {"r2": 1.0, "mse": 0.0, "mae": 0.0, "rmse": 0.0}

    def test_constant_offset(self):
        out = metrics([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert out["mse"] == pytest.approx(1.0)
        assert out["mae"] == pytest.approx(1.0)
        assert out["rmse"] == pytest.approx(1.0)

    def test_hand_computed_case(self):
        # SS_res = 1 + 9 = 10, SS_tot = 2 -> r2 = -4
        out = metrics([0.0, 0.0], [1.0, 3.0])
        assert out["mse"] == pytest.approx(5.0)
        assert out["mae"] == pytest.approx(2.0)
        assert out["r2"] == pytest.approx(-4.0)

    def test_constant_truth_is_error(self):
        with pytest.raises(DegenerateTruth):
            metrics([1.0, 2.0], [3.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            metrics([1.0, 2.0], [1.0])

    def test_too_short(self):
        with pytest.raises(ShapeMismatch):
            metrics([1.0], [2.0])


class TestPatchGraph:
    def test_lexicographic_patch_order(self):
        g = PatchGraph(
            {"b": 10.0, "a": 10.0},
            {"a": "r", "b": "r"},
            {"a": "general", "b": "general"},
            np.eye(2),
        )
        assert g.patch_ids == ("a", "b")

    def test_non_stochastic_theta_rejected(self):
        with pytest.raises(ShapeMismatch, match="sums to"):
            PatchGraph({"a": 10.0}, {"a": "r"}, {"a": "general"}, np.array([[0.5]]))

    def test_nonpositive_population_rejected(self):
        with pytest.raises(ShapeMismatch):
            PatchGraph({"a": 0.0}, {"a": "r"}, {"a": "general"}, np.array([[1.0]]))

    def test_region_cover_must_match(self):
        with pytest.raises(ShapeMismatch):
            PatchGraph({"a": 10.0}, {"b": "r"}, {"a": "general"}, np.array([[1.0]]))

    def test_bad_category_rejected(self):
        with pytest.raises(ShapeMismatch):
            PatchGraph({"a": 10.0}, {"a": "r"}, {"a": "hospital"}, np.array([[1.0]]))

    def test_immutable_arrays(self):
        g = two_patch_graph()
        with pytest.raises(ValueError):
            g.theta[0, 0] = 0.5


class TestDiseaseParams:
    def test_rate_bounds_enforced(self):
        with pytest.raises(ShapeMismatch):
            DiseaseParams.constant(("r0",), 3, beta=0.5, gamma=1.5)

    def test_negative_beta_rejected(self):
        with pytest.raises(ShapeMismatch):
            DiseaseParams.constant(("r0",), 3, beta=-0.1, gamma=0.5)

    def test_extended_holds_last_column(self):
        p = DiseaseParams(
            region_ids=("r0",),
            beta=np.array([[0.1, 0.2]]),
            gamma=np.array([[0.3, 0.4]]),
            delta=np.zeros((1, 2)),
            kappa=np.zeros((1, 2)),
            epsilon=np.zeros((1, 2)),
        )
        ext = p.extended(2)
        assert np.allclose(ext.beta, [[0.1, 0.2, 0.2, 0.2]])
        assert np.allclose(ext.gamma, [[0.3, 0.4, 0.4, 0.4]])


class TestCsvRoundTrip:
    def test_graph_and_dataset_round_trip(self, tmp_path):
        g = two_patch_graph()
        observed = np.array([[3.0, 4.0, 5.0, 6.0], [1.0, 1.0, 2.0, 2.0]])
        features = np.stack([observed, observed * 2, observed * 3, observed / 10.0], axis=2)
        data = DataSet(
            features=features,
            observed=observed,
            initial_infections=np.array([3.0, 1.0]),
            horizon=1,
            window=3,
        )
        io.write_inputs(tmp_path, g, data, {("a", "b"): 20.0}, {})
        g2, commute, _ = io.load_graph(tmp_path)
        assert g2.patch_ids == g.patch_ids
        assert np.allclose(g2.theta, g.theta)
        assert np.allclose(g2.populations, g.populations)
        assert commute[("a", "b")] == 20.0
        data2 = io.load_dataset(tmp_path, g2, window=3, horizon=1)
        assert np.allclose(data2.observed, observed)
        assert np.allclose(data2.features, features)
        assert np.allclose(data2.initial_infections, observed[:, 0])

    @pytest.mark.parametrize("name", ["patches.csv", "travel.csv"])
    def test_byte_order_mark_loads_the_same_graph(self, tmp_path, name):
        texts = {"patches.csv": "patch_id,region,category,population\na,r,general,100\nb,r,general,50\n",
                 "travel.csv": "src,dst,commute_flow,facility_flow\na,b,20,0\nb,a,5,1\n"}
        for file, text in texts.items():
            (tmp_path / file).write_text(text, encoding="utf-8")
        plain = io.load_graph(tmp_path)
        (tmp_path / name).write_text("\ufeff" + texts[name], encoding="utf-8")
        marked = io.load_graph(tmp_path)
        assert marked[1:] == plain[1:]
        g, h = marked[0], plain[0]
        assert (g.patch_ids, g.region_of, g.category_of) == (h.patch_ids, h.region_of, h.category_of)
        assert g.populations.tobytes() == h.populations.tobytes() and g.theta.tobytes() == h.theta.tobytes()

    def test_trajectory_round_trip(self, tmp_path):
        g = two_patch_graph()
        traj = Trajectory(
            S=np.array([[97.0, 95.0], [99.0, 99.0]]),
            I=np.array([[3.0, 4.0], [1.0, 1.0]]),
            R=np.array([[0.0, 1.0], [0.0, 0.0]]),
            new_infections=np.array([[4.0], [1.0]]),
        )
        path = io.write_trajectory(tmp_path / "traj.csv", g, traj)
        text = path.read_text()
        assert "patch_id,week_index,S,I,R,new_infections" in text
        summary = io.write_trajectory_summary(tmp_path / "summary.json", g, traj)
        import json

        payload = json.loads(summary.read_text())
        assert payload["cumulative_new_infections"]["state"] == pytest.approx(5.0)

    def test_params_round_trip(self, tmp_path):
        g = two_patch_graph()
        p = DiseaseParams.constant(g.region_ids, 4, beta=0.4, gamma=0.3, delta=0.05, kappa=0.2, epsilon=0.6)
        path = io.write_params(tmp_path / "params.csv", p)
        p2 = io.load_ground_truth_params(path, g)
        for name in ("beta", "gamma", "delta", "kappa", "epsilon"):
            assert np.allclose(getattr(p2, name), getattr(p, name))


class TestResultWriters:
    def test_csv_cells_keep_their_format(self, tmp_path):
        path = io.write_rows(tmp_path / "rows.csv", ["id", "n", "x"],
                             [("a", 3, 2.0), ("b", 4, 0.1), ("", -0.0, 1e15)])
        assert path.read_text() == "id,n,x\na,3,2\nb,4,0.1\n,0,1000000000000000.0\n"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_csv_writer_refuses_non_finite(self, tmp_path, bad):
        path = tmp_path / "rows.csv"
        with pytest.raises(NonFiniteOutput, match=f"rows.csv: line 3: non-finite number {bad}"):
            io.write_rows(path, ["week", "value"], [(0, 1.5), (1, bad)])
        assert not path.exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_json_writer_refuses_non_finite(self, tmp_path, bad):
        path = tmp_path / "result.json"
        with pytest.raises(NonFiniteOutput, match="result.json: Out of range float"):
            io.write_json(path, {"r2": bad})
        assert not path.exists()
