import hashlib
import tracemalloc

import numpy as np
import pytest

from calypso import adapter, calib, synth
from calypso import autodiff as ad
from calypso.adapter import (
    AdapterConfig,
    AdapterNet,
    AdapterTrainConfig,
    refine,
    stack_levels,
    train_adapter,
)
from calypso.errors import InvalidOption, NonFiniteInput, ShapeMismatch


def _time_row(t: int, t_scale: int, harmonics: int) -> np.ndarray:
    """Reference timestep features: one (1, K) row built from Python scalars."""
    x = t / max(t_scale, 1)
    cols = [x]
    for k in range(1, harmonics + 1):
        cols.append(np.sin(2 * np.pi * k * x))
        cols.append(np.cos(2 * np.pi * k * x))
    return np.array(cols)[None, :]  # (1, K)


def _gru_cell(weights, prefix: str, x_parts, h):
    """Reference GRU update: weight names per gate, bias first in each sum;
    ``x_parts`` is a list of (value, weight-name-suffix)."""
    def preact(g: str):
        acc = weights[f"{prefix}_b_{g}"]
        for value, suffix in x_parts:
            acc = ad.matmul(value, weights[f"{prefix}_{suffix}_{g}"]) + acc
        return acc

    z = ad.sigmoid(preact("z") + ad.matmul(h, weights[f"{prefix}_u_z"]))
    r = ad.sigmoid(preact("r") + ad.matmul(h, weights[f"{prefix}_u_r"]))
    cand = ad.tanh(preact("h") + ad.matmul(r * h, weights[f"{prefix}_u_h"]))
    return (1.0 - z) * h + z * cand


def reference_refine(net: AdapterNet, raw: np.ndarray) -> np.ndarray:
    """``refine`` on plain arrays, stepped by ``_gru_cell`` and ``_time_row``."""
    config, w = net.config, net.weights
    scale = net.scale if net.scale is not None else np.ones(raw.shape[0])
    t_scale = net.t_scale if net.t_scale is not None else raw.shape[1]
    raw_norm = raw / scale[:, None]
    h = [np.zeros((raw.shape[0], config.hidden)) for _ in range(config.layers)]
    prev = raw_norm[:, 0]
    out = []
    for t in range(raw.shape[1]):
        parts = [(raw_norm[:, t, None], "raw"), (prev[:, None], "prev"),
                 (_time_row(t, t_scale, config.time_harmonics), "time")]
        h[0] = _gru_cell(w, "l0", parts, h[0])
        for layer in range(1, config.layers):
            h[layer] = _gru_cell(w, f"l{layer}", [(h[layer - 1], "w")], h[layer])
        corr = np.maximum(raw[:, t] + (h[-1] @ w["out_w"] + w["out_b"]) * scale, 0.0)
        out.append(corr)
        prev = corr / scale
    return np.stack(out, axis=1)


@pytest.fixture(scope="module")
def series():
    rng = np.random.default_rng(7)
    weeks = 40
    t = np.arange(weeks)
    truth = np.stack([
        200 + 40 * np.sin(2 * np.pi * t / 20),
        150 + 30 * np.cos(2 * np.pi * t / 16),
        300 + 25 * np.sin(2 * np.pi * t / 24 + 1.0),
    ])
    raw = truth * rng.uniform(0.9, 1.1, size=truth.shape)
    return raw, truth


def checksum(weights):
    h = hashlib.sha256()
    for name in sorted(weights):
        h.update(np.asarray(weights[name]).tobytes())
    return h.hexdigest()


class TestRefine:
    def test_zero_head_is_identity_on_nonnegative_series(self, series):
        raw, _ = series
        net = AdapterNet(seed=0).zero_head_()
        assert np.allclose(refine(net, raw), raw)

    def test_output_clamped_at_zero(self):
        rng = np.random.default_rng(0)
        net = AdapterNet(seed=1)
        net.scale = np.ones(2)
        net.t_scale = 10
        raw = rng.uniform(0, 0.5, size=(2, 10))
        corrected = refine(net, raw)
        assert np.all(corrected >= 0.0)

    def test_non_finite_input_rejected(self):
        net = AdapterNet(seed=0)
        bad = np.full((2, 5), np.nan)
        with pytest.raises(NonFiniteInput):
            refine(net, bad)

    def test_unit_count_must_match_fit(self, series):
        raw, truth = series
        net, _ = train_adapter(AdapterNet(seed=0), raw, truth,
                               AdapterTrainConfig(epochs=2))
        with pytest.raises(ShapeMismatch):
            refine(net, raw[:2])


class TestSharedParts:
    @pytest.mark.parametrize("weeks", [20, 37, 120, 200])
    @pytest.mark.parametrize("harmonics", [3, 4])
    def test_time_features_equal_time_rows_bit_for_bit(self, weeks, harmonics):
        # t_scale below the window puts the later weeks beyond it (x > 1)
        for t_scale in (weeks, weeks - 1, weeks // 3, 1, 0):
            tau = calib.time_features(weeks, harmonics, t_scale)
            rows = np.concatenate([_time_row(t, t_scale, harmonics) for t in range(weeks)])
            assert np.array_equal(tau, rows), t_scale

    def test_refine_matches_the_reference_cell(self, series):
        raw, truth = series
        trained, _ = train_adapter(AdapterNet(AdapterConfig(layers=3), seed=5), raw, truth,
                                   AdapterTrainConfig(epochs=3, seed=0))
        for net in (AdapterNet(seed=2), trained):
            got, want = refine(net, raw), reference_refine(net, raw)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("field, value", [
        ("epochs", -1), ("learning_rate", 0.0), ("learning_rate", -1.0), ("learning_rate", np.nan),
        ("weight_decay", -1e-4), ("weight_decay", np.nan), ("clip_norm", np.nan), ("clip_norm", -1.0),
        ("teacher_ratio", 7.0), ("teacher_ratio", -0.1), ("teacher_ratio", np.nan),
    ])
    def test_bad_training_option_refused(self, field, value):
        with pytest.raises(InvalidOption, match=f"{field} must be"):
            AdapterTrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["hidden", "layers", "time_harmonics"])
    def test_bad_architecture_refused(self, field):
        with pytest.raises(InvalidOption, match=f"{field} must be"):
            AdapterConfig(**{field: -1})


class TestTrainAdapter:
    def test_perfect_raw_learns_near_zero_residual(self, series):
        raw, _ = series
        net, history = train_adapter(AdapterNet(seed=0), raw, raw,
                                     AdapterTrainConfig(epochs=300, seed=0))
        corrected = refine(net, raw)
        resid_mse = np.mean((corrected - raw) ** 2)
        assert resid_mse < 1e-6 * np.var(raw)

    def test_constant_bias_mostly_removed(self, series):
        _, truth = series
        bias = 30.0
        raw = np.clip(truth - bias, 0.0, None)
        net, _ = train_adapter(AdapterNet(seed=0), raw, truth,
                               AdapterTrainConfig(epochs=300, seed=0))
        corrected = refine(net, raw)
        before = np.mean(np.abs(truth - raw))
        after = np.mean(np.abs(truth - corrected))
        assert after <= 0.2 * before

    def test_teacher_ratio_one_is_pure_supervised(self, series):
        raw, truth = series
        cfg = AdapterTrainConfig(epochs=1, teacher_ratio=1.0, seed=0)
        n1, h1 = train_adapter(AdapterNet(seed=0), raw, truth, cfg)
        n2, h2 = train_adapter(AdapterNet(seed=0), raw, truth, cfg)
        assert np.array_equal(h1["loss"], h2["loss"])
        # every step teacher-forced: previous signal is always the truth
        assert checksum(n1.weights) == checksum(n2.weights)

    def test_training_is_seeded_deterministic(self, series):
        raw, truth = series
        cfg = AdapterTrainConfig(epochs=8, seed=3)
        h1 = train_adapter(AdapterNet(seed=0), raw, truth, cfg)[1]["loss"]
        h2 = train_adapter(AdapterNet(seed=0), raw, truth, cfg)[1]["loss"]
        assert np.array_equal(h1, h2)

    def test_shape_mismatch_rejected(self, series):
        raw, truth = series
        with pytest.raises(ShapeMismatch):
            train_adapter(AdapterNet(seed=0), raw, truth[:, :-1], AdapterTrainConfig(epochs=1))

    def test_input_net_untouched(self, series):
        raw, truth = series
        net = AdapterNet(seed=0)
        before = checksum(net.weights)
        train_adapter(net, raw, truth, AdapterTrainConfig(epochs=3))
        assert checksum(net.weights) == before

    def test_epoch_peak_memory(self):
        # The tape keeps only what backward rules read: one epoch on 64
        # units x 40 weeks peaks at 3.47 MiB under tracemalloc (numpy
        # reports its buffers there), 12.45 MiB when every node kept its
        # forward value.  6 MiB sits between the two.
        weeks = np.arange(40)
        truth = 100.0 + 50.0 * np.sin(2 * np.pi * (weeks[None, :] + np.arange(64)[:, None]) / 40)
        tracemalloc.start()
        try:
            train_adapter(AdapterNet(seed=0), 0.8 * truth, truth, AdapterTrainConfig(epochs=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


class TestModularity:
    def test_adapter_training_leaves_calibration_untouched(self):
        bundle = synth.generate(synth.SynthSpec(n_patches=6, n_regions=2, weeks=20,
                                                horizon=2, seed=9))
        net = calib.CalibNet(bundle.data.features.shape[2],
                             config=calib.CalibConfig(hidden=6, decoder_width=6), seed=0)
        result = calib.train_joint(net, bundle.data, bundle.graph,
                                   calib.TrainConfig(epochs=10))
        calib_sum = checksum(result.net.weights)
        traj = calib.forecast(result.net, bundle.data, bundle.graph, 2)
        raw = stack_levels(traj.weekly_series[:, : bundle.data.window], bundle.graph)
        truth = stack_levels(bundle.data.training_observed(), bundle.graph)
        train_adapter(AdapterNet(seed=0), raw, truth, AdapterTrainConfig(epochs=10))
        assert checksum(result.net.weights) == calib_sum


class TestStackLevels:
    def test_row_layout(self):
        bundle = synth.generate(synth.SynthSpec(n_patches=6, n_regions=2, weeks=10,
                                                horizon=2, seed=1))
        series = bundle.data.observed
        stacked = stack_levels(series, bundle.graph)
        n_p, n_r = bundle.graph.n_patches, bundle.graph.n_regions
        assert stacked.shape == (n_p + n_r + 1, series.shape[1])
        assert np.allclose(stacked[:n_p], series)
        assert np.allclose(stacked[-1], series.sum(axis=0))


class TestCheckpoint:
    def test_round_trip(self, series, tmp_path):
        raw, truth = series
        net, _ = train_adapter(AdapterNet(seed=4), raw, truth, AdapterTrainConfig(epochs=3))
        path = adapter.save_checkpoint(tmp_path / "adapter.json", net)
        loaded, _ = adapter.load_checkpoint(path)
        assert np.allclose(refine(loaded, raw), refine(net, raw))
