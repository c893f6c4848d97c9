import dataclasses
import json
import re

import numpy as np
import pytest

from calypso import calib, synth
from calypso.calib import (
    CalibConfig,
    CalibNet,
    LossWeights,
    TrainConfig,
    forecast,
    infer_params,
    train_joint,
)
from calypso.core import DEFAULT_PARAM_BOUNDS, PARAM_NAMES
from calypso.errors import CheckpointError, InvalidOption, NonFiniteLoss, ShapeMismatch


@pytest.fixture(scope="module")
def bundle():
    return synth.generate(synth.SynthSpec(n_patches=6, n_regions=2, weeks=24, horizon=4, seed=5))


def small_net(bundle, seed=0):
    """A small net as drawn, with the channel names and statistics a fit on ``bundle`` sets."""
    net = CalibNet(bundle.data.features.shape[2], config=CalibConfig(hidden=8, decoder_width=8), seed=seed)
    net.norm_mean, net.norm_std = calib.feature_stats(calib.region_features(bundle.data, bundle.graph, (0.0, 1.0)))
    net.feature_names = bundle.data.feature_names
    return net


class TestInferParams:
    def test_zero_weights_give_bound_midpoints(self, bundle):
        net = small_net(bundle)
        for w in net.weights.values():
            w[...] = 0.0
        params = infer_params(net, bundle.data, bundle.graph)
        for name in PARAM_NAMES:
            lo, hi = DEFAULT_PARAM_BOUNDS[name]
            assert np.allclose(getattr(params, name), lo + (hi - lo) / 2)

    def test_outputs_always_within_bounds(self, bundle):
        rng = np.random.default_rng(0)
        for trial in range(10):
            net = small_net(bundle, seed=trial)
            for k in net.weights:
                net.weights[k] = rng.normal(scale=3.0, size=net.weights[k].shape)
            params = infer_params(net, bundle.data, bundle.graph)
            for name in PARAM_NAMES:
                lo, hi = DEFAULT_PARAM_BOUNDS[name]
                arr = getattr(params, name)
                assert np.all(arr >= lo - 1e-12) and np.all(arr <= hi + 1e-12)

    def test_output_shape_is_regions_by_window(self, bundle):
        params = infer_params(small_net(bundle), bundle.data, bundle.graph)
        assert params.beta.shape == (bundle.graph.n_regions, bundle.data.window)

    def test_a_net_never_fit_is_refused(self, bundle):
        net = CalibNet(bundle.data.features.shape[2])
        with pytest.raises(InvalidOption, match="calibration net was never fit: train_joint sets"):
            infer_params(net, bundle.data, bundle.graph)

    @pytest.mark.parametrize("names", [("mssa", "mrsa", "prescriptions", "norm_incidence"),
                                       ("mrsa", "mssa", "prescriptions", "incidence")], ids=["swapped", "renamed"])
    def test_data_with_other_channel_names_is_refused(self, bundle, names):
        net = small_net(bundle)
        data = dataclasses.replace(bundle.data, feature_names=names)
        with pytest.raises(ShapeMismatch, match=re.escape(f"net was fit on feature channels "
                                                          f"{list(bundle.data.feature_names)}, data has {list(names)}")):
            infer_params(net, data, bundle.graph)

    def test_data_with_fewer_channels_is_refused(self, bundle):
        data = dataclasses.replace(bundle.data, features=bundle.data.features[:, :, :3],
                                   feature_names=bundle.data.feature_names[:3])
        with pytest.raises(ShapeMismatch, match="net was fit on feature channels"):
            infer_params(small_net(bundle), data, bundle.graph)

    def test_deterministic(self, bundle):
        net = small_net(bundle)
        p1 = infer_params(net, bundle.data, bundle.graph)
        p2 = infer_params(net, bundle.data, bundle.graph)
        assert np.array_equal(p1.beta, p2.beta)

    def test_dead_input_channel_is_ignored(self, bundle):
        # zero-weighted channel: doubling it cannot move the outputs
        net = small_net(bundle)
        for name in ("enc_wz", "enc_wr", "enc_wh"):
            net.weights[name][1, :] = 0.0
        p1 = infer_params(net, bundle.data, bundle.graph)
        features = np.array(bundle.data.features)
        features[:, :, 1] *= 2.0
        data2 = dataclasses.replace(bundle.data, features=features)
        p2 = infer_params(net, data2, bundle.graph)
        assert np.allclose(p1.beta, p2.beta, atol=1e-12)

    def test_trained_net_freezes_normalization(self, bundle):
        # inference on new inputs reuses the fit-time channel statistics
        from calypso.calib import train_joint

        result = train_joint(small_net(bundle), bundle.data, bundle.graph,
                             TrainConfig(epochs=2, seed=0))
        assert result.net.norm_mean is not None and result.net.feature_names == bundle.data.feature_names
        features = np.array(bundle.data.features)
        features[:, :, 0] *= 3.0
        data2 = dataclasses.replace(bundle.data, features=features)
        p1 = infer_params(result.net, bundle.data, bundle.graph)
        p2 = infer_params(result.net, data2, bundle.graph)
        assert not np.allclose(p1.beta, p2.beta)


class TestMultiResolutionLoss:
    """The loss ``train_joint`` records, on plain weekly prediction columns."""

    def test_zero_when_prediction_matches(self, bundle):
        obs = bundle.data.training_observed()
        assert calib._mr_loss(list(obs.T), obs, bundle.graph, LossWeights()) == pytest.approx(0.0)

    def test_hand_computed_patch_term(self):
        # 4 patches, 10 steps, single error of 2 -> patch MSE 4/40 = 0.1
        import calypso.core as core

        ids = [f"p{i}" for i in range(4)]
        g = core.PatchGraph({p: 100.0 for p in ids}, {p: "r0" for p in ids},
                            {p: "general" for p in ids}, np.eye(4))
        pred = np.zeros((4, 10))
        pred[0, 2] = 2.0  # week 2 prediction off by 2
        loss = calib._mr_loss(list(pred.T), np.zeros((4, 10)), g, LossWeights(1.0, 0.0, 0.0))
        assert loss == pytest.approx(0.1)

    def test_relabeling_invariance(self, bundle):
        g, obs = bundle.graph, bundle.data.training_observed()
        rng = np.random.default_rng(1)
        pred = rng.uniform(0, 50, size=obs.shape)
        base = calib._mr_loss(list(pred.T), obs, g, LossWeights())

        import calypso.core as core

        perm = np.arange(g.n_patches)[::-1]
        new_ids = [f"z{k}" for k in range(g.n_patches)]
        g2 = core.PatchGraph(
            {new_ids[k]: g.populations[perm[k]] for k in range(g.n_patches)},
            {new_ids[k]: g.region_of[g.patch_ids[perm[k]]] for k in range(g.n_patches)},
            {new_ids[k]: g.category_of[g.patch_ids[perm[k]]] for k in range(g.n_patches)},
            g.theta[np.ix_(perm, perm)],
        )
        relabeled = calib._mr_loss(list(pred[perm].T), obs[perm], g2, LossWeights())
        assert relabeled == pytest.approx(base, rel=1e-12)

    def test_weights_validated(self):
        with pytest.raises(InvalidOption):
            LossWeights(0.0, 0.0, 0.0)
        with pytest.raises(InvalidOption):
            LossWeights(-1.0, 1.0, 1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidOption, match="w_region must be finite"):
                LossWeights(1.0, bad, 1.0)


class TestTrainJoint:
    def test_zero_epochs_returns_initial_net(self, bundle):
        net = small_net(bundle)
        before = {k: v.copy() for k, v in net.weights.items()}
        result = train_joint(net, bundle.data, bundle.graph, TrainConfig(epochs=0))
        for k in before:
            assert np.array_equal(result.net.weights[k], before[k])
            assert np.array_equal(net.weights[k], before[k])

    def test_loss_history_finite_and_decreasing(self, bundle):
        net = small_net(bundle)
        result = train_joint(net, bundle.data, bundle.graph, TrainConfig(epochs=200, seed=0))
        assert np.all(np.isfinite(result.history["loss"]))
        assert result.best_loss < result.history["loss"][0]

    def test_deterministic_history(self, bundle):
        h1 = train_joint(small_net(bundle), bundle.data, bundle.graph,
                         TrainConfig(epochs=25, seed=0)).history["loss"]
        h2 = train_joint(small_net(bundle), bundle.data, bundle.graph,
                         TrainConfig(epochs=25, seed=0)).history["loss"]
        assert np.array_equal(h1, h2)

    def test_input_net_not_mutated(self, bundle):
        net = small_net(bundle)
        before = {k: v.copy() for k, v in net.weights.items()}
        train_joint(net, bundle.data, bundle.graph, TrainConfig(epochs=10))
        for k in before:
            assert np.array_equal(net.weights[k], before[k])

    @pytest.mark.parametrize("config, field, value", [
        (CalibConfig, "hidden", 0), (CalibConfig, "decoder_width", 0), (CalibConfig, "time_harmonics", -1),
        (TrainConfig, "epochs", -1), (TrainConfig, "learning_rate", np.nan),
        (TrainConfig, "learning_rate", -1.0), (TrainConfig, "learning_rate", np.inf),
        (TrainConfig, "weight_decay", np.nan), (TrainConfig, "clip_norm", np.nan),
        (TrainConfig, "clip_norm", -1.0), (TrainConfig, "lr_step", 0), (TrainConfig, "lr_decay", 0.0),
    ])
    def test_bad_option_refused(self, config, field, value):
        with pytest.raises(InvalidOption, match=f"{field} must be"):
            config(**{field: value})

    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_parameter_out_of_bounds_refused_naming_the_epoch(self, bundle, monkeypatch, shift):
        # one week of epoch 1 leaves the interval by a full span, below or above
        network_bounded, calls = calib._network_bounded, []

        def nudged(weights, feats, tau, lo, span, config):
            out = network_bounded(weights, feats, tau, lo, span, config)
            calls.append(len(out))
            if len(calls) == 2:
                out[7] = out[7] + shift * span
            return out

        monkeypatch.setattr(calib, "_network_bounded", nudged)
        with pytest.raises(NonFiniteLoss, match="^epoch 1: parameter left its bound interval$"):
            train_joint(small_net(bundle), bundle.data, bundle.graph, TrainConfig(epochs=3))
        assert calls == [bundle.data.window] * 2

    def test_window_too_short_rejected(self, bundle):
        tiny = dataclasses.replace(bundle.data, window=5, horizon=0)
        with pytest.raises(InvalidOption, match="training window must be >= 8 weeks, got 5"):
            train_joint(small_net(bundle), tiny, bundle.graph, TrainConfig(epochs=1))

    def test_gradient_matches_finite_differences(self, bundle):
        # every network weight, 3-patch/2-region/10-step instance
        import calypso.autodiff as ad
        from calypso import sim
        from calypso.autodiff import Tape

        spec = synth.SynthSpec(n_patches=4, n_regions=2, weeks=10, horizon=2, seed=3)
        b = synth.generate(spec)
        net = CalibNet(b.data.features.shape[2], config=CalibConfig(hidden=6, decoder_width=6), seed=1)
        feats = calib.region_features(b.data, b.graph)
        tau = calib.time_features(b.data.window, net.config.time_harmonics)
        lo, span = net.bound_arrays()
        observed = b.data.training_observed()
        bmat = b.graph.broadcast_matrix
        lw = LossWeights()

        def loss_for(weights):
            bounded = calib._network_bounded(weights, feats, tau, lo, span, net.config)

            def step_params(t):
                m = ad.matmul(bmat, bounded[t])
                return {name: ad.col(m, j) for j, name in enumerate(PARAM_NAMES)}

            _, i_hist, _, _ = sim.iterate_sirs(b.graph, step_params, b.data.initial_infections,
                                               b.data.window)
            return calib._mr_loss(i_hist[1:], observed, b.graph, lw)

        tape = Tape()
        duals = {n: tape.variable(w) for n, w in net.weights.items()}
        adj = tape.backward(loss_for(duals))
        grads = {n: adj[duals[n].index] for n in duals}
        gmax = max(np.abs(g).max() for g in grads.values())

        rng = np.random.default_rng(0)
        for name, w in net.weights.items():
            flat_indices = list(np.ndindex(w.shape))
            picks = rng.choice(len(flat_indices), size=min(6, len(flat_indices)), replace=False)
            for p in picks:
                idx = flat_indices[p]
                h = 1e-5 * max(1.0, abs(w[idx]))
                orig = w[idx]
                w[idx] = orig + h
                fp = float(ad.value_of(loss_for(net.weights)))
                w[idx] = orig - h
                fm = float(ad.value_of(loss_for(net.weights)))
                w[idx] = orig
                fd = (fp - fm) / (2 * h)
                denom = max(abs(fd), abs(grads[name][idx]), 1e-6 * gmax)
                assert abs(fd - grads[name][idx]) / denom < 1e-3


class TestForecast:
    def test_prefix_consistency(self, bundle):
        net = small_net(bundle)
        f4 = forecast(net, bundle.data, bundle.graph, 4)
        f8 = forecast(net, bundle.data, bundle.graph, 8)
        assert np.allclose(f8.I[:, : f4.I.shape[1]], f4.I, rtol=1e-12)

    def test_state_additivity(self, bundle):
        from calypso.core import aggregate

        net = small_net(bundle)
        traj = forecast(net, bundle.data, bundle.graph, 4)
        state = aggregate(traj.weekly_series, "state", bundle.graph)[0]
        assert np.allclose(state, traj.weekly_series.sum(axis=0), rtol=1e-9)

    def test_steady_state_continues_fixed_point(self):
        # an equilibrated system keeps its level over the horizon
        import calypso.core as core
        from calypso.sim import SimConfig, simulate

        g = core.PatchGraph({"a": 1000.0}, {"a": "r"}, {"a": "general"}, np.array([[1.0]]))
        params = core.DiseaseParams.constant(g.region_ids, 300, beta=0.6, gamma=0.3,
                                             delta=0.1, kappa=0.0, epsilon=1.0)
        long_run = simulate(g, params, np.array([50.0]), SimConfig(steps=300))
        i_eq = long_run.I[0, -1]
        ext = params.extended(4)
        cont = simulate(g, ext, np.array([50.0]), SimConfig(steps=304))
        assert np.allclose(cont.I[0, -4:], i_eq, rtol=1e-3)

    def test_horizon_zero_is_the_fit_alone(self, bundle):
        from calypso.sim import SimConfig, simulate

        net, data, graph = small_net(bundle), bundle.data, bundle.graph
        got = forecast(net, data, graph, 0)
        want = simulate(graph, infer_params(net, data, graph), data.initial_infections, SimConfig(data.window))
        for name in ("S", "I", "R", "new_infections"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestCheckpoint:
    def test_round_trip_preserves_inference(self, bundle, tmp_path):
        net = small_net(bundle)
        result = train_joint(net, bundle.data, bundle.graph, TrainConfig(epochs=5))
        path = calib.save_checkpoint(tmp_path / "ckpt.json", result.net, extra={"note": 1})
        loaded = calib.load_checkpoint(path)
        assert json.loads(path.read_text())["extra"] == {"note": 1}
        assert loaded.feature_names == bundle.data.feature_names
        p1 = infer_params(result.net, bundle.data, bundle.graph)
        p2 = infer_params(loaded, bundle.data, bundle.graph)
        assert np.array_equal(p1.beta, p2.beta)
        assert json.loads(path.read_text())["bounds"] == {k: list(v) for k, v in DEFAULT_PARAM_BOUNDS.items()}

    def test_non_finite_value_is_not_written(self, bundle, tmp_path):
        with pytest.raises(CheckpointError):
            calib.save_checkpoint(tmp_path / "ckpt.json", small_net(bundle), extra={"best_r2": float("nan")})
        assert not (tmp_path / "ckpt.json").exists()

    @pytest.mark.parametrize("unset", ["feature_names", "norm_mean", "norm_std"])
    def test_a_net_never_fit_is_not_written(self, bundle, tmp_path, unset):
        net = small_net(bundle)
        setattr(net, unset, None)
        with pytest.raises(InvalidOption, match=f"ckpt.json: the calib net was never fit \\({unset} is not set\\)"):
            calib.save_checkpoint(tmp_path / "ckpt.json", net)
        assert not (tmp_path / "ckpt.json").exists()
