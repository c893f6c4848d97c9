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
    multi_resolution_loss,
    train_joint,
)
from calypso.core import DEFAULT_PARAM_BOUNDS, PARAM_NAMES, DataSet, Trajectory
from calypso.errors import CheckpointError, HorizonZero, ShapeMismatch, WindowMismatch


@pytest.fixture(scope="module")
def bundle():
    return synth.generate(synth.SynthSpec(n_patches=6, n_regions=2, weeks=24, horizon=4, seed=5))


def small_net(bundle, seed=0):
    return CalibNet(bundle.data.features.shape[2],
                    config=CalibConfig(hidden=8, decoder_width=8), seed=seed)


class TestInferParams:
    def test_zero_weights_give_bound_midpoints(self, bundle):
        net = small_net(bundle).zero_()
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
        import dataclasses

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
        assert result.net.norm_mean is not None
        import dataclasses

        features = np.array(bundle.data.features)
        features[:, :, 0] *= 3.0
        data2 = dataclasses.replace(bundle.data, features=features)
        p1 = infer_params(result.net, bundle.data, bundle.graph)
        p2 = infer_params(result.net, data2, bundle.graph)
        assert not np.allclose(p1.beta, p2.beta)


class TestMultiResolutionLoss:
    def test_zero_when_prediction_matches(self, bundle):
        g, d = bundle.graph, bundle.data
        W = d.window
        obs = d.training_observed()
        ident = Trajectory(
            S=np.zeros((g.n_patches, W + 1)),
            I=np.concatenate([d.initial_infections[:, None], obs], axis=1),
            R=np.zeros((g.n_patches, W + 1)),
            new_infections=np.zeros((g.n_patches, W)),
        )
        assert multi_resolution_loss(ident, d, LossWeights(), g) == pytest.approx(0.0)

    def test_hand_computed_patch_term(self):
        # 4 patches, 10 steps, single error of 2 -> patch MSE 4/40 = 0.1
        import calypso.core as core

        ids = [f"p{i}" for i in range(4)]
        g = core.PatchGraph({p: 100.0 for p in ids}, {p: "r0" for p in ids},
                            {p: "general" for p in ids}, np.eye(4))
        obs = np.zeros((4, 10))
        features = np.zeros((4, 10, 1))
        d = DataSet(features=features, observed=obs, initial_infections=np.zeros(4),
                    horizon=0, window=10, feature_names=("x",))
        i_mat = np.zeros((4, 11))
        i_mat[0, 3] = 2.0  # week 2 prediction off by 2
        traj = Trajectory(S=np.zeros((4, 11)), I=i_mat, R=np.zeros((4, 11)),
                          new_infections=np.zeros((4, 10)))
        loss = multi_resolution_loss(traj, d, LossWeights(1.0, 0.0, 0.0), g)
        assert loss == pytest.approx(0.1)

    def test_relabeling_invariance(self, bundle):
        g, d = bundle.graph, bundle.data
        rng = np.random.default_rng(1)
        W = d.window
        i_mat = rng.uniform(0, 50, size=(g.n_patches, W + 1))
        traj = Trajectory(S=np.zeros_like(i_mat), I=i_mat, R=np.zeros_like(i_mat),
                          new_infections=None)
        base = multi_resolution_loss(traj, d, LossWeights(), g)

        import calypso.core as core
        import dataclasses

        perm = np.arange(g.n_patches)[::-1]
        new_ids = [f"z{k}" for k in range(g.n_patches)]
        g2 = core.PatchGraph(
            {new_ids[k]: g.populations[perm[k]] for k in range(g.n_patches)},
            {new_ids[k]: g.region_of[g.patch_ids[perm[k]]] for k in range(g.n_patches)},
            {new_ids[k]: g.category_of[g.patch_ids[perm[k]]] for k in range(g.n_patches)},
            g.theta[np.ix_(perm, perm)],
        )
        d2 = dataclasses.replace(d, features=d.features[perm], observed=d.observed[perm],
                                 initial_infections=d.initial_infections[perm])
        traj2 = dataclasses.replace(traj, I=i_mat[perm], S=np.zeros_like(i_mat),
                                    R=np.zeros_like(i_mat))
        assert multi_resolution_loss(traj2, d2, LossWeights(), g2) == pytest.approx(base, rel=1e-12)

    def test_window_mismatch(self, bundle):
        g, d = bundle.graph, bundle.data
        short = Trajectory(S=np.zeros((g.n_patches, 3)), I=np.zeros((g.n_patches, 3)),
                           R=np.zeros((g.n_patches, 3)), new_infections=None)
        with pytest.raises(WindowMismatch):
            multi_resolution_loss(short, d, LossWeights(), g)

    def test_weights_validated(self):
        with pytest.raises(ShapeMismatch):
            LossWeights(0.0, 0.0, 0.0)
        with pytest.raises(ShapeMismatch):
            LossWeights(-1.0, 1.0, 1.0)


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

    def test_window_too_short_rejected(self, bundle):
        import dataclasses

        tiny = dataclasses.replace(bundle.data, window=5, horizon=0)
        with pytest.raises(WindowMismatch):
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

    def test_horizon_zero_rejected(self, bundle):
        with pytest.raises(HorizonZero):
            forecast(small_net(bundle), bundle.data, bundle.graph, 0)


class TestCheckpoint:
    def test_round_trip_preserves_inference(self, bundle, tmp_path):
        net = small_net(bundle)
        result = train_joint(net, bundle.data, bundle.graph, TrainConfig(epochs=5))
        path = calib.save_checkpoint(tmp_path / "ckpt.json", result.net, extra={"note": 1})
        loaded, extra = calib.load_checkpoint(path)
        assert extra == {"note": 1}
        p1 = infer_params(result.net, bundle.data, bundle.graph)
        p2 = infer_params(loaded, bundle.data, bundle.graph)
        assert np.array_equal(p1.beta, p2.beta)
        assert loaded.bounds == result.net.bounds

    def test_non_finite_value_is_not_written(self, bundle, tmp_path):
        with pytest.raises(CheckpointError):
            calib.save_checkpoint(tmp_path / "ckpt.json", small_net(bundle), extra={"best_r2": float("nan")})
        assert not (tmp_path / "ckpt.json").exists()
