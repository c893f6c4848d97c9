import gc
import operator
import tracemalloc
import weakref

import numpy as np
import pytest

from calypso import autodiff as ad
from calypso.autodiff import Tape
from calypso.errors import InvalidValue, NonFiniteLoss, ShapeMismatch


def numeric_grad(f, x, h=1e-6):
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f(x)
        x[idx] = orig - h
        fm = f(x)
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
    return g


def check_unary(op_np, op_ad, rng, positive=False, n_cases=100):
    worst = 0.0
    for _ in range(n_cases):
        x = rng.uniform(0.2, 2.0, size=rng.integers(1, 6)) if positive else rng.normal(size=rng.integers(1, 6))
        tape = Tape()
        xv = tape.variable(x.copy())
        out = ad.vsum(op_ad(xv))
        adj = tape.backward(out)
        fd = numeric_grad(lambda a: float(np.sum(op_np(a))), x.copy())
        err = np.abs(adj[xv.index] - fd)
        tol = np.maximum(1e-6, 1e-4 * np.abs(fd))
        worst = max(worst, float((err / np.maximum(tol, 1e-300)).max()))
        assert np.all(err <= tol)
    return worst


class TestForwardValues:
    def test_sigmoid_at_zero(self):
        tape = Tape()
        x = tape.variable(np.array(0.0))
        s = ad.sigmoid(x)
        assert s.value == pytest.approx(0.5)
        adj = tape.backward(s)
        assert adj[x.index] == pytest.approx(0.25)

    def test_min_values_and_partials(self):
        tape = Tape()
        a = tape.variable(np.array(2.0))
        b = tape.variable(np.array(3.0))
        m = ad.minimum(a, b)
        assert m.value == pytest.approx(2.0)
        adj = tape.backward(m)
        assert adj[a.index] == pytest.approx(1.0)
        assert adj[b.index] == pytest.approx(0.0)

    def test_min_tie_goes_to_first_argument(self):
        tape = Tape()
        a = tape.variable(np.array(1.5))
        b = tape.variable(np.array(1.5))
        adj = tape.backward(ad.minimum(a, b))
        assert adj[a.index] == pytest.approx(1.0)
        assert adj[b.index] == pytest.approx(0.0)

    def test_product_rule_example(self):
        # d(x*y + y)/dy at (2, 3) is x + 1 = 3
        tape = Tape()
        x = tape.variable(np.array(2.0))
        y = tape.variable(np.array(3.0))
        adj = tape.backward(x * y + y)
        assert adj[y.index] == pytest.approx(3.0)
        assert adj[x.index] == pytest.approx(3.0)


class TestBackward:
    def test_leaf_root_has_unit_adjoint(self):
        tape = Tape()
        x = tape.variable(np.array(4.0))
        adj = tape.backward(x)
        assert adj[x.index] == pytest.approx(1.0)

    def test_fan_in_accumulates(self):
        tape = Tape()
        a = tape.variable(np.array(1.0))
        adj = tape.backward(a + a)
        assert adj[a.index] == pytest.approx(2.0)

    def test_non_scalar_root_rejected(self):
        tape = Tape()
        x = tape.variable(np.array([1.0, 2.0]))
        with pytest.raises(ShapeMismatch, match="backward root must be scalar"):
            tape.backward(x)

    def test_repeated_backward_resets(self):
        tape = Tape()
        a = tape.variable(np.array(1.0))
        out = a + a
        first = tape.backward(out)
        second = tape.backward(out)
        assert first[a.index] == second[a.index] == pytest.approx(2.0)

    def test_tape_mismatch(self):
        t1, t2 = Tape(), Tape()
        a = t1.variable(np.array(1.0))
        b = t2.variable(np.array(1.0))
        with pytest.raises(ShapeMismatch, match="operands live on different tapes"):
            _ = a + b

    def test_division_by_zero(self):
        tape = Tape()
        a = tape.variable(np.array([1.0]))
        with pytest.raises(InvalidValue, match="division by zero on tape"):
            _ = a / np.array([0.0])

    def test_matmul_negation_and_a_plain_dividend_have_no_operator(self):
        # model code multiplies matrices through ad.matmul and never negates
        # a tape value or divides by one
        tape = Tape()
        a = tape.variable(np.ones((2, 2)))
        for op in (lambda: a @ np.ones(2), lambda: np.ones(2) @ a, lambda: -a, lambda: 1.0 / a):
            with pytest.raises(TypeError):
                op()
        assert len(tape) == 1

    def test_unreached_nodes_get_zero_adjoints(self):
        tape = Tape()
        a = tape.variable(np.array(1.0))
        b = tape.variable(np.array(5.0))
        adj = tape.backward(a * 2.0)
        assert adj[b.index] == pytest.approx(0.0)

    def test_only_variables_carry_adjoints(self):
        tape = Tape()
        a = tape.variable(np.array([1.0, 2.0]))
        b = tape.variable(np.array(5.0))
        h = ad.tanh(a * np.array([3.0, 4.0]) + 1.0)
        adj = tape.backward(ad.vsum(h * h))
        assert set(adj) == {a.index, b.index}
        assert np.array_equal(adj[b.index], np.zeros(()))

    def test_no_adjoint_toward_a_constant_operand(self):
        big = np.ones((1000, 1000))  # 8 MB: an adjoint of its shape would show in the peak
        tape = Tape()
        v = tape.variable(np.arange(1000.0))
        out = ad.vsum(ad.matmul(big, v))
        tracemalloc.start()
        try:
            adj = tape.backward(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < big.nbytes / 10
        assert set(adj) == {v.index}
        assert np.array_equal(adj[v.index], big.T @ np.ones(1000))


class TestGradientsAgainstFiniteDifferences:
    def test_elementwise_ops(self):
        rng = np.random.default_rng(0)
        check_unary(np.tanh, ad.tanh, rng)
        check_unary(lambda x: 1 / (1 + np.exp(-x)), ad.sigmoid, rng)
        check_unary(lambda x: np.maximum(x, 0.0), ad.relu, rng)

    def test_binary_ops(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = rng.integers(1, 6)
            a = rng.normal(size=n)
            b = rng.uniform(0.3, 2.0, size=n)
            for op_np, op_ad in (
                (lambda u, v: u + v, lambda u, v: u + v),
                (lambda u, v: u - v, lambda u, v: u - v),
                (lambda u, v: u * v, lambda u, v: u * v),
                (lambda u, v: u / v, lambda u, v: u / v),
                (np.minimum, ad.minimum),
            ):
                tape = Tape()
                av, bv = tape.variable(a.copy()), tape.variable(b.copy())
                adj = tape.backward(ad.vsum(op_ad(av, bv)))
                fd_a = numeric_grad(lambda x: float(np.sum(op_np(x, b))), a.copy())
                fd_b = numeric_grad(lambda x: float(np.sum(op_np(a, x))), b.copy())
                for got, want in ((adj[av.index], fd_a), (adj[bv.index], fd_b)):
                    assert np.all(np.abs(got - want) <= np.maximum(1e-6, 1e-4 * np.abs(want)))

    def test_matmul_all_shapes(self):
        rng = np.random.default_rng(2)
        cases = [((3, 4), (4, 2)), ((3, 4), (4,)), ((3,), (3, 2)), ((4,), (4,))]
        for sa, sb in cases:
            a = rng.normal(size=sa)
            b = rng.normal(size=sb)
            tape = Tape()
            av, bv = tape.variable(a.copy()), tape.variable(b.copy())
            adj = tape.backward(ad.vsum(ad.matmul(av, bv)))
            fd_a = numeric_grad(lambda x: float(np.sum(x @ b)), a.copy())
            fd_b = numeric_grad(lambda x: float(np.sum(a @ x)), b.copy())
            assert np.allclose(adj[av.index], fd_a, atol=1e-6)
            assert np.allclose(adj[bv.index], fd_b, atol=1e-6)

    def test_sum_and_broadcast(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(1, 3))
        tape = Tape()
        av, bv = tape.variable(a.copy()), tape.variable(b.copy())
        out = ad.vsum((av + bv) * np.arange(1.0, 4.0)) * ad.vsum(bv)
        adj = tape.backward(out)
        fd_a = numeric_grad(lambda x: float(np.sum((x + b) * np.arange(1.0, 4.0)) * np.sum(b)), a.copy())
        fd_b = numeric_grad(lambda x: float(np.sum((a + x) * np.arange(1.0, 4.0)) * np.sum(x)), b.copy())
        assert np.allclose(adj[av.index], fd_a, atol=1e-6)
        assert np.allclose(adj[bv.index], fd_b, atol=1e-6)

    def test_col_and_colvec(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 3))
        v = rng.normal(size=5)
        tape = Tape()
        av = tape.variable(a.copy())
        vv = tape.variable(v.copy())
        out = ad.vsum(ad.col(av, 1) * vv) + ad.vsum(ad.matmul(ad.colvec(vv), np.ones((1, 2))))
        adj = tape.backward(out)
        fd_a = numeric_grad(lambda x: float(np.sum(x[:, 1] * v)) + 2 * float(np.sum(v)), a.copy())
        assert np.allclose(adj[av.index], fd_a, atol=1e-6)
        assert np.allclose(adj[vv.index], a[:, 1] + 2.0, atol=1e-6)

    def test_col_scatter_leaves_a_shared_adjoint_intact(self):
        # m is read by two col nodes on column 1 and, after them, by m + w;
        # the add hands m and w one adjoint array, which the col scatter
        # into m's adjoint must not write through
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(4, 3))
        u = rng.normal(size=4)

        def f(xa, wa):
            m = ad.tanh(xa)
            c1, c2 = ad.col(m, 1), ad.col(m, 1)
            s = m + wa
            return ad.vsum(c1 * c2 * u) + ad.vsum(c1) + ad.vsum(s * s)

        tape = Tape()
        xv, wv = tape.variable(x.copy()), tape.variable(w.copy())
        adj = tape.backward(f(xv, wv))
        fd_x = numeric_grad(lambda a: float(f(a, w)), x.copy())
        fd_w = numeric_grad(lambda a: float(f(x, a)), w.copy())
        assert np.allclose(adj[xv.index], fd_x, atol=1e-6)
        assert np.allclose(adj[wv.index], fd_w, atol=1e-6)


class TestProperties:
    def test_sum_gradient_linearity(self):
        # gradient of a sum over patches equals the sum of per-patch gradients
        rng = np.random.default_rng(5)
        x = rng.normal(size=6)
        tape = Tape()
        xv = tape.variable(x.copy())
        total = ad.vsum(ad.tanh(xv))
        adj_total = tape.backward(total)[xv.index]
        per_patch = np.zeros_like(x)
        for i in range(x.size):
            tape_i = Tape()
            xi = tape_i.variable(x.copy())
            mask = np.zeros_like(x)
            mask[i] = 1.0
            adj_i = tape_i.backward(ad.vsum(ad.tanh(xi) * mask))
            per_patch += adj_i[xi.index]
        assert np.allclose(adj_total, per_patch, rtol=1e-12)

    def test_replay_determinism(self):
        def run():
            rng = np.random.default_rng(6)
            tape = Tape()
            a = tape.variable(rng.normal(size=(3, 3)))
            b = tape.variable(rng.normal(size=(3,)))
            out = ad.vsum(ad.tanh(ad.matmul(a, b)) * b)
            adj = tape.backward(out)
            return out.value.copy(), adj[a.index].copy(), adj[b.index].copy()

        v1, ga1, gb1 = run()
        v2, ga2, gb2 = run()
        assert np.array_equal(v1, v2)
        assert np.array_equal(ga1, ga2)
        assert np.array_equal(gb1, gb2)


class TestSimulatorGradient:
    def test_beta_gradient_matches_finite_differences(self):
        # full SIRS loss on a 3-patch, 10-step instance, d(loss)/d(beta entries)
        from calypso import calib, sim
        from calypso.core import PatchGraph

        rng = np.random.default_rng(8)
        pops = {"a": 120.0, "b": 90.0, "c": 150.0}
        theta = np.array([[0.8, 0.1, 0.1], [0.05, 0.9, 0.05], [0.2, 0.1, 0.7]])
        g = PatchGraph(pops, {"a": "r0", "b": "r0", "c": "r1"},
                       {"a": "general", "b": "non-general", "c": "general"}, theta)
        steps = 10
        beta = rng.uniform(0.2, 0.8, size=(2, steps))
        fixed = {
            "gamma": np.full((2, steps), 0.3),
            "delta": np.full((2, steps), 0.05),
            "kappa": np.full((2, steps), 0.2),
            "epsilon": np.full((2, steps), 0.5),
        }
        init = np.array([5.0, 3.0, 8.0])
        observed = rng.uniform(0, 30, size=(3, steps))
        lw = calib.LossWeights()
        bmat = g.broadcast_matrix

        def loss_np(beta_mat):
            def step_params(t):
                return {
                    "beta": bmat @ beta_mat[:, t],
                    **{k: bmat @ v[:, t] for k, v in fixed.items()},
                }
            _, i_hist, _, _ = sim.iterate_sirs(g, step_params, init, steps)
            return float(calib._mr_loss(i_hist[1:], observed, g, lw))

        tape = Tape()
        beta_dv = tape.variable(beta.copy())

        def step_params_dual(t):
            return {
                "beta": ad.matmul(bmat, ad.col(beta_dv, t)),
                **{k: bmat @ v[:, t] for k, v in fixed.items()},
            }

        _, i_hist, _, _ = sim.iterate_sirs(g, step_params_dual, init, steps)
        loss = calib._mr_loss(i_hist[1:], observed, g, lw)
        grad = tape.backward(loss)[beta_dv.index]

        fd = np.zeros_like(beta)
        for idx in np.ndindex(beta.shape):
            orig = beta[idx]
            beta[idx] = orig + 1e-5
            fp = loss_np(beta)
            beta[idx] = orig - 1e-5
            fm = loss_np(beta)
            beta[idx] = orig
            fd[idx] = (fp - fm) / 2e-5
        denom = np.maximum(np.abs(fd), 1e-6 * np.abs(fd).max())
        assert np.all(np.abs(grad - fd) / denom < 1e-4)


class TestTrainingStep:
    def test_one_tape_alive_per_step(self, monkeypatch):
        # each step's tape, and every node on it, is unreachable before the
        # next step starts recording
        from calypso import adapter, calib, synth

        alive_at_start: list[int] = []
        tapes: list[weakref.ref] = []

        class WatchedTape(Tape):
            def __init__(self):
                alive_at_start.append(sum(ref() is not None for ref in tapes))
                super().__init__()
                tapes.append(weakref.ref(self))

        monkeypatch.setattr(ad, "Tape", WatchedTape)
        b = synth.generate(synth.SynthSpec(n_patches=4, n_regions=2, weeks=10, horizon=2, seed=3))
        net = calib.CalibNet(b.data.features.shape[2], config=calib.CalibConfig(hidden=4, decoder_width=4))
        calib.train_joint(net, b.data, b.graph, calib.TrainConfig(epochs=3))
        series = adapter.stack_levels(b.data.training_observed(), b.graph)
        adapter.train_adapter(adapter.AdapterNet(), series + 1.0, series,
                              adapter.AdapterTrainConfig(epochs=3))
        assert alive_at_start == [0] * 6

    def test_non_finite_loss_refused_naming_where(self):
        weights = {"x": np.ones(3)}
        opt = ad.Adam(weights, weight_decay=0.0, clip_norm=10.0)
        with pytest.raises(NonFiniteLoss, match="^epoch 7: loss is not finite$"):
            opt.step(lambda duals: ad.vsum(duals["x"] * np.nan), 0.1, "epoch 7")
        assert np.array_equal(weights["x"], np.ones(3)) and opt.steps == 0


class TestGruCell:
    @staticmethod
    def cell_weights(rng, n_in, hidden):
        gates = lambda shape: tuple(rng.normal(size=shape) for _ in range(3))
        return gates((n_in[0], hidden)), gates((n_in[1], hidden)), gates((hidden, hidden)), gates((hidden,))

    def test_tape_forward_equals_plain_forward(self):
        rng = np.random.default_rng(11)
        w0, w1, u, b = self.cell_weights(rng, (3, 2), 4)
        x0, x1, h = rng.normal(size=(5, 3)), rng.normal(size=(5, 2)), rng.normal(size=(5, 4))
        plain = ad.gru_cell([(x0, w0), (x1, w1)], h, u, b)
        tape = Tape()
        taped = ad.gru_cell([(x0, tuple(map(tape.variable, w0))), (x1, w1)], h,
                            tuple(map(tape.variable, u)), b)
        assert np.array_equal(taped.value, plain)

    @classmethod
    def probe_loss(cls, seed):
        """A cell's leaves (every weight, then the state) and a weighted sum of its new state."""
        rng = np.random.default_rng(seed)
        w0, w1, u, b = cls.cell_weights(rng, (3, 2), 4)
        x0, x1, h = rng.normal(size=(5, 3)), rng.normal(size=(5, 2)), rng.normal(size=(5, 4))
        probe = rng.normal(size=(5, 4))

        def loss(values):
            w0_, w1_, u_, b_ = (tuple(values[3 * i : 3 * i + 3]) for i in range(4))
            return ad.vsum(ad.gru_cell([(x0, w0_), (x1, w1_)], values[12], u_, b_) * probe)

        return [*w0, *w1, *u, *b, h], loss

    @staticmethod
    def assert_matches_finite_differences(leaves, loss, duals, adj):
        for i, leaf in enumerate(leaves):
            def f(a, i=i):
                return float(loss([a if j == i else v for j, v in enumerate(leaves)]))
            fd = numeric_grad(f, leaf.copy())
            assert np.allclose(adj[duals[i].index], fd, rtol=1e-6, atol=1e-8), i

    def test_gradients_match_finite_differences(self):
        leaves, loss = self.probe_loss(12)
        tape = Tape()
        duals = [tape.variable(v.copy()) for v in leaves]
        self.assert_matches_finite_differences(leaves, loss, duals, tape.backward(loss(duals)))

    def test_tape_frees_forward_values_no_rule_reads(self, monkeypatch):
        leaves, loss = self.probe_loss(13)
        tape = Tape()
        forward: list[tuple[str, weakref.ref]] = []  # (kind, the node's forward value)
        init = ad.DualValue.__init__

        def watch(dual, tape, index, value):  # each node's handle is made right after its record
            forward.append((tape._nodes[index][0], weakref.ref(value)))
            init(dual, tape, index, value)

        monkeypatch.setattr(ad.DualValue, "__init__", watch)
        duals = [tape.variable(v.copy()) for v in leaves]
        root = loss(duals)
        gc.collect()

        def alive(kind):
            return [ref() is not None for k, ref in forward if k == kind]

        # every matmul output feeds only an add, which keeps operand shapes
        assert alive("matmul") == [False] * 9
        # sigmoid keeps its output; the mul by 1 - z keeps that operand
        assert alive("sigmoid") == [True, True] and alive("sub") == [True]
        self.assert_matches_finite_differences(leaves, loss, duals, tape.backward(root))


# -- the tape before its records were flattened, frozen as the reference -----
# ``ReferenceTape`` is the earlier ``Tape`` (per-node parents and saved
# tuples, string dispatch in one ``record``, a ``wants`` list in the sweep),
# kept verbatim but for the two adapters below that route today's DualValue
# operators and helpers into its ``_record``.  The current tape must record
# the same (kind, parents) sequence and return bitwise the same adjoints.

_REF_BINARY = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv,
    "min": np.minimum, "matmul": lambda a, b: np.asarray(a @ b),
}
_REF_ACTIVATIONS = {
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)), "tanh": np.tanh, "relu": lambda x: np.maximum(x, 0.0),
}


def _ref_unbroadcast(grad, shape):
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _ref_acc(adj, idx, g):
    cur = adj[idx]
    adj[idx] = g if cur is None else cur + g


class ReferenceTape:
    def __init__(self):
        self._nodes = []  # (kind, parents, saved)
        self._variables = []
        self._shapes = {}

    def __len__(self):
        return len(self._nodes)

    # adapters: every operator and helper lands in the frozen ``_record``
    def _binary(self, op, x, y):
        return self._record(op, x, y)

    def record(self, op, x, arg=None):
        return self._record(op, x, arg, axis=arg)  # col reads args[1], sum its axis

    def _append(self, kind, parents, saved, value):
        self._nodes.append((kind, parents, saved))
        return ad.DualValue(self, len(self._nodes) - 1, value)

    def _share(self, shapes):
        return self._shapes.setdefault(shapes, shapes)

    def variable(self, value):
        self._variables.append(len(self._nodes))
        value = np.asarray(value, dtype=float)
        return self._append("var", (), value, value)

    def _lift(self, x):
        if isinstance(x, ad.DualValue):
            if x.tape is not self:
                raise ShapeMismatch("operands live on different tapes")
            return x
        return self._append("const", (), None, np.asarray(x, dtype=float))

    def _record(self, op, *args, axis=None):
        if op in _REF_BINARY:
            a, b = self._lift(args[0]), self._lift(args[1])
            av, bv = a.value, b.value
            if op == "div" and np.any(bv == 0):
                raise InvalidValue("division by zero on tape")
            if op in ("add", "sub"):
                saved = self._share((av.shape, bv.shape))
            elif op == "min":
                saved = ((av <= bv).astype(float), self._share((av.shape, bv.shape)))
            else:
                saved = (av, bv)
            return self._append(op, (a.index, b.index), saved, _REF_BINARY[op](av, bv))
        a = self._lift(args[0])
        av = a.value
        if op in _REF_ACTIVATIONS:
            out = _REF_ACTIVATIONS[op](av)
            return self._append(op, (a.index,), out, out)
        if op == "neg":
            return self._append("neg", (a.index,), None, -av)
        if op == "sum":
            out = np.asarray(av.sum(axis=axis))
            return self._append("sum", (a.index,), self._share((axis, av.shape)), out)
        if op == "col":
            j = int(args[1])
            return self._append("col", (a.index,), self._share((j, av.shape)), av[:, j])
        if op == "colvec":
            return self._append("colvec", (a.index,), None, av[:, None])
        raise ValueError(f"unknown op {op!r}")

    def backward(self, root):
        if root.tape is not self:
            raise ShapeMismatch("root lives on a different tape")
        if np.asarray(root.value).size != 1:
            raise ShapeMismatch("backward root must be scalar")
        nodes = self._nodes
        adj = [None] * len(nodes)
        adj[root.index] = np.ones_like(np.asarray(root.value, dtype=float))
        wants = [kind != "const" for kind, _, _ in nodes]
        owned = set()
        for k in range(root.index, -1, -1):
            kind, ps, saved = nodes[k]
            g = adj[k]
            if g is None or kind == "var":
                continue
            adj[k] = None
            if kind in ("add", "sub"):
                a, b = ps
                if wants[a]:
                    _ref_acc(adj, a, _ref_unbroadcast(g, saved[0]))
                if wants[b]:
                    _ref_acc(adj, b, _ref_unbroadcast(g if kind == "add" else -g, saved[1]))
            elif kind == "mul":
                a, b = ps
                av, bv = saved
                if wants[a]:
                    _ref_acc(adj, a, _ref_unbroadcast(g * bv, av.shape))
                if wants[b]:
                    _ref_acc(adj, b, _ref_unbroadcast(g * av, bv.shape))
            elif kind == "div":
                a, b = ps
                av, bv = saved
                if wants[a]:
                    _ref_acc(adj, a, _ref_unbroadcast(g / bv, av.shape))
                if wants[b]:
                    _ref_acc(adj, b, _ref_unbroadcast(-g * av / bv ** 2, bv.shape))
            elif kind == "min":
                a, b = ps
                mask, (a_shape, b_shape) = saved
                if wants[a]:
                    _ref_acc(adj, a, _ref_unbroadcast(g * mask, a_shape))
                if wants[b]:
                    _ref_acc(adj, b, _ref_unbroadcast(g * (1.0 - mask), b_shape))
            elif kind == "neg":
                _ref_acc(adj, ps[0], -g)
            elif kind == "sigmoid":
                _ref_acc(adj, ps[0], g * saved * (1.0 - saved))
            elif kind == "tanh":
                _ref_acc(adj, ps[0], g * (1.0 - saved * saved))
            elif kind == "relu":
                _ref_acc(adj, ps[0], g * (saved > 0))
            elif kind == "sum":
                axis, shape = saved
                if axis is not None:
                    g = np.expand_dims(g, axis)
                _ref_acc(adj, ps[0], np.broadcast_to(g, shape).copy())
            elif kind == "col":
                a = ps[0]
                j, shape = saved
                if a not in owned:
                    owned.add(a)
                    adj[a] = np.zeros(shape) if adj[a] is None else adj[a].copy()
                adj[a][:, j] += g
            elif kind == "colvec":
                _ref_acc(adj, ps[0], g[:, 0])
            elif kind == "matmul":
                a, b = ps
                av, bv = saved
                if wants[a]:
                    if bv.ndim == 2:
                        _ref_acc(adj, a, g @ bv.T)
                    elif av.ndim == 2:
                        _ref_acc(adj, a, np.outer(g, bv))
                    else:
                        _ref_acc(adj, a, g * bv)
                if wants[b]:
                    if av.ndim == 2:
                        _ref_acc(adj, b, av.T @ g)
                    elif bv.ndim == 2:
                        _ref_acc(adj, b, np.outer(av, g))
                    else:
                        _ref_acc(adj, b, g * av)
        return {i: np.zeros_like(nodes[i][2]) if adj[i] is None else adj[i] for i in self._variables}


def structure(tape) -> list[tuple[str, tuple[int, ...]]]:
    """(kind, parent indices) per node, from either tape's records."""
    if isinstance(tape, ReferenceTape):
        return [(kind, ps) for kind, ps, _ in tape._nodes]
    return [(node[0], tuple(p for p in node[1:3] if p >= 0)) for node in tape._nodes]


def assert_same_run(got, want):
    """Two (records, adjoints) runs: same (kind, parents) records, bitwise-same adjoints."""
    (got_nodes, got_adj), (want_nodes, want_adj) = got, want
    assert got_nodes == want_nodes
    assert list(got_adj) == list(want_adj)
    for i in want_adj:
        assert got_adj[i].shape == want_adj[i].shape and got_adj[i].tobytes() == want_adj[i].tobytes(), i


def assert_same_as_reference(program, *leaves):
    """Run ``program(*variables)`` on both tapes and compare the runs."""
    runs = []
    for cls in (Tape, ReferenceTape):
        tape = cls()
        root = program(*[tape.variable(x.copy()) for x in leaves])
        runs.append((structure(tape), tape.backward(root)))
    assert_same_run(*runs)


class TestAgainstReferenceTape:
    rng = np.random.default_rng(21)
    m43, m13, v3, v4 = rng.normal(size=(4, 3)), rng.normal(size=(1, 3)), rng.normal(size=3), rng.normal(size=4)
    pos43, pos13 = rng.uniform(0.5, 2.0, size=(4, 3)), rng.uniform(0.5, 2.0, size=(1, 3))

    @staticmethod
    def divide(x, y):
        """``x / y``; a plain dividend goes through the tape's ``_binary``, as no operator takes it."""
        return x / y if isinstance(x, ad.DualValue) else y.tape._binary("div", x, y)

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "min"])
    def test_binary_kinds_broadcast_both_ways_and_with_constants(self, op):
        f = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
             "div": self.divide, "min": ad.minimum}[op]
        big, small = (self.pos43, self.pos13) if op == "div" else (self.m43, self.m13)
        vec, w = (self.pos13[0], self.pos43) if op == "div" else (self.v3, self.m43 * 0.5)
        for x, y in ((big, small), (small, big), (big, vec), (vec, big), (big, w), (w, big), (big, big.copy())):
            assert_same_as_reference(lambda a, b: ad.vsum(ad.tanh(f(a, b)) * f(b, a)), x, y)
            assert_same_as_reference(lambda a: ad.vsum(f(a, y) + f(y, a)), x)  # constant on either side
            assert_same_as_reference(lambda a: ad.vsum(f(a, 1.5) * f(2.5, a)), x)  # scalar constants

    def test_matmul_one_and_two_dimensional(self):
        cases = [((3, 4), (4, 2)), ((3, 4), (4,)), ((3,), (3, 2)), ((4,), (4,))]
        for sa, sb in cases:
            x, y = self.rng.normal(size=sa), self.rng.normal(size=sb)
            assert_same_as_reference(lambda a, b: ad.vsum(ad.sigmoid(ad.matmul(a, b))), x, y)
            assert_same_as_reference(lambda a: ad.vsum(ad.matmul(a, y)), x)
            assert_same_as_reference(lambda b: ad.vsum(ad.matmul(x, b) * ad.matmul(x, b)), y)

    def test_unary_kinds_and_sum(self):
        x = self.m43
        assert_same_as_reference(lambda a: ad.vsum(ad.relu(a) * ad.tanh(1.0 - a)) * ad.vsum(ad.sigmoid(a)), x)
        assert_same_as_reference(lambda a: ad.vsum(ad.vsum(a) * ad.tanh(a)), x)  # a sum fed back in
        assert_same_as_reference(lambda a: ad.vsum(ad.matmul(ad.colvec(ad.col(a, 2)), self.m13)), x)

    def test_col_scatter_aliasing_and_fan_in(self):
        u = self.v4

        def f(xa, wa):  # the add hands m and w one adjoint; the scatter into m's must copy it
            m = ad.tanh(xa)
            c1, c2 = ad.col(m, 1), ad.col(m, 1)
            s = m + wa
            return ad.vsum(c1 * c2 * u) + ad.vsum(c1) + ad.vsum(s * s)

        assert_same_as_reference(f, self.m43, self.m43[::-1].copy())
        assert_same_as_reference(lambda a: ad.vsum(ad.col(a, 0) + ad.col(a, 2) * ad.col(a, 0)) + ad.vsum(a), self.m43)
        assert_same_as_reference(lambda a: ad.vsum(a * a + a) + ad.vsum(a), self.v3)

    @staticmethod
    def one_epoch(monkeypatch, tape_cls, train):
        seen = []

        class Seen(tape_cls):
            def backward(self, root):
                adj = super().backward(root)
                seen.append((structure(self), adj))
                return adj

        monkeypatch.setattr(ad, "Tape", Seen)
        train()
        monkeypatch.undo()
        [epoch] = seen
        return epoch

    def assert_epoch_matches(self, monkeypatch, train):
        got = self.one_epoch(monkeypatch, Tape, train)
        assert_same_run(got, self.one_epoch(monkeypatch, ReferenceTape, train))
        return len(got[0])

    def test_desk_calibration_and_adapter_epochs(self, monkeypatch):
        from calypso import adapter, calib, synth

        b = synth.generate(synth.SynthSpec(seed=1))  # the desk bundle: 24 patches, 4 regions, 120 weeks
        n_calib = self.assert_epoch_matches(monkeypatch, lambda: calib.train_joint(
            calib.CalibNet(b.data.features.shape[2], seed=1), b.data, b.graph, calib.TrainConfig(epochs=1)))
        assert n_calib == 10_719
        series = adapter.stack_levels(b.data.training_observed(), b.graph)
        self.assert_epoch_matches(monkeypatch, lambda: adapter.train_adapter(
            adapter.AdapterNet(), series * 1.1 + 1.0, series,
            adapter.AdapterTrainConfig(epochs=1)))
