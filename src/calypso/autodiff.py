"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tape`` records every operation as an append-only node list; parents
always precede children, so a single reverse sweep propagates adjoints.
``DualValue`` is a lightweight handle (tape, node index, forward value)
with numpy-style operators, which lets the simulator run unchanged on
plain arrays or on tape-recorded values.

Supported record kinds: add, sub, mul, div, neg, min, exp, log, sigmoid,
tanh, relu, matmul, sum, col (column extraction, used to peel parameter
columns off a matrix).  ``min`` sends gradient to the smaller argument
and, on ties, to the first one, which keeps gradients deterministic.

Module-level helpers (``exp``, ``minimum``, ``matmul``, ...) dispatch on
argument type: plain ndarrays go through numpy, DualValues through the
tape.  Tapes are rebuilt every training step and are single-threaded.
``Adam`` is the optimizer step that every trainer shares.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergedGradient, DivisionByZero, NonScalarRoot, TapeMismatch

_BINARY = {"add", "sub", "mul", "div", "min", "matmul"}


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class DualValue:
    """Handle to one tape node: its index and forward value."""

    __slots__ = ("tape", "index", "value")
    __array_ufunc__ = None  # keep numpy from consuming us in mixed ops

    def __init__(self, tape: "Tape", index: int, value: np.ndarray):
        self.tape = tape
        self.index = index
        self.value = value

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"DualValue(index={self.index}, value={self.value!r})"

    # numpy-style operators; scalars/ndarrays are lifted to leaves
    def __add__(self, other):
        return self.tape.record("add", self, other)

    def __radd__(self, other):
        return self.tape.record("add", other, self)

    def __sub__(self, other):
        return self.tape.record("sub", self, other)

    def __rsub__(self, other):
        return self.tape.record("sub", other, self)

    def __mul__(self, other):
        return self.tape.record("mul", self, other)

    def __rmul__(self, other):
        return self.tape.record("mul", other, self)

    def __truediv__(self, other):
        return self.tape.record("div", self, other)

    def __rtruediv__(self, other):
        return self.tape.record("div", other, self)

    def __matmul__(self, other):
        return self.tape.record("matmul", self, other)

    def __rmatmul__(self, other):
        return self.tape.record("matmul", other, self)

    def __neg__(self):
        return self.tape.record("neg", self)

    def sum(self, axis=None):
        return self.tape.record("sum", self, axis=axis)


class Tape:
    """Append-only record of operations with a reverse adjoint sweep."""

    def __init__(self):
        self._kinds: list[str] = []
        self._parents: list[tuple[int, ...]] = []
        self._payload: list = []
        self.values: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.values)

    def _append(self, kind: str, parents: tuple[int, ...], payload, value: np.ndarray) -> DualValue:
        self._kinds.append(kind)
        self._parents.append(parents)
        self._payload.append(payload)
        self.values.append(value)
        return DualValue(self, len(self.values) - 1, value)

    def variable(self, value) -> DualValue:
        """A leaf node; plain operands of a recorded op become leaves too."""
        return self._append("leaf", (), None, np.asarray(value, dtype=float))

    def _lift(self, x) -> DualValue:
        if isinstance(x, DualValue):
            if x.tape is not self:
                raise TapeMismatch("operands live on different tapes")
            return x
        return self.variable(x)

    def record(self, op: str, *args, axis=None) -> DualValue:
        """Record one operation and return its result node."""
        if op in _BINARY:
            a, b = self._lift(args[0]), self._lift(args[1])
            av, bv = a.value, b.value
            if op == "add":
                return self._append("add", (a.index, b.index), None, av + bv)
            if op == "sub":
                return self._append("sub", (a.index, b.index), None, av - bv)
            if op == "mul":
                return self._append("mul", (a.index, b.index), None, av * bv)
            if op == "div":
                if np.any(bv == 0):
                    raise DivisionByZero("division by zero on tape")
                return self._append("div", (a.index, b.index), None, av / bv)
            if op == "min":
                mask = (av <= bv).astype(float)  # ties favor the first argument
                return self._append("min", (a.index, b.index), mask, np.minimum(av, bv))
            # matmul
            out = av @ bv
            return self._append("matmul", (a.index, b.index), None, np.asarray(out))

        a = self._lift(args[0])
        av = a.value
        if op == "neg":
            return self._append("neg", (a.index,), None, -av)
        if op == "exp":
            return self._append("exp", (a.index,), None, np.exp(av))
        if op == "log":
            return self._append("log", (a.index,), None, np.log(av))
        if op == "sigmoid":
            out = 1.0 / (1.0 + np.exp(-av))
            return self._append("sigmoid", (a.index,), None, out)
        if op == "tanh":
            return self._append("tanh", (a.index,), None, np.tanh(av))
        if op == "relu":
            return self._append("relu", (a.index,), None, np.maximum(av, 0.0))
        if op == "sum":
            return self._append("sum", (a.index,), axis, np.asarray(av.sum(axis=axis)))
        if op == "col":
            j = int(args[1])
            return self._append("col", (a.index,), j, av[:, j])
        if op == "colvec":
            return self._append("colvec", (a.index,), None, av[:, None])
        raise ValueError(f"unknown op {op!r}")

    def backward(self, root: DualValue) -> list[np.ndarray]:
        """Reverse sweep from a scalar root; returns adjoints per node.

        Adjoints are reset on every call; nodes the root does not depend
        on get zero adjoints of their forward shape.
        """
        if root.tape is not self:
            raise TapeMismatch("root lives on a different tape")
        if np.asarray(root.value).size != 1:
            raise NonScalarRoot("backward root must be scalar")

        n = len(self.values)
        adj: list[np.ndarray | None] = [None] * n
        adj[root.index] = np.ones_like(np.asarray(self.values[root.index], dtype=float))

        values = self.values
        kinds = self._kinds
        parents = self._parents
        payload = self._payload
        for k in range(root.index, -1, -1):
            g = adj[k]
            if g is None:
                continue
            kind = kinds[k]
            if kind == "leaf":
                continue
            ps = parents[k]
            if kind == "add":
                a, b = ps
                _acc(adj, values, a, _unbroadcast(g, values[a].shape))
                _acc(adj, values, b, _unbroadcast(g, values[b].shape))
            elif kind == "sub":
                a, b = ps
                _acc(adj, values, a, _unbroadcast(g, values[a].shape))
                _acc(adj, values, b, _unbroadcast(-g, values[b].shape))
            elif kind == "mul":
                a, b = ps
                _acc(adj, values, a, _unbroadcast(g * values[b], values[a].shape))
                _acc(adj, values, b, _unbroadcast(g * values[a], values[b].shape))
            elif kind == "div":
                a, b = ps
                _acc(adj, values, a, _unbroadcast(g / values[b], values[a].shape))
                _acc(adj, values, b, _unbroadcast(-g * values[a] / values[b] ** 2, values[b].shape))
            elif kind == "min":
                a, b = ps
                mask = payload[k]
                _acc(adj, values, a, _unbroadcast(g * mask, values[a].shape))
                _acc(adj, values, b, _unbroadcast(g * (1.0 - mask), values[b].shape))
            elif kind == "neg":
                _acc(adj, values, ps[0], -g)
            elif kind == "exp":
                _acc(adj, values, ps[0], g * values[k])
            elif kind == "log":
                _acc(adj, values, ps[0], g / values[ps[0]])
            elif kind == "sigmoid":
                s = values[k]
                _acc(adj, values, ps[0], g * s * (1.0 - s))
            elif kind == "tanh":
                t = values[k]
                _acc(adj, values, ps[0], g * (1.0 - t * t))
            elif kind == "relu":
                _acc(adj, values, ps[0], g * (values[ps[0]] > 0))
            elif kind == "sum":
                a = ps[0]
                axis = payload[k]
                target = values[a]
                if axis is None:
                    _acc(adj, values, a, np.broadcast_to(g, target.shape).copy())
                else:
                    _acc(adj, values, a, np.broadcast_to(np.expand_dims(g, axis), target.shape).copy())
            elif kind == "col":
                a = ps[0]
                j = payload[k]
                full = np.zeros_like(values[a])
                full[:, j] = g
                _acc(adj, values, a, full)
            elif kind == "colvec":
                _acc(adj, values, ps[0], g[:, 0])
            elif kind == "matmul":
                a, b = ps
                av, bv = values[a], values[b]
                if av.ndim == 2 and bv.ndim == 2:
                    _acc(adj, values, a, g @ bv.T)
                    _acc(adj, values, b, av.T @ g)
                elif av.ndim == 2 and bv.ndim == 1:
                    _acc(adj, values, a, np.outer(g, bv))
                    _acc(adj, values, b, av.T @ g)
                elif av.ndim == 1 and bv.ndim == 2:
                    _acc(adj, values, a, g @ bv.T)
                    _acc(adj, values, b, np.outer(av, g))
                else:  # 1-D dot product
                    _acc(adj, values, a, g * bv)
                    _acc(adj, values, b, g * av)
            else:  # pragma: no cover
                raise ValueError(f"no backward rule for {kind!r}")

        return [a if a is not None else np.zeros_like(np.asarray(v, dtype=float)) for a, v in zip(adj, values)]


def _acc(adj: list, values: list, idx: int, g: np.ndarray) -> None:
    cur = adj[idx]
    adj[idx] = g if cur is None else cur + g


class Adam:
    """Bias-corrected Adam with coupled weight decay and global-norm clipping.

    ``weights`` (name -> array) is updated in place.  Each training step
    records the weights as tape leaves with ``variables`` and hands the
    tape's adjoints to ``step``.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, weights: dict[str, np.ndarray], weight_decay: float, clip_norm: float):
        self.weights = weights
        self.names = sorted(weights)
        self.weight_decay = weight_decay
        self.clip_norm = clip_norm
        self.m = {n: np.zeros_like(weights[n]) for n in self.names}
        self.v = {n: np.zeros_like(weights[n]) for n in self.names}
        self.steps = 0

    def variables(self, tape: Tape) -> dict[str, DualValue]:
        return {n: tape.variable(self.weights[n]) for n in self.names}

    def step(self, adjoints: list[np.ndarray], duals: dict[str, DualValue], lr: float, where: str) -> None:
        """Gradient = adjoint + decay * weight; clip, check finite, update.
        ``where`` (e.g. the epoch) prefixes the ``DivergedGradient`` message."""
        w = self.weights
        grads = {n: adjoints[duals[n].index] + self.weight_decay * w[n] for n in self.names}
        gnorm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
        if np.isfinite(gnorm) and self.clip_norm > 0 and gnorm > self.clip_norm:
            scale = self.clip_norm / gnorm
            grads = {n: g * scale for n, g in grads.items()}
        if any(not np.all(np.isfinite(g)) for g in grads.values()):
            raise DivergedGradient(f"{where}: gradient not finite after clipping")
        self.steps += 1
        b1, b2, t = self.beta1, self.beta2, self.steps
        for n in self.names:
            g = grads[n]
            self.m[n] = b1 * self.m[n] + (1 - b1) * g
            self.v[n] = b2 * self.v[n] + (1 - b2) * g * g
            mhat = self.m[n] / (1 - b1**t)
            vhat = self.v[n] / (1 - b2**t)
            w[n] -= lr * mhat / (np.sqrt(vhat) + self.eps)


# -- type-dispatching helpers so model code runs on both number kinds ----

def _is_dual(x) -> bool:
    return isinstance(x, DualValue)


def exp(x):
    return x.tape.record("exp", x) if _is_dual(x) else np.exp(x)


def log(x):
    return x.tape.record("log", x) if _is_dual(x) else np.log(x)


def sigmoid(x):
    if _is_dual(x):
        return x.tape.record("sigmoid", x)
    return 1.0 / (1.0 + np.exp(-x))


def tanh(x):
    return x.tape.record("tanh", x) if _is_dual(x) else np.tanh(x)


def relu(x):
    return x.tape.record("relu", x) if _is_dual(x) else np.maximum(x, 0.0)


def minimum(a, b):
    if _is_dual(a):
        return a.tape.record("min", a, b)
    if _is_dual(b):
        return b.tape.record("min", a, b)
    return np.minimum(a, b)


def matmul(a, b):
    if _is_dual(a):
        return a.tape.record("matmul", a, b)
    if _is_dual(b):
        return b.tape.record("matmul", a, b)
    return a @ b


def vsum(x, axis=None):
    return x.tape.record("sum", x, axis=axis) if _is_dual(x) else np.asarray(np.sum(x, axis=axis))


def col(x, j: int):
    return x.tape.record("col", x, j) if _is_dual(x) else x[:, j]


def colvec(x):
    """Reshape a length-n vector into an (n, 1) column."""
    return x.tape.record("colvec", x) if _is_dual(x) else np.asarray(x)[:, None]


def value_of(x) -> np.ndarray:
    return x.value if _is_dual(x) else np.asarray(x)
