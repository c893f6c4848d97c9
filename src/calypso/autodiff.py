"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tape`` records every operation as an append-only node list; parents
always precede children, so a single reverse sweep propagates adjoints.
``DualValue`` is a lightweight handle (tape, node index, forward value)
with numpy-style operators, which lets the simulator run unchanged on
plain arrays or on tape-recorded values.

Each node saves what its own backward rule reads and nothing else: mul,
div and matmul their two operands; sigmoid, tanh and relu their output
(relu's ``out > 0`` is ``x > 0``, NaN included); min its mask and both
operand shapes; add and sub the operand shapes; sum its axis and col its
column, each with the parent's shape; a variable its value.  neg, colvec
and constants save nothing.  The tape keeps no forward values of its
own, so a value no rule saves is freed once the model code drops its
``DualValue``.

Supported record kinds: add, sub, mul, div, neg, min, sigmoid, tanh,
relu, matmul, sum, col (column extraction, used to peel parameter
columns off a matrix) and colvec.  ``min`` sends gradient to the smaller
argument and, on ties, to the first one, which keeps gradients
deterministic.

A plain operand of a recorded op becomes a constant leaf; leaves made
with ``Tape.variable`` are the variables.  ``backward`` forms no adjoint
toward a constant, drops each intermediate adjoint once its parents have
their share, and returns adjoints for the variables only.

Module-level helpers (``sigmoid``, ``minimum``, ``matmul``, ...) dispatch
on argument type: plain ndarrays go through numpy, DualValues through the
tape.  Tapes are single-threaded.  Both networks share ``gru_cell``, the
one GRU step, and ``Adam.step``, the one training step: it records the
loss on a fresh tape, refuses a non-finite loss, backpropagates and
updates, and lets the tape go before the next step.
"""

from __future__ import annotations

import operator
from typing import Callable

import numpy as np

from .errors import DivergedGradient, DivisionByZero, NonFiniteLoss, NonScalarRoot, TapeMismatch

_BINARY = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv,
    "min": np.minimum, "matmul": lambda a, b: np.asarray(a @ b),
}
# the three activations' backward rules read only their output
_ACTIVATIONS = {
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)), "tanh": np.tanh, "relu": lambda x: np.maximum(x, 0.0),
}


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
    """Append-only record of operations with a reverse adjoint sweep.

    A leaf is a variable (made by ``variable``) or a constant (a plain
    operand that ``record`` lifted onto the tape).  Every other node has a
    DualValue operand and so depends on some variable; ``backward`` thus
    sends adjoints to every parent but a constant.
    """

    def __init__(self):
        self._nodes: list[tuple[str, tuple[int, ...], object]] = []  # (kind, parents, saved)
        self._variables: list[int] = []
        self._shapes: dict = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def _append(self, kind: str, parents: tuple[int, ...], saved, value: np.ndarray) -> DualValue:
        self._nodes.append((kind, parents, saved))
        return DualValue(self, len(self._nodes) - 1, value)

    def _share(self, shapes: tuple) -> tuple:
        """The tape's one copy of a shape payload.  Payloads repeat from node to
        node; a fresh tuple per node would make the garbage collector run
        several times as often while a step records."""
        return self._shapes.setdefault(shapes, shapes)

    def variable(self, value) -> DualValue:
        """A leaf whose adjoint ``backward`` returns."""
        self._variables.append(len(self._nodes))
        value = np.asarray(value, dtype=float)
        return self._append("var", (), value, value)

    def _lift(self, x) -> DualValue:
        if isinstance(x, DualValue):
            if x.tape is not self:
                raise TapeMismatch("operands live on different tapes")
            return x
        return self._append("const", (), None, np.asarray(x, dtype=float))

    def record(self, op: str, *args, axis=None) -> DualValue:
        """Record one operation and return its result node."""
        if op in _BINARY:
            a, b = self._lift(args[0]), self._lift(args[1])
            av, bv = a.value, b.value
            if op == "div" and np.any(bv == 0):
                raise DivisionByZero("division by zero on tape")
            if op in ("add", "sub"):
                saved = self._share((av.shape, bv.shape))
            elif op == "min":  # ties favor the first argument
                saved = ((av <= bv).astype(float), self._share((av.shape, bv.shape)))
            else:
                saved = (av, bv)
            return self._append(op, (a.index, b.index), saved, _BINARY[op](av, bv))

        a = self._lift(args[0])
        av = a.value
        if op in _ACTIVATIONS:
            out = _ACTIVATIONS[op](av)
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

    def backward(self, root: DualValue) -> dict[int, np.ndarray]:
        """Reverse sweep from a scalar root; returns {variable index: adjoint}.

        Only the variables' adjoints are kept and returned; a variable the
        root does not depend on gets zeros of its shape.  No adjoint is
        formed toward a constant leaf, and each intermediate adjoint is
        dropped once its parents have their share.  Every call starts
        from fresh adjoints, so the sweep can be repeated.
        """
        if root.tape is not self:
            raise TapeMismatch("root lives on a different tape")
        if np.asarray(root.value).size != 1:
            raise NonScalarRoot("backward root must be scalar")

        nodes = self._nodes
        adj: list[np.ndarray | None] = [None] * len(nodes)
        adj[root.index] = np.ones_like(np.asarray(root.value, dtype=float))
        wants = [kind != "const" for kind, _, _ in nodes]
        owned: set[int] = set()  # col parents whose adjoint no other node shares
        for k in range(root.index, -1, -1):
            kind, ps, saved = nodes[k]
            g = adj[k]
            if g is None or kind == "var":
                continue
            adj[k] = None
            if kind in ("add", "sub"):
                a, b = ps
                if wants[a]:
                    _acc(adj, a, _unbroadcast(g, saved[0]))
                if wants[b]:
                    _acc(adj, b, _unbroadcast(g if kind == "add" else -g, saved[1]))
            elif kind == "mul":
                a, b = ps
                av, bv = saved
                if wants[a]:
                    _acc(adj, a, _unbroadcast(g * bv, av.shape))
                if wants[b]:
                    _acc(adj, b, _unbroadcast(g * av, bv.shape))
            elif kind == "div":
                a, b = ps
                av, bv = saved
                if wants[a]:
                    _acc(adj, a, _unbroadcast(g / bv, av.shape))
                if wants[b]:
                    _acc(adj, b, _unbroadcast(-g * av / bv ** 2, bv.shape))
            elif kind == "min":
                a, b = ps
                mask, (a_shape, b_shape) = saved
                if wants[a]:
                    _acc(adj, a, _unbroadcast(g * mask, a_shape))
                if wants[b]:
                    _acc(adj, b, _unbroadcast(g * (1.0 - mask), b_shape))
            elif kind == "neg":
                _acc(adj, ps[0], -g)
            elif kind == "sigmoid":
                _acc(adj, ps[0], g * saved * (1.0 - saved))
            elif kind == "tanh":
                _acc(adj, ps[0], g * (1.0 - saved * saved))
            elif kind == "relu":
                _acc(adj, ps[0], g * (saved > 0))  # out > 0 exactly where x > 0
            elif kind == "sum":
                axis, shape = saved
                if axis is not None:
                    g = np.expand_dims(g, axis)
                _acc(adj, ps[0], np.broadcast_to(g, shape).copy())
            elif kind == "col":
                # scatter into the parent's own buffer; the first write copies
                # an adjoint that may be aliased to another node's
                a = ps[0]
                j, shape = saved
                if a not in owned:
                    owned.add(a)
                    adj[a] = np.zeros(shape) if adj[a] is None else adj[a].copy()
                adj[a][:, j] += g
            elif kind == "colvec":
                _acc(adj, ps[0], g[:, 0])
            elif kind == "matmul":
                a, b = ps
                av, bv = saved
                if wants[a]:
                    if bv.ndim == 2:
                        _acc(adj, a, g @ bv.T)
                    elif av.ndim == 2:
                        _acc(adj, a, np.outer(g, bv))
                    else:  # 1-D dot product
                        _acc(adj, a, g * bv)
                if wants[b]:
                    if av.ndim == 2:
                        _acc(adj, b, av.T @ g)
                    elif bv.ndim == 2:
                        _acc(adj, b, np.outer(av, g))
                    else:
                        _acc(adj, b, g * av)
            else:  # pragma: no cover
                raise ValueError(f"no backward rule for {kind!r}")

        return {i: np.zeros_like(nodes[i][2]) if adj[i] is None else adj[i] for i in self._variables}


def _acc(adj: list, idx: int, g: np.ndarray) -> None:
    cur = adj[idx]
    adj[idx] = g if cur is None else cur + g


class Adam:
    """Bias-corrected Adam with coupled weight decay and global-norm clipping.

    ``weights`` (name -> array) is updated in place, one ``step`` at a time.
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

    def step(self, loss_fn: Callable[[dict[str, DualValue]], DualValue], lr: float, where: str) -> None:
        """One training step on a fresh tape.

        ``loss_fn`` gets the weights as tape variables (name -> DualValue)
        and returns the scalar loss node; it sees the weights before they
        move, so it may also check and log its forward pass.  A non-finite
        loss raises ``NonFiniteLoss``.  Gradient = adjoint + decay * weight;
        clip, check finite, update.  The tape and every node on it are
        unreachable once this returns, so the next step records with no
        earlier tape alive.  ``where`` (e.g. the epoch) prefixes the
        ``NonFiniteLoss`` and ``DivergedGradient`` messages.
        """
        w = self.weights
        tape = Tape()
        duals = {n: tape.variable(w[n]) for n in self.names}
        loss = loss_fn(duals)
        if not np.isfinite(loss.value):
            raise NonFiniteLoss(f"{where}: loss is not finite")
        adjoints = tape.backward(loss)
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


def gru_cell(inputs, h, u, b):
    """One GRU step (Cho et al. 2014) on plain arrays or tape values.

    ``inputs`` is a list of (x, (w_z, w_r, w_h)); ``u`` and ``b`` are the
    (z, r, h) recurrent weights and biases.  Each gate sums the input
    projections in list order, then the recurrent term, then the bias;
    the candidate's recurrent term reads ``r * h``.
    """
    def project(g: int):
        first, *rest = [matmul(x, w[g]) for x, w in inputs]
        return sum(rest, first)

    z = sigmoid(project(0) + matmul(h, u[0]) + b[0])
    r = sigmoid(project(1) + matmul(h, u[1]) + b[1])
    cand = tanh(project(2) + matmul(r * h, u[2]) + b[2])
    return (1.0 - z) * h + z * cand


# -- type-dispatching helpers so model code runs on both number kinds ----

def _is_dual(x) -> bool:
    return isinstance(x, DualValue)


def sigmoid(x):
    return x.tape.record("sigmoid", x) if _is_dual(x) else _ACTIVATIONS["sigmoid"](x)


def tanh(x):
    return x.tape.record("tanh", x) if _is_dual(x) else _ACTIVATIONS["tanh"](x)


def relu(x):
    return x.tape.record("relu", x) if _is_dual(x) else _ACTIVATIONS["relu"](x)


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
