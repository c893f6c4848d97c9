"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tape`` records every operation as an append-only node list; parents
always precede children, so a single reverse sweep propagates adjoints.
``DualValue`` is a lightweight handle (tape, node index, forward value)
with ``+``, ``-``, ``*`` and ``/`` (a DualValue dividend), which lets the
simulator run unchanged on plain arrays or on tape-recorded values.

Each node is one flat tuple ``(kind, a, b, s0, s1)``: ``a`` and ``b`` are
the parent indices (-1 where there is none), and ``s0``/``s1`` hold what
the node's own backward rule reads and nothing else: mul, div and matmul
their two operands; sigmoid, tanh and relu their output (relu's
``out > 0`` is ``x > 0``, NaN included); min its mask; col its column
and sum nothing, each with the parent's shape; a variable its value.
add, sub and min keep both operand shapes only when they differ, that
is under broadcasting.  colvec saves nothing, and every constant leaf
is the one shared record ``_CONST``.  The tape keeps no forward
values of its own, so a value no rule saves is freed once the model code
drops its ``DualValue``.  A record holds only strings, numbers, arrays
and tuples of these, which the garbage collector stops tracking once it
has examined them, so a long tape adds little to later collections.

Supported record kinds: add, sub, mul, div, min, sigmoid, tanh, relu,
matmul, sum (of every element), col (column extraction, used to peel
parameter columns off a matrix) and colvec.  ``min`` sends gradient
to the smaller argument and, on ties, to the first one, which keeps
gradients deterministic.

A plain operand of a binary op becomes a constant leaf; leaves made with
``Tape.variable`` are the variables.  ``backward`` forms no adjoint
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

from typing import Callable

import numpy as np

from .errors import InvalidValue, NonFiniteLoss, NumericalError, ShapeMismatch

# the three activations' backward rules read only their output
_ACTIVATIONS = {
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)), "tanh": np.tanh, "relu": lambda x: np.maximum(x, 0.0),
}
_CONST = ("const", -1, -1, None, None)  # the one record every constant leaf shares


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
        return self.tape._binary("add", self, other)

    def __radd__(self, other):
        return self.tape._binary("add", other, self)

    def __sub__(self, other):
        return self.tape._binary("sub", self, other)

    def __rsub__(self, other):
        return self.tape._binary("sub", other, self)

    def __mul__(self, other):
        return self.tape._binary("mul", self, other)

    def __rmul__(self, other):
        return self.tape._binary("mul", other, self)

    def __truediv__(self, other):
        return self.tape._binary("div", self, other)


class Tape:
    """Append-only record of operations with a reverse adjoint sweep.

    A leaf is a variable (made by ``variable``) or a constant (a plain
    operand that ``_binary`` lifted onto the tape).  Every other node has
    a DualValue operand and so depends on some variable; ``backward`` thus
    sends adjoints to every parent but a constant.  Each node's
    ``DualValue`` is made right after its record is appended.
    """

    def __init__(self):
        self._nodes: list[tuple] = []  # (kind, a, b, s0, s1), as the module docstring says
        self._variables: list[int] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def variable(self, value) -> DualValue:
        """A leaf whose adjoint ``backward`` returns."""
        value = np.asarray(value, dtype=float)
        self._variables.append(len(self._nodes))
        self._nodes.append(("var", -1, -1, value, None))
        return DualValue(self, len(self._nodes) - 1, value)

    def _binary(self, op: str, x, y) -> DualValue:
        """Record add, sub, mul, div, min or matmul; a plain operand becomes a constant leaf."""
        nodes = self._nodes
        if x.__class__ is DualValue:
            if x.tape is not self:
                raise ShapeMismatch("operands live on different tapes")
            a, av = x.index, x.value
        else:
            a, av = len(nodes), np.asarray(x, dtype=float)
            nodes.append(_CONST)
        if y.__class__ is DualValue:
            if y.tape is not self:
                raise ShapeMismatch("operands live on different tapes")
            b, bv = y.index, y.value
        else:
            b, bv = len(nodes), np.asarray(y, dtype=float)
            nodes.append(_CONST)
        if op == "add" or op == "sub":
            out = av + bv if op == "add" else av - bv
            sa, sb = av.shape, bv.shape
            nodes.append((op, a, b, None, None) if sa == sb else (op, a, b, sa, sb))
        elif op == "mul":
            out = av * bv
            nodes.append(("mul", a, b, av, bv))
        elif op == "matmul":
            out = np.asarray(av @ bv)
            nodes.append(("matmul", a, b, av, bv))
        elif op == "div":
            if (bv == 0).any():
                raise InvalidValue("division by zero on tape")
            out = av / bv
            nodes.append(("div", a, b, av, bv))
        elif op == "min":  # ties favor the first argument
            mask = (av <= bv).astype(float)
            out = np.minimum(av, bv)
            sa, sb = av.shape, bv.shape
            nodes.append(("min", a, b, mask, None if sa == sb else (sa, sb)))
        else:
            raise ValueError(f"unknown op {op!r}")
        return DualValue(self, len(nodes) - 1, out)

    def record(self, op: str, x: DualValue, arg=None) -> DualValue:
        """Record one unary operation on ``x``, a node of this tape: sigmoid,
        tanh, relu, sum (of every element), col (``arg`` the column) or
        colvec."""
        if x.tape is not self:
            raise ShapeMismatch("operand lives on a different tape")
        a, av = x.index, x.value
        if op == "col":
            j = int(arg)
            out, node = av[:, j], ("col", a, -1, j, av.shape)
        elif op in _ACTIVATIONS:
            out = _ACTIVATIONS[op](av)
            node = (op, a, -1, out, None)
        elif op == "sum":
            out, node = np.asarray(av.sum()), ("sum", a, -1, None, av.shape)
        elif op == "colvec":
            out, node = av[:, None], ("colvec", a, -1, None, None)
        else:
            raise ValueError(f"unknown op {op!r}")
        self._nodes.append(node)
        return DualValue(self, len(self._nodes) - 1, out)

    def backward(self, root: DualValue) -> dict[int, np.ndarray]:
        """Reverse sweep from a scalar root; returns {variable index: adjoint}.

        Only the variables' adjoints are kept and returned; a variable the
        root does not depend on gets zeros of its shape.  No adjoint is
        formed toward a constant leaf, and each intermediate adjoint is
        dropped once its parents have their share.  Every call starts
        from fresh adjoints, so the sweep can be repeated.
        """
        if root.tape is not self:
            raise ShapeMismatch("root lives on a different tape")
        if np.asarray(root.value).size != 1:
            raise ShapeMismatch("backward root must be scalar")

        nodes = self._nodes
        adj: list[np.ndarray | None] = [None] * len(nodes)
        adj[root.index] = np.ones_like(np.asarray(root.value, dtype=float))
        owned: set[int] = set()  # col parents whose adjoint no other node shares
        # the most frequent kinds are tested first; ga and gb are the shares
        # of parents a and b, never formed toward a constant
        for k in range(root.index, -1, -1):
            g = adj[k]
            if g is None:
                continue
            adj[k] = None
            kind, a, b, s0, s1 = nodes[k]
            ga = gb = None
            if kind == "add" or kind == "sub":
                if nodes[a] is not _CONST:
                    ga = g if s0 is None else _unbroadcast(g, s0)
                if nodes[b] is not _CONST:
                    gb = g if kind == "add" else -g
                    if s1 is not None:
                        gb = _unbroadcast(gb, s1)
            elif kind == "mul":
                if nodes[a] is not _CONST:
                    ga = g * s1
                    if ga.shape != s0.shape:
                        ga = _unbroadcast(ga, s0.shape)
                if nodes[b] is not _CONST:
                    gb = g * s0
                    if gb.shape != s1.shape:
                        gb = _unbroadcast(gb, s1.shape)
            elif kind == "matmul":  # the last branch of each is the 1-D dot product
                if nodes[a] is not _CONST:
                    ga = g @ s1.T if s1.ndim == 2 else np.outer(g, s1) if s0.ndim == 2 else g * s1
                if nodes[b] is not _CONST:
                    gb = s0.T @ g if s0.ndim == 2 else np.outer(s0, g) if s1.ndim == 2 else g * s0
            elif kind == "col":
                # scatter into the parent's own buffer; the first write copies
                # an adjoint that may be aliased to another node's
                if a not in owned:
                    owned.add(a)
                    adj[a] = np.zeros(s1) if adj[a] is None else adj[a].copy()
                adj[a][:, s0] += g
            elif kind == "sigmoid":
                ga = g * s0 * (1.0 - s0)
            elif kind == "sum":
                ga = np.full(s1, g)
            elif kind == "div":
                if nodes[a] is not _CONST:
                    ga = _unbroadcast(g / s1, s0.shape)
                if nodes[b] is not _CONST:
                    gb = _unbroadcast(-g * s0 / s1 ** 2, s1.shape)
            elif kind == "tanh":
                ga = g * (1.0 - s0 * s0)
            elif kind == "relu":
                ga = g * (s0 > 0)  # out > 0 exactly where x > 0
            elif kind == "colvec":
                ga = g[:, 0]
            elif kind == "min":
                if nodes[a] is not _CONST:
                    ga = g * s0 if s1 is None else _unbroadcast(g * s0, s1[0])
                if nodes[b] is not _CONST:
                    gb = g * (1.0 - s0) if s1 is None else _unbroadcast(g * (1.0 - s0), s1[1])
            elif kind == "var":
                adj[k] = g
            else:  # pragma: no cover
                raise ValueError(f"no backward rule for {kind!r}")
            if ga is not None:
                adj[a] = ga if adj[a] is None else adj[a] + ga
            if gb is not None:
                adj[b] = gb if adj[b] is None else adj[b] + gb

        return {i: np.zeros_like(nodes[i][3]) if adj[i] is None else adj[i] for i in self._variables}


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
        clip, check finite (else ``NumericalError``), update.  The tape and
        every node on it are unreachable once this returns, so the next step
        records with no earlier tape alive.  ``where`` (e.g. the epoch)
        prefixes both messages.
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
            raise NumericalError(f"{where}: gradient not finite after clipping")
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

def sigmoid(x):
    return x.tape.record("sigmoid", x) if x.__class__ is DualValue else _ACTIVATIONS["sigmoid"](x)


def tanh(x):
    return x.tape.record("tanh", x) if x.__class__ is DualValue else _ACTIVATIONS["tanh"](x)


def relu(x):
    return x.tape.record("relu", x) if x.__class__ is DualValue else _ACTIVATIONS["relu"](x)


def minimum(a, b):
    if a.__class__ is DualValue:
        return a.tape._binary("min", a, b)
    if b.__class__ is DualValue:
        return b.tape._binary("min", a, b)
    return np.minimum(a, b)


def matmul(a, b):
    if a.__class__ is DualValue:
        return a.tape._binary("matmul", a, b)
    if b.__class__ is DualValue:
        return b.tape._binary("matmul", a, b)
    return a @ b


def vsum(x):
    """The sum of every element of ``x``."""
    return x.tape.record("sum", x) if x.__class__ is DualValue else np.asarray(np.sum(x))


def col(x, j: int):
    return x.tape.record("col", x, j) if x.__class__ is DualValue else x[:, j]


def colvec(x):
    """Reshape a length-n vector into an (n, 1) column."""
    return x.tape.record("colvec", x) if x.__class__ is DualValue else np.asarray(x)[:, None]


def value_of(x) -> np.ndarray:
    return x.value if x.__class__ is DualValue else np.asarray(x)
