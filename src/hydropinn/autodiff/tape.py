"""Reverse-mode tape over float64 numpy arrays.

Recording happens through Var operators; nodes keep (op code, parent
indices, local partials) and a single reverse sweep fills the adjoint
buffer. The network forward pass records the forward-mode chain rules
for the input tangents as ordinary tape ops, so losses built from input derivatives (PDE residuals)
backpropagate to the parameters through the tangent computation itself --
forward-over-reverse without nested tapes.

Constants (plain floats/arrays) never create nodes; only quantities
reachable from leaves carry adjoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import softplus_and_sigmoid


@dataclass
class Node:
    op: str
    parents: tuple
    aux: tuple


class Var:
    """Handle to one tape node; supports the arithmetic the losses need."""

    __slots__ = ("tape", "index", "value")

    # make numpy defer to the reflected operators instead of broadcasting
    # over a Var as an object scalar
    __array_ufunc__ = None

    def __init__(self, tape: "Tape", index: int, value: np.ndarray):
        self.tape = tape
        self.index = index
        self.value = value

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        if isinstance(other, Var):
            return self.tape._record("add", (self.index, other.index), (),
                                     self.value + other.value)
        return self.tape._record("id", (self.index,), (), self.value + other)

    __radd__ = __add__

    def __neg__(self):
        return self.tape._record("neg", (self.index,), (), -self.value)

    def __sub__(self, other):
        if isinstance(other, Var):
            return self.tape._record("sub", (self.index, other.index), (),
                                     self.value - other.value)
        return self.tape._record("id", (self.index,), (), self.value - other)

    def __rsub__(self, other):
        return self.tape._record("neg", (self.index,), (), other - self.value)

    def __mul__(self, other):
        if isinstance(other, Var):
            return self.tape._record("mul", (self.index, other.index),
                                     (self.value, other.value),
                                     self.value * other.value)
        other = np.asarray(other, dtype=float)
        return self.tape._record("scale", (self.index,), (other,), self.value * other)

    __rmul__ = __mul__

    def __abs__(self):
        return self.tape._record("abs", (self.index,), (np.sign(self.value),),
                                 np.abs(self.value))

    def __matmul__(self, other):
        if isinstance(other, Var):
            return self.tape._record("matmul", (self.index, other.index),
                                     (self.value, other.value),
                                     self.value @ other.value)
        other = np.asarray(other, dtype=float)
        return self.tape._record("matmul_vc", (self.index,), (other,),
                                 self.value @ other)

    def __rmatmul__(self, other):
        other = np.asarray(other, dtype=float)
        return self.tape._record("matmul_cv", (self.index,), (other,),
                                 other @ self.value)

    def mean(self):
        return self.tape._record("mean", (self.index,),
                                 (self.value.size, self.value.shape),
                                 np.asarray(np.mean(self.value)))

    def column(self, j: int):
        return self.tape._record("column", (self.index,), (j, self.value.shape),
                                 self.value[:, j])


def tape_softplus(x: Var) -> Var:
    sp, s = softplus_and_sigmoid(x.value)
    return x.tape._record("softplus", (x.index,), (s,), sp)


def tape_softplus_sigmoid(x: Var) -> tuple[Var, Var]:
    """Activation and its derivative as separate nodes, one exp evaluation."""
    sp, s = softplus_and_sigmoid(x.value)
    return (x.tape._record("softplus", (x.index,), (s,), sp),
            x.tape._record("sigmoid", (x.index,), (s,), s))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the parent's shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tape:
    """Append-only operation record with one-sweep reverse differentiation."""

    def __init__(self):
        self._nodes: list[Node] = []
        self._values: list[np.ndarray] = []

    def __len__(self):
        return len(self._nodes)

    def leaf(self, value) -> Var:
        """Record an input (parameter) node that will receive an adjoint."""
        return self._record("leaf", (), (), np.asarray(value, dtype=float))

    def _record(self, op: str, parents: tuple, aux: tuple, value) -> Var:
        value = np.asarray(value, dtype=float)
        self._nodes.append(Node(op, parents, aux))
        self._values.append(value)
        return Var(self, len(self._nodes) - 1, value)

    def gradients(self, loss: Var, wrt: list[Var]) -> list[np.ndarray]:
        """Adjoints of `wrt` leaves for a scalar loss, via one reverse sweep."""
        if loss.tape is not self:
            raise ValueError("loss was recorded on a different tape")
        if loss.value.size != 1:
            raise ValueError("gradients require a scalar loss")
        adj: list = [None] * (loss.index + 1)
        adj[loss.index] = np.ones_like(loss.value)
        nodes = self._nodes
        values = self._values
        for idx in range(loss.index, -1, -1):
            g = adj[idx]
            if g is None:
                continue
            node = nodes[idx]
            op = node.op

            if op == "leaf":
                continue
            if op == "add":
                a, b = node.parents
                self._accum(adj, a, _unbroadcast(g, values[a].shape))
                self._accum(adj, b, _unbroadcast(g, values[b].shape))
            elif op == "sub":
                a, b = node.parents
                self._accum(adj, a, _unbroadcast(g, values[a].shape))
                self._accum(adj, b, _unbroadcast(-g, values[b].shape))
            elif op == "id":
                self._accum(adj, node.parents[0], g)
            elif op == "neg":
                self._accum(adj, node.parents[0], -g)
            elif op == "mul":
                a, b = node.parents
                av, bv = node.aux
                self._accum(adj, a, _unbroadcast(g * bv, values[a].shape))
                self._accum(adj, b, _unbroadcast(g * av, values[b].shape))
            elif op == "scale":
                (c,) = node.aux
                a = node.parents[0]
                self._accum(adj, a, _unbroadcast(g * c, values[a].shape))
            elif op in ("abs", "softplus"):
                (partial,) = node.aux
                self._accum(adj, node.parents[0], g * partial)
            elif op == "sigmoid":
                (s,) = node.aux
                self._accum(adj, node.parents[0], g * s * (1.0 - s))
            elif op == "matmul":
                a, b = node.parents
                av, bv = node.aux
                self._accum(adj, a, g @ bv.T)
                self._accum(adj, b, av.T @ g)
            elif op == "matmul_vc":
                (c,) = node.aux
                self._accum(adj, node.parents[0], g @ c.T)
            elif op == "matmul_cv":
                (c,) = node.aux
                self._accum(adj, node.parents[0], c.T @ g)
            elif op == "mean":
                n, shape = node.aux
                self._accum(adj, node.parents[0],
                            np.broadcast_to(g / n, shape))
            elif op == "column":
                j, shape = node.aux
                full = np.zeros(shape)
                full[:, j] = g
                self._accum(adj, node.parents[0], full)
            else:  # pragma: no cover - guarded by the op whitelist above
                raise ValueError(f"unknown tape op {op!r}")
        out = []
        for v in wrt:
            g = adj[v.index] if v.index <= loss.index else None
            out.append(np.zeros_like(v.value) if g is None else g)
        return out

    @staticmethod
    def _accum(adj: list, index: int, grad: np.ndarray) -> None:
        # adjoints are never mutated in place, so sharing views is safe
        if adj[index] is None:
            adj[index] = grad
        else:
            adj[index] = adj[index] + grad
