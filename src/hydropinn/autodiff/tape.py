"""Reverse-mode tape over float64 numpy arrays.

Recording happens through Var operators; nodes keep (op code, parent
indices, local partials) and a single reverse sweep fills the adjoint
buffer. A whole network forward is one `fused` node whose aux is a
backward closure (`network.taped_forward`); it carries the input tangents,
so PDE residual losses backpropagate to the parameters through the tangent
computation itself -- forward-over-reverse without nested tapes.

A tape is reset and re-recorded every training iteration; `buffer` hands
out arrays that survive `reset`, so what fused nodes keep for the reverse
is allocated once. Vars recorded before the last `reset` are rejected.

Constants (plain floats/arrays) never create nodes; only quantities
reachable from leaves carry adjoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Node:
    op: str
    parents: tuple
    aux: tuple


class Var:
    """Handle to one tape node; supports the arithmetic the losses need."""

    __slots__ = ("tape", "index", "value", "generation")

    # make numpy defer to the reflected operators instead of broadcasting
    # over a Var as an object scalar
    __array_ufunc__ = None

    def __init__(self, tape: "Tape", index: int, value: np.ndarray, generation: int):
        self.tape = tape
        self.index = index
        self.value = value
        self.generation = generation

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

    def mean(self):
        return self.tape._record("mean", (self.index,),
                                 (self.value.size, self.value.shape),
                                 np.asarray(np.mean(self.value)))

    def __getitem__(self, key):
        return self.tape._record("index", (self.index,), (key, self.value.shape),
                                 self.value[key])


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
        self._buffers: list[np.ndarray] = []
        self._next_buffer = 0
        self._generation = 0

    def reset(self) -> None:
        """Drop every node, keeping the buffers for the next recording."""
        self._nodes.clear()
        self._values.clear()
        self._next_buffer = 0
        self._generation += 1

    def buffer(self, shape: tuple, dtype=float) -> np.ndarray:
        """An uninitialized array, valid until the next `reset`. The k-th
        call after a reset returns the k-th call's array of the recording
        before it when shape and dtype match."""
        k = self._next_buffer
        self._next_buffer += 1
        if k == len(self._buffers):
            self._buffers.append(np.empty(shape, dtype))
        elif self._buffers[k].shape != shape or self._buffers[k].dtype != dtype:
            self._buffers[k] = np.empty(shape, dtype)
        return self._buffers[k]

    def __len__(self):
        return len(self._nodes)

    def leaf(self, value) -> Var:
        """Record an input (parameter) node that will receive an adjoint."""
        return self._record("leaf", (), (), np.asarray(value, dtype=float))

    def fused(self, parents: list, value, backward) -> Var:
        """One node for a computation over `parents`; `backward(adjoint)`
        returns their adjoints in order."""
        return self._record("fused", tuple(p.index for p in parents), (backward,), value)

    def _record(self, op: str, parents: tuple, aux: tuple, value) -> Var:
        value = np.asarray(value, dtype=float)
        self._nodes.append(Node(op, parents, aux))
        self._values.append(value)
        return Var(self, len(self._nodes) - 1, value, self._generation)

    def gradients(self, loss: Var, wrt: list[Var]) -> list[np.ndarray]:
        """Adjoints of `wrt` leaves for a scalar loss, via one reverse sweep."""
        if loss.tape is not self:
            raise ValueError("loss was recorded on a different tape")
        if any(v.generation != self._generation for v in (loss, *wrt)):
            raise ValueError("Var was recorded before the tape's last reset")
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
            elif op == "abs":
                (partial,) = node.aux
                self._accum(adj, node.parents[0], g * partial)
            elif op == "fused":
                (backward,) = node.aux
                for parent, grad in zip(node.parents, backward(g)):
                    self._accum(adj, parent, grad)
            elif op == "mean":
                n, shape = node.aux
                self._accum(adj, node.parents[0],
                            np.broadcast_to(g / n, shape))
            elif op == "index":
                key, shape = node.aux
                full = np.zeros(shape)
                full[key] = g
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
