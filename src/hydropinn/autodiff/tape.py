"""Reverse-mode tape over numpy arrays.

Every node is (parent indices, backward): `backward(adjoint)` returns the
parents' adjoints in parent order; a leaf has no backward. A leaf keeps
its floating dtype; every other node's value, and so every adjoint, is
float64. One reverse sweep adds each reached node's returned adjoints
into its parents'. Var operators record the elementwise loss nodes and
do not broadcast a Var operand; indexing takes int and slice keys only.
A whole network forward, over every point family of a training
iteration, is one node with a hand-derived backward
(`network.taped_forward`) that carries the input tangents, so PDE
residual losses backpropagate to the parameters through the tangent
computation itself -- forward-over-reverse without nested tapes. Its one
parent is the leaf over the flat parameter buffer, so a gradient is one
flat vector from one backward, with no adjoint sum at the leaf; it
computes in that leaf's dtype (float32 in training) and returns its
output and gradient as float64.

Training records each iteration on a fresh tape and drops it once the
gradient is taken; a Var recorded on another tape is rejected.
Constants (plain floats/arrays) never create nodes.
"""

from __future__ import annotations

import numpy as np


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

    def _elementwise(self, operands: tuple, value, backward) -> "Var":
        if any(v.shape != np.shape(value) for v in operands):
            raise ValueError(f"Var op would broadcast {[v.shape for v in operands]} "
                             f"to {np.shape(value)}")
        return self.tape.node(operands, value, backward)

    def __add__(self, other):
        if isinstance(other, Var):
            return self._elementwise((self, other), self.value + other.value,
                                     lambda g: (g, g))
        return self._elementwise((self,), self.value + other, lambda g: (g,))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Var):
            return NotImplemented
        return self._elementwise((self,), self.value - other, lambda g: (g,))

    def __mul__(self, other):
        a = self.value
        if isinstance(other, Var):
            b = other.value
            return self._elementwise((self, other), a * b, lambda g: (g * b, g * a))
        c = np.asarray(other, dtype=float)
        return self._elementwise((self,), a * c, lambda g: (g * c,))

    __rmul__ = __mul__

    def __abs__(self):
        sign = np.sign(self.value)
        return self.tape.node((self,), np.abs(self.value), lambda g: (g * sign,))

    def mean(self):
        n, shape = self.value.size, self.value.shape
        # np.mean's own reduction and division, without its Python wrapper
        return self.tape.node((self,), np.add.reduce(self.value, axis=None) / n,
                              lambda g: (np.broadcast_to(g / n, shape),))

    def __getitem__(self, key):
        # basic keys only: the backward's `full[key] = g` would keep one of
        # the adjoints of an index that an integer array or list repeats
        if not all(isinstance(k, (int, np.integer, slice)) and not isinstance(k, bool)
                   for k in (key if isinstance(key, tuple) else (key,))):
            raise TypeError(f"a Var takes only int and slice keys, got {key!r}")
        shape = self.value.shape

        def backward(g):
            full = np.zeros(shape)
            full[key] = g
            return (full,)

        return self.tape.node((self,), self.value[key], backward)


class Tape:
    """Append-only node record with one-sweep reverse differentiation."""

    def __init__(self):
        self._nodes: list[tuple] = []

    def __len__(self):
        return len(self._nodes)

    def leaf(self, value) -> Var:
        """Record an input (parameter) node that will receive an adjoint; a
        floating value keeps its dtype, any other is taken as float64."""
        value = np.asarray(value)
        if value.dtype.kind != "f":
            value = value.astype(float)
        self._nodes.append(((), None))
        return Var(self, len(self._nodes) - 1, value)

    def node(self, parents, value, backward) -> Var:
        """Record `value`, computed from the Vars `parents`; `backward(adjoint)`
        returns their adjoints in order."""
        self._nodes.append((tuple(p.index for p in parents), backward))
        return Var(self, len(self._nodes) - 1, np.asarray(value, dtype=float))

    def gradients(self, loss: Var, wrt: list[Var]) -> list[np.ndarray]:
        """Adjoints of `wrt` leaves for a scalar loss, via one reverse sweep."""
        if any(v.tape is not self for v in (loss, *wrt)):
            raise ValueError("Var was recorded on a different tape")
        if loss.value.size != 1:
            raise ValueError("gradients require a scalar loss")
        adj: list = [None] * len(self._nodes)
        adj[loss.index] = np.ones_like(loss.value)
        for idx in range(loss.index, -1, -1):
            parents, backward = self._nodes[idx]
            if adj[idx] is None or backward is None:
                continue
            # adjoints are never mutated in place, so sharing views is safe
            for p, grad in zip(parents, backward(adj[idx])):
                adj[p] = grad if adj[p] is None else adj[p] + grad
        return [np.zeros(v.shape) if adj[v.index] is None else adj[v.index]
                for v in wrt]
