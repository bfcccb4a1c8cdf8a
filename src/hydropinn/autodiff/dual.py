"""Forward-mode duals carrying the two input tangents (d/dx, d/dt).

The problem has exactly two independent coordinates, so a Dual holds one
value and one tangent per coordinate instead of a generic tangent vector.
Fields may be scalars or numpy arrays; arithmetic broadcasts elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def softplus(z):
    """log(1 + e^z), overflow-safe."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def sigmoid(z):
    """Logistic function; the exact derivative of softplus."""
    t = np.exp(-np.abs(z))
    return np.where(np.asarray(z) >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def softplus_and_sigmoid(z):
    """Both at once, sharing the exp evaluation."""
    t = np.exp(-np.abs(z))
    sp = np.maximum(z, 0.0) + np.log1p(t)
    return sp, np.where(np.asarray(z) >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


@dataclass
class Dual:
    """value + tangent_x * ex + tangent_t * et with ex^2 = et^2 = ex*et = 0."""

    value: object
    tangent_x: object
    tangent_t: object

    # keep numpy from broadcasting over a Dual as an object scalar
    __array_ufunc__ = None

    @classmethod
    def seed(cls, value, dx, dt) -> "Dual":
        """Independent variable with prescribed tangents (chain-rule seeds)."""
        value = np.asarray(value, dtype=float)
        return cls(value, np.broadcast_to(np.asarray(dx, dtype=float), value.shape).copy(),
                   np.broadcast_to(np.asarray(dt, dtype=float), value.shape).copy())

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value,
                        self.tangent_x + other.tangent_x,
                        self.tangent_t + other.tangent_t)
        return Dual(self.value + other, self.tangent_x, self.tangent_t)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.value, -self.tangent_x, -self.tangent_t)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value,
                        self.tangent_x - other.tangent_x,
                        self.tangent_t - other.tangent_t)
        return Dual(self.value - other, self.tangent_x, self.tangent_t)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value * other.value,
                        self.tangent_x * other.value + self.value * other.tangent_x,
                        self.tangent_t * other.value + self.value * other.tangent_t)
        return Dual(self.value * other, self.tangent_x * other, self.tangent_t * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.value
            val = self.value * inv
            return Dual(val,
                        (self.tangent_x - val * other.tangent_x) * inv,
                        (self.tangent_t - val * other.tangent_t) * inv)
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.value
        val = other * inv
        return Dual(val, -val * inv * self.tangent_x, -val * inv * self.tangent_t)

    def __abs__(self):
        s = np.sign(self.value)
        return Dual(np.abs(self.value), s * self.tangent_x, s * self.tangent_t)

    def __matmul__(self, weights):
        """Dual matrix times a constant weight matrix."""
        w = np.asarray(weights, dtype=float)
        return Dual(self.value @ w, self.tangent_x @ w, self.tangent_t @ w)


def dual_softplus(d: Dual) -> Dual:
    sp, s = softplus_and_sigmoid(d.value)
    return Dual(sp, s * d.tangent_x, s * d.tangent_t)
