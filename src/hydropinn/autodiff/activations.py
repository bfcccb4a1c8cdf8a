"""Softplus and its derivative, the logistic sigmoid, over numpy arrays."""

from __future__ import annotations

import numpy as np


def softplus(z):
    """log(1 + e^z), overflow-safe."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def sigmoid(z):
    """Logistic function; the exact derivative of softplus."""
    t = np.exp(-np.abs(z))
    return np.where(np.asarray(z) >= 0, 1.0 / (1.0 + t), t / (1.0 + t))

