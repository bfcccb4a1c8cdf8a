"""Finite-difference verification of reverse-mode gradients.

Central differences (2nd or 4th order) probed coordinate by coordinate
against a supplied analytic gradient. The relative error denominator is
floored so coordinates whose true gradient is negligible compared to the
largest one are judged on an absolute scale instead of blowing up the
ratio. A coordinate whose analytic or finite-difference value is NaN or
infinite counts as an infinite error, so the check fails and names it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

FLOOR_SCALE = 1e-6  # relative-error denominator floor, times max(1, max |grad|)


@dataclass
class FdReport:
    max_rel_error: float
    worst_coordinate: str  # e.g. "layer 3 W[17]"
    n_coordinates: int
    tolerance: float
    passed: bool
    elapsed_s: float

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: max relative gradient error {self.max_rel_error:.3e} "
            f"over {self.n_coordinates} coordinates (tolerance {self.tolerance:.1e}, "
            f"worst at {self.worst_coordinate}, {self.elapsed_s:.1f} s)"
        )


def _coordinates(params, flat):
    """(layer, array-in-layer, offset) of each flat index into `params`, the
    parameters laid out layer after layer, each layer's arrays in order."""
    arrays = [(li, ai, arr.size) for li, layer in enumerate(params)
              for ai, arr in enumerate(layer)]
    ends = np.cumsum([size for _, _, size in arrays])
    for i, j in zip(flat.tolist(), np.searchsorted(ends, flat, side="right").tolist()):
        li, ai, size = arrays[j]
        yield li, ai, i - (int(ends[j]) - size)


def fd_check(
    loss_fn,
    grad,
    params,
    h: float = 1e-4,
    tolerance: float = 1e-5,
    order: int = 4,
    max_coordinates: int | None = None,
    rng: np.random.Generator | None = None,
) -> FdReport:
    """Compare `grad` against central differences of `loss_fn`.

    loss_fn is nullary and reads the (temporarily perturbed) `params`
    arrays; `grad` is structured like `params`. With `max_coordinates`
    set, a deterministic subsample is drawn from `rng`: sorted flat indices
    into the parameters laid out layer after layer, (W, b) in each, which
    are probed in that order and named `layer <li> W[<k>]` or `b[<k>]` by
    their offset k in the array.
    """
    if h <= 0:
        raise ValueError("finite-difference step h must be positive")
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    start = time.perf_counter()
    total = sum(arr.size for layer in params for arr in layer)
    if max_coordinates is not None and max_coordinates < total:
        if rng is None:
            rng = np.random.default_rng(0)
        flat = np.sort(rng.choice(total, size=max_coordinates, replace=False))
    else:
        flat = np.arange(total)
    coords = list(_coordinates(params, flat))

    # over finite entries only: an inf would lift the floor and hide every error
    gmax = max(
        (float(np.max(np.abs(arr), where=np.isfinite(arr), initial=0.0))
         for layer in grad for arr in layer),
        default=0.0,
    )
    floor = FLOOR_SCALE * max(1.0, gmax)

    arr_names = ("W", "b")
    worst_err = 0.0
    worst = "none"
    for li, ai, k in coords:
        arr = params[li][ai]
        flat = arr.reshape(-1)
        old = flat[k]
        if order == 2:
            flat[k] = old + h
            fp = loss_fn()
            flat[k] = old - h
            fm = loss_fn()
            fd = (fp - fm) / (2.0 * h)
        else:
            flat[k] = old + h
            fp1 = loss_fn()
            flat[k] = old - h
            fm1 = loss_fn()
            flat[k] = old + 2.0 * h
            fp2 = loss_fn()
            flat[k] = old - 2.0 * h
            fm2 = loss_fn()
            fd = (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * h)
        flat[k] = old
        ad = float(grad[li][ai].reshape(-1)[k])
        err = abs(ad - fd) / max(abs(ad), abs(fd), floor)
        if not math.isfinite(err):  # also when ad or fd is NaN or inf
            err = math.inf
        if err > worst_err:
            worst_err = err
            worst = f"layer {li} {arr_names[ai]}[{k}] (ad={ad:.6e}, fd={fd:.6e})"
    elapsed = time.perf_counter() - start
    return FdReport(
        max_rel_error=worst_err,
        worst_coordinate=worst,
        n_coordinates=len(coords),
        tolerance=tolerance,
        passed=worst_err <= tolerance,
        elapsed_s=elapsed,
    )
