"""Spans around calls into hydropinn's layers, for the traced benchmark run.

A span is (name, start, end, parent, rows, flops); for Tape.gradients the
rows field holds the tape's node count. Spans are kept in memory and
written out once, when the run ends. Wrappers are installed on
the module attribute each caller looks the name up in: a module that did
`from .network import net_forward` holds its own binding, so wrapping the
defining module alone would not see its calls.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

import numpy as np

import hydropinn.adcheck
import hydropinn.losses
import hydropinn.metrics
import hydropinn.network
import hydropinn.training
from hydropinn.autodiff.tape import Tape


def _rows(pos):
    """Rows of the point array at positional index `pos`."""
    return lambda args, kwargs: (int(np.size(args[pos])), None)


def _forward_rows(passes: int):
    """Rows and matmul flops of a forward carrying `passes` - 1 tangents."""
    def inspect(args, kwargs):
        spec, rows = args[0], int(np.size(args[2]))
        return rows, passes * 2 * rows * sum(n_in * n_out for n_in, n_out in spec.layer_dims)
    return inspect


def _taped_flops(args, kwargs):
    """Forward plus reverse-sweep matmul flops of one taped forward.

    The reverse sweep does two matmuls per forward matmul, except in the
    first layer, whose input is a constant and gets no adjoint.
    """
    spec, rows = args[0], int(np.size(args[2]))
    passes = 3 if kwargs.get("with_tangents", args[4] if len(args) > 4 else False) else 1
    dims = spec.layer_dims
    flops = sum(2 * rows * n_in * n_out * (2 if li == 0 else 3)
                for li, (n_in, n_out) in enumerate(dims))
    return rows, passes * flops


def _tape_nodes(args, kwargs):
    return int(len(args[0])), None


def _none(args, kwargs):
    return None, None


# (module, attribute, span name, inspector, expected to fire): the call
# sites the benchmark's operations reach. `hydropinn.losses.net_forward`
# backs only the public loss_bc/loss_ic evaluation API, which no workload
# calls; it is wrapped so that a refactor routing through it still shows.
WRAP_SITES = [
    (hydropinn.training, "adam_step", "training.adam_step", _none, True),
    (hydropinn.training, "taped_data_loss", "losses.taped_data_loss", _rows(2), True),
    (hydropinn.training, "taped_physics_losses", "losses.taped_physics_losses", _rows(2), True),
    (hydropinn.training, "residuals", "losses.residuals", _rows(3), True),
    (hydropinn.training, "net_forward", "network.net_forward", _forward_rows(1), True),
    (hydropinn.losses, "taped_forward", "network.taped_forward", _taped_flops, True),
    (hydropinn.losses, "forward_with_input_tangents", "network.forward_with_input_tangents",
     _forward_rows(3), True),
    (hydropinn.losses, "net_forward", "network.net_forward", _forward_rows(1), False),
    # adcheck.fast_coupled_loss imports these two at call time
    (hydropinn.losses, "residuals", "losses.residuals", _rows(3), True),
    (hydropinn.network, "net_forward", "network.net_forward", _forward_rows(1), True),
    (hydropinn.metrics, "net_forward", "network.net_forward", _forward_rows(1), True),
    (hydropinn.adcheck, "taped_coupled_gradient", "adcheck.taped_gradient", _none, True),
    (hydropinn.adcheck, "fd_check", "autodiff.fdcheck", _none, True),
    (hydropinn.adcheck, "fast_coupled_loss", "adcheck.fast_coupled_loss", _none, True),
    (Tape, "gradients", "autodiff.tape.gradients", _tape_nodes, True),
]


class Tracer:
    """Records spans while enabled; wrappers pass calls straight through otherwise."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.rows: list = []
        self.flops: list = []
        self.fired: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name, rows=None, flops=None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rows.append(rows)
        self.flops.append(flops)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, rows=None):
        """Span around a call the benchmark makes itself."""
        if not self.enabled:
            yield
            return
        idx = self._open(name, rows)
        try:
            yield
        finally:
            self._close(idx)

    def install(self) -> None:
        """Wrap every site in WRAP_SITES; a missing attribute raises at once."""
        for owner, attr, name, inspect, _ in WRAP_SITES:
            site = f"{owner.__name__}.{attr}"
            original = getattr(owner, attr)  # AttributeError on a rename
            self.fired[site] = 0
            setattr(owner, attr, self._wrap(original, name, site, inspect))

    def _wrap(self, fn, name, site, inspect):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.fired[site] += 1
            rows, flops = inspect(args, kwargs)
            idx = self._open(name, rows, flops)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def missing_sites(self) -> list[str]:
        """Expected call sites that never fired while tracing was on."""
        expected = {f"{o.__name__}.{a}" for o, a, _, _, e in WRAP_SITES if e}
        return sorted(s for s in expected if self.fired.get(s, 0) == 0)

    def self_times(self) -> np.ndarray:
        """Span duration minus the time its direct children cover."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        own = dur.copy()
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "start": self.start, "end": self.end,
                       "parent": self.parent, "rows": self.rows,
                       "flops": self.flops}, fh)
