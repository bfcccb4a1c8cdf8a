"""Method-of-characteristics reference solver for the water-hammer equations.

Works internally in head/velocity on a Courant-1 grid (dx = a*dt exactly,
wave speed rescaled by at most 1% to fit the pipe length). The compatibility
relations integrated along the C+/C- characteristics, with friction
evaluated at the foot of each characteristic, are

    C+:  H_i = H_{i-1} + B*(V_{i-1} - V_i) - B*R*V_{i-1}|V_{i-1}|
    C-:  H_i = H_{i+1} - B*(V_{i+1} - V_i) + B*R*V_{i+1}|V_{i+1}|

with B = a/g and R = f*dt/(2D). The inlet node takes head from the
pressure signal and velocity from C-; the outlet node takes velocity from
the flowrate signal and head from C+.

One kernel, `_step_into`, computes a step without allocating: B*V and
B*R*V|V| are formed once and shared by both families of feet, and the new
state is written into caller-owned rows. `run_details` steps it straight
into the rows of its output arrays and checks finiteness over blocks of
CHECK_ROWS rows; `moc_step` runs it once into fresh arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError, NumericalBlowupError
from .hydraulics import (
    FluidSpec,
    PipelineSpec,
    flowrate_to_velocity,
    friction_factor,
    pressure_to_head,
    steady_profile,
    wave_speed,
)
from .scenario import Scenario

MAX_WAVE_SPEED_RESCALE = 0.01


@dataclass(frozen=True)
class MocGrid:
    """Courant-1 discretization: dx = wave_speed * dt exactly."""

    dt: float  # s
    dx: float  # m
    node_count: int
    wave_speed: float  # m/s, grid-adjusted

    @property
    def positions(self) -> np.ndarray:
        return np.arange(self.node_count) * self.dx


@dataclass
class FieldGrid:
    """Dense space-time pressure/velocity field on a rectangular (x, t) grid.

    P has shape (len(ts), len(xs)) in MPa; v likewise in m/s.
    """

    xs: np.ndarray
    ts: np.ndarray
    P: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ts = np.asarray(self.ts, dtype=float)
        self.P = np.asarray(self.P, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.xs.size < 2 or self.ts.size < 1:
            raise DomainError("FieldGrid needs at least 2 positions and 1 time")
        for name, axis in (("xs", self.xs), ("ts", self.ts)):
            if not np.all(np.diff(axis) > 0):
                raise DomainError(f"FieldGrid {name} must be strictly increasing")
        expected = (self.ts.size, self.xs.size)
        if self.P.shape != expected or self.v.shape != expected:
            raise DomainError(
                f"FieldGrid arrays must have shape {expected}, "
                f"got P{self.P.shape} v{self.v.shape}"
            )


def build_grid(pipe: PipelineSpec, fluid: FluidSpec, dt: float) -> MocGrid:
    """Fit a Courant-1 grid to the pipe by rounding L/(a*dt) to whole cells.

    The wave speed is rescaled to dx/dt; if that moves it by more than 1%
    the requested dt is too coarse for this pipe and a GridError is raised.
    """
    if not 0 < dt < np.inf:  # also rejects NaN
        raise GridError(f"MOC dt must be finite and positive, got {dt!r}")
    a = wave_speed(fluid, pipe)
    node_count = int(round(pipe.length / (a * dt))) + 1
    if node_count < 3:
        raise GridError(
            f"only {node_count} nodes at dt={dt} s; grid too coarse to resolve the pipe"
        )
    dx = pipe.length / (node_count - 1)
    a_grid = dx / dt
    rescale = abs(a_grid - a) / a
    if rescale > MAX_WAVE_SPEED_RESCALE:
        raise GridError(
            f"fitting the grid would rescale the wave speed by {rescale:.2%} (> 1%); "
            "reduce dt"
        )
    return MocGrid(dt=dt, dx=dx, node_count=node_count, wave_speed=a_grid)


# rows of the output arrays whose finiteness `run_details` checks at once
CHECK_ROWS = 64


def _step_into(H, V, Hn, Vn, scratch, inlet_head, outlet_velocity, B, BR,
               offtake_index, offtake_velocity) -> None:
    """Write the step after head H / velocity V into Hn / Vn, allocating nothing.

    `scratch` is four arrays the size of H; BR is B*R. B*V and (B*R*V)*|V|
    are formed once over all nodes and shared by the C+ feet (nodes
    0..n-2) and the C- feet (nodes 1..n-1). Overflow warnings are left to
    the caller's errstate.
    """
    bv, fr, cp, cm = scratch
    np.multiply(V, B, out=bv)
    np.abs(V, out=cp)
    np.multiply(V, BR, out=fr)
    np.multiply(fr, cp, out=fr)
    np.add(H, bv, out=cp)
    np.subtract(cp, fr, out=cp)  # cp[i]: C+ foot at node i
    np.subtract(H, bv, out=cm)
    np.add(cm, fr, out=cm)  # cm[i]: C- foot at node i
    k = offtake_index
    if k is not None and offtake_velocity != 0.0:
        # the downstream side of the offtake carries V - offtake_velocity
        vd = V[k] - offtake_velocity
        cp[k] = (H[k] + B * vd) - BR * vd * abs(vd)
    inner = Hn[1:-1]
    np.add(cp[:-2], cm[2:], out=inner)
    np.multiply(inner, 0.5, out=inner)
    inner = Vn[1:-1]
    np.subtract(cp[:-2], cm[2:], out=inner)
    np.divide(inner, 2.0 * B, out=inner)
    Hn[0] = inlet_head
    Vn[0] = (inlet_head - cm[1]) / B
    Vn[-1] = outlet_velocity
    Hn[-1] = cp[-2] - B * outlet_velocity
    if k is not None:
        # upstream-side velocity at the offtake node; both sides share its head
        v_up = (cp[k - 1] - cm[k + 1] + B * offtake_velocity) / (2.0 * B)
        Vn[k] = v_up
        Hn[k] = cp[k - 1] - B * v_up


def moc_step(
    H: np.ndarray,
    V: np.ndarray,
    inlet_head: float,
    outlet_velocity: float,
    B: float,
    R: float,
    offtake_index: int | None = None,
    offtake_velocity: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance head/velocity one time step; returns new arrays.

    Runs the in-place kernel `run_details` steps with into fresh arrays and
    checks them for non-finite values. At an offtake node, V stores the
    upstream-side velocity and the downstream side carries
    V - offtake_velocity (common head).
    """
    Hn = np.empty_like(H)
    Vn = np.empty_like(V)
    with np.errstate(over="ignore", invalid="ignore"):
        _step_into(H, V, Hn, Vn, np.empty((4, H.size)), inlet_head, outlet_velocity,
                   B, B * R, offtake_index, offtake_velocity)
    if not (np.all(np.isfinite(Hn)) and np.all(np.isfinite(Vn))):
        raise NumericalBlowupError("non-finite head or velocity after MOC step")
    return Hn, Vn


def run(scenario: Scenario, dt: float = 0.5) -> FieldGrid:
    """Simulate the scenario on the internal MOC grid.

    The initial condition is the Darcy steady profile consistent with the
    boundary signals at t=0; the friction factor is frozen from that steady
    state (or taken from the pipe spec when set).
    """
    return run_details(scenario, dt)[0]


def _check_rows(H_out, V_out, j0: int, j1: int, ts) -> None:
    """Raise at the first step among rows j0..j1-1 with a non-finite value."""
    bad = ~(np.isfinite(H_out[j0:j1]).all(axis=1) & np.isfinite(V_out[j0:j1]).all(axis=1))
    if bad.any():
        j = j0 + int(np.argmax(bad))
        raise NumericalBlowupError("non-finite head or velocity after MOC step "
                                   f"(step {j}, t={ts[j]:.3f} s)", step=j)


def run_details(scenario: Scenario, dt: float = 0.5):
    """Like `run`, but also returns the MocGrid and the frozen-friction pipe.

    Each step is written in place into its row of the output arrays. P holds
    head until the last step and is then converted to pressure in place.
    Finiteness is checked every CHECK_ROWS rows and reported at the first
    non-finite step, as a check after every step would report it.
    """
    pipe, fluid = scenario.pipe, scenario.fluid
    grid = build_grid(pipe, fluid, dt)
    xs = grid.positions
    area = pipe.area

    q0 = float(scenario.outlet_flowrate(0.0))
    v0 = float(flowrate_to_velocity(q0, pipe.diameter))
    if pipe.friction_factor is None:
        f0 = friction_factor(fluid, v0, pipe.diameter)
        if not 0 < f0 < 0.1:  # only laminar 64/Re leaves the band, below Re 640
            reynolds = abs(v0) * pipe.diameter / fluid.kinematic_viscosity
            raise DomainError(
                f"the initial outlet flowrate {q0:.4g} m^3/s (Re {reynolds:.4g}) gives a "
                f"laminar friction factor 64/Re = {f0:.4g}, outside (0, 0.1); start "
                "from rest, from a flow above Re 640, or set pipe.friction_factor")
        pipe = pipe.with_friction(f0)
    f = pipe.friction_factor

    profile = steady_profile(
        pipe, fluid, float(scenario.inlet_pressure(0.0)),
        float(scenario.outlet_flowrate(0.0)), positions=xs,
    )

    offtake_index = None
    offtake_signal = None
    if scenario.offtake is not None:
        offtake_index = int(round(scenario.offtake.position / grid.dx))
        if not 0 < offtake_index < grid.node_count - 1:
            raise GridError("offtake position maps to a boundary node; refine the grid")
        offtake_signal = scenario.offtake.flowrate

    n_steps = int(np.ceil(scenario.duration / dt - 1e-9)) if scenario.duration > 0 else 0
    ts = np.arange(n_steps + 1) * dt
    B = grid.wave_speed / pipe.gravity
    R = f * dt / (2.0 * pipe.diameter)

    P_out = np.empty((n_steps + 1, grid.node_count))  # head until converted
    v_out = np.empty((n_steps + 1, grid.node_count))
    P_out[0] = pressure_to_head(profile.pressure, fluid.density, pipe.gravity)
    v_out[0] = profile.velocity

    # boundary signals at every step, evaluated once
    inlet_heads = pressure_to_head(scenario.inlet_pressure(ts), fluid.density,
                                   pipe.gravity).tolist()
    outlet_vs = flowrate_to_velocity(scenario.outlet_flowrate(ts), pipe.diameter).tolist()
    off_vs = ((offtake_signal(ts) / area).tolist() if offtake_signal is not None
              else [0.0] * ts.size)
    scratch = np.empty((4, grid.node_count))
    BR = B * R
    with np.errstate(over="ignore", invalid="ignore"):
        for j0 in range(1, n_steps + 1, CHECK_ROWS):
            j1 = min(j0 + CHECK_ROWS, n_steps + 1)
            for j in range(j0, j1):
                _step_into(P_out[j - 1], v_out[j - 1], P_out[j], v_out[j], scratch,
                           inlet_heads[j], outlet_vs[j], B, BR, offtake_index, off_vs[j])
            _check_rows(P_out, v_out, j0, j1, ts)
    # head_to_pressure's arithmetic, in place
    np.multiply(P_out, fluid.density * pipe.gravity / 1e6, out=P_out)
    P_out[0] = profile.pressure

    return FieldGrid(xs=xs, ts=ts, P=P_out, v=v_out), grid, pipe


def _axis_weights(coords: np.ndarray, queries: np.ndarray, name: str):
    coords = np.asarray(coords, dtype=float)
    q = np.atleast_1d(np.asarray(queries, dtype=float))
    span = coords[-1] - coords[0]
    tol = 1e-9 * max(abs(span), 1.0)
    if np.any(q < coords[0] - tol) or np.any(q > coords[-1] + tol):
        raise DomainError(f"{name} query outside the field bounds "
                          f"[{coords[0]:g}, {coords[-1]:g}]")
    if coords.size == 1:
        return np.zeros(q.size, dtype=int), np.zeros(q.size)
    step = span / (coords.size - 1)
    # the weights below assume one step; the same tolerance as the snapping
    if np.max(np.abs(np.diff(coords) - step)) > 1e-9 * abs(step):
        raise GridError(f"{name} axis of the source field is not uniformly spaced")
    frac = (q - coords[0]) / step
    i0 = np.clip(np.floor(frac).astype(int), 0, coords.size - 2)
    w = frac - i0
    # snap to the node when the query coincides with it (exactness contract)
    w[np.abs(w) < 1e-9] = 0.0
    w[np.abs(w - 1.0) < 1e-9] = 1.0
    return i0, w


def sample(field: FieldGrid, xs_out, ts_out) -> FieldGrid:
    """Bilinear resampling of the field onto a new rectangular grid.

    The field's axes must be uniformly spaced (GridError otherwise), as the
    MOC and export grids are.

    Only the source rows that bracket an output time are interpolated in x,
    so the transient memory is O(export grid), not O(source rows); every
    output element is the same x-then-t blend, in the same order, as
    interpolating all source rows first.
    """
    ix, wx = _axis_weights(field.xs, xs_out, "x")
    it, wt = _axis_weights(field.ts, ts_out, "t")
    ix1 = np.minimum(ix + 1, field.xs.size - 1)
    rows, pick = np.unique(np.concatenate([it, np.minimum(it + 1, field.ts.size - 1)]),
                           return_inverse=True)
    lo, hi = pick[:it.size], pick[it.size:]

    def interp(values: np.ndarray) -> np.ndarray:
        in_x = values[rows[:, None], ix] * (1.0 - wx) + values[rows[:, None], ix1] * wx
        if field.ts.size == 1:
            return in_x[lo, :]
        return in_x[lo, :] * (1.0 - wt)[:, None] + in_x[hi, :] * wt[:, None]

    return FieldGrid(
        xs=np.atleast_1d(np.asarray(xs_out, dtype=float)),
        ts=np.atleast_1d(np.asarray(ts_out, dtype=float)),
        P=interp(field.P),
        v=interp(field.v),
    )


def export_grid(length: float, duration: float, dx: float = 1000.0,
                dt: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """The dataset grid: evenly spaced columns/rows spanning the domain. Each
    step must be finite, positive and split its span into whole cells (to 1e-9
    relative); anything else is a GridError naming the value."""
    for name, step, span in (("dx", dx, length), ("dt", dt, duration)):
        if not 0 < step < np.inf:  # also rejects NaN
            raise GridError(f"export grid {name} must be finite and positive, got {step!r}")
        if abs(span / step - round(span / step)) > 1e-9 * span / step:
            raise GridError(f"export grid {name}={step!r} does not divide {span!r} "
                            "into whole cells")
    return (np.linspace(0.0, length, round(length / dx) + 1),
            np.linspace(0.0, duration, round(duration / dt) + 1))


def interior_column_indices(xs: np.ndarray, length: float,
                            offtake_x: float | None = None,
                            tol: float = 0.5) -> np.ndarray:
    """Columns that carry no boundary or offtake node (collocation columns)."""
    xs = np.asarray(xs, dtype=float)
    keep = (np.abs(xs - 0.0) > tol) & (np.abs(xs - length) > tol)
    if offtake_x is not None:
        keep &= np.abs(xs - offtake_x) > tol
    return np.nonzero(keep)[0]
