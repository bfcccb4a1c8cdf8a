"""Residual operators and loss terms for physics-informed training.

Two equivalent residual forms exist: the pressure-form operators used by
the magnitude-converted network (outputs in MPa and m/s), and the
head-form operators used by the fixed-weight baseline (outputs in m and
m/s). The pressure-form residual equals rho*g/1e6 times the head-form
residual under h = 1e6*P/(rho*g); a test suite pins that identity.

The residual cores and the data misfit are written once over numpy arrays
(`residuals`, on the tape-free `forward_with_input_tangents`) or tape Vars
(`taped_data_loss`/`taped_physics_losses`, on a family's slice of the
outputs of `taped_outputs`, the iteration's one `taped_forward` node over
all its families, the residual arithmetic recorded op by op), through one
pressure/head dispatch. The weighted objective lives in `training` (`_objective`,
`_weighted_sum`). Reductions are fixed-order numpy means, keeping loss
values deterministic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff.tape import Var
from .errors import ConfigError, DomainError
from .hydraulics import FluidSpec, PipelineSpec
from .moc import FieldGrid, interior_column_indices
from .network import ForwardCache, NetSpec, forward_with_input_tangents, taped_forward
from .network import net_forward  # noqa: F401  (perfbench/tracer.py wraps this binding)

BC_LOSS_FORMS = ("paper", "split")


@dataclass(frozen=True)
class LossWeights:
    """Non-negative weights of the coupled loss's physics terms; its data
    terms bc and ic carry a fixed weight of 1."""

    con: float = 1.0
    mo: float = 1.0

    def __post_init__(self):
        if self.con < 0 or self.mo < 0:
            raise DomainError("loss weights must be non-negative")


@dataclass(frozen=True)
class PhysicsCoefficients:
    """Constant factors of the residual operators, fixed per run."""

    gravity: float
    rho_g_over_1e6: float  # rho*g/1e6, MPa per metre of head
    rho_a2_over_1e6: float  # rho*a^2/1e6
    friction_pv: float  # f * (rho*g/1e6) / (2D), multiplies v|v|
    a2_over_g: float
    friction_hv: float  # f / (2D)
    head_per_mpa: float  # 1e6 / (rho*g)

    @classmethod
    def from_specs(cls, fluid: FluidSpec, pipe: PipelineSpec,
                   wave_speed: float) -> "PhysicsCoefficients":
        f = pipe.friction_factor
        if f is None:
            raise ConfigError("pipe friction factor must be frozen before training")
        g = pipe.gravity
        rho_g = fluid.density * g / 1e6
        try:
            a2 = wave_speed**2
        except OverflowError:
            a2 = math.inf
        coeffs = cls(
            gravity=g,
            rho_g_over_1e6=rho_g,
            rho_a2_over_1e6=fluid.density * a2 / 1e6,
            friction_pv=f * rho_g / (2.0 * pipe.diameter),
            a2_over_g=a2 / g,
            friction_hv=f / (2.0 * pipe.diameter),
            head_per_mpa=1e6 / (fluid.density * g),
        )
        for name, value in asdict(coeffs).items():
            if not math.isfinite(value):
                raise DomainError(
                    f"residual coefficient {name} overflows (wave speed {wave_speed:g} "
                    f"m/s, density {fluid.density:g} kg/m^3, diameter "
                    f"{pipe.diameter:g} m, gravity {g:g} m/s^2)")
        return coeffs


@dataclass
class CollocationSet:
    """Point families for the loss terms.

    Collocation points are interior (no observations); boundary samples
    carry observed pressure/velocity at x in {0, L}; initial samples carry
    the t=0 state at the interior columns.
    """

    x_f: np.ndarray
    t_f: np.ndarray
    x_bc: np.ndarray
    t_bc: np.ndarray
    P_bc: np.ndarray
    v_bc: np.ndarray
    x_ic: np.ndarray
    t_ic: np.ndarray
    P_ic: np.ndarray
    v_ic: np.ndarray

    def __post_init__(self):
        for family, names in (("collocation", ("x_f", "t_f")),
                              ("boundary", ("x_bc", "t_bc", "P_bc", "v_bc")),
                              ("initial", ("x_ic", "t_ic", "P_ic", "v_ic"))):
            sizes = [np.size(getattr(self, name)) for name in names]
            if sizes[0] < 1:
                raise DomainError(f"the {family} family has no points")
            if len(set(sizes)) > 1:
                raise DomainError(f"the {family} family's arrays differ in length: "
                                  + ", ".join(f"{k} {n}" for k, n in zip(names, sizes)))
        if not np.all(self.t_ic == self.t_ic[0]):
            raise DomainError("initial samples must share a single time")

    @property
    def n_f(self) -> int:
        return self.x_f.size

    @property
    def n_bc(self) -> int:
        return self.x_bc.size

    @property
    def n_ic(self) -> int:
        return self.x_ic.size


def collocation_from_field(field: FieldGrid, length: float,
                           offtake_x: float | None = None) -> CollocationSet:
    """Boundary/initial/collocation families from a dataset grid.

    Interior columns (everything except the two boundary columns and the
    offtake column, when present) provide the collocation coordinates at
    every time step and the initial samples at t=0; the first and last
    columns provide boundary samples at every time step.
    """
    interior = interior_column_indices(field.xs, length, offtake_x)
    if interior.size == 0:
        raise DomainError("dataset grid has no interior columns")
    b_idx = [0, field.xs.size - 1]

    xs_f, ts_f = np.meshgrid(field.xs[interior], field.ts)
    x_bc = np.concatenate([np.full(field.ts.size, field.xs[i]) for i in b_idx])
    t_bc = np.concatenate([field.ts, field.ts])
    P_bc = np.concatenate([field.P[:, i] for i in b_idx])
    v_bc = np.concatenate([field.v[:, i] for i in b_idx])

    return CollocationSet(
        x_f=xs_f.ravel(),
        t_f=ts_f.ravel(),
        x_bc=x_bc,
        t_bc=t_bc,
        P_bc=P_bc,
        v_bc=v_bc,
        x_ic=field.xs[interior].copy(),
        t_ic=np.full(interior.size, field.ts[0]),
        P_ic=field.P[0, interior].copy(),
        v_ic=field.v[0, interior].copy(),
    )


# --- residual cores (operands: numpy arrays or tape Vars) -------------------

def momentum_residual_pv(P_x, v, v_x, v_t, c: PhysicsCoefficients):
    return (c.rho_g_over_1e6 * v_t + c.rho_g_over_1e6 * (v * v_x)
            + c.gravity * P_x + c.friction_pv * (v * abs(v)))


def continuity_residual_pv(P_t, P_x, v, v_x, c: PhysicsCoefficients):
    return P_t + v * P_x + c.rho_a2_over_1e6 * v_x


def momentum_residual_hv(h_x, v, v_x, v_t, c: PhysicsCoefficients):
    return v_t + v * v_x + c.gravity * h_x + c.friction_hv * (v * abs(v))


def continuity_residual_hv(h_t, h_x, v, v_x, c: PhysicsCoefficients):
    return h_t + v * h_x + c.a2_over_g * v_x


def _mean_sq(r):
    r2 = r * r
    if isinstance(r2, Var):
        return r2.mean()
    # np.mean's own reduction and division, without its Python wrapper
    return float(np.add.reduce(r2, axis=None) / r2.size)


def data_misfit(P_pred, v_pred, P_obs, v_obs, form: str):
    """Eq-style data loss: averaged-residual ('paper') or per-variable sum ('split')."""
    if form not in BC_LOSS_FORMS:
        raise ConfigError(f"unknown data-loss form {form!r}; expected one of {BC_LOSS_FORMS}")
    e1 = P_pred - P_obs
    e2 = v_pred - v_obs
    if form == "paper":
        r = (e1 + e2) * 0.5
        return _mean_sq(r)
    return _mean_sq(e1) + _mean_sq(e2)


def data_misfit_terms(P_pred, v_pred, P_obs, v_obs):
    """Per-variable mean squared errors (diagnostics and the split form)."""
    return _mean_sq(P_pred - P_obs), _mean_sq(v_pred - v_obs)


def _observed_first_channel(P_obs, spec: NetSpec, coeffs: PhysicsCoefficients):
    """Targets for the first output channel (pressure or head)."""
    if spec.output_mode == "head-velocity":
        return P_obs * coeffs.head_per_mpa
    return P_obs


def _residual_pair(spec: NetSpec, coeffs: PhysicsCoefficients, forward):
    """(G_mo, G_con) from a forward's outputs and input derivatives, per the
    net's output mode."""
    _, v, y1x, y1t, vx, vt = forward
    if spec.output_mode == "pressure-velocity":
        return (momentum_residual_pv(y1x, v, vx, vt, coeffs),
                continuity_residual_pv(y1t, y1x, v, vx, coeffs))
    return (momentum_residual_hv(y1x, v, vx, vt, coeffs),
            continuity_residual_hv(y1t, y1x, v, vx, coeffs))


def residuals(spec: NetSpec, params, coeffs: PhysicsCoefficients, x, t,
              cache: ForwardCache | None = None):
    """(G_mo, G_con) arrays at the given points (tape-free); `cache` is
    handed to `forward_with_input_tangents`."""
    return _residual_pair(spec, coeffs,
                          forward_with_input_tangents(spec, params, x, t, cache=cache))


# --- taped API (for training) -------------------------------------------------

TAPED_FAMILIES = ("bc", "ic", "f")  # row order of the node; 'f' carries tangents


def taped_outputs(spec: NetSpec, theta_var, points: dict) -> dict:
    """{family: output Vars} of one taped network node over every family in
    `points`, a {family: (x, t)} of 'bc', 'ic' and the collocation family
    'f'. The node stacks the families in `TAPED_FAMILIES` order, 'f' last
    with its input tangents: a bc or ic family gets (y1, v), 'f' (y1, v,
    y1_x, y1_t, v_x, v_t)."""
    families = [f for f in TAPED_FAMILIES if f in points]
    x, t = (np.concatenate([points[f][i] for f in families]) for i in (0, 1))
    outputs = taped_forward(spec, theta_var, x, t, with_tangents="f" in points,
                            sizes=[np.size(points[f][0]) for f in families])
    return dict(zip(families, outputs))


def taped_data_loss(spec: NetSpec, outputs, P_obs, v_obs,
                    coeffs: PhysicsCoefficients, form: str):
    """Data loss Var of a family's (y1, v) output Vars, plus per-variable
    diagnostic values."""
    y1, v = outputs
    obs = _observed_first_channel(P_obs, spec, coeffs)
    loss = data_misfit(y1, v, obs, v_obs, form)
    m1, m2 = data_misfit_terms(y1.value, v.value, obs, v_obs)
    return loss, (m1, m2)


def taped_physics_losses(spec: NetSpec, outputs, coeffs: PhysicsCoefficients):
    """(L_con, L_mo) Vars of the collocation family's output Vars, input
    derivatives included."""
    g_mo, g_con = _residual_pair(spec, coeffs, outputs)
    return _mean_sq(g_con), _mean_sq(g_mo)
