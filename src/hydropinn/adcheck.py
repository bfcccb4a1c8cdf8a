"""Gradient verification harness behind the `adcheck` CLI command.

Builds a synthetic problem (random sample points, random but plausible
targets) for a baseline's last-stage objective (the coupled loss for kih
and pinn, the split-form data loss for dnn), computes the parameter
gradient with the reverse tape, and checks it against central finite
differences of a tape-free evaluation of the same loss. The two sides go
through independent code paths: the probe re-evaluates the loss with the
tape-free forward kernel (`net_forward`, and `forward_with_input_tangents`
through `residuals`) while the gradient comes from the one-node taped forward
and its hand-derived reverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff.fdcheck import FdReport, fd_check
from .autodiff.tape import Tape
from .hydraulics import FluidSpec, PipelineSpec, flowrate_to_velocity, friction_factor, wave_speed
from .losses import (
    CollocationSet,
    LossWeights,
    PhysicsCoefficients,
    coupled_loss,
    taped_data_loss,
    taped_physics_losses,
)
from .network import InputScaler, NetSpec, init_params, params_to_vars

DEFAULT_FLUID = FluidSpec(density=850.0, kinematic_viscosity=5.2e-6,
                          bulk_modulus=1.5e9)
DEFAULT_PIPE = PipelineSpec(length=50_000.0, diameter=0.25)
DEFAULT_FLOWRATE = 154.0 / 3600.0  # m^3/s
DEFAULT_DURATION = 600.0  # s


def default_coefficients() -> PhysicsCoefficients:
    v = float(flowrate_to_velocity(DEFAULT_FLOWRATE, DEFAULT_PIPE.diameter))
    pipe = DEFAULT_PIPE.with_friction(friction_factor(DEFAULT_FLUID, v,
                                                      DEFAULT_PIPE.diameter))
    return PhysicsCoefficients.from_specs(DEFAULT_FLUID, pipe,
                                          wave_speed(DEFAULT_FLUID, pipe))


@dataclass
class AdCheckProblem:
    spec: NetSpec
    params: list
    colloc: CollocationSet
    coeffs: PhysicsCoefficients
    weights: LossWeights
    form: str


def build_problem(spec: NetSpec, coeffs: PhysicsCoefficients,
                  weights: LossWeights, form: str, n_points: int,
                  seed: int) -> AdCheckProblem:
    """Random sample points and targets spanning the scaler's domain."""
    rng = np.random.default_rng(seed)
    sc = spec.scaler
    x_f = rng.uniform(sc.x_min, sc.x_max, n_points)
    t_f = rng.uniform(sc.t_min, sc.t_max, n_points)
    t_bc = rng.uniform(sc.t_min, sc.t_max, n_points)
    x_bc = np.where(rng.integers(0, 2, n_points) == 0, sc.x_min, sc.x_max)
    x_ic = rng.uniform(sc.x_min, sc.x_max, n_points)
    colloc = CollocationSet(
        x_f=x_f, t_f=t_f,
        x_bc=x_bc, t_bc=t_bc,
        P_bc=rng.uniform(0.1, 1.5, n_points),
        v_bc=rng.uniform(0.5, 1.0, n_points),
        x_ic=x_ic, t_ic=np.full(n_points, sc.t_min),
        P_ic=rng.uniform(0.1, 1.5, n_points),
        v_ic=rng.uniform(0.5, 1.0, n_points),
    )
    params = init_params(spec, rng)
    return AdCheckProblem(spec=spec, params=params, colloc=colloc,
                          coeffs=coeffs, weights=weights, form=form)


def taped_coupled_gradient(problem: AdCheckProblem):
    """Coupled-loss gradient of the problem's parameters via the tape; the
    physics terms are left out when both their weights are zero."""
    p, c, w = problem, problem.colloc, problem.weights
    tape = Tape()
    pvars = params_to_vars(tape, p.params)
    bc_var, _ = taped_data_loss(p.spec, pvars, c.x_bc, c.t_bc, c.P_bc, c.v_bc,
                                p.coeffs, p.form)
    ic_var, _ = taped_data_loss(p.spec, pvars, c.x_ic, c.t_ic, c.P_ic, c.v_ic,
                                p.coeffs, p.form)
    total = w.bc * bc_var + w.ic * ic_var
    if w.con or w.mo:
        con_var, mo_var = taped_physics_losses(p.spec, pvars, c.x_f, c.t_f, p.coeffs)
        total = total + w.con * con_var + w.mo * mo_var
    flat = [v for pair in pvars for v in pair]
    grads = tape.gradients(total, flat)
    return [(grads[2 * i], grads[2 * i + 1]) for i in range(len(pvars))]


def fast_coupled_loss(problem: AdCheckProblem) -> float:
    """Equal in value to `coupled_loss`, with the two data-family forward
    passes fused into one call (the fd probe runs this tens of thousands of
    times)."""
    from .losses import _mean_sq, _observed_first_channel, data_misfit, residuals
    from .network import net_forward

    p, c, w = problem, problem.colloc, problem.weights
    x_data = np.concatenate([c.x_bc, c.x_ic])
    t_data = np.concatenate([c.t_bc, c.t_ic])
    y1, v = net_forward(p.spec, p.params, x_data, t_data)
    nb = c.n_bc
    bc = data_misfit(y1[:nb], v[:nb],
                     _observed_first_channel(c.P_bc, p.spec, p.coeffs),
                     c.v_bc, p.form)
    ic = data_misfit(y1[nb:], v[nb:],
                     _observed_first_channel(c.P_ic, p.spec, p.coeffs),
                     c.v_ic, p.form)
    total = w.bc * bc + w.ic * ic
    if w.con or w.mo:
        g_mo, g_con = residuals(p.spec, p.params, p.coeffs, c.x_f, c.t_f)
        total = total + w.con * _mean_sq(g_con) + w.mo * _mean_sq(g_mo)
    return total


def run_adcheck(problem: AdCheckProblem, h: float = 1e-4,
                tolerance: float = 1e-5, order: int = 2,
                max_coordinates: int | None = None,
                coord_seed: int = 0) -> FdReport:
    p = problem

    def loss_fn() -> float:
        return fast_coupled_loss(p)

    grad = taped_coupled_gradient(p)
    return fd_check(
        loss_fn, grad, p.params, h=h, tolerance=tolerance, order=order,
        max_coordinates=max_coordinates,
        rng=np.random.default_rng(coord_seed),
    )


def adcheck_from_config(cfg, n_points: int = 32, seed: int | None = None,
                        **fd_kwargs) -> FdReport:
    """Build the default-domain problem for a train config's last-stage
    objective and check it."""
    from .training import LOSS_TERMS, _objective, _schedule, output_mode_for

    _, kind, _, form = _schedule(cfg)[-1]
    objective = _objective(kind, cfg.weights)
    weights = LossWeights(**{term: objective.get(term, 0.0) for term in LOSS_TERMS})

    spec = NetSpec(
        hidden_layers=cfg.hidden_layers,
        width=cfg.width,
        activation=cfg.activation,
        scaler=InputScaler(0.0, DEFAULT_PIPE.length, 0.0, DEFAULT_DURATION),
        output_mode=output_mode_for(cfg.baseline),
    )
    problem = build_problem(spec, default_coefficients(), weights, form, n_points,
                            cfg.seed if seed is None else seed)
    return run_adcheck(problem, **fd_kwargs)
