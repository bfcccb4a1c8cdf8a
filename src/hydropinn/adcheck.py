"""Gradient verification harness behind the `adcheck` CLI command.

Builds a synthetic problem (random sample points, random but plausible
targets) for a baseline's last-stage objective (the coupled loss for kih
and pinn, the split-form data loss for dnn), computes the parameter
gradient with the reverse tape, and checks it against central finite
differences of a tape-free evaluation of the same loss.

The gradient is the stage loop's own: `training._batch_terms` over all the
problem's points, summed by `training._weighted_sum` with the stage's
`training._objective`. The probe evaluates each term independently, with
the tape-free forward kernel (`net_forward`, and `forward_with_input_tangents`
through `residuals`); only the final weighted sum is shared.

A probe changes one parameter, so the layers before it give the same rows
on every probe. The problem therefore builds, under its unperturbed
parameters, everything a probe reads: a `ForwardCache` of the data points
(bc then ic), those points' targets joined in the same order and converted
once, and, when the objective has physics terms, a `ForwardCache` of the
collocation points. Each probe's forwards resume from the caches at the
perturbed layer, with the same arithmetic as a full forward. The probe
passes each cache its own points, which the cache accepts without
comparing values, and reads the data points' rows of the targets. The
caches own the block buffers each resumed forward reuses, so a probe
allocates only its outputs. A problem's caches are its own and serve its
probes one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff.fdcheck import FdReport, fd_check
from .autodiff.tape import Tape
from .errors import ConfigError
from .hydraulics import FluidSpec, PipelineSpec, flowrate_to_velocity, friction_factor, wave_speed
from .losses import (CollocationSet, PhysicsCoefficients, _mean_sq,
                     _observed_first_channel, data_misfit)
from .network import (ForwardCache, InputScaler, NetSpec, forward_cache, init_params,
                      params_flatten, params_views)
from .training import (TERM_FAMILY, _batch_terms, _make_spec, _objective, _schedule,
                       _weighted_sum)

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
    objective: dict  # {term: weight}, as `training._objective` builds it
    form: str
    # what a probe reads, built under the params the problem is made with
    data_cache: ForwardCache = field(init=False)  # the bc then ic points
    targets: tuple = field(init=False)  # (first channel, velocity) of those points
    colloc_cache: ForwardCache | None = field(init=False)  # None without con or mo

    def __post_init__(self):
        c = self.colloc
        self.data_cache = forward_cache(self.spec, self.params,
                                        np.concatenate([c.x_bc, c.x_ic]),
                                        np.concatenate([c.t_bc, c.t_ic]), tangents=False)
        self.targets = (_observed_first_channel(np.concatenate([c.P_bc, c.P_ic]),
                                                self.spec, self.coeffs),
                        np.concatenate([c.v_bc, c.v_ic]))
        self.colloc_cache = (forward_cache(self.spec, self.params, c.x_f, c.t_f, tangents=True)
                             if "con" in self.objective or "mo" in self.objective else None)


def build_problem(spec: NetSpec, coeffs: PhysicsCoefficients,
                  objective: dict, form: str, n_points: int,
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
                          coeffs=coeffs, objective=objective, form=form)


def taped_coupled_gradient(problem: AdCheckProblem):
    """Gradient of the problem's objective via the tape, built as the stage
    loop builds it, over all the problem's points; per-layer (gW, gb)
    views into one flat gradient."""
    p = problem
    theta_var = Tape().leaf(params_flatten(p.params))
    rows = dict.fromkeys({TERM_FAMILY[name] for name in p.objective}, slice(None))
    terms, _ = _batch_terms(p.spec, theta_var, p.colloc, p.coeffs, rows, p.form)
    (grad,) = theta_var.tape.gradients(_weighted_sum(p.objective, terms), [theta_var])
    return params_views(p.spec, grad)


def fast_coupled_loss(problem: AdCheckProblem) -> float:
    """The problem's objective evaluated tape-free, with the two data-family
    forward passes fused into one call (the fd probe runs this tens of
    thousands of times), each forward resuming from the problem's caches."""
    # imported per call, so a wrapper on the defining module sees these calls
    from .losses import residuals
    from .network import net_forward

    p, cache, f_cache = problem, problem.data_cache, problem.colloc_cache
    y1, v = net_forward(p.spec, p.params, cache.x, cache.t, cache=cache)
    obs, v_obs = p.targets
    nb = p.colloc.n_bc
    terms = {family: data_misfit(y1[rows], v[rows], obs[rows], v_obs[rows], p.form)
             for family, rows in (("bc", slice(None, nb)), ("ic", slice(nb, None)))}
    if f_cache is not None:
        g_mo, g_con = residuals(p.spec, p.params, p.coeffs, f_cache.x, f_cache.t,
                                cache=f_cache)
        terms["con"], terms["mo"] = _mean_sq(g_con), _mean_sq(g_mo)
    return _weighted_sum(p.objective, terms)


def run_adcheck(problem: AdCheckProblem, coord_seed: int = 0,
                **fd_kwargs) -> FdReport:
    """fd_check of the taped gradient against the probe; `fd_kwargs` (h,
    tolerance, order, max_coordinates) go to `fd_check`, which owns their
    defaults."""
    grad = taped_coupled_gradient(problem)
    return fd_check(lambda: fast_coupled_loss(problem), grad, problem.params,
                    rng=np.random.default_rng(coord_seed), **fd_kwargs)


def _check_arguments(n_points, h=None, tolerance=None, max_coordinates=None, **_):
    """ConfigError naming the first out-of-range argument (None keeps the default)."""
    for flag, n in (("--points", n_points), ("--max-coords", max_coordinates)):
        if n is not None and n < 1:
            raise ConfigError(f"adcheck {flag} must be at least 1, got {n!r}")
    for flag, v in (("--fd-step", h), ("--tolerance", tolerance)):
        if v is not None and not (math.isfinite(v) and v > 0):
            raise ConfigError(f"adcheck {flag} must be positive and finite, got {v!r}")


def adcheck_from_config(cfg, n_points: int = 32, seed: int | None = None,
                        **fd_kwargs) -> FdReport:
    """Build the default-domain problem for a train config's last-stage
    objective and check it."""
    _check_arguments(n_points, **fd_kwargs)
    _, kind, _, form = _schedule(cfg)[-1]
    spec = _make_spec(cfg, InputScaler(0.0, DEFAULT_PIPE.length, 0.0, DEFAULT_DURATION))
    problem = build_problem(spec, default_coefficients(), _objective(kind, cfg.weights),
                            form, n_points, cfg.seed if seed is None else seed)
    return run_adcheck(problem, **fd_kwargs)
