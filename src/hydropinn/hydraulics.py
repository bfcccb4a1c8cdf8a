"""Fluid/pipe property containers, unit conversions, and the Darcy steady state.

Everything here is pure arithmetic on SI-based units (pressure in MPa,
flowrate in m^3/s internally; m^3/h only at reporting boundaries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, InfeasibleSteadyStateError

GRAVITY = 9.81  # m/s^2

LAMINAR_RE_LIMIT = 2300.0


@dataclass(frozen=True)
class FluidSpec:
    """Transported product properties.

    density            rho, kg/m^3
    kinematic_viscosity nu, m^2/s
    bulk_modulus       K, Pa
    """

    density: float
    kinematic_viscosity: float
    bulk_modulus: float

    def __post_init__(self):
        for name in ("density", "kinematic_viscosity", "bulk_modulus"):
            if not getattr(self, name) > 0:
                raise DomainError(f"FluidSpec.{name} must be strictly positive")


@dataclass(frozen=True)
class PipelineSpec:
    """Pipeline geometry and material constants.

    length          L, m
    diameter        D, m (internal)
    wall_thickness  delta, m
    pipe_elasticity E, Pa (Young's modulus of the wall)
    constraint_coeff C1, dimensionless restraint coefficient in (0, 2]
    friction_factor f, Darcy-Weisbach, frozen per run (None = compute later)
    gravity         g, m/s^2

    The pipeline is treated as horizontal; an elevation profile is an
    unimplemented extension point.
    """

    length: float
    diameter: float
    wall_thickness: float = 0.007
    pipe_elasticity: float = 2.07e11
    constraint_coeff: float = 1.0
    friction_factor: float | None = None
    gravity: float = GRAVITY

    def __post_init__(self):
        for name in ("length", "diameter", "wall_thickness", "pipe_elasticity"):
            if not getattr(self, name) > 0:
                raise DomainError(f"PipelineSpec.{name} must be strictly positive")
        if not 0 < self.constraint_coeff <= 2:
            raise DomainError("PipelineSpec.constraint_coeff must lie in (0, 2]")
        if self.friction_factor is not None and not 0 < self.friction_factor < 0.1:
            raise DomainError("PipelineSpec.friction_factor must lie in (0, 0.1)")
        if not self.gravity > 0:
            raise DomainError("PipelineSpec.gravity must be strictly positive")
        flow_area(self.diameter)

    @property
    def area(self) -> float:
        """Cross-sectional flow area, m^2."""
        return flow_area(self.diameter)

    def with_friction(self, f: float) -> "PipelineSpec":
        return replace(self, friction_factor=f)


@dataclass(frozen=True)
class SteadyProfile:
    """Pre-transient steady state: linear pressure profile, uniform velocity."""

    positions: np.ndarray  # m, increasing
    pressure: np.ndarray  # MPa, one per position
    velocity: float  # m/s, uniform along the pipe


def wave_speed(fluid: FluidSpec, pipe: PipelineSpec) -> float:
    """Pressure-wave propagation speed in the fluid-pipe system, m/s.

    a = sqrt( (K/rho) / (1 + (K/E)(D/delta) C1) ); the denominator softens
    the rigid-pipe value sqrt(K/rho) by wall elasticity.
    """
    elastic = (
        (fluid.bulk_modulus / pipe.pipe_elasticity)
        * (pipe.diameter / pipe.wall_thickness)
        * pipe.constraint_coeff
    )
    a = math.sqrt((fluid.bulk_modulus / fluid.density) / (1.0 + elastic))
    if not math.isfinite(a) or a <= 0:
        raise DomainError("wave speed is not finite and positive")
    return a


def head_to_pressure(head, density: float, gravity: float = GRAVITY):
    """Head [m] -> pressure [MPa]: P = rho*g*h / 1e6. Negative head allowed."""
    return np.multiply(head, density * gravity / 1e6)


def pressure_to_head(pressure, density: float, gravity: float = GRAVITY):
    """Pressure [MPa] -> head [m]: h = 1e6*P / (rho*g)."""
    return np.multiply(pressure, 1e6 / (density * gravity))


def flow_area(diameter: float) -> float:
    """Area pi*D^2/4 [m^2] of a circular pipe; a diameter that is not
    positive, or whose area overflows or underflows to 0, is a domain error."""
    if diameter <= 0:
        raise DomainError("diameter must be strictly positive")
    try:
        area = math.pi * diameter**2 / 4.0
    except OverflowError:
        area = math.inf
    if not math.isfinite(area):
        raise DomainError(f"the flow area of diameter {diameter:g} m overflows")
    if not area > 0:
        raise DomainError(f"the flow area of diameter {diameter:g} m underflows to 0")
    return area


def velocity_to_flowrate(velocity, diameter: float):
    """Velocity [m/s] -> volumetric flowrate [m^3/s] through a circular pipe."""
    return np.multiply(velocity, flow_area(diameter))


def flowrate_to_velocity(flowrate, diameter: float):
    """Flowrate [m^3/s] -> mean velocity [m/s]."""
    return np.divide(flowrate, flow_area(diameter))


def friction_factor(fluid: FluidSpec, velocity: float, diameter: float) -> float:
    """Darcy-Weisbach friction factor from the flow Reynolds number.

    Laminar 64/Re below Re=2300 (ties included), Blasius 0.3164*Re^-0.25
    above. v = 0 falls back to the laminar value at Re = 2300, so a
    quiescent line still gets a finite, conservative factor. The realistic
    band f in (0, 0.1) is enforced when the value is frozen onto a
    PipelineSpec, not here, so the raw laminar formula stays usable at
    very low Reynolds numbers.
    """
    if diameter <= 0:
        raise DomainError("diameter must be strictly positive")
    re = abs(velocity) * diameter / fluid.kinematic_viscosity
    if re == 0.0:
        re = LAMINAR_RE_LIMIT
    if re <= LAMINAR_RE_LIMIT:
        return 64.0 / re
    return 0.3164 * re**-0.25


def steady_profile(
    pipe: PipelineSpec,
    fluid: FluidSpec,
    inlet_pressure: float,
    outlet_flowrate: float,
    positions: np.ndarray | None = None,
) -> SteadyProfile:
    """Darcy steady state: uniform velocity, linear pressure drop.

    P(x) = P_in - f*rho*v|v| / (2*D*1e6) * x on a horizontal pipe. Raises
    InfeasibleSteadyStateError if the drop would push P(L) below zero.
    """
    if positions is None:
        positions = np.linspace(0.0, pipe.length, 51)
    positions = np.asarray(positions, dtype=float)
    v = float(flowrate_to_velocity(outlet_flowrate, pipe.diameter))
    f = pipe.friction_factor
    if f is None:
        f = friction_factor(fluid, v, pipe.diameter)
    grad = f * fluid.density * v * abs(v) / (2.0 * pipe.diameter * 1e6)  # MPa/m
    pressure = inlet_pressure - grad * positions
    if pressure[-1] < 0.0:
        raise InfeasibleSteadyStateError(
            f"steady pressure reaches {pressure[-1]:.4g} MPa at x={positions[-1]:.0f} m; "
            "inlet pressure cannot sustain the requested flowrate"
        )
    return SteadyProfile(positions=positions, pressure=pressure, velocity=v)
