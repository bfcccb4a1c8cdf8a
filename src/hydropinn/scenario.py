"""Transient scenario definition: boundary signals plus an optional offtake.

A scenario is the full description of one simulated operation: pipe and
fluid constants, run duration, inlet-pressure and outlet-flowrate signals,
and optionally an intermediate offtake (delivery) node. Scenario files are
JSON; see docs/config_reference.md for the exact keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import list_of, nested, number, optional, read_object
from .errors import ConfigError
from .hydraulics import FluidSpec, PipelineSpec

OFFTAKE_START_TOL = 1e-12  # m^3/s; offtake must be shut at t=0


@dataclass(frozen=True)
class PiecewiseSignal:
    """Piecewise-linear time series; values held constant outside the breakpoints."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size == 0:
            raise ConfigError("signal needs matching 1-d time/value breakpoint arrays")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ConfigError("signal breakpoint times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ConfigError("signal breakpoints must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __call__(self, t):
        return np.interp(t, self.times, self.values)

    @classmethod
    def constant(cls, value: float) -> "PiecewiseSignal":
        return cls(np.array([0.0]), np.array([float(value)]))

    @classmethod
    def from_breakpoints(cls, pairs) -> "PiecewiseSignal":
        pairs = list(pairs)
        if not pairs or any(len(p) != 2 for p in pairs):
            raise ConfigError("breakpoints must be a non-empty list of [t, value] pairs")
        ts, vs = zip(*pairs)
        return cls(np.array(ts, dtype=float), np.array(vs, dtype=float))

    def breakpoints(self) -> list[list[float]]:
        return [[float(t), float(v)] for t, v in zip(self.times, self.values)]


@dataclass(frozen=True)
class Offtake:
    """Intermediate delivery node: withdraws `flowrate` [m^3/s] at `position` [m]."""

    position: float
    flowrate: PiecewiseSignal


@dataclass(frozen=True)
class Scenario:
    pipe: PipelineSpec
    fluid: FluidSpec
    duration: float  # s
    inlet_pressure: PiecewiseSignal  # MPa
    outlet_flowrate: PiecewiseSignal  # m^3/s
    offtake: Offtake | None = None

    def __post_init__(self):
        if self.duration < 0:
            raise ConfigError("scenario duration must be non-negative")
        if self.offtake is not None:
            if not 0 < self.offtake.position < self.pipe.length:
                raise ConfigError("offtake position must be strictly inside the pipe")
            # The initial condition is a single uniform steady profile, which
            # requires the offtake to be shut at t=0.
            if abs(float(self.offtake.flowrate(0.0))) > OFFTAKE_START_TOL:
                raise ConfigError("offtake flowrate must be zero at t=0")


FLUID_KEYS = {"density_kgpm3": "density",
              "kinematic_viscosity_m2ps": "kinematic_viscosity",
              "bulk_modulus_pa": "bulk_modulus"}
PIPE_KEYS = {"length_m": "length", "diameter_m": "diameter",
             "wall_thickness_m": "wall_thickness",
             "pipe_elasticity_pa": "pipe_elasticity",
             "constraint_coeff": "constraint_coeff",
             "friction_factor": "friction_factor", "gravity_mps2": "gravity"}


def fluid_from_dict(d, path: str = "fluid") -> FluidSpec:
    values = read_object(d, path, dict.fromkeys(FLUID_KEYS, number), FLUID_KEYS)
    return FluidSpec(**{FLUID_KEYS[k]: v for k, v in values.items()})


def fluid_to_dict(fluid: FluidSpec) -> dict:
    return {k: getattr(fluid, name) for k, name in FLUID_KEYS.items()}


def pipe_from_dict(d, path: str = "pipe") -> PipelineSpec:
    readers = {**dict.fromkeys(PIPE_KEYS, number), "friction_factor": optional(number)}
    values = read_object(d, path, readers, ("length_m", "diameter_m"))
    return PipelineSpec(**{PIPE_KEYS[k]: v for k, v in values.items()})


def pipe_to_dict(pipe: PipelineSpec) -> dict:
    return {k: getattr(pipe, name) for k, name in PIPE_KEYS.items()}


def _signal(value, key) -> PiecewiseSignal:
    pairs = list_of(list_of(number))(value, key)
    try:
        return PiecewiseSignal.from_breakpoints(pairs)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def scenario_from_dict(d) -> Scenario:
    offtake = nested({"position_m": number, "flowrate_m3ps": _signal},
                     ("position_m", "flowrate_m3ps"))
    v = read_object(d, "", {
        "pipe": pipe_from_dict, "fluid": fluid_from_dict, "duration_s": number,
        "inlet_pressure_mpa": _signal, "outlet_flowrate_m3ps": _signal,
        "offtake": optional(offtake),
    }, ("pipe", "fluid", "duration_s", "inlet_pressure_mpa", "outlet_flowrate_m3ps"))
    off = v.get("offtake")
    return Scenario(
        pipe=v["pipe"], fluid=v["fluid"], duration=v["duration_s"],
        inlet_pressure=v["inlet_pressure_mpa"], outlet_flowrate=v["outlet_flowrate_m3ps"],
        offtake=None if off is None else Offtake(off["position_m"], off["flowrate_m3ps"]),
    )


def scenario_to_dict(sc: Scenario) -> dict:
    d = {
        "pipe": pipe_to_dict(sc.pipe),
        "fluid": fluid_to_dict(sc.fluid),
        "duration_s": sc.duration,
        "inlet_pressure_mpa": sc.inlet_pressure.breakpoints(),
        "outlet_flowrate_m3ps": sc.outlet_flowrate.breakpoints(),
        "offtake": None,
    }
    if sc.offtake is not None:
        d["offtake"] = {
            "position_m": sc.offtake.position,
            "flowrate_m3ps": sc.offtake.flowrate.breakpoints(),
        }
    return d


def load_scenario(path) -> Scenario:
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise ConfigError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def save_scenario(sc: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(sc), indent=2) + "\n")
