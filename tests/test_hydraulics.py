import math

import numpy as np
import pytest

from hydropinn.errors import DomainError, InfeasibleSteadyStateError
from hydropinn.hydraulics import (
    FluidSpec,
    PipelineSpec,
    flowrate_to_velocity,
    friction_factor,
    head_to_pressure,
    pressure_to_head,
    steady_profile,
    velocity_to_flowrate,
    wave_speed,
)


class TestWaveSpeed:
    def test_rigid_pipe_limit(self, fluid):
        # huge E makes the elastic term negligible: a -> sqrt(K/rho)
        pipe = PipelineSpec(length=50_000.0, diameter=0.25, pipe_elasticity=1e30)
        assert wave_speed(fluid, pipe) == pytest.approx(1328.4223, abs=1e-3)

    def test_steel_defaults(self, fluid, pipe):
        assert wave_speed(fluid, pipe) == pytest.approx(1184.017, abs=1e-2)

    def test_unit_identity(self):
        # K/rho = 1 and rigid wall give a = 1 exactly
        f = FluidSpec(density=2.0, kinematic_viscosity=1e-6, bulk_modulus=2.0)
        p = PipelineSpec(length=1000.0, diameter=0.25, pipe_elasticity=1e30)
        assert wave_speed(f, p) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_in_elastic_softening(self, fluid):
        # larger D/delta and larger K/E both soften the system
        base = PipelineSpec(length=1e4, diameter=0.25, wall_thickness=0.007)
        wider = PipelineSpec(length=1e4, diameter=0.5, wall_thickness=0.007)
        softer = PipelineSpec(length=1e4, diameter=0.25, wall_thickness=0.007,
                              pipe_elasticity=1e10)
        a0 = wave_speed(fluid, base)
        assert wave_speed(fluid, wider) < a0
        assert wave_speed(fluid, softer) < a0
        assert a0 > 0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(DomainError):
            FluidSpec(density=-1.0, kinematic_viscosity=1e-6, bulk_modulus=1e9)
        with pytest.raises(DomainError):
            PipelineSpec(length=1000.0, diameter=0.0)
        with pytest.raises(DomainError):
            PipelineSpec(length=1000.0, diameter=0.25, constraint_coeff=2.5)


class TestConversions:
    def test_head_to_pressure_zero(self):
        assert head_to_pressure(0.0, 850.0) == 0.0

    def test_head_to_pressure_value(self):
        # 850 * 9.81 * 100 / 1e6
        assert head_to_pressure(100.0, 850.0) == pytest.approx(0.83385, rel=1e-12)

    def test_round_trip_scalar(self):
        h = 177.3
        p = head_to_pressure(h, 850.0)
        assert pressure_to_head(p, 850.0) == pytest.approx(h, rel=1e-12)

    def test_velocity_flowrate_zero(self):
        assert velocity_to_flowrate(0.0, 0.25) == 0.0

    def test_flowrate_to_velocity_value(self):
        v = flowrate_to_velocity(154.0 / 3600.0, 0.25)
        assert v == pytest.approx(0.8714617, abs=2e-6)

    def test_round_trips_random(self, rng):
        # exact inverses over 1000 random samples
        heads = rng.uniform(-500, 500, 1000)
        ps = head_to_pressure(heads, 850.0)
        assert np.allclose(pressure_to_head(ps, 850.0), heads, rtol=1e-12, atol=0)

        vs = rng.uniform(-5, 5, 1000)
        qs = velocity_to_flowrate(vs, 0.25)
        assert np.allclose(flowrate_to_velocity(qs, 0.25), vs, rtol=1e-12, atol=0)

    def test_bad_diameter(self):
        with pytest.raises(DomainError):
            velocity_to_flowrate(1.0, 0.0)


class TestFrictionFactor:
    def test_blasius_value(self, fluid):
        # Re = 0.8714617*0.25/5.2e-6 ~ 41897 -> Blasius
        f = friction_factor(fluid, 0.8714617, 0.25)
        assert f == pytest.approx(0.0221152, abs=2e-6)

    def test_laminar_identity(self):
        # Re = 64 gives f = 1 by the 64/Re law
        f = FluidSpec(density=900.0, kinematic_viscosity=1e-4, bulk_modulus=1e9)
        assert friction_factor(f, 64.0 * 1e-4 / 0.1, 0.1) == pytest.approx(1.0, rel=1e-12)

    def test_band_enforced_when_frozen(self, pipe):
        # the realistic (0, 0.1) band applies where f lands on the pipe spec
        with pytest.raises(DomainError):
            pipe.with_friction(1.0)

    def test_boundary_re_takes_laminar_branch(self):
        f = FluidSpec(density=900.0, kinematic_viscosity=1e-5, bulk_modulus=1e9)
        d = 0.1
        v = 2300.0 * 1e-5 / d
        laminar = 64.0 / 2300.0
        turbulent = 0.3164 * 2300.0**-0.25
        got = friction_factor(f, v, d)
        assert got == pytest.approx(laminar, rel=1e-12)
        assert got != pytest.approx(turbulent, rel=1e-3)

    def test_zero_velocity_fallback(self, fluid):
        assert friction_factor(fluid, 0.0, 0.25) == pytest.approx(64.0 / 2300.0)


class TestSteadyProfile:
    def test_frictionless(self, fluid):
        p = PipelineSpec(length=1e4, diameter=0.25, friction_factor=1e-9)
        prof = steady_profile(p, fluid, 1.0, 0.04)
        assert np.allclose(prof.pressure, 1.0, atol=1e-6)

    def test_desk_case_drop(self, fluid, pipe):
        # oracle: drop/m = f*rho*v|v|/(2*D*1e6) with f = 0.0221152, v = 0.8714617
        prof = steady_profile(pipe, fluid, 1.48, 154.0 / 3600.0)
        assert prof.velocity == pytest.approx(0.8714617, abs=2e-6)
        assert prof.pressure[0] == 1.48
        assert prof.pressure[-1] == pytest.approx(0.0524024, abs=5e-6)

    def test_zero_flow_hydrostatic(self, fluid, pipe):
        prof = steady_profile(pipe, fluid, 1.0, 0.0)
        assert np.all(prof.pressure == 1.0)
        assert prof.velocity == 0.0

    def test_gradient_is_the_darcy_formula(self, fluid, pipe):
        q = 154.0 / 3600.0
        prof = steady_profile(pipe, fluid, 1.48, q, positions=np.linspace(0, 50_000, 201))
        v = prof.velocity
        f = friction_factor(fluid, v, pipe.diameter)
        expected = -f * fluid.density * v * abs(v) / (2 * pipe.diameter * 1e6)
        grads = np.diff(prof.pressure) / np.diff(prof.positions)
        assert np.allclose(grads, expected, rtol=1e-9)

    def test_monotone_decreasing(self, fluid, pipe):
        prof = steady_profile(pipe, fluid, 1.48, 154.0 / 3600.0)
        assert np.all(np.diff(prof.pressure) < 0)

    def test_infeasible_raises(self, fluid, pipe):
        with pytest.raises(InfeasibleSteadyStateError):
            steady_profile(pipe, fluid, 0.5, 154.0 / 3600.0)


def test_output_magnitudes_match_along_profile(fluid, pipe):
    """Mean |pressure| sits within one decade of |velocity|; mean |head| is
    about two decades above it (the rationale for converting the outputs)."""
    prof = steady_profile(pipe, fluid, 1.48, 154.0 / 3600.0)
    mean_p = float(np.mean(np.abs(prof.pressure)))
    mean_h = float(np.mean(np.abs(pressure_to_head(prof.pressure, fluid.density))))
    v = abs(prof.velocity)
    assert 0.1 <= mean_p / v <= 10.0
    assert mean_h / v >= 100.0
