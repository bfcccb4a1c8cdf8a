import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hydropinn.errors import DomainError, GridError
from hydropinn.hydraulics import (
    PipelineSpec,
    flowrate_to_velocity,
    friction_factor,
    head_to_pressure,
    pressure_to_head,
    steady_profile,
    wave_speed,
)
from hydropinn.moc import (
    FieldGrid,
    _axis_weights,
    build_grid,
    export_grid,
    interior_column_indices,
    moc_step,
    run,
    run_details,
    sample,
)
from hydropinn.scenario import Offtake, PiecewiseSignal, Scenario

from conftest import Q_START, Q_END, make_ramp_scenario


class TestBuildGrid:
    def test_desk_scale(self, fluid, pipe):
        grid = build_grid(pipe, fluid, 0.5)
        assert grid.node_count == 85
        assert grid.dx == pytest.approx(50_000 / 84)
        # wave speed rescaled by well under 1%
        assert grid.wave_speed == pytest.approx(wave_speed(fluid, pipe), rel=0.01)

    def test_exact_fit_no_adjustment(self, fluid):
        from hydropinn.hydraulics import PipelineSpec

        a = wave_speed(fluid, PipelineSpec(length=1000.0, diameter=0.25))
        dt = 1.0
        probe = PipelineSpec(length=a * dt * 10, diameter=0.25)
        grid = build_grid(probe, fluid, dt)
        assert grid.node_count == 11
        assert grid.wave_speed == pytest.approx(a, rel=1e-12)

    def test_too_coarse(self, fluid, pipe):
        with pytest.raises(GridError):
            build_grid(pipe, fluid, 30.0)  # a*dt > L/2


class TestMocStep:
    def _steady_state(self, fluid, pipe, dt):
        grid = build_grid(pipe, fluid, dt)
        q = Q_START
        v = float(flowrate_to_velocity(q, pipe.diameter))
        f = friction_factor(fluid, v, pipe.diameter)
        prof = steady_profile(pipe.with_friction(f), fluid, 1.48, q,
                              positions=grid.positions)
        H = np.asarray(pressure_to_head(prof.pressure, fluid.density))
        V = np.full(grid.node_count, v)
        B = grid.wave_speed / pipe.gravity
        R = f * dt / (2 * pipe.diameter)
        return H, V, B, R

    def test_steady_state_is_fixed_point(self, fluid, pipe):
        H, V, B, R = self._steady_state(fluid, pipe, 0.5)
        Hn, Vn = moc_step(H, V, H[0], V[-1], B, R)
        assert np.max(np.abs(Hn - H)) < 1e-9
        assert np.max(np.abs(Vn - V)) < 1e-9

    def test_joukowsky_first_step(self, fluid, pipe):
        # frictionless instant closure: first-step head rise a*v0/g at the outlet
        grid = build_grid(pipe, fluid, 0.5)
        v0 = 0.8714617
        H = np.full(grid.node_count, 100.0)
        V = np.full(grid.node_count, v0)
        B = grid.wave_speed / pipe.gravity
        Hn, Vn = moc_step(H, V, H[0], 0.0, B, 0.0)
        expected = grid.wave_speed * v0 / pipe.gravity
        assert Hn[-1] - H[-1] == pytest.approx(expected, rel=1e-12)
        # as a pressure: rho*a*dv, within 2% of the unadjusted-wave-speed value
        dp = fluid.density * pipe.gravity * (Hn[-1] - H[-1]) / 1e6
        assert dp == pytest.approx(
            fluid.density * wave_speed(fluid, pipe) * v0 / 1e6, rel=0.02)

    def test_sign_mirror(self, fluid, pipe, rng):
        # negating state and boundary values negates the solution exactly
        grid = build_grid(pipe, fluid, 0.5)
        n = grid.node_count
        H = 100.0 + rng.normal(0, 5.0, n)
        V = 0.9 + rng.normal(0, 0.1, n)
        B = grid.wave_speed / pipe.gravity
        R = 0.022 * 0.5 / (2 * pipe.diameter)
        H1, V1 = moc_step(H, V, 120.0, 0.8, B, R)
        H2, V2 = moc_step(-H, -V, -120.0, -0.8, B, R)
        assert np.allclose(H2, -H1, rtol=0, atol=1e-12)
        assert np.allclose(V2, -V1, rtol=0, atol=1e-12)


class TestRun:
    def test_zero_duration_returns_steady_slice(self, fluid, pipe):
        sc = Scenario(pipe=pipe, fluid=fluid, duration=0.0,
                      inlet_pressure=PiecewiseSignal.constant(1.48),
                      outlet_flowrate=PiecewiseSignal.constant(Q_START))
        field = run(sc, 0.5)
        assert field.ts.size == 1
        prof = steady_profile(pipe, fluid, 1.48, Q_START, positions=field.xs)
        assert np.allclose(field.P[0], prof.pressure, rtol=1e-12)

    def test_constant_boundaries_stay_steady(self, fluid, pipe):
        sc = Scenario(pipe=pipe, fluid=fluid, duration=600.0,
                      inlet_pressure=PiecewiseSignal.constant(1.48),
                      outlet_flowrate=PiecewiseSignal.constant(Q_START))
        field = run(sc, 0.5)  # 1200 steps
        prof = steady_profile(pipe, fluid, 1.48, Q_START, positions=field.xs)
        assert np.max(np.abs(field.P - prof.pressure[None, :])) <= 1e-6
        assert np.max(np.abs(field.v - prof.velocity)) <= 1e-8

    def test_ramp_response_arrives_after_transit_time(self, fluid, pipe):
        # outlet ramp at t=120 s cannot influence the inlet before one
        # wave transit L/a ~ 42 s later
        sc = make_ramp_scenario(pipe, fluid, with_offtake=False)
        field, grid, _ = run_details(sc, 0.5)
        transit = pipe.length / grid.wave_speed
        v_in = field.v[:, 0]
        quiet = field.ts < 120.0 + transit - 0.5
        assert np.max(np.abs(v_in[quiet] - v_in[0])) < 1e-9
        after = field.ts > 120.0 + transit + 1.0
        assert np.max(np.abs(v_in[after] - v_in[0])) > 1e-3

    def test_long_run_settles_to_new_darcy_profile(self, fluid, pipe):
        sc = make_ramp_scenario(pipe, fluid, with_offtake=False)
        field, grid, frozen = run_details(sc, 0.5)
        new_prof = steady_profile(frozen, fluid, 1.48, Q_END,
                                  positions=field.xs)
        head_drop = (new_prof.pressure[0] - new_prof.pressure[-1])
        dev = np.max(np.abs(field.P[-1] - new_prof.pressure))
        assert dev <= 1e-3 * head_drop

    def test_grid_refinement_changes_little(self, fluid, pipe):
        sc = make_ramp_scenario(pipe, fluid, with_offtake=False)
        xs, ts = export_grid(pipe.length, sc.duration, 1000.0, 0.5)
        coarse = sample(run(sc, 0.5), xs, ts)
        fine = sample(run(sc, 0.25), xs, ts)
        rms = np.sqrt(np.mean((coarse.P - fine.P) ** 2))
        scale = np.sqrt(np.mean(fine.P**2))
        assert rms / scale < 0.005

    def test_offtake_draw_splits_the_flow(self, fluid, pipe):
        # offtake ramping up: upstream flow increases above outlet flow
        sc = Scenario(
            pipe=pipe, fluid=fluid, duration=300.0,
            inlet_pressure=PiecewiseSignal.constant(2.0),
            outlet_flowrate=PiecewiseSignal.constant(Q_START),
            offtake=Offtake(position=25_000.0,
                            flowrate=PiecewiseSignal.from_breakpoints(
                                [[0.0, 0.0], [60.0, 0.01], [300.0, 0.01]])),
        )
        field = run(sc, 0.5)
        area = pipe.area
        # near the end, inflow carries outlet + offtake demand
        q_in = field.v[-1, 0] * area
        assert q_in == pytest.approx(Q_START + 0.01, rel=0.02)
        assert field.v[-1, -1] == pytest.approx(Q_START / area, rel=1e-6)

    def test_blowup_reports_step(self, fluid, pipe):
        from hydropinn.errors import NumericalBlowupError

        # unphysical flow demand (v ~ 200 m/s) makes the explicit friction
        # term diverge within a few steps
        sc = Scenario(pipe=pipe, fluid=fluid, duration=100.0,
                      inlet_pressure=PiecewiseSignal.constant(5.0),
                      outlet_flowrate=PiecewiseSignal.from_breakpoints(
                          [[0.0, Q_START], [1.0, 10.0]]))
        with pytest.raises(NumericalBlowupError) as exc_info:
            run(sc, 0.5)
        # the first step whose head or velocity is non-finite
        assert exc_info.value.step == 13
        assert "(step 13, t=6.500 s)" in str(exc_info.value)

    def test_nan_state_rejected_by_step(self, fluid, pipe):
        from hydropinn.errors import NumericalBlowupError

        grid = build_grid(pipe, fluid, 0.5)
        H = np.full(grid.node_count, np.nan)
        V = np.zeros(grid.node_count)
        with pytest.raises(NumericalBlowupError):
            moc_step(H, V, 100.0, 0.0, grid.wave_speed / pipe.gravity, 0.0)


def drawing_offtake_scenario(pipe, fluid):
    """The ramp scenario with its mid-line offtake drawing 0 -> 0.01 m^3/s
    over 100-160 s."""
    return replace(make_ramp_scenario(pipe, fluid, with_offtake=False),
                   offtake=Offtake(position=25_000.0,
                                   flowrate=PiecewiseSignal.from_breakpoints(
                                       [[0.0, 0.0], [100.0, 0.0], [160.0, 0.01]])))


class TestDrawingOfftake:
    def test_run_rows_equal_a_loop_of_moc_step(self, fluid, pipe):
        sc = drawing_offtake_scenario(pipe, fluid)
        field, grid, frozen = run_details(sc, 0.5)
        ts = field.ts
        B = grid.wave_speed / frozen.gravity
        R = frozen.friction_factor * 0.5 / (2.0 * frozen.diameter)
        k = int(round(25_000.0 / grid.dx))
        inlet = pressure_to_head(sc.inlet_pressure(ts), fluid.density, frozen.gravity)
        outlet = flowrate_to_velocity(sc.outlet_flowrate(ts), frozen.diameter)
        off = sc.offtake.flowrate(ts) / frozen.area
        assert off[-1] > 0.0
        H = pressure_to_head(field.P[0], fluid.density, frozen.gravity)
        V = field.v[0]
        for j in range(1, ts.size):
            H, V = moc_step(H, V, inlet[j], outlet[j], B, R, k, off[j])
            P = head_to_pressure(H, fluid.density, frozen.gravity)
            assert P.tobytes() == field.P[j].tobytes(), j
            assert V.tobytes() == field.v[j].tobytes(), j

    def test_mass_balance(self, fluid, pipe):
        """Line-pack change (gA/a^2) * integral of H dx equals the cumulative
        integral of (Q_in - Q_out - Q_off) dt, both by the trapezoid rule.

        The error is first order in dt: 4.1e-3 m^3 at dt 0.5 s and 8.3e-4 m^3
        at dt 0.1 s, against a line-pack change of 0.114 m^3. The bounds
        leave ~20% on those figures and ask the error to fall by at least 3x.
        """
        sc = drawing_offtake_scenario(pipe, fluid)
        errors = {}
        for dt in (0.5, 0.1):
            field, grid, frozen = run_details(sc, dt)
            area = frozen.area
            H = pressure_to_head(field.P, fluid.density, frozen.gravity)
            pack = (frozen.gravity * area / grid.wave_speed**2
                    * np.trapezoid(H, field.xs, axis=1))
            net = (field.v[:, 0] - field.v[:, -1]) * area - sc.offtake.flowrate(field.ts)
            inflow = np.concatenate([[0.0], np.cumsum(0.5 * (net[1:] + net[:-1]) * dt)])
            assert pack[-1] - pack[0] == pytest.approx(0.114, rel=0.05)
            errors[dt] = np.max(np.abs(pack - pack[0] - inflow))
        assert errors[0.5] < 5e-3
        assert errors[0.1] < 1e-3
        assert errors[0.5] > 3.0 * errors[0.1]


class TestClosedForm:
    """Instant valve closure at the outlet of the desk line with friction
    ~0, against water-hammer theory."""

    CLOSE_AT = 10.0  # s; the outlet flow reaches zero one step later
    DT = 0.5

    @pytest.fixture(scope="class")
    def closure(self, fluid):
        pipe = PipelineSpec(length=50_000.0, diameter=0.25, friction_factor=1e-12)
        sc = Scenario(pipe=pipe, fluid=fluid, duration=120.0,
                      inlet_pressure=PiecewiseSignal.constant(1.48),
                      outlet_flowrate=PiecewiseSignal.from_breakpoints(
                          [[0.0, Q_START], [self.CLOSE_AT, Q_START],
                           [self.CLOSE_AT + self.DT, 0.0]]))
        field, grid, _ = run_details(sc, self.DT)
        j = int(np.flatnonzero(field.ts == self.CLOSE_AT)[0])
        return field, grid, pipe, j

    def test_joukowsky_surge(self, fluid, closure):
        field, grid, pipe, j = closure
        v0 = float(flowrate_to_velocity(Q_START, pipe.diameter))
        surge = field.P[j + 1, -1] - field.P[j, -1]
        assert surge == pytest.approx(fluid.density * grid.wave_speed * v0 / 1e6,
                                      rel=1e-6)

    def test_first_pressure_reversal_after_two_transits(self, fluid, closure):
        # the surge reflects off the constant-head inlet and returns to the
        # valve as a pressure drop below the pre-closure value after 2L/a
        field, _, pipe, j = closure
        valve = field.P[:, -1]
        after = np.flatnonzero((np.arange(valve.size) > j) & (valve < valve[j]))
        reversal = field.ts[after[0]] - field.ts[j + 1]
        assert reversal == pytest.approx(2.0 * pipe.length / wave_speed(fluid, pipe),
                                         rel=0.01)

    @pytest.fixture(scope="class")
    def two_periods(self, fluid):
        """The same closure, run for two periods 4L/a past it."""
        pipe = PipelineSpec(length=50_000.0, diameter=0.25, friction_factor=1e-12)
        period = 4.0 * pipe.length / wave_speed(fluid, pipe)
        sc = Scenario(pipe=pipe, fluid=fluid,
                      duration=self.CLOSE_AT + 2.0 * period + 10.0,
                      inlet_pressure=PiecewiseSignal.constant(1.48),
                      outlet_flowrate=PiecewiseSignal.from_breakpoints(
                          [[0.0, Q_START], [self.CLOSE_AT, Q_START],
                           [self.CLOSE_AT + self.DT, 0.0]]))
        field, _, _ = run_details(sc, self.DT)
        j = int(np.flatnonzero(field.ts == self.CLOSE_AT)[0])
        return field, period, j

    def test_period_is_four_transits(self, two_periods):
        # after each drop below the pre-closure value the valve pressure
        # rises back above it, one period 4L/a after the previous rise
        field, period, j = two_periods
        valve = field.P[:, -1]
        steps = np.arange(valve.size)
        rise = j + 1
        for k in (1, 2):
            low = np.flatnonzero((steps > rise) & (valve < valve[j]))[0]
            rise = np.flatnonzero((steps > low) & (valve > valve[j]))[0]
            assert field.ts[rise] - field.ts[j + 1] == pytest.approx(k * period, rel=0.01)

    def test_steady_boundaries_hold_to_round_off(self, fluid, pipe, closure):
        field, *_ = closure
        assert np.max(np.abs(field.P[:, 0] - 1.48)) <= 1e-12
        # with Darcy friction the linear steady profile is a fixed point of
        # the scheme, so constant boundaries leave the field unchanged
        sc = Scenario(pipe=pipe, fluid=fluid, duration=300.0,
                      inlet_pressure=PiecewiseSignal.constant(1.48),
                      outlet_flowrate=PiecewiseSignal.constant(Q_START))
        steady = run(sc, self.DT)
        assert np.max(np.abs(steady.P - steady.P[0])) <= 1e-12
        assert np.max(np.abs(steady.v - steady.v[0])) <= 1e-12


class TestSample:
    def _field(self):
        xs = np.array([0.0, 10.0, 20.0])
        ts = np.array([0.0, 1.0])
        P = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        v = P / 10.0
        return FieldGrid(xs=xs, ts=ts, P=P, v=v)

    def test_exact_at_nodes(self):
        f = self._field()
        out = sample(f, f.xs, f.ts)
        assert np.array_equal(out.P, f.P)
        assert np.array_equal(out.v, f.v)

    def test_midpoint_average(self):
        f = self._field()
        out = sample(f, np.array([5.0, 15.0]), np.array([0.0]))
        assert out.P[0, 0] == pytest.approx(1.5)
        assert out.P[0, 1] == pytest.approx(2.5)
        out2 = sample(f, np.array([0.0, 10.0]), np.array([0.5]))
        assert out2.P[0, 1] == pytest.approx((2.0 + 5.0) / 2)

    def test_out_of_bounds(self):
        f = self._field()
        with pytest.raises(DomainError):
            sample(f, np.array([5.0, 25.0]), np.array([0.0]))
        with pytest.raises(DomainError):
            sample(f, np.array([5.0, 10.0]), np.array([2.0]))

    def test_non_uniform_source_axis_rejected(self):
        # bilinear weights from one step would read x=5 as 1.0, not 5.0
        xs = np.array([0.0, 1.0, 10.0])
        f = FieldGrid(xs=xs, ts=np.array([0.0, 1.0]), P=np.tile(xs, (2, 1)),
                      v=np.zeros((2, 3)))
        with pytest.raises(GridError, match="x axis"):
            sample(f, np.array([5.0]), np.array([0.0]))
        g = FieldGrid(xs=np.array([0.0, 1.0]), ts=np.array([0.0, 1.0, 3.0]),
                      P=np.zeros((3, 2)), v=np.zeros((3, 2)))
        with pytest.raises(GridError, match="t axis"):
            sample(g, np.array([0.5]), np.array([2.0]))

    def test_rounded_uniform_axes_accepted(self, moc_field):
        # the MOC and export axes are uniform up to round-off
        field, _, frozen_pipe = moc_field
        xs, ts = export_grid(frozen_pipe.length, 600.0)
        out = sample(field, xs, ts)
        assert out.P.shape == (ts.size, xs.size)

    @staticmethod
    def _full_height(field, xs_out, ts_out):
        """The oracle: interpolate every source row in x, then blend in t."""
        ix, wx = _axis_weights(field.xs, xs_out, "x")
        it, wt = _axis_weights(field.ts, ts_out, "t")

        def interp(values):
            in_x = (values[:, ix] * (1.0 - wx)
                    + values[:, np.minimum(ix + 1, field.xs.size - 1)] * wx)
            if field.ts.size == 1:
                return in_x[np.zeros(it.size, dtype=int), :]
            return (in_x[it, :] * (1.0 - wt)[:, None]
                    + in_x[np.minimum(it + 1, field.ts.size - 1), :] * wt[:, None])

        return interp(field.P), interp(field.v)

    def _assert_bitwise_oracle(self, field, xs_out, ts_out):
        out = sample(field, xs_out, ts_out)
        for got, want in zip((out.P, out.v), self._full_height(field, xs_out, ts_out)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        return out

    @staticmethod
    def _random_field(rng, nt, nx, duration=600.0, length=50_000.0):
        return FieldGrid(xs=np.linspace(0.0, length, nx), ts=np.linspace(0.0, duration, nt),
                         P=rng.standard_normal((nt, nx)) * 3.0,
                         v=rng.standard_normal((nt, nx)) / 7.0)

    def test_bitwise_equal_full_height_fractional_weights(self, rng):
        field = self._random_field(rng, 97, 31)
        xs_out = np.unique(np.concatenate([[0.0, 50_000.0], rng.uniform(0.0, 50_000.0, 17)]))
        ts_out = np.unique(np.concatenate([[0.0, 600.0], rng.uniform(0.0, 600.0, 23)]))
        self._assert_bitwise_oracle(field, xs_out, ts_out)

    def test_bitwise_equal_full_height_node_exact_ten_to_one(self, rng):
        # a 0.05 s source sampled every 0.5 s: every t weight snaps to a node
        # (0, or 1 for the last time, which reads the last interval)
        field = self._random_field(rng, 1201, 846, duration=60.0)
        xs_out, ts_out = export_grid(50_000.0, 60.0)
        assert np.isin(_axis_weights(field.ts, ts_out, "t")[1], (0.0, 1.0)).all()
        self._assert_bitwise_oracle(field, xs_out, ts_out)

    def test_bitwise_equal_full_height_shared_source_rows(self, rng):
        # output times finer than the source: several share one bracketing
        # row pair, and one time's upper row is the next time's lower row
        field = self._random_field(rng, 61, 11)
        ts_out = np.array([0.0, 3.0, 7.5, 9.99, 10.0, 10.01, 14.0, 20.0, 590.0, 600.0])
        self._assert_bitwise_oracle(field, np.linspace(0.0, 50_000.0, 7), ts_out)

    @pytest.mark.parametrize("ts_out", [[10.0, 5.0], [10.0, 10.0]],
                             ids=["descending", "repeated"])
    def test_non_increasing_query_times_rejected(self, rng, ts_out):
        field = self._random_field(rng, 61, 11)
        with pytest.raises(DomainError, match="ts"):
            sample(field, field.xs, np.array(ts_out))

    def test_one_row_source_is_exact(self, rng):
        field = FieldGrid(xs=np.linspace(0.0, 100.0, 5), ts=np.array([0.0]),
                          P=rng.standard_normal((1, 5)), v=rng.standard_normal((1, 5)))
        out = self._assert_bitwise_oracle(field, field.xs, np.array([0.0]))
        assert np.array_equal(out.P, field.P)
        assert np.array_equal(out.v, field.v)
        self._assert_bitwise_oracle(field, np.array([12.5, 99.0]), np.array([0.0]))

    def test_transient_memory_scales_with_export_grid(self):
        field = FieldGrid(xs=np.linspace(0.0, 1000.0, 400), ts=np.linspace(0.0, 400.0, 4001),
                          P=np.zeros((4001, 400)), v=np.zeros((4001, 400)))
        full_height = 4001 * 21 * 8  # one (source rows x output columns) float64 array
        tracemalloc.start()
        try:
            sample(field, np.linspace(0.0, 1000.0, 21), np.linspace(0.0, 400.0, 41))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_height

    def test_desk_grid_has_51_columns_and_48_interior(self, desk_dataset):
        field, meta = desk_dataset
        assert field.xs.size == 51
        interior = interior_column_indices(field.xs, meta.pipe.length,
                                           meta.offtake_x)
        assert interior.size == 48


def test_field_grid_validation():
    with pytest.raises(DomainError):
        FieldGrid(xs=np.array([0.0]), ts=np.array([0.0]),
                  P=np.zeros((1, 1)), v=np.zeros((1, 1)))
    with pytest.raises(DomainError):
        FieldGrid(xs=np.array([0.0, 1.0]), ts=np.array([0.0]),
                  P=np.zeros((2, 2)), v=np.zeros((2, 2)))


def test_field_grid_axes_strictly_increasing():
    with pytest.raises(DomainError, match="xs"):
        FieldGrid(xs=np.array([1.0, 0.0]), ts=np.array([0.0]),
                  P=np.zeros((1, 2)), v=np.zeros((1, 2)))
    with pytest.raises(DomainError, match="ts"):
        FieldGrid(xs=np.array([0.0, 1.0]), ts=np.array([0.0, 0.0]),
                  P=np.zeros((2, 2)), v=np.zeros((2, 2)))
    with pytest.raises(DomainError, match="ts"):
        FieldGrid(xs=np.array([0.0, 1.0]), ts=np.array([0.0, 1.0, 0.5]),
                  P=np.zeros((3, 2)), v=np.zeros((3, 2)))
