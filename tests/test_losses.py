import numpy as np
import pytest

from hydropinn.adcheck import AdCheckProblem, fast_coupled_loss
from hydropinn.autodiff.tape import Tape
from hydropinn.errors import ConfigError, DomainError
from hydropinn.hydraulics import (
    flowrate_to_velocity,
    friction_factor,
    steady_profile,
    wave_speed,
)
from hydropinn.losses import (
    CollocationSet,
    LossWeights,
    PhysicsCoefficients,
    _mean_sq,
    collocation_from_field,
    continuity_residual_hv,
    continuity_residual_pv,
    data_misfit,
    momentum_residual_hv,
    momentum_residual_pv,
    residuals,
)
from hydropinn.network import (
    InputScaler,
    NetSpec,
    forward_with_input_tangents,
    init_params,
    net_forward,
)
from hydropinn.training import _family, _objective, _weighted_sum


@pytest.fixture(scope="module")
def coeffs(fluid, pipe):
    v = float(flowrate_to_velocity(154 / 3600, pipe.diameter))
    frozen = pipe.with_friction(friction_factor(fluid, v, pipe.diameter))
    return PhysicsCoefficients.from_specs(fluid, frozen, wave_speed(fluid, frozen))


def _identity_net(scaler, w_out, b_out):
    """Two-channel linear net in normalized coordinates."""
    spec = NetSpec(hidden_layers=1, width=2, activation="identity",
                   scaler=scaler, output_mode="pressure-velocity")
    params = [(np.eye(2), np.zeros(2)), (np.asarray(w_out, float), np.asarray(b_out, float))]
    return spec, params


def _data_loss(colloc, family, spec, params, form):
    """Data term of one family from the tape-free forward (pressure-velocity nets)."""
    x, t, P, v_obs = _family(colloc, family)
    y1, v = net_forward(spec, params, x, t)
    return data_misfit(y1, v, P, v_obs, form)


def _mean_sq_residuals(colloc, spec, params, coeffs):
    g_mo, g_con = residuals(spec, params, coeffs, colloc.x_f, colloc.t_f)
    return float(np.mean(g_con * g_con)), float(np.mean(g_mo * g_mo))


def _problem(colloc, spec, params, coeffs, objective, form="paper"):
    return AdCheckProblem(spec=spec, params=params, colloc=colloc, coeffs=coeffs,
                          objective=objective, form=form)


class TestResiduals:
    def test_constant_net_momentum_is_friction_only(self, coeffs):
        scaler = InputScaler(0.0, 1.0, 0.0, 1.0)
        spec, params = _identity_net(scaler, np.zeros((2, 2)), [0.7, 0.9])
        x = np.array([0.2, 0.5])
        t = np.array([0.1, 0.9])
        g_mo, g_con = residuals(spec, params, coeffs, x, t)
        expected = coeffs.friction_pv * 0.9 * 0.9
        assert np.allclose(g_mo, expected, rtol=1e-12)
        assert np.allclose(g_con, 0.0, atol=1e-15)

    def test_linear_pressure_slope(self, coeffs, pipe):
        # v = 0 everywhere, P = 1.0 - s*x: G_mo = g * dP/dx
        scaler = InputScaler(0.0, pipe.length, 0.0, 600.0)
        s = 2.8552e-5  # MPa/m
        spec, params = _identity_net(
            scaler, [[-s * pipe.length, 0.0], [0.0, 0.0]], [1.48, 0.0])
        x = np.linspace(0, pipe.length, 7)
        t = np.full(7, 300.0)
        g_mo, _ = residuals(spec, params, coeffs, x, t)
        assert np.allclose(g_mo, coeffs.gravity * (-s), rtol=1e-10)

    def test_uniform_velocity_advection(self, coeffs, pipe):
        # P static with slope s, v uniform c: G_con = c * s
        scaler = InputScaler(0.0, pipe.length, 0.0, 600.0)
        s = -3e-5
        c = 0.8
        spec, params = _identity_net(
            scaler, [[s * pipe.length, 0.0], [0.0, 0.0]], [1.2, c])
        _, g_con = residuals(spec, params, coeffs,
                             np.linspace(0, pipe.length, 5), np.full(5, 10.0))
        assert np.allclose(g_con, c * s, rtol=1e-10)

    def test_darcy_steady_state_is_residual_zero_set(self, coeffs, fluid, pipe):
        # a net that encodes the analytic steady profile exactly
        q = 154 / 3600
        v = float(flowrate_to_velocity(q, pipe.diameter))
        f = friction_factor(fluid, v, pipe.diameter)
        frozen = pipe.with_friction(f)
        prof = steady_profile(frozen, fluid, 1.48, q)
        slope = (prof.pressure[-1] - prof.pressure[0]) / pipe.length
        scaler = InputScaler(0.0, pipe.length, 0.0, 600.0)
        spec, params = _identity_net(
            scaler, [[slope * pipe.length, 0.0], [0.0, 0.0]], [1.48, v])
        x = np.linspace(0.0, pipe.length, 11)
        t = np.linspace(0.0, 600.0, 11)
        g_mo, g_con = residuals(spec, params, coeffs, x, t)
        assert np.max(np.abs(g_mo)) <= 1e-9
        # steady continuity residual is exactly v * dP/dx: small but nonzero
        # (|slope| ~ 2.9e-5 MPa/m at the desk operating point)
        assert np.allclose(g_con, v * slope, rtol=1e-9)
        assert np.max(np.abs(g_con)) <= 5e-5


class TestEquationEquivalence:
    def test_pressure_form_equals_scaled_head_form(self, coeffs, rng):
        """Pressure-form residuals equal rho*g/1e6 times the head-form
        residuals under h = 1e6 P/(rho g), for random smooth networks."""
        scaler = InputScaler(0.0, 50_000.0, 0.0, 600.0)
        for trial in range(100):
            spec = NetSpec(hidden_layers=2, width=6, scaler=scaler)
            params = init_params(spec, rng)
            x = rng.uniform(0, 50_000, 8)
            t = rng.uniform(0, 600, 8)
            P, v, Px, Pt, vx, vt = forward_with_input_tangents(spec, params, x, t)
            g_mo = momentum_residual_pv(Px, v, vx, vt, coeffs)
            g_con = continuity_residual_pv(Pt, Px, v, vx, coeffs)
            # independent route: convert P to head, apply the raw equations
            k = coeffs.head_per_mpa  # 1e6/(rho g)
            r1 = momentum_residual_hv(Px * k, v, vx, vt, coeffs)
            r2 = continuity_residual_hv(Pt * k, Px * k, v, vx, coeffs)
            scale = coeffs.rho_g_over_1e6
            assert np.allclose(g_mo, scale * r1, rtol=1e-10, atol=1e-300)
            assert np.allclose(g_con, scale * r2, rtol=1e-10, atol=1e-300)


class TestLossTerms:
    def _colloc_single(self, P_pred_err=0.0, v_pred_err=0.0):
        return CollocationSet(
            x_f=np.array([0.5]), t_f=np.array([0.5]),
            x_bc=np.array([0.0]), t_bc=np.array([0.25]),
            P_bc=np.array([0.5 - P_pred_err]), v_bc=np.array([0.5 - v_pred_err]),
            x_ic=np.array([0.5]), t_ic=np.array([0.0]),
            P_ic=np.array([0.5 - P_pred_err]), v_ic=np.array([0.5 - v_pred_err]),
        )

    def _constant_half_net(self):
        scaler = InputScaler(0.0, 1.0, 0.0, 1.0)
        return _identity_net(scaler, np.zeros((2, 2)), [0.5, 0.5])

    def test_mean_of_squared_residuals(self, coeffs):
        # two points with residuals 1 and 3 -> (1 + 9) / 2 = 5
        r = np.array([1.0, 3.0])
        assert float(np.mean(r * r)) == 5.0

    def test_loss_mo_matches_manual_mean(self, coeffs):
        spec, params = self._constant_half_net()
        colloc = self._colloc_single()
        got = fast_coupled_loss(_problem(colloc, spec, params, coeffs, {"mo": 1.0}))
        expected = (coeffs.friction_pv * 0.25) ** 2  # single point, r^2
        assert got == pytest.approx(expected, rel=1e-12)

    def test_perfect_prediction_zero(self, coeffs):
        spec, params = self._constant_half_net()
        colloc = self._colloc_single()
        assert _data_loss(colloc, "bc", spec, params, "paper") == pytest.approx(0.0, abs=1e-25)
        assert _data_loss(colloc, "ic", spec, params, "split") == pytest.approx(0.0, abs=1e-25)

    def test_paper_form_cancellation(self, coeffs):
        # +eps pressure error against -eps velocity error cancels in the
        # averaged form but not in the split form
        eps = 0.125
        spec, params = self._constant_half_net()
        colloc = self._colloc_single(P_pred_err=eps, v_pred_err=-eps)
        assert _data_loss(colloc, "bc", spec, params, "paper") == pytest.approx(0.0, abs=1e-25)
        assert _data_loss(colloc, "bc", spec, params, "split") == pytest.approx(
            2 * eps**2, rel=1e-12)

    def test_paper_form_single_sample_value(self, coeffs):
        # residuals (0.2, 0.4) -> |(0.2+0.4)/2|^2 = 0.09
        spec, params = self._constant_half_net()
        colloc = self._colloc_single(P_pred_err=0.2, v_pred_err=0.4)
        assert _data_loss(colloc, "bc", spec, params, "paper") == pytest.approx(
            0.09, rel=1e-12)

    def test_unknown_form_rejected(self):
        with pytest.raises(ConfigError):
            data_misfit(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1), "nope")

    def test_empty_families_rejected(self):
        full = vars(self._colloc_single())
        for family in ("_f", "_bc", "_ic"):
            arrays = {k: np.array([]) if k.endswith(family) else v for k, v in full.items()}
            with pytest.raises(DomainError, match="has no points"):
                CollocationSet(**arrays)

    def test_family_arrays_of_unequal_length_rejected(self):
        # a length-1 target would otherwise broadcast against the predictions
        full = vars(self._colloc_single())
        for name, value in full.items():
            arrays = {**full, name: np.concatenate([value, value])}
            with pytest.raises(DomainError, match=f"differ in length: .*{name} 2"):
                CollocationSet(**arrays)


class TestCoupledLoss:
    def test_weights_validation(self):
        with pytest.raises(DomainError):
            LossWeights(con=-1.0)
        with pytest.raises(DomainError):
            LossWeights(mo=-1.0)

    def test_single_term_selection(self, coeffs, rng):
        scaler = InputScaler(0.0, 1.0, 0.0, 1.0)
        spec = NetSpec(hidden_layers=2, width=4, scaler=scaler)
        params = init_params(spec, 9)
        colloc = CollocationSet(
            x_f=rng.uniform(0.1, 0.9, 5), t_f=rng.uniform(0, 1, 5),
            x_bc=np.array([0.0, 1.0]), t_bc=np.array([0.3, 0.6]),
            P_bc=np.array([1.0, 0.8]), v_bc=np.array([0.5, 0.5]),
            x_ic=rng.uniform(0.1, 0.9, 3), t_ic=np.zeros(3),
            P_ic=np.array([1.0, 0.9, 0.8]), v_ic=np.full(3, 0.5),
        )
        only_bc = fast_coupled_loss(_problem(colloc, spec, params, coeffs, {"bc": 1.0}))
        assert only_bc == _data_loss(colloc, "bc", spec, params, "paper")
        assert _weighted_sum({"bc": 1.0}, {"bc": only_bc, "ic": np.nan}) is only_bc

    def test_weighted_sum(self, coeffs, rng):
        scaler = InputScaler(0.0, 1.0, 0.0, 1.0)
        spec = NetSpec(hidden_layers=2, width=4, scaler=scaler)
        params = init_params(spec, 10)
        colloc = CollocationSet(
            x_f=rng.uniform(0.1, 0.9, 5), t_f=rng.uniform(0, 1, 5),
            x_bc=np.array([0.0, 1.0]), t_bc=np.array([0.3, 0.6]),
            P_bc=np.array([1.0, 0.8]), v_bc=np.array([0.5, 0.5]),
            x_ic=rng.uniform(0.1, 0.9, 3), t_ic=np.zeros(3),
            P_ic=np.array([1.0, 0.9, 0.8]), v_ic=np.full(3, 0.5),
        )
        objective = {"bc": 2.0, "ic": 3.0, "con": 4.0, "mo": 5.0}
        total = fast_coupled_loss(_problem(colloc, spec, params, coeffs, objective))
        con, mo = _mean_sq_residuals(colloc, spec, params, coeffs)
        manual = (2 * _data_loss(colloc, "bc", spec, params, "paper")
                  + 3 * _data_loss(colloc, "ic", spec, params, "paper")
                  + 4 * con + 5 * mo)
        assert total == pytest.approx(manual, rel=1e-14)

    def test_all_terms_zero_for_trivial_target(self, coeffs):
        # identically zero net against zero targets, frictionless residuals
        scaler = InputScaler(0.0, 1.0, 0.0, 1.0)
        spec, params = _identity_net(scaler, np.zeros((2, 2)), [0.0, 0.0])
        colloc = CollocationSet(
            x_f=np.array([0.4]), t_f=np.array([0.4]),
            x_bc=np.array([0.0]), t_bc=np.array([0.1]),
            P_bc=np.array([0.0]), v_bc=np.array([0.0]),
            x_ic=np.array([0.5]), t_ic=np.array([0.0]),
            P_ic=np.array([0.0]), v_ic=np.array([0.0]),
        )
        objective = _objective("coupled", LossWeights())
        assert fast_coupled_loss(_problem(colloc, spec, params, coeffs, objective)) == 0.0


class TestCollocationBuilder:
    def test_families_from_desk_grid(self, desk_dataset):
        field, meta = desk_dataset
        colloc = collocation_from_field(field, meta.pipe.length, meta.offtake_x)
        nt = field.ts.size
        assert colloc.n_bc == 2 * nt
        assert colloc.n_ic == 48
        assert colloc.n_f == 48 * nt
        assert set(np.unique(colloc.x_bc)) == {0.0, meta.pipe.length}
        assert np.all(colloc.t_ic == 0.0)
        assert np.all((colloc.x_f > 0) & (colloc.x_f < meta.pipe.length))
        assert not np.any(np.isclose(colloc.x_f, meta.offtake_x))

    def test_mape_magnitude_ratio_on_ic(self, desk_dataset):
        # initial samples: pressure and velocity live on comparable scales
        field, meta = desk_dataset
        colloc = collocation_from_field(field, meta.pipe.length, meta.offtake_x)
        ratio = np.mean(np.abs(colloc.P_ic)) / np.mean(np.abs(colloc.v_ic))
        assert 0.1 <= ratio <= 10.0


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("n", [1, 2, 127, 128, 512, 513, 61_251])
def test_mean_reductions_equal_np_mean_bitwise(n, strided):
    """`_mean_sq` and `Var.mean` reduce in one pass without np.mean's Python
    wrapper, and give its float64 value bit for bit."""
    base = np.random.default_rng(n).standard_normal(3 * n if strided else n)
    r = base[::3] if strided else base
    assert r.size == n and r.strides == (24 if strided else 8,)
    assert _mean_sq(r) == float(np.mean(r * r))
    assert float(Tape().leaf(r).mean().value) == float(np.mean(r))
