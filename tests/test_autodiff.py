import numpy as np
import pytest

from hydropinn.autodiff.fdcheck import fd_check
from hydropinn.autodiff.tape import Tape
from hydropinn.network import (
    BLOCK_ROWS,
    InputScaler,
    NetSpec,
    _softplus_inplace,
    forward_with_input_tangents,
    init_params,
    net_forward,
    params_flatten,
    params_views,
    taped_forward,
)


def _num_dx(f, x, t, h=1e-6):
    return (f(x + h, t) - f(x - h, t)) / (2 * h)


def _softplus(z):
    """(softplus(z), sigmoid(z)) from `_softplus_inplace` with a mask buffer."""
    v, s, tmp = np.array(z, dtype=float), np.empty(z.size), np.empty(z.size)
    _softplus_inplace(v, s, tmp, np.empty(z.size, dtype=bool))
    return v, s


class TestActivations:
    def test_softplus_derivative_is_sigmoid(self, rng):
        z = np.concatenate([rng.normal(0, 3, 100), [-40.0, 0.0, 40.0]])
        value, sigmoid = _softplus(z)
        assert np.allclose(value, np.logaddexp(0.0, z), rtol=1e-14, atol=0.0)
        h = 1e-5
        fd = (_softplus(z + h)[0] - _softplus(z - h)[0]) / (2 * h)
        assert np.allclose(sigmoid, fd, rtol=1e-8, atol=1e-12)


class TestForwardTangents:
    def test_linear_net(self):
        # one identity "hidden" layer wired to pass (x, t) through, then
        # an output layer P = 2x + 3t, v = -x + 0.5t (normalized coords)
        spec = NetSpec(hidden_layers=1, width=2, activation="identity",
                       scaler=InputScaler(0.0, 1.0, 0.0, 1.0))
        params = [
            (np.eye(2), np.zeros(2)),
            (np.array([[2.0, -1.0], [3.0, 0.5]]), np.zeros(2)),
        ]
        P, v, Px, Pt, vx, vt = forward_with_input_tangents(
            spec, params, np.array([0.3]), np.array([0.7]))
        assert P[0] == pytest.approx(2 * 0.3 + 3 * 0.7)
        assert (Px[0], Pt[0]) == (pytest.approx(2.0), pytest.approx(3.0))
        assert (vx[0], vt[0]) == (pytest.approx(-1.0), pytest.approx(0.5))

    def test_zero_weight_net_is_constant(self):
        spec = NetSpec(hidden_layers=2, width=4,
                       scaler=InputScaler(0.0, 10.0, 0.0, 5.0))
        params = init_params(spec, 0)
        params = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]
        params[-1] = (params[-1][0], np.array([0.5, 0.5]))
        P, v, Px, Pt, vx, vt = forward_with_input_tangents(
            spec, params, np.array([1.0, 9.0]), np.array([0.0, 4.0]))
        assert np.allclose(P, 0.5) and np.allclose(v, 0.5)
        for d in (Px, Pt, vx, vt):
            assert np.allclose(d, 0.0)

    def test_matches_finite_differences(self, rng):
        spec = NetSpec(hidden_layers=3, width=8,
                       scaler=InputScaler(0.0, 50_000.0, 0.0, 600.0))
        params = init_params(spec, 7)
        xs = rng.uniform(0, 50_000, 10)
        ts = rng.uniform(0, 600, 10)
        P, v, Px, Pt, vx, vt = forward_with_input_tangents(spec, params, xs, ts)

        def p_of(x, t):
            return net_forward(spec, params, x, t)[0]

        def v_of(x, t):
            return net_forward(spec, params, x, t)[1]

        # h chosen on the physical scale of each coordinate
        hx, ht = 50_000 * 1e-5 / 2, 600 * 1e-5 / 2
        assert np.allclose(Px, (p_of(xs + hx, ts) - p_of(xs - hx, ts)) / (2 * hx),
                           rtol=1e-6, atol=1e-10)
        assert np.allclose(Pt, (p_of(xs, ts + ht) - p_of(xs, ts - ht)) / (2 * ht),
                           rtol=1e-6, atol=1e-10)
        assert np.allclose(vx, (v_of(xs + hx, ts) - v_of(xs - hx, ts)) / (2 * hx),
                           rtol=1e-6, atol=1e-10)
        assert np.allclose(vt, (v_of(xs, ts + ht) - v_of(xs, ts - ht)) / (2 * ht),
                           rtol=1e-6, atol=1e-10)

    def test_normalization_contract(self):
        # x = x_max, t = t_max must hit the network at input (1, 1)
        spec = NetSpec(hidden_layers=1, width=2, activation="identity",
                       scaler=InputScaler(0.0, 50_000.0, 100.0, 700.0))
        params = [(np.eye(2), np.zeros(2)),
                  (np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))]
        P, v = net_forward(spec, params, np.array([50_000.0]), np.array([700.0]))
        assert (P[0], v[0]) == (pytest.approx(1.0), pytest.approx(1.0))


class TestTape:
    def test_sum_of_squares_gradient(self):
        tape = Tape()
        x = tape.leaf(np.array([1.0, -2.0, 3.0]))
        loss = (x * x).mean() * 3.0  # = sum(x^2)
        (g,) = tape.gradients(loss, [x])
        assert np.allclose(g, 2.0 * x.value)

    def test_constant_loss_zero_gradient(self):
        tape = Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        y = tape.leaf(np.array([5.0]))
        loss = (y * 0.0).mean() + 7.0
        gx, gy = tape.gradients(loss, [x, y])
        assert np.all(gx == 0.0) and np.all(gy == 0.0)

    def test_matmul_and_bias_gradients(self, rng):
        # fused node of an identity-activation net, y = (a W0 + b0) W1 + b1
        spec = NetSpec(hidden_layers=1, width=3, activation="identity",
                       scaler=InputScaler(0.0, 1.0, 0.0, 1.0))
        params = [(rng.normal(size=(2, 3)), rng.normal(size=3)),
                  (rng.normal(size=(3, 2)), rng.normal(size=2))]
        x, t = rng.uniform(0, 1, 4), rng.uniform(0, 1, 4)
        tape = Tape()
        theta = tape.leaf(params_flatten(params))
        [(P, v)] = taped_forward(spec, theta, x, t)
        loss = (P * P).mean() + (v * v).mean()
        (grad,) = tape.gradients(loss, [theta])
        (gw0, gb0), (gw1, gb1) = params_views(spec, grad)
        # analytic: y_bar = 2y/n, W1_bar = h^T y_bar, h_bar = y_bar W1^T, ...
        a = np.column_stack([x, t])
        h = a @ params[0][0] + params[0][1]
        y = h @ params[1][0] + params[1][1]
        ybar = 2.0 * y / x.size
        hbar = ybar @ params[1][0].T
        assert np.allclose(gw1, h.T @ ybar, rtol=1e-12)
        assert np.allclose(gb1, ybar.sum(axis=0), rtol=1e-12)
        assert np.allclose(gw0, a.T @ hbar, rtol=1e-12)
        assert np.allclose(gb0, hbar.sum(axis=0), rtol=1e-12)

    def test_softplus_backward(self, rng):
        # fused node of a softplus net with tangents; the probe evaluates the
        # same loss with the tape-free blocked kernel, over one point and over
        # one point more than a block
        spec = NetSpec(hidden_layers=2, width=5,
                       scaler=InputScaler(0.0, 2.0, 0.0, 3.0))
        params = init_params(spec, 4)
        for n in (1, BLOCK_ROWS + 1):
            x, t = rng.uniform(0, 2, n), rng.uniform(0, 3, n)

            def loss_fn():
                out = forward_with_input_tangents(spec, params, x, t)
                return float(sum(np.mean(o * o) for o in out))

            tape = Tape()
            theta = tape.leaf(params_flatten(params))
            (out,) = taped_forward(spec, theta, x, t, with_tangents=True)
            loss = sum(((o * o).mean() for o in out))
            (g,) = tape.gradients(loss, [theta])
            grad = params_views(spec, g)
            report = fd_check(loss_fn, grad, params, h=1e-4, tolerance=1e-6, order=4)
            assert report.passed, (n, report.summary())

    def test_scalar_loss_required(self):
        tape = Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            tape.gradients(x * 2.0, [x])

    def test_foreign_tape_rejected(self):
        t1, t2 = Tape(), Tape()
        x = t1.leaf(np.array([1.0]))
        y = t2.leaf(np.array([1.0]))
        with pytest.raises(ValueError):
            t2.gradients((x * x).mean(), [y])

    def test_foreign_wrt_rejected(self):
        # x and y are both node 0 of their tapes: y's adjoint must not pass as x's
        t1, t2 = Tape(), Tape()
        x = t1.leaf(np.array([1.0, 2.0]))
        y = t2.leaf(np.array([3.0, 4.0]))
        with pytest.raises(ValueError, match="different tape"):
            t2.gradients((y * y).mean(), [x])

    def test_linearity_of_gradients(self, rng):
        spec = NetSpec(hidden_layers=2, width=6,
                       scaler=InputScaler(0.0, 1.0, 0.0, 1.0))
        params = init_params(spec, 3)
        x = rng.uniform(0, 1, 12)
        t = rng.uniform(0, 1, 12)
        targ = rng.normal(size=12)

        def grads_of(wa, wb):
            tape = Tape()
            theta = tape.leaf(params_flatten(params))
            [(P, v)] = taped_forward(spec, theta, x, t)
            l1 = ((P - targ) * (P - targ)).mean()
            l2 = (v * v).mean()
            loss = wa * l1 + wb * l2
            return tape.gradients(loss, [theta])

        g1 = grads_of(1.0, 0.0)
        g2 = grads_of(0.0, 1.0)
        g12 = grads_of(2.0, 3.0)
        for ga, gb, gc in zip(g1, g2, g12):
            assert np.allclose(2.0 * ga + 3.0 * gb, gc, rtol=1e-12, atol=1e-15)

    def test_determinism_bitwise(self, rng):
        spec = NetSpec(hidden_layers=3, width=8,
                       scaler=InputScaler(0.0, 1.0, 0.0, 1.0))
        params = init_params(spec, 11)
        x = rng.uniform(0, 1, 8)
        t = rng.uniform(0, 1, 8)

        def run_once():
            tape = Tape()
            theta = tape.leaf(params_flatten(params))
            (out,) = taped_forward(spec, theta, x, t, with_tangents=True)
            loss = sum(((o * o).mean() for o in out[2:]), (out[0] * out[1]).mean())
            return tape.gradients(loss, [theta])

        for ga, gb in zip(run_once(), run_once()):
            assert np.array_equal(ga, gb)

    def test_taped_tangents_match_dual_path(self, rng):
        spec = NetSpec(hidden_layers=4, width=9,
                       scaler=InputScaler(0.0, 2.0, 0.0, 3.0))
        params = init_params(spec, 5)
        x = rng.uniform(0, 2, 6)
        t = rng.uniform(0, 3, 6)
        dual_out = forward_with_input_tangents(spec, params, x, t)
        tape = Tape()
        (taped_out,) = taped_forward(spec, tape.leaf(params_flatten(params)), x, t,
                                     with_tangents=True)
        for d, v in zip(dual_out, taped_out):
            assert np.allclose(d, v.value, rtol=1e-13, atol=1e-15)


_C = np.array([0.7, -1.3, 2.1, 0.4, -0.9])
VAR_OPS = {
    "var+var": lambda a, b: a + b,
    "var+const": lambda a, b: a + _C,
    "var-const": lambda a, b: a - _C,
    "var*var": lambda a, b: a * b,
    "var*const": lambda a, b: a * _C,
    "const*var": lambda a, b: _C * a,
    "abs": lambda a, b: abs(a),
    "mean": lambda a, b: a.mean(),
    "index": lambda a, b: a[1:4],
}


class TestVarOps:
    @pytest.mark.parametrize("name", list(VAR_OPS))
    def test_adjoint_matches_central_differences(self, name, rng):
        op = VAR_OPS[name]
        # magnitudes away from zero and both signs, so abs is smooth at +-h
        a = rng.uniform(0.2, 1.0, 5) * np.array([1.0, -1.0, 1.0, -1.0, -1.0])
        b = rng.normal(size=5)
        w = rng.normal(size=np.shape(op(a, b)))

        def loss(a, b):
            return float(np.mean(op(a, b) * w))

        tape = Tape()
        va, vb = tape.leaf(a), tape.leaf(b)
        ga, gb = tape.gradients((op(va, vb) * w).mean(), [va, vb])
        h = 1e-6
        for x, g in ((a, ga), (b, gb)):
            fd = np.empty_like(x)
            for i in range(x.size):
                x[i] += h
                up = loss(a, b)
                x[i] -= 2 * h
                fd[i] = (up - loss(a, b)) / (2 * h)
                x[i] += h
            assert np.allclose(g, fd, rtol=1e-7, atol=1e-9), (name, g, fd)

    def test_slice_keys_scatter_and_advanced_keys_are_rejected(self):
        # the (slice, int) keys `taped_forward` splits its output with
        m = 2
        value = np.arange(12.0).reshape(3 * m, 2)
        for key in ((slice(None, m), 0), (slice(m, 2 * m), 0), (slice(2 * m, None), 1),
                    np.int64(1), slice(1, 5)):
            tape = Tape()
            x = tape.leaf(value)
            (g,) = tape.gradients(x[key].mean(), [x])
            expected = np.zeros_like(value)
            expected[key] = 1.0 / value[key].size
            assert np.array_equal(g, expected), key
        tape = Tape()
        x = tape.leaf(np.array([1.0, 2.0, 3.0]))
        # a repeated integer-array index would keep only one of its adjoints
        for key in (np.array([0, 0]), [0, 1], np.array([True, False, True]), True,
                    (slice(None), np.array([0])), None, Ellipsis):
            with pytest.raises(TypeError, match="int and slice keys"):
                x[key]

    def test_broadcasting_a_var_and_var_minus_var_are_rejected(self):
        tape = Tape()
        x = tape.leaf(np.ones(3))
        with pytest.raises(ValueError, match="broadcast"):
            x + tape.leaf(np.ones(1))
        with pytest.raises(ValueError, match="broadcast"):
            x * np.ones((2, 3))
        with pytest.raises(ValueError, match="broadcast"):
            x.mean() + np.ones(3)
        with pytest.raises(TypeError):
            x - x


class TestSecondOrderCrossTerms:
    def test_grad_of_input_derivative_matches_fd(self, rng):
        """d/dtheta of (dNN/dx at fixed points): the quantity PDE losses
        backpropagate through."""
        spec = NetSpec(hidden_layers=2, width=5,
                       scaler=InputScaler(0.0, 1.0, 0.0, 1.0))
        params = init_params(spec, 2)
        x = rng.uniform(0, 1, 6)
        t = rng.uniform(0, 1, 6)

        def loss_fn():
            _, _, Px, _, _, _ = forward_with_input_tangents(spec, params, x, t)
            return float(np.mean(Px * Px))

        tape = Tape()
        theta = tape.leaf(params_flatten(params))
        (out,) = taped_forward(spec, theta, x, t, with_tangents=True)
        loss = (out[2] * out[2]).mean()
        (flat_g,) = tape.gradients(loss, [theta])
        grad = params_views(spec, flat_g)
        report = fd_check(loss_fn, grad, params, h=1e-4, tolerance=1e-5)
        assert report.passed, report.summary()


class TestFdCheck:
    def _quadratic_problem(self):
        params = [(np.array([[1.0, -2.0]]), np.array([0.5]))]

        def loss_fn():
            w, b = params[0]
            return float(np.sum(w**2) + np.sum(b**2))

        grad = [(2.0 * params[0][0], 2.0 * params[0][1])]
        return params, loss_fn, grad

    def test_exact_quadratic(self):
        params, loss_fn, grad = self._quadratic_problem()
        report = fd_check(loss_fn, grad, params, h=1e-4, tolerance=1e-10)
        assert report.passed
        assert report.max_rel_error < 1e-10
        assert report.n_coordinates == 3

    def test_corrupted_gradient_flagged(self):
        params, loss_fn, grad = self._quadratic_problem()
        grad[0][0][0, 1] *= 2.0  # corrupt one coordinate
        report = fd_check(loss_fn, grad, params, h=1e-4, tolerance=1e-6)
        assert not report.passed
        assert "W[1]" in report.worst_coordinate

    def test_bad_h_rejected(self):
        params, loss_fn, grad = self._quadratic_problem()
        with pytest.raises(ValueError):
            fd_check(loss_fn, grad, params, h=0.0)

    @pytest.mark.parametrize("size", [7, None])
    def test_probes_the_sorted_flat_draw_in_layout_order(self, size):
        """The coordinates are `size` flat indices drawn by one
        `rng.choice(total, size, replace=False)` and sorted (all of them for
        None), probed in that order; the one at flat index i of the layout
        W0, b0, W1, ... is named by its layer, array and offset."""
        spec = NetSpec(hidden_layers=2, width=3, scaler=InputScaler(0.0, 1.0, 0.0, 1.0))
        params = init_params(spec, 0)
        theta0 = params_flatten(params)
        names = [f"layer {li} {'Wb'[ai]}[{k}]" for li, layer in enumerate(params)
                 for ai, arr in enumerate(layer) for k in range(arr.size)]
        probed = []

        def loss_fn():
            theta = params_flatten(params)
            probed.extend(np.flatnonzero(theta != theta0).tolist())
            return float(theta @ theta)

        def check(grad):
            probed.clear()
            return fd_check(loss_fn, params_views(spec, grad), params, h=1e-3, order=2,
                            tolerance=1e-6, max_coordinates=size,
                            rng=np.random.default_rng(5))

        expected = (np.arange(theta0.size) if size is None else
                    np.sort(np.random.default_rng(5).choice(theta0.size, size, replace=False)))
        report = check(2.0 * theta0)
        assert report.passed and report.n_coordinates == expected.size
        assert probed == np.repeat(expected, 2).tolist()
        for i in expected:
            grad = 2.0 * theta0
            grad[i] += 1.0
            report = check(grad)
            assert not report.passed
            assert report.worst_coordinate.startswith(names[i] + " ")
        assert np.array_equal(params_flatten(params), theta0)

    @pytest.mark.parametrize("corrupt, worst", [
        ("nan_gradient", "layer 0 W[0]"),
        ("nan_loss", "layer 0 W[0]"),
        ("inf_gradient_entry", "layer 0 b[0]"),
    ])
    def test_non_finite_values_fail_and_name_the_coordinate(self, corrupt, worst):
        params, loss_fn, grad = self._quadratic_problem()
        if corrupt == "nan_gradient":
            grad = [(np.full_like(w, np.nan), np.full_like(b, np.nan)) for w, b in grad]
        elif corrupt == "nan_loss":
            loss_fn = lambda: float("nan")  # noqa: E731
        else:
            grad[0][1][0] = np.inf
        report = fd_check(loss_fn, grad, params, h=1e-4, tolerance=1e-6)
        assert not report.passed
        assert report.max_rel_error == np.inf
        assert report.worst_coordinate.startswith(worst + " ")
        assert report.summary().startswith("FAIL")
