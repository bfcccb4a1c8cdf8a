import re
import tracemalloc

import numpy as np
import pytest

from conftest import write_checkpoint_meta
from hydropinn.adcheck import default_coefficients
from hydropinn.autodiff.tape import Tape
from hydropinn.errors import ConfigError, DomainError
from hydropinn.losses import residuals
from hydropinn.network import (
    BLOCK_ROWS,
    FLOAT32_EXP_CUTOFF,
    OUTPUT_MODES,
    InputScaler,
    NetSpec,
    _softplus_inplace,
    _stack_inputs,
    forward_cache,
    forward_with_input_tangents,
    init_params,
    load_checkpoint,
    net_forward,
    params_flatten,
    save_checkpoint,
    taped_forward,
)


class TestSpecs:
    def test_layer_dims(self):
        spec = NetSpec(hidden_layers=10, width=50,
                       scaler=InputScaler(0, 1, 0, 1))
        dims = spec.layer_dims
        assert dims[0] == (2, 50)
        assert dims[-1] == (50, 2)
        assert len(dims) == 11
        assert sum(i * o + o for i, o in dims) == 23_202

    def test_validation(self):
        with pytest.raises(DomainError):
            NetSpec(hidden_layers=0, width=50, scaler=InputScaler(0, 1, 0, 1))
        with pytest.raises(ConfigError):
            NetSpec(activation="relu", scaler=InputScaler(0, 1, 0, 1))
        with pytest.raises(ConfigError):
            NetSpec(output_mode="pressure", scaler=InputScaler(0, 1, 0, 1))
        with pytest.raises(DomainError):
            InputScaler(1.0, 1.0, 0.0, 1.0)

    def test_init_shapes_and_determinism(self):
        spec = NetSpec(hidden_layers=3, width=7, scaler=InputScaler(0, 1, 0, 1))
        p1 = init_params(spec, 42)
        p2 = init_params(spec, 42)
        p3 = init_params(spec, 43)
        for (w1, b1), (w2, b2), (i, o) in zip(p1, p2, spec.layer_dims):
            assert w1.shape == (i, o) and b1.shape == (o,)
            assert np.array_equal(w1, w2)
            assert np.array_equal(b1, b2)
        assert not np.array_equal(p1[0][0], p3[0][0])
        assert not np.array_equal(p1[0][1], p3[0][1])
        # Only the first layer carries biases; the rest start at zero.
        for _, b in p1[1:]:
            assert np.all(b == 0.0)
        # Each first-layer unit's softplus kink is the line w0*u + w1*s + b = 0
        # in the normalized input square. It crosses the open square exactly
        # when the pre-activation at the four corners takes both signs; a kink
        # through the origin (zero bias) fails this for about half the units.
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        for width in (7, 50):
            kink_spec = NetSpec(hidden_layers=3, width=width,
                                scaler=InputScaler(0, 1, 0, 1))
            for seed in (0, 42, 43):
                w0, b0 = init_params(kink_spec, seed)[0]
                z = corners @ w0 + b0
                assert np.all(z.min(axis=0) < 0.0)
                assert np.all(z.max(axis=0) > 0.0)


BLOCK_SIZES = [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]


def _kernel_case(activation, output_mode, n, seed=3):
    spec = NetSpec(hidden_layers=3, width=8, activation=activation,
                   output_mode=output_mode,
                   scaler=InputScaler(0.0, 50_000.0, 0.0, 600.0))
    rng = np.random.default_rng(seed)
    return (spec, init_params(spec, seed),
            rng.uniform(0, 50_000, n), rng.uniform(0, 600, n))


@pytest.mark.parametrize("activation", ["softplus", "identity"])
@pytest.mark.parametrize("output_mode", ["pressure-velocity", "head-velocity"])
@pytest.mark.parametrize("n", BLOCK_SIZES)
class TestBlockedForward:
    """Point counts around the block size: a partial last block, exactly
    one block, one spare row, and two full blocks plus one row."""

    def test_tangents_match_finite_differences(self, activation, output_mode, n):
        spec, params, x, t = _kernel_case(activation, output_mode, n)
        P, v, Px, Pt, vx, vt = forward_with_input_tangents(spec, params, x, t)
        hx, ht = 50_000 * 1e-5 / 2, 600 * 1e-5 / 2
        xp, xm = net_forward(spec, params, x + hx, t), net_forward(spec, params, x - hx, t)
        tp, tm = net_forward(spec, params, x, t + ht), net_forward(spec, params, x, t - ht)
        for ch, dx, dt in ((0, Px, Pt), (1, vx, vt)):
            assert np.allclose(dx, (xp[ch] - xm[ch]) / (2 * hx), rtol=1e-6, atol=1e-10)
            assert np.allclose(dt, (tp[ch] - tm[ch]) / (2 * ht), rtol=1e-6, atol=1e-10)

    def test_equals_per_chunk_evaluation(self, activation, output_mode, n):
        spec, params, x, t = _kernel_case(activation, output_mode, n)
        chunks = range(0, n, 37)
        for fn in (net_forward, forward_with_input_tangents):
            whole = fn(spec, params, x, t)
            parts = [fn(spec, params, x[i:i + 37], t[i:i + 37]) for i in chunks]
            for k, out in enumerate(whole):
                assert out.shape == (n,)
                pieced = np.concatenate([p[k] for p in parts])
                assert np.max(np.abs(out - pieced)) <= 1e-13 * np.max(np.abs(out))


@pytest.mark.parametrize("output_mode", OUTPUT_MODES)
@pytest.mark.parametrize("tangents", [False, True])
@pytest.mark.parametrize("n", [1, 2, 48, 128, BLOCK_ROWS])
def test_taped_forward_equals_tape_free_forward(output_mode, tangents, n):
    """Within one block both forwards run the same layer loop over the same
    stacked rows, so on the 10 x 50 net their outputs agree bitwise."""
    spec = NetSpec(output_mode=output_mode,
                   scaler=InputScaler(0.0, 50_000.0, 0.0, 600.0))
    params = init_params(spec, 3)
    rng = np.random.default_rng(3)
    x, t = rng.uniform(0, 50_000, n), rng.uniform(0, 600, n)
    fn = forward_with_input_tangents if tangents else net_forward
    (taped,) = taped_forward(spec, Tape().leaf(params_flatten(params)), x, t,
                             with_tangents=tangents)
    for got, want in zip(taped, fn(spec, params, x, t), strict=True):
        assert np.array_equal(got.value, want)


def _sum_of_squares(outputs):
    return sum((o * o).mean() for family in outputs for o in family)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [1, 48, 128, BLOCK_ROWS])
def test_one_node_over_families_equals_a_node_per_family(dtype, n):
    """Each family runs the layers over its own rows of the node's buffers,
    so its outputs are bitwise those of a node over that family alone; the
    node's one reverse sweep sums the same per-row terms in another order,
    within 1e-12 (float64 leaf) or 1e-5 (float32) relative L2 of the
    per-family gradients' sum."""
    spec = NetSpec(scaler=InputScaler(0.0, 50_000.0, 0.0, 600.0))
    theta = params_flatten(init_params(spec, 5)).astype(dtype)
    rng = np.random.default_rng(n)
    sizes = (n, 48, n)  # bc, ic, then the tangent-carrying collocation family
    points = [(rng.uniform(0, 50_000, k), rng.uniform(0, 600, k)) for k in sizes]
    leaf = Tape().leaf(theta)
    joint = taped_forward(spec, leaf, np.concatenate([x for x, _ in points]),
                          np.concatenate([t for _, t in points]), with_tangents=True,
                          sizes=sizes)
    (want,) = leaf.tape.gradients(_sum_of_squares(joint), [leaf])
    summed = np.zeros_like(want)
    for i, ((x, t), outputs) in enumerate(zip(points, joint, strict=True)):
        alone = Tape().leaf(theta)
        (own,) = taped_forward(spec, alone, x, t, with_tangents=i == len(sizes) - 1)
        assert len(own) == len(outputs) == (6 if i == len(sizes) - 1 else 2)
        for got, expected in zip(outputs, own, strict=True):
            assert np.array_equal(got.value, expected.value)
        summed += alone.tape.gradients(_sum_of_squares([own]), [alone])[0]
    tolerance = 1e-12 if dtype == np.float64 else 1e-5
    assert np.linalg.norm(want - summed) <= tolerance * np.linalg.norm(summed)


def _float32_subnormal(a):
    """Entries of `a` that are nonzero and below float32's smallest normal."""
    a = np.abs(np.asarray(a))
    return (a > 0) & (a < np.finfo(np.float32).tiny)


def _unclamped_softplus(z):
    """softplus and sigmoid of z by `_softplus_inplace`'s ops without the
    cut-off, in z's dtype."""
    one = z.dtype.type(1.0)
    e = np.exp(-np.abs(z))
    return np.maximum(z, 0) + np.log1p(e), np.where(z >= 0, one, e) / (e + one)


def _softplus(z):
    v, e, tmp, mask = z.copy(), np.empty_like(z), np.empty_like(z), np.empty(z.shape, bool)
    _softplus_inplace(v, e, tmp, mask)
    return v, e


class TestSoftplusCutoff:
    def test_float32_has_no_subnormal_and_is_bitwise_unclamped_elsewhere(self):
        """float32 exp(-|z|) is subnormal for 87.3 < |z| < 103.3; clamped at
        |z| = 40, softplus and sigmoid are the unclamped ones wherever
        |z| < 40 or z >= 40, and exp(-40) where z <= -40."""
        edges = [40.0, 87.0, 87.5, 95.0, 103.0, 103.5, 110.0]
        z = np.concatenate([np.linspace(-120.0, 120.0, 24_001), edges, np.negative(edges),
                            np.nextafter(np.float32([40.0, -40.0]), 0)]).astype(np.float32)
        v, sigmoid = _softplus(z)
        assert not _float32_subnormal(v).any() and not _float32_subnormal(sigmoid).any()
        want_v, want_sigmoid = _unclamped_softplus(z)
        kept = (np.abs(z) < FLOAT32_EXP_CUTOFF) | (z >= FLOAT32_EXP_CUTOFF)
        assert np.array_equal(v[kept], want_v[kept])
        assert np.array_equal(sigmoid[kept], want_sigmoid[kept])
        floor = np.exp(np.float32(-FLOAT32_EXP_CUTOFF))
        assert np.all(v[~kept] == floor) and np.all(sigmoid[~kept] == floor)

    def test_float64_is_the_unclamped_formula(self):
        z = np.linspace(-750.0, 750.0, 30_001)
        for got, want in zip(_softplus(z), _unclamped_softplus(z), strict=True):
            assert np.array_equal(got, want)

    def test_float32_node_over_deep_negative_units(self):
        """Half the first layer's units sit at pre-activations in (-103, -87)
        on every value row, where the unclamped float32 sigmoid is subnormal:
        the float32 node's outputs and flat gradient hold no float32-subnormal
        entry and stay within 1e-5 relative L2 of the float64 node's."""
        spec = NetSpec(hidden_layers=2, width=8)
        params = init_params(spec, 2)
        w0, b0 = params[0]
        w0[:, ::2] = np.clip(w0[:, ::2], -1.0, 1.0)
        b0[::2] = -95.0
        rng = np.random.default_rng(2)
        sizes = (16, 16)
        x, t = rng.uniform(0, 1, sum(sizes)), rng.uniform(0, 1, sum(sizes))
        z0 = _stack_inputs(spec, x, t) @ w0 + b0
        assert np.all((z0[:, ::2] > -103.0) & (z0[:, ::2] < -87.0))
        results = []
        for dtype in (np.float32, np.float64):
            leaf = Tape().leaf(params_flatten(params).astype(dtype))
            outputs = taped_forward(spec, leaf, x, t, with_tangents=True, sizes=sizes)
            (grad,) = leaf.tape.gradients(_sum_of_squares(outputs), [leaf])
            results.append(([o.value for family in outputs for o in family], grad))
        (outputs32, grad32), (outputs64, grad64) = results
        for got, want in zip(outputs32 + [grad32], outputs64 + [grad64], strict=True):
            assert not _float32_subnormal(got).any()
            assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)


def test_taped_forward_family_sizes_must_cover_the_points():
    spec = NetSpec(hidden_layers=1, width=3)
    leaf = Tape().leaf(params_flatten(init_params(spec, 0)))
    with pytest.raises(ValueError, match="do not add up"):
        taped_forward(spec, leaf, np.zeros(5), np.zeros(5), sizes=(2, 2))


def test_desk_grid_forward_stays_small():
    """The 51 x 1201 desk grid on the 10 x 50 net: buffers are per block,
    so the traced peak stays far below one full-grid layer (24.5 MB)."""
    spec = NetSpec(scaler=InputScaler(0.0, 50_000.0, 0.0, 600.0))
    params = init_params(spec, 0)
    xg, tg = np.meshgrid(np.linspace(0, 50_000, 51), np.linspace(0, 600, 1201))
    x, t = xg.ravel(), tg.ravel()
    for fn in (net_forward, forward_with_input_tangents):
        tracemalloc.start()
        try:
            fn(spec, params, x, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, (fn.__name__, peak)


class TestForwardCache:
    """A forward handed a `forward_cache` of its points resumes at the first
    layer whose parameters differ from the cache's and gives the outputs of
    the full forward, bitwise."""

    spec = NetSpec(hidden_layers=4, width=9, scaler=InputScaler(0.0, 50_000.0, 0.0, 600.0))

    def _case(self, n, seed=0):
        rng = np.random.default_rng(seed)
        params = init_params(self.spec, seed)
        x, t = rng.uniform(0, 50_000, n), rng.uniform(0, 600, n)
        caches = tuple(forward_cache(self.spec, params, x, t, tangents)
                       for tangents in (False, True))
        return params, x, t, caches

    def _outputs(self, params, x, t, caches):
        data, colloc = caches
        return (*net_forward(self.spec, params, x, t, cache=data),
                *forward_with_input_tangents(self.spec, params, x, t, cache=colloc),
                *residuals(self.spec, params, default_coefficients(), x, t, cache=colloc))

    def _assert_equal_to_full(self, params, x, t, caches):
        for got, want in zip(self._outputs(params, x, t, caches),
                             self._outputs(params, x, t, (None, None)), strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 32, 600])
    def test_one_perturbed_entry_per_layer_array(self, n):
        params, x, t, caches = self._case(n)
        points, last = _stack_inputs(self.spec, x, t), len(params) - 1
        self._assert_equal_to_full(params, x, t, caches)
        assert caches[0].resume_layer(params, x, t, 1) == last
        for li, layer in enumerate(params):
            for arr in layer:
                flat = arr.reshape(-1)
                k = (7 * li + 3) % flat.size
                old = flat[k]
                flat[k] = old + 1e-3
                try:
                    assert caches[1].resume_layer(params, x, t, 3) == li
                    self._assert_equal_to_full(params, x, t, caches)
                finally:
                    flat[k] = old
        self._assert_equal_to_full(params, x, t, caches)

    def test_two_changed_layers(self):
        params, x, t, caches = self._case(600, seed=1)
        params[1][0][2, 5] += 1e-3
        params[3][1][4] -= 1e-3
        assert caches[0].resume_layer(params, x, t, 1) == 1
        self._assert_equal_to_full(params, x, t, caches)

    def test_cache_of_other_points_or_row_kinds_is_rejected(self):
        params, x, t, (data, colloc) = self._case(32)
        spec, coeffs = self.spec, default_coefficients()
        calls = [
            lambda: net_forward(spec, params, x + 1.0, t, cache=data),
            lambda: net_forward(spec, params, x[:-1], t[:-1], cache=data),
            lambda: forward_with_input_tangents(spec, params, x, t[::-1], cache=colloc),
            lambda: net_forward(spec, params, x, t, cache=colloc),
            lambda: forward_with_input_tangents(spec, params, x, t, cache=data),
            lambda: residuals(spec, params, coeffs, x, t, cache=data),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="forward cache was built for other"):
                call()

    @staticmethod
    def _buffers(cache):
        for block in cache.blocks:
            yield from block.inputs
            yield from block.zs
            yield from block.ss
            yield block.tmp
            if block.mask is not None:
                yield block.mask

    @pytest.mark.parametrize("n", [32, 600])
    def test_outputs_are_fresh_arrays(self, n):
        params, x, t, (data, colloc) = self._case(n)
        for fn, cache in ((net_forward, data), (forward_with_input_tangents, colloc)):
            outputs = []
            for li in (2, 0):  # a hidden layer, then the first one
                w = params[li][0]
                old = w[0, 1]
                w[0, 1] = old + 1e-3
                outputs.append(fn(self.spec, params, x, t, cache=cache))
                w[0, 1] = old
                if li == 2:
                    first = [o.copy() for o in outputs[0]]
            for got, want in zip(outputs[0], first, strict=True):
                assert np.array_equal(got, want)
            for got, other in zip(outputs[0], outputs[1], strict=True):
                assert not np.array_equal(got, other)
                assert not np.shares_memory(got, other)
            for arr in (o for out in outputs for o in out):
                assert not any(np.shares_memory(arr, buf) for buf in self._buffers(cache))

    def test_points_are_compared_by_value(self):
        params, x, t, (data, colloc) = self._case(32)
        assert not np.shares_memory(x, data.x) and not np.shares_memory(t, colloc.t)
        want = net_forward(self.spec, params, x, t)
        for got, ref in zip(net_forward(self.spec, params, x.copy(), t.copy(), cache=data),
                            want, strict=True):
            assert np.array_equal(got, ref)
        assert data.resume_layer(params, list(x), t.copy(), 1) == len(params) - 1
        nudged = x.copy()
        nudged[5] = np.nextafter(nudged[5], np.inf)
        with pytest.raises(ValueError, match="forward cache was built for other"):
            net_forward(self.spec, params, nudged, t, cache=data)
        nudged = t.copy()
        nudged[0] = np.nextafter(nudged[0], -np.inf)
        with pytest.raises(ValueError, match="forward cache was built for other"):
            forward_with_input_tangents(self.spec, params, x, nudged, cache=colloc)


    def test_own_points_pass_without_a_value_comparison(self, monkeypatch):
        """The cache's own `x` and `t` are accepted by identity; any other
        arrays, equal ones included, are compared by value."""
        params, x, t, (data, colloc) = self._case(32)
        want = net_forward(self.spec, params, x, t)
        compared = []
        array_equal = np.array_equal
        monkeypatch.setattr(np, "array_equal",
                            lambda *args: compared.append(args) or array_equal(*args))
        for got, ref in zip(net_forward(self.spec, params, data.x, data.t, cache=data),
                            want, strict=True):
            assert np.array_equal(got, ref)
        compared.clear()
        assert data.resume_layer(params, data.x, data.t, 1) == len(params) - 1
        assert colloc.resume_layer(params, colloc.x, colloc.t, 3) == len(params) - 1
        assert compared == []
        assert data.resume_layer(params, data.x, t.copy(), 1) == len(params) - 1
        assert len(compared) == 2


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        spec = NetSpec(hidden_layers=4, width=12,
                       scaler=InputScaler(0.0, 50_000.0, 0.0, 600.0),
                       output_mode="head-velocity")
        params = init_params(spec, 5)
        path = tmp_path / "model.npz"
        save_checkpoint(path, spec, params, label="pinn")
        spec2, params2, label = load_checkpoint(path)
        assert spec2 == spec
        assert label == "pinn"
        for (w1, b1), (w2, b2) in zip(params, params2):
            assert np.array_equal(w1, w2)
            assert np.array_equal(b1, b2)
        # identical predictions
        x = np.linspace(0, 50_000, 5)
        t = np.linspace(0, 600, 5)
        for a, b in zip(net_forward(spec, params, x, t),
                        net_forward(spec2, params2, x, t)):
            assert np.array_equal(a, b)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.npz")

    def test_loaded_params_are_views_into_one_buffer(self, tmp_path):
        spec, path = NetSpec(hidden_layers=2, width=5), tmp_path / "model.npz"
        params = init_params(spec, 1)
        save_checkpoint(path, spec, params)
        with np.load(path) as data:
            assert sorted(data.files) == ["meta", "theta"]
            assert np.array_equal(data["theta"], params_flatten(params))
        _, loaded, label = load_checkpoint(path)
        assert label is None
        theta = loaded[0][0].base
        assert all(a.base is theta for layer in loaded for a in layer)

    def test_garbage_file(self, tmp_path):
        no_meta, text, array, empty, half, head = (
            tmp_path / f"{k}.npz" for k in ("junk", "notes", "array", "empty", "half", "head"))
        np.savez(no_meta, foo=np.zeros(3))
        text.write_text("not a checkpoint\n")
        with open(array, "wb") as fh:
            np.save(fh, np.zeros(3))
        empty.write_bytes(b"")
        spec = NetSpec(hidden_layers=1, width=4)
        save_checkpoint(half, spec, init_params(spec, 0))
        whole = half.read_bytes()
        half.write_bytes(whole[:len(whole) // 2])
        head.write_bytes(whole[:10])
        for path in (no_meta, text, array, empty, half, head):
            with pytest.raises(ConfigError, match="is not a hydropinn checkpoint"):
                load_checkpoint(path)
        # one byte flipped inside theta's archive member fails its CRC check
        flipped = bytearray(whole)
        flipped[whole.index(b"theta.npy") + 200] ^= 0xFF
        half.write_bytes(bytes(flipped))
        with pytest.raises(ConfigError, match="array 'theta' is corrupt"):
            load_checkpoint(half)

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: meta["spec"].pop("scaler"), "missing key 'spec.scaler'"),
        (lambda meta: meta["spec"]["scaler"].pop("t_max"),
         "missing key 'spec.scaler.t_max'"),
        (lambda meta: meta["spec"].update(width="8"), "spec.width must be"),
        (lambda meta: meta.update(n_layers=2), "unknown key 'n_layers'"),
        (lambda meta: meta.update(format="hydropinn-checkpoint/1"),
         "unsupported checkpoint format 'hydropinn-checkpoint/1'"),
        (lambda meta: meta["spec"].update(hidden_layers=0),
         "spec: need at least one hidden layer of width >= 1"),
        (lambda meta: meta["spec"]["scaler"].update(x_max=meta["spec"]["scaler"]["x_min"]),
         "spec: input scaler requires min < max on both axes"),
        (lambda meta: meta["spec"].update(activation="relu"),
         "spec: unknown activation 'relu'"),
    ], ids=["no_scaler", "no_t_max", "text_width", "n_layers_key", "format_1",
            "no_hidden_layers", "flat_scaler", "relu"])
    def test_malformed_meta_is_config_error(self, tmp_path, edit, message):
        path, spec = tmp_path / "model.npz", NetSpec(hidden_layers=1, width=4)
        save_checkpoint(path, spec, init_params(spec, 0))
        write_checkpoint_meta(path, edit)
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: ')}.*{re.escape(message)}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda theta: None, "has no array 'theta'"),
        (lambda theta: theta.astype(str), "array 'theta' has non-numeric dtype <U"),
        (lambda theta: np.where(np.arange(theta.size) == 5, np.nan, theta),
         "array 'theta' has non-finite values"),
        (lambda theta: theta[:-1], "array 'theta' has shape (21,), spec needs 22"),
        (lambda theta: theta.reshape(2, 11), "array 'theta' has shape (2, 11), spec needs 22"),
    ], ids=["no_theta", "text_theta", "nan_theta", "short_theta", "2d_theta"])
    def test_bad_array_is_config_error_naming_file_and_array(self, tmp_path, corrupt,
                                                             message):
        path, spec = tmp_path / "model.npz", NetSpec(hidden_layers=1, width=4)
        save_checkpoint(path, spec, init_params(spec, 0))
        with np.load(path) as data:
            meta, theta = data["meta"], corrupt(data["theta"])
        np.savez(path, meta=meta, **({} if theta is None else {"theta": theta}))
        with pytest.raises(ConfigError, match=re.escape(f"{path} {message}")):
            load_checkpoint(path)
