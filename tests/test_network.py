import re
import tracemalloc

import numpy as np
import pytest

from conftest import write_checkpoint_meta
from hydropinn.autodiff.tape import Tape
from hydropinn.errors import ConfigError, DomainError
from hydropinn.network import (
    BLOCK_ROWS,
    OUTPUT_MODES,
    InputScaler,
    NetSpec,
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
    taped = taped_forward(spec, Tape().leaf(params_flatten(params)), x, t,
                          with_tangents=tangents)
    for got, want in zip(taped, fn(spec, params, x, t), strict=True):
        assert np.array_equal(got.value, want)


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
    ], ids=["no_scaler", "no_t_max", "text_width", "n_layers_key", "format_1"])
    def test_malformed_meta_is_config_error(self, tmp_path, edit, message):
        path, spec = tmp_path / "model.npz", NetSpec(hidden_layers=1, width=4)
        save_checkpoint(path, spec, init_params(spec, 0))
        write_checkpoint_meta(path, edit)
        with pytest.raises(ConfigError, match=re.escape(message)):
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
