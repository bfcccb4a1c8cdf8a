"""The surrogate network: a fully connected MLP over normalized (x, t).

Inputs are min-max normalized to [0, 1]; raw outputs are interpreted
directly in physical units, either (pressure [MPa], velocity [m/s]) or
(head [m], velocity [m/s]) depending on the output mode. Derivative-aware
forwards apply the normalization chain-rule factors so returned
derivatives are with respect to physical x [m] and t [s].

Both forwards stack the value rows and the d/dx, d/dt tangent rows of
their points, so each layer is one matmul with the bias on the value rows
only, and share one in-place softplus helper. The tape-free kernel
`_forward` (`net_forward`, `forward_with_input_tangents`) walks the points
in cache-sized blocks for evaluation, eval-set objectives and the adcheck
probe. `taped_forward` records a whole forward as one tape node with a
hand-derived reverse, for training gradients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff.tape import Tape
from .errors import ConfigError, DomainError

OUTPUT_MODES = ("pressure-velocity", "head-velocity")
ACTIVATIONS = ("softplus", "identity")

CHECKPOINT_FORMAT = "hydropinn-checkpoint/1"

# params are a list of (weights, bias) per layer; gradients share the layout
NetParams = list


@dataclass(frozen=True)
class InputScaler:
    """Min-max bounds mapping physical (x, t) onto the unit square."""

    x_min: float
    x_max: float
    t_min: float
    t_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.t_min < self.t_max):
            raise DomainError("input scaler requires min < max on both axes")

    def normalize(self, x, t):
        u = (np.asarray(x, dtype=float) - self.x_min) / (self.x_max - self.x_min)
        s = (np.asarray(t, dtype=float) - self.t_min) / (self.t_max - self.t_min)
        return u, s

    @property
    def dx_factor(self) -> float:
        return 1.0 / (self.x_max - self.x_min)

    @property
    def dt_factor(self) -> float:
        return 1.0 / (self.t_max - self.t_min)


@dataclass(frozen=True)
class NetSpec:
    hidden_layers: int = 10
    width: int = 50
    activation: str = "softplus"
    scaler: InputScaler = field(
        default_factory=lambda: InputScaler(0.0, 1.0, 0.0, 1.0)
    )
    output_mode: str = "pressure-velocity"

    def __post_init__(self):
        if self.hidden_layers < 1 or self.width < 1:
            raise DomainError("need at least one hidden layer of width >= 1")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.output_mode not in OUTPUT_MODES:
            raise ConfigError(f"unknown output mode {self.output_mode!r}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [2] + [self.width] * self.hidden_layers + [2]
        return list(zip(dims[:-1], dims[1:]))

    def to_dict(self) -> dict:
        return {
            "hidden_layers": self.hidden_layers,
            "width": self.width,
            "activation": self.activation,
            "output_mode": self.output_mode,
            "scaler": {
                "x_min": self.scaler.x_min,
                "x_max": self.scaler.x_max,
                "t_min": self.scaler.t_min,
                "t_max": self.scaler.t_max,
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetSpec":
        sc = d["scaler"]
        return cls(
            hidden_layers=int(d["hidden_layers"]),
            width=int(d["width"]),
            activation=d["activation"],
            output_mode=d["output_mode"],
            scaler=InputScaler(
                float(sc["x_min"]), float(sc["x_max"]),
                float(sc["t_min"]), float(sc["t_max"]),
            ),
        )


SOFTPLUS_INIT_GAIN = 1.2
FIRST_LAYER_GAIN = 2.0


def init_params(spec: NetSpec, seed: int | np.random.Generator = 0,
                gain: float = SOFTPLUS_INIT_GAIN,
                first_layer_gain: float = FIRST_LAYER_GAIN) -> NetParams:
    """He-style initialization (variance gain^2 * 2/fan_in), zero biases
    except for the first layer.

    Two corrections to plain He, both needed because training runs at a
    small constant learning rate:

    * softplus damps the input-dependent signal by roughly half per layer,
      so deep stacks collapse to a near-constant function at init; the
      default gain restores O(1) output spread through ten layers
      (measured empirically);
    * with zero first-layer biases every unit's activation kink crosses
      the origin of the normalized input square, and features localized
      elsewhere (a wavefront arriving mid-run) are slow to form. The first
      layer therefore gets a larger gain and biases placed so each kink
      falls at a random point of the unit square.

    Contract: hidden-layer and output-layer biases are exactly zero. For
    each first-layer unit j an anchor point a_j is drawn uniformly from the
    unit square [0, 1]^2 of the normalized inputs (u, s), and the bias is
    b_j = -w_j . a_j, so the unit's kink line w_j . (u, s) + b_j = 0 passes
    through a_j. The anchors are drawn from the same generator right after
    that layer's weights, so the seed fixes weights and biases alike.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    params = []
    for li, (n_in, n_out) in enumerate(spec.layer_dims):
        g = first_layer_gain if li == 0 else gain
        w = rng.standard_normal((n_in, n_out)) * g * np.sqrt(2.0 / n_in)
        if li == 0:
            anchors = rng.uniform(0.0, 1.0, (n_in, n_out))
            b = -np.sum(w * anchors, axis=0)
        else:
            b = np.zeros(n_out)
        params.append((w, b))
    return params


def params_flatten(params: NetParams) -> np.ndarray:
    """One contiguous float64 copy of params: W0, b0, W1, b1, ... row-major."""
    return np.concatenate([a.ravel() for pair in params for a in pair])


def params_views(spec: NetSpec, theta: np.ndarray) -> NetParams:
    """Per-layer (W, b) views into a buffer laid out as `params_flatten` writes it."""
    params, start = [], 0
    for n_in, n_out in spec.layer_dims:
        w = theta[start:start + n_in * n_out].reshape(n_in, n_out)
        start += n_in * n_out
        params.append((w, theta[start:start + n_out]))
        start += n_out
    return params


def _stack_inputs(spec: NetSpec, x, t) -> np.ndarray:
    u, s = spec.scaler.normalize(np.atleast_1d(x), np.atleast_1d(t))
    return np.column_stack([u, s])


BLOCK_ROWS = 512  # points per block: one block's buffers fit a 2 MB L2 cache


def _softplus_inplace(v, e, tmp, mask=None) -> None:
    """v <- softplus(v) = max(v, 0) + log1p(exp(-|v|)) in place, leaving
    exp(-|v|) in `e` or, given a bool `mask` buffer, the sigmoid of the input
    v from the same exp. `tmp` is scratch; all buffers have v's shape."""
    np.abs(v, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    if mask is not None:
        np.greater_equal(v, 0.0, out=mask)
    np.maximum(v, 0.0, out=v)
    np.log1p(e, out=tmp)
    v += tmp
    if mask is not None:
        # sigmoid: 1/(1+e) where v >= 0, e/(1+e) elsewhere
        np.add(e, 1.0, out=tmp)
        np.putmask(e, mask, 1.0)
        np.divide(e, tmp, out=e)


def _forward(spec: NetSpec, params: NetParams, x, t, tangents: bool) -> np.ndarray:
    """The network over the points, as an array out[channel, row kind, point].

    Row kind 0 is the output value; with `tangents`, kinds 1 and 2 are its
    physical d/dx and d/dt. The points are walked in blocks of BLOCK_ROWS.
    Within a block the value rows and the two tangent row sets are stacked,
    so each layer is one matmul, with the bias added to the value rows only.
    The first layer's tangents are the constant rows dx_factor*W0[0] and
    dt_factor*W0[1]; softplus then scales the tangent rows by the sigmoid.
    Buffers are allocated once per call and every op writes in place.
    """
    inputs = _stack_inputs(spec, x, t)
    n = inputs.shape[0]
    kinds = 3 if tangents else 1
    rows = min(n, BLOCK_ROWS)
    buf_a = np.empty((kinds * rows, spec.width))
    buf_b = np.empty_like(buf_a)
    e = np.empty((rows, spec.width))
    tmp = np.empty_like(e)
    nonneg = np.empty(e.shape, dtype=bool)
    y = np.empty((kinds * rows, 2))
    out = np.empty((2, kinds, n))
    use_softplus = spec.activation == "softplus"
    w0 = params[0][0]
    dx_row = spec.scaler.dx_factor * w0[0]
    dt_row = spec.scaler.dt_factor * w0[1]
    for lo in range(0, n, BLOCK_ROWS):
        m = min(BLOCK_ROWS, n - lo)
        z, a = buf_a[:kinds * m], buf_b[:kinds * m]
        np.matmul(inputs[lo:lo + m], w0, out=z[:m])
        if tangents:
            z[m:2 * m] = dx_row
            z[2 * m:] = dt_row
        for li, (w, b) in enumerate(params[:-1]):
            if li:
                np.matmul(a, w, out=z)
            v = z[:m]
            v += b
            if use_softplus:
                _softplus_inplace(v, e[:m], tmp[:m], nonneg[:m] if tangents else None)
                if tangents:
                    tz = z[m:].reshape(2, m, -1)
                    tz *= e[:m]
            z, a = a, z
        w, b = params[-1]
        ym = y[:kinds * m]
        np.matmul(a, w, out=ym)
        ym[:m] += b
        out[:, :, lo:lo + m] = ym.reshape(kinds, m, 2).transpose(2, 0, 1)
    return out


def net_forward(spec: NetSpec, params: NetParams, x, t):
    """Plain forward pass; returns the two output channels as 1-d arrays."""
    out = _forward(spec, params, x, t, tangents=False)
    return out[0, 0], out[1, 0]


def forward_with_input_tangents(spec: NetSpec, params: NetParams, x, t):
    """Outputs plus exact physical-space derivatives, carried forward through
    the layers alongside the values.

    Returns (P, v, dP/dx, dP/dt, dv/dx, dv/dt); in head-velocity mode the
    first channel is head. Derivative exactness is machine precision --
    these are derivatives of the network function itself.
    """
    out = _forward(spec, params, x, t, tangents=True)
    return out[0, 0], out[1, 0], out[0, 1], out[0, 2], out[1, 1], out[1, 2]


def params_to_vars(tape: Tape, params: NetParams) -> list:
    return [(tape.leaf(w), tape.leaf(b)) for w, b in params]


def taped_forward(spec: NetSpec, param_vars: list, x, t,
                  with_tangents: bool = False):
    """Forward pass recorded as one node on the tape of `param_vars`, whose
    backward is the hand-derived reverse below.

    Without tangents returns (P, v) Vars; with tangents additionally
    returns (Px, Pt, vx, vt) Vars whose parameter adjoints carry the
    second-order cross terms the PDE losses need.

    Per layer, as in `_forward` over one block, rows A = [a; a_x; a_t] give
    Z = A W = [z; z_x; z_t], then a = softplus(z), a_x = s*z_x, a_t = s*z_t
    with s = sigmoid(z); A and s are kept in tape buffers. The reverse is
    W_bar = A^T Z_bar, A_bar = Z_bar W^T with Z_bar = [s*a_bar + (1-s)*
    (a_bar_x*a_x + a_bar_t*a_t); s*a_bar_x; s*a_bar_t], the sigmoid term
    s(1-s)*(a_bar_x*z_x + a_bar_t*z_t) read off the next layer's A.
    """
    tape = param_vars[0][0].tape
    params = [(w.value, b.value) for w, b in param_vars]
    points = _stack_inputs(spec, x, t)
    m = points.shape[0]
    rows = (3 if with_tangents else 1) * m
    use_softplus = spec.activation == "softplus"
    sc = spec.scaler
    a = tape.buffer((rows, 2))
    a[:m] = points
    if with_tangents:
        a[m:] = np.repeat(np.diag([sc.dx_factor, sc.dt_factor]), m, axis=0)
    tmp, mask = tape.buffer((m, spec.width)), tape.buffer((m, spec.width), bool)
    inputs, sigmoids = [a], []
    for w, b in params[:-1]:
        z = tape.buffer((rows, spec.width))
        np.matmul(a, w, out=z)
        z[:m] += b
        if use_softplus:
            sigmoids.append(tape.buffer((m, spec.width)))
            _softplus_inplace(z[:m], sigmoids[-1], tmp, mask)
            if with_tangents:
                tz = z[m:].reshape(2, m, -1)
                tz *= sigmoids[-1]
        inputs.append(z)
        a = z
    y = tape.buffer((rows, 2))
    np.matmul(a, params[-1][0], out=y)
    y[:m] += params[-1][1]

    def backward(ybar):
        grads = [None] * (2 * len(params))
        abar = tape.buffer((rows, spec.width))
        zbar = tape.buffer((rows, spec.width))
        g = ybar
        for li in range(len(params) - 1, -1, -1):
            grads[2 * li] = inputs[li].T @ g
            grads[2 * li + 1] = g[:m].sum(axis=0)
            if li == 0:
                break
            np.matmul(g, params[li][0].T, out=abar)
            if not use_softplus:
                g, abar, zbar = abar, zbar, abar
                continue
            s = sigmoids[li - 1]
            if with_tangents:
                zv, cross = zbar[:m], zbar[m:2 * m]
                np.multiply(abar[m:], inputs[li][m:], out=zbar[m:])
                cross += zbar[2 * m:]
                np.subtract(1.0, s, out=zv)
                cross *= zv
                np.multiply(abar[:m], s, out=zv)
                zv += cross
                np.multiply(abar[m:].reshape(2, m, -1), s,
                            out=zbar[m:].reshape(2, m, -1))
            else:
                np.multiply(abar, s, out=zbar)
            g = zbar
        return grads

    out = tape.node([p for pair in param_vars for p in pair], y, backward)
    if not with_tangents:
        return out[:m, 0], out[:m, 1]
    return (out[:m, 0], out[:m, 1],
            out[m:2 * m, 0], out[2 * m:, 0],
            out[m:2 * m, 1], out[2 * m:, 1])


def save_checkpoint(path, spec: NetSpec, params: NetParams,
                    label: str | None = None) -> None:
    arrays = {}
    for i, (w, b) in enumerate(params):
        arrays[f"W{i}"] = w
        arrays[f"b{i}"] = b
    meta = {
        "format": CHECKPOINT_FORMAT,
        "spec": spec.to_dict(),
        "n_layers": len(params),
        "label": label,
    }
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.asarray(json.dumps(meta)), **arrays)


def load_checkpoint(path):
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with np.load(path, allow_pickle=False) as data:
        try:
            meta = json.loads(str(data["meta"]))
        except (KeyError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path} is not a hydropinn checkpoint") from exc
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ConfigError(f"unsupported checkpoint format {meta.get('format')!r}")
        spec = NetSpec.from_dict(meta["spec"])
        params = [
            (data[f"W{i}"].astype(float), data[f"b{i}"].astype(float))
            for i in range(int(meta["n_layers"]))
        ]
    expected = spec.layer_dims
    got = [(w.shape[0], w.shape[1]) for w, _ in params]
    if got != expected:
        raise ConfigError(f"checkpoint layer shapes {got} do not match spec {expected}")
    return spec, params, meta.get("label")
