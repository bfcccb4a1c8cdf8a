"""The surrogate network: a fully connected MLP over normalized (x, t).

Inputs are min-max normalized to [0, 1]; raw outputs are interpreted
directly in physical units, either (pressure [MPa], velocity [m/s]) or
(head [m], velocity [m/s]) depending on the output mode. Derivative-aware
forwards apply the normalization chain-rule factors so returned
derivatives are with respect to physical x [m] and t [s].

One layer loop, `_layers`, runs the network over stacked rows: the
points' value rows, then (with tangents) their d/dx and d/dt tangent
rows, so each layer is one matmul with the bias on the value rows only
and an in-place softplus that scales the tangent rows by the sigmoid.
Both forwards call it and differ only in the buffers they hand in. The
tape-free `_forward` (`net_forward`, `forward_with_input_tangents`) walks
the points in cache-sized blocks over two alternating row buffers, for
evaluation, eval-set objectives and the adcheck probe. `taped_forward`
hands in fresh per-layer arrays, which it keeps for the reverse, and
records the whole forward as one tape node whose only parent is the leaf
over the flat parameter buffer, for training gradients.
"""

from __future__ import annotations

import json
import zipfile
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import count, nested, number, optional, read_object, text
from .errors import ConfigError, DomainError

OUTPUT_MODES = ("pressure-velocity", "head-velocity")
ACTIVATIONS = ("softplus", "identity")

CHECKPOINT_FORMAT = "hydropinn-checkpoint/2"

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
    def from_dict(cls, d, path: str = "spec") -> "NetSpec":
        """Spec from its `to_dict` object; a missing or malformed key is a
        config error naming its path."""
        bounds = ("x_min", "x_max", "t_min", "t_max")
        v = read_object(d, path, {
            "hidden_layers": count, "width": count, "activation": text,
            "output_mode": text,
            "scaler": nested(dict.fromkeys(bounds, number), bounds),
        }, ("hidden_layers", "width", "activation", "output_mode", "scaler"))
        return cls(**{**v, "scaler": InputScaler(**v["scaler"])})


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


def _layers(spec: NetSpec, params: NetParams, a, m: int, zs, ss, tmp,
            mask=None) -> None:
    """Run the layers over the stacked rows `a`, layer li writing its rows
    into zs[li] (the last is the network output) and, through softplus,
    the sigmoid (given `mask`) or else exp(-|z|) into ss[li].

    a[:m] holds the m normalized points. When `a` has 3m rows, a[m:] is
    filled with the constant input-tangent rows (dx_factor, 0) and
    (0, dt_factor), which make the matmul's tangent rows the physical d/dx
    and d/dt; softplus then needs `mask`. Each layer is one matmul of all
    rows, with the bias added to the value rows only; softplus scales the
    tangent rows by the sigmoid. ss and tmp are (m, width), mask likewise.
    """
    tangents = a.shape[0] > m
    if tangents:
        a[m:] = 0.0
        a[m:2 * m, 0] = spec.scaler.dx_factor
        a[2 * m:, 1] = spec.scaler.dt_factor
    use_softplus = spec.activation == "softplus"
    for li, ((w, b), z) in enumerate(zip(params, zs)):
        np.matmul(a, w, out=z)
        z[:m] += b
        if use_softplus and li < len(params) - 1:
            _softplus_inplace(z[:m], ss[li], tmp, mask)
            if tangents:
                tz = z[m:].reshape(2, m, -1)
                tz *= ss[li]
        a = z


def _forward(spec: NetSpec, params: NetParams, x, t, tangents: bool) -> np.ndarray:
    """The network over the points, as an array out[channel, row kind, point].

    Row kind 0 is the output value; with `tangents`, kinds 1 and 2 are its
    physical d/dx and d/dt. The points are walked in blocks of BLOCK_ROWS,
    each through `_layers` over two row buffers that alternate between
    layers, so a block's buffers stay cache-sized. Buffers are allocated
    once per call and every op writes in place.
    """
    inputs = _stack_inputs(spec, x, t)
    n = inputs.shape[0]
    kinds = 3 if tangents else 1
    rows = min(n, BLOCK_ROWS)
    a = np.empty((kinds * rows, 2))
    bufs = np.empty((2, kinds * rows, spec.width))
    s = np.empty((rows, spec.width))
    tmp = np.empty_like(s)
    mask = np.empty(s.shape, dtype=bool)
    y = np.empty((kinds * rows, 2))
    out = np.empty((2, kinds, n))
    n_hidden = len(params) - 1
    for lo in range(0, n, BLOCK_ROWS):
        m = min(BLOCK_ROWS, n - lo)
        a[:m] = inputs[lo:lo + m]
        zs = [bufs[li % 2, :kinds * m] for li in range(n_hidden)] + [y[:kinds * m]]
        _layers(spec, params, a[:kinds * m], m, zs, [s[:m]] * n_hidden, tmp[:m],
                mask[:m] if tangents else None)
        out[:, :, lo:lo + m] = zs[-1].reshape(kinds, m, 2).transpose(2, 0, 1)
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


def taped_forward(spec: NetSpec, theta_var, x, t, with_tangents: bool = False):
    """Forward pass recorded as one node on the tape of `theta_var`, the
    leaf over the flat parameter buffer (laid out as `params_flatten` writes
    it), whose backward is the hand-derived reverse below.

    Without tangents returns (P, v) Vars; with tangents additionally
    returns (Px, Pt, vx, vt) Vars whose parameter adjoints carry the
    second-order cross terms the PDE losses need.

    Per layer of `_layers`, rows A = [a; a_x; a_t] give
    Z = A W = [z; z_x; z_t], then a = softplus(z), a_x = s*z_x, a_t = s*z_t
    with s = sigmoid(z); A and s are kept for the reverse. The reverse is
    W_bar = A^T Z_bar, A_bar = Z_bar W^T with Z_bar = [s*a_bar + (1-s)*
    (a_bar_x*a_x + a_bar_t*a_t); s*a_bar_x; s*a_bar_t], the sigmoid term
    s(1-s)*(a_bar_x*z_x + a_bar_t*z_t) read off the next layer's A. It
    writes each layer's W_bar and b_bar into that layer's slice of one
    fresh flat gradient.
    """
    theta = theta_var.value
    params = params_views(spec, theta)
    points = _stack_inputs(spec, x, t)
    m = points.shape[0]
    rows = (3 if with_tangents else 1) * m
    use_softplus = spec.activation == "softplus"
    a = np.empty((rows, 2))
    a[:m] = points
    tmp, mask = np.empty((m, spec.width)), np.empty((m, spec.width), bool)
    zs = [np.empty((rows, n_out)) for _, n_out in spec.layer_dims]
    sigmoids = [np.empty((m, spec.width)) for _ in params[:-1]]
    _layers(spec, params, a, m, zs, sigmoids, tmp, mask)
    inputs, y = [a] + zs[:-1], zs[-1]

    def backward(ybar):
        grad = np.empty_like(theta)
        grads = params_views(spec, grad)
        abar, zbar = np.empty((rows, spec.width)), np.empty((rows, spec.width))
        g = ybar
        for li in range(len(params) - 1, -1, -1):
            np.matmul(inputs[li].T, g, out=grads[li][0])
            g[:m].sum(axis=0, out=grads[li][1])
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
        return (grad,)

    out = theta_var.tape.node((theta_var,), y, backward)
    if not with_tangents:
        return out[:m, 0], out[:m, 1]
    return (out[:m, 0], out[:m, 1],
            out[m:2 * m, 0], out[2 * m:, 0],
            out[m:2 * m, 1], out[2 * m:, 1])


def save_checkpoint(path, spec: NetSpec, params: NetParams,
                    label: str | None = None) -> None:
    """The spec and label as JSON `meta`, and the params as one flat array
    `theta`, laid out as `params_flatten` writes it."""
    meta = {"format": CHECKPOINT_FORMAT, "spec": spec.to_dict(), "label": label}
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.asarray(json.dumps(meta)), theta=params_flatten(params))


def load_checkpoint(path):
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with ExitStack() as stack:
        try:
            # a bare .npy array is not a context manager: TypeError; an empty
            # file: EOFError; a truncated archive: BadZipFile, after which
            # np.load would leave a file it opened itself unclosed
            fh = stack.enter_context(path.open("rb"))
            data = stack.enter_context(np.load(fh, allow_pickle=False))
            meta = json.loads(str(data["meta"]))
        except (ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile) as exc:
            raise ConfigError(f"{path} is not a hydropinn checkpoint") from exc
        fmt = meta.get("format") if isinstance(meta, dict) else None
        if fmt != CHECKPOINT_FORMAT:
            raise ConfigError(f"unsupported checkpoint format {fmt!r}")
        meta = read_object(meta, "", {
            "format": text, "spec": NetSpec.from_dict, "label": optional(text),
        }, ("spec",))
        if "theta" not in data.files:
            raise ConfigError(f"{path} has no array 'theta'")
        try:
            theta = data["theta"]
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ConfigError(f"{path} array 'theta' is corrupt: {exc}") from exc
    spec = meta["spec"]
    size = sum(n_in * n_out + n_out for n_in, n_out in spec.layer_dims)
    if theta.dtype.kind not in "iuf":
        raise ConfigError(f"{path} array 'theta' has non-numeric dtype {theta.dtype}")
    if not np.all(np.isfinite(theta)):
        raise ConfigError(f"{path} array 'theta' has non-finite values")
    if theta.shape != (size,):
        raise ConfigError(f"{path} array 'theta' has shape {theta.shape}, spec needs {size}")
    return spec, params_views(spec, theta.astype(float)), meta.get("label")
