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
records one tape node over every point family of a training iteration,
whose only parent is the leaf over the flat parameter buffer: each
family runs `_layers` over its own rows of fresh per-layer arrays, which
the node keeps, and its reverse is one sweep over all the rows into one
flat gradient. It computes in the leaf's dtype (float32 in training,
float64 in the gradient check). In float32 the softplus clamps |z| at
`FLOAT32_EXP_CUTOFF` before its exp, so a trained net's deep units,
whose pre-activations reach below -87, feed no subnormal values into the
later matmuls and ufuncs, which many x86 cores handle with a slow
microcode assist; float64 runs the exact formula.

A `ForwardCache` (`forward_cache`) keeps every layer's input rows over
fixed points, the raw points themselves and the bytes of the (W, b) that
made them; handed to the tape-free forward, it lets each block start at
the first layer whose parameters changed, as the adcheck probe's
one-parameter perturbations allow. It also owns the block buffers such a
resumed forward runs in, so the forward checks the points (the cache's
own arrays at once, others by value), neither normalizes them nor
allocates anything but its output, and one cache serves one caller at a
time. `forward_cache` fills it by running
`_layers` through those same blocks once, each hidden layer writing into
the next layer's input rows; nothing else writes them.
"""

from __future__ import annotations

import json
import math
import zipfile
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import count, nested, number, optional, read_object, text
from .errors import ConfigError, DomainError

OUTPUT_MODES = ("pressure-velocity", "head-velocity")
ACTIVATIONS = ("softplus", "identity")

CHECKPOINT_FORMAT = "hydropinn-checkpoint/2"

MAX_WIDTH = 4096  # widest hidden layer a spec may ask for
MAX_PARAMETERS = 10**7  # largest parameter count; the shipped 10 x 50 net has 23,202

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
        check_net_size(self.hidden_layers, self.width)
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
        """Spec from its `to_dict` object; a missing or malformed key, or
        values the spec or its scaler rejects, is a config error naming its
        path."""
        bounds = ("x_min", "x_max", "t_min", "t_max")
        v = read_object(d, path, {
            "hidden_layers": count, "width": count, "activation": text,
            "output_mode": text,
            "scaler": nested(dict.fromkeys(bounds, number), bounds),
        }, ("hidden_layers", "width", "activation", "output_mode", "scaler"))
        try:
            return cls(**{**v, "scaler": InputScaler(**v["scaler"])})
        except (DomainError, ConfigError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def _count_text(n: int) -> str:
    """`n` with thousands separators, or its power of ten past 12 digits."""
    return f"{n:,}" if n < 10**12 else f"~10^{math.log10(n):.0f}"


def check_net_size(hidden_layers: int, width: int, prefix: str = "") -> None:
    """Reject, before anything is allocated, a net wider than `MAX_WIDTH` or
    with more than `MAX_PARAMETERS` parameters: a config error naming the
    `prefix`ed key and the size. The count is Python int arithmetic, so a
    layer count like 2**70 cannot overflow it."""
    if width > MAX_WIDTH:
        raise ConfigError(f"{prefix}width {_count_text(width)} is above the cap of "
                          f"{MAX_WIDTH:,}")
    n = 3 * width + (hidden_layers - 1) * (width + 1) * width + 2 * width + 2
    if n > MAX_PARAMETERS:
        raise ConfigError(f"{prefix}hidden_layers {_count_text(hidden_layers)} of width "
                          f"{width} make {_count_text(n)} parameters, above the cap "
                          f"of {MAX_PARAMETERS:,}")


SOFTPLUS_INIT_GAIN = 1.2
FIRST_LAYER_GAIN = 2.0


def init_params(spec: NetSpec, seed: int | np.random.Generator = 0) -> NetParams:
    """He-style initialization (variance gain^2 * 2/fan_in), zero biases
    except for the first layer.

    Two corrections to plain He, both needed because training runs at a
    small constant learning rate:

    * softplus damps the input-dependent signal by roughly half per layer,
      so deep stacks collapse to a near-constant function at init;
      `SOFTPLUS_INIT_GAIN` restores O(1) output spread through ten layers
      (measured empirically);
    * with zero first-layer biases every unit's activation kink crosses
      the origin of the normalized input square, and features localized
      elsewhere (a wavefront arriving mid-run) are slow to form. The first
      layer therefore gets the larger `FIRST_LAYER_GAIN` and biases placed
      so each kink falls at a random point of the unit square.

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
        g = FIRST_LAYER_GAIN if li == 0 else SOFTPLUS_INIT_GAIN
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
FLOAT32_EXP_CUTOFF = 40.0  # float32 softplus clamps |z| here: exp(-40) = 4.2e-18


def _softplus_inplace(v, e, tmp, mask=None) -> None:
    """v <- softplus(v) = max(v, 0) + log1p(exp(-|v|)) in place, leaving
    exp(-|v|) in `e` or, given a bool `mask` buffer, the sigmoid of the input
    v from the same exp. `tmp` is scratch; all buffers have v's shape.

    In float32, |v| is clamped at `FLOAT32_EXP_CUTOFF` before the exp, so
    exp(-|v|) is at least 4.2e-18 and never subnormal, as it is for
    87.3 < |v| < 103.3 unclamped: a subnormal operand slows every later
    ufunc and sgemm on many x86 cores. For v >= 40 softplus and sigmoid
    round to v and 1 as before; for v <= -40 both read 4.2e-18 in place of
    e^v. float64 runs the exact formula: its exp underflows only past
    |v| = 708."""
    np.abs(v, out=e)
    if v.dtype == np.float32:
        np.minimum(e, FLOAT32_EXP_CUTOFF, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    if mask is not None:
        np.greater_equal(v, 0.0, out=mask)
    np.maximum(v, 0.0, out=v)
    np.log1p(e, out=tmp)
    v += tmp
    if mask is not None:
        # sigmoid: 1/(1+e) where v >= 0, e/(1+e) elsewhere; e lies in [0, 1],
        # so max(e, mask) puts 1 where the mask is set and keeps e elsewhere
        np.add(e, 1.0, out=tmp)
        np.maximum(e, mask, out=e)
        np.divide(e, tmp, out=e)


def _input_rows(spec: NetSpec, a, points) -> None:
    """Write the first layer's input rows into `a`: a[:m] <- the m normalized
    `points` and, when `a` has m + 2k rows, a[m:] <- the constant
    input-tangent rows (dx_factor, 0) and (0, dt_factor) of the last k
    points, which make the first matmul's tangent rows the physical d/dx
    and d/dt."""
    m = points.shape[0]
    a[:m] = points
    k = (a.shape[0] - m) // 2
    if k:
        a[m:] = 0.0
        a[m:m + k, 0] = spec.scaler.dx_factor
        a[m + k:, 1] = spec.scaler.dt_factor


def _layers(spec: NetSpec, params: NetParams, a, m: int, zs, ss, tmp,
            mask=None) -> None:
    """Run the layers `params` over the stacked rows `a`, the first one's
    input, layer li writing its rows into zs[li] and, through softplus, the
    sigmoid (given `mask`) or else exp(-|z|) into ss[li]. The last of
    `params` is the output layer, so a caller that resumes at a later layer
    hands in the tails of params, zs and ss.

    a[:m] holds m value rows. When `a` has 3m rows, a[m:] holds their d/dx
    and d/dt tangent rows (`_input_rows` writes the network's) and softplus
    needs `mask`. Each layer is one matmul of all rows, with the bias added
    to the value rows only; softplus scales the tangent rows by the
    sigmoid. ss and tmp are (m, width), mask likewise.
    """
    tangents = a.shape[0] > m
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


class _Block(NamedTuple):
    """One block of a blocked forward: its first point `lo`, its `m` points,
    and per layer the rows it reads (`inputs`; only the first layer's in a
    forward without a cache) and writes (`zs`) and its softplus buffer
    (`ss`), plus the block's `tmp` and `mask` scratch rows."""

    lo: int
    m: int
    inputs: list
    zs: list
    ss: list
    tmp: np.ndarray
    mask: np.ndarray | None


def _blocks(spec: NetSpec, n: int, kinds: int, inputs=None) -> list:
    """The `_Block`s of n points with `kinds` row kinds, as views of one set
    of buffers that every block reuses, sized for BLOCK_ROWS points so a
    block's buffers stay cache-sized. Each hidden layer writes into one of
    two row buffers that alternate between layers, the output layer into
    its own, and the first layer reads a buffer of its own. Given `inputs`,
    one array per layer in the `ForwardCache` layout, each layer reads the
    block's rows there instead."""
    rows, n_hidden = min(n, BLOCK_ROWS), spec.hidden_layers
    a = np.empty((kinds * rows, 2)) if inputs is None else None
    bufs = np.empty((2, kinds * rows, spec.width))
    s = np.empty((rows, spec.width))
    tmp = np.empty_like(s)
    mask = np.empty(s.shape, dtype=bool) if kinds == 3 else None
    y = np.empty((kinds * rows, 2))
    blocks = []
    for lo in range(0, n, BLOCK_ROWS):
        m = min(BLOCK_ROWS, n - lo)
        k = kinds * m
        if inputs is None:
            ins = [a[:k]]
        else:
            ins = [arr[kinds * lo:kinds * lo + k] for arr in inputs]
        zs = [bufs[li % 2, :k] for li in range(n_hidden)] + [y[:k]]
        blocks.append(_Block(lo, m, ins, zs, [s[:m]] * n_hidden, tmp[:m],
                             None if mask is None else mask[:m]))
    return blocks


@dataclass(frozen=True)
class ForwardCache:
    """Every layer's input rows over fixed points under fixed (W, b), from
    which `_forward` resumes at the first layer whose parameters changed.

    `x` and `t` are copies of the raw points it was built for, `kinds` is 1
    (values) or 3 (values and tangents) and `params` holds the bytes of each
    layer's (W, b). `blocks` are `_forward`'s blocks over buffers the cache
    owns: each block's `inputs` are views of one array per layer holding
    that layer's kinds*n input rows, block after block, each its value
    rows, then its d/dx and d/dt tangent rows; its `zs`, `ss`, `tmp` and
    `mask` are block buffers that every resumed forward reuses. A cache
    therefore serves one caller at a time; each forward's returned arrays
    are its own.
    """

    x: np.ndarray
    t: np.ndarray
    kinds: int
    params: list
    blocks: list

    def resume_layer(self, params: NetParams, x, t, kinds: int) -> int:
        """The first layer whose (W, b) bytes differ from the cache's, or the
        output layer when none do; a cache built for other points, row kinds
        or a net of other depth is a ValueError. The cache's own `x` and `t`
        pass at once; other point arrays are compared by value."""
        same_points = (x is self.x and t is self.t) or (
            np.array_equal(x, self.x) and np.array_equal(t, self.t))
        if kinds != self.kinds or len(params) != len(self.params) or not same_points:
            raise ValueError("forward cache was built for other points, row kinds or layers")
        last = len(params) - 1
        for li, ((w, b), (wb, bb)) in enumerate(zip(params[:last], self.params)):
            if w.tobytes() != wb or b.tobytes() != bb:
                return li
        return last


def forward_cache(spec: NetSpec, params: NetParams, x, t, tangents: bool) -> ForwardCache:
    """The `ForwardCache` of these points and row kinds under `params`: one
    `_layers` run per block of the cache's own blocks, each hidden layer
    writing its rows into the next layer's input array."""
    x, t = np.array(x, dtype=float), np.array(t, dtype=float)
    kinds = 3 if tangents else 1
    inputs = [np.empty((kinds * x.size, n_in)) for n_in, _ in spec.layer_dims]
    blocks = _blocks(spec, x.size, kinds, inputs)
    points = _stack_inputs(spec, x, t)
    for lo, m, ins, zs, ss, tmp, mask in blocks:
        _input_rows(spec, ins[0], points[lo:lo + m])
        _layers(spec, params, ins[0], m, ins[1:] + zs[-1:], ss, tmp, mask)
    return ForwardCache(x=x, t=t, kinds=kinds,
                        params=[(w.tobytes(), b.tobytes()) for w, b in params],
                        blocks=blocks)


def _forward(spec: NetSpec, params: NetParams, x, t, tangents: bool,
             cache: ForwardCache | None = None) -> np.ndarray:
    """The network over the points, as a fresh array out[channel, row kind,
    point].

    Row kind 0 is the output value; with `tangents`, kinds 1 and 2 are its
    physical d/dx and d/dt. The points are walked in `_blocks`, each through
    `_layers`; every op writes in place into buffers allocated once per call.

    Given a `cache` of these points and row kinds, the forward runs over
    the cache's blocks and buffers and each block starts at the cache's
    `resume_layer`, reading that layer's input rows from the cache: the
    layers before it have the cached (W, b), so they would give the same
    rows again. Such a forward neither normalizes the points nor allocates
    anything but `out`.
    """
    kinds = 3 if tangents else 1
    if cache is None:
        points = _stack_inputs(spec, x, t)
        n, start = points.shape[0], 0
        blocks = _blocks(spec, n, kinds)
    else:
        n, start = cache.x.size, cache.resume_layer(params, x, t, kinds)
        blocks = cache.blocks
    out = np.empty((2, kinds, n))
    for lo, m, inputs, zs, ss, tmp, mask in blocks:
        if cache is None:
            _input_rows(spec, inputs[0], points[lo:lo + m])
        _layers(spec, params[start:], inputs[start], m, zs[start:], ss[start:], tmp, mask)
        out[:, :, lo:lo + m] = zs[-1].reshape(kinds, m, 2).transpose(2, 0, 1)
    return out


def net_forward(spec: NetSpec, params: NetParams, x, t,
                cache: ForwardCache | None = None):
    """Plain forward pass; returns the two output channels as 1-d arrays.
    `cache`, built by `forward_cache` for these points without tangents,
    skips the layers whose parameters it holds."""
    out = _forward(spec, params, x, t, tangents=False, cache=cache)
    return out[0, 0], out[1, 0]


def forward_with_input_tangents(spec: NetSpec, params: NetParams, x, t,
                                cache: ForwardCache | None = None):
    """Outputs plus exact physical-space derivatives, carried forward through
    the layers alongside the values.

    Returns (P, v, dP/dx, dP/dt, dv/dx, dv/dt); in head-velocity mode the
    first channel is head. Derivative exactness is machine precision --
    these are derivatives of the network function itself. `cache`, built
    by `forward_cache` for these points with tangents, skips the layers
    whose parameters it holds.
    """
    out = _forward(spec, params, x, t, tangents=True, cache=cache)
    return out[0, 0], out[1, 0], out[0, 1], out[0, 2], out[1, 1], out[1, 2]


def taped_forward(spec: NetSpec, theta_var, x, t, with_tangents: bool = False,
                  sizes=None):
    """Forward pass over one or more point families, recorded as one node
    on the tape of `theta_var`, the leaf over the flat parameter buffer
    (laid out as `params_flatten` writes it), whose backward is the
    hand-derived reverse below.

    `x` and `t` hold the points of every family, family after family, and
    `sizes` their point counts (default: one family of all the points).
    With tangents the last family also carries d/dx and d/dt rows. Returns
    one tuple of Vars per family: (P, v), and for the tangent-carrying
    family (P, v, Px, Pt, vx, vt), whose parameter adjoints carry the
    second-order cross terms the PDE losses need.

    The node's rows are every family's value rows, then the last family's
    d/dx and d/dt rows, so each family's rows are one contiguous slice of
    the node's per-layer buffers. The forward runs `_layers` over each
    family's slice on its own, so every matmul has the row count of that
    family alone (BLAS results depend on it): each family's outputs are
    bitwise those of a node over that family alone.

    Per layer of `_layers`, rows A = [a; a_x; a_t] give
    Z = A W = [z; z_x; z_t], then a = softplus(z), a_x = s*z_x, a_t = s*z_t
    with s = sigmoid(z); A and s are kept for the reverse. The reverse is
    one sweep over all the node's rows: W_bar = A^T Z_bar, A_bar = Z_bar W^T
    with Z_bar = [s*a_bar + (1-s)*(a_bar_x*a_x + a_bar_t*a_t); s*a_bar_x;
    s*a_bar_t], the sigmoid term s(1-s)*(a_bar_x*z_x + a_bar_t*z_t) read off
    the next layer's A and present on the tangent family's value rows
    alone. It writes each layer's W_bar and b_bar into that layer's slice
    of one fresh flat gradient, so the leaf gets one adjoint.

    Precision: the node computes in the dtype of the leaf's value: its
    (W, b) views, every row buffer of the forward and the reverse, the
    points as they enter the first layer's rows and the incoming adjoint
    take that dtype. The output enters the tape as float64 (`Tape.node`
    casts it) and the flat gradient returns as float64. Training hands in
    a float32 copy of its float64 parameter buffer; on a float64 leaf the
    outputs are bitwise the tape-free forward's within one block.
    """
    theta = theta_var.value
    dtype = theta.dtype
    params = params_views(spec, theta)
    points = _stack_inputs(spec, x, t)
    m = points.shape[0]
    sizes = [m] if sizes is None else list(sizes)
    if sum(sizes) != m:
        raise ValueError(f"family sizes {sizes} do not add up to the {m} points")
    k = sizes[-1] if with_tangents else 0  # points with tangent rows, the last ones
    rows, width = m + 2 * k, spec.width
    use_softplus = spec.activation == "softplus"
    a = np.empty((rows, 2), dtype)
    _input_rows(spec, a, points)
    widest = max(sizes)
    tmp, mask = np.empty((widest, width), dtype), np.empty((widest, width), bool)
    zs = [np.empty((rows, n_out), dtype) for _, n_out in spec.layer_dims]
    sigmoids = [np.empty((m, width), dtype) for _ in params[:-1]]
    bounds = list(accumulate(sizes, initial=0))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        end = rows if hi == m else hi  # the last family's tangent rows follow it
        _layers(spec, params, a[lo:end], hi - lo, [z[lo:end] for z in zs],
                [s[lo:hi] for s in sigmoids], tmp[:hi - lo], mask[:hi - lo])
    inputs, y = [a] + zs[:-1], zs[-1]

    def backward(ybar):
        grad = np.empty_like(theta)
        grads = params_views(spec, grad)
        abar, zbar = np.empty((rows, width), dtype), np.empty((rows, width), dtype)
        g = ybar.astype(dtype, copy=False)
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
            np.multiply(abar[:m], s, out=zbar[:m])
            if k:
                sk, cross, scratch = s[m - k:], zbar[m:m + k], zbar[m + k:]
                np.multiply(abar[m:], inputs[li][m:], out=zbar[m:])
                cross += scratch
                np.subtract(1.0, sk, out=scratch)
                cross *= scratch
                zbar[m - k:m] += cross
                np.multiply(abar[m:].reshape(2, k, -1), sk,
                            out=zbar[m:].reshape(2, k, -1))
            g = zbar
        return (grad.astype(float, copy=False),)

    out = theta_var.tape.node((theta_var,), y, backward)
    outputs = [(out[lo:hi, 0], out[lo:hi, 1])
               for lo, hi in zip(bounds[:-1], bounds[1:])]
    if k:
        outputs[-1] += (out[m:m + k, 0], out[m + k:, 0], out[m:m + k, 1], out[m + k:, 1])
    return outputs


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
            raise ConfigError(f"{path}: unsupported checkpoint format {fmt!r}")
        try:
            meta = read_object(meta, "", {
                "format": text, "spec": NetSpec.from_dict, "label": optional(text),
            }, ("spec",))
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
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
