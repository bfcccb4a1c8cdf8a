"""Error metrics, residual summaries, and the model-comparison report.

Metrics follow the standard definitions: RMSE = sqrt(mean (pred-truth)^2),
MAPE = 100 * mean |pred-truth| / |truth| over points with |truth| above a
small floor (skipped points are counted and reported), and
R^2 = 1 - SS_res/SS_tot (negative values are meaningful and preserved).
Flowrate metrics are reported in m^3/h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DatasetMeta
from .errors import ConfigError, DomainError, NumericalBlowupError
from .hydraulics import FluidSpec, PipelineSpec, head_to_pressure
from .moc import FieldGrid, interior_column_indices
from .network import NetSpec, net_forward

MAPE_FLOOR = 1e-9

REPORT_CSV_HEADER = "model,segment,quantity,rmse,mape_pct,r2"


def _check_pair(pred, truth, minimum: int):
    pred = np.asarray(pred, dtype=float).ravel()
    truth = np.asarray(truth, dtype=float).ravel()
    if pred.shape != truth.shape:
        raise DomainError(f"pred/truth length mismatch: {pred.size} vs {truth.size}")
    if pred.size < minimum:
        raise DomainError(f"need at least {minimum} points")
    return pred, truth


def rmse(pred, truth) -> float:
    pred, truth = _check_pair(pred, truth, 1)
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def mape_with_skips(pred, truth) -> tuple[float, int]:
    """MAPE in percent plus the count of near-zero truth points skipped."""
    pred, truth = _check_pair(pred, truth, 1)
    keep = np.abs(truth) > MAPE_FLOOR
    skipped = int(np.sum(~keep))
    if not np.any(keep):
        raise DomainError("all truth values are below the MAPE floor")
    value = 100.0 * float(np.mean(np.abs(pred[keep] - truth[keep])
                                  / np.abs(truth[keep])))
    return value, skipped


def mape(pred, truth) -> float:
    return mape_with_skips(pred, truth)[0]


def r2(pred, truth) -> float:
    pred, truth = _check_pair(pred, truth, 2)
    ss_tot = float(np.sum((truth - np.mean(truth)) ** 2))
    if ss_tot == 0.0:
        raise DomainError("R^2 undefined: truth has zero variance")
    ss_res = float(np.sum((pred - truth) ** 2))
    return 1.0 - ss_res / ss_tot


def predict_field(spec: NetSpec, params, xs, ts, fluid: FluidSpec,
                  pipe: PipelineSpec) -> FieldGrid:
    """Evaluate a checkpoint on a rectangular grid as a FieldGrid (P in MPa)."""
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    xg, tg = np.meshgrid(xs, ts)
    first, v = net_forward(spec, params, xg.ravel(), tg.ravel())
    if spec.output_mode == "head-velocity":
        P = np.asarray(head_to_pressure(first, fluid.density, pipe.gravity))
    else:
        P = first
    return FieldGrid(xs=xs, ts=ts, P=P.reshape(tg.shape), v=v.reshape(tg.shape))


def residual_series(pred: FieldGrid, truth: FieldGrid,
                    interior: np.ndarray | None = None):
    """Mean |pressure error| per time step and per location (interior columns)."""
    if pred.P.shape != truth.P.shape or not np.array_equal(pred.xs, truth.xs) \
            or not np.array_equal(pred.ts, truth.ts):
        raise DomainError("prediction and truth grids are not congruent")
    if interior is None:
        interior = np.arange(1, truth.xs.size - 1)
    err = np.abs(pred.P[:, interior] - truth.P[:, interior])
    return err.mean(axis=1), err.mean(axis=0)


@dataclass(frozen=True)
class MetricsRow:
    model: str
    segment: str
    quantity: str  # "pressure" | "flowrate"
    rmse: float
    mape_pct: float
    r2: float
    mape_skipped: int = 0


@dataclass
class MetricsReport:
    rows: list

    def to_csv(self) -> str:
        lines = [REPORT_CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.model},{r.segment},{r.quantity},"
                f"{r.rmse:.10g},{r.mape_pct:.10g},{r.r2:.10g}"
            )
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        header = ("model", "segment", "quantity", "RMSE", "MAPE %", "R2")
        body = [
            (r.model, r.segment, r.quantity,
             f"{r.rmse:.6g}", f"{r.mape_pct:.4g}", f"{r.r2:.6g}")
            for r in self.rows
        ]
        widths = [max(len(h), *(len(row[i]) for row in body)) if body else len(h)
                  for i, h in enumerate(header)]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        lines = [fmt.format(*header), fmt.format(*("-" * w for w in widths))]
        lines.extend(fmt.format(*row) for row in body)
        skipped = sum(r.mape_skipped for r in self.rows)
        if skipped:
            lines.append(f"(MAPE skipped {skipped} near-zero truth points)")
        return "\n".join(lines) + "\n"


def _segment_columns(xs, interior, length: float, breaks) -> list[tuple[str, np.ndarray]]:
    """(name, interior columns) per x-range of the pipe split at `breaks`.

    A column at x belongs to the segment with lo <= x < hi, so the segments
    partition the interior columns; segments without a column are dropped.
    """
    inner = sorted(float(b) for b in breaks or ())
    if not all(0.0 < b < length for b in inner) or len(set(inner)) < len(inner):
        raise ConfigError(f"segment breaks {list(breaks)} must be distinct and lie "
                          f"strictly inside (0, {length:g}) m")
    edges = [0.0] + inner + [length]
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        cols = interior[(xs[interior] >= lo) & (xs[interior] < hi)]
        if cols.size:
            out.append((f"{lo / 1000:g}-{hi / 1000:g}km" if inner else "all", cols))
    return out


def evaluate_model(label: str, spec: NetSpec, params, truth: FieldGrid,
                   meta: DatasetMeta, segment_breaks=None) -> list:
    """Interior-point metric rows for one checkpoint on one dataset.

    The forward and the metrics run with numpy's floating-point warnings
    off; a metric that comes out NaN or infinite instead (a prediction or
    truth too large to score) is a `NumericalBlowupError` naming the model,
    the segment and the quantity."""
    area = meta.pipe.area
    rows = []
    with np.errstate(all="ignore"):
        pred = predict_field(spec, params, truth.xs, truth.ts, meta.fluid, meta.pipe)
        interior = interior_column_indices(truth.xs, meta.pipe.length, meta.offtake_x)
        for name, cols in _segment_columns(truth.xs, interior, meta.pipe.length,
                                           segment_breaks):
            for quantity, p_arr, t_arr in (
                ("pressure", pred.P[:, cols], truth.P[:, cols]),
                ("flowrate", pred.v[:, cols] * area * 3600.0,
                 truth.v[:, cols] * area * 3600.0),
            ):
                m, skipped = mape_with_skips(p_arr, t_arr)
                row = MetricsRow(model=label, segment=name, quantity=quantity,
                                 rmse=rmse(p_arr, t_arr), mape_pct=m, r2=r2(p_arr, t_arr),
                                 mape_skipped=skipped)
                if not np.isfinite([row.rmse, row.mape_pct, row.r2]).all():
                    raise NumericalBlowupError(
                        f"model {label!r} scores non-finite {quantity} metrics on "
                        f"segment {name} (rmse={row.rmse:.4g}, mape_pct="
                        f"{row.mape_pct:.4g}, r2={row.r2:.4g})")
                rows.append(row)
    return rows


def compare(models, truth: FieldGrid, meta: DatasetMeta,
            segment_breaks=None) -> MetricsReport:
    """Table-style comparison: one row per model x segment x quantity.

    `models` is a list of (label, spec, params) triples.
    """
    rows = []
    for label, spec, params in models:
        rows.extend(evaluate_model(label, spec, params, truth, meta,
                                   segment_breaks))
    return MetricsReport(rows=rows)
