"""Dataset files: field CSV plus a JSON metadata sidecar.

CSV schema (one row per grid point, t-major):

    x_m,t_s,pressure_mpa,velocity_mps

Floats are written with 17 significant digits so a write/read cycle is
bitwise exact. The sidecar ``<dataset>.meta.json`` records the pipe/fluid
specs, the frozen friction factor, and the effective wave speed of the
generating run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import number, optional, read_object, text
from .errors import ConfigError
from .hydraulics import FluidSpec, PipelineSpec
from .moc import COLUMN_TOLERANCE, FieldGrid
from .scenario import fluid_from_dict, fluid_to_dict, pipe_from_dict, pipe_to_dict

CSV_HEADER = "x_m,t_s,pressure_mpa,velocity_mps"
META_FORMAT = "hydropinn-dataset/1"


@dataclass(frozen=True)
class DatasetMeta:
    pipe: PipelineSpec
    fluid: FluidSpec
    wave_speed: float  # effective (grid) wave speed of the generating solver
    offtake_x: float | None = None

    def to_dict(self) -> dict:
        return {
            "format": META_FORMAT,
            "pipe": pipe_to_dict(self.pipe),
            "fluid": fluid_to_dict(self.fluid),
            "wave_speed_mps": self.wave_speed,
            "offtake_position_m": self.offtake_x,
        }

    @classmethod
    def from_dict(cls, d) -> "DatasetMeta":
        fmt = d.get("format") if isinstance(d, dict) else None
        if fmt != META_FORMAT:
            raise ConfigError(f"unsupported dataset metadata format: {fmt!r}")
        v = read_object(d, "", {
            "format": text, "pipe": pipe_from_dict, "fluid": fluid_from_dict,
            "wave_speed_mps": number, "offtake_position_m": optional(number),
        }, ("pipe", "fluid", "wave_speed_mps"))
        length, offtake_x = v["pipe"].length, v.get("offtake_position_m")
        if not v["wave_speed_mps"] > 0:
            raise ConfigError(f"wave_speed_mps must be positive, got {v['wave_speed_mps']!r}")
        if offtake_x is not None and not 0 < offtake_x < length:
            raise ConfigError(f"offtake_position_m must lie strictly inside the "
                              f"{length:g} m pipe, got {offtake_x!r}")
        return cls(pipe=v["pipe"], fluid=v["fluid"], wave_speed=v["wave_speed_mps"],
                   offtake_x=offtake_x)


def meta_path(dataset_path) -> Path:
    return Path(str(dataset_path) + ".meta.json")


def write_dataset(field: FieldGrid, meta: DatasetMeta, path) -> None:
    """Write the CSV one time row at a time, then the sidecar.

    One ``%`` template per time row is built once from the x strings; each
    row fills it with its t string and the P/v Python floats of that row's
    ``.tolist()``. ``%.17g`` formats as ``format(value, ".17g")`` does, so
    the file holds the same bytes as formatting every cell, without holding
    the whole file or whole-field lists in memory.
    """
    path = Path(path)
    nx = field.xs.size
    row = "".join(f"{x:.17g},%s,%.17g,%.17g\n" for x in field.xs.tolist())
    cells = [None] * (3 * nx)  # (t, P, v) per x, the template's order
    with path.open("w") as out:
        out.write(CSV_HEADER + "\n")
        for t, P_row, v_row in zip(field.ts.tolist(), field.P, field.v):
            cells[0::3] = [f"{t:.17g}"] * nx
            cells[1::3] = P_row.tolist()
            cells[2::3] = v_row.tolist()
            out.write(row % tuple(cells))
    meta_path(path).write_text(json.dumps(meta.to_dict(), indent=2) + "\n")


def _malformed_row(lines: list[str]) -> str:
    """The first data line (numbered from the header, line 1) that is not
    four comma-separated finite numbers, parsed as `read_dataset` parses it."""
    for number, line in enumerate(lines[1:], start=2):
        if not line:  # loadtxt skips empty lines, but not whitespace-only ones
            continue
        try:
            cells = np.loadtxt([line], delimiter=",", comments=None, ndmin=2)
            if cells.shape[1] == 4 and np.isfinite(cells).all():
                continue
        except ValueError:
            pass
        return f"line {number} ({line!r})"
    return "a data row"


def read_dataset(path) -> tuple[FieldGrid, DatasetMeta]:
    """Read a dataset CSV and its sidecar.

    The rows are parsed straight from the open file, so the transient memory
    is the parsed array, not the file's text; the lines are read again only
    to name a malformed row. After the rows and the sidecar, the grid is
    checked against the pipe: its first and last columns must sit on the
    pipe's ends, since they become the boundary family.
    """
    path = Path(path)
    with path.open() as csv:
        if csv.readline().strip() != CSV_HEADER:
            raise ConfigError(f"{path} is not a dataset CSV (expected header '{CSV_HEADER}')")
        start = csv.tell()
        # loadtxt warns on input without rows; find one non-blank line first
        if not any(line.strip() for line in iter(csv.readline, "")):
            raise ConfigError(f"{path} has no data rows")
        csv.seek(start)
        try:
            rows = np.loadtxt(csv, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            rows = None
    if rows is None or rows.shape[1] != 4 or not np.isfinite(rows).all():
        raise ConfigError(f"{path}: {_malformed_row(path.read_text().splitlines())} "
                          "is not four comma-separated finite numbers")
    xs = np.unique(rows[:, 0])
    nx = xs.size
    if nx < 2:
        raise ConfigError(f"{path} has one x position; a dataset needs at least 2")
    if rows.shape[0] % nx != 0:
        raise ConfigError(f"{path} is not a complete rectangular grid")
    nt = rows.shape[0] // nx
    # rows are t-major: every time block repeats the first block's positions
    x_blocks = rows[:, 0].reshape(nt, nx)
    t_blocks = rows[:, 1].reshape(nt, nx)
    xs = x_blocks[0]
    ts = t_blocks[:, 0]
    if not np.all(np.diff(xs) > 0):
        raise ConfigError(f"{path} rows are not x-sorted within time blocks")
    if not np.array_equal(x_blocks, np.broadcast_to(xs, x_blocks.shape)):
        raise ConfigError(f"{path} time blocks do not repeat the first block's x values")
    if not (np.array_equal(t_blocks, np.broadcast_to(ts[:, None], t_blocks.shape))
            and np.all(np.diff(ts) > 0)):
        raise ConfigError(f"{path} times are not constant within blocks and "
                          "strictly increasing across them")
    field = FieldGrid(
        xs=xs,
        ts=ts,
        P=rows[:, 2].reshape(nt, nx),
        v=rows[:, 3].reshape(nt, nx),
    )
    mpath = meta_path(path)
    try:
        raw = json.loads(mpath.read_text())
    except FileNotFoundError:
        raise FileNotFoundError(f"dataset metadata sidecar missing: {mpath}")
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise ConfigError(f"{mpath} is not valid JSON: {exc}") from exc
    try:
        meta = DatasetMeta.from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{mpath}: {exc}") from exc
    for column, x, end, name in (("first", xs[0], 0.0, "inlet"),
                                 ("last", xs[-1], meta.pipe.length, "outlet")):
        if abs(x - end) > COLUMN_TOLERANCE:
            raise ConfigError(f"{path}: {column} column x={x:g} m is not the pipe {name} "
                              f"x={end:g} m (within {COLUMN_TOLERANCE:g} m)")
    return field, meta
