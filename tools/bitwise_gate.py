"""Fingerprint a checkout's training and gradient-check outputs.

Run it on two checkouts and diff the outputs: a refactor that keeps the
arithmetic must print the same lines on both.

    python3 tools/bitwise_gate.py [CHECKOUT]    # default: this checkout

It imports hydropinn from CHECKOUT/src with BLAS pinned to one thread,
generates the desk dataset (`configs/desk_scenario.json` at the CLI's
default MOC step and export grid, written and read back as CSV), and
prints, per baseline:

* the sha256 of the trained (W, b) arrays and of the trace (every
  `TraceRow`, `StageSummary` and warning) for kih 300/260/300 and for
  pinn and dnn at 300 iterations, each from its shipped config;
* the sha256 of `net_forward` and of `forward_with_input_tangents` for
  those trained params over the desk grid (51 x 1201 = 61,251 points, so
  the forwards' last block has 323 rows), the eval path;
* the adcheck `max_rel_error` and `worst_coordinate` of the shipped
  config (order 4, 50 coordinates, coordinate seed 7), and the sha256 of
  the full taped gradient that check compares against, captured by
  wrapping `hydropinn.adcheck.taped_coupled_gradient`.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

RUNS = (("kih", {"stage_iterations": (300, 260, 300)}),
        ("pinn", {"iterations": 300}),
        ("dnn", {"iterations": 300}))


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _trace_bytes(trace):
    for r in trace.rows:
        yield struct.pack("<qq7d", r.stage, r.iteration, r.loss_bc, r.loss_ic,
                          r.loss_con, r.loss_mo, r.loss_total, r.bc_first,
                          r.bc_velocity)
    for s in trace.stage_summaries:
        yield struct.pack("<q2d", s.stage, s.objective_start, s.objective_end)
    for w in trace.warnings:
        yield w.encode() + b"\n"


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1]).resolve()
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    import hydropinn
    import hydropinn.adcheck
    from hydropinn.adcheck import adcheck_from_config
    from hydropinn.dataset import DatasetMeta, read_dataset, write_dataset
    from hydropinn.moc import export_grid, run_details, sample
    from hydropinn.network import forward_with_input_tangents, net_forward
    from hydropinn.scenario import load_scenario
    from hydropinn.training import TrainingData, load_train_config, train

    if not Path(hydropinn.__file__).resolve().is_relative_to(root):
        print(f"hydropinn imported from {hydropinn.__file__}, not {root}", file=sys.stderr)
        return 1

    scenario = load_scenario(root / "configs" / "desk_scenario.json")
    field, grid, pipe = run_details(scenario)
    meta = DatasetMeta(pipe=pipe, fluid=scenario.fluid, wave_speed=grid.wave_speed,
                       offtake_x=None if scenario.offtake is None
                       else scenario.offtake.position)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "desk.csv"
        write_dataset(sample(field, *export_grid(pipe.length, scenario.duration)), meta, path)
        field_grid, read_meta = read_dataset(path)
    data = TrainingData.from_dataset(field_grid, read_meta)
    xg, tg = np.meshgrid(field_grid.xs, field_grid.ts)

    for baseline, overrides in RUNS:
        cfg = load_train_config(root / "configs" / f"{baseline}.json")
        spec, params, trace = train(replace(cfg, **overrides), data)
        flat = (np.ascontiguousarray(a).tobytes() for layer in params for a in layer)
        print(f"{baseline} params {_digest(flat)}")
        print(f"{baseline} trace {_digest(_trace_bytes(trace))} "
              f"({len(trace.rows)} rows, {len(trace.warnings)} warnings)")
        for fn in (net_forward, forward_with_input_tangents):
            outputs = fn(spec, params, xg.ravel(), tg.ravel())
            print(f"{baseline} {fn.__name__} "
                  f"{_digest(np.ascontiguousarray(o).tobytes() for o in outputs)} "
                  f"({xg.size} points)")
    grads = []
    taped_gradient = hydropinn.adcheck.taped_coupled_gradient

    def capture(problem):
        grads.append(taped_gradient(problem))
        return grads[-1]

    hydropinn.adcheck.taped_coupled_gradient = capture
    for baseline, _ in RUNS:
        cfg = load_train_config(root / "configs" / f"{baseline}.json")
        grads.clear()
        report = adcheck_from_config(cfg, order=4, max_coordinates=50, coord_seed=7)
        print(f"{baseline} adcheck {report.max_rel_error!r} at {report.worst_coordinate}")
        (grad,) = grads
        print(f"{baseline} adcheck gradient "
              f"{_digest(np.ascontiguousarray(a).tobytes() for layer in grad for a in layer)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
