"""Fingerprint a checkout's training and gradient-check outputs.

Run it on two checkouts and diff the outputs: a refactor that keeps the
arithmetic must print the same lines on both.

    python3 tools/bitwise_gate.py [CHECKOUT]    # default: this checkout

It imports hydropinn from CHECKOUT/src with BLAS pinned to one thread and
generates the desk dataset (`configs/desk_scenario.json` on the export
grid, written and read back as CSV) at two MOC steps. At the CLI's default
0.5 s every t weight snaps to a node; at 0.05 s ten source steps fall in
each export step. For both it prints the sha256 of the sampled field and of
its CSV read-back. It trains on the 0.5 s dataset and prints, per baseline:

* the sha256 of the trained (W, b) arrays and of the trace (every
  `TraceRow`, `StageSummary` and warning) for kih 300/260/300 and for
  pinn and dnn at 300 iterations, each from its shipped config;
* the sha256 of those (W, b) after a checkpoint round trip
  (`save_checkpoint` then `load_checkpoint`), which must equal the
  params line above it;
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
    from hydropinn.network import (forward_with_input_tangents, load_checkpoint, net_forward,
                                   save_checkpoint)
    from hydropinn.scenario import load_scenario
    from hydropinn.training import TrainingData, load_train_config, train

    if not Path(hydropinn.__file__).resolve().is_relative_to(root):
        print(f"hydropinn imported from {hydropinn.__file__}, not {root}", file=sys.stderr)
        return 1

    scenario = load_scenario(root / "configs" / "desk_scenario.json")

    def params_bytes(params):
        return (np.ascontiguousarray(a).tobytes() for layer in params for a in layer)

    def field_bytes(field):
        return (np.ascontiguousarray(getattr(field, k)).tobytes() for k in ("xs", "ts", "P", "v"))

    for moc_dt in (0.05, 0.5):  # last the CLI default, whose dataset the runs below train on
        field, grid, pipe = run_details(scenario, moc_dt)
        sampled = sample(field, *export_grid(pipe.length, scenario.duration))
        del field
        meta = DatasetMeta(pipe=pipe, fluid=scenario.fluid, wave_speed=grid.wave_speed,
                           offtake_x=None if scenario.offtake is None
                           else scenario.offtake.position)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "desk.csv"
            write_dataset(sampled, meta, path)
            field_grid, read_meta = read_dataset(path)
        print(f"desk moc_dt={moc_dt} sampled {_digest(field_bytes(sampled))} "
              f"read-back {_digest(field_bytes(field_grid))}")
    data = TrainingData.from_dataset(field_grid, read_meta)
    xg, tg = np.meshgrid(field_grid.xs, field_grid.ts)

    for baseline, overrides in RUNS:
        cfg = load_train_config(root / "configs" / f"{baseline}.json")
        spec, params, trace = train(replace(cfg, **overrides), data)
        print(f"{baseline} params {_digest(params_bytes(params))}")
        with tempfile.TemporaryDirectory() as tmp:
            save_checkpoint(Path(tmp) / "model.npz", spec, params, label=baseline)
            _, loaded, _ = load_checkpoint(Path(tmp) / "model.npz")
        print(f"{baseline} checkpoint round trip {_digest(params_bytes(loaded))}")
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
        print(f"{baseline} adcheck gradient {_digest(params_bytes(grad))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
