"""Fingerprint a checkout's training and gradient-check outputs.

Run it on two checkouts and diff the outputs: a refactor that keeps the
arithmetic must print the same lines on both.

    python3 tools/bitwise_gate.py [CHECKOUT]    # default: this checkout

It imports hydropinn from CHECKOUT/src with BLAS pinned to one thread and
generates the desk dataset (`configs/desk_scenario.json` on the export
grid, written and read back as CSV) at two MOC steps. At the CLI's default
0.5 s every t weight snaps to a node; at 0.05 s ten source steps fall in
each export step. For both it prints the sha256 of the sampled field and of
its CSV read-back. At 0.05 s it also prints the sha256 of the raw
`run_details` P and v, for the desk scenario and for the desk scenario with
its offtake drawing 0 -> 0.01 m^3/s over 100-160 s, which runs the kernel's
offtake-draw branch. It trains on the 0.5 s dataset and prints, per baseline:

* the sha256 of the trained (W, b) arrays and of the trace (every
  `TraceRow`, `StageSummary` and warning) for kih 300/260/300 and for
  pinn and dnn at 300 iterations, each from its shipped config;
* the sha256 of those (W, b) after a checkpoint round trip
  (`save_checkpoint` then `load_checkpoint`), which must equal the
  params line above it;
* the sha256 of `net_forward` and of `forward_with_input_tangents` for
  those trained params over the desk grid (51 x 1201 = 61,251 points, so
  the forwards' last block has 323 rows), the eval path;
* for dnn, the sha256 of one `data` iteration's batch terms and
  diagnostics and of its flat gradient at those trained params, on a
  float32 copy of them as the leaf, with the rows of stage 1's first
  draw: trained deep layers reach pre-activations below -87, where
  float32 exp(-|z|) would be subnormal, which the init-parameter lines
  below never reach;
* the adcheck `max_rel_error` and `worst_coordinate` of the shipped
  config (order 4, 50 coordinates, coordinate seed 7), the sha256 of the
  full taped gradient that check compares against and the sha256 of every
  loss value it probed, in probe order, captured by wrapping
  `hydropinn.adcheck.taped_coupled_gradient` and
  `hydropinn.adcheck.fast_coupled_loss`; the same three lines for kih with
  600 points per family, so that its 1,200 data points span three forward
  blocks, and for a tiny kih net (2 hidden layers of width 8, the shipped
  config otherwise) with every one of its 114 coordinates probed, so that
  each layer is the resume layer of some probe, the output layer and the
  first layer included, which a 50-coordinate draw often misses;
* the sha256 of the batch terms and diagnostics of one iteration of each
  stage kind (`bc`, `ic`, `data`, `coupled`) of kih, and of pinn's
  `coupled`, on the 0.5 s desk dataset at the seed-0 init parameters,
  with the rows of each family's first draw in stage 1, on a float64 and
  on a float32 leaf: `training._batch_terms`, the values in name order.
  These lines hold while the families share one network node or not;
* the sha256 of the gradient that training's float32 path gives on the
  shipped kih config's adcheck problem (32 points per family) at its
  init parameters: `training._batch_terms` over all its points on a
  float32 copy of the parameters as the leaf, summed by
  `training._weighted_sum` with the coupled objective, as `_run_stage`
  builds each iteration's gradient. The lines above check the same
  problem's float64 gradient.
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
# 114 parameters, all probed: every layer is a probe's resume layer
TINY_NET = {"hidden_layers": 2, "width": 8}


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
    from hydropinn.autodiff.tape import Tape
    from hydropinn.dataset import DatasetMeta, read_dataset, write_dataset
    from hydropinn.moc import export_grid, run_details, sample
    from hydropinn.network import (forward_with_input_tangents, init_params, load_checkpoint,
                                   net_forward, params_flatten, save_checkpoint)
    from hydropinn.scenario import Offtake, PiecewiseSignal, load_scenario
    from hydropinn.training import (TERM_FAMILY, TrainingData, _batch_terms, _make_spec,
                                    _objective, _schedule, _stage_rows, _weighted_sum,
                                    load_train_config, train)

    if not Path(hydropinn.__file__).resolve().is_relative_to(root):
        print(f"hydropinn imported from {hydropinn.__file__}, not {root}", file=sys.stderr)
        return 1

    scenario = load_scenario(root / "configs" / "desk_scenario.json")

    def params_bytes(params):
        return (np.ascontiguousarray(a).tobytes() for layer in params for a in layer)

    def field_bytes(field):
        return (np.ascontiguousarray(getattr(field, k)).tobytes() for k in ("xs", "ts", "P", "v"))

    def raw_bytes(field):
        return (np.ascontiguousarray(getattr(field, k)).tobytes() for k in ("P", "v"))

    drawing = replace(scenario, offtake=Offtake(
        position=scenario.offtake.position,
        flowrate=PiecewiseSignal.from_breakpoints([[0.0, 0.0], [100.0, 0.0], [160.0, 0.01]])))
    field = run_details(drawing, 0.05)[0]
    print(f"drawing-offtake moc_dt=0.05 raw P,v {_digest(raw_bytes(field))}")
    del field
    for moc_dt in (0.05, 0.5):  # last the CLI default, whose dataset the runs below train on
        field, grid, pipe = run_details(scenario, moc_dt)
        if moc_dt == 0.05:
            print(f"desk moc_dt=0.05 raw P,v {_digest(raw_bytes(field))}")
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
        if baseline == "dnn":
            # trained deep layers reach the pre-activations where float32
            # exp(-|z|) is subnormal, which the init lines below never do
            objective = _objective("data", cfg.weights)
            batchers, _ = _stage_rows(cfg, data, 1)
            rows = {f: batchers[f].next() for f in ("bc", "ic")}
            theta_var = Tape().leaf(params_flatten(params).astype(np.float32))
            terms, diagnostics = _batch_terms(spec, theta_var, data.colloc, data.coeffs,
                                              rows, _schedule(cfg)[-1][3])
            values = {**{n: float(v.value) for n, v in terms.items()}, **diagnostics}
            (grad,) = theta_var.tape.gradients(_weighted_sum(objective, terms), [theta_var])
            print(f"dnn trained data batch terms, float32 leaf "
                  f"{_digest(struct.pack('<d', values[n]) for n in sorted(values))}")
            print(f"dnn trained data float32-leaf gradient {_digest([grad.tobytes()])}")
    for baseline, kinds in (("kih", ("bc", "ic", "data", "coupled")), ("pinn", ("coupled",))):
        cfg = load_train_config(root / "configs" / f"{baseline}.json")
        spec = _make_spec(cfg, data.scaler)
        theta = params_flatten(init_params(
            spec, np.random.default_rng(np.random.SeedSequence((cfg.seed, 0)))))
        form = _schedule(cfg)[-1][3]
        for kind in kinds:
            objective = _objective(kind, cfg.weights)
            batchers, _ = _stage_rows(cfg, data, 1)
            rows = {f: batchers[f].next() for f in {TERM_FAMILY[n] for n in objective}}
            for dtype in (np.float64, np.float32):
                terms, diagnostics = _batch_terms(spec, Tape().leaf(theta.astype(dtype)),
                                                  data.colloc, data.coeffs, rows, form)
                values = {**{n: float(v.value) for n, v in terms.items()}, **diagnostics}
                print(f"{baseline} {kind} batch terms, {np.dtype(dtype).name} leaf "
                      f"{_digest(struct.pack('<d', values[n]) for n in sorted(values))} "
                      f"({', '.join(sorted(values))})")
    grads, float32_grads, losses = [], [], []
    taped_gradient = hydropinn.adcheck.taped_coupled_gradient
    probe_loss = hydropinn.adcheck.fast_coupled_loss

    def float32_leaf_gradient(p):
        theta_var = Tape().leaf(params_flatten(p.params).astype(np.float32))
        rows = dict.fromkeys({TERM_FAMILY[name] for name in p.objective}, slice(None))
        terms, _ = _batch_terms(p.spec, theta_var, p.colloc, p.coeffs, rows, p.form)
        return theta_var.tape.gradients(_weighted_sum(p.objective, terms), [theta_var])[0]

    def capture_gradient(problem):
        # before the probes, which perturb the problem's params in place
        float32_grads.append(float32_leaf_gradient(problem))
        grads.append(taped_gradient(problem))
        return grads[-1]

    def capture_loss(problem):
        losses.append(probe_loss(problem))
        return losses[-1]

    hydropinn.adcheck.taped_coupled_gradient = capture_gradient
    hydropinn.adcheck.fast_coupled_loss = capture_loss
    checks = [(b, b, {}, 32, 50) for b, _ in RUNS] + [
        ("kih 600 points", "kih", {}, 600, 50),
        ("kih tiny net, every coordinate", "kih", TINY_NET, 32, None)]
    for name, baseline, overrides, n_points, max_coordinates in checks:
        cfg = replace(load_train_config(root / "configs" / f"{baseline}.json"), **overrides)
        grads.clear()
        float32_grads.clear()
        losses.clear()
        report = adcheck_from_config(cfg, n_points=n_points, order=4,
                                     max_coordinates=max_coordinates, coord_seed=7)
        print(f"{name} adcheck {report.max_rel_error!r} at {report.worst_coordinate}")
        (grad,) = grads
        print(f"{name} adcheck gradient {_digest(params_bytes(grad))}")
        print(f"{name} adcheck probes {_digest(struct.pack('<d', v) for v in losses)} "
              f"({len(losses)} values)")
        if name == "kih":
            print(f"kih adcheck problem float32-leaf gradient "
                  f"{_digest([float32_grads[0].tobytes()])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
