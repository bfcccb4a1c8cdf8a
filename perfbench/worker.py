"""One benchmark process. run.py starts it with BLAS pinned to one thread.

Modes:
  prepare  build the desk dataset and the seeded scenario variants; print
           the environment record
  setup    import and set up exactly as `measure` does, print when ready
           and exit; `measure` starts these as its set-up samples
  measure  set up, run the workload's operations for --seconds, check each
           output, print per-metric values (end-to-end, or per-layer with
           --trace 1)

Every process calls hydropinn through the public functions the CLI uses.
Each prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from hydropinn.adcheck import adcheck_from_config
import hydropinn.adcheck
from hydropinn.dataset import DatasetMeta, meta_path, read_dataset, write_dataset
from hydropinn.errors import NumericalBlowupError, TrainingDivergedError
from hydropinn.metrics import compare
from hydropinn.moc import export_grid, run_details, sample
from hydropinn.network import load_checkpoint, save_checkpoint
from hydropinn.scenario import load_scenario, save_scenario, scenario_from_dict
from hydropinn.training import TrainingData, load_train_config, train

from tracer import Tracer

OPS = ("generate", "kih", "dnn", "adcheck")  # checked operations
WORKLOADS = ("kih", "dnn")

# Operation sizes. A workload repeats its own training at "full" size for
# --seconds. It runs each other operation COMPANION_REPEATS times, at "small"
# size for trainings, at even shares of the run, so every run reports every
# end-to-end metric from samples spread over the whole run. The host's speed
# switches between phases lasting seconds, so a short operation is a point
# sample of the phase it falls in: adcheck is cut into many short calls, so
# that their average does not rest on a handful of phases.
KIH_STAGES = {"full": (220, 55, 275), "small": (80, 20, 100)}  # 8:2:10
DNN_ITERATIONS = {"full": 500, "small": 200}
ADCHECK_COORDS = 50
COMPANION_REPEATS = {"generate": 6, "kih": 6, "dnn": 6, "adcheck": 30, "setup": 7}
# train_s and eval_s average at least this many own trainings.
MIN_OWN_OPS = 4

MOC_DT = 0.05  # fine enough that the solver, not CSV I/O, leads generate_s
VARIANTS = 4
STAGE_KINDS = {"kih": {1: "bc", 2: "ic", 3: "coupled"}, "dnn": {1: "data"}}
ADCHECK_ORDER = 4
ADCHECK_H = 1e-4  # run_adcheck's default step
ADCHECK_TOLERANCE = 1e-5


# --- prepare ------------------------------------------------------------------

def scenario_variants(base: dict, seed: int, n: int) -> list[dict]:
    """Seeded variants of the desk drawdown: end flow, ramp start and length.

    The ramp keeps the desk case's eased shape, rescaled in time and depth.
    The offtake stays closed from t=0.
    """
    pts = np.asarray(base["outlet_flowrate_m3ps"], dtype=float)
    q0, q_end = pts[0, 1], pts[-1, 1]
    ramp = pts[1:-1]  # hold point, eased ramp points, end of ramp
    t0, t1 = ramp[0, 0], ramp[-1, 0]
    frac_t = (ramp[:, 0] - t0) / (t1 - t0)
    frac_q = (ramp[:, 1] - q0) / (q_end - q0)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        end = rng.uniform(0.030, 0.038)
        start = rng.uniform(50.0, 150.0)
        length = rng.uniform(120.0, 280.0)
        d = json.loads(json.dumps(base))
        d["outlet_flowrate_m3ps"] = (
            [[0.0, q0]]
            + [[start + f * length, q0 + g * (end - q0)] for f, g in zip(frac_t, frac_q)]
            + [[d["duration_s"], end]]
        )
        d["offtake"]["flowrate_m3ps"] = [[0.0, 0.0]]
        out.append(d)
    return out


def blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def prepare(root: Path, work: Path, seed: int) -> dict:
    """Desk dataset at the CLI's default steps, plus the seeded variants."""
    scenario = load_scenario(root / "configs" / "desk_scenario.json")
    field_, grid, pipe = run_details(scenario)
    xs, ts = export_grid(pipe.length, scenario.duration)
    meta = DatasetMeta(pipe=pipe, fluid=scenario.fluid, wave_speed=grid.wave_speed,
                       offtake_x=scenario.offtake.position)
    desk = work / "desk.csv"
    write_dataset(sample(field_, xs, ts), meta, desk)
    base = json.loads((root / "configs" / "desk_scenario.json").read_text())
    for i, d in enumerate(scenario_variants(base, seed, VARIANTS)):
        save_scenario(scenario_from_dict(d), work / f"variant_{i}.json")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "python": sys.version.split()[0],
        "desk_csv_sha256": sha256(desk),
        "desk_meta_sha256": sha256(meta_path(desk)),
    }


# --- setup --------------------------------------------------------------------

@dataclass
class Context:
    root: Path
    variants: list
    truth: object  # the desk dataset field, scored against
    meta: DatasetMeta
    data: TrainingData
    configs: dict
    work: Path
    tracer: Tracer
    captured: list = field(default_factory=list)


def setup(root: Path, work: Path, tracer: Tracer) -> Context:
    """Everything before the first timed call: scenario parse, dataset read,
    TrainingData build, configs."""
    variants = []
    for i in range(VARIANTS):
        with tracer.span("scenario.load"):
            variants.append(load_scenario(work / f"variant_{i}.json"))
    desk = work / "desk.csv"
    with tracer.span("dataset.read", rows=desk.stat().st_size + meta_path(desk).stat().st_size):
        field_, meta = read_dataset(desk)
    data = TrainingData.from_dataset(field_, meta)
    configs = {m: load_train_config(root / "configs" / f"{m}.json") for m in ("kih", "dnn")}
    return Context(root, variants, field_, meta, data, configs, work, tracer)


# --- operations ---------------------------------------------------------------

def bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def generate_op(ctx: Context, n: int) -> dict:
    """Scenario -> MOC at the fine step -> export grid -> dataset on disk."""
    scenario = ctx.variants[n % VARIANTS]
    out = ctx.work / "generated.csv"
    tr = ctx.tracer
    start = time.perf_counter()
    with tr.span("moc.run"):
        field_, grid, pipe = run_details(scenario, MOC_DT)
    xs, ts = export_grid(pipe.length, scenario.duration)
    with tr.span("moc.sample"):
        sampled = sample(field_, xs, ts)
    meta = DatasetMeta(pipe=pipe, fluid=scenario.fluid, wave_speed=grid.wave_speed,
                       offtake_x=scenario.offtake.position)
    with tr.span("dataset.write"):
        write_dataset(sampled, meta, out)
    seconds = time.perf_counter() - start

    nbytes = out.stat().st_size + meta_path(out).stat().st_size
    with tr.span("dataset.read", rows=nbytes):
        back, back_meta = read_dataset(out)
    ok = (back_meta == meta
          and all(bitwise_equal(getattr(back, k), getattr(sampled, k))
                  for k in ("xs", "ts", "P", "v"))
          and all(np.all(np.isfinite(getattr(sampled, k))) for k in ("P", "v")))
    out.unlink()
    meta_path(out).unlink()
    return {"seconds": seconds, "ok": bool(ok), "steps": field_.ts.size - 1,
            "nodes": field_.xs.size, "bytes": nbytes}


class StageClock:
    """The train log callback: one line per iteration, starting `stage N`."""

    def __init__(self, kinds: dict):
        self.kinds = kinds
        self.events: list[tuple[float, str]] = []
        self._last: dict[int, float] = {}
        self.samples: dict[str, list] = {k: [] for k in kinds.values()}

    def __call__(self, line: str) -> None:
        now = time.perf_counter()
        stage = int(line.split(" ", 2)[1])
        kind = self.kinds[stage]
        if stage in self._last:
            self.samples[kind].append(now - self._last[stage])
        self._last[stage] = now
        self.events.append((now, kind))


def train_op(ctx: Context, model: str, size: str) -> dict:
    """train -> save checkpoint -> reload check -> metrics.compare.

    Companion ("small") trainings stop after the reload check: no metric
    reads their scores.
    """
    cfg = ctx.configs[model]
    if model == "kih":
        cfg = replace(cfg, stage_iterations=KIH_STAGES[size])
    else:
        cfg = replace(cfg, iterations=DNN_ITERATIONS[size])
    clock = StageClock(STAGE_KINDS[model])
    first_span = len(ctx.tracer.names)
    start = time.perf_counter()
    try:
        spec, params, trace = train(cfg, ctx.data, log_every=1, log=clock)
    except (TrainingDivergedError, NumericalBlowupError) as exc:
        print(f"{model} training failed: {exc}", file=sys.stderr)
        return {"ok": False}
    train_s = time.perf_counter() - start
    train_spans = (first_span, len(ctx.tracer.names))

    finite = all(np.isfinite([r.loss_bc, r.loss_ic, r.loss_con, r.loss_mo, r.loss_total]).all()
                 for r in trace.rows)
    ckpt = ctx.work / f"{model}.npz"
    save_checkpoint(ckpt, spec, params, label=model)
    spec2, params2, label = load_checkpoint(ckpt)
    reloads = (spec2 == spec and label == model and len(params2) == len(params)
               and all(bitwise_equal(w, w2) and bitwise_equal(b, b2)
                       for (w, b), (w2, b2) in zip(params, params2)))
    ckpt.unlink()
    rec = {"ok": bool(finite and reloads), "train_s": train_s, "iter_s": clock.samples,
           "events": clock.events, "spans": train_spans}
    if size != "full":
        return rec

    start = time.perf_counter()
    with ctx.tracer.span("metrics.compare"):
        report = compare([(model, spec, params)], ctx.truth, ctx.meta)
    eval_s = time.perf_counter() - start
    rmse = {r.quantity: r.rmse for r in report.rows if r.segment == "all"}
    rec.update(eval_s=eval_s, pressure_rmse=rmse["pressure"], flowrate_rmse=rmse["flowrate"])
    return rec


def coordinate_errors(params, grad, values, coords: int, coord_seed: int):
    """Per-coordinate relative errors of one order-4 fd_check call.

    Rebuilds fd_check's coordinate subsample and error formula from the loss
    values it evaluated, four per coordinate in probe order.
    """
    all_coords = [(li, ai, k) for li, layer in enumerate(params)
                  for ai, arr in enumerate(layer) for k in range(arr.size)]
    pick = np.sort(np.random.default_rng(coord_seed).choice(
        len(all_coords), size=coords, replace=False))
    gmax = max(float(np.max(np.abs(arr))) for layer in grad for arr in layer)
    floor = 1e-6 * max(1.0, gmax)
    errors = []
    for n, i in enumerate(pick):
        li, ai, k = all_coords[i]
        fp1, fm1, fp2, fm2 = values[4 * n:4 * n + 4]
        fd = (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * ADCHECK_H)
        ad = float(grad[li][ai].reshape(-1)[k])
        errors.append(abs(ad - fd) / max(abs(ad), abs(fd), floor))
    return errors


def install_capture(ctx: Context) -> None:
    """Keep the gradient and every probed loss value of an adcheck call."""
    grad_fn = hydropinn.adcheck.taped_coupled_gradient
    loss_fn = hydropinn.adcheck.fast_coupled_loss

    def gradient(problem):
        grad = grad_fn(problem)
        ctx.captured.append(("grad", problem.params, grad))
        return grad

    def loss(problem):
        value = loss_fn(problem)
        ctx.captured.append(("loss", value))
        return value

    hydropinn.adcheck.taped_coupled_gradient = gradient
    hydropinn.adcheck.fast_coupled_loss = loss


def adcheck_op(ctx: Context, coord_seed: int) -> dict:
    """Taped gradient vs order-4 finite differences on a coordinate subsample."""
    coords = ADCHECK_COORDS
    ctx.captured.clear()
    start = time.perf_counter()
    report = adcheck_from_config(ctx.configs["kih"], order=ADCHECK_ORDER, h=ADCHECK_H,
                                 tolerance=ADCHECK_TOLERANCE, max_coordinates=coords,
                                 coord_seed=coord_seed)
    seconds = time.perf_counter() - start
    grads = [c for c in ctx.captured if c[0] == "grad"]
    values = [c[1] for c in ctx.captured if c[0] == "loss"]
    errors = []
    if len(grads) == 1 and len(values) == 4 * coords:
        errors = coordinate_errors(grads[0][1], grads[0][2], values, coords, coord_seed)
    if (report.n_coordinates != coords or len(errors) != coords
            or max(errors) != report.max_rel_error):
        print("adcheck: per-coordinate errors disagree with the fd_check report",
              file=sys.stderr)
        failed = coords
    else:
        failed = sum(e > ADCHECK_TOLERANCE for e in errors)
    return {"seconds": seconds, "coords": coords, "failed": int(failed),
            "loss_evals": len(values)}


# --- measure --------------------------------------------------------------------

def setup_op(ctx: Context) -> dict:
    """One set-up sample: a fresh `setup` process, from its start until ready.

    Taken between operations, so no operation runs meanwhile.
    """
    cmd = [sys.executable, __file__, "setup", "--root", str(ctx.root), "--work", str(ctx.work)]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
    ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready"]
    return {"seconds": ready - start, "ok": True}


def run_op(ctx: Context, op: str, size: str, n: int, seed: int) -> dict:
    """Run the n-th operation of kind `op` in this process."""
    if op == "setup":
        return setup_op(ctx)
    if op == "generate":
        return generate_op(ctx, n)
    if op == "adcheck":
        coord_seed = int(np.random.SeedSequence([seed, n]).generate_state(1)[0])
        return adcheck_op(ctx, coord_seed)
    return train_op(ctx, op, size)


def measure(ctx: Context, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload's own training until `seconds` are used, with each
    companion due at an even share of the run; returns {op: [(traced, record)]}.
    """
    records = {op: [] for op in COMPANION_REPEATS}
    start = time.perf_counter()
    deadline = start + seconds
    companions = sorted((start + (i + 0.5) * seconds / reps, op)
                        for op, reps in COMPANION_REPEATS.items() if op != workload
                        for i in range(reps))
    while True:
        now = time.perf_counter()
        own = [r["train_s"] for _, r in records[workload] if r["ok"]]
        own_fits = (len(records[workload]) < MIN_OWN_OPS
                    or (own and now + float(np.median(own)) <= deadline))
        if companions and (now >= companions[0][0] or not own_fits):
            op = companions.pop(0)[1]
        elif own_fits:
            op = workload
        else:
            break
        n = len(records[op])
        # traced run: the first operation of each kind stays untraced, as the
        # reference for the tracing overhead
        traced = trace and n > 0
        ctx.tracer.enabled = traced
        first = len(ctx.tracer.names)
        rec = run_op(ctx, op, "full" if op == workload else "small", n, seed)
        rec["span_range"] = (first, len(ctx.tracer.names))
        ctx.tracer.enabled = False
        records[op].append((traced, rec))
    return records


def iqm(values) -> float:
    """Interquartile mean: the mean of the middle half of the values."""
    x = np.sort(np.asarray(values, dtype=float))
    q = x.size // 4
    return float(x[q:x.size - q].mean())


def end_to_end_metrics(workload: str, records: dict) -> dict:
    """The run's end-to-end values: interquartile means over the run's
    operations, and per stage kind over all the run's iteration intervals.

    The host runs at a few speeds, in phases of seconds, and a short
    operation or training stage falls within one phase. A mean or a tail
    percentile moves with the few samples a run happened to take in a rare
    slow phase. A median jumps from one speed to the other when two are about
    equally common. The middle half's mean ignores the rare phases and moves
    in proportion between common ones.
    """
    trains = [r for _, r in records[workload] if r["ok"]]
    m = {
        "setup_s": float(np.median([r["seconds"] for _, r in records["setup"]])),
        "generate_s": iqm([r["seconds"] for _, r in records["generate"]]),
        "train_s": iqm([r["train_s"] for r in trains]),
        "eval_s": iqm([r["eval_s"] for r in trains]),
        "adcheck_s": iqm([r["seconds"] for _, r in records["adcheck"]]),
        "pressure_rmse_mpa": float(np.median([r["pressure_rmse"] for r in trains])),
        "flowrate_rmse_m3h": float(np.median([r["flowrate_rmse"] for r in trains])),
    }
    for model, kinds in STAGE_KINDS.items():
        done = [r for _, r in records[model] if r["ok"]]
        for kind in kinds.values():
            m[f"{kind}_iter_ms"] = iqm(np.concatenate([r["iter_s"][kind] for r in done])) * 1e3
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


# --- per-layer metrics from the traced operations --------------------------------

TAPED = ("losses.taped_data_loss", "losses.taped_physics_losses")
TAPE_FREE = ("network.net_forward", "losses.residuals")
COUNTED = ("network.taped_forward", "network.forward_with_input_tangents",
           "network.net_forward")
SELF_TIMED = COUNTED + TAPED + ("losses.residuals", "autodiff.tape.gradients",
                                "training.adam_step")


def training_layers(tr: Tracer, own: np.ndarray, rec: dict) -> tuple[dict, dict]:
    """Per-stage-kind layer values for one traced training operation.

    A span belongs to the stage of the next log line after it ends. A
    tape-free forward called by the trainer is trace-only when it falls
    between the iteration's first taped loss and its Adam step; otherwise it
    evaluates the stage objective on the fixed eval sets.
    """
    times = [t for t, _ in rec["events"]]
    kinds = [k for _, k in rec["events"]]
    lo, hi = rec["spans"]
    out = {}
    by_interval: dict[int, list[int]] = {}
    for i in range(lo, hi):
        j = bisect_left(times, tr.end[i])
        if j == len(times):
            continue
        kind = kinds[j]
        name = tr.names[i]
        for key, value in ((f"{name}.calls", 1), (f"{name}.rows", tr.rows[i] or 0),
                           (f"{name}.self_s", own[i]),
                           ("flops", tr.flops[i] or 0)):
            out[(key, kind)] = out.get((key, kind), 0) + value
        if name == "autodiff.tape.gradients":
            out[("nodes", kind)] = out.get(("nodes", kind), 0) + tr.rows[i]
        if tr.parent[i] < 0:
            by_interval.setdefault(j, []).append(i)
    for j, spans in by_interval.items():
        kind = kinds[j]
        taped = [tr.start[i] for i in spans if tr.names[i] in TAPED]
        adam = [tr.start[i] for i in spans if tr.names[i] == "training.adam_step"]
        for i in spans:
            if tr.names[i] not in TAPE_FREE:
                continue
            dur = tr.end[i] - tr.start[i]
            trace_only = taped and adam and taped[0] < tr.start[i] < adam[0]
            key = "training.trace_only_s" if trace_only else "training.eval_set_s"
            out[(key, kind)] = out.get((key, kind), 0.0) + dur
    iterations = {k: kinds.count(k) for k in set(kinds)}
    return out, iterations


def per_layer_metrics(workload: str, tr: Tracer, records: dict) -> dict:
    own = tr.self_times()
    m = {}

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    # generate, and the set-up reads and scenario loads
    gens = [r for traced, r in records["generate"] if traced]
    spans = {}
    for i, name in enumerate(tr.names):
        spans.setdefault(name, []).append(i)

    def dur(i):
        return tr.end[i] - tr.start[i]

    m["scenario.load_s"] = mean([dur(i) for i in spans.get("scenario.load", [])])
    runs = spans.get("moc.run", [])
    m["moc.run_s"] = mean([dur(i) for i in runs])
    m["moc.steps"] = gens[0]["steps"] if gens else 0
    m["moc.node_updates_per_s"] = (sum(r["steps"] * r["nodes"] for r in gens)
                                   / sum(dur(i) for i in runs)) if runs else 0.0
    m["moc.sample_s"] = mean([dur(i) for i in spans.get("moc.sample", [])])
    m["dataset.write_s"] = mean([dur(i) for i in spans.get("dataset.write", [])])
    m["dataset.bytes"] = gens[0]["bytes"] if gens else 0
    reads = spans.get("dataset.read", [])
    m["dataset.read_s"] = mean([dur(i) for i in reads])
    m["dataset.read_mb_per_s"] = (sum(tr.rows[i] for i in reads) / 1e6
                                  / sum(dur(i) for i in reads)) if reads else 0.0

    # training, per stage kind; counts and times per training operation
    for model, kinds in STAGE_KINDS.items():
        ops = [r for traced, r in records[model] if traced and r["ok"]]
        per_op = [training_layers(tr, own, r) for r in ops]
        for kind in kinds.values():
            def total(key):
                return mean([vals.get((key, kind), 0) for vals, _ in per_op])
            iters = mean([it.get(kind, 0) for _, it in per_op])
            for name in COUNTED:
                m[f"{name}.calls.{kind}"] = total(f"{name}.calls")
                m[f"{name}.rows.{kind}"] = total(f"{name}.rows")
            for name in SELF_TIMED:
                m[f"{name}.self_s.{kind}"] = total(f"{name}.self_s")
            m[f"autodiff.tape.gradients.calls.{kind}"] = total("autodiff.tape.gradients.calls")
            m[f"training.adam_step.calls.{kind}"] = total("training.adam_step.calls")
            m[f"autodiff.tape.nodes_per_iter.{kind}"] = total("nodes") / iters if iters else 0.0
            m[f"network.matmul_flops_per_iter.{kind}"] = total("flops") / iters if iters else 0.0
            m[f"training.trace_only_s.{kind}"] = total("training.trace_only_s")
            m[f"training.eval_set_s.{kind}"] = total("training.eval_set_s")

    # evaluation and the gradient check: spans inside each traced operation
    def inside(op, names):
        vals = {n: [] for n in names}
        for traced, r in records[op]:
            if not traced:
                continue
            lo, hi = r["span_range"]
            for n in names:
                vals[n].append([i for i in range(lo, hi) if tr.names[i] == n])
        return vals

    ev = inside(workload, ("metrics.compare", "network.net_forward"))
    compares = [i for op_spans in ev["metrics.compare"] for i in op_spans]
    eval_fwd = [i for i in (i for op_spans in ev["network.net_forward"] for i in op_spans)
                if tr.parent[i] >= 0 and tr.names[tr.parent[i]] == "metrics.compare"]
    m["metrics.compare.self_s"] = mean([own[i] for i in compares])
    m["metrics.rows"] = (sum(tr.rows[i] for i in eval_fwd) / len(compares)) if compares else 0
    m["network.net_forward.self_s.eval"] = (float(sum(own[i] for i in eval_fwd)) / len(compares)
                                            if compares else 0.0)

    names = ("adcheck.taped_gradient", "autodiff.fdcheck", "adcheck.fast_coupled_loss",
             "network.net_forward", "network.forward_with_input_tangents", "losses.residuals")
    ad = inside("adcheck", names)
    n_ops = len(ad["autodiff.fdcheck"])

    def per_op(name, value):
        return float(sum(value(i) for op_spans in ad[name] for i in op_spans)) / n_ops \
            if n_ops else 0.0

    m["adcheck.taped_gradient_s"] = per_op("adcheck.taped_gradient", dur)
    m["autodiff.fdcheck.self_s"] = per_op("autodiff.fdcheck", lambda i: own[i])
    m["autodiff.fdcheck.loss_evals"] = per_op("adcheck.fast_coupled_loss", lambda i: 1)
    for name in ("network.net_forward", "network.forward_with_input_tangents"):
        m[f"{name}.calls.adcheck"] = per_op(name, lambda i: 1)
        m[f"{name}.rows.adcheck"] = per_op(name, lambda i: tr.rows[i])
        m[f"{name}.self_s.adcheck"] = per_op(name, lambda i: own[i])
    m["losses.residuals.self_s.adcheck"] = per_op("losses.residuals", lambda i: own[i])

    # traced minus untraced duration of the same operation
    for op, key, name in ((workload, "train_s", "trace.overhead_train_s"),
                          ("generate", "seconds", "trace.overhead_generate_s")):
        timed = [(t, r[key]) for t, r in records[op] if r.get("ok")]
        traced_s = [s for t, s in timed if t]
        plain_s = [s for t, s in timed if not t]
        m[name] = (float(np.median(traced_s) - np.median(plain_s))
                   if traced_s and plain_s else 0.0)
    return m


# --- entry point --------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("prepare", "setup", "measure"))
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", choices=WORKLOADS, default="kih")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", type=Path, default=None)
    args = ap.parse_args(argv)

    if args.mode == "prepare":
        print(json.dumps(prepare(args.root, args.work, args.seed)))
        return 0

    tracer = Tracer()
    if args.trace:
        tracer.install()
        tracer.enabled = True
    ctx = setup(args.root, args.work, tracer)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    tracer.enabled = False
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    install_capture(ctx)
    records = measure(ctx, args.workload, args.seed, args.seconds, bool(args.trace))

    attempted = failed = 0
    for op in OPS:
        for _, r in records[op]:
            n = r["coords"] if op == "adcheck" else 1
            bad = r["failed"] if op == "adcheck" else int(not r["ok"])
            attempted += n
            failed += bad
    counts = {op: len(recs) for op, recs in records.items()}
    result = {"attempted": attempted, "failed": failed,
              "operations": counts, "problems": []}
    if args.trace:
        result["metrics"] = per_layer_metrics(args.workload, tracer, records)
        missing = tracer.missing_sites()
        if missing:
            result["problems"].append(f"wrapped call sites never reached: {missing}")
        if args.spans_out is not None:
            tracer.write(args.spans_out)
    else:
        result["metrics"] = end_to_end_metrics(args.workload, records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
