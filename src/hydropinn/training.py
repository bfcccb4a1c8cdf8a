"""Adam optimization and the staged training schedule.

Every baseline is a schedule of stages, `(stage_id, kind, iterations,
form)`, run by one stage loop. A stage kind names an ordered
`{term: weight}` objective over the loss terms bc, ic, con and mo. `kih`
runs three stages: `bc` fits the boundary data from a random
initialization, `ic` the initial-condition data, and `coupled` the full
weighted coupled loss, each starting from the previous stage's parameters.
`pinn` runs one `coupled` stage with head-channel outputs, the unconverted
residual operators and the printed (`paper`) data loss; `dnn` runs one
`data` stage (boundary plus initial data). Every other stage fits the
per-variable `split` data loss; the schedule alone fixes each stage's form.

Parameters live in one contiguous float64 buffer for the whole run.
Tape-free forwards and the returned `params` are per-layer (W, b) views
into it. Each iteration records on a fresh tape whose only leaf is a
`TAPED_FORWARD_DTYPE` (float32) copy of that buffer, and on it one
network node over every family the objective reads (`losses.taped_outputs`),
which runs its forward and its one reverse sweep in float32; the sweep
returns one float64 flat gradient that Adam applies to the buffer as one
vector, and the tape is dropped once the gradient is taken. This is mixed precision
with a float64 master copy (Micikevicius et al., ICLR 2018): the loss
arithmetic after the network, Adam, the eval-set objective that picks
the kept parameters and every tape-free forward stay float64.

Each stage returns the best parameters seen on its own objective,
evaluated on fixed eval sets at stage start, every `EVAL_EVERY` iterations
and at stage end, so a stage can never hand off parameters worse than the
ones it received.

An iteration computes only the terms of its stage objective, on the
current batch. The trace's other loss columns hold the latest values of
those terms on the fixed eval sets, refreshed at stage start and every
`EVAL_EVERY` iterations; the stage-end evaluation computes only the
objective. The taped `_batch_terms` and the tape-free `_eval_terms` take
the same `{family: rows}` map ('bc', 'ic', and 'f' for con and mo).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import count, list_of, nested, number, optional, read_object, text
from .errors import ConfigError, DomainError, NumericalBlowupError, TrainingDivergedError
from .losses import (
    CollocationSet,
    LossWeights,
    PhysicsCoefficients,
    data_misfit,
    data_misfit_terms,
    residuals,
    taped_data_loss,
    taped_outputs,
    taped_physics_losses,
    _mean_sq,
    _observed_first_channel,
)
from .network import (
    InputScaler,
    NetSpec,
    check_net_size,
    init_params,
    net_forward,
    params_flatten,
    params_views,
)
from .autodiff.tape import Tape

BASELINES = ("kih", "pinn", "dnn")
EVAL_EVERY = 250
EVAL_COLLOCATION_POINTS = 2048
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LEARNING_RATE = 1e-4  # Adam's step size in every stage
BATCH_SIZE = 128  # rows drawn per family and iteration (a smaller family is used whole)
DIVERGENCE_THRESHOLD = 1e6  # a batch objective above this stops the run
BC_RETENTION_FACTOR = 10.0  # an `ic` stage growing the boundary loss more warns
TAPED_FORWARD_DTYPE = np.float32  # the dtype of each iteration's parameter leaf

TRACE_CSV_HEADER = ("stage,iter,loss_bc,loss_ic,loss_con,loss_mo,loss_total,"
                    "bc_first,bc_velocity")


@dataclass(frozen=True)
class TrainConfig:
    baseline: str = "kih"
    hidden_layers: int = 10
    width: int = 50
    stage_iterations: tuple[int, int, int] = (2000, 2000, 16000)
    iterations: int | None = None  # single-stage baselines; defaults to the stage sum
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        if self.baseline not in BASELINES:
            raise ConfigError(f"unknown baseline {self.baseline!r}; expected {BASELINES}")
        for key, n in (("network.hidden_layers", self.hidden_layers),
                       ("network.width", self.width)):
            if n < 1:
                raise ConfigError(f"{key} must be at least 1, got {n!r}")
        check_net_size(self.hidden_layers, self.width, "network.")
        if len(self.stage_iterations) != 3 or any(n < 0 for n in self.stage_iterations):
            raise ConfigError("stage_iterations must be three non-negative counts")
        if self.iterations is not None and self.iterations < 0:
            raise ConfigError("iterations must be non-negative")
        if self.iterations is not None and self.baseline == "kih":
            raise ConfigError("iterations does not apply to kih, which runs "
                              "stage_iterations; remove it")

    @property
    def total_iterations(self) -> int:
        if self.iterations is not None:
            return self.iterations
        return sum(self.stage_iterations)

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline,
            "network": {
                "hidden_layers": self.hidden_layers,
                "width": self.width,
            },
            "stage_iterations": list(self.stage_iterations),
            "iterations": self.iterations,
            "seed": self.seed,
            "weights": {"con": self.weights.con, "mo": self.weights.mo},
        }

    @classmethod
    def from_dict(cls, d) -> "TrainConfig":
        """Config from its JSON object; absent keys keep their defaults."""
        kwargs = read_object(d, "", {
            "baseline": text, "stage_iterations": list_of(count),
            "iterations": optional(count), "seed": count,
            "network": nested({"hidden_layers": count, "width": count}),
            "weights": nested({"con": number, "mo": number}),
        })
        kwargs.update(kwargs.pop("network", {}))
        if "weights" in kwargs:
            try:
                kwargs["weights"] = LossWeights(**kwargs["weights"])
            except DomainError as exc:
                raise ConfigError(f"weights: {exc}") from exc
        if "stage_iterations" in kwargs:
            kwargs["stage_iterations"] = tuple(kwargs["stage_iterations"])
        return cls(**kwargs)


def load_train_config(path) -> TrainConfig:
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise ConfigError(f"train config {path} is not valid JSON: {exc}") from exc
    return TrainConfig.from_dict(data)


def output_mode_for(baseline: str) -> str:
    return "pressure-velocity" if baseline == "kih" else "head-velocity"


@dataclass
class TrainingData:
    """Everything a training run reads: point families plus physics constants."""

    colloc: CollocationSet
    coeffs: PhysicsCoefficients
    scaler: InputScaler

    @classmethod
    def from_dataset(cls, field_grid, meta) -> "TrainingData":
        from .losses import collocation_from_field

        colloc = collocation_from_field(field_grid, meta.pipe.length, meta.offtake_x)
        coeffs = PhysicsCoefficients.from_specs(meta.fluid, meta.pipe, meta.wave_speed)
        scaler = InputScaler(
            x_min=float(field_grid.xs[0]), x_max=float(field_grid.xs[-1]),
            t_min=float(field_grid.ts[0]),
            t_max=float(field_grid.ts[-1]) if field_grid.ts[-1] > field_grid.ts[0]
            else float(field_grid.ts[0]) + 1.0,
        )
        return cls(colloc=colloc, coeffs=coeffs, scaler=scaler)


@dataclass
class TraceRow:
    stage: int
    iteration: int
    loss_bc: float
    loss_ic: float
    loss_con: float
    loss_mo: float
    loss_total: float
    bc_first: float  # per-channel BC diagnostics (pressure or head channel)
    bc_velocity: float


@dataclass
class StageSummary:
    """One stage as it ran. `objective_end` is the best objective seen, that
    of the parameters the stage handed on; `best_iteration` is the trace
    iteration whose update gave them, None when the start parameters stayed
    best. `seconds` is the stage's wall time."""

    stage: int
    objective_start: float
    objective_end: float
    kind: str
    form: str
    iterations: int
    best_iteration: int | None
    seconds: float


@dataclass
class TrainTrace:
    rows: list = field(default_factory=list)
    stage_summaries: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def write_csv(self, path) -> None:
        lines = [TRACE_CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.stage},{r.iteration},{r.loss_bc:.10e},{r.loss_ic:.10e},"
                f"{r.loss_con:.10e},{r.loss_mo:.10e},{r.loss_total:.10e},"
                f"{r.bc_first:.10e},{r.bc_velocity:.10e}"
            )
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n))


def adam_step(theta, grad, state: AdamState, lr: float):
    """Standard Adam update with bias correction, at the fixed `ADAM_BETA1`,
    `ADAM_BETA2` and `ADAM_EPS`, on flat parameter and gradient vectors;
    mutates theta and state."""
    if not np.all(np.isfinite(grad)):
        raise NumericalBlowupError("non-finite gradient in Adam step")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    theta -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return theta, state


class _FamilyBatcher:
    """Uniform sampling without replacement per epoch; full family if small."""

    def __init__(self, n: int, batch: int, rng: np.random.Generator):
        self.n = n
        self.batch = min(batch, n)
        self.rng = rng
        self._perm = None
        self._pos = 0

    def next(self) -> np.ndarray:
        if self.batch == self.n:
            return np.arange(self.n)
        if self._perm is None or self._pos >= self.n:
            self._perm = self.rng.permutation(self.n)
            self._pos = 0
        idx = self._perm[self._pos:self._pos + self.batch]
        self._pos += self.batch
        return idx


def _stage_rows(cfg: TrainConfig, data: TrainingData, stage_id: int):
    """(batchers, eval_rows) of one stage, seeded per stage: a batcher per
    family ('bc', 'ic', 'f'), and the rows of the fixed eval sets (the full
    boundary and initial sets, a sorted collocation subset)."""
    seq = np.random.SeedSequence((cfg.seed, stage_id))
    s_bc, s_ic, s_f, s_eval = [np.random.default_rng(s) for s in seq.spawn(4)]
    c = data.colloc
    n_eval = min(EVAL_COLLOCATION_POINTS, c.n_f)
    batchers = {"bc": _FamilyBatcher(c.n_bc, BATCH_SIZE, s_bc),
                "ic": _FamilyBatcher(c.n_ic, BATCH_SIZE, s_ic),
                "f": _FamilyBatcher(c.n_f, BATCH_SIZE, s_f)}
    eval_rows = {"bc": slice(None), "ic": slice(None),
                 "f": np.sort(s_eval.choice(c.n_f, size=n_eval, replace=False))}
    return batchers, eval_rows


TERM_FAMILY = {"bc": "bc", "ic": "ic", "con": "f", "mo": "f"}  # point family each term reads


def _objective(kind: str, w: LossWeights) -> dict:
    """Ordered {term: weight} that a stage kind minimizes; the data terms
    bc and ic always weigh 1."""
    objectives = {
        "bc": {"bc": 1.0},
        "ic": {"ic": 1.0},
        "data": {"bc": 1.0, "ic": 1.0},
        "coupled": {"bc": 1.0, "ic": 1.0, "con": w.con, "mo": w.mo},
    }
    if kind not in objectives:
        raise ConfigError(f"unknown stage kind {kind!r}")
    return objectives[kind]


def _weighted_sum(objective: dict, terms: dict):
    """Sum of weight * term in objective order. A lone term is taken as is,
    recording no scale node on the tape."""
    if len(objective) == 1:
        (name,) = objective
        return terms[name]
    total = None
    for name, weight in objective.items():
        part = weight * terms[name]
        total = part if total is None else total + part
    return total


def _family(colloc: CollocationSet, family: str, idx=slice(None)):
    """Rows `idx` of a family's arrays: (x, t, P_obs, v_obs) of 'bc' or 'ic',
    (x, t) of 'f'."""
    names = ("x", "t") if family == "f" else ("x", "t", "P", "v")
    return tuple(getattr(colloc, f"{name}_{family}")[idx] for name in names)


def _batch_terms(spec, theta_var, colloc: CollocationSet, coeffs: PhysicsCoefficients,
                 rows: dict, form):
    """Taped terms of each family in `rows` (family -> its rows to use; 'f'
    gives con and mo), plus the per-channel boundary diagnostics with 'bc',
    all from one taped network node over every family in `rows`."""
    batch = {family: _family(colloc, family, idx) for family, idx in rows.items()}
    outputs = taped_outputs(spec, theta_var, {f: arrays[:2] for f, arrays in batch.items()})
    terms, diagnostics = {}, {}
    for family in ("bc", "ic"):
        if family in batch:
            _, _, P, v = batch[family]
            terms[family], (d1, d2) = taped_data_loss(spec, outputs[family], P, v,
                                                      coeffs, form)
            if family == "bc":
                diagnostics = {"bc_first": float(d1), "bc_velocity": float(d2)}
    if "f" in batch:
        terms["con"], terms["mo"] = taped_physics_losses(spec, outputs["f"], coeffs)
    return terms, diagnostics


def _eval_terms(spec, params, colloc: CollocationSet, coeffs: PhysicsCoefficients,
                rows: dict, form) -> dict:
    """Tape-free `_batch_terms`: the float terms of each family in `rows`,
    with the per-channel boundary diagnostics in the same dict."""
    terms = {}
    for family in ("bc", "ic"):
        if family in rows:
            x, t, P, v_obs = _family(colloc, family, rows[family])
            y1, v = net_forward(spec, params, x, t)
            obs = _observed_first_channel(P, spec, coeffs)
            terms[family] = float(data_misfit(y1, v, obs, v_obs, form))
            if family == "bc":
                terms["bc_first"], terms["bc_velocity"] = data_misfit_terms(y1, v, obs, v_obs)
    if "f" in rows:
        g_mo, g_con = residuals(spec, params, coeffs, *_family(colloc, "f", rows["f"]))
        terms["con"], terms["mo"] = float(_mean_sq(g_con)), float(_mean_sq(g_mo))
    return terms


def _warn_non_finite(trace: TrainTrace, stage_id: int, it: int, held: dict) -> bool:
    """Add a trace warning naming the non-finite eval-set terms in `held`, if
    any; returns whether it did."""
    bad = [name for name, value in held.items() if not np.isfinite(value)]
    if bad:
        trace.warnings.append(
            f"stage {stage_id} iteration {it}: eval-set "
            f"{', '.join(f'{name}={held[name]:.4g}' for name in bad)} not finite")
    return bool(bad)


def _run_stage(stage_id: int, kind: str, iterations: int, cfg: TrainConfig,
               spec: NetSpec, theta: np.ndarray, data: TrainingData,
               trace: TrainTrace, start_iteration: int, form: str,
               log_every: int = 0, log=print):
    """Optimize one stage objective over the flat parameter buffer `theta`.

    Updates `theta` in place and returns (best, next_iteration), `best`
    being a flat copy of the best parameters seen on the objective.

    kind: 'bc' | 'ic' | 'data' | 'coupled' (see `_objective`). Each
    iteration draws, forwards and differentiates only the families its
    objective names. Trace columns outside the objective (and `bc_first`/
    `bc_velocity` in the `ic` stage) hold the latest values measured on the
    stage's fixed eval sets, refreshed at stage start and every
    `EVAL_EVERY` iterations. The stage-end evaluation computes only the
    objective. An `ic` stage warns when it grew the boundary loss by more
    than `BC_RETENTION_FACTOR`, and once when an eval-set term it holds is
    not finite. A batch objective that is not finite or
    exceeds `DIVERGENCE_THRESHOLD` raises `TrainingDivergedError`. That
    check comes first, so a non-finite gradient's `NumericalBlowupError`
    names the stage, the iteration and the (finite) batch objective.
    """
    started = time.perf_counter()
    batchers, eval_rows = _stage_rows(cfg, data, stage_id)
    objective = _objective(kind, cfg.weights)
    families = {TERM_FAMILY[name] for name in objective}
    params = params_views(spec, theta)
    c, coeffs = data.colloc, data.coeffs

    held = _eval_terms(spec, params, c, coeffs, eval_rows, form)
    warned = _warn_non_finite(trace, stage_id, start_iteration, held)
    bc_before = held["bc"]
    start_obj = best_obj = _weighted_sum(objective, held)
    best, best_it = theta.copy(), None
    adam = AdamState.zeros(theta.size)

    for k in range(iterations):
        it = start_iteration + k
        theta_var = Tape().leaf(theta.astype(TAPED_FORWARD_DTYPE))
        rows = {f: b.next() for f, b in batchers.items() if f in families}
        terms, diagnostics = _batch_terms(spec, theta_var, c, coeffs, rows, form)
        loss_var = _weighted_sum(objective, terms)
        row = {**held, **{name: float(var.value) for name, var in terms.items()},
               **diagnostics}

        total = float(loss_var.value)
        if not np.isfinite(total) or total > DIVERGENCE_THRESHOLD:
            raise TrainingDivergedError(
                f"stage {stage_id} diverged at iteration {it}: loss={total:.4g} "
                f"(bc={row['bc']:.4g}, ic={row['ic']:.4g}, con={row['con']:.4g}, "
                f"mo={row['mo']:.4g})")

        (grad,) = theta_var.tape.gradients(loss_var, [theta_var])
        # free this iteration's tape before the next one records its forwards
        del theta_var, terms, loss_var
        try:
            adam_step(theta, grad, adam, LEARNING_RATE)
        except NumericalBlowupError as exc:
            raise NumericalBlowupError(
                f"stage {stage_id} iteration {it}: {exc}; batch objective {total:.4g}"
            ) from exc

        trace.rows.append(TraceRow(
            stage=stage_id, iteration=it,
            loss_bc=row["bc"], loss_ic=row["ic"], loss_con=row["con"], loss_mo=row["mo"],
            loss_total=total, bc_first=row["bc_first"], bc_velocity=row["bc_velocity"],
        ))

        last = k + 1 == iterations
        if last or (k + 1) % EVAL_EVERY == 0:
            sets = {f: eval_rows[f] for f in families} if last else eval_rows
            held.update(_eval_terms(spec, params, c, coeffs, sets, form))
            warned = warned or _warn_non_finite(trace, stage_id, it, held)
            obj = _weighted_sum(objective, held)
            if obj < best_obj:
                best_obj, best_it = obj, it
                best[:] = theta
        if log_every and (k + 1) % log_every == 0:
            log(f"stage {stage_id} iter {k + 1}/{iterations} "
                f"total={total:.4e} bc={row['bc']:.4e} ic={row['ic']:.4e} "
                f"con={row['con']:.4e} mo={row['mo']:.4e}")

    if kind == "ic":
        bc_after = _eval_terms(spec, params_views(spec, best), c, coeffs,
                               {"bc": eval_rows["bc"]}, form)["bc"]
        if bc_after > BC_RETENTION_FACTOR * max(bc_before, 1e-300):
            trace.warnings.append(
                f"stage {stage_id} grew the boundary loss "
                f"{bc_after / max(bc_before, 1e-300):.1f}x "
                f"(from {bc_before:.3e} to {bc_after:.3e})"
            )
    trace.stage_summaries.append(StageSummary(
        stage=stage_id, objective_start=start_obj, objective_end=best_obj, kind=kind,
        form=form, iterations=iterations, best_iteration=best_it,
        seconds=time.perf_counter() - started))
    return best, start_iteration + iterations


def _make_spec(cfg: TrainConfig, scaler: InputScaler) -> NetSpec:
    return NetSpec(
        hidden_layers=cfg.hidden_layers,
        width=cfg.width,
        scaler=scaler,
        output_mode=output_mode_for(cfg.baseline),
    )


def _schedule(cfg: TrainConfig) -> list:
    """(stage_id, kind, iterations, form) of each stage the baseline runs."""
    if cfg.baseline == "kih":
        n_bc, n_ic, n_coupled = cfg.stage_iterations
        return [(1, "bc", n_bc, "split"), (2, "ic", n_ic, "split"),
                (3, "coupled", n_coupled, "split")]
    if cfg.baseline == "pinn":
        return [(1, "coupled", cfg.total_iterations, "paper")]
    return [(1, "data", cfg.total_iterations, "split")]


def train(cfg: TrainConfig, data: TrainingData, log_every: int = 0, log=print):
    """Run the baseline's stage schedule from a seeded initialization;
    returns (spec, params, trace), params viewing the run's flat buffer. A
    `TrainingDivergedError` or `NumericalBlowupError` leaves with the
    partial trace attached as `.trace`."""
    spec = _make_spec(cfg, data.scaler)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0)))
    theta = params_flatten(init_params(spec, rng))
    trace = TrainTrace()
    it = 0
    try:
        for stage_id, kind, iterations, form in _schedule(cfg):
            best, it = _run_stage(stage_id, kind, iterations, cfg, spec, theta, data,
                                  trace, it, form, log_every, log)
            theta[:] = best
    except (TrainingDivergedError, NumericalBlowupError) as exc:
        exc.trace = trace
        raise
    return spec, params_views(spec, theta), trace
