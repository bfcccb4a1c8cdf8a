"""Adam optimization and the three-stage hierarchical training schedule.

Stage one fits the boundary data (split per-variable loss), stage two the
initial-condition data starting from the stage-one parameters, and stage
three the full weighted coupled loss starting from the stage-two
parameters. Baselines reuse the same machinery: `pinn` runs one coupled
stage with head-channel outputs and the unconverted residual operators;
`dnn` runs one data-only stage (standard per-variable MSE).

Each stage returns the best parameters seen on its own objective,
evaluated on fixed full/eval point sets at the stage boundaries and every
`EVAL_EVERY` iterations, so a stage can never hand off parameters worse
than the ones it received.

An iteration computes only the terms of its stage objective, on the
current batch. The trace's other loss columns hold the latest values of
those terms on the fixed eval sets, measured in the same pass as the
objective evaluation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalBlowupError, TrainingDivergedError
from .losses import (
    CollocationSet,
    LossWeights,
    PhysicsCoefficients,
    data_misfit,
    data_misfit_terms,
    residuals,
    taped_data_loss,
    taped_physics_losses,
    _observed_first_channel,
)
from .network import (
    InputScaler,
    NetSpec,
    init_params,
    net_forward,
    params_copy,
    params_to_vars,
    params_zeros_like,
)
from .autodiff.tape import Tape

BASELINES = ("kih", "pinn", "dnn")
EVAL_EVERY = 250
EVAL_COLLOCATION_POINTS = 2048

TRACE_CSV_HEADER = "stage,iter,loss_bc,loss_ic,loss_con,loss_mo,loss_total"


@dataclass(frozen=True)
class TrainConfig:
    baseline: str = "kih"
    hidden_layers: int = 10
    width: int = 50
    activation: str = "softplus"
    stage_iterations: tuple[int, int, int] = (2000, 2000, 16000)
    iterations: int | None = None  # single-stage baselines; defaults to the stage sum
    batch_size: int = 128
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    bc_loss_form: str = "paper"
    bc_retention_factor: float = 10.0
    divergence_threshold: float = 1e6
    lr_decay: float = 1.0  # per-iteration multiplicative factor; 1.0 = constant rate

    def __post_init__(self):
        if self.baseline not in BASELINES:
            raise ConfigError(f"unknown baseline {self.baseline!r}; expected {BASELINES}")
        if len(self.stage_iterations) != 3 or any(n < 0 for n in self.stage_iterations):
            raise ConfigError("stage_iterations must be three non-negative counts")
        if self.iterations is not None and self.iterations < 0:
            raise ConfigError("iterations must be non-negative")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.bc_loss_form not in ("paper", "split"):
            raise ConfigError("bc_loss_form must be 'paper' or 'split'")

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
                "activation": self.activation,
            },
            "stage_iterations": list(self.stage_iterations),
            "iterations": self.iterations,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "adam": {"beta1": self.beta1, "beta2": self.beta2, "eps": self.eps},
            "seed": self.seed,
            "weights": {"bc": self.weights.bc, "ic": self.weights.ic,
                        "con": self.weights.con, "mo": self.weights.mo},
            "bc_loss_form": self.bc_loss_form,
            "bc_retention_factor": self.bc_retention_factor,
            "divergence_threshold": self.divergence_threshold,
            "lr_decay": self.lr_decay,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        net = d.get("network", {})
        adam = d.get("adam", {})
        w = d.get("weights", {})
        kwargs = dict(
            baseline=d.get("baseline", "kih"),
            hidden_layers=int(net.get("hidden_layers", 10)),
            width=int(net.get("width", 50)),
            activation=net.get("activation", "softplus"),
            batch_size=int(d.get("batch_size", 128)),
            learning_rate=float(d.get("learning_rate", 1e-4)),
            beta1=float(adam.get("beta1", 0.9)),
            beta2=float(adam.get("beta2", 0.999)),
            eps=float(adam.get("eps", 1e-8)),
            seed=int(d.get("seed", 0)),
            weights=LossWeights(
                bc=float(w.get("bc", 1.0)), ic=float(w.get("ic", 1.0)),
                con=float(w.get("con", 1.0)), mo=float(w.get("mo", 1.0)),
            ),
            bc_loss_form=d.get("bc_loss_form", "paper"),
            bc_retention_factor=float(d.get("bc_retention_factor", 10.0)),
            divergence_threshold=float(d.get("divergence_threshold", 1e6)),
            lr_decay=float(d.get("lr_decay", 1.0)),
        )
        if "stage_iterations" in d:
            kwargs["stage_iterations"] = tuple(int(n) for n in d["stage_iterations"])
        if d.get("iterations") is not None:
            kwargs["iterations"] = int(d["iterations"])
        return cls(**kwargs)


def load_train_config(path) -> TrainConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
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
    stage: int
    objective_start: float
    objective_end: float


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
                f"{r.loss_con:.10e},{r.loss_mo:.10e},{r.loss_total:.10e}"
            )
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0

    @classmethod
    def zeros(cls, params) -> "AdamState":
        return cls(m=params_zeros_like(params), v=params_zeros_like(params))


def adam_step(params, grads, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """Standard Adam update with bias correction; mutates params and state."""
    for gw, gb in grads:
        if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
            raise NumericalBlowupError("non-finite gradient in Adam step")
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    for (w, b), (gw, gb), (mw, mb), (vw, vb) in zip(params, grads, state.m, state.v):
        for arr, g, m, v in ((w, gw, mw, vw), (b, gb, mb, vb)):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            arr -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return params, state


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


def _eval_data_terms(spec, params, x, t, P_obs, v_obs, coeffs, form):
    """Tape-free data loss plus its per-channel terms (first channel, velocity)."""
    y1, v = net_forward(spec, params, x, t)
    obs = _observed_first_channel(P_obs, spec, coeffs)
    total = float(data_misfit(y1, v, obs, v_obs, form))
    m1, m2 = data_misfit_terms(y1, v, obs, v_obs)
    return total, (m1, m2)


def _eval_physics_losses(spec, params, x, t, coeffs) -> tuple[float, float]:
    from .losses import _mean_sq

    g_mo, g_con = residuals(spec, params, coeffs, x, t)
    return float(_mean_sq(g_con)), float(_mean_sq(g_mo))


@dataclass(frozen=True)
class _LossTerms:
    """The four loss terms plus the per-channel boundary diagnostics."""

    bc: float
    ic: float
    con: float
    mo: float
    bc_first: float
    bc_velocity: float


@dataclass
class _StageContext:
    """Fixed evaluation sets and batchers for one stage (seeded per stage)."""

    bc_batcher: _FamilyBatcher
    ic_batcher: _FamilyBatcher
    f_batcher: _FamilyBatcher
    f_eval_idx: np.ndarray


def _stage_context(cfg: TrainConfig, data: TrainingData, stage_id: int) -> _StageContext:
    seq = np.random.SeedSequence((cfg.seed, stage_id))
    s_bc, s_ic, s_f, s_eval = [np.random.default_rng(s) for s in seq.spawn(4)]
    n_f = data.colloc.n_f
    n_eval = min(EVAL_COLLOCATION_POINTS, n_f)
    f_eval_idx = np.sort(s_eval.choice(n_f, size=n_eval, replace=False))
    return _StageContext(
        bc_batcher=_FamilyBatcher(data.colloc.n_bc, cfg.batch_size, s_bc),
        ic_batcher=_FamilyBatcher(data.colloc.n_ic, cfg.batch_size, s_ic),
        f_batcher=_FamilyBatcher(n_f, cfg.batch_size, s_f),
        f_eval_idx=f_eval_idx,
    )


def _taped_family_loss(spec, pvars, data: TrainingData, family: str, idx, form):
    """Taped data loss on rows `idx` of the 'bc' or 'ic' family."""
    c = data.colloc
    x, t, P, v = (getattr(c, f"{name}_{family}")[idx] for name in ("x", "t", "P", "v"))
    return taped_data_loss(spec, pvars, x, t, P, v, data.coeffs, form)


def _stage_eval(kind: str, cfg: TrainConfig, spec, params, data: TrainingData,
                ctx: _StageContext, form: str) -> tuple[float, _LossTerms]:
    """Stage objective and every loss term on the stage's fixed eval sets.

    The full boundary and initial sets, and the `f_eval_idx` collocation
    subset. Data terms use the 'split' form in the `bc`/`ic` stages and the
    stage form otherwise.
    """
    if kind not in ("bc", "ic", "coupled", "data"):
        raise ConfigError(f"unknown stage kind {kind!r}")
    c = data.colloc
    data_form = "split" if kind in ("bc", "ic") else form
    bc, (d1, d2) = _eval_data_terms(spec, params, c.x_bc, c.t_bc, c.P_bc, c.v_bc,
                                    data.coeffs, data_form)
    ic, _ = _eval_data_terms(spec, params, c.x_ic, c.t_ic, c.P_ic, c.v_ic,
                             data.coeffs, data_form)
    idx = ctx.f_eval_idx
    con, mo = _eval_physics_losses(spec, params, c.x_f[idx], c.t_f[idx], data.coeffs)
    terms = _LossTerms(bc=bc, ic=ic, con=con, mo=mo,
                       bc_first=float(d1), bc_velocity=float(d2))
    w = cfg.weights
    if kind == "bc":
        return bc, terms
    if kind == "ic":
        return ic, terms
    if kind == "data":
        return w.bc * bc + w.ic * ic, terms
    return w.bc * bc + w.ic * ic + w.con * con + w.mo * mo, terms


def _run_stage(stage_id: int, kind: str, iterations: int, cfg: TrainConfig,
               spec: NetSpec, params, data: TrainingData, trace: TrainTrace,
               start_iteration: int, form: str | None = None,
               log_every: int = 0, log=print):
    """Optimize one stage objective; returns (best_params, next_iteration).

    kind: 'bc' | 'ic' | 'coupled' | 'data'. Each iteration draws, forwards
    and differentiates only the families its objective uses: `bc` the
    boundary batch, `ic` the initial batch, `data` both, `coupled` all
    three. Trace columns outside the objective (and `bc_first`/
    `bc_velocity` in the `ic` stage) hold the latest values measured on the
    stage's fixed eval sets, refreshed with every objective evaluation: at
    stage start, every `EVAL_EVERY` iterations and at stage end.
    """
    ctx = _stage_context(cfg, data, stage_id)
    c = data.colloc
    w = cfg.weights
    if form is None:
        form = cfg.bc_loss_form

    start_obj, held = _stage_eval(kind, cfg, spec, params, data, ctx, form)
    best_obj = start_obj
    best_params = params_copy(params)
    adam = AdamState.zeros(params)
    lr = cfg.learning_rate

    it = start_iteration
    for k in range(iterations):
        tape = Tape()
        pvars = params_to_vars(tape, params)
        flat_vars = [v for pair in pvars for v in pair]

        if kind == "bc":
            loss_var, (d1, d2) = _taped_family_loss(spec, pvars, data, "bc",
                                                    ctx.bc_batcher.next(), "split")
            terms = replace(held, bc=float(loss_var.value),
                            bc_first=float(d1), bc_velocity=float(d2))
        elif kind == "ic":
            loss_var, _ = _taped_family_loss(spec, pvars, data, "ic",
                                             ctx.ic_batcher.next(), "split")
            terms = replace(held, ic=float(loss_var.value))
        else:
            bc_var, (d1, d2) = _taped_family_loss(spec, pvars, data, "bc",
                                                  ctx.bc_batcher.next(), form)
            ic_var, _ = _taped_family_loss(spec, pvars, data, "ic",
                                           ctx.ic_batcher.next(), form)
            terms = replace(held, bc=float(bc_var.value), ic=float(ic_var.value),
                            bc_first=float(d1), bc_velocity=float(d2))
            if kind == "data":
                loss_var = w.bc * bc_var + w.ic * ic_var
            else:
                f_idx = ctx.f_batcher.next()
                con_var, mo_var = taped_physics_losses(spec, pvars, c.x_f[f_idx],
                                                       c.t_f[f_idx], data.coeffs)
                terms = replace(terms, con=float(con_var.value), mo=float(mo_var.value))
                loss_var = (w.bc * bc_var + w.ic * ic_var
                            + w.con * con_var + w.mo * mo_var)

        total = float(loss_var.value)
        if not np.isfinite(total) or total > cfg.divergence_threshold:
            raise TrainingDivergedError(
                f"stage {stage_id} diverged at iteration {it}: loss={total:.4g} "
                f"(bc={terms.bc:.4g}, ic={terms.ic:.4g}, con={terms.con:.4g}, "
                f"mo={terms.mo:.4g})",
                trace=trace,
            )

        flat_grads = tape.gradients(loss_var, flat_vars)
        grads = [(flat_grads[2 * i], flat_grads[2 * i + 1])
                 for i in range(len(pvars))]
        try:
            adam_step(params, grads, adam, lr, cfg.beta1, cfg.beta2, cfg.eps)
        except NumericalBlowupError as exc:
            values = {"bc": terms.bc, "ic": terms.ic, "con": terms.con, "mo": terms.mo}
            bad = [name for name, val in values.items() if not np.isfinite(val)]
            raise NumericalBlowupError(
                f"stage {stage_id} iteration {it}: {exc}; "
                f"non-finite loss terms: {bad or 'none (gradient only)'}"
            ) from exc
        if cfg.lr_decay != 1.0:
            lr *= cfg.lr_decay

        trace.rows.append(TraceRow(
            stage=stage_id, iteration=it,
            loss_bc=terms.bc, loss_ic=terms.ic, loss_con=terms.con, loss_mo=terms.mo,
            loss_total=total, bc_first=terms.bc_first, bc_velocity=terms.bc_velocity,
        ))
        it += 1

        if (k + 1) % EVAL_EVERY == 0 or k + 1 == iterations:
            obj, held = _stage_eval(kind, cfg, spec, params, data, ctx, form)
            if obj < best_obj:
                best_obj = obj
                best_params = params_copy(params)
        if log_every and (k + 1) % log_every == 0:
            log(f"stage {stage_id} iter {k + 1}/{iterations} "
                f"total={total:.4e} bc={terms.bc:.4e} ic={terms.ic:.4e} "
                f"con={terms.con:.4e} mo={terms.mo:.4e}")

    trace.stage_summaries.append(
        StageSummary(stage=stage_id, objective_start=start_obj,
                     objective_end=best_obj))
    return best_params, it


def _make_spec(cfg: TrainConfig, data: TrainingData, output_mode: str) -> NetSpec:
    return NetSpec(
        hidden_layers=cfg.hidden_layers,
        width=cfg.width,
        activation=cfg.activation,
        scaler=data.scaler,
        output_mode=output_mode,
    )


def train_stage_one(cfg: TrainConfig, data: TrainingData, trace: TrainTrace,
                    log_every: int = 0, log=print):
    """Boundary-data fit from random initialization; returns (spec, params, it)."""
    spec = _make_spec(cfg, data, output_mode_for(cfg.baseline))
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0)))
    params = init_params(spec, rng)
    params, it = _run_stage(1, "bc", cfg.stage_iterations[0], cfg, spec, params,
                            data, trace, 0, log_every=log_every, log=log)
    return spec, params, it


def train_stage_two(cfg: TrainConfig, data: TrainingData, spec: NetSpec, params,
                    trace: TrainTrace, start_iteration: int = 0,
                    log_every: int = 0, log=print):
    """Initial-condition fit from the stage-one parameters."""
    c = data.colloc
    bc_before, _ = _eval_data_terms(spec, params, c.x_bc, c.t_bc, c.P_bc, c.v_bc,
                                    data.coeffs, "split")
    params, it = _run_stage(2, "ic", cfg.stage_iterations[1], cfg, spec, params,
                            data, trace, start_iteration,
                            log_every=log_every, log=log)
    bc_after, _ = _eval_data_terms(spec, params, c.x_bc, c.t_bc, c.P_bc, c.v_bc,
                                   data.coeffs, "split")
    if bc_after > cfg.bc_retention_factor * max(bc_before, 1e-300):
        trace.warnings.append(
            f"stage 2 grew the boundary loss {bc_after / max(bc_before, 1e-300):.1f}x "
            f"(from {bc_before:.3e} to {bc_after:.3e})"
        )
    return params, it


def train_stage_three(cfg: TrainConfig, data: TrainingData, spec: NetSpec, params,
                      trace: TrainTrace, start_iteration: int = 0,
                      log_every: int = 0, log=print):
    """Coupled-loss fit from the stage-two parameters."""
    params, it = _run_stage(3, "coupled", cfg.stage_iterations[2], cfg, spec,
                            params, data, trace, start_iteration,
                            log_every=log_every, log=log)
    return params, it


def train(cfg: TrainConfig, data: TrainingData, log_every: int = 0, log=print):
    """Dispatch on the baseline tag; returns (spec, params, trace)."""
    trace = TrainTrace()
    if cfg.baseline == "kih":
        spec, params, it = train_stage_one(cfg, data, trace, log_every, log)
        params, it = train_stage_two(cfg, data, spec, params, trace, it,
                                     log_every, log)
        params, _ = train_stage_three(cfg, data, spec, params, trace, it,
                                      log_every, log)
        return spec, params, trace

    spec = _make_spec(cfg, data, output_mode_for(cfg.baseline))
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0)))
    params = init_params(spec, rng)
    kind = "coupled" if cfg.baseline == "pinn" else "data"
    form = cfg.bc_loss_form if cfg.baseline == "pinn" else "split"
    params, _ = _run_stage(1, kind, cfg.total_iterations, cfg, spec, params,
                           data, trace, 0, form=form,
                           log_every=log_every, log=log)
    return spec, params, trace
