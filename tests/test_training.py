import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hydropinn import training
from hydropinn.dataset import DatasetMeta
from hydropinn.autodiff.tape import Tape
from hydropinn.errors import ConfigError, NumericalBlowupError, TrainingDivergedError
from hydropinn.losses import LossWeights, data_misfit, residuals
from hydropinn.moc import export_grid, run_details, sample
from hydropinn.network import (BLOCK_ROWS, InputScaler, init_params, net_forward,
                               params_flatten, params_views)
from hydropinn.training import (
    AdamState,
    TrainConfig,
    TrainingData,
    TrainTrace,
    _make_spec,
    _objective,
    _run_stage,
    _schedule,
    _stage_rows,
    adam_step,
    output_mode_for,
    train,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def tiny_cfg():
    return TrainConfig(hidden_layers=2, width=8, stage_iterations=(40, 30, 60),
                       seed=0, weights=LossWeights(1.0, 1.0))


def _form(cfg, stage_id):
    """The data-loss form the baseline's schedule gives stage `stage_id`."""
    return _schedule(cfg)[stage_id - 1][3]


@pytest.fixture(scope="module")
def tiny_data(ramp_scenario, moc_field):
    field, grid, frozen_pipe = moc_field
    xs, ts = export_grid(frozen_pipe.length, 600.0, 5_000.0, 10.0)
    sampled = sample(field, xs, ts)
    meta = DatasetMeta(pipe=frozen_pipe, fluid=ramp_scenario.fluid,
                       wave_speed=grid.wave_speed, offtake_x=25_000.0)
    return TrainingData.from_dataset(sampled, meta)


class TestAdam:
    def _params(self):
        return np.array([1.0, 2.0, 0.5])

    def test_zero_gradient_keeps_params(self):
        params = self._params()
        before = params.copy()
        state = AdamState.zeros(params.size)
        grads = np.zeros(3)
        adam_step(params, grads, state, lr=0.1)
        assert np.array_equal(params, before)
        assert state.t == 1

    def test_constant_gradient_step_approaches_lr(self):
        params = self._params()
        state = AdamState.zeros(params.size)
        grads = np.array([0.37, 0.37, -0.11])
        lr = 0.01
        prev = params.copy()
        for _ in range(300):
            prev = params.copy()
            adam_step(params, grads, state, lr=lr)
        step = prev - params
        # with a constant gradient Adam's step tends to lr * sign(g)
        assert np.allclose(step, lr * np.sign(grads), rtol=1e-3)

    def test_scalar_quadratic_converges(self):
        # minimize (theta - 3)^2 against a hand-rolled reference
        params = np.zeros(2)
        state = AdamState.zeros(params.size)
        for _ in range(2000):
            g = np.array([2.0 * (params[0] - 3.0), 0.0])
            adam_step(params, g, state, lr=0.01)
        assert params[0] == pytest.approx(3.0, abs=1e-3)

    def test_non_finite_gradient_rejected(self):
        params = self._params()
        state = AdamState.zeros(params.size)
        grads = np.array([np.nan, 0.0, 0.0])
        with pytest.raises(NumericalBlowupError):
            adam_step(params, grads, state, lr=0.01)


class TestConfig:
    def test_unknown_baseline(self):
        with pytest.raises(ConfigError):
            TrainConfig(baseline="mlp")

    def test_iterations_on_kih_rejected(self):
        # kih runs stage_iterations; an `iterations` key used to be ignored
        with pytest.raises(ConfigError, match="iterations"):
            TrainConfig(baseline="kih", iterations=5, stage_iterations=(1, 1, 1))
        with pytest.raises(ConfigError, match="iterations"):
            TrainConfig.from_dict({"baseline": "kih", "iterations": 20000})

    def test_round_trip_dict(self):
        cfg = TrainConfig(baseline="pinn", hidden_layers=4, width=16,
                          iterations=500, seed=9,
                          weights=LossWeights(3, 4))
        back = TrainConfig.from_dict(cfg.to_dict())
        assert back == cfg

    @pytest.mark.parametrize("baseline", training.BASELINES)
    def test_shipped_config_loads_and_round_trips(self, baseline):
        cfg = training.load_train_config(CONFIGS / f"{baseline}.json")
        assert cfg.baseline == baseline
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_schedule_fixes_each_baseline_data_loss_form(self):
        # kih and dnn fit the per-variable form in every stage, pinn the
        # printed averaged-residual form; no config setting changes it
        forms = {baseline: [form for *_, form in _schedule(TrainConfig(baseline=baseline))]
                 for baseline in training.BASELINES}
        assert forms == {"kih": ["split"] * 3, "pinn": ["paper"], "dnn": ["split"]}
        for baseline in training.BASELINES:
            shipped = training.load_train_config(CONFIGS / f"{baseline}.json")
            assert [form for *_, form in _schedule(shipped)] == forms[baseline]

    def test_output_modes(self):
        assert output_mode_for("kih") == "pressure-velocity"
        assert output_mode_for("pinn") == "head-velocity"
        assert output_mode_for("dnn") == "head-velocity"


class TestStages:
    def test_zero_iterations_returns_initialization(self, tiny_data):
        cfg = TrainConfig(hidden_layers=2, width=8, stage_iterations=(0, 0, 0),
                          seed=3)
        spec, params, trace = train(cfg, tiny_data)
        ref = init_params(spec, np.random.default_rng(np.random.SeedSequence((3, 0))))
        for (w, b), (wr, br) in zip(params, ref):
            assert np.array_equal(w, wr)
            assert np.array_equal(b, br)
        assert trace.rows == []
        # each stage ran, kept its start parameters and names no best iteration
        assert [(s.stage, s.kind, s.form, s.iterations, s.best_iteration)
                for s in trace.stage_summaries] == [
            (1, "bc", "split", 0, None), (2, "ic", "split", 0, None),
            (3, "coupled", "split", 0, None)]

    def test_stage_handoff_never_worse(self, tiny_cfg, tiny_data):
        _, _, trace = train(tiny_cfg, tiny_data)
        assert [(s.stage, s.kind, s.iterations) for s in trace.stage_summaries] == [
            (1, "bc", 40), (2, "ic", 30), (3, "coupled", 60)]
        for s in trace.stage_summaries:
            assert s.objective_end <= s.objective_start
            # the kept parameters are those after the update of a trace row
            # of this stage, or the stage's start parameters
            assert s.best_iteration is None or \
                trace.rows[s.best_iteration].stage == s.stage

    def test_determinism_bitwise(self, tiny_cfg, tiny_data):
        spec1, params1, trace1 = train(tiny_cfg, tiny_data)
        spec2, params2, trace2 = train(tiny_cfg, tiny_data)
        for (w1, b1), (w2, b2) in zip(params1, params2):
            assert np.array_equal(w1, w2)
            assert np.array_equal(b1, b2)
        assert len(trace1.rows) == len(trace2.rows) == sum(tiny_cfg.stage_iterations)
        for r1, r2 in zip(trace1.rows, trace2.rows):
            assert r1 == r2

    def test_different_seed_differs(self, tiny_cfg, tiny_data):
        _, params1, _ = train(tiny_cfg, tiny_data)
        _, params2, _ = train(replace(tiny_cfg, seed=1), tiny_data)
        assert not np.array_equal(params1[0][0], params2[0][0])

    def test_trace_schema(self, tiny_cfg, tiny_data, tmp_path):
        _, _, trace = train(tiny_cfg, tiny_data)
        stages = [r.stage for r in trace.rows]
        assert stages == sorted(stages)
        for r in trace.rows:
            for v in (r.loss_bc, r.loss_ic, r.loss_con, r.loss_mo, r.loss_total):
                assert np.isfinite(v)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ("stage,iter,loss_bc,loss_ic,loss_con,loss_mo,loss_total,"
                            "bc_first,bc_velocity")
        assert len(lines) == 1 + len(trace.rows)
        first = trace.rows[0]
        assert lines[1].split(",")[7:] == [f"{first.bc_first:.10e}",
                                           f"{first.bc_velocity:.10e}"]

    def test_retention_warning_recorded(self, monkeypatch, tiny_data):
        # an absurdly tight retention factor flags any boundary-loss growth
        monkeypatch.setattr(training, "BC_RETENTION_FACTOR", 1e-9)
        cfg = TrainConfig(hidden_layers=2, width=8, stage_iterations=(30, 30, 0), seed=0)
        _, _, trace = train(cfg, tiny_data)
        assert any("boundary loss" in w for w in trace.warnings)

    def test_non_finite_trace_term_warns_once_per_stage(self, tiny_data):
        # a friction coefficient whose v|v| term overflows makes the trace-only
        # mo column inf while the dnn's data objective stays finite
        data = TrainingData(colloc=tiny_data.colloc, scaler=tiny_data.scaler,
                            coeffs=replace(tiny_data.coeffs, friction_hv=1e308))
        cfg = TrainConfig(baseline="dnn", hidden_layers=2, width=8, iterations=260, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, trace = train(cfg, data)
        assert all(np.isfinite(r.loss_total) for r in trace.rows)
        assert np.isinf(trace.rows[-1].loss_mo)
        (warning,) = trace.warnings
        assert warning.startswith("stage 1 iteration 0: eval-set ")
        assert "mo=inf" in warning and warning.endswith(" not finite")

    def test_stage3_zero_physics_equals_data_run(self, tiny_data):
        """With zero physics weights stage three is exactly a joint data fit."""
        cfg = TrainConfig(hidden_layers=2, width=8, stage_iterations=(20, 10, 0), seed=4,
                          weights=LossWeights(0.0, 0.0))
        spec, p1, _ = train(cfg, tiny_data)
        start = params_flatten(p1)

        coupled, _ = _run_stage(3, "coupled", 50, cfg, spec, start.copy(),
                                tiny_data, TrainTrace(), 0, _form(cfg, 3))
        data_only, _ = _run_stage(3, "data", 50, cfg, spec, start.copy(),
                                  tiny_data, TrainTrace(), 0, _form(cfg, 3))
        assert np.array_equal(coupled, data_only)


class TestStageFailures:
    def test_divergence_names_stage_iteration_and_terms(self, monkeypatch, tiny_data):
        monkeypatch.setattr(training, "DIVERGENCE_THRESHOLD", 1e-300)
        cfg = TrainConfig(hidden_layers=2, width=8, stage_iterations=(5, 5, 5))
        with pytest.raises(TrainingDivergedError) as info:
            train(cfg, tiny_data)
        message = str(info.value)
        assert message.startswith("stage 1 diverged at iteration 0: loss=")
        for term in ("bc=", "ic=", "con=", "mo="):
            assert term in message
        assert isinstance(info.value.trace, TrainTrace)

    def test_non_finite_gradient_leaves_theta_unchanged(self, monkeypatch, tiny_cfg,
                                                        tiny_data):
        monkeypatch.setattr(Tape, "gradients", lambda self, loss, wrt: [
            np.full_like(v.value, np.nan) for v in wrt])
        spec = _make_spec(tiny_cfg, tiny_data.scaler)
        theta = params_flatten(init_params(spec, 0))
        before = theta.copy()
        with pytest.raises(NumericalBlowupError) as info:
            _run_stage(3, "coupled", 5, tiny_cfg, spec, theta, tiny_data, TrainTrace(), 7,
                       _form(tiny_cfg, 3))
        message = str(info.value)
        assert message.startswith("stage 3 iteration 7: non-finite gradient")
        assert re.fullmatch(r".*; batch objective \S+", message)
        assert np.array_equal(theta, before)

    @pytest.mark.parametrize("kind", ["bc", "coupled"])
    def test_gradient_blowup_names_only_the_batch_objective(self, monkeypatch, tiny_cfg,
                                                            tiny_data, kind):
        """Eval-set terms outside the stage objective are no part of its
        gradient, so a non-finite one goes unnamed in the blow-up message."""
        monkeypatch.setattr(Tape, "gradients", lambda self, loss, wrt: [
            np.full_like(v.value, np.nan) for v in wrt])
        monkeypatch.setattr(training, "residuals", lambda spec, params, coeffs, x, t: (
            np.full(np.size(x), np.inf), np.full(np.size(x), np.inf)))
        spec = _make_spec(tiny_cfg, tiny_data.scaler)
        theta = params_flatten(init_params(spec, 0))
        with pytest.raises(NumericalBlowupError) as info:
            _run_stage(1, kind, 5, tiny_cfg, spec, theta, tiny_data, TrainTrace(), 0,
                       _form(tiny_cfg, 1))
        objective = re.fullmatch(
            r"stage 1 iteration 0: non-finite gradient in Adam step; batch objective (\S+)",
            str(info.value)).group(1)
        assert np.isfinite(float(objective))


class TestBaselines:
    def test_pinn_outputs_head(self, tiny_data):
        cfg = TrainConfig(baseline="pinn", hidden_layers=2, width=8,
                          iterations=40, seed=0)
        spec, params, trace = train(cfg, tiny_data)
        assert spec.output_mode == "head-velocity"
        # head-channel outputs should be marching toward ~100 m magnitudes
        c = tiny_data.colloc
        h, _ = net_forward(spec, params, c.x_bc, c.t_bc)
        assert np.mean(np.abs(h)) > 1.0

    def test_pinn_head_loss_dominates_velocity_loss(self, tiny_data):
        cfg = TrainConfig(baseline="pinn", hidden_layers=2, width=8,
                          iterations=150, seed=0)
        _, _, trace = train(cfg, tiny_data)
        row = trace.rows[100]
        assert row.bc_first >= 10.0 * row.bc_velocity

    def test_dnn_runs_data_only(self, tiny_data):
        cfg = TrainConfig(baseline="dnn", hidden_layers=2, width=8,
                          iterations=40, seed=0)
        spec, params, trace = train(cfg, tiny_data)
        assert spec.output_mode == "head-velocity"
        assert len(trace.rows) == 40
        assert trace.stage_summaries[0].objective_end <= \
            trace.stage_summaries[0].objective_start


class TestGradientValidity:
    def test_fd_check_at_three_checkpoints(self, tiny_data):
        """Tape gradients of the coupled loss stay finite-difference-exact
        at checkpoints along a training run (16-point subsample)."""
        from hydropinn.adcheck import AdCheckProblem, run_adcheck
        from hydropinn.losses import CollocationSet

        rng = np.random.default_rng(0)
        c = tiny_data.colloc
        pick = rng.choice(c.n_f, 16, replace=False)
        sub = CollocationSet(
            x_f=c.x_f[pick], t_f=c.t_f[pick],
            x_bc=c.x_bc[:16], t_bc=c.t_bc[:16],
            P_bc=c.P_bc[:16], v_bc=c.v_bc[:16],
            x_ic=c.x_ic, t_ic=c.t_ic, P_ic=c.P_ic, v_ic=c.v_ic,
        )
        for iters in (10, 25, 40):
            cfg = TrainConfig(hidden_layers=2, width=8,
                              stage_iterations=(iters, 0, iters), seed=5)
            spec, params, _ = train(cfg, tiny_data)
            problem = AdCheckProblem(spec=spec, params=params, colloc=sub,
                                     coeffs=tiny_data.coeffs,
                                     objective=_objective("coupled", cfg.weights),
                                     form=_form(cfg, 3))
            report = run_adcheck(problem, h=1e-4, tolerance=1e-5)
            assert report.passed, report.summary()

    def test_adcheck_checks_the_objective_each_baseline_trains(self, monkeypatch):
        """The dnn trains only the split-form data loss, so its check records
        no physics terms and reports otherwise than the pinn's coupled loss."""
        from hydropinn.adcheck import adcheck_from_config

        configs = Path(__file__).resolve().parents[1] / "configs"
        physics = training.taped_physics_losses
        calls = []

        def counted(*args):
            calls.append(args)
            return physics(*args)

        monkeypatch.setattr(training, "taped_physics_losses", counted)
        reports = {}
        for baseline in ("dnn", "pinn"):
            calls.clear()
            cfg = training.load_train_config(configs / f"{baseline}.json")
            reports[baseline] = adcheck_from_config(cfg, order=4, tolerance=1e-5,
                                                    max_coordinates=60, coord_seed=3)
            assert reports[baseline].passed, reports[baseline].summary()
            assert len(calls) == (baseline == "pinn")
        dnn, pinn = reports["dnn"], reports["pinn"]
        assert (dnn.max_rel_error, dnn.worst_coordinate) != \
            (pinn.max_rel_error, pinn.worst_coordinate)

    @pytest.mark.parametrize("baseline", ["kih", "dnn"])
    def test_cached_probes_equal_full_evaluations(self, monkeypatch, baseline):
        """Every probed loss, resumed from the caches of the unperturbed
        parameters, equals the loss of a problem built at the perturbed
        parameters, whose caches are full forwards, bitwise."""
        from dataclasses import replace

        import hydropinn.adcheck
        from hydropinn.adcheck import adcheck_from_config

        loss_fn = hydropinn.adcheck.fast_coupled_loss
        probes = []

        def compared(problem):
            value = loss_fn(problem)
            fresh = replace(problem, params=[(w.copy(), b.copy()) for w, b in problem.params])
            assert value == loss_fn(fresh)
            probes.append(value)
            return value

        monkeypatch.setattr(hydropinn.adcheck, "fast_coupled_loss", compared)
        cfg = training.load_train_config(
            Path(__file__).resolve().parents[1] / "configs" / f"{baseline}.json")
        report = adcheck_from_config(cfg, n_points=8, order=4, max_coordinates=40,
                                     coord_seed=2)
        assert report.passed, report.summary()
        assert len(probes) == 4 * 40

    @pytest.mark.parametrize("baseline", ["kih", "dnn"])
    def test_problem_builds_what_a_probe_reads(self, baseline):
        """A problem holds the data cache over its bc-then-ic points, their
        converted first-channel and velocity targets in that order, and a
        collocation cache exactly when the objective has con or mo."""
        from dataclasses import replace

        from hydropinn.adcheck import AdCheckProblem, build_problem, default_coefficients
        from hydropinn.losses import _observed_first_channel

        cfg = training.load_train_config(CONFIGS / f"{baseline}.json")
        cfg = replace(cfg, hidden_layers=2, width=8)
        _, kind, _, form = _schedule(cfg)[-1]
        spec = _make_spec(cfg, InputScaler(0.0, 50_000.0, 0.0, 600.0))
        built = build_problem(spec, default_coefficients(), _objective(kind, cfg.weights),
                              form, 6, seed=1)
        p = AdCheckProblem(spec=spec, params=built.params, colloc=built.colloc,
                           coeffs=built.coeffs, objective=built.objective, form=form)
        c = p.colloc
        assert np.array_equal(p.data_cache.x, np.concatenate([c.x_bc, c.x_ic]))
        assert np.array_equal(p.data_cache.t, np.concatenate([c.t_bc, c.t_ic]))
        assert p.data_cache.kinds == 1
        assert p.data_cache.resume_layer(p.params, p.data_cache.x, p.data_cache.t, 1) \
            == len(p.params) - 1
        obs, v_obs = p.targets
        assert np.array_equal(obs, _observed_first_channel(
            np.concatenate([c.P_bc, c.P_ic]), spec, p.coeffs))
        assert np.array_equal(v_obs, np.concatenate([c.v_bc, c.v_ic]))
        physics = "con" in p.objective or "mo" in p.objective
        assert physics == (baseline == "kih")
        assert (p.colloc_cache is None) == (not physics)
        if physics:
            assert np.array_equal(p.colloc_cache.x, c.x_f)
            assert np.array_equal(p.colloc_cache.t, c.t_f)
            assert p.colloc_cache.kinds == 3

    def test_probe_hands_each_cache_its_own_points(self, monkeypatch):
        """The probe passes each cache the points it holds, which the cache
        accepts without a value comparison."""
        from hydropinn.adcheck import build_problem, default_coefficients, fast_coupled_loss

        cfg = training.load_train_config(CONFIGS / "kih.json")
        spec = _make_spec(cfg, InputScaler(0.0, 50_000.0, 0.0, 600.0))
        p = build_problem(spec, default_coefficients(), _objective("coupled", cfg.weights),
                          "split", 6, seed=1)
        want = fast_coupled_loss(p)
        compared = []
        monkeypatch.setattr(np, "array_equal", lambda *args: compared.append(args))
        assert fast_coupled_loss(p) == want
        assert compared == []

    @pytest.mark.parametrize("baseline", ["kih", "pinn", "dnn"])
    def test_adcheck_sums_the_last_stage_objective(self, monkeypatch, baseline):
        """Both sides of the check add their terms through the stage loop's
        `_weighted_sum`, with the objective of the baseline's last stage."""
        import hydropinn.adcheck
        from hydropinn.adcheck import adcheck_from_config

        cfg = training.load_train_config(
            Path(__file__).resolve().parents[1] / "configs" / f"{baseline}.json")
        weighted_sum = hydropinn.adcheck._weighted_sum
        objectives = []

        def recorded(objective, terms):
            objectives.append(objective)
            return weighted_sum(objective, terms)

        monkeypatch.setattr(hydropinn.adcheck, "_weighted_sum", recorded)
        adcheck_from_config(cfg, n_points=4, order=4, max_coordinates=2)
        expected = _objective(_schedule(cfg)[-1][1], cfg.weights)
        assert objectives == [expected] * (1 + 4 * 2)

    def test_adcheck_from_config_defaults_to_the_cli_order(self, monkeypatch):
        """With no `order`, the library check probes each coordinate at
        fourth order, four loss evaluations, as `hydropinn adcheck` does."""
        import hydropinn.adcheck
        from hydropinn.adcheck import adcheck_from_config

        loss_fn = hydropinn.adcheck.fast_coupled_loss
        probes = []

        def counted(problem):
            probes.append(None)
            return loss_fn(problem)

        monkeypatch.setattr(hydropinn.adcheck, "fast_coupled_loss", counted)
        cfg = training.load_train_config(
            Path(__file__).resolve().parents[1] / "configs" / "kih.json")
        adcheck_from_config(cfg, n_points=4, max_coordinates=3)
        assert len(probes) == 4 * 3


class TestTermFunctions:
    """The taped `_batch_terms` and the tape-free `_eval_terms` give bitwise
    equal terms and diagnostics on the same rows, while a block holds the
    rows (the two forwards are bitwise equal up to BLOCK_ROWS points)."""

    @pytest.mark.parametrize("n", [1, 128, 512])
    @pytest.mark.parametrize("form", ["split", "paper"])
    @pytest.mark.parametrize("baseline", ["kih", "pinn"])
    def test_taped_and_tape_free_terms_agree(self, baseline, form, n):
        from hydropinn.adcheck import build_problem, default_coefficients

        assert n <= BLOCK_ROWS
        cfg = TrainConfig(baseline=baseline)
        spec = _make_spec(cfg, InputScaler(0.0, 50_000.0, 0.0, 600.0))
        problem = build_problem(spec, default_coefficients(),
                                _objective("coupled", cfg.weights), form,
                                n_points=600, seed=n)
        rng = np.random.default_rng(n)
        rows = {family: rng.choice(600, n, replace=False) for family in ("bc", "ic", "f")}
        theta = params_flatten(problem.params)
        terms, diagnostics = training._batch_terms(spec, Tape().leaf(theta), problem.colloc,
                                                   problem.coeffs, rows, form)
        taped = {**{name: float(var.value) for name, var in terms.items()}, **diagnostics}
        assert taped == training._eval_terms(spec, params_views(spec, theta), problem.colloc,
                                             problem.coeffs, rows, form)
        assert set(taped) == {"bc", "ic", "con", "mo", "bc_first", "bc_velocity"}


@pytest.fixture(scope="module")
def shipped_desk_data():
    """Training data of the shipped desk scenario at the CLI's defaults
    (MOC step 0.5 s, 1 km x 0.5 s export grid)."""
    from hydropinn.scenario import load_scenario

    scenario = load_scenario(CONFIGS / "desk_scenario.json")
    field, grid, pipe = run_details(scenario, 0.5)
    meta = DatasetMeta(pipe=pipe, fluid=scenario.fluid, wave_speed=grid.wave_speed,
                       offtake_x=scenario.offtake.position)
    return TrainingData.from_dataset(sample(field, *export_grid(pipe.length,
                                                                scenario.duration)), meta)


class TestFloat32TapedForward:
    """Training records the network node on a float32 copy of the float64
    parameter buffer. The tolerance was fixed before the change: on the
    desk dataset at the seed-0 init, each batch term is within 1e-5
    relative of the float64 node's and the flat gradient within 1e-5
    relative L2 (measured 1.9e-9 to 2.1e-7 and 1.4e-7 to 3.4e-7)."""

    @pytest.mark.parametrize("kind", ["bc", "ic", "data", "coupled"])
    @pytest.mark.parametrize("baseline", ["kih", "pinn"])  # both output modes
    def test_float32_leaf_within_tolerance_of_float64(self, shipped_desk_data, baseline,
                                                      kind):
        data = shipped_desk_data
        cfg = training.load_train_config(CONFIGS / f"{baseline}.json")
        form = _schedule(cfg)[-1][3]
        spec = _make_spec(cfg, data.scaler)
        theta = params_flatten(init_params(
            spec, np.random.default_rng(np.random.SeedSequence((cfg.seed, 0)))))
        objective = _objective(kind, cfg.weights)
        batchers, _ = _stage_rows(cfg, data, 1)
        rows = {f: batchers[f].next() for f in {training.TERM_FAMILY[n] for n in objective}}
        results = {}
        for dtype in (np.float64, np.float32):
            leaf = Tape().leaf(theta.astype(dtype))
            assert leaf.value.dtype == dtype
            terms, diagnostics = training._batch_terms(spec, leaf, data.colloc, data.coeffs,
                                                       rows, form)
            (grad,) = leaf.tape.gradients(training._weighted_sum(objective, terms), [leaf])
            assert grad.dtype == np.float64
            values = {name: float(var.value) for name, var in terms.items()}
            results[dtype] = ({**values, **diagnostics}, grad)
        (want, g64), (got, g32) = results[np.float64], results[np.float32]
        assert set(got) == set(want) >= set(objective)
        for name, value in want.items():
            assert abs(got[name] - value) <= 1e-5 * abs(value), name
        assert np.linalg.norm(g32 - g64) <= 1e-5 * np.linalg.norm(g64)
        assert not np.array_equal(g32, g64)

    def test_stage_loop_hands_the_node_a_float32_leaf(self, monkeypatch, tiny_data):
        import hydropinn.losses

        forward = hydropinn.losses.taped_forward
        dtypes = []

        def recorded(spec, theta_var, *args, **kwargs):
            dtypes.append(theta_var.value.dtype)
            return forward(spec, theta_var, *args, **kwargs)

        monkeypatch.setattr(hydropinn.losses, "taped_forward", recorded)
        cfg = TrainConfig(hidden_layers=2, width=8, stage_iterations=(3, 2, 4))
        _, params, _ = train(cfg, tiny_data)
        # one node per iteration, over every family its objective reads
        assert dtypes == [np.dtype(np.float32)] * (3 + 2 + 4)
        assert all(a.dtype == np.float64 for layer in params for a in layer)

    @pytest.mark.parametrize("baseline", ["kih", "pinn", "dnn"])
    def test_adcheck_gradient_is_the_float64_node(self, baseline):
        """The gradient check differentiates the float64 node: its taped
        gradient is bitwise `_batch_terms` on a float64 leaf, summed by
        `_weighted_sum`."""
        from hydropinn.adcheck import build_problem, default_coefficients, \
            taped_coupled_gradient

        cfg = training.load_train_config(CONFIGS / f"{baseline}.json")
        _, kind, _, form = _schedule(cfg)[-1]
        spec = _make_spec(cfg, InputScaler(0.0, 50_000.0, 0.0, 600.0))
        p = build_problem(spec, default_coefficients(), _objective(kind, cfg.weights),
                          form, 32, seed=0)
        leaf = Tape().leaf(params_flatten(p.params))
        assert leaf.value.dtype == np.float64
        rows = dict.fromkeys({training.TERM_FAMILY[n] for n in p.objective}, slice(None))
        terms, _ = training._batch_terms(spec, leaf, p.colloc, p.coeffs, rows, form)
        (want,) = leaf.tape.gradients(training._weighted_sum(p.objective, terms), [leaf])
        assert np.array_equal(params_flatten(taped_coupled_gradient(p)), want)


@pytest.mark.parametrize("kind, families", [
    ("bc", 1), ("ic", 1), ("data", 2), ("coupled", 3)])
def test_one_network_node_per_iteration(monkeypatch, tiny_cfg, tiny_data, kind, families):
    """Every stage kind records one taped network node per iteration, over
    every family its objective reads."""
    import hydropinn.losses

    forward = hydropinn.losses.taped_forward
    nodes = []

    def recorded(*args, **kwargs):
        outputs = forward(*args, **kwargs)
        nodes.append(len(outputs))
        return outputs

    monkeypatch.setattr(hydropinn.losses, "taped_forward", recorded)
    spec = _make_spec(tiny_cfg, tiny_data.scaler)
    theta = params_flatten(init_params(spec, np.random.default_rng(0)))
    _run_stage(1, kind, 5, tiny_cfg, spec, theta, tiny_data, TrainTrace(), 0, "split")
    assert nodes == [families] * 5


class TestOffObjectiveTerms:
    """Stage iterations compute only their objective; the other trace
    columns come from the fixed eval sets."""

    @pytest.fixture()
    def start(self, tiny_cfg, tiny_data):
        spec = _make_spec(tiny_cfg, tiny_data.scaler)
        return spec, init_params(spec, np.random.default_rng(0))

    @pytest.mark.parametrize("kind, taped_physics", [
        ("bc", 0), ("ic", 0), ("data", 0), ("coupled", 25)])
    def test_physics_evaluated_once_per_objective_evaluation(
            self, monkeypatch, tiny_cfg, tiny_data, start, kind, taped_physics):
        calls = {"residuals": 0, "taped_physics_losses": 0}
        for name in calls:
            original = getattr(training, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(training, name, counted)
        monkeypatch.setattr(training, "EVAL_EVERY", 10)
        spec, params = start
        _run_stage(1, kind, 25, tiny_cfg, spec, params_flatten(params), tiny_data,
                   TrainTrace(), 0, _form(tiny_cfg, 1))
        # stage start, iterations 10 and 20; the stage-end evaluation computes
        # only the objective, which has physics terms in `coupled` alone
        evals = 4 if kind == "coupled" else 3
        assert calls == {"residuals": evals, "taped_physics_losses": taped_physics}

    def _eval_set_values(self, cfg, data, spec, params, stage_id):
        c = data.colloc
        idx = _stage_rows(cfg, data, stage_id)[1]["f"]
        g_mo, g_con = residuals(spec, params, data.coeffs, c.x_f[idx], c.t_f[idx])
        data_terms = [data_misfit(*net_forward(spec, params, x, t), P, v, "split")
                      for x, t, P, v in ((c.x_bc, c.t_bc, c.P_bc, c.v_bc),
                                         (c.x_ic, c.t_ic, c.P_ic, c.v_ic))]
        return (*data_terms, float(np.mean(g_con * g_con)), float(np.mean(g_mo * g_mo)))

    def test_stage_one_holds_eval_set_values(self, monkeypatch, tiny_cfg,
                                             tiny_data, start):
        monkeypatch.setattr(training, "EVAL_EVERY", 10)
        spec, params = start
        bc0, ic0, con0, mo0 = self._eval_set_values(tiny_cfg, tiny_data, spec,
                                                    params, 1)
        trace = TrainTrace()
        _run_stage(1, "bc", 20, tiny_cfg, spec, params_flatten(params), tiny_data,
                   trace, 0, _form(tiny_cfg, 1))
        # `params` after ten iterations: the values of the first refresh
        stepped = params_flatten(params)
        _run_stage(1, "bc", 10, tiny_cfg, spec, stepped, tiny_data, TrainTrace(), 0,
                   _form(tiny_cfg, 1))
        _, ic10, con10, mo10 = self._eval_set_values(tiny_cfg, tiny_data, spec,
                                                     params_views(spec, stepped), 1)
        for r in trace.rows[:10]:
            assert (r.loss_ic, r.loss_con, r.loss_mo) == (ic0, con0, mo0)
        for r in trace.rows[10:]:
            assert (r.loss_ic, r.loss_con, r.loss_mo) == (ic10, con10, mo10)
        # the objective column is the batch value
        assert all(r.loss_bc == r.loss_total for r in trace.rows)
        assert len({r.loss_bc for r in trace.rows}) == len(trace.rows)
        assert trace.rows[0].loss_bc != bc0

    def test_stage_two_holds_boundary_columns(self, tiny_cfg, tiny_data, start):
        spec, params = start
        trace = TrainTrace()
        _run_stage(2, "ic", 15, tiny_cfg, spec, params_flatten(params), tiny_data,
                   trace, 0, _form(tiny_cfg, 2))
        c = tiny_data.colloc
        y1, v = net_forward(spec, params, c.x_bc, c.t_bc)
        bc_first = float(np.mean((y1 - c.P_bc) ** 2))
        bc_velocity = float(np.mean((v - c.v_bc) ** 2))
        bc, _, con, mo = self._eval_set_values(tiny_cfg, tiny_data, spec, params, 2)
        for r in trace.rows:
            assert (r.loss_bc, r.loss_con, r.loss_mo) == (bc, con, mo)
            assert r.bc_first == pytest.approx(bc_first, rel=1e-12)
            assert r.bc_velocity == pytest.approx(bc_velocity, rel=1e-12)
            assert r.loss_ic == r.loss_total
