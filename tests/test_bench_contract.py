"""The names and call patterns the desk-case benchmark (`perfbench/`) binds.

The benchmark wraps module attributes, counts calls through them and parses
the training log. A rename or a changed call pattern here fails this test
instead of a benchmark run.
"""

import re
import sys
from pathlib import Path

import numpy as np
import pytest

import hydropinn.adcheck
from hydropinn.adcheck import adcheck_from_config
from hydropinn.metrics import compare
from hydropinn.training import TrainConfig, TrainingData, load_train_config, train

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402
import worker  # noqa: E402


def test_every_wrapped_site_exists():
    for owner, attr, name, _, _ in tracer.WRAP_SITES:
        assert hasattr(owner, attr), f"{owner.__name__}.{attr} ({name})"


def test_traced_operations_reach_every_expected_site(monkeypatch, desk_dataset):
    for owner, attr, *_ in tracer.WRAP_SITES:
        # registers the original, which teardown puts back over the wrapper
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    tr = tracer.Tracer()
    tr.install()
    tr.enabled = True
    field, meta = desk_dataset
    data = TrainingData.from_dataset(field, meta)
    for baseline, iterations in (("kih", None), ("dnn", 6)):
        cfg = TrainConfig(baseline=baseline, hidden_layers=2, width=8,
                          stage_iterations=(4, 3, 5), iterations=iterations)
        spec, params, _ = train(cfg, data)
        compare([(baseline, spec, params)], field, meta)
    adcheck_from_config(load_train_config(ROOT / "configs" / "kih.json"), order=4,
                        h=worker.ADCHECK_H, tolerance=1e-5, max_coordinates=3,
                        coord_seed=7)
    assert tr.missing_sites() == []


def test_adcheck_call_pattern(monkeypatch):
    calls = {"taped_coupled_gradient": 0, "fast_coupled_loss": 0}
    captured = {"grad": None, "values": []}
    gradient_fn = hydropinn.adcheck.taped_coupled_gradient
    loss_fn = hydropinn.adcheck.fast_coupled_loss

    def gradient(problem):
        calls["taped_coupled_gradient"] += 1
        captured["grad"] = (problem.params, gradient_fn(problem))
        return captured["grad"][1]

    def loss(problem):
        calls["fast_coupled_loss"] += 1
        captured["values"].append(loss_fn(problem))
        return captured["values"][-1]

    monkeypatch.setattr(hydropinn.adcheck, "taped_coupled_gradient", gradient)
    monkeypatch.setattr(hydropinn.adcheck, "fast_coupled_loss", loss)
    cfg = load_train_config(ROOT / "configs" / "kih.json")
    report = adcheck_from_config(cfg, order=4, h=worker.ADCHECK_H, tolerance=1e-5,
                                 max_coordinates=3, coord_seed=7)
    assert calls == {"taped_coupled_gradient": 1, "fast_coupled_loss": 12}
    # the benchmark rebuilds fd_check's errors from the probed loss values
    errors = worker.coordinate_errors(*captured["grad"], captured["values"], 3, 7)
    assert max(errors) == report.max_rel_error


@pytest.mark.parametrize("baseline, iterations", [("kih", None), ("dnn", 6)])
def test_train_logs_one_stage_line_per_iteration(desk_dataset, baseline, iterations):
    data = TrainingData.from_dataset(*desk_dataset)
    cfg = TrainConfig(baseline=baseline, hidden_layers=2, width=8,
                      stage_iterations=(4, 3, 5), iterations=iterations)
    lines = []
    _, _, trace = train(cfg, data, log_every=1, log=lines.append)
    assert len(lines) == len(trace.rows) == cfg.total_iterations
    stages = [int(line.split(" ", 2)[1]) for line in lines]
    assert all(re.match(r"stage \d+ ", line) for line in lines)
    assert stages == [r.stage for r in trace.rows]
    assert all(np.isfinite([r.loss_bc, r.loss_ic, r.loss_con, r.loss_mo,
                            r.loss_total]).all() for r in trace.rows)
