import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hydropinn
from conftest import write_checkpoint_meta
from hydropinn import training
from hydropinn.autodiff.tape import Tape
from hydropinn.cli import main
from hydropinn.dataset import meta_path, read_dataset
from hydropinn.training import TrainConfig, TrainingData, load_train_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def tiny_scenario_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    sc = {
        "pipe": {"length_m": 2000.0, "diameter_m": 0.25},
        "fluid": {"density_kgpm3": 850.0, "kinematic_viscosity_m2ps": 5.2e-6,
                  "bulk_modulus_pa": 1.5e9},
        "duration_s": 60.0,
        "inlet_pressure_mpa": [[0.0, 1.0], [60.0, 1.0]],
        "outlet_flowrate_m3ps": [[0.0, 0.0428], [20.0, 0.0428], [30.0, 0.035]],
        "offtake": None,
    }
    path = d / "tiny_scenario.json"
    path.write_text(json.dumps(sc))
    return path


@pytest.fixture(scope="module")
def tiny_train_config(tmp_path_factory):
    d = tmp_path_factory.mktemp("cfg")
    cfg = {
        "baseline": "kih",
        "network": {"hidden_layers": 2, "width": 8},
        "stage_iterations": [20, 10, 30],
        "seed": 0,
    }
    path = d / "tiny_kih.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def tiny_dataset(tiny_scenario_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "tiny.csv"
    code = main(["generate", str(tiny_scenario_file), "-o", str(out),
                 "--moc-dt", "0.05", "--grid-dx", "500", "--grid-dt", "1.0"])
    assert code == 0
    return out


class TestGenerate:
    def test_writes_dataset_and_sidecar(self, tiny_dataset):
        field, meta = read_dataset(tiny_dataset)
        assert field.xs.size == 5
        assert field.ts.size == 61
        assert meta.pipe.friction_factor is not None

    def test_start_from_rest_freezes_laminar_friction(self, tiny_scenario_file, tmp_path):
        sc = json.loads(tiny_scenario_file.read_text())
        sc.update(duration_s=30.0, inlet_pressure_mpa=[[0.0, 2.4]],
                  outlet_flowrate_m3ps=[[0.0, 0.0], [30.0, 0.04]])
        scenario, out = tmp_path / "rest.json", tmp_path / "rest.csv"
        scenario.write_text(json.dumps(sc))
        assert main(["generate", str(scenario), "-o", str(out), "--moc-dt", "0.05",
                     "--grid-dx", "500", "--grid-dt", "1.0"]) == 0
        field, meta = read_dataset(out)
        # the laminar value at Re 2300, as for any line at rest
        assert meta.pipe.friction_factor == 64.0 / 2300.0
        TrainingData.from_dataset(field, meta)

    def test_slow_start_flow_names_flow_and_reynolds_number(self, tiny_scenario_file,
                                                            tmp_path, capsys):
        sc = json.loads(tiny_scenario_file.read_text())
        sc.update(duration_s=30.0, inlet_pressure_mpa=[[0.0, 2.4]],
                  outlet_flowrate_m3ps=[[0.0, 1e-4], [30.0, 0.04]])
        scenario = tmp_path / "slow.json"
        scenario.write_text(json.dumps(sc))
        assert main(["generate", str(scenario), "-o", str(tmp_path / "slow.csv"),
                     "--moc-dt", "0.05"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: domain:")
        # v = 1e-4 / (pi 0.25^2 / 4) = 2.04e-3 m/s, Re = v D / nu = 97.9
        for part in ("outlet flowrate 0.0001 m^3/s", "Re 97.94", "64/Re = 0.6535"):
            assert part in err

    def test_negative_pressure_is_domain_error(self, tmp_path, capsys):
        # the desk outlet demand raised to 1.5x over 100-130 s separates the column
        sc = json.loads((CONFIGS / "desk_scenario.json").read_text())
        q0 = sc["outlet_flowrate_m3ps"][0][1]
        sc["outlet_flowrate_m3ps"] = [[0.0, q0], [100.0, q0], [130.0, 1.5 * q0]]
        scenario, out = tmp_path / "surge.json", tmp_path / "surge.csv"
        scenario.write_text(json.dumps(sc))
        assert main(["generate", str(scenario), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: domain: pressure below 0 MPa at x=50000.0 m, "
                              "t=152.500 s (step 305)")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--grid-dx", "0"), ("--grid-dt", "0"), ("--grid-dx", "-1000"), ("--grid-dt", "-1"),
        ("--grid-dt", "nan"), ("--grid-dx", "inf"), ("--moc-dt", "nan"), ("--moc-dt", "0"),
        ("--grid-dx", "300"), ("--grid-dt", "0.7"),
    ])
    def test_bad_grid_step_is_grid_error_naming_value(self, tiny_scenario_file, tmp_path,
                                                      capsys, flag, value):
        out = tmp_path / "out.csv"
        code = main(["generate", str(tiny_scenario_file), "-o", str(out), "--moc-dt", "0.05",
                     flag, value])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: grid:") and repr(float(value)) in err
        assert not out.exists()

    def test_missing_scenario_is_io_error(self, tmp_path, capsys):
        code = main(["generate", str(tmp_path / "none.json"), "-o",
                     str(tmp_path / "out.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: io")

    def test_bad_scenario_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code = main(["generate", str(bad), "-o", str(tmp_path / "out.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: config")


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self, tiny_scenario_file):
        assert main(["generate", str(tiny_scenario_file), "--bogus"]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


class TestConfigKeys:
    @pytest.mark.parametrize("kind, edit, key", [
        ("train", lambda d: d.update(weigths={"bc": 2.0}), "weigths"),
        ("scenario", lambda d: d["pipe"].update(gravity=1.0), "pipe.gravity"),
        ("train", lambda d: d["network"].update(hidden_layers="ten"),
         "network.hidden_layers"),
        ("train", lambda d: d.update(network=[1, 2]), "network"),
        ("train", lambda d: d.update(weights={"con": float("nan")}), "weights.con"),
        ("train", lambda d: d.update(lr_decay=1.0), "lr_decay"),
        ("train", lambda d: d.update(divergence_threshold=1e6),
         "unknown key 'divergence_threshold'"),
        ("train", lambda d: d.update(bc_retention_factor=10.0),
         "unknown key 'bc_retention_factor'"),
        ("train", lambda d: d.update(adam={"beta1": 0.9}), "adam"),
        ("train", lambda d: d["network"].update(activation="softplus"),
         "network.activation"),
        ("train", lambda d: d["network"].update(hidden_layers=0), "network.hidden_layers"),
        ("train", lambda d: d["network"].update(width=0), "network.width"),
        ("train", lambda d: d.update(weights={"con": -1.0}), "weights"),
        ("train", lambda d: d.update(weights={"bc": 1.0, "con": 10.0}),
         "unknown key 'weights.bc'"),
        ("train", lambda d: d.update(weights={"ic": 1.0, "mo": 10.0}),
         "unknown key 'weights.ic'"),
        ("train", lambda d: d.update(bc_loss_form="split"), "unknown key 'bc_loss_form'"),
        ("train", lambda d: d.update(learning_rate=1e-4), "unknown key 'learning_rate'"),
        ("train", lambda d: d.update(batch_size=128), "unknown key 'batch_size'"),
    ], ids=["weigths", "gravity", "hidden_layers", "network", "nan_weight",
            "lr_decay", "divergence_threshold", "bc_retention_factor", "adam",
            "activation", "zero_hidden_layers", "zero_width", "negative_weight",
            "weights_bc", "weights_ic", "bc_loss_form", "learning_rate", "batch_size"])
    def test_unknown_key_or_bad_value_is_config_error(
            self, kind, edit, key, tiny_scenario_file, tiny_train_config,
            tiny_dataset, tmp_path, capsys):
        source = tiny_train_config if kind == "train" else tiny_scenario_file
        d = json.loads(source.read_text())
        edit(d)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "out"
        if kind == "train":
            code = main(["train", str(path), str(tiny_dataset), "-o", str(out)])
        else:
            code = main(["generate", str(path), "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: config:") and key in err
        assert not out.exists()


@pytest.fixture(scope="module")
def checkpoint(tiny_train_config, tiny_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt") / "tiny.npz"
    code = main(["train", str(tiny_train_config), str(tiny_dataset),
                 "-o", str(out), "--log-every", "0"])
    assert code == 0
    return out


class TestTrainEvalCompare:
    def test_train_writes_checkpoint_and_trace(self, checkpoint):
        assert checkpoint.exists()
        trace = checkpoint.parent / (checkpoint.name + ".trace.csv")
        assert trace.exists()
        header = trace.read_text().split("\n", 1)[0]
        assert header == ("stage,iter,loss_bc,loss_ic,loss_con,loss_mo,loss_total,"
                          "bc_first,bc_velocity")

    def test_eval_untrained_model_reports_large_errors(self, checkpoint,
                                                       tiny_dataset, capsys):
        code = main(["eval", str(checkpoint), str(tiny_dataset)])
        assert code == 0
        out = capsys.readouterr().out
        assert "pressure" in out and "flowrate" in out

    def test_eval_csv_format(self, checkpoint, tiny_dataset, capsys):
        code = main(["--format", "csv", "eval", str(checkpoint),
                     str(tiny_dataset)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("model,segment,quantity,rmse,mape_pct,r2")

    def test_compare_multiple_checkpoints(self, checkpoint, tiny_dataset,
                                          capsys):
        code = main(["--format", "csv", "compare", str(checkpoint),
                     str(checkpoint), str(tiny_dataset)])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 4  # two models x two quantities

    def test_compare_segment_break_outside_pipe(self, checkpoint, tiny_dataset,
                                                capsys):
        code = main(["compare", str(checkpoint), str(tiny_dataset),
                     "--segment-breaks", "60000"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: config:")

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_non_numeric_segment_break_is_usage_error(self, checkpoint, tiny_dataset,
                                                      capsys, command):
        code = main([command, str(checkpoint), str(tiny_dataset),
                     "--segment-breaks", "500,abc"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--segment-breaks" in err and "'abc'" in err

    def test_negative_log_every_is_usage_error(self, tiny_train_config, tiny_dataset,
                                               tmp_path, capsys):
        out = tmp_path / "m.npz"
        code = main(["train", str(tiny_train_config), str(tiny_dataset), "-o", str(out),
                     "--log-every", "-1"])
        assert code == 2
        assert "--log-every" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_missing_checkpoint(self, tiny_dataset, tmp_path, capsys):
        code = main(["compare", str(tmp_path / "absent.npz"),
                     str(tiny_dataset)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: io")
        assert "absent.npz" in err

    def test_checkpoint_without_scaler_is_config_error(self, checkpoint, tiny_dataset,
                                                       tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        shutil.copy(checkpoint, bad)
        write_checkpoint_meta(bad, lambda meta: meta["spec"].pop("scaler"))
        code = main(["eval", str(bad), str(tiny_dataset)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: config: {bad}: missing key 'spec.scaler'")

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: meta["spec"].update(hidden_layers=0),
         "spec: need at least one hidden layer"),
        (lambda meta: meta["spec"].update(activation="relu"),
         "spec: unknown activation 'relu'"),
    ], ids=["no_hidden_layers", "relu"])
    def test_checkpoint_spec_rejected_by_its_constructor_is_config_error(
            self, checkpoint, tiny_dataset, tmp_path, capsys, edit, message):
        bad = tmp_path / "bad.npz"
        shutil.copy(checkpoint, bad)
        write_checkpoint_meta(bad, edit)
        code = main(["eval", str(bad), str(tiny_dataset)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: config: {bad}: {message}")

    def test_missing_dataset(self, checkpoint, tmp_path, capsys):
        code = main(["eval", str(checkpoint), str(tmp_path / "no.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: io")

    def test_malformed_dataset_row_is_config_error(self, checkpoint, tiny_dataset,
                                                   tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        meta_path(bad).write_text(meta_path(tiny_dataset).read_text())
        for edit in (lambda cells: cells[:3],  # drop the velocity cell
                     lambda cells: cells[:2] + ["nan", cells[3]],
                     lambda cells: cells[:3] + ["-inf"],
                     # Python's float() reads "2_4" as 24, numpy does not
                     lambda cells: cells[:2] + ["2_4", cells[3]]):
            lines = tiny_dataset.read_text().splitlines()
            lines[2] = ",".join(edit(lines[2].split(",")))
            bad.write_text("\n".join(lines) + "\n")
            code = main(["eval", str(checkpoint), str(bad)])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: config:")
            assert f"bad.csv: line 3 ({lines[2]!r})" in err

    def test_empty_or_truncated_checkpoint_is_config_error(self, checkpoint, tiny_dataset,
                                                          tmp_path, capsys):
        whole = checkpoint.read_bytes()
        for name, content in (("empty", b""), ("half", whole[:len(whole) // 2]),
                              ("head", whole[:10])):
            bad = tmp_path / f"{name}.npz"
            bad.write_bytes(content)
            assert main(["eval", str(bad), str(tiny_dataset)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: config:")
            assert f"{name}.npz is not a hydropinn checkpoint" in err

    def test_seed_override_changes_result(self, tiny_train_config, tiny_dataset,
                                          tmp_path):
        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        assert main(["train", str(tiny_train_config), str(tiny_dataset),
                     "-o", str(a), "--log-every", "0"]) == 0
        assert main(["--seed", "7", "train", str(tiny_train_config),
                     str(tiny_dataset), "-o", str(b), "--log-every", "0"]) == 0
        from hydropinn.network import load_checkpoint

        _, pa, _ = load_checkpoint(a)
        _, pb, _ = load_checkpoint(b)
        assert not np.array_equal(pa[0][0], pb[0][0])

    def test_run_record_holds_the_config_that_ran(self, monkeypatch, tiny_train_config,
                                                   tiny_dataset, tmp_path):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "4")
        out = tmp_path / "seeded.npz"
        assert main(["--seed", "3", "train", str(tiny_train_config), str(tiny_dataset),
                     "-o", str(out), "--log-every", "0"]) == 0
        record = json.loads((tmp_path / "seeded.npz.run.json").read_text())
        assert record["format"] == "hydropinn-run/1"
        assert record["config"]["seed"] == 3
        ran = replace(load_train_config(tiny_train_config), seed=3)
        assert TrainConfig.from_dict(record["config"]) == ran
        assert isinstance(record["warnings"], list)
        assert record["error"] is None
        assert record["versions"] == {"hydropinn": hydropinn.__version__,
                                      "numpy": np.__version__,
                                      "python": platform.python_version()}
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert record["numerics"] == {
            "blas": {"name": blas["name"], "version": blas["version"]},
            "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                        "MKL_NUM_THREADS": "4"},
            "taped_forward_dtype": "float32"}
        assert record["dataset"] == {
            "csv_sha256": hashlib.sha256(tiny_dataset.read_bytes()).hexdigest(),
            "meta_sha256": hashlib.sha256(meta_path(tiny_dataset).read_bytes()).hexdigest()}
        # one object per stage of the kih schedule, with the form it ran
        stages = record["stages"]
        assert [(s["stage"], s["kind"], s["form"], s["iterations"]) for s in stages] == [
            (1, "bc", "split", 20), (2, "ic", "split", 10), (3, "coupled", "split", 30)]
        first = 0
        for s in stages:
            assert set(s) == {"stage", "kind", "form", "iterations", "best_iteration",
                              "objective_start", "objective_end", "seconds"}
            assert s["objective_end"] <= s["objective_start"] and s["seconds"] > 0.0
            if s["best_iteration"] is None:
                assert s["objective_end"] == s["objective_start"]
            else:
                assert first <= s["best_iteration"] < first + s["iterations"]
                assert s["objective_end"] < s["objective_start"]
            first += s["iterations"]

    def test_divergence_is_numeric_error(self, monkeypatch, tiny_train_config, tiny_dataset,
                                         tmp_path, capsys):
        """The failed run writes its trace and run record, naming the error,
        but no checkpoint."""
        monkeypatch.setattr(training, "DIVERGENCE_THRESHOLD", 1e-300)
        out = tmp_path / "m.npz"
        code = main(["train", str(tiny_train_config), str(tiny_dataset), "-o", str(out),
                     "--log-every", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: numeric: stage 1 diverged at iteration 0")
        assert not out.exists()
        record = json.loads((tmp_path / "m.npz.run.json").read_text())
        assert record["error"] == err.strip().removeprefix("error: ")
        assert record["stages"] == [] and record["warnings"] == []
        assert TrainConfig.from_dict(record["config"]) == load_train_config(tiny_train_config)
        trace = (tmp_path / "m.npz.trace.csv").read_text()
        assert trace == ("stage,iter,loss_bc,loss_ic,loss_con,loss_mo,loss_total,"
                         "bc_first,bc_velocity\n")

    def test_blowup_record_keeps_the_completed_stages(self, monkeypatch, tiny_train_config,
                                                      tiny_dataset, tmp_path, capsys):
        """A non-finite gradient in stage 2 (after stage 1's 20 iterations)
        leaves stage 1's summary and trace rows in the record."""
        gradients, calls = Tape.gradients, []

        def failing(self, loss, wrt):
            calls.append(None)
            grads = gradients(self, loss, wrt)
            return [np.full_like(g, np.nan) for g in grads] if len(calls) > 20 else grads

        monkeypatch.setattr(Tape, "gradients", failing)
        out = tmp_path / "m.npz"
        code = main(["train", str(tiny_train_config), str(tiny_dataset), "-o", str(out),
                     "--log-every", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: numeric: stage 2 iteration 20: non-finite gradient")
        assert not out.exists()
        record = json.loads((tmp_path / "m.npz.run.json").read_text())
        assert record["error"] == err.strip().removeprefix("error: ")
        assert [(s["stage"], s["kind"]) for s in record["stages"]] == [(1, "bc")]
        rows = (tmp_path / "m.npz.trace.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [["1", str(i)] for i in range(20)]

    def test_out_dir_redirect(self, tiny_train_config, tiny_dataset, tmp_path):
        code = main(["--out-dir", str(tmp_path / "sub"), "train",
                     str(tiny_train_config), str(tiny_dataset),
                     "-o", "m.npz", "--log-every", "0"])
        assert code == 0
        assert (tmp_path / "sub" / "m.npz").exists()


class TestAdcheck:
    def test_small_net_passes(self, tmp_path, capsys):
        cfg = {
            "baseline": "kih",
            "network": {"hidden_layers": 3, "width": 8},
            "seed": 1,
        }
        path = tmp_path / "ad.json"
        path.write_text(json.dumps(cfg))
        code = main(["adcheck", str(path), "--points", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS")

    def test_bad_config_category(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"baseline": "nope"}))
        code = main(["adcheck", str(path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: config")

    @pytest.mark.parametrize("flag, value", [
        ("--points", "0"), ("--points", "-2"), ("--fd-step", "0"), ("--fd-step", "nan"),
        ("--max-coords", "-3"), ("--max-coords", "0"), ("--tolerance", "0"),
        ("--tolerance", "-1e-5"),
    ])
    def test_out_of_range_argument_is_config_error(self, tmp_path, capsys, flag, value):
        path = tmp_path / "ad.json"
        path.write_text(json.dumps({"baseline": "kih",
                                    "network": {"hidden_layers": 2, "width": 4}}))
        code = main(["adcheck", str(path), "--points", "4", flag, value])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config: ")
        assert flag in captured.err
        assert captured.out == ""


# Runs `cli.main` on each argv of a JSON list under an address-space limit, so
# that a missing size guard fails as a MemoryError instead of swapping the
# host, and prints [exit code or escaped exception, stderr] per case.
_GUARDED_MAIN = """
import io, json, resource, sys, warnings
from contextlib import redirect_stderr, redirect_stdout
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
warnings.simplefilter("always")
from hydropinn.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    try:
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(argv)
    except Exception as exc:
        code = f"{type(exc).__name__}: {exc}"
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


class TestNoRawFailure:
    def test_overflow_oversize_and_non_finite_cases_exit_1_categorized(
            self, tiny_train_config, tiny_dataset, tiny_scenario_file, checkpoint, tmp_path):
        """Each input exits 1 and its first stderr line is the categorized
        error, not a traceback or a numpy warning, with the fragments that
        name the key or quantity."""
        def dataset(name, edit_meta=None, edit_lines=None):
            path = tmp_path / f"{name}.csv"
            lines = tiny_dataset.read_text().split("\n")
            if edit_lines:
                edit_lines(lines)
            path.write_text("\n".join(lines))
            meta = json.loads(meta_path(tiny_dataset).read_text())
            if edit_meta:
                edit_meta(meta)
            meta_path(path).write_text(json.dumps(meta))
            return str(path)

        def interior_cell(lines):
            # line 7 is x = 500 m, t = 1 s: an interior column
            fields = lines[7].split(",")
            assert fields[0] == "500"
            lines[7] = ",".join(fields[:2] + ["1e300"] + fields[3:])

        big_theta = tmp_path / "big_theta.npz"
        with np.load(checkpoint) as data:
            arrays = {k: data[k] for k in data.files}
        np.savez(big_theta, **{**arrays, "theta": arrays["theta"] * 1e200})
        big_spec = tmp_path / "big_spec.npz"
        shutil.copy(checkpoint, big_spec)
        write_checkpoint_meta(big_spec, lambda m: m["spec"].update(hidden_layers=2**70))

        ckpt, data, out = str(checkpoint), str(tiny_dataset), str(tmp_path / "m.npz")
        cases = [
            (["eval", ckpt, dataset("wide", lambda m: m["pipe"].update(diameter_m=1e300))],
             "domain", "flow area of diameter 1e+300 m"),
            (["train", str(tiny_train_config),
              dataset("fast", lambda m: m.update(wave_speed_mps=1e300)), "-o", out],
             "domain", "rho_a2_over_1e6 overflows"),
            (["eval", str(big_theta), data], "numeric", "model 'kih'"),
            (["eval", ckpt, dataset("cell", edit_lines=interior_cell)],
             "numeric", "non-finite pressure metrics"),
            (["eval", str(big_spec), data], "config", f"{big_spec}: spec: hidden_layers"),
        ]
        for key, value in (("hidden_layers", 1e300), ("hidden_layers", 2**70),
                           ("width", 1e300), ("width", 2**70)):
            cfg = json.loads(tiny_train_config.read_text())
            cfg["network"][key] = value
            path = tmp_path / f"{key}_{value:.0e}.json"
            path.write_text(json.dumps(cfg))
            cases += [(["train", str(path), data, "-o", out], "config", f"network.{key}"),
                      (["adcheck", str(path)], "config", f"network.{key}")]

        # an integer literal past Python's 4,300-digit int-string limit, which
        # json.loads raises as a plain ValueError
        def big_int(name, obj, edit):
            edit(obj)
            path = tmp_path / name
            path.write_text(json.dumps(obj).replace('"BIG"', "9" * 5000))
            return str(path)

        big_cfg = big_int("big_seed.json", json.loads(tiny_train_config.read_text()),
                          lambda c: c.update(seed="BIG"))
        big_scenario = big_int("big_duration.json",
                               json.loads(tiny_scenario_file.read_text()),
                               lambda sc: sc.update(duration_s="BIG"))
        big_sidecar = dataset("big_sidecar")
        big_int(meta_path(big_sidecar).name, json.loads(meta_path(tiny_dataset).read_text()),
                lambda m: m.update(wave_speed_mps="BIG"))
        cases += [
            (["train", big_cfg, data, "-o", out], "config", f"train config {big_cfg}"),
            (["adcheck", big_cfg], "config", f"train config {big_cfg}"),
            (["generate", big_scenario, "-o", out], "config", f"scenario file {big_scenario}"),
            (["train", str(tiny_train_config), big_sidecar, "-o", out], "config",
             str(meta_path(big_sidecar))),
        ]

        def scenario_with(name, **edits):
            path = tmp_path / name
            path.write_text(json.dumps({**json.loads(tiny_scenario_file.read_text()),
                                        **edits}))
            return str(path)

        long_scenario = scenario_with("long.json", duration_s=1e300)
        # numpy overflows in the steady state and in the flow area before these
        # errors unless the CLI silences its warnings
        torrent = scenario_with("torrent.json", outlet_flowrate_m3ps=[[0.0, 1e300]])
        hairline = scenario_with("hairline.json",
                                 pipe={"length_m": 2000.0, "diameter_m": 1e-300})
        hairline_sidecar = dataset("hairline",
                                   lambda m: m["pipe"].update(diameter_m=1e-300))
        cases += [
            (["generate", torrent, "-o", out, "--moc-dt", "0.05"], "domain",
             "steady pressure reaches -inf MPa"),
            (["generate", hairline, "-o", out], "domain",
             "the flow area of diameter 1e-300 m underflows to 0"),
            (["train", str(tiny_train_config), hairline_sidecar, "-o", out], "domain",
             "the flow area of diameter 1e-300 m underflows to 0"),
        ]
        scenario = str(tiny_scenario_file)
        cases += [
            (["generate", scenario, "-o", out, "--moc-dt", "1e-9"], "grid",
             "one MOC time row at dt=1e-09 s has 1 x 1."),
            (["generate", scenario, "-o", out, "--moc-dt", "1e-5"], "grid",
             "the MOC field of 60.0 s at dt=1e-05 s has 6e+06 x"),
            (["generate", scenario, "-o", out, "--grid-dx", "1e-9"], "grid",
             "the export grid has 121 x 2e+12 points"),
            (["generate", scenario, "-o", out, "--grid-dt", "1e-9"], "grid",
             "the export grid has 6e+10 x 3 points"),
            (["generate", long_scenario, "-o", out], "grid",
             "the export grid has 2e+300 x 3 points"),
        ]

        src = str(Path(hydropinn.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        argvs = [argv for argv, _, _ in cases]
        child = subprocess.run([sys.executable, "-c", _GUARDED_MAIN, json.dumps(argvs)],
                               capture_output=True, text=True, env=env, timeout=60)
        assert child.returncode == 0, child.stderr
        for (argv, category, fragment), (code, err) in zip(cases,
                                                           json.loads(child.stdout)):
            first = err.split("\n", 1)[0]
            assert code == 1, (argv, code, err)
            assert first.startswith(f"error: {category}: ") and fragment in first, argv
        assert not Path(out).exists()
