import json
import shutil

import numpy as np
import pytest

from conftest import write_checkpoint_meta
from hydropinn.cli import main
from hydropinn.dataset import meta_path, read_dataset
from hydropinn.training import TrainingData


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
        "network": {"hidden_layers": 2, "width": 8, "activation": "softplus"},
        "stage_iterations": [20, 10, 30],
        "batch_size": 32,
        "learning_rate": 1e-4,
        "seed": 0,
        "bc_loss_form": "split",
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
        ("train", lambda d: d.update(learning_rate=float("nan")), "learning_rate"),
        ("train", lambda d: d.update(lr_decay=1.0), "lr_decay"),
        ("train", lambda d: d.update(divergence_threshold=-5.0), "divergence_threshold"),
        ("train", lambda d: d.update(bc_retention_factor=0.0), "bc_retention_factor"),
        ("train", lambda d: d.setdefault("adam", {}).update(beta1=1.0), "adam.beta1"),
        ("train", lambda d: d.setdefault("adam", {}).update(beta2=-0.1), "adam.beta2"),
        ("train", lambda d: d.setdefault("adam", {}).update(eps=0.0), "adam.eps"),
    ], ids=["weigths", "gravity", "hidden_layers", "network", "learning_rate",
            "lr_decay", "divergence_threshold", "bc_retention_factor", "beta1", "beta2",
            "eps"])
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
        assert header == "stage,iter,loss_bc,loss_ic,loss_con,loss_mo,loss_total"

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
            "error: config: missing key 'spec.scaler'")

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

    def test_divergence_is_numeric_error(self, tiny_train_config, tiny_dataset, tmp_path,
                                         capsys):
        cfg = json.loads(tiny_train_config.read_text())
        cfg["divergence_threshold"] = 1e-300
        path = tmp_path / "diverging.json"
        path.write_text(json.dumps(cfg))
        code = main(["train", str(path), str(tiny_dataset), "-o",
                     str(tmp_path / "m.npz"), "--log-every", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: numeric: stage 1 diverged at iteration 0")

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
