"""Command-line surface: generate / train / eval / compare / adcheck.

Exit codes: 0 success, 2 usage problems, 1 anything else (the first stderr
line is `error: <category>: <detail>` with a stable category word).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from dataclasses import asdict, replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from .adcheck import adcheck_from_config
from .dataset import DatasetMeta, meta_path, read_dataset, write_dataset
from .errors import HydropinnError, NumericalBlowupError, TrainingDivergedError
from .metrics import compare as compare_models
from .moc import export_grid, run_details, sample
from .network import load_checkpoint, save_checkpoint
from .scenario import load_scenario
from .training import TAPED_FORWARD_DTYPE, TrainingData, load_train_config, train

RUN_FORMAT = "hydropinn-run/1"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@click.group()
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the config/default random seed.")
@click.option("--out-dir", type=click.Path(file_okay=False), default=None,
              help="Directory for output files (created if missing).")
@click.option("--format", "fmt", type=click.Choice(["table", "csv"]),
              default="table", show_default=True,
              help="Report rendering for eval/compare.")
@click.pass_context
def cli(ctx, seed, out_dir, fmt):
    """Pipeline hydraulic-transient simulation and physics-informed training."""
    ctx.obj = {"seed": seed, "out_dir": out_dir, "fmt": fmt}


def _resolve_output(ctx_obj, path) -> Path:
    out = Path(path)
    if ctx_obj.get("out_dir") and not out.is_absolute():
        base = Path(ctx_obj["out_dir"])
        base.mkdir(parents=True, exist_ok=True)
        out = base / out
    return out


def _numerics() -> dict:
    """What sets a run's floating-point results beyond its config and data:
    the BLAS numpy was built against, the thread-count variables as the
    process saw them (None when unset), and the dtype of training's taped
    network forward."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = {}
    return {"blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": {var: os.environ.get(var) for var in THREAD_VARIABLES},
            "taped_forward_dtype": np.dtype(TAPED_FORWARD_DTYPE).name}


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _parse_breaks(ctx, param, text):
    """`--segment-breaks` as floats; a non-number is a usage error naming it."""
    if not text:
        return None
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:  # its message names the token
        raise click.BadParameter(str(exc)) from None


segment_breaks_option = click.option(
    "--segment-breaks", default=None, callback=_parse_breaks,
    help="Comma-separated x positions [m] splitting the report.")


@cli.command()
@click.argument("scenario_path", type=click.Path())
@click.option("-o", "--output", required=True, help="Dataset CSV path.")
@click.option("--moc-dt", default=0.5, show_default=True,
              help="Internal solver time step [s].")
@click.option("--grid-dx", default=1000.0, show_default=True,
              help="Dataset column spacing [m].")
@click.option("--grid-dt", default=0.5, show_default=True,
              help="Dataset row spacing [s].")
@click.pass_obj
def generate(obj, scenario_path, output, moc_dt, grid_dx, grid_dt):
    """Run the reference solver on SCENARIO_PATH and export a dataset CSV."""
    scenario = load_scenario(scenario_path)
    xs, ts = export_grid(scenario.pipe.length, scenario.duration, grid_dx, grid_dt)
    field, grid, pipe = run_details(scenario, moc_dt)
    sampled = sample(field, xs, ts)
    meta = DatasetMeta(
        pipe=pipe,
        fluid=scenario.fluid,
        wave_speed=grid.wave_speed,
        offtake_x=None if scenario.offtake is None else scenario.offtake.position,
    )
    out = _resolve_output(obj, output)
    write_dataset(sampled, meta, out)
    click.echo(f"wrote {sampled.ts.size}x{sampled.xs.size} grid to {out} "
               f"(wave speed {grid.wave_speed:.1f} m/s, "
               f"f={pipe.friction_factor:.4g})")


@cli.command("train")
@click.argument("config_path", type=click.Path())
@click.argument("dataset_path", type=click.Path())
@click.option("-o", "--output", required=True, help="Checkpoint path (.npz).")
@click.option("--log-every", type=click.IntRange(min=0), default=1000, show_default=True)
@click.pass_obj
def train_cmd(obj, config_path, dataset_path, output, log_every):
    """Train a model from CONFIG_PATH on DATASET_PATH."""
    cfg = load_train_config(config_path)
    if obj.get("seed") is not None:
        cfg = replace(cfg, seed=obj["seed"])
    field, meta = read_dataset(dataset_path)
    dataset = {"csv_sha256": _sha256(dataset_path),
               "meta_sha256": _sha256(meta_path(dataset_path))}
    data = TrainingData.from_dataset(field, meta)
    out = _resolve_output(obj, output)
    trace_path = Path(str(out) + ".trace.csv")
    run_path = Path(str(out) + ".run.json")
    record = {"format": RUN_FORMAT, "config": cfg.to_dict(),
              "versions": {"hydropinn": __version__, "numpy": np.__version__,
                           "python": platform.python_version()},
              "numerics": _numerics(), "dataset": dataset}

    def write_record(trace, error=None):
        trace.write_csv(trace_path)
        record.update(stages=[asdict(s) for s in trace.stage_summaries],
                      warnings=trace.warnings, error=error)
        run_path.write_text(json.dumps(record, indent=2) + "\n")

    try:
        spec, params, trace = train(cfg, data, log_every=log_every, log=click.echo)
    except (TrainingDivergedError, NumericalBlowupError) as exc:
        write_record(exc.trace, f"{exc.category}: {exc}")
        raise
    save_checkpoint(out, spec, params, label=cfg.baseline)
    write_record(trace)
    for w in trace.warnings:
        click.echo(f"warning: {w}", err=True)
    click.echo(f"wrote checkpoint {out}, trace {trace_path} and run record {run_path}")


def _report(obj, models, dataset_path, segment_breaks):
    field, meta = read_dataset(dataset_path)
    report = compare_models(models, field, meta, segment_breaks=segment_breaks)
    if obj.get("fmt") == "csv":
        click.echo(report.to_csv(), nl=False)
    else:
        click.echo(report.to_table(), nl=False)


@cli.command("eval")
@click.argument("checkpoint_path", type=click.Path())
@click.argument("dataset_path", type=click.Path())
@segment_breaks_option
@click.pass_obj
def eval_cmd(obj, checkpoint_path, dataset_path, segment_breaks):
    """Print interior-point metrics for one checkpoint."""
    spec, params, label = load_checkpoint(checkpoint_path)
    name = label or Path(checkpoint_path).stem
    _report(obj, [(name, spec, params)], dataset_path, segment_breaks)


@cli.command("compare")
@click.argument("paths", nargs=-1, required=True)
@segment_breaks_option
@click.pass_obj
def compare_cmd(obj, paths, segment_breaks):
    """Compare checkpoints on a dataset: CKPT... DATASET."""
    if len(paths) < 2:
        raise click.UsageError("need at least one checkpoint and a dataset")
    *ckpts, dataset_path = paths
    models = []
    seen = {}
    for p in ckpts:
        spec, params, label = load_checkpoint(p)
        name = label or Path(p).stem
        seen[name] = seen.get(name, 0) + 1
        if seen[name] > 1:
            name = f"{name}#{seen[name]}"
        models.append((name, spec, params))
    _report(obj, models, dataset_path, segment_breaks)


@cli.command()
@click.argument("config_path", type=click.Path())
@click.option("--points", default=32, show_default=True,
              help="Sample points per loss family.")
@click.option("--fd-step", default=1e-4, show_default=True)
@click.option("--tolerance", default=1e-5, show_default=True)
@click.option("--order", default=4, show_default=True, type=click.Choice(["2", "4"]))
@click.option("--max-coords", default=None, type=int,
              help="Check only a random coordinate subsample.")
@click.pass_obj
def adcheck(obj, config_path, points, fd_step, tolerance, order, max_coords):
    """Check tape gradients of the config's objective by finite differences."""
    cfg = load_train_config(config_path)
    report = adcheck_from_config(
        cfg, n_points=points, seed=obj.get("seed"),
        h=fd_step, tolerance=tolerance, order=int(order),
        max_coordinates=max_coords,
    )
    click.echo(report.summary())
    if not report.passed:
        sys.exit(1)


def main(argv=None) -> int:
    """Run one command with numpy's overflow, invalid and divide warnings
    silenced, so no warning precedes the error line; training reports a
    non-finite trace term as a trace warning instead."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            cli.main(args=argv, prog_name="hydropinn", standalone_mode=False)
    except click.exceptions.UsageError as exc:
        exc.show()
        return 2
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.exceptions.Abort:
        return 130
    except click.exceptions.ClickException as exc:
        exc.show()
        return exc.exit_code
    except SystemExit as exc:
        return int(exc.code or 0)
    except HydropinnError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, IsADirectoryError, PermissionError, OSError) as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
