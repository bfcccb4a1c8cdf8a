import json

import numpy as np
import pytest

from hydropinn.dataset import DatasetMeta
from hydropinn.hydraulics import FluidSpec, PipelineSpec
from hydropinn.moc import export_grid, run_details, sample
from hydropinn.scenario import Offtake, PiecewiseSignal, Scenario

Q_START = 154.0 / 3600.0  # m^3/s
Q_END = 120.0 / 3600.0


@pytest.fixture(scope="session")
def fluid():
    return FluidSpec(density=850.0, kinematic_viscosity=5.2e-6, bulk_modulus=1.5e9)


@pytest.fixture(scope="session")
def pipe():
    return PipelineSpec(length=50_000.0, diameter=0.25)


def make_ramp_scenario(pipe, fluid, with_offtake=True):
    """50 km desk case: constant inlet pressure, outlet drawdown over 60 s."""
    offtake = None
    if with_offtake:
        offtake = Offtake(position=25_000.0, flowrate=PiecewiseSignal.constant(0.0))
    return Scenario(
        pipe=pipe,
        fluid=fluid,
        duration=600.0,
        inlet_pressure=PiecewiseSignal.constant(1.48),
        outlet_flowrate=PiecewiseSignal.from_breakpoints(
            [[0.0, Q_START], [120.0, Q_START], [180.0, Q_END], [600.0, Q_END]]
        ),
        offtake=offtake,
    )


@pytest.fixture(scope="session")
def ramp_scenario(pipe, fluid):
    return make_ramp_scenario(pipe, fluid)


def write_checkpoint_meta(path, edit) -> None:
    """Rewrite the checkpoint at `path` with `edit` applied to its meta dict."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays.pop("meta")))
    edit(meta)
    np.savez(path, meta=np.asarray(json.dumps(meta)), **arrays)


@pytest.fixture(scope="session")
def desk_dataset(ramp_scenario):
    """Sampled 1 km x 0.5 s dataset of the ramp scenario plus metadata."""
    field, grid, frozen_pipe = run_details(ramp_scenario, 0.5)
    xs, ts = export_grid(frozen_pipe.length, ramp_scenario.duration)
    sampled = sample(field, xs, ts)
    meta = DatasetMeta(
        pipe=frozen_pipe,
        fluid=ramp_scenario.fluid,
        wave_speed=grid.wave_speed,
        offtake_x=25_000.0,
    )
    return sampled, meta


@pytest.fixture(scope="session")
def moc_field(ramp_scenario):
    return run_details(ramp_scenario, 0.5)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
