"""Hydraulic transient simulation and physics-informed surrogate training."""

from .dataset import DatasetMeta, read_dataset, write_dataset
from .errors import (
    ConfigError,
    DomainError,
    GridError,
    HydropinnError,
    InfeasibleSteadyStateError,
    NumericalBlowupError,
    TrainingDivergedError,
)
from .hydraulics import (
    FluidSpec,
    PipelineSpec,
    SteadyProfile,
    flowrate_to_velocity,
    friction_factor,
    head_to_pressure,
    pressure_to_head,
    steady_profile,
    velocity_to_flowrate,
    wave_speed,
)
from .losses import CollocationSet, LossWeights, PhysicsCoefficients, collocation_from_field
from .metrics import (
    MetricsReport,
    MetricsRow,
    compare,
    evaluate_model,
    mape,
    predict_field,
    r2,
    residual_series,
    rmse,
)
from .moc import FieldGrid, MocGrid, build_grid, moc_step, run, sample
from .network import (
    InputScaler,
    NetSpec,
    forward_with_input_tangents,
    init_params,
    load_checkpoint,
    net_forward,
    save_checkpoint,
)
from .scenario import Offtake, PiecewiseSignal, Scenario, load_scenario, save_scenario
from .training import (
    TrainConfig,
    TrainingData,
    TrainTrace,
    adam_step,
    train,
)

__version__ = "0.1.0"
