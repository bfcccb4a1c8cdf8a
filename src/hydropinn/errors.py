"""Exception types shared across the package.

The CLI maps these onto one-line ``error: <category>`` messages, so new
exception classes should subclass one of the categories below rather than
raising bare ``Exception``.
"""


class HydropinnError(Exception):
    """Base class for all package errors."""

    category = "internal"


class DomainError(HydropinnError, ValueError):
    """Physically invalid input (non-positive diameter, bad spec field...)."""

    category = "domain"


class InfeasibleSteadyStateError(DomainError):
    """Steady profile would require negative pressure somewhere."""


class GridError(HydropinnError):
    """MOC grid cannot be built for the requested time step."""

    category = "grid"


class NumericalBlowupError(HydropinnError):
    """NaN/Inf appeared during time stepping; carries the step index."""

    category = "numeric"

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class TrainingDivergedError(HydropinnError):
    """Training loss exceeded the divergence threshold; `train` attaches the
    partial trace as `.trace`."""

    category = "numeric"


class ConfigError(HydropinnError):
    """Malformed configuration, scenario, or checkpoint content."""

    category = "config"
