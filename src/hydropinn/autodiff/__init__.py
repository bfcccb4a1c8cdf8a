from .activations import sigmoid, softplus
from .fdcheck import FdReport, fd_check
from .tape import Tape, Var

__all__ = [
    "sigmoid",
    "softplus",
    "FdReport",
    "fd_check",
    "Tape",
    "Var",
]
