from .dual import Dual, dual_softplus, sigmoid, softplus
from .fdcheck import FdReport, fd_check
from .tape import Tape, Var, tape_softplus

__all__ = [
    "Dual",
    "dual_softplus",
    "sigmoid",
    "softplus",
    "FdReport",
    "fd_check",
    "Tape",
    "Var",
    "tape_softplus",
]
