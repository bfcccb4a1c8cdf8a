from .fdcheck import FdReport, fd_check
from .tape import Tape, Var

__all__ = [
    "FdReport",
    "fd_check",
    "Tape",
    "Var",
]
