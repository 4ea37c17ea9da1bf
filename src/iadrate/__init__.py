"""Steady states of finite Markov chains by iterative
aggregation/disaggregation, with exact asymptotic convergence rates and
interpretable upper bounds."""

from . import chain, coarse, diagnostics, iad, linalg, models
from .chain import ProbabilityVector, StochasticMatrix, steady_state
from .coarse import Partition, make_partition
from .diagnostics import RateReport, full_report
from .errors import IadError, NonConvergenceError
from .iad import IadConfig, IadTrace, iad_solve

__all__ = [
    "chain", "coarse", "diagnostics", "iad", "linalg", "models",
    "ProbabilityVector", "StochasticMatrix", "steady_state",
    "Partition", "make_partition", "RateReport", "full_report",
    "IadError", "NonConvergenceError", "IadConfig", "IadTrace", "iad_solve",
]

__version__ = "0.1.0"
