"""Iterative aggregation/disaggregation solver.

One outer step is a coarse correction (solve the small aggregated chain,
spread its steady state over the fine states in the proportions of the
current iterate) followed by a single smoothing application of P. The
iteration stops when both the step change and the fine-level residual
drop below a relative tolerance.
"""

import numbers

import numpy as np

from .chain import ProbabilityVector, steady_state
from .coarse import (coarse_matrix, coarse_pattern, disaggregate,
                     disaggregation_weights, make_partition)
from .errors import NonConvergenceError, ReducibleMatrixError

from collections import deque
from dataclasses import dataclass, field

_TAIL = 64  # iterates a trace keeps: the tail empirical_rate fits
# Fewest non-adjacent strata worth putting last: steady_state's search for
# a shorter run costs about what eliminating it at once saves (on the 2D
# chain, a 2x2 grid's run of 2 made a step 8 us slower, a 3x3 grid's run
# of 3 left it even).
_MIN_RUN = 4


@dataclass(frozen=True)
class IadConfig:
    tau: float = 1e-9
    max_outer: int = 10000

    def __post_init__(self):
        if isinstance(self.tau, bool) or not (
                isinstance(self.tau, numbers.Real) and 0 < self.tau < np.inf):
            raise ValueError("IadConfig: tau must be a finite positive number")
        if isinstance(self.max_outer, bool) or not isinstance(
                self.max_outer, (int, np.integer)) or self.max_outer < 1:
            raise ValueError("IadConfig: max_outer must be an integer of at least 1")


@dataclass
class IadTrace:
    """History of one solve: the last _TAIL iterates mu^k, plus every
    step's change and residual maxima used by the stopping rule."""

    iterates: deque = field(default_factory=lambda: deque(maxlen=_TAIL))
    rel_changes: list = field(default_factory=list)
    residuals: list = field(default_factory=list)


def iad_step(P, part, mu_k, pattern=None):
    """One coarse correction plus one smoothing application of P;
    `pattern` is coarse_pattern(P, part), which iad_solve builds once."""
    if np.any(mu_k.probs <= 0):
        raise ValueError("iad_step: iterate must be strictly positive")
    w = disaggregation_weights(mu_k.probs, part)
    C = coarse_matrix(P, w, part, pattern)
    # a reducible coarse matrix raises, which is how the known
    # pathological aggregations surface
    z = steady_state(C)
    half = disaggregate(z.probs, w, part)
    out = P.mat @ half
    return ProbabilityVector(probs=out / out.sum())


def _independent_last(P, part):
    """`part` with its strata relabelled so that a greedy maximal set of
    mutually non-adjacent ones, in the graph of the coarse chains C(nu)
    (the keys of coarse_pattern, the same for every positive nu), takes
    the last labels, where steady_state censors them in one product;
    `part` itself when that set has fewer than _MIN_RUN strata."""
    n = part.n
    adj = np.zeros((n, n), dtype=bool)
    adj.flat[coarse_pattern(P, part)[1]] = True
    adj |= adj.T
    free = np.ones(n, dtype=bool)
    last = np.zeros(n, dtype=bool)
    for i in range(n):
        if free[i]:
            last[i] = True
            free &= ~adj[i]
    if np.count_nonzero(last) < _MIN_RUN:
        return part
    # the other strata first, then the set, each in label order
    rank = np.argsort(np.argsort(last, kind="stable"))
    return make_partition(rank[part.assignment], n)


def iad_solve(P, part, mu0, cfg=None):
    """Iterate iad_step from mu0 until both relative criteria fall
    below cfg.tau; returns (steady state estimate, trace).

    The steps run on `part` relabelled by _independent_last, once per
    solve; the labels change no iterate beyond roundoff.

    A zero row of P, a transient state, raises ReducibleMatrixError.
    Raises NonConvergenceError carrying the trace when max_outer is
    exhausted, which some aggregation choices genuinely trigger.
    """
    if cfg is None:
        cfg = IadConfig()
    if np.any(mu0.probs <= 0):
        raise ValueError("iad_solve: mu0 must be strictly positive")
    into = P.mat @ np.ones(P.n)  # row sums: the mass each state receives
    if not into.min() > 0.0:
        raise ReducibleMatrixError(f"iad_solve: transient state {into.argmin()}")
    part = _independent_last(P, part)
    pattern = coarse_pattern(P, part)
    trace = IadTrace(iterates=deque([mu0], maxlen=_TAIL))
    mu_old = mu0
    for _ in range(cfg.max_outer):
        mu_new = iad_step(P, part, mu_old, pattern)
        change = np.max(np.abs(mu_new.probs - mu_old.probs) / mu_old.probs)
        smoothed = P.mat @ mu_new.probs
        resid = np.max(np.abs(smoothed - mu_new.probs) / smoothed)
        trace.iterates.append(mu_new)
        trace.rel_changes.append(float(change))
        trace.residuals.append(float(resid))
        if change <= cfg.tau and resid <= cfg.tau:
            return mu_new, trace
        mu_old = mu_new
    raise NonConvergenceError(
        f"iad_solve: no convergence in {cfg.max_outer} outer steps",
        trace=trace,
    )


def empirical_rate(trace, mu):
    """Observed asymptotic contraction factor of a solve.

    Fits a least-squares line to log of the weighted error
    ||mu^k - mu||_{1/mu} over the last half of the trace's iterates whose
    error is above 100x machine epsilon; returns exp(slope). Too few such
    iterates, as a solve driven down to roundoff leaves, raise ValueError.
    """
    m = mu.probs
    errs = np.array(
        [np.sqrt(np.sum((it.probs - m) ** 2 / m)) for it in trace.iterates]
    )
    usable = errs > 100 * np.finfo(float).eps
    if np.count_nonzero(usable) < 8:
        raise ValueError("empirical_rate: need at least 8 usable iterates")
    idx = np.nonzero(usable)[0]
    tail = idx[len(idx) // 2 :]
    slope = np.polyfit(tail.astype(float), np.log(errs[tail]), 1)[0]
    return float(np.exp(slope))
