"""Iterative aggregation/disaggregation solver.

One outer step is a coarse correction (solve the small aggregated chain,
spread its steady state over the fine states in the proportions of the
current iterate) followed by a single smoothing application of P. The
iteration stops when both the step change and the fine-level residual
drop below a relative tolerance.
"""

import numbers

import numpy as np
import scipy.sparse

from .chain import ProbabilityVector, _gth, _require_positive
from .coarse import (Partition, coarse_matrix, coarse_pattern, disaggregate,
                     disaggregation_weights, make_partition)
from .errors import DimensionError, NonConvergenceError, ReducibleMatrixError

from collections import deque
from dataclasses import dataclass, field

_TAIL = 64  # iterates a trace keeps: the tail empirical_rate fits
# Fewest non-adjacent strata put last. A run of 2 or 3 (the 2D chain's
# 2x2 and 3x3 grids) saved no step time, measured with the run searched
# for at every step; a lower value would relabel those solves and move
# their iterates at roundoff.
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


@dataclass(frozen=True)
class IadPlan:
    """All that the IAD steps of P on some strata share (make_plan): the
    strata `part` relabelled by _independent_last, their
    `coarse_pattern`, the start `tail` of the trailing run of mutually
    non-adjacent strata that the coarse GTH censors at once (_gth), and
    P's matrix `mat` for the step's products (a CSR copy of a sparse P:
    the same bits as CSC, and faster).

    `tail` is n less the size of the greedy set put last, n when none
    is: a C(nu) has at most the pattern's nonzeros (fewer only where a
    sum underflows or cancels), so the run stays mutually non-adjacent."""

    part: Partition
    pattern: tuple
    tail: int
    mat: "np.ndarray | scipy.sparse.csr_array"


def make_plan(P, part):
    """The IadPlan of the IAD steps of P on `part`; a sparse P is copied
    to CSR, which thousands of steps repay. The one place that picks the
    coarse GTH's run: the greedy set _independent_last puts last. The
    relabelled pattern is coarse_pattern(P, part) with its keys renamed:
    each coarse entry still sums the same terms in the same order."""
    pattern = coarse_pattern(P, part)
    last, r = _independent_last(part, pattern)
    if r:
        n, cols = part.n, pattern[0]
        rename = np.empty(n, dtype=int)
        rename[part.assignment] = last.assignment
        keys = rename[pattern[1] // n] * n + last.assignment[cols]
        pattern = (cols, keys, pattern[2])
    mat = P.mat.tocsr() if scipy.sparse.issparse(P.mat) else P.mat
    return IadPlan(part=last, pattern=pattern, tail=part.n - r, mat=mat)


def _max_rel_gap(x, ref):
    """max |x - ref| / ref, in one temporary."""
    gap = x - ref
    np.abs(gap, out=gap)
    gap /= ref
    return gap.max()


def coarse_steady_state(plan, w):
    """The steady state z of one step's coarse chain C(nu), with D(nu)'s
    entries w on the plan's strata: coarse_matrix's new buffer, eliminated
    in place by steady_state's GTH kernel as the F-ordered C(nu)^T that
    steady_state would copy, from the plan's tail start. A reducible
    coarse chain raises ReducibleMatrixError, which is how the known
    pathological aggregations surface."""
    C = coarse_matrix(w, plan.part, plan.pattern).mat
    return _gth(C.T, plan.tail)


def iad_step(plan, mu_k):
    """One coarse correction plus one smoothing application of P, on a
    make_plan plan: the weights w of D(mu_k) (one stratum-mass
    aggregate), the coarse steady state z (coarse_steady_state), and
    P D(mu_k) z, normalized. An iterate with a zero, negative, NaN or
    infinite entry raises ValueError.
    """
    x = mu_k.probs
    _require_positive(x, "iad_step: iterate")
    w = disaggregation_weights(x, plan.part)
    z = coarse_steady_state(plan, w)
    out = plan.mat @ disaggregate(z, w, plan.part)
    return ProbabilityVector(probs=out / out.sum())


def _independent_last(part, pattern):
    """`part` relabelled so that a greedy maximal set of mutually
    non-adjacent strata in the graph of the coarse chains C(nu) (C[i, b]
    for each key i n + b of `pattern`) takes the last labels, and the
    set's size r; (`part`, 0) when r < _MIN_RUN. The set is maximal, so
    every other stratum touches it: no longer trailing run exists."""
    n = part.n
    adj = np.zeros(n * n, dtype=bool)
    adj[pattern[1]] = True  # through .flat, 6x slower
    adj = adj.reshape(n, n)
    adj |= adj.T
    free = np.ones(n, dtype=bool)
    last = np.zeros(n, dtype=bool)
    for i in range(n):
        if free[i]:
            last[i] = True
            free &= ~adj[i]
    r = np.count_nonzero(last)
    if r < _MIN_RUN:
        return part, 0
    # the other strata first, then the set, each in label order
    rank = np.argsort(np.argsort(last, kind="stable"))
    return make_partition(rank[part.assignment], n), r


def iad_solve(P, part, mu0, cfg=None):
    """Iterate iad_step from mu0 until both relative criteria fall
    below cfg.tau; returns (steady state estimate, trace).

    Once per solve, it refuses a start of the wrong shape
    (DimensionError), one with a zero, negative, NaN or infinite entry
    (ValueError) and a zero row of P, a transient state
    (ReducibleMatrixError), and plans the steps with make_plan (its
    relabelled strata change no iterate beyond roundoff). Each step is
    then one iad_step on that plan, and one more product with P for the
    residual. A converged entry below the smallest normal float, which
    the relative criteria cannot vouch for, is a decayed transient
    state, as of a transient class whose rows are not zero: it raises
    ReducibleMatrixError.

    Raises NonConvergenceError carrying the trace when max_outer is
    exhausted, which some aggregation choices genuinely trigger.
    """
    if cfg is None:
        cfg = IadConfig()
    if mu0.probs.shape != (P.n,):
        raise DimensionError(f"iad_solve: mu0 has shape {mu0.probs.shape}, P {P.n} states")
    _require_positive(mu0.probs, "iad_solve: mu0")
    into = P.mat @ np.ones(P.n)  # row sums: the mass each state receives
    if not into.min() > 0.0:
        raise ReducibleMatrixError(f"iad_solve: transient state {into.argmin()}")
    plan = make_plan(P, part)
    trace = IadTrace(iterates=deque([mu0], maxlen=_TAIL))
    mu_old = mu0
    for _ in range(cfg.max_outer):
        mu_new = iad_step(plan, mu_old)
        new = mu_new.probs
        change = _max_rel_gap(new, mu_old.probs)
        resid = _max_rel_gap(new, plan.mat @ new)
        trace.iterates.append(mu_new)
        trace.rel_changes.append(float(change))
        trace.residuals.append(float(resid))
        if change <= cfg.tau and resid <= cfg.tau:
            if new.min() < np.finfo(float).tiny:
                raise ReducibleMatrixError(f"iad_solve: transient state {new.argmin()} "
                                           f"(converged to {new.min():.3g})")
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
