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

from .chain import ProbabilityVector, _gth, _independent_tail
from .coarse import (Partition, coarse_matrix, coarse_pattern, disaggregate,
                     disaggregation_weights, make_partition)
from .errors import NonConvergenceError, ReducibleMatrixError

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
class _Plan:
    """What every IAD step on `part` shares, as it depends only on P and
    the strata: their `coarse_pattern`, the start `tail` of the trailing
    run of mutually non-adjacent strata that the coarse GTH censors at
    once, and P's matrix for the step's products (in a solve's plan a
    CSR copy of a sparse P: the same bits as CSC, and faster).

    `tail` is read off the pattern, not off the numbers of each C(nu):
    a C(nu) has at most the pattern's nonzeros (fewer only where a sum
    underflows or cancels), so the run stays mutually non-adjacent."""

    part: Partition
    pattern: tuple
    tail: int
    mat: "np.ndarray | scipy.sparse.csr_array"


def _coarse_graph(pattern, n):
    """The n x n nonzero pattern of the coarse chains C(nu): C[i, b] for
    each key i n + b of coarse_pattern."""
    graph = np.zeros(n * n, dtype=bool)
    graph[pattern[1]] = True  # through .flat, 6x slower
    return graph.reshape(n, n)


def _plan(part, pattern, mat):
    """The _Plan of steps on `part`, `pattern` its coarse_pattern and
    `mat` P's matrix for the products."""
    tail = _independent_tail(_coarse_graph(pattern, part.n))
    return _Plan(part=part, pattern=pattern, tail=tail, mat=mat)


def _solve_plan(P, part):
    """The _Plan of a solve, on `part` relabelled by _independent_last,
    with a sparse P copied to CSR, which thousands of steps repay. The
    relabelled pattern is the given one with its keys renamed: each
    coarse entry still sums the same terms in the same order."""
    pattern = coarse_pattern(P, part)
    last = _independent_last(P, part, pattern)
    if last is not part:
        n, cols = part.n, pattern[0]
        rename = np.empty(n, dtype=int)
        rename[part.assignment] = last.assignment
        keys = rename[pattern[1] // n] * n + last.assignment[cols]
        pattern = (cols, keys, pattern[2])
    return _plan(last, pattern, P.mat.tocsr() if scipy.sparse.issparse(P.mat) else P.mat)


def _require_positive(x, what):
    """Refuse a vector with a zero, negative, NaN or infinite entry."""
    if not (x.min() > 0.0 and x.max() < np.inf):
        raise ValueError(f"{what} must be finite and strictly positive")


def _max_rel_gap(x, ref):
    """max |x - ref| / ref, in one temporary."""
    gap = x - ref
    np.abs(gap, out=gap)
    gap /= ref
    return gap.max()


def coarse_steady_state(P, w, plan):
    """The steady state z of one step's coarse chain C(nu), with D(nu)'s
    entries w and iad_step's plan: coarse_matrix's new buffer, eliminated
    in place by steady_state's GTH kernel as the F-ordered C(nu)^T that
    steady_state would copy, from the plan's tail start. A reducible
    coarse chain raises ReducibleMatrixError, which is how the known
    pathological aggregations surface."""
    C = coarse_matrix(P, w, plan.part, plan.pattern).mat
    return _gth(C.T, plan.tail)


def iad_step(P, part, mu_k, pattern=None):
    """One coarse correction plus one smoothing application of P: the
    weights w of D(mu_k) (one stratum-mass aggregate), the coarse steady
    state z (coarse_steady_state), and P D(mu_k) z, normalized.

    `pattern` is coarse_pattern(P, part), built here when not given, or
    the plan iad_solve builds once per solve for the strata `part`, with
    P as CSR; the step is the same either way, bit for bit. An iterate
    with a zero, negative, NaN or infinite entry raises ValueError.
    """
    if isinstance(pattern, _Plan):
        plan = pattern
    else:
        plan = _plan(part, coarse_pattern(P, part) if pattern is None else pattern, P.mat)
    x = mu_k.probs
    _require_positive(x, "iad_step: iterate")
    w = disaggregation_weights(x, plan.part)
    z = coarse_steady_state(P, w, plan)
    out = plan.mat @ disaggregate(z, w, plan.part)
    return ProbabilityVector(probs=out / out.sum())


def _independent_last(P, part, pattern=None):
    """`part` with its strata relabelled so that a greedy maximal set of
    mutually non-adjacent ones, in the graph of the coarse chains C(nu)
    (_coarse_graph of `pattern`, coarse_pattern(P, part), built here when
    not given), takes the last labels, where the coarse GTH censors them
    in one product; `part` itself when that set has fewer than _MIN_RUN
    strata."""
    n = part.n
    adj = _coarse_graph(coarse_pattern(P, part) if pattern is None else pattern, n)
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

    Once per solve, it refuses a start with a zero, negative, NaN or
    infinite entry (ValueError) and a zero row of P, a transient state
    (ReducibleMatrixError), and plans the steps: it relabels `part` by
    _independent_last (the labels change no iterate beyond roundoff),
    takes its coarse_pattern, the coarse GTH's tail start and, for a
    sparse P, a CSR copy of P. Each step is then one iad_step on that
    plan, and one more product with P for the residual.

    Raises NonConvergenceError carrying the trace when max_outer is
    exhausted, which some aggregation choices genuinely trigger.
    """
    if cfg is None:
        cfg = IadConfig()
    _require_positive(mu0.probs, "iad_solve: mu0")
    into = P.mat @ np.ones(P.n)  # row sums: the mass each state receives
    if not into.min() > 0.0:
        raise ReducibleMatrixError(f"iad_solve: transient state {into.argmin()}")
    plan = _solve_plan(P, part)
    trace = IadTrace(iterates=deque([mu0], maxlen=_TAIL))
    mu_old = mu0
    for _ in range(cfg.max_outer):
        mu_new = iad_step(P, plan.part, mu_old, plan)
        new = mu_new.probs
        change = _max_rel_gap(new, mu_old.probs)
        resid = _max_rel_gap(new, plan.mat @ new)
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
