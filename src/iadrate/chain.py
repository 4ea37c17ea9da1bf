"""Column-stochastic matrices: validation, steady states, time reversal,
and the spectrum of the time-reversal composition P* P in l2(1/mu).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import linalg
from .errors import (
    DimensionError,
    InconsistentSteadyStateError,
    NotStochasticError,
    ReducibleMatrixError,
)

NEG_CLAMP = 1e-14
COLSUM_TOL = 1e-12
REVERSIBLE_TOL = 1e-10
# States censored per block of the steady-state elimination.
_GTH_BLOCK = 64


@dataclass(frozen=True)
class StochasticMatrix:
    """Column-stochastic matrix, stored in the format it is given.

    A dense array stays dense; sparse input becomes canonical CSC (a float
    `scipy.sparse.csc_array` with sorted indices and no duplicates). This
    module owns that decision: other code reads the matrix through
    `dense()` or operations every format supports, such as `mat @ x`.
    """

    mat: "np.ndarray | scipy.sparse.csc_array"

    def __post_init__(self):
        if scipy.sparse.issparse(self.mat):
            csc = scipy.sparse.csc_array(self.mat, dtype=float)
            csc.sum_duplicates()
            object.__setattr__(self, "mat", csc)

    @property
    def n(self):
        return self.mat.shape[0]

    def dense(self):
        """The matrix as a dense array: a new one when stored sparse, the
        stored array itself (not to be written to) when dense."""
        if scipy.sparse.issparse(self.mat):
            # C order, like the dense arrays it meets: an elementwise
            # operation on mixed layouts runs about 2.5x slower
            return self.mat.toarray(order="C")
        return self.mat


@dataclass(frozen=True)
class ProbabilityVector:
    """Nonnegative vector summing to one."""

    probs: np.ndarray


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of P* P: lambdas descending, right vectors
    orthonormal in l2(1/mu)."""

    lambdas: np.ndarray
    right_vectors: np.ndarray


def validate(P):
    """Check a matrix is column stochastic; clamp tiny negatives.

    Dense input is checked and kept dense, sparse input as canonical CSC.
    A NaN or infinite entry fails its column's sum.
    """
    sparse = scipy.sparse.issparse(P)
    if sparse:
        P = scipy.sparse.csc_array(P, dtype=float, copy=True)
        P.sum_duplicates()
        entries = P.data
    else:
        P = np.array(P, dtype=float)
        entries = P
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise DimensionError(f"validate: expected a square matrix, got {P.shape}")
    neg = entries < -NEG_CLAMP
    if neg.any():
        k = np.flatnonzero(neg)[0]
        j = int(np.searchsorted(P.indptr, k, side="right") - 1 if sparse
                else k % P.shape[1])
        raise NotStochasticError(
            f"validate: negative entry in column {j}", column=j
        )
    np.maximum(entries, 0.0, out=entries)
    sums = P.sum(axis=0)
    ok = np.abs(sums - 1.0) <= COLSUM_TOL  # False for NaN and inf sums
    if not ok.all():
        j = int(np.argmin(ok))
        raise NotStochasticError(
            f"validate: column {j} sums to {sums[j]:.17g}", column=j
        )
    return StochasticMatrix(mat=P)


def _independent_tail(A):
    """Start m of the longest trailing run of states m..n-1 that are
    mutually non-adjacent in A (no entry either way between any two of
    them), or n when the last two states are adjacent. State 0 is never
    in the run."""
    n = A.shape[0]
    if n < 2 or A[n - 1, n - 2] or A[n - 2, n - 1]:
        return n
    nz = A != 0
    nz.flat[::n + 1] = True  # the diagonal
    # the last state each state reaches or is reached from, or itself
    last = n - 1 - np.minimum(nz[:, ::-1].argmax(axis=1), nz[::-1].argmax(axis=0))
    later = np.flatnonzero(last > np.arange(n))
    return int(later[-1]) + 1 if later.size else 1


def steady_state(P):
    """Steady state by Grassmann-Taksar-Heyman state reduction.

    Works on the row-stochastic transpose A = P^T and censors states out
    from last to first. The pivot of state k is the mass it sends to the
    states still kept, A[k, :k].sum(), so no step subtracts and every
    component comes out to high relative accuracy.

    A trailing run of mutually non-adjacent states, such as iad_solve
    puts last in a coarse chain, goes first and at once: censoring one
    of them changes no entry of the others, so their pivots are their
    row sums over the kept states, one product updates the kept block,
    and one product fills the run in at back-substitution. The kept
    states then go _GTH_BLOCK at a time. Within a block, each step first
    brings its own row and column up to date with the block's earlier
    steps, one product each, and updates only the block's square in
    place; the states before the block then take its deferred update as
    one matrix product. The first block (all of a chain with
    n <= _GTH_BLOCK) has no states before it.

    A zero pivot (a closed class among the censored states) or a zero
    component (a transient state) raises ReducibleMatrixError; both are
    exact tests of irreducibility.
    """
    A = np.array(P.dense().T, dtype=float)
    n = P.n
    m = _independent_tail(A)
    if m < n:
        row, col = A[m:, :m], A[:m, m:]
        s = row.sum(axis=1)
        if not s.min() > 0.0:
            k = m + int(np.flatnonzero(s <= 0.0)[-1])
            raise ReducibleMatrixError(
                f"steady_state: P is reducible (zero pivot at state {k})"
            )
        col /= s
        A[:m, :m] += col @ row
    for hi in range(m, 1, -_GTH_BLOCK):
        lo = max(hi - _GTH_BLOCK, 0)
        for k in range(hi - 1, max(lo, 1) - 1, -1):
            if lo:
                A[k, :lo] += A[k, k + 1:hi] @ A[k + 1:hi, :lo]
                A[:lo, k] += A[:lo, k + 1:hi] @ A[k + 1:hi, k]
            row, col = A[k, :k], A[:k, k]
            s = row.sum()
            if s <= 0.0:
                raise ReducibleMatrixError(
                    f"steady_state: P is reducible (zero pivot at state {k})"
                )
            col /= s
            square = A[lo:k, lo:k]
            square += col[lo:, None] * row[lo:]
        if lo:
            A[:lo, :lo] += A[:lo, lo:hi] @ A[lo:hi, :lo]
    pi = np.empty(n)
    pi[0] = 1.0
    for k in range(1, m):
        pi[k] = pi[:k] @ A[:k, k]
    if m < n:
        pi[m:] = pi[:m] @ A[:m, m:]
    if not np.all(pi > 0):
        raise ReducibleMatrixError("steady_state: P is reducible (transient state)")
    return ProbabilityVector(probs=pi / pi.sum())


def time_reversal(P, mu):
    """Time reversal diag(mu) P^T diag(1/mu), stored like P; column
    stochastic, fixes mu."""
    m = mu.probs
    if np.any(m <= 0):
        raise ValueError("time_reversal: mu must be strictly positive")
    if np.max(np.abs(P.mat @ m - m)) > 1e-8:
        raise InconsistentSteadyStateError("time_reversal: mu is not invariant")
    if not scipy.sparse.issparse(P.mat):
        return StochasticMatrix(mat=P.mat.T * m[:, None] * (1.0 / m)[None, :])
    # column j of P is row j of P^T, so P's own arrays are P^T in CSR; each
    # entry P_ij becomes (P_ij m_j) (1 / m_i), the order of the dense product
    ptr, rows = P.mat.indptr, P.mat.indices
    data = P.mat.data * m.repeat(np.diff(ptr)) * (1.0 / m)[rows]
    return StochasticMatrix(
        mat=scipy.sparse.csr_array((data, rows, ptr), shape=P.mat.shape))


def is_irreducible(P):
    """Whether the graph of P's nonzero entries is strongly connected: the
    exact test of irreducibility where steady_state, which makes it by
    elimination, does not run, as for a given mu or for P* P."""
    # imported here: csgraph loads scipy.sparse.linalg and scipy.linalg,
    # about 10 MB of peak RSS, which the solves never need; only ChainRates
    # calls this, and it factors anyway
    import scipy.sparse.csgraph

    return scipy.sparse.csgraph.connected_components(
        P.mat, connection="strong", return_labels=False) == 1


def is_reversible(P, mu):
    """Detailed balance check: P equals its own time reversal entrywise,
    to REVERSIBLE_TOL."""
    return abs(time_reversal(P, mu).mat - P.mat).max() <= REVERSIBLE_TOL


def pstar_p_spectrum(P, mu, k=None):
    """The k leading eigenpairs (default: all) of P* P, the self-adjoint
    composition of the chain with its time reversal in l2(1/mu), and any
    further ones linalg.leading_eigs verified.

    The similarity M = diag(1/sqrt(mu)) P diag(sqrt(mu)) makes M^T M plain
    symmetric; it is applied as two products with P, and eigenvectors map
    back through diag(sqrt(mu)). The leading pair is replaced by the
    analytic (mu, ones). P* P is positive semidefinite, so eigenvalues
    that roundoff leaves slightly negative are clamped to 0.
    """
    m = mu.probs
    if np.any(m <= 0):
        raise ValueError("pstar_p_spectrum: mu must be strictly positive")
    smc, mc = np.sqrt(m)[:, None], m[:, None]
    PT = P.mat.T  # once: each .T of a sparse P builds a new array
    MtM = linalg.block_operator(
        P.n, lambda X: smc * (PT @ ((P.mat @ (smc * X)) / mc)))
    pairs = linalg.leading_eigs(MtM, k, symmetric=True, vectors=True)
    lambdas = np.maximum(pairs.values, 0.0)
    if abs(lambdas[0] - 1.0) > 1e-8:
        raise InconsistentSteadyStateError(
            f"pstar_p_spectrum: leading eigenvalue {lambdas[0]:.12g} != 1"
        )
    right = smc * pairs.vectors
    lambdas[0] = 1.0
    right[:, 0] = m
    return SpectralData(lambdas=lambdas, right_vectors=right)


def save_vector(path, mu):
    """Write a probability vector, one float per line."""
    np.savetxt(str(path), mu.probs, fmt="%.17g")

