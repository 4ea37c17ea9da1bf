"""Column-stochastic matrices: validation, steady states, time reversal,
and the spectrum of the time-reversal composition P* P in l2(1/mu).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import linalg
from .errors import (DimensionError, InconsistentSteadyStateError,
                     NotStochasticError, ReducibleMatrixError)

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


def validate(P):
    """Check a matrix is column stochastic; clamp tiny negatives.

    Dense input is checked and kept dense, sparse input as canonical CSC.
    A NaN or infinite entry fails its column's sum; a matrix with no
    states, or not square, raises DimensionError.
    """
    sparse = scipy.sparse.issparse(P)
    # a copy in StochasticMatrix's storage: the clamp writes to it
    P = StochasticMatrix(mat=P.copy() if sparse else np.array(P, dtype=float)).mat
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] == 0:
        raise DimensionError(f"validate: expected a nonempty square matrix, got {P.shape}")
    _check_stochastic(P)
    return StochasticMatrix(mat=P)


def _require_positive(x, what):
    """Refuse a vector with a zero, negative, NaN or infinite entry."""
    if not (x.min() > 0.0 and x.max() < np.inf):
        raise ValueError(f"{what} must be finite and strictly positive")


def _check_stochastic(P):
    """validate's checks on a square float matrix, dense or CSC, in place:
    raise on an entry below -NEG_CLAMP, clamp the other negatives to 0,
    raise on a column summing off 1 by over COLSUM_TOL. A few reductions
    when they pass; coarse_matrix runs them on its own buffer."""
    sparse = scipy.sparse.issparse(P)
    entries = P.data if sparse else P
    if not entries.min(initial=0.0) >= 0.0:  # a negative or NaN entry
        neg = entries < -NEG_CLAMP
        if neg.any():
            k = np.flatnonzero(neg)[0]
            j = int(np.searchsorted(P.indptr, k, side="right") - 1 if sparse
                    else k % P.shape[1])
            raise NotStochasticError(
                f"validate: negative entry in column {j}", column=j)
        np.maximum(entries, 0.0, out=entries)
    sums = P.sum(axis=0)
    if not np.abs(sums - 1.0).max() <= COLSUM_TOL:  # also for NaN and inf sums
        j = int(np.argmin(np.abs(sums - 1.0) <= COLSUM_TOL))
        raise NotStochasticError(
            f"validate: column {j} sums to {sums[j]:.17g}", column=j)


def steady_state(P):
    """Steady state by Grassmann-Taksar-Heyman state reduction.

    Works on the row-stochastic transpose A = P^T and censors states out
    from last to first. The pivot of state k is the mass it sends to the
    states still kept, A[k, :k].sum(), so no step subtracts and every
    component comes out to high relative accuracy. It eliminates an
    F-ordered copy of P^T by _gth's blocked path, with no trailing run:
    only the IAD solve's coarse_steady_state takes one, from its
    IadPlan's tail.

    A zero pivot (a closed class among the censored states) or a zero
    component (a transient state) raises ReducibleMatrixError; both are
    exact tests of irreducibility.
    """
    A = np.array(P.dense().T, dtype=float)
    return ProbabilityVector(probs=_gth(A, A.shape[0]))


def _gth(A, m):
    """The normalized steady state of the chain with row-stochastic
    A = P^T, by steady_state's elimination, in place on A.

    States m..n-1 (none for m = n) must be a trailing run of mutually
    non-adjacent states, with no entry either way between any two of
    them; make_plan's tail starts such a run. It goes first and at once:
    censoring one of them changes no entry of the others, so their
    pivots are their row sums over the kept states, one product updates
    the kept block, and one product fills the run in at
    back-substitution. Diagonal entries are never read. The kept states
    then go _GTH_BLOCK at a time. Within a block, each step first brings
    its own row and column up to date with the block's earlier steps,
    one product each, and updates only the block's square in place; the
    states before the block then take its deferred update as one matrix
    product. The first block (all of a chain with n <= _GTH_BLOCK) has
    no states before it.

    The results depend on A's memory layout through the BLAS products;
    steady_state and the IAD step both pass an F-ordered A."""
    n = A.shape[0]
    if m < n:
        row, col = A[m:, :m], A[:m, m:]
        s = row.sum(axis=1)
        if not s.min() > 0.0:
            k = m + int(np.flatnonzero(s <= 0.0)[-1])
            raise ReducibleMatrixError(
                f"steady_state: P is reducible (zero pivot at state {k})")
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
                    f"steady_state: P is reducible (zero pivot at state {k})")
            col /= s
            if k > lo + 1:  # else the square is one diagonal entry, which no step reads
                square = A[lo:k, lo:k]
                square += col[lo:, None] * row[lo:]
        if lo:
            A[:lo, :lo] += A[:lo, lo:hi] @ A[lo:hi, :lo]
    pi = np.empty(n)
    pi[0] = 1.0
    for k in range(1, m):
        pi[k] = pi[:k].dot(A[:k, k])
    if m < n:
        pi[m:] = pi[:m] @ A[:m, m:]
    if not pi.min() > 0.0:
        raise ReducibleMatrixError("steady_state: P is reducible (transient state)")
    return pi / pi.sum()


def time_reversal(P, mu):
    """P* = diag(mu) P^T diag(1/mu), the adjoint of P in l2(1/mu), each
    entry (P_ji m_i) (1 / m_j) in one expression for both storages (CSC
    for a sparse P). A mu of the wrong length raises DimensionError, one
    with a zero, negative, NaN or infinite entry ValueError, one that
    sums off 1 by over COLSUM_TOL or is not invariant
    InconsistentSteadyStateError."""
    m = mu.probs
    if m.shape != (P.n,):
        raise DimensionError(f"time_reversal: mu has shape {m.shape}, P {P.n} states")
    _require_positive(m, "time_reversal: mu")
    if abs(m.sum() - 1.0) > COLSUM_TOL or np.max(np.abs(P.mat @ m - m)) > 1e-8:
        raise InconsistentSteadyStateError("time_reversal: mu is not a steady state of P")
    return StochasticMatrix(mat=P.mat.T * m[:, None] * (1.0 / m))


def pstar_p(P, mu):
    """P* P, stored like P: self-adjoint in l2(1/mu), column stochastic.
    lambda_2 = 1 exactly when it is reducible, as for a periodic P."""
    return StochasticMatrix(mat=time_reversal(P, mu).mat @ P.mat)


def is_irreducible(P):
    """Whether the graph of P's nonzero entries is strongly connected: the
    exact test of irreducibility where steady_state, which makes it by
    elimination, does not run, as for a given mu or for P* P."""
    # imported here: csgraph loads scipy.sparse.linalg and scipy.linalg,
    # about 10 MB of peak RSS, which the solves never need; only ChainRates
    # calls this, and it factors anyway
    import scipy.sparse.csgraph

    # csgraph drops dense entries <= 1e-8 and keeps stored zeros: use the nonzeros
    G = scipy.sparse.csr_array(P.mat)
    G.eliminate_zeros()
    return scipy.sparse.csgraph.connected_components(
        G, connection="strong", return_labels=False) == 1


def is_reversible(P, mu):
    """Detailed balance check: P equals its own time reversal entrywise,
    to REVERSIBLE_TOL."""
    return abs(time_reversal(P, mu).mat - P.mat).max() <= REVERSIBLE_TOL


def pstar_p_spectrum(P, mu, k=None):
    """The eigenpairs of P* P (pstar_p), the self-adjoint composition of
    the chain with its time reversal in l2(1/mu), right vectors
    orthonormal in l2(1/mu): all by default, else every pair
    linalg.leading_eigs computed, at least the k leading ones.

    The similarity diag(1/sqrt(mu)) P* P diag(sqrt(mu)) is plain
    symmetric; it is applied as one product with P* P, and eigenvectors
    map back through diag(sqrt(mu)). The leading pair is replaced by the
    analytic (mu, ones). P* P is positive semidefinite, so eigenvalues
    that roundoff leaves slightly negative are clamped to 0.
    """
    Q, smc = pstar_p(P, mu).mat, np.sqrt(mu.probs)[:, None]
    S = linalg.block_operator(P.n, lambda X: (Q @ (smc * X)) / smc)
    pairs = linalg.leading_eigs(S, k or P.n, symmetric=True, vectors=True)
    lambdas = np.maximum(pairs.lambdas, 0.0)
    if abs(lambdas[0] - 1.0) > 1e-8:
        raise InconsistentSteadyStateError(
            f"pstar_p_spectrum: leading eigenvalue {lambdas[0]:.12g} != 1")
    right = smc * pairs.vectors
    lambdas[0] = 1.0
    right[:, 0] = mu.probs
    return linalg.EigenPairs(lambdas=lambdas, vectors=right)


def save_vector(path, mu):
    """Write a probability vector, one float per line."""
    np.savetxt(str(path), mu.probs, fmt="%.17g")

