"""Real linear algebra on arrays and matrix-free operators.

Operators are `scipy.sparse.linalg.LinearOperator`s that act on (n, m)
blocks. `leading_eigs` is the package's one eigensolver: it decides
whether eigenvalues come from LAPACK on the materialized matrix or from
ARPACK on the operator. Besides it: the resolvent of a stochastic
matrix as a block function on one sparse LU, and `lu_solve` for small
dense systems.

`scipy.sparse.linalg` is imported in the functions that use it: it loads
`scipy.linalg` and scipy's own OpenBLAS, which a solve never calls, so
building a chain and solving it run on numpy and `scipy.sparse` alone.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import (
    DimensionError,
    EigenConvergenceError,
    NotSymmetricError,
    SingularMatrixError,
)

# Operator size from which leading_eigs calls ARPACK instead of LAPACK on
# the materialized operator. Measured with full_report on 2 cores (see
# CHANGES.md): LAPACK wins on the 1D chains up to N = 200 and ARPACK from
# N = 300; on the 2D chains ARPACK wins from N = 196.
ARPACK_MIN_N = 200
# ARPACK converges at least this many wanted eigenvalues, which keeps it
# from settling on a smaller one in a cluster of near-equal moduli; every
# one of them is verified and returned.
_ARPACK_MIN_K = 6
# An ARPACK eigenpair (v of unit norm) is accepted when ||A v - lambda v||
# stays below this times the largest modulus returned, or times one when
# that is smaller: rates in [0, 1] then carry an absolute error of about
# this much (exactly, for a normal A), and large eigenvalues a relative one.
_RESIDUAL_TOL = 1e-9
# Relative asymmetry tolerated in a materialized self-adjoint operator.
_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues, leading first, with matching eigenvector columns
    (None when not asked for): every eigen result in the package."""

    lambdas: np.ndarray
    vectors: "np.ndarray | None"


def block_operator(n, f):
    """The LinearOperator on R^n that applies f to an (n, m) block of
    columns; a vector goes through f as one column."""
    from scipy.sparse.linalg import LinearOperator

    g = lambda X: f(np.reshape(X, (n, -1)))
    return LinearOperator((n, n), matvec=g, matmat=g, dtype=float)


def lu_solve(A, B):
    """Solve A X = B by LU with partial pivoting, in numpy's LAPACK like
    every other dense solve here. An exactly zero pivot, or one so small
    that the solution overflows, raises SingularMatrixError."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"lu_solve: A must be square, got {A.shape}")
    if B.shape[0] != A.shape[0]:
        raise DimensionError(
            f"lu_solve: B has {B.shape[0]} rows, expected {A.shape[0]}"
        )
    try:
        X = np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"lu_solve: {exc}") from exc
    if not np.all(np.isfinite(X)):
        raise SingularMatrixError("lu_solve: solution is not finite")
    return X


def _by_modulus(vals):
    """Indices sorting vals by descending modulus, ties in input order."""
    return np.lexsort((np.arange(len(vals)), -np.abs(vals)))


def leading_eigs(A, k, symmetric=False, vectors=False):
    """Every eigenpair computed of a square array or LinearOperator A, at
    least its k leading ones, leading first.

    Leading means largest modulus, or largest value when `symmetric`;
    `vectors` (symmetric only) asks for unit eigenvectors as columns.
    Below ARPACK_MIN_N, and for k >= n - 1, LAPACK solves the materialized
    A and returns all n: `eigvals`, or `eigh`/`eigvalsh` on (A + A^T) / 2
    if A is symmetric to _SYMMETRY_TOL relative to its largest entry (at
    least one; else NotSymmetricError). Otherwise ARPACK iterates from a
    fixed start vector and returns every pair it converged, at least
    max(k, _ARPACK_MIN_K), each with ||A v - lambda v|| <= _RESIDUAL_TOL
    max(1, |lambda|). eigsh stops at the relative tolerance
    _RESIDUAL_TOL / 100, where a symmetric eigenvalue is already exact to
    ||r||^2 / gap; eigs iterates to machine precision (tol = 0), a
    nonsymmetric eigenvalue's error being linear in ||r||. Any solver
    failure, a NaN residual, and a NaN or infinite entry of the
    materialized A raise EigenConvergenceError.
    """
    if len(A.shape) != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"leading_eigs: A must be square, got {A.shape}")
    if vectors and not symmetric:
        raise ValueError("leading_eigs: eigenvectors are for a symmetric A only")
    n = A.shape[0]
    if n >= ARPACK_MIN_N and k < n - 1:
        return _arpack_eigs(A, k, symmetric, vectors)
    M = np.asarray(A, dtype=float) if isinstance(A, np.ndarray) else A @ np.eye(n)
    if not np.isfinite(M).all():  # eigh and eigvalsh return NaN for it silently
        raise EigenConvergenceError("leading_eigs: A has a NaN or infinite entry")
    try:
        if not symmetric:
            vals = np.linalg.eigvals(M)
            return EigenPairs(lambdas=vals[_by_modulus(vals)], vectors=None)
        if abs(M - M.T).max() > _SYMMETRY_TOL * max(1.0, abs(M).max()):
            raise NotSymmetricError("leading_eigs: A is not symmetric to tolerance")
        M = 0.5 * (M + M.T)
        if vectors:
            w, V = np.linalg.eigh(M)
            order = np.argsort(-w, kind="stable")
            return EigenPairs(lambdas=w[order], vectors=V[:, order])
        return EigenPairs(lambdas=np.linalg.eigvalsh(M)[::-1], vectors=None)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"leading_eigs: {exc}") from exc


def _arpack_eigs(A, k, symmetric, vectors):
    import scipy.sparse.linalg

    n = A.shape[0]
    want = min(max(k, _ARPACK_MIN_K), n - 2)
    v0 = np.random.default_rng(12345).uniform(0.5, 1.5, n)

    def run(ncv):
        opts = dict(k=want, v0=v0, ncv=ncv)
        if symmetric:
            return scipy.sparse.linalg.eigsh(A, which="LA", tol=_RESIDUAL_TOL / 100,
                                             **opts)
        return scipy.sparse.linalg.eigs(A, which="LM", tol=0, **opts)

    ncv = min(n, max(2 * want + 1, 20))
    try:
        try:
            vals, V = run(ncv)
        except scipy.sparse.linalg.ArpackError:
            # ARPACK can find no shift to apply (its error 3) where a
            # multiple eigenvalue meets the edge of the wanted set, as
            # lambda = 1 twice in the P* P of a periodic chain; twice the
            # Krylov space gets past it
            if ncv == n:
                raise
            vals, V = run(min(n, 2 * ncv))
    except (scipy.sparse.linalg.ArpackError,
            scipy.sparse.linalg.ArpackNoConvergence) as exc:
        raise EigenConvergenceError(f"leading_eigs: ARPACK failed: {exc}") from exc
    order = np.argsort(-vals, kind="stable") if symmetric else _by_modulus(vals)
    vals, V = vals[order], V[:, order]
    AV = A @ V.real if symmetric else A @ V.real + 1j * (A @ V.imag)
    res = np.linalg.norm(AV - V * vals, axis=0)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if not np.all(res <= _RESIDUAL_TOL * scale):  # a NaN residual fails too
        raise EigenConvergenceError(
            f"leading_eigs: ARPACK eigenpair residual {np.max(res):.3g} "
            f"exceeds {_RESIDUAL_TOL:g} x {scale:.6g}"
        )
    return EigenPairs(lambdas=vals, vectors=V if vectors else None)


def resolvent(Q, m):
    """(I - Q + m 1^T)^{-1} as a function on (n, k) blocks of columns (a
    vector goes in as one column), for a column-stochastic Q (array or
    sparse) with Q m = m and 1^T m = 1. Callers compose it with their own
    scalings and projections under one block_operator per eigensolve:
    each LinearOperator layer costs a reshape and a dispatch on every
    ARPACK product.

    Sparse LU factors B = I - Q + e_r e_r^T once, r the largest entry of
    m; B is nonsingular when Q is irreducible, which its callers establish.
    Its columns are ordered by minimum degree on the pattern of B^T + B,
    symmetric or nearly so for the model chains: on the 50x50 chain
    L + U holds 94k nonzeros against 201k in SuperLU's default COLAMD
    order, and a solve takes a third of the time. The rank-two remainder
    m 1^T - e_r e_r^T has a closed-form Woodbury correction, because
    1^T B = e_r^T and B m = m_r e_r: with c = 1^T x and
    y = B^{-1} (x - m c), the result is m c + y - m (1^T y).
    """
    import scipy.sparse.linalg

    n = Q.shape[0]
    r = int(np.argmax(m))
    E = scipy.sparse.coo_array(([1.0], ([r], [r])), shape=(n, n))
    B = scipy.sparse.csc_array(scipy.sparse.eye_array(n) - Q + E)
    try:
        lu = scipy.sparse.linalg.splu(B, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU reports an exactly zero pivot
        raise SingularMatrixError(f"resolvent: {exc}") from exc
    if np.min(np.abs(lu.U.diagonal())) < 1e-300:
        raise SingularMatrixError("resolvent: zero pivot encountered")
    mc = m[:, None]

    def apply(X):
        c = X.sum(axis=0)
        Y = lu.solve(X - mc * c)
        return Y + mc * (c - Y.sum(axis=0))

    return apply

