"""Partitions of the fine space and the coarse operators built on them:
aggregation A, disaggregation D(nu), coarse matrix C(nu) = A P D(nu),
the complement of the orthogonal projection Pi(nu) = D(nu) A, and the
oblique coarse projection S(nu) that governs the coarse-correction error.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import linalg
from .chain import StochasticMatrix, _check_stochastic, _require_positive
from .errors import PartitionError, ZeroMassStratumError


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of {0..N-1} by n nonempty coarse states.

    assignment[j] is the coarse index of fine state j.
    """

    assignment: np.ndarray
    n: int

    @property
    def fine_n(self):
        return self.assignment.shape[0]


def make_partition(assignment, n=None):
    """Build and validate a partition from a vector of integral labels."""
    labels = np.asarray(assignment)
    with np.errstate(invalid="ignore"):  # a NaN or infinite label casts unequal
        assignment = labels.astype(int, copy=False)
    if not np.array_equal(assignment, labels):
        raise PartitionError("make_partition: labels must be integers")
    if assignment.ndim != 1 or assignment.size == 0:
        raise PartitionError("make_partition: assignment must be a nonempty vector")
    if n is None:
        n = int(assignment.max()) + 1
    if assignment.min() < 0 or assignment.max() >= n:
        raise PartitionError("make_partition: coarse index out of range")
    counts = np.bincount(assignment, minlength=n)
    if np.any(counts == 0):
        empty = int(np.argmax(counts == 0))
        raise PartitionError(f"make_partition: coarse state {empty} is empty")
    return Partition(assignment=assignment, n=n)


def singleton_partition(N):
    """One coarse state per fine state."""
    return make_partition(np.arange(N), N)


def trivial_partition(N):
    """A single coarse state covering everything."""
    return make_partition(np.zeros(N, dtype=int), 1)


def aggregate(nu, part):
    """Sum the mass of nu over each coarse state; an (N, m) block is
    summed column by column, in the same single bincount."""
    nu = np.asarray(nu, dtype=float)
    if nu.shape[0] != part.fine_n:
        raise PartitionError("aggregate: vector length does not match partition")
    if nu.ndim == 1:
        return np.bincount(part.assignment, weights=nu, minlength=part.n)
    m = nu.shape[1]
    keys = (part.assignment[:, None] * m + np.arange(m)).ravel()
    out = np.bincount(keys, weights=nu.ravel(), minlength=part.n * m)
    return out.reshape(part.n, m)


def disaggregation_weights(nu, part):
    """D(nu)'s entries nu_j / (A nu)_{a(j)}; a massless stratum raises."""
    anu = aggregate(nu, part)
    if not anu.min() > 0.0 and (anu <= 0).any():  # one reduction when all are positive
        i = int(np.argmax(anu <= 0))
        raise ZeroMassStratumError(f"coarse state {i} has nonpositive mass")
    return nu / anu[part.assignment]


def disaggregate(z, w, part):
    """D(nu) z, w = disaggregation_weights(nu, part): z spread over the
    fine states proportionally to nu."""
    z = np.asarray(z, dtype=float)
    if z.shape[0] != part.n:
        raise PartitionError("disaggregate: coarse vector length mismatch")
    return z[part.assignment] * w


def _aggregated(P, part):
    """A P in CSR with sorted indices, A the n x N aggregation in CSC (one
    unit entry a column): the one sparse product through which this module
    reads P; it drops exact zeros, and P may be dense."""
    if P.n != part.fine_n:
        raise PartitionError("coarse: matrix size does not match partition")
    A = scipy.sparse.csc_array(
        (np.ones(P.n), part.assignment, np.arange(P.n + 1)), shape=(part.n, P.n))
    AP = scipy.sparse.csr_array(A @ P.mat)
    AP.sort_indices()
    return AP


def coarse_pattern(P, part):
    """(cols, keys, vals): the nonzeros of the n x N matrix A P in row-major
    order, each with its column j, coarse key i n + a(j) and value; the
    coarse chains C(nu) are summed from it."""
    AP = _aggregated(P, part)
    rows = np.repeat(np.arange(part.n), np.diff(AP.indptr))
    return AP.indices, rows * part.n + part.assignment[AP.indices], AP.data


def coarse_matrix(w, part, pattern):
    """The validated n x n coarse chain C(nu) = A P D(nu), with D(nu)'s
    entries w = disaggregation_weights(nu, part) and `pattern` the
    coarse_pattern(P, part) of A P's nonzeros on the same strata.

    C[i, a(j)] is the sum of (A P)_ij nu_j / (A nu)_{a(j)} over the
    nonzeros of A P, taken in one bincount; no N x n matrix is formed.
    validate's checks run on the bincount's own C-ordered buffer, in
    place, and raise validate's errors; the matrix holds that buffer.
    """
    cols, keys, vals = pattern
    n = part.n
    C = np.bincount(keys, weights=vals * w[cols], minlength=n * n).reshape(n, n)
    _check_stochastic(C)
    return StochasticMatrix(mat=C)


def complement(nu, part):
    """I - Pi~ on an (N, m) block X: X - u (A (u X))[a], u the unit
    sqrt(nu)-weighted stratum indicators. Pi~ = diag(1/sqrt(nu)) Pi(nu)
    diag(sqrt(nu)) is the symmetric form of Pi(nu) = D(nu) A, the
    l2(1/nu)-orthogonal projection on rg(D(nu)); a massless stratum raises."""
    a = part.assignment
    u = np.sqrt(disaggregation_weights(nu, part))[:, None]
    return lambda X: X - u * aggregate(u * X, part)[a]


def coarse_projection(P, mu, nu, part):
    """The oblique projection S(nu) on rg(D(nu)) along the fine dynamics,
    as a LinearOperator.

    S(nu) = D(nu) [B D(nu)]^{-1} B with the n x N matrix
    B = A - A P + (A mu) 1^T, formed dense as -A P plus 1 at (a(j), j)
    plus A mu in every column; no N x N matrix is formed. The inner n x n
    matrix is taken from the same B: S is then idempotent to roundoff,
    which an inner matrix built separately (I - C(nu) + (A mu) 1^T) is
    not when the coarse chain is nearly decomposable.
    """
    nu = nu.probs
    _require_positive(nu, "coarse_projection: nu")
    B = -_aggregated(P, part).toarray()
    B[part.assignment, np.arange(P.n)] += 1.0
    B += aggregate(mu.probs, part)[:, None]
    w = disaggregation_weights(nu, part)
    # B D(nu) by aggregation, not BLAS: on two OpenBLAS threads the
    # 36 x 2500 by 2500 x 36 product took 60 ms, on one 0.2 ms
    F = linalg.lu_solve(aggregate((B * w).T, part).T, B)
    a, wc = part.assignment, w[:, None]
    return linalg.block_operator(P.n, lambda X: wc * (F @ X)[a])


def is_refinement(refined, coarser):
    """True iff every stratum of `refined` lies inside one stratum of
    `coarser`, i.e. the strata meet refined.n pairs of labels, not more."""
    if refined.fine_n != coarser.fine_n:
        return False
    pairs = np.unique(refined.assignment * coarser.n + coarser.assignment)
    return pairs.size == refined.n


def save_partition(path, part):
    """Write `fine_index coarse_index` lines, 0-based."""
    with open(path, "w") as fh:
        for j, c in enumerate(part.assignment):
            fh.write(f"{j} {int(c)}\n")


def load_partition(path):
    """Read a partition written by save_partition."""
    # numpy warns on a file with no data lines, for which the check raises
    with warnings.catch_warnings(action="ignore", category=UserWarning):
        data = np.loadtxt(str(path), dtype=int, ndmin=2)
    if data.size == 0:
        raise PartitionError(f"load_partition: {path} has no data lines")
    if data.shape[1] != 2:
        raise PartitionError("load_partition: expected two columns per line")
    N = data.shape[0]
    assignment = np.full(N, -1, dtype=int)
    fine = data[:, 0]
    if np.any(fine < 0) or np.any(fine >= N) or len(np.unique(fine)) != N:
        raise PartitionError("load_partition: fine indices must cover 0..N-1 once")
    assignment[fine] = data[:, 1]
    return make_partition(assignment)
