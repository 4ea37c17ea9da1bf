import numpy as np
import pytest

from iadrate import chain, coarse, models
from iadrate.coarse import make_partition


@pytest.fixture(scope="session")
def bench_1d():
    """The metastable double-well chain: (P, mu)."""
    spec = models.benchmark_chain_1d_spec()
    mu = models.boltzmann_1d(spec)
    return models.reversible_chain_1d(mu), mu


@pytest.fixture(scope="session")
def bench_2d():
    """The 2D three-well chain on the 50 x 50 grid: (P, mu)."""
    spec = models.benchmark_chain_2d_spec()
    mu = models.boltzmann_2d(spec)
    return models.reversible_chain_2d(mu, spec), mu


def random_chain(rng, N, diag_boost=0.5):
    """Random column-stochastic matrix with strictly positive diagonal."""
    raw = rng.random((N, N)) + diag_boost * np.eye(N)
    return chain.StochasticMatrix(mat=raw / raw.sum(axis=0))


def random_reversible_chain(rng, N, split=0, coupling=1.0):
    """Random chain in detailed balance with a random positive measure.

    P_ij = c K_ij mu_i for symmetric K > 0 keeps P_ij mu_j symmetric;
    the column slack goes on the diagonal, which preserves the balance.
    Moves between [0, split) and [split, N) are scaled by `coupling`: a
    small one makes the chain nearly decomposable, zero splits it into
    two closed classes.
    """
    mu = rng.random(N) + 0.1
    mu /= mu.sum()
    K = rng.random((N, N))
    K = 0.5 * (K + K.T)
    K[:split, split:] *= coupling
    K[split:, :split] *= coupling
    P = K * mu[:, None]
    c = 0.9 / P.sum(axis=0).max()
    P = c * P
    P[np.arange(N), np.arange(N)] += 1.0 - P.sum(axis=0)
    return chain.StochasticMatrix(mat=P), chain.ProbabilityVector(probs=mu)


def random_partition(rng, N, n):
    """Random surjective assignment with at least one multi-state stratum."""
    assignment = rng.integers(0, n, size=N)
    assignment[:n] = np.arange(n)  # no empty stratum
    rng.shuffle(assignment)
    return make_partition(assignment, n)


def qr_null_vector(A):
    """Unit vector spanning the null space of a rank N-1 square matrix.

    Householder QR of A^T: the last column of the orthogonal factor is
    orthogonal to every row of A^T's column space, i.e. lies in ker(A).
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if n == 1:
        if abs(A[0, 0]) > 1e-10:
            raise ValueError("qr_null_vector: 1x1 matrix has no null space")
        return np.array([1.0])
    Q, R = np.linalg.qr(A.T, mode="complete")
    rdiag = np.sort(np.abs(np.diag(R)))
    if rdiag[1] < 1e-10 * max(np.linalg.norm(A), 1e-300):
        raise ValueError("qr_null_vector: nullity > 1")
    return Q[:, -1]


def aggregation_matrix(part):
    """The 0/1 aggregation operator A as an n x N dense matrix."""
    A = np.zeros((part.n, part.fine_n))
    A[part.assignment, np.arange(part.fine_n)] = 1.0
    return A


def disaggregation_matrix(nu, part):
    """D(nu) as an N x n dense matrix; column i is nu conditioned on S_i."""
    nu = np.asarray(nu, dtype=float)
    D = np.zeros((part.fine_n, part.n))
    anu = coarse.aggregate(nu, part)
    D[np.arange(part.fine_n), part.assignment] = nu / anu[part.assignment]
    return D
