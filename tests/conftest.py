import numpy as np
import pytest

from iadrate import chain, coarse, linalg, models
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


def _cut_tail(K, tail):
    """Zero K's entries between distinct states of its last `tail`."""
    N = K.shape[0]
    K[N - tail:, N - tail:] *= np.eye(tail)


def random_chain(rng, N, diag_boost=0.5, tail=0):
    """Random column-stochastic matrix with strictly positive diagonal;
    its last `tail` states are mutually non-adjacent."""
    raw = rng.random((N, N)) + diag_boost * np.eye(N)
    _cut_tail(raw, tail)
    return chain.StochasticMatrix(mat=raw / raw.sum(axis=0))


def random_reversible_chain(rng, N, split=0, coupling=1.0, fill=0.9, tail=0):
    """Random chain in detailed balance with a random positive measure.

    P_ij = c K_ij mu_i for symmetric K > 0 keeps P_ij mu_j symmetric;
    the column slack goes on the diagonal, which preserves the balance.
    c makes the largest column sum of c K_ij mu_i equal `fill`, so the
    smallest diagonal entry is 1 - fill (0 at fill = 1). Moves between
    [0, split) and [split, N) are scaled by `coupling`: a small one
    makes the chain nearly decomposable, zero splits it into two closed
    classes. No move joins two distinct states of the last `tail`.
    """
    mu = rng.random(N) + 0.1
    mu /= mu.sum()
    K = rng.random((N, N))
    K = 0.5 * (K + K.T)
    K[:split, split:] *= coupling
    K[split:, :split] *= coupling
    _cut_tail(K, tail)
    P = K * mu[:, None]
    c = fill / P.sum(axis=0).max()
    P = c * P
    P[np.arange(N), np.arange(N)] += 1.0 - P.sum(axis=0)
    return chain.StochasticMatrix(mat=P), chain.ProbabilityVector(probs=mu)


def deviation(P, mu):
    """P_hat = P - mu 1^T, P minus its rank-one ergodic limit, as a
    LinearOperator: a product with P and an explicit rank-one term. The
    oracle for the power method's rate and for J of one stratum."""
    mc = mu.probs[:, None]
    return linalg.block_operator(P.n, lambda X: P.mat @ X - mc * X.sum(axis=0))


def gth_reference(P):
    """Steady state by Grassmann-Taksar-Heyman state reduction one state
    at a time, last to first, with no blocks and no run of states taken
    at once: the oracle for chain.steady_state."""
    A = np.array(P.dense().T, dtype=float)
    n = A.shape[0]
    for k in range(n - 1, 0, -1):
        A[:k, k] /= A[k, :k].sum()
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    pi = np.empty(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ A[:k, k]
    return pi / pi.sum()


def random_partition(rng, N, n):
    """Random surjective assignment with at least one multi-state stratum."""
    assignment = rng.integers(0, n, size=N)
    assignment[:n] = np.arange(n)  # no empty stratum
    rng.shuffle(assignment)
    return make_partition(assignment, n)


def nested_partition_pair(rng, N):
    """(coarser, refined): a random partition and one that splits each of
    its strata into up to two pieces."""
    n = int(rng.integers(2, 5))
    coarse_part = random_partition(rng, N, n)
    assignment = coarse_part.assignment * 2 + rng.integers(0, 2, size=N)
    labels, refined = np.unique(assignment, return_inverse=True)
    return coarse_part, make_partition(refined, len(labels))


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


def count_calls(monkeypatch, fn, *owners):
    """Replace fn under its name in each owner module by a wrapper that
    records its calls; returns the list of records."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, fn.__name__, counting)
    return calls


def count_pair_solves(monkeypatch):
    """Record the size of every operator linalg.leading_eigs is asked for
    eigenvectors of: the P* P eigensolves, by chain.pstar_p_spectrum or
    from the resolvent; returns the list of sizes."""
    sizes = []
    solve = linalg.leading_eigs

    def counting(A, k=None, symmetric=False, vectors=False):
        if vectors:
            sizes.append(A.shape[0])
        return solve(A, k, symmetric, vectors)

    monkeypatch.setattr(linalg, "leading_eigs", counting)
    return sizes
