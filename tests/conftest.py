import numpy as np
import pytest

from iadrate import chain, models
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
