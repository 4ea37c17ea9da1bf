import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    aggregation_matrix,
    disaggregation_matrix,
    random_chain,
    random_partition,
    random_reversible_chain,
)
from iadrate import chain, coarse, iad, models
from iadrate.errors import PartitionError, ZeroMassStratumError


def two_state_partition():
    return coarse.make_partition(np.array([0, 0, 1]), 2)


def test_make_partition_rejects_empty_stratum():
    with pytest.raises(PartitionError):
        coarse.make_partition(np.array([0, 0, 2]), 3)


def test_aggregate_sums_strata():
    part = two_state_partition()
    out = coarse.aggregate(np.array([0.2, 0.3, 0.5]), part)
    assert np.allclose(out, [0.5, 0.5])


def test_disaggregate_conditional_split():
    # frozen oracle: nu = (0.2, 0.3, 0.5), strata {0,1} and {2};
    # z = (0.4, 0.6) spreads to (0.4*0.2/0.5, 0.4*0.3/0.5, 0.6)
    part = two_state_partition()
    nu = np.array([0.2, 0.3, 0.5])
    out = coarse.disaggregate(np.array([0.4, 0.6]), nu, part)
    assert np.allclose(out, [0.16, 0.24, 0.6])


def test_disaggregate_zero_mass_stratum():
    part = two_state_partition()
    with pytest.raises(ZeroMassStratumError):
        coarse.disaggregate(np.array([0.5, 0.5]), np.array([0.0, 0.0, 1.0]), part)


def test_aggregation_of_disaggregation_is_identity():
    rng = np.random.default_rng(0)
    part = random_partition(rng, 9, 3)
    nu = rng.random(9) + 0.1
    A = aggregation_matrix(part)
    D = disaggregation_matrix(nu, part)
    assert np.allclose(A @ D, np.eye(3), atol=1e-14)


def test_coarse_matrix_stochastic_and_exact():
    # singleton partition reproduces P itself
    rng = np.random.default_rng(1)
    P = random_chain(rng, 6)
    mu = chain.steady_state(P)
    part = coarse.singleton_partition(6)
    C = coarse.coarse_matrix(P, mu, part)
    assert np.allclose(C.mat, P.mat, atol=1e-14)
    # trivial partition gives the 1x1 chain
    C1 = coarse.coarse_matrix(P, mu, coarse.trivial_partition(6))
    assert C1.mat.shape == (1, 1)
    assert C1.mat[0, 0] == pytest.approx(1.0)


def test_coarse_matrix_fixes_aggregated_mu():
    # C(mu) has steady state A mu when mu is the fine steady state
    rng = np.random.default_rng(2)
    P = random_chain(rng, 10)
    mu = chain.steady_state(P)
    part = random_partition(rng, 10, 4)
    C = coarse.coarse_matrix(P, mu, part)
    amu = coarse.aggregate(mu.probs, part)
    assert np.max(np.abs(C.mat @ amu - amu)) < 1e-12


def test_orthogonal_projection_idempotent_selfadjoint():
    rng = np.random.default_rng(3)
    part = random_partition(rng, 8, 3)
    nu = rng.random(8) + 0.1
    Pi = coarse.orthogonal_projection(nu, part) @ np.eye(8)
    assert np.max(np.abs(Pi @ Pi - Pi)) < 1e-12
    # self-adjoint in l2(1/nu): diag(1/nu) Pi symmetric
    W = Pi / nu[:, None]
    assert np.max(np.abs(W - W.T)) < 1e-12


def test_coarse_projection_identities():
    rng = np.random.default_rng(4)
    P = random_chain(rng, 10)
    mu = chain.steady_state(P)
    part = random_partition(rng, 10, 3)
    S = coarse.coarse_projection(P, mu, mu, part) @ np.eye(10)
    Pi = coarse.orthogonal_projection(mu.probs, part) @ np.eye(10)
    assert np.max(np.abs(S @ S - S)) < 1e-10
    assert np.max(np.abs(Pi @ S - S)) < 1e-10
    assert np.max(np.abs(S @ Pi - Pi)) < 1e-10
    # S reproduces the steady state itself
    assert np.max(np.abs(S @ mu.probs - mu.probs)) < 1e-12


def test_is_refinement():
    a = coarse.make_partition(np.array([0, 0, 1, 1]), 2)
    b = coarse.make_partition(np.array([0, 1, 2, 2]), 3)
    c = coarse.make_partition(np.array([0, 1, 0, 1]), 2)
    assert coarse.is_refinement(b, a)
    assert not coarse.is_refinement(c, a)
    assert coarse.is_refinement(a, a)


def test_partition_roundtrip(tmp_path):
    part = coarse.make_partition(np.array([1, 0, 1, 2]), 3)
    path = tmp_path / "part.txt"
    coarse.save_partition(path, part)
    back = coarse.load_partition(path)
    assert np.array_equal(part.assignment, back.assignment)
    assert back.n == 3


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 14), st.integers(2, 5), st.integers(0, 10_000))
def test_aggregate_disaggregate_roundtrip(N, n, seed):
    # A D(nu) z == z and D(nu) A nu == nu for any positive nu
    rng = np.random.default_rng(seed)
    n = min(n, N)
    part = random_partition(rng, N, n)
    nu = rng.random(N) + 0.05
    z = rng.random(n)
    z /= z.sum()
    back = coarse.aggregate(coarse.disaggregate(z, nu, part), part)
    assert np.allclose(back, z, atol=1e-12)
    assert np.allclose(coarse.disaggregate(coarse.aggregate(nu, part), nu, part),
                       nu, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(0, 10_000), st.booleans())
def test_coarse_pattern_is_the_nonzeros_of_AP(N, seed, sparse):
    # oracle: the dense product A P. State 0 is a stratum of its own and
    # P[0, j] is zero (a stored zero in CSC), so (A P)[0, j] is zero too
    rng = np.random.default_rng(seed)
    mat = random_chain(rng, N).dense().copy()
    j = int(rng.integers(0, N))
    mat[1, j] += mat[0, j]
    if sparse:
        mat = scipy.sparse.csc_array(mat)
        mat.data[mat.indptr[j]] = 0.0  # row 0 leads the full column j
    else:
        mat[0, j] = 0.0
    P = chain.StochasticMatrix(mat=mat)
    n = int(rng.integers(2, min(N, 6) + 1))
    rest = random_partition(rng, N - 1, n - 1).assignment + 1
    part = coarse.make_partition(np.concatenate([[0], rest]), n)
    cols, keys, vals = coarse.coarse_pattern(P, part)
    AP = np.zeros((n, N))
    AP[keys // n, cols] = vals
    assert np.max(np.abs(AP - aggregation_matrix(part) @ P.dense())) <= 1e-15
    # one entry per nonzero of A P: no (column, key) pair repeats
    assert len(set(zip(cols.tolist(), keys.tolist()))) == len(cols)
    assert np.all(vals != 0.0)


def _storage_case(kind, rng, N):
    """(P, partition): a random, reversible or pathology chain."""
    if kind == "random":
        P = random_chain(rng, N)
    elif kind == "reversible":
        P, _ = random_reversible_chain(rng, N)
    else:
        P, part, _ = models.pathological_fixtures()[kind]
        return P, part
    return P, random_partition(rng, N, int(rng.integers(1, min(N, 8) + 1)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["random", "reversible", "reducible_coarse", "marek",
                        "periodic_shift"]),
       st.integers(2, 60), st.integers(0, 10_000))
def test_coarse_matrix_and_step_agree_across_storage(kind, N, seed):
    # oracle: the dense product A P D(nu); both storages must match it,
    # and one IAD step must not depend on how P is stored
    rng = np.random.default_rng(seed)
    P, part = _storage_case(kind, rng, N)
    nu = rng.random(P.n) + 0.01
    nu = chain.ProbabilityVector(probs=nu / nu.sum())
    oracle = (aggregation_matrix(part) @ P.dense()
              @ disaggregation_matrix(nu.probs, part))
    dense = chain.StochasticMatrix(mat=P.dense())
    csc = chain.StochasticMatrix(mat=scipy.sparse.csc_array(P.dense()))
    for Q in (dense, csc):
        assert np.max(np.abs(coarse.coarse_matrix(Q, nu, part).mat - oracle)) <= 1e-14
    gap = iad.iad_step(dense, part, nu).probs - iad.iad_step(csc, part, nu).probs
    assert np.max(np.abs(gap)) <= 1e-14
