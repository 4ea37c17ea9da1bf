import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    aggregation_matrix,
    coarse_chain,
    disaggregation_matrix,
    nested_partition_pair,
    oblique_projection,
    random_chain,
    random_partition,
    random_reversible_chain,
)
from iadrate import chain, coarse, iad, models
from iadrate.errors import NotStochasticError, PartitionError, ZeroMassStratumError


def two_state_partition():
    return coarse.make_partition(np.array([0, 0, 1]), 2)


def test_make_partition_rejects_empty_stratum():
    with pytest.raises(PartitionError):
        coarse.make_partition(np.array([0, 0, 2]), 3)


def test_make_partition_rejects_non_integral_labels():
    for bad in ([0.5, 1.7, 1.2], [0.0, 1.0, np.nan], [0.0, np.inf, 1.0],
                [0.0, 1.0 + 1e-12, 1.0]):
        with pytest.raises(PartitionError, match="integers"):
            coarse.make_partition(np.array(bad))
    # integral values of any numeric dtype are labels
    for dtype in (float, np.float32, np.uint8, np.int16):
        part = coarse.make_partition(np.array([0, 1, 1], dtype=dtype))
        assert part.n == 2 and part.assignment.tolist() == [0, 1, 1]


def test_aggregate_sums_strata():
    part = two_state_partition()
    out = coarse.aggregate(np.array([0.2, 0.3, 0.5]), part)
    assert np.allclose(out, [0.5, 0.5])


def test_disaggregate_conditional_split():
    # frozen oracle: nu = (0.2, 0.3, 0.5), strata {0,1} and {2};
    # z = (0.4, 0.6) spreads to (0.4*0.2/0.5, 0.4*0.3/0.5, 0.6)
    part = two_state_partition()
    nu = np.array([0.2, 0.3, 0.5])
    w = coarse.disaggregation_weights(nu, part)
    out = coarse.disaggregate(np.array([0.4, 0.6]), w, part)
    assert np.allclose(out, [0.16, 0.24, 0.6])


def test_disaggregate_zero_mass_stratum():
    part = two_state_partition()
    with pytest.raises(ZeroMassStratumError):
        coarse.disaggregation_weights(np.array([0.0, 0.0, 1.0]), part)


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
    C = coarse_chain(P, coarse.disaggregation_weights(mu.probs, part), part)
    assert np.allclose(C.mat, P.mat, atol=1e-14)
    # trivial partition gives the 1x1 chain
    one = coarse.trivial_partition(6)
    C1 = coarse_chain(P, coarse.disaggregation_weights(mu.probs, one), one)
    assert C1.mat.shape == (1, 1)
    assert C1.mat[0, 0] == pytest.approx(1.0)


def test_coarse_matrix_fixes_aggregated_mu():
    # C(mu) has steady state A mu when mu is the fine steady state
    rng = np.random.default_rng(2)
    P = random_chain(rng, 10)
    mu = chain.steady_state(P)
    part = random_partition(rng, 10, 4)
    C = coarse_chain(P, coarse.disaggregation_weights(mu.probs, part), part)
    amu = coarse.aggregate(mu.probs, part)
    assert np.max(np.abs(C.mat @ amu - amu)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 14), st.integers(1, 5), st.integers(1, 4),
       st.integers(0, 10_000))
def test_complement_is_the_symmetric_orthogonal_complement(N, n, m, seed):
    # I - diag(1/sqrt(nu)) D(nu) A diag(sqrt(nu)) from the dense oracles,
    # on an (N, m) block and on I: symmetric, idempotent, and zero on
    # sqrt(nu) restricted to each stratum; a massless stratum raises
    rng = np.random.default_rng(seed)
    part = random_partition(rng, N, min(n, N))
    nu = rng.random(N) + 0.1
    s = np.sqrt(nu)
    A = aggregation_matrix(part)
    E = np.eye(N) - (disaggregation_matrix(nu, part) @ A) * s[None, :] / s[:, None]
    comp = coarse.complement(nu, part)
    X = rng.standard_normal((N, m))
    assert np.max(np.abs(comp(X) - E @ X)) < 1e-12
    M = comp(np.eye(N))
    assert np.max(np.abs(M - E)) < 1e-12
    assert np.max(np.abs(M - M.T)) < 1e-12
    assert np.max(np.abs(comp(M) - M)) < 1e-12
    assert np.max(np.abs(comp(A.T * s[:, None]))) < 1e-12
    with pytest.raises(ZeroMassStratumError):
        coarse.complement(np.where(part.assignment == 0, 0.0, nu), part)


def test_coarse_projection_identities():
    rng = np.random.default_rng(4)
    P = random_chain(rng, 10)
    mu = chain.steady_state(P)
    part = random_partition(rng, 10, 3)
    S = oblique_projection(P, mu, mu, part)
    Pi = disaggregation_matrix(mu.probs, part) @ aggregation_matrix(part)
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


def _refines_by_loop(refined, coarser):
    """The definition: each stratum of `refined` carries one label of
    `coarser`."""
    return refined.fine_n == coarser.fine_n and all(
        len(set(coarser.assignment[refined.assignment == t])) == 1
        for t in range(refined.n))


@settings(max_examples=50, deadline=None)
@given(st.integers(4, 30), st.integers(0, 10_000))
def test_is_refinement_matches_the_loop_definition(N, seed):
    rng = np.random.default_rng(seed)
    coarser, refined = nested_partition_pair(rng, N)
    assert coarse.is_refinement(refined, coarser)
    pairs = [(refined, coarser), (coarser, refined),
             (coarse.singleton_partition(N), coarser),
             (coarser, coarse.trivial_partition(N)),
             (coarser, coarse.singleton_partition(N + 1))]
    for _ in range(3):
        a, b = (random_partition(rng, N, int(rng.integers(1, N + 1)))
                for _ in range(2))
        pairs += [(a, b), (b, a)]
    for r, c in pairs:
        assert coarse.is_refinement(r, c) == _refines_by_loop(r, c)


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
    w = coarse.disaggregation_weights(nu, part)
    back = coarse.aggregate(coarse.disaggregate(z, w, part), part)
    assert np.allclose(back, z, atol=1e-12)
    assert np.allclose(coarse.disaggregate(coarse.aggregate(nu, part), w, part),
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
    # in strictly increasing row-major order, the order in which
    # coarse_matrix's bincount sums, which its bit-identity rests on
    assert np.all(np.diff((keys // n) * N + cols) > 0)
    assert np.all(vals != 0.0)


def test_coarse_pattern_memory_stays_near_its_output():
    # 10,000 states in 2,500 strata: the n x N matrix A P would take 200 MB
    # dense, its 30,000 nonzeros well under 1 MB
    spec = dataclasses.replace(models.benchmark_chain_2d_spec(), N=100)
    P = models.reversible_chain_2d(models.boltzmann_2d(spec), spec)
    part = models.grid2d(100, 50)
    tracemalloc.start()
    try:
        cols, _, _ = coarse.coarse_pattern(P, part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cols) == 30_000
    assert peak < 20e6


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
    w = coarse.disaggregation_weights(nu.probs, part)
    for Q in (dense, csc):
        assert np.max(np.abs(coarse_chain(Q, w, part).mat - oracle)) <= 1e-14
    gap = (iad.iad_step(iad.make_plan(dense, part), nu).probs
           - iad.iad_step(iad.make_plan(csc, part), nu).probs)
    assert np.max(np.abs(gap)) <= 1e-14


@pytest.mark.parametrize("defect", ["negative", "tiny_negative", "column_sum", "nan"])
def test_coarse_matrix_checks_its_buffer_as_validate_checks_a_copy(defect):
    # coarse_matrix checks the bincount's own buffer in place: the same
    # clamp, and the same error type, column and message as validate on
    # the same numbers
    rng = np.random.default_rng(11)
    raw = random_chain(rng, 6).dense().copy()
    nu = rng.random(6) + 0.1
    if defect in ("negative", "tiny_negative"):
        # stratum 2 receives a negative mass from columns 0 and 1
        shift = raw[4:, :2].sum(axis=0) + (0.1 if defect == "negative" else 1e-15)
        raw[4, :2] -= shift
        raw[0, :2] += shift
    elif defect == "column_sum":
        raw[5, 2] += 1e-9
    else:
        nu[0] = np.nan
    P = chain.StochasticMatrix(mat=raw)
    part = coarse.make_partition(np.array([0, 0, 1, 1, 2, 2]), 3)
    w = nu / coarse.aggregate(nu, part)[part.assignment]
    cols, keys, vals = coarse.coarse_pattern(P, part)
    numbers = np.bincount(keys, weights=vals * w[cols], minlength=9).reshape(3, 3)
    try:
        expected = chain.validate(numbers)
    except NotStochasticError as exc:
        with pytest.raises(NotStochasticError) as got:
            coarse_chain(P, w, part)
        assert str(got.value) == str(exc) and got.value.column == exc.column
    else:
        assert defect == "tiny_negative" and numbers.min() < 0
        assert np.array_equal(coarse_chain(P, w, part).mat, expected.mat)
