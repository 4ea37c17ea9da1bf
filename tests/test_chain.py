import dataclasses

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (deviation, gth_reference, qr_null_vector, random_chain,
                      random_reversible_chain)
from iadrate import chain, models
from iadrate.errors import (
    InconsistentSteadyStateError,
    NotStochasticError,
    ReducibleMatrixError,
)


def test_validate_rejects_bad_column_sum():
    with pytest.raises(NotStochasticError) as exc:
        chain.validate(np.array([[0.5, 0.0], [0.4, 1.0]]))
    assert exc.value.column == 0


def test_validate_clamps_tiny_negatives():
    P = chain.validate(np.array([[1.0 + 1e-15, 0.5], [-1e-15, 0.5]]))
    assert np.all(P.mat >= 0)


@pytest.mark.parametrize("store", [np.array, scipy.sparse.csc_array])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_rejects_non_finite(store, bad):
    with pytest.raises(NotStochasticError) as exc:
        chain.validate(store(np.array([[0.5, bad], [0.5, bad]])))
    assert exc.value.column == 1


def test_validate_sparse_input_becomes_canonical_csc():
    coo = scipy.sparse.coo_array(
        ([0.25, 0.25, 1.0, 0.5, -1e-15], ([1, 1, 0, 0, 1], [0, 0, 1, 0, 1])),
        shape=(2, 2))
    P = chain.validate(coo)
    assert P.mat.format == "csc" and P.mat.has_canonical_format
    assert np.array_equal(P.dense(), [[0.5, 1.0], [0.5, 0.0]])
    with pytest.raises(NotStochasticError) as exc:
        chain.validate(scipy.sparse.csr_array([[0.5, 1.2], [0.5, -0.2]]))
    assert exc.value.column == 1


def test_irreducibility():
    # steady_state is the irreducibility test: it succeeds on a cyclic
    # shift and raises on the identity's three closed classes
    shift = models.right_shift(4)
    assert np.allclose(chain.steady_state(shift).probs, 0.25)
    block = chain.StochasticMatrix(mat=np.eye(3))
    with pytest.raises(ReducibleMatrixError):
        chain.steady_state(block)


def test_is_irreducible_agrees_with_steady_state():
    # the graph test and GTH's elimination tell the same chains apart:
    # closed classes, a transient state, two classes of a reversible chain
    # (dense and CSC), and the diagonal moves on the even 2D grid, which
    # keep the parity of i + j
    rng = np.random.default_rng(3)
    two_class, _ = random_reversible_chain(rng, 12, split=6, coupling=0.0)
    coupled, _ = random_reversible_chain(rng, 12, split=6, coupling=1e-3)
    spec = dataclasses.replace(models.benchmark_chain_2d_spec(), N=10)
    chains = {
        "shift": models.right_shift(4),
        "identity": chain.StochasticMatrix(mat=np.eye(3)),
        "transient": chain.StochasticMatrix(mat=np.array([[1.0, 1.0], [0.0, 0.0]])),
        "two classes": two_class,
        "two classes, CSC": chain.StochasticMatrix(mat=scipy.sparse.csc_array(two_class.mat)),
        "coupled": coupled,
        "2D axis moves": models.reversible_chain_2d(models.boltzmann_2d(spec), spec),
    }
    spec = dataclasses.replace(spec, move_set="diagonal")
    chains["2D diagonal moves"] = models.reversible_chain_2d(models.boltzmann_2d(spec), spec)
    for name, P in chains.items():
        try:
            chain.steady_state(P)
            expect = True
        except ReducibleMatrixError:
            expect = False
        assert chain.is_irreducible(P) == expect, name
    assert chain.is_irreducible(chains["2D axis moves"])
    assert not chain.is_irreducible(chains["2D diagonal moves"])


def test_ptp_irreducible_marek_false():
    # marek is irreducible, but P* P is not: lambda_2 of P* P is 1
    P, _, _ = models.pathological_fixtures()["marek"]
    mu = chain.steady_state(P)
    assert abs(chain.pstar_p_spectrum(P, mu).lambdas[1] - 1.0) < 1e-10


def test_steady_state_two_state():
    # birth-death oracle: mu proportional to (q, p) for hop rates p, q
    P = chain.StochasticMatrix(mat=np.array([[0.7, 0.2], [0.3, 0.8]]))
    mu = chain.steady_state(P)
    assert np.allclose(mu.probs, [0.4, 0.6], atol=1e-10)


def test_steady_state_reversible_oracle(bench_1d):
    # the Boltzmann weights are the exact steady state by construction
    P, mu = bench_1d
    est = chain.steady_state(P)
    assert np.max(np.abs(est.probs - mu.probs)) < 1e-9


def test_steady_state_reducible_raises():
    with pytest.raises(ReducibleMatrixError):
        chain.steady_state(chain.StochasticMatrix(mat=np.eye(2)))


def _max_rel_err(est, exact):
    return float(np.max(np.abs(est - exact) / exact))


# The ends of the size range, and both sides of the elimination's block
# edges: one block, one block plus a state, two, two plus a state.
_BLOCK_EDGES = (1, 64, 65, 128, 129, 200)


def _at_block_edges(smallest):
    def add_examples(test):
        for n in _BLOCK_EDGES:
            if n >= smallest:
                test = example(n=n, seed=0)(test)
        return test
    return add_examples


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 200), st.integers(0, 10_000))
@_at_block_edges(1)
def test_steady_state_matches_qr_oracle(n, seed):
    P = random_chain(np.random.default_rng(seed), n)
    v = qr_null_vector(np.eye(n) - P.mat)
    v = np.abs(v) / np.abs(v).sum()
    assert _max_rel_err(chain.steady_state(P).probs, v) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 200), st.integers(0, 10_000))
@_at_block_edges(2)
def test_steady_state_nearly_decomposable_componentwise(n, seed):
    # the QR null vector is only normwise accurate here and cannot serve
    # as the oracle: I - P has a second singular value near 1e-12
    rng = np.random.default_rng(seed)
    P, mu = random_reversible_chain(rng, n, int(rng.integers(1, n)), 1e-12)
    assert _max_rel_err(chain.steady_state(P).probs, mu.probs) < 1e-12


@pytest.mark.parametrize("split", [1, 100, 136, 137, 199])
def test_steady_state_two_closed_classes_raise(split):
    # n = 200 eliminates in blocks [136, 200), [72, 136), [8, 72), [0, 8)
    rng = np.random.default_rng(split)
    P, _ = random_reversible_chain(rng, 200, split, 0.0)
    with pytest.raises(ReducibleMatrixError):
        chain.steady_state(P)


@pytest.mark.parametrize("n, t", [(2, 1), (200, 0), (200, 71), (200, 72),
                                  (200, 199)])
def test_steady_state_transient_state_raises(n, t):
    # n = 2 gives [[1, 1], [0, 0]], the coarse matrix of reducible_coarse
    rng = np.random.default_rng(t)
    raw = rng.random((n, n))
    raw[t, :] = 0.0  # no state moves into t
    P = chain.StochasticMatrix(mat=raw / raw.sum(axis=0))
    with pytest.raises(ReducibleMatrixError):
        chain.steady_state(P)


def test_steady_state_2d_boltzmann(bench_2d):
    # N = 2500: forty blocks of the elimination
    P, mu = bench_2d
    assert _max_rel_err(chain.steady_state(P).probs, mu.probs) < 1e-12


def _planted_tails(test):
    # the states kept after the tail, n - tail of them, on both sides of
    # the elimination's block edges at 64 and 128
    for kind in ("random", "nearly_decomposable"):
        for n in (65, 66, 129, 130):
            for tail in (2, 63, 64, 65):
                if tail < n:
                    test = example(kind=kind, n=n, tail=tail, seed=n + tail)(test)
    return test


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["random", "nearly_decomposable"]), st.integers(3, 200),
       st.integers(2, 199), st.integers(0, 10_000))
@_planted_tails
def test_steady_state_non_adjacent_tail_matches_oracle(kind, n, tail, seed):
    tail = min(tail, n - 1)
    rng = np.random.default_rng(seed)
    if kind == "random":
        P, mu = random_chain(rng, n, tail=tail), None
    else:
        P, mu = random_reversible_chain(rng, n, int(rng.integers(1, n)), 1e-12,
                                        tail=tail)
    # every other state has a move to or from the planted run, which is
    # therefore the one steady_state takes at once
    assert chain._independent_tail(P.dense().T) == n - tail
    est = chain.steady_state(P).probs
    assert _max_rel_err(est, gth_reference(P)) < 1e-12
    if mu is not None:
        assert _max_rel_err(est, mu.probs) < 1e-12


@pytest.mark.parametrize("defect", ["absorbing", "transient"])
@pytest.mark.parametrize("n, tail, k", [(10, 4, 6), (66, 2, 65), (130, 65, 65),
                                        (130, 65, 129)])
def test_steady_state_reducible_in_the_tail_raises(defect, n, tail, k):
    # an absorbing state k of the run has a zero pivot; a transient one,
    # which no state moves into, a positive pivot and a zero component
    P = random_chain(np.random.default_rng(k), n, tail=tail).mat
    if defect == "absorbing":
        P[:, k] = 0.0
        P[k, k] = 1.0
        match = f"zero pivot at state {k}"
    else:
        P[k, :] = 0.0
        P /= P.sum(axis=0)
        match = "transient state"
    P = chain.StochasticMatrix(mat=P)
    assert chain._independent_tail(P.dense().T) == n - tail
    with pytest.raises(ReducibleMatrixError, match=match):
        chain.steady_state(P)


def test_time_reversal_fixes_mu_and_is_stochastic():
    rng = np.random.default_rng(1)
    P = random_chain(rng, 8)
    mu = chain.steady_state(P)
    R = chain.time_reversal(P, mu)
    assert np.allclose(R.mat.sum(axis=0), 1.0)
    assert np.allclose(R.mat @ mu.probs, mu.probs, atol=1e-12)


def test_time_reversal_rejects_non_invariant():
    rng = np.random.default_rng(2)
    P = random_chain(rng, 6)
    bad = chain.ProbabilityVector(probs=np.full(6, 1.0 / 6.0))
    with pytest.raises(InconsistentSteadyStateError):
        chain.time_reversal(P, bad)


def test_reversibility_detection():
    rng = np.random.default_rng(3)
    P, mu = random_reversible_chain(rng, 9)
    assert chain.is_reversible(P, mu)
    Q = random_chain(rng, 9)
    assert not chain.is_reversible(Q, chain.steady_state(Q))


def test_time_reversal_keeps_csc(bench_1d):
    P, mu = bench_1d
    R = chain.time_reversal(P, mu)
    assert R.mat.format == "csc"
    m = mu.probs
    assert np.allclose(R.dense(), (m[:, None] * P.dense().T) / m[None, :],
                       atol=1e-15)
    assert chain.is_reversible(P, mu)
    Q = models.mix(P, models.left_shift(P.n), 0.1)
    assert not chain.is_reversible(Q, chain.steady_state(Q))


@pytest.mark.parametrize("alpha", [0.0, 0.15])
def test_time_reversal_is_bitwise_the_broadcast_formula(alpha):
    # the sparse branch scales P's own arrays in the order of the dense
    # broadcast m_i P_ji (1 / m_j): every entry equal bit for bit, on dense
    # and on sparse input, random or banded
    rng = np.random.default_rng(11)
    Q = random_chain(rng, 40)
    P, mu, _ = models.build_model({"alpha": alpha})
    chains = [(P, chain.steady_state(P) if mu is None else mu),
              (Q, chain.steady_state(Q))]
    for P, mu in chains:
        m = mu.probs
        expect = P.dense().T * m[:, None] * (1.0 / m)[None, :]
        for stored in (P.dense(), scipy.sparse.csc_array(P.dense())):
            R = chain.time_reversal(chain.StochasticMatrix(mat=stored), mu)
            assert scipy.sparse.issparse(R.mat) == scipy.sparse.issparse(stored)
            assert np.array_equal(R.dense(), expect)
            if scipy.sparse.issparse(stored):
                broadcast = stored.T * m[:, None] * (1.0 / m)[None, :]
                assert np.array_equal(R.dense(), broadcast.toarray())


def test_pstar_p_spectrum_structure():
    rng = np.random.default_rng(4)
    P = random_chain(rng, 10)
    mu = chain.steady_state(P)
    sd = chain.pstar_p_spectrum(P, mu)
    assert sd.lambdas[0] == 1.0
    assert np.all(np.diff(sd.lambdas) <= 1e-12)
    assert np.all(sd.lambdas >= -1e-12)
    assert np.allclose(sd.right_vectors[:, 0], mu.probs)
    # right vectors orthonormal in l2(1/mu)
    G = sd.right_vectors.T @ (sd.right_vectors / mu.probs[:, None])
    assert np.allclose(G, np.eye(10), atol=1e-8)


def test_pstar_p_spectrum_clamps_roundoff_negatives():
    # P* P is positive semidefinite; on reducible_coarse its zero
    # eigenvalue comes out of LAPACK as about -1.4e-16
    P, _, _ = models.pathological_fixtures()["reducible_coarse"]
    sd = chain.pstar_p_spectrum(P, chain.steady_state(P))
    assert np.all(sd.lambdas >= 0.0)
    assert sd.lambdas[2] == pytest.approx(0.0, abs=1e-15)


def test_pstar_p_spectrum_is_spectrum_of_composition():
    rng = np.random.default_rng(6)
    P = random_chain(rng, 12)
    mu = chain.steady_state(P)
    sd = chain.pstar_p_spectrum(P, mu)
    comp = chain.time_reversal(P, mu).mat @ P.mat  # P* P with P* in l2(1/mu)
    # oracle: dense nonsymmetric eigensolve of the composition itself
    expect = np.sort(np.linalg.eigvals(comp).real)[::-1]
    assert np.allclose(sd.lambdas, expect, atol=1e-8)


def test_deviation_kills_mu_direction():
    rng = np.random.default_rng(7)
    P = random_chain(rng, 7)
    mu = chain.steady_state(P)
    hat = deviation(P, mu) @ np.eye(7)
    assert np.allclose(hat @ mu.probs, 0.0, atol=1e-12)
    assert np.allclose(np.ones(7) @ hat, 0.0, atol=1e-12)


def test_vector_roundtrip(tmp_path):
    mu = chain.ProbabilityVector(probs=np.array([0.25, 0.5, 0.25]))
    path = tmp_path / "mu.txt"
    chain.save_vector(path, mu)
    assert np.array_equal(np.loadtxt(path), mu.probs)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 15), st.integers(0, 10_000))
def test_steady_state_is_invariant(n, seed):
    rng = np.random.default_rng(seed)
    P = random_chain(rng, n)
    mu = chain.steady_state(P)
    assert np.all(mu.probs > 0)
    assert mu.probs.sum() == pytest.approx(1.0)
    assert np.max(np.abs(P.mat @ mu.probs - mu.probs)) < 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000))
def test_time_reversal_involution(n, seed):
    rng = np.random.default_rng(seed)
    P = random_chain(rng, n)
    mu = chain.steady_state(P)
    R = chain.time_reversal(chain.time_reversal(P, mu), mu)
    assert np.allclose(R.mat, P.mat, atol=1e-10)
