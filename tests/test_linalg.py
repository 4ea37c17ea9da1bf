import numpy as np
import pytest
import scipy.sparse.linalg

from conftest import qr_null_vector, random_chain
from iadrate import chain, linalg, models
from iadrate.errors import (
    EigenConvergenceError,
    NotSymmetricError,
    SingularMatrixError,
)


def test_lu_solve_matches_numpy():
    rng = np.random.default_rng(3)
    A = rng.random((12, 12)) + 12 * np.eye(12)
    B = rng.random((12, 3))
    X = linalg.lu_solve(A, B)
    assert np.allclose(A @ X, B, atol=1e-10)


def test_lu_solve_singular_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        linalg.lu_solve(A, np.eye(2))


def test_lu_solve_tiny_pivot_raises():
    # a nonzero pivot so small that the solution overflows
    with pytest.raises(SingularMatrixError):
        linalg.lu_solve(np.diag([1e-310, 1.0]), np.ones((2, 1)))


def test_qr_null_vector():
    # the steady-state tests' oracle, on a rank-2 matrix on R^3 with
    # known kernel direction (1,1,1)
    A = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, -1.0]])
    v = qr_null_vector(A)
    assert np.linalg.norm(A @ v) < 1e-12
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_qr_null_vector_ambiguous():
    with pytest.raises(ValueError):
        qr_null_vector(np.zeros((3, 3)))


def test_leading_eigs_symmetric_descending_and_orthonormal():
    rng = np.random.default_rng(5)
    S = rng.random((10, 10))
    S = 0.5 * (S + S.T)
    pairs = linalg.leading_eigs(S, 2, symmetric=True, vectors=True)
    assert np.all(np.diff(pairs.lambdas) <= 1e-14)
    assert np.allclose(pairs.vectors.T @ pairs.vectors, np.eye(10), atol=1e-12)
    assert np.allclose(S @ pairs.vectors, pairs.vectors * pairs.lambdas, atol=1e-10)
    lambdas = linalg.leading_eigs(S, 2, symmetric=True).lambdas
    # LAPACK computes all 10 pairs, with or without vectors, and returns them
    assert len(lambdas) == len(pairs.lambdas) == 10
    assert np.allclose(lambdas, pairs.lambdas, atol=1e-12)


@pytest.mark.parametrize("vectors", [False, True])
def test_leading_eigs_rejects_asymmetric(vectors):
    with pytest.raises(NotSymmetricError):
        linalg.leading_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]), 1,
                            symmetric=True, vectors=vectors)


@pytest.mark.parametrize("vectors", [False, True])
def test_leading_eigs_one_symmetry_tolerance(vectors):
    # a 1e-11 relative asymmetry fails the check with or without vectors
    S = np.array([[1.0, 0.5], [0.5 + 1e-11, 1.0]])
    with pytest.raises(NotSymmetricError):
        linalg.leading_eigs(S, 1, symmetric=True, vectors=vectors)
    S[1, 0] = 0.5 + 1e-13
    assert linalg.leading_eigs(S, 1, symmetric=True, vectors=vectors).lambdas[0] \
        == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("solver, symmetric, vectors", [
    ("eigvals", False, False), ("eigh", True, True), ("eigvalsh", True, False)])
def test_leading_eigs_lapack_failure_is_typed(monkeypatch, solver, symmetric,
                                              vectors):
    def fails(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, solver, fails)
    with pytest.raises(EigenConvergenceError):
        linalg.leading_eigs(np.eye(3), 1, symmetric=symmetric, vectors=vectors)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("symmetric, vectors", [(False, False), (True, True),
                                                (True, False)])
def test_leading_eigs_refuses_a_non_finite_entry(bad, symmetric, vectors):
    # eigh and eigvalsh would return NaN eigenvalues, unsorted, with no error
    M = np.eye(4)
    M[1, 2] = M[2, 1] = bad
    with pytest.raises(EigenConvergenceError, match="NaN or infinite"):
        linalg.leading_eigs(M, 1, symmetric=symmetric, vectors=vectors)
    # the same check on the matrix an operator materializes into, where
    # inf times the identity's zeros is NaN
    op = linalg.block_operator(4, lambda X: M @ X)
    with np.errstate(invalid="ignore"), \
            pytest.raises(EigenConvergenceError, match="NaN or infinite"):
        linalg.leading_eigs(op, 1, symmetric=symmetric, vectors=vectors)


@pytest.mark.parametrize("n", [50, linalg.ARPACK_MIN_N + 50])
def test_leading_eigs_vectors_only_for_symmetric(n):
    # LAPACK (below the crossover) and ARPACK (above) both refuse
    A = np.random.default_rng(13).random((n, n))
    with pytest.raises(ValueError):
        linalg.leading_eigs(A, 2, vectors=True)


def test_leading_eigs_modulus_sorted():
    A = np.diag([1.0, -3.0, 2.0])
    ev = linalg.leading_eigs(A, 1).lambdas
    assert np.allclose(np.abs(ev), [3.0, 2.0, 1.0])


def test_leading_eigs_weighted_similarity_matches_dense():
    # operators of the form diag(1/w) S with S symmetric PSD are
    # self-adjoint and PSD in l2(w); their radius is the top eigenvalue
    # of diag(1/sqrt(w)) S diag(1/sqrt(w)), reached through the
    # similarity diag(sqrt(w)) M diag(1/sqrt(w)) that norm_bound applies
    rng = np.random.default_rng(11)
    w = rng.random(20) + 0.1
    B = rng.standard_normal((20, 20))
    S = B @ B.T
    M = S / w[:, None]
    sw = np.sqrt(w)
    expect = np.linalg.eigvalsh(S / np.outer(sw, sw)).max()
    swc = sw[:, None]
    op = linalg.block_operator(20, lambda X: swc * (M @ (X / swc)))
    got = linalg.leading_eigs(op, 1, symmetric=True).lambdas[0]
    assert got == pytest.approx(expect)


def _diagonal_operator(d):
    return linalg.block_operator(len(d), lambda X: d[:, None] * X)


@pytest.mark.parametrize("symmetric", [False, True])
def test_leading_eigs_arpack_branch(symmetric):
    # above the crossover ARPACK runs on the operator and returns every
    # pair it verified, _ARPACK_MIN_K of them; below it, and for k >= n - 1,
    # LAPACK on the materialized matrix returns all n
    big = linalg.ARPACK_MIN_N + 50
    for n, k, count in ((big, 3, linalg._ARPACK_MIN_K), (50, 3, 50),
                        (big, big - 1, big)):
        d = np.linspace(-0.5, 1.0, n)
        d[7] = -2.0  # largest modulus, smallest value
        got = linalg.leading_eigs(_diagonal_operator(d), k, symmetric=symmetric)
        expect = [1.0, d[-2], d[-3]] if symmetric else [-2.0, 1.0, d[-2]]
        assert len(got.lambdas) == count
        assert np.allclose(got.lambdas[:3], expect, atol=1e-12)


@pytest.mark.parametrize("solver", ["eigs", "eigsh"])
def test_leading_eigs_rejects_an_arpack_pair_with_a_large_residual(monkeypatch, solver):
    # an eigenvalue off by 1e-6 relative is caught by the residual check
    real = getattr(scipy.sparse.linalg, solver)

    def off(*args, **kwargs):
        vals, vecs = real(*args, **kwargs)
        return vals * (1.0 + 1e-6), vecs

    monkeypatch.setattr(scipy.sparse.linalg, solver, off)
    d = np.linspace(0.0, 1.0, linalg.ARPACK_MIN_N + 50)
    with pytest.raises(EigenConvergenceError):
        linalg.leading_eigs(_diagonal_operator(d), 2, symmetric=solver == "eigsh")


def test_resolvent_matches_dense_inverse():
    rng = np.random.default_rng(12)
    for P in (random_chain(rng, 15), models.reversible_chain_1d(
            models.boltzmann_1d(models.benchmark_chain_1d_spec()))):
        m = chain.steady_state(P).probs
        I = np.eye(P.n)
        expect = np.linalg.inv(I - P.dense() + np.outer(m, np.ones(P.n)))
        got = linalg.resolvent(P.mat, m) @ I
        assert np.max(np.abs(got - expect)) <= 1e-10 * np.max(np.abs(expect))
    # P* P = I for a cyclic shift: I - Q + m 1^T is singular
    with pytest.raises(SingularMatrixError):
        linalg.resolvent(np.eye(12), np.full(12, 1.0 / 12))
