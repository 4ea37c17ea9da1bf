import csv
import dataclasses
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    aggregation_matrix,
    count_calls,
    deviation,
    disaggregation_matrix,
    oblique_projection,
    random_chain,
    random_partition,
    random_reversible_chain,
    sorted_by_modulus,
)
from iadrate import chain, coarse, diagnostics, linalg, models
from iadrate.errors import (DimensionError, IadError,
                            InconsistentSteadyStateError, PartitionError,
                            ReducibleMatrixError)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def test_error_operator_single_coarse_state():
    rng = np.random.default_rng(0)
    P = random_chain(rng, 8)
    mu = chain.steady_state(P)
    J = diagnostics.error_operator(P, mu, coarse.trivial_partition(8)) @ np.eye(8)
    assert np.allclose(J, deviation(P, mu) @ np.eye(8), atol=1e-12)


def test_error_operator_is_one_block_operator(monkeypatch):
    # J applies S(mu)'s n x N factor itself, under one LinearOperator
    rng = np.random.default_rng(2)
    P = random_chain(rng, 9)
    mu = chain.steady_state(P)
    part = random_partition(rng, 9, 3)
    calls = count_calls(monkeypatch, linalg.block_operator, linalg)
    diagnostics.error_operator(P, mu, part)
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1e-3])
def test_error_operator_refuses_a_non_finite_or_non_positive_mu(bad):
    # an x <= 0 screen let NaN through to a non-finite LU solution;
    # untyped errors and warnings are failures
    P, _, _ = models.build_model({"alpha": 0.05})
    x = chain.steady_state(P).probs.copy()
    x[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="error_operator: mu must be finite and strictly positive"):
            diagnostics.error_operator(P, chain.ProbabilityVector(probs=x),
                                       models.split1d(100, 57))


def test_error_operator_singleton_partition_is_zero():
    rng = np.random.default_rng(1)
    P = random_chain(rng, 6)
    mu = chain.steady_state(P)
    J = diagnostics.error_operator(P, mu, coarse.singleton_partition(6)) @ np.eye(6)
    assert np.max(np.abs(J)) < 1e-12


def test_error_operator_rank_one_chain_is_zero():
    rng = np.random.default_rng(2)
    m = rng.dirichlet(np.ones(5))
    P = chain.StochasticMatrix(mat=np.tile(m[:, None], (1, 5)))
    mu = chain.ProbabilityVector(probs=m)
    part = coarse.make_partition(np.array([0, 0, 1, 1, 1]), 2)
    J = diagnostics.error_operator(P, mu, part) @ np.eye(5)
    assert np.max(np.abs(J)) < 1e-12


def test_rho_J_direct_zero():
    assert diagnostics.rho_J_direct(np.zeros((4, 4))) == 0.0


def test_exact_formula_matches_direct_spectrum():
    rng = np.random.default_rng(3)
    for _ in range(5):
        N = int(rng.integers(8, 30))
        P = random_chain(rng, N)
        mu = chain.steady_state(P)
        part = random_partition(rng, N, int(rng.integers(2, 5)))
        J = diagnostics.error_operator(P, mu, part) @ np.eye(N)
        direct = np.linalg.eigvals(J)
        formula = diagnostics.ChainRates(P, mu).exact_formula(part)
        padded = np.concatenate([formula, np.zeros(N - len(formula))])
        assert np.max(np.abs(sorted_by_modulus(direct)
                             - sorted_by_modulus(padded))) < 1e-7


def test_norm_bound_reversible_equals_rho(bench_1d):
    P, mu = bench_1d
    for ell in (10, 40, 57, 80):
        part = models.split1d(100, ell)
        rho = diagnostics.rho_J_direct(diagnostics.error_operator(P, mu, part))
        nb = diagnostics.norm_bound(P, mu, part)
        assert nb == pytest.approx(rho, abs=1e-9)


def test_norm_bound_general_upper_bounds_rho():
    rng = np.random.default_rng(4)
    for _ in range(5):
        N = int(rng.integers(8, 25))
        P = random_chain(rng, N)
        mu = chain.steady_state(P)
        part = random_partition(rng, N, 3)
        rho = diagnostics.rho_J_direct(diagnostics.error_operator(P, mu, part))
        assert rho <= diagnostics.norm_bound(P, mu, part) + 1e-8


def test_sin_theta_zero_when_projector_range_contained():
    # strata aligned with the eigenvector structure of a block chain:
    # take the singleton partition, whose range is everything
    rng = np.random.default_rng(5)
    P = random_chain(rng, 7)
    mu = chain.steady_state(P)
    s = diagnostics.sin_theta(P, mu, coarse.singleton_partition(7), 3,
                              chain.pstar_p_spectrum(P, mu, 3))
    assert s == pytest.approx(0.0, abs=1e-7)


def test_sin_theta_bounds_and_k_validation(bench_1d):
    P, mu = bench_1d
    part = models.split1d(100, 57)
    sd = chain.pstar_p_spectrum(P, mu, 2)
    s = diagnostics.sin_theta(P, mu, part, 2, sd)
    assert 0.0 <= s <= 1.0
    with pytest.raises(ValueError):
        diagnostics.sin_theta(P, mu, part, 1, sd)
    with pytest.raises(ValueError):
        diagnostics.sin_theta(P, mu, part, 100, sd)


def test_angle_bound_endpoints():
    lambdas = np.array([1.0, 0.99, 0.9, 0.5])
    # sin = 0 gives sqrt(lambda_{k+1}); sin = 1 gives sqrt(lambda_2)
    b0 = diagnostics.angle_bound(lambdas, 0.0, 2, reversible=True)
    b1 = diagnostics.angle_bound(lambdas, 1.0, 2, reversible=True)
    assert b0 == pytest.approx(np.sqrt(0.9))
    assert b1 == pytest.approx(np.sqrt(0.99))
    # monotone in sin^2 between the endpoints
    mid = diagnostics.angle_bound(lambdas, 0.3, 2, reversible=True)
    assert b0 < mid < b1


def test_angle_bound_rejects_lambda2_one():
    lambdas = np.array([1.0, 1.0, 0.5])
    with pytest.raises(ReducibleMatrixError):
        diagnostics.angle_bound(lambdas, 0.5, 2, reversible=True)


def test_projection_pair_invariants(bench_1d):
    P, mu = bench_1d
    part = models.split1d(100, 57)
    sd = chain.pstar_p_spectrum(P, mu, 3)
    V = sd.vectors[:, :3]
    Q_k = V @ (V / mu.probs[:, None]).T
    w = 1.0 / mu.probs
    # Pi is also covered by acceptance criterion 7
    Pi = disaggregation_matrix(mu.probs, part) @ aggregation_matrix(part)
    for M in (Pi, Q_k):
        assert np.max(np.abs(M @ M - M)) < 1e-10
        W = w[:, None] * M
        assert np.max(np.abs(W - W.T)) < 1e-8


def test_full_report_1d(bench_1d):
    P, mu = bench_1d
    rep = diagnostics.full_report(P, models.split1d(100, 57), k_list=[2], mu=mu)
    assert rep.reversible
    assert rep.rho_J == pytest.approx(0.9924258561990739, abs=1e-10)
    assert rep.norm_bound == pytest.approx(rep.rho_J, abs=1e-9)
    assert rep.rho_exact_formula == pytest.approx(rep.rho_J, abs=1e-9)
    s2, bound = rep.angle_bounds[2]
    assert rep.rho_J <= rep.norm_bound + 1e-9 <= bound + 1e-8
    assert bound <= rep.sqrt_lambda2 + 1e-8
    assert rep.rho_hatP == pytest.approx(rep.sqrt_lambda2, abs=1e-9)


def test_full_report_detects_nonreversible():
    P0, mu0, _ = models.build_model({"model": "chain1d"})
    P = models.mix(P0, models.left_shift(100), 0.15)
    rep = diagnostics.full_report(P, models.split1d(100, 57), k_list=[2])
    assert not rep.reversible
    assert rep.rho_hatP == pytest.approx(0.989564, abs=2e-5)


def test_worst_two_state_partition_can_beat_power_method():
    # with strong non-reversibility some aggregation is slower than the
    # plain power method
    P0, _, _ = models.build_model({"model": "chain1d"})
    P = models.mix(P0, models.left_shift(100), 0.15)
    mu = chain.steady_state(P)
    rho_hat = diagnostics.rho_J_direct(deviation(P, mu))
    worst = max(
        diagnostics.rho_J_direct(
            diagnostics.error_operator(P, mu, models.split1d(100, ell)))
        for ell in range(0, 99, 7))
    assert worst > rho_hat


def test_refinement_compare(bench_1d):
    P, mu = bench_1d
    coarse_part = models.uniform1d(100, 2, 0)
    refined = models.uniform1d(100, 4, 0)
    rates = diagnostics.ChainRates(P, mu)
    rc, rr = rates.nested_rates([coarse_part, refined])
    assert rr <= rc + 1e-10
    same = rates.nested_rates([coarse_part, coarse_part])
    assert same[0] == pytest.approx(same[1], abs=1e-12)
    with pytest.raises(PartitionError):
        rates.nested_rates([refined, coarse_part])


def test_reversible_exact_formula_nonnegative_real(bench_1d):
    P, mu = bench_1d
    part = models.uniform1d(100, 5, 0)
    vals = diagnostics.ChainRates(P, mu).exact_formula(part)
    assert np.max(np.abs(np.imag(vals))) < 1e-9
    assert np.min(np.real(vals)) > -1e-9


def test_reversible_random_chains_bound_chain():
    rng = np.random.default_rng(6)
    for _ in range(5):
        N = int(rng.integers(8, 20))
        P, mu = random_reversible_chain(rng, N)
        part = random_partition(rng, N, 3)
        rep = diagnostics.full_report(P, part, k_list=[2, 3], mu=mu)
        assert rep.reversible
        assert rep.rho_J <= rep.norm_bound + 1e-8
        for _, bound in rep.angle_bounds.values():
            assert rep.norm_bound <= bound + 1e-8
            assert bound <= rep.sqrt_lambda2 + 1e-8


def _chain_of_kind(rng, N, kind):
    if kind == "reversible":
        return random_reversible_chain(rng, N)
    if kind == "nearly decomposable":
        return random_reversible_chain(rng, N, split=N // 2, coupling=1e-3)
    P = random_chain(rng, N)
    return P, chain.steady_state(P)


def _on_both_branches(fn):
    """fn() with the eigensolves on LAPACK, then on ARPACK: the crossover
    is lowered below every fine operator, while the k x k Gram matrix of
    sin_theta stays dense."""
    dense = fn()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "ARPACK_MIN_N", 10)
        return dense, fn()


@settings(max_examples=40, deadline=None)
@given(st.integers(10, 60),
       st.sampled_from(["reversible", "general", "nearly decomposable"]),
       st.integers(0, 10_000))
def test_arpack_branch_matches_lapack_branch(N, kind, seed):
    rng = np.random.default_rng(seed)
    P, mu = _chain_of_kind(rng, N, kind)
    part = random_partition(rng, N, int(rng.integers(2, min(N, 8))))

    def quantities():
        rep = diagnostics.full_report(P, part, [2, 3], mu)
        lambdas = chain.pstar_p_spectrum(P, mu, 4).lambdas[:4]
        if rep.reversible:
            assert rep.rho_exact_formula == pytest.approx(rep.rho_J, abs=1e-8)
        return np.array(
            [rep.rho_J, rep.rho_hatP, rep.norm_bound, *lambdas]
            + [np.sqrt(rep.angle_bounds[k][0]) for k in (2, 3)]
            + [rep.angle_bounds[k][1] for k in (2, 3)])

    dense, arpack = _on_both_branches(quantities)
    assert np.max(np.abs(arpack - dense)) < 1e-8


@settings(max_examples=30, deadline=None)
@given(st.integers(10, 60),
       st.sampled_from(["reversible", "general", "nearly decomposable"]),
       st.integers(0, 10_000))
def test_sin_theta_matches_dense_oracle(N, kind, seed):
    # sin^2 theta is lambda_max of V_k^T (I - Pi)^T diag(1/mu) (I - Pi) V_k
    # with Pi = D(mu) A from the dense oracles, for the pairs of either
    # branch
    rng = np.random.default_rng(seed)
    P, mu = _chain_of_kind(rng, N, kind)
    part = random_partition(rng, N, int(rng.integers(2, min(N, 8))))
    E = np.eye(N) - disaggregation_matrix(mu.probs, part) @ aggregation_matrix(part)

    def sines():
        sd = chain.pstar_p_spectrum(P, mu, 4)
        return sd, [diagnostics.sin_theta(P, mu, part, k, sd) for k in (2, 3)]

    for sd, got in _on_both_branches(sines):
        for k, s in zip((2, 3), got):
            F = E @ sd.vectors[:, :k]
            s2 = np.linalg.eigvalsh(F.T @ (F / mu.probs[:, None]))[-1]
            assert s * s == pytest.approx(min(max(s2, 0.0), 1.0), abs=1e-12)


def _dense_K(mu, part, Q):
    """K = (I - Pi)(I - Q + mu 1^T)^{-1}(I - Pi) from a dense inverse."""
    m, I = mu.probs, np.eye(len(mu.probs))
    E = I - disaggregation_matrix(m, part) @ aggregation_matrix(part)
    return E @ np.linalg.inv(I - Q + np.outer(m, np.ones(len(m)))) @ E


def _dense_norm_K(P, mu, part):
    """||K|| in l2(1/mu), K from Q = P (reversible) or P* P; and
    reversibility."""
    m, Pd = mu.probs, P.dense()
    rev = chain.is_reversible(P, mu)
    Q = Pd if rev else (Pd.T * m[:, None] / m[None, :]) @ Pd
    K = _dense_K(mu, part, Q)
    sm = np.sqrt(m)
    return np.linalg.norm(K * sm[None, :] / sm[:, None], 2), rev


@settings(max_examples=30, deadline=None)
@given(st.integers(10, 60),
       st.sampled_from(["reversible", "general", "nearly decomposable"]),
       st.integers(0, 10_000))
def test_norm_bound_matches_dense_norm(N, kind, seed):
    # norm_bound is 1 - 1/||K|| for a reversible chain (below
    # ARPACK_MIN_N, rho(J): the same here, where no eigenvalue of J lies
    # below -rho), its square root otherwise; ||K|| recovered from it
    # matches the dense norm
    rng = np.random.default_rng(seed)
    P, mu = _chain_of_kind(rng, N, kind)
    part = random_partition(rng, N, int(rng.integers(2, min(N, 8))))
    expect, rev = _dense_norm_K(P, mu, part)
    for nb in _on_both_branches(lambda: diagnostics.norm_bound(P, mu, part)):
        norm = 1.0 / (1.0 - (nb if rev else nb * nb))
        assert norm == pytest.approx(expect, rel=1e-10)


def _rates_on(rates, part):
    """Every per-partition quantity of a ChainRates, as flat arrays."""
    return [np.atleast_1d(x) for x in (
        rates.rho_J(part), rates.exact_formula(part), rates.norm_bound(part),
        rates.angle(part, 2), rates.angle(part, 3))]


def _same_pairs(a, b, k):
    """The k leading P* P pairs of a and b are bitwise equal."""
    return (np.array_equal(a.lambdas[:k], b.lambdas[:k])
            and np.array_equal(a.vectors[:, :k], b.vectors[:, :k]))


@settings(max_examples=25, deadline=None)
@given(st.integers(10, 60),
       st.sampled_from(["reversible", "general", "nearly decomposable"]),
       st.integers(0, 10_000))
def test_prepared_chain_matches_fresh_and_dense_oracle(N, kind, seed):
    # one ChainRates reused over several partitions gives exactly the
    # numbers of a fresh one per partition, and so do its cached P* P
    # pairs, asked for 5 then 3 or 3 then 5 (ARPACK converges at least
    # _ARPACK_MIN_K of them, so k <= 6 gives the same pairs), and its
    # cached rho(P_hat); its exact formula and norm bound match the dense
    # K, on the LAPACK and on the ARPACK branch
    assert 5 <= linalg._ARPACK_MIN_K
    rng = np.random.default_rng(seed)
    P, mu = _chain_of_kind(rng, N, kind)
    parts = [random_partition(rng, N, int(rng.integers(2, min(N, 8))))
             for _ in range(3)]
    expect = [_dense_norm_K(P, mu, part)[0] for part in parts]
    K_spectra = [np.linalg.eigvals(_dense_K(mu, part, P.dense()))
                 for part in parts]

    def check():
        shared = diagnostics.ChainRates(P, mu)
        fresh3 = diagnostics.ChainRates(P, mu).pairs(3)
        assert _same_pairs(shared.pairs(5), diagnostics.ChainRates(P, mu).pairs(5), 5)
        assert _same_pairs(shared.pairs(3), fresh3, 3)
        ascending = diagnostics.ChainRates(P, mu)
        assert _same_pairs(ascending.pairs(3), fresh3, 3)
        assert _same_pairs(ascending.pairs(5), shared.pairs(5), 5)
        for part, norm, lam in zip(parts, expect, K_spectra):
            got = _rates_on(shared, part)
            fresh = _rates_on(diagnostics.ChainRates(P, mu), part)
            for a, b in zip(got, fresh):
                assert np.array_equal(a, b, equal_nan=True)
            lam = lam[np.abs(lam) > 1e-9 * np.abs(lam).max()]
            for v in got[1][:-1]:
                assert np.min(np.abs(1.0 - 1.0 / lam - v)) < 1e-7
            nb = got[2][0]
            nb = nb if shared.reversible else nb * nb
            assert 1.0 / (1.0 - nb) == pytest.approx(norm, rel=1e-10)
        rho = shared.rho_hatP()
        assert shared.rho_hatP() == rho == diagnostics.ChainRates(P, mu).rho_hatP()
        return rho

    Phat = P.dense() - mu.probs[:, None]
    for rho in _on_both_branches(check):
        assert rho == pytest.approx(np.max(np.abs(np.linalg.eigvals(Phat))), abs=1e-8)


def test_full_report_factors_once(bench_1d, monkeypatch):
    # the exact formula and the norm bound of a reversible chain share
    # one resolvent factor and one reversibility test
    P, mu = bench_1d
    resolvents = count_calls(monkeypatch, linalg.resolvent, linalg)
    tests = count_calls(monkeypatch, chain.is_reversible, chain, diagnostics)
    rep = diagnostics.full_report(P, models.split1d(100, 57), [2], mu)
    assert rep.reversible
    assert len(resolvents) == 1 and len(tests) == 1


@pytest.mark.parametrize("kind", ["reversible", "general"])
def test_singleton_partition_has_zero_formula_and_norm_bound(kind):
    # Pi = I, so K = 0 and J = 0: no eigenvalue of K to map or invert,
    # and rho_J is exactly 0, not ARPACK's roundoff on the zero operator
    rng = np.random.default_rng(9)
    P, mu = _chain_of_kind(rng, 30, kind)
    part = coarse.singleton_partition(30)
    assert chain.is_reversible(P, mu) == (kind == "reversible")

    def quantities():
        rep = diagnostics.full_report(P, part, [2, 3], mu)
        return (list(diagnostics.ChainRates(P, mu).exact_formula(part)),
                diagnostics.norm_bound(P, mu, part), rep.norm_bound,
                rep.rho_exact_formula, rep.rho_J)

    for got in _on_both_branches(quantities):
        assert got == ([0.0], 0.0, 0.0, 0.0, 0.0)


def test_partition_of_another_chain_raises():
    # 200 fine states in 100 strata on the 100-state chain: part.n equals
    # P.n, which is no singleton partition of this chain
    P, mu, _ = models.build_model({"model": "chain1d"})
    part = models.uniform1d(2 * P.n, P.n, 0)
    rates = diagnostics.ChainRates(P, mu)
    for quantity in (rates.rho_J, rates.norm_bound, rates.exact_formula,
                     lambda p: rates.nested_rates([p]),
                     lambda p: diagnostics.norm_bound(P, mu, p)):
        with pytest.raises(PartitionError, match="does not match partition"):
            quantity(part)


def _outcome(fn):
    try:
        return np.atleast_1d(np.asarray(fn(), dtype=float))
    except IadError as exc:
        return exc


def _partition_of_shape(rng, N, shape):
    if shape == "trivial":
        return coarse.trivial_partition(N)
    if shape == "singleton":
        return coarse.singleton_partition(N)
    return random_partition(rng, N, int(rng.integers(1, N)))


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 60),
       st.sampled_from(["reversible", "general", "nearly decomposable"]),
       st.sampled_from(["random", "trivial", "singleton"]),
       st.integers(0, 10_000))
def test_dense_rho_J_matches_direct_oracle(N, kind, shape, seed):
    # below ARPACK_MIN_N rho_J and the exact formula come from one dense
    # spectrum of the projected resolvent; eigvals of the dense J is the
    # oracle for both
    rng = np.random.default_rng(seed)
    P, mu = _chain_of_kind(rng, N, kind)
    part = _partition_of_shape(rng, N, shape)
    rates = diagnostics.ChainRates(P, mu)
    J = diagnostics.error_operator(P, mu, part) @ np.eye(N)
    assert rates.rho_J(part) == pytest.approx(diagnostics.rho_J_direct(J), abs=1e-10)
    formula = rates.exact_formula(part)
    padded = np.concatenate([formula, np.zeros(N - len(formula))])
    assert np.max(np.abs(sorted_by_modulus(np.linalg.eigvals(J))
                         - sorted_by_modulus(padded))) < 1e-7


@pytest.mark.parametrize("name", ["reducible_coarse", "marek", "periodic_shift"])
def test_dense_rho_J_on_pathological_fixtures_matches_direct(name):
    P, part, _ = models.pathological_fixtures()[name]
    mu = chain.steady_state(P)
    dense = _outcome(lambda: diagnostics.ChainRates(P, mu).rho_J(part))
    direct = _outcome(lambda: diagnostics.rho_J_direct(
        diagnostics.error_operator(P, mu, part)))
    if isinstance(direct, IadError):
        assert type(dense) is type(direct)
    else:
        assert not isinstance(dense, IadError), dense
        assert np.allclose(dense, direct, rtol=0.0, atol=1e-12)


def test_norm_bound_is_rho_J_on_reducible_coarse():
    # J has the spectrum {0, 0, -1/3}: the norm bound of this reversible
    # chain is the modulus 1/3, not the largest eigenvalue -1/3
    P, part, _ = models.pathological_fixtures()["reducible_coarse"]
    rates = diagnostics.ChainRates(P)
    assert rates.reversible
    assert sorted(rates.exact_formula(part)) == pytest.approx([-1 / 3, 0.0], abs=1e-12)
    assert rates.norm_bound(part) == pytest.approx(1 / 3, abs=1e-12)
    assert rates.norm_bound(part) >= rates.rho_J(part)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 60), st.floats(0.5, 1.0), st.integers(0, 10_000))
def test_reversible_J_spectrum_lies_above_the_gershgorin_floor(N, fill, seed):
    # the lemma behind ChainRates.rho_J's certificate: every eigenvalue of
    # J is at least min(0, p_min), p_min >= 2 min_j P_jj - 1; fill near 1
    # puts diagonal entries near 0, where the floor reaches -1
    rng = np.random.default_rng(seed)
    P, mu = random_reversible_chain(rng, N, fill=fill)
    part = _partition_of_shape(rng, N, "random")
    floor = 2.0 * P.dense().diagonal().min() - 1.0
    eig = np.linalg.eigvals(diagnostics.error_operator(P, mu, part) @ np.eye(N))
    assert np.max(np.abs(eig.imag)) < 1e-8
    assert eig.real.min() >= min(0.0, floor) - 1e-10
    if eig.real.max() >= max(0.0, -floor):
        assert eig.real.max() == pytest.approx(np.max(np.abs(eig)), abs=1e-10)


def test_table4_reports_read_one_symmetric_spectrum(bench_2d, monkeypatch):
    # both table-4 partitions pass the certificate, so neither report
    # takes an eigensolve of J or of P_hat; those are the oracles here
    P, mu = bench_2d
    oracle = diagnostics.rho_J_direct
    direct = count_calls(monkeypatch, diagnostics.rho_J_direct, diagnostics)
    parts = (models.stripes2d(50, 3), models.grid2d(50, 6))
    reps = [diagnostics.full_report(P, part, [2, 3], mu) for part in parts]
    assert direct == []
    rho_hat = oracle(deviation(P, mu))
    for rep, part in zip(reps, parts):
        assert rep.reversible
        assert rep.rho_J == pytest.approx(
            oracle(diagnostics.error_operator(P, mu, part)), abs=1e-8)
        assert rep.rho_hatP == pytest.approx(rho_hat, abs=1e-8)
        assert rep.rho_hatP == rep.sqrt_lambda2
    assert diagnostics.ChainRates(P, mu).rho_J(coarse.singleton_partition(P.n)) == 0.0


@pytest.mark.parametrize("part, most", [
    pytest.param(models.grid2d(50, 6), 75, id="grid2d:s=6"),
    pytest.param(models.stripes2d(50, 3), 62, id="stripes2d:s=3")])
def test_table4_report_arpack_products(bench_2d, part, most, monkeypatch):
    # the two eigsh runs of a table-4 report, on Rs and on M, stop at the
    # residual leading_eigs verifies: at machine precision they take 97
    # and 83 products. The residual check's block product is not eigsh's
    # and is not counted
    P, mu = bench_2d
    real, products = scipy.sparse.linalg.eigsh, []

    def counting(A, *args, **kwargs):
        def matvec(x):
            products.append(1)
            return A @ x
        return real(scipy.sparse.linalg.LinearOperator(
            A.shape, matvec=matvec, dtype=float), *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting)
    diagnostics.full_report(P, part, [2, 3], mu)
    assert 0 < len(products) <= most


@pytest.mark.parametrize("model, N, partition", [
    ("chain2d", 15, "grid2d:s=3"), ("chain2d", 15, "grid2d:s=5"),
    ("chain2d", 15, "stripes2d:s=3"), ("chain1d", 210, "split1d:ell=105")])
def test_arpack_tolerance_costs_no_accuracy_on_reversible_chains(model, N, partition):
    # just above ARPACK_MIN_N, eigsh's stopping tolerance leaves a
    # reversible chain's rates at the LAPACK branch's to roundoff
    P, mu, part = models.build_model(
        {"model": model, "N": str(N), "partition": partition})
    assert P.n >= linalg.ARPACK_MIN_N

    def rates():
        rep = diagnostics.full_report(P, part, [2, 3], mu)
        assert rep.reversible
        return (np.array([rep.rho_J, rep.sqrt_lambda2]),
                np.array([rep.angle_bounds[k][0] for k in (2, 3)]))

    arpack = rates()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "ARPACK_MIN_N", P.n + 1)
        dense = rates()
    assert np.max(np.abs(arpack[0] - dense[0])) <= 1e-12
    assert np.max(np.abs(arpack[1] - dense[1])) <= 1e-10


def _lazy_cycle():
    """The reversible cycle of 40 states with laziness 0.05 and its
    uniform mu."""
    S = np.roll(np.eye(40), 1, axis=0)
    return (chain.StochasticMatrix(mat=0.05 * np.eye(40) + 0.475 * (S + S.T)),
            chain.ProbabilityVector(probs=np.full(40, 1 / 40)))


@pytest.mark.parametrize("case", ["zero diagonal", "lazy cycle"])
def test_uncertified_reversible_rho_J_takes_the_direct_path(case, monkeypatch):
    # a zero diagonal entry puts the certificate's floor at 1, which no
    # rate reaches; on the lazy cycle in strata of two, J has the
    # eigenvalue -0.9 of the alternating mode and 0.05 as its largest,
    # under the floor 0.9. On the ARPACK branch rho_J is then one
    # rho_J_direct call, and the dense answer, which the norm bound of
    # the self-adjoint J repeats. The exact formula is J's whole spectrum
    # on the dense branch; on the ARPACK branch the lazy cycle's top six
    # eigenvalues of K map to 0.05 at most, short of rho_J: NaN
    rng = np.random.default_rng(11)
    if case == "zero diagonal":
        P, mu = random_reversible_chain(rng, 40, fill=1.0)
        part = random_partition(rng, 40, 4)
    else:
        P, mu = _lazy_cycle()
        part = models.uniform1d(40, 20, 0)
    dense = diagnostics.full_report(P, part, [2, 3], mu)
    assert dense.rho_exact_formula == dense.rho_J
    monkeypatch.setattr(linalg, "ARPACK_MIN_N", 10)
    direct = count_calls(monkeypatch, diagnostics.rho_J_direct, diagnostics)
    rep = diagnostics.full_report(P, part, [2, 3], mu)
    assert rep.reversible and len(direct) == 1
    assert rep.rho_J == pytest.approx(dense.rho_J, abs=1e-8)
    assert rep.norm_bound == rep.rho_J
    if case == "lazy cycle":
        assert rep.rho_J == pytest.approx(0.9, abs=1e-8)
        assert np.isnan(rep.rho_exact_formula)
    else:
        assert rep.rho_exact_formula == pytest.approx(rep.rho_J, abs=1e-8)


def test_pairs_below_arpack_min_n_solve_pstar_p_once(bench_1d, monkeypatch):
    # below ARPACK_MIN_N the first solve returns all n pairs, so asking
    # for more of them solves nothing again
    P, mu = bench_1d
    assert P.n < linalg.ARPACK_MIN_N
    spectra = count_calls(monkeypatch, chain.pstar_p_spectrum, diagnostics)
    rates = diagnostics.ChainRates(P, mu)
    assert len(rates.pairs(2).lambdas) == P.n
    assert rates.pairs(5) is rates.pairs(2)
    assert len(spectra) == 1


def test_rho_hatP_then_pairs_solves_pstar_p_once(monkeypatch):
    # ARPACK returns the six pairs it verified, so the pairs behind
    # rho_hatP (k = 2) also serve pairs(4)
    P, mu = _lazy_cycle()
    monkeypatch.setattr(linalg, "ARPACK_MIN_N", 10)
    spectra = count_calls(monkeypatch, chain.pstar_p_spectrum, diagnostics)
    rates = diagnostics.ChainRates(P, mu)
    rates.rho_hatP()
    assert len(rates.pairs(4).lambdas) == linalg._ARPACK_MIN_K
    assert len(spectra) == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 60), st.sampled_from(["reversible", "nearly decomposable"]),
       st.integers(0, 10_000))
def test_reversible_rho_hatP_is_sqrt_lambda2(N, kind, seed):
    # P* P = P^2 for a reversible chain, so rho(P_hat) is sqrt(lambda_2)
    # of the cached pairs at every size; eigvals of P_hat is the oracle
    rng = np.random.default_rng(seed)
    P, mu = _chain_of_kind(rng, N, kind)
    part = random_partition(rng, N, int(rng.integers(1, N)))
    oracle = diagnostics.rho_J_direct(deviation(P, mu) @ np.eye(N))

    def rates():
        rep = diagnostics.full_report(P, part, [2], mu)
        rho = diagnostics.ChainRates(P, mu).rho_hatP()
        assert rho == rep.sqrt_lambda2 == rep.rho_hatP
        return rho

    for rho in _on_both_branches(rates):
        assert rho == pytest.approx(oracle, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40),
       st.sampled_from(["reversible", "general", "nearly decomposable"]),
       st.booleans(), st.integers(0, 10_000))
def test_error_operator_drops_the_rank_one_term(N, kind, csc, seed):
    # 1^T B = 1^T and 1^T D(nu) = 1^T give 1^T S(nu) = 1^T, so
    # mu 1^T (I - S(mu)) = 0: J = P (I - S(mu)) is (P - mu 1^T)(I - S(mu)),
    # here with the dense oracle S(mu) = D (B D)^{-1} B
    rng = np.random.default_rng(seed)
    P, mu = _chain_of_kind(rng, N, kind)
    if csc:
        P = chain.StochasticMatrix(mat=scipy.sparse.csc_array(P.mat))
    part = random_partition(rng, N, int(rng.integers(1, N + 1)))
    oracle = deviation(P, mu) @ (np.eye(N) - oblique_projection(P, mu, mu, part))
    J = diagnostics.error_operator(P, mu, part) @ np.eye(N)
    assert np.max(np.abs(J - oracle)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(10, 60), st.sampled_from(["general", "shifted"]),
       st.booleans(), st.integers(0, 10_000))
def test_nonreversible_rho_hatP_is_rho_J_of_one_stratum(N, kind, csc, seed):
    # the power method is IAD with one stratum, S(mu) = mu 1^T and
    # J = P_hat: rho_hatP is rho_J of the trivial partition bit for bit,
    # and eigvals of P_hat is the oracle on both eigensolver branches.
    # "shifted" mixes a nearly decomposable reversible chain with a cyclic
    # shift, like the 1D shift mixtures
    rng = np.random.default_rng(seed)
    if kind == "shifted":
        P, _ = _chain_of_kind(rng, N, "nearly decomposable")
        P = models.mix(P, models.left_shift(N), 0.05)
        P = chain.StochasticMatrix(mat=P.dense())
    else:
        P, _ = _chain_of_kind(rng, N, kind)
    if csc:
        P = chain.StochasticMatrix(mat=scipy.sparse.csc_array(P.mat))
    mu = chain.steady_state(P)
    oracle = np.abs(np.linalg.eigvals(deviation(P, mu) @ np.eye(N))).max()

    def rates():
        rates = diagnostics.ChainRates(P, mu)
        assert not rates.reversible
        rho = rates.rho_hatP()
        assert rho == diagnostics.ChainRates(P, mu).rho_J(
            coarse.trivial_partition(N))
        return rho

    for rho in _on_both_branches(rates):
        assert rho == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("N", [12, 13, 20, 33, 60])
def test_cyclic_shift_on_arpack_matches_lapack_or_raises(N):
    # P* P = I, so lambda_2 = 1 and every eigenvalue of P_hat has modulus
    # one: ARPACK must give the dense answer or raise a typed error
    P = models.right_shift(N)
    mu = chain.steady_state(P)
    part = models.uniform1d(N, 3, 1)

    def report():
        rep = diagnostics.full_report(P, part, [2, 3], mu)
        return [rep.rho_J, rep.rho_exact_formula, rep.norm_bound,
                rep.sqrt_lambda2, rep.rho_hatP,
                *np.ravel(list(rep.angle_bounds.values()))]

    pieces = (
        report,
        lambda: diagnostics.rho_J_direct(diagnostics.error_operator(P, mu, part)),
        lambda: diagnostics.ChainRates(P, mu).rho_hatP(),
        lambda: chain.pstar_p_spectrum(P, mu, 4).lambdas[:4],
        lambda: np.max(np.abs(diagnostics.ChainRates(P, mu).exact_formula(part))),
    )
    for piece in pieces:
        dense, arpack = _on_both_branches(lambda: _outcome(piece))
        if isinstance(arpack, IadError):
            continue
        assert not isinstance(dense, IadError), (dense, arpack)
        assert np.allclose(arpack, dense, atol=1e-8, equal_nan=True)
    # lambda_2 = 1 leaves no angle bound; the dense report raises first,
    # in the non-reversible norm bound, whose P* P = I is reducible
    assert chain.pstar_p_spectrum(P, mu, 2).lambdas[1] == pytest.approx(1.0)
    assert isinstance(_outcome(report), IadError)


def test_full_report_at_ten_thousand_states_stays_matrix_free(monkeypatch):
    spec = dataclasses.replace(models.benchmark_chain_2d_spec(), N=100)
    mu = models.boltzmann_2d(spec)
    P = models.reversible_chain_2d(mu, spec)

    def no_dense(self):
        raise AssertionError("an N x N copy of P was taken")

    monkeypatch.setattr(chain.StochasticMatrix, "dense", no_dense)
    tracemalloc.start()
    try:
        rep = diagnostics.full_report(P, models.grid2d(100, 6), [2, 3], mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200e6  # one dense N x N array takes 800 MB
    assert rep.reversible
    assert rep.norm_bound == pytest.approx(rep.rho_J, abs=1e-8)
    assert rep.rho_exact_formula == pytest.approx(rep.rho_J, abs=1e-8)
    for _, bound in rep.angle_bounds.values():
        assert bound >= rep.rho_J


@pytest.mark.parametrize("alpha, fig", [(0.0, "fig3"), (0.05, "fig4")])
def test_split_sweep_uses_no_scipy_linalg(monkeypatch, alpha, fig):
    # every dense solve and eigensolve goes through numpy's LAPACK: a
    # second BLAS thread pool interleaved with numpy's made the sweeps
    # slower on two threads than on one
    def forbidden(*args, **kwargs):
        raise AssertionError("dense scipy.linalg call")

    for name in ("lu_factor", "lu_solve", "solve", "eig", "eigvals", "eigh",
                 "eigvalsh", "inv"):
        monkeypatch.setattr(scipy.linalg, name, forbidden)
    P, mu, part = models.build_model({"alpha": alpha,
                                      "partition": "split1d:ell=57"})
    mu = chain.steady_state(P) if mu is None else mu
    sd = chain.pstar_p_spectrum(P, mu, 3)
    rho = diagnostics.rho_J_direct(diagnostics.error_operator(P, mu, part))
    nb = diagnostics.norm_bound(P, mu, part)
    s = diagnostics.sin_theta(P, mu, part, 2, sd=sd)
    ab = diagnostics.angle_bound(sd.lambdas, s * s, 2,
                                 chain.is_reversible(P, mu))
    with open(REFERENCE / f"{fig}.csv", newline="") as fh:
        ref = next(row for row in csv.DictReader(fh) if row["ell"] == "57")
    assert f"{rho:.6f}" == ref["rho"]
    assert f"{nb:.6f}" == ref["norm_bound"]
    assert f"{ab:.6f}" == ref["angle_bound"]


@settings(max_examples=40, deadline=None)
@given(st.integers(20, 60), st.floats(0.2, 1.0), st.sampled_from([1.0, 1e-3, 0.0]),
       st.integers(0, 10_000))
def test_resolvent_pairs_match_pstar_p_spectrum(N, fill, coupling, seed):
    # on the ARPACK branch a reversible chain's P* P pairs come from the
    # eigenpairs of the scaled resolvent wherever they are certified:
    # always when every P_jj >= 1/2 (fill <= 1/2), where P has no negative
    # eigenvalue and the floor is 0. Elsewhere they are pstar_p_spectrum's,
    # bit for bit. Either way the lambdas, sin theta and the angle bounds
    # are pstar_p_spectrum's. A reducible P (coupling 0) has no resolvent
    # and no unique mu: ChainRates refuses it
    rng = np.random.default_rng(seed)
    P, mu = random_reversible_chain(rng, N, split=N // 2, coupling=coupling,
                                    fill=fill)
    part = random_partition(rng, N, int(rng.integers(2, 8)))
    if coupling == 0.0:
        with pytest.raises(ReducibleMatrixError, match="reducible"):
            diagnostics.ChainRates(P, mu)
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "ARPACK_MIN_N", 10)
        oracle = chain.pstar_p_spectrum(P, mu, 4)
        spectra = count_calls(mp, chain.pstar_p_spectrum, diagnostics)
        rates = diagnostics.ChainRates(P, mu)
        sd = rates.pairs(4)
        angles = [rates.angle(part, k) for k in (2, 3)]
    if fill <= 0.5:
        assert spectra == []
    if spectra:
        assert _same_pairs(sd, oracle, len(oracle.lambdas))
    assert np.max(np.abs(sd.lambdas[:4] - oracle.lambdas[:4])) < 1e-10
    for k, (s2, bound) in zip((2, 3), angles):
        s = diagnostics.sin_theta(P, mu, part, k, oracle)
        assert s2 == pytest.approx(s * s, abs=1e-10)
        if oracle.lambdas[1] < 1.0:
            expect = diagnostics.angle_bound(oracle.lambdas, s * s, k, True)
            assert bound == pytest.approx(expect, abs=1e-10)
        else:
            assert np.isnan(bound)


def test_uncertified_resolvent_pairs_fall_back_to_pstar_p_spectrum(monkeypatch):
    # the lazy cycle's floor is 0.9 and the sixth largest p of its resolvent
    # pairs 0.895, so the certificate fails: the pairs are then
    # pstar_p_spectrum's, bit for bit
    P, mu = _lazy_cycle()
    monkeypatch.setattr(linalg, "ARPACK_MIN_N", 10)
    spectra = count_calls(monkeypatch, chain.pstar_p_spectrum, diagnostics)
    sd = diagnostics.ChainRates(P, mu).pairs(4)
    assert len(spectra) == 1
    oracle = chain.pstar_p_spectrum(P, mu, 4)
    assert len(sd.lambdas) == len(oracle.lambdas)
    assert _same_pairs(sd, oracle, len(oracle.lambdas))


def _reducible_chain(rng, N, kind):
    """(P, mu) of a reducible chain: two closed classes [0, N // 2) and
    [N // 2, N) with an invariant mu, reversible or not, or a random chain
    with one transient state, which no state enters, and mu None."""
    if kind == "two reversible classes":
        return random_reversible_chain(rng, N, split=N // 2, coupling=0.0)
    if kind == "transient state":
        raw = rng.random((N, N)) + 0.5 * np.eye(N)
        t = int(rng.integers(N))
        raw[t, np.arange(N) != t] = 0.0
        return chain.StochasticMatrix(mat=raw / raw.sum(axis=0)), None
    P, mu = np.zeros((N, N)), np.empty(N)
    for block in (slice(0, N // 2), slice(N // 2, N)):
        Q = random_chain(rng, block.stop - block.start)
        P[block, block] = Q.mat
        mu[block] = chain.steady_state(Q).probs * rng.uniform(0.2, 0.8)
    return chain.StochasticMatrix(mat=P), chain.ProbabilityVector(probs=mu / mu.sum())


@settings(max_examples=30, deadline=None)
@given(st.integers(12, 40),
       st.sampled_from(["two reversible classes", "two classes", "transient state"]),
       st.booleans(), st.integers(0, 10_000))
def test_reducible_chains_raise_reducible_matrix_error(N, kind, arpack, seed):
    # a reducible P has no unique mu and no resolvent: ChainRates, and
    # full_report and the free norm_bound through it, refuse it on both
    # branches before any number, eigensolve or factor
    rng = np.random.default_rng(seed)
    P, mu = _reducible_chain(rng, N, kind)
    part = random_partition(rng, N, int(rng.integers(2, 6)))
    with pytest.MonkeyPatch.context() as mp:
        if arpack:
            mp.setattr(linalg, "ARPACK_MIN_N", 10)
        for call in (lambda: diagnostics.ChainRates(P, mu),
                     lambda: diagnostics.full_report(P, part, [2, 3], mu),
                     lambda: diagnostics.norm_bound(P, mu, part)):
            with pytest.raises(ReducibleMatrixError, match="P is reducible"):
                call()


@pytest.mark.parametrize("name", ["marek", "periodic_shift"])
def test_norm_bound_refuses_a_reducible_pstar_p(name):
    # P is irreducible and P* P is not (lambda_2 = 1): the non-reversible
    # norm bound is undefined, and its graph says so before the factor
    P, part, _ = models.pathological_fixtures()[name]
    rates = diagnostics.ChainRates(P)
    assert not rates.reversible
    with pytest.raises(ReducibleMatrixError,
                       match=r"^norm_bound: P\* P is reducible \(lambda_2 = 1\)"):
        rates.norm_bound(part)


def _periodic_chain(rng, N, kind):
    """(P, mu) of an irreducible chain of period two on an even N: the walk
    on the cycle, reversible (a step either way with probability 1/2) or
    shift-mixed (one way with a random other probability), or a random
    chain that only moves between the even and the odd states. P* P keeps
    the parity of a state, so it is reducible and lambda_2 = 1."""
    if kind == "bipartite":
        i = np.arange(N)
        raw = (rng.random((N, N)) + 0.1) * ((i[:, None] + i) % 2)
        P = chain.StochasticMatrix(mat=raw / raw.sum(axis=0))
    else:
        a = 0.5 if kind == "reversible cycle" else rng.uniform(0.05, 0.45)
        S = np.roll(np.eye(N), 1, axis=0)
        P = chain.StochasticMatrix(mat=a * S + (1.0 - a) * S.T)
    return P, chain.steady_state(P)


@settings(max_examples=30, deadline=None)
@given(st.integers(6, 20),
       st.sampled_from(["reversible cycle", "shift-mixed cycle", "bipartite"]),
       st.booleans(), st.integers(0, 10_000))
@example(half=12, kind="shift-mixed cycle", arpack=True, seed=10_000)
def test_periodic_chains_have_no_pstar_p_bounds(half, kind, arpack, seed):
    # P is irreducible and P* P is not: on both branches the non-reversible
    # norm bound raises and every angle bound is NaN, however roundoff
    # leaves the computed lambda_2. The example's double eigenvalue 1 left
    # ARPACK no shift to apply in its first Krylov space
    rng = np.random.default_rng(seed)
    P, mu = _periodic_chain(rng, 2 * half, kind)
    part = random_partition(rng, 2 * half, int(rng.integers(2, 6)))
    with pytest.MonkeyPatch.context() as mp:
        if arpack:
            mp.setattr(linalg, "ARPACK_MIN_N", 10)
        rates = diagnostics.ChainRates(P, mu)
        assert rates.reversible == (kind == "reversible cycle")
        if not rates.reversible:
            with pytest.raises(ReducibleMatrixError,
                               match=r"^norm_bound: P\* P is reducible"):
                rates.norm_bound(part)
        for k in (2, 3):
            assert np.isnan(rates.angle(part, k)[1])


def test_pstar_p_irreducibility_is_decided_once(monkeypatch):
    # on the 4-cycle P* P = I, so lambda_2 = 1: repeated angle calls and
    # the norm bound read one verdict on the graph of P* P
    P = models.right_shift(4)
    mu = chain.ProbabilityVector(probs=np.full(4, 0.25))
    part = coarse.make_partition(np.array([0, 0, 1, 1]))
    rates = diagnostics.ChainRates(P, mu)
    graphs = count_calls(monkeypatch, chain.is_irreducible, chain, diagnostics)
    for _ in range(3):
        assert np.isnan(rates.angle(part, 2)[1])
    assert len(graphs) == 1
    with pytest.raises(ReducibleMatrixError, match=r"P\* P is reducible"):
        rates.norm_bound(part)
    assert len(graphs) == 1


def test_chain_rates_checks_a_given_mu():
    # a mu of another length, or one that does not sum to 1, would reach
    # numpy's matmul or the resolvent, which assumes 1^T mu = 1, and skew
    # every P* P-derived value without an error
    P, mu, part = models.build_model({"partition": "split1d:ell=57"})
    short = chain.ProbabilityVector(probs=mu.probs[:-1] / mu.probs[:-1].sum())
    triple = chain.ProbabilityVector(probs=3.0 * mu.probs)
    for bad, error in ((short, DimensionError), (triple, InconsistentSteadyStateError)):
        for call in (lambda: diagnostics.ChainRates(P, bad),
                     lambda: diagnostics.full_report(P, part, [2], bad),
                     lambda: diagnostics.norm_bound(P, bad, part)):
            with pytest.raises(error, match="^time_reversal: mu"):
                call()
    # the Boltzmann mu of the model chains and the GTH mu of their
    # non-reversible mixtures pass
    for cfg in ({}, {"alpha": 0.05}, {"model": "chain2d", "N": 15},
                {"model": "chain2d", "N": 15, "alpha": 0.05}):
        P, mu, _ = models.build_model(cfg)
        diagnostics.ChainRates(P, mu if mu is not None else chain.steady_state(P))


def test_angle_bound_of_the_even_cycle_is_nan_on_both_branches():
    # the computed lambda_2 of P* P = P^2 is 1 - 4e-16 on the dense branch
    # and at least 1 on ARPACK; the graph of P^2 decides for both
    S = np.roll(np.eye(10), 1, axis=0)
    P = chain.StochasticMatrix(mat=0.5 * (S + S.T))
    mu = chain.ProbabilityVector(probs=np.full(10, 0.1))
    part = models.uniform1d(10, 2, 0)
    for _, bound in _on_both_branches(
            lambda: diagnostics.ChainRates(P, mu).angle(part, 2)):
        assert np.isnan(bound)
