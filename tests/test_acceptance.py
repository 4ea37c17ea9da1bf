"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and,
where the criterion carries a runtime budget, asserts the wall-clock
bound as well.
"""

import time

import numpy as np
import pytest

from conftest import (
    aggregation_matrix,
    deviation,
    disaggregation_matrix,
    nested_partition_pair,
    random_chain,
    random_partition,
    random_reversible_chain,
)
from iadrate import chain, coarse, diagnostics, iad, models
from iadrate.errors import NonConvergenceError, ReducibleMatrixError


def sorted_by_modulus(vals):
    vals = np.asarray(vals, dtype=complex)
    order = np.lexsort((vals.imag, vals.real, np.abs(vals)))
    return vals[order]


def randomized_suite(count=20, seed=1234):
    """Random irreducible chains with positive diagonal and partitions
    with n >= 2 and at least one multi-state stratum."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        N = int(rng.integers(10, 61))
        P = random_chain(rng, N)
        n = int(rng.integers(2, min(N, 8)))
        part = random_partition(rng, N, n)
        sizes = np.bincount(part.assignment)
        assert sizes.max() > 1
        cases.append((P, chain.steady_state(P), part))
    return cases


def test_criterion_01_table1_spectrum(bench_1d):
    t0 = time.perf_counter()
    P, mu = bench_1d
    sd = chain.pstar_p_spectrum(P, mu)
    got = np.sqrt(sd.lambdas[1:5])
    expect = [0.999992, 0.991441, 0.986243, 0.979807]
    assert np.max(np.abs(got - expect)) < 2e-5
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_table3_mixture_rates(bench_1d):
    t0 = time.perf_counter()
    P0, mu0 = bench_1d
    expect = {0.0: 0.999992, 0.05: 0.999581, 0.15: 0.989564}
    for alpha, target in expect.items():
        if alpha == 0.0:
            P, mu = P0, mu0
        else:
            P = models.mix(P0, models.left_shift(100), alpha)
            mu = chain.steady_state(P)
        rho = np.abs(np.linalg.eigvals(deviation(P, mu) @ np.eye(100))).max()
        assert rho == pytest.approx(target, abs=2e-5)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_table4_2d_rates(bench_2d):
    t0 = time.perf_counter()
    P, mu = bench_2d
    reports = [
        diagnostics.full_report(P, part, k_list=[2, 3], mu=mu)
        for part in (models.stripes2d(50, 3), models.grid2d(50, 6))
    ]
    expect_rho = (0.999410, 0.987327)
    expect_sin2 = (0.002382, 0.000143)
    expect_bounds = ((0.999650, 0.999997), (0.999502, 0.999920))
    for rep, rho, s2, (b2, b3) in zip(reports, expect_rho, expect_sin2,
                                      expect_bounds):
        assert rep.rho_J == pytest.approx(rho, abs=2e-5)
        assert rep.norm_bound == pytest.approx(rep.rho_J, abs=1e-6)
        assert rep.angle_bounds[2][0] == pytest.approx(s2, abs=2e-4)
        assert rep.angle_bounds[2][1] == pytest.approx(b2, abs=5e-4)
        assert rep.angle_bounds[3][1] == pytest.approx(b3, abs=5e-4)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_04_split_sweep_shape(bench_1d):
    t0 = time.perf_counter()
    P, mu = bench_1d
    rhos = np.empty(99)
    for ell in range(99):
        part = models.split1d(100, ell)
        rhos[ell] = diagnostics.rho_J_direct(
            diagnostics.error_operator(P, mu, part))
        nb = diagnostics.norm_bound(P, mu, part)
        assert abs(nb - rhos[ell]) < 1e-8
    best = int(np.argmin(rhos))
    assert 55 <= best <= 60
    assert abs(rhos[best] - 0.991441) < 2e-3
    assert abs(rhos.max() - 0.999992) < 2e-5
    assert time.perf_counter() - t0 < 60.0


def test_criterion_05_exact_spectrum_oracle():
    for P, mu, part in randomized_suite():
        J = diagnostics.error_operator(P, mu, part) @ np.eye(P.n)
        direct = np.linalg.eigvals(J)
        formula = diagnostics.ChainRates(P, mu).exact_formula(part)
        padded = np.concatenate([formula, np.zeros(P.n - len(formula))])
        gap = np.max(np.abs(sorted_by_modulus(direct)
                            - sorted_by_modulus(padded)))
        assert gap < 1e-7


def test_criterion_06_bound_chain():
    for P, mu, part in randomized_suite():
        rep = diagnostics.full_report(P, part, k_list=[2, 3, 4, 5], mu=mu)
        assert rep.rho_J <= rep.norm_bound + 1e-8
        for k in (2, 3, 4, 5):
            bound = rep.angle_bounds[k][1]
            assert rep.norm_bound <= bound + 1e-8
            assert bound <= rep.sqrt_lambda2 + 1e-8


def test_criterion_07_operator_identities():
    rng = np.random.default_rng(77)
    cases = []
    for _ in range(6):
        N = int(rng.integers(8, 30))
        cases.append((random_chain(rng, N),
                      random_partition(rng, N, int(rng.integers(2, 5)))))
    spec1 = models.benchmark_chain_1d_spec()
    P1 = models.reversible_chain_1d(models.boltzmann_1d(spec1))
    cases.append((P1, models.split1d(100, 57)))
    for P, part in cases:
        mu = chain.steady_state(P)
        N = P.n
        I = np.eye(N)
        A = aggregation_matrix(part)
        D = disaggregation_matrix(mu.probs, part)
        Pi = D @ A
        S = coarse.coarse_projection(P, mu, mu, part) @ I
        J = diagnostics.error_operator(P, mu, part) @ I
        hat = deviation(P, mu) @ I
        w = 1.0 / mu.probs
        assert np.max(np.abs(A @ D - np.eye(part.n))) < 1e-10
        assert np.max(np.abs(Pi @ Pi - Pi)) < 1e-10
        WPi = w[:, None] * Pi
        assert np.max(np.abs(WPi - WPi.T)) < 1e-10
        assert np.max(np.abs(S @ S - S)) < 1e-10
        assert np.max(np.abs(Pi @ S - S)) < 1e-10
        assert np.max(np.abs(S @ Pi - Pi)) < 1e-10
        assert np.max(np.abs(J @ Pi)) < 1e-10
        assert np.max(np.abs(Pi @ J - (Pi - S))) < 1e-10
        # P_hat* P_hat == P* P - mu 1^T in l2(1/mu)
        star = lambda M: (mu.probs[:, None] * M.T) * w[None, :]
        lhs = star(hat) @ hat
        rhs = star(P.dense()) @ P.dense() - np.outer(mu.probs, np.ones(N))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_criterion_08_refinement_monotonicity():
    rng = np.random.default_rng(88)
    for _ in range(10):
        N = int(rng.integers(10, 35))
        P, mu = random_reversible_chain(rng, N)
        for _ in range(10):
            coarse_part, refined = nested_partition_pair(rng, N)
            rc, rr = diagnostics.ChainRates(P, mu).nested_rates(
                [coarse_part, refined])
            assert rr <= rc + 1e-10


def test_criterion_09_dynamics_matches_diagnostics(bench_1d):
    P, mu = bench_1d
    m0 = chain.ProbabilityVector(probs=np.full(100, 0.01))
    part = models.split1d(100, 57)
    _, trace = iad.iad_solve(P, part, m0)
    rate = iad.empirical_rate(trace, mu)
    rho = diagnostics.rho_J_direct(diagnostics.error_operator(P, mu, part))
    assert abs(rate - rho) / rho < 0.05
    # single coarse state: IAD degenerates to the power method
    try:
        _, trace1 = iad.iad_solve(P, coarse.trivial_partition(100), m0,
                                  iad.IadConfig(max_outer=3000))
    except NonConvergenceError as exc:
        trace1 = exc.trace
    rate1 = iad.empirical_rate(trace1, mu)
    sqrt_l2 = np.sqrt(chain.pstar_p_spectrum(P, mu).lambdas[1])
    assert abs(rate1 - sqrt_l2) / sqrt_l2 < 0.05


def test_criterion_10_pathology_detection():
    fx = models.pathological_fixtures()
    # (i) reducible coarse matrix surfaces as an error
    P1, part1, mu01 = fx["reducible_coarse"]
    C = coarse.coarse_matrix(
        P1, coarse.disaggregation_weights(mu01.probs, part1), part1)
    with pytest.raises(ReducibleMatrixError):
        chain.steady_state(C)
    # (ii) P^T P reducible: lambda_2 == 1
    P2, _, _ = fx["marek"]
    mu2 = chain.steady_state(P2)
    sd = chain.pstar_p_spectrum(P2, mu2)
    assert abs(sd.lambdas[1] - 1.0) < 1e-10
    # (iii) laziness restores a spectral gap for the periodic shift
    P3, _, _ = fx["periodic_shift"]
    lazy = chain.StochasticMatrix(mat=0.5 * (np.eye(3) + P3.dense()))
    mu3 = chain.steady_state(lazy)
    sd3 = chain.pstar_p_spectrum(lazy, mu3)
    assert sd3.lambdas[1] < 1.0 - 1e-6
