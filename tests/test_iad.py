import dataclasses
import itertools
import time

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    count_calls,
    deviation,
    qr_null_vector,
    random_chain,
    random_partition,
    random_reversible_chain,
)
from iadrate import chain, coarse, iad, models
from iadrate.errors import NonConvergenceError, ReducibleMatrixError


def uniform_pv(n):
    return chain.ProbabilityVector(probs=np.full(n, 1.0 / n))


def test_config_validation():
    with pytest.raises(ValueError):
        iad.IadConfig(tau=0.0)
    with pytest.raises(ValueError):
        iad.IadConfig(max_outer=0)


def test_config_rejects_a_non_integer_max_outer():
    # range() would raise a bare TypeError later, inside iad_solve
    for bad in (2.5, 3.0, "5"):
        with pytest.raises(ValueError, match="integer"):
            iad.IadConfig(max_outer=bad)
    assert iad.IadConfig(max_outer=np.int64(5)).max_outer == 5


def test_coarse_steady_state_symmetric():
    C = chain.StochasticMatrix(mat=np.full((2, 2), 0.5))
    z = chain.steady_state(C)
    assert np.allclose(z.probs, [0.5, 0.5], atol=1e-12)


def test_coarse_steady_state_singleton():
    C = chain.StochasticMatrix(mat=np.ones((1, 1)))
    assert np.allclose(chain.steady_state(C).probs, [1.0])


def test_coarse_steady_state_matches_null_vector_oracle(bench_1d):
    P, mu = bench_1d
    part = models.split1d(100, 57)
    C = coarse.coarse_matrix(P, coarse.disaggregation_weights(mu.probs, part), part)
    z = chain.steady_state(C)
    # independent oracle: unit-sum kernel vector of I - C
    v = qr_null_vector(np.eye(2) - C.mat)
    v = np.abs(v) / np.abs(v).sum()
    assert np.max(np.abs(z.probs - v)) < 1e-8


def test_coarse_steady_state_reducible_raises():
    P, part, mu0 = models.pathological_fixtures()["reducible_coarse"]
    C = coarse.coarse_matrix(P, coarse.disaggregation_weights(mu0.probs, part), part)
    with pytest.raises(ReducibleMatrixError):
        chain.steady_state(C)


def test_iad_step_single_coarse_state_is_power_step():
    rng = np.random.default_rng(0)
    P = random_chain(rng, 8)
    m0 = uniform_pv(8)
    out = iad.iad_step(P, coarse.trivial_partition(8), m0)
    assert np.allclose(out.probs, P.mat @ m0.probs, atol=1e-12)


def test_iad_step_singleton_partition_solves_in_one_step():
    rng = np.random.default_rng(1)
    P = random_chain(rng, 7)
    mu = chain.steady_state(P)
    m0 = chain.ProbabilityVector(probs=np.random.default_rng(2).dirichlet(np.ones(7)))
    out = iad.iad_step(P, coarse.singleton_partition(7), m0)
    assert np.max(np.abs(out.probs - mu.probs)) < 1e-8


def test_iad_step_fixed_point():
    rng = np.random.default_rng(3)
    P = random_chain(rng, 9)
    mu = chain.steady_state(P)
    part = random_partition(rng, 9, 3)
    out = iad.iad_step(P, part, mu)
    assert np.max(np.abs(out.probs - mu.probs)) < 1e-9


def test_iad_solve_1d_chain(bench_1d):
    P, mu = bench_1d
    est, trace = iad.iad_solve(P, models.split1d(100, 57), uniform_pv(100))
    # stop tolerance tau maps to error ~ tau / (1 - rho) ~ 1.3e-7
    assert np.max(np.abs(est.probs - mu.probs) / mu.probs) < 1e-6
    assert len(trace.rel_changes) == len(trace.residuals)
    # the solve takes thousands of steps; the trace keeps the last 64
    assert len(trace.iterates) == 64 and trace.iterates[-1] is est


def test_iad_solve_2d_grid(bench_2d):
    # the 50 x 50 chain under the 6 x 6 grid of strata; with P stored as
    # CSC each step takes time linear in its nonzeros
    t0 = time.perf_counter()
    P, mu = bench_2d
    est, trace = iad.iad_solve(P, models.grid2d(50, 6), uniform_pv(2500))
    assert np.max(np.abs(est.probs - mu.probs) / mu.probs) <= 1e-6
    rate = iad.empirical_rate(trace, mu)
    assert abs(rate - 0.987327) / 0.987327 <= 0.01
    assert time.perf_counter() - t0 < 3.0


def test_iad_solve_rank_one_chain():
    rng = np.random.default_rng(4)
    m = rng.dirichlet(np.ones(6))
    P = chain.StochasticMatrix(mat=np.tile(m[:, None], (1, 6)))
    part = coarse.make_partition(np.array([0, 0, 0, 1, 1, 1]), 2)
    est, trace = iad.iad_solve(P, part, uniform_pv(6))
    assert len(trace.rel_changes) <= 2
    assert np.allclose(est.probs, m, atol=1e-12)


def test_iad_solve_marek_not_locally_convergent():
    P, part, mu0 = models.pathological_fixtures()["marek"]
    with pytest.raises(NonConvergenceError) as exc:
        iad.iad_solve(P, part, mu0, iad.IadConfig(max_outer=2000))
    trace = exc.value.trace
    assert len(trace.rel_changes) == len(trace.residuals) == 2000
    # the error neither dies nor blows up: the iteration cycles
    assert trace.rel_changes[-1] > 1e-6
    # a solve run to its cap keeps every step's change and residual, but
    # only its last 64 iterates
    assert len(trace.iterates) == 64
    pattern = coarse.coarse_pattern(P, part)
    for before, after in itertools.pairwise(trace.iterates):
        assert np.array_equal(after.probs, iad.iad_step(P, part, before, pattern).probs)


def test_iterates_stay_positive_and_normalized(bench_1d):
    P, _ = bench_1d
    part = models.split1d(100, 20)
    mu_k = uniform_pv(100)
    for _ in range(300):
        mu_k = iad.iad_step(P, part, mu_k)
        assert np.all(mu_k.probs > 0)
        assert abs(mu_k.probs.sum() - 1.0) < 1e-12


def _full_history(P, part, mu0, steps):
    """mu^0 .. mu^steps by stepping iad_step on the strata labelled as
    iad_solve labels them: the history a trace drops."""
    part = iad._independent_last(P, part)
    pattern = coarse.coarse_pattern(P, part)
    iterates = [mu0]
    for _ in range(steps):
        iterates.append(iad.iad_step(P, part, iterates[-1], pattern))
    return iterates


@pytest.mark.parametrize("case", ["split1d", "grid2d"])
def test_tail_rate_matches_full_history_rate(case, bench_1d, bench_2d):
    P, mu = bench_1d if case == "split1d" else bench_2d
    part = models.split1d(100, 57) if case == "split1d" else models.grid2d(50, 6)
    mu0 = uniform_pv(P.n)
    _, trace = iad.iad_solve(P, part, mu0)
    full = _full_history(P, part, mu0, len(trace.rel_changes))
    assert len(full) > 1000
    for kept, ref in zip(trace.iterates, full[-64:], strict=True):
        assert np.array_equal(kept.probs, ref.probs)
    rate = iad.empirical_rate(trace, mu)
    assert rate == pytest.approx(iad.empirical_rate(iad.IadTrace(iterates=full), mu),
                                 abs=1e-4)


def test_empirical_rate_raises_on_a_tail_at_roundoff():
    # the power method on a fast-mixing chain gets within 100 eps of mu
    # by step 21 and then stalls without meeting tau; by step 300 no
    # iterate in the tail has an error above 100 eps
    P = random_chain(np.random.default_rng(2), 8)
    with pytest.raises(NonConvergenceError) as exc:
        iad.iad_solve(P, coarse.trivial_partition(8), uniform_pv(8),
                      iad.IadConfig(tau=1e-300, max_outer=300))
    with pytest.raises(ValueError, match="usable iterates"):
        iad.empirical_rate(exc.value.trace, chain.steady_state(P))


def test_error_recursion_is_exact_at_the_iterate():
    # one step equals the error operator (built at the iterate) applied
    # to the current error, without any linearization remainder
    rng = np.random.default_rng(5)
    P = random_chain(rng, 10)
    mu = chain.steady_state(P)
    part = random_partition(rng, 10, 3)
    m0 = chain.ProbabilityVector(probs=mu.probs * (1 + 0.05 * rng.standard_normal(10)))
    m0 = chain.ProbabilityVector(probs=m0.probs / m0.probs.sum())
    out = iad.iad_step(P, part, m0)
    Sk = coarse.coarse_projection(P, mu, m0, part) @ np.eye(10)
    Jk = deviation(P, mu) @ (np.eye(10) - Sk)
    lin = Jk @ (m0.probs - mu.probs)
    err0 = np.sqrt(np.sum((m0.probs - mu.probs) ** 2 / mu.probs))
    gap = np.sqrt(np.sum((out.probs - mu.probs - lin) ** 2 / mu.probs))
    assert gap <= 1e-10 * err0


def _composed_step(P, part, nu):
    """One IAD step from the public functions, each building its own
    coarse pattern: the oracle for the solver's hoisted step."""
    w = coarse.disaggregation_weights(nu.probs, part)
    z = chain.steady_state(coarse.coarse_matrix(P, w, part))
    out = P.mat @ coarse.disaggregate(z.probs, w, part)
    return out / out.sum()


def _local_chain(kind, N, n):
    """A model chain of local moves with contiguous strata, enough of
    them for iad_solve to relabel: the 2D chain on a 10..20 side grid
    with 4x4..6x6 grid strata, or the 1D chain on 20..140 states with
    8..20 uniform strata."""
    if kind == "chain2d":
        spec = dataclasses.replace(models.benchmark_chain_2d_spec(), N=10 + N % 11)
        P = models.reversible_chain_2d(models.boltzmann_2d(spec), spec)
        return P, models.grid2d(spec.N, 4 + n % 3)
    spec = dataclasses.replace(models.benchmark_chain_1d_spec(), N=20 + N % 121)
    P = models.reversible_chain_1d(models.boltzmann_1d(spec))
    strata = 8 + n % 13
    return P, models.uniform1d(spec.N, strata, n % (spec.N // strata + 1))


_KINDS = ["random", "reversible", "nearly_decomposable", "marek",
          "periodic_shift", "reducible_coarse", "chain2d", "chain1d"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_KINDS), st.booleans(), st.integers(2, 140),
       st.integers(1, 140), st.integers(0, 10_000))
@example(kind="random", csc=False, N=130, n=1, seed=0)
@example(kind="reversible", csc=True, N=130, n=2, seed=1)
@example(kind="random", csc=True, N=130, n=64, seed=2)
@example(kind="nearly_decomposable", csc=False, N=130, n=65, seed=3)
@example(kind="reversible", csc=False, N=65, n=65, seed=4)
@example(kind="chain2d", csc=True, N=9, n=3, seed=5)
@example(kind="chain1d", csc=False, N=40, n=0, seed=6)
def test_iad_solve_iterates_match_composed_public_steps(kind, csc, N, n, seed):
    # n strata of 64 and 65 put the coarse GTH on both sides of its block
    # edge; the pathology fixtures keep their own chain and partition. On
    # the local-move chains the solve relabels the strata and the coarse
    # GTH takes its non-adjacent tail at once; the composed steps keep
    # the labels
    rng = np.random.default_rng(seed)
    if kind == "random":
        P = random_chain(rng, N)
    elif kind == "reversible":
        P, _ = random_reversible_chain(rng, N)
    elif kind == "nearly_decomposable":
        P, _ = random_reversible_chain(rng, N, int(rng.integers(1, N)), 1e-12)
    elif kind in ("chain2d", "chain1d"):
        P, part = _local_chain(kind, N, n)
        assert iad._independent_last(P, part) is not part
    else:
        P, part, _ = models.pathological_fixtures()[kind]
    if kind in ("random", "reversible", "nearly_decomposable"):
        part = random_partition(rng, N, min(n, N))
    if csc:
        P = chain.StochasticMatrix(mat=scipy.sparse.csc_array(P.dense()))
    x = rng.random(P.n) + 0.01
    mu0 = chain.ProbabilityVector(probs=x / x.sum())
    try:
        _, trace = iad.iad_solve(P, part, mu0, iad.IadConfig(max_outer=4))
    except NonConvergenceError as exc:
        trace = exc.trace
    for before, after in itertools.pairwise(trace.iterates):
        gap = after.probs - _composed_step(P, part, before)
        assert np.max(np.abs(gap)) <= 1e-14


def test_reducible_coarse_chains_raise_through_the_hoisted_step():
    # the fixture's start has a zero entry, which iad_solve rejects before
    # any step; at that start the coarse chain is reducible
    P, part, mu0 = models.pathological_fixtures()["reducible_coarse"]
    with pytest.raises(ValueError):
        iad.iad_solve(P, part, mu0)
    with pytest.raises(ReducibleMatrixError):
        chain.steady_state(coarse.coarse_matrix(
            P, coarse.disaggregation_weights(mu0.probs, part), part,
            coarse.coarse_pattern(P, part)))
    # two closed classes, one stratum each: every positive iterate gives
    # the reducible coarse chain I, and the solve raises at its first step
    P2, _ = random_reversible_chain(np.random.default_rng(6), 12, 5, 0.0)
    part2 = coarse.make_partition(np.repeat([0, 1], [5, 7]), 2)
    with pytest.raises(ReducibleMatrixError):
        iad.iad_solve(P2, part2, uniform_pv(12))
    # two copies of the 10 x 10 chain with no move between them, each
    # under its own 2 x 2 grid: 8 strata, of which the solve puts the
    # non-adjacent 0, 3, 4 and 7 last, where the coarse GTH takes them at
    # once before it meets the reducible rest
    spec = dataclasses.replace(models.benchmark_chain_2d_spec(), N=10)
    one = models.reversible_chain_2d(models.boltzmann_2d(spec), spec).mat
    P = chain.StochasticMatrix(mat=scipy.sparse.block_diag((one, one), format="csc"))
    a = models.grid2d(10, 2).assignment
    part = coarse.make_partition(np.concatenate([a, a + 4]), 8)
    relabel = np.array([4, 0, 1, 5, 6, 2, 3, 7])
    assert np.array_equal(iad._independent_last(P, part).assignment,
                          relabel[part.assignment])
    with pytest.raises(ReducibleMatrixError):
        iad.iad_solve(P, part, uniform_pv(200))


def test_each_step_aggregates_its_iterate_once(monkeypatch):
    # C(nu) and the disaggregation share one D(nu): one stratum-mass
    # bincount A nu per step
    rng = np.random.default_rng(7)
    P = random_chain(rng, 30)
    masses = count_calls(monkeypatch, coarse.aggregate, coarse)
    try:
        _, trace = iad.iad_solve(P, random_partition(rng, 30, 4), uniform_pv(30),
                                 iad.IadConfig(max_outer=5))
    except NonConvergenceError as exc:
        trace = exc.trace
    assert len(trace.rel_changes) >= 2
    assert len(masses) == len(trace.rel_changes)


def test_empirical_rate_geometric_oracle():
    mu = uniform_pv(4)
    iterates = []
    direction = np.array([1.0, -1.0, 1.0, -1.0]) * 1e-3
    for k in range(20):
        iterates.append(chain.ProbabilityVector(probs=mu.probs + direction * 0.9**k))
    trace = iad.IadTrace(iterates=iterates, rel_changes=[0.0] * 19,
                         residuals=[0.0] * 19)
    assert iad.empirical_rate(trace, mu) == pytest.approx(0.9, abs=1e-6)


def test_empirical_rate_needs_enough_iterates():
    mu = uniform_pv(3)
    trace = iad.IadTrace(iterates=[mu] * 5, rel_changes=[0.0] * 4,
                         residuals=[0.0] * 4)
    with pytest.raises(ValueError):
        iad.empirical_rate(trace, mu)
