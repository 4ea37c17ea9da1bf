import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coarse_chain
from iadrate import chain, cli, coarse, models
from iadrate.errors import PartitionError


def test_double_well_shape():
    # V(x) = (1-x^2)^2 + x/2: the tilt makes the left well the deeper one
    assert models.double_well_potential(-1.0) < models.double_well_potential(1.0)
    assert models.double_well_potential(0.0) == pytest.approx(1.0)


def test_boltzmann_1d_uniform_for_constant_potential():
    spec = models.Chain1DSpec(potential=lambda x: 0.0 * x, a=0.0, b=1.0,
                              N=10, T=1.0)
    mu = models.boltzmann_1d(spec)
    assert np.allclose(mu.probs, 0.1)


def test_boltzmann_1d_bimodal_with_divide_at_57():
    spec = models.benchmark_chain_1d_spec()
    mu = models.boltzmann_1d(spec)
    p = mu.probs
    # a single interior local minimum separates the basins, sitting at
    # the potential barrier (index 56/57 depending on grid convention)
    interior = np.arange(1, 99)
    local_min = interior[(p[interior] < p[interior - 1])
                         & (p[interior] < p[interior + 1])]
    assert len(local_min) == 1
    assert local_min[0] in (56, 57)


def test_boltzmann_1d_flattens_with_temperature():
    spec = models.benchmark_chain_1d_spec()
    hot = models.Chain1DSpec(potential=spec.potential, a=spec.a, b=spec.b,
                             N=spec.N, T=2 * spec.T)
    r_cold = models.boltzmann_1d(spec).probs
    r_hot = models.boltzmann_1d(hot).probs
    assert r_hot.max() / r_hot.min() < r_cold.max() / r_cold.min()


def test_reversible_chain_1d_uniform():
    mu = chain.ProbabilityVector(probs=np.full(8, 0.125))
    P = models.reversible_chain_1d(mu)
    assert np.allclose(np.diag(P.dense()), 0.5)
    assert np.allclose(P.dense()[np.arange(8), (np.arange(8) + 1) % 8], 0.25)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1e-3])
def test_reversible_chains_refuse_a_non_finite_or_non_positive_mu(bad):
    # an x <= 0 screen let NaN and inf through to the Metropolis weights;
    # untyped errors and warnings are failures
    spec = replace(models.benchmark_chain_2d_spec(), N=4)
    for build, n in ((models.reversible_chain_1d, 8),
                     (lambda mu: models.reversible_chain_2d(mu, spec), 16)):
        m = np.full(n, 1.0 / n)
        m[3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="reversible chain: mu must be finite and strictly positive"):
                build(chain.ProbabilityVector(probs=m))


def test_reversible_chain_1d_detailed_balance():
    rng = np.random.default_rng(0)
    m = rng.random(12) + 0.1
    m /= m.sum()
    mu = chain.ProbabilityVector(probs=m)
    P = models.reversible_chain_1d(mu)
    flux = P.dense() * m[None, :]
    assert np.max(np.abs(flux - flux.T)) < 1e-14


def test_right_shift_three_states():
    W = models.right_shift(3)
    expect = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.array_equal(W.dense(), expect)
    assert np.array_equal(np.linalg.matrix_power(W.dense(), 3), np.eye(3))


def test_left_shift_is_transpose_of_right():
    assert np.array_equal(models.left_shift(5).dense(), models.right_shift(5).dense().T)


def test_mix_endpoints_and_validation():
    P = models.right_shift(4)
    W = chain.StochasticMatrix(mat=np.full((4, 4), 0.25))
    assert np.array_equal(models.mix(P, W, 0.0).dense(), P.dense())
    assert np.array_equal(models.mix(P, W, 1.0).dense(), W.dense())
    with pytest.raises(ValueError):
        models.mix(P, W, 1.5)


def test_chain_2d_detailed_balance_and_diagonal():
    spec = models.Chain2DSpec(potential=models.two_dim_potential,
                              a=-1.0, b=1.0, c=-1.0, d=1.0, N=6, T=0.5)
    mu = models.boltzmann_2d(spec)
    P = models.reversible_chain_2d(mu, spec)
    flux = P.dense() * mu.probs[None, :]
    assert np.max(np.abs(flux - flux.T)) < 1e-14
    assert np.all(np.diag(P.dense()) > 0)
    # P* P has a spectral gap, so the power method contracts
    assert chain.pstar_p_spectrum(P, mu).lambdas[1] < 1


# the moves of each chain, an offset per grid axis
_ORACLE_MOVES = {
    "1d": ((1,), (-1,)),
    "axis_aligned": ((1, 0), (-1, 0), (0, 1), (0, -1)),
    "diagonal": ((1, 1), (1, -1), (-1, 1), (-1, -1)),
}


def _metropolis_oracle(m, moves):
    """Dense P on the periodic grid of m.shape: move d puts the weight
    m(t) / (k (m(t) + m(s))), t = s + d, where np.roll of the identity
    along the target axes puts its one; the diagonal is one minus the
    column sum of the off-diagonal part."""
    n, axes, k = m.size, tuple(range(m.ndim)), len(moves)
    eye = np.eye(n).reshape(m.shape + m.shape)  # [target..., source...]
    off = np.zeros((n, n))
    for move in moves:
        mt = np.roll(m, [-d for d in move], axis=axes)
        placed = np.roll(eye, move, axis=axes)
        placed *= mt / (k * (mt + m))
        off += placed.reshape(n, n)
    np.fill_diagonal(off, 1.0 - off.sum(axis=0))
    return off


def _assert_matches_metropolis_oracle(P, m, moves):
    """P is canonical int32 CSC with k + 1 nonzeros a column, the dense
    oracle bit for bit, and in detailed balance with m."""
    assert P.mat.format == "csc" and P.mat.has_canonical_format
    assert P.mat.indices.dtype == P.mat.indptr.dtype == np.int32
    assert np.all(np.diff(P.mat.indptr) == len(moves) + 1)
    assert np.array_equal(P.dense(), _metropolis_oracle(m, moves))
    flux = P.mat @ scipy.sparse.diags_array(m.reshape(-1))
    assert abs(flux - flux.T).max() <= 1e-15


def test_model_chains_are_csc(bench_1d, bench_2d):
    P0, mu = bench_1d
    _assert_matches_metropolis_oracle(P0, mu.probs, _ORACLE_MOVES["1d"])
    P, mu = bench_2d
    spec = models.benchmark_chain_2d_spec()
    m = mu.probs.reshape(spec.N, spec.N)
    _assert_matches_metropolis_oracle(P, m, _ORACLE_MOVES["axis_aligned"])
    spec = replace(spec, move_set="diagonal")
    _assert_matches_metropolis_oracle(models.reversible_chain_2d(mu, spec), m,
                                      _ORACLE_MOVES["diagonal"])
    for W in (models.left_shift(100), models.right_shift(100)):
        assert W.mat.format == "csc" and W.mat.nnz == 100
    mixed = models.mix(P0, models.left_shift(100), 0.05)
    assert mixed.mat.format == "csc" and np.diff(mixed.mat.indptr).max() <= 3


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_ORACLE_MOVES)), st.integers(3, 12), st.integers(0, 10_000))
def test_model_chains_match_the_dense_metropolis_oracle(kind, side, seed):
    # random positive measures spanning about nine decades, as a
    # Boltzmann measure at low temperature does
    rng = np.random.default_rng(seed)
    m = np.exp(rng.uniform(-20.0, 0.0, (side,) if kind == "1d" else (side, side)))
    mu = chain.ProbabilityVector(probs=(m / m.sum()).reshape(-1))
    if kind == "1d":
        P = models.reversible_chain_1d(mu)
    else:
        spec = replace(models.benchmark_chain_2d_spec(), N=side, move_set=kind)
        P = models.reversible_chain_2d(mu, spec)
    _assert_matches_metropolis_oracle(P, mu.probs.reshape(m.shape), _ORACLE_MOVES[kind])


def test_chain_2d_well_mass(bench_2d):
    # most of the measure concentrates in the two deep wells near (±1, 0)
    _, mu = bench_2d
    spec = models.benchmark_chain_2d_spec()
    x = np.linspace(spec.a, spec.b, spec.N)
    y = np.linspace(spec.c, spec.d, spec.N)
    m = mu.probs.reshape(spec.N, spec.N)
    wells = (np.abs(np.abs(x[:, None]) - 1.0) < 0.6) & (np.abs(y[None, :]) < 0.6)
    assert m[wells].sum() > 0.9


def test_uniform1d_example():
    part = models.uniform1d(100, 2, 5)
    s0 = np.nonzero(part.assignment == 0)[0]
    assert s0.min() == 5 and s0.max() == 54 and len(s0) == 50
    s1 = np.nonzero(part.assignment == 1)[0]
    assert set(s1) == set(range(5)) | set(range(55, 100))


def test_split1d_example():
    part = models.split1d(100, 57)
    assert np.all(part.assignment[:58] == 0)
    assert np.all(part.assignment[58:] == 1)


def test_stripes2d_sizes():
    part = models.stripes2d(50, 3)
    sizes = np.bincount(part.assignment)
    # leftover states widen the outer strata (17, 16, 17 per axis)
    assert np.array_equal(sizes, np.array([17, 16, 17]) * 50)


def test_grid2d_sizes_and_refinement_of_stripes():
    part = models.grid2d(50, 6)
    assert part.n == 36
    axis = np.bincount(models.stripes2d(50, 6).assignment) // 50
    assert np.array_equal(axis, [9, 8, 8, 8, 8, 9])
    sizes = np.bincount(part.assignment)
    assert np.array_equal(sizes, np.outer(axis, axis).reshape(-1))
    assert coarse.is_refinement(models.grid2d(50, 3), models.stripes2d(50, 3))


def test_partition_families_dispatch_and_errors():
    part = models.partition_families("split1d", N=10, ell=4)
    assert part.n == 2
    with pytest.raises(Exception):
        models.partition_families("nope", N=10)
    with pytest.raises(Exception):
        models.uniform1d(10, 20, 0)


def test_pathological_fixtures_shapes():
    fx = models.pathological_fixtures()
    P1, part1, mu01 = fx["reducible_coarse"]
    chain.steady_state(P1)  # irreducible: raises ReducibleMatrixError otherwise
    assert np.allclose(mu01.probs, [0.5, 0.0, 0.5])
    C = coarse_chain(P1, coarse.disaggregation_weights(mu01.probs, part1), part1)
    assert np.allclose(C.mat, [[1.0, 1.0], [0.0, 0.0]])
    P3, _, _ = fx["periodic_shift"]
    assert np.array_equal(P3.dense(), models.right_shift(3).dense())
    # {2, 3} is a transient class: it feeds {0, 1} and receives from no state of it
    P4, part4, mu04 = fx["transient_class"]
    assert not P4.dense()[2:, :2].any() and P4.dense()[:2, 2:].any()
    assert np.array_equal(part4.assignment, [0, 1, 1, 0])
    assert np.array_equal(mu04.probs, np.full(4, 0.25))


def test_load_config_and_build_model(tmp_path):
    cfg_path = tmp_path / "model.cfg"
    cfg_path.write_text(
        "model = chain1d\nN = 100\n# comment\npartition = split1d:ell=57\n")
    cfg = models.load_config(cfg_path)
    P, mu, part = models.build_model(cfg)
    assert P.n == 100
    assert mu is not None and part is not None and part.n == 2


def test_build_model_alpha_mixture():
    P0, mu0, _ = models.build_model({"model": "chain1d"})
    Pa, mua, _ = models.build_model({"model": "chain1d", "alpha": "0.05"})
    assert mua is None
    expect = 0.95 * P0.dense() + 0.05 * models.left_shift(100).dense()
    assert np.allclose(Pa.dense(), expect, atol=1e-14)


def test_build_model_overrides_the_benchmark_spec():
    P, mu, part = models.build_model({"model": "chain2d", "N": "6", "T": "0.5",
                                      "move_set": "diagonal"})
    spec = models.Chain2DSpec(potential=models.two_dim_potential, a=-1.7,
                              b=1.7, c=-1.7, d=2.0, N=6, T=0.5,
                              move_set="diagonal")
    assert np.array_equal(mu.probs, models.boltzmann_2d(spec).probs)
    assert np.array_equal(P.dense(), models.reversible_chain_2d(mu, spec).dense())
    assert part is None


@pytest.mark.parametrize("cfg, error, match", [
    ({"model": "marek", "alpha": "0.5"}, ValueError, "'alpha'"),
    ({"model": "chain1d", "c": "0"}, ValueError, "'c'"),
    ({"model": "chain2d", "park_variant": "1"}, ValueError, "'park_variant'"),
    ({"model": "chain1d", "alpha": "-0.1"}, ValueError, "alpha"),
    ({"partition": "grid2d:s=2"}, PartitionError, "2D grid"),
    ({"partition": "split1d:el=57"}, PartitionError,
     r"unknown \['el'\], missing \['ell'\]"),
    ({"partition.kind": "split1d"}, ValueError, "unknown key 'partition.kind'"),
    ({"partition": "split1d:ell=57,N=100"}, PartitionError, "set by the model"),
    ({"partition": "split1d:ell=x"}, PartitionError,
     "partition 'split1d': parameter 'ell'"),
    ({"model": "chain1d", "N": "abc"}, ValueError, "key 'N'"),
    ({"model": "chain2d", "alpha": "x"}, ValueError, "key 'alpha'"),
    ({"partition": "split1d:ell"}, PartitionError, "expected key=val, got 'ell'"),
])
def test_build_model_rejects(cfg, error, match):
    with pytest.raises(error, match=match):
        models.build_model(cfg)


def test_shift_mixture_1d():
    # the chains the CLI tables run on, (1 - alpha) P + alpha L built
    # through build_model from a float alpha: the Boltzmann chain itself
    # at alpha = 0, otherwise exactly mix(P, L, alpha) with mu its GTH
    # steady state
    P0, mu0, _ = models.build_model({"model": "chain1d"})
    rates = cli._prepare([0.15, 0.0])
    assert list(rates) == [0.0, 0.15]
    assert np.array_equal(rates[0.0].P.dense(), P0.dense())
    assert np.array_equal(rates[0.0].mu.probs, mu0.probs)
    P, mu = rates[0.15].P, rates[0.15].mu
    expect = models.mix(P0, models.left_shift(100), 0.15)
    assert np.array_equal(P.dense(), expect.dense())
    assert np.max(np.abs(P.mat @ mu.probs - mu.probs)) < 1e-14


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 30), st.integers(1, 6), st.integers(0, 6))
def test_uniform1d_partitions_cover(N, n, ell):
    n = min(n, N)
    ell = min(ell, N // n)
    part = models.uniform1d(N, n, ell)
    assert len(part.assignment) == N
    assert set(part.assignment) == set(range(part.n))
