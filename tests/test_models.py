import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from iadrate import chain, coarse, models
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
    assert chain.is_ptp_irreducible(P)


def _assert_sparse_balanced_chain(P, mu, per_column):
    assert P.mat.format == "csc" and P.mat.has_canonical_format
    assert np.diff(P.mat.indptr).max() <= per_column
    assert np.max(np.abs(P.mat.sum(axis=0) - 1.0)) < 1e-14
    flux = P.mat @ scipy.sparse.diags_array(mu.probs)
    assert abs(flux - flux.T).max() < 1e-14


def test_model_chains_are_csc(bench_1d, bench_2d):
    _assert_sparse_balanced_chain(*bench_1d, 3)
    _assert_sparse_balanced_chain(*bench_2d, 5)
    spec = models.benchmark_chain_2d_spec(move_set="diagonal")
    mu = models.boltzmann_2d(spec)
    _assert_sparse_balanced_chain(models.reversible_chain_2d(mu, spec), mu, 5)
    P0, _ = bench_1d
    for W in (models.left_shift(100), models.right_shift(100)):
        assert W.mat.format == "csc" and W.mat.nnz == 100
    mixed = models.mix(P0, models.left_shift(100), 0.05)
    assert mixed.mat.format == "csc" and np.diff(mixed.mat.indptr).max() <= 3


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
    assert chain.is_irreducible(P1)
    assert np.allclose(mu01.probs, [0.5, 0.0, 0.5])
    C = coarse.coarse_matrix(P1, mu01, part1)
    assert np.allclose(C.mat, [[1.0, 1.0], [0.0, 0.0]])
    P3, _, _ = fx["periodic_shift"]
    assert np.array_equal(P3.dense(), models.right_shift(3).dense())


def test_load_config_and_build_model(tmp_path):
    cfg_path = tmp_path / "model.cfg"
    cfg_path.write_text(
        "model = chain1d\nN = 100\n# comment\npartition.kind = split1d\n"
        "partition.ell = 57\n")
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
    ({"partition.kind": "grid2d", "partition.s": "2"}, PartitionError, "2D grid"),
    ({"partition.kind": "split1d", "partition.el": "57"}, PartitionError,
     r"unknown \['el'\], missing \['ell'\]"),
    ({"partition.ell": "57"}, PartitionError, "without partition.kind"),
    ({"partition.kind": "split1d", "partition.ell": "57", "partition.N": "100"},
     PartitionError, "set by the model"),
])
def test_build_model_rejects(cfg, error, match):
    with pytest.raises(error, match=match):
        models.build_model(cfg)


def test_shift_mixture_1d():
    P0, mu0, _ = models.build_model({"model": "chain1d"})
    P, mu = models.shift_mixture_1d(0.0)
    assert np.array_equal(P.dense(), P0.dense())
    assert np.array_equal(mu.probs, mu0.probs)
    P, mu = models.shift_mixture_1d(0.15)
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
