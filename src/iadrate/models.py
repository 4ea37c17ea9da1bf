"""Model chains on 1D and 2D periodic grids with discrete Boltzmann
steady states, irreversible shift mixtures, the partition families used
in the experiments, and small pathological fixtures.
"""

import inspect
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np
import scipy.sparse

from .chain import ProbabilityVector, StochasticMatrix, steady_state, validate
from .coarse import make_partition, singleton_partition, trivial_partition
from .errors import PartitionError


def double_well_potential(x):
    """Tilted double well (1 - x^2)^2 + x/2 used by the 1D experiments."""
    return (1.0 - x**2) ** 2 + 0.5 * x


def two_dim_potential(x, y):
    """Sum-of-Gaussians surface with two deep wells and a shallow one,
    confined by quartic walls; the (y^2 - 5/3)^2 exponent of the second
    term and the walls reproduce the reference eigenvalues of the 2D
    experiment (see README).
    """
    return (
        3.0 * np.exp(-(x**2) - (y - 1.0 / 3.0) ** 2)
        - 3.0 * np.exp(-(x**2) - (y**2 - 5.0 / 3.0) ** 2)
        - 5.0 * np.exp(-((x - 1.0) ** 2) - y**2)
        - 5.0 * np.exp(-((x + 1.0) ** 2) - y**2)
        + 0.2 * x**4 + 0.2 * (y - 1.0 / 3.0) ** 4
    )


@dataclass(frozen=True)
class Chain1DSpec:
    potential: Callable[[np.ndarray], np.ndarray]
    a: float
    b: float
    N: int
    T: float

    def __post_init__(self):
        if not (self.a < self.b and self.N >= 3 and self.T > 0):
            raise ValueError("Chain1DSpec: require a < b, N >= 3, T > 0")


@dataclass(frozen=True)
class Chain2DSpec:
    potential: Callable[[np.ndarray, np.ndarray], np.ndarray]
    a: float
    b: float
    c: float
    d: float
    N: int
    T: float
    move_set: str = "axis_aligned"  # "axis_aligned" or "diagonal"

    def __post_init__(self):
        if not (self.a < self.b and self.c < self.d and self.N >= 3 and self.T > 0):
            raise ValueError("Chain2DSpec: require a < b, c < d, N >= 3, T > 0")
        if self.move_set not in ("diagonal", "axis_aligned"):
            raise ValueError(f"Chain2DSpec: unknown move_set {self.move_set!r}")


def benchmark_chain_1d_spec():
    """Parameters of the standard 1D experiment."""
    return Chain1DSpec(potential=double_well_potential, a=-1.7, b=1.55, N=100, T=0.1)


def benchmark_chain_2d_spec(move_set="axis_aligned"):
    """Parameters of the standard 2D experiment."""
    return Chain2DSpec(potential=two_dim_potential, a=-1.7, b=1.7, c=-1.7, d=2.0,
                       N=50, T=0.25, move_set=move_set)


def boltzmann_1d(spec):
    """Discrete Boltzmann distribution on the endpoint-inclusive grid
    x_i = a + (b - a) i / (N - 1), i = 0..N-1."""
    x = np.linspace(spec.a, spec.b, spec.N)
    v = np.asarray(spec.potential(x), dtype=float)
    e = np.exp(-(v - v.min()) / spec.T)
    return ProbabilityVector(probs=e / e.sum())


# Index type of the model chains' CSC storage: scipy keeps the type of the
# indices it is given, and int32 takes half the memory of the default int64.
_INDEX = np.int32


def reversible_chain_1d(mu):
    """Nearest-neighbor Metropolis-like chain in detailed balance with mu,
    stored as CSC with three nonzeros a column.

    Periodic wraparound; off-diagonals are half the target's share of the
    pairwise mass, the diagonal takes the rest.
    """
    m = mu.probs
    N = m.shape[0]
    if np.any(m <= 0):
        raise ValueError("reversible_chain_1d: mu must be strictly positive")
    up = 0.5 * np.roll(m, -1) / (np.roll(m, -1) + m)    # i -> i+1
    down = 0.5 * np.roll(m, 1) / (np.roll(m, 1) + m)    # i -> i-1
    idx = np.arange(N, dtype=_INDEX)
    rows = np.concatenate([(idx + 1) % N, (idx - 1) % N, idx])
    vals = np.concatenate([up, down, 1.0 - up - down])
    P = scipy.sparse.csc_array((vals, (rows, np.tile(idx, 3))), shape=(N, N))
    return StochasticMatrix(mat=P)


def _cyclic_shift(N, step):
    """CSC permutation matrix sending state i to i + step (mod N)."""
    if N < 2:
        raise ValueError("cyclic shift: N must be at least 2")
    rows = (np.arange(N, dtype=_INDEX) + step) % N
    W = scipy.sparse.csc_array((np.ones(N), rows, np.arange(N + 1, dtype=_INDEX)),
                               shape=(N, N))
    return StochasticMatrix(mat=W)


def right_shift(N):
    """Cyclic permutation matrix sending state i to i+1."""
    return _cyclic_shift(N, 1)


def left_shift(N):
    """Cyclic permutation matrix sending state i to i-1. This is the
    non-reversible perturbation used in the shift-mixture experiments."""
    return _cyclic_shift(N, -1)


def mix(P, W, alpha):
    """Convex combination (1 - alpha) P + alpha W."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("mix: alpha must lie in [0, 1]")
    if P.mat.shape != W.mat.shape:
        raise ValueError("mix: dimension mismatch")
    return StochasticMatrix(mat=(1.0 - alpha) * P.mat + alpha * W.mat)


def shift_mixture_1d(alpha):
    """(P, mu) for the benchmark 1D chain mixed with the left shift,
    (1 - alpha) P + alpha L: mu is the Boltzmann distribution at alpha = 0
    and the GTH steady state of the mixture otherwise."""
    mu = boltzmann_1d(benchmark_chain_1d_spec())
    P = reversible_chain_1d(mu)
    if alpha == 0.0:
        return P, mu
    P = mix(P, left_shift(P.n), alpha)
    return P, steady_state(P)


def boltzmann_2d(spec):
    """Discrete Boltzmann distribution on the N x N grid, flattened row-major."""
    x = np.linspace(spec.a, spec.b, spec.N)
    y = np.linspace(spec.c, spec.d, spec.N)
    v = np.asarray(spec.potential(x[:, None], y[None, :]), dtype=float)
    e = np.exp(-(v - v.min()) / spec.T)
    return ProbabilityVector(probs=(e / e.sum()).reshape(-1))


_MOVES = {
    "diagonal": ((1, 1), (1, -1), (-1, 1), (-1, -1)),
    "axis_aligned": ((1, 0), (-1, 0), (0, 1), (0, -1)),
}


def reversible_chain_2d(mu, spec):
    """Metropolis-like chain on the periodic N x N grid in detailed balance
    with mu; each of the four moves in the move set gets weight
    mu(target) / (4 (mu(target) + mu(source))). Stored as CSC with five
    nonzeros a column."""
    N = spec.N
    m = mu.probs.reshape(N, N)
    if np.any(m <= 0):
        raise ValueError("reversible_chain_2d: mu must be strictly positive")
    axis = np.arange(N, dtype=_INDEX)
    ii, jj = np.meshgrid(axis, axis, indexing="ij")
    src = (ii * N + jj).reshape(-1)
    tgts, ws = [], []
    for dk, dl in _MOVES[spec.move_set]:
        ti = (ii + dk) % N
        tj = (jj + dl) % N
        tgts.append((ti * N + tj).reshape(-1))
        ws.append((0.25 * m[ti, tj] / (m[ti, tj] + m)).reshape(-1))
    moves = scipy.sparse.csc_array(
        (np.concatenate(ws), (np.concatenate(tgts), np.tile(src, len(ws)))),
        shape=(N * N, N * N))
    # N >= 3 gives each column four distinct targets, stored in row order;
    # adding them in that order, as a dense column sum does, makes the
    # diagonal bit for bit one minus the dense column sum
    moved = sum(moves.data.reshape(N * N, -1).T)
    P = moves + scipy.sparse.diags_array(1.0 - moved, format="csc")
    return StochasticMatrix(mat=P)


def uniform1d(N, n, ell):
    """n contiguous strata of ~N/n states each, cyclically shifted by ell;
    the last stratum wraps around the origin."""
    if n < 1 or n > N:
        raise PartitionError(f"uniform1d: need 1 <= n <= N, got n={n}")
    if ell < 0 or ell > N // n:
        raise PartitionError(f"uniform1d: need 0 <= ell <= N//n, got ell={ell}")
    assignment = np.full(N, n - 1, dtype=int)
    for J in range(n - 1):
        lo = J * N // n + ell
        hi = (J + 1) * N // n + ell
        assignment[lo:hi] = J
    return make_partition(assignment, n)


def split1d(N, ell):
    """Two strata {0..ell} and {ell+1..N-1}."""
    if not 0 <= ell <= N - 2:
        raise PartitionError(f"split1d: need 0 <= ell <= N-2, got ell={ell}")
    assignment = np.zeros(N, dtype=int)
    assignment[ell + 1:] = 1
    return make_partition(assignment, 2)


def _axis_strata(N, s):
    """Axis index -> stratum label for s near-equal contiguous stripes.

    The base size is N // s; the N mod s leftover states widen the
    strata closest to the two ends of the axis, outermost first. For
    N=50 this yields sizes (17, 16, 17) at s=3 and (9, 8, 8, 8, 8, 9)
    at s=6, the layout the reference rate tables were computed with.
    """
    if not 1 <= s <= N:
        raise PartitionError(f"need 1 <= s <= N, got s={s}, N={N}")
    sizes = np.full(s, N // s, dtype=int)
    order = np.argsort(np.minimum(np.arange(s), s - 1 - np.arange(s)),
                       kind="stable")
    sizes[order[: N % s]] += 1
    return np.repeat(np.arange(s), sizes)


def stripes2d(N, s):
    """s stripes in the first grid coordinate of the flattened N x N grid."""
    return make_partition(np.repeat(_axis_strata(N, s), N), s)


def grid2d(N, s):
    """s x s blocks of the flattened N x N grid."""
    a = _axis_strata(N, s)
    ii = np.repeat(a, N)
    jj = np.tile(a, N)
    return make_partition(ii * s + jj, s * s)


_PARTITIONS = {"uniform1d": uniform1d, "split1d": split1d,
               "stripes2d": stripes2d, "grid2d": grid2d,
               "singleton": singleton_partition, "trivial": trivial_partition}
# kinds whose N is the side of an N x N grid, not the number of states
_GRID_KINDS = ("stripes2d", "grid2d")


def partition_families(kind, **params):
    """Dispatch to the named partition constructor, which must get each of
    its parameters and nothing else."""
    if kind not in _PARTITIONS:
        raise PartitionError(f"partition_families: unknown kind {kind!r}")
    fn = _PARTITIONS[kind]
    names = list(inspect.signature(fn).parameters)
    unknown = sorted(set(params) - set(names))
    missing = [name for name in names if name not in params]
    if unknown or missing:
        raise PartitionError(f"partition {kind!r} takes {', '.join(names)}: "
                             f"unknown {unknown}, missing {missing}")
    return fn(**params)


def pathological_fixtures():
    """Small chains on which IAD is known to misbehave.

    reducible_coarse: irreducible aperiodic 3-state chain whose coarse
        matrix at the given (non-positive) initial vector is reducible.
    marek: irreducible aperiodic 4-state chain with P^T P reducible.
    periodic_shift: the 3-state cyclic shift.
    """
    fixtures = {}

    P1 = validate(np.array([
        [0.0, 1 / 3, 0.0],
        [1.0, 1 / 3, 1.0],
        [0.0, 1 / 3, 0.0],
    ]))
    part1 = make_partition(np.array([0, 0, 1]), 2)
    mu01 = ProbabilityVector(probs=np.array([0.5, 0.0, 0.5]))
    fixtures["reducible_coarse"] = (P1, part1, mu01)

    P2 = validate(np.array([
        [0.0, 1.0, 0.0, 0.5],
        [0.5, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.0, 0.5],
        [0.0, 0.0, 1.0, 0.0],
    ]))
    part2 = make_partition(np.array([0, 0, 1, 1]), 2)
    # a generic (asymmetric) start; the exactly uniform vector lands on a
    # symmetry of this chain and converges despite rho(J) = 1
    mu02 = ProbabilityVector(probs=np.array([0.4, 0.1, 0.3, 0.2]))
    fixtures["marek"] = (P2, part2, mu02)

    P3 = right_shift(3)
    part3 = make_partition(np.array([0, 0, 1]), 2)
    mu03 = ProbabilityVector(probs=np.full(3, 1 / 3))
    fixtures["periodic_shift"] = (P3, part3, mu03)

    return fixtures


def load_config(path):
    """Parse a flat key=value model config file into a dict (the keys are
    checked by build_model)."""
    cfg = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"load_config: bad line {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            cfg[key] = val
    return cfg


def with_partition(cfg, text):
    """cfg with its partition.* keys replaced by those of an inline
    `kind:key=val,...` spec such as `split1d:ell=57` or `trivial`."""
    kind, _, rest = text.partition(":")
    out = {k: v for k, v in cfg.items() if not k.startswith("partition.")}
    out["partition.kind"] = kind
    for piece in filter(None, rest.split(",")):
        key, eq, val = piece.partition("=")
        if not eq:
            raise PartitionError(f"partition {text!r}: expected key=val, got {piece!r}")
        out[f"partition.{key.strip()}"] = val
    return out


def build_model(cfg):
    """Instantiate (P, mu_or_None, partition_or_None) from a config dict.

    `model` is chain1d (default), chain2d or a pathological fixture. The
    chains take `alpha` (left-shift mixing weight) and the fields of their
    benchmark spec but the potential; any other key raises ValueError.
    `partition.kind` and its constructor's parameters but N name the
    partition; N is the chain2d grid side for the 2D kinds and the state
    count otherwise. mu is returned only when it is analytically known
    (Boltzmann chains with alpha = 0).
    """
    cfg = dict(cfg)
    kind = cfg.pop("model", "chain1d")
    params = {key.split(".", 1)[1]: cfg.pop(key)
              for key in list(cfg) if key.startswith("partition.")}
    fixtures = pathological_fixtures()
    specs = {"chain1d": benchmark_chain_1d_spec(), "chain2d": benchmark_chain_2d_spec()}
    if kind not in fixtures and kind not in specs:
        raise ValueError(f"build_model: unknown model {kind!r}")
    spec = specs.get(kind)
    names = [] if spec is None else ["alpha"] + [
        f.name for f in fields(spec) if f.name != "potential"]
    for key in cfg:
        if key not in names:
            raise ValueError(f"build_model: unknown key {key!r} for model {kind!r}")
    mu = side = None
    if spec is None:
        P, part, _ = fixtures[kind]
    else:
        alpha = float(cfg.pop("alpha", 0.0))
        spec = replace(
            spec, **{key: type(getattr(spec, key))(val) for key, val in cfg.items()})
        if kind == "chain1d":
            mu = boltzmann_1d(spec)
            P = reversible_chain_1d(mu)
        else:
            mu = boltzmann_2d(spec)
            P, side = reversible_chain_2d(mu, spec), spec.N
        part = None
        if alpha != 0.0:
            P, mu = mix(P, left_shift(P.n), alpha), None
    if params:
        pkind = params.pop("kind", None)
        if pkind is None:
            raise PartitionError(f"partition keys {sorted(params)} without partition.kind")
        if "N" in params:
            raise PartitionError("partition N is set by the model")
        if pkind in _GRID_KINDS and side is None:
            raise PartitionError(f"partition {pkind!r} needs a model on a 2D grid")
        N = side if pkind in _GRID_KINDS else P.n
        part = partition_families(pkind, N=N, **{k: int(v) for k, v in params.items()})
    return P, mu, part
