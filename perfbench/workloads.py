"""The four benchmark workloads.

Each workload is built from its seed (the chains, `mu`, partitions and
seeded inputs: what `setup_s` times), runs one repetition (what `wall_s`
times) and checks the repetition's output against the reference stored
in `reference/`. Every call into the package goes through a module
attribute (`models.split1d`, not an imported name), so the traced run
can wrap it.
"""

import csv
import dataclasses
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy.sparse

from iadrate import chain, cli, diagnostics, iad, models

REFERENCE = Path(__file__).resolve().parent / "reference"

# Seed-code reference values are printed with 6 decimals.
REF_TOL = 1e-6
# Reversible chains: the exact formula and the norm bound equal rho(J).
EXACT_TOL = 1e-8
SOLVE_TAU = 1e-9
SOLVE_MAX_REL_ERR = 1e-6
SOLVE_RATE_GAP = 0.01
SWEEP_ALPHAS = (0.0, 0.05, 0.15)
SWEEP_K = 2
SWEEP_MAX_N = 20


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_reference(name):
    return read_csv(REFERENCE / name)


def stored_bytes(obj):
    """Bytes of the numeric data an object holds: dense and sparse arrays
    and scalars, reached through dataclass fields, lists, tuples and
    dicts. Sparse storage is counted so that the figure stays right when
    the package changes how it stores P or its solver trace."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if scipy.sparse.issparse(obj):
        return sum(getattr(obj, a).nbytes
                   for a in ("data", "indices", "indptr", "row", "col", "offsets")
                   if hasattr(obj, a))
    if isinstance(obj, (float, int, np.number)):
        return 8
    if isinstance(obj, (list, tuple)):
        return sum(stored_bytes(v) for v in obj)
    if isinstance(obj, dict):
        return sum(stored_bytes(v) for v in obj.values())
    if dataclasses.is_dataclass(obj):
        return sum(stored_bytes(getattr(obj, f.name))
                   for f in dataclasses.fields(obj))
    return 0


@dataclasses.dataclass
class Outcome:
    """Operations attempted and failed in one repetition, what went wrong,
    and values the checks computed that the traced run reports."""

    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    values: dict = dataclasses.field(default_factory=dict)

    def record(self, ok, problem):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def _attempt(fn, *args):
    """Run one operation; an exception is its (failed) result."""
    try:
        return fn(*args)
    except Exception as exc:  # any raise counts as a failed operation
        return exc


class Workload:
    """`span(name)` opens a benchmark span; the traced run replaces it."""

    def __init__(self, seed, workers, scratch):
        self.seed = seed
        self.workers = workers
        self.scratch = scratch
        self.span = lambda name: nullcontext()
        self.build()


class Solve(Workload):
    """`iad.iad_solve` from a seeded strictly positive start vector."""

    def start_vector(self):
        x = np.random.default_rng(self.seed).uniform(0.5, 1.5, self.P.n)
        return chain.ProbabilityVector(probs=x / x.sum())

    def run(self):
        return _attempt(iad.iad_solve, self.P, self.part, self.mu0,
                        iad.IadConfig(tau=SOLVE_TAU))

    def check(self, out):
        o = Outcome()
        if isinstance(out, Exception):
            o.record(False, f"iad_solve raised {out!r}")
            return o
        try:
            est, trace = out
            m = self.mu.probs
            err = float(np.max(np.abs(est.probs - m) / m))
            gap = abs(iad.empirical_rate(trace, self.mu) - self.rho_ref) / self.rho_ref
        except Exception as exc:  # a check that cannot run is a miss
            o.record(False, f"check raised {exc!r}")
            return o
        o.record(err <= SOLVE_MAX_REL_ERR and gap <= SOLVE_RATE_GAP,
                 f"max rel err {err:.3g}, rate gap {gap:.3g}")
        o.values = {"iad.outer_steps": len(trace.rel_changes),
                    "iad.max_rel_err": err, "iad.rate_gap": gap,
                    "iad.trace_bytes": stored_bytes(trace)}
        return o


class Solve1D(Solve):
    """1D double well (N=100, T=0.1), two strata split at ell=57."""

    def build(self):
        spec = models.benchmark_chain_1d_spec()
        self.mu = models.boltzmann_1d(spec)
        self.P = models.reversible_chain_1d(self.mu)
        self.part = models.split1d(spec.N, 57)
        self.mu0 = self.start_vector()
        row = next(r for r in read_reference("fig3.csv") if r["ell"] == "57")
        self.rho_ref = float(row["rho"])


def _chain_2d():
    spec = models.benchmark_chain_2d_spec()
    mu = models.boltzmann_2d(spec)
    return spec, mu, models.reversible_chain_2d(mu, spec)


def _table4():
    return {r["quantity"]: r for r in read_reference("table4.csv")}


class Solve2D(Solve):
    """2D three-well chain on the 50x50 grid, 6x6 grid of strata."""

    def build(self):
        spec, self.mu, self.P = _chain_2d()
        self.part = models.grid2d(spec.N, 6)
        self.mu0 = self.start_vector()
        self.rho_ref = float(_table4()["rho_J"]["grid2d:s=6"])


class Report2D(Workload):
    """Table 4: `diagnostics.full_report` on the 2D chain.

    One report takes about as long as a whole run of another workload, so
    a run makes one: even seeds take the 3 stripes, odd seeds the 6x6
    grid.
    """

    PARTITIONS = (("stripes2d:s=3", "stripes2d", 3), ("grid2d:s=6", "grid2d", 6))

    def build(self):
        spec, self.mu, self.P = _chain_2d()
        self.label, kind, s = self.PARTITIONS[self.seed % 2]
        self.part = getattr(models, kind)(spec.N, s)
        self.rho_ref = float(_table4()["rho_J"][self.label])

    def run(self):
        return _attempt(diagnostics.full_report, self.P, self.part, [2, 3], self.mu)

    def check(self, rep):
        o = Outcome()
        if isinstance(rep, Exception):
            o.record(False, f"{self.label}: full_report raised {rep!r}")
            return o
        rho = rep.rho_J
        ok = (abs(rho - self.rho_ref) <= REF_TOL
              and abs(rep.rho_exact_formula - rho) <= EXACT_TOL
              and abs(rep.norm_bound - rho) <= EXACT_TOL
              and all(b >= rho for _, b in rep.angle_bounds.values()))
        o.record(ok, f"{self.label}: rho_J {rho!r} (ref {self.rho_ref}), exact "
                     f"{rep.rho_exact_formula!r}, norm {rep.norm_bound!r}, "
                     f"angle {rep.angle_bounds!r}")
        return o


class Sweep1D(Workload):
    """Figures 2-5 on the 1D chain and its shift mixtures.

    Figure 2 runs through `cli.main(["shift-study", ...])`; figures 3-5
    are the two-way split sweeps through the public `diagnostics`
    functions, on a pool shaped like the CLI's. The seed sets the order
    in which each sweep submits its splits.
    """

    def build(self):
        spec = models.benchmark_chain_1d_spec()
        mu0 = models.boltzmann_1d(spec)
        # P is the base chain; each mixture is stored the same way
        self.P = P0 = models.reversible_chain_1d(mu0)
        self.N = spec.N
        self.chains = {}
        for a in SWEEP_ALPHAS:
            if a == 0.0:
                self.chains[a] = (P0, mu0)
            else:
                P = models.mix(P0, models.left_shift(self.N), a)
                self.chains[a] = (P, chain.steady_state(P))
        rng = np.random.default_rng(self.seed)
        self.order = {a: [int(e) for e in rng.permutation(self.N - 1)]
                      for a in SWEEP_ALPHAS}
        self.fig2_ref = read_reference("fig2.csv")
        self.split_ref = {a: read_reference(f"fig{i}.csv")
                          for i, a in zip((3, 4, 5), SWEEP_ALPHAS)}

    def run(self):
        with tempfile.TemporaryDirectory(dir=self.scratch) as out:
            rc = _attempt(cli.main, [
                "shift-study", "--alpha", ",".join(str(a) for a in SWEEP_ALPHAS),
                "--max-n", str(SWEEP_MAX_N), "--out", out])
            fig2 = read_csv(Path(out) / "fig2.csv") if rc == 0 else rc
        return fig2, {a: _attempt(self.split_sweep, a) for a in SWEEP_ALPHAS}

    def split_sweep(self, a):
        P, mu = self.chains[a]
        rev = chain.is_reversible(P, mu)
        sd = chain.pstar_p_spectrum(P, mu)

        def row(ell):
            with self.span("sweep.eval"):
                part = models.split1d(self.N, ell)
                rho = diagnostics.rho_J_direct(
                    diagnostics.error_operator(P, mu, part))
                nb = diagnostics.norm_bound(P, mu, part)
                s = diagnostics.sin_theta(P, mu, part, SWEEP_K, sd=sd)
                ab = diagnostics.angle_bound(sd.lambdas, s * s, SWEEP_K, rev)
                return rho, nb, ab

        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            results = pool.map(lambda ell: _attempt(row, ell), self.order[a])
            return dict(zip(self.order[a], results))

    def check(self, out):
        o = Outcome()
        fig2, sweeps = out
        for ref in self.fig2_ref:
            key = (ref["n"], ref["alpha"])
            if isinstance(fig2, list):
                got = next((r for r in fig2 if (r["n"], r["alpha"]) == key), None)
                ok = got is not None and _close(got["max_rho"], ref["max_rho"])
            else:
                got, ok = fig2, False
            o.record(ok, f"fig2 n={key[0]} alpha={key[1]}: {got!r} vs {ref['max_rho']}")
        for a in SWEEP_ALPHAS:
            rows = sweeps[a]
            for ref in self.split_ref[a]:
                ell = int(ref["ell"])
                got = rows.get(ell) if isinstance(rows, dict) else rows
                if isinstance(got, tuple):
                    rho, nb, ab = got
                    ok = (_close(rho, ref["rho"]) and _close(nb, ref["norm_bound"])
                          and _close(ab, ref["angle_bound"])
                          and (a != 0.0 or abs(nb - rho) <= EXACT_TOL))
                else:
                    ok = False
                o.record(ok, f"split alpha={a} ell={ell}: {got!r} vs {dict(ref)}")
        return o


def _close(x, ref):
    return abs(float(x) - float(ref)) <= REF_TOL


WORKLOADS = {
    "solve-1d": Solve1D,
    "solve-2d": Solve2D,
    "report-2d": Report2D,
    "sweep-1d": Sweep1D,
}
