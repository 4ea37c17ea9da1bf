"""Command-line front end.

Builds the example chains, runs the aggregation/disaggregation solver,
and regenerates the reference tables and figure curves as CSV. All
numeric output is deterministic: floats are printed with 6 decimals and
the -log10(1 - x) digit counts with 2, and sweeps run serially in a
fixed order (fig2 rows by n, then by alpha ascending), so reruns are
byte-identical.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import chain, diagnostics, iad, models
from .errors import IadError, NonConvergenceError


def _fmt(x):
    return f"{x:.6f}"


def _neglog(x):
    return f"{-np.log10(max(1.0 - x, 1e-300)):.2f}"


def _load_model(args):
    """(config, P, mu or None, partition or None) from --model and, on the
    commands that take it, --partition, which replaces the config's
    partition."""
    cfg = models.load_config(args.model) if args.model else {}
    if vars(args).get("partition") is not None:
        cfg["partition"] = args.partition
    P, mu, part = models.build_model(cfg)
    if part is None and "partition" in vars(args):
        raise ValueError("no partition given (use --partition or the config)")
    return cfg, P, mu, part


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_sqrt_lambdas(path, lambdas, ks):
    """sqrt(lambda_k) of P* P and its digit count, for k in ks (from 1)."""
    s = np.sqrt(lambdas)
    _write_csv(path, "k,sqrt_lambda,neglog10",
               [[str(k), _fmt(s[k - 1]), _neglog(s[k - 1])] for k in ks])


def cmd_solve(args):
    cfg, P, _, part = _load_model(args)
    fixtures = models.pathological_fixtures()
    if cfg.get("model") in fixtures:
        mu0 = fixtures[cfg["model"]][2]
    else:
        mu0 = chain.ProbabilityVector(probs=np.full(P.n, 1.0 / P.n))
    cfg = iad.IadConfig(tau=args.tau, max_outer=args.max_outer)
    os.makedirs(args.out, exist_ok=True)
    code = 0
    try:
        est, trace = iad.iad_solve(P, part, mu0, cfg)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        est, trace = exc.trace.iterates[-1], exc.trace
        code = 2
    chain.save_vector(os.path.join(args.out, "mu.txt"), est)
    rows = [[str(k), f"{change:.9e}", f"{resid:.9e}"] for k, (change, resid)
            in enumerate(zip(trace.rel_changes, trace.residuals), 1)]
    _write_csv(os.path.join(args.out, "trace.csv"), "iter,rel_change,residual", rows)
    return code


def cmd_spectrum(args):
    _, P, mu, _ = _load_model(args)
    ks = range(1, min(P.n, args.max_n) + 1)
    lambdas = diagnostics.ChainRates(P, mu).pairs(len(ks)).lambdas
    os.makedirs(args.out, exist_ok=True)
    _write_sqrt_lambdas(os.path.join(args.out, "spectrum.csv"), lambdas, ks)
    return 0


def cmd_report(args):
    _, P, mu, part = _load_model(args)
    _check_k_list(args.k_list, P.n)
    rep = diagnostics.full_report(P, part, k_list=args.k_list, mu=mu)
    os.makedirs(args.out, exist_ok=True)
    payload = {k: v for k, v in vars(rep).items() if k != "angle_bounds"}
    for k, (s2, bound) in sorted(rep.angle_bounds.items()):
        payload[f"sin2theta_k{k}"] = s2
        payload[f"angle_bound_k{k}"] = bound
    # JSON has no NaN or infinity: an undefined value is written as null
    payload = {k: v if np.isfinite(v) else None for k, v in payload.items()}
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return 0


def _check_max_n(max_n):
    N = models.benchmark_chain_1d_spec().N
    if max_n > N:
        raise ValueError(f"--max-n: the 1D chain has {N} states, got {max_n}")


def _check_k_list(k_list, n):
    if max(k_list) >= n:
        raise ValueError(f"--k-list: the chain has {n} states, got k = {max(k_list)}")


_SHIFT_HEADER = "n,alpha,max_rho,neglog10"
_SPLIT_HEADER = ("ell,rho,rho_neglog10,norm_bound,norm_bound_neglog10,"
                 "angle_bound,angle_bound_neglog10")


def _prepare(alphas):
    """{alpha: ChainRates} of the 1D shift mixtures, one per alpha."""
    return {a: diagnostics.ChainRates(*models.build_model({"alpha": a})[:2])
            for a in sorted(alphas)}


def _shift_study_rows(chains, max_n):
    """max over ell of rho(J) for uniform n-strata partitions, per n and
    per alpha of the prepared chains {alpha: ChainRates}."""
    rows = []
    for n in range(1, max_n + 1):
        for a, rates in sorted(chains.items()):
            # ceil(N / n) shifts: when n | N, shift N // n has the strata of
            # shift 0. ChainRates keeps the last rate: at n = 1 all are equal
            r = max(rates.rho_J(models.uniform1d(rates.P.n, n, ell))
                    for ell in range(-(-rates.P.n // n)))
            rows.append([str(n), _fmt(a), _fmt(r), _neglog(r)])
    return rows


def cmd_shift_study(args):
    _check_max_n(args.max_n)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "fig2.csv"), _SHIFT_HEADER,
               _shift_study_rows(_prepare(args.alpha), args.max_n))
    return 0


def _split_sweep_rows(rates, k):
    """rho, norm bound and angle bound across all two-way splits of `rates`."""
    rows = []
    for ell in range(0, rates.P.n - 1):
        part = models.split1d(rates.P.n, ell)
        rho = rates.rho_J(part)
        nb = rates.norm_bound(part)
        ab = rates.angle(part, k)[1]
        rows.append([str(ell), _fmt(rho), _neglog(rho), _fmt(nb), _neglog(nb),
                     _fmt(ab), _neglog(ab)])
    return rows


def cmd_refine_study(args):
    """Nested uniform partitions on the 1D chain: rate against n."""
    rates = _prepare([0.0])[0.0]
    ns = (1, 2, 4, 8, 16, 32)
    rhos = rates.nested_rates([models.uniform1d(rates.P.n, n, 0) for n in ns])
    rows = [[str(n), _fmt(rho), _neglog(rho)] for n, rho in zip(ns, rhos)]
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "refine.csv"), "n,rho,neglog10", rows)
    return 0


def _table4_rows(k_list):
    """Table 4 (header, rows): rate and bounds of one prepared 2D chain."""
    N = models.benchmark_chain_2d_spec().N
    rates = diagnostics.ChainRates(*models.build_model({"model": "chain2d"})[:2])
    reports = [rates.report(models.stripes2d(N, 3), k_list),
               rates.report(models.grid2d(N, 6), k_list)]
    rows = [[q] + [_fmt(getattr(r, q)) for r in reports]
            for q in ("rho_J", "norm_bound")]
    for k in k_list:
        rows += [[f"{q}_k{k}"] + [_fmt(r.angle_bounds[k][i]) for r in reports]
                 for i, q in enumerate(("sin2theta", "angle_bound"))]
    return "quantity,stripes2d:s=3,grid2d:s=6", rows


def cmd_tables(args):
    if len(args.alpha) != 3:
        raise ValueError(f"--alpha: tables needs three values, one for each "
                         f"of figures 3-5, got {len(args.alpha)}")
    _check_max_n(args.max_n)
    _check_k_list(args.k_list, models.benchmark_chain_1d_spec().N)
    os.makedirs(args.out, exist_ok=True)
    # one prepared chain per alpha, and alpha = 0 for table 1
    chains = _prepare({0.0, *args.alpha})

    # table1: leading sqrt eigenvalues of the 1D metastable chain
    _write_sqrt_lambdas(os.path.join(args.out, "table1.csv"),
                        chains[0.0].pairs(5).lambdas, range(2, 6))

    # table3: power-method rate of the shift mixtures
    rhos = [(a, chains[a].rho_hatP()) for a in args.alpha]
    _write_csv(os.path.join(args.out, "table3.csv"), "alpha,rho_hatP,neglog10",
               [[_fmt(a), _fmt(r), _neglog(r)] for a, r in rhos])

    _write_csv(os.path.join(args.out, "table4.csv"), *_table4_rows(args.k_list))

    # fig2: worst-case rate over stratum shifts
    _write_csv(os.path.join(args.out, "fig2.csv"), _SHIFT_HEADER,
               _shift_study_rows({a: chains[a] for a in args.alpha}, args.max_n))

    # fig3/4/5: two-way split sweeps for each mixing weight
    k = args.k_list[0]
    for fig, a in zip(("fig3", "fig4", "fig5"), args.alpha):
        _write_csv(os.path.join(args.out, f"{fig}.csv"),
                   _SPLIT_HEADER, _split_sweep_rows(chains[a], k))
    return 0


def _alpha_list(text):
    try:
        # + 0.0 turns -0 into 0, which then prints without its sign
        alphas = [float(s) + 0.0 for s in text.split(",") if s]
    except ValueError:
        alphas = []
    if (not alphas or len(set(alphas)) < len(alphas)
            or not all(0.0 <= a <= 1.0 for a in alphas)):
        raise argparse.ArgumentTypeError(
            f"need a nonempty list of distinct alphas in [0, 1], got {text!r}")
    return alphas


def _k_list(text):
    ks = [int(s) for s in text.split(",") if s]
    if not ks or min(ks) < 2:
        raise argparse.ArgumentTypeError(f"need a nonempty list of k >= 2, got {text!r}")
    return ks


def _max_n(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"need max-n >= 1, got {n}")
    return n


_FLAGS = {
    "model": dict(help="key=value model config file"),
    "partition": dict(help="partition file or inline kind:key=val spec"),
    "tau": dict(type=float, default=1e-9),
    "max-outer": dict(type=int, default=10000),
    "k-list": dict(type=_k_list, default=[2, 3]),
    "alpha": dict(type=_alpha_list, default=[0.0, 0.05, 0.15]),
    "max-n": dict(type=_max_n, default=20),
    "out": dict(default="."),
}


def make_parser():
    parser = argparse.ArgumentParser(
        prog="iadrate",
        description="Aggregation/disaggregation steady-state solver and "
                    "convergence-rate diagnostics for Markov chains.")
    sub = parser.add_subparsers(dest="command", required=True)
    # each command takes only the flags it reads
    for name, fn, flags in (
            ("solve", cmd_solve, ("model", "partition", "tau", "max-outer", "out")),
            ("spectrum", cmd_spectrum, ("model", "max-n", "out")),
            ("report", cmd_report, ("model", "partition", "k-list", "out")),
            ("shift-study", cmd_shift_study, ("alpha", "max-n", "out")),
            ("refine-study", cmd_refine_study, ("out",)),
            ("tables", cmd_tables, ("alpha", "k-list", "max-n", "out"))):
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument("--" + flag, **_FLAGS[flag])
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (IadError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
