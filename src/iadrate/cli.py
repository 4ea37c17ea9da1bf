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

from . import chain, coarse, diagnostics, iad, models
from .errors import IadError, NonConvergenceError


def _fmt(x):
    return f"{x:.6f}"


def _neglog(x):
    return f"{-np.log10(max(1.0 - x, 1e-300)):.2f}"


def _load_model(args):
    """(config, P, mu or None, partition or None) from --model and, on the
    commands that take it, --partition: a partition file, or an inline
    spec that replaces the config's partition keys."""
    cfg = models.load_config(args.model) if args.model else {}
    text = vars(args).get("partition")
    from_file = text is not None and os.path.exists(text)
    if text is not None and not from_file:
        cfg = models.with_partition(cfg, text)
    P, mu, part = models.build_model(cfg)
    if from_file:
        part = coarse.load_partition(text)
    if part is None and "partition" in vars(args):
        raise ValueError("no partition given (use --partition or the config)")
    return cfg, P, mu, part


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


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
    mu_ref = est.probs
    rows = []
    for k in range(len(trace.rel_changes)):
        it = trace.iterates[k + 1].probs
        err = np.sqrt(np.sum((it - mu_ref) ** 2 / mu_ref))
        rows.append([str(k + 1), f"{trace.rel_changes[k]:.9e}",
                     f"{trace.residuals[k]:.9e}", f"{err:.9e}"])
    _write_csv(os.path.join(args.out, "trace.csv"),
               "iter,rel_change,residual,err_invmu", rows)
    return code


def cmd_spectrum(args):
    _, P, mu, _ = _load_model(args)
    if mu is None:
        mu = chain.steady_state(P)
    sd = chain.pstar_p_spectrum(P, mu, min(P.n, args.max_n))
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for k in range(min(P.n, args.max_n)):
        s = np.sqrt(sd.lambdas[k])
        rows.append([str(k + 1), _fmt(s), _neglog(s)])
    _write_csv(os.path.join(args.out, "spectrum.csv"),
               "k,sqrt_lambda,neglog10", rows)
    return 0


def cmd_report(args):
    _, P, mu, part = _load_model(args)
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


def _rho_for(P, mu, part):
    return diagnostics.rho_J_direct(diagnostics.error_operator(P, mu, part))


def _check_max_n(max_n):
    N = models.benchmark_chain_1d_spec().N
    if max_n > N:
        raise ValueError(f"--max-n: the 1D chain has {N} states, got {max_n}")


def _shift_study_rows(alphas, max_n):
    """max over ell of rho(J) for uniform n-strata partitions, per (n, alpha)."""
    alphas = sorted(alphas)
    per_alpha = [(a, *models.shift_mixture_1d(a)) for a in alphas]
    rows = []
    for n in range(1, max_n + 1):
        for a, P, mu in per_alpha:
            parts = {}
            for ell in range(0, P.n // n + 1):
                part = models.uniform1d(P.n, n, ell)
                parts.setdefault(part.assignment.tobytes(), part)
            r = max(_rho_for(P, mu, part) for part in parts.values())
            rows.append([str(n), _fmt(a), _fmt(r), _neglog(r)])
    return rows


def cmd_shift_study(args):
    _check_max_n(args.max_n)
    os.makedirs(args.out, exist_ok=True)
    rows = _shift_study_rows(args.alpha, args.max_n)
    _write_csv(os.path.join(args.out, "fig2.csv"),
               "n,alpha,max_rho,neglog10", rows)
    return 0


def _split_sweep_rows(alpha, k):
    """rho, norm bound and angle bound across all two-way splits."""
    P, mu = models.shift_mixture_1d(alpha)
    N = P.n
    rev = chain.is_reversible(P, mu)
    sd = chain.pstar_p_spectrum(P, mu, k + 1)
    rows = []
    for ell in range(0, N - 1):
        part = models.split1d(N, ell)
        rho = _rho_for(P, mu, part)
        nb = diagnostics.norm_bound(P, mu, part)
        s = diagnostics.sin_theta(P, mu, part, k, sd=sd)
        ab = diagnostics.angle_bound(sd.lambdas, s * s, k, rev)
        rows.append([str(ell), _fmt(rho), _neglog(rho), _fmt(nb), _neglog(nb),
                     _fmt(ab), _neglog(ab)])
    return rows


_SPLIT_HEADER = ("ell,rho,rho_neglog10,norm_bound,norm_bound_neglog10,"
                 "angle_bound,angle_bound_neglog10")


def cmd_refine_study(args):
    """Nested uniform partitions on the 1D chain: rate against n."""
    P, mu = models.shift_mixture_1d(0.0)
    rows = []
    prev = None
    for n in (1, 2, 4, 8, 16, 32):
        part = models.uniform1d(P.n, n, 0)
        if prev is None:
            rho = _rho_for(P, mu, part)
        else:
            _, rho = diagnostics.refinement_compare(P, prev, part, mu=mu)
        rows.append([str(n), _fmt(rho), _neglog(rho)])
        prev = part
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "refine.csv"), "n,rho,neglog10", rows)
    return 0


def cmd_tables(args):
    if len(args.alpha) != 3:
        raise ValueError(f"--alpha: tables needs three values, one for each "
                         f"of figures 3-5, got {len(args.alpha)}")
    _check_max_n(args.max_n)
    os.makedirs(args.out, exist_ok=True)

    # table1: leading sqrt eigenvalues of the 1D metastable chain
    P1, mu1 = models.shift_mixture_1d(0.0)
    sd1 = chain.pstar_p_spectrum(P1, mu1, 5)
    rows = []
    for k in range(1, 5):
        s = float(np.sqrt(sd1.lambdas[k]))
        rows.append([str(k + 1), _fmt(s), _neglog(s)])
    _write_csv(os.path.join(args.out, "table1.csv"),
               "k,sqrt_lambda,neglog10", rows)

    # table3: power-method rate of the shift mixtures
    rows = []
    for a in args.alpha:
        Pa, mua = models.shift_mixture_1d(a)
        rho = diagnostics.rho_hatP(Pa, mua)
        rows.append([_fmt(a), _fmt(rho), _neglog(rho)])
    _write_csv(os.path.join(args.out, "table3.csv"),
               "alpha,rho_hatP,neglog10", rows)

    # table4: rate and bounds for the 2D chain under two aggregations
    parts = ("stripes2d:s=3", "grid2d:s=6")
    reports = []
    for text in parts:
        P2, mu2, part = models.build_model(
            models.with_partition({"model": "chain2d"}, text))
        reports.append(
            diagnostics.full_report(P2, part, k_list=args.k_list, mu=mu2))
    rows = [
        ["rho_J"] + [_fmt(r.rho_J) for r in reports],
        ["norm_bound"] + [_fmt(r.norm_bound) for r in reports],
    ]
    for k in args.k_list:
        rows.append([f"sin2theta_k{k}"]
                    + [_fmt(r.angle_bounds[k][0]) for r in reports])
        rows.append([f"angle_bound_k{k}"]
                    + [_fmt(r.angle_bounds[k][1]) for r in reports])
    _write_csv(os.path.join(args.out, "table4.csv"),
               ",".join(("quantity",) + parts), rows)

    # fig2: worst-case rate over stratum shifts
    _write_csv(os.path.join(args.out, "fig2.csv"),
               "n,alpha,max_rho,neglog10",
               _shift_study_rows(args.alpha, args.max_n))

    # fig3/4/5: two-way split sweeps for each mixing weight
    k = args.k_list[0]
    for fig, a in zip(("fig3", "fig4", "fig5"), args.alpha):
        _write_csv(os.path.join(args.out, f"{fig}.csv"),
                   _SPLIT_HEADER, _split_sweep_rows(a, k))
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
