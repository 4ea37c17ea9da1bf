"""Command-line front end.

Builds the example chains, runs the aggregation/disaggregation solver,
and regenerates the reference tables and figure curves as CSV. All
numeric output is deterministic: floats are printed with 6 decimals and
the -log10(1 - x) digit counts with 2, and sweeps are sorted before
writing, so reruns are byte-identical.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import chain, coarse, diagnostics, iad, models
from .errors import IadError, NonConvergenceError


def _workers():
    env = os.environ.get("IAD_THREADS", "")
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def _fmt(x):
    return f"{x:.6f}"


def _neglog(x):
    return f"{-np.log10(max(1.0 - x, 1e-300)):.2f}"


def _load_model(args):
    cfg = models.load_config(args.model) if args.model else {}
    return models.build_model(cfg)


def _parse_partition(text, N):
    """Partition from a file path or an inline `kind:key=val,...` spec."""
    if os.path.exists(text):
        return coarse.load_partition(text)
    if ":" in text:
        kind, rest = text.split(":", 1)
        params = {}
        for piece in rest.split(","):
            if piece:
                key, val = piece.split("=", 1)
                params[key.strip()] = int(val)
    else:
        kind, params = text, {}
    params.setdefault("N", N)
    return models.partition_families(kind, **params)


def _resolve_partition(args, P, part_from_cfg):
    if args.partition:
        N = P.n if "2d" not in args.partition else int(round(np.sqrt(P.n)))
        return _parse_partition(args.partition, N)
    if part_from_cfg is not None:
        return part_from_cfg
    raise ValueError("no partition given (use --partition or the config)")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def cmd_solve(args):
    cfg = models.load_config(args.model) if args.model else {}
    P, _, cfg_part = models.build_model(cfg)
    part = _resolve_partition(args, P, cfg_part)
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
    P, mu, _ = _load_model(args)
    if mu is None:
        mu = chain.steady_state(P)
    sd = chain.pstar_p_spectrum(P, mu, min(P.n, args.max_n))
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for k in range(min(P.n, args.max_n)):
        s = np.sqrt(max(sd.lambdas[k], 0.0))
        rows.append([str(k + 1), _fmt(s), _neglog(s)])
    _write_csv(os.path.join(args.out, "spectrum.csv"),
               "k,sqrt_lambda,neglog10", rows)
    return 0


def cmd_report(args):
    P, mu, cfg_part = _load_model(args)
    part = _resolve_partition(args, P, cfg_part)
    rep = diagnostics.full_report(P, part, k_list=args.k_list, mu=mu)
    os.makedirs(args.out, exist_ok=True)
    payload = {
        "rho_J": rep.rho_J,
        "rho_exact_formula": rep.rho_exact_formula,
        "norm_bound": rep.norm_bound,
        "sqrt_lambda2": rep.sqrt_lambda2,
        "rho_hatP": rep.rho_hatP,
        "reversible": rep.reversible,
    }
    for k, (s2, bound) in sorted(rep.angle_bounds.items()):
        payload[f"sin2theta_k{k}"] = s2
        payload[f"angle_bound_k{k}"] = bound
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _chain_1d_family():
    spec = models.benchmark_chain_1d_spec()
    mu = models.boltzmann_1d(spec)
    P = models.reversible_chain_1d(mu)
    return P, mu


def _rho_for(P, mu, part):
    return diagnostics.rho_J_direct(diagnostics.error_operator(P, mu, part))


def _shift_study_rows(alphas, max_n):
    """max over ell of rho(J) for uniform n-strata partitions, per (n, alpha)."""
    P0, mu0 = _chain_1d_family()
    N = P0.n
    per_alpha = {}
    for a in alphas:
        if a == 0.0:
            per_alpha[a] = (P0, mu0)
        else:
            Pa = models.mix(P0, models.left_shift(N), a)
            per_alpha[a] = (Pa, chain.steady_state(Pa))
    jobs = []
    for n in range(1, max_n + 1):
        for a in alphas:
            jobs.append((n, a))

    def run(job):
        n, a = job
        P, mu = per_alpha[a]
        worst = 0.0
        for ell in range(0, N // n + 1):
            part = models.uniform1d(N, n, ell)
            worst = max(worst, _rho_for(P, mu, part))
        return n, a, worst

    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        results = sorted(pool.map(run, jobs))
    return [[str(n), _fmt(a), _fmt(r), _neglog(r)] for n, a, r in results]


def cmd_shift_study(args):
    os.makedirs(args.out, exist_ok=True)
    rows = _shift_study_rows(args.alpha, args.max_n)
    _write_csv(os.path.join(args.out, "fig2.csv"),
               "n,alpha,max_rho,neglog10", rows)
    return 0


def _split_sweep_rows(alpha, k):
    """rho, norm bound and angle bound across all two-way splits."""
    P0, mu0 = _chain_1d_family()
    N = P0.n
    if alpha == 0.0:
        P, mu = P0, mu0
    else:
        P = models.mix(P0, models.left_shift(N), alpha)
        mu = chain.steady_state(P)
    rev = chain.is_reversible(P, mu)
    sd = chain.pstar_p_spectrum(P, mu, k + 1)

    def run(ell):
        part = models.split1d(N, ell)
        rho = _rho_for(P, mu, part)
        nb = diagnostics.norm_bound(P, mu, part)
        s = diagnostics.sin_theta(P, mu, part, k, sd=sd)
        ab = diagnostics.angle_bound(sd.lambdas, s * s, k, rev)
        return ell, rho, nb, ab

    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        results = sorted(pool.map(run, range(0, N - 1)))
    return [[str(ell), _fmt(r), _neglog(r), _fmt(nb), _neglog(nb),
             _fmt(ab), _neglog(ab)] for ell, r, nb, ab in results]


_SPLIT_HEADER = ("ell,rho,rho_neglog10,norm_bound,norm_bound_neglog10,"
                 "angle_bound,angle_bound_neglog10")


def cmd_refine_study(args):
    """Nested uniform partitions on the 1D chain: rate against n."""
    P, mu = _chain_1d_family()
    N = P.n
    rows = []
    prev = None
    for n in (1, 2, 4, 8, 16, 32):
        part = models.uniform1d(N, n, 0)
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
    os.makedirs(args.out, exist_ok=True)

    # table1: leading sqrt eigenvalues of the 1D metastable chain
    P1, mu1 = _chain_1d_family()
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
        if a == 0.0:
            Pa, mua = P1, mu1
        else:
            Pa = models.mix(P1, models.left_shift(P1.n), a)
            mua = chain.steady_state(Pa)
        rho = diagnostics.rho_hatP(Pa, mua)
        rows.append([_fmt(a), _fmt(rho), _neglog(rho)])
    _write_csv(os.path.join(args.out, "table3.csv"),
               "alpha,rho_hatP,neglog10", rows)

    # table4: rate and bounds for the 2D chain under two aggregations
    spec2 = models.benchmark_chain_2d_spec()
    mu2 = models.boltzmann_2d(spec2)
    P2 = models.reversible_chain_2d(mu2, spec2)
    reports = [
        diagnostics.full_report(P2, part, k_list=args.k_list, mu=mu2)
        for part in (models.stripes2d(spec2.N, 3), models.grid2d(spec2.N, 6))
    ]
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
               "quantity,stripes2d:s=3,grid2d:s=6", rows)

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


def _float_list(text):
    return [float(s) for s in text.split(",") if s]


def _int_list(text):
    return [int(s) for s in text.split(",") if s]


def make_parser():
    parser = argparse.ArgumentParser(
        prog="iadrate",
        description="Aggregation/disaggregation steady-state solver and "
                    "convergence-rate diagnostics for Markov chains.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", default=None,
                        help="key=value model config file")
    common.add_argument("--partition", default=None,
                        help="partition file or inline kind:key=val spec")
    common.add_argument("--tau", type=float, default=1e-9)
    common.add_argument("--out", default=".")
    common.add_argument("--k-list", dest="k_list", type=_int_list,
                        default=[2, 3])
    common.add_argument("--alpha", type=_float_list,
                        default=[0.0, 0.05, 0.15])
    common.add_argument("--max-n", dest="max_n", type=int, default=20)
    common.add_argument("--max-outer", dest="max_outer", type=int,
                        default=10000)
    for name, fn in (("solve", cmd_solve), ("spectrum", cmd_spectrum),
                     ("report", cmd_report), ("shift-study", cmd_shift_study),
                     ("refine-study", cmd_refine_study),
                     ("tables", cmd_tables)):
        p = sub.add_parser(name, parents=[common])
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
