"""Metric names, units and the layer-to-metric map, and the per-layer
metrics computed from the spans of a traced run.

Each per-layer entry names the end-to-end metric and the workloads it
should move; `BENCHMARK.json` lists the same names. Standard library
only.
"""

import statistics

import spans as sp

LAYERS = ("models", "chain", "coarse", "iad", "diagnostics", "linalg")

END_TO_END = [
    ("wall_s", "s", "lower",
     "wall time of the timed work in one repetition, median over a run"),
    ("setup_s", "s", "lower",
     "import iadrate and build the chains, mu and partitions; median of "
     "five set-ups"),
    ("peak_rss_mb", "MB", "lower", "peak resident memory of the workload process"),
]

PER_LAYER = []


def _metric(name, unit, better, moves):
    PER_LAYER.append((name, unit, better, moves))


def _timed(fn, moves, calls=False):
    _metric(f"{fn}_s", "s", "lower", moves)
    _metric(f"{fn}_self_s", "s", "lower", moves)
    if calls:
        _metric(f"{fn}_calls", "count", "lower", moves)


_metric("models.build_s", "s", "lower", "setup_s on all workloads")
_metric("models.build_self_s", "s", "lower", "setup_s on all workloads")
_metric("models.P_bytes", "bytes", "lower", "peak_rss_mb on report-2d and solve-2d")

_SOLVE1D_SWEEP = "wall_s on solve-1d (coarse solve) and sweep-1d"
_timed("chain.steady_state", _SOLVE1D_SWEEP, calls=True)
_timed("chain.is_irreducible", _SOLVE1D_SWEEP, calls=True)
_timed("chain.pstar_p_spectrum", "wall_s on report-2d")
_timed("chain.is_reversible", "wall_s on report-2d")

_timed("coarse.coarse_matrix", "wall_s on solve-2d (near zero on solve-1d)", calls=True)
_timed("coarse.disaggregate", "wall_s on solve-2d (near zero on solve-1d)")
_timed("coarse.coarse_projection", "wall_s on sweep-1d and report-2d", calls=True)
_timed("coarse.orthogonal_projection", "wall_s on sweep-1d and report-2d")

_metric("iad.outer_steps", "count", "lower", "wall_s on solve-1d and solve-2d")
_metric("iad.step_ms_p50", "ms", "lower", "wall_s on solve-1d and solve-2d")
_metric("iad.step_ms_p99", "ms", "lower", "wall_s on solve-1d and solve-2d")
_timed("iad.coarse_solve", "wall_s on solve-1d")
_metric("iad.coarse_solve_share", "ratio", "lower", "wall_s on solve-1d")
_metric("iad.trace_bytes", "bytes", "lower", "peak_rss_mb on solve-2d")
_metric("iad.max_rel_err", "ratio", "lower", "fail_frac on solve-1d and solve-2d")
_metric("iad.rate_gap", "ratio", "lower", "fail_frac on solve-1d and solve-2d")

_DIAG = "wall_s on report-2d and sweep-1d"
_timed("diagnostics.error_operator", _DIAG)
_timed("diagnostics.rho_J_direct", _DIAG)
_timed("diagnostics.rho_J_exact_formula", _DIAG)
_timed("diagnostics.norm_bound", _DIAG)
_timed("diagnostics.sin_theta", _DIAG)
_metric("diagnostics.eval_ms_p50", "ms", "lower", "wall_s on sweep-1d")
_metric("diagnostics.eval_ms_p99", "ms", "lower", "wall_s on sweep-1d")

_LINALG = "wall_s on report-2d (N=2500) and sweep-1d (N=100)"
_timed("linalg.general_eigenvalues", _LINALG, calls=True)
_timed("linalg.lu_solve", _LINALG, calls=True)
_timed("linalg.sym_eigs", "wall_s on report-2d")
_timed("linalg.spectral_radius_symmetric_psd", "wall_s on report-2d")

for _layer in LAYERS:
    _metric(f"{_layer}.self_s", "s", "lower",
            "wall_s on the workloads that use the layer; iad.self_s on "
            "solve-2d covers the smoothing matvec, stopping test and trace")

_metric("sweep.pool_busy_frac", "ratio", "higher", "wall_s on sweep-1d")
_metric("trace.overhead_frac", "ratio", "lower", "none; traced over untraced wall_s, minus one")
_metric("trace.outside_share", "ratio", "lower",
        "none; share of the traced wall_s outside every wrapped layer")
_metric("trace.spans", "count", "lower", "none; spans recorded in the traced repetition")
_metric("fail_frac", "ratio", "lower", "failed operations over operations attempted")

UNITS = {name: unit for name, unit, _, _ in END_TO_END + PER_LAYER}

COARSE_SOLVES = {"iad.coarse_steady_state", "chain.steady_state"}


def per_layer(setup_spans, rep_spans, traced_wall, untraced_wall, workers,
              attempted, failed, values):
    """Every per-layer metric from the spans of one traced set-up and one
    traced repetition. `values` holds what the checks computed (such as
    `iad.outer_steps`); a metric whose layer did no work reads 0."""
    out = {name: 0.0 for name, _, _, _ in PER_LAYER}
    out.update(values)

    out["models.build_s"] = sp.covered_length(setup_spans, layers={"models"})
    out["models.build_self_s"] = sp.layer_self_times(setup_spans, ["models"])["models"]

    for name, (total, self_s, calls) in sp.function_stats(rep_spans).items():
        for key, val in ((f"{name}_s", total), (f"{name}_self_s", self_s),
                         (f"{name}_calls", calls)):
            if key in out:
                out[key] = val
    for layer, self_s in sp.layer_self_times(rep_spans, LAYERS).items():
        out[f"{layer}.self_s"] = self_s

    steps = [s.duration * 1e3 for s in rep_spans if s.name == "iad.iad_step"]
    if steps:
        out["iad.step_ms_p50"] = statistics.median(steps)
        out["iad.step_ms_p99"] = sp.percentile(steps, 99) or 0.0

    # The coarse solve is the outermost steady-state solve inside a solve,
    # whichever function a later version routes it through.
    by_id = {s.id: s for s in rep_spans}
    in_solve = [s for s in rep_spans if s.name in COARSE_SOLVES
                and sp.has_ancestor(s, by_id, lambda a: a.name == "iad.iad_solve")]
    solve_total = sum(s.duration for s in rep_spans if s.name == "iad.iad_solve")
    if in_solve and solve_total > 0:
        selfs = sp.self_times(rep_spans)
        out["iad.coarse_solve_s"] = sp.covered_length(in_solve, names=COARSE_SOLVES)
        out["iad.coarse_solve_self_s"] = sum(selfs[s.id] for s in in_solve)
        out["iad.coarse_solve_share"] = out["iad.coarse_solve_s"] / solve_total

    evals = [s.duration for s in rep_spans if s.name == "sweep.eval"]
    evals += sp.paired_durations(rep_spans, "diagnostics.error_operator",
                                 "diagnostics.rho_J_direct")
    if evals:
        ms = [e * 1e3 for e in evals]
        out["diagnostics.eval_ms_p50"] = statistics.median(ms)
        out["diagnostics.eval_ms_p99"] = sp.percentile(ms, 99) or 0.0
        out["sweep.pool_busy_frac"] = sum(evals) / (traced_wall * workers)

    out["trace.overhead_frac"] = sp.overhead_frac(traced_wall, untraced_wall)
    out["trace.outside_share"] = 1.0 - sp.covered_length(rep_spans, layers=LAYERS) / traced_wall
    out["trace.spans"] = len(rep_spans)
    out["fail_frac"] = sp.fail_frac(attempted, failed)
    return out
