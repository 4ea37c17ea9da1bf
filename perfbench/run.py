"""iadrate benchmark: one workload per process.

    python3 perfbench/run.py --workload solve-1d --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; the package is imported from that
checkout's `src/`. With `--trace 0` it times the workload with tracing
off and reports the end-to-end metrics. With `--trace 1` it times one
repetition untraced and one traced, reports the per-layer metrics, and
writes the spans as JSON under `perfbench/out/`. Either way it prints
the run's environment, every metric by name and unit, and as its last
line one JSON object with the result. It exits 1 when an operation
raised or missed its check, and 2 when it cannot run at all.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# the keys of workloads.WORKLOADS, which cannot be imported before the
# thread settings are made
WORKLOADS = ("solve-1d", "solve-2d", "report-2d", "sweep-1d")
# set-ups timed in child processes, besides the workload's own
SETUP_PROBES = 4
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def thread_budget(workload, nproc):
    """(BLAS threads, Python workers) within nproc: the sweep runs nproc
    workers on single-threaded BLAS, the rest one thread on nproc-thread
    BLAS."""
    return (1, nproc) if workload == "sweep-1d" else (nproc, 1)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measure repetitions for about this long (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time the set-up and print the seconds")
    return p.parse_args(argv)


def blas_threads_in_use():
    """{library: threads} as reported by each loaded OpenBLAS."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                out[Path(path).name] = getattr(lib, sym)()
                break
    return out


def environment(args, nproc, blas_threads, workers):
    import numpy
    import scipy
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), platform.processor())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": nproc, "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": blas_threads, "blas_threads_in_use": blas_threads_in_use(),
        "workers": workers,
    }


def set_up(args, workers):
    """Import the package and build the workload; returns (workload, s).
    The imports are here because numpy must load after the thread
    settings are in the environment."""
    t0 = time.perf_counter()
    import iadrate
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, workers, OUT)
    elapsed = time.perf_counter() - t0
    if Path(iadrate.__file__).resolve().parent != SRC / "iadrate":
        raise RuntimeError(f"iadrate imported from {iadrate.__file__}, not {SRC}")
    return wl, elapsed


def probe_setup(args):
    """Set-up seconds measured in a fresh interpreter."""
    res = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def run_untraced(args, wl, own_setup):
    setups = [own_setup] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    walls, outcomes = [], []
    start = time.perf_counter()
    while True:
        out, wall = timed(wl.run)
        walls.append(wall)
        outcomes.append(wl.check(out))
        used = time.perf_counter() - start
        if used + statistics.median(walls) > args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    values = {"wall_s": statistics.median(walls),
              "setup_s": statistics.median(setups), "peak_rss_mb": rss_mb}
    print(f"repetitions: {len(walls)}; wall_s samples: {walls}; "
          f"setup_s samples: {setups}")
    return values, outcomes


def run_traced(args, wl, workers, env):
    """Untraced then traced repetition; spans of the traced set-up and
    repetition go to perfbench/out/."""
    import workloads
    tracer = spans.Tracer()
    tracer.install("iadrate", metrics.LAYERS)
    wl.build()
    setup_spans = tracer.take()
    tracer.uninstall()

    out0, untraced = timed(wl.run)
    outcomes = [wl.check(out0)]

    tracer.install("iadrate", metrics.LAYERS)
    wl.span = tracer.span
    try:
        out1, traced = timed(wl.run)
    finally:
        tracer.uninstall()
    rep_spans = tracer.take()
    outcomes.append(wl.check(out1))

    values = dict(outcomes[-1].values)
    values["models.P_bytes"] = workloads.stored_bytes(wl.P)
    values = metrics.per_layer(
        setup_spans, rep_spans, traced, untraced, workers,
        sum(o.attempted for o in outcomes), sum(o.failed for o in outcomes),
        values)
    walls = {"untraced_wall_s": untraced, "traced_wall_s": traced}
    print(f"walls: {walls}")
    path = write_spans(args, env, values, walls, setup_spans, rep_spans)
    print(f"spans written to {path}")
    return values, outcomes


def write_spans(args, env, values, walls, setup_spans, rep_spans):
    t0 = min((s.start for s in setup_spans + rep_spans), default=0.0)
    threads = {}

    def rows(ss):
        return [[s.id, s.name, threads.setdefault(s.thread, len(threads)),
                 s.start - t0, s.end - t0, s.parent] for s in ss]

    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({
            "environment": env, "metrics": values, **walls,
            "layer_map": {n: {"unit": u, "better": b, "moves": m}
                          for n, u, b, m in metrics.PER_LAYER},
            "span_fields": ["id", "name", "thread", "start_s", "end_s", "parent"],
            "setup_spans": rows(setup_spans), "rep_spans": rows(rep_spans),
        }, fh)
    return path


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "iadrate" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    blas_threads, workers = thread_budget(args.workload, nproc)
    for var in BLAS_ENV:
        os.environ[var] = str(blas_threads)
    os.environ["IAD_THREADS"] = str(workers)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    wl, own_setup = set_up(args, workers)
    if args.setup_probe:
        print(repr(own_setup))
        return 0
    env = environment(args, nproc, blas_threads, workers)
    print("environment: " + json.dumps(env))

    if args.trace:
        values, outcomes = run_traced(args, wl, workers, env)
        names = [n for n, _, _, _ in metrics.PER_LAYER]
    else:
        values, outcomes = run_untraced(args, wl, own_setup)
        names = [n for n, _, _, _ in metrics.END_TO_END]

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for o in outcomes:
        for problem in o.problems:
            print(f"FAILED: {problem}")
    for name in names:
        print(f"{name} = {values[name]!r} {metrics.UNITS[name]}")
    print(f"attempted {attempted}, failed {failed}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": values[n], "unit": metrics.UNITS[n]}
                          for n in names}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
