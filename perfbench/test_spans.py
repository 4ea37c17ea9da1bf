"""The benchmark's own arithmetic, on hand-built span lists.

    python3 -m pytest perfbench
"""

import json
import sys
import types
from pathlib import Path

import pytest

import metrics
import spans as sp
from spans import Span


def S(id, name, start, end, parent=None, thread=1):
    return Span(id, name, thread, start, end, parent)


def test_union_length_merges_overlaps_and_gaps():
    assert sp.union_length([]) == 0.0
    assert sp.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]) == 4.0


def test_self_time_subtracts_the_covered_part_of_children():
    spans = [
        S(0, "a.f", 0.0, 10.0),
        S(1, "b.g", 1.0, 3.0, parent=0),
        S(2, "b.g", 2.0, 5.0, parent=0),   # overlaps its sibling
        S(3, "b.h", 8.0, 12.0, parent=0),  # runs past its parent's end
        S(4, "c.k", 1.5, 2.5, parent=1),
    ]
    selfs = sp.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)
    assert sp.layer_self_times(spans, ["a", "b", "c"]) == pytest.approx(
        {"a": 4.0, "b": 1.0 + 3.0 + 4.0, "c": 1.0})


def test_function_stats_counts_a_recursive_call_once_in_total():
    spans = [S(0, "a.f", 0.0, 10.0), S(1, "a.f", 2.0, 4.0, parent=0),
             S(2, "a.g", 5.0, 6.0, parent=0)]
    stats = sp.function_stats(spans)
    assert stats["a.f"] == pytest.approx((10.0, 9.0, 2))
    assert stats["a.g"] == pytest.approx((1.0, 1.0, 1))


def test_covered_length_merges_threads():
    spans = [S(0, "a.f", 0.0, 4.0, thread=1), S(1, "a.g", 2.0, 6.0, thread=2),
             S(2, "b.f", 10.0, 11.0, thread=1)]
    assert sp.covered_length(spans, layers={"a"}) == 6.0
    assert sp.covered_length(spans, names={"b.f", "a.f"}) == 5.0


def test_percentile_needs_ten_samples_beyond_it():
    assert sp.percentile(list(range(1, 1001)), 99) == 990   # 10 beyond
    assert sp.percentile(list(range(1, 1000)), 99) is None  # 9 beyond
    assert sp.percentile(list(range(110, 0, -1)), 90) == 99
    assert sp.percentile([], 50) is None


def test_fail_frac_counts_failed_over_attempted():
    assert sp.fail_frac(357, 0) == 0.0
    assert sp.fail_frac(4, 1) == 0.25
    with pytest.raises(ValueError):
        sp.fail_frac(0, 0)
    with pytest.raises(ValueError):
        sp.fail_frac(2, 3)


def test_overhead_frac_is_traced_over_untraced_minus_one():
    assert sp.overhead_frac(11.0, 10.0) == pytest.approx(0.1)
    assert sp.overhead_frac(9.0, 10.0) == pytest.approx(-0.1)
    with pytest.raises(ValueError):
        sp.overhead_frac(1.0, 0.0)


def test_paired_durations_pair_root_calls_per_thread():
    spans = [
        S(0, "d.eo", 0.0, 1.0, thread=1), S(1, "d.rho", 1.0, 3.0, thread=1),
        S(2, "d.eo", 0.5, 2.0, thread=2), S(3, "d.rho", 2.5, 4.0, thread=2),
        S(4, "x.eval", 5.0, 9.0, thread=1),
        S(5, "d.eo", 5.0, 6.0, parent=4, thread=1),  # not a root: ignored
        S(6, "d.rho", 6.0, 7.0, parent=4, thread=1),
    ]
    assert sorted(sp.paired_durations(spans, "d.eo", "d.rho")) == [3.0, 3.5]


def test_tracer_wraps_names_imported_elsewhere_and_restores_them(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    exec("def g(x):\n    return x + 1\n"
         "def f(x):\n    return g(x) * 2\n"
         "def _private(x):\n    return x\n", a.__dict__)
    b.f = a.f  # imported by name
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    original = a.f

    tracer = sp.Tracer()
    tracer.install("fakepkg", ["a"])
    assert b.f(1) == 4 and a.f(2) == 6 and a._private(3) == 3
    tracer.uninstall()
    assert a.f is original and b.f is original

    recorded = tracer.take()
    assert [s.name for s in recorded] == ["a.g", "a.f", "a.g", "a.f"]
    by_id = {s.id: s for s in recorded}
    assert all(by_id[s.parent].name == "a.f" for s in recorded if s.name == "a.g")
    assert tracer.take() == []


def _solve_spans():
    """One solve of two steps; each coarse solve goes through
    iad.coarse_steady_state -> chain.steady_state."""
    out = [S(0, "iad.iad_solve", 0.0, 10.0)]
    nid = 1
    for t in (0.0, 5.0):
        step = nid
        out.append(S(step, "iad.iad_step", t + 1.0, t + 5.0, parent=0))
        out.append(S(step + 1, "iad.coarse_steady_state", t + 1.0, t + 4.0, parent=step))
        out.append(S(step + 2, "chain.steady_state", t + 1.5, t + 4.0, parent=step + 1))
        nid += 3
    return out


def test_per_layer_reports_every_metric_and_the_coarse_solve_share():
    rep = _solve_spans()
    setup = [S(100, "models.boltzmann_1d", 0.0, 0.25),
             S(101, "models.split1d", 0.5, 0.75)]
    vals = metrics.per_layer(setup, rep, traced_wall=10.0, untraced_wall=8.0,
                             workers=1, attempted=2, failed=1,
                             values={"iad.outer_steps": 2})
    assert set(vals) == {n for n, _, _, _ in metrics.PER_LAYER}
    assert vals["models.build_s"] == pytest.approx(0.5)
    assert vals["iad.coarse_solve_s"] == pytest.approx(6.0)
    assert vals["iad.coarse_solve_self_s"] == pytest.approx(2 * 0.5 + 2 * 2.5)
    assert vals["iad.coarse_solve_share"] == pytest.approx(0.6)
    assert vals["iad.step_ms_p50"] == pytest.approx(4000.0)
    assert vals["iad.step_ms_p99"] == 0.0  # two samples: no tail
    assert vals["iad.self_s"] == pytest.approx((10 - 8) + 2 * 1.0 + 2 * 0.5)
    assert vals["chain.steady_state_calls"] == 2
    assert vals["trace.overhead_frac"] == pytest.approx(0.25)
    assert vals["trace.outside_share"] == pytest.approx(0.0)
    assert vals["fail_frac"] == 0.5
    assert vals["iad.outer_steps"] == 2


def test_benchmark_json_lists_the_metrics_defined_here():
    bench = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (n, u, b) for n, u, b, _ in metrics.PER_LAYER]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == [
        (n, u, b) for n, u, b, _ in metrics.END_TO_END]
