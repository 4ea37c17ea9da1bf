import csv
import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import iadrate
from conftest import count_calls, count_pair_solves
from iadrate import chain, cli, coarse, diagnostics, linalg, models
from iadrate.cli import main

TABLE4 = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "table4.csv"


def write_cfg(tmp_path, text, name="model.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_1d_split(tmp_path):
    cfg = write_cfg(tmp_path, "model = chain1d\n")
    out = tmp_path / "out"
    code = main(["solve", "--model", cfg, "--partition", "split1d:ell=57",
                 "--out", str(out)])
    assert code == 0
    mu = np.loadtxt(out / "mu.txt")
    assert mu.sum() == pytest.approx(1.0)
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "iter,rel_change,residual"
    assert len(lines) > 10
    assert lines[1].startswith("1,") and len(lines[1].split(",")) == 3


def test_solve_singleton_partition_quick(tmp_path):
    cfg = write_cfg(tmp_path, "model = chain1d\nN = 30\n")
    out = tmp_path / "out"
    code = main(["solve", "--model", cfg, "--partition", "singleton",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) - 1 <= 2


def test_solve_marek_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model = marek\n")
    out = tmp_path / "out"
    code = main(["solve", "--model", cfg, "--max-outer", "300",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: iad_solve: no convergence in 300 outer steps\n"
    assert (out / "trace.csv").exists() and (out / "mu.txt").exists()


def test_bad_config_exit_1(tmp_path):
    cfg = write_cfg(tmp_path, "model = nosuchmodel\n")
    assert main(["solve", "--model", cfg, "--out", str(tmp_path)]) == 1
    cfg2 = write_cfg(tmp_path, "model = chain1d\n", "m2.cfg")
    # missing partition
    assert main(["solve", "--model", cfg2, "--out", str(tmp_path)]) == 1


def test_spectrum_values(tmp_path):
    cfg = write_cfg(tmp_path, "model = chain1d\n")
    code = main(["spectrum", "--model", cfg, "--out", str(tmp_path),
                 "--max-n", "5"])
    assert code == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[2].startswith("2,0.999992,5.09")
    assert lines[3].startswith("3,0.991441,2.07")


def test_report_json(tmp_path):
    cfg = write_cfg(tmp_path, "model = chain1d\npartition = split1d:ell=57\n")
    code = main(["report", "--model", cfg, "--out", str(tmp_path),
                 "--k-list", "2"])
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["reversible"] is True
    assert rep["rho_J"] == pytest.approx(0.99242586, abs=1e-6)
    assert "sin2theta_k2" in rep and "angle_bound_k2" in rep


def _no_nan(token):
    raise ValueError(f"report.json holds the bare token {token}")


def test_report_json_writes_null_for_undefined_bounds(tmp_path, monkeypatch):
    # the angle bounds are NaN when lambda_2 = 1, and the exact formula
    # when its partial spectrum falls short of rho_J; such a report is
    # written with null in their place
    report = diagnostics.full_report

    def undefined(*args, **kwargs):
        rep = report(*args, **kwargs)
        return dataclasses.replace(
            rep, rho_exact_formula=float("nan"),
            angle_bounds={k: (s2, float("nan"))
                          for k, (s2, _) in rep.angle_bounds.items()})

    monkeypatch.setattr(diagnostics, "full_report", undefined)
    cfg = write_cfg(tmp_path, "model = reducible_coarse\n")
    assert main(["report", "--model", cfg, "--k-list", "2",
                 "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "report.json").read_text(),
                     parse_constant=_no_nan)
    assert rep["angle_bound_k2"] is None and rep["rho_exact_formula"] is None
    assert rep["sin2theta_k2"] is not None and rep["rho_J"] is not None


def test_report_angle_bound_on_roundoff_negative_eigenvalue(tmp_path):
    # the third eigenvalue of P* P on reducible_coarse is zero, and comes
    # out of LAPACK slightly negative; the bound must still be defined
    cfg = write_cfg(tmp_path, "model = reducible_coarse\n")
    assert main(["report", "--model", cfg, "--k-list", "2",
                 "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "report.json").read_text(),
                     parse_constant=_no_nan)
    assert rep["rho_J"] == pytest.approx(1 / 3, abs=1e-12)
    assert rep["norm_bound"] == pytest.approx(1 / 3, abs=1e-12)
    assert rep["angle_bound_k2"] == pytest.approx(5 / 9, abs=1e-12)
    assert rep["angle_bound_k2"] >= rep["rho_J"]


def test_shift_study_deterministic_and_monotone(tmp_path):
    cfg_args = ["shift-study", "--out", str(tmp_path), "--max-n", "5",
                "--alpha", "0,0.15"]
    assert main(cfg_args) == 0
    first = (tmp_path / "fig2.csv").read_bytes()
    assert main(cfg_args) == 0
    assert (tmp_path / "fig2.csv").read_bytes() == first
    rows = [line.split(",") for line in first.decode().splitlines()[1:]]
    alpha0 = [float(r[2]) for r in rows if r[1] == "0.000000"]
    # worst-case rate never improves when strata get coarser: read in
    # increasing n, the trend decreases
    assert alpha0[0] == max(alpha0)
    assert alpha0[-1] == min(alpha0)


def test_shift_study_prints_negative_zero_alpha_as_zero(tmp_path):
    assert main(["shift-study", "--alpha=-0", "--max-n", "1",
                 "--out", str(tmp_path)]) == 0
    row = (tmp_path / "fig2.csv").read_text().splitlines()[1]
    assert row.split(",")[1] == "0.000000"


def test_shift_study_evaluates_each_distinct_partition_once(tmp_path, monkeypatch):
    # n = 1 gives the same trivial partition for all 100 shifts, n = 2
    # gives 50 distinct sets of strata (shift 50 would repeat shift 0's
    # with swapped labels): 51 dense spectra of the projected resolvent,
    # one per distinct set of strata, not 150
    calls = []
    spectrum = diagnostics.ChainRates._spectrum

    def counting(self, part):
        calls.append(part.assignment.tobytes())
        return spectrum(self, part)

    monkeypatch.setattr(diagnostics.ChainRates, "_spectrum", counting)
    solves = count_calls(monkeypatch, linalg.leading_eigs, linalg)
    assert main(["shift-study", "--alpha", "0", "--max-n", "2",
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == len(set(calls)) == 51
    assert len(solves) == 51
    assert all(isinstance(args[0], np.ndarray) and args[0].shape == (100, 100)
               for args in solves)


def test_spectrum_prints_a_zero_rate_without_sign(tmp_path):
    # sqrt(lambda_3) = 0 on reducible_coarse: -log10(1 - 0) is -0
    cfg = write_cfg(tmp_path, "model = reducible_coarse\n")
    assert main(["spectrum", "--model", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "spectrum.csv").read_text().splitlines()[1:] == [
        "1,1.000000,300.00", "2,0.666667,0.48", "3,0.000000,0.00"]


def test_refine_study(tmp_path):
    assert main(["refine-study", "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line
            in (tmp_path / "refine.csv").read_text().splitlines()[1:]]
    rhos = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-10 for a, b in zip(rhos, rhos[1:]))
    assert [",".join(r) for r in rows] == [
        "1,0.999992,5.09", "2,0.997265,2.56", "4,0.997058,2.53",
        "8,0.987407,1.90", "16,0.945634,1.26", "32,0.851873,0.83"]


def test_refine_study_computes_each_rate_once(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, linalg.leading_eigs, linalg)
    assert main(["refine-study", "--out", str(tmp_path)]) == 0
    assert len(calls) == 6  # one dense spectrum per partition


def test_split_sweep_prepares_the_chain_once(monkeypatch):
    # 99 splits of a non-reversible chain: one reversibility test, one
    # factor of P (for rho_J) and one of P* P (for the norm bound) for all
    # of them, each kept as a dense scaled resolvent, so every split's two
    # spectra are eigensolves of 100 x 100 arrays; the one operator left
    # is the P* P pairs solve (the 2 x 2 Gram matrices are sin_theta's)
    resolvents = count_calls(monkeypatch, linalg.resolvent, linalg)
    tests = count_calls(monkeypatch, chain.is_reversible, chain, diagnostics)
    solves = count_calls(monkeypatch, linalg.leading_eigs, linalg)
    rates = cli._prepare([0.05])[0.05]
    rows = cli._split_sweep_rows(rates, 2)
    assert len(rows) == 99 and len(tests) == 1
    assert [args[0] is rates.P.mat for args in resolvents] == [True, False]
    fine = [args[0] for args in solves if args[0].shape == (100, 100)]
    assert len(fine) == 199
    assert sum(isinstance(A, np.ndarray) for A in fine) == 198


def test_tables_prepares_each_chain_once(tmp_path, monkeypatch):
    # the three 1D chains (alpha = 0, 0.05, 0.15) and the 2D chain are
    # each prepared once for all seven CSVs: one build_model per chain, one
    # fine GTH solve per mixture, one reversibility test and one P* P
    # eigensolve per chain, by pstar_p_spectrum on the dense 1D chains and
    # from the resolvent on the 2D chain. rho(P_hat) of the two
    # non-reversible chains is rho_J of one stratum, no eigensolve of J or
    # P_hat: its spectrum, kept as the chain's last partition, also gives
    # fig2's n = 1 rows, so each 1D chain takes one one-stratum spectrum
    builds = count_calls(monkeypatch, models.build_model, models)
    solves = count_calls(monkeypatch, chain.steady_state, chain, diagnostics)
    tests = count_calls(monkeypatch, chain.is_reversible, chain, diagnostics)
    spectra = count_calls(monkeypatch, chain.pstar_p_spectrum, chain, diagnostics)
    pair_solves = count_pair_solves(monkeypatch)
    direct = count_calls(monkeypatch, diagnostics.rho_J_direct, diagnostics)
    one_stratum = []
    spectrum = diagnostics.ChainRates._spectrum

    def counting(self, part, composed=False):
        if part.n == 1:
            one_stratum.append(id(self))
        return spectrum(self, part, composed)

    monkeypatch.setattr(diagnostics.ChainRates, "_spectrum", counting)
    assert main(["tables", "--max-n", "1", "--out", str(tmp_path)]) == 0
    assert len(builds) == 4
    assert [args[0].n for args in solves] == [100, 100]
    assert len(tests) == 4
    assert [args[0].n for args in spectra] == [100, 100, 100]
    assert sorted(pair_solves) == [100, 100, 100, 2500]
    assert direct == []
    assert len(one_stratum) == len(set(one_stratum)) == 3
    # J of one stratum is P_hat: fig2's n = 1 rows are table 3
    fig2 = (tmp_path / "fig2.csv").read_text().splitlines()[1:]
    table3 = (tmp_path / "table3.csv").read_text().splitlines()[1:]
    assert [row.split(",", 1)[1] for row in fig2] == table3
    assert (tmp_path / "table1.csv").read_text().splitlines()[1:] == [
        "2,0.999992,5.09", "3,0.991441,2.07", "4,0.986243,1.86",
        "5,0.979807,1.69"]


def test_table4_prepares_the_2d_chain_once(monkeypatch):
    # both columns share one reversibility test and one P* P eigensolve,
    # from the resolvent, and reproduce the reference table
    tests = count_calls(monkeypatch, chain.is_reversible, chain, diagnostics)
    spectra = count_calls(monkeypatch, chain.pstar_p_spectrum, chain, diagnostics)
    pair_solves = count_pair_solves(monkeypatch)
    header, rows = cli._table4_rows([2, 3])
    assert len(tests) == 1 and spectra == [] and pair_solves == [2500]
    assert [header] + [",".join(row) for row in rows] == TABLE4.read_text().splitlines()


def test_usage_error_exit_1():
    assert main(["solve", "--tau", "notafloat"]) == 1


def test_nonconvergence_outside_solve_prints_and_exits_1(monkeypatch, capsys):
    from iadrate import cli
    from iadrate.errors import NonConvergenceError

    def fails(args):
        raise NonConvergenceError("stalled after 3 sweeps")

    monkeypatch.setattr(cli, "cmd_spectrum", fails)
    assert main(["spectrum"]) == 1
    assert "error: stalled after 3 sweeps" in capsys.readouterr().err


def test_refine_study_rate_growth_exits_1(tmp_path, monkeypatch, capsys):
    from iadrate import diagnostics

    rates = itertools.count(0.5, 0.01)  # every refinement looks worse
    monkeypatch.setattr(diagnostics.ChainRates, "rho_J",
                        lambda self, part: next(rates))
    assert main(["refine-study", "--out", str(tmp_path)]) == 1
    assert "rate increased under refinement" in capsys.readouterr().err


def _fresh_python(*args):
    """A new interpreter run with this checkout's src/ on PYTHONPATH."""
    src = str(Path(iadrate.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_warns_nothing():
    proc = _fresh_python("-W", "error::RuntimeWarning", "-m", "iadrate.cli",
                         "--help")
    assert proc.returncode == 0, proc.stderr


_LINALG_LOADED_BY = """
import sys
import numpy as np
from iadrate import chain, cli, iad, models

def loaded():
    return [m for m in ("scipy.linalg", "scipy.sparse.linalg") if m in sys.modules]

P, _, part = models.build_model({"partition": "split1d:ell=57"})
iad.iad_solve(P, part, chain.ProbabilityVector(probs=np.full(P.n, 1 / P.n)))
assert cli.main(["solve", "--partition", "split1d:ell=57", "--out", sys.argv[1]]) == 0
print(loaded())
assert cli.main(["report", "--partition", "split1d:ell=57", "--out", sys.argv[1]]) == 0
print(loaded())
"""


def test_solve_loads_no_scipy_linalg_and_report_does(tmp_path):
    # a solve runs on numpy and scipy.sparse alone: scipy.sparse.linalg,
    # and scipy.linalg and scipy's own OpenBLAS with it, load on the first
    # factorization or eigensolve, which report makes
    proc = _fresh_python("-c", _LINALG_LOADED_BY, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "['scipy.linalg', 'scipy.sparse.linalg']"]


@pytest.mark.parametrize("cfg_text, flags, column", [
    ("model = chain2d\n", ["--partition", "stripes2d:s=3"], "stripes2d:s=3"),
    pytest.param("model = chain2d\npartition = grid2d:s=6\n", [], "grid2d:s=6",
                 id="partition-key-grid2d:s=6"),
])
def test_report_chain2d_matches_table4(tmp_path, cfg_text, flags, column):
    with open(TABLE4, newline="") as fh:
        ref = {row["quantity"]: float(row[column]) for row in csv.DictReader(fh)}
    cfg = write_cfg(tmp_path, cfg_text)
    assert main(["report", "--model", cfg, *flags, "--k-list", "2",
                 "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    for quantity in ("rho_J", "norm_bound"):
        assert rep[quantity] == pytest.approx(ref[quantity], abs=1e-6)


def test_report_singleton_partition(tmp_path):
    # Pi = I, so K = 0 and J = 0: the exact formula and the norm bound are 0
    cfg = write_cfg(tmp_path, "model = chain1d\n")
    assert main(["report", "--model", cfg, "--partition", "singleton",
                 "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["norm_bound"] == rep["rho_exact_formula"] == 0.0
    assert rep["rho_J"] < 1e-10


def test_report_chain2d_trivial_partition(tmp_path):
    # the single stratum sizes by the 2500 states, not the grid side
    cfg = write_cfg(tmp_path, "model = chain2d\npartition = trivial\n")
    assert main(["report", "--model", cfg, "--k-list", "2",
                 "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["rho_J"] == pytest.approx(rep["rho_hatP"], abs=1e-8)


_DIAGONAL = "model = chain2d\nN = {N}\nmove_set = diagonal\n"


@pytest.mark.parametrize("cfg_text, argv, message", [
    ("", ["solve", "--partition", "split1d"], "missing ['ell']"),
    ("", ["solve", "--partition", "split1d:foo=3"], "unknown ['foo']"),
    # a last line without its newline is read too
    ("partition = split1d:el=57", ["solve"], "unknown ['el']"),
    ("", ["solve", "--partition", "split1d:ell=57,N=100"], "set by the model"),
    ("", ["solve", "--partition", "grid2d:s=2"], "needs a model on a 2D grid"),
    ("model = marek\nalpha = 0.5\n", ["spectrum"], "'alpha'"),
    ("", ["spectrum", "--max-n", "0"], "--max-n"),
    ("", ["tables", "--k-list="], "--k-list"),
    ("", ["report", "--partition", "split1d:ell=57", "--k-list", "1,2"],
     "--k-list"),
    ("", ["solve", "--partition", "split1d:ell=x"],
     "partition 'split1d': parameter 'ell'"),
    ("N = abc\n", ["spectrum"], "key 'N'"),
    ("alpha = x\n", ["spectrum"], "key 'alpha'"),
    ("", ["shift-study", "--alpha", ""], "--alpha"),
    ("", ["shift-study", "--alpha", "0,,0"], "--alpha"),
    ("", ["shift-study", "--alpha", "0,nan"], "--alpha"),
    ("", ["shift-study", "--alpha", "0,-0.1"], "--alpha"),
    ("", ["tables", "--alpha", "0,0.05,2"], "--alpha"),
    ("", ["tables", "--alpha", "0"], "tables needs three values"),
    ("", ["tables", "--alpha", "0,0.05,0.15,0.3"], "tables needs three values"),
    ("", ["shift-study", "--max-n", "101"], "--max-n: the 1D chain has 100"),
    ("", ["tables", "--max-n", "101"], "--max-n: the 1D chain has 100"),
    ("model = reducible_coarse\n", ["report"], "--k-list: the chain has 3 states"),
    ("", ["tables", "--k-list", "2,100"], "--k-list: the chain has 100 states"),
    ("model = marek\n", ["report"],
     "norm_bound: P* P is reducible (lambda_2 = 1)"),
    ("model = periodic_shift\n", ["report", "--k-list", "2"],
     "norm_bound: P* P is reducible (lambda_2 = 1)"),
    ("partition = split1d:ell=57\npartition = trivial\n", ["solve"],
     "duplicate key 'partition'"),
    # diagonal moves keep the parity of i + j: two closed classes, on the
    # dense branch (100 states) and on the ARPACK branch (400)
    (_DIAGONAL.format(N=10), ["report", "--partition", "grid2d:s=2"],
     "P is reducible"),
    (_DIAGONAL.format(N=20), ["report", "--partition", "grid2d:s=2"],
     "P is reducible"),
    (_DIAGONAL.format(N=10), ["spectrum"], "P is reducible"),
    # an empty partition file, with no warning from numpy on the way
    ("", ["solve", "--partition", os.devnull], "has no data lines"),
    # a transient class that feeds the closed one: the solve decays its
    # mass to subnormal floats, the report's GTH meets a zero component
    ("model = transient_class\n", ["solve"], "iad_solve: transient state 2"),
    ("model = transient_class\n", ["report", "--k-list", "2"],
     "steady_state: P is reducible (transient state)"),
    # a repeated parameter, like a repeated config key, is an error
    ("", ["report", "--partition", "split1d:ell=57,ell=3"],
     "partition 'split1d': parameter 'ell' given twice"),
])
@pytest.mark.filterwarnings("error")
def test_bad_input_exits_1_with_message(tmp_path, capsys, cfg_text, argv,
                                        message):
    cfg = write_cfg(tmp_path, cfg_text)
    model = ["--model", cfg] if argv[0] in ("solve", "spectrum", "report") else []
    assert main([*argv, *model, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert [p.name for p in tmp_path.iterdir()] == ["model.cfg"]


_KINDS = [
    ("uniform1d", {"n": 4, "ell": 3}), ("split1d", {"ell": 1}),
    ("singleton", {}), ("trivial", {}),
]


@pytest.mark.parametrize("model, kind, params, expect", [
    *[("chain1d", k, p, models.partition_families(k, N=100, **p))
      for k, p in _KINDS],
    *[("chain2d", k, p, models.partition_families(k, N=2500, **p))
      for k, p in _KINDS],
    ("chain2d", "stripes2d", {"s": 3}, models.stripes2d(50, 3)),
    ("chain2d", "grid2d", {"s": 6}, models.grid2d(50, 6)),
    *[("marek", k, p, models.partition_families(k, N=4, **p))
      for k, p in _KINDS if k != "uniform1d"],
])
def test_partition_flag_and_config_agree(tmp_path, model, kind, params, expect):
    spec = ":".join([kind] + [",".join(f"{k}={v}" for k, v in params.items())])
    from_cfg = write_cfg(tmp_path, f"model = {model}\npartition = {spec}\n",
                         "with.cfg")
    # the flag replaces the config's partition, which is never read: as a
    # spec, trivial:n=9 is an error
    stale = write_cfg(tmp_path, f"model = {model}\npartition = trivial:n=9\n",
                      "stale.cfg")
    parse = cli.make_parser().parse_args
    *_, part_cfg = cli._load_model(parse(["solve", "--model", from_cfg]))
    *_, part_flag = cli._load_model(
        parse(["solve", "--model", stale, "--partition", spec]))
    assert part_cfg.n == part_flag.n == expect.n
    assert np.array_equal(part_cfg.assignment, expect.assignment)
    assert np.array_equal(part_flag.assignment, expect.assignment)


def test_partition_file(tmp_path, capsys):
    path = tmp_path / "part.txt"
    coarse.save_partition(path, models.split1d(100, 57))
    # the flag and the config's partition key take the same path
    cfg = write_cfg(tmp_path, f"partition = {path}\n")
    parse = cli.make_parser().parse_args
    for argv in (["report", "--partition", str(path)], ["report", "--model", cfg]):
        *_, part = cli._load_model(parse(argv))
        assert np.array_equal(part.assignment, models.split1d(100, 57).assignment)
    coarse.save_partition(path, models.split1d(4, 1))
    assert main(["report", "--partition", str(path), "--out", str(tmp_path)]) == 1
    assert "does not match partition" in capsys.readouterr().err


_VALUES = {"--model": "m.cfg", "--partition": "trivial", "--tau": "1e-6",
           "--max-outer": "5", "--out": "o", "--k-list": "2", "--alpha": "0",
           "--max-n": "3"}


@pytest.mark.parametrize("command, flags", [
    ("solve", {"--model", "--partition", "--tau", "--max-outer", "--out"}),
    ("spectrum", {"--model", "--max-n", "--out"}),
    ("report", {"--model", "--partition", "--k-list", "--out"}),
    ("shift-study", {"--alpha", "--max-n", "--out"}),
    ("refine-study", {"--out"}),
    ("tables", {"--alpha", "--k-list", "--max-n", "--out"}),
])
def test_each_command_takes_only_its_flags(capsys, command, flags):
    parser = cli.make_parser()
    for flag, value in _VALUES.items():
        if flag in flags:
            parser.parse_args([command, flag, value])
        else:
            assert main([command, flag, value]) == 1, flag
            assert "unrecognized arguments" in capsys.readouterr().err
