import csv
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import iadrate
from iadrate import cli, coarse, models
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
    assert lines[0] == "iter,rel_change,residual,err_invmu"
    assert len(lines) > 10


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
    cfg = write_cfg(tmp_path, "model = chain1d\npartition.kind = split1d\n"
                              "partition.ell = 57\n")
    code = main(["report", "--model", cfg, "--out", str(tmp_path),
                 "--k-list", "2"])
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["reversible"] is True
    assert rep["rho_J"] == pytest.approx(0.99242586, abs=1e-6)
    assert "sin2theta_k2" in rep and "angle_bound_k2" in rep


def _no_nan(token):
    raise ValueError(f"report.json holds the bare token {token}")


def test_report_json_writes_null_for_undefined_bounds(tmp_path):
    # diagonal moves make the even grid bipartite: lambda_2 = 1, and the
    # angle bounds are undefined
    cfg = write_cfg(tmp_path, "model = chain2d\nN = 10\nmove_set = diagonal\n")
    assert main(["report", "--model", cfg, "--partition", "grid2d:s=2",
                 "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "report.json").read_text(),
                     parse_constant=_no_nan)
    assert rep["angle_bound_k2"] is None and rep["angle_bound_k3"] is None
    assert rep["sin2theta_k2"] is not None


def test_report_angle_bound_on_roundoff_negative_eigenvalue(tmp_path):
    # the third eigenvalue of P* P on reducible_coarse is zero, and comes
    # out of LAPACK slightly negative; the bound must still be defined
    cfg = write_cfg(tmp_path, "model = reducible_coarse\n")
    assert main(["report", "--model", cfg, "--k-list", "2",
                 "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "report.json").read_text(),
                     parse_constant=_no_nan)
    assert rep["rho_J"] == pytest.approx(1 / 3, abs=1e-12)
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
    # n = 1 gives the same trivial partition for all 101 shifts, n = 2
    # gives 51 distinct ones: 52 evaluations, not 152
    calls = []
    error_operator = cli.diagnostics.error_operator

    def counting(P, mu, part):
        calls.append(part.assignment.tobytes())
        return error_operator(P, mu, part)

    monkeypatch.setattr(cli.diagnostics, "error_operator", counting)
    assert main(["shift-study", "--alpha", "0", "--max-n", "2",
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == len(set(calls)) == 52


def test_refine_study(tmp_path):
    assert main(["refine-study", "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line
            in (tmp_path / "refine.csv").read_text().splitlines()[1:]]
    rhos = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-10 for a, b in zip(rhos, rhos[1:]))


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
    monkeypatch.setattr(diagnostics, "rho_J_direct", lambda J: next(rates))
    assert main(["refine-study", "--out", str(tmp_path)]) == 1
    assert "rate increased under refinement" in capsys.readouterr().err


def test_module_entry_point_warns_nothing():
    src = str(Path(iadrate.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "iadrate.cli",
         "--help"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("cfg_text, flags, column", [
    ("model = chain2d\n", ["--partition", "stripes2d:s=3"], "stripes2d:s=3"),
    ("model = chain2d\npartition.kind = grid2d\npartition.s = 6\n", [],
     "grid2d:s=6"),
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


def test_report_chain2d_trivial_partition(tmp_path):
    # the single stratum sizes by the 2500 states, not the grid side
    cfg = write_cfg(tmp_path, "model = chain2d\npartition.kind = trivial\n")
    assert main(["report", "--model", cfg, "--k-list", "2",
                 "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["rho_J"] == pytest.approx(rep["rho_hatP"], abs=1e-8)


@pytest.mark.parametrize("cfg_text, argv, message", [
    ("", ["solve", "--partition", "split1d"], "missing ['ell']"),
    ("", ["solve", "--partition", "split1d:foo=3"], "unknown ['foo']"),
    ("partition.kind = split1d\npartition.el = 57\n", ["solve"],
     "unknown ['el']"),
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
])
def test_bad_input_exits_1_with_message(tmp_path, capsys, cfg_text, argv,
                                        message):
    cfg = write_cfg(tmp_path, cfg_text)
    model = ["--model", cfg] if argv[0] in ("solve", "spectrum", "report") else []
    assert main([*argv, *model, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert not any(tmp_path.glob("*.csv"))


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
    keys = "".join(f"partition.{k} = {v}\n" for k, v in params.items())
    from_cfg = write_cfg(tmp_path, f"model = {model}\npartition.kind = {kind}\n"
                         + keys, "with.cfg")
    # the flag replaces every partition key of the config
    stale = write_cfg(tmp_path, f"model = {model}\npartition.kind = trivial\n"
                      "partition.n = 9\n", "stale.cfg")
    spec = ":".join([kind] + [",".join(f"{k}={v}" for k, v in params.items())])
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
    *_, part = cli._load_model(cli.make_parser().parse_args(
        ["report", "--partition", str(path)]))
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
