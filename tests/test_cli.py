import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import iadrate
from iadrate import chain
from iadrate.cli import main


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
    mu = chain.load_vector(out / "mu.txt")
    assert mu.probs.sum() == pytest.approx(1.0)
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


def test_solve_marek_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, "model = marek\n")
    out = tmp_path / "out"
    code = main(["solve", "--model", cfg, "--max-outer", "300",
                 "--out", str(out)])
    assert code == 2
    assert (out / "trace.csv").exists()


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
    import json
    cfg = write_cfg(tmp_path, "model = chain1d\npartition.kind = split1d\n"
                              "partition.ell = 57\n")
    code = main(["report", "--model", cfg, "--out", str(tmp_path),
                 "--k-list", "2"])
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["reversible"] is True
    assert rep["rho_J"] == pytest.approx(0.99242586, abs=1e-6)
    assert "sin2theta_k2" in rep and "angle_bound_k2" in rep


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


def test_refine_study(tmp_path):
    assert main(["refine-study", "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line
            in (tmp_path / "refine.csv").read_text().splitlines()[1:]]
    rhos = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-10 for a, b in zip(rhos, rhos[1:]))


def test_threads_env_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("IAD_THREADS", "1")
    assert main(["shift-study", "--out", str(tmp_path), "--max-n", "3",
                 "--alpha", "0"]) == 0
    assert (tmp_path / "fig2.csv").exists()


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
