import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _library_example():
    """The python block under the README's "Library example" heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs_as_written():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _library_example()], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rho_J, sqrt_lambda2, rate = map(float, proc.stdout.split())
    assert abs(rho_J - 0.992426) <= 1e-6
    assert abs(sqrt_lambda2 - 0.999992) <= 1e-6
    assert abs(rate - rho_J) <= 0.01 * rho_J
    # IAD takes ln(rho_J) / ln(sqrt_lambda2) times fewer steps than the
    # power method for the same error reduction; the comment states it
    fewer = int(re.search(r"IAD needs ~(\d+)x fewer steps",
                          _library_example()).group(1))
    assert abs(math.log(rho_J) / math.log(sqrt_lambda2) - fewer) <= 0.01 * fewer
