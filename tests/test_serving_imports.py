"""The serving path runs without importing SciPy.

SciPy is needed to solve LPs, read sparse designs and compute the Figure-12
binomial prior.  Importing it costs ~0.7 s and ~65 MB of RSS, so every use
imports it inside the function that needs it.  Each check runs in a fresh
interpreter, because this test process has long since imported SciPy.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

REPORT_SCIPY = (
    "import sys; "
    "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
)


def _scipy_modules_after(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", f"{code}\n{REPORT_SCIPY}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_scipy():
    assert _scipy_modules_after("import repro.cli") == "[]"


def test_compiling_and_executing_a_gm_plan_loads_no_scipy():
    code = (
        "import numpy as np\n"
        "from repro.engine.plan import ReleasePlan\n"
        "plan = ReleasePlan.compile(1000, 0.9)\n"
        "assert plan.mechanism.name == 'GM', plan.mechanism.name\n"
        "plan.execute(np.arange(1001), rng=np.random.default_rng(0))"
    )
    assert _scipy_modules_after(code) == "[]"
