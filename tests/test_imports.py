"""What a process loads: scipy only on the first solve or fixed point that needs it.

Each check runs in a fresh interpreter, since this one has long loaded
scipy.  The walk and the analytic backends never touch it, so importing the
package and running ``walk`` or ``landscape`` on the valley must leave no
``scipy`` module in ``sys.modules``.  Importing the CLI loads no
``statistics`` either.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import mesopt

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(mesopt.__file__).resolve().parents[1]

PRELUDE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def _run(code: str) -> dict:
    """Run code in a fresh interpreter on this mesopt; it prints one JSON line last."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code)],
        capture_output=True, text=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["mesopt.cli", "mesopt.objectives", "mesopt.metropolis", "mesopt.grid"])
def test_importing_loads_no_scipy(module):
    assert _run(f"import {module}\nprint(json.dumps(scipy_modules()))") == []


def test_importing_the_cli_loads_no_statistics():
    # The walk summary's median is numpy's, so no command pays for
    # ``statistics`` and the ``fractions`` and ``decimal`` it imports.
    assert _run("import mesopt.cli\nprint(json.dumps('statistics' in sys.modules))") is False


@pytest.mark.parametrize("command", ["walk", "landscape"])
def test_valley_command_loads_no_scipy(command, tmp_path):
    got = _run(f"""
        from mesopt.cli import main
        code = main(["{command}", "--config", "configs/valley.json", "--out", {str(tmp_path)!r}])
        print(json.dumps([code, scipy_modules()]))
    """)
    assert got == [0, []]


def test_stokes_solve_loads_the_solver_module():
    got = _run("""
        from mesopt.stokes import ChannelConfig, solve_stokes

        before = [scipy_modules(), "mesopt._solver" in sys.modules]
        field = solve_stokes(None, ChannelConfig(nx=8, nz=8))
        print(json.dumps(before + [field.converged, "mesopt._solver" in sys.modules]))
    """)
    assert got == [[], False, True, True]


def test_fixed_point_loads_only_the_band_solver():
    got = _run("""
        import numpy as np
        from mesopt import value
        from mesopt.grid import ActionSet, ParameterGrid, make_neighborhood
        from mesopt.metropolis import CoolingSchedule

        before = scipy_modules()
        n = make_neighborhood(ParameterGrid((0.0,), (4.0,), (1.0,)), (2,), (2,))
        value.value_fixed_point(np.arange(5.0), n, ActionSet(1), 0.5, CoolingSchedule(), 1e-3, 5)
        loaded = ["scipy.linalg.lapack" in sys.modules, "mesopt._solver" in sys.modules]
        print(json.dumps([before, *loaded]))
    """)
    assert got == [[], True, False]
