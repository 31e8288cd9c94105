import importlib
import pkgutil
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import mesopt
from mesopt.objectives import SyntheticValleyObjective, reward_R1
from mesopt.stokes import EvaluationProfile


def test_reward_R1_is_the_vertical_component_ratio():
    p = EvaluationProfile(
        z_samples=np.arange(4.0), u1=np.full(4, 1.0), u2=np.full(4, 0.75)
    )
    # ratio: 0.5625/1.5625
    assert reward_R1(p) == pytest.approx(0.36)


def test_csv_cell_formatting(tmp_path):
    from mesopt.csvio import csv_body, format_cell, write_csv

    assert format_cell(0.1) == "0.1"
    assert format_cell(np.float64(0.1)) == "0.1"  # numpy scalars stay plain
    assert format_cell(True) == "true"
    assert format_cell(None) == ""
    assert format_cell(np.int64(5)) == "5"
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b"], [[1.5, None], [2.5, "x"]])
    assert csv_body(p) == "a,b\n1.5,\n2.5,x\n"
    assert p.read_text().startswith("#")


def test_budget_counter_thread_safety():
    backend = SyntheticValleyObjective()
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda i: backend((2.0 + 0.01 * i, 2.5)), range(200)))
    assert backend.calls == 200


def test_every_module_export_resolves():
    # A name left in a module's __all__ after its definition moved away fails here.
    modules = [importlib.import_module(f"mesopt.{m.name}") for m in pkgutil.iter_modules(mesopt.__path__)]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert exporting
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{module.__name__} exports names it does not define: {missing}"
