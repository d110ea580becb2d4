"""The installed package: runs without scipy, and every public name resolves."""
from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import outagekit
from outagekit.placement import PlacementConfig, solve_feasibility
from outagekit.sim import ForecastModel, SweepConfig, random_tree, sweep

MODULES = ("network", "hypotheses", "detector", "errors", "placement", "sim", "cli")

# detect, placement, Monte Carlo and a sweep on a seeded 30-vertex feeder,
# with every import of scipy made to fail
WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from outagekit import (
    ForecastModel, PlacementConfig, SweepConfig, detect, empirical_detection_rate,
    random_tree, simulate_outage, solve_feasibility, sweep,
)
tree = ForecastModel("fixed_kappa", kappa=0.3).apply(random_tree(30, seed=0))
placement = solve_feasibility(tree, 0.2, config=PlacementConfig(max_outages=1))
outage = {placement.sensors[-1]}
obs = simulate_outage(tree, placement.sensors, outage, seed=1)
found = detect(tree, placement.sensors, obs, max_outages=1)
rate, se = empirical_detection_rate(tree, placement.sensors, outage, 50, max_outages=1)
result = sweep(SweepConfig(kappas=(0.3,), targets=(0.2,), n_vertices=30))
assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules if sys.modules[m])
print(json.dumps({
    "sensors": list(placement.sensors),
    "found": sorted(found.hypothesis),
    "outage": sorted(outage),
    "rate": rate,
    "rows": [[r.n_sensors, r.mean_err, r.max_err] for r in result.rows],
}))
"""


def test_runs_without_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(outagekit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert 0.0 <= got["rate"] <= 1.0
    assert got["found"]
    # the same calls in this process give the same placement and sweep
    tree = ForecastModel("fixed_kappa", kappa=0.3).apply(random_tree(30, seed=0))
    placement = solve_feasibility(tree, 0.2, config=PlacementConfig(max_outages=1))
    assert got["sensors"] == list(placement.sensors)
    result = sweep(SweepConfig(kappas=(0.3,), targets=(0.2,), n_vertices=30))
    assert got["rows"] == [[r.n_sensors, r.mean_err, r.max_err] for r in result.rows]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"outagekit.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    for attr in module.__all__:
        assert hasattr(module, attr), f"outagekit.{name}.__all__ names missing {attr!r}"


def test_package_names_are_module_exports():
    exported = {
        attr: getattr(importlib.import_module(f"outagekit.{name}"), attr)
        for name in MODULES
        for attr in importlib.import_module(f"outagekit.{name}").__all__
    }
    public = [n for n in vars(outagekit) if not n.startswith("_") and n not in MODULES]
    assert public
    for attr in public:
        assert attr in exported, f"outagekit.{attr} is in no module's __all__"
        assert getattr(outagekit, attr) is exported[attr]
