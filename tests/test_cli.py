"""Command-line behaviors: outputs, exit codes, file round-trips."""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from helpers import (
    FIVE_EDGE_PARENTS,
    TRAP_PARENTS,
    TRAP_TARGET,
    TRAP_VARS,
    caterpillar_parents,
    tree_from,
)
import outagekit
from outagekit.cli import main
from outagekit.network import dump_feeder
from outagekit.sim import ForecastModel, random_tree


@pytest.fixture
def five_edge_feeder(tmp_path):
    tree = tree_from(FIVE_EDGE_PARENTS, variances=1e-4)
    path = tmp_path / "five.json"
    path.write_text(json.dumps(dump_feeder(tree, [])))
    return str(path)


@pytest.fixture
def trap_feeder(tmp_path):
    tree = tree_from(TRAP_PARENTS, variances=TRAP_VARS)
    path = tmp_path / "trap.json"
    path.write_text(json.dumps(dump_feeder(tree, ["e1"])))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_golden(capsys, five_edge_feeder):
    code, out, _ = run(capsys, ["enumerate", "--feeder", five_edge_feeder])
    assert code == 0
    found = {tuple(h) for h in json.loads(out)}
    assert found == {
        (),
        ("e1",),
        ("e2",),
        ("e3",),
        ("e4",),
        ("e5",),
        ("e3", "e5"),
        ("e4", "e5"),
    }


def test_enumerate_respects_outage_bound(capsys, five_edge_feeder):
    code, out, _ = run(
        capsys, ["enumerate", "--feeder", five_edge_feeder, "--max-outages", "1"]
    )
    assert code == 0
    assert len(json.loads(out)) == 6


def test_enumerate_cap_exceeded(capsys, five_edge_feeder):
    code, _, err = run(
        capsys, ["enumerate", "--feeder", five_edge_feeder, "--cap", "3"]
    )
    assert code == 2
    assert "error" in err


def test_detect_reads_observation(capsys, five_edge_feeder, tmp_path):
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"flows": {"e1": 4.0}}))
    code, out, _ = run(
        capsys, ["detect", "--feeder", five_edge_feeder, "--obs", str(obs)]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["global"] == ["e4"]
    assert doc["areas"][0]["root"] == "e1"


def test_detect_missing_obs_file(capsys, five_edge_feeder, tmp_path):
    code, _, err = run(
        capsys,
        ["detect", "--feeder", five_edge_feeder, "--obs", str(tmp_path / "no.json")],
    )
    assert code == 1
    assert "error" in err


def test_detect_inconsistent_observation(capsys, tmp_path):
    tree = tree_from(FIVE_EDGE_PARENTS, variances=1e-4)
    feeder = tmp_path / "f.json"
    feeder.write_text(json.dumps(dump_feeder(tree, ["e3"])))
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"flows": {"e1": 0.0, "e3": 1.0}}))
    code, _, err = run(capsys, ["detect", "--feeder", str(feeder), "--obs", str(obs)])
    assert code == 2
    assert "error" in err


def test_evaluate_with_placement_override(capsys, trap_feeder, tmp_path):
    placement = tmp_path / "pl.json"
    placement.write_text(json.dumps({"sensors": ["e1", "e2", "e5"]}))
    code, out, _ = run(
        capsys,
        ["evaluate", "--feeder", trap_feeder, "--placement", str(placement)],
    )
    assert code == 0
    doc = json.loads(out)
    errs = {row["root"]: row["error"] for row in doc["areas"]}
    assert errs["e1"] == 0.0
    assert errs["e2"] == pytest.approx(0.108334, abs=1e-5)
    assert errs["e5"] == pytest.approx(0.084915, abs=1e-5)
    assert doc["max_error"] == pytest.approx(0.108334, abs=1e-5)


def test_place_target_optimal(capsys, trap_feeder):
    code, out, _ = run(
        capsys,
        [
            "place",
            "--feeder",
            trap_feeder,
            "--target",
            str(TRAP_TARGET),
            "--mode",
            "optimal",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["sensors"] == ["e1", "e5"]


def test_place_budget_default_greedy(capsys, trap_feeder):
    code, out, _ = run(
        capsys, ["place", "--feeder", trap_feeder, "--budget", "1"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["sensors"] == ["e1", "e3"]
    assert doc["target"] == pytest.approx(0.196106, abs=1e-3)


def test_place_round_trip_meets_target(capsys, trap_feeder, tmp_path):
    code, out, _ = run(
        capsys, ["place", "--feeder", trap_feeder, "--target", "0.15"]
    )
    assert code == 0
    sensors = json.loads(out)["sensors"]
    placement = tmp_path / "pl.json"
    placement.write_text(json.dumps({"sensors": sensors}))
    code, out, _ = run(
        capsys,
        ["evaluate", "--feeder", trap_feeder, "--placement", str(placement)],
    )
    assert code == 0
    assert json.loads(out)["max_error"] <= 0.15


def test_place_flag_validation(capsys, trap_feeder):
    code, _, err = run(
        capsys,
        ["place", "--feeder", trap_feeder, "--target", "0.2", "--budget", "1"],
    )
    assert code == 1
    code, _, _ = run(capsys, ["place", "--feeder", trap_feeder])
    assert code == 1
    code, _, _ = run(capsys, ["place", "--feeder", trap_feeder, "--target", "0"])
    assert code == 2


def test_simulate_reports_rate(capsys, trap_feeder):
    code, out, _ = run(
        capsys,
        [
            "simulate",
            "--feeder",
            trap_feeder,
            "--outage",
            "e3",
            "--trials",
            "200",
            "--seed",
            "4",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"error_rate", "stderr", "trials"}
    assert doc["trials"] == 200
    assert 0.0 <= doc["error_rate"] <= 1.0


def test_sweep_writes_files(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {"kappas": [0.1], "targets": [0.25, 0.35], "n_vertices": 24, "seed": 9}
        )
    )
    out_dir = tmp_path / "out"
    code, out, _ = run(
        capsys, ["sweep", "--config", str(config), "--out", str(out_dir)]
    )
    assert code == 0
    paths = json.loads(out)
    assert (out_dir / "sweep.csv").exists()
    assert len(paths["histograms"]) == 2
    for p in paths["histograms"]:
        doc = json.loads(open(p).read())
        assert set(doc) == {"kappa", "target", "errors"}


def test_sweep_rejects_bad_config(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps([1, 2, 3]))
    code, _, err = run(capsys, ["sweep", "--config", str(config)])
    assert code == 1
    assert "error" in err


def test_output_file_flag(capsys, five_edge_feeder, tmp_path):
    out_file = tmp_path / "hyps.json"
    code, out, _ = run(
        capsys,
        ["enumerate", "--feeder", five_edge_feeder, "--out", str(out_file)],
    )
    assert code == 0
    assert out == ""
    assert len(json.loads(out_file.read_text())) == 8


def test_unknown_command(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 1
    assert "error" in err


def test_simulate_rejects_zero_trials(capsys, trap_feeder):
    code, out, err = run(
        capsys, ["simulate", "--feeder", trap_feeder, "--outage", "e3", "--trials", "0"]
    )
    assert code == 1
    assert out == ""
    assert "n_trials" in err and "Traceback" not in err


def test_detect_rejects_negative_outage_bound(capsys, five_edge_feeder, tmp_path):
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"flows": {"e1": 4.0}}))
    code, out, err = run(
        capsys,
        ["detect", "--feeder", five_edge_feeder, "--obs", str(obs), "--max-outages", "-1"],
    )
    assert code == 1
    assert out == ""
    assert "max_outages" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate"],
        ["evaluate"],
        ["place", "--target", "0.2"],
        ["place", "--budget", "1"],
    ],
)
def test_planning_rejects_negative_outage_bound(capsys, trap_feeder, argv):
    code, out, err = run(capsys, argv + ["--feeder", trap_feeder, "--max-outages", "-1"])
    assert code == 1
    assert out == ""
    assert "max_outages" in err and "Traceback" not in err


def test_sweep_rejects_unknown_mode(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"mode": "foo"}))
    code, out, err = run(capsys, ["sweep", "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    assert out == ""
    assert "'foo'" in err and "Traceback" not in err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["enumerate", "evaluate"])
def test_deep_caterpillar_stops_at_the_cap(capsys, tmp_path, command):
    # 1,200 nested branches: deeper than the interpreter's recursion limit
    tree = tree_from(caterpillar_parents(1200), variances=0.01)
    path = tmp_path / "caterpillar.json"
    path.write_text(json.dumps(dump_feeder(tree, [])))
    code, out, err = run(capsys, [command, "--feeder", str(path), "--max-outages", "1"])
    assert code == 2
    assert out == ""
    assert "cap" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"max_children": 0}, "max_children"),
        ({"max_children": -1}, "max_children"),
        ({"mean_range": [1.5, 0.5]}, "mean_range"),
    ],
)
def test_sweep_rejects_bad_tree_shape(capsys, tmp_path, fields, named):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_vertices": 30, **fields}))
    code, out, err = run(capsys, ["sweep", "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    assert out == ""
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"kappas": [float("nan")]}, "kappa"),
        ({"kappas": [0.1, float("inf")]}, "kappa"),
        ({"kappas": [-0.2]}, "kappa"),
        ({"targets": [0]}, "targets"),
        ({"targets": [0.1, -0.3]}, "targets"),
        ({"targets": [float("inf")]}, "targets"),
    ],
)
def test_sweep_rejects_bad_kappas_and_targets(capsys, tmp_path, fields, named):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_vertices": 30, **fields}))
    code, out, err = run(capsys, ["sweep", "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    assert out == ""
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_rejects_negative_outage_bound(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_vertices": 10, "max_outages": -1}))
    code, out, err = run(capsys, ["sweep", "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    assert out == ""
    assert "max_outages" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "doc, named",
    [
        ('{"flows": {"e1": NaN}}', "e1"),
        ('{"flows": {"e1": Infinity}}', "e1"),
        ('{"flows": {"e1": 4.0}, "forecasts": {"e2": 1.0, "zz": 1.0}}', "zz"),
    ],
)
def test_detect_rejects_malformed_observation(capsys, five_edge_feeder, tmp_path, doc, named):
    obs = tmp_path / "obs.json"
    obs.write_text(doc)
    code, out, err = run(capsys, ["detect", "--feeder", five_edge_feeder, "--obs", str(obs)])
    assert code == 1
    assert out == ""
    assert named in err and "Traceback" not in err


FEEDER_WITH_NULL_MEAN = {
    "vertices": [
        {"id": "sub", "parent": None},
        {"id": "e1", "parent": "sub", "mean": 1.0, "sigma2": 0.01},
        {"id": "e2", "parent": "e1", "mean": None, "sigma2": 0.01},
    ],
}


@pytest.mark.parametrize(
    "command, doc, named",
    [
        ("detect", {"flows": [1, 2]}, "flows"),
        ("detect", {"flows": {"e1": None}}, "e1"),
        ("detect", {"flows": {"e1": 4.0}, "forecasts": [1]}, "forecasts"),
        ("evaluate", FEEDER_WITH_NULL_MEAN, "e2"),
        ("sweep", {"kappas": 5}, "kappas"),
        ("sweep", {"n_vertices": "abc"}, "n_vertices"),
        ("sweep", {"n_vertices": 10, "out_dir": 5}, "out_dir"),
        ("detect", [1], "flows"),
        ("evaluate --placement", ["zz"], "zz"),
        ("simulate --placement", ["zz"], "zz"),
    ],
)
def test_malformed_json_values_exit_1(
    capsys, monkeypatch, five_edge_feeder, tmp_path, command, doc, named
):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = {
        "detect": ["detect", "--feeder", five_edge_feeder, "--obs", str(path)],
        "evaluate": ["evaluate", "--feeder", str(path)],
        "evaluate --placement": ["evaluate", "--feeder", five_edge_feeder, "--placement", str(path)],
        "simulate --placement": ["simulate", "--feeder", five_edge_feeder, "--placement", str(path)],
        "sweep": ["sweep", "--config", str(path)],
    }[command]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["evaluate", "--rho", "nan"], "--rho"),
        (["evaluate", "--rho", "0"], "--rho"),
        (["simulate", "--rho", "-1"], "--rho"),
        (["place", "--target", "0.2", "--rho", "inf"], "--rho"),
        (["place", "--target", "nan"], "--target"),
        (["place", "--budget", "-1"], "--budget"),
        (["enumerate", "--cap", "0"], "--cap"),
        (["detect", "--obs", "never-read.json", "--cap", "-1"], "--cap"),
        (["evaluate", "--cap", "0"], "--cap"),
        (["place", "--target", "0.2", "--cap", "-1"], "--cap"),
        (["simulate", "--cap", "0"], "--cap"),
    ],
)
def test_bad_numbers_exit_1_naming_the_option(capsys, trap_feeder, argv, option):
    code, out, err = run(capsys, argv + ["--feeder", trap_feeder])
    assert code == 1
    assert out == ""
    assert option in err and "Traceback" not in err


# evaluate under a 1 GB address-space limit set in the child process only
LIMITED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from outagekit.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_evaluate_large_single_area_under_memory_limit(tmp_path):
    # only the head metered: one area of 1,045 hypotheses at the default
    # two outages, whose all-pairs partition needed an 8.5 GiB array
    tree = ForecastModel("fixed_kappa", kappa=0.3).apply(random_tree(50, seed=0))
    path = tmp_path / "head_only.json"
    path.write_text(json.dumps(dump_feeder(tree, [])))
    src = os.path.dirname(os.path.dirname(os.path.abspath(outagekit.__file__)))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", LIMITED_MAIN, "evaluate", "--feeder", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    (area,) = json.loads(proc.stdout)["areas"]
    assert 0.0 < area["error"] <= 1.0
