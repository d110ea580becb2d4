"""Forecast noise models, synthetic feeders, Monte Carlo, density sweep."""
from __future__ import annotations

import csv
import json
import math
import os
import statistics
import subprocess
import sys

import numpy as np
import pytest

import outagekit
from helpers import (
    DEEP_PARENTS,
    FIVE_EDGE_PARENTS,
    error_distribution_oracle,
    caterpillar_parents,
    per_trial_detection_rate,
    random_tree_oracle,
    sample_readings_oracle,
    tree_from,
)
from outagekit.detector import build_areas, detect, plan_for
from outagekit.errors import all_missed_detection, pattern_hypothesis_sets
from outagekit.network import build_tree, cumulative_stats
from outagekit.placement import PlacementConfig, solve_feasibility
from outagekit.sim import (
    ForecastModel,
    _sample_readings,
    SweepConfig,
    empirical_detection_rate,
    kappa_of_load,
    random_tree,
    simulate_outage,
    sweep,
    write_sweep_csv,
    write_sweep_histograms,
)


def test_noise_ratio_scaling_law():
    # ratio falls with aggregate load toward a floor
    assert kappa_of_load(3562.0 / 58.1) == pytest.approx(0.10, abs=1e-12)
    assert kappa_of_load(1.0) == pytest.approx(math.sqrt(3603.9) / 100.0)
    assert kappa_of_load(1e12) == pytest.approx(math.sqrt(41.9) / 100.0, rel=1e-6)
    assert kappa_of_load(10.0) > kappa_of_load(100.0) > kappa_of_load(1e6)
    with pytest.raises(ValueError):
        kappa_of_load(0.0)
    with pytest.raises(ValueError):
        kappa_of_load(-2.0)


def test_forecast_model_modes():
    fixed = ForecastModel("fixed_kappa", kappa=0.2)
    assert fixed.sigma(5.0) == pytest.approx(1.0)
    assert fixed.sigma(0.0) == 0.0
    scaling = ForecastModel("scaling_law")
    assert scaling.sigma(4.0) == pytest.approx(kappa_of_load(4.0) * 4.0)
    with pytest.raises(ValueError):
        ForecastModel("other")
    with pytest.raises(ValueError):
        ForecastModel("fixed_kappa", kappa=-0.1)


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf, -0.1])
def test_forecast_model_rejects_non_finite_kappa(kappa):
    with pytest.raises(ValueError, match="kappa"):
        ForecastModel("fixed_kappa", kappa=kappa)


@pytest.mark.parametrize(
    "fields, named",
    [
        (dict(kappas=(0.1, math.nan)), "kappa"),
        (dict(kappas=(math.inf,)), "kappa"),
        (dict(kappas=(-0.1,)), "kappa"),
        (dict(targets=(0.0,)), "targets"),
        (dict(targets=(0.1, -0.2)), "targets"),
        (dict(targets=(math.nan,)), "targets"),
        (dict(targets=(math.inf,)), "targets"),
    ],
)
def test_sweep_config_rejects_bad_kappas_and_targets(fields, named):
    with pytest.raises(ValueError, match=named):
        SweepConfig(n_vertices=20, **fields)


def test_forecast_model_apply(five_edge_tree):
    model = ForecastModel("fixed_kappa", kappa=0.3)
    loaded = model.apply(five_edge_tree)
    assert loaded.children == five_edge_tree.children
    assert loaded.mean == five_edge_tree.mean
    for e in loaded.edges:
        assert loaded.var[e] == pytest.approx((0.3 * loaded.mean[e]) ** 2)
    assert loaded.var[loaded.root] == 0.0


def test_random_tree_shape():
    t = random_tree(12, seed=5)
    assert len(t.order) == 12
    assert len(t.children[t.root]) == 1
    assert all(len(t.children[v]) <= 3 for v in t.order)
    assert all(0.5 <= t.mean[e] <= 1.5 for e in t.edges)
    assert all(t.var[e] == 0.0 for e in t.edges)
    t2 = random_tree(12, seed=5)
    assert t2.parent == t.parent
    assert t2.mean == t.mean
    assert random_tree(12, seed=6).parent != t.parent
    assert random_tree(2, seed=0).edges == ("v1",)
    with pytest.raises(ValueError):
        random_tree(1)


def test_tree_shape_arguments_are_checked():
    for kwargs, named in (
        (dict(max_children=0), "max_children"),
        (dict(max_children=-1), "max_children"),
        (dict(mean_range=(1.5, 0.5)), "mean_range"),
    ):
        with pytest.raises(ValueError, match=named):
            random_tree(30, seed=2, **kwargs)
        with pytest.raises(ValueError, match=named):
            SweepConfig(n_vertices=30, **kwargs)
    # the limits themselves are valid: a chain, and equal means
    chain = random_tree(30, seed=2, max_children=1, mean_range=(0.7, 0.7))
    assert max(len(kids) for kids in chain.children.values()) == 1
    assert set(chain.mean[e] for e in chain.edges) == {0.7}


def test_random_tree_equals_the_sorting_generator():
    for n, seed, max_children in [
        (2, 0, 3), (3, 1, 1), (40, 2, 1), (60, 3, 2), (120, 4, 3), (300, 5, 5), (1000, 6, 3),
    ]:
        got = random_tree(n, seed=seed, max_children=max_children)
        want = random_tree_oracle(n, seed=seed, max_children=max_children)
        assert got == want


def test_random_tree_population_shape_bands():
    depths = []
    branching = []
    for seed in range(300):
        t = random_tree(100, seed=seed, max_children=3)
        depths.append(statistics.mean(t.depth(e) for e in t.edges))
        internal = [len(t.children[v]) for v in t.edges if t.children[v]]
        branching.append(statistics.mean(internal))
    assert 3.5 <= statistics.mean(depths) <= 9.0
    assert min(depths) > 2.0 and max(depths) < 12.0
    assert 1.4 <= statistics.mean(branching) <= 2.2


def test_simulate_exact_when_noise_free():
    t = tree_from(FIVE_EDGE_PARENTS)
    obs = simulate_outage(t, ["e1"], frozenset())
    assert obs.flows == {"e1": 5.0}
    obs = simulate_outage(t, ["e1", "e3"], frozenset({"e5"}))
    assert obs.flows == {"e1": 4.0, "e3": 2.0}
    obs = simulate_outage(t, ["e1", "e3"], frozenset({"e1"}))
    assert obs.flows == {"e1": 0.0, "e3": 0.0}


def _sampling_cases():
    for seed in (1, 2):
        tree = ForecastModel("fixed_kappa", kappa=0.3).apply(random_tree(60, seed=seed))
        edges = tree.edges
        sensors = sorted({edges[0], *edges[::3]})
        yield tree, sensors, frozenset()
        yield tree, sensors, frozenset({edges[4]})
        yield tree, sensors, frozenset({edges[9], edges[30]})
    # zero-variance vertices draw nothing; the outage darkens most sensors
    deep = tree_from(DEEP_PARENTS, variances={v: 0.0 if v in ("e5", "e9") else 0.02 for v in DEEP_PARENTS})
    yield deep, ["e1", "e4", "e11", "e14"], frozenset({"e9"})
    chain = tree_from(caterpillar_parents(40), variances=0.05)
    yield chain, ["s1", "s10", "l20", "s30"], frozenset({"s25"})


@pytest.mark.parametrize("case", range(8))
def test_sampled_readings_match_scalar_oracle(case):
    tree, sensors, outage = list(_sampling_cases())[case]
    plan = plan_for(tree, sensors)
    got = _sample_readings(tree, plan._topology, plan.sensors, outage, 25, np.random.default_rng(case))
    want = sample_readings_oracle(tree, plan.sensors, outage, 25, np.random.default_rng(case))
    assert got.shape == want.shape == (25, len(plan.sensors))
    dark = [any(tree.is_ancestor_edge(e, s) for e in outage) for s in plan.sensors]
    assert (got[:, dark] == 0.0).all()
    live = ~np.array(dark)
    np.testing.assert_allclose(got[:, live], want[:, live], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("case", range(8))
def test_one_trial_calls_equal_one_batch(case):
    tree, sensors, outage = list(_sampling_cases())[case]
    plan = plan_for(tree, sensors)
    batch = _sample_readings(tree, plan._topology, plan.sensors, outage, 12, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    rows = [_sample_readings(tree, plan._topology, plan.sensors, outage, 1, rng)[0] for _ in range(12)]
    assert np.array_equal(batch, np.array(rows))


def test_simulate_zero_iff_disconnected():
    model = ForecastModel("fixed_kappa", kappa=0.2)
    tree = model.apply(random_tree(14, seed=3))
    sensors = sorted({tree.children[tree.root][0], *list(tree.edges)[::3]})
    truth = frozenset({sorted(tree.edges)[4]})
    obs = simulate_outage(tree, sensors, truth, seed=11)
    cut = truth
    for s in sensors:
        dark = any(a == s or tree.is_ancestor_edge(a, s) for a in cut)
        if dark:
            assert obs.flows[s] == 0.0
        else:
            assert obs.flows[s] != 0.0
    again = simulate_outage(tree, sensors, truth, seed=11)
    assert again.flows == obs.flows


def test_empirical_rate_trivial_when_only_one_outcome():
    tree = tree_from({"a": "root"}, variances=0.01)
    rate, se = empirical_detection_rate(tree, ["a"], frozenset({"a"}), 200, seed=1)
    assert rate == 0.0
    # zero observed spread still reports the 1/n floor, never zero
    assert se == pytest.approx(1.0 / 200)


def test_empirical_rate_matches_analytic_single_area():
    tree = build_tree(
        [
            {"id": "root", "parent": None},
            {"id": "A", "parent": "root", "mean": 1.0, "var": 0.0125},
            {"id": "B", "parent": "A", "mean": 1.0, "var": 0.0835},
            {"id": "C", "parent": "B", "mean": 1.0, "var": 0.0945},
            {"id": "D", "parent": "A", "mean": 2.0, "var": 0.1513},
        ]
    )
    stats = cumulative_stats(tree)
    area = build_areas(tree, ("A", "D"))[0]
    target = None
    for pattern, hset in pattern_hypothesis_sets(
        area, stats, max_outages=2, cap=10**6, rho=None
    ):
        if pattern == {"D": True}:
            errs = all_missed_detection(hset)
            k = errs.index(max(errs))
            target = (hset.hypotheses[k], errs[k])
    truth, analytic = target
    assert analytic == pytest.approx(0.1083, abs=2e-4)
    rate, se = empirical_detection_rate(tree, ("A", "D"), truth, 20_000, seed=5)
    assert abs(rate - analytic) <= 3.0 * se


def test_batched_rate_equals_per_trial_loop():
    cases = []
    for seed in (1, 2, 3):
        tree = ForecastModel("fixed_kappa", kappa=0.3).apply(random_tree(40, seed=seed))
        edges = list(tree.edges)
        sensors = sorted({edges[0], *edges[::4]})
        cases.append((tree, sensors, frozenset({edges[7]}), None))
        cases.append((tree, sensors, frozenset({edges[5], edges[20]}), 0.2))
        cases.append((tree, sensors, frozenset(), None))
    # equal loads: {e4} and {e5} tie on every draw, and ties go to {e4}
    equal = tree_from(FIVE_EDGE_PARENTS, variances=0.01)
    cases.append((equal, ["e1"], frozenset({"e5"}), None))
    cases.append((equal, ["e1"], frozenset({"e4"}), None))
    # the outage darkens child sensor e11 and its whole area
    deep = tree_from(DEEP_PARENTS, variances=0.02)
    cases.append((deep, ["e1", "e11", "e14"], frozenset({"e9"}), None))
    cases.append((deep, ["e1", "e11", "e14"], frozenset({"e13", "e5"}), None))
    for tree, sensors, truth, rho in cases:
        for seed in (0, 7):
            want = per_trial_detection_rate(tree, sensors, truth, 150, seed=seed, rho=rho)
            got = empirical_detection_rate(tree, sensors, truth, 150, seed=seed, rho=rho)
            assert got == want
    assert empirical_detection_rate(equal, ["e1"], frozenset({"e5"}), 50)[0] == 1.0


def test_empirical_rate_rejects_bad_counts(five_edge_tree):
    with pytest.raises(ValueError, match="n_trials"):
        empirical_detection_rate(five_edge_tree, ["e1"], frozenset(), 0)
    with pytest.raises(ValueError, match="max_outages"):
        empirical_detection_rate(five_edge_tree, ["e1"], frozenset(), 10, max_outages=-1)


@pytest.mark.parametrize("rho", [float("nan"), 0.0, -1.0, float("inf")])
def test_empirical_rate_rejects_bad_rho(rho):
    tree = ForecastModel("fixed_kappa", kappa=0.1).apply(random_tree(10, seed=1))
    with pytest.raises(ValueError, match="rho"):
        empirical_detection_rate(tree, ["v3"], frozenset({"v3"}), 10, rho=rho)


HASH_SEED_SCRIPT = """
from outagekit.detector import detect
from outagekit.placement import PlacementConfig, solve_feasibility
from outagekit.sim import ForecastModel, SweepConfig, random_tree, simulate_outage, sweep

result = sweep(SweepConfig(seed=3, n_vertices=60, max_outages=2, kappas=(0.01,), targets=(0.05,)))
tree = ForecastModel("fixed_kappa", kappa=0.3).apply(random_tree(60, seed=3))
sensors = solve_feasibility(tree, 0.2, config=PlacementConfig(max_outages=2)).sensors
runs = [
    detect(tree, sensors, simulate_outage(tree, sensors, outage, seed=s)).to_json()
    for s, outage in enumerate([(), ("v17",), ("v20", "v45")])
]
print(repr((result.rows, sorted(result.histograms.items()), runs)))
"""


def test_outputs_do_not_depend_on_hash_seed():
    # moments are summed in edge-id order, never in set iteration order
    src = os.path.dirname(os.path.dirname(os.path.abspath(outagekit.__file__)))
    outputs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert "mean_err=0.0010288327552691874" in outputs[0]


def test_sweep_small_grid(tmp_path):
    config = SweepConfig(
        kappas=(0.1,),
        targets=(0.2, 0.3),
        n_vertices=30,
        seed=3,
        mode="greedy",
        max_outages=1,
    )
    result = sweep(config)
    assert len(result.rows) == 2
    by_target = {row.target: row for row in result.rows}
    assert by_target[0.2].density >= by_target[0.3].density
    for row in result.rows:
        assert row.max_err <= row.target + 1e-9
        assert 0.0 < row.density <= 1.0
        hist = result.histograms[(row.kappa, row.target)]
        assert len(hist) > 0
        assert max(hist) == pytest.approx(row.max_err)

    csv_path = tmp_path / "sweep.csv"
    write_sweep_csv(result, str(csv_path))
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert float(rows[0]["density"]) == pytest.approx(result.rows[0].density)

    written = write_sweep_histograms(result, str(tmp_path))
    assert len(written) == 2
    doc = json.loads(open(written[0]).read())
    assert set(doc) == {"kappa", "target", "errors"}
    assert len(doc["errors"]) > 0


def test_sweep_histograms_equal_per_area_recomputation():
    for config in (
        SweepConfig(kappas=(0.05, 0.3), targets=(0.05, 0.2, 0.3), n_vertices=40, seed=4),
        SweepConfig(kappas=(0.2,), targets=(0.1, 0.25), n_vertices=30, seed=8, max_outages=2),
    ):
        result = sweep(config)
        base = random_tree(config.n_vertices, seed=config.seed)
        for row in result.rows:
            tree = ForecastModel(mode="fixed_kappa", kappa=row.kappa).apply(base)
            placement = solve_feasibility(
                tree, row.target, config=PlacementConfig(max_outages=config.max_outages)
            )
            want = error_distribution_oracle(
                tree, placement.sensors, max_outages=config.max_outages
            )
            assert row.n_sensors == len(placement.sensors)
            assert result.histograms[(row.kappa, row.target)] == want
            assert row.mean_err == float(np.mean(want))
            assert row.max_err == max(want)


def test_sweep_rejects_negative_outage_bound():
    with pytest.raises(ValueError, match="max_outages"):
        SweepConfig(max_outages=-1)


def test_dense_noise_grid_point_error_profile():
    # the high-noise, mid-target operating point keeps many exact-detection
    # hypotheses: a large fraction of per-hypothesis errors sit near zero
    config = SweepConfig(kappas=(0.3,), targets=(0.2,), n_vertices=100, seed=0)
    result = sweep(config)
    hist = result.histograms[(0.3, 0.2)]
    near_zero = sum(1 for e in hist if e < 1e-3) / len(hist)
    assert near_zero >= 0.2
    assert max(hist) <= 0.2 + 1e-9


def test_simulated_observation_meters_the_feeder_head():
    tree = ForecastModel("fixed_kappa", kappa=0.1).apply(random_tree(10, seed=1))
    obs = simulate_outage(tree, ["v3"], set())
    assert set(obs.flows) == {"v1", "v3"}
    # the observation feeds back to detect with the same sensor list
    assert detect(tree, ["v3"], obs).hypothesis == frozenset()
