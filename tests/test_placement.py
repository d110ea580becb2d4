"""Sensor placement: feasibility solve, budget solve, exhaustive oracle."""
from __future__ import annotations

import itertools
import random

import pytest

from helpers import TRAP_TARGET, brute_force_placement_oracle, budget_oracle, tree_from
from outagekit.placement import (
    PlacementConfig,
    PlacementError,
    evaluate_areas,
    generate_edge_order,
    solve_budget,
    solve_feasibility,
)
from outagekit.sim import ForecastModel, random_tree


def line_tree(n=8):
    parents = {f"c{i}": (f"c{i-1}" if i > 1 else "root") for i in range(1, n + 1)}
    lvars = {f"c{i}": 0.015 + 0.004 * i for i in range(1, n + 1)}
    return tree_from(parents, variances=lvars)


def test_edge_order_walks_deep_branches_first(deep_tree):
    assert generate_edge_order(deep_tree) == (
        "e15", "e14", "e13",
        "e18", "e17", "e16",
        "e12", "e11", "e10", "e9", "e8",
        "e7", "e6", "e5", "e4",
        "e3", "e2", "e1",
    )


def test_evaluate_areas_trap(trap_tree):
    rows = evaluate_areas(trap_tree, ("e1", "e2", "e5"))
    assert [r for r, _ in rows] == ["e1", "e2", "e5"]
    errs = dict(rows)
    assert errs["e1"] == 0.0
    assert errs["e2"] == pytest.approx(0.108334, abs=1e-5)
    assert errs["e5"] == pytest.approx(0.084915, abs=1e-5)


def test_greedy_takes_the_cheaper_immediate_cut(trap_tree):
    placement = solve_feasibility(trap_tree, TRAP_TARGET, mode="greedy")
    assert placement.sensors == ("e1", "e2", "e3")
    assert placement.n_added == 2
    errs = dict(placement.area_errors)
    assert errs["e1"] == 0.0
    assert errs["e2"] == pytest.approx(0.096125, abs=1e-5)
    assert errs["e3"] == pytest.approx(0.096927, abs=1e-5)
    assert placement.max_error <= TRAP_TARGET


def test_optimal_finds_the_single_sensor_cut(trap_tree):
    placement = solve_feasibility(trap_tree, TRAP_TARGET, mode="optimal")
    assert placement.sensors == ("e1", "e5")
    assert placement.n_added == 1
    errs = dict(placement.area_errors)
    assert errs["e1"] == pytest.approx(0.188616, abs=1e-5)
    assert errs["e5"] == pytest.approx(0.084915, abs=1e-5)


def test_trivial_target_needs_no_added_sensors(trap_tree):
    # one root-area hypothesis is strictly dominated and never wins, so the
    # worst error with the head sensor alone is exactly 1.0: any tighter
    # target forces a cut
    placement = solve_feasibility(trap_tree, 1.0)
    assert placement.n_added == 0
    assert placement.sensors == ("e1",)
    assert placement.max_error == 1.0
    assert solve_feasibility(trap_tree, 0.999).n_added > 0


def test_feasibility_validates_inputs(trap_tree):
    with pytest.raises(PlacementError, match="target"):
        solve_feasibility(trap_tree, 0.0)
    with pytest.raises(PlacementError, match="target"):
        solve_feasibility(trap_tree, -0.2)
    with pytest.raises(PlacementError, match="mode"):
        solve_feasibility(trap_tree, 0.5, mode="magic")


def test_scenario_cap_aborts_branching_search(trap_tree):
    with pytest.raises(PlacementError, match="scenario cap"):
        solve_feasibility(
            trap_tree,
            TRAP_TARGET,
            mode="optimal",
            config=PlacementConfig(scenario_cap=1),
        )


def test_budget_solve_trap(trap_tree):
    greedy = solve_budget(trap_tree, 1)
    assert greedy.sensors == ("e1", "e3")
    assert greedy.target == pytest.approx(0.196106, abs=1e-3)
    optimal = solve_budget(trap_tree, 1, mode="optimal")
    assert optimal.sensors == ("e1", "e5")
    assert optimal.target == pytest.approx(0.188662, abs=1e-3)
    # the bisected target is feasible by construction
    assert optimal.max_error <= optimal.target
    assert greedy.max_error <= greedy.target


def test_budget_zero_and_negative(trap_tree):
    placement = solve_budget(trap_tree, 0)
    assert placement.sensors == ("e1",)
    assert placement.n_added == 0
    assert placement.max_error <= placement.target
    with pytest.raises(PlacementError, match="budget"):
        solve_budget(trap_tree, -1)


def test_solutions_pass_reevaluation():
    rng = random.Random(909)
    model = ForecastModel("fixed_kappa", kappa=0.25)
    for _ in range(25):
        tree = model.apply(random_tree(rng.randint(4, 16), seed=rng.randrange(10**6)))
        target = rng.choice([0.05, 0.1, 0.2, 0.35])
        mode = rng.choice(["greedy", "optimal"])
        try:
            placement = solve_feasibility(tree, target, mode=mode)
        except PlacementError:
            continue
        worst = max(e for _, e in evaluate_areas(tree, placement.sensors))
        assert worst <= target + 1e-12
        assert placement.max_error == pytest.approx(worst, abs=1e-12)


def test_optimal_never_needs_more_sensors_than_greedy():
    rng = random.Random(77)
    model = ForecastModel("fixed_kappa", kappa=0.3)
    for _ in range(12):
        tree = model.apply(random_tree(rng.randint(5, 14), seed=rng.randrange(10**6)))
        target = rng.choice([0.1, 0.2, 0.3])
        greedy = solve_feasibility(tree, target, mode="greedy")
        optimal = solve_feasibility(tree, target, mode="optimal")
        assert optimal.n_added <= greedy.n_added
        assert optimal.max_error <= target + 1e-12


def test_line_placements_are_maximal():
    # pushing any sensor one edge toward the root must break the target
    line = line_tree()
    for target in (0.10, 0.15, 0.20, 0.25):
        placement = solve_feasibility(line, target)
        assert placement.max_error <= target
        root_edge = "c1"
        for s in placement.sensors:
            if s == root_edge:
                continue
            parent = line.parent[s]
            if parent == line.root:
                continue
            moved = set(placement.sensors) - {s} | {parent}
            worst = max(e for _, e in evaluate_areas(line, tuple(sorted(moved))))
            assert worst > target


def test_oracle_matches_exhaustive_scan(trap_tree):
    result = brute_force_placement_oracle(trap_tree, 1)
    root_edge = "e1"
    candidates = [e for e in trap_tree.edges if e != root_edge]
    assert result.evaluated == len(candidates)
    best = None
    for extra in candidates:
        sensors = tuple(sorted({root_edge, extra}))
        worst = max(e for _, e in evaluate_areas(trap_tree, sensors))
        if best is None or worst < best[1]:
            best = (sensors, worst)
    assert result.minmax_placement == best[0]
    assert result.minmax_value == pytest.approx(best[1], abs=1e-12)
    assert result.minmax_placement == ("e1", "e5")


def test_oracle_product_objective(trap_tree):
    result = brute_force_placement_oracle(trap_tree, 2)
    root_edge = "e1"
    candidates = [e for e in trap_tree.edges if e != root_edge]
    assert result.evaluated == len(list(itertools.combinations(candidates, 2)))
    best = None
    for pair in itertools.combinations(candidates, 2):
        sensors = tuple(sorted({root_edge, *pair}))
        prod = 1.0
        for _, e in evaluate_areas(trap_tree, sensors):
            prod *= 1.0 - e
        if best is None or prod > best[1]:
            best = (sensors, prod)
    assert result.product_placement == best[0]
    assert result.product_value == pytest.approx(best[1], abs=1e-12)


def test_oracle_rejects_oversized_budget(trap_tree):
    with pytest.raises(PlacementError):
        brute_force_placement_oracle(trap_tree, 9)


def test_reported_area_errors_equal_independent_evaluation():
    model = ForecastModel("fixed_kappa", kappa=0.3)
    config = PlacementConfig(max_outages=2)
    for seed in range(6):
        tree = model.apply(random_tree(14, seed=seed))
        for target in (0.05, 0.1, 0.2, 0.3):
            for mode in ("greedy", "optimal"):
                placement = solve_feasibility(tree, target, mode=mode, config=config)
                assert placement.area_errors == evaluate_areas(
                    tree, placement.sensors, config=config
                )


def test_budget_equals_fresh_table_per_step(trap_tree):
    model = ForecastModel("fixed_kappa", kappa=0.3)
    config = PlacementConfig(max_outages=2)
    cases = [(trap_tree, 1, "greedy"), (trap_tree, 1, "optimal")]
    cases += [(model.apply(random_tree(16, seed=seed)), 3, "greedy") for seed in range(3)]
    cases.append((model.apply(random_tree(12, seed=7)), 2, "optimal"))
    for tree, budget, mode in cases:
        assert solve_budget(tree, budget, mode=mode, config=config) == budget_oracle(
            tree, budget, mode=mode, config=config
        )


def test_negative_outage_bound_is_rejected():
    with pytest.raises(ValueError, match="max_outages"):
        PlacementConfig(max_outages=-1)


@pytest.mark.parametrize("cap", [0, -1])
def test_cap_below_one_is_rejected(cap):
    with pytest.raises(ValueError, match="cap"):
        PlacementConfig(cap=cap)
    assert PlacementConfig(cap=1).cap == 1
