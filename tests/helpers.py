"""Tree builders and brute-force oracles shared across the test modules."""
from __future__ import annotations

import itertools
import math
from typing import Mapping

import numpy as np

from outagekit.network import Branch, BranchGraph, Tree, build_tree

# root-e1-e2 then a junction: a two-edge chain on one side, a leaf on the other
FIVE_EDGE_PARENTS = {
    "e1": "root",
    "e2": "e1",
    "e3": "e2",
    "e4": "e3",
    "e5": "e2",
}

# three junction levels: e3 splits into a four-chain and a five-chain whose
# foot splits again into two three-chains
DEEP_PARENTS = {
    "e1": "root",
    "e2": "e1",
    "e3": "e2",
    "e4": "e3",
    "e5": "e4",
    "e6": "e5",
    "e7": "e6",
    "e8": "e3",
    "e9": "e8",
    "e10": "e9",
    "e11": "e10",
    "e12": "e11",
    "e13": "e12",
    "e14": "e13",
    "e15": "e14",
    "e16": "e12",
    "e17": "e16",
    "e18": "e17",
}

# variances tuned so the cut with the smaller immediate error is the wrong
# long-run choice for a one-sensor budget
TRAP_PARENTS = {
    "e1": "root",
    "e2": "e1",
    "e3": "e2",
    "e4": "e3",
    "e5": "e2",
    "e6": "e5",
}
TRAP_VARS = {
    "e1": 0.0599,
    "e2": 0.0125,
    "e3": 0.0835,
    "e4": 0.0945,
    "e5": 0.0906,
    "e6": 0.0607,
}
TRAP_TARGET = 0.1923

# chain into a junction into a second junction; metering r, y2 and q2 yields
# one area whose two child sensors sit at different depths
FAN_PARENTS = {
    "r": "root",
    "x1": "r",
    "x2": "x1",
    "y1": "x2",
    "y2": "y1",
    "z1": "x2",
    "p1": "z1",
    "p2": "p1",
    "q1": "z1",
    "q2": "q1",
}


def tree_from(
    parents: Mapping[str, str],
    means: float | Mapping[str, float] | None = None,
    variances: float | Mapping[str, float] | None = None,
) -> Tree:
    """Build a tree from a child-to-parent map; loads default to mean 1, var 0."""
    roots = set(parents.values()) - set(parents)
    if len(roots) != 1:
        raise ValueError(f"parent map must imply one root, got {sorted(roots)}")
    root = roots.pop()

    def pick(table, default, vid):
        if table is None:
            return default
        if isinstance(table, Mapping):
            return table[vid]
        return table

    records = [{"id": root, "parent": None}]
    for vid in sorted(parents):
        records.append(
            {
                "id": vid,
                "parent": parents[vid],
                "mean": pick(means, 1.0, vid),
                "var": pick(variances, 0.0, vid),
            }
        )
    return build_tree(records)


def full_kary_graph(depth: int, arity: int = 2) -> BranchGraph:
    """Synthetic branch graph: edgeless internal branches, three-edge leaves."""
    branches: dict[str, Branch] = {}
    counter = itertools.count()

    def make(level: int) -> str:
        bid = f"b{next(counter)}"
        if level == depth:
            stem = tuple(f"{bid}x{i}" for i in range(3))
            branches[bid] = Branch(id=bid, edges=stem, children=())
        else:
            kids = tuple(make(level + 1) for _ in range(arity))
            branches[bid] = Branch(id=bid, edges=(), children=kids)
        return bid

    root = make(0)
    return BranchGraph(branches=branches, roots=(root,))


def brute_antichains(tree: Tree, edges, max_outages: int | None = None) -> set[frozenset]:
    """Every subset of ``edges`` free of ancestor pairs, the empty set included."""
    pool = sorted(edges)
    limit = len(pool) if max_outages is None else max_outages
    found: set[frozenset] = set()
    for r in range(limit + 1):
        for combo in itertools.combinations(pool, r):
            clean = all(
                not tree.is_ancestor_edge(a, b) and not tree.is_ancestor_edge(b, a)
                for a, b in itertools.combinations(combo, 2)
            )
            if clean:
                found.add(frozenset(combo))
    return found


def at_or_above(tree: Tree, e: str, c: str) -> bool:
    return e == c or tree.is_ancestor_edge(e, c)


def induced_pattern(tree: Tree, hypothesis, child_sensors) -> dict[str, bool]:
    """A child sensor stays positive unless some hypothesis edge covers it."""
    return {
        c: not any(at_or_above(tree, e, c) for e in hypothesis)
        for c in child_sensors
    }


def area_rooted(tree: Tree, sensors, root: str):
    from outagekit.detector import build_areas

    return next(a for a in build_areas(tree, sensors) if a.root_sensor == root)


def per_trial_detection_rate(
    tree: Tree,
    sensors,
    h_true,
    n_trials: int,
    *,
    seed: int = 0,
    max_outages: int | None = 2,
    rho: float | None = None,
) -> tuple[float, float]:
    """Reference Monte Carlo: one ``simulate_outage`` and one ``detect`` per trial.

    The trials share one generator seeded with ``seed``, so a batched
    estimator drawing the same stream must return exactly this pair.
    """
    from outagekit.detector import detect
    from outagekit.sim import simulate_outage

    sensor_list = tuple(sensors)
    hyp = frozenset(h_true)
    rng = np.random.default_rng(seed)
    wrong = 0
    for _ in range(n_trials):
        obs = simulate_outage(tree, sensor_list, hyp, rng=rng)
        est = detect(tree, sensor_list, obs, max_outages=max_outages, rho=rho)
        if est.hypothesis != hyp:
            wrong += 1
    p = wrong / n_trials
    se = math.sqrt(max(p * (1.0 - p), 1.0 / n_trials) / n_trials)
    return p, se


def area_max_error_oracle(area, stats, *, max_outages, cap, rho) -> float:
    """Worst missed detection by the per-pattern loop: single-hypothesis
    patterns are skipped, every other pattern contributes its worst entry."""
    from outagekit.errors import max_missed_detection, pattern_hypothesis_sets

    worst = 0.0
    sets = pattern_hypothesis_sets(area, stats, max_outages=max_outages, cap=cap, rho=rho)
    for _, hset in sets:
        if len(hset) > 1:
            worst = max(worst, max_missed_detection(hset))
    return worst


def error_distribution_oracle(tree: Tree, sensors, *, max_outages, cap=1_000_000, rho=None):
    """Missed detection of every (area, pattern, hypothesis) triple, each area
    built and evaluated from scratch."""
    from outagekit.detector import build_areas
    from outagekit.errors import all_missed_detection, pattern_hypothesis_sets
    from outagekit.network import cumulative_stats

    stats = cumulative_stats(tree)
    errors: list[float] = []
    for area in build_areas(tree, sensors):
        sets = pattern_hypothesis_sets(area, stats, max_outages=max_outages, cap=cap, rho=rho)
        for _, hset in sets:
            errors.extend(all_missed_detection(hset))
    return tuple(errors)


def budget_oracle(tree: Tree, budget: int, *, mode: str, config):
    """Budget bisection with a fresh ``solve_feasibility`` (and so a fresh
    area table) at every step."""
    from outagekit.placement import PlacementError, solve_feasibility

    def fits(t):
        p = solve_feasibility(tree, t, mode=mode, config=config)
        return p if p.n_added <= budget else None

    hi = 1.0
    best = fits(hi)
    if best is None:
        raise PlacementError("even the trivial target is over budget")
    lo = 0.0
    while hi - lo > config.bisect_tol:
        mid = 0.5 * (lo + hi)
        p = fits(mid)
        if p is None:
            lo = mid
        else:
            hi = mid
            best = p
    return best
