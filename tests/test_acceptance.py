"""Acceptance suite: one test per acceptance criterion, tolerances pinned.

Each test is a single pass/fail line under ``pytest -v``. Statistical checks
run on frozen seeds so a pass is reproducible.
"""
from __future__ import annotations

import itertools
import random
import time

import pytest

from helpers import (
    FAN_PARENTS,
    area_rooted,
    FIVE_EDGE_PARENTS,
    TRAP_PARENTS,
    TRAP_TARGET,
    TRAP_VARS,
    ScalarHypothesisSet,
    branch_products,
    brute_force_placement_oracle,
    conserve_check,
    detect_centralized_oracle,
    full_kary_graph,
    label_branches,
    local_hypotheses,
    monte_carlo_error,
    tree_from,
)
from outagekit.detector import build_areas, detect
from outagekit.errors import (
    all_missed_detection,
    area_max_error,
    missed_detection,
)
from outagekit.hypotheses import enumerate_unique
from outagekit.network import branch_decompose, cumulative_stats
from outagekit.placement import (
    PlacementError,
    evaluate_areas,
    solve_feasibility,
)
from outagekit.sim import ForecastModel, SweepConfig, random_tree, simulate_outage, sweep


def test_criterion_01_golden_enumeration_is_exact_and_fast():
    """Five-edge network: exactly eight hypotheses; enumeration < 1 ms."""
    tree = tree_from(FIVE_EDGE_PARENTS)
    graph = branch_decompose(tree)
    golden = {
        frozenset(),
        frozenset({"e1"}),
        frozenset({"e2"}),
        frozenset({"e3"}),
        frozenset({"e4"}),
        frozenset({"e5"}),
        frozenset({"e3", "e5"}),
        frozenset({"e4", "e5"}),
    }
    found = enumerate_unique(graph)
    assert set(found) == golden
    assert len(found) == 8
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        enumerate_unique(graph)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3, f"enumeration took {best * 1e3:.3f} ms"


def test_criterion_02_sign_pattern_rows_are_exact():
    """Two-sensor area: all four sign-pattern rows, labels and products exact."""
    tree = tree_from(FAN_PARENTS, variances=0.04)
    area = area_rooted(tree, ("r", "y2", "q2"), "r")
    expected = {
        (False, False): (
            ("U", "Z", "U", "U", "Z"),
            {
                frozenset({"x1"}),
                frozenset({"y1", "z1"}),
                frozenset({"y1", "q1"}),
                frozenset({"y1", "p1", "q1"}),
            },
        ),
        (False, True): (
            ("P", "Z", "P", "U", "P"),
            {frozenset({"y1"}), frozenset({"y1", "p1"})},
        ),
        (True, False): (
            ("P", "P", "U", "U", "Z"),
            {frozenset({"z1"}), frozenset({"q1"}), frozenset({"p1", "q1"})},
        ),
        (True, True): (
            ("P", "P", "P", "U", "P"),
            {frozenset(), frozenset({"p1"})},
        ),
    }
    for (y2, q2), (labels_row, products_row) in expected.items():
        pattern = {"y2": y2, "q2": q2}
        labels = label_branches(area.graph, pattern)
        assert tuple(labels[b] for b in ("x1", "y1", "z1", "p1", "q1")) == labels_row
        hyps = local_hypotheses(area.graph, pattern)
        assert branch_products(area.graph, hyps) == products_row
    assert conserve_check(area.graph, ("y2", "q2"))


def test_criterion_03_scalar_area_values_and_junction_choice():
    """Four worst-case area errors within 1e-3; greedy and exhaustive cuts
    disagree exactly as the error ordering dictates; < 1 s."""
    t0 = time.perf_counter()
    tree = tree_from(TRAP_PARENTS, variances=TRAP_VARS)
    stats = cumulative_stats(tree)

    def area_err(sensors, root):
        area = next(a for a in build_areas(tree, sensors) if a.root_sensor == root)
        return area_max_error(area, stats, max_outages=2, cap=10**6, rho=None)

    left_small = area_err(("e1", "e2", "e3"), "e2")
    right_small = area_err(("e1", "e2", "e5"), "e2")
    right_big = area_err(("e1", "e5"), "e1")
    left_big = area_err(("e1", "e3"), "e1")
    assert right_small == pytest.approx(0.1083, abs=1e-3)
    assert left_small == pytest.approx(0.0961, abs=1e-3)
    assert right_big == pytest.approx(0.1885, abs=1e-3)
    assert left_big == pytest.approx(0.1960, abs=1e-3)

    # the smaller immediate error sits on the left branch, so greedy cuts
    # there and must meter deeper; the right-branch cut already meets the
    # target on its own
    assert left_small < right_small
    greedy = solve_feasibility(tree, TRAP_TARGET, mode="greedy")
    assert greedy.sensors == ("e1", "e2", "e3")
    optimal = solve_feasibility(tree, TRAP_TARGET, mode="optimal")
    assert optimal.sensors == ("e1", "e5")
    assert right_big <= TRAP_TARGET < left_big
    assert time.perf_counter() - t0 < 1.0


def test_criterion_04_enumeration_counts_follow_binary_recursion():
    """Full binary branch trees, depth 1-3: counts obey C(d+1)=(C(d)+1)^2-1."""
    counts = {}
    for depth in (1, 2, 3):
        counts[depth] = len(enumerate_unique(full_kary_graph(depth))) - 1
    assert counts[1] == 15
    assert counts[2] == (counts[1] + 1) ** 2 - 1 == 255
    assert counts[3] == (counts[2] + 1) ** 2 - 1 == 65535


def test_criterion_05_decoupled_detection_equals_joint_oracle():
    """1,000 randomized instances: per-area picks joined equal the joint
    maximum-likelihood estimate (both uncapped); < 2 min."""
    t0 = time.perf_counter()
    rng = random.Random(505)
    trials = 0
    while trials < 1000:
        n = rng.randint(3, 12)
        kappa = rng.uniform(0.05, 0.5)
        tree = ForecastModel("fixed_kappa", kappa=kappa).apply(
            random_tree(n, seed=rng.randrange(2**30))
        )
        edges = list(tree.edges)
        root_edge = tree.children[tree.root][0]
        extra = rng.sample(edges, k=min(len(edges), rng.randint(0, 3)))
        sensors = sorted({root_edge, *extra})
        truth = set(rng.sample(edges, k=rng.randint(0, min(2, len(edges)))))
        for a, b in itertools.combinations(sorted(truth), 2):
            if tree.is_ancestor_edge(a, b):
                truth.discard(b)
            elif tree.is_ancestor_edge(b, a):
                truth.discard(a)
        obs = simulate_outage(tree, sensors, frozenset(truth), seed=rng.randrange(2**30))
        local = detect(tree, sensors, obs, max_outages=None).hypothesis
        joint = detect_centralized_oracle(tree, sensors, obs, max_outages=None)
        assert local == joint, (
            f"trial {trials}: local {sorted(local)} != joint {sorted(joint)}"
        )
        trials += 1
    assert time.perf_counter() - t0 < 120.0


def test_criterion_06_analytic_errors_match_million_sample_monte_carlo():
    """100 random scalar sets: closed form within 3 binomial standard errors
    of a 10^6-sample simulation; < 2 min."""
    t0 = time.perf_counter()
    rng = random.Random(606)
    for i in range(100):
        k_count = rng.randint(2, 8)
        entries = [
            (frozenset({f"h{j}"}), rng.uniform(0.0, 5.0), rng.uniform(0.01, 2.0))
            for j in range(k_count)
        ]
        hset = ScalarHypothesisSet.from_entries(entries, rho=None)
        k = rng.randrange(k_count)
        analytic = missed_detection(hset, k)
        p, se = monte_carlo_error(hset, k, 1_000_000, seed=1000 + i)
        assert abs(p - analytic) <= 3.0 * se, (
            f"set {i}: analytic {analytic:.6f}, simulated {p:.6f} ± {se:.6f}"
        )
    assert time.perf_counter() - t0 < 120.0


def test_criterion_07_nested_areas_never_get_easier():
    """500 nested-area pairs (root moved up, terminal moved down): the
    worst-case error never decreases, slack 1e-12."""
    rng = random.Random(707)

    def area_rooted(tree, root, placement):
        return next(a for a in build_areas(tree, placement) if a.root_sensor == root)

    pairs = 0
    while pairs < 500:
        n = rng.randint(5, 14)
        tree = ForecastModel("fixed_kappa", kappa=rng.uniform(0.05, 0.5)).apply(
            random_tree(n, seed=rng.randrange(2**30))
        )
        stats = cumulative_stats(tree)
        edges = list(tree.edges)
        root_edge = tree.children[tree.root][0]
        extra = rng.sample(edges, k=min(len(edges), rng.randint(0, 3)))
        sensors = frozenset([root_edge] + extra)
        for area_root in sorted(sensors):
            small = area_rooted(tree, area_root, sensors)
            grown = []
            parent_e = tree.parent[area_root]
            if parent_e != tree.root and parent_e not in sensors:
                up = (sensors - {area_root}) | {parent_e}
                grown.append(area_rooted(tree, parent_e, up))
            for c in small.child_sensors:
                down = (sensors - {c}) | set(tree.children[c])
                grown.append(area_rooted(tree, area_root, down))
            for big in grown:
                if pairs >= 500:
                    break
                assert set(small.vertices) < set(big.vertices)
                e_small = area_max_error(small, stats, max_outages=2, cap=10**6, rho=None)
                e_big = area_max_error(big, stats, max_outages=2, cap=10**6, rho=None)
                assert e_big >= e_small - 1e-12, (
                    f"nested pair shrank: {e_small:.12f} -> {e_big:.12f}"
                )
                pairs += 1


def test_criterion_08_variance_shifts_never_reduce_missed_detection():
    """10,000 load-shaped scalar sets, shifts of 0.01, 0.1 and 1: no
    hypothesis's missed detection drops by more than 1e-10."""
    rng = random.Random(4242)
    for _ in range(10_000):
        k_count = rng.randint(2, 8)
        total = rng.randint(k_count, 40)
        means = rng.sample(range(1, total + 1), k_count)
        kappa = rng.uniform(0.05, 0.6)
        entries = [
            (frozenset({f"h{m}"}), float(m), (kappa**2) * m) for m in means
        ]
        hset = ScalarHypothesisSet.from_entries(entries, rho=None)
        base = all_missed_detection(hset)
        for delta in (0.01, 0.1, 1.0):
            shifted = all_missed_detection(hset.with_variance_shift(delta))
            for a, b in zip(base, shifted):
                assert b >= a - 1e-10, f"delta {delta}: {a:.12f} -> {b:.12f}"


def test_criterion_09_placements_are_feasible_and_maximal():
    """Every feasibility solve passes independent re-evaluation; on line
    networks every rootward sensor shift breaks the target."""
    rng = random.Random(909)
    for _ in range(40):
        n = rng.randint(4, 18)
        tree = ForecastModel("fixed_kappa", kappa=rng.uniform(0.1, 0.4)).apply(
            random_tree(n, seed=rng.randrange(2**30))
        )
        target = rng.uniform(0.03, 0.35)
        mode = rng.choice(["greedy", "optimal"])
        try:
            placement = solve_feasibility(tree, target, mode=mode)
        except PlacementError:
            continue
        worst = max(e for _, e in evaluate_areas(tree, placement.sensors))
        assert worst <= target + 1e-12

    shifts_checked = 0
    for _ in range(10):
        length = rng.randint(5, 10)
        parents = {f"c{i}": (f"c{i-1}" if i > 1 else "root") for i in range(1, length + 1)}
        lvars = {f"c{i}": rng.uniform(0.01, 0.08) for i in range(1, length + 1)}
        line = tree_from(parents, variances=lvars)
        target = rng.uniform(0.08, 0.3)
        placement = solve_feasibility(line, target)
        assert placement.max_error <= target
        for s in placement.sensors:
            if s == "c1":
                continue
            parent = line.parent[s]
            if parent == line.root:
                continue
            moved = tuple(sorted((set(placement.sensors) - {s}) | {parent}))
            worst = max(e for _, e in evaluate_areas(line, moved))
            assert worst > target, (
                f"shift {s}->{parent} still meets {target:.3f} at {worst:.3f}"
            )
            shifts_checked += 1
    assert shifts_checked > 0


def test_criterion_10_minmax_and_product_objectives_agree_at_desk_scale():
    """10 random 15-vertex instances, five added sensors, low noise: the two
    exhaustive objectives pick the same placement on >= 8, and any
    disagreement has relative objective gap <= 10%; < 5 min."""
    t0 = time.perf_counter()
    model = ForecastModel("fixed_kappa", kappa=0.02)
    agreements = 0
    for seed in range(10):
        tree = model.apply(random_tree(15, seed=seed))
        result = brute_force_placement_oracle(tree, 5)
        if result.minmax_placement == result.product_placement:
            agreements += 1
        else:
            gap = (result.product_value - result.minmax_product) / result.product_value
            assert gap <= 0.10, f"seed {seed}: objective gap {gap:.4f}"
    assert agreements >= 8, f"objectives agreed on only {agreements}/10 instances"
    assert time.perf_counter() - t0 < 300.0


def test_criterion_11_density_falls_with_target_and_errors_stay_bounded():
    """Seeded 100-node tree: sensor density non-increasing in the target for
    both noise ratios; at target 0.2, ratio 0.3 the per-hypothesis error
    distribution has max <= 0.2 (tiny slack) and mean <= 0.1."""
    config = SweepConfig(
        kappas=(0.01, 0.3),
        targets=(0.05, 0.1, 0.2, 0.3),
        n_vertices=100,
        seed=0,
        mode="greedy",
        max_outages=1,
    )
    result = sweep(config)
    for kappa in config.kappas:
        densities = [r.density for r in result.rows if r.kappa == kappa]
        targets = [r.target for r in result.rows if r.kappa == kappa]
        assert targets == sorted(targets)
        for lo, hi in zip(densities, densities[1:]):
            assert hi <= lo + 1e-12, f"kappa {kappa}: density rose {lo} -> {hi}"
    hist = result.histograms[(0.3, 0.2)]
    assert max(hist) <= 0.2 + 1e-9
    assert sum(hist) / len(hist) <= 0.5 * 0.2
