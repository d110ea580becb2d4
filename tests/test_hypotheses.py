"""Hypothesis enumeration, sign-pattern labeling, and conservation."""
from __future__ import annotations

import random

import pytest

from helpers import (
    area_rooted,
    brute_antichains,
    conserve_check,
    full_kary_graph,
    induced_pattern,
    label_branches,
    local_hypotheses,
    tree_from,
)
from outagekit.detector import build_areas
from outagekit.hypotheses import EnumerationCapError, enumerate_unique, hypothesis_sort_key
from outagekit.network import branch_decompose
from outagekit.sim import random_tree

FIVE_EDGE_GOLDEN = {
    frozenset(),
    frozenset({"e1"}),
    frozenset({"e2"}),
    frozenset({"e3"}),
    frozenset({"e4"}),
    frozenset({"e5"}),
    frozenset({"e3", "e5"}),
    frozenset({"e4", "e5"}),
}


def test_five_edge_enumeration_is_golden(five_edge_tree):
    graph = branch_decompose(five_edge_tree)
    found = enumerate_unique(graph)
    assert set(found) == FIVE_EDGE_GOLDEN
    assert len(found) == len(FIVE_EDGE_GOLDEN)


def test_enumeration_matches_brute_force_antichains():
    rng = random.Random(11)
    for _ in range(40):
        tree = random_tree(rng.randint(2, 11), seed=rng.randrange(10**6))
        graph = branch_decompose(tree)
        cap = rng.choice([None, 1, 2, 3])
        found = enumerate_unique(graph, max_outages=cap)
        expected = brute_antichains(tree, tree.edges, max_outages=cap)
        assert set(found) == expected
        assert len(found) == len(expected)


def test_max_outages_bounds_cardinality(deep_tree):
    graph = branch_decompose(deep_tree)
    for bound in (0, 1, 2):
        for h in enumerate_unique(graph, max_outages=bound):
            assert len(h) <= bound
    assert set(enumerate_unique(graph, max_outages=0)) == {frozenset()}


def test_negative_outage_bound_is_rejected(deep_tree):
    with pytest.raises(ValueError, match="max_outages"):
        enumerate_unique(branch_decompose(deep_tree), max_outages=-1)


def test_enumeration_cap_aborts():
    graph = full_kary_graph(3)
    with pytest.raises(EnumerationCapError):
        enumerate_unique(graph, cap=1000)


def test_unbounded_merge_over_the_cap_is_refused_before_it_is_built():
    # each hub alone has 2^17 hypotheses, within the default cap; their
    # product, 2^34 sets, must be refused, not built and then counted
    parents = {"head": "root", "h1": "head", "h2": "head"}
    for hub in ("h1", "h2"):
        parents.update({f"{hub}_{i}": hub for i in range(17)})
    graph = branch_decompose(tree_from(parents))
    with pytest.raises(EnumerationCapError, match="cap of 1000000"):
        enumerate_unique(graph)


def test_nonempty_counts_follow_junction_recursion():
    # a three-edge stem contributes 3 cut choices plus "none"; K subtrees
    # multiply: count(d+1) = (count(d) + 1)^K - 1
    for arity, depths, first in ((2, (1, 2, 3), 15), (3, (1, 2), 63)):
        expect = first
        for d in depths:
            graph = full_kary_graph(d, arity=arity)
            found = enumerate_unique(graph)
            assert len(found) - 1 == expect
            expect = (expect + 1) ** arity - 1


def test_fan_label_rows(fan_tree):
    area = area_rooted(fan_tree, ("r", "y2", "q2"), "r")
    rows = {
        (False, False): ("U", "Z", "U", "U", "Z"),
        (False, True): ("P", "Z", "P", "U", "P"),
        (True, False): ("P", "P", "U", "U", "Z"),
        (True, True): ("P", "P", "P", "U", "P"),
    }
    for (y2, q2), expected in rows.items():
        labels = label_branches(area.graph, {"y2": y2, "q2": q2})
        assert tuple(labels[b] for b in ("x1", "y1", "z1", "p1", "q1")) == expected


def test_fan_pattern_sizes_and_empty_membership(fan_tree):
    area = area_rooted(fan_tree, ("r", "y2", "q2"), "r")
    sizes = {}
    for y2 in (False, True):
        for q2 in (False, True):
            hyps = local_hypotheses(area.graph, {"y2": y2, "q2": q2})
            sizes[(y2, q2)] = len(hyps)
            # only the all-positive pattern admits "nothing failed"
            assert (frozenset() in hyps) == (y2 and q2)
    assert sizes == {
        (False, False): 16,
        (False, True): 6,
        (True, False): 7,
        (True, True): 3,
    }


def test_local_hypotheses_equal_brute_sign_filtering():
    rng = random.Random(23)
    for _ in range(30):
        tree = random_tree(rng.randint(4, 11), seed=rng.randrange(10**6))
        edges = list(tree.edges)
        root_edge = tree.children[tree.root][0]
        picks = [e for e in rng.sample(edges, k=min(3, len(edges))) if e != root_edge]
        areas = build_areas(tree, [root_edge] + picks)
        full = {a.root_sensor: set(enumerate_unique(a.graph)) for a in areas if a.edges}
        for area in areas:
            if not area.edges:
                continue
            sensors = sorted(area.child_sensors)
            for mask in range(2 ** len(sensors)):
                pattern = {s: bool(mask >> i & 1) for i, s in enumerate(sensors)}
                got = set(local_hypotheses(area.graph, pattern))
                want = {
                    h
                    for h in full[area.root_sensor]
                    if induced_pattern(tree, h, sensors) == pattern
                }
                assert got == want


def test_dark_pattern_needs_enough_outages(fan_tree):
    area = area_rooted(fan_tree, ("r", "y2", "q2"), "r")
    dark = {"y2": False, "q2": False}
    # a single cut darkening both sensors must sit on the shared chain
    singles = local_hypotheses(area.graph, dark, max_outages=1)
    assert set(singles) == {frozenset({"x1"}), frozenset({"x2"})}
    # with no cuts allowed the pattern is unsatisfiable
    assert local_hypotheses(area.graph, dark, max_outages=0) == ()


def test_conserve_check_fixtures(fan_tree, deep_tree):
    area = area_rooted(fan_tree, ("r", "y2", "q2"), "r")
    assert conserve_check(area.graph, ("y2", "q2"))
    upper = area_rooted(deep_tree, ("e1", "e10"), "e1")
    assert conserve_check(upper.graph, ("e10",))


def test_conserve_check_random():
    rng = random.Random(5)
    for _ in range(15):
        tree = random_tree(rng.randint(4, 12), seed=rng.randrange(10**6))
        edges = list(tree.edges)
        root_edge = tree.children[tree.root][0]
        picks = [e for e in rng.sample(edges, k=min(2, len(edges))) if e != root_edge]
        for area in build_areas(tree, [root_edge] + picks):
            if area.edges:
                assert conserve_check(area.graph, sorted(area.child_sensors))


def test_sort_key_orders_by_size_then_ids():
    items = [
        frozenset({"e9"}),
        frozenset({"e1", "e2"}),
        frozenset(),
        frozenset({"e10"}),
    ]
    items.sort(key=hypothesis_sort_key)
    assert items == [
        frozenset(),
        frozenset({"e10"}),
        frozenset({"e9"}),
        frozenset({"e1", "e2"}),
    ]
