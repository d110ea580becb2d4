"""Tree construction, branch decomposition, cumulative sums, feeder I/O."""
from __future__ import annotations

import random

import numpy as np
import pytest

from helpers import DEEP_PARENTS, caterpillar_parents, tree_from
from outagekit.detector import plan_for
from outagekit.network import (
    FeederFormatError,
    branch_decompose,
    build_tree,
    cumulative_stats,
    dump_feeder,
    load_feeder,
)
from outagekit.sim import kappa_of_load, random_tree


def branch_edge_sets(graph):
    return {b.id: b.edges for b in graph}


def test_build_tree_minimal():
    t = build_tree(
        [
            {"id": "a", "parent": None},
            {"id": "b", "parent": "a", "mean": 2.0, "var": 0.5},
        ]
    )
    assert t.root == "a"
    assert t.edges == ("b",)
    assert t.mean["b"] == 2.0
    assert t.var["b"] == 0.5
    assert t.mean["a"] == 0.0


def test_children_sorted_and_order_starts_at_root(five_edge_tree):
    assert five_edge_tree.children["e2"] == ("e3", "e5")
    assert five_edge_tree.order[0] == "root"
    assert set(five_edge_tree.order) == {"root", "e1", "e2", "e3", "e4", "e5"}


def test_build_tree_rejects_duplicate_id():
    with pytest.raises(FeederFormatError, match="duplicate"):
        build_tree(
            [
                {"id": "a", "parent": None},
                {"id": "b", "parent": "a"},
                {"id": "b", "parent": "a"},
            ]
        )


def test_build_tree_rejects_multiple_roots():
    with pytest.raises(FeederFormatError, match="root"):
        build_tree([{"id": "a", "parent": None}, {"id": "b", "parent": None}])


def test_build_tree_rejects_unknown_parent():
    with pytest.raises(FeederFormatError, match="unknown parent"):
        build_tree([{"id": "a", "parent": None}, {"id": "b", "parent": "zz"}])


def test_build_tree_rejects_cycle():
    with pytest.raises(FeederFormatError):
        build_tree(
            [
                {"id": "a", "parent": None},
                {"id": "b", "parent": "c"},
                {"id": "c", "parent": "b"},
            ]
        )


def test_build_tree_rejects_negative_loads():
    with pytest.raises(FeederFormatError, match="variance"):
        build_tree(
            [
                {"id": "a", "parent": None},
                {"id": "b", "parent": "a", "mean": 1.0, "var": -0.1},
            ]
        )
    with pytest.raises(FeederFormatError, match="mean"):
        build_tree(
            [
                {"id": "a", "parent": None},
                {"id": "b", "parent": "a", "mean": -1.0},
            ]
        )


def test_build_tree_rejects_root_load():
    with pytest.raises(FeederFormatError, match="root"):
        build_tree(
            [
                {"id": "a", "parent": None, "mean": 3.0},
                {"id": "b", "parent": "a"},
            ]
        )


def test_vertex_helpers(five_edge_tree):
    t = five_edge_tree
    assert t.depth("root") == 0
    assert t.depth("e1") == 1
    assert t.depth("e4") == 4
    assert t.descendant_vertices("e2") == {"e2", "e3", "e4", "e5"}
    assert t.is_ancestor_edge("e1", "e4")
    assert not t.is_ancestor_edge("e4", "e1")
    assert t.is_ancestor_edge("e3", "e3")
    assert not t.is_ancestor_edge("e3", "e5")


def test_with_loads_keeps_topology_and_checks(five_edge_tree):
    t = five_edge_tree.with_loads(var={"e3": 2.0})
    assert t.var["e3"] == 2.0
    assert t.var["e4"] == 1e-4
    assert t.children == five_edge_tree.children
    with pytest.raises(FeederFormatError):
        five_edge_tree.with_loads(mean={"e1": -2.0})


def test_with_loads_rejects_unknown_and_infinite_loads(five_edge_tree):
    with pytest.raises(FeederFormatError, match=r"\['yy', 'zz'\]"):
        five_edge_tree.with_loads(mean={"e2": 1.0, "zz": 1.0}, var={"yy": 1.0})
    with pytest.raises(FeederFormatError, match="mean"):
        five_edge_tree.with_loads(mean={"e2": float("inf")})
    with pytest.raises(FeederFormatError, match="variance"):
        five_edge_tree.with_loads(var={"e2": float("inf")})


def test_branch_decompose_deep_comb_needs_no_recursion():
    # every spine vertex is a junction, so branches nest as deep as the spine
    n = 3000
    parents = {"s1": "root"}
    for i in range(2, n + 1):
        parents[f"s{i}"] = f"s{i - 1}"
        parents[f"t{i}"] = f"s{i - 1}"
    graph = branch_decompose(tree_from(parents))
    assert len(graph.branches) == 2 * n - 1
    assert graph.roots == ("s1",)
    assert graph.branches[f"s{n - 1}"].children == (f"s{n}", f"t{n}")
    assert graph.edge_count() == 2 * n - 1


def test_branch_decompose_five_edge(five_edge_tree):
    graph = branch_decompose(five_edge_tree)
    assert branch_edge_sets(graph) == {
        "e1": ("e1", "e2"),
        "e3": ("e3", "e4"),
        "e5": ("e5",),
    }
    assert graph.roots == ("e1",)
    assert graph.branches["e1"].children == ("e3", "e5")
    assert graph.edge_count() == 5


def test_branch_decompose_deep(deep_tree):
    graph = branch_decompose(deep_tree)
    assert branch_edge_sets(graph) == {
        "e1": ("e1", "e2", "e3"),
        "e4": ("e4", "e5", "e6", "e7"),
        "e8": ("e8", "e9", "e10", "e11", "e12"),
        "e13": ("e13", "e14", "e15"),
        "e16": ("e16", "e17", "e18"),
    }
    assert graph.branches["e1"].children == ("e4", "e8")
    assert graph.branches["e8"].children == ("e13", "e16")
    assert graph.branches["e4"].children == ()


def test_sensor_splits_branch_below_it(deep_tree):
    # the metered edge stays at the bottom of the upstream branch
    graph = branch_decompose(deep_tree, sensors=("e10",))
    sets = branch_edge_sets(graph)
    assert sets["e8"] == ("e8", "e9", "e10")
    assert sets["e11"] == ("e11", "e12")
    assert graph.branches["e8"].children == ("e11",)
    assert graph.branches["e11"].children == ("e13", "e16")


def test_sensor_on_branch_bottom_changes_nothing(five_edge_tree):
    plain = branch_edge_sets(branch_decompose(five_edge_tree))
    metered = branch_edge_sets(branch_decompose(five_edge_tree, sensors=("e4",)))
    assert plain == metered


def test_decompose_within_subset(deep_tree):
    graph = branch_decompose(deep_tree, within={"e11", "e12"})
    assert branch_edge_sets(graph) == {"e11": ("e11", "e12")}
    assert graph.branches["e11"].children == ()


def test_decompose_rejects_unknown_edge(five_edge_tree):
    with pytest.raises(FeederFormatError, match="unknown edge"):
        branch_decompose(five_edge_tree, sensors=("nope",))


def test_cumulative_stats_five_edge():
    t = tree_from(
        {"e1": "root", "e2": "e1", "e3": "e2", "e4": "e3", "e5": "e2"},
        variances=1.0,
    )
    stats = cumulative_stats(t)
    assert stats.mean[stats.position["e1"]] == 5.0
    assert stats.mean[stats.position["e5"]] == 1.0
    assert stats.var[stats.position["e2"]] == 4.0
    assert stats.total_mean == 5.0


def test_cumulative_stats_deep(deep_tree):
    stats = cumulative_stats(deep_tree)
    # e8 keeps both lower junctions in its subtree
    assert stats.mean[stats.position["e8"]] == 11.0
    assert stats.mean[stats.position["e4"]] == 4.0
    assert stats.mean[stats.position["e1"]] == 18.0


def test_cumulative_stats_match_subtree_sums():
    rng = random.Random(31)
    for _ in range(25):
        t = random_tree(rng.randint(2, 30), seed=rng.randrange(10**6))
        t = t.with_loads(var={e: rng.uniform(0.1, 2.0) for e in t.edges})
        stats = cumulative_stats(t)
        for e in t.edges:
            sub = t.descendant_vertices(e)
            assert stats.mean[stats.position[e]] == pytest.approx(sum(t.mean[v] for v in sub))
            assert stats.var[stats.position[e]] == pytest.approx(sum(t.var[v] for v in sub))


def _same_floats(a, b) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_cumulative_stats_equal_the_plan_moments_bit_for_bit():
    rng = random.Random(47)
    trees = []
    for _ in range(20):
        t = random_tree(rng.randint(2, 200), seed=rng.randrange(10**6), max_children=rng.randint(1, 4))
        trees.append(t.with_loads(var={e: rng.uniform(0.01, 3.0) for e in t.edges}))
    trees.append(tree_from(caterpillar_parents(3000), means=1.1, variances=0.07))
    for t in trees:
        stats = cumulative_stats(t)
        moments = plan_for(t, ())._moments(t)
        assert stats.position == moments.position
        assert list(stats.position) == list(t.order)
        assert _same_floats(stats.mean, moments.mean)
        assert _same_floats(stats.var, moments.var)
        assert stats.total_mean == moments.total_mean
        assert stats.mean[0] == stats.var[0] == 0.0


def test_load_feeder_adds_root_sensor(tmp_path):
    data = {
        "vertices": [
            {"id": "root", "parent": None},
            {"id": "a", "parent": "root", "mean": 1.0, "sigma2": 0.2},
            {"id": "b", "parent": "a", "mean": 2.0, "sigma2": 0.3},
        ],
        "sensors": ["b"],
    }
    tree, sensors = load_feeder(data)
    assert sensors == ("a", "b")
    assert tree.var["b"] == 0.3

    path = tmp_path / "net.json"
    import json

    path.write_text(json.dumps(data))
    tree2, sensors2 = load_feeder(str(path))
    assert tree2.mean == tree.mean
    assert sensors2 == sensors


def test_load_feeder_kappa_derived_variance():
    data = {
        "vertices": [
            {"id": "root", "parent": None},
            {"id": "a", "parent": "root", "mean": 4.0, "kappa_derived": True},
        ],
        "sensors": [],
    }
    tree, _ = load_feeder(data)
    assert tree.var["a"] == pytest.approx((kappa_of_load(4.0) * 4.0) ** 2)


def test_load_feeder_rejects_bad_input():
    with pytest.raises(FeederFormatError):
        load_feeder({"sensors": []})
    with pytest.raises(FeederFormatError, match="unknown edge"):
        load_feeder(
            {
                "vertices": [
                    {"id": "root", "parent": None},
                    {"id": "a", "parent": "root", "mean": 1.0},
                ],
                "sensors": ["zz"],
            }
        )
    # two feeder heads: the implicit root sensor would be ambiguous
    with pytest.raises(FeederFormatError, match="outgoing"):
        load_feeder(
            {
                "vertices": [
                    {"id": "root", "parent": None},
                    {"id": "a", "parent": "root", "mean": 1.0},
                    {"id": "b", "parent": "root", "mean": 1.0},
                ],
            }
        )


def test_feeder_round_trip(trap_tree):
    doc = dump_feeder(trap_tree, ["e1", "e5"])
    back, sensors = load_feeder(doc)
    assert back.mean == trap_tree.mean
    assert back.var == trap_tree.var
    assert back.children == trap_tree.children
    assert sensors == ("e1", "e5")


def test_load_feeder_rejects_bad_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FeederFormatError, match="invalid JSON"):
        load_feeder(str(path))
