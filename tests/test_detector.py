"""Area construction and maximum-likelihood outage identification."""
from __future__ import annotations

import copy
import dataclasses
import json
import random

import numpy as np
import pytest

from helpers import (
    DEEP_PARENTS,
    FIVE_EDGE_PARENTS,
    TRAP_PARENTS,
    TRAP_VARS,
    detect_centralized_oracle,
    effective_measurement,
    scalar_detect_oracle,
    sensed_parent_oracle,
    tree_from,
)
from outagekit.detector import (
    DetectionError,
    DetectorPlan,
    InconsistentObservationError,
    Observation,
    ObservationFormatError,
    build_areas,
    detect,
    hypothesis_stats,
    observation_from_json,
    plan_for,
)
from outagekit.hypotheses import EnumerationCapError
from outagekit.network import FeederFormatError, build_tree, cumulative_stats
from outagekit.placement import PlacementConfig, solve_feasibility
from outagekit.sim import ForecastModel, empirical_detection_rate, random_tree, simulate_outage


def test_two_sensor_areas_on_deep_tree(deep_tree):
    areas = build_areas(deep_tree, ("e1", "e11"))
    by_root = {a.root_sensor: a for a in areas}
    assert set(by_root) == {"e1", "e11"}
    upper = by_root["e1"]
    assert upper.child_sensors == ("e11",)
    assert set(upper.edges) == {f"e{i}" for i in range(2, 12)}
    assert set(upper.vertices) == {f"e{i}" for i in range(1, 11)}
    lower = by_root["e11"]
    assert lower.child_sensors == ()
    assert set(lower.edges) == {f"e{i}" for i in range(12, 19)}
    assert set(lower.vertices) == {f"e{i}" for i in range(11, 19)}


def test_areas_partition_edges_and_vertices():
    rng = random.Random(17)
    for _ in range(25):
        tree = random_tree(rng.randint(3, 20), seed=rng.randrange(10**6))
        edges = list(tree.edges)
        root_edge = tree.children[tree.root][0]
        extra = rng.sample(edges, k=min(len(edges), rng.randint(0, 4)))
        sensors = {root_edge, *extra}
        areas = build_areas(tree, sensors)
        assert sorted(a.root_sensor for a in areas) == sorted(sensors)
        seen_edges: list[str] = []
        seen_vertices: list[str] = []
        for a in areas:
            seen_edges.extend(a.edges)
            seen_vertices.extend(a.vertices)
        # every edge except the feeder head belongs to exactly one area;
        # child sensor edges sit in the area above them
        assert sorted(seen_edges) == sorted(set(edges) - {root_edge})
        assert len(seen_edges) == len(set(seen_edges))
        assert sorted(seen_vertices) == sorted(edges)


def test_effective_measurement(deep_tree):
    area = build_areas(deep_tree, ("e1", "e11"))[0]
    assert effective_measurement(area, {"e1": 9.5, "e11": 2.5}) == pytest.approx(7.0)
    with pytest.raises(DetectionError, match="missing flow"):
        effective_measurement(area, {"e1": 9.5})


def test_hypothesis_stats_exact(trap_tree):
    stats = cumulative_stats(trap_tree)
    area = next(
        a for a in build_areas(trap_tree, ("e1", "e2", "e3")) if a.root_sensor == "e2"
    )
    dark = {"e3": False}
    assert hypothesis_stats(area, frozenset({"e3"}), dark, stats) == (
        pytest.approx(3.0),
        pytest.approx(0.1638),
    )
    assert hypothesis_stats(area, frozenset({"e3", "e6"}), dark, stats) == (
        pytest.approx(2.0),
        pytest.approx(0.1031),
    )
    assert hypothesis_stats(area, frozenset({"e3", "e5"}), dark, stats) == (
        pytest.approx(1.0),
        pytest.approx(0.0125),
    )
    # a positive child sensor removes its subtree from the measurement
    assert hypothesis_stats(area, frozenset(), {"e3": True}, stats) == (
        pytest.approx(3.0),
        pytest.approx(0.1638),
    )


def test_hypothesis_stats_rejects_certain_measurement():
    tree = tree_from({"a": "root", "b": "a"}, variances={"a": 0.0, "b": 1.0})
    stats = cumulative_stats(tree)
    area = build_areas(tree, ("a",))[0]
    with pytest.raises(ValueError, match="variance"):
        hypothesis_stats(area, frozenset({"b"}), {}, stats)


def test_detect_no_outage(five_edge_tree):
    det = detect(five_edge_tree, ["e1"], Observation(flows={"e1": 5.0}))
    assert det.hypothesis == frozenset()
    assert det.areas[0].root_sensor == "e1"


def test_detect_single_missing_unit(five_edge_tree):
    # both leaf cuts explain the reading exactly; ties resolve to the
    # lexicographically first edge set
    stats = cumulative_stats(five_edge_tree)
    area = build_areas(five_edge_tree, ("e1",))[0]
    s4 = hypothesis_stats(area, frozenset({"e4"}), {}, stats)
    s5 = hypothesis_stats(area, frozenset({"e5"}), {}, stats)
    assert s4 == s5
    det = detect(five_edge_tree, ["e1"], Observation(flows={"e1": 4.0}))
    assert det.hypothesis == frozenset({"e4"})
    assert det.areas[0].loglik == pytest.approx(2.9930844722234733)


def test_detect_dark_root(five_edge_tree):
    det = detect(five_edge_tree, ["e1"], Observation(flows={"e1": 0.0}))
    assert det.hypothesis == frozenset({"e1"})
    # readings below the noise floor count as dark
    det = detect(five_edge_tree, ["e1"], Observation(flows={"e1": 1e-15}))
    assert det.hypothesis == frozenset({"e1"})


def test_detect_dark_child_sensor():
    tree = tree_from(DEEP_PARENTS, variances=1e-4)
    obs = Observation(flows={"e1": 10.0, "e11": 0.0})
    det = detect(tree, ["e1", "e11"], obs)
    assert det.hypothesis == frozenset({"e11"})
    # the dark sensor's own area is pruned: nothing below it is decidable
    assert [a.root_sensor for a in det.areas] == ["e1"]
    assert sorted(detect_centralized_oracle(tree, ["e1", "e11"], obs)) == ["e11"]


def test_detect_rejects_inconsistent_observation():
    tree = tree_from(DEEP_PARENTS, variances=1e-4)
    with pytest.raises(InconsistentObservationError):
        detect(tree, ["e1", "e11"], Observation(flows={"e1": 0.0, "e11": 2.0}))


def test_detect_rejects_missing_reading(five_edge_tree):
    with pytest.raises(DetectionError, match="missing flow"):
        detect(five_edge_tree, ["e1"], Observation(flows={}))


def test_forecast_override_rescales_means(five_edge_tree):
    forecasts = {e: 2.0 for e in five_edge_tree.edges}
    obs = Observation(flows={"e1": 8.0}, forecasts=forecasts)
    det = detect(five_edge_tree, ["e1"], obs)
    assert det.hypothesis == frozenset({"e4"})


def test_observation_from_json():
    obs = observation_from_json({"flows": {"e1": 4}, "forecasts": {"e2": 1.5}})
    assert obs.flows == {"e1": 4.0}
    assert obs.forecasts == {"e2": 1.5}
    assert observation_from_json({"flows": {}}).forecasts is None
    with pytest.raises(ObservationFormatError):
        observation_from_json({"readings": {}})


def test_prior_pulls_toward_larger_hypotheses():
    tree = tree_from(
        FIVE_EDGE_PARENTS,
        means={"e1": 1.0, "e2": 1.0, "e3": 1.0, "e4": 1.0, "e5": 1.2},
        variances=0.04,
    )
    obs = Observation(flows={"e1": 3.0})
    sizes = [
        len(detect(tree, ["e1"], obs, rho=rho).hypothesis)
        for rho in (0.05, 0.3, 0.6, 0.9)
    ]
    assert sizes == sorted(sizes)
    assert sizes[0] == 1
    assert sizes[-1] == 2


def test_decoupled_matches_centralized_oracle():
    # per-area picks joined together must equal the joint-likelihood argmax
    rng = random.Random(404)
    model = ForecastModel("fixed_kappa", kappa=0.15)
    for trial in range(150):
        tree = model.apply(
            random_tree(rng.randint(3, 10), seed=rng.randrange(10**6))
        )
        edges = list(tree.edges)
        root_edge = tree.children[tree.root][0]
        extra = rng.sample(edges, k=min(len(edges), rng.randint(0, 3)))
        sensors = sorted({root_edge, *extra})
        pool = [e for e in edges]
        truth = frozenset(rng.sample(pool, k=rng.randint(0, 2)))
        for a in list(truth):
            for b in list(truth):
                if a != b and tree.is_ancestor_edge(a, b):
                    truth = truth - {b}
        obs = simulate_outage(tree, sensors, truth, seed=rng.randrange(10**6))
        got = detect(tree, sensors, obs, max_outages=None).hypothesis
        want = detect_centralized_oracle(tree, sensors, obs, max_outages=None)
        assert got == want


def test_detection_report_shape(trap_tree):
    obs = Observation(flows={"e1": 6.0, "e5": 2.0})
    det = detect(trap_tree, ["e1", "e5"], obs)
    doc = det.to_json()
    assert set(doc) == {"global", "areas"}
    assert doc["global"] == sorted(det.hypothesis)
    assert {a["root"] for a in doc["areas"]} == {"e1", "e5"}


def test_plan_cache_keeps_topologies_apart():
    # same vertex ids, different parents: v3 hangs below v2, then below v1
    chain = tree_from({"v1": "v0", "v2": "v1", "v3": "v2"}, variances=1e-4)
    fork = tree_from({"v1": "v0", "v2": "v1", "v3": "v1"}, variances=1e-4)
    assert plan_for(chain, ["v1"]) is not plan_for(fork, ["v1"])
    assert plan_for(chain, ["v1"]).areas[0].graph != plan_for(fork, ["v1"]).areas[0].graph
    # losing v2's load means cutting v2 alone on the fork, but v3 goes with it on the chain
    obs = Observation(flows={"v1": 2.0})
    assert detect(chain, ["v1"], obs).hypothesis == frozenset({"v3"})
    assert detect(fork, ["v1"], obs).hypothesis == frozenset({"v2"})
    obs = Observation(flows={"v1": 1.0})
    assert detect(chain, ["v1"], obs).hypothesis == frozenset({"v2"})
    assert detect(fork, ["v1"], obs).hypothesis == frozenset({"v2", "v3"})


def test_plan_cache_keys_on_sensor_set(deep_tree):
    one = plan_for(deep_tree, ["e1"])
    two = plan_for(deep_tree, ["e1", "e11"])
    assert one is not two
    assert [a.root_sensor for a in two.areas] == ["e1", "e11"]
    # the root edge is metered implicitly, so these name the same set
    assert plan_for(deep_tree, []) is one
    assert plan_for(deep_tree.with_loads(mean={"e4": 3.0}), ["e11"]) is two


def test_reused_plan_matches_fresh_forecast_tree():
    tree = ForecastModel("fixed_kappa", kappa=0.3).apply(random_tree(80, seed=21))
    sensors = solve_feasibility(tree, 0.2, config=PlacementConfig(max_outages=2)).sensors
    rng = random.Random(5)
    edges = list(tree.edges)
    for i in range(30):
        truth = frozenset(rng.sample(edges[1:], k=i % 3))
        flows = simulate_outage(tree, sensors, truth, seed=i).flows
        factor = rng.uniform(0.9, 1.1)
        means = {v: tree.mean[v] * factor for v in edges}
        got = detect(tree, sensors, Observation(flows=flows, forecasts=means))
        # rebuilt from records: new parent and children mappings, a new plan
        fresh = build_tree(
            {"id": v, "parent": tree.parent[v], "mean": means.get(v, 0.0), "var": tree.var[v]}
            for v in tree.order
        )
        assert plan_for(fresh, sensors) is not plan_for(tree, sensors)
        assert got == detect(fresh, sensors, Observation(flows=flows))


def test_tie_break_survives_plan_reuse(five_edge_tree):
    plan = DetectorPlan(five_edge_tree, ["e1"])
    stats = cumulative_stats(five_edge_tree)
    assert plan.detect(stats, {"e1": 5.0}).hypothesis == frozenset()
    for _ in range(2):
        det = detect(five_edge_tree, ["e1"], Observation(flows={"e1": 4.0}))
        assert det.hypothesis == frozenset({"e4"})
        assert plan.detect(stats, {"e1": 4.0}) == det


def test_deferred_area_records_never_alias():
    tree = ForecastModel("fixed_kappa", kappa=0.3).apply(random_tree(120, seed=8))
    sensors = solve_feasibility(tree, 0.2, config=PlacementConfig(max_outages=2)).sensors
    plan = plan_for(tree, sensors)
    edges = list(tree.edges)[1:]
    inner = [s for s in plan.sensors if s != plan.root_edge]
    assert inner, "the placement must give some area a child sensor"
    rng = random.Random(3)

    def observe(i: int) -> Observation:
        # 0-2 outages; every third darkens a child sensor
        truth = set(rng.sample(edges, k=i % 3))
        if i % 3 == 1:
            truth = {rng.choice(inner)}
        flows = simulate_outage(tree, sensors, truth, seed=i).flows
        factor = rng.uniform(0.9, 1.1) if i % 2 else 1.0
        return Observation(flows=flows, forecasts={v: tree.mean[v] * factor for v in tree.edges})

    kept = detect(tree, sensors, observe(1))
    assert len(kept.root_sensors) > 1 and kept.root_sensors != plan.sensors
    twin = copy.deepcopy(kept)
    want_areas = [tuple(a) for a in twin.areas]
    want_json = json.dumps(twin.to_json())
    assert want_areas == list(zip(twin.root_sensors, twin.picks, twin.logliks))

    for i in range(2, 52):
        detect(tree, sensors, observe(i))
    empirical_detection_rate(tree, sensors, {inner[0]}, 50, seed=2)
    assert plan_for(tree, sensors) is plan

    assert kept.areas == tuple(want_areas)
    assert json.dumps(kept.to_json()) == want_json
    assert kept.areas is kept.areas

    # equality compares the estimate and every (root_sensor, hypothesis, loglik)
    obs = observe(52)
    read, unread = detect(tree, sensors, obs), detect(tree, sensors, obs)
    assert read.areas and read == unread
    first = kept.areas[0]
    assert first == (first.root_sensor, first.hypothesis, first.loglik)
    for change in (
        dict(hypothesis=kept.hypothesis | {"elsewhere"}),
        dict(root_sensors=kept.root_sensors[::-1]),
        dict(picks=(kept.picks[0] | {"elsewhere"},) + kept.picks[1:]),
        dict(logliks=(kept.logliks[0] + 1e-9,) + kept.logliks[1:]),
    ):
        assert dataclasses.replace(kept, **change) != kept
    assert dataclasses.replace(kept) == kept


def test_detect_rejects_non_finite_flows(five_edge_tree):
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ObservationFormatError, match="non-finite"):
            detect(five_edge_tree, ["e1"], Observation(flows={"e1": bad}))
        with pytest.raises(ObservationFormatError, match="'e1'"):
            observation_from_json({"flows": {"e1": bad}})


def test_detect_rejects_unknown_forecast_ids(five_edge_tree):
    obs = Observation(flows={"e1": 5.0}, forecasts={"e2": 1.0, "zz": 1.0})
    with pytest.raises(FeederFormatError, match="zz"):
        detect(five_edge_tree, ["e1"], obs)


def test_two_feeder_heads_are_a_format_error():
    tree = tree_from({"a": "root", "b": "root"}, variances=0.01)
    with pytest.raises(FeederFormatError, match="outgoing"):
        DetectorPlan(tree, [])
    with pytest.raises(FeederFormatError, match="outgoing"):
        solve_feasibility(tree, 0.2)


def test_sensed_parent_equals_vertex_walk():
    rng = random.Random(29)
    for _ in range(100):
        tree = random_tree(rng.randint(2, 40), seed=rng.randrange(10**6))
        sensors = rng.sample(tree.edges, k=rng.randint(0, len(tree.edges)))
        plan = DetectorPlan(tree, sensors)
        assert plan._sensed_parent.tolist() == sensed_parent_oracle(tree, plan.sensors)


def test_negative_outage_bound_is_rejected(five_edge_tree):
    obs = Observation(flows={"e1": 0.0})
    with pytest.raises(ValueError, match="max_outages"):
        detect(five_edge_tree, ["e1"], obs, max_outages=-1)
    with pytest.raises(ValueError, match="max_outages"):
        DetectorPlan(five_edge_tree, ["e1"]).hypotheses(0, (), max_outages=-1, cap=100)


def _outcome(fn):
    """``fn()``'s result, or the type and message of what it raised."""
    try:
        return fn()
    except (DetectionError, EnumerationCapError, ValueError) as exc:
        return type(exc), str(exc)


def _random_case(rng: random.Random):
    """A seeded feeder, sensor set and simulated observation of 0-2 outages.

    Some feeders carry loads with no forecast variance and some sensors are
    dropped from the readings, so every check of the scoring loop fires.
    """
    tree = ForecastModel("fixed_kappa", kappa=rng.choice((0.05, 0.3))).apply(
        random_tree(rng.randint(3, 25), seed=rng.randrange(10**6))
    )
    edges = list(tree.edges)
    if rng.random() < 0.2:
        tree = tree.with_loads(var={v: 0.0 for v in rng.sample(edges, k=len(edges) // 2)})
    sensors = sorted({edges[0], *rng.sample(edges, k=rng.randint(0, len(edges) // 2))})
    while True:
        truth = frozenset(rng.sample(edges[1:], k=min(len(edges) - 1, rng.randint(0, 2))))
        if not any(a != b and tree.is_ancestor_edge(a, b) for a in truth for b in truth):
            break
    obs = simulate_outage(tree, sensors, truth, seed=rng.randrange(10**6))
    if rng.random() < 0.05:
        flows = dict(obs.flows)
        del flows[rng.choice(sorted(flows))]
        obs = Observation(flows=flows, forecasts=obs.forecasts)
    return tree, sensors, obs


def test_compiled_kernel_equals_scalar_oracle():
    rng = random.Random(1717)
    equal = tree_from(FIVE_EDGE_PARENTS, variances=0.01)
    cases = [_random_case(rng) for _ in range(80)]
    cases += [(equal, ["e1"], Observation(flows={"e1": f})) for f in (5.0, 4.0, 3.0, 2.0)]
    # the upper area has no variance left, and with max_outages=0 the lower
    # area has no hypothesis for its dark child: the upper area's error wins
    chain = tree_from(
        {"a": "root", "b": "a", "c": "b", "d": "c", "e": "d"},
        variances={"a": 0.0, "b": 0.0, "c": 0.1, "d": 0.1, "e": 0.1},
    )
    cases.append((chain, ["a", "c", "e"], Observation(flows={"a": 4.0, "c": 2.0, "e": 0.0})))
    raised = set()
    for tree, sensors, obs in cases:
        plan = DetectorPlan(tree, sensors)
        stats = cumulative_stats(tree)
        for max_outages in (0, 1, 2, None):
            for rho in (None, 0.2):
                for cap in (1_000_000, 6):
                    kw = dict(max_outages=max_outages, rho=rho, cap=cap)
                    want = _outcome(lambda: scalar_detect_oracle(plan, stats, obs.flows, **kw))
                    got = _outcome(lambda: detect(tree, sensors, obs, **kw))
                    if isinstance(want, tuple):
                        raised.add(want[0])
                        assert got == want
                        continue
                    assert got.hypothesis == want.hypothesis
                    assert [(a.root_sensor, a.hypothesis) for a in got.areas] == [
                        (a.root_sensor, a.hypothesis) for a in want.areas
                    ]
                    for a, b in zip(got.areas, want.areas):
                        assert a.loglik == pytest.approx(b.loglik, rel=1e-9, abs=1e-12)
    # every check of the scoring loop was met
    assert raised == {DetectionError, EnumerationCapError, ValueError}


def test_matches_groups_trials_by_sign_row():
    tree = ForecastModel("fixed_kappa", kappa=0.05).apply(random_tree(40, seed=4))
    edges = list(tree.edges)
    plan = DetectorPlan(tree, edges[::3])
    stats = cumulative_stats(tree)
    outages = [(), (edges[5],), (edges[9],), (edges[0],)]
    readings = np.array(
        [
            plan.readings(simulate_outage(tree, plan.sensors, outages[t % 4], seed=t).flows)
            for t in range(40)
        ]
    )
    signs = plan.signs(readings, stats.total_mean)
    assert len({row.tobytes() for row in signs}) == 4
    for outage in outages:
        want = [
            plan.detect(stats, dict(zip(plan.sensors, row))).hypothesis == frozenset(outage)
            for row in readings.tolist()
        ]
        assert plan.matches(stats, readings, frozenset(outage)).tolist() == want
        assert any(want)


def test_stats_of_another_topology_are_rejected():
    tree = ForecastModel("fixed_kappa", kappa=0.1).apply(random_tree(30, seed=1))
    other = ForecastModel("fixed_kappa", kappa=0.1).apply(random_tree(30, seed=2))
    plan = DetectorPlan(tree, ["v3"])
    obs = simulate_outage(tree, ["v3"], set(), seed=0)
    readings = plan.readings(obs.flows)[None, :]
    for stats in (cumulative_stats(other), plan_for(other, ["v3"])._moments(other)):
        with pytest.raises(ValueError, match="another feeder"):
            plan.detect(stats, obs.flows)
        with pytest.raises(ValueError, match="another feeder"):
            plan.matches(stats, readings, frozenset())
    # an equal index built apart from the plan is accepted
    assert plan.detect(cumulative_stats(tree), obs.flows) == detect(tree, ["v3"], obs)


@pytest.mark.parametrize("rho", [float("nan"), 0.0, -1.0, float("inf")])
def test_detect_rejects_bad_rho(rho):
    tree = ForecastModel("fixed_kappa", kappa=0.1).apply(random_tree(10, seed=1))
    obs = simulate_outage(tree, ["v3"], {"v3"})
    with pytest.raises(ValueError, match="rho"):
        detect(tree, ["v3"], obs, rho=rho)
    plan = DetectorPlan(tree, ["v3"])
    with pytest.raises(ValueError, match="rho"):
        plan.detect(cumulative_stats(tree), obs.flows, rho=rho)
    with pytest.raises(ValueError, match="rho"):
        plan.matches(cumulative_stats(tree), plan.readings(obs.flows)[None, :], frozenset({"v3"}), rho=rho)
