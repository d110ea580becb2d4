"""Decoupled MAP outage detection from noiseless edge-flow sensors.

Sensors partition the feeder into areas, one per sensor: the cell between a
root sensor and its nearest sensed descendants. Subtracting child readings
from the root reading gives a scalar whose distribution under each local
hypothesis is Gaussian with moments from subtree-cumulative forecasts, so
each positive-flow area runs an independent scalar test and the global
estimate is the union of the local picks.

Everything but the Gaussian moments depends only on the feeder topology and
the sensor set: the areas, their branch graphs and the hypotheses each
child-sensor sign pattern allows. A :class:`DetectorPlan` holds that part,
and :func:`detect` reuses one per topology and sensor set, while every call
still computes the moments of its own forecasts. The joint multivariate test
over all positive sensors that validates the decoupling,
``detect_centralized_oracle``, is a test oracle in ``tests/helpers.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Container, Iterable, Mapping

import numpy as np

from .hypotheses import Hypothesis, _check_max_outages, pattern_groups
from .network import (
    BranchGraph,
    CumulativeStats,
    EdgeId,
    Tree,
    VertexId,
    _root_edge,
    _sensor_tuple,
    branch_decompose,
    cumulative_stats,
)

__all__ = [
    "DetectionError",
    "InconsistentObservationError",
    "ObservationFormatError",
    "Area",
    "build_area",
    "build_areas",
    "DetectorPlan",
    "plan_for",
    "Observation",
    "observation_from_json",
    "effective_measurement",
    "hypothesis_stats",
    "AreaDecision",
    "Detection",
    "detect",
]

# flow readings this far below the feeder's total mean load count as zero
FLOW_EPS_FRACTION = 1e-9

# plans kept by plan_for: one per (feeder topology, sensor set) in recent use
PLAN_CACHE_SIZE = 8
_PLANS: dict[tuple[int, tuple[EdgeId, ...]], DetectorPlan] = {}


class DetectionError(RuntimeError):
    """Detection cannot proceed (missing readings, empty hypothesis set...)."""


class InconsistentObservationError(DetectionError):
    """A sensor reads positive below a sensor reading zero: physically impossible."""


class ObservationFormatError(ValueError):
    """An observation is malformed or holds a reading no sensor can produce (NaN, infinity)."""


@dataclass(frozen=True)
class Area:
    """Partition cell between one root sensor and its nearest sensed descendants.

    ``edges`` is the enumerable outage universe: everything strictly below
    the root sensor down to and including the child sensor edges. ``vertices``
    are the loads whose sum the effective measurement observes.
    """

    root_sensor: EdgeId
    child_sensors: tuple[EdgeId, ...]
    vertices: frozenset
    edges: tuple[EdgeId, ...]
    graph: BranchGraph


def build_area(tree: Tree, root_sensor: EdgeId, sensor_set: Container[EdgeId]) -> Area:
    """The area that a sensor at ``root_sensor`` owns when ``sensor_set`` is metered."""
    child_sensors: list[EdgeId] = []
    edges: list[EdgeId] = []
    vertices: set[VertexId] = {root_sensor}
    stack = list(tree.children[root_sensor])
    while stack:
        e = stack.pop()
        edges.append(e)
        if e in sensor_set:
            child_sensors.append(e)
            continue  # everything below belongs to the child's own area
        vertices.add(e)
        stack.extend(tree.children[e])
    edges.sort()
    child_sensors.sort()
    graph = branch_decompose(tree, child_sensors, within=edges)
    return Area(
        root_sensor=root_sensor,
        child_sensors=tuple(child_sensors),
        vertices=frozenset(vertices),
        edges=tuple(edges),
        graph=graph,
    )


def build_areas(tree: Tree, sensors: Iterable[EdgeId]) -> tuple[Area, ...]:
    """One area per sensor. The root edge is metered implicitly."""
    normalized = _sensor_tuple(tree, sensors)
    sensor_set = set(normalized)
    return tuple(build_area(tree, s, sensor_set) for s in normalized)


@dataclass(frozen=True)
class Observation:
    """Sensor flow readings plus (optionally) the forecast means in force."""

    flows: Mapping[EdgeId, float]
    forecasts: Mapping[VertexId, float] | None = None


def _numbers(data: Mapping[str, object], key: str) -> dict[str, float]:
    """``data[key]`` as an id -> float mapping, or :class:`ObservationFormatError`."""
    raw = data[key]
    if not isinstance(raw, Mapping):
        raise ObservationFormatError(f"'{key}' must map ids to numbers, got {raw!r}")
    out: dict[str, float] = {}
    for k, v in raw.items():
        try:
            out[str(k)] = float(v)  # type: ignore[arg-type]
        except (TypeError, ValueError, OverflowError):
            raise ObservationFormatError(f"'{key}' value for {k!r} is not a number: {v!r}") from None
    return out


def observation_from_json(data: Mapping[str, object]) -> Observation:
    if not isinstance(data, Mapping) or "flows" not in data:
        raise ObservationFormatError("observation must be an object with a 'flows' mapping")
    flows = _numbers(data, "flows")
    for k, v in flows.items():
        if not math.isfinite(v):
            raise ObservationFormatError(f"non-finite flow reading {v} for sensor {k!r}")
    forecasts = None
    if data.get("forecasts") is not None:
        forecasts = _numbers(data, "forecasts")
    return Observation(flows=flows, forecasts=forecasts)


def effective_measurement(area: Area, flows: Mapping[EdgeId, float]) -> float:
    """Root reading minus the sum of child-sensor readings."""
    try:
        return flows[area.root_sensor] - sum(flows[c] for c in area.child_sensors)
    except KeyError as exc:
        raise DetectionError(f"missing flow reading for sensor {exc.args[0]!r}") from exc


def hypothesis_stats(
    area: Area,
    hypothesis: Hypothesis,
    pattern: Mapping[EdgeId, bool],
    stats: CumulativeStats,
) -> tuple[float, float]:
    """Moments of the effective measurement under one local hypothesis.

    Start from the cumulative sums below the root sensor, remove every
    subtree cut by the hypothesis, and remove each positive child sensor's
    subtree (its reading is subtracted from the measurement). A zero child
    sensor sits below some hypothesis edge, so its subtree is already gone.
    """
    mu = stats.mean_below[area.root_sensor]
    var = stats.var_below[area.root_sensor]
    for e in hypothesis:
        mu -= stats.mean_below[e]
        var -= stats.var_below[e]
    for c in area.child_sensors:
        if pattern[c]:
            mu -= stats.mean_below[c]
            var -= stats.var_below[c]
    if var <= 0.0:
        raise ValueError(
            f"non-positive variance {var} for hypothesis {sorted(hypothesis)}: "
            "remaining loads carry no forecast uncertainty"
        )
    return mu, var


@dataclass(frozen=True)
class AreaDecision:
    root_sensor: EdgeId
    hypothesis: Hypothesis
    loglik: float


@dataclass(frozen=True)
class Detection:
    """Global estimate (union of local picks) plus the per-area decisions."""

    hypothesis: Hypothesis
    areas: tuple[AreaDecision, ...]

    def to_json(self) -> dict:
        return {
            "global": sorted(self.hypothesis),
            "areas": [
                {
                    "root": a.root_sensor,
                    "hypothesis": sorted(a.hypothesis),
                    "loglik": a.loglik,
                }
                for a in self.areas
            ],
        }


def _log_norm(var: float) -> float:
    """Log-density constant of N(mu, var); ``math.log`` keeps scalar and batch
    decisions bit for bit equal."""
    return -0.5 * math.log(2.0 * math.pi * var)


class DetectorPlan:
    """The topology-only part of the decoupled detector for one feeder and sensor set.

    Holds the normalized sensor tuple (root edge included), the areas, each
    sensor's nearest sensed ancestor and, per area, the hypotheses each
    child-sensor sign pattern allows. None of it depends on load forecasts,
    so one plan serves every tree sharing ``tree.parent`` and
    ``tree.children`` (the trees :meth:`Tree.with_loads` makes). The
    hypothesis groups are filled per area on first use, keyed by
    ``(max_outages, cap)``; ``cap`` bounds each area's whole enumeration.
    """

    def __init__(self, tree: Tree, sensors: Iterable[EdgeId]):
        self.tree = tree
        self.sensors = _sensor_tuple(tree, sensors)
        self.areas = build_areas(tree, self.sensors)
        self.root_edge = _root_edge(tree)
        index = {s: i for i, s in enumerate(self.sensors)}
        self._root_index = index[self.root_edge]
        self._area_index = tuple(
            (index[a.root_sensor], tuple(index[c] for c in a.child_sensors))
            for a in self.areas
        )
        # nearest sensed ancestor: each child sensor's is its area's root
        # sensor, and the root edge, a child of no area, maps to itself
        above = {k: r for r, kids in self._area_index for k in kids}
        self._sensed_parent = np.array(
            [above.get(j, j) for j in range(len(self.sensors))], dtype=np.intp
        )
        self._groups: dict[tuple[int | None, int], list] = {}

    def hypotheses(
        self,
        i: int,
        key: tuple[bool, ...],
        *,
        max_outages: int | None,
        cap: int,
    ) -> tuple[Hypothesis, ...]:
        """Hypotheses of area ``i`` consistent with child-sensor signs ``key``.

        ``key`` gives the signs (True = positive) of the area's
        ``child_sensors`` in order. The result is in
        :func:`hypothesis_sort_key` order, and empty when no hypothesis fits.
        """
        per_area = self._groups.get((max_outages, cap))
        if per_area is None:
            _check_max_outages(max_outages)
            per_area = self._groups[(max_outages, cap)] = [None] * len(self.areas)
        groups = per_area[i]
        if groups is None:
            area = self.areas[i]
            groups = per_area[i] = pattern_groups(
                area.graph, area.child_sensors, max_outages=max_outages, cap=cap
            )
        return groups.get(key, ())

    def readings(self, flows: Mapping[EdgeId, float]) -> np.ndarray:
        """Flow readings in ``sensors`` order."""
        try:
            return np.array([flows[s] for s in self.sensors], dtype=float)
        except KeyError as exc:
            raise DetectionError(f"missing flow reading for sensor {exc.args[0]!r}") from exc

    def signs(self, readings: np.ndarray, total_mean: float) -> np.ndarray:
        """Which readings are positive; ``readings`` has ``sensors`` as its last axis.

        A reading at most ``FLOW_EPS_FRACTION`` of the total mean load counts
        as zero. Raises :class:`ObservationFormatError` on a non-finite
        reading and :class:`InconsistentObservationError` on a positive
        reading below a zero one.
        """
        finite = np.isfinite(readings)
        if not finite.all():
            at = tuple(np.argwhere(~finite)[0])
            raise ObservationFormatError(
                f"non-finite flow reading {readings[at]} for sensor {self.sensors[at[-1]]!r}"
            )
        positive = np.abs(readings) > max(FLOW_EPS_FRACTION * total_mean, 1e-300)
        bad = positive & ~positive[..., self._sensed_parent]
        if bad.any():
            j = int(np.argwhere(bad)[0][-1])
            raise InconsistentObservationError(
                f"sensor {self.sensors[j]!r} reads positive below dark sensor "
                f"{self.sensors[self._sensed_parent[j]]!r}"
            )
        return positive

    def detect(
        self,
        stats: CumulativeStats,
        flows: Mapping[EdgeId, float],
        *,
        max_outages: int | None = 2,
        rho: float | None = None,
        cap: int = 1_000_000,
    ) -> Detection:
        """:func:`detect` with the moments of ``stats``."""
        _check_max_outages(max_outages)
        positive = self.signs(self.readings(flows), stats.total_mean).tolist()
        if not positive[self._root_index]:
            return Detection(hypothesis=frozenset({self.root_edge}), areas=())

        log_rho = math.log(rho) if rho is not None else 0.0
        decisions: list[AreaDecision] = []
        picks: list[Hypothesis] = []
        for i, (area, (r, kids)) in enumerate(zip(self.areas, self._area_index)):
            if not positive[r]:
                continue
            key = tuple(positive[j] for j in kids)
            local = self.hypotheses(i, key, max_outages=max_outages, cap=cap)
            if not local:
                raise DetectionError(
                    f"no hypothesis consistent with flows in area of {area.root_sensor!r}"
                )
            pattern = dict(zip(area.child_sensors, key))
            ds = effective_measurement(area, flows)
            # ``local`` is in hypothesis_sort_key order, so keeping the first
            # maximum breaks ties by fewest edges, then edge ids
            for k, h in enumerate(local):
                mu, var = hypothesis_stats(area, h, pattern, stats)
                d = ds - mu
                ll = _log_norm(var) - d * d / (2.0 * var)
                if rho is not None:
                    ll += len(h) * log_rho
                if k == 0 or ll > best_ll:
                    best, best_ll = h, ll
            decisions.append(AreaDecision(area.root_sensor, best, best_ll))
            picks.append(best)

        combined: frozenset = frozenset().union(*picks) if picks else frozenset()
        return Detection(hypothesis=combined, areas=tuple(decisions))

    def matches(
        self,
        stats: CumulativeStats,
        readings: np.ndarray,
        hypothesis: Hypothesis,
        *,
        max_outages: int | None = 2,
        rho: float | None = None,
        cap: int = 1_000_000,
    ) -> np.ndarray:
        """Per row of ``readings`` (trials x ``sensors``): does :meth:`detect` return ``hypothesis``?

        Classifies every trial of an area at once, grouped by the trial's
        child-sensor sign pattern, with the same arithmetic as
        :meth:`detect`, so each entry equals comparing that call's result.
        """
        _check_max_outages(max_outages)
        positive = self.signs(readings, stats.total_mean)
        n = readings.shape[0]
        root_live = positive[:, self._root_index]
        if self.root_edge in hypothesis:
            # no area holds the root edge: only a dark root reports it
            return ~root_live if hypothesis == {self.root_edge} else np.zeros(n, dtype=bool)
        ok = root_live.copy()
        log_rho = math.log(rho) if rho is not None else 0.0
        for i, (area, (r, kids)) in enumerate(zip(self.areas, self._area_index)):
            truth = hypothesis.intersection(area.edges)
            # a dark area decides nothing, so it can hold no true outage
            area_ok = np.full(n, not truth)
            rows = np.flatnonzero(positive[:, r])
            if rows.size:
                ds = readings[rows, r] - sum(readings[rows, c] for c in kids)
                keys = positive[np.ix_(rows, kids)]
                if (keys == keys[:1]).all():
                    groups = [(keys[0], slice(None))]
                else:
                    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
                    groups = [(u, inverse.ravel() == g) for g, u in enumerate(uniq)]
                for key_arr, sel in groups:
                    key = tuple(key_arr.tolist())
                    local = self.hypotheses(i, key, max_outages=max_outages, cap=cap)
                    if not local:
                        raise DetectionError(
                            f"no hypothesis consistent with flows in area of {area.root_sensor!r}"
                        )
                    pattern = dict(zip(area.child_sensors, key))
                    moments = [hypothesis_stats(area, h, pattern, stats) for h in local]
                    mu = np.array([m for m, _ in moments])
                    var = np.array([v for _, v in moments])
                    norm = np.array([_log_norm(v) for _, v in moments])
                    d = ds[sel, None] - mu
                    ll = norm - d * d / (2.0 * var)
                    if rho is not None:
                        ll = ll + np.array([len(h) * log_rho for h in local])
                    want = local.index(truth) if truth in local else -1
                    area_ok[rows[sel]] = ll.argmax(axis=1) == want
            ok &= area_ok
        return ok


def plan_for(tree: Tree, sensors: Iterable[EdgeId]) -> DetectorPlan:
    """The plan for ``tree``'s topology and ``sensors``, built once and reused.

    Plans live in a small module cache keyed by ``(id(tree.parent), sensors)``.
    A hit must hold this very ``parent`` and ``children`` mapping, so trees
    from :meth:`Tree.with_loads` of one feeder share a plan, while any other
    topology (even one with the same vertex ids) gets its own.
    """
    normalized = _sensor_tuple(tree, sensors)
    key = (id(tree.parent), normalized)
    plan = _PLANS.get(key)
    if plan is None or plan.tree.parent is not tree.parent or plan.tree.children is not tree.children:
        plan = DetectorPlan(tree, normalized)
        _PLANS.pop(key, None)
        while len(_PLANS) >= PLAN_CACHE_SIZE:
            del _PLANS[next(iter(_PLANS))]
        _PLANS[key] = plan
    return plan


def _forecast_tree(tree: Tree, obs: Observation) -> Tree:
    if obs.forecasts is None:
        return tree
    means = {v: m for v, m in obs.forecasts.items() if v != tree.root}
    return tree.with_loads(mean=means)


def detect(
    tree: Tree,
    sensors: Iterable[EdgeId],
    obs: Observation,
    *,
    max_outages: int | None = 2,
    rho: float | None = None,
    cap: int = 1_000_000,
) -> Detection:
    """Decoupled MAP estimate of the outage hypothesis.

    Each positive-flow area picks the local hypothesis maximizing the
    Gaussian log-likelihood of its effective measurement (plus ``|H| ln rho``
    when a prior is configured); dark areas are accounted for by the covering
    edge chosen in the nearest live ancestor area. A dark root sensor short-
    circuits to the root-edge outage. Ties go to the first hypothesis in
    :func:`hypothesis_sort_key` order.

    The topology-only work comes from :func:`plan_for`, so repeated calls on
    one feeder and sensor set build areas and hypothesis groups once.
    """
    plan = plan_for(tree, sensors)
    stats = cumulative_stats(_forecast_tree(tree, obs))
    return plan.detect(stats, obs.flows, max_outages=max_outages, rho=rho, cap=cap)
