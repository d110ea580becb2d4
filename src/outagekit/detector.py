"""Decoupled MAP outage detection from noiseless edge-flow sensors.

Sensors partition the feeder into areas, one per sensor: the cell between a
root sensor and its nearest sensed descendants. Subtracting child readings
from the root reading gives a scalar whose distribution under each local
hypothesis is Gaussian with moments from subtree-cumulative forecasts, so
each positive-flow area runs an independent scalar test and the global
estimate is the union of the local picks.

Everything but the Gaussian moments depends only on the feeder topology and
the sensor set: the areas, their branch graphs and the hypotheses each
child-sensor sign pattern allows. A :class:`DetectorPlan` holds that part
and compiles it into scoring rows: per (area, hypothesis), the integer
positions in ``tree.order`` of the subtrees the hypothesis removes from the
measurement. A call builds the :class:`CumulativeStats` of its own forecasts
with the subtree-sum pass of :func:`cumulative_stats`, and one kernel scores
the rows of every live area with a few array operations.
:meth:`DetectorPlan.matches` runs that kernel on batches of Monte Carlo
trials, and :func:`detect` is its one-row case. Two test
oracles in ``tests/helpers.py`` check it: ``scalar_detect_oracle`` scores
one hypothesis at a time, and ``detect_centralized_oracle`` runs the joint
multivariate test over all positive sensors that validates the decoupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Container, Iterable, Mapping, NamedTuple

import numpy as np

from .hypotheses import (
    EnumerationCapError,
    Hypothesis,
    _check_max_outages,
    _check_rho,
    pattern_groups,
)
from .network import (
    BranchGraph,
    CumulativeStats,
    EdgeId,
    Tree,
    VertexId,
    _root_edge,
    _sensor_tuple,
    _subtree_sums,
    _topology,
    branch_decompose,
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


def hypothesis_stats(
    area: Area,
    hypothesis: Hypothesis,
    pattern: Mapping[EdgeId, bool],
    stats: CumulativeStats,
) -> tuple[float, float]:
    """Moments of the effective measurement under one local hypothesis.

    Start from the cumulative sums below the root sensor, remove every
    subtree cut by the hypothesis (in edge-id order, so the sums do not
    depend on set iteration order), and remove each positive child sensor's
    subtree (its reading is subtracted from the measurement). A zero child
    sensor sits below some hypothesis edge, so its subtree is already gone.
    """
    (mean, variance), position = stats._lists, stats.position
    at = position[area.root_sensor]
    mu = mean[at]
    var = variance[at]
    for e in sorted(hypothesis):
        at = position[e]
        mu -= mean[at]
        var -= variance[at]
    for c in area.child_sensors:
        if pattern[c]:
            at = position[c]
            mu -= mean[at]
            var -= variance[at]
    if var <= 0.0:
        raise _no_variance(var, hypothesis)
    return mu, var


def _no_variance(var: float, hypothesis: Hypothesis) -> ValueError:
    return ValueError(
        f"non-positive variance {var} for hypothesis {sorted(hypothesis)}: "
        "remaining loads carry no forecast uncertainty"
    )


class AreaDecision(NamedTuple):
    """One live area's decision: its root sensor, the local hypothesis it
    picked and that pick's log-likelihood (plus ``|H| ln rho`` under a
    prior). A tuple, so it equals the plain 3-tuple
    ``(root_sensor, hypothesis, loglik)``."""

    root_sensor: EdgeId
    hypothesis: Hypothesis
    loglik: float


@dataclass(frozen=True)
class Detection:
    """Global estimate (union of local picks) plus the per-area decisions.

    The decisions are held as three columns over the live areas, in area
    order: ``root_sensors``, the picked hypotheses ``picks`` and their
    ``logliks``. Equality compares the estimate and every column. The
    :class:`AreaDecision` records of :attr:`areas` are built the first time
    it is read, and :meth:`to_json` reads the columns directly, so a caller
    that wants only ``hypothesis`` builds no per-area object.
    """

    hypothesis: Hypothesis
    root_sensors: tuple[EdgeId, ...] = ()
    picks: tuple[Hypothesis, ...] = ()
    logliks: tuple[float, ...] = ()

    @cached_property
    def areas(self) -> tuple[AreaDecision, ...]:
        return tuple(map(AreaDecision._make, zip(self.root_sensors, self.picks, self.logliks)))

    def to_json(self) -> dict:
        return {
            "global": sorted(self.hypothesis),
            "areas": [
                {"root": r, "hypothesis": sorted(h), "loglik": x}
                for r, h, x in zip(self.root_sensors, self.picks, self.logliks)
            ],
        }


class _Rows(NamedTuple):
    """Scoring rows, one per (area, hypothesis); each area's rows are
    contiguous and in :func:`hypothesis_sort_key` order.

    Row ``k`` scores ``hypotheses[k]`` in area ``area[k]``: its moments are
    the subtree sums at position ``root[k]`` minus those at the positions in
    column ``k`` of ``cut``, which lists the hypothesis edges by id and then
    the positive child sensors, padded with slot 0.
    """

    area: np.ndarray
    root: np.ndarray
    cut: np.ndarray
    size: np.ndarray
    hypotheses: np.ndarray

    @staticmethod
    def build(rows: list[tuple[int, int, list[int], Hypothesis]]) -> _Rows:
        """Rows from ``(area, root, cut, hypothesis)`` tuples."""
        area, root, cuts, hyps = zip(*rows)
        width = max(map(len, cuts))
        cut = np.array([c + [0] * (width - len(c)) for c in cuts], dtype=np.intp)
        return _Rows(
            area=np.array(area, dtype=np.intp),
            root=np.array(root, dtype=np.intp),
            cut=np.ascontiguousarray(cut.T),
            size=np.array([len(h) for h in hyps], dtype=float),
            hypotheses=np.array(hyps, dtype=object),
        )

    def moments(self, values: np.ndarray) -> np.ndarray:
        """Each row's moment from the ``mean`` or ``var`` array of a
        :class:`CumulativeStats`, cut in column order as :func:`hypothesis_stats`
        cuts it; padding reads slot 0, the root, which holds 0."""
        out = values[self.root]
        for col in self.cut:
            out -= values[col]
        return out


class _Compiled:
    """Scoring rows of one plan for one ``(max_outages, cap)``.

    An area is enumerated the first time it is live. ``clean`` holds the rows
    of every enumerated area whose child sensors all read positive, the
    pattern of nearly every live area; ``blocks`` caches the rows of the
    other patterns met so far.
    """

    def __init__(self, n_areas: int):
        self.groups: list[dict | None] = [None] * n_areas
        self.enumerated = np.zeros(n_areas, dtype=bool)
        self.clean_rows: dict[int, list] = {}
        self.clean: _Rows | None = None
        self.blocks: dict[tuple[int, tuple[bool, ...]], _Rows | None] = {}


class DetectorPlan:
    """The topology-only part of the decoupled detector for one feeder and sensor set.

    Holds the normalized sensor tuple (root edge included), the areas, each
    sensor's nearest sensed ancestor and, per area, the hypotheses each
    child-sensor sign pattern allows. None of it depends on load forecasts,
    so one plan serves every tree sharing ``tree.parent`` and
    ``tree.children`` (the trees :meth:`Tree.with_loads` makes). The
    hypothesis groups are filled per area on first use, keyed by
    ``(max_outages, cap)``; ``cap`` bounds each area's whole enumeration.

    Per ``(max_outages, cap)`` the groups compile into scoring rows that
    name edges by their integer position in ``tree.order``. One kernel
    scores the rows of every live area of a sign row with a few array
    operations: :meth:`matches` runs it on batches of trials, and
    :meth:`detect` is its one-row case.
    """

    def __init__(self, tree: Tree, sensors: Iterable[EdgeId]):
        self.tree = tree
        self.sensors = _sensor_tuple(tree, sensors)
        self._sensor_ids = np.array(self.sensors, dtype=object)
        self.areas = build_areas(tree, self.sensors)
        self.root_edge = _root_edge(tree)
        index = {s: i for i, s in enumerate(self.sensors)}
        # area i is the area of sensor i
        self._root_index = index[self.root_edge]
        self._kids = [[index[c] for c in a.child_sensors] for a in self.areas]
        # nearest sensed ancestor: each child sensor's is its area's root
        # sensor, and the root edge, a child of no area, maps to itself
        sensed_parent = list(range(len(self.sensors)))
        # (areas, sensors) with each area's k-th child sensor, for every k
        columns: list[tuple[list[int], list[int]]] = []
        for i, kids in enumerate(self._kids):
            for k, j in enumerate(kids):
                sensed_parent[j] = i
                if k == len(columns):
                    columns.append(([], []))
                columns[k][0].append(i)
                columns[k][1].append(j)
        self._sensed_parent = np.array(sensed_parent, dtype=np.intp)
        self._kid_columns = [
            (np.array(areas, dtype=np.intp), np.array(kids, dtype=np.intp))
            for areas, kids in columns
        ]
        # integer vertex index: position in tree.order, the root at 0
        self._topology = _topology(tree)
        self._position = self._topology.position
        self._edge_area = {e: i for i, a in enumerate(self.areas) for e in a.edges}
        self._var_below: tuple[Mapping[VertexId, float] | None, np.ndarray | None] = (None, None)
        self._compiled: dict[tuple[int | None, int], _Compiled] = {}

    def _state(self, max_outages: int | None, cap: int) -> _Compiled:
        state = self._compiled.get((max_outages, cap))
        if state is None:
            _check_max_outages(max_outages)
            state = self._compiled[(max_outages, cap)] = _Compiled(len(self.areas))
        return state

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
        state = self._state(max_outages, cap)
        groups = state.groups[i]
        if groups is None:
            area = self.areas[i]
            groups = state.groups[i] = pattern_groups(
                area.graph, area.child_sensors, max_outages=max_outages, cap=cap
            )
        return groups.get(key, ())

    def _rows(self, i: int, key: tuple[bool, ...], hyps: tuple[Hypothesis, ...]) -> list:
        """Row tuples for :meth:`_Rows.build` of area ``i`` under child-sensor signs ``key``."""
        position = self._position
        area = self.areas[i]
        root = position[area.root_sensor]
        kept = [position[c] for c, live in zip(area.child_sensors, key) if live]
        return [(i, root, [position[e] for e in sorted(h)] + kept, h) for h in hyps]

    def _live_rows(
        self, positive: np.ndarray, max_outages: int | None, cap: int
    ) -> tuple[_Rows | None, np.ndarray | None, list[_Rows], tuple[int, Exception] | None]:
        """The compiled rows that score sign row ``positive`` (root sensor live).

        Returns the clean rows, which clean rows belong to a live area, the
        blocks of the live areas with a dark child sensor and the first
        failing area with its error: the enumeration cap, or no hypothesis
        consistent with the signs. Areas are enumerated in order up to the
        first failure, as a scan of the areas would.
        """
        state = self._state(max_outages, cap)
        failed: tuple[int, Exception] | None = None
        added = False
        for i in np.flatnonzero(positive & ~state.enumerated).tolist():
            key = (True,) * len(self._kids[i])
            try:
                hyps = self.hypotheses(i, key, max_outages=max_outages, cap=cap)
            except EnumerationCapError as exc:
                failed = (i, exc)
                break
            state.clean_rows[i] = self._rows(i, key, hyps)
            state.enumerated[i] = added = True
        if added:
            state.clean = _Rows.build(
                [r for i in sorted(state.clean_rows) for r in state.clean_rows[i]]
            )

        clean = positive.copy()
        blocks: list[_Rows] = []
        dark_kid = ~positive & positive[self._sensed_parent]
        for i in sorted(set(self._sensed_parent[dark_kid].tolist())):
            clean[i] = False
            if failed is not None and i >= failed[0]:
                break
            key = tuple(positive[self._kids[i]].tolist())
            if (i, key) not in state.blocks:
                hyps = self.hypotheses(i, key, max_outages=max_outages, cap=cap)
                state.blocks[(i, key)] = _Rows.build(self._rows(i, key, hyps)) if hyps else None
            block = state.blocks[(i, key)]
            if block is None:
                error = DetectionError(
                    f"no hypothesis consistent with flows in area of {self.sensors[i]!r}"
                )
                failed = (i, error)
                break
            blocks.append(block)
        if failed is not None:
            clean[failed[0] :] = False
        if state.clean is None:
            return None, None, blocks, failed
        return state.clean, np.flatnonzero(clean[state.clean.area]), blocks, failed

    def _score(
        self,
        moments: CumulativeStats,
        readings: np.ndarray,
        positive: np.ndarray,
        *,
        max_outages: int | None,
        rho: float | None,
        cap: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Score every live area of trials sharing one sign row.

        ``readings`` is trials x ``sensors``, and ``positive`` the sign row
        the trials share, with the root sensor live. Returns each scored
        row's area and hypothesis, the first row of each live area's
        segment, and per trial each segment's first maximum (a row index)
        and every row's log-likelihood. Raises what the first failing area
        in area order raises: the enumeration cap, no consistent hypothesis,
        or a hypothesis whose measurement has no variance left.
        """
        clean, keep, blocks, failed = self._live_rows(positive, max_outages, cap)
        parts = [] if clean is None else [(
            clean.area[keep],
            clean.moments(moments.mean)[keep],
            clean.moments(moments.var)[keep],
            clean.size[keep],
            clean.hypotheses[keep],
        )]
        parts += [
            (b.area, b.moments(moments.mean), b.moments(moments.var), b.size, b.hypotheses)
            for b in blocks
        ]
        if not parts:
            raise failed[1]
        area, mean, var, size, hyps = (np.concatenate(field) for field in zip(*parts))

        bad = np.flatnonzero(var <= 0.0)
        if bad.size:
            k = bad[np.argmin(area[bad])]
            if failed is None or area[k] < failed[0]:
                raise _no_variance(float(var[k]), hyps[k])
        if failed is not None:
            raise failed[1]

        # effective measurement: root reading minus the child readings
        kid_sum = np.zeros(readings.shape)
        for areas, kids in self._kid_columns:
            kid_sum[:, areas] += readings[:, kids]
        d = (readings - kid_sum)[:, area] - mean
        ll = -0.5 * np.log(2.0 * math.pi * var) - d * d / (2.0 * var)
        if rho is not None:
            ll = ll + size * math.log(rho)

        # first maximum of each area's segment: ties go to the earliest row
        starts = np.flatnonzero(np.diff(area, prepend=-1))
        top = np.maximum.reduceat(ll, starts, axis=1)
        hit = ll == np.repeat(top, np.diff(starts, append=len(area)), axis=1)
        first = np.minimum.reduceat(np.where(hit, np.arange(len(area)), len(area)), starts, axis=1)
        return area, hyps, starts, first, ll

    def _moments(
        self, tree: Tree, forecasts: Mapping[VertexId, float] | None = None
    ) -> CumulativeStats:
        """Subtree moments of ``tree``'s loads, with ``forecasts`` replacing its means.

        The plan's own ``_subtree_sums`` pass, the one :func:`cumulative_stats`
        runs, so with no forecasts the sums are the same floats. Forecasts
        must name vertices of the feeder and be finite and non-negative; any
        for the root is ignored. The variance sums depend on the tree alone
        and are kept for the last ``tree.var`` seen.
        """
        order = tree.order
        means = None
        if forecasts is None:
            means = list(map(tree.mean.__getitem__, order))
        elif len(forecasts) == len(order) - 1:
            # a forecast for every edge: no other id is possible
            try:
                means = [0.0, *map(forecasts.__getitem__, islice(order, 1, None))]
            except KeyError:
                pass
        if means is None:
            # some ids missing, the root's or unknown ones: the tree's own
            # update checks the ids and the values
            loads = tree.with_loads(mean={v: m for v, m in forecasts.items() if v != tree.root})
            means = list(map(loads.mean.__getitem__, order))
        total = sum(means)
        if forecasts is not None and not (total < math.inf and min(means) >= 0.0):
            # raises FeederFormatError naming a negative or non-finite mean;
            # a sum that overflows alone passes
            tree.with_loads(mean=dict(zip(order[1:], means[1:])))

        if self._var_below[0] is not tree.var:
            variances = [0.0, *map(tree.var.__getitem__, islice(order, 1, None))]
            self._var_below = (tree.var, np.array(_subtree_sums(self._topology, variances)))
        means[0] = 0.0
        mean_sums = np.array(_subtree_sums(self._topology, means), dtype=float)
        return CumulativeStats(mean_sums, self._var_below[1], total, self._position)

    def _check_stats(self, stats: CumulativeStats) -> None:
        # identity first, so the plan's own moments pay nothing
        if stats.position is not self._position and stats.position != self._position:
            raise ValueError("stats are indexed by another feeder's vertices")

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
        """:func:`detect` with the moments of ``stats``: :meth:`matches`' kernel on one row."""
        _check_max_outages(max_outages)
        _check_rho(rho)
        self._check_stats(stats)
        readings = self.readings(flows)
        positive = self.signs(readings, stats.total_mean)
        if not positive[self._root_index]:
            return Detection(hypothesis=frozenset({self.root_edge}))
        area, hyps, starts, first, ll = self._score(
            stats, readings[None, :], positive, max_outages=max_outages, rho=rho, cap=cap
        )
        # segments hold clean areas first, then areas with a dark child sensor
        segment_area = area[starts]
        order = np.argsort(segment_area, kind="stable")
        won = first[0, order]
        picks = tuple(hyps[won].tolist())
        return Detection(
            hypothesis=frozenset().union(*picks),
            root_sensors=tuple(self._sensor_ids[segment_area[order]].tolist()),
            picks=picks,
            logliks=tuple(ll[0, won].tolist()),
        )

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

        Trials are grouped by sign row (one group in practice), and each
        group runs through the kernel of :meth:`detect`, so each entry equals
        comparing that call's result.
        """
        _check_max_outages(max_outages)
        _check_rho(rho)
        self._check_stats(stats)
        positive = self.signs(readings, stats.total_mean)
        root_live = positive[:, self._root_index]
        if self.root_edge in hypothesis:
            # no area holds the root edge: only a dark root reports it
            return ~root_live if hypothesis == {self.root_edge} else np.zeros(len(readings), dtype=bool)
        # each area's share of the hypothesis; an id in no area is never detected
        truth = {
            i: frozenset(e for e in hypothesis if self._edge_area.get(e) == i)
            for i in {self._edge_area.get(e) for e in hypothesis}
        }
        ok = np.zeros(len(readings), dtype=bool)
        trials = np.flatnonzero(root_live)
        if not len(trials):
            return ok
        signs = positive[trials]
        if (signs == signs[0]).all():
            groups = [(signs[0], trials)]
        else:
            by_sign: dict[bytes, list[int]] = {}
            for t, sign in zip(trials.tolist(), signs):
                by_sign.setdefault(sign.tobytes(), []).append(t)
            groups = [(positive[ts[0]], np.array(ts)) for ts in by_sign.values()]
        for sign, rows in groups:
            area, hyps, starts, first, _ = self._score(
                stats, readings[rows], sign, max_outages=max_outages, rho=rho, cap=cap
            )
            # a dark area decides nothing, so it can hold no true outage
            if None in truth or not all(sign[i] for i in truth):
                continue
            # the empty hypothesis leads every segment that holds it
            want = np.where([not h for h in hyps[starts]], starts, -1)
            for s, i in enumerate(area[starts].tolist()):
                if i in truth:
                    end = starts[s + 1] if s + 1 < len(starts) else len(area)
                    local = hyps[starts[s]:end].tolist()
                    want[s] = starts[s] + local.index(truth[i]) if truth[i] in local else -1
            ok[rows] = (first == want).all(axis=1)
        return ok


def plan_for(tree: Tree, sensors: Iterable[EdgeId]) -> DetectorPlan:
    """The plan for ``tree``'s topology and ``sensors``, built once and reused.

    Plans live in a small module cache keyed by ``(id(tree.parent), sensors)``.
    A hit must hold this very ``parent`` and ``children`` mapping, so trees
    from :meth:`Tree.with_loads` of one feeder share a plan, while any other
    topology (even one with the same vertex ids) gets its own. A tuple that
    is already a plan's sensor tuple, as :func:`load_feeder` returns it,
    finds its plan without being normalized again.
    """
    plan = _PLANS.get((id(tree.parent), sensors)) if type(sensors) is tuple else None
    if plan is not None and plan.tree.parent is tree.parent and plan.tree.children is tree.children:
        return plan
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
    one feeder and sensor set build areas and compile scoring rows once.
    """
    _check_rho(rho)
    plan = plan_for(tree, sensors)
    moments = plan._moments(tree, obs.forecasts)
    return plan.detect(moments, obs.flows, max_outages=max_outages, rho=rho, cap=cap)
