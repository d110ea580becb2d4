"""Sensor placement minimizing worst-case missed detection on a feeder.

Bottom-up sweep over edges, deepest first. Whenever the area that would hang
below a sensor at the current edge exceeds the error target, the area is
split at the vertex just below: on a chain the sensor goes on the single
child edge; at a junction some child subtrees are cut off behind new sensors.
Greedy commits to the cheapest feasible cut; optimal mode carries every
feasible cut of minimal size as a parallel scenario and keeps the completion
with the fewest sensors. Every edge is processed, so each final area was
explicitly checked against the target with its final child sensors.

The brute-force oracle that checks the bottom-up algorithm at desk scale,
``brute_force_placement_oracle``, is a test oracle in ``tests/helpers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Container, Iterable

from .detector import build_area, build_areas
from .errors import area_errors, area_max_error
from .hypotheses import _check_max_outages, _check_rho
from .network import EdgeId, Tree, _root_edge, branch_decompose, cumulative_stats

__all__ = [
    "PlacementError",
    "PlacementConfig",
    "Placement",
    "generate_edge_order",
    "evaluate_areas",
    "solve_feasibility",
    "solve_budget",
]

# slack added to the target in feasibility comparisons, absorbing CDF rounding
FEAS_SLACK = 1e-12

# width of the target interval at which solve_budget stops bisecting
BISECT_TOL = 1e-4

# greedy commits to the cheapest feasible cut; optimal tries every minimal one
MODES = ("greedy", "optimal")


class PlacementError(RuntimeError):
    """Placement cannot be completed under the configured limits."""


@dataclass(frozen=True)
class PlacementConfig:
    max_outages: int | None = 2
    rho: float | None = None
    cap: int = 1_000_000
    scenario_cap: int = 100_000

    def __post_init__(self) -> None:
        _check_max_outages(self.max_outages)
        _check_rho(self.rho)
        if self.cap < 1:
            raise ValueError(f"cap must be at least 1, got {self.cap}")


@dataclass(frozen=True)
class Placement:
    """Sensor set (root edge included), the target it meets, per-area errors."""

    sensors: tuple[EdgeId, ...]
    target: float
    mode: str
    area_errors: tuple[tuple[EdgeId, float], ...]

    @property
    def n_added(self) -> int:
        return len(self.sensors) - 1

    @property
    def max_error(self) -> float:
        return max((e for _, e in self.area_errors), default=0.0)

    def to_json(self) -> dict:
        return {
            "sensors": list(self.sensors),
            "target": self.target,
            "mode": self.mode,
            "areas": [{"root": r, "error": e} for r, e in self.area_errors],
        }


def generate_edge_order(tree: Tree) -> tuple[EdgeId, ...]:
    """Deepest-first processing order.

    Branches sorted by bottom-edge depth, deepest first (ties on branch id);
    within a branch, bottom edge first. Child branches are always deeper than
    their parent, so every edge is processed after all of its descendants.
    """
    graph = branch_decompose(tree)
    ranked = sorted(graph.branches.values(), key=lambda b: (-tree.depth(b.edges[-1]), b.id))
    order: list[EdgeId] = []
    for b in ranked:
        order.extend(reversed(b.edges))
    return tuple(order)


# an area's worst missed detection and its full error vector
_Row = tuple[float, tuple[float, ...]]


class _AreaTable:
    """Missed-detection errors of every area met on one forecast tree.

    Keyed by (root sensor, child sensors) under one configuration, the table
    holds each area's :func:`~outagekit.errors.area_errors` vector and its
    worst entry. A lookup walks the area's edges to find the key and builds
    the area only on a miss, so placements, targets and bisection steps on
    the same tree never pay for an area twice.
    """

    def __init__(self, tree: Tree, config: PlacementConfig):
        self.tree = tree
        self.stats = cumulative_stats(tree)
        self.config = config
        self._rows: dict[tuple[EdgeId, tuple[EdgeId, ...]], _Row] = {}

    def _row(self, root_sensor: EdgeId, sensor_set: Container[EdgeId]) -> _Row:
        children = self.tree.children
        child_sensors: list[EdgeId] = []
        stack = list(children[root_sensor])
        while stack:
            e = stack.pop()
            if e in sensor_set:
                child_sensors.append(e)
            else:
                stack.extend(children[e])
        key = (root_sensor, tuple(sorted(child_sensors)))
        row = self._rows.get(key)
        if row is None:
            errors = area_errors(
                build_area(self.tree, root_sensor, sensor_set),
                self.stats,
                max_outages=self.config.max_outages,
                cap=self.config.cap,
                rho=self.config.rho,
            )
            row = self._rows[key] = (max(errors, default=0.0), errors)
        return row

    def error(self, root_sensor: EdgeId, sensor_set: Container[EdgeId]) -> float:
        """Worst missed detection of the area below ``root_sensor``."""
        return self._row(root_sensor, sensor_set)[0]

    def errors(self, root_sensor: EdgeId, sensor_set: Container[EdgeId]) -> tuple[float, ...]:
        """Every hypothesis's missed detection in the area below ``root_sensor``."""
        return self._row(root_sensor, sensor_set)[1]


def evaluate_areas(
    tree: Tree,
    sensors: Iterable[EdgeId],
    *,
    config: PlacementConfig = PlacementConfig(),
) -> tuple[tuple[EdgeId, float], ...]:
    """Independent re-evaluation: (root sensor, worst error) for every area."""
    stats = cumulative_stats(tree)
    out = []
    for area in build_areas(tree, sensors):
        err = area_max_error(
            area,
            stats,
            max_outages=config.max_outages,
            cap=config.cap,
            rho=config.rho,
        )
        out.append((area.root_sensor, err))
    return tuple(out)


def solve_feasibility(
    tree: Tree,
    target: float,
    *,
    mode: str = "greedy",
    config: PlacementConfig = PlacementConfig(),
) -> Placement:
    """Fewest-sensor placement with every area error at or below ``target``."""
    return _solve(tree, target, mode, config, _AreaTable(tree, config))


def _solve(
    tree: Tree,
    target: float,
    mode: str,
    config: PlacementConfig,
    table: _AreaTable,
) -> Placement:
    """:func:`solve_feasibility` reading area errors from ``table``, which
    must belong to ``tree`` and ``config``."""
    if not (0.0 < target):
        raise PlacementError(f"target must be positive, got {target}")
    if mode not in MODES:
        raise PlacementError(f"unknown mode {mode!r}")

    order = generate_edge_order(tree)
    root_edge = _root_edge(tree)
    limit = target + FEAS_SLACK

    best: frozenset | None = None
    visits = 0

    def run(t: int, m: frozenset) -> None:
        nonlocal best, visits
        visits += 1
        if visits > config.scenario_cap:
            raise PlacementError(f"scenario cap {config.scenario_cap} exceeded")
        i = t
        while i < len(order):
            if best is not None and len(m) >= len(best):
                return
            e = order[i]
            if table.error(e, m) <= limit:
                i += 1
                continue
            kids = tree.children[e]
            if len(kids) == 0:
                raise PlacementError(f"leaf area of {e!r} violates the target")
            if len(kids) == 1:
                m |= {kids[0]}
                continue
            # junction: find the smallest cut count with a feasible split
            options: list[tuple[float, tuple[EdgeId, ...]]] = []
            for c in range(1, len(kids)):
                for cut in combinations(sorted(kids), c):
                    err = table.error(e, m | set(cut))
                    if err <= limit:
                        options.append((err, cut))
                if options:
                    break
            if not options:
                # cutting every child leaves a single-vertex area: always feasible
                m |= set(kids)
                continue
            options.sort(key=lambda o: (o[0], o[1]))
            if mode == "greedy":
                m |= set(options[0][1])
                continue
            for _, cut in options:
                run(i + 1, m | set(cut))
            return
        if best is None or len(m) < len(best):
            best = m

    run(0, frozenset())
    if best is None:
        raise PlacementError("no feasible placement found")
    sensor_set = best | {root_edge}
    sensors = tuple(sorted(sensor_set))
    return Placement(
        sensors=sensors,
        target=target,
        mode=mode,
        area_errors=tuple((s, table.error(s, sensor_set)) for s in sensors),
    )


def solve_budget(
    tree: Tree,
    budget: int,
    *,
    mode: str = "greedy",
    config: PlacementConfig = PlacementConfig(),
) -> Placement:
    """Smallest error target reachable with at most ``budget`` added sensors.

    Bisects the target over (0, 1); the added-sensor count is non-increasing
    in the target, so the feasible region is an interval. All steps share one
    area table.
    """
    if budget < 0:
        raise PlacementError(f"budget must be non-negative, got {budget}")
    table = _AreaTable(tree, config)

    def fits(t: float) -> Placement | None:
        p = _solve(tree, t, mode, config, table)
        return p if p.n_added <= budget else None

    hi = 1.0
    best = fits(hi)
    if best is None:
        raise PlacementError("even the trivial target is over budget")
    lo = 0.0
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        p = fits(mid)
        if p is None:
            lo = mid
        else:
            hi = mid
            best = p
    return best
