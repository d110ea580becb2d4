"""Case-study machinery: synthetic feeders, forecast scaling law, Monte Carlo.

The forecast-error scaling law kappa(W) = sqrt(3562/W + 41.9) yields percent
(large aggregates approach 6.5%, not 647%); it is stored as a fraction here.
Synthetic trees come from a seeded recursive-attachment process, standing in
for utility feeders: sweeps only need them as substrates. Sampled loads are
Gaussian and may go negative; downstream classification thresholds |flow|.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .detector import Observation, plan_for
from .hypotheses import _check_max_outages, _check_rho
from .network import EdgeId, Tree, _sensor_tuple, _subtree_sums, _Topology, _topology, build_tree
from .placement import MODES, Placement, PlacementConfig, _AreaTable, _solve

__all__ = [
    "KAPPA_LAW_A",
    "KAPPA_LAW_B",
    "kappa_of_load",
    "ForecastModel",
    "random_tree",
    "simulate_outage",
    "empirical_detection_rate",
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "sweep",
    "write_sweep_csv",
    "write_sweep_histograms",
]

# scaling-law constants; the law yields kappa in percent
KAPPA_LAW_A = 3562.0
KAPPA_LAW_B = 41.9


def kappa_of_load(w: float) -> float:
    """Coefficient of variation (fraction) of a forecast for aggregate load ``w``."""
    if not (w > 0.0):
        raise ValueError(f"aggregate load must be positive, got {w}")
    return math.sqrt(KAPPA_LAW_A / w + KAPPA_LAW_B) / 100.0


@dataclass(frozen=True)
class ForecastModel:
    """Assigns forecast standard deviations from means.

    ``fixed_kappa`` applies one coefficient of variation everywhere;
    ``scaling_law`` derives it per vertex from the vertex's own mean load.
    Zero-mean vertices get zero deviation under either mode.
    """

    mode: str = "fixed_kappa"
    kappa: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("fixed_kappa", "scaling_law"):
            raise ValueError(f"unknown forecast mode {self.mode!r}")
        if self.mode == "fixed_kappa" and not (self.kappa is not None and 0 <= self.kappa < math.inf):
            raise ValueError(f"fixed_kappa mode needs a finite non-negative kappa, got {self.kappa}")

    def sigma(self, mean: float) -> float:
        if mean <= 0.0:
            return 0.0
        k = self.kappa if self.mode == "fixed_kappa" else kappa_of_load(mean)
        return k * mean  # type: ignore[operator]

    def apply(self, tree: Tree) -> Tree:
        var = {v: self.sigma(tree.mean[v]) ** 2 for v in tree.edges}
        return tree.with_loads(var=var)


def _check_tree_shape(max_children: int, mean_range: tuple[float, float]) -> None:
    """Reject a fan-out limit below 1 and a reversed ``mean_range``."""
    if max_children < 1:
        raise ValueError(f"max_children must be at least 1, got {max_children}")
    lo, hi = mean_range
    if lo > hi:
        raise ValueError(f"mean_range must be (low, high) with low <= high, got ({lo}, {hi})")


def random_tree(
    n: int,
    *,
    seed: int = 0,
    max_children: int = 3,
    mean_range: tuple[float, float] = (0.5, 1.5),
) -> Tree:
    """Seeded random recursive-attachment tree with ``n`` vertices.

    The root has a single outgoing edge (the feeder head); every later vertex
    attaches uniformly among non-root vertices that still have capacity.
    Means are uniform in ``mean_range``; variances are zero until a
    :class:`ForecastModel` is applied.
    """
    if n < 2:
        raise ValueError("need at least a root and one load vertex")
    _check_tree_shape(max_children, mean_range)
    rng = random.Random(seed)
    lo, hi = mean_range
    records = [
        {"id": "v0", "parent": None},
        {"id": "v1", "parent": "v0", "mean": rng.uniform(lo, hi)},
    ]
    # vertices with capacity left, and their ids kept in sorted order
    open_slots = {"v1": max_children}
    keys = ["v1"]
    for i in range(2, n):
        parent = rng.choice(keys)
        open_slots[parent] -= 1
        if open_slots[parent] == 0:
            del open_slots[parent]
            del keys[bisect_left(keys, parent)]
        vid = f"v{i}"
        records.append({"id": vid, "parent": parent, "mean": rng.uniform(lo, hi)})
        open_slots[vid] = max_children
        insort(keys, vid)
    return build_tree(records)


def _sample_readings(
    tree: Tree,
    topology: _Topology,
    sensors: Sequence[EdgeId],
    hyp: frozenset,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Flows at ``sensors`` under ``n`` independent load draws, shape ``(n, len(sensors))``.

    Trial ``t`` takes row ``t`` of one standard-normal draw over the vertices
    with positive variance in topological order: the stream ``n`` successive
    one-trial calls would use. The loads fill a vertices x trials array over
    ``topology``, the rows below an outage are zeroed, and one
    :func:`~outagekit.network._subtree_sums` pass adds each vertex's
    children in order, ``(x + c1) + c2``. ``sensors`` come checked, from
    :func:`~outagekit.network._sensor_tuple` or a plan.
    """
    position = topology.position
    for e in hyp:
        if position.get(e, 0) == 0:
            raise ValueError(f"outage on unknown edge {e!r}")
    mean = np.array([0.0, *map(tree.mean.__getitem__, tree.edges)])
    sd = np.sqrt([0.0, *map(tree.var.__getitem__, tree.edges)])
    noisy = np.flatnonzero(sd > 0)
    z = rng.standard_normal((n, len(noisy)))
    loads = np.repeat(mean[:, None], n, axis=1)
    loads[noisy] += sd[noisy, None] * z.T
    loads[[position[v] for e in hyp for v in tree.descendant_vertices(e)]] = 0.0
    _subtree_sums(topology, loads)
    return np.ascontiguousarray(loads[[position[s] for s in sensors]].T)


def simulate_outage(
    tree: Tree,
    sensors: Iterable[EdgeId],
    h_true: Iterable[EdgeId],
    *,
    seed: int | None = 0,
    rng: np.random.Generator | None = None,
) -> Observation:
    """Draw loads from the forecast distribution and meter exact flows.

    A sensor reads the sum of drawn loads below it that remain connected to
    the root under ``h_true``; sensors at or below an outage edge read zero.
    The feeder head is metered whether or not ``sensors`` names it, as in
    :func:`~outagekit.detector.detect`.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    sensor_list = _sensor_tuple(tree, sensors)
    row = _sample_readings(tree, _topology(tree), sensor_list, frozenset(h_true), 1, rng)[0]
    flows = dict(zip(sensor_list, row.tolist()))
    forecasts = {v: tree.mean[v] for v in tree.edges}
    return Observation(flows=flows, forecasts=forecasts)


# trials drawn and classified together; bounds memory at about
# 8 * MC_CHUNK * n_vertices bytes without changing the random stream
MC_CHUNK = 1024


def empirical_detection_rate(
    tree: Tree,
    sensors: Iterable[EdgeId],
    h_true: Iterable[EdgeId],
    n_trials: int,
    *,
    seed: int = 0,
    max_outages: int | None = 2,
    rho: float | None = None,
    cap: int = 1_000_000,
) -> tuple[float, float]:
    """Fraction of trials where detection differs from the truth, with stderr.

    Trials are drawn in batches and classified through one
    :class:`~outagekit.detector.DetectorPlan`; the result equals a loop of
    :func:`simulate_outage` and :func:`~outagekit.detector.detect` sharing
    one generator seeded with ``seed``.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    _check_rho(rho)
    hyp = frozenset(h_true)
    plan = plan_for(tree, sensors)
    moments = plan._moments(tree)
    rng = np.random.default_rng(seed)
    right = 0
    for start in range(0, n_trials, MC_CHUNK):
        readings = _sample_readings(
            tree, plan._topology, plan.sensors, hyp, min(MC_CHUNK, n_trials - start), rng
        )
        right += int(
            plan.matches(moments, readings, hyp, max_outages=max_outages, rho=rho, cap=cap).sum()
        )
    p = (n_trials - right) / n_trials
    se = math.sqrt(max(p * (1.0 - p), 1.0 / n_trials) / n_trials)
    return p, se


@dataclass(frozen=True)
class SweepConfig:
    """Grid experiment settings.

    Case studies follow the single-outage convention by default; the full
    pairwise hypothesis space is available by raising ``max_outages``.
    """

    kappas: tuple[float, ...] = (0.01, 0.3)
    targets: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3)
    n_vertices: int = 100
    seed: int = 0
    mode: str = "greedy"
    max_outages: int | None = 1
    max_children: int = 3
    mean_range: tuple[float, float] = (0.5, 1.5)

    def __post_init__(self) -> None:
        _check_max_outages(self.max_outages)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        _check_tree_shape(self.max_children, self.mean_range)
        for kappa in self.kappas:
            ForecastModel(kappa=kappa)
        for target in self.targets:
            if not (0.0 < target < math.inf):
                raise ValueError(f"targets must be finite and positive, got {target}")


@dataclass(frozen=True)
class SweepRow:
    kappa: float
    target: float
    n_sensors: int
    density: float
    mean_err: float
    max_err: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    histograms: dict = field(default_factory=dict)  # (kappa, target) -> tuple of errors


def _error_distribution(table: _AreaTable, placement: Placement) -> tuple[float, ...]:
    """Analytic missed detection of every (area, pattern, hypothesis) triple."""
    sensor_set = frozenset(placement.sensors)
    return tuple(e for s in placement.sensors for e in table.errors(s, sensor_set))


def sweep(config: SweepConfig = SweepConfig()) -> SweepResult:
    """Placement density and error distribution over a (kappa, target) grid.

    One tree per kappa (same topology seed, rescaled forecast deviations), so
    the target axis isolates the effect of the error budget. The targets of
    one kappa share an area table, so each area is evaluated once per tree.
    """
    shape = {"max_children": config.max_children, "mean_range": config.mean_range}
    base = random_tree(config.n_vertices, seed=config.seed, **shape)
    pconfig = PlacementConfig(max_outages=config.max_outages)
    rows = []
    hists = {}
    for kappa in config.kappas:
        tree = ForecastModel(mode="fixed_kappa", kappa=kappa).apply(base)
        table = _AreaTable(tree, pconfig)
        for target in config.targets:
            placement = _solve(tree, target, config.mode, pconfig, table)
            hist = _error_distribution(table, placement)
            rows.append(
                SweepRow(
                    kappa=kappa,
                    target=target,
                    n_sensors=len(placement.sensors),
                    density=len(placement.sensors) / len(tree.edges),
                    mean_err=float(np.mean(hist)) if hist else 0.0,
                    max_err=float(np.max(hist)) if hist else 0.0,
                )
            )
            hists[(kappa, target)] = hist
    return SweepResult(rows=tuple(rows), histograms=hists)


def write_sweep_csv(result: SweepResult, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kappa", "target", "n_sensors", "density", "mean_err", "max_err"])
        for r in result.rows:
            writer.writerow([r.kappa, r.target, r.n_sensors, r.density, r.mean_err, r.max_err])


def write_sweep_histograms(result: SweepResult, out_dir: str) -> list[str]:
    """One JSON file per grid point with the raw per-hypothesis error list."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for (kappa, target), errors in sorted(result.histograms.items()):
        name = f"hist_kappa{kappa:g}_target{target:g}.json"
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            json.dump({"kappa": kappa, "target": target, "errors": list(errors)}, fh, indent=1)
        written.append(path)
    return written
