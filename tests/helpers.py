"""Tree builders and brute-force oracles shared across the test modules.

The oracles validate the library against slower, independent routes: the
P/Z/U sign-pattern labeller, the per-hypothesis scalar detector, the
joint-likelihood detector, the all-pairs winner partition, the scalar Monte
Carlo error and the exhaustive placement search.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

from outagekit.detector import (
    Area,
    AreaDecision,
    Detection,
    DetectionError,
    DetectorPlan,
    Observation,
    hypothesis_stats,
    plan_for,
)
from outagekit import errors
from outagekit.errors import _MERGE_TOL, _winner_partition
from outagekit.hypotheses import (
    DEFAULT_CAP,
    EnumerationCapError,
    Hypothesis,
    _check_max_outages,
    enumerate_unique,
    hypothesis_sort_key,
)
from outagekit.network import (
    Branch,
    BranchGraph,
    BranchId,
    CumulativeStats,
    EdgeId,
    Tree,
    _root_edge,
    branch_decompose,
    build_tree,
    cumulative_stats,
)
from outagekit.placement import BISECT_TOL, PlacementConfig, PlacementError, _AreaTable

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


def caterpillar_parents(spine: int) -> dict[str, str]:
    """Spine ``s1``..``s<spine>`` under ``root``; every spine vertex but the
    first carries one leaf ``l<i>``. Its branches nest ``spine`` deep."""
    parents = {"s1": "root"}
    for i in range(2, spine + 1):
        parents[f"s{i}"] = f"s{i - 1}"
        parents[f"l{i}"] = f"s{i}"
    return parents


def random_tree_oracle(
    n: int,
    *,
    seed: int = 0,
    max_children: int = 3,
    mean_range: tuple[float, float] = (0.5, 1.5),
) -> Tree:
    """The quadratic generator ``sim.random_tree`` replaced: it sorts the
    open-slot ids on every draw, so it picks from the same list in the same
    order and must build the same tree."""
    rng = random.Random(seed)
    lo, hi = mean_range
    records = [
        {"id": "v0", "parent": None},
        {"id": "v1", "parent": "v0", "mean": rng.uniform(lo, hi)},
    ]
    open_slots = {"v1": max_children}
    for i in range(2, n):
        parent = rng.choice(sorted(open_slots))
        open_slots[parent] -= 1
        if open_slots[parent] == 0:
            del open_slots[parent]
        vid = f"v{i}"
        records.append({"id": vid, "parent": parent, "mean": rng.uniform(lo, hi)})
        open_slots[vid] = max_children
    return build_tree(records)


def sample_readings_oracle(
    tree: Tree, sensors, hyp, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-trial, per-sensor scalar walk over the draws ``sim._sample_readings``
    takes: each sensor sums the loads of its subtree that no outage edge
    disconnects, one vertex at a time."""
    noisy = [v for v in tree.edges if tree.var[v] > 0]
    z = rng.standard_normal((n, len(noisy)))
    dark = set().union(*(tree.descendant_vertices(e) for e in hyp))
    out = np.empty((n, len(sensors)))
    for t in range(n):
        load = {v: tree.mean[v] for v in tree.edges}
        for v, x in zip(noisy, z[t].tolist()):
            load[v] += math.sqrt(tree.var[v]) * x
        for j, s in enumerate(sensors):
            out[t, j] = sum(load[v] for v in tree.descendant_vertices(s) if v not in dark)
    return out


def sensed_parent_oracle(tree: Tree, sensors) -> list[int]:
    """Per sensor, the index in ``sensors`` of the nearest sensed edge strictly
    above it, found by walking up the tree; the feeder head maps to itself."""
    index = {s: i for i, s in enumerate(sensors)}
    out = []
    for s in sensors:
        v = tree.parent[s]
        while v is not None and v not in index:
            v = tree.parent[v]
        out.append(index[s] if v is None else index[v])
    return out


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
    from outagekit.errors import all_missed_detection, pattern_hypothesis_sets

    worst = 0.0
    sets = pattern_hypothesis_sets(area, stats, max_outages=max_outages, cap=cap, rho=rho)
    for _, hset in sets:
        if len(hset) > 1:
            worst = max(worst, max(all_missed_detection(hset)))
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
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        p = fits(mid)
        if p is None:
            lo = mid
        else:
            hi = mid
            best = p
    return best


# P/Z/U sign-pattern labeller: derives one pattern's hypotheses by pruning the
# enumeration with branch labels, independently of pattern_groups

LABEL_POSITIVE = "P"
LABEL_ZERO = "Z"
LABEL_UNKNOWN = "U"


def _merge(
    combos: list[frozenset], sub: list[frozenset], max_outages: int | None
) -> list[frozenset]:
    """Every union of one member of ``combos`` with one of ``sub``, within the bound.

    The two lists draw on disjoint edges, so a union's size is the sum of
    the sizes.
    """
    if max_outages is None:
        return [a | b if a else b for a in combos for b in sub]
    return [
        a | b if a else b
        for a in combos
        for b in sub
        if len(a) + len(b) <= max_outages
    ]


def _expand(
    graph: BranchGraph,
    branch: Branch,
    labels: Mapping[BranchId, str] | None,
    allow_empty: Mapping[BranchId, bool] | None,
    max_outages: int | None,
    cap: int,
    counter: list[int],
) -> list[frozenset]:
    """Hypotheses for the subtree rooted at ``branch``.

    The empty set is included only when ``allow_empty`` permits it, which
    encodes the zero-coverage requirement: a subtree containing a zero-flow
    sensor must contribute at least one outage edge.
    """
    label = LABEL_UNKNOWN if labels is None else labels[branch.id]

    combos: list[frozenset] = [frozenset()]
    for cid in branch.children:
        child = graph.branches[cid]
        sub = _expand(graph, child, labels, allow_empty, max_outages, cap, counter)
        if allow_empty is None or allow_empty[cid]:
            sub = sub + [frozenset()]
        combos = _merge(combos, sub, max_outages)
        counter[0] += len(combos)
        if counter[0] > cap:
            raise EnumerationCapError(f"hypothesis enumeration exceeded cap of {cap}")
    combos = [c for c in combos if c]

    out: list[frozenset] = []
    if label != LABEL_POSITIVE:
        # one outage on this branch blacks out everything below it
        out.extend(frozenset({e}) for e in branch.edges)
    out.extend(combos)
    counter[0] += len(out)
    if counter[0] > cap:
        raise EnumerationCapError(f"hypothesis enumeration exceeded cap of {cap}")
    return out


def _combine_roots(
    graph: BranchGraph,
    labels: Mapping[BranchId, str] | None,
    allow_empty: Mapping[BranchId, bool] | None,
    max_outages: int | None,
    cap: int,
) -> list[frozenset]:
    counter = [0]
    combos: list[frozenset] = [frozenset()]
    for rid in graph.roots:
        root = graph.branches[rid]
        sub = _expand(graph, root, labels, allow_empty, max_outages, cap, counter)
        if allow_empty is None or allow_empty[rid]:
            sub = sub + [frozenset()]
        combos = _merge(combos, sub, max_outages)
        if counter[0] + len(combos) > cap:
            raise EnumerationCapError(f"hypothesis enumeration exceeded cap of {cap}")
    # duplicates cannot arise (edge sets of distinct branches are disjoint),
    # so a plain sort gives the canonical order: hypothesis_sort_key, taken
    # as size buckets each sorted by its sorted edge list
    by_size: dict[int, list[frozenset]] = {}
    for h in combos:
        by_size.setdefault(len(h), []).append(h)
    return [h for k in sorted(by_size) for h in sorted(by_size[k], key=sorted)]


def label_branches(
    graph: BranchGraph,
    positive: Mapping[EdgeId, bool],
) -> dict[BranchId, str]:
    """P/Z/U labels from child-sensor flow signs.

    ``positive`` maps each child sensor edge (the bottom edge of its branch)
    to the sign of its reading. A branch directly above a positive sensor is
    P, above a zero sensor Z; branches with no sensor below are U, except
    that any positive sensor anywhere below forces P (flow passes through).
    """
    labels: dict[BranchId, str] = {}

    def visit(bid: BranchId) -> str:
        b = graph.branches[bid]
        child_labels = [visit(c) for c in b.children]
        last = b.edges[-1] if b.edges else None
        if last is not None and last in positive:
            lab = LABEL_POSITIVE if positive[last] else LABEL_ZERO
        elif any(c == LABEL_POSITIVE for c in child_labels):
            lab = LABEL_POSITIVE
        else:
            lab = LABEL_UNKNOWN
        labels[bid] = lab
        return lab

    for rid in graph.roots:
        visit(rid)
    return labels


def local_hypotheses(
    graph: BranchGraph,
    positive: Mapping[EdgeId, bool],
    *,
    max_outages: int | None = None,
    cap: int = DEFAULT_CAP,
) -> tuple[Hypothesis, ...]:
    """Hypotheses of one area consistent with a child-sensor sign pattern.

    Positive rule: no outage on or above a branch that feeds a positive
    sensor. Zero rule: every zero sensor must sit below some outage edge.
    Coverage is enforced through every level of the branch graph, which makes
    the result equal brute-force sign filtering of the full hypothesis set.

    Returns the empty tuple when no hypothesis matches (inconsistent pattern).
    """
    labels = label_branches(graph, positive)

    has_zero: dict[BranchId, bool] = {}

    def scan(bid: BranchId) -> bool:
        b = graph.branches[bid]
        child_flags = [scan(c) for c in b.children]
        z = labels[bid] == LABEL_ZERO or any(child_flags)
        has_zero[bid] = z
        return z

    for rid in graph.roots:
        scan(rid)

    allow_empty = {bid: not has_zero[bid] for bid in graph.branches}

    result = _combine_roots(graph, labels, allow_empty, max_outages, cap)
    if any(not p for p in positive.values()):
        # some sensor is dark, so "no outage anywhere" is impossible
        result = [h for h in result if h]
    return tuple(result)


def branch_products(
    graph: BranchGraph,
    hypotheses: Iterable[Hypothesis],
) -> set[frozenset]:
    """Collapse hypotheses to the branch combinations they draw edges from.

    Two hypotheses map to the same product when they pick (any) one edge from
    the same set of branches. Useful for compact comparison of enumeration
    rules independently of branch sizes.
    """
    owner: dict[EdgeId, BranchId] = {}
    for b in graph.branches.values():
        for e in b.edges:
            owner[e] = b.id
    return {frozenset(owner[e] for e in h) for h in hypotheses}


def conserve_check(
    graph: BranchGraph,
    sensor_edges: Iterable[EdgeId],
    *,
    max_outages: int | None = None,
    cap: int = DEFAULT_CAP,
) -> bool:
    """True iff the sign-pattern subsets partition the full hypothesis set.

    Iterates every binary sign pattern of ``sensor_edges``, collects
    :func:`local_hypotheses` for each, and checks the union is disjoint and
    equals :func:`enumerate_unique` of the same graph (plus ∅, which belongs
    to the all-positive pattern).
    """
    sensors = sorted(set(sensor_edges))
    if len(sensors) > 20:
        raise ValueError("too many sensors for exhaustive pattern check")
    full = set(enumerate_unique(graph, max_outages=max_outages, cap=cap))
    seen: set[Hypothesis] = set()
    for mask in range(2 ** len(sensors)):
        pattern = {s: bool(mask >> i & 1) for i, s in enumerate(sensors)}
        part = local_hypotheses(graph, pattern, max_outages=max_outages, cap=cap)
        for h in part:
            if h in seen:
                return False
            seen.add(h)
    return seen == full


# joint-likelihood detector over all positive sensors


def _forecast_tree(tree: Tree, obs: Observation) -> Tree:
    if obs.forecasts is None:
        return tree
    means = {v: m for v, m in obs.forecasts.items() if v != tree.root}
    return tree.with_loads(mean=means)


def effective_measurement(area: Area, flows: Mapping[EdgeId, float]) -> float:
    """Root reading minus the sum of child-sensor readings."""
    try:
        return flows[area.root_sensor] - sum(flows[c] for c in area.child_sensors)
    except KeyError as exc:
        raise DetectionError(f"missing flow reading for sensor {exc.args[0]!r}") from exc


def _log_norm(var: float) -> float:
    """Log-density constant of N(mu, var)."""
    return -0.5 * math.log(2.0 * math.pi * var)


def scalar_detect_oracle(
    plan: DetectorPlan,
    stats: CumulativeStats,
    flows: Mapping[EdgeId, float],
    *,
    max_outages: int | None = 2,
    rho: float | None = None,
    cap: int = 1_000_000,
) -> Detection:
    """Per-area, per-hypothesis scoring loop; reference for the compiled kernel.

    Scores one hypothesis at a time through :func:`hypothesis_stats` and
    keeps each area's first maximum, raising what the kernel raises.
    """
    _check_max_outages(max_outages)
    positive = plan.signs(plan.readings(flows), stats.total_mean).tolist()
    if not positive[plan._root_index]:
        return Detection(hypothesis=frozenset({plan.root_edge}))

    index = {s: i for i, s in enumerate(plan.sensors)}
    area_index = [
        (index[a.root_sensor], tuple(index[c] for c in a.child_sensors)) for a in plan.areas
    ]
    log_rho = math.log(rho) if rho is not None else 0.0
    decisions: list[AreaDecision] = []
    for i, (area, (r, kids)) in enumerate(zip(plan.areas, area_index)):
        if not positive[r]:
            continue
        key = tuple(positive[j] for j in kids)
        local = plan.hypotheses(i, key, max_outages=max_outages, cap=cap)
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

    roots, picks, logliks = zip(*decisions) if decisions else ((), (), ())
    return Detection(frozenset().union(*picks), roots, picks, logliks)


def _pick(
    candidates: list[tuple[Hypothesis, float]],
) -> tuple[Hypothesis, float]:
    """Highest log-likelihood; ties broken by fewest edges, then edge ids."""
    return min(candidates, key=lambda c: (-c[1], hypothesis_sort_key(c[0])))


def detect_centralized_oracle(
    tree: Tree,
    sensors: Iterable[EdgeId],
    obs: Observation,
    *,
    max_outages: int | None = 2,
    rho: float | None = None,
    cap: int = 1_000_000,
) -> Hypothesis:
    """Joint MAP over the full unique-hypothesis set; validation reference.

    Scores every hypothesis consistent with the flow signs by the joint
    Gaussian likelihood of all positive readings (covariances follow sensor
    nesting). Same tie-breaking as :func:`detect`.
    """
    from scipy.stats import multivariate_normal

    plan = plan_for(tree, sensors)
    sensor_list = plan.sensors
    stats = cumulative_stats(_forecast_tree(tree, obs))
    positive = dict(zip(sensor_list, plan.signs(plan.readings(obs.flows), stats.total_mean).tolist()))

    hypotheses = enumerate_unique(
        branch_decompose(tree), max_outages=max_outages, cap=cap
    )
    live = [s for s in sensor_list if positive[s]]
    readings = np.array([obs.flows[s] for s in live])
    log_rho = math.log(rho) if rho is not None else 0.0

    scored: list[tuple[Hypothesis, float]] = []
    for h in hypotheses:
        ok = True
        for s in sensor_list:
            covered = any(tree.is_ancestor_edge(e, s) for e in h)
            if covered == positive[s]:
                ok = False
                break
        if not ok:
            continue
        mean = np.empty(len(live))
        rem_var = np.empty(len(live))
        for i, s in enumerate(live):
            mu = stats.mean[stats.position[s]]
            var = stats.var[stats.position[s]]
            for e in h:
                if e != s and tree.is_ancestor_edge(s, e):
                    mu -= stats.mean[stats.position[e]]
                    var -= stats.var[stats.position[e]]
            mean[i] = mu
            rem_var[i] = var
        cov = np.zeros((len(live), len(live)))
        for i, si in enumerate(live):
            for j, sj in enumerate(live):
                if i == j:
                    cov[i, j] = rem_var[i]
                elif tree.is_ancestor_edge(si, sj):
                    cov[i, j] = rem_var[j]
                elif tree.is_ancestor_edge(sj, si):
                    cov[i, j] = rem_var[i]
        if len(live) == 0:
            ll = 0.0
        else:
            try:
                ll = float(multivariate_normal(mean=mean, cov=cov).logpdf(readings))
            except np.linalg.LinAlgError as exc:
                raise DetectionError(f"singular covariance for {sorted(h)}") from exc
        if rho is not None:
            ll += len(h) * log_rho
        scored.append((h, ll))

    if not scored:
        raise DetectionError("no hypothesis consistent with the observed flows")
    hyp, _ = _pick(scored)
    return hyp


# scalar hypothesis sets: test-only views of errors.ScalarHypothesisSet and
# the all-pairs winner partition the sweep replaced


class ScalarHypothesisSet(errors.ScalarHypothesisSet):
    """The library's hypothesis set plus the common variance shift that
    criterion 8 applies."""

    def with_variance_shift(self, delta: float) -> "ScalarHypothesisSet":
        """Same test with ``delta`` added to every variance."""
        return ScalarHypothesisSet(
            self.hypotheses,
            self.means,
            tuple(v + delta for v in self.variances),
            self.log_priors,
        )


@dataclass(frozen=True)
class AcceptanceRegion:
    """Interval union on which one hypothesis wins the likelihood comparison."""

    hypothesis: Hypothesis
    intervals: tuple[tuple[float, float], ...]


def acceptance_regions(hset: errors.ScalarHypothesisSet) -> tuple[AcceptanceRegion, ...]:
    """Per-hypothesis winning intervals of the library's partition; together
    they tile the real line."""
    by_hyp: dict[int, list[tuple[float, float]]] = {k: [] for k in range(len(hset))}
    for lo, hi, win in _winner_partition(hset):
        by_hyp[win].append((lo, hi))
    return tuple(
        AcceptanceRegion(hset.hypotheses[k], tuple(by_hyp[k])) for k in range(len(hset))
    )


def winner_partition_oracle(hset: errors.ScalarHypothesisSet) -> list[tuple[float, float, int]]:
    """(lo, hi, winner index) pieces tiling the real line.

    Boundary candidates are all real roots of pairwise log-density
    equalities; roots closer than 1e-12 (in scale units) collapse to one
    cut, and adjacent intervals with equal argmax merge.
    """
    n = len(hset)
    if n == 1:
        return [(-math.inf, math.inf, 0)]
    mu = np.asarray(hset.means)
    var = np.asarray(hset.variances)
    w = np.asarray(hset.log_priors)

    i, j = np.triu_indices(n, k=1)
    a = 0.5 / var[j] - 0.5 / var[i]
    b = mu[i] / var[i] - mu[j] / var[j]
    c = (
        (w[i] - w[j])
        - 0.5 * np.log(var[i] / var[j])
        - mu[i] ** 2 / (2.0 * var[i])
        + mu[j] ** 2 / (2.0 * var[j])
    )
    roots: list[np.ndarray] = []
    quad = a != 0.0
    if np.any(quad):
        disc = b[quad] ** 2 - 4.0 * a[quad] * c[quad]
        ok = disc >= 0.0
        if np.any(ok):
            aq = a[quad][ok]
            bq = b[quad][ok]
            sq = np.sqrt(disc[ok])
            roots.append((-bq - sq) / (2.0 * aq))
            roots.append((-bq + sq) / (2.0 * aq))
    lin = (~quad) & (b != 0.0)
    if np.any(lin):
        roots.append(-c[lin] / b[lin])

    scale = max(1.0, float(np.max(np.abs(mu))), float(np.max(np.sqrt(var))))
    if roots:
        allr = np.sort(np.concatenate(roots))
        keep = np.concatenate(([True], np.diff(allr) > _MERGE_TOL * scale))
        cuts = allr[keep]
    else:
        cuts = np.empty(0)

    span = 10.0 * float(np.max(np.sqrt(var))) + scale
    if cuts.size == 0:
        probes = np.array([float(np.mean(mu))])
    else:
        probes = np.concatenate(
            ([cuts[0] - span], 0.5 * (cuts[:-1] + cuts[1:]), [cuts[-1] + span])
        )
    ll = (
        w[:, None]
        - 0.5 * np.log(2.0 * np.pi * var)[:, None]
        - (probes[None, :] - mu[:, None]) ** 2 / (2.0 * var[:, None])
    )
    winners = np.argmax(ll, axis=0)

    bounds = np.concatenate(([-math.inf], cuts, [math.inf]))
    pieces: list[tuple[float, float, int]] = []
    start = 0
    for t in range(1, len(winners) + 1):
        if t == len(winners) or winners[t] != winners[start]:
            pieces.append((float(bounds[start]), float(bounds[t]), int(winners[start])))
            start = t
    return pieces


# scalar Monte Carlo error of one hypothesis set


def monte_carlo_error(
    hset: errors.ScalarHypothesisSet,
    k: int,
    n_samples: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Empirical missed-detection frequency and its binomial standard error."""
    rng = np.random.default_rng(seed)
    mu = np.asarray(hset.means)
    var = np.asarray(hset.variances)
    w = np.asarray(hset.log_priors)
    s = hset.means[k] + math.sqrt(hset.variances[k]) * rng.standard_normal(n_samples)
    ll = (
        w[:, None]
        - 0.5 * np.log(2.0 * np.pi * var)[:, None]
        - (s[None, :] - mu[:, None]) ** 2 / (2.0 * var[:, None])
    )
    wrong = np.argmax(ll, axis=0) != k
    p = float(np.mean(wrong))
    se = math.sqrt(max(p * (1.0 - p), 1.0 / n_samples) / n_samples)
    return p, se


# exhaustive placement search


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive-search optima for both placement objectives."""

    minmax_placement: tuple[EdgeId, ...]
    minmax_value: float
    minmax_product: float
    product_placement: tuple[EdgeId, ...]
    product_value: float
    evaluated: int = field(default=0)


def brute_force_placement_oracle(
    tree: Tree,
    n_added: int,
    *,
    config: PlacementConfig = PlacementConfig(),
) -> OracleResult:
    """Evaluate every placement of ``n_added`` sensors (plus the root edge).

    Scores each subset under (a) the worst area error and (b) the product of
    per-area correct-detection minima, and returns the optimum of each.
    """
    root_edge = _root_edge(tree)
    candidates = sorted(e for e in tree.edges if e != root_edge)
    if n_added > len(candidates):
        raise PlacementError(f"cannot add {n_added} sensors to {len(candidates)} edges")
    table = _AreaTable(tree, config)

    best_mm: tuple[float, tuple[EdgeId, ...]] | None = None
    best_mm_prod = 0.0
    best_pr: tuple[float, tuple[EdgeId, ...]] | None = None
    count = 0
    for combo in combinations(candidates, n_added):
        count += 1
        sensor_set = frozenset(combo) | {root_edge}
        worst = 0.0
        prod = 1.0
        for s in sorted(sensor_set):
            err = table.error(s, sensor_set)
            worst = max(worst, err)
            prod *= 1.0 - err
        placement = tuple(sorted(sensor_set))
        if best_mm is None or (worst, placement) < best_mm:
            best_mm = (worst, placement)
            best_mm_prod = prod
        if best_pr is None or (-prod, placement) < best_pr:
            best_pr = (-prod, placement)
    assert best_mm is not None and best_pr is not None
    return OracleResult(
        minmax_placement=best_mm[1],
        minmax_value=best_mm[0],
        minmax_product=best_mm_prod,
        product_placement=best_pr[1],
        product_value=-best_pr[0],
        evaluated=count,
    )
