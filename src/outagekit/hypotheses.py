"""Outage hypothesis enumeration over branch graphs.

A hypothesis is a set of simultaneously de-energized edges. Only antichains
matter: an outage hidden below another outage changes nothing a sensor can
see, so enumeration walks the branch graph and combines at most one edge per
root-to-leaf path. Flow signs at child sensors prune the combination rules
per branch (P/Z/U labels); the pruned union over all sign patterns tiles the
unrestricted set exactly, which :func:`conserve_check` verifies.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .network import Branch, BranchGraph, BranchId, EdgeId

__all__ = [
    "Hypothesis",
    "EnumerationCapError",
    "hypothesis_sort_key",
    "enumerate_unique",
    "pattern_groups",
    "label_branches",
    "local_hypotheses",
    "branch_products",
    "conserve_check",
]

Hypothesis = frozenset  # frozenset[EdgeId]

DEFAULT_CAP = 1_000_000

LABEL_POSITIVE = "P"
LABEL_ZERO = "Z"
LABEL_UNKNOWN = "U"


class EnumerationCapError(RuntimeError):
    """Hypothesis count exceeded the configured cap."""


def _check_max_outages(max_outages: int | None) -> None:
    if max_outages is not None and max_outages < 0:
        raise ValueError(f"max_outages must be non-negative, got {max_outages}")


def hypothesis_sort_key(h: Hypothesis) -> tuple[int, tuple[EdgeId, ...]]:
    """Deterministic ordering: cardinality first, then sorted edge ids."""
    return (len(h), tuple(sorted(h)))


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


def enumerate_unique(
    graph: BranchGraph,
    *,
    max_outages: int | None = None,
    cap: int = DEFAULT_CAP,
) -> tuple[Hypothesis, ...]:
    """All antichain outage hypotheses of a branch graph, including ∅.

    ``max_outages`` bounds hypothesis cardinality and must be non-negative
    (``ValueError`` otherwise); ``cap`` aborts runaway enumerations with
    :class:`EnumerationCapError`.
    """
    _check_max_outages(max_outages)
    return tuple(_combine_roots(graph, None, None, max_outages, cap))


def pattern_groups(
    graph: BranchGraph,
    child_sensors: Iterable[EdgeId],
    *,
    max_outages: int | None = None,
    cap: int = DEFAULT_CAP,
) -> dict[tuple[bool, ...], tuple[Hypothesis, ...]]:
    """Hypotheses of one area grouped by the child-sensor sign pattern each induces.

    Keys are flow signs (True = positive) of ``sorted(child_sensors)``. A
    child sensor reads zero exactly when a hypothesis edge sits at or above
    it. Enumerates the area once, so cost follows the hypothesis count rather
    than the 2^K sign patterns, and ``cap`` bounds that whole enumeration.
    The groups partition :func:`enumerate_unique` of the graph, each in
    :func:`hypothesis_sort_key` order; each equals :func:`local_hypotheses`
    of its pattern, and a pattern with no key has no consistent hypothesis.
    """
    sensors = sorted(child_sensors)
    hypotheses = enumerate_unique(graph, max_outages=max_outages, cap=cap)
    if not sensors:
        return {(): hypotheses}
    # each child sensor is the bottom edge of its own branch, so the edges of
    # a branch sit at or above exactly the sensors ending it or a branch
    # below it; bit i of darkens[e] marks sensor i as cut off by edge e
    bits = [1 << i for i in range(len(sensors))]
    sensor_bit = dict(zip(sensors, bits))
    order = list(graph.roots)
    for bid in order:
        order.extend(graph.branches[bid].children)
    below: dict[BranchId, int] = {}
    darkens: dict[EdgeId, int] = {}
    for bid in reversed(order):
        b = graph.branches[bid]
        mask = sensor_bit.get(b.edges[-1], 0) if b.edges else 0
        for c in b.children:
            mask |= below[c]
        below[bid] = mask
        if mask:
            for e in b.edges:
                darkens[e] = mask

    by_dark: dict[int, list[Hypothesis]] = {}
    for h in hypotheses:
        dark = 0
        for e in h:
            dark |= darkens.get(e, 0)
        by_dark.setdefault(dark, []).append(h)
    return {
        tuple([not dark & bit for bit in bits]): tuple(group)
        for dark, group in by_dark.items()
    }


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
    shallow_zero_rule: bool = False,
) -> tuple[Hypothesis, ...]:
    """Hypotheses of one area consistent with a child-sensor sign pattern.

    Positive rule: no outage on or above a branch that feeds a positive
    sensor. Zero rule: every zero sensor must sit below some outage edge. By
    default coverage is enforced through every level of the branch graph,
    which makes the result equal brute-force sign filtering of the full
    hypothesis set. With ``shallow_zero_rule`` the coverage requirement
    applies only to a junction's immediately zero-labeled children, a coarser
    variant that can admit hypotheses leaving a deeper zero sensor energized.

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

    if shallow_zero_rule:
        allow_empty = {bid: labels[bid] != LABEL_ZERO for bid in graph.branches}
    else:
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
