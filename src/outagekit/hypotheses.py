"""Outage hypothesis enumeration over branch graphs.

A hypothesis is a set of simultaneously de-energized edges. Only antichains
matter: an outage hidden below another outage changes nothing a sensor can
see, so enumeration walks the branch graph and combines at most one edge per
root-to-leaf path. :func:`pattern_groups` splits one enumeration by the
child-sensor sign pattern each hypothesis induces, which is the only route
from a sign pattern to its hypotheses. The P/Z/U branch labeller that
derives the same sets pattern by pattern, and ``conserve_check``, which
checks that the patterns tile the unrestricted set, are test oracles in
``tests/helpers.py``.
"""

from __future__ import annotations

import math
from typing import Iterable

from .network import BranchGraph, BranchId, EdgeId

__all__ = [
    "Hypothesis",
    "EnumerationCapError",
    "hypothesis_sort_key",
    "enumerate_unique",
    "pattern_groups",
]

Hypothesis = frozenset  # frozenset[EdgeId]

DEFAULT_CAP = 1_000_000


class EnumerationCapError(RuntimeError):
    """Hypothesis count exceeded the configured cap."""


def _check_max_outages(max_outages: int | None) -> None:
    if max_outages is not None and max_outages < 0:
        raise ValueError(f"max_outages must be non-negative, got {max_outages}")


def _check_rho(rho: float | None) -> None:
    """Reject a per-edge outage prior rho that is not a finite positive number."""
    if rho is not None and not (math.isfinite(rho) and rho > 0.0):
        raise ValueError(f"rho must be a finite positive number, got {rho!r}")


def hypothesis_sort_key(h: Hypothesis) -> tuple[int, tuple[EdgeId, ...]]:
    """Deterministic ordering: cardinality first, then sorted edge ids."""
    return (len(h), tuple(sorted(h)))


def _check_cap(count: int, cap: int) -> None:
    if count > cap:
        raise EnumerationCapError(f"hypothesis enumeration exceeded cap of {cap}")


def _merge(
    combos: list[frozenset], sub: list[frozenset], max_outages: int | None, counted: int, cap: int
) -> list[frozenset]:
    """Every union of one member of ``combos`` with one of ``sub``, within the bound.

    The two lists draw on disjoint edges, so a union's size is the sum of
    the sizes. Raises :class:`EnumerationCapError` when ``counted`` plus the
    number of unions exceeds ``cap``.
    """
    if max_outages is None:
        # every pair is kept, so a runaway merge is refused before it is built
        _check_cap(counted + len(combos) * len(sub), cap)
        return [a | b if a else b for a in combos for b in sub]
    out = [
        a | b if a else b
        for a in combos
        for b in sub
        if len(a) + len(b) <= max_outages
    ]
    _check_cap(counted + len(out), cap)
    return out


def _bottom_up(graph: BranchGraph) -> list[BranchId]:
    """Every branch id of ``graph``, each after all the branches below it."""
    order = list(graph.roots)
    for bid in order:
        order.extend(graph.branches[bid].children)
    return order[::-1]


def enumerate_unique(
    graph: BranchGraph,
    *,
    max_outages: int | None = None,
    cap: int = DEFAULT_CAP,
) -> tuple[Hypothesis, ...]:
    """All antichain outage hypotheses of a branch graph, including ∅.

    ``max_outages`` bounds hypothesis cardinality and must be non-negative
    (``ValueError`` otherwise); ``cap`` aborts runaway enumerations with
    :class:`EnumerationCapError`. It counts every hypothesis built for a
    subtree along the way, not only the ones returned.
    """
    _check_max_outages(max_outages)
    counted = 0
    # the non-empty hypotheses of the subtree under each branch
    below: dict[BranchId, list[frozenset]] = {}
    for bid in _bottom_up(graph):
        branch = graph.branches[bid]
        combos: list[frozenset] = [frozenset()]
        for cid in branch.children:
            combos = _merge(combos, below.pop(cid) + [frozenset()], max_outages, counted, cap)
            counted += len(combos)
        # one outage on this branch blacks out everything below it
        out: list[frozenset] = [frozenset({e}) for e in branch.edges]
        out += [c for c in combos if c]
        counted += len(out)
        _check_cap(counted, cap)
        below[bid] = out
    combos = [frozenset()]
    for rid in graph.roots:
        combos = _merge(combos, below.pop(rid) + [frozenset()], max_outages, counted, cap)
    # duplicates cannot arise (edge sets of distinct branches are disjoint),
    # so a plain sort gives the canonical order: hypothesis_sort_key, taken
    # as size buckets each sorted by its sorted edge list
    by_size: dict[int, list[frozenset]] = {}
    for h in combos:
        by_size.setdefault(len(h), []).append(h)
    return tuple([h for k in sorted(by_size) for h in sorted(by_size[k], key=sorted)])


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
    :func:`hypothesis_sort_key` order; each equals the P/Z/U labeller's set
    for its pattern (``local_hypotheses`` in ``tests/helpers.py``), and a
    pattern with no key has no consistent hypothesis.
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
    below: dict[BranchId, int] = {}
    darkens: dict[EdgeId, int] = {}
    for bid in _bottom_up(graph):
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
