"""Radial feeder model: rooted trees, branch decomposition, cumulative load stats.

Design choices
--------------
* An edge is identified by the vertex it feeds (its child endpoint), so
  ``EdgeId`` and ``VertexId`` share one namespace and an edge set is just a
  set of non-root vertex ids.
* ``Tree`` is immutable after construction; derived quantities
  (:class:`CumulativeStats`, :class:`BranchGraph`) are computed once and
  cached by the caller, never stored back on the tree.
* Every subtree sum is one bottom-up pass, ``_subtree_sums``, over one
  integer vertex index (position in ``tree.order``). :class:`CumulativeStats`
  holds the sums of forecast means and variances as arrays over that index:
  the one moments type the detector, the error analysis and placement read.
* Branch decomposition keeps a metered edge in the path section *above* the
  meter: the section ends with the edge that carries the sensor, and
  anything further downstream starts a new section.
* The feeder head is the root's single outgoing edge, and it is always
  metered: a root with any other number of edges, or a sensor on an edge
  not in the tree, is a :class:`FeederFormatError` wherever a sensor set
  enters the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

import numpy as np

__all__ = [
    "VertexId",
    "EdgeId",
    "BranchId",
    "FeederFormatError",
    "Tree",
    "build_tree",
    "Branch",
    "BranchGraph",
    "branch_decompose",
    "CumulativeStats",
    "cumulative_stats",
    "load_feeder",
    "dump_feeder",
]

VertexId = str
# An edge is named by its child vertex: edge "v7" joins parent("v7") to "v7".
EdgeId = str
BranchId = str


class FeederFormatError(ValueError):
    """Raised when vertex records or a feeder file do not describe a valid tree."""


@dataclass(frozen=True)
class Tree:
    """Rooted tree with per-vertex load forecasts.

    ``mean[v]`` and ``var[v]`` are the forecast mean and variance of the load
    at vertex ``v``; the root carries no load. ``order`` lists vertices with
    every parent before its children, root first.
    """

    root: VertexId
    parent: Mapping[VertexId, VertexId | None]
    children: Mapping[VertexId, tuple[VertexId, ...]]
    mean: Mapping[VertexId, float]
    var: Mapping[VertexId, float]
    order: tuple[VertexId, ...]

    @property
    def edges(self) -> tuple[EdgeId, ...]:
        """All edge ids (non-root vertices), in topological order."""
        return self.order[1:]

    def is_ancestor_edge(self, a: EdgeId, b: EdgeId) -> bool:
        """True if edge ``a`` lies on the path from the root to edge ``b`` (or a == b)."""
        v: VertexId | None = b
        while v is not None:
            if v == a:
                return True
            v = self.parent[v]
        return False

    def descendant_vertices(self, v: VertexId) -> set[VertexId]:
        """Vertices in the subtree rooted at ``v``, including ``v`` itself."""
        out: set[VertexId] = set()
        stack = [v]
        while stack:
            u = stack.pop()
            out.add(u)
            stack.extend(self.children[u])
        return out

    def depth(self, v: VertexId) -> int:
        d = 0
        u = self.parent[v]
        while u is not None:
            d += 1
            u = self.parent[u]
        return d

    def with_loads(
        self,
        mean: Mapping[VertexId, float] | None = None,
        var: Mapping[VertexId, float] | None = None,
    ) -> "Tree":
        """Functional update: same topology, new load statistics.

        The new tree shares this tree's ``parent`` and ``children`` mappings.
        Raises :class:`FeederFormatError` naming any id not in the tree.
        """
        unknown = sorted({*(mean or ()), *(var or ())} - self.parent.keys())
        if unknown:
            raise FeederFormatError(f"loads given for vertices not in the feeder: {unknown}")
        new_mean = dict(self.mean) if mean is None else {**self.mean, **mean}
        new_var = dict(self.var) if var is None else {**self.var, **var}
        new_mean[self.root] = 0.0
        new_var[self.root] = 0.0
        _check_loads(new_mean, new_var, self.root)
        return Tree(self.root, self.parent, self.children, new_mean, new_var, self.order)


def _check_loads(mean: Mapping[VertexId, float], var: Mapping[VertexId, float], root: VertexId) -> None:
    for v, m in mean.items():
        if v == root:
            if m != 0.0 or var[v] != 0.0:
                raise FeederFormatError("root vertex must carry no load")
            continue
        if not (0.0 <= m < math.inf):
            raise FeederFormatError(f"negative or non-finite mean load at {v!r}: {m}")
        if not (0.0 <= var[v] < math.inf):
            raise FeederFormatError(f"negative or non-finite load variance at {v!r}: {var[v]}")


def _load_value(value: object, what: str, vid: VertexId) -> float:
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):
        raise FeederFormatError(f"{what} at {vid!r} is not a number: {value!r}") from None


def build_tree(vertices: Iterable[Mapping[str, object]]) -> Tree:
    """Build a :class:`Tree` from vertex records.

    Each record needs ``id`` and ``parent`` (``None`` for the root) and may
    carry ``mean`` and ``var`` (default 0). Rejects duplicate ids, missing or
    multiple roots, unknown parents, cycles, and any load on the root.
    """
    parent: dict[VertexId, VertexId | None] = {}
    mean: dict[VertexId, float] = {}
    var: dict[VertexId, float] = {}
    for rec in vertices:
        vid = str(rec["id"])
        if vid in parent:
            raise FeederFormatError(f"duplicate vertex id {vid!r}")
        p = rec.get("parent")
        parent[vid] = None if p is None else str(p)
        mean[vid] = _load_value(rec.get("mean", 0.0), "mean load", vid)
        var[vid] = _load_value(rec.get("var", 0.0), "load variance", vid)

    roots = [v for v, p in parent.items() if p is None]
    if len(roots) != 1:
        raise FeederFormatError(f"expected exactly one root vertex, found {len(roots)}")
    root = roots[0]
    for v, p in parent.items():
        if p is not None and p not in parent:
            raise FeederFormatError(f"vertex {v!r} references unknown parent {p!r}")

    children: dict[VertexId, list[VertexId]] = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            children[p].append(v)
    for v in children:
        children[v].sort()

    # BFS from the root; anything unreached is disconnected (or on a cycle).
    order: list[VertexId] = [root]
    seen = {root}
    i = 0
    while i < len(order):
        for c in children[order[i]]:
            if c in seen:
                raise FeederFormatError(f"cycle through vertex {c!r}")
            seen.add(c)
            order.append(c)
        i += 1
    if len(order) != len(parent):
        missing = sorted(set(parent) - seen)
        raise FeederFormatError(f"vertices not connected to the root: {missing}")

    _check_loads(mean, var, root)
    return Tree(
        root=root,
        parent=parent,
        children={v: tuple(c) for v, c in children.items()},
        mean=mean,
        var=var,
        order=tuple(order),
    )


@dataclass(frozen=True)
class Branch:
    """A junction-free edge path. ``edges`` runs top (closest to root) to bottom.

    Synthetic branch graphs may carry empty ``edges``; decomposition of a real
    tree never produces one except the virtual root of a forest.
    """

    id: BranchId
    edges: tuple[EdgeId, ...]
    children: tuple[BranchId, ...]


@dataclass(frozen=True)
class BranchGraph:
    """Branches of a tree (or of an edge subset), linked parent to child."""

    branches: Mapping[BranchId, Branch]
    roots: tuple[BranchId, ...]

    def __iter__(self):
        return iter(self.branches.values())

    def edge_count(self) -> int:
        return sum(len(b.edges) for b in self.branches.values())


def branch_decompose(
    tree: Tree,
    sensors: Iterable[EdgeId] = (),
    *,
    within: Iterable[EdgeId] | None = None,
) -> BranchGraph:
    """Split a tree (or an edge subset) into junction-free branches.

    A new branch starts below a junction, and below any metered edge: the
    metered edge stays at the bottom of the upstream branch. ``within``
    restricts the decomposition to an edge subset (used for the region
    between nested sensors); the subset must be downward-closed between its
    own edges, which holds for every region this package constructs.

    Branch ids are the branch's top edge id.
    """
    sensor_set = set(sensors)
    edge_set = set(tree.edges) if within is None else set(within)
    parent = tree.parent
    children = tree.children
    for e in sensor_set | edge_set:
        if e not in parent or e == tree.root:
            raise FeederFormatError(f"unknown edge id {e!r}")

    # top edges: parent edge missing from the subset
    tops = sorted(e for e in edge_set if parent[e] not in edge_set)

    # iterative depth-first growth; a branch is stored after every branch
    # below it, children in tree order, and a finished branch is pushed as a
    # (top, path, kids) record
    branches: dict[BranchId, Branch] = {}
    stack: list = tops[::-1]
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            top, path, kids = item
            branches[top] = Branch(id=top, edges=tuple(path), children=kids)
            continue
        path = [item]
        while True:
            last = path[-1]
            nxt = [c for c in children[last] if c in edge_set]
            if len(nxt) != 1 or last in sensor_set:
                break
            path.append(nxt[0])
        kids = tuple(nxt)
        stack.append((item, path, kids))
        stack.extend(reversed(kids))
    return BranchGraph(branches=branches, roots=tuple(tops))


class _Topology(NamedTuple):
    """Integer vertex index of a tree: ``position[v]`` is ``v``'s index in
    ``tree.order``, the root at 0, and ``children`` lists ``(i, child
    positions)`` for every non-root vertex with children, bottom-up."""

    position: dict[VertexId, int]
    children: list[tuple[int, tuple[int, ...]]]


def _topology(tree: Tree) -> _Topology:
    position = {v: i for i, v in enumerate(tree.order)}
    children = [(i, tuple(map(position.__getitem__, tree.children[v])))
                for i, v in enumerate(tree.order) if i and tree.children[v]]
    return _Topology(position, children[::-1])


def _subtree_sums(topology: _Topology, values):
    """Turn per-vertex ``values``, a list of floats or a vertices x trials
    array, into subtree sums in place and return them. Each vertex adds its
    children in order, ``(x + c1) + c2``; slot 0, the root, is left as is."""
    for i, kids in topology.children:
        s = values[i]
        for c in kids:
            s += values[c]
        values[i] = s
    return values


@dataclass(frozen=True, eq=False)
class CumulativeStats:
    """Subtree-cumulative load statistics over the integer vertex index.

    ``mean[position[v]]`` / ``var[position[v]]`` sum the forecast mean /
    variance over every vertex at or below ``v`` (for an edge, everything it
    feeds); slot 0, the root, reads 0. ``total_mean`` is the total mean load.
    """

    mean: np.ndarray
    var: np.ndarray
    total_mean: float
    position: Mapping[VertexId, int]

    @cached_property
    def _lists(self) -> tuple[list[float], list[float]]:
        # ``mean`` and ``var`` for scalar reads, which are faster on lists
        return self.mean.tolist(), self.var.tolist()


def cumulative_stats(tree: Tree) -> CumulativeStats:
    """Subtree mean and variance sums of ``tree``, one bottom-up pass each."""
    topology = _topology(tree)
    means = [0.0, *map(tree.mean.__getitem__, tree.edges)]
    variances = [0.0, *map(tree.var.__getitem__, tree.edges)]
    total = sum(means)
    mean_sums = np.array(_subtree_sums(topology, means), dtype=float)
    var_sums = np.array(_subtree_sums(topology, variances), dtype=float)
    return CumulativeStats(mean_sums, var_sums, total, topology.position)


def _root_edge(tree: Tree) -> EdgeId:
    """The feeder head: the root's one outgoing edge."""
    root_edges = tree.children[tree.root]
    if len(root_edges) != 1:
        raise FeederFormatError("feeder root must have exactly one outgoing edge")
    return root_edges[0]


def _sensor_tuple(tree: Tree, sensors: Iterable[EdgeId]) -> tuple[EdgeId, ...]:
    """``sensors`` plus the feeder head, sorted; every id must name an edge."""
    out = set(sensors) | {_root_edge(tree)}
    for e in out:
        if e not in tree.parent or e == tree.root:
            raise FeederFormatError(f"sensor on unknown edge {e!r}")
    return tuple(sorted(out))


def load_feeder(source: str | Mapping[str, object]) -> tuple[Tree, tuple[EdgeId, ...]]:
    """Read a feeder description (path to JSON, or an already-parsed mapping).

    Format: ``{"vertices": [{"id", "parent", "mean", "sigma2"}...],
    "sensors": [edge ids]}``. Instead of ``sigma2`` a vertex may set
    ``"kappa_derived": true`` to take its deviation from the forecast scaling
    law applied to its own mean. The root edge is always metered and may be
    omitted from ``sensors``.
    """
    if isinstance(source, str):
        with open(source) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FeederFormatError(f"invalid JSON in {source!r}: {exc}") from exc
    else:
        data = source
    if not isinstance(data, Mapping) or "vertices" not in data:
        raise FeederFormatError("feeder description must be an object with a 'vertices' list")
    vertices = data["vertices"]
    if not isinstance(vertices, list):
        raise FeederFormatError("'vertices' must be a list")

    records = []
    for rec in vertices:
        if not isinstance(rec, Mapping) or "id" not in rec:
            raise FeederFormatError(f"bad vertex record: {rec!r}")
        row = {"id": rec["id"], "parent": rec.get("parent"), "mean": rec.get("mean", 0.0)}
        if rec.get("kappa_derived"):
            from .sim import kappa_of_load  # deferred: sim builds on this module

            mean = _load_value(row["mean"], "mean load", str(rec["id"]))
            row["var"] = (kappa_of_load(mean) * mean) ** 2 if mean > 0 else 0.0
        else:
            row["var"] = rec.get("sigma2", 0.0)
        records.append(row)
    tree = build_tree(records)
    raw = data.get("sensors", [])
    if not isinstance(raw, list):
        raise FeederFormatError("'sensors' must be a list of edge ids")
    return tree, _sensor_tuple(tree, (str(e) for e in raw))


def dump_feeder(tree: Tree, sensors: Iterable[EdgeId]) -> dict:
    """Inverse of :func:`load_feeder`, producing a JSON-serialisable dict."""
    verts = [
        {
            "id": v,
            "parent": tree.parent[v],
            "mean": tree.mean[v],
            "sigma2": tree.var[v],
        }
        for v in tree.order
    ]
    return {"vertices": verts, "sensors": sorted(set(sensors))}
