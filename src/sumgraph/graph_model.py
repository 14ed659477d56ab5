"""Domain types for parent graphs, summary graphs, regression graphs and MAGs.

A parent graph is a DAG over an ordered node list (index 0 is the
youngest response, the last node is generated first) stored as a unit
upper-triangular 0/1 matrix: entry (i, k) = 1 means i <- k, i.e. k is a
parent of i.

A summary graph splits its nodes into (u, v).  Within u it mixes arrows
(h_uu, unit upper-triangular in the stored u order) with dashed edges
(w_uu, symmetric), arrows point from v to u (h_uv), and within v there
is a concentration graph of full lines (s_vv, symmetric).  A pair in u
may carry an arrow and a dashed edge at once: a double edge.

Constructors check shapes only; semantic checks live in the
report-valued ``validate_parent`` / ``validate_summary`` so that broken
graphs can still be represented and diagnosed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable, Optional

import numpy as np

from .edge_matrix import is_unit_upper_triangular, reach_closure

NodeId = Hashable

ARROW = "arrow"
DASHED = "dashed"
FULL = "full"

# edge-end marks, as seen from one endpoint
HEAD = "head"
TAIL = "tail"
DASH = "dash"
LINE = "line"


class GraphModelError(ValueError):
    """Raised for structurally impossible graph constructions."""


class PlacementError(GraphModelError):
    """An edge kind is illegal for its endpoints' (u, v) blocks."""


def _as_binary(m, shape, name: str) -> np.ndarray:
    """A read-only int8 copy of a 0/1 matrix.  Graphs cache what they derive
    from their components, so the components must never change."""
    m = np.asarray(m)
    if m.shape != shape:
        raise GraphModelError(f"{name} has shape {m.shape}, expected {shape}")
    if not ((m == 0) | (m == 1)).all():  # before the cast, which would truncate
        raise GraphModelError(f"{name} must be a 0/1 matrix")
    m = m.astype(np.int8)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class Edge:
    """One edge of an edge list; arrows are directed head <- tail."""

    tail: NodeId
    head: NodeId
    kind: str

    def canonical(self) -> "Edge":
        if self.kind == ARROW:
            return self
        a, b = sorted((self.tail, self.head), key=_sort_key)
        return Edge(a, b, self.kind)


def _sort_key(node: NodeId):
    return (0, node) if isinstance(node, int) else (1, str(node))


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple[str, ...] = ()
    connected: bool = True

    @property
    def valid(self) -> bool:
        return not self.problems


@dataclass(frozen=True)
class Provenance:
    """How a summary graph was derived: the (C, M) spec and node split."""

    conditioning: frozenset = frozenset()
    marginalising: frozenset = frozenset()
    split: object | None = None


@dataclass(frozen=True, eq=False)
class ParentGraph:
    nodes: tuple[NodeId, ...]
    amat: np.ndarray

    def __post_init__(self):
        n = len(self.nodes)
        if len(set(self.nodes)) != n:
            raise GraphModelError("duplicate node ids")
        object.__setattr__(self, "amat", _as_binary(self.amat, (n, n), "amat"))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ParentGraph)
            and self.nodes == other.nodes
            and np.array_equal(self.amat, other.amat)
        )

    def __hash__(self):
        return hash((self.nodes, self.amat.tobytes()))

    @property
    def dim(self) -> int:
        return len(self.nodes)

    def index(self, node: NodeId) -> int:
        return self.nodes.index(node)

    def parents(self, node: NodeId) -> tuple[NodeId, ...]:
        i = self.index(node)
        return tuple(self.nodes[k] for k in np.flatnonzero(self.amat[i]) if k != i)

    def ancestor_matrix(self) -> np.ndarray:
        """Reflexive-transitive closure: (i, k) = 1 iff k is i or an ancestor of i."""
        return reach_closure(self.amat)


@dataclass(frozen=True, eq=False)
class SummaryGraph:
    u_nodes: tuple[NodeId, ...]
    v_nodes: tuple[NodeId, ...]
    h_uu: np.ndarray
    h_uv: np.ndarray
    w_uu: np.ndarray
    s_vv: np.ndarray
    provenance: Optional[Provenance] = field(default=None, compare=False)

    def __post_init__(self):
        nu, nv = len(self.u_nodes), len(self.v_nodes)
        if set(self.u_nodes) & set(self.v_nodes):
            raise GraphModelError("u and v overlap")
        if len(set(self.u_nodes)) != nu or len(set(self.v_nodes)) != nv:
            raise GraphModelError("duplicate node ids")
        object.__setattr__(self, "h_uu", _as_binary(self.h_uu, (nu, nu), "h_uu"))
        object.__setattr__(self, "h_uv", _as_binary(self.h_uv, (nu, nv), "h_uv"))
        object.__setattr__(self, "w_uu", _as_binary(self.w_uu, (nu, nu), "w_uu"))
        object.__setattr__(self, "s_vv", _as_binary(self.s_vv, (nv, nv), "s_vv"))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SummaryGraph)
            and self.u_nodes == other.u_nodes
            and self.v_nodes == other.v_nodes
            and np.array_equal(self.h_uu, other.h_uu)
            and np.array_equal(self.h_uv, other.h_uv)
            and np.array_equal(self.w_uu, other.w_uu)
            and np.array_equal(self.s_vv, other.s_vv)
        )

    def __hash__(self):
        return hash((self.u_nodes, self.v_nodes, self.h_uu.tobytes(), self.h_uv.tobytes(),
                     self.w_uu.tobytes(), self.s_vv.tobytes()))

    @cached_property
    def nodes(self) -> tuple[NodeId, ...]:
        return self.u_nodes + self.v_nodes

    def in_u(self, node: NodeId) -> bool:
        return node in self.u_nodes

    @cached_property
    def edge_index(self) -> "EdgeIndex":
        """The edges compiled on first use and kept; the components are
        read-only, so the index cannot go stale."""
        return _compile(self)

    @cached_property
    def _arrow_closure(self) -> np.ndarray:
        """The reflexive-transitive closure of h_uu, formed on first use and
        kept read-only: (i, k) = 1 iff u node k is u node i or an ancestor
        of it.  Not part of ``edge_index``, so queries that never ask for
        ancestors do not pay for it."""
        closed = reach_closure(self.h_uu)
        closed.setflags(write=False)
        return closed

    def ancestors_in_u(self, node: NodeId) -> frozenset:
        """Ancestors of a u node within u, via arrows of h_uu (node excluded)."""
        i = self.u_nodes.index(node)
        return frozenset(self.u_nodes[k] for k in np.flatnonzero(self._arrow_closure[i]) if k != i)

    def descendants(self, node: NodeId) -> frozenset:
        """Descendants via arrows (h_uu and h_uv), node excluded, read off
        the arrow closure: a u node's column, or for a v node the union of
        its u children's columns (only u nodes have parents)."""
        nu = len(self.u_nodes)
        j = self.nodes.index(node)
        closed = self._arrow_closure
        below = closed[:, j] if j < nu else closed[:, self.h_uv[:, j - nu] == 1].any(axis=1)
        return frozenset(self.u_nodes[i] for i in np.flatnonzero(below) if i != j)


@dataclass(frozen=True)
class EdgeIndex:
    """The edges of a summary graph, read once off its four components.

    ``adjacency`` maps each node to its edges as (other node, mark here,
    mark there), ordered by the other node's position; edges to the same
    node come in row order: an arrow headed at the earlier node, a dashed
    edge, an arrow headed at the later node.  ``parents`` holds, by node
    position, the positions of the arrow tails into that node (h_uu and
    h_uv); ``position`` maps each node to its position."""

    position: dict
    adjacency: dict
    parents: tuple[tuple[int, ...], ...]


def _compile(g: SummaryGraph) -> EdgeIndex:
    u, v = g.u_nodes, g.v_nodes
    nu = len(u)
    position = {n: i for i, n in enumerate(g.nodes)}
    parents: list[list[int]] = [[] for _ in position]
    # (row, block, x, y, mark at x, mark at y) in the order the rows of
    # h_uu, h_uv and the upper triangle of w_uu are read together
    links = []
    for i, k in np.argwhere(g.h_uu).tolist():
        if i != k:
            links.append((i, 0, u[i], u[k], HEAD, TAIL))
            parents[i].append(k)
    for i, k in np.argwhere(g.h_uv).tolist():
        links.append((i, 1, u[i], v[k], HEAD, TAIL))
        parents[i].append(nu + k)
    for i, k in np.argwhere(np.triu(g.w_uu, 1)).tolist():
        links.append((i, 2, u[i], u[k], DASH, DASH))
    links.sort(key=lambda rec: rec[:2])
    for i, k in np.argwhere(np.triu(g.s_vv, 1)).tolist():
        links.append((i, 3, v[i], v[k], LINE, LINE))
    adjacency: dict = {n: [] for n in position}
    for _, _, x, y, mark_x, mark_y in links:
        adjacency[x].append((y, mark_x, mark_y))
        adjacency[y].append((x, mark_y, mark_x))
    for n, recs in adjacency.items():
        adjacency[n] = tuple(sorted(recs, key=lambda rec: position[rec[0]]))
    return EdgeIndex(position, adjacency, tuple(map(tuple, parents)))


class Mag(SummaryGraph):
    """Summary graph constrained to at most one edge per node pair."""

    def __post_init__(self):
        super().__post_init__()
        both = np.triu(self.h_uu & self.w_uu, 1)
        if both.any():
            i, k = np.argwhere(both)[0]
            raise GraphModelError(
                f"MAG may not carry a double edge: pair ({self.u_nodes[i]}, {self.u_nodes[k]})"
            )


def reorder_v(g: SummaryGraph, v_order: Iterable[NodeId]) -> SummaryGraph:
    """Permute the v block into the given order; v order carries no meaning
    beyond indexing, so this is a pure relabelling of storage."""
    v_order = tuple(v_order)
    if set(v_order) != set(g.v_nodes) or len(v_order) != len(g.v_nodes):
        raise GraphModelError("v_order must permute the existing v nodes")
    perm = [g.v_nodes.index(n) for n in v_order]
    return SummaryGraph(
        u_nodes=g.u_nodes,
        v_nodes=v_order,
        h_uu=g.h_uu,
        h_uv=g.h_uv[:, perm] if g.h_uv.size else g.h_uv.reshape(len(g.u_nodes), len(perm)),
        w_uu=g.w_uu,
        s_vv=g.s_vv[np.ix_(perm, perm)] if perm else g.s_vv,
        provenance=g.provenance,
    )


def parent_to_summary(g: ParentGraph) -> SummaryGraph:
    """Read a parent graph as the summary graph with u = V and empty v."""
    n = g.dim
    return SummaryGraph(
        u_nodes=g.nodes,
        v_nodes=(),
        h_uu=g.amat,
        h_uv=np.zeros((n, 0), dtype=np.int8),
        w_uu=np.eye(n, dtype=np.int8),
        s_vv=np.zeros((0, 0), dtype=np.int8),
        provenance=Provenance(),
    )


# ---------------------------------------------------------------------------
# validation


def validate_parent(g: ParentGraph) -> ValidationReport:
    """Check triangularity and self-loops; report (not enforce) connectivity.

    Edge-minimality is an assumption of the generating-process reading and
    cannot be checked from structure alone.
    """
    problems = []
    a = g.amat
    n = g.dim
    for i in range(n):
        if a[i, i] != 1:
            problems.append(f"diagonal entry for node {g.nodes[i]} must be 1")
    for i in range(n):
        for k in range(i):
            if a[i, k] != 0:
                problems.append(
                    f"entry ({g.nodes[i]}, {g.nodes[k]}) below the diagonal breaks the "
                    "generating order (acyclicity)"
                )
    sym = ((a + a.T) > 0).astype(np.int8)
    connected = n == 0 or len(_reachable(sym, [0])) == n
    return ValidationReport(problems=tuple(problems), connected=connected)


def _reachable(sym: np.ndarray, start: Iterable[int], blocked: Iterable[int] = ()) -> set[int]:
    """Nodes reachable from ``start`` along the nonzero entries of ``sym``
    without entering a ``blocked`` node; the start nodes included."""
    blocked = set(blocked)
    seen = set(start)
    stack = list(seen)
    while stack:
        for y in np.flatnonzero(sym[stack.pop()]):
            y = int(y)
            if y not in seen and y not in blocked:
                seen.add(y)
                stack.append(y)
    return seen


def validate_summary(g: SummaryGraph) -> ValidationReport:
    problems = []
    nu = len(g.u_nodes)
    if nu and not is_unit_upper_triangular(g.h_uu):
        problems.append("h_uu is not unit upper-triangular in the stored u order")
    for name, m in (("w_uu", g.w_uu), ("s_vv", g.s_vv)):
        if m.shape[0]:
            if not np.array_equal(m, m.T):
                problems.append(f"{name} is not symmetric")
            if not (np.diag(m) == 1).all():
                problems.append(f"{name} must have a unit diagonal")
    prov = g.provenance
    if prov is not None and getattr(prov, "split", None) is not None:
        split = prov.split
        if tuple(getattr(split, "u", g.u_nodes)) != tuple(g.u_nodes):
            problems.append("provenance split u does not match stored u nodes")
        if tuple(getattr(split, "v", g.v_nodes)) != tuple(g.v_nodes):
            problems.append("provenance split v does not match stored v nodes")
    # By construction only arrows can point from v to u and only full lines
    # live within v, so those placement rules are enforced by the component
    # shapes themselves; nothing further to check here.
    n = len(g.nodes)
    connected = n == 0 or len(_reachable(_skeleton(g), [0])) == n
    return ValidationReport(problems=tuple(problems), connected=connected)


def _skeleton(g: SummaryGraph) -> np.ndarray:
    n = len(g.nodes)
    nu = len(g.u_nodes)
    m = np.zeros((n, n), dtype=np.int8)
    huu = g.h_uu - np.eye(nu, dtype=np.int8) if nu else g.h_uu
    wuu = g.w_uu - np.eye(nu, dtype=np.int8) if nu else g.w_uu
    svv = g.s_vv - np.eye(n - nu, dtype=np.int8) if n - nu else g.s_vv
    m[:nu, :nu] = ((huu + huu.T + wuu) > 0).astype(np.int8)
    m[:nu, nu:] = g.h_uv
    m[nu:, :nu] = g.h_uv.T
    m[nu:, nu:] = svv
    return m


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Classification:
    kind: str  # "regression_graph" | "summary_graph_proper"
    semi_directed_cycles: tuple[tuple[NodeId, ...], ...]
    double_edges: tuple[tuple[NodeId, NodeId], ...]
    independence_graph_candidate: bool


def classify(g: SummaryGraph) -> Classification:
    """Split the class: a regression graph is a summary graph without
    semi-directed cycles (direction-preserving cycles through at least one
    undirected edge).  Such cycles can only live within u, where arrows mix
    with dashed edges."""
    cycles = semi_directed_cycles(g)
    doubles = double_edges(g)
    return Classification(
        kind="regression_graph" if not cycles else "summary_graph_proper",
        semi_directed_cycles=cycles,
        double_edges=doubles,
        independence_graph_candidate=not doubles,
    )


def double_edges(g: SummaryGraph) -> tuple[tuple[NodeId, NodeId], ...]:
    both = np.triu(g.h_uu & g.w_uu, 1)
    return tuple(
        (g.u_nodes[i], g.u_nodes[k]) for i, k in np.argwhere(both)
    )


def semi_directed_cycles(g: SummaryGraph) -> tuple[tuple[NodeId, ...], ...]:
    """Direction-preserving simple cycles within u that use an arrow.

    Since arrows alone are acyclic, every such cycle also crosses a dashed
    edge; a double edge forms the shortest case, a two-node cycle.  For
    each arrow k -> i, a direction-preserving path from i back to k (where
    dashed edges run both ways) closes a cycle; one representative per
    distinct node set is reported.
    """
    nu = len(g.u_nodes)
    index = g.edge_index
    # k -> i along an arrow i <- k or a dashed edge; the ends in u with an
    # arrowhead or a dash are exactly those
    succ = [
        sorted({index.position[y] for y, _, mark_y in index.adjacency[x] if mark_y in (HEAD, DASH)})
        for x in g.u_nodes
    ]
    cycles: list[tuple[int, ...]] = []
    seen_sets: set[frozenset] = set()
    for i in range(nu):
        for k in index.parents[i]:
            if k >= nu:
                continue
            path = _direction_preserving_path(succ, i, k)
            if path is None:
                continue
            cyc = tuple(path)  # ends at k; the arrow k -> i closes it
            key = frozenset(cyc)
            if key not in seen_sets:
                seen_sets.add(key)
                cycles.append(cyc)
    return tuple(tuple(g.u_nodes[i] for i in cyc) for cyc in cycles)


def _direction_preserving_path(succ: list[list[int]], start: int, goal: int):
    """Shortest path start -> goal along the direction-preserving relation;
    a walk that reaches the goal always contains such a simple path."""
    from collections import deque

    prev: dict[int, int] = {start: start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in succ[x]:
            if y in prev:
                continue
            prev[y] = x
            if y == goal:
                path = [y]
                while path[-1] != start:
                    path.append(prev[path[-1]])
                return list(reversed(path))
            queue.append(y)
    return None


# ---------------------------------------------------------------------------
# edge lists


def to_edge_list(g: SummaryGraph) -> list[Edge]:
    """The edges of ``g``: the arrows of h_uu, then those of h_uv, the dashed
    edges of w_uu and the full lines of s_vv, each component read row by
    row over its nonzero off-diagonal cells (upper triangle only where it
    is symmetric)."""
    u, v = g.u_nodes, g.v_nodes
    h_uu = np.argwhere(g.h_uu).tolist()
    return (
        [Edge(tail=u[k], head=u[i], kind=ARROW) for i, k in h_uu if i != k]
        + [Edge(tail=v[k], head=u[i], kind=ARROW) for i, k in np.argwhere(g.h_uv).tolist()]
        + [Edge(tail=u[i], head=u[k], kind=DASHED) for i, k in np.argwhere(np.triu(g.w_uu, 1)).tolist()]
        + [Edge(tail=v[i], head=v[k], kind=FULL) for i, k in np.argwhere(np.triu(g.s_vv, 1)).tolist()]
    )


def from_edge_list(
    edges: Iterable[Edge],
    u_nodes: Iterable[NodeId],
    v_nodes: Iterable[NodeId] = (),
    provenance: Optional[Provenance] = None,
) -> SummaryGraph:
    """Assemble a summary graph from edges, checking the placement rules.

    The u order is kept if it is already topological for the arrows within
    u and recomputed (stably) otherwise; a directed cycle within u is an
    error.  Self edges are dropped on ingestion.
    """
    u = list(u_nodes)
    v = list(v_nodes)
    uset, vset = set(u), set(v)
    if uset & vset:
        raise GraphModelError("u and v overlap")
    edges = [e for e in edges if e.tail != e.head]
    for e in edges:
        if e.kind == ARROW:
            if e.head in vset:
                raise PlacementError(f"arrow into v node {e.head}")
            if e.head not in uset or (e.tail not in uset and e.tail not in vset):
                raise PlacementError(f"arrow {e.head} <- {e.tail} uses undeclared nodes")
        elif e.kind == DASHED:
            if not (e.tail in uset and e.head in uset):
                raise PlacementError(f"dashed edge {e.tail} ~~ {e.head} must lie within u")
        elif e.kind == FULL:
            if not (e.tail in vset and e.head in vset):
                raise PlacementError(f"full line {e.tail} -- {e.head} must lie within v")
        else:
            raise GraphModelError(f"unknown edge kind {e.kind!r}")
    u = _topological_u_order(u, edges)
    ui = {n: i for i, n in enumerate(u)}
    vi = {n: i for i, n in enumerate(v)}
    nu, nv = len(u), len(v)
    h_uu = np.eye(nu, dtype=np.int8)
    w_uu = np.eye(nu, dtype=np.int8)
    h_uv = np.zeros((nu, nv), dtype=np.int8)
    s_vv = np.eye(nv, dtype=np.int8)
    for e in edges:
        if e.kind == ARROW:
            if e.tail in uset:
                h_uu[ui[e.head], ui[e.tail]] = 1
            else:
                h_uv[ui[e.head], vi[e.tail]] = 1
        elif e.kind == DASHED:
            w_uu[ui[e.tail], ui[e.head]] = 1
            w_uu[ui[e.head], ui[e.tail]] = 1
        else:
            s_vv[vi[e.tail], vi[e.head]] = 1
            s_vv[vi[e.head], vi[e.tail]] = 1
    return SummaryGraph(tuple(u), tuple(v), h_uu, h_uv, w_uu, s_vv, provenance)


def _topological_u_order(u: list[NodeId], edges: list[Edge]) -> list[NodeId]:
    """Order u youngest-first so every node precedes its parents."""
    uset = set(u)
    parents: dict[NodeId, set[NodeId]] = {n: set() for n in u}
    for e in edges:
        if e.kind == ARROW and e.tail in uset and e.head in uset:
            parents[e.head].add(e.tail)
    pos = {n: i for i, n in enumerate(u)}
    if all(pos[p] > pos[n] for n in u for p in parents[n]):
        return u
    # Kahn, emitting nodes all of whose offsprings are already placed
    offspring: dict[NodeId, set[NodeId]] = {n: set() for n in u}
    for n in u:
        for p in parents[n]:
            offspring[p].add(n)
    remaining = dict((n, len(offspring[n])) for n in u)
    ready = sorted((n for n in u if remaining[n] == 0), key=lambda n: pos[n])
    order: list[NodeId] = []
    while ready:
        n = ready.pop(0)
        order.append(n)
        for p in sorted(parents[n], key=lambda q: pos[q]):
            remaining[p] -= 1
            if remaining[p] == 0:
                ready.append(p)
        ready.sort(key=lambda q: pos[q])
    if len(order) != len(u):
        raise GraphModelError("arrows within u contain a directed cycle; no topological order")
    return order
