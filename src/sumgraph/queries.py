"""Independence decision procedures on summary graphs.

The central test is the active-path criterion: a summary graph implies
alpha independent of beta given c exactly when no path joins the two
sets in which every inner collision node is in c or has a descendant in
c while every other inner node stays outside c.

The implied verdict is computed by a reachability sweep over
(node, entering edge-end) states, which admits repeated nodes; an active
walk exists iff an active path does, and the brute-force path enumerator
used in the tests double-checks that equivalence on small graphs.
A witness is the shortest active path, ties broken by node order; it is
found by a depth-first search whose length cap rises one node at a time
and stops at the first length with a hit, so the longer paths are never
listed.  ``active_paths`` still lists every path for the callers that
report them all, and ``confounding.indirect_paths`` runs the same
generator (``_path_search``) with its forefathers as the only nodes
enabled as collisions.  All of these read the edge lists each graph
compiles once (``SummaryGraph.edge_index``); the ancestor sets of
``local_markov`` come from the arrow closure each graph keeps beside it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .graph_model import (
    DASH,
    HEAD,
    LINE,
    TAIL,
    GraphModelError,
    NodeId,
    SummaryGraph,
    _reachable,
    _skeleton,
    classify,
)
from .transform import is_collision_pair


class QueryError(GraphModelError):
    pass


@dataclass(frozen=True)
class IndependenceQuery:
    alpha: frozenset
    beta: frozenset
    given: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "alpha", frozenset(self.alpha))
        object.__setattr__(self, "beta", frozenset(self.beta))
        object.__setattr__(self, "given", frozenset(self.given))
        if not self.alpha or not self.beta:
            raise QueryError("alpha and beta must be non-empty")
        if self.alpha & self.beta or self.alpha & self.given or self.beta & self.given:
            raise QueryError("alpha, beta and the conditioning set must be disjoint")


@dataclass(frozen=True)
class PathWitness:
    """An active path: the node sequence, the edge kind of every step as the
    pair of end marks (mark at the earlier node, mark at the later node), and
    the collision/transmitting status of each inner node."""

    nodes: tuple[NodeId, ...]
    marks: tuple[tuple[str, str], ...]
    inner_status: tuple[str, ...]

    def render(self) -> str:
        symbols = []
        for (mx, my) in self.marks:
            if mx == DASH:
                symbols.append("~~")
            elif mx == LINE:
                symbols.append("--")
            elif mx == HEAD:
                symbols.append("<-")
            else:
                symbols.append("->")
        parts = [str(self.nodes[0])]
        for sym, node in zip(symbols, self.nodes[1:]):
            parts.append(sym)
            parts.append(str(node))
        return " ".join(parts)


@dataclass(frozen=True)
class Verdict:
    implied: bool
    witness: Optional[PathWitness] = None


def _collision_enabled(g: SummaryGraph, conditioning: frozenset) -> frozenset:
    """Nodes that are in c or have a descendant in c: one sweep from c up
    the arrows of h_uu and h_uv."""
    index = g.edge_index
    seen = {index.position[c] for c in conditioning if c in index.position}
    stack = list(seen)
    while stack:
        for k in index.parents[stack.pop()]:
            if k not in seen:
                seen.add(k)
                stack.append(k)
    return frozenset(conditioning) | {g.nodes[i] for i in seen}


def _inner_ok(
    node: NodeId,
    mark_in: str,
    mark_out: str,
    marginalised: frozenset,
    enabled: frozenset,
) -> bool:
    if is_collision_pair(mark_in, mark_out):
        return node in enabled
    return node in marginalised


def _roles(g, alpha, beta, conditioning, marginalised):
    """The query's node sets as frozensets, ``marginalised`` defaulting to
    every other node, plus the nodes enabled as collisions."""
    alpha, beta = frozenset(alpha), frozenset(beta)
    conditioning = frozenset(conditioning)
    if marginalised is None:
        marginalised = frozenset(g.nodes) - alpha - beta - conditioning
    else:
        marginalised = frozenset(marginalised)
    return alpha, beta, marginalised, _collision_enabled(g, conditioning)


def has_active_path(
    g: SummaryGraph,
    alpha: Iterable[NodeId],
    beta: Iterable[NodeId],
    conditioning: Iterable[NodeId] = (),
    marginalised: Optional[Iterable[NodeId]] = None,
    skip_direct: frozenset = frozenset(),
) -> bool:
    """Reachability test for an active path between alpha and beta relative to
    [conditioning, marginalised].  When ``marginalised`` is None it defaults
    to all remaining nodes (the implicit reading used by independence
    queries).  ``skip_direct`` removes given single edges (as frozenset node
    pairs) from consideration, which the confounding audit uses to ignore the
    audited edge itself."""
    alpha, beta, marginalised, enabled = _roles(g, alpha, beta, conditioning, marginalised)
    adj = g.edge_index.adjacency
    endpoints = alpha | beta
    seen: set[tuple[NodeId, str]] = set()
    stack: list[tuple[NodeId, str]] = []
    for i in sorted(alpha, key=str):
        for (y, mark_i, mark_y) in adj[i]:
            if y in beta and frozenset((i, y)) not in skip_direct:
                return True
            if y in endpoints:
                continue
            state = (y, mark_y)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    while stack:
        x, mark_in = stack.pop()
        for (y, mark_x, mark_y) in adj[x]:
            if not _inner_ok(x, mark_in, mark_x, marginalised, enabled):
                continue
            if y in beta:
                return True
            if y in endpoints:
                continue
            state = (y, mark_y)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return False


def _path_search(g, alpha, beta, marginalised, enabled, skip_direct, cap):
    """Active paths of at most ``cap`` nodes, depth first from each alpha
    node and along each node's edges, both in node order.  Yields each path
    as (node positions, nodes, edge marks)."""
    adj = g.edge_index.adjacency
    order = g.edge_index.position
    endpoints = alpha | beta

    def extend(nodes, marks, key, mark_in):
        x = nodes[-1]
        depth = len(nodes)
        for (y, mark_x, mark_y) in adj[x]:
            if depth > 1 and not _inner_ok(x, mark_in, mark_x, marginalised, enabled):
                continue
            ky = key + [order[y]]
            step = marks + [(mark_x, mark_y)]
            if y in beta:
                if depth > 1 or frozenset((x, y)) not in skip_direct:
                    yield ky, nodes + [y], step
                continue
            if y in endpoints or y in nodes or depth + 1 >= cap:
                continue
            yield from extend(nodes + [y], step, ky, mark_y)

    for a in sorted(alpha, key=order.__getitem__):
        yield from extend([a], [], [order[a]], "")


def _witness(nodes: list, marks: list) -> PathWitness:
    statuses = tuple(
        "collision" if is_collision_pair(marks[j - 1][1], marks[j][0]) else "transmitting"
        for j in range(1, len(marks))
    )
    return PathWitness(tuple(nodes), tuple(marks), statuses)


def active_paths(
    g: SummaryGraph,
    alpha: Iterable[NodeId],
    beta: Iterable[NodeId],
    conditioning: Iterable[NodeId] = (),
    marginalised: Optional[Iterable[NodeId]] = None,
    skip_direct: frozenset = frozenset(),
    max_len: Optional[int] = None,
) -> list[PathWitness]:
    """Enumerate active paths (distinct inner nodes, endpoints excluded as
    inner nodes), ordered by length then lexicographically by node order."""
    roles = _roles(g, alpha, beta, conditioning, marginalised)
    limit = max_len if max_len is not None else len(g.nodes)
    return _listed(_path_search(g, *roles, skip_direct, limit + 1))


def _listed(paths) -> list[PathWitness]:
    """The paths of ``_path_search`` as witnesses, ordered by length, then
    lexicographically by node position."""
    found = sorted(paths, key=lambda path: (len(path[0]), path[0]))
    return [_witness(nodes, marks) for _, nodes, marks in found]


def _first_active_path(
    g: SummaryGraph, alpha: frozenset, beta: frozenset, conditioning: frozenset
) -> Optional[PathWitness]:
    """``active_paths(g, alpha, beta, conditioning)[0]`` without enumerating
    the rest: the search is capped at ``cap`` nodes, and the cap rises one
    node at a time until some level has a hit.  Every hit of that level has
    ``cap`` nodes; the first with the smallest node positions is kept."""
    roles = _roles(g, alpha, beta, conditioning, None)
    for cap in range(2, len(g.nodes) + 1):
        best = None
        for path in _path_search(g, *roles, frozenset(), cap):
            if best is None or path[0] < best[0]:
                best = path
        if best is not None:
            return _witness(best[1], best[2])
    return None


def implies_independence(g: SummaryGraph, q: IndependenceQuery) -> Verdict:
    """Decide whether the graph implies alpha independent of beta given c,
    returning a shortest active path as witness when it does not (the
    first of ``active_paths``, found without listing the others)."""
    extra = (q.alpha | q.beta | q.given) - set(g.nodes)
    if extra:
        raise QueryError(f"query names unknown nodes: {sorted(extra, key=str)}")
    if has_active_path(g, q.alpha, q.beta, q.given):
        return Verdict(implied=False, witness=_first_active_path(g, q.alpha, q.beta, q.given))
    return Verdict(implied=True)


# ---------------------------------------------------------------------------
# undirected separations


def _check_disjoint(dim, alpha, beta, other):
    for name, s in (("alpha", alpha), ("beta", beta), ("separator", other)):
        for i in s:
            if not 0 <= i < dim:
                raise QueryError(f"{name} index {i} out of range")
    if set(alpha) & set(beta) or set(alpha) & set(other) or set(beta) & set(other):
        raise QueryError("separation arguments must be disjoint")


def separate_concentration(mat: np.ndarray, alpha, beta, c) -> bool:
    """Concentration-graph separation: every alpha-beta path meets c."""
    mat = np.asarray(mat)
    _check_disjoint(mat.shape[0], alpha, beta, c)
    return not _reachable(mat, alpha, c) & set(beta)


def separate_covariance(mat: np.ndarray, alpha, beta, m) -> bool:
    """Covariance-graph separation: every alpha-beta path meets m."""
    mat = np.asarray(mat)
    _check_disjoint(mat.shape[0], alpha, beta, m)
    return not _reachable(mat, alpha, m) & set(beta)


# ---------------------------------------------------------------------------
# local Markov statements


@dataclass(frozen=True)
class IndependenceStatement:
    i: NodeId
    k: NodeId
    given: frozenset
    family: int
    conditioning_context: frozenset = frozenset()

    def render(self) -> str:
        given = sorted(self.given, key=str)
        ctx = sorted(self.conditioning_context, key=str)
        cond = ", ".join(str(x) for x in ctx + given)
        return f"{self.i} _||_ {self.k} | {{{cond}}}" if cond else f"{self.i} _||_ {self.k}"


def local_markov(g: SummaryGraph) -> list[IndependenceStatement]:
    """Pairwise local Markov statements of the four families: within v,
    u to v, u pairs across non-ancestors, and u to ancestors.  Every
    candidate is confirmed through the path criterion before it is
    emitted; the derivation context C is carried along separately."""
    prov = g.provenance
    context = frozenset(prov.conditioning) if prov is not None else frozenset()
    nu, nv = len(g.u_nodes), len(g.v_nodes)
    closed = g._arrow_closure
    anc = [frozenset(np.flatnonzero(closed[a]).tolist()) - {a} for a in range(nu)]
    out: list[IndependenceStatement] = []

    def confirm(i, k, given, family) -> None:
        if not has_active_path(g, (i,), (k,), given):
            out.append(IndependenceStatement(i, k, given, family, context))

    # (1) within v, given the rest of v
    for a in range(nv):
        for b in range(a + 1, nv):
            if not g.s_vv[a, b]:
                i, k = g.v_nodes[a], g.v_nodes[b]
                confirm(i, k, frozenset(set(g.v_nodes) - {i, k}), 1)
    # (2) u to v, given the rest of v
    for a in range(nu):
        for b in range(nv):
            if not g.h_uv[a, b]:
                k = g.v_nodes[b]
                confirm(g.u_nodes[a], k, frozenset(set(g.v_nodes) - {k}), 2)
    # (3) u pairs, the later node not an ancestor of the earlier, given v
    # and their ancestors
    for a in range(nu):
        for b in range(a + 1, nu):
            if b not in anc[a]:
                e = (anc[a] | anc[b]) - {a, b}
                given = frozenset(set(g.v_nodes) | {g.u_nodes[x] for x in e})
                confirm(g.u_nodes[a], g.u_nodes[b], given, 3)
    # (4) u to its ancestors that are not parents, given v and the other
    # ancestors
    for a in range(nu):
        for b in sorted(anc[a]):
            if not g.h_uu[a, b]:
                given = frozenset(set(g.v_nodes) | {g.u_nodes[x] for x in anc[a] if x != b})
                confirm(g.u_nodes[a], g.u_nodes[b], given, 4)
    return out


# ---------------------------------------------------------------------------
# Markov-equivalence obstructions


@dataclass(frozen=True)
class Obstruction:
    kind: str  # "collision_path" | "chordless_cycle"
    nodes: tuple[NodeId, ...]
    pattern: Optional[str] = None


class NotARegressionGraphError(QueryError):
    pass


def equivalence_obstruction(g: SummaryGraph) -> Optional[Obstruction]:
    """Search for a structure that rules out Markov equivalence to a DAG:
    a chordless collision path in four nodes, or a chordless cycle of four
    or more nodes within v.  Finding none does not certify equivalence.

    The cycle search first strips simplicial v nodes (whose neighbours are
    pairwise joined), which lie on no chordless cycle, until none is left;
    a chordal v, a complete one say, is settled there.  The subsets of the
    remaining core are then tried in order of size, so on a core that is
    not chordal the search is still exponential in the core's size."""
    cls = classify(g)
    if cls.kind != "regression_graph":
        raise NotARegressionGraphError(
            f"graph has semi-directed cycles: {cls.semi_directed_cycles}"
        )
    path = _chordless_collision_path(g)
    if path is not None:
        return path
    cycle = _chordless_cycle_in_v(g)
    if cycle is not None:
        return cycle
    return None


def _chordless_collision_path(g: SummaryGraph) -> Optional[Obstruction]:
    """The three four-node patterns: -> ~~ <- , ~~ ~~ <- , ~~ ~~ ~~ ."""
    nu = len(g.u_nodes)
    coupled = _skeleton(g)

    def dashed(i, k):
        return bool(g.w_uu[i, k]) and i != k

    def arrow_into(i, k):
        # arrow with head at i, tail at k; the tail may sit in u or v
        if k < nu:
            return bool(g.h_uu[i, k]) and i != k
        return bool(g.h_uv[i, k - nu])

    u_range = range(nu)
    n_range = range(len(g.nodes))
    # pattern 1: x1 -> x2 ~~ x3 <- x4
    for x2 in u_range:
        for x3 in u_range:
            if not dashed(x2, x3):
                continue
            for x1 in n_range:
                if x1 in (x2, x3) or not arrow_into(x2, x1):
                    continue
                for x4 in n_range:
                    if x4 in (x1, x2, x3) or not arrow_into(x3, x4):
                        continue
                    if coupled[x1, x3] or coupled[x2, x4]:
                        continue
                    return Obstruction(
                        "collision_path",
                        tuple(g.nodes[x] for x in (x1, x2, x3, x4)),
                        pattern="-> ~~ <-",
                    )
    # pattern 2: x1 ~~ x2 ~~ x3 <- x4  (and its mirror, found by symmetry)
    for x1 in u_range:
        for x2 in u_range:
            if not dashed(x1, x2):
                continue
            for x3 in u_range:
                if x3 in (x1, x2) or not dashed(x2, x3):
                    continue
                for x4 in n_range:
                    if x4 in (x1, x2, x3) or not arrow_into(x3, x4):
                        continue
                    if coupled[x1, x3] or coupled[x2, x4]:
                        continue
                    return Obstruction(
                        "collision_path",
                        tuple(g.nodes[x] for x in (x1, x2, x3, x4)),
                        pattern="~~ ~~ <-",
                    )
    # pattern 3: x1 ~~ x2 ~~ x3 ~~ x4
    for x2 in u_range:
        for x3 in u_range:
            if x2 >= x3 or not dashed(x2, x3):
                continue
            for x1 in u_range:
                if x1 in (x2, x3) or not dashed(x1, x2):
                    continue
                for x4 in u_range:
                    if x4 in (x1, x2, x3) or not dashed(x3, x4):
                        continue
                    if coupled[x1, x3] or coupled[x2, x4]:
                        continue
                    return Obstruction(
                        "collision_path",
                        tuple(g.nodes[x] for x in (x1, x2, x3, x4)),
                        pattern="~~ ~~ ~~",
                    )
    return None


def _chordless_cycle_in_v(g: SummaryGraph) -> Optional[Obstruction]:
    s = g.s_vv
    core = set(range(len(g.v_nodes)))
    nbrs = {x: set(np.flatnonzero(s[x]).tolist()) - {x} for x in core}
    # a simplicial node (its neighbours pairwise joined) is on no chordless
    # cycle, in v or in v without the nodes already stripped
    stripped = True
    while stripped:
        stripped = False
        for x in sorted(core):
            near = nbrs[x] & core
            if all(z in nbrs[y] for y, z in itertools.combinations(near, 2)):
                core.discard(x)
                stripped = True
    # enumerate simple cycles of length >= 4 without chords
    core = sorted(core)
    for length in range(4, len(core) + 1):
        for combo in itertools.combinations(core, length):
            sub = s[np.ix_(combo, combo)]
            deg = sub.sum(axis=1) - 1
            if not (deg == 2).all():
                continue
            if int(sub.sum() - length) != 2 * length:
                continue
            if len(_reachable(sub, [0])) == length:
                cyc = _cycle_order(sub)
                return Obstruction(
                    "chordless_cycle", tuple(g.v_nodes[combo[i]] for i in cyc)
                )
    return None


def _cycle_order(sub: np.ndarray) -> list[int]:
    n = sub.shape[0]
    order = [0]
    prev = None
    x = 0
    while len(order) < n:
        nbrs = [int(y) for y in np.flatnonzero(sub[x]) if y != x and y != prev]
        prev, x = x, nbrs[0]
        order.append(x)
    return order
