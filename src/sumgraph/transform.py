"""Graph derivations: summary graphs under marginalising and conditioning.

Three equivalent routes produce the summary graph of a reduced node set:

* the block-matrix route from a parent graph (``summary_from_parent``),
  built on partial closure of an arranged edge matrix;
* the block-matrix route from an existing summary graph
  (``summary_from_summary``);
* the node-at-a-time route (``step_marginalise`` / ``step_condition``)
  that inserts edges for two-edge configurations at the operated node.
  Its work graph keeps a summary graph's invariant between steps (edges
  within v are full lines, edges between u and v are arrows into u), so
  each step costs its closure work plus the edges it adds and the nodes
  it moves from u to v, not a pass over the whole graph.

The module also derives the overall covariance and concentration graphs,
order-respecting regression graphs, and the MAG that is Markov
equivalent to a given summary graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .edge_matrix import (
    indicator,
    is_unit_upper_triangular,
    partial_close,
    partial_invert,
    reach_closure,
)
from .graph_model import (
    ARROW,
    DASH,
    DASHED,
    FULL,
    HEAD,
    Edge,
    GraphModelError,
    Mag,
    NodeId,
    ParentGraph,
    Provenance,
    SummaryGraph,
    _topological_u_order,
    from_edge_list,
    parent_to_summary,
)


class TransformError(GraphModelError):
    pass


class InvalidSpecError(TransformError):
    """Conditioning and marginalising sets overlap or leave the node set."""


@dataclass(frozen=True)
class MarginalConditionSpec:
    conditioning: frozenset = frozenset()
    marginalising: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "conditioning", frozenset(self.conditioning))
        object.__setattr__(self, "marginalising", frozenset(self.marginalising))
        if self.conditioning & self.marginalising:
            raise InvalidSpecError(
                f"conditioning and marginalising overlap: "
                f"{sorted(self.conditioning & self.marginalising, key=str)}"
            )

    def validate_over(self, nodes: Iterable[NodeId]) -> None:
        missing = (self.conditioning | self.marginalising) - set(nodes)
        if missing:
            raise InvalidSpecError(f"spec names unknown nodes: {sorted(missing, key=str)}")


def spec_of(conditioning: Iterable[NodeId] = (), marginalising: Iterable[NodeId] = ()) -> MarginalConditionSpec:
    return MarginalConditionSpec(frozenset(conditioning), frozenset(marginalising))


@dataclass(frozen=True)
class SplitRecord:
    """Node split induced by a conditioning set: outsiders O, foster nodes F
    (ancestors of C outside C), their marginalised parts p = O & M and
    q = F & M, and the surviving u = O - p, v = F - q."""

    outsiders: tuple[NodeId, ...]
    foster: tuple[NodeId, ...]
    u: tuple[NodeId, ...]
    v: tuple[NodeId, ...]
    p: tuple[NodeId, ...]
    q: tuple[NodeId, ...]


def compute_split(g: ParentGraph, spec: MarginalConditionSpec) -> SplitRecord:
    spec.validate_over(g.nodes)
    anc = g.ancestor_matrix()
    cset = spec.conditioning
    mset = spec.marginalising
    ancestor_of_c = anc[[g.index(c) for c in cset]].any(axis=0)
    foster = [n for k, n in enumerate(g.nodes) if n not in cset and ancestor_of_c[k]]
    fset = set(foster)
    outsiders = [n for n in g.nodes if n not in cset and n not in fset]
    p = tuple(n for n in outsiders if n in mset)
    q = tuple(n for n in foster if n in mset)
    u = tuple(n for n in outsiders if n not in mset)
    v = tuple(n for n in foster if n not in mset)
    return SplitRecord(tuple(outsiders), tuple(foster), u, v, p, q)


def _in(m: np.ndarray) -> np.ndarray:
    return (np.asarray(m, dtype=np.int64) > 0).astype(np.int8)


# ---------------------------------------------------------------------------
# the block derivations, written once over two algebras


# The sweeps look the operators up by their module names on every call, so
# whatever rebinds those names (the benchmark's tracer does) sees each call.
def _close(m: np.ndarray, a: list[int]) -> np.ndarray:
    return partial_close(_in(m), a).astype(np.int64)


def _invert(m: np.ndarray, a: list[int]) -> np.ndarray:
    return partial_invert(m, a)


def _symmetrised(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class _Algebra:
    """What a block derivation needs of its entries.

    Partial closure is the 0/1 shadow of partial inversion.  On supports
    nothing cancels, so a difference has the support of the sum, and every
    final block is read as its support.  Over the reals the covariance and
    concentration blocks are symmetrised against rounding instead.  The
    residual variances come with the coefficients: ones for supports.
    """

    sweep: Callable[[np.ndarray, list[int]], np.ndarray]
    minus: Callable[[np.ndarray, np.ndarray], np.ndarray]
    block: Callable[[np.ndarray], np.ndarray]
    cov: Callable[[np.ndarray], np.ndarray]


_SUPPORT = _Algebra(sweep=_close, minus=np.add, block=_in, cov=_in)
_REAL = _Algebra(sweep=_invert, minus=np.subtract, block=np.asarray, cov=_symmetrised)


def _reduce_parent(
    g: ParentGraph,
    spec: MarginalConditionSpec,
    split: SplitRecord,
    alg: _Algebra,
    a: np.ndarray,
    dvar: np.ndarray,
):
    """Reduce the system (a, dvar) on the parent graph by (C, M), whose node
    split ``compute_split(g, spec)`` the caller passes in.

    Works on the coefficient matrix arranged in the order (p, u, q, v): the
    O rows carry the equations, the F rows carry the concentration of the
    foster nodes given C.  Sweeping p and then q yields all four
    components in place.  Returns (h_uu, h_uv, w_uu, s_vv).
    """
    idx = {n: i for i, n in enumerate(g.nodes)}
    a = np.asarray(a, dtype=float)  # 0/1 path counts would overflow int8
    kept = spec.conditioning | set(split.foster)
    r = [idx[n] for n in g.nodes if n in kept]
    arr = [idx[n] for n in split.p + split.u + split.q + split.v]
    n_p, n_u, n_q = len(split.p), len(split.u), len(split.q)
    n_pu = n_p + n_u
    sl_p, sl_u = slice(0, n_p), slice(n_p, n_pu)
    sl_q, sl_v = slice(n_pu, n_pu + n_q), slice(n_pu + n_q, None)

    t = np.zeros((len(arr), len(arr)))
    t[:n_pu] = a[np.ix_(arr[:n_pu], arr)]
    a_rr = a[np.ix_(r, r)]
    conc_rr = a_rr.T @ np.diag(1.0 / dvar[r]) @ a_rr
    r_pos = {i: k for k, i in enumerate(r)}
    qv = [r_pos[i] for i in arr[n_pu:]]
    t[n_pu:, n_pu:] = conc_rr[np.ix_(qv, qv)]

    d = alg.sweep(t, list(range(n_p)))
    k = alg.sweep(d, list(range(n_pu, n_pu + n_q)))
    dv = dvar[arr]
    d_up, d_uq = d[sl_u, sl_p], d[sl_u, sl_q]
    w_uu = np.diag(dv[sl_u]) + d_up @ np.diag(dv[sl_p]) @ d_up.T + d_uq @ k[sl_q, sl_q] @ d_uq.T
    return alg.block(k[sl_u, sl_u]), alg.block(k[sl_u, sl_v]), alg.cov(w_uu), alg.cov(k[sl_v, sl_v])


def summary_from_parent(g: ParentGraph, spec: MarginalConditionSpec) -> SummaryGraph:
    """Derive the summary graph of V minus (C, M) from a parent graph by
    partial closure of the arranged edge matrix."""
    split = compute_split(g, spec)
    h_uu, h_uv, w_uu, s_vv = _reduce_parent(g, spec, split, _SUPPORT, g.amat, np.ones(g.dim))
    return SummaryGraph(
        u_nodes=split.u,
        v_nodes=split.v,
        h_uu=h_uu,
        h_uv=h_uv,
        w_uu=w_uu,
        s_vv=s_vv,
        provenance=Provenance(spec.conditioning, spec.marginalising, split),
    )


def induced_covariance_graph(g: ParentGraph) -> np.ndarray:
    """In[A- A-T]: a zero at (i, k) means the graph implies i independent of k."""
    closed = g.ancestor_matrix().astype(np.int64)
    return _in(closed @ closed.T)


def induced_concentration_graph(g: ParentGraph) -> np.ndarray:
    """In[AT A]: a zero at (i, k) means i independent of k given all others."""
    a = g.amat.astype(np.int64)
    return _in(a.T @ a)


@dataclass(frozen=True)
class RegressionGraphComponents:
    a_nodes: tuple[NodeId, ...]
    b_nodes: tuple[NodeId, ...]
    s_aa_given_b: np.ndarray  # dashed edges among the responses a given b
    p_a_given_b: np.ndarray   # arrows from b to a
    s_bb_marginal: np.ndarray  # concentration graph of b after marginalising a


def regression_graph_from_parent(g: ParentGraph, n_a: int) -> RegressionGraphComponents:
    """Regression graph induced for the order-respecting split a | b, where a
    is the first ``n_a`` nodes of the generating order."""
    if not 0 <= n_a <= g.dim:
        raise TransformError(f"split size {n_a} out of range")
    a = g.amat.astype(np.int64)
    ai = list(range(n_a))
    bi = list(range(n_a, g.dim))
    k_aa = reach_closure(a[np.ix_(ai, ai)]).astype(np.int64) if ai else np.zeros((0, 0), dtype=np.int64)
    k_ab = _in(k_aa @ a[np.ix_(ai, bi)]).astype(np.int64)
    a_bb = a[np.ix_(bi, bi)]
    return RegressionGraphComponents(
        a_nodes=g.nodes[:n_a],
        b_nodes=g.nodes[n_a:],
        s_aa_given_b=_in(k_aa @ k_aa.T),
        p_a_given_b=_in(k_ab),
        s_bb_marginal=_in(a_bb.T @ a_bb),
    )


# ---------------------------------------------------------------------------
# node-at-a-time construction


def is_collision_pair(mark_in: str, mark_out: str) -> bool:
    """Whether an inner node with these two edge-end marks is a collision node."""
    return mark_in in (HEAD, DASH) and mark_out in (HEAD, DASH)


def _induced_kind(at_x: bool, at_y: bool) -> tuple[str, Optional[str]]:
    if at_x and at_y:
        return DASHED, None
    if at_x:
        return ARROW, "x"
    if at_y:
        return ARROW, "y"
    return FULL, None


def induced_edge_kind(mark_x: str, mark_y: str) -> tuple[str, Optional[str]]:
    """Edge induced for the outer pair of a two-edge path, given the edge-end
    marks at the outer nodes x and y.  Returns (kind, end holding the
    arrowhead: 'x' | 'y' | None).

    This one rule reproduces every cell of the stepwise construction table:
    an endpoint keeps an arrowhead-like end (head or dash) and the combination
    of the two ends fixes the induced kind.
    """
    return _induced_kind(mark_x in (HEAD, DASH), mark_y in (HEAD, DASH))


_EdgeItem = tuple  # ("arrow", head_id) | ("dashed",) | ("full",)


def _headlike(item: _EdgeItem, node: NodeId) -> bool:
    """Whether the end of ``item`` at ``node`` is a head or a dash."""
    return item[0] == DASHED or (item[0] == ARROW and item[1] == node)


class _WorkGraph:
    """Mutable multigraph on which the step operators run: for every node the
    edges to each neighbour (one set of items shared by both ends) and the
    position of every node in u + v.

    Between steps the graph keeps the invariant of a summary graph: edges
    within v are full lines only, edges between u and v are arrows into u,
    and the u order puts every node before its parents.  So a step only has
    to restore it where it changed the graph: on the edges it added and the
    edges of the nodes it moved from u to v.  ``fresh`` holds the node pairs
    added to since the last step (at the start, the arrows stored against
    the given u order), and each step costs its closure work plus the edges
    it adds and the nodes it moves, with one O(n) re-indexing of the order.
    """

    def __init__(self, g: SummaryGraph):
        self.adj: dict[NodeId, dict[NodeId, set[_EdgeItem]]] = {n: {} for n in g.nodes}
        self.fresh: list[tuple[NodeId, NodeId]] = []
        u, v = g.u_nodes, g.v_nodes
        for i, k in np.argwhere(g.h_uu):
            if i != k:
                self._add(u[i], u[k], (ARROW, u[i]))
                if k < i:
                    self.fresh.append((u[i], u[k]))
        for i, k in np.argwhere(g.h_uv):
            self._add(u[i], v[k], (ARROW, u[i]))
        for i, k in np.argwhere(np.triu(g.w_uu, 1)):
            self._add(u[i], u[k], (DASHED,))
        for i, k in np.argwhere(np.triu(g.s_vv, 1)):
            self._add(v[i], v[k], (FULL,))
        self.provenance = g.provenance or Provenance()
        self._order(list(u), list(v))

    def _order(self, u: list[NodeId], v: list[NodeId]) -> None:
        self.u, self.v = u, v
        self.pos = {n: i for i, n in enumerate(u + v)}

    def _add(self, x: NodeId, y: NodeId, item: _EdgeItem) -> bool:
        bucket = self.adj[x].get(y)
        if bucket is None:
            bucket = self.adj[x][y] = self.adj[y][x] = set()
        elif item in bucket:
            return False
        bucket.add(item)
        return True

    def ancestors(self, node: NodeId) -> set[NodeId]:
        """Nodes with a directed path to ``node`` (arrows only)."""
        out: set[NodeId] = set()
        stack = [node]
        while stack:
            x = stack.pop()
            for par, bucket in self.adj[x].items():
                if par not in out and (ARROW, x) in bucket:
                    out.add(par)
                    stack.append(par)
        out.discard(node)
        return out

    def induce_at(self, w: NodeId, collision: bool) -> list[tuple[NodeId, NodeId]]:
        """Insert the edges the construction table prescribes for every pair of
        neighbors of ``w``, taking w as a collision node (conditioning) or a
        transmitting node (marginalising).  Reads only the edges at w, each
        once; returns the node pairs it added an edge to."""
        # per neighbour x, the (end at w, end at x) pairs of its edges to w,
        # each end read as arrowhead-like or not; a collision needs both
        # ends at w arrowhead-like, so it skips the other edges
        ends = []
        for x, bucket in self.adj[w].items():
            pairs = {(_headlike(item, w), _headlike(item, x)) for item in bucket}
            if collision:
                pairs = [p for p in pairs if p[0]]
            if pairs:
                ends.append((x, pairs))
        added = []
        for xi, (x, ends_x) in enumerate(ends):
            for y, ends_y in ends[xi + 1:]:
                for w_x, at_x in ends_x:
                    for w_y, at_y in ends_y:
                        if (w_x and w_y) != collision:
                            continue
                        kind, head_end = _induced_kind(at_x, at_y)
                        if kind == ARROW:
                            item = (ARROW, x if head_end == "x" else y)
                        else:
                            item = (kind,)
                        if self._add(x, y, item):
                            added.append((x, y))
        return added

    def retype(self, v_new: set[NodeId], pairs: Iterable[tuple[NodeId, NodeId]]) -> None:
        """Turn each of the edges on ``pairs`` that lies within the new v into
        a full line and each between the new u and v into an arrow from v to
        u; leave edges within u alone."""
        for x, y in pairs:
            x_in, y_in = x in v_new, y in v_new
            if x_in or y_in:
                bucket = self.adj[x][y]
                bucket.clear()
                bucket.add((FULL,) if x_in and y_in else (ARROW, y if x_in else x))

    def delete(self, node: NodeId) -> None:
        for y in self.adj.pop(node):
            del self.adj[y][node]

    def _settle(self, u: list[NodeId], v: list[NodeId]) -> None:
        """Take the new (u, v), re-sorting u as ``from_edge_list`` would should
        an arrow within u break its order, so that the next step sees the
        node order of a work graph rebuilt from this step's summary graph.
        Dropping nodes keeps an order topological, so only the arrows on the
        ``fresh`` pairs can break it."""
        self._order(u, v)
        nu, pos = len(u), self.pos
        if any(
            pos.get(x, nu) < nu and pos.get(y, nu) < nu
            and (ARROW, x if pos[y] < pos[x] else y) in self.adj[x][y]
            for x, y in self.fresh
        ):
            arrows = [
                Edge(tail=y, head=x, kind=ARROW)
                for x in u
                for y, bucket in self.adj[x].items()
                if pos[y] < nu and (ARROW, x) in bucket
            ]
            self._order(_topological_u_order(u, arrows), v)
        self.fresh = []

    def marginalise(self, t: NodeId) -> None:
        """Close every transmitting two-edge path through t, then drop t."""
        self.fresh += self.induce_at(t, collision=False)
        v = [n for n in self.v if n != t]
        self.retype(set(v), self.fresh)
        self.delete(t)
        self.provenance = _extended_provenance(self.provenance, marginalising=(t,))
        self._settle([n for n in self.u if n != t], v)

    def condition(self, s: NodeId) -> None:
        """Close collision two-edge paths at s and its ancestors, move the
        ancestors within u into v, re-type their edges and drop s.

        The closure runs a worklist: a node is visited again only after an
        edge at it was added, since ``induce_at`` reads nothing else.  The
        closed edge set is the least fixpoint, whatever the order of visits.
        Every arrow it adds has its tail among the ancestors, so the
        ancestor set does not grow."""
        closure = self.ancestors(s) | {s}
        todo, queued = list(closure), set(closure)
        while todo:
            w = todo.pop()
            queued.discard(w)
            for pair in self.induce_at(w, collision=True):
                self.fresh.append(pair)
                for z in pair:
                    if z in closure and z not in queued:
                        queued.add(z)
                        todo.append(z)
        moved = [n for n in self.u if n in closure and n != s]
        v = [n for n in self.v if n != s] + moved
        self.retype(set(v), self.fresh + [(m, y) for m in moved for y in self.adj[m]])
        self.delete(s)
        self.provenance = _extended_provenance(self.provenance, conditioning=(s,))
        self._settle([n for n in self.u if n not in closure], v)

    def to_summary(self) -> SummaryGraph:
        edges = []
        pos = self.pos
        for x, nbrs in self.adj.items():
            for y, bucket in nbrs.items():
                for item in bucket:
                    if item[0] == ARROW:
                        if item[1] == x:  # each arrow once, from its head
                            edges.append(Edge(tail=y, head=x, kind=ARROW))
                    elif pos[x] < pos[y]:
                        edges.append(Edge(tail=x, head=y, kind=item[0]))
        return from_edge_list(edges, self.u, self.v, self.provenance)


def _extended_provenance(prov: Optional[Provenance], conditioning=(), marginalising=()) -> Provenance:
    prov = prov or Provenance()
    return Provenance(
        conditioning=prov.conditioning | frozenset(conditioning),
        marginalising=prov.marginalising | frozenset(marginalising),
        split=None,
    )


def _one_step(
    g: SummaryGraph | ParentGraph, node: NodeId, step: Callable[[_WorkGraph, NodeId], None]
) -> SummaryGraph:
    if isinstance(g, ParentGraph):
        g = parent_to_summary(g)
    if node not in g.nodes:
        raise TransformError(f"node {node!r} not in graph")
    work = _WorkGraph(g)
    step(work, node)
    return work.to_summary()


def step_marginalise(g: SummaryGraph | ParentGraph, t: NodeId) -> SummaryGraph:
    """Marginalise over a single node: close every transmitting two-edge path
    through it, then drop the node."""
    return _one_step(g, t, _WorkGraph.marginalise)


def step_condition(g: SummaryGraph | ParentGraph, s: NodeId) -> SummaryGraph:
    """Condition on a single node: repeatedly close collision two-edge paths
    at the node and at each of its ancestors, move the ancestors within u
    into v, re-type their edges, and drop the node."""
    return _one_step(g, s, _WorkGraph.condition)


def _run_steps(
    g: SummaryGraph,
    spec: MarginalConditionSpec,
    conditioning_order: Optional[list[NodeId]],
    marginalising_order: Optional[list[NodeId]],
    condition_first: bool,
) -> Iterator[tuple[str, NodeId, _WorkGraph]]:
    """Run the one-node-at-a-time construction on a single work graph,
    yielding the operation, the node and the graph after every step."""
    spec.validate_over(g.nodes)
    c_order = list(conditioning_order) if conditioning_order is not None else sorted(
        spec.conditioning, key=str
    )
    m_order = list(marginalising_order) if marginalising_order is not None else sorted(
        spec.marginalising, key=str
    )
    if set(c_order) != spec.conditioning or set(m_order) != spec.marginalising:
        raise InvalidSpecError("step orders must enumerate the spec sets exactly")
    blocks = (
        [("condition", c_order), ("marginalise", m_order)]
        if condition_first
        else [("marginalise", m_order), ("condition", c_order)]
    )
    work = _WorkGraph(g)
    for op, order in blocks:
        for node in order:
            (work.condition if op == "condition" else work.marginalise)(node)
            yield op, node, work


def stepwise_trace(
    g: SummaryGraph | ParentGraph,
    spec: MarginalConditionSpec,
    conditioning_order: Optional[list[NodeId]] = None,
    marginalising_order: Optional[list[NodeId]] = None,
    condition_first: bool = True,
) -> list[tuple[str, NodeId, SummaryGraph]]:
    """Apply the one-node-at-a-time construction, recording a snapshot of
    the summary graph after every step."""
    if isinstance(g, ParentGraph):
        g = parent_to_summary(g)
    steps = _run_steps(g, spec, conditioning_order, marginalising_order, condition_first)
    return [(op, node, work.to_summary()) for op, node, work in steps]


def stepwise_reduce(
    g: SummaryGraph | ParentGraph,
    spec: MarginalConditionSpec,
    conditioning_order: Optional[list[NodeId]] = None,
    marginalising_order: Optional[list[NodeId]] = None,
    condition_first: bool = True,
) -> SummaryGraph:
    """Apply the one-node-at-a-time construction and return the final
    summary graph, taking no snapshot of the steps in between."""
    if isinstance(g, ParentGraph):
        g = parent_to_summary(g)
    work = None
    for _, _, work in _run_steps(g, spec, conditioning_order, marginalising_order, condition_first):
        pass
    return g if work is None else work.to_summary()


# ---------------------------------------------------------------------------
# summary graph from summary graph


def _reduce_summary(g, spec: MarginalConditionSpec, alg: _Algebra):
    """Reduce a summary graph or a reduced linear system further by (C, M).

    Conditioning splits u into outsiders o and the block r of conditioned
    nodes plus their foster ancestors.  Sweeping the residual structure on
    r supplies the collision-path closures, the outsider equations are
    orthogonalised against r, and sweeping the marginalised nodes h (in o)
    and l (in phi, the foster nodes and the surviving v) finishes the job.
    Residual cross products between surviving and marginalised outsiders
    enter the residual component.  Returns (u, v) and (h_uu, h_uv, w_uu, s_vv).
    """
    spec.validate_over(g.nodes)
    cset, mset = spec.conditioning, spec.marginalising
    mu, nu_nodes = list(g.u_nodes), list(g.v_nodes)
    mu_pos = {n: i for i, n in enumerate(mu)}
    closed_uu = reach_closure(indicator(g.h_uu))
    c_mu = [mu_pos[n] for n in mu if n in cset]
    r = [n for n in mu if any(closed_uu[c, mu_pos[n]] for c in c_mu)]
    o = [n for n in mu if n not in set(r)]
    phi = [n for n in r + nu_nodes if n not in cset]
    h = [n for n in o if n in mset]
    l = [n for n in phi if n in mset]
    u_new = [n for n in o if n not in mset]
    v_new = [n for n in phi if n not in mset]

    b_uu = np.asarray(g.h_uu, dtype=float)
    b_uv = np.asarray(g.h_uv, dtype=float)
    ri = [mu_pos[n] for n in r]
    oi = [mu_pos[n] for n in o]
    q_full = alg.sweep(g.w_uu, ri)

    # concentration of (r, v) given the enlarged conditioning set
    b_r_psi = np.concatenate([b_uu[np.ix_(ri, ri)], b_uv[ri]], axis=1)
    s_psi = b_r_psi.T @ q_full[np.ix_(ri, ri)] @ b_r_psi
    s_psi[len(r):, len(r):] += g.s_vv
    psi_pos = {n: i for i, n in enumerate(r + nu_nodes)}
    phi_i = [psi_pos[n] for n in phi]

    # orthogonalise the outsider equations against r
    b_o_psi = np.concatenate([b_uu[np.ix_(oi, ri)], b_uv[oi]], axis=1)
    c_o_psi = alg.minus(b_o_psi, q_full[np.ix_(oi, ri)] @ b_r_psi)

    big = np.zeros((len(o) + len(phi),) * 2)
    big[: len(o), : len(o)] = b_uu[np.ix_(oi, oi)]
    big[: len(o), len(o):] = c_o_psi[:, phi_i]
    big[len(o):, len(o):] = s_psi[np.ix_(phi_i, phi_i)]
    big_pos = {n: i for i, n in enumerate(o + phi)}
    ub, vb, hb, lb = ([big_pos[n] for n in part] for part in (u_new, v_new, h, l))
    k = alg.sweep(big, hb + lb)

    uo = [mu_pos[n] for n in u_new]
    ho = [mu_pos[n] for n in h]
    k_uh, k_ul = k[np.ix_(ub, hb)], k[np.ix_(ub, lb)]
    cross = k_uh @ q_full[np.ix_(uo, ho)].T
    # the residual covariance of the marginalised concentration-form
    # equations is the (l, l) block of the phi-phi concentration itself
    w_new = (
        alg.minus(q_full[np.ix_(uo, uo)], cross + cross.T)
        + k_uh @ q_full[np.ix_(ho, ho)] @ k_uh.T
        + k_ul @ big[np.ix_(lb, lb)] @ k_ul.T
    )
    h_uu, h_uv, s_vv = k[np.ix_(ub, ub)], k[np.ix_(ub, vb)], k[np.ix_(vb, vb)]
    blocks = (alg.block(h_uu), alg.block(h_uv), alg.cov(w_new), alg.cov(s_vv))
    return (tuple(u_new), tuple(v_new)), blocks


def summary_from_summary(g: SummaryGraph, spec: MarginalConditionSpec) -> SummaryGraph:
    """Derive a smaller summary graph from a summary graph in one shot; the
    stepwise route and the parent-graph route agree with this derivation."""
    (u_new, v_new), (h_uu, h_uv, w_uu, s_vv) = _reduce_summary(g, spec, _SUPPORT)
    return SummaryGraph(
        u_nodes=u_new,
        v_nodes=v_new,
        h_uu=h_uu,
        h_uv=h_uv,
        w_uu=w_uu,
        s_vv=s_vv,
        provenance=_extended_provenance(g.provenance, spec.conditioning, spec.marginalising),
    )


# ---------------------------------------------------------------------------
# MAG construction


def mag_from_summary(g: SummaryGraph) -> Mag:
    """Build the Markov-equivalent MAG: the v block and the arrows from v are
    copied; within u, each ancestral pair keeps an arrow exactly when the
    dependence survives conditioning on the remaining ancestors, and each
    non-ancestral pair gains a dashed edge exactly when the residual
    association survives conditioning on the joint ancestor set.

    Both tests read partial closures that depend only on the ancestor set
    e conditioned on: K, h_uu closed over the rest a, and Q, w_uu closed
    over e.  The pairs are grouped by e and worked through one e at a time,
    so each K and Q is formed once and only one e's are held.  The stored u
    order must put every node before its ancestors (h_uu unit
    upper-triangular); ``TransformError`` is raised otherwise."""
    nu = len(g.u_nodes)
    if nu and not is_unit_upper_triangular(g.h_uu):
        raise TransformError("h_uu is not unit upper-triangular in the stored u order")
    closed = g._arrow_closure
    anc = [frozenset(np.flatnonzero(closed[i]).tolist()) - {i} for i in range(nu)]
    # (i, None) tests the arrows from i's ancestors, (i, ll) the dashed edge
    by_e: dict[frozenset, list] = {}
    for i in range(nu):
        if anc[i]:
            by_e.setdefault(anc[i], []).append((i, None))
        for ll in range(i + 1, nu):
            if ll not in anc[i]:
                by_e.setdefault(anc[i] | anc[ll], []).append((i, ll))
    h_new = np.eye(nu, dtype=np.int8)
    w_new = np.eye(nu, dtype=np.int8)
    for e, pairs in by_e.items():
        b = sorted(e)
        a = [x for x in range(nu) if x not in e]
        k_mat = partial_close(g.h_uu, a).astype(np.int64)
        q_mat = partial_close(g.w_uu, b).astype(np.int64)
        k_a, q_aa = k_mat[:, a], q_mat[np.ix_(a, a)]
        for i, ll in pairs:
            if ll is None:
                row = k_mat[i, b] + q_mat[i, b] @ k_mat[np.ix_(b, b)]
                for pos, kk in enumerate(b):
                    if row[pos] > 0:
                        h_new[i, kk] = 1
            # the (i, ll) entry of K_aa Q_aa K_aa^T
            elif k_a[i] @ q_aa @ k_a[ll] > 0:
                w_new[i, ll] = 1
                w_new[ll, i] = 1
    return Mag(
        u_nodes=g.u_nodes,
        v_nodes=g.v_nodes,
        h_uu=h_new,
        h_uv=g.h_uv,
        w_uu=w_new,
        s_vv=g.s_vv,
        provenance=g.provenance,
    )
